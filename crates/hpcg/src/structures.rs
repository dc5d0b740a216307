//! Data structures of the benchmark: vectors and the sparse operator,
//! each pairing real Rust storage (the numerics are genuine) with
//! simulated addresses (what the hierarchy simulator and PEBS see).

use mempersp_extrae::{AppContext, CodeLocation};

/// Maximum stencil width: 27 nonzeros per row.
pub const MAX_NNZ: usize = 27;

/// A dense vector with a simulated base address.
#[derive(Debug, Clone)]
pub struct SimVector {
    data: Vec<f64>,
    base: u64,
}

impl SimVector {
    /// Allocate a zero vector of `n` doubles through the context's
    /// interposed `malloc` on `core` (so it becomes a tracked data
    /// object when it meets the threshold).
    pub fn new(ctx: &mut dyn AppContext, core: usize, n: usize, callsite: &CodeLocation) -> Self {
        let base = ctx.malloc(core, (n * 8) as u64, callsite);
        Self { data: vec![0.0; n], base }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Simulated address of element `i`.
    pub fn addr(&self, i: usize) -> u64 {
        debug_assert!(i < self.data.len());
        self.base + (i * 8) as u64
    }

    /// Simulated base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Real value of element `i` (no simulated access).
    pub fn get(&self, i: usize) -> f64 {
        self.data[i]
    }

    /// Set the real value of element `i` (no simulated access).
    pub fn set(&mut self, i: usize, v: f64) {
        self.data[i] = v;
    }

    /// Fill with a constant (no simulated accesses; setup-phase helper).
    pub fn fill(&mut self, v: f64) {
        self.data.iter_mut().for_each(|x| *x = v);
    }
}

/// The 27-point stencil operator in HPCG's reference layout: one value
/// array and one column-index array *per row* (stored packed here, but
/// each row carries its own simulated allocation address, reproducing
/// the reference code's `new double[27]` per row).
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    nrows: usize,
    /// Nonzeros per row.
    nnz: Vec<u8>,
    /// Position of the diagonal within each row's nonzeros.
    diag_pos: Vec<u8>,
    /// Packed values, stride [`MAX_NNZ`].
    values: Vec<f64>,
    /// Packed local column indices, stride [`MAX_NNZ`].
    cols: Vec<u32>,
    /// Simulated base address of each row's value array.
    values_addr: Vec<u64>,
    /// Simulated base address of each row's column-index array.
    cols_addr: Vec<u64>,
}

impl SparseMatrix {
    /// Build an empty matrix shell for `nrows` rows. Row addresses are
    /// filled by the problem generator as it performs the per-row
    /// simulated allocations.
    pub fn with_rows(nrows: usize) -> Self {
        Self {
            nrows,
            nnz: vec![0; nrows],
            diag_pos: vec![0; nrows],
            values: vec![0.0; nrows * MAX_NNZ],
            cols: vec![0; nrows * MAX_NNZ],
            values_addr: vec![0; nrows],
            cols_addr: vec![0; nrows],
        }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Define row `i`: its column indices and values (`cols` must be
    /// sorted; the diagonal must be present). Called by the generator.
    pub fn set_row(&mut self, i: usize, entries: &[(u32, f64)], values_addr: u64, cols_addr: u64) {
        assert!(entries.len() <= MAX_NNZ, "row {i} has too many nonzeros");
        let mut diag = None;
        for (k, &(c, v)) in entries.iter().enumerate() {
            self.values[i * MAX_NNZ + k] = v;
            self.cols[i * MAX_NNZ + k] = c;
            if c as usize == i {
                diag = Some(k as u8);
            }
        }
        self.nnz[i] = entries.len() as u8;
        self.diag_pos[i] = diag.unwrap_or_else(|| panic!("row {i} has no diagonal entry"));
        self.values_addr[i] = values_addr;
        self.cols_addr[i] = cols_addr;
    }

    /// Nonzero count of row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.nnz[i] as usize
    }

    /// Values of row `i`.
    pub fn row_values(&self, i: usize) -> &[f64] {
        &self.values[i * MAX_NNZ..i * MAX_NNZ + self.nnz[i] as usize]
    }

    /// Column indices of row `i`.
    pub fn row_cols(&self, i: usize) -> &[u32] {
        &self.cols[i * MAX_NNZ..i * MAX_NNZ + self.nnz[i] as usize]
    }

    /// Diagonal value of row `i`.
    pub fn diag(&self, i: usize) -> f64 {
        self.values[i * MAX_NNZ + self.diag_pos[i] as usize]
    }

    /// Simulated address of the `k`-th value of row `i`.
    pub fn value_addr(&self, i: usize, k: usize) -> u64 {
        self.values_addr[i] + (k * 8) as u64
    }

    /// Simulated address of the `k`-th column index of row `i`
    /// (4-byte local indices, as HPCG's `local_int_t`).
    pub fn col_addr(&self, i: usize, k: usize) -> u64 {
        self.cols_addr[i] + (k * 4) as u64
    }

    /// Host-side y = A·x (no simulated accesses; for validation).
    pub fn spmv_host(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows);
        assert_eq!(y.len(), self.nrows);
        for i in 0..self.nrows {
            let mut sum = 0.0;
            for k in 0..self.row_nnz(i) {
                sum += self.values[i * MAX_NNZ + k] * x[self.cols[i * MAX_NNZ + k] as usize];
            }
            y[i] = sum;
        }
    }
}

/// One level of the multigrid hierarchy.
#[derive(Debug, Clone)]
pub struct MgLevel {
    pub geom: crate::geometry::Geometry,
    pub a: SparseMatrix,
    /// Fine row index of each coarse row (injection operator), with
    /// its simulated base address.
    pub f2c: Vec<u32>,
    pub f2c_base: u64,
    /// Work vectors of this level: A·xf, the restricted residual and
    /// the coarse solution (only populated below the finest level
    /// where needed).
    pub axf: SimVector,
    pub rc: Option<SimVector>,
    pub xc: Option<SimVector>,
}

/// A rank's full problem: the MG hierarchy plus the CG work vectors.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Fine-to-coarse hierarchy; `levels[0]` is the finest.
    pub levels: Vec<MgLevel>,
    /// Right-hand side.
    pub b: SimVector,
    /// Solution iterate.
    pub x: SimVector,
    /// CG work vectors.
    pub r: SimVector,
    pub z: SimVector,
    pub p: SimVector,
    pub ap: SimVector,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_row_accessors() {
        let mut m = SparseMatrix::with_rows(3);
        m.set_row(0, &[(0, 26.0), (1, -1.0)], 0x1000, 0x2000);
        m.set_row(1, &[(0, -1.0), (1, 26.0), (2, -1.0)], 0x1100, 0x2100);
        m.set_row(2, &[(1, -1.0), (2, 26.0)], 0x1200, 0x2200);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.row_nnz(1), 3);
        assert_eq!(m.diag(1), 26.0);
        assert_eq!(m.row_cols(2), &[1, 2]);
        assert_eq!(m.value_addr(1, 2), 0x1110);
        assert_eq!(m.col_addr(1, 1), 0x2104);
    }

    #[test]
    fn host_spmv_tridiagonal() {
        let mut m = SparseMatrix::with_rows(3);
        m.set_row(0, &[(0, 2.0), (1, -1.0)], 0, 0);
        m.set_row(1, &[(0, -1.0), (1, 2.0), (2, -1.0)], 0, 0);
        m.set_row(2, &[(1, -1.0), (2, 2.0)], 0, 0);
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        m.spmv_host(&x, &mut y);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "no diagonal")]
    fn missing_diagonal_panics() {
        let mut m = SparseMatrix::with_rows(2);
        m.set_row(0, &[(1, -1.0)], 0, 0);
    }
}

//! A 7-point Jacobi stencil sweep over a 3D grid.

use mempersp_extrae::{AppContext, CodeLocation, MemRequest, Workload};

/// Cells batched per [`AppContext::access_batch`] issue (8 requests
/// per cell).
const CHUNK: usize = 128;

/// Jacobi sweeps `out[i] = (in[i] + Σ neighbours)/7` over an
/// `n × n × n` grid, ping-ponging between two arrays.
#[derive(Debug, Clone)]
pub struct Stencil7 {
    n: usize,
    sweeps: usize,
    /// Centre value after the final sweep (set by `run`).
    pub probe: f64,
}

impl Stencil7 {
    pub fn new(n: usize, sweeps: usize) -> Self {
        assert!(n >= 3 && sweeps >= 1);
        Self { n, sweeps, probe: 0.0 }
    }

    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.n + y) * self.n + x
    }
}

impl Workload for Stencil7 {
    fn name(&self) -> String {
        format!("7-point stencil n={} sweeps={}", self.n, self.sweeps)
    }

    fn run(&mut self, ctx: &mut dyn AppContext) {
        let n = self.n;
        let cells = n * n * n;
        let site = |line: u32| CodeLocation::new("stencil.c", line, "jacobi7");
        let ip_in = ctx.location("stencil.c", 52, "jacobi7");
        let ip_out = ctx.location("stencil.c", 57, "jacobi7");
        let ip_loop = ctx.location("stencil.c", 50, "jacobi7");

        let base_a = ctx.malloc(0, (cells * 8) as u64, &site(20));
        let base_b = ctx.malloc(0, (cells * 8) as u64, &site(21));
        let mut cur: Vec<f64> = (0..cells).map(|i| (i % 13) as f64).collect();
        let mut nxt = vec![0.0f64; cells];
        let mut cur_base = base_a;
        let mut nxt_base = base_b;

        ctx.set_overlap(0, 5.0);
        let mut buf: Vec<MemRequest> = Vec::with_capacity(8 * CHUNK);
        for _ in 0..self.sweeps {
            ctx.enter(0, "jacobi7");
            let mut pending = 0u64;
            for z in 1..n - 1 {
                for y in 1..n - 1 {
                    for x in 1..n - 1 {
                        let c = self.idx(x, y, z);
                        let neigh = [
                            c,
                            self.idx(x - 1, y, z),
                            self.idx(x + 1, y, z),
                            self.idx(x, y - 1, z),
                            self.idx(x, y + 1, z),
                            self.idx(x, y, z - 1),
                            self.idx(x, y, z + 1),
                        ];
                        let mut sum = 0.0;
                        for &j in &neigh {
                            buf.push(MemRequest::load(ip_in, cur_base + (j * 8) as u64, 8));
                            sum += cur[j];
                        }
                        nxt[c] = sum / 7.0;
                        buf.push(MemRequest::store(ip_out, nxt_base + (c * 8) as u64, 8));
                        pending += 1;
                        if pending as usize == CHUNK {
                            ctx.access_batch(0, &buf);
                            buf.clear();
                            ctx.compute(0, ip_loop, 10 * pending, 3 * pending);
                            pending = 0;
                        }
                    }
                }
            }
            if pending > 0 {
                ctx.access_batch(0, &buf);
                buf.clear();
                ctx.compute(0, ip_loop, 10 * pending, 3 * pending);
            }
            ctx.exit(0, "jacobi7");
            std::mem::swap(&mut cur, &mut nxt);
            std::mem::swap(&mut cur_base, &mut nxt_base);
        }
        self.probe = cur[self.idx(n / 2, n / 2, n / 2)];
        ctx.free(0, base_a);
        ctx.free(0, base_b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_extrae::{EventPayload, NullContext};

    #[test]
    fn stencil_smooths_toward_local_mean() {
        let mut ctx = NullContext::new(1);
        let mut w = Stencil7::new(8, 3);
        w.run(&mut ctx);
        // After smoothing the probe lies within the initial value range.
        assert!(w.probe >= 0.0 && w.probe <= 12.0);
        let trace = ctx.finish("stencil");
        let id = trace.region_id("jacobi7").unwrap();
        let enters = trace.events.iter().filter(|e| {
            e.core == 0 && matches!(e.payload, EventPayload::RegionEnter { region, .. } if region == id)
        });
        assert_eq!(enters.count(), 3);
    }

    #[test]
    fn boundary_cells_untouched() {
        let mut ctx = NullContext::new(1);
        let mut w = Stencil7::new(5, 2);
        w.run(&mut ctx);
        // Interior got averaged with boundary values each sweep; just
        // assert determinism across runs.
        let mut ctx2 = NullContext::new(1);
        let mut w2 = Stencil7::new(5, 2);
        w2.run(&mut ctx2);
        assert_eq!(w.probe, w2.probe);
    }
}

//! Stream-vbyte integer columns: the v4 chunk codec's building block.
//!
//! LEB128 spends a branch and a shift per *byte*; a stream-vbyte
//! column separates the length information from the payload so decode
//! becomes branch-free table-driven loads. Each value gets a 2-bit
//! width code (`0..=3` → 1/2/4/8 little-endian bytes), four codes per
//! control byte:
//!
//! ```text
//! column := ctrl[ceil(n/4)]  — 2-bit codes, value i in bits 2*(i%4)
//!           data[...]        — each value's low `width` bytes, LE
//! ```
//!
//! Unused lanes of the final control byte must be coded `0` and carry
//! **no** data bytes, so a column's byte length is a pure function of
//! its control bytes — that's what lets a reader skip whole columns
//! (and whole groups within a column) without touching their data.
//!
//! Decoding runs 4 values per step: one 16-byte load, one SSSE3
//! `pshufb` through a 256-entry shuffle table, one widening store
//! (AVX2 uses `vpmovzxdq` to widen all four lanes at once). Groups
//! containing an 8-byte lane — rare: full-range addresses — fall back
//! to scalar loads for that group only. The kernel is picked once per
//! process via `is_x86_feature_detected!`; `MEMPERSP_NO_SIMD=1` forces
//! the scalar path (the CI fallback leg), and every kernel produces
//! bit-identical output (asserted by proptest).

use crate::varint::CodecError;
use std::sync::OnceLock;

/// Width in bytes of one 2-bit code.
#[inline(always)]
const fn code_width(code: u8) -> usize {
    1usize << code
}

/// The 2-bit width code for a value.
#[inline(always)]
fn width_code(v: u64) -> u8 {
    if v < 1 << 8 {
        0
    } else if v < 1 << 16 {
        1
    } else if v < 1 << 32 {
        2
    } else {
        3
    }
}

const fn lane_width(ctrl: u8, lane: usize) -> usize {
    code_width((ctrl >> (2 * lane)) & 3)
}

const fn build_group_len() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut c = 0usize;
    while c < 256 {
        let mut sum = 0usize;
        let mut l = 0usize;
        while l < 4 {
            sum += lane_width(c as u8, l);
            l += 1;
        }
        t[c] = sum as u8;
        c += 1;
    }
    t
}

const fn build_has_w8() -> [bool; 256] {
    let mut t = [false; 256];
    let mut c = 0usize;
    while c < 256 {
        let mut l = 0usize;
        while l < 4 {
            if (c >> (2 * l)) & 3 == 3 {
                t[c] = true;
            }
            l += 1;
        }
        c += 1;
    }
    t
}

/// `pshufb` masks turning ≤16 packed data bytes into four u32 lanes.
/// Only meaningful for control bytes without an 8-byte code (the
/// `HAS_W8` check guards every use); 0x80 lanes shuffle in zeros.
const fn build_shuffle() -> [[u8; 16]; 256] {
    let mut t = [[0x80u8; 16]; 256];
    let mut c = 0usize;
    while c < 256 {
        let mut off = 0usize;
        let mut l = 0usize;
        while l < 4 {
            let w = lane_width(c as u8, l);
            let mut b = 0usize;
            while b < 4 {
                if b < w && w <= 4 {
                    t[c][4 * l + b] = (off + b) as u8;
                }
                b += 1;
            }
            off += w;
            l += 1;
        }
        c += 1;
    }
    t
}

/// Data bytes of one full 4-lane group, by control byte.
static GROUP_DATA_LEN: [u8; 256] = build_group_len();
/// Does this control byte contain an 8-byte lane (SIMD fallback)?
static HAS_W8: [bool; 256] = build_has_w8();
#[cfg(target_arch = "x86_64")]
static SHUFFLE: [[u8; 16]; 256] = build_shuffle();

/// The decode kernel selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    Scalar,
    Ssse3,
    Avx2,
}

impl SimdLevel {
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Ssse3 => "ssse3",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// What the CPU supports, ignoring the `MEMPERSP_NO_SIMD` override.
/// The AVX2 level also counts bits (`popcnt`, which every AVX2 part
/// has): the selection kernel ranks rows with it.
pub fn detected_simd_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("popcnt")
        {
            return SimdLevel::Avx2;
        }
        if std::arch::is_x86_feature_detected!("ssse3") {
            return SimdLevel::Ssse3;
        }
    }
    SimdLevel::Scalar
}

/// The kernel every decode in this process uses: best detected level,
/// unless `MEMPERSP_NO_SIMD` is set (any non-empty value other than
/// `0`), which forces the portable scalar path. Resolved once.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let forced_off = std::env::var("MEMPERSP_NO_SIMD")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        if forced_off {
            SimdLevel::Scalar
        } else {
            detected_simd_level()
        }
    })
}

/// `simd_level().name()` — the label recorded in benchmarks and
/// exported by the server's `/metrics`.
pub fn simd_level_name() -> &'static str {
    simd_level().name()
}

fn err(offset: usize, message: String) -> CodecError {
    CodecError { offset, message }
}

// ------------------------------------------------------------ encode

/// Accumulates one column's values; [`ColBuf::write_into`] emits the
/// control bytes followed by the data bytes. `encoded_len` is kept
/// incrementally so chunk sealing can poll the running size cheaply.
#[derive(Default, Clone)]
pub struct ColBuf {
    vals: Vec<u64>,
    bytes: usize,
}

impl ColBuf {
    pub fn push(&mut self, v: u64) {
        if self.vals.len().is_multiple_of(4) {
            self.bytes += 1; // a new control byte starts
        }
        self.bytes += code_width(width_code(v));
        self.vals.push(v);
    }

    pub fn len(&self) -> usize {
        self.vals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Exact serialized size (control + data bytes).
    pub fn encoded_len(&self) -> usize {
        self.bytes
    }

    /// Append `ctrl || data` to `out`.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        let nctrl = self.vals.len().div_ceil(4);
        let ctrl_start = out.len();
        out.resize(ctrl_start + nctrl, 0u8);
        for (i, &v) in self.vals.iter().enumerate() {
            out[ctrl_start + i / 4] |= width_code(v) << (2 * (i % 4));
        }
        for &v in &self.vals {
            let w = code_width(width_code(v));
            out.extend_from_slice(&v.to_le_bytes()[..w]);
        }
    }

    pub fn clear(&mut self) {
        self.vals.clear();
        self.bytes = 0;
    }
}

/// Encode a slice as one standalone column (tests, proptests).
pub fn encode_column(vals: &[u64]) -> Vec<u8> {
    let mut b = ColBuf::default();
    for &v in vals {
        b.push(v);
    }
    let mut out = Vec::with_capacity(b.encoded_len());
    b.write_into(&mut out);
    out
}

// ------------------------------------------------------------ decode

/// A parsed view of one column inside a section buffer. Construction
/// ([`SvbColumn::parse`]) validates every length, so decoding is
/// infallible afterwards.
#[derive(Clone, Copy)]
pub struct SvbColumn<'a> {
    ctrl: &'a [u8],
    data: &'a [u8],
    n: usize,
}

impl<'a> SvbColumn<'a> {
    /// Parse the column of `n` values starting at `stream[*pos..]`,
    /// advancing `pos` past it. Rejects truncated control/data bytes
    /// and nonzero control codes past the column end.
    pub fn parse(stream: &'a [u8], pos: &mut usize, n: usize) -> Result<SvbColumn<'a>, CodecError> {
        let nctrl = n.div_ceil(4);
        let cend = pos
            .checked_add(nctrl)
            .filter(|&e| e <= stream.len())
            .ok_or_else(|| err(*pos, format!("column control bytes ({nctrl}) overrun section")))?;
        let ctrl = &stream[*pos..cend];
        let full_groups = n / 4;
        let mut dlen = 0usize;
        for &c in &ctrl[..full_groups] {
            dlen += GROUP_DATA_LEN[c as usize] as usize;
        }
        if !n.is_multiple_of(4) {
            let c = ctrl[full_groups];
            for lane in 0..4 {
                if lane < n % 4 {
                    dlen += lane_width(c, lane);
                } else if (c >> (2 * lane)) & 3 != 0 {
                    return Err(err(
                        cend - 1,
                        "nonzero control bits past column end".to_string(),
                    ));
                }
            }
        }
        let dend = cend
            .checked_add(dlen)
            .filter(|&e| e <= stream.len())
            .ok_or_else(|| err(cend, format!("column data ({dlen} bytes) overruns section")))?;
        let col = SvbColumn { ctrl, data: &stream[cend..dend], n };
        *pos = dend;
        Ok(col)
    }

    /// Number of values in the column.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Serialized size: control plus data bytes.
    pub fn total_len(&self) -> usize {
        self.ctrl.len() + self.data.len()
    }

    /// Control-stream size alone — the part every (even ranged)
    /// decode walks.
    pub fn ctrl_len(&self) -> usize {
        self.ctrl.len()
    }

    /// Data bytes of the groups covering values `[lo, hi)` — what a
    /// range decode actually reads (plus all control bytes).
    pub fn range_data_len(&self, lo: usize, hi: usize) -> usize {
        if lo >= hi {
            return 0;
        }
        let g0 = lo / 4;
        let g1 = (hi - 1) / 4;
        let full = self.n / 4;
        let mut bytes = 0usize;
        for g in g0..=g1 {
            bytes += if g < full {
                GROUP_DATA_LEN[self.ctrl[g] as usize] as usize
            } else {
                // tail group: only the occupied lanes carry data
                (0..self.n % 4).map(|l| lane_width(self.ctrl[g], l)).sum()
            };
        }
        bytes
    }

    /// Byte offset into `data` where group `g` starts.
    fn group_offset(&self, g: usize) -> usize {
        self.ctrl[..g].iter().map(|&c| GROUP_DATA_LEN[c as usize] as usize).sum()
    }

    /// Replace `out` with the whole column, using the process kernel.
    pub fn decode_into(&self, out: &mut Vec<u64>) {
        self.decode_into_with(simd_level(), out);
    }

    /// Decode the groups covering `[lo, hi)`. `out` receives values
    /// `[base, min(n, ...))` where `base = (lo/4)*4 <= lo` is the
    /// returned group-aligned start; earlier groups' data bytes are
    /// skipped via the control-byte length table without being read.
    pub fn decode_range_into(&self, lo: usize, hi: usize, out: &mut Vec<u64>) -> usize {
        out.clear();
        if lo >= hi || self.n == 0 {
            return 0;
        }
        let hi = hi.min(self.n);
        let g0 = lo / 4;
        let base = g0 * 4;
        let end = ((hi - 1) / 4 * 4 + 4).min(self.n);
        let off = self.group_offset(g0);
        out.reserve(end - base);
        match simd_level() {
            SimdLevel::Scalar => self.decode_groups_scalar(base, end, off, out),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Ssse3 => unsafe { self.decode_groups_ssse3(base, end, off, out) },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { self.decode_groups_avx2(base, end, off, out) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => self.decode_groups_scalar(base, end, off, out),
        }
        base
    }

    /// Decode with an explicit kernel (tests compare kernels pairwise).
    ///
    /// # Panics
    /// If the host CPU does not support the requested level.
    pub fn decode_into_with(&self, level: SimdLevel, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(self.n);
        match level {
            SimdLevel::Scalar => self.decode_groups_scalar(0, self.n, 0, out),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Ssse3 => {
                assert!(std::arch::is_x86_feature_detected!("ssse3"), "ssse3 unsupported");
                unsafe { self.decode_groups_ssse3(0, self.n, 0, out) }
            }
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => {
                assert!(std::arch::is_x86_feature_detected!("avx2"), "avx2 unsupported");
                unsafe { self.decode_groups_avx2(0, self.n, 0, out) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => self.decode_groups_scalar(0, self.n, 0, out),
        }
    }

    /// Decode values `[start, end)` (start group-aligned or 0) with
    /// plain loads; `off` is the data offset of `start`'s group.
    fn decode_groups_scalar(&self, start: usize, end: usize, mut off: usize, out: &mut Vec<u64>) {
        let mut i = start;
        while i < end {
            let c = self.ctrl[i / 4];
            let lanes = (end - i).min(4);
            for l in 0..lanes {
                let w = lane_width(c, l);
                out.push(load_le(self.data, off, w));
                off += w;
            }
            i += lanes;
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "ssse3")]
    unsafe fn decode_groups_ssse3(
        &self,
        start: usize,
        end: usize,
        mut off: usize,
        out: &mut Vec<u64>,
    ) {
        use std::arch::x86_64::*;
        let mut i = start;
        let zero = _mm_setzero_si128();
        while i + 4 <= end && off + 16 <= self.data.len() {
            let c = self.ctrl[i / 4] as usize;
            if HAS_W8[c] {
                for l in 0..4 {
                    let w = lane_width(c as u8, l);
                    out.push(load_le(self.data, off, w));
                    off += w;
                }
            } else {
                let mask = _mm_loadu_si128(SHUFFLE[c].as_ptr() as *const __m128i);
                let raw = _mm_loadu_si128(self.data.as_ptr().add(off) as *const __m128i);
                let packed = _mm_shuffle_epi8(raw, mask); // 4 × u32
                let mut grp = [0u64; 4];
                _mm_storeu_si128(
                    grp.as_mut_ptr() as *mut __m128i,
                    _mm_unpacklo_epi32(packed, zero),
                );
                _mm_storeu_si128(
                    grp.as_mut_ptr().add(2) as *mut __m128i,
                    _mm_unpackhi_epi32(packed, zero),
                );
                out.extend_from_slice(&grp);
                off += GROUP_DATA_LEN[c] as usize;
            }
            i += 4;
        }
        // Tail: groups without 16 bytes of load slack, plus any
        // partial final group.
        self.decode_groups_scalar(i, end, off, out);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn decode_groups_avx2(
        &self,
        start: usize,
        end: usize,
        mut off: usize,
        out: &mut Vec<u64>,
    ) {
        use std::arch::x86_64::*;
        let mut i = start;
        while i + 4 <= end && off + 16 <= self.data.len() {
            let c = self.ctrl[i / 4] as usize;
            if HAS_W8[c] {
                for l in 0..4 {
                    let w = lane_width(c as u8, l);
                    out.push(load_le(self.data, off, w));
                    off += w;
                }
            } else {
                let mask = _mm_loadu_si128(SHUFFLE[c].as_ptr() as *const __m128i);
                let raw = _mm_loadu_si128(self.data.as_ptr().add(off) as *const __m128i);
                let packed = _mm_shuffle_epi8(raw, mask); // 4 × u32
                let wide = _mm256_cvtepu32_epi64(packed); // 4 × u64
                let mut grp = [0u64; 4];
                _mm256_storeu_si256(grp.as_mut_ptr() as *mut __m256i, wide);
                out.extend_from_slice(&grp);
                off += GROUP_DATA_LEN[c] as usize;
            }
            i += 4;
        }
        self.decode_groups_scalar(i, end, off, out);
    }

    /// Replace `out` with the whole column narrowed to `u32`, or
    /// report the first value that does not fit as `(index, value)`.
    /// Only a group with an 8-byte lane can hold such a value, so the
    /// four-lane `pshufb` result is stored as it is — no widening, no
    /// second pass.
    pub fn decode_u32_into(&self, out: &mut Vec<u32>) -> Result<(), (usize, u64)> {
        out.clear();
        out.reserve(self.n);
        match simd_level() {
            SimdLevel::Scalar => self.decode_u32_scalar(0, 0, out),
            // SAFETY: both SIMD levels include SSSE3.
            #[cfg(target_arch = "x86_64")]
            _ => unsafe { self.decode_u32_ssse3(out) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => self.decode_u32_scalar(0, 0, out),
        }
    }

    /// Narrow the first `lanes` values of the group coded `c`, which
    /// starts at value `i` and data offset `*off`, with plain loads.
    #[inline(always)]
    fn narrow_lanes(
        &self,
        c: u8,
        lanes: usize,
        i: usize,
        off: &mut usize,
        out: &mut Vec<u32>,
    ) -> Result<(), (usize, u64)> {
        for l in 0..lanes {
            let w = lane_width(c, l);
            let v = load_le(self.data, *off, w);
            out.push(u32::try_from(v).map_err(|_| (i + l, v))?);
            *off += w;
        }
        Ok(())
    }

    /// Narrow values `[start, n)` (start group-aligned); `off` is the
    /// data offset of `start`'s group.
    fn decode_u32_scalar(
        &self,
        start: usize,
        mut off: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), (usize, u64)> {
        for i in (start..self.n).step_by(4) {
            self.narrow_lanes(self.ctrl[i / 4], (self.n - i).min(4), i, &mut off, out)?;
        }
        Ok(())
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "ssse3")]
    unsafe fn decode_u32_ssse3(&self, out: &mut Vec<u32>) -> Result<(), (usize, u64)> {
        use std::arch::x86_64::*;
        let (mut i, mut off) = (0usize, 0usize);
        while i + 4 <= self.n && off + 16 <= self.data.len() {
            let c = self.ctrl[i / 4] as usize;
            if HAS_W8[c] {
                self.narrow_lanes(c as u8, 4, i, &mut off, out)?;
            } else {
                let mask = _mm_loadu_si128(SHUFFLE[c].as_ptr() as *const __m128i);
                let raw = _mm_loadu_si128(self.data.as_ptr().add(off) as *const __m128i);
                let mut grp = [0u32; 4];
                _mm_storeu_si128(grp.as_mut_ptr() as *mut __m128i, _mm_shuffle_epi8(raw, mask));
                out.extend_from_slice(&grp);
                off += GROUP_DATA_LEN[c] as usize;
            }
            i += 4;
        }
        self.decode_u32_scalar(i, off, out)
    }

    /// Replace `out` with the column decoded as zig-zag deltas and
    /// prefix-summed into running values starting from `prev`: the
    /// timestamp column in one pass, no intermediate buffer.
    pub fn decode_zigzag_prefix_into(&self, prev: u64, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(self.n);
        match simd_level() {
            SimdLevel::Scalar => self.zigzag_prefix_scalar(prev, out),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Ssse3 => unsafe { self.zigzag_prefix_ssse3(prev, out) },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { self.zigzag_prefix_avx2(prev, out) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => self.zigzag_prefix_scalar(prev, out),
        }
    }

    fn zigzag_prefix_scalar(&self, mut prev: u64, out: &mut Vec<u64>) {
        let mut off = 0usize;
        let mut i = 0usize;
        while i < self.n {
            let c = self.ctrl[i / 4];
            let lanes = (self.n - i).min(4);
            for l in 0..lanes {
                let w = lane_width(c, l);
                prev = prev.wrapping_add(unzigzag(load_le(self.data, off, w)));
                out.push(prev);
                off += w;
            }
            i += lanes;
        }
    }

    /// SSSE3 kernel: `pshufb` group decode, then zig-zag undo and the
    /// intra-group prefix sum on 2×u64 SSE2 lanes with a serial carry
    /// between pairs.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "ssse3")]
    unsafe fn zigzag_prefix_ssse3(&self, mut prev: u64, out: &mut Vec<u64>) {
        use std::arch::x86_64::*;
        let zero = _mm_setzero_si128();
        let one = _mm_set1_epi64x(1);
        let mut off = 0usize;
        let mut i = 0usize;
        while i + 4 <= self.n && off + 16 <= self.data.len() {
            let c = self.ctrl[i / 4] as usize;
            if HAS_W8[c] {
                for l in 0..4 {
                    let w = lane_width(c as u8, l);
                    prev = prev.wrapping_add(unzigzag(load_le(self.data, off, w)));
                    out.push(prev);
                    off += w;
                }
            } else {
                let mask = _mm_loadu_si128(SHUFFLE[c].as_ptr() as *const __m128i);
                let raw = _mm_loadu_si128(self.data.as_ptr().add(off) as *const __m128i);
                let packed = _mm_shuffle_epi8(raw, mask);
                let mut grp = [0u64; 4];
                for (slot, half) in [
                    _mm_unpacklo_epi32(packed, zero),
                    _mm_unpackhi_epi32(packed, zero),
                ]
                .into_iter()
                .enumerate()
                {
                    // unzigzag: (x >> 1) ^ -(x & 1), two u64 lanes
                    let neg = _mm_sub_epi64(zero, _mm_and_si128(half, one));
                    let d = _mm_xor_si128(_mm_srli_epi64::<1>(half), neg);
                    // inclusive prefix within the pair: [a, a+b]
                    let s = _mm_add_epi64(d, _mm_slli_si128::<8>(d));
                    let r = _mm_add_epi64(s, _mm_set1_epi64x(prev as i64));
                    _mm_storeu_si128(grp.as_mut_ptr().add(slot * 2) as *mut __m128i, r);
                    prev = grp[slot * 2 + 1];
                }
                out.extend_from_slice(&grp);
                off += GROUP_DATA_LEN[c] as usize;
            }
            i += 4;
        }
        // Scalar remainder.
        let mut o = off;
        let mut j = i;
        while j < self.n {
            let c = self.ctrl[j / 4];
            let lanes = (self.n - j).min(4);
            for l in 0..lanes {
                let w = lane_width(c, l);
                prev = prev.wrapping_add(unzigzag(load_le(self.data, o, w)));
                out.push(prev);
                o += w;
            }
            j += lanes;
        }
    }

    /// AVX2 kernel: four u64 lanes per step — widen with `vpmovzxdq`,
    /// vector zig-zag undo, shift-add prefix sum across the register,
    /// broadcast running-total add.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn zigzag_prefix_avx2(&self, mut prev: u64, out: &mut Vec<u64>) {
        use std::arch::x86_64::*;
        let zero = _mm256_setzero_si256();
        let one = _mm256_set1_epi64x(1);
        let mut off = 0usize;
        let mut i = 0usize;
        while i + 4 <= self.n && off + 16 <= self.data.len() {
            let c = self.ctrl[i / 4] as usize;
            if HAS_W8[c] {
                for l in 0..4 {
                    let w = lane_width(c as u8, l);
                    prev = prev.wrapping_add(unzigzag(load_le(self.data, off, w)));
                    out.push(prev);
                    off += w;
                }
            } else {
                let mask = _mm_loadu_si128(SHUFFLE[c].as_ptr() as *const __m128i);
                let raw = _mm_loadu_si128(self.data.as_ptr().add(off) as *const __m128i);
                let x = _mm256_cvtepu32_epi64(_mm_shuffle_epi8(raw, mask));
                // unzigzag all four lanes
                let neg = _mm256_sub_epi64(zero, _mm256_and_si256(x, one));
                let d = _mm256_xor_si256(_mm256_srli_epi64::<1>(x), neg);
                // prefix sum: [a,b,c,d] -> [a, a+b, c, c+d] -> add the
                // low half's total into the high half's lanes
                let s1 = _mm256_add_epi64(d, _mm256_slli_si256::<8>(d));
                let low_total = _mm256_permute4x64_epi64::<0b01_01_01_01>(s1);
                let carry = _mm256_blend_epi32::<0b1111_0000>(zero, low_total);
                let s2 = _mm256_add_epi64(s1, carry);
                let r = _mm256_add_epi64(s2, _mm256_set1_epi64x(prev as i64));
                let mut grp = [0u64; 4];
                _mm256_storeu_si256(grp.as_mut_ptr() as *mut __m256i, r);
                prev = grp[3];
                out.extend_from_slice(&grp);
                off += GROUP_DATA_LEN[c] as usize;
            }
            i += 4;
        }
        // Scalar remainder.
        let mut o = off;
        let mut j = i;
        while j < self.n {
            let c = self.ctrl[j / 4];
            let lanes = (self.n - j).min(4);
            for l in 0..lanes {
                let w = lane_width(c, l);
                prev = prev.wrapping_add(unzigzag(load_le(self.data, o, w)));
                out.push(prev);
                o += w;
            }
            j += lanes;
        }
    }
}

#[inline(always)]
fn load_le(data: &[u8], off: usize, w: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf[..w].copy_from_slice(&data[off..off + w]);
    u64::from_le_bytes(buf)
}

#[inline(always)]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline(always)]
pub fn unzigzag(v: u64) -> u64 {
    ((v >> 1) ^ (0u64.wrapping_sub(v & 1))) as i64 as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(vals: &[u64]) {
        let buf = encode_column(vals);
        let mut pos = 0usize;
        let col = SvbColumn::parse(&buf, &mut pos, vals.len()).expect("parse");
        assert_eq!(pos, buf.len(), "column must consume its exact bytes");
        let mut out = Vec::new();
        col.decode_into_with(SimdLevel::Scalar, &mut out);
        assert_eq!(out, vals, "scalar");
        col.decode_into(&mut out);
        assert_eq!(out, vals, "dispatch");
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("ssse3") {
                col.decode_into_with(SimdLevel::Ssse3, &mut out);
                assert_eq!(out, vals, "ssse3");
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                col.decode_into_with(SimdLevel::Avx2, &mut out);
                assert_eq!(out, vals, "avx2");
            }
        }
    }

    #[test]
    fn round_trips_across_widths_and_lengths() {
        round_trip(&[]);
        round_trip(&[0]);
        round_trip(&[255, 256, 65535, 65536]);
        round_trip(&[u32::MAX as u64, u32::MAX as u64 + 1, u64::MAX, 1]);
        for n in 1..40usize {
            let vals: Vec<u64> =
                (0..n).map(|i| 1u64 << (i * 7 % 64).min(63) >> 1 | i as u64).collect();
            round_trip(&vals);
        }
    }

    #[test]
    fn boundary_values_pick_minimal_widths() {
        // One value per width boundary; encoded data = 1+1+2+2+4+4+8+8
        // bytes, plus 2 control bytes.
        let vals = [0, 255, 256, 65535, 65536, (1 << 32) - 1, 1 << 32, u64::MAX];
        let buf = encode_column(&vals);
        assert_eq!(buf.len(), 2 + 30);
        round_trip(&vals);
    }

    #[test]
    fn tail_group_stores_no_padding() {
        // 5 one-byte values: 2 control bytes + 5 data bytes, nothing
        // for the 3 unused lanes.
        let buf = encode_column(&[1, 2, 3, 4, 5]);
        assert_eq!(buf.len(), 2 + 5);
    }

    #[test]
    fn nonzero_tail_codes_are_rejected() {
        let mut buf = encode_column(&[1, 2, 3, 4, 5]);
        buf[1] |= 0b1100_0000; // claim lane 3 of the tail group is 8-wide
        let mut pos = 0usize;
        assert!(SvbColumn::parse(&buf, &mut pos, 5).is_err());
    }

    #[test]
    fn truncated_columns_are_rejected() {
        let buf = encode_column(&[70000, 70001, 70002, 70003, 70004]);
        for cut in 0..buf.len() {
            let mut pos = 0usize;
            assert!(
                SvbColumn::parse(&buf[..cut], &mut pos, 5).is_err(),
                "truncation at {cut} must not parse"
            );
        }
    }

    #[test]
    fn range_decode_matches_full_decode() {
        let vals: Vec<u64> = (0..100u64).map(|i| i * 0x01_0101 % (1 << 40)).collect();
        let buf = encode_column(&vals);
        let mut pos = 0usize;
        let col = SvbColumn::parse(&buf, &mut pos, vals.len()).unwrap();
        let mut out = Vec::new();
        for (lo, hi) in [(0, 100), (3, 9), (4, 8), (97, 100), (50, 51), (0, 1)] {
            let base = col.decode_range_into(lo, hi, &mut out);
            assert!(base <= lo && base % 4 == 0);
            for v in lo..hi {
                assert_eq!(out[v - base], vals[v], "value {v} in range [{lo},{hi})");
            }
            assert!(
                col.range_data_len(lo, hi) <= col.data.len(),
                "range bytes within column"
            );
        }
        // Degenerate range decodes nothing.
        assert_eq!(col.decode_range_into(5, 5, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn u32_decode_narrows_or_names_the_first_wide_value() {
        for n in 0..40usize {
            let vals: Vec<u64> = (0..n as u64).map(|i| (i * 0x0101_0101) % (1 << 32) | (i % 3)).collect();
            let buf = encode_column(&vals);
            let col = SvbColumn::parse(&buf, &mut 0, n).unwrap();
            let mut out = vec![9u32];
            col.decode_u32_into(&mut out).unwrap();
            assert_eq!(out, vals.iter().map(|&v| v as u32).collect::<Vec<_>>(), "n = {n}");
            // The first of two wide values is the one reported, in a
            // full SIMD group, the scalar tail and anywhere between.
            for at in 0..n {
                let mut wide = vals.clone();
                wide[at] = (1 << 32) + 3;
                if at + 1 < n {
                    wide[n - 1] = u64::MAX;
                }
                let buf = encode_column(&wide);
                let col = SvbColumn::parse(&buf, &mut 0, n).unwrap();
                assert_eq!(col.decode_u32_into(&mut out), Err((at, (1 << 32) + 3)), "n = {n}");
            }
        }
    }

    #[test]
    fn zigzag_prefix_reconstructs_timestamps() {
        // Deltas may be negative (streamed bodies interleave cores).
        let deltas: Vec<i64> = (0..77)
            .map(|i| match i % 5 {
                0 => 3,
                1 => -2,
                2 => 1 << 20,
                3 => -(1 << 33),
                _ => 40 + i,
            })
            .collect();
        let mut cycles = Vec::new();
        let mut prev = 1_000_000u64;
        let start = prev;
        for &d in &deltas {
            prev = prev.wrapping_add(d as u64);
            cycles.push(prev);
        }
        let zz: Vec<u64> = deltas.iter().map(|&d| zigzag(d)).collect();
        let buf = encode_column(&zz);
        let mut pos = 0usize;
        let col = SvbColumn::parse(&buf, &mut pos, zz.len()).unwrap();
        let mut out = Vec::new();
        col.decode_zigzag_prefix_into(start, &mut out);
        assert_eq!(out, cycles);
    }

    #[test]
    fn level_name_is_stable() {
        assert!(["scalar", "ssse3", "avx2"].contains(&simd_level_name()));
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
    }
}

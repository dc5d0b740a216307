//! In-tree CRC32C (Castagnoli, reflected polynomial 0x82F63B78).
//!
//! The store checksums every chunk frame, chunk payload, the header
//! blob and the footer index with CRC32C. The store stays
//! dependency-free (matching the in-tree LZ77 ethos), so the
//! implementation lives here: a hardware path built on the SSE4.2
//! `crc32` instruction where the CPU has it, and a slicing-by-8
//! software fallback everywhere else. Both produce the standard
//! CRC32C (init `0xFFFF_FFFF`, final xor, e.g. `crc32c(b"123456789")
//! == 0xE306_9283`).

const POLY: u32 = 0x82F6_3B78;

/// Eight 256-entry tables for slicing-by-8: `TABLES[k][b]` folds byte
/// `b` sitting `k` bytes ahead of the current CRC window.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// `SHIFT_POWERS[k]` is the GF(2) matrix (32 column vectors) that
/// advances a CRC register past `2^k` zero bytes — the building block
/// of [`shift`], which lets the hardware path run three independent
/// `crc32q` chains and stitch their registers back together.
static SHIFT_POWERS: [[u32; 32]; 48] = build_shift_powers();

/// Apply a bit matrix to a register: XOR of the columns selected by
/// the set bits of `v`.
const fn mat_apply(m: &[u32; 32], mut v: u32) -> u32 {
    let mut r = 0u32;
    let mut i = 0;
    while v != 0 {
        if v & 1 != 0 {
            r ^= m[i];
        }
        v >>= 1;
        i += 1;
    }
    r
}

const fn mat_mult(a: &[u32; 32], b: &[u32; 32]) -> [u32; 32] {
    let mut c = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        c[i] = mat_apply(a, b[i]);
        i += 1;
    }
    c
}

const fn build_shift_powers() -> [[u32; 32]; 48] {
    // Advancing the register past one zero byte is
    // `reg' = (reg >> 8) ^ TABLES[0][reg & 0xFF]` — linear in `reg`,
    // so its matrix columns are the images of the unit vectors.
    let mut m1 = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        let v = 1u32 << i;
        m1[i] = (v >> 8) ^ TABLES[0][(v & 0xFF) as usize];
        i += 1;
    }
    let mut powers = [[0u32; 32]; 48];
    powers[0] = m1;
    let mut k = 1;
    while k < 48 {
        powers[k] = mat_mult(&powers[k - 1], &powers[k - 1]);
        k += 1;
    }
    powers
}

/// Advance `reg` as if `nbytes` zero bytes followed (O(log n)).
fn shift(mut reg: u32, mut nbytes: u64) -> u32 {
    let mut k = 0;
    while nbytes != 0 && k < SHIFT_POWERS.len() {
        if nbytes & 1 != 0 {
            reg = mat_apply(&SHIFT_POWERS[k], reg);
        }
        nbytes >>= 1;
        k += 1;
    }
    reg
}

fn update_soft(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in chunks.by_ref() {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_hw_serial(mut crc: u32, data: &[u8]) -> u32 {
    use core::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut chunks = data.chunks_exact(8);
    let mut crc64 = crc as u64;
    for c in chunks.by_ref() {
        let word = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        crc64 = _mm_crc32_u64(crc64, word);
    }
    crc = crc64 as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// `crc32q` has a 3-cycle latency, so one serial chain tops out near
/// 2.7 GB/s regardless of the instruction's 1/cycle throughput. Large
/// buffers are split into three equal lanes whose chains interleave
/// (hiding the latency), then the per-lane registers are merged with
/// [`shift`]: `update(r, A‖B‖C) = shift(shift(update(r, A), |B|) ^
/// update(0, B), |C|) ^ update(0, C)` — valid because the raw
/// register update is linear over GF(2).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_hw(crc: u32, data: &[u8]) -> u32 {
    use core::arch::x86_64::_mm_crc32_u64;
    if data.len() < 3 * 128 {
        return update_hw_serial(crc, data);
    }
    #[inline(always)]
    unsafe fn word(lane: &[u8], i: usize) -> u64 {
        (lane.as_ptr().add(i * 8) as *const u64).read_unaligned().to_le()
    }
    let lane = (data.len() / 3) & !7;
    let words = lane / 8;
    let (a, rest) = data.split_at(lane);
    let (b, c) = rest.split_at(lane); // `c` is the longest lane
    let mut ra = crc as u64;
    let mut rb = 0u64;
    let mut rc = 0u64;
    for i in 0..words {
        ra = _mm_crc32_u64(ra, word(a, i));
        rb = _mm_crc32_u64(rb, word(b, i));
        rc = _mm_crc32_u64(rc, word(c, i));
    }
    let rc = update_hw_serial(rc as u32, &c[words * 8..]);
    shift(shift(ra as u32, lane as u64) ^ rb as u32, c.len() as u64) ^ rc
}

fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // Safety: feature presence checked at runtime just above.
            return unsafe { update_hw(crc, data) };
        }
    }
    update_soft(crc, data)
}

/// One-shot CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    Crc32c::new().chain(data).finish()
}

/// Incremental CRC32C, for checksums spanning non-contiguous slices
/// (e.g. the header-blob compression byte followed by the blob).
#[derive(Clone, Copy)]
pub struct Crc32c(u32);

impl Crc32c {
    pub fn new() -> Self {
        Crc32c(0xFFFF_FFFF)
    }

    pub fn update(&mut self, data: &[u8]) {
        self.0 = update(self.0, data);
    }

    #[must_use]
    pub fn chain(mut self, data: &[u8]) -> Self {
        self.update(data);
        self
    }

    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 3720 appendix B test vectors for CRC32C.
    #[test]
    fn known_vectors() {
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        let descending: Vec<u8> = (0u8..32).rev().collect();
        assert_eq!(crc32c(&descending), 0x113F_DB5C);
    }

    #[test]
    fn hardware_and_software_agree() {
        // Exercise every alignment/remainder combination across both
        // paths; on non-SSE4.2 hosts this degenerates to soft==soft.
        let data: Vec<u8> = (0..1024u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        for start in 0..8 {
            for len in [0, 1, 7, 8, 9, 63, 64, 65, 255, 1000] {
                let slice = &data[start..start + len];
                let soft = update_soft(0xFFFF_FFFF, slice) ^ 0xFFFF_FFFF;
                assert_eq!(crc32c(slice), soft, "start {start} len {len}");
            }
        }
    }

    #[test]
    fn interleaved_hw_path_agrees_on_large_buffers() {
        // Past the 3-lane threshold the hardware path splits and
        // recombines with `shift`; every length/alignment must still
        // match the software answer bit for bit.
        let data: Vec<u8> =
            (0..200_000u32).map(|i| (i.wrapping_mul(2654435761) >> 11) as u8).collect();
        for start in [0, 1, 5] {
            for len in [383, 384, 385, 1000, 4096, 65_537, 199_993] {
                let slice = &data[start..start + len];
                let soft = update_soft(0xFFFF_FFFF, slice) ^ 0xFFFF_FFFF;
                assert_eq!(crc32c(slice), soft, "start {start} len {len}");
            }
        }
    }

    #[test]
    fn shift_matches_feeding_zero_bytes() {
        let zeros = vec![0u8; 5000];
        for n in [0usize, 1, 7, 8, 9, 255, 256, 4999] {
            let reg = update_soft(0xDEAD_BEEF, &zeros[..n]);
            assert_eq!(shift(0xDEAD_BEEF, n as u64), reg, "n {n}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..300u16).map(|i| i as u8).collect();
        for split in [0, 1, 8, 17, 299, 300] {
            let inc = Crc32c::new().chain(&data[..split]).chain(&data[split..]).finish();
            assert_eq!(inc, crc32c(&data), "split {split}");
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data = vec![0xA5u8; 257];
        let clean = crc32c(&data);
        for byte in [0, 1, 128, 255, 256] {
            for bit in 0..8 {
                let mut dirty = data.clone();
                dirty[byte] ^= 1 << bit;
                assert_ne!(crc32c(&dirty), clean, "flip byte {byte} bit {bit} undetected");
            }
        }
    }
}

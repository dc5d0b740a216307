//! The selection kernel: which rows of a chunk pass the pushed-down
//! kind / time / core predicates, decided 64 rows at a time.
//!
//! A selective query keeps one row in ten, so a pass that spends a
//! branch on every scanned row pays mostly for rows nobody consumes —
//! and mispredicts on them, because tags and cores interleave. This
//! kernel's cost is `rows / 64 + matches` instead. Per block of 64
//! tags it builds one 64-bit mask per event class (`tags == k`; AVX2:
//! two `cmpeq_epi8` + `movemask` per class), and everything else is
//! arithmetic on those masks:
//!
//! * an **unknown tag** is a bit no class mask covers;
//! * the **class populations** (needed to parse any payload section)
//!   are the masks' popcounts;
//! * **keep** = the wanted classes' masks OR-ed together ∧ the time
//!   window (a row range as bits when the cycles column is sorted,
//!   per-row compare bits when it is not) ∧ the core set (a 64-bit
//!   bitmap looked up per row; a set naming an id ≥ 64 tests the
//!   surviving candidates against the list instead);
//! * each set bit of `keep` is one selected row, and its
//!   class-occurrence is the class's running population plus the
//!   popcount of its mask below the bit.
//!
//! A **page** of match ranks is applied while emitting: blocks whose
//! matches fall outside it only count. Both levels ([`SimdLevel`]) run
//! this one algorithm; they differ only in how a block's masks and core
//! bits are computed (AVX2 compares and `movemask`s, or a scalar loop),
//! and produce identical output.

use crate::svb::SimdLevel;
use crate::varint::CodecError;
use mempersp_extrae::query::EventClass;
use std::ops::Range;

const NCLASS: usize = EventClass::ALL.len();
/// Rows per block: one bit each in a `u64`.
const BLOCK: usize = 64;

/// The head columns of one chunk, all `tags.len()` long.
pub(crate) struct HeadCols<'a> {
    pub tags: &'a [u8],
    pub cycles: &'a [u64],
    pub cores: &'a [u32],
}

/// The predicates the kernel evaluates.
pub(crate) struct RowFilter<'a> {
    /// Bit `k` set: rows of class `k` are wanted.
    pub kinds: u8,
    /// Inclusive cycle window.
    pub time: Option<(u64, u64)>,
    pub cores: Option<&'a [usize]>,
    /// Which matches to emit, by rank among the chunk's matches in
    /// row order; the rest are only counted.
    pub page: Range<usize>,
}

/// What [`select_rows`] found besides the selection vector.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Selected {
    /// Rows of each class in the whole chunk.
    pub nk: [usize; NCLASS],
    /// Per class, the first and last occurrence among the emitted
    /// rows (`jmin == usize::MAX`: none emitted).
    pub jmin: [usize; NCLASS],
    pub jmax: [usize; NCLASS],
    /// Rows that passed the filter, inside the page or not.
    pub matched: usize,
}

/// The low `n` bits set (`n ≤ 64`).
#[inline(always)]
fn low_bits(n: usize) -> u64 {
    if n >= BLOCK {
        !0
    } else {
        (1u64 << n) - 1
    }
}

fn tag_masks_scalar(tags: &[u8; BLOCK]) -> [u64; NCLASS] {
    let mut masks = [0u64; NCLASS];
    for (i, &t) in tags.iter().enumerate() {
        masks[usize::from(t) % NCLASS] |= u64::from(usize::from(t) < NCLASS) << i;
    }
    masks
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn tag_masks_avx2(tags: &[u8; BLOCK]) -> [u64; NCLASS] {
    use std::arch::x86_64::*;
    let p = tags.as_ptr() as *const __m256i;
    // SAFETY: two unaligned 32-byte loads cover exactly the 64 tags.
    let (lo, hi) = (_mm256_loadu_si256(p), _mm256_loadu_si256(p.add(1)));
    let mut masks = [0u64; NCLASS];
    for (k, mask) in masks.iter_mut().enumerate() {
        let class = _mm256_set1_epi8(k as i8);
        let a = _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, class)) as u32;
        let b = _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, class)) as u32;
        *mask = u64::from(a) | u64::from(b) << 32;
    }
    // Opaque on purpose: LLVM models a movemask as a bitcast of 32
    // one-bit lanes, and with the masks in view it scalarizes the
    // arithmetic downstream bit by bit (3.7 ns/row instead of 1.4).
    std::hint::black_box(masks)
}

/// Per-class masks of one full block: bit `i` of `masks[k]` is
/// `tags[i] == k`. A tag ≥ 8 sets no bit.
///
/// # Safety
/// The CPU must support `level`.
#[inline(always)]
unsafe fn tag_masks(level: SimdLevel, tags: &[u8; BLOCK]) -> [u64; NCLASS] {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => tag_masks_avx2(tags),
        _ => tag_masks_scalar(tags),
    }
}

/// Bit `i` = `cores[i]` is in `bitmap` (ids ≥ 64 never are).
fn core_bits_scalar(cores: &[u32], bitmap: u64) -> u64 {
    let mut bits = 0u64;
    for (i, &c) in cores.iter().enumerate() {
        bits |= (bitmap.checked_shr(c).unwrap_or(0) & 1) << i;
    }
    bits
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn core_bits_avx2(cores: &[u32], bitmap: u64) -> u64 {
    use std::arch::x86_64::*;
    // A variable 32-bit shift yields 0 for counts ≥ 32, so each half
    // of the bitmap answers for its own 32 ids: `c - 32` wraps to a
    // huge count below 32 and stays ≥ 32 from 64 up.
    let lo = _mm256_set1_epi32(bitmap as u32 as i32);
    let hi = _mm256_set1_epi32((bitmap >> 32) as u32 as i32);
    let c32 = _mm256_set1_epi32(32);
    let groups = cores.chunks_exact(8);
    let tail = groups.remainder();
    let mut bits = 0u64;
    for (g, group) in groups.enumerate() {
        // SAFETY: `group` is exactly eight `u32`s.
        let c = _mm256_loadu_si256(group.as_ptr() as *const __m256i);
        let hit = _mm256_or_si256(
            _mm256_srlv_epi32(lo, c),
            _mm256_srlv_epi32(hi, _mm256_sub_epi32(c, c32)),
        );
        let m = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_slli_epi32::<31>(hit)));
        bits |= u64::from(m as u32) << (8 * g);
    }
    if !tail.is_empty() {
        bits |= core_bits_scalar(tail, bitmap) << (cores.len() - tail.len());
    }
    bits
}

/// # Safety
/// The CPU must support `level`.
#[inline(always)]
unsafe fn core_bits(level: SimdLevel, cores: &[u32], bitmap: u64) -> u64 {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => core_bits_avx2(cores, bitmap),
        _ => core_bits_scalar(cores, bitmap),
    }
}

/// Bit `i` = `lo ≤ cycles[i] ≤ hi`.
fn time_bits(cycles: &[u64], lo: u64, hi: u64) -> u64 {
    let mut bits = 0u64;
    for (i, &c) in cycles.iter().enumerate() {
        bits |= u64::from(c >= lo && c <= hi) << i;
    }
    bits
}

/// How a block's candidates are tested against the query's core set.
enum CoreTest<'a> {
    Any,
    /// Every id of the set is below 64: one bit each.
    Bitmap(u64),
    /// The set names an id ≥ 64: test candidates against the list.
    List(&'a [usize]),
}

impl<'a> CoreTest<'a> {
    fn of(set: Option<&'a [usize]>) -> CoreTest<'a> {
        match set {
            None => CoreTest::Any,
            Some(ids) if ids.iter().all(|&c| c < BLOCK) => {
                CoreTest::Bitmap(ids.iter().fold(0, |bm, &c| bm | 1u64 << c))
            }
            Some(ids) => CoreTest::List(ids),
        }
    }
}

/// The kernel body, compiled once per level (it is inlined into a
/// function that enables the level's target features, so the mask
/// builders inline and the popcounts are single instructions).
///
/// # Safety
/// The CPU must support `level`.
#[inline(always)]
unsafe fn select_blocks(
    level: SimdLevel,
    head: &HeadCols<'_>,
    filter: &RowFilter<'_>,
    sel: &mut Vec<(u32, u32)>,
) -> Result<Selected, CodecError> {
    let HeadCols { tags, cycles, cores } = *head;
    assert!(cycles.len() == tags.len() && cores.len() == tags.len(), "head columns disagree");

    // Traces are written time-sorted, so the cycles column is almost
    // always non-decreasing and a time window is a contiguous row
    // range found by binary search. The format permits out-of-order
    // timestamps (deltas are signed), so an unsorted column falls
    // back to per-row compares.
    let (window, row_time) = match filter.time {
        Some((lo, hi)) if cycles.is_sorted() => {
            (cycles.partition_point(|&x| x < lo)..cycles.partition_point(|&x| x <= hi), None)
        }
        other => (0..tags.len(), other),
    };
    let core_test = CoreTest::of(filter.cores);
    let page = &filter.page;

    sel.clear();
    let mut out = Selected {
        nk: [0; NCLASS],
        jmin: [usize::MAX; NCLASS],
        jmax: [0; NCLASS],
        matched: 0,
    };
    for (b, block) in tags.chunks(BLOCK).enumerate() {
        let base = b * BLOCK;
        let masks = match <&[u8; BLOCK]>::try_from(block) {
            Ok(full) => tag_masks(level, full),
            Err(_) => {
                // The chunk's last block: pad with a tag no class has.
                let mut padded = [u8::MAX; BLOCK];
                padded[..block.len()].copy_from_slice(block);
                tag_masks(level, &padded)
            }
        };
        let known = masks.iter().fold(0, |all, &m| all | m);
        if known != low_bits(block.len()) {
            let p = (!known).trailing_zeros() as usize;
            return Err(CodecError {
                offset: base + p,
                message: format!("unknown event tag {}", block[p]),
            });
        }

        let mut keep = 0u64;
        for (k, &m) in masks.iter().enumerate() {
            if filter.kinds & (1 << k) != 0 {
                keep |= m;
            }
        }
        keep &= low_bits(window.end.saturating_sub(base)) & !low_bits(window.start.saturating_sub(base));
        if keep != 0 {
            let rows = base..base + block.len();
            if let Some((lo, hi)) = row_time {
                keep &= time_bits(&cycles[rows.clone()], lo, hi);
            }
            match core_test {
                CoreTest::Any => {}
                CoreTest::Bitmap(bitmap) => keep &= core_bits(level, &cores[rows], bitmap),
                CoreTest::List(ids) => {
                    let mut m = keep;
                    while m != 0 {
                        let p = m.trailing_zeros() as usize;
                        m &= m - 1;
                        if !ids.contains(&(cores[base + p] as usize)) {
                            keep &= !(1 << p);
                        }
                    }
                }
            }
        }

        // Emit the kept rows whose rank falls inside the page.
        let n = keep.count_ones() as usize;
        let skip = page.start.saturating_sub(out.matched).min(n);
        let take = page.end.saturating_sub(out.matched).min(n);
        out.matched += n;
        if skip < take {
            let mut m = keep;
            for _ in 0..skip {
                m &= m - 1;
            }
            sel.reserve(take - skip);
            for _ in skip..take {
                let p = m.trailing_zeros() as usize;
                m &= m - 1;
                let k = usize::from(block[p]) % NCLASS;
                let j = out.nk[k] + (masks[k] & low_bits(p)).count_ones() as usize;
                sel.push(((base + p) as u32, j as u32));
                if out.jmin[k] == usize::MAX {
                    out.jmin[k] = j;
                }
                out.jmax[k] = j;
            }
        }
        for (n, &m) in out.nk.iter_mut().zip(&masks) {
            *n += m.count_ones() as usize;
        }
    }
    Ok(out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn select_avx2(
    head: &HeadCols<'_>,
    filter: &RowFilter<'_>,
    sel: &mut Vec<(u32, u32)>,
) -> Result<Selected, CodecError> {
    select_blocks(SimdLevel::Avx2, head, filter, sel)
}

/// Replace `sel` with the `(row, class-occurrence)` pairs of the rows
/// of `head` that pass `filter` and rank inside its page, in row
/// order. An unknown tag anywhere in the chunk is an error at its row.
///
/// # Panics
/// If the host CPU does not support `level`.
pub(crate) fn select_rows(
    level: SimdLevel,
    head: &HeadCols<'_>,
    filter: &RowFilter<'_>,
    sel: &mut Vec<(u32, u32)>,
) -> Result<Selected, CodecError> {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            assert!(
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("popcnt"),
                "avx2 unsupported"
            );
            // SAFETY: both features were just detected.
            unsafe { select_avx2(head, filter, sel) }
        }
        // SAFETY: the scalar kernel uses no instruction-set extension.
        _ => unsafe { select_blocks(SimdLevel::Scalar, head, filter, sel) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svb::detected_simd_level;
    use proptest::prelude::*;

    fn levels() -> Vec<SimdLevel> {
        let mut all = vec![SimdLevel::Scalar];
        if detected_simd_level() != SimdLevel::Scalar {
            all.push(detected_simd_level());
        }
        all
    }

    /// What [`three_loops`] returns: the selection and the per-class
    /// row counts.
    type Selection = (Vec<(u32, u32)>, [usize; NCLASS]);

    /// The selection as it was written before the block-mask kernel:
    /// a histogram pass, an occurrence pass over the rows before the
    /// window, and a branch per row inside it. Pages did not exist;
    /// [`oracle`] cuts one out of this answer.
    fn three_loops(head: &HeadCols<'_>, filter: &RowFilter<'_>) -> Result<Selection, CodecError> {
        let HeadCols { tags, cycles, cores } = *head;
        let count = tags.len();
        let mut nk = [0usize; NCLASS];
        for (i, &t) in tags.iter().enumerate() {
            if t as usize >= NCLASS {
                return Err(CodecError { offset: i, message: format!("unknown event tag {t}") });
            }
            nk[t as usize] += 1;
        }
        let active: [bool; NCLASS] = std::array::from_fn(|k| filter.kinds & (1u8 << k) != 0);
        let (ilo, ihi, row_time) = match filter.time {
            Some((lo, hi)) if cycles.is_sorted() => {
                (cycles.partition_point(|&x| x < lo), cycles.partition_point(|&x| x <= hi), None)
            }
            other => (0, count, other),
        };
        let mut sel = Vec::new();
        let mut occ = [0u32; NCLASS];
        for i in 0..ilo {
            occ[tags[i] as usize] += 1;
        }
        for i in ilo..ihi {
            let k = tags[i] as usize;
            let j = occ[k];
            occ[k] += 1;
            if !active[k] {
                continue;
            }
            let keep = row_time.is_none_or(|(lo, hi)| cycles[i] >= lo && cycles[i] <= hi)
                && filter.cores.is_none_or(|cs| cs.contains(&(cores[i] as usize)));
            if keep {
                sel.push((i as u32, j));
            }
        }
        Ok((sel, nk))
    }

    fn oracle(
        head: &HeadCols<'_>,
        filter: &RowFilter<'_>,
    ) -> Result<(Vec<(u32, u32)>, Selected), CodecError> {
        let (all, nk) = three_loops(head, filter)?;
        let page = filter.page.start.min(all.len())..filter.page.end.min(all.len());
        let sel = if page.start < page.end { all[page].to_vec() } else { Vec::new() };
        let mut out =
            Selected { nk, jmin: [usize::MAX; NCLASS], jmax: [0; NCLASS], matched: all.len() };
        for &(i, j) in &sel {
            let k = head.tags[i as usize] as usize;
            out.jmin[k] = out.jmin[k].min(j as usize);
            out.jmax[k] = out.jmax[k].max(j as usize);
        }
        Ok((sel, out))
    }

    /// Every level this host runs against the oracle.
    fn check(head: &HeadCols<'_>, filter: &RowFilter<'_>) {
        let want = oracle(head, filter);
        for level in levels() {
            // A dirty vector: the kernel must replace, not append.
            let mut sel = vec![(7, 7)];
            let got = select_rows(level, head, filter, &mut sel).map(|s| (sel, s));
            assert_eq!(got, want, "{level:?} kinds {:#b} time {:?} cores {:?} page {:?}",
                filter.kinds, filter.time, filter.cores, filter.page);
        }
    }

    /// `n` rows: every class in turn with a few runs, cores cycling
    /// over 0..5 with an 80 and a `u32::MAX` mixed in, cycles rising
    /// by 10 per row.
    fn rows(n: usize) -> (Vec<u8>, Vec<u64>, Vec<u32>) {
        let tags = (0..n).map(|i| ((i * 7 + i / 5) % NCLASS) as u8).collect();
        let cycles = (0..n as u64).map(|i| 1_000 + 10 * i).collect();
        let cores = (0..n)
            .map(|i| match i % 11 {
                9 => 80,
                10 => u32::MAX,
                c => (c % 5) as u32,
            })
            .collect();
        (tags, cycles, cores)
    }

    const SIZES: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 2_209];
    const PAGE_ALL: Range<usize> = 0..usize::MAX;

    #[test]
    fn every_size_kind_set_and_core_set() {
        let core_sets: [Option<&[usize]>; 6] =
            [None, Some(&[]), Some(&[1]), Some(&[0, 3, 63]), Some(&[80, 4_294_967_295]), Some(&[2, 80])];
        for n in SIZES {
            let (tags, cycles, cores) = rows(n);
            let head = HeadCols { tags: &tags, cycles: &cycles, cores: &cores };
            for kinds in [0u8, 0xFF, 1 << 3, 0b0100_0011] {
                for cores in core_sets {
                    check(&head, &RowFilter { kinds, time: None, cores, page: PAGE_ALL });
                }
            }
        }
    }

    #[test]
    fn window_edges_on_and_off_block_edges() {
        for n in SIZES {
            let (tags, cycles, cores) = rows(n);
            let head = HeadCols { tags: &tags, cycles: &cycles, cores: &cores };
            // Row r has cycles 1000 + 10 r: name windows by rows.
            let at = |row: usize| 1_000 + 10 * row as u64;
            for (first, last) in
                [(0, 0), (0, 63), (0, 64), (1, 62), (63, 64), (64, 127), (64, 128), (65, 200), (100, 2_300)]
            {
                for (lo, hi) in [(at(first), at(last)), (at(first) + 1, at(last) - 1), (0, u64::MAX)] {
                    let time = Some((lo, hi.max(lo)));
                    check(&head, &RowFilter { kinds: 0xFF, time, cores: None, page: PAGE_ALL });
                    check(&head, &RowFilter { kinds: 0b1010, time, cores: Some(&[1, 2]), page: PAGE_ALL });
                }
            }
            // Windows before, after and inverted.
            for time in [Some((0, 999)), Some((at(n) + 5, u64::MAX)), Some((at(9), at(3)))] {
                check(&head, &RowFilter { kinds: 0xFF, time, cores: None, page: PAGE_ALL });
            }
        }
    }

    #[test]
    fn unsorted_cycles_fall_back_to_per_row_compares() {
        for n in SIZES {
            let (tags, mut cycles, cores) = rows(n);
            // Each run of 13 rows restarts a little earlier than the
            // previous row: the column is unsorted wherever n > 13.
            for (i, c) in cycles.iter_mut().enumerate() {
                *c = 1_000 + 10 * (i % 13) as u64 + 3 * (i / 13) as u64;
            }
            let head = HeadCols { tags: &tags, cycles: &cycles, cores: &cores };
            for time in [Some((1_000, 1_040)), Some((1_055, 1_500)), Some((0, 10)), None] {
                check(&head, &RowFilter { kinds: 0xFF, time, cores: None, page: PAGE_ALL });
                check(&head, &RowFilter { kinds: 0b1100, time, cores: Some(&[0, 80]), page: 3..40 });
            }
        }
    }

    #[test]
    fn unknown_tag_at_every_position_of_a_block() {
        for n in [64usize, 65, 100, 128, 200] {
            let (clean, cycles, cores) = rows(n);
            // The chunk's last block, full or partial, and one before it.
            for block in [n.saturating_sub(1) / BLOCK, 0] {
                for at in block * BLOCK..n.min((block + 1) * BLOCK) {
                    for bad in [8u8, 0x80, 0xFF] {
                        let mut tags = clean.clone();
                        tags[at] = bad;
                        // A later unknown tag must not win.
                        if at + 1 < n {
                            tags[n - 1] = 9;
                        }
                        let head = HeadCols { tags: &tags, cycles: &cycles, cores: &cores };
                        let filter =
                            RowFilter { kinds: 1, time: Some((0, 5)), cores: Some(&[99]), page: 0..0 };
                        check(&head, &filter);
                        let err = select_rows(SimdLevel::Scalar, &head, &filter, &mut Vec::new())
                            .unwrap_err();
                        assert_eq!((err.offset, err.message), (at, format!("unknown event tag {bad}")));
                    }
                }
            }
        }
    }

    #[test]
    fn pages_cut_the_selection_and_its_hulls() {
        let (tags, cycles, cores) = rows(2_209);
        let head = HeadCols { tags: &tags, cycles: &cycles, cores: &cores };
        let filter =
            |page| RowFilter { kinds: 0b1001_1000, time: Some((1_500, 20_000)), cores: Some(&[0, 1, 2]), page };
        let total = oracle(&head, &filter(PAGE_ALL)).unwrap().1.matched;
        assert!(total > 300, "{total}");
        for page in [
            0..0,
            0..1,
            0..total,
            0..total + 1,
            5..6,
            63..65,
            100..300,
            total - 1..total,
            total..total + 5,
            total + 9..usize::MAX,
            usize::MAX..usize::MAX,
            #[allow(clippy::reversed_empty_ranges)] // a reversed page must select nothing
            (7..3),
        ] {
            check(&head, &filter(page));
        }
    }

    fn arb_core() -> BoxedStrategy<u32> {
        prop_oneof![0u32..6, 60u32..68, Just(80u32), Just(u32::MAX)].boxed()
    }

    proptest! {
        /// Tags × cores × cycles × queries × pages: every level equals
        /// the three-loop selection — `sel`, `nk`, hulls, match count,
        /// or the same error.
        #[test]
        fn kernel_equals_the_three_loop_selection(
            rows in prop::collection::vec((0u8..9, arb_core(), 0u64..40, 0u32..50), 0..300),
            kinds in any::<u8>(),
            time in (0u32..3, 0u64..4_000, 0u64..4_000),
            cores in (any::<bool>(), prop::collection::vec(arb_core(), 0..4)),
            page in (0usize..3, 0usize..60, 0usize..60),
        ) {
            // Tag 8 is unknown (one row in nine would make most cases
            // errors: keep it to one in ~70); `back` = 0 steps the
            // clock backwards.
            let tags: Vec<u8> =
                rows.iter().map(|&(t, _, d, _)| if t == 8 && d != 0 { 0 } else { t }).collect();
            let cores_col: Vec<u32> = rows.iter().map(|r| r.1).collect();
            let mut clock = 2_000u64;
            let cycles: Vec<u64> = rows
                .iter()
                .map(|&(_, _, d, back)| {
                    clock = if back == 0 { clock.saturating_sub(d) } else { clock + d };
                    clock
                })
                .collect();
            let set: Vec<usize> = cores.1.iter().map(|&c| c as usize).collect();
            let filter = RowFilter {
                kinds,
                time: (time.0 != 0).then_some((time.1.min(time.2), time.1.max(time.2))),
                cores: cores.0.then_some(&set[..]),
                page: if page.0 == 0 { PAGE_ALL } else { page.1..page.1 + page.2 },
            };
            check(&HeadCols { tags: &tags, cycles: &cycles, cores: &cores_col }, &filter);
        }
    }
}

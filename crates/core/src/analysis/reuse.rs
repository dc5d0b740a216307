//! Sampled reuse-distance estimation.
//!
//! The paper's introduction lists "calculating reuse distances" among
//! the analyses that memory-access information enables. Exact reuse
//! distance needs the full access stream; from *sampled* accesses we
//! compute the standard approximation: for consecutive samples of the
//! same cache line, the number of **distinct** other lines sampled in
//! between. With uniform sampling this preserves the distribution's
//! shape (Zhong et al.'s sampling argument), which is what locality
//! diagnosis needs.

use mempersp_extrae::query::{EventClass, Query};
use mempersp_extrae::trace_source::{ScanStats, TraceSource};
use mempersp_extrae::RowView;
use mempersp_memsim::LINE_SIZE;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;

/// Histogram of sampled reuse distances in power-of-two buckets:
/// bucket `i` counts reuses with distance in `[2^i, 2^(i+1))`
/// (bucket 0 holds distances 0 and 1).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReuseHistogram {
    pub buckets: Vec<u64>,
    /// Lines sampled exactly once (no reuse observed).
    pub cold: u64,
    /// Total reuse pairs observed.
    pub reuses: u64,
}

impl ReuseHistogram {
    fn record(&mut self, distance: usize) {
        let bucket = (usize::BITS - distance.max(1).leading_zeros() - 1) as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.reuses += 1;
    }

    /// Median bucket's lower bound (a robust "typical reuse distance"
    /// in sampled-lines units); `None` without reuses.
    pub fn typical_distance(&self) -> Option<u64> {
        if self.reuses == 0 {
            return None;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen * 2 >= self.reuses {
                return Some(1u64 << i);
            }
        }
        None
    }
}

/// Estimate the reuse-distance histogram of the PEBS samples on
/// `core` at the simulator's cache-line granularity
/// ([`LINE_SIZE`]), from one scan of that core's PEBS address column.
pub fn sampled_reuse_histogram(
    source: &mut dyn TraceSource,
    core: usize,
) -> io::Result<(ReuseHistogram, ScanStats)> {
    let mask = !(LINE_SIZE - 1);
    let mut lines: Vec<u64> = Vec::new();
    let q = Query::all().with_kinds(&[EventClass::Pebs]).on_cores(&[core]);
    let stats = source.scan_batches(&q, &mut |batch| {
        for row in batch.rows() {
            if let RowView::Pebs(p) = row.view {
                lines.push(p.sample().addr & mask);
            }
        }
    })?;
    Ok((reuse_histogram(&lines), stats))
}

/// The histogram of a sampled line sequence, exactly, in O(n log n)
/// (Olken's stack-distance algorithm): a Fenwick tree over sample
/// positions holds a 1 at the latest sample of every line seen, so
/// when a line last sampled at `i` recurs at `j`, the distinct lines
/// sampled in between are the marks in `(i, j)`.
fn reuse_histogram(lines: &[u64]) -> ReuseHistogram {
    let mut tree = vec![0i32; lines.len() + 1];
    let add = |tree: &mut [i32], pos: usize, delta: i32| {
        let mut i = pos + 1;
        while i < tree.len() {
            tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    };
    // Marks at positions `0..pos`.
    let below = |tree: &[i32], pos: usize| {
        let (mut i, mut sum) = (pos, 0);
        while i > 0 {
            sum += tree[i];
            i &= i - 1;
        }
        sum as usize
    };
    let mut hist = ReuseHistogram::default();
    // line -> (position of its latest sample, sampled more than once)
    let mut last: HashMap<u64, (usize, bool)> = HashMap::new();
    for (j, &line) in lines.iter().enumerate() {
        if let Some((i, again)) = last.get_mut(&line) {
            add(&mut tree, *i, -1);
            hist.record(below(&tree, j) - below(&tree, *i));
            (*i, *again) = (j, true);
        } else {
            last.insert(line, (j, false));
        }
        add(&mut tree, j, 1);
    }
    hist.cold = last.values().filter(|(_, again)| !again).count() as u64;
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_extrae::{Trace, Tracer, TracerConfig};
    use mempersp_memsim::MemLevel;
    use mempersp_pebs::PebsSample;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The reference: the O(n·d) pass this module used to run — on a
    /// reuse at position `j` of a line last seen at `i`, collect the
    /// distinct lines of `lines[i+1..j]` into a set.
    fn reuse_histogram_oracle(lines: &[u64]) -> ReuseHistogram {
        let mut hist = ReuseHistogram::default();
        let mut last_pos: HashMap<u64, usize> = HashMap::new();
        for (j, &line) in lines.iter().enumerate() {
            if let Some(&i) = last_pos.get(&line) {
                let distinct: HashSet<u64> = lines[i + 1..j].iter().copied().collect();
                hist.record(distinct.len());
            }
            last_pos.insert(line, j);
        }
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for &l in lines {
            *counts.entry(l).or_insert(0) += 1;
        }
        hist.cold = counts.values().filter(|&&c| c == 1).count() as u64;
        hist
    }

    proptest! {
        /// The Fenwick pass returns the oracle's histogram for any
        /// line sequence: empty (length 0), all-equal (`modulus` 1),
        /// heavily reused, all-distinct (no modulus), at line sizes
        /// down to 1.
        #[test]
        fn fenwick_pass_equals_the_quadratic_oracle(
            addrs in prop::collection::vec(any::<u64>(), 0..300),
            modulus in prop_oneof![Just(1u64), Just(7), Just(640), Just(u64::MAX)],
            line_size in prop_oneof![Just(1u64), Just(8), Just(64)],
        ) {
            let lines: Vec<u64> = addrs.iter().map(|a| (a % modulus) & !(line_size - 1)).collect();
            prop_assert_eq!(reuse_histogram(&lines), reuse_histogram_oracle(&lines));
        }
    }

    #[test]
    fn edge_sequences_match_the_oracle() {
        let distinct: Vec<u64> = (0..500).collect();
        let cyclic: Vec<u64> = (0..2000).map(|i| i % 37).collect();
        for lines in [&[][..], &[5], &[5; 64], &distinct, &cyclic] {
            assert_eq!(reuse_histogram(lines), reuse_histogram_oracle(lines));
        }
        assert_eq!(reuse_histogram(&distinct).cold, 500);
        assert_eq!(reuse_histogram(&[5; 64]).buckets, vec![63]);
    }

    /// 100 k samples over 12.5 k lines: milliseconds, where the
    /// quadratic pass took seconds.
    #[test]
    fn hundred_thousand_samples_take_milliseconds() {
        let lines: Vec<u64> = (0..100_000u64).map(|i| (i * 2_654_435_761 % 12_500) * 64).collect();
        let t = std::time::Instant::now();
        let h = reuse_histogram(&lines);
        let elapsed = t.elapsed();
        eprintln!("reuse histogram of 100 000 samples over 12 500 lines: {elapsed:?}");
        assert_eq!(h.reuses, 100_000 - 12_500);
        assert!(elapsed.as_millis() < 2_000, "took {elapsed:?}");
    }

    fn trace_of(addrs: &[u64]) -> Trace {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        for (i, &a) in addrs.iter().enumerate() {
            t.record_pebs(PebsSample {
                timestamp: i as u64,
                core: 0,
                ip: 0,
                addr: a,
                size: 8,
                is_store: false,
                latency: 1,
                source: MemLevel::L1,
                tlb_miss: false,
            });
        }
        t.finish("reuse")
    }

    #[test]
    fn immediate_reuse_is_distance_zero_bucket() {
        // A A → one reuse with 0 distinct lines in between.
        let tr = trace_of(&[0x0, 0x8]);
        let (h, _) = sampled_reuse_histogram(&mut &tr, 0).unwrap();
        assert_eq!(h.reuses, 1);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.cold, 0);
    }

    #[test]
    fn distance_counts_distinct_lines() {
        // A B C B A: A reused with {B, C} in between (distance 2);
        // B reused with {C} (distance 1).
        let tr = trace_of(&[0x000, 0x040, 0x080, 0x040, 0x000]);
        let (h, _) = sampled_reuse_histogram(&mut &tr, 0).unwrap();
        assert_eq!(h.reuses, 2);
        // distance 1 -> bucket 0; distance 2 -> bucket 1.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.cold, 1, "line C sampled once");
    }

    #[test]
    fn streaming_has_no_reuse() {
        let addrs: Vec<u64> = (0..100).map(|i| i * 64).collect();
        let tr = trace_of(&addrs);
        let (h, _) = sampled_reuse_histogram(&mut &tr, 0).unwrap();
        assert_eq!(h.reuses, 0);
        assert_eq!(h.cold, 100);
        assert!(h.typical_distance().is_none());
    }

    #[test]
    fn typical_distance_is_the_median_bucket() {
        // Repeating scan over 8 lines, 5 times: every reuse distance 7.
        let mut addrs = Vec::new();
        for _ in 0..5 {
            for l in 0..8u64 {
                addrs.push(l * 64);
            }
        }
        let tr = trace_of(&addrs);
        let (h, _) = sampled_reuse_histogram(&mut &tr, 0).unwrap();
        assert_eq!(h.reuses, 32);
        assert_eq!(h.typical_distance(), Some(4), "distance 7 lands in bucket [4,8)");
        assert_eq!(h.buckets, vec![0, 0, 32]);
    }

    #[test]
    fn other_cores_ignored() {
        let tr = trace_of(&[0x0, 0x0]);
        let (h, _) = sampled_reuse_histogram(&mut &tr, 1).unwrap();
        assert_eq!(h.reuses, 0);
        assert_eq!(h.cold, 0);
    }
}

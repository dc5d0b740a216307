//! Instance detection: find the dynamic executions of a region and
//! their per-instance counter deltas, rejecting outliers.
//!
//! The folding literature filters instances whose duration deviates
//! from the typical one (perturbed by OS noise, signals, or trace
//! flushes); we use the robust median ± k·MAD criterion.

use mempersp_extrae::events::RegionId;
use mempersp_extrae::query::{EventClass, Query};
use mempersp_extrae::{scan_events, EventBatch, RowView, Trace};
use mempersp_pebs::CounterSnapshot;
use serde::{Deserialize, Serialize};

/// One dynamic execution of the folded region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionInstance {
    pub core: usize,
    pub start_cycles: u64,
    pub end_cycles: u64,
    /// Counters at entry.
    pub counters_in: CounterSnapshot,
    /// Counters at exit.
    pub counters_out: CounterSnapshot,
}

impl RegionInstance {
    pub fn duration(&self) -> u64 {
        self.end_cycles - self.start_cycles
    }

    /// Normalized position of `cycles` within this instance.
    pub fn normalize(&self, cycles: u64) -> f64 {
        debug_assert!(cycles >= self.start_cycles && cycles <= self.end_cycles);
        if self.duration() == 0 {
            0.0
        } else {
            (cycles - self.start_cycles) as f64 / self.duration() as f64
        }
    }

    /// Does this instance contain the timestamp?
    pub fn contains(&self, cycles: u64) -> bool {
        (self.start_cycles..=self.end_cycles).contains(&cycles)
    }
}

/// Outlier-filter configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceFilter {
    /// Reject instances whose duration is farther than `mad_k` MADs
    /// from the median duration. `f64::INFINITY` keeps everything.
    pub mad_k: f64,
    /// Before the MAD step, keep only instances at least this fraction
    /// of the *longest* instance. The folding literature clusters
    /// instances by duration and folds each cluster separately; this
    /// selects the slowest cluster — e.g. the fine-level SYMGS calls
    /// of a multigrid hierarchy, whose coarse-level siblings are ~8×
    /// shorter. 0.0 keeps everything (the default).
    pub min_fraction_of_max: f64,
}

impl Default for InstanceFilter {
    fn default() -> Self {
        Self { mad_k: 5.0, min_fraction_of_max: 0.0 }
    }
}

impl InstanceFilter {
    /// A filter that selects the slowest duration cluster (instances
    /// within `fraction` of the longest) before outlier rejection.
    pub fn slowest_cluster(fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        Self { mad_k: 5.0, min_fraction_of_max: fraction }
    }
}

/// The events instance collection reads: region boundaries.
pub(crate) fn boundary_query() -> Query {
    Query::all().with_kinds(&[EventClass::RegionEnter, EventClass::RegionExit])
}

/// Extract the top-level instances of every region in `regions`, on
/// every core, with their boundary counter snapshots, in **one pass**
/// over the trace events.
///
/// `regions[s]` and `filters[s]` describe slot `s`; the result keeps
/// slot order, one `(kept, rejected_count)` per slot. Duplicate region
/// ids are allowed (each slot accumulates independently).
pub fn collect_instances_multi(
    trace: &Trace,
    regions: &[RegionId],
    filters: &[InstanceFilter],
) -> Vec<(Vec<RegionInstance>, usize)> {
    let mut collector = InstanceCollector::new(regions, trace.meta.num_cores);
    scan_events(&trace.events, &boundary_query(), &mut |b| collector.push(b));
    collector.finish(filters)
}

/// Instance collection as a column kernel: fed the boundary rows of a
/// trace batch by batch, in trace order, it tracks top-level nesting
/// per (slot, core) for every requested region simultaneously — the
/// depth counters and open-instance starts carry across batches, so an
/// instance may straddle any number of chunks.
pub(crate) struct InstanceCollector {
    regions: Vec<RegionId>,
    num_cores: usize,
    // State arrays indexed slot * num_cores + core.
    depth: Vec<u32>,
    start: Vec<Option<(u64, CounterSnapshot)>>,
    all: Vec<Vec<RegionInstance>>,
}

impl InstanceCollector {
    pub(crate) fn new(regions: &[RegionId], num_cores: usize) -> Self {
        let n = regions.len() * num_cores;
        Self {
            regions: regions.to_vec(),
            num_cores,
            depth: vec![0; n],
            start: vec![None; n],
            all: vec![Vec::new(); regions.len()],
        }
    }

    /// Consume the boundary rows of one batch (other rows are ignored).
    pub(crate) fn push(&mut self, batch: &EventBatch<'_>) {
        for row in batch.rows() {
            let RowView::Boundary(b) = row.view else { continue };
            if row.core >= self.num_cores {
                continue;
            }
            let region = b.region();
            for (slot, _) in self.regions.iter().enumerate().filter(|(_, r)| **r == region) {
                let s = slot * self.num_cores + row.core;
                if b.enter {
                    if self.depth[s] == 0 {
                        self.start[s] = Some((row.cycles, b.counters()));
                    }
                    self.depth[s] += 1;
                } else if self.depth[s] > 0 {
                    self.depth[s] -= 1;
                    if self.depth[s] == 0 {
                        let (st, cin) = self.start[s].take().expect("enter recorded");
                        self.all[slot].push(RegionInstance {
                            core: row.core,
                            start_cycles: st,
                            end_cycles: row.cycles,
                            counters_in: cin,
                            counters_out: b.counters(),
                        });
                    }
                }
            }
        }
    }

    /// Order each slot's instances and apply its outlier filter:
    /// `(kept, rejected_count)` per slot.
    pub(crate) fn finish(self, filters: &[InstanceFilter]) -> Vec<(Vec<RegionInstance>, usize)> {
        assert_eq!(self.regions.len(), filters.len(), "one filter per region");
        let mut all = self.all;
        // The legacy single-region collector walked cores in the outer
        // loop, producing core-major, start-ascending order; reproduce it
        // so downstream instance indices are byte-identical.
        for v in &mut all {
            v.sort_by_key(|i| (i.core, i.start_cycles, i.end_cycles));
        }
        all.into_iter().zip(filters).map(|(v, &f)| apply_filter(v, f)).collect()
    }
}

/// Apply the outlier filter to one region's collected instances.
fn apply_filter(mut all: Vec<RegionInstance>, filter: InstanceFilter) -> (Vec<RegionInstance>, usize) {
    if all.is_empty() {
        return (all, 0);
    }

    let mut rejected_cluster = 0usize;
    if filter.min_fraction_of_max > 0.0 {
        let max_dur = all.iter().map(|i| i.duration()).max().expect("non-empty") as f64;
        let before = all.len();
        all.retain(|i| i.duration() as f64 >= filter.min_fraction_of_max * max_dur);
        rejected_cluster = before - all.len();
    }

    if !filter.mad_k.is_finite() {
        return (all, rejected_cluster);
    }

    // Robust duration filter.
    let mut durations: Vec<f64> = all.iter().map(|i| i.duration() as f64).collect();
    let median = median_of(&mut durations);
    let mut deviations: Vec<f64> = all
        .iter()
        .map(|i| (i.duration() as f64 - median).abs())
        .collect();
    let mad = median_of(&mut deviations);
    if mad == 0.0 {
        // All identical (or half identical): keep exact matches of the
        // median plus anything within 10 % as a fallback tolerance.
        let tol = median * 0.10;
        let before = all.len();
        let kept: Vec<RegionInstance> = all
            .into_iter()
            .filter(|i| (i.duration() as f64 - median).abs() <= tol)
            .collect();
        let rejected = before - kept.len();
        return (kept, rejected + rejected_cluster);
    }
    let before = all.len();
    let kept: Vec<RegionInstance> = all
        .into_iter()
        .filter(|i| (i.duration() as f64 - median).abs() <= filter.mad_k * mad)
        .collect();
    let rejected = before - kept.len();
    (kept, rejected + rejected_cluster)
}

fn median_of(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty());
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN durations"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_extrae::{Tracer, TracerConfig};

    /// `(kept, rejected_count)` for one region.
    fn one_region(tr: &Trace, region: RegionId, filter: InstanceFilter) -> (Vec<RegionInstance>, usize) {
        collect_instances_multi(tr, &[region], &[filter]).pop().expect("one slot")
    }

    fn trace_with_durations(durations: &[u64]) -> Trace {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let c = CounterSnapshot::default();
        let mut now = 0;
        for &d in durations {
            t.enter(0, "R", c, now);
            t.exit(0, "R", c, now + d);
            now += d + 10;
        }
        t.finish("test")
    }

    #[test]
    fn collects_all_without_filter() {
        let tr = trace_with_durations(&[100, 100, 100]);
        let id = tr.region_id("R").unwrap();
        let (kept, rej) = one_region(
            &tr,
            id,
            InstanceFilter { mad_k: f64::INFINITY, ..InstanceFilter::default() },
        );
        assert_eq!(kept.len(), 3);
        assert_eq!(rej, 0);
    }

    #[test]
    fn rejects_duration_outlier() {
        let tr = trace_with_durations(&[100, 101, 99, 102, 98, 5000]);
        let id = tr.region_id("R").unwrap();
        let (kept, rej) = one_region(&tr, id, InstanceFilter::default());
        assert_eq!(kept.len(), 5);
        assert_eq!(rej, 1);
        assert!(kept.iter().all(|i| i.duration() < 200));
    }

    #[test]
    fn identical_durations_all_kept() {
        let tr = trace_with_durations(&[100; 8]);
        let id = tr.region_id("R").unwrap();
        let (kept, rej) = one_region(&tr, id, InstanceFilter::default());
        assert_eq!(kept.len(), 8);
        assert_eq!(rej, 0);
    }

    #[test]
    fn zero_mad_with_outlier_keeps_majority() {
        let tr = trace_with_durations(&[100, 100, 100, 100, 100, 9999]);
        let id = tr.region_id("R").unwrap();
        let (kept, rej) = one_region(&tr, id, InstanceFilter::default());
        assert_eq!(kept.len(), 5);
        assert_eq!(rej, 1);
    }

    #[test]
    fn normalize_maps_to_unit_interval() {
        let i = RegionInstance {
            core: 0,
            start_cycles: 100,
            end_cycles: 300,
            counters_in: CounterSnapshot::default(),
            counters_out: CounterSnapshot::default(),
        };
        assert_eq!(i.normalize(100), 0.0);
        assert_eq!(i.normalize(200), 0.5);
        assert_eq!(i.normalize(300), 1.0);
        assert!(i.contains(150));
        assert!(!i.contains(301));
    }

    #[test]
    fn multi_core_instances_collected() {
        let mut t = Tracer::new(TracerConfig::default(), 2);
        let c = CounterSnapshot::default();
        t.enter(0, "R", c, 0);
        t.exit(0, "R", c, 100);
        t.enter(1, "R", c, 5);
        t.exit(1, "R", c, 105);
        let tr = t.finish("test");
        let id = tr.region_id("R").unwrap();
        let (kept, _) = one_region(&tr, id, InstanceFilter::default());
        assert_eq!(kept.len(), 2);
        assert_eq!(kept.iter().map(|i| i.core).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn multi_matches_per_region_collection() {
        let mut t = Tracer::new(TracerConfig::default(), 2);
        let c = CounterSnapshot::default();
        // Interleaved + nested instances of two regions on two cores.
        t.enter(0, "A", c, 0);
        t.enter(0, "B", c, 10);
        t.exit(0, "B", c, 20);
        t.exit(0, "A", c, 100);
        t.enter(1, "B", c, 5);
        t.exit(1, "B", c, 15);
        t.enter(1, "A", c, 30);
        t.exit(1, "A", c, 130);
        let tr = t.finish("multi");
        let a = tr.region_id("A").unwrap();
        let b = tr.region_id("B").unwrap();
        let f = InstanceFilter::default();
        let multi = collect_instances_multi(&tr, &[a, b], &[f, f]);
        assert_eq!(multi[0], one_region(&tr, a, f));
        assert_eq!(multi[1], one_region(&tr, b, f));
        assert_eq!(multi[0].0.len(), 2);
        assert_eq!(multi[1].0.len(), 2);
    }

    #[test]
    fn empty_region_yields_nothing() {
        let tr = trace_with_durations(&[100]);
        // Region id 0 is "R"; a bogus id produces nothing rather than
        // panicking.
        let (kept, rej) =
            one_region(&tr, mempersp_extrae::events::RegionId(7), InstanceFilter::default());
        assert!(kept.is_empty());
        assert_eq!(rej, 0);
    }
}

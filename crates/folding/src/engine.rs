//! The single-pass, multi-region parallel folding engine.
//!
//! [`fold_regions`] / [`fold_regions_source`] fold **all requested
//! regions from two pruned scans of the trace**, both consumed as
//! column batches with no event rows in between: the boundary scan
//! feeds the instance-collection kernel once for every region, the
//! sample scan feeds the pooling kernel, which records each sample once
//! per fold and gives every containing region one entry for it. Each
//! region then becomes **one work item**, executed on a deterministic
//! worker pool: it orders the region's entries once, stably by folded
//! time, and takes all three panels from that order — the line panel is
//! every entry, the address panel the PEBS entries and the counter
//! samples' order the entries that pool one (a stable sort restricted
//! to a subsequence is the stable sort of that subsequence) — before
//! it builds, bins and fits the twelve counter panels.
//!
//! A fold fills the three panels of the paper's Fig. 1, or only the
//! one a consumer renders: [`fold_performance_source`] projects the
//! fold onto the performance panel. Its sample scan asks for counter
//! samples alone, so an indexed store never decodes a PEBS row for
//! it, and the pooling kernel resolves no source line; what it does
//! pool, fit and report is what the full fold pools, fits and reports
//! for the counters.
//!
//! Determinism: every work item owns its input buffers (the entries
//! only name records of the shared sample table, which nothing writes
//! once pooling ends), is internally sequential, and writes only its
//! own output slot; the thread count decides *which worker* runs an
//! item, never the item's inputs or its floating-point summation order
//! (counter points are sorted by (x, y) before binning in every path).
//! Output is therefore byte-identical at any `--threads N` — the same
//! replay discipline as the memory simulator's epoch pipeline.

use crate::curve::MonotoneCurve;
use crate::fold::{FitModel, FoldError, FoldedCounter, FoldedRegion, FoldingConfig};
use crate::instances::{boundary_query, InstanceCollector, RegionInstance};
use crate::pava::pava_nondecreasing;
use crate::pool::{sort_by_x, CounterPanels, CounterSamples, Entry, Panels, PooledSamples, Pooler};
use mempersp_extrae::query::Query;
use mempersp_extrae::trace_source::{ScanStats, TraceSource};
use mempersp_extrae::{scan_events, EventBatch, Trace};
use mempersp_pebs::EventKind;
use std::convert::Infallible;
use std::io;
use std::sync::Mutex;

/// One region to fold, with its folding parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionRequest {
    pub region: String,
    pub cfg: FoldingConfig,
}

impl RegionRequest {
    /// Fold `region` with the default configuration.
    pub fn new(region: impl Into<String>) -> Self {
        Self { region: region.into(), cfg: FoldingConfig::default() }
    }

    /// Fold `region` with an explicit configuration.
    pub fn with_cfg(region: impl Into<String>, cfg: FoldingConfig) -> Self {
        Self { region: region.into(), cfg }
    }
}

/// Reusable scratch buffers for fitting one counter: amortizes the
/// bin assignment and bin accumulator allocations across every
/// counter fit a worker runs.
#[derive(Debug, Default)]
pub struct FitScratch {
    bin_of: Vec<u32>,
    sums_x: Vec<f64>,
    sums_y: Vec<f64>,
    counts: Vec<f64>,
    knot_xs: Vec<f64>,
    means: Vec<f64>,
    weights: Vec<f64>,
}

/// Fit one counter's pooled (and already sorted) points with the
/// configured model. Bin assignment is precomputed for all samples in
/// one flat pass over the SoA x buffer before the accumulation loop.
fn fit_sorted(xs: &[f64], ys: &[f64], bins: usize, fit: FitModel, s: &mut FitScratch) -> MonotoneCurve {
    if xs.is_empty() {
        return MonotoneCurve::identity();
    }
    s.bin_of.clear();
    s.bin_of
        .extend(xs.iter().map(|&x| ((x * bins as f64) as usize).min(bins - 1) as u32));
    s.sums_x.clear();
    s.sums_x.resize(bins, 0.0);
    s.sums_y.clear();
    s.sums_y.resize(bins, 0.0);
    s.counts.clear();
    s.counts.resize(bins, 0.0);
    for (i, &b) in s.bin_of.iter().enumerate() {
        let b = b as usize;
        s.sums_x[b] += xs[i];
        s.sums_y[b] += ys[i];
        s.counts[b] += 1.0;
    }
    // Each populated bin contributes one knot at the *mean sample
    // position* (not the bin centre — anchoring the knot where the
    // samples actually sit keeps slopes undistorted when sampling is
    // sparse relative to the bin count), clamped into the open
    // interval the curve requires.
    s.knot_xs.clear();
    s.means.clear();
    s.weights.clear();
    for b in 0..bins {
        if s.counts[b] > 0.0 {
            s.knot_xs.push((s.sums_x[b] / s.counts[b]).clamp(1e-9, 1.0 - 1e-9));
            s.means.push(s.sums_y[b] / s.counts[b]);
            s.weights.push(s.counts[b]);
        }
    }
    match fit {
        FitModel::Isotonic => {
            MonotoneCurve::from_knots(&s.knot_xs, &pava_nondecreasing(&s.means, &s.weights))
        }
        FitModel::BinnedMean => MonotoneCurve::from_knots(&s.knot_xs, &s.means),
    }
}

/// One independent unit of fold work: one region, ordered once. Items
/// own their inputs (taken out of the pooled buffers) and carry their
/// outputs back, so workers never share mutable state.
struct Job<'a> {
    slot: usize,
    bins: usize,
    fit: FitModel,
    instances: &'a [RegionInstance],
    /// The region's entries: its line panel, in trace order until the
    /// job orders them.
    entries: Vec<Entry>,
    samples: CounterSamples,
    panels: CounterPanels,
    out: Vec<FoldedCounter>,
}

impl Job<'_> {
    /// Order the region's entries once, stably by `x`, and derive every
    /// panel from that order: the restriction of a stable sort to a
    /// subsequence is the stable sort of that subsequence, so the
    /// address panel (the PEBS entries), the line panel (all entries)
    /// and the counter samples' x-order (the entries that pool one)
    /// all come out of it. Then build the twelve counter panels and
    /// bin and fit each.
    fn run(&mut self, scratch: &mut FitScratch) {
        sort_by_x(&mut self.entries, |e| e.x);
        let by_x = self.entries.iter().filter_map(Entry::counter_sample);
        std::mem::take(&mut self.samples).sort_into(by_x, &mut self.panels);
        let (xs, ys) = &self.panels;
        self.out = EventKind::ALL
            .into_iter()
            .map(|kind| {
                let (xs, ys) = (&xs[kind.index()], &ys[kind.index()]);
                FoldedCounter {
                    kind,
                    curve: fit_sorted(xs, ys, self.bins, self.fit, scratch),
                    avg_total: average_total(self.instances, kind),
                    points: xs.len(),
                }
            })
            .collect();
    }
}

/// Execute the work items on up to `threads` workers. Every worker
/// pulls the next item off one shared iterator until none is left, so
/// a region's large items spread over the workers instead of queueing
/// behind one another; each worker runs its items sequentially with
/// one scratch buffer, so scheduling affects only *where* an item
/// runs, never its result.
fn run_jobs(jobs: &mut [Job], threads: usize) {
    let workers = threads.min(jobs.len());
    let next = Mutex::new(jobs.iter_mut());
    let work = || {
        let mut scratch = FitScratch::default();
        loop {
            // The guard is dropped before the item runs.
            let job = next.lock().expect("no worker panics while taking an item").next();
            let Some(job) = job else { break };
            job.run(&mut scratch);
        }
    };
    // The calling thread is one of the workers.
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
}

fn average_total(instances: &[RegionInstance], kind: EventKind) -> f64 {
    instances
        .iter()
        .map(|i| i.counters_out.get(kind).saturating_sub(i.counters_in.get(kind)) as f64)
        .sum::<f64>()
        / instances.len() as f64
}

/// The fold pipeline over any way of scanning a trace. `scan(query,
/// sink)` hands `sink` the matching events as column batches in trace
/// order (a store scan, or [`scan_events`] over an in-memory trace);
/// `header` carries the region names, source map, core count and
/// frequency.
///
/// Phase 1 scans only the region **boundary** events — on an indexed
/// `.mps` store every sample-only chunk is skipped outright — into the
/// instance collector. Phase 2 scans only the **sample** events the
/// `panels` read (counter and PEBS samples, or counter samples alone),
/// time-bounded to the hull of the kept instances, into the pooler, so
/// chunks wholly outside any folded region and chunks with no such
/// samples are never decoded. Both kernels see rows in trace order
/// whatever the container or chunking, so every path yields
/// byte-identical folds.
fn fold_scans<E>(
    header: &Trace,
    requests: &[RegionRequest],
    threads: usize,
    panels: Panels,
    mut scan: impl FnMut(&Query, &mut dyn FnMut(&EventBatch<'_>)) -> Result<ScanStats, E>,
) -> Result<(Vec<Result<FoldedRegion, FoldError>>, ScanStats), E> {
    let n = requests.len();
    let mut results: Vec<Option<Result<FoldedRegion, FoldError>>> = (0..n).map(|_| None).collect();

    // Resolve names; unknown regions fail their slot immediately.
    let mut ids = Vec::with_capacity(n);
    let mut filters = Vec::with_capacity(n);
    let mut ok_slots: Vec<usize> = Vec::with_capacity(n);
    for (i, req) in requests.iter().enumerate() {
        match header.region_id(&req.region) {
            Some(id) => {
                ok_slots.push(i);
                ids.push(id);
                filters.push(req.cfg.filter);
            }
            None => results[i] = Some(Err(FoldError::UnknownRegion(req.region.clone()))),
        }
    }

    // Phase 1: instances (including their counter snapshots) derive
    // entirely from enter/exit events; then the per-request gates.
    let mut collector = InstanceCollector::new(&ids, header.meta.num_cores);
    let mut stats = scan(&boundary_query(), &mut |b| collector.push(b))?;
    let mut kept: Vec<(usize, Vec<RegionInstance>, usize)> = Vec::new();
    for (k, (instances, rejected)) in collector.finish(&filters).into_iter().enumerate() {
        let slot = ok_slots[k];
        let need = requests[slot].cfg.min_instances.max(1);
        if instances.len() < need {
            results[slot] =
                Some(Err(FoldError::TooFewInstances { found: instances.len(), need }));
        } else {
            kept.push((slot, instances, rejected));
        }
    }

    // Phase 2: samples. With nothing kept every slot already holds its
    // error — skip the scan.
    let mut pooled = (Vec::new(), Vec::new());
    if !kept.is_empty() {
        let instances = kept.iter().flat_map(|(_, v, _)| v.iter());
        let lo = instances.clone().map(|i| i.start_cycles).min().expect("kept is non-empty");
        let hi = instances.map(|i| i.end_cycles).max().expect("kept is non-empty");
        let slices: Vec<&[RegionInstance]> = kept.iter().map(|(_, v, _)| v.as_slice()).collect();
        let mut pooler = Pooler::new(header, &slices, panels);
        stats.merge(&scan(&panels.sample_query().in_time(lo, hi), &mut |b| pooler.push(b))?);
        pooled = pooler.finish();
    }
    Ok((fit_kept(header, requests, results, kept, pooled, panels, threads), stats))
}

/// Fit the surviving slots' pooled samples and assemble the
/// request-ordered result vector.
fn fit_kept(
    header: &Trace,
    requests: &[RegionRequest],
    mut results: Vec<Option<Result<FoldedRegion, FoldError>>>,
    kept: Vec<(usize, Vec<RegionInstance>, usize)>,
    (mut pooled, samples): (Vec<PooledSamples>, Vec<CounterSamples>),
    panels: Panels,
    threads: usize,
) -> Vec<Result<FoldedRegion, FoldError>> {
    // Fan the fold out into one work item per region, owning its input
    // buffers (the panels go back to the pooled storage below).
    let mut jobs: Vec<Job> = Vec::with_capacity(kept.len());
    for ((k, (slot, instances, _)), samples) in kept.iter().enumerate().zip(samples) {
        let cfg = &requests[*slot].cfg;
        jobs.push(Job {
            slot: k,
            bins: cfg.bins,
            fit: cfg.fit,
            instances,
            entries: std::mem::take(&mut pooled[k].entries),
            // Reserved here, so the panels live where the pooled
            // buffers did, not in a worker's allocator arena.
            panels: samples.reserve_panels(),
            samples,
            out: Vec::new(),
        });
    }

    run_jobs(&mut jobs, threads);

    // Reassemble: hand the ordered panels back to their pooled slots and
    // keep the fitted counters, in kind order. A performance-only fold
    // keeps no line panel, so its entries go once they have ordered the
    // counter samples.
    let mut counters: Vec<Vec<FoldedCounter>> = kept.iter().map(|_| Vec::new()).collect();
    for Job { slot, entries, panels: counter_panels, out, .. } in jobs {
        let p = &mut pooled[slot];
        (p.counter_xs, p.counter_ys) = counter_panels;
        if panels == Panels::All {
            p.entries = entries;
        }
        counters[slot] = out;
    }

    for (((slot, instances, rejected), pooled), counters) in
        kept.into_iter().zip(pooled).zip(counters)
    {
        let avg_duration =
            instances.iter().map(|i| i.duration() as f64).sum::<f64>() / instances.len() as f64;
        results[slot] = Some(Ok(FoldedRegion {
            region: requests[slot].region.clone(),
            instances_used: instances.len(),
            instances_rejected: rejected,
            avg_duration_cycles: avg_duration,
            freq_mhz: header.meta.freq_mhz,
            counters,
            pooled,
        }));
    }

    results
        .into_iter()
        .map(|r| r.expect("every slot resolved"))
        .collect()
}

/// Fold every requested region of an in-memory trace, with the
/// per-region fold work spread over `threads`
/// deterministic workers. The result vector keeps request order; a
/// failing region (unknown name, too few instances) fails only its own
/// slot.
pub fn fold_regions(
    trace: &Trace,
    requests: &[RegionRequest],
    threads: usize,
) -> Vec<Result<FoldedRegion, FoldError>> {
    let scan = |q: &Query, sink: &mut dyn FnMut(&EventBatch<'_>)| {
        Ok::<_, Infallible>(scan_events(&trace.events, q, sink))
    };
    match fold_scans(trace, requests, threads, Panels::All, scan) {
        Ok((results, _)) => results,
        Err(never) => match never {},
    }
}

/// [`fold_regions`] over any [`TraceSource`]: the same two pruned
/// scans, issued as [`TraceSource::scan_batches`], so no event row is
/// built between the store's decoded columns and the fold. The result
/// is byte-identical to folding the materialized trace; the returned
/// [`ScanStats`] is the sum of both scans.
pub fn fold_regions_source(
    source: &mut dyn TraceSource,
    requests: &[RegionRequest],
    threads: usize,
) -> io::Result<(Vec<Result<FoldedRegion, FoldError>>, ScanStats)> {
    fold_source(source, requests, threads, Panels::All)
}

/// [`fold_regions_source`] projected onto the performance panel, for a
/// consumer that renders nothing else. Each region's `counters`,
/// instance figures and counter panels ([`PooledSamples::counter_xy`])
/// equal the full fold's, and so does everything derived from them
/// ([`FoldedRegion::performance_series`]); its address panel, line
/// panel and file table are **empty**. The sample scan reads counter
/// samples only, so the returned [`ScanStats`] counts no PEBS row.
pub fn fold_performance_source(
    source: &mut dyn TraceSource,
    requests: &[RegionRequest],
    threads: usize,
) -> io::Result<(Vec<Result<FoldedRegion, FoldError>>, ScanStats)> {
    fold_source(source, requests, threads, Panels::Performance)
}

fn fold_source(
    source: &mut dyn TraceSource,
    requests: &[RegionRequest],
    threads: usize,
    panels: Panels,
) -> io::Result<(Vec<Result<FoldedRegion, FoldError>>, ScanStats)> {
    let header = source.header()?;
    fold_scans(&header, requests, threads, panels, |q, sink| source.scan_batches(q, sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::fold_region;
    use mempersp_extrae::{Tracer, TracerConfig};
    use mempersp_pebs::CounterSnapshot;

    fn snap(inst: u64) -> CounterSnapshot {
        let mut v = [0u64; EventKind::ALL.len()];
        v[EventKind::Instructions.index()] = inst;
        v[EventKind::Cycles.index()] = inst * 2;
        v[EventKind::L1dMiss.index()] = inst / 7;
        CounterSnapshot::from_values(v)
    }

    /// Two nested regions over two cores with counter + user traffic.
    fn two_region_trace() -> Trace {
        let mut t = Tracer::new(TracerConfig { freq_mhz: 1000, ..Default::default() }, 2);
        let ip = t.location("a.cpp", 3, "a");
        let mut now = 0u64;
        let mut base = 0u64;
        for _ in 0..6 {
            for core in 0..2usize {
                t.enter(core, "outer", snap(base), now);
                t.enter(core, "inner", snap(base + 100), now + 10);
                t.record_counter_sample(core, ip, snap(base + 300), now + 25);
                t.exit(core, "inner", snap(base + 500), now + 50);
                t.record_counter_sample(core, ip, snap(base + 800), now + 75);
                t.exit(core, "outer", snap(base + 1000), now + 100);
            }
            now += 150;
            base += 1000;
        }
        t.finish("engine test")
    }

    #[test]
    fn multi_region_fold_matches_sequential_single_folds() {
        let tr = two_region_trace();
        let cfg = FoldingConfig::default();
        let seq: Vec<String> = ["outer", "inner"]
            .iter()
            .map(|r| format!("{:?}", fold_region(&tr, r, &cfg).unwrap()))
            .collect();
        for threads in [1, 2, 4] {
            let multi = fold_regions(
                &tr,
                &[RegionRequest::new("outer"), RegionRequest::new("inner")],
                threads,
            );
            for (got, want) in multi.iter().zip(&seq) {
                assert_eq!(
                    &format!("{:?}", got.as_ref().unwrap()),
                    want,
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn failing_slots_do_not_poison_others() {
        let tr = two_region_trace();
        let out = fold_regions(
            &tr,
            &[
                RegionRequest::new("outer"),
                RegionRequest::new("no-such-region"),
                RegionRequest::with_cfg(
                    "inner",
                    FoldingConfig { min_instances: 999, ..Default::default() },
                ),
            ],
            2,
        );
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(FoldError::UnknownRegion(_))));
        assert!(matches!(out[2], Err(FoldError::TooFewInstances { .. })));
    }

    #[test]
    fn empty_request_list_is_fine() {
        let tr = two_region_trace();
        assert!(fold_regions(&tr, &[], 4).is_empty());
    }
}

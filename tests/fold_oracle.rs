//! An independent oracle for the folding engine.
//!
//! `fold_region`, `fold_regions` and `fold_regions_source` all run the
//! same column kernels, so comparing them with each other proves only
//! that the paths agree. This suite folds random traces with a naive
//! row-wise reference kept here — one pass per region and core, linear
//! containment search, no interval index, no batches, its own outlier
//! filter and curve fit — and requires every engine path (in memory,
//! `.prv`, `.mps`, sharded `.mps.d`; 1, 2 and 4 threads) to
//! render byte-identically to it. The performance-only fold
//! (`fold_performance_source`, 1 and 2 threads, every container) must
//! render its counters, instance figures, counter panels and
//! performance series identically to the reference and to the full
//! fold, hold no address or line panel, and decode fewer payload bytes
//! from a store than the full fold whenever that pooled a PEBS sample.
//!
//! The traces are deliberately hostile to instance collection:
//! unbalanced enter/exit streams (exits with no enter, re-entered
//! regions), timestamps that repeat across instance boundaries, core
//! ids outside the header's range, and a chunk target small enough
//! that instances straddle many chunks. Their panels hold a few hundred
//! points, so one fixed trace of 69 000 events adds what only size
//! shows: panels of tens of thousands of points, thousands of them on
//! one normalized time, a region pooled into a single sort bucket. CI
//! runs the suite under every `MEMPERSP_NO_SIMD` × `MEMPERSP_NO_MMAP`
//! combination.

use mempersp::extrae::events::{EventPayload, RegionId, TraceEvent};
use mempersp::extrae::trace_format::save_trace;
use mempersp::extrae::trace_source::TraceSource;
use mempersp::extrae::{Ip, ObjectId, Trace, Tracer, TracerConfig};
use mempersp::folding::fold::PerfPoint;
use mempersp::folding::pava::pava_nondecreasing;
use mempersp::folding::{
    fold_performance_source, fold_regions, fold_regions_source, AddrPoint, FitModel, FoldError,
    FoldedCounter, FoldedRegion, FoldingConfig, InstanceFilter, MonotoneCurve, PooledSamples,
    RegionInstance, RegionRequest,
};
use mempersp::memsim::MemLevel;
use mempersp::pebs::{CounterSnapshot, EventKind, PebsSample};
use mempersp::store::{open_trace_source, write_store_chunked, write_store_sharded};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const REGIONS: [&str; 3] = ["solve", "smooth", "halo"];
const NKINDS: usize = EventKind::ALL.len();

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random trace: ~40 % region boundaries drawn with no regard for
/// nesting, ~25 % counter samples, ~25 % PEBS samples, the rest user
/// events. The clock often stands still; one event in twelve sits on a
/// core the header does not have.
/// A PEBS sample of `ip` at (clock, core) with a random address,
/// latency, level and object.
fn random_pebs(rng: &mut Rng, clock: u64, core: usize, ip: u64) -> EventPayload {
    EventPayload::Pebs {
        sample: PebsSample {
            timestamp: clock,
            core,
            ip,
            addr: 0x1000 + rng.below(1 << 20) * 8,
            size: 8,
            is_store: rng.below(3) == 0,
            latency: 4 + rng.below(300) as u32,
            source: [MemLevel::L1, MemLevel::L2, MemLevel::L3, MemLevel::Dram][rng.below(4) as usize],
            tlb_miss: rng.below(20) == 0,
        },
        object: (rng.below(4) != 0).then(|| ObjectId(rng.below(5) as u32)),
    }
}

/// An event-less trace declaring [`REGIONS`], and the ips samples draw
/// from: four source lines in three files and one that resolves to
/// nothing.
fn empty_trace(cores: usize) -> (Trace, Vec<u64>) {
    let mut t = Tracer::new(TracerConfig { freq_mhz: 2000, ..Default::default() }, cores);
    for r in REGIONS {
        t.region(r);
    }
    let mut ips: Vec<u64> = [("solve.cpp", 10), ("smooth.cpp", 20), ("solve.cpp", 30), ("halo.cpp", 5)]
        .iter()
        .map(|(file, line)| t.location(file, *line, "kernel").0)
        .collect();
    ips.push(0x10);
    (t.finish("fold oracle trace"), ips)
}

fn build_trace(seed: u64, events: usize, cores: usize) -> Trace {
    let (mut trace, ips) = empty_trace(cores);

    let mut rng = Rng(seed | 1);
    let mut clock = 100u64;
    let mut counters = [0u64; NKINDS];
    let mut snapshot = |rng: &mut Rng| {
        for (i, c) in counters.iter_mut().enumerate() {
            // Some counters stall between snapshots.
            *c += rng.below(3) * (10 + i as u64);
        }
        CounterSnapshot::from_values(counters)
    };
    for _ in 0..events {
        clock += rng.below(4).saturating_sub(1); // +0 half the time
        let core = if rng.below(12) == 0 {
            cores + rng.below(3) as usize
        } else {
            rng.below(cores as u64) as usize
        };
        let region = RegionId(rng.below(REGIONS.len() as u64) as u32);
        let ip = ips[rng.below(ips.len() as u64) as usize];
        let payload = match rng.below(100) {
            0..=21 => EventPayload::RegionEnter { region, counters: snapshot(&mut rng) },
            22..=39 => EventPayload::RegionExit { region, counters: snapshot(&mut rng) },
            40..=64 => EventPayload::CounterSample {
                ip: Ip(ip),
                counters: snapshot(&mut rng),
                stack: (0..rng.below(3)).map(|d| RegionId(d as u32)).collect(),
            },
            65..=89 => random_pebs(&mut rng, clock, core, ip),
            _ => EventPayload::User { kind: 7, value: rng.next() },
        };
        trace.events.push(TraceEvent { cycles: clock, core, payload });
    }
    trace
}

/// Writes the fixed large trace event by event.
struct Script {
    trace: Trace,
    ips: Vec<u64>,
    rng: Rng,
    clock: u64,
    counters: [u64; NKINDS],
}

impl Script {
    const CORES: usize = 4;

    fn snapshot(&mut self) -> CounterSnapshot {
        for (i, c) in self.counters.iter_mut().enumerate() {
            *c += self.rng.below(3) * (10 + i as u64);
        }
        CounterSnapshot::from_values(self.counters)
    }

    /// All cores enter (or exit) `region` on the current cycle.
    fn boundary(&mut self, enter: bool, region: RegionId) {
        for core in 0..Self::CORES {
            let counters = self.snapshot();
            let payload = if enter {
                EventPayload::RegionEnter { region, counters }
            } else {
                EventPayload::RegionExit { region, counters }
            };
            self.trace.events.push(TraceEvent { cycles: self.clock, core, payload });
        }
    }

    /// A counter or a PEBS sample on the current cycle; one in twelve
    /// names a core the header does not have.
    fn sample(&mut self) {
        let rng = &mut self.rng;
        let core = if rng.below(12) == 0 {
            Self::CORES + rng.below(3) as usize
        } else {
            rng.below(Self::CORES as u64) as usize
        };
        let ip = self.ips[rng.below(self.ips.len() as u64) as usize];
        let payload = if rng.below(2) == 0 {
            EventPayload::CounterSample { ip: Ip(ip), counters: self.snapshot(), stack: Vec::new() }
        } else {
            random_pebs(rng, self.clock, core, ip)
        };
        self.trace.events.push(TraceEvent { cycles: self.clock, core, payload });
    }
}

/// The fixed large trace: seven rounds on four cores, about 69 000
/// events. Every round all cores run `solve` at once, entering on the
/// cycle the previous round's instances exit on (shared boundaries),
/// and inside it
/// - a long stretch of samples on a slow clock,
/// - 2 500 samples while the clock stands still (one `x` per core),
/// - nine `smooth` instances per core, every third of zero duration
///   with its samples on that one cycle (`x = 0.0`), the others sampled
///   on their exit cycle too (`x = 1.0`),
/// - one `halo` instance per core, 100 000 cycles long and sampled only
///   in its first 80 (every `x` below 0.001: one sort bucket),
/// - samples on `solve`'s own exit cycle, before and after the exits.
fn build_large_trace() -> Trace {
    let (trace, ips) = empty_trace(Script::CORES);
    let mut s = Script { trace, ips, rng: Rng(0x5EED_F01D), clock: 1_000, counters: [0; NKINDS] };
    let [solve, smooth, halo] = [RegionId(0), RegionId(1), RegionId(2)];
    for _round in 0..7 {
        s.boundary(true, solve);
        for _ in 0..4_000 {
            s.clock += s.rng.below(3);
            s.sample();
        }
        for _ in 0..2_500 {
            s.sample();
        }
        for k in 0..9 {
            s.boundary(true, smooth);
            let exit = s.clock + if k % 3 == 0 { 0 } else { 120 + s.rng.below(5) };
            for _ in 0..150 {
                s.clock = (s.clock + s.rng.below(2)).min(exit);
                s.sample();
            }
            s.clock = exit;
            for _ in 0..6 {
                s.sample();
            }
            s.boundary(false, smooth);
            s.clock += 1 + s.rng.below(4);
        }
        s.boundary(true, halo);
        let exit = s.clock + 100_000 + s.rng.below(50);
        for i in 0..1_200 {
            s.clock += u64::from(i % 15 == 14);
            s.sample();
        }
        s.clock = exit;
        s.boundary(false, halo);
        s.clock += 1;
        for _ in 0..600 {
            s.clock += s.rng.below(3);
            s.sample();
        }
        // The exit cycle: samples, the exits, more samples — all of
        // them inside (the interval is closed), none in the next round.
        s.clock += 5;
        for _ in 0..40 {
            s.sample();
        }
        s.boundary(false, solve);
        for _ in 0..40 {
            s.sample();
        }
    }
    s.trace
}

// ------------------------------------------------------ the reference

/// Top-level instances of `region`, core by core, then the outlier
/// filter: `(kept, rejected)`.
fn ref_instances(trace: &Trace, region: RegionId, filter: InstanceFilter) -> (Vec<RegionInstance>, usize) {
    let mut all = Vec::new();
    for core in 0..trace.meta.num_cores {
        let mut depth = 0u32;
        let mut open: Option<(u64, CounterSnapshot)> = None;
        for e in trace.events.iter().filter(|e| e.core == core) {
            match &e.payload {
                EventPayload::RegionEnter { region: r, counters } if *r == region => {
                    if depth == 0 {
                        open = Some((e.cycles, *counters));
                    }
                    depth += 1;
                }
                EventPayload::RegionExit { region: r, counters } if *r == region && depth > 0 => {
                    depth -= 1;
                    if depth == 0 {
                        let (start_cycles, counters_in) = open.take().unwrap();
                        all.push(RegionInstance {
                            core,
                            start_cycles,
                            end_cycles: e.cycles,
                            counters_in,
                            counters_out: *counters,
                        });
                    }
                }
                _ => {}
            }
        }
    }
    let found = all.len();
    if found == 0 {
        return (all, 0);
    }
    if filter.min_fraction_of_max > 0.0 {
        let longest = all.iter().map(|i| i.duration()).max().unwrap() as f64;
        all.retain(|i| i.duration() as f64 >= filter.min_fraction_of_max * longest);
    }
    if filter.mad_k.is_finite() {
        let median = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let n = v.len();
            if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 }
        };
        let med = median(all.iter().map(|i| i.duration() as f64).collect());
        let mad = median(all.iter().map(|i| (i.duration() as f64 - med).abs()).collect());
        let tolerance = if mad == 0.0 { med * 0.10 } else { filter.mad_k * mad };
        all.retain(|i| (i.duration() as f64 - med).abs() <= tolerance);
    }
    let rejected = found - all.len();
    (all, rejected)
}

/// Everything a fold reports, in a shape both the engine's
/// [`FoldedRegion`] and the reference can fill.
#[derive(Debug, Clone)]
#[allow(dead_code)] // fields are read through Debug
struct View {
    region: String,
    instances_used: usize,
    instances_rejected: usize,
    avg_duration_cycles: f64,
    freq_mhz: u32,
    counters: Vec<FoldedCounter>,
    counter_points: Vec<Vec<(f64, f64)>>,
    addr_points: Vec<AddrPoint>,
    /// (x, ip, index into `files`, line)
    line_points: Vec<(f64, u64, Option<u32>, Option<u32>)>,
    files: Vec<String>,
}

fn view_of(f: &FoldedRegion) -> View {
    View {
        region: f.region.clone(),
        instances_used: f.instances_used,
        instances_rejected: f.instances_rejected,
        avg_duration_cycles: f.avg_duration_cycles,
        freq_mhz: f.freq_mhz,
        counters: f.counters.clone(),
        counter_points: EventKind::ALL.iter().map(|k| f.pooled.counter_points(*k).collect()).collect(),
        addr_points: f.pooled.addr_points().collect(),
        line_points: f
            .pooled
            .line_points()
            .map(|l| (l.x, l.ip, l.file.map(|id| id.0), l.line))
            .collect(),
        files: f.pooled.files().iter().map(|s| s.to_string()).collect(),
    }
}

/// What a performance-only fold of the region `v` views must report:
/// `v` without its address and line panels and file table, and the
/// performance series, which derives from the counters and instance
/// figures alone.
fn performance_of(mut v: View) -> (View, Vec<PerfPoint>) {
    (v.addr_points, v.line_points, v.files) = (Vec::new(), Vec::new(), Vec::new());
    let folded = FoldedRegion {
        region: v.region.clone(),
        instances_used: v.instances_used,
        instances_rejected: v.instances_rejected,
        avg_duration_cycles: v.avg_duration_cycles,
        freq_mhz: v.freq_mhz,
        counters: v.counters.clone(),
        pooled: PooledSamples::default(),
    };
    (v, folded.performance_series(17))
}

fn ref_fit(points: &[(f64, f64)], bins: usize, fit: FitModel) -> MonotoneCurve {
    if points.is_empty() {
        return MonotoneCurve::identity();
    }
    let mut sums = vec![(0.0f64, 0.0f64, 0.0f64); bins];
    for &(x, y) in points {
        let b = ((x * bins as f64) as usize).min(bins - 1);
        sums[b].0 += x;
        sums[b].1 += y;
        sums[b].2 += 1.0;
    }
    let populated: Vec<_> = sums.into_iter().filter(|s| s.2 > 0.0).collect();
    let xs: Vec<f64> = populated.iter().map(|s| (s.0 / s.2).clamp(1e-9, 1.0 - 1e-9)).collect();
    let means: Vec<f64> = populated.iter().map(|s| s.1 / s.2).collect();
    let weights: Vec<f64> = populated.iter().map(|s| s.2).collect();
    let fitted = match fit {
        FitModel::Isotonic => pava_nondecreasing(&means, &weights),
        FitModel::BinnedMean => means,
    };
    MonotoneCurve::from_knots(&xs, &fitted)
}

/// Fold one region the slow way.
fn ref_fold(trace: &Trace, req: &RegionRequest) -> Result<View, FoldError> {
    let region = trace
        .region_id(&req.region)
        .ok_or_else(|| FoldError::UnknownRegion(req.region.clone()))?;
    let (kept, rejected) = ref_instances(trace, region, req.cfg.filter);
    let need = req.cfg.min_instances.max(1);
    if kept.len() < need {
        return Err(FoldError::TooFewInstances { found: kept.len(), need });
    }
    // The first kept instance on the sample's core that contains it.
    let find = |core: usize, cycles: u64| kept.iter().position(|i| i.core == core && i.contains(cycles));

    let mut counter_points: Vec<Vec<(f64, f64)>> = vec![Vec::new(); NKINDS];
    let mut addr_points = Vec::new();
    let mut line_points = Vec::new();
    let mut files: Vec<String> = Vec::new();
    let line_of = |x: f64, ip: u64, files: &mut Vec<String>| match trace.source.resolve(Ip(ip)) {
        Some(loc) => {
            let id = files.iter().position(|f| *f == loc.file).unwrap_or_else(|| {
                files.push(loc.file.clone());
                files.len() - 1
            });
            (x, ip, Some(id as u32), Some(loc.line))
        }
        None => (x, ip, None, None),
    };
    for e in &trace.events {
        match &e.payload {
            EventPayload::CounterSample { ip, counters, .. } => {
                let Some(idx) = find(e.core, e.cycles) else { continue };
                let inst = &kept[idx];
                let x = inst.normalize(e.cycles);
                for kind in EventKind::ALL {
                    let (c0, c1) = (inst.counters_in.get(kind), inst.counters_out.get(kind));
                    if c1 > c0 {
                        let c = counters.get(kind).clamp(c0, c1);
                        counter_points[kind.index()].push((x, (c - c0) as f64 / (c1 - c0) as f64));
                    }
                }
                line_points.push(line_of(x, ip.0, &mut files));
            }
            EventPayload::Pebs { sample, object } => {
                let Some(idx) = find(sample.core, sample.timestamp) else { continue };
                let x = kept[idx].normalize(sample.timestamp);
                addr_points.push(AddrPoint {
                    x,
                    addr: sample.addr,
                    ip: sample.ip,
                    is_store: sample.is_store,
                    latency: sample.latency,
                    source: sample.source,
                    object: *object,
                    instance: idx,
                });
                line_points.push(line_of(x, sample.ip, &mut files));
            }
            _ => {}
        }
    }
    // Stable sorts: ties keep trace order.
    for pts in &mut counter_points {
        pts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
    addr_points.sort_by(|a, b| a.x.partial_cmp(&b.x).unwrap());
    line_points.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());

    let n = kept.len() as f64;
    let counters = EventKind::ALL
        .iter()
        .map(|&kind| FoldedCounter {
            kind,
            curve: ref_fit(&counter_points[kind.index()], req.cfg.bins, req.cfg.fit),
            avg_total: kept
                .iter()
                .map(|i| i.counters_out.get(kind).saturating_sub(i.counters_in.get(kind)) as f64)
                .sum::<f64>()
                / n,
            points: counter_points[kind.index()].len(),
        })
        .collect();
    Ok(View {
        region: req.region.clone(),
        instances_used: kept.len(),
        instances_rejected: rejected,
        avg_duration_cycles: kept.iter().map(|i| i.duration() as f64).sum::<f64>() / n,
        freq_mhz: trace.meta.freq_mhz,
        counters,
        counter_points,
        addr_points,
        line_points,
        files,
    })
}

// ----------------------------------------------------------- the suite

fn render(results: &[Result<FoldedRegion, FoldError>]) -> Vec<String> {
    results.iter().map(|r| format!("{:?}", r.as_ref().map(view_of))).collect()
}

/// A performance-only fold as it is, panels included.
fn render_performance(results: &[Result<FoldedRegion, FoldError>]) -> Vec<String> {
    let rendered = |f: &FoldedRegion| (view_of(f), f.performance_series(17));
    results.iter().map(|r| format!("{:?}", r.as_ref().map(rendered))).collect()
}

/// The reference renderings of a full and of a performance-only fold.
fn references(folded: &[Result<View, FoldError>]) -> (Vec<String>, Vec<String>) {
    let full = folded.iter().map(|r| format!("{r:?}")).collect();
    let performance =
        folded.iter().map(|r| format!("{:?}", r.as_ref().map(|v| performance_of(v.clone())))).collect();
    (full, performance)
}

/// Fold `source` performance-only at `threads` and compare it, panels
/// included, with `reference` and with `full`, the full fold of the
/// same source, both projected by [`performance_of`]: its address and
/// line panels and file table must be empty. On a store, `full_bytes`
/// is the payload the full fold decoded: the performance fold may not
/// decode more, and decodes less when the full fold pooled a PEBS
/// sample.
fn check_performance(
    source: &mut dyn TraceSource,
    requests: &[RegionRequest],
    reference: &[String],
    full: &[Result<FoldedRegion, FoldError>],
    full_bytes: Option<u64>,
    path: &str,
    threads: usize,
) -> Result<(), String> {
    let at = format!("{path} performance fold, threads={threads}");
    let (results, stats) = fold_performance_source(source, requests, threads).unwrap();
    let got = render_performance(&results);
    if let Some(slot) = got.iter().zip(reference).position(|(g, r)| g != r) {
        return Err(format!("{at}: request {slot} diverged from the reference"));
    }
    let projected: Vec<String> =
        full.iter().map(|r| format!("{:?}", r.as_ref().map(|f| performance_of(view_of(f))))).collect();
    if got != projected {
        return Err(format!("{at}: diverged from the full fold"));
    }
    if let Some(full_bytes) = full_bytes {
        let paid = stats.payload_bytes_decoded;
        let pebs_pooled = full.iter().flatten().any(|f| f.pooled.addr_points().next().is_some());
        if paid > full_bytes || (pebs_pooled && paid == full_bytes) {
            return Err(format!("{at}: decoded {paid} payload bytes, the full fold {full_bytes}"));
        }
    }
    Ok(())
}

fn unique_path(ext: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("mempersp_fold_oracle_{}_{n}.{ext}", std::process::id()))
}

/// The requests of both tests: every region; `solve` again with
/// another config (slots accumulate independently); `smooth` with no
/// outlier filter, so its zero-duration instances stay in; a region
/// that does not exist.
fn requests() -> Vec<RegionRequest> {
    let mut requests: Vec<RegionRequest> = REGIONS.iter().map(|r| RegionRequest::new(*r)).collect();
    requests.push(RegionRequest::with_cfg(
        "solve",
        FoldingConfig {
            bins: 8,
            fit: FitModel::BinnedMean,
            filter: InstanceFilter::slowest_cluster(0.25),
            min_instances: 2,
        },
    ));
    requests.push(RegionRequest::with_cfg(
        "smooth",
        FoldingConfig {
            filter: InstanceFilter { mad_k: f64::INFINITY, min_fraction_of_max: 0.0 },
            ..FoldingConfig::default()
        },
    ));
    requests.push(RegionRequest::new("no-such-region"));
    requests
}

/// Fold `trace` in memory and from a `.prv`, an `.mps` of
/// `chunk_target`-byte chunks and an `.mps.d` of `shard_events`-event
/// shards, at 1, 2 and 4 threads each, and performance-only at 1 and 2
/// threads ([`check_performance`]); the first rendering that is not
/// `reference` (`perf_reference`) is the error.
fn check_every_path(
    trace: &Trace,
    requests: &[RegionRequest],
    reference: &[String],
    perf_reference: &[String],
    chunk_target: usize,
    shard_events: u64,
) -> Result<(), String> {
    let differs = |got: Vec<String>, path: &str, threads: usize| match got == reference {
        true => Ok(()),
        false => {
            let slot = got.iter().zip(reference).position(|(g, r)| g != r);
            Err(format!("{path} fold, threads={threads}: request {slot:?} diverged from the reference"))
        }
    };
    for threads in [1usize, 2, 4] {
        let full = fold_regions(trace, requests, threads);
        differs(render(&full), "in-memory", threads)?;
        if threads <= 2 {
            check_performance(&mut &*trace, requests, perf_reference, &full, None, "in-memory", threads)?;
        }
    }
    for ext in ["prv", "mps", "mps.d"] {
        let path = unique_path(ext);
        match ext {
            "prv" => save_trace(&path, trace).unwrap(),
            "mps" => drop(write_store_chunked(&path, trace, chunk_target).unwrap()),
            _ => drop(write_store_sharded(&path, trace, chunk_target, shard_events).unwrap()),
        }
        let outcome = [1usize, 2, 4].into_iter().try_for_each(|threads| {
            let mut src = open_trace_source(&path).unwrap();
            let (results, stats) = fold_regions_source(src.as_mut(), requests, threads).unwrap();
            differs(render(&results), ext, threads)?;
            if threads > 2 {
                return Ok(());
            }
            let full_bytes = (ext != "prv").then_some(stats.payload_bytes_decoded);
            let mut src = open_trace_source(&path).unwrap();
            check_performance(src.as_mut(), requests, perf_reference, &results, full_bytes, ext, threads)
        });
        if path.is_dir() {
            std::fs::remove_dir_all(&path).ok();
        } else {
            std::fs::remove_file(&path).ok();
        }
        outcome?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_fold_path_matches_the_naive_reference(
        seed in any::<u64>(),
        events in 300usize..1500,
        cores in 1usize..4,
    ) {
        let trace = build_trace(seed, events, cores);
        let requests = requests();
        let folded: Vec<Result<View, FoldError>> = requests.iter().map(|r| ref_fold(&trace, r)).collect();
        let (reference, perf_reference) = references(&folded);
        prop_assert!(
            reference.iter().any(|r| r.starts_with("Ok")),
            "the generator should produce at least one foldable region"
        );
        // 1 KiB chunks: tens of chunks, instances straddling them.
        let outcome = check_every_path(&trace, &requests, &reference, &perf_reference, 1024, 400);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

#[test]
fn large_panels_match_the_naive_reference() {
    let trace = build_large_trace();
    assert!(trace.events.len() >= 60_000, "{} events", trace.events.len());
    let requests = requests();
    let folded: Vec<Result<View, FoldError>> = requests.iter().map(|r| ref_fold(&trace, r)).collect();

    // The trace is what the doc comment of its builder promises.
    let view = |slot: usize| folded[slot].as_ref().unwrap_or_else(|e| panic!("slot {slot}: {e}"));
    let (solve, smooth_default, halo, smooth_all) = (view(0), view(1), view(2), view(4));
    assert!(solve.line_points.len() > 30_000 && solve.addr_points.len() > 15_000);
    let most_on_one_x = |v: &View| {
        v.line_points.chunk_by(|a, b| a.0 == b.0).map(<[_]>::len).max().unwrap_or(0)
    };
    assert!(most_on_one_x(solve) >= 500, "clock stood still");
    assert!(solve.addr_points.last().unwrap().x == 1.0, "samples on the exit cycle");
    assert!(smooth_all.instances_used > smooth_default.instances_used, "zero-duration instances kept");
    assert!(most_on_one_x(smooth_all) >= 1_000);
    assert_eq!(smooth_all.line_points[0].0, 0.0);
    assert_eq!(smooth_all.line_points.last().unwrap().0, 1.0);
    assert!(halo.line_points.len() > 4_000);
    assert!(halo.line_points.last().unwrap().0 < 8.0 / halo.line_points.len() as f64, "one bucket");

    // 16 KiB chunks, four shards.
    let (reference, perf_reference) = references(&folded);
    check_every_path(&trace, &requests, &reference, &perf_reference, 16 << 10, 20_000).unwrap();
}

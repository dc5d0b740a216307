//! The loop shared by the three single-caller workloads (`hpcg_paper`,
//! `hpcg_dense`, `store_bulk`): produce a sealed store, then analyse it
//! through the library the way the CLI does — open + fold every
//! region, open + full scan, selective window queries, the object
//! attribution query — checking every output.

use crate::gen::Rng;
use crate::oracle::{answer_of, fold_digest, Answer, PebsIndex, Window};
use crate::spans::Spans;
use crate::stats::{best, median, percentile};
use crate::{host, layers, Ctx};
use mempersp_extrae::query::Query;
use mempersp_extrae::trace_source::ScanStats;
use mempersp_folding::{fold_regions_source, RegionRequest};
use mempersp_store::{crc32c, MpsSource};
use std::path::Path;
use std::time::Instant;

/// Fold worker threads = load-generating threads = `nproc` of the box
/// the benchmark was sized on.
pub const THREADS: usize = 2;
/// Timed reps never fall below this, however slow the host.
pub const MIN_REPS: usize = 3;
/// Window queries per rep: three reps already give the 1,000 samples a
/// p99 needs.
pub const QUERIES_PER_REP: usize = 400;

/// What one `produce` call made.
pub struct Produced {
    /// Units of the workload's primary work (simulated accesses, or
    /// events ingested) behind `work_per_s`.
    pub work: u64,
    pub events: u64,
}

pub struct Spec<'a> {
    /// Write the workload's sealed store at the path.
    pub produce: &'a mut dyn FnMut(&Path, &mut Spans) -> Produced,
    /// The oracle for a store `produce` made (same for every rep: the
    /// store's bytes must repeat).
    pub index: &'a dyn Fn(&Path) -> PebsIndex,
    /// Folds per rep; more where one fold is only milliseconds.
    pub folds_per_rep: usize,
    /// Set-ups per run; more where one set-up is only a few seconds.
    pub setups: usize,
}

/// Every timing the rep loop collects. `*_rep_*` hold one figure per
/// rep (the median of that rep's samples), the rest every
/// sample of the window.
#[derive(Default)]
pub struct Samples {
    pub produce_s: Vec<f64>,
    pub fold_rep_s: Vec<f64>,
    pub query_rep_p50_s: Vec<f64>,
    pub fold_s: Vec<f64>,
    pub open_s: Vec<f64>,
    pub scan_s: Vec<f64>,
    pub query_s: Vec<f64>,
    pub object_s: Vec<f64>,
    pub rep_traced_s: Vec<f64>,
    pub rep_untraced_s: Vec<f64>,
    pub scan_stats: ScanStats,
    pub query_stats: ScanStats,
    pub produced: Option<Produced>,
}

fn add(into: &mut ScanStats, s: &ScanStats) {
    into.events_matched += s.events_matched;
    into.events_scanned += s.events_scanned;
    into.chunks_decoded += s.chunks_decoded;
    into.chunks_skipped += s.chunks_skipped;
    into.chunks_cached += s.chunks_cached;
    into.payload_bytes_decoded += s.payload_bytes_decoded;
}

fn all_regions(src: &MpsSource) -> Vec<RegionRequest> {
    src.store_header().region_names.iter().map(RegionRequest::new).collect()
}

/// What must repeat across the reps of one run.
struct Baseline {
    store_crc: u32,
    store_len: u64,
    fold_digest: u64,
    windows: Vec<Window>,
    expected: Vec<Answer>,
    index: PebsIndex,
}

fn store_identity(path: &Path) -> (u32, u64) {
    let bytes = std::fs::read(path).expect("read sealed store");
    (crc32c(&bytes), bytes.len() as u64)
}

/// One open → fold-every-region, as `mempersp fold-multi <store> all`.
fn fold_all(path: &Path, spans: &mut Spans) -> (u64, f64, f64) {
    let ((digest, open_s), secs) = spans.time("fold_all", |spans| {
        let (mut src, open_s) = spans.time("store.open", |_| MpsSource::open(path).expect("open"));
        let requests = all_regions(&src);
        let ((results, _), _) = spans.time("folding.fold_regions_source", |_| {
            fold_regions_source(&mut src, &requests, THREADS).expect("fold")
        });
        (results, open_s)
    });
    // Digest outside the timed span: it is the check, not the work.
    (fold_digest(&digest), secs, open_s)
}

fn analyse(ctx: &mut Ctx, path: &Path, spec: &Spec, base: &Baseline, out: &mut Samples) {
    let (crc, len) = store_identity(path);
    ctx.run.check(crc == base.store_crc && len == base.store_len, || {
        format!("store bytes differ between reps ({len} B crc {crc:08x})")
    });

    let first_fold = out.fold_s.len();
    for _ in 0..spec.folds_per_rep {
        let (digest, secs, open_s) = fold_all(path, &mut ctx.spans);
        out.fold_s.push(secs);
        out.open_s.push(open_s);
        ctx.run.check(digest == base.fold_digest, || "fold digest differs between reps".into());
    }
    out.fold_rep_s.push(median(&out.fold_s[first_fold..]));

    let ((matched, stats), secs) = ctx.spans.time("store.scan", |_| {
        let src = MpsSource::open(path).expect("open");
        let (events, stats) = src.query(&Query::all()).expect("full scan");
        (events.len() as u64, stats)
    });
    out.scan_s.push(secs);
    add(&mut out.scan_stats, &stats);
    ctx.run.check(matched == base.index.events, || {
        format!("full scan returned {matched} events, store holds {}", base.index.events)
    });

    // One reader for the rep's queries. The first pass over the windows
    // is checked but not timed: it fills the block cache, so the timed
    // pass measures a warm reader and not the rep's mix of first and
    // later touches (LZ chunks are ~10× slower cold).
    let src = MpsSource::open(path).expect("open");
    let first_query = out.query_s.len();
    for timed in [false, true] {
        for (w, want) in base.windows.iter().zip(&base.expected) {
            let q = w.query();
            let open = ctx.spans.begin(if timed { "store.query" } else { "store.query_cold" });
            let (events, stats) = src.query(&q).expect("query");
            let got = answer_of(&events);
            let secs = ctx.spans.end(open);
            if timed {
                out.query_s.push(secs);
            }
            add(&mut out.query_stats, &stats);
            ctx.run
                .check(got == *want, || format!("window query {w:?}: got {got:?}, want {want:?}"));
        }
    }
    out.query_rep_p50_s.push(median(&out.query_s[first_query..]));

    let q = Query::all().touching_object(base.index.object);
    let (got, secs) = ctx
        .spans
        .time("store.object_query", |_| answer_of(&src.query(&q).expect("object query").0));
    out.object_s.push(secs);
    ctx.run.check(got == base.index.object_answer, || {
        format!("object query: got {got:?}, want {:?}", base.index.object_answer)
    });
    if ctx.trace {
        let reader = src.reader().expect("single-file store");
        let c = reader.cache_stats();
        ctx.run.set("store.cache_hit_ratio", ratio(c.hits, c.hits + c.misses), 1);
        ctx.run.set("store.scratch_allocs", reader.scratch_allocs_total() as f64, 1);
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn rep(ctx: &mut Ctx, path: &Path, spec: &mut Spec, base: &Baseline, out: &mut Samples) {
    let (produced, secs) = ctx.spans.time("produce", |spans| (spec.produce)(path, spans));
    out.produce_s.push(secs);
    out.produced = Some(produced);
    analyse(ctx, path, spec, base, out);
}

/// One set-up: an untimed rep that fills caches and the allocator and
/// fixes what every later rep must reproduce.
fn set_up(ctx: &mut Ctx, path: &Path, spec: &mut Spec) -> Baseline {
    let mut silent = Spans::new(Instant::now(), false);
    (spec.produce)(path, &mut silent);
    let (store_crc, store_len) = store_identity(path);
    let index = (spec.index)(path);
    let mut rng = Rng::new(ctx.seed ^ 0x51_7E57);
    let windows: Vec<Window> = (0..QUERIES_PER_REP).map(|_| index.window(&mut rng)).collect();
    let expected = windows.iter().map(|w| index.expect(w)).collect();
    let (fold_digest, _, _) = fold_all(path, &mut silent);
    let base = Baseline { store_crc, store_len, fold_digest, windows, expected, index };
    analyse(ctx, path, spec, &base, &mut Samples::default());
    base
}

/// Run the workload; returns the samples so the caller can add the
/// layers only it knows about. The store of the last rep stays at
/// `path`.
pub fn run(ctx: &mut Ctx, path: &Path, mut spec: Spec) -> Samples {
    // Set-up time is one figure per run and so most exposed to the
    // sandbox's slow seconds: where set-up is cheap it is done several
    // times and the best is reported, like every other timing.
    let t = Instant::now();
    let calib = host::calibrate();
    let once_s = t.elapsed().as_secs_f64();
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..spec.setups {
        let t = Instant::now();
        last = Some(set_up(ctx, path, &mut spec));
        setup_s.push(once_s + t.elapsed().as_secs_f64());
    }
    let base = last.expect("at least one set-up");
    ctx.run.set("setup_s", best(&setup_s), setup_s.len());
    host::reset_peak_rss();

    let mut out = Samples::default();
    let window = Instant::now();
    let mut reps = 0u64;
    while reps < MIN_REPS as u64 || window.elapsed().as_secs_f64() < ctx.seconds {
        // The traced run alternates traced and untraced reps, so the
        // cost of tracing is measured inside one process.
        ctx.spans.enabled = ctx.trace && reps.is_multiple_of(2);
        ctx.spans.set_op(reps);
        let open = ctx.spans.begin("rep");
        rep(ctx, path, &mut spec, &base, &mut out);
        let secs = ctx.spans.end(open);
        let bucket =
            if ctx.spans.enabled { &mut out.rep_traced_s } else { &mut out.rep_untraced_s };
        bucket.push(secs);
        reps += 1;
    }
    ctx.spans.enabled = false;

    let produced = out.produced.as_ref().expect("at least one rep");
    let run = &mut ctx.run;
    // Each rep reports its own figure; the run reports the best rep's
    // (see `stats::best`).
    let reps = out.produce_s.len();
    run.set("work_per_s", produced.work as f64 / best(&out.produce_s), reps);
    run.set("fold_s", best(&out.fold_rep_s), out.fold_s.len());
    run.set("query_p50_s", best(&out.query_rep_p50_s), out.query_s.len());
    run.set("store_bytes_per_event", base.store_len as f64 / produced.events as f64, 1);
    run.set("peak_rss_bytes", host::peak_rss_bytes().unwrap_or(0) as f64, 1);

    if ctx.trace {
        let run = &mut ctx.run;
        run.set("host.calib_s", calib, 1);
        run.set(
            "trace_overhead_ratio",
            median(&out.rep_traced_s) / median(&out.rep_untraced_s),
            out.rep_traced_s.len().min(out.rep_untraced_s.len()),
        );
        let events = base.index.events as f64;
        let scan: Vec<f64> = out.scan_s.iter().map(|s| events / s).collect();
        run.set("store.scan_events_per_s", median(&scan), scan.len());
        run.set("store.object_query_s", median(&out.object_s), out.object_s.len());
        let p99 = percentile(&out.query_s, 0.99).expect("MIN_REPS × QUERIES_PER_REP ≥ 1,000");
        run.set("store.query_p99_s", p99, out.query_s.len());
        run.set("store.open_s", median(&out.open_s), out.open_s.len());
        // Chunk counts cover both passes over the windows.
        let q = &out.query_stats;
        run.set("store.chunks_decoded", q.chunks_decoded as f64, 2 * out.query_s.len());
        run.set("store.chunks_cached", q.chunks_cached as f64, 2 * out.query_s.len());
        run.set("store.chunks_skipped", q.chunks_skipped as f64, 2 * out.query_s.len());
        let candidates = q.chunks_decoded + q.chunks_cached;
        run.set("store.prune_ratio", ratio(q.chunks_skipped, candidates + q.chunks_skipped), 1);
        run.set("store.select_ratio", ratio(q.events_matched, q.events_scanned), 1);
        let s = &out.scan_stats;
        let scan_total: f64 = out.scan_s.iter().sum();
        run.set(
            "store.decode_payload_bytes_per_s",
            s.payload_bytes_decoded as f64 / scan_total,
            out.scan_s.len(),
        );
        layers::store(ctx, path);
        layers::folding(ctx, path, median(&out.fold_s));
    }
    out
}

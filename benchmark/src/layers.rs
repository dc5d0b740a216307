//! Per-layer measurements of the traced run.
//!
//! Each layer is isolated by calling its public functions separately on
//! the inputs the workload just used — never by instrumenting the
//! program. Where a layer sits inside a larger call (the simulator's
//! run loop, `fold_regions_source`), its share is the time of the same
//! calls reissued from outside, and the remainder is reported as that
//! parent's residual, so the parts can be checked against the whole.

use crate::library::{ratio, THREADS};
use crate::stats::median;
use crate::Ctx;
use mempersp_core::{Machine, MachineConfig, PebsCoreSelect, RunReport};
use mempersp_extrae::events::{EventPayload, TraceEvent};
use mempersp_extrae::harness::{AppContext, MemRequest, NullContext, Workload};
use mempersp_extrae::json::event_to_json;
use mempersp_extrae::query::{EventClass, Query};
use mempersp_extrae::source::{CodeLocation, Ip};
use mempersp_extrae::stream_writer::EventSink;
use mempersp_extrae::trace_source::TraceSource;
use mempersp_extrae::tracer::{Trace, Tracer};
use mempersp_folding::{
    collect_instances_multi, fold_regions, pool_all, InstanceFilter, RegionInstance, RegionRequest,
};
use mempersp_hpcg::{HpcgConfig, HpcgWorkload};
use mempersp_memsim::hierarchy::{AccessKind, AccessResult, BatchOp, MemorySystem};
use mempersp_pebs::{MemOp, Multiplexer};
use mempersp_store::svb::{encode_column, zigzag, SvbColumn};
use mempersp_store::{crc32c, MpsSource, StoreWriter, DEFAULT_CHUNK_BYTES};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Repeat `f` until it has run for a tenth of a second; seconds per call.
fn per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || t.elapsed().as_secs_f64() < 0.1 {
        f();
        calls += 1;
    }
    t.elapsed().as_secs_f64() / f64::from(calls)
}

/// The store layer, write and read side, on the events of `path`.
pub fn store(ctx: &mut Ctx, path: &Path) {
    let src = MpsSource::open(path).expect("open");
    let header = src.store_header().clone();
    let (events, _) = src.query(&Query::all()).expect("full scan");
    let n = events.len() as f64;

    // Write side: the same events through a one-thread StoreWriter.
    let copy = ctx.dir.join("layer-copy.mps");
    let mut w = StoreWriter::with_threads(&copy, DEFAULT_CHUNK_BYTES, 1).expect("create");
    let ((), append_s) = secs(|| {
        for e in &events {
            w.append(e).expect("append");
        }
    });
    let (summary, finish_s) = secs(|| w.finish(&header).expect("finish"));
    let bytes = std::fs::read(&copy).expect("read copy");
    let run = &mut ctx.run;
    run.set("store.append_events_per_s", n / append_s, 1);
    run.set("store.finish_s", finish_s, 1);
    run.set("store.bytes_written", bytes.len() as f64, 1);
    run.set("store.chunks", summary.chunks as f64, 1);
    run.check(bytes == std::fs::read(path).expect("read store"), || {
        "a store rewritten from its own events differs from the original".into()
    });

    // Read side.
    let crc_s = per_call(|| {
        black_box(crc32c(black_box(&bytes)));
    });
    run.set("store.crc_bytes_per_s", bytes.len() as f64 / crc_s, 1);
    let reader = src.reader().expect("single-file store");
    let (damage, verify_s) = secs(|| reader.verify_all());
    run.set("store.verify_all_s", verify_s, 1);
    run.check(damage.is_empty(), || format!("verify_all reports damage: {damage:?}"));
    let noverify: Vec<f64> = (0..3)
        .map(|_| {
            secs(|| {
                let src =
                    MpsSource::open_with_options(path, Default::default(), false).expect("open");
                black_box(src.query(&Query::all()).expect("scan").0.len())
            })
            .1
        })
        .collect();
    run.set("store.scan_noverify_events_per_s", n / median(&noverify), noverify.len());

    // The stream-vbyte kernel alone, on the trace's own cycle deltas.
    let mut prev = 0u64;
    let deltas: Vec<u64> = events
        .iter()
        .map(|e| {
            let d = zigzag(e.cycles.wrapping_sub(prev) as i64);
            prev = e.cycles;
            d
        })
        .collect();
    let encoded = encode_column(&deltas);
    let mut pos = 0;
    let column = SvbColumn::parse(&encoded, &mut pos, deltas.len()).expect("own encoding parses");
    let mut decoded = Vec::with_capacity(deltas.len());
    let svb_s = per_call(|| {
        decoded.clear();
        column.decode_into(&mut decoded);
        black_box(&decoded);
    });
    run.set("store.svb_decode_vals_per_s", n / svb_s, 1);
    run.check(decoded == deltas, || "stream-vbyte round trip differs".into());
    std::fs::remove_file(&copy).ok();
}

/// Two time-sorted event lists merged into one (ties: `a` first).
fn merge(a: Vec<TraceEvent>, b: Vec<TraceEvent>) -> Vec<TraceEvent> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut b = b.into_iter().peekable();
    for e in a {
        while b.peek().is_some_and(|x| x.cycles < e.cycles) {
            out.push(b.next().expect("peeked"));
        }
        out.push(e);
    }
    out.extend(b);
    out
}

/// One pass over the folding layer's parts, in seconds, plus its counts.
struct FoldParts {
    open_s: f64,
    boundary_s: f64,
    instances_s: f64,
    sample_s: f64,
    pool_s: f64,
    fit_s: f64,
    /// Instances kept, instances rejected, points pooled.
    counts: [usize; 3],
}

fn fold_parts(path: &Path) -> FoldParts {
    let (mut src, open_s) = secs(|| MpsSource::open(path).expect("open"));
    let header = src.store_header().clone();
    let requests: Vec<RegionRequest> = header.region_names.iter().map(RegionRequest::new).collect();
    let ids: Vec<_> =
        requests.iter().map(|r| header.region_id(&r.region).expect("own region")).collect();
    let filters: Vec<InstanceFilter> = requests.iter().map(|r| r.cfg.filter).collect();

    let boundary_q = Query::all().with_kinds(&[EventClass::RegionEnter, EventClass::RegionExit]);
    let ((boundary, _), boundary_s) = secs(|| src.filtered(&boundary_q).expect("boundary scan"));
    let (collected, instances_s) = secs(|| collect_instances_multi(&boundary, &ids, &filters));
    let kept: Vec<&[RegionInstance]> =
        collected.iter().filter(|(v, _)| !v.is_empty()).map(|(v, _)| v.as_slice()).collect();
    let lo = kept.iter().flat_map(|k| k.iter()).map(|i| i.start_cycles).min().unwrap_or(0);
    let hi = kept.iter().flat_map(|k| k.iter()).map(|i| i.end_cycles).max().unwrap_or(0);
    let sample_q =
        Query::all().with_kinds(&[EventClass::CounterSample, EventClass::Pebs]).in_time(lo, hi);
    let ((samples, _), sample_s) = secs(|| src.filtered(&sample_q).expect("sample scan"));
    let (pooled, pool_s) = secs(|| pool_all(&samples, &kept));
    let counts = [
        collected.iter().map(|(v, _)| v.len()).sum(),
        collected.iter().map(|(_, r)| r).sum(),
        pooled.iter().map(|p| p.len()).sum(),
    ];
    drop(pooled);

    // The fit is not callable on its own: time the in-memory engine on
    // the merged view and take off its own collection and pooling.
    let mut merged: Trace = header.clone();
    merged.events = merge(boundary.events, samples.events);
    let (_, engine_s) = secs(|| black_box(fold_regions(&merged, &requests, THREADS)));
    let (_, inst_m) = secs(|| black_box(collect_instances_multi(&merged, &ids, &filters)));
    let (_, pool_m) = secs(|| black_box(pool_all(&merged, &kept)));
    let fit_s = (engine_s - inst_m - pool_m).max(0.0);
    FoldParts { open_s, boundary_s, instances_s, sample_s, pool_s, fit_s, counts }
}

/// The folding layer: the two scans `fold_regions_source` makes,
/// reissued from outside, then instance collection, pooling and the
/// fit, each on the same filtered views; medians over at least three
/// passes. `fold_all_s` is the whole open → fold the workload
/// measured; what the parts leave of it is the residual.
pub fn folding(ctx: &mut Ctx, path: &Path, fold_all_s: f64) {
    let t = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 3 || t.elapsed().as_secs_f64() < 0.5 {
        passes.push(fold_parts(path));
    }
    let n = passes.len();
    let mid = |part: fn(&FoldParts) -> f64| median(&passes.iter().map(part).collect::<Vec<_>>());
    let (boundary_s, sample_s) = (mid(|p| p.boundary_s), mid(|p| p.sample_s));
    let (instances_s, pool_s, fit_s) =
        (mid(|p| p.instances_s), mid(|p| p.pool_s), mid(|p| p.fit_s));
    let parts = mid(|p| p.open_s) + boundary_s + instances_s + sample_s + pool_s + fit_s;
    let [kept, rejected, points] = passes[0].counts;
    let run = &mut ctx.run;
    run.set("folding.boundary_scan_s", boundary_s, n);
    run.set("folding.sample_scan_s", sample_s, n);
    run.set("folding.instances_s", instances_s, n);
    run.set("folding.pool_s", pool_s, n);
    run.set("folding.fit_s", fit_s, n);
    run.set("folding.scan_share", (boundary_s + sample_s) / fold_all_s, n);
    run.set("folding.residual_share", 1.0 - parts / fold_all_s, n);
    run.set("folding.instances_kept", kept as f64, 1);
    run.set("folding.instances_rejected", rejected as f64, 1);
    run.set("folding.points_pooled", points as f64, 1);
}

/// An `AppContext` that counts every memory request and keeps a window
/// of them, delegating the rest (allocation, regions, clocks) to the
/// simulation-free `NullContext`.
struct Recorder {
    inner: NullContext,
    /// Requests seen so far, per issuing core.
    seen: Vec<u64>,
    /// Each core's window: its requests number `skip..skip + keep`.
    skip: u64,
    keep: u64,
    recorded: Vec<(u8, MemRequest)>,
}

impl Recorder {
    fn note(&mut self, core: usize, op: MemRequest) {
        let n = self.seen[core];
        if n >= self.skip && n < self.skip + self.keep {
            self.recorded.push((core as u8, op));
        }
        self.seen[core] = n + 1;
    }
}

impl AppContext for Recorder {
    fn core_count(&self) -> usize {
        self.inner.core_count()
    }
    fn location(&mut self, file: &str, line: u32, function: &str) -> Ip {
        self.inner.location(file, line, function)
    }
    fn malloc(&mut self, core: usize, size: u64, callsite: &CodeLocation) -> u64 {
        self.inner.malloc(core, size, callsite)
    }
    fn free(&mut self, core: usize, addr: u64) {
        self.inner.free(core, addr)
    }
    fn begin_alloc_group(&mut self, name: &str) {
        self.inner.begin_alloc_group(name)
    }
    fn end_alloc_group(&mut self) {
        self.inner.end_alloc_group()
    }
    fn register_static(&mut self, name: &str, size: u64) -> u64 {
        self.inner.register_static(name, size)
    }
    fn enter(&mut self, core: usize, region: &str) {
        self.inner.enter(core, region)
    }
    fn exit(&mut self, core: usize, region: &str) {
        self.inner.exit(core, region)
    }
    fn load(&mut self, core: usize, ip: Ip, addr: u64, size: u32) {
        self.note(core, MemRequest::load(ip, addr, size));
        self.inner.load(core, ip, addr, size)
    }
    fn store(&mut self, core: usize, ip: Ip, addr: u64, size: u32) {
        self.note(core, MemRequest::store(ip, addr, size));
        self.inner.store(core, ip, addr, size)
    }
    fn access_batch(&mut self, core: usize, ops: &[MemRequest]) {
        for op in ops {
            self.note(core, *op);
        }
        self.inner.access_batch(core, ops)
    }
    fn compute(&mut self, core: usize, ip: Ip, instructions: u64, branches: u64) {
        self.inner.compute(core, ip, instructions, branches)
    }
    fn set_overlap(&mut self, core: usize, overlap: f64) {
        self.inner.set_overlap(core, overlap)
    }
    fn barrier(&mut self) {
        self.inner.barrier()
    }
    fn now(&mut self, core: usize) -> u64 {
        self.inner.now(core)
    }
}

/// Counts events and drops them.
struct CountingSink(u64);

impl EventSink for CountingSink {
    fn append_event(&mut self, _event: &TraceEvent) -> std::io::Result<()> {
        self.0 += 1;
        Ok(())
    }
    fn finish(&mut self, _trace_for_header: &Trace) -> std::io::Result<()> {
        Ok(())
    }
}

/// Requests kept for the memsim and pebs replays.
const REPLAY_REQUESTS: usize = 2_000_000;

/// The simulator's layers (`hpcg`, `memsim`, `pebs`, `extrae`, `core`)
/// for one HPCG workload. `report` is the last timed run's, `run_s`
/// the best of the timed runs into the store.
pub fn simulator(
    ctx: &mut Ctx,
    machine: &MachineConfig,
    hpcg: &HpcgConfig,
    store: &Path,
    report: &RunReport,
    run_s: f64,
) {
    let cores = report.stats.total_cores();
    let accesses = cores.accesses();

    // hpcg: the application alone, emitting into a counting context.
    // Ranks solve one after another, so the kept window is the middle
    // of every rank's own stream: inside its CG iterations.
    let per_core = accesses / machine.cores as u64;
    let mut rec = Recorder {
        inner: NullContext::new(machine.cores),
        seen: vec![0; machine.cores],
        skip: per_core / 2,
        keep: (REPLAY_REQUESTS / machine.cores) as u64,
        recorded: Vec::with_capacity(REPLAY_REQUESTS),
    };
    let ((), emit_s) = secs(|| HpcgWorkload::new(hpcg.clone()).run(&mut rec));
    let emitted: u64 = rec.seen.iter().sum();
    ctx.run.check(emitted == accesses, || {
        format!("hpcg emitted {emitted} requests alone, {accesses} in the machine")
    });

    // memsim: the kept requests through the hierarchy, batched per
    // issuing core as the machine's epochs do.
    let mut mem = MemorySystem::new(machine.hierarchy.clone(), machine.cores);
    let mut results: Vec<AccessResult> = Vec::with_capacity(rec.recorded.len());
    let mut batch: Vec<BatchOp> = Vec::new();
    let ((), replay_s) = secs(|| {
        let mut i = 0;
        while i < rec.recorded.len() {
            let core = rec.recorded[i].0;
            batch.clear();
            while i < rec.recorded.len() && rec.recorded[i].0 == core && batch.len() < 4096 {
                let op = rec.recorded[i].1;
                let kind = if op.store { AccessKind::Store } else { AccessKind::Load };
                batch.push(BatchOp { kind, addr: op.addr, size: op.size });
                i += 1;
            }
            mem.access_batch(core as usize, &batch, i as u64, &mut results);
        }
    });
    let replay_rate = rec.recorded.len() as f64 / replay_s;

    // pebs: the same operations, with the latencies memsim gave them,
    // through one multiplexer per sampled core.
    let sampled = |core: usize| match machine.pebs_cores {
        PebsCoreSelect::All => true,
        PebsCoreSelect::Only(c) => c == core,
    };
    let mut muxes: Vec<Option<Multiplexer>> = (0..machine.cores)
        .map(|c| {
            sampled(c)
                .then(|| Multiplexer::new(machine.pebs_events.clone(), machine.mux_slice_cycles))
        })
        .collect();
    let ops: Vec<(usize, MemOp)> = rec
        .recorded
        .iter()
        .zip(&results)
        .filter(|((core, _), _)| sampled(*core as usize))
        .map(|((core, op), r)| {
            let kind = if op.store { AccessKind::Store } else { AccessKind::Load };
            let op = MemOp {
                ip: op.ip.0,
                addr: op.addr,
                size: op.size,
                kind,
                latency: r.latency,
                source: r.source,
                tlb_miss: r.tlb_miss,
            };
            (*core as usize, op)
        })
        .collect();
    let ((), observe_s) = secs(|| {
        for (now, (core, op)) in ops.iter().enumerate() {
            let mux = muxes[*core].as_mut().expect("sampled core");
            black_box(mux.observe(*core, op, now as u64 * 4));
        }
    });
    let observe_rate = ops.len() as f64 / observe_s;
    let sampled_share = ops.len() as f64 / rec.recorded.len() as f64;
    drop((ops, results, rec));
    let (matched, captured) = report
        .mux_stats
        .iter()
        .flatten()
        .flat_map(|m| m.per_event.iter())
        .fold((0u64, 0u64), |(m, c), (_, matched, captured)| (m + matched, c + captured));

    // extrae: the run's own events replayed through a Tracer, drained
    // at 32 k-event watermarks as the machine's epochs do.
    let src = MpsSource::open(store).expect("open");
    let header = src.store_header().clone();
    let (events, _) = src.query(&Query::all()).expect("full scan");
    let mut tracer = Tracer::new(machine.tracer, machine.cores);
    for o in header.objects.all() {
        tracer.register_static(&o.name, o.base, o.size);
    }
    let mut drained = Vec::new();
    let mut drain_s = 0.0;
    let mut replayed = 0u64;
    let ((), record_and_drain_s) = secs(|| {
        for e in &events {
            match &e.payload {
                EventPayload::RegionEnter { region, counters } => {
                    tracer.enter(e.core, header.region_name(*region), *counters, e.cycles);
                }
                EventPayload::RegionExit { region, counters } => {
                    tracer.exit(e.core, header.region_name(*region), *counters, e.cycles);
                }
                EventPayload::CounterSample { ip, counters, .. } => {
                    tracer.record_counter_sample(e.core, *ip, *counters, e.cycles);
                }
                EventPayload::Pebs { sample, .. } => tracer.record_pebs(*sample),
                EventPayload::MuxSwitch { event_index, label } => {
                    tracer.record_mux_switch(e.core, *event_index, label, e.cycles);
                }
                EventPayload::User { kind, value } => {
                    tracer.user_event(e.core, *kind, *value, e.cycles);
                }
                // Allocations go through the simulated allocator,
                // which a replay cannot steer to the same addresses.
                EventPayload::Alloc { .. } | EventPayload::Free { .. } => continue,
            }
            replayed += 1;
            if replayed.is_multiple_of(32_768) {
                let t = Instant::now();
                tracer.drain_ready(e.cycles, &mut drained);
                drain_s += t.elapsed().as_secs_f64();
                drained.clear();
            }
        }
        let t = Instant::now();
        tracer.drain_ready(u64::MAX, &mut drained);
        drain_s += t.elapsed().as_secs_f64();
    });
    let record_s = record_and_drain_s - drain_s;

    let mut registry = header.objects.clone();
    let addrs: Vec<u64> = events.iter().filter_map(|e| e.pebs().map(|s| s.addr)).collect();
    let mut resolved = 0u64;
    let resolve_s = per_call(|| {
        resolved = addrs.iter().filter(|a| registry.resolve_id(**a).is_some()).count() as u64;
    });
    let render = &events[..events.len().min(100_000)];
    let ((), render_s) = secs(|| {
        for e in render {
            black_box(serde_json::to_string(&event_to_json(e)).expect("render"));
        }
    });

    // core: the whole machine into a sink that only counts, so the
    // store's share of a run is the difference to `run_s`.
    let run_null = || {
        secs(|| {
            Machine::new(machine.clone())
                .run_streaming(&mut HpcgWorkload::new(hpcg.clone()), Box::new(CountingSink(0)))
                .expect("counting sink cannot fail")
        })
    };
    // Best of two, to stand beside `run_s`, the best of the timed reps.
    let ((null_report, first_s), (_, second_s)) = (run_null(), run_null());
    let null_s = first_s.min(second_s);
    ctx.run.check(null_report.events_streamed == report.events_streamed, || {
        "a run into the counting sink streamed another number of events".into()
    });
    let children = emit_s
        + accesses as f64 / replay_rate
        + accesses as f64 * sampled_share / observe_rate
        + record_and_drain_s;

    let l1 = cores.l1d;
    let l2 = cores.l2;
    let l3 = report.stats.l3;
    let n = replayed as f64;
    let run = &mut ctx.run;
    run.set("hpcg.emit_s", emit_s, 1);
    run.set("hpcg.accesses", accesses as f64, 1);
    run.set("memsim.replay_accesses_per_s", replay_rate, 1);
    run.set("memsim.l1d_hit_ratio", ratio(l1.hits, l1.accesses()), 1);
    run.set("memsim.l2_hit_ratio", ratio(l2.hits, l2.accesses()), 1);
    run.set("memsim.l3_hit_ratio", ratio(l3.hits, l3.accesses()), 1);
    run.set("memsim.dram_accesses", report.stats.dram_transfers as f64, 1);
    run.set("pebs.observe_ops_per_s", observe_rate, 1);
    run.set("pebs.samples_captured", captured as f64, 1);
    run.set("pebs.capture_ratio", ratio(captured, matched), 1);
    run.set("extrae.record_events_per_s", n / record_s, 1);
    run.set("extrae.drain_events_per_s", n / drain_s, 1);
    run.set("extrae.resolve_per_s", addrs.len() as f64 / resolve_s, 1);
    run.set("extrae.resolved_ratio", ratio(resolved, addrs.len() as u64), 1);
    run.set("extrae.json_render_events_per_s", render.len() as f64 / render_s, 1);
    run.set("core.run_s", run_s, 1);
    run.set("core.run_nullsink_s", null_s, 1);
    run.set("core.residual_share", 1.0 - children / null_s, 1);
    run.set("core.events_streamed", report.events_streamed as f64, 1);
    run.set("core.wall_cycles", report.wall_cycles as f64, 1);
}

//! The three single-caller workloads: what each produces, and the
//! sizes that are fixed for everyone who cites them.

use crate::gen::GenConfig;
use crate::library::{self, Produced, Spec};
use crate::oracle::PebsIndex;
use crate::spans::Spans;
use crate::stats::best;
use crate::{layers, Ctx};
use mempersp_core::{
    run_streaming_to_path, MachineConfig, PebsCoreSelect, RunReport, StreamOptions,
};
use mempersp_extrae::events::{EventPayload, TraceEvent};
use mempersp_extrae::query::{EventClass, Query};
use mempersp_extrae::ObjectId;
use mempersp_hpcg::{HpcgConfig, HpcgWorkload};
use mempersp_store::{MpsSource, StoreWriter, DEFAULT_CHUNK_BYTES};
use std::collections::BTreeMap;
use std::path::Path;

/// Events of the synthetic stream (`store_bulk`, and `gen.mps` of
/// `serve_mixed`).
pub const BULK_EVENTS: u64 = 2_000_000;
pub const BULK_CORES: usize = 4;
/// The object of the object-attribution query on the synthetic stream.
pub const BULK_OBJECT: ObjectId = ObjectId(3);

/// The paper's HPCG problem, scaled to the sandbox: 25.8 M simulated
/// accesses on four ranks. `--quick` shrinks it about tenfold.
pub fn hpcg_config(quick: bool) -> HpcgConfig {
    if quick {
        HpcgConfig { nx: 8, max_iters: 2, mg_levels: 3, group_allocations: true, use_mg: true }
    } else {
        HpcgConfig { nx: 16, max_iters: 3, mg_levels: 4, group_allocations: true, use_mg: true }
    }
}

/// The simulated node. `dense` turns the paper's sampling (PEBS on
/// core 0, periods ~1000/~500: a few thousand events) into sampling on
/// every core at periods 31/17 (about half a million events), so the
/// sample → trace → store path carries real weight. The seed moves
/// only the PEBS period jitter.
pub fn machine_config(dense: bool, seed: u64) -> MachineConfig {
    let mut cfg = MachineConfig::haswell(4);
    cfg.threads = library::THREADS;
    cfg.counter_sample_period = 20_000;
    if dense {
        cfg.pebs_cores = PebsCoreSelect::All;
        cfg.pebs_events[0].period = 31;
        cfg.pebs_events[1].period = 17;
        cfg.counter_sample_period = 1_000;
        cfg.mux_slice_cycles = 20_000;
    }
    for (i, e) in cfg.pebs_events.iter_mut().enumerate() {
        e.seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(101 + 2 * i as u64);
    }
    cfg
}

/// `mempersp run --out <store>`: simulate, sample, trace and seal.
pub fn simulate(machine: &MachineConfig, hpcg: &HpcgConfig, out: &Path) -> RunReport {
    let mut workload = HpcgWorkload::new(hpcg.clone());
    run_streaming_to_path(machine.clone(), &mut workload, out, &StreamOptions::default())
        .expect("streaming run")
}

/// The data object with the most PEBS samples: the one an analyst
/// would ask about.
fn busiest_object(pebs: &[TraceEvent]) -> ObjectId {
    let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
    for e in pebs {
        if let EventPayload::Pebs { object: Some(o), .. } = &e.payload {
            *counts.entry(o.0).or_default() += 1;
        }
    }
    ObjectId(
        counts
            .into_iter()
            .max_by_key(|&(id, n)| (n, std::cmp::Reverse(id)))
            .map_or(0, |(id, _)| id),
    )
}

/// The oracle for an HPCG store: its own events, read back once.
pub fn index_of_store(path: &Path) -> PebsIndex {
    let src = MpsSource::open(path).expect("open");
    let (pebs, _) = src.query(&Query::all().with_kinds(&[EventClass::Pebs])).expect("scan");
    let object = busiest_object(&pebs);
    drop(pebs);
    let (events, _) = src.query(&Query::all()).expect("scan");
    PebsIndex::build(events.into_iter(), object)
}

pub fn hpcg(ctx: &mut Ctx, dense: bool) {
    let machine = machine_config(dense, ctx.seed);
    let config = hpcg_config(ctx.quick);
    let path = ctx.dir.join("hpcg.mps");
    let mut last: Option<RunReport> = None;
    let mut produce = |out: &Path, spans: &mut Spans| {
        let (report, _) =
            spans.time("core.run_streaming_to_path", |_| simulate(&machine, &config, out));
        let produced = Produced {
            work: report.stats.total_cores().accesses(),
            events: report.events_streamed,
        };
        last = Some(report);
        produced
    };
    let samples = library::run(
        ctx,
        &path,
        Spec {
            produce: &mut produce,
            index: &index_of_store,
            // A paper-sampling fold is milliseconds; repeat it so its
            // median is not three samples.
            folds_per_rep: if dense { 2 } else { 25 },
            setups: if dense { 1 } else { 3 },
        },
    );
    if ctx.trace {
        let report = last.expect("at least one rep");
        layers::simulator(ctx, &machine, &config, &path, &report, best(&samples.produce_s));
    }
}

pub fn bulk_config(ctx: &Ctx) -> GenConfig {
    GenConfig {
        events: if ctx.quick { BULK_EVENTS / 10 } else { BULK_EVENTS },
        cores: BULK_CORES,
        seed: ctx.seed,
    }
}

/// Generator → one-thread `StoreWriter` → `finish` (footer, fsync,
/// rename): nothing resident but the open chunk.
pub fn ingest(cfg: &GenConfig, out: &Path, spans: &mut Spans) -> Produced {
    let header = cfg.header();
    let (mut writer, _) = spans.time("store.create", |_| {
        StoreWriter::with_threads(out, DEFAULT_CHUNK_BYTES, 1).expect("create store")
    });
    spans.time("store.append", |_| {
        for e in cfg.events() {
            writer.append(&e).expect("append");
        }
    });
    let (summary, _) = spans.time("store.finish", |_| writer.finish(&header).expect("finish"));
    Produced { work: summary.events, events: summary.events }
}

pub fn store_bulk(ctx: &mut Ctx) {
    let cfg = bulk_config(ctx);
    let path = ctx.dir.join("gen.mps");
    let mut produce = |out: &Path, spans: &mut Spans| ingest(&cfg, out, spans);
    // The oracle never reads the store: it regenerates the stream.
    let index = |_: &Path| PebsIndex::build(cfg.events(), BULK_OBJECT);
    library::run(
        ctx,
        &path,
        Spec { produce: &mut produce, index: &index, folds_per_rep: 1, setups: 3 },
    );
}

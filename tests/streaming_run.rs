//! The streaming trace-production pipeline must be invisible in the
//! output: `run_streaming` writing straight to disk — any writer
//! thread count, any epoch cap, any container — produces exactly the
//! bytes of the materialize-then-convert path it replaces.

use mempersp::core::{run_streaming_to_path, Machine, MachineConfig, StreamOptions};
use mempersp::extrae::trace_format::{save_trace, write_trace};
use mempersp::extrae::{AppContext, CodeLocation, Trace, Workload};
use mempersp::hpcg::{HpcgConfig, HpcgWorkload};
use mempersp::store::{write_store_sharded, write_store_with, DEFAULT_CHUNK_BYTES};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mempersp_streaming_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn hpcg_config() -> HpcgConfig {
    HpcgConfig { nx: 8, max_iters: 2, mg_levels: 3, group_allocations: true, use_mg: true }
}

fn machine_config() -> MachineConfig {
    let mut cfg = MachineConfig::small();
    cfg.cores = 2;
    cfg
}

/// The materialized reference: simulate, keep the whole trace.
fn reference_trace() -> Trace {
    let mut machine = Machine::new(machine_config());
    machine.run(&mut HpcgWorkload::new(hpcg_config())).trace
}

#[test]
fn streaming_store_is_byte_identical_at_any_thread_count() {
    let reference = reference_trace();
    let ref_path = tmp("reference.mps");
    write_store_with(&ref_path, &reference, DEFAULT_CHUNK_BYTES, 1).unwrap();
    let ref_bytes = std::fs::read(&ref_path).unwrap();

    for threads in [1usize, 2, 4] {
        let path = tmp(&format!("stream_t{threads}.mps"));
        let opts = StreamOptions { writer_threads: threads, ..StreamOptions::default() };
        let report = run_streaming_to_path(
            machine_config(),
            &mut HpcgWorkload::new(hpcg_config()),
            &path,
            &opts,
        )
        .unwrap();
        assert_eq!(report.events_streamed, reference.events.len() as u64);
        assert!(report.trace.events.is_empty(), "streamed events must not be retained");
        assert_eq!(report.trace.region_names, reference.region_names);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            bytes, ref_bytes,
            "streamed store differs from materialize+convert at {threads} writer threads"
        );
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&ref_path).ok();
}

#[test]
fn streaming_sharded_store_matches_materialized_sharding() {
    let reference = reference_trace();
    let ref_dir = tmp("reference.mps.d");
    std::fs::remove_dir_all(&ref_dir).ok();
    write_store_sharded(&ref_dir, &reference, DEFAULT_CHUNK_BYTES, 1, 2_000).unwrap();

    let dir = tmp("stream.mps.d");
    std::fs::remove_dir_all(&dir).ok();
    let opts = StreamOptions {
        writer_threads: 2,
        max_inflight: Some(2),
        shard_events: Some(2_000),
        ..StreamOptions::default()
    };
    run_streaming_to_path(machine_config(), &mut HpcgWorkload::new(hpcg_config()), &dir, &opts)
        .unwrap();

    let mut names: Vec<String> = std::fs::read_dir(&ref_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(names.len() > 2, "expected several shards, got {names:?}");
    for name in names {
        let a = std::fs::read(ref_dir.join(&name)).unwrap();
        let b = std::fs::read(dir.join(&name)).unwrap();
        assert_eq!(a, b, "shard {name} differs between streamed and materialized writes");
    }
    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streaming_prv_matches_save_trace() {
    let reference = reference_trace();
    let ref_path = tmp("reference.prv");
    save_trace(&ref_path, &reference).unwrap();

    let path = tmp("stream.prv");
    run_streaming_to_path(
        machine_config(),
        &mut HpcgWorkload::new(hpcg_config()),
        &path,
        &StreamOptions::default(),
    )
    .unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&ref_path).unwrap(),
        "streamed .prv differs from save_trace"
    );
    std::fs::remove_file(&ref_path).ok();
    std::fs::remove_file(&path).ok();
}

/// A deterministic two-core kernel with interleaved loads, stores,
/// compute and barriers — enough event variety that a wrong drain
/// order would scramble the output.
struct TwoCore {
    n: u64,
}

impl Workload for TwoCore {
    fn name(&self) -> String {
        "twocore".into()
    }

    fn run(&mut self, ctx: &mut dyn AppContext) {
        let ip = ctx.location("tc.rs", 1, "tc");
        let a = ctx.malloc(0, 1 << 18, &CodeLocation::new("tc.rs", 2, "a"));
        let b = ctx.malloc(1, 1 << 18, &CodeLocation::new("tc.rs", 3, "b"));
        ctx.enter(0, "phase");
        ctx.enter(1, "phase");
        for i in 0..self.n {
            ctx.load(0, ip, a + (i * 24) % (1 << 18), 8);
            ctx.store(1, ip, b + (i * 40) % (1 << 18), 8);
            ctx.compute(0, ip, 3, 1);
            ctx.compute(1, ip, 2, 1);
            if i % 700 == 699 {
                ctx.barrier();
            }
        }
        ctx.exit(1, "phase");
        ctx.exit(0, "phase");
    }
}

/// Four ranks that run one after another, as HPCG's do: core *k*
/// issues nothing until core *k−1* is done, so the slowest clock — the
/// drain watermark — stays near 0 until the last rank starts and most
/// of the trace waits in the tracer. Every rank allocates scratch
/// memory mid-run from its own (lagging) clock.
struct RankSequential {
    n: u64,
}

impl Workload for RankSequential {
    fn name(&self) -> String {
        "ranksequential".into()
    }

    fn run(&mut self, ctx: &mut dyn AppContext) {
        let ip = ctx.location("rs.rs", 1, "rank");
        let slab = 1u64 << 18;
        let cores = ctx.core_count();
        let base = ctx.malloc(0, slab * cores as u64, &CodeLocation::new("rs.rs", 2, "slabs"));
        for core in 0..cores {
            let mine = base + core as u64 * slab;
            ctx.enter(core, "rank");
            let mut scratch = 0;
            for i in 0..self.n {
                if i == self.n / 2 {
                    scratch = ctx.malloc(core, 8192, &CodeLocation::new("rs.rs", 3, "scratch"));
                }
                if i % 3 == 0 {
                    ctx.store(core, ip, mine + (i * 72) % slab, 8);
                } else {
                    ctx.load(core, ip, mine + (i * 40) % slab, 8);
                }
                ctx.compute(core, ip, 2, 1);
            }
            ctx.free(core, scratch);
            ctx.exit(core, "rank");
        }
    }
}

fn rank_sequential_config(epoch_cap: usize, threads: usize) -> MachineConfig {
    let mut cfg = MachineConfig::small();
    cfg.cores = 4;
    cfg.threads = threads;
    cfg.epoch_cap = epoch_cap;
    // Dense sampling on every core, and a timer fast enough that its
    // samples are noticed after (so recorded behind) a PEBS sample.
    cfg.pebs_events[0].period = 7;
    cfg.pebs_events[1].period = 5;
    cfg.counter_sample_period = 40;
    cfg.mux_slice_cycles = 1_000;
    cfg
}

#[test]
fn rank_sequential_lag_streams_identically_and_linearly() {
    let reference = {
        let mut machine = Machine::new(rank_sequential_config(mempersp::core::DEFAULT_EPOCH_CAP, 1));
        machine.run(&mut RankSequential { n: 5000 })
    };
    let events = reference.trace.events.len() as u64;
    assert_eq!(reference.max_buffered_events, events, "a materialized run holds everything");
    let ref_path = tmp("ranks_ref.mps");
    write_store_with(&ref_path, &reference.trace, DEFAULT_CHUNK_BYTES, 1).unwrap();
    let ref_bytes = std::fs::read(&ref_path).unwrap();
    std::fs::remove_file(&ref_path).ok();

    for cap in [1usize, 7, 32_768] {
        for threads in [1usize, 2] {
            let path = tmp(&format!("ranks_c{cap}_t{threads}.mps"));
            let opts = StreamOptions { writer_threads: threads, ..StreamOptions::default() };
            let report = run_streaming_to_path(
                rank_sequential_config(cap, threads),
                &mut RankSequential { n: 5000 },
                &path,
                &opts,
            )
            .unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(bytes, ref_bytes, "cap {cap}, {threads} threads: streamed store differs");
            assert_eq!(report.events_streamed, events);
            assert_eq!(report.wall_cycles, reference.wall_cycles);
            assert_eq!(report.mux_stats, reference.mux_stats);

            // The lag is real, and reported: the first three ranks'
            // events wait for the fourth.
            assert!(
                report.max_buffered_events > events / 2 && report.max_buffered_events <= events,
                "cap {cap}: {} of {events} events buffered at the peak",
                report.max_buffered_events
            );
            // The count guard that recording stayed linear through it:
            // a back-dated event steps over the one or two events of
            // its own access, not over the residue.
            let lanes = report.lane_stats;
            assert_eq!(lanes, reference.lane_stats, "placement is independent of draining");
            assert!(lanes.backdated_pushes > 500, "timer samples must be back-dated: {lanes:?}");
            assert!(lanes.displaced_events <= 2 * lanes.backdated_pushes, "{lanes:?}");
        }
    }
}

fn two_core_config(epoch_cap: usize) -> MachineConfig {
    let mut cfg = MachineConfig::small();
    cfg.cores = 2;
    cfg.epoch_cap = epoch_cap;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Epoch boundaries decide *when* events are drained to the sink,
    /// never *what* is written: for any cap — including 1, which
    /// flushes after every single operation — the streamed store holds
    /// the same bytes.
    #[test]
    fn epoch_cap_never_changes_streamed_bytes(cap in 1usize..2048) {
        let reference = {
            let mut machine = Machine::new(two_core_config(mempersp::core::DEFAULT_EPOCH_CAP));
            machine.run(&mut TwoCore { n: 3000 }).trace
        };
        let ref_path = tmp("prop_ref.mps");
        write_store_with(&ref_path, &reference, DEFAULT_CHUNK_BYTES, 1).unwrap();
        let ref_bytes = std::fs::read(&ref_path).unwrap();

        let path = tmp(&format!("prop_cap{cap}.mps"));
        let report = run_streaming_to_path(
            two_core_config(cap),
            &mut TwoCore { n: 3000 },
            &path,
            &StreamOptions::default(),
        ).unwrap();
        prop_assert_eq!(report.events_streamed, reference.events.len() as u64);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&ref_path).ok();
        prop_assert_eq!(bytes, ref_bytes, "cap {} changed the streamed bytes", cap);
        // The header side of the streaming report matches the
        // materialized run too (same text sections, no events).
        prop_assert_eq!(
            write_trace(&Trace { events: Vec::new(), ..reference.clone() }),
            write_trace(&Trace { events: Vec::new(), ..report.trace.clone() })
        );
    }
}

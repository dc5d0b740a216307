//! Simulator-substrate throughput: accesses per second on a
//! 4-simulated-core HPCG-like SpMV stream, comparing the sequential
//! issue path against the batched/pipelined one.
//!
//! Scenarios (all over the identical operation streams):
//!
//! * `per_access` — one `MemorySystem::access` call per operation, the
//!   sequential baseline;
//! * `batched` — the same stream through `access_batch`, still
//!   sequential;
//! * `epoch_threads1` / `epoch_threads4` — the two-phase epoch
//!   pipeline (conflict check, private phase per core, deterministic
//!   global replay), with the private phase on 1 vs 4 worker threads;
//! * `machine_threads1` / `machine_threads4` — the full `Machine`
//!   (PMU + PEBS + tracer) on a conflict-free 4-core workload.
//!
//! Writes a machine-readable summary to `BENCH_memsim.json` so the
//! performance trajectory is tracked across PRs.

use mempersp_core::{Machine, MachineConfig, PebsCoreSelect};
use mempersp_extrae::{AppContext, CodeLocation, MemRequest, Workload};
use mempersp_memsim::{AccessKind, BatchOp, HierarchyConfig, MemorySystem, PrivateResult, UncoreReq};
use std::hint::black_box;
use std::time::Instant;

const CORES: usize = 4;
/// Rows of the synthetic SpMV sweep per core (27 points per row →
/// 82 accesses per row).
const ROWS: usize = 20_000;
const NNZ: usize = 27;

/// Per-core HPCG-like op stream: for each matrix row, stream the
/// column indices and values, gather `x` within the 27-point band
/// around the diagonal, store `y`. Cores work on disjoint address
/// slabs (domain decomposition), so epochs are conflict-free — the
/// common case the pipeline optimizes.
fn spmv_ops(core: usize) -> Vec<BatchOp> {
    let slab = 1u64 << 28;
    let base = core as u64 * slab;
    let cols = base;
    let vals = base + (1 << 26);
    let x = base + (2 << 26);
    let y = base + (3 << 26);
    let mut ops = Vec::with_capacity(ROWS * (NNZ * 3 + 1));
    for r in 0..ROWS as u64 {
        for k in 0..NNZ as u64 {
            let idx = r * NNZ as u64 + k;
            ops.push(BatchOp { kind: AccessKind::Load, addr: cols + idx * 4, size: 4 });
            ops.push(BatchOp { kind: AccessKind::Load, addr: vals + idx * 8, size: 8 });
            // Banded gather, like the 27-point stencil: neighbours
            // within ±2 grid planes of the diagonal.
            let j = (r + 83 * (k % 5)).min(ROWS as u64 - 1);
            ops.push(BatchOp { kind: AccessKind::Load, addr: x + j * 8, size: 8 });
        }
        ops.push(BatchOp { kind: AccessKind::Store, addr: y + r * 8, size: 8 });
    }
    ops
}

struct Measure {
    name: &'static str,
    accesses: u64,
    seconds: f64,
}

impl Measure {
    fn rate(&self) -> f64 {
        self.accesses as f64 / self.seconds
    }
}

/// The sequential baseline: one `access` call per operation.
fn bench_per_access(streams: &[Vec<BatchOp>]) -> Measure {
    let mut mem = MemorySystem::new(HierarchyConfig::haswell_like(), CORES);
    let mut lat = 0u64;
    let t = Instant::now();
    let per_round = 4096usize;
    let len = streams[0].len();
    let mut pos = 0usize;
    let mut now = 0u64;
    while pos < len {
        let end = (pos + per_round).min(len);
        for (core, stream) in streams.iter().enumerate() {
            for op in &stream[pos..end] {
                lat += mem.access(core, op.kind, op.addr, op.size, now).latency as u64;
            }
        }
        now += per_round as u64;
        pos = end;
    }
    black_box(lat);
    Measure {
        name: "per_access",
        accesses: (len * CORES) as u64,
        seconds: t.elapsed().as_secs_f64(),
    }
}

/// Sequential batched path.
fn bench_batched(streams: &[Vec<BatchOp>]) -> Measure {
    let mut mem = MemorySystem::new(HierarchyConfig::haswell_like(), CORES);
    let mut out = Vec::new();
    let mut lat = 0u64;
    let t = Instant::now();
    let per_round = 4096usize;
    let len = streams[0].len();
    let mut pos = 0usize;
    let mut now = 0u64;
    while pos < len {
        let end = (pos + per_round).min(len);
        for (core, stream) in streams.iter().enumerate() {
            out.clear();
            mem.access_batch(core, &stream[pos..end], now, &mut out);
            lat += out.iter().map(|r| r.latency as u64).sum::<u64>();
        }
        now += per_round as u64;
        pos = end;
    }
    black_box(lat);
    Measure {
        name: "batched",
        accesses: (len * CORES) as u64,
        seconds: t.elapsed().as_secs_f64(),
    }
}

/// The two-phase epoch pipeline at memsim level: the conflict check,
/// private-phase simulation of all cores (optionally on worker
/// threads), then the deterministic global replay against L3/DRAM.
fn bench_epoch(streams: &[Vec<BatchOp>], threads: usize, name: &'static str) -> Measure {
    let mut mem = MemorySystem::new(HierarchyConfig::haswell_like(), CORES);
    let hier = mem.config().clone();
    let mut results: Vec<Vec<PrivateResult>> = vec![Vec::new(); CORES];
    let mut reqs: Vec<Vec<UncoreReq>> = vec![Vec::new(); CORES];
    let mut lat = 0u64;
    let t = Instant::now();
    let per_round = 32_768usize;
    let len = streams[0].len();
    let mut pos = 0usize;
    let mut now = 0u64;
    while pos < len {
        let end = (pos + per_round).min(len);
        // The machine buffers an epoch's operations per core.
        let epoch: Vec<Vec<BatchOp>> = streams.iter().map(|s| s[pos..end].to_vec()).collect();
        assert!(mem.epoch_conflict_free(&epoch), "the slabs are disjoint");

        // Phase 1: private paths, in parallel.
        {
            let paths = mem.core_paths_mut();
            let mut work: Vec<_> = paths
                .iter_mut()
                .zip(&epoch)
                .zip(results.iter_mut().zip(reqs.iter_mut()))
                .map(|((path, ops), (res, rq))| (path, ops, res, rq))
                .collect();
            if threads <= 1 {
                for (path, ops, res, rq) in &mut work {
                    path.simulate_private(&hier, ops, res, rq);
                }
            } else {
                let per_chunk = work.len().div_ceil(threads);
                std::thread::scope(|s| {
                    for chunk in work.chunks_mut(per_chunk) {
                        s.spawn(|| {
                            for (path, ops, res, rq) in chunk {
                                path.simulate_private(&hier, ops, res, rq);
                            }
                        });
                    }
                });
            }
        }
        mem.merge_prefetch_pages();

        // Phase 2: global replay in issue order.
        for core in 0..CORES {
            let mut cursor = 0usize;
            for (i, pr) in results[core].iter().enumerate() {
                let slice = &reqs[core][cursor..cursor + pr.req_len as usize];
                cursor += pr.req_len as usize;
                lat += mem.complete_access(core, pr, slice, now + i as u64).latency as u64;
            }
        }
        for v in &mut results {
            v.clear();
        }
        for v in &mut reqs {
            v.clear();
        }
        now += per_round as u64;
        pos = end;
    }
    black_box(lat);
    Measure { name, accesses: (len * CORES) as u64, seconds: t.elapsed().as_secs_f64() }
}

/// The full machine on a conflict-free multi-core stream.
struct FourCoreStream;

impl Workload for FourCoreStream {
    fn name(&self) -> String {
        "bench-4core".into()
    }

    fn run(&mut self, ctx: &mut dyn AppContext) {
        let ip = ctx.location("bench.rs", 1, "spmv");
        let slab = 1u64 << 22;
        let base = ctx.malloc(0, slab * CORES as u64, &CodeLocation::new("bench.rs", 2, "b"));
        let mut bufs: Vec<Vec<MemRequest>> = vec![Vec::with_capacity(4096); CORES];
        ctx.enter(0, "spmv");
        for round in 0..160u64 {
            for (c, buf) in bufs.iter_mut().enumerate() {
                buf.clear();
                let cbase = base + c as u64 * slab;
                for i in 0..4096u64 {
                    let a = cbase + ((round * 4096 + i) * 24) % slab;
                    if i % 9 == 0 {
                        buf.push(MemRequest::store(ip, a, 8));
                    } else {
                        buf.push(MemRequest::load(ip, a, 8));
                    }
                }
            }
            for (c, buf) in bufs.iter().enumerate() {
                ctx.access_batch(c, buf);
            }
            // Synchronize occasionally, as an OpenMP loop would; the
            // epoch cap drives most flushes.
            if round % 16 == 15 {
                ctx.barrier();
            }
        }
        ctx.exit(0, "spmv");
    }
}

fn bench_machine(threads: usize, name: &'static str) -> Measure {
    let mut cfg = MachineConfig::haswell(CORES);
    cfg.threads = threads;
    cfg.pebs_cores = PebsCoreSelect::Only(0);
    let mut machine = Machine::new(cfg);
    let t = Instant::now();
    let report = machine.run(&mut FourCoreStream);
    let seconds = t.elapsed().as_secs_f64();
    Measure { name, accesses: report.stats.total_cores().accesses(), seconds }
}

/// Run a scenario `n` times and keep the fastest trial — the
/// least-noise estimate of its true cost (interference only ever
/// makes a trial slower, never faster).
fn best_of(n: usize, mut f: impl FnMut() -> Measure) -> Measure {
    let mut best = f();
    for _ in 1..n {
        let m = f();
        if m.seconds < best.seconds {
            best = m;
        }
    }
    best
}

fn main() {
    let streams: Vec<Vec<BatchOp>> = (0..CORES).map(spmv_ops).collect();
    const TRIALS: usize = 3;
    // Warm up the process (page faults, frequency ramp) so the first
    // measured scenario is not penalized; the warm-up run is discarded.
    black_box(bench_per_access(&streams));
    let measures = vec![
        best_of(TRIALS, || bench_per_access(&streams)),
        best_of(TRIALS, || bench_batched(&streams)),
        best_of(TRIALS, || bench_epoch(&streams, 1, "epoch_threads1")),
        best_of(TRIALS, || bench_epoch(&streams, 4, "epoch_threads4")),
        best_of(TRIALS, || bench_machine(1, "machine_threads1")),
        best_of(TRIALS, || bench_machine(4, "machine_threads4")),
    ];

    let mut scenarios = Vec::new();
    for m in &measures {
        println!(
            "{:<22} {:>10} accesses {:>8.3}s {:>8.2} M/s",
            m.name,
            m.accesses,
            m.seconds,
            m.rate() / 1e6
        );
        scenarios.push(serde_json::json!({
            "name": m.name,
            "accesses": m.accesses,
            "seconds": m.seconds,
            "accesses_per_sec": m.rate(),
        }));
    }
    let batched_speedup = measures[1].rate() / measures[0].rate();
    // Headline: the best epoch-pipeline configuration against the
    // pre-PR sequential baseline. Thread count is a tuning knob (the
    // private phase only profits from extra workers when the host has
    // spare cores), so the pipeline's figure of merit is its best
    // configuration on this host.
    let pipeline_speedup =
        measures[2].rate().max(measures[3].rate()) / measures[0].rate();
    let (machine_speedup, machine_skip) =
        mempersp_bench::cross_thread_speedup(4, measures[5].rate(), measures[4].rate());
    println!("batched vs per-access:            {batched_speedup:.2}x");
    println!("epoch pipeline vs per-access:     {pipeline_speedup:.2}x");
    match machine_speedup.as_f64() {
        Some(s) => println!("machine 4 threads vs 1 thread:    {s:.2}x"),
        None => println!(
            "machine 4 threads vs 1 thread:    skipped ({})",
            machine_skip.as_deref().unwrap_or("no reason recorded")
        ),
    }

    let summary = serde_json::json!({
        "bench": "memsim_throughput",
        "cores": CORES,
        "host_cpus": mempersp_bench::host_cpus(),
        "host": mempersp_bench::host_info(),
        "scenarios": scenarios,
        "speedup_batched_vs_per_access": batched_speedup,
        "speedup_pipeline_vs_per_access": pipeline_speedup,
        "speedup_machine_threads4_vs_threads1": machine_speedup,
        "speedup_machine_threads4_vs_threads1_skipped_reason": machine_skip,
    });
    // Anchor at the workspace root (cargo runs benches with the
    // package dir as CWD), so the tracked summary has one location.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_memsim.json");
    std::fs::write(path, serde_json::to_string_pretty(&summary).expect("serialize"))
        .expect("write BENCH_memsim.json");
    println!("wrote {path}");
}

//! Determinism-equivalence suite for the epoch-pipelined machine:
//! running the same workload with 1, 2, or 4 worker threads must
//! produce byte-identical traces, identical memsim statistics,
//! identical PEBS sample sets, and identical folded panels.
//!
//! The `threads` knob only parallelizes the private phase of
//! conflict-free epochs (DESIGN.md §7); everything observable is
//! replayed in the original global issue order, so any divergence here
//! is a bug, not noise.
//!
//! `epoch_cap` is a weaker promise (DESIGN.md §7: a pipelined epoch's
//! L3 back-invalidations land after its private phase), and the suite
//! asserts exactly what holds: invariance for HPCG on the paper's
//! hierarchy, and `threads` invariance at each cap for cores that share
//! lines, the cap itself being part of the model there
//! (`memsim_golden.rs` pins the three results).

mod common;

use common::{observe, sharing_config, Sharing};
use mempersp::core::workflow::analyze_hpcg;
use mempersp::core::{Machine, MachineConfig};
use mempersp::extrae::trace_format::write_trace;
use mempersp::extrae::Workload;
use mempersp::folding::{fold_region, FoldingConfig};
use mempersp::hpcg::{HpcgConfig, HpcgWorkload};
use mempersp::workloads::{Stencil7, StreamTriad};

/// Run a workload on a `cores`-core small machine with the given
/// worker-thread count; return the serialized trace plus the stats.
fn run_workload(
    make: &dyn Fn() -> Box<dyn Workload>,
    cores: usize,
    threads: usize,
) -> (String, mempersp::memsim::SystemStats, u64) {
    let mut cfg = MachineConfig::small();
    cfg.cores = cores;
    cfg.threads = threads;
    observe(cfg, make().as_mut())
}

fn assert_workload_thread_invariant(make: &dyn Fn() -> Box<dyn Workload>, cores: usize) {
    let base = run_workload(make, cores, 1);
    for threads in [2, 4] {
        let par = run_workload(make, cores, threads);
        assert_eq!(base.1, par.1, "memsim stats differ at {threads} threads");
        assert_eq!(base.2, par.2, "wall cycles differ at {threads} threads");
        assert_eq!(
            base.0, par.0,
            "serialized trace differs at {threads} threads"
        );
    }
}

#[test]
fn stream_triad_is_thread_invariant() {
    assert_workload_thread_invariant(&|| Box::new(StreamTriad::new(50_000, 2)), 1);
}

#[test]
fn jacobi_stencil_is_thread_invariant() {
    assert_workload_thread_invariant(&|| Box::new(Stencil7::new(24, 2)), 1);
}

/// The acceptance-criteria run: HPCG `nx=24` on 4 simulated cores,
/// sequential versus 4 worker threads — byte-identical traces,
/// identical PEBS sample sets, and identical folded reports.
#[test]
fn hpcg_nx24_parallel_matches_sequential() {
    let analyze = |threads: usize| {
        let mut mcfg = MachineConfig::small();
        mcfg.cores = 4;
        mcfg.threads = threads;
        let hcfg = HpcgConfig {
            nx: 24,
            max_iters: 2,
            mg_levels: 4,
            group_allocations: true,
            use_mg: true,
        };
        analyze_hpcg(mcfg, hcfg)
    };
    let seq = analyze(1);
    let par = analyze(4);

    // Hardware statistics and the run clock.
    assert_eq!(seq.report.stats, par.report.stats, "memsim stats differ");
    assert_eq!(seq.report.wall_cycles, par.report.wall_cycles);

    // PEBS sample sets (order included).
    let seq_pebs: Vec<_> = seq.report.trace.pebs_events().collect();
    let par_pebs: Vec<_> = par.report.trace.pebs_events().collect();
    assert!(!seq_pebs.is_empty(), "run captured PEBS samples");
    assert_eq!(seq_pebs, par_pebs, "PEBS sample sets differ");

    // Byte-identical serialized traces.
    assert_eq!(
        write_trace(&seq.report.trace),
        write_trace(&par.report.trace),
        "serialized traces differ"
    );

    // Identical folded panels (the figures the toolchain produces).
    for (name, s, p) in [
        ("iteration", &seq.folded_iteration, &par.folded_iteration),
        ("symgs", &seq.folded_symgs, &par.folded_symgs),
    ] {
        assert_eq!(
            mempersp::core::report::ascii::address_panel(s, 96, 20),
            mempersp::core::report::ascii::address_panel(p, 96, 20),
            "{name} address panel differs"
        );
        assert_eq!(
            mempersp::core::report::ascii::performance_panel(s, 80),
            mempersp::core::report::ascii::performance_panel(p, 80),
            "{name} performance panel differs"
        );
    }

    // And the derived analysis agrees.
    assert_eq!(seq.phases.len(), par.phases.len());
    assert_eq!(seq.resolved_fraction, par.resolved_fraction);
}

/// Cores that share lines, pages and prefetch streams: at every epoch
/// cap the trace, the memsim counters and the clock are the same for
/// any worker-thread count.
#[test]
fn sharing_workload_is_thread_invariant_at_every_epoch_cap() {
    for cap in [1, 64, 32_768] {
        let base = observe(sharing_config(1, cap), &mut Sharing { rounds: 20_000 });
        assert!(base.1.coherence_invalidations > 0, "the workload must share lines");
        for threads in [2, 4] {
            let par = observe(sharing_config(threads, cap), &mut Sharing { rounds: 20_000 });
            assert!(base == par, "epoch_cap {cap}: results differ between 1 and {threads} threads");
        }
    }
}

/// On the paper's hierarchy HPCG's ranks never re-use a line the L3
/// has just dropped, so where epochs end changes nothing — memsim
/// counters included, not just the trace bytes `streaming_run.rs`
/// compares. (On `MachineConfig::small()`, 16 KiB of L3 under 4 × 4 KiB
/// of L2, the same run moves with the cap even on one core.)
#[test]
fn hpcg_is_epoch_cap_invariant_counters_included() {
    let run = |epoch_cap: usize| {
        let mut cfg = MachineConfig::haswell(4);
        cfg.threads = 2;
        cfg.epoch_cap = epoch_cap;
        let hcfg = HpcgConfig { nx: 8, max_iters: 2, mg_levels: 3, group_allocations: true, use_mg: true };
        observe(cfg, &mut HpcgWorkload::new(hcfg))
    };
    let base = run(mempersp::core::DEFAULT_EPOCH_CAP);
    for cap in [1, 64] {
        let capped = run(cap);
        assert_eq!(base.1, capped.1, "memsim stats differ at epoch_cap {cap}");
        assert_eq!(base.2, capped.2, "wall cycles differ at epoch_cap {cap}");
        assert!(base.0 == capped.0, "serialized trace differs at epoch_cap {cap}");
    }
}

/// Issuing through `access_batch` must be indistinguishable from the
/// equivalent singles on a full machine (trace included).
#[test]
fn batched_stream_equals_single_issue() {
    use mempersp::extrae::{AppContext, CodeLocation, MemRequest};

    struct W {
        batched: bool,
    }
    impl Workload for W {
        fn name(&self) -> String {
            "batch-eq".into()
        }
        fn run(&mut self, ctx: &mut dyn AppContext) {
            let ip = ctx.location("b.rs", 1, "b");
            let base = ctx.malloc(0, 1 << 20, &CodeLocation::new("b.rs", 2, "b"));
            ctx.enter(0, "r");
            let ops: Vec<MemRequest> = (0..60_000u64)
                .map(|i| {
                    let a = base + (i * 72) % (1 << 20);
                    if i % 7 == 0 {
                        MemRequest::store(ip, a, 8)
                    } else {
                        MemRequest::load(ip, a, 8)
                    }
                })
                .collect();
            if self.batched {
                for chunk in ops.chunks(512) {
                    ctx.access_batch(0, chunk);
                }
            } else {
                for op in &ops {
                    if op.store {
                        ctx.store(0, op.ip, op.addr, op.size);
                    } else {
                        ctx.load(0, op.ip, op.addr, op.size);
                    }
                }
            }
            ctx.exit(0, "r");
        }
    }

    let run = |batched: bool| observe(MachineConfig::small(), &mut W { batched });
    assert_eq!(run(false), run(true));
}

/// Folding the same trace twice is pure; folding traces from two
/// thread counts must agree even through the folding pipeline's
/// configuration knobs.
#[test]
fn folded_report_thread_invariant_for_stream() {
    let run = |threads: usize| {
        let mut cfg = MachineConfig::small();
        cfg.threads = threads;
        let mut machine = Machine::new(cfg);
        let mut w = StreamTriad::new(40_000, 3);
        machine.run(&mut w).trace
    };
    let a = run(1);
    let b = run(4);
    let fa = fold_region(&a, "triad", &FoldingConfig::default()).expect("triad folds");
    let fb = fold_region(&b, "triad", &FoldingConfig::default()).expect("triad folds");
    assert_eq!(fa.instances_used, fb.instances_used);
    assert_eq!(
        mempersp::core::report::ascii::address_panel(&fa, 96, 20),
        mempersp::core::report::ascii::address_panel(&fb, 96, 20)
    );
    assert_eq!(
        mempersp::core::report::ascii::performance_panel(&fa, 80),
        mempersp::core::report::ascii::performance_panel(&fb, 80)
    );
}

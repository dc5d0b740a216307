//! End-to-end reproduction checks: run HPCG on the simulated machine
//! and assert each qualitative claim of the paper's Section III.
//!
//! These mirror the "testable assertions" list in DESIGN.md §5.

use mempersp::core::workflow::{analyze_hpcg, HpcgAnalysis};
use mempersp::core::{MachineConfig, SweepDirection};
use mempersp::hpcg::HpcgConfig;

/// One shared small run for all assertions (the analysis is pure after
/// the run, so a single simulation keeps the test suite fast).
fn analysis() -> &'static HpcgAnalysis {
    use std::sync::OnceLock;
    static CELL: OnceLock<HpcgAnalysis> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut mcfg = MachineConfig::small();
        mcfg.cores = 2;
        let hcfg = HpcgConfig { nx: 8, max_iters: 4, mg_levels: 3, group_allocations: true, use_mg: true };
        analyze_hpcg(mcfg, hcfg)
    })
}

#[test]
fn solver_converges_under_simulation() {
    let a = analysis();
    assert_eq!(a.solver.len(), 2, "one result per rank");
    assert!(a.solver[0].reduction() < 1e-2, "reduction {}", a.solver[0].reduction());
    assert!(a.solver[0].max_error < 0.05);
}

#[test]
fn claim1_phase_order_is_a_b_c_d_e() {
    let a = analysis();
    let labels: Vec<&str> = a.phases.iter().map(|p| p.label.as_str()).collect();
    assert_eq!(labels, vec!["A", "B", "C", "D", "E"]);
    // Phases are ordered and non-overlapping along the iteration.
    for w in a.phases.windows(2) {
        assert!(
            w[1].x_start >= w[0].x_end - 1e-9,
            "{} [{:.3},{:.3}] overlaps {} [{:.3},{:.3}]",
            w[0].label,
            w[0].x_start,
            w[0].x_end,
            w[1].label,
            w[1].x_start,
            w[1].x_end
        );
    }
    // And they cover a meaningful part of the iteration.
    let covered: f64 = a.phases.iter().map(|p| p.fraction()).sum();
    assert!(covered > 0.5, "phases cover {covered}");
}

#[test]
fn claim2_symgs_sweeps_forward_then_backward() {
    let a = analysis();
    let (fwd, bwd) = a.sweeps.as_ref().expect("sweeps detected");
    assert_eq!(fwd.direction, SweepDirection::Forward, "a1 rises: {fwd:?}");
    assert_eq!(bwd.direction, SweepDirection::Backward, "a2 falls: {bwd:?}");
    assert!(fwd.slope > 0.0 && bwd.slope < 0.0);
    // The forward sweep occupies the first part of the folded SYMGS,
    // the backward sweep the second.
    assert!(fwd.x_min < bwd.x_min, "fwd starts before bwd");
    assert!(fwd.x_max < bwd.x_max);
    // Both sweeps traverse a large part of the matrix object.
    let matrix = a
        .report
        .trace
        .objects
        .get(a.matrix_object.unwrap())
        .unwrap();
    for (name, s) in [("fwd", fwd), ("bwd", bwd)] {
        let covered = (s.addr_max - s.addr_min) as f64 / matrix.size as f64;
        assert!(covered > 0.5, "{name} sweep covers only {covered:.2} of the matrix");
    }
}

#[test]
fn claim3_matrix_region_is_read_only_in_execution_phase() {
    let a = analysis();
    let stats = a.matrix_stats().expect("matrix object sampled");
    assert!(stats.loads > 0, "matrix is read");
    assert_eq!(
        stats.stores, 0,
        "no stores may hit the matrix during CG (figure: no black points in the lower region)"
    );
    // The vector region, by contrast, sees both loads and stores.
    let vectors: Vec<_> = a
        .objects
        .iter()
        .filter(|o| o.name.starts_with("CG_ref.cpp") || o.name.starts_with("GenerateProblem_ref.cpp:15"))
        .collect();
    assert!(
        vectors.iter().any(|o| o.stores > 0),
        "vector objects must see stores: {vectors:?}"
    );
}

#[test]
fn claim4_spmv_bandwidth_exceeds_symgs() {
    let a = analysis();
    let a1 = a.bandwidth("a1").expect("a1 bandwidth");
    let a2 = a.bandwidth("a2").expect("a2 bandwidth");
    let b = a.bandwidth("B").expect("B bandwidth");
    assert!(b > a1 && b > a2, "SpMV ({b:.0} MB/s) must beat SYMGS sweeps ({a1:.0}/{a2:.0})");
    let ratio = b / a1.max(a2);
    assert!(
        (1.1..=3.0).contains(&ratio),
        "paper's ratio is ≈1.5 (6427 vs ~4250); got {ratio:.2}"
    );
    // Forward and backward sweeps are of similar magnitude (paper:
    // 4197 vs 4315 MB/s — within ~10 %).
    let sweep_ratio = a1.max(a2) / a1.min(a2);
    assert!(sweep_ratio < 1.6, "fwd/bwd sweeps comparable, got ratio {sweep_ratio:.2}");
}

#[test]
fn claim5_grouping_rescues_object_resolution() {
    let a = analysis();
    assert!(
        a.resolved_fraction > 0.9,
        "with grouping nearly all samples resolve; got {:.2}",
        a.resolved_fraction
    );

    // Re-run without grouping: most samples must be unresolved
    // because the per-row allocations are below the threshold.
    let mut mcfg = MachineConfig::small();
    mcfg.cores = 1;
    let hcfg = HpcgConfig { nx: 8, max_iters: 2, mg_levels: 2, group_allocations: false, use_mg: true };
    let ungrouped = analyze_hpcg(mcfg, hcfg);
    assert!(
        ungrouped.resolved_fraction < 0.6,
        "without grouping most matrix samples are unresolved; got {:.2}",
        ungrouped.resolved_fraction
    );
    assert!(ungrouped.resolved_fraction < a.resolved_fraction);
}

#[test]
fn claim6_mips_and_miss_curves_are_populated() {
    let a = analysis();
    let f = &a.folded_iteration;
    let mips = f.mean_mips();
    assert!(mips > 0.0, "mean MIPS positive");
    let series = f.performance_series(50);
    assert!(series.iter().all(|p| p.mips.is_finite() && p.mips >= 0.0));
    // Misses per instruction are below 1 and not all zero.
    let l1: Vec<f64> = series
        .iter()
        .map(|p| p.per_instruction[mempersp::pebs::EventKind::L1dMiss.index()])
        .collect();
    assert!(l1.iter().any(|&v| v > 0.0), "L1 miss curve populated");
    assert!(l1.iter().all(|&v| v < 1.0));
}

#[test]
fn cpi_stack_is_coherent() {
    use mempersp::core::{cpi_stack_mean, cpi_stack_window};
    let a = analysis();
    let f = &a.folded_iteration;
    let s = cpi_stack_mean(f);
    // The components reconstruct the measured cycles/instruction.
    let cycles = f.counter(mempersp::pebs::EventKind::Cycles).avg_total;
    let inst = f.counter(mempersp::pebs::EventKind::Instructions).avg_total;
    assert!((s.total - cycles / inst).abs() < 1e-9);
    assert!((s.base + s.l2 + s.l3 + s.dram - s.total).abs() < 1e-9);
    // HPCG on the tiny hierarchy is memory-bound but not purely so.
    let mb = s.memory_bound_fraction();
    assert!((0.2..0.98).contains(&mb), "memory-bound fraction {mb}");
    // The SYMGS phase (A) must be at least as DRAM-bound as the whole
    // iteration's vector tail after E.
    let a_phase = &a.phases[0];
    let wa = cpi_stack_window(f, a_phase.x_start, a_phase.x_end);
    assert!(wa.total > 0.0);
    assert!(wa.dram > 0.0, "SYMGS pulls the matrix from memory");
}

#[test]
fn figure_objects_carry_paper_style_labels() {
    let a = analysis();
    let matrix = a.report.trace.objects.get(a.matrix_object.unwrap()).unwrap();
    let label = matrix.figure_label();
    assert!(
        label.starts_with("124_GenerateProblem_ref.cpp|"),
        "label {label}"
    );
    assert!(a.map_object.is_some(), "89 MB map group present");
}

#[test]
fn dominant_streams_match_the_papers_reading() {
    use mempersp::core::phase_streams;
    let a = analysis();
    let tables = phase_streams(&a.folded_iteration, &a.report.trace, &a.phases);
    assert_eq!(tables.len(), 5);
    // Phases A, B, D, E are dominated by the matrix structure.
    for label in ["A", "B", "D", "E"] {
        let t = tables.iter().find(|t| t.phase.label == label).unwrap();
        let dom = t.dominant().unwrap_or_else(|| panic!("phase {label} has streams"));
        // Both simulated ranks' samples are pooled; either rank's
        // matrix group may dominate, but it must be a matrix group.
        assert!(
            dom.object_name.starts_with("124_GenerateProblem_ref.cpp"),
            "phase {label} dominated by {} instead of the matrix",
            dom.object_name
        );
        assert_eq!(dom.stores, 0, "the dominant matrix stream is read-only");
    }
    // A's dominant stream runs forward-then-backward; over the whole
    // phase the robust fit must NOT be a clean single direction, while
    // B (a single traversal) must be Forward.
    let b = tables.iter().find(|t| t.phase.label == "B").unwrap();
    assert_eq!(
        b.dominant().unwrap().direction,
        mempersp::core::SweepDirection::Forward,
        "SpMV traverses the matrix forward"
    );
}

#[test]
fn json_summary_is_complete_and_serializable() {
    let a = analysis();
    let j = a.json_summary();
    let text = serde_json::to_string_pretty(&j).expect("serializable");
    for key in [
        "iterations_folded",
        "mean_mips",
        "phases",
        "bandwidth_mb_per_s",
        "sweeps",
        "resolved_fraction",
        "matrix_read_only",
    ] {
        assert!(j.get(key).is_some(), "missing {key} in {text}");
    }
    assert_eq!(j["phases"].as_array().unwrap().len(), 5);
    assert_eq!(j["matrix_read_only"], serde_json::json!(true));
    assert_eq!(j["sweeps"]["forward"], "Forward");
    assert_eq!(j["sweeps"]["backward"], "Backward");
}

#[test]
fn multiplexed_run_sees_loads_and_stores_in_one_address_space() {
    let a = analysis();
    let pebs: Vec<_> = a.report.trace.pebs_events().collect();
    let loads = pebs.iter().filter(|(_, s, _)| !s.is_store).count();
    let stores = pebs.iter().filter(|(_, s, _)| s.is_store).count();
    assert!(loads > 50, "loads sampled: {loads}");
    assert!(stores > 10, "stores sampled: {stores}");
    // All samples are from core 0..2 and share the single ASLR slide
    // recorded in the trace meta.
    assert!(pebs.iter().all(|(_, s, _)| s.core < 2));
}

/// The work-flow does not depend on the container: the fixture's run,
/// streamed into a `.mps` and a sharded `.mps.d` while it simulates and
/// analysed from the opened store, reports what the in-memory analysis
/// reports — summary, JSON record and every file of the figure bundle,
/// byte for byte, at either thread count.
#[test]
fn streamed_store_analysis_equals_the_in_memory_one() {
    use mempersp::core::report::figure::write_figure_bundle;
    use mempersp::core::{analyze_hpcg_source, run_streaming_to_path, StreamOptions};
    use mempersp::hpcg::HpcgWorkload;
    use mempersp::store::MpsSource;

    let in_memory = analysis();
    let dir = std::env::temp_dir().join(format!("mempersp_workflow_{}", std::process::id()));
    let bundle = |a: &HpcgAnalysis, to: &std::path::Path| {
        let files =
            write_figure_bundle(to, "fig", "t", &a.folded_iteration, &a.report.trace, &a.phases).unwrap();
        files.into_iter().map(|f| (f.file_name().unwrap().to_owned(), std::fs::read(f).unwrap())).collect::<Vec<_>>()
    };
    let want = bundle(in_memory, &dir.join("in_memory"));
    assert_eq!(want.len(), 6);

    for (store, threads) in [("s.mps", 1), ("s.mps", 2), ("s.mps.d", 1), ("s.mps.d", 2)] {
        let mut mcfg = MachineConfig::small();
        mcfg.cores = 2;
        mcfg.threads = threads;
        let mut workload = HpcgWorkload::new(HpcgConfig {
            nx: 8,
            max_iters: 4,
            mg_levels: 3,
            group_allocations: true,
            use_mg: true,
        });
        let path = dir.join(store);
        let opts = StreamOptions { shard_events: store.ends_with(".d").then_some(2500), ..Default::default() };
        let report = run_streaming_to_path(mcfg, &mut workload, &path, &opts).unwrap();
        assert!(report.trace.events.is_empty() && report.events_streamed > 0);

        let mut source = MpsSource::open(&path).unwrap();
        assert_eq!(source.num_shards() > 1, store.ends_with(".d"));
        let streamed = analyze_hpcg_source(&mut source, report, &workload, threads).unwrap();
        assert_eq!(streamed.summary(), in_memory.summary(), "{store} threads {threads}");
        assert_eq!(streamed.json_summary(), in_memory.json_summary(), "{store} threads {threads}");
        assert_eq!(bundle(&streamed, &dir.join("streamed")), want, "{store} threads {threads}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

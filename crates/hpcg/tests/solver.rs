//! End-to-end tests of the HPCG reimplementation on the
//! simulation-free `NullContext`: numerics, instrumentation balance
//! and the allocation-pattern properties the paper relies on.

use mempersp_extrae::events::EventPayload;
use mempersp_extrae::{NullContext, ObjectKind, Workload};
use mempersp_hpcg::generate::{
    expected_map_group_bytes, expected_matrix_group_bytes, GROUP_MAP, GROUP_MATRIX,
};
use mempersp_hpcg::{regions, Geometry, HpcgConfig, HpcgWorkload};

fn run(config: HpcgConfig, cores: usize) -> (HpcgWorkload, mempersp_extrae::Trace) {
    let mut ctx = NullContext::new(cores);
    let mut w = HpcgWorkload::new(config);
    w.run(&mut ctx);
    let name = w.name();
    (w, ctx.finish(&name))
}

#[test]
fn cg_converges_on_tiny_problem() {
    let (w, _) = run(HpcgConfig::tiny(), 1);
    let r = &w.results[0];
    assert_eq!(r.iterations, 3);
    assert_eq!(r.residuals.len(), 4);
    assert!(
        r.reduction() < 1e-2,
        "MG-preconditioned CG should reduce the residual fast; got {}",
        r.reduction()
    );
    assert!(r.max_error < 0.1, "x should approach the ones vector; err {}", r.max_error);
    // Residual decreases monotonically on this SPD system.
    for w in r.residuals.windows(2) {
        assert!(w[1] < w[0], "residuals must decrease: {:?}", r.residuals);
    }
}

#[test]
fn more_iterations_converge_further() {
    let (w3, _) = run(HpcgConfig { max_iters: 2, ..HpcgConfig::tiny() }, 1);
    let (w6, _) = run(HpcgConfig { max_iters: 6, ..HpcgConfig::tiny() }, 1);
    assert!(w6.results[0].reduction() < w3.results[0].reduction());
    assert!(w6.results[0].max_error < 1e-3);
}

#[test]
fn mg_beats_plain_symgs_preconditioner() {
    let base = HpcgConfig { nx: 8, max_iters: 4, mg_levels: 3, group_allocations: true, use_mg: true };
    let (with_mg, _) = run(base.clone(), 1);
    let (without, _) = run(HpcgConfig { use_mg: false, ..base }, 1);
    assert!(
        with_mg.results[0].reduction() < without.results[0].reduction(),
        "MG ({}) should beat single-smoother ({})",
        with_mg.results[0].reduction(),
        without.results[0].reduction()
    );
}

#[test]
fn all_ranks_solve_identically() {
    let (w, _) = run(HpcgConfig::tiny(), 3);
    assert_eq!(w.results.len(), 3);
    for r in &w.results[1..] {
        assert_eq!(r.residuals, w.results[0].residuals, "identical local problems");
    }
}

#[test]
fn trace_contains_the_papers_regions() {
    let (_, trace) = run(HpcgConfig::tiny(), 1);
    for name in [
        regions::EXECUTION,
        regions::CG_ITERATION,
        regions::SYMGS,
        regions::SPMV,
        regions::MG,
        regions::DOT,
        regions::WAXPBY,
        regions::RESTRICTION,
        regions::PROLONGATION,
        regions::GENERATE,
    ] {
        assert!(trace.region_id(name).is_some(), "region {name} missing");
    }
}

#[test]
fn region_instance_counts_match_the_algorithm() {
    let cfg = HpcgConfig::tiny(); // 3 iterations, 3 MG levels
    let iters = cfg.max_iters;
    let levels = cfg.mg_levels;
    let (_, trace) = run(cfg, 1);
    // Calls of a region on core 0: its enter events there.
    let instances = |name: &str| {
        let id = trace.region_id(name).unwrap();
        trace
            .events
            .iter()
            .filter(|e| {
                e.core == 0 && matches!(e.payload, EventPayload::RegionEnter { region, .. } if region == id)
            })
            .count()
    };

    assert_eq!(instances(regions::CG_ITERATION), iters);
    assert_eq!(instances(regions::EXECUTION), 1);
    // MG: the V-cycle recurses once per level, every iteration (the
    // instance collector counts each iteration's recursion once).
    assert_eq!(instances(regions::MG), iters * levels);
    // SYMGS per iteration: 2 per non-coarsest level + 1 at coarsest.
    assert_eq!(instances(regions::SYMGS), iters * (2 * (levels - 1) + 1));
    // SPMV: setup 1 + per iteration (1 per non-coarsest level + 1 CG-level).
    assert_eq!(instances(regions::SPMV), 1 + iters * levels);
    // Restriction/prolongation: per iteration, one per non-coarsest level.
    assert_eq!(instances(regions::RESTRICTION), iters * (levels - 1));
    assert_eq!(instances(regions::PROLONGATION), iters * (levels - 1));
}

#[test]
fn grouped_allocations_produce_the_figure_objects() {
    let (_, trace) = run(HpcgConfig::tiny(), 1);
    let geom = Geometry::cube(8);
    let matrix = trace
        .objects
        .all()
        .iter()
        .find(|o| o.name == GROUP_MATRIX)
        .expect("matrix group registered");
    assert_eq!(matrix.kind, ObjectKind::Group);
    assert_eq!(matrix.allocated_bytes, expected_matrix_group_bytes(geom));
    let map = trace
        .objects
        .all()
        .iter()
        .find(|o| o.name == GROUP_MAP)
        .expect("map group registered");
    assert_eq!(map.allocated_bytes, expected_map_group_bytes(geom));
    // The map group sits above the matrix group (allocated later from
    // the same arena) and they do not overlap.
    assert!(map.base >= matrix.base + matrix.size);
}

#[test]
fn ungrouped_run_registers_no_groups() {
    let (_, trace) = run(HpcgConfig { group_allocations: false, ..HpcgConfig::tiny() }, 1);
    assert!(
        !trace.objects.all().iter().any(|o| o.kind == ObjectKind::Group),
        "no groups expected"
    );
    // The per-row allocations are below the tracer threshold, so no
    // dynamic object covers the matrix rows either.
    assert!(trace
        .objects
        .all()
        .iter()
        .all(|o| !o.name.contains("GenerateProblem_ref.cpp:108")));
}

#[test]
fn vectors_are_tracked_dynamic_objects() {
    let (_, trace) = run(HpcgConfig::tiny(), 1);
    // 8³ rows → vectors are 4 KiB ≥ threshold; callsite-named objects
    // must exist for the CG vectors.
    let names: Vec<&str> = trace.objects.all().iter().map(|o| o.name.as_str()).collect();
    assert!(names.iter().any(|n| n.starts_with("CG_ref.cpp:")), "CG vectors tracked: {names:?}");
}

#[test]
fn per_rank_groups_have_distinct_names() {
    let (_, trace) = run(HpcgConfig::tiny(), 2);
    let groups: Vec<&str> = trace
        .objects
        .all()
        .iter()
        .filter(|o| o.kind == ObjectKind::Group)
        .map(|o| o.name.as_str())
        .collect();
    assert!(groups.contains(&GROUP_MATRIX));
    assert!(groups.iter().any(|g| g.contains("#rank1")), "{groups:?}");
}

#[test]
fn enter_exit_balance_across_cores() {
    // `Tracer::finish` panics on unbalanced regions, so reaching here
    // with multiple cores is itself the assertion; double-check event
    // parity too.
    let (_, trace) = run(HpcgConfig::tiny(), 2);
    let mut enters = 0i64;
    for e in &trace.events {
        match e.payload {
            EventPayload::RegionEnter { .. } => enters += 1,
            EventPayload::RegionExit { .. } => enters -= 1,
            _ => {}
        }
    }
    assert_eq!(enters, 0);
}

#[test]
fn host_spmv_agrees_with_instrumented_spmv() {
    // The instrumented kernels compute the same numbers the host-side
    // helpers do: validated indirectly by convergence, but check the
    // initial residual against a hand computation: r0 = b - A·0 = b,
    // so ‖r0‖ = ‖b‖ = ‖A·1‖.
    let (w, _) = run(HpcgConfig::tiny(), 1);
    let geom = Geometry::cube(8);
    // Compute ‖A·1‖ analytically: row sum = 26 - (nnz-1).
    let mut norm2 = 0.0;
    for i in 0..geom.nrows() {
        let nnz = geom.neighbors(i).count();
        let b_i = 26.0 - (nnz as f64 - 1.0);
        norm2 += b_i * b_i;
    }
    let expect = norm2.sqrt();
    let got = w.results[0].residuals[0];
    assert!((got - expect).abs() / expect < 1e-12, "r0 {got} vs analytic {expect}");
}

//! Experiment T-A: phase detection + traversal-bandwidth estimation
//! (the 4197 / 4315 / 6427 MB/s analysis).

use criterion::{criterion_group, criterion_main, Criterion};
use mempersp_bench::{run_analysis, Scale};
use mempersp_core::analysis::bandwidth::phase_bandwidths;
use mempersp_core::analysis::phases::iteration_phases;
use mempersp_hpcg::generate::expected_matrix_group_bytes;
use mempersp_hpcg::Geometry;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let analysis = run_analysis(Scale::Quick);
    let trace = &analysis.report.trace;

    // Verify the headline shape result before timing.
    let b = analysis.bandwidth("B").expect("B bandwidth");
    let a1 = analysis.bandwidth("a1").expect("a1 bandwidth");
    assert!(b > a1, "SpMV must out-stream SYMGS");
    eprintln!("bandwidths: a1 {a1:.0} MB/s, B {b:.0} MB/s (paper 4197 / 6427)");

    let bytes = expected_matrix_group_bytes(Geometry::cube(8));
    let mut g = c.benchmark_group("table_bandwidth");
    g.bench_function("phase_detection", |b| {
        b.iter(|| {
            black_box(iteration_phases(
                &mut black_box(trace),
                "CG_iteration",
                "ComputeSYMGS_ref",
                "ComputeSPMV_ref",
                0,
            ))
        })
    });
    g.bench_function("bandwidth_estimation", |bch| {
        bch.iter(|| {
            black_box(phase_bandwidths(
                &analysis.folded_iteration,
                &analysis.phases,
                bytes,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Experiment T-C: read-only-region detection (no store samples on
//! the matrix object during the execution phase).

use criterion::{criterion_group, criterion_main, Criterion};
use mempersp_bench::{run_analysis, Scale};
use mempersp_core::analysis::objects::object_stats;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let analysis = run_analysis(Scale::Quick);
    let stats = analysis.matrix_stats().expect("matrix sampled");
    assert!(stats.is_read_only(), "matrix must be read-only in the execution phase");
    eprintln!(
        "matrix object: {} loads, {} stores → read-only confirmed",
        stats.loads, stats.stores
    );

    let trace = &analysis.report.trace;
    let window = trace
        .region_id("ExecutionPhase")
        .map(|id| trace.region_instances(id, 0))
        .and_then(|v| v.first().copied());

    let mut g = c.benchmark_group("table_readonly");
    g.bench_function("object_stats_windowed", |b| {
        b.iter(|| black_box(object_stats(&mut black_box(trace), window)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

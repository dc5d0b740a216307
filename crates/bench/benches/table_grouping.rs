//! Experiment T-B: allocation grouping vs object resolution — times
//! the end-to-end monitored run with and without grouping (the
//! grouping itself must be near-free) and checks the resolution gap.

use criterion::{criterion_group, criterion_main, Criterion};
use mempersp_bench::{run_analysis, run_ungrouped, Scale};
use mempersp_core::analysis::objects::{object_stats, resolved_fraction};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let grouped = run_analysis(Scale::Quick);
    let ungrouped = run_ungrouped(Scale::Quick);
    assert!(grouped.resolved_fraction > ungrouped.resolved_fraction);
    eprintln!(
        "resolution: grouped {:.1} % vs reference {:.1} %",
        100.0 * grouped.resolved_fraction,
        100.0 * ungrouped.resolved_fraction
    );

    let mut g = c.benchmark_group("table_grouping");
    g.sample_size(10);
    g.bench_function("object_stats_grouped", |b| {
        b.iter(|| {
            let mut src = black_box(&grouped.report.trace);
            let (stats, _) = object_stats(&mut src, None).expect("in-memory scan");
            black_box(resolved_fraction(&stats))
        })
    });
    g.bench_function("object_stats_ungrouped", |b| {
        b.iter(|| {
            let mut src = black_box(&ungrouped.report.trace);
            let (stats, _) = object_stats(&mut src, None).expect("in-memory scan");
            black_box(resolved_fraction(&stats))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

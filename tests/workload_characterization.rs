//! The simulated machine must tell the archetypal workloads apart by
//! their PEBS signatures — the foundation for every insight the
//! paper's tooling provides.

use mempersp::core::analysis::reuse::{sampled_reuse_histogram, ReuseHistogram};
use mempersp::core::{latency_profile, LatencyProfile, Machine, MachineConfig};
use mempersp::extrae::Workload;
use mempersp::memsim::MemLevel;
use mempersp::workloads::{PointerChase, StreamTriad, TiledMatmul};

fn run(w: &mut dyn Workload) -> mempersp::core::RunReport {
    let mut machine = Machine::new(MachineConfig::small());
    machine.run(w)
}

fn load_latencies(report: &mempersp::core::RunReport) -> LatencyProfile {
    let src = &mut &report.trace;
    latency_profile(src, None, false).unwrap().0.expect("loads sampled")
}

fn core0_reuse(report: &mempersp::core::RunReport) -> ReuseHistogram {
    sampled_reuse_histogram(&mut &report.trace, 0).unwrap().0
}

fn dram_fraction(report: &mempersp::core::RunReport) -> f64 {
    let samples: Vec<_> = report.trace.pebs_events().collect();
    let dram = samples
        .iter()
        .filter(|(_, s, _)| s.source == MemLevel::Dram)
        .count();
    dram as f64 / samples.len().max(1) as f64
}

#[test]
fn pointer_chase_is_latency_bound() {
    let chase = run(&mut PointerChase::new(1 << 13, 1 << 14, 42));
    let triad = run(&mut StreamTriad::new(1 << 13, 8));
    assert!(
        dram_fraction(&chase) > 0.5,
        "random walk over a >L3 footprint misses everywhere: {}",
        dram_fraction(&chase)
    );
    let chase_lat = load_latencies(&chase);
    let triad_lat = load_latencies(&triad);
    assert!(
        chase_lat.mean > 2.0 * triad_lat.mean,
        "chase mean {} vs triad mean {}",
        chase_lat.mean,
        triad_lat.mean
    );
}

#[test]
fn tiled_matmul_hits_cache() {
    // 32×32 tiles of 8 B doubles: the working tile fits the small L2.
    let report = run(&mut TiledMatmul::new(32, 4));
    assert!(
        dram_fraction(&report) < 0.2,
        "blocked matmul mostly hits cache: {}",
        dram_fraction(&report)
    );
}

#[test]
fn stream_has_no_sampled_reuse_but_matmul_does() {
    let triad = run(&mut StreamTriad::new(1 << 14, 1));
    let h_stream = core0_reuse(&triad);
    // Streaming: a line is touched once (8 consecutive doubles rarely
    // produce two samples on one line at period ~100).
    let stream_reuse = h_stream.reuses as f64 / (h_stream.reuses + h_stream.cold).max(1) as f64;

    let matmul = run(&mut TiledMatmul::new(40, 8));
    let h_mm = core0_reuse(&matmul);
    let mm_reuse = h_mm.reuses as f64 / (h_mm.reuses + h_mm.cold).max(1) as f64;

    assert!(
        mm_reuse > stream_reuse,
        "matmul reuse {mm_reuse:.2} must exceed stream reuse {stream_reuse:.2}"
    );
    assert!(h_mm.reuses > 10, "matmul shows substantial sampled reuse");
}

#[test]
fn latencies_correlate_with_data_source() {
    let report = run(&mut PointerChase::new(1 << 13, 1 << 14, 7));
    let p = load_latencies(&report);
    // Per-source mean latencies are ordered L1 < L2 < L3 < DRAM where
    // present.
    let means: Vec<f64> = p.mean_by_source.iter().flatten().copied().collect();
    assert!(means.len() >= 2, "at least two sources sampled");
    for w in means.windows(2) {
        assert!(w[0] < w[1], "per-source means must increase: {means:?}");
    }
}

//! The coherence model + PEBS expose false sharing: the shared-line
//! variant ping-pongs between cores and its sampled access costs blow
//! up; padding to cache-line size fixes it.

use mempersp::core::{latency_profile, Machine, MachineConfig, PebsCoreSelect};
use mempersp::workloads::FalseSharing;

fn run(padded: bool) -> (mempersp::core::RunReport, u64) {
    let mut cfg = MachineConfig::small();
    cfg.cores = 2;
    cfg.pebs_cores = PebsCoreSelect::All;
    // Dense sampling so the short kernel yields samples.
    for e in &mut cfg.pebs_events {
        e.period = 13;
    }
    let mut m = Machine::new(cfg);
    let mut w = FalseSharing::new(20_000, padded);
    let report = m.run(&mut w);
    assert_eq!(w.total, 40_000);
    let inv = report.stats.coherence_invalidations;
    (report, inv)
}

#[test]
fn shared_line_pingpongs_padded_does_not() {
    let (_, inv_shared) = run(false);
    let (_, inv_padded) = run(true);
    assert!(
        inv_shared > 10_000,
        "unpadded counters invalidate constantly: {inv_shared}"
    );
    assert!(
        inv_padded < inv_shared / 100,
        "padding eliminates the ping-pong: {inv_padded} vs {inv_shared}"
    );
}

#[test]
fn sampled_latency_reveals_the_problem() {
    let (shared, _) = run(false);
    let (padded, _) = run(true);
    let [lat_shared, lat_padded] = [&shared, &padded].map(|report| {
        let src = &mut &report.trace;
        latency_profile(src, None, false).unwrap().0.expect("samples")
    });
    assert!(
        lat_shared.mean > 1.5 * lat_padded.mean,
        "shared-line loads cost more: {:.1} vs {:.1} cycles",
        lat_shared.mean,
        lat_padded.mean
    );
    // Wall-clock agrees with the diagnosis.
    assert!(shared.wall_cycles > padded.wall_cycles);
}

//! Diagnosing false sharing with the memory perspective: two cores
//! increment "their own" counters that share one cache line; the PEBS
//! access costs and the coherence counters expose the ping-pong, and
//! padding fixes it.
//!
//! ```sh
//! cargo run --release --example false_sharing
//! ```

use mempersp::core::{latency_profile, Machine, MachineConfig, PebsCoreSelect};
use mempersp::workloads::FalseSharing;

fn run(padded: bool) {
    let mut cfg = MachineConfig::small();
    cfg.cores = 2;
    cfg.pebs_cores = PebsCoreSelect::All;
    for e in &mut cfg.pebs_events {
        e.period = 13;
    }
    let mut m = Machine::new(cfg);
    let mut w = FalseSharing::new(50_000, padded);
    let report = m.run(&mut w);

    let (lat, _) = latency_profile(&mut &report.trace, None, false)
        .expect("in-memory scan");
    let lat = lat.expect("samples");
    println!(
        "{:<12} wall {:>10} cycles | invalidations {:>6} | load cost mean {:>6.1} p99 {:>4} cycles",
        if padded { "padded" } else { "shared-line" },
        report.wall_cycles,
        report.stats.coherence_invalidations,
        lat.mean,
        lat.p99,
    );
}

fn main() {
    println!("two cores incrementing adjacent counters, 50k iterations each:\n");
    run(false);
    run(true);
    println!("\nthe shared-line variant's sampled access costs and coherence");
    println!("invalidations give the diagnosis away; padding each counter to");
    println!("its own cache line removes both.");
}

//! Ablation: PEBS sampling period and multiplexing slice length.
//!
//! The paper's pitch is that *coarse* sampling suffices; this prints
//! how many PEBS samples a STREAM triad run yields at each sampling
//! period and mux slice — the precision side of the
//! precision-vs-overhead trade-off called out in DESIGN.md §6.
//!
//! ```sh
//! cargo run --release -p mempersp-bench --bin ablation_sampling
//! ```

use mempersp_core::{Machine, MachineConfig};
use mempersp_workloads::StreamTriad;

fn samples_at(period: u64, slice: u64) -> (usize, u64) {
    let mut cfg = MachineConfig::small();
    for e in &mut cfg.pebs_events {
        e.period = period;
    }
    cfg.mux_slice_cycles = slice;
    let rep = Machine::new(cfg).run(&mut StreamTriad::new(1 << 14, 8));
    (rep.trace.pebs_events().count(), rep.wall_cycles)
}

fn main() {
    for period in [31u64, 127, 509, 2053] {
        let (n, cycles) = samples_at(period, 5_000);
        println!("period {period:>5}: {n:>6} PEBS samples, {cycles} cycles");
    }
    for slice in [1_000u64, 10_000, 100_000] {
        let (n, _) = samples_at(127, slice);
        println!("mux slice {slice:>7}: {n:>6} PEBS samples");
    }
}

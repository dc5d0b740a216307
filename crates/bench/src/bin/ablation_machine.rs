//! Ablation: machine-model knobs — prefetcher on/off and replacement
//! policy — and their effect on the reproduced HPCG behaviour
//! (DRAM-served fraction, wall cycles). These are the design choices
//! DESIGN.md §6 calls out.
//!
//! ```sh
//! cargo run --release -p mempersp-bench --bin ablation_machine
//! ```

use mempersp_core::{Machine, MachineConfig, PebsCoreSelect};
use mempersp_hpcg::{HpcgConfig, HpcgWorkload};
use mempersp_memsim::ReplacementPolicy;

fn run(cfg: MachineConfig) -> (u64, f64) {
    let mut m = Machine::new(cfg);
    let mut w = HpcgWorkload::new(HpcgConfig {
        nx: 8,
        max_iters: 2,
        mg_levels: 2,
        group_allocations: true,
        use_mg: true,
    });
    let rep = m.run(&mut w);
    let t = rep.stats.total_cores();
    let dram_frac = t.served_dram as f64 / t.accesses().max(1) as f64;
    (rep.wall_cycles, dram_frac)
}

fn base_cfg() -> MachineConfig {
    let mut cfg = MachineConfig::small();
    cfg.pebs_cores = PebsCoreSelect::Only(0);
    cfg
}

fn main() {
    for pf in [true, false] {
        let mut cfg = base_cfg();
        cfg.hierarchy.prefetch.enabled = pf;
        let (cycles, dram) = run(cfg);
        println!("prefetch {pf:>5}: {cycles:>10} cycles, {:.1} % served by DRAM", dram * 100.0);
    }
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::TreePlru, ReplacementPolicy::Fifo, ReplacementPolicy::Random] {
        let mut cfg = base_cfg();
        cfg.hierarchy.l1d.replacement = policy;
        cfg.hierarchy.l2.replacement = policy;
        cfg.hierarchy.l3.replacement = policy;
        let (cycles, dram) = run(cfg);
        println!("{policy:?}: {cycles} cycles, {:.1} % DRAM", dram * 100.0);
    }
}

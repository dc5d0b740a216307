//! Shared by `memsim_golden.rs` and `parallel_determinism.rs`: the
//! multi-core *sharing* workload, the one place outside HPCG's halo
//! where the epoch machinery sees cross-core traffic.

use mempersp::core::{Machine, MachineConfig};
use mempersp::extrae::trace_format::write_trace;
use mempersp::extrae::{AppContext, CodeLocation, Workload};
use mempersp::memsim::SystemStats;

/// Every core walks its own 64 KiB slab (stride 24, so accesses
/// straddle lines and pages now and then, and the stream prefetcher
/// runs off the slab's end into the neighbour's first page). Blocks of
/// 256 rounds end in a barrier; every fourth block is a *sharing*
/// block, where a quarter of the accesses go to one 4 KiB window all
/// cores use and another quarter to the first lines of the next core's
/// slab. So at any `epoch_cap` some multi-core epochs are conflict-free
/// (pipelined), some touch shared *pages* but no shared line, and some
/// conflict (sequential).
pub struct Sharing {
    pub rounds: u64,
}

const SLAB: u64 = 64 * 1024;

impl Workload for Sharing {
    fn name(&self) -> String {
        "sharing".into()
    }

    fn run(&mut self, ctx: &mut dyn AppContext) {
        let cores = ctx.core_count() as u64;
        let ip = ctx.location("sharing.rs", 1, "sharing");
        let base = ctx.malloc(0, SLAB * cores + 4096, &CodeLocation::new("sharing.rs", 2, "slabs"));
        let window = base + SLAB * cores;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        ctx.enter(0, "sharing");
        for r in 0..self.rounds {
            let sharing_block = (r / 256) % 4 == 3;
            for c in 0..cores {
                // xorshift64*
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                let rnd = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 16;
                let addr = match rnd % 4 {
                    0 if sharing_block => window + (rnd >> 8) % 4096,
                    1 if sharing_block => base + ((c + 1) % cores) * SLAB + (rnd >> 8) % 512,
                    _ => base + c * SLAB + (r * 24) % SLAB,
                };
                if (rnd >> 4) & 3 == 0 {
                    ctx.store(c as usize, ip, addr, 8);
                } else {
                    ctx.load(c as usize, ip, addr, 8);
                }
                ctx.compute(c as usize, ip, 2, 1);
            }
            if r % 256 == 255 {
                ctx.barrier();
            }
        }
        ctx.exit(0, "sharing");
    }
}

/// `MachineConfig::small()` on four cores with the prefetcher on.
pub fn sharing_config(threads: usize, epoch_cap: usize) -> MachineConfig {
    let mut cfg = MachineConfig::small();
    cfg.cores = 4;
    cfg.hierarchy.prefetch.enabled = true;
    cfg.threads = threads;
    cfg.epoch_cap = epoch_cap;
    cfg
}

/// Everything a run exposes of the simulated hardware: the serialized
/// trace, the memsim counters and the final clock.
pub fn observe(cfg: MachineConfig, workload: &mut dyn Workload) -> (String, SystemStats, u64) {
    let report = Machine::new(cfg).run(workload);
    (write_trace(&report.trace), report.stats, report.wall_cycles)
}

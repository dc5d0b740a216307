//! A multi-core false-sharing kernel: every core increments its own
//! counter, but the counters either share one cache line (`padded =
//! false` — the classic mistake) or live on separate lines.
//!
//! With the coherence model of `mempersp-memsim`, the unpadded
//! variant ping-pongs the line between cores; PEBS samples show the
//! inflated store/load costs, which is precisely the kind of insight
//! the paper's memory perspective is for.

use mempersp_extrae::{AppContext, CodeLocation, Workload};

/// Per-core counter increments with or without cache-line padding.
#[derive(Debug, Clone)]
pub struct FalseSharing {
    iters: usize,
    padded: bool,
    /// Final sum of all counters (set by `run`).
    pub total: u64,
}

impl FalseSharing {
    pub fn new(iters: usize, padded: bool) -> Self {
        assert!(iters > 0);
        Self { iters, padded, total: 0 }
    }
}

impl Workload for FalseSharing {
    fn name(&self) -> String {
        format!(
            "false-sharing iters={} ({})",
            self.iters,
            if self.padded { "padded" } else { "shared line" }
        )
    }

    fn run(&mut self, ctx: &mut dyn AppContext) {
        let cores = ctx.core_count();
        let stride = if self.padded { 64 } else { 8 };
        let site = CodeLocation::new("sharing.c", 15, "worker");
        let ip_load = ctx.location("sharing.c", 22, "worker");
        let ip_store = ctx.location("sharing.c", 23, "worker");
        let base = ctx.malloc(0, (cores * 64) as u64, &site);

        let mut counters = vec![0u64; cores];
        for core in 0..cores {
            ctx.enter(core, "worker");
            ctx.set_overlap(core, 1.0); // an increment is a dependency chain
        }
        // Interleave increments across cores, as concurrent threads
        // hammering their counters would.
        for _ in 0..self.iters {
            for (core, counter) in counters.iter_mut().enumerate() {
                let addr = base + (core * stride) as u64;
                ctx.load(core, ip_load, addr, 8);
                *counter += 1;
                ctx.store(core, ip_store, addr, 8);
                ctx.compute(core, ip_load, 2, 1);
            }
        }
        for core in 0..cores {
            ctx.exit(core, "worker");
        }
        ctx.barrier();
        self.total = counters.iter().sum();
        ctx.free(0, base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_extrae::{EventPayload, NullContext};

    #[test]
    fn counts_are_exact() {
        let mut ctx = NullContext::new(3);
        let mut w = FalseSharing::new(100, false);
        w.run(&mut ctx);
        assert_eq!(w.total, 300);
        let trace = ctx.finish("fs");
        let id = trace.region_id("worker").unwrap();
        let enters = trace.events.iter().filter(|e| {
            e.core == 2 && matches!(e.payload, EventPayload::RegionEnter { region, .. } if region == id)
        });
        assert_eq!(enters.count(), 1);
    }

    #[test]
    fn padded_variant_counts_identically() {
        let mut ctx = NullContext::new(2);
        let mut w = FalseSharing::new(50, true);
        w.run(&mut ctx);
        assert_eq!(w.total, 100);
    }
}

//! Statistic counters for caches, cores and the whole system.
//!
//! All counters are plain `u64`s; snapshots are cheap copies so
//! consumers (the PMU model in `mempersp-pebs`) can compute deltas
//! between two points in simulated time.

use serde::{Deserialize, Serialize};

/// Counters of one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Lines installed (demand fills + prefetch fills).
    pub fills: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
    /// Dirty evictions written back to the next level.
    pub writebacks: u64,
    /// Prefetch fills issued into this cache.
    pub prefetch_fills: u64,
    /// Demand hits on lines that were brought in by the prefetcher and
    /// had not been demanded before (useful prefetches).
    pub prefetch_hits: u64,
}

impl CacheStats {
    /// Demand accesses observed (hits + misses).
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Component-wise difference `self - earlier`.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            fills: self.fills - earlier.fills,
            evictions: self.evictions - earlier.evictions,
            writebacks: self.writebacks - earlier.writebacks,
            prefetch_fills: self.prefetch_fills - earlier.prefetch_fills,
            prefetch_hits: self.prefetch_hits - earlier.prefetch_hits,
        }
    }
}

/// Counters of one core's private path (L1D, L2, TLB, DRAM view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreStats {
    pub l1d: CacheStats,
    pub l2: CacheStats,
    /// TLB hits/misses.
    pub tlb_hits: u64,
    pub tlb_misses: u64,
    /// Loads and stores issued by this core.
    pub loads: u64,
    pub stores: u64,
    /// Accesses of this core served by each source.
    pub served_l1: u64,
    pub served_l2: u64,
    pub served_l3: u64,
    pub served_dram: u64,
    /// Total latency cycles accumulated by this core's accesses.
    pub total_latency: u64,
    /// Bytes moved between this core's L2 and the shared L3/DRAM
    /// (demand fills + writebacks), i.e. the core's memory traffic.
    pub bytes_from_uncore: u64,
}

impl CoreStats {
    /// Component-wise difference `self - earlier`.
    pub fn delta(&self, earlier: &CoreStats) -> CoreStats {
        CoreStats {
            l1d: self.l1d.delta(&earlier.l1d),
            l2: self.l2.delta(&earlier.l2),
            tlb_hits: self.tlb_hits - earlier.tlb_hits,
            tlb_misses: self.tlb_misses - earlier.tlb_misses,
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
            served_l1: self.served_l1 - earlier.served_l1,
            served_l2: self.served_l2 - earlier.served_l2,
            served_l3: self.served_l3 - earlier.served_l3,
            served_dram: self.served_dram - earlier.served_dram,
            total_latency: self.total_latency - earlier.total_latency,
            bytes_from_uncore: self.bytes_from_uncore - earlier.bytes_from_uncore,
        }
    }

    /// Memory accesses issued (loads + stores).
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }
}

/// Snapshot of the entire memory system.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemStats {
    pub cores: Vec<CoreStats>,
    pub l3: CacheStats,
    /// Bytes transferred over the DRAM channels.
    pub dram_bytes: u64,
    /// DRAM line transfers.
    pub dram_transfers: u64,
    /// Remote private-cache copies invalidated by stores.
    pub coherence_invalidations: u64,
    /// Modified remote copies downgraded (written back to L3) to
    /// serve another core's load.
    pub coherence_downgrades: u64,
}

impl SystemStats {
    /// Component-wise difference `self - earlier`. Panics if the core
    /// counts differ.
    pub fn delta(&self, earlier: &SystemStats) -> SystemStats {
        assert_eq!(self.cores.len(), earlier.cores.len());
        SystemStats {
            cores: self
                .cores
                .iter()
                .zip(earlier.cores.iter())
                .map(|(a, b)| a.delta(b))
                .collect(),
            l3: self.l3.delta(&earlier.l3),
            dram_bytes: self.dram_bytes - earlier.dram_bytes,
            dram_transfers: self.dram_transfers - earlier.dram_transfers,
            coherence_invalidations: self.coherence_invalidations
                - earlier.coherence_invalidations,
            coherence_downgrades: self.coherence_downgrades - earlier.coherence_downgrades,
        }
    }

    /// Aggregate of all cores' counters.
    pub fn total_cores(&self) -> CoreStats {
        let mut acc = CoreStats::default();
        for c in &self.cores {
            acc.l1d.hits += c.l1d.hits;
            acc.l1d.misses += c.l1d.misses;
            acc.l1d.fills += c.l1d.fills;
            acc.l1d.evictions += c.l1d.evictions;
            acc.l1d.writebacks += c.l1d.writebacks;
            acc.l1d.prefetch_fills += c.l1d.prefetch_fills;
            acc.l1d.prefetch_hits += c.l1d.prefetch_hits;
            acc.l2.hits += c.l2.hits;
            acc.l2.misses += c.l2.misses;
            acc.l2.fills += c.l2.fills;
            acc.l2.evictions += c.l2.evictions;
            acc.l2.writebacks += c.l2.writebacks;
            acc.l2.prefetch_fills += c.l2.prefetch_fills;
            acc.l2.prefetch_hits += c.l2.prefetch_hits;
            acc.tlb_hits += c.tlb_hits;
            acc.tlb_misses += c.tlb_misses;
            acc.loads += c.loads;
            acc.stores += c.stores;
            acc.served_l1 += c.served_l1;
            acc.served_l2 += c.served_l2;
            acc.served_l3 += c.served_l3;
            acc.served_dram += c.served_dram;
            acc.total_latency += c.total_latency;
            acc.bytes_from_uncore += c.bytes_from_uncore;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts() {
        let a = CacheStats { hits: 10, misses: 4, ..Default::default() };
        let b = CacheStats { hits: 7, misses: 1, ..Default::default() };
        let d = a.delta(&b);
        assert_eq!(d.hits, 3);
        assert_eq!(d.misses, 3);
    }

    #[test]
    fn total_cores_aggregates() {
        let mut s = SystemStats::default();
        s.cores.push(CoreStats { loads: 5, stores: 2, ..Default::default() });
        s.cores.push(CoreStats { loads: 1, stores: 1, ..Default::default() });
        let t = s.total_cores();
        assert_eq!(t.loads, 6);
        assert_eq!(t.stores, 3);
        assert_eq!(t.accesses(), 9);
    }
}

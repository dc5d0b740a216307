//! Configuration types for the simulated memory hierarchy.
//!
//! Two presets matter in practice:
//!
//! * [`HierarchyConfig::haswell_like`] — sized after the Intel Xeon
//!   E5-2680 v3 (Haswell) nodes of the Jureca system used in the
//!   paper's evaluation: 32 KiB / 8-way L1D, 256 KiB / 8-way L2,
//!   2.5 MiB-per-core shared L3, latencies in cycles of a ~2.5 GHz
//!   clock;
//! * [`HierarchyConfig::small_test`] — a tiny hierarchy for unit tests
//!   where evictions are easy to provoke.
//!
//! What both presets share is not a setting: every level has
//! [`LINE_SIZE`]-byte lines and is write-back + write-allocate, the
//! TLB maps [`PAGE_SIZE`](crate::PAGE_SIZE)-byte pages, and the stream
//! prefetcher's training threshold, degree and stream count are
//! constants of [`crate::prefetch`]. A hierarchy only chooses whether
//! that prefetcher runs.

use crate::replacement::ReplacementPolicy;
use crate::LINE_SIZE;
use serde::{Deserialize, Serialize};

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a multiple of
    /// `associativity * LINE_SIZE`.
    pub size_bytes: u64,
    /// Number of ways per set.
    pub associativity: u32,
    /// Latency to serve a hit, in core cycles (includes tag check).
    pub hit_latency: u32,
    /// Replacement policy for the sets.
    pub replacement: ReplacementPolicy,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.associativity as u64 * LINE_SIZE)
    }

    /// Panics with a descriptive message if the geometry is invalid.
    pub fn validate(&self, name: &str) {
        assert!(self.associativity >= 1, "{name}: associativity must be >= 1");
        assert_eq!(
            self.size_bytes % (self.associativity as u64 * LINE_SIZE),
            0,
            "{name}: size must be a multiple of associativity * LINE_SIZE"
        );
        let sets = self.num_sets();
        assert!(sets.is_power_of_two(), "{name}: number of sets ({sets}) must be a power of two");
    }
}

/// DRAM timing/bandwidth model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Latency of an uncontended access, in core cycles (row activation
    /// + CAS + transfer start).
    pub base_latency: u32,
    /// Sustained bandwidth of the memory controller, expressed as bytes
    /// transferable per core cycle (shared by all cores).
    pub bytes_per_cycle: f64,
    /// Number of independent channels; line transfers are spread over
    /// channels by address hashing, and each channel has its own
    /// occupancy timeline.
    pub channels: u32,
}

/// Data-TLB parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Number of entries (fully associative) of
    /// [`PAGE_SIZE`](crate::PAGE_SIZE)-byte pages.
    pub entries: u32,
    /// Extra cycles charged for a TLB miss (page-table walk).
    pub walk_latency: u32,
}

/// Full hierarchy description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Private, per-core first-level data cache.
    pub l1d: CacheConfig,
    /// Private, per-core second-level cache.
    pub l2: CacheConfig,
    /// Shared last-level cache (capacity is total, not per core).
    pub l3: CacheConfig,
    pub dram: DramConfig,
    pub tlb: TlbConfig,
    /// Whether each core's L2 stream prefetcher runs.
    pub prefetch: bool,
    /// Extra cycles charged when an access must snoop another core's
    /// private cache (cache-to-cache intervention on a line held
    /// modified elsewhere, or an invalidating store that finds remote
    /// copies).
    pub snoop_latency: u32,
}

impl HierarchyConfig {
    /// Hierarchy sized after a Jureca Haswell node (per-core view; the
    /// L3 is the full shared 30 MiB slice for a 12-core socket scaled
    /// by `cores` at [`crate::MemorySystem::new`] time — we keep the
    /// total fixed here and document it as *total* capacity).
    pub fn haswell_like() -> Self {
        Self {
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                associativity: 8,
                hit_latency: 4,
                replacement: ReplacementPolicy::TreePlru,
            },
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                associativity: 8,
                hit_latency: 12,
                replacement: ReplacementPolicy::TreePlru,
            },
            l3: CacheConfig {
                size_bytes: 24 * 1024 * 1024,
                associativity: 24,
                hit_latency: 36,
                replacement: ReplacementPolicy::Lru,
            },
            dram: DramConfig {
                // ~85 ns at 2.5 GHz.
                base_latency: 212,
                // ~60 GB/s node bandwidth at 2.5 GHz ≈ 24 B/cycle.
                bytes_per_cycle: 24.0,
                channels: 4,
            },
            tlb: TlbConfig { entries: 64, walk_latency: 30 },
            prefetch: true,
            snoop_latency: 45,
        }
    }

    /// A deliberately tiny hierarchy for tests: 1 KiB 2-way L1,
    /// 4 KiB 4-way L2, 16 KiB 8-way L3, 8-entry TLB.
    pub fn small_test() -> Self {
        Self {
            l1d: CacheConfig {
                size_bytes: 1024,
                associativity: 2,
                hit_latency: 4,
                replacement: ReplacementPolicy::Lru,
            },
            l2: CacheConfig {
                size_bytes: 4096,
                associativity: 4,
                hit_latency: 12,
                replacement: ReplacementPolicy::Lru,
            },
            l3: CacheConfig {
                size_bytes: 16 * 1024,
                associativity: 8,
                hit_latency: 30,
                replacement: ReplacementPolicy::Lru,
            },
            dram: DramConfig { base_latency: 100, bytes_per_cycle: 16.0, channels: 2 },
            tlb: TlbConfig { entries: 8, walk_latency: 20 },
            prefetch: false,
            snoop_latency: 20,
        }
    }

    /// Validate all levels; panics on inconsistent geometry.
    pub fn validate(&self) {
        self.l1d.validate("L1D");
        self.l2.validate("L2");
        self.l3.validate("L3");
        assert!(self.dram.channels >= 1, "at least one DRAM channel");
        assert!(self.dram.bytes_per_cycle > 0.0, "DRAM bandwidth must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haswell_preset_is_valid() {
        HierarchyConfig::haswell_like().validate();
    }

    #[test]
    fn small_preset_is_valid() {
        HierarchyConfig::small_test().validate();
    }

    #[test]
    fn num_sets() {
        let c = HierarchyConfig::haswell_like();
        assert_eq!(c.l1d.num_sets(), 64);
        assert_eq!(c.l2.num_sets(), 512);
    }

    #[test]
    #[should_panic(expected = "multiple of associativity")]
    fn invalid_size_panics() {
        let c = CacheConfig {
            size_bytes: 1000,
            associativity: 2,
            hit_latency: 1,
            replacement: ReplacementPolicy::Lru,
        };
        c.validate("X");
    }
}

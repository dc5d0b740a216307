//! # mempersp-memsim — deterministic memory-hierarchy simulator
//!
//! This crate is the hardware substitute for the paper's evaluation
//! platform (a 24-core Intel Haswell node of the Jureca system). It
//! simulates, cycle-approximately and fully deterministically:
//!
//! * a configurable number of cores, each with **private L1D and L2**
//!   set-associative caches;
//! * a **shared, inclusive L3** cache;
//! * a **DRAM** model with a base latency plus a bandwidth-occupancy
//!   queue (so that many concurrent misses contend for channel time);
//! * per-core **data TLBs** with a page-walk penalty;
//! * an optional per-core **stream prefetcher** that trains on L2 line
//!   sequences and prefetches ahead on a detected constant stride;
//! * four replacement policies: true LRU, tree pseudo-LRU, FIFO, and a
//!   seeded pseudo-random policy.
//!
//! Every access returns an [`AccessResult`] carrying the serving
//! [`MemLevel`] ("data source" in PEBS parlance) and a latency in core
//! cycles — exactly the per-access information the PEBS hardware
//! reports and that the paper's toolchain consumes.
//!
//! An access runs either alone ([`MemorySystem::access`]) or as part
//! of an epoch: operations buffered per core with
//! [`MemorySystem::issue`], classified by
//! [`MemorySystem::begin_epoch`] (which simulates the cores' private
//! caches in parallel when no line is shared between them) and handed
//! back one by one, in the caller's issue order, by
//! [`MemorySystem::retire_next`].
//!
//! ## Example
//!
//! ```
//! use mempersp_memsim::{MemorySystem, HierarchyConfig, AccessKind};
//!
//! let mut mem = MemorySystem::new(HierarchyConfig::small_test(), 1);
//! // First touch of a line comes from DRAM...
//! let first = mem.access(0, AccessKind::Load, 0x1000, 8, 0);
//! assert_eq!(first.source, mempersp_memsim::MemLevel::Dram);
//! // ...the second from L1.
//! let second = mem.access(0, AccessKind::Load, 0x1008, 8, first.latency as u64);
//! assert_eq!(second.source, mempersp_memsim::MemLevel::L1);
//! ```

pub mod cache;
pub mod config;
pub mod dram;
pub mod hierarchy;
pub mod prefetch;
pub mod replacement;
pub mod stats;
pub mod tlb;

pub use cache::{Cache, LineMeta};
pub use config::{CacheConfig, DramConfig, HierarchyConfig, TlbConfig};
pub use hierarchy::{AccessKind, AccessResult, BatchOp, MemLevel, MemorySystem, MAX_CORES};
pub use prefetch::StreamPrefetcher;
pub use replacement::ReplacementPolicy;
pub use stats::{CacheStats, CoreStats, SystemStats};
pub use tlb::Tlb;

/// A simulated virtual address.
pub type Addr = u64;

/// The line size of every cache level, in bytes, as on the modelled
/// Haswell node.
pub const LINE_SIZE: u64 = 64;

/// The page size of the TLB and of the hierarchy's page masks, in
/// bytes: 4 KiB base pages.
pub const PAGE_SIZE: u64 = 4096;

/// Split an access of `size` bytes at `addr` into the cache lines it
/// touches. Returns the line-aligned addresses.
///
/// Accesses in the suite are at most a few dozen bytes, so at most a
/// handful of lines are produced.
pub fn lines_of_access(addr: Addr, size: u32) -> impl Iterator<Item = Addr> {
    let mask = !(LINE_SIZE - 1);
    let first = addr & mask;
    let last = (addr + size.max(1) as Addr - 1) & mask;
    (0..).map(move |i| first + i * LINE_SIZE).take_while(move |&a| a <= last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_line_access() {
        let lines: Vec<Addr> = lines_of_access(0x40, 8).collect();
        assert_eq!(lines, vec![0x40]);
    }

    #[test]
    fn straddling_access() {
        let lines: Vec<Addr> = lines_of_access(0x7c, 8).collect();
        assert_eq!(lines, vec![0x40, 0x80]);
    }

    #[test]
    fn zero_size_access_touches_one_line() {
        let lines: Vec<Addr> = lines_of_access(0x100, 0).collect();
        assert_eq!(lines, vec![0x100]);
    }

    #[test]
    fn large_access_touches_every_line() {
        let lines: Vec<Addr> = lines_of_access(0, 256).collect();
        assert_eq!(lines, vec![0, 64, 128, 192]);
    }

    #[test]
    fn unaligned_large_access() {
        let lines: Vec<Addr> = lines_of_access(60, 70).collect();
        assert_eq!(lines, vec![0, 64, 128]);
    }
}

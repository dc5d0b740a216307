//! The simulated dynamic allocator.
//!
//! Workloads compute on ordinary Rust values; what flows through the
//! hierarchy simulator are *simulated virtual addresses*. This bump
//! allocator hands out those addresses with glibc-like behaviour:
//!
//! * small requests come from a contiguous "heap arena" (sbrk-style),
//!   so consecutive small allocations are adjacent — the property that
//!   makes HPCG's per-row allocations form one dense region;
//! * requests at or above [`DEFAULT_MMAP_THRESHOLD`] are placed in a
//!   separate "mmap zone" higher in the address space, aligned to the
//!   simulator's [`PAGE_SIZE`], mirroring glibc's `M_MMAP_THRESHOLD`;
//! * the whole layout is shifted by a seeded **ASLR slide**, so two
//!   allocators with different seeds produce disjoint address spaces
//!   for the same allocation sequence — the reason the paper needs
//!   load/store multiplexing within a single run.

use mempersp_memsim::PAGE_SIZE;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default glibc mmap threshold (128 KiB).
pub const DEFAULT_MMAP_THRESHOLD: u64 = 128 * 1024;

/// Nominal (un-slid) base of the heap arena.
pub const HEAP_BASE: u64 = 0x2AD0_0000_0000;
/// Nominal (un-slid) base of the mmap zone.
pub const MMAP_BASE: u64 = 0x2B50_0000_0000;
/// Alignment of every returned address.
pub const ALIGNMENT: u64 = 16;

/// A live or freed allocation record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    pub base: u64,
    pub size: u64,
    /// Whether it came from the mmap zone.
    pub mmapped: bool,
}

/// Deterministic simulated allocator with ASLR.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimAllocator {
    slide: u64,
    heap_next: u64,
    mmap_next: u64,
    /// Live allocations by base address.
    live: BTreeMap<u64, Allocation>,
}

impl SimAllocator {
    /// Create an allocator whose layout is slid by a value derived
    /// from `aslr_seed` (same seed ⇒ same addresses).
    pub fn new(aslr_seed: u64) -> Self {
        // splitmix64 of the seed, page-aligned, bounded to 1 TiB so the
        // zones never collide.
        let mut z = aslr_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let slide = (z % (1 << 28)) * PAGE_SIZE; // up to ~1 TiB, page aligned
        Self {
            slide,
            heap_next: HEAP_BASE + slide,
            mmap_next: MMAP_BASE + slide,
            live: BTreeMap::new(),
        }
    }

    /// The ASLR slide applied to this address space.
    pub fn slide(&self) -> u64 {
        self.slide
    }

    /// Allocate `size` bytes; returns the simulated base address.
    pub fn malloc(&mut self, size: u64) -> u64 {
        let rounded = round_up(size.max(1), ALIGNMENT);
        let (base, mmapped) = if size >= DEFAULT_MMAP_THRESHOLD {
            let b = round_up(self.mmap_next, PAGE_SIZE);
            self.mmap_next = b + round_up(rounded, PAGE_SIZE);
            (b, true)
        } else {
            let b = self.heap_next;
            self.heap_next += rounded;
            (b, false)
        };
        self.live.insert(base, Allocation { base, size, mmapped });
        base
    }

    /// Free a previous allocation. Returns the record, or `None` for
    /// an unknown base (double free / wild pointer).
    pub fn free(&mut self, base: u64) -> Option<Allocation> {
        self.live.remove(&base)
    }

    /// The allocation containing `addr`, if any.
    pub fn containing(&self, addr: u64) -> Option<&Allocation> {
        self.live
            .range(..=addr)
            .next_back()
            .map(|(_, a)| a)
            .filter(|a| addr < a.base + a.size)
    }

    /// Live allocation count.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Iterate live allocations in address order.
    pub fn iter_live(&self) -> impl Iterator<Item = &Allocation> {
        self.live.values()
    }
}

fn round_up(v: u64, align: u64) -> u64 {
    (v + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_allocations_are_adjacent() {
        let mut a = SimAllocator::new(1);
        // HPCG-style: 27 doubles per row = 216 bytes each.
        let p1 = a.malloc(216);
        let p2 = a.malloc(216);
        let p3 = a.malloc(216);
        assert_eq!(p2 - p1, 224, "216 rounded to 16-byte alignment");
        assert_eq!(p3 - p2, 224);
        assert!(!a.containing(p1).unwrap().mmapped);
    }

    #[test]
    fn large_allocations_go_to_mmap_zone() {
        let mut a = SimAllocator::new(1);
        let small = a.malloc(100);
        let big = a.malloc(1 << 20);
        assert!(a.containing(big).unwrap().mmapped);
        assert!(big > small + (1 << 38), "mmap zone far above heap");
        assert_eq!(big % PAGE_SIZE, 0, "mmap allocations page aligned");
    }

    #[test]
    fn aslr_slides_differ_per_seed() {
        let a = SimAllocator::new(1);
        let b = SimAllocator::new(2);
        assert_ne!(a.slide(), b.slide());
        let mut a = a;
        let mut b = b;
        assert_ne!(a.malloc(64), b.malloc(64), "same program, different addresses");
    }

    #[test]
    fn aslr_is_deterministic_per_seed() {
        let mut a = SimAllocator::new(7);
        let mut b = SimAllocator::new(7);
        for _ in 0..10 {
            assert_eq!(a.malloc(48), b.malloc(48));
        }
    }

    #[test]
    fn containing_finds_interior_addresses() {
        let mut a = SimAllocator::new(3);
        let base = a.malloc(1000);
        assert_eq!(a.containing(base).unwrap().base, base);
        assert_eq!(a.containing(base + 999).unwrap().base, base);
        assert!(a.containing(base + 1000).is_none());
        assert!(a.containing(base.wrapping_sub(1)).is_none());
    }

    #[test]
    fn free_then_containing_misses() {
        let mut a = SimAllocator::new(3);
        let base = a.malloc(128);
        assert!(a.free(base).is_some());
        assert!(a.containing(base).is_none());
        assert!(a.free(base).is_none(), "double free detected");
    }

    #[test]
    fn zero_size_malloc_returns_unique_addresses() {
        let mut a = SimAllocator::new(5);
        let p = a.malloc(0);
        let q = a.malloc(0);
        assert_ne!(p, q);
    }

    #[test]
    fn mmap_threshold_splits_the_zones() {
        let mut a = SimAllocator::new(1);
        let p = a.malloc(DEFAULT_MMAP_THRESHOLD);
        assert!(a.containing(p).unwrap().mmapped);
        let q = a.malloc(DEFAULT_MMAP_THRESHOLD - 1);
        assert!(!a.containing(q).unwrap().mmapped);
    }
}

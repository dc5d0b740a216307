//! A small fully-associative data TLB with true-LRU replacement over
//! [`PAGE_SIZE`]-byte pages.
//!
//! The TLB only affects the latency of an access (a miss charges the
//! page-walk penalty); there is no virtual-to-physical translation in
//! the simulator — caches are indexed by the simulated virtual address,
//! which is harmless because the suite never aliases pages. It keeps
//! no counters: the core's [`CoreStats`](crate::CoreStats) counts hits
//! and misses from the penalty [`Tlb::access`] returns.

use crate::config::TlbConfig;
use crate::{Addr, PAGE_SIZE};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for page-number and line-address keys (the TLB's pages, the
/// hierarchy's core masks): the lookups are on the per-access critical
/// path of the whole simulator, so SipHash is too expensive, and one
/// multiply + xor-shift spreads the keys over the whole bucket range.
#[derive(Default)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 29);
    }
}

/// Fully-associative TLB.
///
/// Entries live in a hash map keyed by virtual page number, with a
/// strictly increasing last-touch clock per entry. Replacement picks
/// the minimum clock — exactly the linear-scan true-LRU this replaces
/// (clocks are unique, so the victim is unambiguous and deterministic),
/// but a hit costs one hash probe instead of an O(entries) scan.
#[derive(Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    /// virtual page number → last-touch clock
    entries: HashMap<u64, u64, BuildHasherDefault<AddrHasher>>,
    clock: u64,
}

impl Tlb {
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.entries >= 1);
        Self { cfg, entries: HashMap::default(), clock: 0 }
    }

    /// Translate the page of `addr`; returns the extra latency charged
    /// (0 on hit, the walk latency on miss). The entry is installed on
    /// a miss.
    #[inline]
    pub fn access(&mut self, addr: Addr) -> u32 {
        self.clock += 1;
        let vpn = addr / PAGE_SIZE;
        if let Some(touch) = self.entries.get_mut(&vpn) {
            *touch = self.clock;
            return 0;
        }
        if self.entries.len() >= self.cfg.entries as usize {
            // Replace the LRU entry (unique minimum clock; misses are
            // rare, so the scan is off the hot path).
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, &touch)| touch)
                .map(|(&vpn, _)| vpn)
                .expect("TLB has at least one entry");
            self.entries.remove(&lru);
        }
        self.entries.insert(vpn, self.clock);
        self.cfg.walk_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALK: u32 = 25;

    fn tlb(entries: u32) -> Tlb {
        Tlb::new(TlbConfig { entries, walk_latency: WALK })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut t = tlb(4);
        assert_eq!(t.access(0x1234), WALK);
        assert_eq!(t.access(0x1FFF), 0, "same page must hit");
        assert_eq!(t.access(0x2000), WALK, "next page must miss");
        assert_eq!(t.access(0x2FFF), 0, "the next page is now resident");
    }

    #[test]
    fn lru_eviction() {
        let mut t = tlb(2);
        t.access(0x0000); // page 0
        t.access(0x1000); // page 1
        t.access(0x0000); // touch page 0 -> page 1 is LRU
        t.access(0x2000); // page 2 evicts page 1
        assert_eq!(t.access(0x0000), 0, "page 0 still resident");
        assert_eq!(t.access(0x1000), WALK, "page 1 was evicted");
    }

    #[test]
    fn capacity_bounded() {
        let mut t = tlb(8);
        for p in 0..100u64 {
            assert_eq!(t.access(p * PAGE_SIZE), WALK, "page {p} is new");
        }
        // The last 8 pages are resident and hit; the one before them
        // was evicted and misses.
        for p in 92..100u64 {
            assert_eq!(t.access(p * PAGE_SIZE), 0, "page {p} resident");
        }
        assert_eq!(t.access(91 * PAGE_SIZE), WALK, "page 91 evicted");
    }
}

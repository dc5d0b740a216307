//! A small fully-associative data TLB with true-LRU replacement.
//!
//! The TLB only affects the latency of an access (a miss charges the
//! page-walk penalty); there is no virtual-to-physical translation in
//! the simulator — caches are indexed by the simulated virtual address,
//! which is harmless because the suite never aliases pages.

use crate::config::TlbConfig;
use crate::Addr;
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
    page_shift: u32,
    /// virtual page number → last-touch clock
    entries: HashMap<u64, u64, BuildHasherDefault<AddrHasher>>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.page_size.is_power_of_two());
        assert!(cfg.entries >= 1);
        Self {
            page_shift: cfg.page_size.trailing_zeros(),
            cfg,
            entries: HashMap::default(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Translate the page of `addr`; returns the extra latency charged
    /// (0 on hit, the walk latency on miss). The entry is installed on
    /// a miss.
    #[inline]
    pub fn access(&mut self, addr: Addr) -> u32 {
        self.clock += 1;
        let vpn = addr >> self.page_shift;
        if let Some(touch) = self.entries.get_mut(&vpn) {
            *touch = self.clock;
            self.hits += 1;
            return 0;
        }
        self.misses += 1;
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

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of currently cached translations.
    pub fn resident(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb(entries: u32) -> Tlb {
        Tlb::new(TlbConfig { entries, page_size: 4096, walk_latency: 25 })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut t = tlb(4);
        assert_eq!(t.access(0x1234), 25);
        assert_eq!(t.access(0x1FFF), 0, "same page must hit");
        assert_eq!(t.access(0x2000), 25, "next page must miss");
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn lru_eviction() {
        let mut t = tlb(2);
        t.access(0x0000); // page 0
        t.access(0x1000); // page 1
        t.access(0x0000); // touch page 0 -> page 1 is LRU
        t.access(0x2000); // page 2 evicts page 1
        assert_eq!(t.access(0x0000), 0, "page 0 still resident");
        assert_eq!(t.access(0x1000), 25, "page 1 was evicted");
    }

    #[test]
    fn capacity_bounded() {
        let mut t = tlb(8);
        for p in 0..100u64 {
            t.access(p << 12);
        }
        assert_eq!(t.resident(), 8);
    }

    #[test]
    fn huge_pages_extend_reach() {
        // 2 MiB pages: a 16 MiB stream fits 8 entries; 4 KiB pages
        // with the same footprint thrash.
        let mut huge = Tlb::new(TlbConfig { entries: 8, page_size: 2 << 20, walk_latency: 25 });
        let mut small = Tlb::new(TlbConfig { entries: 8, page_size: 4096, walk_latency: 25 });
        for rep in 0..2 {
            for addr in (0..16u64 << 20).step_by(4096) {
                huge.access(addr);
                small.access(addr);
                let _ = rep;
            }
        }
        assert_eq!(huge.misses(), 8, "one walk per huge page, then resident");
        assert!(small.misses() as f64 / (small.misses() + small.hits()) as f64 > 0.9);
    }
}

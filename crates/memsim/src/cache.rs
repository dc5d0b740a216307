//! A single set-associative, write-back cache level.
//!
//! The cache stores only metadata (tags + flags), never data — the
//! simulated workloads compute on real Rust values and only the access
//! *stream* flows through the hierarchy.

use crate::config::CacheConfig;
use crate::replacement::Replacement;
use crate::stats::CacheStats;
use crate::{Addr, LINE_SIZE};

/// Metadata of one resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineMeta {
    pub tag: u64,
    pub dirty: bool,
    /// Set when the line was installed by a prefetch and not yet
    /// demanded; cleared on the first demand hit.
    pub prefetched: bool,
}

/// Result of a lookup-and-fill operation on one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// The line was resident.
    Hit {
        /// It had been brought in by a prefetch and this is the first
        /// demand touch.
        first_demand_after_prefetch: bool,
    },
    /// The line was not resident.
    Miss,
}

/// An evicted line that the caller must handle (write back if dirty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line-aligned address of the evicted line.
    pub addr: Addr,
    pub dirty: bool,
}

/// Tag of a free way. No line has it: a tag is an address shifted
/// right by at least the [`LINE_SIZE`] offset bits.
const EMPTY: u64 = u64::MAX;
const DIRTY: u8 = 1;
const PREFETCHED: u8 = 2;

/// One cache level. Sets are slices of three flat arrays (`tags`,
/// `flags`, and the replacement state), so a lookup is one indexed scan
/// of `ways` adjacent words and a cache of any size is three heap
/// blocks.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// `set * ways + way` → tag of the resident line, or [`EMPTY`].
    tags: Vec<u64>,
    /// Same index → `DIRTY | PREFETCHED` of the resident line.
    flags: Vec<u8>,
    repl: Replacement,
    ways: usize,
    set_shift: u32,
    set_bits: u32,
    set_mask: u64,
    stats: CacheStats,
    /// Monotonic touch clock for LRU.
    clock: u64,
}

impl Cache {
    /// Build an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate("cache");
        let num_sets = cfg.num_sets();
        let ways = cfg.associativity as usize;
        let set_shift = LINE_SIZE.trailing_zeros();
        let set_bits = num_sets.trailing_zeros();
        Self {
            tags: vec![EMPTY; num_sets as usize * ways],
            flags: vec![0; num_sets as usize * ways],
            repl: Replacement::new(cfg.replacement, num_sets as usize, cfg.associativity),
            ways,
            set_shift,
            set_bits,
            set_mask: num_sets - 1,
            cfg,
            stats: CacheStats::default(),
            clock: 0,
        }
    }

    /// Geometry of this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_index(&self, line_addr: Addr) -> usize {
        ((line_addr >> self.set_shift) & self.set_mask) as usize
    }

    fn tag(&self, line_addr: Addr) -> u64 {
        line_addr >> self.set_shift >> self.set_bits
    }

    fn line_addr_from(&self, set: usize, tag: u64) -> Addr {
        ((tag << self.set_bits) | set as u64) << self.set_shift
    }

    /// The way of `set` whose tag is `tag` (`EMPTY` finds the first
    /// free way).
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        self.tags[base..base + self.ways].iter().position(|&t| t == tag)
    }

    /// Is the line containing `line_addr` resident? Does not update
    /// replacement state or counters.
    #[inline]
    pub fn probe(&self, line_addr: Addr) -> bool {
        self.probe_way(line_addr).is_some()
    }

    /// Like [`Cache::probe`], but reports *which way* holds the line.
    /// Does not update replacement state or counters.
    #[inline]
    pub fn probe_way(&self, line_addr: Addr) -> Option<u32> {
        self.find(self.set_index(line_addr), self.tag(line_addr)).map(|w| w as u32)
    }

    /// A demand hit on `way` of `set`: flags, replacement state, counters.
    #[inline]
    fn hit(&mut self, set: usize, way: usize, is_store: bool) -> LookupOutcome {
        let flags = &mut self.flags[set * self.ways + way];
        let first = *flags & PREFETCHED != 0;
        *flags = (*flags & !PREFETCHED) | if is_store { DIRTY } else { 0 };
        self.repl.touch(set, way as u32, self.clock);
        self.stats.hits += 1;
        if first {
            self.stats.prefetch_hits += 1;
        }
        LookupOutcome::Hit { first_demand_after_prefetch: first }
    }

    /// Demand access to a line the caller knows is resident in `way`
    /// (e.g. from [`Cache::probe_way`] with no eviction since) — the
    /// exact equivalent of [`Cache::access`] hitting that way, minus
    /// the tag scan.
    #[inline]
    pub fn touch_resident(&mut self, line_addr: Addr, way: u32, is_store: bool) {
        self.clock += 1;
        let set = self.set_index(line_addr);
        debug_assert_eq!(
            self.tags[set * self.ways + way as usize],
            self.tag(line_addr),
            "touch_resident: wrong line"
        );
        self.hit(set, way as usize, is_store);
    }

    /// Demand access to the line containing `line_addr`. `is_store`
    /// marks the line dirty on hit. Counters and replacement state are
    /// updated; on a miss the line is *not* installed (call
    /// [`Cache::fill`] after fetching from the next level).
    #[inline]
    pub fn access(&mut self, line_addr: Addr, is_store: bool) -> LookupOutcome {
        self.clock += 1;
        let set = self.set_index(line_addr);
        match self.find(set, self.tag(line_addr)) {
            Some(way) => self.hit(set, way, is_store),
            None => {
                self.stats.misses += 1;
                LookupOutcome::Miss
            }
        }
    }

    /// Install the line containing `line_addr`. Returns the line that
    /// had to be evicted, if any. `dirty` marks the new line dirty at
    /// install time (write-allocate store miss); `prefetched` flags a
    /// prefetch fill.
    pub fn fill(&mut self, line_addr: Addr, dirty: bool, prefetched: bool) -> Option<Evicted> {
        self.clock += 1;
        let set = self.set_index(line_addr);
        let tag = self.tag(line_addr);
        let base = set * self.ways;

        self.stats.fills += 1;
        if prefetched {
            self.stats.prefetch_fills += 1;
        }

        // Already resident (e.g. a racing prefetch): just update flags.
        if let Some(way) = self.find(set, tag) {
            if dirty {
                self.flags[base + way] |= DIRTY;
            }
            self.repl.touch(set, way as u32, self.clock);
            return None;
        }
        let new_flags = (u8::from(dirty) * DIRTY) | (u8::from(prefetched) * PREFETCHED);
        // The first free way, else a victim.
        let (way, evicted) = match self.find(set, EMPTY) {
            Some(way) => (way, None),
            None => {
                let way = self.repl.victim(set) as usize;
                let old_dirty = self.flags[base + way] & DIRTY != 0;
                self.stats.evictions += 1;
                if old_dirty {
                    self.stats.writebacks += 1;
                }
                let addr = self.line_addr_from(set, self.tags[base + way]);
                (way, Some(Evicted { addr, dirty: old_dirty }))
            }
        };
        self.tags[base + way] = tag;
        self.flags[base + way] = new_flags;
        self.repl.touch(set, way as u32, self.clock);
        evicted
    }

    /// Remove the line containing `line_addr` if resident, returning
    /// its metadata (used for inclusive-L3 back-invalidations).
    pub fn invalidate(&mut self, line_addr: Addr) -> Option<LineMeta> {
        let set = self.set_index(line_addr);
        let tag = self.tag(line_addr);
        let i = set * self.ways + self.find(set, tag)?;
        self.tags[i] = EMPTY;
        Some(LineMeta {
            tag,
            dirty: self.flags[i] & DIRTY != 0,
            prefetched: self.flags[i] & PREFETCHED != 0,
        })
    }

    /// Mark the line dirty if resident (used when a writeback from an
    /// upper level lands on a resident line).
    pub fn mark_dirty(&mut self, line_addr: Addr) -> bool {
        let set = self.set_index(line_addr);
        match self.find(set, self.tag(line_addr)) {
            Some(way) => {
                self.flags[set * self.ways + way] |= DIRTY;
                true
            }
            None => false,
        }
    }

    /// Line addresses of every resident line (test/diagnostic helper;
    /// O(size)).
    pub fn resident_lines(&self) -> impl Iterator<Item = Addr> + '_ {
        self.tags
            .iter()
            .enumerate()
            .filter(|(_, &tag)| tag != EMPTY)
            .map(|(i, &tag)| self.line_addr_from(i / self.ways, tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::ReplacementPolicy;

    fn tiny(assoc: u32, sets: u64) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 64 * assoc as u64 * sets,
            associativity: assoc,
            hit_latency: 1,
            replacement: ReplacementPolicy::Lru,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny(2, 4);
        assert_eq!(c.access(0x0, false), LookupOutcome::Miss);
        assert!(c.fill(0x0, false, false).is_none());
        assert!(matches!(c.access(0x0, false), LookupOutcome::Hit { .. }));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_set_conflict_evicts_lru() {
        let mut c = tiny(2, 4);
        // Three lines mapping to set 0 (stride = sets * line = 256).
        c.access(0x000, false);
        c.fill(0x000, false, false);
        c.access(0x100, false);
        c.fill(0x100, false, false);
        // Touch 0x000 so 0x100 becomes LRU.
        c.access(0x000, false);
        c.access(0x200, false);
        let ev = c.fill(0x200, false, false).expect("must evict");
        assert_eq!(ev.addr, 0x100);
        assert!(!ev.dirty);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny(1, 1);
        c.access(0x0, true);
        c.fill(0x0, true, false);
        c.access(0x40, false);
        let ev = c.fill(0x40, false, false).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.addr, 0x0);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = tiny(1, 1);
        c.access(0x0, false);
        c.fill(0x0, false, false);
        c.access(0x0, true); // store hit
        c.access(0x40, false);
        let ev = c.fill(0x40, false, false).unwrap();
        assert!(ev.dirty, "store hit must dirty the line");
    }

    #[test]
    fn prefetch_hit_accounting() {
        let mut c = tiny(2, 2);
        c.fill(0x0, false, true); // prefetch fill
        let out = c.access(0x0, false);
        assert_eq!(out, LookupOutcome::Hit { first_demand_after_prefetch: true });
        assert_eq!(c.stats().prefetch_hits, 1);
        // Second demand touch is a plain hit.
        let out = c.access(0x0, false);
        assert_eq!(out, LookupOutcome::Hit { first_demand_after_prefetch: false });
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny(2, 2);
        c.fill(0x0, true, false);
        let m = c.invalidate(0x0).unwrap();
        assert!(m.dirty);
        assert_eq!(c.access(0x0, false), LookupOutcome::Miss);
        assert!(c.invalidate(0x0).is_none());
    }

    #[test]
    fn probe_does_not_change_state() {
        let mut c = tiny(2, 2);
        c.fill(0x0, false, false);
        let before = c.stats();
        assert!(c.probe(0x0));
        assert!(!c.probe(0x40));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn fill_on_resident_line_is_idempotent() {
        let mut c = tiny(2, 2);
        c.fill(0x0, false, false);
        assert!(c.fill(0x0, true, false).is_none());
        assert_eq!(c.resident_lines().count(), 1);
        // Dirty flag merged.
        c.access(0x80, false);
        c.fill(0x80, false, false);
        c.access(0x100, false);
        // set 0 now has 0x0(dirty), 0x100 incoming: evict candidates
        // exist; we only check that no panic occurs and counts are sane.
        c.fill(0x100, false, false);
        assert!(c.resident_lines().count() <= 4);
    }

    #[test]
    fn line_addr_round_trip() {
        let c = tiny(4, 8);
        for &a in &[0x0u64, 0x40, 0x1000, 0xdead_bee0 & !63, 0x7fff_ffff_ffc0] {
            let set = c.set_index(a);
            let tag = c.tag(a);
            assert_eq!(c.line_addr_from(set, tag), a & !63);
        }
    }
}

//! Property-based tests for the memory-hierarchy simulator.

use mempersp_memsim::cache::{Evicted, LookupOutcome};
use mempersp_memsim::{
    lines_of_access, AccessKind, Cache, CacheConfig, CacheStats, HierarchyConfig, LineMeta,
    MemorySystem, ReplacementPolicy, LINE_SIZE,
};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = AccessKind> {
    prop_oneof![Just(AccessKind::Load), Just(AccessKind::Store)]
}

/// The cache the way it is usually drawn, as the reference for the
/// flat-array [`Cache`]: a `Vec<Option<LineMeta>>` per set, and per set
/// the state of every policy in its textbook shape — a timestamp per
/// way, a recursive walk over a `Vec<bool>` tree, a counter, a
/// generator.
struct NaiveCache {
    policy: ReplacementPolicy,
    ways: u32,
    sets: Vec<NaiveSet>,
    clock: u64,
    stats: CacheStats,
}

struct NaiveSet {
    lines: Vec<Option<LineMeta>>,
    last_touch: Vec<u64>,
    /// Internal nodes of the PLRU tree in heap order; true = the
    /// victim is to the right.
    plru: Vec<bool>,
    fifo_next: u32,
    rng: u64,
}

const LINE: u64 = LINE_SIZE;

fn plru_touch(bits: &mut [bool], node: usize, lo: u32, hi: u32, way: u32) {
    if hi - lo > 1 {
        let mid = (lo + hi) / 2;
        // Point away from the half the way is in.
        bits[node] = way < mid;
        if way < mid {
            plru_touch(bits, 2 * node + 1, lo, mid, way);
        } else {
            plru_touch(bits, 2 * node + 2, mid, hi, way);
        }
    }
}

fn plru_victim(bits: &[bool], node: usize, lo: u32, hi: u32) -> u32 {
    if hi - lo <= 1 {
        return lo;
    }
    let mid = (lo + hi) / 2;
    if bits[node] {
        plru_victim(bits, 2 * node + 2, mid, hi)
    } else {
        plru_victim(bits, 2 * node + 1, lo, mid)
    }
}

impl NaiveCache {
    fn new(policy: ReplacementPolicy, num_sets: u64, ways: u32) -> Self {
        let leaves = ways.next_power_of_two().max(2);
        let sets = (0..num_sets)
            .map(|i| NaiveSet {
                lines: vec![None; ways as usize],
                last_touch: vec![0; ways as usize],
                plru: vec![false; leaves as usize - 1],
                fifo_next: 0,
                rng: (0x9E3779B97F4A7C15 ^ i) | 1,
            })
            .collect();
        Self { policy, ways, sets, clock: 0, stats: CacheStats::default() }
    }

    fn locate(&self, line: u64) -> (usize, u64) {
        let n = self.sets.len() as u64;
        ((line / LINE % n) as usize, line / LINE / n)
    }

    fn way_of(&self, set: usize, tag: u64) -> Option<usize> {
        self.sets[set].lines.iter().position(|l| matches!(l, Some(m) if m.tag == tag))
    }

    fn touch(&mut self, set: usize, way: usize) {
        let leaves = self.ways.next_power_of_two().max(2);
        let s = &mut self.sets[set];
        s.last_touch[way] = self.clock;
        plru_touch(&mut s.plru, 0, 0, leaves, way as u32);
    }

    fn victim(&mut self, set: usize) -> usize {
        let ways = self.ways;
        let s = &mut self.sets[set];
        let v = match self.policy {
            ReplacementPolicy::Lru => {
                // The oldest timestamp, the lowest way among equals.
                (0..ways).min_by_key(|&w| (s.last_touch[w as usize], w)).unwrap()
            }
            ReplacementPolicy::TreePlru => {
                plru_victim(&s.plru, 0, 0, ways.next_power_of_two().max(2)).min(ways - 1)
            }
            ReplacementPolicy::Fifo => {
                s.fifo_next += 1;
                (s.fifo_next - 1) % ways
            }
            ReplacementPolicy::Random => {
                s.rng ^= s.rng >> 12;
                s.rng ^= s.rng << 25;
                s.rng ^= s.rng >> 27;
                (s.rng.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as u32 % ways
            }
        };
        v as usize
    }

    fn access(&mut self, line: u64, is_store: bool) -> LookupOutcome {
        self.clock += 1;
        let (set, tag) = self.locate(line);
        let Some(way) = self.way_of(set, tag) else {
            self.stats.misses += 1;
            return LookupOutcome::Miss;
        };
        let meta = self.sets[set].lines[way].as_mut().unwrap();
        let first = std::mem::take(&mut meta.prefetched);
        meta.dirty |= is_store;
        self.touch(set, way);
        self.stats.hits += 1;
        self.stats.prefetch_hits += first as u64;
        LookupOutcome::Hit { first_demand_after_prefetch: first }
    }

    fn fill(&mut self, line: u64, dirty: bool, prefetched: bool) -> Option<Evicted> {
        self.clock += 1;
        let (set, tag) = self.locate(line);
        self.stats.fills += 1;
        self.stats.prefetch_fills += prefetched as u64;
        if let Some(way) = self.way_of(set, tag) {
            self.sets[set].lines[way].as_mut().unwrap().dirty |= dirty;
            self.touch(set, way);
            return None;
        }
        let free = self.sets[set].lines.iter().position(Option::is_none);
        let way = free.unwrap_or_else(|| self.victim(set));
        let old = self.sets[set].lines[way].replace(LineMeta { tag, dirty, prefetched });
        self.touch(set, way);
        old.map(|old| {
            self.stats.evictions += 1;
            self.stats.writebacks += old.dirty as u64;
            let n = self.sets.len() as u64;
            Evicted { addr: (old.tag * n + set as u64) * LINE, dirty: old.dirty }
        })
    }

    fn invalidate(&mut self, line: u64) -> Option<LineMeta> {
        let (set, tag) = self.locate(line);
        let way = self.way_of(set, tag)?;
        self.sets[set].lines[way].take()
    }

    fn mark_dirty(&mut self, line: u64) -> bool {
        let (set, tag) = self.locate(line);
        match self.way_of(set, tag) {
            Some(way) => {
                self.sets[set].lines[way].as_mut().unwrap().dirty = true;
                true
            }
            None => false,
        }
    }

    fn resident_lines(&self) -> Vec<u64> {
        let n = self.sets.len() as u64;
        let mut lines = Vec::new();
        for (set, s) in self.sets.iter().enumerate() {
            lines.extend(s.lines.iter().flatten().map(|m| (m.tag * n + set as u64) * LINE));
        }
        lines
    }
}

proptest! {
    /// Every byte of [addr, addr+size) lies in some returned line and
    /// every returned line intersects the access.
    #[test]
    fn lines_cover_access_exactly(addr in 0u64..1u64 << 40, size in 1u32..512) {
        let lines: Vec<u64> = lines_of_access(addr, size).collect();
        prop_assert!(!lines.is_empty());
        // Lines are line-aligned, ascending, contiguous.
        for w in lines.windows(2) {
            prop_assert_eq!(w[1], w[0] + LINE);
        }
        for &l in &lines {
            prop_assert_eq!(l % LINE, 0);
            // Intersects [addr, addr+size).
            prop_assert!(l < addr + size as u64 && l + LINE > addr);
        }
        // First and last bytes covered.
        prop_assert_eq!(lines[0], addr & !(LINE - 1));
        prop_assert_eq!(*lines.last().unwrap(), (addr + size as u64 - 1) & !(LINE - 1));
    }

    /// The flat-array cache is the naive one, operation by operation:
    /// same outcomes, same victims (with their dirty bits), same
    /// counters, same contents in the same ways — for every policy, at
    /// power-of-two and other associativities.
    #[test]
    fn flat_cache_equals_naive_reference(
        ops in prop::collection::vec((0u32..7, 0u64..1 << 16, any::<bool>(), any::<bool>()), 1..600),
    ) {
        use ReplacementPolicy::*;
        for policy in [Lru, TreePlru, Fifo, Random] {
            for ways in [1u32, 2, 8, 20, 24] {
                let num_sets = 4u64;
                let mut flat = Cache::new(CacheConfig {
                    size_bytes: num_sets * ways as u64 * LINE,
                    associativity: ways,
                    hit_latency: 1,
                    replacement: policy,
                });
                let mut naive = NaiveCache::new(policy, num_sets, ways);
                // Three times the capacity, so sets fill up and lines
                // come back.
                let footprint = 3 * num_sets * ways as u64;
                for (i, &(op, r, a, b)) in ops.iter().enumerate() {
                    let line = r % footprint * LINE;
                    let at = format!("{policy:?} × {ways} ways, op {i}");
                    match (op, flat.probe_way(line)) {
                        // A hit through the caller-knows-the-way shortcut.
                        (0, Some(way)) => {
                            flat.touch_resident(line, way, a);
                            prop_assert!(matches!(naive.access(line, a), LookupOutcome::Hit { .. }), "{}", at);
                        }
                        (0..=2, _) => prop_assert_eq!(flat.access(line, a), naive.access(line, a), "{}", at),
                        (3 | 4, _) => prop_assert_eq!(flat.fill(line, a, b), naive.fill(line, a, b), "{}", at),
                        (5, _) => prop_assert_eq!(flat.invalidate(line), naive.invalidate(line), "{}", at),
                        _ => prop_assert_eq!(flat.mark_dirty(line), naive.mark_dirty(line), "{}", at),
                    }
                    let (set, tag) = naive.locate(line);
                    prop_assert_eq!(flat.probe_way(line).map(|w| w as usize), naive.way_of(set, tag), "{}", at);
                }
                prop_assert_eq!(flat.stats(), naive.stats);
                prop_assert_eq!(flat.resident_lines().collect::<Vec<_>>(), naive.resident_lines());
            }
        }
    }

    /// A cache never holds more lines than its capacity, whatever the
    /// policy and access mix.
    #[test]
    fn cache_capacity_invariant(
        ops in prop::collection::vec((0u64..1 << 16, any::<bool>()), 1..500),
        policy in prop_oneof![
            Just(ReplacementPolicy::Lru),
            Just(ReplacementPolicy::TreePlru),
            Just(ReplacementPolicy::Fifo),
            Just(ReplacementPolicy::Random),
        ],
    ) {
        let cfg = CacheConfig {
            size_bytes: 2048,
            associativity: 4,
            hit_latency: 1,
            replacement: policy,
        };
        let capacity_lines = (cfg.size_bytes / LINE) as usize;
        let mut c = Cache::new(cfg);
        for (addr, store) in ops {
            let line = addr & !63;
            if matches!(c.access(line, store), mempersp_memsim::cache::LookupOutcome::Miss) {
                c.fill(line, store, false);
            }
            prop_assert!(c.resident_lines().count() <= capacity_lines);
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, s.accesses());
    }

    /// After any access, immediately re-accessing the same address is
    /// an L1 hit (the line was just installed), and its latency equals
    /// the L1 hit latency.
    #[test]
    fn reaccess_is_l1_hit(addr in 0u64..1 << 30, kind in arb_kind()) {
        let mut m = MemorySystem::new(HierarchyConfig::small_test(), 1);
        m.access(0, kind, addr, 8, 0);
        let r = m.access(0, AccessKind::Load, addr, 8, 100);
        prop_assert_eq!(r.source, mempersp_memsim::MemLevel::L1);
        prop_assert_eq!(r.latency, m.config().l1d.hit_latency);
    }

    /// Serving-level counters always sum to the number of accesses, and
    /// latency is at least the L1 hit latency per access.
    #[test]
    fn stats_accounting_consistent(
        ops in prop::collection::vec((0u64..1 << 20, arb_kind()), 1..300),
    ) {
        let mut m = MemorySystem::new(HierarchyConfig::small_test(), 2);
        for (i, (addr, kind)) in ops.iter().enumerate() {
            m.access(i % 2, *kind, *addr, 8, i as u64 * 7);
        }
        let s = m.stats();
        for c in &s.cores {
            prop_assert_eq!(
                c.served_l1 + c.served_l2 + c.served_l3 + c.served_dram,
                c.loads + c.stores
            );
            prop_assert!(c.total_latency >= (c.loads + c.stores) * 4);
            // Page-straddling accesses translate twice, so TLB events
            // are at least one per access but may exceed it.
            prop_assert!(c.tlb_hits + c.tlb_misses >= c.loads + c.stores);
        }
        let total = s.total_cores();
        prop_assert_eq!(total.accesses() as usize, ops.len());
    }

    /// Determinism: the same access sequence produces identical stats.
    #[test]
    fn deterministic_replay(
        ops in prop::collection::vec((0u64..1 << 22, arb_kind(), 1u32..16), 1..200),
    ) {
        let run = || {
            let mut m = MemorySystem::new(HierarchyConfig::small_test(), 1);
            let mut latencies = Vec::new();
            for (i, (addr, kind, size)) in ops.iter().enumerate() {
                latencies.push(m.access(0, *kind, *addr, *size, i as u64 * 3).latency);
            }
            (latencies, m.stats())
        };
        let (la, sa) = run();
        let (lb, sb) = run();
        prop_assert_eq!(la, lb);
        prop_assert_eq!(sa, sb);
    }

    /// Coherence invariant: immediately after a store by core A, no
    /// other core's private caches hold the line (single-writer), and
    /// after any access the issuing core holds it (write-allocate).
    #[test]
    fn single_writer_invariant(
        ops in prop::collection::vec((0usize..3, any::<bool>(), 0u64..16), 1..400),
    ) {
        let mut m = MemorySystem::new(HierarchyConfig::small_test(), 3);
        for (i, &(core, is_store, slot)) in ops.iter().enumerate() {
            let addr = slot * 64;
            let kind = if is_store { AccessKind::Store } else { AccessKind::Load };
            m.access(core, kind, addr, 8, i as u64 * 3);
            prop_assert!(m.core_holds_line(core, addr), "issuer holds the line");
            if is_store {
                for other in 0..3 {
                    if other != core {
                        prop_assert!(
                            !m.core_holds_line(other, addr),
                            "op {i}: core {other} still holds line stored by {core}"
                        );
                    }
                }
            }
        }
    }

    /// `access_batch` is observably identical to the equivalent run of
    /// single `access` calls: same per-op results and same final
    /// statistics, for any op mix, batch split, and core count.
    #[test]
    fn access_batch_equals_singles(
        ops in prop::collection::vec(
            (0usize..3, 0u64..1 << 22, arb_kind(), 1u32..64),
            1..300,
        ),
        split in 1usize..40,
    ) {
        use mempersp_memsim::BatchOp;
        let mut single = MemorySystem::new(HierarchyConfig::small_test(), 3);
        let mut batched = MemorySystem::new(HierarchyConfig::small_test(), 3);
        let mut out = Vec::new();
        // Issue in chunks of `split` ops; each chunk is further grouped
        // into per-core runs (a batch targets one core).
        for (ci, chunk) in ops.chunks(split).enumerate() {
            let now = ci as u64 * 11;
            let mut i = 0usize;
            while i < chunk.len() {
                let core = chunk[i].0;
                let mut j = i;
                while j < chunk.len() && chunk[j].0 == core {
                    j += 1;
                }
                let batch: Vec<BatchOp> = chunk[i..j]
                    .iter()
                    .map(|&(_, addr, kind, size)| BatchOp { kind, addr, size })
                    .collect();
                out.clear();
                batched.access_batch(core, &batch, now, &mut out);
                for (k, &(_, addr, kind, size)) in chunk[i..j].iter().enumerate() {
                    let want = single.access(core, kind, addr, size, now);
                    prop_assert_eq!(out[k], want, "op {} diverged", i + k);
                }
                i = j;
            }
        }
        prop_assert_eq!(single.stats(), batched.stats());
    }

    /// Monotone hierarchy: a deeper data source never has a smaller
    /// latency than a shallower one within the same access stream.
    #[test]
    fn deeper_source_costs_more(
        ops in prop::collection::vec(0u64..1 << 18, 1..300),
    ) {
        use mempersp_memsim::MemLevel;
        let mut m = MemorySystem::new(HierarchyConfig::small_test(), 1);
        let mut max_lat = std::collections::HashMap::new();
        let mut min_lat = std::collections::HashMap::new();
        for (i, addr) in ops.iter().enumerate() {
            let r = m.access(0, AccessKind::Load, *addr, 8, i as u64 * 2);
            // Exclude TLB-miss samples: the walk penalty can invert the
            // level ordering for nearby levels.
            if r.tlb_miss {
                continue;
            }
            let e = max_lat.entry(r.source).or_insert(0u32);
            *e = (*e).max(r.latency);
            let e = min_lat.entry(r.source).or_insert(u32::MAX);
            *e = (*e).min(r.latency);
        }
        for (a, b) in [(MemLevel::L1, MemLevel::L2), (MemLevel::L2, MemLevel::L3)] {
            if let (Some(ma), Some(mb)) = (max_lat.get(&a), min_lat.get(&b)) {
                prop_assert!(ma <= mb, "{a:?} max {ma} vs {b:?} min {mb}");
            }
        }
    }
}

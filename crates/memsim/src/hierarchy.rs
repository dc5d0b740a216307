//! The assembled memory system: per-core private L1D + L2 + TLB +
//! prefetcher, a shared inclusive L3, and the DRAM model.
//!
//! Two paths execute an access. [`MemorySystem::access`] walks one
//! access down the hierarchy, performs fills/evictions/writebacks,
//! lets the stream prefetcher run, and returns the PEBS-relevant facts
//! — the serving [`MemLevel`] and the latency in cycles.
//! [`MemorySystem::access_batch`] is a loop over it.
//!
//! The epoch runs many cores' accesses at once.
//! [`MemorySystem::issue`] buffers operations per core;
//! [`MemorySystem::begin_epoch`] closes them into an epoch, and when
//! no line it touches is shared between cores it runs each core's
//! private part of the walk (TLB, L1, L2, prefetcher training) on up to
//! `threads` threads; [`MemorySystem::retire_next`] then returns each
//! operation's result in the caller's global issue order, replaying
//! its shared L3/DRAM traffic at that point — or, in an epoch with
//! sharing, running the exact `access`.
//!
//! Coherence keeps no per-line bookkeeping, only one mask per *page*:
//! the cores that ever demand-touched it or prefetched into it, a
//! superset of the holders of any of its lines. Snoops, L3
//! back-invalidations and the epoch conflict test probe only those
//! cores' caches — for a page one core owns, none.

use crate::cache::{Cache, LookupOutcome};
use crate::config::HierarchyConfig;
use crate::dram::Dram;
use crate::prefetch::StreamPrefetcher;
use crate::stats::{CoreStats, SystemStats};
use crate::tlb::{AddrHasher, Tlb};
use crate::{lines_of_access, Addr, LINE_SIZE, PAGE_SIZE};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Load or store, as retired by the simulated core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    Load,
    Store,
}

/// The level of the hierarchy that served an access — what PEBS calls
/// the *data source*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MemLevel {
    L1,
    L2,
    L3,
    Dram,
}

impl MemLevel {
    /// Short label used in reports ("L1", "L2", "L3", "DRAM").
    pub fn label(&self) -> &'static str {
        match self {
            MemLevel::L1 => "L1",
            MemLevel::L2 => "L2",
            MemLevel::L3 => "L3",
            MemLevel::Dram => "DRAM",
        }
    }
}

/// Per-access outcome, the PEBS record payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Deepest level that had to serve any line of the access.
    pub source: MemLevel,
    /// Total latency in core cycles, including TLB-walk penalty.
    pub latency: u32,
    /// Whether the access missed the data TLB.
    pub tlb_miss: bool,
}

/// One memory operation in a batched access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOp {
    pub kind: AccessKind,
    pub addr: Addr,
    pub size: u32,
}

/// The most cores a [`MemorySystem`] simulates: a page's owner mask is
/// one `u64`.
pub const MAX_CORES: usize = 64;

/// Page number of an address: `addr >> PAGE_SHIFT`.
const PAGE_SHIFT: u32 = PAGE_SIZE.trailing_zeros();

/// A request emitted by a core's private path toward the shared
/// uncore (L3 + DRAM). Produced during the private phase of an epoch,
/// applied later in deterministic global order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UncoreReq {
    /// Demand fetch of a line that missed the private L2. The uncore
    /// decides whether L3 or DRAM serves it.
    Demand(Addr),
    /// Dirty line evicted from a private L2; lands in the L3 (or is
    /// installed there dirty if the L3 lost it).
    Writeback(Addr),
    /// A prefetched line: brought into the L3 if absent, charging DRAM
    /// bandwidth. (The private L2 fill already happened.)
    Prefetch(Addr),
}

/// Private-path outcome of one epoch operation, produced by
/// `CorePath::simulate_private` and consumed by
/// `MemorySystem::replay`.
#[derive(Debug, Clone, Copy)]
struct PrivateResult {
    /// Deepest *private* level that served any line (L1 or L2); lines
    /// that left the core appear as `UncoreReq::Demand` entries.
    level: MemLevel,
    /// Worst private per-line latency (no TLB penalty, no uncore part).
    latency: u32,
    /// TLB-walk penalty of the whole operation.
    tlb_penalty: u32,
    /// Whether any touched page missed the TLB.
    tlb_miss: bool,
    /// Number of `UncoreReq`s this operation appended.
    req_len: u32,
}

/// One core's operations: the open epoch's (`ops[..end]`, of which
/// `retired` have retired), then those issued since it began.
#[derive(Default)]
struct Lane {
    ops: Vec<BatchOp>,
    end: usize,
    retired: usize,
    /// A conflict-free epoch's private phase: one result per op, and
    /// the uncore requests they emitted in order, of which `next_req`
    /// is the first not yet replayed.
    results: Vec<PrivateResult>,
    reqs: Vec<UncoreReq>,
    next_req: usize,
}

impl Lane {
    /// The open epoch's operations.
    #[inline]
    fn epoch(&self) -> &[BatchOp] {
        &self.ops[..self.end]
    }

    /// Drop the open epoch, once all of it has retired.
    fn close(&mut self) {
        self.ops.drain(..self.end);
        self.end = 0;
        self.retired = 0;
        self.results.clear();
        self.reqs.clear();
        self.next_req = 0;
    }
}

/// Page number or line address → bitmask over cores.
type CoreMaskMap = HashMap<Addr, u64, BuildHasherDefault<AddrHasher>>;

/// Private lookup outcome of one line.
enum PrivLookup {
    L1,
    L2,
    Uncore,
}

/// One core's private memory path: L1D, L2, TLB and the stream
/// prefetcher, plus this core's counters.
struct CorePath {
    l1d: Cache,
    l2: Cache,
    tlb: Tlb,
    prefetcher: StreamPrefetcher,
    stats: CoreStats,
    /// Reused buffer for prefetch candidates (no per-access allocation).
    pf_scratch: Vec<Addr>,
    /// Lines evicted from L1 since the last drain; lets the private
    /// phase invalidate exactly the affected residency-memo entries
    /// instead of flushing the memo on every miss.
    l1_evict_scratch: Vec<Addr>,
    /// Pages (by number) this core prefetched into while demanding a
    /// line of a *different* page — the prefetcher does not stop at
    /// page boundaries — until `MemorySystem::merge_prefetch_pages`
    /// makes the core an owner. Not kept on single-core systems.
    pf_pages: Vec<Addr>,
    log_pf_pages: bool,
}

impl CorePath {
    fn new(cfg: &HierarchyConfig, log_pf_pages: bool) -> Self {
        Self {
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            tlb: Tlb::new(cfg.tlb),
            prefetcher: StreamPrefetcher::new(cfg.prefetch),
            stats: CoreStats::default(),
            pf_scratch: Vec::new(),
            l1_evict_scratch: Vec::new(),
            pf_pages: Vec::new(),
            log_pf_pages,
        }
    }

    /// Does this core's private path hold `line`?
    fn holds(&self, line: Addr) -> bool {
        self.l1d.probe(line) || self.l2.probe(line)
    }

    /// Translate every distinct page the access touches, updating TLB
    /// counters. Returns the accumulated walk penalty.
    fn tlb_walk(&mut self, addr: Addr, size: u32) -> u32 {
        let page_mask = !(PAGE_SIZE - 1);
        let first_page = addr & page_mask;
        let last_page = (addr + size.max(1) as u64 - 1) & page_mask;
        let mut penalty = 0u32;
        let mut page = first_page;
        loop {
            let pen = self.tlb.access(page);
            if pen > 0 {
                self.stats.tlb_misses += 1;
            } else {
                self.stats.tlb_hits += 1;
            }
            penalty += pen;
            if page == last_page {
                break;
            }
            page += PAGE_SIZE;
        }
        penalty
    }

    /// Look one line up in L1 then L2, training the prefetcher on every
    /// demand access that reaches L2. Prefetch candidates accumulate in
    /// `pf_scratch` until [`finish_line`](Self::finish_line) drains them.
    fn lookup_line(&mut self, line: Addr, is_store: bool) -> PrivLookup {
        if let LookupOutcome::Hit { .. } = self.l1d.access(line, is_store) {
            return PrivLookup::L1;
        }
        self.prefetcher.observe_into(line, &mut self.pf_scratch);
        match self.l2.access(line, false) {
            LookupOutcome::Hit { .. } => PrivLookup::L2,
            LookupOutcome::Miss => PrivLookup::Uncore,
        }
    }

    /// After the serving level of `line` is known, perform the private
    /// fills and issue the pending prefetches. Uncore-side effects
    /// (writebacks, prefetch installs) are appended to `reqs`.
    fn finish_line(&mut self, line: Addr, is_store: bool, from_uncore: bool, reqs: &mut Vec<UncoreReq>) {
        if from_uncore {
            self.fill_l2_private(line, false, false, reqs);
            self.stats.bytes_from_uncore += LINE_SIZE;
        }
        self.fill_l1_private(line, is_store, reqs);
        // Issue the prefetches decided during lookup (off the critical
        // path). The L2 side is private; the L3/DRAM side becomes a
        // Prefetch request.
        let pfs = std::mem::take(&mut self.pf_scratch);
        for &pf in &pfs {
            if self.l2.probe(pf) {
                continue;
            }
            reqs.push(UncoreReq::Prefetch(pf));
            self.fill_l2_private(pf, false, true, reqs);
            let page = pf >> PAGE_SHIFT;
            if self.log_pf_pages && page != line >> PAGE_SHIFT && self.pf_pages.last() != Some(&page) {
                self.pf_pages.push(page);
            }
        }
        let mut pfs = pfs;
        pfs.clear();
        self.pf_scratch = pfs;
    }

    /// Install a line into L1, handling the eviction cascade.
    fn fill_l1_private(&mut self, line: Addr, dirty: bool, reqs: &mut Vec<UncoreReq>) {
        if let Some(ev) = self.l1d.fill(line, dirty, false) {
            self.l1_evict_scratch.push(ev.addr);
            if ev.dirty {
                // Writeback to L2; L2 is expected to hold the line
                // (inclusive-ish), otherwise install it dirty.
                if !self.l2.mark_dirty(ev.addr) {
                    self.fill_l2_private(ev.addr, true, false, reqs);
                }
            }
        }
    }

    /// Install a line into L2, handling the eviction.
    fn fill_l2_private(&mut self, line: Addr, dirty: bool, prefetched: bool, reqs: &mut Vec<UncoreReq>) {
        if let Some(ev) = self.l2.fill(line, dirty, prefetched) {
            if ev.dirty {
                self.stats.bytes_from_uncore += LINE_SIZE;
                reqs.push(UncoreReq::Writeback(ev.addr));
            }
        }
    }

    /// Phase 1 of an epoch: run this core's operations through the
    /// private path only. Demand misses, writebacks and prefetch
    /// installs that need the shared L3/DRAM are recorded as
    /// `UncoreReq`s (one contiguous run per op, `req_len` each) for a
    /// later deterministic replay via `MemorySystem::replay`.
    /// Loads/stores and TLB counters are updated here; served-level
    /// counters and latencies are accounted during the replay.
    ///
    /// `MemorySystem::epoch_conflict_free` must have established that
    /// no line touched in the epoch is shared with another core, so
    /// coherence snoops are no-ops and are skipped (that call also
    /// records this core as an owner of every page `ops` touch), and
    /// `MemorySystem::merge_prefetch_pages` must run once every core's
    /// phase 1 is done, before the replay.
    fn simulate_private(&mut self, cfg: &HierarchyConfig, lane: &mut Lane) {
        let Lane { ops, end, results, reqs, .. } = lane;
        let ops = &ops[..*end];
        let line_mask = !(LINE_SIZE - 1);
        let page_mask = !(PAGE_SIZE - 1);
        let l1_lat = cfg.l1d.hit_latency;
        let l2_lat = cfg.l2.hit_latency;
        // L1-residency memo: (line, way) pairs known to still sit in
        // L1, direct-mapped on the line address (slot uniqueness comes
        // for free, and a probe is one indexed compare instead of a
        // scan). Within the private phase the only thing that evicts
        // an L1 line is another op's L1 fill, and every such eviction
        // is logged in `l1_evict_scratch` — dropping exactly those
        // entries keeps the invariant. A resident line never changes
        // ways, so a memo hit can skip both the tag scan and the
        // TLB/snoop/fill machinery; only the (exact) `touch_resident`
        // LRU/dirty update remains. 16 slots cover the handful of
        // streams a kernel interleaves (SpMV: cols/vals/x/y) with few
        // collisions.
        const MEMO_SLOTS: usize = 16;
        let memo_slot = |line: Addr| ((line / LINE_SIZE) as usize) & (MEMO_SLOTS - 1);
        let mut memo = [(Addr::MAX, 0u32); MEMO_SLOTS];
        results.reserve(ops.len());
        // The page the previous op translated last (= TLB MRU, so
        // re-translating it is a strict no-op).
        let mut last_page = Addr::MAX;
        // Hot counters held in registers; flushed once at the end
        // (addition commutes, so the totals are exact).
        let mut loads = 0u64;
        let mut stores = 0u64;
        let mut tlb_hits = 0u64;
        let mut tlb_misses = 0u64;

        for op in ops {
            let is_store = op.kind == AccessKind::Store;
            let first_line = op.addr & line_mask;
            let last_line = (op.addr + op.size.max(1) as u64 - 1) & line_mask;
            let single_line = first_line == last_line;

            if single_line {
                let (m_line, way) = memo[memo_slot(first_line)];
                if m_line == first_line {
                    // Still in L1: hit with no fills. A single-line
                    // access never straddles pages, so one translation
                    // suffices — skipped only when the page is the TLB
                    // MRU.
                    let first_page = op.addr & page_mask;
                    let tlb_penalty = if first_page == last_page {
                        tlb_hits += 1;
                        0
                    } else {
                        let pen = self.tlb.access(op.addr);
                        if pen > 0 {
                            tlb_misses += 1;
                        } else {
                            tlb_hits += 1;
                        }
                        last_page = first_page;
                        pen
                    };
                    self.l1d.touch_resident(first_line, way, is_store);
                    if is_store {
                        stores += 1;
                    } else {
                        loads += 1;
                    }
                    results.push(PrivateResult {
                        level: MemLevel::L1,
                        latency: l1_lat,
                        tlb_penalty,
                        tlb_miss: tlb_penalty > 0,
                        req_len: 0,
                    });
                    continue;
                }
            }

            let first_page = op.addr & page_mask;
            let end_page = (op.addr + op.size.max(1) as u64 - 1) & page_mask;
            let tlb_penalty = if first_page == end_page && first_page == last_page {
                tlb_hits += 1;
                0
            } else {
                self.tlb_walk(op.addr, op.size)
            };
            last_page = end_page;

            let req_start = reqs.len();
            let mut level = MemLevel::L1;
            let mut latency = 0u32;
            let mut line = first_line;
            loop {
                match self.lookup_line(line, is_store) {
                    PrivLookup::L1 => {
                        latency = latency.max(l1_lat);
                    }
                    PrivLookup::L2 => {
                        latency = latency.max(l1_lat + l2_lat);
                        if MemLevel::L2 > level {
                            level = MemLevel::L2;
                        }
                        self.finish_line(line, is_store, false, reqs);
                    }
                    PrivLookup::Uncore => {
                        reqs.push(UncoreReq::Demand(line));
                        self.finish_line(line, is_store, true, reqs);
                    }
                }
                if line == last_line {
                    break;
                }
                line += LINE_SIZE;
            }

            if !self.l1_evict_scratch.is_empty() {
                // Drop exactly the memo entries whose lines were pushed
                // out of L1 by this op's fills; everything else is
                // still resident.
                for i in 0..self.l1_evict_scratch.len() {
                    let ev = self.l1_evict_scratch[i];
                    let slot = &mut memo[memo_slot(ev)];
                    if slot.0 == ev {
                        *slot = (Addr::MAX, 0);
                    }
                }
                self.l1_evict_scratch.clear();
            }
            if single_line {
                // Memoize the line (and its way): a hit kept it in L1,
                // a fill just installed it.
                if let Some(way) = self.l1d.probe_way(first_line) {
                    memo[memo_slot(first_line)] = (first_line, way);
                }
            }

            if is_store {
                stores += 1;
            } else {
                loads += 1;
            }
            results.push(PrivateResult {
                level,
                latency,
                tlb_penalty,
                tlb_miss: tlb_penalty > 0,
                req_len: (reqs.len() - req_start) as u32,
            });
        }

        self.stats.loads += loads;
        self.stats.stores += stores;
        self.stats.tlb_hits += tlb_hits;
        self.stats.tlb_misses += tlb_misses;
    }
}

/// The whole simulated memory system.
pub struct MemorySystem {
    cfg: HierarchyConfig,
    cores: Vec<CorePath>,
    l3: Cache,
    dram: Dram,
    coherence_invalidations: u64,
    coherence_downgrades: u64,
    /// Page ownership: page number → the cores that ever
    /// demand-touched the page or prefetched into it. Invariant: every
    /// line in a core's L1D/L2 lies in a page whose mask has that
    /// core's bit, so the mask is a superset of the line's holders.
    /// Bits are only ever added. Only maintained on multi-core
    /// systems.
    owners: CoreMaskMap,
    /// Reused buffer for the sequential access path.
    req_scratch: Vec<UncoreReq>,
    /// Conflict check, epochs with several active cores: lines of
    /// shared pages → the cores that touch them in the epoch.
    epoch_lines: CoreMaskMap,
    /// Per core: its operations of the open epoch and the next.
    lanes: Vec<Lane>,
    /// Whether the open epoch passed the conflict check, so its
    /// operations retire by replaying their private phase.
    epoch_free: bool,
    /// The oracle the unit tests compare against (nothing else sets
    /// it): ignore `owners` and probe every core.
    probe_every_core: bool,
}

/// What one pass of [`MemorySystem::epoch_conflict_free`] over a
/// core's operations does.
#[derive(Clone, Copy)]
enum EpochScan {
    /// Record the core as an owner of every page it touches.
    ClaimPages,
    /// That, and test every line of a page that has another owner:
    /// is it held by one of them, or (`several_active`) touched by
    /// another core in this epoch?
    Check { several_active: bool },
}

impl MemorySystem {
    /// Build a system with `num_cores` cores sharing one L3 and DRAM.
    pub fn new(cfg: HierarchyConfig, num_cores: usize) -> Self {
        cfg.validate();
        assert!(num_cores >= 1, "need at least one core");
        assert!(num_cores <= MAX_CORES, "a page's owner mask holds at most {MAX_CORES} cores");
        let cores = (0..num_cores).map(|_| CorePath::new(&cfg, num_cores > 1)).collect();
        Self {
            l3: Cache::new(cfg.l3),
            dram: Dram::new(cfg.dram),
            cfg,
            cores,
            coherence_invalidations: 0,
            coherence_downgrades: 0,
            owners: CoreMaskMap::default(),
            req_scratch: Vec::new(),
            epoch_lines: CoreMaskMap::default(),
            lanes: (0..num_cores).map(|_| Lane::default()).collect(),
            epoch_free: false,
            probe_every_core: false,
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Number of simulated cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    fn all_cores(&self) -> u64 {
        u64::MAX >> (64 - self.cores.len())
    }

    /// Superset of the cores whose private path may hold `line`.
    fn may_hold(&self, line: Addr) -> u64 {
        if self.cores.len() == 1 || self.probe_every_core {
            return self.all_cores();
        }
        self.owners.get(&(line >> PAGE_SHIFT)).copied().unwrap_or(0)
    }

    /// Record `core` as an owner of `page` (a page number); returns
    /// the *other* cores that may hold lines of it.
    fn claim_page(&mut self, core: usize, page: Addr) -> u64 {
        let bit = 1u64 << core;
        let mask = self.owners.entry(page).or_insert(0);
        *mask |= bit;
        let owners = *mask;
        (if self.probe_every_core { self.all_cores() } else { owners }) & !bit
    }

    /// Does any core of `mask` hold `line`?
    fn held_by_any(&self, mut mask: u64, line: Addr) -> bool {
        while mask != 0 {
            if self.cores[mask.trailing_zeros() as usize].holds(line) {
                return true;
            }
            mask &= mask - 1;
        }
        false
    }

    /// Fold every core's log of pages it prefetched into from outside
    /// into the page ownership. Runs between phase 1 and the replay of
    /// a conflict-free epoch: phase 2's back-invalidations rely on it.
    fn merge_prefetch_pages(&mut self) {
        for core in 0..self.cores.len() {
            self.merge_prefetch_pages_of(core);
        }
    }

    fn merge_prefetch_pages_of(&mut self, core: usize) {
        for page in self.cores[core].pf_pages.drain(..) {
            *self.owners.entry(page).or_insert(0) |= 1u64 << core;
        }
    }

    /// Issue one access from `core` at simulated cycle `now`.
    ///
    /// `size` is in bytes; accesses that straddle line boundaries touch
    /// every covered line and are charged the worst line's latency
    /// (the core would split them into uops anyway).
    pub fn access(&mut self, core: usize, kind: AccessKind, addr: Addr, size: u32, now: u64) -> AccessResult {
        let is_store = kind == AccessKind::Store;

        // TLB: translate every distinct page the access touches.
        let tlb_penalty = self.cores[core].tlb_walk(addr, size);

        let mut worst_latency = 0u32;
        let mut deepest = MemLevel::L1;
        for line in lines_of_access(addr, size) {
            let (lvl, lat) = self.access_line(core, line, is_store, now);
            if lat > worst_latency {
                worst_latency = lat;
            }
            if lvl > deepest {
                deepest = lvl;
            }
        }

        let latency = worst_latency + tlb_penalty;
        let st = &mut self.cores[core].stats;
        if is_store {
            st.stores += 1;
        } else {
            st.loads += 1;
        }
        match deepest {
            MemLevel::L1 => st.served_l1 += 1,
            MemLevel::L2 => st.served_l2 += 1,
            MemLevel::L3 => st.served_l3 += 1,
            MemLevel::Dram => st.served_dram += 1,
        }
        st.total_latency += latency as u64;

        AccessResult { source: deepest, latency, tlb_miss: tlb_penalty > 0 }
    }

    /// Issue a stream of operations from one core at cycle `now`,
    /// appending one [`AccessResult`] per op to `out`: one
    /// [`access`](Self::access) per op.
    pub fn access_batch(&mut self, core: usize, ops: &[BatchOp], now: u64, out: &mut Vec<AccessResult>) {
        out.extend(ops.iter().map(|op| self.access(core, op.kind, op.addr, op.size, now)));
    }

    /// Buffer `op` from `core` for the next epoch.
    #[inline]
    pub fn issue(&mut self, core: usize, op: BatchOp) {
        self.lanes[core].ops.push(op);
    }

    /// Close everything issued since the last call into the open epoch
    /// and classify it. When no line it touches is shared between
    /// cores, each active core's private phase runs now, on up to
    /// `threads` scoped threads (results do not depend on `threads`),
    /// and [`retire_next`](Self::retire_next) replays only the shared
    /// L3/DRAM side; otherwise every op retires through the exact
    /// [`access`](Self::access).
    ///
    /// Panics if an op of the previous epoch has not retired.
    pub fn begin_epoch(&mut self, threads: usize) {
        for lane in &mut self.lanes {
            assert_eq!(lane.end, 0, "the previous epoch has unretired operations");
            lane.end = lane.ops.len();
        }
        let lanes = std::mem::take(&mut self.lanes);
        self.epoch_free = self.epoch_conflict_free(lanes.iter().map(Lane::epoch));
        self.lanes = lanes;
        if !self.epoch_free {
            return;
        }

        let cfg = &self.cfg;
        let mut work: Vec<_> =
            self.cores.iter_mut().zip(&mut self.lanes).filter(|(_, lane)| lane.end > 0).collect();
        if threads <= 1 || work.len() <= 1 {
            for (path, lane) in &mut work {
                path.simulate_private(cfg, lane);
            }
        } else {
            let per_chunk = work.len().div_ceil(threads);
            std::thread::scope(|s| {
                for chunk in work.chunks_mut(per_chunk) {
                    s.spawn(move || {
                        for (path, lane) in chunk {
                            path.simulate_private(cfg, lane);
                        }
                    });
                }
            });
        }
        // Page ownership must cover what phase 1 prefetched before any
        // phase-2 back-invalidation consults it.
        self.merge_prefetch_pages();
    }

    /// Retire `core`'s next operation of the open epoch at simulated
    /// cycle `now`, returning the op and its result. The caller retires
    /// ops in its global issue order: that is the order in which the
    /// shared L3/DRAM state evolves.
    ///
    /// Panics if `core` has no unretired op in the open epoch.
    #[inline]
    pub fn retire_next(&mut self, core: usize, now: u64) -> (BatchOp, AccessResult) {
        let lane = &mut self.lanes[core];
        let i = lane.retired;
        let op = lane.epoch()[i];
        lane.retired += 1;
        let res = if self.epoch_free {
            self.replay(core, i, now)
        } else {
            self.access(core, op.kind, op.addr, op.size, now)
        };
        let lane = &mut self.lanes[core];
        if lane.retired == lane.end {
            lane.close();
        }
        (op, res)
    }

    /// MESI-lite snoop: a store by `core` invalidates every other
    /// core's copy; a load downgrades remote *modified* copies
    /// (writeback into L3). Returns the extra snoop latency.
    ///
    /// Only `candidates` — the other owners of the line's page — are
    /// probed; on a page no other core owns that is none.
    fn snoop(&mut self, line: Addr, is_store: bool, mut candidates: u64) -> u32 {
        let mut hit_remote = false;
        let mut dirty_remote = false;
        while candidates != 0 {
            let path = &mut self.cores[candidates.trailing_zeros() as usize];
            candidates &= candidates - 1;
            if is_store {
                // Invalidate (RFO).
                let mut any = false;
                if let Some(m) = path.l1d.invalidate(line) {
                    dirty_remote |= m.dirty;
                    any = true;
                }
                if let Some(m) = path.l2.invalidate(line) {
                    dirty_remote |= m.dirty;
                    any = true;
                }
                if any {
                    hit_remote = true;
                    self.coherence_invalidations += 1;
                }
            } else {
                // Downgrade M→S: clear remote dirty bits, push the
                // data into the shared L3.
                let mut dirty = false;
                if let Some(m) = path.l1d.invalidate(line) {
                    dirty |= m.dirty;
                    path.l1d.fill(line, false, false);
                }
                if let Some(m) = path.l2.invalidate(line) {
                    dirty |= m.dirty;
                    path.l2.fill(line, false, false);
                }
                if dirty {
                    hit_remote = true;
                    dirty_remote = true;
                    self.coherence_downgrades += 1;
                }
            }
        }
        if dirty_remote {
            // The freshest data lands in the (inclusive) L3.
            if !self.l3.mark_dirty(line) {
                self.fill_l3(line, true, false, 0);
            }
        }
        if hit_remote {
            self.cfg.snoop_latency
        } else {
            0
        }
    }

    /// Walk one line down the hierarchy. Returns (serving level,
    /// latency in cycles).
    fn access_line(&mut self, core: usize, line: Addr, is_store: bool, now: u64) -> (MemLevel, u32) {
        let l1_lat = self.cfg.l1d.hit_latency;
        let l2_lat = self.cfg.l2.hit_latency;

        // Coherence first: stores must own the line exclusively; loads
        // must observe remote modifications. (Skipped entirely on
        // single-core systems.)
        let snoop_lat = if self.cores.len() > 1 {
            let others = self.claim_page(core, line >> PAGE_SHIFT);
            self.snoop(line, is_store, others)
        } else {
            0
        };

        // Private L1/L2 lookup.
        let (level, latency) = match self.cores[core].lookup_line(line, is_store) {
            PrivLookup::L1 => return (MemLevel::L1, l1_lat + snoop_lat),
            PrivLookup::L2 => (MemLevel::L2, l1_lat + l2_lat),
            PrivLookup::Uncore => self
                .apply_uncore_req(UncoreReq::Demand(line), now)
                .expect("demand requests report a serving level"),
        };

        // Fill the line upwards into L2 (on L2 miss) and L1, and issue
        // the prefetches decided during lookup; apply the resulting
        // uncore traffic (writebacks, prefetch installs) immediately.
        let mut reqs = std::mem::take(&mut self.req_scratch);
        self.cores[core].finish_line(line, is_store, level > MemLevel::L2, &mut reqs);
        // Before the uncore traffic: an L3 eviction it causes must
        // find this core among the owners of what it just prefetched.
        self.merge_prefetch_pages_of(core);
        for req in reqs.drain(..) {
            self.apply_uncore_req(req, now);
        }
        self.req_scratch = reqs;
        // The L1-eviction log only feeds the private-phase memo; the
        // sequential path has no memo to invalidate.
        self.cores[core].l1_evict_scratch.clear();

        (level, latency + snoop_lat)
    }

    /// Apply one uncore request against the shared L3/DRAM. For
    /// [`UncoreReq::Demand`] the serving level and full demand latency
    /// (L1+L2+L3, plus DRAM) are returned.
    fn apply_uncore_req(&mut self, req: UncoreReq, now: u64) -> Option<(MemLevel, u32)> {
        match req {
            UncoreReq::Demand(line) => {
                let base = self.cfg.l1d.hit_latency + self.cfg.l2.hit_latency + self.cfg.l3.hit_latency;
                Some(match self.l3.access(line, false) {
                    LookupOutcome::Hit { .. } => (MemLevel::L3, base),
                    LookupOutcome::Miss => {
                        let dram_lat = self.dram.transfer(line, now);
                        // Install into L3 (inclusive) and handle its
                        // eviction.
                        self.fill_l3(line, false, false, now);
                        (MemLevel::Dram, base + dram_lat)
                    }
                })
            }
            UncoreReq::Writeback(line) => {
                if !self.l3.mark_dirty(line) {
                    self.fill_l3(line, true, false, now);
                }
                None
            }
            UncoreReq::Prefetch(line) => {
                if !self.l3.probe(line) {
                    self.dram.transfer(line, now);
                    self.fill_l3(line, false, true, now);
                }
                None
            }
        }
    }

    /// Phase 0 of an epoch: is the epoch free of cross-core line
    /// sharing? True iff every line touched by any op is touched by at
    /// most one core *and* not resident in any other core's private
    /// path. Under that condition the private phase of every core
    /// commutes with every other core's, so the epoch can run phase 1
    /// in parallel with results identical to the sequential order.
    ///
    /// Works page by page: each core is recorded as an owner of the
    /// pages it touches (whether or not the epoch turns out free, so
    /// the ownership invariant holds for the private phase), and only
    /// lines of pages with another owner are looked at one by one.
    fn epoch_conflict_free<'a>(&mut self, per_core_ops: impl Iterator<Item = &'a [BatchOp]> + Clone) -> bool {
        if self.cores.len() <= 1 {
            return true;
        }
        // With several active cores a page's other owners are only
        // known once every core has claimed its pages; a single active
        // core can claim and check in one pass.
        let several_active = per_core_ops.clone().filter(|ops| !ops.is_empty()).count() > 1;
        if several_active {
            for (core, ops) in per_core_ops.clone().enumerate() {
                self.scan_epoch(core, ops, EpochScan::ClaimPages);
            }
            self.epoch_lines.clear();
        }
        let check = EpochScan::Check { several_active };
        per_core_ops.enumerate().all(|(core, ops)| self.scan_epoch(core, ops, check))
    }

    /// One core's share of [`epoch_conflict_free`](Self::epoch_conflict_free);
    /// false on the first conflicting line.
    fn scan_epoch(&mut self, core: usize, ops: &[BatchOp], scan: EpochScan) -> bool {
        let bit = 1u64 << core;
        // Page number → its other owners, direct-mapped on the page
        // number: a kernel interleaves a handful of streams, so nearly
        // every op finds its page here and costs one compare. Valid for
        // the whole pass, during which no other core's bit is added.
        const MEMO_SLOTS: usize = 16;
        let mut memo = [(Addr::MAX, 0u64); MEMO_SLOTS];
        for op in ops {
            let last_byte = op.addr + op.size.max(1) as u64 - 1;
            let last_page = last_byte >> PAGE_SHIFT;
            let mut page = op.addr >> PAGE_SHIFT;
            loop {
                let slot = &mut memo[page as usize & (MEMO_SLOTS - 1)];
                if slot.0 != page {
                    *slot = (page, self.claim_page(core, page));
                }
                let others = slot.1;
                if let (EpochScan::Check { several_active }, true) = (scan, others != 0) {
                    // The op's bytes within this page, line by line.
                    let from = op.addr.max(page << PAGE_SHIFT);
                    let to = last_byte.min(((page + 1) << PAGE_SHIFT) - 1);
                    for line in lines_of_access(from, (to - from + 1) as u32) {
                        if self.held_by_any(others, line) {
                            return false;
                        }
                        if several_active {
                            let touched_by = self.epoch_lines.entry(line).or_insert(0);
                            *touched_by |= bit;
                            if *touched_by != bit {
                                return false;
                            }
                        }
                    }
                }
                if page == last_page {
                    break;
                }
                page += 1;
            }
        }
        true
    }

    /// Phase 2 of a conflict-free epoch: complete `core`'s op `i`.
    /// Applies the uncore requests its private phase emitted against
    /// L3/DRAM at cycle `now`, accounts the served-level counters and
    /// latency, and returns the final [`AccessResult`].
    #[inline]
    fn replay(&mut self, core: usize, i: usize, now: u64) -> AccessResult {
        let pr = self.lanes[core].results[i];
        let mut level = pr.level;
        let mut latency = pr.latency;
        for _ in 0..pr.req_len {
            let lane = &mut self.lanes[core];
            let req = lane.reqs[lane.next_req];
            lane.next_req += 1;
            if let Some((lvl, lat)) = self.apply_uncore_req(req, now) {
                if lvl > level {
                    level = lvl;
                }
                if lat > latency {
                    latency = lat;
                }
            }
        }
        let latency = latency + pr.tlb_penalty;
        let st = &mut self.cores[core].stats;
        match level {
            MemLevel::L1 => st.served_l1 += 1,
            MemLevel::L2 => st.served_l2 += 1,
            MemLevel::L3 => st.served_l3 += 1,
            MemLevel::Dram => st.served_dram += 1,
        }
        st.total_latency += latency as u64;
        AccessResult { source: level, latency, tlb_miss: pr.tlb_miss }
    }

    /// Install a line into the shared L3; on eviction, back-invalidate
    /// every core that may hold it (inclusive L3) and write dirty data
    /// to DRAM.
    fn fill_l3(&mut self, line: Addr, dirty: bool, prefetched: bool, now: u64) {
        if let Some(ev) = self.l3.fill(line, dirty, prefetched) {
            let mut dirty_upper = ev.dirty;
            let mut mask = self.may_hold(ev.addr);
            while mask != 0 {
                let path = &mut self.cores[mask.trailing_zeros() as usize];
                mask &= mask - 1;
                if let Some(m) = path.l1d.invalidate(ev.addr) {
                    dirty_upper |= m.dirty;
                }
                if let Some(m) = path.l2.invalidate(ev.addr) {
                    dirty_upper |= m.dirty;
                }
            }
            if dirty_upper {
                // Writeback consumes DRAM bandwidth but is off the
                // demand critical path.
                self.dram.transfer(ev.addr, now);
            }
        }
    }

    /// Does `core`'s private path (L1D or L2) hold the line containing
    /// `addr`? Diagnostic/verification helper; does not disturb state.
    pub fn core_holds_line(&self, core: usize, addr: Addr) -> bool {
        let line = addr & !(LINE_SIZE - 1);
        self.cores[core].holds(line)
    }

    /// Counter snapshot of the whole system (cheap; cloned counters).
    pub fn stats(&self) -> SystemStats {
        SystemStats {
            cores: self
                .cores
                .iter()
                .map(|c| {
                    let mut s = c.stats;
                    s.l1d = c.l1d.stats();
                    s.l2 = c.l2.stats();
                    s
                })
                .collect(),
            l3: self.l3.stats(),
            dram_bytes: self.dram.bytes(),
            dram_transfers: self.dram.transfers(),
            coherence_invalidations: self.coherence_invalidations,
            coherence_downgrades: self.coherence_downgrades,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;
    use crate::replacement::ReplacementPolicy;

    fn sys(cores: usize) -> MemorySystem {
        MemorySystem::new(HierarchyConfig::small_test(), cores)
    }

    #[test]
    fn cold_access_served_by_dram_then_l1() {
        let mut m = sys(1);
        let a = m.access(0, AccessKind::Load, 0x1000, 8, 0);
        assert_eq!(a.source, MemLevel::Dram);
        assert!(a.tlb_miss);
        let b = m.access(0, AccessKind::Load, 0x1000, 8, 100);
        assert_eq!(b.source, MemLevel::L1);
        assert!(!b.tlb_miss);
        assert!(b.latency < a.latency);
    }

    #[test]
    fn latency_ordering_l1_l2_l3_dram() {
        let mut m = sys(1);
        let dram = m.access(0, AccessKind::Load, 0x40000, 8, 0).latency;
        let l1 = m.access(0, AccessKind::Load, 0x40000, 8, 0).latency;
        assert!(l1 < dram);
        // Evict from L1 but not L2: fill enough same-set lines.
        // small_test L1: 1KiB/2way/64B = 8 sets -> set stride 512B.
        for i in 1..=2u64 {
            m.access(0, AccessKind::Load, 0x40000 + i * 512, 8, 0);
        }
        let l2 = m.access(0, AccessKind::Load, 0x40000, 8, 0);
        assert_eq!(l2.source, MemLevel::L2);
        assert!(l2.latency > l1 && l2.latency < dram);
    }

    #[test]
    fn store_miss_write_allocates_and_dirties() {
        let mut m = sys(1);
        m.access(0, AccessKind::Store, 0x2000, 8, 0);
        let s = m.stats();
        assert_eq!(s.cores[0].stores, 1);
        assert_eq!(s.cores[0].served_dram, 1);
        // A subsequent load hits L1 (line was allocated).
        let r = m.access(0, AccessKind::Load, 0x2000, 8, 10);
        assert_eq!(r.source, MemLevel::L1);
    }

    #[test]
    fn straddling_access_counts_once_but_touches_two_lines() {
        let mut m = sys(1);
        let r = m.access(0, AccessKind::Load, 0x103c, 8, 0);
        assert_eq!(r.source, MemLevel::Dram);
        let s = m.stats();
        assert_eq!(s.cores[0].loads, 1);
        // Both lines now hit.
        assert_eq!(m.access(0, AccessKind::Load, 0x1038, 4, 10).source, MemLevel::L1);
        assert_eq!(m.access(0, AccessKind::Load, 0x1040, 4, 10).source, MemLevel::L1);
    }

    #[test]
    fn cores_have_private_l1() {
        let mut m = sys(2);
        m.access(0, AccessKind::Load, 0x3000, 8, 0);
        // Core 1 misses its private caches but hits shared L3.
        let r = m.access(1, AccessKind::Load, 0x3000, 8, 100);
        assert_eq!(r.source, MemLevel::L3);
    }

    #[test]
    fn working_set_larger_than_l3_misses() {
        let mut m = sys(1);
        // small_test L3 = 16 KiB; stream through 256 KiB twice.
        let n_lines = (256 * 1024) / 64;
        for rep in 0..2u64 {
            for i in 0..n_lines as u64 {
                m.access(0, AccessKind::Load, i * 64, 8, rep * 1_000_000 + i * 10);
            }
        }
        let s = m.stats();
        // Second pass must still miss heavily (no reuse possible).
        assert!(s.cores[0].served_dram as f64 / s.cores[0].loads as f64 > 0.9);
    }

    #[test]
    fn working_set_fitting_l1_hits_after_warmup() {
        let mut m = sys(1);
        // 512 B working set, 8 lines.
        for rep in 0..10u64 {
            for i in 0..8u64 {
                m.access(0, AccessKind::Load, i * 64, 8, rep * 100 + i);
            }
        }
        let s = m.stats();
        assert!(s.cores[0].served_l1 >= 8 * 9, "all but the first pass should hit L1");
    }

    #[test]
    fn inclusive_l3_back_invalidates() {
        let mut m = sys(1);
        // Fill L3 (16 KiB = 256 lines) far beyond capacity while the
        // first line stays "hot" in L1... then check it got
        // back-invalidated when its L3 copy was evicted.
        m.access(0, AccessKind::Load, 0x0, 8, 0);
        for i in 1..2000u64 {
            m.access(0, AccessKind::Load, i * 64, 8, i * 10);
        }
        // 0x0 cannot still be in L1 if it left L3.
        let r = m.access(0, AccessKind::Load, 0x0, 8, 1_000_000);
        assert_eq!(r.source, MemLevel::Dram);
    }

    #[test]
    fn writeback_traffic_reaches_dram() {
        let mut m = sys(1);
        // Dirty a large footprint, then stream over another region to
        // force dirty evictions all the way out.
        for i in 0..1024u64 {
            m.access(0, AccessKind::Store, i * 64, 8, i);
        }
        for i in 0..4096u64 {
            m.access(0, AccessKind::Load, 0x100_0000 + i * 64, 8, 10_000 + i);
        }
        let s = m.stats();
        // DRAM must have seen more than the demand fills: the dirty
        // lines were written back.
        assert!(s.dram_bytes > (1024 + 4096) * 64);
    }

    #[test]
    fn prefetcher_reduces_dram_served_ratio_on_stream() {
        let mut cfg = HierarchyConfig::small_test();
        cfg.prefetch = true;
        let mut with_pf = MemorySystem::new(cfg.clone(), 1);
        cfg.prefetch = false;
        let mut without = MemorySystem::new(cfg, 1);
        for i in 0..4096u64 {
            with_pf.access(0, AccessKind::Load, i * 8, 8, i * 4);
            without.access(0, AccessKind::Load, i * 8, 8, i * 4);
        }
        let a = with_pf.stats().cores[0].served_dram;
        let b = without.stats().cores[0].served_dram;
        assert!(a < b, "prefetching ({a}) should beat no prefetching ({b})");
    }

    #[test]
    fn stats_delta_between_phases() {
        let mut m = sys(1);
        for i in 0..100u64 {
            m.access(0, AccessKind::Load, i * 64, 8, i);
        }
        let snap = m.stats();
        for i in 0..50u64 {
            m.access(0, AccessKind::Store, i * 64, 8, 1000 + i);
        }
        let d = m.stats().delta(&snap);
        assert_eq!(d.cores[0].loads, 0);
        assert_eq!(d.cores[0].stores, 50);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = MemorySystem::new(HierarchyConfig::small_test(), 0);
    }

    #[test]
    fn store_invalidates_remote_copies() {
        let mut m = sys(2);
        // Both cores cache the line.
        m.access(0, AccessKind::Load, 0x7000, 8, 0);
        m.access(1, AccessKind::Load, 0x7000, 8, 10);
        // Core 1 writes: core 0's copy must die.
        m.access(1, AccessKind::Store, 0x7000, 8, 20);
        let s = m.stats();
        assert!(s.coherence_invalidations >= 1, "{s:?}");
        // Core 0 re-reads: not from its (invalidated) L1.
        let r = m.access(0, AccessKind::Load, 0x7000, 8, 30);
        assert!(r.source > MemLevel::L1, "stale copy must be gone, got {:?}", r.source);
    }

    #[test]
    fn load_downgrades_remote_modified_line() {
        let mut m = sys(2);
        m.access(0, AccessKind::Store, 0x8000, 8, 0); // core 0 holds M
        let r = m.access(1, AccessKind::Load, 0x8000, 8, 10);
        let s = m.stats();
        assert_eq!(s.coherence_downgrades, 1);
        // Served with the snoop penalty included.
        assert!(r.latency >= m.config().snoop_latency);
        // Core 0 still has the (now clean) line.
        let r0 = m.access(0, AccessKind::Load, 0x8000, 8, 20);
        assert_eq!(r0.source, MemLevel::L1);
    }

    #[test]
    fn private_data_has_no_coherence_traffic() {
        let mut m = sys(2);
        for i in 0..1000u64 {
            m.access(0, AccessKind::Store, i * 64, 8, i);
            m.access(1, AccessKind::Store, 0x100_0000 + i * 64, 8, i);
        }
        let s = m.stats();
        assert_eq!(s.coherence_invalidations, 0);
        assert_eq!(s.coherence_downgrades, 0);
    }

    #[test]
    fn false_sharing_pingpong_counts_invalidations() {
        let mut m = sys(2);
        // Two cores alternately store to the same line (different
        // bytes — classic false sharing).
        for i in 0..100u64 {
            m.access(0, AccessKind::Store, 0x9000, 8, i * 10);
            m.access(1, AccessKind::Store, 0x9008, 8, i * 10 + 5);
        }
        let s = m.stats();
        assert!(
            s.coherence_invalidations >= 150,
            "ping-pong invalidates nearly every store: {}",
            s.coherence_invalidations
        );
    }

    // ---- page ownership / batch / epoch machinery --------------------

    /// A mixed 2-core workload with sharing, used to compare paths.
    fn mixed_ops(seed: u64) -> Vec<(usize, AccessKind, Addr, u32)> {
        let mut x = seed | 1;
        let mut ops = Vec::new();
        for i in 0..3000u64 {
            let r = xorshift(&mut x);
            let core = (r & 1) as usize;
            let kind = if r & 2 == 0 { AccessKind::Load } else { AccessKind::Store };
            // Mostly-private regions with a shared window on top.
            let addr = if r % 10 < 2 {
                0x5_0000 + (r >> 8) % 0x400 // shared 1 KiB window
            } else {
                (core as u64 + 1) * 0x10_0000 + ((r >> 8) % 0x4000)
            };
            let size = 1 + (i % 8) as u32;
            ops.push((core, kind, addr, size));
        }
        ops
    }

    /// xorshift64*
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x >> 12;
        *x ^= *x << 25;
        *x ^= *x >> 27;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// `small_test` with the prefetcher on — streams run across page
    /// boundaries, so the prefetch page log has work — and its slow
    /// obvious twin, which ignores page ownership and probes every core.
    fn sys_and_oracle(cores: usize, l3_policy: ReplacementPolicy, l3_sets: u64) -> (MemorySystem, MemorySystem) {
        let mut cfg = HierarchyConfig::small_test();
        cfg.prefetch = true;
        cfg.l3.replacement = l3_policy;
        cfg.l3.size_bytes = l3_sets * cfg.l3.associativity as u64 * LINE_SIZE;
        let mut oracle = MemorySystem::new(cfg.clone(), cores);
        oracle.probe_every_core = true;
        (MemorySystem::new(cfg, cores), oracle)
    }

    /// `small_test`'s L3, then two where ownership has to be in place
    /// before an access's uncore traffic: a random L3 can evict a line
    /// in the access that fills it into a core — with one set, even a
    /// line that access prefetched across a page boundary.
    const L3_VARIANTS: [(ReplacementPolicy, u64); 3] =
        [(ReplacementPolicy::Lru, 32), (ReplacementPolicy::Random, 32), (ReplacementPolicy::Random, 1)];

    /// The ownership invariant: every line a core holds lies in a page
    /// whose mask has that core's bit.
    fn assert_owners_cover_holders(m: &MemorySystem) {
        for (c, path) in m.cores.iter().enumerate() {
            for line in path.l1d.resident_lines().chain(path.l2.resident_lines()) {
                let owners = m.owners.get(&(line >> PAGE_SHIFT)).copied().unwrap_or(0);
                assert!(owners >> c & 1 == 1, "core {c} holds {line:#x}, its page's owners are {owners:#b}");
            }
        }
    }

    #[test]
    fn page_ownership_equals_probing_every_core() {
        for (l3_policy, l3_sets) in L3_VARIANTS {
            let (mut filtered, mut oracle) = sys_and_oracle(2, l3_policy, l3_sets);
            for (i, (core, kind, addr, size)) in mixed_ops(42).into_iter().enumerate() {
                let a = filtered.access(core, kind, addr, size, i as u64 * 3);
                let b = oracle.access(core, kind, addr, size, i as u64 * 3);
                assert_eq!(a, b, "{l3_policy:?} × {l3_sets}: op {i} diverged");
                assert_owners_cover_holders(&filtered);
            }
            assert_eq!(filtered.stats(), oracle.stats(), "{l3_policy:?} × {l3_sets}");
            let s = filtered.stats();
            assert!(s.coherence_invalidations > 0, "workload must exercise coherence");
            assert!(s.cores[0].l2.prefetch_fills > 0, "workload must exercise the prefetcher");
        }
    }

    #[test]
    fn access_batch_equals_single_accesses() {
        let mut single = sys(2);
        let mut batched = sys(2);
        // Group the op stream into per-core runs like a real caller.
        let ops = mixed_ops(7);
        let mut i = 0usize;
        let mut out = Vec::new();
        while i < ops.len() {
            let core = ops[i].0;
            let mut j = i;
            while j < ops.len() && ops[j].0 == core {
                j += 1;
            }
            let now = i as u64 * 5;
            let batch: Vec<BatchOp> = ops[i..j]
                .iter()
                .map(|&(_, kind, addr, size)| BatchOp { kind, addr, size })
                .collect();
            out.clear();
            batched.access_batch(core, &batch, now, &mut out);
            for (k, &(_, kind, addr, size)) in ops[i..j].iter().enumerate() {
                let want = single.access(core, kind, addr, size, now);
                assert_eq!(out[k], want, "op {} diverged", i + k);
            }
            i = j;
        }
        assert_eq!(single.stats(), batched.stats());
    }

    #[test]
    fn access_batch_counts_every_op() {
        // Repeated accesses to one line: after the first, all are L1
        // hits, each counted in full.
        let mut m = sys(1);
        let ops: Vec<BatchOp> = (0..100)
            .map(|i| BatchOp {
                kind: if i % 3 == 0 { AccessKind::Store } else { AccessKind::Load },
                addr: 0x1000 + (i % 8) as u64,
                size: 4,
            })
            .collect();
        let mut out = Vec::new();
        m.access_batch(0, &ops, 0, &mut out);
        assert_eq!(out.len(), 100);
        assert!(out[1..].iter().all(|r| r.source == MemLevel::L1));
        let s = m.stats();
        assert_eq!(s.cores[0].loads + s.cores[0].stores, 100);
        assert_eq!(s.cores[0].served_l1, 99);
        assert_eq!(s.cores[0].tlb_hits + s.cores[0].tlb_misses, 100);
    }

    /// The conflict check alone, on `per_core` (which it does not run).
    fn conflict_free(m: &mut MemorySystem, per_core: &[Vec<BatchOp>]) -> bool {
        m.epoch_conflict_free(per_core.iter().map(Vec::as_slice))
    }

    #[test]
    fn epoch_conflict_detection() {
        let mut m = sys(2);
        let load = |addr| BatchOp { kind: AccessKind::Load, addr, size: 8 };
        let store = |addr| BatchOp { kind: AccessKind::Store, addr, size: 8 };
        // Disjoint lines: fine, in different pages or in one.
        assert!(conflict_free(&mut m, &[vec![load(0x1000)], vec![load(0x2000)]]));
        assert!(conflict_free(&mut m, &[vec![load(0x1000)], vec![load(0x1040)]]));
        // Same line from two cores: conflict, even load/load.
        assert!(!conflict_free(&mut m, &[vec![load(0x1000)], vec![load(0x1008)]]));
        assert!(!conflict_free(&mut m, &[vec![store(0x1000)], vec![load(0x1000)]]));
        // A line another core already caches is a conflict too.
        m.access(1, AccessKind::Load, 0x3000, 8, 0);
        assert!(!conflict_free(&mut m, &[vec![load(0x3000)], vec![]]));
        // ... but not its neighbour in the same page,
        assert!(conflict_free(&mut m, &[vec![load(0x3040)], vec![]]));
        // ... and the caching core itself may keep using it.
        assert!(conflict_free(&mut m, &[vec![], vec![load(0x3000)]]));
    }

    /// Round-robin issue order over `per_core`: (core, op index, the
    /// op's issue cycle after `now`).
    fn round_robin(per_core: &[Vec<BatchOp>], now: u64) -> Vec<(usize, usize, u64)> {
        let n = per_core.len();
        let longest = per_core.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest)
            .flat_map(|i| (0..n).map(move |c| (c, i)))
            .filter(|&(c, i)| i < per_core[c].len())
            .map(|(c, i)| (c, i, now + (i * n + c) as u64))
            .collect()
    }

    /// Run one epoch through the epoch API in round-robin issue order;
    /// returns whether it was conflict-free, and every op's result.
    fn run_epoch(
        m: &mut MemorySystem,
        per_core: &[Vec<BatchOp>],
        threads: usize,
        now: u64,
    ) -> (bool, Vec<AccessResult>) {
        for (c, ops) in per_core.iter().enumerate() {
            for &op in ops {
                m.issue(c, op);
            }
        }
        m.begin_epoch(threads);
        let out = round_robin(per_core, now)
            .into_iter()
            .map(|(c, i, now)| {
                let (op, res) = m.retire_next(c, now);
                assert_eq!(op, per_core[c][i], "ops retire in their core's issue order");
                res
            })
            .collect();
        (m.epoch_free, out)
    }

    /// The same issue order, one `access` at a time.
    fn run_sequential(m: &mut MemorySystem, per_core: &[Vec<BatchOp>], now: u64) -> Vec<AccessResult> {
        round_robin(per_core, now)
            .into_iter()
            .map(|(c, i, now)| {
                let op = per_core[c][i];
                m.access(c, op.kind, op.addr, op.size, now)
            })
            .collect()
    }

    #[test]
    fn epoch_pipeline_matches_sequential_access() {
        // Conflict-free 2-core epoch: phase 1 per core + phase 2 global
        // replay must equal interleaved sequential access() calls.
        let mut seq = sys(2);
        let mut epo = sys(2);

        // Per-core streams over disjoint regions (stride to exercise
        // all levels + the prefetcher).
        let ops_of = |core: u64| -> Vec<BatchOp> {
            (0..2000)
                .map(|i| BatchOp {
                    kind: if i % 7 == 0 { AccessKind::Store } else { AccessKind::Load },
                    addr: (core + 1) * 0x100_0000 + i * 24,
                    size: 8,
                })
                .collect()
        };
        let per_core = [ops_of(0), ops_of(1)];
        let (free, pipelined) = run_epoch(&mut epo, &per_core, 1, 0);
        assert!(free);
        assert_eq!(pipelined, run_sequential(&mut seq, &per_core, 0));
        assert_eq!(seq.stats(), epo.stats());
    }

    /// What `epoch_conflict_free` must compute, read off its doc
    /// comment: no line touched by two cores, none held by another.
    fn brute_force_conflict_free(m: &MemorySystem, per_core: &[Vec<BatchOp>]) -> bool {
        let mut touched_by: HashMap<Addr, usize> = HashMap::new();
        for (c, ops) in per_core.iter().enumerate() {
            for op in ops {
                for line in lines_of_access(op.addr, op.size) {
                    if *touched_by.entry(line).or_insert(c) != c
                        || (0..per_core.len()).any(|o| o != c && m.core_holds_line(o, line))
                    {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Random 3-core epochs over three adjacent 3-page slabs and one
    /// shared page: private streams (whose prefetches run on into the
    /// next core's slab), the shared page, the neighbour's first lines,
    /// accesses straddling a page boundary (the last one of a slab
    /// straddles into the neighbour's). Some epochs have one active
    /// core, some several.
    fn random_epoch(x: &mut u64, cursors: &mut [u64; 3]) -> Vec<Vec<BatchOp>> {
        const SLAB: u64 = 3 * 4096;
        const BASE: u64 = 0x40_0000;
        let sharing = xorshift(x).is_multiple_of(4);
        (0..3u64)
            .map(|c| {
                let len = match xorshift(x) % 4 {
                    0 => 0,
                    _ => 1 + xorshift(x) % 48,
                };
                (0..len)
                    .map(|_| {
                        let r = xorshift(x);
                        let kind = if r & 3 == 0 { AccessKind::Store } else { AccessKind::Load };
                        let (addr, size) = match (r >> 2) % 16 {
                            0 if sharing => (BASE + 3 * SLAB + (r >> 8) % 4096, 8),
                            1 if sharing => (BASE + ((c + 1) % 3) * SLAB + (r >> 8) % 256, 8),
                            2 => (BASE + c * SLAB + (1 + (r >> 8) % 3) * 4096 - 4, 8),
                            _ => {
                                cursors[c as usize] = (cursors[c as usize] + 8 + (r >> 8) % 72) % SLAB;
                                (BASE + c * SLAB + cursors[c as usize], 1 + ((r >> 16) % 16) as u32)
                            }
                        };
                        BatchOp { kind, addr, size }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn conflict_check_and_both_epoch_paths_equal_their_oracles() {
        let (mut pipelined, mut several_active_free, mut sequential) = (0, 0, 0);
        for seed in 1..=9u64 {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut cursors = [0u64; 3];
            let (l3_policy, l3_sets) = L3_VARIANTS[seed as usize % 3];
            let (mut filtered, mut oracle) = sys_and_oracle(3, l3_policy, l3_sets);
            for epoch in 0..400u64 {
                let per_core = random_epoch(&mut x, &mut cursors);
                let want = brute_force_conflict_free(&filtered, &per_core);
                let now = epoch * 1000;
                let (free, got) = run_epoch(&mut filtered, &per_core, 1, now);
                let (oracle_free, oracle_got) = run_epoch(&mut oracle, &per_core, 1, now);
                assert_eq!(free, want, "seed {seed} epoch {epoch}");
                assert_eq!(oracle_free, want, "seed {seed} epoch {epoch} (oracle)");
                assert_eq!(got, oracle_got, "seed {seed} epoch {epoch} (conflict-free: {want})");
                assert_owners_cover_holders(&filtered);
                let active = per_core.iter().filter(|ops| !ops.is_empty()).count();
                match (want, active > 1) {
                    (true, true) => several_active_free += 1,
                    (true, false) => pipelined += 1,
                    (false, _) => sequential += 1,
                }
            }
            assert_eq!(filtered.stats(), oracle.stats(), "seed {seed}");
            let s = filtered.stats();
            assert!(s.coherence_invalidations > 0 && s.coherence_downgrades > 0, "seed {seed}: {s:?}");
            assert!(s.cores.iter().all(|c| c.l2.prefetch_fills > 0), "seed {seed}: {s:?}");
        }
        // Every path has to have been taken often enough to mean something.
        assert!(pipelined > 100 && several_active_free > 100 && sequential > 100,
            "{pipelined} single-core, {several_active_free} multi-core conflict-free epochs, {sequential} conflicting");
    }

    #[test]
    fn epoch_results_do_not_depend_on_threads() {
        let mut parallel_epochs = 0;
        for seed in 1..=3u64 {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut cursors = [0u64; 3];
            let (l3_policy, l3_sets) = L3_VARIANTS[seed as usize % 3];
            let mut systems = [1, 2, 3].map(|threads| (threads, sys_and_oracle(3, l3_policy, l3_sets).0));
            for epoch in 0..400u64 {
                let per_core = random_epoch(&mut x, &mut cursors);
                let [one, two, three] =
                    systems.each_mut().map(|(threads, m)| run_epoch(m, &per_core, *threads, epoch * 1000));
                assert_eq!(one, two, "seed {seed} epoch {epoch}: 1 vs 2 threads");
                assert_eq!(one, three, "seed {seed} epoch {epoch}: 1 vs 3 threads");
                let active = per_core.iter().filter(|ops| !ops.is_empty()).count();
                if one.0 && active > 1 {
                    parallel_epochs += 1;
                }
            }
            let [a, b, c] = systems.each_ref().map(|(_, m)| m.stats());
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(a, c, "seed {seed}");
        }
        assert!(parallel_epochs > 100, "{parallel_epochs} conflict-free epochs with several active cores");
    }
}

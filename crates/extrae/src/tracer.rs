//! The tracer façade: what an instrumented application links against.
//!
//! The [`Tracer`] collects instrumentation events, counter samples and
//! PEBS samples; interposes on dynamic allocation; and finally yields
//! a self-contained [`Trace`].
//!
//! Timestamps are supplied by the caller (the simulated machine's
//! cycle clock), keeping this crate clock-agnostic.

use crate::events::{EventPayload, RegionId, TraceEvent};
use crate::objects::{ObjectId, ObjectRegistry};
use crate::sim_alloc::SimAllocator;
use crate::source::{CodeLocation, Ip, SourceMap};
use mempersp_pebs::{CounterSnapshot, PebsSample};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Tracer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracerConfig {
    /// Dynamic allocations smaller than this many bytes are *not*
    /// registered as data objects (real Extrae applies such a threshold
    /// to bound trace size; HPCG's per-row allocations fall below it,
    /// which is the paper's Section III observation).
    pub alloc_threshold: u64,
    /// Seed for the simulated ASLR slide.
    pub aslr_seed: u64,
    /// Nominal core frequency, for cycle → ns conversion.
    pub freq_mhz: u32,
}

impl Default for TracerConfig {
    fn default() -> Self {
        Self { alloc_threshold: 1024, aslr_seed: 0x5EED, freq_mhz: 2500 }
    }
}

/// Counters of address→object resolution, the paper's "preliminary
/// analysis" metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolutionStats {
    pub resolved: u64,
    pub unresolved: u64,
}

impl ResolutionStats {
    /// Fraction of PEBS samples that hit a known object (0 when no
    /// samples were taken).
    pub fn resolved_fraction(&self) -> f64 {
        let total = self.resolved + self.unresolved;
        if total == 0 {
            0.0
        } else {
            self.resolved as f64 / total as f64
        }
    }
}

/// Run-level metadata embedded in the trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    pub freq_mhz: u32,
    pub num_cores: usize,
    pub aslr_slide: u64,
    /// Free-form description (application, problem size, ...).
    pub description: String,
}

/// A completed monitoring run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    pub meta: TraceMeta,
    pub events: Vec<TraceEvent>,
    pub source: SourceMap,
    pub objects: ObjectRegistry,
    /// Region names indexed by `RegionId`.
    pub region_names: Vec<String>,
    pub resolution: ResolutionStats,
}

impl Trace {
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// The id of a region by name.
    pub fn region_id(&self, name: &str) -> Option<RegionId> {
        self.region_names
            .iter()
            .position(|n| n == name)
            .map(|i| RegionId(i as u32))
    }

    /// Name of a region id.
    pub fn region_name(&self, id: RegionId) -> &str {
        &self.region_names[id.0 as usize]
    }

    /// Convert a cycle timestamp to nanoseconds at the nominal
    /// frequency.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * 1000.0 / self.meta.freq_mhz as f64
    }

    /// All `(start_cycles, end_cycles)` instances of a region on a
    /// given core, from matching enter/exit pairs (nested instances of
    /// *other* regions are ignored; recursive instances of the same
    /// region are matched innermost-first and only top-level pairs are
    /// returned).
    pub fn region_instances(&self, region: RegionId, core: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut depth = 0u32;
        let mut start = 0u64;
        for e in &self.events {
            if e.core != core {
                continue;
            }
            match &e.payload {
                EventPayload::RegionEnter { region: r, .. } if *r == region => {
                    if depth == 0 {
                        start = e.cycles;
                    }
                    depth += 1;
                }
                EventPayload::RegionExit { region: r, .. } if *r == region
                    && depth > 0 => {
                        depth -= 1;
                        if depth == 0 {
                            out.push((start, e.cycles));
                        }
                    }
                _ => {}
            }
        }
        out
    }

    /// Iterate PEBS events with their resolved object ids.
    pub fn pebs_events(&self) -> impl Iterator<Item = (&TraceEvent, &PebsSample, Option<ObjectId>)> {
        self.events.iter().filter_map(|e| match &e.payload {
            EventPayload::Pebs { sample, object } => Some((e, sample, *object)),
            _ => None,
        })
    }
}

/// Capture state for a manual allocation group.
#[derive(Debug, Clone)]
struct GroupCapture {
    name: String,
    lo: u64,
    hi: u64,
    allocated: u64,
    members: u64,
}

/// What keeping the lanes sorted cost: the count guard that recording
/// and draining stay linear in events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Events recorded with a timestamp below their lane's newest (a
    /// timer sample fired right after a PEBS sample, an allocation
    /// issued from a core whose clock lags).
    pub backdated_pushes: u64,
    /// Buffered events stepped over (and shifted) to place them.
    pub displaced_events: u64,
}

/// A buffered event with its global recording number.
type Buffered = (u64, TraceEvent);

/// The monitoring runtime.
#[derive(Debug)]
pub struct Tracer {
    cfg: TracerConfig,
    num_cores: usize,
    /// Buffered events, one lane per core plus a last one for the
    /// allocation events (stamped `core: 0` whichever core's clock
    /// timed them); every lane is sorted by `(cycles, seq)`.
    lanes: Vec<VecDeque<Buffered>>,
    /// Recording number of the next event.
    next_seq: u64,
    buffered: usize,
    max_buffered: usize,
    lane_stats: LaneStats,
    source: SourceMap,
    objects: ObjectRegistry,
    alloc: SimAllocator,
    region_names: Vec<String>,
    region_index: HashMap<String, RegionId>,
    /// Per-core stack of open regions.
    region_stacks: Vec<Vec<RegionId>>,
    group: Option<GroupCapture>,
    resolution: ResolutionStats,
    /// Call-site of each live tracked allocation (for realloc naming).
    alloc_sites: HashMap<u64, Ip>,
}

impl Tracer {
    pub fn new(cfg: TracerConfig, num_cores: usize) -> Self {
        assert!(num_cores >= 1);
        Self {
            alloc: SimAllocator::new(cfg.aslr_seed),
            cfg,
            num_cores,
            lanes: vec![VecDeque::new(); num_cores + 1],
            next_seq: 0,
            buffered: 0,
            max_buffered: 0,
            lane_stats: LaneStats::default(),
            source: SourceMap::new(),
            objects: ObjectRegistry::new(),
            region_names: Vec::new(),
            region_index: HashMap::new(),
            region_stacks: vec![Vec::new(); num_cores],
            group: None,
            resolution: ResolutionStats::default(),
            alloc_sites: HashMap::new(),
        }
    }

    /// The tracer's configuration.
    pub fn config(&self) -> &TracerConfig {
        &self.cfg
    }

    /// Register (or look up) an instrumented statement.
    pub fn location(&mut self, file: &str, line: u32, function: &str) -> Ip {
        self.source.intern(CodeLocation::new(file, line, function))
    }

    /// Intern a region name.
    pub fn region(&mut self, name: &str) -> RegionId {
        if let Some(&id) = self.region_index.get(name) {
            return id;
        }
        let id = RegionId(self.region_names.len() as u32);
        self.region_names.push(name.to_string());
        self.region_index.insert(name.to_string(), id);
        id
    }

    /// Enter an instrumented region on `core` at cycle `now`.
    pub fn enter(&mut self, core: usize, name: &str, counters: CounterSnapshot, now: u64) -> RegionId {
        let id = self.region(name);
        self.region_stacks[core].push(id);
        self.push(core, TraceEvent {
            cycles: now,
            core,
            payload: EventPayload::RegionEnter { region: id, counters },
        });
        id
    }

    /// Exit the innermost open region on `core`. Panics if the named
    /// region is not the innermost (unbalanced instrumentation is a
    /// bug in the workload).
    pub fn exit(&mut self, core: usize, name: &str, counters: CounterSnapshot, now: u64) {
        let id = *self
            .region_index
            .get(name)
            .unwrap_or_else(|| panic!("exit of unknown region {name:?}"));
        let top = self.region_stacks[core]
            .pop()
            .unwrap_or_else(|| panic!("exit of {name:?} with empty region stack"));
        assert_eq!(
            top, id,
            "unbalanced instrumentation: exiting {name:?} but innermost is {:?}",
            self.region_names[top.0 as usize]
        );
        self.push(core, TraceEvent {
            cycles: now,
            core,
            payload: EventPayload::RegionExit { region: id, counters },
        });
    }

    /// Timer-driven sample of the program counter + counters. The
    /// current region stack of `core` is captured with the sample, as
    /// real Extrae captures the call stack.
    pub fn record_counter_sample(&mut self, core: usize, ip: Ip, counters: CounterSnapshot, now: u64) {
        let stack = self.region_stacks[core].clone();
        self.push(core, TraceEvent {
            cycles: now,
            core,
            payload: EventPayload::CounterSample { ip, counters, stack },
        });
    }

    /// Forward a PEBS sample; the address is resolved against the
    /// object registry *at capture time* (objects may be freed later).
    pub fn record_pebs(&mut self, sample: PebsSample) {
        let object = self.objects.resolve_id(sample.addr).map(|(id, _)| id);
        if object.is_some() {
            self.resolution.resolved += 1;
        } else {
            self.resolution.unresolved += 1;
        }
        self.push(sample.core, TraceEvent {
            cycles: sample.timestamp,
            core: sample.core,
            payload: EventPayload::Pebs { sample, object },
        });
    }

    /// Record a multiplexer rotation.
    pub fn record_mux_switch(&mut self, core: usize, event_index: usize, label: &str, now: u64) {
        self.push(core, TraceEvent {
            cycles: now,
            core,
            payload: EventPayload::MuxSwitch { event_index, label: label.to_string() },
        });
    }

    /// Free-form user event.
    pub fn user_event(&mut self, core: usize, kind: u32, value: u64, now: u64) {
        self.push(core, TraceEvent { cycles: now, core, payload: EventPayload::User { kind, value } });
    }

    // ----- allocation interposition ---------------------------------

    /// Interposed `malloc`: returns the simulated address. Allocations
    /// at or above the threshold become data objects named by their
    /// call-site; all allocations extend an open group capture.
    pub fn malloc(&mut self, size: u64, callsite: &CodeLocation, now: u64) -> u64 {
        let ip = self.source.intern(callsite.clone());
        let base = self.alloc.malloc(size);
        if let Some(g) = &mut self.group {
            g.lo = g.lo.min(base);
            g.hi = g.hi.max(base + size);
            g.allocated += size;
            g.members += 1;
        }
        if size >= self.cfg.alloc_threshold {
            self.objects.register_dynamic(&callsite.file_line(), base, size);
            self.alloc_sites.insert(base, ip);
            self.push(self.num_cores, TraceEvent {
                cycles: now,
                core: 0,
                payload: EventPayload::Alloc { base, size, callsite: ip },
            });
        }
        base
    }

    /// Interposed `free`. Unknown bases are ignored (like glibc's
    /// tolerance is *not*, but the tracer must not crash the app).
    pub fn free(&mut self, base: u64, now: u64) {
        if self.alloc.free(base).is_some()
            && self.objects.remove_dynamic(base).is_some() {
                self.alloc_sites.remove(&base);
                self.push(self.num_cores, TraceEvent { cycles: now, core: 0, payload: EventPayload::Free { base } });
            }
    }

    /// Interposed `realloc`: move + rename, keeping the original
    /// call-site identity as real Extrae does.
    pub fn realloc(&mut self, base: u64, new_size: u64, callsite: &CodeLocation, now: u64) -> Option<u64> {
        self.alloc.containing(base)?;
        self.free(base, now);
        Some(self.malloc(new_size, callsite, now))
    }

    /// Begin capturing allocations into a named group (the paper's
    /// manual wrapping of HPCG's tiny per-row allocations). Nested
    /// groups are not supported.
    pub fn begin_alloc_group(&mut self, name: &str) {
        assert!(self.group.is_none(), "allocation groups cannot nest");
        self.group = Some(GroupCapture {
            name: name.to_string(),
            lo: u64::MAX,
            hi: 0,
            allocated: 0,
            members: 0,
        });
    }

    /// Close the open group, registering the wrapped address range as
    /// one object. Returns the object id (None if nothing was
    /// allocated inside the group).
    pub fn end_alloc_group(&mut self) -> Option<ObjectId> {
        let g = self.group.take().expect("no open allocation group");
        if g.members == 0 {
            return None;
        }
        Some(self.objects.register_group(&g.name, g.lo, g.hi - g.lo, g.allocated))
    }

    /// Register a static data object (symbol-table scan).
    pub fn register_static(&mut self, name: &str, base: u64, size: u64) -> ObjectId {
        self.objects.register_static(name, base, size)
    }

    /// The ASLR slide of this run's address space.
    pub fn aslr_slide(&self) -> u64 {
        self.alloc.slide()
    }

    /// Direct read-only access to the object registry.
    pub fn objects(&self) -> &ObjectRegistry {
        &self.objects
    }

    /// Direct read-only access to the source map.
    pub fn source(&self) -> &SourceMap {
        &self.source
    }

    /// Events currently buffered (recorded and not yet drained).
    pub fn num_events(&self) -> usize {
        self.buffered
    }

    /// The most events ever buffered at once: the memory a streaming
    /// run really needed (an epoch's events plus everything above the
    /// watermark), or the whole trace for a run that never drains.
    pub fn max_buffered_events(&self) -> usize {
        self.max_buffered
    }

    /// Cost counters of the sorted lanes.
    pub fn lane_stats(&self) -> LaneStats {
        self.lane_stats
    }

    /// Current resolution statistics.
    pub fn resolution(&self) -> ResolutionStats {
        self.resolution
    }

    /// Buffer one event in `lane`, keeping the lane sorted by
    /// `(cycles, seq)`. A core's clock only moves forward, so this is
    /// an append unless the event is back-dated; then it is placed
    /// after the last buffered event that is not later — its position
    /// in a stable sort by `cycles` — found from the back, where it is
    /// at most a few events away.
    fn push(&mut self, lane: usize, event: TraceEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buffered += 1;
        self.max_buffered = self.max_buffered.max(self.buffered);
        let lane = &mut self.lanes[lane];
        let later = lane.iter().rev().take_while(|(_, e)| e.cycles > event.cycles).count();
        if later == 0 {
            lane.push_back((seq, event));
        } else {
            self.lane_stats.backdated_pushes += 1;
            self.lane_stats.displaced_events += later as u64;
            lane.insert(lane.len() - later, (seq, event));
        }
    }

    /// The next stretch of the global `(cycles, seq)` order that lies
    /// at or below `watermark`: the lane whose head is the smallest,
    /// and how many of its leading events precede every other lane's
    /// head. Looks at lane heads, plus the events it counts.
    fn next_run(&self, watermark: u64) -> Option<(usize, usize)> {
        let key = |&(seq, ref e): &Buffered| (e.cycles, seq);
        let mut best: Option<(usize, (u64, u64))> = None;
        // Smallest head among the other lanes; nothing if they are empty.
        let mut bound = (u64::MAX, u64::MAX);
        for (i, lane) in self.lanes.iter().enumerate() {
            let Some(head) = lane.front().map(key) else { continue };
            match best {
                Some((_, k)) if k < head => bound = bound.min(head),
                Some((_, k)) => {
                    bound = k;
                    best = Some((i, head));
                }
                None => best = Some((i, head)),
            }
        }
        let (lane, head) = best?;
        if head.0 > watermark {
            return None;
        }
        let run = self.lanes[lane]
            .iter()
            .take_while(|&b| b.1.cycles <= watermark && key(b) < bound)
            .count();
        Some((lane, run))
    }

    /// Streaming support: hand over every buffered event whose
    /// timestamp is `<= watermark`, in exactly the global order
    /// [`Tracer::finish`] would have produced, appending them to
    /// `out`. Later-timestamped events stay buffered.
    ///
    /// The caller promises that every event it will record *after*
    /// this call carries a timestamp `>= watermark` (for the machine,
    /// the watermark is the minimum of all per-core clocks at an epoch
    /// boundary — core clocks only move forward). Under that contract,
    /// concatenating successive drains with the events left for
    /// `finish` reproduces the finish-time order byte for byte: it is
    /// a merge of the lanes by `(cycles, seq)`, later events cannot
    /// sort before the watermark, and ties on the watermark itself
    /// were recorded — so numbered — before any future one.
    ///
    /// The cost is proportional to the events handed over, not to the
    /// events buffered: a call that drains nothing reads the lane
    /// heads and returns.
    pub fn drain_ready(&mut self, watermark: u64, out: &mut Vec<TraceEvent>) {
        while let Some((lane, run)) = self.next_run(watermark) {
            out.extend(self.lanes[lane].drain(..run).map(|(_, e)| e));
            self.buffered -= run;
        }
    }

    /// [`Tracer::drain_ready`] without the copy: every ready event is
    /// shown to `sink` where it lies and then dropped. Stops at the
    /// first error (the events of the stretch it struck in are gone).
    pub fn drain_ready_with<E>(
        &mut self,
        watermark: u64,
        mut sink: impl FnMut(&TraceEvent) -> Result<(), E>,
    ) -> Result<(), E> {
        while let Some((lane, run)) = self.next_run(watermark) {
            let lane = &mut self.lanes[lane];
            let res = lane.range(..run).try_for_each(|(_, e)| sink(e));
            lane.drain(..run);
            self.buffered -= run;
            res?;
        }
        Ok(())
    }

    /// Finish the run and produce the trace. Panics if any region is
    /// still open (unbalanced instrumentation).
    pub fn finish(mut self, description: &str) -> Trace {
        for (core, stack) in self.region_stacks.iter().enumerate() {
            assert!(
                stack.is_empty(),
                "core {core} finished with {} open region(s): {:?}",
                stack.len(),
                stack.iter().map(|r| &self.region_names[r.0 as usize]).collect::<Vec<_>>()
            );
        }
        // Events from different cores interleave; merging the lanes
        // gives consumers a stable global time order.
        let mut events = Vec::with_capacity(self.buffered);
        self.drain_ready(u64::MAX, &mut events);
        Trace {
            meta: TraceMeta {
                freq_mhz: self.cfg.freq_mhz,
                num_cores: self.num_cores,
                aslr_slide: self.alloc.slide(),
                description: description.to_string(),
            },
            events,
            source: self.source,
            objects: self.objects,
            region_names: self.region_names,
            resolution: self.resolution,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_memsim::MemLevel;

    fn loc(line: u32) -> CodeLocation {
        CodeLocation::new("GenerateProblem_ref.cpp", line, "GenerateProblem")
    }

    fn sample(addr: u64, ts: u64) -> PebsSample {
        PebsSample {
            timestamp: ts,
            core: 0,
            ip: 0x400000,
            addr,
            size: 8,
            is_store: false,
            latency: 10,
            source: MemLevel::L2,
            tlb_miss: false,
        }
    }

    #[test]
    fn region_lifecycle_and_instances() {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let c = CounterSnapshot::default();
        for i in 0..3u64 {
            t.enter(0, "ComputeSYMGS_ref", c, i * 100);
            t.exit(0, "ComputeSYMGS_ref", c, i * 100 + 50);
        }
        let tr = t.finish("test");
        let id = tr.region_id("ComputeSYMGS_ref").unwrap();
        assert_eq!(tr.region_instances(id, 0), vec![(0, 50), (100, 150), (200, 250)]);
        assert_eq!(tr.region_name(id), "ComputeSYMGS_ref");
    }

    #[test]
    fn nested_and_recursive_regions() {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let c = CounterSnapshot::default();
        t.enter(0, "MG", c, 0);
        t.enter(0, "SYMGS", c, 10);
        t.exit(0, "SYMGS", c, 20);
        t.enter(0, "MG", c, 30); // recursion
        t.exit(0, "MG", c, 40);
        t.exit(0, "MG", c, 50);
        let tr = t.finish("test");
        let mg = tr.region_id("MG").unwrap();
        assert_eq!(tr.region_instances(mg, 0), vec![(0, 50)], "only top-level pair");
        let sy = tr.region_id("SYMGS").unwrap();
        assert_eq!(tr.region_instances(sy, 0), vec![(10, 20)]);
    }

    #[test]
    #[should_panic(expected = "unbalanced instrumentation")]
    fn unbalanced_exit_panics() {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let c = CounterSnapshot::default();
        t.enter(0, "A", c, 0);
        t.enter(0, "B", c, 1);
        t.exit(0, "A", c, 2);
    }

    #[test]
    #[should_panic(expected = "open region")]
    fn finish_with_open_region_panics() {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        t.enter(0, "A", CounterSnapshot::default(), 0);
        let _ = t.finish("bad");
    }

    #[test]
    fn small_allocations_below_threshold_are_unresolved() {
        let mut t = Tracer::new(TracerConfig { alloc_threshold: 1024, ..Default::default() }, 1);
        // HPCG-style tiny allocation (216 B < 1 KiB threshold).
        let p = t.malloc(216, &loc(110), 0);
        t.record_pebs(sample(p + 8, 10));
        assert_eq!(t.resolution().resolved, 0);
        assert_eq!(t.resolution().unresolved, 1);
    }

    #[test]
    fn large_allocations_resolve_by_callsite() {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let p = t.malloc(1 << 20, &loc(143), 0);
        t.record_pebs(sample(p + 4096, 10));
        assert_eq!(t.resolution().resolved, 1);
        let tr = t.finish("test");
        let (_, _, obj) = tr.pebs_events().next().unwrap();
        let o = tr.objects.get(obj.unwrap()).unwrap();
        assert_eq!(o.name, "GenerateProblem_ref.cpp:143");
    }

    #[test]
    fn grouping_rescues_tiny_allocations() {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        t.begin_alloc_group("124_GenerateProblem_ref.cpp");
        let mut first = u64::MAX;
        let mut last = 0;
        for _ in 0..100 {
            let p = t.malloc(216, &loc(110), 0);
            first = first.min(p);
            last = last.max(p + 216);
        }
        let gid = t.end_alloc_group().unwrap();
        let desc = t.objects().get(gid).unwrap().clone();
        assert_eq!(desc.base, first);
        assert_eq!(desc.end(), last);
        assert_eq!(desc.allocated_bytes, 21_600);
        // A sample inside any member now resolves to the group.
        t.record_pebs(sample(first + 1000, 5));
        assert_eq!(t.resolution().resolved, 1);
    }

    #[test]
    fn empty_group_yields_none() {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        t.begin_alloc_group("empty");
        assert!(t.end_alloc_group().is_none());
    }

    #[test]
    fn free_unregisters_object() {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let p = t.malloc(4096, &loc(1), 0);
        t.free(p, 1);
        t.record_pebs(sample(p, 2));
        assert_eq!(t.resolution().unresolved, 1);
        // Double free is a no-op.
        t.free(p, 3);
    }

    #[test]
    fn realloc_keeps_callsite_name() {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let p = t.malloc(4096, &loc(7), 0);
        let q = t.realloc(p, 8192, &loc(7), 1).unwrap();
        assert_ne!(p, q);
        t.record_pebs(sample(q + 100, 2));
        assert_eq!(t.resolution().resolved, 1);
        assert!(t.realloc(0xbad, 10, &loc(7), 2).is_none());
    }

    #[test]
    fn finish_sorts_events_globally() {
        let mut t = Tracer::new(TracerConfig::default(), 2);
        let c = CounterSnapshot::default();
        t.enter(1, "B", c, 50);
        t.enter(0, "A", c, 10);
        t.exit(0, "A", c, 60);
        t.exit(1, "B", c, 55);
        let tr = t.finish("test");
        let times: Vec<u64> = tr.events.iter().map(|e| e.cycles).collect();
        assert_eq!(times, vec![10, 50, 55, 60]);
    }

    #[test]
    fn cycles_to_ns_uses_nominal_frequency() {
        let t = Tracer::new(TracerConfig { freq_mhz: 2500, ..Default::default() }, 1);
        let tr = t.finish("test");
        assert!((tr.cycles_to_ns(2500) - 1000.0).abs() < 1e-9, "2500 cycles @2.5GHz = 1 µs");
    }

    #[test]
    fn drain_ready_reproduces_finish_order() {
        // Two tracers fed identically; one is drained incrementally at
        // watermarks, the other finishes in one go. The concatenation
        // of the drains plus the finish residue must match the
        // one-shot finish order exactly, including ties.
        let feed = |t: &mut Tracer| {
            let c = CounterSnapshot::default();
            t.enter(1, "B", c, 50);
            t.enter(0, "A", c, 10);
            t.user_event(0, 1, 1, 50); // tie with core 1's enter
            t.exit(0, "A", c, 60);
            t.user_event(1, 2, 2, 55);
            t.exit(1, "B", c, 80);
        };
        let mut whole = Tracer::new(TracerConfig::default(), 2);
        feed(&mut whole);
        let reference = whole.finish("ref").events;

        let mut streamed = Tracer::new(TracerConfig::default(), 2);
        let c = CounterSnapshot::default();
        let mut drained = Vec::new();
        streamed.enter(1, "B", c, 50);
        streamed.enter(0, "A", c, 10);
        streamed.user_event(0, 1, 1, 50);
        // Watermark 50: core 0 is at 50, core 1 at 50; ties on the
        // watermark drain in recording order.
        streamed.drain_ready(50, &mut drained);
        assert_eq!(drained.len(), 3, "10, 50, 50 are all <= watermark");
        streamed.exit(0, "A", c, 60);
        streamed.user_event(1, 2, 2, 55);
        streamed.drain_ready(55, &mut drained);
        streamed.exit(1, "B", c, 80);
        let residue = streamed.finish("streamed").events;
        drained.extend(residue);
        assert_eq!(drained, reference);
    }

    #[test]
    fn drain_ready_leaves_later_events_buffered() {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        t.user_event(0, 1, 1, 10);
        t.user_event(0, 1, 2, 100);
        let mut out = Vec::new();
        t.drain_ready(50, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(t.num_events(), 1, "the t=100 event stays buffered");
        t.drain_ready(u64::MAX, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(t.num_events(), 0);
    }

    #[test]
    fn stuck_watermark_drains_nothing_and_moves_nothing() {
        // A rank that has not started holds the watermark at 0 while
        // the others fill their lanes.
        let mut t = Tracer::new(TracerConfig::default(), 4);
        for i in 0..100_000u64 {
            t.user_event((i % 3) as usize, 1, i, 1 + i / 3);
        }
        let mut out = Vec::new();
        for _ in 0..1_000 {
            t.drain_ready(0, &mut out);
            t.drain_ready_with(0, |_| -> Result<(), ()> { panic!("nothing is ready") }).unwrap();
        }
        assert!(out.is_empty() && out.capacity() == 0, "nothing handed over");
        assert_eq!(t.num_events(), 100_000);
        assert_eq!(t.max_buffered_events(), 100_000);
        assert_eq!(t.lane_stats(), LaneStats::default(), "in-order pushes displace nothing");
        let values: Vec<u64> = t
            .finish("stuck")
            .events
            .iter()
            .map(|e| match e.payload {
                EventPayload::User { value, .. } => value,
                _ => unreachable!(),
            })
            .collect();
        assert!(values.iter().copied().eq(0..100_000), "recording order, untouched");
    }

    fn kind(e: &TraceEvent) -> (u64, &'static str) {
        let name = match e.payload {
            EventPayload::User { .. } => "user",
            EventPayload::MuxSwitch { .. } => "mux",
            EventPayload::Pebs { .. } => "pebs",
            EventPayload::CounterSample { .. } => "sample",
            EventPayload::Alloc { .. } => "alloc",
            EventPayload::Free { .. } => "free",
            _ => "region",
        };
        (e.cycles, name)
    }

    #[test]
    fn backdated_events_take_their_stable_position() {
        let mut t = Tracer::new(TracerConfig::default(), 2);
        let c = CounterSnapshot::default();
        t.user_event(0, 1, 0, 10);
        t.record_mux_switch(0, 1, "stores", 20);
        t.record_pebs(sample(64, 20));
        // The timer fired at 15 and at 20, noticed after the sample.
        t.record_counter_sample(0, Ip(1), c, 15);
        t.record_counter_sample(0, Ip(2), c, 20);
        // An allocation timed by core 1's lagging clock is stamped
        // core 0 but does not disturb core 0's lane.
        let base = t.malloc(4096, &loc(1), 12);
        assert_eq!(t.lane_stats(), LaneStats { backdated_pushes: 1, displaced_events: 2 });
        let mut out = Vec::new();
        t.drain_ready(15, &mut out);
        let order: Vec<(u64, &str)> = out.iter().map(kind).collect();
        assert_eq!(order, [(10, "user"), (12, "alloc"), (15, "sample")]);
        t.free(base, 12);
        assert_eq!(t.lane_stats().backdated_pushes, 1, "the allocation lane was empty again");
        let rest = t.finish("backdated").events;
        let order: Vec<(u64, &str)> = rest.iter().map(kind).collect();
        assert_eq!(order, [(12, "free"), (20, "mux"), (20, "pebs"), (20, "sample")]);
    }

    #[test]
    fn mux_and_user_events_recorded() {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        t.record_mux_switch(0, 1, "stores", 100);
        t.user_event(0, 42, 7, 200);
        let tr = t.finish("test");
        assert_eq!(tr.num_events(), 2);
    }
}

//! The simulated machine: cores + hierarchy + PMU + PEBS + tracer.
//!
//! Timing model (documented in DESIGN.md):
//!
//! * non-memory instructions retire at [`BASE_CPI`] cycles each;
//! * an L1-hit access costs [`L1_HIT_COST`] cycles (store-to-load
//!   forwarding and pipelining hide most of the 4-cycle latency);
//! * a miss costs `latency / overlap`, where `overlap` is the
//!   workload-declared memory-level parallelism of the running kernel
//!   (dependent Gauss–Seidel sweeps overlap ~2 misses, streaming SpMV
//!   ~6; [`DEFAULT_OVERLAP`] until the workload's first declaration) —
//!   the stand-in for an out-of-order window;
//! * the cycle clock is per core; [`AppContext::barrier`] aligns all
//!   clocks to the maximum (idle cycles still advance the cycle
//!   counter, as a busy-wait would).
//!
//! Execution is *epoch-pipelined* (DESIGN.md §7): issued operations
//! are buffered until an observation point (region boundary,
//! malloc/free, barrier, clock read, buffer cap). The memory side of
//! an epoch belongs to memsim: the machine issues each memory
//! operation with [`MemorySystem::issue`], opens the epoch with
//! [`MemorySystem::begin_epoch`] (on up to [`MachineConfig::threads`]
//! worker threads), and walks its own log of the epoch in global issue
//! order, taking each access's result from
//! [`MemorySystem::retire_next`] and accounting compute work in
//! between. Results are bit-identical for any thread count, including
//! 1.

use mempersp_extrae::{
    AppContext, CodeLocation, EventSink, Ip, LaneStats, MemRequest, Trace, Tracer, TracerConfig,
    Workload,
};
use mempersp_memsim::{AccessKind, AccessResult, BatchOp, HierarchyConfig, MemLevel, MemorySystem};
use mempersp_pebs::{
    EventKind, MemOp, MultiplexStats, Multiplexer, PebsEvent, Pmu, SamplingConfig,
};

/// Default for [`MachineConfig::epoch_cap`]: flush an epoch after this
/// many buffered operations — bounds memory and keeps the private
/// phase within cache-friendly batch sizes.
pub const DEFAULT_EPOCH_CAP: usize = 32_768;

/// Cycles per non-memory instruction.
pub const BASE_CPI: f64 = 0.25;

/// Effective cycles charged for an L1-hit access.
pub const L1_HIT_COST: f64 = 0.5;

/// Memory-level parallelism assumed before the workload's first
/// `set_overlap` call.
pub const DEFAULT_OVERLAP: f64 = 4.0;

/// Which cores capture PEBS samples.
///
/// The paper's figure shows one process's address space, so the
/// default samples core 0 only; `All` is useful for aggregate studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PebsCoreSelect {
    All,
    Only(usize),
}

impl PebsCoreSelect {
    fn includes(&self, core: usize) -> bool {
        match self {
            PebsCoreSelect::All => true,
            PebsCoreSelect::Only(c) => *c == core,
        }
    }
}

/// Full machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    pub cores: usize,
    pub hierarchy: HierarchyConfig,
    pub tracer: TracerConfig,
    /// Period of the Extrae-style timer sampling, in cycles.
    pub counter_sample_period: u64,
    /// PEBS events to multiplex (empty disables memory sampling).
    pub pebs_events: Vec<SamplingConfig>,
    /// Length of each multiplexing slice, in cycles.
    pub mux_slice_cycles: u64,
    /// Which cores run PEBS.
    pub pebs_cores: PebsCoreSelect,
    /// Worker threads for the private phase of conflict-free epochs
    /// (clamped to the core count). Results are identical for every
    /// value; this is purely a host-side speed knob.
    pub threads: usize,
    /// Flush an epoch once this many operations are buffered. Smaller
    /// caps tighten the streaming pipeline's memory bound (and the
    /// latency until events reach an attached sink) at the cost of
    /// more flushes. At any one value ≥ 1 results never depend on
    /// `threads`; across values they are identical unless a core
    /// re-uses, within an epoch, a line the inclusive L3 evicts during
    /// it (a pipelined epoch back-invalidates after its private phase;
    /// DESIGN.md §7 lists where that happens: not for HPCG on
    /// [`MachineConfig::haswell`], but on [`MachineConfig::small`]'s
    /// tiny L3 and where cores share lines).
    pub epoch_cap: usize,
}

impl MachineConfig {
    /// A small single-core machine for tests and examples: tiny
    /// hierarchy, aggressive sampling so short runs yield samples.
    pub fn small() -> Self {
        Self {
            cores: 1,
            hierarchy: HierarchyConfig::small_test(),
            tracer: TracerConfig { freq_mhz: 2000, ..Default::default() },
            counter_sample_period: 2_000,
            pebs_events: vec![
                SamplingConfig {
                    event: PebsEvent::LoadLatency { threshold: 0 },
                    period: 97,
                    randomization: 0.1,
                    seed: 11,
                },
                SamplingConfig {
                    event: PebsEvent::AllStores,
                    period: 53,
                    randomization: 0.1,
                    seed: 13,
                },
            ],
            mux_slice_cycles: 5_000,
            pebs_cores: PebsCoreSelect::All,
            threads: 1,
            epoch_cap: DEFAULT_EPOCH_CAP,
        }
    }

    /// A Haswell-node-like machine with `cores` cores (the paper's
    /// platform), PEBS on core 0, paper-style sampling rates.
    pub fn haswell(cores: usize) -> Self {
        Self {
            cores,
            hierarchy: HierarchyConfig::haswell_like(),
            tracer: TracerConfig { freq_mhz: 2500, ..Default::default() },
            counter_sample_period: 100_000,
            pebs_events: vec![
                SamplingConfig {
                    event: PebsEvent::LoadLatency { threshold: 0 },
                    period: 1009,
                    randomization: 0.1,
                    seed: 101,
                },
                SamplingConfig {
                    event: PebsEvent::AllStores,
                    period: 499,
                    randomization: 0.1,
                    seed: 103,
                },
            ],
            mux_slice_cycles: 250_000,
            pebs_cores: PebsCoreSelect::Only(0),
            threads: 1,
            epoch_cap: DEFAULT_EPOCH_CAP,
        }
    }
}

/// Everything a monitored run produces.
#[derive(Debug)]
pub struct RunReport {
    /// The trace. After [`Machine::run_streaming`] the event list is
    /// empty — every event went to the sink — but the header side
    /// (meta, source map, object registry, region names) is complete.
    pub trace: Trace,
    /// Hardware statistics accumulated over the whole run.
    pub stats: mempersp_memsim::SystemStats,
    /// Per-core multiplexer statistics (index = core).
    pub mux_stats: Vec<Option<MultiplexStats>>,
    /// Final cycle of the slowest core.
    pub wall_cycles: u64,
    /// Events handed to the streaming sink (0 for a materialized run).
    pub events_streamed: u64,
    /// Peak number of events the tracer held at once. A streaming run
    /// buffers an epoch's events plus every event above the watermark
    /// (the slowest core's clock), so a workload whose cores run one
    /// after another holds most of its trace; a materialized run holds
    /// all of it. Depends on `epoch_cap`, not on `threads`.
    pub max_buffered_events: u64,
    /// What keeping the tracer's lanes sorted cost.
    pub lane_stats: LaneStats,
}

struct CoreState {
    pmu: Pmu,
    /// Clock with sub-cycle remainder.
    clock_f: f64,
    overlap: f64,
    next_sample_at: u64,
    mux: Option<Multiplexer>,
    last_mux_index: usize,
}

impl CoreState {
    fn clock(&self) -> u64 {
        self.clock_f as u64
    }
}

/// The simulated machine.
///
/// ```
/// use mempersp_core::{Machine, MachineConfig};
/// use mempersp_extrae::{AppContext, CodeLocation, Workload};
///
/// struct Touch;
/// impl Workload for Touch {
///     fn name(&self) -> String { "touch".into() }
///     fn run(&mut self, ctx: &mut dyn AppContext) {
///         let ip = ctx.location("touch.rs", 1, "touch");
///         let base = ctx.malloc(0, 4096, &CodeLocation::new("touch.rs", 2, "t"));
///         ctx.enter(0, "touch");
///         for i in 0..512u64 {
///             ctx.load(0, ip, base + i * 8, 8);
///         }
///         ctx.exit(0, "touch");
///     }
/// }
///
/// let mut machine = Machine::new(MachineConfig::small());
/// let report = machine.run(&mut Touch);
/// assert_eq!(report.stats.total_cores().loads, 512);
/// assert!(report.trace.region_id("touch").is_some());
/// ```
pub struct Machine {
    cfg: MachineConfig,
    mem: MemorySystem,
    tracer: Tracer,
    cores: Vec<CoreState>,
    static_next: u64,
    /// Buffered operations of the open epoch, in global issue order.
    epoch: Vec<EpochOp>,
    /// Streaming sink for the current [`Machine::run_streaming`] call;
    /// `None` during materialized runs.
    sink: Option<Box<dyn EventSink>>,
    /// First sink I/O failure; once set, draining stops and
    /// `run_streaming` returns the error.
    sink_error: Option<std::io::Error>,
    events_streamed: u64,
}

/// One buffered operation. Memory ops are issued to memsim, which
/// hands each back with its result; the global log only needs issue
/// order and attribution.
#[derive(Debug, Clone, Copy)]
enum EpochOp {
    Mem { core: u32, ip: Ip },
    Compute { core: u32, ip: Ip, instructions: u64, branches: u64 },
}

impl Machine {
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(cfg.cores >= 1);
        assert!(cfg.epoch_cap >= 1, "an epoch holds at least one operation");
        let mem = MemorySystem::new(cfg.hierarchy.clone(), cfg.cores);
        let tracer = Tracer::new(cfg.tracer, cfg.cores);
        let cores = (0..cfg.cores)
            .map(|c| CoreState {
                pmu: Pmu::new(),
                clock_f: 0.0,
                overlap: DEFAULT_OVERLAP,
                next_sample_at: cfg.counter_sample_period.max(1),
                mux: if cfg.pebs_cores.includes(c) && !cfg.pebs_events.is_empty() {
                    Some(Multiplexer::new(cfg.pebs_events.clone(), cfg.mux_slice_cycles))
                } else {
                    None
                },
                last_mux_index: 0,
            })
            .collect();
        Self {
            cfg,
            mem,
            tracer,
            cores,
            static_next: 0x0060_0000,
            epoch: Vec::new(),
            sink: None,
            sink_error: None,
            events_streamed: 0,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Run a workload to completion and produce the report. The
    /// machine resets its tracer afterwards and can be reused; caches,
    /// PMU counts and clocks deliberately persist (a warm node), so
    /// use a fresh machine for independent experiments.
    pub fn run(&mut self, workload: &mut dyn Workload) -> RunReport {
        workload.run(self);
        self.flush_epoch();
        self.take_report(&workload.name())
    }

    /// Finish the tracer (leaving a fresh one behind) and gather the
    /// run's report.
    fn take_report(&mut self, name: &str) -> RunReport {
        let tracer = std::mem::replace(&mut self.tracer, Tracer::new(self.cfg.tracer, self.cfg.cores));
        RunReport {
            max_buffered_events: tracer.max_buffered_events() as u64,
            lane_stats: tracer.lane_stats(),
            trace: tracer.finish(name),
            stats: self.mem.stats(),
            mux_stats: self.cores.iter().map(|c| c.mux.as_ref().map(|m| m.stats())).collect(),
            wall_cycles: self.cores.iter().map(|c| c.clock()).max().unwrap_or(0),
            events_streamed: std::mem::take(&mut self.events_streamed),
        }
    }

    /// Run a workload while streaming its events into `sink` as the
    /// simulation progresses, holding only one epoch's events plus
    /// those above the watermark in the tracer
    /// ([`RunReport::max_buffered_events`]). At every epoch flush, events timestamped
    /// at or before the minimum per-core clock are final (clocks only
    /// move forward), so they are drained — in exactly the order
    /// [`Tracer::finish`] would emit them — and handed to the sink;
    /// the trailing residue follows after the workload completes. The
    /// produced event stream is byte-for-byte the one a materialized
    /// [`Machine::run`] yields, so a store written this way is
    /// identical to one converted from the materialized trace.
    ///
    /// The returned report's `trace` carries the full header but no
    /// events (they all live in the sink, which has been `finish`ed
    /// with that header). The first sink I/O error aborts the run's
    /// output and is returned; simulation state is still advanced.
    pub fn run_streaming(
        &mut self,
        workload: &mut dyn Workload,
        sink: Box<dyn EventSink>,
    ) -> std::io::Result<RunReport> {
        assert!(self.sink.is_none(), "run_streaming is not reentrant");
        self.sink = Some(sink);
        self.sink_error = None;
        workload.run(self);
        self.flush_epoch();
        // Everything still buffered is final now.
        self.forward_ready(u64::MAX);
        let report = self.take_report(&workload.name());
        let mut sink = self.sink.take().expect("installed above");
        if let Some(err) = self.sink_error.take() {
            return Err(err);
        }
        sink.finish(&report.trace)?;
        Ok(report)
    }

    /// Drain tracer events that can no longer be preceded — those at
    /// or before the minimum per-core clock — into the sink.
    fn drain_to_sink(&mut self) {
        if self.sink.is_none() || self.sink_error.is_some() {
            return;
        }
        let watermark = self.cores.iter().map(|c| c.clock()).min().unwrap_or(u64::MAX);
        self.forward_ready(watermark);
    }

    fn forward_ready(&mut self, watermark: u64) {
        let Some(sink) = self.sink.as_mut() else { return };
        if self.sink_error.is_some() {
            return;
        }
        let streamed = &mut self.events_streamed;
        let res = self.tracer.drain_ready_with(watermark, |e| {
            sink.append_event(e)?;
            *streamed += 1;
            Ok(())
        });
        self.sink_error = res.err();
    }

    /// Advance `core`'s clock by `cycles` and keep its cycle counter
    /// coherent.
    fn advance(&mut self, core: usize, cycles: f64) {
        let st = &mut self.cores[core];
        let before = st.clock();
        st.clock_f += cycles;
        let after = st.clock();
        st.pmu.add(EventKind::Cycles, after - before);
    }

    /// Fire any due timer samples on `core`, attributing them to `ip`.
    fn poll_timer(&mut self, core: usize, ip: Ip) {
        loop {
            let st = &mut self.cores[core];
            let now = st.clock();
            if now < st.next_sample_at {
                break;
            }
            let at = st.next_sample_at;
            let snap = st.pmu.snapshot();
            st.next_sample_at += self.cfg.counter_sample_period.max(1);
            self.tracer.record_counter_sample(core, ip, snap, at);
        }
    }

    /// Buffer one memory operation into the open epoch.
    fn push_mem(&mut self, core: usize, ip: Ip, addr: u64, size: u32, kind: AccessKind) {
        self.epoch.push(EpochOp::Mem { core: core as u32, ip });
        self.mem.issue(core, BatchOp { kind, addr, size });
        if self.epoch.len() >= self.cfg.epoch_cap {
            self.flush_epoch();
        }
    }

    /// Retire every buffered operation, in global issue order, each
    /// access at its core's clock. Called at observation points
    /// (region boundaries, allocation events, barriers, clock reads)
    /// and at the buffer cap, so that everything the tracer or the
    /// workload can observe is already accounted.
    fn flush_epoch(&mut self) {
        if !self.epoch.is_empty() {
            self.mem.begin_epoch(self.cfg.threads);
            let mut epoch = std::mem::take(&mut self.epoch);
            for op in &epoch {
                match *op {
                    EpochOp::Mem { core, ip } => {
                        let core = core as usize;
                        let now = self.cores[core].clock();
                        let (bop, res) = self.mem.retire_next(core, now);
                        self.account_access(core, ip, bop.addr, bop.size, bop.kind, res);
                    }
                    EpochOp::Compute { core, ip, instructions, branches } => {
                        self.account_compute(core as usize, ip, instructions, branches);
                    }
                }
            }
            // Return the buffer, keeping its capacity.
            epoch.clear();
            self.epoch = epoch;
        }
        self.drain_to_sink();
    }

    /// PMU/stall/PEBS/timer accounting of one completed access — the
    /// retire half of the old synchronous `mem_access`.
    fn account_access(&mut self, core: usize, ip: Ip, addr: u64, size: u32, kind: AccessKind, res: AccessResult) {
        // PMU accounting.
        {
            let pmu = &mut self.cores[core].pmu;
            pmu.add(EventKind::Instructions, 1);
            pmu.add(
                if kind == AccessKind::Store { EventKind::Stores } else { EventKind::Loads },
                1,
            );
            if res.source > MemLevel::L1 {
                pmu.add(EventKind::L1dMiss, 1);
            }
            if res.source > MemLevel::L2 {
                pmu.add(EventKind::L2Miss, 1);
            }
            if res.source > MemLevel::L3 {
                pmu.add(EventKind::L3Miss, 1);
            }
            if res.tlb_miss {
                pmu.add(EventKind::TlbMiss, 1);
            }
        }

        // Cycle cost, attributed to the serving level for the
        // CPI-stack analysis (the L1-hit cost counts as base pipeline
        // work, not stall — so the common access has no stall cycles
        // to round, and `f64::round` is a library call on baseline
        // x86-64).
        if res.source == MemLevel::L1 && !res.tlb_miss {
            self.advance(core, L1_HIT_COST);
        } else {
            let stall = (res.latency as f64 / self.cores[core].overlap).max(L1_HIT_COST);
            let stall_cycles = (stall - L1_HIT_COST).max(0.0).round() as u64;
            if stall_cycles > 0 {
                let kind = match res.source {
                    MemLevel::L1 | MemLevel::L2 => EventKind::StallL2,
                    MemLevel::L3 => EventKind::StallL3,
                    MemLevel::Dram => EventKind::StallDram,
                };
                self.cores[core].pmu.add(kind, stall_cycles);
            }
            self.advance(core, stall);
        }

        // PEBS.
        if self.cores[core].mux.is_some() {
            let op = MemOp {
                ip: ip.0,
                addr,
                size,
                kind,
                latency: res.latency,
                source: res.source,
                tlb_miss: res.tlb_miss,
            };
            let now = self.cores[core].clock();
            let st = &mut self.cores[core];
            let mux = st.mux.as_mut().expect("checked above");
            let (idx, sample) = mux.observe_slot(core, &op, now);
            if idx != st.last_mux_index {
                st.last_mux_index = idx;
                self.tracer.record_mux_switch(core, idx, mux.label(idx), now);
            }
            if let Some(s) = sample {
                self.tracer.record_pebs(s);
            }
        }

        self.poll_timer(core, ip);
    }

    /// PMU/clock accounting of buffered non-memory work.
    fn account_compute(&mut self, core: usize, ip: Ip, instructions: u64, branches: u64) {
        {
            let pmu = &mut self.cores[core].pmu;
            pmu.add(EventKind::Instructions, instructions);
            pmu.add(EventKind::Branches, branches);
        }
        self.advance(core, instructions as f64 * BASE_CPI);
        self.poll_timer(core, ip);
    }
}

impl AppContext for Machine {
    fn core_count(&self) -> usize {
        self.cfg.cores
    }

    fn location(&mut self, file: &str, line: u32, function: &str) -> Ip {
        self.tracer.location(file, line, function)
    }

    fn malloc(&mut self, core: usize, size: u64, callsite: &CodeLocation) -> u64 {
        self.flush_epoch();
        let now = self.cores[core].clock();
        self.tracer.malloc(size, callsite, now)
    }

    fn free(&mut self, core: usize, addr: u64) {
        self.flush_epoch();
        let now = self.cores[core].clock();
        self.tracer.free(addr, now);
    }

    fn begin_alloc_group(&mut self, name: &str) {
        self.tracer.begin_alloc_group(name);
    }

    fn end_alloc_group(&mut self) {
        let _ = self.tracer.end_alloc_group();
    }

    fn register_static(&mut self, name: &str, size: u64) -> u64 {
        let base = self.static_next;
        self.static_next += (size + 63) & !63;
        self.tracer.register_static(name, base, size);
        base
    }

    fn enter(&mut self, core: usize, region: &str) {
        self.flush_epoch();
        let snap = self.cores[core].pmu.snapshot();
        let now = self.cores[core].clock();
        self.tracer.enter(core, region, snap, now);
    }

    fn exit(&mut self, core: usize, region: &str) {
        self.flush_epoch();
        let snap = self.cores[core].pmu.snapshot();
        let now = self.cores[core].clock();
        self.tracer.exit(core, region, snap, now);
    }

    fn load(&mut self, core: usize, ip: Ip, addr: u64, size: u32) {
        self.push_mem(core, ip, addr, size, AccessKind::Load);
    }

    fn store(&mut self, core: usize, ip: Ip, addr: u64, size: u32) {
        self.push_mem(core, ip, addr, size, AccessKind::Store);
    }

    fn access_batch(&mut self, core: usize, ops: &[MemRequest]) {
        self.epoch.reserve(ops.len());
        for op in ops {
            self.epoch.push(EpochOp::Mem { core: core as u32, ip: op.ip });
            self.mem.issue(core, BatchOp {
                kind: if op.store { AccessKind::Store } else { AccessKind::Load },
                addr: op.addr,
                size: op.size,
            });
        }
        if self.epoch.len() >= self.cfg.epoch_cap {
            self.flush_epoch();
        }
    }

    fn compute(&mut self, core: usize, ip: Ip, instructions: u64, branches: u64) {
        self.epoch.push(EpochOp::Compute { core: core as u32, ip, instructions, branches });
        if self.epoch.len() >= self.cfg.epoch_cap {
            self.flush_epoch();
        }
    }

    fn set_overlap(&mut self, core: usize, overlap: f64) {
        assert!(overlap >= 1.0, "overlap must be >= 1");
        // Buffered ops were issued under the old overlap; retire them
        // before it changes.
        self.flush_epoch();
        self.cores[core].overlap = overlap;
    }

    fn barrier(&mut self) {
        self.flush_epoch();
        let max = self
            .cores
            .iter()
            .map(|c| c.clock_f)
            .fold(0.0f64, f64::max);
        for core in 0..self.cores.len() {
            let delta = max - self.cores[core].clock_f;
            if delta > 0.0 {
                self.advance(core, delta);
            }
        }
    }

    fn now(&mut self, core: usize) -> u64 {
        self.flush_epoch();
        self.cores[core].clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_extrae::events::EventPayload;

    /// A micro-workload: streams over one array, then pointer-hops.
    struct Micro {
        n: usize,
    }

    impl Workload for Micro {
        fn name(&self) -> String {
            "micro".into()
        }

        fn run(&mut self, ctx: &mut dyn AppContext) {
            let ip = ctx.location("micro.rs", 1, "micro");
            let base = ctx.malloc(0, (self.n * 8) as u64, &CodeLocation::new("micro.rs", 2, "m"));
            ctx.enter(0, "stream");
            ctx.set_overlap(0, 8.0);
            for i in 0..self.n {
                ctx.load(0, ip, base + (i * 8) as u64, 8);
                ctx.compute(0, ip, 2, 1);
            }
            ctx.exit(0, "stream");
            ctx.enter(0, "stores");
            for i in 0..self.n {
                ctx.store(0, ip, base + (i * 8) as u64, 8);
                ctx.compute(0, ip, 2, 1);
            }
            ctx.exit(0, "stores");
        }
    }

    #[test]
    fn run_produces_trace_and_stats() {
        let mut m = Machine::new(MachineConfig::small());
        let rep = m.run(&mut Micro { n: 4096 });
        assert!(rep.trace.num_events() > 10);
        assert!(rep.wall_cycles > 0);
        let total = rep.stats.total_cores();
        assert_eq!(total.loads, 4096);
        assert_eq!(total.stores, 4096);
        // Counter coherence: PMU loads equal memsim loads.
        let exit = rep
            .trace
            .events
            .iter()
            .rev()
            .find_map(|e| match &e.payload {
                EventPayload::RegionExit { counters, .. } => Some(*counters),
                _ => None,
            })
            .unwrap();
        assert_eq!(exit.get(EventKind::Loads), 4096);
        assert_eq!(exit.get(EventKind::Stores), 4096);
        assert!(exit.get(EventKind::Instructions) >= 4 * 4096);
    }

    #[test]
    fn pebs_samples_are_captured_and_resolved() {
        let mut m = Machine::new(MachineConfig::small());
        let rep = m.run(&mut Micro { n: 50_000 });
        let pebs: Vec<_> = rep.trace.pebs_events().collect();
        assert!(pebs.len() > 20, "expected plenty of samples, got {}", pebs.len());
        // The array is one big tracked allocation: samples resolve.
        assert!(rep.trace.resolution.resolved > 0);
        assert_eq!(rep.trace.resolution.unresolved, 0);
        // Multiplexing captured both loads and stores in one run.
        let loads = pebs.iter().filter(|(_, s, _)| !s.is_store).count();
        let stores = pebs.iter().filter(|(_, s, _)| s.is_store).count();
        assert!(loads > 0 && stores > 0, "loads {loads} stores {stores}");
    }

    #[test]
    fn timer_samples_appear_at_configured_rate() {
        let mut m = Machine::new(MachineConfig::small());
        let rep = m.run(&mut Micro { n: 20_000 });
        let samples = rep
            .trace
            .events
            .iter()
            .filter(|e| matches!(e.payload, EventPayload::CounterSample { .. }))
            .count();
        let expect = rep.wall_cycles / 2_000;
        assert!(
            (samples as i64 - expect as i64).unsigned_abs() <= expect / 4 + 2,
            "samples {samples}, expected ≈{expect}"
        );
    }

    #[test]
    fn overlap_reduces_runtime() {
        let run_with = |overlap: f64| {
            struct W {
                overlap: f64,
            }
            impl Workload for W {
                fn name(&self) -> String {
                    "w".into()
                }
                fn run(&mut self, ctx: &mut dyn AppContext) {
                    let ip = ctx.location("w.rs", 1, "w");
                    let base =
                        ctx.malloc(0, 1 << 22, &CodeLocation::new("w.rs", 2, "w"));
                    ctx.set_overlap(0, self.overlap);
                    ctx.enter(0, "r");
                    for i in 0..40_000u64 {
                        ctx.load(0, ip, base + i * 64, 8);
                    }
                    ctx.exit(0, "r");
                }
            }
            let mut m = Machine::new(MachineConfig::small());
            m.run(&mut W { overlap }).wall_cycles
        };
        let serial = run_with(1.0);
        let parallel = run_with(8.0);
        assert!(
            parallel * 2 < serial,
            "8-way overlap ({parallel}) should be far faster than serial ({serial})"
        );
    }

    #[test]
    fn barrier_aligns_clocks() {
        struct W;
        impl Workload for W {
            fn name(&self) -> String {
                "w".into()
            }
            fn run(&mut self, ctx: &mut dyn AppContext) {
                let ip = ctx.location("w.rs", 1, "w");
                ctx.compute(0, ip, 10_000, 0);
                ctx.compute(1, ip, 100, 0);
                ctx.barrier();
                assert_eq!(ctx.now(0), ctx.now(1));
            }
        }
        let mut cfg = MachineConfig::small();
        cfg.cores = 2;
        let mut m = Machine::new(cfg);
        let _ = m.run(&mut W);
    }

    #[test]
    fn pebs_core_selection_restricts_sampling() {
        struct W;
        impl Workload for W {
            fn name(&self) -> String {
                "w".into()
            }
            fn run(&mut self, ctx: &mut dyn AppContext) {
                let ip = ctx.location("w.rs", 1, "w");
                let b0 = ctx.malloc(0, 1 << 20, &CodeLocation::new("w.rs", 2, "w"));
                ctx.enter(0, "r");
                ctx.enter(1, "r");
                for i in 0..30_000u64 {
                    ctx.load(0, ip, b0 + (i % 1000) * 8, 8);
                    ctx.load(1, ip, b0 + (i % 1000) * 8, 8);
                }
                ctx.exit(1, "r");
                ctx.exit(0, "r");
            }
        }
        let mut cfg = MachineConfig::small();
        cfg.cores = 2;
        cfg.pebs_cores = PebsCoreSelect::Only(1);
        let mut m = Machine::new(cfg);
        let rep = m.run(&mut W);
        assert!(rep.mux_stats[0].is_none());
        assert!(rep.mux_stats[1].is_some());
        assert!(rep.trace.pebs_events().all(|(_, s, _)| s.core == 1));
        assert!(rep.trace.pebs_events().count() > 0);
    }

    /// Four cores streaming over private slabs with occasional
    /// barriers and one shared (conflicting) phase — exercises both the
    /// pipelined and the exact-replay epoch paths.
    struct MultiCore {
        n: usize,
    }

    impl Workload for MultiCore {
        fn name(&self) -> String {
            "multicore".into()
        }

        fn run(&mut self, ctx: &mut dyn AppContext) {
            let cores = ctx.core_count();
            let ip = ctx.location("mc.rs", 1, "mc");
            let slab = 1u64 << 20;
            let base = ctx.malloc(0, slab * cores as u64, &CodeLocation::new("mc.rs", 2, "mc"));
            ctx.enter(0, "private");
            for i in 0..self.n {
                for c in 0..cores {
                    let a = base + c as u64 * slab + ((i * 24) as u64 % slab);
                    if i % 3 == 0 {
                        ctx.store(c, ip, a, 8);
                    } else {
                        ctx.load(c, ip, a, 8);
                    }
                    ctx.compute(c, ip, 2, 1);
                }
                if i % 1000 == 999 {
                    ctx.barrier();
                }
            }
            ctx.exit(0, "private");
            // Shared phase: every core reads the same lines.
            ctx.enter(0, "shared");
            for i in 0..self.n / 4 {
                for c in 0..cores {
                    ctx.load(c, ip, base + ((i * 8) as u64 % 4096), 8);
                }
            }
            ctx.exit(0, "shared");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let run = |threads: usize| {
            let mut cfg = MachineConfig::small();
            cfg.cores = 4;
            cfg.threads = threads;
            let mut m = Machine::new(cfg);
            let rep = m.run(&mut MultiCore { n: 6000 });
            (rep.stats, rep.wall_cycles, rep.trace.events)
        };
        let seq = run(1);
        let two = run(2);
        let four = run(4);
        assert_eq!(seq.0, two.0, "memsim stats differ between 1 and 2 threads");
        assert_eq!(seq.0, four.0, "memsim stats differ between 1 and 4 threads");
        assert_eq!(seq.1, two.1);
        assert_eq!(seq.1, four.1);
        assert_eq!(seq.2, two.2, "trace events differ between 1 and 2 threads");
        assert_eq!(seq.2, four.2, "trace events differ between 1 and 4 threads");
    }

    #[test]
    fn batch_issue_equals_singles_on_machine() {
        struct W {
            batched: bool,
        }
        impl Workload for W {
            fn name(&self) -> String {
                "w".into()
            }
            fn run(&mut self, ctx: &mut dyn AppContext) {
                let ip = ctx.location("w.rs", 1, "w");
                let base = ctx.malloc(0, 1 << 18, &CodeLocation::new("w.rs", 2, "w"));
                ctx.enter(0, "r");
                if self.batched {
                    let ops: Vec<MemRequest> = (0..20_000u64)
                        .map(|i| {
                            let a = base + (i * 40) % (1 << 18);
                            if i % 5 == 0 {
                                MemRequest::store(ip, a, 8)
                            } else {
                                MemRequest::load(ip, a, 8)
                            }
                        })
                        .collect();
                    ctx.access_batch(0, &ops);
                } else {
                    for i in 0..20_000u64 {
                        let a = base + (i * 40) % (1 << 18);
                        if i % 5 == 0 {
                            ctx.store(0, ip, a, 8);
                        } else {
                            ctx.load(0, ip, a, 8);
                        }
                    }
                }
                ctx.exit(0, "r");
            }
        }
        let run = |batched: bool| {
            let mut m = Machine::new(MachineConfig::small());
            let rep = m.run(&mut W { batched });
            (rep.stats, rep.wall_cycles, rep.trace.events)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn deterministic_end_to_end() {
        let run = || {
            let mut m = Machine::new(MachineConfig::small());
            let rep = m.run(&mut Micro { n: 10_000 });
            (rep.wall_cycles, rep.trace.num_events())
        };
        assert_eq!(run(), run());
    }
}

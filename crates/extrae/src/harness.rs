//! The application-side execution interface.
//!
//! Instrumented workloads (HPCG, STREAM, ...) are written against
//! [`AppContext`]: they allocate simulated memory, declare source
//! locations, mark regions, and issue loads/stores/compute batches.
//! The simulated machine (in `mempersp-core`) implements the trait,
//! routing accesses through the cache hierarchy, driving the PMU +
//! PEBS models and the tracer.
//!
//! Keeping the trait here (next to the tracer) lets workload crates
//! stay independent of the machine implementation, exactly as real
//! applications link against the Extrae runtime and not against the
//! CPU.

use crate::source::{CodeLocation, Ip};

/// One memory operation in a batched issue stream (see
/// [`AppContext::access_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Attributed instruction pointer.
    pub ip: Ip,
    pub addr: u64,
    /// Size in bytes.
    pub size: u32,
    /// `true` for a store, `false` for a load.
    pub store: bool,
}

impl MemRequest {
    pub fn load(ip: Ip, addr: u64, size: u32) -> Self {
        Self { ip, addr, size, store: false }
    }

    pub fn store(ip: Ip, addr: u64, size: u32) -> Self {
        Self { ip, addr, size, store: true }
    }
}

/// What an instrumented application can do.
///
/// `core` arguments select the simulated core issuing the action;
/// workloads performing domain decomposition interleave calls across
/// cores.
pub trait AppContext {
    /// Number of simulated cores available.
    fn core_count(&self) -> usize;

    /// Register an instrumented statement; returns its synthetic ip.
    fn location(&mut self, file: &str, line: u32, function: &str) -> Ip;

    /// Interposed `malloc` from `core` at the given call-site.
    fn malloc(&mut self, core: usize, size: u64, callsite: &CodeLocation) -> u64;

    /// Interposed `free`.
    fn free(&mut self, core: usize, addr: u64);

    /// Begin wrapping subsequent allocations into a named group (the
    /// paper's manual instrumentation work-around).
    fn begin_alloc_group(&mut self, name: &str);

    /// Close the open allocation group.
    fn end_alloc_group(&mut self);

    /// Register a static data object; the machine assigns its address
    /// in the simulated data segment.
    fn register_static(&mut self, name: &str, size: u64) -> u64;

    /// Enter an instrumented region on `core`.
    fn enter(&mut self, core: usize, region: &str);

    /// Exit an instrumented region on `core`.
    fn exit(&mut self, core: usize, region: &str);

    /// Retire one load of `size` bytes at `addr`, attributed to `ip`.
    fn load(&mut self, core: usize, ip: Ip, addr: u64, size: u32);

    /// Retire one store of `size` bytes at `addr`, attributed to `ip`.
    fn store(&mut self, core: usize, ip: Ip, addr: u64, size: u32);

    /// Retire a batch of memory operations from `core`, equivalent to
    /// calling [`load`](Self::load)/[`store`](Self::store) once per
    /// request in order. Hot kernels should prefer this: contexts
    /// override it to skip the per-call dispatch (the machine queues the
    /// whole batch into its epoch with one reservation; the null
    /// context counts it in one step).
    fn access_batch(&mut self, core: usize, ops: &[MemRequest]) {
        for op in ops {
            if op.store {
                self.store(core, op.ip, op.addr, op.size);
            } else {
                self.load(core, op.ip, op.addr, op.size);
            }
        }
    }

    /// Retire a batch of non-memory work: `instructions` total, of
    /// which `branches` are branch instructions.
    fn compute(&mut self, core: usize, ip: Ip, instructions: u64, branches: u64);

    /// Declare the memory-level parallelism of the *upcoming* access
    /// pattern on `core`: how many outstanding misses the code can
    /// overlap (1 = fully serialized pointer chasing, ~6-10 = streaming
    /// gather). This stands in for the out-of-order window the
    /// simulator does not model cycle-accurately; dependent-access
    /// kernels (Gauss–Seidel) declare low values, independent-access
    /// kernels (SpMV over rows) higher ones.
    fn set_overlap(&mut self, core: usize, overlap: f64);

    /// Synchronize all core clocks to the latest one (an OpenMP-style
    /// barrier).
    fn barrier(&mut self);

    /// Current cycle of `core`'s clock.
    ///
    /// Takes `&mut self` because reading the clock is an observation
    /// point: contexts that buffer work (e.g. the epoch-pipelined
    /// machine) must retire everything issued so far before answering.
    fn now(&mut self, core: usize) -> u64;
}

/// An instrumented application runnable on any [`AppContext`].
pub trait Workload {
    /// Display name (used in trace descriptions and reports).
    fn name(&self) -> String;

    /// Execute the workload to completion.
    fn run(&mut self, ctx: &mut dyn AppContext);
}

/// A minimal, simulation-free context: it maintains per-core clocks
/// and counters with a trivial timing model (1 cycle per instruction,
/// 4 per memory access) and records everything in a [`crate::tracer::Tracer`], but
/// performs **no** cache simulation and captures **no** PEBS samples.
///
/// Useful for testing workload numerics and instrumentation balance
/// quickly; the full machine lives in `mempersp-core`.
pub struct NullContext {
    tracer: crate::tracer::Tracer,
    pmus: Vec<mempersp_pebs::Pmu>,
    clocks: Vec<u64>,
    static_next: u64,
    num_cores: usize,
}

impl NullContext {
    pub fn new(num_cores: usize) -> Self {
        Self {
            tracer: crate::tracer::Tracer::new(crate::tracer::TracerConfig::default(), num_cores),
            pmus: (0..num_cores).map(|_| mempersp_pebs::Pmu::new()).collect(),
            clocks: vec![0; num_cores],
            static_next: 0x0060_0000,
            num_cores,
        }
    }

    /// Finish and return the trace.
    pub fn finish(self, description: &str) -> crate::tracer::Trace {
        self.tracer.finish(description)
    }

    /// Read-only access to the tracer.
    pub fn tracer(&self) -> &crate::tracer::Tracer {
        &self.tracer
    }

    fn mem(&mut self, core: usize, is_store: bool) {
        use mempersp_pebs::EventKind;
        let pmu = &mut self.pmus[core];
        pmu.add(EventKind::Instructions, 1);
        pmu.add(if is_store { EventKind::Stores } else { EventKind::Loads }, 1);
        pmu.add(EventKind::Cycles, 4);
        self.clocks[core] += 4;
    }
}

impl AppContext for NullContext {
    fn core_count(&self) -> usize {
        self.num_cores
    }

    fn location(&mut self, file: &str, line: u32, function: &str) -> Ip {
        self.tracer.location(file, line, function)
    }

    fn malloc(&mut self, core: usize, size: u64, callsite: &CodeLocation) -> u64 {
        let now = self.clocks[core];
        self.tracer.malloc(size, callsite, now)
    }

    fn free(&mut self, core: usize, addr: u64) {
        let now = self.clocks[core];
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
        let snap = self.pmus[core].snapshot();
        let now = self.clocks[core];
        self.tracer.enter(core, region, snap, now);
    }

    fn exit(&mut self, core: usize, region: &str) {
        let snap = self.pmus[core].snapshot();
        let now = self.clocks[core];
        self.tracer.exit(core, region, snap, now);
    }

    fn load(&mut self, core: usize, _ip: Ip, _addr: u64, _size: u32) {
        self.mem(core, false);
    }

    fn store(&mut self, core: usize, _ip: Ip, _addr: u64, _size: u32) {
        self.mem(core, true);
    }

    fn access_batch(&mut self, core: usize, ops: &[MemRequest]) {
        use mempersp_pebs::EventKind;
        let stores = ops.iter().filter(|o| o.store).count() as u64;
        let loads = ops.len() as u64 - stores;
        let pmu = &mut self.pmus[core];
        pmu.add(EventKind::Instructions, ops.len() as u64);
        pmu.add(EventKind::Loads, loads);
        pmu.add(EventKind::Stores, stores);
        pmu.add(EventKind::Cycles, 4 * ops.len() as u64);
        self.clocks[core] += 4 * ops.len() as u64;
    }

    fn compute(&mut self, core: usize, _ip: Ip, instructions: u64, branches: u64) {
        use mempersp_pebs::EventKind;
        let pmu = &mut self.pmus[core];
        pmu.add(EventKind::Instructions, instructions);
        pmu.add(EventKind::Branches, branches);
        pmu.add(EventKind::Cycles, instructions);
        self.clocks[core] += instructions;
    }

    fn set_overlap(&mut self, _core: usize, _overlap: f64) {}

    fn barrier(&mut self) {
        let max = *self.clocks.iter().max().expect("at least one core");
        for (c, pmu) in self.clocks.iter_mut().zip(&mut self.pmus) {
            pmu.add(mempersp_pebs::EventKind::Cycles, max - *c);
            *c = max;
        }
    }

    fn now(&mut self, core: usize) -> u64 {
        self.clocks[core]
    }
}

//! # mempersp-extrae — the monitoring runtime
//!
//! Models the Extrae extensions described in Section II of the paper:
//!
//! * **instrumentation** — region enter/exit events with hardware
//!   counter readings ([`Tracer::enter`], [`Tracer::exit`]);
//! * **coarse-grain sampling** — periodic captures of the program
//!   counter plus the performance counters
//!   ([`Tracer::record_counter_sample`]);
//! * **PEBS memory samples** — address / latency / data-source records
//!   forwarded from the PMU model ([`Tracer::record_pebs`]);
//! * **dynamic-allocation interposition** — `malloc`/`realloc`/`free`
//!   wrappers that register every allocation **at or above a size
//!   threshold** as a data object identified by its allocation
//!   call-site ([`Tracer::malloc`]);
//! * **static objects** — registered by name, mimicking the binary
//!   symbol-table scan ([`Tracer::register_static`]);
//! * **manual allocation grouping** — the work-around the authors
//!   applied to HPCG, wrapping runs of tiny allocations into one named
//!   object ([`Tracer::begin_alloc_group`] / [`Tracer::end_alloc_group`]);
//! * **address-space layout randomization** — each tracer applies a
//!   seeded slide to its simulated heap base, demonstrating why two
//!   separate runs cannot be overlaid ([`sim_alloc::SimAllocator`]);
//! * a **Paraver-like trace format** with writer and parser
//!   ([`trace_format`]).
//!
//! The output of a monitored run is a [`Trace`]: the ordered event
//! list plus the source map and the data-object registry — everything
//! the Folding crate needs.

pub mod batch;
pub mod events;
pub mod harness;
pub mod json;
pub mod objects;
pub mod paraver;
pub mod query;
pub mod sim_alloc;
pub mod source;
pub mod stream_writer;
pub mod trace_format;
pub mod trace_source;
pub mod tracer;

pub use batch::{EventBatch, Row, RowView};
pub use events::{EventPayload, TraceEvent};
pub use harness::{AppContext, MemRequest, NullContext, Workload};
pub use objects::{ObjectId, ObjectKind, ObjectRegistry, ResolvedObject};
pub use query::{EventClass, KindMask, Query};
pub use sim_alloc::SimAllocator;
pub use source::{CodeLocation, Ip, SourceMap};
pub use stream_writer::{EventSink, PrvSink};
pub use trace_source::{scan_events, ScanStats, TraceSource};
pub use tracer::{LaneStats, Trace, TraceMeta, Tracer, TracerConfig};

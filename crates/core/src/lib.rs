//! # mempersp-core — the complete work-flow
//!
//! This crate assembles the suite into the paper's tool-chain:
//!
//! * [`Machine`] — the simulated node: per-core clocks and PMUs, the
//!   cache hierarchy, PEBS multiplexing and the Extrae tracer behind
//!   one [`mempersp_extrae::AppContext`] implementation. Running a
//!   workload yields a [`RunReport`] with the trace and the hardware
//!   statistics.
//! * [`analysis`] — what the analyst does with the folded data:
//!   per-iteration phase detection (the figure's A–E labels),
//!   sweep-direction detection over the address panel (forward a1 /
//!   backward a2), per-phase traversal bandwidths, and per-object
//!   access statistics.
//! * [`report`] — emission of the three-panel figure as CSV + gnuplot
//!   and as a self-contained ASCII rendering.

pub mod analysis;
pub mod machine;
pub mod report;
pub mod workflow;

pub use analysis::bandwidth::{phase_bandwidths, PhaseBandwidth};
pub use analysis::cpi::{cpi_stack_mean, cpi_stack_window, CpiStack};
pub use analysis::latency::{latency_profile, LatencyProfile};
pub use analysis::reuse::{sampled_reuse_histogram, ReuseHistogram};
pub use analysis::streams::{phase_streams, streams_report, PhaseStreams, StreamActivity};
pub use analysis::objects::{object_stats, ObjectStat};
pub use analysis::phases::{iteration_phases, Phase};
pub use analysis::profile::{flat_profile, ProfileRow};
pub use analysis::sweeps::{detect_sweep, symgs_sweeps, theil_sen_slope, SweepDirection, SweepInfo};
pub use machine::{Machine, MachineConfig, PebsCoreSelect, RunReport, DEFAULT_EPOCH_CAP};
pub use workflow::{
    analyze_hpcg, analyze_hpcg_source, run_streaming_to_path, sink_for_path, HpcgAnalysis,
    StreamOptions,
};

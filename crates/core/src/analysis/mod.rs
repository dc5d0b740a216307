//! Analyses over traces and folded regions: everything the analyst
//! reads off the paper's Fig. 1.
//!
//! An analysis that reads events takes a `&mut dyn TraceSource` and is
//! one scan with its filter pushed down as the `Query`
//! ([`phases::iteration_phases`], [`profile::flat_profile`],
//! [`latency::latency_profile`], [`reuse::sampled_reuse_histogram`],
//! [`objects::object_stats`]). The functions that take a `&Trace` —
//! [`streams::phase_streams`], [`sweeps::symgs_sweeps`] and the
//! figure's `addresses_csv`, `objects_csv`, `write_figure_bundle` —
//! read its header only (object registry, source map, meta): hand
//! them `TraceSource::header()`.

pub mod bandwidth;
pub mod cpi;
pub mod latency;
pub mod objects;
pub mod phases;
pub mod profile;
pub mod reuse;
pub mod streams;
pub mod sweeps;

//! # mempersp-folding — the Folding mechanism
//!
//! Folding (Servat et al., ICPP 2011) turns *coarse-grained* samples
//! scattered over many dynamic instances of a repetitive code region
//! into *one* synthetic, densely-sampled instance:
//!
//! 1. collect the region's instances from the instrumented enter/exit
//!    events, rejecting duration outliers ([`instances`]);
//! 2. map every sample inside an instance to a **normalized time**
//!    x ∈ [0, 1] and, for counter samples, to the **normalized counter
//!    progress** y ∈ [0, 1] within that instance ([`pool`]);
//! 3. fit the pooled (x, y) cloud per counter with a **monotone
//!    piecewise-linear model** (binned means + pool-adjacent-violators,
//!    anchored at (0,0) and (1,1)) whose slope is the instantaneous
//!    event rate ([`pava`], [`curve`]);
//! 4. expose the three orthogonal panels of the paper's Fig. 1:
//!    source-code lines, addresses referenced, and performance
//!    ([`FoldedRegion`]).
//!
//! The folded performance panel reports exactly what the paper plots:
//! *counter / instruction* curves (branches and L1D/L2/L3 misses per
//! instruction) and achieved MIPS over the folded time axis.

pub mod curve;
pub mod digest;
pub mod engine;
pub mod fold;
pub mod instances;
pub mod pava;
pub mod pool;

pub use curve::MonotoneCurve;
pub use digest::{fold_request_digest, Fnv64};
pub use engine::{fold_performance_source, fold_regions, fold_regions_source, RegionRequest};
pub use fold::{fold_region, FitModel, FoldError, FoldedCounter, FoldedRegion, FoldingConfig};
pub use instances::{collect_core_instances, collect_instances_multi, InstanceFilter, RegionInstance};
pub use pool::{pool_all, AddrPoint, FileId, LinePoint, PooledSamples};

//! The top-level folding pipeline and the folded-region report.

use crate::curve::MonotoneCurve;
use crate::engine::{fold_regions, RegionRequest};
use crate::instances::InstanceFilter;
use crate::pool::PooledSamples;
use mempersp_extrae::Trace;
use mempersp_pebs::EventKind;
use serde::{Deserialize, Serialize};

/// How the pooled counter cloud is turned into a progress curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitModel {
    /// Binned means projected onto the monotone cone with PAVA (the
    /// default; matches the folding literature's monotone models).
    Isotonic,
    /// Raw binned means, clamped monotone only by the curve
    /// construction (an ablation: noisier slopes, occasional flats).
    BinnedMean,
}

/// Folding parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FoldingConfig {
    /// Number of bins used to summarize the pooled point cloud before
    /// the isotonic fit.
    pub bins: usize,
    /// Instance outlier filter.
    pub filter: InstanceFilter,
    /// Minimum kept instances required to fold.
    pub min_instances: usize,
    /// Counter-curve fit model.
    pub fit: FitModel,
}

impl Default for FoldingConfig {
    fn default() -> Self {
        Self {
            bins: 32,
            filter: InstanceFilter::default(),
            min_instances: 1,
            fit: FitModel::Isotonic,
        }
    }
}

/// Errors of the folding pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FoldError {
    /// The trace has no region with that name.
    UnknownRegion(String),
    /// Fewer kept instances than `min_instances`.
    TooFewInstances { found: usize, need: usize },
    /// Reading from the trace source failed (message of the I/O error).
    Io(String),
}

impl std::fmt::Display for FoldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FoldError::UnknownRegion(r) => write!(f, "region {r:?} not present in trace"),
            FoldError::TooFewInstances { found, need } => {
                write!(f, "only {found} instance(s) kept, need {need}")
            }
            FoldError::Io(msg) => write!(f, "trace source error: {msg}"),
        }
    }
}

impl std::error::Error for FoldError {}

/// The folded model of one hardware counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FoldedCounter {
    pub kind: EventKind,
    /// Normalized cumulative progress curve.
    pub curve: MonotoneCurve,
    /// Mean per-instance total of this counter.
    pub avg_total: f64,
    /// Pooled points behind the fit.
    pub points: usize,
}

impl FoldedCounter {
    /// Instantaneous event rate at folded time `x`, in events per unit
    /// of normalized time.
    pub fn rate_at(&self, x: f64) -> f64 {
        self.curve.slope(x) * self.avg_total
    }

    /// Cumulative events by folded time `x`.
    pub fn cumulative_at(&self, x: f64) -> f64 {
        self.curve.eval(x) * self.avg_total
    }
}

/// One point of the folded performance panel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfPoint {
    /// Normalized folded time.
    pub x: f64,
    /// Folded wall-clock time in milliseconds (x × mean duration).
    pub t_ms: f64,
    /// Instantaneous MIPS at nominal frequency.
    pub mips: f64,
    /// Instantaneous IPC (instructions per cycle, nominal).
    pub ipc: f64,
    /// Counter-per-instruction ratios, indexed by [`EventKind::index`].
    pub per_instruction: [f64; EventKind::ALL.len()],
}

/// The complete folded view of a region — the data behind Fig. 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FoldedRegion {
    pub region: String,
    pub instances_used: usize,
    pub instances_rejected: usize,
    pub avg_duration_cycles: f64,
    pub freq_mhz: u32,
    /// One folded model per counter, indexed by [`EventKind::index`].
    pub counters: Vec<FoldedCounter>,
    /// The pooled raw samples (address + line panels).
    pub pooled: PooledSamples,
}

impl FoldedRegion {
    /// The folded model of one counter.
    pub fn counter(&self, kind: EventKind) -> &FoldedCounter {
        &self.counters[kind.index()]
    }

    /// Mean instance duration in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        self.avg_duration_cycles / (self.freq_mhz as f64 * 1000.0)
    }

    /// Mean instance duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.avg_duration_cycles / (self.freq_mhz as f64 * 1e6)
    }

    /// Instantaneous MIPS at folded time `x` (instructions per second
    /// at the nominal frequency, divided by 10⁶ — the paper's bottom
    /// panel right axis).
    pub fn mips_at(&self, x: f64) -> f64 {
        let inst_rate = self.counter(EventKind::Instructions).rate_at(x);
        let dur_s = self.duration_s();
        if dur_s <= 0.0 {
            0.0
        } else {
            inst_rate / dur_s / 1e6
        }
    }

    /// Instantaneous IPC at folded time `x`, using the nominal
    /// frequency (as the paper does: "an IPC of 0.6 considering the
    /// nominal frequency").
    pub fn ipc_at(&self, x: f64) -> f64 {
        let mips = self.mips_at(x);
        mips / self.freq_mhz as f64 * 1000.0
    }

    /// Events of `kind` per instruction at folded time `x` (the
    /// paper's bottom-panel left axis).
    pub fn per_instruction_at(&self, kind: EventKind, x: f64) -> f64 {
        let inst = self.counter(EventKind::Instructions).rate_at(x);
        if inst <= 0.0 {
            0.0
        } else {
            self.counter(kind).rate_at(x) / inst
        }
    }

    /// Sample the full performance panel at `n` uniformly-spaced
    /// folded times.
    pub fn performance_series(&self, n: usize) -> Vec<PerfPoint> {
        assert!(n >= 2);
        let dur_ms = self.duration_ms();
        (0..n)
            .map(|i| {
                let x = i as f64 / (n - 1) as f64;
                let mut per_instruction = [0.0; EventKind::ALL.len()];
                for kind in EventKind::ALL {
                    per_instruction[kind.index()] = self.per_instruction_at(kind, x);
                }
                PerfPoint {
                    x,
                    t_ms: x * dur_ms,
                    mips: self.mips_at(x),
                    ipc: self.ipc_at(x),
                    per_instruction,
                }
            })
            .collect()
    }

    /// Root-mean-square residual of one counter's fitted progress
    /// curve against its pooled points (in normalized-progress units,
    /// so 0.01 ≈ "the fit is within 1 % of an instance total").
    /// `None` when the counter has no pooled points.
    pub fn fit_rmse(&self, kind: EventKind) -> Option<f64> {
        let (xs, ys) = self.pooled.counter_xy(kind);
        if xs.is_empty() {
            return None;
        }
        let curve = &self.counter(kind).curve;
        let sse: f64 = xs.iter().zip(ys).map(|(&x, &y)| (curve.eval(x) - y).powi(2)).sum();
        Some((sse / xs.len() as f64).sqrt())
    }

    /// Aggregate MIPS over the whole folded instance (total
    /// instructions / duration).
    pub fn mean_mips(&self) -> f64 {
        let dur_s = self.duration_s();
        if dur_s <= 0.0 {
            0.0
        } else {
            self.counter(EventKind::Instructions).avg_total / dur_s / 1e6
        }
    }
}

/// Run the folding pipeline for `region` over the whole trace.
///
/// ```
/// use mempersp_extrae::{Tracer, TracerConfig};
/// use mempersp_folding::{fold_region, FoldingConfig};
/// use mempersp_pebs::{CounterSnapshot, EventKind};
///
/// let mut t = Tracer::new(TracerConfig::default(), 1);
/// let ip = t.location("kernel.c", 10, "kernel");
/// let snap = |inst: u64| {
///     let mut v = [0u64; EventKind::ALL.len()];
///     v[EventKind::Instructions.index()] = inst;
///     CounterSnapshot::from_values(v)
/// };
/// // Three instances of a region, sampled once in the middle.
/// for k in 0..3u64 {
///     t.enter(0, "R", snap(k * 1000), k * 100);
///     t.record_counter_sample(0, ip, snap(k * 1000 + 500), k * 100 + 50);
///     t.exit(0, "R", snap(k * 1000 + 1000), k * 100 + 100);
/// }
/// let trace = t.finish("doc");
/// let folded = fold_region(&trace, "R", &FoldingConfig::default()).unwrap();
/// assert_eq!(folded.instances_used, 3);
/// // Half the instructions retire by the folded midpoint.
/// let mid = folded.counter(EventKind::Instructions).cumulative_at(0.5);
/// assert!((mid - 500.0).abs() < 50.0);
/// ```
pub fn fold_region(trace: &Trace, region: &str, cfg: &FoldingConfig) -> Result<FoldedRegion, FoldError> {
    fold_regions(trace, &[RegionRequest::with_cfg(region, *cfg)], 1)
        .pop()
        .expect("one result per request")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_extrae::{Tracer, TracerConfig};
    use mempersp_pebs::CounterSnapshot;

    /// Build a trace where R executes `n` times; within each instance,
    /// instructions accrue *non-uniformly*: the first half of the time
    /// retires 25 % of the instructions, the second half 75 %.
    fn skewed_trace(n: usize, samples_per_instance: usize) -> Trace {
        let mut t = Tracer::new(TracerConfig { freq_mhz: 1000, ..Default::default() }, 1);
        let ip = t.location("k.cpp", 10, "k");
        let total = 1_000_000u64;
        let dur = 10_000u64;
        let mut now = 0u64;
        let mut base = 0u64;
        for _ in 0..n {
            let mk = |inst: u64, cyc: u64| {
                let mut v = [0u64; EventKind::ALL.len()];
                v[EventKind::Instructions.index()] = inst;
                v[EventKind::Cycles.index()] = cyc;
                v[EventKind::Branches.index()] = inst / 10;
                CounterSnapshot::from_values(v)
            };
            t.enter(0, "R", mk(base, now), now);
            for s in 1..=samples_per_instance {
                let x = s as f64 / (samples_per_instance + 1) as f64;
                let progress = if x < 0.5 { 0.5 * x } else { 1.5 * x - 0.5 };
                let cycles_at = now + (x * dur as f64) as u64;
                t.record_counter_sample(
                    0,
                    ip,
                    mk(base + (progress * total as f64) as u64, cycles_at),
                    cycles_at,
                );
            }
            t.exit(0, "R", mk(base + total, now + dur), now + dur);
            base += total;
            now += dur + 100;
        }
        t.finish("skewed")
    }

    #[test]
    fn unknown_region_errors() {
        let tr = skewed_trace(2, 3);
        let e = fold_region(&tr, "NOPE", &FoldingConfig::default()).unwrap_err();
        assert!(matches!(e, FoldError::UnknownRegion(_)));
    }

    #[test]
    fn too_few_instances_errors() {
        let tr = skewed_trace(2, 3);
        let cfg = FoldingConfig { min_instances: 5, ..Default::default() };
        let e = fold_region(&tr, "R", &cfg).unwrap_err();
        assert_eq!(e, FoldError::TooFewInstances { found: 2, need: 5 });
    }

    #[test]
    fn folded_curve_recovers_the_skew() {
        let tr = skewed_trace(50, 7);
        let f = fold_region(&tr, "R", &FoldingConfig::default()).unwrap();
        assert_eq!(f.instances_used, 50);
        let c = f.counter(EventKind::Instructions);
        // At x=0.5 true progress is 0.25.
        let got = c.curve.eval(0.5);
        assert!((got - 0.25).abs() < 0.06, "eval(0.5) = {got}, want ≈0.25");
        // Slope in the second half (1.5) is about 3× the first (0.5).
        let ratio = c.curve.slope(0.8) / c.curve.slope(0.2);
        assert!(ratio > 2.0 && ratio < 4.5, "slope ratio {ratio}, want ≈3");
    }

    #[test]
    fn rate_and_cumulative_are_consistent() {
        let tr = skewed_trace(30, 5);
        let f = fold_region(&tr, "R", &FoldingConfig::default()).unwrap();
        let c = f.counter(EventKind::Instructions);
        assert!((c.cumulative_at(1.0) - c.avg_total).abs() < 1e-6);
        assert_eq!(c.cumulative_at(0.0), 0.0);
        // Integrate the rate: ∫₀¹ rate dx == avg_total.
        let n = 1000;
        let integral: f64 = (0..n)
            .map(|i| c.rate_at((i as f64 + 0.5) / n as f64) / n as f64)
            .sum();
        // Midpoint quadrature of a piecewise-constant slope is exact
        // except near knot boundaries: allow O(knots/n) error.
        assert!(
            (integral - c.avg_total).abs() / c.avg_total < 0.05,
            "integral {integral} vs total {}",
            c.avg_total
        );
    }

    #[test]
    fn mips_matches_hand_computation() {
        // 1e6 instructions in 10_000 cycles at 1000 MHz:
        // duration = 10 µs, MIPS = 1e6 / 10e-6 / 1e6 = 1e5.
        let tr = skewed_trace(10, 5);
        let f = fold_region(&tr, "R", &FoldingConfig::default()).unwrap();
        assert!((f.mean_mips() - 1e5).abs() / 1e5 < 1e-9);
        // Instantaneous MIPS in the fast half is ≈1.5× the mean.
        let fast = f.mips_at(0.8);
        assert!(fast > f.mean_mips() * 1.2, "fast-half MIPS {fast}");
        // IPC consistency: IPC = MIPS / freq(MHz) * 1000... at 1000 MHz
        // mean IPC = 1e6 inst / 10_000 cycles = 100 (synthetic counters).
        let ipc = f.ipc_at(0.2) / f.ipc_at(0.2);
        assert!((ipc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_instruction_ratio_recovers_branch_density() {
        let tr = skewed_trace(20, 7);
        let f = fold_region(&tr, "R", &FoldingConfig::default()).unwrap();
        // Branches are exactly inst/10 everywhere.
        for x in [0.1, 0.5, 0.9] {
            let r = f.per_instruction_at(EventKind::Branches, x);
            assert!((r - 0.1).abs() < 0.05, "branches/inst at {x} = {r}");
        }
    }

    #[test]
    fn performance_series_shape() {
        let tr = skewed_trace(10, 5);
        let f = fold_region(&tr, "R", &FoldingConfig::default()).unwrap();
        let s = f.performance_series(11);
        assert_eq!(s.len(), 11);
        assert_eq!(s[0].x, 0.0);
        assert_eq!(s[10].x, 1.0);
        assert!((s[10].t_ms - f.duration_ms()).abs() < 1e-12);
        assert!(s.iter().all(|p| p.mips >= 0.0));
    }

    #[test]
    fn counters_without_samples_use_identity_curve() {
        let tr = skewed_trace(5, 3);
        let f = fold_region(&tr, "R", &FoldingConfig::default()).unwrap();
        // L3Miss never advanced and has no points: identity curve and
        // zero avg_total → zero rate.
        let c = f.counter(EventKind::L3Miss);
        assert_eq!(c.points, 0);
        assert_eq!(c.rate_at(0.5), 0.0);
    }

    #[test]
    fn fit_rmse_reflects_quality() {
        let tr = skewed_trace(50, 7);
        let f = fold_region(&tr, "R", &FoldingConfig::default()).unwrap();
        let rmse = f.fit_rmse(EventKind::Instructions).expect("points exist");
        assert!(rmse < 0.05, "clean synthetic data fits tightly: {rmse}");
        assert!(f.fit_rmse(EventKind::L3Miss).is_none(), "no points, no rmse");
    }

    #[test]
    fn binned_mean_fit_still_recovers_shape() {
        let tr = skewed_trace(50, 7);
        let cfg = FoldingConfig { fit: FitModel::BinnedMean, ..Default::default() };
        let f = fold_region(&tr, "R", &cfg).unwrap();
        let c = f.counter(EventKind::Instructions);
        // Shape recovered within a looser tolerance than the isotonic
        // fit (this is the ablation's point).
        assert!((c.curve.eval(0.5) - 0.25).abs() < 0.1);
        // Curve is still monotone (guaranteed by the construction).
        let s = c.curve.sample(50);
        assert!(s.windows(2).all(|w| w[0].1 <= w[1].1 + 1e-12));
    }

    #[test]
    fn duration_conversions() {
        let tr = skewed_trace(5, 3);
        let f = fold_region(&tr, "R", &FoldingConfig::default()).unwrap();
        // 10_000 cycles at 1000 MHz = 10 µs = 0.01 ms.
        assert!((f.duration_ms() - 0.01).abs() < 1e-12);
        assert!((f.duration_s() - 1e-5).abs() < 1e-18);
    }
}

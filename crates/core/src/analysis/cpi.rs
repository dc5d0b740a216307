//! CPI-stack decomposition of the folded performance panel.
//!
//! The machine attributes every memory stall cycle to the level that
//! served the access (`StallL2`/`StallL3`/`StallDram` counters); this
//! module divides the folded cycle budget into *base* (issue +
//! L1-resident work) and the per-level stall components — the "where
//! do my cycles go" view that complements the paper's MIPS curve.

use mempersp_folding::FoldedRegion;
use mempersp_pebs::EventKind;
use serde::{Deserialize, Serialize};

/// Cycles-per-instruction decomposition of the whole folded instance
/// or of a folded sub-interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpiStack {
    /// Total cycles per instruction.
    pub total: f64,
    /// Issue + L1-resident component (total − stalls).
    pub base: f64,
    /// Stall cycles per instruction charged to L2-served accesses.
    pub l2: f64,
    /// ... to L3-served accesses.
    pub l3: f64,
    /// ... to DRAM-served accesses.
    pub dram: f64,
}

impl CpiStack {
    /// Fraction of cycles spent stalled on memory.
    pub fn memory_bound_fraction(&self) -> f64 {
        if self.total <= 0.0 {
            0.0
        } else {
            (self.l2 + self.l3 + self.dram) / self.total
        }
    }
}

fn stack_from(cycles: f64, inst: f64, l2: f64, l3: f64, dram: f64) -> CpiStack {
    if inst <= 0.0 {
        return CpiStack { total: 0.0, base: 0.0, l2: 0.0, l3: 0.0, dram: 0.0 };
    }
    let total = cycles / inst;
    let l2 = l2 / inst;
    let l3 = l3 / inst;
    let dram = dram / inst;
    CpiStack { total, base: (total - l2 - l3 - dram).max(0.0), l2, l3, dram }
}

/// Aggregate CPI stack over the whole folded instance.
pub fn cpi_stack_mean(folded: &FoldedRegion) -> CpiStack {
    stack_from(
        folded.counter(EventKind::Cycles).avg_total,
        folded.counter(EventKind::Instructions).avg_total,
        folded.counter(EventKind::StallL2).avg_total,
        folded.counter(EventKind::StallL3).avg_total,
        folded.counter(EventKind::StallDram).avg_total,
    )
}

/// Aggregate CPI stack of a folded sub-interval `[x0, x1]` (e.g. one
/// detected phase).
pub fn cpi_stack_window(folded: &FoldedRegion, x0: f64, x1: f64) -> CpiStack {
    let delta = |k: EventKind| {
        let c = folded.counter(k);
        c.cumulative_at(x1) - c.cumulative_at(x0)
    };
    stack_from(
        delta(EventKind::Cycles),
        delta(EventKind::Instructions),
        delta(EventKind::StallL2),
        delta(EventKind::StallL3),
        delta(EventKind::StallDram),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_folding::{FoldedCounter, MonotoneCurve, PooledSamples};

    fn folded(totals: [(EventKind, f64); 5]) -> FoldedRegion {
        let mut counters: Vec<FoldedCounter> = EventKind::ALL
            .iter()
            .map(|&kind| FoldedCounter {
                kind,
                curve: MonotoneCurve::identity(),
                avg_total: 0.0,
                points: 0,
            })
            .collect();
        for (k, v) in totals {
            counters[k.index()].avg_total = v;
        }
        FoldedRegion {
            region: "r".into(),
            instances_used: 1,
            instances_rejected: 0,
            avg_duration_cycles: 1000.0,
            freq_mhz: 1000,
            counters,
            pooled: PooledSamples::default(),
        }
    }

    #[test]
    fn decomposition_adds_up() {
        let f = folded([
            (EventKind::Instructions, 1000.0),
            (EventKind::Cycles, 2000.0),
            (EventKind::StallL2, 200.0),
            (EventKind::StallL3, 300.0),
            (EventKind::StallDram, 500.0),
        ]);
        let s = cpi_stack_mean(&f);
        assert!((s.total - 2.0).abs() < 1e-12);
        assert!((s.l2 - 0.2).abs() < 1e-12);
        assert!((s.l3 - 0.3).abs() < 1e-12);
        assert!((s.dram - 0.5).abs() < 1e-12);
        assert!((s.base - 1.0).abs() < 1e-12);
        assert!((s.memory_bound_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn window_of_uniform_curves_matches_mean() {
        let f = folded([
            (EventKind::Instructions, 1000.0),
            (EventKind::Cycles, 3000.0),
            (EventKind::StallL2, 0.0),
            (EventKind::StallL3, 0.0),
            (EventKind::StallDram, 1500.0),
        ]);
        let w = cpi_stack_window(&f, 0.25, 0.75);
        let m = cpi_stack_mean(&f);
        assert!((w.total - m.total).abs() < 1e-9);
        assert!((w.dram - m.dram).abs() < 1e-9);
    }

    #[test]
    fn zero_instructions_is_all_zero() {
        let f = folded([
            (EventKind::Instructions, 0.0),
            (EventKind::Cycles, 100.0),
            (EventKind::StallL2, 0.0),
            (EventKind::StallL3, 0.0),
            (EventKind::StallDram, 0.0),
        ]);
        let s = cpi_stack_mean(&f);
        assert_eq!(s.total, 0.0);
        assert_eq!(s.memory_bound_fraction(), 0.0);
    }
}

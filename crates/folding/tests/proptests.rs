//! Property-based tests for the Folding mechanism.

use mempersp_extrae::{Tracer, TracerConfig};
use mempersp_folding::pava::pava_nondecreasing;
use mempersp_folding::pool::{sort_by_x, sort_counter};
use mempersp_folding::{fold_region, FoldingConfig, MonotoneCurve};
use mempersp_pebs::{CounterSnapshot, EventKind};
use proptest::prelude::*;

/// A folded coordinate: spread over [0, 1], or one of the values a
/// fold produces exactly and often — 0.0 (zero-duration instances),
/// 1.0 (a sample on the exit cycle), a few fractions that repeat (a
/// clock standing still) —, a subnormal, or crowded into the first
/// percent (one skewed bucket).
fn coordinate() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..0.01,
        (0u32..=8).prop_map(|k| f64::from(k) / 8.0),
        Just(0.0),
        Just(1.0),
        Just(5e-324),
        Just(f64::MIN_POSITIVE / 2.0),
    ]
}

/// Panels from empty to a few thousand points (several rounds, buckets
/// past the insertion limit when keys repeat), or all on one key.
fn coordinates() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        prop::collection::vec(coordinate(), 0..40),
        prop::collection::vec(coordinate(), 0..4000),
        (coordinate(), 0usize..2000).prop_map(|(x, n)| vec![x; n]),
    ]
}

proptest! {
    /// The distribution sort of a panel is the stable `sort_by` on x:
    /// the payload (the input position, and a word of ballast to make
    /// the item wider than its key) shows any tie that changed order.
    #[test]
    fn panel_sort_equals_stable_sort_by_x(xs in coordinates()) {
        let mut got: Vec<(f64, usize, u64)> =
            xs.iter().enumerate().map(|(i, &x)| (x, i, !(i as u64))).collect();
        let mut want = got.clone();
        want.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        sort_by_x(&mut got, |p| p.0);
        prop_assert_eq!(got, want);
    }

    /// A counter's parallel buffers come out as `sort_by` on (x, y)
    /// leaves the pairs; both repeat, so equal x are ordered by y.
    #[test]
    fn counter_sort_equals_sort_by_x_then_y(
        pairs in prop::collection::vec((coordinate(), coordinate()), 0..4000),
    ) {
        let mut want = pairs.clone();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (mut xs, mut ys): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        sort_counter(&mut xs, &mut ys);
        let got: Vec<(f64, f64)> = xs.into_iter().zip(ys).collect();
        prop_assert_eq!(got, want);
    }

    /// PAVA output is non-decreasing, length-preserving, and preserves
    /// the weighted mean.
    #[test]
    fn pava_invariants(
        pairs in prop::collection::vec((0.0f64..1.0, 0.1f64..10.0), 1..200),
    ) {
        let values: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let weights: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let out = pava_nondecreasing(&values, &weights);
        prop_assert_eq!(out.len(), values.len());
        for w in out.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        let mean_in: f64 = values.iter().zip(&weights).map(|(v, w)| v * w).sum::<f64>()
            / weights.iter().sum::<f64>();
        let mean_out: f64 = out.iter().zip(&weights).map(|(v, w)| v * w).sum::<f64>()
            / weights.iter().sum::<f64>();
        prop_assert!((mean_in - mean_out).abs() < 1e-9, "PAVA preserves the weighted mean");
    }

    /// PAVA is idempotent: projecting an already-monotone sequence is
    /// the identity.
    #[test]
    fn pava_idempotent(
        pairs in prop::collection::vec((0.0f64..1.0, 0.1f64..10.0), 1..100),
    ) {
        let values: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let weights: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let once = pava_nondecreasing(&values, &weights);
        let twice = pava_nondecreasing(&once, &weights);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Curves built from arbitrary knots stay within [0,1], are
    /// monotone, and hit their anchors.
    #[test]
    fn curve_stays_in_unit_box(
        raw in prop::collection::vec((0.001f64..0.999, 0.0f64..1.0), 0..50),
    ) {
        let mut knots = raw;
        knots.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        knots.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-9);
        let (xs, ys): (Vec<f64>, Vec<f64>) = knots.into_iter().unzip();
        let c = MonotoneCurve::from_knots(&xs, &ys);
        prop_assert_eq!(c.eval(0.0), 0.0);
        prop_assert_eq!(c.eval(1.0), 1.0);
        let mut prev = -1e-12;
        for i in 0..=100 {
            let x = i as f64 / 100.0;
            let y = c.eval(x);
            prop_assert!((0.0..=1.0).contains(&y));
            prop_assert!(y >= prev - 1e-12, "monotone");
            prop_assert!(c.slope(x) >= 0.0);
            prev = y;
        }
    }

    /// Folding a region whose counters advance *linearly* in time
    /// recovers (approximately) the identity progress curve and a flat
    /// rate, regardless of instance count, duration and sampling.
    #[test]
    fn fold_recovers_linear_progress(
        n_instances in 3usize..20,
        samples in 3usize..20,
        dur in 1_000u64..100_000,
        total in 1_000u64..1_000_000,
    ) {
        let mut t = Tracer::new(TracerConfig { freq_mhz: 2000, ..Default::default() }, 1);
        let ip = t.location("lin.cpp", 1, "lin");
        let mk = |inst: u64| {
            let mut v = [0u64; EventKind::ALL.len()];
            v[EventKind::Instructions.index()] = inst;
            CounterSnapshot::from_values(v)
        };
        let mut now = 0u64;
        let mut base = 0u64;
        for _ in 0..n_instances {
            t.enter(0, "R", mk(base), now);
            for s in 1..=samples {
                let x = s as f64 / (samples + 1) as f64;
                t.record_counter_sample(
                    0,
                    ip,
                    mk(base + (x * total as f64) as u64),
                    now + (x * dur as f64) as u64,
                );
            }
            t.exit(0, "R", mk(base + total), now + dur);
            base += total;
            now += dur + 17;
        }
        let tr = t.finish("linear");
        let f = fold_region(&tr, "R", &FoldingConfig::default()).unwrap();
        let c = f.counter(EventKind::Instructions);
        prop_assert!((c.avg_total - total as f64).abs() < 1.0);
        for x in [0.2, 0.5, 0.8] {
            prop_assert!((c.curve.eval(x) - x).abs() < 0.1, "eval({x}) = {}", c.curve.eval(x));
        }
        // Flat rate ⇒ MIPS ≈ mean MIPS everywhere.
        let mean = f.mean_mips();
        prop_assert!(mean > 0.0);
        let mid = f.mips_at(0.5);
        prop_assert!((mid - mean).abs() / mean < 0.35, "mid {mid} vs mean {mean}");
    }
}

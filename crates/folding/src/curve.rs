//! The fitted monotone piecewise-linear progress curve.
//!
//! A [`MonotoneCurve`] maps normalized time x ∈ [0, 1] to normalized
//! cumulative counter progress y ∈ [0, 1]; its derivative is the
//! instantaneous event rate in "fraction of the instance total per
//! unit of normalized time".

use serde::{Deserialize, Serialize};

/// Piecewise-linear non-decreasing curve through `(xs[i], ys[i])`,
/// anchored at (0, 0) and (1, 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonotoneCurve {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl MonotoneCurve {
    /// Build from the interior knots `(knot_xs[i], knot_ys[i])`;
    /// endpoints (0,0)/(1,1) are added and values are clamped into
    /// [0, 1] and made non-decreasing. `knot_xs` must be strictly
    /// increasing within (0, 1) and as long as `knot_ys`.
    pub fn from_knots(knot_xs: &[f64], knot_ys: &[f64]) -> Self {
        assert_eq!(knot_xs.len(), knot_ys.len(), "one y per knot x");
        let mut xs = Vec::with_capacity(knot_xs.len() + 2);
        let mut ys = Vec::with_capacity(knot_xs.len() + 2);
        xs.push(0.0);
        ys.push(0.0);
        for (&x, &y) in knot_xs.iter().zip(knot_ys) {
            assert!(x > 0.0 && x < 1.0, "interior knot x={x} out of (0,1)");
            assert!(
                *xs.last().unwrap() < x,
                "knot x values must be strictly increasing"
            );
            xs.push(x);
            let prev = *ys.last().unwrap();
            ys.push(y.clamp(prev, 1.0));
        }
        xs.push(1.0);
        ys.push(1.0);
        Self { xs, ys }
    }

    /// The identity curve (uniform progress).
    pub fn identity() -> Self {
        Self::from_knots(&[], &[])
    }

    /// Evaluate y(x); x is clamped into [0, 1]. NaN input evaluates to
    /// 0.0 (clamp passes NaN through, which would otherwise panic in
    /// the knot search below).
    pub fn eval(&self, x: f64) -> f64 {
        if x.is_nan() {
            return 0.0;
        }
        let x = x.clamp(0.0, 1.0);
        match self.xs.binary_search_by(|v| v.partial_cmp(&x).unwrap()) {
            Ok(i) => self.ys[i],
            Err(i) => {
                // x strictly between xs[i-1] and xs[i].
                let (x0, x1) = (self.xs[i - 1], self.xs[i]);
                let (y0, y1) = (self.ys[i - 1], self.ys[i]);
                y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            }
        }
    }

    /// Instantaneous slope dy/dx at x (right-continuous; at x = 1 the
    /// last segment's slope). NaN input yields 0.0, like [`eval`].
    ///
    /// [`eval`]: MonotoneCurve::eval
    pub fn slope(&self, x: f64) -> f64 {
        if x.is_nan() {
            return 0.0;
        }
        let x = x.clamp(0.0, 1.0);
        let i = match self.xs.binary_search_by(|v| v.partial_cmp(&x).unwrap()) {
            Ok(i) => i.min(self.xs.len() - 2),
            Err(i) => i - 1,
        };
        let dx = self.xs[i + 1] - self.xs[i];
        let dy = self.ys[i + 1] - self.ys[i];
        if dx <= 0.0 {
            0.0
        } else {
            dy / dx
        }
    }

    /// Sample the curve and its slope at `n` uniformly-spaced points,
    /// returning `(x, y, slope)` triples — the plotting payload.
    pub fn sample(&self, n: usize) -> Vec<(f64, f64, f64)> {
        assert!(n >= 2);
        (0..n)
            .map(|i| {
                let x = i as f64 / (n - 1) as f64;
                (x, self.eval(x), self.slope(x))
            })
            .collect()
    }

    /// The knot vectors (including anchors).
    pub fn knots(&self) -> (&[f64], &[f64]) {
        (&self.xs, &self.ys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_curve() {
        let c = MonotoneCurve::identity();
        assert_eq!(c.eval(0.0), 0.0);
        assert_eq!(c.eval(0.5), 0.5);
        assert_eq!(c.eval(1.0), 1.0);
        assert_eq!(c.slope(0.3), 1.0);
    }

    #[test]
    fn eval_interpolates_knots() {
        let c = MonotoneCurve::from_knots(&[0.5], &[0.8]);
        assert!((c.eval(0.25) - 0.4).abs() < 1e-12);
        assert!((c.eval(0.5) - 0.8).abs() < 1e-12);
        assert!((c.eval(0.75) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn slope_is_piecewise_constant() {
        let c = MonotoneCurve::from_knots(&[0.5], &[0.8]);
        assert!((c.slope(0.2) - 1.6).abs() < 1e-12);
        assert!((c.slope(0.9) - 0.4).abs() < 1e-12);
        assert!((c.slope(1.0) - 0.4).abs() < 1e-12, "right endpoint uses last segment");
    }

    #[test]
    fn eval_clamps_out_of_range() {
        let c = MonotoneCurve::identity();
        assert_eq!(c.eval(-3.0), 0.0);
        assert_eq!(c.eval(7.0), 1.0);
        assert_eq!(c.eval(f64::NEG_INFINITY), 0.0);
        assert_eq!(c.eval(f64::INFINITY), 1.0);
    }

    #[test]
    fn nan_input_is_defined_not_a_panic() {
        let c = MonotoneCurve::from_knots(&[0.5], &[0.8]);
        assert_eq!(c.eval(f64::NAN), 0.0);
        assert_eq!(c.slope(f64::NAN), 0.0);
    }

    #[test]
    fn non_monotone_knots_are_clamped() {
        let c = MonotoneCurve::from_knots(&[0.3, 0.6], &[0.6, 0.4]);
        let (_, ys) = c.knots();
        assert!(ys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(c.eval(0.6), 0.6, "second knot clamped up to the first");
    }

    #[test]
    fn sample_covers_unit_interval() {
        let c = MonotoneCurve::from_knots(&[0.5], &[0.2]);
        let s = c.sample(11);
        assert_eq!(s.len(), 11);
        assert_eq!(s[0].0, 0.0);
        assert_eq!(s[10].0, 1.0);
        assert!(s.windows(2).all(|w| w[0].1 <= w[1].1 + 1e-12), "y non-decreasing");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn duplicate_knot_x_panics() {
        let _ = MonotoneCurve::from_knots(&[0.5, 0.5], &[0.2, 0.3]);
    }

    #[test]
    #[should_panic(expected = "out of (0,1)")]
    fn boundary_knot_panics() {
        let _ = MonotoneCurve::from_knots(&[0.0], &[0.2]);
    }
}

//! Order statistics for the benchmark's reports.
//!
//! A timing is reported as a median plus the highest percentile that
//! still has at least ten samples beyond it, so a tail figure is never
//! one or two outliers: p90 needs 100 samples, p99 needs 1,000.
//!
//! Across the reps (or time slices) of one run, the end-to-end figure
//! is the **best** rep's. The sandbox's CPU alternates between two
//! speeds about 27 % apart, staying in each for seconds at a time (a
//! pure ALU loop shows it; see README.md), so the samples of a 20 s
//! window are a two-mode mixture and their median jumps between the
//! modes with the share of slow seconds. Interference only ever slows a
//! rep down; the best rep estimates the cost on the uncontended
//! machine, which is the figure two commits can be compared by.

/// Samples that must lie beyond a reported percentile.
pub const SAMPLES_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Median (mean of the two middle values for an even count).
/// Panics on an empty slice: a metric without samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The smallest time among the reps of one run.
pub fn best(times: &[f64]) -> f64 {
    assert!(!times.is_empty(), "best of no reps");
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `p`-quantile (nearest rank), or `None` when fewer than
/// [`SAMPLES_BEYOND`] samples would lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&p));
    let n = values.len();
    let rank = (n as f64 * p).ceil() as usize; // 1-based
    if rank == 0 || n - rank < SAMPLES_BEYOND {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None, "999 samples leave only 9 beyond p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0), "exactly ten samples beyond");
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.90), None);
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.90), Some(90.0));
    }
}

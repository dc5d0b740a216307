//! Sweep-direction detection over the folded address panel.
//!
//! The figure's key reading is that the SYMGS phases traverse the
//! matrix *forward* (a1: lower→upper addresses) then *backward*
//! (a2: upper→lower). We recover that from the PEBS address samples
//! with a robust Theil–Sen slope estimate.

use mempersp_extrae::{ObjectId, Trace};
use mempersp_folding::FoldedRegion;
use serde::{Deserialize, Serialize};

/// Direction of an address sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepDirection {
    /// Addresses rise with time.
    Forward,
    /// Addresses fall with time.
    Backward,
    /// No significant linear trend.
    Flat,
}

/// Summary of one detected sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepInfo {
    pub direction: SweepDirection,
    /// Theil–Sen slope in bytes per unit of normalized time.
    pub slope: f64,
    /// Samples used.
    pub points: usize,
    /// Time extent of the samples.
    pub x_min: f64,
    pub x_max: f64,
    /// Address extent of the samples.
    pub addr_min: u64,
    pub addr_max: u64,
}

/// Robust Theil–Sen slope of `(x, y)` points: the median of pairwise
/// slopes. For large inputs a deterministic pair subsample bounds the
/// cost at ~200k pairs.
pub fn theil_sen_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len();
    if n < 2 {
        return 0.0;
    }
    let mut slopes = Vec::new();
    // Cap the number of pairs deterministically: stride over j.
    let max_pairs = 200_000usize;
    let total_pairs = n * (n - 1) / 2;
    let stride = (total_pairs / max_pairs).max(1);
    let mut k = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            k += 1;
            if !k.is_multiple_of(stride) {
                continue;
            }
            let dx = points[j].0 - points[i].0;
            if dx.abs() > 1e-12 {
                slopes.push((points[j].1 - points[i].1) / dx);
            }
        }
    }
    if slopes.is_empty() {
        return 0.0;
    }
    slopes.sort_by(|a, b| a.partial_cmp(b).expect("no NaN slopes"));
    slopes[slopes.len() / 2]
}

/// Classify a point cloud as a forward/backward/flat sweep. The trend
/// is "significant" when the fitted rise over the observed time span
/// exceeds `min_span_fraction` of the observed address span.
pub fn detect_sweep(points: &[(f64, f64)], min_span_fraction: f64) -> SweepDirection {
    if points.len() < 3 {
        return SweepDirection::Flat;
    }
    let slope = theil_sen_slope(points);
    let x_min = points.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let x_max = points.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
    let y_min = points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let y_max = points.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    let span_y = (y_max - y_min).max(1.0);
    let rise = slope * (x_max - x_min);
    if rise.abs() < min_span_fraction * span_y {
        SweepDirection::Flat
    } else if rise > 0.0 {
        SweepDirection::Forward
    } else {
        SweepDirection::Backward
    }
}

fn summarize(points: &[(f64, f64)]) -> SweepInfo {
    let slope = theil_sen_slope(points);
    SweepInfo {
        direction: detect_sweep(points, 0.3),
        slope,
        points: points.len(),
        x_min: points.iter().map(|p| p.0).fold(f64::INFINITY, f64::min),
        x_max: points.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max),
        addr_min: points.iter().map(|p| p.1 as u64).min().unwrap_or(0),
        addr_max: points.iter().map(|p| p.1 as u64).max().unwrap_or(0),
    }
}

/// Split a folded SYMGS region's matrix-object samples into the
/// forward and backward sweeps using the sampled instruction pointers
/// (the two sweeps live on different source lines), and summarize
/// each. Returns `None` when either sweep has no samples.
///
/// `fwd_lines`/`bwd_lines` are inclusive line ranges within `file`;
/// `x_range` restricts the folded-time window (pass `(0.0, 1.0)` when
/// the folded region is the SYMGS itself, or one phase's extent when
/// it is the whole iteration).
pub fn symgs_sweeps(
    folded: &FoldedRegion,
    trace: &Trace,
    object: ObjectId,
    file: &str,
    fwd_lines: (u32, u32),
    bwd_lines: (u32, u32),
    x_range: (f64, f64),
) -> Option<(SweepInfo, SweepInfo)> {
    let mut fwd: Vec<(f64, f64)> = Vec::new();
    let mut bwd: Vec<(f64, f64)> = Vec::new();
    for p in folded.pooled.addr_points() {
        if p.object != Some(object) {
            continue;
        }
        if p.x < x_range.0 || p.x > x_range.1 {
            continue;
        }
        let Some(loc) = trace.source.resolve(mempersp_extrae::Ip(p.ip)) else {
            continue;
        };
        if loc.file != file {
            continue;
        }
        if (fwd_lines.0..=fwd_lines.1).contains(&loc.line) {
            fwd.push((p.x, p.addr as f64));
        } else if (bwd_lines.0..=bwd_lines.1).contains(&loc.line) {
            bwd.push((p.x, p.addr as f64));
        }
    }
    if fwd.len() < 3 || bwd.len() < 3 {
        return None;
    }
    Some((summarize(&fwd), summarize(&bwd)))
}

/// The fraction of a folded SYMGS instance spent in the forward sweep,
/// estimated as the boundary between forward-line and backward-line
/// samples (midpoint of the last forward and first backward x).
pub fn sweep_split_x(fwd: &SweepInfo, bwd: &SweepInfo) -> f64 {
    ((fwd.x_max + bwd.x_min) / 2.0).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theil_sen_exact_line() {
        let pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 / 100.0, 5.0 * i as f64)).collect();
        assert!((theil_sen_slope(&pts) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn theil_sen_resists_outliers() {
        let mut pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 / 100.0, i as f64)).collect();
        // 20 wild outliers.
        for i in 0..20 {
            pts[i * 5].1 = 1e9;
        }
        let slope = theil_sen_slope(&pts);
        assert!((slope - 100.0).abs() / 100.0 < 0.2, "slope {slope}");
    }

    #[test]
    fn theil_sen_degenerate() {
        assert_eq!(theil_sen_slope(&[]), 0.0);
        assert_eq!(theil_sen_slope(&[(0.5, 1.0)]), 0.0);
        assert_eq!(theil_sen_slope(&[(0.5, 1.0), (0.5, 2.0)]), 0.0, "vertical pair ignored");
    }

    #[test]
    fn detects_forward_backward_flat() {
        let fwd: Vec<(f64, f64)> = (0..50).map(|i| (i as f64 / 50.0, i as f64 * 100.0)).collect();
        let bwd: Vec<(f64, f64)> = (0..50).map(|i| (i as f64 / 50.0, (50 - i) as f64 * 100.0)).collect();
        let flat: Vec<(f64, f64)> =
            (0..50).map(|i| (i as f64 / 50.0, ((i * 37) % 50) as f64 * 100.0)).collect();
        assert_eq!(detect_sweep(&fwd, 0.3), SweepDirection::Forward);
        assert_eq!(detect_sweep(&bwd, 0.3), SweepDirection::Backward);
        assert_eq!(detect_sweep(&flat, 0.3), SweepDirection::Flat);
        assert_eq!(detect_sweep(&fwd[..2], 0.3), SweepDirection::Flat, "too few points");
    }

    #[test]
    fn split_point_between_sweeps() {
        let fwd = SweepInfo {
            direction: SweepDirection::Forward,
            slope: 1.0,
            points: 10,
            x_min: 0.0,
            x_max: 0.48,
            addr_min: 0,
            addr_max: 100,
        };
        let bwd = SweepInfo { x_min: 0.52, x_max: 1.0, ..fwd.clone() };
        assert!((sweep_split_x(&fwd, &bwd) - 0.5).abs() < 1e-12);
    }
}

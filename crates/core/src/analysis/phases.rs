//! Per-iteration phase detection: the figure's A–E labels.
//!
//! Within one CG iteration the paper identifies:
//!
//! * **A** — the first `ComputeSYMGS_ref` call (fine-level pre-smooth),
//! * **B** — the first `ComputeSPMV_ref` call (fine residual),
//! * **C** — the coarse-grid work in between (restriction, recursive
//!   MG, prolongation — everything between B's end and D's start),
//! * **D** — the last `ComputeSYMGS_ref` call (fine post-smooth),
//! * **E** — the last `ComputeSPMV_ref` call (the CG `A·p`).
//!
//! Boundaries are averaged over all kept iteration instances and
//! expressed in the folded (normalized) time of the iteration.

use mempersp_extrae::events::RegionId;
use mempersp_extrae::query::{EventClass, Query};
use mempersp_extrae::trace_source::{ScanStats, TraceSource};
use mempersp_extrae::RowView;
use serde::{Deserialize, Serialize};
use std::io;

/// One detected phase in folded iteration time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// The figure's label (A–E).
    pub label: String,
    /// Region the phase corresponds to ("(coarse MG)" for C).
    pub region: String,
    /// Mean normalized start within the iteration.
    pub x_start: f64,
    /// Mean normalized end within the iteration.
    pub x_end: f64,
}

impl Phase {
    /// Fraction of the iteration this phase occupies.
    pub fn fraction(&self) -> f64 {
        self.x_end - self.x_start
    }

    /// Split the phase at an interior fraction (used to separate the
    /// forward/backward sweeps of a SYMGS phase).
    pub fn split(&self, frac: f64, first_label: &str, second_label: &str) -> (Phase, Phase) {
        assert!((0.0..=1.0).contains(&frac));
        let mid = self.x_start + frac * (self.x_end - self.x_start);
        (
            Phase {
                label: first_label.to_string(),
                region: self.region.clone(),
                x_start: self.x_start,
                x_end: mid,
            },
            Phase {
                label: second_label.to_string(),
                region: self.region.clone(),
                x_start: mid,
                x_end: self.x_end,
            },
        )
    }
}

/// One region's `(start, end)` instances, in cycles.
type Instances = Vec<(u64, u64)>;

/// The top-level `(start, end)` instances of each of `regions` on
/// `core`, in trace order, from **one** scan of that core's region
/// boundaries (recursion counts once, as in
/// [`mempersp_extrae::Trace::region_instances`]; a name the header
/// does not define gets an empty list).
pub(crate) fn region_instances(
    source: &mut dyn TraceSource,
    regions: &[&str],
    core: usize,
) -> io::Result<(Vec<Instances>, ScanStats)> {
    let header = source.header()?;
    let ids: Vec<Option<RegionId>> = regions.iter().map(|r| header.region_id(r)).collect();
    let mut open = vec![(0u32, 0u64); regions.len()]; // (depth, start of the top-level instance)
    let mut out = vec![Vec::new(); regions.len()];
    let q = Query::all()
        .with_kinds(&[EventClass::RegionEnter, EventClass::RegionExit])
        .on_cores(&[core]);
    let stats = source.scan_batches(&q, &mut |batch| {
        for row in batch.rows() {
            let RowView::Boundary(b) = row.view else { continue };
            let Some(k) = ids.iter().position(|&id| id == Some(b.region())) else { continue };
            let (depth, start) = &mut open[k];
            if b.enter {
                if *depth == 0 {
                    *start = row.cycles;
                }
                *depth += 1;
            } else if *depth > 0 {
                *depth -= 1;
                if *depth == 0 {
                    out[k].push((*start, row.cycles));
                }
            }
        }
    })?;
    Ok((out, stats))
}

/// Detect the A–E phases of the `iteration_region` on `core`,
/// averaged over all its instances, from one scan of that core's
/// region boundaries. Returns an empty vector when the iteration or
/// sub-regions are missing.
pub fn iteration_phases(
    source: &mut dyn TraceSource,
    iteration_region: &str,
    symgs_region: &str,
    spmv_region: &str,
    core: usize,
) -> io::Result<(Vec<Phase>, ScanStats)> {
    let regions = [iteration_region, symgs_region, spmv_region];
    let (instances, stats) = region_instances(source, &regions, core)?;
    Ok((phases_of(&instances, symgs_region, spmv_region), stats))
}

/// The phases from the instance lists of the iteration, SYMGS and SpMV
/// regions (`instances[0..3]`, as [`region_instances`] returns them).
pub(crate) fn phases_of(
    instances: &[Instances],
    symgs_region: &str,
    spmv_region: &str,
) -> Vec<Phase> {
    // Sub-instances fully contained in `[s, e]`.
    let nested = |all: &[(u64, u64)], s: u64, e: u64| -> Vec<(u64, u64)> {
        all.iter().copied().filter(|&(a, b)| a >= s && b <= e).collect()
    };

    // Accumulate normalized boundaries across iterations.
    let mut acc: Vec<(f64, f64)> = vec![(0.0, 0.0); 5]; // A..E
    let mut used = 0usize;
    for &(s, e) in &instances[0] {
        let dur = (e - s) as f64;
        if dur <= 0.0 {
            continue;
        }
        let symgs = nested(&instances[1], s, e);
        let spmv = nested(&instances[2], s, e);
        if symgs.len() < 2 || spmv.len() < 2 {
            continue;
        }
        let norm = |t: u64| (t - s) as f64 / dur;
        let a = symgs.first().expect("len >= 2");
        let d = symgs.last().expect("len >= 2");
        let b = spmv.first().expect("len >= 2");
        let ee = spmv.last().expect("len >= 2");
        let bounds = [
            (norm(a.0), norm(a.1)),
            (norm(b.0), norm(b.1)),
            (norm(b.1), norm(d.0)), // C: coarse work between B and D
            (norm(d.0), norm(d.1)),
            (norm(ee.0), norm(ee.1)),
        ];
        for (acc, b) in acc.iter_mut().zip(bounds) {
            acc.0 += b.0;
            acc.1 += b.1;
        }
        used += 1;
    }
    if used == 0 {
        return Vec::new();
    }
    let labels = ["A", "B", "C", "D", "E"];
    let regions = [
        symgs_region,
        spmv_region,
        "(coarse MG)",
        symgs_region,
        spmv_region,
    ];
    labels
        .iter()
        .zip(regions)
        .zip(acc)
        .map(|((label, region), (s, e))| Phase {
            label: label.to_string(),
            region: region.to_string(),
            x_start: s / used as f64,
            x_end: e / used as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_extrae::{Trace, Tracer, TracerConfig};
    use mempersp_pebs::CounterSnapshot;

    /// Synthesize a trace shaped like one HPCG iteration:
    /// SYMGS [0,20], SPMV [20,30], coarse [30,60], SYMGS [60,80],
    /// SPMV [80,100], twice.
    fn synthetic() -> Trace {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let c = CounterSnapshot::default();
        for it in 0..2u64 {
            let o = it * 110;
            t.enter(0, "CG_iteration", c, o);
            t.enter(0, "SYMGS", c, o);
            t.exit(0, "SYMGS", c, o + 20);
            t.enter(0, "SPMV", c, o + 20);
            t.exit(0, "SPMV", c, o + 30);
            // Coarse work: nested SYMGS + SPMV inside [30,60].
            t.enter(0, "SYMGS", c, o + 32);
            t.exit(0, "SYMGS", c, o + 40);
            t.enter(0, "SPMV", c, o + 42);
            t.exit(0, "SPMV", c, o + 48);
            t.enter(0, "SYMGS", c, o + 60);
            t.exit(0, "SYMGS", c, o + 80);
            t.enter(0, "SPMV", c, o + 80);
            t.exit(0, "SPMV", c, o + 100);
            t.exit(0, "CG_iteration", c, o + 100);
        }
        t.finish("synthetic")
    }

    #[test]
    fn detects_five_phases_in_order() {
        let tr = synthetic();
        let src = &mut &tr;
        let (phases, _) = iteration_phases(src, "CG_iteration", "SYMGS", "SPMV", 0).unwrap();
        assert_eq!(phases.len(), 5);
        let labels: Vec<&str> = phases.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["A", "B", "C", "D", "E"]);
        assert!((phases[0].x_start - 0.0).abs() < 1e-9);
        assert!((phases[0].x_end - 0.2).abs() < 1e-9);
        assert!((phases[1].x_end - 0.3).abs() < 1e-9);
        assert!((phases[2].x_start - 0.3).abs() < 1e-9, "C starts at B's end");
        assert!((phases[2].x_end - 0.6).abs() < 1e-9, "C ends at D's start");
        assert!((phases[3].x_end - 0.8).abs() < 1e-9);
        assert!((phases[4].x_end - 1.0).abs() < 1e-9);
        // Coarse-level SYMGS/SPMV must not be picked as A/B/D/E.
        assert!((phases[3].x_start - 0.6).abs() < 1e-9);
    }

    #[test]
    fn missing_region_yields_empty() {
        let tr = synthetic();
        let src = &mut &tr;
        assert!(iteration_phases(src, "NOPE", "SYMGS", "SPMV", 0).unwrap().0.is_empty());
        assert!(iteration_phases(src, "CG_iteration", "NOPE", "SPMV", 0).unwrap().0.is_empty());
        assert!(iteration_phases(src, "CG_iteration", "SYMGS", "SPMV", 1).unwrap().0.is_empty());
    }

    /// The one-pass instance lists are `Trace::region_instances`'.
    #[test]
    fn region_instances_match_the_trace_walk() {
        let mut t = Tracer::new(TracerConfig::default(), 2);
        let c = CounterSnapshot::default();
        t.enter(0, "rec", c, 0);
        t.enter(0, "rec", c, 5);
        t.enter(1, "rec", c, 6);
        t.enter(0, "other", c, 7);
        t.exit(0, "other", c, 8);
        t.exit(0, "rec", c, 10);
        t.exit(0, "rec", c, 20);
        t.exit(1, "rec", c, 25);
        t.enter(0, "rec", c, 30);
        t.exit(0, "rec", c, 40);
        let tr = t.finish("instances");
        let src = &mut &tr;
        let (lists, stats) = region_instances(src, &["other", "rec", "NOPE"], 0).unwrap();
        assert_eq!(lists[1], vec![(0, 20), (30, 40)], "recursion counts once, core 1 ignored");
        for (name, got) in ["other", "rec"].iter().zip(&lists) {
            assert_eq!(*got, tr.region_instances(tr.region_id(name).unwrap(), 0));
        }
        assert!(lists[2].is_empty());
        assert_eq!(stats.events_matched, 8);
    }

    #[test]
    fn phase_split() {
        let p = Phase { label: "A".into(), region: "SYMGS".into(), x_start: 0.2, x_end: 0.6 };
        let (a1, a2) = p.split(0.5, "a1", "a2");
        assert_eq!(a1.x_start, 0.2);
        assert!((a1.x_end - 0.4).abs() < 1e-12);
        assert!((a2.x_start - 0.4).abs() < 1e-12);
        assert_eq!(a2.x_end, 0.6);
        assert!((p.fraction() - 0.4).abs() < 1e-12);
    }
}

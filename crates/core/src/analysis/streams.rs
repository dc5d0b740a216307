//! Dominant data streams per computing region.
//!
//! The paper's conclusion highlights "the identification of the most
//! dominant data streams and their temporal evolution along computing
//! regions": for each detected phase of the folded iteration, which
//! data objects absorb the memory traffic, in which direction, and at
//! what cost. This module computes exactly that table from the folded
//! address samples.

use crate::analysis::phases::Phase;
use crate::analysis::sweeps::{detect_sweep, SweepDirection};
use mempersp_extrae::{ObjectId, Trace};
use mempersp_folding::FoldedRegion;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One object's activity within one phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamActivity {
    /// `None` = unresolved addresses.
    pub object: Option<ObjectId>,
    pub object_name: String,
    pub loads: u64,
    pub stores: u64,
    /// Mean sampled latency of the phase's accesses to this object.
    pub mean_latency: f64,
    /// Traversal direction of the samples within the phase.
    pub direction: SweepDirection,
}

impl StreamActivity {
    pub fn total(&self) -> u64 {
        self.loads + self.stores
    }
}

/// All streams of one phase, dominant (most-sampled) first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseStreams {
    pub phase: Phase,
    pub streams: Vec<StreamActivity>,
}

impl PhaseStreams {
    /// The dominant stream of the phase (most samples), if any.
    pub fn dominant(&self) -> Option<&StreamActivity> {
        self.streams.first()
    }
}

/// Compute the per-phase stream table from the folded address panel.
pub fn phase_streams(folded: &FoldedRegion, trace: &Trace, phases: &[Phase]) -> Vec<PhaseStreams> {
    phases
        .iter()
        .map(|phase| {
            struct Acc {
                loads: u64,
                stores: u64,
                lat: u64,
                points: Vec<(f64, f64)>,
            }
            let mut by_obj: BTreeMap<Option<u32>, Acc> = BTreeMap::new();
            for p in folded.pooled.addr_points() {
                if p.x < phase.x_start || p.x > phase.x_end {
                    continue;
                }
                let acc = by_obj.entry(p.object.map(|o| o.0)).or_insert(Acc {
                    loads: 0,
                    stores: 0,
                    lat: 0,
                    points: Vec::new(),
                });
                if p.is_store {
                    acc.stores += 1;
                } else {
                    acc.loads += 1;
                }
                acc.lat += p.latency as u64;
                acc.points.push((p.x, p.addr as f64));
            }
            let mut streams: Vec<StreamActivity> = by_obj
                .into_iter()
                .map(|(key, acc)| {
                    let (object, object_name) = match key {
                        Some(raw) => (
                            Some(ObjectId(raw)),
                            trace
                                .objects
                                .get(ObjectId(raw))
                                .map(|o| o.name.clone())
                                .unwrap_or_else(|| format!("<object {raw}>")),
                        ),
                        None => (None, "<unresolved>".to_string()),
                    };
                    let total = acc.loads + acc.stores;
                    StreamActivity {
                        object,
                        object_name,
                        loads: acc.loads,
                        stores: acc.stores,
                        mean_latency: if total == 0 {
                            0.0
                        } else {
                            acc.lat as f64 / total as f64
                        },
                        direction: detect_sweep(&acc.points, 0.3),
                    }
                })
                .collect();
            streams.sort_by_key(|s| std::cmp::Reverse(s.total()));
            PhaseStreams { phase: phase.clone(), streams }
        })
        .collect()
}

/// Render the stream table as text (one block per phase).
pub fn streams_report(tables: &[PhaseStreams]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for t in tables {
        let _ = writeln!(
            out,
            "phase {} ({}) x=[{:.3},{:.3}]:",
            t.phase.label, t.phase.region, t.phase.x_start, t.phase.x_end
        );
        for s in t.streams.iter().take(4) {
            let _ = writeln!(
                out,
                "  {:<44} {:>6} loads {:>6} stores  lat {:>6.1}  {:?}",
                s.object_name, s.loads, s.stores, s.mean_latency, s.direction
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_folding::{AddrPoint, FoldedCounter, MonotoneCurve, PooledSamples};
    use mempersp_memsim::MemLevel;
    use mempersp_pebs::EventKind;

    fn folded_with(points: Vec<AddrPoint>) -> FoldedRegion {
        FoldedRegion {
            region: "it".into(),
            instances_used: 1,
            instances_rejected: 0,
            avg_duration_cycles: 1e6,
            freq_mhz: 1000,
            counters: EventKind::ALL
                .iter()
                .map(|&kind| FoldedCounter {
                    kind,
                    curve: MonotoneCurve::identity(),
                    avg_total: 0.0,
                    points: 0,
                })
                .collect(),
            pooled: PooledSamples::from_points(&[], &points, &[]),
        }
    }

    fn pt(x: f64, addr: u64, obj: Option<u32>, is_store: bool, lat: u32) -> AddrPoint {
        AddrPoint {
            x,
            addr,
            ip: 0,
            is_store,
            latency: lat,
            source: MemLevel::L2,
            object: obj.map(ObjectId),
            instance: 0,
        }
    }

    fn trace_with_object() -> Trace {
        let mut t = mempersp_extrae::Tracer::new(mempersp_extrae::TracerConfig::default(), 1);
        t.register_static("matrix", 0, 1 << 20);
        t.finish("streams")
    }

    #[test]
    fn dominant_stream_and_direction_per_phase() {
        let trace = trace_with_object();
        // Phase A [0, 0.5): object 0 forward ramp (30 samples) + noise.
        let mut points = Vec::new();
        for i in 0..30 {
            let x = 0.01 + 0.48 * i as f64 / 30.0;
            points.push(pt(x, 1000 + i * 1000, Some(0), false, 40));
        }
        points.push(pt(0.2, 0xdead, None, true, 4));
        // Phase B [0.5, 1.0]: backward ramp on object 0.
        for i in 0..20 {
            let x = 0.51 + 0.48 * i as f64 / 20.0;
            points.push(pt(x, 30_000 - i * 1000, Some(0), false, 10));
        }
        let folded = folded_with(points);
        let phases = vec![
            Phase { label: "A".into(), region: "r".into(), x_start: 0.0, x_end: 0.5 },
            Phase { label: "B".into(), region: "r".into(), x_start: 0.5, x_end: 1.0 },
        ];
        let tables = phase_streams(&folded, &trace, &phases);
        assert_eq!(tables.len(), 2);
        let a = tables[0].dominant().unwrap();
        assert_eq!(a.object_name, "matrix");
        assert_eq!(a.loads, 30);
        assert_eq!(a.direction, SweepDirection::Forward);
        assert!((a.mean_latency - 40.0).abs() < 1e-9);
        // The unresolved store shows up as a secondary stream.
        assert_eq!(tables[0].streams.len(), 2);
        assert_eq!(tables[0].streams[1].object, None);
        let b = tables[1].dominant().unwrap();
        assert_eq!(b.direction, SweepDirection::Backward);
    }

    #[test]
    fn empty_phase_has_no_streams() {
        let trace = trace_with_object();
        let folded = folded_with(vec![pt(0.9, 100, Some(0), false, 5)]);
        let phases =
            vec![Phase { label: "A".into(), region: "r".into(), x_start: 0.0, x_end: 0.5 }];
        let tables = phase_streams(&folded, &trace, &phases);
        assert!(tables[0].streams.is_empty());
        assert!(tables[0].dominant().is_none());
    }

    #[test]
    fn report_renders_all_phases() {
        let trace = trace_with_object();
        let folded = folded_with(vec![pt(0.25, 100, Some(0), false, 5)]);
        let phases =
            vec![Phase { label: "A".into(), region: "r".into(), x_start: 0.0, x_end: 0.5 }];
        let text = streams_report(&phase_streams(&folded, &trace, &phases));
        assert!(text.contains("phase A"));
        assert!(text.contains("matrix"));
    }
}

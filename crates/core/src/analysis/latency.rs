//! Access-cost distributions from the PEBS samples.
//!
//! The load-latency side of PEBS is what tools like `dmem_advisor`
//! and VTune build on (both cited by the paper); this module gives
//! the folded equivalent: latency percentiles and per-data-source
//! histograms, per object or for the whole run.

use mempersp_extrae::batch::level_code;
use mempersp_extrae::query::{EventClass, Query};
use mempersp_extrae::trace_source::{ScanStats, TraceSource};
use mempersp_extrae::{ObjectId, RowView};
use serde::{Deserialize, Serialize};
use std::io;

/// Latency distribution summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyProfile {
    /// Samples aggregated.
    pub samples: usize,
    pub min: u32,
    pub p50: u32,
    pub p90: u32,
    pub p99: u32,
    pub max: u32,
    pub mean: f64,
    /// Mean latency of the samples served by each level (L1/L2/L3/DRAM);
    /// `None` when no sample came from that level.
    pub mean_by_source: [Option<f64>; 4],
}

fn percentile(sorted: &[u32], p: f64) -> u32 {
    debug_assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Build the latency profile of PEBS load samples, optionally
/// restricted to one object (pushed down into the scan) and/or to
/// stores instead of loads. `None` when no sample qualifies.
pub fn latency_profile(
    source: &mut dyn TraceSource,
    object: Option<ObjectId>,
    stores: bool,
) -> io::Result<(Option<LatencyProfile>, ScanStats)> {
    let mut lats: Vec<u32> = Vec::new();
    let mut sums = [0u64; 4];
    let mut counts = [0u64; 4];
    let q = match object {
        Some(id) => Query::all().touching_object(id),
        None => Query::all().with_kinds(&[EventClass::Pebs]),
    };
    let stats = source.scan_batches(&q, &mut |batch| {
        for row in batch.rows() {
            let RowView::Pebs(p) = row.view else { continue };
            let s = p.sample();
            if s.is_store != stores {
                continue;
            }
            lats.push(s.latency);
            let i = level_code(s.source) as usize;
            sums[i] += s.latency as u64;
            counts[i] += 1;
        }
    })?;
    if lats.is_empty() {
        return Ok((None, stats));
    }
    lats.sort_unstable();
    let mean = lats.iter().map(|&l| l as f64).sum::<f64>() / lats.len() as f64;
    let mut mean_by_source = [None; 4];
    for i in 0..4 {
        if counts[i] > 0 {
            mean_by_source[i] = Some(sums[i] as f64 / counts[i] as f64);
        }
    }
    let profile = LatencyProfile {
        samples: lats.len(),
        min: lats[0],
        p50: percentile(&lats, 0.50),
        p90: percentile(&lats, 0.90),
        p99: percentile(&lats, 0.99),
        max: *lats.last().expect("non-empty"),
        mean,
        mean_by_source,
    };
    Ok((Some(profile), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_extrae::{CodeLocation, Trace, Tracer, TracerConfig};
    use mempersp_memsim::MemLevel;
    use mempersp_pebs::PebsSample;

    fn profile(tr: &Trace, object: Option<ObjectId>, stores: bool) -> Option<LatencyProfile> {
        latency_profile(&mut &*tr, object, stores).unwrap().0
    }

    fn trace_with_latencies(lats: &[(u32, MemLevel)]) -> Trace {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let base = t.malloc(1 << 20, &CodeLocation::new("x.rs", 1, "x"), 0);
        for (i, &(lat, src)) in lats.iter().enumerate() {
            t.record_pebs(PebsSample {
                timestamp: i as u64,
                core: 0,
                ip: 0,
                addr: base + i as u64 * 8,
                size: 8,
                is_store: false,
                latency: lat,
                source: src,
                tlb_miss: false,
            });
        }
        t.finish("lat")
    }

    #[test]
    fn percentiles_and_means() {
        let lats: Vec<(u32, MemLevel)> = (1..=100).map(|i| (i, MemLevel::L2)).collect();
        let tr = trace_with_latencies(&lats);
        let p = profile(&tr, None, false).unwrap();
        assert_eq!(p.samples, 100);
        assert_eq!(p.min, 1);
        assert_eq!(p.max, 100);
        // Nearest-rank on 100 samples: index round(99·0.5) = 50 → 51.
        assert_eq!(p.p50, 51);
        assert_eq!(p.p90, 90);
        assert_eq!(p.p99, 99);
        assert!((p.mean - 50.5).abs() < 1e-9);
        assert!(p.mean_by_source[1].is_some());
        assert!(p.mean_by_source[3].is_none());
    }

    #[test]
    fn per_source_means() {
        let tr = trace_with_latencies(&[
            (4, MemLevel::L1),
            (6, MemLevel::L1),
            (200, MemLevel::Dram),
        ]);
        let p = profile(&tr, None, false).unwrap();
        assert_eq!(p.mean_by_source[0], Some(5.0));
        assert_eq!(p.mean_by_source[3], Some(200.0));
    }

    #[test]
    fn empty_selection_is_none() {
        let tr = trace_with_latencies(&[(4, MemLevel::L1)]);
        assert!(profile(&tr, None, true).is_none(), "no store samples");
        assert!(profile(&tr, Some(mempersp_extrae::ObjectId(99)), false).is_none());
    }
}

//! Per-object access statistics from the PEBS samples — the basis for
//! the paper's observations that part of the address space is only
//! read during the execution phase, and for the data-source/latency
//! breakdown per structure.

use mempersp_extrae::batch::level_code;
use mempersp_extrae::query::{EventClass, Query};
use mempersp_extrae::trace_source::{ScanStats, TraceSource};
use mempersp_extrae::{ObjectId, RowView};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Aggregate PEBS statistics of one data object (or of the
/// unresolved-address bucket).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectStat {
    /// `None` = samples whose address resolved to no object.
    pub id: Option<ObjectId>,
    pub name: String,
    pub loads: u64,
    pub stores: u64,
    /// Mean sampled access latency (cycles).
    pub mean_latency: f64,
    /// Samples served per level, indexed L1/L2/L3/DRAM.
    pub by_source: [u64; 4],
    /// Address extent of the samples.
    pub addr_min: u64,
    pub addr_max: u64,
}

impl ObjectStat {
    pub fn total(&self) -> u64 {
        self.loads + self.stores
    }

    /// An object the execution phase never writes (figure: "no stores
    /// in the lower part of the address space"). The unresolved bucket
    /// is no object, so it is never read-only.
    pub fn is_read_only(&self) -> bool {
        self.id.is_some() && self.stores == 0 && self.loads > 0
    }
}

/// Aggregate every PEBS sample in the trace by resolved object,
/// sorted by descending sample count, read straight off the scan's
/// PEBS columns — no event rows are built. Samples outside `window`
/// (cycles) are ignored when a window is given — pass the execution
/// phase's extent to reproduce the paper's setup-excluded analysis;
/// it is pushed down as a time predicate, so an indexed `.mps` store
/// decodes only the chunks that can contribute. Returns the stats
/// together with the scan's cost accounting.
pub fn object_stats(
    source: &mut dyn TraceSource,
    window: Option<(u64, u64)>,
) -> std::io::Result<(Vec<ObjectStat>, ScanStats)> {
    let mut q = Query::all().with_kinds(&[EventClass::Pebs]);
    if let Some((lo, hi)) = window {
        // PEBS events carry `cycles == sample.timestamp`, so the
        // envelope-time predicate is exactly the sample window.
        q = q.in_time(lo, hi);
    }
    // Per object (`None` = unresolved): its stat so far, still
    // unnamed, and its latency sum.
    let mut accs: BTreeMap<Option<u32>, (ObjectStat, u64)> = BTreeMap::new();
    let stats = source.scan_batches(&q, &mut |batch| {
        for row in batch.rows() {
            let RowView::Pebs(p) = row.view else { continue };
            let (s, id) = (p.sample(), p.object());
            let (acc, lat_sum) = accs.entry(id.map(|o| o.0)).or_insert_with(|| {
                let empty = ObjectStat {
                    id,
                    name: String::new(),
                    loads: 0,
                    stores: 0,
                    mean_latency: 0.0,
                    by_source: [0; 4],
                    addr_min: u64::MAX,
                    addr_max: 0,
                };
                (empty, 0)
            });
            if s.is_store {
                acc.stores += 1;
            } else {
                acc.loads += 1;
            }
            *lat_sum += s.latency as u64;
            acc.by_source[level_code(s.source) as usize] += 1;
            acc.addr_min = acc.addr_min.min(s.addr);
            acc.addr_max = acc.addr_max.max(s.addr);
        }
    })?;
    // Name the objects and sort by descending sample count.
    let objects = source.header()?.objects;
    let mut out: Vec<ObjectStat> = accs
        .into_values()
        .map(|(mut stat, lat_sum)| {
            stat.name = match stat.id {
                Some(id) => objects
                    .get(id)
                    .map(|o| o.name.clone())
                    .unwrap_or_else(|| format!("<object {}>", id.0)),
                None => "<unresolved>".to_string(),
            };
            stat.mean_latency = lat_sum as f64 / stat.total() as f64;
            stat
        })
        .collect();
    out.sort_by_key(|s| std::cmp::Reverse(s.total()));
    Ok((out, stats))
}

/// The fraction of samples that resolved to an object (the paper's
/// "preliminary analysis" number).
pub fn resolved_fraction(stats: &[ObjectStat]) -> f64 {
    let total: u64 = stats.iter().map(|s| s.total()).sum();
    let unresolved: u64 = stats.iter().filter(|s| s.id.is_none()).map(|s| s.total()).sum();
    if total == 0 {
        0.0
    } else {
        (total - unresolved) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_extrae::{CodeLocation, Trace, Tracer, TracerConfig};
    use mempersp_memsim::MemLevel;
    use mempersp_pebs::PebsSample;

    fn stats_of(tr: &Trace, window: Option<(u64, u64)>) -> Vec<ObjectStat> {
        object_stats(&mut &*tr, window).unwrap().0
    }

    fn sample(addr: u64, ts: u64, is_store: bool, latency: u32, source: MemLevel) -> PebsSample {
        PebsSample {
            timestamp: ts,
            core: 0,
            ip: 0,
            addr,
            size: 8,
            is_store,
            latency,
            source,
            tlb_miss: false,
        }
    }

    fn make_trace() -> Trace {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let a = t.malloc(1 << 20, &CodeLocation::new("gen.cpp", 110, "g"), 0);
        let b = t.malloc(1 << 20, &CodeLocation::new("gen.cpp", 143, "g"), 1);
        // Object A: loads only. Object B: mixed. Plus one unresolved.
        t.record_pebs(sample(a + 100, 10, false, 200, MemLevel::Dram));
        t.record_pebs(sample(a + 200, 20, false, 40, MemLevel::L3));
        t.record_pebs(sample(b + 100, 30, false, 10, MemLevel::L2));
        t.record_pebs(sample(b + 200, 40, true, 4, MemLevel::L1));
        t.record_pebs(sample(0x10, 50, false, 4, MemLevel::L1));
        t.finish("obj stats")
    }

    #[test]
    fn aggregates_by_object() {
        let tr = make_trace();
        let stats = stats_of(&tr, None);
        assert_eq!(stats.len(), 3);
        let a = stats.iter().find(|s| s.name == "gen.cpp:110").unwrap();
        assert_eq!(a.loads, 2);
        assert_eq!(a.stores, 0);
        assert!(a.is_read_only());
        assert!((a.mean_latency - 120.0).abs() < 1e-12);
        assert_eq!(a.by_source, [0, 0, 1, 1]);
        let b = stats.iter().find(|s| s.name == "gen.cpp:143").unwrap();
        assert!(!b.is_read_only());
        let u = stats.iter().find(|s| s.id.is_none()).unwrap();
        assert_eq!(u.name, "<unresolved>");
        assert_eq!(u.total(), 1);
    }

    /// Samples that resolved to no object are not an allocation, so
    /// the bucket is never flagged read-only (an NVM candidate), even
    /// when all of its samples are loads.
    #[test]
    fn unresolved_bucket_is_never_read_only() {
        let stats = stats_of(&make_trace(), None);
        let u = stats.iter().find(|s| s.id.is_none()).unwrap();
        assert_eq!((u.loads, u.stores), (1, 0));
        assert!(!u.is_read_only());
    }

    #[test]
    fn window_filters_samples() {
        let tr = make_trace();
        let stats = stats_of(&tr, Some((25, 45)));
        let total: u64 = stats.iter().map(|s| s.total()).sum();
        assert_eq!(total, 2, "only the two B samples fall in [25,45]");
    }

    #[test]
    fn resolved_fraction_counts_unresolved() {
        let tr = make_trace();
        let stats = stats_of(&tr, None);
        assert!((resolved_fraction(&stats) - 0.8).abs() < 1e-12);
        assert_eq!(resolved_fraction(&[]), 0.0);
    }
}

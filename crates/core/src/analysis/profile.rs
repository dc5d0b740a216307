//! Flat sampling profile from the timer samples' region stacks.
//!
//! Every timer sample carries the stack of open instrumented regions;
//! counting samples per innermost region gives the classic flat
//! profile (share of time per routine), and counting per *stack
//! member* the inclusive profile — the "source code" dimension of the
//! paper's three-way view, aggregated.

use mempersp_extrae::query::{EventClass, Query};
use mempersp_extrae::trace_source::{ScanStats, TraceSource};
use mempersp_extrae::RowView;
use serde::{Deserialize, Serialize};
use std::io;

/// One row of the profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileRow {
    pub region: String,
    /// Samples with this region innermost (exclusive / self).
    pub self_samples: u64,
    /// Samples with this region anywhere on the stack (inclusive).
    pub inclusive_samples: u64,
}

impl ProfileRow {
    /// Self share of the total samples.
    pub fn self_fraction(&self, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.self_samples as f64 / total as f64
        }
    }
}

/// The flat profile of a trace (all cores), sorted by descending self
/// samples, from one scan of the timer samples' stack columns.
/// Returns `(rows, total_samples)`; samples taken outside any region
/// are counted in the total but belong to no row. A stack naming a
/// region the header does not define is `InvalidData`.
pub fn flat_profile(source: &mut dyn TraceSource) -> io::Result<((Vec<ProfileRow>, u64), ScanStats)> {
    let region_names = source.header()?.region_names;
    let n = region_names.len();
    let mut self_s = vec![0u64; n];
    let mut incl = vec![0u64; n];
    let mut total = 0u64;
    // 1-based rank of the last sample counted into `incl[r]`: a
    // recursive stack counts its region once.
    let mut counted_at = vec![0u64; n];
    let mut undefined = None;
    let q = Query::all().with_kinds(&[EventClass::CounterSample]);
    let stats = source.scan_batches(&q, &mut |batch| {
        for row in batch.rows() {
            let RowView::Sample(sample) = row.view else { continue };
            total += 1;
            let mut inner = None;
            for r in sample.stack().map(|r| r.0 as usize) {
                if r >= n {
                    undefined.get_or_insert((r, row.cycles));
                    break;
                }
                if counted_at[r] != total {
                    counted_at[r] = total;
                    incl[r] += 1;
                }
                inner = Some(r);
            }
            if let Some(r) = inner {
                self_s[r] += 1;
            }
        }
    })?;
    if let Some((id, cycles)) = undefined {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("timer sample at cycle {cycles} names region {id}, but the trace defines only {n}"),
        ));
    }
    let mut rows: Vec<ProfileRow> = (0..n)
        .filter(|&i| incl[i] > 0)
        .map(|i| ProfileRow {
            region: region_names[i].clone(),
            self_samples: self_s[i],
            inclusive_samples: incl[i],
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.self_samples));
    Ok(((rows, total), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_extrae::{Tracer, TracerConfig};
    use mempersp_pebs::CounterSnapshot;

    #[test]
    fn self_and_inclusive_counts() {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let ip = t.location("f.c", 1, "f");
        let c = CounterSnapshot::default();
        t.enter(0, "outer", c, 0);
        t.record_counter_sample(0, ip, c, 10); // outer self
        t.enter(0, "inner", c, 20);
        t.record_counter_sample(0, ip, c, 30); // inner self, outer inclusive
        t.record_counter_sample(0, ip, c, 40);
        t.exit(0, "inner", c, 50);
        t.exit(0, "outer", c, 60);
        t.record_counter_sample(0, ip, c, 70); // no region
        let tr = t.finish("profile");

        let ((rows, total), stats) = flat_profile(&mut &tr).unwrap();
        assert_eq!(total, 4);
        assert_eq!(stats.events_matched, 4, "only the timer samples are scanned for");
        let outer = rows.iter().find(|r| r.region == "outer").unwrap();
        let inner = rows.iter().find(|r| r.region == "inner").unwrap();
        assert_eq!(outer.self_samples, 1);
        assert_eq!(outer.inclusive_samples, 3);
        assert_eq!(inner.self_samples, 2);
        assert_eq!(inner.inclusive_samples, 2);
        assert!((inner.self_fraction(total) - 0.5).abs() < 1e-12);
        // Sorted by self samples.
        assert_eq!(rows[0].region, "inner");
    }

    #[test]
    fn recursive_stack_counts_inclusive_once() {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let ip = t.location("f.c", 1, "f");
        let c = CounterSnapshot::default();
        t.enter(0, "rec", c, 0);
        t.enter(0, "rec", c, 10);
        t.record_counter_sample(0, ip, c, 20);
        t.exit(0, "rec", c, 30);
        t.exit(0, "rec", c, 40);
        let tr = t.finish("rec");
        let ((rows, _), _) = flat_profile(&mut &tr).unwrap();
        assert_eq!(rows[0].inclusive_samples, 1, "double-counted recursion");
        assert_eq!(rows[0].self_samples, 1);
    }

    #[test]
    fn empty_trace_profile() {
        let t = Tracer::new(TracerConfig::default(), 1);
        let ((rows, total), _) =
            flat_profile(&mut t.finish("empty")).unwrap();
        assert!(rows.is_empty());
        assert_eq!(total, 0);
    }

    /// A stack naming a region the header lacks is an error naming the
    /// id and the sample's cycle, not an out-of-bounds index.
    #[test]
    fn undefined_region_in_a_stack_is_invalid_data() {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let ip = t.location("f.c", 1, "f");
        let c = CounterSnapshot::default();
        t.enter(0, "only", c, 0);
        t.record_counter_sample(0, ip, c, 10);
        t.exit(0, "only", c, 20);
        let mut tr = t.finish("hostile");
        for e in &mut tr.events {
            if let mempersp_extrae::EventPayload::CounterSample { stack, .. } = &mut e.payload {
                stack[0] = mempersp_extrae::events::RegionId(7);
            }
        }
        let err = flat_profile(&mut &tr).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("region 7") && err.to_string().contains("cycle 10"), "{err}");
    }
}

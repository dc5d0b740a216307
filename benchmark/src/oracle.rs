//! The slow, obviously-correct side of every output check.
//!
//! Selective queries are checked against a linear filter over the
//! event stream, condensed into a per-core index of PEBS timestamps so
//! that thousands of window queries can be checked without keeping the
//! events. Fold results are reduced to a digest that must repeat.

use crate::gen::Rng;
use mempersp_extrae::events::TraceEvent;
use mempersp_extrae::query::{EventClass, Query};
use mempersp_extrae::ObjectId;
use mempersp_folding::{Fnv64, FoldError, FoldedRegion};

/// (matched events, wrapping sum of their timestamps).
pub type Answer = (u64, u64);

pub fn answer_of(events: &[TraceEvent]) -> Answer {
    (events.len() as u64, events.iter().fold(0u64, |s, e| s.wrapping_add(e.cycles)))
}

/// One selective query: a time window × PEBS × one core.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub core: usize,
    pub lo: u64,
    pub hi: u64,
}

impl Window {
    pub fn query(&self) -> Query {
        Query::all()
            .in_time(self.lo, self.hi)
            .with_kinds(&[EventClass::Pebs])
            .on_cores(&[self.core])
    }
}

/// PEBS timestamps per core (with prefix sums), plus the answer to the
/// object-attribution query, all taken from one linear pass in which
/// `Query::matches` decides membership.
pub struct PebsIndex {
    /// Per core: sorted timestamps, and `prefix[i]` = wrapping sum of
    /// the first `i` of them.
    cores: Vec<(Vec<u64>, Vec<u64>)>,
    pub first_cycle: u64,
    pub last_cycle: u64,
    pub events: u64,
    pub object: ObjectId,
    pub object_answer: Answer,
}

impl PebsIndex {
    pub fn build(events: impl Iterator<Item = TraceEvent>, object: ObjectId) -> PebsIndex {
        let is_pebs = Query::all().with_kinds(&[EventClass::Pebs]);
        let touches = Query::all().touching_object(object);
        let mut idx = PebsIndex {
            cores: Vec::new(),
            first_cycle: u64::MAX,
            last_cycle: 0,
            events: 0,
            object,
            object_answer: (0, 0),
        };
        for e in events {
            idx.events += 1;
            idx.first_cycle = idx.first_cycle.min(e.cycles);
            idx.last_cycle = idx.last_cycle.max(e.cycles);
            if !is_pebs.matches(&e) {
                continue;
            }
            if idx.cores.len() <= e.core {
                idx.cores.resize_with(e.core + 1, || (Vec::new(), vec![0]));
            }
            let (cycles, prefix) = &mut idx.cores[e.core];
            debug_assert!(cycles.last().is_none_or(|&c| c <= e.cycles), "stream is time-ordered");
            cycles.push(e.cycles);
            prefix.push(prefix.last().expect("seeded with 0").wrapping_add(e.cycles));
            if touches.matches(&e) {
                idx.object_answer.0 += 1;
                idx.object_answer.1 = idx.object_answer.1.wrapping_add(e.cycles);
            }
        }
        idx
    }

    /// What a linear filter would answer for `w`.
    pub fn expect(&self, w: &Window) -> Answer {
        let Some((cycles, prefix)) = self.cores.get(w.core) else { return (0, 0) };
        let a = cycles.partition_point(|&c| c < w.lo);
        let b = cycles.partition_point(|&c| c <= w.hi);
        ((b - a) as u64, prefix[b].wrapping_sub(prefix[a]))
    }

    /// A seeded window one fiftieth of the trace long, on one core,
    /// placed where that core has samples: with the paper's sampling
    /// only core 0 is sampled and its rank solves first, so a window
    /// anywhere in the trace would mostly select nothing and time only
    /// the index.
    pub fn window(&self, rng: &mut Rng) -> Window {
        let len = (self.last_cycle - self.first_cycle) / 50;
        let core = rng.below(self.cores.len() as u64) as usize;
        let cycles = &self.cores[core].0;
        let first = cycles.first().copied().unwrap_or(self.first_cycle);
        let last = cycles.last().copied().unwrap_or(self.last_cycle);
        let lo = first + rng.below((last - first).saturating_sub(len) + 1);
        Window { core, lo, hi: lo + len }
    }
}

/// Digest of a fold result: everything but the pooled point clouds
/// themselves (their sizes are included).
pub fn fold_digest(results: &[Result<FoldedRegion, FoldError>]) -> u64 {
    let mut h = Fnv64::new();
    for r in results {
        match r {
            Ok(f) => {
                h.write_str(&f.region);
                h.write_u64(f.instances_used as u64);
                h.write_u64(f.instances_rejected as u64);
                h.write_f64(f.avg_duration_cycles);
                h.write_u64(f.pooled.len() as u64);
                for c in &f.counters {
                    h.write_u64(c.points as u64);
                    h.write_f64(c.avg_total);
                    h.write_str(&format!("{:?}", c.curve));
                }
            }
            Err(e) => h.write_str(&e.to_string()),
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenConfig;

    #[test]
    fn index_agrees_with_a_linear_filter() {
        let cfg = GenConfig { events: 50_000, cores: 4, seed: 9 };
        let events: Vec<TraceEvent> = cfg.events().collect();
        let idx = PebsIndex::build(events.iter().cloned(), ObjectId(3));
        assert_eq!(idx.events, 50_000);
        let mut rng = Rng::new(9);
        for _ in 0..50 {
            let w = idx.window(&mut rng);
            let q = w.query();
            let hits: Vec<TraceEvent> = events.iter().filter(|e| q.matches(e)).cloned().collect();
            assert!(!hits.is_empty());
            assert_eq!(idx.expect(&w), answer_of(&hits));
        }
        let q = Query::all().touching_object(ObjectId(3));
        let hits: Vec<TraceEvent> = events.iter().filter(|e| q.matches(e)).cloned().collect();
        assert_eq!(idx.object_answer, answer_of(&hits));
    }
}

//! Time-multiplexing of PEBS events on one core.
//!
//! A core has few PEBS-capable counters, and the load-latency and
//! store events often cannot be programmed simultaneously. The paper's
//! Extrae extension rotates the active event on a fixed time slice so
//! that a *single run* observes both loads and stores — crucial because
//! two separate runs would see different address-space layouts under
//! ASLR and their samples could not be overlaid.
//!
//! [`Multiplexer`] owns one [`PebsEngine`] per configured event and
//! routes each retired memory operation to the engine whose time slice
//! contains the current cycle.

use crate::sampling::{MemOp, PebsEngine, PebsSample, SamplingConfig};
use serde::{Deserialize, Serialize};

/// Per-event occupancy statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiplexStats {
    /// For each configured event: (label, matched ops, captured samples).
    pub per_event: Vec<(String, u64, u64)>,
    /// Slice rotations performed.
    pub rotations: u64,
}

/// Round-robin PEBS event multiplexer.
#[derive(Debug, Clone)]
pub struct Multiplexer {
    engines: Vec<PebsEngine>,
    /// Trace label of each engine's event.
    labels: Vec<String>,
    /// Length of each slice, in cycles.
    slice_cycles: u64,
    rotations: u64,
    /// The slice the last observed cycle fell in, `[lo, hi)`, and its
    /// engine: consecutive operations nearly always share a slice, so
    /// the divisions are paid once per slice, not once per operation.
    slice_lo: u64,
    slice_hi: u64,
    slice_index: usize,
}

impl Multiplexer {
    /// `slice_cycles` is how long each event stays programmed before
    /// rotating to the next.
    pub fn new(configs: Vec<SamplingConfig>, slice_cycles: u64) -> Self {
        assert!(!configs.is_empty(), "need at least one PEBS event");
        assert!(slice_cycles >= 1, "slice must be at least one cycle");
        let engines: Vec<PebsEngine> = configs.into_iter().map(PebsEngine::new).collect();
        Self {
            labels: engines.iter().map(|e| e.event().label()).collect(),
            engines,
            slice_cycles,
            rotations: 0,
            slice_lo: 0,
            slice_hi: slice_cycles,
            slice_index: 0,
        }
    }

    /// Index of the engine active at cycle `now`.
    pub fn active_index(&self, now: u64) -> usize {
        ((now / self.slice_cycles) % self.engines.len() as u64) as usize
    }

    /// Trace label of event `index`.
    pub fn label(&self, index: usize) -> &str {
        &self.labels[index]
    }

    /// Feed one retired memory op; only the engine whose slice covers
    /// `now` observes it.
    pub fn observe(&mut self, core: usize, op: &MemOp, now: u64) -> Option<PebsSample> {
        self.observe_slot(core, op, now).1
    }

    /// [`Multiplexer::observe`], also returning the index of the
    /// engine that was active at `now`.
    pub fn observe_slot(&mut self, core: usize, op: &MemOp, now: u64) -> (usize, Option<PebsSample>) {
        if now < self.slice_lo || now >= self.slice_hi {
            let abs_slice = now / self.slice_cycles;
            self.slice_lo = abs_slice * self.slice_cycles;
            self.slice_hi = self.slice_lo.saturating_add(self.slice_cycles);
            self.slice_index = self.active_index(now);
            // Track rotations for diagnostics (monotonic `now` assumed).
            self.rotations = self.rotations.max(abs_slice);
        }
        let idx = self.slice_index;
        (idx, self.engines[idx].observe(core, op, now))
    }

    /// Number of configured events.
    pub fn num_events(&self) -> usize {
        self.engines.len()
    }

    /// Occupancy statistics.
    pub fn stats(&self) -> MultiplexStats {
        MultiplexStats {
            per_event: self
                .engines
                .iter()
                .zip(&self.labels)
                .map(|(e, label)| (label.clone(), e.matched(), e.captured()))
                .collect(),
            rotations: self.rotations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::PebsEvent;
    use mempersp_memsim::{AccessKind, MemLevel};

    fn op(kind: AccessKind, addr: u64) -> MemOp {
        MemOp { ip: 0, addr, size: 8, kind, latency: 10, source: MemLevel::L2, tlb_miss: false }
    }

    fn mux(slice: u64) -> Multiplexer {
        Multiplexer::new(
            vec![
                SamplingConfig {
                    event: PebsEvent::LoadLatency { threshold: 0 },
                    period: 1,
                    randomization: 0.0,
                    seed: 1,
                },
                SamplingConfig {
                    event: PebsEvent::AllStores,
                    period: 1,
                    randomization: 0.0,
                    seed: 2,
                },
            ],
            slice,
        )
    }

    #[test]
    fn slices_rotate_between_events() {
        let m = mux(100);
        assert_eq!(m.active_index(0), 0);
        assert_eq!(m.active_index(99), 0);
        assert_eq!(m.active_index(100), 1);
        assert_eq!(m.active_index(199), 1);
        assert_eq!(m.active_index(200), 0);
    }

    #[test]
    fn cached_slice_agrees_with_active_index() {
        // Forward, backward and far jumps: the cached slot, the
        // rotation count and the labels must be what the per-call
        // divisions gave.
        let mut m = mux(100);
        let mut max_slice = 0;
        for now in [0, 99, 100, 101, 350, 399, 400, 120, 0, 7_919, 7_900, u64::MAX, 5] {
            let (idx, _) = m.observe_slot(0, &op(AccessKind::Load, now), now);
            assert_eq!(idx, m.active_index(now), "slot at {now}");
            max_slice = max_slice.max(now / 100);
            assert_eq!(m.stats().rotations, max_slice, "rotations at {now}");
        }
        assert_eq!(m.label(0), "loads(lat>=0)");
        assert_eq!(m.label(1), m.stats().per_event[1].0);
    }

    #[test]
    fn both_kinds_captured_in_one_run() {
        let mut m = mux(100);
        let mut loads = 0;
        let mut stores = 0;
        for t in 0..10_000u64 {
            let kind = if t % 2 == 0 { AccessKind::Load } else { AccessKind::Store };
            if let Some(s) = m.observe(0, &op(kind, t * 8), t) {
                if s.is_store {
                    stores += 1;
                } else {
                    loads += 1;
                }
            }
        }
        assert!(loads > 0, "loads sampled");
        assert!(stores > 0, "stores sampled");
    }

    #[test]
    fn inactive_event_sees_nothing() {
        let mut m = mux(1000);
        // Only store ops during the load slice: nothing captured, and
        // the store engine's counter must not advance.
        for t in 0..1000u64 {
            assert!(m.observe(0, &op(AccessKind::Store, t), t).is_none());
        }
        let st = m.stats();
        assert_eq!(st.per_event[1].1, 0, "store engine matched nothing while inactive");
    }

    #[test]
    fn stats_report_per_event_labels() {
        let m = mux(10);
        let st = m.stats();
        assert_eq!(st.per_event.len(), 2);
        assert_eq!(st.per_event[0].0, "loads(lat>=0)");
        assert_eq!(st.per_event[1].0, "stores");
    }

    #[test]
    fn single_event_mux_behaves_like_engine() {
        let mut m = Multiplexer::new(
            vec![SamplingConfig {
                event: PebsEvent::LoadLatency { threshold: 0 },
                period: 5,
                randomization: 0.0,
                seed: 3,
            }],
            1_000_000,
        );
        let mut caps = 0;
        for t in 0..60u64 {
            if m.observe(0, &op(AccessKind::Load, t), t).is_some() {
                caps += 1;
            }
        }
        assert_eq!(caps, 10, "period-5 engine fires every 6th op");
    }

    #[test]
    #[should_panic(expected = "at least one PEBS event")]
    fn empty_config_rejected() {
        let _ = Multiplexer::new(vec![], 100);
    }
}

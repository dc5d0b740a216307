//! Property-based tests of the PMU/PEBS models.

use mempersp_memsim::{AccessKind, MemLevel};
use mempersp_pebs::{EventKind, MemOp, Multiplexer, PebsEngine, PebsEvent, Pmu, SamplingConfig};
use proptest::prelude::*;

fn op(i: u64, kind: AccessKind, latency: u32) -> MemOp {
    MemOp {
        ip: i,
        addr: i * 8,
        size: 8,
        kind,
        latency,
        source: MemLevel::L2,
        tlb_miss: i.is_multiple_of(7),
    }
}

proptest! {
    /// The capture rate converges to 1/(period+1) matching ops for any
    /// period and randomization (the +1 is the PEBS shadow op).
    #[test]
    fn capture_rate_matches_period(
        period in 1u64..500,
        randomization in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let mut e = PebsEngine::new(SamplingConfig {
            event: PebsEvent::LoadLatency { threshold: 0 },
            period,
            randomization,
            seed,
        });
        let n = 200_000u64;
        for i in 0..n {
            e.observe(0, &op(i, AccessKind::Load, 10), i);
        }
        let expected = n as f64 / (period + 1) as f64;
        let got = e.captured() as f64;
        prop_assert!(
            (got - expected).abs() / expected < 0.1,
            "period {period}: captured {got}, expected ~{expected}"
        );
        prop_assert_eq!(e.matched(), n);
    }

    /// Captured samples always satisfy the event's predicate.
    #[test]
    fn captures_satisfy_event_filter(
        threshold in 0u32..100,
        ops in prop::collection::vec((any::<bool>(), 0u32..200), 100..2000),
    ) {
        let mut e = PebsEngine::new(SamplingConfig {
            event: PebsEvent::LoadLatency { threshold },
            period: 3,
            randomization: 0.0,
            seed: 1,
        });
        for (i, &(is_store, lat)) in ops.iter().enumerate() {
            let kind = if is_store { AccessKind::Store } else { AccessKind::Load };
            if let Some(s) = e.observe(0, &op(i as u64, kind, lat), i as u64) {
                prop_assert!(!s.is_store);
                prop_assert!(s.latency >= threshold);
            }
        }
    }

    /// Multiplexing conserves samples: with k identical engines over
    /// disjoint slices, total captures roughly equal a single engine's.
    #[test]
    fn multiplexer_slices_are_disjoint(slice in 10u64..10_000) {
        let cfg = |seed| SamplingConfig {
            event: PebsEvent::LoadLatency { threshold: 0 },
            period: 10,
            randomization: 0.0,
            seed,
        };
        let mut mux = Multiplexer::new(vec![cfg(1), cfg(2)], slice);
        let n = 100_000u64;
        let mut captured = 0;
        for i in 0..n {
            if mux.observe(0, &op(i, AccessKind::Load, 5), i).is_some() {
                captured += 1;
            }
        }
        let st = mux.stats();
        // Each op was seen by exactly one engine.
        let matched: u64 = st.per_event.iter().map(|e| e.1).sum();
        prop_assert_eq!(matched, n);
        let total: u64 = st.per_event.iter().map(|e| e.2).sum();
        prop_assert_eq!(total, captured);
        let expected = n as f64 / 11.0;
        prop_assert!((captured as f64 - expected).abs() / expected < 0.1);
    }

    /// PMU counters are exact accumulators.
    #[test]
    fn pmu_accumulates_exactly(
        adds in prop::collection::vec((0usize..EventKind::ALL.len(), 0u64..1000), 0..200),
    ) {
        let mut pmu = Pmu::new();
        let mut expect = [0u64; EventKind::ALL.len()];
        for &(idx, n) in &adds {
            let kind = EventKind::ALL[idx];
            pmu.add(kind, n);
            expect[kind.index()] += n;
        }
        for kind in EventKind::ALL {
            prop_assert_eq!(pmu.read(kind), expect[kind.index()]);
        }
    }
}

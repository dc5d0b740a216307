//! The PEBS sampling engine.
//!
//! Hardware behaviour being modelled: a PEBS-capable counter is
//! programmed with a *sampling period* P and a memory event (e.g.
//! `MEM_TRANS_RETIRED.LOAD_LATENCY` with a latency threshold, or
//! `MEM_UOPS_RETIRED.ALL_STORES`). The counter counts matching retired
//! operations; when it overflows (P occurrences), the PEBS assist is
//! *armed* and the **next** matching operation is captured precisely:
//! its instruction pointer, the referenced virtual address, the access
//! latency and the data source. The counter is then re-armed with a new
//! period (optionally randomized).

use mempersp_memsim::{AccessKind, MemLevel};
use serde::{Deserialize, Serialize};

/// One retired memory operation, as fed by the simulated core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Synthetic instruction pointer (identifies the source line).
    pub ip: u64,
    /// Referenced virtual address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u32,
    pub kind: AccessKind,
    /// Latency in core cycles (from the hierarchy simulator).
    pub latency: u32,
    /// Data source (from the hierarchy simulator).
    pub source: MemLevel,
    /// Whether the access missed the DTLB.
    pub tlb_miss: bool,
}

/// Which PEBS event the counter is programmed with: the two that the
/// paper's Haswell runs multiplex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PebsEvent {
    /// `MEM_TRANS_RETIRED.LOAD_LATENCY`: retired loads with latency
    /// above the threshold (cycles). A threshold of 0 samples all
    /// loads.
    LoadLatency { threshold: u32 },
    /// `MEM_UOPS_RETIRED.ALL_STORES`: all retired stores.
    AllStores,
}

impl PebsEvent {
    /// Does this op count towards (and qualify for capture by) this
    /// event?
    pub fn matches(&self, op: &MemOp) -> bool {
        match self {
            PebsEvent::LoadLatency { threshold } => {
                op.kind == AccessKind::Load && op.latency >= *threshold
            }
            PebsEvent::AllStores => op.kind == AccessKind::Store,
        }
    }

    /// Trace label for reports.
    pub fn label(&self) -> String {
        match self {
            PebsEvent::LoadLatency { threshold } => format!("loads(lat>={threshold})"),
            PebsEvent::AllStores => "stores".to_string(),
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplingConfig {
    pub event: PebsEvent,
    /// Matching operations between captures.
    pub period: u64,
    /// Half-width of the uniform period jitter, as a fraction of the
    /// period (0.0 disables randomization; 0.1 means ±10 %).
    pub randomization: f64,
    /// Seed for the period-jitter PRNG.
    pub seed: u64,
}

/// A captured PEBS record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PebsSample {
    /// Capture timestamp in core cycles.
    pub timestamp: u64,
    /// Core that retired the operation.
    pub core: usize,
    pub ip: u64,
    pub addr: u64,
    pub size: u32,
    /// `true` for a store, `false` for a load (flattened for serde
    /// friendliness).
    pub is_store: bool,
    pub latency: u32,
    pub source: MemLevel,
    pub tlb_miss: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArmState {
    /// Counting down `remaining` matching ops.
    Counting { remaining: u64 },
    /// Overflow happened; capture the next matching op.
    Armed,
}

/// The per-core sampling engine for one PEBS event.
#[derive(Debug, Clone)]
pub struct PebsEngine {
    cfg: SamplingConfig,
    state: ArmState,
    rng_state: u64,
    /// Matching ops observed (the virtual counter's total).
    matched: u64,
    /// Samples captured.
    captured: u64,
}

impl PebsEngine {
    pub fn new(cfg: SamplingConfig) -> Self {
        assert!(cfg.period >= 1, "sampling period must be >= 1");
        assert!(
            (0.0..1.0).contains(&cfg.randomization),
            "randomization must be in [0, 1)"
        );
        let mut e = Self {
            state: ArmState::Counting { remaining: cfg.period },
            rng_state: cfg.seed | 1,
            cfg,
            matched: 0,
            captured: 0,
        };
        let p = e.next_period();
        e.state = ArmState::Counting { remaining: p };
        e
    }

    /// The event this engine is programmed with.
    pub fn event(&self) -> PebsEvent {
        self.cfg.event
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn next_period(&mut self) -> u64 {
        if self.cfg.randomization == 0.0 {
            return self.cfg.period;
        }
        let half = (self.cfg.period as f64 * self.cfg.randomization).round() as i64;
        if half == 0 {
            return self.cfg.period;
        }
        let span = (2 * half + 1) as u64;
        let off = (self.next_u64() % span) as i64 - half;
        (self.cfg.period as i64 + off).max(1) as u64
    }

    /// Feed one retired memory operation at cycle `now` on `core`.
    /// Returns a capture if the PEBS assist fired on this op.
    pub fn observe(&mut self, core: usize, op: &MemOp, now: u64) -> Option<PebsSample> {
        if !self.cfg.event.matches(op) {
            return None;
        }
        self.matched += 1;
        match self.state {
            ArmState::Counting { remaining } => {
                if remaining <= 1 {
                    // Counter overflow: arm the assist; the *next*
                    // matching op is the one captured (PEBS shadow).
                    self.state = ArmState::Armed;
                } else {
                    self.state = ArmState::Counting { remaining: remaining - 1 };
                }
                None
            }
            ArmState::Armed => {
                let p = self.next_period();
                self.state = ArmState::Counting { remaining: p };
                self.captured += 1;
                Some(PebsSample {
                    timestamp: now,
                    core,
                    ip: op.ip,
                    addr: op.addr,
                    size: op.size,
                    is_store: op.kind == AccessKind::Store,
                    latency: op.latency,
                    source: op.source,
                    tlb_miss: op.tlb_miss,
                })
            }
        }
    }

    /// Matching operations seen so far.
    pub fn matched(&self) -> u64 {
        self.matched
    }

    /// Samples captured so far.
    pub fn captured(&self) -> u64 {
        self.captured
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(addr: u64, latency: u32) -> MemOp {
        MemOp {
            ip: 0x400000,
            addr,
            size: 8,
            kind: AccessKind::Load,
            latency,
            source: MemLevel::L1,
            tlb_miss: false,
        }
    }

    fn store(addr: u64) -> MemOp {
        MemOp { kind: AccessKind::Store, ..load(addr, 1) }
    }

    fn engine(event: PebsEvent, period: u64) -> PebsEngine {
        PebsEngine::new(SamplingConfig { event, period, randomization: 0.0, seed: 1 })
    }

    #[test]
    fn captures_every_period_plus_one() {
        // Period 10: ops 1..=10 count (overflow at 10), op 11 captured.
        let mut e = engine(PebsEvent::LoadLatency { threshold: 0 }, 10);
        let mut captures = Vec::new();
        for i in 0..33u64 {
            if let Some(s) = e.observe(0, &load(i * 8, 4), i) {
                captures.push(s.timestamp);
            }
        }
        assert_eq!(captures, vec![10, 21, 32], "period-10 fires every 11th op (PEBS shadow)");
        assert_eq!(e.captured(), 3);
    }

    #[test]
    fn store_event_ignores_loads() {
        let mut e = engine(PebsEvent::AllStores, 2);
        assert!(e.observe(0, &load(0, 4), 0).is_none());
        assert!(e.observe(0, &load(8, 4), 1).is_none());
        assert_eq!(e.matched(), 0);
        assert!(e.observe(0, &store(16), 2).is_none());
        assert!(e.observe(0, &store(24), 3).is_none());
        let s = e.observe(0, &store(32), 4).expect("third store after overflow");
        assert!(s.is_store);
        assert_eq!(s.addr, 32);
    }

    #[test]
    fn latency_threshold_filters() {
        let mut e = engine(PebsEvent::LoadLatency { threshold: 30 }, 1);
        assert!(e.observe(0, &load(0, 4), 0).is_none(), "fast load does not count");
        assert_eq!(e.matched(), 0);
        assert!(e.observe(0, &load(8, 100), 1).is_none(), "first slow load overflows");
        let s = e.observe(0, &load(16, 50), 2).expect("second slow load captured");
        assert_eq!(s.latency, 50);
    }

    #[test]
    fn sample_carries_op_payload() {
        let mut e = engine(PebsEvent::LoadLatency { threshold: 0 }, 1);
        e.observe(1, &load(0xAAA, 7), 5);
        let op = MemOp {
            ip: 0x1234,
            addr: 0xDEAD_BEEF,
            size: 4,
            kind: AccessKind::Load,
            latency: 212,
            source: MemLevel::Dram,
            tlb_miss: true,
        };
        let s = e.observe(1, &op, 99).unwrap();
        assert_eq!(s.core, 1);
        assert_eq!(s.ip, 0x1234);
        assert_eq!(s.addr, 0xDEAD_BEEF);
        assert_eq!(s.source, MemLevel::Dram);
        assert!(s.tlb_miss);
        assert_eq!(s.timestamp, 99);
    }

    #[test]
    fn randomized_periods_stay_in_bounds_and_are_deterministic() {
        let cfg = SamplingConfig {
            event: PebsEvent::LoadLatency { threshold: 0 },
            period: 100,
            randomization: 0.1,
            seed: 42,
        };
        let run = || {
            let mut e = PebsEngine::new(cfg);
            let mut gaps = Vec::new();
            let mut last = None;
            for i in 0..100_000u64 {
                if e.observe(0, &load(i, 4), i).is_some() {
                    if let Some(l) = last {
                        gaps.push(i - l);
                    }
                    last = Some(i);
                }
            }
            gaps
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same capture points");
        assert!(!a.is_empty());
        for g in &a {
            // period 100 ±10, +1 for the shadow op.
            assert!((91..=111).contains(g), "gap {g} out of bounds");
        }
        // Jitter actually varies the gaps.
        assert!(a.iter().collect::<std::collections::HashSet<_>>().len() > 1);
    }

    #[test]
    fn mean_rate_matches_period() {
        let mut e = PebsEngine::new(SamplingConfig {
            event: PebsEvent::LoadLatency { threshold: 0 },
            period: 50,
            randomization: 0.2,
            seed: 7,
        });
        let n = 100_000u64;
        for i in 0..n {
            e.observe(0, &load(i, 4), i);
        }
        let expected = n as f64 / 51.0;
        let got = e.captured() as f64;
        assert!(
            (got - expected).abs() / expected < 0.05,
            "captured {got}, expected ~{expected}"
        );
    }

    #[test]
    #[should_panic(expected = "period must be >= 1")]
    fn zero_period_rejected() {
        let _ = PebsEngine::new(SamplingConfig {
            event: PebsEvent::LoadLatency { threshold: 0 },
            period: 0,
            randomization: 0.0,
            seed: 1,
        });
    }
}

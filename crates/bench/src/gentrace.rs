//! Deterministic synthetic trace generation for the `gentrace` binary.
//!
//! The simulator produces realistic traces, but at ~100 K events/sec
//! of *simulation* it cannot feed gigabyte-scale stores.
//! [`EventGen`] emits a configurable event mix — region boundaries,
//! PEBS memory samples, counter samples, alloc/free pairs, user
//! events, mux switches — from a seeded xorshift generator at tens of
//! millions of events per second, as an iterator, so a multi-GB trace
//! streams straight into a `StoreWriter` without ever being resident.
//!
//! The accompanying header ([`GenConfig::header`]) interns the region
//! names and registers the objects the events reference, so predicate
//! queries (kind, core, time window, object) behave exactly as they
//! would on a simulator trace.

use mempersp_extrae::events::{EventPayload, RegionId, TraceEvent};
use mempersp_extrae::source::Ip;
use mempersp_extrae::tracer::{Trace, Tracer, TracerConfig};
use mempersp_extrae::ObjectId;
use mempersp_memsim::MemLevel;
use mempersp_pebs::{CounterSnapshot, PebsSample};

/// Region names the generator cycles through.
const REGIONS: &[&str] =
    &["gen_compute", "gen_exchange", "gen_reduce", "gen_smooth", "gen_residual"];
/// Synthetic objects PEBS samples resolve into.
const NUM_OBJECTS: u32 = 16;

/// Shape of a generated trace.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Total events to emit.
    pub events: u64,
    /// Cores the events round-robin over.
    pub cores: usize,
    /// RNG seed; equal seeds give byte-identical traces.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { events: 1_000_000, cores: 4, seed: 42 }
    }
}

impl GenConfig {
    /// The header trace matching the generated stream: region names
    /// interned, objects registered, zero events.
    pub fn header(&self) -> Trace {
        let mut t = Tracer::new(TracerConfig::default(), self.cores.max(1));
        for name in REGIONS {
            t.region(name);
        }
        for i in 0..NUM_OBJECTS {
            t.register_static(
                &format!("gen_array_{i}"),
                0x10_0000 + u64::from(i) * 0x10_0000,
                0x10_0000,
            );
        }
        t.finish(&format!(
            "synthetic gentrace: {} events, {} cores, seed {}",
            self.events, self.cores, self.seed
        ))
    }

    /// The event stream.
    pub fn events(&self) -> EventGen {
        EventGen {
            remaining: self.events,
            cores: self.cores.max(1),
            state: self.seed | 1,
            clock: 1_000,
            emitted: 0,
            counters: [0u64; 12],
        }
    }
}

/// Iterator over the synthetic event stream (see [`GenConfig`]).
pub struct EventGen {
    remaining: u64,
    cores: usize,
    state: u64,
    clock: u64,
    emitted: u64,
    /// Monotonic per-run counter values shared across cores — close
    /// enough to real counter streams for codec purposes.
    counters: [u64; 12],
}

impl EventGen {
    /// xorshift64*; deterministic and fast.
    fn rng(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn counters(&mut self) -> CounterSnapshot {
        for (i, c) in self.counters.iter_mut().enumerate() {
            *c += 100 + (i as u64) * 7;
        }
        CounterSnapshot::from_values(self.counters)
    }
}

impl Iterator for EventGen {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let r = self.rng();
        self.clock += 50 + (r >> 32) % 2_000;
        let cycles = self.clock;
        let core = (self.emitted % self.cores as u64) as usize;
        self.emitted += 1;

        // Event mix (per mille): region boundaries 200, PEBS 450,
        // counter samples 100, user 150, alloc/free 60, mux 40 —
        // PEBS-heavy like a memory-sampling run.
        let roll = r % 1000;
        let payload = if roll < 200 {
            let region = RegionId((r >> 10) as u32 % REGIONS.len() as u32);
            let counters = self.counters();
            if roll % 2 == 0 {
                EventPayload::RegionEnter { region, counters }
            } else {
                EventPayload::RegionExit { region, counters }
            }
        } else if roll < 650 {
            let obj = (r >> 10) as u32 % (NUM_OBJECTS * 4 / 3); // ~75% resolve
            let object = (obj < NUM_OBJECTS).then_some(ObjectId(obj));
            let addr = 0x10_0000
                + u64::from(obj % NUM_OBJECTS) * 0x10_0000
                + ((r >> 20) % 0x10_0000 & !7);
            EventPayload::Pebs {
                sample: PebsSample {
                    timestamp: cycles,
                    core,
                    ip: 0x40_0000 + (r >> 40) % 0x1000,
                    addr,
                    size: 8,
                    is_store: roll % 4 == 0,
                    latency: (10 + (r >> 15) % 300) as u32,
                    source: match (r >> 8) % 100 {
                        0..=59 => MemLevel::L1,
                        60..=84 => MemLevel::L2,
                        85..=94 => MemLevel::L3,
                        _ => MemLevel::Dram,
                    },
                    tlb_miss: (r >> 9) % 50 == 0,
                },
                object,
            }
        } else if roll < 750 {
            let depth = 1 + (r >> 16) as usize % 3;
            EventPayload::CounterSample {
                ip: Ip(0x40_0000 + (r >> 40) % 0x1000),
                counters: self.counters(),
                stack: (0..depth)
                    .map(|d| RegionId(((r >> (20 + d)) as u32) % REGIONS.len() as u32))
                    .collect(),
            }
        } else if roll < 900 {
            EventPayload::User { kind: 1 + (r >> 12) as u32 % 4, value: r >> 24 }
        } else if roll < 930 {
            EventPayload::Alloc {
                base: 0x7f00_0000_0000 + (r >> 8) % 0x1_0000_0000,
                size: 64 + (r >> 16) % 65_536,
                callsite: Ip(0x40_0000 + (r >> 44) % 0x1000),
            }
        } else if roll < 960 {
            EventPayload::Free { base: 0x7f00_0000_0000 + (r >> 8) % 0x1_0000_0000 }
        } else {
            EventPayload::MuxSwitch {
                event_index: (r >> 12) as usize % 4,
                label: format!("grp{}", (r >> 12) % 4),
            }
        };
        Some(TraceEvent { cycles, core, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_extrae::query::{EventClass, Query};

    #[test]
    fn deterministic_and_sized() {
        let cfg = GenConfig { events: 10_000, cores: 4, seed: 7 };
        let a: Vec<_> = cfg.events().collect();
        let b: Vec<_> = cfg.events().collect();
        assert_eq!(a.len(), 10_000);
        assert_eq!(a, b, "same seed, same stream");
        let c: Vec<_> = GenConfig { seed: 8, ..cfg }.events().take(100).collect();
        assert_ne!(a[..100], c[..], "different seed, different stream");
    }

    #[test]
    fn mix_covers_every_event_class_and_timestamps_increase() {
        let cfg = GenConfig { events: 50_000, cores: 4, seed: 42 };
        let events: Vec<_> = cfg.events().collect();
        let mut seen = [false; EventClass::ALL.len()];
        let mut prev = 0;
        for e in &events {
            seen[EventClass::of(&e.payload) as usize] = true;
            assert!(e.cycles > prev, "timestamps must be strictly increasing");
            prev = e.cycles;
            assert!(e.core < 4);
        }
        assert!(seen.iter().all(|&s| s), "mix must cover all classes: {seen:?}");
    }

    #[test]
    fn header_supports_object_queries() {
        let cfg = GenConfig { events: 20_000, cores: 2, seed: 1 };
        assert!(cfg.header().objects.all().len() >= NUM_OBJECTS as usize);
        let q = Query::all().touching_object(ObjectId(3));
        let hits = cfg.events().filter(|e| q.matches(e)).count();
        assert!(hits > 0, "object 3 must receive samples");
    }
}

//! Benchmark-owned synthetic event stream.
//!
//! A port of the `gentrace` event mix (45 % PEBS samples, 20 % region
//! boundaries, 15 % user events, 10 % counter samples, 6 % alloc/free,
//! 4 % mux switches), kept here so that edits to `crates/bench` can
//! never shift the benchmark's inputs. The payloads are high-entropy,
//! so the store's chunks stay incompressible (Raw) and are served
//! zero-copy from the mapping, bypassing the block cache.

use mempersp_extrae::events::{EventPayload, RegionId, TraceEvent};
use mempersp_extrae::source::Ip;
use mempersp_extrae::tracer::{Trace, Tracer, TracerConfig};
use mempersp_extrae::ObjectId;
use mempersp_memsim::MemLevel;
use mempersp_pebs::{CounterSnapshot, PebsSample};

pub const REGIONS: [&str; 5] =
    ["gen_compute", "gen_exchange", "gen_reduce", "gen_smooth", "gen_residual"];
pub const NUM_OBJECTS: u32 = 16;

/// The harness's only source of randomness (event stream, query
/// windows, client mix): xorshift64*, seeded through a splitmix64
/// finalizer so nearby seeds give unrelated streams and the state is
/// never zero.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    pub events: u64,
    pub cores: usize,
    pub seed: u64,
}

impl GenConfig {
    /// The header matching the stream: regions interned, objects
    /// registered, zero events.
    pub fn header(&self) -> Trace {
        let mut t = Tracer::new(TracerConfig::default(), self.cores);
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
            "benchmark stream: {} events, {} cores, seed {}",
            self.events, self.cores, self.seed
        ))
    }

    pub fn events(&self) -> EventGen {
        EventGen {
            remaining: self.events,
            cores: self.cores,
            rng: Rng::new(self.seed),
            clock: 1_000,
            emitted: 0,
            counters: [0; 12],
        }
    }
}

pub struct EventGen {
    remaining: u64,
    cores: usize,
    rng: Rng,
    clock: u64,
    emitted: u64,
    counters: [u64; 12],
}

impl EventGen {
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
        let r = self.rng.next();
        self.clock += 50 + (r >> 32) % 2_000;
        let cycles = self.clock;
        let core = (self.emitted % self.cores as u64) as usize;
        self.emitted += 1;

        let roll = r % 1000;
        let payload = if roll < 200 {
            let region = RegionId((r >> 10) as u32 % REGIONS.len() as u32);
            let counters = self.counters();
            if roll.is_multiple_of(2) {
                EventPayload::RegionEnter { region, counters }
            } else {
                EventPayload::RegionExit { region, counters }
            }
        } else if roll < 650 {
            let obj = (r >> 10) as u32 % (NUM_OBJECTS * 4 / 3); // ~75 % resolve
            let object = (obj < NUM_OBJECTS).then_some(ObjectId(obj));
            let addr = 0x10_0000
                + u64::from(obj % NUM_OBJECTS) * 0x10_0000
                + (((r >> 20) % 0x10_0000) & !7);
            EventPayload::Pebs {
                sample: PebsSample {
                    timestamp: cycles,
                    core,
                    ip: 0x40_0000 + (r >> 40) % 0x1000,
                    addr,
                    size: 8,
                    is_store: roll.is_multiple_of(4),
                    latency: (10 + (r >> 15) % 300) as u32,
                    source: match (r >> 8) % 100 {
                        0..=59 => MemLevel::L1,
                        60..=84 => MemLevel::L2,
                        85..=94 => MemLevel::L3,
                        _ => MemLevel::Dram,
                    },
                    tlb_miss: (r >> 9).is_multiple_of(50),
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
    use mempersp_extrae::query::EventClass;
    use mempersp_folding::Fnv64;

    fn digest(seed: u64) -> u64 {
        let mut h = Fnv64::new();
        for e in (GenConfig { events: 100_000, cores: 4, seed }).events() {
            h.write_u64(e.cycles);
            h.write_u64(e.core as u64);
            h.write_u64(u64::from(EventClass::of(&e.payload).bit()));
            if let EventPayload::Pebs { sample, object } = &e.payload {
                h.write_u64(sample.addr);
                h.write_u64(sample.ip);
                h.write_u64(u64::from(sample.latency));
                h.write_u64(object.map_or(u64::MAX, |o| u64::from(o.0)));
            }
        }
        h.finish()
    }

    /// The benchmark's inputs are frozen: a change to the generator (or
    /// to an event type's shape) must show up here, not as a silent
    /// shift in every store metric.
    #[test]
    fn seed_42_stream_is_pinned() {
        assert_eq!(digest(42), 0xE419_2C31_E7A3_13A0);
        assert_ne!(digest(43), digest(42), "another seed gives another stream");
    }

    #[test]
    fn timestamps_increase_and_cores_round_robin() {
        let mut prev = 0;
        for (i, e) in (GenConfig { events: 10_000, cores: 4, seed: 1 }).events().enumerate() {
            assert!(e.cycles > prev);
            prev = e.cycles;
            assert_eq!(e.core, i % 4);
        }
    }
}

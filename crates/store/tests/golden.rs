//! The store's bytes, pinned: one fixed synthetic trace written at a
//! 1 KiB chunk target must produce exactly the recorded file length,
//! chunk count and CRC32C. Any change to the chunk codec, the framing,
//! the LZ pass or the footer that moves a single byte fails here; a
//! deliberate format change re-records the three numbers (the test
//! prints them on failure).
//!
//! The trace touches every event class and every field shape the codec
//! distinguishes: region boundaries, counter samples with empty and
//! nested stacks, PEBS samples with and without an object, with the
//! store and TLB-miss flags, at all four levels and with 8-byte
//! addresses, allocations and frees, mux labels (empty and non-ASCII),
//! user events, negative timestamp deltas and core ids up to 63.

use mempersp_extrae::events::{EventPayload, RegionId, TraceEvent};
use mempersp_extrae::objects::ObjectId;
use mempersp_extrae::source::Ip;
use mempersp_extrae::trace_source::TraceSource;
use mempersp_extrae::tracer::{Trace, Tracer, TracerConfig};
use mempersp_memsim::MemLevel;
use mempersp_pebs::{CounterSnapshot, PebsSample};
use mempersp_store::{crc32c, write_store_chunked, MpsSource};

const CHUNK_TARGET: usize = 1024;
const EVENTS: u64 = 4000;

/// (file length, chunk count, CRC32C of the whole file).
const GOLDEN: (usize, u64, u32) = (126_613, 113, 337_140_900);

/// xorshift64*: a fixed sequence, independent of any crate's RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A value of a random stream-vbyte width (1, 2, 4 or 8 bytes).
    fn any_width(&mut self) -> u64 {
        let v = self.next();
        match self.below(4) {
            0 => v & 0xFF,
            1 => v & 0xFFFF,
            2 => v & 0xFFFF_FFFF,
            _ => v | 1 << 63,
        }
    }
}

fn counters(rng: &mut Rng) -> CounterSnapshot {
    CounterSnapshot::from_values(std::array::from_fn(|_| rng.any_width()))
}

fn event(rng: &mut Rng, i: u64, cycles: u64) -> TraceEvent {
    let core = if i.is_multiple_of(97) { 63 } else { rng.below(64) as usize };
    let levels = [MemLevel::L1, MemLevel::L2, MemLevel::L3, MemLevel::Dram];
    let labels = ["", "loads", "stores — ω", "L3 miss ▲"];
    let payload = match i % 10 {
        0 => EventPayload::RegionEnter { region: RegionId(rng.below(5) as u32), counters: counters(rng) },
        1 => EventPayload::RegionExit { region: RegionId(rng.below(5) as u32), counters: counters(rng) },
        2 => {
            let depth = rng.below(4);
            EventPayload::CounterSample {
                ip: Ip(rng.any_width()),
                counters: counters(rng),
                stack: (0..depth).map(|_| RegionId(rng.below(1 << 20) as u32)).collect(),
            }
        }
        3..=5 => EventPayload::Pebs {
            sample: PebsSample {
                timestamp: cycles,
                core,
                ip: rng.any_width(),
                addr: if i.is_multiple_of(3) { 0xFFFF_8000_0000_0000 | rng.next() >> 20 } else { rng.any_width() },
                size: [1, 2, 4, 8, 64][rng.below(5) as usize],
                is_store: rng.below(2) == 0,
                latency: rng.any_width() as u32,
                source: levels[rng.below(4) as usize],
                tlb_miss: rng.below(3) == 0,
            },
            object: (rng.below(3) != 0).then(|| ObjectId(rng.any_width() as u32)),
        },
        6 => EventPayload::Alloc { base: rng.any_width(), size: rng.any_width(), callsite: Ip(rng.any_width()) },
        7 => EventPayload::Free { base: rng.any_width() },
        8 => EventPayload::MuxSwitch {
            event_index: rng.below(1 << 17) as usize,
            label: labels[rng.below(4) as usize].to_string(),
        },
        _ => EventPayload::User { kind: rng.any_width() as u32, value: rng.any_width() },
    };
    TraceEvent { cycles, core, payload }
}

fn golden_trace() -> Trace {
    let mut t = Tracer::new(TracerConfig::default(), 64);
    for name in ["main", "ComputeSPMV", "ComputeSYMGS", "ComputeDotProduct", "ComputeWAXPBY"] {
        t.region(name);
    }
    let mut trace = t.finish("golden store trace");
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut cycles = 1_000_000u64;
    trace.events = (0..EVENTS)
        .map(|i| {
            // Mostly forward, sometimes back: streamed bodies interleave
            // cores slightly out of global order.
            cycles = if rng.below(8) == 0 { cycles - rng.below(500) } else { cycles + rng.below(5_000) };
            event(&mut rng, i, cycles)
        })
        .collect();
    trace
}

#[test]
fn store_bytes_match_the_recorded_digest() {
    let dir = std::env::temp_dir().join(format!("mempersp_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.mps");
    let trace = golden_trace();
    let summary = write_store_chunked(&path, &trace, CHUNK_TARGET).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let got = (bytes.len(), summary.chunks, crc32c(&bytes));

    // The bytes decode back to the trace, so the digest pins a
    // lossless encoding.
    let back = MpsSource::open(&path).unwrap().materialize().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(back.events, trace.events);
    assert!(summary.chunks > 20, "the 1 KiB target must force many chunks, got {}", summary.chunks);
    assert_eq!(got, GOLDEN, "store bytes moved: (len, chunks, crc32c) = {got:?}");
}

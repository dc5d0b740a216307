//! Property-based tests for the monitoring runtime.

use mempersp_extrae::batch::transpose_batches;
use mempersp_extrae::events::{EventPayload, RegionId, TraceEvent};
use mempersp_extrae::json::{event_to_json, write_row};
use mempersp_extrae::source::Ip;
use mempersp_extrae::trace_format::{parse_trace, write_trace};
use mempersp_extrae::{CodeLocation, ObjectId, SimAllocator, Tracer, TracerConfig};
use mempersp_memsim::MemLevel;
use mempersp_pebs::{CounterSnapshot, PebsSample};
use proptest::prelude::*;

fn arb_level() -> impl Strategy<Value = MemLevel> {
    prop_oneof![
        Just(MemLevel::L1),
        Just(MemLevel::L2),
        Just(MemLevel::L3),
        Just(MemLevel::Dram)
    ]
}

/// Mux labels over the whole escaping surface: control characters,
/// quotes and backslashes, and 1- to 4-byte UTF-8.
fn arb_label() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        0u32..0x20,
        Just(u32::from('"')),
        Just(u32::from('\\')),
        0x20u32..0x80,
        0x80u32..0x800,
        0x800u32..0xD800,
        0x1_0000u32..0x11_0000,
    ];
    prop::collection::vec(ch, 0..24)
        .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
}

/// One event of class `class % 8`, its fields drawn from `v`.
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    (
        (0u8..8, any::<u64>(), 0usize..=u32::MAX as usize),
        prop::collection::vec(any::<u64>(), 12..13),
        prop::collection::vec(any::<u32>(), 0..40),
        (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>(), any::<bool>(), any::<bool>()),
        (arb_level(), any::<bool>(), arb_label()),
    )
        .prop_map(|((class, cycles, core), counters, stack, (a, b, c, d, p, q), (source, has, label))| {
            let counters = CounterSnapshot::from_values(counters.try_into().expect("12 counters"));
            let payload = match class {
                0 => EventPayload::RegionEnter { region: RegionId(c), counters },
                1 => EventPayload::RegionExit { region: RegionId(c), counters },
                2 => EventPayload::CounterSample {
                    ip: Ip(a),
                    counters,
                    stack: stack.into_iter().map(RegionId).collect(),
                },
                3 => EventPayload::Pebs {
                    sample: PebsSample {
                        timestamp: cycles,
                        core,
                        ip: a,
                        addr: b,
                        size: c,
                        is_store: p,
                        latency: d,
                        source,
                        tlb_miss: q,
                    },
                    object: has.then_some(ObjectId(d)),
                },
                4 => EventPayload::Alloc { base: a, size: b, callsite: Ip(u64::from(c)) },
                5 => EventPayload::Free { base: a },
                6 => EventPayload::MuxSwitch { event_index: b as usize, label },
                _ => EventPayload::User { kind: c, value: b },
            };
            TraceEvent { cycles, core, payload }
        })
}

proptest! {
    /// The append-only record writer emits, for any event mix, the
    /// bytes of the `Value`-tree reference.
    #[test]
    fn json_writer_equals_the_value_tree_reference(
        events in prop::collection::vec(arb_event(), 1..40),
    ) {
        let mut got = Vec::new();
        transpose_batches(&events, &mut |batch| {
            got.extend(batch.rows().map(|row| {
                let mut line = String::new();
                write_row(&mut line, &row);
                line
            }));
        });
        let want: Vec<String> =
            events.iter().map(|e| serde_json::to_string(&event_to_json(e)).unwrap()).collect();
        prop_assert_eq!(got, want);
    }

    /// Live allocations never overlap, whatever the malloc/free mix.
    #[test]
    fn allocations_never_overlap(
        ops in prop::collection::vec((1u64..1 << 21, any::<bool>()), 1..200),
        seed in any::<u64>(),
    ) {
        let mut a = SimAllocator::new(seed);
        let mut live: Vec<u64> = Vec::new();
        for (size, do_free) in ops {
            if do_free && !live.is_empty() {
                let base = live.swap_remove(0);
                prop_assert!(a.free(base).is_some());
            } else {
                live.push(a.malloc(size));
            }
            let allocs: Vec<_> = a.iter_live().collect();
            for w in allocs.windows(2) {
                prop_assert!(
                    w[0].base + w[0].size <= w[1].base,
                    "overlap: {:?} vs {:?}", w[0], w[1]
                );
            }
        }
        prop_assert_eq!(a.live_count(), live.len());
    }

    /// Every interior address of a live allocation resolves to it, and
    /// `containing` never returns a freed block.
    #[test]
    fn containing_is_exact(sizes in prop::collection::vec(1u64..4096, 1..50)) {
        let mut a = SimAllocator::new(99);
        let bases: Vec<(u64, u64)> = sizes.iter().map(|&s| (a.malloc(s), s)).collect();
        for &(b, s) in &bases {
            prop_assert_eq!(a.containing(b).unwrap().base, b);
            prop_assert_eq!(a.containing(b + s - 1).unwrap().base, b);
        }
        // Free every other block and re-check.
        for (i, &(b, _)) in bases.iter().enumerate() {
            if i % 2 == 0 {
                a.free(b);
            }
        }
        for (i, &(b, _)) in bases.iter().enumerate() {
            let hit = a.containing(b).map(|x| x.base);
            if i % 2 == 0 {
                prop_assert_ne!(hit, Some(b));
            } else {
                prop_assert_eq!(hit, Some(b));
            }
        }
    }

    /// The trace text format round-trips arbitrary event mixes.
    #[test]
    fn trace_format_round_trips(
        events in prop::collection::vec(
            (0u64..1 << 40, 0usize..4, 0u32..1000, any::<bool>(), arb_level(), 1u32..512),
            0..100,
        ),
        descr in "[ -~]{0,40}",
        threshold in 1u64..10_000,
    ) {
        let mut t = Tracer::new(
            TracerConfig { alloc_threshold: threshold, aslr_seed: 7, freq_mhz: 2500 },
            4,
        );
        let ip = t.location("kernel.rs", 1, "kernel");
        let c = CounterSnapshot::from_values([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        let big = t.malloc(1 << 20, &CodeLocation::new("alloc.rs", 10, "setup"), 0);
        for (i, (ts, core, lat, is_store, source, size)) in events.iter().enumerate() {
            match i % 3 {
                0 => t.record_pebs(PebsSample {
                    timestamp: *ts,
                    core: *core,
                    ip: ip.0,
                    addr: big + (i as u64 * 64) % (1 << 20),
                    size: *size,
                    is_store: *is_store,
                    latency: *lat,
                    source: *source,
                    tlb_miss: i % 5 == 0,
                }),
                1 => t.record_counter_sample(*core, ip, c, *ts),
                _ => t.user_event(*core, i as u32, *ts, *ts),
            }
        }
        let trace = t.finish(&descr);
        let text = write_trace(&trace);
        let back = parse_trace(&text).expect("parse back");
        prop_assert_eq!(&back.meta, &trace.meta);
        prop_assert_eq!(&back.events, &trace.events);
        prop_assert_eq!(&back.resolution, &trace.resolution);
        // Re-serialization is byte-stable.
        prop_assert_eq!(write_trace(&back), text);
    }

    /// Allocation grouping always covers exactly its members: group
    /// range = [min base, max end] and allocated = sum of sizes.
    #[test]
    fn group_covers_members(sizes in prop::collection::vec(1u64..500, 1..100)) {
        let mut t = Tracer::new(TracerConfig::default(), 1);
        t.begin_alloc_group("g");
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        let mut sum = 0u64;
        for &s in &sizes {
            let b = t.malloc(s, &CodeLocation::new("x.rs", 1, "x"), 0);
            lo = lo.min(b);
            hi = hi.max(b + s);
            sum += s;
        }
        let id = t.end_alloc_group().unwrap();
        let o = t.objects().get(id).unwrap();
        prop_assert_eq!(o.base, lo);
        prop_assert_eq!(o.end(), hi);
        prop_assert_eq!(o.allocated_bytes, sum);
        // Every member's first byte resolves to the group.
        prop_assert!(t.objects().resolve(lo).is_some());
        prop_assert!(t.objects().resolve(hi - 1).is_some());
    }

    /// The parser never panics, whatever bytes it is fed — it returns
    /// a structured error instead.
    #[test]
    fn parser_never_panics_on_garbage(text in "[ -~\\n]{0,500}") {
        let _ = parse_trace(&text);
    }

    /// Nor on a valid trace with random single-character corruption.
    #[test]
    fn parser_never_panics_on_corruption(pos in 0usize..4096, ch_off in 0u8..94) {
        let ch = (b' ' + ch_off) as char;
        let mut t = Tracer::new(TracerConfig::default(), 1);
        let ip = t.location("kernel.rs", 1, "kernel");
        let c = CounterSnapshot::default();
        t.enter(0, "R", c, 0);
        t.record_counter_sample(0, ip, c, 5);
        t.exit(0, "R", c, 10);
        let mut text = write_trace(&t.finish("fuzz"));
        if !text.is_empty() {
            let pos = pos % text.len();
            // Replace one byte at a char boundary (ASCII format).
            if text.is_char_boundary(pos) && text.is_char_boundary(pos + 1) {
                text.replace_range(pos..pos + 1, &ch.to_string());
            }
        }
        let _ = parse_trace(&text);
    }

    /// Threshold semantics: a sample inside an allocation resolves iff
    /// the allocation met the threshold.
    #[test]
    fn threshold_controls_resolution(size in 1u64..10_000, threshold in 1u64..10_000) {
        let mut t = Tracer::new(
            TracerConfig { alloc_threshold: threshold, ..Default::default() },
            1,
        );
        let b = t.malloc(size, &CodeLocation::new("x.rs", 2, "x"), 0);
        t.record_pebs(PebsSample {
            timestamp: 1,
            core: 0,
            ip: 0,
            addr: b,
            size: 1,
            is_store: false,
            latency: 1,
            source: MemLevel::L1,
            tlb_miss: false,
        });
        let r = t.resolution();
        if size >= threshold {
            prop_assert_eq!((r.resolved, r.unresolved), (1, 0));
        } else {
            prop_assert_eq!((r.resolved, r.unresolved), (0, 1));
        }
    }

    /// Streaming drains compose to the finish order. The oracle is
    /// the specification itself: every recorded event in a plain
    /// `Vec`, stably sorted by `cycles` once. The feed is what the
    /// machine produces — per-core clocks that only move forward (and
    /// often tie across cores), timer samples back-dated behind the
    /// PEBS sample just recorded, `malloc`/`free` stamped `core: 0`
    /// from whichever core's clock issued them — drained at a
    /// non-decreasing watermark that never exceeds the slowest clock.
    #[test]
    fn drains_and_finish_equal_one_stable_sort(
        ops in prop::collection::vec(
            (0usize..4, 0u8..6, 0u64..4, 0u64..12, 0u8..3, 0u64..5),
            1..300,
        ),
    ) {
        const CORES: usize = 4;
        let site = CodeLocation::new("oracle.rs", 7, "feed");
        let counters = CounterSnapshot::default();
        let mut t = Tracer::new(TracerConfig::default(), CORES);
        let site_ip = t.location(&site.file, site.line, &site.function);
        let mut oracle: Vec<TraceEvent> = Vec::new();
        let mut got: Vec<TraceEvent> = Vec::new();
        let mut clock = [0u64; CORES];
        let mut watermark = 0u64;
        let mut live: Vec<u64> = Vec::new();

        let region = t.region("work");
        for core in 0..CORES {
            t.enter(core, "work", counters, 0);
            oracle.push(TraceEvent { cycles: 0, core, payload: EventPayload::RegionEnter { region, counters } });
        }
        for (n, &(core, kind, advance, back, drain, frac)) in ops.iter().enumerate() {
            let n = n as u64;
            clock[core] += advance;
            let now = clock[core];
            // A timer sample may lie in the past, never below what
            // has been declared final.
            let past = now.saturating_sub(back).max(watermark);
            match kind {
                0 => {
                    t.user_event(core, 1, n, now);
                    oracle.push(TraceEvent { cycles: now, core, payload: EventPayload::User { kind: 1, value: n } });
                }
                1 | 2 => {
                    let sample = PebsSample {
                        timestamp: now, core, ip: n, addr: 64 + n, size: 8, is_store: kind == 2,
                        latency: 3, source: MemLevel::L2, tlb_miss: false,
                    };
                    t.record_pebs(sample);
                    oracle.push(TraceEvent { cycles: now, core, payload: EventPayload::Pebs { sample, object: None } });
                    t.record_counter_sample(core, site_ip, counters, past);
                    oracle.push(TraceEvent {
                        cycles: past,
                        core,
                        payload: EventPayload::CounterSample { ip: site_ip, counters, stack: vec![region] },
                    });
                }
                3 => {
                    t.record_mux_switch(core, n as usize, "stores", now);
                    oracle.push(TraceEvent {
                        cycles: now,
                        core,
                        payload: EventPayload::MuxSwitch { event_index: n as usize, label: "stores".into() },
                    });
                }
                4 => {
                    let size = 4096 + n;
                    let base = t.malloc(size, &site, now);
                    live.push(base);
                    oracle.push(TraceEvent { cycles: now, core: 0, payload: EventPayload::Alloc { base, size, callsite: site_ip } });
                }
                _ => {
                    if let Some(base) = live.pop() {
                        t.free(base, now);
                        oracle.push(TraceEvent { cycles: now, core: 0, payload: EventPayload::Free { base } });
                    }
                }
            }
            if drain > 0 {
                // Somewhere between the last watermark and the slowest
                // clock, both ends included.
                let slowest = *clock.iter().min().unwrap();
                watermark += (slowest - watermark) * frac / 4;
                let before = got.len();
                if drain == 1 {
                    t.drain_ready(watermark, &mut got);
                } else {
                    t.drain_ready_with(watermark, |e| -> Result<(), ()> {
                        got.push(e.clone());
                        Ok(())
                    }).unwrap();
                }
                prop_assert!(got[before..].iter().all(|e| e.cycles <= watermark));
            }
        }
        for (core, &end) in clock.iter().enumerate() {
            t.exit(core, "work", counters, end);
            oracle.push(TraceEvent { cycles: end, core, payload: EventPayload::RegionExit { region, counters } });
        }
        prop_assert_eq!(t.num_events() + got.len(), oracle.len());
        got.extend(t.finish("oracle").events);
        oracle.sort_by_key(|e| e.cycles);
        prop_assert_eq!(got, oracle);
    }
}

//! Property-based tests for the trace store: the chunk codec, the LZ
//! pass, and the query path against a linear filter oracle.

use mempersp_extrae::events::{EventPayload, RegionId, TraceEvent};
use mempersp_extrae::objects::ObjectId;
use mempersp_extrae::query::{EventClass, Query};
use mempersp_extrae::source::Ip;
use mempersp_memsim::MemLevel;
use mempersp_pebs::{CounterSnapshot, PebsSample};
use mempersp_store::codec::{decode_events_v4, encode_events_v4};
use mempersp_store::lz;
use mempersp_store::svb::{encode_column, unzigzag, SvbColumn};
use mempersp_store::writer::write_store_chunked;
use mempersp_store::{detected_simd_level, SimdLevel, StoreReader};
use proptest::prelude::*;

fn arb_level() -> impl Strategy<Value = MemLevel> {
    (0u8..4).prop_map(|c| match c {
        0 => MemLevel::L1,
        1 => MemLevel::L2,
        2 => MemLevel::L3,
        _ => MemLevel::Dram,
    })
}

fn arb_counters() -> impl Strategy<Value = CounterSnapshot> {
    prop::collection::vec(0u64..1 << 45, 12..13).prop_map(|v| {
        let mut vals = [0u64; 12];
        vals.copy_from_slice(&v);
        CounterSnapshot::from_values(vals)
    })
}

/// One arbitrary event of any payload kind. The PEBS envelope
/// invariant (`sample.timestamp == cycles`, `sample.core == core`) is
/// maintained, exactly as the tracer maintains it.
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    let env = || (0u64..1 << 48, 0usize..128);
    prop_oneof![
        (env(), 0u32..100, arb_counters(), any::<bool>()).prop_map(|((cycles, core), r, c, en)| {
            TraceEvent {
                cycles,
                core,
                payload: if en {
                    EventPayload::RegionEnter { region: RegionId(r), counters: c }
                } else {
                    EventPayload::RegionExit { region: RegionId(r), counters: c }
                },
            }
        }),
        (env(), any::<u64>(), arb_counters(), prop::collection::vec(0u32..100, 0..6)).prop_map(
            |((cycles, core), ip, c, stack)| TraceEvent {
                cycles,
                core,
                payload: EventPayload::CounterSample {
                    ip: Ip(ip),
                    counters: c,
                    stack: stack.into_iter().map(RegionId).collect(),
                },
            }
        ),
        (
            env(),
            (any::<u64>(), any::<u64>(), 1u32..512),
            (any::<bool>(), 0u32..2000, arb_level(), any::<bool>()),
            (any::<bool>(), 0u32..50),
        )
            .prop_map(
                |((cycles, core), (ip, addr, size), (is_store, latency, source, tlb), (has_obj, obj))| {
                    TraceEvent {
                        cycles,
                        core,
                        payload: EventPayload::Pebs {
                            sample: PebsSample {
                                timestamp: cycles,
                                core,
                                ip,
                                addr,
                                size,
                                is_store,
                                latency,
                                source,
                                tlb_miss: tlb,
                            },
                            object: has_obj.then_some(ObjectId(obj)),
                        },
                    }
                }
            ),
        (env(), any::<u64>(), 1u64..1 << 30, any::<u64>()).prop_map(
            |((cycles, core), base, size, cs)| TraceEvent {
                cycles,
                core,
                payload: EventPayload::Alloc { base, size, callsite: Ip(cs) },
            }
        ),
        (env(), any::<u64>()).prop_map(|((cycles, core), base)| TraceEvent {
            cycles,
            core,
            payload: EventPayload::Free { base },
        }),
        (env(), 0usize..12, "[ -~]{0,24}").prop_map(|((cycles, core), idx, label)| TraceEvent {
            cycles,
            core,
            payload: EventPayload::MuxSwitch { event_index: idx, label },
        }),
        (env(), any::<u32>(), any::<u64>()).prop_map(|((cycles, core), kind, value)| TraceEvent {
            cycles,
            core,
            payload: EventPayload::User { kind, value },
        }),
    ]
}

/// A non-empty subset of the event classes, driven by a bitmask.
fn kinds_from_mask(mask: u8) -> Vec<EventClass> {
    let picked: Vec<EventClass> =
        EventClass::ALL.iter().copied().filter(|k| mask & k.bit() != 0).collect();
    if picked.is_empty() {
        EventClass::ALL.to_vec()
    } else {
        picked
    }
}

/// One arbitrary column value biased so every stream-vbyte width
/// class (1/2/4/8 data bytes) and both extremes show up often.
fn arb_col_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        0u64..=0xFF,
        0x100u64..=0xFFFF,
        0x1_0000u64..=0xFFFF_FFFF,
        0x1_0000_0000u64..=u64::MAX,
    ]
}

/// The SIMD kernels this host can actually run (hardware detection,
/// ignoring the `MEMPERSP_NO_SIMD` override).
fn runnable_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar];
    if detected_simd_level() != SimdLevel::Scalar {
        levels.push(SimdLevel::Ssse3);
    }
    if detected_simd_level() == SimdLevel::Avx2 {
        levels.push(SimdLevel::Avx2);
    }
    levels
}

fn tmp(name: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mempersp_store_pt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{case}.mps"))
}

proptest! {
    /// `decode(encode(chunk)) == chunk` for arbitrary event mixes:
    /// every payload kind, out-of-order timestamps (negative deltas),
    /// high core ids, full-width values.
    #[test]
    fn v4_codec_round_trips(events in prop::collection::vec(arb_event(), 0..200)) {
        let buf = encode_events_v4(&events);
        let back = decode_events_v4(&buf, events.len()).expect("decode v4");
        prop_assert_eq!(back, events);
    }

    /// Every stream-vbyte kernel this host can run decodes random
    /// columns byte-identically to the scalar reference — including
    /// max-width values, empty columns, and lengths that leave 1–3
    /// values in the tail group or cross the 32-value SIMD block
    /// boundary.
    #[test]
    fn svb_kernels_agree_with_scalar(
        vals in prop::collection::vec(arb_col_value(), 0..150),
    ) {
        let stream = encode_column(&vals);
        let mut pos = 0usize;
        let col = SvbColumn::parse(&stream, &mut pos, vals.len()).expect("parse");
        prop_assert_eq!(pos, stream.len(), "parse must consume the whole stream");
        let mut scalar = Vec::new();
        col.decode_into_with(SimdLevel::Scalar, &mut scalar);
        prop_assert_eq!(&scalar, &vals);
        for level in runnable_levels() {
            let mut out = Vec::new();
            col.decode_into_with(level, &mut out);
            prop_assert_eq!(&out, &scalar, "kernel {:?} diverged", level);
        }
    }

    /// The fused zigzag-undo + prefix-sum kernel equals the obvious
    /// scalar fold, for arbitrary signed deltas and starting value.
    #[test]
    fn svb_zigzag_prefix_matches_scalar_fold(
        zz in prop::collection::vec(arb_col_value(), 0..150),
        prev in any::<u64>(),
    ) {
        let stream = encode_column(&zz);
        let mut pos = 0usize;
        let col = SvbColumn::parse(&stream, &mut pos, zz.len()).expect("parse");
        let mut got = Vec::new();
        col.decode_zigzag_prefix_into(prev, &mut got);
        let mut acc = prev;
        let want: Vec<u64> = zz
            .iter()
            .map(|&z| {
                acc = acc.wrapping_add(unzigzag(z));
                acc
            })
            .collect();
        prop_assert_eq!(got, want);
    }

    /// The LZ pass is lossless on arbitrary bytes.
    #[test]
    fn lz_round_trips(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let packed = lz::compress(&data);
        let back = lz::decompress(&packed, data.len()).expect("decompress");
        prop_assert_eq!(back, data);
    }

    /// ... and on highly repetitive input, where matches (including
    /// overlapping RLE-style ones) actually fire and must shrink it.
    #[test]
    fn lz_round_trips_and_shrinks_repetitive(
        unit in prop::collection::vec(any::<u8>(), 1..16),
        reps in 64usize..256,
    ) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        let packed = lz::compress(&data);
        prop_assert_eq!(lz::decompress(&packed, data.len()).expect("decompress"), data.clone());
        prop_assert!(packed.len() < data.len(), "{} !< {}", packed.len(), data.len());
    }

    /// The decoder never panics on garbage — it returns an error.
    #[test]
    fn decoder_never_panics_on_garbage(
        data in prop::collection::vec(any::<u8>(), 0..512),
        count in 0usize..64,
    ) {
        let _ = decode_events_v4(&data, count);
    }

    /// A store query equals the linear filter over the original
    /// events, for arbitrary traces and arbitrary predicates.
    #[test]
    fn query_equals_linear_filter(
        events in prop::collection::vec(arb_event(), 1..300),
        window in (any::<bool>(), 0u64..1 << 48, 0u64..1 << 16),
        kind_mask in any::<u8>(),
        cores in (any::<bool>(), prop::collection::vec(0usize..128, 1..4)),
        case in any::<u64>(),
    ) {
        let mut trace = mempersp_extrae::Tracer::new(Default::default(), 1).finish("pt");
        trace.events = events.clone();

        let path = tmp("oracle", case);
        write_store_chunked(&path, &trace, 1024).expect("write");
        let reader = StoreReader::open(&path).expect("open");

        let mut q = Query::all().with_kinds(&kinds_from_mask(kind_mask));
        if window.0 {
            q = q.in_time(window.1, window.1.saturating_add(window.2));
        }
        if cores.0 {
            q = q.on_cores(&cores.1);
        }

        let (got, stats) = reader.query(&q).expect("query");
        let want: Vec<TraceEvent> = events.iter().filter(|e| q.matches(e)).cloned().collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(stats.events_matched as usize, want.len());

        // Parallel scan returns the identical answer.
        let (par, _) = reader.query_parallel(&q, 4).expect("parallel query");
        prop_assert_eq!(par, want);

        std::fs::remove_file(&path).ok();
    }
}

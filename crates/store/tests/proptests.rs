//! Property-based tests for the trace store: the chunk codec, the LZ
//! pass, and every read path of both containers against a linear
//! filter oracle — plus the fixed cases that oracle needs to reach the
//! parallel fan-out, a salvaged shard and a cancelled scan.

use mempersp_extrae::events::{EventPayload, RegionId, TraceEvent};
use mempersp_extrae::objects::ObjectId;
use mempersp_extrae::query::{EventClass, Query};
use mempersp_extrae::source::Ip;
use mempersp_memsim::MemLevel;
use mempersp_pebs::{CounterSnapshot, PebsSample};
use mempersp_store::codec::{decode_events_v4, encode_events_v4};
use mempersp_store::lz;
use mempersp_store::svb::{encode_column, unzigzag, SvbColumn};
use mempersp_extrae::trace_source::{ScanStats, TraceSource};
use mempersp_extrae::tracer::Trace;
use mempersp_store::writer::write_store_chunked;
use mempersp_store::{
    detected_simd_level, write_store_sharded, CancelToken, MpsSource, RecoveryMode, SimdLevel,
    ALL_MATCHES, PARALLEL_MIN_CHUNKS,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

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

/// A header-only trace around `events`.
fn trace_of(events: &[TraceEvent]) -> Trace {
    let mut trace = mempersp_extrae::Tracer::new(Default::default(), 1).finish("pt");
    trace.events = events.to_vec();
    trace
}

/// Write `events` with 1 KiB chunks as a flat `.mps` (`shards == 0`)
/// or as a `.mps.d` spanning at most `shards` shards.
fn write_container(name: &str, case: u64, events: &[TraceEvent], shards: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mempersp_store_pt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = trace_of(events);
    if shards == 0 {
        let path = dir.join(format!("{name}_{case}.mps"));
        write_store_chunked(&path, &trace, 1024).expect("write");
        path
    } else {
        let path = dir.join(format!("{name}_{case}.mps.d"));
        std::fs::remove_dir_all(&path).ok();
        let per_shard = events.len().div_ceil(shards) as u64;
        write_store_sharded(&path, &trace, 1024, 1, per_shard).expect("write sharded");
        path
    }
}

fn remove_container(path: &Path) {
    if path.is_dir() {
        std::fs::remove_dir_all(path).ok();
    } else {
        std::fs::remove_file(path).ok();
    }
}

/// The differential check: `query`, `query_parallel` at 2 and 4
/// threads, `scan_batches_cancel` + `materialize_into` and
/// `TraceSource::filtered` must all return `want`, and the parallel
/// scans must account for the same work as the sequential one.
/// Returns the sequential scan's stats.
fn assert_read_paths_agree(src: &mut MpsSource, q: &Query, want: &[TraceEvent]) -> ScanStats {
    // Which of a touched chunk's two counters moves depends on the
    // cache, so compare their sum.
    let account = |s: &ScanStats| {
        let visited = s.chunks_skipped + s.chunks_decoded + s.chunks_cached;
        (s.events_matched, s.events_scanned, visited, s.chunks_damaged)
    };
    let (seq, seq_stats) = src.query(q).expect("query");
    assert_eq!(seq, want);
    assert_eq!(seq_stats.events_matched as usize, want.len());
    for threads in [2, 4] {
        let (par, par_stats) = src.query_parallel(q, threads).expect("parallel query");
        assert_eq!(par, want, "threads={threads}");
        assert_eq!(account(&par_stats), account(&seq_stats), "threads={threads}");
    }
    let mut rows = Vec::new();
    let scan_stats = src
        .scan_batches_cancel(q, &ALL_MATCHES, &CancelToken::new(), &mut |b| b.materialize_into(&mut rows))
        .expect("scan");
    assert_eq!(rows, want);
    assert_eq!(account(&scan_stats), account(&seq_stats));
    let (filtered, filtered_stats) = src.filtered(q).expect("filtered");
    assert_eq!(filtered.events, want);
    assert_eq!(account(&filtered_stats), account(&seq_stats));
    seq_stats
}

/// A seeded mix of every event class with full-width fields — enough
/// events that 1 KiB chunks clear [`PARALLEL_MIN_CHUNKS`].
fn fixed_events() -> Vec<TraceEvent> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..4000u64)
        .map(|i| {
            let (cycles, core, r) = (i * 50 + rnd() % 40, (rnd() % 8) as usize, rnd());
            let counters = CounterSnapshot::from_values(std::array::from_fn(|_| rnd() >> 20));
            let payload = match i % 7 {
                0 => EventPayload::RegionEnter { region: RegionId((r % 9) as u32), counters },
                1 => EventPayload::RegionExit { region: RegionId((r % 9) as u32), counters },
                2 => EventPayload::CounterSample {
                    ip: Ip(r),
                    counters,
                    stack: (0..r % 4).map(|d| RegionId(d as u32)).collect(),
                },
                3 | 4 => EventPayload::Pebs {
                    sample: PebsSample {
                        timestamp: cycles,
                        core,
                        ip: r,
                        addr: rnd(),
                        size: 8,
                        is_store: r & 1 == 0,
                        latency: (r % 900) as u32,
                        source: MemLevel::L2,
                        tlb_miss: r & 2 == 0,
                    },
                    object: (r & 4 == 0).then_some(ObjectId((r % 30) as u32)),
                },
                5 => EventPayload::Alloc { base: r, size: 1 + rnd() % 4096, callsite: Ip(rnd()) },
                _ => EventPayload::User { kind: (r % 5) as u32, value: rnd() },
            };
            TraceEvent { cycles, core, payload }
        })
        .collect()
}

/// The queries the fixed cases run: nothing pruned, and a selective
/// mix of every pushed-down predicate.
fn fixed_queries() -> [Query; 2] {
    [
        Query::all(),
        Query::all()
            .with_kinds(&[EventClass::Pebs, EventClass::User])
            .on_cores(&[1, 2, 5])
            .in_time(20_000, 190_000),
    ]
}

/// Candidate chunks of `q` per file of `src`.
fn candidates_per_shard(src: &MpsSource, q: &Query) -> Vec<usize> {
    src.shards().map(|(_, r)| r.chunks().iter().filter(|m| m.may_match(q)).count()).collect()
}

/// The fixed cases, per container: the property above keeps every
/// trace under [`PARALLEL_MIN_CHUNKS`] chunks, so these are what
/// drive the real fan-out across shard boundaries.
#[test]
fn read_paths_agree_through_the_parallel_fan_out() {
    let events = fixed_events();
    for shards in [0, 4] {
        let path = write_container("fanout", 0, &events, shards);
        let mut src = MpsSource::open(&path).expect("open");
        for q in fixed_queries() {
            let per_shard = candidates_per_shard(&src, &q);
            let total: usize = per_shard.iter().sum();
            assert!(total >= PARALLEL_MIN_CHUNKS, "{shards} shards: only {total} candidates");
            if shards > 0 {
                assert!(per_shard.iter().filter(|&&n| n > 0).count() >= 3, "{per_shard:?}");
            }
            let want: Vec<TraceEvent> = events.iter().filter(|e| q.matches(e)).cloned().collect();
            assert!(!want.is_empty());
            let stats = assert_read_paths_agree(&mut src, &q, &want);
            assert_eq!((stats.chunks_decoded + stats.chunks_cached) as usize, total);
        }
        remove_container(&path);
    }
}

/// Salvage with one damaged chunk in a middle shard: every read path
/// drops exactly that chunk's events and counts it once.
#[test]
fn read_paths_agree_on_a_salvaged_middle_shard() {
    let events = fixed_events();
    let path = write_container("salvage", 0, &events, 4);
    let clean = MpsSource::open(&path).expect("open");
    let before: u64 = clean.shards().take(2).map(|(_, r)| r.num_events()).sum();
    let (victim_name, victim) = clean.shards().nth(2).expect("four shards");
    let damaged = &victim.chunks()[3];
    let lost_from =
        (before + victim.chunks()[..3].iter().map(|m| m.events as u64).sum::<u64>()) as usize;
    let mut survivors = events.clone();
    survivors.drain(lost_from..lost_from + damaged.events as usize);
    let victim_path = path.join(victim_name);
    let mut bytes = std::fs::read(&victim_path).unwrap();
    bytes[damaged.offset as usize + 5] ^= 0x20;
    drop(clean);
    std::fs::write(&victim_path, &bytes).unwrap();

    let mut src = MpsSource::open_with_options(&path, RecoveryMode::Salvage, true).expect("open");
    for q in fixed_queries() {
        let want: Vec<TraceEvent> = survivors.iter().filter(|e| q.matches(e)).cloned().collect();
        let stats = assert_read_paths_agree(&mut src, &q, &want);
        assert_eq!(stats.chunks_damaged, 1, "{stats:?}");
    }
    assert_eq!(src.damage_report().len(), 1, "{:?}", src.damage_report());
    remove_container(&path);
}

/// One paged scan: the rows handed out, the size of every non-empty
/// batch, and the stats.
fn paged_scan(
    src: &MpsSource,
    q: &Query,
    page: &std::ops::Range<usize>,
) -> std::io::Result<(Vec<TraceEvent>, Vec<usize>, ScanStats)> {
    let (mut rows, mut lens) = (Vec::new(), Vec::new());
    let stats = src.scan_batches_cancel(q, page, &CancelToken::new(), &mut |b| {
        if !b.is_empty() {
            lens.push(b.len());
        }
        b.materialize_into(&mut rows);
    })?;
    Ok((rows, lens, stats))
}

/// Every page of `q` over `src` is the slice `skip(offset).take(limit)`
/// of the unpaged answer `want`; the stats still account for the
/// whole scan; and payload is decoded for the page only — except for
/// an object query, whose matches are found *in* the payload.
fn assert_pages_are_slices(src: &MpsSource, q: &Query, want: &[TraceEvent]) {
    let (all, lens, whole) = paged_scan(src, q, &ALL_MATCHES).expect("scan");
    assert_eq!(all, want, "{q:?}");
    let n = all.len();
    assert!(lens.len() > 3, "{q:?}: matches per chunk {lens:?}");
    let pages = [
        0..0,
        0..lens[0] / 2,                          // inside the first chunk
        lens[0] / 2..lens[0],                    // up to its last match
        lens[0] - 1..lens[0] + lens[1] + 1,      // across three chunks
        lens[0] + lens[1]..lens[0] + lens[1] + lens[2], // exactly one later chunk
        n - 3..n + 10,                           // over the end
        n..n + 5,                                // past the total
        n + 100..usize::MAX,
        5..usize::MAX,
        0..n,
    ];
    for page in pages {
        let (rows, _, stats) = paged_scan(src, q, &page).expect("paged scan");
        let cut = page.start.min(n)..page.end.min(n);
        assert_eq!(rows, all[cut.clone()], "{q:?} page {page:?}");
        let account = |s: &ScanStats| {
            let visited = s.chunks_decoded + s.chunks_cached;
            (s.events_matched, s.events_scanned, s.chunks_skipped, visited, s.chunks_damaged)
        };
        assert_eq!(account(&stats), account(&whole), "{q:?} page {page:?}");
        let (paid, full) = (stats.payload_bytes_decoded, whole.payload_bytes_decoded);
        if q.object.is_some() || cut.len() == n {
            assert_eq!(paid, full, "{q:?} page {page:?}");
        } else {
            assert!(paid < full, "{q:?} page {page:?}: {paid} of {full} payload bytes");
            assert_eq!(paid == 0, cut.is_empty(), "{q:?} page {page:?}");
        }
    }
}

/// The fixed queries, the samples of one object, and one core's
/// samples.
fn paging_queries() -> Vec<Query> {
    let mut queries = fixed_queries().to_vec();
    queries.push(Query::all().touching_object(ObjectId(7)).in_time(0, 150_000).on_cores(&[0, 1, 2, 3, 4, 5, 6]));
    queries.push(Query::all().with_kinds(&[EventClass::Pebs]).on_cores(&[3]));
    queries
}

/// Page pushdown over a file and over shards, strict and salvage.
#[test]
fn pages_are_slices_of_the_scan_and_decode_less() {
    // Thirty object ids leave an object query a match every few
    // chunks: fold them to two, so its pages straddle chunks too.
    let mut events = fixed_events();
    for e in &mut events {
        if let EventPayload::Pebs { object: Some(o), .. } = &mut e.payload {
            *o = ObjectId(6 + o.0 % 2);
        }
    }
    for shards in [0, 4] {
        let path = write_container("paging", 0, &events, shards);
        for mode in [RecoveryMode::Strict, RecoveryMode::Salvage] {
            let src = MpsSource::open_with_options(&path, mode, true).expect("open");
            for q in paging_queries() {
                let want: Vec<TraceEvent> = events.iter().filter(|e| q.matches(e)).cloned().collect();
                assert_pages_are_slices(&src, &q, &want);
            }
        }
        remove_container(&path);
    }
}

/// A damaged chunk before, inside or after the page: a strict scan
/// fails whatever the page, a salvage scan pages over the survivors
/// — the damaged chunk adds nothing to the rows or to the count.
#[test]
fn pages_over_a_damaged_chunk() {
    let events = fixed_events();
    let q = Query::all().with_kinds(&[EventClass::Pebs, EventClass::User]);
    let path = write_container("paging_damage", 0, &events, 0);
    let clean_bytes = std::fs::read(&path).unwrap();
    let chunks = MpsSource::open(&path).unwrap().reader().unwrap().chunks().to_vec();
    let starts: Vec<usize> =
        chunks.iter().scan(0, |at, m| Some(std::mem::replace(at, *at + m.events as usize))).collect();
    let matches_before =
        |chunk: usize| events[..starts[chunk]].iter().filter(|e| q.matches(e)).count();
    // The page: the matches of chunks 10 and 11, less one row each end.
    let page = matches_before(10) + 1..matches_before(12) - 1;
    assert!(page.len() > 4, "{page:?}");

    for victim in [3usize, 11, 20] {
        let mut bytes = clean_bytes.clone();
        bytes[chunks[victim].offset as usize + 5] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        let strict = MpsSource::open(&path).expect("the footer is intact");
        for page in [page.clone(), 0..1, ALL_MATCHES] {
            let err = paged_scan(&strict, &q, &page).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "victim {victim} page {page:?}");
        }

        let mut survivors = events.clone();
        survivors.drain(starts[victim]..starts[victim] + chunks[victim].events as usize);
        let want: Vec<TraceEvent> = survivors.iter().filter(|e| q.matches(e)).cloned().collect();
        let salvage = MpsSource::open_with_options(&path, RecoveryMode::Salvage, true).unwrap();
        let (all, _, whole) = paged_scan(&salvage, &q, &ALL_MATCHES).unwrap();
        assert_eq!(all, want, "victim {victim}");
        let (rows, _, stats) = paged_scan(&salvage, &q, &page).unwrap();
        assert_eq!(rows, want[page.clone()], "victim {victim}");
        assert_eq!(stats.events_matched as usize, want.len(), "victim {victim}");
        assert_eq!((stats.chunks_damaged, whole.chunks_damaged), (1, 1), "victim {victim}");
        assert!(stats.payload_bytes_decoded < whole.payload_bytes_decoded, "victim {victim}");
        assert_eq!(salvage.damage_report().len(), 1, "{:?}", salvage.damage_report());
    }
    remove_container(&path);
}

/// Cancellation crosses file boundaries — the property the server's
/// 503 path rests on. A token cancelled up front stops the scan before
/// the sink runs once; a deadline that passes once the sink has seen
/// the first shard (the first half of a flat file) stops it at the
/// next chunk boundary, so the sink has seen whole chunks only.
#[test]
fn cancelled_scans_stop_at_the_next_chunk_boundary() {
    let events = fixed_events();
    for shards in [0, 4] {
        let path = write_container("cancel", 0, &events, shards);
        let src = MpsSource::open(&path).expect("open");
        let q = Query::all();

        let cancelled = CancelToken::new();
        cancelled.cancel();
        let mut calls = 0;
        let err = src.scan_batches_cancel(&q, &ALL_MATCHES, &cancelled, &mut |_| calls += 1).unwrap_err();
        assert_eq!((err.kind(), calls), (std::io::ErrorKind::Interrupted, 0));

        let (_, first) = src.shards().next().expect("a store has a file");
        let stop_after = if shards == 0 { first.chunks().len() / 2 } else { first.chunks().len() };
        let stop_events: usize = first.chunks()[..stop_after].iter().map(|m| m.events as usize).sum();
        assert!(stop_events > 0 && stop_events < events.len());
        let deadline = CancelToken::with_timeout(std::time::Duration::from_millis(300));
        let (mut batches, mut rows) = (0, Vec::new());
        let err = src
            .scan_batches_cancel(&q, &ALL_MATCHES, &deadline, &mut |b| {
                b.materialize_into(&mut rows);
                batches += 1;
                while batches == stop_after && !deadline.is_cancelled() {
                    std::thread::yield_now();
                }
            })
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{shards} shards: {err}");
        assert_eq!(batches, stop_after, "{shards} shards");
        assert_eq!(rows, events[..stop_events], "{shards} shards");
        remove_container(&path);
    }
}

proptest! {
    /// `decode(encode(chunk)) == chunk` for arbitrary event mixes:
    /// every payload kind, out-of-order timestamps (negative deltas),
    /// high core ids, full-width values.
    #[test]
    fn v4_codec_round_trips(events in prop::collection::vec(arb_event(), 0..200)) {
        let buf = encode_events_v4(&events).expect("encode v4");
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

    /// Every read path of a store equals the linear filter over the
    /// original events, for arbitrary traces, arbitrary predicates and
    /// either container (`shards == 0`: a flat `.mps`).
    #[test]
    fn query_equals_linear_filter(
        events in prop::collection::vec(arb_event(), 1..300),
        shards in 0usize..5,
        window in (any::<bool>(), 0u64..1 << 48, 0u64..1 << 16),
        kind_mask in any::<u8>(),
        cores in (any::<bool>(), prop::collection::vec(0usize..128, 1..4)),
        case in any::<u64>(),
    ) {
        let path = write_container("oracle", case, &events, shards);
        let mut src = MpsSource::open(&path).expect("open");
        prop_assert!(src.num_shards() <= shards.max(1));

        let mut q = Query::all().with_kinds(&kinds_from_mask(kind_mask));
        if window.0 {
            q = q.in_time(window.1, window.1.saturating_add(window.2));
        }
        if cores.0 {
            q = q.on_cores(&cores.1);
        }

        let want: Vec<TraceEvent> = events.iter().filter(|e| q.matches(e)).cloned().collect();
        assert_read_paths_agree(&mut src, &q, &want);
        remove_container(&path);
    }
}

//! Hostile-input tests for the `.mps` reader: truncations at every
//! byte boundary, random byte flips, and hand-crafted footers with
//! absurd length claims. `MpsSource::open` (and any query on a
//! source that survived `open`) must return descriptive errors —
//! never panic, and never allocate anywhere near the claimed sizes.

use mempersp_extrae::query::{EventClass, Query};
use mempersp_extrae::trace_source::TraceSource;
use mempersp_extrae::tracer::{Tracer, TracerConfig};
use mempersp_extrae::{EventBatch, RowView};
use mempersp_folding::{fold_regions_source, RegionRequest};
use mempersp_memsim::MemLevel;
use mempersp_pebs::{CounterSnapshot, PebsSample};
use mempersp_store::chunk::{ChunkMeta, Compression};
use mempersp_store::reader::RecoveryMode;
use mempersp_store::svb::SvbColumn;
use mempersp_store::writer::write_store_chunked;
use mempersp_store::{CancelToken, MpsSource, StoreReader, ALL_MATCHES};
use proptest::prelude::*;

fn trace(n: u64) -> mempersp_extrae::tracer::Trace {
    let mut t = Tracer::new(TracerConfig::default(), 2);
    let c = CounterSnapshot::from_values([9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2]);
    for i in 0..n {
        t.enter((i % 2) as usize, "R", c, i * 10);
        t.exit((i % 2) as usize, "R", c, i * 10 + 5);
    }
    t.finish("corruption test")
}

fn tmpdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mempersp_store_corrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A valid multi-chunk store file's bytes, built once per test.
fn valid_store_bytes() -> Vec<u8> {
    let path = tmpdir().join(format!("valid_{:?}.mps", std::thread::current().id()));
    write_store_chunked(&path, &trace(400), 1024).expect("write");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    bytes
}

/// The same file behind the magic of a format this build no longer
/// reads: nothing after the version byte may be interpreted.
fn old_magic_store_bytes() -> Vec<u8> {
    let mut bytes = valid_store_bytes();
    bytes[7] = b'3';
    bytes
}

fn open_bytes(name: &str, bytes: &[u8]) -> std::io::Result<MpsSource> {
    let path = tmpdir().join(name);
    std::fs::write(&path, bytes).unwrap();
    let r = MpsSource::open(&path);
    std::fs::remove_file(&path).ok();
    r
}

/// Every proper prefix of a store file must fail `open` with a
/// descriptive error — the trailer is the last thing written, so a
/// truncated file is by construction unsealed. This sweeps *every*
/// byte boundary, which subsumes the interesting ones (mid-chunk,
/// mid-header, mid-index, mid-trailer).
#[test]
fn open_rejects_truncation_at_every_byte() {
    let bytes = valid_store_bytes();
    assert!(bytes.len() > 1000, "want a multi-chunk file, got {} bytes", bytes.len());
    for len in 0..bytes.len() {
        let err = match open_bytes("trunc.mps", &bytes[..len]) {
            Ok(_) => panic!("open accepted a {len}-of-{} byte prefix", bytes.len()),
            Err(e) => e,
        };
        assert!(!err.to_string().is_empty(), "error at prefix {len} must describe itself");
    }
    // ... and the untruncated file still opens.
    open_bytes("trunc.mps", &bytes).expect("full file opens");

    // An old-format file is refused at every length, the whole file
    // included, and by name as soon as the magic is complete.
    let old = old_magic_store_bytes();
    for len in 0..=old.len() {
        let err = match open_bytes("trunc_old.mps", &old[..len]) {
            Ok(_) => panic!("open accepted a {len}-byte prefix of a v3 store"),
            Err(e) => e,
        };
        assert!(len < 8 || err.to_string().contains("v3 is no longer supported"), "{len}: {err}");
    }
}

/// A footer that claims a gigantic raw chunk payload must be rejected
/// at `open` — long before anything tries to allocate it.
#[test]
fn open_rejects_absurd_chunk_raw_len() {
    let mut meta = ChunkMeta::summarize(&[]);
    meta.offset = CRAFTED_PAYLOAD_OFF;
    meta.stored_len = 4;
    meta.raw_len = u32::MAX; // 4 GiB claim in a 100-byte file
    meta.compression = Compression::Lz;
    meta.events = 10;
    let err = match open_crafted(meta, 0) {
        Ok(_) => panic!("must reject"),
        Err(e) => e,
    };
    let msg = err.to_string();
    assert!(msg.contains("raw payload"), "undescriptive error: {msg}");
}

/// Same for a header blob length claim.
#[test]
fn open_rejects_absurd_header_len() {
    let mut meta = ChunkMeta::summarize(&[]);
    meta.offset = CRAFTED_PAYLOAD_OFF;
    meta.stored_len = 4;
    meta.raw_len = 4;
    meta.events = 1;
    let err = match open_crafted(meta, 1 << 40) {
        Ok(_) => panic!("must reject"),
        Err(e) => e,
    };
    let msg = err.to_string();
    assert!(msg.contains("header blob"), "undescriptive error: {msg}");
}

/// Where [`open_crafted`] puts its chunk payload: behind the magic and
/// one frame.
const CRAFTED_PAYLOAD_OFF: u64 = (8 + mempersp_store::FRAME_LEN) as u64;

/// Build a file with the store magic, a junk frame + 4 bytes of junk
/// chunk payload, an empty header, one crafted [`ChunkMeta`], and a
/// well-formed, correctly checksummed footer and trailer — so the
/// claims in the index are what `open` has to judge.
fn open_crafted(meta: ChunkMeta, header_raw_len: u64) -> std::io::Result<MpsSource> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(mempersp_store::writer::MAGIC);
    bytes.extend_from_slice(&[0xAA; mempersp_store::FRAME_LEN + 4]); // "frame" + "payload"
    let header_off = bytes.len() as u64;
    bytes.extend_from_slice(&[0; 5]); // raw header compression code + CRC field
    let index_off = bytes.len() as u64;
    let mut index = Vec::new();
    mempersp_store::varint::put_u64(&mut index, 1); // one chunk
    meta.encode(&mut index);
    mempersp_store::varint::put_u64(&mut index, header_off);
    mempersp_store::varint::put_u64(&mut index, header_raw_len);
    mempersp_store::varint::put_u64(&mut index, 0); // stored header len
    bytes.extend_from_slice(&index);
    bytes.extend_from_slice(&index_off.to_le_bytes());
    bytes.extend_from_slice(&mempersp_store::crc32c(&index).to_le_bytes());
    bytes.extend_from_slice(mempersp_store::writer::TRAILER_MAGIC);
    open_bytes("crafted.mps", &bytes)
}

/// Build a fresh 3-shard store directory for a hostile-input test.
fn sharded_store(name: &str, iters: u64) -> (std::path::PathBuf, mempersp_extrae::tracer::Trace) {
    let dir = tmpdir().join(format!("{name}_{:?}.mps.d", std::thread::current().id()));
    std::fs::remove_dir_all(&dir).ok();
    let t = trace(iters);
    let per_shard = (t.events.len() as u64).div_ceil(3);
    mempersp_store::write_store_sharded(&dir, &t, 1024, per_shard).expect("write sharded");
    (dir, t)
}

/// A flipped payload byte in one shard: a strict query must error
/// descriptively; a salvage query must skip exactly the damaged chunk
/// and keep every other shard's events, naming the culprit shard.
#[test]
fn sharded_flip_one_shard_strict_errors_salvage_recovers_rest() {
    let (dir, t) = sharded_store("flip1", 600);
    let victim = dir.join("shard-0001.mps");
    let lost = StoreReader::open(&victim).unwrap().chunks()[0].events as usize;
    let mut bytes = std::fs::read(&victim).unwrap();
    let at = 8 + mempersp_store::FRAME_LEN + 3; // inside chunk 0's payload
    bytes[at] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();

    let strict = MpsSource::open(&dir).expect("strict open is lazy about payloads");
    let err = match strict.query(&Query::all()) {
        Ok(_) => panic!("strict query must refuse a corrupt chunk"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(!err.to_string().is_empty());

    let salvage =
        MpsSource::open_with_options(&dir, RecoveryMode::Salvage, true).unwrap();
    let (events, stats) = salvage.query(&Query::all()).unwrap();
    assert_eq!(stats.chunks_damaged, 1);
    assert_eq!(events.len(), t.events.len() - lost, "salvage must lose exactly one chunk");
    let report = salvage.damage_report();
    assert!(report.iter().any(|d| d.contains("shard-0001")), "{report:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A deleted shard: strict open names the missing file; salvage opens
/// the survivors and returns their events (a prefix + a suffix of the
/// original stream).
#[test]
fn sharded_deleted_shard_strict_errors_salvage_keeps_survivors() {
    let (dir, t) = sharded_store("del1", 600);
    let survivors: u64 = ["shard-0000.mps", "shard-0002.mps"]
        .iter()
        .map(|n| StoreReader::open(&dir.join(n)).unwrap().num_events())
        .sum();
    std::fs::remove_file(dir.join("shard-0001.mps")).unwrap();

    let err = match MpsSource::open(&dir) {
        Ok(_) => panic!("strict open must fail on a missing shard"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("shard-0001"), "undescriptive: {err}");

    let salvage =
        MpsSource::open_with_options(&dir, RecoveryMode::Salvage, true).unwrap();
    let (events, _) = salvage.query(&Query::all()).unwrap();
    assert_eq!(events.len() as u64, survivors);
    let head = StoreReader::open(&dir.join("shard-0000.mps")).unwrap().num_events() as usize;
    assert_eq!(events[..head], t.events[..head], "surviving prefix must be intact");
    assert_eq!(
        events[head..],
        t.events[t.events.len() - (events.len() - head)..],
        "surviving suffix must be intact"
    );
    assert!(salvage.damage_report().iter().any(|d| d.contains("shard-0001")));
    std::fs::remove_dir_all(&dir).ok();
}

/// A manifest that lies about a shard's event count: strict open
/// refuses; salvage notes the mismatch and still serves every event.
#[test]
fn sharded_manifest_mismatch_strict_errors_salvage_notes_it() {
    let (dir, t) = sharded_store("lie1", 600);
    let manifest_path = dir.join(mempersp_store::shard::MANIFEST_NAME);
    let manifest = std::fs::read_to_string(&manifest_path).unwrap();
    let doctored: String = manifest
        .lines()
        .map(|l| {
            if l.starts_with("shard-0001") {
                "shard-0001.mps 999999\n".to_string()
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    std::fs::write(&manifest_path, doctored).unwrap();

    let err = match MpsSource::open(&dir) {
        Ok(_) => panic!("strict open must fail on a manifest mismatch"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("manifest says"), "undescriptive: {err}");

    let salvage =
        MpsSource::open_with_options(&dir, RecoveryMode::Salvage, true).unwrap();
    let (events, _) = salvage.query(&Query::all()).unwrap();
    assert_eq!(events, t.events, "a lying manifest must not cost any data");
    assert!(salvage.damage_report().iter().any(|d| d.contains("manifest says")));
    std::fs::remove_dir_all(&dir).ok();
}

/// A foldable trace with every event class and high-entropy payloads
/// (so chunks stay Raw and a byte of the file is a byte of a column).
fn rich_trace(iters: u64) -> mempersp_extrae::tracer::Trace {
    let mut t = Tracer::new(TracerConfig::default(), 2);
    let ip = t.location("k.cpp", 7, "k");
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut c = [0u64; 12];
    let mut snap = |r: u64| {
        for (i, v) in c.iter_mut().enumerate() {
            *v += 1 + (r >> (4 * i)) % 1000;
        }
        CounterSnapshot::from_values(c)
    };
    for i in 0..iters {
        let core = (i % 2) as usize;
        let now = i * 100;
        t.enter(core, "R", snap(rnd()), now);
        t.record_counter_sample(core, ip, snap(rnd()), now + 20);
        let r = rnd();
        t.record_pebs(PebsSample {
            timestamp: now + 40,
            core,
            ip: ip.0,
            addr: r >> 8,
            size: 8,
            is_store: r & 1 == 0,
            latency: (r % 400) as u32,
            source: MemLevel::L3,
            tlb_miss: r & 2 == 0,
        });
        if i % 16 == 0 {
            t.record_mux_switch(core, (i % 4) as usize, "loads", now + 50);
        }
        t.user_event(core, 3, rnd(), now + 60);
        t.exit(core, "R", snap(rnd()), now + 80);
    }
    t.finish("rich corruption trace")
}

/// Where three columns of a raw v4 chunk sit in the file, which chunk
/// it is, and its last byte — User is the last class stream and
/// `value` its last column, so that is a data byte of a User value.
struct ColumnOffsets {
    chunk: usize,
    first_tag: usize,
    first_pebs_level: usize,
    first_stack_len_data: usize,
    last_user_value_data: usize,
}

/// Write `rich_trace` as a v4 store and locate columns of its first
/// raw chunk holding PEBS and counter samples.
fn rich_store(name: &str) -> (std::path::PathBuf, ColumnOffsets) {
    let path = tmpdir().join(name);
    write_store_chunked(&path, &rich_trace(300), 1024).expect("write");
    let reader = StoreReader::open(&path).unwrap();
    assert_eq!(reader.format_version(), 4);
    let (chunk_idx, m) = reader
        .chunks()
        .iter()
        .enumerate()
        .find(|(_, m)| m.compression == Compression::Raw)
        .expect("high-entropy chunks stay raw");
    let bytes = std::fs::read(&path).unwrap();
    let chunk = &bytes[m.offset as usize..(m.offset + m.stored_len as u64) as usize];
    let n = m.events as usize;

    // 10 section lengths (deltas, cores, 8 class streams), then tags.
    let mut pos = 0usize;
    let lens: Vec<usize> =
        (0..10).map(|_| mempersp_store::varint::get_u64(chunk, &mut pos).unwrap() as usize).collect();
    let tags = &chunk[pos..pos + n];
    let count = |k: EventClass| tags.iter().filter(|&&t| t == k as u8).count();
    let stream_start = |k: EventClass| pos + n + lens[..2 + k as usize].iter().sum::<usize>();

    // PEBS stream: flags[n], ip, addr, size, latency, then level[n].
    let (np, start) = (count(EventClass::Pebs), stream_start(EventClass::Pebs));
    let sec = &chunk[start..start + lens[2 + EventClass::Pebs as usize]];
    let mut p = np;
    for _ in 0..4 {
        SvbColumn::parse(sec, &mut p, np).unwrap();
    }
    let first_pebs_level = m.offset as usize + start + p;

    // SAMP stream: ip, 12 counters, then stack_len (control bytes
    // first, data after).
    let (ns, start) = (count(EventClass::CounterSample), stream_start(EventClass::CounterSample));
    let sec = &chunk[start..start + lens[2 + EventClass::CounterSample as usize]];
    let mut p = 0usize;
    for _ in 0..13 {
        SvbColumn::parse(sec, &mut p, ns).unwrap();
    }
    let first_stack_len_data = m.offset as usize + start + p + ns.div_ceil(4);
    assert!(np > 0 && ns > 0 && count(EventClass::User) > 0);
    let offsets = ColumnOffsets {
        chunk: chunk_idx,
        first_tag: m.offset as usize + pos,
        first_pebs_level,
        first_stack_len_data,
        last_user_value_data: (m.offset + m.stored_len as u64) as usize - 1,
    };
    (path, offsets)
}

fn corrupt(path: &std::path::Path, at: usize, value: u8) {
    let mut bytes = std::fs::read(path).unwrap();
    assert_ne!(bytes[at], value);
    bytes[at] = value;
    std::fs::write(path, bytes).unwrap();
}

/// A fold over `path` with checksum verification off, so the corrupt
/// bytes reach the decoder.
fn unverified_fold(
    path: &std::path::Path,
    mode: RecoveryMode,
) -> std::io::Result<mempersp_extrae::trace_source::ScanStats> {
    let mut src = MpsSource::open_with_options(path, mode, false).expect("open is lazy");
    fold_regions_source(&mut src, &[RegionRequest::new("R")], 1).map(|(results, stats)| {
        assert!(results[0].is_ok(), "{:?}", results[0].as_ref().err());
        stats
    })
}

/// Corrupt columns the CRC would normally shield — a PEBS level byte,
/// an event tag, a stack length — and read with verification off: the
/// new batch path must describe the damage in Strict mode and skip
/// exactly the damaged chunk in Salvage mode.
#[test]
fn corrupt_v4_columns_fail_a_strict_fold_and_are_skipped_by_salvage() {
    type Pick = fn(&ColumnOffsets) -> usize;
    let cases: [(&str, Pick, u8, &str); 3] = [
        ("level.mps", |o| o.first_pebs_level, 9, "bad memory level code 9"),
        ("tag.mps", |o| o.first_tag, 0xEE, "unknown event tag 238"),
        ("stack.mps", |o| o.first_stack_len_data, 0xFF, "chunk"),
    ];
    for (name, pick, value, expect) in cases {
        let (path, offsets) = rich_store(name);
        let clean = unverified_fold(&path, RecoveryMode::Strict).expect("clean store folds");
        assert_eq!(clean.chunks_damaged, 0);
        corrupt(&path, pick(&offsets), value);

        match unverified_fold(&path, RecoveryMode::Strict) {
            Err(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{name}: {e}");
                assert!(e.to_string().contains(expect), "{name}: {e}");
            }
            other => panic!("{name}: strict fold must fail with an I/O error, got {other:?}"),
        }
        let salvaged = unverified_fold(&path, RecoveryMode::Salvage).expect("salvage folds the rest");
        // The damaged chunk is met by the boundary scan, the sample
        // scan, or both — once per scan that decodes the bad column.
        assert!((1..=2).contains(&salvaged.chunks_damaged), "{name}: {salvaged:?}");
        assert!(salvaged.events_matched < clean.events_matched, "{name}");
        std::fs::remove_file(&path).ok();
    }
}

/// One flipped payload byte under checksum verification: a Salvage
/// fold reports the damaged chunk in the stats it returns and in the
/// `--stats` line the CLI prints from them. (The boundary scan meets
/// the bad chunk; having lost its instances, the sample scan's time
/// window starts after it.)
#[test]
fn salvage_fold_counts_the_damaged_chunk() {
    let (path, offsets) = rich_store("salvage_fold.mps");
    corrupt(&path, offsets.first_pebs_level, 9);
    let mut src = MpsSource::open_with_options(&path, RecoveryMode::Salvage, true).unwrap();
    let (results, stats) = fold_regions_source(&mut src, &[RegionRequest::new("R")], 1).unwrap();
    assert!(results[0].is_ok());
    assert_eq!(stats.chunks_damaged, 1, "{stats:?}");
    assert!(stats.to_string().ends_with(", 1 DAMAGED"), "{stats}");
    assert_eq!(src.damage_report().len(), 1);
    std::fs::remove_file(&path).ok();
}

/// `--no-verify` is an escape hatch for queries, not for `fsck`: a
/// flipped data byte that still decodes sails through a query on a
/// reader opened with `verify = false`, but `verify_all` checks every
/// CRC whatever the reader was told, and names the chunk.
#[test]
fn verify_all_checks_crcs_the_reader_was_told_to_skip() {
    let (path, offsets) = rich_store("noverify_fsck.mps");
    let (clean, _) = MpsSource::open(&path).unwrap().query(&Query::all()).unwrap();
    let original = std::fs::read(&path).unwrap()[offsets.last_user_value_data];
    corrupt(&path, offsets.last_user_value_data, original ^ 0x01);

    let src = MpsSource::open_with_options(&path, RecoveryMode::Strict, false).unwrap();
    let (events, stats) = src.query(&Query::all()).expect("the flipped value still decodes");
    assert_eq!((events.len(), stats.chunks_damaged), (clean.len(), 0));
    assert_ne!(events, clean, "the flip must have reached a decoded value");
    let damage = src.reader().expect("single file").verify_all();
    assert_eq!(damage.len(), 1, "{damage:?}");
    assert_eq!(damage[0].chunk, Some(offsets.chunk));
    assert!(damage[0].reason.contains("payload checksum mismatch"), "{}", damage[0].reason);
    std::fs::remove_file(&path).ok();
}

/// Read every field every typed row view offers.
fn touch_every_accessor(batch: &EventBatch<'_>) {
    let mut sink = 0u64;
    for row in batch.rows() {
        sink ^= row.cycles ^ row.core as u64;
        match row.view {
            RowView::Boundary(b) => sink ^= u64::from(b.region().0) ^ b.counters().values()[11],
            RowView::Sample(s) => sink ^= s.ip().0 ^ s.counters().values()[0],
            RowView::Pebs(p) => {
                sink ^= p.sample().addr ^ u64::from(p.object().map_or(0, |o| o.0));
            }
            RowView::Other(_) => {}
        }
    }
    std::hint::black_box(sink);
    batch.materialize_into(&mut Vec::new());
}

proptest! {
    /// Arbitrary byte flips anywhere in the file: `open` may succeed
    /// or fail, but neither it nor a subsequent full query / scan may
    /// panic, and errors must carry a message.
    #[test]
    fn byte_flips_never_panic(
        flips in prop::collection::vec((0usize..usize::MAX, 1u8..=255), 1..8),
        case in any::<u64>(),
    ) {
        // The second input leads with an old format's magic; a flip
        // there can only turn it into another bad magic or the real one.
        for mut bytes in [valid_store_bytes(), old_magic_store_bytes()] {
            for &(pos, xor) in &flips {
                let len = bytes.len();
                bytes[pos % len] ^= xor;
            }
            match open_bytes(&format!("flip_{case}.mps"), &bytes) {
                Err(e) => prop_assert!(!e.to_string().is_empty()),
                Ok(mut src) => {
                    // The flip may have landed in a payload: decoding must
                    // surface it as Err, never as a panic.
                    let q = Query::all().with_kinds(&[EventClass::RegionEnter]);
                    let _ = src.query(&q);
                    let _ = src.materialize();
                }
            }
        }
    }

    /// Byte flips with checksum verification **off**, so they reach
    /// the column decoder and the batch: whatever survives
    /// `EventBatch::new` must be readable through every accessor, in
    /// either recovery mode, and a fold must end in `Ok` or `Err`.
    #[test]
    fn byte_flips_never_panic_unverified_batches(
        flips in prop::collection::vec((0usize..usize::MAX, 1u8..=255), 1..6),
        case in any::<u64>(),
    ) {
        let path = tmpdir().join(format!("flip_batch_{case}.mps"));
        write_store_chunked(&path, &rich_trace(120), 1024).expect("write");
        let mut bytes = std::fs::read(&path).unwrap();
        // Keep the flips inside the chunk region: header and footer
        // damage is `open`'s business, covered above.
        let data_end = StoreReader::open(&path).unwrap().chunks().last().map_or(8, |m| m.offset as usize);
        for (pos, xor) in flips {
            bytes[8 + pos % (data_end - 8)] ^= xor;
        }
        std::fs::write(&path, &bytes).unwrap();
        for mode in [RecoveryMode::Strict, RecoveryMode::Salvage] {
            let Ok(mut src) = MpsSource::open_with_options(&path, mode, false) else { continue };
            for q in [
                Query::all(),
                Query::all().with_kinds(&[EventClass::Pebs]).in_time(500, 9_000),
                Query::all().touching_object(mempersp_extrae::ObjectId(0)),
                Query::all().on_cores(&[1]).with_kinds(&[EventClass::CounterSample, EventClass::MuxSwitch]),
            ] {
                let _ = src.scan_batches_cancel(&q, &ALL_MATCHES, &CancelToken::new(), &mut touch_every_accessor);
            }
            let _ = fold_regions_source(&mut src, &[RegionRequest::new("R")], 2);
            let _ = src.materialize();
        }
        std::fs::remove_file(&path).ok();
    }

    /// Truncation combined with a flip — the unsealed-file error path
    /// must hold whatever the flipped byte was.
    #[test]
    fn truncate_then_flip_never_panics(
        cut in 0usize..usize::MAX,
        flip in (0usize..usize::MAX, 1u8..=255),
        case in any::<u64>(),
    ) {
        let mut bytes = valid_store_bytes();
        bytes.truncate(cut % bytes.len());
        if !bytes.is_empty() {
            let len = bytes.len();
            bytes[flip.0 % len] ^= flip.1;
        }
        if let Ok(mut src) = open_bytes(&format!("cutflip_{case}.mps"), &bytes) {
            let _ = src.materialize();
        }
    }
}

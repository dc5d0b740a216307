//! Multi-file sharding: one logical trace spread over
//! `trace.mps.d/shard-NNNN.mps`.
//!
//! A single `.mps` file is fine up to a few gigabytes, but one file is
//! one mapping, one footer and one writer pipeline. Long runs instead
//! roll a fresh shard every `events_per_shard` events:
//!
//! ```text
//! trace.mps.d/
//!   manifest.txt      MPSHARD1 + one "name events" line per shard
//!   shard-0000.mps    an ordinary self-contained store file
//!   shard-0001.mps
//!   ...
//! ```
//!
//! Every shard is a complete store — same magic, chunks, header blob
//! and footer — so existing tooling can open one shard directly, and
//! a sharded trace survives losing its siblings. The manifest pins
//! shard order and per-shard event counts; [`ShardedReader::open`]
//! re-validates the counts against each shard's own footer.
//!
//! # Crash consistency
//!
//! Each shard finalizes atomically (tmp + fsync + rename, see
//! [`crate::writer`]), and the manifest is committed the same way,
//! **last**. A crashed sharded write therefore leaves either no
//! manifest (the directory is visibly unfinished — salvage can still
//! dir-scan the shards) or a manifest whose every named shard is a
//! fully finalized store. [`ShardedReader::open_with_mode`] in
//! [`RecoveryMode::Salvage`] survives a missing or lying manifest, a
//! corrupted shard, or a deleted shard: the broken pieces are skipped
//! and reported, the healthy shards' events come back in shard order.
//!
//! [`ShardedWriter`] keeps at most one compression pipeline active:
//! rolling a shard drains its in-flight chunks
//! ([`StoreWriter`]'s `seal_events`) but leaves the footer unwritten —
//! the header (symbols, objects, region names) is only complete at the
//! end of the run, at which point [`ShardedWriter::finish`] writes
//! every shard's footer and the manifest.
//!
//! [`ShardedReader`] fans queries out across shards on scoped worker
//! threads and concatenates per-shard results in shard order, so a
//! sharded query returns exactly what the unsharded one would.

use crate::cache::{CacheConfig, CacheStats};
use crate::cancel::CancelToken;
use crate::reader::{RecoveryMode, StoreReader};
use crate::writer::{sync_parent_dir, tmp_path, StoreSummary, StoreWriter, WriterOptions};
use mempersp_extrae::batch::EventBatch;
use mempersp_extrae::events::TraceEvent;
use mempersp_extrae::query::Query;
use mempersp_extrae::stream_writer::EventSink;
use mempersp_extrae::trace_source::ScanStats;
use mempersp_extrae::tracer::Trace;
use std::io;
use std::path::{Path, PathBuf};

/// Conventional suffix of a sharded-trace directory.
pub const SHARD_DIR_SUFFIX: &str = ".mps.d";
/// Manifest file name inside the shard directory.
pub const MANIFEST_NAME: &str = "manifest.txt";
/// First line of the manifest.
const MANIFEST_MAGIC: &str = "MPSHARD1";
/// Default shard roll threshold.
pub const DEFAULT_EVENTS_PER_SHARD: u64 = 16_000_000;

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn shard_name(i: usize) -> String {
    format!("shard-{i:04}.mps")
}

/// Does `path` look like a sharded trace (a directory with a
/// manifest)?
pub fn is_shard_dir(path: &Path) -> bool {
    path.is_dir() && path.join(MANIFEST_NAME).is_file()
}

/// Writer of a sharded logical trace.
pub struct ShardedWriter {
    dir: PathBuf,
    /// Options of every shard's [`StoreWriter`].
    opts: WriterOptions,
    events_per_shard: u64,
    /// Every shard opened so far; footers are written at `finish`,
    /// when the header is finally known.
    shards: Vec<(String, StoreWriter)>,
    /// Events appended to the currently open shard.
    current_events: u64,
    finished: bool,
}

impl ShardedWriter {
    /// Create `dir` (the `trace.mps.d` directory) and a writer that
    /// rolls a new shard, each written with `opts`, every
    /// `events_per_shard` events.
    pub fn new(dir: &Path, opts: WriterOptions, events_per_shard: u64) -> io::Result<ShardedWriter> {
        std::fs::create_dir_all(dir).map_err(|e| {
            io::Error::new(e.kind(), format!("creating shard dir {}: {e}", dir.display()))
        })?;
        Ok(ShardedWriter {
            dir: dir.to_path_buf(),
            opts,
            events_per_shard: events_per_shard.max(1),
            shards: Vec::new(),
            current_events: 0,
            finished: false,
        })
    }

    fn open_shard(&mut self) -> io::Result<()> {
        let name = shard_name(self.shards.len());
        let w = StoreWriter::new(&self.dir.join(&name), self.opts)?;
        self.shards.push((name, w));
        self.current_events = 0;
        Ok(())
    }

    /// Append one event, rolling to a fresh shard at the threshold.
    pub fn append(&mut self, event: &TraceEvent) -> io::Result<()> {
        assert!(!self.finished, "append after finish");
        if self.shards.is_empty() || self.current_events >= self.events_per_shard {
            if let Some((_, w)) = self.shards.last_mut() {
                // Drain the outgoing shard's pipeline so only one
                // compressor pool is ever alive.
                w.seal_events()?;
            }
            self.open_shard()?;
        }
        let (_, w) = self.shards.last_mut().expect("shard just opened");
        w.append(event)?;
        self.current_events += 1;
        Ok(())
    }

    /// Shards opened so far (including the in-progress one).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Write every shard's header blob + footer and the manifest.
    pub fn finish(&mut self, trace_for_header: &Trace) -> io::Result<StoreSummary> {
        assert!(!self.finished, "finish called twice");
        if self.shards.is_empty() {
            // Even an empty trace keeps its header queryable.
            self.open_shard()?;
        }
        let mut total = StoreSummary { events: 0, chunks: 0, raw_bytes: 0, stored_bytes: 0 };
        let mut manifest = String::from(MANIFEST_MAGIC);
        manifest.push('\n');
        for (name, w) in &mut self.shards {
            let s = w.finish(trace_for_header)?;
            total.events += s.events;
            total.chunks += s.chunks;
            total.raw_bytes += s.raw_bytes;
            total.stored_bytes += s.stored_bytes;
            manifest.push_str(&format!("{name} {}\n", s.events));
        }
        // The manifest commits the whole directory, so it goes last
        // and atomically: a crash before this point leaves finalized
        // shards but no manifest (visibly unfinished); a crash during
        // the rename leaves either the old state or the new one.
        let manifest_path = self.dir.join(MANIFEST_NAME);
        let tmp = tmp_path(&manifest_path);
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(manifest.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &manifest_path)?;
        sync_parent_dir(&manifest_path)?;
        self.finished = true;
        Ok(total)
    }
}

impl EventSink for ShardedWriter {
    fn append_event(&mut self, event: &TraceEvent) -> io::Result<()> {
        self.append(event)
    }

    fn finish(&mut self, trace_for_header: &Trace) -> io::Result<()> {
        ShardedWriter::finish(self, trace_for_header).map(|_| ())
    }
}

/// Write a complete in-memory trace as a sharded store.
pub fn write_store_sharded(
    dir: &Path,
    trace: &Trace,
    chunk_target: usize,
    threads: usize,
    events_per_shard: u64,
) -> io::Result<StoreSummary> {
    let opts = WriterOptions { chunk_target, threads, max_inflight: None };
    let mut w = ShardedWriter::new(dir, opts, events_per_shard)?;
    for e in &trace.events {
        w.append(e)?;
    }
    w.finish(trace)
}

/// A sharded trace opened for querying: one [`StoreReader`] (mapping,
/// block cache, decode counters) per shard.
pub struct ShardedReader {
    shards: Vec<StoreReader>,
    shard_names: Vec<String>,
    /// Directory-level salvage notes (bad manifest, unopenable
    /// shards, count mismatches).
    notes: Vec<String>,
}

/// Parse the manifest into `(shard name, expected events)` pairs.
fn parse_manifest(dir: &Path) -> io::Result<Vec<(String, u64)>> {
    let manifest_path = dir.join(MANIFEST_NAME);
    let manifest = std::fs::read_to_string(&manifest_path).map_err(|e| {
        io::Error::new(e.kind(), format!("reading {}: {e}", manifest_path.display()))
    })?;
    let mut lines = manifest.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(bad_data(format!(
            "{}: not a shard manifest (expected {MANIFEST_MAGIC})",
            manifest_path.display()
        )));
    }
    let mut entries = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (name, events) = line.split_once(' ').ok_or_else(|| {
            bad_data(format!("{}: malformed manifest line {:?}", manifest_path.display(), line))
        })?;
        let events: u64 = events.parse().map_err(|_| {
            bad_data(format!("{}: bad event count in {:?}", manifest_path.display(), line))
        })?;
        if name.contains('/') || name.contains("..") {
            return Err(bad_data(format!(
                "{}: shard name {name:?} escapes the directory",
                manifest_path.display()
            )));
        }
        entries.push((name.to_string(), events));
    }
    Ok(entries)
}

/// Salvage fallback when the manifest is missing or lying: every
/// plausible shard file in the directory, in name order (which is
/// creation order — shard names are zero-padded). Includes `.tmp`
/// shards a killed run left behind; the forward scan recovers their
/// complete chunks.
fn scan_shard_dir(dir: &Path) -> io::Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("shard-") && (name.ends_with(".mps") || name.ends_with(".mps.tmp")) {
            names.push(name.to_string());
        }
    }
    names.sort();
    Ok(names)
}

impl ShardedReader {
    /// Open with the default per-shard cache configuration.
    pub fn open(dir: &Path) -> io::Result<ShardedReader> {
        Self::open_with(dir, CacheConfig::default())
    }

    /// Open with explicit per-shard cache sizing, strict mode.
    pub fn open_with(dir: &Path, cache: CacheConfig) -> io::Result<ShardedReader> {
        Self::open_with_mode(dir, cache, RecoveryMode::Strict)
    }

    /// Open with an explicit [`RecoveryMode`]. Strict fails on the
    /// first inconsistency. Salvage opens what it can: a missing or
    /// corrupt manifest falls back to a directory scan, unopenable
    /// shards are skipped with a note, event-count mismatches are
    /// noted but tolerated — one bad shard never takes down the rest.
    pub fn open_with_mode(
        dir: &Path,
        cache: CacheConfig,
        mode: RecoveryMode,
    ) -> io::Result<ShardedReader> {
        let mut notes = Vec::new();
        let entries: Vec<(String, Option<u64>)> = match parse_manifest(dir) {
            Ok(entries) => entries.into_iter().map(|(n, e)| (n, Some(e))).collect(),
            Err(e) if mode == RecoveryMode::Salvage => {
                notes.push(format!("manifest unusable ({e}); scanning directory for shards"));
                scan_shard_dir(dir)?.into_iter().map(|n| (n, None)).collect()
            }
            Err(e) => return Err(e),
        };
        let mut shards = Vec::new();
        let mut shard_names = Vec::new();
        for (i, (name, expected)) in entries.iter().enumerate() {
            let reader = match StoreReader::open_with_mode(&dir.join(name), cache, mode) {
                Ok(r) => r,
                Err(e) if mode == RecoveryMode::Salvage => {
                    notes.push(format!("shard {i} ({name}) unreadable, skipped: {e}"));
                    continue;
                }
                Err(e) => {
                    return Err(io::Error::new(e.kind(), format!("shard {i} ({name}): {e}")))
                }
            };
            if let Some(events) = *expected {
                if reader.num_events() != events {
                    let msg = format!(
                        "shard {i} ({name}) has {} events, manifest says {events}",
                        reader.num_events()
                    );
                    if mode == RecoveryMode::Salvage {
                        notes.push(msg);
                    } else {
                        return Err(bad_data(format!("{}: {msg}", dir.display())));
                    }
                }
            }
            shards.push(reader);
            shard_names.push(name.clone());
        }
        if shards.is_empty() {
            return Err(bad_data(match mode {
                RecoveryMode::Salvage => {
                    format!("{}: no readable shards ({})", dir.display(), notes.join("; "))
                }
                RecoveryMode::Strict => format!("{}: manifest lists no shards", dir.display()),
            }));
        }
        Ok(ShardedReader { shards, shard_names, notes })
    }

    /// Every defect diagnosed so far: directory-level salvage notes
    /// plus each shard's own damage report, prefixed with the shard
    /// name.
    pub fn damage_report(&self) -> Vec<String> {
        let mut all = self.notes.clone();
        for (name, s) in self.shard_names.iter().zip(&self.shards) {
            for d in s.damage_report() {
                all.push(format!("{name}: {d}"));
            }
        }
        all
    }

    /// The per-shard readers, in shard order (for fsck-style deep
    /// verification).
    pub fn shard_readers(&self) -> impl Iterator<Item = (&str, &StoreReader)> {
        self.shard_names.iter().map(String::as_str).zip(self.shards.iter())
    }

    /// Toggle lazy payload-CRC verification on every shard.
    pub fn set_verify(&mut self, verify: bool) {
        for s in &mut self.shards {
            s.set_verify(verify);
        }
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total events across all shards.
    pub fn num_events(&self) -> u64 {
        self.shards.iter().map(StoreReader::num_events).sum()
    }

    /// Total chunks across all shards.
    pub fn num_chunks(&self) -> usize {
        self.shards.iter().map(|s| s.chunks().len()).sum()
    }

    /// The header trace (every shard carries the same one).
    pub fn header(&self) -> &Trace {
        self.shards[0].header()
    }

    /// Lifetime chunk decompressions summed over shards.
    pub fn chunks_decoded_total(&self) -> u64 {
        self.shards.iter().map(StoreReader::chunks_decoded_total).sum()
    }

    /// Block-cache counters summed over every shard's cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.shards
            .iter()
            .map(StoreReader::cache_stats)
            .fold(CacheStats::default(), CacheStats::merged)
    }

    fn merge(parts: Vec<(Vec<TraceEvent>, ScanStats)>) -> (Vec<TraceEvent>, ScanStats) {
        let mut out = Vec::new();
        let mut stats = ScanStats::default();
        for (events, p) in parts {
            out.extend(events);
            stats.merge(&p);
        }
        (out, stats)
    }

    /// Scan every shard in order, handing `sink` one column batch per
    /// surviving chunk; `cancel` is checked at every chunk boundary of
    /// every shard.
    pub fn scan_batches_cancel(
        &self,
        q: &Query,
        cancel: &CancelToken,
        sink: &mut dyn FnMut(&EventBatch<'_>),
    ) -> io::Result<ScanStats> {
        let mut stats = ScanStats::default();
        for s in &self.shards {
            stats.merge(&s.scan_batches_cancel(q, cancel, sink)?);
        }
        Ok(stats)
    }

    /// Run a query over every shard in order.
    pub fn query(&self, q: &Query) -> io::Result<(Vec<TraceEvent>, ScanStats)> {
        self.query_cancel(q, &CancelToken::new())
    }

    /// [`ShardedReader::query`] with a cancellation token
    /// ([`ShardedReader::scan_batches_cancel`], materialized).
    pub fn query_cancel(
        &self,
        q: &Query,
        cancel: &CancelToken,
    ) -> io::Result<(Vec<TraceEvent>, ScanStats)> {
        let mut out = Vec::new();
        let stats = self.scan_batches_cancel(q, cancel, &mut |b| b.materialize_into(&mut out))?;
        Ok((out, stats))
    }

    /// Run a query with shards fanned out over `threads` workers;
    /// results are concatenated in shard order, so the answer is
    /// identical to [`ShardedReader::query`]. A single-shard trace
    /// delegates to the chunk-level [`StoreReader::query_parallel`].
    pub fn query_parallel(
        &self,
        q: &Query,
        threads: usize,
    ) -> io::Result<(Vec<TraceEvent>, ScanStats)> {
        if self.shards.len() == 1 {
            return self.shards[0].query_parallel(q, threads);
        }
        let threads = threads.clamp(1, self.shards.len());
        if threads <= 1 {
            return self.query(q);
        }
        let per_worker = self.shards.len().div_ceil(threads);
        type ShardResults = Vec<io::Result<Vec<(Vec<TraceEvent>, ScanStats)>>>;
        let parts: ShardResults = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .chunks(per_worker)
                    .map(|slice| {
                        scope.spawn(move || slice.iter().map(|s| s.query(q)).collect())
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
            });
        let mut flat = Vec::with_capacity(self.shards.len());
        for part in parts {
            flat.extend(part?);
        }
        Ok(Self::merge(flat))
    }

    /// One pass per shard, every query routed; per-query results keep
    /// global (shard, then trace) order.
    pub fn query_multi(&self, qs: &[Query]) -> io::Result<(Vec<Vec<TraceEvent>>, ScanStats)> {
        self.query_multi_cancel(qs, &CancelToken::new())
    }

    /// [`ShardedReader::query_multi`] with a cancellation token.
    pub fn query_multi_cancel(
        &self,
        qs: &[Query],
        cancel: &CancelToken,
    ) -> io::Result<(Vec<Vec<TraceEvent>>, ScanStats)> {
        let mut outs: Vec<Vec<TraceEvent>> = qs.iter().map(|_| Vec::new()).collect();
        let mut stats = ScanStats::default();
        for s in &self.shards {
            let (parts, p) = s.query_multi_cancel(qs, cancel)?;
            for (out, part) in outs.iter_mut().zip(parts) {
                out.extend(part);
            }
            stats.merge(&p);
        }
        Ok((outs, stats))
    }

    /// Materialize the whole logical trace.
    pub fn materialize(&self) -> io::Result<Trace> {
        let (events, _) = self.query(&Query::all())?;
        let mut t = self.header().clone();
        t.events = events;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_store_chunked;
    use mempersp_extrae::query::EventClass;
    use mempersp_extrae::tracer::{Tracer, TracerConfig};
    use mempersp_pebs::CounterSnapshot;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mempersp_shard_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn trace(iters: u64) -> Trace {
        let mut t = Tracer::new(TracerConfig::default(), 4);
        let c = CounterSnapshot::from_values([9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2]);
        for i in 0..iters {
            let core = (i % 4) as usize;
            t.enter(core, "R", c, i * 100);
            t.user_event(core, 1, i, i * 100 + 10);
            t.exit(core, "R", c, i * 100 + 50);
        }
        t.finish("shard test")
    }

    #[test]
    fn sharded_round_trip_matches_source() {
        let dir = tmp("rt.mps.d");
        std::fs::remove_dir_all(&dir).ok();
        let t = trace(4000);
        let s = write_store_sharded(&dir, &t, 4096, 1, 5000).unwrap();
        assert_eq!(s.events, 12_000);
        let r = ShardedReader::open(&dir).unwrap();
        assert_eq!(r.num_shards(), 3, "12000 events / 5000 per shard");
        assert_eq!(r.num_events(), 12_000);
        let back = r.materialize().unwrap();
        assert_eq!(back.events, t.events);
        assert_eq!(back.meta, t.meta);
        assert_eq!(back.region_names, t.region_names);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_queries_match_unsharded() {
        let sharded = tmp("q.mps.d");
        let single = tmp("q.mps");
        std::fs::remove_dir_all(&sharded).ok();
        let t = trace(3000);
        write_store_sharded(&sharded, &t, 4096, 1, 2000).unwrap();
        write_store_chunked(&single, &t, 4096).unwrap();
        let rs = ShardedReader::open(&sharded).unwrap();
        let ru = StoreReader::open(&single).unwrap();
        assert!(rs.num_shards() > 1);
        for q in [
            Query::all(),
            Query::all().in_time(0, 50_000),
            Query::all().with_kinds(&[EventClass::User]).on_cores(&[1, 2]),
        ] {
            let (se, ss) = rs.query(&q).unwrap();
            let (ue, us) = ru.query(&q).unwrap();
            assert_eq!(se, ue);
            assert_eq!(ss.events_matched, us.events_matched);
            for threads in [2, 5] {
                let (pe, ps) = rs.query_parallel(&q, threads).unwrap();
                assert_eq!(pe, ue, "threads={threads}");
                assert_eq!(ps.events_matched, us.events_matched);
            }
        }
        // Multi-query, one pass per shard.
        let qs =
            [Query::all().in_time(0, 20_000), Query::all().with_kinds(&[EventClass::RegionExit])];
        let (souts, _) = rs.query_multi(&qs).unwrap();
        let (uouts, _) = ru.query_multi(&qs).unwrap();
        assert_eq!(souts, uouts);
        std::fs::remove_dir_all(&sharded).ok();
        std::fs::remove_file(&single).ok();
    }

    #[test]
    fn each_shard_is_a_self_contained_store() {
        let dir = tmp("solo.mps.d");
        std::fs::remove_dir_all(&dir).ok();
        let t = trace(2000);
        write_store_sharded(&dir, &t, 4096, 1, 2500).unwrap();
        let r = ShardedReader::open(&dir).unwrap();
        assert!(r.num_shards() >= 2);
        // Open one shard directly with the plain reader: full header,
        // its slice of the events.
        let first = StoreReader::open(&dir.join(shard_name(0))).unwrap();
        assert_eq!(first.header().region_names, t.region_names);
        assert_eq!(first.num_events(), 2500);
        let (events, _) = first.query(&Query::all()).unwrap();
        assert_eq!(events[..], t.events[..2500]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_event_counts_are_validated() {
        let dir = tmp("bad.mps.d");
        std::fs::remove_dir_all(&dir).ok();
        let t = trace(1000);
        write_store_sharded(&dir, &t, 4096, 1, 1500).unwrap();
        let manifest = dir.join(MANIFEST_NAME);
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, text.replace("1500", "1400")).unwrap();
        let err = match ShardedReader::open(&dir) {
            Ok(_) => panic!("mismatched manifest must not open"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("manifest says"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finish_leaves_no_temp_files() {
        let dir = tmp("atomic.mps.d");
        std::fs::remove_dir_all(&dir).ok();
        let t = trace(1000);
        write_store_sharded(&dir, &t, 4096, 1, 1500).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            let name = name.to_str().unwrap().to_string();
            assert!(!name.ends_with(".tmp"), "leftover temp file {name}");
        }
        assert!(dir.join(MANIFEST_NAME).is_file());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crashed_sharded_write_leaves_no_manifest_and_salvages() {
        // Simulate the crash window: shards exist (finalized), the
        // manifest never landed. Strict refuses; salvage dir-scans.
        let dir = tmp("crashed.mps.d");
        std::fs::remove_dir_all(&dir).ok();
        let t = trace(1000);
        write_store_sharded(&dir, &t, 4096, 1, 1500).unwrap();
        std::fs::remove_file(dir.join(MANIFEST_NAME)).unwrap();
        assert!(ShardedReader::open(&dir).is_err());
        let r =
            ShardedReader::open_with_mode(&dir, CacheConfig::default(), RecoveryMode::Salvage)
                .unwrap();
        assert_eq!(r.num_shards(), 2);
        let (events, _) = r.query(&Query::all()).unwrap();
        assert_eq!(events, t.events);
        assert!(r.damage_report().iter().any(|n| n.contains("manifest")), "{:?}", r.damage_report());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_trace_keeps_header() {
        let dir = tmp("empty.mps.d");
        std::fs::remove_dir_all(&dir).ok();
        let t = Tracer::new(TracerConfig::default(), 2).finish("empty");
        write_store_sharded(&dir, &t, 4096, 1, 1000).unwrap();
        let r = ShardedReader::open(&dir).unwrap();
        assert_eq!((r.num_shards(), r.num_events()), (1, 0));
        assert_eq!(r.header().meta, t.meta);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipelined_shards_match_serial_bytes() {
        let dir1 = tmp("pipe1.mps.d");
        let dir2 = tmp("pipe2.mps.d");
        std::fs::remove_dir_all(&dir1).ok();
        std::fs::remove_dir_all(&dir2).ok();
        let t = trace(3000);
        write_store_sharded(&dir1, &t, 4096, 1, 2000).unwrap();
        write_store_sharded(&dir2, &t, 4096, 4, 2000).unwrap();
        for i in 0..ShardedReader::open(&dir1).unwrap().num_shards() {
            let a = std::fs::read(dir1.join(shard_name(i))).unwrap();
            let b = std::fs::read(dir2.join(shard_name(i))).unwrap();
            assert_eq!(a, b, "shard {i} differs between serial and pipelined writers");
        }
        std::fs::remove_dir_all(&dir1).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }
}

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
//! shard order and per-shard event counts; opening the directory
//! ([`crate::source::MpsSource::open`]) re-validates the counts
//! against each shard's own footer.
//!
//! # Crash consistency
//!
//! Each shard finalizes atomically (tmp + fsync + rename, see
//! [`crate::writer`]), and the manifest is committed the same way,
//! **last**. A crashed sharded write therefore leaves either no
//! manifest (the directory is visibly unfinished — salvage can still
//! dir-scan the shards) or a manifest whose every named shard is a
//! fully finalized store. An open in [`RecoveryMode::Salvage`]
//! survives a missing or lying manifest, a corrupted shard, or a
//! deleted shard: the broken pieces are skipped and reported, the
//! healthy shards' events come back in shard order.
//!
//! [`ShardedWriter`] keeps at most one chunk open: rolling a shard
//! seals and writes the outgoing shard's last chunk but leaves its
//! footer unwritten — the header (symbols, objects, region names) is
//! only complete at the end of the run, at which point
//! [`ShardedWriter::finish`] writes every shard's footer and the
//! manifest.
//!
//! There is no sharded reader: `open_shards` hands
//! [`crate::source::MpsSource`] one [`StoreReader`] per shard, and a
//! store is read as that list — a single `.mps` is the one-element
//! case — so a sharded query returns exactly what the unsharded one
//! would.

use crate::reader::{RecoveryMode, StoreReader};
use crate::writer::{StoreSummary, StoreWriter};
use mempersp_extrae::events::TraceEvent;
use mempersp_extrae::stream_writer::{publish, tmp_path, EventSink};
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
    /// Chunk target of every shard's [`StoreWriter`].
    chunk_target: usize,
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
    /// rolls a new shard, each chunked at `chunk_target` bytes, every
    /// `events_per_shard` events. Zero events per shard is
    /// `InvalidInput`, refused before `dir` is created.
    pub fn new(dir: &Path, chunk_target: usize, events_per_shard: u64) -> io::Result<ShardedWriter> {
        if events_per_shard == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "a shard holds at least one event"));
        }
        std::fs::create_dir_all(dir).map_err(|e| {
            io::Error::new(e.kind(), format!("creating shard dir {}: {e}", dir.display()))
        })?;
        Ok(ShardedWriter {
            dir: dir.to_path_buf(),
            chunk_target,
            events_per_shard,
            shards: Vec::new(),
            current_events: 0,
            finished: false,
        })
    }

    fn open_shard(&mut self) -> io::Result<()> {
        let name = shard_name(self.shards.len());
        let w = StoreWriter::new(&self.dir.join(&name), self.chunk_target)?;
        self.shards.push((name, w));
        self.current_events = 0;
        Ok(())
    }

    /// Append one event, rolling to a fresh shard at the threshold.
    pub fn append(&mut self, event: &TraceEvent) -> io::Result<()> {
        assert!(!self.finished, "append after finish");
        if self.shards.is_empty() || self.current_events >= self.events_per_shard {
            if let Some((_, w)) = self.shards.last_mut() {
                // Write the outgoing shard's last chunk now, so only
                // one chunk is ever open.
                w.seal_chunk()?;
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
        std::fs::write(&tmp, manifest).inspect_err(|_| drop(std::fs::remove_file(&tmp)))?;
        publish(&tmp, &manifest_path)?;
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
    events_per_shard: u64,
) -> io::Result<StoreSummary> {
    let mut w = ShardedWriter::new(dir, chunk_target, events_per_shard)?;
    for e in &trace.events {
        w.append(e)?;
    }
    w.finish(trace)
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

/// The files of a store opened for reading, in trace order: one named
/// [`StoreReader`] (mapping, block cache, decode counters) each.
pub(crate) type Shards = Vec<(String, StoreReader)>;

/// Open every shard of `dir`, in shard order, and collect the
/// directory-level salvage notes (bad manifest, unopenable shards,
/// count mismatches). Strict fails on the first inconsistency.
/// Salvage opens what it can: a missing or corrupt manifest falls
/// back to a directory scan, unopenable shards are skipped with a
/// note, event-count mismatches are noted but tolerated — one bad
/// shard never takes down the rest.
pub(crate) fn open_shards(
    dir: &Path,
    mode: RecoveryMode,
    verify: bool,
) -> io::Result<(Shards, Vec<String>)> {
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
    for (i, (name, expected)) in entries.into_iter().enumerate() {
        let reader = match StoreReader::open_with_options(&dir.join(&name), mode, verify) {
            Ok(r) => r,
            Err(e) if mode == RecoveryMode::Salvage => {
                notes.push(format!("shard {i} ({name}) unreadable, skipped: {e}"));
                continue;
            }
            Err(e) => return Err(io::Error::new(e.kind(), format!("shard {i} ({name}): {e}"))),
        };
        if let Some(events) = expected {
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
        shards.push((name, reader));
    }
    if shards.is_empty() {
        return Err(bad_data(match mode {
            RecoveryMode::Salvage => {
                format!("{}: no readable shards ({})", dir.display(), notes.join("; "))
            }
            RecoveryMode::Strict => format!("{}: manifest lists no shards", dir.display()),
        }));
    }
    Ok((shards, notes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MpsSource;
    use mempersp_extrae::query::Query;
    use mempersp_extrae::trace_source::TraceSource as _;
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
        let s = write_store_sharded(&dir, &t, 4096, 5000).unwrap();
        assert_eq!(s.events, 12_000);
        let mut r = MpsSource::open(&dir).unwrap();
        assert_eq!(r.num_shards(), 3, "12000 events / 5000 per shard");
        assert_eq!(r.num_events(), 12_000);
        let back = r.materialize().unwrap();
        assert_eq!(back.events, t.events);
        assert_eq!(back.meta, t.meta);
        assert_eq!(back.region_names, t.region_names);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_events_per_shard_is_refused_before_the_dir_exists() {
        let dir = tmp("zero.mps.d");
        std::fs::remove_dir_all(&dir).ok();
        let e = ShardedWriter::new(&dir, 4096, 0).err().expect("0 events per shard is refused");
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        assert!(!dir.exists(), "nothing created");
    }

    #[test]
    fn each_shard_is_a_self_contained_store() {
        let dir = tmp("solo.mps.d");
        std::fs::remove_dir_all(&dir).ok();
        let t = trace(2000);
        write_store_sharded(&dir, &t, 4096, 2500).unwrap();
        let r = MpsSource::open(&dir).unwrap();
        assert!(r.num_shards() >= 2);
        // Open one shard directly as a store of its own: full header,
        // its slice of the events.
        let first = MpsSource::open(&dir.join(shard_name(0))).unwrap();
        assert_eq!(first.store_header().region_names, t.region_names);
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
        write_store_sharded(&dir, &t, 4096, 1500).unwrap();
        let manifest = dir.join(MANIFEST_NAME);
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, text.replace("1500", "1400")).unwrap();
        let err = match MpsSource::open(&dir) {
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
        write_store_sharded(&dir, &t, 4096, 1500).unwrap();
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
        write_store_sharded(&dir, &t, 4096, 1500).unwrap();
        std::fs::remove_file(dir.join(MANIFEST_NAME)).unwrap();
        assert!(MpsSource::open(&dir).is_err());
        let r = MpsSource::open_with_options(&dir, RecoveryMode::Salvage, true).unwrap();
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
        write_store_sharded(&dir, &t, 4096, 1000).unwrap();
        let r = MpsSource::open(&dir).unwrap();
        assert_eq!((r.num_shards(), r.num_events()), (1, 0));
        assert_eq!(r.store_header().meta, t.meta);
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! [`MpsSource`]: a store opened for reading — the files of a single
//! `.mps` or a `trace.mps.d/` shard directory behind one API and the
//! [`TraceSource`] trait — and a format-sniffing opener so downstream
//! analyses (folding, object stats, the CLI) accept any container
//! without caring which one they got.

use crate::cache::CacheStats;
use crate::cancel::CancelToken;
use crate::codec::ALL_MATCHES;
use crate::reader::{page_after, ChunkDamage, RecoveryMode, StoreReader};
use crate::shard::{is_shard_dir, open_shards, Shards};
use mempersp_extrae::batch::EventBatch;
use mempersp_extrae::events::TraceEvent;
use mempersp_extrae::query::Query;
use mempersp_extrae::trace_source::{ScanStats, TraceSource};
use mempersp_extrae::tracer::Trace;
use std::io::{self, Read as _};
use std::ops::Range;
use std::path::Path;

/// Below this many surviving chunks a parallel query runs
/// sequentially: spawning + merging costs more than the scan.
pub const PARALLEL_MIN_CHUNKS: usize = 64;

/// A store is a list of files. Queries push predicates down into each
/// file's chunk index instead of materializing the whole trace, and
/// walk the files in order; a `trace.mps.d/` shard directory opens the
/// same way a single file does.
pub struct MpsSource {
    /// The store's files in trace order, never empty: the shards of a
    /// directory under their manifest names, or a single `.mps` as
    /// one entry with an empty name.
    shards: Shards,
    /// Directory-level salvage notes (bad manifest, unopenable
    /// shards, count mismatches).
    notes: Vec<String>,
}

/// One damage-report line: a shard's findings carry its name.
pub(crate) fn damage_line(shard: &str, d: &ChunkDamage) -> String {
    if shard.is_empty() {
        d.to_string()
    } else {
        format!("{shard}: {d}")
    }
}

impl MpsSource {
    /// Open a single `.mps` file or a `trace.mps.d/` shard directory
    /// (strict mode, checksum verification on).
    pub fn open(path: &Path) -> io::Result<MpsSource> {
        Self::open_with_options(path, RecoveryMode::Strict, true)
    }

    /// [`MpsSource::open`] with an explicit failure policy and
    /// checksum-verification toggle (`query --no-verify` benchmarks
    /// pass `verify = false`).
    pub fn open_with_options(
        path: &Path,
        mode: RecoveryMode,
        verify: bool,
    ) -> io::Result<MpsSource> {
        let (shards, notes) = if path.is_dir() {
            open_shards(path, mode, verify)?
        } else {
            let reader = StoreReader::open_with_options(path, mode, verify)?;
            (vec![(String::new(), reader)], Vec::new())
        };
        Ok(MpsSource { shards, notes })
    }

    /// Every defect diagnosed so far as printable lines:
    /// directory-level salvage notes, then each file's own damage
    /// report (prefixed with the shard name in a sharded store).
    pub fn damage_report(&self) -> Vec<String> {
        let mut all = self.notes.clone();
        for (name, r) in &self.shards {
            all.extend(r.damage_report().iter().map(|d| damage_line(name, d)));
        }
        all
    }

    /// The store's files with their readers, in trace order (for
    /// fsck-style deep verification). A single `.mps` is one entry
    /// with an empty name.
    pub fn shards(&self) -> impl Iterator<Item = (&str, &StoreReader)> {
        self.shards.iter().map(|(name, r)| (name.as_str(), r))
    }

    /// The single-file reader, when this source is not a shard
    /// directory (chunk index, decode counters, cache stats).
    pub fn reader(&self) -> Option<&StoreReader> {
        match &self.shards[..] {
            [(name, r)] if name.is_empty() => Some(r),
            _ => None,
        }
    }

    /// Shard count: 1 for a single-file store.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total events across all chunks (and shards).
    pub fn num_events(&self) -> u64 {
        self.shards.iter().map(|(_, r)| r.num_events()).sum()
    }

    /// The header trace (empty event list; every shard carries the
    /// same one).
    pub fn store_header(&self) -> &Trace {
        self.shards[0].1.header()
    }

    /// Block-cache counters (summed across shards for a sharded store).
    pub fn cache_stats(&self) -> CacheStats {
        self.shards.iter().map(|(_, r)| r.cache_stats()).fold(CacheStats::default(), CacheStats::merged)
    }

    /// Store format version.
    pub fn format_version(&self) -> u32 {
        self.shards[0].1.format_version()
    }

    /// Scan the store for `q`, handing `sink` one column batch per
    /// surviving chunk in stored order; `cancel` is checked at every
    /// chunk boundary of every file. The batches carry the matches
    /// ranked inside `page` ([`ALL_MATCHES`]: every one) and only
    /// those pay for payload decode, while `events_matched` counts
    /// them all — see [`StoreReader::scan_batches_cancel`].
    pub fn scan_batches_cancel(
        &self,
        q: &Query,
        page: &Range<usize>,
        cancel: &CancelToken,
        sink: &mut dyn FnMut(&EventBatch<'_>),
    ) -> io::Result<ScanStats> {
        let mut stats = ScanStats::default();
        for (_, r) in &self.shards {
            let rest = page_after(page, stats.events_matched);
            stats.merge(&r.scan_batches_cancel(q, &rest, cancel, sink)?);
        }
        Ok(stats)
    }

    /// Run a query sequentially. Returns matching events in stored
    /// (trace) order plus the scan's cost accounting.
    pub fn query(&self, q: &Query) -> io::Result<(Vec<TraceEvent>, ScanStats)> {
        let mut out = Vec::new();
        let stats = self.scan_batches_cancel(q, &ALL_MATCHES, &CancelToken::new(), &mut |b| {
            b.materialize_into(&mut out)
        })?;
        Ok((out, stats))
    }

    /// Run a query with the surviving chunks of every file spread over
    /// `threads` workers. The result is identical to
    /// [`MpsSource::query`]: the `(shard, chunk)` candidates are
    /// partitioned contiguously and re-concatenated in stored order,
    /// so event order is preserved deterministically. Below
    /// [`PARALLEL_MIN_CHUNKS`] surviving chunks the scan runs
    /// sequentially — at that size thread spawn + merge dominates.
    pub fn query_parallel(&self, q: &Query, threads: usize) -> io::Result<(Vec<TraceEvent>, ScanStats)> {
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        let mut stats = ScanStats::default();
        for (shard, (_, r)) in self.shards.iter().enumerate() {
            let (keep, skipped) = r.candidates(q);
            stats.chunks_skipped += skipped;
            candidates.extend(keep.into_iter().map(|chunk| (shard, chunk)));
        }
        let threads = threads.clamp(1, candidates.len().max(1));
        if threads <= 1 || candidates.len() < PARALLEL_MIN_CHUNKS {
            return self.query(q);
        }

        let cancel = &CancelToken::new();
        let per_worker = candidates.len().div_ceil(threads);
        let parts: Vec<io::Result<(Vec<TraceEvent>, ScanStats)>> = std::thread::scope(|s| {
            let handles: Vec<_> = candidates
                .chunks(per_worker)
                .map(|slice| {
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut stats = ScanStats::default();
                        // One `scan_candidates` per run of chunks in
                        // the same file.
                        for run in slice.chunk_by(|a, b| a.0 == b.0) {
                            let reader = &self.shards[run[0].0].1;
                            let chunks = run.iter().map(|&(_, chunk)| chunk);
                            stats.merge(&reader.scan_candidates(
                                chunks,
                                q,
                                &ALL_MATCHES,
                                cancel,
                                &mut |b| b.materialize_into(&mut out),
                            )?);
                        }
                        Ok((out, stats))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("scan worker panicked")).collect()
        });

        let mut out = Vec::new();
        for part in parts {
            let (events, p) = part?;
            out.extend(events);
            stats.merge(&p);
        }
        Ok((out, stats))
    }
}

impl TraceSource for MpsSource {
    fn header(&mut self) -> io::Result<Trace> {
        Ok(self.store_header().clone())
    }

    fn scan_batches(
        &mut self,
        query: &Query,
        sink: &mut dyn FnMut(&EventBatch<'_>),
    ) -> io::Result<ScanStats> {
        self.scan_batches_cancel(query, &ALL_MATCHES, &CancelToken::new(), sink)
    }

    fn format_name(&self) -> &'static str {
        if self.reader().is_some() {
            "mps"
        } else {
            "mps.d"
        }
    }

    fn num_events(&mut self) -> io::Result<u64> {
        Ok(MpsSource::num_events(self))
    }
}

/// Is `path` a binary store — a directory with a shard manifest, or a
/// file leading with `MPSTORE` (any version; the reader rejects all
/// but the current one by name)? Reads 8 bytes of a file, never more.
pub fn sniff_store(path: &Path) -> io::Result<bool> {
    if is_shard_dir(path) {
        return Ok(true);
    }
    let mut file = std::fs::File::open(path).map_err(|e| {
        io::Error::new(e.kind(), format!("opening trace {}: {e}", path.display()))
    })?;
    let mut head = [0u8; 8];
    let n = file.read(&mut head)?;
    Ok(n == 8 && head[..7] == crate::writer::MAGIC[..7])
}

/// Open a trace by path: a store ([`sniff_store`]) through
/// [`MpsSource::open`], anything else parsed as a text `.prv` trace.
pub fn open_trace_source(path: &Path) -> io::Result<Box<dyn TraceSource>> {
    if sniff_store(path)? {
        return Ok(Box::new(MpsSource::open(path)?));
    }
    Ok(Box::new(mempersp_extrae::trace_format::load_trace(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::write_store_sharded;
    use crate::writer::write_store_chunked;
    use mempersp_extrae::query::EventClass;
    use mempersp_extrae::trace_format::{save_trace, write_trace};
    use mempersp_extrae::tracer::{Tracer, TracerConfig};
    use mempersp_pebs::CounterSnapshot;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mempersp_store_s_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn trace() -> Trace {
        let mut t = Tracer::new(TracerConfig::default(), 2);
        let c = CounterSnapshot::from_values([9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2]);
        for i in 0..2000u64 {
            t.enter((i % 2) as usize, "R", c, i * 10);
            t.exit((i % 2) as usize, "R", c, i * 10 + 5);
        }
        t.finish("source test")
    }

    #[test]
    fn sniffer_dispatches_on_magic() {
        let t = trace();
        let prv = tmp("sniff.prv");
        let mps = tmp("sniff.mps");
        save_trace(&prv, &t).unwrap();
        write_store_chunked(&mps, &t, 4096).unwrap();

        let mut p = open_trace_source(&prv).unwrap();
        let mut m = open_trace_source(&mps).unwrap();
        assert_eq!(p.format_name(), "prv");
        assert_eq!(m.format_name(), "mps");
        assert_eq!(p.materialize().unwrap().events, m.materialize().unwrap().events);

        // Any `MPSTORE?` file goes to the store reader, whose error
        // names the version; it must not fall through to the text parser.
        std::fs::write(&mps, b"MPSTORE3 whatever follows").unwrap();
        let err = open_trace_source(&mps).err().expect("v3 store must not open");
        assert!(err.to_string().contains("store format v3 is no longer supported"), "{err}");
        std::fs::remove_file(&prv).ok();
        std::fs::remove_file(&mps).ok();
    }

    #[test]
    fn sniffer_dispatches_on_shard_dir() {
        let t = trace();
        let dir = tmp("sniff.mps.d");
        std::fs::remove_dir_all(&dir).ok();
        write_store_sharded(&dir, &t, 4096, 1, 1500).unwrap();
        let mut s = open_trace_source(&dir).unwrap();
        assert_eq!(s.format_name(), "mps.d");
        assert_eq!(s.materialize().unwrap().events, t.events);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filtered_scan_agrees_across_formats() {
        let t = trace();
        let prv = tmp("agree.prv");
        let mps = tmp("agree.mps");
        save_trace(&prv, &t).unwrap();
        write_store_chunked(&mps, &t, 4096).unwrap();

        let q = Query::all().in_time(0, 3000).with_kinds(&[EventClass::RegionEnter]);
        let mut p = open_trace_source(&prv).unwrap();
        let mut m = open_trace_source(&mps).unwrap();
        let (tp, _) = p.filtered(&q).unwrap();
        let (tm, sm) = m.filtered(&q).unwrap();
        assert_eq!(tp.events, tm.events);
        assert!(sm.chunks_skipped > 0, "selective query should prune chunks: {sm:?}");
        std::fs::remove_file(&prv).ok();
        std::fs::remove_file(&mps).ok();
    }

    #[test]
    fn round_trip_prv_mps_prv_is_byte_identical() {
        let t = trace();
        let prv_text = write_trace(&t);
        let mps = tmp("rt.mps");
        write_store_chunked(&mps, &t, 4096).unwrap();
        let mut m = open_trace_source(&mps).unwrap();
        let back = m.materialize().unwrap();
        assert_eq!(write_trace(&back), prv_text);
        std::fs::remove_file(&mps).ok();
    }

    #[test]
    fn round_trip_prv_sharded_mps_prv_is_byte_identical() {
        let t = trace();
        let prv_text = write_trace(&t);
        let dir = tmp("rt.mps.d");
        std::fs::remove_dir_all(&dir).ok();
        write_store_sharded(&dir, &t, 4096, 2, 1000).unwrap();
        let mut m = open_trace_source(&dir).unwrap();
        let back = m.materialize().unwrap();
        assert_eq!(write_trace(&back), prv_text);
        std::fs::remove_dir_all(&dir).ok();
    }
}

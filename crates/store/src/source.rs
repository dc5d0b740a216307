//! [`TraceSource`] adapter for `.mps` stores — single-file or sharded
//! — and a format-sniffing opener so downstream analyses (folding,
//! object stats, the CLI) accept any container without caring which
//! one they got.

use crate::cache::{CacheConfig, CacheStats};
use crate::cancel::CancelToken;
use crate::reader::{RecoveryMode, StoreReader};
use crate::shard::{is_shard_dir, ShardedReader};
use mempersp_extrae::batch::EventBatch;
use mempersp_extrae::events::TraceEvent;
use mempersp_extrae::query::Query;
use mempersp_extrae::trace_source::{MaterializedSource, ScanStats, TraceSource};
use mempersp_extrae::tracer::Trace;
use std::io::{self, Read as _};
use std::path::Path;

/// A `.mps` store behind the [`TraceSource`] trait. Queries push
/// predicates down into the chunk index instead of materializing the
/// whole trace. A `trace.mps.d/` shard directory opens the same way a
/// single file does.
pub struct MpsSource {
    inner: Inner,
}

enum Inner {
    // Boxed: a StoreReader (cache shards + footer) dwarfs the
    // ShardedReader variant's Vec pointer.
    Single(Box<StoreReader>),
    Sharded(ShardedReader),
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
        let inner = if path.is_dir() {
            let mut s = ShardedReader::open_with_mode(path, CacheConfig::default(), mode)?;
            s.set_verify(verify);
            Inner::Sharded(s)
        } else {
            let mut r = StoreReader::open_with_mode(path, CacheConfig::default(), mode)?;
            r.set_verify(verify);
            Inner::Single(Box::new(r))
        };
        Ok(MpsSource { inner })
    }

    /// Every defect diagnosed so far (salvage notes plus per-chunk
    /// damage), as printable lines.
    pub fn damage_report(&self) -> Vec<String> {
        match &self.inner {
            Inner::Single(r) => r.damage_report().iter().map(|d| d.to_string()).collect(),
            Inner::Sharded(s) => s.damage_report(),
        }
    }

    /// The single-file reader, when this source is not sharded (chunk
    /// index, decode counters, cache stats).
    pub fn reader(&self) -> Option<&StoreReader> {
        match &self.inner {
            Inner::Single(r) => Some(r),
            Inner::Sharded(_) => None,
        }
    }

    /// Shard count: 1 for a single-file store.
    pub fn num_shards(&self) -> usize {
        match &self.inner {
            Inner::Single(_) => 1,
            Inner::Sharded(s) => s.num_shards(),
        }
    }

    /// Total events across all chunks (and shards).
    pub fn num_events(&self) -> u64 {
        match &self.inner {
            Inner::Single(r) => r.num_events(),
            Inner::Sharded(s) => s.num_events(),
        }
    }

    /// The header trace (empty event list).
    pub fn store_header(&self) -> &Trace {
        match &self.inner {
            Inner::Single(r) => r.header(),
            Inner::Sharded(s) => s.header(),
        }
    }

    /// Run a query sequentially.
    pub fn query(&self, q: &Query) -> io::Result<(Vec<TraceEvent>, ScanStats)> {
        match &self.inner {
            Inner::Single(r) => r.query(q),
            Inner::Sharded(s) => s.query(q),
        }
    }

    /// Scan the store for `q`, handing `sink` one column batch per
    /// surviving chunk in stored order; `cancel` is checked at every
    /// chunk boundary.
    pub fn scan_batches_cancel(
        &self,
        q: &Query,
        cancel: &CancelToken,
        sink: &mut dyn FnMut(&EventBatch<'_>),
    ) -> io::Result<ScanStats> {
        match &self.inner {
            Inner::Single(r) => r.scan_batches_cancel(q, cancel, sink),
            Inner::Sharded(s) => s.scan_batches_cancel(q, cancel, sink),
        }
    }

    /// Block-cache counters (summed across shards for a sharded store).
    pub fn cache_stats(&self) -> CacheStats {
        match &self.inner {
            Inner::Single(r) => r.cache_stats(),
            Inner::Sharded(s) => s.cache_stats(),
        }
    }

    /// Store format version.
    pub fn format_version(&self) -> u32 {
        match &self.inner {
            Inner::Single(r) => r.format_version(),
            Inner::Sharded(s) => s.shard_readers().next().map_or(0, |(_, r)| r.format_version()),
        }
    }

    /// Run a query across `threads` workers (chunks for a single
    /// file, shards for a sharded trace); same result as
    /// [`MpsSource::query`].
    pub fn query_parallel(&self, q: &Query, threads: usize) -> io::Result<(Vec<TraceEvent>, ScanStats)> {
        match &self.inner {
            Inner::Single(r) => r.query_parallel(q, threads),
            Inner::Sharded(s) => s.query_parallel(q, threads),
        }
    }

    /// Run several queries in one pass over each chunk.
    pub fn query_multi(&self, qs: &[Query]) -> io::Result<(Vec<Vec<TraceEvent>>, ScanStats)> {
        match &self.inner {
            Inner::Single(r) => r.query_multi(qs),
            Inner::Sharded(s) => s.query_multi(qs),
        }
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
        self.scan_batches_cancel(query, &CancelToken::new(), sink)
    }

    fn format_name(&self) -> &'static str {
        match &self.inner {
            Inner::Single(_) => "mps",
            Inner::Sharded(_) => "mps.d",
        }
    }
}

/// Open a trace by path. A directory with a shard manifest is a
/// sharded store; a file leading with `MPSTORE` is a binary store of
/// some version (the reader rejects any but the current one by name);
/// anything else is parsed as a text `.prv` trace.
pub fn open_trace_source(path: &Path) -> io::Result<Box<dyn TraceSource>> {
    open_trace_source_with(path, RecoveryMode::Strict, true)
}

/// [`open_trace_source`] with an explicit failure policy and
/// checksum-verification toggle (both only meaningful for `.mps`).
pub fn open_trace_source_with(
    path: &Path,
    mode: RecoveryMode,
    verify: bool,
) -> io::Result<Box<dyn TraceSource>> {
    if is_shard_dir(path) || (path.is_dir() && mode == RecoveryMode::Salvage) {
        return Ok(Box::new(MpsSource::open_with_options(path, mode, verify)?));
    }
    let mut file = std::fs::File::open(path).map_err(|e| {
        io::Error::new(e.kind(), format!("opening trace {}: {e}", path.display()))
    })?;
    let mut head = [0u8; 8];
    let n = file.read(&mut head)?;
    drop(file);
    if n == 8 && head[..7] == crate::writer::MAGIC[..7] {
        return Ok(Box::new(MpsSource::open_with_options(path, mode, verify)?));
    }
    Ok(Box::new(MaterializedSource::open(path)?))
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

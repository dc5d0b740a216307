//! The append-only store writer.
//!
//! File layout (`.mps`; the one format, version 4):
//!
//! ```text
//! +-----------------+ offset 0
//! | magic MPSTORE4  | 8 bytes
//! +-----------------+
//! | frame 0         | 28-byte self-delimiting chunk header:
//! | chunk payload 0 |   length + CRC32C of payload + CRC of itself
//! | frame 1         | stream-vbyte columns ([`crate::codec`]), raw
//! | chunk payload 1 |   or LZ, ~64 KiB each
//! | ...             |
//! +-----------------+
//! | header blob     | compression code + header_sections() text
//! |                 |   + CRC32C of both
//! +-----------------+ <- index_off
//! | footer index    | chunk count, ChunkMeta per chunk,
//! |                 | header blob location
//! +-----------------+
//! | trailer         | index_off:u64le + index CRC32C + magic
//! |                 | MPSEND04  (20 bytes)
//! +-----------------+
//! ```
//!
//! Chunks stream out as the run progresses — nothing before the
//! footer is ever rewritten, so a writer needs O(chunk) memory no
//! matter how long the trace is (the footer index grows at ~40 bytes
//! per 64 KiB chunk). The header — symbols, objects, region names,
//! which are only complete at the end of the run — goes *behind* the
//! chunks, mirroring how Extrae's merger appends global information
//! post-mortem.
//!
//! # Crash safety
//!
//! Every run of this writer is atomic and durable: bytes go to
//! `<path>.tmp`, and [`StoreWriter::finish`] flushes, fsyncs the file,
//! renames it onto the final path and fsyncs the parent directory — a
//! reader can never observe a half-written store at the final path,
//! and a crash leaves at most an orphaned `.tmp` (removed by the
//! writer's `Drop` on in-process error paths, salvageable by
//! `mempersp recover` after a hard kill). The per-chunk frames and the
//! checksummed footer are what make that salvage possible: a
//! footer-less `.tmp` is recovered by forward-scanning frames, each
//! self-validating via its own CRC32C. See `DESIGN.md` §12.
//!
//! # Pipelined compression
//!
//! With `threads ≥ 2` ([`WriterOptions::threads`]) the LZ pass
//! comes off the ingest thread: sealed chunks are handed to a bounded
//! pool of compressor workers, and a dedicated committer thread writes
//! the finished payloads to the file **strictly in seal order**, so
//! the produced bytes are identical at any thread count — ingest
//! overlaps compression instead of stalling on it. Backpressure is the
//! channel bound: at most a few chunks are ever in flight, keeping the
//! writer's memory O(threads × chunk).

use crate::chunk::{ChunkFrame, ChunkMeta, Compression, FRAME_LEN};
use crate::codec::ChunkBuilderV4;
use crate::crc::{crc32c, Crc32c};
use crate::fault::StoreFile;
use crate::lz;
use mempersp_extrae::events::TraceEvent;
use mempersp_extrae::stream_writer::EventSink;
use mempersp_extrae::tracer::Trace;
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// Leading file magic. The eighth byte is the format version; the
/// reader names any other `MPSTORE?` version in its rejection.
pub const MAGIC: &[u8; 8] = b"MPSTORE4";
/// Trailing file magic (after the index offset + index CRC).
pub const TRAILER_MAGIC: &[u8; 8] = b"MPSEND04";
/// Trailer size: index_off u64le + index CRC32C + magic.
pub const TRAILER_LEN: usize = 20;
/// Default target for one chunk's *raw* encoded payload.
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;
/// Default in-flight chunk budget per compressor thread (sealed but
/// not yet committed). The product `threads × this` bounds the
/// pipelined writer's buffered chunks, and with it peak memory.
pub const DEFAULT_INFLIGHT_PER_THREAD: usize = 2;

/// The temp-file twin of a final store path (`trace.mps` →
/// `trace.mps.tmp`): where a writer streams until its atomic rename.
pub fn tmp_path(dest: &Path) -> PathBuf {
    let mut name = dest.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    dest.with_file_name(name)
}

/// fsync the directory holding `entry`, making a just-renamed name
/// durable. (An fsync of the file alone persists its *contents*; the
/// directory entry pointing at them needs its own.)
pub fn sync_parent_dir(entry: &Path) -> io::Result<()> {
    let parent = match entry.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    std::fs::File::open(&parent)
        .and_then(|d| d.sync_all())
        .map_err(|e| io::Error::new(e.kind(), format!("fsync dir {}: {e}", parent.display())))
}

/// How a [`StoreWriter`] — or each shard of a
/// [`ShardedWriter`](crate::shard::ShardedWriter) — chunks and
/// pipelines its output. None of the three changes the bytes written
/// for a given `chunk_target`; `threads` and `max_inflight` only move
/// work and bound memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriterOptions {
    /// Target for one chunk's raw encoded payload (floored at 1 KiB;
    /// tests use small targets to force many chunks from small traces).
    pub chunk_target: usize,
    /// Compressor workers. `≤ 1` compresses inline on the caller
    /// thread; more moves the LZ pass onto a bounded pool with a
    /// deterministic in-order committer.
    pub threads: usize,
    /// At most this many sealed chunks wait in each of the pipeline's
    /// two queues, so a producer that outruns the compressor pool
    /// blocks in `append` instead of growing the heap. `None` takes
    /// `threads × DEFAULT_INFLIGHT_PER_THREAD`.
    pub max_inflight: Option<usize>,
}

impl Default for WriterOptions {
    fn default() -> Self {
        WriterOptions { chunk_target: DEFAULT_CHUNK_BYTES, threads: 1, max_inflight: None }
    }
}

/// What a finished store contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSummary {
    pub events: u64,
    pub chunks: u64,
    /// Total raw encoded payload bytes (before compression).
    pub raw_bytes: u64,
    /// Total stored payload bytes (after compression).
    pub stored_bytes: u64,
}

/// A sealed chunk travelling to the compressor pool.
struct Job {
    seq: u64,
    raw: Vec<u8>,
    meta: ChunkMeta,
}

/// A compressed chunk travelling to the committer.
struct Done {
    seq: u64,
    payload: Vec<u8>,
    compression: Compression,
    payload_crc: u32,
    meta: ChunkMeta,
}

/// What the committer hands back once every chunk is on disk.
struct CommitDone {
    out: io::BufWriter<Box<dyn StoreFile>>,
    pos: u64,
    metas: Vec<ChunkMeta>,
    raw_bytes: u64,
}

/// Minimum fraction of a chunk LZ must save before it beats `Raw`
/// (1/8 = 12.5%). A `Raw` chunk is served zero-copy straight out of
/// the mmap; an `Lz` chunk pays a full decompression pass on every
/// cold read. Stream-vbyte payloads often shave only a few percent
/// under LZ (width padding compresses, the data bytes do not), and
/// trading a single-digit size win for a decompression pass on the
/// scan path is a loss for a decode-bound store.
const MIN_COMPRESS_DENOM: usize = 8;

/// Compress one sealed chunk, keeping LZ only when it saves at least
/// 1/[`MIN_COMPRESS_DENOM`] of the raw bytes, and checksum the stored
/// bytes — the single pure function both the inline path and the
/// worker pool run, so output bytes never depend on the thread count.
fn compress_chunk(raw: Vec<u8>, mut meta: ChunkMeta) -> (Vec<u8>, Compression, u32, ChunkMeta) {
    meta.raw_len = raw.len() as u32;
    let compressed = lz::compress(&raw);
    let (payload, compression) = if compressed.len() <= raw.len() - raw.len() / MIN_COMPRESS_DENOM {
        (compressed, Compression::Lz)
    } else {
        (raw, Compression::Raw)
    };
    let payload_crc = crc32c(&payload);
    (payload, compression, payload_crc, meta)
}

/// Write one framed chunk at `pos`, returning the finalized meta and
/// the new position. Shared by the inline sink and the committer.
fn write_framed_chunk(
    out: &mut impl io::Write,
    pos: u64,
    payload: &[u8],
    compression: Compression,
    payload_crc: u32,
    mut meta: ChunkMeta,
) -> io::Result<(ChunkMeta, u64)> {
    let frame = ChunkFrame {
        stored_len: payload.len() as u32,
        raw_len: meta.raw_len,
        events: meta.events,
        compression,
        payload_crc,
    };
    out.write_all(&frame.encode())?;
    out.write_all(payload)?;
    meta.offset = pos + FRAME_LEN as u64;
    meta.stored_len = payload.len() as u32;
    meta.compression = compression;
    Ok((meta, pos + (FRAME_LEN + payload.len()) as u64))
}

struct Pipeline {
    jobs: Option<mpsc::SyncSender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    committer: Option<std::thread::JoinHandle<io::Result<CommitDone>>>,
    next_seq: u64,
}

impl Pipeline {
    fn spawn(
        out: io::BufWriter<Box<dyn StoreFile>>,
        pos: u64,
        threads: usize,
        max_inflight: usize,
    ) -> Pipeline {
        // Two bounded hand-off points; together they cap how many
        // sealed chunks can exist between the ingest thread and the
        // committed file, which is what bounds the writer's RSS when a
        // simulation streams into it. The bound never changes the
        // bytes — only how early `append` feels backpressure.
        let max_inflight = max_inflight.max(1);
        let (jobs_tx, jobs_rx) = mpsc::sync_channel::<Job>(max_inflight);
        let (done_tx, done_rx) = mpsc::sync_channel::<Done>(max_inflight);
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));

        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let rx = Arc::clone(&jobs_rx);
                let tx = done_tx.clone();
                std::thread::spawn(move || loop {
                    // Holding the lock across `recv` serializes job
                    // *hand-off*, not compression, which runs after
                    // the guard drops.
                    let job = match rx.lock().expect("job queue poisoned").recv() {
                        Ok(j) => j,
                        Err(_) => return,
                    };
                    let (payload, compression, payload_crc, meta) = compress_chunk(job.raw, job.meta);
                    if tx
                        .send(Done { seq: job.seq, payload, compression, payload_crc, meta })
                        .is_err()
                    {
                        return; // committer failed; drain and exit
                    }
                })
            })
            .collect();
        drop(done_tx);

        let committer = std::thread::spawn(move || -> io::Result<CommitDone> {
            let mut out = out;
            let mut pos = pos;
            let mut metas = Vec::new();
            let mut raw_bytes = 0u64;
            let mut pending: BTreeMap<u64, Done> = BTreeMap::new();
            let mut next = 0u64;
            for done in done_rx.iter() {
                pending.insert(done.seq, done);
                // Deterministic in-order commit: write only the
                // contiguous prefix, hold later chunks until the gap
                // fills (the channel bound caps how many can wait).
                while let Some(d) = pending.remove(&next) {
                    let (meta, new_pos) =
                        write_framed_chunk(&mut out, pos, &d.payload, d.compression, d.payload_crc, d.meta)?;
                    pos = new_pos;
                    raw_bytes += meta.raw_len as u64;
                    metas.push(meta);
                    next += 1;
                }
            }
            assert!(pending.is_empty(), "compressor pool dropped chunk {next}");
            Ok(CommitDone { out, pos, metas, raw_bytes })
        });

        Pipeline { jobs: Some(jobs_tx), workers, committer: Some(committer), next_seq: 0 }
    }

    fn join(mut self) -> io::Result<CommitDone> {
        drop(self.jobs.take());
        for w in self.workers.drain(..) {
            w.join().expect("compressor worker panicked");
        }
        self.committer
            .take()
            .expect("pipeline joined twice")
            .join()
            .expect("committer panicked")
    }
}

enum Sink {
    /// Chunks compressed and written on the caller thread.
    Inline { out: io::BufWriter<Box<dyn StoreFile>>, pos: u64 },
    /// Chunks compressed on the worker pool, committed in order.
    Pipelined(Pipeline),
    /// Transitional state while swapping sinks (and post-drop).
    Draining,
}

/// Where the finished bytes land: the temp file they stream into and
/// the final path `finish` renames onto.
struct Target {
    tmp: PathBuf,
    dest: PathBuf,
}

/// Streaming writer of the chunked binary container.
pub struct StoreWriter {
    sink: Sink,
    target: Option<Target>,
    chunk_target: usize,
    /// Columnar encoder of the open chunk.
    builder: ChunkBuilderV4,
    /// Summary of the open chunk.
    open_meta: ChunkMeta,
    /// Sealed-chunk index entries, in commit order (populated lazily
    /// for the pipelined sink — harvested when the pipeline drains).
    metas: Vec<ChunkMeta>,
    total_events: u64,
    raw_bytes: u64,
    finished: bool,
}

impl StoreWriter {
    /// Create a store at `path`. Bytes stream into `<path>.tmp` until
    /// [`StoreWriter::finish`] renames it into place.
    pub fn new(path: &Path, opts: WriterOptions) -> io::Result<StoreWriter> {
        let tmp = tmp_path(path);
        let file = std::fs::File::create(&tmp).map_err(|e| {
            io::Error::new(e.kind(), format!("creating store {}: {e}", tmp.display()))
        })?;
        Self::with_backend(Box::new(file), tmp, path.to_path_buf(), opts)
    }

    /// [`StoreWriter::new`] with the default in-flight budget. Kept
    /// as a named constructor because `benchmark/` calls it.
    pub fn with_threads(path: &Path, chunk_target: usize, threads: usize) -> io::Result<StoreWriter> {
        Self::new(path, WriterOptions { chunk_target, threads, max_inflight: None })
    }

    /// Build a writer over an explicit backing file — the seam the
    /// fault-injection tests use to slide a
    /// [`crate::fault::FailingFile`] under the production write path.
    /// `tmp` must be where `file` actually lives; `finish` renames it
    /// onto `dest`.
    pub fn with_backend(
        file: Box<dyn StoreFile>,
        tmp: PathBuf,
        dest: PathBuf,
        opts: WriterOptions,
    ) -> io::Result<StoreWriter> {
        let mut out = io::BufWriter::new(file);
        if let Err(e) = out.write_all(MAGIC).and_then(|()| out.flush()) {
            drop(out);
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        let pos = MAGIC.len() as u64;
        let sink = if opts.threads > 1 {
            let max_inflight =
                opts.max_inflight.unwrap_or(opts.threads * DEFAULT_INFLIGHT_PER_THREAD);
            Sink::Pipelined(Pipeline::spawn(out, pos, opts.threads, max_inflight))
        } else {
            Sink::Inline { out, pos }
        };
        Ok(StoreWriter {
            sink,
            target: Some(Target { tmp, dest }),
            chunk_target: opts.chunk_target.max(1024),
            builder: ChunkBuilderV4::new(),
            open_meta: ChunkMeta::summarize(&[]),
            metas: Vec::new(),
            total_events: 0,
            raw_bytes: 0,
            finished: false,
        })
    }

    /// Append one event; seals and writes a chunk whenever the raw
    /// encoding crosses the chunk target.
    pub fn append(&mut self, event: &TraceEvent) -> io::Result<()> {
        assert!(!self.finished, "append after finish");
        self.builder
            .push(event)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.message))?;
        self.open_meta.observe(event);
        self.open_meta.events += 1;
        self.total_events += 1;
        if self.builder.encoded_len() >= self.chunk_target {
            self.seal_chunk()?;
        }
        Ok(())
    }

    /// Number of chunks sealed so far (for the pipelined sink this
    /// counts chunks handed to the pool, including in-flight ones).
    pub fn chunks_written(&self) -> usize {
        match &self.sink {
            Sink::Pipelined(p) => p.next_seq as usize,
            _ => self.metas.len(),
        }
    }

    fn seal_chunk(&mut self) -> io::Result<()> {
        if self.open_meta.events == 0 {
            return Ok(());
        }
        let meta = std::mem::replace(&mut self.open_meta, ChunkMeta::summarize(&[]));
        let raw = self.builder.serialize();
        self.raw_bytes += raw.len() as u64;
        match &mut self.sink {
            Sink::Inline { out, pos } => {
                let (payload, compression, payload_crc, meta) = compress_chunk(raw, meta);
                let (meta, new_pos) =
                    write_framed_chunk(out, *pos, &payload, compression, payload_crc, meta)?;
                *pos = new_pos;
                self.metas.push(meta);
                Ok(())
            }
            Sink::Pipelined(p) => {
                let seq = p.next_seq;
                let jobs = p.jobs.as_ref().expect("pipeline already drained");
                if jobs.send(Job { seq, raw, meta }).is_err() {
                    // The committer died (an I/O error); surface its
                    // real error by draining now.
                    self.drain_pipeline()?;
                    return Err(io::Error::other(
                        "chunk pipeline disconnected without reporting an error",
                    ));
                }
                p.next_seq = seq + 1;
                Ok(())
            }
            Sink::Draining => unreachable!("seal while draining"),
        }
    }

    /// Seal the open chunk and, for a pipelined writer, wait for every
    /// in-flight chunk to be compressed and committed. Afterwards the
    /// writer behaves like an inline one (the footer path).
    pub(crate) fn seal_events(&mut self) -> io::Result<()> {
        self.seal_chunk()?;
        self.drain_pipeline()
    }

    fn drain_pipeline(&mut self) -> io::Result<()> {
        if matches!(self.sink, Sink::Pipelined(_)) {
            let Sink::Pipelined(p) = std::mem::replace(&mut self.sink, Sink::Draining) else {
                unreachable!()
            };
            let sealed = p.next_seq;
            let done = p.join()?;
            assert_eq!(done.metas.len() as u64, sealed, "committer lost chunks");
            debug_assert!(self.metas.is_empty());
            self.metas = done.metas;
            debug_assert_eq!(self.raw_bytes, done.raw_bytes);
            self.sink = Sink::Inline { out: done.out, pos: done.pos };
        }
        Ok(())
    }

    /// Seal the open chunk, append the header blob + footer index +
    /// trailer, fsync, and atomically rename the temp file onto the
    /// final path (then fsync the directory). Only a `finish` that
    /// returns `Ok` puts a file at the final path; every earlier
    /// failure leaves the destination untouched. `trace_for_header`
    /// contributes only its header sections; its event list is ignored
    /// (the streamed chunks are the record of truth).
    pub fn finish(&mut self, trace_for_header: &Trace) -> io::Result<StoreSummary> {
        assert!(!self.finished, "finish called twice");
        self.seal_events()?;
        let Sink::Inline { out, pos } = &mut self.sink else {
            unreachable!("seal_events leaves an inline sink")
        };

        // Header blob: the text header behind a compression byte,
        // closed by a CRC32C of both.
        let header_text = mempersp_extrae::trace_format::header_sections(trace_for_header);
        let header_raw = header_text.as_bytes();
        let header_lz = lz::compress(header_raw);
        let header_off = *pos;
        let (blob, code): (&[u8], u8) = if header_lz.len() < header_raw.len() {
            (&header_lz, Compression::Lz.code())
        } else {
            (header_raw, Compression::Raw.code())
        };
        let header_crc = Crc32c::new().chain(&[code]).chain(blob).finish();
        out.write_all(&[code])?;
        out.write_all(blob)?;
        out.write_all(&header_crc.to_le_bytes())?;
        *pos += 1 + blob.len() as u64 + 4;

        // Footer index, checksummed as one unit.
        let index_off = *pos;
        let mut index = Vec::with_capacity(self.metas.len() * 48 + 32);
        crate::varint::put_u64(&mut index, self.metas.len() as u64);
        for m in &self.metas {
            m.encode(&mut index);
        }
        crate::varint::put_u64(&mut index, header_off);
        crate::varint::put_u64(&mut index, header_raw.len() as u64);
        crate::varint::put_u64(&mut index, blob.len() as u64);
        out.write_all(&index)?;

        // Fixed-size trailer so a reader can find the index from EOF.
        out.write_all(&index_off.to_le_bytes())?;
        out.write_all(&crc32c(&index).to_le_bytes())?;
        out.write_all(TRAILER_MAGIC)?;
        out.flush()?;

        // Durability, then atomicity: contents hit stable storage
        // before the rename publishes them, and the directory fsync
        // makes the new name itself survive a crash.
        out.get_mut().sync_all()?;
        if let Some(t) = &self.target {
            std::fs::rename(&t.tmp, &t.dest).map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!("renaming {} -> {}: {e}", t.tmp.display(), t.dest.display()),
                )
            })?;
            sync_parent_dir(&t.dest)?;
        }
        self.finished = true;

        Ok(StoreSummary {
            events: self.total_events,
            chunks: self.metas.len() as u64,
            raw_bytes: self.raw_bytes,
            stored_bytes: self.metas.iter().map(|m| m.stored_len as u64).sum(),
        })
    }

    /// Walk away from an unfinished write *keeping* the temp file on
    /// disk — what a `kill -9` leaves behind. Returns the temp path
    /// (None if the writer already finished). Test harnesses pair this
    /// with [`crate::fault::FailingFile`] kill offsets and then point
    /// `recover` at the returned path.
    pub fn abandon(mut self) -> Option<PathBuf> {
        let _ = self.drain_pipeline();
        self.finished = true; // disarm the Drop cleanup
        self.target.take().map(|t| t.tmp)
    }
}

impl Drop for StoreWriter {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        // An abandoned-by-error writer: release the file (the
        // committer thread may still hold it) and remove the orphaned
        // temp so failed runs don't litter the trace directory.
        let _ = self.drain_pipeline();
        self.sink = Sink::Draining;
        if let Some(t) = &self.target {
            let _ = std::fs::remove_file(&t.tmp);
        }
    }
}

impl EventSink for StoreWriter {
    fn append_event(&mut self, event: &TraceEvent) -> io::Result<()> {
        self.append(event)
    }

    fn finish(&mut self, trace_for_header: &Trace) -> io::Result<()> {
        StoreWriter::finish(self, trace_for_header).map(|_| ())
    }
}

/// Write a complete in-memory trace as a store file.
pub fn write_store(path: &Path, trace: &Trace) -> io::Result<StoreSummary> {
    write_store_chunked(path, trace, DEFAULT_CHUNK_BYTES)
}

/// [`write_store`] with an explicit chunk target.
pub fn write_store_chunked(path: &Path, trace: &Trace, chunk_target: usize) -> io::Result<StoreSummary> {
    write_store_with(path, trace, chunk_target, 1)
}

/// [`write_store_chunked`] with a compressor pool of `threads`.
pub fn write_store_with(
    path: &Path,
    trace: &Trace,
    chunk_target: usize,
    threads: usize,
) -> io::Result<StoreSummary> {
    let mut w = StoreWriter::with_threads(path, chunk_target, threads)?;
    for e in &trace.events {
        w.append(e)?;
    }
    w.finish(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_extrae::tracer::{Tracer, TracerConfig};
    use mempersp_pebs::CounterSnapshot;

    fn trace(n: u64) -> Trace {
        let mut t = Tracer::new(TracerConfig::default(), 2);
        let c = CounterSnapshot::from_values([9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2]);
        for i in 0..n {
            t.enter((i % 2) as usize, "R", c, i * 10);
            t.exit((i % 2) as usize, "R", c, i * 10 + 5);
        }
        t.finish("writer test")
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mempersp_store_w_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn file_shape_magic_frames_and_trailer() {
        let path = tmp("shape.mps");
        let t = trace(2000);
        let s = write_store_chunked(&path, &t, 4096).unwrap();
        assert_eq!(s.events, 4000);
        assert!(s.chunks > 1, "small target forces multiple chunks, got {}", s.chunks);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], MAGIC);
        assert_eq!(&bytes[bytes.len() - 8..], TRAILER_MAGIC);
        let index_off = u64::from_le_bytes(
            bytes[bytes.len() - TRAILER_LEN..bytes.len() - TRAILER_LEN + 8].try_into().unwrap(),
        );
        assert!((index_off as usize) < bytes.len() - TRAILER_LEN);
        let index_crc = u32::from_le_bytes(
            bytes[bytes.len() - 12..bytes.len() - 8].try_into().unwrap(),
        );
        assert_eq!(index_crc, crc32c(&bytes[index_off as usize..bytes.len() - TRAILER_LEN]));
        // The first chunk frame sits right behind the magic and
        // self-validates.
        let frame = ChunkFrame::decode(&bytes[8..8 + FRAME_LEN]).unwrap();
        assert!(frame.events > 0);
        assert_eq!(frame.payload_crc, crc32c(&bytes[8 + FRAME_LEN..8 + FRAME_LEN + frame.stored_len as usize]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compression_pays_off_on_repetitive_traces() {
        let path = tmp("ratio.mps");
        let t = trace(5000);
        let s = write_store(&path, &t).unwrap();
        assert!(
            s.stored_bytes < s.raw_bytes,
            "LZ pass should shrink repetitive region events: {} vs {}",
            s.stored_bytes,
            s.raw_bytes
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trace_still_produces_valid_container() {
        let path = tmp("empty.mps");
        let t = Tracer::new(TracerConfig::default(), 1).finish("empty");
        let s = write_store(&path, &t).unwrap();
        assert_eq!(s.events, 0);
        assert_eq!(s.chunks, 0);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[bytes.len() - 8..], TRAILER_MAGIC);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pipelined_writer_is_byte_identical_to_inline() {
        let t = trace(6000);
        let inline = tmp("pipe_inline.mps");
        let s1 = write_store_with(&inline, &t, 4096, 1).unwrap();
        let inline_bytes = std::fs::read(&inline).unwrap();
        for threads in [2, 3, 8] {
            let path = tmp(&format!("pipe_{threads}.mps"));
            let s = write_store_with(&path, &t, 4096, threads).unwrap();
            assert_eq!(s, s1, "summary must not depend on threads");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                inline_bytes,
                "threads={threads} produced different bytes"
            );
            std::fs::remove_file(&path).ok();
        }
        assert!(s1.chunks >= 8, "want many in-flight chunks, got {}", s1.chunks);
        std::fs::remove_file(&inline).ok();
    }

    #[test]
    fn pipelined_empty_trace() {
        let path = tmp("pipe_empty.mps");
        let t = Tracer::new(TracerConfig::default(), 1).finish("empty");
        let mut w = StoreWriter::with_threads(&path, 4096, 4).unwrap();
        let s = w.finish(&t).unwrap();
        assert_eq!((s.events, s.chunks), (0, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn finish_leaves_no_temp_file() {
        let path = tmp("atomic.mps");
        let t = trace(500);
        write_store(&path, &t).unwrap();
        assert!(path.exists());
        assert!(!tmp_path(&path).exists(), "finish must clean up the temp file via rename");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dropped_writer_removes_orphaned_temp_and_final_path_stays_absent() {
        let path = tmp("dropped.mps");
        std::fs::remove_file(&path).ok();
        let t = trace(500);
        {
            let mut w = StoreWriter::with_threads(&path, 2048, 2).unwrap();
            for e in &t.events {
                w.append(e).unwrap();
            }
            assert!(tmp_path(&path).exists(), "unfinished bytes live in the temp file");
            // No finish: simulate an in-process error path unwinding.
        }
        assert!(!tmp_path(&path).exists(), "Drop must remove the orphaned temp");
        assert!(!path.exists(), "an unfinished write must never appear at the final path");
    }

    #[test]
    fn abandon_keeps_the_temp_for_salvage() {
        let path = tmp("abandoned.mps");
        std::fs::remove_file(&path).ok();
        let t = trace(500);
        let mut w =
            StoreWriter::new(&path, WriterOptions { chunk_target: 1024, ..Default::default() }).unwrap();
        for e in &t.events {
            w.append(e).unwrap();
        }
        let tmp_file = w.abandon().unwrap();
        assert!(tmp_file.exists(), "abandon keeps the torn temp file");
        assert!(!path.exists());
        std::fs::remove_file(&tmp_file).ok();
    }
}

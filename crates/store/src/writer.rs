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
//! post-mortem. Each chunk is compressed and written on the caller's
//! thread the moment it seals, so the writer holds one open chunk.
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

use crate::chunk::{ChunkFrame, ChunkMeta, Compression, FRAME_LEN};
use crate::codec::ChunkBuilderV4;
use crate::crc::{crc32c, Crc32c};
use crate::fault::StoreFile;
use crate::lz;
use mempersp_extrae::events::TraceEvent;
use mempersp_extrae::stream_writer::{publish, tmp_path, EventSink};
use mempersp_extrae::tracer::Trace;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Leading file magic. The eighth byte is the format version; the
/// reader names any other `MPSTORE?` version in its rejection.
pub const MAGIC: &[u8; 8] = b"MPSTORE4";
/// Trailing file magic (after the index offset + index CRC).
pub const TRAILER_MAGIC: &[u8; 8] = b"MPSEND04";
/// Trailer size: index_off u64le + index CRC32C + magic.
pub const TRAILER_LEN: usize = 20;
/// Default target for one chunk's *raw* encoded payload.
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

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
/// bytes.
fn compress_chunk(raw: Vec<u8>, mut meta: ChunkMeta) -> (Vec<u8>, Compression, u32, ChunkMeta) {
    meta.raw_len = raw.len() as u32;
    let (payload, compression) = match lz::compress(&raw, raw.len() - raw.len() / MIN_COMPRESS_DENOM) {
        Some(compressed) => (compressed, Compression::Lz),
        None => (raw, Compression::Raw),
    };
    let payload_crc = crc32c(&payload);
    (payload, compression, payload_crc, meta)
}

/// Write one framed chunk at `pos`, returning the finalized meta and
/// the new position.
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

/// Where the finished bytes land: the temp file they stream into and
/// the final path `finish` renames onto.
struct Target {
    tmp: PathBuf,
    dest: PathBuf,
}

/// Streaming writer of the chunked binary container.
pub struct StoreWriter {
    out: io::BufWriter<Box<dyn StoreFile>>,
    /// File offset of the next byte `out` writes.
    pos: u64,
    target: Option<Target>,
    chunk_target: usize,
    /// Columnar encoder of the open chunk.
    builder: ChunkBuilderV4,
    /// Summary of the open chunk.
    open_meta: ChunkMeta,
    /// Sealed-chunk index entries, in file order.
    metas: Vec<ChunkMeta>,
    total_events: u64,
    raw_bytes: u64,
    finished: bool,
}

impl StoreWriter {
    /// Create a store at `path` whose chunks seal once their raw
    /// encoding reaches `chunk_target` bytes (floored at 1 KiB; tests
    /// use small targets to force many chunks from small traces).
    /// Bytes stream into `<path>.tmp` until [`StoreWriter::finish`]
    /// renames it into place.
    pub fn new(path: &Path, chunk_target: usize) -> io::Result<StoreWriter> {
        let tmp = tmp_path(path);
        let file = std::fs::File::create(&tmp).map_err(|e| {
            io::Error::new(e.kind(), format!("creating store {}: {e}", tmp.display()))
        })?;
        Self::with_backend(Box::new(file), tmp, path.to_path_buf(), chunk_target)
    }

    /// [`StoreWriter::new`] for callers that still name a thread count,
    /// which must be 1: the writer has no compressor threads. Kept only
    /// because `benchmark/` calls it; ROADMAP item 1(a) deletes it.
    pub fn with_threads(path: &Path, chunk_target: usize, threads: usize) -> io::Result<StoreWriter> {
        assert!(threads <= 1, "the store writer is single-threaded (asked for {threads} threads)");
        Self::new(path, chunk_target)
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
        chunk_target: usize,
    ) -> io::Result<StoreWriter> {
        let mut out = io::BufWriter::new(file);
        if let Err(e) = out.write_all(MAGIC).and_then(|()| out.flush()) {
            drop(out);
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(StoreWriter {
            out,
            pos: MAGIC.len() as u64,
            target: Some(Target { tmp, dest }),
            chunk_target: chunk_target.max(1024),
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

    /// Compress and write the open chunk, if it holds any event.
    pub(crate) fn seal_chunk(&mut self) -> io::Result<()> {
        if self.open_meta.events == 0 {
            return Ok(());
        }
        let meta = std::mem::replace(&mut self.open_meta, ChunkMeta::summarize(&[]));
        let raw = self.builder.serialize();
        self.raw_bytes += raw.len() as u64;
        let (payload, compression, payload_crc, meta) = compress_chunk(raw, meta);
        let (meta, pos) =
            write_framed_chunk(&mut self.out, self.pos, &payload, compression, payload_crc, meta)?;
        self.pos = pos;
        self.metas.push(meta);
        Ok(())
    }

    /// Seal the open chunk, append the header blob + footer index +
    /// trailer, fsync, and [`publish`] the temp file at the final path.
    /// Only a `finish` that returns `Ok` puts a file at the final path;
    /// every earlier failure leaves the destination untouched. `trace_for_header`
    /// contributes only its header sections; its event list is ignored
    /// (the streamed chunks are the record of truth).
    pub fn finish(&mut self, trace_for_header: &Trace) -> io::Result<StoreSummary> {
        assert!(!self.finished, "finish called twice");
        self.seal_chunk()?;
        let out = &mut self.out;

        // Header blob: the text header behind a compression byte,
        // closed by a CRC32C of both.
        let header_text = mempersp_extrae::trace_format::header_sections(trace_for_header);
        let header_raw = header_text.as_bytes();
        // LZ only when strictly shorter.
        let header_lz = header_raw.len().checked_sub(1).and_then(|limit| lz::compress(header_raw, limit));
        let header_off = self.pos;
        let (blob, code): (&[u8], u8) = match &header_lz {
            Some(packed) => (packed, Compression::Lz.code()),
            None => (header_raw, Compression::Raw.code()),
        };
        let header_crc = Crc32c::new().chain(&[code]).chain(blob).finish();
        out.write_all(&[code])?;
        out.write_all(blob)?;
        out.write_all(&header_crc.to_le_bytes())?;
        self.pos += 1 + blob.len() as u64 + 4;

        // Footer index, checksummed as one unit.
        let index_off = self.pos;
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

        // The fsync goes through the backing file first, so a failed
        // one strands a byte-complete temp file for `abandon` and
        // `recover`; `publish`'s own fsync then finds nothing to write.
        out.get_mut().sync_all()?;
        if let Some(t) = &self.target {
            publish(&t.tmp, &t.dest)?;
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
        self.finished = true; // disarm the Drop cleanup
        self.target.take().map(|t| t.tmp)
    }
}

impl Drop for StoreWriter {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        // An abandoned-by-error writer: remove the orphaned temp so
        // failed runs don't litter the trace directory.
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

/// Write a complete in-memory trace as a store file with an explicit
/// chunk target.
pub fn write_store_chunked(path: &Path, trace: &Trace, chunk_target: usize) -> io::Result<StoreSummary> {
    let mut w = StoreWriter::new(path, chunk_target)?;
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
        let s = write_store_chunked(&path, &t, DEFAULT_CHUNK_BYTES).unwrap();
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
        let s = write_store_chunked(&path, &t, DEFAULT_CHUNK_BYTES).unwrap();
        assert_eq!(s.events, 0);
        assert_eq!(s.chunks, 0);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[bytes.len() - 8..], TRAILER_MAGIC);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn finish_leaves_no_temp_file() {
        let path = tmp("atomic.mps");
        let t = trace(500);
        write_store_chunked(&path, &t, DEFAULT_CHUNK_BYTES).unwrap();
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
            let mut w = StoreWriter::new(&path, 2048).unwrap();
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
        let mut w = StoreWriter::new(&path, 1024).unwrap();
        for e in &t.events {
            w.append(e).unwrap();
        }
        let tmp_file = w.abandon().unwrap();
        assert!(tmp_file.exists(), "abandon keeps the torn temp file");
        assert!(!path.exists());
        std::fs::remove_file(&tmp_file).ok();
    }
}

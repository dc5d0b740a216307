//! Chunked, indexed binary trace store with cached out-of-core
//! queries.
//!
//! The text `.prv` container the rest of the workspace emits is easy
//! to inspect but expensive to analyze: every query re-parses the
//! whole file. This crate adds a second container, `.mps`, built for
//! the access pattern the memory-perspective analyses actually have —
//! selective reads (one region, one object, one time window) over
//! traces too large to keep parsed in memory:
//!
//! - [`codec`] — columnar chunk encoding: tag/timestamp/core columns
//!   plus per-field payload columns for each event class, all
//!   stream-vbyte ([`svb`], SIMD-decoded), scanned through a selection
//!   vector — built 64 rows at a time from per-class bit masks — so
//!   only matching rows are decoded; [`lz`] — an in-tree LZ77 pass
//!   over each chunk.
//! - [`writer`] — [`writer::StoreWriter`] streams events into ~64 KiB
//!   chunks, compressing and appending each on the caller's thread as
//!   it seals (O(chunk) memory), and seals the file with a footer
//!   index + header blob. It implements
//!   `mempersp_extrae::stream_writer::EventSink`, so a simulation run
//!   streams straight into it.
//! - [`chunk`] — the per-chunk [`chunk::ChunkMeta`] footer entry:
//!   time range, core bitmap, event-kind bitmap, object-id range.
//! - [`reader`] — [`reader::StoreReader`] `mmap`s one file
//!   ([`mmap`]) and answers `mempersp_extrae::query::Query`s by
//!   pruning chunks against the footer (predicate pushdown), decoding
//!   survivors zero-copy from the mapping (raw chunks) or through the
//!   sharded byte-block [`cache`] (LZ chunks).
//! - [`shard`] — one logical trace spread over
//!   `trace.mps.d/shard-NNNN.mps` files behind a manifest: the writer
//!   and the manifest.
//! - [`source`] — [`source::MpsSource`], a store opened for reading:
//!   the list of its files (one for a `.mps`, the shards of a
//!   `.mps.d`) behind one API and the `TraceSource` trait;
//!   [`source::open_trace_source`] sniffs the path and serves `.prv`
//!   text the same way.
//!
//! # Reading a store
//!
//! The whole read surface, for a file ([`StoreReader`]) and for a
//! store ([`MpsSource`]) alike:
//!
//! - **two opens** — `open(path)` (strict, checksums verified) and
//!   `open_with_options(path, mode, verify)`. The [`RecoveryMode`] and
//!   whether payload CRCs are verified are fixed for the life of the
//!   reader; the block cache has one size. [`open_trace_source`] opens
//!   any container ([`sniff_store`] tells a store from a `.prv`).
//! - **one scan** — `scan_batches_cancel(&Query, &page, &CancelToken,
//!   sink)` hands the sink one column batch per surviving chunk, in
//!   stored order, checking the token at every chunk boundary. `page`
//!   is a range of match ranks ([`ALL_MATCHES`] for everything): the
//!   batches carry those matches only and payload is decoded for
//!   those only, while `ScanStats::events_matched` counts them all.
//! - **rows on top of it**, for an [`MpsSource`] only —
//!   [`MpsSource::query`] materializes the matches,
//!   `TraceSource::materialize`/`filtered` the whole or a filtered
//!   trace. Every read runs on the caller's thread; concurrent readers
//!   share one [`StoreReader`] through `&self`.
//! - **verification** — [`StoreReader::verify_all`] checks every
//!   chunk's frame, CRC and decode whatever `verify` said.
//! - **accessors** — `chunks`, `num_events`, `header`/`store_header`,
//!   `header_intact`, `format_version`, `damage_report`,
//!   `cache_stats`, `chunks_decoded_total`, `scratch_allocs_total`;
//!   [`MpsSource::shards`], [`MpsSource::num_shards`] and
//!   [`MpsSource::reader`] (the one reader of a single-file store).
//!
//! The repo benchmark (`benchmark/`, which a PR may not edit) compiles
//! against `MpsSource::{open, open_with_options, query, store_header,
//! cache_stats, reader}`, `TraceSource::{filtered, materialize}` for
//! `MpsSource`, `StoreReader::{verify_all, chunks, cache_stats,
//! scratch_allocs_total}`, `StoreWriter::{with_threads, append,
//! finish}` (`with_threads` with a count of 1 only),
//! `write_store_chunked`, `DEFAULT_CHUNK_BYTES` and
//! `svb::{encode_column, zigzag, SvbColumn}`: those signatures are
//! pinned.
//!
//! Round-trip guarantee: the store keeps the exact
//! `header_sections()` text of the originating trace, and the chunk
//! codec is lossless, so `prv → mps → prv` reproduces the text trace
//! byte-identically.
//!
//! # Durability
//!
//! There is one on-disk format (`MPSTORE4`), and it is crash-safe end
//! to end:
//!
//! - [`crc`] — in-tree CRC32C (SSE4.2-accelerated) checksums every
//!   chunk frame, chunk payload, the header blob and the footer
//!   index, so truncation and bit-rot are detectable *per chunk*.
//! - Every chunk is preceded by a self-delimiting
//!   [`chunk::ChunkFrame`], so a file whose footer never hit the disk
//!   is recoverable by forward-scanning the frames.
//! - The writer finalizes atomically: `<path>.tmp` + fsync + rename +
//!   parent-dir fsync. A crashed write leaves no file at the final
//!   path, and a sharded trace's manifest commits last.
//! - [`reader::RecoveryMode::Salvage`] reads degrade gracefully —
//!   damaged chunks are skipped and reported, not fatal.
//! - [`recover`] — `fsck` (full verification + damage map) and
//!   `recover` (salvage into a clean store) engines.
//! - [`fault`] — deterministic IO fault injection ([`fault::FailingFile`])
//!   driving the durability test suite.
//!
//! Files of the three earlier formats (`MPSTORE1`–`3`) are rejected at
//! open with an error naming their version; regenerate them.

pub mod cache;
pub mod cancel;
pub mod chunk;
pub mod codec;
pub mod crc;
pub mod fault;
pub mod lz;
pub mod mmap;
pub mod reader;
pub mod recover;
mod select;
pub mod shard;
pub mod source;
pub mod svb;
pub mod varint;
pub mod writer;

pub use cache::{CacheStats, ShardedCache};
pub use cancel::CancelToken;
pub use chunk::{ChunkFrame, ChunkMeta, Compression, FRAME_LEN};
pub use codec::ALL_MATCHES;
pub use crc::{crc32c, Crc32c};
pub use fault::{FailingFile, FaultConfig, FaultPlan, StoreFile};
pub use reader::{ChunkDamage, RecoveryMode, StoreReader};
pub use recover::{check_clobber, fsck_store, recover_store, FsckReport, RecoverReport};
pub use shard::{write_store_sharded, ShardedWriter, DEFAULT_EVENTS_PER_SHARD, SHARD_DIR_SUFFIX};
pub use source::{open_trace_source, sniff_store, MpsSource};
pub use svb::{detected_simd_level, simd_level, simd_level_name, SimdLevel};
pub use varint::CodecError;
pub use writer::{write_store_chunked, StoreSummary, StoreWriter, DEFAULT_CHUNK_BYTES};

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
//!   vector so only matching rows are decoded; [`lz`] — an in-tree
//!   LZ77 pass over each chunk.
//! - [`writer`] — [`writer::StoreWriter`] streams events into ~64 KiB
//!   chunks, appending as it goes (O(chunk) memory), optionally
//!   compressing on a bounded worker pool with deterministic in-order
//!   commit, and seals the file with a footer index + header blob. It
//!   implements `mempersp_extrae::stream_writer::EventSink`, so a live
//!   `StreamWriter` run can tee a binary store next to its text trace.
//! - [`chunk`] — the per-chunk [`chunk::ChunkMeta`] footer entry:
//!   time range, core bitmap, event-kind bitmap, object-id range.
//! - [`reader`] — [`reader::StoreReader`] `mmap`s the file
//!   ([`mmap`]) and answers `mempersp_extrae::query::Query`s by
//!   pruning chunks against the footer (predicate pushdown), decoding
//!   survivors zero-copy from the mapping (raw chunks) or through the
//!   sharded byte-block [`cache`] (LZ chunks), optionally in parallel.
//! - [`shard`] — one logical trace spread over
//!   `trace.mps.d/shard-NNNN.mps` files behind a manifest; queries
//!   fan out across shards.
//! - [`source`] — [`source::MpsSource`] plugs single-file and sharded
//!   stores into the `TraceSource` trait;
//!   [`source::open_trace_source`] sniffs the path and serves `.prv`
//!   text the same way.
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
pub mod shard;
pub mod source;
pub mod svb;
pub mod varint;
pub mod writer;

pub use cache::{CacheConfig, CacheStats, ShardedCache};
pub use cancel::CancelToken;
pub use chunk::{ChunkFrame, ChunkMeta, Compression, FRAME_LEN};
pub use crc::{crc32c, Crc32c};
pub use fault::{FailingFile, FaultConfig, FaultPlan, StoreFile};
pub use reader::{ChunkDamage, RecoveryMode, StoreReader, PARALLEL_MIN_CHUNKS};
pub use recover::{check_clobber, fsck_store, recover_store, FsckReport, RecoverReport};
pub use shard::{
    write_store_sharded, ShardedReader, ShardedWriter, DEFAULT_EVENTS_PER_SHARD, SHARD_DIR_SUFFIX,
};
pub use source::{open_trace_source, open_trace_source_with, MpsSource};
pub use svb::{detected_simd_level, simd_level, simd_level_name, SimdLevel};
pub use varint::CodecError;
pub use writer::{
    write_store, write_store_chunked, write_store_with, StoreSummary, StoreWriter, WriterOptions,
    DEFAULT_CHUNK_BYTES, DEFAULT_INFLIGHT_PER_THREAD,
};

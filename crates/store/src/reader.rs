//! The out-of-core store reader.
//!
//! [`StoreReader::open`] maps the whole file ([`crate::mmap`]) and
//! parses only the footer — the fixed trailer, the chunk index and the
//! (small) header blob; chunk payloads stay untouched pages until a
//! query needs them. Every chunk's offset/length is validated against
//! the file bounds up front, so a corrupt index is an open error, not
//! a scan-time panic.
//!
//! [`StoreReader::query`] walks the index, skips every chunk whose
//! [`ChunkMeta`] proves it cannot match, and scans the survivors:
//!
//! - **Raw chunks** decode straight out of the mapping — zero copies,
//!   zero cache traffic.
//! - **LZ chunks** decompress into the sharded byte-block
//!   [`cache`](crate::cache); repeat queries reuse the decompressed
//!   block. `chunks_decoded` counts paid decompressions,
//!   `chunks_cached` covers both cache hits and raw-from-mapping
//!   chunks (neither pays a decompression).
//!
//! Every read is one scan, [`StoreReader::scan_batches_cancel`];
//! [`StoreReader::query`] and [`StoreReader::materialize`] build rows
//! on top of it. The parallel scan lives one level up, in
//! [`crate::source::MpsSource::query_parallel`], which spreads the
//! surviving chunks of every file of a store over worker threads.
//!
//! # Integrity and recovery
//!
//! A store checksums everything (see [`crate::writer`]). On the read
//! side that shows up twice:
//!
//! - Each chunk's payload CRC32C is verified **lazily**, the first
//!   time a query touches the chunk, and the verdict is memoized — a
//!   warm scan re-pays nothing. Opening with `verify = false`
//!   ([`StoreReader::open_with_options`]) waives the check for
//!   benchmarking (`query --no-verify`); [`StoreReader::verify_all`]
//!   checks every chunk regardless.
//! - [`RecoveryMode`] picks the failure policy.
//!   [`RecoveryMode::Strict`] (the default) fails closed: corruption
//!   is an error. [`RecoveryMode::Salvage`] degrades: damaged chunks
//!   are skipped and reported ([`StoreReader::damage_report`], the
//!   `chunks_damaged` count in [`ScanStats`]), and a file whose
//!   footer never made it to disk (a killed run) is recovered by
//!   forward-scanning the self-delimiting chunk frames.

use crate::cache::{CacheConfig, CacheStats, ShardedCache};
use crate::cancel::CancelToken;
use crate::chunk::{ChunkFrame, ChunkMeta, Compression, FRAME_LEN};
use crate::codec::{select_v4, DecodeScratch, ALL_MATCHES};
use crate::crc::{crc32c, Crc32c};
use crate::lz;
use crate::mmap::Mapping;
use crate::varint::get_u64;
use crate::writer::{MAGIC, TRAILER_LEN, TRAILER_MAGIC};
use mempersp_extrae::batch::EventBatch;
use mempersp_extrae::events::TraceEvent;
use mempersp_extrae::query::Query;
use mempersp_extrae::trace_source::ScanStats;
use mempersp_extrae::tracer::{Trace, TraceMeta};
use std::collections::BTreeSet;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Upper bound on one chunk's claimed raw payload — a corrupt or
/// hostile index must not turn into a multi-gigabyte allocation.
const MAX_CHUNK_RAW: u32 = 256 * 1024 * 1024;

/// Upper bound on the header blob's claimed raw size, same rationale.
const MAX_HEADER_RAW: usize = 256 * 1024 * 1024;

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// What the reader does when it meets corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Fail closed: any checksum mismatch, truncation or decode error
    /// is an `InvalidData` error.
    #[default]
    Strict,
    /// Degrade gracefully: skip damaged chunks (recording them in the
    /// damage report and `ScanStats::chunks_damaged`), and recover a
    /// footer-less file by forward-scanning its chunk frames.
    Salvage,
}

/// One diagnosed defect in a store file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkDamage {
    /// Chunk index for chunk-scoped damage; `None` for file-level
    /// damage (trailer, footer index, header blob).
    pub chunk: Option<usize>,
    /// File offset of the damaged region (the chunk payload, or 0 for
    /// file-level damage discovered from the trailer).
    pub offset: u64,
    pub reason: String,
}

impl ChunkDamage {
    /// Chunk-scoped damage. Error strings from the scan path already
    /// carry a "chunk N: " prefix; Display adds its own.
    fn of_chunk(chunk: usize, offset: u64, reason: String) -> ChunkDamage {
        let prefix = format!("chunk {chunk}: ");
        let reason = reason.strip_prefix(&prefix).map(str::to_string).unwrap_or(reason);
        ChunkDamage { chunk: Some(chunk), offset, reason }
    }
}

impl std::fmt::Display for ChunkDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.chunk {
            Some(i) => write!(f, "chunk {i} @ offset {}: {}", self.offset, self.reason),
            None => write!(f, "file: {}", self.reason),
        }
    }
}

/// Per-chunk verification memo states.
const VERIFY_UNKNOWN: u8 = 0;
const VERIFY_OK: u8 = 1;
const VERIFY_BAD: u8 = 2;

/// One chunk's raw (decompressed) payload — either borrowed from the
/// mapping (raw chunks, zero-copy) or shared out of the block cache
/// (LZ chunks).
enum ChunkData<'a> {
    Mapped(&'a [u8]),
    Cached(Arc<Vec<u8>>),
}

impl std::ops::Deref for ChunkData<'_> {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        match self {
            ChunkData::Mapped(s) => s,
            ChunkData::Cached(a) => a,
        }
    }
}

/// Damage found so far: deduplicated per chunk so repeated queries
/// over a bad chunk report it once.
#[derive(Default)]
struct DamageLog {
    seen: BTreeSet<usize>,
    list: Vec<ChunkDamage>,
}

impl DamageLog {
    fn record_file(&mut self, offset: u64, reason: String) {
        self.list.push(ChunkDamage { chunk: None, offset, reason });
    }

    fn record_chunk(&mut self, chunk: usize, offset: u64, reason: String) {
        if self.seen.insert(chunk) {
            self.list.push(ChunkDamage::of_chunk(chunk, offset, reason));
        }
    }
}

/// The parsed footer of a healthy store.
struct FooterInfo {
    metas: Vec<ChunkMeta>,
    header_off: usize,
    header_raw_len: usize,
    header_stored_len: usize,
}

/// A store opened for querying. Cheap to open; thread-safe (`&self`
/// queries may run concurrently).
pub struct StoreReader {
    map: Mapping,
    mode: RecoveryMode,
    /// Verify payload checksums on first touch? Fixed at open
    /// (`--no-verify` turns this off for benchmarking).
    verify: bool,
    metas: Vec<ChunkMeta>,
    /// Memoized per-chunk CRC verdicts: unknown / ok / bad.
    verified: Vec<AtomicU8>,
    /// Parsed header: meta, region names, symbols, objects,
    /// resolution — with an empty event list.
    header: Trace,
    /// Was the header blob readable (vs. synthesized by salvage)?
    header_intact: bool,
    damage: Mutex<DamageLog>,
    cache: ShardedCache,
    /// Lifetime count of chunk payloads actually decompressed (cache
    /// misses on LZ chunks); the acceptance counter for "decoded
    /// strictly fewer chunks than a full scan".
    decoded_total: AtomicU64,
    /// Reusable [`DecodeScratch`]es: every scan path borrows one here
    /// and returns it, so a reader's steady state allocates zero
    /// scratches per query regardless of chunk count.
    scratch_pool: Mutex<Vec<DecodeScratch>>,
    /// Lifetime count of scratches actually constructed (pool misses);
    /// the bench's allocation-count report.
    scratch_allocs: AtomicU64,
}

/// The header a salvage open serves when the real one never reached
/// the disk: structurally valid, visibly synthetic.
fn salvage_header() -> Trace {
    Trace {
        meta: TraceMeta {
            freq_mhz: 2500,
            num_cores: 1,
            aslr_slide: 0,
            description: "salvaged store (header lost)".into(),
        },
        events: Vec::new(),
        source: Default::default(),
        objects: Default::default(),
        region_names: Vec::new(),
        resolution: Default::default(),
    }
}

impl StoreReader {
    /// Open in strict mode with checksum verification on.
    pub fn open(path: &Path) -> io::Result<StoreReader> {
        Self::open_with_options(path, RecoveryMode::Strict, true)
    }

    /// Open with an explicit [`RecoveryMode`] and lazy payload-CRC
    /// verification on or off. Both are facts of the reader from here
    /// on; the block cache is sized by [`CacheConfig::default`].
    pub fn open_with_options(
        path: &Path,
        mode: RecoveryMode,
        verify: bool,
    ) -> io::Result<StoreReader> {
        let file = std::fs::File::open(path).map_err(|e| {
            io::Error::new(e.kind(), format!("opening store {}: {e}", path.display()))
        })?;
        let len = file.metadata()?.len();
        if len < MAGIC.len() as u64 {
            return Err(bad_data(format!("{}: too short for a store file", path.display())));
        }
        let map = Mapping::of_file(&file, len)?;
        drop(file); // the mapping outlives the descriptor
        let bytes = map.bytes();

        check_magic(bytes, path)?;

        let mut damage = DamageLog::default();
        let mut verified: Vec<AtomicU8> = Vec::new();
        let (metas, header, header_intact) = match parse_footer(bytes, path) {
            Ok(footer) => {
                let header = parse_header_blob(bytes, &footer, path);
                match header {
                    Ok(h) => (footer.metas, h, true),
                    Err(e) if mode == RecoveryMode::Salvage => {
                        damage.record_file(footer.header_off as u64, e.to_string());
                        (footer.metas, salvage_header(), false)
                    }
                    Err(e) => return Err(e),
                }
            }
            Err(e) if mode == RecoveryMode::Salvage => {
                // No trustworthy footer: rebuild the chunk list from
                // the self-delimiting frames. Payloads are fully
                // CRC-checked during the scan, so mark survivors
                // verified up front.
                damage.record_file(0, e.to_string());
                let metas = forward_scan(bytes, &mut damage);
                verified = metas.iter().map(|_| AtomicU8::new(VERIFY_OK)).collect();
                (metas, salvage_header(), false)
            }
            Err(e) => return Err(e),
        };
        if verified.len() != metas.len() {
            verified = metas.iter().map(|_| AtomicU8::new(VERIFY_UNKNOWN)).collect();
        }

        Ok(StoreReader {
            map,
            mode,
            verify,
            metas,
            verified,
            header,
            header_intact,
            damage: Mutex::new(damage),
            cache: ShardedCache::new(CacheConfig::default()),
            decoded_total: AtomicU64::new(0),
            scratch_pool: Mutex::new(Vec::new()),
            scratch_allocs: AtomicU64::new(0),
        })
    }

    /// Borrow a decode scratch from the pool (or build one, counted in
    /// [`StoreReader::scratch_allocs_total`]). Pair with
    /// [`StoreReader::put_scratch`].
    fn take_scratch(&self) -> DecodeScratch {
        match self.scratch_pool.lock().expect("scratch pool poisoned").pop() {
            Some(s) => s,
            None => {
                self.scratch_allocs.fetch_add(1, Ordering::Relaxed);
                DecodeScratch::default()
            }
        }
    }

    fn put_scratch(&self, scratch: DecodeScratch) {
        self.scratch_pool.lock().expect("scratch pool poisoned").push(scratch);
    }

    /// Lifetime count of `DecodeScratch` constructions — pool misses.
    /// A warm reader's queries should not move this.
    pub fn scratch_allocs_total(&self) -> u64 {
        self.scratch_allocs.load(Ordering::Relaxed)
    }

    /// The chunk index.
    pub fn chunks(&self) -> &[ChunkMeta] {
        &self.metas
    }

    /// Total events across all chunks.
    pub fn num_events(&self) -> u64 {
        self.metas.iter().map(|m| m.events as u64).sum()
    }

    /// The header trace (empty event list).
    pub fn header(&self) -> &Trace {
        &self.header
    }

    /// False when the header was lost and this reader serves the
    /// synthesized salvage header.
    pub fn header_intact(&self) -> bool {
        self.header_intact
    }

    /// Container format version — the digit in the file magic. Every
    /// store this build opens is version 4.
    pub fn format_version(&self) -> u32 {
        u32::from(MAGIC[7] - b'0')
    }

    /// Every defect diagnosed so far: at open (salvage) plus anything
    /// queries have tripped over since.
    pub fn damage_report(&self) -> Vec<ChunkDamage> {
        self.damage.lock().expect("damage log poisoned").list.clone()
    }

    /// Lifetime count of chunk decompressions (LZ cache misses).
    pub fn chunks_decoded_total(&self) -> u64 {
        self.decoded_total.load(Ordering::Relaxed)
    }

    /// Block-cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The scan path's integrity check: nothing for a reader opened
    /// with `verify = false`, else [`StoreReader::check_chunk_memo`].
    fn check_chunk(&self, idx: usize) -> io::Result<()> {
        if !self.verify {
            return Ok(());
        }
        self.check_chunk_memo(idx)
    }

    /// Verify chunk `idx`'s frame + payload CRC, memoizing the
    /// verdict so each chunk pays for its checksum at most once.
    fn check_chunk_memo(&self, idx: usize) -> io::Result<()> {
        match self.verified[idx].load(Ordering::Acquire) {
            VERIFY_OK => return Ok(()),
            VERIFY_BAD => {
                return Err(bad_data(format!("chunk {idx}: checksum mismatch (cached verdict)")))
            }
            _ => {}
        }
        let m = &self.metas[idx];
        let res = self.check_chunk_uncached(idx, m);
        let verdict = if res.is_ok() { VERIFY_OK } else { VERIFY_BAD };
        self.verified[idx].store(verdict, Ordering::Release);
        res
    }

    fn check_chunk_uncached(&self, idx: usize, m: &ChunkMeta) -> io::Result<()> {
        let bytes = self.map.bytes();
        let frame_off = m.offset as usize - FRAME_LEN;
        let frame = ChunkFrame::decode(&bytes[frame_off..m.offset as usize])
            .map_err(|e| bad_data(format!("chunk {idx}: {e}")))?;
        if frame.stored_len != m.stored_len
            || frame.raw_len != m.raw_len
            || frame.events != m.events
            || frame.compression != m.compression
        {
            return Err(bad_data(format!(
                "chunk {idx}: frame disagrees with footer index \
                 (frame {}x{} raw, index {}x{} raw)",
                frame.events, frame.raw_len, m.events, m.raw_len
            )));
        }
        let stored = &bytes[m.offset as usize..m.offset as usize + m.stored_len as usize];
        let got = crc32c(stored);
        if got != frame.payload_crc {
            return Err(bad_data(format!(
                "chunk {idx}: payload checksum mismatch (stored {:#010x}, computed {got:#010x})",
                frame.payload_crc
            )));
        }
        Ok(())
    }

    /// Fetch one chunk's raw payload; `true` when this call paid for a
    /// decompression (LZ cache miss). Raw chunks are served zero-copy
    /// from the mapping and never enter the cache.
    fn chunk_data(&self, idx: usize) -> io::Result<(ChunkData<'_>, bool)> {
        self.check_chunk(idx)?;
        let m = &self.metas[idx];
        let stored =
            &self.map.bytes()[m.offset as usize..m.offset as usize + m.stored_len as usize];
        match m.compression {
            Compression::Raw => Ok((ChunkData::Mapped(stored), false)),
            Compression::Lz => {
                if let Some(hit) = self.cache.get(idx) {
                    return Ok((ChunkData::Cached(hit), false));
                }
                let raw = Arc::new(lz::decompress(stored, m.raw_len as usize)?);
                self.cache.insert(idx, raw.clone());
                self.decoded_total.fetch_add(1, Ordering::Relaxed);
                Ok((ChunkData::Cached(raw), true))
            }
        }
    }

    /// Indices of chunks the footer cannot rule out for `q`, and how
    /// many it did rule out.
    pub(crate) fn candidates(&self, q: &Query) -> (Vec<usize>, u64) {
        let mut keep = Vec::new();
        let mut skipped = 0u64;
        for (i, m) in self.metas.iter().enumerate() {
            if m.may_match(q) {
                keep.push(i);
            } else {
                skipped += 1;
            }
        }
        (keep, skipped)
    }

    /// Decode one chunk for `q` (`None`: every event, every section
    /// validated) and hand `sink` the batch of its matches ranked
    /// inside `page`, updating `stats`. The sink runs only once the
    /// chunk is fully decoded and validated, so in salvage mode a
    /// damaged chunk contributes nothing (and is recorded) instead of
    /// failing the scan.
    fn scan_chunk(
        &self,
        idx: usize,
        q: Option<&Query>,
        page: &Range<usize>,
        scratch: &mut DecodeScratch,
        stats: &mut ScanStats,
        sink: &mut dyn FnMut(&EventBatch<'_>),
    ) -> io::Result<()> {
        match self.scan_chunk_strict(idx, q, page, scratch, stats, sink) {
            Err(e) if self.mode == RecoveryMode::Salvage => {
                stats.chunks_damaged += 1;
                self.damage
                    .lock()
                    .expect("damage log poisoned")
                    .record_chunk(idx, self.metas[idx].offset, e.to_string());
                Ok(())
            }
            res => res,
        }
    }

    fn scan_chunk_strict(
        &self,
        idx: usize,
        q: Option<&Query>,
        page: &Range<usize>,
        scratch: &mut DecodeScratch,
        stats: &mut ScanStats,
        sink: &mut dyn FnMut(&EventBatch<'_>),
    ) -> io::Result<()> {
        let (data, decoded) = self.chunk_data(idx)?;
        if decoded {
            stats.chunks_decoded += 1;
        } else {
            stats.chunks_cached += 1;
        }
        let m = &self.metas[idx];
        let (batch, o) = select_v4(&data, m.events as usize, q, page, scratch)
            .map_err(|e| bad_data(format!("chunk {idx}: {e}")))?;
        stats.events_scanned += o.scanned;
        stats.events_matched += o.matched;
        stats.payload_bytes_decoded += o.payload_bytes;
        sink(&batch);
        Ok(())
    }

    /// Scan `candidates` in the order given with one pooled scratch,
    /// checking `cancel` before every chunk. `page` ranks matches over
    /// the whole call: each chunk sees it shifted by the matches the
    /// chunks before it counted.
    pub(crate) fn scan_candidates(
        &self,
        candidates: impl IntoIterator<Item = usize>,
        q: &Query,
        page: &Range<usize>,
        cancel: &CancelToken,
        sink: &mut dyn FnMut(&EventBatch<'_>),
    ) -> io::Result<ScanStats> {
        let mut stats = ScanStats::default();
        let mut scratch = self.take_scratch();
        let res = candidates.into_iter().try_for_each(|idx| {
            cancel.check()?;
            let rest = page_after(page, stats.events_matched);
            self.scan_chunk(idx, Some(q), &rest, &mut scratch, &mut stats, sink)
        });
        self.put_scratch(scratch);
        res.map(|()| stats)
    }

    /// Scan the chunks the footer cannot rule out for `q`, in stored
    /// order, handing `sink` one column batch per chunk. `cancel` is
    /// checked at every chunk boundary: an expired deadline surfaces
    /// as `ErrorKind::TimedOut`, an explicit cancel as `Interrupted`.
    ///
    /// `page` picks the matches the batches carry, by rank in stored
    /// order ([`ALL_MATCHES`]: every one). Matches outside it are
    /// counted — `events_matched` is always the total — but their
    /// payload is never decoded: a chunk with no match inside the page
    /// pays for its tag, time and core columns only. (A query with an
    /// `object` predicate finds its matches *in* the payload, so it
    /// decodes as an unpaged scan does and only hands out less.)
    pub fn scan_batches_cancel(
        &self,
        q: &Query,
        page: &Range<usize>,
        cancel: &CancelToken,
        sink: &mut dyn FnMut(&EventBatch<'_>),
    ) -> io::Result<ScanStats> {
        let (candidates, chunks_skipped) = self.candidates(q);
        let stats = self.scan_candidates(candidates, q, page, cancel, sink)?;
        Ok(ScanStats { chunks_skipped, ..stats })
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

    /// Materialize the whole trace: header plus every event, in
    /// stored order.
    pub fn materialize(&self) -> io::Result<Trace> {
        let (events, _) = self.query(&Query::all())?;
        let mut t = self.header.clone();
        t.events = events;
        Ok(t)
    }

    /// Verify the whole file — every chunk's frame + payload CRC
    /// plus a full decode of every payload — and return one entry per
    /// defect, whether or not the reader was opened with `verify`.
    /// This is the engine behind `mempersp fsck`; a clean file returns
    /// open-time damage only (empty for a strict open).
    pub fn verify_all(&self) -> Vec<ChunkDamage> {
        // Start from anything already known (salvage open notes).
        let mut all = self.damage_report();
        let mut scratch = self.take_scratch();
        for (idx, m) in self.metas.iter().enumerate() {
            let deep = self.check_chunk_memo(idx).and_then(|()| {
                self.scan_chunk_strict(
                    idx,
                    None,
                    &ALL_MATCHES,
                    &mut scratch,
                    &mut ScanStats::default(),
                    &mut |_| {},
                )
            });
            if let Err(e) = deep {
                let d = ChunkDamage::of_chunk(idx, m.offset, e.to_string());
                if !all.contains(&d) {
                    all.push(d);
                }
            }
        }
        self.put_scratch(scratch);
        all
    }
}

/// `page` as the scan sees it once `matched` matches are behind it.
pub(crate) fn page_after(page: &Range<usize>, matched: u64) -> Range<usize> {
    let done = usize::try_from(matched).unwrap_or(usize::MAX);
    page.start.saturating_sub(done)..page.end.saturating_sub(done)
}

/// Accept the one magic this build reads; name the version of any
/// other `MPSTORE?` file so an old store is never mis-parsed.
fn check_magic(bytes: &[u8], path: &Path) -> io::Result<()> {
    if bytes[..8] == *MAGIC {
        return Ok(());
    }
    Err(bad_data(if bytes[..7] == MAGIC[..7] {
        format!(
            "{}: store format v{} is no longer supported (this build reads v{}); \
             regenerate it from the `.prv` or re-run",
            path.display(),
            char::from(bytes[7]).escape_default(),
            char::from(MAGIC[7]),
        )
    } else {
        format!("{}: not a trace store (bad magic)", path.display())
    }))
}

/// Parse the trailer + footer index, validating the index checksum
/// and every chunk's bounds.
fn parse_footer(bytes: &[u8], path: &Path) -> io::Result<FooterInfo> {
    let len = bytes.len();
    if len < MAGIC.len() + TRAILER_LEN {
        return Err(bad_data(format!("{}: too short for a store file", path.display())));
    }
    let trailer = &bytes[len - TRAILER_LEN..];
    if trailer[TRAILER_LEN - 8..] != *TRAILER_MAGIC {
        return Err(bad_data(format!(
            "{}: truncated store (missing trailer — writer not finalized?)",
            path.display()
        )));
    }
    let index_off = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
    if index_off < MAGIC.len() as u64 || index_off > (len - TRAILER_LEN) as u64 {
        return Err(bad_data(format!(
            "{}: index offset {index_off} out of bounds (file is {len} bytes)",
            path.display()
        )));
    }
    let index_off = index_off as usize;

    // Footer index, parsed straight from the mapping.
    let index = &bytes[index_off..len - TRAILER_LEN];
    let want = u32::from_le_bytes(trailer[8..12].try_into().expect("4 bytes"));
    let got = crc32c(index);
    if want != got {
        return Err(bad_data(format!(
            "{}: footer index checksum mismatch (stored {want:#010x}, computed {got:#010x})",
            path.display()
        )));
    }
    let mut pos = 0usize;
    let count = get_u64(index, &mut pos)? as usize;
    if count > len / 8 {
        return Err(bad_data(format!("{}: implausible chunk count {count}", path.display())));
    }
    // Payloads sit behind their 28-byte frame.
    let min_payload_off = (MAGIC.len() + FRAME_LEN) as u64;
    let mut metas = Vec::with_capacity(count);
    for i in 0..count {
        let m = ChunkMeta::decode(index, &mut pos)
            .map_err(|e| bad_data(format!("{}: chunk {i} index entry: {e}", path.display())))?;
        // Validate the payload location once, here, so every later
        // access can slice the mapping without checks.
        let end = m.offset.checked_add(m.stored_len as u64);
        if m.offset < min_payload_off || end.is_none_or(|e| e > index_off as u64) {
            return Err(bad_data(format!(
                "{}: chunk {i} payload [{}, +{}) outside the data region",
                path.display(),
                m.offset,
                m.stored_len
            )));
        }
        if m.compression == Compression::Raw && m.raw_len != m.stored_len {
            return Err(bad_data(format!(
                "{}: chunk {i} is raw but raw_len {} != stored_len {}",
                path.display(),
                m.raw_len,
                m.stored_len
            )));
        }
        if m.raw_len > MAX_CHUNK_RAW {
            return Err(bad_data(format!(
                "{}: chunk {i} claims a {}-byte raw payload (limit {MAX_CHUNK_RAW})",
                path.display(),
                m.raw_len
            )));
        }
        if m.events as u64 > m.raw_len as u64 {
            return Err(bad_data(format!(
                "{}: chunk {i} claims {} events in {} raw bytes",
                path.display(),
                m.events,
                m.raw_len
            )));
        }
        metas.push(m);
    }
    let header_off = get_u64(index, &mut pos)? as usize;
    let header_raw_len = get_u64(index, &mut pos)? as usize;
    let header_stored_len = get_u64(index, &mut pos)? as usize;

    // Header blob: compression byte + payload + CRC32C, inside the
    // data region like any chunk.
    let in_bounds = header_off
        .checked_add(1)
        .and_then(|p| p.checked_add(header_stored_len))
        .and_then(|p| p.checked_add(4))
        .is_some_and(|end| header_off >= MAGIC.len() && end <= index_off);
    if !in_bounds {
        return Err(bad_data(format!(
            "{}: header blob [{header_off}, +{header_stored_len}) outside the data region",
            path.display()
        )));
    }
    if header_raw_len > MAX_HEADER_RAW {
        return Err(bad_data(format!(
            "{}: header blob claims {header_raw_len} raw bytes (limit {MAX_HEADER_RAW})",
            path.display()
        )));
    }
    Ok(FooterInfo { metas, header_off, header_raw_len, header_stored_len })
}

/// Checksum and decode the header blob into the header trace.
fn parse_header_blob(bytes: &[u8], footer: &FooterInfo, path: &Path) -> io::Result<Trace> {
    let header_off = footer.header_off;
    let blob_end = header_off + 1 + footer.header_stored_len;
    let code = bytes[header_off];
    let blob = &bytes[header_off + 1..blob_end];
    let want = u32::from_le_bytes(bytes[blob_end..blob_end + 4].try_into().expect("4 bytes"));
    let got = Crc32c::new().chain(&[code]).chain(blob).finish();
    if want != got {
        return Err(bad_data(format!(
            "{}: header blob checksum mismatch (stored {want:#010x}, computed {got:#010x})",
            path.display()
        )));
    }
    let header_bytes = match Compression::from_code(code).map_err(io::Error::from)? {
        Compression::Raw => blob.to_vec(),
        Compression::Lz => lz::decompress(blob, footer.header_raw_len)?,
    };
    let header_text = String::from_utf8(header_bytes)
        .map_err(|_| bad_data(format!("{}: header blob is not UTF-8", path.display())))?;
    mempersp_extrae::trace_format::parse_trace(&header_text)
        .map_err(|e| bad_data(format!("{}: bad header: {e}", path.display())))
}

/// Rebuild a chunk list from the self-delimiting chunk frames of a file
/// whose footer is missing or untrustworthy (a killed run's `.tmp`).
/// Every accepted chunk has a valid frame *and* a matching payload
/// CRC; everything else lands in the damage log. Returned metas carry
/// conservative (match-anything) content summaries.
fn forward_scan(bytes: &[u8], damage: &mut DamageLog) -> Vec<ChunkMeta> {
    let len = bytes.len();
    let mut metas = Vec::new();
    let mut pos = MAGIC.len();
    while pos + FRAME_LEN <= len {
        match ChunkFrame::decode(&bytes[pos..pos + FRAME_LEN]) {
            Ok(frame) => {
                let payload_start = pos + FRAME_LEN;
                let payload_end = payload_start + frame.stored_len as usize;
                if payload_end > len {
                    damage.record_chunk(
                        metas.len(),
                        payload_start as u64,
                        format!(
                            "chunk truncated at end of file ({} of {} payload bytes present)",
                            len - payload_start,
                            frame.stored_len
                        ),
                    );
                    break;
                }
                let payload = &bytes[payload_start..payload_end];
                let plausible = frame.raw_len <= MAX_CHUNK_RAW
                    && frame.events as u64 <= frame.raw_len as u64
                    && (frame.compression != Compression::Raw || frame.raw_len == frame.stored_len);
                if !plausible {
                    damage.record_chunk(
                        metas.len(),
                        payload_start as u64,
                        "implausible chunk frame (bad raw/stored/event sizes)".into(),
                    );
                } else if crc32c(payload) != frame.payload_crc {
                    damage.record_chunk(
                        metas.len(),
                        payload_start as u64,
                        "payload checksum mismatch".into(),
                    );
                } else {
                    metas.push(frame.to_salvaged_meta(payload_start as u64));
                }
                pos = payload_end;
            }
            Err(_) => {
                // Lost framing: hunt for the next authentic frame. A
                // frame magic match alone is not trusted — the next
                // loop iteration re-validates via the frame CRC.
                match find_magic(&bytes[pos + 1..], crate::chunk::FRAME_MAGIC) {
                    Some(ahead) => {
                        let next = pos + 1 + ahead;
                        damage.record_chunk(
                            metas.len(),
                            pos as u64,
                            format!("skipped {} unreadable bytes", next - pos),
                        );
                        pos = next;
                    }
                    // No further frame: the rest is the (unreachable
                    // without an index) header/footer tail, or tail
                    // damage. Either way the chunk walk is done.
                    None => break,
                }
            }
        }
    }
    metas
}

fn find_magic(haystack: &[u8], needle: &[u8; 4]) -> Option<usize> {
    haystack.windows(4).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{write_store_chunked, TRAILER_LEN};
    use mempersp_extrae::tracer::{Tracer, TracerConfig};
    use mempersp_pebs::CounterSnapshot;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mempersp_store_r_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn trace_sized(iters: u64) -> Trace {
        let mut t = Tracer::new(TracerConfig::default(), 4);
        let c = CounterSnapshot::from_values([9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2]);
        for i in 0..iters {
            let core = (i % 4) as usize;
            t.enter(core, "R", c, i * 100);
            t.user_event(core, 1, i, i * 100 + 10);
            t.exit(core, "R", c, i * 100 + 50);
        }
        t.finish("reader test")
    }

    fn trace() -> Trace {
        trace_sized(3000)
    }

    #[test]
    fn materialize_equals_source_trace() {
        let path = tmp("mat.mps");
        let t = trace();
        write_store_chunked(&path, &t, 4096).unwrap();
        let r = StoreReader::open(&path).unwrap();
        assert_eq!(r.format_version(), 4);
        let back = r.materialize().unwrap();
        assert_eq!(back.events, t.events);
        assert_eq!(back.meta, t.meta);
        assert_eq!(back.region_names, t.region_names);
        assert_eq!(back.resolution, t.resolution);
        assert!(r.damage_report().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn time_window_skips_chunks() {
        let path = tmp("window.mps");
        let t = trace();
        write_store_chunked(&path, &t, 4096).unwrap();
        let r = StoreReader::open(&path).unwrap();
        assert!(r.chunks().len() >= 8, "need many chunks, got {}", r.chunks().len());
        let q = Query::all().in_time(0, 5_000);
        let (events, stats) = r.query(&q).unwrap();
        let expect: Vec<_> = t.events.iter().filter(|e| q.matches(e)).cloned().collect();
        assert_eq!(events, expect);
        assert!(stats.chunks_skipped > 0, "{stats:?}");
        assert!(
            stats.chunks_decoded < r.chunks().len() as u64,
            "decoded {} of {}",
            stats.chunks_decoded,
            r.chunks().len()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn requery_hits_cache() {
        let path = tmp("cache.mps");
        let t = trace();
        write_store_chunked(&path, &t, 4096).unwrap();
        let r = StoreReader::open(&path).unwrap();
        let q = Query::all().in_time(0, 5_000);
        let (_, cold) = r.query(&q).unwrap();
        assert!(cold.chunks_decoded > 0);
        assert_eq!(cold.chunks_cached, 0);
        let (_, warm) = r.query(&q).unwrap();
        assert_eq!(warm.chunks_decoded, 0, "everything cached: {warm:?}");
        assert_eq!(warm.chunks_cached, cold.chunks_decoded);
        assert_eq!(r.chunks_decoded_total(), cold.chunks_decoded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_non_store_files() {
        let path = tmp("bogus.mps");
        std::fs::write(&path, "#MEMPERSP-PRV 1\nMETA 2500 1 0 \"x\"\n").unwrap();
        let err = match StoreReader::open(&path) {
            Ok(_) => panic!("a .prv text file must not open as a store"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("magic") || err.to_string().contains("short"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_truncated_store() {
        let path = tmp("trunc.mps");
        let t = trace();
        write_store_chunked(&path, &t, 4096).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 20]).unwrap();
        assert!(StoreReader::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_out_of_bounds_chunk_index() {
        // Craft a store, then corrupt the first chunk's offset in the
        // footer index to point past the data region; open must fail
        // with a descriptive error instead of a scan-time panic.
        let path = tmp("oob.mps");
        let t = trace();
        write_store_chunked(&path, &t, 4096).unwrap();
        let r = StoreReader::open(&path).unwrap();
        assert!(!r.chunks().is_empty());
        drop(r);
        let mut bytes = std::fs::read(&path).unwrap();
        let index_off = u64::from_le_bytes(
            bytes[bytes.len() - TRAILER_LEN..bytes.len() - TRAILER_LEN + 8].try_into().unwrap(),
        ) as usize;
        // The index starts with a varint count, then chunk 0's offset
        // varint. Overwrite that offset with a huge 5-byte varint —
        // same length or longer keeps later bytes parseable enough to
        // reach the bounds check.
        let mut pos = index_off;
        crate::varint::get_u64(&bytes, &mut pos).unwrap(); // count
        bytes[pos] = 0xFF; // chunk 0 offset → continuation into garbage
        std::fs::write(&path, &bytes).unwrap();
        let err = match StoreReader::open(&path) {
            Ok(_) => panic!("corrupt index must not open"),
            Err(e) => e,
        };
        // The index CRC catches the flip before the bounds checks even
        // run.
        assert!(
            err.to_string().contains("chunk")
                || err.to_string().contains("codec")
                || err.to_string().contains("checksum"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn payload_flip_is_caught_lazily_and_memoized() {
        let path = tmp("flip.mps");
        let t = trace();
        write_store_chunked(&path, &t, 4096).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte inside the first chunk's payload (well clear
        // of the frame).
        let victim = 8 + FRAME_LEN + 5;
        bytes[victim] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        // Strict: the full scan errors when it reaches the bad chunk.
        let r = StoreReader::open(&path).unwrap();
        let err = r.query(&Query::all()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");

        // Salvage: the scan completes, skipping exactly one chunk.
        let s = StoreReader::open_with_options(&path, RecoveryMode::Salvage, true).unwrap();
        let (events, stats) = s.query(&Query::all()).unwrap();
        assert_eq!(stats.chunks_damaged, 1, "{stats:?}");
        assert!(events.len() < t.events.len());
        assert!(!events.is_empty(), "undamaged chunks must survive");
        let report = s.damage_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].chunk, Some(0));
        // Re-query: memoized verdict, damage not duplicated.
        let (_, stats2) = s.query(&Query::all()).unwrap();
        assert_eq!(stats2.chunks_damaged, 1);
        assert_eq!(s.damage_report().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn no_verify_skips_crc_checking() {
        let path = tmp("noverify.mps");
        let t = trace();
        write_store_chunked(&path, &t, 4096).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt a payload byte in a way LZ decompression tolerates?
        // Not guaranteed — so instead verify the *happy* path: with
        // verification off a clean store still answers correctly.
        let r = StoreReader::open_with_options(&path, RecoveryMode::Strict, false).unwrap();
        let (events, _) = r.query(&Query::all()).unwrap();
        assert_eq!(events, t.events);

        // And the CRC path is genuinely off: flip a payload byte and
        // confirm strict+no-verify does NOT flag a checksum error
        // (decode may or may not succeed; it must not mention CRC).
        let victim = 8 + FRAME_LEN + 5;
        bytes[victim] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let r2 = StoreReader::open_with_options(&path, RecoveryMode::Strict, false).unwrap();
        if let Err(e) = r2.query(&Query::all()) {
            assert!(!e.to_string().contains("checksum mismatch"), "{e}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn footerless_file_salvages_via_forward_scan() {
        let path = tmp("footerless.mps");
        let t = trace();
        write_store_chunked(&path, &t, 4096).unwrap();
        let clean = StoreReader::open(&path).unwrap();
        let chunks = clean.chunks().len();
        assert!(chunks >= 4);
        // Cut the file right after the last chunk payload — header,
        // index and trailer gone, exactly what a killed run leaves.
        let last = clean.chunks().last().unwrap();
        let cut = (last.offset + last.stored_len as u64) as usize;
        drop(clean);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..cut]).unwrap();

        assert!(StoreReader::open(&path).is_err(), "strict must reject a footer-less file");
        let s = StoreReader::open_with_options(&path, RecoveryMode::Salvage, true).unwrap();
        assert_eq!(s.chunks().len(), chunks, "every full chunk is recoverable");
        assert!(!s.header_intact());
        let (events, stats) = s.query(&Query::all()).unwrap();
        assert_eq!(events, t.events, "salvage recovers every event of every full chunk");
        assert_eq!(stats.chunks_damaged, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_salvages_to_a_chunk_prefix() {
        let path = tmp("torn.mps");
        let t = trace();
        write_store_chunked(&path, &t, 4096).unwrap();
        let clean = StoreReader::open(&path).unwrap();
        let chunks: Vec<ChunkMeta> = clean.chunks().to_vec();
        assert!(chunks.len() >= 4);
        // Tear mid-way through the third chunk's payload.
        let cut = chunks[2].offset as usize + chunks[2].stored_len as usize / 2;
        let expect_events: u64 = chunks[..2].iter().map(|m| m.events as u64).sum();
        drop(clean);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let s = StoreReader::open_with_options(&path, RecoveryMode::Salvage, true).unwrap();
        assert_eq!(s.chunks().len(), 2, "two complete chunks precede the tear");
        let (events, _) = s.query(&Query::all()).unwrap();
        assert_eq!(events.len() as u64, expect_events);
        assert_eq!(events[..], t.events[..events.len()], "salvaged events are an exact prefix");
        assert!(
            s.damage_report().iter().any(|d| d.reason.contains("truncated")),
            "{:?}",
            s.damage_report()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn verify_all_names_the_flipped_chunk() {
        let path = tmp("vfy.mps");
        let t = trace();
        write_store_chunked(&path, &t, 4096).unwrap();
        let clean = StoreReader::open(&path).unwrap();
        assert!(clean.verify_all().is_empty(), "pristine file must verify clean");
        let chunks: Vec<ChunkMeta> = clean.chunks().to_vec();
        drop(clean);
        let mut bytes = std::fs::read(&path).unwrap();
        let victim_chunk = 3.min(chunks.len() - 1);
        bytes[chunks[victim_chunk].offset as usize + 1] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        let r = StoreReader::open(&path).unwrap();
        let damage = r.verify_all();
        assert_eq!(damage.len(), 1, "{damage:?}");
        assert_eq!(damage[0].chunk, Some(victim_chunk));
        assert!(damage[0].reason.contains("checksum"), "{}", damage[0].reason);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn old_format_magics_are_rejected_by_name_in_every_mode() {
        let path = tmp("old_magic.mps");
        write_store_chunked(&path, &trace_sized(200), 4096).unwrap();
        let v4 = std::fs::read(&path).unwrap();
        let dir = tmp("old_magic.mps.d");
        std::fs::create_dir_all(&dir).unwrap();
        let shard = dir.join("shard-0000.mps");
        std::fs::write(dir.join(crate::shard::MANIFEST_NAME), "MPSHARD1\nshard-0000.mps 600\n").unwrap();

        // An otherwise valid body, garbage, and nothing at all behind
        // each old magic: the version byte alone decides.
        let tails: [&[u8]; 3] = [&v4[8..], &[0xA5; 100], &[]];
        for version in [b'1', b'2', b'3', b'9'] {
            for tail in tails {
                let mut bytes = MAGIC.to_vec();
                bytes[7] = version;
                bytes.extend_from_slice(tail);
                std::fs::write(&path, &bytes).unwrap();
                std::fs::write(&shard, &bytes).unwrap();
                let want = format!(
                    "store format v{} is no longer supported (this build reads v4); \
                     regenerate it from the `.prv` or re-run",
                    version as char
                );
                for mode in [RecoveryMode::Strict, RecoveryMode::Salvage] {
                    let err = StoreReader::open_with_options(&path, mode, true)
                        .err()
                        .expect("an old-format store must not open");
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                    assert_eq!(err.to_string(), format!("{}: {want}", path.display()));
                    let err = crate::source::MpsSource::open_with_options(&dir, mode, true)
                        .err()
                        .expect("an old-format shard must not open");
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                    assert!(err.to_string().contains(&want), "{mode:?}: {err}");
                }
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}

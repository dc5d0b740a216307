//! The chunk payload codec: stream-vbyte columns and the
//! selection-vector scan.
//!
//! A chunk is a 10-uvarint section table, a tag column, and one
//! payload section per event class. Every run of integers is a
//! [stream-vbyte column](crate::svb): a control stream that says how
//! wide each value is and a data stream of plain little-endian bytes,
//! decoded four values per `pshufb`. Payload sections are themselves
//! columnar *per field* (all `ip`s, then all `addr`s, …), so a field's
//! column can be range-decoded — or skipped entirely — without
//! touching its neighbours:
//!
//! ```text
//! chunk := section lengths (10 uvarints: deltas, cores, stream 0..7)
//!          tags    — one byte per event, in stored order
//!          deltas  — svb column of zig-zag timestamp deltas
//!          cores   — svb column of core ids
//!          stream[k] — class-k fields, one svb column per field
//!                      (byte-wide fields — PEBS flags/level, mux
//!                      label bytes — stay raw byte runs)
//! ```
//!
//! Per-class field columns, in the order the `LAYOUT` table stores
//! them (`n` = class-k events in the chunk):
//!
//! * RegionEnter/Exit: `region`, 12 counter columns
//! * CounterSample: `ip`, 12 counters, `stack_len`, then one flattened
//!   `stack` column of Σ`stack_len` region ids
//! * Pebs: raw `flags[n]`, `ip`, `addr`, `size`, `latency`, raw
//!   `level[n]`, `object` (0 where absent; presence lives in `flags`)
//! * Alloc: `base`, `size`, `callsite` — Free: `base`
//! * MuxSwitch: `event_index`, `label_len`, raw concatenated labels
//! * User: `kind`, `value`
//!
//! The encoder ([`ChunkBuilderV4`]) keeps no columns of its own: a
//! [`Transposer`] — the row→column adapter of `extrae::batch`, which
//! alone decides which field sits in which column — buffers the
//! chunk, and sealing writes its columns out in `LAYOUT` order. The
//! scan reads its sections through the same table.
//!
//! Timestamps are delta-encoded because consecutive events are close
//! in time. Deltas are *signed* (zig-zag folded): a streamed body is
//! written in emission order, which may interleave cores slightly out
//! of global time order.
//!
//! The scan ([`select_v4`]) **never builds rows**: it decodes only the
//! tag, delta and core columns, evaluates the pushed-down
//! time/core/kind predicates into a selection vector of `(row,
//! class-occurrence)` pairs (64 rows at a time, from per-class bit
//! masks of the tag column — `select.rs`), keeps of it the page of
//! matches the caller asked for, decodes payload columns only for
//! classes with selected rows — and only the control-byte groups
//! covering the selected occurrence range — applies the PEBS
//! object-id predicate to the decoded column, and lends the result out
//! as an [`EventBatch`]. Whoever needs `TraceEvent`s calls
//! [`EventBatch::materialize_into`]. The bytes actually read are
//! counted into [`ScanOutcome::payload_bytes`], which is how the
//! "filtered queries decode strictly fewer payload bytes" invariant is
//! asserted.

use crate::select::{select_rows, HeadCols, RowFilter};
use crate::svb::{simd_level, values_len, write_column, zigzag, SvbColumn};
use crate::varint::{get_u64, put_u64, CodecError};
use mempersp_extrae::batch::{
    column_count, ClassColumns, EventBatch, Transposer, MUX_LABEL_LEN, MUX_LABEL_OFF, PEBS_HAS_OBJECT,
    PEBS_OBJECT, STACK, STACK_LEN, STACK_OFF,
};
use mempersp_extrae::events::{EventPayload, TraceEvent};
use mempersp_extrae::query::{EventClass, KindMask, Query};
use std::ops::Range;

/// Number of payload streams (one per [`EventClass`]).
const NSTREAMS: usize = EventClass::ALL.len();

fn err(offset: usize, message: String) -> CodecError {
    CodecError { offset, message }
}

/// Core ids are 32 bits wide in every reader's columns; the writer
/// refuses, and the reader rejects, one that is not.
fn wide_core(row: usize, core: u64) -> CodecError {
    err(row, format!("core id {core} of row {row} does not fit 32 bits"))
}

// ---------------------------------------------------------------- layout

/// One stored field of a class section: the class's numeric columns
/// `lo..hi` (one stream-vbyte column each, in that order), or its raw
/// byte column A or B.
#[derive(Clone, Copy)]
enum Field {
    Cols(usize, usize),
    A,
    B,
}

/// What a class section stores, in stored order. With a `run` of
/// (length column, offset column) the last field is flattened:
/// occurrence `j` owns `cols[len][j]` of its values (or bytes), from
/// `cols[off][j]` on, and the offset column itself is not stored.
struct Layout {
    fields: &'static [Field],
    run: Option<(usize, usize)>,
}

impl Layout {
    /// The run's (length, offset) columns if field `f` is the run.
    fn run_at(&self, f: usize) -> Option<(usize, usize)> {
        self.run.filter(|_| f + 1 == self.fields.len())
    }
}

/// The one stored order of every class section, indexed by
/// [`EventClass`]: the encoder writes it and [`decode_class`] reads
/// it. Which field sits in which column is `extrae::batch`'s to say.
const LAYOUT: [Layout; NSTREAMS] = {
    use Field::{Cols, A, B};
    [
        Layout { fields: &[Cols(0, column_count(EventClass::RegionEnter))], run: None },
        Layout { fields: &[Cols(0, column_count(EventClass::RegionExit))], run: None },
        Layout { fields: &[Cols(0, STACK), Cols(STACK, STACK + 1)], run: Some((STACK_LEN, STACK_OFF)) },
        Layout { fields: &[A, Cols(0, PEBS_OBJECT), B, Cols(PEBS_OBJECT, PEBS_OBJECT + 1)], run: None },
        Layout { fields: &[Cols(0, column_count(EventClass::Alloc))], run: None },
        Layout { fields: &[Cols(0, column_count(EventClass::Free))], run: None },
        Layout { fields: &[Cols(0, MUX_LABEL_OFF), A], run: Some((MUX_LABEL_LEN, MUX_LABEL_OFF)) },
        Layout { fields: &[Cols(0, column_count(EventClass::User))], run: None },
    ]
};

// ---------------------------------------------------------------- encode

/// Incremental encoder of one chunk: the writer feeds it events one
/// at a time, a [`Transposer`] files each field into its column, and
/// sealing writes the columns out in `LAYOUT` order.
#[derive(Default)]
pub struct ChunkBuilderV4 {
    rows: Transposer,
    /// Encoded bytes of the delta and core sections and of each class
    /// section, for the occurrences of each class counted so far, so
    /// sealing knows the section table up front.
    lens: [usize; 2 + NSTREAMS],
    occurrences: [usize; NSTREAMS],
    /// Exact encoded size of the counted rows, and an upper bound on
    /// that of all rows: `len` plus a cheap bound per uncounted row.
    len: usize,
    bound: usize,
}

impl ChunkBuilderV4 {
    pub fn new() -> ChunkBuilderV4 {
        ChunkBuilderV4::default()
    }

    /// Events appended since the last [`ChunkBuilderV4::serialize`].
    pub fn events(&self) -> usize {
        self.rows.len()
    }

    /// Raw encoded size if the chunk were sealed now (excluding the
    /// ~11-byte section-length prefix).
    pub fn encoded_len(&mut self) -> usize {
        self.count_new_rows();
        self.len
    }

    /// Whether the encoded size has reached `target`: exactly
    /// `encoded_len() >= target`, but the rows are counted only once
    /// the running bound says the target may have been reached.
    pub fn reached(&mut self, target: usize) -> bool {
        self.bound >= target && self.encoded_len() >= target
    }

    /// Append one event's fields to the columns. A core id that does
    /// not fit the 32 bits every reader narrows it to is refused, and
    /// the builder is left as it was.
    pub fn push(&mut self, e: &TraceEvent) -> Result<(), CodecError> {
        if u32::try_from(e.core).is_err() {
            return Err(wide_core(self.rows.len(), e.core as u64));
        }
        self.rows.push(e);
        // At most 9 bytes (a control byte and a full 8-byte value) per
        // column (delta, core, every class column and run value), plus
        // one spare for the tag and raw bytes: PEBS's two flag bytes,
        // or each label byte.
        let run = match &e.payload {
            EventPayload::CounterSample { stack, .. } => stack.len(),
            EventPayload::MuxSwitch { label, .. } => label.len(),
            _ => 0,
        };
        self.bound += 9 * (3 + column_count(EventClass::of(&e.payload)) + run);
        Ok(())
    }

    /// Add the rows pushed since the last count to `lens` and `len`,
    /// one column slice at a time, and tighten the bound to the exact
    /// size.
    fn count_new_rows(&mut self) {
        let (from, to) = (self.occurrences.iter().sum(), self.rows.len());
        let (cycles, cores, _, _) = self.rows.columns(0);
        self.lens[0] += values_len(from, (from..to).map(|i| stored_delta(cycles, i)));
        self.lens[1] += values_len(from, cores[from..].iter().map(|&c| u64::from(c)));
        for (k, layout) in LAYOUT.iter().enumerate() {
            let c = self.rows.columns(k).3;
            let (from, to) = (self.occurrences[k], c.cols.first().map_or(0, Vec::len));
            if from < to {
                self.lens[2 + k] += appended_len(layout, &c, from);
                self.occurrences[k] = to;
            }
        }
        // One tag byte per row, then every section.
        self.len = to + self.lens.iter().sum::<usize>();
        self.bound = self.len;
    }

    /// Serialize the accumulated columns as one chunk payload and
    /// reset the builder (buffers keep their capacity).
    pub fn serialize(&mut self) -> Vec<u8> {
        self.count_new_rows();
        let mut out = Vec::with_capacity(self.len + 16);
        for &l in &self.lens {
            put_u64(&mut out, l as u64);
        }
        let table = out.len();
        let (cycles, cores, tags, _) = self.rows.columns(0);
        out.extend_from_slice(tags);
        write_column((0..cycles.len()).map(|i| stored_delta(cycles, i)), &mut out);
        write_column(cores.iter().map(|&c| u64::from(c)), &mut out);
        for (k, layout) in LAYOUT.iter().enumerate() {
            let c = self.rows.columns(k).3;
            if c.cols.is_empty() {
                continue; // a class never pushed has an empty section
            }
            for field in layout.fields {
                match *field {
                    Field::Cols(lo, hi) => {
                        for col in &c.cols[lo..hi] {
                            write_column(col.iter().copied(), &mut out);
                        }
                    }
                    Field::A => out.extend_from_slice(c.raw_a),
                    Field::B => out.extend_from_slice(c.raw_b),
                }
            }
        }
        debug_assert_eq!(out.len() - table, self.len, "running size drifted from the columns");
        self.rows.clear();
        *self = ChunkBuilderV4 { rows: std::mem::take(&mut self.rows), ..Self::default() };
        out
    }
}

/// Row `i`'s stored timestamp: the zig-zag delta from the row before
/// it (from 0 for a chunk's first row).
fn stored_delta(cycles: &[u64], i: usize) -> u64 {
    let prev = if i == 0 { 0 } else { cycles[i - 1] };
    zigzag(cycles[i].wrapping_sub(prev) as i64)
}

/// Bytes the occurrences of a class from `j` on added to its section:
/// each stored column's tail from `j` and raw bytes, and the run, which
/// is the tail of its column from occurrence `j`'s offset on.
fn appended_len(layout: &Layout, c: &ClassColumns<'_>, j: usize) -> usize {
    let tail = |col: &[u64], from: usize| values_len(from, col[from..].iter().copied());
    let mut len = 0;
    for (f, &field) in layout.fields.iter().enumerate() {
        len += match (field, layout.run_at(f)) {
            (Field::Cols(lo, hi), None) => c.cols[lo..hi].iter().map(|col| tail(col, j)).sum(),
            (Field::Cols(lo, _), Some((_, off))) => tail(&c.cols[lo], c.cols[off][j] as usize),
            (_, Some((run_len, _))) => c.cols[run_len][j..].iter().sum::<u64>() as usize,
            (_, None) => c.cols[0].len() - j,
        };
    }
    len
}

/// Encode a whole event slice as one v4 chunk payload.
pub fn encode_events_v4(events: &[TraceEvent]) -> Result<Vec<u8>, CodecError> {
    let mut b = ChunkBuilderV4::new();
    for e in events {
        b.push(e)?;
    }
    Ok(b.serialize())
}

// ---------------------------------------------------------------- decode

/// The page that hands out every match — what every scan but a
/// paginated one asks for.
pub const ALL_MATCHES: Range<usize> = 0..usize::MAX;

/// Per-chunk counters a columnar scan reports upward into
/// [`ScanStats`](mempersp_extrae::trace_source::ScanStats).
/// `payload_bytes` counts the payload-section bytes the scan actually
/// read: control bytes plus only the data-byte groups a selection
/// touched, which is what makes "filtered decodes strictly fewer
/// payload bytes than full materialization" an assertable invariant.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanOutcome {
    pub scanned: u64,
    /// Rows that satisfied the query, whether or not the page kept
    /// them in the batch.
    pub matched: u64,
    pub payload_bytes: u64,
}

/// Reusable column buffers for columnar decode — one per scanning
/// thread, pooled by the reader, so a query over many chunks (and
/// repeated queries over one reader) allocates the columns once.
#[derive(Default)]
pub struct DecodeScratch {
    cycles: Vec<u64>,
    cores: Vec<u32>,
    /// Selection vector of `(row, class-occurrence)` index pairs.
    sel: Vec<(u32, u32)>,
    /// Decoded numeric columns, per class. Indexed `[class][column]`;
    /// inner vectors keep their capacity across chunks and queries.
    class_cols: [Vec<Vec<u64>>; NSTREAMS],
}

/// The parsed section table of a chunk.
struct Sections<'a> {
    tags: &'a [u8],
    deltas: &'a [u8],
    cores: &'a [u8],
    streams: [&'a [u8]; NSTREAMS],
}

fn split_sections(buf: &[u8], count: usize) -> Result<Sections<'_>, CodecError> {
    let mut pos = 0usize;
    let deltas_len = get_u64(buf, &mut pos)? as usize;
    let cores_len = get_u64(buf, &mut pos)? as usize;
    let mut stream_lens = [0usize; NSTREAMS];
    for l in &mut stream_lens {
        *l = get_u64(buf, &mut pos)? as usize;
    }
    let need = count
        .checked_add(deltas_len)
        .and_then(|n| n.checked_add(cores_len))
        .and_then(|n| stream_lens.iter().try_fold(n, |a, &l| a.checked_add(l)))
        .ok_or_else(|| CodecError { offset: pos, message: "section lengths overflow".into() })?;
    if pos + need != buf.len() {
        return Err(CodecError {
            offset: pos,
            message: format!(
                "section lengths cover {} bytes but chunk has {}",
                pos + need,
                buf.len()
            ),
        });
    }
    let (tags, rest) = buf[pos..].split_at(count);
    let (deltas, rest) = rest.split_at(deltas_len);
    let (cores, mut rest) = rest.split_at(cores_len);
    let mut streams = [&buf[0..0]; NSTREAMS];
    for (s, &l) in streams.iter_mut().zip(&stream_lens) {
        let (head, tail) = rest.split_at(l);
        *s = head;
        rest = tail;
    }
    Ok(Sections { tags, deltas, cores, streams })
}

/// Parse the next column and decode it — fully (`range == None`) or
/// just the control-byte groups covering `range` — into `out`,
/// charging the touched bytes to `bytes`. Returns the occurrence
/// index of `out[0]`.
fn decode_col(
    sec: &[u8],
    pos: &mut usize,
    n: usize,
    range: Option<(usize, usize)>,
    out: &mut Vec<u64>,
    bytes: &mut u64,
) -> Result<usize, CodecError> {
    let col = SvbColumn::parse(sec, pos, n)?;
    match range {
        None => {
            col.decode_into(out);
            *bytes += col.total_len() as u64;
            Ok(0)
        }
        Some((lo, hi)) => {
            let base = col.decode_range_into(lo, hi, out);
            *bytes += (col.ctrl_len() + col.range_data_len(lo, hi)) as u64;
            Ok(base)
        }
    }
}

fn take_raw<'a>(sec: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], CodecError> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= sec.len())
        .ok_or_else(|| err(*pos, format!("byte column of {n} overruns section")))?;
    let s = &sec[*pos..end];
    *pos = end;
    Ok(s)
}

fn expect_end(sec: &[u8], pos: usize, k: usize) -> Result<(), CodecError> {
    if pos != sec.len() {
        return Err(err(
            pos,
            format!("{} trailing bytes in payload stream {k}", sec.len() - pos),
        ));
    }
    Ok(())
}

/// Exclusive-prefix offsets of a length column (`offs[j]` = start of
/// record `j` in the flattened value column); returns the total.
fn prefix_offsets(lens: &[u64], offs: &mut Vec<u64>) -> Result<usize, CodecError> {
    offs.clear();
    offs.reserve(lens.len());
    let mut total = 0u64;
    for (j, &l) in lens.iter().enumerate() {
        offs.push(total);
        total = total
            .checked_add(l)
            .ok_or_else(|| err(j, "length column overflows".to_string()))?;
    }
    usize::try_from(total).map_err(|_| err(0, "length column overflows".to_string()))
}

/// What [`decode_class`] reports besides the numeric columns it
/// filled: the occurrence their element 0 stands for, and the class's
/// raw byte columns (whole, indexed from occurrence 0).
#[derive(Default, Clone, Copy)]
struct ClassView<'a> {
    base: usize,
    raw_a: &'a [u8], // PEBS flags / mux labels
    raw_b: &'a [u8], // PEBS level
}

/// Decode the payload columns of class `k` (fully, or the groups
/// covering `range`) into `cols`, walking [`LAYOUT`]. A class with a
/// run decodes fully: the run's length is only known once its whole
/// length column has decoded.
fn decode_class<'a>(
    k: usize,
    sec: &'a [u8],
    n: usize,
    range: Option<(usize, usize)>,
    cols: &mut [Vec<u64>],
    bytes: &mut u64,
) -> Result<ClassView<'a>, CodecError> {
    let layout = &LAYOUT[k];
    let range = range.filter(|_| layout.run.is_none());
    let (mut pos, mut view) = (0usize, ClassView::default());
    for (f, field) in layout.fields.iter().enumerate() {
        let (count, read) = match layout.run_at(f) {
            Some((len, off)) => {
                let (head, tail) = cols.split_at_mut(off);
                let total = prefix_offsets(&head[len], &mut tail[0])?;
                (total, total)
            }
            None => (n, range.map_or(n, |(lo, hi)| hi.min(n).saturating_sub(lo))),
        };
        let raw = match *field {
            Field::Cols(lo, hi) => {
                for col in &mut cols[lo..hi] {
                    view.base = decode_col(sec, &mut pos, count, range, col, bytes)?;
                }
                continue;
            }
            Field::A => &mut view.raw_a,
            Field::B => &mut view.raw_b,
        };
        *raw = take_raw(sec, &mut pos, count)?;
        // A ranged scan is charged only the occurrences it reads.
        *bytes += read as u64;
    }
    // Every column walk above ends exactly at the section end: column
    // lengths are functions of their control bytes, so any slack or
    // shortfall is corruption.
    expect_end(sec, pos, k)?;
    Ok(view)
}

/// Select and decode a v4 chunk into a column batch. Decodes the
/// tag/timestamp/core columns, builds a selection vector from the
/// pushed-down time/core/kind predicates (the block-mask kernel in
/// `select.rs`), decodes payload columns only for classes — and
/// control-byte group ranges — with selected rows, then drops selected
/// PEBS rows that fail the object-id predicate. The batch borrows
/// `scratch` and `buf`; it is returned only once every selected row is
/// known readable ([`EventBatch::new`]). With `query == None` every
/// section is decoded and validated — the `materialize()` /
/// deep-verify path.
///
/// `page` names the matches to hand out, by rank among this chunk's
/// matches: the batch holds only those rows and payload is decoded
/// only for them, while [`ScanOutcome::matched`] still counts every
/// match. A chunk whose matches all rank inside the page decodes
/// exactly as it would without one.
pub fn select_v4<'a>(
    buf: &'a [u8],
    count: usize,
    query: Option<&Query>,
    page: &Range<usize>,
    scratch: &'a mut DecodeScratch,
) -> Result<(EventBatch<'a>, ScanOutcome), CodecError> {
    let s = split_sections(buf, count)?;

    let mut pos = 0usize;
    let dcol = SvbColumn::parse(s.deltas, &mut pos, count)?;
    if pos != s.deltas.len() {
        return Err(err(pos, "trailing bytes in delta column".to_string()));
    }
    dcol.decode_zigzag_prefix_into(0, &mut scratch.cycles);

    let mut pos = 0usize;
    let ccol = SvbColumn::parse(s.cores, &mut pos, count)?;
    if pos != s.cores.len() {
        return Err(err(pos, "trailing bytes in core column".to_string()));
    }
    ccol.decode_u32_into(&mut scratch.cores).map_err(|(row, v)| wide_core(row, v))?;

    let (time, mut kinds, cores, object) = match query {
        Some(q) => (q.time, q.kinds, q.cores.as_deref(), q.object),
        None => (None, KindMask::ALL, None, None),
    };
    if object.is_some() {
        // Only a PEBS sample carries an object resolution.
        kinds = KindMask(kinds.0 & EventClass::Pebs.bit());
    }
    let active: [bool; NSTREAMS] = std::array::from_fn(|k| kinds.0 & (1u8 << k) != 0);

    // Selection pass: (row, class-occurrence) for every row that
    // survives the column predicates and ranks inside the page, the
    // class populations (needed to parse any payload section) and the
    // occurrence hull per class so payload decode can stay
    // range-bounded. The object predicate lives in the payload, so its
    // matches can only be ranked after the decode below.
    let kernel_page = if object.is_some() { ALL_MATCHES } else { page.clone() };
    let head = HeadCols { tags: s.tags, cycles: &scratch.cycles, cores: &scratch.cores };
    let filter = RowFilter { kinds: kinds.0, time, cores, page: kernel_page };
    let picked = select_rows(simd_level(), &head, &filter, &mut scratch.sel)?;
    let (nk, jmin, jmax) = (picked.nk, picked.jmin, picked.jmax);
    let mut matched = picked.matched;

    // Payload decode: full scans touch every section (and validate
    // classes with no events against stray bytes); filtered scans —
    // and full ones a page cut short — touch only classes with
    // selected rows.
    let full = query.is_none_or(|q| q.is_full_scan()) && scratch.sel.len() == matched;
    let mut payload_bytes = 0u64;
    let mut views = [ClassView::default(); NSTREAMS];
    for k in 0..NSTREAMS {
        let wanted = if full { active[k] } else { jmin[k] != usize::MAX };
        if !wanted {
            if full && active[k] && !s.streams[k].is_empty() {
                // full decode is the integrity path: an empty class
                // must have an empty section
            } else {
                continue;
            }
        }
        // Decode just the groups covering the selected occurrence hull.
        let range = (!full).then(|| (jmin[k], jmax[k] + 1));
        let cols = &mut scratch.class_cols[k];
        cols.resize_with(column_count(EventClass::ALL[k]), Vec::new);
        views[k] = decode_class(k, s.streams[k], nk[k], range, cols, &mut payload_bytes)?;
    }

    // The one predicate that lives in the payload: the PEBS object
    // id, checked against the decoded column (every selected row is a
    // PEBS row here — `kinds` was narrowed above).
    if let Some(want) = object {
        let k = EventClass::Pebs as usize;
        let (v, objects) = (views[k], scratch.class_cols[k].get(PEBS_OBJECT));
        scratch.sel.retain(|&(_, j)| {
            let j = j as usize;
            v.raw_a[j] & PEBS_HAS_OBJECT != 0
                && objects.is_some_and(|col| col[j - v.base] as u32 == want.0)
        });
        matched = scratch.sel.len();
        scratch.sel.truncate(page.end.min(matched));
        scratch.sel.drain(..page.start.min(scratch.sel.len()));
    }

    let scratch = &*scratch;
    let classes = std::array::from_fn(|k| {
        // Rebase the per-occurrence PEBS byte columns like the numeric
        // ones; mux labels are not per-occurrence (and `base` is 0).
        let v = views[k];
        let from = if k == EventClass::Pebs as usize { v.base } else { 0 };
        ClassColumns {
            base: v.base,
            cols: &scratch.class_cols[k],
            raw_a: v.raw_a.get(from..).unwrap_or(&[]),
            raw_b: v.raw_b.get(from..).unwrap_or(&[]),
        }
    });
    let batch = EventBatch::new(&scratch.cycles, &scratch.cores, s.tags, &scratch.sel, classes)
        .map_err(|message| err(0, message))?;
    let outcome = ScanOutcome { scanned: count as u64, matched: matched as u64, payload_bytes };
    Ok((batch, outcome))
}

/// Decode exactly `count` events from a v4 chunk payload.
pub fn decode_events_v4(buf: &[u8], count: usize) -> Result<Vec<TraceEvent>, CodecError> {
    let mut out = Vec::new();
    let mut scratch = DecodeScratch::default();
    select_v4(buf, count, None, &ALL_MATCHES, &mut scratch)?.0.materialize_into(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_extrae::batch::NCOUNTERS;
    use mempersp_extrae::events::{EventPayload, RegionId};
    use mempersp_extrae::objects::ObjectId;
    use mempersp_extrae::query::EventClass;
    use mempersp_extrae::source::Ip;
    use mempersp_memsim::MemLevel;
    use mempersp_pebs::{CounterSnapshot, PebsSample};

    /// Select + materialize: what `MpsSource::query` does per chunk.
    fn scan_events_v4(
        buf: &[u8],
        count: usize,
        query: Option<&Query>,
        scratch: &mut DecodeScratch,
        out: &mut Vec<TraceEvent>,
    ) -> Result<ScanOutcome, CodecError> {
        let (batch, outcome) = select_v4(buf, count, query, &ALL_MATCHES, scratch)?;
        batch.materialize_into(out);
        Ok(outcome)
    }

    fn events() -> Vec<TraceEvent> {
        let c = CounterSnapshot::from_values([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        vec![
            TraceEvent {
                cycles: 1_000,
                core: 0,
                payload: EventPayload::RegionEnter { region: RegionId(3), counters: c },
            },
            TraceEvent {
                cycles: 900, // out-of-order: negative delta
                core: 1,
                payload: EventPayload::CounterSample {
                    ip: Ip(0x400010),
                    counters: c,
                    stack: vec![RegionId(0), RegionId(3)],
                },
            },
            TraceEvent {
                cycles: 1_100,
                core: 1,
                payload: EventPayload::Pebs {
                    sample: PebsSample {
                        timestamp: 1_100,
                        core: 1,
                        ip: 0x400020,
                        addr: 0xDE_ADBE_EF00,
                        size: 8,
                        is_store: true,
                        latency: 233,
                        source: MemLevel::Dram,
                        tlb_miss: true,
                    },
                    object: Some(ObjectId(7)),
                },
            },
            TraceEvent {
                cycles: 1_150,
                core: 2,
                payload: EventPayload::Pebs {
                    sample: PebsSample {
                        timestamp: 1_150,
                        core: 2,
                        ip: 0x400024,
                        addr: 0x20,
                        size: 4,
                        is_store: false,
                        latency: 9,
                        source: MemLevel::L1,
                        tlb_miss: false,
                    },
                    object: None,
                },
            },
            TraceEvent {
                cycles: 1_200,
                core: 0,
                payload: EventPayload::Alloc { base: 1 << 40, size: 4096, callsite: Ip(0x400030) },
            },
            TraceEvent { cycles: 1_300, core: 0, payload: EventPayload::Free { base: 1 << 40 } },
            TraceEvent {
                cycles: 1_400,
                core: 2,
                payload: EventPayload::MuxSwitch { event_index: 1, label: "stores — ω".into() },
            },
            TraceEvent {
                cycles: 1_500,
                core: 0,
                payload: EventPayload::User { kind: 9, value: u64::MAX },
            },
            TraceEvent {
                cycles: 1_600,
                core: 3,
                payload: EventPayload::RegionExit { region: RegionId(3), counters: c },
            },
        ]
    }

    #[test]
    fn v4_round_trip_every_payload_kind() {
        let evs = events();
        let buf = encode_events_v4(&evs).unwrap();
        let back = decode_events_v4(&buf, evs.len()).expect("decode v4");
        assert_eq!(back, evs);
    }

    #[test]
    fn v4_incremental_builder_resets_cleanly() {
        let evs = events();
        let mut b = ChunkBuilderV4::new();
        for e in &evs {
            b.push(e).unwrap();
        }
        assert_eq!(b.events(), evs.len());
        let payload = b.serialize();
        assert_eq!(payload, encode_events_v4(&evs).unwrap());
        assert_eq!(b.events(), 0);
        for e in &evs {
            b.push(e).unwrap();
        }
        assert_eq!(b.serialize(), payload, "reset builder must re-encode identically");
    }

    #[test]
    fn v4_encoded_len_is_exact() {
        let evs = events();
        let mut b = ChunkBuilderV4::new();
        for e in &evs {
            b.push(e).unwrap();
        }
        let polled = b.encoded_len();
        let payload = b.serialize();
        // The section table (10 uvarints) is the only part not polled.
        let mut pos = 0usize;
        for _ in 0..10 {
            crate::varint::get_u64(&payload, &mut pos).unwrap();
        }
        assert_eq!(polled, payload.len() - pos);
    }

    /// The bound only defers counting: `reached` answers what the exact
    /// size polled after every push answers, so a chunk seals at the
    /// same row.
    #[test]
    fn v4_reached_agrees_with_the_exact_size_at_every_row() {
        let evs: Vec<TraceEvent> = (0..40).flat_map(|_| events()).collect();
        for target in [1, 60, 333, 1_000, 4_096, 1 << 20] {
            let (mut lazy, mut exact) = (ChunkBuilderV4::new(), ChunkBuilderV4::new());
            for e in &evs {
                lazy.push(e).unwrap();
                exact.push(e).unwrap();
                assert_eq!(lazy.reached(target), exact.encoded_len() >= target, "target {target}");
            }
            assert_eq!(lazy.serialize(), exact.serialize());
        }
    }

    #[test]
    fn v4_filtered_scan_equals_decode_then_filter() {
        let evs = events();
        let buf = encode_events_v4(&evs).unwrap();
        let queries = [
            Query::all(),
            Query::all().in_time(1_000, 1_300),
            Query::all().with_kinds(&[EventClass::Pebs, EventClass::User]),
            Query::all().on_cores(&[1, 3]),
            Query::all().touching_object(ObjectId(7)),
            Query::all().touching_object(ObjectId(8)),
            Query::all().in_time(0, 0),
            Query::all().in_time(1_100, 1_150).with_kinds(&[EventClass::Pebs]),
        ];
        for q in &queries {
            let mut scratch = DecodeScratch::default();
            let mut got = Vec::new();
            let outcome =
                scan_events_v4(&buf, evs.len(), Some(q), &mut scratch, &mut got).unwrap();
            let want: Vec<_> = evs.iter().filter(|e| q.matches(e)).cloned().collect();
            assert_eq!(got, want, "{q:?}");
            assert_eq!(outcome.scanned, evs.len() as u64);
            assert_eq!(outcome.matched, want.len() as u64);
        }
    }

    #[test]
    fn v4_filtered_scan_reads_fewer_payload_bytes() {
        let evs = events();
        let buf = encode_events_v4(&evs).unwrap();
        let mut scratch = DecodeScratch::default();
        let mut all = Vec::new();
        let full =
            scan_events_v4(&buf, evs.len(), None, &mut scratch, &mut all).unwrap();
        let q = Query::all().with_kinds(&[EventClass::Pebs]);
        let mut some = Vec::new();
        let filtered =
            scan_events_v4(&buf, evs.len(), Some(&q), &mut scratch, &mut some).unwrap();
        assert!(
            filtered.payload_bytes < full.payload_bytes,
            "filtered {} vs full {}",
            filtered.payload_bytes,
            full.payload_bytes
        );
        assert!(filtered.payload_bytes > 0);
    }

    /// A chunk long enough for pages to matter: PEBS samples (every
    /// third with object 7) between user events and frees.
    fn long_chunk() -> Vec<TraceEvent> {
        let template = events();
        (0..600u64)
            .map(|i| {
                let mut e = match i % 3 {
                    0 => template[2].clone(),
                    1 => template[3].clone(),
                    _ => template[if i % 2 == 0 { 5 } else { 7 }].clone(),
                };
                e.cycles = 10_000 + 7 * i;
                e.core = (i % 4) as usize;
                if let EventPayload::Pebs { sample, .. } = &mut e.payload {
                    (sample.timestamp, sample.core, sample.addr) = (e.cycles, e.core, 0x1000 + 8 * i);
                }
                e
            })
            .collect()
    }

    #[test]
    fn v4_page_cuts_rows_and_payload_but_not_the_match_count() {
        let evs = long_chunk();
        let buf = encode_events_v4(&evs).unwrap();
        let pebs = Query::all().with_kinds(&[EventClass::Pebs]);
        let queries = [
            (Query::all(), true),
            (pebs.clone(), true),
            (pebs.clone().in_time(10_500, 13_000).on_cores(&[1, 2]), true),
            // The object predicate is checked against decoded payload:
            // a page hands out fewer rows but decodes the same bytes.
            (Query::all().touching_object(ObjectId(7)), false),
        ];
        let mut scratch = DecodeScratch::default();
        for (q, saves) in &queries {
            let want: Vec<_> = evs.iter().filter(|e| q.matches(e)).cloned().collect();
            assert!(want.len() > 60, "{q:?}: {}", want.len());
            let whole = select_v4(&buf, evs.len(), Some(q), &ALL_MATCHES, &mut scratch).unwrap().1;
            assert_eq!(whole.matched, want.len() as u64);
            let n = want.len();
            for page in [0..0, 0..1, 0..10, 5..9, 40..n, n - 1..n + 3, n..n + 1, 3 * n..usize::MAX, 0..n] {
                let (batch, o) = select_v4(&buf, evs.len(), Some(q), &page, &mut scratch).unwrap();
                let mut got = Vec::new();
                batch.materialize_into(&mut got);
                let cut = page.start.min(n)..page.end.min(n);
                assert_eq!(got, want[cut.clone()], "{q:?} page {page:?}");
                assert_eq!((o.scanned, o.matched), (evs.len() as u64, n as u64), "{q:?} {page:?}");
                if cut.len() == n || !saves {
                    assert_eq!(o.payload_bytes, whole.payload_bytes, "{q:?} page {page:?}");
                } else {
                    assert!(o.payload_bytes < whole.payload_bytes, "{q:?} page {page:?}: {o:?}");
                    assert_eq!(o.payload_bytes == 0, cut.is_empty(), "{q:?} page {page:?}");
                }
            }
        }
    }

    /// A chunk of three `class` events assembled by hand around one
    /// payload section, so its columns can hold what
    /// [`ChunkBuilderV4::push`] refuses or cannot write.
    fn hand_chunk(class: EventClass, cores: &[u64; 3], section: &[u8]) -> Vec<u8> {
        use crate::svb::encode_column;
        let deltas = encode_column(&[zigzag(100), zigzag(10), zigzag(10)]);
        let cores = encode_column(cores);
        let mut buf = Vec::new();
        put_u64(&mut buf, deltas.len() as u64);
        put_u64(&mut buf, cores.len() as u64);
        for c in EventClass::ALL {
            put_u64(&mut buf, if c == class { section.len() as u64 } else { 0 });
        }
        buf.extend_from_slice(&[class as u8; 3]);
        for part in [&deltas[..], &cores, section] {
            buf.extend_from_slice(part);
        }
        buf
    }

    fn free_chunk(cores: &[u64; 3]) -> Vec<u8> {
        hand_chunk(EventClass::Free, cores, &crate::svb::encode_column(&[1 << 40, 2 << 40, 3 << 40]))
    }

    #[test]
    fn core_ids_past_32_bits_are_refused_by_writer_and_reader() {
        let wide = (1usize << 32) + 3;
        let free = |cycles, core, base| TraceEvent { cycles, core, payload: EventPayload::Free { base } };
        let evs = [free(100, 0, 1 << 40), free(110, wide, 2 << 40), free(120, 3, 3 << 40)];

        // The writer refuses the event and stays usable.
        let mut b = ChunkBuilderV4::new();
        b.push(&evs[0]).unwrap();
        let e = b.push(&evs[1]).unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (1, "core id 4294967299 of row 1 does not fit 32 bits"));
        assert_eq!(b.events(), 1);
        b.push(&evs[2]).unwrap();
        let kept = [evs[0].clone(), evs[2].clone()];
        assert_eq!(b.serialize(), encode_events_v4(&kept).unwrap());
        assert_eq!(encode_events_v4(&evs).unwrap_err(), e);

        // The hand-assembled chunk is what the builder writes ...
        let narrow = [evs[0].clone(), free(110, 3, 2 << 40), evs[2].clone()];
        assert_eq!(free_chunk(&[0, 3, 3]), encode_events_v4(&narrow).unwrap());
        // ... so with a wide id in it, a reader used to see core 3.
        let hostile = free_chunk(&[0, wide as u64, 3]);
        for q in [None, Some(Query::all().on_cores(&[3]))] {
            let e = select_v4(&hostile, 3, q.as_ref(), &ALL_MATCHES, &mut DecodeScratch::default())
                .map(|(_, o)| o)
                .unwrap_err();
            assert_eq!((e.offset, e.message.as_str()), (1, "core id 4294967299 of row 1 does not fit 32 bits"));
        }
        // The largest id that fits still decodes.
        assert_eq!(u32::MAX as usize, decode_events_v4(&free_chunk(&[0, u32::MAX as u64, 3]), 3).unwrap()[1].core);
    }

    /// Every payload field a reader narrows to 32 bits — PEBS size,
    /// latency and object, region ids, sample-stack ids, user kinds —
    /// is refused past 32 bits instead of read modulo 2^32.
    #[test]
    fn narrowed_fields_past_32_bits_are_refused_by_the_reader() {
        use crate::svb::encode_column;
        type Section = Box<dyn Fn(u64) -> Vec<u8>>;
        let col = |w: u64| encode_column(&[3, w, 4]);
        let cols = |k: usize| (0..k).flat_map(|_| encode_column(&[5, 6, 7])).collect::<Vec<u8>>();
        let pebs = move |size: u64, latency: u64, object: u64| {
            [vec![PEBS_HAS_OBJECT; 3], cols(2), col(size), col(latency), vec![0; 3], col(object)].concat()
        };
        let cases: [(EventClass, &str, Section); 6] = [
            (EventClass::Pebs, "object", Box::new(move |w| pebs(8, 9, w))),
            (EventClass::Pebs, "size", Box::new(move |w| pebs(w, 9, 7))),
            (EventClass::Pebs, "latency", Box::new(move |w| pebs(8, w, 7))),
            (EventClass::RegionEnter, "region", Box::new(move |w| [col(w), cols(NCOUNTERS)].concat())),
            (
                EventClass::CounterSample,
                "stack region",
                Box::new(move |w| [cols(1 + NCOUNTERS), encode_column(&[1, 1, 1]), col(w)].concat()),
            ),
            (EventClass::User, "kind", Box::new(move |w| [col(w), cols(1)].concat())),
        ];
        let wide = (1u64 << 32) + 7;
        for (class, field, section) in &cases {
            let chunk = |w| hand_chunk(*class, &[0, 1, 2], &section(w));
            // The hand-assembled chunk is what the builder writes, and
            // the largest value that fits still decodes ...
            let narrow = decode_events_v4(&chunk(7), 3).unwrap();
            assert_eq!(encode_events_v4(&narrow).unwrap(), chunk(7), "{class:?} {field}");
            decode_events_v4(&chunk(u64::from(u32::MAX)), 3).unwrap();
            // ... so with a wide value in it, a reader used to see 7.
            let hostile = chunk(wide);
            let want = format!("{} {field} {wide} of occurrence 1 does not fit 32 bits", class.label());
            let mut queries = vec![None, Some(Query::all().with_kinds(&[*class]))];
            if *field == "object" {
                queries.push(Some(Query::all().touching_object(ObjectId(7))));
            }
            for q in &queries {
                let e = select_v4(&hostile, 3, q.as_ref(), &ALL_MATCHES, &mut DecodeScratch::default())
                    .map(|(_, o)| o)
                    .unwrap_err();
                assert_eq!(e.message, want, "{q:?}");
            }
        }
    }

    #[test]
    fn v4_scratch_reuse_is_deterministic() {
        // One scratch across chunks and queries — the reader pool path.
        let evs = events();
        let buf = encode_events_v4(&evs).unwrap();
        let mut scratch = DecodeScratch::default();
        for _ in 0..3 {
            for q in [Query::all(), Query::all().with_kinds(&[EventClass::Free])] {
                let mut got = Vec::new();
                scan_events_v4(&buf, evs.len(), Some(&q), &mut scratch, &mut got).unwrap();
                let want: Vec<_> = evs.iter().filter(|e| q.matches(e)).cloned().collect();
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn v4_rejects_wrong_count_and_corrupt_sections() {
        let evs = events();
        let buf = encode_events_v4(&evs).unwrap();
        assert!(decode_events_v4(&buf, evs.len() - 1).is_err());
        assert!(decode_events_v4(&buf, evs.len() + 1).is_err());
        assert!(decode_events_v4(&buf[..buf.len() - 1], evs.len()).is_err());
        let mut bad = buf.clone();
        let mut pos = 0usize;
        for _ in 0..10 {
            crate::varint::get_u64(&bad, &mut pos).unwrap();
        }
        bad[pos] = 0xEE; // tag column
        assert!(decode_events_v4(&bad, evs.len()).is_err());
    }

    #[test]
    fn v4_truncation_never_panics() {
        let evs = events();
        let buf = encode_events_v4(&evs).unwrap();
        for cut in 0..buf.len() {
            let _ = decode_events_v4(&buf[..cut], evs.len());
        }
    }

    #[test]
    fn v4_empty_chunk() {
        let buf = encode_events_v4(&[]).unwrap();
        assert_eq!(decode_events_v4(&buf, 0).unwrap(), Vec::new());
    }
}

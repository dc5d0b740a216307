//! The chunk payload codec: `Vec<TraceEvent>` ⇄ bytes.
//!
//! Two generations share this module. **v1** (files led by
//! `MPSTORE1`) interleaves every event's fields:
//!
//! ```text
//! event := tag:u8                  (EventClass discriminant)
//!          Δcycles:ivarint         (delta vs. previous event in chunk)
//!          core:uvarint
//!          payload                 (per tag, varint fields)
//! ```
//!
//! **v2** (`MPSTORE2`, what the writer emits today) transposes a chunk
//! into columns so decode is batch work over homogeneous runs of bytes
//! instead of a per-event tag dispatch:
//!
//! ```text
//! chunk := section lengths (10 uvarints: deltas, cores, stream 0..7)
//!          tags    — one byte per event, in stored order
//!          deltas  — zig-zag varint timestamp deltas, one per event
//!          cores   — uvarint core ids, one per event
//!          stream[k] — the concatenated payload fields of every
//!                      class-k event, in stored order (same field
//!                      encodings as v1)
//! ```
//!
//! The tag column drives reassembly: event *i*'s payload is the next
//! unread record of `stream[tags[i]]`. Columns make three things fast:
//! the timestamp/core columns decode in tight unrolled loops over the
//! word-at-a-time [`varint::Reader`], selective queries test the
//! time/core/kind columns *before* materializing a `TraceEvent`
//! (non-matching payloads are skipped, not built), and similar bytes
//! sit next to each other, which the LZ pass rewards.
//!
//! Timestamps are delta-encoded because consecutive events are close
//! in time — the deltas are tiny varints where absolute cycle counts
//! would be 4–6 bytes each. Deltas are *signed*: a streamed body is
//! written in emission order, which may interleave cores slightly out
//! of global time order.

use crate::varint::{self, get_bytes, get_i64, get_u64, put_bytes, put_i64, put_u64, CodecError};
use mempersp_extrae::batch::{level_from_code, Transposer};
use mempersp_extrae::events::{EventPayload, RegionId, TraceEvent};
use mempersp_extrae::objects::ObjectId;
use mempersp_extrae::query::{EventClass, KindMask, Query};
use mempersp_extrae::source::Ip;
use mempersp_memsim::MemLevel;
use mempersp_pebs::{CounterSnapshot, EventKind, PebsSample};

fn put_counters(out: &mut Vec<u8>, c: &CounterSnapshot) {
    for v in c.values() {
        put_u64(out, *v);
    }
}

fn get_counters(buf: &[u8], pos: &mut usize) -> Result<CounterSnapshot, CodecError> {
    let mut vals = [0u64; EventKind::ALL.len()];
    for v in &mut vals {
        *v = get_u64(buf, pos)?;
    }
    Ok(CounterSnapshot::from_values(vals))
}

pub(crate) use mempersp_extrae::batch::level_code;

pub(crate) fn level_from(code: u8, at: usize) -> Result<MemLevel, CodecError> {
    level_from_code(code)
        .ok_or_else(|| CodecError { offset: at, message: format!("bad memory level code {code}") })
}

/// Append one event to `out`. `prev_cycles` is the running timestamp
/// of the previous event in the same chunk (0 for the first) and is
/// updated in place.
pub fn encode_event(out: &mut Vec<u8>, e: &TraceEvent, prev_cycles: &mut u64) {
    out.push(EventClass::of(&e.payload) as u8);
    put_i64(out, e.cycles.wrapping_sub(*prev_cycles) as i64);
    *prev_cycles = e.cycles;
    put_u64(out, e.core as u64);
    match &e.payload {
        EventPayload::RegionEnter { region, counters }
        | EventPayload::RegionExit { region, counters } => {
            put_u64(out, region.0 as u64);
            put_counters(out, counters);
        }
        EventPayload::CounterSample { ip, counters, stack } => {
            put_u64(out, ip.0);
            put_counters(out, counters);
            put_u64(out, stack.len() as u64);
            for r in stack {
                put_u64(out, r.0 as u64);
            }
        }
        EventPayload::Pebs { sample, object } => {
            // timestamp and core are reconstructed from the event
            // envelope; only the sample-specific fields are stored.
            let flags = u8::from(sample.is_store)
                | (u8::from(sample.tlb_miss) << 1)
                | (u8::from(object.is_some()) << 2);
            out.push(flags);
            put_u64(out, sample.ip);
            put_u64(out, sample.addr);
            put_u64(out, sample.size as u64);
            put_u64(out, sample.latency as u64);
            out.push(level_code(sample.source));
            if let Some(o) = object {
                put_u64(out, o.0 as u64);
            }
        }
        EventPayload::Alloc { base, size, callsite } => {
            put_u64(out, *base);
            put_u64(out, *size);
            put_u64(out, callsite.0);
        }
        EventPayload::Free { base } => {
            put_u64(out, *base);
        }
        EventPayload::MuxSwitch { event_index, label } => {
            put_u64(out, *event_index as u64);
            put_bytes(out, label.as_bytes());
        }
        EventPayload::User { kind, value } => {
            put_u64(out, *kind as u64);
            put_u64(out, *value);
        }
    }
}

/// Encode a whole chunk of events.
pub fn encode_events(events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(events.len() * 16);
    let mut prev = 0u64;
    for e in events {
        encode_event(&mut out, e, &mut prev);
    }
    out
}

/// Decode exactly `count` events from `buf` (the whole chunk payload).
pub fn decode_events(buf: &[u8], count: usize) -> Result<Vec<TraceEvent>, CodecError> {
    let mut pos = 0usize;
    let mut prev = 0u64;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(decode_event(buf, &mut pos, &mut prev)?);
    }
    if pos != buf.len() {
        return Err(CodecError {
            offset: pos,
            message: format!("{} trailing bytes after final event", buf.len() - pos),
        });
    }
    Ok(out)
}

fn decode_event(buf: &[u8], pos: &mut usize, prev_cycles: &mut u64) -> Result<TraceEvent, CodecError> {
    let at = *pos;
    let tag = *buf
        .get(*pos)
        .ok_or_else(|| CodecError { offset: at, message: "truncated event tag".into() })?;
    *pos += 1;
    let delta = get_i64(buf, pos)?;
    let cycles = prev_cycles.wrapping_add(delta as u64);
    *prev_cycles = cycles;
    let core = get_u64(buf, pos)? as usize;
    let payload = match tag {
        t if t == EventClass::RegionEnter as u8 || t == EventClass::RegionExit as u8 => {
            let region = RegionId(get_u64(buf, pos)? as u32);
            let counters = get_counters(buf, pos)?;
            if t == EventClass::RegionEnter as u8 {
                EventPayload::RegionEnter { region, counters }
            } else {
                EventPayload::RegionExit { region, counters }
            }
        }
        t if t == EventClass::CounterSample as u8 => {
            let ip = Ip(get_u64(buf, pos)?);
            let counters = get_counters(buf, pos)?;
            let n = get_u64(buf, pos)? as usize;
            if n > buf.len() {
                return Err(CodecError { offset: at, message: format!("stack of {n} entries overruns chunk") });
            }
            let mut stack = Vec::with_capacity(n);
            for _ in 0..n {
                stack.push(RegionId(get_u64(buf, pos)? as u32));
            }
            EventPayload::CounterSample { ip, counters, stack }
        }
        t if t == EventClass::Pebs as u8 => {
            let flags = *buf
                .get(*pos)
                .ok_or_else(|| CodecError { offset: *pos, message: "truncated PEBS flags".into() })?;
            *pos += 1;
            let ip = get_u64(buf, pos)?;
            let addr = get_u64(buf, pos)?;
            let size = get_u64(buf, pos)? as u32;
            let latency = get_u64(buf, pos)? as u32;
            let lvl = *buf
                .get(*pos)
                .ok_or_else(|| CodecError { offset: *pos, message: "truncated PEBS level".into() })?;
            *pos += 1;
            let source = level_from(lvl, *pos - 1)?;
            let object = if flags & 0b100 != 0 {
                Some(ObjectId(get_u64(buf, pos)? as u32))
            } else {
                None
            };
            EventPayload::Pebs {
                sample: PebsSample {
                    timestamp: cycles,
                    core,
                    ip,
                    addr,
                    size,
                    is_store: flags & 0b001 != 0,
                    latency,
                    source,
                    tlb_miss: flags & 0b010 != 0,
                },
                object,
            }
        }
        t if t == EventClass::Alloc as u8 => EventPayload::Alloc {
            base: get_u64(buf, pos)?,
            size: get_u64(buf, pos)?,
            callsite: Ip(get_u64(buf, pos)?),
        },
        t if t == EventClass::Free as u8 => EventPayload::Free { base: get_u64(buf, pos)? },
        t if t == EventClass::MuxSwitch as u8 => {
            let event_index = get_u64(buf, pos)? as usize;
            let label = String::from_utf8(get_bytes(buf, pos)?.to_vec())
                .map_err(|_| CodecError { offset: at, message: "mux label is not UTF-8".into() })?;
            EventPayload::MuxSwitch { event_index, label }
        }
        t if t == EventClass::User as u8 => EventPayload::User {
            kind: get_u64(buf, pos)? as u32,
            value: get_u64(buf, pos)?,
        },
        other => {
            return Err(CodecError { offset: at, message: format!("unknown event tag {other}") })
        }
    };
    Ok(TraceEvent { cycles, core, payload })
}

// ---------------------------------------------------------------- v2

/// Counters carried by every region/sample event.
pub(crate) const NCOUNTERS: usize = EventKind::ALL.len();
/// Number of payload streams (one per [`EventClass`]).
pub(crate) const NSTREAMS: usize = EventClass::ALL.len();

/// Incremental encoder of one v2 columnar chunk. The writer feeds it
/// events one at a time; each field goes straight into its column, so
/// sealing a chunk is a concatenation, not a re-encode.
#[derive(Default)]
pub struct ChunkBuilder {
    tags: Vec<u8>,
    deltas: Vec<u8>,
    cores: Vec<u8>,
    streams: [Vec<u8>; NSTREAMS],
    prev_cycles: u64,
}

impl ChunkBuilder {
    pub fn new() -> ChunkBuilder {
        ChunkBuilder::default()
    }

    /// Events appended since the last [`ChunkBuilder::serialize`].
    pub fn events(&self) -> usize {
        self.tags.len()
    }

    /// Raw encoded size if the chunk were sealed now (excluding the
    /// ~11-byte section-length prefix).
    pub fn encoded_len(&self) -> usize {
        self.tags.len()
            + self.deltas.len()
            + self.cores.len()
            + self.streams.iter().map(Vec::len).sum::<usize>()
    }

    /// Append one event's fields to the columns.
    pub fn push(&mut self, e: &TraceEvent) {
        let class = EventClass::of(&e.payload);
        self.tags.push(class as u8);
        put_i64(&mut self.deltas, e.cycles.wrapping_sub(self.prev_cycles) as i64);
        self.prev_cycles = e.cycles;
        put_u64(&mut self.cores, e.core as u64);
        let out = &mut self.streams[class as usize];
        match &e.payload {
            EventPayload::RegionEnter { region, counters }
            | EventPayload::RegionExit { region, counters } => {
                put_u64(out, region.0 as u64);
                put_counters(out, counters);
            }
            EventPayload::CounterSample { ip, counters, stack } => {
                put_u64(out, ip.0);
                put_counters(out, counters);
                put_u64(out, stack.len() as u64);
                for r in stack {
                    put_u64(out, r.0 as u64);
                }
            }
            EventPayload::Pebs { sample, object } => {
                let flags = u8::from(sample.is_store)
                    | (u8::from(sample.tlb_miss) << 1)
                    | (u8::from(object.is_some()) << 2);
                out.push(flags);
                put_u64(out, sample.ip);
                put_u64(out, sample.addr);
                put_u64(out, sample.size as u64);
                put_u64(out, sample.latency as u64);
                out.push(level_code(sample.source));
                if let Some(o) = object {
                    put_u64(out, o.0 as u64);
                }
            }
            EventPayload::Alloc { base, size, callsite } => {
                put_u64(out, *base);
                put_u64(out, *size);
                put_u64(out, callsite.0);
            }
            EventPayload::Free { base } => {
                put_u64(out, *base);
            }
            EventPayload::MuxSwitch { event_index, label } => {
                put_u64(out, *event_index as u64);
                put_bytes(out, label.as_bytes());
            }
            EventPayload::User { kind, value } => {
                put_u64(out, *kind as u64);
                put_u64(out, *value);
            }
        }
    }

    /// Serialize the accumulated columns as one chunk payload and
    /// reset the builder (buffers keep their capacity).
    pub fn serialize(&mut self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len() + 16);
        put_u64(&mut out, self.deltas.len() as u64);
        put_u64(&mut out, self.cores.len() as u64);
        for s in &self.streams {
            put_u64(&mut out, s.len() as u64);
        }
        out.extend_from_slice(&self.tags);
        out.extend_from_slice(&self.deltas);
        out.extend_from_slice(&self.cores);
        for s in &mut self.streams {
            out.extend_from_slice(s);
            s.clear();
        }
        self.tags.clear();
        self.deltas.clear();
        self.cores.clear();
        self.prev_cycles = 0;
        out
    }
}

/// Encode a whole event slice as one v2 chunk payload.
pub fn encode_events_v2(events: &[TraceEvent]) -> Vec<u8> {
    let mut b = ChunkBuilder::new();
    for e in events {
        b.push(e);
    }
    b.serialize()
}

/// Per-chunk counters a columnar scan reports upward into
/// [`ScanStats`](mempersp_extrae::trace_source::ScanStats).
/// `payload_bytes` counts the payload-section bytes the scan actually
/// read: v2 charges every active class stream in full; v4 charges
/// control bytes plus only the data-byte groups a selection touched,
/// which is what makes "filtered decodes strictly fewer payload bytes
/// than full materialization" an assertable invariant.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanOutcome {
    pub scanned: u64,
    pub matched: u64,
    pub payload_bytes: u64,
}

/// Reusable column buffers for columnar decode — one per scanning
/// thread, pooled by the reader, so a query over many chunks (and
/// repeated queries over one reader) allocates the columns once.
#[derive(Default)]
pub struct DecodeScratch {
    pub(crate) cycles: Vec<u64>,
    pub(crate) cores: Vec<u32>,
    /// v4: generic stream-vbyte decode target (core ids, class columns).
    pub(crate) tmp: Vec<u64>,
    /// v4: selection vector of `(row, class-occurrence)` index pairs.
    pub(crate) sel: Vec<(u32, u32)>,
    /// v4: decoded numeric columns, per class. Indexed
    /// `[class][column]`; inner vectors keep their capacity across
    /// chunks and queries.
    pub(crate) class_cols: [Vec<Vec<u64>>; NSTREAMS],
    /// v1–v3: the adapter that turns a chunk's decoded rows into the
    /// column batch every scan hands its sink.
    pub(crate) transposer: Transposer,
}

/// The parsed section table of a v2 or v4 chunk (both share the
/// 10-uvarint length prefix and tag column; only the per-section byte
/// encodings differ).
pub(crate) struct Sections<'a> {
    pub(crate) tags: &'a [u8],
    pub(crate) deltas: &'a [u8],
    pub(crate) cores: &'a [u8],
    pub(crate) streams: [&'a [u8]; NSTREAMS],
}

pub(crate) fn split_sections(buf: &[u8], count: usize) -> Result<Sections<'_>, CodecError> {
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

/// Decode the timestamp column (zig-zag deltas, prefix-summed) and the
/// core column into `scratch`, unrolled four events per iteration.
fn decode_columns(s: &Sections<'_>, count: usize, scratch: &mut DecodeScratch) -> Result<(), CodecError> {
    scratch.cycles.clear();
    scratch.cycles.reserve(count);
    let mut r = varint::Reader::new(s.deltas);
    let mut prev = 0u64;
    let mut i = 0;
    while i + 4 <= count {
        // Four at a time: the serial prefix-sum dependence stays, but
        // loop control and bounds work amortize across the block.
        let d0 = r.i64()?;
        let d1 = r.i64()?;
        let d2 = r.i64()?;
        let d3 = r.i64()?;
        let c0 = prev.wrapping_add(d0 as u64);
        let c1 = c0.wrapping_add(d1 as u64);
        let c2 = c1.wrapping_add(d2 as u64);
        let c3 = c2.wrapping_add(d3 as u64);
        scratch.cycles.extend_from_slice(&[c0, c1, c2, c3]);
        prev = c3;
        i += 4;
    }
    while i < count {
        prev = prev.wrapping_add(r.i64()? as u64);
        scratch.cycles.push(prev);
        i += 1;
    }
    if !r.is_done() {
        return Err(CodecError { offset: r.pos(), message: "trailing bytes in delta column".into() });
    }

    scratch.cores.clear();
    scratch.cores.reserve(count);
    let mut r = varint::Reader::new(s.cores);
    let mut i = 0;
    while i + 4 <= count {
        let a = r.u64()? as u32;
        let b = r.u64()? as u32;
        let c = r.u64()? as u32;
        let d = r.u64()? as u32;
        scratch.cores.extend_from_slice(&[a, b, c, d]);
        i += 4;
    }
    while i < count {
        scratch.cores.push(r.u64()? as u32);
        i += 1;
    }
    if !r.is_done() {
        return Err(CodecError { offset: r.pos(), message: "trailing bytes in core column".into() });
    }
    Ok(())
}

/// Decode one class-`tag` payload record from its stream.
fn decode_payload(
    tag: u8,
    r: &mut varint::Reader<'_>,
    cycles: u64,
    core: usize,
) -> Result<EventPayload, CodecError> {
    Ok(match tag {
        t if t == EventClass::RegionEnter as u8 || t == EventClass::RegionExit as u8 => {
            let region = RegionId(r.u64()? as u32);
            let mut vals = [0u64; NCOUNTERS];
            for v in &mut vals {
                *v = r.u64()?;
            }
            let counters = CounterSnapshot::from_values(vals);
            if t == EventClass::RegionEnter as u8 {
                EventPayload::RegionEnter { region, counters }
            } else {
                EventPayload::RegionExit { region, counters }
            }
        }
        t if t == EventClass::CounterSample as u8 => {
            let ip = Ip(r.u64()?);
            let mut vals = [0u64; NCOUNTERS];
            for v in &mut vals {
                *v = r.u64()?;
            }
            let n = r.u64()? as usize;
            if n > r.remaining() {
                return Err(CodecError {
                    offset: r.pos(),
                    message: format!("stack of {n} entries overruns stream"),
                });
            }
            let mut stack = Vec::with_capacity(n);
            for _ in 0..n {
                stack.push(RegionId(r.u64()? as u32));
            }
            EventPayload::CounterSample { ip, counters: CounterSnapshot::from_values(vals), stack }
        }
        t if t == EventClass::Pebs as u8 => {
            let flags = r.u8()?;
            let ip = r.u64()?;
            let addr = r.u64()?;
            let size = r.u64()? as u32;
            let latency = r.u64()? as u32;
            let lvl = r.u8()?;
            let source = level_from(lvl, r.pos())?;
            let object =
                if flags & 0b100 != 0 { Some(ObjectId(r.u64()? as u32)) } else { None };
            EventPayload::Pebs {
                sample: PebsSample {
                    timestamp: cycles,
                    core,
                    ip,
                    addr,
                    size,
                    is_store: flags & 0b001 != 0,
                    latency,
                    source,
                    tlb_miss: flags & 0b010 != 0,
                },
                object,
            }
        }
        t if t == EventClass::Alloc as u8 => {
            EventPayload::Alloc { base: r.u64()?, size: r.u64()?, callsite: Ip(r.u64()?) }
        }
        t if t == EventClass::Free as u8 => EventPayload::Free { base: r.u64()? },
        t if t == EventClass::MuxSwitch as u8 => {
            let event_index = r.u64()? as usize;
            let label = String::from_utf8(r.bytes()?.to_vec()).map_err(|_| CodecError {
                offset: r.pos(),
                message: "mux label is not UTF-8".into(),
            })?;
            EventPayload::MuxSwitch { event_index, label }
        }
        t if t == EventClass::User as u8 => {
            EventPayload::User { kind: r.u64()? as u32, value: r.u64()? }
        }
        other => {
            return Err(CodecError { offset: r.pos(), message: format!("unknown event tag {other}") })
        }
    })
}

/// Advance `r` past one class-`tag` payload record without building it.
fn skip_payload(tag: u8, r: &mut varint::Reader<'_>) -> Result<(), CodecError> {
    match tag {
        t if t == EventClass::RegionEnter as u8 || t == EventClass::RegionExit as u8 => {
            r.skip_varints(1 + NCOUNTERS)
        }
        t if t == EventClass::CounterSample as u8 => {
            r.skip_varints(1 + NCOUNTERS)?;
            let n = r.u64()? as usize;
            if n > r.remaining() {
                return Err(CodecError {
                    offset: r.pos(),
                    message: format!("stack of {n} entries overruns stream"),
                });
            }
            r.skip_varints(n)
        }
        t if t == EventClass::Pebs as u8 => {
            let flags = r.u8()?;
            r.skip_varints(4)?;
            r.u8()?;
            if flags & 0b100 != 0 {
                r.skip_varint()?;
            }
            Ok(())
        }
        t if t == EventClass::Alloc as u8 => r.skip_varints(3),
        t if t == EventClass::Free as u8 => r.skip_varint(),
        t if t == EventClass::MuxSwitch as u8 => {
            r.skip_varint()?;
            r.bytes().map(|_| ())
        }
        t if t == EventClass::User as u8 => r.skip_varints(2),
        other => Err(CodecError { offset: r.pos(), message: format!("unknown event tag {other}") }),
    }
}

/// Scan a v2 chunk: decode the tag/timestamp/core columns, prefilter
/// against `query`'s time window, core set and kind mask, and
/// materialize **only** the candidate events (running the full
/// predicate on each before it is emitted). Non-matching events cost a
/// payload skip, not an allocation. With `query == None` every event
/// is materialized — the decode path of `materialize()` and the
/// round-trip tests.
pub fn scan_events_v2(
    buf: &[u8],
    count: usize,
    query: Option<&Query>,
    scratch: &mut DecodeScratch,
    out: &mut Vec<TraceEvent>,
) -> Result<ScanOutcome, CodecError> {
    let s = split_sections(buf, count)?;
    decode_columns(&s, count, scratch)?;
    let mut readers: [varint::Reader<'_>; NSTREAMS] = [
        varint::Reader::new(s.streams[0]),
        varint::Reader::new(s.streams[1]),
        varint::Reader::new(s.streams[2]),
        varint::Reader::new(s.streams[3]),
        varint::Reader::new(s.streams[4]),
        varint::Reader::new(s.streams[5]),
        varint::Reader::new(s.streams[6]),
        varint::Reader::new(s.streams[7]),
    ];
    // Column prefilter, hoisted out of the per-event loop.
    let (time, kinds, core_set) = match query {
        Some(q) => (q.time, q.kinds, q.cores.as_deref()),
        None => (None, KindMask::ALL, None),
    };
    // A class the kind mask excludes can never produce a match, and
    // since every class has its own payload stream, its bytes need no
    // per-event skip either — the whole stream is simply never read.
    // A kind-filtered scan therefore pays only the tag/column check
    // for excluded events.
    let active: [bool; NSTREAMS] = std::array::from_fn(|k| kinds.0 & (1u8 << k) != 0);
    let mut matched = 0u64;
    for i in 0..count {
        let tag = s.tags[i];
        if tag as usize >= NSTREAMS {
            return Err(CodecError { offset: i, message: format!("unknown event tag {tag}") });
        }
        if !active[tag as usize] {
            continue;
        }
        let cycles = scratch.cycles[i];
        let core = scratch.cores[i] as usize;
        let r = &mut readers[tag as usize];
        let candidate = time.is_none_or(|(lo, hi)| cycles >= lo && cycles <= hi)
            && core_set.is_none_or(|cs| cs.contains(&core));
        if !candidate {
            skip_payload(tag, r)?;
            continue;
        }
        let payload = decode_payload(tag, r, cycles, core)?;
        let event = TraceEvent { cycles, core, payload };
        if query.is_none_or(|q| q.matches(&event)) {
            matched += 1;
            out.push(event);
        }
    }
    let mut payload_bytes = 0u64;
    for (k, r) in readers.iter().enumerate() {
        // Streams of excluded classes were (intentionally) not walked,
        // so only the active ones can assert full consumption.
        if active[k] && !r.is_done() {
            return Err(CodecError {
                offset: r.pos(),
                message: format!("{} trailing bytes in payload stream {k}", r.remaining()),
            });
        }
        if active[k] {
            payload_bytes += s.streams[k].len() as u64;
        }
    }
    Ok(ScanOutcome { scanned: count as u64, matched, payload_bytes })
}

/// Decode exactly `count` events from a v2 chunk payload.
pub fn decode_events_v2(buf: &[u8], count: usize) -> Result<Vec<TraceEvent>, CodecError> {
    let mut out = Vec::with_capacity(count);
    let mut scratch = DecodeScratch::default();
    scan_events_v2(buf, count, None, &mut scratch, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

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
                        addr: 0xDEAD_BEEF_00,
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
            TraceEvent { cycles: 1_500, core: 0, payload: EventPayload::User { kind: 9, value: u64::MAX } },
            TraceEvent {
                cycles: 1_600,
                core: 3,
                payload: EventPayload::RegionExit { region: RegionId(3), counters: c },
            },
        ]
    }

    #[test]
    fn round_trip_every_payload_kind() {
        let evs = events();
        let buf = encode_events(&evs);
        let back = decode_events(&buf, evs.len()).expect("decode");
        assert_eq!(back, evs);
    }

    #[test]
    fn pebs_envelope_reconstructed() {
        let evs = events();
        let buf = encode_events(&evs);
        let back = decode_events(&buf, evs.len()).unwrap();
        if let EventPayload::Pebs { sample, .. } = &back[2].payload {
            assert_eq!(sample.timestamp, back[2].cycles);
            assert_eq!(sample.core, back[2].core);
        } else {
            panic!("expected PEBS");
        }
    }

    #[test]
    fn wrong_count_is_rejected() {
        let evs = events();
        let buf = encode_events(&evs);
        assert!(decode_events(&buf, evs.len() - 1).is_err(), "trailing bytes");
        assert!(decode_events(&buf, evs.len() + 1).is_err(), "truncation");
    }

    #[test]
    fn corrupt_tag_is_rejected() {
        let evs = events();
        let mut buf = encode_events(&evs);
        buf[0] = 0xEE;
        assert!(decode_events(&buf, evs.len()).is_err());
    }

    #[test]
    fn empty_chunk() {
        assert_eq!(encode_events(&[]), Vec::<u8>::new());
        assert_eq!(decode_events(&[], 0).unwrap(), Vec::new());
    }

    #[test]
    fn v2_round_trip_every_payload_kind() {
        let evs = events();
        let buf = encode_events_v2(&evs);
        let back = decode_events_v2(&buf, evs.len()).expect("decode v2");
        assert_eq!(back, evs);
    }

    #[test]
    fn v2_incremental_builder_equals_batch_encode() {
        let evs = events();
        let mut b = ChunkBuilder::new();
        for e in &evs {
            b.push(e);
        }
        assert_eq!(b.events(), evs.len());
        let payload = b.serialize();
        assert_eq!(payload, encode_events_v2(&evs));
        // The builder resets and the next chunk restarts its deltas.
        assert_eq!(b.events(), 0);
        for e in &evs {
            b.push(e);
        }
        assert_eq!(b.serialize(), payload, "reset builder must re-encode identically");
    }

    #[test]
    fn v2_filtered_scan_equals_decode_then_filter() {
        let evs = events();
        let buf = encode_events_v2(&evs);
        let queries = [
            Query::all(),
            Query::all().in_time(1_000, 1_300),
            Query::all().with_kinds(&[EventClass::Pebs, EventClass::User]),
            Query::all().on_cores(&[1, 3]),
            Query::all().touching_object(ObjectId(7)),
            Query::all().touching_object(ObjectId(8)),
            Query::all().in_time(0, 0),
        ];
        for q in &queries {
            let mut scratch = DecodeScratch::default();
            let mut got = Vec::new();
            let outcome =
                scan_events_v2(&buf, evs.len(), Some(q), &mut scratch, &mut got).unwrap();
            let want: Vec<_> = evs.iter().filter(|e| q.matches(e)).cloned().collect();
            assert_eq!(got, want, "{q:?}");
            assert_eq!(outcome.scanned, evs.len() as u64);
            assert_eq!(outcome.matched, want.len() as u64);
        }
    }

    #[test]
    fn v2_rejects_wrong_count_and_corrupt_sections() {
        let evs = events();
        let buf = encode_events_v2(&evs);
        assert!(decode_events_v2(&buf, evs.len() - 1).is_err());
        assert!(decode_events_v2(&buf, evs.len() + 1).is_err());
        assert!(decode_events_v2(&buf[..buf.len() - 1], evs.len()).is_err());
        // A corrupt tag column entry is caught.
        let mut bad = buf.clone();
        // Section prefix is 10 varints; the tag column starts after it.
        let mut pos = 0usize;
        for _ in 0..10 {
            crate::varint::get_u64(&bad, &mut pos).unwrap();
        }
        bad[pos] = 0xEE;
        assert!(decode_events_v2(&bad, evs.len()).is_err());
    }

    #[test]
    fn v2_empty_chunk() {
        let buf = encode_events_v2(&[]);
        assert_eq!(decode_events_v2(&buf, 0).unwrap(), Vec::new());
    }

    #[test]
    fn v2_encoding_no_larger_than_v1() {
        // Columns carry the same varints as v1 minus nothing, plus a
        // fixed ~11-byte section table; on any realistic chunk the
        // transposition is a wash before compression and a win after.
        let c = CounterSnapshot::from_values([100, 200, 10, 5, 2, 1, 40, 20, 0, 30, 15, 8]);
        let evs: Vec<TraceEvent> = (0..1000)
            .map(|i| TraceEvent {
                cycles: i * 50,
                core: (i % 4) as usize,
                payload: EventPayload::RegionEnter { region: RegionId(1), counters: c },
            })
            .collect();
        let v1 = encode_events(&evs);
        let v2 = encode_events_v2(&evs);
        assert!(v2.len() <= v1.len() + 16, "v2 {} vs v1 {}", v2.len(), v1.len());
        // And the LZ pass likes columns better (or at least as much).
        let lz1 = crate::lz::compress(&v1).len();
        let lz2 = crate::lz::compress(&v2).len();
        assert!(lz2 as f64 <= lz1 as f64 * 1.05, "lz(v2) {lz2} vs lz(v1) {lz1}");
    }

    #[test]
    fn encoding_is_compact() {
        // Region events: tag + delta + core + region + 12 counters —
        // small numbers, so well under the in-memory footprint.
        let c = CounterSnapshot::from_values([100, 200, 10, 5, 2, 1, 40, 20, 0, 30, 15, 8]);
        let evs: Vec<TraceEvent> = (0..1000)
            .map(|i| TraceEvent {
                cycles: i * 50,
                core: (i % 4) as usize,
                payload: EventPayload::RegionEnter { region: RegionId(1), counters: c },
            })
            .collect();
        let buf = encode_events(&evs);
        assert!(buf.len() < evs.len() * 24, "{} bytes for {} events", buf.len(), evs.len());
    }
}

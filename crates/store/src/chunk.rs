//! Chunk footer-index entries and predicate pushdown.
//!
//! Every chunk the writer seals gets one [`ChunkMeta`] in the file's
//! footer index: where the payload lives, how it is compressed, and a
//! four-dimensional summary of its contents — time range, core
//! bitmap, event-kind bitmap, and the range of resolved object ids.
//! [`ChunkMeta::may_match`] is the reader's pruning test: it must
//! never reject a chunk containing a matching event (soundness), and
//! the tighter it is, the fewer chunks a selective query decodes.

use crate::crc::crc32c;
use crate::varint::{get_u64, put_u64, CodecError};
use mempersp_extrae::events::{EventPayload, TraceEvent};
use mempersp_extrae::query::{EventClass, KindMask, Query};

/// Payload compression applied to a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compression {
    /// Varint-encoded events, stored as-is.
    Raw,
    /// Varint-encoded events behind the in-tree LZ pass ([`crate::lz`]).
    Lz,
}

impl Compression {
    pub fn code(self) -> u8 {
        match self {
            Compression::Raw => 0,
            Compression::Lz => 1,
        }
    }

    pub fn from_code(code: u8) -> Result<Self, CodecError> {
        match code {
            0 => Ok(Compression::Raw),
            1 => Ok(Compression::Lz),
            other => Err(CodecError { offset: 0, message: format!("unknown compression code {other}") }),
        }
    }
}

/// Sentinel for "this chunk has no object-resolved PEBS sample".
pub const NO_OBJECTS: (u32, u32) = (u32::MAX, 0);

/// Leading magic of a per-chunk frame.
pub const FRAME_MAGIC: &[u8; 4] = b"MPC3";
/// Encoded size of a chunk frame, preceding every chunk payload.
pub const FRAME_LEN: usize = 28;

/// The self-delimiting header written immediately before each chunk
/// payload. It carries enough to (a) verify the payload
/// against bit-rot (`payload_crc`), (b) verify *itself* against torn
/// writes (`header_crc`), and (c) rebuild a usable [`ChunkMeta`] when
/// the footer index never made it to disk — a forward scan hops
/// frame-to-frame by `FRAME_LEN + stored_len`.
///
/// Layout (all little-endian):
///
/// ```text
/// 0..4   magic "MPC3"
/// 4..8   stored_len   (payload bytes on disk)
/// 8..12  raw_len      (payload bytes after decompression)
/// 12..16 events       (event count in the chunk)
/// 16     compression code
/// 17..20 reserved, zero
/// 20..24 payload_crc  (CRC32C of the stored payload)
/// 24..28 header_crc   (CRC32C of bytes 0..24)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkFrame {
    pub stored_len: u32,
    pub raw_len: u32,
    pub events: u32,
    pub compression: Compression,
    pub payload_crc: u32,
}

impl ChunkFrame {
    pub fn encode(&self) -> [u8; FRAME_LEN] {
        let mut b = [0u8; FRAME_LEN];
        b[0..4].copy_from_slice(FRAME_MAGIC);
        b[4..8].copy_from_slice(&self.stored_len.to_le_bytes());
        b[8..12].copy_from_slice(&self.raw_len.to_le_bytes());
        b[12..16].copy_from_slice(&self.events.to_le_bytes());
        b[16] = self.compression.code();
        b[20..24].copy_from_slice(&self.payload_crc.to_le_bytes());
        let header_crc = crc32c(&b[0..24]);
        b[24..28].copy_from_slice(&header_crc.to_le_bytes());
        b
    }

    /// Decode and validate a frame: magic, self-checksum, compression
    /// code. A frame that passes is authentic with ~2^-32 false-accept
    /// odds, which is what makes forward-scan resynchronization safe.
    pub fn decode(buf: &[u8]) -> Result<ChunkFrame, CodecError> {
        if buf.len() < FRAME_LEN {
            return Err(CodecError { offset: 0, message: "truncated chunk frame".into() });
        }
        if &buf[0..4] != FRAME_MAGIC {
            return Err(CodecError { offset: 0, message: "bad chunk frame magic".into() });
        }
        let want = u32::from_le_bytes(buf[24..28].try_into().unwrap());
        let got = crc32c(&buf[0..24]);
        if want != got {
            return Err(CodecError {
                offset: 24,
                message: format!("chunk frame checksum mismatch (stored {want:#010x}, computed {got:#010x})"),
            });
        }
        let compression = Compression::from_code(buf[16])?;
        Ok(ChunkFrame {
            stored_len: u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            raw_len: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            events: u32::from_le_bytes(buf[12..16].try_into().unwrap()),
            compression,
            payload_crc: u32::from_le_bytes(buf[20..24].try_into().unwrap()),
        })
    }

    /// A conservative footer-index entry for a chunk recovered from
    /// its frame alone: content summaries are unknown, so every field
    /// is widened to "may contain anything" — [`ChunkMeta::may_match`]
    /// then never false-negatives on salvaged chunks.
    pub fn to_salvaged_meta(self, payload_offset: u64) -> ChunkMeta {
        ChunkMeta {
            offset: payload_offset,
            stored_len: self.stored_len,
            raw_len: self.raw_len,
            compression: self.compression,
            events: self.events,
            first_cycles: 0,
            last_cycles: u64::MAX,
            core_mask: !0,
            kind_mask: KindMask::ALL,
            obj_lo: 0,
            obj_hi: u32::MAX,
        }
    }
}

/// One chunk's entry in the footer index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMeta {
    /// File offset of the stored payload.
    pub offset: u64,
    /// Stored (possibly compressed) payload length in bytes.
    pub stored_len: u32,
    /// Raw encoded length (what [`crate::codec::select_v4`] sees).
    pub raw_len: u32,
    pub compression: Compression,
    /// Number of events in the chunk.
    pub events: u32,
    /// Smallest event timestamp in the chunk (cycles).
    pub first_cycles: u64,
    /// Largest event timestamp in the chunk (cycles).
    pub last_cycles: u64,
    /// Bit `min(core, 63)` set for every core appearing in the chunk;
    /// bit 63 therefore means "some core ≥ 63" and is conservative.
    pub core_mask: u64,
    /// Bitmap of the [`EventClass`]es present.
    pub kind_mask: KindMask,
    /// Range of resolved [`ObjectId`](mempersp_extrae::ObjectId)s among PEBS samples;
    /// [`NO_OBJECTS`] when the chunk has none.
    pub obj_lo: u32,
    pub obj_hi: u32,
}

/// The saturating core-bitmap bit of one core id.
pub fn core_bit(core: usize) -> u64 {
    1u64 << core.min(63)
}

impl ChunkMeta {
    /// Summarize a batch of events (payload location filled by the
    /// writer once the bytes are on disk).
    pub fn summarize(events: &[TraceEvent]) -> ChunkMeta {
        let mut m = ChunkMeta {
            offset: 0,
            stored_len: 0,
            raw_len: 0,
            compression: Compression::Raw,
            events: events.len() as u32,
            first_cycles: u64::MAX,
            last_cycles: 0,
            core_mask: 0,
            kind_mask: KindMask::NONE,
            obj_lo: NO_OBJECTS.0,
            obj_hi: NO_OBJECTS.1,
        };
        for e in events {
            m.observe(e);
        }
        m
    }

    /// Fold one event into the summary.
    pub fn observe(&mut self, e: &TraceEvent) {
        self.first_cycles = self.first_cycles.min(e.cycles);
        self.last_cycles = self.last_cycles.max(e.cycles);
        self.core_mask |= core_bit(e.core);
        self.kind_mask.insert(EventClass::of(&e.payload));
        if let EventPayload::Pebs { object: Some(o), .. } = &e.payload {
            self.obj_lo = self.obj_lo.min(o.0);
            self.obj_hi = self.obj_hi.max(o.0);
        }
    }

    /// Can any event in this chunk satisfy `q`? False positives are
    /// allowed (the per-event filter runs after decode); false
    /// negatives would silently drop matching events.
    pub fn may_match(&self, q: &Query) -> bool {
        if self.events == 0 {
            return false;
        }
        if let Some((lo, hi)) = q.time {
            if self.last_cycles < lo || self.first_cycles > hi {
                return false;
            }
        }
        if !self.kind_mask.intersects(q.kinds) {
            return false;
        }
        if let Some(cores) = &q.cores {
            let want: u64 = cores.iter().fold(0, |m, &c| m | core_bit(c));
            if self.core_mask & want == 0 {
                return false;
            }
        }
        if let Some(obj) = q.object {
            // Object queries only ever match PEBS samples with a
            // resolution; a chunk without any can be skipped outright.
            if self.obj_lo == NO_OBJECTS.0 || obj.0 < self.obj_lo || obj.0 > self.obj_hi {
                return false;
            }
        }
        true
    }

    /// Serialize into the footer index.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.offset);
        put_u64(out, self.stored_len as u64);
        put_u64(out, self.raw_len as u64);
        out.push(self.compression.code());
        put_u64(out, self.events as u64);
        put_u64(out, self.first_cycles);
        put_u64(out, self.last_cycles);
        put_u64(out, self.core_mask);
        out.push(self.kind_mask.0);
        put_u64(out, self.obj_lo as u64);
        put_u64(out, self.obj_hi as u64);
    }

    /// Inverse of [`ChunkMeta::encode`].
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<ChunkMeta, CodecError> {
        let offset = get_u64(buf, pos)?;
        let stored_len = get_u64(buf, pos)? as u32;
        let raw_len = get_u64(buf, pos)? as u32;
        let comp = *buf
            .get(*pos)
            .ok_or_else(|| CodecError { offset: *pos, message: "truncated compression code".into() })?;
        *pos += 1;
        let compression = Compression::from_code(comp)?;
        let events = get_u64(buf, pos)? as u32;
        let first_cycles = get_u64(buf, pos)?;
        let last_cycles = get_u64(buf, pos)?;
        let core_mask = get_u64(buf, pos)?;
        let kind = *buf
            .get(*pos)
            .ok_or_else(|| CodecError { offset: *pos, message: "truncated kind mask".into() })?;
        *pos += 1;
        Ok(ChunkMeta {
            offset,
            stored_len,
            raw_len,
            compression,
            events,
            first_cycles,
            last_cycles,
            core_mask,
            kind_mask: KindMask(kind),
            obj_lo: get_u64(buf, pos)? as u32,
            obj_hi: get_u64(buf, pos)? as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_extrae::events::RegionId;
    use mempersp_extrae::objects::ObjectId;
    use mempersp_pebs::{CounterSnapshot, PebsSample};

    fn enter(cycles: u64, core: usize) -> TraceEvent {
        TraceEvent {
            cycles,
            core,
            payload: EventPayload::RegionEnter {
                region: RegionId(0),
                counters: CounterSnapshot::default(),
            },
        }
    }

    fn pebs(cycles: u64, core: usize, object: Option<u32>) -> TraceEvent {
        TraceEvent {
            cycles,
            core,
            payload: EventPayload::Pebs {
                sample: PebsSample {
                    timestamp: cycles,
                    core,
                    ip: 1,
                    addr: 2,
                    size: 8,
                    is_store: false,
                    latency: 1,
                    source: mempersp_memsim::MemLevel::L1,
                    tlb_miss: false,
                },
                object: object.map(ObjectId),
            },
        }
    }

    #[test]
    fn summary_captures_all_dimensions() {
        let evs = vec![enter(100, 0), pebs(150, 2, Some(5)), pebs(200, 2, Some(9))];
        let m = ChunkMeta::summarize(&evs);
        assert_eq!((m.first_cycles, m.last_cycles), (100, 200));
        assert_eq!(m.core_mask, 0b101);
        assert!(m.kind_mask.contains(EventClass::RegionEnter));
        assert!(m.kind_mask.contains(EventClass::Pebs));
        assert!(!m.kind_mask.contains(EventClass::Free));
        assert_eq!((m.obj_lo, m.obj_hi), (5, 9));
    }

    #[test]
    fn pruning_is_sound_and_selective() {
        let m = ChunkMeta::summarize(&[enter(100, 0), pebs(150, 2, Some(5))]);
        // Time pruning.
        assert!(!m.may_match(&Query::all().in_time(0, 99)));
        assert!(!m.may_match(&Query::all().in_time(151, 300)));
        assert!(m.may_match(&Query::all().in_time(150, 150)));
        // Kind pruning.
        assert!(!m.may_match(&Query::all().with_kinds(&[EventClass::Free])));
        assert!(m.may_match(&Query::all().with_kinds(&[EventClass::Pebs])));
        // Core pruning.
        assert!(!m.may_match(&Query::all().on_cores(&[1, 3])));
        assert!(m.may_match(&Query::all().on_cores(&[2])));
        // Object pruning.
        assert!(!m.may_match(&Query::all().touching_object(ObjectId(4))));
        assert!(!m.may_match(&Query::all().touching_object(ObjectId(6))));
        assert!(m.may_match(&Query::all().touching_object(ObjectId(5))));
    }

    #[test]
    fn chunk_without_objects_skips_object_queries() {
        let m = ChunkMeta::summarize(&[enter(100, 0), pebs(150, 0, None)]);
        assert!(!m.may_match(&Query::all().touching_object(ObjectId(0))));
    }

    #[test]
    fn empty_chunk_never_matches() {
        let m = ChunkMeta::summarize(&[]);
        assert!(!m.may_match(&Query::all()));
    }

    #[test]
    fn saturating_core_bits() {
        let m = ChunkMeta::summarize(&[enter(1, 100)]);
        assert_eq!(m.core_mask, 1u64 << 63);
        assert!(m.may_match(&Query::all().on_cores(&[200])), "≥63 cores alias conservatively");
    }

    #[test]
    fn frame_round_trips_and_rejects_damage() {
        let f = ChunkFrame {
            stored_len: 4096,
            raw_len: 65536,
            events: 1234,
            compression: Compression::Lz,
            payload_crc: 0xDEAD_BEEF,
        };
        let enc = f.encode();
        assert_eq!(ChunkFrame::decode(&enc).unwrap(), f);
        // Any single-byte flip anywhere in the frame is caught.
        for i in 0..FRAME_LEN {
            let mut bad = enc;
            bad[i] ^= 0x40;
            assert!(ChunkFrame::decode(&bad).is_err(), "flip at byte {i} undetected");
        }
        assert!(ChunkFrame::decode(&enc[..FRAME_LEN - 1]).is_err());
    }

    #[test]
    fn salvaged_meta_is_conservative() {
        let f = ChunkFrame {
            stored_len: 10,
            raw_len: 20,
            events: 3,
            compression: Compression::Raw,
            payload_crc: 0,
        };
        let m = f.to_salvaged_meta(99);
        assert_eq!((m.offset, m.stored_len, m.raw_len, m.events), (99, 10, 20, 3));
        // A salvaged meta must never prune: it matches every query shape.
        assert!(m.may_match(&Query::all().in_time(5, 6)));
        assert!(m.may_match(&Query::all().on_cores(&[7])));
        assert!(m.may_match(&Query::all().touching_object(ObjectId(42))));
    }

    #[test]
    fn meta_round_trips_through_index_encoding() {
        let mut m = ChunkMeta::summarize(&[enter(100, 0), pebs(150, 2, Some(5))]);
        m.offset = 123_456;
        m.stored_len = 777;
        m.raw_len = 999;
        m.compression = Compression::Lz;
        let mut buf = Vec::new();
        m.encode(&mut buf);
        let mut pos = 0;
        let back = ChunkMeta::decode(&buf, &mut pos).unwrap();
        assert_eq!(back, m);
        assert_eq!(pos, buf.len());
    }
}

//! A small in-tree LZ77 block compressor.
//!
//! The workspace builds offline, so the store cannot pull zstd/lz4;
//! this module provides the "simple LZ-style codec" the chunk layer
//! applies after varint encoding. Design goals are correctness, decode
//! speed, and an encoder that does not spend on data it cannot shrink
//! — not ratio records:
//!
//! * one hash probe per searched position over a 64 KiB window (chunks
//!   are ~64 KiB, so the window always covers the whole block), with
//!   LZ4-style skip acceleration: after every 2^`SKIP_BITS` failed
//!   probes in a row the search step grows by one byte, and a match
//!   resets it. A match is extended backwards into the pending
//!   literals (the step may have jumped past its start), then forwards;
//! * [`compress`] takes the longest stream its caller would keep and
//!   stops with `None` as soon as the stream passes it;
//! * token stream: a control byte carries 8 flags (LSB first;
//!   0 = literal byte follows, 1 = match follows), a match is
//!   `offset:u16le` + `len-MIN_MATCH:u8` (match lengths 4..=259);
//! * decompression verifies every offset/length against the already
//!   produced output, so corrupt blocks fail loudly instead of
//!   reading out of bounds.

use crate::varint::CodecError;

/// Shortest match worth a 3-byte token (a 3-byte match would break
/// even only at flag-bit granularity; 4 keeps the encoder simple).
const MIN_MATCH: usize = 4;
/// `MIN_MATCH + u8::MAX`.
const MAX_MATCH: usize = MIN_MATCH + 255;
/// Window = maximum back-reference distance (u16 offset, 0 invalid).
const MAX_OFFSET: usize = u16::MAX as usize;

const HASH_BITS: u32 = 15;

/// The search step is `1 + misses / 2^SKIP_BITS`, `misses` counting
/// the failed probes since the last match. Smaller skips faster through
/// incompressible chunks and finds fewer matches in compressible ones;
/// DESIGN §9 has the measured trade per value.
const SKIP_BITS: u32 = 7;

fn read4(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + 4].try_into().expect("4-byte slice"))
}

fn hash4(v: u32) -> usize {
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, at most
/// `max`, eight bytes per compare.
fn common_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut l = 0;
    while l + 8 <= max {
        let x = u64::from_le_bytes(data[a + l..a + l + 8].try_into().expect("8-byte slice"))
            ^ u64::from_le_bytes(data[b + l..b + l + 8].try_into().expect("8-byte slice"));
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// A token stream being written into a buffer sized once for the
/// worst case.
struct Tokens {
    out: Vec<u8>,
    len: usize,
    /// Where the open group's control byte sits.
    ctrl: usize,
    /// Tokens in the open group; 8 = none open.
    nflags: u32,
}

impl Tokens {
    fn new(input_len: usize) -> Tokens {
        // All literals is the longest stream: a match token (3 bytes
        // for at least 4) never costs more than the literals it saves.
        Tokens { out: vec![0; input_len + input_len.div_ceil(8)], len: 0, ctrl: 0, nflags: 8 }
    }

    fn flag(&mut self, is_match: bool) {
        if self.nflags == 8 {
            self.ctrl = self.len;
            self.out[self.len] = 0;
            self.len += 1;
            self.nflags = 0;
        }
        self.out[self.ctrl] |= u8::from(is_match) << self.nflags;
        self.nflags += 1;
    }

    /// Literal tokens for `lits`: the open group first, then a control
    /// byte and one eight-byte copy per whole group.
    fn literals(&mut self, mut lits: &[u8]) {
        while self.nflags < 8 {
            let Some((&b, rest)) = lits.split_first() else { return };
            self.out[self.len] = b;
            self.len += 1;
            self.nflags += 1;
            lits = rest;
        }
        let mut groups = lits.chunks_exact(8);
        for g in &mut groups {
            self.out[self.len] = 0;
            self.out[self.len + 1..self.len + 9].copy_from_slice(g);
            self.len += 9;
        }
        for &b in groups.remainder() {
            self.flag(false);
            self.out[self.len] = b;
            self.len += 1;
        }
    }

    fn matched(&mut self, offset: usize, len: usize) {
        self.flag(true);
        let [lo, hi] = (offset as u16).to_le_bytes();
        self.out[self.len..self.len + 3].copy_from_slice(&[lo, hi, (len - MIN_MATCH) as u8]);
        self.len += 3;
    }
}

thread_local! {
    /// The match table, kept per thread: allocating 128 KiB per chunk
    /// costs page faults, zeroing it does not.
    static HEAD: std::cell::Cell<Vec<u32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Compress `input` into a token stream, or return `None` if the
/// stream would be longer than `limit` bytes — decided as soon as the
/// written part passes `limit`, which is exact because the stream only
/// grows. The empty input compresses to the empty output.
pub fn compress(input: &[u8], limit: usize) -> Option<Vec<u8>> {
    let mut head = HEAD.take();
    head.clear();
    head.resize(1 << HASH_BITS, 0);
    let out = compress_with(&mut head, input, limit);
    HEAD.set(head);
    out
}

/// [`compress`] over a zeroed table: `head[h]` = most recent probed
/// position with hash `h`, plus one (0 = none).
fn compress_with(head: &mut [u32], input: &[u8], limit: usize) -> Option<Vec<u8>> {
    let n = input.len();
    let mut t = Tokens::new(n);
    // `input[anchor..i]` is searched but not yet written.
    let (mut anchor, mut i) = (0usize, 0usize);
    let mut misses = 0usize;
    while i + MIN_MATCH <= n {
        let v = read4(input, i);
        let h = hash4(v);
        let cand = head[h] as usize;
        head[h] = (i + 1) as u32;
        if cand == 0 || i - (cand - 1) > MAX_OFFSET || read4(input, cand - 1) != v {
            i += 1 + (misses >> SKIP_BITS);
            misses += 1;
            continue;
        }
        misses = 0;
        let (mut start, mut from) = (i, cand - 1);
        while start > anchor
            && from > 0
            && input[start - 1] == input[from - 1]
            && i - start < MAX_MATCH - MIN_MATCH
        {
            start -= 1;
            from -= 1;
        }
        let forward = (n - i).min(MAX_MATCH - (i - start)) - MIN_MATCH;
        let end = i + MIN_MATCH + common_len(input, cand - 1 + MIN_MATCH, i + MIN_MATCH, forward);
        t.literals(&input[anchor..start]);
        t.matched(start - from, end - start);
        if t.len > limit {
            return None;
        }
        // Seed the table near the match's end, so data that repeats
        // what follows the match can find it.
        if end + 2 <= n {
            head[hash4(read4(input, end - 2))] = (end - 1) as u32;
        }
        (anchor, i) = (end, end);
    }
    t.literals(&input[anchor..]);
    (t.len <= limit).then(|| {
        t.out.truncate(t.len);
        t.out
    })
}

/// Decompress a [`compress`]-produced stream; `expected_len` is the
/// raw length recorded next to the block (the format always stores
/// it), used to size the output and to verify termination.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
    let err = |offset: usize, message: &str| CodecError { offset, message: message.into() };
    let mut out = vec![0u8; expected_len];
    // `i` reads `input`, `o` writes `out`.
    let (mut i, mut o) = (0usize, 0usize);
    while o < expected_len {
        let flags = *input.get(i).ok_or_else(|| err(i, "truncated control byte"))?;
        i += 1;
        // Eight literals under one control byte: one copy. Anything
        // short of that (input or output ending inside the run) takes
        // the token loop below, which knows what to report.
        if flags == 0 && i + 8 <= input.len() && o + 8 <= expected_len {
            out[o..o + 8].copy_from_slice(&input[i..i + 8]);
            i += 8;
            o += 8;
            continue;
        }
        for bit in 0..8 {
            if o == expected_len {
                break;
            }
            if flags & (1 << bit) == 0 {
                out[o] = *input.get(i).ok_or_else(|| err(i, "truncated literal"))?;
                i += 1;
                o += 1;
            } else {
                if i + 3 > input.len() {
                    return Err(err(i, "truncated match token"));
                }
                let off = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
                let len = input[i + 2] as usize + MIN_MATCH;
                i += 3;
                if off == 0 || off > o {
                    return Err(err(i, "match offset out of range"));
                }
                if o + len > expected_len {
                    return Err(err(i, "match overruns declared length"));
                }
                let start = o - off;
                if off >= len {
                    out.copy_within(start..start + len, o);
                } else {
                    // An overlapping match (off < len) is legal and
                    // replicates the just-written bytes, RLE-style:
                    // only a byte loop reads what it wrote.
                    for k in 0..len {
                        out[o + k] = out[start + k];
                    }
                }
                o += len;
            }
        }
    }
    if i != input.len() {
        return Err(err(i, "trailing garbage after final token"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The decoder as it was first written — one `push` per output
    /// byte — kept as the reference: [`decompress`] must return the
    /// same bytes or the same error on every stream.
    fn decompress_bytewise(input: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
        let err = |offset: usize, message: &str| CodecError { offset, message: message.into() };
        let mut out = Vec::with_capacity(expected_len);
        let mut i = 0usize;
        while out.len() < expected_len {
            let flags = *input.get(i).ok_or_else(|| err(i, "truncated control byte"))?;
            i += 1;
            for bit in 0..8 {
                if out.len() == expected_len {
                    break;
                }
                if flags & (1 << bit) == 0 {
                    let b = *input.get(i).ok_or_else(|| err(i, "truncated literal"))?;
                    i += 1;
                    out.push(b);
                } else {
                    if i + 3 > input.len() {
                        return Err(err(i, "truncated match token"));
                    }
                    let off = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
                    let len = input[i + 2] as usize + MIN_MATCH;
                    i += 3;
                    if off == 0 || off > out.len() {
                        return Err(err(i, "match offset out of range"));
                    }
                    if out.len() + len > expected_len {
                        return Err(err(i, "match overruns declared length"));
                    }
                    let start = out.len() - off;
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
            }
        }
        if i != input.len() {
            return Err(err(i, "trailing garbage after final token"));
        }
        Ok(out)
    }

    /// Bytes that compress into a mix of literal runs, plain matches
    /// and overlapping (RLE-style) ones.
    fn arb_compressible() -> BoxedStrategy<Vec<u8>> {
        prop::collection::vec((prop::collection::vec(any::<u8>(), 1..24), 1usize..12, 0usize..20), 0..24)
            .prop_map(|parts| {
                let mut data = Vec::new();
                for (unit, reps, run) in parts {
                    for _ in 0..reps {
                        data.extend_from_slice(&unit);
                    }
                    data.extend(std::iter::repeat_n(unit[0], run));
                }
                data
            })
            .boxed()
    }

    proptest! {
        /// Valid streams, truncated ones, bit-flipped ones, streams
        /// decoded against the wrong length and plain noise: the same
        /// `Result` as the byte-wise decoder, error offsets included.
        #[test]
        fn decompress_equals_the_bytewise_decoder(
            data in arb_compressible(),
            noise in prop::collection::vec(any::<u8>(), 0..64),
            cut in any::<u16>(),
            flip in (any::<u16>(), 0u8..8),
            len_delta in 0usize..20,
        ) {
            let packed = compress(&data, usize::MAX).unwrap();
            prop_assert_eq!(decompress(&packed, data.len()), Ok(data.clone()));
            let mut streams = vec![packed.clone(), noise.clone()];
            if !packed.is_empty() {
                streams.push(packed[..cut as usize % packed.len()].to_vec());
                let mut flipped = packed.clone();
                flipped[flip.0 as usize % packed.len()] ^= 1 << flip.1;
                streams.push(flipped);
                streams.push([&packed[..], &noise[..]].concat());
            }
            for stream in &streams {
                for len in [data.len(), data.len() + len_delta, data.len().saturating_sub(len_delta), noise.len() * 3] {
                    prop_assert_eq!(
                        decompress(stream, len),
                        decompress_bytewise(stream, len),
                        "{} bytes decoded as {}", stream.len(), len
                    );
                }
            }
        }
    }

    fn round_trip(data: &[u8]) {
        let c = compress(data, usize::MAX).unwrap();
        let d = decompress(&c, data.len()).expect("decompress");
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_tiny() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
    }

    #[test]
    fn repetitive_data_shrinks() {
        let data: Vec<u8> = b"E 100 0 ENTER 3 1,2,3,4,5,6,7,8,9,10,11,12\n".repeat(200);
        let c = compress(&data, usize::MAX).unwrap();
        assert!(c.len() < data.len() / 3, "{} vs {}", c.len(), data.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn rle_overlapping_matches() {
        let data = vec![7u8; 10_000];
        let c = compress(&data, usize::MAX).unwrap();
        assert!(c.len() < 200, "run-length-like compression: {}", c.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn incompressible_data_survives() {
        // A simple LCG as a deterministic pseudo-random stream.
        let mut x = 0x2545F491_4F6CDD1Du64;
        let data: Vec<u8> = (0..65_536)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn corrupt_offset_is_rejected() {
        // One match token referencing before the start of output.
        let stream = vec![0b0000_0001u8, 0xFF, 0xFF, 0x00];
        assert!(decompress(&stream, 100).is_err());
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let data: Vec<u8> = b"abcdabcdabcdabcd".to_vec();
        let mut c = compress(&data, usize::MAX).unwrap();
        c.pop();
        assert!(decompress(&c, data.len()).is_err());
    }

    #[test]
    fn wrong_expected_len_is_rejected() {
        let data = vec![1u8; 64];
        let c = compress(&data, usize::MAX).unwrap();
        assert!(decompress(&c, 63).is_err(), "trailing token detected");
    }
}

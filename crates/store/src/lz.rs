//! A small in-tree LZ77 block compressor.
//!
//! The workspace builds offline, so the store cannot pull zstd/lz4;
//! this module provides the "simple LZ-style codec" the chunk layer
//! applies after varint encoding. Design goals are correctness and
//! decode speed, not ratio records:
//!
//! * greedy hash-chain matching over a 64 KiB window (chunks are
//!   ~64 KiB, so the window always covers the whole block);
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

fn hash4(data: &[u8]) -> usize {
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Compress `input` into a token stream. The empty input compresses
/// to the empty output.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    // head[h] = most recent position with hash h (+1; 0 = none).
    let mut head = vec![0u32; 1 << HASH_BITS];

    let mut flags_at = usize::MAX;
    let mut flags = 0u8;
    let mut nflags = 0u8;
    let mut push_token = |out: &mut Vec<u8>, is_match: bool| {
        if nflags == 0 {
            flags_at = out.len();
            out.push(0);
            flags = 0;
        }
        if is_match {
            flags |= 1 << nflags;
        }
        nflags += 1;
        out[flags_at] = flags;
        if nflags == 8 {
            nflags = 0;
        }
    };

    let mut i = 0usize;
    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= input.len() {
            let h = hash4(&input[i..]);
            let cand = head[h] as usize;
            head[h] = (i + 1) as u32;
            if cand > 0 {
                let cand = cand - 1;
                let off = i - cand;
                if off <= MAX_OFFSET && off > 0 {
                    let limit = (input.len() - i).min(MAX_MATCH);
                    let mut l = 0usize;
                    while l < limit && input[cand + l] == input[i + l] {
                        l += 1;
                    }
                    if l >= MIN_MATCH {
                        best_len = l;
                        best_off = off;
                    }
                }
            }
        }
        if best_len >= MIN_MATCH {
            push_token(&mut out, true);
            out.extend_from_slice(&(best_off as u16).to_le_bytes());
            out.push((best_len - MIN_MATCH) as u8);
            // Seed the hash table inside the match so later data can
            // reference positions we skipped over (bounded to keep the
            // encoder O(n)).
            let seed_end = (i + best_len).min(input.len().saturating_sub(MIN_MATCH));
            let mut j = i + 1;
            while j < seed_end && j < i + 16 {
                head[hash4(&input[j..])] = (j + 1) as u32;
                j += 1;
            }
            i += best_len;
        } else {
            push_token(&mut out, false);
            out.push(input[i]);
            i += 1;
        }
    }
    out
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
            let packed = compress(&data);
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
        let c = compress(data);
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
        let c = compress(&data);
        assert!(c.len() < data.len() / 3, "{} vs {}", c.len(), data.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn rle_overlapping_matches() {
        let data = vec![7u8; 10_000];
        let c = compress(&data);
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
        let mut c = compress(&data);
        c.pop();
        assert!(decompress(&c, data.len()).is_err());
    }

    #[test]
    fn wrong_expected_len_is_rejected() {
        let data = vec![1u8; 64];
        let c = compress(&data);
        assert!(decompress(&c, 63).is_err(), "trailing token detected");
    }
}

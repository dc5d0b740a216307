//! The chunk compressor's ratio on real trace chunks: the skipping
//! encoder may search fewer positions than a search at every byte, but
//! on HPCG chunks it must stay within 0.25 % of that encoder's output.

use mempersp::core::{Machine, MachineConfig, PebsCoreSelect};
use mempersp::hpcg::{HpcgConfig, HpcgWorkload};
use mempersp::store::codec::ChunkBuilderV4;
use mempersp::store::{lz, DEFAULT_CHUNK_BYTES};

/// The greedy encoder the store used before skip acceleration — a hash
/// probe at every byte, 16 table seeds inside each match — kept as the
/// ratio reference.
fn greedy_compress(input: &[u8]) -> Vec<u8> {
    const MIN_MATCH: usize = 4;
    const MAX_MATCH: usize = MIN_MATCH + 255;
    const MAX_OFFSET: usize = u16::MAX as usize;
    const HASH_BITS: u32 = 15;
    let hash4 = |data: &[u8]| {
        let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    };
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut head = vec![0u32; 1 << HASH_BITS];
    let (mut flags_at, mut nflags) = (0usize, 0u8);
    let mut push_token = |out: &mut Vec<u8>, is_match: bool| {
        if nflags == 0 {
            flags_at = out.len();
            out.push(0);
        }
        out[flags_at] |= u8::from(is_match) << nflags;
        nflags = (nflags + 1) % 8;
    };
    let mut i = 0usize;
    while i < input.len() {
        let mut best = None;
        if i + MIN_MATCH <= input.len() {
            let h = hash4(&input[i..]);
            let cand = head[h] as usize;
            head[h] = (i + 1) as u32;
            if cand > 0 && i - (cand - 1) <= MAX_OFFSET {
                let cand = cand - 1;
                let limit = (input.len() - i).min(MAX_MATCH);
                let l = (0..limit).take_while(|&l| input[cand + l] == input[i + l]).count();
                if l >= MIN_MATCH {
                    best = Some((i - cand, l));
                }
            }
        }
        match best {
            Some((off, len)) => {
                push_token(&mut out, true);
                out.extend_from_slice(&(off as u16).to_le_bytes());
                out.push((len - MIN_MATCH) as u8);
                let seed_end = (i + len).min(input.len().saturating_sub(MIN_MATCH));
                for j in i + 1..seed_end.min(i + 16) {
                    head[hash4(&input[j..])] = (j + 1) as u32;
                }
                i += len;
            }
            None => {
                push_token(&mut out, false);
                out.push(input[i]);
                i += 1;
            }
        }
    }
    out
}

/// The raw chunks a store writer seals for a small HPCG run sampled on
/// every core (the `hpcg_dense` sampling at a tenth of its size).
fn hpcg_chunks() -> Vec<Vec<u8>> {
    let mut cfg = MachineConfig::haswell(4);
    cfg.pebs_cores = PebsCoreSelect::All;
    cfg.pebs_events[0].period = 31;
    cfg.pebs_events[1].period = 17;
    cfg.counter_sample_period = 1_000;
    cfg.mux_slice_cycles = 20_000;
    let hpcg = HpcgConfig { nx: 8, max_iters: 2, mg_levels: 3, group_allocations: true, use_mg: true };
    let trace = Machine::new(cfg).run(&mut HpcgWorkload::new(hpcg)).trace;
    let mut builder = ChunkBuilderV4::new();
    let mut chunks = Vec::new();
    for e in &trace.events {
        builder.push(e).unwrap();
        if builder.encoded_len() >= DEFAULT_CHUNK_BYTES {
            chunks.push(builder.serialize());
        }
    }
    if builder.events() > 0 {
        chunks.push(builder.serialize());
    }
    chunks
}

#[test]
fn skipping_encoder_stays_within_a_quarter_percent_of_greedy_on_hpcg() {
    let chunks = hpcg_chunks();
    assert!(chunks.len() >= 8, "want several chunks, got {}", chunks.len());
    let (mut skipping, mut greedy) = (0usize, 0usize);
    for c in &chunks {
        let packed = lz::compress(c, usize::MAX).expect("no limit");
        assert_eq!(lz::decompress(&packed, c.len()).unwrap(), *c);
        skipping += packed.len();
        let reference = greedy_compress(c);
        assert_eq!(lz::decompress(&reference, c.len()).unwrap(), *c, "the reference decodes");
        greedy += reference.len();
    }
    let raw: usize = chunks.iter().map(Vec::len).sum();
    assert!(greedy < raw / 2, "HPCG chunks compress: {greedy} of {raw} bytes");
    assert!(
        skipping as f64 <= 1.0025 * greedy as f64,
        "skipping encoder wrote {skipping} bytes, greedy {greedy} ({:+.3} %)",
        (skipping as f64 / greedy as f64 - 1.0) * 100.0
    );
}

//! A per-core stream prefetcher modelled after the L2 "streamer" of
//! Intel cores: it observes the sequence of demanded line addresses,
//! detects constant-stride streams (ascending or descending), and once
//! a stream is trained, emits prefetch requests [`DEGREE`] lines ahead.
//!
//! Its parameters are constants, the same on every modelled machine; a
//! hierarchy only chooses whether it runs
//! ([`HierarchyConfig::prefetch`](crate::HierarchyConfig::prefetch)).

use crate::{Addr, LINE_SIZE};

/// Consecutive same-stride line accesses required to train a stream.
pub const TRAIN_THRESHOLD: u32 = 2;
/// How many lines ahead a trained stream prefetches.
pub const DEGREE: i64 = 4;
/// How many concurrent streams the prefetcher tracks.
pub const STREAMS: usize = 16;

#[derive(Debug, Clone, Copy)]
struct Stream {
    /// Last line address observed for this stream.
    last_line: Addr,
    /// Detected stride in lines (signed; usually ±1).
    stride: i64,
    /// Confirmations of the current stride.
    confidence: u32,
    /// Last-use clock for LRU replacement of streams.
    last_use: u64,
    valid: bool,
}

/// Stride-stream prefetcher.
#[derive(Debug)]
pub struct StreamPrefetcher {
    enabled: bool,
    streams: [Stream; STREAMS],
    clock: u64,
}

impl StreamPrefetcher {
    /// A prefetcher with no trained stream; a disabled one never
    /// prefetches.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            streams: [Stream { last_line: 0, stride: 0, confidence: 0, last_use: 0, valid: false }; STREAMS],
            clock: 0,
        }
    }

    /// Observe a demanded line and append the line addresses to
    /// prefetch (possibly none) to `out`, which the caller reuses.
    /// `line_addr` must be line-aligned.
    pub fn observe_into(&mut self, line_addr: Addr, out: &mut Vec<Addr>) {
        if !self.enabled {
            return;
        }
        self.clock += 1;
        let clock = self.clock;
        let ls = LINE_SIZE as i64;
        // Find the stream this access continues: one whose last line is
        // within a small window of the new address.
        let window = 8 * ls;
        let mut best: Option<usize> = None;
        for (i, s) in self.streams.iter().enumerate() {
            if s.valid && (line_addr as i64 - s.last_line as i64).abs() <= window {
                best = Some(i);
                break;
            }
        }

        match best {
            Some(i) => {
                let s = &mut self.streams[i];
                let delta = line_addr as i64 - s.last_line as i64;
                if delta == 0 {
                    s.last_use = clock;
                    return;
                }
                let stride_lines = delta / ls;
                if delta % ls == 0 && stride_lines == s.stride {
                    s.confidence = s.confidence.saturating_add(1);
                } else if delta % ls == 0 {
                    s.stride = stride_lines;
                    s.confidence = 1;
                } else {
                    s.confidence = 0;
                }
                s.last_line = line_addr;
                s.last_use = clock;
                if s.confidence >= TRAIN_THRESHOLD && s.stride != 0 {
                    for k in 1..=DEGREE {
                        let a = line_addr as i64 + s.stride * ls * k;
                        if a >= 0 {
                            out.push(a as Addr);
                        }
                    }
                }
            }
            None => {
                // Allocate a new stream, replacing the LRU one.
                let slot = self
                    .streams
                    .iter()
                    .position(|s| !s.valid)
                    .unwrap_or_else(|| {
                        self.streams
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, s)| s.last_use)
                            .map(|(i, _)| i)
                            .expect("at least one stream")
                    });
                self.streams[slot] = Stream {
                    last_line: line_addr,
                    stride: 0,
                    confidence: 0,
                    last_use: clock,
                    valid: true,
                };
            }
        }
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    fn observe(p: &mut StreamPrefetcher, line: Addr) -> Vec<Addr> {
        let mut out = Vec::new();
        p.observe_into(line, &mut out);
        out
    }

    #[test]
    fn ascending_stream_trains_and_prefetches() {
        let mut p = StreamPrefetcher::new(true);
        assert!(observe(&mut p, 0x000).is_empty()); // allocate
        assert!(observe(&mut p, 0x040).is_empty()); // stride=1, conf=1
        let out = observe(&mut p, 0x080); // conf=2 -> fire
        assert_eq!(out, vec![0x0C0, 0x100, 0x140, 0x180]);
    }

    #[test]
    fn descending_stream_prefetches_downwards() {
        let mut p = StreamPrefetcher::new(true);
        observe(&mut p, 0x400);
        observe(&mut p, 0x3C0);
        let out = observe(&mut p, 0x380);
        assert_eq!(out, vec![0x340, 0x300, 0x2C0, 0x280]);
    }

    #[test]
    fn random_accesses_never_train() {
        let mut p = StreamPrefetcher::new(true);
        // Far-apart addresses allocate separate streams, never train.
        for a in [0x0u64, 0x100000, 0x200000, 0x300000, 0x400000, 0x500000] {
            assert!(observe(&mut p, a).is_empty());
        }
    }

    #[test]
    fn disabled_prefetcher_is_silent() {
        let mut p = StreamPrefetcher::new(false);
        for i in 0..10u64 {
            assert!(observe(&mut p, i * 64).is_empty());
        }
    }

    #[test]
    fn prefetch_does_not_go_below_zero() {
        let mut p = StreamPrefetcher::new(true);
        observe(&mut p, 0x100);
        observe(&mut p, 0x0C0);
        let out = observe(&mut p, 0x080);
        // stride -1 from 0x80: the last two candidates would be
        // negative; filtered.
        assert_eq!(out, vec![0x040, 0x000]);
    }

    #[test]
    fn stride_change_retrains() {
        let mut p = StreamPrefetcher::new(true);
        observe(&mut p, 0x000);
        observe(&mut p, 0x040);
        observe(&mut p, 0x080); // trained at +1
        // Switch to stride +2 within the window.
        assert!(observe(&mut p, 0x100).is_empty(), "stride change drops confidence");
        let out = observe(&mut p, 0x180); // +2 confirmed twice
        assert_eq!(out, vec![0x200, 0x280, 0x300, 0x380]);
    }

    #[test]
    fn repeated_same_line_is_ignored() {
        let mut p = StreamPrefetcher::new(true);
        observe(&mut p, 0x000);
        for _ in 0..10 {
            assert!(observe(&mut p, 0x000).is_empty());
        }
    }

    #[test]
    fn sixteen_streams_train_at_once_and_a_seventeenth_evicts_the_lru() {
        let mut p = StreamPrefetcher::new(true);
        let base = |i: u64| i * 0x100000;
        for step in 0..3 {
            for i in 0..STREAMS as u64 {
                let out = observe(&mut p, base(i) + step * 0x40);
                assert_eq!(out.len(), if step == 2 { DEGREE as usize } else { 0 }, "stream {i}");
            }
        }
        // Stream 0 is the least recently used: a new stream takes its
        // slot, so stream 0 starts over while stream 1 keeps firing.
        assert!(observe(&mut p, base(STREAMS as u64)).is_empty());
        assert_eq!(observe(&mut p, base(1) + 0xC0).len(), DEGREE as usize);
        assert!(observe(&mut p, base(0) + 0xC0).is_empty(), "stream 0 was evicted");
    }
}

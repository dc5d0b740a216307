//! Service metrics with a Prometheus-style text exposition.
//!
//! Everything on the hot path is an atomic or a short-held mutex over
//! a small map; rendering happens only when `/metrics` is scraped.
//! Block-cache and fold-memo counters live with their owners (the
//! store readers and the router's memo) and are passed in at render
//! time, so this module never reaches into the repository.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mempersp_store::{CacheStats, ShardedCache};

/// Latency histogram bucket upper bounds, in seconds. Cumulative
/// (Prometheus `le` semantics); an implicit `+Inf` bucket follows.
pub const LATENCY_BOUNDS_S: [f64; 8] =
    [0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0];

#[derive(Debug, Default, Clone)]
struct Histogram {
    /// Non-cumulative counts per bound, plus the overflow bucket.
    counts: [u64; LATENCY_BOUNDS_S.len() + 1],
    sum_s: f64,
    total: u64,
}

impl Histogram {
    fn observe(&mut self, latency: Duration) {
        let s = latency.as_secs_f64();
        let slot = LATENCY_BOUNDS_S
            .iter()
            .position(|&b| s <= b)
            .unwrap_or(LATENCY_BOUNDS_S.len());
        self.counts[slot] += 1;
        self.sum_s += s;
        self.total += 1;
    }
}

/// Shared service counters. One instance per server, behind an `Arc`.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests currently being served (admitted, not yet responded).
    inflight: AtomicU64,
    /// Connections turned away at the door with `429`.
    rejected: AtomicU64,
    /// Response bytes written, heads included.
    bytes_served: AtomicU64,
    /// `(endpoint, status) -> count`.
    requests: Mutex<HashMap<(&'static str, u16), u64>>,
    /// Per-endpoint latency histograms.
    latency: Mutex<HashMap<&'static str, Histogram>>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Admission: try to occupy one of `max_inflight` slots. On `true`
    /// the caller MUST balance with [`Metrics::exit`].
    pub fn try_enter(&self, max_inflight: u64) -> bool {
        self.inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                if cur < max_inflight {
                    Some(cur + 1)
                } else {
                    None
                }
            })
            .is_ok()
    }

    pub fn exit(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }

    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Acquire)
    }

    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one completed request.
    pub fn record(&self, endpoint: &'static str, status: u16, latency: Duration, bytes: u64) {
        self.bytes_served.fetch_add(bytes, Ordering::Relaxed);
        *self.requests.lock().expect("metrics poisoned").entry((endpoint, status)).or_insert(0) +=
            1;
        self.latency
            .lock()
            .expect("metrics poisoned")
            .entry(endpoint)
            .or_default()
            .observe(latency);
    }

    /// Total count for one `(endpoint, status)` cell (tests, smoke).
    pub fn request_count(&self, endpoint: &str, status: u16) -> u64 {
        self.requests
            .lock()
            .expect("metrics poisoned")
            .iter()
            .filter(|((e, s), _)| *e == endpoint && *s == status)
            .map(|(_, n)| *n)
            .sum()
    }

    /// Render the text exposition. `started` is the server's launch
    /// instant; cache and memo counters come from their owners.
    pub fn render(&self, started: Instant, cache: CacheStats, memo: &ShardedCache<Arc<String>>) -> String {
        fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        }
        fn counter(out: &mut String, name: &str, help: &str, value: u64) {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }

        let mut out = String::with_capacity(2048);
        gauge(
            &mut out,
            "mempersp_uptime_seconds",
            "Seconds since the service started.",
            started.elapsed().as_secs_f64(),
        );
        gauge(
            &mut out,
            "mempersp_inflight_requests",
            "Requests admitted and not yet answered.",
            self.inflight.load(Ordering::Acquire) as f64,
        );
        counter(
            &mut out,
            "mempersp_rejected_total",
            "Connections rejected with 429 at admission.",
            self.rejected.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "mempersp_bytes_served_total",
            "Response bytes written (heads and bodies).",
            self.bytes_served.load(Ordering::Relaxed),
        );
        counter(&mut out, "mempersp_block_cache_hits_total", "Block-cache hits across all open stores.", cache.hits);
        counter(&mut out, "mempersp_block_cache_misses_total", "Block-cache misses across all open stores.", cache.misses);
        counter(&mut out, "mempersp_block_cache_evictions_total", "Block-cache evictions across all open stores.", cache.evictions);
        counter(&mut out, "mempersp_block_cache_insertions_total", "Block-cache insertions across all open stores.", cache.insertions);
        let memo_stats = memo.stats();
        counter(&mut out, "mempersp_fold_memo_hits_total", "Fold requests answered from the memo cache.", memo_stats.hits);
        counter(&mut out, "mempersp_fold_memo_misses_total", "Fold requests computed from the trace.", memo_stats.misses);
        gauge(
            &mut out,
            "mempersp_fold_memo_entries",
            "Fold results currently memoized.",
            memo.len() as f64,
        );

        // Info-style gauge: which stream-vbyte decode kernel this
        // process selected at startup (avx2 / scalar).
        out.push_str(
            "# HELP mempersp_decode_simd Active stream-vbyte decode kernel (constant 1, level in the label).\n",
        );
        out.push_str("# TYPE mempersp_decode_simd gauge\n");
        out.push_str(&format!(
            "mempersp_decode_simd{{level=\"{}\"}} 1\n",
            mempersp_store::simd_level_name()
        ));

        out.push_str("# HELP mempersp_requests_total Requests served, by endpoint and status.\n");
        out.push_str("# TYPE mempersp_requests_total counter\n");
        let mut cells: Vec<((&'static str, u16), u64)> = self
            .requests
            .lock()
            .expect("metrics poisoned")
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        cells.sort();
        for ((endpoint, status), n) in cells {
            out.push_str(&format!(
                "mempersp_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {n}\n"
            ));
        }

        out.push_str(
            "# HELP mempersp_request_latency_seconds Request latency, by endpoint.\n",
        );
        out.push_str("# TYPE mempersp_request_latency_seconds histogram\n");
        let mut hists: Vec<(&'static str, Histogram)> = self
            .latency
            .lock()
            .expect("metrics poisoned")
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        hists.sort_by_key(|(e, _)| *e);
        for (endpoint, h) in hists {
            let mut cumulative = 0u64;
            for (i, bound) in LATENCY_BOUNDS_S.iter().enumerate() {
                cumulative += h.counts[i];
                out.push_str(&format!(
                    "mempersp_request_latency_seconds_bucket{{endpoint=\"{endpoint}\",le=\"{bound}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!(
                "mempersp_request_latency_seconds_bucket{{endpoint=\"{endpoint}\",le=\"+Inf\"}} {}\n",
                h.total
            ));
            out.push_str(&format!(
                "mempersp_request_latency_seconds_sum{{endpoint=\"{endpoint}\"}} {}\n",
                h.sum_s
            ));
            out.push_str(&format!(
                "mempersp_request_latency_seconds_count{{endpoint=\"{endpoint}\"}} {}\n",
                h.total
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_honors_the_cap() {
        let m = Metrics::new();
        assert!(m.try_enter(2));
        assert!(m.try_enter(2));
        assert!(!m.try_enter(2));
        m.exit();
        assert!(m.try_enter(2));
        assert_eq!(m.inflight(), 2);
    }

    #[test]
    fn render_contains_every_family() {
        let m = Metrics::new();
        m.record("/v1/query", 200, Duration::from_millis(3), 512);
        m.record("/v1/query", 400, Duration::from_micros(80), 64);
        m.record_rejected();
        let memo = ShardedCache::new(1, 4);
        assert!(memo.get(9).is_none());
        memo.insert(9, Arc::new(String::new()));
        for _ in 0..4 {
            memo.get(9);
        }
        let text = m.render(
            Instant::now(),
            CacheStats { hits: 7, misses: 2, evictions: 1, insertions: 2 },
            &memo,
        );
        for needle in [
            "mempersp_uptime_seconds",
            "mempersp_inflight_requests 0",
            "mempersp_rejected_total 1",
            "mempersp_bytes_served_total 576",
            "mempersp_block_cache_hits_total 7",
            "mempersp_block_cache_evictions_total 1",
            "mempersp_fold_memo_hits_total 4",
            "mempersp_fold_memo_entries 1",
            "mempersp_decode_simd{level=\"",
            "mempersp_requests_total{endpoint=\"/v1/query\",status=\"200\"} 1",
            "mempersp_requests_total{endpoint=\"/v1/query\",status=\"400\"} 1",
            "mempersp_request_latency_seconds_bucket{endpoint=\"/v1/query\",le=\"+Inf\"} 2",
            "mempersp_request_latency_seconds_count{endpoint=\"/v1/query\"} 2",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = Histogram::default();
        h.observe(Duration::from_micros(100)); // <= 0.0005
        h.observe(Duration::from_millis(2)); // <= 0.005
        h.observe(Duration::from_secs(5)); // +Inf
        assert_eq!(h.total, 3);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[2], 1);
        assert_eq!(h.counts[LATENCY_BOUNDS_S.len()], 1);
    }

    #[test]
    fn request_count_sums_cells() {
        let m = Metrics::new();
        m.record("/healthz", 200, Duration::ZERO, 1);
        m.record("/healthz", 200, Duration::ZERO, 1);
        assert_eq!(m.request_count("/healthz", 200), 2);
        assert_eq!(m.request_count("/healthz", 404), 0);
    }
}

//! End-to-end trace-production pipeline at the one-million-event
//! scale: events flowing straight from the generator into the store
//! writer (the `run --out trace.mps` path) against the two
//! materialize-first baselines it replaces.
//!
//! Scenarios, **in this order** — the peak-RSS high-water mark
//! (`VmHWM`) is monotone over the process lifetime, so the
//! bounded-memory scenarios must run before anything materializes the
//! event list, making the streaming-RSS figure a conservative upper
//! bound:
//!
//! * `streaming` — generator → `StoreWriter` with a compressor pool,
//!   chunks compressed while later events are still being produced
//!   (the overlap the pipeline exists for);
//! * `streaming_serial` — the same fused pass with the inline
//!   (1-thread) compressor: the overlap ablation;
//! * `materialize_convert` — materialize the full event list in
//!   memory, then write the store (the old `Machine::run` +
//!   `convert` split, minus the text hop);
//! * `materialize_prv_convert` — materialize, save as text `.prv`,
//!   re-parse, write the store: the complete pre-streaming tool-chain.
//!
//! Every scenario times the *whole* job — event production through
//! sealed store — and all four produce byte-identical `.mps` files
//! (also asserted across writer thread counts 1/2/4). The streaming
//! pass must beat both baselines on wall-clock, and its peak RSS
//! snapshot must undercut the post-materialize one.
//!
//! Writes `BENCH_pipeline.json` with a `host` block; the overlap
//! speedup is `null` (with a `*_skipped_reason`) when the host has
//! fewer CPUs than the compressor pool.

use mempersp_bench::gentrace::{generate, GenConfig};
use mempersp_bench::{cross_thread_speedup, host_cpus, host_info, peak_rss_bytes};
use mempersp_extrae::trace_format::{load_trace, save_trace};
use mempersp_store::{write_store_with, StoreWriter, WriterOptions, DEFAULT_CHUNK_BYTES};
use std::hint::black_box;
use std::time::Instant;

struct Measure {
    name: &'static str,
    events: u64,
    seconds: f64,
    /// Process-lifetime RSS high-water mark right after the scenario.
    peak_rss_bytes: Option<u64>,
}

impl Measure {
    fn per_sec(&self) -> f64 {
        self.events as f64 / self.seconds
    }
}

/// Run a scenario `n` times and keep the fastest trial.
fn best_of(n: usize, mut f: impl FnMut() -> Measure) -> Measure {
    let mut best = f();
    for _ in 1..n {
        let m = f();
        if m.seconds < best.seconds {
            best = m;
        }
    }
    best
}

/// The fused pass: generate and append in one loop, nothing resident.
fn stream_once(cfg: &GenConfig, path: &std::path::Path, threads: usize) -> u64 {
    let header = cfg.header();
    let opts = WriterOptions { threads, ..Default::default() };
    let mut w = StoreWriter::new(path, opts).expect("create");
    for e in cfg.events() {
        w.append(&e).expect("append");
    }
    w.finish(&header).expect("finish").events
}

fn main() {
    let events: u64 = std::env::var("MEMPERSP_BENCH_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let cfg = GenConfig { events, ..GenConfig::default() };
    let pool = host_cpus().min(4).max(1);
    let dir = std::env::temp_dir().join(format!("mempersp_bench_pipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    const TRIALS: usize = 3;
    let streaming = best_of(TRIALS, || {
        let path = dir.join("streaming.mps");
        let t = Instant::now();
        let n = stream_once(&cfg, &path, pool);
        Measure {
            name: "streaming",
            events: n,
            seconds: t.elapsed().as_secs_f64(),
            peak_rss_bytes: peak_rss_bytes(),
        }
    });
    let streaming_serial = best_of(TRIALS, || {
        let path = dir.join("streaming_serial.mps");
        let t = Instant::now();
        let n = stream_once(&cfg, &path, 1);
        Measure {
            name: "streaming_serial",
            events: n,
            seconds: t.elapsed().as_secs_f64(),
            peak_rss_bytes: peak_rss_bytes(),
        }
    });
    // Everything up to here ran with O(chunk) resident events; the
    // identity checks below read whole files into memory, so snapshot
    // the streaming pipeline's high-water mark first.
    let rss_streaming = peak_rss_bytes();

    // Byte-identity across writer thread counts, before anything
    // materializes: the pipelined commit is order-deterministic.
    let streaming_bytes = std::fs::read(dir.join("streaming.mps")).expect("read streaming");
    for threads in [1usize, 2, 4] {
        let path = dir.join(format!("identity_{threads}.mps"));
        stream_once(&cfg, &path, threads);
        let bytes = std::fs::read(&path).expect("read");
        assert_eq!(
            bytes, streaming_bytes,
            "streaming output differs between {pool} and {threads} writer threads"
        );
        std::fs::remove_file(&path).ok();
    }

    let materialize = best_of(TRIALS, || {
        let path = dir.join("materialize.mps");
        let t = Instant::now();
        let trace = generate(&cfg);
        let s = write_store_with(&path, &trace, DEFAULT_CHUNK_BYTES, pool).expect("write");
        black_box(&trace);
        Measure {
            name: "materialize_convert",
            events: s.events,
            seconds: t.elapsed().as_secs_f64(),
            peak_rss_bytes: peak_rss_bytes(),
        }
    });
    let prv_pipeline = best_of(TRIALS, || {
        let prv = dir.join("pipeline.prv");
        let path = dir.join("prv_convert.mps");
        let t = Instant::now();
        let trace = generate(&cfg);
        save_trace(&prv, &trace).expect("save prv");
        drop(trace);
        let parsed = load_trace(&prv).expect("parse prv");
        let s = write_store_with(&path, &parsed, DEFAULT_CHUNK_BYTES, pool).expect("write");
        black_box(&parsed);
        Measure {
            name: "materialize_prv_convert",
            events: s.events,
            seconds: t.elapsed().as_secs_f64(),
            peak_rss_bytes: peak_rss_bytes(),
        }
    });
    let rss_materialize = peak_rss_bytes();

    // The streamed store and both materialized ones hold the same
    // bytes: the pipeline changed when work happens, never the output.
    let materialize_bytes = std::fs::read(dir.join("materialize.mps")).expect("read");
    assert_eq!(streaming_bytes, materialize_bytes, "streaming must equal materialize+convert");
    let prv_bytes = std::fs::read(dir.join("prv_convert.mps")).expect("read");
    assert_eq!(streaming_bytes, prv_bytes, "streaming must equal the prv round-trip store");

    assert!(
        streaming.seconds < materialize.seconds,
        "streaming ({:.4}s) must beat materialize+convert ({:.4}s) on wall-clock",
        streaming.seconds,
        materialize.seconds
    );
    assert!(
        streaming.seconds < prv_pipeline.seconds,
        "streaming ({:.4}s) must beat the .prv pipeline ({:.4}s) on wall-clock",
        streaming.seconds,
        prv_pipeline.seconds
    );
    if let (Some(s), Some(m)) = (rss_streaming, rss_materialize) {
        assert!(
            s < m,
            "streaming peak RSS ({s} B) must stay under the materialized pipeline's ({m} B)"
        );
    }

    let measures = [&streaming, &streaming_serial, &materialize, &prv_pipeline];
    let mut scenarios = Vec::new();
    for m in measures {
        println!(
            "{:<24} {:>9} events {:>9.5}s {:>10.2} K events/s  peak RSS {}",
            m.name,
            m.events,
            m.seconds,
            m.per_sec() / 1e3,
            m.peak_rss_bytes.map_or("n/a".into(), |b| format!("{:.1} MB", b as f64 / 1e6)),
        );
        scenarios.push(serde_json::json!({
            "name": m.name,
            "events": m.events,
            "seconds": m.seconds,
            "events_per_sec": m.per_sec(),
            "peak_rss_bytes": m.peak_rss_bytes,
        }));
    }
    let vs_materialize = materialize.seconds / streaming.seconds;
    let vs_prv = prv_pipeline.seconds / streaming.seconds;
    let (overlap, overlap_skip) =
        cross_thread_speedup(pool, 1.0 / streaming.seconds, 1.0 / streaming_serial.seconds);
    println!("streaming vs materialize+convert:  {vs_materialize:.2}x");
    println!("streaming vs .prv pipeline:        {vs_prv:.2}x");
    match overlap.as_f64() {
        Some(r) => println!("compression overlap ({pool} threads): {r:.2}x"),
        None => println!("compression overlap: null (host too small)"),
    }
    if let (Some(s), Some(m)) = (rss_streaming, rss_materialize) {
        println!(
            "peak RSS: streaming {:.1} MB, after materialize {:.1} MB",
            s as f64 / 1e6,
            m as f64 / 1e6
        );
    }

    let out = serde_json::json!({
        "bench": "pipeline_throughput",
        "host": host_info(),
        "trace_events": streaming.events,
        "writer_threads": pool,
        "scenarios": scenarios,
        "peak_rss_streaming_bytes": rss_streaming,
        "peak_rss_materialize_bytes": rss_materialize,
        "streaming_vs_materialize_speedup": vs_materialize,
        "streaming_vs_prv_pipeline_speedup": vs_prv,
        "overlap_speedup": overlap,
        "overlap_skipped_reason": overlap_skip,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(path, serde_json::to_string_pretty(&out).expect("serialize"))
        .expect("write BENCH_pipeline.json");
    println!("wrote {path}");
    std::fs::remove_dir_all(&dir).ok();
}

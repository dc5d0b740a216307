//! Generate a large synthetic `.mps` trace for store benchmarking.
//!
//! ```sh
//! cargo run --release -p mempersp-bench --bin gentrace -- \
//!     --events 1000000 --cores 4 --seed 42 -o /tmp/gen.mps
//! # sharded:
//! cargo run --release -p mempersp-bench --bin gentrace -- \
//!     --events 50000000 --shard-events 16000000 -o /tmp/gen.mps.d
//! ```
//!
//! Events stream from the generator straight into the store writer, so
//! memory use stays flat no matter how many events are requested.

use mempersp_bench::gentrace::GenConfig;
use mempersp_store::{ShardedWriter, StoreWriter, DEFAULT_CHUNK_BYTES, SHARD_DIR_SUFFIX};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: gentrace [--events N] [--cores N] [--seed N] [--shard-events N] \
         -o OUT[.mps|.mps.d]"
    );
    // 1, like `mempersp`: 2 means a damaged store.
    std::process::exit(1);
}

fn main() {
    let mut cfg = GenConfig::default();
    let mut out: Option<PathBuf> = None;
    let mut shard_events: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--events" => cfg.events = val("--events").parse().unwrap_or_else(|_| usage()),
            "--cores" => cfg.cores = val("--cores").parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--shard-events" => {
                shard_events = Some(val("--shard-events").parse().unwrap_or_else(|_| usage()))
            }
            "-o" | "--out" => out = Some(PathBuf::from(val("-o"))),
            "-h" | "--help" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    let out = out.unwrap_or_else(|| usage());
    if shard_events == Some(0) {
        eprintln!("--shard-events expects an event count of at least 1, got 0");
        std::process::exit(1);
    }

    let start = std::time::Instant::now();
    let header = cfg.header();
    let sharded = shard_events.is_some()
        || out.to_string_lossy().ends_with(SHARD_DIR_SUFFIX);
    let result = if sharded {
        let per_shard =
            shard_events.unwrap_or(mempersp_store::shard::DEFAULT_EVENTS_PER_SHARD);
        let mut w =
            ShardedWriter::new(&out, DEFAULT_CHUNK_BYTES, per_shard).expect("create sharded store");
        for e in cfg.events() {
            w.append(&e).expect("append");
        }
        w.finish(&header).expect("finish")
    } else {
        let mut w = StoreWriter::new(&out, DEFAULT_CHUNK_BYTES).expect("create store");
        for e in cfg.events() {
            w.append(&e).expect("append");
        }
        w.finish(&header).expect("finish")
    };
    let secs = start.elapsed().as_secs_f64();
    eprintln!(
        "wrote {} events / {} chunks ({:.1} MB raw -> {:.1} MB stored) to {} \
         in {:.2}s ({:.1} M events/s)",
        result.events,
        result.chunks,
        result.raw_bytes as f64 / 1e6,
        result.stored_bytes as f64 / 1e6,
        out.display(),
        secs,
        result.events as f64 / secs / 1e6,
    );
    if let Some(rss) = mempersp_bench::peak_rss_bytes() {
        eprintln!("peak RSS {:.1} MB", rss as f64 / 1e6);
    }
}

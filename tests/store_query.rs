//! End-to-end checks of the binary trace store against an HPCG run:
//! a `Query`-filtered read of the `.mps` container must equal the
//! same filter applied linearly to the parsed `.prv` text trace,
//! while decoding strictly fewer chunks than a full scan — and a
//! cached re-query must not touch the codec at all.

use mempersp::core::{Machine, MachineConfig};
use mempersp::extrae::query::{EventClass, Query};
use mempersp::extrae::trace_format::{load_trace, save_trace, write_trace};
use mempersp::extrae::Trace;
use mempersp::hpcg::{HpcgConfig, HpcgWorkload};
use mempersp::store::{open_trace_source, write_store_chunked, MpsSource, StoreReader};

fn tmpdir() -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mempersp_store_it_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// One shared HPCG run; the trace is written once as `.prv` and once
/// as a small-chunked `.mps` so the selective queries below have many
/// chunks to prune.
fn fixture() -> &'static (Trace, std::path::PathBuf, std::path::PathBuf) {
    use std::sync::OnceLock;
    static CELL: OnceLock<(Trace, std::path::PathBuf, std::path::PathBuf)> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut mcfg = MachineConfig::small();
        mcfg.cores = 2;
        mcfg.counter_sample_period = 20_000;
        let mut w = HpcgWorkload::new(HpcgConfig {
            nx: 8,
            max_iters: 3,
            mg_levels: 3,
            group_allocations: true,
            use_mg: true,
        });
        let report = Machine::new(mcfg).run(&mut w);
        let dir = tmpdir();
        let prv = dir.join("hpcg.prv");
        let mps = dir.join("hpcg.mps");
        save_trace(&prv, &report.trace).unwrap();
        write_store_chunked(&mps, &report.trace, 8 * 1024).unwrap();
        (report.trace, prv, mps)
    })
}

/// The acceptance criterion: a filtered query answered from the store
/// equals the equivalent filter over the fully parsed `.prv`, and the
/// footer index makes the store decode strictly fewer chunks than a
/// full scan would.
#[test]
fn filtered_store_query_equals_prv_filter_with_fewer_decodes() {
    let (_, prv, mps) = fixture();
    let parsed = load_trace(prv).unwrap();
    let reader = StoreReader::open(mps).unwrap();
    let total_chunks = reader.chunks().len() as u64;
    assert!(total_chunks >= 4, "need several chunks to prune, got {total_chunks}");

    let span = parsed.events.last().unwrap().cycles;
    let queries = [
        Query::all().with_kinds(&[EventClass::Alloc, EventClass::Free]),
        Query::all().in_time(0, span / 8),
        Query::all().in_time(span / 2, span).with_kinds(&[EventClass::Pebs]).on_cores(&[1]),
    ];
    for q in &queries {
        let (got, stats) = reader.query(q).unwrap();
        let want: Vec<_> = parsed.events.iter().filter(|e| q.matches(e)).cloned().collect();
        assert_eq!(got, want, "store answer differs from .prv filter for {q:?}");
        assert!(
            stats.chunks_decoded + stats.chunks_cached < total_chunks,
            "{q:?} decoded {} + cached {} of {total_chunks} chunks — index pruned nothing",
            stats.chunks_decoded,
            stats.chunks_cached
        );
        assert!(stats.chunks_skipped > 0, "{q:?}: {stats:?}");
    }

    // The decode counter only ever counts real codec work.
    assert!(reader.chunks_decoded_total() < total_chunks * queries.len() as u64);
}

/// Re-running a query must serve every chunk from the block cache.
#[test]
fn repeated_query_is_served_from_the_cache() {
    let (_, _, mps) = fixture();
    let reader = StoreReader::open(mps).unwrap();
    let q = Query::all().with_kinds(&[EventClass::RegionEnter, EventClass::RegionExit]);
    let (first, cold) = reader.query(&q).unwrap();
    let (second, warm) = reader.query(&q).unwrap();
    assert_eq!(first, second);
    assert!(cold.chunks_decoded > 0);
    assert_eq!(warm.chunks_decoded, 0, "warm scan hit the codec: {warm:?}");
    assert_eq!(warm.chunks_cached, cold.chunks_decoded + cold.chunks_cached);
    let cs = reader.cache_stats();
    assert!(cs.hits >= warm.chunks_cached, "{cs:?}");
}

/// The full pipeline guarantee: `prv -> mps -> prv` is byte-identical
/// on a real HPCG trace, through the `TraceSource` plumbing the CLI
/// uses.
#[test]
fn hpcg_prv_mps_prv_is_byte_identical() {
    let (trace, prv, mps) = fixture();
    let mut src = open_trace_source(mps).unwrap();
    assert_eq!(src.format_name(), "mps");
    let back = src.materialize().unwrap();
    assert_eq!(write_trace(&back), write_trace(trace));
    assert_eq!(write_trace(&back), std::fs::read_to_string(prv).unwrap());
}

/// Parallel store scans return exactly the sequential answer on a
/// real trace, for any thread count.
#[test]
fn parallel_store_scan_is_deterministic() {
    let (_, _, mps) = fixture();
    let reader = MpsSource::open(mps).unwrap();
    let q = Query::all().with_kinds(&[EventClass::Pebs]);
    let (seq, _) = reader.query(&q).unwrap();
    assert!(!seq.is_empty());
    for threads in [2, 3, 5, 16] {
        let (par, _) = reader.query_parallel(&q, threads).unwrap();
        assert_eq!(par, seq, "threads={threads}");
    }
}

/// `mempersp objects` reads the store's PEBS columns directly; the
/// answer must be the one the row-wise analysis gives on the
/// materialized trace, whole-run and windowed (where the window is
/// pushed down and prunes chunks).
#[test]
fn object_stats_from_columns_equal_the_materialized_analysis() {
    use mempersp::core::analysis::objects::{object_stats, object_stats_source};
    let (trace, prv, mps) = fixture();
    let span = trace.events.last().unwrap().cycles;
    for window in [None, Some((span / 3, span / 2))] {
        let want = object_stats(trace, window);
        assert!(want.iter().map(|s| s.total()).sum::<u64>() > 0, "{window:?} selects no samples");
        for path in [prv, mps] {
            let mut src = open_trace_source(path).unwrap();
            let (got, stats) = object_stats_source(src.as_mut(), window).unwrap();
            assert_eq!(got, want, "{} {window:?}", path.display());
            assert_eq!(stats.events_matched, want.iter().map(|s| s.total()).sum::<u64>());
            if window.is_some() && path == mps {
                assert!(stats.chunks_skipped > 0, "the window must prune chunks: {stats:?}");
            }
        }
    }
}

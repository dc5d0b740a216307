//! End-to-end checks of the binary trace store against an HPCG run:
//! a `Query`-filtered read of the `.mps` container must equal the
//! same filter applied linearly to the parsed `.prv` text trace,
//! while decoding strictly fewer chunks than a full scan — and a
//! cached re-query must not touch the codec at all. The same run, held
//! in memory and written as `.prv`, `.mps` and `.mps.d`, is also the
//! differential fixture of the analyses: each must return the same
//! answer from all four sources, with its filter pushed down.

use mempersp::core::{Machine, MachineConfig};
use mempersp::extrae::query::{EventClass, Query};
use mempersp::extrae::trace_format::{load_trace, save_trace, write_trace};
use mempersp::extrae::trace_source::{ScanStats, TraceSource};
use mempersp::extrae::Trace;
use mempersp::hpcg::{HpcgConfig, HpcgWorkload};
use mempersp::store::{open_trace_source, write_store_chunked, write_store_sharded, MpsSource};
use std::path::PathBuf;

fn tmpdir() -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mempersp_store_it_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// One shared HPCG run; the trace is written once as `.prv`, once as
/// a small-chunked `.mps` and once as a `.mps.d` of small shards, so
/// the selective queries below have many chunks to prune.
fn fixture() -> &'static (Trace, PathBuf, PathBuf, PathBuf) {
    use std::sync::OnceLock;
    static CELL: OnceLock<(Trace, PathBuf, PathBuf, PathBuf)> = OnceLock::new();
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
        let mpsd = dir.join("hpcg.mps.d");
        save_trace(&prv, &report.trace).unwrap();
        write_store_chunked(&mps, &report.trace, 8 * 1024).unwrap();
        write_store_sharded(&mpsd, &report.trace, 8 * 1024, 3000).unwrap();
        (report.trace, prv, mps, mpsd)
    })
}

/// The acceptance criterion: a filtered query answered from the store
/// equals the equivalent filter over the fully parsed `.prv`, and the
/// footer index makes the store decode strictly fewer chunks than a
/// full scan would.
#[test]
fn filtered_store_query_equals_prv_filter_with_fewer_decodes() {
    let (_, prv, mps, _) = fixture();
    let parsed = load_trace(prv).unwrap();
    let src = MpsSource::open(mps).unwrap();
    let reader = src.reader().unwrap();
    let total_chunks = reader.chunks().len() as u64;
    assert!(total_chunks >= 4, "need several chunks to prune, got {total_chunks}");

    let span = parsed.events.last().unwrap().cycles;
    let queries = [
        Query::all().with_kinds(&[EventClass::Alloc, EventClass::Free]),
        Query::all().in_time(0, span / 8),
        Query::all().in_time(span / 2, span).with_kinds(&[EventClass::Pebs]).on_cores(&[1]),
    ];
    for q in &queries {
        let (got, stats) = src.query(q).unwrap();
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
    let (_, _, mps, _) = fixture();
    let src = MpsSource::open(mps).unwrap();
    let q = Query::all().with_kinds(&[EventClass::RegionEnter, EventClass::RegionExit]);
    let (first, cold) = src.query(&q).unwrap();
    let (second, warm) = src.query(&q).unwrap();
    assert_eq!(first, second);
    assert!(cold.chunks_decoded > 0);
    assert_eq!(warm.chunks_decoded, 0, "warm scan hit the codec: {warm:?}");
    assert_eq!(warm.chunks_cached, cold.chunks_decoded + cold.chunks_cached);
    let cs = src.cache_stats();
    assert!(cs.hits >= warm.chunks_cached, "{cs:?}");
}

/// The full pipeline guarantee: `prv -> mps -> prv` is byte-identical
/// on a real HPCG trace, through the `TraceSource` plumbing the CLI
/// uses.
#[test]
fn hpcg_prv_mps_prv_is_byte_identical() {
    let (trace, prv, mps, _) = fixture();
    let mut src = open_trace_source(mps).unwrap();
    assert_eq!(src.format_name(), "mps");
    let back = src.materialize().unwrap();
    assert_eq!(write_trace(&back), write_trace(trace));
    assert_eq!(write_trace(&back), std::fs::read_to_string(prv).unwrap());
}

/// Run `analysis` on the run held in memory and on its `.prv`, `.mps`
/// and `.mps.d`: every container must give the in-memory answer.
/// Returns that answer with the scan costs on the two stores.
fn on_every_source<T: PartialEq + std::fmt::Debug>(
    analysis: impl Fn(&mut dyn TraceSource) -> std::io::Result<(T, ScanStats)>,
) -> (T, [ScanStats; 2]) {
    let (trace, prv, mps, mpsd) = fixture();
    let (want, in_memory) = analysis(&mut &*trace).unwrap();
    let [_, on_mps, on_mpsd] = [prv, mps, mpsd].map(|path| {
        let (got, stats) = analysis(open_trace_source(path).unwrap().as_mut()).unwrap();
        assert_eq!(got, want, "{}", path.display());
        assert_eq!(stats.events_matched, in_memory.events_matched, "{}", path.display());
        stats
    });
    (want, [on_mps, on_mpsd])
}

/// The scan skipped chunks on both stores: its filter reached the index.
fn assert_pruned(what: &str, stores: &[ScanStats; 2]) {
    for stats in stores {
        assert!(stats.chunks_skipped > 0, "{what} pruned nothing: {stats:?}");
    }
}

/// Both cores sample in every chunk of this run, so a one-kind scan
/// has no chunk to skip; its filter shows in the decoder instead —
/// fewer payload bytes than a full scan of the same store reads.
fn assert_decodes_less_than_a_full_scan(what: &str, stores: &[ScanStats; 2]) {
    let (_, _, mps, mpsd) = fixture();
    for (path, stats) in [mps, mpsd].into_iter().zip(stores) {
        let full = open_trace_source(path).unwrap().scan_batches(&Query::all(), &mut |_| {}).unwrap();
        assert!(
            stats.payload_bytes_decoded < full.payload_bytes_decoded / 2,
            "{what} decoded {} of {} payload bytes",
            stats.payload_bytes_decoded,
            full.payload_bytes_decoded
        );
    }
}

/// `mempersp objects` reads the store's PEBS columns directly; the
/// answer must be the in-memory one from every container, whole-run
/// and windowed (where the window is pushed down and prunes chunks).
#[test]
fn object_stats_from_columns_equal_the_materialized_analysis() {
    use mempersp::core::analysis::objects::object_stats;
    let (trace, ..) = fixture();
    let span = trace.events.last().unwrap().cycles;
    for window in [None, Some((span / 3, span / 2))] {
        let (stats, stores) = on_every_source(|src| object_stats(src, window));
        let sampled: u64 = stats.iter().map(|s| s.total()).sum();
        let in_window = |t: u64| window.is_none_or(|(lo, hi)| (lo..=hi).contains(&t));
        assert_eq!(sampled, trace.pebs_events().filter(|(e, ..)| in_window(e.cycles)).count() as u64);
        assert!(sampled > 0, "{window:?} selects no samples");
        assert_eq!(stores[0].events_matched, sampled);
        if window.is_some() {
            assert_pruned("the window", &stores);
        }
    }
}

/// The phase detection is one boundary scan of one core.
#[test]
fn iteration_phases_agree_across_sources_and_prune() {
    use mempersp::core::iteration_phases;
    for core in [0, 1] {
        let (phases, stores) = on_every_source(|src| {
            iteration_phases(src, "CG_iteration", "ComputeSYMGS_ref", "ComputeSPMV_ref", core)
        });
        assert_eq!(phases.len(), 5, "core {core}");
        assert_pruned("the one-core boundary scan", &stores);
    }
    let (none, _) =
        on_every_source(|src| iteration_phases(src, "NOPE", "ComputeSYMGS_ref", "ComputeSPMV_ref", 0));
    assert!(none.is_empty());
}

#[test]
fn flat_profile_agrees_across_sources() {
    use mempersp::core::flat_profile;
    let (trace, ..) = fixture();
    let ((rows, total), stores) = on_every_source(flat_profile);
    assert!(total > 0 && !rows.is_empty());
    assert_eq!(stores[0].events_matched, total, "only timer samples are matched");
    assert!(rows.iter().all(|r| trace.region_id(&r.region).is_some()));
    assert_decodes_less_than_a_full_scan("the timer-sample scan", &stores);
}

/// Loads, stores and one object's loads; the object is pushed down.
#[test]
fn latency_profile_agrees_across_sources() {
    use mempersp::core::latency_profile;
    let (trace, ..) = fixture();
    let matrix = trace.objects.all().iter().find(|o| o.name.starts_with("124_")).unwrap().id;
    let count = |object: Option<_>, stores: bool| {
        let (profile, _) = on_every_source(|src| latency_profile(src, object, stores));
        profile.map_or(0, |p| p.samples)
    };
    let of = |want_store: bool| trace.pebs_events().filter(|(_, s, _)| s.is_store == want_store).count();
    assert_eq!(count(None, false), of(false));
    assert_eq!(count(None, true), of(true));
    let on_matrix = trace.pebs_events().filter(|(_, s, o)| !s.is_store && *o == Some(matrix)).count();
    assert!(on_matrix > 0);
    assert_eq!(count(Some(matrix), false), on_matrix);
    assert_eq!(count(Some(matrix), true), 0, "the matrix is read-only");
}

/// The reuse histogram is one PEBS scan of one core.
#[test]
fn sampled_reuse_histogram_agrees_across_sources() {
    use mempersp::core::sampled_reuse_histogram;
    let (trace, ..) = fixture();
    for core in [0, 1] {
        let (h, stores) = on_every_source(|src| sampled_reuse_histogram(src, core));
        let samples = trace.pebs_events().filter(|(e, ..)| e.core == core).count() as u64;
        assert!(h.reuses > 0, "core {core}");
        assert_eq!(stores[0].events_matched, samples);
        assert_decodes_less_than_a_full_scan("the one-core PEBS scan", &stores);
    }
}

//! Deterministic IO fault injection against the production write
//! path, driving the tentpole durability invariant end to end:
//!
//! > For every injection point, `finish` either returns `Err` with no
//! > file at the final path, or `recover` salvages a store whose
//! > events are exactly a prefix of the ground truth.
//!
//! A [`FailingFile`] slides under a real [`StoreWriter`] via
//! `with_backend`, so these sweeps exercise the exact same code the
//! CLI runs — not a test double of it. Because the writer's byte
//! stream is deterministic (same chunking, same compression, chunks
//! written in seal order), a write torn at byte `k` leaves a temp file
//! equal to the first `k` bytes of the clean file, which is what makes
//! the exact-prefix oracle checkable at all.

use mempersp_extrae::stream_writer::tmp_path;
use mempersp_extrae::trace_source::TraceSource;
use mempersp_extrae::tracer::{Trace, Tracer, TracerConfig};
use mempersp_pebs::CounterSnapshot;
use mempersp_store::writer::write_store_chunked;
use mempersp_store::{
    recover_store, FailingFile, FaultConfig, FaultPlan, MpsSource, StoreReader, StoreWriter,
};
use proptest::prelude::*;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const CHUNK_TARGET: usize = 1024;

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mempersp_faultinj_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn trace(iters: u64) -> Trace {
    let mut t = Tracer::new(TracerConfig::default(), 2);
    let c = CounterSnapshot::from_values([9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2]);
    for i in 0..iters {
        let core = (i % 2) as usize;
        t.enter(core, "R", c, i * 100);
        t.user_event(core, 1, i, i * 100 + 10);
        t.exit(core, "R", c, i * 100 + 50);
    }
    t.finish("fault injection ground truth")
}

/// One attempt to write `tr` through a file with the given failure
/// schedule. Returns the `finish` outcome, the kept temp path when the
/// write failed (`abandon`, i.e. what a `kill -9` leaves), and the
/// observed fault plan.
fn attempt(dest: &Path, config: FaultConfig, tr: &Trace) -> (io::Result<()>, Option<PathBuf>, Arc<FaultPlan>) {
    let tmp = tmp_path(dest);
    let plan = FaultPlan::new(config);
    let file = std::fs::File::create(&tmp).unwrap();
    let backend = FailingFile::new(file, Arc::clone(&plan));
    let mut w = match StoreWriter::with_backend(Box::new(backend), tmp, dest.to_path_buf(), CHUNK_TARGET) {
        Ok(w) => w,
        Err(e) => return (Err(e), None, plan),
    };
    let mut failed = None;
    for ev in &tr.events {
        if let Err(e) = w.append(ev) {
            failed = Some(e);
            break;
        }
    }
    match failed {
        None => match w.finish(tr) {
            Ok(_) => (Ok(()), None, plan),
            Err(e) => (Err(e), w.abandon(), plan),
        },
        Some(e) => (Err(e), w.abandon(), plan),
    }
}

/// The clean run's bytes plus the call counts a fault-free write
/// needs — the coordinates the sweeps below inject at.
struct Baseline {
    bytes: Vec<u8>,
    writes: u64,
    syncs: u64,
}

fn baseline(tr: &Trace) -> Baseline {
    let dest = tmpdir().join(format!("baseline_{:?}.mps", std::thread::current().id()));
    let (res, kept, plan) = attempt(&dest, FaultConfig::default(), tr);
    res.expect("fault-free write must succeed");
    assert!(kept.is_none());
    assert!(!plan.tripped());
    let bytes = std::fs::read(&dest).expect("clean store exists at the final path");
    std::fs::remove_file(&dest).ok();
    Baseline { bytes, writes: plan.writes(), syncs: plan.syncs() }
}

/// Events of all chunks whose last byte is at or before `cut` — the
/// exact event count a salvage of `clean[..cut]` must produce.
fn expected_prefix_events(clean_path: &Path, cut: u64) -> u64 {
    let r = StoreReader::open(clean_path).unwrap();
    r.chunks()
        .iter()
        .filter(|m| m.offset + m.stored_len as u64 <= cut)
        .map(|m| m.events as u64)
        .sum()
}

/// The core invariant, checked after every injected failure:
/// - nothing sits at the final path (atomicity), and
/// - if the torn temp is salvageable, `recover` yields an *exact*
///   prefix of the ground-truth events.
fn assert_crash_invariant(
    dest: &Path,
    kept_tmp: Option<&Path>,
    tr: &Trace,
    ctx: &str,
) -> Option<u64> {
    assert!(!dest.exists(), "{ctx}: a failed finish left a file at the final path");
    let torn = kept_tmp?;
    let out = dest.with_extension("recovered.mps");
    std::fs::remove_file(&out).ok();
    let recovered = match recover_store(torn, &out) {
        // A stump too short to carry even one whole chunk may be
        // unsalvageable; that must be a clean error, not a panic.
        Err(e) => {
            assert!(!e.to_string().is_empty(), "{ctx}: undescriptive recover error");
            return None;
        }
        Ok(r) => r,
    };
    let back = MpsSource::open(&out).unwrap().materialize().unwrap();
    assert!(
        tr.events.starts_with(&back.events),
        "{ctx}: recovered {} events are not a prefix of the {} ground-truth events",
        back.events.len(),
        tr.events.len()
    );
    assert_eq!(recovered.events, back.events.len() as u64, "{ctx}: report miscounts");
    std::fs::remove_file(&out).ok();
    Some(recovered.events)
}

/// ENOSPC-style persistent failure at every write call a clean run
/// performs: `finish` must error, the final path must stay empty, and
/// the abandoned temp must salvage to an exact event prefix.
#[test]
fn every_write_call_failure_is_atomic_and_salvageable() {
    // Big enough that the writer's BufWriter flushes several times —
    // otherwise the whole store coalesces into two write calls and
    // the sweep has nothing to inject into.
    let tr = trace(3000);
    let base = baseline(&tr);
    assert!(base.writes >= 4, "want several write calls, saw {}", base.writes);
    for n in 0..base.writes {
        let dest = tmpdir().join(format!("failw_{n}.mps"));
        let cfg = FaultConfig {
            fail_write: Some((n, io::ErrorKind::StorageFull)),
            ..FaultConfig::default()
        };
        let (res, kept, plan) = attempt(&dest, cfg, &tr);
        let ctx = format!("fail_write at call {n}");
        let err = res.expect_err(&ctx);
        assert!(!err.to_string().is_empty(), "{ctx}: undescriptive error");
        assert!(plan.tripped(), "{ctx}: fault never fired");
        assert_crash_invariant(&dest, kept.as_deref(), &tr, &ctx);
        if let Some(t) = &kept {
            std::fs::remove_file(t).ok();
        }
    }
}

/// Same sweep over every fsync call.
#[test]
fn every_fsync_failure_is_atomic() {
    let tr = trace(400);
    let base = baseline(&tr);
    assert!(base.syncs >= 1, "the writer must fsync before renaming");
    for n in 0..base.syncs {
        let dest = tmpdir().join(format!("fails_{n}.mps"));
        let cfg =
            FaultConfig { fail_sync: Some((n, io::ErrorKind::Other)), ..FaultConfig::default() };
        let (res, kept, plan) = attempt(&dest, cfg, &tr);
        let ctx = format!("fail_sync at call {n}");
        res.expect_err(&ctx);
        assert!(plan.tripped(), "{ctx}: fault never fired");
        // An fsync failure strands a byte-complete temp file, so the
        // salvage must recover *every* chunk.
        let events = assert_crash_invariant(&dest, kept.as_deref(), &tr, &ctx);
        assert_eq!(events, Some(tr.events.len() as u64), "{ctx}: complete temp lost events");
        if let Some(t) = &kept {
            std::fs::remove_file(t).ok();
        }
    }
}

/// Kill-at-byte sweep: tear the write at a spread of offsets including
/// every chunk boundary ±1. The torn temp must be byte-identical to a
/// prefix of the clean file (write determinism), and its salvage must
/// recover exactly the chunks that fit below the cut.
#[test]
fn kill_at_byte_salvages_the_exact_chunk_prefix() {
    let tr = trace(400);
    let base = baseline(&tr);
    let clean_len = base.bytes.len() as u64;
    assert!(clean_len > 2000, "want a multi-chunk file, got {clean_len} bytes");

    // A clean twin on disk to read chunk boundaries from.
    let clean_path = tmpdir().join("kill_clean.mps");
    write_store_chunked(&clean_path, &tr, CHUNK_TARGET).unwrap();
    assert_eq!(std::fs::read(&clean_path).unwrap(), base.bytes, "writer is not deterministic");

    let mut cuts: Vec<u64> = (8..clean_len).step_by(97).collect();
    {
        let r = StoreReader::open(&clean_path).unwrap();
        for m in r.chunks() {
            let end = m.offset + m.stored_len as u64;
            cuts.extend([end - 1, end, end + 1]);
        }
    }
    cuts.retain(|&c| c < clean_len);
    cuts.sort_unstable();
    cuts.dedup();

    for &cut in &cuts {
        let dest = tmpdir().join(format!("kill_{cut}.mps"));
        let cfg = FaultConfig { kill_at_byte: Some(cut), ..FaultConfig::default() };
        let (res, kept, plan) = attempt(&dest, cfg, &tr);
        let ctx = format!("kill at byte {cut} of {clean_len}");
        res.expect_err(&ctx);
        assert!(plan.tripped(), "{ctx}: fault never fired");
        assert!(!dest.exists(), "{ctx}: file at final path");
        if let Some(torn) = &kept {
            // Determinism: the torn temp IS the clean file's prefix.
            assert_eq!(
                std::fs::read(torn).unwrap(),
                &base.bytes[..cut as usize],
                "{ctx}: torn temp diverges from the clean byte stream"
            );
            let got = assert_crash_invariant(&dest, Some(torn), &tr, &ctx);
            if cut >= 8 + mempersp_store::FRAME_LEN as u64 {
                let want = expected_prefix_events(&clean_path, cut);
                assert_eq!(
                    got.unwrap_or(0),
                    want,
                    "{ctx}: salvage must recover exactly the chunks below the cut"
                );
            }
            std::fs::remove_file(torn).ok();
        }
    }
    std::fs::remove_file(&clean_path).ok();
}

/// A short write is *not* a fault: `write_all` loops, the store comes
/// out byte-identical, and `finish` succeeds.
#[test]
fn short_writes_are_transparent() {
    let tr = trace(400);
    let base = baseline(&tr);
    for n in 0..base.writes.min(6) {
        let dest = tmpdir().join(format!("short_{n}.mps"));
        let cfg = FaultConfig { short_write: Some((n, 3)), ..FaultConfig::default() };
        let (res, kept, plan) = attempt(&dest, cfg, &tr);
        res.unwrap_or_else(|e| panic!("short write at call {n} must not fail finish: {e}"));
        assert!(kept.is_none());
        assert!(!plan.tripped());
        assert_eq!(std::fs::read(&dest).unwrap(), base.bytes, "short write changed the bytes");
        std::fs::remove_file(&dest).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized tentpole sweep: at any kill offset `finish` errors
    /// with nothing at the final path, and a salvageable temp recovers
    /// to an exact event prefix.
    #[test]
    fn any_kill_offset_is_atomic_and_prefix_salvageable(
        cut_seed in 0u64..u64::MAX,
        case in any::<u64>(),
    ) {
        let tr = trace(300);
        let base = baseline(&tr);
        let cut = cut_seed % (base.bytes.len() as u64 - 1);
        let dest = tmpdir().join(format!("prop_{case}.mps"));
        let cfg = FaultConfig { kill_at_byte: Some(cut), ..FaultConfig::default() };
        let (res, kept, _) = attempt(&dest, cfg, &tr);
        let ctx = format!("prop kill at {cut}");
        prop_assert!(res.is_err(), "{}: finish succeeded past a kill", ctx);
        prop_assert!(!dest.exists(), "{}: file at final path", ctx);
        if let Some(torn) = &kept {
            prop_assert_eq!(
                std::fs::read(torn).unwrap(),
                base.bytes[..cut as usize].to_vec(),
                "{}: torn temp diverges", ctx
            );
            assert_crash_invariant(&dest, Some(torn), &tr, &ctx);
            std::fs::remove_file(torn).ok();
        }
    }
}

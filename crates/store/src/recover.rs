//! `fsck` and `recover`: diagnose and repair damaged stores.
//!
//! [`fsck_store`] opens a store (single `.mps`, sharded `trace.mps.d/`
//! or a torn `.tmp` a killed run left behind) in salvage mode and
//! verifies **everything**: trailer, footer index checksum, header
//! blob checksum, every chunk's frame + payload CRC32C, and a full
//! decode of every payload. The result is a damage map — one line per
//! defect, naming the chunk — or a clean bill of health.
//!
//! [`recover_store`] copies every salvageable event into a fresh,
//! fully checksummed store. Damaged chunks are dropped whole (the
//! chunk is the unit of loss); surviving events keep their original
//! order, so recovering a torn file yields an exact prefix of the
//! events the crashed writer had committed. When the original header
//! never reached the disk, a minimal one is synthesized from the
//! events themselves (core count, region table) so every downstream
//! tool can still open the result.

use crate::reader::RecoveryMode;
use crate::source::{damage_line, MpsSource};
use crate::writer::{StoreWriter, WriterOptions};
use mempersp_extrae::events::{EventPayload, TraceEvent};
use mempersp_extrae::query::Query;
use mempersp_extrae::tracer::{Trace, TraceMeta};
use std::io;
use std::path::{Path, PathBuf};

/// The verdict of one [`fsck_store`] run.
#[derive(Debug)]
pub struct FsckReport {
    pub path: PathBuf,
    /// Container format version (of the first shard, for a sharded
    /// trace).
    pub format_version: u32,
    /// Shards inspected (1 for a single file).
    pub shards: usize,
    /// Chunks inspected across all shards.
    pub chunks: usize,
    /// Events accounted for across all readable chunks.
    pub events: u64,
    /// Was the header blob readable everywhere?
    pub header_intact: bool,
    /// One line per defect; empty means the store is clean.
    pub damage: Vec<String>,
}

impl FsckReport {
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty() && self.header_intact
    }
}

/// What [`recover_store`] did.
#[derive(Debug)]
pub struct RecoverReport {
    pub output: PathBuf,
    /// Events written to the recovered store.
    pub events: u64,
    /// Chunks that contributed events.
    pub chunks: usize,
    /// Was the original header recovered (vs. synthesized)?
    pub header_intact: bool,
    /// Damage found in the input, one line per defect.
    pub damage: Vec<String>,
}

/// Open `path` — single file, shard directory (with or without a
/// manifest), or torn `.tmp` — in salvage mode and deep-verify every
/// byte that claims to be data.
pub fn fsck_store(path: &Path) -> io::Result<FsckReport> {
    let src = MpsSource::open_with_options(path, RecoveryMode::Salvage, true)?;
    let mut damage = src.damage_report();
    let mut chunks = 0usize;
    let mut events = 0u64;
    let mut header_intact = true;
    for (name, shard) in src.shards() {
        chunks += shard.chunks().len();
        events += shard.num_events();
        header_intact &= shard.header_intact();
        for d in shard.verify_all() {
            let line = damage_line(name, &d);
            if !damage.contains(&line) {
                damage.push(line);
            }
        }
    }
    Ok(FsckReport {
        path: path.to_path_buf(),
        format_version: src.format_version(),
        shards: src.num_shards(),
        chunks,
        events,
        header_intact,
        damage,
    })
}

/// Salvage every readable chunk of `input` into a fresh store at
/// `output`. The output is written atomically (tmp + fsync + rename),
/// so a crash during recovery never leaves a half-recovered file at
/// `output`.
pub fn recover_store(input: &Path, output: &Path) -> io::Result<RecoverReport> {
    let src = MpsSource::open_with_options(input, RecoveryMode::Salvage, true)?;
    let (events, _) = src.query(&Query::all())?;
    let header_intact = src.shards().all(|(_, s)| s.header_intact());
    let header =
        if header_intact { src.store_header().clone() } else { synthesize_header(&events) };
    let mut w = StoreWriter::new(output, WriterOptions::default())?;
    for e in &events {
        w.append(e)?;
    }
    let summary = w.finish(&header)?;
    Ok(RecoverReport {
        output: output.to_path_buf(),
        events: summary.events,
        chunks: src.shards().map(|(_, s)| s.chunks().len()).sum(),
        header_intact,
        damage: src.damage_report(),
    })
}

/// Build a minimal header for events whose real header was lost: core
/// count from the events, a placeholder region table wide enough for
/// every referenced region id.
fn synthesize_header(events: &[TraceEvent]) -> Trace {
    let mut max_core = 0usize;
    let mut regions = 0u32;
    let mut see_region = |r: &mempersp_extrae::events::RegionId| {
        regions = regions.max(r.0 + 1);
    };
    for e in events {
        max_core = max_core.max(e.core);
        match &e.payload {
            EventPayload::RegionEnter { region, .. } | EventPayload::RegionExit { region, .. } => {
                see_region(region)
            }
            EventPayload::CounterSample { stack, .. } => stack.iter().for_each(&mut see_region),
            _ => {}
        }
    }
    Trace {
        meta: TraceMeta {
            freq_mhz: 2500,
            num_cores: max_core + 1,
            aslr_slide: 0,
            description: "recovered store (header lost)".into(),
        },
        events: Vec::new(),
        source: Default::default(),
        objects: Default::default(),
        region_names: (0..regions).map(|i| format!("region_{i}")).collect(),
        resolution: Default::default(),
    }
}

/// Guard for the CLI's no-clobber contract: error unless `force` or
/// `output` does not exist yet.
pub fn check_clobber(output: &Path, force: bool) -> io::Result<()> {
    if !force && output.exists() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!("{}: output already exists (pass --force to overwrite)", output.display()),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::FRAME_LEN;
    use crate::reader::StoreReader;
    use crate::shard::write_store_sharded;
    use crate::writer::write_store_chunked;
    use mempersp_extrae::tracer::{Tracer, TracerConfig};
    use mempersp_pebs::CounterSnapshot;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mempersp_recover_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn trace(iters: u64) -> Trace {
        let mut t = Tracer::new(TracerConfig::default(), 4);
        let c = CounterSnapshot::from_values([9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2]);
        for i in 0..iters {
            let core = (i % 4) as usize;
            t.enter(core, "R", c, i * 100);
            t.user_event(core, 1, i, i * 100 + 10);
            t.exit(core, "R", c, i * 100 + 50);
        }
        t.finish("recover test")
    }

    #[test]
    fn fsck_reports_clean_on_pristine_stores() {
        let single = tmp("clean.mps");
        let sharded = tmp("clean.mps.d");
        std::fs::remove_dir_all(&sharded).ok();
        let t = trace(2000);
        write_store_chunked(&single, &t, 4096).unwrap();
        write_store_sharded(&sharded, &t, 4096, 1, 2500).unwrap();
        let rs = fsck_store(&single).unwrap();
        assert!(rs.is_clean(), "{:?}", rs.damage);
        assert_eq!((rs.format_version, rs.shards, rs.events), (4, 1, t.events.len() as u64));
        let rd = fsck_store(&sharded).unwrap();
        assert!(rd.is_clean(), "{:?}", rd.damage);
        assert_eq!((rd.shards, rd.events), (3, t.events.len() as u64));
        std::fs::remove_file(&single).ok();
        std::fs::remove_dir_all(&sharded).ok();
    }

    #[test]
    fn fsck_names_a_flipped_chunk() {
        let path = tmp("flip.mps");
        let t = trace(2000);
        write_store_chunked(&path, &t, 4096).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8 + FRAME_LEN + 3] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let r = fsck_store(&path).unwrap();
        assert!(!r.is_clean());
        assert!(r.damage.iter().any(|d| d.contains("chunk 0")), "{:?}", r.damage);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recover_torn_file_yields_event_prefix() {
        let path = tmp("torn.mps");
        let out = tmp("torn_recovered.mps");
        let t = trace(2000);
        write_store_chunked(&path, &t, 4096).unwrap();
        let clean = StoreReader::open(&path).unwrap();
        let chunks: Vec<_> = clean.chunks().to_vec();
        assert!(chunks.len() >= 3);
        let cut = chunks[2].offset as usize + 7; // tear inside chunk 2
        drop(clean);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let report = recover_store(&path, &out).unwrap();
        assert!(!report.header_intact);
        assert!(report.events > 0);
        let recovered = StoreReader::open(&out).unwrap();
        let back = recovered.materialize().unwrap();
        assert!(
            t.events.starts_with(&back.events),
            "recovered events must be an exact prefix ({} of {})",
            back.events.len(),
            t.events.len()
        );
        // The recovered store itself is clean and fully checksummed.
        let fsck = fsck_store(&out).unwrap();
        assert!(fsck.is_clean(), "{:?}", fsck.damage);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn recover_intact_store_is_lossless() {
        let path = tmp("ok.mps");
        let out = tmp("ok_recovered.mps");
        let t = trace(1500);
        write_store_chunked(&path, &t, 4096).unwrap();
        let report = recover_store(&path, &out).unwrap();
        assert!(report.header_intact);
        assert_eq!(report.events, t.events.len() as u64);
        let back = StoreReader::open(&out).unwrap().materialize().unwrap();
        assert_eq!(back.events, t.events);
        assert_eq!(back.region_names, t.region_names);
        assert_eq!(back.meta, t.meta);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn recover_sharded_with_one_deleted_shard() {
        let dir = tmp("holes.mps.d");
        let out = tmp("holes_recovered.mps");
        std::fs::remove_dir_all(&dir).ok();
        let t = trace(2000);
        write_store_sharded(&dir, &t, 4096, 1, 2500).unwrap();
        std::fs::remove_file(dir.join("shard-0001.mps")).unwrap();
        let report = recover_store(&dir, &out).unwrap();
        assert!(report.damage.iter().any(|d| d.contains("shard-0001")), "{:?}", report.damage);
        let back = StoreReader::open(&out).unwrap().materialize().unwrap();
        // Shards 0 and 2 survive: first 2500 events + last 1000.
        assert_eq!(back.events.len(), t.events.len() - 2500);
        assert_eq!(back.events[..2500], t.events[..2500]);
        assert_eq!(back.events[2500..], t.events[5000..]);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn check_clobber_enforces_force() {
        let path = tmp("clobber.bin");
        std::fs::write(&path, b"x").unwrap();
        assert!(check_clobber(&path, false).is_err());
        assert!(check_clobber(&path, true).is_ok());
        let fresh = tmp("clobber_fresh.bin");
        std::fs::remove_file(&fresh).ok();
        assert!(check_clobber(&fresh, false).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn synthesized_header_covers_referenced_regions() {
        let t = trace(100);
        let h = synthesize_header(&t.events);
        assert_eq!(h.meta.num_cores, 4);
        assert_eq!(h.region_names.len(), t.region_names.len());
    }
}

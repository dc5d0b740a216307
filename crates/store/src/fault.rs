//! Deterministic IO fault injection for the store's durability tests.
//!
//! The writer talks to its backing file through the [`StoreFile`]
//! trait, so tests can slide a [`FailingFile`] underneath a real
//! [`StoreWriter`](crate::writer::StoreWriter) and make the *exact same* code path that production
//! runs hit an `ENOSPC` on the 7th write, a failed fsync, a short
//! write, or a torn write that stops mid-buffer at byte offset `k`
//! (what a `kill -9` or power loss leaves behind). Everything is
//! counter-based and deterministic: the same [`FaultConfig`] against
//! the same byte stream trips at the same instant every run.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The writer's view of its backing file: sequential writes plus
/// durability. Implemented by [`std::fs::File`] in production and by
/// [`FailingFile`] in the fault-injection tests.
pub trait StoreFile: Write + Send {
    fn sync_all(&mut self) -> io::Result<()>;
}

impl StoreFile for std::fs::File {
    fn sync_all(&mut self) -> io::Result<()> {
        std::fs::File::sync_all(self)
    }
}

/// When and how a [`FailingFile`] misbehaves. All counters are
/// 0-based and count *calls on this file*, not bytes (except
/// `kill_at_byte`).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// Fail the Nth `write` call (and every one after it) with this
    /// error kind — an `ENOSPC`-style persistent failure.
    pub fail_write: Option<(u64, io::ErrorKind)>,
    /// Fail the Nth `sync_all` call (and every one after it).
    pub fail_sync: Option<(u64, io::ErrorKind)>,
    /// The Nth `write` call accepts only this many bytes. A legal
    /// short write, not an error: callers using `write_all` must loop
    /// and the output must come out byte-identical.
    pub short_write: Option<(u64, usize)>,
    /// Accept bytes up to this file offset, then tear the in-flight
    /// write at the boundary and fail every later operation — the
    /// closest an in-process test gets to `kill -9` at byte `k`.
    pub kill_at_byte: Option<u64>,
}

/// Shared observable state of one injection run.
#[derive(Debug, Default)]
pub struct FaultPlan {
    config: FaultConfig,
    writes: AtomicU64,
    syncs: AtomicU64,
    bytes: AtomicU64,
    tripped: AtomicBool,
}

impl FaultPlan {
    pub fn new(config: FaultConfig) -> Arc<FaultPlan> {
        Arc::new(FaultPlan { config, ..FaultPlan::default() })
    }

    /// Bytes accepted by the underlying file so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes.load(Ordering::SeqCst)
    }

    /// `write` calls observed so far (including failed ones).
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }

    /// `sync_all` calls observed so far (including failed ones).
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::SeqCst)
    }

    /// Did any configured fault actually fire?
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }

    fn trip(&self, kind: io::ErrorKind, what: &str) -> io::Error {
        self.tripped.store(true, Ordering::SeqCst);
        io::Error::new(kind, format!("injected fault: {what}"))
    }
}

/// A real file with a deterministic failure schedule. Wrap the tmp
/// file of a [`crate::writer::StoreWriter`] (via
/// [`crate::writer::StoreWriter::with_backend`]) to exercise every
/// error path the durability story depends on.
pub struct FailingFile {
    inner: std::fs::File,
    plan: Arc<FaultPlan>,
}

impl FailingFile {
    pub fn new(inner: std::fs::File, plan: Arc<FaultPlan>) -> FailingFile {
        FailingFile { inner, plan }
    }
}

impl Write for FailingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let plan = &self.plan;
        let n = plan.writes.fetch_add(1, Ordering::SeqCst);
        if plan.tripped() {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected fault: file already dead"));
        }
        if let Some((at, kind)) = plan.config.fail_write {
            if n >= at {
                return Err(plan.trip(kind, "write failure"));
            }
        }
        let mut take = buf.len();
        if let Some((at, len)) = plan.config.short_write {
            if n == at {
                take = take.min(len.max(1));
            }
        }
        if let Some(kill) = plan.config.kill_at_byte {
            let pos = plan.bytes.load(Ordering::SeqCst);
            if pos >= kill {
                return Err(plan.trip(io::ErrorKind::BrokenPipe, "killed before write"));
            }
            let room = (kill - pos) as usize;
            if room < take {
                // Tear: push the surviving prefix through, then die.
                self.inner.write_all(&buf[..room])?;
                plan.bytes.fetch_add(room as u64, Ordering::SeqCst);
                return Err(plan.trip(io::ErrorKind::BrokenPipe, "killed mid-write"));
            }
        }
        let written = self.inner.write(&buf[..take])?;
        plan.bytes.fetch_add(written as u64, Ordering::SeqCst);
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.plan.tripped() {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected fault: file already dead"));
        }
        self.inner.flush()
    }
}

impl StoreFile for FailingFile {
    fn sync_all(&mut self) -> io::Result<()> {
        let plan = &self.plan;
        let n = plan.syncs.fetch_add(1, Ordering::SeqCst);
        if plan.tripped() {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected fault: file already dead"));
        }
        if let Some((at, kind)) = plan.config.fail_sync {
            if n >= at {
                return Err(plan.trip(kind, "fsync failure"));
            }
        }
        if plan.config.kill_at_byte.is_some() {
            // A killed process never reaches fsync; if the byte budget
            // ran out the file is already tripped above.
        }
        std::fs::File::sync_all(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mempersp_fault_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn write_failure_trips_at_the_configured_call_and_stays_dead() {
        let path = tmp("failwrite.bin");
        let plan = FaultPlan::new(FaultConfig {
            fail_write: Some((2, io::ErrorKind::StorageFull)),
            ..FaultConfig::default()
        });
        let mut f = FailingFile::new(std::fs::File::create(&path).unwrap(), Arc::clone(&plan));
        f.write_all(b"aa").unwrap();
        f.write_all(b"bb").unwrap();
        let err = f.write_all(b"cc").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(plan.tripped());
        assert!(f.write_all(b"dd").is_err(), "a tripped file must stay dead");
        assert_eq!(std::fs::read(&path).unwrap(), b"aabb");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kill_at_byte_tears_the_inflight_write() {
        let path = tmp("kill.bin");
        let plan = FaultPlan::new(FaultConfig { kill_at_byte: Some(5), ..FaultConfig::default() });
        let mut f = FailingFile::new(std::fs::File::create(&path).unwrap(), Arc::clone(&plan));
        f.write_all(b"abc").unwrap();
        let err = f.write_all(b"defg").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(plan.bytes_written(), 5);
        assert_eq!(std::fs::read(&path).unwrap(), b"abcde", "prefix before the kill survives");
        assert!(f.sync_all().is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_write_is_legal_and_write_all_recovers() {
        let path = tmp("short.bin");
        let plan = FaultPlan::new(FaultConfig { short_write: Some((0, 1)), ..FaultConfig::default() });
        let mut f = FailingFile::new(std::fs::File::create(&path).unwrap(), Arc::clone(&plan));
        f.write_all(b"hello").unwrap();
        assert!(!plan.tripped());
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_failure_counts_calls() {
        let path = tmp("sync.bin");
        let plan = FaultPlan::new(FaultConfig {
            fail_sync: Some((1, io::ErrorKind::Other)),
            ..FaultConfig::default()
        });
        let mut f = FailingFile::new(std::fs::File::create(&path).unwrap(), Arc::clone(&plan));
        f.sync_all().unwrap();
        assert!(f.sync_all().is_err());
        assert_eq!(plan.syncs(), 2);
        std::fs::remove_file(&path).ok();
    }
}

//! The trace repository: a directory of `.mps` files and `.mps.d`
//! sharded stores served by shared readers.
//!
//! Every store is opened at most once and kept behind an
//! `Arc<MpsSource>`; all requests touching the same trace share one
//! reader and therefore one sharded block cache — the whole point of
//! running a resident service instead of per-query CLI invocations.
//! Readers are never mutated (queries take `&self`), so no lock is
//! held while scanning; the `RwLock` only guards the name → reader
//! map.
//!
//! Trace *names* are client input and are validated strictly: a name
//! must be a single path component (no separators, no `..`, nothing
//! hidden) with a store extension. Everything else is rejected before
//! it reaches the filesystem, so the service can never be walked out
//! of its root.

use std::collections::HashMap;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

use mempersp_extrae::trace_source::{ScanStats, TraceSource};
use mempersp_extrae::{EventBatch, Query, Trace};
use mempersp_store::{CacheStats, CancelToken, MpsSource, RecoveryMode, ALL_MATCHES};

fn bad_name(name: &str, why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, format!("invalid trace name {name:?}: {why}"))
}

/// Validate a client-supplied trace name. Returns `InvalidInput`
/// (mapped to `400`) on anything that is not a plain store name.
pub fn validate_name(name: &str) -> io::Result<()> {
    if name.is_empty() {
        return Err(bad_name(name, "empty"));
    }
    if name.len() > 255 {
        return Err(bad_name(name, "longer than 255 bytes"));
    }
    if name.contains('/') || name.contains('\\') {
        return Err(bad_name(name, "path separators are not allowed"));
    }
    if name == "." || name == ".." || name.starts_with('.') {
        return Err(bad_name(name, "hidden and relative names are not allowed"));
    }
    if name.chars().any(|c| c.is_control()) {
        return Err(bad_name(name, "control characters are not allowed"));
    }
    if !(name.ends_with(".mps") || name.ends_with(".mps.d")) {
        return Err(bad_name(name, "expected a .mps file or .mps.d directory"));
    }
    Ok(())
}

/// A directory of trace stores behind shared readers.
pub struct TraceRepo {
    root: PathBuf,
    open: RwLock<HashMap<String, Arc<MpsSource>>>,
}

impl TraceRepo {
    /// Bind to `root`. Fails fast if it is not a readable directory;
    /// stores themselves are opened lazily on first touch.
    pub fn new(root: &Path) -> io::Result<TraceRepo> {
        if !root.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("trace repository {} is not a directory", root.display()),
            ));
        }
        Ok(TraceRepo { root: root.to_path_buf(), open: RwLock::new(HashMap::new()) })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Enumerate the store names currently present under the root,
    /// sorted. Re-reads the directory on every call so stores dropped
    /// in while the service runs are picked up without a restart.
    pub fn list_names(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            let Ok(name) = entry.file_name().into_string() else { continue };
            let is_dir = entry.file_type().map(|t| t.is_dir()).unwrap_or(false);
            if ((is_dir && name.ends_with(".mps.d")) || (!is_dir && name.ends_with(".mps")))
                && validate_name(&name).is_ok()
            {
                names.push(name);
            }
        }
        names.sort();
        Ok(names)
    }

    /// Look up (opening on first touch) the shared reader for `name`.
    ///
    /// Errors keep their `io::ErrorKind` so the router can map them:
    /// `InvalidInput` → 400, `NotFound` → 404, `InvalidData`
    /// (corruption) → 502.
    pub fn lookup(&self, name: &str) -> io::Result<Arc<MpsSource>> {
        validate_name(name)?;
        if let Some(src) = self.open.read().expect("repo poisoned").get(name) {
            return Ok(Arc::clone(src));
        }
        let path = self.root.join(name);
        if !path.exists() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no trace named {name:?} in the repository"),
            ));
        }
        // Strict + verify: a damaged store must fail the request (the
        // router answers 502 with the damage summary), not silently
        // serve partial data to an unsuspecting analysis.
        let src = Arc::new(MpsSource::open_with_options(&path, RecoveryMode::Strict, true)?);
        let mut open = self.open.write().expect("repo poisoned");
        // Another request may have opened it concurrently; keep the
        // first so every client shares one block cache.
        Ok(Arc::clone(open.entry(name.to_string()).or_insert(src)))
    }

    /// Drop the cached reader for `name` (used after a store is found
    /// damaged, so a repaired store is re-opened fresh).
    pub fn evict(&self, name: &str) {
        self.open.write().expect("repo poisoned").remove(name);
    }

    /// Block-cache counters summed over every open store.
    pub fn cache_stats(&self) -> CacheStats {
        self.open
            .read()
            .expect("repo poisoned")
            .values()
            .map(|s| s.cache_stats())
            .fold(CacheStats::default(), CacheStats::merged)
    }

    /// Number of stores currently held open.
    pub fn open_count(&self) -> usize {
        self.open.read().expect("repo poisoned").len()
    }
}

/// A per-request [`TraceSource`] view of a shared reader that threads
/// a [`CancelToken`] into every scan, and remembers the `ErrorKind`
/// of the last scan failure. The folding engine flattens I/O errors
/// to strings ([`mempersp_folding::FoldError::Io`]); the recorded
/// kind lets the router still distinguish a deadline (`503`) from
/// corruption (`502`) after a failed fold.
pub struct CancellableSource<'a> {
    src: &'a MpsSource,
    cancel: &'a CancelToken,
    last_err: Option<io::ErrorKind>,
}

impl<'a> CancellableSource<'a> {
    pub fn new(src: &'a MpsSource, cancel: &'a CancelToken) -> CancellableSource<'a> {
        CancellableSource { src, cancel, last_err: None }
    }

    /// `ErrorKind` of the most recent failed scan, if any.
    pub fn last_err_kind(&self) -> Option<io::ErrorKind> {
        self.last_err
    }
}

impl TraceSource for CancellableSource<'_> {
    fn header(&mut self) -> io::Result<Trace> {
        Ok(self.src.store_header().clone())
    }

    fn scan_batches(
        &mut self,
        query: &Query,
        sink: &mut dyn FnMut(&EventBatch<'_>),
    ) -> io::Result<ScanStats> {
        self.src.scan_batches_cancel(query, &ALL_MATCHES, self.cancel, sink).inspect_err(|e| {
            self.last_err = Some(e.kind());
        })
    }

    fn format_name(&self) -> &'static str {
        self.src.format_name()
    }
}

/// Identity string for memoization: name plus facts that change
/// whenever the store is rewritten. Stores are write-once (the writer
/// finalizes atomically), so (version, events) pinning is enough to
/// keep a stale memo from surviving a replaced store file.
pub fn trace_identity(name: &str, src: &MpsSource) -> String {
    format!("{name}#v{}#{}", src.format_version(), src.num_events())
}

/// Corrupt one byte of a store file — shared by the damage tests.
#[doc(hidden)]
pub fn flip_byte_for_tests(path: &Path, offset_from_end: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new().read(true).write(true).open(path)?;
    f.seek(SeekFrom::End(-(offset_from_end as i64)))?;
    let mut b = [0u8; 1];
    f.read_exact(&mut b)?;
    b[0] ^= 0xff;
    f.seek(SeekFrom::End(-(offset_from_end as i64)))?;
    f.write_all(&b)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_validated_strictly() {
        for good in ["run.mps", "hpcg-nx24.mps.d", "a.mps"] {
            assert!(validate_name(good).is_ok(), "{good}");
        }
        for bad in [
            "",
            "../etc/passwd",
            "sub/dir.mps",
            "back\\slash.mps",
            ".hidden.mps",
            "..",
            "noext",
            "trace.prv",
            "nul\0byte.mps",
        ] {
            let err = validate_name(bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad}");
        }
    }

    #[test]
    fn repo_requires_a_directory() {
        let err = TraceRepo::new(Path::new("/definitely/not/here")).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn lookup_unknown_is_not_found() {
        let dir = std::env::temp_dir().join(format!("mempersp-repo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let repo = TraceRepo::new(&dir).unwrap();
        assert_eq!(repo.list_names().unwrap(), Vec::<String>::new());
        let err = repo.lookup("ghost.mps").err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let err = repo.lookup("../escape.mps").err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn list_skips_foreign_files() {
        let dir = std::env::temp_dir().join(format!("mempersp-repo-list-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("notes.txt"), b"x").unwrap();
        std::fs::write(dir.join("b.mps"), b"not a real store yet").unwrap();
        std::fs::create_dir_all(dir.join("a.mps.d")).unwrap();
        std::fs::create_dir_all(dir.join("plain-dir")).unwrap();
        let repo = TraceRepo::new(&dir).unwrap();
        assert_eq!(repo.list_names().unwrap(), vec!["a.mps.d".to_string(), "b.mps".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! What the harness needs from the host: a calibration kernel, the
//! process's memory high-water mark, a description of the machine, and
//! a scratch directory that removes itself.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A fixed page-touch + copy kernel, timed at the start of every
/// workload. It does not depend on the repository's code, so when it
/// moves between two runs the machine drifted, not the program.
pub fn calibrate() -> f64 {
    // Small buffers, allocated afresh each round (so every round pays
    // its page faults): 16 MiB resident at most, well under any
    // workload's own peak, which `peak_rss_bytes` must keep reflecting.
    const BYTES: usize = 8 << 20;
    const PAGE: usize = 4096;
    const ROUNDS: usize = 8;
    let t = Instant::now();
    for round in 0..ROUNDS {
        let mut src = vec![0u8; BYTES];
        for i in (0..BYTES).step_by(PAGE) {
            src[i] = (i + round) as u8;
        }
        let mut dst = vec![0u8; BYTES];
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
    }
    t.elapsed().as_secs_f64()
}

/// `VmHWM` of this process, in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Restart the high-water mark from the current resident size, so the
/// figure read later covers the measured window and not the set-up.
/// Where the kernel refuses, the mark keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A directory removed when the value drops — also when a check fails
/// or the workload panics, so no run leaves stores behind.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(parent: &Path) -> std::io::Result<TempDir> {
        let dir = parent.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

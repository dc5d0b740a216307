//! The synthetic store generator behind the `gentrace` binary. The
//! paper's figure, tables and ablations are the `paper` binary; how
//! fast anything runs is measured by the repo benchmark
//! (`benchmark/`), not here.

pub mod gentrace;

/// Peak resident set of this process so far, in bytes (`VmHWM` from
/// `/proc/self/status`). `None` where procfs is unavailable (non-Linux
/// hosts).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

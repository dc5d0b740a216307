//! Shared helpers for the experiment-regeneration binaries: each
//! table/figure of the paper has one binary printing the
//! paper-vs-measured rows recorded in EXPERIMENTS.md, and each
//! ablation one printing its rows. Performance is measured by the
//! repo benchmark (`benchmark/`), not here.

use mempersp_core::workflow::{analyze_hpcg, HpcgAnalysis};
use mempersp_core::MachineConfig;
use mempersp_hpcg::HpcgConfig;

pub mod gentrace;

/// The experiment scales used by the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast: nx=8, 3 iterations, 2 cores (CI-friendly).
    Quick,
    /// The EXPERIMENTS.md default: nx=16, 6 iterations, 4 cores.
    Analysis,
    /// Closer to the paper's setup: nx=32, 10 iterations, 4 cores.
    Large,
}

impl Scale {
    pub fn from_env() -> Self {
        match std::env::var("MEMPERSP_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            Ok("large") => Scale::Large,
            _ => Scale::Analysis,
        }
    }

    pub fn hpcg(&self) -> HpcgConfig {
        match self {
            Scale::Quick => HpcgConfig {
                nx: 8,
                max_iters: 3,
                mg_levels: 3,
                group_allocations: true,
                use_mg: true,
            },
            Scale::Analysis => HpcgConfig {
                nx: 16,
                max_iters: 6,
                mg_levels: 4,
                group_allocations: true,
                use_mg: true,
            },
            Scale::Large => HpcgConfig {
                nx: 48,
                max_iters: 4,
                mg_levels: 4,
                group_allocations: true,
                use_mg: true,
            },
        }
    }

    pub fn machine(&self) -> MachineConfig {
        match self {
            Scale::Quick => {
                let mut m = MachineConfig::small();
                m.cores = 2;
                m
            }
            Scale::Analysis => {
                let mut m = MachineConfig::haswell(4);
                m.counter_sample_period = 20_000;
                m.mux_slice_cycles = 50_000;
                m
            }
            Scale::Large => {
                let mut m = MachineConfig::haswell(4);
                m.counter_sample_period = 20_000;
                m.mux_slice_cycles = 50_000;
                // Cores are simulated through their solves one after
                // another, so the traced rank would otherwise enjoy the
                // whole shared L3; give it its per-core slice instead,
                // which also restores the paper's matrix:LLC capacity
                // ratio (60 MB : 6 MB ≈ the paper's 617 MB : 30 MB).
                m.hierarchy.l3.size_bytes = 6 * 1024 * 1024;
                m
            }
        }
    }
}

/// Run the full work-flow at a given scale.
pub fn run_analysis(scale: Scale) -> HpcgAnalysis {
    analyze_hpcg(scale.machine(), scale.hpcg())
}

/// Run with grouping disabled (experiment T-B).
pub fn run_ungrouped(scale: Scale) -> HpcgAnalysis {
    let mut cfg = scale.hpcg();
    cfg.group_allocations = false;
    analyze_hpcg(scale.machine(), cfg)
}

/// Peak resident set of this process so far, in bytes (`VmHWM` from
/// `/proc/self/status`). `None` where procfs is unavailable (non-Linux
/// hosts).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Format a paper-vs-measured row.
pub fn row(metric: &str, paper: &str, measured: &str, verdict: &str) -> String {
    format!("{metric:<44} | {paper:>18} | {measured:>18} | {verdict}")
}

/// Header for the comparison tables.
pub fn header() -> String {
    format!(
        "{}\n{}",
        row("metric", "paper", "measured", "shape holds?"),
        "-".repeat(100)
    )
}

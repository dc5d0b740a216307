//! Ablation: folding-model choices — fit model (isotonic vs binned
//! mean) — and the tracer's allocation-tracking threshold.
//!
//! ```sh
//! cargo run --release -p mempersp-bench --bin ablation_folding
//! ```

use mempersp_bench::{run_analysis, Scale};
use mempersp_core::workflow::analyze_hpcg;
use mempersp_core::MachineConfig;
use mempersp_folding::{fold_region, FitModel, FoldingConfig};
use mempersp_hpcg::HpcgConfig;

fn main() {
    let analysis = run_analysis(Scale::Quick);
    let trace = &analysis.report.trace;

    // How close the two fits agree, and what the threshold does to
    // resolution.
    for fit in [FitModel::Isotonic, FitModel::BinnedMean] {
        let cfg = FoldingConfig { fit, ..Default::default() };
        let f = fold_region(trace, "CG_iteration", &cfg).unwrap();
        println!("{fit:?}: mean MIPS {:.0}", f.mean_mips());
    }
    for threshold in [64u64, 1024, 1 << 20] {
        let mut mcfg = MachineConfig::small();
        mcfg.tracer.alloc_threshold = threshold;
        let hcfg = HpcgConfig { nx: 8, max_iters: 2, mg_levels: 2, group_allocations: false, use_mg: true };
        let a = analyze_hpcg(mcfg, hcfg);
        println!(
            "threshold {threshold:>8} B: {:.1} % samples resolved (ungrouped run)",
            100.0 * a.resolved_fraction
        );
    }
}

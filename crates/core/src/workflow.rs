//! The paper's complete work-flow in two halves. *Produce*: run HPCG
//! on the simulated node, its trace kept in memory ([`analyze_hpcg`])
//! or streamed into a container ([`run_streaming_to_path`]). *Consume*:
//! fold the repetitive regions and extract every quantitative
//! observation of Section III from any [`TraceSource`]
//! ([`analyze_hpcg_source`]), whichever container holds the trace.

use crate::analysis::bandwidth::{phase_bandwidths, PhaseBandwidth};
use crate::analysis::objects::{object_stats, resolved_fraction, ObjectStat};
use crate::analysis::phases::{phases_of, region_instances, Phase};
use crate::analysis::sweeps::{sweep_split_x, symgs_sweeps, SweepInfo};
use crate::machine::{Machine, MachineConfig, RunReport};
use mempersp_extrae::stream_writer::PrvSink;
use mempersp_extrae::trace_source::TraceSource;
use mempersp_extrae::{EventSink, ObjectId, Workload};
use mempersp_store::{ShardedWriter, StoreWriter, WriterOptions, SHARD_DIR_SUFFIX};
use std::io;
use std::path::Path;
use mempersp_folding::{fold_regions_source, FoldedRegion, FoldingConfig, RegionRequest};
use mempersp_hpcg::generate::{expected_matrix_group_bytes, GROUP_MAP, GROUP_MATRIX};
use mempersp_hpcg::kernels::{SYMGS_BWD_LINES, SYMGS_FILE, SYMGS_FWD_LINES};
use mempersp_hpcg::{regions, Geometry, HpcgConfig, HpcgWorkload};

/// Everything the paper reads off its Fig. 1 and Section III text.
#[derive(Debug)]
pub struct HpcgAnalysis {
    pub report: RunReport,
    /// Per-rank solver results (numerical validation).
    pub solver: Vec<mempersp_hpcg::CgResult>,
    /// The folded CG iteration (the figure's time axis).
    pub folded_iteration: FoldedRegion,
    /// The folded fine-level SYMGS (for the a1/a2 sweeps).
    pub folded_symgs: FoldedRegion,
    /// Detected phases A–E in folded iteration time.
    pub phases: Vec<Phase>,
    /// Rank-0's matrix allocation group (the 617 MB object), if
    /// grouping was enabled.
    pub matrix_object: Option<ObjectId>,
    /// Rank-0's map allocation group (the 89 MB object).
    pub map_object: Option<ObjectId>,
    /// Forward/backward sweep summaries within the folded SYMGS.
    pub sweeps: Option<(SweepInfo, SweepInfo)>,
    /// Traversal bandwidths of a1, a2 (SYMGS halves) and B, E (SpMV).
    pub bandwidths: Vec<PhaseBandwidth>,
    /// Per-object PEBS statistics within the execution phase.
    pub objects: Vec<ObjectStat>,
    /// Fraction of execution-phase PEBS samples resolved to objects.
    pub resolved_fraction: f64,
}

/// Options for [`run_streaming_to_path`]'s writer side.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Compressor threads of the store writer (ignored for `.prv`).
    pub writer_threads: usize,
    /// In-flight chunk budget; `None` takes the writer default
    /// (`threads × DEFAULT_INFLIGHT_PER_THREAD`).
    pub max_inflight: Option<usize>,
    /// Roll `.mps.d` shards every this many events. `Some` forces the
    /// sharded layout even without the `.mps.d` suffix.
    pub shard_events: Option<u64>,
    /// Allow overwriting an existing output. Defaults to `true` for
    /// library callers (benchmarks and tests legitimately rewrite a
    /// path); the CLI passes `false` unless the user said `--force`.
    pub force: bool,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions { writer_threads: 1, max_inflight: None, shard_events: None, force: true }
    }
}

/// Build the event sink `run --out` streams into, picked by suffix:
/// `.mps.d` (or an explicit shard threshold) → sharded store, `.mps`
/// → single-file store, anything else → Paraver text via [`PrvSink`].
pub fn sink_for_path(out: &Path, opts: &StreamOptions) -> io::Result<Box<dyn EventSink>> {
    mempersp_store::check_clobber(out, opts.force)?;
    let writer_opts = WriterOptions {
        threads: opts.writer_threads.max(1),
        max_inflight: opts.max_inflight,
        ..Default::default()
    };
    let is_shard_dir = out
        .file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.ends_with(SHARD_DIR_SUFFIX));
    if is_shard_dir || opts.shard_events.is_some() {
        let per_shard =
            opts.shard_events.unwrap_or(mempersp_store::DEFAULT_EVENTS_PER_SHARD);
        return Ok(Box::new(ShardedWriter::new(out, writer_opts, per_shard)?));
    }
    if out.extension().is_some_and(|e| e == "mps") {
        return Ok(Box::new(StoreWriter::new(out, writer_opts)?));
    }
    Ok(Box::new(PrvSink::create(out)?))
}

/// The one-pass trace-production pipeline: simulate `workload` on a
/// fresh machine while events stream straight into the on-disk format
/// named by `out` — no materialized event list; the tracer holds one
/// epoch's events plus those above the watermark (the slowest core's
/// clock), reported as [`RunReport::max_buffered_events`].
/// The bytes written are identical to materializing the trace and
/// converting it afterwards, for any writer thread count.
pub fn run_streaming_to_path(
    machine_cfg: MachineConfig,
    workload: &mut dyn Workload,
    out: &Path,
    opts: &StreamOptions,
) -> io::Result<RunReport> {
    let sink = sink_for_path(out, opts)?;
    let mut machine = Machine::new(machine_cfg);
    machine.run_streaming(workload, sink)
}

/// Run the benchmark with its trace kept in memory (*produce*) and
/// analyse that trace through [`analyze_hpcg_source`] (*consume*).
pub fn analyze_hpcg(machine_cfg: MachineConfig, hpcg_cfg: HpcgConfig) -> HpcgAnalysis {
    // The simulator's worker count doubles as the fold engine's.
    let fold_threads = machine_cfg.threads.max(1);
    let mut machine = Machine::new(machine_cfg);
    let mut workload = HpcgWorkload::new(hpcg_cfg);
    let mut report = machine.run(&mut workload);
    // The analysis keeps `report` and reads the events through the
    // source seam: lend it the trace, leaving `report` the header a
    // streaming run reports, and put it back afterwards.
    let header = (&report.trace).header().expect("an in-memory trace reads without I/O");
    let mut trace = std::mem::replace(&mut report.trace, header);
    let mut analysis = analyze_hpcg_source(&mut trace, report, &workload, fold_threads)
        .expect("an in-memory trace scans without I/O");
    analysis.report.trace = trace;
    analysis
}

/// The *consume* half over any container: a handful of pushed-down
/// scans of `source`, which holds the trace that `report`'s run of
/// `workload` wrote (in memory, or streamed to a `.prv`/`.mps`/`.mps.d`
/// by [`run_streaming_to_path`]). `report.trace`'s events are not read.
pub fn analyze_hpcg_source(
    source: &mut dyn TraceSource,
    report: RunReport,
    workload: &HpcgWorkload,
    fold_threads: usize,
) -> io::Result<HpcgAnalysis> {
    let trace = &source.header()?;

    // Both regions fold from one pass over the trace. The SYMGS region
    // has instances at every MG level; fold only the slowest duration
    // cluster — the fine-level calls the figure shows.
    let symgs_cfg = FoldingConfig {
        filter: mempersp_folding::InstanceFilter::slowest_cluster(0.5),
        ..FoldingConfig::default()
    };
    let (mut folded, _) = fold_regions_source(
        source,
        &[
            RegionRequest::new(regions::CG_ITERATION),
            RegionRequest::with_cfg(regions::SYMGS, symgs_cfg),
        ],
        fold_threads,
    )
    .map_err(io::Error::other)?;
    let folded_symgs = folded.pop().expect("two fold slots").expect("SYMGS instances present");
    let folded_iteration =
        folded.pop().expect("two fold slots").expect("CG iterations present");

    // One scan of core 0's region boundaries serves the phases and the
    // execution window.
    let (instances, _) = region_instances(
        source,
        &[regions::CG_ITERATION, regions::SYMGS, regions::SPMV, regions::EXECUTION],
        0,
    )?;
    let phases = phases_of(&instances, regions::SYMGS, regions::SPMV);
    let exec_window = instances[3].first().copied();

    let find_group = |name: &str| {
        trace
            .objects
            .all()
            .iter()
            .find(|o| o.name == name)
            .map(|o| o.id)
    };
    let matrix_object = find_group(GROUP_MATRIX);
    let map_object = find_group(GROUP_MAP);

    let sweeps = matrix_object.and_then(|obj| {
        symgs_sweeps(
            &folded_symgs,
            trace,
            obj,
            SYMGS_FILE,
            SYMGS_FWD_LINES,
            SYMGS_BWD_LINES,
            (0.0, 1.0),
        )
    });

    // Bandwidths: each SYMGS sweep and each SpMV traverses the matrix
    // structure once. The paper divides the structure size by the
    // phase duration.
    let traversal_bytes = expected_matrix_group_bytes(Geometry::cube(workload.config.nx));
    let mut bandwidths = Vec::new();
    if let Some((fwd, bwd)) = &sweeps {
        let split = sweep_split_x(fwd, bwd);
        let symgs_phase = Phase {
            label: "SYMGS".into(),
            region: regions::SYMGS.into(),
            x_start: 0.0,
            x_end: 1.0,
        };
        let (a1, a2) = symgs_phase.split(split, "a1", "a2");
        bandwidths.extend(phase_bandwidths(&folded_symgs, &[a1, a2], traversal_bytes));
    }
    let spmv_phases: Vec<Phase> = phases
        .iter()
        .filter(|p| p.label == "B" || p.label == "E")
        .cloned()
        .collect();
    bandwidths.extend(phase_bandwidths(&folded_iteration, &spmv_phases, traversal_bytes));

    // Per-object statistics within the execution phase on core 0.
    let (objects, _) = object_stats(source, exec_window)?;
    let resolved = resolved_fraction(&objects);

    Ok(HpcgAnalysis {
        solver: workload.results.clone(),
        folded_iteration,
        folded_symgs,
        phases,
        matrix_object,
        map_object,
        sweeps,
        bandwidths,
        objects,
        resolved_fraction: resolved,
        report,
    })
}

impl HpcgAnalysis {
    /// Bandwidth of one labelled phase (a1/a2/B/E), in MB/s.
    pub fn bandwidth(&self, label: &str) -> Option<f64> {
        self.bandwidths
            .iter()
            .find(|b| b.label == label)
            .map(|b| b.mb_per_s)
    }

    /// The matrix object's statistics, if sampled.
    pub fn matrix_stats(&self) -> Option<&ObjectStat> {
        let id = self.matrix_object?;
        self.objects.iter().find(|s| s.id == Some(id))
    }

    /// A machine-readable record of the key metrics (written next to
    /// the figure bundle so experiments are reproducible artifacts).
    pub fn json_summary(&self) -> serde_json::Value {
        serde_json::json!({
            "iterations_folded": self.folded_iteration.instances_used,
            "iterations_rejected": self.folded_iteration.instances_rejected,
            "mean_iteration_ms": self.folded_iteration.duration_ms(),
            "mean_mips": self.folded_iteration.mean_mips(),
            "ipc_nominal": self.folded_iteration.mean_mips()
                / self.report.trace.meta.freq_mhz as f64,
            "phases": self.phases.iter().map(|p| {
                serde_json::json!({
                    "label": p.label.clone(),
                    "region": p.region.clone(),
                    "x_start": p.x_start,
                    "x_end": p.x_end,
                })
            }).collect::<Vec<_>>(),
            "bandwidth_mb_per_s": self.bandwidths.iter().map(|b| {
                serde_json::json!({ "phase": b.label.clone(), "mb_per_s": b.mb_per_s })
            }).collect::<Vec<_>>(),
            "sweeps": self.sweeps.as_ref().map(|(f, b)| serde_json::json!({
                "forward": format!("{:?}", f.direction),
                "backward": format!("{:?}", b.direction),
            })),
            "resolved_fraction": self.resolved_fraction,
            "matrix_read_only": self.matrix_stats().map(|s| s.is_read_only()),
            "solver_residual_reduction": self.solver.first().map(|r| r.reduction()),
        })
    }

    /// A one-screen textual summary of the whole analysis.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== mempersp HPCG analysis =================================");
        let _ = writeln!(
            out,
            "iterations folded: {} (rejected {}), mean duration {:.3} ms",
            self.folded_iteration.instances_used,
            self.folded_iteration.instances_rejected,
            self.folded_iteration.duration_ms()
        );
        let _ = writeln!(out, "mean MIPS: {:.0}", self.folded_iteration.mean_mips());
        if let Some(rmse) = self
            .folded_iteration
            .fit_rmse(mempersp_pebs::EventKind::Instructions)
        {
            let _ = writeln!(out, "fold quality: instruction-curve RMSE {:.3} (normalized)", rmse);
        }
        let _ = writeln!(out, "phases:");
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  {}  {:<22} x=[{:.3},{:.3}] ({:.1} % of iteration)",
                p.label,
                p.region,
                p.x_start,
                p.x_end,
                100.0 * p.fraction()
            );
        }
        if let Some((fwd, bwd)) = &self.sweeps {
            let _ = writeln!(
                out,
                "SYMGS sweeps: fwd {:?} (slope {:+.3e}), bwd {:?} (slope {:+.3e})",
                fwd.direction, fwd.slope, bwd.direction, bwd.slope
            );
        }
        let _ = writeln!(out, "traversal bandwidths:");
        for b in &self.bandwidths {
            let _ = writeln!(out, "  {:<3} {:>9.0} MB/s over {:.3} ms", b.label, b.mb_per_s, b.seconds * 1e3);
        }
        let stack = crate::analysis::cpi::cpi_stack_mean(&self.folded_iteration);
        let _ = writeln!(
            out,
            "CPI stack: total {:.2} = base {:.2} + L2 {:.2} + L3 {:.2} + DRAM {:.2}  ({:.0} % memory-bound)",
            stack.total,
            stack.base,
            stack.l2,
            stack.l3,
            stack.dram,
            100.0 * stack.memory_bound_fraction()
        );
        let _ = writeln!(
            out,
            "PEBS samples resolved to objects: {:.1} %",
            100.0 * self.resolved_fraction
        );
        let _ = writeln!(out, "top objects by samples:");
        for o in self.objects.iter().take(6) {
            let _ = writeln!(
                out,
                "  {:<40} loads {:>6} stores {:>6} mean lat {:>6.1}{}",
                o.name,
                o.loads,
                o.stores,
                o.mean_latency,
                if o.is_read_only() { "  [read-only]" } else { "" }
            );
        }
        let _ = writeln!(out, "dominant data streams per phase:");
        let tables = crate::analysis::streams::phase_streams(
            &self.folded_iteration,
            &self.report.trace,
            &self.phases,
        );
        out.push_str(&crate::analysis::streams::streams_report(&tables));
        out
    }
}

//! CSV + gnuplot emission of the three folded panels of Fig. 1.
//!
//! Every series the paper plots is written as a CSV with a header
//! row; `gnuplot_script` produces a script that renders the three
//! aligned panels (code lines, addresses, performance) from those
//! CSVs.

use crate::analysis::phases::Phase;
use mempersp_extrae::Trace;
use mempersp_folding::FoldedRegion;
use mempersp_pebs::EventKind;
use std::fmt::Write as _;

/// The top panel: folded source-line samples.
/// Columns: `x,t_ms,file,line,ip`.
pub fn lines_csv(folded: &FoldedRegion) -> String {
    let mut out = String::from("x,t_ms,file,line,ip\n");
    let dur_ms = folded.duration_ms();
    for p in folded.pooled.line_points() {
        let _ = writeln!(
            out,
            "{:.6},{:.6},{},{},0x{:x}",
            p.x,
            p.x * dur_ms,
            p.file_name(&folded.pooled).unwrap_or("?"),
            p.line.map(|l| l.to_string()).unwrap_or_else(|| "?".into()),
            p.ip
        );
    }
    out
}

/// The middle panel: folded address samples.
/// Columns: `x,t_ms,addr,kind,latency,source,object`.
pub fn addresses_csv(folded: &FoldedRegion, trace: &Trace) -> String {
    let mut out = String::from("x,t_ms,addr,kind,latency,source,object\n");
    let dur_ms = folded.duration_ms();
    for p in folded.pooled.addr_points() {
        let object = p
            .object
            .and_then(|id| trace.objects.get(id))
            .map(|o| o.name.clone())
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{:.6},{:.6},{},{},{},{},{}",
            p.x,
            p.x * dur_ms,
            p.addr,
            if p.is_store { "S" } else { "L" },
            p.latency,
            p.source.label(),
            object
        );
    }
    out
}

/// The bottom panel: counter-per-instruction rates + MIPS.
/// Columns: `x,t_ms,mips,ipc,branches_pi,l1d_pi,l2_pi,l3_pi`.
pub fn performance_csv(folded: &FoldedRegion, points: usize) -> String {
    let mut out = String::from("x,t_ms,mips,ipc,branches_pi,l1d_pi,l2_pi,l3_pi\n");
    for p in folded.performance_series(points) {
        let _ = writeln!(
            out,
            "{:.6},{:.6},{:.3},{:.4},{:.6},{:.6},{:.6},{:.6}",
            p.x,
            p.t_ms,
            p.mips,
            p.ipc,
            p.per_instruction[EventKind::Branches.index()],
            p.per_instruction[EventKind::L1dMiss.index()],
            p.per_instruction[EventKind::L2Miss.index()],
            p.per_instruction[EventKind::L3Miss.index()],
        );
    }
    out
}

/// Detected phases as CSV: `label,region,x_start,x_end,t_start_ms,t_end_ms`.
pub fn phases_csv(folded: &FoldedRegion, phases: &[Phase]) -> String {
    let mut out = String::from("label,region,x_start,x_end,t_start_ms,t_end_ms\n");
    let dur_ms = folded.duration_ms();
    for p in phases {
        let _ = writeln!(
            out,
            "{},{},{:.6},{:.6},{:.6},{:.6}",
            p.label,
            p.region,
            p.x_start,
            p.x_end,
            p.x_start * dur_ms,
            p.x_end * dur_ms
        );
    }
    out
}

/// Object annotations for the middle panel:
/// `name,base,end,allocated_bytes,label`.
pub fn objects_csv(trace: &Trace) -> String {
    let mut out = String::from("name,base,end,allocated_bytes,label\n");
    for o in trace.objects.all() {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            o.name,
            o.base,
            o.end(),
            o.allocated_bytes,
            o.figure_label()
        );
    }
    out
}

/// A gnuplot script rendering the three aligned panels from the CSVs
/// written with prefix `prefix` (e.g. `fig1` →
/// `fig1_lines.csv`, `fig1_addresses.csv`, `fig1_perf.csv`), with the
/// detected phases drawn as labelled vertical rules (the A–E marks of
/// the paper's figure).
pub fn gnuplot_script(prefix: &str, title: &str, phases: &[Phase], duration_ms: f64) -> String {
    let mut annotations = String::new();
    for (i, p) in phases.iter().enumerate() {
        let x0 = p.x_start * duration_ms;
        let x1 = p.x_end * duration_ms;
        let mid = (x0 + x1) / 2.0;
        let _ = writeln!(
            annotations,
            "set arrow {} from {x1:.6},graph 0 to {x1:.6},graph 1 nohead dt 3 lc rgb '#888888'",
            i + 1,
        );
        let _ = writeln!(
            annotations,
            "set label {} '{}' at {mid:.6},graph 0.95 center",
            i + 1,
            p.label
        );
    }
    format!(
        r#"# Generated by mempersp — reproduction of Servat et al., ICPP 2017, Fig. 1
{annotations}set datafile separator ','
set terminal pngcairo size 1200,1400
set output '{prefix}.png'
set multiplot layout 3,1 title '{title}'

# ---- Panel 1: code lines -------------------------------------------
set title 'Code line'
set xlabel ''
set ylabel 'source line'
set key off
plot '{prefix}_lines.csv' using 2:4 skip 1 with points pt 7 ps 0.3 lc rgb '#1f77b4'

# ---- Panel 2: addresses referenced ---------------------------------
set title 'Addresses referenced'
set ylabel 'address'
set format y '0x%x'
plot '{prefix}_addresses.csv' using 2:($4 eq 'L' ? $3 : 1/0) skip 1 \
         with points pt 7 ps 0.3 lc rgb '#1f77b4' title 'loads', \
     '{prefix}_addresses.csv' using 2:($4 eq 'S' ? $3 : 1/0) skip 1 \
         with points pt 7 ps 0.3 lc rgb '#000000' title 'stores'
unset format y

# ---- Panel 3: performance ------------------------------------------
set title 'Counter / instruction and MIPS'
set xlabel 'Time (ms)'
set ylabel 'counter / instruction'
set y2label 'MIPS'
set y2tics
set key outside bottom horizontal
plot '{prefix}_perf.csv' using 2:5 skip 1 with lines lw 2 title 'Branches', \
     '{prefix}_perf.csv' using 2:6 skip 1 with lines lw 2 title 'L1D miss', \
     '{prefix}_perf.csv' using 2:7 skip 1 with lines lw 2 title 'L2 miss', \
     '{prefix}_perf.csv' using 2:8 skip 1 with lines lw 2 title 'L3 miss', \
     '{prefix}_perf.csv' using 2:3 skip 1 axes x1y2 with lines lw 2 lc rgb '#d62728' title 'MIPS'

unset multiplot
"#
    )
}

/// Write the whole figure bundle (four CSVs + gnuplot script) into a
/// directory; returns the list of files written.
pub fn write_figure_bundle(
    dir: &std::path::Path,
    prefix: &str,
    title: &str,
    folded: &FoldedRegion,
    trace: &Trace,
    phases: &[Phase],
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut out = Vec::new();
    // One file at a time: the sample panels of a dense fold are tens
    // of MB of text each, and nothing needs two of them at once.
    let mut write = |suffix: &str, content: String| {
        let path = dir.join(format!("{prefix}{suffix}"));
        std::fs::write(&path, content)?;
        out.push(path);
        std::io::Result::Ok(())
    };
    write("_lines.csv", lines_csv(folded))?;
    write("_addresses.csv", addresses_csv(folded, trace))?;
    write("_perf.csv", performance_csv(folded, 201))?;
    write("_phases.csv", phases_csv(folded, phases))?;
    write("_objects.csv", objects_csv(trace))?;
    write(".gp", gnuplot_script(prefix, title, phases, folded.duration_ms()))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_folding::{FoldedCounter, MonotoneCurve, PooledSamples};

    fn empty_folded() -> FoldedRegion {
        FoldedRegion {
            region: "it".into(),
            instances_used: 1,
            instances_rejected: 0,
            avg_duration_cycles: 1e6,
            freq_mhz: 1000,
            counters: EventKind::ALL
                .iter()
                .map(|&kind| FoldedCounter {
                    kind,
                    curve: MonotoneCurve::identity(),
                    avg_total: 100.0,
                    points: 0,
                })
                .collect(),
            pooled: PooledSamples::default(),
        }
    }

    #[test]
    fn csv_headers_present() {
        let f = empty_folded();
        assert!(lines_csv(&f).starts_with("x,t_ms,file,line,ip\n"));
        assert!(performance_csv(&f, 3).lines().count() == 4);
        let phases = vec![Phase {
            label: "A".into(),
            region: "SYMGS".into(),
            x_start: 0.0,
            x_end: 0.4,
        }];
        let script = gnuplot_script("fig1", "HPCG", &phases, 10.0);
        assert!(script.contains("fig1_lines.csv"));
        assert!(script.contains("multiplot layout 3,1"));
        assert!(script.contains("set label 1 'A'"), "phase label emitted");
        assert!(script.contains("set arrow 1 from 4.000000"), "boundary at 0.4×10 ms");
    }

    #[test]
    fn addresses_csv_rows_reflect_points() {
        use mempersp_extrae::{CodeLocation, Tracer, TracerConfig};
        use mempersp_folding::AddrPoint;
        use mempersp_memsim::MemLevel;
        let mut tr = Tracer::new(TracerConfig::default(), 1);
        let base = tr.malloc(1 << 20, &CodeLocation::new("gen.cpp", 110, "g"), 0);
        let obj = tr.objects().resolve(base).unwrap().id;
        let trace = tr.finish("csv test");

        let mut f = empty_folded();
        let points = [
            AddrPoint {
                x: 0.25,
                addr: base + 64,
                ip: 0,
                is_store: false,
                latency: 36,
                source: MemLevel::L3,
                object: Some(obj),
                instance: 0,
            },
            AddrPoint {
                x: 0.75,
                addr: 0x123,
                ip: 0,
                is_store: true,
                latency: 4,
                source: MemLevel::L1,
                object: None,
                instance: 1,
            },
        ];
        f.pooled = PooledSamples::from_points(&[], &points, &[]);
        let csv = addresses_csv(&f, &trace);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains(",L,36,L3,gen.cpp:110"), "{}", lines[1]);
        assert!(lines[2].contains(",S,4,L1,-"), "{}", lines[2]);
    }

    #[test]
    fn objects_csv_lists_figure_labels() {
        use mempersp_extrae::{Tracer, TracerConfig};
        let mut tr = Tracer::new(TracerConfig::default(), 1);
        tr.register_static("ghost", 0x100, 256);
        let trace = tr.finish("obj csv");
        let csv = objects_csv(&trace);
        assert!(csv.contains("ghost,256,512,256,ghost|256 B"));
    }

    #[test]
    fn perf_csv_values_finite() {
        let f = empty_folded();
        let csv = performance_csv(&f, 5);
        for line in csv.lines().skip(1) {
            for field in line.split(',') {
                let v: f64 = field.parse().expect("numeric field");
                assert!(v.is_finite());
            }
        }
    }
}

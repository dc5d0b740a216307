//! ASCII renderings of the folded panels for terminal inspection —
//! a quick look at the figure without leaving the shell.

use mempersp_folding::FoldedRegion;
use mempersp_pebs::EventKind;
use std::fmt::Write as _;

/// Render the folded address panel as a `width × height` scatter:
/// `.` for loads, `#` for stores, `@` where both fall in a cell.
/// Rows are address bins (highest address on top, like the figure);
/// columns are folded-time bins.
///
/// The sampled address space is first split into contiguous **bands**
/// (clusters separated by gaps larger than 16× the band contents —
/// e.g. the heap arena vs the far-away mmap zone), each band gets rows
/// proportional to its extent, and bands are divided by `~` rulers;
/// without banding, a distant mmap allocation would squash everything
/// else into single rows.
pub fn address_panel(folded: &FoldedRegion, width: usize, height: usize) -> String {
    assert!(width >= 2 && height >= 2);
    let pts = folded.pooled.addr_points();
    if pts.clone().next().is_none() {
        return "(no address samples)\n".to_string();
    }

    // ---- band detection over the sampled addresses ----------------
    let mut addrs: Vec<u64> = pts.clone().map(|p| p.addr).collect();
    addrs.sort_unstable();
    addrs.dedup();
    let total_content: u64 = addrs.last().unwrap() - addrs[0];
    let gap_threshold = (total_content / 8).max(1 << 20);
    let mut bands: Vec<(u64, u64)> = Vec::new(); // inclusive (lo, hi)
    let mut lo = addrs[0];
    let mut prev = addrs[0];
    for &a in &addrs[1..] {
        if a - prev > gap_threshold {
            bands.push((lo, prev));
            lo = a;
        }
        prev = a;
    }
    bands.push((lo, prev));

    // ---- row allocation: proportional to band extent, ≥2 each ------
    let rulers = bands.len().saturating_sub(1);
    let usable = height.max(2 * bands.len() + rulers) - rulers;
    let extents: Vec<u64> = bands.iter().map(|&(l, h)| (h - l).max(1)).collect();
    let total_extent: u64 = extents.iter().sum();
    let mut rows: Vec<usize> = extents
        .iter()
        .map(|&e| ((e as f64 / total_extent as f64) * usable as f64).round() as usize)
        .map(|r| r.max(2))
        .collect();
    // Trim overshoot from the largest bands.
    while rows.iter().sum::<usize>() > usable {
        let i = rows
            .iter()
            .enumerate()
            .max_by_key(|(_, &r)| r)
            .map(|(i, _)| i)
            .expect("non-empty");
        if rows[i] <= 2 {
            break;
        }
        rows[i] -= 1;
    }

    // ---- draw, top band = highest addresses --------------------------
    let mut out = String::new();
    let _ = writeln!(
        out,
        "addresses (top=high); {} band(s); '.'=load '#'=store '@'=both",
        bands.len()
    );
    for (bi, &(b_lo, b_hi)) in bands.iter().enumerate().rev() {
        let h = rows[bi];
        let span = (b_hi - b_lo).max(1) as f64;
        let mut grid = vec![vec![b' '; width]; h];
        for p in pts.clone() {
            if p.addr < b_lo || p.addr > b_hi {
                continue;
            }
            let col = ((p.x * width as f64) as usize).min(width - 1);
            let row_from_bottom =
                (((p.addr - b_lo) as f64 / span) * (h - 1) as f64) as usize;
            let row = h - 1 - row_from_bottom.min(h - 1);
            let cell = &mut grid[row][col];
            let mark = if p.is_store { b'#' } else { b'.' };
            *cell = match (*cell, mark) {
                (b' ', m) => m,
                (b'.', b'#') | (b'#', b'.') => b'@',
                (c, _) => c,
            };
        }
        let _ = writeln!(out, "  0x{b_hi:x}");
        for row in grid {
            out.push('|');
            out.push_str(std::str::from_utf8(&row).expect("ascii"));
            out.push_str("|\n");
        }
        let _ = writeln!(out, "  0x{b_lo:x}");
        if bi > 0 {
            let _ = writeln!(out, "~{}~ (gap)", "~".repeat(width.saturating_sub(8)));
        }
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push_str("+\n");
    let _ = writeln!(out, " 0.0{}1.0 (folded time)", " ".repeat(width.saturating_sub(6)));
    out
}

/// Render the folded source-line panel (the figure's top panel): one
/// row per sampled `file:line`, ordered by file then line (top =
/// first), with `*` marks where samples fall in folded time.
pub fn lines_panel(folded: &FoldedRegion, width: usize, max_rows: usize) -> String {
    assert!(width >= 2);
    let pts = folded.pooled.line_points();
    if pts.len() == 0 {
        return "(no line samples)\n".to_string();
    }
    // Collect distinct lines with sample counts; file names stay
    // borrowed from the pooled string table (no per-sample clone).
    let mut by_line: std::collections::BTreeMap<(&str, u32), Vec<f64>> =
        std::collections::BTreeMap::new();
    for p in pts {
        let key = (p.file_name(&folded.pooled).unwrap_or("?"), p.line.unwrap_or(0));
        by_line.entry(key).or_default().push(p.x);
    }
    // Keep the busiest rows if there are too many.
    let mut keys: Vec<((&str, u32), usize)> =
        by_line.iter().map(|(k, v)| (*k, v.len())).collect();
    if keys.len() > max_rows {
        keys.sort_by_key(|k| std::cmp::Reverse(k.1));
        keys.truncate(max_rows);
        keys.sort_by(|a, b| a.0.cmp(&b.0));
    }
    let label_width = keys
        .iter()
        .map(|((f, l), _)| format!("{f}:{l}").len())
        .max()
        .unwrap_or(8)
        .min(36);
    let mut out = String::new();
    let _ = writeln!(out, "code lines (top panel); '*' = sample");
    for ((file, line), _) in &keys {
        let mut row = vec![b' '; width];
        for &x in &by_line[&(*file, *line)] {
            let col = ((x * width as f64) as usize).min(width - 1);
            row[col] = b'*';
        }
        let label = format!("{file}:{line}");
        let label = if label.len() > label_width { &label[label.len() - label_width..] } else { &label };
        let _ = writeln!(
            out,
            "{label:>label_width$} |{}|",
            std::str::from_utf8(&row).expect("ascii")
        );
    }
    let _ = writeln!(
        out,
        "{:>label_width$}  0.0{}1.0 (folded time)",
        "",
        " ".repeat(width.saturating_sub(6))
    );
    out
}

/// Render a counter's instantaneous rate (or MIPS) as a one-line
/// sparkline over folded time.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: &[char] = &['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|v| {
            let idx = (((v - lo) / span) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)]
        })
        .collect()
}

/// A compact textual summary of the folded performance panel: MIPS
/// sparkline plus per-instruction miss-rate sparklines, like the
/// figure's bottom panel.
pub fn performance_panel(folded: &FoldedRegion, width: usize) -> String {
    let series = folded.performance_series(width.max(2));
    let mips: Vec<f64> = series.iter().map(|p| p.mips).collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "MIPS     [{}] mean {:.0}",
        sparkline(&mips),
        folded.mean_mips()
    );
    for kind in [EventKind::Branches, EventKind::L1dMiss, EventKind::L2Miss, EventKind::L3Miss] {
        let vals: Vec<f64> = series.iter().map(|p| p.per_instruction[kind.index()]).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let _ = writeln!(out, "{:<8} [{}] mean {:.4}/inst", kind.label(), sparkline(&vals), mean);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_folding::{AddrPoint, FoldedCounter, MonotoneCurve, PooledSamples};
    use mempersp_memsim::MemLevel;

    fn folded_with_points(points: Vec<AddrPoint>) -> FoldedRegion {
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
                    avg_total: 10.0,
                    points: 0,
                })
                .collect(),
            pooled: PooledSamples::from_points(&[], &points, &[]),
        }
    }

    fn pt(x: f64, addr: u64, is_store: bool) -> AddrPoint {
        AddrPoint {
            x,
            addr,
            ip: 0,
            is_store,
            latency: 1,
            source: MemLevel::L1,
            object: None,
            instance: 0,
        }
    }

    #[test]
    fn address_panel_places_marks() {
        let f = folded_with_points(vec![pt(0.0, 0, false), pt(1.0, 1000, true)]);
        let s = address_panel(&f, 10, 5);
        assert!(s.contains('.'), "load mark present");
        assert!(s.contains('#'), "store mark present");
        // Load at (x=0, lowest addr) → bottom-left; store top-right.
        let rows: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(rows.len(), 5);
        // Store at (x=1, highest addr) → top row, last column (col 9 →
        // string index 10 behind the border).
        assert_eq!(&rows[0][10..11], "#");
        assert_eq!(&rows[4][1..2], ".", "load at (x=0, lowest addr) → bottom-left");
    }

    #[test]
    fn overlapping_load_store_is_at() {
        let f = folded_with_points(vec![pt(0.5, 500, false), pt(0.5, 500, true)]);
        let s = address_panel(&f, 8, 4);
        assert!(s.contains('@'));
    }

    #[test]
    fn empty_panel_is_graceful() {
        let f = folded_with_points(vec![]);
        assert!(address_panel(&f, 8, 4).contains("no address samples"));
    }

    #[test]
    fn sparkline_range() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn lines_panel_rows_and_marks() {
        use mempersp_folding::{FileId, LinePoint};
        let mut f = folded_with_points(vec![]);
        let (a, b) = (FileId(0), FileId(1));
        let lines = [
            LinePoint { x: 0.1, ip: 1, file: Some(a), line: Some(10) },
            LinePoint { x: 0.9, ip: 1, file: Some(a), line: Some(10) },
            LinePoint { x: 0.5, ip: 2, file: Some(b), line: Some(20) },
        ];
        f.pooled = PooledSamples::from_points(&["a.cpp", "b.cpp"], &[], &lines);
        let s = lines_panel(&f, 20, 10);
        assert!(s.contains("a.cpp:10"));
        assert!(s.contains("b.cpp:20"));
        let a_row = s.lines().find(|l| l.contains("a.cpp:10")).unwrap();
        assert_eq!(a_row.matches('*').count(), 2);
    }

    #[test]
    fn lines_panel_truncates_to_busiest() {
        use mempersp_folding::{FileId, LinePoint};
        let mut f = folded_with_points(vec![]);
        let mut lines = Vec::new();
        for i in 0..20u32 {
            // line 0 gets many samples, others one each.
            let reps = if i == 0 { 10 } else { 1 };
            for r in 0..reps {
                lines.push(LinePoint {
                    x: (r as f64) / 10.0,
                    ip: i as u64,
                    file: Some(FileId(0)),
                    line: Some(i),
                });
            }
        }
        f.pooled = PooledSamples::from_points(&["f.cpp"], &[], &lines);
        let s = lines_panel(&f, 20, 5);
        let rows = s.lines().filter(|l| l.contains("f.cpp:")).count();
        assert_eq!(rows, 5);
        assert!(s.contains("f.cpp:0"), "busiest line kept");
    }

    #[test]
    fn empty_lines_panel_graceful() {
        let f = folded_with_points(vec![]);
        assert!(lines_panel(&f, 10, 5).contains("no line samples"));
    }

    #[test]
    fn performance_panel_mentions_counters() {
        let f = folded_with_points(vec![]);
        let s = performance_panel(&f, 20);
        assert!(s.contains("MIPS"));
        assert!(s.contains("L3 miss"));
    }
}

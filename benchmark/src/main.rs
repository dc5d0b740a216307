//! The repo benchmark. See `README.md` for the catalogue.
//!
//! Two ways in:
//!
//! * `benchmark --workload W --seed N --seconds S --trace 0|1` runs
//!   one workload in this process and prints, as its last line, one
//!   JSON object (`correct`, `attempted`, `failed`, `metrics`): every
//!   end-to-end metric for `--trace 0`, every per-layer metric for
//!   `--trace 1`. This is the command `BENCHMARK.json` names.
//! * `benchmark run [--workload W] [--seed N] [--seconds S] [--trace]
//!   [--quick]` runs every workload (or one), each in a child process
//!   of its own so `peak_rss_bytes` is per workload, prints the table
//!   and writes `out/result.json`.

mod gen;
mod host;
mod layers;
mod library;
mod oracle;
mod report;
mod serve;
mod spans;
mod stats;
mod workloads;

use report::{Run, WORKLOADS};
use serde_json::{json, Value};
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Seconds one run measures when `--seconds` is not given; the value
/// `BENCHMARK.json` fixes for the driver.
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 42;

/// Everything a workload needs while it runs.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// The traced run: spans on, per-layer measurements after the window.
    pub trace: bool,
    /// Sizes ÷ 10. Not for claims.
    pub quick: bool,
    /// Scratch directory for stores, removed on exit.
    pub dir: &'a Path,
    pub spans: Spans,
    pub run: Run,
}

struct Args {
    run_all: bool,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    dir: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: benchmark [run] [--workload {}] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--dir D]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        run_all: false,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        dir: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "run" => args.run_all = true,
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // `--trace` alone means on; the driver passes 0 or 1.
                args.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--quick" => args.quick = true,
            "--dir" => args.dir = Some(PathBuf::from(value("--dir")?)),
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if !args.run_all && args.workload.is_none() {
        return Err(usage());
    }
    Ok(args)
}

/// `benchmark/out`, next to this package's manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn host_json() -> Value {
    json!({
        "nproc": host::nproc(),
        "cpu": host::cpu_model(),
        "simd": mempersp_store::simd_level_name(),
    })
}

/// Run one workload here and print its result line last.
fn run_one(args: &Args, workload: &str) -> ExitCode {
    let start = Instant::now();
    let out = out_dir();
    let parent = args.dir.clone().unwrap_or_else(|| out.clone());
    let tmp = match host::TempDir::create(&parent) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot create a scratch directory under {}: {e}", parent.display());
            return ExitCode::from(2);
        }
    };
    let seconds =
        args.seconds.unwrap_or(if args.quick { DEFAULT_SECONDS / 10.0 } else { DEFAULT_SECONDS });
    let mut ctx = Ctx {
        seed: args.seed,
        seconds,
        trace: args.trace,
        quick: args.quick,
        dir: tmp.path(),
        spans: Spans::new(start, false),
        run: Run::default(),
    };
    println!(
        "{workload}: seed {} window {seconds} s{}{} on {} × {} ({})",
        args.seed,
        if args.trace { ", traced" } else { "" },
        if args.quick { ", QUICK SIZES: NOT FOR CLAIMS" } else { "" },
        host::nproc(),
        host::cpu_model(),
        mempersp_store::simd_level_name(),
    );
    match workload {
        "hpcg_paper" => workloads::hpcg(&mut ctx, false),
        "hpcg_dense" => workloads::hpcg(&mut ctx, true),
        "store_bulk" => workloads::store_bulk(&mut ctx),
        "serve_mixed" => serve::run(&mut ctx),
        _ => unreachable!("validated by parse_args"),
    }
    let Ctx { spans, run, .. } = ctx;
    drop(tmp);

    if args.trace {
        let text =
            serde_json::to_string(&spans::to_json(workload, spans.spans())).expect("serialize");
        let path = out.join(format!("spans-{workload}.json"));
        if let Err(e) = std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, text)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("  self time by span (count, total s, self s):");
        for (name, (count, total, own)) in spans::by_name(spans.spans()) {
            println!(
                "    {name:<32} {count:>6} {:>10.4} {:>10.4}",
                total as f64 / 1e9,
                own as f64 / 1e9
            );
        }
    }
    print!("{}", run.table());
    println!("  operations attempted {} failed {}", run.attempted, run.failed);
    for f in &run.failures {
        println!("  FAILED: {f}");
    }
    match run.result_json(args.trace) {
        Ok(result) => {
            println!("{}", serde_json::to_string(&result).expect("serialize"));
            if run.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run the workloads one after another, each in a child process, and
/// gather their result lines.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut results = Vec::new();
    let mut worst = ExitCode::SUCCESS;
    for name in names {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.quick {
            cmd.arg("--quick");
        }
        if let Some(d) = &args.dir {
            cmd.arg("--dir").arg(d);
        }
        // The child's report passes through; its last line is the result.
        let output = match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("cannot start {name}: {e}");
                return ExitCode::from(2);
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        let last = text.trim_end().lines().last().unwrap_or("");
        print!("{}", &text[..text.trim_end().len() - last.len()]);
        match serde_json::from_str(last) {
            Ok(v) => results.push(json!({ "workload": name, "result": v })),
            Err(_) => {
                println!("{last}");
                eprintln!("{name} printed no result");
                worst = ExitCode::from(2);
            }
        }
        if !output.status.success() {
            worst = ExitCode::from(1);
        }
    }
    let doc = json!({
        "seed": args.seed,
        "traced": args.trace,
        "quick": args.quick,
        "host": host_json(),
        "workloads": Value::Array(results),
    });
    let out = out_dir();
    let path = out.join("result.json");
    let text = serde_json::to_string_pretty(&doc).expect("serialize");
    match std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if args.quick {
        println!("quick sizes: not for claims");
    }
    worst
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.run_all {
        run_all(&args)
    } else {
        run_one(&args, args.workload.as_deref().expect("checked by parse_args"))
    }
}

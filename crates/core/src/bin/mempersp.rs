//! `mempersp` — the command-line front end of the suite.
//!
//! ```text
//! mempersp run  --workload hpcg --nx 16 --iters 6 --cores 2 -o trace.prv
//! mempersp run  --workload stream|stencil|chase|matmul -o trace.prv
//! mempersp info trace.prv
//! mempersp objects trace.prv
//! mempersp fold trace.prv --region CG_iteration [--csv-dir target/fig1]
//! mempersp fold trace.mps --regions all --threads 4 [--stats]
//! mempersp fold trace.mps --regions CG_iteration,ComputeSYMGS_ref
//! mempersp convert trace.prv -o trace.mps   # and back: trace.mps -o out.prv
//! mempersp query trace.mps --time 0:100000 --kinds PEBS --stats
//! ```
//!
//! Mirrors the real tool-chain: Extrae writes a trace; the Folding
//! tool consumes it post-mortem. Every analysis subcommand accepts
//! either the text `.prv` trace or the chunked binary `.mps` store
//! (formats are sniffed, not guessed from the extension); on a store,
//! selective analyses decode only the chunks their predicates touch.
//!
//! Durability verbs: `mempersp fsck <trace>` verifies every checksum
//! of a store and prints a damage map; `mempersp recover <in> -o
//! <out>` salvages the readable chunks of a damaged (or torn `.tmp`)
//! store into a clean one.
//!
//! Exit codes: 0 success/clean, 1 usage or IO error, 2 corruption
//! detected.

use mempersp_core::analysis::latency::latency_profile;
use mempersp_core::analysis::objects::object_stats;
use mempersp_core::analysis::phases::iteration_phases;
use mempersp_core::analysis::profile::flat_profile;
use mempersp_core::analysis::reuse::sampled_reuse_histogram;
use mempersp_core::report::{ascii, figure};
use mempersp_core::{run_streaming_to_path, MachineConfig, StreamOptions};
use mempersp_extrae::query::{EventClass, Query};
use mempersp_extrae::trace_format::event_record;
use mempersp_extrae::trace_source::{ScanStats, TraceSource};
use mempersp_extrae::{TraceEvent, Workload};
use mempersp_folding::{fold_performance_source, fold_regions_source, RegionRequest};
use mempersp_hpcg::{HpcgConfig, HpcgWorkload};
use mempersp_memsim::MAX_CORES;
use mempersp_store::{open_trace_source, sniff_store, MpsSource, RecoveryMode, SHARD_DIR_SUFFIX};
use std::io;
use mempersp_workloads::{PointerChase, Stencil7, StreamTriad, TiledMatmul};
use std::process::exit;

/// Exit code for corruption detected in a trace store (usage and
/// plain IO errors exit 1, success 0).
const EXIT_CORRUPT: i32 = 2;

fn usage() -> ! {
    eprintln!(
        "usage:\n  mempersp run --workload <hpcg|stream|stencil|chase|matmul> \
         [--nx N] [--iters N] [--cores N] [--threads N|auto] [--no-group] [--haswell] \
         [--shard-events N] [--force] -o|--out <trace.prv|.mps|.mps.d>\n  \
         mempersp info <trace>\n  mempersp objects <trace>\n  \
         mempersp fold <trace> --region <name> [--csv-dir <dir>] [--stats]\n  \
         mempersp fold <trace> --regions <a,b,...|all> [--threads N|auto] [--csv-dir <dir>] [--stats]\n  \
         mempersp export <trace> [--dir <dir>] [--prefix <name>]\n  \
         mempersp profile <trace>\n  \
         mempersp convert <trace> -o <out.prv|out.mps|out.mps.d> [--shard-events N] [--force]\n  \
         mempersp query <trace> [--time lo:hi] [--cores 0,2] [--kinds ENTER,PEBS] \
         [--object N] [--print N] [--json] [--stats] [--no-verify]\n  \
         mempersp serve --root <repo-dir> [--addr host:port] [--max-inflight N] \
         [--timeout-ms N] [--workers N] [--memo-cap N]\n  \
         mempersp fsck <trace.mps|trace.mps.d|trace.mps.tmp>\n  \
         mempersp recover <damaged.mps|.mps.d|.mps.tmp> -o <out.mps> [--force]\n\
         \n  <trace> may be a text .prv trace or a binary .mps store.\n  \
         `run` streams events to the output as it simulates; the format \
         follows the suffix.\n  \
         exit codes: 0 success/clean, 1 usage or IO error, 2 corruption detected."
    );
    exit(1);
}

/// Report a failure and exit with the right code: corruption
/// (`InvalidData` — bad checksum, truncation, torn file) exits 2 so
/// scripts can tell "the store is damaged" from plain IO trouble (1).
fn die(context: &str, e: &std::io::Error) -> ! {
    eprintln!("{context}: {e}");
    exit(if e.kind() == std::io::ErrorKind::InvalidData { EXIT_CORRUPT } else { 1 });
}

/// `print!` for a command's output: a closed stdout (`| head`) is an
/// IO error reported through [`die`], not a panic.
macro_rules! out {
    ($($arg:tt)*) => {
        io::Write::write_fmt(&mut io::stdout(), format_args!($($arg)*))
            .unwrap_or_else(|e| die("writing output", &e))
    };
}

/// `println!` through [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => { out!("{}\n", format_args!($($arg)*)) };
}

/// The value given to `flag`, if the flag is given. A flag that is last,
/// or followed by another `--` flag, is a usage error: its value is
/// missing, and taking the next flag for it would swallow that flag.
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => {
            eprintln!("{flag} expects a value");
            exit(1);
        }
    }
}

/// `--threads`: a worker count, or `auto` to use every host CPU.
fn threads_arg(args: &[String]) -> usize {
    match arg_value(args, "--threads") {
        None => 1,
        Some(v) if v == "auto" => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Some(v) => v
            .parse::<usize>()
            .unwrap_or_else(|_| {
                eprintln!("--threads expects a count or `auto`, got {v:?}");
                exit(1);
            })
            .max(1),
    }
}

/// A count flag of `run`: `default` when absent; anything but a whole
/// number is a usage error.
fn count_arg(args: &[String], flag: &str, default: usize) -> usize {
    arg_value(args, flag).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{flag} expects a whole number, got {v:?}");
            exit(1);
        })
    })
}

/// `--shard-events`: roll a `.mps.d` shard every this many events
/// (at least one).
fn shard_events_arg(args: &[String]) -> Option<u64> {
    arg_value(args, "--shard-events").map(|v| match v.parse() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("--shard-events expects an event count of at least 1, got {v:?}");
            exit(1);
        }
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("objects") => cmd_objects(&args[1..]),
        Some("fold") => cmd_fold(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("fsck") => cmd_fsck(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        _ => usage(),
    }
}

/// Verify every checksum of a store (single file, shard directory or
/// a torn `.tmp`), print the damage map, and exit 2 if anything is
/// wrong.
fn cmd_fsck(args: &[String]) {
    let path = trace_path(args);
    let report = mempersp_store::fsck_store(std::path::Path::new(path))
        .unwrap_or_else(|e| die(&format!("fsck {path}"), &e));
    outln!(
        "{}: format v{}, {} shard{}, {} chunks, {} events",
        path,
        report.format_version,
        report.shards,
        if report.shards == 1 { "" } else { "s" },
        report.chunks,
        report.events
    );
    if !report.header_intact {
        outln!("header: LOST (salvage will synthesize one)");
    }
    if report.is_clean() {
        outln!("clean: every frame, payload, header and index checksum verified");
        return;
    }
    outln!("damage ({} finding{}):", report.damage.len(), if report.damage.len() == 1 { "" } else { "s" });
    for d in &report.damage {
        outln!("  {d}");
    }
    exit(EXIT_CORRUPT);
}

/// Salvage the readable chunks of a damaged store into a fresh,
/// fully-checksummed store.
fn cmd_recover(args: &[String]) {
    let input = trace_path(args).clone();
    let out = arg_value(args, "-o").or_else(|| arg_value(args, "--out")).unwrap_or_else(|| usage());
    let force = args.iter().any(|a| a == "--force");
    let out_path = std::path::Path::new(&out);
    if let Err(e) = mempersp_store::check_clobber(out_path, force) {
        eprintln!("recover: {e}");
        exit(1);
    }
    let report = mempersp_store::recover_store(std::path::Path::new(&input), out_path)
        .unwrap_or_else(|e| die(&format!("recover {input}"), &e));
    eprintln!(
        "recovered {} events from {} chunks into {out}{}",
        report.events,
        report.chunks,
        if report.header_intact { "" } else { " (header lost; synthesized a minimal one)" }
    );
    if !report.damage.is_empty() {
        let n = report.damage.len();
        eprintln!("input damage ({n} finding{}):", if n == 1 { "" } else { "s" });
        for d in &report.damage {
            eprintln!("  {d}");
        }
    }
}

/// Flat sampling profile.
fn cmd_profile(args: &[String]) {
    let ((rows, total), _) = scanned(args, flat_profile(load_source(args).as_mut()));
    outln!("{total} timer samples");
    outln!("{:<28} {:>8} {:>7} {:>9}", "region", "self", "self%", "inclusive");
    for r in rows {
        outln!(
            "{:<28} {:>8} {:>6.1}% {:>9}",
            r.region,
            r.self_samples,
            100.0 * r.self_fraction(total),
            r.inclusive_samples
        );
    }
}

/// Export a trace to the Paraver `.prv/.pcf/.row` triple — the one
/// command that materializes: its output is the whole trace, and the
/// Paraver header states the last timestamp before the first record.
fn cmd_export(args: &[String]) {
    let dir = arg_value(args, "--dir").unwrap_or_else(|| "paraver".into());
    let prefix = arg_value(args, "--prefix").unwrap_or_else(|| "trace".into());
    let t = scanned(args, load_source(args).materialize());
    let files = mempersp_extrae::paraver::export_paraver(std::path::Path::new(&dir), &prefix, &t)
        .unwrap_or_else(|e| {
            eprintln!("export failed: {e}");
            exit(1);
        });
    for f in files {
        outln!("{}", f.display());
    }
}

/// Simulate a workload while streaming its trace straight into the
/// output format — text `.prv`, single-file `.mps` store or sharded
/// `.mps.d` directory, chosen by suffix. Events flow to the writer at
/// every epoch boundary, so the tracer holds an epoch's events plus
/// those above the slowest core's clock instead of the whole trace;
/// the bytes match a materialized run piped through `convert` exactly.
fn cmd_run(args: &[String]) {
    let workload_name = arg_value(args, "--workload").unwrap_or_else(|| usage());
    let out = arg_value(args, "-o")
        .or_else(|| arg_value(args, "--out"))
        .unwrap_or_else(|| "trace.prv".into());
    let nx = count_arg(args, "--nx", 8);
    let iters = count_arg(args, "--iters", 3);
    let cores = count_arg(args, "--cores", 1);
    if !(1..=MAX_CORES).contains(&cores) {
        eprintln!("--cores must be from 1 to {MAX_CORES}, got {cores}");
        exit(1);
    }
    let threads = threads_arg(args);
    let group = !args.iter().any(|a| a == "--no-group");
    let opts = StreamOptions {
        force: args.iter().any(|a| a == "--force"),
        shard_events: shard_events_arg(args),
    };

    let mut mcfg = if args.iter().any(|a| a == "--haswell") {
        MachineConfig::haswell(cores)
    } else {
        let mut m = MachineConfig::small();
        m.cores = cores;
        m
    };
    mcfg.threads = threads;
    mcfg.counter_sample_period = mcfg.counter_sample_period.min(20_000);

    let mut workload: Box<dyn Workload> = match workload_name.as_str() {
        // Two multigrid coarsenings halve the grid twice, down to 2³.
        "hpcg" if nx < 8 || !nx.is_multiple_of(4) => {
            eprintln!("--workload hpcg needs --nx to be a multiple of 4 and at least 8, got {nx}");
            exit(1);
        }
        "hpcg" => Box::new(HpcgWorkload::new(HpcgConfig {
            nx,
            max_iters: iters,
            mg_levels: if nx.is_multiple_of(8) && nx >= 16 { 4 } else { 3 },
            group_allocations: group,
            use_mg: true,
        })),
        "stream" => Box::new(StreamTriad::new(nx.max(1024) * 64, iters.max(2))),
        "stencil" => Box::new(Stencil7::new(nx.max(8), iters.max(2))),
        "chase" => Box::new(PointerChase::new(nx.max(1024) * 16, nx.max(1024) * 32, 42)),
        "matmul" => Box::new(TiledMatmul::new(nx.max(32), 8)),
        other => {
            eprintln!("unknown workload {other:?}");
            usage();
        }
    };

    eprintln!("running {} (streaming to {out}) ...", workload.name());
    let wall = std::time::Instant::now();
    let report =
        run_streaming_to_path(mcfg, workload.as_mut(), std::path::Path::new(&out), &opts)
            .unwrap_or_else(|e| {
                eprintln!("cannot stream to {out}: {e}");
                exit(1);
            });
    let elapsed = wall.elapsed().as_secs_f64();
    let accesses = report.stats.total_cores().accesses();
    eprintln!(
        "done: {} events streamed (at most {} buffered), {} cycles",
        report.events_streamed, report.max_buffered_events, report.wall_cycles
    );
    eprintln!(
        "simulated {accesses} accesses in {elapsed:.2}s ({:.2} M accesses/s, {threads} thread{})",
        accesses as f64 / elapsed / 1e6,
        if threads == 1 { "" } else { "s" }
    );
    eprintln!("trace written to {out}");
}

/// The first positional argument: the trace path. Flags that take a
/// value consume the following argument, so `--time 0:1000 t.mps`
/// resolves to `t.mps`, not `0:1000`.
fn trace_path(args: &[String]) -> &String {
    const BOOL_FLAGS: &[&str] =
        &["--stats", "--no-group", "--haswell", "--force", "--no-verify", "--json"];
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "-o" || (a.starts_with("--") && !BOOL_FLAGS.contains(&a.as_str())) {
            i += 2;
        } else if a.starts_with('-') {
            i += 1;
        } else {
            return a;
        }
    }
    usage()
}

/// Open the trace as a [`TraceSource`], sniffing `.prv` vs `.mps`.
fn load_source(args: &[String]) -> Box<dyn TraceSource> {
    let path = trace_path(args);
    open_trace_source(std::path::Path::new(path))
        .unwrap_or_else(|e| die(&format!("cannot open {path}"), &e))
}

/// The value of a header read or scan of the trace named on the
/// command line; a failure is reported through [`die`].
fn scanned<T>(args: &[String], result: io::Result<T>) -> T {
    result.unwrap_or_else(|e| die(&format!("cannot scan {}", trace_path(args)), &e))
}

fn print_scan_stats(stats: &ScanStats) {
    eprintln!("scan: {stats}");
}

/// Convert between the text `.prv` trace and the binary `.mps` store.
/// The direction follows the *output* extension; the input format is
/// sniffed, so `.mps → .mps` (re-chunking) and `.prv → .prv`
/// (normalization) also work. `--shard-events N` (or a `.mps.d`
/// output) writes a sharded store that rolls a new file every N
/// events.
fn cmd_convert(args: &[String]) {
    // Unknown flags are ignored, so a leftover `--format v3` would
    // silently produce a v4 file.
    if args.iter().any(|a| a == "--format") {
        eprintln!("convert: `--format` was removed: v4 is the only store format");
        exit(1);
    }
    let out = arg_value(args, "-o").unwrap_or_else(|| usage());
    let out_path = std::path::Path::new(&out);
    let force = args.iter().any(|a| a == "--force");
    if let Err(e) = mempersp_store::check_clobber(out_path, force) {
        eprintln!("convert: {e}");
        exit(1);
    }
    let mut src = load_source(args);
    let header = scanned(args, src.header());
    let opts = StreamOptions { force, shard_events: shard_events_arg(args) };
    // The sinks `run --out` streams into: `finish` merges a text
    // trace's header in, or seals a store, and publishes the file.
    let converted = mempersp_core::sink_for_path(out_path, &opts).and_then(|mut sink| {
        copy_events(src.as_mut(), |e| sink.append_event(e))?;
        sink.finish(&header)
    });
    if let Err(e) = converted {
        die(&format!("cannot convert {} to {out}", trace_path(args)), &e);
    }
    let to_store =
        opts.shard_events.is_some() || out.ends_with(SHARD_DIR_SUFFIX) || out.ends_with(".mps");
    if to_store {
        // The summary line, read back off the index just sealed.
        let store = MpsSource::open(out_path).unwrap_or_else(|e| die(&format!("cannot open {out}"), &e));
        let chunks: Vec<_> = store.shards().flat_map(|(_, r)| r.chunks()).collect();
        eprintln!(
            "wrote {} events in {} chunks ({} raw -> {} stored bytes)",
            store.num_events(),
            chunks.len(),
            chunks.iter().map(|m| m.raw_len as u64).sum::<u64>(),
            chunks.iter().map(|m| m.stored_len as u64).sum::<u64>()
        );
    }
    eprintln!("converted {} -> {out}", trace_path(args));
}

/// Hand every event of `src` to `append`, one decoded batch at a time.
fn copy_events(
    src: &mut dyn TraceSource,
    mut append: impl FnMut(&TraceEvent) -> io::Result<()>,
) -> io::Result<()> {
    let mut events = Vec::new();
    let mut appended = Ok(());
    src.scan_batches(&Query::all(), &mut |batch| {
        if appended.is_ok() {
            events.clear();
            batch.materialize_into(&mut events);
            appended = events.iter().try_for_each(&mut append);
        }
    })?;
    appended
}

fn parse_query(args: &[String]) -> Query {
    let mut q = Query::all();
    if let Some(t) = arg_value(args, "--time") {
        let (lo, hi) = t
            .split_once(':')
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .unwrap_or_else(|| {
                eprintln!("--time expects <lo>:<hi> cycles, got {t:?}");
                exit(1);
            });
        if lo > hi {
            eprintln!("--time window is inverted: [{lo}, {hi}]");
            exit(1);
        }
        q = q.in_time(lo, hi);
    }
    if let Some(c) = arg_value(args, "--cores") {
        let cores: Vec<usize> = c
            .split(',')
            .map(|s| {
                s.trim().parse().unwrap_or_else(|_| {
                    eprintln!("--cores expects a comma-separated list, got {c:?}");
                    exit(1);
                })
            })
            .collect();
        q = q.on_cores(&cores);
    }
    if let Some(k) = arg_value(args, "--kinds") {
        let kinds: Vec<EventClass> = k
            .split(',')
            .map(|s| {
                EventClass::parse(s.trim()).unwrap_or_else(|| {
                    eprintln!("unknown event kind {s:?} (expected e.g. ENTER, PEBS, ALLOC)");
                    exit(1);
                })
            })
            .collect();
        q = q.with_kinds(&kinds);
    }
    if let Some(o) = arg_value(args, "--object") {
        let id: u32 = o.parse().unwrap_or_else(|_| {
            eprintln!("--object expects a numeric object id, got {o:?}");
            exit(1);
        });
        q = q.touching_object(mempersp_extrae::ObjectId(id));
    }
    q
}

/// Run a predicate query against either trace format. On a store the
/// footer index prunes chunks before any decode; `--json` streams the
/// rows as the scan hands their batches over.
fn cmd_query(args: &[String]) {
    let path = trace_path(args).clone();
    let q = parse_query(args);
    let print = count_arg(args, "--print", 0);

    let p = std::path::Path::new(&path);
    let verify = !args.iter().any(|a| a == "--no-verify");
    // A store-shaped path that fails to open is corruption, not "try
    // the text parser"; anything else (an unreadable path included,
    // which `load_source` reports) scans the parsed text trace through
    // the same predicate path.
    let store = sniff_store(p).unwrap_or(false).then(|| {
        MpsSource::open_with_options(p, RecoveryMode::Strict, verify).unwrap_or_else(|e| {
            // The wording each container has always had.
            let what = if p.is_dir() { "cannot open" } else { "query failed on" };
            die(&format!("{what} {path}"), &e)
        })
    });

    let mut src: Box<dyn TraceSource> = match store {
        Some(src) => Box::new(src),
        None => load_source(args),
    };
    if args.iter().any(|a| a == "--json") {
        // One JSON object per line, the exact record schema the
        // service's `/v1/query` puts in its `events` array — so
        // `mempersp query --json` and a curl of the server diff clean.
        // Rows are written as the scan hands their batches over; no
        // event list is built.
        use std::io::Write;
        let stdout = std::io::stdout();
        let mut out = std::io::BufWriter::new(stdout.lock());
        let mut line = String::new();
        let stats = src
            .scan_batches(&q, &mut |batch| {
                for row in batch.rows() {
                    line.clear();
                    mempersp_extrae::json::write_row(&mut line, &row);
                    line.push('\n');
                    out.write_all(line.as_bytes()).unwrap_or_else(|e| die("writing output", &e));
                }
            })
            .unwrap_or_else(|e| die(&format!("query failed on {path}"), &e));
        out.flush().unwrap_or_else(|e| die("writing output", &e));
        if args.iter().any(|a| a == "--stats") {
            print_scan_stats(&stats);
        }
        return;
    }

    // Count every match by class off the tag column; only the first
    // `--print` rows become events.
    let mut by_kind = [0u64; EventClass::ALL.len()];
    let mut shown = Vec::new();
    let stats = src
        .scan_batches(&q, &mut |batch| {
            for class in batch.classes() {
                by_kind[class as usize] += 1;
            }
            batch.head(print - shown.len()).materialize_into(&mut shown);
        })
        .unwrap_or_else(|e| die(&format!("query failed on {path}"), &e));
    outln!("{} matching events", by_kind.iter().sum::<u64>());
    for kind in EventClass::ALL {
        let n = by_kind[kind as usize];
        if n > 0 {
            outln!("  {:<6} {n}", kind.label());
        }
    }
    for e in &shown {
        outln!("{}", event_record(e));
    }
    if args.iter().any(|a| a == "--stats") {
        print_scan_stats(&stats);
    }
}

/// Run the resident trace-analysis service over a repository
/// directory of `.mps`/`.mps.d` stores. Blocks until SIGTERM/SIGINT
/// or `POST /admin/shutdown`, then drains in-flight requests.
fn cmd_serve(args: &[String]) {
    let mut cfg = mempersp_server::ServerConfig {
        root: arg_value(args, "--root").map(std::path::PathBuf::from).unwrap_or_else(|| usage()),
        ..Default::default()
    };
    if let Some(addr) = arg_value(args, "--addr") {
        cfg.addr = addr;
    }
    let numeric = |flag: &str| -> Option<u64> {
        arg_value(args, flag).map(|v| {
            v.parse::<u64>().unwrap_or_else(|_| {
                eprintln!("{flag} expects a non-negative integer, got {v:?}");
                exit(1);
            })
        })
    };
    if let Some(n) = numeric("--max-inflight") {
        cfg.max_inflight = (n as usize).max(1);
    }
    if let Some(n) = numeric("--timeout-ms") {
        cfg.timeout_ms = n;
    }
    if let Some(n) = numeric("--workers") {
        cfg.workers = n as usize;
    }
    if let Some(n) = numeric("--memo-cap") {
        cfg.memo_cap = (n as usize).max(1);
    }
    mempersp_server::serve_blocking(&cfg).unwrap_or_else(|e| die("serve", &e));
}

/// The header, the event count off the container's index, and the one
/// pushed-down PEBS scan the `reuse` line needs.
fn cmd_info(args: &[String]) {
    let mut src = load_source(args);
    let t = scanned(args, src.header());
    outln!("description : {}", t.meta.description);
    outln!("cores       : {}", t.meta.num_cores);
    outln!("freq        : {} MHz", t.meta.freq_mhz);
    outln!("ASLR slide  : 0x{:x}", t.meta.aslr_slide);
    outln!("events      : {}", scanned(args, src.num_events()));
    outln!("regions     : {}", t.region_names.join(", "));
    outln!("objects     : {}", t.objects.all().len());
    outln!(
        "resolution  : {} resolved / {} unresolved PEBS samples",
        t.resolution.resolved, t.resolution.unresolved
    );
    let (reuse, _) = scanned(args, sampled_reuse_histogram(src.as_mut(), 0));
    if let Some(d) = reuse.typical_distance() {
        outln!("reuse       : typical sampled reuse distance ≈ {d} lines ({} reuses)", reuse.reuses);
    }
}

fn cmd_objects(args: &[String]) {
    let mut src = load_source(args);
    let (stats, scan) = scanned(args, object_stats(src.as_mut(), None));
    outln!(
        "{:<44} {:>8} {:>8} {:>9} {:>8}",
        "object", "loads", "stores", "mean lat", "flags"
    );
    for o in &stats {
        outln!(
            "{:<44} {:>8} {:>8} {:>9.1} {:>8}",
            o.name,
            o.loads,
            o.stores,
            o.mean_latency,
            if o.is_read_only() { "RO" } else { "" }
        );
    }
    // The second PEBS scan is served from the store's block cache
    // after the one above (free on a parsed .prv).
    if let (Some(p), _) = scanned(args, latency_profile(src.as_mut(), None, false)) {
        outln!(
            "\nload latency: min {} p50 {} p90 {} p99 {} max {} (mean {:.1})",
            p.min, p.p50, p.p90, p.p99, p.max, p.mean
        );
    }
    if args.iter().any(|a| a == "--stats") {
        print_scan_stats(&scan);
    }
}

/// Fold one region (`--region R`) or many regions from **one** trace
/// pass (`--regions a,b,c` or `--regions all`), with the per-region
/// fold work spread over `--threads N` deterministic workers. The
/// one-region spelling also shows the address panel and fails when its
/// region does not fold.
fn cmd_fold(args: &[String]) {
    let mut src = load_source(args);
    let src = src.as_mut();
    let header = scanned(args, src.header());
    let regions = arg_value(args, "--regions");
    let single = regions.is_none();
    let names: Vec<String> = match regions.as_deref() {
        Some("all") => header.region_names.clone(),
        Some(spec) => {
            spec.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect()
        }
        None => vec![arg_value(args, "--region").unwrap_or_else(|| usage())],
    };
    if names.is_empty() {
        eprintln!("--regions selected no regions");
        exit(1);
    }
    let requests: Vec<RegionRequest> = names.iter().map(RegionRequest::new).collect();
    let csv_dir = arg_value(args, "--csv-dir");
    // `--region` prints the address panel and the bundle writes the
    // line and address panels; otherwise only the performance panel
    // is printed, so only it is folded.
    let fold = if single || csv_dir.is_some() { fold_regions_source } else { fold_performance_source };
    let (results, scan) = scanned(args, fold(src, &requests, threads_arg(args)));

    for (region, result) in names.iter().zip(&results) {
        match result {
            Ok(folded) => {
                outln!(
                    "folded {} instances of {region:?} (rejected {}), mean {:.3} ms, mean {:.0} MIPS",
                    folded.instances_used,
                    folded.instances_rejected,
                    folded.duration_ms(),
                    folded.mean_mips()
                );
                if single {
                    out!("{}", ascii::address_panel(folded, 96, 20));
                }
                out!("{}", ascii::performance_panel(folded, 80));
                if let Some(dir) = &csv_dir {
                    // Beyond the fold, the bundle reads the header and one
                    // scan of core 0's region boundaries (the phase labels).
                    let prefix =
                        if single { "fold".into() } else { format!("fold_{}", csv_prefix(region)) };
                    let (phases, _) = scanned(
                        args,
                        iteration_phases(src, region, "ComputeSYMGS_ref", "ComputeSPMV_ref", 0),
                    );
                    let files = figure::write_figure_bundle(
                        std::path::Path::new(dir),
                        &prefix,
                        &format!("{} — folded {}", header.meta.description, region),
                        folded,
                        &header,
                        &phases,
                    )
                    .unwrap_or_else(|e| {
                        eprintln!("cannot write figure bundle to {dir}: {e}");
                        exit(1);
                    });
                    let what = if single { String::new() } else { format!(" for {region:?}") };
                    eprintln!("wrote {} files to {dir}{what}", files.len());
                }
            }
            Err(e) if single => {
                eprintln!("fold failed: {e}");
                exit(1);
            }
            Err(e) => outln!("{region:?}: not folded ({e})"),
        }
    }
    if args.iter().any(|a| a == "--stats") {
        print_scan_stats(&scan);
    }
    if results.iter().all(Result::is_err) {
        eprintln!("fold failed: none of the requested regions folded");
        exit(1);
    }
}

/// A region name reduced to a filesystem-safe CSV prefix.
fn csv_prefix(region: &str) -> String {
    region
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == '-' { c } else { '_' })
        .collect()
}

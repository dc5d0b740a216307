//! Black-box tests of the `mempersp` command-line binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mempersp"))
}

/// A directory of the calling test's own: tests run on parallel
/// threads and each removes its directory when done.
fn tmpdir(test: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mempersp_cli_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn run_info_objects_fold_pipeline() {
    let dir = tmpdir("run_info_objects_fold_pipeline");
    let trace = dir.join("hpcg.prv");

    // run
    let out = bin()
        .args([
            "run", "--workload", "hpcg", "--nx", "8", "--iters", "2", "--cores", "1", "-o",
        ])
        .arg(&trace)
        .output()
        .expect("spawn mempersp run");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(trace.exists());

    // info
    let out = bin().arg("info").arg(&trace).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("HPCG"), "info mentions the workload: {text}");
    assert!(text.contains("CG_iteration"), "regions listed");

    // objects
    let out = bin().arg("objects").arg(&trace).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("124_GenerateProblem_ref.cpp"), "{text}");
    assert!(text.contains("RO"), "matrix flagged read-only: {text}");

    // fold, with the CSV bundle
    let csv_dir = dir.join("csv");
    let out = bin()
        .args(["fold"])
        .arg(&trace)
        .args(["--region", "CG_iteration", "--csv-dir"])
        .arg(&csv_dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("folded 2 instances"), "{text}");
    assert!(text.contains("MIPS"), "{text}");
    for f in ["fold_lines.csv", "fold_addresses.csv", "fold_perf.csv", "fold.gp"] {
        assert!(csv_dir.join(f).exists(), "{f} missing");
    }

    // flat profile
    let out = bin().arg("profile").arg(&trace).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ComputeSYMGS_ref"), "{text}");
    assert!(text.contains("self%"), "{text}");

    // export to Paraver
    let pdir = dir.join("paraver");
    let out = bin()
        .args(["export"])
        .arg(&trace)
        .args(["--dir"])
        .arg(&pdir)
        .args(["--prefix", "hpcg"])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    for ext in ["prv", "pcf", "row"] {
        let f = pdir.join(format!("hpcg.{ext}"));
        assert!(f.exists(), "{} missing", f.display());
    }
    let pcf = std::fs::read_to_string(pdir.join("hpcg.pcf")).unwrap();
    assert!(pcf.contains("124_GenerateProblem_ref.cpp"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fold_unknown_region_fails_cleanly() {
    let dir = tmpdir("fold_unknown_region_fails_cleanly");
    let trace = dir.join("stream.prv");
    let out = bin()
        .args(["run", "--workload", "stream", "-o"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = bin()
        .args(["fold"])
        .arg(&trace)
        .args(["--region", "nonexistent"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("fold failed"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn convert_round_trip_is_byte_identical_and_queries_work() {
    let dir = tmpdir("convert_round_trip_is_byte_identical_and_queries_work");
    let prv = dir.join("rt.prv");
    let mps = dir.join("rt.mps");
    let back = dir.join("rt_back.prv");

    let out = bin()
        .args(["run", "--workload", "stream", "--nx", "32", "-o"])
        .arg(&prv)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // prv -> mps -> prv reproduces the text trace exactly.
    let out = bin().args(["convert"]).arg(&prv).arg("-o").arg(&mps).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let out = bin().args(["convert"]).arg(&mps).arg("-o").arg(&back).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::read(&prv).unwrap(),
        std::fs::read(&back).unwrap(),
        "prv -> mps -> prv must be byte-identical"
    );

    // The same query answers identically on both containers.
    let q = ["query", "--kinds", "PEBS,ALLOC", "--stats"];
    let on_prv = bin().args(q).arg(&prv).output().unwrap();
    let on_mps = bin().args(q).arg(&mps).output().unwrap();
    assert!(on_prv.status.success() && on_mps.status.success());
    assert_eq!(on_prv.stdout, on_mps.stdout, "query results must not depend on the container");
    let text = String::from_utf8_lossy(&on_mps.stdout);
    assert!(text.contains("matching events"), "{text}");
    assert!(text.contains("PEBS"), "{text}");

    // `--json` prints one record per match, the same bytes from either
    // container (and at any `--threads`) as the `Value`-tree reference.
    use mempersp_extrae::{json::event_to_json, EventClass, Query};
    let wanted = Query::all().with_kinds(&[EventClass::Pebs, EventClass::Alloc]);
    let trace = mempersp_store::open_trace_source(&prv).unwrap().materialize().unwrap();
    let reference: String = trace
        .events
        .iter()
        .filter(|e| wanted.matches(e))
        .map(|e| serde_json::to_string(&event_to_json(e)).unwrap() + "\n")
        .collect();
    assert!(text.contains(&format!("{} matching events", reference.lines().count())), "{text}");
    for (container, threads) in [(&prv, "1"), (&mps, "1"), (&mps, "2")] {
        let out = bin()
            .args(["query", "--kinds", "PEBS,ALLOC", "--json", "--threads", threads])
            .arg(container)
            .output()
            .unwrap();
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(String::from_utf8_lossy(&out.stdout), reference, "{container:?} --threads {threads}");
    }

    // Analyses accept the store directly.
    let out = bin().arg("info").arg(&mps).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("STREAM"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn removed_format_flag_and_old_stores_fail_loudly() {
    let dir = tmpdir("removed_format_flag_and_old_stores_fail_loudly");
    let prv = dir.join("f.prv");
    let mps = dir.join("f.mps");

    let out = bin()
        .args(["run", "--workload", "stream", "--nx", "32", "-o"])
        .arg(&prv)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Unknown flags are ignored, so without an explicit check a
    // leftover `--format v3` would quietly write a v4 file.
    for value in ["v3", "v4"] {
        let out =
            bin().args(["convert"]).arg(&prv).args(["--format", value, "-o"]).arg(&mps).output().unwrap();
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("`--format` was removed: v4 is the only store format"), "{stderr}");
        assert!(!mps.exists(), "a refused convert must write nothing");
    }

    // A store of an earlier format is named as such by every command
    // that opens a trace, not handed to the text parser.
    std::fs::write(&mps, b"MPSTORE3 and then anything at all").unwrap();
    let out = bin().arg("info").arg(&mps).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("store format v3 is no longer supported (this build reads v4)"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `query` sniffs eight bytes to pick the store or the text reader;
/// what it then cannot open is reported in the words and with the exit
/// code each case has always had (2 = corruption, 1 = IO).
#[test]
fn query_names_what_it_cannot_open() {
    let dir = tmpdir("query_names_what_it_cannot_open");
    let good = dir.join("good.mps");
    let out =
        bin().args(["run", "--workload", "stream", "--nx", "32", "-o"]).arg(&good).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let store = std::fs::read(&good).unwrap();

    // A v4 store whose footer index took a bit flip.
    let footer = dir.join("footer.mps");
    let mut bytes = store.clone();
    let at = bytes.len() - 40;
    bytes[at] ^= 0x01;
    std::fs::write(&footer, &bytes).unwrap();
    // A store of an earlier format.
    let v3 = dir.join("v3.mps");
    bytes = store;
    bytes[7] = b'3';
    std::fs::write(&v3, &bytes).unwrap();
    // A directory that is not a shard directory.
    let bare_dir = dir.join("bare.mps.d");
    std::fs::create_dir_all(&bare_dir).unwrap();
    // Too short to carry a magic: falls to the text parser.
    let short = dir.join("short.mps");
    std::fs::write(&short, b"MPSTO").unwrap();
    let missing = dir.join("missing.mps");

    let show = |p: &std::path::Path| p.display().to_string();
    let cases = [
        (&footer, 2, format!("query failed on {0}: {0}: footer index checksum", show(&footer))),
        (&v3, 2, format!("query failed on {0}: {0}: store format v3 is no longer", show(&v3))),
        (&bare_dir, 1, format!("cannot open {}: Is a directory (os error 21)\n", show(&bare_dir))),
        (&short, 2, format!("cannot open {}: trace parse error at line 1: bad header", show(&short))),
        (&missing, 1, format!("cannot open {0}: opening trace {0}: No such file or", show(&missing))),
    ];
    for (path, code, message) in cases {
        for json in [false, true] {
            let mut cmd = bin();
            cmd.arg("query").arg(path);
            if json {
                cmd.arg("--json");
            }
            let out = cmd.output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(code), "{}: {stderr}", path.display());
            assert!(stderr.starts_with(&message), "{}: {stderr}", path.display());
            assert!(out.stdout.is_empty(), "{}", path.display());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_time_window_prunes_chunks_on_a_store() {
    let dir = tmpdir("query_time_window_prunes_chunks_on_a_store");
    let prv = dir.join("w.prv");
    let mps = dir.join("w.mps");
    let out = bin()
        .args(["run", "--workload", "stream", "--nx", "64", "-o"])
        .arg(&prv)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin().args(["convert"]).arg(&prv).arg("-o").arg(&mps).output().unwrap();
    assert!(out.status.success());

    let out = bin()
        .args(["query", "--time", "0:1000", "--stats", "--threads", "2"])
        .arg(&mps)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("skipped"), "stats line present: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_1() {
    // Exit 1 is usage/IO; exit 2 is reserved for store corruption.
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = bin().args(["run", "--workload", "bogus", "-o", "x"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn info_on_missing_file_fails() {
    let out = bin().args(["info", "/nonexistent/file.prv"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
}

/// Every file under `dir`, by name.
fn dir_bytes(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| (e.file_name(), std::fs::read(e.path()).unwrap()))
        .collect();
    files.sort();
    files
}

fn ok(out: std::process::Output) -> std::process::Output {
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    out
}

/// One run as `.prv`, `.mps` and a many-shard `.mps.d`.
fn three_containers(dir: &std::path::Path) -> [std::path::PathBuf; 3] {
    let [prv, mps, mpsd] = ["t.prv", "t.mps", "t.mps.d"].map(|n| dir.join(n));
    ok(bin()
        .args(["run", "--workload", "hpcg", "--nx", "8", "--iters", "2", "--cores", "2", "-o"])
        .arg(&prv)
        .output()
        .unwrap());
    ok(bin().arg("convert").arg(&prv).arg("-o").arg(&mps).output().unwrap());
    ok(bin().arg("convert").arg(&prv).arg("-o").arg(&mpsd).args(["--shard-events", "2000"]).output().unwrap());
    [prv, mps, mpsd]
}

/// The commands that read a trace print the same bytes whichever
/// container holds it — stdout and, for `fold --csv-dir`, the bundle.
#[test]
fn every_command_answers_the_same_from_every_container() {
    let dir = tmpdir("every_command_answers_the_same_from_every_container");
    let containers = three_containers(&dir);
    assert!(std::fs::read_dir(&containers[2]).unwrap().count() > 3, "several shards");

    for command in ["info", "profile", "objects"] {
        let [on_prv, on_mps, on_mpsd] =
            containers.each_ref().map(|c| ok(bin().arg(command).arg(c).output().unwrap()).stdout);
        assert!(!on_prv.is_empty(), "{command}");
        assert_eq!(String::from_utf8_lossy(&on_mps), String::from_utf8_lossy(&on_prv), "{command}");
        assert_eq!(String::from_utf8_lossy(&on_mpsd), String::from_utf8_lossy(&on_prv), "{command}");
    }

    let folds: [&[&str]; 2] =
        [&["--region", "CG_iteration"], &["--regions", "all", "--threads", "2"]];
    for (i, fold) in folds.into_iter().enumerate() {
        let [on_prv, on_mps, on_mpsd] = containers.each_ref().map(|c| {
            let csv = dir.join(format!("csv{i}_{}", c.extension().unwrap().to_str().unwrap()));
            let out = ok(bin().arg("fold").arg(c).args(fold).arg("--csv-dir").arg(&csv).output().unwrap());
            (String::from_utf8(out.stdout).unwrap(), dir_bytes(&csv))
        });
        assert!(on_prv.0.contains("folded 4 instances of \"CG_iteration\""), "{}", on_prv.0);
        assert!(on_prv.1.len() >= 6, "{fold:?} wrote {} files", on_prv.1.len());
        assert!(on_mps == on_prv && on_mpsd == on_prv, "{fold:?} depends on the container");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `convert` streams between all three containers, every direction,
/// and lands on the bytes a direct conversion writes.
#[test]
fn convert_round_trips_between_all_three_containers() {
    let dir = tmpdir("convert_round_trips_between_all_three_containers");
    let containers = three_containers(&dir);
    let [prv, mps, mpsd] = containers.each_ref().map(|c| c.as_path());
    for (i, from) in containers.iter().enumerate() {
        let [to_prv, to_mps, to_mpsd] = ["prv", "mps", "mps.d"].map(|ext| dir.join(format!("from{i}.{ext}")));
        let out = ok(bin().arg("convert").arg(from).arg("-o").arg(&to_prv).output().unwrap());
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("converted "));
        assert_eq!(std::fs::read(&to_prv).unwrap(), std::fs::read(prv).unwrap(), "{i} -> prv");

        let out = ok(bin().arg("convert").arg(from).arg("-o").arg(&to_mps).output().unwrap());
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("wrote "), "summary line kept");
        assert_eq!(std::fs::read(&to_mps).unwrap(), std::fs::read(mps).unwrap(), "{i} -> mps");

        let sharded = ["--shard-events", "2000", "--threads", "2"];
        ok(bin().arg("convert").arg(from).arg("-o").arg(&to_mpsd).args(sharded).output().unwrap());
        assert_eq!(dir_bytes(&to_mpsd), dir_bytes(mpsd), "{i} -> mps.d");
    }
    // Nothing but the outputs is left behind, and an existing output
    // is refused before the input is read.
    let mut left = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name().into_string().unwrap());
    assert!(left.all(|name| !name.ends_with(".tmp")));
    let out = bin().arg("convert").arg(dir.join("missing.prv")).arg("-o").arg(mps).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("output already exists"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A timer sample whose stack names a region the trace never defines
/// is an error naming the id and the cycle — from the text trace and
/// from the store converted from it — not an out-of-bounds panic.
#[test]
fn profile_rejects_a_stack_naming_an_undefined_region() {
    let dir = tmpdir("profile_rejects_a_stack_naming_an_undefined_region");
    let [good, bad, bad_mps] = ["good.prv", "bad.prv", "bad.mps"].map(|n| dir.join(n));
    ok(bin().args(["run", "--workload", "stream", "--nx", "32", "-o"]).arg(&good).output().unwrap());
    let text = std::fs::read_to_string(&good).unwrap();
    assert_eq!(text.lines().filter(|l| l.starts_with("REGION ")).count(), 1, "one region defined");
    let sample = text.lines().find(|l| l.contains(" SAMP ") && l.ends_with(" 0")).expect("a sample in region 0");
    let cycle = sample.split(' ').nth(1).unwrap();
    let hostile = format!("{} 7", sample.strip_suffix(" 0").unwrap());
    std::fs::write(&bad, text.replacen(sample, &hostile, 1)).unwrap();
    ok(bin().arg("convert").arg(&bad).arg("-o").arg(&bad_mps).output().unwrap());

    for trace in [&bad, &bad_mps] {
        let out = bin().arg("profile").arg(trace).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{}: {stderr}", trace.display());
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(stderr.contains("region 7") && stderr.contains(&format!("cycle {cycle}")), "{stderr}");
        assert!(out.stdout.is_empty());
        // The commands that never index by region id are unaffected.
        ok(bin().arg("info").arg(trace).output().unwrap());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `objects` scans the PEBS samples twice (the table, then the latency
/// line); a chunk that fails its checksum is corruption — exit 2
/// through `die` — and no half-answer is printed.
#[test]
fn objects_reports_a_damaged_pebs_chunk_as_corruption() {
    use mempersp_extrae::EventClass;
    let dir = tmpdir("objects_reports_a_damaged_pebs_chunk_as_corruption");
    let mps = dir.join("o.mps");
    ok(bin().args(["run", "--workload", "hpcg", "--nx", "8", "--iters", "2", "-o"]).arg(&mps).output().unwrap());
    let clean = ok(bin().arg("objects").arg(&mps).output().unwrap());
    assert!(String::from_utf8_lossy(&clean.stdout).contains("\nload latency: "));

    let chunk = mempersp_store::StoreReader::open(&mps)
        .unwrap()
        .chunks()
        .iter()
        .find(|m| m.kind_mask.contains(EventClass::Pebs))
        .cloned()
        .expect("a chunk with PEBS samples");
    let mut bytes = std::fs::read(&mps).unwrap();
    bytes[(chunk.offset + chunk.stored_len as u64 / 2) as usize] ^= 0x40;
    std::fs::write(&mps, bytes).unwrap();

    let out = bin().arg("objects").arg(&mps).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with(&format!("cannot scan {}: ", mps.display())), "{stderr}");
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
    std::fs::remove_dir_all(&dir).ok();
}

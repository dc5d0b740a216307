//! Code size per workspace crate, as stable sorted JSON on stdout:
//! `cargo run -q -p mempersp-bench --bin loc > BENCH_size.json`.
//!
//! For each crate (keyed by its directory; `.` is the root package,
//! whose `files` is therefore the whole repository's): `src_lines` —
//! every `src/**/*.rs` up to its first `#[cfg(test)]`; `test_lines` —
//! the rest of those files plus `tests/**/*.rs`; `files` — tracked
//! files under the directory. Only tracked files count, so build
//! output never moves the numbers.

use std::collections::BTreeMap;
use std::path::Path;

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ls = std::process::Command::new("git").arg("ls-files").current_dir(&root).output();
    let ls = ls.expect("run git ls-files");
    assert!(ls.status.success(), "git ls-files failed");
    let tracked = String::from_utf8(ls.stdout).expect("tracked paths are UTF-8");

    // A crate is a tracked Cargo.toml at the root or under crates/
    // (benchmark/ is a workspace of its own).
    let mut crates: BTreeMap<&str, [u64; 3]> = tracked
        .lines()
        .filter_map(|f| f.strip_suffix("Cargo.toml"))
        .filter(|dir| dir.is_empty() || dir.starts_with("crates/"))
        .map(|dir| (dir, [0; 3]))
        .collect();
    for file in tracked.lines() {
        for (dir, [src, test, files]) in &mut crates {
            let Some(rel) = file.strip_prefix(dir) else { continue };
            *files += 1;
            if !rel.ends_with(".rs") || !(rel.starts_with("src/") || rel.starts_with("tests/")) {
                continue;
            }
            let text = std::fs::read_to_string(root.join(file)).expect("read tracked source");
            let lines = text.lines().count() as u64;
            let is_test_attr = |l: &&str| l.trim_start().starts_with("#[cfg(test)]");
            let code = if rel.starts_with("src/") {
                text.lines().take_while(|l| !is_test_attr(l)).count() as u64
            } else {
                0
            };
            *src += code;
            *test += lines - code;
        }
    }
    let report: Vec<(String, serde_json::Value)> = crates
        .into_iter()
        .map(|(dir, [src_lines, test_lines, files])| {
            let name = if dir.is_empty() { "." } else { dir.trim_end_matches('/') };
            let size = serde_json::json!({
                "files": files, "src_lines": src_lines, "test_lines": test_lines,
            });
            (name.to_string(), size)
        })
        .collect();
    let json = serde_json::to_string_pretty(&serde_json::Value::Object(report));
    println!("{}", json.expect("serialize"));
}

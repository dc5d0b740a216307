//! Black-box tests of the `gentrace` binary's usage errors.

use std::process::Command;

/// A malformed or missing flag value is a usage error: exit 1, like
/// `mempersp` (2 is kept for a damaged store), with nothing created.
#[test]
fn bad_flags_exit_1_and_write_nothing() {
    let cwd = std::env::temp_dir().join(format!("mempersp_gentrace_{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    let cases: [&[&str]; 6] = [
        &["--shard-events", "abc", "-o", "x.mps.d"],
        &["--events", "-5", "-o", "x.mps"],
        &["--seed", "x", "-o", "x.mps"],
        &["-o", "x.mps", "--cores"],
        &["--bogus", "-o", "x.mps"],
        &["--shard-events", "0", "-o", "x.mps.d"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_gentrace")).args(args).current_dir(&cwd).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let made: Vec<_> = std::fs::read_dir(&cwd).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert!(made.is_empty(), "{args:?} made {made:?}");
    }
    std::fs::remove_dir_all(&cwd).ok();
}

//! The timeline golden, pinned where every test run sees it.
//!
//! `bench timeline` (which always streams its analytics) run from an
//! empty directory must write `results/timeline.json` byte-identical to
//! `tests/golden/timeline.json`, and every sharded timeline — threads
//! and worker processes at 2 and 8 shards — must exit 0 through its gate
//! on the serial golden compiled into the binary. A corrupted golden, or
//! a change that moves a byte of the serial run or a verdict of any
//! sharded run, fails here. `bench demographics`, the one command that
//! keeps a visit log, rides along: it exits 1 unless its log counts
//! every visit its report does. A run that cannot write its artifact
//! must exit non-zero.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// The `bench` binary cargo built for this test run.
const BENCH_EXE: &str = env!("CARGO_BIN_EXE_bench");
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/timeline.json"
);

/// An empty scratch directory of this test process's own.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("a scratch directory");
    dir
}

/// Run `bench <args>` in a fresh directory of its own, insisting on
/// exit 0; the directory (for the caller to read and remove) and stdout
/// are returned.
fn bench_in_fresh_dir(name: &str, args: &[&str]) -> (PathBuf, String) {
    let dir = fresh_dir(name);
    let out = Command::new(BENCH_EXE)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("bench runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "bench {args:?}: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    (dir, stdout)
}

#[test]
fn serial_timeline_writes_the_golden_byte_for_byte() {
    let (dir, _) = bench_in_fresh_dir("timeline-serial", &["timeline"]);
    let written = fs::read(dir.join("results/timeline.json")).expect("results/timeline.json");
    let golden = fs::read(GOLDEN).expect("the timeline golden");
    let _ = fs::remove_dir_all(&dir);
    assert!(
        written == golden,
        "results/timeline.json differs from tests/golden/timeline.json"
    );
}

/// `(name, bench arguments, what stdout must say)`: each sharded
/// timeline — over worker processes or threads — reaches exit 0 only by
/// printing its gate's verdict.
const GATED_RUNS: &[(&str, &[&str], &str)] = &[
    (
        "threads-2",
        &["timeline", "--shards", "2"],
        "[2-shard verdict matches the serial golden]",
    ),
    // More shards than cores: the lane window slides on both carriers,
    // and workers past the coordinator's fold window wait on credits.
    (
        "threads-8",
        &["timeline", "--shards", "8"],
        "[8-shard verdict matches the serial golden]",
    ),
    (
        "process-2",
        &["timeline", "--shards", "2", "--transport", "process"],
        "[2-shard verdict matches the serial golden]",
    ),
    (
        "process-8",
        &["timeline", "--shards", "8", "--transport", "process"],
        "[8-shard verdict matches the serial golden]",
    ),
    ("demographics", &["demographics"], "§6.2 demographics"),
];

#[test]
fn process_sharded_timeline_passes_its_serial_golden_gate() {
    for (name, args, says) in GATED_RUNS {
        let (dir, stdout) = bench_in_fresh_dir(name, args);
        let _ = fs::remove_dir_all(&dir);
        assert!(
            stdout.contains(says),
            "bench {args:?} never said {says:?}:\n{stdout}"
        );
    }
}

#[test]
fn a_run_that_cannot_write_its_artifact_exits_non_zero() {
    // `--out` below a regular file: the results directory cannot exist.
    let dir = fresh_dir("unwritable");
    fs::write(dir.join("file"), "").expect("a regular file");
    let out = Command::new(BENCH_EXE)
        .args(["timeline", "--days", "1", "--out", "file/results"])
        .current_dir(&dir)
        .output()
        .expect("bench runs");
    let _ = fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cannot write file/results/timeline.json"),
        "the error names the path: {stderr}"
    );
}

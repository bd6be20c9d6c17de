//! The timeline golden, pinned where every test run sees it.
//!
//! `bench timeline` run from an empty directory must write
//! `results/timeline.json` byte-identical to `tests/golden/timeline.json`,
//! and `bench timeline --shards 2 --transport process` must exit 0 —
//! which it does only if its verdict matches the serial golden compiled
//! into the binary. A corrupted golden, or a change that moves a byte of
//! the serial run or the process-sharded verdict, fails here.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// The `bench` binary cargo built for this test run.
const BENCH_EXE: &str = env!("CARGO_BIN_EXE_bench");
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/timeline.json"
);

/// Run `bench <args>` in a fresh directory of its own, insisting on
/// exit 0; the directory is returned for the caller to read and remove.
fn bench_in_fresh_dir(name: &str, args: &[&str]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("a scratch directory");
    let out = Command::new(BENCH_EXE)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("bench runs");
    assert!(
        out.status.success(),
        "bench {args:?}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout)
    );
    dir
}

#[test]
fn serial_timeline_writes_the_golden_byte_for_byte() {
    let dir = bench_in_fresh_dir("timeline-serial", &["timeline"]);
    let written = fs::read(dir.join("results/timeline.json")).expect("results/timeline.json");
    let golden = fs::read(GOLDEN).expect("the timeline golden");
    let _ = fs::remove_dir_all(&dir);
    assert!(
        written == golden,
        "results/timeline.json differs from tests/golden/timeline.json"
    );
}

#[test]
fn process_sharded_timeline_passes_its_serial_golden_gate() {
    let dir = bench_in_fresh_dir(
        "timeline-process",
        &["timeline", "--shards", "2", "--transport", "process"],
    );
    let _ = fs::remove_dir_all(&dir);
}

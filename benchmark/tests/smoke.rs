//! Quick-size runs of the real binaries: what the driver contract
//! prints, digest stability, and the worker role's round trip.

use encore_benchmark::harness::{ROLE_ENV, ROLE_REP};
use encore_benchmark::metrics::{Metric, END_TO_END, PER_LAYER};
use encore_benchmark::rep::RepResult;
use serde::json::Value;
use std::collections::BTreeSet;
use std::process::{Command, Output};

const MAIN: &str = env!("CARGO_BIN_EXE_encore-benchmark");
// Named so the build puts the trace binary beside the main one.
const _TRACE: &str = env!("CARGO_BIN_EXE_encore-benchmark-trace");

fn bench(role: Option<&str>, args: &[&str]) -> Output {
    let mut cmd = Command::new(MAIN);
    cmd.env_remove(ROLE_ENV);
    if let Some(role) = role {
        cmd.env(ROLE_ENV, role);
    }
    cmd.args(args).output().expect("benchmark binary runs")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

/// Run the driver contract at quick size; check the result line's shape
/// against `registry` and return its metric values.
fn contract(workload: &str, trace: &str, registry: &[Metric]) -> Vec<(String, f64)> {
    let out = bench(
        None,
        &[
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--quick",
        ],
    );
    let line = last_line(&out);
    assert!(out.status.success(), "exit {:?}: {line}", out.status);
    let doc = serde::json::parse(&line).expect("last line is JSON");
    let obj = doc.as_object().expect("an object");
    let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let field = |name: &str| &obj.iter().find(|(k, _)| k == name).unwrap().1;
    assert_eq!(field("correct").as_bool(), Some(true), "{line}");
    assert_eq!(field("failed").num_token(), Some("0"), "{line}");
    assert!(
        field("attempted")
            .num_token()
            .unwrap()
            .parse::<u64>()
            .unwrap()
            >= 1
    );

    let metrics = field("metrics").as_object().expect("metrics object");
    let emitted: BTreeSet<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let listed: BTreeSet<&str> = registry.iter().map(|m| m.name).collect();
    assert_eq!(emitted, listed, "emitted names differ from the registry");
    metrics
        .iter()
        .map(|(name, v)| {
            let unit = registry.iter().find(|m| m.name == name).unwrap().unit;
            let Value::Obj(pair) = v else {
                panic!("{name} is not an object")
            };
            assert_eq!(pair.len(), 2, "{name}: exactly value and unit");
            assert_eq!(pair[1], ("unit".to_string(), Value::Str(unit.to_string())));
            assert_eq!(pair[0].0, "value");
            let value: f64 = pair[0].1.num_token().unwrap().parse().unwrap();
            assert!(value.is_finite(), "{name} = {value}");
            (name.clone(), value)
        })
        .collect()
}

#[test]
fn contract_run_emits_exactly_the_end_to_end_metrics() {
    for (name, value) in contract("stream_1m_x2", "0", &END_TO_END) {
        assert!(value > 0.0, "{name} must never read 0, got {value}");
    }
}

/// Also the worker role's round trip: the traced pass runs the world on
/// the process transport at 2 shards, with this binary as the workers.
#[test]
fn contract_trace_emits_exactly_the_per_layer_metrics() {
    let metrics = contract("timeline_450k_proc_x2", "1", &PER_LAYER);
    let get = |name: &str| metrics.iter().find(|(n, _)| n == name).unwrap().1;
    assert!(get("population.transport.frames") > 0.0);
    assert!(get("population.transport.payload_mib") > 0.0);
    // The timeline world's paths lose a few fetches in a thousand, and a
    // failed fetch allocates; on ideal paths the reading is exactly 0.
    assert!(get("netsim.session.warm_allocs_per_fetch") < 0.01);
    assert!(get("phase.run_s") > 0.0);
}

fn quick_rep(workload: &str, transport: &str) -> RepResult {
    let out = bench(
        Some(ROLE_REP),
        &[
            "--workload",
            workload,
            "--seed",
            "11",
            "--shards",
            "2",
            "--transport",
            transport,
            "--quick",
        ],
    );
    assert!(out.status.success(), "rep exit {:?}", out.status);
    serde_json::from_str(&last_line(&out)).expect("rep result parses")
}

#[test]
fn digests_repeat_across_runs_and_agree_across_transports() {
    let first = quick_rep("timeline_450k_thr_x2", "threads");
    let again = quick_rep("timeline_450k_thr_x2", "threads");
    let process = quick_rep("timeline_450k_thr_x2", "process");
    assert_eq!(first.digest, again.digest, "same seed, same bytes");
    assert_eq!(first.counts, again.counts, "counts repeat exactly");
    assert_eq!(first.digest, process.digest, "threads and processes agree");
    assert!(process.counts.frames > 0 && first.counts.frames == 0);
    assert_eq!(process.counts.per_shard_visits.len(), 2);
    for r in [&first, &again, &process] {
        assert_eq!(r.failures().count(), 0, "{:?}", r.checks);
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result_line() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--frobnicate"][..],
        &["--workload", "stream_1m", "--trace", "2"][..],
        &["launch"][..],
    ] {
        let out = bench(None, args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(
            !last_line(&out).starts_with('{'),
            "{args:?} printed a result"
        );
    }
}

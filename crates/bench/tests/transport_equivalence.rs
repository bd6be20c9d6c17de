//! The transport-equivalence harness: the distributed world is the
//! same experiment as the in-process one.
//!
//! `population::transport` runs a sharded world either on OS threads
//! (shared memory, zero-copy) or on worker *processes* speaking the
//! length-prefixed frame protocol over pipes. The process backend is
//! only admissible if it is provably invisible: same merged outcome,
//! same collection store, same GeoIP database, byte for byte. Three
//! levels are enforced here, on the `bench::world_fixture`
//! Turkey-timeline scenario (the same fixture `bench timeline` gates on
//! in CI):
//!
//! 1. **Lockstep with the serial engine** — a 1-shard process-backend
//!    run is byte-identical to `WorldEngine::from_recipe(..).run()` on
//!    the same recipe, down to serialized JSON.
//! 2. **Backend equivalence** — at 2 and 8 shards the process backend
//!    reproduces the thread backend exactly: merged outcome, per-shard
//!    reports, collection snapshot, serialized GeoIP database, and the
//!    serialized JSON of the whole outcome — with no more outcomes
//!    ever resident on the coordinator than its merge tail plus one per
//!    stream it folds at a time, whatever the shard count.
//! 3. **Typed failure paths** — a missing worker binary, a worker that
//!    exits without streaming, and a worker that writes garbage all
//!    surface as typed `TransportError`s, never a panic or a hang, at
//!    1, 2 and 8 shards (alone, beside a sibling, and queued behind the
//!    fold window); and from the other side, a real worker process
//!    handed a closed or truncated stdin answers with a decodable ERROR
//!    frame and exit 1.
//!
//! The worker is the `bench` binary itself (`CARGO_BIN_EXE_bench`, which
//! `cargo test` always builds) re-executed in a worker role, exactly as
//! `bench timeline --transport process` re-executes itself.

use bench::specs::{BenchWorldSpec, CASE_ROLE, SHARD_ROLE};
use population::transport::{
    ProcessTransport, ShardTransport, ThreadTransport, TransportError, WorldSpec, KIND_ERROR,
    KIND_SPEC,
};
use population::{ShardContext, WorldEngine};
use sim_core::frame::{encode_frame, read_frame};
use sim_core::SimRng;
use std::io::Write;
use std::process::{Command, Stdio};

const SEED: u64 = 0x7A_57;
const DAYS: u64 = 6;

fn spec() -> BenchWorldSpec {
    BenchWorldSpec::Timeline {
        days: DAYS,
        rate: 150.0,
        streaming: false,
    }
}

/// The `bench` binary cargo built for this test run.
const BENCH_EXE: &str = env!("CARGO_BIN_EXE_bench");

fn process_transport() -> ProcessTransport {
    ProcessTransport::new(BENCH_EXE.into()).with_role(SHARD_ROLE)
}

#[test]
fn one_shard_process_locksteps_the_serial_engine() {
    let spec = spec();

    // Serial: the engine replaying the recipe on the serial build.
    let audience = spec.audience();
    let recipe = spec.recipe();
    let (mut net, mut sys) = spec.build(ShardContext {
        index: 0,
        shards: 1,
    });
    let mut rng = SimRng::new(SEED);
    let serial = WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng).run();
    let serial_snapshot = sys.collection.snapshot();

    // Distributed at N = 1: one worker process, full frame protocol.
    let run = process_transport()
        .run(&spec, 1, SEED)
        .expect("1-shard process transport runs");

    assert_eq!(
        run.outcome, serial,
        "1-shard process outcome must be bit-identical to the serial engine"
    );
    assert_eq!(
        run.collection, serial_snapshot,
        "1-shard process collection store must be identical to the serial engine"
    );
    // WorldOutcome itself has no Serialize (the transport streams its
    // fields separately); its report and rollups are the JSON surface.
    assert_eq!(
        serde_json::to_string(&run.outcome.report).unwrap(),
        serde_json::to_string(&serial.report).unwrap(),
        "serialized report JSON must agree byte for byte"
    );
    assert_eq!(
        serde_json::to_string(&run.outcome.rollups).unwrap(),
        serde_json::to_string(&serial.rollups).unwrap(),
        "serialized rollup JSON must agree byte for byte"
    );
}

#[test]
fn process_backend_matches_threads_at_2_and_8_shards() {
    let spec = spec();
    let process = process_transport();
    for shards in [2usize, 8] {
        let threads_run = ThreadTransport
            .run(&spec, shards, SEED)
            .expect("thread transport runs");
        let (process_run, stats) = process
            .run_with_stats(&spec, shards, SEED)
            .expect("process transport runs");
        // The streaming-merge guarantee: the running accumulator plus
        // one partial per stream folded at a time — and the coordinator
        // folds at most one stream per hardware thread, because past
        // that a fold thread only waits for a core. Set by the machine,
        // not by the shard count.
        let lanes = std::thread::available_parallelism().map_or(1, usize::from);
        assert!(
            stats.peak_resident_outcomes <= 1 + shards.min(lanes),
            "{} outcomes resident at {shards} shards on {lanes} hardware threads",
            stats.peak_resident_outcomes
        );

        assert_eq!(
            process_run.outcome, threads_run.outcome,
            "merged outcome diverged at {shards} shards"
        );
        assert_eq!(
            process_run.per_shard, threads_run.per_shard,
            "per-shard reports diverged at {shards} shards"
        );
        assert_eq!(
            process_run.collection, threads_run.collection,
            "collection store diverged at {shards} shards"
        );
        // GeoDb has no PartialEq; its serialized image is the equality
        // the goldens use.
        assert_eq!(
            serde_json::to_string(&process_run.geo).unwrap(),
            serde_json::to_string(&threads_run.geo).unwrap(),
            "GeoIP database diverged at {shards} shards"
        );
        assert_eq!(
            serde_json::to_string(&process_run.outcome.report).unwrap(),
            serde_json::to_string(&threads_run.outcome.report).unwrap(),
            "serialized report JSON diverged at {shards} shards"
        );
        assert_eq!(
            serde_json::to_string(&process_run.outcome.rollups).unwrap(),
            serde_json::to_string(&threads_run.outcome.rollups).unwrap(),
            "serialized rollup JSON diverged at {shards} shards"
        );
    }
}

#[test]
fn audience_is_transport_invariant() {
    // The spec rebuilds its audience inside each worker process; the
    // coordinator never ships it. Equal worlds require equal audiences.
    let spec = spec();
    let run = process_transport()
        .run(&spec, 2, SEED)
        .expect("process transport runs");
    let again = process_transport()
        .run(&spec, 2, SEED)
        .expect("process transport runs twice");
    assert_eq!(
        run.outcome, again.outcome,
        "same (seed, shards) must reproduce byte-identically across process runs"
    );
    assert_eq!(run.collection, again.collection);
}

#[test]
fn missing_worker_binary_is_a_typed_error() {
    let bogus = ProcessTransport::new("/nonexistent/encore-shard-worker".into());
    let err = bogus
        .run(&spec(), 2, SEED)
        .expect_err("spawning a nonexistent binary must fail");
    assert!(
        matches!(err, TransportError::Spawn { .. }),
        "expected Spawn error, got: {err}"
    );
}

#[test]
fn worker_that_exits_without_streaming_is_a_typed_error() {
    // `/bin/true` exits 0 without speaking the protocol: the coordinator
    // must report a worker exit (EOF before FINAL) or a broken pipe —
    // never panic or hang.
    let silent = ProcessTransport::new("/bin/true".into());
    for shards in [1, 2, 8] {
        let err = silent
            .run(&spec(), shards, SEED)
            .expect_err("a protocol-silent worker must fail the run");
        assert!(
            matches!(
                err,
                TransportError::WorkerExit { .. } | TransportError::Protocol(_)
            ),
            "expected WorkerExit or Protocol error at {shards} shards, got: {err}"
        );
    }
}

#[test]
fn worker_that_writes_garbage_is_a_typed_error() {
    // `/bin/echo` writes non-frame bytes and exits: the frame decoder
    // must reject the stream with a typed error.
    let garbage = ProcessTransport::new("/bin/echo".into());
    for shards in [1, 2, 8] {
        let err = garbage
            .run(&spec(), shards, SEED)
            .expect_err("a garbage-writing worker must fail the run");
        assert!(
            matches!(
                err,
                TransportError::Frame { .. }
                    | TransportError::WorkerExit { .. }
                    | TransportError::Protocol(_)
            ),
            "expected a frame/protocol error at {shards} shards, got: {err}"
        );
    }
}

/// Spawn the real `bench` binary in `role`, feed it `stdin` and close
/// the pipe, and return its exit code and everything it wrote to stdout.
fn run_worker_role(role: &str, stdin: &[u8]) -> (Option<i32>, Vec<u8>) {
    let mut child = Command::new(BENCH_EXE)
        .arg(role)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("the bench binary spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(stdin)
        .expect("worker reads its stdin");
    let output = child.wait_with_output().expect("worker exits");
    (output.status.code(), output.stdout)
}

#[test]
fn worker_roles_answer_bad_input_with_an_error_frame_and_exit_1() {
    // `worker_main`'s error path through a real process, in both roles:
    // a coordinator that closes the pipe at once, and one that dies
    // mid-way through the spec frame.
    let mut truncated = encode_frame(KIND_SPEC, &serde::bin::to_vec(&spec()));
    truncated.truncate(truncated.len() - 3);
    for role in [SHARD_ROLE, CASE_ROLE] {
        for (what, stdin) in [
            ("closed stdin", &[][..]),
            ("truncated spec", &truncated[..]),
        ] {
            let (code, stdout) = run_worker_role(role, stdin);
            assert_eq!(code, Some(1), "{role} on {what}: exit code");
            let mut stream: &[u8] = &stdout;
            let frame = read_frame(&mut stream, 1 << 20)
                .unwrap_or_else(|err| panic!("{role} on {what}: undecodable reply: {err}"))
                .unwrap_or_else(|| panic!("{role} on {what}: empty stdout"));
            assert_eq!(frame.kind, KIND_ERROR, "{role} on {what}: frame kind");
            let detail = String::from_utf8(frame.payload).expect("UTF-8 error detail");
            assert!(detail.contains("spec"), "{role} on {what}: {detail}");
            assert!(stream.is_empty(), "{role} on {what}: bytes after ERROR");
        }
    }
}

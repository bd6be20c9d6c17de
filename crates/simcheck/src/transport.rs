//! Oracle 7 — transport equivalence: the process transport is
//! byte-identical to the thread transport.
//!
//! The in-process thread backend and the frame-protocol process backend
//! claim to execute *the same distributed computation*: identical shard
//! worlds, identical RNG streams, identical merge order. This oracle
//! proves it differentially over generated [`WorldCase`]s — including
//! adaptive-censor and congestion classes — by running both backends at
//! the same shard counts and demanding equality of the structural
//! outcome **and** the serialized byte-images (report, rollups,
//! collection JSON), exactly the "byte-identical" the other oracles
//! use.
//!
//! A [`WorldCase`] crosses the process boundary as itself: it is plain
//! data, so it is its own [`WorldSpec`], and the worker rebuilds exactly
//! the coordinator's world from its bytes. The worker is whatever
//! [`ProcessTransport`] the caller hands the runner — in practice the
//! `bench` binary re-executing itself in its case-worker role,
//! `worker_main::<WorldCase>()`.

use crate::generator::WorldCase;
use crate::oracle::byte_image;
use encore::system::EncoreSystem;
use netsim::geo::World;
use netsim::network::Network;
use population::transport::{ProcessTransport, ShardTransport, ThreadTransport, WorldSpec};
use population::{Audience, ShardContext, WorldRecipe};

/// A generated world describes itself: the worker deserializes the case
/// the coordinator generated and builds it with the same methods.
impl WorldSpec for WorldCase {
    fn audience(&self) -> Audience {
        Audience::world(&World::builtin())
    }

    fn recipe(&self) -> WorldRecipe {
        WorldCase::recipe(self)
    }

    fn build(&self, ctx: ShardContext) -> (Network, EncoreSystem) {
        WorldCase::build(self, ctx)
    }
}

/// Shard counts the transport oracle compares at: the degenerate single
/// shard and an uneven multi-shard split.
const TRANSPORT_SHARDS: [usize; 2] = [1, 3];

/// Check one generated world across both transport backends: for each
/// shard count in `TRANSPORT_SHARDS`, the process transport must
/// reproduce the thread transport byte-for-byte (structural outcome,
/// collection, per-shard reports, and all three serialized byte-images).
///
/// `process` must spawn workers that run `worker_main::<WorldCase>()`.
pub fn check_transport(
    case: &WorldCase,
    process: &ProcessTransport,
) -> Vec<crate::oracle::Violation> {
    let mut violations = Vec::new();
    let mut fail = |oracle: &'static str, detail: String| {
        violations.push(crate::oracle::Violation {
            seed: case.seed,
            class: case.class,
            oracle,
            detail,
            case: case.clone(),
        });
    };
    for shards in TRANSPORT_SHARDS {
        let threads = ThreadTransport.run(case, shards, case.seed);
        let threads = match threads {
            Ok(run) => run,
            Err(err) => {
                fail(
                    "transport-run",
                    format!("thread transport failed at {shards} shard(s): {err}"),
                );
                continue;
            }
        };
        let process = match process.run(case, shards, case.seed) {
            Ok(run) => run,
            Err(err) => {
                fail(
                    "transport-run",
                    format!("process transport failed at {shards} shard(s): {err}"),
                );
                continue;
            }
        };
        if process.outcome != threads.outcome {
            fail(
                "transport-byte-identity",
                format!("process WorldOutcome differs from threads at {shards} shard(s)"),
            );
        }
        if process.collection != threads.collection {
            fail(
                "transport-byte-identity",
                format!("process collection store differs from threads at {shards} shard(s)"),
            );
        }
        if process.per_shard != threads.per_shard {
            fail(
                "transport-byte-identity",
                format!("process per-shard reports differ from threads at {shards} shard(s)"),
            );
        }
        let thread_image = byte_image(&threads.outcome, &threads.collection);
        let process_image = byte_image(&process.outcome, &process.collection);
        if process_image != thread_image {
            fail(
                "transport-byte-identity",
                format!("serialized byte-images diverge at {shards} shard(s)"),
            );
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CaseClass;

    #[test]
    fn world_cases_round_trip_through_both_codecs() {
        for class in [
            CaseClass::Equivalence,
            CaseClass::Detector,
            CaseClass::Congestion,
            CaseClass::Corpus,
        ] {
            let case = WorldCase::from_seed(class, 0x5EED);
            let json = serde_json::to_string(&case).unwrap();
            let from_json: WorldCase = serde_json::from_str(&json).unwrap();
            assert_eq!(from_json, case, "case drifted through JSON: {json}");
            let from_bin: WorldCase = serde::bin::from_slice(&serde::bin::to_vec(&case)).unwrap();
            assert_eq!(from_bin, case, "case drifted through bytes: {json}");
        }
    }

    #[test]
    fn thread_transport_agrees_with_direct_sharding_on_a_case_spec() {
        // WorldCase's WorldSpec impl must describe the same world the
        // oracle's direct run_sharded_world path executes.
        let case = WorldCase::from_seed(CaseClass::Equivalence, 11);
        let via_spec = ThreadTransport.run(&case, 2, case.seed).unwrap();
        let direct = population::run_sharded_world(
            &|ctx| case.build(ctx),
            &Audience::world(&World::builtin()),
            &case.recipe(),
            2,
            case.seed,
        );
        assert_eq!(via_spec.outcome, direct.outcome);
        assert_eq!(via_spec.collection, direct.collection);
        assert_eq!(via_spec.per_shard, direct.per_shard);
    }

    #[test]
    fn a_spec_with_a_zero_period_is_a_typed_error() {
        use population::transport::{run_worker, TransportError, WorkerJob, KIND_JOB, KIND_SPEC};
        use sim_core::frame::write_frame;
        let base = WorldCase::from_seed(CaseClass::Equivalence, 0x5EED);
        let zero_rollups = WorldCase {
            rollup_secs: 0,
            ..base.clone()
        };
        let zero_maintenance = WorldCase {
            maintenance_secs: Some(0),
            ..base
        };
        let job = WorkerJob {
            index: 0,
            shards: 1,
            seed: 1,
            chunk: 64,
            window: 4,
        };
        for (case, period) in [(zero_rollups, "rollup"), (zero_maintenance, "maintenance")] {
            let mut script = Vec::new();
            write_frame(&mut script, KIND_SPEC, &serde::bin::to_vec(&case)).unwrap();
            write_frame(&mut script, KIND_JOB, &serde::bin::to_vec(&job)).unwrap();
            match run_worker::<WorldCase, _, _>(&mut &script[..], &mut Vec::new()) {
                Err(TransportError::Payload(why)) => assert!(
                    why.contains(&format!("{period} period must be > 0")),
                    "{why}"
                ),
                other => panic!("zero {period} period: {other:?}"),
            }
        }
    }
}

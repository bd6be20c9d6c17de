//! The shard-equivalence determinism harness.
//!
//! Parallelising the population is only admissible if the parallel run is
//! provably the same experiment as the serial one (aggregate conclusions
//! from a biased substrate are worthless — the whole point of §7.2's
//! cross-region test is statistical trust in the sampling). Three levels
//! of equivalence are enforced here:
//!
//! 1. **Lockstep** — a 1-shard sharded run *is* the serial batch engine:
//!    bit-identical `BatchReport` counters and collection records for the
//!    same seed.
//! 2. **Reproducibility** — a fixed `(seed, shards)` pair yields
//!    byte-identical merged output on every run, regardless of thread
//!    scheduling.
//! 3. **Verdict equivalence** — the §7.2 detector, run once over the
//!    merged union, reaches identical censored-vs-uncensored verdicts at
//!    1, 2, and 8 shards: exactly the ground-truth (domain, country)
//!    pairs, nothing else.
//!
//! The fixture (censored/uncensored §7.2 worlds over the sharded
//! scenario) is shared with `benchmark/`'s streaming workloads via
//! `bench::shard_fixture`, so the scenario the benchmark measures is
//! exactly the scenario this harness proves equivalent.

use bench::shard_fixture::{batch, build_censored};
use bench::testkit::{build_uncensored, verdict_keys};
use encore_repro::censor::registry::ground_truth;
use encore_repro::encore::system::EncoreSystem;
use encore_repro::encore::FilteringDetector;
use encore_repro::netsim::geo::World;
use encore_repro::netsim::network::Network;
use encore_repro::population::shard::ShardContext;
use encore_repro::population::{
    run_sharded_world, Audience, ShardedWorldRun, WorldEngine, WorldRecipe,
};
use encore_repro::sim_core::SimRng;

fn world_audience() -> Audience {
    Audience::world(&World::builtin())
}

/// `visits` fixture-batch visits of `build`'s world across `shards`.
fn run_sharded(
    build: &(impl Fn(ShardContext) -> (Network, EncoreSystem) + Sync),
    shards: usize,
    visits: u64,
    seed: u64,
) -> ShardedWorldRun {
    let recipe = WorldRecipe::batch(batch(visits));
    run_sharded_world(build, &world_audience(), &recipe, shards, seed)
}

/// Sorted `domain:country` verdict keys from a sharded run.
fn verdicts(shards: usize, seed: u64, visits: u64) -> Vec<String> {
    let run = run_sharded(&build_censored, shards, visits, seed);
    verdict_keys(&run.collection.records, &run.geo)
}

#[test]
fn one_shard_locksteps_the_serial_batch_driver() {
    let seed = 0xD00D;
    let recipe = WorldRecipe::batch(batch(2_000));
    let audience = world_audience();

    // Serial: the engine over the serial (shard 0 of 1) build.
    let (mut net, mut sys) = build_censored(ShardContext {
        index: 0,
        shards: 1,
    });
    let mut rng = SimRng::new(seed);
    let serial_report = WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng)
        .run()
        .report;
    let serial_snapshot = sys.collection.snapshot();

    // Sharded at N = 1.
    let sharded = run_sharded(&build_censored, 1, 2_000, seed);

    assert_eq!(
        sharded.outcome.report, serial_report,
        "1-shard report must be bit-identical to the serial driver"
    );
    assert_eq!(
        sharded.collection, serial_snapshot,
        "1-shard collection store must be identical to the serial driver"
    );
    // And the serialized artifacts agree byte for byte.
    assert_eq!(
        serde_json::to_string(&sharded.outcome.report).unwrap(),
        serde_json::to_string(&serial_report).unwrap()
    );
}

#[test]
fn verdicts_identical_across_shard_counts() {
    let seed = 0xE7C0;
    let visits = 6_000;
    let v1 = verdicts(1, seed, visits);
    let v2 = verdicts(2, seed, visits);
    let v8 = verdicts(8, seed, visits);

    assert_eq!(v1, v2, "1-shard and 2-shard verdicts diverged");
    assert_eq!(v1, v8, "1-shard and 8-shard verdicts diverged");

    // And they are the right verdicts: exactly the paper's ground truth.
    let mut expected: Vec<String> = ground_truth()
        .into_iter()
        .map(|g| format!("{}:{}", g.domain, g.country))
        .collect();
    expected.sort();
    assert_eq!(v1, expected, "verdicts differ from §7.2 ground truth");
}

#[test]
fn uncensored_world_yields_no_verdicts_at_any_shard_count() {
    for shards in [1usize, 2, 8] {
        let run = run_sharded(&build_uncensored, shards, 2_000, 0xC1EA);
        let detections = FilteringDetector::default().detect(&run.collection.records, &run.geo);
        assert!(
            detections.is_empty(),
            "false detections at {shards} shards: {detections:?}"
        );
    }
}

#[test]
fn fixed_seed_and_shard_count_reproduces_run_to_run() {
    let go = || {
        let run = run_sharded(&build_censored, 4, 1_500, 0xBEEF);
        (
            serde_json::to_string(&run.outcome.report).unwrap(),
            serde_json::to_string(&run.collection).unwrap(),
        )
    };
    let (report_a, coll_a) = go();
    let (report_b, coll_b) = go();
    assert_eq!(report_a, report_b, "merged report not reproducible");
    assert_eq!(coll_a, coll_b, "merged collection store not reproducible");
}

#[test]
fn different_seeds_diverge_in_detail_but_not_in_verdict() {
    let a = verdicts(2, 1, 4_000);
    let b = verdicts(2, 2, 4_000);
    assert_eq!(a, b, "the science must be seed-invariant");

    let run_a = run_sharded(&build_censored, 2, 1_000, 1);
    let run_b = run_sharded(&build_censored, 2, 1_000, 2);
    assert_ne!(
        run_a.outcome.report, run_b.outcome.report,
        "seeds should differ in detail"
    );
}

/// Golden snapshot: the merged-report JSON for a fixed scenario is pinned
/// byte for byte. Any change to RNG stream derivation, shard
/// partitioning, merge order, or report field layout shows up here as a
/// loud diff instead of a silent drift.
#[test]
fn merged_report_json_matches_golden_snapshot() {
    let run = run_sharded(&build_censored, 2, 1_000, 0x901D);
    let json = serde_json::to_string(&run.outcome.report).unwrap();
    let golden = include_str!("golden/merged_report.json").trim();
    assert_eq!(
        json, golden,
        "merged report drifted from tests/golden/merged_report.json — if \
         the change is intentional, regenerate the golden file"
    );
}

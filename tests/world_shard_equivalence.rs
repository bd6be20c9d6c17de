//! The sharded-world equivalence harness.
//!
//! `population::ThreadTransport` executes one longitudinal
//! `WorldRecipe` — arrivals *plus* scheduled censorship dynamics — on
//! N OS threads, the way large discrete-event simulators parallelise:
//! control events replicate on every partition, workload events
//! partition 1/N, outputs merge deterministically. That is only
//! admissible if the parallel run is provably the same *experiment* as
//! the serial one. Three levels of equivalence are enforced here, on the
//! `bench::world_fixture` Turkey-timeline scenario (the same fixture
//! `bench timeline` gates on in CI):
//!
//! 1. **Lockstep** — a 1-shard `ThreadTransport` run is **byte-identical**
//!    to the serial `WorldEngine::from_recipe(..).run()` on the same
//!    recipe: the merged `WorldOutcome` (visit log, report, rollup
//!    series, policy count) and the collection snapshot, down to their
//!    serialized JSON.
//! 2. **Verdict invariance** — the §7.2 windowed detector localises the
//!    Turkey block's onset (day 10) and lift (day 20) identically at 1,
//!    2, and 8 shards, and censorship verdicts match at every shard
//!    count — including with a *standing* censor that each shard's
//!    world build installs on its own network before the run starts.
//! 3. **Reproducibility** — a fixed `(seed, shards)` pair yields
//!    byte-identical merged output on every run, regardless of thread
//!    scheduling.

use bench::testkit::{scenario, with_standing_censor};
use bench::world_fixture::{self, judge_timeline, world, LIFT_DAY, ONSET_DAY, TARGET};
use encore_repro::netsim::geo::country;
use encore_repro::population::shard::ShardContext;
use encore_repro::population::{
    Retain, ShardTransport, ShardedWorldRun, ThreadTransport, WorldBuild, WorldEngine, WorldRecipe,
};
use encore_repro::sim_core::SimRng;

/// `recipe` over `world` across `shards`, from `seed`.
fn run(world: WorldBuild, recipe: WorldRecipe, shards: usize, seed: u64) -> ShardedWorldRun {
    ThreadTransport
        .run(&scenario(world, recipe), shards, seed)
        .expect("in-process shards merge")
}

#[test]
fn one_shard_locksteps_the_serial_world_engine() {
    let seed = 0x70_11;
    let scenario = scenario(
        world(),
        world_fixture::recipe(30, 150.0).retain_visits(Retain::Full),
    );

    // Serial: the engine replaying the recipe on the serial build.
    let (mut net, mut sys) = scenario.world.build(ShardContext {
        index: 0,
        shards: 1,
    });
    let mut rng = SimRng::new(seed);
    let (audience, recipe) = (&scenario.audience, &scenario.recipe);
    let serial = WorldEngine::from_recipe(&mut net, &mut sys, audience, recipe, &mut rng).run();
    let serial_snapshot = sys.collection.snapshot();

    // Sharded at N = 1.
    let sharded = run(world(), recipe.clone(), 1, seed);

    assert_eq!(
        sharded.outcome, serial,
        "1-shard world outcome must be bit-identical to the serial engine"
    );
    assert_eq!(
        sharded.collection, serial_snapshot,
        "1-shard collection store must be identical to the serial engine's"
    );
    // And the serialized artifacts agree byte for byte (report + the
    // newly serializable rollup series).
    assert_eq!(
        serde_json::to_string(&sharded.outcome.report).unwrap(),
        serde_json::to_string(&serial.report).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&sharded.outcome.rollups).unwrap(),
        serde_json::to_string(&serial.rollups).unwrap()
    );
    // The run actually exercised the dynamics: both policy changes
    // fired, rollups accumulated daily.
    assert_eq!(serial.policy_changes_applied, 2);
    assert!(serial.rollups.len() >= 29, "daily rollups over 30 days");
}

#[test]
fn turkey_verdict_is_invariant_across_shard_counts() {
    let seed = 0xE7_C0;
    let recipe = world_fixture::recipe(30, 150.0);
    let judgments: Vec<_> = [1usize, 2, 8]
        .into_iter()
        .map(|shards| {
            let run = run(world(), recipe.clone(), shards, seed);
            // Control events replicate: every shard applied both policy
            // changes, so the merged control-plane count is exactly 2.
            assert_eq!(
                run.outcome.policy_changes_applied, 2,
                "{shards}-shard run lost a broadcast policy change"
            );
            judge_timeline(&run.collection.records, &run.geo, country("TR"), TARGET)
        })
        .collect();

    for (j, shards) in judgments.iter().zip([1usize, 2, 8]) {
        assert_eq!(
            j.onset_day,
            Some(ONSET_DAY),
            "{shards}-shard run mislocalised the onset"
        );
        assert_eq!(
            j.lift_day,
            Some(LIFT_DAY),
            "{shards}-shard run mislocalised the lift"
        );
    }
    // The full per-day flag series agrees too (not just the endpoints):
    // days 10..19 flagged, everything else clear, at every shard count.
    for (j, shards) in judgments.iter().zip([1usize, 2, 8]) {
        for (day, _, flagged) in &j.days {
            assert_eq!(
                *flagged,
                (ONSET_DAY..LIFT_DAY).contains(day),
                "{shards}-shard flag series wrong at day {day}"
            );
        }
    }
}

#[test]
fn standing_censor_worlds_stay_equivalent_across_shards() {
    // A censor already in force at t=0, which every shard's world
    // build installs on its own network, plus the scheduled Turkish
    // block on top.
    let seed = 0x57_AD;
    let recipe = world_fixture::recipe(30, 150.0);
    for shards in [1usize, 2] {
        let run = run(with_standing_censor(), recipe.clone(), shards, seed);
        let cn = judge_timeline(&run.collection.records, &run.geo, country("CN"), TARGET);
        // China is blocked the whole run: flagged from the first window,
        // never lifted.
        assert_eq!(cn.onset_day, Some(0), "{shards}-shard CN onset");
        assert_eq!(cn.lift_day, None, "{shards}-shard CN lift");
        assert!(
            cn.days.iter().all(|(_, _, flagged)| *flagged),
            "{shards}-shard run lost the standing CN block in some window"
        );
        // And the scheduled Turkish dynamics are unaffected by the
        // pre-installed middlebox.
        let tr = judge_timeline(&run.collection.records, &run.geo, country("TR"), TARGET);
        assert_eq!(tr.onset_day, Some(ONSET_DAY), "{shards}-shard TR onset");
        assert_eq!(tr.lift_day, Some(LIFT_DAY), "{shards}-shard TR lift");
    }
}

#[test]
fn fixed_seed_and_shard_count_reproduces_byte_for_byte() {
    // A shorter world keeps the doubled run affordable; reproducibility
    // does not depend on the horizon.
    let recipe = world_fixture::recipe(8, 150.0).retain_visits(Retain::Full);
    let go = || {
        let run = run(world(), recipe.clone(), 4, 0xBEEF);
        (
            serde_json::to_string(&run.outcome.report).unwrap(),
            serde_json::to_string(&run.outcome.rollups).unwrap(),
            serde_json::to_string(&run.collection).unwrap(),
            run.outcome.log,
        )
    };
    let (report_a, rollups_a, coll_a, log_a) = go();
    let (report_b, rollups_b, coll_b, log_b) = go();
    assert_eq!(report_a, report_b, "merged report not reproducible");
    assert_eq!(rollups_a, rollups_b, "merged rollups not reproducible");
    assert_eq!(coll_a, coll_b, "merged collection not reproducible");
    assert_eq!(log_a, log_b, "merged visit log not reproducible");
}

#[test]
fn merged_log_is_time_ordered_and_complete() {
    let recipe = world_fixture::recipe(6, 150.0).retain_visits(Retain::Full);
    let run = run(world(), recipe, 3, 0x106);
    assert_eq!(
        run.outcome.log.len() as u64,
        run.outcome.report.visits,
        "merged log must cover every visit the merged report counted"
    );
    for w in run.outcome.log.windows(2) {
        assert!(w[0].at <= w[1].at, "merged log out of order");
    }
    assert_eq!(
        run.per_shard.iter().map(|r| r.visits).sum::<u64>(),
        run.outcome.report.visits
    );
}

//! Sharded multi-core population engine.
//!
//! One [`crate::world::WorldRecipe`] — arrivals *plus* the full control
//! plane of a longitudinal run (policy timelines, censor reactions,
//! world changes, maintenance, rollups) — executes across N shards,
//! at most `available_parallelism()` at a time, the way large
//! discrete-event simulators parallelise: **control events are
//! broadcast** verbatim to every shard ([`shard_recipe`]), **workload
//! events are partitioned** 1/N ([`shard_batch_config`] /
//! [`shard_deployment_config`]), and per-shard outputs **merge
//! deterministically** in shard order through the associative
//! [`crate::analytics::Merge`] path. [`run_sharded_world`] is the entry
//! point. Each shard — a lane thread here, a worker process in
//! [`crate::transport`], drained by the same coordinator — is one call
//! to the same shard body, which runs its own private world engine with
//!
//! * an **independent deterministic RNG stream** ([`SimRng::split`]:
//!   disjoint 2^192-draw blocks *and* a re-keyed fork namespace, with
//!   shard 0 reproducing the serial stream exactly),
//! * a **private `Network` + `EncoreSystem`** built from a shared,
//!   `Send + Sync` scenario via the caller's builder (nothing
//!   thread-unsafe ever crosses a thread boundary — each shard's striped
//!   [`netsim::ip::IpAllocator`] keeps its address space disjoint from
//!   every sibling's), and
//! * a **thinned Poisson arrival process**: shard *i* of *N* runs 1/N of
//!   the visits at N× the inter-arrival gap. Superposing N independent
//!   Poisson processes of rate λ/N yields a Poisson process of rate λ,
//!   so the sharded population is statistically the serial population —
//!   and at N = 1 it is *bitwise* the serial population.
//!
//! Afterwards the per-shard outputs merge through one associative trait,
//! [`Merge`] (for [`BatchReport`], [`CollectionSnapshot`] and
//! [`GeoDb`], among others), in shard-index order, so the merged run is
//! byte-stable regardless of thread scheduling, and the §7.2 detector
//! runs once over the union.

use crate::analytics::Merge;
use crate::audience::Audience;
use crate::batch::{BatchConfig, BatchReport};
use crate::driver::DeploymentConfig;
use crate::transport::{drain, hardware_lanes, ThreadShard};
use crate::world::{RunMode, WorldEngine, WorldOutcome, WorldRecipe};
use encore::collection::CollectionSnapshot;
use encore::geo::GeoDb;
use encore::system::EncoreSystem;
use netsim::network::Network;
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimRng};

/// Which slice of a sharded run a builder is materialising.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardContext {
    /// This shard's index, `0..shards`.
    pub index: usize,
    /// Total shard count.
    pub shards: usize,
}

/// The batch configuration shard `index` of `shards` actually runs:
/// `1/shards` of the visits (earlier shards take the remainder), the
/// arrival gap scaled by `shards` (Poisson thinning), and a
/// proportionally divided client pool. With `shards == 1` this is the
/// input config unchanged — the lockstep guarantee.
pub fn shard_batch_config(total: &BatchConfig, shards: usize, index: usize) -> BatchConfig {
    assert!(shards >= 1, "shard count must be at least 1");
    assert!(
        index < shards,
        "shard index {index} out of range 0..{shards}"
    );
    if shards == 1 {
        // Bitwise lockstep with the serial driver: not even a float
        // round-trip on the gap, not even a clamped pool size.
        return *total;
    }
    let base = total.visits / shards as u64;
    let remainder = total.visits % shards as u64;
    let visits = base + u64::from((index as u64) < remainder);
    let mean_gap = SimDuration::from_millis_f64(total.mean_gap.as_millis_f64() * shards as f64);
    BatchConfig {
        visits,
        mean_gap,
        repeat_visitor_rate: total.repeat_visitor_rate,
        client_pool: total.client_pool.div_ceil(shards),
    }
}

/// The deployment configuration shard `index` of `shards` actually runs:
/// the Poisson arrival *rate* divides by the shard count (thinning — the
/// per-origin gap distribution stretches by N, and superposing the N
/// thinned streams reproduces the aggregate rate), the span is
/// unchanged, and the returning-visitor pool divides proportionally.
/// With `shards == 1` this is the input config unchanged — the lockstep
/// guarantee.
pub fn shard_deployment_config(
    total: &DeploymentConfig,
    shards: usize,
    index: usize,
) -> DeploymentConfig {
    assert!(shards >= 1, "shard count must be at least 1");
    assert!(
        index < shards,
        "shard index {index} out of range 0..{shards}"
    );
    if shards == 1 {
        // Bitwise lockstep with the serial engine: not even a float
        // round-trip on the rate.
        return *total;
    }
    DeploymentConfig {
        duration: total.duration,
        visits_per_day_per_weight: total.visits_per_day_per_weight / shards as f64,
        repeat_visitor_rate: total.repeat_visitor_rate,
        returning_pool: total.returning_pool.div_ceil(shards),
    }
}

/// The recipe shard `index` of `shards` actually executes: **control
/// events broadcast verbatim** (the policy timeline, censor reactions,
/// world changes, maintenance and rollup cadences are byte-for-byte
/// the caller's — every shard replays the identical control schedule
/// against its own private world), while the **arrival process thins
/// 1/N** ([`shard_batch_config`] / [`shard_deployment_config`]). At
/// `shards == 1` the recipe is returned unchanged, so a one-shard
/// sharded run replays the serial engine exactly.
pub fn shard_recipe(recipe: &WorldRecipe, shards: usize, index: usize) -> WorldRecipe {
    let mut sharded = recipe.clone();
    sharded.mode = match recipe.mode {
        RunMode::Deployment(config) => {
            RunMode::Deployment(shard_deployment_config(&config, shards, index))
        }
        RunMode::Batch(config) => RunMode::Batch(shard_batch_config(&config, shards, index)),
    };
    sharded
}

/// Derive the per-shard RNG streams from a root seed. Stream 0 is an
/// exact snapshot of `SimRng::new(seed)` (so a one-shard run replays the
/// serial run); streams 1..N occupy disjoint long-jump blocks with
/// re-keyed fork namespaces.
pub fn shard_rngs(seed: u64, shards: usize) -> Vec<SimRng> {
    let mut root = SimRng::new(seed);
    (0..shards).map(|_| root.split()).collect()
}

/// The outcome of a sharded world run — of one shard, as the shard body
/// (`run_shard`) returns it, or of several merged.
#[derive(Debug, Clone)]
pub struct ShardedWorldRun {
    /// The merged world outcome: union report, time-interleaved visit
    /// log, pointwise-summed rollup series, control-plane policy count.
    pub outcome: WorldOutcome,
    /// Per-shard reports, in shard-index order.
    pub per_shard: Vec<BatchReport>,
    /// Union of all shard collection stores, in canonical order.
    pub collection: CollectionSnapshot,
    /// Union of all shard GeoIP databases (disjoint striped ranges).
    pub geo: GeoDb,
}

impl Merge for ShardedWorldRun {
    /// Piecewise fold through each component's associative merge (the
    /// per-shard reports concatenate), so whole shard outputs fold into
    /// the coordinator's merge tail — one running run on both carriers,
    /// extended in shard order, instead of one buffered output per
    /// shard.
    fn merge(mut self, other: ShardedWorldRun) -> ShardedWorldRun {
        self.per_shard.extend(other.per_shard);
        ShardedWorldRun {
            outcome: self.outcome.merge(other.outcome),
            per_shard: self.per_shard,
            collection: Merge::merge(self.collection, other.collection),
            geo: Merge::merge(self.geo, other.geo),
        }
    }
}

/// The one shard body: build shard `ctx.index`'s private world, run
/// [`shard_recipe`]\(recipe, ..\) on it under that shard's
/// [`shard_rngs`] stream, and snapshot what the coordinator merges. A
/// pure function of its arguments (given a deterministic `build`) —
/// which is why a shard thread and a worker process running it agree
/// byte for byte, and why re-running a lost shard reproduces it.
pub(crate) fn run_shard<F>(
    build: &F,
    audience: &Audience,
    recipe: &WorldRecipe,
    ctx: ShardContext,
    seed: u64,
) -> ShardedWorldRun
where
    F: Fn(ShardContext) -> (Network, EncoreSystem),
{
    let (mut net, mut sys) = build(ctx);
    let shard_cfg = shard_recipe(recipe, ctx.shards, ctx.index);
    let mut rng = shard_rngs(seed, ctx.shards)
        .into_iter()
        .nth(ctx.index)
        .expect("shard_recipe checked the index");
    let outcome =
        WorldEngine::from_recipe(&mut net, &mut sys, audience, &shard_cfg, &mut rng).run();
    ShardedWorldRun {
        per_shard: vec![outcome.report],
        outcome,
        collection: sys.collection.snapshot(),
        geo: GeoDb::from_allocator(&net.allocator),
    }
}

/// Execute one [`WorldRecipe`] across `shards` shards in this process,
/// at most `available_parallelism()` at a time, each on a lane thread.
///
/// `build` is called once per shard, *on its lane thread*, and must
/// return a freshly built `Network` + deployed `EncoreSystem` for the
/// given [`ShardContext`] — typically via
/// [`netsim::scenario::NetworkScenario::build_shard`] (or
/// [`netsim::scenario::WorldScenario::build_shard`] for worlds with
/// pre-installed middleboxes) plus `EncoreSystem::deploy`. The builder
/// must be deterministic in the context: building the same shard twice
/// must yield identical deployments.
///
/// Each shard runs the one shard body (`run_shard`, the same function a
/// worker process runs): the world engine over
/// [`shard_recipe`]\(recipe, shards, index\), so control events (policy
/// changes, censor reactions, world changes, maintenance, rollups) are
/// **broadcast** verbatim to every shard, arrival events are **thinned**
/// 1/N, and the per-shard RNG streams come from [`shard_rngs`]
/// (`SimRng::split` / `long_jump`, shard 0 reproducing the serial stream
/// exactly). The shards drain through the process carrier's coordinator
/// and merge **in shard-index order** through the associative
/// [`crate::analytics::Merge`] path, so the result is deterministic in
/// `(seed, recipe, shards, scenario)` no matter how the threads were
/// scheduled — and at `shards == 1` it is byte-identical to the serial
/// engine on the same recipe (`tests/world_shard_equivalence.rs`). A
/// shard's panic is re-raised here.
pub fn run_sharded_world<F>(
    build: &F,
    audience: &Audience,
    recipe: &WorldRecipe,
    shards: usize,
    seed: u64,
) -> ShardedWorldRun
where
    F: Fn(ShardContext) -> (Network, EncoreSystem) + Sync,
{
    assert!(shards >= 1, "shard count must be at least 1");
    let mut lanes = ThreadShard::all(build, audience, recipe, shards, seed);
    let drained = drain(&mut lanes, hardware_lanes());
    drained.expect("in-process shard outputs merge").0
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use netsim::geo::country;
    use netsim::http::{ContentType, HttpResponse};
    use netsim::scenario::NetworkScenario;

    fn scenario() -> NetworkScenario {
        NetworkScenario::new().with_ideal_paths().with_server(
            "target.example",
            country("US"),
            HttpResponse::ok(ContentType::Image, 400),
        )
    }

    /// The crate's small test world: one image target, one academic
    /// origin, ideal paths.
    pub(crate) fn build(ctx: ShardContext) -> (Network, EncoreSystem) {
        let net = scenario().build_shard(ctx.index, ctx.shards);
        crate::world::tests::deploy_measuring(net, "target.example")
    }

    #[test]
    fn visits_partition_exactly() {
        let total = BatchConfig {
            visits: 10,
            ..BatchConfig::default()
        };
        for shards in [1usize, 2, 3, 7, 10, 11] {
            let sum: u64 = (0..shards)
                .map(|i| shard_batch_config(&total, shards, i).visits)
                .sum();
            assert_eq!(sum, 10, "visits lost at {shards} shards");
        }
    }

    #[test]
    fn one_shard_config_is_the_serial_config() {
        let total = BatchConfig::default();
        assert_eq!(shard_batch_config(&total, 1, 0), total);
        // Including degenerate configs — a zero pool must stay zero, or
        // the 1-shard RNG stream diverges from the serial driver's.
        let no_pool = BatchConfig {
            client_pool: 0,
            ..BatchConfig::default()
        };
        assert_eq!(shard_batch_config(&no_pool, 1, 0), no_pool);
        assert_eq!(shard_batch_config(&no_pool, 4, 2).client_pool, 0);
    }

    #[test]
    fn gap_scales_with_shard_count() {
        let total = BatchConfig::default();
        let two = shard_batch_config(&total, 2, 0);
        assert_eq!(
            two.mean_gap.as_millis_f64(),
            total.mean_gap.as_millis_f64() * 2.0
        );
    }

    /// `visits` batch visits across `shards` shards of the test world.
    fn run_batch(shards: usize, visits: u64, seed: u64) -> ShardedWorldRun {
        let recipe = WorldRecipe::batch(BatchConfig {
            visits,
            ..BatchConfig::default()
        });
        run_sharded_world(&build, &Audience::academic(), &recipe, shards, seed)
    }

    #[test]
    fn sharded_run_produces_merged_measurements() {
        let run = run_batch(2, 1_000, 0x5A4D);
        let report = run.outcome.report;
        assert_eq!(report.visits, 1_000);
        assert_eq!(run.per_shard.len(), 2);
        assert_eq!(run.per_shard[0].visits, 500);
        assert_eq!(run.per_shard[1].visits, 500);
        assert!(report.results_delivered > 100, "{report:?}");
        assert!(!run.collection.is_empty());
        // Every record geolocates through the merged striped database.
        let located = run
            .collection
            .records
            .iter()
            .filter(|r| run.geo.lookup(r.client_ip).is_some())
            .count();
        assert_eq!(located, run.collection.len());
    }

    #[test]
    fn sharded_run_is_reproducible() {
        let (a, b) = (run_batch(3, 300, 77), run_batch(3, 300, 77));
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.collection, b.collection);
        assert_eq!(a.per_shard, b.per_shard);
    }

    #[test]
    fn shards_see_different_streams() {
        let run = run_batch(2, 400, 3);
        assert_ne!(
            run.per_shard[0], run.per_shard[1],
            "shards replayed the same stream"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_shards_rejected() {
        let _ = run_batch(0, 10, 1);
    }
}

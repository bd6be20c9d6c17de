//! Fixtures only the root tests share: the scenarios and verdict
//! helpers no `bench` command and no benchmark workload runs.
//!
//! They live apart from the production fixtures in the crate root so
//! that every other `pub` item of the workspace has a production caller
//! (`tests/public_surface.rs` exempts this module, and only this one).

use censor::policy::{CensorPolicy, Mechanism};
use censor::timeline::CensorSpec;
use netsim::geo::{country, World};
use population::{Audience, Scenario, WorldBuild, WorldRecipe};

use crate::world_fixture::TARGET;

/// `world` under `recipe`, visited by the world audience: how the root
/// tests run a fixture world.
pub fn scenario(world: WorldBuild, recipe: WorldRecipe) -> Scenario {
    Scenario {
        world,
        audience: Audience::world(&World::builtin()),
        recipe,
    }
}

/// [`crate::shard_fixture::censored`] without its censors: the
/// uncensored control world.
pub fn uncensored() -> WorldBuild {
    WorldBuild {
        censors: Vec::new(),
        ..crate::shard_fixture::censored()
    }
}

/// Sorted, deduplicated `domain:country` verdict keys from the §7.2
/// detector over a merged record set — the one definition of "verdict"
/// the shard-equivalence harness compares.
pub fn verdict_keys(records: &[encore::StoredMeasurement], geo: &encore::GeoDb) -> Vec<String> {
    let mut keys: Vec<String> = encore::FilteringDetector::default()
        .detect(records, geo)
        .into_iter()
        .map(|d| format!("{}:{}", d.domain, d.country))
        .collect();
    keys.sort();
    keys.dedup();
    keys
}

/// [`crate::world_fixture`]'s world with a **standing** Chinese censor
/// — censorship already in force when the run starts, alongside the
/// scheduled Turkish block. Every shard materialises the same
/// [`CensorSpec`] against its own network.
pub fn with_standing_censor() -> WorldBuild {
    WorldBuild {
        censors: vec![standing_censor()],
        ..crate::world_fixture::world()
    }
}

/// The standing censor: China blocks the target for the whole run.
pub fn standing_censor() -> CensorSpec {
    CensorSpec::new(
        country("CN"),
        CensorPolicy::named("cn-standing-block").block_domain(TARGET, Mechanism::DnsNxDomain),
    )
}

/// The shared adversarial-world fixture: a 30-day world under an
/// **escalating adaptive censor** ([`censor::adaptive::AdaptiveCensor`])
/// driven by scheduled reactions — Iran watches the target from day 0,
/// injects RSTs from day 6, poisons DNS (1-hour lying TTL) from day 12,
/// null-routes from day 18, retaliates against the Encore collection
/// server itself from day 24, and stands down at day 27.
///
/// One definition serves `tests/adaptive_world.rs` (golden snapshot +
/// 1-vs-2-shard verdict check) so the scenario CI gates on is provably
/// the scenario the harness checks.
pub mod adaptive_fixture {
    use censor::adaptive::{AdaptiveSpec, Reaction, ReactionPolicy, Stage};
    use netsim::geo::{country, CountryCode};
    use population::{DeploymentConfig, WorldBuild, WorldRecipe};
    use sim_core::{SimDuration, SimTime};

    /// The watched measurement target — the *same* domain the timeline
    /// fixture's deployment measures, re-exported so the censor's watch
    /// list and the measurement tasks can never silently de-correlate.
    pub use crate::world_fixture::TARGET;
    /// The adaptive censor's diagnostic name.
    pub const CENSOR: &str = "ir-adaptive";
    /// The censoring country.
    pub fn censor_country() -> CountryCode {
        country("IR")
    }

    /// Day each rung engages: RST injection, DNS poisoning, IP blocking,
    /// retaliation, stand-down.
    pub const RST_DAY: u64 = 6;
    /// See [`RST_DAY`].
    pub const POISON_DAY: u64 = 12;
    /// See [`RST_DAY`].
    pub const IP_BLOCK_DAY: u64 = 18;
    /// See [`RST_DAY`].
    pub const RETALIATE_DAY: u64 = 24;
    /// See [`RST_DAY`].
    pub const STAND_DOWN_DAY: u64 = 27;

    fn day(d: u64) -> SimTime {
        SimTime::from_secs(d * 86_400)
    }

    /// The standing adaptive censor: Iran watching the target, 1-hour
    /// lying poison TTL, retaliation aimed at the collection server.
    pub fn adaptive_spec() -> AdaptiveSpec {
        AdaptiveSpec::new(CENSOR, censor_country(), vec![TARGET.to_string()])
            .with_poison_ttl(SimDuration::from_secs(3_600))
    }

    /// The escalation schedule as a broadcastable reaction policy.
    pub fn reactions() -> ReactionPolicy {
        ReactionPolicy::new(CENSOR)
            .at(day(RST_DAY), Reaction::SetStage(Stage::RstInjection))
            .at(day(POISON_DAY), Reaction::SetStage(Stage::DnsPoison))
            .at(day(IP_BLOCK_DAY), Reaction::SetStage(Stage::IpBlock))
            .at(day(RETALIATE_DAY), Reaction::SetStage(Stage::Retaliate))
            .at(day(STAND_DOWN_DAY), Reaction::StandDown)
    }

    /// The 30-day longitudinal recipe: Poisson arrivals, the escalation
    /// schedule, daily rollups, hourly maintenance.
    ///
    /// The repeat-visitor rate is kept low for the same reason the
    /// simcheck detector-class generator keeps it low: returning
    /// clients' warm browser caches mask the block (§3.1 cache
    /// interference), and during the *probabilistic* RST rung that can
    /// push a low-n day cell into the binomial test's ambiguous zone,
    /// where the verdict would depend on per-shard arrival draws. At
    /// 0.05 every censored day stays decisively flagged at any shard
    /// count.
    pub fn recipe(days: u64, visits_per_day_per_weight: f64) -> WorldRecipe {
        WorldRecipe::deployment(DeploymentConfig {
            duration: SimDuration::from_days(days),
            visits_per_day_per_weight,
            repeat_visitor_rate: 0.05,
            ..DeploymentConfig::default()
        })
        .with_reaction(reactions())
        .with_rollups(SimDuration::from_days(1))
        .with_maintenance(SimDuration::from_secs(3_600))
    }

    /// The timeline fixture's world plus the standing adaptive censor,
    /// built against each shard's own network.
    pub fn world() -> WorldBuild {
        WorldBuild {
            adaptive: vec![(adaptive_spec(), Vec::new())],
            ..crate::world_fixture::world()
        }
    }
}

/// The shared congestion-vs-censorship fixture: a 30-day **routed**
/// world (scale-free AS topology, Turkey's path to the US-hosted target
/// forced across a transit hotspot) where a week-long transit brownout
/// (days [`BROWNOUT_START`]..[`BROWNOUT_END`]) brackets a real DNS
/// block (days [`BLOCK_ONSET`]..[`BLOCK_LIFT`]). The two brownout-only
/// days before the block are the trap: a detector that reads shed
/// fetches as censorship advances the onset to day 8; the
/// congestion-aware detector must localise onset exactly at
/// [`BLOCK_ONSET`] and never flag days 8–9.
///
/// One definition serves `tests/congested_world.rs` (golden snapshot +
/// 1-vs-2-shard verdict check), so the scenario CI gates on is provably
/// the scenario the harness checks.
///
/// [`BROWNOUT_START`]: congested_fixture::BROWNOUT_START
/// [`BROWNOUT_END`]: congested_fixture::BROWNOUT_END
/// [`BLOCK_ONSET`]: congested_fixture::BLOCK_ONSET
/// [`BLOCK_LIFT`]: congested_fixture::BLOCK_LIFT
pub mod congested_fixture {
    use censor::policy::{CensorPolicy, Mechanism};
    use censor::timeline::{CensorSpec, PolicyChange, PolicyTimeline};
    use netsim::geo::{country, CountryCode};
    use netsim::TopologySpec;
    use population::{DeploymentConfig, WorldBuild, WorldChange, WorldRecipe};
    use sim_core::{SimDuration, SimTime};

    /// The measured (and blocked) domain — shared with the timeline
    /// fixture so the scenarios stay comparable.
    pub use crate::world_fixture::TARGET;

    /// Seed of the scale-free AS topology the fixture routes over.
    pub const TOPOLOGY_SEED: u64 = 7;
    /// Day the transit brownout begins (background load jumps to
    /// [`BROWNOUT_LEVEL`] on every hotspot link).
    pub const BROWNOUT_START: u64 = 8;
    /// Day the brownout clears.
    pub const BROWNOUT_END: u64 = 14;
    /// Day the real DNS block lands — two days *into* the brownout.
    pub const BLOCK_ONSET: u64 = 10;
    /// Day the block lifts (with the brownout still fading the same day).
    pub const BLOCK_LIFT: u64 = 14;
    /// Brownout background utilisation: above the 0.7 shed threshold,
    /// below collapse — the congestion-class generator's powered range.
    pub const BROWNOUT_LEVEL: f64 = 0.82;

    /// The censoring country, whose route to the US target crosses the
    /// browned-out hotspot.
    pub fn censor_country() -> CountryCode {
        country("TR")
    }

    /// The timeline fixture's world routed over the seeded AS topology,
    /// with the censored country's path to the target forced across a
    /// transit hotspot link. `build_shard` scales hotspot capacity by
    /// the shard count, keeping utilisation — and thus verdicts —
    /// invariant in how the offered load is split.
    pub fn world() -> WorldBuild {
        let mut world = crate::world_fixture::world();
        world.network = world.network.with_topology(
            TopologySpec::with_seed(TOPOLOGY_SEED)
                .with_hotspot_between(censor_country(), country("US")),
        );
        world
    }

    /// The day-10 block as a policy timeline (DNS NXDOMAIN, the
    /// March-2014 mechanism).
    pub fn block_timeline() -> PolicyTimeline {
        PolicyTimeline::new()
            .at(
                day(BLOCK_ONSET),
                PolicyChange::Install(CensorSpec::new(
                    censor_country(),
                    CensorPolicy::named("tr-congested-block")
                        .block_domain(TARGET, Mechanism::DnsNxDomain),
                )),
            )
            .at(
                day(BLOCK_LIFT),
                PolicyChange::Lift {
                    name: "tr-congested-block".into(),
                },
            )
    }

    /// The full longitudinal recipe: `days` of Poisson arrivals, the
    /// day-10 block, and the transit brownout as a pair of **world
    /// changes** — data-plane only, so congestion never counts as a
    /// control signal and never recompiles the middlebox pipeline.
    pub fn recipe(days: u64, visits_per_day_per_weight: f64) -> WorldRecipe {
        WorldRecipe::deployment(DeploymentConfig {
            duration: SimDuration::from_days(days),
            visits_per_day_per_weight,
            repeat_visitor_rate: 0.05,
            ..DeploymentConfig::default()
        })
        .with_timeline(block_timeline())
        .change_at(
            day(BROWNOUT_START),
            WorldChange::HotspotBackground(BROWNOUT_LEVEL),
        )
        .change_at(day(BROWNOUT_END), WorldChange::HotspotBackground(0.0))
        .with_rollups(SimDuration::from_days(1))
        .with_maintenance(SimDuration::from_secs(3_600))
    }

    /// Convert a day number to simulated time.
    pub fn day(d: u64) -> SimTime {
        SimTime::from_secs(d * 86_400)
    }
}

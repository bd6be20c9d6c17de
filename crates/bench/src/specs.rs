//! The `bench` fixture worlds by name, and the worker role.
//!
//! [`BenchWorldSpec`] names a fixture world plus its parameters, and
//! describes it as the [`population::Scenario`] that crosses a process
//! boundary: the `bench` binary in its [`SHARD_ROLE`] rebuilds from the
//! scenario's bytes exactly the world the coordinator described.

use crate::{corpus_fixture, world_fixture};
use encore::system::EncoreSystem;
use netsim::geo::World;
use netsim::network::Network;
use population::transport::WorldSpec;
use population::{Audience, Scenario, ShardContext, WorldBuild, WorldRecipe};
use serde::{Deserialize, Serialize};

/// Which fixture world a distributed run executes, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BenchWorldSpec {
    /// The §1-motivated Turkey onset/lift timeline
    /// ([`world_fixture`]).
    Timeline {
        /// Simulated days.
        days: u64,
        /// Visits per day per audience weight.
        rate: f64,
        /// Run with bounded-memory streaming analytics (sketch +
        /// reservoir + per-window count matrices) instead of the exact
        /// record log; `bench timeline` always sets it. Absent on the
        /// wire for exact runs, so pre-streaming coordinators and
        /// workers interoperate.
        #[serde(default, skip_serializing_if = "std::ops::Not::not")]
        streaming: bool,
    },
    /// The generative-corpus multi-country world report
    /// ([`corpus_fixture`]).
    Corpus {
        /// Simulated days.
        days: u64,
        /// Visits per day per audience weight.
        rate: f64,
    },
}

impl BenchWorldSpec {
    /// The fixture's world build.
    fn world(&self) -> WorldBuild {
        match self {
            BenchWorldSpec::Timeline { .. } => world_fixture::world(),
            BenchWorldSpec::Corpus { .. } => corpus_fixture::world(),
        }
    }

    /// The whole run as a [`Scenario`].
    pub fn scenario(&self) -> Scenario {
        Scenario {
            world: self.world(),
            audience: self.audience(),
            recipe: self.recipe(),
        }
    }
}

impl WorldSpec for BenchWorldSpec {
    fn audience(&self) -> Audience {
        match self {
            BenchWorldSpec::Timeline { .. } => Audience::world(&World::builtin()),
            BenchWorldSpec::Corpus { .. } => corpus_fixture::audience(),
        }
    }

    fn recipe(&self) -> WorldRecipe {
        match *self {
            BenchWorldSpec::Timeline {
                days,
                rate,
                streaming,
            } => {
                let recipe = world_fixture::recipe(days, rate);
                if streaming {
                    // Window = the fixture's daily rollup cadence, so
                    // windows close exactly as rollups fire.
                    recipe.with_streaming(population::StreamingSpec::with_window(
                        sim_core::SimDuration::from_days(1),
                    ))
                } else {
                    recipe
                }
            }
            BenchWorldSpec::Corpus { days, rate } => corpus_fixture::recipe(days, rate),
        }
    }

    fn build(&self, ctx: ShardContext) -> (Network, EncoreSystem) {
        self.world().build(ctx)
    }
}

/// The `bench` worker role, which runs `worker_main::<Scenario>()`:
/// `ProcessTransport::new(bench_exe).with_role(SHARD_ROLE)`.
pub const SHARD_ROLE: &str = "shard-worker";

#[cfg(test)]
mod tests {
    use super::*;

    /// Every fixture world, by name.
    fn specs() -> [BenchWorldSpec; 3] {
        let (days, rate) = (30, 150.0);
        [
            BenchWorldSpec::Timeline {
                days,
                rate,
                streaming: false,
            },
            BenchWorldSpec::Timeline {
                days,
                rate,
                streaming: true,
            },
            BenchWorldSpec::Corpus {
                days: corpus_fixture::DAYS,
                rate: corpus_fixture::RATE,
            },
        ]
    }

    #[test]
    fn specs_round_trip_through_json() {
        specs().iter().for_each(round_trips);
    }

    #[test]
    fn exact_timeline_spec_wire_bytes_are_pre_streaming() {
        // Exact-mode specs must serialize without the streaming field
        // at all, so a coordinator built at this revision can drive a
        // pre-streaming worker (and vice versa via serde(default)).
        let spec = BenchWorldSpec::Timeline {
            days: 30,
            rate: 150.0,
            streaming: false,
        };
        let json = serde_json::to_string(&spec).unwrap();
        assert!(
            !json.contains("streaming"),
            "exact spec leaked the flag: {json}"
        );
    }

    #[test]
    fn spec_recipe_matches_fixture_recipe() {
        // The spec is only honest if it rebuilds exactly the fixture
        // recipe.
        let timeline = BenchWorldSpec::Timeline {
            days: 12,
            rate: 150.0,
            streaming: false,
        };
        assert_eq!(timeline.recipe(), world_fixture::recipe(12, 150.0));
        let corpus = BenchWorldSpec::Corpus {
            days: 45,
            rate: 20.0,
        };
        assert_eq!(corpus.recipe(), corpus_fixture::recipe(45, 20.0));
    }

    /// `value` survives JSON and `serde::bin` unchanged.
    fn round_trips<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: &T) {
        let json = serde_json::to_string(value).unwrap();
        let from_json: T = serde_json::from_str(&json).unwrap();
        assert_eq!(&from_json, value, "drifted through JSON: {json}");
        let from_bin: T = serde::bin::from_slice(&serde::bin::to_vec(value)).unwrap();
        assert_eq!(&from_bin, value, "drifted through bytes: {json}");
    }

    #[test]
    fn every_recipe_round_trips_through_both_codecs() {
        use crate::shard_fixture;
        use crate::testkit::{self, adaptive_fixture, congested_fixture};
        use simcheck::{CaseClass, WorldCase};
        let recipes = [
            world_fixture::recipe(30, 150.0),
            adaptive_fixture::recipe(30, 160.5),
            congested_fixture::recipe(18, 150.0),
            corpus_fixture::recipe(corpus_fixture::DAYS, corpus_fixture::RATE),
        ];
        let batch = WorldRecipe::batch(shard_fixture::batch(1_000));
        let mut scenarios = vec![
            testkit::scenario(shard_fixture::censored(), batch.clone()),
            testkit::scenario(testkit::uncensored(), batch),
            testkit::scenario(testkit::with_standing_censor(), recipes[0].clone()),
            testkit::scenario(adaptive_fixture::world(), recipes[1].clone()),
            testkit::scenario(congested_fixture::world(), recipes[2].clone()),
        ];
        scenarios.extend(specs().map(|spec| spec.scenario()));
        let classes = ["equivalence", "detector", "congestion", "corpus"];
        for class in classes.map(|name| CaseClass::from_name(name).expect("a class")) {
            scenarios.push(WorldCase::from_seed(class, 0x5EED).scenario());
        }
        recipes.iter().for_each(round_trips);
        scenarios.iter().for_each(round_trips);
    }
}

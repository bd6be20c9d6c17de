//! Serializable world specs for the `bench` commands — the
//! process-transport counterpart of the fixture modules.
//!
//! A [`population::transport::WorldSpec`] must cross a process boundary
//! as bytes. A recipe is data, but a fixture's world build is code, so
//! [`BenchWorldSpec`] names a fixture plus its parameters; the worker
//! process (the `bench` binary re-executed in its [`SHARD_ROLE`])
//! rebuilds exactly the world the coordinator described by calling the
//! same deterministic fixture functions. Both transport backends
//! therefore execute identical worlds — the byte-equivalence the
//! transport suite and simcheck's transport oracle prove.

use crate::{corpus_fixture, world_fixture};
use encore::system::EncoreSystem;
use netsim::geo::World;
use netsim::network::Network;
use population::transport::WorldSpec;
use population::{Audience, ShardContext, WorldRecipe};
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
        /// reservoir + windowed fold-and-evict) instead of the exact
        /// record log. Absent on the wire for exact runs, so
        /// pre-streaming coordinators and workers interoperate.
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
        match self {
            BenchWorldSpec::Timeline { .. } => world_fixture::build(ctx),
            BenchWorldSpec::Corpus { .. } => corpus_fixture::build(ctx),
        }
    }
}

/// The `bench` worker role that runs `worker_main::<BenchWorldSpec>()`:
/// `ProcessTransport::new(bench_exe).with_role(SHARD_ROLE)`.
pub const SHARD_ROLE: &str = "shard-worker";
/// The `bench` worker role that runs
/// `worker_main::<simcheck::WorldCase>()` for simcheck's transport oracle.
pub const CASE_ROLE: &str = "case-worker";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_json() {
        for spec in [
            BenchWorldSpec::Timeline {
                days: 30,
                rate: 150.0,
                streaming: false,
            },
            BenchWorldSpec::Timeline {
                days: 30,
                rate: 150.0,
                streaming: true,
            },
            BenchWorldSpec::Corpus {
                days: 90,
                rate: 400.0,
            },
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: BenchWorldSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "spec drifted through the wire: {json}");
        }
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

    #[test]
    fn every_recipe_round_trips_through_both_codecs() {
        use crate::testkit::{adaptive_fixture, congested_fixture};
        use simcheck::{CaseClass, WorldCase};
        let mut recipes = vec![
            world_fixture::recipe(30, 150.0),
            adaptive_fixture::recipe(30, 160.5),
            congested_fixture::recipe(18, 150.0),
            corpus_fixture::recipe(corpus_fixture::DAYS, corpus_fixture::RATE),
        ];
        for class in [
            CaseClass::Equivalence,
            CaseClass::Detector,
            CaseClass::Congestion,
            CaseClass::Corpus,
        ] {
            recipes.push(WorldCase::from_seed(class, 0x5EED).recipe());
        }
        for recipe in recipes {
            let json = serde_json::to_string(&recipe).unwrap();
            let from_json: WorldRecipe = serde_json::from_str(&json).unwrap();
            assert_eq!(from_json, recipe, "recipe drifted through JSON: {json}");
            let from_bin: WorldRecipe =
                serde::bin::from_slice(&serde::bin::to_vec(&recipe)).unwrap();
            assert_eq!(from_bin, recipe, "recipe drifted through bytes: {json}");
        }
    }
}

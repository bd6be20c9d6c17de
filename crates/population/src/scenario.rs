//! A world as a value. A [`Scenario`] is plain data, so it crosses a
//! worker pipe as bytes, and every shard builds its world from it with
//! the one [`WorldBuild::build`] — as Encore's coordinator hands each
//! vantage point a task description any browser can run.

use crate::audience::Audience;
use crate::shard::ShardContext;
use crate::transport::WorldSpec;
use crate::world::WorldRecipe;
use censor::adaptive::AdaptiveSpec;
use censor::timeline::CensorSpec;
use encore::coordination::SchedulingStrategy;
use encore::delivery::OriginSite;
use encore::system::EncoreSystem;
use encore::tasks::{MeasurementId, MeasurementTask, TaskSpec};
use netsim::geo::country;
use netsim::network::Network;
use netsim::scenario::NetworkScenario;
use serde::{Deserialize, Serialize};
use sim_core::SimRng;
use websim::corpus::{Corpus, CorpusConfig};

/// A site a world build names: by its domain, or as the site at a rank
/// of the build's generated corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Domain {
    /// A domain spelled out.
    Name(String),
    /// The corpus site at this rank (0 = most popular).
    CorpusRank(usize),
}

/// How to build one shard's world: a network, the standing censors and
/// corpus on it, and the Encore deployment that measures it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldBuild {
    /// Hosts, paths and topology.
    pub network: NetworkScenario,
    /// A generated corpus to install, as `(config, seed)`.
    pub corpus: Option<(CorpusConfig, u64)>,
    /// Standing adaptive censors, each watching its spec's domains plus
    /// these.
    pub adaptive: Vec<(AdaptiveSpec, Vec<Domain>)>,
    /// Standing national censors.
    pub censors: Vec<CensorSpec>,
    /// One favicon task per domain, IDs in this order.
    pub targets: Vec<Domain>,
    /// The volunteer origins Encore is deployed on.
    pub origins: Vec<OriginSite>,
}

impl WorldBuild {
    /// Build shard `ctx`: the network, the corpus (installed from
    /// `seed ^ 1`, alike on every shard), the adaptive censors (after
    /// the corpus, so a watched corpus site resolves to real addresses),
    /// the national censors, then Encore, scheduled round-robin from the
    /// US. Deterministic in `(self, ctx)`.
    pub fn build(self, ctx: ShardContext) -> (Network, EncoreSystem) {
        let mut net = self.network.build_shard(ctx.index, ctx.shards);
        let corpus = self.corpus.map(|(config, seed)| {
            let corpus = Corpus::generate(&config, &mut SimRng::new(seed))
                .expect("a world's corpus config is valid");
            corpus.install(&mut net, &mut SimRng::new(seed ^ 1));
            corpus
        });
        let name = |domain: Domain| match domain {
            Domain::Name(name) => name,
            Domain::CorpusRank(rank) => corpus
                .as_ref()
                .expect("a corpus rank names a site of the world's corpus")
                .domain(rank)
                .to_string(),
        };
        for (mut spec, watched) in self.adaptive {
            spec.watched.extend(watched.into_iter().map(name));
            net.add_middlebox(Box::new(spec.build(&net.dns)));
        }
        for spec in self.censors {
            net.add_middlebox(Box::new(spec.build(&net)));
        }
        let tasks = self
            .targets
            .into_iter()
            .zip(0..)
            .map(|(domain, id)| MeasurementTask {
                id: MeasurementId(id),
                spec: TaskSpec::Image {
                    url: format!("http://{}/favicon.ico", name(domain)),
                },
            })
            .collect();
        let sys = EncoreSystem::deploy(
            &mut net,
            tasks,
            SchedulingStrategy::RoundRobin,
            self.origins,
            country("US"),
        );
        (net, sys)
    }
}

/// A whole sharded run as data: the world each shard builds, the
/// audience its visitors come from, and the *total* recipe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Each shard's world.
    pub world: WorldBuild,
    /// Who visits.
    pub audience: Audience,
    /// Arrivals plus the control plane, before sharding.
    pub recipe: WorldRecipe,
}

impl WorldSpec for Scenario {
    fn audience(&self) -> Audience {
        self.audience.clone()
    }

    fn recipe(&self) -> WorldRecipe {
        self.recipe.clone()
    }

    fn build(&self, ctx: ShardContext) -> (Network, EncoreSystem) {
        self.world.clone().build(ctx)
    }
}

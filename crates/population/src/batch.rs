//! Batched multi-client execution: amortise session state across a whole
//! audience.
//!
//! The Poisson driver in [`crate::driver`] is faithful to the §6.2 pilot
//! but allocates per-visit state eagerly: it materialises the entire
//! arrival schedule up front and logs every visit, which is exactly what a
//! production-scale run (the ROADMAP's "millions of users") cannot afford.
//! The batch driver is the throughput-oriented counterpart:
//!
//! * arrivals are generated **incrementally** (no schedule vector);
//! * browser clients — and therefore their [`netsim::FetchSession`]s,
//!   with compiled censor pipelines, DNS host caches, and keep-alive
//!   pools — persist in a bounded pool across visits, so the substrate
//!   cost per visit amortises the way real repeat traffic does;
//! * results aggregate into counters instead of a per-visit log, keeping
//!   memory flat no matter how many visits run.
//!
//! Everything still flows through the session layer: the batch driver
//! never touches DNS/TCP/HTTP stages itself, it only orchestrates
//! [`encore::system::EncoreSystem::run_visit`] calls.
//!
//! A batch is an arrival mode of the world engine
//! ([`crate::world::WorldRecipe::batch`]): arrivals are self-scheduling
//! events on the world's queue, bit-identical to the pre-engine loop for
//! any fixed seed (`tests/world_engine_equivalence.rs` enforces this
//! against a verbatim copy of the legacy implementation).

use crate::analytics::VisitTally;
use browser::BrowserClient;
use serde::{Deserialize, Serialize};
use sim_core::SimDuration;

/// Batch-driver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchConfig {
    /// Number of visits to execute.
    pub visits: u64,
    /// Mean inter-arrival gap between visits (Poisson process).
    pub mean_gap: SimDuration,
    /// Probability a visit comes from a pooled returning client (warm
    /// HTTP cache, warm DNS, live keep-alive connections) rather than a
    /// fresh one.
    pub repeat_visitor_rate: f64,
    /// Cap on the persistent client pool (bounds memory).
    pub client_pool: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            visits: 10_000,
            // ~25 visits/minute: a busy origin.
            mean_gap: SimDuration::from_millis(2_400),
            repeat_visitor_rate: 0.35,
            client_pool: 512,
        }
    }
}

/// Aggregated outcome of a batch run. Counters only — per-visit records
/// are deliberately not retained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchReport {
    /// Visits executed.
    pub visits: u64,
    /// Visits whose origin page loaded.
    pub origin_loads: u64,
    /// Visits that obtained at least one measurement task.
    pub visits_with_tasks: u64,
    /// Measurement tasks executed in total.
    pub tasks_executed: u64,
    /// Results that reached the collection server.
    pub results_delivered: u64,
    /// Fresh clients created.
    pub clients_created: u64,
    /// Visits served by a pooled returning client.
    pub clients_reused: u64,
    /// Session-layer DNS cache hits summed over all clients.
    pub dns_cache_hits: u64,
    /// Session-layer connection reuses summed over all clients.
    pub connections_reused: u64,
    /// Total fetches issued through the session layer.
    pub session_fetches: u64,
    /// Simulated time span covered by the batch.
    pub sim_span: SimDuration,
}

impl BatchReport {
    pub(crate) fn absorb_session(&mut self, client: &BrowserClient) {
        let s = client.session.stats();
        self.dns_cache_hits += s.dns_cache_hits;
        self.connections_reused += s.connections_reused;
        self.session_fetches += s.fetches;
    }

    /// Fold one classified visit ([`crate::analytics::tally_outcome`])
    /// into the counters — the only place a visit outcome turns into
    /// report arithmetic.
    pub fn record_visit(&mut self, tally: &VisitTally) {
        self.visits += 1;
        self.origin_loads += u64::from(tally.origin_loaded);
        self.visits_with_tasks += u64::from(tally.got_task);
        self.tasks_executed += tally.tasks_executed;
        self.results_delivered += tally.results_delivered;
    }

    /// Combine two reports: counters add, spans take the maximum (shards
    /// run concurrently over the same simulated window, so the union's
    /// span is the longest shard's, not the sum).
    ///
    /// `merge` is associative and commutative with
    /// [`BatchReport::default`] as the identity element — the algebra the
    /// sharded runner relies on to make merged output independent of
    /// thread completion order. The arithmetic itself lives in the one
    /// shared merge path, [`crate::analytics::Merge`]; this is a
    /// convenience wrapper.
    pub fn merge(self, other: &BatchReport) -> BatchReport {
        crate::analytics::Merge::merge(self, *other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audience::Audience;
    use crate::world::tests::deployment_world;
    use crate::world::{WorldEngine, WorldRecipe};
    use encore::coordination::SchedulingStrategy;
    use encore::delivery::OriginSite;
    use encore::system::EncoreSystem;
    use netsim::geo::{country, World};
    use netsim::network::Network;
    use sim_core::SimRng;

    /// One serial batch run over the academic audience.
    fn run_batch(
        net: &mut Network,
        sys: &mut EncoreSystem,
        config: BatchConfig,
        seed: u64,
    ) -> BatchReport {
        let recipe = WorldRecipe::batch(config);
        let mut rng = SimRng::new(seed);
        WorldEngine::from_recipe(net, sys, &Audience::academic(), &recipe, &mut rng)
            .run()
            .report
    }

    #[test]
    fn batch_produces_measurements_and_amortises_sessions() {
        let (mut net, mut sys) = deployment_world();
        let config = BatchConfig {
            visits: 2_000,
            ..BatchConfig::default()
        };
        let report = run_batch(&mut net, &mut sys, config, 0xBA7C);

        assert_eq!(report.visits, 2_000);
        assert!(report.origin_loads > 1_800, "origins load: {report:?}");
        assert!(report.tasks_executed > 400, "tasks: {report:?}");
        assert!(report.results_delivered > 400, "results: {report:?}");
        assert!(!sys.collection.is_empty(), "collector saw traffic");

        // The whole point of the batch driver: repeat visitors actually
        // amortise transport state.
        assert!(report.clients_reused > 300, "reuse: {report:?}");
        assert!(report.dns_cache_hits > 0, "warm DNS: {report:?}");
        assert!(report.connections_reused > 0, "keep-alive: {report:?}");
        assert_eq!(
            report.clients_created + report.clients_reused,
            report.visits
        );
    }

    #[test]
    fn batch_is_deterministic() {
        let run = |seed: u64| {
            let (mut net, mut sys) = deployment_world();
            let config = BatchConfig {
                visits: 500,
                ..BatchConfig::default()
            };
            let r = run_batch(&mut net, &mut sys, config, seed);
            (r, sys.collection.len())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn zero_weight_origins_short_circuit() {
        let mut net = Network::ideal(World::builtin());
        let origin = OriginSite::academic("ghost.example").with_popularity(0.0);
        let mut sys = EncoreSystem::deploy(
            &mut net,
            vec![],
            SchedulingStrategy::Random,
            vec![origin],
            country("US"),
        );
        let report = run_batch(&mut net, &mut sys, BatchConfig::default(), 1);
        assert_eq!(report.visits, 0);
    }

    #[test]
    fn pool_respects_cap() {
        let (mut net, mut sys) = deployment_world();
        let config = BatchConfig {
            visits: 300,
            client_pool: 8,
            repeat_visitor_rate: 0.0,
            ..BatchConfig::default()
        };
        let report = run_batch(&mut net, &mut sys, config, 9);
        assert_eq!(report.clients_created, 300);
        assert_eq!(report.clients_reused, 0);
        // Session stats from evicted clients are still banked: every visit
        // fetched at least the origin page.
        assert!(report.session_fetches >= report.origin_loads);
    }
}

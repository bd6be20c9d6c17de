//! Deployment mode: Poisson visit arrivals over simulated months.
//!
//! Each arrival samples a visitor from the origin's audience, creates a
//! browser client at that vantage point, and runs the full Figure 2 visit
//! flow. This arrival mode of the world engine
//! ([`crate::world::WorldRecipe::deployment`]) is how the §6.2 pilot (one
//! academic page, one month) and the §7 study (many origins, seven
//! months, 141,626 measurements) are both expressed.

use encore::system::VisitOutcome;
use netsim::geo::CountryCode;
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime};

/// Driver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeploymentConfig {
    /// Simulated time span.
    pub duration: SimDuration,
    /// Mean visits per day per unit of origin popularity weight.
    pub visits_per_day_per_weight: f64,
    /// Probability a visit comes from a returning client (same IP, warm
    /// cache) rather than a fresh one.
    pub repeat_visitor_rate: f64,
    /// Cap on retained returning clients (bounds memory).
    pub returning_pool: usize,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            duration: SimDuration::from_days(28),
            visits_per_day_per_weight: 40.0,
            repeat_visitor_rate: 0.2,
            returning_pool: 256,
        }
    }
}

/// One visit's record (the driver's analogue of a Google-Analytics row
/// plus Encore's own outcome).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VisitRecord {
    /// Arrival time.
    pub at: SimTime,
    /// Which origin was visited (index into the system's origin list).
    pub origin_index: usize,
    /// Visitor country (ground truth, for analytics — the *detector*
    /// only ever sees GeoIP'd addresses).
    pub country: CountryCode,
    /// Dwell time.
    pub dwell: SimDuration,
    /// Automated traffic?
    pub is_crawler: bool,
    /// What Encore observed during the visit.
    pub outcome: VisitOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audience::Audience;
    use crate::world::tests::{deployment_world, week};
    use crate::world::{WorldEngine, WorldRecipe};
    use encore::collection::SubmissionPhase;
    use encore::coordination::SchedulingStrategy;
    use encore::delivery::OriginSite;
    use encore::system::EncoreSystem;
    use encore::tasks::{MeasurementId, TaskExecution};
    use netsim::geo::{country, World};
    use netsim::network::Network;
    use sim_core::SimRng;
    use std::collections::BTreeMap;

    /// One serial week-long deployment over the academic audience.
    fn run_week(net: &mut Network, sys: &mut EncoreSystem, seed: u64) -> Vec<VisitRecord> {
        let recipe = WorldRecipe::deployment(week());
        let mut rng = SimRng::new(seed);
        WorldEngine::from_recipe(net, sys, &Audience::academic(), &recipe, &mut rng)
            .run()
            .log
    }

    #[test]
    fn deployment_produces_visits_and_measurements() {
        let (mut net, mut sys) = deployment_world();
        let log = run_week(&mut net, &mut sys, 0x715);
        // ~30/day for 7 days ≈ 210 visits.
        assert!((140..300).contains(&log.len()), "visits = {}", log.len());
        // Some visits executed tasks and submitted results.
        let measured = log
            .iter()
            .filter(|v| !v.outcome.executed.is_empty())
            .count();
        assert!(measured > 30, "measured = {measured}");
        assert!(
            sys.collection.len() > 60,
            "collector has {}",
            sys.collection.len()
        );
    }

    /// The log keeps each task's measurement ID, not the task: that ID
    /// is the one the client submitted. With the collector always
    /// reachable, the executed entries of the whole log and the store's
    /// Result records pair off one to one, and each pair agrees on what
    /// the page observed.
    #[test]
    fn logged_executions_join_the_collected_results() {
        let (mut net, mut sys) = deployment_world();
        let log = run_week(&mut net, &mut sys, 0x718);
        let mut logged: BTreeMap<MeasurementId, TaskExecution> = BTreeMap::new();
        for (id, exec) in log.iter().flat_map(|v| &v.outcome.executed) {
            assert!(logged.insert(*id, *exec).is_none(), "{id} logged twice");
        }
        let results: Vec<_> = sys
            .collection
            .records()
            .into_iter()
            .map(|r| r.submission)
            .filter(|s| s.phase == SubmissionPhase::Result)
            .collect();
        assert!(results.len() > 30, "results = {}", results.len());
        assert_eq!(results.len(), logged.len());
        for sub in &results {
            let exec = logged
                .remove(&sub.measurement_id)
                .unwrap_or_else(|| panic!("{} collected, not logged", sub.measurement_id));
            assert_eq!(sub.outcome, Some(exec.outcome));
            assert_eq!(sub.elapsed_ms, exec.elapsed.as_millis());
            assert_eq!(sub.congested, exec.congested);
        }
        assert!(logged.is_empty());
    }

    #[test]
    fn visit_log_is_chronological() {
        let (mut net, mut sys) = deployment_world();
        let log = run_week(&mut net, &mut sys, 0x716);
        for w in log.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn deployment_is_deterministic() {
        let run = |seed: u64| {
            let (mut net, mut sys) = deployment_world();
            let log = run_week(&mut net, &mut sys, seed);
            (log.len(), sys.collection.len())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn bounced_visits_run_no_tasks() {
        let (mut net, mut sys) = deployment_world();
        let log = run_week(&mut net, &mut sys, 0x717);
        for v in &log {
            if v.dwell < SimDuration::from_secs(2) {
                assert!(v.outcome.executed.is_empty());
            }
        }
    }

    #[test]
    fn zero_weight_origin_gets_no_visits() {
        let mut net = Network::ideal(World::builtin());
        let origin = OriginSite::academic("ghost.example").with_popularity(0.0);
        let mut sys = EncoreSystem::deploy(
            &mut net,
            vec![],
            SchedulingStrategy::Random,
            vec![origin],
            country("US"),
        );
        let log = run_week(&mut net, &mut sys, 1);
        assert!(log.is_empty());
    }
}

//! Event-engine equivalence harness.
//!
//! The world-engine refactor (`population::world::WorldEngine`) replaced
//! the hand-rolled deployment and batch driver loops with a
//! discrete-event queue. That refactor is only admissible if it is
//! invisible: for any fixed seed, a deployment- or batch-mode recipe run
//! by `WorldEngine::from_recipe` must produce **bit-identical** output
//! to the pre-engine drivers. This file keeps verbatim copies of the
//! legacy implementations (they used only public APIs) and pins the
//! engine against them across censored and uncensored worlds and
//! multiple seeds.
//!
//! If an intentional behaviour change ever lands in the engine, update
//! these reference copies in the same commit and say why in the message.

use encore_repro::browser::BrowserClient;
use encore_repro::censor::registry::install_world_censors;
use encore_repro::encore::coordination::SchedulingStrategy;
use encore_repro::encore::delivery::OriginSite;
use encore_repro::encore::system::EncoreSystem;
use encore_repro::encore::tasks::{MeasurementId, MeasurementTask, TaskSpec};
use encore_repro::netsim::geo::{country, World};
use encore_repro::netsim::http::{ContentType, HttpResponse};
use encore_repro::netsim::network::{ConstHandler, Network};
use encore_repro::population::{
    Audience, BatchConfig, BatchReport, DeploymentConfig, Retain, VisitRecord, WorldEngine,
    WorldRecipe,
};
use encore_repro::sim_core::dist::{Exponential, Sample};
use encore_repro::sim_core::{SimDuration, SimRng, SimTime};

// ---------------------------------------------------------------------
// Verbatim legacy drivers (pre-engine implementations).
// ---------------------------------------------------------------------

/// The Poisson deployment driver exactly as it stood before the
/// event-engine refactor.
fn legacy_run_deployment(
    net: &mut Network,
    system: &mut EncoreSystem,
    audience: &Audience,
    config: &DeploymentConfig,
    rng: &mut SimRng,
) -> Vec<VisitRecord> {
    let mut arrivals_rng = rng.fork("deployment-arrivals");
    let mut visitor_rng = rng.fork("deployment-visitors");

    let origins: Vec<OriginSite> = system.origins.clone();
    let mut schedule: Vec<(SimTime, usize)> = Vec::new();
    for (idx, origin) in origins.iter().enumerate() {
        let rate_per_day = config.visits_per_day_per_weight * origin.popularity_weight;
        if rate_per_day <= 0.0 {
            continue;
        }
        let mean_gap_secs = 86_400.0 / rate_per_day;
        let gap = Exponential::from_mean(mean_gap_secs);
        let mut t = SimTime::ZERO;
        loop {
            let dt = SimDuration::from_millis_f64(gap.sample(&mut arrivals_rng) * 1_000.0);
            t += dt;
            if t.since(SimTime::ZERO) >= config.duration {
                break;
            }
            schedule.push((t, idx));
        }
    }
    schedule.sort_by_key(|&(t, idx)| (t, idx));

    let mut returning: Vec<BrowserClient> = Vec::new();
    let mut log = Vec::with_capacity(schedule.len());

    for (at, origin_index) in schedule {
        let visitor = audience.sample(&mut visitor_rng);
        let origin = &origins[origin_index];

        let reuse = !returning.is_empty() && visitor_rng.chance(config.repeat_visitor_rate);
        let mut client = if reuse {
            let idx = visitor_rng.index(returning.len());
            returning.swap_remove(idx)
        } else {
            BrowserClient::new(
                net,
                visitor.country,
                visitor.isp,
                visitor.engine,
                &visitor_rng,
            )
        };

        let ua = visitor.user_agent(client.engine);
        let effective_dwell = visitor.effective_dwell(&mut visitor_rng);
        let outcome = system.run_visit(net, &mut client, origin, effective_dwell, at, ua);

        log.push(VisitRecord {
            at,
            origin_index,
            country: client.host.country,
            dwell: visitor.dwell,
            is_crawler: visitor.is_crawler,
            outcome,
        });

        if returning.len() < config.returning_pool {
            returning.push(client);
        }
    }
    log
}

/// The batched driver exactly as it stood before the event-engine
/// refactor.
fn legacy_run_visit_batch(
    net: &mut Network,
    system: &mut EncoreSystem,
    audience: &Audience,
    config: &BatchConfig,
    rng: &mut SimRng,
) -> BatchReport {
    let mut arrivals_rng = rng.fork("batch-arrivals");
    let mut visitor_rng = rng.fork("batch-visitors");

    let origins = system.origins.clone();
    let weights: Vec<f64> = origins.iter().map(|o| o.popularity_weight).collect();
    let gap = Exponential::from_mean(config.mean_gap.as_millis_f64());

    let mut pool: Vec<BrowserClient> = Vec::new();
    let mut report = BatchReport::default();
    let mut t = SimTime::ZERO;

    for _ in 0..config.visits {
        t += SimDuration::from_millis_f64(gap.sample(&mut arrivals_rng));
        let Some(origin_idx) = visitor_rng.pick_weighted(&weights) else {
            break;
        };
        let origin = &origins[origin_idx];
        let visitor = audience.sample(&mut visitor_rng);

        let reuse = !pool.is_empty() && visitor_rng.chance(config.repeat_visitor_rate);
        let mut client = if reuse {
            report.clients_reused += 1;
            let idx = visitor_rng.index(pool.len());
            pool.swap_remove(idx)
        } else {
            report.clients_created += 1;
            BrowserClient::new(
                net,
                visitor.country,
                visitor.isp,
                visitor.engine,
                &visitor_rng,
            )
        };

        let ua = visitor.user_agent(client.engine);
        let effective_dwell = visitor.effective_dwell(&mut visitor_rng);
        let outcome = system.run_visit(net, &mut client, origin, effective_dwell, t, ua);

        report.visits += 1;
        report.origin_loads += u64::from(outcome.origin_loaded);
        report.visits_with_tasks += u64::from(outcome.got_task);
        report.tasks_executed += outcome.executed.len() as u64;
        report.results_delivered += outcome.results_delivered as u64;

        if pool.len() < config.client_pool {
            pool.push(client);
        } else {
            let s = client.session.stats();
            report.dns_cache_hits += s.dns_cache_hits;
            report.connections_reused += s.connections_reused;
            report.session_fetches += s.fetches;
        }
    }

    for client in &pool {
        let s = client.session.stats();
        report.dns_cache_hits += s.dns_cache_hits;
        report.connections_reused += s.connections_reused;
        report.session_fetches += s.fetches;
    }
    report.sim_span = t.since(SimTime::ZERO);
    report
}

// ---------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------

fn favicon_world(censored: bool, origins: Vec<OriginSite>) -> (Network, EncoreSystem) {
    let mut net = Network::new(World::builtin());
    for domain in ["twitter.com", "youtube.com", "facebook.com"] {
        net.add_server(
            domain,
            country("US"),
            Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 500))),
        );
    }
    if censored {
        install_world_censors(&mut net);
    }
    let tasks: Vec<MeasurementTask> = ["twitter.com", "youtube.com", "facebook.com"]
        .iter()
        .enumerate()
        .map(|(i, d)| MeasurementTask {
            id: MeasurementId(i as u64),
            spec: TaskSpec::Image {
                url: format!("http://{d}/favicon.ico"),
            },
        })
        .collect();
    let sys = EncoreSystem::deploy(
        &mut net,
        tasks,
        SchedulingStrategy::RoundRobin,
        origins,
        country("US"),
    );
    (net, sys)
}

fn multi_origin() -> Vec<OriginSite> {
    vec![
        OriginSite::academic("origin-a.example").with_popularity(3.0),
        OriginSite::academic("origin-b.example").with_popularity(1.0),
        OriginSite::academic("origin-c.example").with_popularity(0.5),
    ]
}

// ---------------------------------------------------------------------
// Equivalence assertions.
// ---------------------------------------------------------------------

#[test]
fn deployment_wrapper_is_bit_identical_to_legacy_driver() {
    let audience = Audience::world(&World::builtin());
    let config = DeploymentConfig {
        duration: SimDuration::from_days(5),
        visits_per_day_per_weight: 25.0,
        ..DeploymentConfig::default()
    };
    for (seed, censored) in [(0xE7C0u64, true), (0xE7C1, false), (42, true)] {
        let (mut net_a, mut sys_a) = favicon_world(censored, multi_origin());
        let mut rng_a = SimRng::new(seed);
        let legacy = legacy_run_deployment(&mut net_a, &mut sys_a, &audience, &config, &mut rng_a);

        let (mut net_b, mut sys_b) = favicon_world(censored, multi_origin());
        let mut rng_b = SimRng::new(seed);
        let recipe = WorldRecipe::deployment(config).retain_visits(Retain::Full);
        let engine =
            WorldEngine::from_recipe(&mut net_b, &mut sys_b, &audience, &recipe, &mut rng_b)
                .run()
                .log;

        assert_eq!(
            legacy.len(),
            engine.len(),
            "visit counts diverged (seed {seed:#x}, censored={censored})"
        );
        assert_eq!(
            legacy, engine,
            "visit logs diverged (seed {seed:#x}, censored={censored})"
        );
        assert_eq!(
            sys_a.collection.snapshot(),
            sys_b.collection.snapshot(),
            "collection stores diverged (seed {seed:#x}, censored={censored})"
        );
        // The engine must also leave the caller's RNG in the same state.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }
}

#[test]
fn batch_wrapper_is_bit_identical_to_legacy_driver() {
    let audience = Audience::world(&World::builtin());
    let config = BatchConfig {
        visits: 3_000,
        mean_gap: SimDuration::from_millis(1_500),
        ..BatchConfig::default()
    };
    for (seed, censored) in [(0xBA7Cu64, true), (0xBA7D, false), (7, true)] {
        let (mut net_a, mut sys_a) = favicon_world(censored, multi_origin());
        let mut rng_a = SimRng::new(seed);
        let legacy = legacy_run_visit_batch(&mut net_a, &mut sys_a, &audience, &config, &mut rng_a);

        let (mut net_b, mut sys_b) = favicon_world(censored, multi_origin());
        let mut rng_b = SimRng::new(seed);
        let recipe = WorldRecipe::batch(config);
        let engine =
            WorldEngine::from_recipe(&mut net_b, &mut sys_b, &audience, &recipe, &mut rng_b)
                .run()
                .report;

        assert_eq!(
            legacy, engine,
            "batch reports diverged (seed {seed:#x}, censored={censored})"
        );
        assert_eq!(
            serde_json::to_string(&legacy).unwrap(),
            serde_json::to_string(&engine).unwrap()
        );
        assert_eq!(
            sys_a.collection.snapshot(),
            sys_b.collection.snapshot(),
            "collection stores diverged (seed {seed:#x}, censored={censored})"
        );
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }
}

#[test]
fn batch_wrapper_matches_legacy_on_degenerate_configs() {
    let audience = Audience::academic();
    // Zero visits, zero pool, weightless origins: every early-exit path.
    let configs = [
        BatchConfig {
            visits: 0,
            ..BatchConfig::default()
        },
        BatchConfig {
            visits: 200,
            client_pool: 0,
            repeat_visitor_rate: 0.0,
            ..BatchConfig::default()
        },
    ];
    for config in configs {
        let (mut net_a, mut sys_a) = favicon_world(false, multi_origin());
        let mut rng_a = SimRng::new(3);
        let legacy = legacy_run_visit_batch(&mut net_a, &mut sys_a, &audience, &config, &mut rng_a);
        let (mut net_b, mut sys_b) = favicon_world(false, multi_origin());
        let mut rng_b = SimRng::new(3);
        let recipe = WorldRecipe::batch(config);
        let engine =
            WorldEngine::from_recipe(&mut net_b, &mut sys_b, &audience, &recipe, &mut rng_b)
                .run()
                .report;
        assert_eq!(legacy, engine, "diverged on {config:?}");
    }

    // All origins weightless: the arrival process halts after one draw.
    let ghost = vec![OriginSite::academic("ghost.example").with_popularity(0.0)];
    let (mut net_a, mut sys_a) = favicon_world(false, ghost.clone());
    let mut rng_a = SimRng::new(4);
    let legacy = legacy_run_visit_batch(
        &mut net_a,
        &mut sys_a,
        &audience,
        &BatchConfig::default(),
        &mut rng_a,
    );
    let (mut net_b, mut sys_b) = favicon_world(false, ghost);
    let mut rng_b = SimRng::new(4);
    let recipe = WorldRecipe::batch(BatchConfig::default());
    let engine = WorldEngine::from_recipe(&mut net_b, &mut sys_b, &audience, &recipe, &mut rng_b)
        .run()
        .report;
    assert_eq!(legacy.visits, 0);
    assert_eq!(legacy, engine, "weightless-origin halt diverged");
}

#[test]
fn deployment_wrapper_matches_legacy_with_zero_weight_origins() {
    let audience = Audience::academic();
    let config = DeploymentConfig {
        duration: SimDuration::from_days(3),
        visits_per_day_per_weight: 20.0,
        ..DeploymentConfig::default()
    };
    // A weightless origin interleaved between active ones exercises the
    // per-origin scheduling skip exactly as the legacy loop did.
    let origins = vec![
        OriginSite::academic("active-a.example").with_popularity(2.0),
        OriginSite::academic("ghost.example").with_popularity(0.0),
        OriginSite::academic("active-b.example").with_popularity(1.0),
    ];
    let (mut net_a, mut sys_a) = favicon_world(false, origins.clone());
    let mut rng_a = SimRng::new(9);
    let legacy = legacy_run_deployment(&mut net_a, &mut sys_a, &audience, &config, &mut rng_a);
    let (mut net_b, mut sys_b) = favicon_world(false, origins);
    let mut rng_b = SimRng::new(9);
    let recipe = WorldRecipe::deployment(config).retain_visits(Retain::Full);
    let engine = WorldEngine::from_recipe(&mut net_b, &mut sys_b, &audience, &recipe, &mut rng_b)
        .run()
        .log;
    assert_eq!(legacy, engine);
    assert!(legacy.iter().all(|v| v.origin_index != 1));
}

//! Determinism: the whole stack is reproducible from one seed.
//!
//! Two runs with the same seed must produce byte-identical collection
//! records and detections; a different seed must diverge. This is the
//! property that makes every EXPERIMENTS.md number regenerable.

use encore_repro::censor::registry::install_world_censors;
use encore_repro::encore::coordination::SchedulingStrategy;
use encore_repro::encore::delivery::OriginSite;
use encore_repro::encore::system::EncoreSystem;
use encore_repro::encore::tasks::{MeasurementId, MeasurementTask, TaskSpec};
use encore_repro::encore::{FilteringDetector, GeoDb};
use encore_repro::netsim::geo::{country, World};
use encore_repro::netsim::http::{ContentType, HttpResponse};
use encore_repro::netsim::network::{ConstHandler, Network};
use encore_repro::population::{Audience, DeploymentConfig, WorldEngine, WorldRecipe};
use encore_repro::sim_core::{SimDuration, SimRng};

fn run(seed: u64) -> (String, Vec<String>) {
    let world = World::builtin();
    let mut net = Network::new(world.clone());
    for d in encore_repro::censor::registry::SAFE_TARGETS {
        net.add_server(
            d,
            country("US"),
            Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 500))),
        );
    }
    install_world_censors(&mut net);
    let tasks: Vec<MeasurementTask> = encore_repro::censor::registry::SAFE_TARGETS
        .iter()
        .enumerate()
        .map(|(i, d)| MeasurementTask {
            id: MeasurementId(i as u64),
            spec: TaskSpec::Image {
                url: format!("http://{d}/favicon.ico"),
            },
        })
        .collect();
    let origins = vec![OriginSite::academic("origin.example").with_popularity(3.0)];
    let mut sys = EncoreSystem::deploy(
        &mut net,
        tasks,
        SchedulingStrategy::RoundRobin,
        origins,
        country("US"),
    );
    let mut rng = SimRng::new(seed);
    let audience = Audience::world(&world);
    let recipe = WorldRecipe::deployment(DeploymentConfig {
        duration: SimDuration::from_days(12),
        visits_per_day_per_weight: 60.0,
        ..DeploymentConfig::default()
    });
    WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng).run();

    // Serialise everything observable.
    let records = serde_json::to_string(&sys.collection.records()).unwrap();
    let geo = GeoDb::from_allocator(&net.allocator);
    let detections: Vec<String> = sys
        .detect(&geo, &FilteringDetector::default())
        .into_iter()
        .map(|d| format!("{}:{}:{}:{}", d.domain, d.country, d.n, d.x))
        .collect();
    (records, detections)
}

#[test]
fn same_seed_is_byte_identical() {
    let (rec_a, det_a) = run(1234);
    let (rec_b, det_b) = run(1234);
    assert_eq!(rec_a, rec_b, "collection records diverged");
    assert_eq!(det_a, det_b, "detections diverged");
}

#[test]
fn different_seed_diverges_but_conclusions_hold() {
    let (rec_a, det_a) = run(1234);
    let (rec_b, det_b) = run(5678);
    assert_ne!(rec_a, rec_b, "different seeds should differ in detail");
    // The *science* is seed-invariant: same set of (domain, country)
    // pairs detected.
    let keys = |dets: &[String]| {
        let mut ks: Vec<String> = dets
            .iter()
            .map(|d| d.split(':').take(2).collect::<Vec<_>>().join(":"))
            .collect();
        ks.sort();
        ks.dedup();
        ks
    };
    assert_eq!(keys(&det_a), keys(&det_b), "conclusions changed with seed");
}

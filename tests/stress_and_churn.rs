//! Failure and churn integration tests: Encore's inferences must survive
//! lossy networks and targets that go offline mid-run.

use encore_repro::censor::national::NationalCensor;
use encore_repro::censor::policy::{CensorPolicy, Mechanism};
use encore_repro::encore::coordination::SchedulingStrategy;
use encore_repro::encore::delivery::OriginSite;
use encore_repro::encore::system::EncoreSystem;
use encore_repro::encore::tasks::{MeasurementId, MeasurementTask, TaskSpec};
use encore_repro::encore::{DetectorConfig, FilteringDetector, GeoDb};
use encore_repro::netsim::geo::{country, World};
use encore_repro::netsim::http::{ContentType, HttpResponse};
use encore_repro::netsim::network::{ConstHandler, Network};
use encore_repro::population::{Audience, DeploymentConfig, WorldEngine, WorldRecipe};
use encore_repro::sim_core::{OneSidedBinomialTest, SimDuration, SimRng};

fn favicon_task(domain: &str, id: u64) -> MeasurementTask {
    MeasurementTask {
        id: MeasurementId(id),
        spec: TaskSpec::Image {
            url: format!("http://{domain}/favicon.ico"),
        },
    }
}

/// With every country's transient failure rate (§5.3's client load,
/// DNS hiccups and flaky WiFi) scaled 4×, so that up to ≈30% of a lossy
/// country's fetches fail, a *lenient* detector still distinguishes the
/// really-blocked target from the merely-lossy control — because
/// blocking produces ~0% success while loss leaves ~70% or more.
#[test]
fn detection_survives_smoltcp_stress_conditions() {
    let world = World::builtin();
    let mut net = Network::new(world.clone());
    net.path_model.failure_scale = 4.0;
    for d in ["blocked.example", "control.example"] {
        net.add_server(
            d,
            country("US"),
            Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 400))),
        );
    }
    let policy =
        CensorPolicy::named("censor").block_domain("blocked.example", Mechanism::DnsNxDomain);
    net.add_middlebox(Box::new(NationalCensor::new(country("IR"), policy)));

    let tasks = vec![
        favicon_task("blocked.example", 0),
        favicon_task("control.example", 1),
    ];
    let origin = OriginSite::academic("origin.example").with_popularity(4.0);
    let mut sys = EncoreSystem::deploy(
        &mut net,
        tasks,
        SchedulingStrategy::RoundRobin,
        vec![origin],
        country("US"),
    );
    let mut rng = SimRng::new(0x57E55);
    let audience = Audience::world(&world);
    let recipe = WorldRecipe::deployment(DeploymentConfig {
        duration: SimDuration::from_days(10),
        visits_per_day_per_weight: 60.0,
        ..DeploymentConfig::default()
    });
    WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng).run();

    let geo = GeoDb::from_allocator(&net.allocator);
    // The default p = 0.7 null would flag the lossiest countries at
    // ≈30% ambient loss; a deployment on a lossy substrate must lower the prior —
    // which is exactly the "dynamically tuning model parameters" future
    // work §7.2 sketches. p = 0.5 keeps the control clean.
    let detector = FilteringDetector::new(DetectorConfig {
        test: OneSidedBinomialTest::new(0.5, 0.05),
        min_measurements: 10,
        ..DetectorConfig::default()
    });
    let detections = detector.detect(&sys.collection.records(), &geo);
    assert!(
        detections
            .iter()
            .any(|d| d.domain == "blocked.example" && d.country == country("IR")),
        "stress hid the real block: {detections:?}"
    );
    assert!(
        detections.iter().all(|d| d.domain != "control.example"),
        "stress caused false positives on the control: {detections:?}"
    );
}

/// A target that goes offline partway through the run: windows before
/// the outage are clean, windows after fail *globally* — and the
/// cross-region control keeps every window free of false detections.
#[test]
fn mid_run_outage_never_flagged() {
    let world = World::builtin();
    let mut net = Network::new(world.clone());
    net.add_server(
        "flaky-host.example",
        country("US"),
        Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 400))),
    );

    let tasks = vec![favicon_task("flaky-host.example", 0)];
    let origin = OriginSite::academic("origin.example").with_popularity(4.0);
    let mut sys = EncoreSystem::deploy(
        &mut net,
        tasks,
        SchedulingStrategy::RoundRobin,
        vec![origin],
        country("US"),
    );
    let mut rng = SimRng::new(0x0FF1);

    // First half: healthy.
    let audience = Audience::world(&world);
    let recipe = WorldRecipe::deployment(DeploymentConfig {
        duration: SimDuration::from_days(4),
        visits_per_day_per_weight: 50.0,
        ..DeploymentConfig::default()
    });
    WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng).run();

    // The site dies: its origin 404s every request, the way a benign
    // origin outage takes it down.
    assert!(net.replace_server_handler(
        "flaky-host.example",
        Box::new(ConstHandler(HttpResponse::not_found())),
    ));

    // Second half: global failure. (The driver restarts its schedule at
    // t=0; received_at ordering within each half is all the windowed
    // detector needs — we shift attention to detections only.)
    WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng).run();

    let geo = GeoDb::from_allocator(&net.allocator);
    let detections = FilteringDetector::default().detect(&sys.collection.records(), &geo);
    assert!(
        detections.is_empty(),
        "outage misattributed to censorship: {detections:?}"
    );
    // Sanity: the second half really did fail.
    let records = sys.collection.records();
    let failures = records
        .iter()
        .filter(|r| r.submission.outcome == Some(encore_repro::encore::tasks::TaskOutcome::Failure))
        .count();
    assert!(failures > 100, "expected mass failures, got {failures}");
}

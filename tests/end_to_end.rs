//! Full-stack integration test: synthetic web → Figure 3 pipeline →
//! deployment with national censors → §7.2 detection.
//!
//! This is the whole paper in one test: content generation, pattern
//! expansion, HAR capture, task generation, scheduling, delivery,
//! cross-origin measurement through censoring middleboxes, collection,
//! geolocation, and the binomial detector.

use encore_repro::browser::{BrowserClient, Engine};
use encore_repro::censor::national::NationalCensor;
use encore_repro::censor::policy::{CensorPolicy, Mechanism};
use encore_repro::encore::coordination::SchedulingStrategy;
use encore_repro::encore::delivery::OriginSite;
use encore_repro::encore::pipeline::{
    GenerationConfig, PatternExpander, TargetFetcher, TaskGenerator,
};
use encore_repro::encore::system::EncoreSystem;
use encore_repro::encore::{DetectorConfig, FilteringDetector, GeoDb};
use encore_repro::netsim::geo::{country, IspClass, World};
use encore_repro::netsim::network::Network;
use encore_repro::population::{Audience, DeploymentConfig, WorldEngine, WorldRecipe};
use encore_repro::sim_core::{SimDuration, SimRng, SimTime};
use encore_repro::websim::generator::{SyntheticWeb, WebConfig};
use encore_repro::websim::{SearchIndex, UrlPattern};

#[test]
fn pipeline_to_detection_end_to_end() {
    let mut rng = SimRng::new(0xE2E);
    let world = World::builtin();
    let mut net = Network::new(world.clone());

    // 1. The web corpus.
    let web = SyntheticWeb::generate(&WebConfig::small(), &mut rng);
    web.install(&mut net, &mut rng);
    let index = SearchIndex::build(&web);

    // 2. A censor: Iran blocks the first two corpus domains outright.
    let blocked: Vec<String> = web.domains().into_iter().take(2).collect();
    let mut policy = CensorPolicy::named("iran-test");
    for d in &blocked {
        policy = policy.block_domain(d, Mechanism::HttpBlockPage);
    }
    net.add_middlebox(Box::new(NationalCensor::new(country("IR"), policy)));

    // 3. The Figure 3 pipeline (run from an unfiltered US vantage).
    let patterns: Vec<UrlPattern> = web.domains().into_iter().map(UrlPattern::Domain).collect();
    let expander = PatternExpander::new(&index);
    let urls = expander.expand_all(&patterns);
    let root = SimRng::new(1);
    let headless = BrowserClient::new(
        &mut net,
        country("US"),
        IspClass::Academic,
        Engine::Chrome,
        &root,
    );
    let mut fetcher = TargetFetcher::new(headless);
    let hars = fetcher.fetch_all(&mut net, &urls, SimTime::ZERO);
    let mut generator = TaskGenerator::new(GenerationConfig {
        max_image_bytes: 5_000,
        ..GenerationConfig::default()
    });
    let tasks = generator.generate_all(&hars, |_| true);
    assert!(tasks.len() > 20, "pipeline yielded {} tasks", tasks.len());

    // Keep only tasks for the two blocked domains plus two controls, so
    // the deployment concentrates measurements.
    let controls: Vec<String> = web.domains().into_iter().skip(2).take(2).collect();
    let keep: Vec<_> = tasks
        .into_iter()
        .filter(|t| {
            t.spec
                .target_domain()
                .is_some_and(|d| blocked.contains(&d) || controls.contains(&d))
        })
        .collect();
    assert!(!keep.is_empty());

    // 4. Deploy and run two weeks of visits from a world audience.
    let origins = vec![
        OriginSite::academic("origin-a.example").with_popularity(4.0),
        OriginSite::academic("origin-b.example").with_popularity(4.0),
    ];
    let mut sys = EncoreSystem::deploy(
        &mut net,
        keep,
        SchedulingStrategy::CoordinatedBursts {
            window: SimDuration::from_secs(120),
        },
        origins,
        country("US"),
    );
    let audience = Audience::world(&world);
    let recipe = WorldRecipe::deployment(DeploymentConfig {
        duration: SimDuration::from_days(14),
        visits_per_day_per_weight: 40.0,
        ..DeploymentConfig::default()
    });
    let visits = WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng)
        .run()
        .report
        .visits;
    assert!(visits > 1_000, "only {visits} visits");
    assert!(sys.collection.len() > 500);

    // 5. Detect.
    let geo = GeoDb::from_allocator(&net.allocator);
    let detector = FilteringDetector::new(DetectorConfig {
        min_measurements: 5,
        ..DetectorConfig::default()
    });
    let detections = detector.detect(&sys.collection.records(), &geo);

    // Every detection must be a blocked domain in Iran; both blocked
    // domains should surface if they got enough measurements.
    for d in &detections {
        assert_eq!(d.country, country("IR"), "false detection: {d:?}");
        assert!(blocked.contains(&d.domain), "false detection: {d:?}");
        assert_eq!(d.x, 0, "hard blocking admits no successes");
    }
    assert!(
        !detections.is_empty(),
        "expected at least one Iranian detection"
    );
}

#[test]
fn outage_is_not_reported_as_censorship_end_to_end() {
    // A target that goes offline fails for everyone — the cross-region
    // control must suppress it.
    let mut rng = SimRng::new(0x0FF);
    let world = World::builtin();
    let mut net = Network::new(world.clone());

    use encore_repro::encore::tasks::{MeasurementId, MeasurementTask, TaskSpec};
    // DNS name registered to an address where nothing listens.
    net.dns
        .register("dead.example", std::net::Ipv4Addr::new(100, 77, 0, 1));
    let tasks = vec![MeasurementTask {
        id: MeasurementId(0),
        spec: TaskSpec::Image {
            url: "http://dead.example/favicon.ico".into(),
        },
    }];
    let origin = OriginSite::academic("origin.example");
    let mut sys = EncoreSystem::deploy(
        &mut net,
        tasks,
        SchedulingStrategy::RoundRobin,
        vec![origin],
        country("US"),
    );
    let recipe = WorldRecipe::deployment(DeploymentConfig {
        duration: SimDuration::from_days(3),
        visits_per_day_per_weight: 60.0,
        ..DeploymentConfig::default()
    });
    let audience = Audience::world(&world);
    let visits = WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng)
        .run()
        .report
        .visits;
    assert!(visits > 100);

    let geo = GeoDb::from_allocator(&net.allocator);
    let detections = FilteringDetector::default().detect(&sys.collection.records(), &geo);
    assert!(
        detections.is_empty(),
        "offline target misreported as filtered: {detections:?}"
    );
}

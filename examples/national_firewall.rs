//! The §7.2 scenario end to end: the 2014 national censors (China's
//! forged-DNS + RST firewall, Iran's block pages, Pakistan's YouTube DNS
//! sinkhole) measured by a seventeen-origin Encore deployment under the
//! ethics-staged favicon-only task list.
//!
//! ```sh
//! cargo run --release --example national_firewall
//! ```

use encore_repro::censor::registry::{ground_truth, install_world_censors, SAFE_TARGETS};
use encore_repro::encore::coordination::SchedulingStrategy;
use encore_repro::encore::delivery::OriginSite;
use encore_repro::encore::system::EncoreSystem;
use encore_repro::encore::targets::EthicsStage;
use encore_repro::encore::tasks::{MeasurementId, MeasurementTask, TaskSpec};
use encore_repro::encore::{FilteringDetector, GeoDb};
use encore_repro::netsim::geo::{country, World};
use encore_repro::netsim::http::{ContentType, HttpResponse};
use encore_repro::netsim::network::{ConstHandler, Network};
use encore_repro::population::{Audience, DeploymentConfig, WorldEngine, WorldRecipe};
use encore_repro::sim_core::{SimDuration, SimRng};

fn main() {
    let world = World::with_long_tail(170);
    let mut net = Network::new(world.clone());

    for d in SAFE_TARGETS {
        net.add_server(
            d,
            country("US"),
            Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 500))),
        );
    }
    install_world_censors(&mut net);

    // The ethics-staged task pool.
    let tasks: Vec<MeasurementTask> = SAFE_TARGETS
        .iter()
        .enumerate()
        .map(|(i, d)| MeasurementTask {
            id: MeasurementId(i as u64),
            spec: TaskSpec::Image {
                url: format!("http://{d}/favicon.ico"),
            },
        })
        .collect();
    assert!(tasks
        .iter()
        .all(|t| EthicsStage::FaviconsFewSites.permits(t)));

    let origins: Vec<OriginSite> = (0..17)
        .map(|i| {
            OriginSite::academic(format!("volunteer-{i}.example")).with_popularity(if i < 3 {
                6.0
            } else {
                1.0
            })
        })
        .collect();

    let mut sys = EncoreSystem::deploy(
        &mut net,
        tasks,
        SchedulingStrategy::CoordinatedBursts {
            window: SimDuration::from_secs(60),
        },
        origins,
        country("US"),
    );

    let mut rng = SimRng::new(7);
    let audience = Audience::world(&world);
    let recipe = WorldRecipe::deployment(DeploymentConfig {
        duration: SimDuration::from_days(14),
        visits_per_day_per_weight: 25.0,
        ..DeploymentConfig::default()
    });
    println!("running a 14-day deployment across 17 origin sites…");
    let visits = WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng)
        .run()
        .report
        .visits;
    println!(
        "visits: {}   submissions: {}   distinct IPs: {}",
        visits,
        sys.collection.len(),
        sys.collection.distinct_ips()
    );

    let geo = GeoDb::from_allocator(&net.allocator);
    let detections = FilteringDetector::default().detect(&sys.collection.records(), &geo);

    println!("\ndetections:");
    for d in &detections {
        println!(
            "  {} filtered in {}  (n={}, successes={}, p={:.2e})",
            d.domain, d.country, d.n, d.x, d.p_value
        );
    }

    let truth = ground_truth();
    let found = truth
        .iter()
        .filter(|t| {
            detections
                .iter()
                .any(|d| d.domain == t.domain && d.country == t.country)
        })
        .count();
    println!("\nground truth recovered: {found}/{}", truth.len());
    let false_pos = detections
        .iter()
        .filter(|d| {
            !truth
                .iter()
                .any(|t| t.domain == d.domain && t.country == d.country)
        })
        .count();
    println!("false detections: {false_pos}");
}

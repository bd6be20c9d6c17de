//! Generate the researcher-facing Markdown report (§3.1's "report them
//! to a central authority") from a fresh world-scale run — the artifact
//! a deployed Encore would publish, in the spirit of ONI country
//! profiles but grounded in continuous measurement.

use bench::fixtures::RunArgs;
use bench::fixtures::{deploy_us, favicon_tasks, install_image_targets, volunteer_origins};
use censor::registry::{install_world_censors, SAFE_TARGETS};
use encore::coordination::SchedulingStrategy;
use encore::reports::{country_reports, render_markdown};
use encore::{FilteringDetector, GeoDb};
use netsim::geo::World;
use netsim::network::Network;
use population::{Audience, DeploymentConfig, WorldEngine, WorldRecipe};
use sim_core::{SimDuration, SimRng};

pub fn run(args: &RunArgs) {
    let world = World::with_long_tail(170);
    let mut net = Network::new(world.clone());
    install_image_targets(&mut net, &SAFE_TARGETS);
    install_world_censors(&mut net);

    let mut sys = deploy_us(
        &mut net,
        favicon_tasks(&SAFE_TARGETS),
        SchedulingStrategy::RoundRobin,
        volunteer_origins("origin", 8, 2.0),
    );
    let mut rng = SimRng::new(args.seed);
    let recipe = WorldRecipe::deployment(DeploymentConfig {
        duration: SimDuration::from_days(21),
        visits_per_day_per_weight: 30.0,
        ..DeploymentConfig::default()
    });
    let audience = Audience::world(&world);
    WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng).run();

    let geo = GeoDb::from_allocator(&net.allocator);
    let reports = country_reports(
        &sys.collection.records(),
        &geo,
        &FilteringDetector::default(),
    );
    let markdown = render_markdown(&reports);

    // Print the flagged countries in full; elide the long healthy tail.
    for line in markdown.lines() {
        println!("{line}");
        if line.starts_with('#') && markdown.lines().count() > 400 {
            continue;
        }
    }
    if std::fs::create_dir_all("results").is_ok() {
        let _ = std::fs::write("results/report.md", &markdown);
        eprintln!("[written \"results/report.md\"]");
    }
    args.write_results("report", &reports);
}

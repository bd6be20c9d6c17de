//! §6.2 — "Who performs Encore measurements?"
//!
//! Reproduces the one-month Google-Analytics study of a professor's
//! homepage (February 2014): 1,171 visits, mostly US but with >10 users
//! from 10 other countries; 16% of visitors in countries with well-known
//! filtering policies (IN, CN, PK, GB, KR); 999 attempted a measurement
//! task (the remainder being the campus security scanner); 45% dwelled
//! >10 s and 35% >60 s.

use bench::fixtures::RunArgs;
use bench::fixtures::{add_image_server, deploy_us, favicon_tasks};
use bench::print_table;
use encore::coordination::SchedulingStrategy;
use encore::delivery::OriginSite;
use netsim::geo::{country, World};
use netsim::network::Network;
use population::{Analytics, Audience, DeploymentConfig, Retain, WorldEngine, WorldRecipe};
use serde::Serialize;
use sim_core::{SimDuration, SimRng};

#[derive(Serialize)]
struct Demographics {
    total_visits: usize,
    attempted_measurement: usize,
    crawler_visits: usize,
    countries_over_10_visits: usize,
    frac_from_filtering_countries: f64,
    frac_over_10s: f64,
    frac_over_60s: f64,
    top_countries: Vec<(String, usize)>,
}

pub fn run(args: &RunArgs) {
    let mut net = Network::new(World::builtin());
    add_image_server(&mut net, "target.example", 400);
    let origin = OriginSite::academic("professor.university.edu");
    let mut sys = deploy_us(
        &mut net,
        favicon_tasks(&["target.example"]),
        SchedulingStrategy::RoundRobin,
        vec![origin],
    );

    let mut rng = SimRng::new(args.seed);
    // "The site saw 1,171 visits during course of the month" → ~42/day.
    // The per-visit table is read off the visit log, so this run keeps it.
    let recipe = WorldRecipe::deployment(DeploymentConfig {
        duration: SimDuration::from_days(28),
        visits_per_day_per_weight: 42.0,
        ..DeploymentConfig::default()
    })
    .retain_visits(Retain::Full);
    let audience = Audience::academic();
    let outcome = WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng).run();
    let analytics = Analytics::from_visits(&outcome.log);
    // A log that misses visits would print a plausible, wrong table.
    if analytics.total_visits as u64 != outcome.report.visits {
        eprintln!(
            "demographics: {} visits in the log, {} in the report",
            analytics.total_visits, outcome.report.visits
        );
        std::process::exit(1);
    }

    let filtering = [
        country("IN"),
        country("CN"),
        country("PK"),
        country("GB"),
        country("KR"),
    ];
    let result = Demographics {
        total_visits: analytics.total_visits,
        attempted_measurement: analytics.attempted_measurement,
        crawler_visits: analytics.crawler_visits,
        countries_over_10_visits: analytics.countries_with_more_than(10),
        frac_from_filtering_countries: analytics.fraction_from(&filtering),
        frac_over_10s: analytics.frac_over_10s,
        frac_over_60s: analytics.frac_over_60s,
        top_countries: analytics
            .by_country
            .iter()
            .take(12)
            .map(|(c, n)| (c.to_string(), *n))
            .collect(),
    };

    println!("=== §6.2 demographics: one month of an academic homepage ===\n");
    print_table(
        &["country", "visits"],
        &result
            .top_countries
            .iter()
            .map(|(c, n)| vec![c.clone(), n.to_string()])
            .collect::<Vec<_>>(),
    );
    println!();
    print_table(
        &["claim", "paper", "measured"],
        &[
            vec![
                "monthly visits".into(),
                "1,171".into(),
                result.total_visits.to_string(),
            ],
            vec![
                "visits attempting a task".into(),
                "999".into(),
                result.attempted_measurement.to_string(),
            ],
            vec![
                "countries with >10 visits".into(),
                ">10".into(),
                result.countries_over_10_visits.to_string(),
            ],
            vec![
                "share from filtering countries".into(),
                "16%".into(),
                format!("{:.1}%", 100.0 * result.frac_from_filtering_countries),
            ],
            vec![
                "dwell >10s".into(),
                "45%".into(),
                format!("{:.1}%", 100.0 * result.frac_over_10s),
            ],
            vec![
                "dwell >60s".into(),
                "35%".into(),
                format!("{:.1}%", 100.0 * result.frac_over_60s),
            ],
        ],
    );
    args.write_results("demographics", &result);
}

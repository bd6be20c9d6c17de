//! §7.2 — "Does Encore detect Web filtering?"
//!
//! The headline experiment: a world-scale deployment restricted (per the
//! Table 2 ethics staging) to favicon image tasks against facebook.com,
//! youtube.com and twitter.com, with the real-world censors of 2014
//! installed: YouTube blocked in Pakistan, Iran and China; Twitter and
//! Facebook in China and Iran.
//!
//! Expected shape:
//! * the binomial detector (p = 0.7, α = 0.05) flags exactly the seven
//!   ground-truth (domain, country) pairs — "confirms well-known
//!   censorship of youtube.com in Pakistan, Iran, and China, and of
//!   twitter.com and facebook.com in China and Iran";
//! * no false detections elsewhere despite realistic transient failures;
//! * measurement volume concentrated in populous countries (paper: CN,
//!   IN, GB, BR ≥ 1,000; EG, KR, IR, PK, TR, SA ≥ 100).

use bench::fixtures::RunArgs;
use bench::fixtures::{deploy_us, favicon_tasks, install_image_targets};
use bench::print_table;
use censor::registry::{ground_truth, install_world_censors, SAFE_TARGETS};
use encore::coordination::SchedulingStrategy;
use encore::delivery::OriginSite;
use encore::targets::EthicsStage;
use encore::tasks::MeasurementTask;
use encore::{DetectorConfig, FilteringDetector, GeoDb};
use netsim::geo::World;
use netsim::network::Network;
use population::{Audience, DeploymentConfig, WorldEngine, WorldRecipe};
use serde::Serialize;
use sim_core::{SimDuration, SimRng};
use std::collections::BTreeMap;

#[derive(Serialize)]
struct DetectionResult {
    measurements: usize,
    distinct_ips: usize,
    countries_observed: usize,
    detections: Vec<(String, String, u64, u64, f64)>,
    ground_truth_hits: usize,
    ground_truth_total: usize,
    false_detections: usize,
}

pub fn run(args: &RunArgs) {
    let world = World::with_long_tail(170);
    let mut net = Network::new(world.clone());

    // The three measurement targets (favicon-serving social sites).
    install_image_targets(&mut net, &SAFE_TARGETS);
    // Install the 2014 censors (after DNS is populated, so the GFW can
    // resolve its IP blacklist).
    install_world_censors(&mut net);

    // The ethics-staged task pool: favicons on the safe trio only.
    let tasks: Vec<MeasurementTask> = favicon_tasks(&SAFE_TARGETS);
    assert!(tasks
        .iter()
        .all(|t| EthicsStage::FaviconsFewSites.permits(t)));

    // "At least 17 volunteers have deployed Encore on their sites" — a
    // mix of small and mid-size origins.
    let mut origins = Vec::new();
    for i in 0..17 {
        let mut o = OriginSite::academic(format!("volunteer-{i}.example"))
            .with_popularity(if i < 3 { 8.0 } else { 1.5 });
        if i % 4 != 0 {
            // "3/4 of measurements come from sites that elect to strip
            // the Referer header".
            o = o.with_referer_stripping();
        }
        origins.push(o);
    }

    let mut sys = deploy_us(
        &mut net,
        tasks,
        SchedulingStrategy::CoordinatedBursts {
            window: SimDuration::from_secs(60),
        },
        origins,
    );

    let mut rng = SimRng::new(args.seed);
    let audience = Audience::world(&world);
    // Seven months in the paper; the default here is a scaled run that
    // still yields tens of thousands of measurements. `--days`
    // overrides.
    let days: u64 = args.days(60);
    let recipe = WorldRecipe::deployment(DeploymentConfig {
        duration: SimDuration::from_days(days),
        visits_per_day_per_weight: 35.0,
        ..DeploymentConfig::default()
    });
    let visits = WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng)
        .run()
        .report
        .visits;

    let geo = GeoDb::from_allocator(&net.allocator);
    let detector = FilteringDetector::new(DetectorConfig {
        min_measurements: 8,
        ..DetectorConfig::default()
    });
    let detections = detector.detect(&sys.collection.records(), &geo);

    // Score against ground truth.
    let truth = ground_truth();
    let hit = |d: &encore::Detection| {
        truth
            .iter()
            .any(|t| t.domain == d.domain && t.country == d.country)
    };
    let hits = detections.iter().filter(|d| hit(d)).count();
    let false_detections = detections.len() - hits;
    let truth_found = truth
        .iter()
        .filter(|t| {
            detections
                .iter()
                .any(|d| d.domain == t.domain && d.country == t.country)
        })
        .count();

    // Country measurement volume.
    let mut per_country: BTreeMap<String, usize> = BTreeMap::new();
    for rec in sys.collection.records() {
        if rec.submission.phase == encore::SubmissionPhase::Result {
            if let Some(c) = geo.lookup(rec.client_ip) {
                *per_country.entry(c.to_string()).or_default() += 1;
            }
        }
    }

    println!("=== §7.2 detection: world deployment over {days} days ===");
    println!(
        "visits: {} | submissions: {} | distinct IPs: {} | countries: {}",
        visits,
        sys.collection.len(),
        sys.collection.distinct_ips(),
        per_country.len()
    );
    println!("(paper: 141,626 measurements, 88,260 IPs, 170 countries over 7 months)\n");

    let mut vol: Vec<_> = per_country.iter().collect();
    vol.sort_by(|a, b| b.1.cmp(a.1));
    print_table(
        &["country", "result measurements"],
        &vol.iter()
            .take(12)
            .map(|(c, n)| vec![c.to_string(), n.to_string()])
            .collect::<Vec<_>>(),
    );

    println!("\ndetections (binomial test, p=0.7, alpha=0.05):");
    let rows: Vec<Vec<String>> = detections
        .iter()
        .map(|d| {
            vec![
                d.domain.clone(),
                d.country.to_string(),
                d.n.to_string(),
                d.x.to_string(),
                format!("{:.2e}", d.p_value),
                if hit(d) {
                    "ground truth".into()
                } else {
                    "FALSE".into()
                },
            ]
        })
        .collect();
    print_table(
        &["domain", "country", "n", "successes", "p-value", "verdict"],
        &rows,
    );

    println!();
    print_table(
        &["claim", "paper", "measured"],
        &[
            vec![
                "youtube filtered in PK, IR, CN".into(),
                "detected".into(),
                format!(
                    "{}/3",
                    truth
                        .iter()
                        .filter(|t| t.domain == "youtube.com")
                        .filter(|t| detections
                            .iter()
                            .any(|d| d.domain == t.domain && d.country == t.country))
                        .count()
                ),
            ],
            vec![
                "twitter+facebook filtered in CN, IR".into(),
                "detected".into(),
                format!(
                    "{}/4",
                    truth
                        .iter()
                        .filter(|t| t.domain != "youtube.com")
                        .filter(|t| detections
                            .iter()
                            .any(|d| d.domain == t.domain && d.country == t.country))
                        .count()
                ),
            ],
            vec![
                "false detections".into(),
                "0".into(),
                false_detections.to_string(),
            ],
        ],
    );

    args.write_results(
        "detection",
        &DetectionResult {
            measurements: sys.collection.len(),
            distinct_ips: sys.collection.distinct_ips(),
            countries_observed: per_country.len(),
            detections: detections
                .iter()
                .map(|d| (d.domain.clone(), d.country.to_string(), d.n, d.x, d.p_value))
                .collect(),
            ground_truth_hits: truth_found,
            ground_truth_total: truth.len(),
            false_detections,
        },
    );
}

//! §7.1 — "Are measurement tasks sound?"
//!
//! Reproduces the testbed experiment: "we built a Web censorship testbed
//! … For three months, we instructed approximately 30% of clients to
//! measure resources hosted by the testbed (or unfiltered control
//! resources) using the four task types."
//!
//! Expected shape:
//! * explicit-feedback tasks (image / stylesheet / script) report failure
//!   for ~100% of measurements of filtered varieties (no missed
//!   detections) and success for almost all control measurements;
//! * false-positive rates track network quality — "clients in India, a
//!   country with notoriously unreliable network connectivity,
//!   contributed to a 5% false positive rate for images";
//! * the iframe task is noisier (timing-based) but still separates
//!   filtered from control.

use bench::fixtures::RunArgs;
use bench::print_table;
use censor::testbed::{FilterVariety, Testbed};
use encore::coordination::SchedulingStrategy;
use encore::delivery::OriginSite;
use encore::system::EncoreSystem;
use encore::tasks::{
    MeasurementId, MeasurementTask, TaskOutcome, TaskSpec, TaskType, IFRAME_CACHE_THRESHOLD,
};
use encore::GeoDb;
use netsim::geo::{country, World};
use netsim::network::Network;
use population::{Audience, DeploymentConfig, WorldEngine, WorldRecipe};
use serde::Serialize;
use sim_core::{SimDuration, SimRng};
use std::collections::BTreeMap;

fn testbed_tasks(tb: &Testbed) -> Vec<MeasurementTask> {
    let mut tasks = Vec::new();
    let mut id = 0u64;
    let mut push = |spec: TaskSpec| {
        tasks.push(MeasurementTask {
            id: MeasurementId(id),
            spec,
        });
        id += 1;
    };
    for v in FilterVariety::ALL {
        push(TaskSpec::Image {
            url: tb.favicon_url(v),
        });
        push(TaskSpec::Stylesheet {
            url: tb.style_url(v),
        });
        push(TaskSpec::Script {
            url: tb.script_url(v),
        });
        push(TaskSpec::Iframe {
            page_url: tb.page_url(v),
            probe_image_url: format!("http://{}/embedded.png", v.hostname()),
            threshold: IFRAME_CACHE_THRESHOLD,
        });
    }
    tasks
}

#[derive(Serialize, Default, Clone, Copy)]
struct Rates {
    n_filtered: u64,
    missed_detections: u64,
    n_control: u64,
    false_positives: u64,
}

#[derive(Serialize)]
struct Soundness {
    total_measurements: usize,
    by_task: Vec<(String, Rates)>,
    india_image_fp_rate: f64,
    us_image_fp_rate: f64,
}

pub fn run(args: &RunArgs) {
    let world = World::with_long_tail(170);
    let mut net = Network::new(world.clone());
    let tb = Testbed::install(&mut net);
    let tasks = testbed_tasks(&tb);

    let origins = vec![
        OriginSite::academic("prof-a.example").with_popularity(3.0),
        OriginSite::academic("prof-b.example").with_popularity(2.0),
        OriginSite::academic("blog-c.example")
            .with_referer_stripping()
            .with_popularity(3.0),
    ];
    let mut sys = EncoreSystem::deploy(
        &mut net,
        tasks,
        SchedulingStrategy::RoundRobin,
        origins,
        country("US"),
    );

    let mut rng = SimRng::new(args.seed);
    let audience = Audience::world(&world);
    let recipe = WorldRecipe::deployment(DeploymentConfig {
        duration: SimDuration::from_days(90), // the paper's three months
        visits_per_day_per_weight: 40.0,
        ..DeploymentConfig::default()
    });
    WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng).run();

    let geo = GeoDb::from_allocator(&net.allocator);
    let records = sys.collection.records();

    let mut by_task: BTreeMap<TaskType, Rates> = BTreeMap::new();
    let mut india_images = (0u64, 0u64); // (control n, control failures)
    let mut us_images = (0u64, 0u64);
    let mut results = 0usize;

    for rec in &records {
        if rec.is_crawler() {
            continue; // "after excluding erroneously contributed measurements"
        }
        let Some(outcome) = rec.submission.outcome else {
            continue;
        };
        results += 1;
        let Some(host) = rec.target_domain() else {
            continue;
        };
        let Some(variety) = FilterVariety::from_hostname(&host) else {
            continue;
        };
        let stats = by_task.entry(rec.submission.task_type).or_default();
        if variety.expect_filtered() {
            stats.n_filtered += 1;
            if outcome == TaskOutcome::Success {
                stats.missed_detections += 1;
            }
        } else {
            stats.n_control += 1;
            if outcome == TaskOutcome::Failure {
                stats.false_positives += 1;
            }
            if rec.submission.task_type == TaskType::Image {
                match geo.lookup(rec.client_ip) {
                    Some(c) if c == country("IN") => {
                        india_images.0 += 1;
                        if outcome == TaskOutcome::Failure {
                            india_images.1 += 1;
                        }
                    }
                    Some(c) if c == country("US") => {
                        us_images.0 += 1;
                        if outcome == TaskOutcome::Failure {
                            us_images.1 += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    let rate = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let india_fp = rate(india_images.1, india_images.0);
    let us_fp = rate(us_images.1, us_images.0);

    println!("=== §7.1 soundness: four task types vs the 7-variety testbed ===");
    println!("result measurements collected: {results} (paper: 8,573 for explicit types)\n");
    let mut rows = Vec::new();
    for (tt, r) in &by_task {
        rows.push(vec![
            tt.to_string(),
            r.n_filtered.to_string(),
            format!("{:.2}%", 100.0 * rate(r.missed_detections, r.n_filtered)),
            r.n_control.to_string(),
            format!("{:.2}%", 100.0 * rate(r.false_positives, r.n_control)),
        ]);
    }
    print_table(
        &[
            "task",
            "filtered n",
            "missed",
            "control n",
            "false positives",
        ],
        &rows,
    );
    println!();
    print_table(
        &["claim", "paper", "measured"],
        &[
            vec![
                "explicit tasks miss no filtering".into(),
                "no misses".into(),
                format!(
                    "image misses {:.2}%",
                    100.0
                        * rate(
                            by_task
                                .get(&TaskType::Image)
                                .map(|r| r.missed_detections)
                                .unwrap_or(0),
                            by_task
                                .get(&TaskType::Image)
                                .map(|r| r.n_filtered)
                                .unwrap_or(0)
                        )
                ),
            ],
            vec![
                "India image false-positive rate".into(),
                "~5%".into(),
                format!("{:.1}%", 100.0 * india_fp),
            ],
            vec![
                "US image false-positive rate".into(),
                "low".into(),
                format!("{:.1}%", 100.0 * us_fp),
            ],
        ],
    );

    args.write_results(
        "soundness",
        &Soundness {
            total_measurements: results,
            by_task: by_task
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            india_image_fp_rate: india_fp,
            us_image_fp_rate: us_fp,
        },
    );
}

//! Quality ablations: how the design parameters DESIGN.md calls out move
//! the results. Four sweeps:
//!
//! 1. **Image-size cap** (Figure 4's 1 KB vs 5 KB trade-off): measurable
//!    domains vs per-task byte overhead.
//! 2. **Detector null prior p** (§7.2 uses 0.7): false positives vs
//!    sensitivity to throttling-style partial filtering.
//! 3. **Iframe cache threshold** (Figure 7's 50 ms line): control
//!    success rate vs filtered-page false-success rate.
//! 4. **GeoIP error rate**: detection recall as geolocation degrades.

use bench::fixtures::RunArgs;
use bench::{print_table, PaperWorld};
use browser::{BrowserClient, Engine};
use censor::testbed::{FilterVariety, Testbed};
use encore::pipeline::GenerationConfig;
use encore::tasks::{
    execute_task, MeasurementId, MeasurementTask, TaskOutcome, TaskSpec, TaskType,
};
use encore::{DetectorConfig, FilteringDetector, GeoDb};
use netsim::geo::{country, IspClass, World};
use netsim::network::Network;
use serde::Serialize;
use sim_core::{OneSidedBinomialTest, SimDuration, SimRng, SimTime};
use websim::generator::WebConfig;

#[derive(Serialize, Default)]
struct Ablations {
    image_cap: Vec<(u64, usize, f64)>,
    detector_p: Vec<(f64, f64, f64)>,
    iframe_threshold: Vec<(u64, f64, f64)>,
    geo_error: Vec<(f64, usize)>,
}

/// Sweep 1: the image-size cap.
fn sweep_image_cap(results: &mut Ablations, seed: u64) {
    println!("--- ablation 1: image-size cap (Figure 4 trade-off) ---");
    let mut pw = PaperWorld::build(&WebConfig::default(), seed);
    let hars = pw.fetch_corpus_hars();
    let mut rows = Vec::new();
    for cap in [500u64, 1_000, 2_000, 5_000, 20_000] {
        let tasks = pw.generate_tasks(
            &hars,
            GenerationConfig {
                max_image_bytes: cap,
                allow_iframe_tasks: false,
                allow_script_tasks: false,
                ..GenerationConfig::default()
            },
        );
        // Domains measurable via at least one image task.
        let mut domains: Vec<String> = tasks
            .iter()
            .filter(|t| t.spec.task_type() == TaskType::Image)
            .filter_map(|t| t.spec.target_domain())
            .collect();
        domains.sort();
        domains.dedup();
        let coverage = domains.len();
        // Average byte cost per image task.
        let avg_bytes: f64 = {
            let bytes: Vec<f64> = tasks
                .iter()
                .filter(|t| t.spec.task_type() == TaskType::Image)
                .filter_map(|t| {
                    hars.iter()
                        .flat_map(|h| h.entries.iter())
                        .find(|e| e.url == t.spec.target_url())
                        .map(|e| e.body_bytes as f64)
                })
                .collect();
            if bytes.is_empty() {
                0.0
            } else {
                bytes.iter().sum::<f64>() / bytes.len() as f64
            }
        };
        rows.push(vec![
            format!("{cap}"),
            coverage.to_string(),
            format!("{avg_bytes:.0}"),
        ]);
        results.image_cap.push((cap, coverage, avg_bytes));
    }
    print_table(
        &["cap (bytes)", "measurable domains", "avg task bytes"],
        &rows,
    );
    println!();
}

/// Sweep 2: the binomial null prior p.
fn sweep_detector_p(results: &mut Ablations) {
    println!("--- ablation 2: detector success prior p (paper: 0.7) ---");
    // Synthetic cells: an unfiltered region with a 5% transient failure
    // rate (India-like) and a throttled region losing 45% of exchanges.
    let n: u64 = 200;
    let honest_x = (n as f64 * 0.95) as u64;
    let throttled_x = (n as f64 * 0.55) as u64;
    let mut rows = Vec::new();
    for p in [0.5, 0.6, 0.7, 0.8, 0.9, 0.95] {
        let test = OneSidedBinomialTest::new(p, 0.05);
        let fp = if test.rejects(n, honest_x) { 1.0 } else { 0.0 };
        let catches = if test.rejects(n, throttled_x) {
            1.0
        } else {
            0.0
        };
        rows.push(vec![
            format!("{p:.2}"),
            if fp > 0.0 { "FALSE POSITIVE" } else { "ok" }.to_string(),
            if catches > 0.0 { "detected" } else { "missed" }.to_string(),
        ]);
        results.detector_p.push((p, fp, catches));
    }
    print_table(
        &["p", "honest region (95% ok)", "throttled region (55% ok)"],
        &rows,
    );
    println!("paper's p=0.7 sits in the window that avoids the false positive");
    println!("while still catching heavy throttling.\n");
}

/// Sweep 3: the iframe cache-timing threshold.
///
/// The adversarial case is *single-URL* filtering (§4.3.2: censors that
/// block one blog post "but leave the remainder of a domain intact,
/// including resources embedded by the filtered pages"): the page is
/// blocked but the probe image is reachable, so a too-loose threshold
/// lets the uncached probe fetch pass as "cached" — a false success.
fn sweep_iframe_threshold(results: &mut Ablations, seed: u64) {
    println!("--- ablation 3: iframe cache threshold (Figure 7's 50 ms) ---");
    use censor::national::NationalCensor;
    use censor::policy::{BlockTarget, CensorPolicy, Mechanism};

    let mut rows = Vec::new();
    for thr_ms in [5u64, 20, 50, 150, 500, 2_000] {
        let mut control_ok = 0;
        let mut filtered_false_ok = 0;
        let trials = 40;
        for i in 0..trials {
            let run = |filtered: bool, i: u64| {
                let mut net = Network::new(World::builtin());
                let tb = Testbed::install(&mut net);
                if filtered {
                    // Block only the page URL; the embedded image stays
                    // reachable.
                    let policy = CensorPolicy::named("single-url").with_rule(
                        BlockTarget::UrlExact(tb.page_url(FilterVariety::Control)),
                        Mechanism::HttpReset,
                    );
                    net.add_middlebox(Box::new(NationalCensor::new(country("DE"), policy)));
                }
                let root = SimRng::new(seed ^ (i << 3) ^ u64::from(filtered));
                let mut client = BrowserClient::new(
                    &mut net,
                    country("DE"),
                    IspClass::Residential,
                    Engine::Chrome,
                    &root,
                );
                let task = MeasurementTask {
                    id: MeasurementId(0),
                    spec: TaskSpec::Iframe {
                        page_url: tb.page_url(FilterVariety::Control),
                        probe_image_url: format!(
                            "http://{}/embedded.png",
                            FilterVariety::Control.hostname()
                        ),
                        threshold: SimDuration::from_millis(thr_ms),
                    },
                };
                execute_task(&task, &mut client, &mut net, SimTime::ZERO).outcome
            };
            if run(false, i) == TaskOutcome::Success {
                control_ok += 1;
            }
            if run(true, i) == TaskOutcome::Success {
                filtered_false_ok += 1;
            }
        }
        let ok_rate = control_ok as f64 / trials as f64;
        let false_rate = filtered_false_ok as f64 / trials as f64;
        rows.push(vec![
            format!("{thr_ms}"),
            format!("{:.0}%", 100.0 * ok_rate),
            format!("{:.0}%", 100.0 * false_rate),
        ]);
        results.iframe_threshold.push((thr_ms, ok_rate, false_rate));
    }
    print_table(
        &[
            "threshold (ms)",
            "control success",
            "page-blocked false-success",
        ],
        &rows,
    );
    println!("too tight → control loads misread as failures; too loose → the");
    println!("*uncached* probe fetch of a page-blocked site passes as cached.");
    println!("50 ms works because Figure 7's cached/uncached gap straddles it.\n");
}

/// Sweep 4: GeoIP error rate vs detection recall.
fn sweep_geo_error(results: &mut Ablations) {
    println!("--- ablation 4: GeoIP error rate vs detection recall ---");
    use encore::collection::{StoredMeasurement, Submission, SubmissionPhase};
    use netsim::ip::IpAllocator;

    let mut rows = Vec::new();
    for err in [0.0, 0.05, 0.1, 0.2, 0.4, 0.6] {
        let mut alloc = IpAllocator::new();
        let mut records = Vec::new();
        let mut id = 0u64;
        let add = |alloc: &mut IpAllocator,
                   records: &mut Vec<StoredMeasurement>,
                   cc: &str,
                   ok: bool,
                   id: &mut u64| {
            *id += 1;
            records.push(StoredMeasurement {
                submission: Submission {
                    measurement_id: MeasurementId(*id),
                    phase: SubmissionPhase::Result,
                    outcome: Some(if ok {
                        TaskOutcome::Success
                    } else {
                        TaskOutcome::Failure
                    }),
                    elapsed_ms: 100,
                    task_type: TaskType::Image,
                    target_url: "http://youtube.com/favicon.ico".into(),
                    user_agent: "Chrome".into(),
                    congested: false,
                },
                client_ip: alloc.allocate(country(cc)),
                referer: None,
                received_at: SimTime::ZERO,
            });
        };
        // PK fully blocked; three healthy regions.
        for _ in 0..60 {
            add(&mut alloc, &mut records, "PK", false, &mut id);
        }
        for cc in ["US", "DE", "BR"] {
            for _ in 0..60 {
                add(&mut alloc, &mut records, cc, true, &mut id);
            }
        }
        let geo = GeoDb::from_allocator(&alloc).with_error_rate(err);
        let detections = FilteringDetector::new(DetectorConfig {
            max_per_ip: None,
            ..DetectorConfig::default()
        })
        .detect(&records, &geo);
        let pk_found = detections
            .iter()
            .filter(|d| d.country == country("PK"))
            .count();
        rows.push(vec![
            format!("{:.0}%", err * 100.0),
            detections.len().to_string(),
            if pk_found > 0 { "yes" } else { "NO" }.to_string(),
        ]);
        results.geo_error.push((err, detections.len()));
    }
    print_table(&["geo error", "total detections", "PK block found"], &rows);
    println!("moderate geolocation error dilutes but does not destroy detection;");
    println!("extreme error smears failures across regions and loses the signal.\n");
}

pub fn run(args: &RunArgs) {
    let mut results = Ablations::default();
    sweep_image_cap(&mut results, args.seed);
    sweep_detector_p(&mut results);
    sweep_iframe_threshold(&mut results, args.seed);
    sweep_geo_error(&mut results);
    args.write_results("ablations", &results);
}

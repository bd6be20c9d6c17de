//! §6.3 — "Will webmasters install Encore?" (cost side)
//!
//! Quantifies the paper's cost claims: "our prototype adds only 100 bytes
//! to each origin page and requires no additional requests or connections
//! between the client and the origin server … measurement tasks that
//! detect filtering of a domain (i.e., by loading small images) incur
//! overheads that are usually an insignificant fraction of a page's
//! network usage."

use bench::fixtures::RunArgs;
use bench::{print_table, PaperWorld};
use encore::delivery::{render_snippet, render_task_js, SNIPPET_BYTES};
use encore::pipeline::GenerationConfig;
use encore::tasks::TaskType;
use serde::Serialize;
use sim_core::Cdf;
use websim::generator::WebConfig;

#[derive(Serialize)]
struct Overhead {
    snippet_bytes: usize,
    task_js_bytes: Vec<(String, usize)>,
    median_page_kb: f64,
    per_task_fetch_bytes: Vec<(String, u64)>,
    image_task_overhead_fraction_of_page: f64,
}

pub fn run(args: &RunArgs) {
    let snippet = render_snippet("coordinator.encore-repro.net");

    // Typical fetched bytes per task type, from the generated task pool.
    let mut pw = PaperWorld::build(&WebConfig::default(), args.seed);
    let hars = pw.fetch_corpus_hars();
    let page_sizes: Vec<f64> = hars
        .iter()
        .filter(|h| h.page_ok)
        .map(|h| h.total_bytes() as f64 / 1_000.0)
        .collect();
    let median_page_kb = Cdf::new(page_sizes).median().unwrap_or(0.0);

    let tasks = pw.generate_tasks(
        &hars,
        GenerationConfig {
            max_image_bytes: 1_000,
            ..GenerationConfig::default()
        },
    );

    // Look up fetched-byte cost per task type from HAR ground truth.
    let mut byte_cost: std::collections::BTreeMap<TaskType, (u64, u64)> =
        std::collections::BTreeMap::new();
    for t in &tasks {
        let url = t.spec.target_url();
        let bytes = hars
            .iter()
            .flat_map(|h| h.entries.iter())
            .find(|e| e.url == url)
            .map(|e| e.body_bytes)
            .or_else(|| {
                // Iframe tasks: cost is the whole page.
                hars.iter()
                    .find(|h| h.page_url == url)
                    .map(|h| h.total_bytes())
            })
            .unwrap_or(0);
        let entry = byte_cost.entry(t.spec.task_type()).or_default();
        entry.0 += bytes;
        entry.1 += 1;
    }

    let per_task: Vec<(String, u64)> = byte_cost
        .iter()
        .map(|(tt, (sum, n))| (tt.to_string(), if *n == 0 { 0 } else { sum / n }))
        .collect();

    let avg_image = per_task
        .iter()
        .find(|(t, _)| t == "image")
        .map(|&(_, b)| b)
        .unwrap_or(0);
    let image_fraction = avg_image as f64 / (median_page_kb * 1_000.0);

    let js_sizes: Vec<(String, usize)> = {
        let mut sizes = Vec::new();
        for tt in TaskType::ALL {
            if let Some(task) = tasks.iter().find(|t| t.spec.task_type() == tt) {
                sizes.push((
                    tt.to_string(),
                    render_task_js(task, "collector.encore-repro.net").len(),
                ));
            }
        }
        sizes
    };

    let result = Overhead {
        snippet_bytes: snippet.len(),
        task_js_bytes: js_sizes.clone(),
        median_page_kb,
        per_task_fetch_bytes: per_task.clone(),
        image_task_overhead_fraction_of_page: image_fraction,
    };

    println!("=== §6.3 install & measurement overhead ===\n");
    println!("install snippet ({} bytes): {snippet}\n", snippet.len());
    print_table(
        &["task type", "avg fetched bytes", "task JS bytes"],
        &per_task
            .iter()
            .map(|(t, b)| {
                let js = js_sizes
                    .iter()
                    .find(|(n, _)| n == t)
                    .map(|(_, s)| s.to_string())
                    .unwrap_or_default();
                vec![t.clone(), b.to_string(), js]
            })
            .collect::<Vec<_>>(),
    );
    println!();
    print_table(
        &["claim", "paper", "measured"],
        &[
            vec![
                "snippet overhead per origin page".into(),
                "~100 bytes".into(),
                format!("{} bytes (accounted as {SNIPPET_BYTES})", snippet.len()),
            ],
            vec![
                "image task vs median page weight".into(),
                "insignificant".into(),
                format!(
                    "{avg_image} bytes = {:.3}% of {median_page_kb:.0} KB",
                    100.0 * image_fraction
                ),
            ],
        ],
    );
    args.write_results("overhead", &result);
}

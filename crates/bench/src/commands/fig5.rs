//! Figure 5 — "Distribution of page sizes, computed as the sum of sizes
//! of all objects loaded by a page."
//!
//! Paper claims: sizes "distributed relatively evenly between 0–2 MB with
//! a very long tail"; "over half of pages load at least half a megabyte
//! of objects". This is the network overhead a hidden-iframe task would
//! incur, motivating the prototype's 100 KB page cap.

use bench::fixtures::RunArgs;
use bench::{print_table, PaperWorld};
use serde::Serialize;
use sim_core::Cdf;
use websim::generator::WebConfig;

#[derive(Serialize)]
struct Fig5 {
    pages: usize,
    median_kb: f64,
    frac_over_500kb: f64,
    frac_under_100kb: f64,
    p95_kb: f64,
    cdf_kb: Vec<(f64, f64)>,
}

pub fn run(args: &RunArgs) {
    let mut pw = PaperWorld::build(&WebConfig::default(), args.seed);
    let hars = pw.fetch_corpus_hars();

    let sizes_kb: Vec<f64> = hars
        .iter()
        .filter(|h| h.page_ok)
        .map(|h| h.total_bytes() as f64 / 1_000.0)
        .collect();
    let cdf = Cdf::new(sizes_kb);

    // The paper's x-axis: 0–2000 KB.
    let xs: Vec<f64> = (0..=20).map(|i| i as f64 * 100.0).collect();
    let result = Fig5 {
        pages: cdf.len(),
        median_kb: cdf.median().unwrap_or(0.0),
        frac_over_500kb: 1.0 - cdf.fraction_at_most(500.0),
        frac_under_100kb: cdf.fraction_at_most(100.0),
        p95_kb: cdf.quantile(0.95).unwrap_or(0.0),
        cdf_kb: cdf.series_at(&xs),
    };

    println!("=== Figure 5: total page size (CDF) ===");
    println!("pages analysed: {}", result.pages);
    println!();
    print_table(
        &["page size (KB)", "F(x)"],
        &result
            .cdf_kb
            .iter()
            .map(|(x, f)| vec![format!("{x:.0}"), format!("{f:.3}")])
            .collect::<Vec<_>>(),
    );
    println!();
    print_table(
        &["claim", "paper", "measured"],
        &[
            vec![
                "pages loading >=0.5 MB".into(),
                ">50%".into(),
                format!("{:.1}%", 100.0 * result.frac_over_500kb),
            ],
            vec![
                "median page size".into(),
                "~0.5-1 MB".into(),
                format!("{:.0} KB", result.median_kb),
            ],
            vec![
                "pages <=100 KB (iframe-eligible)".into(),
                "small minority".into(),
                format!("{:.1}%", 100.0 * result.frac_under_100kb),
            ],
            vec![
                "p95 (long tail)".into(),
                ">2 MB".into(),
                format!("{:.0} KB", result.p95_kb),
            ],
        ],
    );
    args.write_results("fig5", &result);
}

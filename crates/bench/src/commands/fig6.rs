//! Figure 6 — "Distribution of the number of cacheable images loaded by
//! pages that require at most 100 KB of traffic to load, pages that incur
//! at most 500 KB of traffic, and all pages."
//!
//! Paper claims: "Over 70% of all pages cache at least one image and half
//! of all pages cache five or more images; these numbers drop
//! considerably when excluding pages greater than 100 KB" (only ~30% of
//! ≤100 KB pages embed a cacheable image). Combined with Figure 5 this
//! yields §6.1's conclusion: Encore can measure >50% of *domains* but
//! under 10% of individual *URLs*.

use bench::fixtures::RunArgs;
use bench::{print_table, PaperWorld};
use encore::pipeline::TaskGenerator;
use serde::Serialize;
use sim_core::Cdf;
use websim::generator::WebConfig;

#[derive(Serialize)]
struct Fig6 {
    pages: usize,
    frac_all_pages_with_cacheable: f64,
    frac_all_pages_with_five_plus: f64,
    frac_small_pages_with_cacheable: f64,
    frac_urls_iframe_measurable: f64,
    cdf_all: Vec<(f64, f64)>,
    cdf_le_500kb: Vec<(f64, f64)>,
    cdf_le_100kb: Vec<(f64, f64)>,
}

pub fn run(args: &RunArgs) {
    let mut pw = PaperWorld::build(&WebConfig::default(), args.seed);
    let hars = pw.fetch_corpus_hars();
    let generator = TaskGenerator::default();

    let mut all = Vec::new();
    let mut le500 = Vec::new();
    let mut le100 = Vec::new();
    for har in hars.iter().filter(|h| h.page_ok) {
        let analysis = generator.analyze(har);
        let cacheable = analysis.cacheable_images as f64;
        all.push(cacheable);
        if analysis.total_bytes <= 500_000 {
            le500.push(cacheable);
        }
        if analysis.total_bytes <= 100_000 {
            le100.push(cacheable);
        }
    }

    let cdf_all = Cdf::new(all);
    let cdf_500 = Cdf::new(le500);
    let cdf_100 = Cdf::new(le100);

    // The paper's x-axis: 0–50 cacheable images per page.
    let xs: Vec<f64> = (0..=10).map(|i| i as f64 * 5.0).collect();

    let frac_all_any = 1.0 - cdf_all.fraction_at_most(0.0);
    let frac_small_any = 1.0 - cdf_100.fraction_at_most(0.0);
    // URLs measurable by the iframe task: ≤100 KB AND ≥1 cacheable image,
    // as a fraction of all URLs.
    let frac_measurable = if cdf_all.is_empty() {
        0.0
    } else {
        (cdf_100.len() as f64 * frac_small_any) / cdf_all.len() as f64
    };

    let result = Fig6 {
        pages: cdf_all.len(),
        frac_all_pages_with_cacheable: frac_all_any,
        frac_all_pages_with_five_plus: 1.0 - cdf_all.fraction_at_most(4.0),
        frac_small_pages_with_cacheable: frac_small_any,
        frac_urls_iframe_measurable: frac_measurable,
        cdf_all: cdf_all.series_at(&xs),
        cdf_le_500kb: cdf_500.series_at(&xs),
        cdf_le_100kb: cdf_100.series_at(&xs),
    };

    println!("=== Figure 6: cacheable images per page (CDF) ===");
    println!(
        "pages: {} total, {} <=500KB, {} <=100KB",
        cdf_all.len(),
        cdf_500.len(),
        cdf_100.len()
    );
    println!();
    let mut rows = Vec::new();
    for (i, &x) in xs.iter().enumerate() {
        rows.push(vec![
            format!("{x:.0}"),
            format!(
                "{:.3}",
                result.cdf_le_100kb.get(i).map(|p| p.1).unwrap_or(1.0)
            ),
            format!(
                "{:.3}",
                result.cdf_le_500kb.get(i).map(|p| p.1).unwrap_or(1.0)
            ),
            format!("{:.3}", result.cdf_all[i].1),
        ]);
    }
    print_table(
        &["cacheable imgs/page", "F(<=100KB)", "F(<=500KB)", "F(all)"],
        &rows,
    );
    println!();
    print_table(
        &["claim", "paper", "measured"],
        &[
            vec![
                "all pages with >=1 cacheable image".into(),
                "~70%".into(),
                format!("{:.1}%", 100.0 * result.frac_all_pages_with_cacheable),
            ],
            vec![
                "all pages with >=5 cacheable images".into(),
                "~50%".into(),
                format!("{:.1}%", 100.0 * result.frac_all_pages_with_five_plus),
            ],
            vec![
                "<=100KB pages with >=1 cacheable image".into(),
                "~30%".into(),
                format!("{:.1}%", 100.0 * result.frac_small_pages_with_cacheable),
            ],
            vec![
                "URLs measurable via iframe task".into(),
                "<10%".into(),
                format!("{:.1}%", 100.0 * result.frac_urls_iframe_measurable),
            ],
        ],
    );
    args.write_results("fig6", &result);
}

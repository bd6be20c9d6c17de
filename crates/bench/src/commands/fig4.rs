//! Figure 4 — "Distribution of the number of images hosted by each of the
//! 178 domains tested, for images that are at most 1 KB, at most 5 KB,
//! and any size."
//!
//! Paper claims to reproduce (shape, not absolute values):
//! * ~70% of domains embed at least one image;
//! * almost all such images are less than 5 KB (the ≤5 KB curve hugs the
//!   all-sizes curve);
//! * over 60% of domains host single-packet (≤1 KB) images;
//! * a third of domains have hundreds of such images.

use bench::fixtures::RunArgs;
use bench::{print_table, PaperWorld};
use encore::pipeline::TaskGenerator;
use serde::Serialize;
use sim_core::Cdf;
use std::collections::{BTreeMap, BTreeSet};
use websim::generator::WebConfig;

#[derive(Serialize)]
struct Fig4 {
    domains: usize,
    urls_fetched: usize,
    frac_domains_with_any_image: f64,
    frac_domains_with_le1kb_image: f64,
    frac_images_under_5kb: f64,
    frac_domains_hundreds_tiny: f64,
    cdf_all: Vec<(f64, f64)>,
    cdf_le_5kb: Vec<(f64, f64)>,
    cdf_le_1kb: Vec<(f64, f64)>,
}

pub fn run(args: &RunArgs) {
    let mut pw = PaperWorld::build(&WebConfig::default(), args.seed);
    let hars = pw.fetch_corpus_hars();
    let generator = TaskGenerator::default();

    // Per-domain distinct images (url → bytes) aggregated over the ≤50
    // sampled pages.
    let mut per_domain: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    let mut fetched_domains: BTreeSet<String> = BTreeSet::new();
    for har in &hars {
        let analysis = generator.analyze(har);
        if let Some(host) = netsim::http::host_of(&analysis.page_url) {
            fetched_domains.insert(host.clone());
            let entry = per_domain.entry(host).or_default();
            for (url, bytes, _) in analysis.images {
                entry.insert(url, bytes);
            }
        }
    }

    let mut all = Vec::new();
    let mut le5 = Vec::new();
    let mut le1 = Vec::new();
    let mut total_images = 0usize;
    let mut small_images = 0usize;
    for domain in &fetched_domains {
        let images = per_domain.get(domain).cloned().unwrap_or_default();
        let n_all = images.len();
        let n_le5 = images.values().filter(|b| **b <= 5_000).count();
        let n_le1 = images.values().filter(|b| **b <= 1_000).count();
        total_images += n_all;
        small_images += n_le5;
        all.push(n_all as f64);
        le5.push(n_le5 as f64);
        le1.push(n_le1 as f64);
    }

    let cdf_all = Cdf::new(all);
    let cdf_le5 = Cdf::new(le5);
    let cdf_le1 = Cdf::new(le1.clone());

    // The paper's x-axis: 0–2000 images.
    let xs: Vec<f64> = (0..=20).map(|i| i as f64 * 100.0).collect();

    let result = Fig4 {
        domains: fetched_domains.len(),
        urls_fetched: hars.len(),
        frac_domains_with_any_image: 1.0 - cdf_all.fraction_at_most(0.0),
        frac_domains_with_le1kb_image: 1.0 - cdf_le1.fraction_at_most(0.0),
        frac_images_under_5kb: if total_images == 0 {
            0.0
        } else {
            small_images as f64 / total_images as f64
        },
        frac_domains_hundreds_tiny: 1.0 - cdf_le1.fraction_at_most(100.0),
        cdf_all: cdf_all.series_at(&xs),
        cdf_le_5kb: cdf_le5.series_at(&xs),
        cdf_le_1kb: cdf_le1.series_at(&xs),
    };

    println!("=== Figure 4: images per domain (CDF) ===");
    println!(
        "corpus: {} domains, {} URLs fetched",
        result.domains, result.urls_fetched
    );
    println!();
    let mut rows = Vec::new();
    for (i, &x) in xs.iter().enumerate() {
        rows.push(vec![
            format!("{x:.0}"),
            format!("{:.3}", result.cdf_le_1kb[i].1),
            format!("{:.3}", result.cdf_le_5kb[i].1),
            format!("{:.3}", result.cdf_all[i].1),
        ]);
    }
    print_table(&["images/domain", "F(<=1KB)", "F(<=5KB)", "F(all)"], &rows);
    println!();
    print_table(
        &["claim", "paper", "measured"],
        &[
            vec![
                "domains embedding >=1 image".into(),
                "~70%".into(),
                format!("{:.1}%", 100.0 * result.frac_domains_with_any_image),
            ],
            vec![
                "domains with <=1KB images".into(),
                ">60%".into(),
                format!("{:.1}%", 100.0 * result.frac_domains_with_le1kb_image),
            ],
            vec![
                "images under 5KB".into(),
                "almost all".into(),
                format!("{:.1}%", 100.0 * result.frac_images_under_5kb),
            ],
            vec![
                "domains with 100s of <=1KB images".into(),
                "~1/3".into(),
                format!("{:.1}%", 100.0 * result.frac_domains_hundreds_tiny),
            ],
        ],
    );
    args.write_results("fig4", &result);
}

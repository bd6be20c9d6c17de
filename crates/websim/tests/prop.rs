//! Property tests for the synthetic web.

use proptest::prelude::*;
use sim_core::SimRng;
use websim::generator::{SyntheticWeb, WebConfig};
use websim::har::{Har, HarEntry};
use websim::{SearchIndex, UrlPattern};

fn tiny_config() -> WebConfig {
    WebConfig {
        num_domains: 6,
        median_pages_per_domain: 8.0,
        ..WebConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generation_deterministic_across_seeds(seed in any::<u64>()) {
        let a = SyntheticWeb::generate(&tiny_config(), &mut SimRng::new(seed));
        let b = SyntheticWeb::generate(&tiny_config(), &mut SimRng::new(seed));
        prop_assert_eq!(a.domains(), b.domains());
        let pages =
            |w: &SyntheticWeb| -> Vec<usize> { w.sites.iter().map(|s| s.pages.len()).collect() };
        prop_assert_eq!(pages(&a), pages(&b));
    }

    #[test]
    fn search_respects_limit(seed in any::<u64>(), limit in 0usize..100) {
        let web = SyntheticWeb::generate(&tiny_config(), &mut SimRng::new(seed));
        let index = SearchIndex::build(&web);
        for d in web.domains() {
            let results = index.query(&UrlPattern::Domain(d.clone()), limit);
            prop_assert!(results.len() <= limit);
            for u in &results {
                prop_assert!(UrlPattern::Domain(d.clone()).matches(u));
            }
        }
    }

    #[test]
    fn every_generated_embed_resolves(seed in any::<u64>()) {
        let web = SyntheticWeb::generate(&tiny_config(), &mut SimRng::new(seed));
        for site in &web.sites {
            for page in site.pages.values() {
                for e in &page.embeds {
                    let host = netsim::http::host_of(&e.url).expect("embed URL well-formed");
                    let owner = web.site(&host).expect("embed host exists in corpus");
                    let path = netsim::http::path_of(&e.url);
                    prop_assert!(
                        owner.resource(&path).is_some(),
                        "dangling embed {} on {}/{}",
                        e.url,
                        site.domain,
                        page.path
                    );
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn har_total_bytes_is_sum(sizes in proptest::collection::vec(0u64..1_000_000, 0..50)) {
        let har = Har {
            page_url: "http://x.com/p".into(),
            entries: sizes
                .iter()
                .enumerate()
                .map(|(i, s)| HarEntry {
                    url: format!("http://x.com/r{i}"),
                    status: 200,
                    content_type: netsim::http::ContentType::Other,
                    body_bytes: *s,
                    cacheable: false,
                    nosniff: false,
                    time: sim_core::SimDuration::from_millis(1),
                    ok: true,
                })
                .collect(),
            page_ok: true,
        };
        prop_assert_eq!(har.total_bytes(), sizes.iter().sum::<u64>());
        let cap = sizes.iter().copied().max().unwrap_or(0);
        prop_assert!(!har.has_object_larger_than(cap));
        if cap > 0 {
            prop_assert!(har.has_object_larger_than(cap - 1));
        }
    }

    #[test]
    fn pattern_parse_matches_roundtrip(
        domain in "[a-z]{1,10}\\.(com|org)",
    ) {
        // A parsed bare domain pattern matches pages on that domain.
        let p = UrlPattern::parse(&domain);
        let url = format!("http://{domain}/any/page");
        prop_assert!(p.matches(&url));
        let parsed_domain = p.domain();
        prop_assert_eq!(parsed_domain.as_deref(), Some(domain.as_str()));
    }
}

//! Property tests for `websim::har` over *generated* corpora: round-trip
//! byte-equality and the image/cross-origin invariants must hold for every
//! HAR the headless browser records from a corpus, not just hand-built
//! fixtures.

use browser::{BrowserClient, Engine};
use netsim::geo::{country, IspClass, World};
use netsim::network::Network;
use proptest::prelude::*;
use sim_core::{SimRng, SimTime};
use websim::corpus::{Corpus, CorpusConfig};
use websim::generator::WebConfig;
use websim::Har;

/// A small seeded corpus (3–6 sites, few pages) — cheap enough to build
/// per proptest case.
fn tiny_corpus(seed: u64, num_domains: usize, zipf_exponent: f64) -> Corpus {
    let cfg = CorpusConfig {
        web: WebConfig {
            num_domains,
            median_pages_per_domain: 4.0,
            ..WebConfig::default()
        },
        zipf_exponent,
        cross_links_per_site: 1,
    };
    let mut rng = SimRng::new(seed);
    Corpus::generate(&cfg, &mut rng).expect("valid config")
}

/// The HAR of every page of a corpus site, rendered from an unfiltered
/// vantage over ideal paths.
fn hars_of_rank(corpus: &Corpus, rank: usize) -> Vec<Har> {
    let mut rng = SimRng::new(rank as u64);
    let mut net = Network::ideal(World::builtin());
    corpus.install(&mut net, &mut rng);
    let mut fetcher = BrowserClient::new(
        &mut net,
        country("US"),
        IspClass::Datacenter,
        Engine::Chrome,
        &rng,
    );
    let site = &corpus.web.sites[rank % corpus.len()];
    site.pages
        .keys()
        .map(|p| fetcher.render_har(&mut net, &site.url(p), SimTime::ZERO))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn har_round_trips_byte_identically(
        seed in any::<u64>(),
        n in 3usize..6,
        s in 0.5f64..1.8,
        rank in 0usize..6,
    ) {
        let corpus = tiny_corpus(seed, n, s);
        for har in hars_of_rank(&corpus, rank) {
            let json = serde_json::to_string(&har).unwrap();
            let back: Har = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&back, &har, "value round-trip");
            // Byte equality: re-serialising the deserialised value must
            // reproduce the original bytes exactly.
            prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }

    #[test]
    fn cross_origin_entries_are_exactly_the_foreign_hosts(
        seed in any::<u64>(),
        n in 3usize..6,
        rank in 0usize..6,
    ) {
        // The entries on a foreign host are exactly the page's
        // cross-site embeds, in embed order.
        let corpus = tiny_corpus(seed, n, 1.0);
        let site = &corpus.web.sites[rank % corpus.len()];
        for (har, page) in hars_of_rank(&corpus, rank).iter().zip(site.pages.values()) {
            let page_host = netsim::http::host_of(&har.page_url);
            prop_assert_eq!(page_host.as_deref(), Some(site.domain.as_str()));
            let foreign = |url: &str| netsim::http::host_of(url) != page_host;
            let cross: Vec<&str> = har
                .entries
                .iter()
                .map(|e| e.url.as_str())
                .filter(|u| foreign(u))
                .collect();
            let embeds: Vec<&str> = page
                .embeds
                .iter()
                .map(|e| e.url.as_str())
                .filter(|u| foreign(u))
                .collect();
            prop_assert_eq!(cross, embeds);
        }
    }

    #[test]
    fn image_filters_nest_and_bytes_sum(
        seed in any::<u64>(),
        n in 3usize..6,
        rank in 0usize..6,
    ) {
        let corpus = tiny_corpus(seed, n, 1.0);
        for har in hars_of_rank(&corpus, rank) {
            let images: Vec<_> = har.images().collect();
            let cacheable: Vec<_> = har.cacheable_images().collect();
            // cacheable_images ⊆ images ⊆ ok entries.
            prop_assert!(cacheable.len() <= images.len());
            for e in &cacheable {
                prop_assert!(e.cacheable && e.is_image());
            }
            for e in &images {
                prop_assert!(e.ok, "failed entries must never count as images");
                prop_assert!(images.len() <= har.entries.len());
            }
            let sum: u64 = har.entries.iter().map(|e| e.body_bytes).sum();
            prop_assert_eq!(har.total_bytes(), sum);
            // The page's own HTML is entry 0 and on the page host.
            prop_assert_eq!(har.entries[0].url.as_str(), har.page_url.as_str());
        }
    }
}

//! Seeded generative corpus: a rank-ordered web with scale-free
//! cross-site links, plus benign-disruption events.
//!
//! Encore's real deployment rode heterogeneous third-party pages across
//! many countries; this module grows [`SyntheticWeb`] into that substrate:
//!
//! * **Rank order** — site `i` (generation order) is the rank-`i` site;
//!   worlds name the sites they measure by rank.
//! * **Scale-free cross-site links** — preferential attachment (new sites
//!   link to already well-linked ones, cf. *Communication Bottlenecks in
//!   Scale-Free Networks*) materialised as real cross-origin image embeds,
//!   so HAR capture sees them.
//! * **CDN / multi-origin assets** — inherited from the generator's shared
//!   CDNs plus the new cross-site embeds.
//! * **Demographic mixes** — [`CountryMix`]: seeded Zipf-weighted client
//!   populations over a country list; the bench/simcheck layers pair each
//!   country with its censor regime from the registry.
//! * **Benign disruptions** — [`Disruption`]: origin outages, cert
//!   rotations, and site redesigns that break measurement tasks, applied
//!   to a standing [`Network`] by swapping the origin's HTTP handler in
//!   place (no address churn, so shard determinism is preserved). A
//!   `Disruption` is plain `Copy` data; a world recipe schedules one
//!   beside the `(config, seed)` that generates its corpus, and the
//!   corpus is regenerated where the disruption fires.
//!
//! Everything is a pure function of `(config, seed)`: two shards that
//! build the same corpus get byte-identical content, handlers, and
//! disruption behaviour.

use crate::generator::{SyntheticWeb, WebConfig, WebConfigError};
use crate::site::{EmbedKind, EmbedRef, SiteContent, SiteHandler};
use netsim::http::{ContentType, HttpResponse};
use netsim::network::{ConstHandler, HttpHandler, Network};
use serde::{Deserialize, Serialize};
use sim_core::dist::{Zipf, ZipfError};
use sim_core::SimRng;
use std::sync::Arc;

/// Corpus generator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Per-site content generation knobs.
    pub web: WebConfig,
    /// Cross-site links added per site (preferential attachment); each
    /// becomes a cross-origin image embed on one of the site's pages.
    pub cross_links_per_site: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            web: WebConfig::default(),
            cross_links_per_site: 2,
        }
    }
}

impl CorpusConfig {
    /// A small corpus for fast tests.
    pub fn small() -> CorpusConfig {
        CorpusConfig {
            web: WebConfig::small(),
            ..CorpusConfig::default()
        }
    }
}

/// Why a [`Corpus`] could not be generated.
#[derive(Debug, Clone, PartialEq)]
pub enum CorpusError {
    /// The per-site generator config was degenerate.
    Web(WebConfigError),
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Web(e) => write!(f, "web config: {e}"),
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<WebConfigError> for CorpusError {
    fn from(e: WebConfigError) -> Self {
        CorpusError::Web(e)
    }
}

/// A generated web corpus: sites in rank order and cross-site structure.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The underlying generated web (sites in rank order).
    pub web: SyntheticWeb,
    /// Cross-site links as `(from_rank, to_rank)` pairs.
    pub links: Vec<(usize, usize)>,
}

impl Corpus {
    /// Generate a corpus. Deterministic in `(cfg, rng seed)`.
    pub fn generate(cfg: &CorpusConfig, rng: &mut SimRng) -> Result<Corpus, CorpusError> {
        let mut web = SyntheticWeb::try_generate(&cfg.web, rng)?;
        let n = web.sites.len();

        // Preferential attachment: site i links to an earlier site chosen
        // proportionally to (in-degree + 1), yielding a scale-free
        // in-degree distribution with rank-0-adjacent hubs.
        let mut link_rng = rng.fork("corpus-links");
        let mut in_degree = vec![0usize; n];
        let mut links = Vec::new();
        for i in 1..n {
            for _ in 0..cfg.cross_links_per_site {
                let weights: Vec<f64> = in_degree[..i].iter().map(|&d| d as f64 + 1.0).collect();
                let j = link_rng.pick_weighted(&weights).expect("weights positive");
                in_degree[j] += 1;
                links.push((i, j));
            }
        }

        // Materialise each link as a cross-origin image embed on one page
        // of the linking site, so HAR capture observes the link graph.
        for &(i, j) in &links {
            let target_url = web.sites[j].url("/logo.png");
            let site =
                Arc::get_mut(&mut web.sites[i]).expect("freshly generated sites are unshared");
            let keys: Vec<String> = site.pages.keys().cloned().collect();
            let page_key = link_rng.pick(&keys).clone();
            let page = site.pages.get_mut(&page_key).expect("picked existing page");
            page.embeds.push(EmbedRef {
                url: target_url,
                kind: EmbedKind::Image,
            });
        }

        Ok(Corpus { web, links })
    }

    /// Install every site and CDN into the network (delegates to
    /// [`SyntheticWeb::install`]; hosting countries drawn from `rng`).
    pub fn install(&self, network: &mut Network, rng: &mut SimRng) {
        self.web.install(network, rng);
    }

    /// Number of content sites.
    pub fn len(&self) -> usize {
        self.web.sites.len()
    }

    /// Whether the corpus has no sites (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.web.sites.is_empty()
    }

    /// Domain of the site at `rank` (0 = most popular).
    pub fn domain(&self, rank: usize) -> &str {
        &self.web.sites[rank].domain
    }

    /// All content-site domains, rank-ordered (deterministic).
    pub fn domains(&self) -> Vec<String> {
        self.web.domains()
    }

    /// The site at `rank` after a redesign: shared assets move under
    /// `/assets/` and every same-site embed is rewritten to match. A
    /// measurement task pinned to the *old* `/favicon.ico` URL starts
    /// failing globally — the benign breakage §5.2's task refresh guards
    /// against.
    pub fn redesigned_site(&self, rank: usize) -> Option<Arc<SiteContent>> {
        const MOVED: [&str; 4] = ["/favicon.ico", "/logo.png", "/site.css", "/site.js"];
        let moved = |path: &str| -> String {
            if MOVED.contains(&path) {
                format!("/assets{path}")
            } else {
                path.to_string()
            }
        };
        let site = self.web.sites.get(rank)?;
        let mut redesigned = SiteContent::new(site.domain.clone());
        for (path, res) in &site.resources {
            let mut r = res.clone();
            r.path = moved(path);
            redesigned.add_resource(r);
        }
        let prefix = format!("http://{}", site.domain);
        for page in site.pages.values() {
            let mut p = page.clone();
            for e in &mut p.embeds {
                if let Some(rel) = e.url.strip_prefix(&prefix) {
                    e.url = format!("{prefix}{}", moved(rel));
                }
            }
            redesigned.add_page(p);
        }
        Some(Arc::new(redesigned))
    }
}
/// What a benign disruption does to its origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DisruptionKind {
    /// The origin goes dark: every request 404s until the outage ends.
    OriginOutage,
    /// A botched certificate rotation: responses arrive but fail
    /// validation until the rotation completes.
    CertRotation,
    /// A site redesign moves shared assets (permanent): tasks pinned to
    /// old URLs break globally.
    Redesign,
}

/// One scheduled benign-disruption event against a corpus site.
///
/// Disruptions model the non-censorship failures Encore must not confuse
/// with filtering: they hit the origin, so they fail *everywhere* — the
/// detector's cross-region control (a resource failing in every region is
/// an outage, not filtering) is what keeps them out of the verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Disruption {
    /// Day the disruption starts (caller converts to sim time).
    pub day: u64,
    /// Days until service is restored (ignored for [`DisruptionKind::Redesign`],
    /// which is permanent).
    pub duration_days: u64,
    /// Rank of the affected site.
    pub site: usize,
    /// What happens.
    pub kind: DisruptionKind,
}

impl Disruption {
    /// Day the disruption ends (handler restored), if it ever does.
    pub fn end_day(&self) -> Option<u64> {
        match self.kind {
            DisruptionKind::Redesign => None,
            _ => Some(self.day + self.duration_days),
        }
    }

    /// Apply the disruption to a standing network by swapping the origin's
    /// handler in place (no address churn). Returns `false` if the site is
    /// not installed.
    pub fn apply(&self, corpus: &Corpus, net: &mut Network) -> bool {
        let Some(site) = corpus.web.sites.get(self.site) else {
            return false;
        };
        let handler: Box<dyn HttpHandler> = match self.kind {
            DisruptionKind::OriginOutage => Box::new(ConstHandler(HttpResponse::not_found())),
            DisruptionKind::CertRotation => Box::new(ConstHandler(
                HttpResponse::ok(ContentType::Html, 1_024).with_invalid_body(),
            )),
            DisruptionKind::Redesign => Box::new(SiteHandler::new(
                self.redesigned(corpus).expect("rank exists: checked above"),
            )),
        };
        net.replace_server_handler(&site.domain, handler)
    }

    /// Restore the original handler (ends an outage or rotation; reverts a
    /// redesign if a schedule ever wants to).
    pub fn revert(&self, corpus: &Corpus, net: &mut Network) -> bool {
        let Some(site) = corpus.web.sites.get(self.site) else {
            return false;
        };
        net.replace_server_handler(&site.domain, Box::new(SiteHandler::new(Arc::clone(site))))
    }

    fn redesigned(&self, corpus: &Corpus) -> Option<Arc<SiteContent>> {
        corpus.redesigned_site(self.site)
    }
}

/// A seeded multi-country client demographic: country codes with client
/// population weights. The weights are the Zipf masses of the country's
/// position in the (caller-ordered) list, so the first country dominates
/// the audience the way a deployment's top market does. The bench and
/// simcheck layers pair each country with its censor regime from the
/// registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountryMix {
    /// `(country code, weight)` pairs; weights sum to 1.
    pub weights: Vec<(String, f64)>,
}

impl CountryMix {
    /// Build a mix over `countries` with Zipf exponent `s`.
    pub fn zipf(countries: &[&str], s: f64) -> Result<CountryMix, ZipfError> {
        let zipf = Zipf::try_new(countries.len(), s)?;
        Ok(CountryMix {
            weights: countries
                .iter()
                .enumerate()
                .map(|(i, cc)| (cc.to_string(), zipf.mass(i)))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WebConfig;
    use netsim::geo::World;
    use netsim::http::path_of;

    fn corpus(seed: u64) -> Corpus {
        let mut rng = SimRng::new(seed);
        Corpus::generate(&CorpusConfig::small(), &mut rng).unwrap()
    }

    #[test]
    fn corpus_is_send_sync_and_cheap_to_clone() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Corpus>();
        assert_send_sync::<Disruption>();
    }

    #[test]
    fn generation_is_deterministic() {
        let a = corpus(0xC0FF);
        let b = corpus(0xC0FF);
        assert_eq!(a.domains(), b.domains());
        assert_eq!(a.links, b.links);
    }

    #[test]
    fn link_graph_is_scale_free_ish() {
        let mut rng = SimRng::new(0x5CA1E);
        let cfg = CorpusConfig {
            web: WebConfig {
                num_domains: 40,
                median_pages_per_domain: 5.0,
                ..WebConfig::default()
            },
            cross_links_per_site: 2,
        };
        let c = Corpus::generate(&cfg, &mut rng).unwrap();
        assert_eq!(c.links.len(), 39 * 2);
        // Cross-site in-degrees by rank (hubs of the scale-free graph).
        let mut deg = vec![0usize; c.len()];
        for &(_, j) in &c.links {
            deg[j] += 1;
        }
        let max = *deg.iter().max().unwrap();
        let mean = deg.iter().sum::<usize>() as f64 / deg.len() as f64;
        // Preferential attachment concentrates links on hubs: the best-
        // linked site should sit far above the mean degree.
        assert!(
            max as f64 >= 3.0 * mean,
            "max in-degree {max} vs mean {mean:.2} — not heavy-tailed"
        );
    }

    #[test]
    fn cross_links_appear_in_ground_truth_hars() {
        let c = corpus(11);
        let (from, to) = c.links[0];
        let from_site = &c.web.sites[from];
        let target = c.web.sites[to].url("/logo.png");
        let embed = from_site
            .pages
            .values()
            .flat_map(|p| &p.embeds)
            .find(|e| e.url == target)
            .expect("some page of the linking site embeds the link target");
        // The linked logo resolves as a real cross-origin image.
        assert_eq!(embed.kind, EmbedKind::Image);
        assert_ne!(from_site.domain, c.web.sites[to].domain);
        let logo = c.web.sites[to]
            .resource("/logo.png")
            .expect("target serves its logo");
        assert_eq!(
            logo.content_type,
            ContentType::Image,
            "cross-site link must fetch as an image"
        );
    }

    #[test]
    fn degenerate_configs_are_typed_errors() {
        let mut rng = SimRng::new(1);
        let bad_web = CorpusConfig {
            web: WebConfig {
                num_domains: 0,
                ..WebConfig::default()
            },
            ..CorpusConfig::default()
        };
        assert!(matches!(
            Corpus::generate(&bad_web, &mut rng),
            Err(CorpusError::Web(WebConfigError::NoDomains))
        ));
    }

    #[test]
    fn redesign_moves_shared_assets_and_rewrites_embeds() {
        let c = corpus(21);
        let redesigned = c.redesigned_site(0).unwrap();
        assert!(redesigned.resource("/favicon.ico").is_none());
        assert!(redesigned.resource("/assets/favicon.ico").is_some());
        let prefix = format!("http://{}", redesigned.domain);
        for page in redesigned.pages.values() {
            for e in &page.embeds {
                if let Some(rel) = e.url.strip_prefix(&prefix) {
                    assert!(
                        redesigned.resource(&path_of(&e.url)).is_some(),
                        "embed {rel} dangles after redesign"
                    );
                }
            }
        }
    }

    #[test]
    fn disruptions_swap_handlers_in_place() {
        let c = corpus(33);
        let mut rng = SimRng::new(33);
        let mut net = Network::ideal(World::builtin());
        c.install(&mut net, &mut rng);
        let addresses = |net: &Network| -> Vec<_> {
            c.web
                .sites
                .iter()
                .map(|s| net.dns.authoritative(&s.domain).map(|a| a.ip))
                .collect()
        };
        let addresses_before = addresses(&net);
        let outage = Disruption {
            day: 3,
            duration_days: 1,
            site: 1,
            kind: DisruptionKind::OriginOutage,
        };
        assert_eq!(outage.end_day(), Some(4));
        assert!(outage.apply(&c, &mut net));
        assert!(outage.revert(&c, &mut net));
        let redesign = Disruption {
            day: 10,
            duration_days: 0,
            site: 0,
            kind: DisruptionKind::Redesign,
        };
        assert_eq!(redesign.end_day(), None);
        assert!(redesign.apply(&c, &mut net));
        // In-place swaps: every site keeps its address.
        assert_eq!(addresses(&net), addresses_before);
        let missing = Disruption {
            day: 1,
            duration_days: 1,
            site: 9_999,
            kind: DisruptionKind::OriginOutage,
        };
        assert!(!missing.apply(&c, &mut net));
    }

    #[test]
    fn country_mix_is_normalised_and_ordered() {
        let mix = CountryMix::zipf(&["CN", "IR", "RU", "US"], 1.0).unwrap();
        let total: f64 = mix.weights.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(mix.weights[0].0, "CN");
        assert!(mix.weights[0].1 > mix.weights[3].1);
        assert!(CountryMix::zipf(&[], 1.0).is_err());
    }
}

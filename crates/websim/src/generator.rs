//! Synthetic web generation, calibrated to the paper's Figures 4–6.
//!
//! The feasibility analysis of §6.1 measures three distributions over the
//! Herdict-derived corpus (178 domains, ≈6,548 URLs):
//!
//! * **Figure 4** — images per domain: ~70% of domains embed ≥1 image,
//!   almost all images are <5 KB, >60% of domains have single-packet
//!   (≤1 KB) images, and a third of domains host hundreds of them.
//! * **Figure 5** — page weight: spread roughly evenly over 0–2 MB with a
//!   long tail; over half of pages weigh ≥0.5 MB.
//! * **Figure 6** — cacheable images per page: ~70% of pages embed ≥1,
//!   half embed ≥5, but among pages ≤100 KB only ~30% embed any.
//!
//! The generator produces sites from three archetypes (text-heavy,
//! moderate, image-rich) whose mixture yields those marginals. Every knob
//! lives in [`WebConfig`] so the ablation benches can sweep them.

use crate::site::{EmbedKind, EmbedRef, PageSpec, ResourceSpec, SiteContent, SiteHandler};
use netsim::geo::{country, CountryCode};
use netsim::http::ContentType;
use netsim::network::Network;
use serde::{Deserialize, Serialize};
use sim_core::dist::{LogNormal, Pareto, Sample};
use sim_core::SimRng;
use std::sync::Arc;

/// Site archetype, driving per-page image counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DomainProfile {
    /// Mostly prose; few or no images (API endpoints, plain blogs).
    TextHeavy,
    /// Typical org/news site.
    Moderate,
    /// Galleries, social media, photo-heavy news.
    ImageRich,
}

/// Generator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WebConfig {
    /// Number of domains to generate (paper: 178 online domains).
    pub num_domains: usize,
    /// Archetype mixture (text, moderate, rich); normalised internally.
    pub profile_weights: [f64; 3],
    /// Median pages per domain ("most of these domains have more than 50
    /// pages").
    pub median_pages_per_domain: f64,
    /// Probability a page carries a heavy media blob (drives Figure 5's
    /// upper half).
    pub heavy_media_probability: f64,
    /// Probability an image resource is cacheable.
    pub image_cacheable_probability: f64,
    /// Probability a script is served with nosniff.
    pub script_nosniff_probability: f64,
    /// Probability a page embed points at a shared CDN rather than the
    /// site itself.
    pub cdn_embed_probability: f64,
    /// Probability a *page* has server-side side effects (shopping carts,
    /// logged-in mutations) — the Task Generator must skip these.
    pub page_side_effect_probability: f64,
}

impl Default for WebConfig {
    fn default() -> Self {
        WebConfig {
            num_domains: 178,
            profile_weights: [0.30, 0.35, 0.35],
            median_pages_per_domain: 70.0,
            heavy_media_probability: 0.55,
            image_cacheable_probability: 0.80,
            script_nosniff_probability: 0.5,
            cdn_embed_probability: 0.25,
            page_side_effect_probability: 0.05,
        }
    }
}

/// Why a [`WebConfig`] was rejected by [`WebConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum WebConfigError {
    /// `num_domains == 0`: an empty corpus can host no measurements.
    NoDomains,
    /// `median_pages_per_domain` was non-positive, NaN, or infinite.
    InvalidPageCount(f64),
    /// A profile weight was negative/NaN, or all weights were zero.
    InvalidProfileWeights([f64; 3]),
    /// A probability knob was outside `[0, 1]` (field name, value).
    InvalidProbability(&'static str, f64),
}

impl std::fmt::Display for WebConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WebConfigError::NoDomains => write!(f, "num_domains must be at least 1"),
            WebConfigError::InvalidPageCount(v) => {
                write!(
                    f,
                    "median_pages_per_domain must be finite and positive, got {v}"
                )
            }
            WebConfigError::InvalidProfileWeights(w) => {
                write!(
                    f,
                    "profile_weights must be finite, non-negative, and not all zero, got {w:?}"
                )
            }
            WebConfigError::InvalidProbability(field, v) => {
                write!(f, "{field} must be a probability in [0, 1], got {v}")
            }
        }
    }
}

impl std::error::Error for WebConfigError {}

impl WebConfig {
    /// A small corpus for fast tests.
    pub fn small() -> WebConfig {
        WebConfig {
            num_domains: 12,
            median_pages_per_domain: 15.0,
            ..WebConfig::default()
        }
    }

    /// Reject degenerate parameters (zero sites or pages, NaN/negative
    /// weights, out-of-range probabilities) up front with a typed error,
    /// instead of panicking mid-generation deep inside a sampler.
    pub fn validate(&self) -> Result<(), WebConfigError> {
        if self.num_domains == 0 {
            return Err(WebConfigError::NoDomains);
        }
        if !self.median_pages_per_domain.is_finite() || self.median_pages_per_domain <= 0.0 {
            return Err(WebConfigError::InvalidPageCount(
                self.median_pages_per_domain,
            ));
        }
        let bad_weight = |w: f64| !w.is_finite() || w < 0.0;
        if self.profile_weights.iter().any(|&w| bad_weight(w))
            || self.profile_weights.iter().all(|&w| w == 0.0)
        {
            return Err(WebConfigError::InvalidProfileWeights(self.profile_weights));
        }
        for (name, v) in [
            ("heavy_media_probability", self.heavy_media_probability),
            (
                "image_cacheable_probability",
                self.image_cacheable_probability,
            ),
            (
                "script_nosniff_probability",
                self.script_nosniff_probability,
            ),
            ("cdn_embed_probability", self.cdn_embed_probability),
            (
                "page_side_effect_probability",
                self.page_side_effect_probability,
            ),
        ] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(WebConfigError::InvalidProbability(name, v));
            }
        }
        Ok(())
    }
}

/// The generated web: content sites plus shared CDNs.
///
/// Sites are `Arc`-shared so a generated web is `Send + Sync`: the same
/// corpus can be installed on every shard of a sharded world.
#[derive(Debug, Clone)]
pub struct SyntheticWeb {
    /// Content sites (the measurement-target corpus), in generation
    /// (= popularity-rank) order.
    pub sites: Vec<Arc<SiteContent>>,
    /// Shared CDN sites (bootstrap/jquery/common icons).
    pub cdns: Vec<Arc<SiteContent>>,
}

/// Countries where the corpus' servers live (weighted towards the US/EU,
/// like the real hosting market).
const HOSTING: [(&str, f64); 5] = [
    ("US", 0.55),
    ("DE", 0.15),
    ("NL", 0.10),
    ("GB", 0.10),
    ("SG", 0.10),
];

fn sample_image_bytes(rng: &mut SimRng) -> u64 {
    // Mixture matched to "almost all such images are less than 5 KB":
    // 45% tiny icons (150 B–1 KB), 42% small (1–5 KB), 13% photos.
    let u = rng.unit();
    if u < 0.45 {
        rng.range_u64(150, 1_000)
    } else if u < 0.87 {
        rng.range_u64(1_000, 5_000)
    } else {
        (LogNormal::from_median(15_000.0, 0.9).sample(rng) as u64).clamp(5_000, 120_000)
    }
}

fn profile_of(cfg: &WebConfig, rng: &mut SimRng) -> DomainProfile {
    let idx = rng
        .pick_weighted(&cfg.profile_weights)
        .expect("profile weights positive");
    [
        DomainProfile::TextHeavy,
        DomainProfile::Moderate,
        DomainProfile::ImageRich,
    ][idx]
}

fn domain_name(profile: DomainProfile, index: usize) -> String {
    // Names evoke the Herdict "high value" list: human-rights orgs, press
    // freedom groups, circumvention tools, social media.
    let (stem, tld) = match (profile, index % 4) {
        (DomainProfile::TextHeavy, 0) => ("rights-watch", "org"),
        (DomainProfile::TextHeavy, 1) => ("free-press", "org"),
        (DomainProfile::TextHeavy, 2) => ("exile-blog", "net"),
        (DomainProfile::TextHeavy, _) => ("circumvent-tool", "org"),
        (DomainProfile::Moderate, 0) => ("daily-news", "com"),
        (DomainProfile::Moderate, 1) => ("opposition-party", "org"),
        (DomainProfile::Moderate, 2) => ("diaspora-forum", "net"),
        (DomainProfile::Moderate, _) => ("independent-radio", "com"),
        (DomainProfile::ImageRich, 0) => ("photo-journal", "com"),
        (DomainProfile::ImageRich, 1) => ("protest-gallery", "org"),
        (DomainProfile::ImageRich, 2) => ("street-media", "net"),
        (DomainProfile::ImageRich, _) => ("video-share", "com"),
    };
    format!("{stem}-{index}.{tld}")
}

fn build_cdn(name: &str) -> SiteContent {
    let mut cdn = SiteContent::new(name);
    cdn.add_resource(ResourceSpec {
        path: "/bootstrap.min.css".into(),
        content_type: ContentType::Stylesheet,
        bytes: 23_000,
        cacheable: true,
        nosniff: false,
        side_effects: false,
    });
    cdn.add_resource(ResourceSpec {
        path: "/jquery.min.js".into(),
        content_type: ContentType::Script,
        bytes: 33_000,
        cacheable: true,
        nosniff: true,
        side_effects: false,
    });
    // The "Facebook thumbs-up" problem (paper §4.3.2): an icon embedded by
    // *many* pages, likely already in the browser cache — the iframe task
    // must not use such images as its cache probe.
    cdn.add_resource(ResourceSpec {
        path: "/like-icon.png".into(),
        content_type: ContentType::Image,
        bytes: 700,
        cacheable: true,
        nosniff: false,
        side_effects: false,
    });
    cdn
}

fn build_site(
    cfg: &WebConfig,
    profile: DomainProfile,
    index: usize,
    cdns: &[Arc<SiteContent>],
    rng: &mut SimRng,
) -> SiteContent {
    let mut site = SiteContent::new(domain_name(profile, index));

    // Site-wide shared assets: favicon, logo, site CSS, site JS. Every
    // page embeds a subset of these, so a 50-page HAR sample sees them
    // once but they make nearly every domain image-measurable.
    site.add_resource(ResourceSpec {
        path: "/favicon.ico".into(),
        content_type: ContentType::Image,
        bytes: rng.range_u64(200, 900),
        cacheable: true,
        nosniff: false,
        side_effects: false,
    });
    site.add_resource(ResourceSpec {
        path: "/logo.png".into(),
        content_type: ContentType::Image,
        bytes: rng.range_u64(800, 4_500),
        cacheable: true,
        nosniff: false,
        side_effects: false,
    });
    site.add_resource(ResourceSpec {
        path: "/site.css".into(),
        content_type: ContentType::Stylesheet,
        bytes: rng.range_u64(4_000, 40_000),
        cacheable: true,
        nosniff: false,
        side_effects: false,
    });
    site.add_resource(ResourceSpec {
        path: "/site.js".into(),
        content_type: ContentType::Script,
        bytes: rng.range_u64(15_000, 120_000),
        cacheable: true,
        nosniff: rng.chance(cfg.script_nosniff_probability),
        side_effects: false,
    });

    let page_count = (LogNormal::from_median(cfg.median_pages_per_domain, 0.7).sample(rng)
        as usize)
        .clamp(3, 400);

    // TextHeavy sites skip images entirely ~85% of the time (these are
    // Figure 4's "30% of domains embed no image" mass).
    let site_has_images = match profile {
        DomainProfile::TextHeavy => rng.chance(0.15),
        _ => true,
    };

    for p in 0..page_count {
        let mut embeds = Vec::new();
        let mut weight: u64 = 0;
        let html_bytes =
            (LogNormal::from_median(22_000.0, 0.8).sample(rng) as u64).clamp(2_000, 200_000);
        weight += html_bytes;

        // Shared assets on every page.
        embeds.push(EmbedRef {
            url: site.url("/site.css"),
            kind: EmbedKind::Stylesheet,
        });
        embeds.push(EmbedRef {
            url: site.url("/site.js"),
            kind: EmbedKind::Script,
        });
        if site_has_images {
            embeds.push(EmbedRef {
                url: site.url("/logo.png"),
                kind: EmbedKind::Image,
            });
        }

        // CDN embeds (cross-origin).
        if rng.chance(cfg.cdn_embed_probability) && !cdns.is_empty() {
            let cdn = rng.pick(cdns);
            embeds.push(EmbedRef {
                url: cdn.url("/bootstrap.min.css"),
                kind: EmbedKind::Stylesheet,
            });
            if rng.chance(0.6) {
                embeds.push(EmbedRef {
                    url: cdn.url("/like-icon.png"),
                    kind: EmbedKind::Image,
                });
            }
        }

        // Page-specific images.
        let n_images = if !site_has_images {
            0
        } else {
            match profile {
                DomainProfile::TextHeavy => rng.range_u64(0, 3) as usize,
                DomainProfile::Moderate => rng.range_u64(0, 8) as usize,
                DomainProfile::ImageRich => rng.range_u64(8, 40) as usize,
            }
        };
        for i in 0..n_images {
            let bytes = sample_image_bytes(rng);
            let path = format!("/img/p{p}-i{i}.png");
            site.add_resource(ResourceSpec {
                path: path.clone(),
                content_type: ContentType::Image,
                bytes,
                cacheable: rng.chance(cfg.image_cacheable_probability),
                nosniff: false,
                side_effects: false,
            });
            weight += bytes;
            embeds.push(EmbedRef {
                url: site.url(&path),
                kind: EmbedKind::Image,
            });
        }

        // Page-specific script (analytics etc.) on some pages.
        if rng.chance(0.4) {
            let bytes = rng.range_u64(5_000, 90_000);
            let path = format!("/js/p{p}.js");
            site.add_resource(ResourceSpec {
                path: path.clone(),
                content_type: ContentType::Script,
                bytes,
                cacheable: true,
                nosniff: rng.chance(cfg.script_nosniff_probability),
                side_effects: false,
            });
            weight += bytes;
            embeds.push(EmbedRef {
                url: site.url(&path),
                kind: EmbedKind::Script,
            });
        }

        // Heavy media blob: Figure 5's 0.5–2 MB mass.
        let mut has_large_media = false;
        if rng.chance(cfg.heavy_media_probability) {
            let bytes = rng.range_u64(150_000, 1_900_000)
                + (Pareto::new(1.0, 1.6).sample(rng) * 20_000.0) as u64;
            let path = format!("/media/p{p}.bin");
            site.add_resource(ResourceSpec {
                path: path.clone(),
                content_type: ContentType::Other,
                bytes,
                cacheable: false,
                nosniff: false,
                side_effects: false,
            });
            weight += bytes;
            // Model as a script-like embed so HAR capture fetches it; the
            // Task Generator treats Other content as large media.
            embeds.push(EmbedRef {
                url: site.url(&path),
                kind: EmbedKind::Script,
            });
            has_large_media = bytes > 300_000;
        }

        let _ = weight; // page weight is measured via HAR capture

        site.add_page(PageSpec {
            path: format!("/page/{p}.html"),
            html_bytes,
            embeds,
            has_large_media,
            side_effects: rng.chance(cfg.page_side_effect_probability),
            popularity: Pareto::new(1.0, 1.1).sample(rng),
        });
    }
    site
}

impl SyntheticWeb {
    /// Generate a web corpus.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate [`WebConfig`]; callers with untrusted
    /// parameters should use [`SyntheticWeb::try_generate`].
    pub fn generate(cfg: &WebConfig, rng: &mut SimRng) -> SyntheticWeb {
        SyntheticWeb::try_generate(cfg, rng).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Generate a web corpus, rejecting degenerate configs with a typed
    /// error instead of panicking.
    pub fn try_generate(cfg: &WebConfig, rng: &mut SimRng) -> Result<SyntheticWeb, WebConfigError> {
        cfg.validate()?;
        let mut rng = rng.fork("websim-generator");
        let cdns: Vec<Arc<SiteContent>> = vec![
            Arc::new(build_cdn("cdn-alpha.example")),
            Arc::new(build_cdn("cdn-beta.example")),
        ];
        let mut sites = Vec::with_capacity(cfg.num_domains);
        for i in 0..cfg.num_domains {
            let profile = profile_of(cfg, &mut rng);
            let mut site_rng = rng.fork_indexed("site", i as u64);
            sites.push(Arc::new(build_site(cfg, profile, i, &cdns, &mut site_rng)));
        }
        Ok(SyntheticWeb { sites, cdns })
    }

    /// Install every site (and CDN) as a server in the network, hosted in
    /// a weighted-random hosting country.
    pub fn install(&self, network: &mut Network, rng: &mut SimRng) {
        let mut rng = rng.fork("websim-install");
        let weights: Vec<f64> = HOSTING.iter().map(|&(_, w)| w).collect();
        for site in self.sites.iter().chain(self.cdns.iter()) {
            let idx = rng.pick_weighted(&weights).expect("weights positive");
            let cc: CountryCode = country(HOSTING[idx].0);
            network.add_server(
                &site.domain,
                cc,
                Box::new(SiteHandler::new(Arc::clone(site))),
            );
        }
    }

    /// All content-site domains (not CDNs).
    ///
    /// The order is **guaranteed deterministic**: generation (= insertion)
    /// order, which for a corpus is also popularity-rank order. Goldens
    /// and interned-id assignment (first-seen order in `netsim`'s DNS
    /// interner) depend on this being byte-stable across runs — it never
    /// reflects map iteration order.
    pub fn domains(&self) -> Vec<String> {
        self.sites.iter().map(|s| s.domain.clone()).collect()
    }

    /// Look up a site by domain.
    pub fn site(&self, domain: &str) -> Option<&Arc<SiteContent>> {
        self.sites
            .iter()
            .chain(self.cdns.iter())
            .find(|s| s.domain == domain)
    }
}

/// Build a large, popular "social media" style site (facebook/youtube/
/// twitter stand-ins for §7.2): small favicon, lots of cacheable images,
/// enormous page count implied but only a handful instantiated.
pub fn social_site(domain: &str, rng: &mut SimRng) -> SiteContent {
    let mut s = SiteContent::new(domain);
    s.add_resource(ResourceSpec {
        path: "/favicon.ico".into(),
        content_type: ContentType::Image,
        bytes: 500,
        cacheable: true,
        nosniff: false,
        side_effects: false,
    });
    for i in 0..20 {
        s.add_resource(ResourceSpec {
            path: format!("/static/icon{i}.png"),
            content_type: ContentType::Image,
            bytes: rng.range_u64(300, 2_000),
            cacheable: true,
            nosniff: false,
            side_effects: false,
        });
        s.add_page(PageSpec {
            path: format!("/p/{i}"),
            html_bytes: rng.range_u64(40_000, 300_000),
            embeds: vec![
                EmbedRef {
                    url: s.url(&format!("/static/icon{i}.png")),
                    kind: EmbedKind::Image,
                },
                EmbedRef {
                    url: s.url("/favicon.ico"),
                    kind: EmbedKind::Image,
                },
            ],
            has_large_media: false,
            side_effects: true, // logged-in social pages mutate state
            popularity: 100.0 / (i + 1) as f64,
        });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Cdf;

    fn corpus() -> SyntheticWeb {
        let mut rng = SimRng::new(0xFEED);
        SyntheticWeb::generate(&WebConfig::default(), &mut rng)
    }

    /// Compile-time regression guard: `SyntheticWeb`/`SiteHandler` held
    /// `Rc<SiteContent>` until PR 10, silently cutting generated webs off
    /// from every sharded/transported/streaming path.
    #[test]
    fn generated_web_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SyntheticWeb>();
        assert_send_sync::<SiteHandler>();
        assert_send_sync::<std::sync::Arc<SiteContent>>();
    }

    #[test]
    fn config_rejects_zero_domains() {
        let cfg = WebConfig {
            num_domains: 0,
            ..WebConfig::default()
        };
        assert_eq!(cfg.validate(), Err(WebConfigError::NoDomains));
        let mut rng = SimRng::new(1);
        assert!(SyntheticWeb::try_generate(&cfg, &mut rng).is_err());
    }

    #[test]
    fn config_rejects_degenerate_page_counts() {
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let cfg = WebConfig {
                median_pages_per_domain: bad,
                ..WebConfig::default()
            };
            assert!(
                matches!(cfg.validate(), Err(WebConfigError::InvalidPageCount(_))),
                "median_pages_per_domain = {bad} must be rejected"
            );
        }
    }

    #[test]
    fn config_rejects_bad_profile_weights() {
        for bad in [[0.0, 0.0, 0.0], [1.0, -1.0, 1.0], [f64::NAN, 1.0, 1.0]] {
            let cfg = WebConfig {
                profile_weights: bad,
                ..WebConfig::default()
            };
            assert!(
                matches!(
                    cfg.validate(),
                    Err(WebConfigError::InvalidProfileWeights(_))
                ),
                "profile_weights = {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn config_rejects_out_of_range_probabilities() {
        let cfg = WebConfig {
            cdn_embed_probability: 1.5,
            ..WebConfig::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(WebConfigError::InvalidProbability(
                "cdn_embed_probability",
                1.5
            ))
        );
        let cfg = WebConfig {
            heavy_media_probability: f64::NAN,
            ..WebConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(WebConfigError::InvalidProbability(
                "heavy_media_probability",
                _
            ))
        ));
    }

    #[test]
    fn domains_are_byte_stable_across_runs_and_calls() {
        let gen = |seed| {
            let mut rng = SimRng::new(seed);
            SyntheticWeb::generate(&WebConfig::small(), &mut rng)
        };
        let a = gen(0xD0_0D);
        let b = gen(0xD0_0D);
        // Same seed → byte-identical ordered domain list, call after call.
        let first = serde_json::to_string(&a.domains()).unwrap();
        assert_eq!(first, serde_json::to_string(&a.domains()).unwrap());
        assert_eq!(first, serde_json::to_string(&b.domains()).unwrap());
    }

    #[test]
    fn generates_requested_domain_count() {
        let web = corpus();
        assert_eq!(web.sites.len(), 178);
        assert_eq!(web.cdns.len(), 2);
        assert_eq!(web.domains().len(), 178);
    }

    #[test]
    fn generation_is_deterministic() {
        let mut r1 = SimRng::new(42);
        let mut r2 = SimRng::new(42);
        let a = SyntheticWeb::generate(&WebConfig::small(), &mut r1);
        let b = SyntheticWeb::generate(&WebConfig::small(), &mut r2);
        assert_eq!(a.domains(), b.domains());
        for (sa, sb) in a.sites.iter().zip(b.sites.iter()) {
            assert_eq!(sa.pages.len(), sb.pages.len(), "{}", sa.domain);
            assert_eq!(sa.resources.len(), sb.resources.len());
        }
    }

    #[test]
    fn domains_are_unique() {
        let web = corpus();
        let mut names = web.domains();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 178);
    }

    #[test]
    fn fig4_shape_most_domains_have_images_and_they_are_small() {
        let web = corpus();
        let mut image_counts = Vec::new();
        let mut tiny_counts = Vec::new();
        let mut all_images = 0usize;
        let mut small_images = 0usize;
        for site in &web.sites {
            let images: Vec<_> = site
                .resources
                .values()
                .filter(|r| r.content_type == ContentType::Image)
                .collect();
            image_counts.push(images.len() as f64);
            tiny_counts.push(images.iter().filter(|r| r.bytes <= 1_000).count() as f64);
            all_images += images.len();
            small_images += images.iter().filter(|r| r.bytes <= 5_000).count();
        }
        let cdf_all = Cdf::new(image_counts);
        // ≥65% of domains embed at least one image.
        assert!(
            1.0 - cdf_all.fraction_at_most(0.0) > 0.60,
            "domains with images: {}",
            1.0 - cdf_all.fraction_at_most(0.0)
        );
        // Almost all images are <5 KB.
        let small_frac = small_images as f64 / all_images as f64;
        assert!(small_frac > 0.80, "small fraction = {small_frac}");
        // A third-ish of domains host hundreds of single-packet images.
        let cdf_tiny = Cdf::new(tiny_counts);
        let hundreds = 1.0 - cdf_tiny.fraction_at_most(100.0);
        assert!(
            (0.18..0.60).contains(&hundreds),
            "domains with hundreds of tiny images: {hundreds}"
        );
    }

    /// A page's HTML plus its same-site embeds: a lower bound on what a
    /// cold load transfers (the authoritative number is a rendered HAR).
    fn same_site_weight(site: &SiteContent, path: &str) -> Option<u64> {
        let page = site.pages.get(path)?;
        let own = format!("http://{}", site.domain);
        let embeds = page
            .embeds
            .iter()
            .filter_map(|e| site.resource(e.url.strip_prefix(&own)?))
            .map(|r| r.bytes);
        Some(page.html_bytes + embeds.sum::<u64>())
    }

    #[test]
    fn fig5_shape_pages_are_heavy() {
        let web = corpus();
        // Approximate page weight from ground truth (same-site embeds).
        let mut weights = Vec::new();
        for site in web.sites.iter().take(60) {
            for path in site.pages.keys() {
                if let Some(w) = same_site_weight(site, path) {
                    weights.push(w as f64 / 1_000.0); // KB
                }
            }
        }
        let cdf = Cdf::new(weights);
        let heavy = 1.0 - cdf.fraction_at_most(500.0);
        assert!(
            (0.35..0.75).contains(&heavy),
            "pages ≥500 KB: {heavy} (want ≈half)"
        );
    }

    #[test]
    fn fig6_shape_cacheable_images_per_page() {
        let web = corpus();
        let mut per_page = Vec::new();
        let mut small_page_has_cacheable = Vec::new();
        for site in &web.sites {
            for (path, page) in &site.pages {
                let cacheable = page
                    .embeds
                    .iter()
                    .filter(|e| {
                        e.kind == EmbedKind::Image
                            && e.url.starts_with(&format!("http://{}", site.domain))
                    })
                    .filter(|e| {
                        let p = e.url.trim_start_matches(&format!("http://{}", site.domain));
                        site.resource(p).is_some_and(|r| r.cacheable)
                    })
                    .count();
                per_page.push(cacheable as f64);
                if same_site_weight(site, path).unwrap_or(u64::MAX) <= 100_000 {
                    small_page_has_cacheable.push(if cacheable > 0 { 1.0 } else { 0.0 });
                }
            }
        }
        let cdf = Cdf::new(per_page);
        let any = 1.0 - cdf.fraction_at_most(0.0);
        assert!(
            (0.55..0.95).contains(&any),
            "pages with ≥1 cacheable image: {any}"
        );
        let five_plus = 1.0 - cdf.fraction_at_most(4.0);
        assert!(
            (0.25..0.75).contains(&five_plus),
            "pages with ≥5 cacheable images: {five_plus}"
        );
        // Small pages are much less likely to have one.
        let small_any: f64 = small_page_has_cacheable.iter().sum::<f64>()
            / small_page_has_cacheable.len().max(1) as f64;
        assert!(
            small_any < any,
            "≤100 KB pages should be image-poorer: {small_any} vs {any}"
        );
    }

    #[test]
    fn install_registers_all_servers() {
        let mut rng = SimRng::new(3);
        let web = SyntheticWeb::generate(&WebConfig::small(), &mut rng);
        let mut n = Network::ideal(netsim::geo::World::builtin());
        web.install(&mut n, &mut rng);
        // DNS resolves every site and CDN domain to a live server.
        for site in web.sites.iter().chain(&web.cdns) {
            let answer = n.dns.authoritative(&site.domain);
            let answer = answer.unwrap_or_else(|| panic!("{} not in DNS", site.domain));
            assert!(n.has_server(answer.ip), "{} has no server", site.domain);
        }
    }

    #[test]
    fn social_site_has_favicon_and_cacheable_icons() {
        let mut rng = SimRng::new(9);
        let s = social_site("facebook.com", &mut rng);
        let fav = s.resource("/favicon.ico").unwrap();
        assert!(fav.cacheable);
        assert!(fav.bytes <= 1_000);
        assert!(s.pages.len() >= 10);
        assert!(s.pages.values().all(|p| p.side_effects));
    }

    #[test]
    fn pages_reference_existing_same_site_resources() {
        let web = corpus();
        let site = &web.sites[0];
        for page in site.pages.values() {
            for e in &page.embeds {
                if let Some(p) = e.url.strip_prefix(&format!("http://{}", site.domain)) {
                    assert!(
                        site.resource(p).is_some(),
                        "dangling embed {} on {}",
                        e.url,
                        page.path
                    );
                }
            }
        }
    }
}

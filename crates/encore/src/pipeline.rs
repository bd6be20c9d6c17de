//! The task-generation pipeline of Figure 3:
//!
//! ```text
//! patterns --PatternExpander--> URLs --TargetFetcher--> HARs
//!          --TaskGenerator--> measurement tasks
//! ```
//!
//! * [`PatternExpander`] — "expands URL patterns to a sample of up to 50
//!   URLs by scraping site-specific results … from a popular search
//!   engine" (§5.2).
//! * [`TargetFetcher`] — renders each URL in a headless browser from an
//!   unfiltered vantage point and records a HAR.
//! * [`TaskGenerator`] — "examines each HAR file to determine which of
//!   Encore's measurement task types, if any, can measure each resource"
//!   (§5.2), applying the Table 1 constraints: image size caps, non-empty
//!   stylesheets, nosniff scripts, the 100 KB page limit, and manual
//!   verification for iframe tasks.

use crate::tasks::{MeasurementId, MeasurementTask, TaskSpec, IFRAME_CACHE_THRESHOLD};
use browser::BrowserClient;
use netsim::http::{host_of, ContentType};
use netsim::network::Network;
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime};
use websim::har::Har;
use websim::search::DEFAULT_RESULT_LIMIT;
use websim::{SearchIndex, UrlPattern};

/// Expands URL patterns into concrete URLs via the search index, at most
/// [`DEFAULT_RESULT_LIMIT`] per pattern.
pub struct PatternExpander<'a> {
    index: &'a SearchIndex,
}

impl<'a> PatternExpander<'a> {
    /// Expander over `index`.
    pub fn new(index: &'a SearchIndex) -> PatternExpander<'a> {
        PatternExpander { index }
    }

    /// Expand one pattern.
    pub fn expand(&self, pattern: &UrlPattern) -> Vec<String> {
        self.index.query(pattern, DEFAULT_RESULT_LIMIT)
    }

    /// Expand a whole target list, flattening (order: list order, then
    /// rank order).
    pub fn expand_all(&self, patterns: &[UrlPattern]) -> Vec<String> {
        patterns.iter().flat_map(|p| self.expand(p)).collect()
    }
}

/// Renders URLs to HARs from an unfiltered vantage point (the paper used
/// PhantomJS at Georgia Tech; "to the best of our knowledge, Georgia Tech
/// does not filter Web requests").
pub struct TargetFetcher {
    /// The headless browser.
    pub browser: BrowserClient,
}

impl TargetFetcher {
    /// Wrap a browser client (place it on an academic/datacenter network
    /// in an unfiltered country for fidelity).
    pub fn new(browser: BrowserClient) -> TargetFetcher {
        TargetFetcher { browser }
    }

    /// Fetch one URL to a HAR.
    pub fn fetch(&mut self, net: &mut Network, url: &str, now: SimTime) -> Har {
        self.browser.render_har(net, url, now)
    }

    /// Fetch a batch; each render starts at `now` (the fetcher's wall
    /// time does not gate the simulation).
    pub fn fetch_all(&mut self, net: &mut Network, urls: &[String], now: SimTime) -> Vec<Har> {
        urls.iter().map(|u| self.fetch(net, u, now)).collect()
    }
}

/// Task Generator configuration (the §5.2/§6.1 thresholds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationConfig {
    /// Maximum image size for image tasks. The paper analyses both 1 KB
    /// ("fit within a single packet") and 5 KB caps; the prototype favours
    /// small icons. Default 1 KB (conservative).
    pub max_image_bytes: u64,
    /// Maximum total page weight for iframe tasks ("our prototype only
    /// permits measurement tasks to load pages smaller than 100 KB").
    pub max_page_bytes: u64,
    /// Maximum single-object size before a page is excluded ("excludes
    /// pages that load flash applets, videos, or any other large
    /// objects").
    pub max_object_bytes: u64,
    /// Maximum script size for script tasks.
    pub max_script_bytes: u64,
    /// Whether to emit script tasks at all (they are Chrome-only and
    /// need nosniff targets).
    pub allow_script_tasks: bool,
    /// Whether to emit iframe tasks (they are expensive and "require
    /// manual verification of pages before deployment").
    pub allow_iframe_tasks: bool,
    /// Cache-probe threshold baked into iframe tasks.
    pub iframe_threshold: SimDuration,
}

impl Default for GenerationConfig {
    fn default() -> Self {
        GenerationConfig {
            max_image_bytes: 1_000,
            max_page_bytes: 100_000,
            max_object_bytes: 100_000,
            max_script_bytes: 100_000,
            allow_script_tasks: true,
            allow_iframe_tasks: true,
            iframe_threshold: IFRAME_CACHE_THRESHOLD,
        }
    }
}

/// Statistics extracted from one HAR — the "modified version of the Task
/// Generator that emits statistics about sizes of accepted resources and
/// pages" used for the §6.1 feasibility analysis (Figures 4–6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HarAnalysis {
    /// The analysed page URL.
    pub page_url: String,
    /// Whether the page itself loaded.
    pub page_ok: bool,
    /// Total page weight (Figure 5's metric).
    pub total_bytes: u64,
    /// Same-site images: `(url, bytes, cacheable)`.
    pub images: Vec<(String, u64, bool)>,
    /// Number of cacheable same-site images (Figure 6's metric).
    pub cacheable_images: usize,
    /// Whether any object exceeds the large-object bound.
    pub has_large_object: bool,
}

/// The Task Generator.
#[derive(Debug, Clone, Default)]
pub struct TaskGenerator {
    /// Thresholds.
    pub config: GenerationConfig,
    next_id: u64,
    /// URLs already emitted (dedup across HARs).
    seen: std::collections::BTreeSet<String>,
}

impl TaskGenerator {
    /// Generator with the given thresholds.
    pub fn new(config: GenerationConfig) -> TaskGenerator {
        TaskGenerator {
            config,
            next_id: 0,
            seen: std::collections::BTreeSet::new(),
        }
    }

    fn fresh_id(&mut self) -> MeasurementId {
        let id = MeasurementId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Extract the §6.1 statistics from a HAR (no tasks emitted).
    pub fn analyze(&self, har: &Har) -> HarAnalysis {
        let page_host = host_of(&har.page_url);
        let mut images = Vec::new();
        for e in &har.entries {
            if e.is_image() && host_of(&e.url) == page_host {
                images.push((e.url.clone(), e.body_bytes, e.cacheable));
            }
        }
        let cacheable_images = images.iter().filter(|(_, _, c)| *c).count();
        HarAnalysis {
            page_url: har.page_url.clone(),
            page_ok: har.page_ok,
            total_bytes: har.total_bytes(),
            images,
            cacheable_images,
            has_large_object: har.has_object_larger_than(self.config.max_object_bytes),
        }
    }

    /// Generate every task the Table 1 constraints permit for one HAR.
    ///
    /// `manually_verified` is consulted for iframe tasks only — the §5.2
    /// human-review stand-in ("requires manual verification of pages
    /// before deployment"). Pass `|_| true` to skip review, or a
    /// ground-truth-aware closure to emulate a careful operator rejecting
    /// pages with side effects.
    pub fn generate(
        &mut self,
        har: &Har,
        manually_verified: impl Fn(&str) -> bool,
    ) -> Vec<MeasurementTask> {
        let mut tasks = Vec::new();
        if !har.page_ok {
            return tasks;
        }
        let page_host = match host_of(&har.page_url) {
            Some(h) => h,
            None => return tasks,
        };

        for e in &har.entries {
            // Only resources hosted by the measurement target itself can
            // indicate that target's reachability.
            if host_of(&e.url).as_deref() != Some(page_host.as_str()) {
                continue;
            }
            if !e.ok {
                continue;
            }
            if self.seen.contains(&e.url) {
                continue;
            }
            let spec = match e.content_type {
                ContentType::Image if e.body_bytes <= self.config.max_image_bytes => {
                    Some(TaskSpec::Image { url: e.url.clone() })
                }
                ContentType::Stylesheet if e.body_bytes > 0 => {
                    Some(TaskSpec::Stylesheet { url: e.url.clone() })
                }
                ContentType::Script
                    if self.config.allow_script_tasks
                        && e.nosniff
                        && e.body_bytes <= self.config.max_script_bytes =>
                {
                    Some(TaskSpec::Script { url: e.url.clone() })
                }
                _ => None,
            };
            if let Some(spec) = spec {
                self.seen.insert(e.url.clone());
                tasks.push(MeasurementTask {
                    id: self.fresh_id(),
                    spec,
                });
            }
        }

        // Iframe task for the page itself.
        if self.config.allow_iframe_tasks && !self.seen.contains(&har.page_url) {
            let analysis = self.analyze(har);
            let small_enough =
                analysis.total_bytes <= self.config.max_page_bytes && !analysis.has_large_object;
            // Prefer a page-specific cacheable image (not the sitewide
            // favicon/logo, which other pages may already have cached —
            // the "Facebook thumbs-up" pitfall of §4.3.2).
            let probe = analysis
                .images
                .iter()
                .filter(|(_, _, cacheable)| *cacheable)
                .filter(|(url, _, _)| !url.ends_with("/favicon.ico") && !url.ends_with("/logo.png"))
                .map(|(url, _, _)| url.clone())
                .next()
                .or_else(|| {
                    analysis
                        .images
                        .iter()
                        .filter(|(_, _, c)| *c)
                        .map(|(u, _, _)| u.clone())
                        .next()
                });
            if small_enough {
                if let Some(probe_image_url) = probe {
                    if manually_verified(&har.page_url) {
                        self.seen.insert(har.page_url.clone());
                        tasks.push(MeasurementTask {
                            id: self.fresh_id(),
                            spec: TaskSpec::Iframe {
                                page_url: har.page_url.clone(),
                                probe_image_url,
                                threshold: self.config.iframe_threshold,
                            },
                        });
                    }
                }
            }
        }
        tasks
    }

    /// Run the generator over many HARs.
    pub fn generate_all(
        &mut self,
        hars: &[Har],
        manually_verified: impl Fn(&str) -> bool + Copy,
    ) -> Vec<MeasurementTask> {
        hars.iter()
            .flat_map(|h| self.generate(h, manually_verified))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::TaskType;
    use browser::Engine;
    use netsim::geo::{country, IspClass, World};
    use sim_core::SimRng;
    use websim::generator::{SyntheticWeb, WebConfig};
    use websim::har::HarEntry;

    fn har_entry(
        url: &str,
        ct: ContentType,
        bytes: u64,
        cacheable: bool,
        nosniff: bool,
    ) -> HarEntry {
        HarEntry {
            url: url.into(),
            status: 200,
            content_type: ct,
            body_bytes: bytes,
            cacheable,
            nosniff,
            time: SimDuration::from_millis(50),
            ok: true,
        }
    }

    fn small_page_har() -> Har {
        Har {
            page_url: "http://target.org/page.html".into(),
            entries: vec![
                har_entry(
                    "http://target.org/page.html",
                    ContentType::Html,
                    30_000,
                    false,
                    false,
                ),
                har_entry(
                    "http://target.org/favicon.ico",
                    ContentType::Image,
                    400,
                    true,
                    false,
                ),
                har_entry(
                    "http://target.org/photo.png",
                    ContentType::Image,
                    3_000,
                    true,
                    false,
                ),
                har_entry(
                    "http://target.org/style.css",
                    ContentType::Stylesheet,
                    2_000,
                    true,
                    false,
                ),
                har_entry(
                    "http://target.org/app.js",
                    ContentType::Script,
                    20_000,
                    true,
                    true,
                ),
                har_entry(
                    "http://cdn.example/like.png",
                    ContentType::Image,
                    700,
                    true,
                    false,
                ),
            ],
            page_ok: true,
        }
    }

    #[test]
    fn generates_all_four_task_types() {
        let mut generator = TaskGenerator::new(GenerationConfig::default());
        let tasks = generator.generate(&small_page_har(), |_| true);
        let types: std::collections::BTreeSet<_> =
            tasks.iter().map(|t| t.spec.task_type()).collect();
        assert!(types.contains(&TaskType::Image));
        assert!(types.contains(&TaskType::Stylesheet));
        assert!(types.contains(&TaskType::Script));
        assert!(types.contains(&TaskType::Iframe));
    }

    #[test]
    fn image_cap_excludes_large_images() {
        let mut generator = TaskGenerator::new(GenerationConfig::default());
        let tasks = generator.generate(&small_page_har(), |_| true);
        // photo.png (3 KB) exceeds the 1 KB default; favicon passes.
        let image_urls: Vec<_> = tasks
            .iter()
            .filter(|t| t.spec.task_type() == TaskType::Image)
            .map(|t| t.spec.target_url().to_string())
            .collect();
        assert_eq!(image_urls, vec!["http://target.org/favicon.ico"]);
    }

    #[test]
    fn relaxed_image_cap_admits_more() {
        let mut generator = TaskGenerator::new(GenerationConfig {
            max_image_bytes: 5_000,
            ..GenerationConfig::default()
        });
        let tasks = generator.generate(&small_page_har(), |_| true);
        let n_images = tasks
            .iter()
            .filter(|t| t.spec.task_type() == TaskType::Image)
            .count();
        assert_eq!(n_images, 2);
    }

    #[test]
    fn cross_origin_resources_never_become_tasks() {
        let mut generator = TaskGenerator::new(GenerationConfig {
            max_image_bytes: 5_000,
            ..GenerationConfig::default()
        });
        let tasks = generator.generate(&small_page_har(), |_| true);
        assert!(tasks
            .iter()
            .all(|t| !t.spec.target_url().contains("cdn.example")));
    }

    #[test]
    fn scripts_require_nosniff() {
        let mut har = small_page_har();
        // Strip nosniff from the script.
        for e in &mut har.entries {
            e.nosniff = false;
        }
        let mut generator = TaskGenerator::new(GenerationConfig::default());
        let tasks = generator.generate(&har, |_| true);
        assert!(tasks.iter().all(|t| t.spec.task_type() != TaskType::Script));
    }

    #[test]
    fn heavy_pages_get_no_iframe_task() {
        let mut har = small_page_har();
        har.entries.push(har_entry(
            "http://target.org/video.bin",
            ContentType::Other,
            900_000,
            false,
            false,
        ));
        let mut generator = TaskGenerator::new(GenerationConfig::default());
        let tasks = generator.generate(&har, |_| true);
        assert!(tasks.iter().all(|t| t.spec.task_type() != TaskType::Iframe));
    }

    #[test]
    fn manual_verification_gates_iframe_tasks() {
        let mut generator = TaskGenerator::new(GenerationConfig::default());
        let tasks = generator.generate(&small_page_har(), |_| false);
        assert!(tasks.iter().all(|t| t.spec.task_type() != TaskType::Iframe));
    }

    #[test]
    fn iframe_probe_avoids_sitewide_assets() {
        let mut generator = TaskGenerator::new(GenerationConfig::default());
        let tasks = generator.generate(&small_page_har(), |_| true);
        let iframe = tasks
            .iter()
            .find(|t| t.spec.task_type() == TaskType::Iframe)
            .expect("iframe task");
        match &iframe.spec {
            TaskSpec::Iframe {
                probe_image_url, ..
            } => {
                assert_eq!(probe_image_url, "http://target.org/photo.png");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn failed_pages_generate_nothing() {
        let mut har = small_page_har();
        har.page_ok = false;
        let mut generator = TaskGenerator::new(GenerationConfig::default());
        assert!(generator.generate(&har, |_| true).is_empty());
    }

    #[test]
    fn duplicate_resources_deduplicated_across_hars() {
        let mut generator = TaskGenerator::new(GenerationConfig::default());
        let a = generator.generate(&small_page_har(), |_| true);
        let b = generator.generate(&small_page_har(), |_| true);
        assert!(!a.is_empty());
        // Second HAR for the same page: resources already covered; only
        // the page URL dedup also blocks the iframe task.
        assert!(b.is_empty());
    }

    #[test]
    fn measurement_ids_are_unique() {
        let mut generator = TaskGenerator::new(GenerationConfig {
            max_image_bytes: 5_000,
            ..GenerationConfig::default()
        });
        let tasks = generator.generate(&small_page_har(), |_| true);
        let mut ids: Vec<_> = tasks.iter().map(|t| t.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), tasks.len());
    }

    #[test]
    fn analysis_counts_same_site_images_only() {
        let generator = TaskGenerator::new(GenerationConfig::default());
        let a = generator.analyze(&small_page_har());
        assert_eq!(a.images.len(), 2, "cdn image excluded");
        assert_eq!(a.cacheable_images, 2);
        assert!(a.page_ok);
        assert_eq!(a.total_bytes, 30_000 + 400 + 3_000 + 2_000 + 20_000 + 700);
    }

    #[test]
    fn end_to_end_pipeline_over_synthetic_web() {
        // patterns → URLs → HARs → tasks, over a real (small) corpus.
        let mut rng = SimRng::new(0x99);
        let web = SyntheticWeb::generate(&WebConfig::small(), &mut rng);
        let mut net = Network::ideal(World::builtin());
        web.install(&mut net, &mut rng);
        let index = SearchIndex::build(&web);
        let expander = PatternExpander::new(&index);

        let patterns: Vec<UrlPattern> = web.domains().into_iter().map(UrlPattern::Domain).collect();
        let urls = expander.expand_all(&patterns);
        assert!(!urls.is_empty());
        assert!(urls.len() <= patterns.len() * 50);

        let root = SimRng::new(1);
        let fetcher_browser = BrowserClient::new(
            &mut net,
            country("US"),
            IspClass::Academic,
            Engine::Chrome,
            &root,
        );
        let mut fetcher = TargetFetcher::new(fetcher_browser);
        let hars = fetcher.fetch_all(&mut net, &urls[..40.min(urls.len())], SimTime::ZERO);
        let mut generator = TaskGenerator::new(GenerationConfig {
            max_image_bytes: 5_000,
            ..GenerationConfig::default()
        });
        let tasks = generator.generate_all(&hars, |_| true);
        assert!(
            !tasks.is_empty(),
            "a 40-page sample of the corpus must yield tasks"
        );
        // All tasks target corpus domains.
        for t in &tasks {
            let d = t.spec.target_domain().unwrap();
            assert!(web.site(&d).is_some(), "task targets unknown domain {d}");
        }
    }
}

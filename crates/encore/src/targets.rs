//! Measurement-target lists and ethics staging.
//!
//! §5.1: "During initial deployment, Encore relies on third parties to
//! provide lists of URLs to test for Web filtering" — Herdict, GreatFire,
//! Filbaan. Our built-in list mirrors the *kinds* of entries on Herdict's
//! "high value" list: likely filtering targets (rights groups, press
//! freedom, circumvention) plus high-collateral services (social media).
//!
//! Table 2 documents how ethical review progressively restricted what
//! Encore measures: from 300+ arbitrary URLs, to favicons only, to
//! favicons on a few high-collateral sites. [`EthicsStage`] reproduces
//! those restrictions as a filter over generated tasks, and the §7
//! experiments run at [`EthicsStage::FaviconsFewSites`] exactly as the
//! paper's final data collection did.

use crate::tasks::{MeasurementTask, TaskSpec, TaskType};
use serde::{Deserialize, Serialize};
use websim::UrlPattern;

/// A list of measurement-target patterns.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TargetList {
    /// Human-readable provenance, e.g. `"herdict-high-value"`.
    pub source: String,
    /// The patterns.
    pub patterns: Vec<UrlPattern>,
}

impl TargetList {
    /// An empty list with a source tag.
    pub fn named(source: impl Into<String>) -> TargetList {
        TargetList {
            source: source.into(),
            patterns: Vec::new(),
        }
    }

    /// Build the Herdict-style list over a corpus of domains: every corpus
    /// domain plus the three high-collateral social sites.
    pub fn herdict_style(corpus_domains: &[String]) -> TargetList {
        let mut list = TargetList::named("herdict-high-value");
        for d in corpus_domains {
            list.patterns.push(UrlPattern::Domain(d.clone()));
        }
        for d in censor::registry::SAFE_TARGETS {
            list.patterns.push(UrlPattern::Domain(d.to_string()));
        }
        list
    }

    /// Append a pattern.
    pub fn push(&mut self, p: UrlPattern) {
        self.patterns.push(p);
    }

    /// Merge another list's patterns (webmaster reciprocity, §6.3: "in
    /// exchange for installing our measurement scripts, webmasters could
    /// add their own site to Encore's list of targets"). Duplicates are
    /// dropped.
    pub fn merge(&mut self, other: &TargetList) {
        let existing: std::collections::BTreeSet<String> =
            self.patterns.iter().map(|p| p.to_string()).collect();
        for p in &other.patterns {
            if !existing.contains(&p.to_string()) {
                self.patterns.push(p.clone());
            }
        }
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }
}

/// The Table 2 deployment stages, most permissive first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EthicsStage {
    /// March 2014: "over 300 URLs", all task types.
    Unrestricted,
    /// April 2014: "we configure Encore to only measure favicons".
    FaviconsOnly,
    /// May 2014: "restrict Encore to measure favicons on only a few
    /// sites" (the high-collateral social-media trio).
    FaviconsFewSites,
}

impl EthicsStage {
    /// Whether a generated task is permitted at this stage.
    pub fn permits(&self, task: &MeasurementTask) -> bool {
        match self {
            EthicsStage::Unrestricted => true,
            EthicsStage::FaviconsOnly => is_favicon_image_task(&task.spec),
            EthicsStage::FaviconsFewSites => {
                is_favicon_image_task(&task.spec)
                    && task.spec.target_domain().is_some_and(|d| {
                        censor::registry::SAFE_TARGETS
                            .iter()
                            .any(|s| d == *s || d.ends_with(&format!(".{s}")))
                    })
            }
        }
    }

    /// Filter a task set down to what this stage permits.
    pub fn filter(&self, tasks: Vec<MeasurementTask>) -> Vec<MeasurementTask> {
        tasks.into_iter().filter(|t| self.permits(t)).collect()
    }
}

fn is_favicon_image_task(spec: &TaskSpec) -> bool {
    spec.task_type() == TaskType::Image && spec.target_url().ends_with("/favicon.ico")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::MeasurementId;

    fn task(spec: TaskSpec) -> MeasurementTask {
        MeasurementTask {
            id: MeasurementId(0),
            spec,
        }
    }

    #[test]
    fn herdict_style_includes_corpus_and_social() {
        let list = TargetList::herdict_style(&["rights-watch-0.org".to_string()]);
        assert_eq!(list.len(), 4);
        assert!(list
            .patterns
            .contains(&UrlPattern::Domain("youtube.com".into())));
        assert!(list
            .patterns
            .contains(&UrlPattern::Domain("rights-watch-0.org".into())));
    }

    #[test]
    fn merge_deduplicates() {
        let list = |source: &str, domains: [&str; 2]| TargetList {
            source: source.into(),
            patterns: domains.map(|d| UrlPattern::Domain(d.into())).into(),
        };
        let mut a = list("a", ["youtube.com", "x.org"]);
        let b = list("b", ["x.org", "webmaster-site.net"]);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert!(a
            .patterns
            .contains(&UrlPattern::Domain("webmaster-site.net".into())));
    }

    #[test]
    fn unrestricted_permits_everything() {
        let t = task(TaskSpec::Iframe {
            page_url: "http://x.com/p".into(),
            probe_image_url: "http://x.com/i.png".into(),
            threshold: crate::tasks::IFRAME_CACHE_THRESHOLD,
        });
        assert!(EthicsStage::Unrestricted.permits(&t));
    }

    #[test]
    fn favicons_only_rejects_other_tasks() {
        let stage = EthicsStage::FaviconsOnly;
        assert!(stage.permits(&task(TaskSpec::Image {
            url: "http://any-site.org/favicon.ico".into()
        })));
        assert!(!stage.permits(&task(TaskSpec::Image {
            url: "http://any-site.org/logo.png".into()
        })));
        assert!(!stage.permits(&task(TaskSpec::Stylesheet {
            url: "http://any-site.org/style.css".into()
        })));
    }

    #[test]
    fn final_stage_limits_to_safe_sites() {
        let stage = EthicsStage::FaviconsFewSites;
        assert!(stage.permits(&task(TaskSpec::Image {
            url: "http://youtube.com/favicon.ico".into()
        })));
        assert!(stage.permits(&task(TaskSpec::Image {
            url: "http://www.facebook.com/favicon.ico".into()
        })));
        assert!(!stage.permits(&task(TaskSpec::Image {
            url: "http://rights-watch-0.org/favicon.ico".into()
        })));
        assert!(!stage.permits(&task(TaskSpec::Image {
            url: "http://youtube.com/logo.png".into()
        })));
    }

    #[test]
    fn stages_are_ordered_by_restrictiveness() {
        assert!(EthicsStage::Unrestricted < EthicsStage::FaviconsOnly);
        assert!(EthicsStage::FaviconsOnly < EthicsStage::FaviconsFewSites);
    }

    #[test]
    fn filter_retains_only_permitted() {
        let tasks = vec![
            task(TaskSpec::Image {
                url: "http://youtube.com/favicon.ico".into(),
            }),
            task(TaskSpec::Image {
                url: "http://obscure-site.org/favicon.ico".into(),
            }),
            task(TaskSpec::Script {
                url: "http://youtube.com/base.js".into(),
            }),
        ];
        let kept = EthicsStage::FaviconsFewSites.filter(tasks);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].spec.target_url(), "http://youtube.com/favicon.ico");
    }
}

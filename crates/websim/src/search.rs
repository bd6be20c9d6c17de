//! The search-engine stand-in for pattern expansion.
//!
//! Paper §5.2: "We currently expand URL patterns to a sample of up to 50
//! URLs by scraping site-specific results (i.e., using the site: search
//! operator) from a popular search engine." This module provides that
//! interface over the synthetic web: an index of every page URL, queryable
//! by pattern, returning results in popularity order capped at a limit.

use crate::generator::SyntheticWeb;
use crate::url::UrlPattern;
use std::collections::BTreeMap;

/// The result cap per pattern: §5.2's "a sample of up to 50 URLs".
pub const DEFAULT_RESULT_LIMIT: usize = 50;

/// A page-URL index over the synthetic web.
#[derive(Debug, Clone, Default)]
pub struct SearchIndex {
    /// domain → page URLs in rank (popularity) order.
    by_domain: BTreeMap<String, Vec<String>>,
}

impl SearchIndex {
    /// Build the index from a generated web.
    pub fn build(web: &SyntheticWeb) -> SearchIndex {
        let mut by_domain = BTreeMap::new();
        for site in &web.sites {
            by_domain.insert(site.domain.clone(), site.pages_by_popularity());
        }
        SearchIndex { by_domain }
    }

    /// Register extra URLs for a domain (e.g. hand-added social sites).
    pub fn add_domain(&mut self, domain: &str, urls: Vec<String>) {
        self.by_domain.insert(domain.to_string(), urls);
    }

    /// `site:`-style query: all indexed URLs matching `pattern`, in rank
    /// order, capped at `limit`.
    pub fn query(&self, pattern: &UrlPattern, limit: usize) -> Vec<String> {
        match pattern {
            UrlPattern::Exact(u) => {
                // Trivial patterns need no search (paper §5.2).
                vec![u.clone()]
            }
            UrlPattern::Domain(d) => {
                let key = d.to_ascii_lowercase();
                self.by_domain
                    .get(&key)
                    .map(|urls| urls.iter().take(limit).cloned().collect())
                    .unwrap_or_default()
            }
            UrlPattern::Prefix(_) => {
                let domain = pattern.domain().unwrap_or_default();
                self.by_domain
                    .get(&domain)
                    .map(|urls| {
                        urls.iter()
                            .filter(|u| pattern.matches(u))
                            .take(limit)
                            .cloned()
                            .collect()
                    })
                    .unwrap_or_default()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WebConfig;
    use sim_core::SimRng;

    fn index() -> (SyntheticWeb, SearchIndex) {
        let mut rng = SimRng::new(0xBEEF);
        let web = SyntheticWeb::generate(&WebConfig::small(), &mut rng);
        let idx = SearchIndex::build(&web);
        (web, idx)
    }

    #[test]
    fn indexes_every_content_domain() {
        let (web, idx) = index();
        assert_eq!(idx.by_domain.len(), web.sites.len());
        let urls: usize = idx.by_domain.values().map(Vec::len).sum();
        assert_eq!(urls, web.sites.iter().map(|s| s.pages.len()).sum::<usize>());
    }

    #[test]
    fn domain_query_caps_at_limit() {
        let (web, idx) = index();
        // Find a domain with more than 5 pages.
        let domain = web
            .sites
            .iter()
            .find(|s| s.pages.len() > 5)
            .map(|s| s.domain.clone())
            .expect("some site has >5 pages");
        let results = idx.query(&UrlPattern::Domain(domain.clone()), 5);
        assert_eq!(results.len(), 5);
        for u in &results {
            assert!(u.contains(&domain));
        }
    }

    #[test]
    fn domain_query_returns_popularity_order() {
        let (web, idx) = index();
        let site = &web.sites[0];
        let results = idx.query(&UrlPattern::Domain(site.domain.clone()), 1_000);
        assert_eq!(results, site.pages_by_popularity());
    }

    #[test]
    fn exact_query_is_identity() {
        let (_, idx) = index();
        let u = "http://anything.example/whatever".to_string();
        assert_eq!(idx.query(&UrlPattern::Exact(u.clone()), 50), vec![u]);
    }

    #[test]
    fn prefix_query_filters() {
        let (web, idx) = index();
        let site = &web.sites[0];
        let prefix = format!("http://{}/page/1", site.domain);
        let results = idx.query(&UrlPattern::Prefix(prefix.clone()), 50);
        assert!(!results.is_empty());
        for u in &results {
            assert!(u.to_ascii_lowercase().starts_with(&prefix));
        }
    }

    #[test]
    fn unknown_domain_returns_empty() {
        let (_, idx) = index();
        assert!(idx
            .query(&UrlPattern::Domain("nonexistent.example".into()), 50)
            .is_empty());
    }

    #[test]
    fn add_domain_extends_index() {
        let (_, mut idx) = index();
        idx.add_domain(
            "youtube.com",
            vec![
                "http://youtube.com/watch1".into(),
                "http://youtube.com/watch2".into(),
            ],
        );
        let r = idx.query(&UrlPattern::Domain("youtube.com".into()), 50);
        assert_eq!(r.len(), 2);
    }
}

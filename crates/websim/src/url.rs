//! URL patterns.
//!
//! Paper §5.1: a measurement-target list "can contain either specific URLs
//! if Encore is testing the reachability of a specific page; or a URL
//! pattern denoting sets of URLs (e.g., an entire domain name or URL
//! prefix)".

use netsim::http::{host_of, path_of};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A measurement-target pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UrlPattern {
    /// One exact URL.
    Exact(String),
    /// Every URL on a domain (including subdomains).
    Domain(String),
    /// Every URL sharing a prefix.
    Prefix(String),
}

impl UrlPattern {
    /// Parse from the textual forms used in target lists:
    ///
    /// * `example.com` (no scheme, no path) → [`UrlPattern::Domain`]
    /// * `http://example.com/section/*` → [`UrlPattern::Prefix`]
    /// * `http://example.com/page.html` → [`UrlPattern::Exact`]
    pub fn parse(s: &str) -> UrlPattern {
        let s = s.trim();
        if let Some(prefix) = s.strip_suffix("/*").or_else(|| s.strip_suffix('*')) {
            return UrlPattern::Prefix(prefix.to_string());
        }
        if !s.contains("://") && !s.starts_with("//") {
            return UrlPattern::Domain(s.trim_end_matches('/').to_ascii_lowercase());
        }
        match (host_of(s), path_of(s).as_str()) {
            (Some(host), "/") if s.trim_end_matches('/').ends_with(&host) => {
                // `http://example.com` or `http://example.com/`: treat a
                // bare origin as the whole domain.
                UrlPattern::Domain(host)
            }
            _ => UrlPattern::Exact(s.to_string()),
        }
    }

    /// Whether `url` matches this pattern.
    pub fn matches(&self, url: &str) -> bool {
        match self {
            UrlPattern::Exact(e) => normalize(url) == normalize(e),
            UrlPattern::Domain(d) => host_of(url).is_some_and(|h| {
                let d = d.to_ascii_lowercase();
                h == d || h.ends_with(&format!(".{d}"))
            }),
            UrlPattern::Prefix(p) => normalize(url).starts_with(&normalize(p)),
        }
    }

    /// The domain this pattern concerns, if derivable.
    pub fn domain(&self) -> Option<String> {
        match self {
            UrlPattern::Domain(d) => Some(d.clone()),
            UrlPattern::Exact(u) | UrlPattern::Prefix(u) => host_of(u),
        }
    }
}

fn normalize(u: &str) -> String {
    let lower = u.trim().to_ascii_lowercase();
    lower
        .strip_prefix("http://")
        .or_else(|| lower.strip_prefix("https://"))
        .unwrap_or(&lower)
        .to_string()
}

impl fmt::Display for UrlPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UrlPattern::Exact(u) => write!(f, "{u}"),
            UrlPattern::Domain(d) => write!(f, "{d}"),
            UrlPattern::Prefix(p) => write!(f, "{p}*"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_bare_domain() {
        assert_eq!(
            UrlPattern::parse("Example.COM"),
            UrlPattern::Domain("example.com".into())
        );
        assert_eq!(
            UrlPattern::parse("example.com/"),
            UrlPattern::Domain("example.com".into())
        );
    }

    #[test]
    fn parse_prefix() {
        assert_eq!(
            UrlPattern::parse("http://example.com/blog/*"),
            UrlPattern::Prefix("http://example.com/blog".into())
        );
    }

    #[test]
    fn parse_exact() {
        assert_eq!(
            UrlPattern::parse("http://example.com/post.html"),
            UrlPattern::Exact("http://example.com/post.html".into())
        );
    }

    #[test]
    fn domain_pattern_matches_subdomains_and_paths() {
        let p = UrlPattern::Domain("example.com".into());
        assert!(p.matches("http://example.com/a"));
        assert!(p.matches("http://www.example.com/b?q=1"));
        assert!(!p.matches("http://example.org/"));
        assert!(!p.matches("http://badexample.com/"));
    }

    #[test]
    fn prefix_pattern_matching() {
        let p = UrlPattern::Prefix("http://example.com/blog".into());
        assert!(p.matches("http://example.com/blog/post-1"));
        assert!(p.matches("https://EXAMPLE.com/blog/post-2"));
        assert!(!p.matches("http://example.com/about"));
    }

    #[test]
    fn exact_pattern_matching() {
        let p = UrlPattern::Exact("http://example.com/post".into());
        assert!(p.matches("http://example.com/post"));
        assert!(p.matches("HTTPS://example.com/post"));
        assert!(!p.matches("http://example.com/post/"));
    }

    #[test]
    fn triviality() {
        // A trivial pattern denotes exactly one URL ("some patterns are
        // trivial … and require no work", §5.2).
        let trivial = |p: &str| matches!(UrlPattern::parse(p), UrlPattern::Exact(_));
        assert!(trivial("http://x.com/a.html"));
        assert!(!trivial("x.com"));
        assert!(!trivial("http://x.com/a/*"));
    }

    #[test]
    fn domain_extraction() {
        assert_eq!(
            UrlPattern::parse("http://x.com/a/*").domain().as_deref(),
            Some("x.com")
        );
        assert_eq!(
            UrlPattern::parse("x.com").domain().as_deref(),
            Some("x.com")
        );
        assert_eq!(
            UrlPattern::parse("http://y.org/p.html").domain().as_deref(),
            Some("y.org")
        );
    }

    #[test]
    fn display_roundtrips_meaningfully() {
        assert_eq!(UrlPattern::Domain("x.com".into()).to_string(), "x.com");
        assert_eq!(
            UrlPattern::Prefix("http://x.com/a".into()).to_string(),
            "http://x.com/a*"
        );
    }
}

//! The same-origin policy.
//!
//! Paper §3.2: "an origin is defined as the protocol, port, and DNS
//! domain". Sites "cannot receive data from another origin; in particular,
//! browsers restrict cross-origin reads from scripts … However,
//! cross-origin embedding is typically allowed and can leak some read
//! access. The cornerstone of Encore's design is to use information leaked
//! by cross-origin embedding."

use serde::{Deserialize, Serialize};
use std::fmt;

/// A web origin: scheme, host, port.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Origin {
    /// URL scheme (`http`/`https`).
    pub scheme: String,
    /// Lower-cased host.
    pub host: String,
    /// Port (default 80/443 by scheme).
    pub port: u16,
}

impl Origin {
    /// Parse the origin of an absolute URL. Returns `None` for malformed
    /// URLs.
    pub fn of(url: &str) -> Option<Origin> {
        let (scheme, rest) = if let Some(r) = url.strip_prefix("http://") {
            ("http", r)
        } else if let Some(r) = url.strip_prefix("https://") {
            ("https", r)
        } else if let Some(r) = url.strip_prefix("//") {
            ("http", r)
        } else {
            return None;
        };
        let end = rest.find(['/', '?', '#']).unwrap_or(rest.len());
        let hostport = &rest[..end];
        if hostport.is_empty() {
            return None;
        }
        let (host, port) = match hostport.split_once(':') {
            Some((h, p)) => (h, p.parse().ok()?),
            None => (hostport, if scheme == "https" { 443 } else { 80 }),
        };
        if host.is_empty() {
            return None;
        }
        Some(Origin {
            scheme: scheme.to_string(),
            host: host.to_ascii_lowercase(),
            port,
        })
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}:{}", self.scheme, self.host, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_parsing() {
        let o = Origin::of("http://Example.com/path").unwrap();
        assert_eq!(o.host, "example.com");
        assert_eq!(o.port, 80);
        assert_eq!(o.scheme, "http");
        let o2 = Origin::of("https://example.com:8443/x").unwrap();
        assert_eq!(o2.port, 8443);
        assert!(Origin::of("garbage").is_none());
        assert!(Origin::of("http://").is_none());
    }

    #[test]
    fn same_origin_requires_all_three_components() {
        let same = |a: &str, b: &str| Origin::of(a).unwrap() == Origin::of(b).unwrap();
        assert!(same("http://a.com/x", "http://a.com/y?z"));
        assert!(!same("http://a.com/", "https://a.com/"));
        assert!(!same("http://a.com/", "http://b.com/"));
        assert!(!same("http://a.com/", "http://a.com:8080/"));
        // Subdomains are different origins.
        assert!(!same("http://a.com/", "http://www.a.com/"));
    }

    #[test]
    fn display_format() {
        let o = Origin::of("http://a.com/").unwrap();
        assert_eq!(o.to_string(), "http://a.com:80");
    }
}

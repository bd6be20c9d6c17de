//! Sites: pages plus auxiliary resources, servable over the simulated
//! network.
//!
//! A [`SiteContent`] is the ground-truth content of one domain. Pages
//! embed resources ([`EmbedRef`]) which may live on the same domain or on
//! another (CDNs — paper §4.3.1: "sites often load common style sheets
//! (e.g., Bootstrap) from a CDN"). The [`SiteHandler`] adapter serves a
//! site through `netsim`'s [`HttpHandler`] interface.

use netsim::http::{ContentType, HttpRequest, HttpResponse};
use netsim::network::HttpHandler;
use serde::{Deserialize, Serialize};
use sim_core::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Re-export: how a page embeds a resource (defined in `netsim::http` so
/// the embed list can travel on [`HttpResponse`]).
pub use netsim::http::EmbedKind;

/// Re-export: one embedded-resource reference on a page.
pub use netsim::http::Embedded as EmbedRef;

/// A non-page resource hosted by a site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceSpec {
    /// Path on the site (`/img/logo.png`).
    pub path: String,
    /// Content type.
    pub content_type: ContentType,
    /// Size in bytes.
    pub bytes: u64,
    /// Whether responses carry cache-friendly headers.
    pub cacheable: bool,
    /// Whether script resources are served with
    /// `X-Content-Type-Options: nosniff`.
    pub nosniff: bool,
    /// Whether fetching this resource has server-side side effects
    /// (paper §4.2: "measurement tasks should try to only test URLs
    /// without obvious server side-effects").
    pub side_effects: bool,
}

/// An HTML page hosted by a site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PageSpec {
    /// Path on the site (`/articles/1`).
    pub path: String,
    /// Size of the HTML itself, bytes.
    pub html_bytes: u64,
    /// Embedded resources, in document order.
    pub embeds: Vec<EmbedRef>,
    /// Whether the page hosts large media (flash/video) — the §5.2 Task
    /// Generator "excludes pages that load flash applets, videos, or any
    /// other large objects".
    pub has_large_media: bool,
    /// Whether loading the page has server-side side effects.
    pub side_effects: bool,
    /// Relative popularity (drives search ranking).
    pub popularity: f64,
}

/// The full content of one domain.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SiteContent {
    /// The DNS domain, e.g. `humanrights-example.org`.
    pub domain: String,
    /// Pages by path.
    pub pages: BTreeMap<String, PageSpec>,
    /// Auxiliary resources by path.
    pub resources: BTreeMap<String, ResourceSpec>,
}

impl SiteContent {
    /// New empty site.
    pub fn new(domain: impl Into<String>) -> SiteContent {
        SiteContent {
            domain: domain.into(),
            ..SiteContent::default()
        }
    }

    /// Absolute URL of a path on this site.
    pub fn url(&self, path: &str) -> String {
        format!("http://{}{}", self.domain, path)
    }

    /// Add a page.
    pub fn add_page(&mut self, page: PageSpec) {
        self.pages.insert(page.path.clone(), page);
    }

    /// Add a resource.
    pub fn add_resource(&mut self, res: ResourceSpec) {
        self.resources.insert(res.path.clone(), res);
    }

    /// Look up a page.
    pub fn page(&self, path: &str) -> Option<&PageSpec> {
        self.pages.get(path)
    }

    /// Look up a resource.
    pub fn resource(&self, path: &str) -> Option<&ResourceSpec> {
        self.resources.get(path)
    }

    /// All page URLs, most popular first (deterministic tie-break by
    /// path) — the order a search engine would rank them.
    pub fn pages_by_popularity(&self) -> Vec<String> {
        let mut pages: Vec<_> = self.pages.values().collect();
        pages.sort_by(|a, b| {
            b.popularity
                .partial_cmp(&a.popularity)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.path.cmp(&b.path))
        });
        pages.iter().map(|p| self.url(&p.path)).collect()
    }
}

/// Serves a [`SiteContent`] over HTTP.
///
/// Content is shared via [`Arc`] so the same generated site can be
/// installed on every shard of a sharded world, and a disruption that
/// swaps the handler mid-run (a redesign, an outage's revert) can wrap
/// the corpus' own copy.
pub struct SiteHandler {
    content: Arc<SiteContent>,
}

impl SiteHandler {
    /// Wrap shared site content.
    pub fn new(content: Arc<SiteContent>) -> SiteHandler {
        SiteHandler { content }
    }
}

impl HttpHandler for SiteHandler {
    fn handle(
        &self,
        req: &HttpRequest,
        _client_ip: std::net::Ipv4Addr,
        _now: SimTime,
    ) -> HttpResponse {
        let path = req.path();
        if let Some(page) = self.content.page(path) {
            // Pages are dynamic HTML: not cacheable. The embed list rides
            // along so browsers can fetch subresources.
            return HttpResponse::ok(ContentType::Html, page.html_bytes)
                .no_store()
                .with_embeds(page.embeds.clone());
        }
        if let Some(res) = self.content.resource(path) {
            let mut r = HttpResponse::ok(res.content_type, res.bytes);
            if !res.cacheable {
                r = r.no_store();
            }
            if res.nosniff {
                r = r.with_nosniff();
            }
            return r;
        }
        HttpResponse::not_found()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_site() -> SiteContent {
        let mut s = SiteContent::new("demo.org");
        s.add_resource(ResourceSpec {
            path: "/favicon.ico".into(),
            content_type: ContentType::Image,
            bytes: 430,
            cacheable: true,
            nosniff: false,
            side_effects: false,
        });
        s.add_resource(ResourceSpec {
            path: "/app.js".into(),
            content_type: ContentType::Script,
            bytes: 52_000,
            cacheable: true,
            nosniff: true,
            side_effects: false,
        });
        s.add_page(PageSpec {
            path: "/index.html".into(),
            html_bytes: 18_000,
            embeds: vec![
                EmbedRef {
                    url: "http://demo.org/favicon.ico".into(),
                    kind: EmbedKind::Image,
                },
                EmbedRef {
                    url: "http://cdn.example/bootstrap.css".into(),
                    kind: EmbedKind::Stylesheet,
                },
            ],
            has_large_media: false,
            side_effects: false,
            popularity: 1.0,
        });
        s.add_page(PageSpec {
            path: "/contact.html".into(),
            html_bytes: 4_000,
            embeds: vec![],
            has_large_media: false,
            side_effects: false,
            popularity: 0.2,
        });
        s
    }

    #[test]
    fn url_construction() {
        let s = demo_site();
        assert_eq!(s.url("/favicon.ico"), "http://demo.org/favicon.ico");
    }

    #[test]
    fn popularity_ordering() {
        let s = demo_site();
        let pages = s.pages_by_popularity();
        assert_eq!(pages[0], "http://demo.org/index.html");
        assert_eq!(pages[1], "http://demo.org/contact.html");
    }

    #[test]
    fn handler_serves_pages_and_resources() {
        let s = Arc::new(demo_site());
        let h = SiteHandler::new(s);
        let page = h.handle(
            &HttpRequest::get("http://demo.org/index.html"),
            std::net::Ipv4Addr::UNSPECIFIED,
            SimTime::ZERO,
        );
        assert_eq!(page.content_type, ContentType::Html);
        assert!(!page.is_cacheable(), "pages are dynamic");
        let ico = h.handle(
            &HttpRequest::get("http://demo.org/favicon.ico"),
            std::net::Ipv4Addr::UNSPECIFIED,
            SimTime::ZERO,
        );
        assert_eq!(ico.content_type, ContentType::Image);
        assert!(ico.is_cacheable());
        assert_eq!(ico.body_bytes, 430);
        let js = h.handle(
            &HttpRequest::get("http://demo.org/app.js"),
            std::net::Ipv4Addr::UNSPECIFIED,
            SimTime::ZERO,
        );
        assert!(js.nosniff);
        let missing = h.handle(
            &HttpRequest::get("http://demo.org/nope"),
            std::net::Ipv4Addr::UNSPECIFIED,
            SimTime::ZERO,
        );
        assert_eq!(missing.status, netsim::http::StatusCode::NOT_FOUND);
    }
}

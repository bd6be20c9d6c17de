//! Task delivery: how webmasters install Encore and how clients obtain
//! tasks (paper §5.4, §8).
//!
//! "A webmaster can enable Encore in several ways. The simplest method is
//! to add a single `<iframe>` tag that directs clients to load an
//! external JavaScript directly from the coordination server. …
//! Unfortunately, this method is also easiest for censors to fingerprint
//! and disrupt: a censor can simply block access to the coordination
//! server." §8 adds the robust variant: "webmasters could contact the
//! coordination server on behalf of clients (e.g., with a WordPress
//! plugin or Django package) … including the returned measurement task
//! directly in the page it serves".

use crate::tasks::{MeasurementTask, TaskSpec};
use netsim::geo::CountryCode;
use netsim::http::{ContentType, HttpRequest, HttpResponse};
use netsim::network::{HttpHandler, Network};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// The snippet overhead the paper reports: "our prototype adds only 100
/// bytes to each origin page".
pub const SNIPPET_BYTES: u64 = 100;

/// How an origin site includes Encore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstallMethod {
    /// One `<script>`/`<iframe>` tag pointing at the coordination server;
    /// the client fetches the task itself. Blockable by censoring the
    /// coordination server.
    Tag,
    /// The webmaster's server fetches tasks from the coordination server
    /// and inlines them (the §8 WordPress-plugin model); clients never
    /// contact Encore infrastructure directly, so blocking the
    /// coordination server does not stop measurement — only collection
    /// remains exposed.
    ServerSideInline,
}

/// A volunteer origin site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OriginSite {
    /// The site's domain.
    pub domain: String,
    /// How Encore is installed.
    pub install_method: InstallMethod,
    /// Whether the site strips `Referer` from outgoing requests (the
    /// paper observed ¾ of measurements arrived referrer-less).
    pub strip_referer: bool,
    /// Relative share of world traffic this origin receives.
    pub popularity_weight: f64,
    /// Size of the origin page's own HTML, bytes.
    pub page_bytes: u64,
}

impl OriginSite {
    /// A small personal/academic page (the §6.2 pilot deployment).
    pub fn academic(domain: impl Into<String>) -> OriginSite {
        OriginSite {
            domain: domain.into(),
            install_method: InstallMethod::Tag,
            strip_referer: false,
            popularity_weight: 1.0,
            page_bytes: 24_000,
        }
    }

    /// Builder: set install method.
    pub fn with_install(mut self, m: InstallMethod) -> OriginSite {
        self.install_method = m;
        self
    }

    /// Builder: strip referer.
    pub fn with_referer_stripping(mut self) -> OriginSite {
        self.strip_referer = true;
        self
    }

    /// Builder: popularity weight.
    pub fn with_popularity(mut self, w: f64) -> OriginSite {
        self.popularity_weight = w;
        self
    }

    /// The origin page URL.
    pub fn page_url(&self) -> String {
        format!("http://{}/", self.domain)
    }

    /// Register the origin site's web server.
    pub fn install(&self, net: &mut Network, country: CountryCode) {
        net.add_server(
            &self.domain,
            country,
            Box::new(OriginHandler {
                page_bytes: self.page_bytes + SNIPPET_BYTES,
            }),
        );
    }
}

struct OriginHandler {
    page_bytes: u64,
}

impl HttpHandler for OriginHandler {
    fn handle(&self, req: &HttpRequest, _ip: Ipv4Addr, _now: sim_core::SimTime) -> HttpResponse {
        if req.path() == "/" {
            HttpResponse::ok(ContentType::Html, self.page_bytes).no_store()
        } else {
            HttpResponse::not_found()
        }
    }
}

/// Render the one-line install snippet a webmaster adds to their page.
/// Its length is the per-page overhead the paper quantifies.
pub fn render_snippet(coordinator_domain: &str) -> String {
    format!(
        "<iframe src=\"//{coordinator_domain}/task\" width=\"0\" height=\"0\" style=\"display:none\"></iframe>"
    )
}

/// Render (a compact form of) the Appendix A measurement-task JavaScript
/// that the coordination server would serve for `task`. Used for byte
/// accounting and documentation; the simulation executes task semantics
/// natively.
pub fn render_task_js(task: &MeasurementTask, collector_domain: &str) -> String {
    let mid = task.id.to_string();
    let submit = format!("//{collector_domain}/submit?cmh-id={mid}&cmh-result=");
    match &task.spec {
        TaskSpec::Image { url } => format!(
            "var M={{}};M.id='{mid}';M.s=function(r){{new Image().src='{submit}'+r;}};\
             M.m=function(){{var i=new Image();i.style.display='none';\
             i.onload=function(){{M.s('success')}};i.onerror=function(){{M.s('failure')}};\
             i.src='{url}';document.body.appendChild(i);}};M.s('init');M.m();"
        ),
        TaskSpec::Stylesheet { url } => format!(
            "var M={{}};M.id='{mid}';M.s=function(r){{new Image().src='{submit}'+r;}};\
             M.m=function(){{var f=document.createElement('iframe');f.style.display='none';\
             var l=document.createElement('link');l.rel='stylesheet';l.href='{url}';\
             l.onload=function(){{var p=f.contentDocument.createElement('p');\
             M.s(getComputedStyle(p).color=='rgb(0, 0, 255)'?'success':'failure');}};\
             l.onerror=function(){{M.s('failure')}};}};M.s('init');M.m();"
        ),
        TaskSpec::Script { url } => format!(
            "var M={{}};M.id='{mid}';M.s=function(r){{new Image().src='{submit}'+r;}};\
             M.m=function(){{var s=document.createElement('script');\
             s.onload=function(){{M.s('success')}};s.onerror=function(){{M.s('failure')}};\
             s.src='{url}';document.head.appendChild(s);}};M.s('init');M.m();"
        ),
        TaskSpec::Iframe {
            page_url,
            probe_image_url,
            threshold,
        } => format!(
            "var M={{}};M.id='{mid}';M.s=function(r){{new Image().src='{submit}'+r;}};\
             M.m=function(){{var f=document.createElement('iframe');f.style.display='none';\
             f.onload=function(){{var t=Date.now();var i=new Image();\
             i.onload=function(){{M.s(Date.now()-t<{}?'success':'failure')}};\
             i.onerror=function(){{M.s('failure')}};i.src='{probe_image_url}';}};\
             f.src='{page_url}';document.body.appendChild(f);}};M.s('init');M.m();",
            threshold.as_millis()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{MeasurementId, IFRAME_CACHE_THRESHOLD};
    use netsim::geo::{country, IspClass, World};
    use sim_core::{SimRng, SimTime};

    /// An online advertising network, as a possible Encore delivery vector
    /// (paper §5.4: "we have explored the possibility of purchasing online
    /// advertisements and delivering Encore measurement tasks inside them …
    /// Unfortunately for us, this idea works poorly in practice because most
    /// ad networks prevent advertisements from running custom JavaScript and
    /// loading resources from remote origins").
    #[derive(Debug, Clone, PartialEq)]
    struct AdNetwork {
        /// Whether ads may run arbitrary JavaScript.
        allows_custom_js: bool,
        /// Whether ads may fetch resources from arbitrary remote origins.
        allows_remote_origins: bool,
        /// Whether advertisers can target specific countries (useful to
        /// Encore, were delivery possible).
        supports_geo_targeting: bool,
    }

    /// Why an ad network cannot carry Encore.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum AdPolicyViolation {
        /// The network forbids custom JavaScript in creatives.
        NoCustomJs,
        /// The network forbids cross-origin resource loads from creatives.
        NoRemoteOrigins,
    }

    impl AdNetwork {
        /// A 2014-style major network: sandboxed creatives, no custom JS.
        fn mainstream() -> AdNetwork {
            AdNetwork {
                allows_custom_js: false,
                allows_remote_origins: false,
                supports_geo_targeting: true,
            }
        }

        /// One of the "few niche ad networks capable of hosting Encore".
        fn niche() -> AdNetwork {
            AdNetwork {
                allows_custom_js: true,
                allows_remote_origins: true,
                supports_geo_targeting: false,
            }
        }

        /// Whether an Encore measurement task could ship inside this
        /// network's creatives.
        fn can_deliver_encore(&self) -> Result<(), AdPolicyViolation> {
            if !self.allows_custom_js {
                return Err(AdPolicyViolation::NoCustomJs);
            }
            if !self.allows_remote_origins {
                return Err(AdPolicyViolation::NoRemoteOrigins);
            }
            Ok(())
        }
    }

    #[test]
    fn snippet_is_about_100_bytes() {
        let s = render_snippet("coordinator.encore-repro.net");
        // §6.3: "our prototype adds only 100 bytes to each origin page".
        assert!(
            (80..=130).contains(&s.len()),
            "snippet is {} bytes: {s}",
            s.len()
        );
    }

    #[test]
    fn origin_page_includes_snippet_overhead() {
        let mut net = Network::ideal(World::builtin());
        let origin = OriginSite::academic("prof.university.edu");
        origin.install(&mut net, country("US"));
        let client = net.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let out = net.fetch(
            &client,
            &HttpRequest::get(origin.page_url()),
            SimTime::ZERO,
            &mut rng,
        );
        let resp = out.result.unwrap();
        assert_eq!(resp.body_bytes, 24_000 + SNIPPET_BYTES);
    }

    #[test]
    fn task_js_contains_target_and_id() {
        let t = MeasurementTask {
            id: MeasurementId(0x42),
            spec: TaskSpec::Image {
                url: "http://censored.com/favicon.ico".into(),
            },
        };
        let js = render_task_js(&t, "collector.example");
        assert!(js.contains("http://censored.com/favicon.ico"));
        assert!(js.contains("m-0000000000000042"));
        assert!(js.contains("init"), "must submit init beacon");
        assert!(js.contains("onerror"));
    }

    #[test]
    fn iframe_js_embeds_threshold() {
        let t = MeasurementTask {
            id: MeasurementId(1),
            spec: TaskSpec::Iframe {
                page_url: "http://x.com/p".into(),
                probe_image_url: "http://x.com/i.png".into(),
                threshold: IFRAME_CACHE_THRESHOLD,
            },
        };
        let js = render_task_js(&t, "c.example");
        assert!(js.contains("<50") || js.contains("50?"), "{js}");
    }

    #[test]
    fn builders_compose() {
        let o = OriginSite::academic("blog.example")
            .with_install(InstallMethod::ServerSideInline)
            .with_referer_stripping()
            .with_popularity(5.0);
        assert_eq!(o.install_method, InstallMethod::ServerSideInline);
        assert!(o.strip_referer);
        assert_eq!(o.popularity_weight, 5.0);
    }

    #[test]
    fn mainstream_ad_networks_refuse_encore() {
        // §5.4's negative result, as an executable fact.
        let major = AdNetwork::mainstream();
        assert_eq!(
            major.can_deliver_encore(),
            Err(AdPolicyViolation::NoCustomJs)
        );
        let half_open = AdNetwork {
            allows_custom_js: true,
            ..AdNetwork::mainstream()
        };
        assert_eq!(
            half_open.can_deliver_encore(),
            Err(AdPolicyViolation::NoRemoteOrigins)
        );
        let niche = AdNetwork::niche();
        assert_eq!(niche.can_deliver_encore(), Ok(()));
        // The irony the paper notes: the networks that *could* carry
        // Encore lack the geo-targeting that made ads attractive.
        assert!(!niche.supports_geo_targeting);
        assert!(major.supports_geo_targeting);
    }

    #[test]
    fn origin_404s_other_paths() {
        let mut net = Network::ideal(World::builtin());
        OriginSite::academic("prof.example").install(&mut net, country("US"));
        let client = net.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let out = net.fetch(
            &client,
            &HttpRequest::get("http://prof.example/secret"),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(
            out.result.unwrap().status,
            netsim::http::StatusCode::NOT_FOUND
        );
    }
}

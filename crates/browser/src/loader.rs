//! The four cross-origin loaders of paper Table 1.
//!
//! | Mechanism   | Feedback                                   |
//! |-------------|--------------------------------------------|
//! | Images      | `onload` iff fetched *and rendered*        |
//! | Style sheets| style observably applied (computed style)  |
//! | Inline frames| none — cache timing only                  |
//! | Scripts     | Chrome: `onload` iff HTTP 200; others: executes or `onerror` |
//!
//! Each loader returns exactly what page JavaScript could observe: an
//! event plus elapsed time. Ground truth (did the censor interfere?) never
//! leaks through this interface — Encore must infer it, as in the paper.

use crate::client::BrowserClient;
use netsim::http::{ContentType, EmbedKind, HttpRequest, HttpResponse, StatusCode};
use netsim::network::Network;
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime};

/// The DOM event a load produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoadEvent {
    /// `onload` fired.
    OnLoad,
    /// `onerror` fired (or, for stylesheets, the style was observably not
    /// applied).
    OnError,
}

/// Result of an image / stylesheet / script load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceLoad {
    /// The observable event.
    pub event: LoadEvent,
    /// Wall time from issuing the load to the event.
    pub elapsed: SimDuration,
    /// Whether the resource came from the browser cache.
    pub from_cache: bool,
    /// Script loads only: whether the engine executed content fetched
    /// from an untrusted origin (the §4.3.2 security hazard motivating
    /// Chrome-only deployment of the script task).
    pub executed_untrusted: bool,
    /// Whether the failure carried a near-source congestion signal (the
    /// fetch was shed at an overloaded transit link rather than
    /// censored) — observable client-side as a distinct fast
    /// connection-stage error, like `NS_ERROR_NET_RESET` vs a timeout.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub congestion_signaled: bool,
}

/// Result of an iframe load. Note the absence of a success event:
/// "browsers … provide no explicit notification about whether an inline
/// frame loaded successfully" (§4.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IframeLoad {
    /// Time until the iframe's `onload` fired (fires whether or not the
    /// page actually rendered useful content).
    pub elapsed: SimDuration,
    /// How many subresources were fetched into the cache (observable only
    /// indirectly, via timing).
    pub subresources_fetched: usize,
    /// Whether the frame's own fetch failed with a near-source
    /// congestion signal (see [`ResourceLoad::congestion_signaled`]).
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub congestion_signaled: bool,
}

/// Maximum redirect hops a loader follows.
const MAX_REDIRECTS: usize = 3;

impl BrowserClient {
    /// Raw fetch with redirect following. Returns the final response (or
    /// error) and total elapsed time. Does not consult the cache.
    ///
    /// The request is built into the client's recycled scratch buffers, so
    /// repeated calls perform no heap allocation of their own — the hot
    /// visit path issues thousands of these.
    pub fn fetch_following_redirects(
        &mut self,
        net: &mut Network,
        url: &str,
        referer: Option<&str>,
        now: SimTime,
    ) -> (
        Result<HttpResponse, netsim::network::FetchError>,
        SimDuration,
    ) {
        let mut req = std::mem::replace(&mut self.scratch_req, HttpRequest::get(String::new()));
        req.url.clear();
        req.url.push_str(url);
        req.referer = referer.map(|r| {
            let mut buf = std::mem::take(&mut self.scratch_referer);
            buf.clear();
            buf.push_str(r);
            buf
        });

        let mut elapsed = SimDuration::ZERO;
        // None = redirect budget exhausted: browsers abort with an error.
        let mut verdict = None;
        for _ in 0..=MAX_REDIRECTS {
            let out = self.fetch_once(net, &req, now + elapsed);
            elapsed += out.timings.total();
            match out.result {
                Ok(resp) if resp.status.is_redirect() => match &resp.location {
                    Some(loc) => {
                        req.url.clear();
                        req.url.push_str(loc);
                    }
                    None => {
                        verdict = Some(Ok(resp));
                        break;
                    }
                },
                other => {
                    verdict = Some(other);
                    break;
                }
            }
        }
        // Reclaim the buffers for the next call. `scratch_req.url` is left
        // holding the final URL so `fetch_following_redirects_traced` can
        // report it without re-deriving the hop chain.
        if let Some(buf) = req.referer.take() {
            self.scratch_referer = buf;
        }
        self.scratch_req = req;
        (
            verdict.unwrap_or(Err(netsim::network::FetchError::ResponseTimeout)),
            elapsed,
        )
    }

    /// Like [`BrowserClient::fetch_following_redirects`] but also returns
    /// the final URL after redirects (allocating — used by the HAR
    /// recorder, which runs off the hot path).
    pub fn fetch_following_redirects_traced(
        &mut self,
        net: &mut Network,
        url: &str,
        referer: Option<&str>,
        now: SimTime,
    ) -> (
        Result<HttpResponse, netsim::network::FetchError>,
        SimDuration,
        String,
    ) {
        let (result, elapsed) = self.fetch_following_redirects(net, url, referer, now);
        let final_url = self.scratch_req.url.clone();
        (result, elapsed, final_url)
    }

    /// `<img src=…>`: `onload` iff the browser fetched **and rendered**
    /// the image; `onerror` otherwise (including when a censor substitutes
    /// an HTML block page — HTML is not a renderable image).
    pub fn load_image(&mut self, net: &mut Network, url: &str, now: SimTime) -> ResourceLoad {
        if let Some(cached) = self.cache.lookup(url) {
            let ok = cached.content_type == ContentType::Image && cached.valid_body;
            return ResourceLoad {
                event: if ok {
                    LoadEvent::OnLoad
                } else {
                    LoadEvent::OnError
                },
                elapsed: self.cached_load_time(cached.body_bytes),
                from_cache: true,
                executed_untrusted: false,
                congestion_signaled: false,
            };
        }
        let (result, net_time) = self.fetch_following_redirects(net, url, None, now);
        match result {
            Ok(resp) => {
                let renders = resp.status.is_success()
                    && resp.content_type == ContentType::Image
                    && resp.valid_body;
                if renders {
                    self.cache.store(url, &resp);
                    ResourceLoad {
                        event: LoadEvent::OnLoad,
                        elapsed: net_time + self.render_time(resp.body_bytes),
                        from_cache: false,
                        executed_untrusted: false,
                        congestion_signaled: false,
                    }
                } else {
                    ResourceLoad {
                        event: LoadEvent::OnError,
                        elapsed: net_time + self.render_time(256),
                        from_cache: false,
                        executed_untrusted: false,
                        congestion_signaled: false,
                    }
                }
            }
            Err(e) => ResourceLoad {
                event: LoadEvent::OnError,
                elapsed: net_time,
                from_cache: false,
                executed_untrusted: false,
                congestion_signaled: matches!(e, netsim::network::FetchError::Congested),
            },
        }
    }

    /// `<link rel="stylesheet">` inside a sandbox iframe, success detected
    /// by `getComputedStyle` (§4.3.1): "applied" iff the fetch succeeded
    /// and the body is a valid, non-empty stylesheet.
    pub fn load_stylesheet(&mut self, net: &mut Network, url: &str, now: SimTime) -> ResourceLoad {
        if let Some(cached) = self.cache.lookup(url) {
            let ok = cached.content_type == ContentType::Stylesheet
                && cached.valid_body
                && cached.body_bytes > 0;
            return ResourceLoad {
                event: if ok {
                    LoadEvent::OnLoad
                } else {
                    LoadEvent::OnError
                },
                elapsed: self.cached_load_time(cached.body_bytes),
                from_cache: true,
                executed_untrusted: false,
                congestion_signaled: false,
            };
        }
        let (result, net_time) = self.fetch_following_redirects(net, url, None, now);
        match result {
            Ok(resp) => {
                let applied = resp.status.is_success()
                    && resp.content_type == ContentType::Stylesheet
                    && resp.valid_body
                    && resp.body_bytes > 0; // Table 1: "only non-empty style sheets"
                if applied {
                    self.cache.store(url, &resp);
                }
                ResourceLoad {
                    event: if applied {
                        LoadEvent::OnLoad
                    } else {
                        LoadEvent::OnError
                    },
                    elapsed: net_time + self.render_time(resp.body_bytes.min(4_096)),
                    from_cache: false,
                    executed_untrusted: false,
                    congestion_signaled: false,
                }
            }
            Err(e) => ResourceLoad {
                event: LoadEvent::OnError,
                elapsed: net_time,
                from_cache: false,
                executed_untrusted: false,
                congestion_signaled: matches!(e, netsim::network::FetchError::Congested),
            },
        }
    }

    /// `<script src=…>`. Engine-dependent (§4.3.2):
    ///
    /// * Chrome fires `onload` iff the fetch returned HTTP 200 — even for
    ///   non-JavaScript bodies — and respects `nosniff`, so properly
    ///   configured targets are never executed.
    /// * Other engines attempt to *execute* the body: `onload` iff it
    ///   parses as JavaScript, `onerror` otherwise. Executing arbitrary
    ///   cross-origin content is the security hazard that restricts this
    ///   task to Chrome.
    pub fn load_script(&mut self, net: &mut Network, url: &str, now: SimTime) -> ResourceLoad {
        let (result, net_time) = self.fetch_following_redirects(net, url, None, now);
        match result {
            Ok(resp) => {
                let is_200 = resp.status == StatusCode::OK;
                let is_js = resp.content_type == ContentType::Script && resp.valid_body;
                let nosniff_blocks = resp.nosniff && !is_js && self.engine.respects_nosniff();
                let (event, executed) = if self.engine.script_onload_on_http_200() {
                    // Chrome: onload on any 200. Real JS would execute,
                    // but Encore sandboxes its script tasks (§4.2:
                    // "Encore must carefully sandbox the embedded
                    // content"), and nosniff keeps non-JS inert — so no
                    // unsandboxed untrusted execution occurs on Chrome.
                    (
                        if is_200 {
                            LoadEvent::OnLoad
                        } else {
                            LoadEvent::OnError
                        },
                        false,
                    )
                } else if nosniff_blocks {
                    (LoadEvent::OnError, false)
                } else if is_200 && is_js {
                    (LoadEvent::OnLoad, true)
                } else {
                    // Non-JS body: parse failure. Engines that ignore
                    // nosniff *attempted* execution of untrusted bytes.
                    (LoadEvent::OnError, false)
                };
                ResourceLoad {
                    event,
                    elapsed: net_time + self.render_time(resp.body_bytes.min(65_536)),
                    from_cache: false,
                    executed_untrusted: executed,
                    congestion_signaled: false,
                }
            }
            Err(e) => ResourceLoad {
                event: LoadEvent::OnError,
                elapsed: net_time,
                from_cache: false,
                executed_untrusted: false,
                congestion_signaled: matches!(e, netsim::network::FetchError::Congested),
            },
        }
    }

    /// `<iframe src=…>`: loads the page and, if the HTML arrives, all its
    /// subresources — populating the cache. Provides **no** success
    /// signal; the caller (Encore's iframe task) must probe the cache by
    /// timing.
    pub fn load_iframe(&mut self, net: &mut Network, url: &str, now: SimTime) -> IframeLoad {
        let (result, mut elapsed) = self.fetch_following_redirects(net, url, None, now);
        let congestion_signaled = matches!(result, Err(netsim::network::FetchError::Congested));
        let mut fetched = 0usize;
        if let Ok(resp) = result {
            if resp.status.is_success() && resp.content_type == ContentType::Html {
                // Browsers parallelise subresource fetches (~6 connections
                // per host): elapsed grows by the *maximum* over a wave
                // rather than the sum. We fetch sequentially for cache
                // correctness but charge parallel time.
                let mut wave_max = SimDuration::ZERO;
                let embeds = resp.embeds.clone();
                for (i, embed) in embeds.iter().enumerate() {
                    let sub = match embed.kind {
                        EmbedKind::Image => self.load_image(net, &embed.url, now + elapsed),
                        EmbedKind::Stylesheet => {
                            self.load_stylesheet(net, &embed.url, now + elapsed)
                        }
                        EmbedKind::Script => self.load_script(net, &embed.url, now + elapsed),
                    };
                    fetched += 1;
                    wave_max = wave_max.max(sub.elapsed);
                    if (i + 1) % 6 == 0 {
                        elapsed += wave_max;
                        wave_max = SimDuration::ZERO;
                    }
                }
                elapsed += wave_max;
                elapsed += self.render_time(resp.body_bytes);
            }
        }
        IframeLoad {
            elapsed,
            subresources_fetched: fetched,
            congestion_signaled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use netsim::geo::{country, IspClass, World};
    use netsim::network::ConstHandler;
    use sim_core::SimRng;

    fn setup(engine: Engine) -> (Network, BrowserClient) {
        let mut n = Network::ideal(World::builtin());
        let root = SimRng::new(0xB0B);
        let c = BrowserClient::new(&mut n, country("US"), IspClass::Residential, engine, &root);
        (n, c)
    }

    fn add(n: &mut Network, name: &str, resp: HttpResponse) {
        n.add_server(name, country("US"), Box::new(ConstHandler(resp)));
    }

    #[test]
    fn image_onload_on_success() {
        let (mut n, mut c) = setup(Engine::Firefox);
        add(&mut n, "t.com", HttpResponse::ok(ContentType::Image, 400));
        let r = c.load_image(&mut n, "http://t.com/favicon.ico", SimTime::ZERO);
        assert_eq!(r.event, LoadEvent::OnLoad);
        assert!(!r.from_cache);
        assert!(
            r.elapsed > SimDuration::from_millis(10),
            "network time included"
        );
    }

    #[test]
    fn image_onerror_on_dns_failure() {
        let (mut n, mut c) = setup(Engine::Firefox);
        let r = c.load_image(&mut n, "http://missing.example/x.png", SimTime::ZERO);
        assert_eq!(r.event, LoadEvent::OnError);
    }

    #[test]
    fn image_onerror_on_block_page() {
        // A censor's HTML block page can't render as an image.
        let (mut n, mut c) = setup(Engine::Firefox);
        add(&mut n, "t.com", HttpResponse::block_page());
        let r = c.load_image(&mut n, "http://t.com/x.png", SimTime::ZERO);
        assert_eq!(r.event, LoadEvent::OnError);
    }

    #[test]
    fn image_onerror_on_404() {
        let (mut n, mut c) = setup(Engine::Chrome);
        add(&mut n, "t.com", HttpResponse::not_found());
        let r = c.load_image(&mut n, "http://t.com/x.png", SimTime::ZERO);
        assert_eq!(r.event, LoadEvent::OnError);
    }

    #[test]
    fn image_onerror_on_invalid_body() {
        let (mut n, mut c) = setup(Engine::Chrome);
        add(
            &mut n,
            "t.com",
            HttpResponse::ok(ContentType::Image, 400).with_invalid_body(),
        );
        let r = c.load_image(&mut n, "http://t.com/x.png", SimTime::ZERO);
        assert_eq!(r.event, LoadEvent::OnError);
    }

    #[test]
    fn second_image_load_hits_cache_and_is_much_faster() {
        let (mut n, mut c) = setup(Engine::Chrome);
        add(&mut n, "t.com", HttpResponse::ok(ContentType::Image, 400));
        let cold = c.load_image(&mut n, "http://t.com/i.png", SimTime::ZERO);
        let warm = c.load_image(&mut n, "http://t.com/i.png", SimTime::from_secs(1));
        assert!(!cold.from_cache);
        assert!(warm.from_cache);
        assert_eq!(warm.event, LoadEvent::OnLoad);
        // Figure 7's separation: uncached ≥ 50 ms slower than cached.
        assert!(
            cold.elapsed >= warm.elapsed + SimDuration::from_millis(50),
            "cold {} vs warm {}",
            cold.elapsed,
            warm.elapsed
        );
    }

    #[test]
    fn non_cacheable_image_not_cached() {
        let (mut n, mut c) = setup(Engine::Chrome);
        add(
            &mut n,
            "t.com",
            HttpResponse::ok(ContentType::Image, 400).no_store(),
        );
        c.load_image(&mut n, "http://t.com/i.png", SimTime::ZERO);
        let again = c.load_image(&mut n, "http://t.com/i.png", SimTime::from_secs(1));
        assert!(!again.from_cache);
    }

    #[test]
    fn stylesheet_applied_detection() {
        let (mut n, mut c) = setup(Engine::Safari);
        add(
            &mut n,
            "t.com",
            HttpResponse::ok(ContentType::Stylesheet, 2_000),
        );
        let r = c.load_stylesheet(&mut n, "http://t.com/s.css", SimTime::ZERO);
        assert_eq!(r.event, LoadEvent::OnLoad);
    }

    #[test]
    fn empty_stylesheet_is_undetectable() {
        // Table 1: "Only non-empty style sheets".
        let (mut n, mut c) = setup(Engine::Safari);
        add(
            &mut n,
            "t.com",
            HttpResponse::ok(ContentType::Stylesheet, 0),
        );
        let r = c.load_stylesheet(&mut n, "http://t.com/s.css", SimTime::ZERO);
        assert_eq!(r.event, LoadEvent::OnError);
    }

    #[test]
    fn stylesheet_blockpage_not_applied() {
        let (mut n, mut c) = setup(Engine::Safari);
        add(&mut n, "t.com", HttpResponse::block_page());
        let r = c.load_stylesheet(&mut n, "http://t.com/s.css", SimTime::ZERO);
        assert_eq!(r.event, LoadEvent::OnError);
    }

    #[test]
    fn chrome_script_onload_on_any_200() {
        // The Chrome side channel: a 200 HTML page (not JS!) still fires
        // onload.
        let (mut n, mut c) = setup(Engine::Chrome);
        add(
            &mut n,
            "t.com",
            HttpResponse::ok(ContentType::Html, 20_000).with_nosniff(),
        );
        let r = c.load_script(&mut n, "http://t.com/page.html", SimTime::ZERO);
        assert_eq!(r.event, LoadEvent::OnLoad);
        assert!(!r.executed_untrusted, "nosniff + non-JS must not execute");
    }

    #[test]
    fn chrome_script_onerror_on_404() {
        let (mut n, mut c) = setup(Engine::Chrome);
        add(&mut n, "t.com", HttpResponse::not_found());
        let r = c.load_script(&mut n, "http://t.com/x.js", SimTime::ZERO);
        assert_eq!(r.event, LoadEvent::OnError);
    }

    #[test]
    fn firefox_script_executes_valid_js() {
        let (mut n, mut c) = setup(Engine::Firefox);
        add(
            &mut n,
            "t.com",
            HttpResponse::ok(ContentType::Script, 30_000),
        );
        let r = c.load_script(&mut n, "http://t.com/lib.js", SimTime::ZERO);
        assert_eq!(r.event, LoadEvent::OnLoad);
        assert!(r.executed_untrusted, "non-Chrome executed remote JS");
    }

    #[test]
    fn firefox_script_onerror_on_html_body() {
        let (mut n, mut c) = setup(Engine::Firefox);
        add(&mut n, "t.com", HttpResponse::ok(ContentType::Html, 20_000));
        let r = c.load_script(&mut n, "http://t.com/page.html", SimTime::ZERO);
        assert_eq!(r.event, LoadEvent::OnError);
        assert!(!r.executed_untrusted);
    }

    #[test]
    fn ie_respects_nosniff() {
        let (mut n, mut c) = setup(Engine::InternetExplorer);
        add(
            &mut n,
            "t.com",
            HttpResponse::ok(ContentType::Html, 20_000).with_nosniff(),
        );
        let r = c.load_script(&mut n, "http://t.com/page.html", SimTime::ZERO);
        assert_eq!(r.event, LoadEvent::OnError);
        assert!(!r.executed_untrusted);
    }

    #[test]
    fn iframe_populates_cache_with_embeds() {
        let mut n = Network::ideal(World::builtin());
        let root = SimRng::new(0xB0B);
        let mut c = BrowserClient::new(
            &mut n,
            country("US"),
            IspClass::Residential,
            Engine::Chrome,
            &root,
        );
        // Page with an embedded cacheable image.
        let page = HttpResponse::ok(ContentType::Html, 30_000)
            .no_store()
            .with_embeds(vec![netsim::http::Embedded {
                url: "http://t.com/inner.png".into(),
                kind: EmbedKind::Image,
            }]);
        struct PageHandler(HttpResponse);
        impl netsim::network::HttpHandler for PageHandler {
            fn handle(
                &self,
                req: &HttpRequest,
                _ip: std::net::Ipv4Addr,
                _now: SimTime,
            ) -> HttpResponse {
                if req.path() == "/page.html" {
                    self.0.clone()
                } else if req.path() == "/inner.png" {
                    HttpResponse::ok(ContentType::Image, 900)
                } else {
                    HttpResponse::not_found()
                }
            }
        }
        n.add_server("t.com", country("US"), Box::new(PageHandler(page)));
        let r = c.load_iframe(&mut n, "http://t.com/page.html", SimTime::ZERO);
        assert_eq!(r.subresources_fetched, 1);
        assert!(c.cache.contains("http://t.com/inner.png"));
        // The cache-timing probe now distinguishes loaded from not-loaded.
        let probe = c.load_image(&mut n, "http://t.com/inner.png", SimTime::from_secs(1));
        assert!(probe.from_cache);
        assert!(probe.elapsed < SimDuration::from_millis(50));
    }

    #[test]
    fn iframe_failure_fetches_nothing() {
        let (mut n, mut c) = setup(Engine::Chrome);
        let r = c.load_iframe(&mut n, "http://gone.example/page.html", SimTime::ZERO);
        assert_eq!(r.subresources_fetched, 0);
        assert!(c.cache.is_empty());
    }

    #[test]
    fn redirects_are_followed() {
        let (mut n, mut c) = setup(Engine::Chrome);
        add(
            &mut n,
            "real.com",
            HttpResponse::ok(ContentType::Image, 500),
        );
        add(
            &mut n,
            "alias.com",
            HttpResponse::redirect("http://real.com/i.png"),
        );
        let r = c.load_image(&mut n, "http://alias.com/old.png", SimTime::ZERO);
        assert_eq!(r.event, LoadEvent::OnLoad);
    }

    #[test]
    fn redirect_loop_errors_out() {
        let (mut n, mut c) = setup(Engine::Chrome);
        add(
            &mut n,
            "loop.com",
            HttpResponse::redirect("http://loop.com/again"),
        );
        let r = c.load_image(&mut n, "http://loop.com/start", SimTime::ZERO);
        assert_eq!(r.event, LoadEvent::OnError);
    }
}

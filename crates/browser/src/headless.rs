//! Headless rendering — the PhantomJS stand-in.
//!
//! Paper §5.2: "the Target Fetcher collects detailed information about
//! each URL by loading and rendering it in a real Web browser and
//! recording its behavior in an HTTP Archive (HAR) file. We use the
//! PhantomJS headless browser hosted on servers at Georgia Tech."
//!
//! [`BrowserClient::render_har`](crate::BrowserClient) loads a page with a fresh cache and records every fetch
//! into a [`Har`]. The headless browser should run from an *unfiltered*
//! vantage point (the paper's Georgia Tech servers); the caller chooses
//! where to host it.

use crate::client::BrowserClient;
use netsim::http::{ContentType, EmbedKind, HttpRequest};
use netsim::network::Network;
use sim_core::SimTime;
use websim::har::{Har, HarEntry};

impl BrowserClient {
    /// Render `url` and record a HAR. The cache is cleared first so the
    /// archive reflects a cold load (what a new visitor transfers).
    pub fn render_har(&mut self, net: &mut Network, url: &str, now: SimTime) -> Har {
        self.cache.clear();
        // A HAR documents what a *new visitor* transfers: cold HTTP cache,
        // cold DNS, cold connections.
        self.session.reset();
        let mut har = Har {
            page_url: url.to_string(),
            entries: Vec::new(),
            page_ok: false,
        };

        let (result, elapsed, final_url) =
            self.fetch_following_redirects_traced(net, url, None, now);
        match result {
            Ok(resp) => {
                let page_ok = resp.status.is_success() && resp.content_type == ContentType::Html;
                har.page_ok = page_ok;
                har.entries.push(HarEntry {
                    url: final_url,
                    status: resp.status.0,
                    content_type: resp.content_type,
                    body_bytes: resp.body_bytes,
                    cacheable: resp.is_cacheable(),
                    nosniff: resp.nosniff,
                    time: elapsed,
                    ok: page_ok,
                });
                if page_ok {
                    for embed in resp.embeds.clone() {
                        let req = HttpRequest::get(&embed.url).with_referer(url);
                        let out = self.fetch_once(net, &req, now + elapsed);
                        let entry = match out.result {
                            Ok(sub) => {
                                let expected = match embed.kind {
                                    EmbedKind::Image => sub.content_type == ContentType::Image,
                                    EmbedKind::Stylesheet => {
                                        sub.content_type == ContentType::Stylesheet
                                    }
                                    // Script slots also carry media blobs in
                                    // the generator; any successful body
                                    // counts as fetched.
                                    EmbedKind::Script => true,
                                };
                                HarEntry {
                                    url: embed.url.clone(),
                                    status: sub.status.0,
                                    content_type: sub.content_type,
                                    body_bytes: sub.body_bytes,
                                    cacheable: sub.is_cacheable(),
                                    nosniff: sub.nosniff,
                                    time: out.timings.total(),
                                    ok: sub.status.is_success() && sub.valid_body && expected,
                                }
                            }
                            Err(_) => HarEntry {
                                url: embed.url.clone(),
                                status: 0,
                                content_type: ContentType::Other,
                                body_bytes: 0,
                                cacheable: false,
                                nosniff: false,
                                time: out.timings.total(),
                                ok: false,
                            },
                        };
                        har.entries.push(entry);
                    }
                }
            }
            Err(_) => {
                har.entries.push(HarEntry {
                    url: url.to_string(),
                    status: 0,
                    content_type: ContentType::Other,
                    body_bytes: 0,
                    cacheable: false,
                    nosniff: false,
                    time: elapsed,
                    ok: false,
                });
            }
        }
        har
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use netsim::geo::{country, IspClass, World};
    use sim_core::SimRng;
    use websim::generator::{SyntheticWeb, WebConfig};

    fn corpus_network() -> (Network, SyntheticWeb, BrowserClient) {
        let mut rng = SimRng::new(0xAB);
        let web = SyntheticWeb::generate(&WebConfig::small(), &mut rng);
        let mut n = Network::ideal(World::builtin());
        web.install(&mut n, &mut rng);
        let root = SimRng::new(1);
        let fetcher = BrowserClient::new(
            &mut n,
            country("US"),
            IspClass::Datacenter,
            Engine::Chrome,
            &root,
        );
        (n, web, fetcher)
    }

    #[test]
    fn har_captures_page_and_embeds() {
        let (mut n, web, mut fetcher) = corpus_network();
        let site = &web.sites[0];
        let page_path = site.pages.keys().next().unwrap().clone();
        let url = site.url(&page_path);
        let har = fetcher.render_har(&mut n, &url, SimTime::ZERO);
        assert!(har.page_ok);
        let n_embeds = site.page(&page_path).unwrap().embeds.len();
        assert_eq!(har.entries.len(), 1 + n_embeds);
        assert!(har.total_bytes() > 0);
    }

    #[test]
    fn har_total_matches_ground_truth_lower_bound() {
        let (mut n, web, mut fetcher) = corpus_network();
        let site = &web.sites[1];
        let page_path = site.pages.keys().next().unwrap().clone();
        let har = fetcher.render_har(&mut n, &site.url(&page_path), SimTime::ZERO);
        // HAR includes cross-origin embeds, so it is >= the ground truth's
        // HTML plus same-site embeds.
        let page = site.page(&page_path).unwrap();
        let own = format!("http://{}", site.domain);
        let same_site: u64 = page
            .embeds
            .iter()
            .filter_map(|e| site.resource(e.url.strip_prefix(&own)?))
            .map(|r| r.bytes)
            .sum();
        let lb = page.html_bytes + same_site;
        assert!(
            har.total_bytes() >= lb,
            "har {} < lower bound {lb}",
            har.total_bytes()
        );
    }

    #[test]
    fn har_for_dead_url_records_failure() {
        let (mut n, _, mut fetcher) = corpus_network();
        let har = fetcher.render_har(&mut n, "http://offline.example/x", SimTime::ZERO);
        assert!(!har.page_ok);
        assert_eq!(har.entries.len(), 1);
        assert_eq!(har.entries[0].status, 0);
    }

    #[test]
    fn har_marks_cacheable_images() {
        let (mut n, web, mut fetcher) = corpus_network();
        // Find a page with at least one same-site cacheable image embed.
        let mut found = false;
        'outer: for site in &web.sites {
            for (path, page) in &site.pages {
                let has = page.embeds.iter().any(|e| {
                    e.kind == EmbedKind::Image
                        && e.url
                            .strip_prefix(&format!("http://{}", site.domain))
                            .and_then(|p| site.resource(p))
                            .is_some_and(|r| r.cacheable)
                });
                if has {
                    let har = fetcher.render_har(&mut n, &site.url(path), SimTime::ZERO);
                    assert!(har.cacheable_images().count() >= 1);
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "corpus should contain cacheable images");
    }
}

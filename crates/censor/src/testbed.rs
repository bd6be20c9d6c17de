//! The §7.1 Web-censorship testbed.
//!
//! > "To confirm the soundness of Encore's measurements, we built a Web
//! > censorship testbed, which has DNS, firewall, and Web server
//! > configurations that emulate seven varieties of DNS, IP, and HTTP
//! > filtering."
//!
//! Each variety gets its own virtual host under [`TESTBED_DOMAIN`]; one
//! [`CensorPolicy`] installed for *all* clients holds seven rules, each
//! pairing a variety's host (or, for the IP-level varieties, its address)
//! with that variety's [`Mechanism`]. An eighth, unfiltered control host
//! serves the same resources untouched, so a measurement task run against
//! `control.testbed…` validates the success path and the same task against
//! `dns-nxdomain.testbed…` validates failure detection.

use crate::policy::{BlockTarget, CensorPolicy, Mechanism};
use netsim::geo::country;
use netsim::http::{ContentType, HttpRequest, HttpResponse};
use netsim::network::{HttpHandler, Network};
use serde::{Deserialize, Serialize};
use sim_core::SimTime;

/// Parent domain of all testbed hosts.
pub const TESTBED_DOMAIN: &str = "testbed.encore-repro.net";

/// The seven filtering varieties plus the unfiltered control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FilterVariety {
    /// No filtering (control).
    Control,
    /// Forged NXDOMAIN.
    DnsNxDomain,
    /// Forged A record to an unroutable sinkhole.
    DnsSinkhole,
    /// DNS queries silently dropped.
    DnsDrop,
    /// All packets to the server address dropped.
    IpDrop,
    /// RST injected during the handshake.
    TcpReset,
    /// HTTP requests silently dropped.
    HttpDrop,
    /// HTTP responses replaced with a block page.
    HttpBlockPage,
}

impl FilterVariety {
    /// All varieties including the control, in a fixed order.
    pub const ALL: [FilterVariety; 8] = [
        FilterVariety::Control,
        FilterVariety::DnsNxDomain,
        FilterVariety::DnsSinkhole,
        FilterVariety::DnsDrop,
        FilterVariety::IpDrop,
        FilterVariety::TcpReset,
        FilterVariety::HttpDrop,
        FilterVariety::HttpBlockPage,
    ];

    /// Host-name label for this variety.
    pub fn slug(self) -> &'static str {
        match self {
            FilterVariety::Control => "control",
            FilterVariety::DnsNxDomain => "dns-nxdomain",
            FilterVariety::DnsSinkhole => "dns-sinkhole",
            FilterVariety::DnsDrop => "dns-drop",
            FilterVariety::IpDrop => "ip-drop",
            FilterVariety::TcpReset => "tcp-reset",
            FilterVariety::HttpDrop => "http-drop",
            FilterVariety::HttpBlockPage => "http-blockpage",
        }
    }

    /// Fully-qualified host name of this variety's virtual host.
    pub fn hostname(self) -> String {
        format!("{}.{}", self.slug(), TESTBED_DOMAIN)
    }

    /// Parse a hostname back to a variety.
    pub fn from_hostname(host: &str) -> Option<FilterVariety> {
        let suffix = format!(".{TESTBED_DOMAIN}");
        let slug = host.strip_suffix(&suffix)?;
        FilterVariety::ALL.into_iter().find(|v| v.slug() == slug)
    }

    /// Whether this variety should make a correctly functioning
    /// measurement task report failure.
    pub fn expect_filtered(self) -> bool {
        self != FilterVariety::Control
    }
}

/// Serves the testbed's measurement resources (same content on every
/// virtual host).
pub struct TestbedHandler;

impl HttpHandler for TestbedHandler {
    fn handle(
        &self,
        req: &HttpRequest,
        _client_ip: std::net::Ipv4Addr,
        _now: SimTime,
    ) -> HttpResponse {
        match req.path() {
            // A favicon-sized image — the paper's canonical image-task
            // target ("typically 16×16 pixels").
            "/favicon.ico" => HttpResponse::ok(ContentType::Image, 400),
            // A one-pixel image for cache-timing probes.
            "/pixel.png" => HttpResponse::ok(ContentType::Image, 68),
            // A small stylesheet whose effect the style task can verify.
            "/style.css" => HttpResponse::ok(ContentType::Stylesheet, 1_800),
            // A script library with strict MIME typing (nosniff), per
            // §4.3.2's safety requirement for the script task.
            "/script.js" => HttpResponse::ok(ContentType::Script, 28_000).with_nosniff(),
            // A small page embedding a cacheable image, for the iframe
            // task (kept under the 100 KB prototype limit of §5.2).
            "/page.html" => {
                let host = req
                    .host()
                    .unwrap_or(std::borrow::Cow::Borrowed(TESTBED_DOMAIN));
                HttpResponse::ok(ContentType::Html, 38_000)
                    .no_store()
                    .with_embeds(vec![netsim::http::Embedded {
                        url: format!("http://{host}/embedded.png"),
                        kind: netsim::http::EmbedKind::Image,
                    }])
            }
            "/embedded.png" => HttpResponse::ok(ContentType::Image, 4_200),
            _ => HttpResponse::not_found(),
        }
    }
}

/// Handle to an installed testbed: the URLs of its resources.
#[derive(Debug, Clone)]
pub struct Testbed;

impl Testbed {
    /// Install the testbed into a network: one virtual host per variety
    /// (each with its own address), the shared resource handler, and the
    /// filtering policy.
    pub fn install(network: &mut Network) -> Testbed {
        // Georgia Tech hosts the servers in the paper.
        let server_country = country("US");
        let mut addresses = Vec::new();

        for variety in FilterVariety::ALL {
            let host = network.add_server(
                &variety.hostname(),
                server_country,
                Box::new(TestbedHandler),
            );
            addresses.push((variety, host.ip));
        }

        // Sinkhole: an address where nothing listens.
        let sinkhole = network.allocator.allocate(server_country);

        // IP-level varieties can't see host names; each variety has its
        // own address, so those rules key on it, exactly like a real
        // null-route.
        let mut policy = CensorPolicy::named("testbed-filter");
        for &(variety, ip) in &addresses {
            let host = BlockTarget::Domain(variety.hostname());
            let (target, mechanism) = match variety {
                FilterVariety::Control => continue,
                FilterVariety::DnsNxDomain => (host, Mechanism::DnsNxDomain),
                FilterVariety::DnsSinkhole => (host, Mechanism::DnsRedirect(sinkhole)),
                FilterVariety::DnsDrop => (host, Mechanism::DnsDrop),
                FilterVariety::IpDrop => (BlockTarget::Ip(ip), Mechanism::IpDrop),
                FilterVariety::TcpReset => (BlockTarget::Ip(ip), Mechanism::TcpReset),
                FilterVariety::HttpDrop => (host, Mechanism::HttpDrop),
                FilterVariety::HttpBlockPage => (host, Mechanism::HttpBlockPage),
            };
            policy = policy.with_rule(target, mechanism);
        }
        network.add_middlebox(Box::new(policy));
        Testbed
    }

    /// URL of the favicon resource on a variety's host.
    pub fn favicon_url(&self, v: FilterVariety) -> String {
        format!("http://{}/favicon.ico", v.hostname())
    }

    /// URL of the page resource on a variety's host.
    pub fn page_url(&self, v: FilterVariety) -> String {
        format!("http://{}/page.html", v.hostname())
    }

    /// URL of the stylesheet on a variety's host.
    pub fn style_url(&self, v: FilterVariety) -> String {
        format!("http://{}/style.css", v.hostname())
    }

    /// URL of the script on a variety's host.
    pub fn script_url(&self, v: FilterVariety) -> String {
        format!("http://{}/script.js", v.hostname())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geo::{IspClass, World};
    use netsim::network::FetchError;
    use sim_core::SimRng;

    fn testbed_network() -> (Network, Testbed) {
        let mut n = Network::ideal(World::builtin());
        let tb = Testbed::install(&mut n);
        (n, tb)
    }

    #[test]
    fn hostname_roundtrip() {
        for v in FilterVariety::ALL {
            assert_eq!(FilterVariety::from_hostname(&v.hostname()), Some(v));
        }
        assert_eq!(FilterVariety::from_hostname("example.com"), None);
        assert_eq!(
            FilterVariety::from_hostname(&format!("bogus.{TESTBED_DOMAIN}")),
            None
        );
    }

    #[test]
    fn seven_filtering_varieties() {
        assert_eq!(
            FilterVariety::ALL
                .into_iter()
                .filter(|v| v.expect_filtered())
                .count(),
            7
        );
        assert!(!FilterVariety::Control.expect_filtered());
        assert!(FilterVariety::DnsDrop.expect_filtered());
    }

    #[test]
    fn control_host_serves_all_resources() {
        let (mut n, tb) = testbed_network();
        let client = n.add_client(country("DE"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        for (url, ctype) in [
            (tb.favicon_url(FilterVariety::Control), ContentType::Image),
            (
                tb.style_url(FilterVariety::Control),
                ContentType::Stylesheet,
            ),
            (tb.script_url(FilterVariety::Control), ContentType::Script),
            (tb.page_url(FilterVariety::Control), ContentType::Html),
        ] {
            let out = n.fetch(&client, &HttpRequest::get(&url), SimTime::ZERO, &mut rng);
            let resp = out.result.unwrap_or_else(|e| panic!("{url}: {e:?}"));
            assert_eq!(resp.content_type, ctype, "{url}");
        }
    }

    #[test]
    fn every_filtering_variety_observably_fails() {
        let (mut n, tb) = testbed_network();
        let client = n.add_client(country("DE"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        for v in FilterVariety::ALL
            .into_iter()
            .filter(|v| v.expect_filtered())
        {
            let url = tb.favicon_url(v);
            let out = n.fetch(&client, &HttpRequest::get(&url), SimTime::ZERO, &mut rng);
            let failed = match &out.result {
                Err(_) => true,
                Ok(resp) => resp.content_type != ContentType::Image,
            };
            assert!(failed, "{v:?} should observably fail");
        }
    }

    #[test]
    fn varieties_produce_distinct_error_signatures() {
        let (mut n, tb) = testbed_network();
        let client = n.add_client(country("DE"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let get = |n: &mut Network, v: FilterVariety, rng: &mut SimRng| {
            n.fetch(
                &client,
                &HttpRequest::get(tb.favicon_url(v)),
                SimTime::ZERO,
                rng,
            )
        };
        assert_eq!(
            get(&mut n, FilterVariety::DnsNxDomain, &mut rng).result,
            Err(FetchError::DnsNxDomain)
        );
        assert_eq!(
            get(&mut n, FilterVariety::DnsDrop, &mut rng).result,
            Err(FetchError::DnsTimeout)
        );
        assert_eq!(
            get(&mut n, FilterVariety::DnsSinkhole, &mut rng).result,
            Err(FetchError::ConnectTimeout)
        );
        assert_eq!(
            get(&mut n, FilterVariety::IpDrop, &mut rng).result,
            Err(FetchError::ConnectTimeout)
        );
        assert_eq!(
            get(&mut n, FilterVariety::TcpReset, &mut rng).result,
            Err(FetchError::ConnectionReset)
        );
        assert_eq!(
            get(&mut n, FilterVariety::HttpDrop, &mut rng).result,
            Err(FetchError::ResponseTimeout)
        );
        let bp = get(&mut n, FilterVariety::HttpBlockPage, &mut rng);
        assert_eq!(bp.result.unwrap().content_type, ContentType::Html);
    }

    #[test]
    fn unknown_path_is_404() {
        let (mut n, tb) = testbed_network();
        let client = n.add_client(country("DE"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let url = format!("http://{}/nope", FilterVariety::Control.hostname());
        let _ = tb;
        let out = n.fetch(&client, &HttpRequest::get(&url), SimTime::ZERO, &mut rng);
        assert_eq!(
            out.result.unwrap().status,
            netsim::http::StatusCode::NOT_FOUND
        );
    }

    #[test]
    fn testbed_does_not_affect_other_domains() {
        let (mut n, _tb) = testbed_network();
        n.add_server(
            "unrelated.com",
            country("US"),
            Box::new(netsim::network::ConstHandler(HttpResponse::ok(
                ContentType::Image,
                300,
            ))),
        );
        let client = n.add_client(country("DE"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let out = n.fetch(
            &client,
            &HttpRequest::get("http://unrelated.com/a.png"),
            SimTime::ZERO,
            &mut rng,
        );
        assert!(out.result.is_ok());
    }
}

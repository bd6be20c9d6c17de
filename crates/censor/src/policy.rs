//! Censorship policies: what to filter and how.
//!
//! A [`CensorPolicy`] is an ordered list of [`Rule`]s. Each rule pairs a
//! [`BlockTarget`] (the *what*: domain, URL prefix, exact URL, keyword, or
//! IP) with a [`Mechanism`] (the *how*: which of §3.1's interference
//! techniques to apply). The first matching rule wins, mirroring how real
//! filtering appliances evaluate blacklists.
//!
//! A policy is also the one implementation of filtering: it is a
//! [`Middlebox`] on every client's path, enforcing its rules at all four
//! stages. [`crate::national::NationalCensor`] scopes one to a country,
//! and the §7.1 testbed installs one for everybody.

use netsim::host::Host;
use netsim::http::{host_of, HttpRequest, HttpResponse};
use netsim::middlebox::{DnsAction, HttpAction, Middlebox, StageContext, TcpAction};
use netsim::tcp::TcpAttempt;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// What a rule matches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockTarget {
    /// A DNS domain, including all subdomains (`youtube.com` matches
    /// `www.youtube.com`).
    Domain(String),
    /// All URLs beginning with this prefix (scheme-less compare; paper
    /// §5.1's "URL prefix" pattern).
    UrlPrefix(String),
    /// One exact URL (a single blog post, §4.3.2).
    UrlExact(String),
    /// A keyword appearing in the URL or in response content.
    Keyword(String),
    /// A specific server address (IP-based blocking).
    Ip(Ipv4Addr),
}

impl BlockTarget {
    /// Whether this target matches a DNS name.
    pub fn matches_host(&self, host: &str) -> bool {
        match self {
            BlockTarget::Domain(d) => {
                let d = d.to_ascii_lowercase();
                let host = host.to_ascii_lowercase();
                host == d || host.ends_with(&format!(".{d}"))
            }
            BlockTarget::Keyword(k) => host.to_ascii_lowercase().contains(&k.to_ascii_lowercase()),
            _ => false,
        }
    }

    /// Whether this target matches a full URL.
    pub fn matches_url(&self, url: &str) -> bool {
        let norm = normalize(url);
        match self {
            BlockTarget::Domain(_) => host_of(url).is_some_and(|h| self.matches_host(&h)),
            BlockTarget::UrlPrefix(p) => norm.starts_with(&normalize(p)),
            BlockTarget::UrlExact(e) => norm == normalize(e),
            BlockTarget::Keyword(k) => norm.contains(&k.to_ascii_lowercase()),
            BlockTarget::Ip(_) => false,
        }
    }

    /// Whether this target matches a server IP.
    pub fn matches_ip(&self, ip: Ipv4Addr) -> bool {
        matches!(self, BlockTarget::Ip(i) if *i == ip)
    }

    /// Whether this target matches response content (keyword rules only).
    pub fn matches_content(&self, resp: &HttpResponse) -> bool {
        match self {
            BlockTarget::Keyword(k) => {
                let k = k.to_ascii_lowercase();
                resp.keywords.iter().any(|w| w.to_ascii_lowercase() == k)
            }
            _ => false,
        }
    }
}

/// Strip scheme and lower-case for URL comparison.
fn normalize(url: &str) -> String {
    url.trim()
        .strip_prefix("http://")
        .or_else(|| url.trim().strip_prefix("https://"))
        .or_else(|| url.trim().strip_prefix("//"))
        .unwrap_or(url.trim())
        .to_ascii_lowercase()
}

/// How a censor interferes once a rule matches (paper §3.1's menu).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Mechanism {
    /// Forge NXDOMAIN at the resolver.
    DnsNxDomain,
    /// Forge an A record pointing at this address (block-page server or
    /// unroutable sinkhole).
    DnsRedirect(Ipv4Addr),
    /// Silently drop DNS queries.
    DnsDrop,
    /// Drop all packets to the destination address (firewall null-route).
    IpDrop,
    /// Inject TCP RSTs during the handshake.
    TcpReset,
    /// Drop the HTTP request after inspecting it.
    HttpDrop,
    /// Reset the connection on seeing the HTTP request (GFW-style).
    HttpReset,
    /// Serve an explanatory block page instead of the content.
    HttpBlockPage,
    /// 302-redirect the browser to a block-page URL.
    HttpRedirect(String),
    /// "Subtle" filtering: drop each exchange with this probability,
    /// degrading rather than denying service. The paper (§1) notes such
    /// filtering "can be indistinguishable from application errors or poor
    /// performance" — the soundness experiments use this mechanism to show
    /// Encore's detector needs many samples to see it.
    Throttle {
        /// Per-exchange drop probability in [0, 1].
        drop_probability: f64,
    },
}

impl Mechanism {
    /// Whether this mechanism acts at the DNS stage.
    pub fn is_dns(&self) -> bool {
        matches!(
            self,
            Mechanism::DnsNxDomain | Mechanism::DnsRedirect(_) | Mechanism::DnsDrop
        )
    }

    /// Whether this mechanism acts at the TCP/IP stage.
    pub fn is_tcp(&self) -> bool {
        matches!(self, Mechanism::IpDrop | Mechanism::TcpReset)
    }

    /// Whether this mechanism acts at the HTTP stage.
    pub fn is_http(&self) -> bool {
        matches!(
            self,
            Mechanism::HttpDrop
                | Mechanism::HttpReset
                | Mechanism::HttpBlockPage
                | Mechanism::HttpRedirect(_)
                | Mechanism::Throttle { .. }
        )
    }
}

/// One blacklist entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// What to match.
    pub target: BlockTarget,
    /// What to do on match.
    pub mechanism: Mechanism,
}

impl Rule {
    /// Construct a rule.
    pub fn new(target: BlockTarget, mechanism: Mechanism) -> Rule {
        Rule { target, mechanism }
    }
}

/// An ordered blacklist (first match wins).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CensorPolicy {
    /// Diagnostic name, e.g. `"great-firewall"`.
    pub name: String,
    /// The rules.
    pub rules: Vec<Rule>,
}

impl CensorPolicy {
    /// An empty (non-filtering) policy.
    pub fn named(name: impl Into<String>) -> CensorPolicy {
        CensorPolicy {
            name: name.into(),
            rules: Vec::new(),
        }
    }

    /// Builder: append a rule.
    pub fn with_rule(mut self, target: BlockTarget, mechanism: Mechanism) -> CensorPolicy {
        self.rules.push(Rule::new(target, mechanism));
        self
    }

    /// Builder: block an entire domain with the given mechanism.
    pub fn block_domain(self, domain: &str, mechanism: Mechanism) -> CensorPolicy {
        self.with_rule(BlockTarget::Domain(domain.to_string()), mechanism)
    }

    /// First rule whose target matches the DNS name, considering only
    /// DNS-stage mechanisms.
    pub fn match_dns(&self, host: &str) -> Option<&Rule> {
        self.rules
            .iter()
            .find(|r| r.mechanism.is_dns() && r.target.matches_host(host))
    }

    /// First rule whose target matches the destination IP, considering
    /// only TCP-stage mechanisms. Domain rules require the caller to have
    /// pre-resolved them — see
    /// [`crate::national::NationalCensor::resolve_ip_rules`].
    pub fn match_tcp(&self, ip: Ipv4Addr) -> Option<&Rule> {
        self.rules
            .iter()
            .find(|r| r.mechanism.is_tcp() && r.target.matches_ip(ip))
    }

    /// First rule matching an outgoing HTTP request (HTTP-stage
    /// mechanisms; domain, prefix, exact and keyword targets all apply to
    /// the URL).
    pub fn match_http_request(&self, req: &HttpRequest) -> Option<&Rule> {
        self.rules
            .iter()
            .find(|r| r.mechanism.is_http() && r.target.matches_url(&req.url))
    }

    /// First rule matching response content (keyword rules).
    pub fn match_http_response(&self, resp: &HttpResponse) -> Option<&Rule> {
        self.rules
            .iter()
            .find(|r| r.mechanism.is_http() && r.target.matches_content(resp))
    }
}

/// Deterministic pseudo-random unit value from a URL and a timestamp:
/// used by [`Mechanism::Throttle`] so the censor's probabilistic drops are
/// reproducible without threading an RNG through the middlebox trait.
/// (The `adaptive` module has its own draw with a stronger finalizer —
/// this one is only well-distributed when the URL varies per request.)
pub(crate) fn throttle_draw(url: &str, now_micros: u64) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in url.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= now_micros;
    h = h.wrapping_mul(0x0000_0100_0000_01B3);
    // Map the top 53 bits to [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn http_action_for(mechanism: &Mechanism, url: &str, now_micros: u64) -> HttpAction {
    match mechanism {
        Mechanism::HttpDrop => HttpAction::Drop,
        Mechanism::HttpReset => HttpAction::Reset,
        Mechanism::HttpBlockPage => HttpAction::BlockPage,
        Mechanism::HttpRedirect(loc) => HttpAction::RedirectTo(loc.clone()),
        Mechanism::Throttle { drop_probability } => {
            if throttle_draw(url, now_micros) < *drop_probability {
                HttpAction::Drop
            } else {
                HttpAction::Pass
            }
        }
        _ => HttpAction::Pass,
    }
}

/// A policy on its own filters every client; scope it with
/// [`crate::national::NationalCensor`].
impl Middlebox for CensorPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn applies_to(&self, _client: &Host) -> bool {
        true
    }

    fn on_dns(&self, name: &str, _ctx: &StageContext<'_>) -> DnsAction {
        match self.match_dns(name).map(|r| &r.mechanism) {
            Some(Mechanism::DnsNxDomain) => DnsAction::NxDomain,
            Some(Mechanism::DnsRedirect(ip)) => DnsAction::Redirect(*ip),
            Some(Mechanism::DnsDrop) => DnsAction::Drop,
            _ => DnsAction::Pass,
        }
    }

    fn dns_verdict_is_pure(&self) -> bool {
        // Rules are immutable and there is no control-signal state.
        true
    }

    fn on_tcp(&self, attempt: &TcpAttempt, _ctx: &StageContext<'_>) -> TcpAction {
        match self.match_tcp(attempt.dst).map(|r| &r.mechanism) {
            Some(Mechanism::IpDrop) => TcpAction::Drop,
            Some(Mechanism::TcpReset) => TcpAction::Reset,
            _ => TcpAction::Pass,
        }
    }

    fn on_http_request(&self, req: &HttpRequest, ctx: &StageContext<'_>) -> HttpAction {
        match self.match_http_request(req) {
            Some(rule) => http_action_for(&rule.mechanism, &req.url, ctx.now.as_micros()),
            None => HttpAction::Pass,
        }
    }

    fn on_http_response(
        &self,
        req: &HttpRequest,
        resp: &HttpResponse,
        ctx: &StageContext<'_>,
    ) -> HttpAction {
        match self.match_http_response(resp) {
            Some(rule) => http_action_for(&rule.mechanism, &req.url, ctx.now.as_micros()),
            None => HttpAction::Pass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::http::ContentType;

    #[test]
    fn domain_matches_subdomains() {
        let t = BlockTarget::Domain("youtube.com".into());
        assert!(t.matches_host("youtube.com"));
        assert!(t.matches_host("www.youtube.com"));
        assert!(t.matches_host("WWW.YOUTUBE.COM"));
        assert!(!t.matches_host("notyoutube.com"));
        assert!(!t.matches_host("youtube.com.evil.net"));
    }

    #[test]
    fn domain_matches_urls_via_host() {
        let t = BlockTarget::Domain("youtube.com".into());
        assert!(t.matches_url("http://www.youtube.com/watch?v=x"));
        assert!(!t.matches_url("http://example.com/youtube.com"));
    }

    #[test]
    fn url_prefix_matching_ignores_scheme_and_case() {
        let t = BlockTarget::UrlPrefix("http://blog.example/politics/".into());
        assert!(t.matches_url("http://blog.example/politics/post-1"));
        assert!(t.matches_url("https://BLOG.example/politics/post-2"));
        assert!(!t.matches_url("http://blog.example/sports/post-1"));
    }

    #[test]
    fn url_exact_matching() {
        let t = BlockTarget::UrlExact("http://blog.example/post".into());
        assert!(t.matches_url("http://blog.example/post"));
        assert!(!t.matches_url("http://blog.example/post2"));
    }

    #[test]
    fn keyword_matches_url_and_content() {
        let t = BlockTarget::Keyword("falungong".into());
        assert!(t.matches_url("http://example.com/falungong-news"));
        let mut resp = HttpResponse::ok(ContentType::Html, 100);
        resp.keywords = vec!["FalunGong".into()];
        assert!(t.matches_content(&resp));
        let clean = HttpResponse::ok(ContentType::Html, 100);
        assert!(!t.matches_content(&clean));
    }

    #[test]
    fn ip_target_only_matches_ip() {
        let ip = Ipv4Addr::new(100, 1, 2, 3);
        let t = BlockTarget::Ip(ip);
        assert!(t.matches_ip(ip));
        assert!(!t.matches_ip(Ipv4Addr::new(100, 1, 2, 4)));
        assert!(!t.matches_url("http://100.1.2.3/"));
        assert!(!t.matches_host("example.com"));
    }

    #[test]
    fn mechanism_stage_partition() {
        let all = [
            Mechanism::DnsNxDomain,
            Mechanism::DnsRedirect(Ipv4Addr::UNSPECIFIED),
            Mechanism::DnsDrop,
            Mechanism::IpDrop,
            Mechanism::TcpReset,
            Mechanism::HttpDrop,
            Mechanism::HttpReset,
            Mechanism::HttpBlockPage,
            Mechanism::HttpRedirect("http://block/".into()),
            Mechanism::Throttle {
                drop_probability: 0.5,
            },
        ];
        for m in &all {
            let stages = [m.is_dns(), m.is_tcp(), m.is_http()];
            assert_eq!(
                stages.iter().filter(|b| **b).count(),
                1,
                "{m:?} must belong to exactly one stage"
            );
        }
    }

    #[test]
    fn first_match_wins() {
        let p = CensorPolicy::named("test")
            .block_domain("x.com", Mechanism::DnsNxDomain)
            .block_domain("x.com", Mechanism::DnsDrop);
        let r = p.match_dns("x.com").unwrap();
        assert_eq!(r.mechanism, Mechanism::DnsNxDomain);
    }

    #[test]
    fn stages_do_not_cross_match() {
        let p = CensorPolicy::named("test").block_domain("x.com", Mechanism::HttpBlockPage);
        // An HTTP-stage rule must not fire at the DNS stage.
        assert!(p.match_dns("x.com").is_none());
        assert!(p
            .match_http_request(&HttpRequest::get("http://x.com/page"))
            .is_some());
    }

    #[test]
    fn empty_policy_matches_nothing() {
        let p = CensorPolicy::named("empty");
        assert!(p.match_dns("x.com").is_none());
        assert!(p.match_tcp(Ipv4Addr::new(1, 2, 3, 4)).is_none());
        assert!(p
            .match_http_request(&HttpRequest::get("http://x.com/"))
            .is_none());
    }

    #[test]
    fn targets_host_covers_all_stages() {
        // A domain rule names its hosts whatever stage its mechanism acts
        // at.
        let p = CensorPolicy::named("t").block_domain("y.com", Mechanism::TcpReset);
        let targets = |host: &str| p.rules.iter().any(|r| r.target.matches_host(host));
        assert!(targets("y.com"));
        assert!(targets("www.y.com"));
        assert!(!targets("z.com"));
    }
}

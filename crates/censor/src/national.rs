//! National censors: a policy applied at a country's border.
//!
//! A [`NationalCensor`] is a [`Middlebox`] that scopes one
//! [`CensorPolicy`] to every client located in its country —
//! modelling both "centralized traffic filters on a national backbone" and
//! the aggregate behaviour of per-ISP filtering (paper §3.1). Optionally
//! the censor only covers a subset of access-network classes, modelling
//! the paper's §2 observation that "residential and mobile broadband
//! networks can face much different censorship practices than academic and
//! research networks". What happens at each stage is the policy's own
//! verdict; the censor only decides whose traffic it sees.

use crate::policy::{BlockTarget, CensorPolicy, Rule};
use netsim::dns::DnsSystem;
use netsim::geo::{CountryCode, IspClass};
use netsim::host::Host;
use netsim::http::{HttpRequest, HttpResponse};
use netsim::middlebox::{DnsAction, HttpAction, Middlebox, StageContext, TcpAction};
use netsim::tcp::TcpAttempt;

/// A censor enforcing a policy on one country's clients.
pub struct NationalCensor {
    country: CountryCode,
    policy: CensorPolicy,
    /// `None` = all access networks; `Some(classes)` = only those classes
    /// are filtered (e.g. residential+mobile but not academic).
    covered_isps: Option<Vec<IspClass>>,
}

impl NationalCensor {
    /// Censor covering every client in `country`.
    pub fn new(country: CountryCode, policy: CensorPolicy) -> NationalCensor {
        NationalCensor {
            country,
            policy,
            covered_isps: None,
        }
    }

    /// Restrict coverage to specific access-network classes.
    pub fn covering(mut self, isps: Vec<IspClass>) -> NationalCensor {
        self.covered_isps = Some(isps);
        self
    }

    /// Expand `Domain` rules carrying TCP-stage mechanisms into concrete
    /// `Ip` rules using the authoritative DNS database. Real firewalls
    /// null-route addresses, not names; this models the censor doing its
    /// own resolution when compiling its blacklist.
    pub fn resolve_ip_rules(&mut self, dns: &DnsSystem) {
        let mut extra = Vec::new();
        for rule in &self.policy.rules {
            if rule.mechanism.is_tcp() {
                if let BlockTarget::Domain(d) = &rule.target {
                    if let Some(answer) = dns.authoritative(d) {
                        extra.push(Rule::new(
                            BlockTarget::Ip(answer.ip),
                            rule.mechanism.clone(),
                        ));
                    }
                    // Also resolve the common www. subdomain.
                    if let Some(answer) = dns.authoritative(&format!("www.{d}")) {
                        extra.push(Rule::new(
                            BlockTarget::Ip(answer.ip),
                            rule.mechanism.clone(),
                        ));
                    }
                }
            }
        }
        self.policy.rules.extend(extra);
    }
}

/// Scoping only: every stage is the policy's own verdict.
impl Middlebox for NationalCensor {
    fn name(&self) -> &str {
        &self.policy.name
    }

    fn applies_to(&self, client: &Host) -> bool {
        client.country == self.country
            && self
                .covered_isps
                .as_ref()
                .is_none_or(|isps| isps.contains(&client.isp))
    }

    fn on_dns(&self, name: &str, ctx: &StageContext<'_>) -> DnsAction {
        self.policy.on_dns(name, ctx)
    }

    fn dns_verdict_is_pure(&self) -> bool {
        self.policy.dns_verdict_is_pure()
    }

    fn on_tcp(&self, attempt: &TcpAttempt, ctx: &StageContext<'_>) -> TcpAction {
        self.policy.on_tcp(attempt, ctx)
    }

    fn on_http_request(&self, req: &HttpRequest, ctx: &StageContext<'_>) -> HttpAction {
        self.policy.on_http_request(req, ctx)
    }

    fn on_http_response(
        &self,
        req: &HttpRequest,
        resp: &HttpResponse,
        ctx: &StageContext<'_>,
    ) -> HttpAction {
        self.policy.on_http_response(req, resp, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Mechanism;
    use netsim::geo::{country, World};
    use netsim::http::ContentType;
    use netsim::network::{ConstHandler, FetchError, Network};
    use sim_core::{SimRng, SimTime};

    fn img_server(n: &mut Network, name: &str) {
        n.add_server(
            name,
            country("US"),
            Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 400))),
        );
    }

    #[test]
    fn censor_applies_only_to_its_country() {
        let mut n = Network::ideal(World::builtin());
        img_server(&mut n, "youtube.com");
        let policy = CensorPolicy::named("pta").block_domain("youtube.com", Mechanism::DnsNxDomain);
        n.add_middlebox(Box::new(NationalCensor::new(country("PK"), policy)));
        let pk = n.add_client(country("PK"), IspClass::Residential);
        let us = n.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let req = HttpRequest::get("http://youtube.com/favicon.ico");
        assert_eq!(
            n.fetch(&pk, &req, SimTime::ZERO, &mut rng).result,
            Err(FetchError::DnsNxDomain)
        );
        assert!(n.fetch(&us, &req, SimTime::ZERO, &mut rng).result.is_ok());
    }

    #[test]
    fn isp_coverage_exempts_academic_networks() {
        let mut n = Network::ideal(World::builtin());
        img_server(&mut n, "blocked.com");
        let policy =
            CensorPolicy::named("isp-level").block_domain("blocked.com", Mechanism::DnsNxDomain);
        let censor = NationalCensor::new(country("IN"), policy)
            .covering(vec![IspClass::Residential, IspClass::Mobile]);
        n.add_middlebox(Box::new(censor));
        let res = n.add_client(country("IN"), IspClass::Residential);
        let aca = n.add_client(country("IN"), IspClass::Academic);
        let mut rng = SimRng::new(1);
        let req = HttpRequest::get("http://blocked.com/x.png");
        assert!(n.fetch(&res, &req, SimTime::ZERO, &mut rng).result.is_err());
        assert!(n.fetch(&aca, &req, SimTime::ZERO, &mut rng).result.is_ok());
    }

    #[test]
    fn resolve_ip_rules_enables_ip_blocking() {
        let mut n = Network::ideal(World::builtin());
        img_server(&mut n, "blocked.com");
        let policy = CensorPolicy::named("fw").block_domain("blocked.com", Mechanism::IpDrop);
        let mut censor = NationalCensor::new(country("CN"), policy);
        censor.resolve_ip_rules(&n.dns);
        n.add_middlebox(Box::new(censor));
        let cn = n.add_client(country("CN"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let out = n.fetch(
            &cn,
            &HttpRequest::get("http://blocked.com/x.png"),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(out.result, Err(FetchError::ConnectTimeout));
    }

    #[test]
    fn without_resolution_domain_tcp_rules_are_inert() {
        let mut n = Network::ideal(World::builtin());
        img_server(&mut n, "blocked.com");
        let policy = CensorPolicy::named("fw").block_domain("blocked.com", Mechanism::IpDrop);
        n.add_middlebox(Box::new(NationalCensor::new(country("CN"), policy)));
        let cn = n.add_client(country("CN"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let out = n.fetch(
            &cn,
            &HttpRequest::get("http://blocked.com/x.png"),
            SimTime::ZERO,
            &mut rng,
        );
        assert!(out.result.is_ok(), "unresolved domain+IpDrop cannot fire");
    }

    #[test]
    fn http_block_page_mechanism() {
        let mut n = Network::ideal(World::builtin());
        img_server(&mut n, "banned.com");
        let policy = CensorPolicy::named("bp").block_domain("banned.com", Mechanism::HttpBlockPage);
        n.add_middlebox(Box::new(NationalCensor::new(country("SA"), policy)));
        let sa = n.add_client(country("SA"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let out = n.fetch(
            &sa,
            &HttpRequest::get("http://banned.com/pic.png"),
            SimTime::ZERO,
            &mut rng,
        );
        let resp = out.result.unwrap();
        assert_eq!(resp.content_type, ContentType::Html);
        assert!(!resp.valid_body || resp.content_type != ContentType::Image);
    }

    #[test]
    fn throttle_drops_roughly_at_rate() {
        let policy = CensorPolicy::named("throttle").with_rule(
            BlockTarget::Domain("slow.com".into()),
            Mechanism::Throttle {
                drop_probability: 0.5,
            },
        );
        let censor = NationalCensor::new(country("IR"), policy);
        let mut n = Network::ideal(World::builtin());
        img_server(&mut n, "slow.com");
        let client = n.add_client(country("IR"), IspClass::Residential);
        let ctx_host = client.clone();
        let mut drops = 0;
        for i in 0..1_000u64 {
            let ctx = StageContext {
                client: &ctx_host,
                now: SimTime::from_micros(i * 1_017),
            };
            let req = HttpRequest::get(format!("http://slow.com/r{i}.png"));
            if censor.on_http_request(&req, &ctx) == HttpAction::Drop {
                drops += 1;
            }
        }
        assert!((380..620).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn throttle_is_deterministic() {
        use crate::policy::throttle_draw;
        let a = throttle_draw("http://x.com/a", 123);
        let b = throttle_draw("http://x.com/a", 123);
        assert_eq!(a, b);
        assert_ne!(a, throttle_draw("http://x.com/a", 124));
        assert!((0.0..1.0).contains(&a));
    }

    #[test]
    fn keyword_response_censorship_through_network() {
        let mut n = Network::ideal(World::builtin());
        let mut resp = HttpResponse::ok(ContentType::Html, 5_000);
        resp.keywords = vec!["protest".to_string()];
        n.add_server("news.com", country("US"), Box::new(ConstHandler(resp)));
        let policy = CensorPolicy::named("kw")
            .with_rule(BlockTarget::Keyword("protest".into()), Mechanism::HttpReset);
        n.add_middlebox(Box::new(NationalCensor::new(country("CN"), policy)));
        let cn = n.add_client(country("CN"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let out = n.fetch(
            &cn,
            &HttpRequest::get("http://news.com/article"),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(out.result, Err(FetchError::ConnectionReset));
    }
}

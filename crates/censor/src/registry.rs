//! Ready-made world censorship scenarios.
//!
//! §7.2 of the paper verifies Encore against "well-known censorship of
//! youtube.com in Pakistan, Iran, and China, and of twitter.com and
//! facebook.com in China and Iran". [`world_censors`] describes national
//! censors implementing exactly that ground truth (each with the
//! mechanism that country actually used circa 2014), and [`ground_truth`]
//! exposes the same facts to the experiment harness so detection output
//! can be scored.

use crate::policy::{CensorPolicy, Mechanism};
use crate::timeline::CensorSpec;
use netsim::geo::{country, CountryCode};
use netsim::network::Network;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// The three high-profile targets the paper restricted its §7.2
/// measurements to, "because measuring Web filtering may place some users
/// at risk … These sites pose little additional risk to users because
/// browsers already routinely contact them via cross-origin requests".
pub const SAFE_TARGETS: [&str; 3] = ["facebook.com", "youtube.com", "twitter.com"];

/// One ground-truth fact: `domain` is filtered in `country`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Filtered domain.
    pub domain: String,
    /// Country in which it is filtered.
    pub country: CountryCode,
    /// Short description of the mechanism, for reports.
    pub mechanism: String,
}

/// The paper's §7.2 ground truth.
pub fn ground_truth() -> Vec<GroundTruth> {
    let fact = |domain: &str, c: &str, m: &str| GroundTruth {
        domain: domain.to_string(),
        country: country(c),
        mechanism: m.to_string(),
    };
    vec![
        // YouTube: Pakistan (2012–2016 DNS/IP block), Iran, China.
        fact("youtube.com", "PK", "dns-redirect"),
        fact("youtube.com", "IR", "http-blockpage"),
        fact("youtube.com", "CN", "dns-poison+tcp-reset"),
        // Twitter and Facebook: China and Iran.
        fact("twitter.com", "CN", "dns-poison+tcp-reset"),
        fact("twitter.com", "IR", "http-blockpage"),
        fact("facebook.com", "CN", "dns-poison+tcp-reset"),
        fact("facebook.com", "IR", "http-blockpage"),
    ]
}

/// Address of Pakistan's block-page sinkhole (PTCL redirected blocked
/// domains to a local address that serves nothing useful).
const PK_SINKHOLE: Ipv4Addr = Ipv4Addr::new(10, 10, 34, 34);

/// Build the Great Firewall policy: forged DNS plus RST injection for the
/// blocked trio (defence in depth, as measured by Crandall/Clayton et al.).
pub fn great_firewall() -> CensorPolicy {
    let mut p = CensorPolicy::named("great-firewall");
    for d in ["youtube.com", "twitter.com", "facebook.com"] {
        p = p
            .block_domain(d, Mechanism::DnsRedirect(Ipv4Addr::new(10, 66, 0, 1)))
            .block_domain(d, Mechanism::TcpReset);
    }
    p
}

/// Iran's filtering: HTTP-level block pages (the "peyvandha.ir" page).
pub fn iran_filter() -> CensorPolicy {
    let mut p = CensorPolicy::named("iran-dci");
    for d in ["youtube.com", "twitter.com", "facebook.com"] {
        p = p.block_domain(d, Mechanism::HttpBlockPage);
    }
    p
}

/// Pakistan's filtering: DNS redirection of YouTube to a sinkhole
/// (the 2012–2016 ban; Nabi's FOCI'13 study — paper reference \[33\]).
pub fn pakistan_filter() -> CensorPolicy {
    CensorPolicy::named("pta-pakistan")
        .block_domain("youtube.com", Mechanism::DnsRedirect(PK_SINKHOLE))
}

/// The §7.2 world: the three national censors above, the Great
/// Firewall resolving its rules to IP rules at install.
pub fn world_censors() -> [CensorSpec; 3] {
    [
        CensorSpec::new(country("CN"), great_firewall()).with_ip_resolution(),
        CensorSpec::new(country("IR"), iran_filter()),
        CensorSpec::new(country("PK"), pakistan_filter()),
    ]
}

/// Install [`world_censors`] on `network` (call *after* the target
/// servers are registered, so IP rules resolve).
pub fn install_world_censors(network: &mut Network) {
    for spec in world_censors() {
        network.add_middlebox(Box::new(spec.build(network)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geo::{IspClass, World};
    use netsim::http::{ContentType, HttpRequest, HttpResponse};
    use netsim::network::{ConstHandler, Network};
    use sim_core::{SimRng, SimTime};

    fn world_network() -> Network {
        let mut n = Network::ideal(World::builtin());
        for d in SAFE_TARGETS {
            n.add_server(
                d,
                country("US"),
                Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 500))),
            );
        }
        install_world_censors(&mut n);
        n
    }

    #[test]
    fn ground_truth_has_seven_facts() {
        let gt = ground_truth();
        assert_eq!(gt.len(), 7);
        assert!(gt
            .iter()
            .any(|f| f.domain == "youtube.com" && f.country == country("PK")));
        assert!(!gt
            .iter()
            .any(|f| f.domain == "facebook.com" && f.country == country("PK")));
    }

    #[test]
    fn every_ground_truth_fact_is_enforced() {
        let mut n = world_network();
        let mut rng = SimRng::new(5);
        for fact in ground_truth() {
            let client = n.add_client(fact.country, IspClass::Residential);
            let req = HttpRequest::get(format!("http://{}/favicon.ico", fact.domain));
            let out = n.fetch(&client, &req, SimTime::ZERO, &mut rng);
            let observable_failure = match &out.result {
                Err(_) => true,
                // A block page in place of an image is also an observable
                // failure for the img task.
                Ok(resp) => resp.content_type != ContentType::Image,
            };
            assert!(
                observable_failure,
                "{} should be filtered in {}",
                fact.domain, fact.country
            );
        }
    }

    #[test]
    fn unfiltered_countries_fetch_fine() {
        let mut n = world_network();
        let mut rng = SimRng::new(5);
        for c in ["US", "DE", "BR", "JP"] {
            let client = n.add_client(country(c), IspClass::Residential);
            for d in SAFE_TARGETS {
                let req = HttpRequest::get(format!("http://{d}/favicon.ico"));
                let out = n.fetch(&client, &req, SimTime::ZERO, &mut rng);
                let resp = out.result.expect("no filtering expected");
                assert_eq!(resp.content_type, ContentType::Image, "{c}/{d}");
            }
        }
    }

    #[test]
    fn pakistan_blocks_only_youtube() {
        let mut n = world_network();
        let mut rng = SimRng::new(5);
        let pk = n.add_client(country("PK"), IspClass::Residential);
        let fb = n.fetch(
            &pk,
            &HttpRequest::get("http://facebook.com/favicon.ico"),
            SimTime::ZERO,
            &mut rng,
        );
        assert!(fb.result.is_ok());
        let yt = n.fetch(
            &pk,
            &HttpRequest::get("http://youtube.com/favicon.ico"),
            SimTime::ZERO,
            &mut rng,
        );
        assert!(yt.result.is_err());
    }

    #[test]
    fn gfw_blocks_subdomains_too() {
        let mut n = world_network();
        n.dns
            .register("www.youtube.com", Ipv4Addr::new(100, 0, 0, 2));
        let mut rng = SimRng::new(5);
        let cn = n.add_client(country("CN"), IspClass::Residential);
        let out = n.fetch(
            &cn,
            &HttpRequest::get("http://www.youtube.com/favicon.ico"),
            SimTime::ZERO,
            &mut rng,
        );
        assert!(out.result.is_err());
    }
}

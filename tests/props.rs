//! Property-based tests (proptest) over the public API: parsers never
//! panic, statistics preserve their invariants, addressing stays
//! consistent, and the submission wire format round-trips for all
//! inputs.

use encore_repro::censor::policy::{BlockTarget, CensorPolicy, Mechanism};
use encore_repro::censor::NationalCensor;
use encore_repro::encore::collection::{Submission, SubmissionPhase};
use encore_repro::encore::tasks::{MeasurementId, TaskOutcome, TaskType};
use encore_repro::netsim::geo::{country, IspClass};
use encore_repro::netsim::host::{Host, HostId};
use encore_repro::netsim::http::{host_of, path_of, ContentType, HttpRequest, HttpResponse};
use encore_repro::netsim::ip::Ipv4Net;
use encore_repro::netsim::middlebox::{Middlebox, StageContext};
use encore_repro::netsim::tcp::TcpAttempt;
use encore_repro::sim_core::stats::binomial_cdf;
use encore_repro::sim_core::{Cdf, EventQueue, OneSidedBinomialTest, SimTime};
use encore_repro::websim::UrlPattern;
use proptest::prelude::*;
use std::net::Ipv4Addr;

proptest! {
    // ---------------- URL handling ----------------

    #[test]
    fn host_and_path_never_panic(s in ".{0,200}") {
        let _ = host_of(&s);
        let _ = path_of(&s);
    }

    #[test]
    fn host_of_wellformed_is_lowercase(host in "[A-Za-z][A-Za-z0-9-]{0,20}(\\.[A-Za-z]{2,6}){1,2}", path in "[a-z0-9/._-]{0,40}") {
        let url = format!("http://{host}/{path}");
        let parsed = host_of(&url).expect("well-formed URL must parse");
        prop_assert_eq!(parsed, host.to_ascii_lowercase());
    }

    #[test]
    fn url_pattern_parse_never_panics(s in ".{0,120}") {
        let p = UrlPattern::parse(&s);
        // Matching against arbitrary text must also be panic-free.
        let _ = p.matches("http://example.com/x");
        let _ = p.matches(&s);
    }

    #[test]
    fn domain_pattern_matches_its_own_pages(
        host in "[a-z][a-z0-9-]{0,15}\\.(com|org|net)",
        path in "[a-z0-9/._-]{0,30}",
    ) {
        let p = UrlPattern::Domain(host.clone());
        let own = format!("http://{host}/{path}");
        let sub = format!("http://www.{host}/{path}");
        let evil = format!("http://evil-{host}.attacker.net/{path}");
        prop_assert!(p.matches(&own));
        prop_assert!(p.matches(&sub));
        prop_assert!(!p.matches(&evil));
    }

    // ---------------- statistics ----------------

    #[test]
    fn cdf_is_monotone_and_bounded(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..200), probe in -1e6f64..1e6) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let cdf = Cdf::new(xs.clone());
        let f = cdf.fraction_at_most(probe);
        prop_assert!((0.0..=1.0).contains(&f));
        let f2 = cdf.fraction_at_most(probe + 1.0);
        prop_assert!(f2 >= f);
        prop_assert_eq!(cdf.fraction_at_most(xs[xs.len() - 1]), 1.0);
    }

    #[test]
    fn cdf_quantiles_are_order_preserving(xs in proptest::collection::vec(0f64..1e6, 1..100), q1 in 0f64..1.0, q2 in 0f64..1.0) {
        let cdf = Cdf::new(xs);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = cdf.quantile(lo).unwrap();
        let b = cdf.quantile(hi).unwrap();
        prop_assert!(a <= b);
    }

    #[test]
    fn binomial_cdf_bounded_and_monotone(n in 1u64..300, p in 0.0f64..1.0, x in 0u64..300) {
        let x = x.min(n);
        let c = binomial_cdf(n, p, x);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
        if x < n {
            prop_assert!(binomial_cdf(n, p, x + 1) >= c - 1e-12);
        }
        prop_assert!((binomial_cdf(n, p, n) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn detector_never_rejects_perfect_success(n in 1u64..500) {
        let t = OneSidedBinomialTest::default();
        prop_assert!(!t.rejects(n, n));
    }

    #[test]
    fn detector_rejects_total_failure_at_scale(n in 10u64..500) {
        let t = OneSidedBinomialTest::default();
        prop_assert!(t.rejects(n, 0));
    }

    // ---------------- addressing ----------------

    #[test]
    fn ipv4net_contains_every_nth(oct in proptest::array::uniform4(0u8..=255), prefix in 8u8..=30, idx in 0u64..1024) {
        let net = Ipv4Net::new(Ipv4Addr::new(oct[0], oct[1], oct[2], oct[3]), prefix);
        if let Some(addr) = net.nth(idx % net.size()) {
            prop_assert!(net.contains(addr));
        }
    }

    #[test]
    fn ipv4net_size_matches_prefix(prefix in 0u8..=32) {
        let net = Ipv4Net::new(Ipv4Addr::new(10, 0, 0, 0), prefix);
        prop_assert_eq!(net.size(), 1u64 << (32 - prefix));
    }

    // ---------------- event queue ----------------

    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(*t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    // ---------------- submission wire format ----------------

    #[test]
    fn submission_roundtrips(
        id in 0u64..u64::MAX,
        success in proptest::bool::ANY,
        congested in proptest::bool::ANY,
        elapsed in 0u64..1_000_000,
        ttype in 0usize..4,
        target in "http://[a-z]{1,12}\\.(com|org)/[a-zA-Z0-9/._%-]{0,40}",
        ua in "[a-zA-Z0-9 ()/.;-]{0,30}",
    ) {
        let sub = Submission {
            measurement_id: MeasurementId(id),
            phase: SubmissionPhase::Result,
            outcome: Some(if success { TaskOutcome::Success } else { TaskOutcome::Failure }),
            elapsed_ms: elapsed,
            task_type: TaskType::ALL[ttype],
            target_url: target.into(),
            user_agent: ua.into(),
            congested,
        };
        let mut url = String::from("http://collector.example/submit?");
        sub.parts().write_query(&mut url);
        let back = Submission::from_url(&url).expect("roundtrip parse");
        prop_assert_eq!(sub, back);
    }

    #[test]
    fn submission_parser_never_panics(s in ".{0,300}") {
        let _ = Submission::from_url(&s);
        let _ = Submission::from_url(&format!("http://c/submit?{s}"));
    }

    // ---------------- censor policies ----------------

    #[test]
    fn policy_matching_never_panics(
        domain in "[a-z]{1,10}\\.(com|org)",
        url in ".{0,120}",
        mechanism in 0usize..10,
        ip in any::<u32>(),
        micros in any::<u64>(),
    ) {
        let ip = Ipv4Addr::from(ip);
        let mechanism = [
            Mechanism::DnsNxDomain,
            Mechanism::DnsRedirect(ip),
            Mechanism::DnsDrop,
            Mechanism::IpDrop,
            Mechanism::TcpReset,
            Mechanism::HttpDrop,
            Mechanism::HttpReset,
            Mechanism::HttpBlockPage,
            Mechanism::HttpRedirect("http://block.example/".into()),
            Mechanism::Throttle { drop_probability: 0.5 },
        ][mechanism]
            .clone();
        let p = CensorPolicy::named("prop")
            .block_domain(&domain, mechanism.clone())
            .with_rule(BlockTarget::Keyword("kw".into()), Mechanism::HttpReset)
            .with_rule(BlockTarget::Ip(ip), mechanism);
        let _ = p.match_dns(&url);

        // A national censor only scopes its policy: in its country every
        // stage is the policy's own verdict, and outside it sits on no
        // client's path.
        let censor = NationalCensor::new(country("CN"), p.clone());
        let client = |cc| Host::new(HostId(0), Ipv4Addr::new(100, 0, 0, 2), country(cc), IspClass::Residential);
        let (inside, outside) = (client("CN"), client("US"));
        prop_assert!(censor.applies_to(&inside));
        prop_assert!(!censor.applies_to(&outside));
        let ctx = StageContext { client: &inside, now: SimTime::from_micros(micros) };
        for name in [domain.as_str(), url.as_str()] {
            prop_assert_eq!(censor.on_dns(name, &ctx), p.on_dns(name, &ctx));
        }
        prop_assert_eq!(censor.dns_verdict_is_pure(), p.dns_verdict_is_pure());
        let attempt = TcpAttempt::http(ip);
        prop_assert_eq!(censor.on_tcp(&attempt, &ctx), p.on_tcp(&attempt, &ctx));
        let mut resp = HttpResponse::ok(ContentType::Html, 100);
        resp.keywords = vec!["kw".into()];
        for req in [HttpRequest::get(&url), HttpRequest::get(format!("http://{domain}/p"))] {
            prop_assert_eq!(censor.on_http_request(&req, &ctx), p.on_http_request(&req, &ctx));
            prop_assert_eq!(
                censor.on_http_response(&req, &resp, &ctx),
                p.on_http_response(&req, &resp, &ctx)
            );
        }
    }

    #[test]
    fn domain_rule_blocks_all_its_urls(
        domain in "[a-z]{1,10}\\.(com|org)",
        path in "[a-z0-9/]{0,24}",
    ) {
        let p = CensorPolicy::named("prop").block_domain(&domain, Mechanism::DnsNxDomain);
        let www = format!("www.{domain}");
        let url = format!("http://{domain}/{path}");
        prop_assert!(p.match_dns(&domain).is_some());
        prop_assert!(p.match_dns(&www).is_some());
        // DNS-stage rules never fire at the HTTP stage.
        let req = HttpRequest::get(url);
        prop_assert!(p.match_http_request(&req).is_none());
    }
}

//! Property tests for the network substrate.

use netsim::geo::{country, IspClass, World};
use netsim::http::{HttpRequest, HttpResponse};
use netsim::ip::IpAllocator;
use netsim::network::{ConstHandler, Network};
use netsim::path::PathModel;
use proptest::prelude::*;
use sim_core::{SimRng, SimTime};

fn some_country(idx: usize) -> netsim::geo::CountryCode {
    let codes = ["US", "CN", "IN", "PK", "DE", "BR", "IR", "GB", "JP", "NG"];
    country(codes[idx % codes.len()])
}

proptest! {
    #[test]
    fn allocator_never_duplicates(picks in proptest::collection::vec(0usize..10, 1..300)) {
        let mut alloc = IpAllocator::new();
        let mut seen = std::collections::HashSet::new();
        for p in picks {
            let cc = some_country(p);
            let ip = alloc.allocate(cc);
            prop_assert!(seen.insert(ip), "duplicate {ip}");
            prop_assert_eq!(alloc.country_of(ip), Some(cc));
        }
    }

    #[test]
    fn request_accessors_never_panic(url in ".{0,150}") {
        let req = HttpRequest::get(url);
        let _ = req.host();
        let _ = req.path();
    }

    #[test]
    fn transfer_time_is_monotone_in_bytes(
        a in 0u64..10_000_000,
        b in 0u64..10_000_000,
    ) {
        let m = PathModel::default();
        let w = World::builtin();
        let us = w.get(country("US")).unwrap();
        let mut net = Network::ideal(World::builtin());
        let host = net.add_client(country("US"), IspClass::Residential);
        let q = m.quality(&host, us, us);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(m.transfer_time(&q, lo) <= m.transfer_time(&q, hi));
    }

    #[test]
    fn stage_failure_is_below_fetch_failure(rate in 0.0f64..1.0) {
        let m = PathModel::default();
        let q = netsim::path::PathQuality {
            rtt_median_ms: 100.0,
            failure_rate: rate,
            bandwidth_bps: 1e6,
        };
        let p = m.stage_failure_probability(&q);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!(p <= rate + 1e-12);
        // Composition recovers the fetch-level rate.
        let composed = 1.0 - (1.0 - p).powi(3);
        prop_assert!((composed - rate).abs() < 1e-9);
    }

    #[test]
    fn fetch_never_panics_on_arbitrary_urls(url in ".{0,120}", seed in any::<u64>()) {
        let mut net = Network::ideal(World::builtin());
        net.add_server(
            "up.example",
            country("US"),
            Box::new(ConstHandler(HttpResponse::ok(netsim::http::ContentType::Image, 100))),
        );
        let client = net.add_client(country("DE"), IspClass::Residential);
        let mut rng = SimRng::new(seed);
        let out = net.fetch(&client, &HttpRequest::get(url), SimTime::ZERO, &mut rng);
        // Timings are always well-formed.
        let _ = out.timings.total();
    }

    #[test]
    fn dns_resolution_is_idempotent(seed in any::<u64>(), names in proptest::collection::vec("[a-z]{1,10}\\.(com|org)", 1..20)) {
        let _ = seed;
        let mut net = Network::ideal(World::builtin());
        for n in &names {
            net.add_server(
                n,
                country("US"),
                Box::new(ConstHandler(HttpResponse::ok(netsim::http::ContentType::Html, 10))),
            );
        }
        for n in &names {
            let a = net.dns.authoritative(n);
            let b = net.dns.authoritative(n);
            prop_assert!(a.is_some());
            prop_assert_eq!(a.map(|x| x.ip), b.map(|x| x.ip));
        }
    }
}

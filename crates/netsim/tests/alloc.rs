//! Counting-allocator proof that the warm visit path performs **zero
//! heap allocations** — the acceptance gate of the data-oriented hot
//! path work, so the win cannot silently regress.
//!
//! A warm [`FetchSession`] fetch (DNS cached, keep-alive connection
//! live, compiled middlebox pipeline current, path quality memoised, no
//! censor interference) must run DNS → TCP → HTTP entirely on
//! id-indexed state: no `String` per host name, no per-fetch `HashMap`
//! churn, no response-body heap traffic for a headerless constant
//! response.
//!
//! The same holds for warm fetches the network *stops*: a forged NXDOMAIN
//! served from the per-host verdict memo, a TCP RST, and transient DNS,
//! TCP and HTTP failures on a lossy path. Nothing on those paths may
//! format or copy a message per event.

use alloc_count::{measure, Allocs, Counting};
use netsim::geo::{country, IspClass, World};
use netsim::host::Host;
use netsim::http::{ContentType, HttpRequest, HttpResponse};
use netsim::middlebox::{DnsAction, Middlebox, StageContext, TcpAction};
use netsim::network::{ConstHandler, FetchError, Network};
use netsim::session::FetchSession;
use netsim::tcp::TcpAttempt;
use sim_core::{SimDuration, SimRng, SimTime};
use std::net::Ipv4Addr;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Forges NXDOMAIN for one name and resets every handshake to one
/// address. Its DNS verdict is pure, so sessions serve it from the
/// per-host verdict memo after the first walk.
struct Censor {
    rst_to: Ipv4Addr,
}

impl Middlebox for Censor {
    fn name(&self) -> &str {
        "censor"
    }
    fn applies_to(&self, _client: &Host) -> bool {
        true
    }
    fn on_dns(&self, name: &str, _ctx: &StageContext<'_>) -> DnsAction {
        if name == "blocked.example.com" {
            DnsAction::NxDomain
        } else {
            DnsAction::Pass
        }
    }
    fn dns_verdict_is_pure(&self) -> bool {
        true
    }
    fn on_tcp(&self, attempt: &TcpAttempt, _ctx: &StageContext<'_>) -> TcpAction {
        if attempt.dst == self.rst_to {
            TcpAction::Reset
        } else {
            TcpAction::Pass
        }
    }
}

fn image() -> Box<ConstHandler> {
    Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 2_048)))
}

#[test]
fn warm_fetch_performs_zero_heap_allocations() {
    let mut net = Network::ideal(World::builtin());
    // A constant response with no heap-carrying fields (no keywords, no
    // embeds, no redirect location, no extra headers): what a measurement
    // target image looks like to the session layer.
    net.add_server("img.example.com", country("US"), image());
    let client = net.add_client(country("DE"), IspClass::Residential);
    let mut session = FetchSession::new(client);
    let mut rng = SimRng::new(0xA110C);
    let req = HttpRequest::get("http://img.example.com/probe.png");

    // Warm everything up: DNS cache, keep-alive pool, compiled pipeline,
    // quality memo, resolver RTT. Two rounds so every lazily-built table
    // is both built and replayed before counting starts.
    for i in 0..4u64 {
        let out = session.fetch(&mut net, &req, SimTime::from_secs(i), &mut rng);
        assert!(out.result.is_ok(), "warm-up fetch failed: {:?}", out.result);
    }

    // Count across many fetches at close timestamps (keep-alive stays
    // live) so a single stray allocation anywhere in the path is loud.
    const FETCHES: u64 = 100;
    let t0 = SimTime::from_secs(10);
    let ((), Allocs { count: allocs, .. }) = measure(|| {
        for i in 0..FETCHES {
            let out = session.fetch(
                &mut net,
                &req,
                t0 + SimDuration::from_millis(i * 50),
                &mut rng,
            );
            assert!(out.result.is_ok());
        }
    });

    assert_eq!(
        allocs, 0,
        "warm visit path allocated {allocs} time(s) over {FETCHES} fetches — \
         the zero-allocation warm path has regressed"
    );
    // The fetches above really did run warm: all DNS hits, one pooled
    // connection reused throughout.
    let stats = session.stats();
    assert!(
        stats.dns_cache_hits >= FETCHES,
        "expected warm DNS, got {stats:?}"
    );

    // Fetches the network stops. DE's calibrated 0.8 % fetch failure
    // rate, scaled ×60, makes each stage fail about one time in five.
    let mut net = Network::new(World::builtin());
    net.path_model.failure_scale = 60.0;
    net.add_server("img.example.com", country("US"), image());
    let rst_to = net.add_server("rst.example.com", country("US"), image()).ip;
    // A TTL shorter than the fetch spacing: every fetch misses both DNS
    // caches, so each one reaches the transient-DNS-failure draw.
    let flaky = net
        .add_server("flaky.example.com", country("US"), image())
        .ip;
    net.dns
        .register_with_ttl("flaky.example.com", flaky, SimDuration::from_millis(1));
    net.add_middlebox(Box::new(Censor { rst_to }));
    let client = net.add_client(country("DE"), IspClass::Residential);
    let mut session = FetchSession::new(client);
    let reqs = [
        HttpRequest::get("http://blocked.example.com/probe.png"),
        HttpRequest::get("http://rst.example.com/probe.png"),
        HttpRequest::get("http://flaky.example.com/probe.png"),
    ];

    // One fetch of each request; counts outcomes by slot: [NXDOMAIN,
    // RST, transient DNS, transient TCP, transient HTTP, ok].
    let mut round = |session: &mut FetchSession, net: &mut Network, at: SimTime| {
        let mut seen = [0u64; 6];
        for req in &reqs {
            let slot = match session.fetch(net, req, at, &mut rng).result {
                Err(FetchError::DnsNxDomain) => 0,
                Err(FetchError::ConnectionReset) => 1,
                Err(FetchError::DnsTimeout) => 2,
                Err(FetchError::ConnectTimeout) => 3,
                Err(FetchError::ResponseTimeout) => 4,
                Ok(_) => 5,
                Err(e) => panic!("unexpected failure {e:?}"),
            };
            seen[slot] += 1;
        }
        seen
    };
    // Warm-up fills the verdict memo, both DNS caches, the quality memo
    // and the pool's backing vector.
    for i in 0..8u64 {
        round(&mut session, &mut net, SimTime::from_secs(i));
    }
    let mut seen = [0u64; 6];
    let ((), Allocs { count: allocs, .. }) = measure(|| {
        for i in 0..FETCHES {
            let counts = round(
                &mut session,
                &mut net,
                t0 + SimDuration::from_millis(i * 50),
            );
            for (total, n) in seen.iter_mut().zip(counts) {
                *total += n;
            }
        }
    });
    assert_eq!(
        allocs,
        0,
        "stopped warm fetches allocated {allocs} time(s) over {} fetches",
        FETCHES * 3
    );
    // Every kind of stop really happened inside the counted loop.
    println!("stopped-fetch outcomes {seen:?}");
    assert!(
        seen[..5].iter().all(|&n| n > 0),
        "not every stop fired: {seen:?}"
    );
}

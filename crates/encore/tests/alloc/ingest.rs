//! Counting-allocator bound on the streaming ingest path: once every
//! string a submission carries has been seen, accepting it allocates
//! nothing but (amortised) the open window's growing hash tables — no
//! response buffer, no decode buffer, no interned copy, no owned record
//! — and a submission a gate turns away (duplicate, expired, queue full)
//! allocates nothing at all.

use alloc_count::measure;
use encore::collection::Submission;
use encore::tasks::{MeasurementId, TaskOutcome, TaskType};
use encore::{CollectionServer, StreamingConfig, SubmissionPhase};
use netsim::http::{HttpRequest, StatusCode};
use netsim::network::HttpHandler;
use sim_core::{SimRng, SimTime};
use std::net::Ipv4Addr;

const URLS: [&str; 6] = [
    "http://youtube.com/favicon.ico",
    "http://twitter.com/favicon.ico",
    "http://facebook.com/favicon.ico?size=16&dpr=2",
    "http://example.org/a b/%7Euser.png",
    "http://blocked.example/images/logo.png",
    "http://news.example/static/css/site.css",
];
const AGENTS: [&str; 3] = ["Chrome", "Firefox", "GoogleBot"];
const ORIGINS: [&str; 4] = [
    "http://origin.example/",
    "http://blog.example/post?id=7",
    "http://forum.example/thread/42",
    "http://youtube.com/favicon.ico",
];
/// Client addresses. Fixed, so the open window's `(domain, ip)` cell
/// map stops growing once every pair has been seen.
const CLIENTS: u64 = 50;

/// The `i`-th submission: a fresh measurement id one millisecond after
/// the last (under the default queue's drain rate, so nothing is shed),
/// cycling through the known strings and addresses.
fn request(server: &CollectionServer, i: u64) -> (HttpRequest, Ipv4Addr, SimTime) {
    let sub = Submission {
        measurement_id: MeasurementId(i),
        phase: SubmissionPhase::Result,
        outcome: Some(if i.is_multiple_of(7) {
            TaskOutcome::Failure
        } else {
            TaskOutcome::Success
        }),
        elapsed_ms: 40 + i % 900,
        task_type: TaskType::Image,
        target_url: URLS[i as usize % URLS.len()].into(),
        user_agent: AGENTS[i as usize % AGENTS.len()].into(),
        congested: false,
    };
    let req =
        HttpRequest::get(server.submit_url(&sub)).with_referer(ORIGINS[i as usize % ORIGINS.len()]);
    let ip = Ipv4Addr::new(100, 64, 0, (i % CLIENTS) as u8 + 1);
    (req, ip, SimTime::from_millis(i))
}

/// Hand `requests` to the server one by one; every rejected-or-accepted
/// response must be the status given, and `per_request` receives the
/// allocations each request's handling made.
fn drive(
    server: &CollectionServer,
    requests: &[(HttpRequest, Ipv4Addr, SimTime)],
    status: StatusCode,
    mut per_request: impl FnMut(u64),
) {
    for (req, ip, at) in requests {
        let (resp, allocs) = measure(|| server.handle(req, *ip, *at));
        assert_eq!(resp.status, status);
        per_request(allocs.count);
    }
}

#[test]
fn streaming_ingest_allocates_only_table_growth() {
    const WARM_UP: u64 = 2_000;
    const MEASURED: u64 = 10_000;
    let server = CollectionServer::new("collector.example");
    server.enable_streaming(&StreamingConfig::default(), 0x00C0_FFEE, SimRng::new(99));
    let requests: Vec<_> = (0..WARM_UP + MEASURED)
        .map(|i| request(&server, i))
        .collect();
    let (warm_up, measured) = requests.split_at(WARM_UP as usize);
    drive(&server, warm_up, StatusCode::OK, |_| {});

    // Accepted, every string known: only the few doublings of the open
    // window's dedup set as it goes from 2,000 keys to 12,000. One
    // allocation per submission — a response buffer, a decoded copy, a
    // boxed memo key, an owned record — would add 10,000.
    let mut total = 0;
    drive(&server, measured, StatusCode::OK, |allocs| total += allocs);
    assert_eq!(server.len() as u64, WARM_UP + MEASURED);
    assert!(
        total <= 32,
        "{MEASURED} accepted submissions over known strings allocated {total} times; \
         they may allocate only amortised table growth"
    );

    // Duplicates: the same wire tuples again. Acknowledged like the
    // originals, and not one allocation.
    let nothing = |allocs: u64| assert_eq!(allocs, 0);
    let resent = &measured[measured.len() - 1_000..];
    drive(&server, resent, StatusCode::OK, nothing);
    assert_eq!(server.drops().duplicate, 1_000);

    // Expired: the window those submissions belong to has closed.
    server.close_all_windows(|_| None);
    server.close_windows(SimTime::from_secs(2 * 86_400), |_| None);
    drive(&server, resent, StatusCode::OK, nothing);
    assert_eq!(server.drops().expired, 1_000);
    assert_eq!(server.len() as u64, WARM_UP + MEASURED);

    // Queue full: a collector that never drains sheds everything after
    // its first submission, before parsing it.
    let saturated = CollectionServer::new("collector.example");
    let one_slot = StreamingConfig {
        queue_capacity: 1,
        drain_per_sec: 0,
        ..StreamingConfig::default()
    };
    saturated.enable_streaming(&one_slot, 0x00C0_FFEE, SimRng::new(99));
    drive(&saturated, &warm_up[..1], StatusCode::OK, |_| {});
    drive(&saturated, &warm_up[1..1_001], StatusCode(503), nothing);
    assert_eq!(saturated.drops().queue_full, 1_000);
    assert_eq!(saturated.len(), 1);
}

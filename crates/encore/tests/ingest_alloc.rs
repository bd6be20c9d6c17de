//! Counting-allocator bound on the streaming ingest path: once every
//! string a submission carries has been seen, accepting it allocates
//! its response and (amortised) the open window's growing hash tables —
//! no decode buffer, no interned copy, no owned record — and a
//! submission a gate turns away (duplicate, expired, queue full)
//! allocates its response and nothing else.
//!
//! "Its response" is measured, not assumed: cloning an `HttpResponse`
//! allocates exactly what building it did, so each rejected submission
//! is held to the allocation count of a clone of what it got back.
//!
//! This file holds exactly one `#[test]`: the `#[global_allocator]`
//! counter is process-wide, so a concurrent test in the same binary
//! would pollute the count.

use encore::collection::Submission;
use encore::tasks::{MeasurementId, TaskOutcome, TaskType};
use encore::{CollectionServer, StreamingConfig, SubmissionPhase};
use netsim::http::{HttpRequest, HttpResponse, StatusCode};
use netsim::network::HttpHandler;
use sim_core::{SimRng, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, with every allocation counted.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

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
/// response must be the status given, and `per_response` receives each
/// response with the allocations its handling made.
fn drive(
    server: &CollectionServer,
    requests: &[(HttpRequest, Ipv4Addr, SimTime)],
    status: StatusCode,
    mut per_response: impl FnMut(&HttpResponse, u64),
) {
    for (req, ip, at) in requests {
        let (resp, allocs) = counted(|| server.handle(req, *ip, *at));
        assert_eq!(resp.status, status);
        per_response(&resp, allocs);
    }
}

#[test]
fn streaming_ingest_allocates_its_response_and_little_else() {
    const WARM_UP: u64 = 2_000;
    const MEASURED: u64 = 10_000;
    let server = CollectionServer::new("collector.example");
    server.enable_streaming(&StreamingConfig::default(), 0x00C0_FFEE, SimRng::new(99));
    let requests: Vec<_> = (0..WARM_UP + MEASURED)
        .map(|i| request(&server, i))
        .collect();
    let (warm_up, measured) = requests.split_at(WARM_UP as usize);
    drive(&server, warm_up, StatusCode::OK, |_, _| {});

    // Accepted, every string known: the response, plus the few
    // doublings of the open window's dedup set as it goes from 2,000
    // keys to 12,000. One allocation more per submission — a decoded
    // copy, a boxed memo key, an owned record — would add 10,000.
    let (mut total, mut responses) = (0, 0);
    drive(&server, measured, StatusCode::OK, |resp, allocs| {
        total += allocs;
        responses += counted(|| resp.clone()).1;
    });
    assert_eq!(server.len() as u64, WARM_UP + MEASURED);
    assert!(responses >= MEASURED, "the response itself should allocate");
    assert!(
        total <= responses + 32,
        "{MEASURED} accepted submissions over known strings allocated {total} times, \
         {responses} of them their responses"
    );

    // Duplicates: the same wire tuples again. Acknowledged like the
    // originals, and not one allocation past the acknowledgement.
    let nothing_but_the_response = |resp: &HttpResponse, allocs: u64| {
        assert_eq!(allocs, counted(|| resp.clone()).1);
    };
    let resent = &measured[measured.len() - 1_000..];
    drive(&server, resent, StatusCode::OK, nothing_but_the_response);
    assert_eq!(server.drops().duplicate, 1_000);

    // Expired: the window those submissions belong to has closed.
    server.close_all_windows(|_| None);
    server.close_windows(SimTime::from_secs(2 * 86_400), |_| None);
    drive(&server, resent, StatusCode::OK, nothing_but_the_response);
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
    drive(&saturated, &warm_up[..1], StatusCode::OK, |_, _| {});
    drive(
        &saturated,
        &warm_up[1..1_001],
        StatusCode(503),
        nothing_but_the_response,
    );
    assert_eq!(saturated.drops().queue_full, 1_000);
    assert_eq!(saturated.len(), 1);
}

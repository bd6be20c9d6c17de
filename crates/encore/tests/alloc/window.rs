//! Counting-allocator bounds on the open window's tables: when a window
//! closes, its emptied dedup set and `(domain, address)` cells pass to
//! the next window instead of being freed and regrown. So a window of
//! the same shape as the last allocates no table and holds no more
//! bytes than the collector held when the last one closed, whether it
//! opens after the close or was opened early by a submission that beat
//! the close. The exact detector runs the same fold: `detect_windows`
//! over k windows allocates one set of tables, not k.

use crate::detector::{addresses, records, CELLS, WINDOWS};
use alloc_count::{measure, Allocs};
use encore::collection::Submission;
use encore::tasks::{MeasurementId, TaskOutcome, TaskType};
use encore::{CollectionServer, FilteringDetector, StreamingConfig, SubmissionPhase};
use netsim::geo::country;
use netsim::http::HttpRequest;
use netsim::network::HttpHandler;
use sim_core::{SimDuration, SimRng, SimTime};
use std::net::Ipv4Addr;
use std::ops::Range;

const DAY_SECS: u64 = 86_400;
/// Accepted submissions per window: one every four seconds, well under
/// the default ingest queue's drain rate, so nothing is shed.
const PER_WINDOW: u64 = 20_000;
const DOMAINS: u64 = 5;
/// Client addresses; with [`DOMAINS`] they make 2,000 `(domain, ip)`
/// cells in every window.
const CLIENTS: u64 = 400;
/// Window-2 submissions that arrive before window 1 closes.
const EARLY: u64 = 100;

/// The `i`-th submission of `window`, with its client and arrival time.
fn request(server: &CollectionServer, window: u64, i: u64) -> (HttpRequest, Ipv4Addr, SimTime) {
    let sub = Submission {
        measurement_id: MeasurementId(window * PER_WINDOW + i),
        phase: SubmissionPhase::Result,
        outcome: Some(if i.is_multiple_of(7) {
            TaskOutcome::Failure
        } else {
            TaskOutcome::Success
        }),
        elapsed_ms: 40 + i % 900,
        task_type: TaskType::Image,
        target_url: format!("http://d{}.example/favicon.ico", i % DOMAINS).into(),
        user_agent: "Chrome".into(),
        congested: false,
    };
    let client = (i / DOMAINS) % CLIENTS;
    let ip = Ipv4Addr::new(100, 64, (client / 200) as u8, (client % 200) as u8 + 1);
    let at = SimTime::from_secs(window * DAY_SECS + 4 * i);
    (HttpRequest::get(server.submit_url(&sub)), ip, at)
}

/// Hand submissions `range` of `window` to the server, each accepted,
/// and return what the handling (not the building of the requests)
/// allocated.
fn feed(server: &CollectionServer, window: u64, range: Range<u64>) -> Allocs {
    let requests: Vec<_> = range.map(|i| request(server, window, i)).collect();
    let ((), allocs) = measure(|| {
        for (req, ip, at) in &requests {
            assert_eq!(server.handle(req, *ip, *at).status.0, 200);
        }
    });
    allocs
}

/// Close every window that ends by the start of `window`.
fn close_before(server: &CollectionServer, window: u64) {
    server.close_windows(SimTime::from_secs(window * DAY_SECS), |_| {
        Some(country("US"))
    });
}

/// Require that `allocs`, window `window`'s handling, is nothing: no
/// table grew, and the bytes held never rose above what they were when
/// the window before it closed.
fn allocated_nothing(window: u64, allocs: Allocs) {
    println!(
        "window {window}: {} allocations, largest {} bytes, peak {} bytes over the last close",
        allocs.count, allocs.largest, allocs.peak
    );
    assert_eq!(
        allocs.count, 0,
        "window {window} allocated: a closed window's tables should have served it"
    );
    assert!(
        allocs.peak <= 0,
        "window {window} held {} bytes more than the collector held when the window \
         before it closed",
        allocs.peak
    );
}

#[test]
fn a_closed_windows_tables_serve_the_next_window() {
    let server = CollectionServer::new("collector.example");
    let config = StreamingConfig::with_window(SimDuration::from_days(1));
    server.enable_streaming(&config, 0x00C0_FFEE, SimRng::new(99));
    // Window 0 grows the tables, interns every string and fills the
    // reservoir.
    feed(&server, 0, 0..PER_WINDOW);
    close_before(&server, 1);
    // Window 1 opens after window 0 closed, and takes its tables.
    allocated_nothing(1, feed(&server, 1, 0..PER_WINDOW));
    // Window 2 is opened early: its first submissions arrive before
    // window 1 closes, into small tables of their own. The close moves
    // those entries into window 1's tables and gives window 2 those.
    feed(&server, 2, 0..EARLY);
    close_before(&server, 2);
    allocated_nothing(2, feed(&server, 2, EARLY..PER_WINDOW));
    server.close_all_windows(|_| Some(country("US")));
    assert_eq!(server.drops().total(), 0, "{:?}", server.drops());
    assert_eq!(server.len() as u64, 3 * PER_WINDOW);
    // The three windows carried the same traffic, so the tables passed
    // on (window 2's early entries moved) must fold to the same cells.
    let windows = server.snapshot().streaming.expect("streaming").windows;
    assert_eq!(windows.len(), 3);
    for w in &windows {
        assert_eq!(w.measurements, PER_WINDOW);
        assert_eq!(w.cells, windows[0].cells, "window {}", w.window);
    }
}

#[test]
fn detect_windows_allocates_one_set_of_tables() {
    let (ips, geo) = addresses();
    let per_window = 2_000;
    let all = records(&ips, per_window);
    let detector = FilteringDetector::default();
    let window = SimDuration::from_secs(100);
    let count = |records| {
        measure(|| detector.detect_windows(records, &geo, window))
            .1
            .count
    };
    let (one, every) = (count(&all[..per_window as usize]), count(&all));
    // What each window adds to the output: its cell list, a name per
    // cell, and its one detection (a list and a name).
    let per_window_output = 1 + CELLS + 2;
    // The growth of the list of closed windows.
    const WINDOW_LIST: u64 = 8;
    let extra = every - one;
    println!(
        "detect_windows: {one} allocations over 1 window, {every} over {WINDOWS}; \
         {extra} more, {per_window_output} a window of it output"
    );
    assert!(
        extra <= (WINDOWS - 1) * per_window_output + WINDOW_LIST,
        "{WINDOWS} windows allocated {extra} times more than one; their output accounts \
         for {}: each window is growing tables of its own",
        (WINDOWS - 1) * per_window_output
    );
}

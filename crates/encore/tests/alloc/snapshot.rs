//! Counting-allocator bound on a shard's hand-over: the consuming
//! snapshot resolves the interned record log into the public one and
//! gives the log back to the allocator as it goes. Its peak is therefore
//! the snapshot's own bytes plus small tables over the distinct strings,
//! not those bytes plus a copy of the log, an order index or a sort's
//! scratch buffer (any of which costs 16 bytes a record or more).

use alloc_count::measure;
use encore::collection::{CollectionSnapshot, Submission};
use encore::tasks::{MeasurementId, TaskOutcome, TaskType};
use encore::{CollectionServer, StoredMeasurement, SubmissionPhase};
use netsim::http::HttpRequest;
use netsim::network::HttpHandler;
use sim_core::SimTime;
use std::collections::HashSet;
use std::mem::{align_of, size_of};
use std::net::Ipv4Addr;

const RECORDS: u64 = 40_000;
const AGENTS: [&str; 3] = ["Chrome", "Firefox", "GoogleBot"];
const ORIGINS: [Option<&str>; 4] = [
    Some("http://origin.example/"),
    None,
    Some("http://blog.example/post?id=7"),
    Some("http://forum.example/thread/42"),
];
/// Distinct target URLs the submissions cycle through.
const TARGETS: u64 = 40;
/// Heap bytes the pass may hold beyond the snapshot's own, per distinct
/// string: the rank tables (`u32` each way) and the table of shared
/// texts (one `Option<Arc<str>>`), with room to spare.
const PER_STRING: usize = 64;
/// Heap bytes the pass may hold beyond the snapshot's own, whatever the
/// strings: a constant, so ≈0.1 byte a record here.
const FIXED: usize = 4 << 10;

/// A collector fed `RECORDS` exact-mode submissions with referers,
/// arriving slightly out of order and with equal timestamps.
fn fed_server() -> CollectionServer {
    let server = CollectionServer::new("collector.example");
    for i in 0..RECORDS {
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
            target_url: format!("http://site{}.example/favicon.ico", i % TARGETS).into(),
            user_agent: AGENTS[i as usize % AGENTS.len()].into(),
            congested: false,
        };
        let mut req = HttpRequest::get(server.submit_url(&sub));
        if let Some(origin) = ORIGINS[i as usize % ORIGINS.len()] {
            req = req.with_referer(origin);
        }
        let ip = Ipv4Addr::new(100, 64, (i % 200) as u8, (i % 250) as u8 + 1);
        let at = SimTime::from_millis(i / 2 + (i % 3) * 5);
        assert_eq!(server.handle(&req, ip, at).status.0, 200);
    }
    server
}

/// The heap a snapshot holds: its record vector, each referer's buffer,
/// and one `Arc<str>` allocation per distinct URL and user-agent text.
/// Also returns the number of distinct strings its records hold.
fn own_bytes(snap: &CollectionSnapshot) -> (usize, usize) {
    let records = snap.records.capacity() * size_of::<StoredMeasurement>();
    let referers: usize = snap
        .records
        .iter()
        .filter_map(|r| r.referer.as_ref())
        .map(String::capacity)
        .sum();
    let text_bytes: usize = snap
        .records
        .iter()
        .flat_map(|r| [&r.submission.target_url, &r.submission.user_agent])
        .map(|t| (t.as_ptr(), t.len()))
        .collect::<HashSet<_>>()
        .into_iter()
        // An `Arc<str>` block: two counters, then the bytes, padded.
        .map(|(_, len)| (2 * size_of::<usize>() + len).next_multiple_of(align_of::<usize>()))
        .sum();
    let strings: HashSet<&str> = snap
        .records
        .iter()
        .flat_map(|r| {
            let s = &r.submission;
            [
                Some(&*s.target_url),
                Some(&*s.user_agent),
                r.referer.as_deref(),
            ]
        })
        .flatten()
        .collect();
    (records + referers + text_bytes, strings.len())
}

#[test]
fn the_consuming_snapshot_peaks_at_its_own_bytes_and_releases_the_log() {
    let server = fed_server();
    let (snap, allocs) = measure(|| server.take_snapshot());
    assert_eq!(snap.len() as u64, RECORDS);
    assert_eq!(server.len(), 0, "the log was handed over");

    let (own, strings) = own_bytes(&snap);
    let allowance = FIXED + PER_STRING * strings;
    let peak = usize::try_from(allocs.peak).expect("a peak is never negative");
    println!(
        "take_snapshot: {RECORDS} records, {strings} distinct strings: peak {peak} bytes, \
         net {} bytes, snapshot {own} bytes ({:.2} bytes a record over it at the peak)",
        allocs.live,
        (peak as f64 - own as f64) / RECORDS as f64,
    );
    assert!(
        peak <= own + allowance,
        "the hand-over peaked at {peak} bytes: more than the snapshot's own {own} \
         plus {allowance} ({FIXED} + {PER_STRING} per distinct string)"
    );
    assert!(
        allocs.live < own as i64,
        "the hand-over ended {} bytes up, not below the snapshot's own {own}: \
         the record log was not released",
        allocs.live
    );
}

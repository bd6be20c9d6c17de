//! Counting-allocator bound on the exact-mode detector: the windowed
//! fold must borrow the record log, not copy it. Its allocations scale
//! with **cells** (one `String` per `(domain, country)` cell per window,
//! one per interned host, and the per-window hash maps growing), never
//! with **records** — a `clone()` per record or a `String` per host
//! would put the count in the hundreds of thousands here.

use alloc_count::measure;
use encore::collection::Submission;
use encore::tasks::{MeasurementId, TaskOutcome, TaskType};
use encore::{FilteringDetector, GeoDb, StoredMeasurement, SubmissionPhase};
use netsim::geo::country;
use netsim::ip::IpAllocator;
use sim_core::{SimDuration, SimTime};
use std::net::Ipv4Addr;

pub(crate) const WINDOWS: u64 = 10;
const DOMAINS: [&str; 4] = ["a.example", "b.example", "c.example", "d.example"];
const COUNTRIES: [&str; 5] = ["US", "DE", "TR", "CN", "BR"];
/// `(domain, country)` cells in each window: every pair is measured.
pub(crate) const CELLS: u64 = (DOMAINS.len() * COUNTRIES.len()) as u64;
/// Client addresses per country. Fixed, so the per-IP counter map is
/// the same size however many records are folded.
const IPS_PER_COUNTRY: usize = 40;

/// [`IPS_PER_COUNTRY`] addresses in each country, and the geo database
/// that locates them.
pub(crate) fn addresses() -> (Vec<Vec<Ipv4Addr>>, GeoDb) {
    let mut alloc = IpAllocator::new();
    let ips = COUNTRIES
        .iter()
        .map(|cc| {
            (0..IPS_PER_COUNTRY)
                .map(|_| alloc.allocate(country(cc)))
                .collect()
        })
        .collect();
    (ips, GeoDb::from_allocator(&alloc))
}

/// `per_window` records in each of the ten 100-second windows, in
/// window order, cycling through every (domain, country, address); TR
/// fails on `a.example`, and nothing else fails.
pub(crate) fn records(ips: &[Vec<Ipv4Addr>], per_window: u64) -> Vec<StoredMeasurement> {
    let mut out = Vec::new();
    for w in 0..WINDOWS {
        for i in 0..per_window {
            let (d, c) = (i as usize % DOMAINS.len(), i as usize % COUNTRIES.len());
            let blocked = DOMAINS[d] == "a.example" && COUNTRIES[c] == "TR";
            out.push(StoredMeasurement {
                submission: Submission {
                    measurement_id: MeasurementId(w * per_window + i),
                    phase: SubmissionPhase::Result,
                    outcome: Some(if blocked {
                        TaskOutcome::Failure
                    } else {
                        TaskOutcome::Success
                    }),
                    elapsed_ms: 100,
                    task_type: TaskType::Image,
                    target_url: format!("http://{}/favicon.ico", DOMAINS[d]).into(),
                    user_agent: "Chrome".into(),
                    congested: false,
                },
                client_ip: ips[c][(i as usize / COUNTRIES.len()) % IPS_PER_COUNTRY],
                referer: None,
                received_at: SimTime::from_secs(w * 100 + i % 100),
            });
        }
    }
    out
}

#[test]
fn windowed_detection_allocates_per_cell_not_per_record() {
    let (ips, geo) = addresses();
    let detector = FilteringDetector::default();
    let window = SimDuration::from_secs(100);

    let count = |records: &[StoredMeasurement]| {
        let (reports, allocs) = measure(|| detector.detect_windows(records, &geo, window));
        assert_eq!(reports.len(), WINDOWS as usize);
        for r in &reports {
            let flagged: Vec<_> = r
                .detections
                .iter()
                .map(|d| (d.domain.as_str(), d.country))
                .collect();
            assert_eq!(
                flagged,
                [("a.example", country("TR"))],
                "window {}",
                r.window
            );
        }
        allocs.count
    };

    let small = records(&ips, 2_000);
    let large = records(&ips, 4_000);
    assert_eq!(small.len(), 20_000);
    let (at_20k, at_40k) = (count(&small), count(&large));
    println!("detect_windows: {at_20k} allocations at 20,000 records, {at_40k} at 40,000");

    assert!(
        at_20k < 1_000,
        "detect_windows allocated {at_20k} times over 20,000 records in 200 cells — \
         something on the fold is copying records or host names again"
    );
    // Twice the records in the same cells: nothing on the fold is sized
    // by the record count.
    assert_eq!(
        at_40k, at_20k,
        "allocations grew with the record count: {at_20k} at 20,000 records, {at_40k} at 40,000"
    );
}

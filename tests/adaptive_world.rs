//! Golden snapshot of the adversarial adaptive-censor world.
//!
//! `bench::testkit::adaptive_fixture` runs 30 days under an escalating
//! [`censor::adaptive::AdaptiveCensor`]: Iran watches twitter.com, then
//! injects RSTs (day 6), poisons DNS with a lying TTL (day 12),
//! null-routes (day 18), **retaliates against the Encore collection
//! server itself** (day 24), and stands down (day 27). The scenario
//! pins three things:
//!
//! 1. **Golden byte-identity** — the serial (1-shard) run's day-by-day
//!    detector verdict serializes byte-identically to
//!    `tests/golden/adaptive_timeline.json` (regenerate with
//!    `ENCORE_BLESS=1 cargo test --test adaptive_world`).
//! 2. **Shard invariance** — a 2-shard run of the same recipe reaches
//!    the identical verdict (flag series, onset, lift) and applies the
//!    same five control signals, because reactions broadcast to every
//!    shard.
//! 3. **Retaliation blinds the detector** — while the censor blocks the
//!    collection server, Iranian measurements stop *arriving* rather
//!    than failing: the per-day record count collapses and the flag
//!    clears without the block being lifted — exactly the §8 threat the
//!    paper warns about.

use bench::testkit::adaptive_fixture::{
    self, censor_country, RETALIATE_DAY, RST_DAY, STAND_DOWN_DAY, TARGET,
};
use bench::testkit::scenario;
use encore_repro::encore::{FilteringDetector, GeoDb, StoredMeasurement};
use encore_repro::netsim::geo::CountryCode;
use encore_repro::population::{ShardTransport, ShardedWorldRun, ThreadTransport};
use encore_repro::sim_core::SimDuration;
use serde::Serialize;

const SEED: u64 = 0xADA7_71FE;
const DAYS: u64 = 30;
const RATE: f64 = 150.0;

/// The golden artifact: the §7.2 windowed verdict over the escalating
/// run, plus the per-day record counts that expose the retaliation
/// blackout.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct AdaptiveTimeline {
    seed: u64,
    days: u64,
    visits: u64,
    control_signals_applied: usize,
    /// `(day, result measurements from the censoring country, flagged)`.
    day_rows: Vec<(u64, usize, bool)>,
    onset_day: Option<u64>,
    lift_day: Option<u64>,
}

/// Count result-phase records geolocated to `cc` per day, and the flag
/// series for `cc:TARGET` — the fixture's single verdict definition.
fn judge(records: &[StoredMeasurement], geo: &GeoDb, cc: CountryCode) -> AdaptiveTimelineVerdict {
    let day = SimDuration::from_days(1);
    let reports = FilteringDetector::default().detect_windows(records, geo, day);
    let rows: Vec<(u64, usize, bool)> = reports
        .iter()
        .map(|r| {
            let flagged = r
                .detections
                .iter()
                .any(|d| d.country == cc && d.domain == TARGET);
            let cc_results = records
                .iter()
                .filter(|rec| {
                    rec.received_at.as_micros() / day.as_micros() == r.window
                        && rec.submission.phase == encore_repro::encore::SubmissionPhase::Result
                        && geo.lookup(rec.client_ip) == Some(cc)
                })
                .count();
            (r.window, cc_results, flagged)
        })
        .collect();
    // The one shared localisation rule (also used by the fuzz oracle
    // and the Turkey fixture).
    let (onset, lift) =
        encore_repro::encore::localise_transitions(rows.iter().map(|&(w, _, f)| (w, f)));
    AdaptiveTimelineVerdict { rows, onset, lift }
}

struct AdaptiveTimelineVerdict {
    rows: Vec<(u64, usize, bool)>,
    onset: Option<u64>,
    lift: Option<u64>,
}

fn run(shards: usize) -> (ShardedWorldRun, AdaptiveTimelineVerdict) {
    let scenario = scenario(
        adaptive_fixture::world(),
        adaptive_fixture::recipe(DAYS, RATE),
    );
    let run = ThreadTransport
        .run(&scenario, shards, SEED)
        .expect("in-process shards merge");
    let verdict = judge(&run.collection.records, &run.geo, censor_country());
    (run, verdict)
}

#[test]
fn adaptive_timeline_matches_golden_and_is_shard_invariant() {
    let (serial, verdict) = run(1);
    assert_eq!(
        serial.outcome.control_signals_applied, 5,
        "all five scheduled reactions must land"
    );

    let artifact = AdaptiveTimeline {
        seed: SEED,
        days: DAYS,
        visits: serial.outcome.report.visits,
        control_signals_applied: serial.outcome.control_signals_applied,
        day_rows: verdict.rows.clone(),
        onset_day: verdict.onset,
        lift_day: verdict.lift,
    };
    let json = serde_json::to_string_pretty(&artifact).expect("artifact serializes");

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/adaptive_timeline.json"
    );
    if std::env::var("ENCORE_BLESS").is_ok() {
        std::fs::write(golden_path, &json).expect("write golden");
        eprintln!("[blessed {golden_path}]");
    }
    let golden = std::fs::read_to_string(golden_path).expect(
        "golden snapshot missing — regenerate with ENCORE_BLESS=1 cargo test --test adaptive_world",
    );
    assert_eq!(
        json, golden,
        "adaptive timeline drifted from tests/golden/adaptive_timeline.json \
         (regenerate with ENCORE_BLESS=1 if the change is intentional)"
    );

    // Semantic checks on top of the byte pin — the ladder must actually
    // tell its story. Passive watching: clear.
    for (d, _, flagged) in &verdict.rows {
        if *d < RST_DAY {
            assert!(!flagged, "day {d}: watch stage must not interfere");
        }
        // Every hard rung up to retaliation is decisively flagged.
        if (RST_DAY..RETALIATE_DAY).contains(d) {
            assert!(flagged, "day {d}: escalated censor must be detected");
        }
        // After stand-down the block is gone (the 1-hour lying TTL may
        // bleed a few failures into day 27, but not a verdict).
        if *d >= STAND_DOWN_DAY {
            assert!(!flagged, "day {d}: stood-down censor still flagged");
        }
    }
    assert_eq!(
        verdict.onset,
        Some(RST_DAY),
        "onset localises to the first rung"
    );
    assert_eq!(
        verdict.lift,
        Some(RETALIATE_DAY),
        "the flag clears when retaliation silences the country, not when the block lifts"
    );
    // Retaliation blackout: while the collection server is blocked, the
    // country's records collapse instead of failing.
    let clear_days: Vec<usize> = verdict
        .rows
        .iter()
        .filter(|(d, _, _)| *d < RST_DAY)
        .map(|(_, n, _)| *n)
        .collect();
    let mean_clear = clear_days.iter().sum::<usize>() as f64 / clear_days.len() as f64;
    for (d, n, _) in &verdict.rows {
        if (RETALIATE_DAY..STAND_DOWN_DAY).contains(d) {
            assert!(
                (*n as f64) < mean_clear * 0.2,
                "day {d}: retaliation should silence the country ({n} records vs \
                 ~{mean_clear:.0} on clear days)"
            );
        }
    }

    // Shard invariance: the 2-shard run reaches the identical verdict.
    let (sharded, verdict2) = run(2);
    assert_eq!(
        sharded.outcome.control_signals_applied, 5,
        "broadcast reactions must land on every shard"
    );
    assert_eq!(verdict2.onset, verdict.onset, "2-shard onset differs");
    assert_eq!(verdict2.lift, verdict.lift, "2-shard lift differs");
    let flags = |v: &AdaptiveTimelineVerdict| -> Vec<u64> {
        v.rows
            .iter()
            .filter(|(_, _, f)| *f)
            .map(|(d, _, _)| *d)
            .collect()
    };
    assert_eq!(
        flags(&verdict2),
        flags(&verdict),
        "2-shard flag series differs from serial"
    );
}

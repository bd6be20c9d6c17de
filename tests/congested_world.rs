//! Golden snapshot of the congestion-vs-censorship world.
//!
//! `bench::testkit::congested_fixture` runs 30 days over a routed
//! scale-free AS topology: Turkey's path to the US-hosted target crosses a
//! transit hotspot that browns out from day 8 to day 14, and a real DNS
//! block lands on day 10 — two days *into* the brownout. The scenario pins
//! three things:
//!
//! 1. **Golden byte-identity** — the serial (1-shard) run's day-by-day
//!    detector verdict (plus the per-day congestion-signal counts)
//!    serializes byte-identically to
//!    `tests/golden/congested_world.json` (regenerate with
//!    `ENCORE_BLESS=1 cargo test --test congested_world`).
//! 2. **Congestion is not censorship** — days 8–9 lose fetches to
//!    shedding and carry visible congestion signals, yet are *never*
//!    flagged; the detector localises onset exactly at day 10, when the
//!    real block lands.
//! 3. **Shard invariance** — a 2-shard run of the same recipe reaches
//!    the identical verdict, because `build_shard` scales hotspot
//!    capacity with the shard count and the brownout mutations broadcast
//!    to every shard.

use bench::testkit::congested_fixture::{
    self, build, censor_country, BLOCK_LIFT, BLOCK_ONSET, BROWNOUT_END, BROWNOUT_START, TARGET,
};
use encore_repro::encore::{FilteringDetector, GeoDb, StoredMeasurement};
use encore_repro::netsim::geo::{CountryCode, World};
use encore_repro::population::{run_sharded_world, Audience, ShardedWorldRun};
use encore_repro::sim_core::SimDuration;
use serde::Serialize;

const SEED: u64 = 0xC0_46E5;
const DAYS: u64 = 30;
const RATE: f64 = 300.0;

/// The golden artifact: the §7.2 windowed verdict over the routed run,
/// plus the per-day congestion-signal counts that show the brownout was
/// both real and correctly discounted.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct CongestedTimeline {
    seed: u64,
    topology_seed: u64,
    days: u64,
    visits: u64,
    policy_changes_applied: usize,
    /// `(day, result records from the censoring country,
    /// congestion-signaled failures among them, flagged)`.
    day_rows: Vec<(u64, usize, usize, bool)>,
    onset_day: Option<u64>,
    lift_day: Option<u64>,
}

struct CongestedVerdict {
    rows: Vec<(u64, usize, usize, bool)>,
    onset: Option<u64>,
    lift: Option<u64>,
}

/// Per-day record counts, congestion-signal counts, and the flag series
/// for `cc:TARGET` — the fixture's single verdict definition.
fn judge(records: &[StoredMeasurement], geo: &GeoDb, cc: CountryCode) -> CongestedVerdict {
    let day = SimDuration::from_days(1);
    let reports = FilteringDetector::default().detect_windows(records, geo, day);
    let rows: Vec<(u64, usize, usize, bool)> = reports
        .iter()
        .map(|r| {
            let flagged = r
                .detections
                .iter()
                .any(|d| d.country == cc && d.domain == TARGET);
            let day_cc: Vec<&StoredMeasurement> = records
                .iter()
                .filter(|rec| {
                    rec.received_at.as_micros() / day.as_micros() == r.window
                        && rec.submission.phase == encore_repro::encore::SubmissionPhase::Result
                        && geo.lookup(rec.client_ip) == Some(cc)
                })
                .collect();
            let signaled = day_cc.iter().filter(|rec| rec.submission.congested).count();
            (r.window, day_cc.len(), signaled, flagged)
        })
        .collect();
    let (onset, lift) =
        encore_repro::encore::localise_transitions(rows.iter().map(|&(w, _, _, f)| (w, f)));
    CongestedVerdict { rows, onset, lift }
}

fn run(shards: usize) -> (ShardedWorldRun, CongestedVerdict) {
    let recipe = congested_fixture::recipe(DAYS, RATE);
    let audience = Audience::world(&World::builtin());
    let run = run_sharded_world(&build, &audience, &recipe, shards, SEED);
    let verdict = judge(&run.collection.records, &run.geo, censor_country());
    (run, verdict)
}

#[test]
fn congested_timeline_matches_golden_and_is_shard_invariant() {
    let (serial, verdict) = run(1);
    assert_eq!(
        serial.outcome.policy_changes_applied, 2,
        "install and lift must both land"
    );

    let artifact = CongestedTimeline {
        seed: SEED,
        topology_seed: congested_fixture::TOPOLOGY_SEED,
        days: DAYS,
        visits: serial.outcome.report.visits,
        policy_changes_applied: serial.outcome.policy_changes_applied,
        day_rows: verdict.rows.clone(),
        onset_day: verdict.onset,
        lift_day: verdict.lift,
    };
    let json = serde_json::to_string_pretty(&artifact).expect("artifact serializes");

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/congested_world.json"
    );
    if std::env::var("ENCORE_BLESS").is_ok() {
        std::fs::write(golden_path, &json).expect("write golden");
        eprintln!("[blessed {golden_path}]");
    }
    let golden = std::fs::read_to_string(golden_path).expect(
        "golden snapshot missing — regenerate with ENCORE_BLESS=1 cargo test --test congested_world",
    );
    assert_eq!(
        json, golden,
        "congested timeline drifted from tests/golden/congested_world.json \
         (regenerate with ENCORE_BLESS=1 if the change is intentional)"
    );

    // Semantic checks on top of the byte pin — the trap must actually be
    // armed and the detector must actually step over it.
    for (d, _, signaled, flagged) in &verdict.rows {
        // Before the brownout: clear and signal-free.
        if *d < BROWNOUT_START {
            assert!(!flagged, "day {d}: pre-brownout day flagged");
            assert_eq!(*signaled, 0, "day {d}: congestion signal before brownout");
        }
        // The brownout-only prefix days are the trap: sheds happen
        // (signals visible), yet no verdict.
        if (BROWNOUT_START..BLOCK_ONSET).contains(d) {
            assert!(
                !flagged,
                "day {d}: congestion-only day must never be flagged"
            );
            assert!(
                *signaled > 0,
                "day {d}: the brownout should visibly shed fetches"
            );
        }
        // Every blocked day is decisively flagged despite the brownout.
        if (BLOCK_ONSET..BLOCK_LIFT).contains(d) {
            assert!(flagged, "day {d}: real block on a congested path missed");
        }
        // After block lift and brownout clear: quiet again.
        if *d >= BROWNOUT_END {
            assert!(!flagged, "day {d}: flag survived the lift");
            assert_eq!(*signaled, 0, "day {d}: congestion signal after brownout");
        }
    }
    assert_eq!(
        verdict.onset,
        Some(BLOCK_ONSET),
        "onset must localise to the real block, not the brownout"
    );
    assert_eq!(verdict.lift, Some(BLOCK_LIFT), "lift must localise exactly");

    // Shard invariance: the 2-shard run reaches the identical verdict.
    let (sharded, verdict2) = run(2);
    assert_eq!(
        sharded.outcome.policy_changes_applied, 2,
        "policy changes must land on every shard"
    );
    assert_eq!(verdict2.onset, verdict.onset, "2-shard onset differs");
    assert_eq!(verdict2.lift, verdict.lift, "2-shard lift differs");
    let flags = |v: &CongestedVerdict| -> Vec<u64> {
        v.rows
            .iter()
            .filter(|(_, _, _, f)| *f)
            .map(|(d, _, _, _)| *d)
            .collect()
    };
    assert_eq!(
        flags(&verdict2),
        flags(&verdict),
        "2-shard flag series differs from serial"
    );
}

//! Golden snapshot of the flagship generative-corpus world report.
//!
//! `bench::corpus_fixture` runs 90 days over a seeded
//! `websim::corpus::Corpus` — 12 Zipf-ranked sites with scale-free
//! cross-links, installed identically on every shard because the
//! generated web is `Send + Sync` (`Arc<SiteContent>` throughout) — under
//! four simultaneous censor stories: the standing CN/IR/PK registry
//! regimes, Turkey's scheduled twitter.com block (days 30–60), Russia's
//! adaptive escalation against the corpus' rank-0 site (RST day 20 →
//! DNS poison day 35 → IP block day 50 → stand-down day 75), and three
//! *benign* disruptions against the measured rank-1 site (origin outage
//! days 40–42, cert rotation day 55, permanent redesign day 70).
//!
//! The collector folds each submission into 1-day `(domain, country)`
//! cells as it arrives and keeps no record; the report is judged off
//! those cells (`FilteringDetector::judge_streamed`). The scenario pins
//! four things:
//!
//! 1. **Golden byte-identity** — the serial run's full artifact
//!    serializes byte-identically to `tests/golden/world_report.json`
//!    (regenerate with `ENCORE_BLESS=1 cargo test --test world_report`).
//!    `bench world_report` writes the same artifact, so CI's
//!    `diff results/world_report.json tests/golden/world_report.json`
//!    and this test can never disagree.
//! 2. **Zero false positives with localisation** — every censor story is
//!    localised to its ground-truth onset/lift day, while the globally
//!    disrupted domain is *never* detected as censored anywhere, even
//!    though it fails hard on 23 of the 90 days.
//! 3. **Shard invariance** — a 2-shard run reaches the identical verdict
//!    set (every pair's onset, lift, and flag series, and the disruption
//!    soundness counts).
//! 4. **Nothing kept, nothing shed** — at 1 and 2 shards the run holds
//!    no records, ingest dropped nothing, and the fold accepted every
//!    submission the visits delivered: the condition under which the
//!    cells judge exactly as the full record log would.
//!
//! The golden run keeps no visit log, as `bench world_report` does. What
//! the visits delivered is read off a log, so a serial run that keeps
//! one (`Retain::Full`) must equal it in everything but that log and
//! carries the delivery count at 1 shard; the 2-shard run keeps one too.

use bench::corpus_fixture::{
    self, build, CERT_ROTATION_DAY, DAYS, OUTAGE_END, OUTAGE_START, RATE, REDESIGN_DAY, RU_RST_DAY,
    RU_STAND_DOWN_DAY, TR_BLOCK_LIFT, TR_BLOCK_ONSET,
};
use encore_repro::population::{run_sharded_world, Retain, ShardedWorldRun, WorldOutcome};

const SEED: u64 = 0x0000_E7C0_2015; // bench::DEFAULT_SEED — the command's gate engages here.

fn run(shards: usize, retain: Retain) -> (ShardedWorldRun, corpus_fixture::WorldReport) {
    let recipe = corpus_fixture::recipe(DAYS, RATE).retain_visits(retain);
    let audience = corpus_fixture::audience();
    let run = run_sharded_world(&build, &audience, &recipe, shards, SEED);
    assert_keeps_no_records_and_sheds_nothing(&run, shards);
    if retain == Retain::Full {
        assert_accepted_every_delivery(&run, shards);
    } else {
        assert!(run.outcome.log.is_empty(), "{shards} shard(s) kept a log");
    }
    let report = corpus_fixture::report(&run, shards, DAYS, SEED);
    (run, report)
}

/// The flagship is judged off its ingest fold, which equals the exact
/// record log's verdicts only if ingest took every submission: no
/// record is kept, nothing is shed, and (with a log to count them on,
/// `assert_accepted_every_delivery`) the fold accepted exactly what
/// the visits delivered.
fn assert_keeps_no_records_and_sheds_nothing(run: &ShardedWorldRun, shards: usize) {
    assert!(
        run.collection.records.is_empty(),
        "{shards} shard(s): {} records kept",
        run.collection.records.len()
    );
    let stats = run
        .collection
        .streaming
        .as_ref()
        .expect("the flagship streams");
    assert_eq!(
        stats.drops.total(),
        0,
        "{shards} shard(s): {:?}",
        stats.drops
    );
    let summary = run.outcome.streaming.expect("a streaming run's summary");
    assert_eq!(stats.accepted, summary.accepted, "{shards} shard(s)");
}

/// The fold accepted every init and result the logged visits delivered.
fn assert_accepted_every_delivery(run: &ShardedWorldRun, shards: usize) {
    let stats = run
        .collection
        .streaming
        .as_ref()
        .expect("the flagship streams");
    assert_eq!(run.outcome.log.len() as u64, run.outcome.report.visits);
    let delivered: usize = run
        .outcome
        .log
        .iter()
        .map(|v| v.outcome.inits_delivered + v.outcome.results_delivered)
        .sum();
    assert_eq!(stats.accepted, delivered as u64, "{shards} shard(s)");
}

#[test]
fn world_report_matches_golden_and_is_shard_invariant() {
    let (serial, report) = run(1, Retain::None);
    assert_eq!(
        serial.outcome.policy_changes_applied, 2,
        "TR install + lift must both land"
    );
    assert_eq!(
        serial.outcome.control_signals_applied, 4,
        "all four RU escalation reactions must land"
    );

    let json = serde_json::to_string_pretty(&report).expect("artifact serializes");
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/world_report.json"
    );
    if std::env::var("ENCORE_BLESS").is_ok() {
        std::fs::write(golden_path, &json).expect("write golden");
        eprintln!("[blessed {golden_path}]");
    }
    let golden = std::fs::read_to_string(golden_path).expect(
        "golden snapshot missing — regenerate with ENCORE_BLESS=1 cargo test --test world_report",
    );
    assert_eq!(
        json, golden,
        "world report drifted from tests/golden/world_report.json \
         (regenerate with ENCORE_BLESS=1 if the change is intentional)"
    );

    // Semantic checks on top of the byte pin — the corpus world must
    // actually tell its four censor stories and stay silent on the
    // benign one.
    let v = &report.verdicts;
    let pair = |cc: &str, domain: &str| {
        v.pairs
            .iter()
            .find(|p| p.country == cc && p.domain == domain)
            .unwrap_or_else(|| panic!("tracked pair {cc}:{domain} missing"))
    };
    let corpus = corpus_fixture::corpus();
    let rank0 = corpus_fixture::adaptive_target(&corpus);
    let rank1 = corpus_fixture::disrupted_domain(&corpus);

    // Standing registry regimes: flagged from day 0, never lifted.
    for (cc, domain) in [
        ("CN", "twitter.com"),
        ("IR", "twitter.com"),
        ("CN", "youtube.com"),
        ("PK", "youtube.com"),
    ] {
        let p = pair(cc, domain);
        assert_eq!(p.onset_day, Some(0), "{cc}:{domain} onset");
        assert_eq!(p.lift_day, None, "{cc}:{domain} must never lift");
        assert_eq!(
            p.flagged_days.len() as u64,
            DAYS,
            "{cc}:{domain} flagged every day"
        );
    }
    // The scheduled Turkish block localises to its exact onset and lift.
    let tr = pair("TR", "twitter.com");
    assert_eq!(tr.onset_day, Some(TR_BLOCK_ONSET), "TR onset day");
    assert_eq!(tr.lift_day, Some(TR_BLOCK_LIFT), "TR lift day");
    // The adaptive escalation is detected across its whole active window
    // (address-matched RST through IP block), vanishing at stand-down.
    let ru = pair("RU", &rank0);
    assert_eq!(ru.onset_day, Some(RU_RST_DAY), "RU onset at the first rung");
    assert_eq!(
        ru.lift_day,
        Some(RU_STAND_DOWN_DAY),
        "RU lift at stand-down"
    );
    // The disrupted-but-benign domain: hard global failures on the
    // outage, rotation, and post-redesign days…
    let failure_days = &v.disrupted_failure_days;
    for d in OUTAGE_START..OUTAGE_END {
        assert!(
            failure_days.contains(&d),
            "outage day {d} must fail globally"
        );
    }
    assert!(
        failure_days.contains(&CERT_ROTATION_DAY),
        "cert-rotation day must fail globally"
    );
    for d in REDESIGN_DAY..DAYS {
        assert!(
            failure_days.contains(&d),
            "post-redesign day {d} must fail globally"
        );
    }
    // …and yet zero censorship detections anywhere, in any country: the
    // cross-region control absorbs global operational noise.
    assert_eq!(
        v.disrupted_detections, 0,
        "benign disruptions must never be flagged as censorship"
    );
    assert_eq!(v.disrupted_domain, rank1);
    let ru_rank1 = pair("RU", &rank1);
    assert_eq!(ru_rank1.onset_day, None, "no onset for the benign domain");
    assert!(
        ru_rank1.flagged_days.is_empty(),
        "no flags for the benign domain"
    );

    // The same serial run keeping its log is the golden run plus that
    // log, so the deliveries counted on it are the golden run's.
    let (logged, logged_report) = run(1, Retain::Full);
    let unlogged = WorldOutcome {
        log: Vec::new(),
        ..logged.outcome
    };
    assert_eq!(unlogged, serial.outcome, "retention moved the outcome");
    assert_eq!(logged.collection, serial.collection);
    assert_eq!(logged.per_shard, serial.per_shard);
    assert_eq!(logged_report, report, "retention moved the report");

    // Shard invariance: the 2-shard run reaches the identical verdicts.
    let (sharded, report2) = run(2, Retain::Full);
    assert_eq!(
        sharded.outcome.control_signals_applied, 4,
        "broadcast reactions must land on every shard"
    );
    assert_eq!(
        report2.verdicts, report.verdicts,
        "2-shard verdicts differ from serial"
    );
    assert_eq!(
        report2.corpus_domains, report.corpus_domains,
        "the corpus must be identical on every shard"
    );
}

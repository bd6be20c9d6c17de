//! The correctness gate inside every rep.
//!
//! Ground truth comes from the fixture constants (who blocks what, from
//! which day to which day), so it holds at any seed. At the default
//! seed two stronger pins apply: `world_report_90d` must be
//! byte-identical to `tests/golden/world_report.json`, and every
//! workload's report digest must equal the one under `expected/`.

use crate::rep::{StreamReport, TimelineReport};
use bench::corpus_fixture::{
    self, WorldReport, CERT_ROTATION_DAY, OUTAGE_END, OUTAGE_START, REDESIGN_DAY, RU_RST_DAY,
    RU_STAND_DOWN_DAY, TR_BLOCK_LIFT, TR_BLOCK_ONSET,
};
use bench::world_fixture::{LIFT_DAY, ONSET_DAY};
use population::ShardedWorldRun;
use serde::{Deserialize, Serialize};

/// The golden the flagship is byte-compared against, compiled in so the
/// comparison does not depend on the working directory.
const WORLD_REPORT_GOLDEN: &str = include_str!("../../tests/golden/world_report.json");

/// Default-seed report digests, one per workload.
const EXPECTED_DIGESTS: &str = include_str!("../expected/digests.json");

/// One correctness check on one rep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Whether it is a ground-truth detector verdict (these make up
    /// `verdict_error_rate`); the others are structural.
    pub verdict: bool,
    /// What was seen, when it did not hold.
    pub detail: String,
}

fn structural(name: &str, ok: bool, detail: impl FnOnce() -> String) -> Check {
    Check {
        name: name.to_string(),
        ok,
        verdict: false,
        detail: if ok { String::new() } else { detail() },
    }
}

fn verdict<T: PartialEq + std::fmt::Debug>(name: &str, got: T, want: T) -> Check {
    let ok = got == want;
    Check {
        name: name.to_string(),
        ok,
        verdict: true,
        detail: if ok {
            String::new()
        } else {
            format!("got {got:?}, ground truth {want:?}")
        },
    }
}

/// The pinned digests, as `(workload, digest)` pairs.
#[derive(Debug, Deserialize)]
struct ExpectedDigests {
    seed: u64,
    digests: Vec<(String, String)>,
}

/// At the pinned seed, the rep's digest must equal the pinned one.
/// Other seeds have no pin and add no check.
pub fn pinned_digest(workload: &str, seed: u64, digest: &str) -> Option<Check> {
    let expected: ExpectedDigests = match serde_json::from_str(EXPECTED_DIGESTS) {
        Ok(e) => e,
        Err(e) => {
            return Some(structural("expected/digests.json parses", false, || {
                format!("{e}")
            }))
        }
    };
    if seed != expected.seed {
        return None;
    }
    let pinned = expected.digests.iter().find(|(w, _)| w == workload);
    Some(structural(
        "report digest equals the pinned default-seed digest",
        pinned.is_some_and(|(_, d)| d == digest),
        || format!("got {digest}, pinned {:?}", pinned.map(|(_, d)| d)),
    ))
}

/// `world_report_90d`: the four censor stories localised to their
/// ground-truth days, silence on the benignly disrupted domain, and the
/// golden byte pin at the default seed.
pub fn world_report(
    report: &WorldReport,
    run: &ShardedWorldRun,
    bytes: &str,
    quick: bool,
    pinned: bool,
) -> Vec<Check> {
    let mut checks = vec![
        structural(
            "TR install and lift both applied",
            run.outcome.policy_changes_applied == 2,
            || format!("{} applied", run.outcome.policy_changes_applied),
        ),
        structural(
            "all four RU escalation signals applied",
            run.outcome.control_signals_applied == 4,
            || format!("{} applied", run.outcome.control_signals_applied),
        ),
    ];
    if quick {
        return checks;
    }
    let days = report.days;
    let v = &report.verdicts;
    let corpus = corpus_fixture::corpus();
    let rank0 = corpus_fixture::adaptive_target(&corpus);
    let rank1 = corpus_fixture::disrupted_domain(&corpus);
    let mut pair = |cc: &str, domain: &str, onset: Option<u64>, lift: Option<u64>, flagged: u64| {
        let found = v
            .pairs
            .iter()
            .find(|p| p.country == cc && p.domain == domain);
        checks.push(verdict(
            &format!("{cc}:{domain} (onset, lift, flagged days)"),
            found.map(|p| (p.onset_day, p.lift_day, p.flagged_days.len() as u64)),
            Some((onset, lift, flagged)),
        ));
    };
    // Standing registry regimes: flagged every day, never lifted.
    pair("CN", "twitter.com", Some(0), None, days);
    pair("IR", "twitter.com", Some(0), None, days);
    pair("CN", "youtube.com", Some(0), None, days);
    pair("PK", "youtube.com", Some(0), None, days);
    // The scheduled Turkish block and the Russian escalation, each
    // localised to its exact onset and lift.
    pair(
        "TR",
        "twitter.com",
        Some(TR_BLOCK_ONSET),
        Some(TR_BLOCK_LIFT),
        TR_BLOCK_LIFT - TR_BLOCK_ONSET,
    );
    pair(
        "RU",
        &rank0,
        Some(RU_RST_DAY),
        Some(RU_STAND_DOWN_DAY),
        RU_STAND_DOWN_DAY - RU_RST_DAY,
    );
    // The disrupted-but-benign domain is never censorship, anywhere.
    pair("RU", &rank1, None, None, 0);
    checks.push(verdict(
        "detections against the benignly disrupted domain",
        v.disrupted_detections,
        0,
    ));
    let must_fail: Vec<u64> = (OUTAGE_START..OUTAGE_END)
        .chain([CERT_ROTATION_DAY])
        .chain(REDESIGN_DAY..days)
        .collect();
    checks.push(structural(
        "outage, cert-rotation and post-redesign days fail globally",
        must_fail
            .iter()
            .all(|d| v.disrupted_failure_days.contains(d)),
        || format!("failure days {:?}", v.disrupted_failure_days),
    ));
    if pinned && report.seed == bench::DEFAULT_SEED {
        checks.push(structural(
            "report is byte-identical to tests/golden/world_report.json",
            bytes == WORLD_REPORT_GOLDEN,
            || {
                format!(
                    "{} bytes vs golden {}",
                    bytes.len(),
                    WORLD_REPORT_GOLDEN.len()
                )
            },
        ));
    }
    checks
}

/// `timeline_450k_*`: Turkey's block localised to its onset and lift.
pub fn timeline(report: &TimelineReport, quick: bool) -> Vec<Check> {
    let mut checks = vec![structural(
        "TR install and lift both applied",
        report.policy_changes_applied == 2,
        || format!("{} applied", report.policy_changes_applied),
    )];
    if !quick {
        checks.push(verdict(
            "TR:twitter.com onset day",
            report.judgment.onset_day,
            Some(ONSET_DAY),
        ));
        checks.push(verdict(
            "TR:twitter.com lift day",
            report.judgment.lift_day,
            Some(LIFT_DAY),
        ));
    }
    checks
}

/// `stream_*`: nothing shed, nothing mis-counted, and every closed
/// window flags exactly the registry's seven (domain, country) pairs.
pub fn stream(report: &StreamReport, run: &ShardedWorldRun, quick: bool) -> Vec<Check> {
    let delivered = run.outcome.report.results_delivered;
    let mut checks = vec![
        structural(
            "streaming analytics present and no exact records kept",
            run.collection.streaming.is_some() && run.collection.records.is_empty(),
            || format!("{} exact records", run.collection.records.len()),
        ),
        structural("no submission shed", report.dropped == 0, || {
            format!("{} dropped", report.dropped)
        }),
        structural(
            "accepted covers every delivered result",
            report.accepted >= delivered,
            || format!("accepted {} < delivered {delivered}", report.accepted),
        ),
    ];
    if quick {
        return checks;
    }
    let mut truth: Vec<String> = censor::registry::ground_truth()
        .iter()
        .map(|g| format!("{}:{}", g.domain, g.country))
        .collect();
    truth.sort();
    // The last window is still filling when the batch ends; every one
    // before it has closed.
    let closed = report.windows.len().saturating_sub(1);
    checks.push(structural("at least one window closed", closed > 0, || {
        format!("{} windows", report.windows.len())
    }));
    for (window, _, flagged) in &report.windows[..closed] {
        checks.push(verdict(
            &format!("window {window} flags exactly the registry pairs"),
            flagged,
            &truth,
        ));
    }
    checks
}

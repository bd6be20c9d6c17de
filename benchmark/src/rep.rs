//! One repetition of one workload, run inside a fresh child process.
//!
//! The rep role builds nothing ahead of time: it hands the spec to the
//! transport, judges the run, encodes the report, checks it, drops the
//! run, and prints one [`RepResult`] line. Every boundary it crosses is
//! timed from outside, by spans around this file's own calls into the
//! system under test.

use crate::check::{self, Check};
use crate::procfs;
use crate::spans::{Span, Spans};
use crate::spec::{Transport, Workload, WorldSpec};
use bench::specs::BenchWorldSpec;
use bench::{corpus_fixture, world_fixture};
use encore::FilteringDetector;
use netsim::geo::country;
use population::{
    ProcessTransport, ShardContext, ShardTransport, ShardedWorldRun, ThreadTransport,
    TransportStats, WorldSpec as _,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// What the judged run looked like, for digesting and checking. All of
/// it is transport-invariant: a thread run and a process run of the same
/// spec and seed must produce the same bytes.
#[derive(Debug, Clone, Serialize)]
pub struct StreamReport {
    /// Total visits.
    pub visits: u64,
    /// Submissions accepted into the streaming analytics.
    pub accepted: u64,
    /// Submissions dropped, all causes.
    pub dropped: u64,
    /// Rollup points kept plus folded away.
    pub rollups: u64,
    /// `(window, measurements, sorted "domain:CC" detections)`.
    pub windows: Vec<(u64, usize, Vec<String>)>,
}

/// The timeline workloads' report.
#[derive(Debug, Clone, Serialize)]
pub struct TimelineReport {
    /// Total visits.
    pub visits: u64,
    /// Retained collection records.
    pub records: usize,
    /// Policy-timeline changes that mutated the world.
    pub policy_changes_applied: usize,
    /// The tracked pair's per-day series and localised transitions.
    pub judgment: world_fixture::TimelineJudgment,
    /// Daily rollups.
    pub rollups: population::RollupSeries,
}

/// Deterministic work counts of one rep, read from the run's own
/// `BatchReport`, `StreamingStats` and `TransportStats`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Counts {
    /// Visits simulated.
    pub visits: u64,
    /// Per-shard visits, in shard order.
    pub per_shard_visits: Vec<u64>,
    /// Collection records retained (exact mode).
    pub records: u64,
    /// Browser clients created.
    pub clients_created: u64,
    /// Session fetches issued.
    pub session_fetches: u64,
    /// DNS lookups answered from a client cache.
    pub dns_cache_hits: u64,
    /// Fetches that reused an open connection.
    pub connections_reused: u64,
    /// Measurement tasks executed.
    pub tasks_executed: u64,
    /// Result submissions delivered.
    pub results_delivered: u64,
    /// Streaming: submissions accepted.
    pub accepted: u64,
    /// Streaming: resident analytics bytes after the merge.
    pub streaming_resident_bytes: u64,
    /// Streaming: `(window × country × domain)` cells judged.
    pub streaming_cells: u64,
    /// Process transport: data frames streamed.
    pub frames: u64,
    /// Process transport: payload bytes streamed.
    pub payload_bytes: u64,
    /// Process transport: largest single payload.
    pub largest_payload_bytes: u64,
    /// Process transport: peak outcome-shaped aggregates resident.
    pub peak_resident_outcomes: u64,
}

/// Everything one rep reports back to the harness.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RepResult {
    /// Workload name.
    pub workload: String,
    /// Run seed.
    pub seed: u64,
    /// Wall seconds from spec to report bytes (run + judge + encode).
    pub wall_s: f64,
    /// User + system CPU seconds of this process and its reaped workers.
    pub cpu_s: f64,
    /// Peak resident set of this (coordinator) process, MiB.
    pub peak_rss_mib: f64,
    /// `visits ÷ wall_s`.
    pub visits_per_s: f64,
    /// Wall seconds of each phase, by span name.
    pub phases: Vec<(String, f64)>,
    /// FNV-1a digest of the report bytes.
    pub digest: String,
    /// Work counts.
    pub counts: Counts,
    /// Every correctness check made on this rep.
    pub checks: Vec<Check>,
    /// Spans (traced reps only).
    pub spans: Vec<Span>,
}

impl RepResult {
    /// Checks that failed.
    pub fn failures(&self) -> impl Iterator<Item = &Check> {
        self.checks.iter().filter(|c| !c.ok)
    }

    /// Wall seconds of the named phase (0 if the rep had none).
    pub fn phase(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, s)| s)
    }
}

/// FNV-1a, 64-bit, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Everything a run needs before its first arrival, for every shard.
/// This is the unit `setup_s` times.
pub fn construct(workload: &Workload) {
    let spec = &workload.spec;
    std::hint::black_box(spec.audience());
    std::hint::black_box(spec.recipe());
    for index in 0..workload.shards {
        std::hint::black_box(spec.build(ShardContext {
            index,
            shards: workload.shards,
        }));
    }
}

/// Run the workload's spec on its transport.
fn transport_run(
    workload: &Workload,
    seed: u64,
) -> Result<(ShardedWorldRun, Option<TransportStats>), String> {
    match workload.transport {
        Transport::Threads => ThreadTransport
            .run(&workload.spec, workload.shards, seed)
            .map(|run| (run, None)),
        Transport::Process => {
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            ProcessTransport::new(exe)
                .run_with_stats(&workload.spec, workload.shards, seed)
                .map(|(run, stats)| (run, Some(stats)))
        }
    }
    .map_err(|e| format!("{} transport failed: {e}", workload.name))
}

/// The judged, encoded report of a finished run.
struct Judged {
    /// Report bytes (pretty JSON).
    bytes: String,
    /// Checks on the judged values.
    checks: Vec<Check>,
    /// Streaming cells judged.
    cells: u64,
}

/// Judge the run and encode its report, under `judge` and
/// `report_encode` spans.
fn judge(
    workload: &Workload,
    run: &ShardedWorldRun,
    seed: u64,
    quick: bool,
    pinned: bool,
    spans: &mut Spans,
) -> Judged {
    match workload.spec {
        WorldSpec::Fixture(BenchWorldSpec::Corpus { days, .. }) => {
            let s = spans.enter("judge");
            let report = corpus_fixture::report(run, workload.shards, days, seed);
            spans.exit(s);
            let s = spans.enter("report_encode");
            let bytes = serde_json::to_string_pretty(&report).expect("report serializes");
            spans.exit(s);
            Judged {
                checks: check::world_report(&report, run, &bytes, quick, pinned),
                bytes,
                cells: 0,
            }
        }
        WorldSpec::Fixture(_) => {
            let s = spans.enter("judge");
            let judgment = world_fixture::judge_timeline(
                &run.collection.records,
                &run.geo,
                country("TR"),
                world_fixture::TARGET,
            );
            spans.exit(s);
            let s = spans.enter("report_encode");
            let report = TimelineReport {
                visits: run.outcome.report.visits,
                records: run.collection.records.len(),
                policy_changes_applied: run.outcome.policy_changes_applied,
                judgment,
                rollups: run.outcome.rollups.clone(),
            };
            let bytes = serde_json::to_string_pretty(&report).expect("report serializes");
            spans.exit(s);
            Judged {
                checks: check::timeline(&report, quick),
                bytes,
                cells: 0,
            }
        }
        WorldSpec::StreamBatch { .. } | WorldSpec::ExactBatch { .. } => {
            let s = spans.enter("judge");
            let stats = run.collection.streaming.as_ref();
            let verdicts = stats.map(|st| FilteringDetector::default().judge_streamed(st));
            spans.exit(s);
            let s = spans.enter("report_encode");
            let report = StreamReport {
                visits: run.outcome.report.visits,
                accepted: stats.map_or(0, |st| st.accepted),
                dropped: stats.map_or(0, |st| st.drops.total()),
                rollups: run.outcome.rollups.len() as u64
                    + run
                        .outcome
                        .streaming
                        .as_ref()
                        .map_or(0, |s| s.evicted.points),
                windows: verdicts
                    .iter()
                    .flatten()
                    .map(|w| {
                        let mut keys: Vec<String> = w
                            .detections
                            .iter()
                            .map(|d| format!("{}:{}", d.domain, d.country))
                            .collect();
                        keys.sort();
                        (w.window, w.measurements, keys)
                    })
                    .collect(),
            };
            let bytes = serde_json::to_string_pretty(&report).expect("report serializes");
            spans.exit(s);
            Judged {
                checks: check::stream(&report, run, quick),
                bytes,
                cells: stats.map_or(0, |st| {
                    st.windows.iter().map(|w| w.cells.len() as u64).sum()
                }),
            }
        }
    }
}

fn counts(run: &ShardedWorldRun, stats: Option<&TransportStats>, cells: u64) -> Counts {
    let r = &run.outcome.report;
    let streaming = run.collection.streaming.as_ref();
    Counts {
        visits: r.visits,
        per_shard_visits: run.per_shard.iter().map(|s| s.visits).collect(),
        records: run.collection.records.len() as u64,
        clients_created: r.clients_created,
        session_fetches: r.session_fetches,
        dns_cache_hits: r.dns_cache_hits,
        connections_reused: r.connections_reused,
        tasks_executed: r.tasks_executed,
        results_delivered: r.results_delivered,
        accepted: streaming.map_or(0, |s| s.accepted),
        streaming_resident_bytes: streaming.map_or(0, |s| s.resident_bytes() as u64),
        streaming_cells: cells,
        frames: stats.map_or(0, |s| s.data_frames),
        payload_bytes: stats.map_or(0, |s| s.streamed_payload_bytes),
        largest_payload_bytes: stats.map_or(0, |s| s.largest_payload_bytes),
        peak_resident_outcomes: stats.map_or(0, |s| s.peak_resident_outcomes as u64),
    }
}

/// Run one rep in this process. `traced` adds the standalone `setup`
/// span and returns the spans; the timed phases are the same either way.
/// `pinned` says the workload runs exactly as named, so the default-seed
/// pins (golden bytes, digest) apply.
pub fn run_rep(
    workload: &Workload,
    seed: u64,
    quick: bool,
    traced: bool,
    pinned: bool,
) -> Result<RepResult, String> {
    let mut spans = Spans::new(workload.name);
    let root = spans.enter("rep");
    if traced {
        let s = spans.enter("setup");
        construct(workload);
        spans.exit(s);
    }

    let started = Instant::now();
    let s = spans.enter("run");
    let (run, stats) = transport_run(workload, seed)?;
    spans.exit(s);
    let judged = judge(workload, &run, seed, quick, pinned, &mut spans);
    let wall_s = started.elapsed().as_secs_f64();

    let counts = counts(&run, stats.as_ref(), judged.cells);
    let s = spans.enter("teardown");
    drop(run);
    spans.exit(s);
    spans.exit(root);

    let mut checks = judged.checks;
    let digest = digest(judged.bytes.as_bytes());
    if pinned {
        checks.extend(check::pinned_digest(workload.name, seed, &digest));
    }
    let phases: Vec<(String, f64)> = ["setup", "run", "judge", "report_encode", "teardown"]
        .iter()
        .filter_map(|&name| spans.duration_s(name).map(|d| (name.to_string(), d)))
        .collect();
    Ok(RepResult {
        workload: workload.name.to_string(),
        seed,
        wall_s,
        cpu_s: procfs::cpu_seconds(),
        peak_rss_mib: procfs::peak_rss_mib(),
        visits_per_s: counts.visits as f64 / wall_s,
        phases,
        digest,
        counts,
        checks,
        spans: if traced { spans.into_vec() } else { Vec::new() },
    })
}

//! Longitudinal extension experiment — censorship onset and lifting.
//!
//! Not a numbered figure in the paper, but its core motivation (§1):
//! censorship "varies over time in response to changing social or
//! political conditions (e.g., a national election)" and measuring it
//! requires *continuous* collection. We simulate a 30-day deployment of
//! the `bench::world_fixture` recipe: Turkey's March-2014-style Twitter
//! block is a `censor::timeline::PolicyTimeline` with an install event
//! at day 10 and a lift event at day 20, fired between visit arrivals on
//! one continuously-running event-driven world
//! (`population::world::WorldEngine`). The policy changes mutate the
//! live network through the middlebox generation counter — warm pooled
//! clients' compiled session pipelines invalidate and re-match, no
//! per-day world rebuilds — and the windowed detector localises both
//! transitions to the correct day.
//!
//! The collection streams, as a continuous deployment's would: no record
//! log is kept, each day's window closes into a count matrix as its
//! rollup fires, and the verdict is judged from those matrices. A run
//! that keeps a record, carries no sketch, or sheds a submission exits 1
//! as a STREAMING VIOLATION.
//!
//! `--shards N` runs the same recipe across N shards: the timeline
//! broadcasts to every shard, arrivals thin 1/N, and the merged
//! matrices feed one detector. `--transport {threads,process}` picks
//! the shard backend — in-process OS threads (the default) or worker
//! processes (this binary re-executed in its shard-worker role), each
//! shipping one sketch frame over the length-prefixed frame protocol;
//! both are byte-identical, so every check below is
//! transport-independent. At one shard `results/timeline.json` is
//! byte-identical to `tests/golden/timeline.json`
//! (`crates/bench/tests/timeline_golden.rs`); at more shards the
//! *verdict* — onset day, lift day — must still match the serial golden,
//! which this command checks itself against the copy compiled into the
//! binary.

use super::{gate_on_serial_golden, run_world, TIMELINE_GOLDEN};
use bench::fixtures::RunArgs;
use bench::print_table;
use bench::specs::BenchWorldSpec;
use bench::world_fixture::{self, TimelineJudgment, LIFT_DAY, ONSET_DAY, TARGET};
use netsim::geo::country;
use population::RollupSeries;
use serde::{Deserialize, Serialize};

#[derive(Serialize)]
struct Timeline {
    shards: usize,
    days: Vec<(u64, usize, bool)>, // (day, measurements, TR flagged)
    onset_day: Option<u64>,
    lift_day: Option<u64>,
    policy_changes_applied: usize,
    rollups: RollupSeries,
    visits: u64,
}

/// The verdict fields of a timeline artifact — what a sharded run must
/// agree with the serial golden on.
#[derive(Debug, PartialEq, Deserialize)]
struct Verdict {
    onset_day: Option<u64>,
    lift_day: Option<u64>,
}

/// Days the serial golden was recorded at.
const GOLDEN_DAYS: u64 = 30;

pub fn run(args: &RunArgs) {
    let (shards, transport) = (args.shards, args.transport);
    let days = args.days(GOLDEN_DAYS);

    // High enough that Turkey's daily measurement cell clears the
    // detector's minimum-n guard with day-level statistical power.
    let spec = BenchWorldSpec::Timeline {
        days,
        rate: 150.0,
        streaming: true,
    };
    let run = run_world("timeline", &spec, args);

    // No record log crosses the wire; the verdict is judged from the
    // merged per-window count matrices.
    if !run.collection.records.is_empty() {
        eprintln!(
            "STREAMING VIOLATION: {} exact records kept in streaming mode",
            run.collection.records.len()
        );
        std::process::exit(1);
    }
    let Some(stats) = run.collection.streaming.as_ref() else {
        eprintln!("STREAMING VIOLATION: streaming run carried no analytics sketch");
        std::process::exit(1);
    };
    if stats.drops.total() != 0 {
        eprintln!(
            "STREAMING VIOLATION: {} submissions dropped on the default ingest queue",
            stats.drops.total()
        );
        std::process::exit(1);
    }
    let TimelineJudgment {
        days: day_rows,
        onset_day,
        lift_day,
    } = world_fixture::judge_timeline_streamed(stats, country("TR"), TARGET);

    println!(
        "=== timeline: Turkey blocks {TARGET} on day {ONSET_DAY}, lifts on day {LIFT_DAY} ==="
    );
    // The effective configuration is printed so a stray flag is
    // immediately visible when a golden diff fails.
    println!(
        "({} visits over {days} days, seed {:#x}, across {} shard(s) on the {transport} \
         transport, streaming analytics; {} policy events; one detector window per day)\n",
        run.outcome.report.visits, args.seed, shards, run.outcome.policy_changes_applied
    );
    print_table(
        &["day", "measurements", "TR flagged"],
        &day_rows
            .iter()
            .map(|(d, m, f)| {
                vec![
                    d.to_string(),
                    m.to_string(),
                    if *f {
                        "FILTERED".into()
                    } else {
                        "-".to_string()
                    },
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!();
    print_table(
        &["event", "ground truth", "detected"],
        &[
            vec![
                "block onset".into(),
                format!("day {ONSET_DAY}"),
                onset_day
                    .map(|d| format!("day {d}"))
                    .unwrap_or("missed".into()),
            ],
            vec![
                "block lifted".into(),
                format!("day {LIFT_DAY}"),
                lift_day
                    .map(|d| format!("day {d}"))
                    .unwrap_or("missed".into()),
            ],
        ],
    );

    let name = match shards {
        1 => "timeline".to_string(),
        n => format!("timeline_shards{n}"),
    };
    args.write_results(
        &name,
        &Timeline {
            shards,
            days: day_rows,
            onset_day,
            lift_day,
            policy_changes_applied: run.outcome.policy_changes_applied,
            rollups: run.outcome.rollups.clone(),
            visits: run.outcome.report.visits,
        },
    );

    gate_on_serial_golden(
        args,
        (days, GOLDEN_DAYS),
        || serde_json::from_str(TIMELINE_GOLDEN).expect("the embedded golden parses"),
        &Verdict {
            onset_day,
            lift_day,
        },
    );
}

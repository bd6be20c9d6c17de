//! The `bench` commands: one module per experiment, the table the
//! dispatcher and the usage text are built from, and the two pieces the
//! world commands share — running a scenario on the selected transport,
//! and gating a run's verdict on the serial golden.

mod ablations;
mod demographics;
mod detection;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod overhead;
mod report;
mod simcheck;
mod soundness;
mod table1;
mod timeline;
mod world_report;

use bench::fixtures::{Command, RunArgs};
use bench::specs::SHARD_ROLE;
use population::transport::TransportKind;
use population::{ProcessTransport, Scenario, ShardTransport, ShardedWorldRun, ThreadTransport};
use std::fmt::Debug;

/// Every command, in the order the usage text lists them.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "table1",
        about: "Table 1: which task mechanism detects which filtering variety",
        flags: &[],
        run: table1::run,
    },
    Command {
        name: "fig4",
        about: "Figure 4: images per domain by size cap",
        flags: &[],
        run: fig4::run,
    },
    Command {
        name: "fig5",
        about: "Figure 5: page-size distribution",
        flags: &[],
        run: fig5::run,
    },
    Command {
        name: "fig6",
        about: "Figure 6: cacheable images per page by page weight",
        flags: &[],
        run: fig6::run,
    },
    Command {
        name: "fig7",
        about: "Figure 7: cached vs uncached image load times",
        flags: &[],
        run: fig7::run,
    },
    Command {
        name: "overhead",
        about: "§6.3: bytes and requests Encore adds to an origin page",
        flags: &[],
        run: overhead::run,
    },
    Command {
        name: "demographics",
        about: "§6.2: who performs Encore measurements",
        flags: &[],
        run: demographics::run,
    },
    Command {
        name: "detection",
        about: "§7.2: world-scale detection against the censor registry",
        flags: &["--days"],
        run: detection::run,
    },
    Command {
        name: "soundness",
        about: "§7.1: task soundness against the filtering testbed",
        flags: &[],
        run: soundness::run,
    },
    Command {
        name: "ablations",
        about: "design-parameter sweeps",
        flags: &[],
        run: ablations::run,
    },
    Command {
        name: "report",
        about: "researcher-facing Markdown country reports",
        flags: &[],
        run: report::run,
    },
    Command {
        name: "timeline",
        about: "30-day Turkey onset/lift timeline (golden-pinned)",
        flags: &["--shards", "--days", "--transport"],
        run: timeline::run,
    },
    Command {
        name: "world_report",
        about: "90-day generative-corpus world report (golden-pinned)",
        flags: &["--shards", "--days", "--transport"],
        run: world_report::run,
    },
    Command {
        name: "simcheck",
        about: "generative differential fuzz gate",
        flags: &["--cases", "--replay"],
        run: simcheck::run,
    },
];

/// This executable as a process transport's worker, spawned in its
/// worker role (see `main`): no sibling binary is ever looked up.
fn self_exec() -> ProcessTransport {
    let exe = std::env::current_exe().unwrap_or_else(|err| {
        eprintln!("bench: cannot locate this executable to re-execute it: {err}");
        std::process::exit(1);
    });
    ProcessTransport::new(exe).with_role(SHARD_ROLE)
}

/// Run `scenario` on the shard count and backend `args` selects, or
/// report the transport failure and exit 1.
fn run_world(command: &str, scenario: &Scenario, args: &RunArgs) -> ShardedWorldRun {
    let result = match args.transport {
        TransportKind::Threads => ThreadTransport.run(scenario, args.shards, args.seed),
        TransportKind::Process => self_exec().run(scenario, args.shards, args.seed),
    };
    result.unwrap_or_else(|err| {
        eprintln!("{command}: {} transport failed: {err}", args.transport);
        std::process::exit(1);
    })
}

/// The serial goldens, compiled in so the gate below works from any
/// directory.
const TIMELINE_GOLDEN: &str = include_str!("../../../../tests/golden/timeline.json");
const WORLD_REPORT_GOLDEN: &str = include_str!("../../../../tests/golden/world_report.json");

/// Gate a sharded run on the serial golden: the sampled visit stream
/// differs from the serial run, the detector's `verdict` must not —
/// drift exits 1. The goldens were recorded at the default seed and
/// `golden_days`, so the gate engages only there: a `--days 5` run
/// legitimately never sees a day-10 onset and must not be reported as
/// drift.
fn gate_on_serial_golden<V: PartialEq + Debug>(
    args: &RunArgs,
    (days, golden_days): (u64, u64),
    golden: impl FnOnce() -> V,
    verdict: &V,
) {
    if args.shards == 1 {
        return;
    }
    if days != golden_days || args.seed != bench::DEFAULT_SEED {
        eprintln!(
            "[non-default days/seed: skipping the serial-golden verdict check, which is \
             only meaningful at days={golden_days}, seed={:#x}]",
            bench::DEFAULT_SEED
        );
        return;
    }
    let golden = golden();
    if golden != *verdict {
        eprintln!(
            "VERDICT DRIFT at {} shards: serial golden\n{golden:#?}\nthis run\n{verdict:#?}",
            args.shards
        );
        std::process::exit(1);
    }
    println!(
        "\n[{}-shard verdict matches the serial golden]",
        args.shards
    );
}

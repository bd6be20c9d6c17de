//! `simcheck` — the generative differential fuzz gate.
//!
//! Draws a bounded budget of arbitrary generated worlds (arrival modes
//! × policy timelines × adaptive censors × housekeeping cadences) and
//! checks every one against the engine's claimed invariants: serial ==
//! 1-shard byte-identity, fixed-seed reproducibility, merge algebra,
//! detector verdict invariance across {1, 2, 4} shards, detector
//! soundness against each generated world's own ground truth, and
//! congestion soundness on routed worlds with transit brownouts
//! (censorship stays detectable, congestion never masquerades as it),
//! and corpus soundness on generative-web worlds (benign origin
//! outages on a measured corpus site never read as censorship).
//! See `crates/simcheck` for the generator and oracle definitions.
//!
//! Flags (on top of `--seed`, the root seed, and `--out`):
//!
//! * `--cases N` — case budget (default 200).
//! * `--replay CLASS:SEED` — regenerate exactly one world from a
//!   regression-file line (e.g. `--replay detector:0x1b2c`) and re-run
//!   its oracles, instead of a budgeted sweep.
//!
//! Every 4th case is also differenced threads-vs-process, on workers
//! that are this binary re-executed in its one worker role, sent each
//! case's scenario — the process backend cannot drop out of the gate.
//!
//! Writes `results/simcheck.json` and, on failure, the regression seed
//! file `results/simcheck-regressions.txt` (uploaded as a CI artifact),
//! then exits non-zero.

use super::self_exec;
use bench::fixtures::RunArgs;
use simcheck::{run_budget, SimCheckConfig};

pub fn run(args: &RunArgs) {
    let workers = self_exec();

    if let Some((class, seed)) = args.replay {
        println!("=== simcheck: replaying {class:?} case {seed:#x} ===");
        let violations = simcheck::replay(class, seed, &workers);
        if violations.is_empty() {
            println!("case upholds all invariants");
            return;
        }
        for v in &violations {
            println!("VIOLATION [{}]: {}", v.oracle, v.detail);
        }
        std::process::exit(1);
    }

    let config = SimCheckConfig {
        cases: args.cases,
        root_seed: args.seed,
        regression_path: Some(args.out_dir().join("simcheck-regressions.txt")),
        ..SimCheckConfig::default()
    };
    println!(
        "=== simcheck: {} generated worlds (every {}th detector-class), root seed {:#x} ===",
        config.cases, config.detector_every, config.root_seed
    );
    let report = run_budget(&config, &workers);
    println!(
        "{} worlds checked ({} equivalence, {} detector, {} congestion, {} corpus; {} censored, \
         {} transport-differenced, {} streaming-differenced of which {} shed): {} violation(s)",
        report.cases_run,
        report.equivalence_cases,
        report.detector_cases,
        report.congestion_cases,
        report.corpus_cases,
        report.censored_cases,
        report.transport_cases,
        report.streaming_cases,
        report.streaming_drop_cases,
        report.violations.len()
    );
    args.write_results("simcheck", &report);
    if !report.passed() {
        eprintln!(
            "simcheck FAILED — regression seeds in {:?}",
            args.out_dir().join("simcheck-regressions.txt")
        );
        std::process::exit(1);
    }
    println!("all invariants upheld over the generated scenario space");
}

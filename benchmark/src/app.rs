//! The binary's commands, shared by the main binary and the trace
//! binary (which differs only in carrying the counting allocator).
//!
//! * no command — the driver contract: `--workload W --seed N --seconds
//!   S --trace 0|1`, one JSON object as the last line of stdout;
//! * `run` — every workload (or `--workload W`), `--reps R` interleaved,
//!   every end-to-end metric by name and unit, `out/run.json`;
//! * `trace` — one traced pass per workload, every per-layer metric,
//!   `out/trace.json`;
//! * `selfcheck` — two full sets back to back against the benchmark's
//!   own bounds, `out/selfcheck.json`;
//! * `manifest` — print `BENCHMARK.json` from the metric registry.

use crate::cli::Flags;
use crate::harness::{
    self, Environment, Reps, RunOutput, SelfcheckOutput, DEFAULT_REPS, MIN_REPS, ROLE_ENV,
    ROLE_PROBES, ROLE_REP, ROLE_SETUP, ROLE_WORKER,
};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::{self, AllocCounter};
use crate::spec::{self, WORKLOADS};
use crate::trace::{self, TraceReport};
use serde::Serialize;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Seconds one driver-contract run measures (`run_seconds`).
pub const RUN_SECONDS: u32 = 15;

/// Entry point of both binaries.
pub fn main(allocs: Option<AllocCounter>) -> ExitCode {
    let role = std::env::var(ROLE_ENV).ok();
    if role.as_deref() == Some(ROLE_WORKER) {
        let code = population::worker_main::<spec::WorldSpec>();
        return ExitCode::from(u8::try_from(code).unwrap_or(1));
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first() {
        Some(a) if !a.starts_with("--") => Some(args.remove(0)),
        _ => None,
    };
    let result = Flags::parse(args).and_then(|flags| match (role.as_deref(), command.as_deref()) {
        (Some(ROLE_REP), _) => harness::rep_main(&flags).map(|()| true),
        (Some(ROLE_PROBES), _) => probes_main(&flags, allocs).map(|()| true),
        (Some(ROLE_SETUP), _) => harness::setup_main(&flags).map(|()| true),
        (Some(other), _) => Err(format!("unknown role {other:?}")),
        (None, None) => contract(&flags),
        (None, Some("run")) => run(&flags),
        (None, Some("trace")) => trace_cmd(&flags),
        (None, Some("selfcheck")) => selfcheck(&flags),
        (None, Some("manifest")) => {
            println!("{}", manifest());
            Ok(true)
        }
        (None, Some(other)) => Err(format!(
            "unknown command {other:?} (run, trace, selfcheck, manifest)"
        )),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn current_exe() -> Result<std::path::PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("current_exe: {e}"))
}

/// The probes role: run the probes, print the metric map.
fn probes_main(flags: &Flags, allocs: Option<AllocCounter>) -> Result<(), String> {
    // Anything this process spawns from here on is a shard worker.
    std::env::set_var(ROLE_ENV, ROLE_WORKER);
    let workload = flags.workload()?.ok_or("--workload is required")?;
    let scale = if flags.has("--quick") { 20 } else { 1 };
    let metrics = probes::run(&workload, flags.seed()?, scale, allocs)?;
    println!(
        "{}",
        serde_json::to_string(&metrics).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn reps(flags: &Flags) -> Result<usize, String> {
    let reps = flags.number::<usize>("--reps")?.unwrap_or(DEFAULT_REPS);
    if flags.has("--quick") {
        Ok(1)
    } else if reps < MIN_REPS {
        Err(format!("--reps must be at least {MIN_REPS}"))
    } else {
        Ok(reps)
    }
}

fn run(flags: &Flags) -> Result<bool, String> {
    let exe = current_exe()?;
    let quick = flags.has("--quick");
    let out = harness::run_set(
        &exe,
        &flags.workloads()?,
        flags.seed()?,
        quick,
        Reps::Fixed(reps(flags)?),
    );
    print_run(&out);
    let path = harness::write_out("run", &out)?;
    println!("\n[written {}]", path.display());
    Ok(out.correct())
}

fn print_run(out: &RunOutput) {
    let e = &out.environment;
    println!(
        "commit {} · {} · {} hw thread(s) · seed {:#x} · {} rep(s){}",
        e.commit,
        e.rustc,
        e.nproc,
        e.seed,
        e.reps,
        if e.quick { " · quick" } else { "" }
    );
    for w in &out.workloads {
        harness::print_report(w);
    }
    for c in &out.cross_checks {
        println!("FAILED {c}");
    }
    println!(
        "\n{}",
        if out.correct() {
            "all outputs correct"
        } else {
            "OUTPUTS INCORRECT"
        }
    );
}

/// The output of `trace`.
#[derive(Debug, Serialize)]
struct TraceOutput {
    environment: Environment,
    workloads: Vec<TraceReport>,
}

fn trace_set(flags: &Flags) -> Result<TraceOutput, String> {
    let exe = current_exe()?;
    let quick = flags.has("--quick");
    let seed = flags.seed()?;
    Ok(TraceOutput {
        environment: Environment::capture(seed, 1, quick),
        workloads: flags
            .workloads()?
            .into_iter()
            .map(|w| trace::trace_workload(&exe, w, seed, quick))
            .collect(),
    })
}

fn trace_cmd(flags: &Flags) -> Result<bool, String> {
    let out = trace_set(flags)?;
    for w in &out.workloads {
        trace::print_report(w);
    }
    let path = harness::write_out("trace", &out)?;
    println!("\n[written {}]", path.display());
    Ok(out.workloads.iter().all(|w| w.ops_failed == 0))
}

fn selfcheck(flags: &Flags) -> Result<bool, String> {
    let exe = current_exe()?;
    let (workloads, seed, reps) = (flags.workloads()?, flags.seed()?, reps(flags)?);
    let quick = flags.has("--quick");
    let first = harness::run_set(&exe, &workloads, seed, quick, Reps::Fixed(reps));
    let second = harness::run_set(&exe, &workloads, seed, quick, Reps::Fixed(reps));
    let rows = harness::selfcheck_rows(&first, &second);
    println!(
        "{:<22} {:<13} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "first median", "second median", "gap", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<22} {:<13} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.first,
            r.second,
            r.worsening * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            if r.pass { "pass" } else { "FAIL" }
        );
    }
    let out = SelfcheckOutput {
        environment: first.environment.clone(),
        correct: first.correct() && second.correct(),
        pass: rows.iter().all(|r| r.pass),
        rows,
        sets: vec![first, second],
    };
    for set in &out.sets {
        for w in &set.workloads {
            for f in &w.failures {
                println!("FAILED {}: {f}", w.workload);
            }
        }
    }
    let path = harness::write_out("selfcheck", &out)?;
    println!(
        "\nselfcheck {} · outputs {}\n[written {}]",
        if out.pass { "passed" } else { "FAILED" },
        if out.correct { "correct" } else { "INCORRECT" },
        path.display()
    );
    Ok(out.pass && out.correct)
}

/// One metric of the driver contract's result line.
#[derive(Debug, Serialize)]
struct ContractMetric {
    value: f64,
    unit: String,
}

/// The driver contract's result line.
#[derive(Debug, Serialize)]
struct ContractResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<String, ContractMetric>,
}

/// The driver contract: one workload, measured for `--seconds`, one
/// JSON object as the last line of stdout.
fn contract(flags: &Flags) -> Result<bool, String> {
    let exe = current_exe()?;
    let workload = flags.workload()?.ok_or("--workload is required")?;
    let seed = flags.seed()?;
    let seconds = flags
        .number::<f64>("--seconds")?
        .unwrap_or(f64::from(RUN_SECONDS));
    let traced = match flags.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let result = if traced {
        let report = trace::trace_workload(&exe, workload, seed, flags.has("--quick"));
        trace::print_report(&report);
        harness::write_out(
            "trace",
            &TraceOutput {
                environment: Environment::capture(seed, 1, flags.has("--quick")),
                workloads: vec![report.clone()],
            },
        )?;
        contract_result(
            report.ops_attempted,
            report.ops_failed,
            PER_LAYER
                .iter()
                .filter_map(|m| Some((m, *report.metrics.get(m.name)?))),
            PER_LAYER.len(),
        )
    } else {
        let out = harness::run_set(
            &exe,
            &[workload],
            seed,
            flags.has("--quick"),
            Reps::Budget(seconds),
        );
        print_run(&out);
        let w = &out.workloads[0];
        contract_result(
            w.ops_attempted,
            w.ops_failed,
            END_TO_END
                .iter()
                .filter_map(|m| Some((m, w.metrics.get(m.name)?.median))),
            END_TO_END.len(),
        )
    };
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(result.correct)
}

fn contract_result<'a>(
    attempted: usize,
    failed: usize,
    values: impl Iterator<Item = (&'a crate::metrics::Metric, f64)>,
    expected: usize,
) -> ContractResult {
    let metrics: BTreeMap<String, ContractMetric> = values
        .filter(|(_, v)| v.is_finite())
        .map(|(m, value)| {
            (
                m.name.to_string(),
                ContractMetric {
                    value,
                    unit: m.unit.to_string(),
                },
            )
        })
        .collect();
    ContractResult {
        correct: failed == 0 && attempted > 0 && metrics.len() == expected,
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}

/// `BENCHMARK.json`, generated from the registry so the two cannot
/// drift (a unit test compares them).
pub fn manifest() -> String {
    #[derive(Serialize)]
    struct Named {
        name: &'static str,
        why: &'static str,
    }
    #[derive(Serialize)]
    struct Listed {
        name: &'static str,
        unit: &'static str,
        better: &'static str,
        #[serde(skip_serializing_if = "Option::is_none")]
        bound: Option<f64>,
    }
    #[derive(Serialize)]
    struct Manifest {
        command: [&'static str; 2],
        paths: [&'static str; 1],
        run_seconds: u32,
        workloads: Vec<Named>,
        end_to_end: Vec<Listed>,
        per_layer: Vec<Listed>,
    }
    let listed = |metrics: &[crate::metrics::Metric]| -> Vec<Listed> {
        metrics
            .iter()
            .map(|m| Listed {
                name: m.name,
                unit: m.unit,
                better: m.better.as_str(),
                bound: m.bound,
            })
            .collect()
    };
    serde_json::to_string_pretty(&Manifest {
        command: ["bash", "benchmark/run.sh"],
        paths: ["benchmark"],
        run_seconds: RUN_SECONDS,
        workloads: WORKLOADS
            .iter()
            .map(|w| Named {
                name: w.name,
                why: w.why,
            })
            .collect(),
        end_to_end: listed(&END_TO_END),
        per_layer: listed(&PER_LAYER),
    })
    .expect("the manifest serializes")
}

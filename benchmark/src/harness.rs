//! The parent side of the benchmark: spawns one fresh child per
//! (workload, rep), strictly one at a time, and turns what the children
//! report into medians, a correctness verdict and the output files.
//!
//! The binary re-executes itself in a role named by [`ROLE_ENV`]: `rep`
//! runs one repetition, `setup` takes the `setup_s` samples, `probes`
//! runs the per-layer probes, `worker` is the process transport's shard
//! worker. No sibling worker binary is
//! ever looked up.

use crate::metrics::{Metric, END_TO_END};
use crate::rep::{self, RepResult};
use crate::spec::{Transport, Workload};
use crate::stats::{self, Summary};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Environment variable naming the role a re-executed child plays.
pub const ROLE_ENV: &str = "ENCORE_BENCH_ROLE";
/// The rep role: one repetition of one workload.
pub const ROLE_REP: &str = "rep";
/// The probes role: the per-layer probes of one workload.
pub const ROLE_PROBES: &str = "probes";
/// The setup role: the `setup_s` samples of one workload.
pub const ROLE_SETUP: &str = "setup";
/// The worker role: one shard of a process-transport run.
pub const ROLE_WORKER: &str = "worker";

/// Timed samples behind one `setup_s` reading.
pub const SETUP_SAMPLES: usize = 32;
/// Shortest wall one sample covers. The small worlds build in tens of
/// microseconds — too short to time one at a time, and 32 of them would
/// fit inside a single scheduler hiccup — so a sample repeats the
/// construction until this much time has passed and reports the mean.
pub const SETUP_SAMPLE_MIN: Duration = Duration::from_millis(5);
/// Fewest reps a budgeted (`--seconds`) run makes.
pub const MIN_REPS: usize = 3;
/// Reps of `run` and `selfcheck` unless `--reps` says otherwise.
pub const DEFAULT_REPS: usize = 5;

/// Where the human-facing commands write their JSON.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What one child is asked to do. Passed as its argument list, so a
/// failing child can be re-run by hand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildJob {
    /// The workload (possibly with shards/transport overridden).
    pub workload: Workload,
    /// Run seed.
    pub seed: u64,
    /// Smoke size.
    pub quick: bool,
    /// Record spans.
    pub traced: bool,
    /// The workload runs exactly as named, so the default-seed pins
    /// (golden bytes, digest) apply.
    pub pinned: bool,
}

impl ChildJob {
    /// An untraced rep of the workload as named.
    pub fn of(workload: Workload, seed: u64, quick: bool) -> ChildJob {
        ChildJob {
            workload,
            seed,
            quick,
            traced: false,
            pinned: !quick,
        }
    }

    fn args(&self) -> Vec<String> {
        let mut args = vec![
            "--workload".to_string(),
            self.workload.name.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--shards".to_string(),
            self.workload.shards.to_string(),
            "--transport".to_string(),
            match self.workload.transport {
                Transport::Threads => "threads",
                Transport::Process => "process",
            }
            .to_string(),
        ];
        for (flag, on) in [
            ("--quick", self.quick),
            ("--traced", self.traced),
            ("--pinned", self.pinned),
        ] {
            if on {
                args.push(flag.to_string());
            }
        }
        args
    }

    /// Rebuild a job from a child's argument list.
    pub fn from_args(args: &crate::cli::Flags) -> Result<ChildJob, String> {
        let mut workload = args.workload()?.ok_or("--workload is required")?;
        if let Some(shards) = args.number::<usize>("--shards")? {
            workload.shards = shards.max(1);
        }
        match args.value("--transport") {
            Some("threads") => workload.transport = Transport::Threads,
            Some("process") => workload.transport = Transport::Process,
            Some(other) => return Err(format!("unknown transport {other:?}")),
            None => {}
        }
        let quick = args.has("--quick");
        if quick {
            workload = workload.quick();
        }
        Ok(ChildJob {
            workload,
            seed: args.seed()?,
            quick,
            traced: args.has("--traced"),
            pinned: args.has("--pinned"),
        })
    }
}

/// Run `exe` in `role` with `args`; return the last line of its stdout.
/// The child is waited for before this returns, whatever happens.
pub fn run_child(exe: &Path, role: &str, args: &[String]) -> Result<String, String> {
    let output = Command::new(exe)
        .env(ROLE_ENV, role)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!("{role} child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("{role} child printed nothing"))
}

/// One rep in a fresh child of `exe`.
pub fn spawn_rep(exe: &Path, job: &ChildJob) -> Result<RepResult, String> {
    let line = run_child(exe, ROLE_REP, &job.args())?;
    serde_json::from_str(&line).map_err(|e| format!("rep child output: {e}"))
}

/// The rep role's `main`: run the job, print the result line.
pub fn rep_main(flags: &crate::cli::Flags) -> Result<(), String> {
    // Anything this process spawns from here on is a shard worker.
    std::env::set_var(ROLE_ENV, ROLE_WORKER);
    let job = ChildJob::from_args(flags)?;
    let result = rep::run_rep(&job.workload, job.seed, job.quick, job.traced, job.pinned)?;
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// `samples` timed constructions of everything the workload needs
/// before its first arrival (each the mean of back-to-back
/// constructions over at least [`SETUP_SAMPLE_MIN`]); the readings in
/// seconds.
fn measure_setup(workload: &Workload, samples: usize) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            let mut constructions = 0u32;
            while constructions == 0 || t.elapsed() < SETUP_SAMPLE_MIN {
                rep::construct(workload);
                constructions += 1;
            }
            t.elapsed().as_secs_f64() / f64::from(constructions)
        })
        .collect()
}

/// The setup role's `main`: take the samples, print them as a JSON list.
pub fn setup_main(flags: &crate::cli::Flags) -> Result<(), String> {
    let job = ChildJob::from_args(flags)?;
    let samples = flags.number::<usize>("--samples")?.unwrap_or(SETUP_SAMPLES);
    let readings = measure_setup(&job.workload, samples);
    println!(
        "{}",
        serde_json::to_string(&readings).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// `setup_s` samples from a fresh child of `exe` — like a rep, so that
/// nothing the long-lived harness process has done colours them.
fn spawn_setup(exe: &Path, workload: Workload, samples: usize) -> Result<Vec<f64>, String> {
    let mut args = ChildJob::of(workload, 0, false).args();
    args.extend(["--samples".to_string(), samples.to_string()]);
    let line = run_child(exe, ROLE_SETUP, &args)?;
    serde_json::from_str(&line).map_err(|e| format!("setup child output: {e}"))
}

/// How many reps a set makes of each workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reps {
    /// Exactly this many.
    Fixed(usize),
    /// Whole reps until this many seconds have passed, and at least
    /// [`MIN_REPS`].
    Budget(f64),
}

/// Everything measured for one workload in one set.
#[derive(Debug, Clone)]
pub struct WorkloadRuns {
    /// The workload.
    pub workload: Workload,
    /// `setup_s` readings, or why there are none.
    pub setup_s: Result<Vec<f64>, String>,
    /// One entry per rep, in run order.
    pub reps: Vec<Result<RepResult, String>>,
}

/// One measured set: every workload's setup readings, then the reps,
/// interleaved round-robin (w1…wn, w1…wn, …) so a noisy spell on the
/// machine spreads over all workloads instead of eating one.
pub fn measure_set(
    exe: &Path,
    workloads: &[Workload],
    seed: u64,
    quick: bool,
    reps: Reps,
) -> Vec<WorkloadRuns> {
    let samples = if quick { 4 } else { SETUP_SAMPLES };
    let mut runs: Vec<WorkloadRuns> = workloads
        .iter()
        .map(|&workload| WorkloadRuns {
            workload,
            setup_s: spawn_setup(exe, workload, samples),
            reps: Vec::new(),
        })
        .collect();
    let started = Instant::now();
    for round in 0.. {
        let more = match reps {
            Reps::Fixed(n) => round < n,
            Reps::Budget(seconds) => round < MIN_REPS || started.elapsed().as_secs_f64() < seconds,
        };
        if !more {
            break;
        }
        for run in &mut runs {
            let job = ChildJob::of(run.workload, seed, quick);
            let result = spawn_rep(exe, &job);
            match &result {
                Ok(r) => eprintln!(
                    "[{} rep {}: {:.3} s, {:.0} visits/s, {} failed checks]",
                    run.workload.name,
                    round + 1,
                    r.wall_s,
                    r.visits_per_s,
                    r.failures().count()
                ),
                Err(e) => eprintln!("[{} rep {}: FAILED: {e}]", run.workload.name, round + 1),
            }
            run.reps.push(result);
        }
    }
    runs
}

/// One workload's end-to-end report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// Every end-to-end metric, summarised over reps.
    pub metrics: BTreeMap<String, Summary>,
    /// Reps run.
    pub ops_attempted: usize,
    /// Reps that failed a check or did not finish.
    pub ops_failed: usize,
    /// Ground-truth verdicts checked, all reps.
    pub verdicts_checked: usize,
    /// Ground-truth verdicts wrong, all reps.
    pub verdicts_wrong: usize,
    /// The reps' report digest (they must all agree).
    pub digest: String,
    /// What failed, one line each.
    pub failures: Vec<String>,
}

impl WorkloadReport {
    /// Wrong ÷ checked ground-truth verdicts.
    pub fn verdict_error_rate(&self) -> f64 {
        if self.verdicts_checked == 0 {
            0.0
        } else {
            self.verdicts_wrong as f64 / self.verdicts_checked as f64
        }
    }

    /// The median of one end-to-end metric.
    pub fn median(&self, metric: &str) -> f64 {
        self.metrics.get(metric).map_or(f64::NAN, |s| s.median)
    }
}

/// Summarise one workload's runs and judge every rep.
pub fn report(run: &WorkloadRuns) -> WorkloadReport {
    let mut failures = Vec::new();
    let mut ops_failed = 0;
    let (mut checked, mut wrong) = (0, 0);
    let mut digests: Vec<&str> = Vec::new();
    let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (i, rep) in run.reps.iter().enumerate() {
        match rep {
            Err(e) => {
                ops_failed += 1;
                failures.push(format!("rep {}: {e}", i + 1));
            }
            Ok(r) => {
                checked += r.checks.iter().filter(|c| c.verdict).count();
                wrong += r.failures().filter(|c| c.verdict).count();
                let mut bad: Vec<String> = r
                    .failures()
                    .map(|c| format!("rep {}: {}: {}", i + 1, c.name, c.detail))
                    .collect();
                for (name, v) in [
                    ("visits_per_s", r.visits_per_s),
                    ("cpu_s", r.cpu_s),
                    ("peak_rss_mib", r.peak_rss_mib),
                ] {
                    if v > 0.0 && v.is_finite() {
                        values.entry(name).or_default().push(v);
                    } else {
                        bad.push(format!("rep {}: {name} read {v}", i + 1));
                    }
                }
                if digests.first().is_some_and(|&d| d != r.digest) {
                    bad.push(format!(
                        "rep {}: digest {} differs from rep 1's {}",
                        i + 1,
                        r.digest,
                        digests[0]
                    ));
                }
                digests.push(&r.digest);
                if !bad.is_empty() {
                    ops_failed += 1;
                }
                failures.extend(bad);
            }
        }
    }
    match &run.setup_s {
        Ok(readings) => {
            values.insert("setup_s", readings.clone());
        }
        Err(e) => {
            ops_failed += 1;
            failures.push(format!("setup: {e}"));
        }
    }
    WorkloadReport {
        workload: run.workload.name.to_string(),
        metrics: values
            .into_iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(name, v)| (name.to_string(), Summary::of(&v)))
            .collect(),
        ops_attempted: run.reps.len(),
        ops_failed,
        verdicts_checked: checked,
        verdicts_wrong: wrong,
        digest: digests.first().map_or(String::new(), |d| d.to_string()),
        failures,
    }
}

/// Cross-workload check: the same world on two transports must produce
/// the same report. Returns one line per disagreeing pair.
pub fn transport_pairs_agree(reports: &[WorkloadReport]) -> Vec<String> {
    let digest_of = |name: &str| {
        reports
            .iter()
            .find(|r| r.workload == name && !r.digest.is_empty())
            .map(|r| r.digest.as_str())
    };
    match (
        digest_of("timeline_450k_thr_x2"),
        digest_of("timeline_450k_proc_x2"),
    ) {
        (Some(a), Some(b)) if a != b => vec![format!(
            "timeline_450k_thr_x2 digest {a} differs from timeline_450k_proc_x2 digest {b}"
        )],
        _ => Vec::new(),
    }
}

/// Where and how a run was made; attached to every output file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Environment {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// Workload seed.
    pub seed: u64,
    /// Reps per workload (0 when a time budget decided).
    pub reps: usize,
    /// Smoke size.
    pub quick: bool,
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Environment {
    /// Describe this run.
    pub fn capture(seed: u64, reps: usize, quick: bool) -> Environment {
        Environment {
            commit: tool_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            ),
            rustc: tool_line("rustc", &["--version"]),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            seed,
            reps,
            quick,
        }
    }
}

/// Write `value` as pretty JSON to `out/<name>.json`.
pub fn write_out<T: Serialize>(name: &str, value: &T) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Print one workload's end-to-end table.
pub fn print_report(r: &WorkloadReport) {
    println!("\n== {} ==", r.workload);
    println!(
        "{:<16} {:<9} {:>14} {:>14} {:>14} {:>3}",
        "metric", "unit", "median", "min", "max", "n"
    );
    for m in END_TO_END {
        match r.metrics.get(m.name) {
            Some(s) => println!(
                "{:<16} {:<9} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                m.name, m.unit, s.median, s.min, s.max, s.n
            ),
            None => println!("{:<16} {:<9} {:>14}", m.name, m.unit, "missing"),
        }
    }
    println!(
        "{:<16} {:<9} {:>14} ({} wrong of {} checked)",
        "verdict_error_rate",
        "ratio",
        r.verdict_error_rate(),
        r.verdicts_wrong,
        r.verdicts_checked
    );
    println!(
        "ops_failed / ops_attempted: {} / {}   digest {}",
        r.ops_failed, r.ops_attempted, r.digest
    );
    for f in &r.failures {
        println!("  FAILED {f}");
    }
}

/// The output of `run`: environment, per-workload reports, per-rep raws.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunOutput {
    /// Where and how.
    pub environment: Environment,
    /// One report per workload.
    pub workloads: Vec<WorkloadReport>,
    /// Cross-workload failures.
    pub cross_checks: Vec<String>,
}

impl RunOutput {
    /// No rep failed and no cross-check disagreed.
    pub fn correct(&self) -> bool {
        self.cross_checks.is_empty()
            && self
                .workloads
                .iter()
                .all(|w| w.ops_failed == 0 && w.ops_attempted > 0)
    }
}

/// Measure one set and report it.
pub fn run_set(
    exe: &Path,
    workloads: &[Workload],
    seed: u64,
    quick: bool,
    reps: Reps,
) -> RunOutput {
    let runs = measure_set(exe, workloads, seed, quick, reps);
    let reports: Vec<WorkloadReport> = runs.iter().map(report).collect();
    RunOutput {
        environment: Environment::capture(
            seed,
            match reps {
                Reps::Fixed(n) => n,
                Reps::Budget(_) => 0,
            },
            quick,
        ),
        cross_checks: transport_pairs_agree(&reports),
        workloads: reports,
    }
}

/// One (metric, workload) row of `selfcheck`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelfcheckRow {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// First set's median.
    pub first: f64,
    /// Second set's median.
    pub second: f64,
    /// How much worse the second is, as a share of the first.
    pub worsening: f64,
    /// Quartile distance ÷ median over both sets' reps.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Neither direction moved by more than the bound.
    pub pass: bool,
}

/// The output of `selfcheck`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelfcheckOutput {
    /// Where and how.
    pub environment: Environment,
    /// One row per (metric, workload).
    pub rows: Vec<SelfcheckRow>,
    /// The two sets, with every rep's raw value.
    pub sets: Vec<RunOutput>,
    /// Both sets were correct.
    pub correct: bool,
    /// Every row passed.
    pub pass: bool,
}

/// Compare two sets of the same code against the benchmark's own bounds.
pub fn selfcheck_rows(first: &RunOutput, second: &RunOutput) -> Vec<SelfcheckRow> {
    let mut rows = Vec::new();
    for (a, b) in first.workloads.iter().zip(&second.workloads) {
        for m in END_TO_END {
            let (Some(sa), Some(sb)) = (a.metrics.get(m.name), b.metrics.get(m.name)) else {
                continue;
            };
            let all: Vec<f64> = sa.values.iter().chain(&sb.values).copied().collect();
            rows.push(selfcheck_row(&a.workload, &m, sa.median, sb.median, &all));
        }
    }
    rows
}

fn selfcheck_row(workload: &str, m: &Metric, first: f64, second: f64, all: &[f64]) -> SelfcheckRow {
    let bound = m.bound.expect("end-to-end metrics have bounds");
    let worsening = stats::worsening(m.better, first, second);
    SelfcheckRow {
        workload: workload.to_string(),
        metric: m.name.to_string(),
        first,
        second,
        worsening,
        spread: stats::spread(all).unwrap_or(0.0),
        bound,
        // Same code both times: a gap beyond the bound in either
        // direction means the bound cannot tell a change from noise.
        pass: worsening.abs() <= bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Better;

    #[test]
    fn selfcheck_row_passes_inside_the_bound_and_fails_outside_either_way() {
        let m = Metric {
            name: "visits_per_s",
            unit: "visits/s",
            better: Better::Higher,
            bound: Some(0.10),
            moves: "",
        };
        let row = selfcheck_row("w", &m, 100.0, 95.0, &[100.0, 95.0, 97.0]);
        assert!(row.pass && (row.worsening - 0.05).abs() < 1e-12);
        assert!(!selfcheck_row("w", &m, 100.0, 85.0, &[100.0, 85.0]).pass);
        assert!(!selfcheck_row("w", &m, 100.0, 115.0, &[100.0, 115.0]).pass);
    }

    #[test]
    fn child_job_round_trips_through_its_argument_list() {
        let mut workload = crate::spec::WORKLOADS[3];
        workload.transport = Transport::Process;
        let job = ChildJob {
            workload,
            seed: 0x3039,
            quick: false,
            traced: true,
            pinned: false,
        };
        let flags = crate::cli::Flags::parse(job.args()).expect("own args parse");
        assert_eq!(ChildJob::from_args(&flags), Ok(job));
    }
}

//! The budgeted fuzz runner.
//!
//! [`run_budget`] draws `cases` generated worlds (every
//! `detector_every`-th case from the detector class, then the
//! congestion and corpus schedules in priority order, the rest from the
//! equivalence class), checks each against its oracles, and aggregates
//! a [`SimCheckReport`]. On any violation it writes a **regression seed
//! file**: one line per failing case with the `(class, seed)` pair that
//! reproduces it via [`replay`] — the CI job uploads this file as an
//! artifact, so a red run is a one-command local repro.

use crate::generator::{CaseClass, WorldCase};
use crate::oracle::{check_case, check_streaming_case, Violation};
use crate::transport::check_transport;
use population::ProcessTransport;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// Configuration of one budgeted run.
#[derive(Debug, Clone)]
pub struct SimCheckConfig {
    /// Total generated worlds to check.
    pub cases: usize,
    /// Every n-th case is a detector-class world (0 disables the
    /// detector class entirely).
    pub detector_every: usize,
    /// Every n-th case (that is not already detector-class) is a
    /// congestion-class routed world (0 disables the class).
    pub congestion_every: usize,
    /// Every n-th case (that is not already detector- or
    /// congestion-class) is a corpus-class generative-web world
    /// (0 disables the class).
    pub corpus_every: usize,
    /// Root seed; case seeds derive from it deterministically.
    pub root_seed: u64,
    /// Where to write the regression seed file on failure (`None`
    /// disables).
    pub regression_path: Option<PathBuf>,
    /// Every n-th case additionally runs the transport-equivalence
    /// oracle — thread vs process backend, byte-identical (0 disables).
    pub transport_every: usize,
    /// Every n-th case additionally runs the streaming-equivalence
    /// oracle — exact vs bounded-memory analytics at {1, 2} shards,
    /// identical verdicts, plus zero false positives on uncensored
    /// worlds under ingest shedding (0 disables).
    pub streaming_every: usize,
}

impl Default for SimCheckConfig {
    fn default() -> Self {
        SimCheckConfig {
            cases: 200,
            detector_every: 5,
            congestion_every: 6,
            corpus_every: 7,
            root_seed: 0x51AC_4EC4,
            regression_path: Some(PathBuf::from("results/simcheck-regressions.txt")),
            transport_every: 4,
            streaming_every: 5,
        }
    }
}

/// Aggregate outcome of a budgeted run — the `results/simcheck.json`
/// artifact.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SimCheckReport {
    /// Worlds checked.
    pub cases_run: usize,
    /// Of which equivalence-class.
    pub equivalence_cases: usize,
    /// Of which detector-class.
    pub detector_cases: usize,
    /// Of which congestion-class.
    pub congestion_cases: usize,
    /// Of which corpus-class.
    pub corpus_cases: usize,
    /// Of which carried some censor model.
    pub censored_cases: usize,
    /// Of which also ran the transport-equivalence oracle.
    pub transport_cases: usize,
    /// Of which also ran the streaming-equivalence oracle.
    pub streaming_cases: usize,
    /// Streaming cases whose shedding variant actually dropped
    /// submissions — how often the zero-false-positive-under-drops
    /// check was exercised rather than vacuous.
    pub streaming_drop_cases: usize,
    /// Every violation found (empty = all invariants upheld).
    pub violations: Vec<Violation>,
}

impl SimCheckReport {
    /// Whether every generated world upheld every invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Derive the `i`-th case seed from the root (splitmix64 step — the
/// same scrambling the vendored proptest uses for nearby seeds).
fn case_seed(root: u64, index: usize) -> u64 {
    sim_core::splitmix_mix(root ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The class the `i`-th case of a run draws from.
fn class_for(config: &SimCheckConfig, index: usize) -> CaseClass {
    if config.detector_every > 0 && index.is_multiple_of(config.detector_every) {
        CaseClass::Detector
    } else if config.congestion_every > 0 && index.is_multiple_of(config.congestion_every) {
        CaseClass::Congestion
    } else if config.corpus_every > 0 && index.is_multiple_of(config.corpus_every) {
        CaseClass::Corpus
    } else {
        CaseClass::Equivalence
    }
}

/// Replay one `(class, seed)` pair from a regression file: regenerate
/// exactly that world and re-run every oracle — the transport oracle
/// included, over `process` workers running `worker_main::<WorldCase>()`,
/// so transport regressions replay with the same command as the rest.
pub fn replay(class: CaseClass, seed: u64, process: &ProcessTransport) -> Vec<Violation> {
    let case = WorldCase::from_seed(class, seed);
    let mut violations = check_case(&case);
    violations.extend(check_transport(&case, process));
    violations.extend(check_streaming_case(&case).0);
    violations
}

/// Run a bounded case budget and aggregate the report; the transport
/// oracle spawns `process` workers, which must run
/// `worker_main::<WorldCase>()`. Progress goes to stderr (one line every
/// 25 cases); violations also print as they are found so a long CI run
/// fails loudly, not silently at the end.
pub fn run_budget(config: &SimCheckConfig, process: &ProcessTransport) -> SimCheckReport {
    let mut report = SimCheckReport::default();
    for i in 0..config.cases {
        let class = class_for(config, i);
        let seed = case_seed(config.root_seed, i);
        let case = WorldCase::from_seed(class, seed);
        match class {
            CaseClass::Detector => report.detector_cases += 1,
            CaseClass::Equivalence => report.equivalence_cases += 1,
            CaseClass::Congestion => report.congestion_cases += 1,
            CaseClass::Corpus => report.corpus_cases += 1,
        }
        if !case.is_uncensored() {
            report.censored_cases += 1;
        }
        let mut violations = check_case(&case);
        if config.transport_every > 0 && i.is_multiple_of(config.transport_every) {
            violations.extend(check_transport(&case, process));
            report.transport_cases += 1;
        }
        if config.streaming_every > 0 && i.is_multiple_of(config.streaming_every) {
            let (streaming_violations, drops_active) = check_streaming_case(&case);
            violations.extend(streaming_violations);
            report.streaming_cases += 1;
            if drops_active {
                report.streaming_drop_cases += 1;
            }
        }
        for v in &violations {
            eprintln!(
                "[simcheck] VIOLATION case {i} (class {:?}, seed {:#x}) oracle {}: {}",
                v.class, v.seed, v.oracle, v.detail
            );
        }
        report.violations.extend(violations);
        report.cases_run += 1;
        if (i + 1) % 25 == 0 {
            eprintln!(
                "[simcheck] {}/{} worlds checked, {} violation(s)",
                i + 1,
                config.cases,
                report.violations.len()
            );
        }
    }
    if !report.passed() {
        if let Some(path) = &config.regression_path {
            write_regressions(path, &report.violations);
        }
    }
    report
}

/// Write the regression seed file: one `class=… seed=…` line per
/// failing case plus a replay hint.
fn write_regressions(path: &Path, violations: &[Violation]) {
    let mut lines = vec![
        "# simcheck regression seeds — replay with:".to_string(),
        "#   cargo run --release -p bench -- simcheck --replay <class>:<seed>".to_string(),
    ];
    let mut seen = std::collections::BTreeSet::new();
    for v in violations {
        let class = v.class.name();
        if seen.insert((class, v.seed)) {
            lines.push(format!(
                "class={class} seed={:#x} oracle={}",
                v.seed, v.oracle
            ));
        }
    }
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if std::fs::write(path, lines.join("\n") + "\n").is_ok() {
        eprintln!("[simcheck] regression seeds written to {path:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_stable_and_spread() {
        let a: Vec<u64> = (0..8).map(|i| case_seed(7, i)).collect();
        let b: Vec<u64> = (0..8).map(|i| case_seed(7, i)).collect();
        assert_eq!(a, b, "derivation must be deterministic");
        let mut uniq = a.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "seeds must not collide trivially");
        assert_ne!(case_seed(7, 0), case_seed(8, 0), "root seed matters");
    }

    #[test]
    fn class_schedule_interleaves() {
        let config = SimCheckConfig {
            cases: 15,
            detector_every: 5,
            congestion_every: 6,
            corpus_every: 7,
            ..SimCheckConfig::default()
        };
        let classes: Vec<CaseClass> = (0..15).map(|i| class_for(&config, i)).collect();
        assert_eq!(
            classes
                .iter()
                .filter(|c| **c == CaseClass::Detector)
                .count(),
            3, // indices 0, 5, 10
        );
        // Detector wins shared multiples (index 0); congestion takes the
        // rest of its schedule (indices 6 and 12 here), and corpus the
        // rest of its own (indices 7 and 14).
        assert_eq!(
            classes
                .iter()
                .filter(|c| **c == CaseClass::Congestion)
                .count(),
            2,
        );
        assert_eq!(classes[6], CaseClass::Congestion);
        assert_eq!(
            classes.iter().filter(|c| **c == CaseClass::Corpus).count(),
            2,
        );
        assert_eq!(classes[7], CaseClass::Corpus);
        assert_eq!(classes[14], CaseClass::Corpus);
        let none = SimCheckConfig {
            detector_every: 0,
            congestion_every: 0,
            corpus_every: 0,
            ..config
        };
        assert!((0..15).all(|i| class_for(&none, i) == CaseClass::Equivalence));
    }

    #[test]
    fn regression_file_round_trips_the_failing_case() {
        let dir = std::env::temp_dir().join("simcheck-regression-test");
        let path = dir.join("regressions.txt");
        let case = WorldCase::from_seed(CaseClass::Equivalence, 42);
        let violations = vec![Violation {
            seed: 42,
            class: CaseClass::Equivalence,
            oracle: "unit-test",
            detail: "synthetic".to_string(),
            case,
        }];
        write_regressions(&path, &violations);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("class=equivalence seed=0x2a oracle=unit-test"));
        assert!(text.contains("--replay"), "file must carry the repro hint");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! The generative differential harness, at tier-1 scale.
//!
//! CI runs the full budget (`cargo run --release -p bench -- simcheck
//! --cases 200`); this suite keeps a smaller always-on budget inside
//! `cargo test` so the invariants are exercised on every local run too,
//! plus proptest-driven spot properties over the generator/oracle pair.
//!
//! The transport oracle's workers are the `bench` binary itself
//! (`CARGO_BIN_EXE_bench`, which `cargo test` always builds) in its
//! case-worker role.

use bench::specs::CASE_ROLE;
use population::ProcessTransport;
use proptest::prelude::*;
use simcheck::generator::{CaseClass, CaseStrategy, WorldCase};
use simcheck::{check_case, run_budget, SimCheckConfig};

#[test]
fn small_budget_upholds_all_invariants() {
    // 12 worlds (3 detector-class, 1 congestion-class, 1 corpus-class,
    // 3 transport-differenced, 3 streaming-differenced): enough to
    // execute every oracle — including the routed congestion oracles,
    // the generative-corpus benignity oracle, the threads-vs-process
    // transport oracle, and the exact-vs-streaming analytics oracle —
    // on every run without dominating tier-1 time. The root seed
    // differs from the CI bin's default so the two sweeps cover
    // disjoint cases.
    let config = SimCheckConfig {
        cases: 12,
        detector_every: 5,
        congestion_every: 6,
        corpus_every: 7,
        transport_every: 4,
        streaming_every: 4,
        root_seed: 0x7157_C0DE,
        regression_path: None,
    };
    let workers = ProcessTransport::new(env!("CARGO_BIN_EXE_bench").into()).with_role(CASE_ROLE);
    let report = run_budget(&config, &workers);
    assert_eq!(report.cases_run, 12);
    assert_eq!(report.detector_cases, 3);
    assert_eq!(report.congestion_cases, 1);
    assert_eq!(report.corpus_cases, 1);
    assert_eq!(
        report.streaming_cases, 3,
        "the streaming oracle must run on every 4th case"
    );
    assert_eq!(
        report.transport_cases, 3,
        "the transport oracle must run on every 4th case"
    );
    assert!(
        report.censored_cases >= 3,
        "the generator should censor most worlds ({} of 10)",
        report.censored_cases
    );
    assert!(
        report.passed(),
        "invariant violations: {:#?}",
        report.violations
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Each drawn equivalence-class world upholds the exact-replay
    // oracles (lockstep, reproducibility, merge algebra) — the
    // proptest-macro entry point into the same oracle the budgeted
    // runner uses.
    #[test]
    fn arbitrary_equivalence_worlds_uphold_exact_replay(
        case in CaseStrategy { class: CaseClass::Equivalence },
    ) {
        let violations = check_case(&case);
        prop_assert!(
            violations.is_empty(),
            "case seed {:#x}: {violations:#?}",
            case.seed
        );
    }

    // Case generation is a pure function of (class, seed): the embedded
    // seed always regenerates the identical world.
    #[test]
    fn cases_regenerate_from_their_embedded_seed(
        case in CaseStrategy { class: CaseClass::Detector },
    ) {
        prop_assert_eq!(WorldCase::from_seed(case.class, case.seed), case);
    }

    // Each drawn routed congestion world upholds the full oracle stack:
    // the exact-replay algebra plus congestion soundness (no false
    // positive from a brownout, exact localisation through one).
    #[test]
    fn arbitrary_congestion_worlds_uphold_their_oracles(
        case in CaseStrategy { class: CaseClass::Congestion },
    ) {
        let violations = check_case(&case);
        prop_assert!(
            violations.is_empty(),
            "case seed {:#x}: {violations:#?}",
            case.seed
        );
    }
}

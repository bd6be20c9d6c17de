//! The differential oracles one generated world is checked against.
//!
//! Every oracle is a *contract the engine already claims* — this module
//! just asserts it over arbitrary generated inputs instead of
//! hand-picked fixtures. Exact-replay oracles (lockstep,
//! reproducibility, merge algebra) run on every case; the statistical
//! oracles (verdict invariance, localisation, false-positive freedom)
//! run only on [`CaseClass::Detector`] cases, whose generator keeps the
//! detector away from decision boundaries.

use crate::generator::{ArrivalMode, CaseClass, CongestionShape, WorldCase};
use encore::geo::GeoDb;
use encore::inference::{congestion_evidence, FilteringDetector};
use encore::StoredMeasurement;
use netsim::geo::CountryCode;
use population::shard::{shard_rngs, ShardContext};
use population::{
    merge_in_order, shard_recipe, Merge, Scenario, ShardTransport, ShardedWorldRun, StreamingSpec,
    ThreadTransport, WorldEngine, WorldOutcome, WorldRecipe, WorldSpec,
};
use serde::Serialize;
use sim_core::{SimDuration, SimRng};

/// One invariant violation found by [`check_case`].
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// The generating seed (with the class, the whole repro recipe).
    pub seed: u64,
    /// Which oracle family the case belonged to.
    pub class: CaseClass,
    /// Which oracle tripped.
    pub oracle: &'static str,
    /// What disagreed.
    pub detail: String,
    /// The generated world, for the report.
    pub case: WorldCase,
}

/// The §7.2 windowed verdict for one `(country, domain)` pair:
/// per-window flag series plus localised onset/lift windows. One
/// rollup-period-sized window per detector run — the same judgment rule
/// the Turkey timeline fixture uses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Judgment {
    /// `(window index, flagged)` per detector window with data.
    pub windows: Vec<(u64, bool)>,
    /// First flagged window.
    pub onset: Option<u64>,
    /// First clear window after the onset.
    pub lift: Option<u64>,
}

pub use encore::inference::localise_transitions;

/// Run the windowed detector and localise transitions for `cc:domain`
/// (the constant [`crate::generator::TARGET`] for most classes, the
/// corpus' rank-0 site
/// for corpus cases).
pub fn judge(
    records: &[StoredMeasurement],
    geo: &GeoDb,
    cc: CountryCode,
    domain: &str,
    window: SimDuration,
) -> Judgment {
    let reports = FilteringDetector::default().detect_windows(records, geo, window);
    let windows: Vec<(u64, bool)> = reports
        .iter()
        .map(|r| {
            let flagged = r
                .detections
                .iter()
                .any(|d| d.country == cc && d.domain == domain);
            (r.window, flagged)
        })
        .collect();
    let (onset, lift) = localise_transitions(windows.iter().copied());
    Judgment {
        windows,
        onset,
        lift,
    }
}

impl Judgment {
    /// The verdict proper: which windows are flagged, and where the
    /// transitions localise. Unflagged windows are *not* part of the
    /// verdict — whether a trailing window exists at all depends on
    /// whether some visit near the horizon delivered its record just
    /// past it, which varies with the shard count's arrival draws
    /// without meaning anything.
    pub fn verdict(&self) -> (Vec<u64>, Option<u64>, Option<u64>) {
        let flagged = self
            .windows
            .iter()
            .filter(|(_, f)| *f)
            .map(|(w, _)| *w)
            .collect();
        (flagged, self.onset, self.lift)
    }
}

/// The serialized byte-image of a run's outputs — what "byte-identical"
/// means across every oracle here (and in the transport oracle).
pub(crate) fn byte_image(
    outcome: &WorldOutcome,
    collection: &encore::CollectionSnapshot,
) -> (String, String, String) {
    (
        serde_json::to_string(&outcome.report).expect("report serializes"),
        serde_json::to_string(&outcome.rollups).expect("rollups serialize"),
        serde_json::to_string(collection).expect("collection serializes"),
    )
}

struct CaseChecker<'a> {
    case: &'a WorldCase,
    scenario: Scenario,
    violations: Vec<Violation>,
}

impl<'a> CaseChecker<'a> {
    fn fail(&mut self, oracle: &'static str, detail: String) {
        self.violations.push(Violation {
            seed: self.case.seed,
            class: self.case.class,
            oracle,
            detail,
            case: self.case.clone(),
        });
    }

    fn sharded(&self, shards: usize) -> ShardedWorldRun {
        self.sharded_with(&self.scenario.recipe, shards)
    }

    /// The case's scenario under `recipe`, on `shards` lane threads.
    fn sharded_with(&self, recipe: &WorldRecipe, shards: usize) -> ShardedWorldRun {
        let scenario = Scenario {
            recipe: recipe.clone(),
            ..self.scenario.clone()
        };
        ThreadTransport
            .run(&scenario, shards, self.case.seed)
            .expect("in-process shards merge")
    }

    /// Oracle 1 — lockstep: the serial engine and a 1-shard
    /// `ThreadTransport` run of the case's scenario are byte-identical
    /// (structural equality *and* serialized JSON).
    fn check_lockstep(&mut self) -> ShardedWorldRun {
        let (mut net, mut sys) = self.scenario.build(ShardContext {
            index: 0,
            shards: 1,
        });
        let mut rng = SimRng::new(self.case.seed);
        let (audience, recipe) = (&self.scenario.audience, &self.scenario.recipe);
        let serial = WorldEngine::from_recipe(&mut net, &mut sys, audience, recipe, &mut rng).run();
        let serial_collection = sys.collection.snapshot();

        let one = self.sharded(1);
        if one.outcome != serial {
            self.fail(
                "serial-vs-1shard",
                "1-shard WorldOutcome differs from the serial engine's".to_string(),
            );
        }
        if one.collection != serial_collection {
            self.fail(
                "serial-vs-1shard",
                "1-shard collection store differs from the serial engine's".to_string(),
            );
        }
        let serial_bytes = byte_image(&serial, &serial_collection);
        let sharded_bytes = byte_image(&one.outcome, &one.collection);
        if serial_bytes != sharded_bytes {
            self.fail(
                "serial-vs-1shard",
                "serialized JSON artifacts differ between serial and 1-shard runs".to_string(),
            );
        }
        self.check_control_plane("serial control plane", &serial);
        one
    }

    /// Oracle 2 — fixed-seed reproducibility at 2 shards.
    fn check_reproducibility(&mut self) {
        let a = self.sharded(2);
        let b = self.sharded(2);
        if byte_image(&a.outcome, &a.collection) != byte_image(&b.outcome, &b.collection)
            || a.outcome.log != b.outcome.log
        {
            self.fail(
                "byte-reproducibility",
                "two (seed, 2-shard) runs disagreed byte-for-byte".to_string(),
            );
        }
    }

    /// Oracle 3 — merge algebra: hand-built per-shard outcomes merge
    /// associatively, and the hand fold equals the engine's own merge.
    fn check_merge_algebra(&mut self) {
        const SHARDS: usize = 3;
        let rngs = shard_rngs(self.case.seed, SHARDS);
        let outcomes: Vec<WorldOutcome> = rngs
            .into_iter()
            .enumerate()
            .map(|(index, mut rng)| {
                let ctx = ShardContext {
                    index,
                    shards: SHARDS,
                };
                let (mut net, mut sys) = self.scenario.build(ctx);
                let sharded = shard_recipe(&self.scenario.recipe, SHARDS, index);
                let audience = &self.scenario.audience;
                WorldEngine::from_recipe(&mut net, &mut sys, audience, &sharded, &mut rng).run()
            })
            .collect();
        let [a, b, c] = <[WorldOutcome; 3]>::try_from(outcomes).expect("three shards");

        let left = a.clone().merge(b.clone()).merge(c.clone());
        let right = a.clone().merge(b.clone().merge(c.clone()));
        if left != right {
            self.fail(
                "merge-associativity",
                "(a ⊕ b) ⊕ c != a ⊕ (b ⊕ c) over sampled shard outcomes".to_string(),
            );
        }
        let hand = merge_in_order([a, b, c]).expect("non-empty");
        let engine = self.sharded(SHARDS);
        if hand != engine.outcome {
            self.fail(
                "merge-vs-engine",
                "hand-folded shard outcomes differ from the engine's merged outcome".to_string(),
            );
        }
    }

    /// Control-plane conservation: every run reports exactly the
    /// scheduled policy changes and control signals applied.
    fn check_control_plane(&mut self, ctx: &'static str, outcome: &WorldOutcome) {
        if outcome.policy_changes_applied != self.case.expected_policy_changes() {
            self.fail(
                "control-plane",
                format!(
                    "{ctx}: {} policy changes applied, expected {}",
                    outcome.policy_changes_applied,
                    self.case.expected_policy_changes()
                ),
            );
        }
        if outcome.control_signals_applied != self.case.expected_control_signals() {
            self.fail(
                "control-plane",
                format!(
                    "{ctx}: {} control signals applied, expected {}",
                    outcome.control_signals_applied,
                    self.case.expected_control_signals()
                ),
            );
        }
    }

    /// Shared statistical oracle: verdict invariance across {1, 2, 4}
    /// shards, judged on the case's measured target `domain`. Returns the
    /// 1-shard baseline judgment the shape checks run against.
    fn check_verdict_invariance(
        &mut self,
        one: &ShardedWorldRun,
        window: SimDuration,
        domain: &str,
    ) -> Judgment {
        let judgments: Vec<(usize, Judgment, ShardedWorldRun)> = [2usize, 4]
            .into_iter()
            .map(|shards| {
                let run = self.sharded(shards);
                let j = judge(
                    &run.collection.records,
                    &run.geo,
                    self.case.country,
                    domain,
                    window,
                );
                (shards, j, run)
            })
            .collect();
        let baseline = judge(
            &one.collection.records,
            &one.geo,
            self.case.country,
            domain,
            window,
        );

        for (shards, j, run) in &judgments {
            self.check_control_plane("sharded control plane", &run.outcome);
            if j.verdict() != baseline.verdict() {
                self.fail(
                    "verdict-invariance",
                    format!(
                        "{shards}-shard verdict differs from 1-shard: {:?} vs {:?}",
                        j.verdict(),
                        baseline.verdict()
                    ),
                );
            }
        }
        baseline
    }

    /// Shared statistical oracle: nothing anywhere — no country, no
    /// domain, whole-run or windowed — may be flagged on an uncensored
    /// world.
    fn check_fp_freedom(&mut self, one: &ShardedWorldRun, window: SimDuration) {
        let whole_run = FilteringDetector::default().detect(&one.collection.records, &one.geo);
        if !whole_run.is_empty() {
            self.fail(
                "detector-fp",
                format!("uncensored world produced detections: {whole_run:?}"),
            );
        }
        let windowed =
            FilteringDetector::default().detect_windows(&one.collection.records, &one.geo, window);
        if windowed.iter().any(|w| !w.detections.is_empty()) {
            self.fail(
                "detector-fp",
                "uncensored world produced windowed detections".to_string(),
            );
        }
    }

    /// Shared statistical oracle: the baseline judgment localises the
    /// ground-truth block window within one rollup period at each
    /// boundary, and flags nothing outside it.
    fn check_localisation(&mut self, baseline: &Judgment, onset_day: u64, lift_day: u64) {
        match baseline.onset {
            Some(d) if (onset_day..=onset_day + 1).contains(&d) => {}
            other => self.fail(
                "localisation",
                format!("onset detected at {other:?}, ground truth day {onset_day}"),
            ),
        }
        match baseline.lift {
            Some(d) if (lift_day..=lift_day + 1).contains(&d) => {}
            other => self.fail(
                "localisation",
                format!("lift detected at {other:?}, ground truth day {lift_day}"),
            ),
        }
        // And nothing outside the window (±1 rollup period of slop at
        // each boundary) may be flagged.
        for (w, flagged) in &baseline.windows {
            let censored_core = (onset_day + 1..lift_day).contains(w);
            let boundary = *w == onset_day || *w == lift_day;
            if *flagged && !censored_core && !boundary {
                self.fail(
                    "localisation",
                    format!("clear window {w} flagged outside the censored span"),
                );
            }
            if !*flagged && censored_core {
                self.fail("localisation", format!("censored window {w} not flagged"));
            }
        }
    }

    /// Oracles 4–5 — detector statistics: verdict invariance across
    /// {1, 2, 4} shards, onset/lift localisation within one rollup
    /// period of the generated ground truth, and zero detections on
    /// uncensored worlds.
    fn check_detector(&mut self, one: &ShardedWorldRun) {
        let window = SimDuration::from_secs(self.case.rollup_secs);
        let (target, _) = self.case.measured_domains();
        let baseline = self.check_verdict_invariance(one, window, &target);
        if self.case.is_uncensored() {
            self.check_fp_freedom(one, window);
        } else if let Some((onset_day, lift_day)) = self.case.hard_window_days() {
            self.check_localisation(&baseline, onset_day, lift_day);
        }
    }

    /// Oracle 6 — congestion soundness, per [`CongestionShape`]:
    ///
    /// * `CongestedUncensored` — a transit brownout alone must never be
    ///   read as censorship, anywhere.
    /// * `CensoredOnCongestedPath` — a DNS-stage block riding a
    ///   congested path must still localise exactly.
    /// * `MaskingOnset` — a brownout opening days before the block must
    ///   neither advance the detected onset into its brownout-only days
    ///   nor mask the true onset.
    ///
    /// Plus the evidence channel itself: on worlds with censor-free
    /// brownout days, the collection must actually carry near-source
    /// congestion signals (otherwise the FP check would pass vacuously,
    /// with nothing to discount).
    fn check_congestion(&mut self, one: &ShardedWorldRun) {
        let Some(cong) = self.case.congestion else {
            self.fail(
                "congestion-shape",
                "congestion-class case without a congestion spec".to_string(),
            );
            return;
        };
        let window = SimDuration::from_secs(self.case.rollup_secs);
        let (target, _) = self.case.measured_domains();
        let baseline = self.check_verdict_invariance(one, window, &target);
        match cong.shape {
            CongestionShape::CongestedUncensored => self.check_fp_freedom(one, window),
            CongestionShape::CensoredOnCongestedPath | CongestionShape::MaskingOnset => {
                let (onset_day, lift_day) = self
                    .case
                    .hard_window_days()
                    .expect("censored congestion shapes carry a block window");
                self.check_localisation(&baseline, onset_day, lift_day);
                if cong.shape == CongestionShape::MaskingOnset {
                    // The brownout-only days before onset are the trap:
                    // a congestion-credulous detector flags them.
                    let (b0, _) = cong.brownout_days;
                    for (w, flagged) in &baseline.windows {
                        if *flagged && (b0..onset_day).contains(w) {
                            self.fail(
                                "congestion-masking",
                                format!(
                                    "brownout-only window {w} flagged before the true onset \
                                     (brownout from {b0}, block from {onset_day})"
                                ),
                            );
                        }
                    }
                }
            }
        }
        if matches!(
            cong.shape,
            CongestionShape::CongestedUncensored | CongestionShape::MaskingOnset
        ) {
            // Censor-free brownout days exist, so the censored country
            // reaches the congested transit hop and some of its sheds
            // must come back as signaled, submitted failures.
            let evidence = congestion_evidence(&one.collection.records, &one.geo);
            if !evidence.iter().any(|a| a.signaled_failures > 0) {
                self.fail(
                    "congestion-evidence",
                    "brownout world carried no near-source congestion signals".to_string(),
                );
            }
        }
    }
    /// Oracle 9 — generative-corpus soundness: verdict invariance
    /// and (when censored) localisation against the corpus' rank-0
    /// site, plus the *benignity* oracle — the measured rank-1 site,
    /// which may suffer a globally visible benign origin outage, must
    /// never appear in any windowed detection, for any country. The
    /// cross-region control is what absorbs the outage: everyone fails
    /// together, so no country stands out.
    ///
    /// Disrupted-but-uncensored worlds deliberately check *windowed*
    /// false-positive freedom only: a day-granular outage pulls a
    /// domain's whole-run success rate right onto the detector's
    /// decision threshold, where the whole-run aggregate verdict is not
    /// promised either way. Windowed cells stay decisive — healthy days
    /// pass decisively, outage days fail globally.
    fn check_corpus(&mut self, one: &ShardedWorldRun) {
        let Some(spec) = self.case.corpus else {
            self.fail(
                "corpus-shape",
                "corpus-class case without a corpus spec".to_string(),
            );
            return;
        };
        let window = SimDuration::from_secs(self.case.rollup_secs);
        // Naming a corpus case's sites generates its corpus: ask once.
        let (target, companion) = self.case.measured_domains();
        let baseline = self.check_verdict_invariance(one, window, &target);
        if self.case.is_uncensored() && spec.disruption.is_none() {
            self.check_fp_freedom(one, window);
        } else if let Some((onset_day, lift_day)) = self.case.hard_window_days() {
            self.check_localisation(&baseline, onset_day, lift_day);
        }

        let ArrivalMode::Deployment { days, .. } = self.case.arrival else {
            self.fail(
                "corpus-shape",
                "corpus-class case without a day horizon".to_string(),
            );
            return;
        };
        let companion = companion.expect("corpus cases measure a companion domain");
        let windowed =
            FilteringDetector::default().detect_windows(&one.collection.records, &one.geo, window);
        // A trailing partial window past the horizon exists or not
        // depending on arrival draws; the benignity contract covers the
        // full days only (same rule the world-report fixture pins).
        for report in windowed.iter().filter(|r| r.window < days) {
            for d in &report.detections {
                if d.domain == companion {
                    self.fail(
                        "corpus-benignity",
                        format!(
                            "benign companion {companion} flagged in window {} for {} \
                             (disruption {:?})",
                            report.window, d.country, spec.disruption
                        ),
                    );
                }
                if self.case.is_uncensored() {
                    self.fail(
                        "corpus-benignity",
                        format!(
                            "uncensored corpus world flagged {}:{} in window {}",
                            d.country, d.domain, report.window
                        ),
                    );
                }
            }
        }
    }

    /// Oracle 8 — streaming equivalence: re-running the same generated
    /// world with bounded-memory analytics (sketch + reservoir +
    /// per-window count matrices) must neither perturb the simulation
    /// (log, report and rollup series byte-identical at each shard
    /// count) nor change a
    /// single detector verdict: the window reports judged from the
    /// merged streaming matrices equal exact windowed detection over
    /// the full record log. A second, deliberately under-provisioned
    /// ingest queue then sheds traffic on uncensored worlds — lost
    /// records may cost power, but must never invent censorship.
    /// Returns whether the shed variant actually dropped something (so
    /// the runner can report how often that check was non-vacuous).
    fn check_streaming(&mut self) -> bool {
        let window = SimDuration::from_secs(self.case.rollup_secs);
        let streaming_recipe = self
            .scenario
            .recipe
            .clone()
            .with_streaming(StreamingSpec::with_window(window));
        let det = FilteringDetector::default();
        for shards in [1usize, 2] {
            let exact = self.sharded(shards);
            let streamed = self.sharded_with(&streaming_recipe, shards);
            if streamed.outcome.log != exact.outcome.log
                || streamed.outcome.report != exact.outcome.report
                || streamed.outcome.rollups != exact.outcome.rollups
            {
                self.fail(
                    "streaming-lockstep",
                    format!(
                        "{shards}-shard streaming run perturbed the visit stream, report or \
                         rollup series"
                    ),
                );
            }
            if !streamed.collection.records.is_empty() {
                self.fail(
                    "streaming-bounded",
                    format!(
                        "{shards}-shard streaming run kept {} exact records",
                        streamed.collection.records.len()
                    ),
                );
            }
            let Some(stats) = streamed.collection.streaming.as_ref() else {
                self.fail(
                    "streaming-stats",
                    format!("{shards}-shard streaming run carried no StreamingStats"),
                );
                continue;
            };
            if stats.accepted != exact.collection.records.len() as u64 || stats.drops.total() != 0 {
                self.fail(
                    "streaming-accounting",
                    format!(
                        "{shards}-shard: accepted {} / dropped {} vs {} exact records",
                        stats.accepted,
                        stats.drops.total(),
                        exact.collection.records.len(),
                    ),
                );
            }
            if det.judge_streamed(stats)
                != det.detect_windows(&exact.collection.records, &exact.geo, window)
            {
                self.fail(
                    "streaming-verdict",
                    format!("{shards}-shard streamed window reports differ from exact detection"),
                );
            }
        }
        let mut drops_active = false;
        if self.case.is_uncensored() {
            let mut spec = StreamingSpec::with_window(window);
            spec.config.queue_capacity = 4;
            spec.config.drain_per_sec = 1;
            let shed = self.sharded_with(&self.scenario.recipe.clone().with_streaming(spec), 2);
            match shed.collection.streaming.as_ref() {
                Some(stats) => {
                    drops_active = stats.drops.total() > 0;
                    let reports = det.judge_streamed(stats);
                    if reports.iter().any(|r| !r.detections.is_empty()) {
                        self.fail(
                            "streaming-shed-fp",
                            format!(
                                "uncensored world under ingest shedding ({} drops) produced \
                                 detections",
                                stats.drops.total()
                            ),
                        );
                    }
                }
                None => self.fail(
                    "streaming-stats",
                    "shed streaming run carried no StreamingStats".to_string(),
                ),
            }
        }
        drops_active
    }
}

/// Run the streaming-equivalence oracle on one generated world (the
/// runner schedules this on every `streaming_every`-th case). Returns
/// the violations plus whether the shedding variant actually dropped
/// submissions (i.e. the zero-false-positive-under-drops check was
/// exercised, not vacuous).
pub fn check_streaming_case(case: &WorldCase) -> (Vec<Violation>, bool) {
    let mut checker = CaseChecker {
        case,
        scenario: case.scenario(),
        violations: Vec::new(),
    };
    let drops_active = checker.check_streaming();
    (checker.violations, drops_active)
}

/// Check one generated world against every applicable oracle. Returns
/// the violations found (empty = the case upholds all invariants).
pub fn check_case(case: &WorldCase) -> Vec<Violation> {
    let mut checker = CaseChecker {
        case,
        scenario: case.scenario(),
        violations: Vec::new(),
    };
    let one = checker.check_lockstep();
    match case.class {
        CaseClass::Equivalence => {
            checker.check_reproducibility();
            checker.check_merge_algebra();
        }
        CaseClass::Detector => {
            checker.check_detector(&one);
        }
        CaseClass::Congestion => {
            // Routed worlds must keep the whole exact-replay algebra
            // *and* pass the congestion-vs-censorship soundness oracles.
            checker.check_merge_algebra();
            checker.check_congestion(&one);
        }
        CaseClass::Corpus => {
            checker.check_corpus(&one);
        }
    }
    checker.violations
}

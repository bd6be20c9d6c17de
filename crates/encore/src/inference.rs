//! The filtering-detection algorithm (paper §7.2).
//!
//! > "We model each measurement success as a Bernoulli random variable
//! > with parameter p = 0.7; we assume that, in the absence of filtering,
//! > clients should successfully load resources at least 70% of the time.
//! > … For each resource and region, we count both the total number of
//! > measurements n_r and the number of successful measurements x_r and
//! > run a one-sided hypothesis test for a binomial distribution; we
//! > consider a resource as filtered in region r if x_r fails this test
//! > at 0.05 significance … yet does not fail the same test in other
//! > regions."
//!
//! The cross-region control is what separates *filtering* from *outage*:
//! a site that is down fails everywhere and is flagged nowhere.

use crate::collection::{StoredMeasurement, SubmissionPhase};
use crate::geo::GeoDb;
use crate::streaming::{CellEntry, StreamingStats, WindowCells};
use crate::tasks::TaskOutcome;
use netsim::geo::CountryCode;
use serde::{Deserialize, Serialize};
use sim_core::{FxBuildHasher, Interner, OneSidedBinomialTest, SimDuration, SimTime, Sym};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// Detector configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// The hypothesis test (paper: p = 0.7, α = 0.05).
    pub test: OneSidedBinomialTest,
    /// Minimum measurements per (resource, region) cell before the test
    /// is attempted — guards against one unlucky client condemning a
    /// region.
    pub min_measurements: u64,
    /// Drop submissions from crawlers/scanners (§7.1).
    pub exclude_crawlers: bool,
    /// Cap on result measurements counted from a single client address
    /// per (resource, region) cell. This is the poisoning mitigation of
    /// §8 ("attackers may attempt to submit poisoned measurement results
    /// to alter the conclusions that Encore draws"): an attacker must
    /// control many addresses, not just flood from one. `None` disables
    /// the cap.
    pub max_per_ip: Option<u64>,
    /// Discount failures carrying a near-source congestion signal (the
    /// fetch was shed at an overloaded transit link, and the link said
    /// so). Such failures are evidence about the *path*, not the
    /// *resource*: counting them as censorship evidence would let every
    /// transit brownout masquerade as a regional block. Signaled
    /// failures are excluded from the Bernoulli count entirely — they
    /// are neither a success nor censorship evidence.
    #[serde(default = "default_true")]
    pub discount_congestion: bool,
}

fn default_true() -> bool {
    true
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            test: OneSidedBinomialTest::default(),
            min_measurements: 5,
            exclude_crawlers: true,
            max_per_ip: Some(10),
            discount_congestion: true,
        }
    }
}

/// Whether a self-reported user agent announces automated traffic (the
/// §6.2 campus security scanner, search-engine crawlers, …): an
/// ASCII-case-insensitive search for `bot`, `crawler` or `scanner` that
/// allocates nothing.
pub(crate) fn is_crawler_ua(ua: &str) -> bool {
    const NEEDLES: [&[u8]; 3] = [b"bot", b"crawler", b"scanner"];
    let ua = ua.as_bytes();
    NEEDLES
        .iter()
        .any(|n| ua.windows(n.len()).any(|w| w.eq_ignore_ascii_case(n)))
}

/// `(domain, client address) → (n, x)`: one open window's counts under
/// the per-IP cap.
type AddressCells = HashMap<(Sym, Ipv4Addr), (u64, u64), FxBuildHasher>;

/// The per-window fold that turns submissions into detector input — the
/// one place the record filters, the per-IP cap and geolocation run, for
/// the exact detector and the streaming collector alike. Per record, in
/// order: the stateless filters (phase → crawler → outcome → congestion
/// discount), then the domain, then the first-k cap on its
/// `(domain, address)` cell. An address resolves to a country only when
/// its window closes, and each `(domain, country)` cell gets its `String`
/// name once, there. Country is a function of the address, so capping
/// before locating counts exactly the records the other order would.
#[derive(Debug)]
pub(crate) struct WindowFold {
    config: DetectorConfig,
    /// Open windows, ascending: each one's header (index and
    /// measurement count; no cells yet) and its address cells.
    open: Vec<(WindowCells, AddressCells)>,
    /// Closed windows, ascending by index.
    pub(crate) closed: Vec<WindowCells>,
}

impl WindowFold {
    pub(crate) fn new(config: DetectorConfig) -> WindowFold {
        WindowFold {
            config,
            open: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// Fold one submission from `client_ip` — its phase, outcome and
    /// congestion flag — into `window`, opening the window on its first.
    /// `crawler` is asked only of result-phase records when crawlers are
    /// excluded, and `domain` only of records that pass the filters.
    pub(crate) fn push(
        &mut self,
        window: u64,
        client_ip: Ipv4Addr,
        (phase, outcome, congested): (SubmissionPhase, Option<TaskOutcome>, bool),
        crawler: impl FnOnce() -> bool,
        domain: impl FnOnce() -> Option<Sym>,
    ) {
        let at = self.open.partition_point(|(w, _)| w.window < window);
        if self.open.get(at).is_none_or(|(w, _)| w.window != window) {
            let header = WindowCells {
                window,
                ..WindowCells::default()
            };
            self.open.insert(at, (header, AddressCells::default()));
        }
        let (header, cells) = &mut self.open[at];
        let config = &self.config;
        if phase != SubmissionPhase::Result {
            return;
        }
        header.measurements += 1;
        let shed = outcome == Some(TaskOutcome::Failure) && congested;
        if (config.exclude_crawlers && crawler())
            || outcome.is_none()
            // Near-source congestion signal: path evidence, not resource
            // evidence — see `DetectorConfig::discount_congestion`.
            || (config.discount_congestion && shed)
        {
            return;
        }
        let Some(domain) = domain() else {
            return;
        };
        let (n, x) = cells.entry((domain, client_ip)).or_default();
        if config.max_per_ip.is_some_and(|cap| *n >= cap) {
            return; // poisoning mitigation: flooding one IP stops counting
        }
        *n += 1;
        *x += u64::from(outcome == Some(TaskOutcome::Success));
    }

    /// Close every open window below `boundary` into `closed`: each
    /// address is located with `country_of` (`None` drops its counts),
    /// and the `(domain, country)` cells come out named from `names` and
    /// sorted by `(domain, country)`.
    pub(crate) fn close_below(
        &mut self,
        boundary: u64,
        names: &Interner,
        country_of: &mut dyn FnMut(Ipv4Addr) -> Option<CountryCode>,
    ) {
        let closing = self.open.partition_point(|(w, _)| w.window < boundary);
        for (mut header, cells) in self.open.drain(..closing) {
            let mut located: HashMap<(Sym, CountryCode), (u64, u64), FxBuildHasher> =
                HashMap::default();
            for ((domain, ip), (n, x)) in cells {
                if let Some(country) = (n > 0).then(|| country_of(ip)).flatten() {
                    let cell = located.entry((domain, country)).or_default();
                    cell.0 += n;
                    cell.1 += x;
                }
            }
            header.cells = located
                .into_iter()
                .map(|((domain, country), (n, x))| CellEntry {
                    domain: names.resolve(domain).to_owned(),
                    country,
                    n,
                    x,
                })
                .collect();
            header
                .cells
                .sort_unstable_by(|a, b| (&a.domain, a.country).cmp(&(&b.domain, b.country)));
            debug_assert!(self.closed.last().is_none_or(|c| c.window < header.window));
            self.closed.push(header);
        }
    }
}

/// A positive detection: `domain` appears filtered in `country`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// The filtered resource's domain.
    pub domain: String,
    /// The region where it fails.
    pub country: CountryCode,
    /// Measurements in that region.
    pub n: u64,
    /// Successes in that region.
    pub x: u64,
    /// The test's p-value.
    pub p_value: f64,
}

/// The detector.
#[derive(Debug, Clone, Default)]
pub struct FilteringDetector {
    /// Configuration.
    pub config: DetectorConfig,
}

impl FilteringDetector {
    /// Detector with explicit configuration.
    pub fn new(config: DetectorConfig) -> FilteringDetector {
        FilteringDetector { config }
    }

    /// Run the §7.2 detection rule over the records: the one-window case
    /// of [`detect_windows`](Self::detect_windows).
    pub fn detect(&self, records: &[StoredMeasurement], geo: &GeoDb) -> Vec<Detection> {
        self.fold_records(records, geo, |_| 0)
            .first()
            .map_or_else(Vec::new, |w| self.detections(&w.cells))
    }

    /// The exact fold: every record into one [`WindowFold`], hosts
    /// interned in a local [`Interner`]. When the slice is in window
    /// order — every snapshot is, being canonical — a window closes as
    /// soon as the slice moves past it, so one window's cells are
    /// resident at a time. Any other order closes every window at the
    /// end, so the per-IP cap still counts each window's records in
    /// input order.
    fn fold_records(
        &self,
        records: &[StoredMeasurement],
        geo: &GeoDb,
        window_of: impl Fn(SimTime) -> u64,
    ) -> Vec<WindowCells> {
        let in_order = records.is_sorted_by_key(|r| window_of(r.received_at));
        let mut fold = WindowFold::new(self.config);
        let mut hosts = Interner::new();
        let mut country_of = |ip| geo.lookup(ip);
        for rec in records {
            let (sub, window) = (&rec.submission, window_of(rec.received_at));
            if in_order {
                fold.close_below(window, &hosts, &mut country_of);
            }
            fold.push(
                window,
                rec.client_ip,
                (sub.phase, sub.outcome, sub.congested),
                || is_crawler_ua(&sub.user_agent),
                || rec.target_host().map(|host| hosts.intern(&host)),
            );
        }
        fold.close_below(u64::MAX, &hosts, &mut country_of);
        fold.closed
    }

    /// The §7.2 decision rule over one window's cells, read in place:
    /// they are sorted by `(domain, country)`, so each domain's cells are
    /// one contiguous run. The only implementation of the rule — exact
    /// and streamed windows both reach it through
    /// [`reports`](Self::reports).
    fn detections(&self, cells: &[CellEntry]) -> Vec<Detection> {
        let (test, min) = (&self.config.test, self.config.min_measurements);
        let mut detections = Vec::new();
        for run in cells.chunk_by(|a, b| a.domain == b.domain) {
            let first = detections.len();
            let mut passing_regions = 0usize;
            for cell in run.iter().filter(|c| c.n >= min) {
                if let Some(p_value) = test.rejection(cell.n, cell.x) {
                    detections.push(Detection {
                        domain: cell.domain.clone(),
                        country: cell.country,
                        n: cell.n,
                        x: cell.x,
                        p_value,
                    });
                } else if cell.n == 0 || cell.x as f64 / cell.n as f64 >= test.p {
                    // Refinement over the paper's literal rule: a region
                    // only counts as a healthy control when its success
                    // rate actually clears the null prior. Otherwise a
                    // global partial outage (~50% success everywhere)
                    // would be "passed" by small regions that merely lack
                    // the sample size to reach significance, and every
                    // large region would be falsely flagged.
                    passing_regions += 1;
                }
            }
            // The cross-region control: a resource failing *everywhere*
            // is an outage, not filtering. Require at least one healthy
            // region.
            if passing_regions == 0 {
                detections.truncate(first);
            }
        }
        detections
    }

    /// One report per closed window, in window order.
    fn reports(&self, windows: &[WindowCells], window_micros: u64) -> Vec<WindowReport> {
        windows
            .iter()
            .map(|w| WindowReport {
                window: w.window,
                start: SimTime::from_micros(w.window * window_micros),
                measurements: w.measurements as usize,
                detections: self.detections(&w.cells),
            })
            .collect()
    }
}

/// Per-region congestion evidence: how much of the observed loss carries
/// near-source congestion signals, and how it spreads across origins.
///
/// Two properties distinguish congestion collapse from censorship:
///
/// * **loss-pattern shape** — shed failures arrive *signaled* (the
///   transit link says "congested"), whereas a censor's forged NXDOMAIN
///   / RST / drop is silent about its cause;
/// * **cross-origin correlation** — a congested transit link degrades
///   *every* host routed across it, so signaled failures spread over
///   most measured domains; censorship targets specific resources.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CongestionAssessment {
    /// The region assessed.
    pub country: CountryCode,
    /// Result-phase failures carrying the congestion signal.
    pub signaled_failures: u64,
    /// All result-phase failures from the region.
    pub total_failures: u64,
    /// Distinct domains with at least one signaled failure.
    pub domains_signaled: usize,
    /// Distinct domains measured from the region.
    pub domains_measured: usize,
}

/// Aggregate congestion evidence per client region (deterministic order:
/// sorted by country code). Complements [`FilteringDetector::detect`]:
/// where the detector *discounts* signaled failures, this surfaces them,
/// so a report can say "region X wasn't censored, its transit was
/// melting" instead of silently dropping the loss.
pub fn congestion_evidence(
    records: &[StoredMeasurement],
    geo: &GeoDb,
) -> Vec<CongestionAssessment> {
    let mut by_country: BTreeMap<CountryCode, CongestionAssessment> = BTreeMap::new();
    let mut domains: BTreeMap<CountryCode, BTreeMap<Cow<'_, str>, bool>> = BTreeMap::new();
    for rec in records {
        if rec.submission.phase != SubmissionPhase::Result {
            continue;
        }
        let Some(domain) = rec.target_host() else {
            continue;
        };
        let Some(country) = geo.lookup(rec.client_ip) else {
            continue;
        };
        let entry = by_country
            .entry(country)
            .or_insert_with(|| CongestionAssessment {
                country,
                signaled_failures: 0,
                total_failures: 0,
                domains_signaled: 0,
                domains_measured: 0,
            });
        let signaled = domains
            .entry(country)
            .or_default()
            .entry(domain)
            .or_default();
        if rec.submission.outcome == Some(TaskOutcome::Failure) {
            entry.total_failures += 1;
            if rec.submission.congested {
                entry.signaled_failures += 1;
                *signaled = true;
            }
        }
    }
    let mut out: Vec<CongestionAssessment> = by_country.into_values().collect();
    for a in &mut out {
        let doms = &domains[&a.country];
        a.domains_measured = doms.len();
        a.domains_signaled = doms.values().filter(|&&s| s).count();
    }
    out
}

/// One window of a longitudinal analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowReport {
    /// Window index (0-based).
    pub window: u64,
    /// Window start time.
    pub start: SimTime,
    /// Result measurements falling in the window.
    pub measurements: usize,
    /// Detections within the window.
    pub detections: Vec<Detection>,
}

/// Localise block transitions in a windowed flag series: the first
/// flagged window (the onset) and the first clear window after it (the
/// lift). This is the **single definition** of onset/lift semantics over
/// [`FilteringDetector::detect_windows`] output — the timeline fixtures,
/// the adaptive-censor golden, and the `simcheck` fuzz oracle all share
/// it, so the localisation rule can never silently diverge between the
/// hand-picked goldens and the generated scenario space.
pub fn localise_transitions(
    flags: impl IntoIterator<Item = (u64, bool)>,
) -> (Option<u64>, Option<u64>) {
    let (mut onset, mut lift) = (None, None);
    let mut prev = false;
    for (w, flagged) in flags {
        if flagged && !prev && onset.is_none() {
            onset = Some(w);
        }
        if !flagged && prev && onset.is_some() && lift.is_none() {
            lift = Some(w);
        }
        prev = flagged;
    }
    (onset, lift)
}

impl FilteringDetector {
    /// Longitudinal detection: slice the record stream into fixed
    /// windows and run the detector per window. This is what turns
    /// Encore from a snapshot into the continuous monitor the paper
    /// argues for (§1: censorship "varies over time in response to
    /// changing social or political conditions (e.g., a national
    /// election)") — the onset and lifting of a block appear as
    /// detections entering and leaving consecutive windows.
    pub fn detect_windows(
        &self,
        records: &[StoredMeasurement],
        geo: &GeoDb,
        window: SimDuration,
    ) -> Vec<WindowReport> {
        let micros = window.as_micros();
        assert!(micros > 0, "window must be positive");
        let windows = self.fold_records(records, geo, |at| at.as_micros() / micros);
        self.reports(&windows, micros)
    }

    /// [`detect_windows`](Self::detect_windows) over streamed state: the
    /// collector ran the same window fold at ingest, with
    /// [`DetectorConfig::default`]'s record filters, so each closed
    /// window goes straight into the shared decision rule. On identical
    /// traffic with a zero-error geo database this produces the same
    /// reports as the exact path, record for record — the `simcheck`
    /// streaming oracle holds the two paths to that.
    ///
    /// # Panics
    ///
    /// If this detector's `exclude_crawlers`, `max_per_ip` or
    /// `discount_congestion` differs from what ingest applied: the raw
    /// records are gone, so those cannot be re-applied here, and
    /// answering anyway would silently judge under ingest's values.
    /// `test` and `min_measurements` act on the folded cells and are
    /// free to vary.
    pub fn judge_streamed(&self, stats: &StreamingStats) -> Vec<WindowReport> {
        let (ours, ingest) = (self.config, DetectorConfig::default());
        let applied = "differs from what streaming ingest applied";
        assert!(
            ours.exclude_crawlers == ingest.exclude_crawlers,
            "`exclude_crawlers` {applied}"
        );
        assert!(
            ours.max_per_ip == ingest.max_per_ip,
            "`max_per_ip` {applied}"
        );
        assert!(
            ours.discount_congestion == ingest.discount_congestion,
            "`discount_congestion` {applied}"
        );
        self.reports(&stats.windows, stats.window_micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Submission;
    use crate::tasks::{MeasurementId, TaskType};
    use netsim::geo::country;
    use netsim::ip::IpAllocator;
    use sim_core::SimTime;

    struct Fixture {
        alloc: IpAllocator,
        records: Vec<StoredMeasurement>,
        next_id: u64,
    }

    impl Fixture {
        fn new() -> Fixture {
            Fixture {
                alloc: IpAllocator::new(),
                records: Vec::new(),
                next_id: 0,
            }
        }

        fn add(&mut self, domain: &str, cc: &str, outcome: TaskOutcome) {
            self.add_ua(domain, cc, outcome, "Chrome");
        }

        fn add_at(&mut self, domain: &str, cc: &str, outcome: TaskOutcome, at: SimTime) {
            self.add(domain, cc, outcome);
            self.records.last_mut().unwrap().received_at = at;
        }

        fn add_ua(&mut self, domain: &str, cc: &str, outcome: TaskOutcome, ua: &str) {
            let ip = self.alloc.allocate(country(cc));
            self.next_id += 1;
            self.records.push(StoredMeasurement {
                submission: Submission {
                    measurement_id: MeasurementId(self.next_id),
                    phase: SubmissionPhase::Result,
                    outcome: Some(outcome),
                    elapsed_ms: 100,
                    task_type: TaskType::Image,
                    target_url: format!("http://{domain}/favicon.ico").into(),
                    user_agent: ua.into(),
                    congested: false,
                },
                client_ip: ip,
                referer: None,
                received_at: SimTime::ZERO,
            });
        }

        fn geo(&self) -> GeoDb {
            GeoDb::from_allocator(&self.alloc)
        }
    }

    fn detector() -> FilteringDetector {
        FilteringDetector::default()
    }

    /// The closed cells of the one window `detect` folds `f`'s records
    /// into (none when there are no records).
    fn cells(det: &FilteringDetector, f: &Fixture) -> Vec<CellEntry> {
        let windows = det.fold_records(&f.records, &f.geo(), |_| 0);
        assert!(windows.len() <= 1, "one window: {windows:?}");
        windows
            .into_iter()
            .next()
            .map_or_else(Vec::new, |w| w.cells)
    }

    fn cell(domain: &str, cc: &str, n: u64, x: u64) -> CellEntry {
        CellEntry {
            domain: domain.into(),
            country: country(cc),
            n,
            x,
        }
    }

    impl WindowFold {
        /// Bytes held by the open windows' address cells and the closed
        /// windows' named cells.
        pub(crate) fn resident_bytes(&self) -> usize {
            let open: usize = self.open.iter().map(|(_, cells)| cells.len()).sum();
            let closed: usize = self
                .closed
                .iter()
                .map(|w| {
                    std::mem::size_of::<WindowCells>()
                        + w.cells
                            .iter()
                            .map(|c| std::mem::size_of::<CellEntry>() + c.domain.len())
                            .sum::<usize>()
                })
                .sum();
            open * std::mem::size_of::<((Sym, Ipv4Addr), (u64, u64))>() + closed
        }
    }

    #[test]
    fn detects_regional_blocking() {
        let mut f = Fixture::new();
        // 20 failures in Pakistan, 30 successes in the US.
        for _ in 0..20 {
            f.add("youtube.com", "PK", TaskOutcome::Failure);
        }
        for _ in 0..30 {
            f.add("youtube.com", "US", TaskOutcome::Success);
        }
        let d = detector().detect(&f.records, &f.geo());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].country, country("PK"));
        assert_eq!(d[0].domain, "youtube.com");
        assert!(d[0].p_value < 0.001);
    }

    #[test]
    fn outage_everywhere_is_not_filtering() {
        let mut f = Fixture::new();
        for cc in ["PK", "US", "DE"] {
            for _ in 0..20 {
                f.add("down.com", cc, TaskOutcome::Failure);
            }
        }
        assert!(detector().detect(&f.records, &f.geo()).is_empty());
    }

    #[test]
    fn sporadic_failures_tolerated() {
        let mut f = Fixture::new();
        // India: 75% success — below perfection but above the p=0.7 null.
        for i in 0..40 {
            f.add(
                "fine.com",
                "IN",
                if i % 4 == 0 {
                    TaskOutcome::Failure
                } else {
                    TaskOutcome::Success
                },
            );
        }
        for _ in 0..40 {
            f.add("fine.com", "US", TaskOutcome::Success);
        }
        assert!(detector().detect(&f.records, &f.geo()).is_empty());
    }

    #[test]
    fn small_samples_never_flag() {
        let mut f = Fixture::new();
        // 3 failures in PK: below min_measurements.
        for _ in 0..3 {
            f.add("youtube.com", "PK", TaskOutcome::Failure);
        }
        for _ in 0..30 {
            f.add("youtube.com", "US", TaskOutcome::Success);
        }
        assert!(detector().detect(&f.records, &f.geo()).is_empty());
    }

    #[test]
    fn crawler_traffic_excluded() {
        let mut f = Fixture::new();
        // All "failures" in DE come from a scanner.
        for _ in 0..20 {
            f.add_ua("x.com", "DE", TaskOutcome::Failure, "SecurityScanner");
        }
        for _ in 0..20 {
            f.add("x.com", "US", TaskOutcome::Success);
        }
        assert!(detector().detect(&f.records, &f.geo()).is_empty());
        // With exclusion disabled the false detection appears.
        let lax = FilteringDetector::new(DetectorConfig {
            exclude_crawlers: false,
            ..DetectorConfig::default()
        });
        assert_eq!(lax.detect(&f.records, &f.geo()).len(), 1);
    }

    #[test]
    fn init_phase_records_ignored() {
        let mut f = Fixture::new();
        for _ in 0..20 {
            f.add("y.com", "PK", TaskOutcome::Failure);
        }
        for _ in 0..20 {
            f.add("y.com", "US", TaskOutcome::Success);
        }
        // Turn all PK records into init-phase: no results → no detection.
        for r in &mut f.records {
            if f.alloc.country_of(r.client_ip) == Some(country("PK")) {
                r.submission.phase = SubmissionPhase::Init;
                r.submission.outcome = None;
            }
        }
        assert!(detector().detect(&f.records, &f.geo()).is_empty());
    }

    #[test]
    fn matrix_counts_are_correct() {
        let mut f = Fixture::new();
        for _ in 0..7 {
            f.add("a.com", "CN", TaskOutcome::Failure);
        }
        for _ in 0..3 {
            f.add("a.com", "CN", TaskOutcome::Success);
        }
        assert_eq!(cells(&detector(), &f), [cell("a.com", "CN", 10, 3)]);
    }

    #[test]
    fn partial_throttling_needs_more_evidence_than_hard_blocking() {
        // With 50% success (throttling), the detector needs more samples
        // than with 0% success (hard block) — quantifying the paper's
        // point that subtle filtering is harder to see.
        let t = OneSidedBinomialTest::default();
        // Hard block: significant at n = 3.
        assert!(t.rejects(3, 0));
        // 50% success: n = 3 (x≈1) is not significant…
        assert!(!t.rejects(3, 1));
        assert!(!t.rejects(6, 3));
        // …but n = 30 (x = 15) is.
        assert!(t.rejects(30, 15));
    }

    #[test]
    fn windowed_detection_sees_censorship_onset() {
        use sim_core::SimDuration;
        let mut f = Fixture::new();
        let day = SimDuration::from_days(1);
        // Days 0–4: everything fine everywhere. Days 5–9: Turkey blocks.
        for d in 0..10u64 {
            let at = SimTime::from_secs(d * 86_400 + 100);
            for _ in 0..12 {
                let tr_outcome = if d >= 5 {
                    TaskOutcome::Failure
                } else {
                    TaskOutcome::Success
                };
                f.add_at("twitter.com", "TR", tr_outcome, at);
                f.add_at("twitter.com", "US", TaskOutcome::Success, at);
            }
        }
        let reports = FilteringDetector::default().detect_windows(&f.records, &f.geo(), day);
        assert_eq!(reports.len(), 10);
        for r in &reports {
            let flagged = r
                .detections
                .iter()
                .any(|d| d.country == country("TR") && d.domain == "twitter.com");
            if r.window < 5 {
                assert!(!flagged, "window {} falsely flagged", r.window);
            } else {
                assert!(flagged, "window {} missed the block", r.window);
            }
            assert_eq!(r.measurements, 24);
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn windowed_detection_rejects_zero_window() {
        let f = Fixture::new();
        let _ = FilteringDetector::default().detect_windows(
            &f.records,
            &f.geo(),
            sim_core::SimDuration::ZERO,
        );
    }

    /// One closed window: `x.com` fails 6/6 from CN and loads 8/8 from US.
    fn streamed_block() -> crate::streaming::StreamingStats {
        use crate::streaming::{
            CellEntry, CountMinSketch, DropCounters, ReservoirSample, StreamingStats, WindowCells,
        };
        let cell = |cc, n, x| CellEntry {
            domain: "x.com".into(),
            country: country(cc),
            n,
            x,
        };
        StreamingStats {
            window_micros: 86_400_000_000,
            accepted: 14,
            sketch: CountMinSketch::new(4, 256, 11),
            reservoir: ReservoirSample::new(4),
            windows: vec![WindowCells {
                window: 0,
                measurements: 14,
                cells: vec![cell("CN", 6, 0), cell("US", 8, 8)],
            }],
            drops: DropCounters::default(),
        }
    }

    fn judge_streamed_with(config: DetectorConfig) -> Vec<WindowReport> {
        FilteringDetector::new(config).judge_streamed(&streamed_block())
    }

    #[test]
    #[should_panic(expected = "`exclude_crawlers` differs")]
    fn judge_streamed_refuses_a_different_crawler_filter() {
        judge_streamed_with(DetectorConfig {
            exclude_crawlers: false,
            ..DetectorConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "`max_per_ip` differs")]
    fn judge_streamed_refuses_a_different_per_ip_cap() {
        judge_streamed_with(DetectorConfig {
            max_per_ip: None,
            ..DetectorConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "`discount_congestion` differs")]
    fn judge_streamed_refuses_a_different_congestion_discount() {
        judge_streamed_with(DetectorConfig {
            discount_congestion: false,
            ..DetectorConfig::default()
        });
    }

    #[test]
    fn judge_streamed_honours_a_custom_min_measurements() {
        let flagged = judge_streamed_with(DetectorConfig::default());
        assert_eq!(flagged[0].detections.len(), 1);
        assert_eq!(flagged[0].detections[0].country, country("CN"));
        // The knobs that act on folded cells still vary freely: CN's six
        // measurements are too few for a detector that wants seven.
        let cautious = judge_streamed_with(DetectorConfig {
            min_measurements: 7,
            ..DetectorConfig::default()
        });
        assert!(cautious[0].detections.is_empty());
    }

    #[test]
    fn single_ip_flood_cannot_poison_detection() {
        let mut f = Fixture::new();
        // Healthy baseline in two countries.
        for cc in ["US", "DE"] {
            for _ in 0..30 {
                f.add("victim.com", cc, TaskOutcome::Success);
            }
        }
        // One attacker address in BR floods 500 failure reports.
        let attacker_ip = f.alloc.allocate(country("BR"));
        for i in 0..500u64 {
            f.records.push(StoredMeasurement {
                submission: Submission {
                    measurement_id: MeasurementId(100_000 + i),
                    phase: SubmissionPhase::Result,
                    outcome: Some(TaskOutcome::Failure),
                    elapsed_ms: 100,
                    task_type: TaskType::Image,
                    target_url: "http://victim.com/favicon.ico".into(),
                    user_agent: "Chrome".into(),
                    congested: false,
                },
                client_ip: attacker_ip,
                referer: None,
                received_at: SimTime::ZERO,
            });
        }
        // With the per-IP cap (default 10): 10 failures in BR is still a
        // significant cell… so also require min_measurements > cap to
        // show the combined defence, or observe the cap shrink n.
        let capped = FilteringDetector::new(DetectorConfig {
            max_per_ip: Some(10),
            min_measurements: 20,
            ..DetectorConfig::default()
        });
        assert!(capped.detect(&f.records, &f.geo()).is_empty());
        // Without the cap the flood forges a "detection".
        let uncapped = FilteringDetector::new(DetectorConfig {
            max_per_ip: None,
            min_measurements: 20,
            ..DetectorConfig::default()
        });
        let forged = uncapped.detect(&f.records, &f.geo());
        assert_eq!(forged.len(), 1);
        assert_eq!(forged[0].country, country("BR"));
    }

    #[test]
    fn per_ip_cap_counts_first_k_only() {
        let mut f = Fixture::new();
        let ip = f.alloc.allocate(country("CN"));
        for i in 0..30u64 {
            f.records.push(StoredMeasurement {
                submission: Submission {
                    measurement_id: MeasurementId(i),
                    phase: SubmissionPhase::Result,
                    outcome: Some(TaskOutcome::Success),
                    elapsed_ms: 1,
                    task_type: TaskType::Image,
                    target_url: "http://a.com/favicon.ico".into(),
                    user_agent: "Chrome".into(),
                    congested: false,
                },
                client_ip: ip,
                referer: None,
                received_at: SimTime::ZERO,
            });
        }
        let det = FilteringDetector::new(DetectorConfig {
            max_per_ip: Some(7),
            ..DetectorConfig::default()
        });
        assert_eq!(cells(&det, &f), [cell("a.com", "CN", 7, 7)]);
    }

    impl Fixture {
        fn add_congested(&mut self, domain: &str, cc: &str) {
            self.add(domain, cc, TaskOutcome::Failure);
            self.records.last_mut().unwrap().submission.congested = true;
        }
    }

    #[test]
    fn congestion_signaled_failures_are_discounted() {
        let mut f = Fixture::new();
        // A transit brownout sheds 20 fetches in TR — all signaled.
        for _ in 0..20 {
            f.add_congested("news.com", "TR");
        }
        for _ in 0..30 {
            f.add("news.com", "US", TaskOutcome::Success);
        }
        assert!(
            detector().detect(&f.records, &f.geo()).is_empty(),
            "signaled congestion loss must not read as censorship"
        );
        // The discount is what saves it: counting signaled failures as
        // censorship evidence forges the detection (mutation check —
        // removing the discount in `WindowFold::push` fails this assert).
        let naive = FilteringDetector::new(DetectorConfig {
            discount_congestion: false,
            ..DetectorConfig::default()
        });
        assert_eq!(naive.detect(&f.records, &f.geo()).len(), 1);
    }

    #[test]
    fn unsignaled_censorship_still_flags_on_a_congested_path() {
        let mut f = Fixture::new();
        // Real block: forged failures carry no congestion signal…
        for _ in 0..20 {
            f.add("twitter.com", "TR", TaskOutcome::Failure);
        }
        // …amid signaled congestion loss on a co-routed domain.
        for _ in 0..20 {
            f.add_congested("news.com", "TR");
        }
        for d in ["twitter.com", "news.com"] {
            for _ in 0..30 {
                f.add(d, "US", TaskOutcome::Success);
            }
        }
        let dets = detector().detect(&f.records, &f.geo());
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].domain, "twitter.com");
        assert_eq!(dets[0].country, country("TR"));
    }

    #[test]
    fn congestion_evidence_separates_path_from_resource() {
        let mut f = Fixture::new();
        // Congestion: signaled loss across both co-routed domains.
        for d in ["a.com", "b.com"] {
            for _ in 0..10 {
                f.add_congested(d, "TR");
            }
            for _ in 0..10 {
                f.add(d, "TR", TaskOutcome::Success);
            }
        }
        // Censorship: silent loss on one domain only.
        for _ in 0..10 {
            f.add("x.com", "IR", TaskOutcome::Failure);
        }
        for _ in 0..10 {
            f.add("y.com", "IR", TaskOutcome::Success);
        }
        let ev = congestion_evidence(&f.records, &f.geo());
        let tr = ev.iter().find(|a| a.country == country("TR")).unwrap();
        assert_eq!(tr.signaled_failures, 20);
        assert_eq!(tr.total_failures, 20);
        assert_eq!(tr.domains_signaled, 2, "both co-routed hosts shed");
        let ir = ev.iter().find(|a| a.country == country("IR")).unwrap();
        assert_eq!(ir.signaled_failures, 0);
        assert_eq!(ir.domains_signaled, 0);
        assert_eq!(ir.domains_measured, 2);
    }

    #[test]
    fn multiple_regions_can_be_flagged() {
        let mut f = Fixture::new();
        for cc in ["CN", "IR"] {
            for _ in 0..20 {
                f.add("twitter.com", cc, TaskOutcome::Failure);
            }
        }
        for _ in 0..30 {
            f.add("twitter.com", "US", TaskOutcome::Success);
        }
        let d = detector().detect(&f.records, &f.geo());
        let countries: Vec<_> = d.iter().map(|x| x.country).collect();
        assert!(countries.contains(&country("CN")));
        assert!(countries.contains(&country("IR")));
        assert_eq!(d.len(), 2);
    }

    impl Fixture {
        /// A result record from a chosen address, URL and receive time.
        fn add_from(&mut self, ip: Ipv4Addr, url: &str, outcome: TaskOutcome, at_secs: u64) {
            self.next_id += 1;
            self.records.push(StoredMeasurement {
                submission: Submission {
                    measurement_id: MeasurementId(self.next_id),
                    phase: SubmissionPhase::Result,
                    outcome: Some(outcome),
                    elapsed_ms: 100,
                    task_type: TaskType::Image,
                    target_url: url.into(),
                    user_agent: "Chrome".into(),
                    congested: false,
                },
                client_ip: ip,
                referer: None,
                received_at: SimTime::from_secs(at_secs),
            });
        }
    }

    #[test]
    fn out_of_order_records_land_in_their_windows_and_the_cap_counts_input_order() {
        use TaskOutcome::{Failure, Success};
        let url = "http://a.com/favicon.ico";
        let mut f = Fixture::new();
        let flooder = f.alloc.allocate(country("TR"));
        // Window 1 (100–199 s) is given first. The flooder's ten
        // successes come first in input order but last in time; by input
        // order the cap of 10 keeps the successes (n = 10, x = 10).
        for i in 0..12 {
            f.add_at("a.com", "US", Success, SimTime::from_secs(100 + i));
        }
        for i in 0..10 {
            f.add_from(flooder, url, Success, 199 - i);
        }
        for i in 0..10 {
            f.add_from(flooder, url, Failure, 120 + i);
        }
        // Window 0 (0–99 s) is given second: ten failures first in input
        // order (last in time), then ten successes the cap must drop
        // (n = 10, x = 0; by time order it would be x = 10, unflagged).
        for i in 0..12 {
            f.add_at("a.com", "US", Success, SimTime::from_secs(i));
        }
        for i in 0..10 {
            f.add_from(flooder, url, Failure, 90 + i);
        }
        for i in 0..10 {
            f.add_from(flooder, url, Success, 10 + i);
        }
        let reports =
            detector().detect_windows(&f.records, &f.geo(), sim_core::SimDuration::from_secs(100));
        assert_eq!(reports.len(), 2);
        assert_eq!(
            (reports[0].window, reports[0].start, reports[0].measurements),
            (0, SimTime::ZERO, 32)
        );
        assert_eq!(
            (reports[1].window, reports[1].start, reports[1].measurements),
            (1, SimTime::from_secs(100), 32)
        );
        let [d] = reports[0].detections.as_slice() else {
            panic!("window 0 must flag exactly TR: {:?}", reports[0].detections);
        };
        assert_eq!(
            (d.domain.as_str(), d.country, d.n, d.x),
            ("a.com", country("TR"), 10, 0)
        );
        // Pr[Binomial(10, 0.7) = 0] = 0.3^10.
        assert!((d.p_value - 5.9049e-6).abs() < 1e-12, "{}", d.p_value);
        assert!(reports[1].detections.is_empty(), "{:?}", reports[1]);
    }

    #[test]
    fn a_window_split_around_a_later_record_keeps_one_per_ip_cap() {
        use TaskOutcome::{Failure, Success};
        let url = "http://a.com/favicon.ico";
        let mut f = Fixture::new();
        let flooder = f.alloc.allocate(country("TR"));
        // Window 0 (0–99 s) comes in two parts around one window-1
        // record. The flooder sends eight failures in each part: one
        // cap of ten over the whole window, not ten per part.
        for i in 0..12 {
            f.add_at("a.com", "US", Success, SimTime::from_secs(i));
        }
        for i in 0..8 {
            f.add_from(flooder, url, Failure, 20 + i);
        }
        f.add_from(flooder, url, Success, 150);
        for i in 0..8 {
            f.add_from(flooder, url, Failure, 40 + i);
        }
        let windows = detector().fold_records(&f.records, &f.geo(), |at| at.as_secs() / 100);
        let folded: Vec<_> = windows
            .iter()
            .map(|w| (w.window, w.measurements, w.cells.clone()))
            .collect();
        assert_eq!(
            folded,
            [
                (
                    0,
                    28,
                    vec![cell("a.com", "TR", 10, 0), cell("a.com", "US", 12, 12)]
                ),
                (1, 1, vec![cell("a.com", "TR", 1, 1)]),
            ]
        );
        let reports =
            detector().detect_windows(&f.records, &f.geo(), sim_core::SimDuration::from_secs(100));
        assert_eq!(reports[0].detections.len(), 1);
        assert_eq!(reports[0].detections[0].n, 10);
    }

    #[test]
    fn mixed_case_hosts_fold_into_one_lowercase_cell() {
        let mut f = Fixture::new();
        let ip = f.alloc.allocate(country("CN"));
        f.add_from(ip, "http://Twitter.COM/x", TaskOutcome::Failure, 0);
        f.add_from(ip, "http://twitter.com/y", TaskOutcome::Success, 0);
        assert_eq!(cells(&detector(), &f), [cell("twitter.com", "CN", 2, 1)]);
    }

    #[test]
    fn crawler_predicate_is_ascii_case_insensitive_and_survives_non_ascii() {
        assert!(is_crawler_ua("GoogleBOT/2"));
        assert!(is_crawler_ua("Scanner"));
        assert!(is_crawler_ua("my-CrAwLeR"));
        assert!(!is_crawler_ua("Mözilla/5.0 (ボット; Çhrome)"));
        assert!(!is_crawler_ua("bo"));
        assert!(!is_crawler_ua(""));
        let mut f = Fixture::new();
        f.add_ua("x.com", "DE", TaskOutcome::Failure, "GoogleBOT/2");
        assert!(f.records[0].is_crawler());
        assert!(cells(&detector(), &f).is_empty());
    }

    #[test]
    fn url_without_a_host_is_skipped() {
        let mut f = Fixture::new();
        let ip = f.alloc.allocate(country("CN"));
        for url in ["http:///favicon.ico", "favicon.ico", "http://:80/x"] {
            f.add_from(ip, url, TaskOutcome::Failure, 0);
        }
        assert_eq!(f.records[0].target_host(), None);
        assert!(cells(&detector(), &f).is_empty());
        let reports =
            detector().detect_windows(&f.records, &f.geo(), sim_core::SimDuration::from_secs(1));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].measurements, 3, "counted before the filters");
        assert!(reports[0].detections.is_empty());
    }
}

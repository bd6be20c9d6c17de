//! Visit analytics — the §6.2 demographic report, the shared visit
//! classification, and the **single merge path** for sharded outputs.
//!
//! The paper's pilot evidence that ordinary web traffic suffices for
//! censorship measurement: 1,171 monthly visits to one academic page,
//! a long tail of countries, 16% of visitors in filtering countries,
//! and dwell times long enough for measurement tasks.
//!
//! Everything a sharded run folds back together — batch reports, rollup
//! series, whole world outcomes, collection snapshots, GeoIP databases —
//! merges through the [`Merge`] trait defined here, so the associativity
//! the shard runner relies on lives (and is property-tested) in exactly
//! one place instead of bespoke counter summing scattered across
//! `shard.rs` and `world.rs`.

use crate::batch::BatchReport;
use crate::driver::VisitRecord;
use crate::world::WorldOutcome;
use encore::collection::CollectionSnapshot;
use encore::geo::GeoDb;
use encore::system::VisitOutcome;
use encore::tasks::TaskOutcome;
use netsim::geo::CountryCode;
use serde::{Deserialize, Serialize};
use sim_core::{merge_time_ordered, SimDuration, SimTime};
use std::collections::BTreeMap;

/// The aggregate facts one visit contributes to a report — the single
/// source of truth for how a [`VisitOutcome`] classifies. Every consumer
/// (the per-visit [`Analytics`], the batch driver's counters, the world
/// engine) derives its numbers from this one function, so "what counts
/// as a loaded origin / an attempted measurement / a blocked task" can
/// never drift between drivers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VisitTally {
    /// The origin page itself loaded.
    pub origin_loaded: bool,
    /// The client obtained at least one measurement task.
    pub got_task: bool,
    /// The visit attempted at least one measurement (executed ≥ 1 task).
    pub attempted_measurement: bool,
    /// Tasks executed during the visit.
    pub tasks_executed: u64,
    /// Executed tasks whose cross-origin resource loaded (the target was
    /// reachable: the "ok" classification).
    pub tasks_succeeded: u64,
    /// Executed tasks whose resource failed to load — the observable
    /// signal a censor (or an unlucky network) produces; the detector,
    /// not the client, decides which ("blocked" vs "error" is a
    /// statistical verdict, §7.2).
    pub tasks_failed: u64,
    /// Init beacons that reached the collection server.
    pub inits_delivered: u64,
    /// Results that reached the collection server.
    pub results_delivered: u64,
}

/// Classify one visit's outcome. See [`VisitTally`].
pub fn tally_outcome(outcome: &VisitOutcome) -> VisitTally {
    let succeeded = outcome
        .executed
        .iter()
        .filter(|(_, exec)| exec.outcome == TaskOutcome::Success)
        .count() as u64;
    let executed = outcome.executed.len() as u64;
    VisitTally {
        origin_loaded: outcome.origin_loaded,
        got_task: outcome.got_task,
        attempted_measurement: executed > 0,
        tasks_executed: executed,
        tasks_succeeded: succeeded,
        tasks_failed: executed - succeeded,
        inits_delivered: outcome.inits_delivered as u64,
        results_delivered: outcome.results_delivered as u64,
    }
}

/// One periodic rollup record: how far a world run had progressed when
/// the rollup event fired.
///
/// Serialization is canonical: fields serialize in declaration order
/// (`at`, `visits`, `collected`), pinned by a unit test, so golden
/// snapshots can cover rollup series byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rollup {
    /// When the rollup fired.
    pub at: SimTime,
    /// Visits executed so far.
    pub visits: u64,
    /// Records in the collection store so far.
    pub collected: usize,
}

/// A time-ordered rollup series with a stable serialized form (a JSON
/// array of canonical [`Rollup`] objects) and an associative merge.
///
/// Merging treats each series as a step function that is 0 before its
/// first sample and holds its last value after its final sample: the
/// merged series samples the *sum* of the step functions at the union of
/// the sample times. Broadcast rollup schedules fire at the same instants
/// on every shard, so in practice this is pointwise summing — the
/// carry-forward only matters at the tail, where shards whose arrivals
/// ran out early stop rescheduling rollups before their siblings do.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RollupSeries(pub Vec<Rollup>);

impl RollupSeries {
    /// Number of rollups in the series.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate over the rollups in firing order.
    pub fn iter(&self) -> std::slice::Iter<'_, Rollup> {
        self.0.iter()
    }
}

impl std::ops::Deref for RollupSeries {
    type Target = [Rollup];
    fn deref(&self) -> &[Rollup] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a RollupSeries {
    type Item = &'a Rollup;
    type IntoIter = std::slice::Iter<'a, Rollup>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// The fold of a set of evicted (closed) rollup points — what remains
/// of a rollup series after windowed eviction. Rollup counters are
/// cumulative, so the fold needs only the number of points folded away
/// and the last point's values; prepending the fold's `last` to the
/// resident tail reconstructs the step function the full series would
/// have sampled from that point on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RollupFold {
    /// Rollup points folded (evicted) into this summary.
    pub points: u64,
    /// The most recent evicted point.
    pub last: Option<Rollup>,
}

impl RollupFold {
    /// Fold one more (later) rollup point in.
    pub fn absorb(&mut self, r: Rollup) {
        debug_assert!(
            self.last.is_none_or(|l| l.at <= r.at),
            "folds are time-ordered"
        );
        self.points += 1;
        self.last = Some(r);
    }
}

impl Merge for RollupFold {
    /// Shards evict on the same broadcast rollup schedule, so `points`
    /// agree and merge by max; `last` values are cumulative per-shard
    /// counters sampled at the latest evicted instant, so they sum (a
    /// shard whose arrivals ran out early carries its final value
    /// forward, matching [`RollupSeries`]'s step-function merge).
    fn merge(self, other: RollupFold) -> RollupFold {
        let last = match (self.last, other.last) {
            (Some(a), Some(b)) => Some(Rollup {
                at: a.at.max(b.at),
                visits: a.visits + b.visits,
                collected: a.collected + b.collected,
            }),
            (a, b) => a.or(b),
        };
        RollupFold {
            points: self.points.max(other.points),
            last,
        }
    }
}

/// A rollup series that keeps only the trailing `window` points
/// resident, folding older points into a [`RollupFold`] as new ones
/// arrive. The engine keeps every rollup in both modes (a rollup is
/// three counters); this type stays only while the benchmark's
/// `rollup_push_ns` probe times it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowedRollups {
    window: usize,
    resident: std::collections::VecDeque<Rollup>,
    folded: RollupFold,
}

impl WindowedRollups {
    /// Keep at most `window` rollup points resident (min 1).
    pub fn new(window: usize) -> WindowedRollups {
        WindowedRollups {
            window: window.max(1),
            resident: std::collections::VecDeque::new(),
            folded: RollupFold::default(),
        }
    }

    /// Append a rollup, evicting the oldest resident point into the
    /// fold if the window is full.
    pub fn push(&mut self, r: Rollup) {
        self.resident.push_back(r);
        while self.resident.len() > self.window {
            let evicted = self.resident.pop_front().expect("non-empty");
            self.folded.absorb(evicted);
        }
    }

    /// Resident point count (≤ window).
    pub fn resident_len(&self) -> usize {
        self.resident.len()
    }
}

/// Streaming-mode summary of a world run: the collection server's
/// accounting. Rides the `FINAL` transport frame next to the exact-mode
/// counters; absent (and unserialized) in exact mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamSummary {
    /// Always empty: the engine keeps every rollup in
    /// [`WorldOutcome::rollups`] and evicts none. Kept while the
    /// benchmark's stream report counts `rollups + evicted.points`.
    pub evicted: RollupFold,
    /// Collection-server per-cause drop accounting.
    pub drops: encore::streaming::DropCounters,
    /// Submissions the collection server accepted.
    pub accepted: u64,
}

impl Merge for StreamSummary {
    fn merge(self, other: StreamSummary) -> StreamSummary {
        let mut drops = self.drops;
        drops.merge(&other.drops);
        StreamSummary {
            evicted: self.evicted.merge(other.evicted),
            drops,
            accepted: self.accepted + other.accepted,
        }
    }
}

/// An associative combine for shard outputs.
///
/// Laws (property-tested in `crates/population/tests/prop.rs`):
/// `merge` must be associative, and for counter-like types commutative
/// with the type's `Default` as identity. The shard runner folds
/// per-shard values **in shard-index order**, so order-sensitive types
/// (like time-ordered visit logs, where equal timestamps keep
/// lower-shard entries first) still merge deterministically.
pub trait Merge: Sized {
    /// Combine two values, consuming both.
    fn merge(self, other: Self) -> Self;
}

/// Fold an iterator of shard outputs in iteration order through
/// [`Merge`]. Returns `None` for an empty iterator.
pub fn merge_in_order<T: Merge>(items: impl IntoIterator<Item = T>) -> Option<T> {
    let mut it = items.into_iter();
    let first = it.next()?;
    Some(it.fold(first, Merge::merge))
}

impl Merge for BatchReport {
    /// Counters add; spans take the maximum (shards run concurrently
    /// over the same simulated window, so the union's span is the
    /// longest shard's, not the sum). Associative and commutative, with
    /// [`BatchReport::default`] as the identity.
    fn merge(mut self, other: BatchReport) -> BatchReport {
        self.visits += other.visits;
        self.origin_loads += other.origin_loads;
        self.visits_with_tasks += other.visits_with_tasks;
        self.tasks_executed += other.tasks_executed;
        self.results_delivered += other.results_delivered;
        self.clients_created += other.clients_created;
        self.clients_reused += other.clients_reused;
        self.dns_cache_hits += other.dns_cache_hits;
        self.connections_reused += other.connections_reused;
        self.session_fetches += other.session_fetches;
        self.sim_span = self.sim_span.max(other.sim_span);
        self
    }
}

impl Merge for RollupSeries {
    fn merge(self, other: RollupSeries) -> RollupSeries {
        if other.is_empty() {
            return self;
        }
        if self.is_empty() {
            return other;
        }
        let (a, b) = (self.0, other.0);
        let mut out = Vec::with_capacity(a.len().max(b.len()));
        let (mut i, mut j) = (0usize, 0usize);
        let (mut last_a, mut last_b): (Option<Rollup>, Option<Rollup>) = (None, None);
        while i < a.len() || j < b.len() {
            let ta = a.get(i).map(|r| r.at);
            let tb = b.get(j).map(|r| r.at);
            let t = match (ta, tb) {
                (Some(x), Some(y)) => x.min(y),
                (Some(x), None) => x,
                (None, Some(y)) => y,
                (None, None) => unreachable!("loop guard"),
            };
            if ta == Some(t) {
                last_a = Some(a[i]);
                i += 1;
            }
            if tb == Some(t) {
                last_b = Some(b[j]);
                j += 1;
            }
            out.push(Rollup {
                at: t,
                visits: last_a.map_or(0, |r| r.visits) + last_b.map_or(0, |r| r.visits),
                collected: last_a.map_or(0, |r| r.collected) + last_b.map_or(0, |r| r.collected),
            });
        }
        RollupSeries(out)
    }
}

impl Merge for WorldOutcome {
    /// Merge two shards' world outcomes: reports and rollup series merge
    /// through their own [`Merge`] impls, visit logs interleave by
    /// arrival time (equal times keep the left/lower shard first), and
    /// `policy_changes_applied` and `control_signals_applied` —
    /// *control-plane* facts replicated on every shard by the broadcast,
    /// not additive counters — merge by maximum (shards agree on them
    /// whenever they replayed the same control schedule). Streaming
    /// summaries, when present, merge through [`StreamSummary`]'s impl.
    fn merge(self, other: WorldOutcome) -> WorldOutcome {
        let streaming = match (self.streaming, other.streaming) {
            (Some(a), Some(b)) => Some(a.merge(b)),
            (a, b) => a.or(b),
        };
        WorldOutcome {
            log: merge_time_ordered(self.log, other.log, |v| v.at),
            report: self.report.merge(other.report),
            rollups: self.rollups.merge(other.rollups),
            policy_changes_applied: self
                .policy_changes_applied
                .max(other.policy_changes_applied),
            control_signals_applied: self
                .control_signals_applied
                .max(other.control_signals_applied),
            streaming,
        }
    }
}

impl Merge for CollectionSnapshot {
    fn merge(self, other: CollectionSnapshot) -> CollectionSnapshot {
        CollectionSnapshot::merge_owned(self, other)
    }
}

impl Merge for GeoDb {
    fn merge(self, other: GeoDb) -> GeoDb {
        GeoDb::merge(self, &other)
    }
}

/// Aggregated analytics over a visit log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Analytics {
    /// Total visits.
    pub total_visits: usize,
    /// Visits per country, descending.
    pub by_country: Vec<(CountryCode, usize)>,
    /// Visits that were automated traffic.
    pub crawler_visits: usize,
    /// Visits that attempted at least one measurement task.
    pub attempted_measurement: usize,
    /// Fraction of human visits dwelling longer than 10 seconds.
    pub frac_over_10s: f64,
    /// Fraction of human visits dwelling longer than 60 seconds.
    pub frac_over_60s: f64,
}

impl Analytics {
    /// Compute analytics from a visit log.
    pub fn from_visits(visits: &[VisitRecord]) -> Analytics {
        let mut by_country: BTreeMap<CountryCode, usize> = BTreeMap::new();
        let mut crawler_visits = 0;
        let mut attempted = 0;
        let mut humans = 0usize;
        let mut over10 = 0usize;
        let mut over60 = 0usize;
        for v in visits {
            *by_country.entry(v.country).or_default() += 1;
            if v.is_crawler {
                crawler_visits += 1;
            } else {
                humans += 1;
                if v.dwell > SimDuration::from_secs(10) {
                    over10 += 1;
                }
                if v.dwell > SimDuration::from_secs(60) {
                    over60 += 1;
                }
            }
            if tally_outcome(&v.outcome).attempted_measurement {
                attempted += 1;
            }
        }
        let mut by_country: Vec<_> = by_country.into_iter().collect();
        by_country.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Analytics {
            total_visits: visits.len(),
            by_country,
            crawler_visits,
            attempted_measurement: attempted,
            frac_over_10s: if humans == 0 {
                0.0
            } else {
                over10 as f64 / humans as f64
            },
            frac_over_60s: if humans == 0 {
                0.0
            } else {
                over60 as f64 / humans as f64
            },
        }
    }

    /// Number of countries with more than `threshold` visits.
    pub fn countries_with_more_than(&self, threshold: usize) -> usize {
        self.by_country
            .iter()
            .filter(|(_, n)| *n > threshold)
            .count()
    }

    /// Fraction of all visits from the given set of countries.
    pub fn fraction_from(&self, countries: &[CountryCode]) -> f64 {
        if self.total_visits == 0 {
            return 0.0;
        }
        let n: usize = self
            .by_country
            .iter()
            .filter(|(c, _)| countries.contains(c))
            .map(|(_, n)| n)
            .sum();
        n as f64 / self.total_visits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore::system::VisitOutcome;
    use netsim::geo::country;
    use sim_core::SimTime;

    /// Fold a whole series: the end-of-run equivalent of the windowed
    /// fold-and-evict.
    fn fold_of(rollups: &[Rollup]) -> RollupFold {
        let mut fold = RollupFold::default();
        for &r in rollups {
            fold.absorb(r);
        }
        fold
    }

    fn visit(cc: &str, dwell_s: u64, crawler: bool, ran_task: bool) -> VisitRecord {
        let mut outcome = VisitOutcome {
            origin_loaded: true,
            got_task: ran_task,
            executed: Vec::new(),
            inits_delivered: 0,
            results_delivered: 0,
        };
        if ran_task {
            outcome.executed.push((
                encore::tasks::MeasurementId(1),
                encore::tasks::TaskExecution {
                    outcome: encore::tasks::TaskOutcome::Success,
                    elapsed: SimDuration::from_millis(200),
                    executed_untrusted_code: false,
                    congested: false,
                },
            ));
        }
        VisitRecord {
            at: SimTime::ZERO,
            origin_index: 0,
            country: country(cc),
            dwell: SimDuration::from_secs(dwell_s),
            is_crawler: crawler,
            outcome,
        }
    }

    #[test]
    fn aggregates_match_hand_counts() {
        let visits = vec![
            visit("US", 5, false, false),
            visit("US", 30, false, true),
            visit("PK", 120, false, true),
            visit("US", 2, true, false),
        ];
        let a = Analytics::from_visits(&visits);
        assert_eq!(a.total_visits, 4);
        assert_eq!(a.crawler_visits, 1);
        assert_eq!(a.attempted_measurement, 2);
        assert_eq!(a.by_country[0], (country("US"), 3));
        // Humans: 3; over 10s: 2; over 60s: 1.
        assert!((a.frac_over_10s - 2.0 / 3.0).abs() < 1e-9);
        assert!((a.frac_over_60s - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn country_threshold_counting() {
        let mut visits = Vec::new();
        for _ in 0..20 {
            visits.push(visit("US", 30, false, true));
        }
        for cc in ["PK", "CN", "IN"] {
            for _ in 0..11 {
                visits.push(visit(cc, 30, false, true));
            }
        }
        visits.push(visit("DE", 30, false, true));
        let a = Analytics::from_visits(&visits);
        assert_eq!(a.countries_with_more_than(10), 4);
        let frac = a.fraction_from(&[country("PK"), country("CN"), country("IN")]);
        assert!((frac - 33.0 / 54.0).abs() < 1e-9);
    }

    #[test]
    fn tally_classifies_success_and_failure() {
        let ok = visit("US", 30, false, true);
        let t = tally_outcome(&ok.outcome);
        assert!(t.origin_loaded && t.got_task && t.attempted_measurement);
        assert_eq!(
            (t.tasks_executed, t.tasks_succeeded, t.tasks_failed),
            (1, 1, 0)
        );

        let mut blocked = visit("PK", 30, false, true);
        blocked.outcome.executed[0].1.outcome = encore::tasks::TaskOutcome::Failure;
        let t = tally_outcome(&blocked.outcome);
        assert_eq!(
            (t.tasks_executed, t.tasks_succeeded, t.tasks_failed),
            (1, 0, 1)
        );

        let idle = visit("US", 1, false, false);
        let t = tally_outcome(&idle.outcome);
        assert!(!t.attempted_measurement);
        assert_eq!(t.tasks_executed, 0);
    }

    fn roll(at_s: u64, visits: u64, collected: usize) -> Rollup {
        Rollup {
            at: SimTime::from_secs(at_s),
            visits,
            collected,
        }
    }

    #[test]
    fn rollup_serialization_is_canonical() {
        // Golden snapshots depend on this exact byte layout: field order
        // `at`, `visits`, `collected`, series as a plain JSON array.
        let series = RollupSeries(vec![roll(86_400, 12, 7)]);
        let json = serde_json::to_string(&series).unwrap();
        assert_eq!(json, r#"[{"at":86400000000,"visits":12,"collected":7}]"#);
        let back: RollupSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(back, series);
    }

    #[test]
    fn rollup_series_merge_sums_pointwise() {
        let a = RollupSeries(vec![roll(10, 5, 2), roll(20, 9, 4)]);
        let b = RollupSeries(vec![roll(10, 3, 1), roll(20, 6, 2)]);
        let m = a.merge(b);
        assert_eq!(m, RollupSeries(vec![roll(10, 8, 3), roll(20, 15, 6)]));
    }

    #[test]
    fn rollup_series_merge_carries_forward_finished_shards() {
        // Shard A's arrivals ran out after t=20; its last counters must
        // still contribute to the union at t=30.
        let a = RollupSeries(vec![roll(10, 5, 2), roll(20, 9, 4)]);
        let b = RollupSeries(vec![roll(10, 3, 1), roll(20, 6, 2), roll(30, 8, 3)]);
        let m = a.merge(b);
        assert_eq!(
            m,
            RollupSeries(vec![roll(10, 8, 3), roll(20, 15, 6), roll(30, 17, 7)])
        );
    }

    #[test]
    fn rollup_series_merge_is_associative_with_identity() {
        let a = RollupSeries(vec![roll(10, 1, 1), roll(25, 2, 2)]);
        let b = RollupSeries(vec![roll(10, 10, 0), roll(20, 20, 5)]);
        let c = RollupSeries(vec![roll(5, 7, 7)]);
        let left = a.clone().merge(b.clone()).merge(c.clone());
        let right = a.clone().merge(b.merge(c));
        assert_eq!(left, right);
        assert_eq!(a.clone().merge(RollupSeries::default()), a);
        assert_eq!(RollupSeries::default().merge(a.clone()), a);
    }

    #[test]
    fn world_outcome_merge_interleaves_logs_and_maxes_policy_count() {
        let v = |at_s: u64, cc: &str| {
            let mut rec = visit(cc, 30, false, false);
            rec.at = SimTime::from_secs(at_s);
            rec
        };
        let report_a = BatchReport {
            visits: 2,
            ..BatchReport::default()
        };
        let report_b = BatchReport {
            visits: 1,
            ..BatchReport::default()
        };
        let a = WorldOutcome {
            log: vec![v(1, "US"), v(5, "US")],
            report: report_a,
            rollups: RollupSeries(vec![roll(10, 2, 0)]),
            policy_changes_applied: 2,
            control_signals_applied: 3,
            streaming: None,
        };
        let b = WorldOutcome {
            log: vec![v(3, "TR")],
            report: report_b,
            rollups: RollupSeries(vec![roll(10, 1, 0)]),
            policy_changes_applied: 2,
            control_signals_applied: 3,
            streaming: None,
        };
        let m = a.merge(b);
        let order: Vec<u64> = m.log.iter().map(|r| r.at.as_secs()).collect();
        assert_eq!(order, vec![1, 3, 5]);
        assert_eq!(m.report.visits, 3);
        assert_eq!(m.rollups, RollupSeries(vec![roll(10, 3, 0)]));
        assert_eq!(m.policy_changes_applied, 2);
        assert_eq!(m.control_signals_applied, 3);
    }

    #[test]
    fn empty_log_is_all_zero() {
        let a = Analytics::from_visits(&[]);
        assert_eq!(a.total_visits, 0);
        assert_eq!(a.frac_over_10s, 0.0);
        assert_eq!(a.fraction_from(&[country("US")]), 0.0);
    }

    #[test]
    fn windowed_rollups_fold_equals_end_of_run_fold() {
        // Every window size against every stream length: the resident
        // set never outgrows the window, no point is lost or counted
        // twice mid-stream, the tail is the series' tail, and fold +
        // tail is the fold of the whole series.
        for window in 1..9 {
            for len in 0..40u64 {
                let points: Vec<Rollup> =
                    (1..=len).map(|i| roll(i * 5, i * 3, i as usize)).collect();
                let mut windowed = WindowedRollups::new(window);
                for (i, &r) in points.iter().enumerate() {
                    windowed.push(r);
                    assert!(windowed.resident_len() <= window);
                    assert_eq!(
                        windowed.folded.points + windowed.resident_len() as u64,
                        i as u64 + 1
                    );
                }
                let evicted = points.len() - windowed.resident_len();
                assert!(windowed.resident.iter().eq(&points[evicted..]));
                assert_eq!(windowed.folded, fold_of(&points[..evicted]));
                let mut total = windowed.folded;
                for &r in &windowed.resident {
                    total.absorb(r);
                }
                assert_eq!(total, fold_of(&points));
            }
        }
    }

    #[test]
    fn rollup_fold_merge_is_associative_with_identity() {
        let f = fold_of;
        let a = f(&[roll(10, 4, 1), roll(20, 9, 3)]);
        let b = f(&[roll(10, 2, 0), roll(20, 5, 1)]);
        let c = f(&[roll(10, 1, 1)]);
        assert_eq!(a.merge(b).merge(c), a.merge(b.merge(c)));
        let id = RollupFold::default();
        assert_eq!(a.merge(id), a);
        assert_eq!(id.merge(a), a);
        // Same rollup schedule on both shards: points agree (max), the
        // last evicted point's cumulative counters sum.
        let m = a.merge(b);
        assert_eq!(m.points, 2);
        assert_eq!(m.last, Some(roll(20, 14, 4)));
        // A shard that stopped evicting earlier carries its last value
        // forward, like RollupSeries' step-function merge tail.
        let m = a.merge(c);
        assert_eq!(m.points, 2);
        assert_eq!(m.last, Some(roll(20, 10, 4)));
    }

    #[test]
    fn stream_summary_merges_drops_and_accepted_additively() {
        let a = StreamSummary {
            evicted: fold_of(&[roll(5, 2, 1)]),
            drops: encore::streaming::DropCounters {
                queue_full: 3,
                queue_full_congested: 1,
                expired: 2,
                duplicate: 4,
            },
            accepted: 100,
        };
        let b = StreamSummary {
            evicted: fold_of(&[roll(5, 1, 0)]),
            drops: encore::streaming::DropCounters {
                queue_full: 1,
                ..Default::default()
            },
            accepted: 50,
        };
        let m = a.merge(b);
        assert_eq!(m.accepted, 150);
        assert_eq!(m.drops.queue_full, 4);
        assert_eq!(m.drops.duplicate, 4);
        assert_eq!(m.evicted.last, Some(roll(5, 3, 1)));
        // Option<StreamSummary> on WorldOutcome: one-sided summaries
        // survive a merge with an exact-mode shard.
        let out = |s: Option<StreamSummary>| WorldOutcome {
            log: Vec::new(),
            report: BatchReport::default(),
            rollups: RollupSeries::default(),
            policy_changes_applied: 0,
            control_signals_applied: 0,
            streaming: s,
        };
        let merged = out(Some(a)).merge(out(None));
        assert_eq!(merged.streaming, Some(a));
        let merged = out(Some(a)).merge(out(Some(b)));
        assert_eq!(merged.streaming, Some(m));
    }
}

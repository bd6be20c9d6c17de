//! Bounded-memory streaming analytics for the collection server.
//!
//! The paper's deployment ingested measurements from web-scale traffic;
//! this module provides the constant-memory counterparts of the exact
//! in-memory record log so the reproduction can be driven at 10⁶–10⁸
//! visits without the analytics state growing with visit count:
//!
//! * [`CountMinSketch`] — conservative-update count-min sketch for
//!   per-URL / per-origin tallies. Rows hash with
//!   [`sim_core::seeded_hash`], so two sketches built from the same
//!   seed hash identically on every shard and merge element-wise. It
//!   is built from two primitives: *the slots of a key*
//!   ([`CountMinSketch::slots_ns`] → [`SketchSlots`], the only code
//!   that reads a key's bytes: one hash per row into a fixed-size
//!   buffer) and *an update or estimate at given slots*
//!   ([`CountMinSketch::add_at`], [`CountMinSketch::estimate_at`]:
//!   counter reads and writes only). `add_ns` / `estimate_ns` are the
//!   two composed; a caller whose keys repeat — the collection server
//!   sees a few dozen URLs and origins millions of times — keeps each
//!   key's slots and pays for hashing once per key, not per update.
//! * [`ReservoirSample`] — a deterministic uniform sample of the
//!   record stream in the priority-tag (bottom-k) formulation of
//!   Vitter's Algorithm R: each record draws a `u64` priority from a
//!   split [`sim_core::SimRng`] stream and the sample keeps the `k`
//!   smallest. Union-and-truncate merge is associative and
//!   commutative with the empty sample as identity, which is what
//!   lets shards sample independently and fold losslessly.
//! * [`WindowCells`] — the per-window `(domain, country) → (n, x)`
//!   success matrix the §7.2 detector consumes. The detector's own
//!   window fold builds it online as submissions arrive and closes it
//!   as sim time passes, so detector input is O(windows × pairs)
//!   instead of O(records).
//! * [`IngestQueue`] + [`DropCounters`] — explicit bounded ingest with
//!   per-cause drop accounting. When the queue is full the server sheds
//!   with a `503` instead of buffering unboundedly, mirroring the
//!   near-source shedding model the congestion layer (PR 7) uses for
//!   transit links; queue-full drops of congestion-flagged submissions
//!   are accounted separately so the two signals can be correlated.
//!
//! Everything here is deterministic: hashing is seeded, priorities come
//! from labelled RNG forks, and all merge operations are
//! order-insensitive. Exact mode shares only [`WindowCells`]: its
//! detector folds the record log into the same closed windows and reads
//! its verdicts off them.

use crate::collection::{canonical_cmp, StoredMeasurement};
use netsim::geo::CountryCode;
use serde::{Deserialize, Serialize};
use sim_core::{seeded_hash, SimDuration, SimTime};

/// Knobs for the opt-in streaming collection mode.
///
/// The record filters (crawler exclusion, the per-IP cap, the
/// congestion discount) are not among them: streaming applies them at
/// ingest time (the raw records are gone by detection time), so ingest
/// takes them from the [`crate::inference::DetectorConfig::default`]
/// the verdicts are judged with, and
/// [`judge_streamed`](crate::inference::FilteringDetector::judge_streamed)
/// refuses a detector that disagrees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingConfig {
    /// Detection window; must equal the rollup cadence so the engine
    /// can close windows as rollups fire.
    pub window: SimDuration,
    /// Reservoir capacity (records kept for spot-checking / reporting).
    pub reservoir: u64,
    /// Count-min sketch rows.
    pub sketch_depth: u32,
    /// Count-min sketch counters per row (error bound ε ≈ e / width).
    pub sketch_width: u32,
    /// Ingest queue capacity; submissions arriving while `pending`
    /// is at capacity are shed with a `503`.
    pub queue_capacity: u64,
    /// Queue drain rate (submissions per simulated second).
    pub drain_per_sec: u64,
}

impl Default for StreamingConfig {
    fn default() -> StreamingConfig {
        StreamingConfig {
            window: SimDuration::from_days(1),
            reservoir: 512,
            sketch_depth: 4,
            sketch_width: 1024,
            queue_capacity: 4096,
            drain_per_sec: 1024,
        }
    }
}

impl StreamingConfig {
    /// Default configuration with the given detection window.
    pub fn with_window(window: SimDuration) -> StreamingConfig {
        StreamingConfig {
            window,
            ..StreamingConfig::default()
        }
    }
}

/// The counter slots of one key in a [`CountMinSketch`]: its column in
/// each row, hashed once by [`CountMinSketch::slots_ns`]. Plain `Copy`
/// data with no heap behind it, so a caller that sees the same keys
/// again and again (the collection server, per interned symbol) can
/// keep the slots and never read the key's bytes a second time. Valid
/// for any sketch with the same dimensions and seed — the condition
/// [`CountMinSketch::merge`] already imposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchSlots {
    /// Column per row; rows at and past the sketch's depth are unused.
    cols: [u32; CountMinSketch::MAX_DEPTH as usize],
}

#[cfg(test)]
thread_local! {
    /// Keys hashed into slots or dedup hashes on this thread — lets the
    /// collection tests assert that steady-state ingest hashes none.
    pub(crate) static KEY_HASHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Conservative-update count-min sketch with deterministic seeded rows.
///
/// Estimates never under-count: `estimate(k) ≥ Σ add(k, ·)`, both for a
/// single sketch and after any sequence of [`merge`](Self::merge)s
/// (element-wise addition preserves the invariant because
/// `min_j (a_j + b_j) ≥ min_j a_j + min_j b_j`). Over-count is bounded
/// by ε·N with ε ≈ e/width for all but a δ ≈ exp(−depth) fraction of
/// keys; conservative update (raise each row only to the new estimate,
/// not by the increment) tightens that substantially in practice.
///
/// Keys live in small namespaces (one byte) so one sketch can carry
/// several logical tallies — the collection server uses
/// [`NS_URL`](Self::NS_URL) for target URLs and
/// [`NS_ORIGIN`](Self::NS_ORIGIN) for submitting origin pages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountMinSketch {
    depth: u32,
    width: u32,
    seed: u64,
    /// Total count added across all keys (the N in the ε·N bound).
    items: u64,
    /// Row-major `depth × width` counters.
    counters: Vec<u64>,
}

impl CountMinSketch {
    /// Namespace for per-target-URL tallies.
    pub const NS_URL: u8 = b'u';
    /// Namespace for per-origin (submitting page) tallies.
    pub const NS_ORIGIN: u8 = b'o';

    /// Most rows a sketch may have — what lets a key's slots live in a
    /// fixed-size buffer. δ ≈ exp(−8) is already 0.03 % of keys.
    pub const MAX_DEPTH: u32 = 8;

    /// New empty sketch. Panics if `depth` or `width` is zero, or
    /// `depth` exceeds [`MAX_DEPTH`](Self::MAX_DEPTH).
    pub fn new(depth: u32, width: u32, seed: u64) -> CountMinSketch {
        assert!(depth > 0 && width > 0, "sketch dimensions must be nonzero");
        assert!(
            depth <= Self::MAX_DEPTH,
            "sketch depth {depth} exceeds the maximum of {}",
            Self::MAX_DEPTH
        );
        CountMinSketch {
            depth,
            width,
            seed,
            items: 0,
            counters: vec![0; depth as usize * width as usize],
        }
    }

    /// The counter slots of `key` in namespace `ns`: one column per row,
    /// each from an independent hash function (the row number and the
    /// namespace are folded into the seed). This is the only place a
    /// key's bytes are read — `depth` passes, into a fixed-size buffer.
    pub fn slots_ns(&self, ns: u8, key: &[u8]) -> SketchSlots {
        #[cfg(test)]
        KEY_HASHES.with(|n| n.set(n.get() + 1));
        let mut cols = [0u32; Self::MAX_DEPTH as usize];
        for (row, col) in cols.iter_mut().take(self.depth as usize).enumerate() {
            let salt = self.seed
                ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(row as u64 + 1)
                ^ (u64::from(ns) << 56);
            *col = (seeded_hash(salt, key) % u64::from(self.width)) as u32;
        }
        SketchSlots { cols }
    }

    /// The columns of `slots` that this sketch's rows use.
    fn cols<'a>(&self, slots: &'a SketchSlots) -> &'a [u32] {
        &slots.cols[..self.depth as usize]
    }

    /// Conservative update at `slots`: one min pass for the current
    /// estimate, one pass raising each row to estimate + `count` (never
    /// by the increment itself). `slots` must come from
    /// [`slots_ns`](Self::slots_ns) on a sketch with these dimensions
    /// and this seed.
    pub fn add_at(&mut self, slots: &SketchSlots, count: u64) {
        self.items = self.items.saturating_add(count);
        let target = self.estimate_at(slots).saturating_add(count);
        let width = self.width as usize;
        for (row, &col) in self.cols(slots).iter().enumerate() {
            let counter = &mut self.counters[row * width + col as usize];
            if *counter < target {
                *counter = target;
            }
        }
    }

    /// Point estimate at `slots` (min over rows).
    pub fn estimate_at(&self, slots: &SketchSlots) -> u64 {
        let width = self.width as usize;
        self.cols(slots)
            .iter()
            .enumerate()
            .map(|(row, &col)| self.counters[row * width + col as usize])
            .min()
            .expect("depth > 0")
    }

    /// Add `count` occurrences of `key` in namespace `ns`
    /// (conservative update).
    pub fn add_ns(&mut self, ns: u8, key: &[u8], count: u64) {
        self.add_at(&self.slots_ns(ns, key), count);
    }

    /// Point estimate for `key` in namespace `ns` (min over rows).
    pub fn estimate_ns(&self, ns: u8, key: &[u8]) -> u64 {
        self.estimate_at(&self.slots_ns(ns, key))
    }

    /// Add in the default namespace.
    pub fn add(&mut self, key: &[u8], count: u64) {
        self.add_ns(0, key, count);
    }

    /// Estimate in the default namespace.
    pub fn estimate(&self, key: &[u8]) -> u64 {
        self.estimate_ns(0, key)
    }

    /// Total count added across all keys and namespaces.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Sketch width (counters per row).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Element-wise merge. Panics unless both sketches share dimensions
    /// and seed (identical row hash functions are what make the merged
    /// estimate sound).
    pub fn merge(&mut self, other: &CountMinSketch) {
        assert!(
            self.depth == other.depth && self.width == other.width && self.seed == other.seed,
            "count-min merge requires identical dimensions and seed"
        );
        self.items = self.items.saturating_add(other.items);
        for (c, o) in self.counters.iter_mut().zip(&other.counters) {
            *c = c.saturating_add(*o);
        }
    }

    /// Resident bytes of the counter array.
    pub fn resident_bytes(&self) -> usize {
        self.counters.len() * std::mem::size_of::<u64>() + std::mem::size_of::<CountMinSketch>()
    }
}

/// One sampled record with its priority tag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReservoirEntry {
    /// Uniform `u64` priority drawn when the record was ingested; the
    /// sample keeps the `capacity` smallest across all shards.
    pub priority: u64,
    /// The sampled record.
    pub record: StoredMeasurement,
}

/// Deterministic uniform sample in the mergeable bottom-k formulation
/// of Vitter's Algorithm R.
///
/// Every ingested record draws one priority from a split RNG stream;
/// the sample keeps the `capacity` records with the smallest
/// priorities (ties broken by the canonical record order). Because
/// "bottom k of the union" is associative and commutative, per-shard
/// samples merge into exactly the sample a single server would have
/// drawn, and the empty sample is the identity.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ReservoirSample {
    /// Maximum entries retained.
    pub capacity: u64,
    /// Total records offered (the sample's weight: each entry stands
    /// for `seen / len` records).
    pub seen: u64,
    /// Retained entries, sorted ascending by `(priority, record)`.
    pub entries: Vec<ReservoirEntry>,
}

fn entry_order(a: &ReservoirEntry, b: &ReservoirEntry) -> std::cmp::Ordering {
    a.priority
        .cmp(&b.priority)
        .then_with(|| canonical_cmp(&a.record, &b.record))
}

impl ReservoirSample {
    /// New empty sample retaining at most `capacity` records.
    pub fn new(capacity: u64) -> ReservoirSample {
        ReservoirSample {
            capacity,
            seen: 0,
            entries: Vec::new(),
        }
    }

    /// Whether a record with this priority would currently be admitted
    /// (callers use this to skip materialising records that would be
    /// rejected anyway).
    pub fn would_admit(&self, priority: u64) -> bool {
        if (self.entries.len() as u64) < self.capacity {
            return true;
        }
        match self.entries.last() {
            Some(max) => priority < max.priority,
            None => false,
        }
    }

    /// Offer one record. `seen` always advances; the record is retained
    /// only if its priority lands in the bottom `capacity`.
    pub fn offer(&mut self, priority: u64, record: StoredMeasurement) {
        self.seen += 1;
        if !self.would_admit(priority) {
            return;
        }
        let entry = ReservoirEntry { priority, record };
        let at = self
            .entries
            .partition_point(|e| entry_order(e, &entry) == std::cmp::Ordering::Less);
        self.entries.insert(at, entry);
        self.entries.truncate(self.capacity as usize);
    }

    /// Associative, commutative merge: union, re-sort, keep bottom
    /// `max(capacity)`.
    pub fn merge(&mut self, other: ReservoirSample) {
        self.capacity = self.capacity.max(other.capacity);
        self.seen += other.seen;
        self.entries.extend(other.entries);
        self.entries.sort_by(entry_order);
        self.entries.truncate(self.capacity as usize);
    }

    /// Sampled records in canonical order.
    pub fn records(&self) -> impl Iterator<Item = &StoredMeasurement> {
        self.entries.iter().map(|e| &e.record)
    }

    /// Retained entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the sample holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Per-cause drop accounting for the bounded ingest path.
///
/// | cause                  | meaning                                              |
/// |------------------------|------------------------------------------------------|
/// | `queue_full`           | ingest queue at capacity; shed with `503`            |
/// | `queue_full_congested` | of those, submissions carrying the congestion flag   |
/// | `expired`              | submission for a window already closed and folded    |
/// | `duplicate`            | exact wire duplicate within its open window          |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DropCounters {
    /// Shed because the ingest queue was at capacity.
    pub queue_full: u64,
    /// Subset of `queue_full` whose submission carried the near-source
    /// congestion flag (`cmh-cong=1`) — ingest shedding correlated with
    /// upstream congestion shedding.
    pub queue_full_congested: u64,
    /// Arrived for a window that was already closed and folded.
    pub expired: u64,
    /// Exact wire duplicate of a submission already in its open window.
    pub duplicate: u64,
}

impl DropCounters {
    /// Total dropped submissions (`queue_full_congested` is a subset of
    /// `queue_full`, not an extra cause).
    pub fn total(&self) -> u64 {
        self.queue_full + self.expired + self.duplicate
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &DropCounters) {
        self.queue_full += other.queue_full;
        self.queue_full_congested += other.queue_full_congested;
        self.expired += other.expired;
        self.duplicate += other.duplicate;
    }
}

/// One `(domain, country)` success cell of a closed window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellEntry {
    /// Measured target domain.
    pub domain: String,
    /// Client country.
    pub country: CountryCode,
    /// Counted measurements (after the record filters and per-IP cap).
    pub n: u64,
    /// Successes among `n`.
    pub x: u64,
}

/// The folded detector input for one closed window, in exact and
/// streaming mode alike: the `(domain, country) → (n, x)` cells of the
/// window's records after the record filters and the per-IP cap, plus
/// the raw Result-phase count the windowed report carries. The §7.2
/// rule reads the cells in place, in their sorted order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WindowCells {
    /// Window index (`received_at.as_micros() / window_micros`).
    pub window: u64,
    /// Result-phase submissions received in the window, before filters.
    pub measurements: u64,
    /// Cells strictly ascending by `(domain, country)`, each with
    /// `0 < n` and `x ≤ n`.
    pub cells: Vec<CellEntry>,
}

impl WindowCells {
    /// Merge another window's cells into this one (same window index).
    pub fn merge(&mut self, other: WindowCells) {
        debug_assert_eq!(self.window, other.window);
        self.measurements += other.measurements;
        for cell in other.cells {
            let key = (&cell.domain, cell.country);
            match self
                .cells
                .binary_search_by(|c| (&c.domain, c.country).cmp(&key))
            {
                Ok(i) => {
                    self.cells[i].n += cell.n;
                    self.cells[i].x += cell.x;
                }
                Err(i) => self.cells.insert(i, cell),
            }
        }
    }
}

/// Merge two window-sorted `WindowCells` vectors (associative,
/// commutative; the empty vector is the identity).
pub fn merge_window_cells(into: &mut Vec<WindowCells>, other: Vec<WindowCells>) {
    for w in other {
        match into.binary_search_by_key(&w.window, |c| c.window) {
            Ok(i) => into[i].merge(w),
            Err(i) => into.insert(i, w),
        }
    }
}

/// Bounded ingest queue with a deterministic sim-time drain.
///
/// Submissions admit while `pending < capacity`; pending work drains at
/// `drain_per_sec` as sim time advances (fractional credit is carried,
/// so drain is exact over any step pattern). There is no wall-clock
/// anywhere — the same event sequence always sheds the same
/// submissions.
#[derive(Debug, Clone)]
pub struct IngestQueue {
    capacity: u64,
    drain_per_sec: u64,
    pending: u64,
    last_micros: u64,
    credit_micros: u64,
}

impl IngestQueue {
    /// New empty queue.
    pub fn new(capacity: u64, drain_per_sec: u64) -> IngestQueue {
        IngestQueue {
            capacity,
            drain_per_sec,
            pending: 0,
            last_micros: 0,
            credit_micros: 0,
        }
    }

    /// Advance the drain clock to `now` and try to enqueue one
    /// submission. Returns `false` (shed) when the queue is full.
    pub fn admit(&mut self, now: SimTime) -> bool {
        let now_micros = now.as_micros();
        if now_micros > self.last_micros {
            let elapsed = now_micros - self.last_micros;
            let total = elapsed
                .saturating_mul(self.drain_per_sec)
                .saturating_add(self.credit_micros);
            self.pending = self.pending.saturating_sub(total / 1_000_000);
            self.credit_micros = total % 1_000_000;
            self.last_micros = now_micros;
        }
        if self.pending >= self.capacity {
            false
        } else {
            self.pending += 1;
            true
        }
    }

    /// Submissions currently queued.
    pub fn pending(&self) -> u64 {
        self.pending
    }
}

/// The complete serialisable streaming state of one collection server
/// (or the merge of several shards' servers). This is what rides the
/// transport's SKETCH frame and what the detector's streamed path
/// consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingStats {
    /// Detection window in microseconds.
    pub window_micros: u64,
    /// Submissions accepted into the analytics state (the streaming
    /// counterpart of the exact record count).
    pub accepted: u64,
    /// Per-URL / per-origin tallies.
    pub sketch: CountMinSketch,
    /// Uniform record sample.
    pub reservoir: ReservoirSample,
    /// Closed windows, sorted by window index.
    pub windows: Vec<WindowCells>,
    /// Per-cause drop accounting.
    pub drops: DropCounters,
}

/// What two [`StreamingStats`] must share before they may
/// [`merge`](StreamingStats::merge): the detection window and the
/// sketch's dimensions and seed. Obtained from
/// [`StreamingStats::validate`]; equal shapes merge without a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeShape {
    window_micros: u64,
    depth: u32,
    width: u32,
    seed: u64,
}

impl StreamingStats {
    /// Check stats that arrived from outside the process (a SKETCH
    /// frame's payload): a deserialized sketch never went through
    /// [`CountMinSketch::new`], so its conditions — and the counter
    /// array's length, which `new` fixes by construction — are checked
    /// here, as an error. So is what the detector and
    /// [`WindowCells::merge`] read in place without checking: windows
    /// strictly ascending, each starting within `u64` microseconds, and
    /// [`WindowCells::cells`]' order and bounds. Returns the shape a
    /// sibling's must equal; `new` and [`merge`](Self::merge) keep their
    /// asserts for in-process callers.
    pub fn validate(&self) -> Result<MergeShape, String> {
        let CountMinSketch {
            depth,
            width,
            seed,
            ref counters,
            ..
        } = self.sketch;
        let cells = u64::from(depth) * u64::from(width);
        if depth > CountMinSketch::MAX_DEPTH || cells == 0 || counters.len() as u64 != cells {
            return Err(format!(
                "a {depth} x {width} sketch with {} counters",
                counters.len()
            ));
        }
        let mut after = None;
        for w in &self.windows {
            let cells = &w.cells;
            let why = if after.is_some_and(|a| a >= w.window) {
                "not above the window before it"
            } else if w.window.checked_mul(self.window_micros).is_none() {
                "starts past u64 microseconds"
            } else if cells
                .windows(2)
                .any(|c| (&c[0].domain, c[0].country) >= (&c[1].domain, c[1].country))
            {
                "cells not strictly ascending"
            } else if cells.iter().any(|c| c.n == 0 || c.x > c.n) {
                "a cell with n = 0 or x > n"
            } else {
                after = Some(w.window);
                continue;
            };
            return Err(format!("window {}: {why}", w.window));
        }
        Ok(MergeShape {
            window_micros: self.window_micros,
            depth,
            width,
            seed,
        })
    }

    /// Associative merge of two shards' streaming state. Panics unless
    /// the windows agree (merging different detection windows is
    /// meaningless).
    pub fn merge(&mut self, other: StreamingStats) {
        assert_eq!(
            self.window_micros, other.window_micros,
            "streaming merge requires identical detection windows"
        );
        self.accepted += other.accepted;
        self.sketch.merge(&other.sketch);
        self.reservoir.merge(other.reservoir);
        merge_window_cells(&mut self.windows, other.windows);
        self.drops.merge(&other.drops);
    }

    /// Approximate resident bytes of the streaming analytics state
    /// (sketch counters, reservoir entries, window cells). The
    /// footprint the streaming bound is stated on; intentionally
    /// excludes transient scratch. Each sampled record's URL and user
    /// agent are counted as if it owned them, though records share one
    /// allocation per distinct string: an upper bound.
    pub fn resident_bytes(&self) -> usize {
        let reservoir: usize = self
            .reservoir
            .entries
            .iter()
            .map(|e| {
                std::mem::size_of::<ReservoirEntry>()
                    + e.record.submission.target_url.len()
                    + e.record.submission.user_agent.len()
                    + e.record.referer.as_ref().map_or(0, String::len)
            })
            .sum();
        let windows: usize = self
            .windows
            .iter()
            .map(|w| {
                std::mem::size_of::<WindowCells>()
                    + w.cells
                        .iter()
                        .map(|c| std::mem::size_of::<CellEntry>() + c.domain.len())
                        .sum::<usize>()
            })
            .sum();
        self.sketch.resident_bytes() + reservoir + windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Submission;
    use crate::tasks::{MeasurementId, TaskOutcome, TaskType};
    use sim_core::SimRng;

    fn record(id: u64, at: u64) -> StoredMeasurement {
        StoredMeasurement {
            submission: Submission {
                measurement_id: MeasurementId(id),
                phase: crate::collection::SubmissionPhase::Result,
                outcome: Some(TaskOutcome::Success),
                elapsed_ms: 12,
                task_type: TaskType::Image,
                target_url: "http://example.com/x.png".into(),
                user_agent: "Chrome/52".into(),
                congested: false,
            },
            client_ip: std::net::Ipv4Addr::new(10, 0, 0, (id % 250) as u8 + 1),
            referer: None,
            received_at: SimTime::from_micros(at),
        }
    }

    #[test]
    fn sketch_is_exact_for_sparse_keys() {
        let mut s = CountMinSketch::new(4, 1024, 42);
        for (i, key) in ["a", "bb", "ccc", "dddd"].iter().enumerate() {
            s.add(key.as_bytes(), (i as u64 + 1) * 3);
        }
        for (i, key) in ["a", "bb", "ccc", "dddd"].iter().enumerate() {
            assert_eq!(s.estimate(key.as_bytes()), (i as u64 + 1) * 3);
        }
        assert_eq!(s.items(), 3 + 6 + 9 + 12);
    }

    #[test]
    fn sketch_namespaces_are_independent() {
        let mut s = CountMinSketch::new(4, 256, 7);
        s.add_ns(CountMinSketch::NS_URL, b"example.com", 5);
        assert_eq!(s.estimate_ns(CountMinSketch::NS_URL, b"example.com"), 5);
        assert_eq!(s.estimate_ns(CountMinSketch::NS_ORIGIN, b"example.com"), 0);
    }

    #[test]
    fn sketch_merge_adds_counts() {
        let mut a = CountMinSketch::new(4, 512, 9);
        let mut b = CountMinSketch::new(4, 512, 9);
        a.add(b"k", 3);
        b.add(b"k", 4);
        b.add(b"other", 1);
        a.merge(&b);
        assert!(a.estimate(b"k") >= 7);
        assert_eq!(a.items(), 8);
    }

    #[test]
    #[should_panic(expected = "identical dimensions and seed")]
    fn sketch_merge_rejects_mismatched_seeds() {
        let mut a = CountMinSketch::new(4, 512, 1);
        let b = CountMinSketch::new(4, 512, 2);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "exceeds the maximum")]
    fn sketch_rejects_depth_beyond_the_slot_buffer() {
        CountMinSketch::new(CountMinSketch::MAX_DEPTH + 1, 16, 1);
    }

    #[test]
    fn slots_are_shared_by_sketches_that_may_merge() {
        let mut a = CountMinSketch::new(3, 64, 9);
        let mut b = CountMinSketch::new(3, 64, 9);
        let slots = a.slots_ns(CountMinSketch::NS_URL, b"http://t.co/x");
        assert_eq!(slots, b.slots_ns(CountMinSketch::NS_URL, b"http://t.co/x"));
        assert_ne!(
            slots,
            a.slots_ns(CountMinSketch::NS_ORIGIN, b"http://t.co/x")
        );
        a.add_at(&slots, 2);
        b.add_ns(CountMinSketch::NS_URL, b"http://t.co/x", 2);
        assert_eq!(a, b);
        assert_eq!(a.estimate_at(&slots), 2);
    }

    #[test]
    fn reservoir_keeps_bottom_k_and_merges_like_one_stream() {
        let mut rng = SimRng::new(77);
        let offers: Vec<(u64, StoredMeasurement)> = (0..100)
            .map(|i| (rng.next_u64(), record(i, i * 1_000)))
            .collect();

        let mut whole = ReservoirSample::new(8);
        for (p, r) in offers.clone() {
            whole.offer(p, r);
        }
        // Split the same stream across two "shards" and merge.
        let mut left = ReservoirSample::new(8);
        let mut right = ReservoirSample::new(8);
        for (i, (p, r)) in offers.into_iter().enumerate() {
            if i % 2 == 0 {
                left.offer(p, r);
            } else {
                right.offer(p, r);
            }
        }
        left.merge(right);
        assert_eq!(left, whole);
        assert_eq!(whole.seen, 100);
        assert_eq!(whole.len(), 8);
        // Entries really are the 8 smallest priorities.
        let mut priorities: Vec<u64> = whole.entries.iter().map(|e| e.priority).collect();
        let sorted = priorities.clone();
        priorities.sort_unstable();
        assert_eq!(priorities, sorted);
    }

    #[test]
    fn reservoir_would_admit_matches_offer() {
        let mut s = ReservoirSample::new(2);
        s.offer(50, record(0, 0));
        s.offer(30, record(1, 1));
        assert!(s.would_admit(40));
        assert!(!s.would_admit(60));
        assert!(!s.would_admit(50)); // ties lose to the incumbent max
    }

    #[test]
    fn ingest_queue_sheds_then_drains() {
        let mut q = IngestQueue::new(3, 1); // 1 per second
        let t0 = SimTime::from_micros(0);
        assert!(q.admit(t0) && q.admit(t0) && q.admit(t0));
        assert!(!q.admit(t0), "fourth concurrent submission is shed");
        // 2.5 simulated seconds drain two; fractional credit carries.
        let t1 = SimTime::from_micros(2_500_000);
        assert!(q.admit(t1));
        assert_eq!(q.pending(), 2);
        // The carried 0.5s credit plus another 0.5s drains one more.
        let t2 = SimTime::from_micros(3_000_000);
        assert!(q.admit(t2));
        assert_eq!(q.pending(), 2);
    }

    #[test]
    fn window_cells_merge_is_order_insensitive() {
        let cc = |s: &str| CountryCode::new(s);
        let w = |window, cells: Vec<(&str, &str, u64, u64)>| WindowCells {
            window,
            measurements: cells.iter().map(|c| c.2).sum(),
            cells: cells
                .into_iter()
                .map(|(d, c, n, x)| CellEntry {
                    domain: d.to_string(),
                    country: cc(c),
                    n,
                    x,
                })
                .collect(),
        };
        let a = vec![
            w(0, vec![("a.com", "TR", 4, 1)]),
            w(2, vec![("b.com", "US", 2, 2)]),
        ];
        let b = vec![w(0, vec![("a.com", "TR", 3, 3), ("a.com", "US", 1, 1)])];
        let mut ab = a.clone();
        merge_window_cells(&mut ab, b.clone());
        let mut ba = b;
        merge_window_cells(&mut ba, a);
        assert_eq!(ab, ba);
        assert_eq!(ab[0].cells[0].n, 7);
        assert_eq!(ab[0].measurements, 8);
        assert_eq!(ab[1].window, 2);
    }

    #[test]
    fn drop_counters_merge_and_total() {
        let mut a = DropCounters {
            queue_full: 5,
            queue_full_congested: 2,
            expired: 1,
            duplicate: 0,
        };
        let b = DropCounters {
            queue_full: 1,
            queue_full_congested: 1,
            expired: 0,
            duplicate: 3,
        };
        a.merge(&b);
        assert_eq!(a.total(), 6 + 1 + 3);
        assert_eq!(a.queue_full_congested, 3);
    }

    #[test]
    fn streaming_stats_roundtrip_and_merge() {
        let mut rng = SimRng::new(5);
        let mk = |rng: &mut SimRng, n: u64| {
            let mut s = StreamingStats {
                window_micros: 86_400_000_000,
                accepted: n,
                sketch: CountMinSketch::new(4, 256, 11),
                reservoir: ReservoirSample::new(4),
                windows: Vec::new(),
                drops: DropCounters::default(),
            };
            for i in 0..n {
                s.sketch.add_ns(CountMinSketch::NS_URL, b"http://t.co/x", 1);
                s.reservoir.offer(rng.next_u64(), record(i, i));
            }
            s
        };
        let mut a = mk(&mut rng, 6);
        let b = mk(&mut rng, 3);
        let json = serde_json::to_string(&a).expect("serialize");
        let back: StreamingStats = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, a);
        a.merge(b);
        assert_eq!(a.accepted, 9);
        assert_eq!(
            a.sketch
                .estimate_ns(CountMinSketch::NS_URL, b"http://t.co/x"),
            9
        );
        assert!(a.resident_bytes() > 0);
    }
}

//! The collection server (paper §5.5).
//!
//! "After clients run a measurement task, they submit the result of the
//! task for analysis … by issuing an AJAX request containing the results
//! directly to our collection server." Appendix A shows the wire format:
//! a GET-style request with `cmh-id` / `cmh-result` query parameters; the
//! client also submits an `init` phase "as soon as the client loads the
//! page … even if they don't submit a final result".
//!
//! The server records, with each submission, the client's source address
//! (for geolocation), the `Referer` (unless the origin site strips it —
//! "3/4 of measurements come from sites that elect to strip the Referer
//! header"), and a user-agent tag used to exclude crawler traffic (§7.1:
//! "after excluding erroneously contributed measurements (e.g., from Web
//! crawlers)").

use crate::inference::{is_crawler_ua, DetectorConfig, WindowFold};
use crate::streaming::{
    CountMinSketch, DropCounters, IngestQueue, ReservoirEntry, ReservoirSample, SketchSlots,
    StreamingConfig, StreamingStats,
};
use crate::tasks::{parse_result_token, result_token, MeasurementId, TaskOutcome, TaskType};
use netsim::geo::CountryCode;
use netsim::http::{ContentType, HttpRequest, HttpResponse, StatusCode};
use netsim::network::{HttpHandler, Network};
use serde::{Deserialize, Serialize};
use sim_core::{
    find_byte, find_either, seeded_hash, splitmix_mix, FxBuildHasher, Interner, SimRng, SimTime,
    Sym, SymTable,
};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::Arc;

/// Which of the two submissions this is (Appendix A: an `init` beacon
/// before the measurement, then the result).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SubmissionPhase {
    /// "Indicates which clients attempted to run the measurement."
    Init,
    /// The measurement outcome.
    Result,
}

/// A client-side submission.
///
/// The URL and user agent are `Arc<str>`: a collection store's records
/// repeat a handful of distinct strings over and over, so every record
/// of one snapshot (or of one worker's record stream) points at one
/// shared allocation per distinct string instead of owning a copy. The
/// type is a storage choice only — JSON and binary encode an `Arc<str>`
/// exactly as the equal `String`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Submission {
    /// Measurement ID linking init and result.
    pub measurement_id: MeasurementId,
    /// Init or result.
    pub phase: SubmissionPhase,
    /// Task outcome (None for init).
    pub outcome: Option<TaskOutcome>,
    /// Elapsed task time in milliseconds (0 for init).
    pub elapsed_ms: u64,
    /// Task mechanism.
    pub task_type: TaskType,
    /// The measured URL.
    pub target_url: Arc<str>,
    /// Browser user agent family (crawlers announce themselves).
    pub user_agent: Arc<str>,
    /// Whether the client observed a near-source congestion signal on a
    /// failed task (the fetch was shed at an overloaded transit link).
    /// Serialized and wire-encoded only when set, so pre-congestion
    /// submissions keep their exact bytes.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub congested: bool,
}

/// Append `s` percent-encoded (minimal query-value encoding). The byte
/// output is identical to the original per-byte `format!` encoder, but
/// streams straight into `out` with no intermediate allocations — this
/// runs twice per submission on the visit hot path.
fn push_pct_encoded(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char)
            }
            _ => {
                out.push('%');
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 0x0F) as usize] as char);
            }
        }
    }
}

/// Append `v` as exactly 16 lowercase hex digits (the
/// [`MeasurementId`] display format's payload).
fn push_hex16(out: &mut String, v: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 16];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = HEX[((v >> (4 * (15 - i))) & 0xF) as usize];
    }
    out.push_str(std::str::from_utf8(&buf).expect("hex digits are ASCII"));
}

/// Append `v` in decimal without going through the `fmt` machinery.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

/// Minimal percent-encoding for query values (allocating wrapper over
/// [`push_pct_encoded`]).
#[cfg(test)]
fn pct_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_pct_encoded(&mut out, s);
    out
}

/// Inverse of [`pct_encode`]. Malformed escapes pass through verbatim.
/// Operates on raw bytes: slicing by byte offset must never split a
/// multi-byte character. Borrows the input when it contains no escapes
/// (the common case for every field but the target URL and UA).
fn pct_decode_cow(s: &str) -> std::borrow::Cow<'_, str> {
    let bytes = s.as_bytes();
    let Some(pct) = find_byte(bytes, b'%') else {
        return std::borrow::Cow::Borrowed(s);
    };
    let mut out = Vec::with_capacity(bytes.len());
    pct_decode_bytes(bytes, pct, &mut out);
    std::borrow::Cow::Owned(match String::from_utf8(out) {
        Ok(decoded) => decoded,
        Err(err) => String::from_utf8_lossy(err.as_bytes()).into_owned(),
    })
}

/// Inverse of [`pct_encode`] decoding into a caller-owned buffer, so a
/// hot caller can reuse one allocation across calls. Same semantics as
/// [`pct_decode_cow`]; `out` is cleared first.
fn pct_decode_into(out: &mut String, s: &str) {
    out.clear();
    let bytes = s.as_bytes();
    let Some(pct) = find_byte(bytes, b'%') else {
        out.push_str(s);
        return;
    };
    let mut buf = std::mem::take(out).into_bytes();
    pct_decode_bytes(bytes, pct, &mut buf);
    *out = match String::from_utf8(buf) {
        Ok(decoded) => decoded,
        Err(err) => String::from_utf8_lossy(err.as_bytes()).into_owned(),
    };
}

/// Shared decode loop: append the decode of `bytes` to `out`, given the
/// position `pct` of the first `'%'`. Copies whole unescaped runs
/// between `'%'`s instead of byte-at-a-time.
fn pct_decode_bytes(bytes: &[u8], mut pct: usize, out: &mut Vec<u8>) {
    fn hex(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    }
    let mut start = 0;
    loop {
        out.extend_from_slice(&bytes[start..pct]);
        start = if pct + 2 < bytes.len() {
            if let (Some(hi), Some(lo)) = (hex(bytes[pct + 1]), hex(bytes[pct + 2])) {
                out.push(hi << 4 | lo);
                pct + 3
            } else {
                out.push(b'%');
                pct + 1
            }
        } else {
            out.push(b'%');
            pct + 1
        };
        match find_byte(&bytes[start..], b'%') {
            Some(rel) => pct = start + rel,
            None => {
                out.extend_from_slice(&bytes[start..]);
                break;
            }
        }
    }
}

/// Inverse of [`pct_encode`] (allocating wrapper over [`pct_decode_cow`]).
#[cfg(test)]
fn pct_decode(s: &str) -> String {
    pct_decode_cow(s).into_owned()
}

/// A borrowed view of a submission's fields — what the client-side hot
/// path builds per delivery without owning the target URL / UA strings.
#[derive(Debug, Clone, Copy)]
pub struct SubmissionParts<'a> {
    /// Measurement ID linking init and result.
    pub measurement_id: MeasurementId,
    /// Init or result.
    pub phase: SubmissionPhase,
    /// Task outcome (None for init).
    pub outcome: Option<TaskOutcome>,
    /// Elapsed task time in milliseconds (0 for init).
    pub elapsed_ms: u64,
    /// Task mechanism.
    pub task_type: TaskType,
    /// The measured URL.
    pub target_url: &'a str,
    /// Browser user agent family.
    pub user_agent: &'a str,
    /// Near-source congestion signal observed (failures only).
    pub congested: bool,
}

impl SubmissionParts<'_> {
    /// Append the Appendix A query encoding to `out`. Byte-identical to
    /// the original `format!`-based encoder.
    pub fn write_query(&self, out: &mut String) {
        self.write_query_with(out, push_pct_encoded);
    }

    /// [`SubmissionParts::write_query`] with the two percent-encoded
    /// fields served from `cache`. Byte-identical output; the per-byte
    /// encoder runs once per distinct target URL / user agent instead of
    /// once per submission.
    pub fn write_query_cached(&self, out: &mut String, cache: &mut EncodeCache) {
        self.write_query_with(out, |out, raw| out.push_str(cache.encoded(raw)));
    }

    /// The one encoder: `escape` appends the target's and the user
    /// agent's percent-encoded forms.
    fn write_query_with(&self, out: &mut String, mut escape: impl FnMut(&mut String, &str)) {
        out.reserve(64 + self.target_url.len() * 3 + self.user_agent.len() * 3);
        out.push_str("cmh-id=m-");
        push_hex16(out, self.measurement_id.0);
        out.push_str("&cmh-result=");
        out.push_str(result_token(self.phase, self.outcome));
        out.push_str("&cmh-elapsed=");
        push_u64(out, self.elapsed_ms);
        out.push_str("&cmh-type=");
        out.push_str(self.task_type.as_str());
        out.push_str("&cmh-target=");
        escape(out, self.target_url);
        out.push_str("&cmh-ua=");
        escape(out, self.user_agent);
        if self.congested {
            // Appended last, and only when set: uncongested submissions
            // keep the exact six-key byte shape (and its fast parse);
            // the trailing '&' in the UA field makes the wire fast path
            // fall back to the general parser, which knows the key.
            out.push_str("&cmh-cong=1");
        }
    }
}

/// Memo of percent-encoded forms keyed by the raw string. The submit
/// hot path encodes the same few target URLs and user agents millions
/// of times; after the first encounter of each distinct string, one
/// hash lookup replaces the per-byte encoder.
#[derive(Debug, Default)]
pub struct EncodeCache {
    map: HashMap<Box<str>, Box<str>, FxBuildHasher>,
}

impl EncodeCache {
    /// The percent-encoded form of `raw`, encoding on first sight.
    pub fn encoded(&mut self, raw: &str) -> &str {
        if !self.map.contains_key(raw) {
            let mut enc = String::new();
            push_pct_encoded(&mut enc, raw);
            self.map.insert(raw.into(), enc.into_boxed_str());
        }
        &self.map[raw]
    }
}

impl Submission {
    /// Borrowed view of this submission's fields.
    pub fn parts(&self) -> SubmissionParts<'_> {
        SubmissionParts {
            measurement_id: self.measurement_id,
            phase: self.phase,
            outcome: self.outcome,
            elapsed_ms: self.elapsed_ms,
            task_type: self.task_type,
            target_url: &self.target_url,
            user_agent: &self.user_agent,
            congested: self.congested,
        }
    }

    /// Decode from a submit URL. Returns `None` on malformed input (the
    /// server drops such requests).
    pub fn from_url(url: &str) -> Option<Submission> {
        let parsed = parse_submission(url)?;
        Some(Submission {
            measurement_id: parsed.measurement_id,
            phase: parsed.phase,
            outcome: parsed.outcome,
            elapsed_ms: parsed.elapsed_ms,
            task_type: parsed.task_type,
            target_url: pct_decode_cow(parsed.target_url_raw).into(),
            user_agent: pct_decode_cow(parsed.user_agent_raw).into(),
            congested: parsed.congested,
        })
    }
}

/// A validated submission whose target/user-agent fields are the raw,
/// still-percent-encoded query slices. Decoding them is deferred to the
/// caller — the collection server decodes into a reused scratch buffer
/// and interns the result, so its hot path never materialises an owned
/// `String`.
struct ParsedSubmission<'a> {
    measurement_id: MeasurementId,
    phase: SubmissionPhase,
    outcome: Option<TaskOutcome>,
    elapsed_ms: u64,
    task_type: TaskType,
    target_url_raw: &'a str,
    user_agent_raw: &'a str,
    congested: bool,
}

/// Fast path for the exact wire shape [`SubmissionParts::write_query`]
/// emits: the six keys in fixed order, none of the first four values
/// escaped. Any deviation returns `None` and the caller falls back to
/// the general parser — this function never *rejects* a query, so the
/// two-parser split cannot change which queries count as malformed. It
/// is handed the query *uncut* (everything after the first `'?'`), so
/// every accepted field must provably contain no `'?'`: the id is 16
/// hex digits, the literal/numeric matches reject it, and the target
/// and user agent scans fall back on it explicitly.
///
/// Equivalence with the general parser on every `Some`: literal value
/// matches (`init`, `image`, …) contain no `%`, so decoding is the
/// identity on them; `elapsed` uses the same `str::parse`; target and
/// user agent are passed through raw in both parsers; and requiring the
/// user agent (the final field) to contain no `&` rules out trailing
/// duplicate keys that the general parser would let override earlier
/// ones.
fn parse_submission_wire(q: &str) -> Option<ParsedSubmission<'_>> {
    fn split_field(s: &str) -> Option<(&str, &str)> {
        let amp = find_byte(s.as_bytes(), b'&')?;
        Some((&s[..amp], &s[amp + 1..]))
    }
    let rest = q.strip_prefix("cmh-id=m-")?;
    let hex = rest.get(..16)?;
    let measurement_id = MeasurementId(u64::from_str_radix(hex, 16).ok()?);
    let rest = rest[16..].strip_prefix("&cmh-result=")?;
    let (resval, rest) = split_field(rest)?;
    let (phase, outcome) = parse_result_token(resval)?;
    let rest = rest.strip_prefix("cmh-elapsed=")?;
    let (elval, rest) = split_field(rest)?;
    let elapsed_ms: u64 = elval.parse().ok()?;
    let rest = rest.strip_prefix("cmh-type=")?;
    let (tyval, rest) = split_field(rest)?;
    let task_type = TaskType::from_wire(tyval)?;
    let rest = rest.strip_prefix("cmh-target=")?;
    let (target_url_raw, user_agent_raw) = {
        // Stop at '&' like the general parser; fall back on '?' because
        // this path runs on the *uncut* query (the caller has not yet
        // trimmed at a second '?', which the general parser would).
        let amp = find_either(rest.as_bytes(), b'&', b'?')?;
        if rest.as_bytes()[amp] == b'?' {
            return None;
        }
        (&rest[..amp], rest[amp + 1..].strip_prefix("cmh-ua=")?)
    };
    if find_either(user_agent_raw.as_bytes(), b'&', b'?').is_some() {
        return None;
    }
    Some(ParsedSubmission {
        measurement_id,
        phase,
        outcome,
        elapsed_ms,
        task_type,
        target_url_raw,
        user_agent_raw,
        // The congested wire shape carries '&cmh-cong=1' after the UA,
        // which the no-'&'-in-UA rule above already rejects into the
        // general parser — this fast path only sees uncongested queries.
        congested: false,
    })
}

/// Parse a submit URL's query into a borrowed [`ParsedSubmission`].
///
/// The parser walks the query pairs once (last occurrence of a key wins,
/// pairs without `=` are skipped, unknown keys are ignored — the same
/// semantics as the original map-based parser, without the map).
fn parse_submission(url: &str) -> Option<ParsedSubmission<'_>> {
    // Byte-scan the query out of the URL (equivalent to
    // `url.split('?').nth(1)` — the segment between the first '?' and the
    // next one, if any — without the char-pattern machinery; this parser
    // runs up to twice per task).
    let bytes = url.as_bytes();
    let qstart = find_byte(bytes, b'?')? + 1;
    // Nearly every query the server sees is the exact byte shape
    // `write_query` emits; match that shape directly — on the uncut
    // remainder, skipping the second-'?' scan entirely — before falling
    // back to the order-insensitive parser below.
    if let Some(parsed) = parse_submission_wire(&url[qstart..]) {
        return Some(parsed);
    }
    let qend = find_byte(&bytes[qstart..], b'?').map_or(url.len(), |rel| qstart + rel);
    let q = &url[qstart..qend];
    let mut id = None;
    let mut result = None;
    let mut elapsed = None;
    let mut ty = None;
    let mut target = None;
    let mut ua = None;
    let mut cong = None;
    // Single pass: each query byte is examined exactly once. Pair and
    // '=' boundaries are tracked as the scan goes; a pair is processed
    // when its terminating '&' (or the end of the query) is reached.
    let qb = q.as_bytes();
    let mut i = 0;
    let mut pair_start = 0;
    let mut eq_pos = None;
    loop {
        if i == qb.len() || qb[i] == b'&' {
            if let Some(eq) = eq_pos {
                let (k, v) = (&q[pair_start..eq], &q[eq + 1..i]);
                // Keys as emitted by the client are never escaped;
                // decode only when an escape is actually present so the
                // exotic case still matches what a full decode would.
                let decoded_key;
                let key: &str = if k.as_bytes().contains(&b'%') {
                    decoded_key = pct_decode_cow(k);
                    &decoded_key
                } else {
                    k
                };
                match key {
                    "cmh-id" => id = Some(pct_decode_cow(v)),
                    "cmh-result" => result = Some(pct_decode_cow(v)),
                    "cmh-elapsed" => elapsed = Some(pct_decode_cow(v)),
                    "cmh-type" => ty = Some(pct_decode_cow(v)),
                    "cmh-target" => target = Some(v),
                    "cmh-ua" => ua = Some(v),
                    "cmh-cong" => cong = Some(pct_decode_cow(v)),
                    _ => {}
                }
            }
            if i == qb.len() {
                break;
            }
            pair_start = i + 1;
            eq_pos = None;
        } else if qb[i] == b'=' && eq_pos.is_none() {
            eq_pos = Some(i);
        }
        i += 1;
    }
    let id = id?;
    let id_hex = id.strip_prefix("m-")?;
    let measurement_id = MeasurementId(u64::from_str_radix(id_hex, 16).ok()?);
    let (phase, outcome) = parse_result_token(&result?)?;
    Some(ParsedSubmission {
        measurement_id,
        phase,
        outcome,
        elapsed_ms: elapsed?.parse().ok()?,
        task_type: TaskType::from_wire(&ty?)?,
        target_url_raw: target?,
        user_agent_raw: ua.unwrap_or(""),
        congested: cong.as_deref() == Some("1"),
    })
}

/// A submission as stored server-side, enriched with connection metadata.
///
/// The submission's URL and user agent are shared (see [`Submission`]);
/// the referer is still an owned `String`, one copy per record, because
/// code outside this crate reads it as one (it sizes retained records
/// with `String::len`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredMeasurement {
    /// The submission body.
    pub submission: Submission,
    /// Source address of the connection.
    pub client_ip: Ipv4Addr,
    /// `Referer` header, if the origin site did not strip it.
    pub referer: Option<String>,
    /// Server receive time.
    pub received_at: SimTime,
}

impl StoredMeasurement {
    /// Whether this record came from automated traffic (the §6.2 campus
    /// security scanner, search-engine crawlers, …).
    pub fn is_crawler(&self) -> bool {
        is_crawler_ua(&self.submission.user_agent)
    }

    /// Target domain of the measurement.
    pub fn target_domain(&self) -> Option<String> {
        self.target_host().map(Cow::into_owned)
    }

    /// [`target_domain`](Self::target_domain) borrowed from the stored
    /// URL (owned only when the host had to be lower-cased) — what
    /// per-record analysis loops use.
    pub fn target_host(&self) -> Option<Cow<'_, str>> {
        netsim::http::host_ref(&self.submission.target_url)
    }
}

/// A plain-data snapshot of a collection store — everything the analysis
/// pipeline needs, detached from the server's `Rc`-shared live store so
/// it can cross thread boundaries and be merged across parallel shards.
///
/// Merging is defined over the *canonical order* (a total order on
/// records): [`merge_owned`](CollectionSnapshot::merge_owned) is
/// associative and commutative with [`CollectionSnapshot::default`] as
/// identity, so the union of per-shard stores is byte-stable no matter
/// how the shards are combined. The §7.2 detector and every report run
/// once over the merged record vector.
///
/// [`CollectionServer::snapshot`] makes one `Arc<str>` per distinct URL
/// and user agent and points every record holding that text at it, so a
/// snapshot's string heap is its distinct strings, not its record count;
/// merging moves the `Arc`s, so a merge of shard snapshots holds one
/// allocation per distinct string per shard.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CollectionSnapshot {
    /// Stored records, in canonical order. Empty in streaming mode —
    /// the bounded [`StreamingStats`] state stands in for the record
    /// log (the reservoir holds a uniform sample of what the log would
    /// have contained).
    pub records: Vec<StoredMeasurement>,
    /// Malformed submissions dropped server-side.
    pub malformed: u64,
    /// Streaming-mode analytics state. `None` in exact mode, and
    /// skipped from the serialized form, so exact snapshots keep their
    /// exact bytes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub streaming: Option<StreamingStats>,
}

/// Merge two optional streaming states (associative; `None` is identity).
fn merge_streaming_opt(
    a: Option<StreamingStats>,
    b: Option<StreamingStats>,
) -> Option<StreamingStats> {
    match (a, b) {
        (Some(mut x), Some(y)) => {
            x.merge(y);
            Some(x)
        }
        (x, y) => x.or(y),
    }
}

/// The canonical total order on stored measurements: received time first
/// (the natural analysis order), then every remaining field as a
/// tie-break so the order is deterministic for any record multiset.
/// Compares by reference — no allocation per comparison, which keeps
/// canonicalisation cheap on the hot merge path.
pub(crate) fn canonical_cmp(a: &StoredMeasurement, b: &StoredMeasurement) -> std::cmp::Ordering {
    fn key(r: &StoredMeasurement) -> impl Ord + '_ {
        let s = &r.submission;
        (
            r.received_at,
            u32::from(r.client_ip),
            s.measurement_id,
            s.phase,
            s.outcome,
            s.task_type,
            s.elapsed_ms,
            &*s.target_url,
            &*s.user_agent,
            r.referer.as_deref(),
            s.congested,
        )
    }
    key(a).cmp(&key(b))
}

/// Whether `records` are in canonical order: received time first, then
/// every other field (the order a snapshot keeps and a shard streams its
/// records in).
pub fn in_canonical_order<'a>(records: impl IntoIterator<Item = &'a StoredMeasurement>) -> bool {
    records
        .into_iter()
        .is_sorted_by(|a, b| canonical_cmp(a, b).is_le())
}

/// Merge two canonical runs into one, back to front: each step moves the
/// larger of the two last records to the output — `b`'s on a tie, so
/// equal records keep the `a`-before-`b` order of a stable sort once the
/// output is reversed. Every 2¹⁴ records both inputs give their consumed
/// tails back to the allocator.
fn merge_runs(
    mut a: Vec<StoredMeasurement>,
    mut b: Vec<StoredMeasurement>,
) -> Vec<StoredMeasurement> {
    const SHRINK_EVERY: usize = 1 << 14;
    let mut out = Vec::with_capacity(a.len() + b.len());
    loop {
        let from = match (a.last(), b.last()) {
            (Some(x), Some(y)) if canonical_cmp(x, y).is_gt() => &mut a,
            (Some(_), None) => &mut a,
            (_, Some(_)) => &mut b,
            (None, None) => break,
        };
        out.extend(from.pop());
        if out.len() % SHRINK_EVERY == 0 {
            a.shrink_to_fit();
            b.shrink_to_fit();
        }
    }
    out.reverse();
    out
}

impl CollectionSnapshot {
    /// Merge another snapshot into this one, consuming both.
    ///
    /// Both inputs must be canonical (see [`in_canonical_order`]; a
    /// [`CollectionServer::snapshot`] is). The result is what
    /// concatenating `self` and `other` and stable-sorting would give, so
    /// the merge is associative and commutative by value, with
    /// [`CollectionSnapshot::default`] as identity.
    ///
    /// The merge holds one copy of the records. When all of `other` sorts
    /// at-or-after all of `self` — every chunk of a shard's in-order record
    /// stream — it is appended, keeping a per-chunk fold linear. Otherwise
    /// the two runs merge into one output allocated once, and each input
    /// hands back its consumed tail as it goes: no record is resident
    /// twice and no sort scratch is allocated.
    pub fn merge_owned(mut self, other: CollectionSnapshot) -> CollectionSnapshot {
        debug_assert!(
            in_canonical_order(&self.records) && in_canonical_order(&other.records),
            "merge_owned: both inputs must be canonical"
        );
        self.malformed += other.malformed;
        self.streaming = merge_streaming_opt(self.streaming.take(), other.streaming);
        match (self.records.last(), other.records.first()) {
            (Some(a), Some(b)) if canonical_cmp(a, b).is_le() => {
                self.records.extend(other.records);
            }
            (None, _) => self.records = other.records,
            (_, None) => {}
            _ => self.records = merge_runs(self.records, other.records),
        }
        self
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the snapshot holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Distinct client IPs across the records.
    pub fn distinct_ips(&self) -> usize {
        let mut ips: Vec<_> = self.records.iter().map(|r| r.client_ip).collect();
        ips.sort();
        ips.dedup();
        ips.len()
    }
}

/// Append the full submit URL (`http://<domain>/submit?<query>`) to
/// `out` — the zero-intermediate-allocation form the delivery hot path
/// uses with a reused buffer.
pub fn write_submit_url(out: &mut String, domain: &str, parts: &SubmissionParts<'_>) {
    out.push_str("http://");
    out.push_str(domain);
    out.push_str("/submit?");
    parts.write_query(out);
}

/// [`write_submit_url`] with the encoded fields served from `cache`.
pub fn write_submit_url_cached(
    out: &mut String,
    domain: &str,
    parts: &SubmissionParts<'_>,
    cache: &mut EncodeCache,
) {
    out.push_str("http://");
    out.push_str(domain);
    out.push_str("/submit?");
    parts.write_query_cached(out, cache);
}

/// A stored measurement in the server's internal, interned form: every
/// string field (target URL, user agent, referer) is a dense [`Sym`] into
/// the store's shared table. The visit hot path pushes a couple of these
/// per visit; with the working set of distinct strings interned after the
/// first few submissions, a push performs no string allocation at all.
/// [`Store::resolve`] rehydrates the public [`StoredMeasurement`] form at
/// snapshot time, off the hot path.
#[derive(Debug, Clone)]
struct RawRecord {
    measurement_id: MeasurementId,
    phase: SubmissionPhase,
    outcome: Option<TaskOutcome>,
    elapsed_ms: u64,
    task_type: TaskType,
    congested: bool,
    target_url: Sym,
    user_agent: Sym,
    client_ip: Ipv4Addr,
    referer: Option<Sym>,
    received_at: SimTime,
}

impl RawRecord {
    /// The record of an accepted submission: `parsed`'s fields, its two
    /// strings as `target_url` and `user_agent`, and the connection's.
    fn new(
        parsed: &ParsedSubmission<'_>,
        target_url: Sym,
        user_agent: Sym,
        client_ip: Ipv4Addr,
        referer: Option<Sym>,
        received_at: SimTime,
    ) -> RawRecord {
        RawRecord {
            measurement_id: parsed.measurement_id,
            phase: parsed.phase,
            outcome: parsed.outcome,
            elapsed_ms: parsed.elapsed_ms,
            task_type: parsed.task_type,
            congested: parsed.congested,
            target_url,
            user_agent,
            client_ip,
            referer,
            received_at,
        }
    }
}

/// The collection server's bounded streaming state (`Store.streaming`).
#[derive(Debug)]
struct StreamingState {
    window_micros: u64,
    /// Priority stream for the reservoir (split per shard; the sample
    /// merge is a union, so streams need not match across shards).
    rng: SimRng,
    sketch: CountMinSketch,
    reservoir_capacity: u64,
    reservoir_seen: u64,
    /// Kept ascending by priority (ties broken by receive order).
    reservoir: Vec<(u64, RawRecord)>,
    queue: IngestQueue,
    drops: DropCounters,
    accepted: u64,
    /// Windows below this index are closed and folded; late submissions
    /// for them are dropped as `expired`.
    watermark: u64,
    /// Hashes of the exact wire tuples accepted, per open window.
    dedup: BTreeMap<u64, HashSet<u64, FxBuildHasher>>,
    /// The detector's window fold, under the [`DetectorConfig::default`]
    /// the verdicts are judged with.
    fold: WindowFold,
    /// Memo: target-URL sym → its domain's sym (None if the URL has no
    /// host). Like the three memos below: derived from the symbol's
    /// string on first ask, rebuilt on demand, and therefore never
    /// serialized.
    domain_of: SymTable<Option<Sym>>,
    /// Memo: user-agent sym → crawler flag.
    crawler_of: SymTable<bool>,
    /// Memo: target-URL sym → its [`CountMinSketch::NS_URL`] slots, so
    /// a URL's bytes are hashed on first sight only.
    url_slots: SymTable<SketchSlots>,
    /// Memo: referer sym → its [`CountMinSketch::NS_ORIGIN`] slots.
    origin_slots: SymTable<SketchSlots>,
}

impl StreamingState {
    fn new(cfg: &StreamingConfig, sketch_seed: u64, rng: SimRng) -> StreamingState {
        StreamingState {
            window_micros: cfg.window.as_micros().max(1),
            rng,
            sketch: CountMinSketch::new(cfg.sketch_depth, cfg.sketch_width, sketch_seed),
            reservoir_capacity: cfg.reservoir,
            reservoir_seen: 0,
            reservoir: Vec::new(),
            queue: IngestQueue::new(cfg.queue_capacity, cfg.drain_per_sec),
            drops: DropCounters::default(),
            accepted: 0,
            watermark: 0,
            dedup: BTreeMap::new(),
            fold: WindowFold::new(DetectorConfig::default()),
            domain_of: SymTable::default(),
            crawler_of: SymTable::default(),
            url_slots: SymTable::default(),
            origin_slots: SymTable::default(),
        }
    }
}

/// Byte hash of one raw (still-escaped) query slice — the per-field
/// ingredient of [`dedup_key`]. [`RawSyms`] computes it once per
/// distinct slice.
fn raw_hash(raw: &str) -> u64 {
    #[cfg(test)]
    crate::streaming::KEY_HASHES.with(|n| n.set(n.get() + 1));
    seeded_hash(0x00D5_D00D_F00D_0001, raw.as_bytes())
}

/// Hash of a submission's full wire identity (every parsed field plus
/// connection metadata) — the duplicate gate compares these without
/// allocating. The target and user agent enter as the [`raw_hash`] of
/// their *raw* spellings, so two escapings of one decoded string are
/// different wire tuples. A 64-bit collision silently drops one
/// submission; at sim scales (≪ 2³²) that is beyond vanishing.
fn dedup_key(
    parsed: &ParsedSubmission<'_>,
    target_hash: u64,
    user_agent_hash: u64,
    ip: Ipv4Addr,
    now: SimTime,
) -> u64 {
    let mut h = splitmix_mix(target_hash);
    h = splitmix_mix(h ^ user_agent_hash);
    h = splitmix_mix(h ^ parsed.measurement_id.0);
    h = splitmix_mix(h ^ u64::from(u32::from(ip)));
    h = splitmix_mix(h ^ now.as_micros());
    h = splitmix_mix(h ^ parsed.elapsed_ms);
    let outcome_tag = match parsed.outcome {
        None => 0u64,
        Some(TaskOutcome::Success) => 1,
        Some(TaskOutcome::Failure) => 2,
    };
    let tag = (parsed.phase as u64)
        | ((parsed.task_type as u64) << 8)
        | (outcome_tag << 16)
        | ((parsed.congested as u64) << 24);
    splitmix_mix(h ^ tag)
}

/// The tiny CORS-permissive response every accepted submission gets
/// (shared by the exact and streaming paths so opting into streaming
/// cannot change response bytes or timing for accepted traffic).
fn accepted_response() -> HttpResponse {
    let mut resp = HttpResponse::ok(ContentType::Other, 2).no_store();
    resp.extra_headers
        .push(("Access-Control-Allow-Origin".into(), "*".into()));
    resp
}

/// 503 backpressure: the ingest queue is full and this submission is
/// shed. Clients react exactly as to any failed submit — they try the
/// collector mirrors, which share the store (and therefore the queue),
/// so a saturated collector sheds deterministically.
fn overloaded_response() -> HttpResponse {
    let mut resp = HttpResponse::ok(ContentType::Other, 2).no_store();
    resp.status = StatusCode(503);
    resp
}

#[derive(Debug, Default)]
struct Store {
    strings: Interner,
    records: Vec<RawRecord>,
    malformed: u64,
    raw_syms: RawSyms,
    /// Bounded-memory mode: when set, accepted submissions fold into
    /// sketches/reservoirs/window cells instead of `records`.
    streaming: Option<Box<StreamingState>>,
}

/// Memo from a field's *raw* (still-escaped) query slice to the sym of
/// its decoded form and the [`raw_hash`] of the slice itself — repeat
/// submissions skip the decode, the intern hash of the longer decoded
/// string, and the duplicate gate's byte-wise pass entirely. Decoding
/// is deterministic, so serving the memo is observationally identical
/// to decode-then-intern; two raw spellings of the same decoded string
/// still collapse to one sym via the interner.
#[derive(Debug, Default)]
struct RawSyms {
    seen: HashMap<Box<str>, (Sym, u64), FxBuildHasher>,
    /// Reused percent-decode buffer: each new escaped field is decoded
    /// here and interned, so steady-state submission handling performs
    /// no heap allocation.
    decode_scratch: String,
}

/// What [`RawSyms::peek`] knows of one raw slice: always its hash, and
/// its sym if the slice has been interned before.
#[derive(Debug, Clone, Copy)]
struct RawField {
    hash: u64,
    sym: Option<Sym>,
}

impl RawSyms {
    /// Look `raw` up without recording anything — what the rejection
    /// gates run on. A never-seen slice is hashed on the spot with the
    /// function the memo stores, so first sight and repeats agree.
    fn peek(&self, raw: &str) -> RawField {
        match self.seen.get(raw) {
            Some(&(sym, hash)) => RawField {
                hash,
                sym: Some(sym),
            },
            None => RawField {
                hash: raw_hash(raw),
                sym: None,
            },
        }
    }

    /// The sym of `raw`'s decoded form, given what `peek` found;
    /// decodes, interns and records the slice on first sight.
    fn intern(&mut self, strings: &mut Interner, raw: &str, peeked: RawField) -> Sym {
        if let Some(sym) = peeked.sym {
            return sym;
        }
        pct_decode_into(&mut self.decode_scratch, raw);
        let sym = strings.intern(&self.decode_scratch);
        self.seen.insert(raw.into(), (sym, peeked.hash));
        sym
    }
}

impl Store {
    /// Sym of the decoded form of a raw (possibly escaped) field value.
    fn sym_for_raw(&mut self, raw: &str) -> Sym {
        let peeked = self.raw_syms.peek(raw);
        self.raw_syms.intern(&mut self.strings, raw, peeked)
    }

    /// Streaming-mode ingest. The rejection gates (queue admission,
    /// parse, expiry, dedup) all run on the borrowed wire view — no
    /// interning, decoding into owned strings, or record construction
    /// happens until a submission is definitely accepted, so rejected
    /// and duplicate traffic allocates nothing and grows nothing.
    fn ingest_streaming(
        &mut self,
        req: &HttpRequest,
        client_ip: Ipv4Addr,
        now: SimTime,
    ) -> HttpResponse {
        let Store {
            strings,
            malformed,
            raw_syms,
            streaming,
            ..
        } = self;
        let st = streaming.as_deref_mut().expect("streaming enabled");
        // Gate 1: bounded queue. On overload the server sheds with a
        // 503 before even parsing; the congestion split peeks at the
        // raw query (the flag's wire form is unambiguous).
        if !st.queue.admit(now) {
            st.drops.queue_full += 1;
            if req.url.contains("cmh-cong=1") {
                st.drops.queue_full_congested += 1;
            }
            return overloaded_response();
        }
        // Gate 2: parse (borrowed view; same acceptance set as exact).
        let Some(parsed) = parse_submission(&req.url) else {
            *malformed += 1;
            return HttpResponse::not_found();
        };
        // Gate 3: expired — the window was already closed and folded.
        // Acknowledged (the client did nothing wrong and must not retry
        // mirrors) but counted and discarded.
        let window = now.as_micros() / st.window_micros;
        if window < st.watermark {
            st.drops.expired += 1;
            return accepted_response();
        }
        // Gate 4: exact wire duplicate within its open window.
        // Idempotent-accept semantics: acknowledged, not re-counted.
        let target = raw_syms.peek(parsed.target_url_raw);
        let agent = raw_syms.peek(parsed.user_agent_raw);
        let key = dedup_key(&parsed, target.hash, agent.hash, client_ip, now);
        if !st.dedup.entry(window).or_default().insert(key) {
            st.drops.duplicate += 1;
            return accepted_response();
        }
        // Accepted: from here on interning/allocation is fine.
        let target_url = raw_syms.intern(strings, parsed.target_url_raw, target);
        let user_agent = raw_syms.intern(strings, parsed.user_agent_raw, agent);
        let referer = req.referer.as_deref().map(|r| strings.intern(r));
        st.accepted += 1;

        // Per-URL / per-origin tallies, at slots memoised per symbol:
        // a known URL or origin touches its counters and hashes nothing.
        let slots = *st.url_slots.get_or_insert_with(target_url, || {
            let url = strings.resolve(target_url);
            st.sketch.slots_ns(CountMinSketch::NS_URL, url.as_bytes())
        });
        st.sketch.add_at(&slots, 1);
        if let Some(origin) = referer {
            let slots = *st.origin_slots.get_or_insert_with(origin, || {
                let origin = strings.resolve(origin);
                st.sketch
                    .slots_ns(CountMinSketch::NS_ORIGIN, origin.as_bytes())
            });
            st.sketch.add_at(&slots, 1);
        }

        // The detector's own window fold, run at ingest because the raw
        // record will not exist at detect time; addresses are located
        // when the window closes.
        let domain = *st.domain_of.get_or_insert_with(target_url, || {
            netsim::http::host_of(strings.resolve(target_url)).map(|d| strings.intern(&d))
        });
        let crawler = *st
            .crawler_of
            .get_or_insert_with(user_agent, || is_crawler_ua(strings.resolve(user_agent)));
        let said = (parsed.phase, parsed.outcome, parsed.congested);
        st.fold.push(window, client_ip, said, || crawler, || domain);

        // Reservoir: one priority draw per accepted submission; the
        // record is only materialised if it enters the sample.
        st.reservoir_seen += 1;
        let priority = st.rng.next_u64();
        let full = st.reservoir.len() as u64 >= st.reservoir_capacity;
        let admit = !full || st.reservoir.last().is_some_and(|(max, _)| priority < *max);
        if admit && st.reservoir_capacity > 0 {
            let record = RawRecord::new(&parsed, target_url, user_agent, client_ip, referer, now);
            let at = st.reservoir.partition_point(|(p, _)| *p <= priority);
            st.reservoir.insert(at, (priority, record));
            st.reservoir.truncate(st.reservoir_capacity as usize);
        }
        accepted_response()
    }

    /// Close every open window below `boundary`, resolving client IPs
    /// to countries with `resolve`, and forget those windows' dedup sets.
    fn close_windows_below(
        &mut self,
        boundary: u64,
        resolve: &mut dyn FnMut(Ipv4Addr) -> Option<CountryCode>,
    ) {
        let Store {
            strings, streaming, ..
        } = self;
        let Some(st) = streaming.as_deref_mut() else {
            return;
        };
        st.watermark = st.watermark.max(boundary);
        st.dedup = st.dedup.split_off(&boundary);
        st.fold.close_below(boundary, strings, resolve);
    }

    /// The serialisable streaming state (closed windows only — callers
    /// close open windows first; the engine does so in `finish`).
    fn streaming_stats(&self) -> Option<StreamingStats> {
        let st = self.streaming.as_deref()?;
        let mut shared = SymTable::default();
        let mut entries: Vec<ReservoirEntry> = st
            .reservoir
            .iter()
            .map(|(priority, r)| ReservoirEntry {
                priority: *priority,
                record: self.resolve(r, &mut shared),
            })
            .collect();
        entries.sort_by(|a, b| {
            a.priority
                .cmp(&b.priority)
                .then_with(|| canonical_cmp(&a.record, &b.record))
        });
        Some(StreamingStats {
            window_micros: st.window_micros,
            accepted: st.accepted,
            sketch: st.sketch.clone(),
            reservoir: ReservoirSample {
                capacity: st.reservoir_capacity,
                seen: st.reservoir_seen,
                entries,
            },
            windows: st.fold.closed.clone(),
            drops: st.drops,
        })
    }

    /// The record log rehydrated in [`canonical_cmp`]'s order, with the
    /// order decided on the interned form: 16-byte `(received_at, index)`
    /// keys are sorted — ties broken by the rest of the canonical key,
    /// each string standing in as its rank among the interner's distinct
    /// strings, which compares as the string does — and each record is
    /// then built once, in place, its URL and user agent shared through
    /// one `Arc<str>` per symbol. Sorting the public form instead moves
    /// 96-byte records through the sort's scratch buffer, for a log
    /// that arrives almost in order.
    fn canonical_records(&self) -> Vec<StoredMeasurement> {
        let symbols = u32::try_from(self.strings.len()).expect("the interner issues u32 symbols");
        let mut by_string: Vec<u32> = (0..symbols).collect();
        by_string.sort_unstable_by_key(|&sym| self.strings.resolve(Sym(sym)));
        let mut rank = vec![0u32; by_string.len()];
        for (position, &sym) in (0u32..).zip(&by_string) {
            rank[sym as usize] = position;
        }
        let rank = |sym: Sym| rank[sym.index()];
        // `canonical_cmp`'s key after `received_at`, field for field; the
        // index last makes the order total, so equal records keep their
        // arrival order whatever the sort.
        let rest = |index: usize| {
            let r = &self.records[index];
            (
                u32::from(r.client_ip),
                r.measurement_id,
                r.phase,
                r.outcome,
                r.task_type,
                r.elapsed_ms,
                rank(r.target_url),
                rank(r.user_agent),
                r.referer.map(rank),
                r.congested,
                index,
            )
        };
        let mut order: Vec<(SimTime, usize)> = self
            .records
            .iter()
            .enumerate()
            .map(|(index, r)| (r.received_at, index))
            .collect();
        order.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| rest(a.1).cmp(&rest(b.1))));
        let mut shared = SymTable::default();
        order
            .iter()
            .map(|&(_, index)| self.resolve(&self.records[index], &mut shared))
            .collect()
    }

    /// Rehydrate an interned record into the public form. `shared`
    /// holds the one `Arc<str>` made for each symbol so far, so every
    /// record resolved through the same table points its URL and user
    /// agent at one allocation per distinct string; the referer is
    /// copied, as its type is `String`.
    fn resolve(&self, r: &RawRecord, shared: &mut SymTable<Arc<str>>) -> StoredMeasurement {
        let mut text = |sym: Sym| {
            Arc::clone(shared.get_or_insert_with(sym, || self.strings.resolve(sym).into()))
        };
        StoredMeasurement {
            submission: Submission {
                measurement_id: r.measurement_id,
                phase: r.phase,
                outcome: r.outcome,
                elapsed_ms: r.elapsed_ms,
                task_type: r.task_type,
                target_url: text(r.target_url),
                user_agent: text(r.user_agent),
                congested: r.congested,
            },
            client_ip: r.client_ip,
            referer: r.referer.map(|s| self.strings.resolve(s).to_string()),
            received_at: r.received_at,
        }
    }
}

/// The collection server: an HTTP endpoint accumulating submissions.
#[derive(Clone)]
pub struct CollectionServer {
    /// DNS name clients submit to.
    pub domain: String,
    store: Rc<RefCell<Store>>,
}

impl HttpHandler for CollectionServer {
    fn handle(&self, req: &HttpRequest, client_ip: Ipv4Addr, now: SimTime) -> HttpResponse {
        if !req.path().starts_with("/submit") {
            return HttpResponse::not_found();
        }
        if self.store.borrow().streaming.is_some() {
            return self
                .store
                .borrow_mut()
                .ingest_streaming(req, client_ip, now);
        }
        match parse_submission(&req.url) {
            Some(parsed) => {
                let mut store = self.store.borrow_mut();
                let target_url = store.sym_for_raw(parsed.target_url_raw);
                let user_agent = store.sym_for_raw(parsed.user_agent_raw);
                let referer = req.referer.as_deref().map(|r| store.strings.intern(r));
                let record =
                    RawRecord::new(&parsed, target_url, user_agent, client_ip, referer, now);
                store.records.push(record);
                // Tiny CORS-permissive 204-ish response.
                accepted_response()
            }
            None => {
                self.store.borrow_mut().malformed += 1;
                HttpResponse::not_found()
            }
        }
    }
}

impl CollectionServer {
    /// Create a collection service for `domain`.
    pub fn new(domain: impl Into<String>) -> CollectionServer {
        CollectionServer {
            domain: domain.into(),
            store: Rc::new(RefCell::new(Store::default())),
        }
    }

    /// Register the endpoint in the network (hosted in `country`).
    pub fn install(&self, net: &mut Network, country: CountryCode) {
        net.add_server(&self.domain, country, Box::new(self.clone()));
    }

    /// Register an additional mirror domain sharing the same store (§8:
    /// "collection of the results could be distributed across servers
    /// hosted in different domains").
    pub fn install_mirror(&self, net: &mut Network, mirror_domain: &str, country: CountryCode) {
        net.add_server(mirror_domain, country, Box::new(self.clone()));
    }

    /// The submit URL for a submission (against the primary domain).
    pub fn submit_url(&self, sub: &Submission) -> String {
        let mut url = String::new();
        write_submit_url(&mut url, &self.domain, &sub.parts());
        url
    }

    /// Switch this server into bounded streaming mode. Must be called
    /// before any submission arrives; `sketch_seed` must be identical
    /// on every shard (it defines the sketch's hash functions, which
    /// element-wise merging relies on), while `rng` should be a
    /// per-shard fork (reservoir priority streams merge by union).
    pub fn enable_streaming(&self, cfg: &StreamingConfig, sketch_seed: u64, rng: SimRng) {
        let mut store = self.store.borrow_mut();
        assert!(
            store.records.is_empty(),
            "enable_streaming must precede ingest"
        );
        store.streaming = Some(Box::new(StreamingState::new(cfg, sketch_seed, rng)));
    }

    /// Close all detection windows that end at or before `up_to`,
    /// resolving client IPs to countries with `resolve`. The engine
    /// calls this as sim time crosses rollup boundaries; submissions
    /// arriving for a closed window afterwards are dropped as expired.
    /// No-op in exact mode.
    pub fn close_windows(
        &self,
        up_to: SimTime,
        mut resolve: impl FnMut(Ipv4Addr) -> Option<CountryCode>,
    ) {
        let mut store = self.store.borrow_mut();
        let Some(st) = store.streaming.as_deref() else {
            return;
        };
        let boundary = up_to.as_micros() / st.window_micros;
        store.close_windows_below(boundary, &mut resolve);
    }

    /// Close every window, open or not (end of run). No-op in exact mode.
    pub fn close_all_windows(&self, mut resolve: impl FnMut(Ipv4Addr) -> Option<CountryCode>) {
        self.store
            .borrow_mut()
            .close_windows_below(u64::MAX, &mut resolve);
    }

    /// Per-cause drop counters (zero in exact mode, which never drops).
    pub fn drops(&self) -> DropCounters {
        self.store
            .borrow()
            .streaming
            .as_deref()
            .map(|st| st.drops)
            .unwrap_or_default()
    }

    /// Snapshot of all stored records (resolving interned strings back to
    /// text, each distinct URL and user agent shared as in
    /// [`snapshot`](Self::snapshot) — serialization and analysis see the same bytes as the
    /// pre-interning store produced). In streaming mode the record log
    /// does not exist; this returns the reservoir sample's records in
    /// canonical order.
    pub fn records(&self) -> Vec<StoredMeasurement> {
        let store = self.store.borrow();
        let mut shared = SymTable::default();
        if let Some(st) = store.streaming.as_deref() {
            let mut records: Vec<StoredMeasurement> = st
                .reservoir
                .iter()
                .map(|(_, r)| store.resolve(r, &mut shared))
                .collect();
            records.sort_by(canonical_cmp);
            return records;
        }
        store
            .records
            .iter()
            .map(|r| store.resolve(r, &mut shared))
            .collect()
    }

    /// Detach a canonical, thread-portable snapshot of the store (records
    /// plus the malformed counter) for merging and analysis. In streaming
    /// mode `records` is empty and `streaming` carries the bounded state;
    /// only windows already closed are included, so callers close windows
    /// (the engine's `finish` does) before snapshotting.
    pub fn snapshot(&self) -> CollectionSnapshot {
        let store = self.store.borrow();
        if let Some(stats) = store.streaming_stats() {
            return CollectionSnapshot {
                records: Vec::new(),
                malformed: store.malformed,
                streaming: Some(stats),
            };
        }
        CollectionSnapshot {
            records: store.canonical_records(),
            malformed: store.malformed,
            streaming: None,
        }
    }

    /// Number of stored records; in streaming mode, the number of
    /// accepted submissions (the record log's length had it existed,
    /// minus drops — identical whenever nothing was dropped).
    pub fn len(&self) -> usize {
        let store = self.store.borrow();
        match store.streaming.as_deref() {
            Some(st) => st.accepted as usize,
            None => store.records.len(),
        }
    }

    /// Whether nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count of malformed submissions dropped.
    pub fn malformed(&self) -> u64 {
        self.store.borrow().malformed
    }

    /// Distinct client IPs seen (the paper reports "88,260 distinct
    /// IPs").
    pub fn distinct_ips(&self) -> usize {
        let mut ips: Vec<_> = self
            .store
            .borrow()
            .records
            .iter()
            .map(|r| r.client_ip)
            .collect();
        ips.sort();
        ips.dedup();
        ips.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geo::{country, IspClass, World};
    use sim_core::SimRng;

    fn submission() -> Submission {
        Submission {
            measurement_id: MeasurementId(0xAB),
            phase: SubmissionPhase::Result,
            outcome: Some(TaskOutcome::Failure),
            elapsed_ms: 1_234,
            task_type: TaskType::Image,
            target_url: "http://youtube.com/favicon.ico".into(),
            user_agent: "Chrome".into(),
            congested: false,
        }
    }

    /// The Appendix A query a client appends to the submit URL.
    fn query(s: &Submission) -> String {
        let mut out = String::new();
        s.parts().write_query(&mut out);
        out
    }

    #[test]
    fn submission_roundtrips_through_url() {
        let s = submission();
        let url = format!("http://collector.example/submit?{}", query(&s));
        let back = Submission::from_url(&url).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn init_phase_roundtrips() {
        let s = Submission {
            phase: SubmissionPhase::Init,
            outcome: None,
            elapsed_ms: 0,
            ..submission()
        };
        let url = format!("http://c/submit?{}", query(&s));
        assert_eq!(
            Submission::from_url(&url).unwrap().phase,
            SubmissionPhase::Init
        );
    }

    #[test]
    fn congested_submission_roundtrips_and_plain_wire_is_unchanged() {
        let plain = submission();
        assert!(
            !query(&plain).contains("cmh-cong"),
            "uncongested submissions must keep the pre-congestion bytes"
        );
        let congested = Submission {
            congested: true,
            ..submission()
        };
        let q = query(&congested);
        assert!(q.ends_with("&cmh-cong=1"));
        let back = Submission::from_url(&format!("http://c/submit?{q}")).unwrap();
        assert_eq!(congested, back);
    }

    #[test]
    fn server_stores_congested_flag() {
        let mut net = Network::ideal(World::builtin());
        let server = CollectionServer::new("collector.example");
        server.install(&mut net, country("US"));
        let client = net.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let sub = Submission {
            congested: true,
            ..submission()
        };
        let url = server.submit_url(&sub);
        net.fetch(&client, &HttpRequest::get(&url), SimTime::ZERO, &mut rng);
        assert_eq!(server.len(), 1);
        assert!(server.records()[0].submission.congested);
    }

    #[test]
    fn malformed_submissions_rejected() {
        assert!(Submission::from_url("http://c/submit?cmh-id=garbage").is_none());
        assert!(Submission::from_url("http://c/submit").is_none());
        assert!(Submission::from_url("http://c/submit?cmh-id=m-00ff&cmh-result=banana").is_none());
    }

    #[test]
    fn pct_encoding_roundtrip() {
        let s = "http://a.com/x?q=1&r=%20";
        assert_eq!(pct_decode(&pct_encode(s)), s);
        assert_eq!(pct_encode("a b"), "a%20b");
    }

    #[test]
    fn server_stores_submissions_over_the_network() {
        let mut net = Network::ideal(World::builtin());
        let server = CollectionServer::new("collector.encore-repro.net");
        server.install(&mut net, country("US"));
        let client = net.add_client(country("PK"), IspClass::Residential);
        let mut rng = SimRng::new(1);

        let url = server.submit_url(&submission());
        let req = HttpRequest::get(&url).with_referer("http://origin.example/");
        let out = net.fetch(&client, &req, SimTime::from_secs(10), &mut rng);
        assert!(out.result.is_ok());

        assert_eq!(server.len(), 1);
        let rec = &server.records()[0];
        assert_eq!(rec.client_ip, client.ip);
        assert_eq!(rec.referer.as_deref(), Some("http://origin.example/"));
        assert_eq!(rec.received_at, SimTime::from_secs(10));
        assert_eq!(rec.submission.outcome, Some(TaskOutcome::Failure));
        assert_eq!(rec.target_domain().as_deref(), Some("youtube.com"));
    }

    #[test]
    fn server_counts_malformed() {
        let mut net = Network::ideal(World::builtin());
        let server = CollectionServer::new("collector.example");
        server.install(&mut net, country("US"));
        let client = net.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        net.fetch(
            &client,
            &HttpRequest::get("http://collector.example/submit?junk=1"),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(server.len(), 0);
        assert_eq!(server.malformed(), 1);
    }

    #[test]
    fn mirror_shares_the_store() {
        let mut net = Network::ideal(World::builtin());
        let server = CollectionServer::new("collector.example");
        server.install(&mut net, country("US"));
        server.install_mirror(&mut net, "mirror.example", country("DE"));
        let client = net.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let url = server
            .submit_url(&submission())
            .replace("collector.example", "mirror.example");
        net.fetch(&client, &HttpRequest::get(&url), SimTime::ZERO, &mut rng);
        assert_eq!(server.len(), 1);
    }

    fn stored(id: u64, ip: [u8; 4], at: u64) -> StoredMeasurement {
        StoredMeasurement {
            submission: Submission {
                measurement_id: MeasurementId(id),
                ..submission()
            },
            client_ip: Ipv4Addr::new(ip[0], ip[1], ip[2], ip[3]),
            referer: None,
            received_at: SimTime::from_secs(at),
        }
    }

    use sim_core::SimTime;
    use std::net::Ipv4Addr;

    #[test]
    fn snapshot_captures_records_and_malformed() {
        let mut net = Network::ideal(World::builtin());
        let server = CollectionServer::new("collector.example");
        server.install(&mut net, country("US"));
        let client = net.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let url = server.submit_url(&submission());
        net.fetch(&client, &HttpRequest::get(&url), SimTime::ZERO, &mut rng);
        net.fetch(
            &client,
            &HttpRequest::get("http://collector.example/submit?junk=1"),
            SimTime::ZERO,
            &mut rng,
        );
        let snap = server.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.malformed, 1);
        assert_eq!(snap.distinct_ips(), 1);
    }

    /// An exact-mode snapshot makes one `Arc<str>` per distinct URL and
    /// user agent and points every record holding that text at it; the
    /// JSON is what records owning their copies wrote.
    #[test]
    fn snapshot_records_share_their_text() {
        let server = CollectionServer::new("collector.example");
        let urls = [
            "http://a.example/x.png",
            "http://b.example/y.css",
            "http://c.example/z.js",
        ];
        let agents = ["Chrome", "Firefox"];
        for i in 0..6u64 {
            let sub = Submission {
                measurement_id: MeasurementId(i),
                target_url: urls[i as usize % urls.len()].into(),
                user_agent: agents[i as usize % agents.len()].into(),
                ..submission()
            };
            let req = HttpRequest::get(server.submit_url(&sub)).with_referer("http://o.example/");
            server.handle(&req, Ipv4Addr::new(100, 0, 0, 9), SimTime::from_secs(i));
        }
        let snap = server.snapshot();
        assert_eq!(snap.len(), 6);
        let held = |text: fn(&Submission) -> &Arc<str>| -> Vec<&Arc<str>> {
            snap.records.iter().map(|r| text(&r.submission)).collect()
        };
        let fields = [
            (held(|s| &s.target_url), urls.len()),
            (held(|s| &s.user_agent), agents.len()),
        ];
        for (texts, distinct) in fields {
            for &text in &texts {
                let first = texts.iter().find(|&&t| t == text).expect("itself");
                assert!(Arc::ptr_eq(first, text), "{text} is held twice");
            }
            let mut allocations: Vec<*const u8> = texts.iter().map(|t| t.as_ptr()).collect();
            allocations.sort_unstable();
            allocations.dedup();
            assert_eq!(allocations.len(), distinct);
        }
        let expected = concat!(
            r#"{"records":["#,
            r#"{"submission":{"measurement_id":0,"phase":"Result","outcome":"Failure","elapsed_ms":1234,"task_type":"Image","target_url":"http://a.example/x.png","user_agent":"Chrome"},"client_ip":"100.0.0.9","referer":"http://o.example/","received_at":0},"#,
            r#"{"submission":{"measurement_id":1,"phase":"Result","outcome":"Failure","elapsed_ms":1234,"task_type":"Image","target_url":"http://b.example/y.css","user_agent":"Firefox"},"client_ip":"100.0.0.9","referer":"http://o.example/","received_at":1000000},"#,
            r#"{"submission":{"measurement_id":2,"phase":"Result","outcome":"Failure","elapsed_ms":1234,"task_type":"Image","target_url":"http://c.example/z.js","user_agent":"Chrome"},"client_ip":"100.0.0.9","referer":"http://o.example/","received_at":2000000},"#,
            r#"{"submission":{"measurement_id":3,"phase":"Result","outcome":"Failure","elapsed_ms":1234,"task_type":"Image","target_url":"http://a.example/x.png","user_agent":"Firefox"},"client_ip":"100.0.0.9","referer":"http://o.example/","received_at":3000000},"#,
            r#"{"submission":{"measurement_id":4,"phase":"Result","outcome":"Failure","elapsed_ms":1234,"task_type":"Image","target_url":"http://b.example/y.css","user_agent":"Chrome"},"client_ip":"100.0.0.9","referer":"http://o.example/","received_at":4000000},"#,
            r#"{"submission":{"measurement_id":5,"phase":"Result","outcome":"Failure","elapsed_ms":1234,"task_type":"Image","target_url":"http://c.example/z.js","user_agent":"Firefox"},"client_ip":"100.0.0.9","referer":"http://o.example/","received_at":5000000}"#,
            r#"],"malformed":0}"#,
        );
        assert_eq!(serde_json::to_string(&snap).unwrap(), expected);
    }

    #[test]
    fn snapshot_merge_is_order_insensitive() {
        let mut a = CollectionSnapshot {
            records: vec![stored(2, [100, 0, 0, 9], 5), stored(1, [100, 0, 0, 9], 5)],
            malformed: 1,
            streaming: None,
        };
        a.records.sort_by(canonical_cmp);
        let b = CollectionSnapshot {
            records: vec![stored(3, [100, 1, 0, 9], 2)],
            malformed: 2,
            streaming: None,
        };
        // `b` sorts wholly before `a`: one order merges the runs, the
        // other appends.
        let ab = a.clone().merge_owned(b.clone());
        let ba = b.clone().merge_owned(a.clone());
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab.len(), 3);
        assert_eq!(ab.malformed, 3);
        // Canonical order: received time first.
        assert_eq!(ab.records[0].submission.measurement_id, MeasurementId(3));
        // Identity element, on either side.
        assert_eq!(a.clone().merge_owned(CollectionSnapshot::default()), a);
        assert_eq!(CollectionSnapshot::default().merge_owned(a.clone()), a);
    }

    #[test]
    fn crawler_detection() {
        let rec = StoredMeasurement {
            submission: Submission {
                user_agent: "SecurityScanner/2.0".into(),
                ..submission()
            },
            client_ip: Ipv4Addr::new(100, 0, 0, 9),
            referer: None,
            received_at: SimTime::ZERO,
        };
        assert!(rec.is_crawler());
        let human = StoredMeasurement {
            submission: submission(),
            client_ip: Ipv4Addr::new(100, 0, 0, 9),
            referer: None,
            received_at: SimTime::ZERO,
        };
        assert!(!human.is_crawler());
    }

    fn streaming_server(net: &mut Network, cfg: &StreamingConfig) -> CollectionServer {
        let server = CollectionServer::new("collector.example");
        server.install(net, country("US"));
        server.enable_streaming(cfg, 0x00C0_FFEE, SimRng::new(99));
        server
    }

    #[test]
    fn streaming_counts_accepted_and_samples() {
        let mut net = Network::ideal(World::builtin());
        let server = streaming_server(&mut net, &StreamingConfig::default());
        let client = net.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        for i in 0..5u64 {
            let sub = Submission {
                measurement_id: MeasurementId(i),
                ..submission()
            };
            let url = server.submit_url(&sub);
            net.fetch(
                &client,
                &HttpRequest::get(&url),
                SimTime::from_secs(i),
                &mut rng,
            );
        }
        assert_eq!(server.len(), 5, "len() counts accepted submissions");
        assert_eq!(server.records().len(), 5, "reservoir holds the sample");
        let snap = server.snapshot();
        let stats = snap.streaming.expect("streaming stats");
        assert_eq!(stats.accepted, 5);
        assert_eq!(stats.reservoir.seen, 5);
        assert_eq!(
            stats
                .sketch
                .estimate_ns(CountMinSketch::NS_URL, b"http://youtube.com/favicon.ico"),
            5
        );
        assert!(snap.records.is_empty(), "no record log in streaming mode");
        assert_eq!(stats.drops.total(), 0);
    }

    #[test]
    fn streaming_duplicate_rejected_without_growth() {
        let mut net = Network::ideal(World::builtin());
        let server = streaming_server(&mut net, &StreamingConfig::default());
        let client = net.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let url = server.submit_url(&submission());
        // Same wire tuple, same instant, same ip: the second is an exact
        // duplicate and must be acknowledged but not re-counted.
        net.fetch(
            &client,
            &HttpRequest::get(&url),
            SimTime::from_secs(3),
            &mut rng,
        );
        let before = server.snapshot();
        let out = net.fetch(
            &client,
            &HttpRequest::get(&url),
            SimTime::from_secs(3),
            &mut rng,
        );
        assert!(out.result.is_ok_and(|r| r.status.is_success()));
        let after = server.snapshot();
        assert_eq!(server.drops().duplicate, 1);
        assert_eq!(after.streaming.as_ref().unwrap().accepted, 1);
        assert_eq!(
            before.streaming.as_ref().unwrap().sketch,
            after.streaming.as_ref().unwrap().sketch,
            "a rejected duplicate must not touch the analytics state"
        );
        // A later identical tuple at a different instant is NOT a
        // duplicate (received_at is part of the wire identity).
        net.fetch(
            &client,
            &HttpRequest::get(&url),
            SimTime::from_secs(4),
            &mut rng,
        );
        assert_eq!(server.len(), 2);
    }

    #[test]
    fn streaming_expired_submissions_dropped() {
        let mut net = Network::ideal(World::builtin());
        let cfg = StreamingConfig::with_window(sim_core::SimDuration::from_secs(10));
        let server = streaming_server(&mut net, &cfg);
        let client = net.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let url = server.submit_url(&submission());
        net.fetch(
            &client,
            &HttpRequest::get(&url),
            SimTime::from_secs(5),
            &mut rng,
        );
        // Close windows [0, 10): watermark advances past window 0.
        server.close_windows(SimTime::from_secs(10), |_| Some(country("US")));
        // A straggler for the closed window arrives afterwards.
        net.fetch(
            &client,
            &HttpRequest::get(&url),
            SimTime::from_secs(9),
            &mut rng,
        );
        assert_eq!(server.drops().expired, 1);
        assert_eq!(server.len(), 1);
        let stats = server.snapshot().streaming.unwrap();
        assert_eq!(stats.windows.len(), 1);
        assert_eq!(stats.windows[0].measurements, 1);
    }

    #[test]
    fn streaming_queue_full_sheds_with_backpressure() {
        let mut net = Network::ideal(World::builtin());
        let cfg = StreamingConfig {
            queue_capacity: 1,
            drain_per_sec: 0,
            ..StreamingConfig::default()
        };
        let server = streaming_server(&mut net, &cfg);
        let client = net.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let url = server.submit_url(&submission());
        let first = net.fetch(&client, &HttpRequest::get(&url), SimTime::ZERO, &mut rng);
        assert!(first.result.is_ok_and(|r| r.status.is_success()));
        let congested_url = server.submit_url(&Submission {
            congested: true,
            ..submission()
        });
        let shed = net.fetch(
            &client,
            &HttpRequest::get(&congested_url),
            SimTime::ZERO,
            &mut rng,
        );
        assert!(
            shed.result.is_ok_and(|r| r.status == StatusCode(503)),
            "overload must answer 503, not silently accept"
        );
        let drops = server.drops();
        assert_eq!(drops.queue_full, 1);
        assert_eq!(drops.queue_full_congested, 1);
        assert_eq!(server.len(), 1);
    }

    #[test]
    fn streaming_verdicts_match_exact_on_identical_traffic() {
        use crate::geo::GeoDb;
        use crate::inference::FilteringDetector;
        let window = sim_core::SimDuration::from_secs(100);
        let mut net = Network::ideal(World::builtin());
        let exact = CollectionServer::new("exact.example");
        exact.install(&mut net, country("US"));
        let streaming = CollectionServer::new("collector.example");
        streaming.install(&mut net, country("US"));
        streaming.enable_streaming(
            &StreamingConfig::with_window(window),
            0x00C0_FFEE,
            SimRng::new(99),
        );
        let mut rng = SimRng::new(2);
        let mut clients = Vec::new();
        for cc in ["TR", "TR", "TR", "US", "US", "US"] {
            clients.push(net.add_client(country(cc), IspClass::Residential));
        }
        // The database is taken before the last client joins, so its
        // address is in no known range: both modes drop its records.
        let geo = GeoDb::from_allocator(&net.allocator);
        clients.push(net.add_client(country("IR"), IspClass::Residential));
        let unlocated = clients.len() - 1;
        assert_eq!(geo.lookup(clients[unlocated].ip), None);
        let mut id = 0u64;
        let submit = |net: &mut Network, c: usize, sub: Submission, at: u64, rng: &mut SimRng| {
            for domain in ["exact.example", "collector.example"] {
                let mut url = String::new();
                write_submit_url(&mut url, domain, &sub.parts());
                let req = HttpRequest::get(&url).with_referer("http://origin.example/");
                net.fetch(&clients[c], &req, SimTime::from_secs(at), rng);
            }
        };
        // Two windows: TR fails in the second window only; US always
        // succeeds; crawler + congested noise sprinkled in; one TR
        // client and the unlocated one flood past the per-ip cap.
        for w in 0..2u64 {
            for rep in 0..12u64 {
                for c in 0..unlocated {
                    id += 1;
                    let tr = c < 3;
                    let outcome = if tr && w == 1 {
                        TaskOutcome::Failure
                    } else {
                        TaskOutcome::Success
                    };
                    let sub = Submission {
                        measurement_id: MeasurementId(id),
                        outcome: Some(outcome),
                        user_agent: if rep == 7 {
                            "GoogleBot".into()
                        } else {
                            "Chrome".into()
                        },
                        congested: rep == 5 && outcome == TaskOutcome::Failure,
                        ..submission()
                    };
                    submit(&mut net, c, sub, w * 100 + rep * 3, &mut rng);
                }
            }
            // Flood: two clients repeat far past the cap of 10.
            for flooder in [0, unlocated] {
                for _ in 0..40 {
                    id += 1;
                    let sub = Submission {
                        measurement_id: MeasurementId(id),
                        outcome: Some(TaskOutcome::Failure),
                        ..submission()
                    };
                    submit(&mut net, flooder, sub, w * 100 + 50, &mut rng);
                }
            }
        }
        let detector = FilteringDetector::default();
        let exact_reports = detector.detect_windows(&exact.records(), &geo, window);
        streaming.close_all_windows(|ip| geo.lookup(ip));
        let stats = streaming.snapshot().streaming.unwrap();
        let streamed_reports = detector.judge_streamed(&stats);
        assert_eq!(
            exact_reports, streamed_reports,
            "streamed fold must reproduce the exact per-window verdicts"
        );
        let flagged: Vec<_> = streamed_reports
            .iter()
            .map(|r| {
                r.detections
                    .iter()
                    .map(|d| (d.country, d.n))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(
            flagged,
            [vec![], vec![(country("TR"), 30)]],
            "{streamed_reports:?}"
        );
    }

    /// Bytes held by a streaming server's per-symbol memos.
    fn memo_bytes(server: &CollectionServer) -> usize {
        let store = server.store.borrow();
        let st = store.streaming.as_deref().expect("streaming");
        st.domain_of.resident_bytes()
            + st.crawler_of.resident_bytes()
            + st.url_slots.resident_bytes()
            + st.origin_slots.resident_bytes()
    }

    /// Approximate resident bytes of a streaming server's analytics
    /// state: the sketch + reservoir + window fold + dedup sets (which do
    /// not grow with accepted traffic) and the per-symbol memos (which
    /// grow with distinct strings only).
    fn resident_analytics_bytes(server: &CollectionServer) -> usize {
        let store = server.store.borrow();
        let st = store.streaming.as_deref().expect("streaming");
        let dedup: usize = st.dedup.values().map(HashSet::len).sum();
        st.sketch.resident_bytes()
            + st.reservoir.capacity() * std::mem::size_of::<(u64, RawRecord)>()
            + st.fold.resident_bytes()
            + dedup * std::mem::size_of::<u64>()
            + memo_bytes(server)
    }

    #[test]
    fn streaming_resident_bytes_do_not_scale_with_accepted() {
        let mut net = Network::ideal(World::builtin());
        let server = streaming_server(&mut net, &StreamingConfig::default());
        let hostile = CollectionServer::new("hostile.example");
        hostile.install(&mut net, country("US"));
        hostile.enable_streaming(&StreamingConfig::default(), 0x00C0_FFEE, SimRng::new(99));
        let client = net.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        // `n` submissions from id/second `base`, cycling through
        // `distinct_urls` target URLs.
        let mut feed = |n: u64, base: u64, distinct_urls: u64, server: &CollectionServer| {
            for i in 0..n {
                let sub = Submission {
                    measurement_id: MeasurementId(base + i),
                    elapsed_ms: i,
                    target_url: format!("http://h{}.example/favicon.ico", i % distinct_urls).into(),
                    ..submission()
                };
                let url = server.submit_url(&sub);
                net.fetch(
                    &client,
                    &HttpRequest::get(&url),
                    SimTime::from_secs(base + i),
                    &mut rng,
                );
            }
        };
        feed(600, 0, 1, &server);
        let at_600 = resident_analytics_bytes(&server);
        feed(3000, 600, 1, &server);
        let at_3600 = resident_analytics_bytes(&server);
        // Reservoir is full by 600; further growth is only open-window
        // cell state (bounded by distinct (domain, ip) pairs — one here)
        // plus dedup hashes for the open window.
        assert!(
            at_3600 < at_600 + 64 * 1024,
            "streaming state must stay bounded: {at_600} -> {at_3600}"
        );
        assert!(
            memo_bytes(&server) < 1024,
            "three distinct strings: {} memo bytes",
            memo_bytes(&server)
        );
        // The footprint bound a shard ships to the coordinator, and
        // nothing shed on the default ingest queue to get there.
        let stats = server.snapshot().streaming.expect("streaming mode");
        assert!(
            stats.resident_bytes() <= 8 << 20,
            "streaming analytics footprint: {} bytes",
            stats.resident_bytes()
        );
        assert_eq!(server.drops().total(), 0, "{:?}", server.drops());

        // Hostile leg: 10⁴ distinct target URLs. The per-symbol memos
        // grow with the distinct strings — each entry a fixed size, so
        // at most the interner's length times that (times the vector's
        // doubling slack) — and are counted in the footprint …
        const DISTINCT: u64 = 10_000;
        feed(DISTINCT, 10_000, DISTINCT, &hostile);
        let grown = memo_bytes(&hostile);
        let per_symbol = 2 * std::mem::size_of::<Option<SketchSlots>>()
            + std::mem::size_of::<Option<Option<Sym>>>()
            + std::mem::size_of::<Option<bool>>();
        let symbols = hostile.store.borrow().strings.len();
        assert!(symbols >= 2 * DISTINCT as usize, "URLs and their domains");
        assert!(
            grown >= DISTINCT as usize * std::mem::size_of::<Option<SketchSlots>>(),
            "10⁴ URLs must each hold a slot entry: {grown} bytes"
        );
        assert!(
            grown <= 2 * symbols * per_symbol,
            "memos exceed the interner they index: {grown} bytes for {symbols} symbols"
        );
        assert!(resident_analytics_bytes(&hostile) >= grown);
        // … and never with accepted traffic: the same URLs again.
        feed(DISTINCT, 20_000, DISTINCT, &hostile);
        assert_eq!(hostile.len() as u64, 2 * DISTINCT);
        assert_eq!(memo_bytes(&hostile), grown);
        assert_eq!(hostile.drops().total(), 0, "{:?}", hostile.drops());
    }

    #[test]
    fn streaming_sketch_equals_a_replay_of_the_accepted_pairs() {
        let cfg = StreamingConfig::with_window(sim_core::SimDuration::from_secs(1_000));
        let mut net = Network::ideal(World::builtin());
        let server = streaming_server(&mut net, &cfg);
        let clients: Vec<_> = ["US", "TR", "DE"]
            .iter()
            .map(|cc| net.add_client(country(cc), IspClass::Residential))
            .collect();
        let mut rng = SimRng::new(4);
        let urls = [
            "http://youtube.com/favicon.ico",
            "http://twitter.com/favicon.ico?size=16&dpr=2",
            "http://example.org/a b/%7Euser.png",
            "no-host-at-all",
        ];
        let origins = [
            Some("http://origin.example/"),
            Some("http://blog.example/post?id=7"),
            None,
            // An origin page that is itself a measured URL: the two
            // namespaces must keep separate slots for one symbol.
            Some("http://youtube.com/favicon.ico"),
        ];
        let mut accepted = Vec::new();
        for i in 0..400u64 {
            let (url, origin) = (urls[(i % 4) as usize], origins[(i / 4 % 4) as usize]);
            let sub = Submission {
                measurement_id: MeasurementId(i),
                target_url: url.into(),
                ..submission()
            };
            let mut req = HttpRequest::get(server.submit_url(&sub));
            if let Some(origin) = origin {
                req = req.with_referer(origin);
            }
            let client = &clients[(i % 3) as usize];
            let at = SimTime::from_secs(i);
            net.fetch(client, &req, at, &mut rng);
            accepted.push((url, origin));
            if i % 5 == 0 {
                // An exact resend: acknowledged, tallied nowhere.
                net.fetch(client, &req, at, &mut rng);
            }
        }
        assert_eq!(server.drops().duplicate, 80);
        let stats = server.snapshot().streaming.expect("streaming mode");
        assert_eq!(stats.accepted, accepted.len() as u64);
        let mut replay = CountMinSketch::new(cfg.sketch_depth, cfg.sketch_width, 0x00C0_FFEE);
        for (url, origin) in accepted {
            replay.add_ns(CountMinSketch::NS_URL, url.as_bytes(), 1);
            if let Some(origin) = origin {
                replay.add_ns(CountMinSketch::NS_ORIGIN, origin.as_bytes(), 1);
            }
        }
        assert_eq!(stats.sketch, replay);
    }

    #[test]
    fn streaming_dedup_keys_on_the_raw_wire_spelling() {
        let mut net = Network::ideal(World::builtin());
        let server = streaming_server(&mut net, &StreamingConfig::default());
        let client = net.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let at = SimTime::from_secs(3);
        let mut send = |url: &str| {
            net.fetch(&client, &HttpRequest::get(url), at, &mut rng);
            (server.len(), server.drops().duplicate)
        };
        let base = server.submit_url(&submission());
        assert_eq!(send(&base), (1, 0));
        assert_eq!(send(&base), (1, 1), "exact resend");
        // Only the target URL differs; only the user agent differs; the
        // two swapped into each other's field.
        let other_target = server.submit_url(&Submission {
            target_url: "http://youtube.com/favicon.png".into(),
            ..submission()
        });
        let other_agent = server.submit_url(&Submission {
            user_agent: "Chromf".into(),
            ..submission()
        });
        let swapped = server.submit_url(&Submission {
            target_url: "Chrome".into(),
            user_agent: "http://youtube.com/favicon.ico".into(),
            ..submission()
        });
        assert_eq!(send(&other_target), (2, 1));
        assert_eq!(send(&other_agent), (3, 1));
        assert_eq!(send(&swapped), (4, 1));
        // The same decoded target spelt with one escape fewer is a
        // different wire tuple: accepted once, then its own duplicate —
        // on first sight (hashed on the spot) and from the memo alike.
        let respelt = base.replace("%2Ffavicon", "/favicon");
        assert_ne!(respelt, base);
        assert_eq!(
            Submission::from_url(&respelt),
            Submission::from_url(&base),
            "both spellings decode to one submission"
        );
        assert_eq!(send(&respelt), (5, 1));
        assert_eq!(send(&respelt), (5, 2));
        assert_eq!(send(&base), (5, 3));
        assert_eq!(send(&other_target), (5, 4));
        assert_eq!(send(&other_agent), (5, 5));
        // Both spellings tallied under the one decoded URL.
        let stats = server.snapshot().streaming.expect("streaming mode");
        assert_eq!(
            stats
                .sketch
                .estimate_ns(CountMinSketch::NS_URL, b"http://youtube.com/favicon.ico"),
            3
        );
    }

    #[test]
    fn steady_state_streaming_ingest_hashes_no_key() {
        use crate::streaming::KEY_HASHES;
        let mut net = Network::ideal(World::builtin());
        let server = streaming_server(&mut net, &StreamingConfig::default());
        let client = net.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let mut send = |id: u64, target_url: &str| {
            let sub = Submission {
                measurement_id: MeasurementId(id),
                target_url: target_url.into(),
                ..submission()
            };
            let req =
                HttpRequest::get(server.submit_url(&sub)).with_referer("http://origin.example/");
            let before = KEY_HASHES.with(|n| n.get());
            net.fetch(&client, &req, SimTime::from_secs(id), &mut rng);
            KEY_HASHES.with(|n| n.get()) - before
        };
        // First sight: the raw target and user agent for the duplicate
        // gate, the URL's and the origin's sketch slots.
        assert_eq!(send(0, "http://youtube.com/favicon.ico"), 4);
        let steady: u64 = (1..500)
            .map(|id| send(id, "http://youtube.com/favicon.ico"))
            .sum();
        assert_eq!(steady, 0, "known strings must be served from the memos");
        // A new URL costs its own two passes and nothing more.
        assert_eq!(send(500, "http://twitter.com/favicon.ico"), 2);
        assert_eq!(send(501, "http://twitter.com/favicon.ico"), 0);
        assert_eq!(server.len(), 502);
    }

    #[test]
    fn distinct_ip_counting() {
        let mut net = Network::ideal(World::builtin());
        let server = CollectionServer::new("collector.example");
        server.install(&mut net, country("US"));
        let mut rng = SimRng::new(1);
        for _ in 0..3 {
            let c = net.add_client(country("US"), IspClass::Residential);
            let url = server.submit_url(&submission());
            net.fetch(&c, &HttpRequest::get(&url), SimTime::ZERO, &mut rng);
            // Same client submits twice.
            net.fetch(&c, &HttpRequest::get(&url), SimTime::ZERO, &mut rng);
        }
        assert_eq!(server.len(), 6);
        assert_eq!(server.distinct_ips(), 3);
    }
}

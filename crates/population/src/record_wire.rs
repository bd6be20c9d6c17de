//! The RECORD_CHUNK payload: a chunk of collection records as rows of
//! scalars, plus one table of the chunk's distinct texts that the rows
//! index into.
//!
//! A shard's records repeat a handful of URLs, user agents and
//! referers, so each distinct text crosses once per chunk and the
//! coordinator resolves it once; a row costs a few scalars and three
//! varint indices, and decoding it allocates no text but the referer.
//! Each chunk is self-contained — no table state crosses chunks — so a
//! chunk lost or repeated on the way is caught by the stream fold's
//! canonical-order and FINAL checks.

use crate::transport::TransportError;
use encore::collection::{StoredMeasurement, Submission, SubmissionPhase};
use encore::tasks::{MeasurementId, TaskOutcome, TaskType};
use serde::{Deserialize, Serialize};
use sim_core::{FxBuildHasher, SimTime};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// One RECORD_CHUNK payload.
#[derive(Serialize, Deserialize)]
pub(crate) struct RecordChunk {
    /// The chunk's distinct URL, user-agent and referer texts, each once.
    pub(crate) texts: Vec<String>,
    /// One row per record, in the order the worker's snapshot holds them.
    pub(crate) rows: Vec<RecordRow>,
}

/// A [`StoredMeasurement`] with its texts replaced by indices into its
/// chunk's `texts`.
#[derive(Serialize, Deserialize)]
pub(crate) struct RecordRow {
    measurement_id: MeasurementId,
    phase: SubmissionPhase,
    outcome: Option<TaskOutcome>,
    elapsed_ms: u64,
    task_type: TaskType,
    pub(crate) target_url: u32,
    pub(crate) user_agent: u32,
    congested: bool,
    client_ip: Ipv4Addr,
    pub(crate) referer: Option<u32>,
    received_at: SimTime,
}

/// Encode `records` as one RECORD_CHUNK payload. The table is keyed by
/// content, not by allocation, so a text is listed once however many
/// allocations hold it on this side.
pub(crate) fn encode<'a>(records: &'a [StoredMeasurement]) -> Vec<u8> {
    // The worker's own records: no peer chooses these keys.
    let mut index: HashMap<&str, u32, FxBuildHasher> = HashMap::default();
    let mut texts = Vec::new();
    let mut id = |text: &'a str| {
        *index.entry(text).or_insert_with(|| {
            texts.push(text.to_string());
            u32::try_from(texts.len() - 1).expect("a chunk holds fewer than 2³² texts")
        })
    };
    let rows = records
        .iter()
        .map(|r| {
            let s = &r.submission;
            RecordRow {
                measurement_id: s.measurement_id,
                phase: s.phase,
                outcome: s.outcome,
                elapsed_ms: s.elapsed_ms,
                task_type: s.task_type,
                target_url: id(&s.target_url),
                user_agent: id(&s.user_agent),
                congested: s.congested,
                client_ip: r.client_ip,
                referer: r.referer.as_deref().map(&mut id),
                received_at: r.received_at,
            }
        })
        .collect();
    serde::bin::to_vec(&RecordChunk { texts, rows })
}

/// Decode one RECORD_CHUNK payload. Each table entry is resolved once
/// through `seen` — the text the stream's chunks carried so far — to
/// the first equal `Arc<str>` the stream delivered, so a shard's folded
/// records hold one allocation per distinct URL and user agent, as the
/// snapshot a thread shard hands over does; the referer is an owned
/// `String` per record. The text comes from another process, so `seen`
/// keeps the standard, collision-resistant hasher. A payload that does
/// not decode, or a row indexing past its table, is a
/// [`TransportError::Payload`].
pub(crate) fn decode(
    payload: &[u8],
    seen: &mut HashSet<Arc<str>>,
) -> Result<Vec<StoredMeasurement>, TransportError> {
    let chunk: RecordChunk = serde::bin::from_slice(payload)
        .map_err(|err| TransportError::Payload(format!("record chunk: {err}")))?;
    let texts: Vec<Arc<str>> = chunk
        .texts
        .into_iter()
        .map(|text| match seen.get(text.as_str()) {
            Some(first) => Arc::clone(first),
            None => {
                let text: Arc<str> = text.into();
                seen.insert(Arc::clone(&text));
                text
            }
        })
        .collect();
    let text = |i: u32| {
        texts.get(i as usize).ok_or_else(|| {
            TransportError::Payload(format!(
                "record chunk: text index {i} past the chunk's {} texts",
                texts.len()
            ))
        })
    };
    chunk
        .rows
        .into_iter()
        .map(|row| {
            Ok(StoredMeasurement {
                submission: Submission {
                    measurement_id: row.measurement_id,
                    phase: row.phase,
                    outcome: row.outcome,
                    elapsed_ms: row.elapsed_ms,
                    task_type: row.task_type,
                    target_url: Arc::clone(text(row.target_url)?),
                    user_agent: Arc::clone(text(row.user_agent)?),
                    congested: row.congested,
                },
                client_ip: row.client_ip,
                referer: row
                    .referer
                    .map(|i| text(i).map(|t| t.to_string()))
                    .transpose()?,
                received_at: row.received_at,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 300 records over 250 distinct URLs — table indices past 127 take
    /// two varint bytes — mixing both phases, outcomes absent and
    /// present, congestion on and off, and referers absent and present.
    fn records() -> Vec<StoredMeasurement> {
        (0..300u64)
            .map(|i| {
                let result = i % 2 == 1;
                StoredMeasurement {
                    submission: Submission {
                        measurement_id: MeasurementId(i / 2),
                        phase: if result {
                            SubmissionPhase::Result
                        } else {
                            SubmissionPhase::Init
                        },
                        outcome: match i % 4 {
                            1 => Some(TaskOutcome::Success),
                            3 => Some(TaskOutcome::Failure),
                            _ => None,
                        },
                        elapsed_ms: if result { 40 + i } else { 0 },
                        task_type: TaskType::ALL[i as usize % TaskType::ALL.len()],
                        target_url: format!("http://site{}.example/favicon.ico", i % 250).into(),
                        user_agent: ["Chrome", "Firefox", "Googlebot"][i as usize % 3].into(),
                        congested: i % 6 == 3,
                    },
                    client_ip: Ipv4Addr::from(0x0a00_0000 + i as u32),
                    referer: (i % 5 != 0).then(|| format!("http://origin{}.example/", i % 7)),
                    received_at: SimTime::from_micros(1_000 * i),
                }
            })
            .collect()
    }

    #[test]
    fn a_chunk_decodes_to_the_records_it_encoded() {
        let records = records();
        let payload = encode(&records);
        let chunk: RecordChunk = serde::bin::from_slice(&payload).unwrap();
        assert!(chunk.texts.len() >= 200, "{} texts", chunk.texts.len());
        let (mut first, mut second) = (HashSet::new(), HashSet::new());
        assert_eq!(decode(&payload, &mut first).unwrap(), records);
        // A second stream's `seen` starts empty; the first one's already
        // holds every text, and decoding again adds none.
        let held = first.len();
        assert_eq!(decode(&payload, &mut first).unwrap(), records);
        assert_eq!(first.len(), held);
        assert_eq!(decode(&payload, &mut second).unwrap(), records);
    }
}

//! Distributed shard backends: one trait, two transports.
//!
//! [`ShardTransport`] abstracts *where* a sharded world's shards run:
//!
//! * [`ThreadTransport`] — today's OS threads in this process,
//!   zero-copy, delegating to [`crate::shard::run_sharded_world`];
//!   byte-identical to calling that function directly.
//! * [`ProcessTransport`] — worker **processes** connected by OS pipes
//!   speaking the length-prefixed, checksummed [`sim_core::frame`]
//!   protocol. The coordinator serializes the [`WorldSpec`] **once**
//!   and broadcasts the same frame bytes to every worker (control
//!   traffic rides the same framed channel as data); each worker
//!   rebuilds its private world from the spec, runs its shard, and
//!   streams its output back **incrementally** in bounded chunks that
//!   fold through the associative [`crate::analytics::Merge`] path as
//!   frames arrive — coordinator peak memory is O(1 merged outcome),
//!   not O(shards × outcome).
//!
//! Closures never cross the process boundary: a [`WorldSpec`] is a
//! compact serializable *description* (fixture name + parameters, or a
//! generator seed) from which the worker deterministically rebuilds the
//! scenario, recipe, and audience. That is what makes cross-backend
//! byte-identity provable — both backends execute
//! `shard_recipe(spec.recipe(), ..)` with `shard_rngs(seed, ..)` streams
//! on worlds built by the same deterministic builder.
//!
//! ## Wire protocol (version [`sim_core::frame::FRAME_VERSION`])
//!
//! ```text
//! coordinator → worker   SPEC  (binary WorldSpec, identical bytes to all)
//!                        JOB   (shard index, count, seed, chunk, window)
//!                        ACK   (one credit, after each data frame folds)
//! worker → coordinator   LOG_CHUNK*    (≤ chunk VisitRecords each)
//!                        RECORD_CHUNK* (≤ chunk StoredMeasurements each)
//!                        SKETCH?       (streaming mode: bounded analytics)
//!                        FINAL (report, rollups, counters, geo)
//!                        ERROR (human-readable failure, then exit 1)
//! ```
//!
//! In streaming mode the record log never materialises, so the
//! RECORD_CHUNK stream is empty and the shard's entire collection-side
//! analytics — count-min sketch, reservoir sample, closed-window count
//! matrices, drop counters — crosses as **one** bounded SKETCH frame
//! whose size is fixed by the [`encore::streaming::StreamingConfig`],
//! not by traffic volume. SKETCH frames fold into the per-shard partial
//! like any data frame, so the coordinator still holds at most the
//! running accumulator plus one shard's partial.
//!
//! **Backpressure:** a worker may have at most `window` unacknowledged
//! data frames in flight; past that it blocks until the coordinator
//! acks, so coordinator-side buffering is bounded regardless of how
//! large a shard's log is. **Failure:** a worker that dies mid-stream
//! surfaces as a typed [`TransportError`] (clean worker-exit/short-read
//! path — never a panic), and the coordinator kills the remaining
//! workers before returning.

use crate::analytics::{Merge, StreamSummary};
use crate::audience::Audience;
use crate::batch::BatchReport;
use crate::driver::VisitRecord;
use crate::shard::{run_sharded_world, shard_recipe, shard_rngs, ShardContext, ShardedWorldRun};
use crate::world::{WorldEngine, WorldOutcome, WorldRecipe};
use encore::collection::{CollectionSnapshot, StoredMeasurement};
use encore::geo::GeoDb;
use encore::system::EncoreSystem;
use netsim::network::Network;
use serde::{Deserialize, Serialize};
use sim_core::frame::{encode_frame, read_frame, write_frame, FrameError};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::str::FromStr;

/// Frame kind: the serialized [`WorldSpec`], broadcast to every worker.
pub const KIND_SPEC: u8 = 1;
/// Frame kind: one worker's job assignment ([`WorkerJob`]).
pub const KIND_JOB: u8 = 2;
/// Frame kind: a bounded chunk of the shard's visit log.
pub const KIND_LOG_CHUNK: u8 = 3;
/// Frame kind: a bounded chunk of the shard's collection records.
pub const KIND_RECORD_CHUNK: u8 = 4;
/// Frame kind: the shard's final aggregates ([`FinalPayload`]).
pub const KIND_FINAL: u8 = 5;
/// Frame kind: one flow-control credit from the coordinator.
pub const KIND_ACK: u8 = 6;
/// Frame kind: a worker-side failure description (worker exits 1 after).
pub const KIND_ERROR: u8 = 7;
/// Frame kind: the shard's bounded streaming analytics
/// ([`encore::streaming::StreamingStats`]) — sent at most once, before
/// FINAL, only by streaming-mode shards.
pub const KIND_SKETCH: u8 = 8;

/// Default records per streamed data frame. Sized so a frame is a few
/// hundred kilobytes of payload: large enough that per-frame costs
/// (header parse, ack round-trip, payload allocation) vanish against
/// the codec work, small enough that `window` frames in flight stay a
/// few megabytes of bounded coordinator buffering.
pub const DEFAULT_CHUNK: usize = 4096;
/// Default credit window: max unacknowledged data frames per worker.
pub const DEFAULT_WINDOW: usize = 8;
/// Default payload cap (bytes) enforced by both ends of the pipe.
pub const DEFAULT_MAX_PAYLOAD: u32 = 64 << 20;

/// A compact, serializable description of a sharded world run — the
/// unit a worker process rebuilds its world from.
///
/// Implementations must be **deterministic**: the same spec value must
/// build byte-identical worlds in every process, because cross-backend
/// equivalence (threads vs process, proven in
/// `tests/transport_equivalence.rs` and simcheck's transport oracle)
/// rests on it. Closures stay out of the picture by construction — only
/// the spec's serialized fields cross the pipe.
pub trait WorldSpec: Serialize + Deserialize + Send + Sync {
    /// The audience every shard samples visitors from.
    fn audience(&self) -> Audience;
    /// The *total* (unsharded) recipe; each shard runs
    /// [`shard_recipe`]\(recipe, shards, index\).
    fn recipe(&self) -> WorldRecipe;
    /// Build this shard's private network + deployed Encore system.
    fn build(&self, ctx: ShardContext) -> (Network, EncoreSystem);
}

/// One worker's assignment, carried by a [`KIND_JOB`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerJob {
    /// This worker's shard index, `0..shards`.
    pub index: usize,
    /// Total shard count.
    pub shards: usize,
    /// Root seed; the worker derives its stream via [`shard_rngs`].
    pub seed: u64,
    /// Records per streamed data frame.
    pub chunk: usize,
    /// Credit window: max unacknowledged data frames in flight.
    pub window: usize,
}

/// A shard's final aggregates, carried by a [`KIND_FINAL`] frame. The
/// visit log and collection records stream separately in bounded
/// chunks; this is everything that remains.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FinalPayload {
    /// Aggregate counters.
    pub report: BatchReport,
    /// Periodic rollups.
    pub rollups: RollupsWire,
    /// Policy-timeline changes that mutated the shard's world.
    pub policy_changes_applied: usize,
    /// Censor control signals a middlebox applied.
    pub control_signals_applied: usize,
    /// Malformed submissions the shard's collection server dropped.
    pub malformed: u64,
    /// Streaming-mode run summary (evicted-rollup fold + drop
    /// accounting); absent — and absent from the wire — in exact mode.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub streaming: Option<StreamSummary>,
    /// The shard's striped GeoIP database.
    pub geo: GeoDb,
}

/// Wire shape of [`crate::analytics::RollupSeries`] (its inner vector;
/// the newtype itself predates the derive support for tuple structs
/// used here, so the wire carries the vector explicitly).
pub type RollupsWire = Vec<crate::analytics::Rollup>;

/// Every way a transport run can fail. All coordinator-side failure
/// modes are values — worker death, truncated frames, malformed
/// payloads — never panics.
#[derive(Debug)]
pub enum TransportError {
    /// A frame failed to decode (truncation, corruption, bad version).
    Frame {
        /// Which end / shard the frame came from.
        context: String,
        /// The codec's typed error.
        error: FrameError,
    },
    /// The stream violated the protocol (unexpected kind or EOF).
    Protocol(String),
    /// A payload failed to (de)serialize.
    Payload(String),
    /// The worker process could not be spawned.
    Spawn {
        /// Path of the binary that failed to spawn.
        worker: PathBuf,
        /// OS error detail.
        detail: String,
    },
    /// A worker exited without completing its stream.
    WorkerExit {
        /// The worker's shard index.
        shard: usize,
        /// Exit-status description.
        detail: String,
    },
    /// A worker reported a failure via a [`KIND_ERROR`] frame.
    Worker {
        /// The worker's shard index.
        shard: usize,
        /// The worker's failure message.
        detail: String,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Frame { context, error } => {
                write!(f, "frame error ({context}): {error}")
            }
            TransportError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            TransportError::Payload(detail) => write!(f, "payload codec error: {detail}"),
            TransportError::Spawn { worker, detail } => {
                write!(f, "failed to spawn worker {}: {detail}", worker.display())
            }
            TransportError::WorkerExit { shard, detail } => {
                write!(f, "worker for shard {shard} exited mid-stream: {detail}")
            }
            TransportError::Worker { shard, detail } => {
                write!(f, "worker for shard {shard} reported: {detail}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Which backend a sharded run executes on. Parses from
/// `--transport {threads,process}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportKind {
    /// In-process OS threads (the default; zero-copy).
    Threads,
    /// Worker processes over the frame protocol.
    Process,
}

impl FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<TransportKind, String> {
        match s {
            "threads" => Ok(TransportKind::Threads),
            "process" => Ok(TransportKind::Process),
            other => Err(format!(
                "unknown transport {other:?} (expected \"threads\" or \"process\")"
            )),
        }
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransportKind::Threads => "threads",
            TransportKind::Process => "process",
        })
    }
}

/// A backend that can execute a [`WorldSpec`] across shards.
pub trait ShardTransport {
    /// Execute `spec` over `shards` shards from root `seed`, returning
    /// the merged run. Both backends must produce byte-identical
    /// results for the same inputs.
    fn run<S: WorldSpec>(
        &self,
        spec: &S,
        shards: usize,
        seed: u64,
    ) -> Result<ShardedWorldRun, TransportError>;
}

/// The in-process backend: today's scoped OS threads, delegating to
/// [`run_sharded_world`]. Never fails; the `Result` exists only to
/// satisfy the shared trait signature.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadTransport;

impl ShardTransport for ThreadTransport {
    fn run<S: WorldSpec>(
        &self,
        spec: &S,
        shards: usize,
        seed: u64,
    ) -> Result<ShardedWorldRun, TransportError> {
        let audience = spec.audience();
        let recipe = spec.recipe();
        Ok(run_sharded_world(
            &|ctx| spec.build(ctx),
            &audience,
            &recipe,
            shards,
            seed,
        ))
    }
}

/// Deterministic streaming counters from one [`ProcessTransport`] run —
/// the numbers peak coordinator memory is bounded by.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TransportStats {
    /// Shard (worker process) count.
    pub shards: usize,
    /// Data frames streamed back (log + record chunks).
    pub data_frames: u64,
    /// Total streamed payload bytes.
    pub streamed_payload_bytes: u64,
    /// Largest single payload seen.
    pub largest_payload_bytes: u64,
    /// The credit window: max unacknowledged data frames any worker may
    /// have in flight (protocol-enforced bound on coordinator buffering).
    pub window: usize,
    /// Peak outcome-shaped aggregates simultaneously resident on the
    /// coordinator: the running accumulator plus at most the partial
    /// fold of the one shard currently being drained — the O(1)
    /// streaming-merge guarantee, independent of shard count.
    /// (In-flight chunks are bounded separately, by [`Self::window`].)
    pub peak_resident_outcomes: usize,
}

/// The multi-process backend: spawns one worker per shard, broadcasts
/// the spec as identical frame bytes, and folds the streamed chunks
/// incrementally.
#[derive(Debug, Clone)]
pub struct ProcessTransport {
    worker: PathBuf,
    role: Option<String>,
    chunk: usize,
    window: usize,
    max_payload: u32,
}

impl ProcessTransport {
    /// A process transport spawning `worker` with default chunking.
    pub fn new(worker: PathBuf) -> ProcessTransport {
        ProcessTransport {
            worker,
            role: None,
            chunk: DEFAULT_CHUNK,
            window: DEFAULT_WINDOW,
            max_payload: DEFAULT_MAX_PAYLOAD,
        }
    }

    /// Spawn the worker as `<worker> <role>`: a binary that is its own
    /// worker (`ProcessTransport::new(current_exe()?)`) reads the role
    /// as its first argument and calls [`worker_main`] with the matching
    /// [`WorldSpec`] type. The role rides on each spawned `Command`,
    /// never on this process's environment.
    pub fn with_role(mut self, role: &str) -> ProcessTransport {
        self.role = Some(role.to_string());
        self
    }

    /// Override records-per-frame chunking (min 1).
    pub fn with_chunk(mut self, chunk: usize) -> ProcessTransport {
        self.chunk = chunk.max(1);
        self
    }

    /// Override the credit window (min 1).
    pub fn with_window(mut self, window: usize) -> ProcessTransport {
        self.window = window.max(1);
        self
    }

    /// The worker binary this transport spawns.
    pub fn worker(&self) -> &PathBuf {
        &self.worker
    }

    /// Run and also return the deterministic streaming counters.
    pub fn run_with_stats<S: WorldSpec>(
        &self,
        spec: &S,
        shards: usize,
        seed: u64,
    ) -> Result<(ShardedWorldRun, TransportStats), TransportError> {
        assert!(shards >= 1, "shard count must be at least 1");
        let mut children = self.spawn_workers(spec, shards, seed)?;
        let result = self.drain(&mut children, shards);
        if result.is_err() {
            // Clean failure path: no orphans, no zombies.
            for child in &mut children {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        result
    }

    /// Spawn all workers and hand each the broadcast spec + its job.
    fn spawn_workers<S: WorldSpec>(
        &self,
        spec: &S,
        shards: usize,
        seed: u64,
    ) -> Result<Vec<Child>, TransportError> {
        // Control traffic serializes ONCE: every worker receives the
        // same spec frame bytes.
        let spec_frame = encode_frame(KIND_SPEC, &encode_payload(spec)?);
        let mut children: Vec<Child> = Vec::with_capacity(shards);
        for index in 0..shards {
            let spawned = Command::new(&self.worker)
                .args(&self.role)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn();
            let mut child = match spawned {
                Ok(child) => child,
                Err(err) => {
                    for mut orphan in children {
                        let _ = orphan.kill();
                        let _ = orphan.wait();
                    }
                    return Err(TransportError::Spawn {
                        worker: self.worker.clone(),
                        detail: err.to_string(),
                    });
                }
            };
            let job = WorkerJob {
                index,
                shards,
                seed,
                chunk: self.chunk,
                window: self.window,
            };
            let handoff = (|| -> Result<(), TransportError> {
                let stdin = child.stdin.as_mut().expect("stdin piped at spawn");
                stdin
                    .write_all(&spec_frame)
                    .map_err(|e| io_err(index, "writing spec frame", &e))?;
                write_frame(stdin, KIND_JOB, &encode_payload(&job)?).map_err(|error| {
                    TransportError::Frame {
                        context: format!("writing job frame to shard {index}"),
                        error,
                    }
                })?;
                stdin
                    .flush()
                    .map_err(|e| io_err(index, "flushing handshake", &e))?;
                Ok(())
            })();
            if let Err(err) = handoff {
                let _ = child.kill();
                let _ = child.wait();
                for mut orphan in children {
                    let _ = orphan.kill();
                    let _ = orphan.wait();
                }
                return Err(err);
            }
            children.push(child);
        }
        Ok(children)
    }

    /// Drain every worker's stream in shard order, folding each frame
    /// into the running aggregates the moment it arrives.
    fn drain(
        &self,
        children: &mut [Child],
        shards: usize,
    ) -> Result<(ShardedWorldRun, TransportStats), TransportError> {
        let mut stats = TransportStats {
            shards,
            data_frames: 0,
            streamed_payload_bytes: 0,
            largest_payload_bytes: 0,
            window: self.window,
            peak_resident_outcomes: 0,
        };
        // O(1) resident state: one running fold of everything drained
        // so far, plus the partial fold of the shard currently being
        // drained. Chunks fold into the *shard* partial as they arrive
        // (each fold walks at most one shard's outcome, never the
        // global accumulator), and each completed shard folds exactly
        // once into the running merge — so the total merge work is the
        // same O(shards × data) as merging whole shard outcomes, not
        // quadratic in the chunk count. Workers are drained in shard
        // order and each worker streams its chunks in time order, so by
        // associativity this grouped fold equals the
        // shard-index-order whole-outcome merge (the stable
        // `merge_time_ordered` keeps earlier-folded records ahead of
        // later ones at equal timestamps, exactly like merging whole
        // shard outcomes in index order).
        let mut outcome_acc: Option<WorldOutcome> = None;
        let mut collection_acc = CollectionSnapshot::default();
        let mut geo_acc: Option<GeoDb> = None;
        let mut per_shard: Vec<BatchReport> = Vec::with_capacity(shards);

        for (shard, child) in children.iter_mut().enumerate() {
            let mut shard_outcome: Option<WorldOutcome> = None;
            let mut shard_collection = CollectionSnapshot::default();
            let mut stdout =
                io::BufReader::new(child.stdout.take().expect("stdout piped at spawn"));
            loop {
                let frame = match read_frame(&mut stdout, self.max_payload) {
                    Ok(Some(frame)) => frame,
                    Ok(None) => {
                        // EOF before FINAL: the worker died. Report its
                        // exit status instead of panicking.
                        let detail = match child.wait() {
                            Ok(status) => status.to_string(),
                            Err(err) => format!("unwaitable: {err}"),
                        };
                        return Err(TransportError::WorkerExit { shard, detail });
                    }
                    Err(error) => {
                        return Err(TransportError::Frame {
                            context: format!("reading from shard {shard}"),
                            error,
                        })
                    }
                };
                let payload_len = frame.payload.len() as u64;
                match frame.kind {
                    KIND_LOG_CHUNK => {
                        let log: Vec<VisitRecord> = decode_payload(&frame.payload, "log chunk")?;
                        let partial = WorldOutcome {
                            log,
                            report: BatchReport::default(),
                            rollups: crate::analytics::RollupSeries::default(),
                            policy_changes_applied: 0,
                            control_signals_applied: 0,
                            streaming: None,
                        };
                        stats.peak_resident_outcomes = stats
                            .peak_resident_outcomes
                            .max(usize::from(outcome_acc.is_some()) + 1);
                        shard_outcome = Some(match shard_outcome.take() {
                            Some(acc) => acc.merge(partial),
                            None => partial,
                        });
                        stats.data_frames += 1;
                        stats.streamed_payload_bytes += payload_len;
                        stats.largest_payload_bytes = stats.largest_payload_bytes.max(payload_len);
                        ack(child, shard);
                    }
                    KIND_RECORD_CHUNK => {
                        let records: Vec<StoredMeasurement> =
                            decode_payload(&frame.payload, "record chunk")?;
                        shard_collection = shard_collection.merge_owned(CollectionSnapshot {
                            records,
                            malformed: 0,
                            streaming: None,
                        });
                        stats.data_frames += 1;
                        stats.streamed_payload_bytes += payload_len;
                        stats.largest_payload_bytes = stats.largest_payload_bytes.max(payload_len);
                        ack(child, shard);
                    }
                    KIND_SKETCH => {
                        let sketch: encore::streaming::StreamingStats =
                            decode_payload(&frame.payload, "sketch")?;
                        shard_collection = shard_collection.merge_owned(CollectionSnapshot {
                            records: Vec::new(),
                            malformed: 0,
                            streaming: Some(sketch),
                        });
                        stats.data_frames += 1;
                        stats.streamed_payload_bytes += payload_len;
                        stats.largest_payload_bytes = stats.largest_payload_bytes.max(payload_len);
                        ack(child, shard);
                    }
                    KIND_FINAL => {
                        let fin: FinalPayload = decode_payload(&frame.payload, "final")?;
                        per_shard.push(fin.report);
                        let partial = WorldOutcome {
                            log: Vec::new(),
                            report: fin.report,
                            rollups: crate::analytics::RollupSeries(fin.rollups),
                            policy_changes_applied: fin.policy_changes_applied,
                            control_signals_applied: fin.control_signals_applied,
                            streaming: fin.streaming,
                        };
                        stats.peak_resident_outcomes = stats
                            .peak_resident_outcomes
                            .max(usize::from(outcome_acc.is_some()) + 1);
                        let completed = match shard_outcome.take() {
                            Some(acc) => acc.merge(partial),
                            None => partial,
                        };
                        outcome_acc = Some(match outcome_acc.take() {
                            Some(acc) => acc.merge(completed),
                            None => completed,
                        });
                        shard_collection.malformed += fin.malformed;
                        collection_acc =
                            collection_acc.merge_owned(std::mem::take(&mut shard_collection));
                        geo_acc = Some(match geo_acc.take() {
                            Some(acc) => Merge::merge(acc, fin.geo),
                            None => fin.geo,
                        });
                        break;
                    }
                    KIND_ERROR => {
                        return Err(TransportError::Worker {
                            shard,
                            detail: String::from_utf8_lossy(&frame.payload).into_owned(),
                        })
                    }
                    other => {
                        return Err(TransportError::Protocol(format!(
                            "unexpected frame kind {other} from shard {shard}"
                        )))
                    }
                }
            }
            // Stream complete: release the worker and insist on a clean
            // exit.
            drop(child.stdin.take());
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    return Err(TransportError::WorkerExit {
                        shard,
                        detail: format!("after FINAL: {status}"),
                    })
                }
                Err(err) => {
                    return Err(TransportError::WorkerExit {
                        shard,
                        detail: format!("unwaitable: {err}"),
                    })
                }
            }
        }

        let outcome = outcome_acc.ok_or_else(|| {
            TransportError::Protocol("no shard produced a FINAL frame".to_string())
        })?;
        let geo = geo_acc.ok_or_else(|| {
            TransportError::Protocol("no shard produced a geo database".to_string())
        })?;
        Ok((
            ShardedWorldRun {
                outcome,
                per_shard,
                collection: collection_acc,
                geo,
            },
            stats,
        ))
    }
}

impl ShardTransport for ProcessTransport {
    fn run<S: WorldSpec>(
        &self,
        spec: &S,
        shards: usize,
        seed: u64,
    ) -> Result<ShardedWorldRun, TransportError> {
        self.run_with_stats(spec, shards, seed).map(|(run, _)| run)
    }
}

/// Acknowledge one data frame — handing the worker a credit. Write
/// failures are deliberately ignored: they only occur when the worker
/// already finished (sent FINAL and exited, so the last few credits go
/// unread) or already died (which the read path reports with full
/// context).
fn ack(child: &mut Child, _shard: usize) {
    if let Some(stdin) = child.stdin.as_mut() {
        let _ = write_frame(stdin, KIND_ACK, &[]);
        let _ = stdin.flush();
    }
}

fn io_err(shard: usize, action: &str, err: &io::Error) -> TransportError {
    TransportError::Protocol(format!("{action} for shard {shard}: {err}"))
}

/// Payloads cross the pipe in `serde::bin`'s positional binary
/// encoding, not JSON: the stream is a transient coordinator↔worker
/// wire (always the same build on both ends), and the binary form is
/// both several times smaller and decodes without building a `Value`
/// tree — the difference between the process backend fitting its
/// overhead budget and missing it.
fn encode_payload<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, TransportError> {
    Ok(serde::bin::to_vec(value))
}

fn decode_payload<T: Deserialize>(payload: &[u8], what: &str) -> Result<T, TransportError> {
    serde::bin::from_slice(payload).map_err(|err| TransportError::Payload(format!("{what}: {err}")))
}

/// A worker that blocks for coordinator credits once its window is
/// exhausted — the protocol's explicit backpressure.
struct CreditedSender<'a, R: Read, W: Write> {
    input: &'a mut R,
    output: &'a mut W,
    credits: usize,
}

impl<R: Read, W: Write> CreditedSender<'_, R, W> {
    fn send(&mut self, kind: u8, payload: &[u8]) -> Result<(), TransportError> {
        if self.credits == 0 {
            // Everything written so far must actually reach the
            // coordinator before blocking on a credit — an unflushed
            // buffered frame would deadlock both ends.
            self.output.flush().map_err(|err| {
                TransportError::Protocol(format!("flushing before credit wait: {err}"))
            })?;
            match read_frame(self.input, DEFAULT_MAX_PAYLOAD).map_err(|error| {
                TransportError::Frame {
                    context: "reading credit".to_string(),
                    error,
                }
            })? {
                Some(frame) if frame.kind == KIND_ACK => {}
                Some(frame) => {
                    return Err(TransportError::Protocol(format!(
                        "expected ACK credit, got frame kind {}",
                        frame.kind
                    )))
                }
                None => {
                    return Err(TransportError::Protocol(
                        "coordinator closed the control pipe mid-stream".to_string(),
                    ))
                }
            }
        } else {
            self.credits -= 1;
        }
        write_frame(self.output, kind, payload).map_err(|error| TransportError::Frame {
            context: "writing data frame".to_string(),
            error,
        })
    }
}

/// The worker side of the protocol, generic over its pipes so the
/// handshake and streaming are unit-testable in-process. Reads the
/// spec and job, runs the shard, streams chunks under the credit
/// window, and finishes with a FINAL frame.
pub fn run_worker<S: WorldSpec, R: Read, W: Write>(
    input: &mut R,
    output: &mut W,
) -> Result<(), TransportError> {
    let spec_frame = expect_frame(input, KIND_SPEC, "spec")?;
    let spec: S = decode_payload(&spec_frame, "spec")?;
    let job_frame = expect_frame(input, KIND_JOB, "job")?;
    let job: WorkerJob = decode_payload(&job_frame, "job")?;
    if job.shards == 0 || job.index >= job.shards {
        return Err(TransportError::Protocol(format!(
            "job assigns shard {} of {}",
            job.index, job.shards
        )));
    }

    let audience = spec.audience();
    let ctx = ShardContext {
        index: job.index,
        shards: job.shards,
    };
    let (mut net, mut sys) = spec.build(ctx);
    let shard_cfg = shard_recipe(&spec.recipe(), job.shards, job.index);
    let mut rng = shard_rngs(job.seed, job.shards)
        .into_iter()
        .nth(job.index)
        .expect("index validated above");
    let outcome =
        WorldEngine::from_recipe(&mut net, &mut sys, &audience, &shard_cfg, &mut rng).run();
    let mut collection = sys.collection.snapshot();
    let geo = GeoDb::from_allocator(&net.allocator);

    let chunk = job.chunk.max(1);
    let mut sender = CreditedSender {
        input,
        output,
        credits: job.window.max(1),
    };
    for piece in outcome.log.chunks(chunk) {
        sender.send(KIND_LOG_CHUNK, &encode_payload(piece)?)?;
    }
    for piece in collection.records.chunks(chunk) {
        sender.send(KIND_RECORD_CHUNK, &encode_payload(piece)?)?;
    }
    // Streaming mode: the whole bounded analytics state is one frame,
    // sized by configuration rather than traffic.
    if let Some(sketch) = collection.streaming.take() {
        sender.send(KIND_SKETCH, &encode_payload(&sketch)?)?;
    }
    let fin = FinalPayload {
        report: outcome.report,
        rollups: outcome.rollups.0,
        policy_changes_applied: outcome.policy_changes_applied,
        control_signals_applied: outcome.control_signals_applied,
        malformed: collection.malformed,
        streaming: outcome.streaming,
        geo,
    };
    write_frame(output, KIND_FINAL, &encode_payload(&fin)?).map_err(|error| {
        TransportError::Frame {
            context: "writing final frame".to_string(),
            error,
        }
    })?;
    output
        .flush()
        .map_err(|err| TransportError::Protocol(format!("flushing final frame: {err}")))?;
    Ok(())
}

/// Read one frame and insist on the given kind.
fn expect_frame<R: Read>(input: &mut R, kind: u8, what: &str) -> Result<Vec<u8>, TransportError> {
    match read_frame(input, DEFAULT_MAX_PAYLOAD).map_err(|error| TransportError::Frame {
        context: format!("reading {what} frame"),
        error,
    })? {
        Some(frame) if frame.kind == kind => Ok(frame.payload),
        Some(frame) => Err(TransportError::Protocol(format!(
            "expected {what} frame (kind {kind}), got kind {}",
            frame.kind
        ))),
        None => Err(TransportError::Protocol(format!(
            "stream ended before the {what} frame"
        ))),
    }
}

/// Entry point for a binary's worker role: speak the protocol over
/// stdin/stdout, report failures as an ERROR frame + exit code 1. The
/// role's whole body is `std::process::exit(worker_main::<MySpec>())`.
pub fn worker_main<S: WorldSpec>() -> i32 {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut input = stdin.lock();
    let mut output = io::BufWriter::new(stdout.lock());
    match run_worker::<S, _, _>(&mut input, &mut output) {
        Ok(()) => 0,
        Err(err) => {
            // Best effort: tell the coordinator why before dying.
            let _ = write_frame(&mut output, KIND_ERROR, err.to_string().as_bytes());
            let _ = output.flush();
            eprintln!("shard worker failed: {err}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audience::Audience;
    use crate::batch::BatchConfig;
    use encore::coordination::SchedulingStrategy;
    use encore::delivery::OriginSite;
    use encore::tasks::{MeasurementId, MeasurementTask, TaskSpec};
    use netsim::geo::country;
    use netsim::http::{ContentType, HttpResponse};
    use netsim::scenario::{NetworkScenario, WorldSpec as NetWorldSpec};

    /// A minimal serializable spec mirroring `shard.rs`'s test world.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct TinySpec {
        visits: u64,
        #[serde(default)]
        streaming: bool,
    }

    impl TinySpec {
        fn exact(visits: u64) -> TinySpec {
            TinySpec {
                visits,
                streaming: false,
            }
        }
    }

    impl WorldSpec for TinySpec {
        fn audience(&self) -> Audience {
            Audience::academic()
        }

        fn recipe(&self) -> WorldRecipe {
            let recipe = WorldRecipe::batch(BatchConfig {
                visits: self.visits,
                ..BatchConfig::default()
            });
            if self.streaming {
                recipe.with_streaming(crate::world::StreamingSpec::with_window(
                    sim_core::SimDuration::from_secs(60),
                ))
            } else {
                recipe
            }
        }

        fn build(&self, ctx: ShardContext) -> (Network, EncoreSystem) {
            let mut net = NetworkScenario::new(NetWorldSpec::Builtin)
                .with_ideal_paths()
                .with_server(
                    "target.example",
                    country("US"),
                    HttpResponse::ok(ContentType::Image, 400),
                )
                .build_shard(ctx.index, ctx.shards);
            let tasks = vec![MeasurementTask {
                id: MeasurementId(0),
                spec: TaskSpec::Image {
                    url: "http://target.example/favicon.ico".into(),
                },
            }];
            let sys = EncoreSystem::deploy(
                &mut net,
                tasks,
                SchedulingStrategy::RoundRobin,
                vec![OriginSite::academic("prof.example")],
                country("US"),
            );
            (net, sys)
        }
    }

    #[test]
    fn transport_kind_parses_and_displays() {
        assert_eq!(
            "threads".parse::<TransportKind>(),
            Ok(TransportKind::Threads)
        );
        assert_eq!(
            "process".parse::<TransportKind>(),
            Ok(TransportKind::Process)
        );
        assert!("Threads".parse::<TransportKind>().is_err());
        assert!("sockets".parse::<TransportKind>().is_err());
        assert_eq!(TransportKind::Threads.to_string(), "threads");
        assert_eq!(TransportKind::Process.to_string(), "process");
    }

    #[test]
    fn thread_transport_matches_run_sharded_world() {
        let spec = TinySpec::exact(300);
        let via_trait = ThreadTransport.run(&spec, 2, 41).expect("threads run");
        let audience = spec.audience();
        let recipe = spec.recipe();
        let direct = run_sharded_world(&|ctx| spec.build(ctx), &audience, &recipe, 2, 41);
        assert_eq!(via_trait.outcome, direct.outcome);
        assert_eq!(via_trait.collection, direct.collection);
        assert_eq!(via_trait.per_shard, direct.per_shard);
    }

    /// Drive the worker protocol entirely in-process: the "coordinator"
    /// side here is a scripted byte buffer (window large enough that no
    /// credits are needed), and the worker's streamed frames fold back
    /// through the same partial-outcome path `ProcessTransport` uses.
    #[test]
    fn in_process_worker_stream_folds_to_thread_result() {
        let spec = TinySpec::exact(240);
        let (shards, seed) = (2usize, 97u64);

        let expected = ThreadTransport.run(&spec, shards, seed).expect("threads");

        let mut outcome_acc: Option<WorldOutcome> = None;
        let mut collection_acc = CollectionSnapshot::default();
        let mut per_shard = Vec::new();
        for index in 0..shards {
            let mut script = Vec::new();
            write_frame(&mut script, KIND_SPEC, &encode_payload(&spec).unwrap()).unwrap();
            let job = WorkerJob {
                index,
                shards,
                seed,
                chunk: 7,
                window: usize::MAX,
            };
            write_frame(&mut script, KIND_JOB, &encode_payload(&job).unwrap()).unwrap();

            let mut input: &[u8] = &script;
            let mut wire = Vec::new();
            run_worker::<TinySpec, _, _>(&mut input, &mut wire).expect("worker runs");

            let mut stream: &[u8] = &wire;
            loop {
                let frame = read_frame(&mut stream, DEFAULT_MAX_PAYLOAD)
                    .expect("valid frame")
                    .expect("stream ends with FINAL");
                match frame.kind {
                    KIND_LOG_CHUNK => {
                        let log: Vec<VisitRecord> = decode_payload(&frame.payload, "log").unwrap();
                        let partial = WorldOutcome {
                            log,
                            report: BatchReport::default(),
                            rollups: crate::analytics::RollupSeries::default(),
                            policy_changes_applied: 0,
                            control_signals_applied: 0,
                            streaming: None,
                        };
                        outcome_acc = Some(match outcome_acc.take() {
                            Some(acc) => acc.merge(partial),
                            None => partial,
                        });
                    }
                    KIND_RECORD_CHUNK => {
                        let records: Vec<StoredMeasurement> =
                            decode_payload(&frame.payload, "records").unwrap();
                        collection_acc = collection_acc.merge(&CollectionSnapshot {
                            records,
                            malformed: 0,
                            streaming: None,
                        });
                    }
                    KIND_FINAL => {
                        let fin: FinalPayload = decode_payload(&frame.payload, "final").unwrap();
                        per_shard.push(fin.report);
                        let partial = WorldOutcome {
                            log: Vec::new(),
                            report: fin.report,
                            rollups: crate::analytics::RollupSeries(fin.rollups),
                            policy_changes_applied: fin.policy_changes_applied,
                            control_signals_applied: fin.control_signals_applied,
                            streaming: fin.streaming,
                        };
                        outcome_acc = Some(match outcome_acc.take() {
                            Some(acc) => acc.merge(partial),
                            None => partial,
                        });
                        collection_acc = collection_acc.merge(&CollectionSnapshot {
                            records: Vec::new(),
                            malformed: fin.malformed,
                            streaming: None,
                        });
                        break;
                    }
                    other => panic!("unexpected frame kind {other}"),
                }
            }
            assert_eq!(
                read_frame(&mut stream, DEFAULT_MAX_PAYLOAD).unwrap(),
                None,
                "worker must close its stream after FINAL"
            );
        }

        assert_eq!(outcome_acc.expect("two shards folded"), expected.outcome);
        assert_eq!(collection_acc, expected.collection);
        assert_eq!(per_shard, expected.per_shard);
    }

    /// Streaming vs exact over the *same* 2-shard traffic (same seed,
    /// and streaming's RNG forks are pure, so the visit streams are
    /// byte-identical): the merged window matrices must judge exactly
    /// like the merged exact record log.
    #[test]
    fn sharded_streaming_verdicts_match_sharded_exact() {
        let window = sim_core::SimDuration::from_secs(60);
        let exact = ThreadTransport
            .run(&TinySpec::exact(400), 2, 77)
            .expect("exact run");
        let streamed = ThreadTransport
            .run(
                &TinySpec {
                    visits: 400,
                    streaming: true,
                },
                2,
                77,
            )
            .expect("streaming run");

        // Enabling streaming never perturbs the traffic.
        assert_eq!(exact.outcome.report, streamed.outcome.report);
        assert_eq!(exact.per_shard, streamed.per_shard);

        // The record log never materialises in streaming mode; the
        // bounded stats carry everything the detector needs.
        assert!(streamed.collection.records.is_empty());
        let stats = streamed.collection.streaming.as_ref().expect("stats");
        assert!(!stats.windows.is_empty(), "windows closed");
        assert_eq!(stats.accepted as usize, exact.collection.records.len());

        let det = encore::inference::FilteringDetector::default();
        let exact_reports = det.detect_windows(&exact.collection.records, &exact.geo, window);
        assert_eq!(det.judge_streamed(stats), exact_reports);

        // Outcome-side summary: merged across shards, no shedding in
        // this gentle world.
        let summary = streamed.outcome.streaming.expect("merged summary");
        assert_eq!(summary.accepted, stats.accepted);
        assert_eq!(summary.drops.total(), 0);
    }

    /// Streaming mode on the wire: the worker sends zero RECORD_CHUNK
    /// frames and exactly one SKETCH frame, and folding its stream
    /// reproduces the thread backend's merged run.
    #[test]
    fn in_process_streaming_worker_sends_one_bounded_sketch_frame() {
        let spec = TinySpec {
            visits: 240,
            streaming: true,
        };
        let (shards, seed) = (2usize, 97u64);
        let expected = ThreadTransport.run(&spec, shards, seed).expect("threads");

        let mut outcome_acc: Option<WorldOutcome> = None;
        let mut collection_acc = CollectionSnapshot::default();
        for index in 0..shards {
            let mut script = Vec::new();
            write_frame(&mut script, KIND_SPEC, &encode_payload(&spec).unwrap()).unwrap();
            let job = WorkerJob {
                index,
                shards,
                seed,
                chunk: 7,
                window: usize::MAX,
            };
            write_frame(&mut script, KIND_JOB, &encode_payload(&job).unwrap()).unwrap();
            let mut input: &[u8] = &script;
            let mut wire = Vec::new();
            run_worker::<TinySpec, _, _>(&mut input, &mut wire).expect("worker runs");

            let (mut sketches, mut record_chunks) = (0, 0);
            let mut stream: &[u8] = &wire;
            loop {
                let frame = read_frame(&mut stream, DEFAULT_MAX_PAYLOAD)
                    .expect("valid frame")
                    .expect("stream ends with FINAL");
                match frame.kind {
                    KIND_RECORD_CHUNK => record_chunks += 1,
                    KIND_SKETCH => {
                        sketches += 1;
                        let stats: encore::streaming::StreamingStats =
                            decode_payload(&frame.payload, "sketch").unwrap();
                        collection_acc = collection_acc.merge_owned(CollectionSnapshot {
                            records: Vec::new(),
                            malformed: 0,
                            streaming: Some(stats),
                        });
                    }
                    KIND_FINAL => {
                        let fin: FinalPayload = decode_payload(&frame.payload, "final").unwrap();
                        let partial = WorldOutcome {
                            log: Vec::new(),
                            report: fin.report,
                            rollups: crate::analytics::RollupSeries(fin.rollups),
                            policy_changes_applied: fin.policy_changes_applied,
                            control_signals_applied: fin.control_signals_applied,
                            streaming: fin.streaming,
                        };
                        outcome_acc = Some(match outcome_acc.take() {
                            Some(acc) => acc.merge(partial),
                            None => partial,
                        });
                        collection_acc = collection_acc.merge_owned(CollectionSnapshot {
                            records: Vec::new(),
                            malformed: fin.malformed,
                            streaming: None,
                        });
                        break;
                    }
                    KIND_LOG_CHUNK => {} // batch mode: none expected, tolerated
                    other => panic!("unexpected frame kind {other}"),
                }
            }
            assert_eq!(record_chunks, 0, "no record chunks in streaming mode");
            assert_eq!(sketches, 1, "exactly one bounded sketch frame");
        }

        assert_eq!(outcome_acc.expect("folded"), expected.outcome);
        assert_eq!(collection_acc, expected.collection);
    }

    #[test]
    fn worker_without_credits_errors_instead_of_hanging() {
        // window 1 and a tiny chunk size forces the worker to need
        // credits, but the scripted input has none: the worker must
        // surface a typed error, not block or panic.
        let spec = TinySpec::exact(200);
        let mut script = Vec::new();
        write_frame(&mut script, KIND_SPEC, &encode_payload(&spec).unwrap()).unwrap();
        let job = WorkerJob {
            index: 0,
            shards: 1,
            seed: 7,
            chunk: 1,
            window: 1,
        };
        write_frame(&mut script, KIND_JOB, &encode_payload(&job).unwrap()).unwrap();
        let mut input: &[u8] = &script;
        let mut output = Vec::new();
        let err = run_worker::<TinySpec, _, _>(&mut input, &mut output)
            .expect_err("no credits available");
        assert!(matches!(err, TransportError::Protocol(_)), "{err}");
    }

    #[test]
    fn worker_rejects_malformed_handshake() {
        // Job before spec.
        let job = WorkerJob {
            index: 0,
            shards: 1,
            seed: 7,
            chunk: 8,
            window: 8,
        };
        let mut script = Vec::new();
        write_frame(&mut script, KIND_JOB, &encode_payload(&job).unwrap()).unwrap();
        let mut input: &[u8] = &script;
        let mut output = Vec::new();
        let err = run_worker::<TinySpec, _, _>(&mut input, &mut output).unwrap_err();
        assert!(matches!(err, TransportError::Protocol(_)), "{err}");

        // Truncated spec frame.
        let mut script = Vec::new();
        write_frame(
            &mut script,
            KIND_SPEC,
            &encode_payload(&TinySpec::exact(1)).unwrap(),
        )
        .unwrap();
        script.truncate(script.len() - 3);
        let mut input: &[u8] = &script;
        let mut output = Vec::new();
        let err = run_worker::<TinySpec, _, _>(&mut input, &mut output).unwrap_err();
        assert!(
            matches!(
                err,
                TransportError::Frame {
                    error: FrameError::ShortRead { .. },
                    ..
                }
            ),
            "{err}"
        );

        // Out-of-range shard index.
        let bad_job = WorkerJob {
            index: 3,
            shards: 2,
            seed: 7,
            chunk: 8,
            window: 8,
        };
        let mut script = Vec::new();
        write_frame(
            &mut script,
            KIND_SPEC,
            &encode_payload(&TinySpec::exact(1)).unwrap(),
        )
        .unwrap();
        write_frame(&mut script, KIND_JOB, &encode_payload(&bad_job).unwrap()).unwrap();
        let mut input: &[u8] = &script;
        let mut output = Vec::new();
        let err = run_worker::<TinySpec, _, _>(&mut input, &mut output).unwrap_err();
        assert!(matches!(err, TransportError::Protocol(_)), "{err}");
    }

    #[test]
    fn missing_worker_binary_is_a_typed_error() {
        let transport = ProcessTransport::new(PathBuf::from(
            "/nonexistent/encore-shard-worker-for-this-test",
        ));
        let spec = TinySpec::exact(10);
        match transport.run(&spec, 1, 1) {
            Err(TransportError::Spawn { .. }) => {}
            other => panic!("expected Spawn error, got {other:?}"),
        }
    }
}

//! Distributed shard backends: one shard body, one coordinator, two
//! carriers.
//!
//! Every shard is one call to `crate::shard::run_shard`, and its output
//! — a one-shard [`ShardedWorldRun`] — reaches the one coordinator,
//! `drain`, whole. `drain` opens one lane thread per shard, at most one
//! per hardware thread at a time, and folds the outputs into its merge
//! tail in shard order — so coordinator peak memory is the merged run
//! plus one output per open lane, not O(shards × outcome).
//! [`ShardTransport`] abstracts only what a lane runs:
//!
//! * [`ThreadTransport`] — the lane runs the shard body itself, in this
//!   process ([`run_sharded_world`]).
//! * [`ProcessTransport`] — worker **processes** on OS pipes speaking
//!   the length-prefixed, checksummed [`sim_core::frame`] protocol. The
//!   coordinator serializes the [`WorldSpec`] **once** and broadcasts
//!   the same frame bytes to every worker; each worker rebuilds its
//!   world from the spec, runs its shard, and streams the output back
//!   in bounded chunks, which the lane's stream fold
//!   (`fold_shard_stream`, over any [`Read`]) rebuilds as frames arrive.
//!   `ProcessTransport` itself holds only what is about processes:
//!   spawn, pipes, reap.
//!
//! Only descriptions cross the process boundary: a [`WorldSpec`] is a
//! compact serializable *description* (fixture name + parameters, or a
//! generator seed) from which the worker deterministically rebuilds the
//! scenario, recipe, and audience — so both backends run the same shard
//! body on identically built worlds, and agree byte for byte.
//!
//! ## Wire protocol (version [`sim_core::frame::FRAME_VERSION`])
//!
//! ```text
//! coordinator → worker   SPEC  (binary WorldSpec, identical bytes to all)
//!                        JOB   (shard index, count, seed, chunk, window)
//!                        ACK   (one credit, after each data frame folds)
//! worker → coordinator   LOG_CHUNK*    (≤ chunk VisitRecords each; Retain::Full only)
//!                        RECORD_CHUNK* (≤ chunk records each: the chunk's
//!                                       distinct texts once, then one row of
//!                                       scalars and text indices per record)
//!                        SKETCH?       (streaming mode: bounded analytics)
//!                        FINAL (report, rollups, counters, geo)
//!                        ERROR (human-readable failure, then exit 1)
//! ```
//!
//! A recipe that retains no visits ([`crate::world::Retain::None`], the
//! default) has no visit log to chunk, so its workers send no LOG_CHUNK;
//! the coordinator reads the retention off the same recipe, and holds
//! each stream to it.
//!
//! In streaming mode the record log never materialises, so the
//! RECORD_CHUNK stream is empty and the shard's entire collection-side
//! analytics — count-min sketch, reservoir sample, closed-window count
//! matrices, drop counters — crosses as **one** bounded SKETCH frame
//! whose size is fixed by the [`encore::streaming::StreamingConfig`],
//! not by traffic volume. SKETCH frames fold into the per-shard partial
//! like any data frame, so the coordinator still holds at most the
//! running merge plus the partials of the streams it has open.
//!
//! **Backpressure:** a worker may have at most `window` unacknowledged
//! data frames in flight; past that it blocks until the coordinator
//! acks, so coordinator-side buffering is bounded regardless of how
//! large a shard's log is. The stream fold is the only issuer of
//! credits: one per data frame, after the frame has folded. **Failure:**
//! a truncated, corrupt, out-of-protocol or ill-shaped stream surfaces
//! from the fold as a typed [`TransportError`] — never a panic — and
//! the coordinator kills every worker before it joins the sibling
//! folds (whose reads then end), so one bad stream is an error, not a
//! hang.

use crate::analytics::{Merge, RollupSeries, StreamSummary};
use crate::audience::Audience;
use crate::batch::BatchReport;
use crate::driver::VisitRecord;
use crate::record_wire;
use crate::shard::{run_shard, run_sharded_world, ShardContext, ShardedWorldRun};
use crate::world::{Retain, WorldOutcome, WorldRecipe};
use encore::collection::{in_canonical_order, CollectionSnapshot};
use encore::geo::GeoDb;
use encore::streaming::{MergeShape, StreamingStats};
use encore::system::EncoreSystem;
use netsim::network::Network;
use serde::{Deserialize, Serialize};
use sim_core::frame::{encode_frame, read_frame, write_frame, FrameError};
use sim_core::merge_time_ordered;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::io::{self, Read, Write};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::str::FromStr;
use std::sync::mpsc;
use std::thread;

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
/// Payload cap (bytes) enforced by both ends of the pipe.
pub const DEFAULT_MAX_PAYLOAD: u32 = 64 << 20;

/// A compact, serializable description of a sharded world run — the
/// unit a worker process rebuilds its world from.
///
/// Implementations must be **deterministic**: the same spec value must
/// build byte-identical worlds in every process, because cross-backend
/// equivalence (threads vs process, proven in
/// `tests/transport_equivalence.rs` and simcheck's transport oracle)
/// rests on it. Only the spec's serialized fields cross the pipe.
pub trait WorldSpec: Serialize + Deserialize + Send + Sync {
    /// The audience every shard samples visitors from.
    fn audience(&self) -> Audience;
    /// The *total* (unsharded) recipe; each shard runs
    /// [`shard_recipe`](crate::shard::shard_recipe)\(recipe, shards, index\).
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
    /// Root seed; the worker derives its stream via
    /// [`shard_rngs`](crate::shard::shard_rngs).
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
    pub rollups: RollupSeries,
    /// Policy-timeline changes that mutated the shard's world.
    pub policy_changes_applied: usize,
    /// Censor control signals a middlebox applied.
    pub control_signals_applied: usize,
    /// Malformed submissions the shard's collection server dropped.
    pub malformed: u64,
    /// Streaming-mode run summary (drop and acceptance accounting);
    /// absent — and absent from the wire — in exact mode.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub streaming: Option<StreamSummary>,
    /// The shard's striped GeoIP database.
    pub geo: GeoDb,
}

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
    /// A worker's stream ended before FINAL, or the worker exited
    /// non-zero after it.
    WorkerExit {
        /// The worker's shard index.
        shard: usize,
        /// The exit status, where the carrier has one to report.
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

/// The in-process backend: shard bodies on lane threads
/// ([`run_sharded_world`]).
/// Never fails; the `Result` exists only to satisfy the shared trait
/// signature.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadTransport;

impl ShardTransport for ThreadTransport {
    fn run<S: WorldSpec>(
        &self,
        spec: &S,
        shards: usize,
        seed: u64,
    ) -> Result<ShardedWorldRun, TransportError> {
        Ok(run_sharded_world(
            &|ctx| spec.build(ctx),
            &spec.audience(),
            &spec.recipe(),
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
    /// coordinator: the merge tail's running fold plus one partial per
    /// worker stream being folded or folded and awaiting its turn — at
    /// most `1 + min(shards, available_parallelism)`, a bound set by
    /// the machine and not by the shard count (1 at one shard, 2 at
    /// two). (In-flight chunks are bounded separately, by
    /// [`Self::window`].)
    pub peak_resident_outcomes: usize,
}

impl TransportStats {
    fn new(shards: usize) -> TransportStats {
        TransportStats {
            shards,
            data_frames: 0,
            streamed_payload_bytes: 0,
            largest_payload_bytes: 0,
            window: DEFAULT_WINDOW,
            peak_resident_outcomes: 0,
        }
    }

    /// Add what one shard's fold counted.
    fn absorb(&mut self, shard: &TransportStats) {
        self.data_frames += shard.data_frames;
        self.streamed_payload_bytes += shard.streamed_payload_bytes;
        self.largest_payload_bytes = self.largest_payload_bytes.max(shard.largest_payload_bytes);
    }
}

/// The multi-process backend: spawns one worker per shard, broadcasts
/// the spec as identical frame bytes, and hands each worker's stdout to
/// the stream fold.
#[derive(Debug, Clone)]
pub struct ProcessTransport {
    worker: PathBuf,
    role: Option<String>,
}

impl ProcessTransport {
    /// A process transport spawning `worker`.
    pub fn new(worker: PathBuf) -> ProcessTransport {
        ProcessTransport { worker, role: None }
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

    /// Run and also return the deterministic streaming counters.
    pub fn run_with_stats<S: WorldSpec>(
        &self,
        spec: &S,
        shards: usize,
        seed: u64,
    ) -> Result<(ShardedWorldRun, TransportStats), TransportError> {
        assert!(shards >= 1, "shard count must be at least 1");
        let mut workers = Vec::with_capacity(shards);
        let result = self
            .spawn_workers(spec, shards, seed, &mut workers)
            .and_then(|()| drain(&mut workers, hardware_lanes()));
        if result.is_err() {
            // The one failure path, whichever step failed: no orphans,
            // no zombies.
            for worker in &mut workers {
                worker.kill();
                let _ = worker.reap();
            }
        }
        result
    }

    /// Spawn all workers into `workers` (each the moment it exists, so
    /// the caller can reap it whatever fails next) and hand each the
    /// broadcast spec + its job.
    fn spawn_workers<S: WorldSpec>(
        &self,
        spec: &S,
        shards: usize,
        seed: u64,
        workers: &mut Vec<Spawned>,
    ) -> Result<(), TransportError> {
        // Control traffic serializes ONCE: every worker receives the
        // same spec frame bytes.
        let spec_frame = encode_frame(KIND_SPEC, &encode_payload(spec)?);
        let retain = spec.recipe().retain;
        for index in 0..shards {
            let child = Command::new(&self.worker)
                .args(&self.role)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|err| TransportError::Spawn {
                    worker: self.worker.clone(),
                    detail: err.to_string(),
                })?;
            workers.push(Spawned { child, retain });
            let stdin = workers[index]
                .child
                .stdin
                .as_mut()
                .expect("stdin piped at spawn");
            let job = WorkerJob {
                index,
                shards,
                seed,
                chunk: DEFAULT_CHUNK,
                window: DEFAULT_WINDOW,
            };
            let job_frame = encode_frame(KIND_JOB, &encode_payload(&job)?);
            stdin
                .write_all(&spec_frame)
                .and_then(|()| stdin.write_all(&job_frame))
                .map_err(|err| {
                    TransportError::Protocol(format!("writing handshake for shard {index}: {err}"))
                })?;
        }
        Ok(())
    }
}

/// How many lanes `drain` opens at a time, on either carrier: past one
/// per hardware thread a lane only waits for a core, holding an output.
pub(crate) fn hardware_lanes() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// A shard as [`drain`] sees it: a lane that brings its output home, a
/// way to learn how it ended, and a way to end it. A [`Spawned`]
/// worker's lane folds its frame stream; a [`ThreadShard`]'s runs the
/// shard body.
pub(crate) trait Worker {
    /// What the lane thread takes over.
    type Lane: Lane;
    /// Hand the lane over (once).
    fn open(&mut self) -> Self::Lane;
    /// Wait for the worker to end and say how it did.
    fn reap(&mut self) -> io::Result<ExitStatus> {
        Ok(ExitStatus::default())
    }
    /// End the worker now, which ends its stream: a fold blocked reading
    /// it sees EOF.
    fn kill(&mut self) {}
}

/// The body of one lane thread.
pub(crate) trait Lane: Send {
    /// Bring shard `shard`'s output home.
    fn bring_home(self, shard: usize) -> Result<Folded, TransportError>;
}

/// A worker's pipes — its frames, coordinator-bound, and where it reads
/// its credits — and the visit retention its stream is held to.
impl<R: Read + Send, W: Write + Send> Lane for (R, W, Retain) {
    fn bring_home(self, shard: usize) -> Result<Folded, TransportError> {
        // Dropped on return, either way: the stream is over, and closing
        // its stdin releases the worker.
        let (mut stdout, mut stdin, retain) = self;
        // This stream's own sketch shape and frame counts; the run's are
        // settled at the accept step.
        let (mut shape, mut counted) = (None, TransportStats::new(1));
        let credit = || ack(&mut stdin);
        let output =
            fold_shard_stream(shard, retain, &mut stdout, credit, &mut shape, &mut counted)?;
        Ok((output, shape, counted))
    }
}

/// A worker process, and the visit retention of the recipe the
/// coordinator sent it — what its stream must agree with.
struct Spawned {
    child: Child,
    retain: Retain,
}

impl Worker for Spawned {
    type Lane = (io::BufReader<ChildStdout>, ChildStdin, Retain);

    fn open(&mut self) -> Self::Lane {
        let stdout = self.child.stdout.take().expect("stdout piped at spawn");
        let stdin = self.child.stdin.take().expect("stdin piped at spawn");
        (io::BufReader::new(stdout), stdin, self.retain)
    }

    fn reap(&mut self) -> io::Result<ExitStatus> {
        self.child.wait()
    }

    fn kill(&mut self) {
        // Already gone is fine; the caller reaps either way.
        let _ = self.child.kill();
    }
}

/// One shard of an in-process run: its lane runs the shard body on the
/// world `build` makes for `ctx`; there is nothing to reap or kill.
#[derive(Clone, Copy)]
pub(crate) struct ThreadShard<'a> {
    build: &'a (dyn Fn(ShardContext) -> (Network, EncoreSystem) + Sync),
    audience: &'a Audience,
    recipe: &'a WorldRecipe,
    ctx: ShardContext,
    seed: u64,
}

impl<'a> ThreadShard<'a> {
    /// Every shard of a `shards`-shard run from root `seed`.
    pub(crate) fn all(
        build: &'a (dyn Fn(ShardContext) -> (Network, EncoreSystem) + Sync),
        audience: &'a Audience,
        recipe: &'a WorldRecipe,
        shards: usize,
        seed: u64,
    ) -> Vec<ThreadShard<'a>> {
        (0..shards)
            .map(|index| ThreadShard {
                build,
                audience,
                recipe,
                ctx: ShardContext { index, shards },
                seed,
            })
            .collect()
    }
}

impl Lane for ThreadShard<'_> {
    fn bring_home(self, _: usize) -> Result<Folded, TransportError> {
        let output = run_shard(&self.build, self.audience, self.recipe, self.ctx, self.seed);
        Ok((output, None, TransportStats::new(1)))
    }
}

impl Worker for ThreadShard<'_> {
    type Lane = Self;

    fn open(&mut self) -> Self {
        *self
    }
}

/// One shard's output as its lane reports it: the output, the sketch
/// shape its stream carried (if any), and what the fold counted.
pub(crate) type Folded = (ShardedWorldRun, Option<MergeShape>, TransportStats);

/// The coordinator's merge tail, with what the shards accepted into it
/// so far agreed on.
struct MergeTail {
    /// The shard-order fold of every output accepted so far.
    run: Option<ShardedWorldRun>,
    stats: TransportStats,
    shape: Option<MergeShape>,
    geo_error_rate: Option<f64>,
}

impl MergeTail {
    /// The accept step: the one place the shards of a run meet. What
    /// they must agree on to merge without a panic is checked here, as
    /// an error, against the first shard that brought it.
    fn accept(&mut self, shard: usize, folded: Folded) -> Result<(), TransportError> {
        let (output, shape, counted) = folded;
        if let Some(found) = shape {
            agree(&mut self.shape, found, shard, "sketch")?;
        }
        // FINAL passed the CRC, not `GeoDb::with_error_rate`: check what
        // `GeoDb::merge` would otherwise assert.
        let rate = output
            .geo
            .checked_error_rate()
            .map_err(|why| TransportError::Payload(format!("final: {why}")))?;
        agree(
            &mut self.geo_error_rate,
            rate,
            shard,
            "final: GeoIP error rate",
        )?;
        self.stats.absorb(&counted);
        self.run = Some(match self.run.take() {
            Some(run) => run.merge(output),
            None => output,
        });
        Ok(())
    }
}

/// Shard `shard`'s `found` must equal what came before it (`agreed`,
/// set by the first to bring any): its stream's, or its run's.
fn agree<T: Copy + PartialEq + fmt::Debug>(
    agreed: &mut Option<T>,
    found: T,
    shard: usize,
    what: &str,
) -> Result<(), TransportError> {
    let expected = *agreed.get_or_insert(found);
    if found == expected {
        return Ok(());
    }
    Err(TransportError::Payload(format!(
        "{what}: shard {shard} sent {found:?}, the run merges {expected:?}"
    )))
}

/// Drain every shard: bring the outputs home **side by side** — one
/// scoped lane thread per open shard, folding a worker's stream or
/// running an in-process shard body — and accept them into the merge
/// tail **in shard order**, so the merge tree, and with it every byte of
/// the result, is what folding them one after another produced. Once
/// the workers have simulated, shipping a shard home is
/// decode-and-checksum work on the coordinator; side by side it uses the
/// hardware threads the workers just vacated instead of queueing shard
/// 1's bytes behind shard 0's.
///
/// At most `lanes` shards are open at a time, in a window that slides
/// in index order as outputs are accepted: the coordinator holds the
/// tail's one run plus at most `lanes` partials (`peak_resident_outcomes`
/// ≤ `1 + min(shards, lanes)`); in-process shards past the window are
/// not built yet, and workers past it block on credits until it
/// reaches them.
///
/// On the first failure, whichever shard's, every worker is killed
/// *before* the remaining lane threads are joined: their reads then see
/// EOF, so a dead worker beside a healthy sibling is its typed error
/// and never a hang.
pub(crate) fn drain<W: Worker>(
    workers: &mut [W],
    lanes: usize,
) -> Result<(ShardedWorldRun, TransportStats), TransportError> {
    let shards = workers.len();
    let mut tail = MergeTail {
        run: None,
        stats: TransportStats::new(shards),
        shape: None,
        geo_error_rate: None,
    };
    let (done, folds) = mpsc::channel();
    thread::scope(|scope| {
        // Brought home, waiting for their turn in shard order.
        let mut early: BTreeMap<usize, Folded> = BTreeMap::new();
        let (mut opened, mut accepted) = (0, 0);
        let mut slide = || -> Result<(), TransportError> {
            while accepted < shards {
                while opened < shards.min(accepted + lanes.max(1)) {
                    let (shard, done) = (opened, done.clone());
                    let lane = workers[shard].open();
                    scope.spawn(move || {
                        // A panic in a lane — a fold bug, or how an
                        // in-process shard dies — must reach the
                        // coordinator, not leave it waiting.
                        let folded = catch_unwind(AssertUnwindSafe(|| lane.bring_home(shard)));
                        // No receiver: the coordinator already gave up.
                        let _ = done.send((shard, folded));
                    });
                    opened += 1;
                }
                let resident = usize::from(tail.run.is_some()) + (opened - accepted);
                tail.stats.peak_resident_outcomes = tail.stats.peak_resident_outcomes.max(resident);
                // One acceptance per turn, so the window refills after
                // each: the peak is set by `shards` and `lanes`, not by
                // the order the lanes happened to finish in.
                if let Some(folded) = early.remove(&accepted) {
                    tail.accept(accepted, folded)?;
                    accepted += 1;
                    continue;
                }

                let (shard, folded) = folds.recv().expect("every open lane reports");
                let folded = match folded {
                    Ok(Ok(folded)) => folded,
                    // The pipe closed before FINAL: the worker died.
                    // This backend can say how.
                    Ok(Err(TransportError::WorkerExit { .. })) => {
                        let detail = describe_exit(workers[shard].reap());
                        return Err(TransportError::WorkerExit { shard, detail });
                    }
                    Ok(Err(error)) => return Err(error),
                    Err(panic) => {
                        workers.iter_mut().for_each(Worker::kill);
                        resume_unwind(panic)
                    }
                };
                // Insist on a clean exit.
                match workers[shard].reap() {
                    Ok(status) if status.success() => {}
                    reaped => {
                        let detail = format!("after FINAL: {}", describe_exit(reaped));
                        return Err(TransportError::WorkerExit { shard, detail });
                    }
                }
                early.insert(shard, folded);
            }
            Ok(())
        };
        let drained = slide();
        if drained.is_err() {
            // Before the scope joins: end every stream still open.
            workers.iter_mut().for_each(Worker::kill);
        }
        drained
    })?;
    let run = tail.run.expect("the loop accepted every shard");
    Ok((run, tail.stats))
}

fn describe_exit(reaped: io::Result<ExitStatus>) -> String {
    reaped.map_or_else(|err| format!("unwaitable: {err}"), |s| s.to_string())
}

/// The coordinator's side of one worker's stream, over any byte
/// source: read frames up to FINAL and rebuild the shard's output from
/// them, holding the stream to the visit retention `retain` of the
/// recipe the worker was sent. Each LOG_CHUNK / RECORD_CHUNK / SKETCH
/// folds into the *shard's* partial — never the running merge — through
/// the ordered-append fast paths (a worker streams in time order), and
/// then earns the worker one credit through `ack`; a frame that fails
/// to decode or validate earns none. A RECORD_CHUNK's text table is
/// resolved through the stream's `seen` set (`record_wire::decode`), so
/// the shard's records hold one allocation per distinct URL and user
/// agent, not one per record. `shape` is the [`MergeShape`] every
/// sketch of the stream must share, set by the first one seen (the
/// run's is settled where streams meet, in `drain`); `stats` counts
/// what folded.
/// A stream ending on a frame boundary before FINAL is
/// [`TransportError::WorkerExit`]. A LOG_CHUNK under [`Retain::None`] is
/// a payload error, and so is a RECORD_CHUNK indexing past its text
/// table, out of canonical order, or sorting before the record the
/// stream delivered last (a shard's records are appended, never
/// re-sorted), a second SKETCH, and a FINAL
/// whose visit count disagrees with the log under [`Retain::Full`] or
/// whose accepted count disagrees with the SKETCH (or its absence);
/// nothing a peer can send panics.
fn fold_shard_stream<R: Read>(
    shard: usize,
    retain: Retain,
    stream: &mut R,
    mut ack: impl FnMut(),
    shape: &mut Option<MergeShape>,
    stats: &mut TransportStats,
) -> Result<ShardedWorldRun, TransportError> {
    let mut log: Vec<VisitRecord> = Vec::new();
    let mut collection = CollectionSnapshot::default();
    let mut seen = HashSet::new();
    loop {
        let frame = read_frame(stream, DEFAULT_MAX_PAYLOAD)
            .map_err(|error| TransportError::Frame {
                context: format!("reading from shard {shard}"),
                error,
            })?
            .ok_or_else(|| TransportError::WorkerExit {
                shard,
                detail: "stream ended before FINAL".to_string(),
            })?;
        match frame.kind {
            KIND_LOG_CHUNK => {
                if retain == Retain::None {
                    return Err(TransportError::Payload(format!(
                        "log chunk: shard {shard}'s recipe retains no visits"
                    )));
                }
                let chunk: Vec<VisitRecord> = decode_payload(&frame.payload, "log chunk")?;
                log = merge_time_ordered(log, chunk, |v| v.at);
            }
            KIND_RECORD_CHUNK => {
                let records = record_wire::decode(&frame.payload, &mut seen)?;
                // A shard streams its snapshot in canonical order, so its
                // partial is built by appending: a chunk out of order, or
                // sorting before what the stream already delivered (a
                // repeat), is refused rather than re-sorted in.
                if !in_canonical_order(collection.records.last().into_iter().chain(&records)) {
                    return Err(TransportError::Payload(format!(
                        "record chunk: shard {shard}'s records out of canonical order"
                    )));
                }
                collection.records.extend(records);
            }
            KIND_SKETCH => {
                // A shard's analytics are one frame: a second would
                // count every submission twice.
                if collection.streaming.is_some() {
                    return Err(TransportError::Payload(format!(
                        "sketch: a second SKETCH frame from shard {shard}"
                    )));
                }
                let sketch: StreamingStats = decode_payload(&frame.payload, "sketch")?;
                // The payload passed the CRC, not `CountMinSketch::new`:
                // check what `merge` would otherwise assert.
                let found = sketch
                    .validate()
                    .map_err(|why| TransportError::Payload(format!("sketch: {why}")))?;
                agree(shape, found, shard, "sketch")?;
                collection = collection.merge_owned(CollectionSnapshot {
                    streaming: Some(sketch),
                    ..CollectionSnapshot::default()
                });
            }
            KIND_FINAL => {
                let fin: FinalPayload = decode_payload(&frame.payload, "final")?;
                // A retaining shard logs every visit once: a LOG_CHUNK
                // lost or repeated on the way — or every one of them —
                // shows here, though each frame passed its CRC.
                if retain == Retain::Full && log.len() as u64 != fin.report.visits {
                    return Err(TransportError::Payload(format!(
                        "final: {} visits reported, {} logged",
                        fin.report.visits,
                        log.len()
                    )));
                }
                // A streaming shard's SKETCH carries what its summary
                // counts; a lost one leaves the fold with no analytics.
                let folded = collection.streaming.as_ref().map(|s| s.accepted);
                let summarised = fin.streaming.map(|s| s.accepted);
                if folded != summarised {
                    return Err(TransportError::Payload(format!(
                        "final: {summarised:?} submissions accepted, {folded:?} in the sketch"
                    )));
                }
                collection.malformed += fin.malformed;
                return Ok(ShardedWorldRun {
                    per_shard: vec![fin.report],
                    outcome: WorldOutcome {
                        log,
                        report: fin.report,
                        rollups: fin.rollups,
                        policy_changes_applied: fin.policy_changes_applied,
                        control_signals_applied: fin.control_signals_applied,
                        streaming: fin.streaming,
                    },
                    collection,
                    geo: fin.geo,
                });
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
        // Only a folded data frame gets here.
        let payload_len = frame.payload.len() as u64;
        stats.data_frames += 1;
        stats.streamed_payload_bytes += payload_len;
        stats.largest_payload_bytes = stats.largest_payload_bytes.max(payload_len);
        ack();
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
fn ack<W: Write>(stdin: &mut W) {
    let _ = write_frame(stdin, KIND_ACK, &[]);
    let _ = stdin.flush();
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
            expect_frame(self.input, KIND_ACK, "credit")?;
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
    let recipe = spec.recipe();
    recipe
        .check()
        .map_err(|why| TransportError::Payload(format!("spec: {why}")))?;
    let job_frame = expect_frame(input, KIND_JOB, "job")?;
    let job: WorkerJob = decode_payload(&job_frame, "job")?;
    if job.shards == 0 || job.index >= job.shards {
        return Err(TransportError::Protocol(format!(
            "job assigns shard {} of {}",
            job.index, job.shards
        )));
    }

    let ctx = ShardContext {
        index: job.index,
        shards: job.shards,
    };
    let ShardedWorldRun {
        outcome,
        mut collection,
        geo,
        ..
    } = run_shard(
        &|ctx| spec.build(ctx),
        &spec.audience(),
        &recipe,
        ctx,
        job.seed,
    );

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
        sender.send(KIND_RECORD_CHUNK, &record_wire::encode(piece))?;
    }
    // Streaming mode: the whole bounded analytics state is one frame,
    // sized by configuration rather than traffic.
    if let Some(sketch) = collection.streaming.take() {
        sender.send(KIND_SKETCH, &encode_payload(&sketch)?)?;
    }
    let fin = FinalPayload {
        report: outcome.report,
        rollups: outcome.rollups,
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
    let mut output = io::BufWriter::new(io::stdout().lock());
    serve::<S, _, _>(&mut io::stdin().lock(), &mut output)
}

/// [`worker_main`] over any pipes: run the worker, and answer a failure
/// — an error, or a panic in the shard — with an ERROR frame saying why
/// and exit code 1.
fn serve<S: WorldSpec, R: Read, W: Write>(input: &mut R, output: &mut W) -> i32 {
    let served = catch_unwind(AssertUnwindSafe(|| run_worker::<S, _, _>(input, output)));
    let why = match served {
        Ok(Ok(())) => return 0,
        Ok(Err(err)) => err.to_string(),
        Err(panic) => format!("panicked: {}", panic_message(&*panic)),
    };
    // Best effort: tell the coordinator why before dying.
    let _ = write_frame(output, KIND_ERROR, why.as_bytes());
    let _ = output.flush();
    eprintln!("shard worker failed: {why}");
    1
}

/// What a panic said: `panic!`'s payload is its `&str` literal or its
/// formatted `String`.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    match panic.downcast_ref::<&str>() {
        Some(literal) => literal,
        None => panic
            .downcast_ref::<String>()
            .map_or("(no message)", String::as_str),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytics::merge_in_order;
    use crate::batch::BatchConfig;
    use crate::record_wire::RecordChunk;
    use encore::collection::StoredMeasurement;
    use encore::streaming::{CellEntry, WindowCells};
    use sim_core::FRAME_HEADER_LEN;
    use std::sync::Arc;

    /// A minimal serializable spec over `shard.rs`'s test world.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct TinySpec {
        visits: u64,
        #[serde(default)]
        streaming: bool,
        /// Deployment mode (a week of arrivals, `visits` unused).
        #[serde(default)]
        deployment: bool,
        /// What the recipe keeps of each visit: under
        /// [`Retain::Full`], LOG_CHUNK frames.
        #[serde(default)]
        retain: Retain,
    }

    impl TinySpec {
        fn exact(visits: u64) -> TinySpec {
            TinySpec {
                visits,
                streaming: false,
                deployment: false,
                retain: Retain::None,
            }
        }

        fn streaming(visits: u64) -> TinySpec {
            TinySpec {
                streaming: true,
                ..TinySpec::exact(visits)
            }
        }

        /// A week of deployment arrivals, every visit logged.
        fn logged() -> TinySpec {
            TinySpec {
                deployment: true,
                retain: Retain::Full,
                ..TinySpec::exact(0)
            }
        }

        /// [`Self::logged`]'s world, keeping no visits.
        fn unlogged() -> TinySpec {
            TinySpec {
                retain: Retain::None,
                ..TinySpec::logged()
            }
        }
    }

    impl WorldSpec for TinySpec {
        fn audience(&self) -> Audience {
            Audience::academic()
        }

        fn recipe(&self) -> WorldRecipe {
            let recipe = if self.deployment {
                WorldRecipe::deployment(crate::driver::DeploymentConfig {
                    duration: sim_core::SimDuration::from_days(7),
                    ..Default::default()
                })
            } else {
                WorldRecipe::batch(BatchConfig {
                    visits: self.visits,
                    ..BatchConfig::default()
                })
            }
            .retain_visits(self.retain);
            if self.streaming {
                recipe.with_streaming(crate::world::StreamingSpec::with_window(
                    sim_core::SimDuration::from_secs(60),
                ))
            } else {
                recipe
            }
        }

        fn build(&self, ctx: ShardContext) -> (Network, EncoreSystem) {
            crate::shard::tests::build(ctx)
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
        let (audience, recipe) = (spec.audience(), spec.recipe());
        let direct = run_sharded_world(&|ctx| spec.build(ctx), &audience, &recipe, 2, 41);
        assert_eq!(via_trait.outcome, direct.outcome);
        assert_eq!(via_trait.collection, direct.collection);
        assert_eq!(via_trait.per_shard, direct.per_shard);
    }

    /// A coordinator's opening bytes: the spec frame, then the job frame.
    fn handshake<S: WorldSpec>(spec: &S, job: WorkerJob) -> Vec<u8> {
        let mut script = encode_frame(KIND_SPEC, &encode_payload(spec).unwrap());
        script.extend(encode_frame(KIND_JOB, &encode_payload(&job).unwrap()));
        script
    }

    /// Everything the real `run_worker` writes when all it ever reads is
    /// `script` (so: no credits).
    fn worker(script: &[u8]) -> Result<Vec<u8>, TransportError> {
        let mut wire = Vec::new();
        run_worker::<TinySpec, _, _>(&mut &script[..], &mut wire).map(|()| wire)
    }

    /// Shard `index`'s whole stream, in 7-record chunks under a window
    /// wide enough to need no credits.
    fn transcript(spec: &TinySpec, index: usize, shards: usize, seed: u64) -> Vec<u8> {
        let job = WorkerJob {
            index,
            shards,
            seed,
            chunk: 7,
            window: usize::MAX,
        };
        worker(&handshake(spec, job)).expect("worker runs")
    }

    /// The frames of a well-formed byte stream.
    fn frames(mut wire: &[u8]) -> Vec<sim_core::Frame> {
        std::iter::from_fn(|| read_frame(&mut wire, DEFAULT_MAX_PAYLOAD).expect("valid frame"))
            .collect()
    }

    /// What the shipped coordinator makes of `shards` worker transcripts:
    /// each through `fold_shard_stream`, then the merge tail. Also the
    /// frame kinds each worker sent.
    fn fold_transcripts(
        spec: &TinySpec,
        shards: usize,
        seed: u64,
    ) -> (ShardedWorldRun, Vec<Vec<u8>>) {
        let mut stats = TransportStats::new(shards);
        let (mut shape, mut credits) = (None, 0u64);
        let mut outputs = Vec::new();
        let mut kinds = Vec::new();
        for index in 0..shards {
            let wire = transcript(spec, index, shards, seed);
            kinds.push(frames(&wire).iter().map(|f| f.kind).collect());
            let mut stream = &wire[..];
            let credit = || credits += 1;
            let output = fold_shard_stream(
                index,
                spec.retain,
                &mut stream,
                credit,
                &mut shape,
                &mut stats,
            )
            .expect("a worker's own stream folds");
            assert!(stream.is_empty(), "the stream must end at FINAL");
            outputs.push(output);
        }
        let data_frames: usize = kinds.iter().map(|k: &Vec<u8>| k.len() - 1).sum();
        assert_eq!(credits, data_frames as u64, "one credit per data frame");
        assert_eq!(stats.data_frames, credits);
        (merge_in_order(outputs).expect("every shard folded"), kinds)
    }

    /// A worker that is only its stream: scripted bytes, or a pipe whose
    /// writer the test holds open so the stream never ends — until the
    /// coordinator kills the worker, which closes it. It was sent
    /// `spec`'s recipe, reads no credits and always exits 0.
    struct Scripted {
        stdout: Option<Box<dyn Read + Send>>,
        held_open: Option<io::PipeWriter>,
        retain: Retain,
    }

    impl Scripted {
        /// A worker for `spec` that wrote `wire` and exited.
        fn wrote(spec: &TinySpec, wire: Vec<u8>) -> Scripted {
            Scripted {
                stdout: Some(Box::new(io::Cursor::new(wire))),
                held_open: None,
                retain: spec.retain,
            }
        }

        /// A worker for `spec` that wrote `wire` and then neither writes
        /// nor exits.
        fn stalled_after(spec: &TinySpec, wire: &[u8]) -> Scripted {
            let (stdout, mut writer) = io::pipe().expect("an OS pipe");
            writer.write_all(wire).expect("fits the pipe buffer");
            Scripted {
                stdout: Some(Box::new(stdout)),
                held_open: Some(writer),
                retain: spec.retain,
            }
        }
    }

    impl Worker for Scripted {
        type Lane = (Box<dyn Read + Send>, io::Sink, Retain);

        fn open(&mut self) -> Self::Lane {
            (
                self.stdout.take().expect("pipes are taken once"),
                io::sink(),
                self.retain,
            )
        }

        fn kill(&mut self) {
            self.held_open = None;
        }
    }

    /// Side by side or one after another, whatever the window and
    /// whatever the carrier: `drain` over the workers' transcripts, or
    /// over the same shards run in-process, is `fold_transcripts` over
    /// them — same run, same frame count for the streams — and holds no
    /// more partials than its window allows (shards > lanes is the
    /// sliding case).
    #[test]
    fn concurrent_drain_is_the_one_after_another_fold_at_any_window() {
        let (spec, shards, seed) = (TinySpec::logged(), 5, 97);
        let (expected, kinds) = fold_transcripts(&spec, shards, seed);
        let data_frames: usize = kinds.iter().map(|k| k.len() - 1).sum();
        let (audience, recipe) = (spec.audience(), spec.recipe());
        let build = |ctx| spec.build(ctx);
        for lanes in [1, 2, 3, 5, 8] {
            let mut workers: Vec<Scripted> = (0..shards)
                .map(|index| Scripted::wrote(&spec, transcript(&spec, index, shards, seed)))
                .collect();
            let (run, stats) = drain(&mut workers, lanes).expect("transcripts drain");
            assert_eq!(stats.data_frames, data_frames as u64, "{lanes} lanes");
            let mut in_process = ThreadShard::all(&build, &audience, &recipe, shards, seed);
            let (threads, thread_stats) = drain(&mut in_process, lanes).expect("shards drain");
            // The tail's run plus a full window — or, with every lane
            // open from the start, the lanes alone.
            let bound = if lanes < shards { lanes + 1 } else { shards };
            for (carrier, run, stats) in
                [("process", run, stats), ("thread", threads, thread_stats)]
            {
                assert_eq!(run.outcome, expected.outcome, "{carrier}, {lanes} lanes");
                assert_eq!(
                    run.collection, expected.collection,
                    "{carrier}, {lanes} lanes"
                );
                assert_eq!(
                    run.per_shard, expected.per_shard,
                    "{carrier}, {lanes} lanes"
                );
                assert_eq!(
                    stats.peak_resident_outcomes, bound,
                    "{carrier}, {lanes} lanes"
                );
            }
        }
    }

    /// A worker whose lane brings `output` home only once its gate
    /// opens, and whose reap — the coordinator's first act on a
    /// completion — opens the gate of the shard the test wants next: the
    /// completions reach `drain` in exactly the order the test chose.
    struct Gated {
        lane: Option<Gate>,
        next: Option<mpsc::Sender<()>>,
    }

    /// A gated worker's lane: its gate, and the output behind it.
    struct Gate(mpsc::Receiver<()>, ShardedWorldRun);

    impl Lane for Gate {
        fn bring_home(self, _: usize) -> Result<Folded, TransportError> {
            let Gate(gate, output) = self;
            gate.recv().expect("the test opens every gate");
            Ok((output, None, TransportStats::new(1)))
        }
    }

    impl Worker for Gated {
        type Lane = Gate;

        fn open(&mut self) -> Self::Lane {
            self.lane.take().expect("a lane opens once")
        }

        fn reap(&mut self) -> io::Result<ExitStatus> {
            if let Some(next) = self.next.take() {
                next.send(()).expect("the next lane waits at its gate");
            }
            Ok(ExitStatus::default())
        }
    }

    /// Outputs that complete out of shard order — in reverse, shuffled,
    /// or alternating — are still accepted in shard order: the run is
    /// `merge_in_order` of the per-shard outputs, whatever the order.
    #[test]
    fn drain_accepts_in_shard_order_whatever_order_shards_complete_in() {
        let (spec, shards, seed) = (TinySpec::logged(), 5, 31);
        let (audience, recipe) = (spec.audience(), spec.recipe());
        let outputs: Vec<ShardedWorldRun> = (0..shards)
            .map(|index| {
                let ctx = ShardContext { index, shards };
                run_shard(&|ctx| spec.build(ctx), &audience, &recipe, ctx, seed)
            })
            .collect();
        let expected = merge_in_order(outputs.clone()).expect("five outputs");
        for order in [[4, 3, 2, 1, 0], [1, 3, 0, 2, 4], [0, 2, 4, 1, 3]] {
            let (gates, waits): (Vec<_>, Vec<_>) = (0..shards).map(|_| mpsc::channel()).unzip();
            let mut workers: Vec<Gated> = waits
                .into_iter()
                .zip(&outputs)
                .map(|(wait, output)| Gated {
                    lane: Some(Gate(wait, output.clone())),
                    next: None,
                })
                .collect();
            for pair in order.windows(2) {
                workers[pair[0]].next = Some(gates[pair[1]].clone());
            }
            gates[order[0]].send(()).unwrap();
            let (run, _) = drain(&mut workers, shards).expect("gated shards drain");
            assert_eq!(run.outcome, expected.outcome, "completed in {order:?}");
            assert_eq!(
                run.collection, expected.collection,
                "completed in {order:?}"
            );
            assert_eq!(run.per_shard, expected.per_shard, "completed in {order:?}");
        }
    }

    /// A thread run builds no more worlds at a time than it has lanes:
    /// 8 in-process shards on 2 lanes never have more than 2 builds in
    /// flight.
    #[test]
    fn a_thread_run_keeps_at_most_lanes_worlds_alive() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (in_flight, high_water) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let build = |ctx| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            high_water.fetch_max(now, Ordering::SeqCst);
            thread::sleep(std::time::Duration::from_millis(20));
            let world = crate::shard::tests::build(ctx);
            in_flight.fetch_sub(1, Ordering::SeqCst);
            world
        };
        let spec = TinySpec::exact(40);
        let (audience, recipe) = (spec.audience(), spec.recipe());
        let mut shards = ThreadShard::all(&build, &audience, &recipe, 8, 3);
        drain(&mut shards, 2).expect("shards drain");
        let mark = high_water.load(Ordering::SeqCst);
        assert!(
            (1..=2).contains(&mark),
            "{mark} worlds built at once on 2 lanes"
        );
    }

    /// Failure under concurrency: one worker's stream ends before FINAL
    /// while its sibling's never ends. The coordinator must answer with
    /// the dead worker's `WorkerExit` — at either index, so also when
    /// the shard it would accept first is the one still running — and
    /// must get there by ending the sibling's stream, not by waiting
    /// for it.
    #[test]
    fn a_dead_worker_beside_a_stalled_sibling_is_its_worker_exit_not_a_hang() {
        let spec = TinySpec::logged();
        let wire = transcript(&spec, 0, 1, 5);
        let good = FRAME_HEADER_LEN + frames(&wire)[0].payload.len();
        for dead in [0, 1] {
            let mut workers = vec![
                Scripted::stalled_after(&spec, &wire[..good]),
                Scripted::stalled_after(&spec, &wire[..good]),
            ];
            workers[dead] = Scripted::wrote(&spec, wire[..good].to_vec());
            let (verdict, deadline) = mpsc::channel();
            thread::spawn(move || verdict.send(drain(&mut workers, 2).map(|_| ())));
            let drained = deadline
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("shard {dead} dead: the coordinator hung"));
            match drained {
                Err(TransportError::WorkerExit { shard, .. }) => assert_eq!(shard, dead),
                other => panic!("shard {dead} dead: expected its WorkerExit, got {other:?}"),
            }
        }
    }

    /// Drive the worker protocol entirely in-process: what the
    /// coordinator's fold rebuilds from `run_worker`'s bytes is what the
    /// thread backend's lanes handed back in memory.
    #[test]
    fn in_process_worker_stream_folds_to_thread_result() {
        // A batch recipe retains no visits; a logged deployment streams them.
        for (spec, log_chunks) in [(TinySpec::exact(240), false), (TinySpec::logged(), true)] {
            let expected = ThreadTransport.run(&spec, 2, 97).expect("threads");
            let (folded, kinds) = fold_transcripts(&spec, 2, 97);
            assert_eq!(folded.outcome, expected.outcome);
            assert_eq!(folded.collection, expected.collection);
            assert_eq!(folded.per_shard, expected.per_shard);
            for sent in kinds {
                assert_eq!(sent.contains(&KIND_LOG_CHUNK), log_chunks);
                assert!(sent.contains(&KIND_RECORD_CHUNK));
                assert_eq!(sent.last(), Some(&KIND_FINAL));
            }
        }
    }

    /// Retention is a tap on the visit stream, not a different world: at
    /// 1 and 2 shards, on both carriers, a [`Retain::None`] run is its
    /// [`Retain::Full`] twin with the log left empty — same report,
    /// rollups, summaries, collection and per-shard reports — and its
    /// workers send no LOG_CHUNK.
    #[test]
    fn a_run_that_retains_no_visits_is_the_full_run_without_its_log() {
        let (full, none) = (TinySpec::logged(), TinySpec::unlogged());
        for shards in [1, 2] {
            let threads = ThreadTransport.run(&full, shards, 97).expect("threads");
            assert_eq!(
                threads.outcome.log.len() as u64,
                threads.outcome.report.visits
            );
            let expected = WorldOutcome {
                log: Vec::new(),
                ..threads.outcome.clone()
            };
            let (folded, kinds) = fold_transcripts(&none, shards, 97);
            let unlogged = ThreadTransport.run(&none, shards, 97).expect("threads");
            for (carrier, run) in [("process", folded), ("thread", unlogged)] {
                assert_eq!(run.outcome, expected, "{carrier}, {shards} shard(s)");
                assert_eq!(
                    run.collection, threads.collection,
                    "{carrier}, {shards} shard(s)"
                );
                assert_eq!(
                    run.per_shard, threads.per_shard,
                    "{carrier}, {shards} shard(s)"
                );
            }
            for sent in kinds {
                assert!(!sent.contains(&KIND_LOG_CHUNK), "{shards} shard(s)");
                assert!(sent.contains(&KIND_RECORD_CHUNK));
            }
        }
    }

    /// The most allocations any one distinct URL or user agent of
    /// `records` is held in.
    fn most_copies(records: &[StoredMeasurement]) -> usize {
        let mut held: BTreeMap<&str, Vec<*const u8>> = BTreeMap::new();
        for r in records {
            for text in [&r.submission.target_url, &r.submission.user_agent] {
                held.entry(text).or_default().push(text.as_ptr());
            }
        }
        held.into_values()
            .map(|mut allocations| {
                allocations.sort_unstable();
                allocations.dedup();
                allocations.len()
            })
            .max()
            .unwrap_or(0)
    }

    /// Records share their text on both carriers: one process stream's
    /// fold holds one allocation per distinct URL and user agent, as
    /// each thread shard's snapshot does, so a 2-shard merge holds at
    /// most two.
    #[test]
    fn folded_records_share_one_allocation_per_string_per_shard() {
        let (spec, shards, seed) = (TinySpec::logged(), 2, 97);
        for index in 0..shards {
            let wire = transcript(&spec, index, shards, seed);
            let (mut shape, mut stats) = (None, TransportStats::new(1));
            let folded = fold_shard_stream(
                index,
                spec.retain,
                &mut &wire[..],
                || {},
                &mut shape,
                &mut stats,
            )
            .expect("a worker's own stream folds");
            let records = &folded.collection.records;
            assert!(records.len() > 7, "shard {index}: one record chunk");
            assert_eq!(most_copies(records), 1, "shard {index}");
        }
        let threads = ThreadTransport.run(&spec, shards, seed).expect("threads");
        assert!(most_copies(&threads.collection.records) <= shards);
    }

    /// A RECORD_CHUNK lists each distinct text once and a row of
    /// scalars and indices per record: even at seven records a chunk,
    /// it is at most half the bytes of the same records spelled out in
    /// full.
    #[test]
    fn a_record_chunk_is_at_most_half_its_records_spelled_out() {
        let wire = transcript(&TinySpec::logged(), 0, 1, 5);
        let mut checked = 0;
        for frame in frames(&wire) {
            if frame.kind != KIND_RECORD_CHUNK {
                continue;
            }
            let records = record_wire::decode(&frame.payload, &mut HashSet::new()).unwrap();
            let spelled_out = serde::bin::to_vec(&records).len();
            let sent = frame.payload.len();
            assert!(
                2 * sent <= spelled_out,
                "chunk {checked}: {sent} of {spelled_out} bytes"
            );
            checked += 1;
        }
        assert!(checked > 1, "{checked} record chunk(s)");
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
            .run(&TinySpec::streaming(400), 2, 77)
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
        let spec = TinySpec::streaming(240);
        let expected = ThreadTransport.run(&spec, 2, 97).expect("threads");
        let (folded, kinds) = fold_transcripts(&spec, 2, 97);
        for sent in kinds {
            let count = |kind| sent.iter().filter(|&&k| k == kind).count();
            assert_eq!(
                count(KIND_RECORD_CHUNK),
                0,
                "no record chunks in streaming mode"
            );
            assert_eq!(count(KIND_SKETCH), 1, "exactly one bounded sketch frame");
        }
        assert_eq!(folded.outcome, expected.outcome);
        assert_eq!(folded.collection, expected.collection);
    }

    /// Fold `wire` as shard 0 of a run that retains `retain` and whose
    /// sketches must match `shape`: it must be refused with an error
    /// whose `Debug` form contains `expected`, having earned exactly
    /// `credits`.
    fn assert_refused(
        what: &str,
        retain: Retain,
        wire: &[u8],
        mut shape: Option<MergeShape>,
        expected: &str,
        credits: u64,
    ) {
        let (mut issued, mut stats) = (0, TransportStats::new(1));
        let before = shape;
        let credit = || issued += 1;
        let result = fold_shard_stream(0, retain, &mut &wire[..], credit, &mut shape, &mut stats);
        let err = format!(
            "{:?}",
            result.err().unwrap_or_else(|| panic!("{what}: folded"))
        );
        assert!(err.contains(expected), "{what}: got {err}");
        assert_eq!((issued, stats.data_frames), (credits, credits), "{what}");
        assert_eq!(shape, before, "{what}: a refused frame moved the shape");
    }

    /// Hostile streams, each one good data frame of a real transcript
    /// followed by something a dead, buggy or lying worker could send:
    /// the fold answers with the matching typed error, having issued the
    /// good frame's credit and none for the bad one. Then the whole
    /// transcript with one log chunk repeated or removed, or every one
    /// removed: refused at FINAL; or with its record chunk repeated:
    /// refused as the repeat arrives. Then a LOG_CHUNK from a shard whose
    /// recipe retains no visits: refused as it arrives. Then a streaming
    /// transcript with its SKETCH repeated — refused as it arrives — or
    /// removed — refused at FINAL.
    #[test]
    fn hostile_streams_get_their_typed_error_and_no_credit() {
        let full = Retain::Full;
        let wire = transcript(&TinySpec::logged(), 0, 1, 5);
        let all = frames(&wire);
        assert!(all.len() >= 3 && all[0].kind == KIND_LOG_CHUNK);
        let good = FRAME_HEADER_LEN + all[0].payload.len();
        let second = good + FRAME_HEADER_LEN + all[1].payload.len();
        let after_good =
            |kind, payload: &[u8]| [&wire[..good], &encode_frame(kind, payload)].concat();

        // The stream's record chunk, with its first and last records
        // swapped.
        let at_chunk = all
            .iter()
            .position(|f| f.kind == KIND_RECORD_CHUNK)
            .expect("a record chunk");
        let chunk = record_wire::decode(&all[at_chunk].payload, &mut HashSet::new()).unwrap();
        let mut swapped = chunk.clone();
        swapped.swap(0, chunk.len() - 1);
        assert!(!in_canonical_order(&swapped), "two records that differ");
        let swapped = record_wire::encode(&swapped);

        // One of the stream's own records, its URL — now in the chunk's
        // text table — made non-UTF-8.
        let mut records = chunk;
        records.truncate(1);
        records[0].submission.target_url = Arc::from("http://~~.example/");
        let mut not_utf8 = record_wire::encode(&records);
        let at = not_utf8
            .windows(2)
            .position(|w| w == b"~~")
            .expect("the URL");
        not_utf8[at] = 0xff;

        // That record again, one of its three text indices pointing one
        // past the chunk's table.
        let past_table = |point: fn(&mut RecordChunk)| {
            let mut chunk: RecordChunk =
                decode_payload(&record_wire::encode(&records), "").unwrap();
            point(&mut chunk);
            encode_payload(&chunk).unwrap()
        };
        let url_past = past_table(|c| c.rows[0].target_url = c.texts.len() as u32);
        let agent_past = past_table(|c| c.rows[0].user_agent = c.texts.len() as u32);
        let referer_past = past_table(|c| c.rows[0].referer = Some(c.texts.len() as u32));

        // A chunk with an empty table that declares 10⁶ rows, then a
        // megabyte of bytes no row decodes from.
        let mut declared = vec![0];
        serde::bin::put_uvarint(&mut declared, 1_000_000);
        declared.resize(1 << 20, 0xff);

        let mut flipped = wire[..second].to_vec();
        flipped[good + FRAME_HEADER_LEN + 2] ^= 0x10;
        let mut oversized = after_good(KIND_LOG_CHUNK, &[]);
        oversized[good + 8..good + 12].copy_from_slice(&(DEFAULT_MAX_PAYLOAD + 1).to_le_bytes());

        let disordered = "Payload(\"record chunk: shard 0's records out of canonical order";
        let past = "Payload(\"record chunk: text index";
        let cases = [
            (
                "cut mid-header",
                wire[..good + 5].to_vec(),
                "error: ShortRead",
            ),
            (
                "cut mid-payload",
                wire[..second - 3].to_vec(),
                "error: ShortRead",
            ),
            ("one flipped payload bit", flipped, "error: Corrupt"),
            (
                "EOF before FINAL",
                wire[..good].to_vec(),
                "WorkerExit { shard: 0",
            ),
            (
                "ERROR frame",
                after_good(KIND_ERROR, b"out of disk"),
                "Worker { shard: 0, detail: \"out of disk\" }",
            ),
            (
                "ACK from a worker",
                after_good(KIND_ACK, &[]),
                "Protocol(\"unexpected frame kind 6",
            ),
            (
                "SPEC from a worker",
                after_good(KIND_SPEC, &[1]),
                "Protocol(\"unexpected frame kind 1",
            ),
            ("length prefix above the cap", oversized, "error: Oversized"),
            (
                "RECORD_CHUNK that is not a record vector",
                after_good(KIND_RECORD_CHUNK, &[0xff; 5]),
                "Payload(\"record chunk",
            ),
            (
                "RECORD_CHUNK whose target URL is not UTF-8",
                after_good(KIND_RECORD_CHUNK, &not_utf8),
                "Payload(\"record chunk: json error: invalid utf8",
            ),
            (
                "RECORD_CHUNK out of canonical order",
                after_good(KIND_RECORD_CHUNK, &swapped),
                disordered,
            ),
            (
                "RECORD_CHUNK whose URL index is past its table",
                after_good(KIND_RECORD_CHUNK, &url_past),
                past,
            ),
            (
                "RECORD_CHUNK whose user-agent index is past its table",
                after_good(KIND_RECORD_CHUNK, &agent_past),
                past,
            ),
            (
                "RECORD_CHUNK whose referer index is past its table",
                after_good(KIND_RECORD_CHUNK, &referer_past),
                past,
            ),
            (
                "RECORD_CHUNK declaring 10⁶ rows it does not hold",
                after_good(KIND_RECORD_CHUNK, &declared),
                "Payload(\"record chunk: json error: varint",
            ),
        ];
        for (what, stream, expected) in cases {
            assert_refused(what, full, &stream, None, expected, 1);
        }

        // A whole LOG_CHUNK repeated or lost passes every CRC and earns
        // its credits; the FINAL after it no longer agrees with the log.
        assert!(all[1].kind == KIND_LOG_CHUNK, "several log chunks");
        let data_frames = all.len() as u64 - 1;
        let repeated = [&wire[..good], &wire[..]].concat();
        let final_disagrees = "Payload(\"final: ";
        assert_refused(
            "a LOG_CHUNK repeated",
            full,
            &repeated,
            None,
            final_disagrees,
            data_frames + 1,
        );
        assert_refused(
            "a LOG_CHUNK removed",
            full,
            &wire[good..],
            None,
            final_disagrees,
            data_frames - 1,
        );
        // With every LOG_CHUNK lost the log is empty, which a run that
        // retains visits never folds to.
        let log_chunks = all.iter().filter(|f| f.kind == KIND_LOG_CHUNK).count() as u64;
        let logless: Vec<u8> = all
            .iter()
            .filter(|f| f.kind != KIND_LOG_CHUNK)
            .flat_map(|f| encode_frame(f.kind, &f.payload))
            .collect();
        assert_refused(
            "every LOG_CHUNK removed",
            full,
            &logless,
            None,
            final_disagrees,
            data_frames - log_chunks,
        );

        // A multi-record chunk repeated right after itself: the repeat's
        // first record sorts before the last one already delivered, so it
        // is refused as it arrives rather than doubling the records.
        let through_chunk: usize = all[..=at_chunk]
            .iter()
            .map(|f| FRAME_HEADER_LEN + f.payload.len())
            .sum();
        let repeated = [
            &wire[..through_chunk],
            &encode_frame(KIND_RECORD_CHUNK, &all[at_chunk].payload),
            &wire[through_chunk..],
        ]
        .concat();
        assert_refused(
            "a RECORD_CHUNK repeated",
            full,
            &repeated,
            None,
            disordered,
            at_chunk as u64 + 1,
        );

        // A shard whose recipe retains nothing has no log to send: its
        // own first data frame folds, a LOG_CHUNK after it does not.
        let unlogged = transcript(&TinySpec::unlogged(), 0, 1, 5);
        let first = FRAME_HEADER_LEN + frames(&unlogged)[0].payload.len();
        let stray = [
            &unlogged[..first],
            &encode_frame(KIND_LOG_CHUNK, &all[0].payload),
        ]
        .concat();
        assert_refused(
            "a LOG_CHUNK from a None shard",
            Retain::None,
            &stray,
            None,
            "Payload(\"log chunk: shard 0's recipe retains no visits",
            1,
        );

        // The run's shape is the sketch's own, so a refusal can be told
        // from a moved shape.
        let wire = transcript(&TinySpec::streaming(60), 0, 1, 5);
        let all = frames(&wire);
        let kinds: Vec<u8> = all.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, [KIND_SKETCH, KIND_FINAL]);
        let stats: StreamingStats = decode_payload(&all[0].payload, "sketch").unwrap();
        let shape = stats.validate().ok();
        let sketch = FRAME_HEADER_LEN + all[0].payload.len();
        let repeated = [&wire[..sketch], &wire[..]].concat();
        assert_refused(
            "a SKETCH repeated",
            Retain::None,
            &repeated,
            shape,
            "Payload(\"sketch: a second SKETCH",
            1,
        );
        assert_refused(
            "a SKETCH removed",
            Retain::None,
            &wire[sketch..],
            shape,
            final_disagrees,
            0,
        );
    }

    /// `CountMinSketch`'s positional wire shape (its fields are private
    /// to `encore`), to write sketches `CountMinSketch::new` would refuse.
    #[derive(Clone, Serialize, Deserialize)]
    struct WireSketch {
        depth: u32,
        width: u32,
        seed: u64,
        items: u64,
        counters: Vec<u64>,
    }

    /// A SKETCH frame that passes the CRC but carries a sketch no
    /// constructor made, or one that cannot merge with a sibling's, is a
    /// payload error — it used to reach `CountMinSketch::merge`'s assert
    /// and panic the coordinator.
    #[test]
    fn ill_shaped_sketch_frames_are_payload_errors_not_panics() {
        let sent = frames(&transcript(&TinySpec::streaming(60), 0, 2, 5));
        let [.., sketch_frame, final_frame] = &sent[..] else {
            panic!("streaming transcript ends SKETCH, FINAL");
        };
        assert_eq!(sketch_frame.kind, KIND_SKETCH);
        let real: StreamingStats = decode_payload(&sketch_frame.payload, "sketch").unwrap();
        let sketch: WireSketch =
            serde_json::from_str(&serde_json::to_string(&real.sketch).unwrap()).unwrap();
        // `real` with the window, sketch and closed windows swapped, as a
        // stream: SKETCH, FINAL.
        let stream_of = |window_micros: u64, sketch: &WireSketch, windows: &[WindowCells]| {
            let stats = (
                window_micros,
                real.accepted,
                sketch,
                &real.reservoir,
                windows,
                &real.drops,
            );
            let mut wire = encode_frame(KIND_SKETCH, &serde::bin::to_vec(&stats));
            wire.extend(encode_frame(KIND_FINAL, &final_frame.payload));
            wire
        };
        let stream = |window_micros: u64, sketch: &WireSketch| {
            stream_of(window_micros, sketch, &real.windows)
        };
        let window = real.window_micros;

        // Control: the mirror re-encodes the real sketch, which folds and
        // sets the shape its siblings must share.
        let (mut shape, mut stats) = (None, TransportStats::new(2));
        let control = stream(window, &sketch);
        let folded = fold_shard_stream(
            0,
            Retain::None,
            &mut &control[..],
            || {},
            &mut shape,
            &mut stats,
        );
        assert_eq!(folded.unwrap().collection.streaming.as_ref(), Some(&real));
        assert!(shape.is_some());

        let resized = |depth: u32, width: u32| WireSketch {
            depth,
            width,
            counters: vec![0; depth as usize * width as usize],
            ..sketch.clone()
        };
        let mut short = sketch.clone();
        short.counters.pop();
        let mut reseeded = sketch.clone();
        reseeded.seed ^= 1;
        let (depth, width) = (sketch.depth, sketch.width);
        // Ill-shaped on their own — refused even as a run's first sketch.
        let cases = [
            ("depth 0", stream(window, &resized(0, width))),
            ("depth above MAX_DEPTH", stream(window, &resized(9, 4))),
            ("width 0", stream(window, &resized(depth, 0))),
            ("a counter short", stream(window, &short)),
        ];
        for (what, wire) in cases {
            assert_refused(what, Retain::None, &wire, None, "Payload(\"sketch: ", 0);
        }
        // Well-shaped, but not what the control's siblings may merge with.
        let cases = [
            ("a sibling's seed differs", stream(window, &reseeded)),
            (
                "a sibling's width differs",
                stream(window, &resized(depth, width + 1)),
            ),
            ("a sibling's window differs", stream(window + 1, &sketch)),
        ];
        for (what, wire) in cases {
            assert_refused(what, Retain::None, &wire, shape, "Payload(\"sketch: ", 0);
        }
        // Well-shaped, but closed windows the detector cannot read in place.
        let cell = |domain: &str, n, x| CellEntry {
            domain: domain.into(),
            country: netsim::geo::country("US"),
            n,
            x,
        };
        let closed = |window, cells| WindowCells {
            window,
            measurements: 1,
            cells,
        };
        let (a, b) = (cell("a.example", 2, 1), cell("b.example", 2, 1));
        let cases = [
            (
                "windows descending",
                vec![closed(1, vec![]), closed(0, vec![])],
            ),
            (
                "a window repeated",
                vec![closed(0, vec![]), closed(0, vec![])],
            ),
            ("cells descending", vec![closed(0, vec![b, a.clone()])]),
            ("a cell repeated", vec![closed(0, vec![a.clone(), a])]),
            (
                "a cell with n = 0",
                vec![closed(0, vec![cell("a.example", 0, 0)])],
            ),
            (
                "a cell with x > n",
                vec![closed(0, vec![cell("a.example", 1, 2)])],
            ),
            (
                "a window starting past u64 microseconds",
                vec![closed(u64::MAX / window + 1, vec![])],
            ),
        ];
        for (what, windows) in cases {
            let wire = stream_of(window, &sketch, &windows);
            assert_refused(
                what,
                Retain::None,
                &wire,
                None,
                "Payload(\"sketch: window ",
                0,
            );
        }
    }

    /// A FINAL frame that passes the CRC but carries a `GeoDb` whose
    /// error rate no `with_error_rate` made, or one a sibling's cannot
    /// merge with, is a payload error at the accept step — it used to
    /// reach `GeoDb::merge`'s assert and panic the coordinator.
    #[test]
    fn hostile_final_geo_error_rates_are_payload_errors_not_panics() {
        let spec = TinySpec::exact(60);
        // Shard `index`'s real transcript, its FINAL's GeoDb rewritten.
        type Rewrite<'a> = &'a dyn Fn(GeoDb) -> GeoDb;
        let transcript_with = |index: usize, rewrite: Rewrite| {
            let mut wire = transcript(&spec, index, 2, 5);
            let final_frame = frames(&wire).pop().expect("a transcript ends in FINAL");
            let fin: FinalPayload = decode_payload(&final_frame.payload, "final").unwrap();
            let fin = FinalPayload {
                geo: rewrite(fin.geo),
                ..fin
            };
            wire.truncate(wire.len() - FRAME_HEADER_LEN - final_frame.payload.len());
            wire.extend(encode_frame(KIND_FINAL, &encode_payload(&fin).unwrap()));
            Scripted::wrote(&spec, wire)
        };
        // `with_error_rate` clamps, so an out-of-range rate is written
        // through the serialized form.
        let out_of_range = |geo: GeoDb| -> GeoDb {
            let json = serde_json::to_string(&geo).unwrap();
            let hostile = json.replace("\"error_rate\":0.0", "\"error_rate\":1.5");
            assert_ne!(hostile, json, "GeoDb's JSON spells the rate {json}");
            serde_json::from_str(&hostile).unwrap()
        };
        let honest = |geo: GeoDb| geo;
        let cases: [(&str, [Rewrite; 2], &str); 4] = [
            (
                "a sibling's rate differs",
                [&honest, &|geo| geo.with_error_rate(0.25)],
                "Payload(\"final: GeoIP error rate: shard 1 sent 0.25, the run merges 0.0",
            ),
            (
                "the first shard's rate is NaN",
                [&|geo| geo.with_error_rate(f64::NAN), &honest],
                "Payload(\"final: a GeoIP error rate of NaN",
            ),
            (
                "both rates are NaN",
                [&|geo| geo.with_error_rate(f64::NAN); 2],
                "Payload(\"final: a GeoIP error rate of NaN",
            ),
            (
                "a sibling's rate is out of [0, 1]",
                [&honest, &out_of_range],
                "Payload(\"final: a GeoIP error rate of 1.5",
            ),
        ];
        for (what, [first, second], expected) in cases {
            for lanes in [1, 2] {
                let mut workers = [transcript_with(0, first), transcript_with(1, second)];
                let err = drain(&mut workers, lanes).expect_err(what);
                let err = format!("{err:?}");
                assert!(err.contains(expected), "{what}, {lanes} lanes: got {err}");
            }
        }
        // Control: the rewrite round-trips an honest FINAL, which drains.
        let mut workers = [transcript_with(0, &honest), transcript_with(1, &honest)];
        let (run, _) = drain(&mut workers, 2).expect("honest FINALs drain");
        let expected = ThreadTransport.run(&spec, 2, 5).expect("threads");
        assert_eq!(run.collection, expected.collection);
    }

    /// FINAL used to carry the rollups as `Vec<Rollup>` behind a wire
    /// alias; it now carries the `RollupSeries` newtype itself. Struct
    /// fields are encoded positionally, one after another, so the FINAL
    /// payload is unchanged iff the newtype encodes as its vector.
    #[test]
    fn rollup_series_crosses_the_wire_as_its_vector() {
        let series = RollupSeries(
            (1..=3)
                .map(|i| crate::analytics::Rollup {
                    at: sim_core::SimTime::from_secs(i * 86_400),
                    visits: i * 1_000,
                    collected: i as usize * 900,
                })
                .collect(),
        );
        assert_eq!(serde::bin::to_vec(&series), serde::bin::to_vec(&series.0));
        assert_eq!(
            serde::bin::to_vec(&RollupSeries::default()),
            serde::bin::to_vec(&Vec::<crate::analytics::Rollup>::new())
        );
    }

    #[test]
    fn worker_without_credits_errors_instead_of_hanging() {
        // window 1 and a tiny chunk size forces the worker to need
        // credits, but the scripted input has none: the worker must
        // surface a typed error, not block or panic.
        let job = WorkerJob {
            index: 0,
            shards: 1,
            seed: 7,
            chunk: 1,
            window: 1,
        };
        let err = worker(&handshake(&TinySpec::exact(200), job)).expect_err("no credits");
        assert!(matches!(err, TransportError::Protocol(_)), "{err}");
    }

    #[test]
    fn worker_rejects_malformed_handshake() {
        let job = WorkerJob {
            index: 0,
            shards: 1,
            seed: 7,
            chunk: 8,
            window: 8,
        };
        let good = handshake(&TinySpec::exact(1), job);
        let spec_len = good.len() - encode_frame(KIND_JOB, &encode_payload(&job).unwrap()).len();

        // Job before spec.
        let err = worker(&good[spec_len..]).unwrap_err();
        assert!(matches!(err, TransportError::Protocol(_)), "{err}");

        // Truncated spec frame.
        let err = worker(&good[..spec_len - 3]).unwrap_err();
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
            ..job
        };
        let err = worker(&handshake(&TinySpec::exact(1), bad_job)).unwrap_err();
        assert!(matches!(err, TransportError::Protocol(_)), "{err}");
    }

    /// A spec whose every shard panics building its world.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Doomed {
        why: String,
    }

    impl WorldSpec for Doomed {
        fn audience(&self) -> Audience {
            Audience::academic()
        }

        fn recipe(&self) -> WorldRecipe {
            TinySpec::exact(1).recipe()
        }

        fn build(&self, _: ShardContext) -> (Network, EncoreSystem) {
            panic!("{}", self.why)
        }
    }

    /// A worker whose shard panics sends the panic's message as its
    /// ERROR frame and exits 1, so the coordinator answers with the
    /// reason — the one an in-process shard's re-raised panic carries —
    /// and not with a bare exit status.
    #[test]
    fn a_worker_that_panics_says_why() {
        let spec = Doomed {
            why: "no world today".into(),
        };
        let job = WorkerJob {
            index: 0,
            shards: 1,
            seed: 7,
            chunk: 8,
            window: 8,
        };
        let mut wire = Vec::new();
        let code = serve::<Doomed, _, _>(&mut &handshake(&spec, job)[..], &mut wire);
        assert_eq!(code, 1, "a panicked worker exits 1");
        let detail = match drain(&mut [Scripted::wrote(&TinySpec::exact(1), wire)], 1) {
            Err(TransportError::Worker { shard: 0, detail }) => detail,
            other => panic!("expected the worker's reason, got {other:?}"),
        };
        assert_eq!(detail, "panicked: no world today");

        let (audience, recipe) = (spec.audience(), spec.recipe());
        let build = |ctx| spec.build(ctx);
        let in_process = catch_unwind(AssertUnwindSafe(|| {
            drain(&mut ThreadShard::all(&build, &audience, &recipe, 1, 7), 1)
        }));
        let panic = in_process.expect_err("an in-process shard's panic is re-raised");
        assert_eq!(format!("panicked: {}", panic_message(&*panic)), detail);
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

//! The discrete-event world engine — one queue drives everything.
//!
//! Earlier revisions of this crate ran deployments as stateless batch
//! loops: the Poisson driver materialised its whole arrival schedule up
//! front, the batch driver advanced a local clock inline, and anything
//! that had to *change the world mid-run* (a censorship block switching
//! on for an election, a transit brownout) had no place to stand.
//! `WorldEngine` replaces those loops with a single
//! [`sim_core::queue::EventQueue`]: client arrivals, scheduled policy
//! changes ([`censor::timeline::PolicyTimeline`]), data-plane world
//! changes ([`WorldChange`]), censor reactions, session
//! maintenance ticks, and periodic collection rollups are all
//! [`WorldEvent`]s popped from one tie-break-ordered heap. Censorship
//! dynamics — the paper's §1 point that filtering "varies over time"
//! and must be measured continuously — become first-class events
//! instead of per-phase world rebuilds.
//!
//! A run is *described*, never imperatively scheduled: a
//! [`WorldRecipe`] is the plain-data value of a run (arrival mode +
//! timeline + reactions + world changes + housekeeping cadences).
//! [`WorldEngine::from_recipe`] borrows it and executes it in place —
//! events index into the recipe, the engine keeps no copy of any
//! schedule — and [`crate::transport::ShardTransport::run`] runs it across
//! all cores by broadcasting the recipe's control half to every shard
//! and thinning its arrival half 1/N. One description, two execution paths, provably
//! the same experiment (`tests/world_shard_equivalence.rs`).
//!
//! ## Equivalence contract
//!
//! A deployment-mode and a batch-mode recipe each produce
//! **bit-identical** output to the pre-engine driver loops for any fixed
//! seed (`tests/world_engine_equivalence.rs` pins this against verbatim
//! copies of the legacy drivers; `tests/shard_equivalence.rs`'s golden
//! snapshot would also catch any drift). Three facts make that hold:
//!
//! * **RNG stream discipline.** Arrival gaps and visitor draws live on
//!   separate forked streams (`*-arrivals` / `*-visitors`), so moving
//!   the gap draw from "top of the loop" to "end of the previous
//!   arrival's handler" reorders draws *across* streams but never
//!   *within* one.
//! * **Tie-break parity.** The legacy Poisson driver sorted its schedule
//!   by `(time, origin_index)`; the engine counts each origin's
//!   arrivals up front and reserves that many queue sequence numbers,
//!   origin by origin, so every arrival fires under the `(time, seq)`
//!   it would have had if all of them were queued at once — which
//!   reproduces that exact order — while the queue holds one pending
//!   arrival per origin.
//! * **Neutral housekeeping.** Maintenance ticks only prune session
//!   state the fetch path would never serve
//!   ([`netsim::session::FetchSession::prune_expired`]), rollups only
//!   read, and policy and world-change events draw no
//!   engine RNG — none of them perturb the visit streams.
//!
//! Scheduled *configuration* events (timeline changes, censor
//! reactions, world changes, periodic ticks) are enqueued before the
//! traffic is, so at equal timestamps they fire **before** any arrival — a
//! block installed "at day 10" is in force for the first visit of
//! day 10.

use crate::analytics::{tally_outcome, Rollup, RollupSeries, StreamSummary};
use crate::audience::Audience;
use crate::batch::{BatchConfig, BatchReport};
use crate::driver::{DeploymentConfig, VisitRecord};
use browser::BrowserClient;
use censor::adaptive::{Reaction, ReactionPolicy};
use censor::timeline::PolicyTimeline;
use encore::delivery::OriginSite;
use encore::system::EncoreSystem;
use netsim::network::Network;
use serde::{Deserialize, Serialize};
use sim_core::dist::{Exponential, Sample};
use sim_core::queue::EventQueue;
use sim_core::{SimDuration, SimRng, SimTime};
use websim::corpus::{Corpus, CorpusConfig, Disruption};

/// An event on the world's queue. Same-time events fire in sequence
/// order (the queue's insertion-sequence tie-break, or the sequence
/// number reserved for them). A variant carries an index or a period
/// and nothing wider — the enum stays two words.
#[derive(Debug)]
pub enum WorldEvent {
    /// A Poisson arrival at one origin (deployment mode). Each origin
    /// keeps one queued; firing it queues the origin's next.
    DeploymentArrival {
        /// Index into the system's origin list.
        origin_index: usize,
    },
    /// The `seq`-th batch visit (1-based). Its handler executes the
    /// visit, then schedules arrival `seq + 1` — the self-scheduling
    /// arrival process of classic discrete-event simulation.
    BatchArrival {
        /// 1-based visit number.
        seq: u64,
    },
    /// Apply the policy-timeline change at `index` (world mutation
    /// through the middlebox generation counter).
    PolicyChange {
        /// Index into the recipe's [`PolicyTimeline::entries`].
        index: usize,
    },
    /// Deliver one scheduled censor control signal — a
    /// [`censor::adaptive::ReactionPolicy`] step driving a stateful
    /// middlebox ([`netsim::middlebox::Middlebox::on_control`]) without
    /// reinstalling it. Control signals change middlebox *behaviour*,
    /// never coverage, so no generation bump and no pipeline recompile.
    CensorSignal {
        /// Index into the recipe's reaction steps: policies in insertion
        /// order, each policy's [`ReactionPolicy::steps`] in its own.
        index: usize,
    },
    /// Apply the recipe's scheduled [`WorldChange`] at `index`.
    Mutation {
        /// Index into the recipe's world-change list.
        index: usize,
    },
    /// Periodic session maintenance: prune expired DNS/keep-alive state
    /// from every pooled client, then reschedule while traffic remains.
    MaintenanceTick {
        /// Tick period.
        period: SimDuration,
    },
    /// Periodic collection rollup: snapshot progress counters, then
    /// reschedule while traffic remains.
    CollectionRollup {
        /// Rollup period.
        period: SimDuration,
    },
}

/// A scheduled change to a running world's data plane, which every
/// shard applies to its own [`Network`] (never to the Encore system).
///
/// A change that cannot apply — no topology, a site rank the corpus
/// lacks, a corpus config [`Corpus::generate`] rejects — is a silent
/// no-op like a signal to an uninstalled censor, never a panic: a
/// recipe may arrive as bytes from outside the program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorldChange {
    /// Set the background utilisation of every hotspot transit link: a
    /// brownout above the shed threshold, cleared at `0.0`. Data-plane
    /// only, so no generation bump and no pipeline recompile.
    HotspotBackground(f64),
    /// Apply, or with `revert` undo, a benign disruption against a site
    /// of the corpus that `(corpus, corpus_seed)` generates. The corpus
    /// is regenerated when the change fires, from its own fresh RNG, so
    /// firing draws nothing from the run's streams.
    Disruption {
        /// The disrupted corpus' generator config.
        corpus: CorpusConfig,
        /// The disrupted corpus' own seed.
        corpus_seed: u64,
        /// Which site, and what happens to it.
        disruption: Disruption,
        /// Restore the site's original handler instead.
        revert: bool,
    },
}

impl WorldChange {
    fn apply(&self, net: &mut Network) {
        match self {
            WorldChange::HotspotBackground(level) => {
                if let Some(topo) = net.topology_mut() {
                    topo.set_hotspot_background(*level);
                }
            }
            WorldChange::Disruption {
                corpus,
                corpus_seed,
                disruption,
                revert,
            } => {
                let Ok(corpus) = Corpus::generate(corpus, &mut SimRng::new(*corpus_seed)) else {
                    return;
                };
                if *revert {
                    disruption.revert(&corpus, net);
                } else {
                    disruption.apply(&corpus, net);
                }
            }
        }
    }
}

/// Which arrival process a world runs — the traffic half of a
/// [`WorldRecipe`]. The mode decides only when visitors arrive; what a
/// run keeps of them is the recipe's [`Retain`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RunMode {
    /// Poisson arrivals at every origin over a fixed span
    /// ([`WorldRecipe::deployment`]).
    Deployment(DeploymentConfig),
    /// A fixed number of self-scheduling arrivals
    /// ([`WorldRecipe::batch`]).
    Batch(BatchConfig),
}

/// What a world keeps of each visit beyond the counters every run
/// tallies ([`BatchReport`]) — a recipe field
/// ([`WorldRecipe::retain_visits`]), set by a caller that reads
/// per-visit rows and never implied by the arrival mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Retain {
    /// Nothing: [`WorldOutcome::log`] stays empty and memory stays flat
    /// in the visit count. The default.
    #[default]
    None,
    /// A [`VisitRecord`] per visit, in arrival order — the per-visit
    /// view of the §6.2 analytics study ([`crate::Analytics::from_visits`]).
    Full,
}

/// Everything a finished world run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldOutcome {
    /// Chronological per-visit records — empty unless the recipe said
    /// [`Retain::Full`].
    pub log: Vec<VisitRecord>,
    /// Aggregate counters (both modes).
    pub report: BatchReport,
    /// Periodic rollups, in firing order
    /// ([`crate::analytics::RollupSeries`]: stable serialized form,
    /// associative merge).
    pub rollups: RollupSeries,
    /// How many policy-timeline changes actually mutated the world
    /// (a lift addressed to a name that was never installed is a no-op
    /// and is not counted).
    pub policy_changes_applied: usize,
    /// How many scheduled censor control signals a middlebox understood
    /// and applied (signals addressed to an uninstalled name, unknown
    /// vocabulary, or a no-op transition are not counted).
    pub control_signals_applied: usize,
    /// Streaming-mode summary — the collection server's drop and
    /// acceptance accounting. `None` in exact mode.
    pub streaming: Option<StreamSummary>,
}

/// Opt-in streaming analytics for a world run — the recipe half of the
/// constant-memory pipeline. The collection server trades its unbounded
/// record log for a count-min sketch, a bounded reservoir sample, and
/// per-window count matrices ([`encore::streaming`]). The rollup series
/// is the same in both modes: a rollup is three counters, so a 90-day
/// run's whole daily series is about 2 KiB and every point is kept.
///
/// Each shard's reservoir draws priorities from its own forked RNG
/// stream; reservoir merge is a union, so per-shard streams are fine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingSpec {
    /// Collection-side knobs: detection window, sketch dimensions,
    /// reservoir capacity, ingest-queue bounds. The window should equal
    /// the rollup cadence so windows close exactly as rollups fire.
    pub config: encore::streaming::StreamingConfig,
}

impl StreamingSpec {
    /// Seed defining the sketch hash functions. It must be identical
    /// for shard sketches to merge; a constant is shard-invariant by
    /// construction.
    pub const SKETCH_SEED: u64 = 0x5EED_5EED;

    /// A spec whose analytics window matches the given rollup cadence,
    /// with default sketch/reservoir/queue parameters.
    pub fn with_window(window: SimDuration) -> StreamingSpec {
        StreamingSpec {
            config: encore::streaming::StreamingConfig::with_window(window),
        }
    }
}

/// A plain-data description of an entire world run: the arrival process
/// plus every scheduled dynamic — the policy timeline, censor reactions,
/// world changes, maintenance ticks, and rollup cadence.
///
/// One recipe drives both execution paths: [`WorldEngine::from_recipe`]
/// executes it serially, and [`crate::transport::ThreadTransport`]
/// executes it on N OS threads by broadcasting the *control* half
/// verbatim to every shard while thinning the *arrival* half 1/N
/// ([`crate::shard::shard_recipe`]). The firing order at a shared
/// instant is canonical — timeline, then censor reactions, then world
/// changes, then maintenance, then rollups, each in insertion order, all
/// before any traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldRecipe {
    pub(crate) mode: RunMode,
    pub(crate) timeline: PolicyTimeline,
    pub(crate) reactions: Vec<ReactionPolicy>,
    pub(crate) changes: Vec<(SimTime, WorldChange)>,
    pub(crate) maintenance: Option<SimDuration>,
    pub(crate) rollups: Option<SimDuration>,
    pub(crate) streaming: Option<StreamingSpec>,
    pub(crate) retain: Retain,
}

impl WorldRecipe {
    fn new(mode: RunMode) -> WorldRecipe {
        WorldRecipe {
            mode,
            timeline: PolicyTimeline::new(),
            reactions: Vec::new(),
            changes: Vec::new(),
            maintenance: None,
            rollups: None,
            streaming: None,
            retain: Retain::None,
        }
    }

    /// A deployment-mode recipe (Poisson arrivals at every origin).
    pub fn deployment(config: DeploymentConfig) -> WorldRecipe {
        WorldRecipe::new(RunMode::Deployment(config))
    }

    /// A batch-mode recipe (a fixed visit count).
    pub fn batch(config: BatchConfig) -> WorldRecipe {
        WorldRecipe::new(RunMode::Batch(config))
    }

    /// The scheduled policy timeline (control plane).
    pub fn timeline(&self) -> &PolicyTimeline {
        &self.timeline
    }

    /// Builder: set the policy timeline.
    pub fn with_timeline(mut self, timeline: PolicyTimeline) -> WorldRecipe {
        self.timeline = timeline;
        self
    }

    /// Every scheduled reaction step with the censor it addresses, in
    /// the order [`WorldEvent::CensorSignal`] indexes them.
    fn reaction_steps(&self) -> impl Iterator<Item = (&str, SimTime, &Reaction)> {
        self.reactions.iter().flat_map(|policy| {
            let steps = policy.steps().iter();
            steps.map(move |(at, reaction)| (policy.censor.as_str(), *at, reaction))
        })
    }

    /// Builder: append an adaptive-censor reaction policy. Like the
    /// policy timeline, reactions are control events: sharded runs
    /// broadcast them verbatim to every shard, which is what keeps
    /// *scheduled* adaptive censors verdict-invariant across shard
    /// counts.
    pub fn with_reaction(mut self, policy: ReactionPolicy) -> WorldRecipe {
        self.reactions.push(policy);
        self
    }

    /// Builder: schedule a [`WorldChange`] at `at`. Changes fire in
    /// insertion order at equal times.
    pub fn change_at(mut self, at: SimTime, change: WorldChange) -> WorldRecipe {
        self.changes.push((at, change));
        self
    }

    /// Builder: run session maintenance every `period` — expired DNS
    /// entries and dead keep-alive connections are pruned from every
    /// pooled client. Behaviour-neutral (the fetch path never serves
    /// expired state); keeps month-long worlds' memory bounded.
    pub fn with_maintenance(mut self, period: SimDuration) -> WorldRecipe {
        self.maintenance = Some(period);
        self
    }

    /// Builder: take a collection rollup every `period` — progress
    /// snapshots a longitudinal experiment reads instead of re-scanning
    /// the collection store per window.
    pub fn with_rollups(mut self, period: SimDuration) -> WorldRecipe {
        self.rollups = Some(period);
        self
    }

    /// Why this recipe cannot run, if it cannot: a zero maintenance or
    /// rollup period would reschedule its tick at one instant forever.
    /// A recipe decoded from a worker's SPEC frame is checked here before
    /// it runs; [`WorldEngine::from_recipe`] panics on what this rejects.
    pub(crate) fn check(&self) -> Result<(), String> {
        if self.maintenance == Some(SimDuration::ZERO) {
            return Err("maintenance period must be > 0".to_string());
        }
        if self.rollups == Some(SimDuration::ZERO) {
            return Err("rollup period must be > 0".to_string());
        }
        Ok(())
    }

    /// The streaming-analytics spec, if this recipe opts in.
    pub fn streaming(&self) -> Option<&StreamingSpec> {
        self.streaming.as_ref()
    }

    /// Builder: run with constant-memory streaming analytics. Also sets
    /// the rollup cadence to the spec's window if no cadence was chosen
    /// yet — streaming windows close as rollups fire, so a streaming run
    /// without rollups would only fold at the very end.
    pub fn with_streaming(mut self, spec: StreamingSpec) -> WorldRecipe {
        if self.rollups.is_none() {
            self.rollups = Some(spec.config.window);
        }
        self.streaming = Some(spec);
        self
    }

    /// Builder: keep `retain` of every visit ([`Retain::None`] unless
    /// set). Retention never touches the visit streams: a
    /// [`Retain::Full`] run equals its [`Retain::None`] twin in
    /// everything but [`WorldOutcome::log`].
    pub fn retain_visits(mut self, retain: Retain) -> WorldRecipe {
        self.retain = retain;
        self
    }
}

/// Mode-specific driver state; what both modes share — the origin
/// snapshot, the two RNG forks, the client pool — lives on the engine.
enum Mode {
    Deployment {
        config: DeploymentConfig,
        /// One per origin, by origin index; `None` for an origin that
        /// draws no traffic.
        streams: Vec<Option<ArrivalStream>>,
    },
    Batch {
        config: BatchConfig,
        weights: Vec<f64>,
        gap: Exponential,
    },
}

/// One origin's Poisson arrival process in deployment mode, drawn as
/// its arrivals fire: the engine's arrival RNG as it stood where this
/// origin's draws begin, the origin's gap law, its last arrival time,
/// and the queue sequence numbers reserved for the arrivals still to
/// come.
struct ArrivalStream {
    rng: SimRng,
    gap: Exponential,
    at: SimTime,
    next_seq: u64,
    left: u64,
}

impl ArrivalStream {
    /// The arrival after `at`: one exponential gap, drawn in seconds.
    fn after(at: SimTime, gap: &Exponential, rng: &mut SimRng) -> SimTime {
        at + SimDuration::from_millis_f64(gap.sample(rng) * 1_000.0)
    }

    /// Count the arrivals `rng` draws before `horizon` — advancing it
    /// past them exactly as drawing them for the queue would — and
    /// return the stream that draws them again, one at a time, under
    /// sequence numbers reserved on `queue` now.
    fn count(
        rng: &mut SimRng,
        gap: Exponential,
        horizon: SimDuration,
        queue: &mut EventQueue<WorldEvent>,
    ) -> ArrivalStream {
        let start = rng.clone();
        let (mut at, mut left) = (SimTime::ZERO, 0);
        loop {
            at = ArrivalStream::after(at, &gap, rng);
            if at.since(SimTime::ZERO) >= horizon {
                break;
            }
            left += 1;
        }
        ArrivalStream {
            rng: start,
            gap,
            at: SimTime::ZERO,
            next_seq: queue.reserve(left),
            left,
        }
    }

    /// Queue this stream's next arrival, if any remain.
    fn queue_next(&mut self, queue: &mut EventQueue<WorldEvent>, origin_index: usize) {
        if self.left == 0 {
            return;
        }
        self.at = ArrivalStream::after(self.at, &self.gap, &mut self.rng);
        let event = WorldEvent::DeploymentArrival { origin_index };
        queue.schedule_reserved(self.at, self.next_seq, event);
        self.next_seq += 1;
        self.left -= 1;
    }
}

/// The event-driven world: one network, one Encore deployment, one
/// audience, the [`WorldRecipe`] being executed, and a queue of
/// everything that will happen to them.
///
/// [`WorldEngine::from_recipe`] followed by [`WorldEngine::run`] is the
/// only way in — deployment mode ([`WorldRecipe::deployment`], the §6.2
/// Poisson pilot) or batch mode ([`WorldRecipe::batch`], the throughput
/// driver), with every scheduled dynamic read from the borrowed recipe
/// as its event fires, and a visit log only if the recipe says
/// [`Retain::Full`]. `population::shard` runs one engine per shard: the
/// builder-supplied `Network`/`EncoreSystem` and split RNG streams drop
/// straight in.
pub struct WorldEngine<'a> {
    net: &'a mut Network,
    system: &'a mut EncoreSystem,
    audience: &'a Audience,
    recipe: &'a WorldRecipe,
    queue: EventQueue<WorldEvent>,
    mode: Mode,
    /// `system.origins` as it stood at construction: the arrival plan is
    /// fixed at run start, and a visit borrows its origin from here.
    origins: Vec<OriginSite>,
    arrivals_rng: SimRng,
    visitor_rng: SimRng,
    /// Warm-session clients: deployment's returning visitors, batch's
    /// bounded pool.
    pool: Vec<BrowserClient>,
    policy_applied: usize,
    signals_applied: usize,
    rollups: Vec<Rollup>,
    report: BatchReport,
    /// The visit log: `Some` only under [`Retain::Full`].
    log: Option<Vec<VisitRecord>>,
    /// Arrivals not yet fired, queued or still to be drawn; periodic
    /// events stop rescheduling once traffic is exhausted, which is what
    /// terminates the run.
    arrivals_pending: u64,
}

impl<'a> WorldEngine<'a> {
    /// Bind a [`WorldRecipe`] to a concrete world: construct the engine
    /// in the recipe's mode and queue the recipe's control events in the
    /// canonical order — timeline, censor reactions, world changes,
    /// maintenance, rollups; [`run`](Self::run)
    /// queues the traffic after them. The queue breaks same-instant ties
    /// by insertion order, so that order *is* the firing order at a
    /// shared instant, and `tests/world_shard_equivalence.rs` holds
    /// a one-shard `ThreadTransport` run to exactly this serial run.
    ///
    /// A control signal no middlebox understands is a counted-nowhere
    /// no-op, the reactive analogue of lifting an uninstalled censor.
    ///
    /// `rng.fork` is a pure derivation (it consumes no parent state), so
    /// a streaming recipe's reservoir fork never perturbs the exact-mode
    /// visit streams.
    pub fn from_recipe(
        net: &'a mut Network,
        system: &'a mut EncoreSystem,
        audience: &'a Audience,
        recipe: &'a WorldRecipe,
        rng: &mut SimRng,
    ) -> WorldEngine<'a> {
        let origins = system.origins.clone();
        let (arrivals_rng, visitor_rng, mode) = match recipe.mode {
            RunMode::Deployment(config) => (
                rng.fork("deployment-arrivals"),
                rng.fork("deployment-visitors"),
                Mode::Deployment {
                    config,
                    streams: Vec::new(),
                },
            ),
            RunMode::Batch(config) => (
                rng.fork("batch-arrivals"),
                rng.fork("batch-visitors"),
                Mode::Batch {
                    config,
                    weights: origins.iter().map(|o| o.popularity_weight).collect(),
                    gap: Exponential::from_mean(config.mean_gap.as_millis_f64()),
                },
            ),
        };
        let mut queue = EventQueue::new();
        for (index, (at, _)) in recipe.timeline.entries().iter().enumerate() {
            queue.schedule(*at, WorldEvent::PolicyChange { index });
        }
        for (index, (_, at, _)) in recipe.reaction_steps().enumerate() {
            queue.schedule(at, WorldEvent::CensorSignal { index });
        }
        for (index, (at, _)) in recipe.changes.iter().enumerate() {
            queue.schedule(*at, WorldEvent::Mutation { index });
        }
        if let Err(why) = recipe.check() {
            panic!("{why}");
        }
        if let Some(period) = recipe.maintenance {
            queue.schedule(
                SimTime::ZERO + period,
                WorldEvent::MaintenanceTick { period },
            );
        }
        if let Some(period) = recipe.rollups {
            queue.schedule(
                SimTime::ZERO + period,
                WorldEvent::CollectionRollup { period },
            );
        }
        if let Some(spec) = &recipe.streaming {
            system.collection.enable_streaming(
                &spec.config,
                StreamingSpec::SKETCH_SEED,
                rng.fork("streaming-reservoir"),
            );
        }
        WorldEngine {
            net,
            system,
            audience,
            recipe,
            queue,
            mode,
            origins,
            arrivals_rng,
            visitor_rng,
            pool: Vec::new(),
            policy_applied: 0,
            signals_applied: 0,
            rollups: Vec::new(),
            report: BatchReport::default(),
            log: (recipe.retain == Retain::Full).then(Vec::new),
            arrivals_pending: 0,
        }
    }

    /// Drain the queue: run the world to completion and return what it
    /// produced.
    pub fn run(mut self) -> WorldOutcome {
        self.schedule_arrivals();
        while let Some((now, event)) = self.queue.pop() {
            match event {
                WorldEvent::DeploymentArrival { origin_index } => {
                    self.arrivals_pending -= 1;
                    self.on_deployment_arrival(now, origin_index);
                }
                WorldEvent::BatchArrival { seq } => {
                    self.arrivals_pending -= 1;
                    self.on_batch_arrival(now, seq);
                }
                WorldEvent::PolicyChange { index } => {
                    if self.recipe.timeline.entries()[index].1.apply(self.net) {
                        self.policy_applied += 1;
                    }
                }
                WorldEvent::CensorSignal { index } => {
                    let (censor, _, reaction) = self
                        .recipe
                        .reaction_steps()
                        .nth(index)
                        .expect("queued from this recipe");
                    if self.net.signal_middlebox(censor, &reaction.signal(), now) {
                        self.signals_applied += 1;
                    }
                }
                WorldEvent::Mutation { index } => self.recipe.changes[index].1.apply(self.net),
                WorldEvent::MaintenanceTick { period } => {
                    for client in &mut self.pool {
                        client.session.prune_expired(now);
                    }
                    if self.arrivals_pending > 0 {
                        self.queue
                            .schedule(now + period, WorldEvent::MaintenanceTick { period });
                    }
                }
                WorldEvent::CollectionRollup { period } => {
                    // Streaming mode folds as time advances: every
                    // analytics window that closed before this rollup is
                    // reduced to its count matrix now, so peak resident
                    // collection state stays O(open window), not O(run).
                    if self.recipe.streaming.is_some() {
                        let alloc = &self.net.allocator;
                        self.system
                            .collection
                            .close_windows(now, |ip| alloc.country_of(ip));
                    }
                    self.rollups.push(Rollup {
                        at: now,
                        visits: self.report.visits,
                        collected: self.system.collection.len(),
                    });
                    if self.arrivals_pending > 0 {
                        self.queue
                            .schedule(now + period, WorldEvent::CollectionRollup { period });
                    }
                }
            }
        }
        self.finish()
    }

    /// Enqueue the traffic. Runs after all configuration events so that
    /// same-instant ties resolve configuration-first.
    fn schedule_arrivals(&mut self) {
        match &mut self.mode {
            Mode::Deployment {
                config, streams, ..
            } => {
                // Per-origin Poisson streams, their sequence numbers
                // reserved origin by origin: the queue's tie-break then
                // reproduces the legacy driver's (time, origin_index)
                // sort exactly, with one arrival per origin queued.
                for (idx, origin) in self.origins.iter().enumerate() {
                    let rate_per_day = config.visits_per_day_per_weight * origin.popularity_weight;
                    if rate_per_day <= 0.0 {
                        streams.push(None);
                        continue;
                    }
                    let gap = Exponential::from_mean(86_400.0 / rate_per_day);
                    let mut stream = ArrivalStream::count(
                        &mut self.arrivals_rng,
                        gap,
                        config.duration,
                        &mut self.queue,
                    );
                    self.arrivals_pending += stream.left;
                    stream.queue_next(&mut self.queue, idx);
                    streams.push(Some(stream));
                }
            }
            Mode::Batch { config, gap, .. } => {
                if config.visits > 0 {
                    let first = SimDuration::from_millis_f64(gap.sample(&mut self.arrivals_rng));
                    self.queue
                        .schedule(SimTime::ZERO + first, WorldEvent::BatchArrival { seq: 1 });
                    self.arrivals_pending += 1;
                }
            }
        }
    }

    fn on_deployment_arrival(&mut self, at: SimTime, origin_index: usize) {
        let Mode::Deployment { config, streams } = &mut self.mode else {
            unreachable!("deployment arrival fired in batch mode");
        };
        streams[origin_index]
            .as_mut()
            .expect("only an origin with a stream has arrivals")
            .queue_next(&mut self.queue, origin_index);
        execute_arrival(
            self.net,
            self.system,
            self.audience,
            &mut self.report,
            &mut self.log,
            &mut self.visitor_rng,
            &self.origins,
            origin_index,
            &mut self.pool,
            config.returning_pool,
            config.repeat_visitor_rate,
            at,
        );
        self.report.sim_span = at.since(SimTime::ZERO);
    }

    /// Run a *cohort* of batch arrivals. One queue pop lands here; the
    /// loop then executes consecutive arrivals inline for as long as no
    /// other scheduled event (policy change, censor signal, maintenance
    /// tick, …) is due first, yielding back to the queue — by scheduling
    /// `BatchArrival { seq + 1 }` exactly as the one-event-per-visit form
    /// did — the moment one is. Event interleaving, RNG draw order, and
    /// the simulated clock are byte-identical to popping the queue once
    /// per visit; only the per-visit heap traffic disappears.
    fn on_batch_arrival(&mut self, at: SimTime, seq: u64) {
        let Mode::Batch {
            config,
            weights,
            gap,
        } = &self.mode
        else {
            unreachable!("batch arrival fired in deployment mode");
        };
        let (mut at, mut seq) = (at, seq);
        loop {
            // The span covers every drawn gap, including a final arrival
            // that halts below — matching the legacy driver's clock.
            self.report.sim_span = at.since(SimTime::ZERO);

            let Some(origin_idx) = self.visitor_rng.pick_weighted(weights) else {
                // All origins weightless: nothing would ever be visited,
                // so the arrival process halts here.
                return;
            };
            execute_arrival(
                self.net,
                self.system,
                self.audience,
                &mut self.report,
                &mut self.log,
                &mut self.visitor_rng,
                &self.origins,
                origin_idx,
                &mut self.pool,
                config.client_pool,
                config.repeat_visitor_rate,
                at,
            );

            if seq >= config.visits {
                return;
            }
            let next = at + SimDuration::from_millis_f64(gap.sample(&mut self.arrivals_rng));
            match self.queue.peek_time() {
                // Another event fires at or before the next arrival:
                // yield so it interleaves exactly as before. (On a time
                // tie the other event was enqueued first and still wins
                // the queue's insertion-order tie-break.)
                Some(due) if due <= next => {
                    self.queue
                        .schedule(next, WorldEvent::BatchArrival { seq: seq + 1 });
                    self.arrivals_pending += 1;
                    return;
                }
                // Queue is quiet until `next`: run the arrival inline.
                _ => {
                    at = next;
                    seq += 1;
                }
            }
        }
    }

    fn finish(self) -> WorldOutcome {
        // Streaming mode: close every still-open analytics window (the
        // tail past the last rollup) before snapshotting.
        let streaming = self.recipe.streaming.is_some().then(|| {
            let alloc = &self.net.allocator;
            self.system
                .collection
                .close_all_windows(|ip| alloc.country_of(ip));
            StreamSummary {
                drops: self.system.collection.drops(),
                accepted: self.system.collection.len() as u64,
                ..StreamSummary::default()
            }
        });
        let mut report = self.report;
        for client in &self.pool {
            report.absorb_session(client);
        }
        WorldOutcome {
            log: self.log.unwrap_or_default(),
            report,
            rollups: RollupSeries(self.rollups),
            policy_changes_applied: self.policy_applied,
            control_signals_applied: self.signals_applied,
            streaming,
        }
    }
}

/// Execute one visit to `origins[origin_index]`: sample the visitor,
/// acquire a client (pooled returning visitor or a fresh browser), run
/// the Figure-2 flow, fold the classified outcome into the report,
/// append its [`VisitRecord`] to `log` if the run keeps one, and retire
/// the client into the bounded pool (banking its session stats on
/// eviction). Shared verbatim by both arrival handlers so the
/// acquire/run/retire accounting — and therefore the bit-equivalence
/// contract — can never diverge between modes, and so a visit is
/// logged in one place.
#[allow(clippy::too_many_arguments)]
fn execute_arrival(
    net: &mut Network,
    system: &mut EncoreSystem,
    audience: &Audience,
    report: &mut BatchReport,
    log: &mut Option<Vec<VisitRecord>>,
    visitor_rng: &mut SimRng,
    origins: &[OriginSite],
    origin_index: usize,
    pool: &mut Vec<BrowserClient>,
    pool_cap: usize,
    repeat_visitor_rate: f64,
    at: SimTime,
) {
    let visitor = audience.sample(visitor_rng);

    // Returning visitor with a warm cache, or a fresh client.
    let reuse = !pool.is_empty() && visitor_rng.chance(repeat_visitor_rate);
    let mut client = if reuse {
        report.clients_reused += 1;
        let idx = visitor_rng.index(pool.len());
        pool.swap_remove(idx)
    } else {
        report.clients_created += 1;
        BrowserClient::new(
            net,
            visitor.country,
            visitor.isp,
            visitor.engine,
            visitor_rng,
        )
    };

    let ua = visitor.user_agent(client.engine);
    let effective_dwell = visitor.effective_dwell(visitor_rng);
    let origin = &origins[origin_index];
    let outcome = system.run_visit(net, &mut client, origin, effective_dwell, at, ua);
    report.record_visit(&tally_outcome(&outcome));
    if let Some(log) = log {
        log.push(VisitRecord {
            at,
            origin_index,
            country: client.host.country,
            dwell: visitor.dwell,
            is_crawler: visitor.is_crawler,
            outcome,
        });
    }

    if pool.len() < pool_cap {
        pool.push(client);
    } else {
        // Evicted client: bank its session statistics before dropping.
        report.absorb_session(&client);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::analytics::RollupFold;
    use censor::policy::{CensorPolicy, Mechanism};
    use censor::timeline::{CensorSpec, PolicyChange};
    use encore::coordination::SchedulingStrategy;
    use encore::tasks::{MeasurementId, MeasurementTask, TaskSpec};
    use netsim::geo::{country, World};
    use netsim::http::{ContentType, HttpRequest, HttpResponse};
    use netsim::network::ConstHandler;

    /// An ideal network with `target.example` serving a 400-byte image,
    /// one favicon task on it, and the academic origin `prof.example`,
    /// scheduled round-robin from the US.
    pub(crate) fn deployment_world() -> (Network, EncoreSystem) {
        let mut net = Network::ideal(World::builtin());
        net.add_server(
            "target.example",
            country("US"),
            Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 400))),
        );
        deploy_measuring(net, "target.example")
    }

    /// Seed of [`small_corpus`].
    const CORPUS_SEED: u64 = 0xC0_4905;

    fn small_corpus() -> Corpus {
        Corpus::generate(&CorpusConfig::small(), &mut SimRng::new(CORPUS_SEED))
            .expect("small config is valid")
    }

    /// A flat world serving [`small_corpus`], measuring its rank-1
    /// site's favicon — the site [`outage`] disrupts.
    fn corpus_world() -> (Network, EncoreSystem) {
        let corpus = small_corpus();
        let mut net = Network::ideal(World::builtin());
        corpus.install(&mut net, &mut SimRng::new(CORPUS_SEED ^ 1));
        deploy_measuring(net, corpus.domain(1))
    }

    /// An origin outage of rank-`site` of the corpus `config` generates,
    /// over days `[2, 4)` of a [`week`]: the apply and revert changes.
    fn outage(config: CorpusConfig, site: usize) -> [(SimTime, WorldChange); 2] {
        let disruption = Disruption {
            day: 2,
            duration_days: 2,
            site,
            kind: websim::corpus::DisruptionKind::OriginOutage,
        };
        [(2, false), (4, true)].map(|(day, revert)| {
            let change = WorldChange::Disruption {
                corpus: config.clone(),
                corpus_seed: CORPUS_SEED,
                disruption,
                revert,
            };
            (SimTime::from_secs(day * 86_400), change)
        })
    }

    /// `recipe` with `changes` scheduled.
    fn with_changes(
        recipe: WorldRecipe,
        changes: impl IntoIterator<Item = (SimTime, WorldChange)>,
    ) -> WorldRecipe {
        changes
            .into_iter()
            .fold(recipe, |recipe, (at, change)| recipe.change_at(at, change))
    }

    /// Deploy Encore on `net` with one image task: `domain`'s favicon.
    pub(crate) fn deploy_measuring(mut net: Network, domain: &str) -> (Network, EncoreSystem) {
        let tasks = vec![MeasurementTask {
            id: MeasurementId(0),
            spec: TaskSpec::Image {
                url: format!("http://{domain}/favicon.ico"),
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

    /// A week of deployment at 30 visits per day per unit of weight.
    pub(crate) fn week() -> DeploymentConfig {
        DeploymentConfig {
            duration: SimDuration::from_days(7),
            visits_per_day_per_weight: 30.0,
            ..DeploymentConfig::default()
        }
    }

    /// A deployment recipe over `config` that keeps every visit.
    pub(crate) fn logged(config: DeploymentConfig) -> WorldRecipe {
        WorldRecipe::deployment(config).retain_visits(Retain::Full)
    }

    /// Run `recipe` on `world` with the academic audience under `seed`.
    fn run_on(
        world: &mut (Network, EncoreSystem),
        recipe: &WorldRecipe,
        seed: u64,
    ) -> WorldOutcome {
        let (net, sys) = world;
        let mut rng = SimRng::new(seed);
        WorldEngine::from_recipe(net, sys, &Audience::academic(), recipe, &mut rng).run()
    }

    /// Run `recipe` on a fresh [`deployment_world`].
    fn run_fresh(recipe: &WorldRecipe, seed: u64) -> WorldOutcome {
        run_on(&mut deployment_world(), recipe, seed)
    }

    /// Days (since run start) of `out`'s visits whose task failed.
    fn failed_days(out: &WorldOutcome) -> Vec<u64> {
        let failed = out
            .log
            .iter()
            .filter(|v| tally_outcome(&v.outcome).tasks_failed > 0);
        failed.map(|v| v.at.as_secs() / 86_400).collect()
    }

    #[test]
    fn neutral_events_do_not_perturb_the_visit_stream() {
        let base = run_fresh(&logged(week()), 0xABBA).log;
        // No topology to brown out: the change is a no-op.
        let noisy = logged(week())
            .change_at(
                SimTime::from_secs(1_000),
                WorldChange::HotspotBackground(0.9),
            )
            .with_maintenance(SimDuration::from_secs(3_600))
            .with_rollups(SimDuration::from_days(1));
        let with_noise = run_fresh(&noisy, 0xABBA).log;
        assert_eq!(
            base, with_noise,
            "maintenance/rollup/no-op events must be RNG- and behaviour-neutral"
        );
    }

    /// Retention taps the visit stream and changes nothing else, in
    /// either arrival mode: a [`Retain::Full`] run logs every visit the
    /// report counts, in arrival order, and its [`Retain::None`] twin
    /// is the same outcome with an empty log.
    #[test]
    fn retention_is_a_tap_on_either_arrival_mode() {
        let batch = WorldRecipe::batch(BatchConfig {
            visits: 300,
            ..BatchConfig::default()
        });
        for recipe in [WorldRecipe::deployment(week()), batch] {
            let recipe = recipe.with_rollups(SimDuration::from_days(1));
            let full = run_fresh(&recipe.clone().retain_visits(Retain::Full), 0x7A9);
            assert_eq!(full.log.len() as u64, full.report.visits, "{recipe:?}");
            assert!(full.log.windows(2).all(|w| w[0].at <= w[1].at));
            let none = run_fresh(&recipe, 0x7A9);
            assert_eq!(
                none,
                WorldOutcome {
                    log: Vec::new(),
                    ..full
                },
                "{recipe:?}"
            );
        }
    }

    #[test]
    fn rollups_fire_periodically_and_monotonically() {
        let recipe = WorldRecipe::deployment(week()).with_rollups(SimDuration::from_days(1));
        let out = run_fresh(&recipe, 7);
        assert!(out.rollups.len() >= 6, "rollups: {}", out.rollups.len());
        for w in out.rollups.windows(2) {
            assert!(w[0].at < w[1].at);
            assert!(w[0].visits <= w[1].visits);
            assert!(w[0].collected <= w[1].collected);
        }
        let last = out.rollups.last().unwrap();
        assert!(last.visits <= out.report.visits);
    }

    #[test]
    fn deployment_report_tallies_match_the_log() {
        let out = run_fresh(&logged(week()), 0x11);
        assert_eq!(out.report.visits as usize, out.log.len());
        let origin_loads = out.log.iter().filter(|v| v.outcome.origin_loaded).count();
        assert_eq!(out.report.origin_loads as usize, origin_loads);
        assert_eq!(
            out.report.clients_created + out.report.clients_reused,
            out.report.visits
        );
        assert_eq!(
            out.report.sim_span,
            out.log.last().unwrap().at.since(SimTime::ZERO)
        );
    }

    #[test]
    fn timeline_events_toggle_censorship_mid_run() {
        let run = |with_block: bool| {
            let mut recipe = logged(week());
            if with_block {
                let spec = CensorSpec::new(
                    country("US"),
                    CensorPolicy::named("mid-run-block")
                        .block_domain("target.example", Mechanism::DnsNxDomain),
                );
                recipe = recipe.with_timeline(
                    PolicyTimeline::new()
                        .at(SimTime::from_secs(2 * 86_400), PolicyChange::Install(spec))
                        .at(
                            SimTime::from_secs(5 * 86_400),
                            PolicyChange::Lift {
                                name: "mid-run-block".into(),
                            },
                        ),
                );
            }
            run_fresh(&recipe, 0x70 + u64::from(with_block))
        };
        let blocked = run(true);
        assert_eq!(blocked.policy_changes_applied, 2);
        let failed_mid = blocked
            .log
            .iter()
            .filter(|v| {
                let day = v.at.as_secs() / 86_400;
                (2..5).contains(&day) && tally_outcome(&v.outcome).tasks_failed > 0
            })
            .count();
        assert!(failed_mid > 5, "block window saw {failed_mid} failures");
        // Outside the window the target stays reachable.
        let failed_outside = blocked
            .log
            .iter()
            .filter(|v| {
                let day = v.at.as_secs() / 86_400;
                !(2..6).contains(&day) && tally_outcome(&v.outcome).tasks_failed > 0
            })
            .count();
        assert_eq!(failed_outside, 0, "failures outside the block window");

        let open = run(false);
        assert_eq!(open.policy_changes_applied, 0);
        assert!(open
            .log
            .iter()
            .all(|v| tally_outcome(&v.outcome).tasks_failed == 0));
    }

    #[test]
    fn reaction_events_drive_adaptive_censors() {
        use censor::adaptive::{AdaptiveSpec, Stage};
        let run = |with_reactions: bool| {
            let (mut net, mut sys) = deployment_world();
            // A standing adaptive censor, watching the measurement
            // target from its passive rung.
            let spec = AdaptiveSpec::new(
                "us-adaptive",
                country("US"),
                vec!["target.example".to_string()],
            );
            net.add_middlebox(Box::new(spec.build(&net.dns)));
            let audience = Audience::academic();
            let mut rng = SimRng::new(0x5160 + u64::from(with_reactions));
            let mut recipe = logged(week());
            if with_reactions {
                recipe = recipe.with_reaction(
                    ReactionPolicy::new("us-adaptive")
                        .at(
                            SimTime::from_secs(2 * 86_400),
                            Reaction::SetStage(Stage::IpBlock),
                        )
                        .at(SimTime::from_secs(5 * 86_400), Reaction::StandDown),
                );
            }
            WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng).run()
        };

        let reactive = run(true);
        assert_eq!(reactive.control_signals_applied, 2);
        let failed_mid = reactive
            .log
            .iter()
            .filter(|v| {
                let day = v.at.as_secs() / 86_400;
                (2..5).contains(&day) && tally_outcome(&v.outcome).tasks_failed > 0
            })
            .count();
        assert!(failed_mid > 5, "IP-block window saw {failed_mid} failures");
        let failed_outside = reactive
            .log
            .iter()
            .filter(|v| {
                let day = v.at.as_secs() / 86_400;
                !(2..5).contains(&day) && tally_outcome(&v.outcome).tasks_failed > 0
            })
            .count();
        assert_eq!(failed_outside, 0, "failures outside the reaction window");

        let passive = run(false);
        assert_eq!(passive.control_signals_applied, 0);
        assert!(passive
            .log
            .iter()
            .all(|v| tally_outcome(&v.outcome).tasks_failed == 0));
    }

    #[test]
    fn signals_to_unknown_or_stateless_middleboxes_are_uncounted_noops() {
        let (mut net, mut sys) = deployment_world();
        let audience = Audience::academic();
        let mut rng = SimRng::new(0xD0);
        let recipe = logged(week())
            // Addressed to a name that is never installed…
            .with_reaction(
                ReactionPolicy::new("nobody-home").at(SimTime::from_secs(100), Reaction::Escalate),
            );
        let out = WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng).run();
        assert_eq!(out.control_signals_applied, 0);
        assert!(out
            .log
            .iter()
            .all(|v| tally_outcome(&v.outcome).tasks_failed == 0));
    }

    #[test]
    fn disruption_change_404s_the_site_and_its_revert_restores_it() {
        let recipe = with_changes(logged(week()), outage(CorpusConfig::small(), 1));
        let mut world = corpus_world();
        let out = run_on(&mut world, &recipe, 0x31);
        let failed = failed_days(&out);
        assert!(failed.len() > 5, "outage saw {} failures", failed.len());
        assert!(
            failed.iter().all(|day| (2..4).contains(day)),
            "failures outside the outage: {failed:?}"
        );
        assert!(out.log.iter().any(|v| v.at.as_secs() >= 4 * 86_400));

        // Fire each change by hand on the finished world: the outage
        // answers 404 at the origin, the revert serves the site again.
        let (net, _) = &mut world;
        let req = HttpRequest::get(format!("http://{}/favicon.ico", small_corpus().domain(1)));
        let client = net.add_client(country("DE"), netsim::geo::IspClass::Residential);
        for ((_, change), status) in outage(CorpusConfig::small(), 1).iter().zip([404, 200]) {
            change.apply(net);
            let out = net.fetch(&client, &req, SimTime::ZERO, &mut SimRng::new(1));
            assert_eq!(out.result.expect("origin answers").status.0, status);
        }
    }

    #[test]
    fn changes_that_cannot_apply_are_noops() {
        let bare = run_on(&mut corpus_world(), &logged(week()), 0x0D).log;
        let no_domains = CorpusConfig {
            web: websim::generator::WebConfig {
                num_domains: 0,
                ..CorpusConfig::small().web
            },
            ..CorpusConfig::small()
        };
        let cases: Vec<Vec<(SimTime, WorldChange)>> = vec![
            // A flat world has no hotspot to set, at any level.
            [0.0, -1.0, f64::NAN]
                .map(|level| {
                    (
                        SimTime::from_secs(86_400),
                        WorldChange::HotspotBackground(level),
                    )
                })
                .to_vec(),
            // The corpus has no rank-99 site.
            outage(CorpusConfig::small(), 99).to_vec(),
            // `Corpus::generate` rejects the config.
            outage(no_domains, 1).to_vec(),
        ];
        for changes in cases {
            let recipe = with_changes(logged(week()), changes.clone());
            let log = run_on(&mut corpus_world(), &recipe, 0x0D).log;
            assert_eq!(log, bare, "{changes:?} changed the run");
        }
    }

    /// Arrivals drawn as they fire replay the schedule of drawing them
    /// all up front: on a 3-origin world with unequal weights, the log's
    /// `(at, origin_index)` sequence is a test-local eager reference —
    /// each origin's stream drawn in turn off the same fork, then
    /// stable-sorted by time — while the queue never held more than one
    /// arrival per origin beside the control events.
    #[test]
    fn deployment_arrivals_match_an_eager_reference() {
        let weights = [3.0, 1.0, 0.5];
        let config = week();
        let world = || {
            let mut net = Network::ideal(World::builtin());
            let origins = weights.iter().enumerate().map(|(i, &w)| {
                OriginSite::academic(format!("origin-{i}.example")).with_popularity(w)
            });
            let sys = EncoreSystem::deploy(
                &mut net,
                Vec::new(),
                SchedulingStrategy::RoundRobin,
                origins.collect(),
                country("US"),
            );
            (net, sys)
        };
        let recipe = logged(config)
            .with_maintenance(SimDuration::from_secs(3_600))
            .with_rollups(SimDuration::from_days(1));
        let seed = 0xA11;

        let mut arrivals = SimRng::new(seed).fork("deployment-arrivals");
        let mut eager = Vec::new();
        for (origin_index, w) in weights.iter().enumerate() {
            let gap = Exponential::from_mean(86_400.0 / (config.visits_per_day_per_weight * w));
            let mut at = SimTime::ZERO;
            loop {
                at += SimDuration::from_millis_f64(gap.sample(&mut arrivals) * 1_000.0);
                if at.since(SimTime::ZERO) >= config.duration {
                    break;
                }
                eager.push((at, origin_index));
            }
        }
        eager.sort_by_key(|&(at, _)| at);

        let audience = Audience::academic();
        let (mut net, mut sys) = world();
        let mut rng = SimRng::new(seed);
        let mut engine = WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng);
        let controls = engine.queue.len();
        engine.schedule_arrivals();
        assert!(
            engine.queue.len() <= weights.len() + controls,
            "{} events queued for {} origins and {controls} control events",
            engine.queue.len(),
            weights.len()
        );
        assert_eq!(engine.arrivals_pending, eager.len() as u64);

        let mut world = world();
        let out = run_on(&mut world, &recipe, seed);
        let log: Vec<(SimTime, usize)> = out.log.iter().map(|v| (v.at, v.origin_index)).collect();
        assert!(log.len() > 300, "{} arrivals", log.len());
        assert_eq!(log, eager);
    }

    #[test]
    fn world_event_stays_two_words() {
        // Every queued event is one heap entry (see `WorldEvent`).
        assert_eq!(std::mem::size_of::<WorldEvent>(), 16);
    }

    #[test]
    fn recipe_is_thread_shareable() {
        fn check<T: Send + Sync + Clone>() {}
        check::<WorldRecipe>();
        check::<RunMode>();
    }

    #[test]
    fn same_instant_events_fire_in_the_canonical_order() {
        // Everything a recipe queues, in the order the run loop pops it.
        let queued = |recipe: &WorldRecipe| {
            let (mut net, mut sys) = deployment_world();
            let audience = Audience::academic();
            let mut rng = SimRng::new(0xC0FFEE);
            let mut engine =
                WorldEngine::from_recipe(&mut net, &mut sys, &audience, recipe, &mut rng);
            engine.schedule_arrivals();
            std::iter::from_fn(|| engine.queue.pop()).collect::<Vec<_>>()
        };
        // Arrival instants depend on the seed alone, so the bare run's
        // first arrival is where every control event is aimed.
        let at = queued(&WorldRecipe::deployment(week()))[0].0;
        let period = at.since(SimTime::ZERO);
        let lift = PolicyChange::Lift {
            name: "nobody-home".into(),
        };
        // Built back to front: the order is the engine's, not the builder's.
        let recipe = WorldRecipe::deployment(week())
            .with_rollups(period)
            .with_maintenance(period)
            .change_at(at, WorldChange::HotspotBackground(0.0))
            .with_reaction(ReactionPolicy::new("nobody-home").at(at, Reaction::Escalate))
            .with_timeline(PolicyTimeline::new().at(at, lift));
        let fired: Vec<String> = queued(&recipe)
            .iter()
            .take_while(|(when, _)| *when == at)
            .map(|(_, event)| format!("{event:?}"))
            .collect();
        let kinds: Vec<&str> = fired
            .iter()
            .map(|e| e.split(' ').next().expect("variant name"))
            .collect();
        assert_eq!(
            kinds,
            [
                "PolicyChange",
                "CensorSignal",
                "Mutation",
                "MaintenanceTick",
                "CollectionRollup",
                "DeploymentArrival",
            ]
        );
    }

    #[test]
    fn recipe_can_be_replayed_twice_from_one_description() {
        // A recipe is reusable (borrowed, never consumed): two fresh
        // worlds driven by the same recipe agree byte for byte.
        let recipe = with_changes(
            logged(week()).with_rollups(SimDuration::from_days(2)),
            outage(CorpusConfig::small(), 1),
        );
        let run = |recipe: &WorldRecipe| run_on(&mut corpus_world(), recipe, 7);
        assert_eq!(run(&recipe), run(&recipe));
    }

    #[test]
    fn recipe_read_back_from_bytes_runs_the_same_world() {
        let recipe = with_changes(
            logged(week()).with_rollups(SimDuration::from_days(1)),
            outage(CorpusConfig::small(), 1),
        );
        let json: WorldRecipe = serde_json::from_str(&serde_json::to_string(&recipe).unwrap())
            .expect("recipe JSON reads back");
        let bin: WorldRecipe =
            serde::bin::from_slice(&serde::bin::to_vec(&recipe)).expect("recipe bytes read back");
        assert_eq!(json, recipe);
        assert_eq!(bin, recipe);
        let run = |recipe: &WorldRecipe| run_on(&mut corpus_world(), recipe, 0xB17E);
        let original = run(&recipe);
        assert!(!failed_days(&original).is_empty(), "the outage bit");
        assert_eq!(run(&bin), original);
    }

    #[test]
    fn streaming_recipe_keeps_every_rollup_and_matches_exact() {
        // Two weeks of daily rollups.
        let fortnight = DeploymentConfig {
            duration: SimDuration::from_days(14),
            ..week()
        };
        let exact_recipe = logged(fortnight).with_rollups(SimDuration::from_days(1));
        // with_streaming inherits the spec's window as the rollup
        // cadence, so both runs roll up daily.
        let streaming_recipe =
            logged(fortnight).with_streaming(StreamingSpec::with_window(SimDuration::from_days(1)));
        let go = |recipe: &WorldRecipe| {
            let mut world = deployment_world();
            let out = run_on(&mut world, recipe, 0xFEED);
            (out, world.1.collection.len())
        };
        let (exact, exact_collected) = go(&exact_recipe);
        let (streamed, _) = go(&streaming_recipe);

        // Enabling streaming never perturbs the visit stream: same
        // arrivals, same outcomes, same report, byte for byte.
        assert_eq!(exact.log, streamed.log);
        assert_eq!(exact.report, streamed.report);

        // Both modes keep the one rollup series, point for point, and
        // nothing is folded away.
        let summary = streamed.streaming.expect("streaming summary present");
        assert!(exact.rollups.len() >= 12, "a fortnight of daily rollups");
        assert_eq!(streamed.rollups, exact.rollups);
        assert_eq!(summary.evicted, RollupFold::default());

        // This gentle world never sheds: every submission the exact
        // store logged was accepted by the streaming store.
        assert_eq!(summary.drops.total(), 0);
        assert_eq!(summary.accepted as usize, exact_collected);
        assert!(exact_collected > 0);

        // Exact mode carries no summary.
        assert_eq!(exact.streaming, None);
    }

    #[test]
    fn batch_mode_is_deterministic_under_housekeeping() {
        let go = |housekeeping: bool| {
            let mut recipe = WorldRecipe::batch(BatchConfig {
                visits: 500,
                ..BatchConfig::default()
            });
            if housekeeping {
                recipe = recipe
                    .with_maintenance(SimDuration::from_secs(600))
                    .with_rollups(SimDuration::from_secs(600));
            }
            let mut world = deployment_world();
            (
                run_on(&mut world, &recipe, 5).report,
                world.1.collection.len(),
            )
        };
        assert_eq!(go(false).0, go(true).0);
        assert_eq!(go(true), go(true));
    }
}

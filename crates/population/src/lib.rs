//! # population — client populations and deployment simulation
//!
//! Encore's vantage points are "the set of users who happen to visit a
//! Web site that has installed an Encore script" (paper §6.3). This crate
//! models that population and drives whole deployments:
//!
//! * [`audience`] — who visits an origin site: country mix, browser mix,
//!   access-network mix, dwell times, crawler fraction. Two calibrated
//!   audiences are provided: the §6.2 academic-homepage audience and a
//!   world audience for the §7 seven-month run.
//! * [`world`] — the discrete-event world engine: client arrivals,
//!   scheduled policy changes ([`censor::timeline::PolicyTimeline`]),
//!   censor reactions, world changes, session maintenance, and
//!   collection rollups are all events on one
//!   [`sim_core::queue::EventQueue`]. A whole run — arrivals plus
//!   control plane — is described as a plain-data
//!   [`world::WorldRecipe`], which
//!   [`world::WorldEngine::from_recipe`]`(..).run()` executes serially;
//!   sharded, [`transport::ShardTransport::run`] brings each shard's
//!   output from the one shard body ([`shard`]) to the one coordinator,
//!   run on a lane thread ([`shard::run_sharded_world`]) or folded from
//!   a worker process's frame stream.
//! * [`driver`] — the deployment arrival mode's config and visit record:
//!   Poisson arrivals over a time span; each visit instantiates a
//!   browser client and runs the full Figure 2 flow through
//!   [`encore::EncoreSystem`].
//! * [`batch`] — the batch arrival mode's config and report: incremental
//!   arrivals, a persistent client pool whose transport sessions stay
//!   warm across visits, and flat-memory aggregate reporting.
//! * [`shard`] — the multi-core engine: a world recipe's control events
//!   broadcast to every shard, its arrivals thinned 1/N, each shard one
//!   call to the shard body (a private event-driven world, a split RNG
//!   stream), merged in shard order through the associative
//!   [`analytics::Merge`] path so the parallel run is provably
//!   equivalent to the serial one.
//! * [`analytics`] — the Google-Analytics-style report of §6.2, the
//!   shared visit-outcome classification every driver tallies with, and
//!   the single merge path ([`analytics::Merge`]) every sharded output
//!   folds through.
//! * [`transport`] — the one coordinator and the two carriers behind
//!   [`transport::ShardTransport`]: in-process shard bodies, or worker
//!   *processes* (the coordinator's own binary re-executed in a worker
//!   role) speaking the length-prefixed [`sim_core::frame`] protocol
//!   over OS pipes, rebuilt by one stream fold generic over `Read`.
//!   Either way at most one shard per hardware thread is open at a
//!   time, each on its own lane thread, and the outputs merge in shard
//!   order.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analytics;
pub mod audience;
pub mod batch;
pub mod driver;
mod record_wire;
pub mod shard;
pub mod transport;
pub mod world;

pub use analytics::{
    merge_in_order, Analytics, Merge, Rollup, RollupFold, RollupSeries, StreamSummary,
    WindowedRollups,
};
pub use audience::Audience;
pub use batch::{BatchConfig, BatchReport};
pub use driver::{DeploymentConfig, VisitRecord};
pub use shard::{run_sharded_world, shard_recipe, ShardContext, ShardedWorldRun};
pub use transport::{
    worker_main, ProcessTransport, ShardTransport, ThreadTransport, TransportStats, WorldSpec,
};
pub use world::{Retain, StreamingSpec, WorldChange, WorldEngine, WorldOutcome, WorldRecipe};

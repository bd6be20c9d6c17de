//! # sim-core — deterministic simulation kernel for the Encore reproduction
//!
//! Every other crate in this workspace is built on top of this kernel. It
//! provides:
//!
//! * [`time`] — a simulated clock ([`SimTime`]) and duration type
//!   ([`SimDuration`]) with microsecond resolution. The library never reads
//!   the wall clock; all timing comes from the simulation.
//! * [`queue`] — a deterministic discrete-event queue ([`EventQueue`]):
//!   events that fire at the same instant are delivered in insertion order,
//!   so two runs with the same seed are byte-identical.
//! * [`merge`] — stable k-way merging of time-ordered streams, the
//!   primitive a sharded run's per-shard outputs (visit logs, rollup
//!   series) fold back through deterministically.
//! * [`rng`] — a seedable random-number source ([`SimRng`]) with labelled
//!   forking, so independent subsystems draw from independent streams and
//!   adding randomness to one subsystem never perturbs another.
//! * [`frame`] — the versioned, length-prefixed, CRC-checksummed binary
//!   frame codec ([`frame::read_frame`]) the distributed shard engine
//!   speaks over OS pipes; every malformation is a typed
//!   [`frame::FrameError`], never a panic or over-read.
//! * [`intern`] — dense string interning ([`Interner`]), so hot-path
//!   structures key on `u32` symbols instead of owned strings.
//! * [`dist`] — the handful of distributions the simulation needs
//!   (log-normal, Pareto, exponential, Zipf, empirical), implemented locally
//!   over [`SimRng`], so there is no external randomness dependency.
//! * [`stats`] — descriptive statistics (CDFs, percentiles, box plots) and
//!   the one-sided binomial hypothesis test that Encore's inference engine
//!   (paper §7.2) is built on.
//!
//! ## Determinism contract
//!
//! Given the same root seed, every simulation in this workspace produces the
//! same results, independent of platform, thread scheduling (each shard
//! thread owns its world and forked RNG streams, and shard outputs fold back
//! through [`merge`] in a fixed order), or hash-map iteration order (we sort
//! or use `BTreeMap` at every decision point).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bytes;
pub mod dist;
pub mod frame;
pub mod intern;
pub mod merge;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use bytes::{find_any3, find_byte, find_either};
pub use dist::{Empirical, Exponential};
pub use frame::{Frame, FRAME_HEADER_LEN};
pub use intern::{FxBuildHasher, Interner, Sym, SymTable};
pub use merge::merge_time_ordered;
pub use queue::EventQueue;
pub use rng::{seeded_hash, splitmix_mix, SimRng};
pub use stats::{binomial_sf, Cdf, FiveNumber, OneSidedBinomialTest, Summary};
pub use time::{SimDuration, SimTime};

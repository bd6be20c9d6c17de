//! # simcheck — generative differential checking of the world engine
//!
//! The equivalence harnesses under `tests/` prove the sharded world
//! engine sound on *hand-picked* scenarios (the Turkey timeline, the
//! §7.2 censor registry). This crate turns those invariants into
//! **properties over the whole scenario space**: a proptest-driven
//! generator ([`generator`]) draws arbitrary [`population::WorldRecipe`]s
//! — arrival modes × policy timelines × adaptive censors × housekeeping
//! cadences — and a differential oracle ([`oracle`]) checks each
//! generated world against the contracts the engine claims:
//!
//! 1. **Lockstep** — serial `WorldEngine::from_recipe` output is
//!    byte-identical to a 1-shard `run_sharded_world` (outcome,
//!    collection store, and their serialized JSON).
//! 2. **Reproducibility** — a fixed `(seed, shards)` pair replays byte
//!    for byte.
//! 3. **Merge algebra** — hand-built per-shard outcomes merge
//!    associatively, and folding them by hand equals the engine's own
//!    shard-order merge.
//! 4. **Verdict invariance** — on statistically powered worlds, the
//!    §7.2 windowed detector's per-day flag series and onset/lift
//!    localisation agree across {1, 2, 4} shards.
//! 5. **Detector soundness** — zero detections on generated uncensored
//!    worlds; on censored ones, onset and lift localise within one
//!    rollup period of the generated ground truth (the case's own
//!    censor schedule playing the role of the censor registry).
//! 6. **Congestion soundness** — routed worlds with a transit-link
//!    brownout keep the whole exact-replay algebra, and the detector
//!    tells censorship from congestion: congested-but-uncensored worlds
//!    yield zero detections, DNS blocks riding congested paths still
//!    localise exactly, and a brownout opening before the block neither
//!    advances nor masks the detected onset.
//! 7. **Transport equivalence** ([`transport`]) — the frame-protocol
//!    process backend reproduces the in-process thread backend byte for
//!    byte (outcome, collection, per-shard reports, and serialized
//!    JSON) at {1, 3} shards, over every generated class.
//! 8. **Streaming equivalence** — re-running the same world with
//!    bounded-memory analytics (count-min sketch + reservoir + per-window
//!    count matrices) leaves the simulation and its rollup series
//!    byte-identical and every detector verdict unchanged at {1, 2}
//!    shards, and an uncensored
//!    world whose under-provisioned ingest queue sheds submissions
//!    still yields zero false positives.
//! 9. **Corpus soundness** — worlds measuring two sites of a seeded
//!    generative [`websim::corpus::Corpus`] (instead of the constant
//!    probe server) keep verdict invariance and localisation against
//!    the censored rank-0 site, while the rank-1 site — which may
//!    suffer a globally visible *benign* origin outage — never appears
//!    in any windowed detection, for any country.
//!
//! The [`runner`] executes a bounded case budget (CI: ≥ 200 worlds),
//! and on failure writes a regression seed file so a failing case can
//! be replayed exactly (`runner::replay`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod generator;
pub mod oracle;
pub mod runner;
pub mod transport;

pub use generator::{CaseClass, WorldCase};
pub use oracle::check_case;
pub use runner::{replay, run_budget, SimCheckConfig};

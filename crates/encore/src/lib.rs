//! # encore — the paper's system: lightweight censorship measurement with
//! cross-origin requests
//!
//! This crate implements every component of Encore as described in
//! Burnett & Feamster, *Encore: Lightweight Measurement of Web Censorship
//! with Cross-Origin Requests* (SIGCOMM 2015), §4–§5 and Figure 2/3:
//!
//! * [`tasks`] — the four measurement-task types of Table 1 and their
//!   execution semantics on a browser client.
//! * [`targets`] — measurement-target lists (the Herdict-style "high
//!   value" list) and the Table 2 ethics staging of what may be measured.
//! * [`pipeline`] — the three-stage task-generation pipeline of Figure 3:
//!   Pattern Expander → Target Fetcher → Task Generator.
//! * [`geo`] — the GeoIP database (MaxMind stand-in) used to locate
//!   submissions.
//! * [`coordination`] — the coordination server: schedules tasks onto
//!   clients (§5.3), respecting per-engine constraints.
//! * [`delivery`] — how webmasters install Encore and how clients obtain
//!   tasks (§5.4), including censor-resistant variants (§8).
//! * [`collection`] — the collection server receiving task results via
//!   cross-origin AJAX (§5.5), with crawler filtering and Referer
//!   stripping.
//! * [`inference`] — the §7.2 detection algorithm: a one-sided binomial
//!   hypothesis test per (resource, region) with cross-region control.
//! * [`streaming`] — bounded-memory analytics (count-min sketches,
//!   mergeable reservoir samples, windowed success matrices, bounded
//!   ingest with drop accounting) for heavy-traffic runs.
//! * [`system`] — the assembled deployment: origin sites, servers, and
//!   the full visit flow of Figure 2.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod collection;
pub mod coordination;
pub mod delivery;
pub mod geo;
pub mod inference;
pub mod pipeline;
pub mod reports;
pub mod streaming;
pub mod system;
pub mod targets;
pub mod tasks;

pub use collection::{CollectionServer, CollectionSnapshot, StoredMeasurement, SubmissionPhase};
pub use coordination::ClientProfile;
pub use geo::GeoDb;
pub use inference::{localise_transitions, Detection, DetectorConfig, FilteringDetector};
pub use streaming::StreamingConfig;
pub use system::EncoreSystem;
pub use tasks::TaskType;

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

pub use collection::{
    CollectionServer, CollectionSnapshot, StoredMeasurement, Submission, SubmissionPhase,
};
pub use coordination::{ClientProfile, CoordinationServer, SchedulingStrategy};
pub use delivery::{InstallMethod, OriginSite, SNIPPET_BYTES};
pub use geo::GeoDb;
pub use inference::{
    congestion_evidence, localise_transitions, CongestionAssessment, Detection, DetectorConfig,
    FilteringDetector,
};
pub use pipeline::{GenerationConfig, HarAnalysis, PatternExpander, TargetFetcher, TaskGenerator};
pub use reports::{country_reports, render_markdown, CountryReport};
pub use streaming::{
    merge_window_cells, CellEntry, CountMinSketch, DropCounters, IngestQueue, MergeShape,
    ReservoirEntry, ReservoirSample, SketchSlots, StreamingConfig, StreamingStats, WindowCells,
};
pub use system::{EncoreSystem, VisitOutcome};
pub use targets::{EthicsStage, TargetList};
pub use tasks::{execute_task, MeasurementId, MeasurementTask, TaskOutcome, TaskSpec, TaskType};

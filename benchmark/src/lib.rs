//! The repo's one benchmark: five named workloads, end-to-end and
//! per-layer metrics, and a correctness gate inside every run.
//!
//! See `benchmark/README.md` for who the metrics are for, why each
//! workload exists, which layer should move which end-to-end number,
//! and the exact list of repo symbols this package calls.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod app;
pub mod check;
pub mod cli;
pub mod harness;
pub mod metrics;
pub mod probes;
pub mod procfs;
pub mod rep;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod trace;

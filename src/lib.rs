//! Umbrella crate for the Encore reproduction workspace.
//!
//! Re-exports every member crate so the examples and cross-crate
//! integration tests in this repository can use one dependency. See
//! README.md for the tour and DESIGN.md for the system inventory.

#![forbid(unsafe_code)]

pub use browser;
pub use censor;
pub use encore;
pub use netsim;
pub use population;
pub use sim_core;
pub use websim;

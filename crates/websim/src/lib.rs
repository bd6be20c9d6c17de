//! # websim — the synthetic Web for the Encore reproduction
//!
//! Encore's feasibility analysis (paper §6.1) runs over real web content:
//! 178 Herdict-curated "high value" domains expanded to ~6,548 URLs, each
//! rendered to an HTTP Archive. This crate supplies the equivalent
//! substrate:
//!
//! * [`url`] — URL patterns (exact URL, domain, prefix — paper §5.1).
//! * [`site`] — sites as collections of pages and auxiliary resources,
//!   servable through `netsim`'s [`netsim::network::HttpHandler`].
//! * [`generator`] — a synthetic web generator whose content-size and
//!   cacheability distributions are calibrated so the pipeline reproduces
//!   the shapes of Figures 4–6.
//! * [`corpus`] — the generative corpus layer on top: Zipf rank
//!   popularity, scale-free cross-site links, multi-country demographic
//!   mixes, and benign-disruption events for standing worlds.
//! * [`search`] — the stand-in for "scraping site-specific results … from
//!   a popular search engine" used by the Pattern Expander.
//! * [`har`] — the HTTP Archive (HAR 1.2) data model consumed by the Task
//!   Generator.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod corpus;
pub mod generator;
pub mod har;
pub mod search;
pub mod site;
pub mod url;

pub use har::Har;
pub use search::SearchIndex;
pub use url::UrlPattern;

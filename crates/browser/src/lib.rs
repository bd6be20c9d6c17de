//! # browser — Web-browser emulation for the Encore reproduction
//!
//! The original Encore runs as JavaScript inside real browsers; its
//! inferences rest entirely on *browser behaviour*: which cross-origin
//! loads are permitted, which events fire on success and failure, what the
//! cache does, and how engines differ (paper §3.2, §4.3, Table 1). This
//! crate reimplements that behaviour natively:
//!
//! * [`engine`] — browser engines and their security quirks. Chrome's
//!   "fires `onload` iff HTTP 200 regardless of MIME" script behaviour
//!   (§4.3.2) is modelled here, as is `nosniff` handling.
//! * [`sop`] — the same-origin policy's unit, the origin (scheme, host,
//!   port); the loaders below are what it leaves a page to observe.
//! * [`cache`] — the HTTP cache, whose hit/miss timing asymmetry powers
//!   the inline-frame task (Figure 7).
//! * [`loader`] — the four Table 1 loaders (`img`, stylesheet, script,
//!   iframe) plus raw fetch, each returning exactly the events a page
//!   could observe.
//! * [`client`] — a browser at a vantage point: engine + cache + device
//!   speed + host.
//! * [`headless`] — the PhantomJS stand-in: render a page, record a HAR.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod engine;
pub mod headless;
pub mod loader;
pub mod sop;

pub use cache::BrowserCache;
pub use client::BrowserClient;
pub use engine::Engine;
pub use loader::LoadEvent;
pub use sop::Origin;

//! # netsim — simulated Internet substrate for the Encore reproduction
//!
//! Encore (SIGCOMM 2015) measures Web filtering from real browsers across
//! the real Internet. This crate is the simulated stand-in: a deterministic
//! model of geography, addressing, DNS, TCP, HTTP, and path quality, with
//! explicit interception points where censor middleboxes (the `censor`
//! crate) can reject, drop, redirect, or rewrite traffic — exactly the
//! threat model of paper §3.1:
//!
//! > "Web filtering typically takes place when the client performs an
//! > initial DNS lookup …, when the client attempts to establish a TCP
//! > connection …, or in response to a specific HTTP request or response."
//!
//! The crate therefore models precisely those three stages. A fetch walks
//! DNS → TCP → HTTP, consulting every applicable [`Middlebox`](crate::middlebox::Middlebox) at each
//! stage and accumulating a timing breakdown that the browser emulator
//! turns into `onload`/`onerror` timing (Figure 7 depends on this detail).
//!
//! The pipeline lives in the session layer: a [`FetchSession`](crate::session::FetchSession) owns a
//! compiled per-client middlebox pipeline, a TTL-honouring DNS host cache,
//! and a keep-alive connection pool, so repeat fetches amortise everything
//! a real browser amortises. [`Network::fetch`](crate::network::Network::fetch) remains as the one-shot
//! (always-cold) convenience entry point.
//!
//! ## Module map
//!
//! * [`geo`] — countries, regions, ISP classes, the built-in world table.
//! * [`ip`] — deterministic per-country IPv4 allocation.
//! * [`host`] — simulated hosts (clients and servers).
//! * [`dns`] — the DNS system: zones, resolution, caching resolver.
//! * [`tcp`] — TCP connection attempt outcomes.
//! * [`http`] — HTTP request/response/header model.
//! * [`path`] — RTT/loss/bandwidth between hosts.
//! * [`middlebox`] — the interception trait implemented by censors.
//! * [`network`] — the composed network (hosts, servers, middleboxes).
//! * [`session`] — the session-layer fetch engine (pipeline, caches,
//!   keep-alive) that all traffic flows through.
//! * [`topology`] — seeded scale-free AS graph, deterministic routing,
//!   and congested transit links (betweenness hotspots that delay or
//!   shed under load with near-source signaling).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod dns;
pub mod geo;
pub mod host;
pub mod http;
pub mod ip;
pub mod middlebox;
pub mod network;
pub mod path;
pub mod scenario;
pub mod session;
pub mod tcp;
pub mod topology;

pub use http::HttpRequest;
pub use ip::Ipv4Net;
pub use scenario::TopologySpec;
pub use topology::{AsTopology, TopologyConfig};

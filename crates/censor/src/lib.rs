//! # censor — censorship models for the Encore reproduction
//!
//! Paper §3.1's adversary can "reject, block, or modify any stage of a Web
//! connection in order to filter Web access for subsets of clients",
//! operating a blacklist while being "unwilling to filter all Web traffic".
//! This crate models that adversary:
//!
//! * [`policy`] — blacklist rules: *what* is filtered (domains, URL
//!   prefixes, exact URLs, keywords, IPs) and *how* (DNS NXDOMAIN/redirect/
//!   drop, IP drop, TCP RST, HTTP drop/reset/block-page/redirect, and
//!   probabilistic throttling — the "subtle" filtering the paper says
//!   Encore struggles to see). A [`CensorPolicy`] is the one
//!   implementation of filtering: a [`netsim::middlebox::Middlebox`] on
//!   every client's path.
//! * [`national`] — [`national::NationalCensor`], which scopes a policy
//!   to the clients of one country and delegates every stage to it.
//! * [`registry`] — ready-made policies reproducing the ground truth the
//!   paper verifies against in §7.2: YouTube filtered in Pakistan, Iran and
//!   China; Twitter and Facebook in China and Iran.
//! * [`testbed`] — the §7.1 "Web censorship testbed, which has DNS,
//!   firewall, and Web server configurations that emulate seven varieties
//!   of DNS, IP, and HTTP filtering", used to validate measurement-task
//!   soundness: one [`CensorPolicy`] whose seven rules each pair a
//!   variety's host (or address) with that variety's [`Mechanism`].
//! * [`timeline`] — [`timeline::PolicyTimeline`], an ordered schedule of
//!   install/lift/rewrite changes that makes censorship a function of
//!   time on one continuously-running world (the paper's §1: filtering
//!   "varies over time in response to changing social or political
//!   conditions").
//! * [`adaptive`] — [`adaptive::AdaptiveCensor`], the §8 adversary that
//!   *notices* Encore and reacts: an escalation ladder (probabilistic
//!   RST injection → rate-based throttling → DNS poisoning with lying
//!   TTLs → IP blocking → retaliation against the collection server)
//!   driven by scheduled [`adaptive::ReactionPolicy`] events and/or a
//!   detected-fetch threshold.
//!
//! A world's shard builder is the one place standing censors are
//! installed: it builds its network, then adds the censor a
//! [`timeline::CensorSpec`] or [`adaptive::AdaptiveSpec`] builds against
//! it. Censors that switch on or off mid-run are [`timeline`] events.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod national;
pub mod policy;
pub mod registry;
pub mod testbed;
pub mod timeline;

pub use national::NationalCensor;
pub use policy::{CensorPolicy, Mechanism};

//! Stateful adversarial censors — the paper's §8 threat taken seriously.
//!
//! The static models in [`crate::national`] enforce one fixed policy for
//! as long as they are installed. A real adversary *reacts*: §8 of the
//! paper discusses censors that could notice Encore's cross-origin
//! measurements and respond — throttling, poisoning, or "simply
//! block\[ing\] the collection server". An [`AdaptiveCensor`] models that
//! adversary as an escalation ladder of [`Stage`]s:
//!
//! | stage | behaviour |
//! |---|---|
//! | [`Stage::Watch`] | observe only: count cross-origin fetches to the watched measurement targets |
//! | [`Stage::RstInjection`] | probabilistically inject RSTs on TCP handshakes to watched addresses |
//! | [`Stage::Throttle`] | drop watched HTTP exchanges with a probability that **escalates with the observed fetch count** |
//! | [`Stage::DnsPoison`] | forge DNS answers for watched names, with a **lying TTL** the censor chooses |
//! | [`Stage::IpBlock`] | null-route the watched addresses (silent SYN drops) |
//! | [`Stage::Retaliate`] | keep the IP block *and* block the Encore collection server itself |
//!
//! Two things move the censor along the ladder:
//!
//! * **Self-triggered escalation** — with
//!   [`AdaptiveSpec::ip_block_after`] set, the censor jumps straight to
//!   [`Stage::IpBlock`] once it has detected `K` cross-origin fetches to
//!   a watched target. Deterministic in the fetch stream it actually
//!   observes, which makes it reproducible serially (and bitwise at one
//!   shard) but **traffic-dependent**: different shard counts observe
//!   different per-shard streams, so worlds that rely on it are *not*
//!   shard-count-invariant and the `simcheck` generator keeps them out
//!   of the multi-shard verdict oracle.
//! * **Scheduled reactions** — a [`ReactionPolicy`] is the control-plane
//!   half: `(SimTime, Reaction)` steps that the world engine fires as
//!   first-class events (`population::WorldEvent::CensorSignal`),
//!   delivered through [`netsim::middlebox::Middlebox::on_control`].
//!   Scheduled reactions broadcast verbatim to every shard, so they keep
//!   sharded worlds verdict-invariant.
//!
//! All interior state lives in `Cell`s: the middlebox hooks take `&self`
//! and a network's middleboxes are single-threaded by construction.
//! Probabilistic stages draw from a deterministic key/time hash (like
//! [`crate::policy::Mechanism::Throttle`]'s, plus a splitmix64
//! finalizer — see `unit_draw`), so no RNG threads through the
//! middlebox trait and identical fetch streams see identical
//! interference. Coverage ([`Middlebox::applies_to`]) depends only on
//! the client's country and never on the stage — stage changes are
//! visible on the very next fetch without a pipeline recompile.

use netsim::dns::DnsSystem;
use netsim::geo::CountryCode;
use netsim::host::Host;
use netsim::http::{host_of, HttpRequest};
use netsim::middlebox::{DnsAction, HttpAction, Middlebox, StageContext, TcpAction};
use netsim::tcp::TcpAttempt;
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime};
use std::cell::Cell;
use std::net::Ipv4Addr;

/// Deterministic unit draw for the probabilistic stages: FNV over the
/// key, mixed with the timestamp through a splitmix64 finalizer. The
/// finalizer matters — the adaptive censor keys on a *fixed* string (one
/// watched address, one favicon URL) with only the timestamp varying, a
/// regime where FNV's single trailing multiply leaves the top bits
/// nearly constant (the [`crate::policy::Mechanism::Throttle`] draw gets
/// away with it only because its URLs vary per request).
fn unit_draw(key: &str, now_micros: u64) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix_unit(h, now_micros)
}

/// The finalizer half of [`unit_draw`], for callers whose key is
/// already an integer (the TCP stage keys on the destination address —
/// no reason to format it into a string on the hot path). The avalanche
/// itself is [`sim_core::splitmix_mix`], the workspace's one copy of
/// those constants.
fn mix_unit(key: u64, now_micros: u64) -> f64 {
    let z = sim_core::splitmix_mix(key ^ now_micros.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// One rung of the escalation ladder. Ordered: `escalate` moves to the
/// next variant and saturates at [`Stage::Retaliate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Stage {
    /// Observe only.
    Watch,
    /// Probabilistic RST injection against watched addresses.
    RstInjection,
    /// Rate-based throttling: HTTP drops whose probability grows with
    /// the number of detected cross-origin fetches.
    Throttle,
    /// DNS poisoning of watched names with a lying TTL.
    DnsPoison,
    /// Null-routing of watched addresses.
    IpBlock,
    /// IP block plus blocking the Encore collection server.
    Retaliate,
}

impl Stage {
    /// The next rung up (saturating).
    pub fn next(self) -> Stage {
        match self {
            Stage::Watch => Stage::RstInjection,
            Stage::RstInjection => Stage::Throttle,
            Stage::Throttle => Stage::DnsPoison,
            Stage::DnsPoison => Stage::IpBlock,
            Stage::IpBlock | Stage::Retaliate => Stage::Retaliate,
        }
    }

    /// Stable slug used in control signals and reports.
    pub fn slug(self) -> &'static str {
        match self {
            Stage::Watch => "watch",
            Stage::RstInjection => "rst-injection",
            Stage::Throttle => "throttle",
            Stage::DnsPoison => "dns-poison",
            Stage::IpBlock => "ip-block",
            Stage::Retaliate => "retaliate",
        }
    }

    /// Parse a [`Stage::slug`].
    pub fn from_slug(slug: &str) -> Option<Stage> {
        Some(match slug {
            "watch" => Stage::Watch,
            "rst-injection" => Stage::RstInjection,
            "throttle" => Stage::Throttle,
            "dns-poison" => Stage::DnsPoison,
            "ip-block" => Stage::IpBlock,
            "retaliate" => Stage::Retaliate,
            _ => return None,
        })
    }
}

/// Plain-data recipe for an [`AdaptiveCensor`] — `Send + Sync + Clone`,
/// so it crosses to every shard thread, whose world's `build` installs
/// it with [`AdaptiveSpec::build`] against that shard's own network, as
/// it does a [`crate::timeline::CensorSpec`]. Shared topology means
/// every shard compiles the identical address blacklist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveSpec {
    /// Middlebox diagnostic name; also how [`ReactionPolicy`] and policy
    /// timelines address this censor.
    pub name: String,
    /// Country whose clients the censor covers (constant for the
    /// middlebox's lifetime — stage changes never alter coverage).
    pub country: CountryCode,
    /// The measurement-target domains the censor watches (and, in the
    /// blocking stages, interferes with). Subdomains match.
    pub watched: Vec<String>,
    /// The rung the censor starts on.
    pub initial_stage: Stage,
    /// RST-injection probability in [`Stage::RstInjection`].
    pub rst_probability: f64,
    /// Base drop probability when [`Stage::Throttle`] engages.
    pub throttle_base: f64,
    /// Additional drop probability per detected cross-origin fetch
    /// (clamped at 1.0) — the throttling escalates as the censor keeps
    /// seeing measurements.
    pub throttle_step: f64,
    /// Where poisoned answers point (a sinkhole with no server).
    pub poison_ip: Ipv4Addr,
    /// The lying TTL on poisoned answers: how long clients cache the
    /// forgery. May deliberately exceed the block's own lifetime.
    pub poison_ttl: SimDuration,
    /// Self-trigger: jump to [`Stage::IpBlock`] after this many detected
    /// cross-origin fetches to a watched target (`None` disables).
    pub ip_block_after: Option<u64>,
    /// The Encore collection server's domain, blocked in
    /// [`Stage::Retaliate`] (`None`: retaliation only keeps the IP
    /// block).
    pub collector: Option<String>,
}

impl AdaptiveSpec {
    /// A watch-stage spec with the conventional stage parameters:
    /// near-certain RST injection (0.9), throttling from 0.3 escalating
    /// by 1e-3 per observed fetch, poisoning to `10.6.6.6` with a 1-hour
    /// lying TTL, and no self-trigger or retaliation target.
    pub fn new(
        name: impl Into<String>,
        country: CountryCode,
        watched: Vec<String>,
    ) -> AdaptiveSpec {
        AdaptiveSpec {
            name: name.into(),
            country,
            watched,
            initial_stage: Stage::Watch,
            rst_probability: 0.9,
            throttle_base: 0.3,
            throttle_step: 1e-3,
            poison_ip: Ipv4Addr::new(10, 6, 6, 6),
            poison_ttl: SimDuration::from_secs(3_600),
            ip_block_after: None,
            collector: Some("collector.encore-repro.net".to_string()),
        }
    }

    /// Builder: self-escalate to [`Stage::IpBlock`] after `k` detected
    /// fetches.
    pub fn ip_block_after(mut self, k: u64) -> AdaptiveSpec {
        self.ip_block_after = Some(k);
        self
    }

    /// Builder: set the lying TTL on poisoned answers.
    pub fn with_poison_ttl(mut self, ttl: SimDuration) -> AdaptiveSpec {
        self.poison_ttl = ttl;
        self
    }

    /// Materialise the censor, resolving the watched domains (and their
    /// `www.` aliases) against the network's authoritative DNS so the
    /// TCP-stage rungs know which addresses to interfere with — the same
    /// blacklist compilation as
    /// [`crate::national::NationalCensor::resolve_ip_rules`].
    pub fn build(&self, dns: &DnsSystem) -> AdaptiveCensor {
        let mut watched_ips = Vec::new();
        for d in &self.watched {
            for name in [d.clone(), format!("www.{d}")] {
                if let Some(answer) = dns.authoritative(&name) {
                    watched_ips.push(answer.ip);
                }
            }
        }
        // The watch list is fixed for the censor's lifetime; compile the
        // per-request host matching (exact name + dot-suffix) up front
        // so the hot on_http_request path allocates nothing.
        let watched_suffixes = self
            .watched
            .iter()
            .map(|d| {
                (
                    d.to_ascii_lowercase(),
                    format!(".{}", d.to_ascii_lowercase()),
                )
            })
            .collect();
        AdaptiveCensor {
            stage: Cell::new(self.initial_stage),
            observed: Cell::new(0),
            watched_ips,
            watched_suffixes,
            spec: self.clone(),
        }
    }
}

/// The live stateful middlebox. See the module docs for the ladder.
pub struct AdaptiveCensor {
    spec: AdaptiveSpec,
    stage: Cell<Stage>,
    /// Cross-origin fetches to watched targets detected so far (counted
    /// at the HTTP stage, where DPI sees the request URL).
    observed: Cell<u64>,
    watched_ips: Vec<Ipv4Addr>,
    /// Pre-lowercased `(domain, ".domain")` pairs compiled at build time
    /// for allocation-free host matching on the per-request path.
    watched_suffixes: Vec<(String, String)>,
}

impl AdaptiveCensor {
    fn watches_host(&self, host: &str) -> bool {
        let hb = host.as_bytes();
        self.watched_suffixes.iter().any(|(domain, suffix)| {
            let sb = suffix.as_bytes();
            host.eq_ignore_ascii_case(domain)
                || (hb.len() > sb.len() && hb[hb.len() - sb.len()..].eq_ignore_ascii_case(sb))
        })
    }

    fn is_collector_host(&self, host: &str) -> bool {
        self.spec
            .collector
            .as_deref()
            .is_some_and(|c| host.eq_ignore_ascii_case(c))
    }

    /// Current throttle drop probability: escalates with what the censor
    /// has seen.
    fn throttle_probability(&self) -> f64 {
        (self.spec.throttle_base + self.spec.throttle_step * self.observed.get() as f64).min(1.0)
    }
}

impl Middlebox for AdaptiveCensor {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn applies_to(&self, client: &Host) -> bool {
        // Stage-independent by contract: coverage never changes while
        // installed, so compiled session pipelines stay valid across
        // escalations.
        client.country == self.spec.country
    }

    fn on_dns(&self, name: &str, _ctx: &StageContext<'_>) -> DnsAction {
        match self.stage.get() {
            Stage::DnsPoison if self.watches_host(name) => DnsAction::Poison {
                ip: self.spec.poison_ip,
                ttl: self.spec.poison_ttl,
            },
            Stage::Retaliate if self.is_collector_host(name) => DnsAction::NxDomain,
            _ => DnsAction::Pass,
        }
    }

    fn on_tcp(&self, attempt: &TcpAttempt, ctx: &StageContext<'_>) -> TcpAction {
        let watched_dst = self.watched_ips.contains(&attempt.dst);
        match self.stage.get() {
            Stage::RstInjection if watched_dst => {
                let draw = mix_unit(u64::from(u32::from(attempt.dst)), ctx.now.as_micros());
                if draw < self.spec.rst_probability {
                    TcpAction::Reset
                } else {
                    TcpAction::Pass
                }
            }
            Stage::IpBlock | Stage::Retaliate if watched_dst => TcpAction::Drop,
            _ => TcpAction::Pass,
        }
    }

    fn on_http_request(&self, req: &HttpRequest, ctx: &StageContext<'_>) -> HttpAction {
        let Some(host) = host_of(&req.url) else {
            return HttpAction::Pass;
        };
        if self.watches_host(&host) {
            // Detection: the DPI box logs the cross-origin fetch first,
            // then decides what to do with it.
            self.observed.set(self.observed.get() + 1);
            if let Some(k) = self.spec.ip_block_after {
                if self.observed.get() >= k && self.stage.get() < Stage::IpBlock {
                    self.stage.set(Stage::IpBlock);
                }
            }
            if self.stage.get() == Stage::Throttle {
                let draw = unit_draw(&req.url, ctx.now.as_micros());
                if draw < self.throttle_probability() {
                    return HttpAction::Drop;
                }
            }
        } else if self.stage.get() == Stage::Retaliate && self.is_collector_host(&host) {
            // Warm clients with cached collector state still cross the
            // censor at the HTTP stage — retaliation silences them too.
            return HttpAction::Drop;
        }
        HttpAction::Pass
    }

    /// Control vocabulary: `escalate` (one rung up), `stand-down` (back
    /// to [`Stage::Watch`]), `set-stage:<slug>`. Unknown signals are
    /// ignored; a signal that leaves the stage unchanged reports `false`.
    fn on_control(&self, signal: &str, _now: SimTime) -> bool {
        let current = self.stage.get();
        let next = match signal {
            "escalate" => Some(current.next()),
            "stand-down" => Some(Stage::Watch),
            _ => signal.strip_prefix("set-stage:").and_then(Stage::from_slug),
        };
        match next {
            Some(stage) if stage != current => {
                self.stage.set(stage);
                true
            }
            _ => false,
        }
    }
}

/// One scheduled stage transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Reaction {
    /// One rung up the ladder.
    Escalate,
    /// Back to [`Stage::Watch`].
    StandDown,
    /// Jump to an explicit rung.
    SetStage(Stage),
}

impl Reaction {
    /// The [`Middlebox::on_control`] signal this reaction delivers.
    pub fn signal(&self) -> String {
        match self {
            Reaction::Escalate => "escalate".to_string(),
            Reaction::StandDown => "stand-down".to_string(),
            Reaction::SetStage(stage) => format!("set-stage:{}", stage.slug()),
        }
    }
}

/// The control-plane schedule of an adaptive censor: `(SimTime,
/// Reaction)` steps addressed to one middlebox by name, fired by the
/// world engine as first-class events
/// (`population::WorldRecipe::with_reaction`). Like
/// [`crate::timeline::PolicyTimeline`], steps stay time-sorted with
/// insertion order as the tie-break, and the whole policy is plain
/// `Send + Sync + Clone` data, so sharded runs broadcast it verbatim to
/// every shard — which is what keeps scheduled adaptive censors
/// verdict-invariant across shard counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReactionPolicy {
    /// Diagnostic name of the censor the steps are addressed to.
    pub censor: String,
    steps: Vec<(SimTime, Reaction)>,
}

impl ReactionPolicy {
    /// An empty policy addressed to `censor`.
    pub fn new(censor: impl Into<String>) -> ReactionPolicy {
        ReactionPolicy {
            censor: censor.into(),
            steps: Vec::new(),
        }
    }

    /// Builder: schedule `reaction` at `at` (time-sorted, insertion
    /// order breaks ties).
    pub fn at(mut self, at: SimTime, reaction: Reaction) -> ReactionPolicy {
        let idx = self.steps.partition_point(|(t, _)| *t <= at);
        self.steps.insert(idx, (at, reaction));
        self
    }

    /// The schedule, time-ordered.
    pub fn steps(&self) -> &[(SimTime, Reaction)] {
        &self.steps
    }

    /// Number of scheduled reactions.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geo::{country, IspClass, World};
    use netsim::http::{ContentType, HttpResponse};
    use netsim::network::{ConstHandler, FetchError, Network};
    use sim_core::SimRng;

    const TARGET: &str = "target.example";
    const COLLECTOR: &str = "collector.encore-repro.net";

    fn world() -> Network {
        let mut net = Network::ideal(World::builtin());
        for d in [TARGET, COLLECTOR] {
            net.add_server(
                d,
                country("US"),
                Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 400))),
            );
        }
        net
    }

    fn spec() -> AdaptiveSpec {
        AdaptiveSpec {
            collector: Some(COLLECTOR.to_string()),
            ..AdaptiveSpec::new("ir-adaptive", country("IR"), vec![TARGET.to_string()])
        }
    }

    /// [`spec`] starting on `stage` instead of [`Stage::Watch`].
    fn spec_at(stage: Stage) -> AdaptiveSpec {
        AdaptiveSpec {
            initial_stage: stage,
            ..spec()
        }
    }

    fn fetch_result(
        net: &mut Network,
        client: &Host,
        url: &str,
        at: SimTime,
    ) -> Result<HttpResponse, FetchError> {
        let mut rng = SimRng::new(7);
        net.fetch(client, &netsim::http::HttpRequest::get(url), at, &mut rng)
            .result
    }

    #[test]
    fn spec_is_thread_shareable_plain_data() {
        fn check<T: Send + Sync + Clone>() {}
        check::<AdaptiveSpec>();
        check::<ReactionPolicy>();
        check::<Stage>();
        check::<Reaction>();
    }

    #[test]
    fn watch_stage_counts_without_interfering() {
        let mut net = world();
        let censor = spec().build(&net.dns);
        let client = net.add_client(country("IR"), IspClass::Residential);
        let ctx = StageContext {
            client: &client,
            now: SimTime::ZERO,
        };
        // Every hook passes while watching…
        assert_eq!(censor.on_dns(TARGET, &ctx), DnsAction::Pass);
        let dst = net.dns.authoritative(TARGET).unwrap().ip;
        assert_eq!(censor.on_tcp(&TcpAttempt::http(dst), &ctx), TcpAction::Pass);
        let req = HttpRequest::get(format!("http://{TARGET}/favicon.ico"));
        assert_eq!(censor.on_http_request(&req, &ctx), HttpAction::Pass);
        // …but the cross-origin fetch was detected and counted.
        assert_eq!(censor.observed.get(), 1);
        // Requests to unwatched hosts are not counted.
        let other = HttpRequest::get("http://unrelated.example/x");
        assert_eq!(censor.on_http_request(&other, &ctx), HttpAction::Pass);
        assert_eq!(censor.observed.get(), 1);
        // Unknown control signals are ignored.
        assert!(!censor.on_control("unknown-signal", SimTime::ZERO));
    }

    #[test]
    fn ladder_escalates_and_saturates() {
        let censor = spec().build(&world().dns);
        assert_eq!(censor.stage.get(), Stage::Watch);
        for expected in [
            Stage::RstInjection,
            Stage::Throttle,
            Stage::DnsPoison,
            Stage::IpBlock,
            Stage::Retaliate,
        ] {
            assert!(censor.on_control("escalate", SimTime::ZERO));
            assert_eq!(censor.stage.get(), expected);
        }
        // Saturation: escalate at the top is a no-op…
        assert!(!censor.on_control("escalate", SimTime::ZERO));
        assert_eq!(censor.stage.get(), Stage::Retaliate);
        // …and stand-down resets the ladder.
        assert!(censor.on_control("stand-down", SimTime::ZERO));
        assert_eq!(censor.stage.get(), Stage::Watch);
        // Explicit jumps parse slugs; garbage is ignored.
        assert!(censor.on_control("set-stage:dns-poison", SimTime::ZERO));
        assert_eq!(censor.stage.get(), Stage::DnsPoison);
        assert!(!censor.on_control("set-stage:nonsense", SimTime::ZERO));
        assert!(!censor.on_control("set-stage:dns-poison", SimTime::ZERO));
    }

    #[test]
    fn dns_poison_carries_the_lying_ttl() {
        let censor = spec_at(Stage::DnsPoison)
            .with_poison_ttl(SimDuration::from_secs(9_999))
            .build(&world().dns);
        let client = world().add_client(country("IR"), IspClass::Residential);
        let ctx = StageContext {
            client: &client,
            now: SimTime::ZERO,
        };
        assert_eq!(
            censor.on_dns(TARGET, &ctx),
            DnsAction::Poison {
                ip: Ipv4Addr::new(10, 6, 6, 6),
                ttl: SimDuration::from_secs(9_999),
            }
        );
        // Subdomains of a watched name are poisoned too; strangers pass.
        assert_ne!(censor.on_dns("www.target.example", &ctx), DnsAction::Pass);
        assert_eq!(censor.on_dns("other.example", &ctx), DnsAction::Pass);
    }

    #[test]
    fn ip_block_stage_null_routes_watched_addresses() {
        let mut net = world();
        net.add_middlebox(Box::new(spec_at(Stage::IpBlock).build(&net.dns)));
        let ir = net.add_client(country("IR"), IspClass::Residential);
        let us = net.add_client(country("US"), IspClass::Residential);
        let url = format!("http://{TARGET}/favicon.ico");
        assert_eq!(
            fetch_result(&mut net, &ir, &url, SimTime::ZERO),
            Err(FetchError::ConnectTimeout),
            "watched address must be null-routed for covered clients"
        );
        assert!(fetch_result(&mut net, &us, &url, SimTime::ZERO).is_ok());
        // The collector stays reachable below Retaliate.
        let collector_url = format!("http://{COLLECTOR}/submit");
        assert!(fetch_result(&mut net, &ir, &collector_url, SimTime::ZERO).is_ok());
    }

    #[test]
    fn retaliation_blocks_the_collection_server() {
        let mut net = world();
        net.add_middlebox(Box::new(spec_at(Stage::Retaliate).build(&net.dns)));
        let ir = net.add_client(country("IR"), IspClass::Residential);
        let collector_url = format!("http://{COLLECTOR}/submit");
        assert_eq!(
            fetch_result(&mut net, &ir, &collector_url, SimTime::ZERO),
            Err(FetchError::DnsNxDomain),
            "retaliation forges NXDOMAIN for the collector"
        );
        // The watched target stays IP-blocked as well.
        let url = format!("http://{TARGET}/favicon.ico");
        assert_eq!(
            fetch_result(&mut net, &ir, &url, SimTime::ZERO),
            Err(FetchError::ConnectTimeout)
        );
    }

    #[test]
    fn rst_injection_is_probabilistic_and_deterministic() {
        let censor = spec_at(Stage::RstInjection).build(&world().dns);
        let client = world().add_client(country("IR"), IspClass::Residential);
        let dst = world().dns.authoritative(TARGET).unwrap().ip;
        let mut resets = 0;
        for i in 0..1_000u64 {
            let ctx = StageContext {
                client: &client,
                now: SimTime::from_micros(i * 1_003),
            };
            let action = censor.on_tcp(&TcpAttempt::http(dst), &ctx);
            let again = censor.on_tcp(&TcpAttempt::http(dst), &ctx);
            assert_eq!(action, again, "same instant, same decision");
            if action == TcpAction::Reset {
                resets += 1;
            }
        }
        // rst_probability defaults to 0.9.
        assert!((850..=950).contains(&resets), "resets = {resets}");
    }

    #[test]
    fn throttle_escalates_with_observations() {
        let censor = spec_at(Stage::Throttle).build(&world().dns);
        let client = world().add_client(country("IR"), IspClass::Residential);
        let base = censor.throttle_probability();
        for i in 0..500u64 {
            let ctx = StageContext {
                client: &client,
                now: SimTime::from_micros(i * 997),
            };
            let req = HttpRequest::get(format!("http://{TARGET}/r{i}.png"));
            let _ = censor.on_http_request(&req, &ctx);
        }
        assert_eq!(censor.observed.get(), 500);
        let escalated = censor.throttle_probability();
        assert!(
            escalated > base + 0.4,
            "drop probability must escalate: {base} -> {escalated}"
        );
    }

    #[test]
    fn k_threshold_self_escalates_to_ip_block() {
        let mut net = world();
        net.add_middlebox(Box::new(spec().ip_block_after(5).build(&net.dns)));
        let ir = net.add_client(country("IR"), IspClass::Residential);
        let url = format!("http://{TARGET}/favicon.ico");
        let mut outcomes = Vec::new();
        for i in 0..8u64 {
            // Fresh cold sessions each time (Network::fetch), spaced past
            // the keep-alive window so every fetch crosses the censor.
            outcomes.push(fetch_result(&mut net, &ir, &url, SimTime::from_secs(i * 600)).is_ok());
        }
        // The first 5 fetches are observed and pass — including the 5th
        // (the triggering request itself is counted at the HTTP stage
        // and sails through; only *subsequent* handshakes hit the IP
        // block the observation installed).
        assert_eq!(outcomes[..5], [true, true, true, true, true]);
        assert_eq!(outcomes[5..], [false, false, false]);
    }

    #[test]
    fn reaction_policy_orders_steps_with_insertion_tiebreak() {
        let t = SimTime::from_secs(100);
        let policy = ReactionPolicy::new("x")
            .at(SimTime::from_secs(200), Reaction::StandDown)
            .at(t, Reaction::Escalate)
            .at(t, Reaction::SetStage(Stage::IpBlock));
        let steps: Vec<_> = policy
            .steps()
            .iter()
            .map(|(at, r)| (at.as_secs(), *r))
            .collect();
        assert_eq!(
            steps,
            vec![
                (100, Reaction::Escalate),
                (100, Reaction::SetStage(Stage::IpBlock)),
                (200, Reaction::StandDown),
            ]
        );
        assert_eq!(Reaction::Escalate.signal(), "escalate");
        assert_eq!(Reaction::StandDown.signal(), "stand-down");
        assert_eq!(
            Reaction::SetStage(Stage::RstInjection).signal(),
            "set-stage:rst-injection"
        );
    }

    #[test]
    fn stage_slugs_round_trip() {
        for stage in [
            Stage::Watch,
            Stage::RstInjection,
            Stage::Throttle,
            Stage::DnsPoison,
            Stage::IpBlock,
            Stage::Retaliate,
        ] {
            assert_eq!(Stage::from_slug(stage.slug()), Some(stage));
        }
        assert_eq!(Stage::from_slug("bogus"), None);
    }
}

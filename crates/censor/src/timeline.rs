//! Live policy schedules: censorship as a function of time.
//!
//! The paper's core motivation (§1) is that censorship "varies over time
//! in response to changing social or political conditions (e.g., a
//! national election)" — blocks switch on, get lifted, and get rewritten
//! while measurement is running. A [`PolicyTimeline`] makes those
//! dynamics first-class: an ordered schedule of `(SimTime,
//! PolicyChange)` entries that the world engine
//! (`population::world::WorldEngine`) fires as discrete events on one
//! continuously-running world, instead of experiments faking time by
//! rebuilding the world per phase.
//!
//! Every change applies through [`netsim::network::Network`]'s middlebox
//! mutation hooks (`add_middlebox` / `remove_middlebox`), which bump the
//! network's middlebox generation counter — so compiled
//! [`netsim::session::FetchSession`] pipelines in warm pooled clients
//! invalidate and re-match on their next fetch, exactly as a real
//! client's path changes under it when a national filter is deployed.
//!
//! Determinism contract: entries are kept sorted by time with
//! **insertion order as the tie-break** (two changes scheduled for the
//! same instant apply in the order they were scheduled), enforced by
//! `crates/censor/tests/prop.rs`.

use crate::national::NationalCensor;
use crate::policy::CensorPolicy;
use netsim::geo::{CountryCode, IspClass};
use netsim::network::Network;
use serde::{Deserialize, Serialize};
use sim_core::SimTime;

/// A plain-data recipe for a [`NationalCensor`] — what a
/// [`PolicyChange::Install`] deploys. Unlike the censor itself (a boxed
/// middlebox), the spec is `Send + Sync + Clone`, so timelines can ride
/// inside shard-shared scenario recipes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CensorSpec {
    /// Country whose clients the censor covers.
    pub country: CountryCode,
    /// The blacklist to enforce. The policy's `name` doubles as the
    /// middlebox's diagnostic name and is how later `Lift`/`Rewrite`
    /// changes address this censor.
    pub policy: CensorPolicy,
    /// `None` = all access networks; `Some(classes)` = only those.
    pub covered_isps: Option<Vec<IspClass>>,
    /// Whether to expand domain+TCP rules into IP rules against the
    /// network's authoritative DNS at install time (the censor compiling
    /// its own firewall blacklist).
    pub resolve_ip_rules: bool,
}

impl CensorSpec {
    /// Spec covering every client in `country`.
    pub fn new(country: CountryCode, policy: CensorPolicy) -> CensorSpec {
        CensorSpec {
            country,
            policy,
            covered_isps: None,
            resolve_ip_rules: false,
        }
    }

    /// Builder: restrict coverage to specific access-network classes.
    pub fn covering(mut self, isps: Vec<IspClass>) -> CensorSpec {
        self.covered_isps = Some(isps);
        self
    }

    /// Builder: resolve domain firewall rules to IP rules at install.
    pub fn with_ip_resolution(mut self) -> CensorSpec {
        self.resolve_ip_rules = true;
        self
    }

    /// The middlebox name this spec installs under.
    pub fn name(&self) -> &str {
        &self.policy.name
    }

    /// Materialise the censor against a concrete network's DNS.
    pub fn build(self, net: &Network) -> NationalCensor {
        let mut censor = NationalCensor::new(self.country, self.policy);
        if let Some(isps) = self.covered_isps {
            censor = censor.covering(isps);
        }
        if self.resolve_ip_rules {
            censor.resolve_ip_rules(&net.dns);
        }
        censor
    }
}

/// One scheduled mutation of the censorship regime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicyChange {
    /// Deploy a new censor.
    Install(CensorSpec),
    /// Remove the censor installed under `name` (a block being lifted).
    Lift {
        /// Diagnostic/middlebox name of the censor to remove.
        name: String,
    },
    /// Atomically replace the censor installed under `name` with a new
    /// spec (a blacklist being rewritten mid-run).
    Rewrite {
        /// Name of the censor to replace.
        name: String,
        /// Its replacement.
        with: CensorSpec,
    },
}

impl PolicyChange {
    /// Apply this change to the network. Returns whether the world
    /// actually changed: installs always do; a rewrite replaces the
    /// named censor **in place** (preserving its slot in the
    /// interception order) or, if the name is not installed, installs
    /// the replacement — either way the world changed; lifting an
    /// unknown name is the only no-op. Any actual change goes through
    /// the middlebox set and therefore bumps the network's generation
    /// counter, invalidating compiled session pipelines.
    pub fn apply(&self, net: &mut Network) -> bool {
        match self {
            PolicyChange::Install(spec) => {
                let censor = spec.clone().build(net);
                net.add_middlebox(Box::new(censor));
                true
            }
            PolicyChange::Lift { name } => net.remove_middlebox(name),
            PolicyChange::Rewrite { name, with } => {
                let censor = Box::new(with.clone().build(net));
                if net.has_middlebox(name) {
                    net.replace_middlebox(name, censor);
                } else {
                    net.add_middlebox(censor);
                }
                true
            }
        }
    }
}

/// An ordered `(SimTime, PolicyChange)` schedule with deterministic
/// tie-breaks. The world engine turns each entry into a discrete event
/// on its queue (via [`PolicyTimeline::entries`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PolicyTimeline {
    entries: Vec<(SimTime, PolicyChange)>,
}

impl PolicyTimeline {
    /// An empty timeline.
    pub fn new() -> PolicyTimeline {
        PolicyTimeline::default()
    }

    /// Builder: schedule `change` at `at`.
    pub fn at(mut self, at: SimTime, change: PolicyChange) -> PolicyTimeline {
        self.schedule(at, change);
        self
    }

    /// Schedule `change` at `at`, keeping entries sorted by time with
    /// insertion order as the tie-break (a change scheduled later for the
    /// same instant applies after every change already there).
    pub fn schedule(&mut self, at: SimTime, change: PolicyChange) {
        let idx = self.entries.partition_point(|(t, _)| *t <= at);
        self.entries.insert(idx, (at, change));
    }

    /// The full schedule, time-ordered.
    pub fn entries(&self) -> &[(SimTime, PolicyChange)] {
        &self.entries
    }

    /// Number of scheduled changes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Mechanism;
    use netsim::geo::{country, World};
    use netsim::http::{ContentType, HttpRequest, HttpResponse};
    use netsim::network::{ConstHandler, FetchError, Network};
    use sim_core::SimRng;

    fn blocked_world() -> Network {
        let mut net = Network::ideal(World::builtin());
        net.add_server(
            "twitter.com",
            country("US"),
            Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 500))),
        );
        net
    }

    fn tr_block() -> CensorSpec {
        CensorSpec::new(
            country("TR"),
            CensorPolicy::named("tr-election-block")
                .block_domain("twitter.com", Mechanism::DnsNxDomain),
        )
    }

    /// Apply `tl`'s entries with index in `range`, in schedule order, as
    /// the world engine fires them.
    fn fire(tl: &PolicyTimeline, range: std::ops::Range<usize>, net: &mut Network) {
        for (_, change) in &tl.entries()[range] {
            change.apply(net);
        }
    }

    fn fetch_ok(net: &mut Network, at: SimTime) -> bool {
        let client = net.add_client(country("TR"), netsim::geo::IspClass::Residential);
        let mut rng = SimRng::new(9);
        net.fetch(
            &client,
            &HttpRequest::get("http://twitter.com/favicon.ico"),
            at,
            &mut rng,
        )
        .result
        .is_ok()
    }

    #[test]
    fn timeline_is_cloneable_and_thread_shareable() {
        // The sharded world engine broadcasts one timeline to N shard
        // threads; this pins the Send + Sync + Clone contract.
        fn check<T: Send + Sync + Clone>() {}
        check::<PolicyTimeline>();
        check::<PolicyChange>();
        check::<CensorSpec>();
    }

    #[test]
    fn censor_spec_acts_as_middlebox_factory() {
        use netsim::middlebox::Middlebox;
        let mut net = blocked_world();
        let censor = tr_block().build(&net);
        assert_eq!(censor.name(), "tr-election-block");
        net.add_middlebox(Box::new(censor));
        assert!(!fetch_ok(&mut net, SimTime::ZERO));
    }

    #[test]
    fn install_and_lift_toggle_reachability() {
        let mut net = blocked_world();
        let tl = PolicyTimeline::new()
            .at(SimTime::from_secs(100), PolicyChange::Install(tr_block()))
            .at(
                SimTime::from_secs(200),
                PolicyChange::Lift {
                    name: "tr-election-block".into(),
                },
            );

        assert!(fetch_ok(&mut net, SimTime::from_secs(10)));
        fire(&tl, 0..1, &mut net);
        assert!(!fetch_ok(&mut net, SimTime::from_secs(150)));
        fire(&tl, 1..2, &mut net);
        assert!(fetch_ok(&mut net, SimTime::from_secs(300)));
    }

    #[test]
    fn rewrite_swaps_mechanism_in_place() {
        let mut net = blocked_world();
        let reset_spec = CensorSpec::new(
            country("TR"),
            CensorPolicy::named("tr-election-block")
                .block_domain("twitter.com", Mechanism::TcpReset)
                .with_rule(
                    crate::policy::BlockTarget::Ip(
                        net.dns.authoritative("twitter.com").unwrap().ip,
                    ),
                    Mechanism::TcpReset,
                ),
        );
        let tl = PolicyTimeline::new()
            .at(SimTime::from_secs(1), PolicyChange::Install(tr_block()))
            .at(
                SimTime::from_secs(2),
                PolicyChange::Rewrite {
                    name: "tr-election-block".into(),
                    with: reset_spec,
                },
            );
        fire(&tl, 0..1, &mut net);
        let client = net.add_client(country("TR"), netsim::geo::IspClass::Residential);
        let mut rng = SimRng::new(3);
        let req = HttpRequest::get("http://twitter.com/favicon.ico");
        assert_eq!(
            net.fetch(&client, &req, SimTime::from_secs(1), &mut rng)
                .result,
            Err(FetchError::DnsNxDomain)
        );
        fire(&tl, 1..2, &mut net);
        net.dns.flush_caches();
        assert_eq!(
            net.fetch(&client, &req, SimTime::from_secs(2), &mut rng)
                .result,
            Err(FetchError::ConnectionReset),
            "rewritten policy should RST instead of NXDOMAIN"
        );
    }

    #[test]
    fn same_instant_changes_apply_in_schedule_order() {
        let mut net = blocked_world();
        let t = SimTime::from_secs(5);
        // Install then immediately lift at the same instant: net effect
        // is no censor (insertion order is the tie-break).
        let tl = PolicyTimeline::new()
            .at(t, PolicyChange::Install(tr_block()))
            .at(
                t,
                PolicyChange::Lift {
                    name: "tr-election-block".into(),
                },
            );
        fire(&tl, 0..tl.len(), &mut net);
        assert!(fetch_ok(&mut net, t));
        assert!(net.middleboxes().is_empty());
    }

    #[test]
    fn lift_of_unknown_name_is_noop() {
        let mut net = blocked_world();
        let change = PolicyChange::Lift {
            name: "never-installed".into(),
        };
        assert!(!change.apply(&mut net));
    }

    #[test]
    fn rewrite_preserves_interception_order() {
        let mut net = blocked_world();
        // Two censors: "first" sits closer to the client than "second".
        for name in ["first", "second"] {
            PolicyChange::Install(CensorSpec::new(
                country("TR"),
                CensorPolicy::named(name).block_domain("twitter.com", Mechanism::DnsNxDomain),
            ))
            .apply(&mut net);
        }
        // Rewriting "first" must not migrate it behind "second".
        PolicyChange::Rewrite {
            name: "first".into(),
            with: CensorSpec::new(
                country("TR"),
                CensorPolicy::named("first").block_domain("twitter.com", Mechanism::DnsDrop),
            ),
        }
        .apply(&mut net);
        let names: Vec<&str> = net.middleboxes().iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["first", "second"]);
        // And the rewritten mechanism is the one in force.
        let client = net.add_client(country("TR"), netsim::geo::IspClass::Residential);
        let mut rng = SimRng::new(5);
        let out = net.fetch(
            &client,
            &HttpRequest::get("http://twitter.com/favicon.ico"),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(out.result, Err(FetchError::DnsTimeout), "DnsDrop wins now");
    }

    #[test]
    fn rewrite_of_missing_name_installs_and_reports_a_change() {
        let mut net = blocked_world();
        let change = PolicyChange::Rewrite {
            name: "tr-election-block".into(),
            with: tr_block(),
        };
        assert!(change.apply(&mut net), "the world did change");
        assert_eq!(net.middleboxes().len(), 1);
        assert!(!fetch_ok(&mut net, SimTime::ZERO));
    }

    #[test]
    fn entries_stay_time_sorted_regardless_of_insert_order() {
        let tl = PolicyTimeline::new()
            .at(SimTime::from_secs(30), PolicyChange::Install(tr_block()))
            .at(
                SimTime::from_secs(10),
                PolicyChange::Lift { name: "x".into() },
            )
            .at(
                SimTime::from_secs(20),
                PolicyChange::Lift { name: "y".into() },
            );
        let times: Vec<u64> = tl.entries().iter().map(|(t, _)| t.as_secs()).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ip_resolution_spec_installs_firewall_rules() {
        let mut net = blocked_world();
        let spec = CensorSpec::new(
            country("CN"),
            CensorPolicy::named("fw").block_domain("twitter.com", Mechanism::IpDrop),
        )
        .with_ip_resolution();
        PolicyChange::Install(spec).apply(&mut net);
        let client = net.add_client(country("CN"), netsim::geo::IspClass::Residential);
        let mut rng = SimRng::new(4);
        let out = net.fetch(
            &client,
            &HttpRequest::get("http://twitter.com/favicon.ico"),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(out.result, Err(FetchError::ConnectTimeout));
    }
}

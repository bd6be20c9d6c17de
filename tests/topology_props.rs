//! Property tests for the scale-free AS topology and its
//! congestion-vs-control-plane contract.
//!
//! Satellite properties of the routed-world tentpole:
//!
//! * **generator soundness** — degree structure (heavier tails under a
//!   smaller exponent), connectivity/symmetry of the precomputed route
//!   tables, and byte-identical regeneration from the same seed;
//! * **memo invalidation** — every `Network::set_topology` strictly
//!   bumps the network's topology generation (the key every path-quality
//!   memo and warm session validates against), and a topology rebuilt
//!   from the same seed routes identically;
//! * **data-plane isolation** — a hotspot brownout sheds fetches but
//!   never changes a DNS verdict, the middlebox set, or any
//!   pipeline-compilation counter. The isolation check is
//!   mutation-verified: control-plane tampering dressed up as a
//!   "brownout" (a replaced topology, a middlebox flush) must be
//!   caught by the very observables the property asserts on.

use encore_repro::netsim::geo::{country, IspClass, World};
use encore_repro::netsim::http::HttpRequest;
use encore_repro::netsim::network::{FailureStage, FetchError, Network};
use encore_repro::netsim::scenario::WorldScenario;
use encore_repro::netsim::topology::TopologyConfig;
use encore_repro::netsim::AsTopology;
use encore_repro::sim_core::{SimRng, SimTime};
use proptest::prelude::*;

/// Countries exercised by the routing properties — a spread of regions
/// from the built-in world table.
const PROBE_COUNTRIES: [&str; 8] = ["US", "CN", "TR", "DE", "BR", "IN", "IR", "JP"];

/// Share of all edge endpoints owned by the highest-degree AS, averaged
/// over `reps` seeds derived from `seed` — the tail-heaviness statistic
/// the generator's exponent knob must move.
fn max_degree_share(seed: u64, gamma: f64, reps: u64) -> f64 {
    let mut total = 0.0;
    for i in 0..reps {
        let t = AsTopology::generate(TopologyConfig {
            seed: encore_repro::sim_core::splitmix_mix(seed ^ i),
            ases: 128,
            degree_exponent: gamma,
            ..TopologyConfig::default()
        });
        let max = t.degrees().iter().copied().max().unwrap_or(0) as f64;
        let sum: u32 = t.degrees().iter().sum();
        total += max / sum.max(1) as f64;
    }
    total / reps as f64
}

proptest! {
    // ------------------------------------------ generator structure

    #[test]
    fn same_seed_regenerates_byte_identically(seed in 0u64..1u64 << 48) {
        let a = AsTopology::generate(TopologyConfig::with_seed(seed));
        let b = AsTopology::generate(TopologyConfig::with_seed(seed));
        prop_assert_eq!(&a, &b);
        // Byte-level, not just structural: the path tables serialize to
        // identical JSON, so any persisted route artifact reproduces.
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn degrees_are_a_valid_multigraph_free_cover(seed in 0u64..1u64 << 48) {
        let t = AsTopology::generate(TopologyConfig::with_seed(seed));
        // Every AS attached with at least one link, and the degree
        // vector is exactly the links' endpoint multiset.
        prop_assert!(t.degrees().iter().all(|&d| d >= 1));
        let endpoint_sum: u32 = t.degrees().iter().sum();
        prop_assert_eq!(endpoint_sum as usize, 2 * t.links().len());
        // Links connect distinct ASes (no self-loops to hide in).
        prop_assert!(t.links().iter().all(|l| l.a != l.b));
    }

    #[test]
    fn routes_are_connected_and_symmetric(seed in 0u64..1u64 << 48) {
        let t = AsTopology::generate(TopologyConfig::with_seed(seed));
        let n = t.ases() as u32;
        for a in PROBE_COUNTRIES {
            for b in PROBE_COUNTRIES {
                let hops = t.hops_between(country(a), country(b));
                // BFS distance: bounded by the graph size (reachable),
                // zero only within one AS.
                prop_assert!(hops < n, "{a}->{b} unreachable");
                prop_assert_eq!(
                    hops,
                    t.hops_between(country(b), country(a)),
                    "shortest-path length must be symmetric"
                );
                if a == b {
                    prop_assert_eq!(hops, 0);
                }
            }
        }
    }

    #[test]
    fn smaller_exponent_means_heavier_degree_tail(seed in 0u64..1u64 << 40) {
        // γ = 2.1 (heavy tail) must concentrate more endpoints on the
        // top AS than γ = 3.0 (pure preferential attachment), averaged
        // over derived seeds to wash out single-draw noise.
        let heavy = max_degree_share(seed, 2.1, 6);
        let light = max_degree_share(seed.wrapping_add(0x5EED), 3.0, 6);
        prop_assert!(
            heavy > light,
            "tail heaviness did not increase: share(2.1)={heavy:.4} <= share(3.0)={light:.4}"
        );
    }

    // ------------------------------------------ memo invalidation

    /// Attaching a regenerated topology bumps the network's generation,
    /// and a topology regenerated from the same seed routes identically.
    #[test]
    fn regenerate_bumps_generation_and_rebuilds_deterministically(
        seed_a in 0u64..1u64 << 48,
        seed_b in 0u64..1u64 << 48,
    ) {
        let topo = |seed| AsTopology::generate(TopologyConfig::with_seed(seed));
        let mut net = Network::new(World::builtin());
        // 0 with no topology, 1 once one is attached: warm sessions
        // (which start at 0) must revalidate their path memos.
        prop_assert_eq!(net.topology_generation(), 0);
        net.set_topology(topo(seed_a));
        prop_assert_eq!(net.topology_generation(), 1);
        net.set_topology(topo(seed_b));
        prop_assert_eq!(net.topology_generation(), 2, "a replacement must bump the memo key");
        net.set_topology(topo(seed_a));
        prop_assert_eq!(
            net.topology_generation(), 3,
            "every replacement bumps, even back to an old seed"
        );
        // Rebuilding from the original seed reproduces the graph and
        // path tables exactly — only the generation (the invalidation
        // key) differs.
        let fresh = topo(seed_a);
        let t = net.topology().expect("attached");
        prop_assert_eq!(t.links(), fresh.links());
        prop_assert_eq!(t.degrees(), fresh.degrees());
        for a in PROBE_COUNTRIES {
            for b in PROBE_COUNTRIES {
                prop_assert_eq!(
                    t.route_between(country(a), country(b)),
                    fresh.route_between(country(a), country(b))
                );
            }
        }
    }

    // ------------------------------------------ data-plane isolation

    #[test]
    fn shedding_never_changes_dns_verdicts_or_middlebox_coverage(
        seed in 0u64..1u64 << 40,
        level in 0.72f64..0.95,
    ) {
        // Baseline net and a browned-out twin, both: routed topology
        // (TR↔US hotspot forced), standing CN DNS censor.
        let (mut base, base_obs) = routed_censored_net(None);
        let (mut brown, brown_obs) = routed_censored_net(Some(level));
        prop_assert_eq!(&base_obs, &brown_obs, "builds must start identical");

        let (base_verdicts, _) = drive(&mut base, seed);
        let (brown_verdicts, sheds) = drive(&mut brown, seed);

        // The property: congestion may shed any fetch, but every DNS
        // verdict — censored or clean — is identical fetch-for-fetch.
        // (DNS censorship precedes transit: a block keeps full failure
        // visibility no matter how congested the path.)
        prop_assert_eq!(&base_verdicts, &brown_verdicts);
        // The CN censor actually fired, so "verdicts equal" is not
        // vacuous; and a hot brownout actually sheds, so the data plane
        // was genuinely under stress while the verdicts held.
        prop_assert!(base_verdicts.iter().any(|v| v.is_some()), "censor never fired");
        if level > 0.80 {
            prop_assert!(sheds > 0, "brownout at level {level:.2} never shed");
        }

        // Control-plane conservation: the brownout flip and the whole
        // shed-laden run left every compilation counter and the
        // middlebox set untouched.
        prop_assert_eq!(&observe(&brown), &brown_obs,
            "a brownout must not move control-plane observables");

        // Mutation verification: the observables must have teeth. A
        // "brownout" that actually replaces the topology (a reroute) or
        // flushes the middlebox set must be caught by the exact checks
        // above.
        let (mut mutant, mutant_obs) = routed_censored_net(Some(level));
        mutant.set_topology(AsTopology::generate(TopologyConfig::with_seed(seed ^ 1)));
        prop_assert!(observe(&mutant) != mutant_obs,
            "a replaced topology slipped past the generation observable");

        let (mut mutant, mutant_obs) = routed_censored_net(Some(level));
        mutant.clear_middleboxes();
        prop_assert!(observe(&mutant) != mutant_obs,
            "middlebox flush slipped past the coverage observable");
    }
}

/// Everything the data-plane isolation property watches: pipeline
/// compilation counters and the middlebox coverage itself.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ControlPlaneObservation {
    middlebox_generation: u64,
    behavior_generation: u64,
    topology_generation: u64,
    middlebox_names: Vec<String>,
}

fn observe(net: &Network) -> ControlPlaneObservation {
    ControlPlaneObservation {
        middlebox_generation: net.middlebox_generation(),
        behavior_generation: net.behavior_generation(),
        topology_generation: net.topology_generation(),
        middlebox_names: net
            .middleboxes()
            .iter()
            .map(|m| m.name().to_string())
            .collect(),
    }
}

/// The congestion fixture's routed world (TR path to the US target
/// crosses a hotspot) with the timeline fixture's standing CN DNS
/// censor, optionally browned out.
fn routed_censored_net(brownout: Option<f64>) -> (Network, ControlPlaneObservation) {
    let scenario = WorldScenario::new(bench::testkit::congested_fixture::scenario())
        .with_middlebox(std::sync::Arc::new(bench::testkit::standing_censor()));
    let mut net = scenario.build_shard(0, 1);
    if let Some(level) = brownout {
        net.topology_mut()
            .expect("routed world has a topology")
            .set_hotspot_background(level);
    }
    let obs = observe(&net);
    (net, obs)
}

/// Drive the same deterministic fetch sequence (CN and TR clients
/// against the fixture target) and report each fetch's DNS verdict plus
/// how many fetches the transit layer shed. Per-fetch RNGs keep the
/// draw streams aligned between a baseline and a browned-out twin even
/// when sheds consume extra draws.
fn drive(net: &mut Network, seed: u64) -> (Vec<Option<FetchError>>, usize) {
    let cn = net.add_client(country("CN"), IspClass::Residential);
    let tr = net.add_client(country("TR"), IspClass::Residential);
    let url = format!(
        "http://{}/favicon.ico",
        bench::testkit::congested_fixture::TARGET
    );
    let mut verdicts = Vec::new();
    let mut sheds = 0;
    for i in 0..48u64 {
        let client = if i % 2 == 0 { &cn } else { &tr };
        let mut rng = SimRng::new(seed ^ (i.wrapping_mul(0x9E37_79B9)));
        let out = net.fetch(
            client,
            &HttpRequest::get(&url),
            SimTime::from_secs(i * 30),
            &mut rng,
        );
        verdicts.push(match out.result {
            Err(e) if e.stage() == FailureStage::Dns => Some(e),
            _ => None,
        });
        if out.result == Err(FetchError::Congested) {
            sheds += 1;
        }
    }
    (verdicts, sheds)
}

//! Declarative network scenarios — the recipe a parallel run is built
//! from.
//!
//! A [`Network`] is full of thread-local machinery (boxed handlers,
//! `Rc`-shared stores in the crates above), so it can never cross a
//! thread boundary. What *can* cross threads is the recipe: a
//! [`NetworkScenario`] is plain `Send + Sync` data describing the path
//! model and constant-response servers over the built-in world table, and
//! every shard of a multi-core run calls [`NetworkScenario::build_shard`]
//! on its own thread to materialise a private, fully independent network.
//!
//! Two properties make the per-shard networks safe to merge afterwards:
//!
//! 1. **Identical topology.** Every shard builds from the same spec in
//!    the same order, so DNS names, server placement, and path qualities
//!    agree across shards.
//! 2. **Disjoint addressing.** Each shard's [`IpAllocator`] is striped
//!    ([`IpAllocator::sharded`]): shard *i* of *N* only ever hands out
//!    /16 block indices ≡ *i* (mod *N*). Client addresses — and therefore
//!    GeoIP ground truth — from different shards can be unioned without
//!    collisions.

use crate::geo::{CountryCode, World};
use crate::http::HttpResponse;
use crate::ip::IpAllocator;
use crate::middlebox::Middlebox;
use crate::network::{ConstHandler, Network};
use crate::path::PathModel;
use crate::topology::{AsTopology, TopologyConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A constant-response server to install (the scenario analogue of
/// `net.add_server(..., ConstHandler(...))`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// DNS name.
    pub domain: String,
    /// Hosting country.
    pub country: CountryCode,
    /// The response served for every request.
    pub response: HttpResponse,
}

/// Plain-data recipe for a routed AS topology: the graph configuration
/// plus the country pairs whose routes must cross a congestible hotspot
/// link (so scenarios can guarantee a measurement path is exposed to
/// transit congestion regardless of where betweenness concentrated
/// under this seed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Graph generation parameters (seed, size, degree exponent,
    /// hotspot count/capacity, shed threshold).
    pub config: TopologyConfig,
    /// Country pairs forced onto hotspot routes via
    /// [`AsTopology::ensure_hotspot_between`], in order.
    pub hotspot_pairs: Vec<(CountryCode, CountryCode)>,
}

impl TopologySpec {
    /// A spec with the default graph under `seed` and no forced pairs.
    pub fn with_seed(seed: u64) -> TopologySpec {
        TopologySpec {
            config: TopologyConfig::with_seed(seed),
            hotspot_pairs: Vec::new(),
        }
    }

    /// Builder: force the route between two countries across a hotspot.
    pub fn with_hotspot_between(mut self, a: CountryCode, b: CountryCode) -> TopologySpec {
        self.hotspot_pairs.push((a, b));
        self
    }

    /// Materialise the topology for shard `index` of `shards`: identical
    /// graph and routes on every shard, with hotspot capacities divided
    /// by the shard count so N shards each carrying 1/N of the offered
    /// load reproduce the serial run's utilisation.
    pub fn build_shard(&self, shards: usize) -> AsTopology {
        let mut topo = AsTopology::generate(self.config);
        for &(a, b) in &self.hotspot_pairs {
            topo.ensure_hotspot_between(a, b);
        }
        topo.scale_capacity(shards);
        topo
    }
}

/// A plain-data, thread-shareable recipe for building a [`Network`].
///
/// Richer deployments (stateful handlers, censor middleboxes, Encore
/// infrastructure) are layered on top by the caller after
/// [`build_shard`](NetworkScenario::build_shard) returns — those layers
/// live in crates above `netsim` and take `&mut Network` as usual.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkScenario {
    /// Use the jitter-free ideal path model instead of the default.
    pub ideal_paths: bool,
    /// Constant-response servers to install, in order.
    pub servers: Vec<ServerSpec>,
    /// Routed AS topology to attach; `None` (the default, and the value
    /// for every pre-topology scenario) keeps the flat path model with
    /// byte-identical behaviour.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub topology: Option<TopologySpec>,
}

impl NetworkScenario {
    /// A scenario over [`World::builtin`] with no servers and default
    /// paths.
    pub fn new() -> NetworkScenario {
        NetworkScenario::default()
    }

    /// Builder: attach a routed AS topology.
    pub fn with_topology(mut self, topology: TopologySpec) -> NetworkScenario {
        self.topology = Some(topology);
        self
    }

    /// Builder: switch to the jitter/loss-free path model.
    pub fn with_ideal_paths(mut self) -> NetworkScenario {
        self.ideal_paths = true;
        self
    }

    /// Builder: append a constant-response server.
    pub fn with_server(
        mut self,
        domain: impl Into<String>,
        country: CountryCode,
        response: HttpResponse,
    ) -> NetworkScenario {
        self.servers.push(ServerSpec {
            domain: domain.into(),
            country,
            response,
        });
        self
    }

    /// Build the serial network: identical to shard 0 of a 1-shard run.
    pub fn build(&self) -> Network {
        self.build_shard(0, 1)
    }

    /// Build shard `index` of `shards`: the same topology as every
    /// sibling, over a striped allocator whose address space is disjoint
    /// from every sibling's.
    pub fn build_shard(&self, index: usize, shards: usize) -> Network {
        let mut net = Network::with_allocator(
            World::builtin(),
            IpAllocator::sharded(index as u32, shards as u32),
        );
        if self.ideal_paths {
            net.path_model = PathModel::ideal();
        }
        for s in &self.servers {
            net.add_server(
                &s.domain,
                s.country,
                Box::new(ConstHandler(s.response.clone())),
            );
        }
        if let Some(spec) = &self.topology {
            net.set_topology(spec.build_shard(shards));
        }
        net
    }
}

/// A thread-shareable recipe for one middlebox — the missing piece that
/// lets *censored* (and otherwise intercepted) worlds ride inside a
/// shard-shared scenario. A boxed [`Middlebox`] itself can never cross a
/// thread boundary, but a factory of plain data can: each shard thread
/// calls [`MiddleboxFactory::build_middlebox`] against its own freshly built
/// network (so factories that compile rules against the network's DNS —
/// e.g. a firewall resolving its IP blacklist — see an identical
/// topology on every shard and compile identical rules).
///
/// `censor::timeline::CensorSpec` implements this trait, so national
/// censors drop straight into a [`WorldScenario`].
pub trait MiddleboxFactory: Send + Sync {
    /// Materialise the middlebox against a concrete network.
    fn build_middlebox(&self, net: &Network) -> Box<dyn Middlebox>;
}

/// A [`NetworkScenario`] plus deferred middlebox installation — the full
/// recipe for per-shard worlds whose middlebox set can also *mutate*
/// mid-run (policy timelines install/lift/rewrite through the network's
/// middlebox generation counter, and every shard replays the same
/// control schedule against the same starting set).
///
/// Installation order is the factory insertion order on every shard, so
/// the interception order — and therefore the middlebox generation
/// counter sequence under later mutations — is identical across shards.
#[derive(Clone)]
pub struct WorldScenario {
    /// The plain-data substrate recipe.
    pub base: NetworkScenario,
    factories: Vec<Arc<dyn MiddleboxFactory>>,
}

impl std::fmt::Debug for WorldScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldScenario")
            .field("base", &self.base)
            .field("middlebox_factories", &self.factories.len())
            .finish()
    }
}

impl WorldScenario {
    /// Wrap a plain scenario with no middleboxes.
    pub fn new(base: NetworkScenario) -> WorldScenario {
        WorldScenario {
            base,
            factories: Vec::new(),
        }
    }

    /// Builder: append a middlebox factory (installed after all servers,
    /// in insertion order).
    pub fn with_middlebox(mut self, factory: Arc<dyn MiddleboxFactory>) -> WorldScenario {
        self.factories.push(factory);
        self
    }

    /// Build the serial network: identical to shard 0 of a 1-shard run.
    pub fn build(&self) -> Network {
        self.build_shard(0, 1)
    }

    /// Build shard `index` of `shards`: the base scenario's striped
    /// network with every middlebox installed on top, in order.
    pub fn build_shard(&self, index: usize, shards: usize) -> Network {
        let mut net = self.base.build_shard(index, shards);
        for factory in &self.factories {
            let mb = factory.build_middlebox(&net);
            net.add_middlebox(mb);
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::{country, IspClass};
    use crate::http::{ContentType, HttpRequest};
    use sim_core::{SimRng, SimTime};

    fn scenario() -> NetworkScenario {
        NetworkScenario::new().with_ideal_paths().with_server(
            "target.example",
            country("US"),
            HttpResponse::ok(ContentType::Image, 400),
        )
    }

    #[test]
    fn scenario_is_send_and_sync() {
        fn check<T: Send + Sync + Clone>() {}
        check::<NetworkScenario>();
    }

    #[test]
    fn built_network_serves_the_spec() {
        let mut net = scenario().build();
        let client = net.add_client(country("DE"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let out = net.fetch(
            &client,
            &HttpRequest::get("http://target.example/favicon.ico"),
            SimTime::ZERO,
            &mut rng,
        );
        assert!(out.result.is_ok());
    }

    #[test]
    fn shards_share_topology_but_not_addresses() {
        let spec = scenario();
        let mut a = spec.build_shard(0, 2);
        let mut b = spec.build_shard(1, 2);
        for net in [&a, &b] {
            let answer = net.dns.authoritative("target.example").expect("registered");
            assert!(net.has_server(answer.ip), "every shard serves the spec");
        }
        let ca = a.add_client(country("PK"), IspClass::Residential);
        let cb = b.add_client(country("PK"), IspClass::Residential);
        assert_ne!(ca.ip, cb.ip, "shards must draw from disjoint space");
        assert_eq!(a.allocator.country_of(ca.ip), Some(country("PK")));
        assert_eq!(b.allocator.country_of(cb.ip), Some(country("PK")));
        // Cross-shard ground truth never conflicts: a's allocator simply
        // doesn't know b's ranges.
        assert_eq!(a.allocator.country_of(cb.ip), None);
    }

    struct NxFactory;
    impl MiddleboxFactory for NxFactory {
        fn build_middlebox(&self, _net: &Network) -> Box<dyn crate::middlebox::Middlebox> {
            struct Nx;
            impl crate::middlebox::Middlebox for Nx {
                fn name(&self) -> &str {
                    "nx-all"
                }
                fn applies_to(&self, _client: &crate::host::Host) -> bool {
                    true
                }
                fn on_dns(
                    &self,
                    _name: &str,
                    _ctx: &crate::middlebox::StageContext<'_>,
                ) -> crate::middlebox::DnsAction {
                    crate::middlebox::DnsAction::NxDomain
                }
            }
            Box::new(Nx)
        }
    }

    #[test]
    fn world_scenario_installs_middleboxes_on_every_shard() {
        let spec = WorldScenario::new(scenario()).with_middlebox(Arc::new(NxFactory));
        assert_eq!(spec.factories.len(), 1);
        for (i, n) in [(0usize, 2usize), (1, 2)] {
            let mut net = spec.build_shard(i, n);
            assert_eq!(net.middleboxes().len(), 1);
            assert_eq!(net.middleboxes()[0].name(), "nx-all");
            let client = net.add_client(country("DE"), IspClass::Residential);
            let mut rng = SimRng::new(1);
            let out = net.fetch(
                &client,
                &HttpRequest::get("http://target.example/favicon.ico"),
                SimTime::ZERO,
                &mut rng,
            );
            assert!(out.result.is_err(), "factory censor must bite on shard {i}");
        }
        // The scenario itself stays thread-shareable.
        fn check<T: Send + Sync + Clone>() {}
        check::<WorldScenario>();
    }

    #[test]
    fn one_shard_build_equals_serial_build() {
        let spec = scenario();
        let mut serial = spec.build();
        let mut one = spec.build_shard(0, 1);
        let cs = serial.add_client(country("IR"), IspClass::Mobile);
        let co = one.add_client(country("IR"), IspClass::Mobile);
        assert_eq!(cs.ip, co.ip);
    }
}

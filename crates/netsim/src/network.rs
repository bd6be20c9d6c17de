//! The composed network: hosts, servers, middleboxes, and the fetch
//! pipeline.
//!
//! [`Network::fetch`] is the single entry point the browser emulator uses
//! for every HTTP exchange. It walks the three stages of paper §3.1 — DNS,
//! TCP, HTTP — consulting every applicable [`Middlebox`] at each stage and
//! accumulating a timing breakdown. The returned [`FetchOutcome`] is
//! everything a browser can observe: either a response (possibly a censor's
//! block page — the *browser* decides whether that makes an `img` fire
//! `onerror`) or a failure with its stage and elapsed time.

use crate::dns::DnsSystem;
use crate::geo::{Country, CountryCode, IspClass, World};
use crate::host::{Host, HostId};
use crate::http::{HttpRequest, HttpResponse};
use crate::ip::IpAllocator;
use crate::middlebox::Middlebox;
use crate::path::{PathModel, PathQuality};
use crate::session::{FetchSession, SessionConfig};
use crate::topology::{AsTopology, TransitDecision, HOP_MS};
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Something that answers HTTP requests (sites, collectors, block-page
/// servers). Implemented by the `websim` and `encore` crates.
///
/// Handlers see the client's source address (`client_ip`), as a real
/// server would — Encore's collection server geolocates submissions from
/// exactly this information (paper §7: "We use a standard IP geolocation
/// database to determine client locations").
pub trait HttpHandler {
    /// Produce the response for `req` sent from `client_ip`.
    fn handle(&self, req: &HttpRequest, client_ip: Ipv4Addr, now: SimTime) -> HttpResponse;
}

/// A trivially constant handler, useful in tests.
pub struct ConstHandler(pub HttpResponse);

impl HttpHandler for ConstHandler {
    fn handle(&self, _req: &HttpRequest, _client_ip: Ipv4Addr, _now: SimTime) -> HttpResponse {
        self.0.clone()
    }
}

/// Why a fetch failed, as observable by the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FetchError {
    /// URL could not be parsed.
    BadUrl,
    /// DNS said the name does not exist.
    DnsNxDomain,
    /// DNS query went unanswered.
    DnsTimeout,
    /// Connection reset during handshake or exchange.
    ConnectionReset,
    /// Connect attempt timed out (silent drops or unroutable address).
    ConnectTimeout,
    /// Established, but no response arrived in time.
    ResponseTimeout,
    /// Shed at a congested transit link, with a near-source congestion
    /// signal back along the path (see [`crate::topology`]). Fails fast
    /// during connection establishment — the signal is what lets
    /// measurement distinguish congestion collapse from censorship.
    Congested,
}

/// Timing breakdown of a fetch (all durations are cumulative elapsed wall
/// time in simulation units).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FetchTimings {
    /// Time spent on DNS.
    pub dns: SimDuration,
    /// Time spent establishing the connection.
    pub connect: SimDuration,
    /// Time from request sent to first byte of response.
    pub ttfb: SimDuration,
    /// Body transfer time.
    pub transfer: SimDuration,
}

impl FetchTimings {
    /// Total elapsed time.
    pub fn total(&self) -> SimDuration {
        self.dns + self.connect + self.ttfb + self.transfer
    }
}

/// Everything a client observes from one fetch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FetchOutcome {
    /// The response, or the failure.
    pub result: Result<HttpResponse, FetchError>,
    /// Timing breakdown (meaningful for failures too: a timeout's elapsed
    /// time is the timeout duration — that asymmetry between RST and drop
    /// censorship is measurable).
    pub timings: FetchTimings,
    /// The address the request was (or would have been) sent to.
    pub server_ip: Option<Ipv4Addr>,
}

impl FetchOutcome {
    pub(crate) fn fail(
        err: FetchError,
        timings: FetchTimings,
        server_ip: Option<Ipv4Addr>,
    ) -> FetchOutcome {
        FetchOutcome {
            result: Err(err),
            timings,
            server_ip,
        }
    }
}

struct ServerEntry {
    host: Host,
    handler: Box<dyn HttpHandler>,
}

/// Memoised [`Network::quality_between`] results, keyed on what path
/// quality is a pure function of: (client country, client ISP class,
/// destination country) — at most |countries|² × |ISP classes| entries,
/// however many clients come and go. The destination country is resolved
/// fresh on every call, so new servers and address blocks cannot stale an
/// entry; the rest of the inputs (path model, world table, topology
/// generation) are fingerprinted, and the memo clears when one moves. The
/// one unwatched edit — replacing an *existing* country's record in a live
/// network's world — is something no caller does (worlds are built before
/// the network).
#[derive(Default)]
struct QualityMemo {
    model: Option<PathModel>,
    world_len: usize,
    /// Topology generation the memo was computed under (see
    /// [`Network::topology_generation`]) — a replaced topology reroutes,
    /// which changes hop counts and therefore RTTs.
    topology_generation: u64,
    map: std::collections::HashMap<
        (CountryCode, IspClass, CountryCode),
        PathQuality,
        sim_core::FxBuildHasher,
    >,
}

/// The simulated Internet: world, DNS, servers, middleboxes, path model.
pub struct Network {
    /// Country table.
    pub world: World,
    /// DNS database + resolver caches.
    pub dns: DnsSystem,
    /// Address allocator (ground truth for GeoIP).
    pub allocator: IpAllocator,
    /// Path quality model.
    pub path_model: PathModel,
    servers: BTreeMap<Ipv4Addr, ServerEntry>,
    /// Memoised path qualities (see [`Network::quality_between`]).
    quality_memo: std::cell::RefCell<QualityMemo>,
    middleboxes: Vec<Box<dyn Middlebox>>,
    /// Bumped whenever the middlebox set changes, so sessions know when
    /// their compiled pipelines are stale. Starts at 1 (sessions start at
    /// 0) so a fresh session always compiles once.
    middlebox_generation: u64,
    /// Bumped whenever a control signal changes a middlebox's *behaviour*
    /// (coverage unchanged — see [`Network::signal_middlebox`]), so
    /// memoised per-host censor verdicts know to revalidate without the
    /// heavier pipeline rebuild a set change triggers. Starts at 1 to
    /// match the middlebox generation convention.
    behavior_generation: u64,
    /// Routed AS topology with congested transit links; `None` (the
    /// default) preserves the flat path model exactly — no extra RNG
    /// draws, no RTT changes, byte-identical worlds.
    topology: Option<AsTopology>,
    /// Bumped by every [`Network::set_topology`]; 0 while none is
    /// attached.
    topology_generation: u64,
    next_host_id: u64,
}

impl Network {
    /// A network over the built-in world with default models.
    pub fn new(world: World) -> Network {
        Network {
            world,
            dns: DnsSystem::new(),
            allocator: IpAllocator::new(),
            path_model: PathModel::default(),
            servers: BTreeMap::new(),
            quality_memo: std::cell::RefCell::new(QualityMemo::default()),
            middleboxes: Vec::new(),
            middlebox_generation: 1,
            behavior_generation: 1,
            topology: None,
            topology_generation: 0,
            next_host_id: 0,
        }
    }

    /// A network with no jitter/loss — exact timings for unit tests.
    pub fn ideal(world: World) -> Network {
        let mut n = Network::new(world);
        n.path_model = PathModel::ideal();
        n
    }

    /// A network drawing every address from the given allocator (e.g. a
    /// striped shard allocator). Installing it at construction — before
    /// any client or server can allocate — is what makes per-shard
    /// address disjointness structural rather than an ordering
    /// convention.
    pub fn with_allocator(world: World, allocator: IpAllocator) -> Network {
        let mut n = Network::new(world);
        n.allocator = allocator;
        n
    }

    fn next_id(&mut self) -> HostId {
        let id = HostId(self.next_host_id);
        self.next_host_id += 1;
        id
    }

    /// Attach a client host in `country` on the given access network.
    pub fn add_client(&mut self, country: CountryCode, isp: IspClass) -> Host {
        let ip = self.allocator.allocate(country);
        let id = self.next_id();
        Host::new(id, ip, country, isp)
    }

    /// Attach a server: allocates an address in `country`, registers
    /// `dns_name`, and installs the handler. Returns the server host.
    pub fn add_server(
        &mut self,
        dns_name: &str,
        country: CountryCode,
        handler: Box<dyn HttpHandler>,
    ) -> Host {
        let ip = self.allocator.allocate(country);
        let id = self.next_id();
        let host = Host::new(id, ip, country, IspClass::Datacenter);
        self.dns.register(dns_name, ip);
        self.servers.insert(
            ip,
            ServerEntry {
                host: host.clone(),
                handler,
            },
        );
        host
    }

    /// Swap the HTTP handler of the server `dns_name` resolves to, keeping
    /// its address, host identity, and DNS record untouched. This is the
    /// hook benign-disruption events (origin outages, cert rotations, site
    /// redesigns) mutate a standing world through: unlike re-adding the
    /// server, no new address is allocated, so the IP allocator state —
    /// and with it shard determinism — is unaffected. Returns `false` and
    /// changes nothing if the name is unregistered.
    pub fn replace_server_handler(
        &mut self,
        dns_name: &str,
        handler: Box<dyn HttpHandler>,
    ) -> bool {
        let Some(answer) = self.dns.authoritative(dns_name) else {
            return false;
        };
        match self.servers.get_mut(&answer.ip) {
            Some(entry) => {
                entry.handler = handler;
                true
            }
            None => false,
        }
    }

    /// Install a middlebox. Order matters: earlier middleboxes are closer
    /// to the client and win ties.
    pub fn add_middlebox(&mut self, mb: Box<dyn Middlebox>) {
        self.middleboxes.push(mb);
        self.middlebox_generation += 1;
    }

    /// Remove all middleboxes (between experiment phases).
    pub fn clear_middleboxes(&mut self) {
        self.middleboxes.clear();
        self.middlebox_generation += 1;
    }

    /// Remove the first middlebox whose diagnostic name matches, returning
    /// whether one was removed. This is the hook live policy schedules
    /// (`censor::timeline`) mutate the world through: a removal bumps the
    /// middlebox generation counter, so every compiled
    /// [`crate::session::FetchSession`] pipeline re-matches before its
    /// next fetch instead of consulting stale indices.
    pub fn remove_middlebox(&mut self, name: &str) -> bool {
        match self.middleboxes.iter().position(|mb| mb.name() == name) {
            Some(idx) => {
                self.middleboxes.remove(idx);
                self.middlebox_generation += 1;
                true
            }
            None => false,
        }
    }

    /// Replace the first middlebox with the given name **in place**: the
    /// replacement inherits the old one's slot in the interception order
    /// (order encodes distance from the client, so a rewritten policy
    /// must not migrate to the far end of the chain). Bumps the
    /// generation counter on success; returns `false` and leaves the set
    /// untouched if no middlebox has that name.
    pub fn replace_middlebox(&mut self, name: &str, replacement: Box<dyn Middlebox>) -> bool {
        match self.middleboxes.iter().position(|mb| mb.name() == name) {
            Some(idx) => {
                self.middleboxes[idx] = replacement;
                self.middlebox_generation += 1;
                true
            }
            None => false,
        }
    }

    /// Whether a middlebox with this diagnostic name is installed.
    pub fn has_middlebox(&self, name: &str) -> bool {
        self.middleboxes.iter().any(|mb| mb.name() == name)
    }

    /// Deliver a control signal to the first middlebox with this name
    /// (see [`Middlebox::on_control`]). Returns whether a middlebox
    /// understood the signal and changed state. Control signals change
    /// *behaviour*, never coverage, so the generation counter is
    /// deliberately **not** bumped — compiled session pipelines stay
    /// valid and the signal is observable on the very next fetch.
    pub fn signal_middlebox(&mut self, name: &str, signal: &str, now: SimTime) -> bool {
        match self.middleboxes.iter().find(|mb| mb.name() == name) {
            Some(mb) => {
                let changed = mb.on_control(signal, now);
                if changed {
                    self.behavior_generation += 1;
                }
                changed
            }
            None => false,
        }
    }

    /// The installed middleboxes, client-nearest first.
    pub fn middleboxes(&self) -> &[Box<dyn Middlebox>] {
        &self.middleboxes
    }

    /// Generation counter of the middlebox set (see
    /// [`crate::session::FetchSession`]'s pipeline compilation).
    pub fn middlebox_generation(&self) -> u64 {
        self.middlebox_generation
    }

    /// Generation counter of middlebox *behaviour*: bumped by control
    /// signals that change state ([`Network::signal_middlebox`]), so
    /// sessions invalidate memoised per-host verdicts without rebuilding
    /// their pipelines.
    pub fn behavior_generation(&self) -> u64 {
        self.behavior_generation
    }

    /// Attach a routed AS topology, replacing any attached one. Fetches
    /// now cross precomputed AS routes: hop counts lengthen RTTs, and
    /// congested hotspot links delay or shed traffic (see
    /// [`crate::topology`]). Bumps the topology generation, so cached
    /// path qualities revalidate.
    pub fn set_topology(&mut self, topology: AsTopology) {
        self.topology = Some(topology);
        self.topology_generation += 1;
    }

    /// Mutable access to the attached topology (brownout control events
    /// flip link background load through this).
    pub fn topology_mut(&mut self) -> Option<&mut AsTopology> {
        self.topology.as_mut()
    }

    /// Generation counter of the routed topology: 0 with no topology
    /// attached, bumped by every [`Network::set_topology`]. Sessions
    /// start at 0, so one created before a topology is attached
    /// revalidates on its next fetch; [`Network::topology_mut`] changes
    /// no route, so it leaves the counter alone.
    pub fn topology_generation(&self) -> u64 {
        self.topology_generation
    }

    /// The country a fetch to `server_ip` terminates in, resolved the
    /// same way path quality resolves it: the server registry first,
    /// then the address plan, then the client's own country. A host's own
    /// address was allocated in its own country, so it needs no lookup.
    fn server_country(&self, client: &Host, server_ip: Ipv4Addr) -> CountryCode {
        if server_ip == client.ip {
            return client.country;
        }
        self.servers
            .get(&server_ip)
            .map(|e| e.host.country)
            .or_else(|| self.allocator.country_of(server_ip))
            .unwrap_or(client.country)
    }

    /// Route one fetch across the topology's transit links and decide
    /// its fate. Without a topology this is a constant [`Pass`] and
    /// consumes no RNG draws; with one, it consumes at most a single
    /// draw, and zero while every link on the route is under threshold
    /// (see [`AsTopology::transit`]).
    ///
    /// [`Pass`]: TransitDecision::Pass
    pub(crate) fn transit_decision(
        &mut self,
        client: &Host,
        server_ip: Ipv4Addr,
        now: SimTime,
        rng: &mut SimRng,
    ) -> TransitDecision {
        match self.topology {
            None => TransitDecision::Pass,
            Some(_) => {
                let dst = self.server_country(client, server_ip);
                let src = client.country;
                self.topology
                    .as_mut()
                    .expect("checked above")
                    .transit(src, dst, now, rng)
            }
        }
    }

    /// Whether a server is listening at `ip`.
    pub fn has_server(&self, ip: Ipv4Addr) -> bool {
        self.servers.contains_key(&ip)
    }

    /// Dispatch a request to the server at `ip` (which must exist).
    pub(crate) fn handle_request(
        &self,
        ip: Ipv4Addr,
        req: &HttpRequest,
        client_ip: Ipv4Addr,
        now: SimTime,
    ) -> HttpResponse {
        self.servers
            .get(&ip)
            .expect("handle_request requires an existing server")
            .handler
            .handle(req, client_ip, now)
    }

    /// The country record for a host (falls back to a default if the world
    /// table is missing the code — only possible with hand-built worlds).
    pub(crate) fn country_record(&self, code: CountryCode) -> Country {
        self.world.get(code).cloned().unwrap_or_else(|| Country {
            code,
            name: format!("Unknown-{code}"),
            region: crate::geo::Region::Europe,
            access_latency_ms: 50.0,
            transient_failure_rate: 0.02,
            population_weight: 0.1,
            known_filtering: false,
        })
    }

    /// A country's access latency without cloning the whole record (the
    /// session layer reads this once per fetch); the fallback matches
    /// [`Network::country_record`]'s default.
    pub(crate) fn access_latency_ms(&self, code: CountryCode) -> f64 {
        self.world.get(code).map_or(50.0, |c| c.access_latency_ms)
    }

    /// Path quality between a client and a server address (or a default
    /// long path when the address is not ours / unroutable).
    pub(crate) fn quality_between(&self, client: &Host, server_ip: Ipv4Addr) -> PathQuality {
        let mut memo = self.quality_memo.borrow_mut();
        if memo.model != Some(self.path_model)
            || memo.world_len != self.world.len()
            || memo.topology_generation != self.topology_generation()
        {
            memo.map.clear();
            memo.model = Some(self.path_model);
            memo.world_len = self.world.len();
            memo.topology_generation = self.topology_generation();
        }
        let server_country = self.server_country(client, server_ip);
        let key = (client.country, client.isp, server_country);
        if let Some(&q) = memo.map.get(&key) {
            return q;
        }
        let q = self.quality_between_uncached(client, server_country);
        memo.map.insert(key, q);
        q
    }

    /// The raw path-quality computation behind the memo, towards a
    /// destination already resolved to `server_country`.
    fn quality_between_uncached(&self, client: &Host, server_country: CountryCode) -> PathQuality {
        // Borrow the world records when present (the overwhelmingly common
        // case) instead of cloning them; fall back to the synthesised
        // default only for hand-built worlds missing a code.
        let mut q = match (
            self.world.get(client.country),
            self.world.get(server_country),
        ) {
            (Some(cc), Some(sc)) => self.path_model.quality(client, cc, sc),
            _ => {
                let cc = self.country_record(client.country);
                let sc = self.country_record(server_country);
                self.path_model.quality(client, &cc, &sc)
            }
        };
        // Routed paths pay per-AS-hop transit latency on top of the flat
        // model's access/backbone terms.
        if let Some(topo) = &self.topology {
            q.rtt_median_ms += HOP_MS * topo.hops_between(client.country, server_country) as f64;
        }
        q
    }

    /// Perform one HTTP fetch from `client` at time `now`.
    ///
    /// This is the legacy one-shot entry point, kept for tests and simple
    /// callers: it runs the full §3.1 pipeline through a throwaway
    /// cold [`FetchSession`], so every request pays DNS + TCP + HTTP from
    /// scratch. Callers issuing more than one request per client should
    /// hold a [`FetchSession`] (the browser emulator does) and fetch
    /// through it instead. The five failure timings matter:
    ///
    /// * forged NXDOMAIN — fast (1 local RTT);
    /// * dropped DNS — slow ([`crate::tcp::DNS_TIMEOUT`]);
    /// * RST — fast (1 RTT);
    /// * dropped SYN / unroutable sinkhole — slow ([`crate::tcp::CONNECT_TIMEOUT`]);
    /// * dropped HTTP — slow ([`crate::tcp::HTTP_TIMEOUT`]).
    pub fn fetch(
        &mut self,
        client: &Host,
        req: &HttpRequest,
        now: SimTime,
        rng: &mut SimRng,
    ) -> FetchOutcome {
        let mut session = FetchSession::with_config(client.clone(), SessionConfig::cold());
        session.fetch(self, req, now, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::country;
    use crate::http::ContentType;
    use crate::middlebox::{DnsAction, HttpAction, StageContext, TcpAction};
    use crate::tcp::{TcpAttempt, CONNECT_TIMEOUT};

    fn network() -> Network {
        Network::ideal(World::builtin())
    }

    fn img_handler(bytes: u64) -> Box<ConstHandler> {
        Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, bytes)))
    }

    #[test]
    fn successful_fetch_returns_response_and_timings() {
        let mut n = network();
        n.add_server("example.com", country("US"), img_handler(400));
        let client = n.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let out = n.fetch(
            &client,
            &HttpRequest::get("http://example.com/favicon.ico"),
            SimTime::ZERO,
            &mut rng,
        );
        let resp = out.result.expect("should succeed");
        assert_eq!(resp.status, StatusCode::OK);
        assert!(out.timings.dns > SimDuration::ZERO);
        assert!(out.timings.connect > SimDuration::ZERO);
        assert!(out.timings.total() < SimDuration::from_secs(2));
    }

    use crate::http::StatusCode;

    #[test]
    fn unknown_domain_is_nxdomain() {
        let mut n = network();
        let client = n.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let out = n.fetch(
            &client,
            &HttpRequest::get("http://no-such-host.example/"),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(out.result, Err(FetchError::DnsNxDomain));
    }

    #[test]
    fn bad_url_fails_fast() {
        let mut n = network();
        let client = n.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let out = n.fetch(
            &client,
            &HttpRequest::get("not a url"),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(out.result, Err(FetchError::BadUrl));
        assert_eq!(out.timings.total(), SimDuration::ZERO);
    }

    #[test]
    fn dns_cache_makes_second_fetch_faster() {
        let mut n = network();
        n.add_server("example.com", country("US"), img_handler(400));
        let client = n.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let req = HttpRequest::get("http://example.com/a.png");
        let t1 = n.fetch(&client, &req, SimTime::ZERO, &mut rng).timings.dns;
        let t2 = n
            .fetch(&client, &req, SimTime::from_secs(1), &mut rng)
            .timings
            .dns;
        assert!(t2 < t1);
    }

    #[test]
    fn dangling_dns_record_times_out_at_connect() {
        let mut n = network();
        // DNS resolves, but nothing listens at the address.
        n.dns
            .register("ghost.example", Ipv4Addr::new(100, 99, 0, 1));
        let client = n.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let out = n.fetch(
            &client,
            &HttpRequest::get("http://ghost.example/"),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(out.result, Err(FetchError::ConnectTimeout));
        assert_eq!(out.timings.connect, CONNECT_TIMEOUT);
    }

    struct DnsBlocker;
    impl Middlebox for DnsBlocker {
        fn name(&self) -> &str {
            "dns-blocker"
        }
        fn applies_to(&self, client: &Host) -> bool {
            client.country == country("PK")
        }
        fn on_dns(&self, name: &str, _ctx: &StageContext<'_>) -> DnsAction {
            if name == "censored.com" {
                DnsAction::NxDomain
            } else {
                DnsAction::Pass
            }
        }
    }

    #[test]
    fn middlebox_blocks_only_applicable_clients() {
        let mut n = network();
        n.add_server("censored.com", country("US"), img_handler(400));
        n.add_middlebox(Box::new(DnsBlocker));
        let pk = n.add_client(country("PK"), IspClass::Residential);
        let us = n.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let req = HttpRequest::get("http://censored.com/x.png");
        let blocked = n.fetch(&pk, &req, SimTime::ZERO, &mut rng);
        assert_eq!(blocked.result, Err(FetchError::DnsNxDomain));
        let ok = n.fetch(&us, &req, SimTime::ZERO, &mut rng);
        assert!(ok.result.is_ok());
    }

    #[test]
    fn middlebox_scope_is_per_domain() {
        let mut n = network();
        n.add_server("censored.com", country("US"), img_handler(400));
        n.add_server("fine.com", country("US"), img_handler(400));
        n.add_middlebox(Box::new(DnsBlocker));
        let pk = n.add_client(country("PK"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let ok = n.fetch(
            &pk,
            &HttpRequest::get("http://fine.com/y.png"),
            SimTime::ZERO,
            &mut rng,
        );
        assert!(ok.result.is_ok());
    }

    struct RstInjector;
    impl Middlebox for RstInjector {
        fn name(&self) -> &str {
            "rst"
        }
        fn applies_to(&self, _c: &Host) -> bool {
            true
        }
        fn on_tcp(&self, _a: &TcpAttempt, _ctx: &StageContext<'_>) -> TcpAction {
            TcpAction::Reset
        }
    }

    struct SynDropper;
    impl Middlebox for SynDropper {
        fn name(&self) -> &str {
            "syndrop"
        }
        fn applies_to(&self, _c: &Host) -> bool {
            true
        }
        fn on_tcp(&self, _a: &TcpAttempt, _ctx: &StageContext<'_>) -> TcpAction {
            TcpAction::Drop
        }
    }

    #[test]
    fn rst_fails_fast_drop_fails_slow() {
        let mut rng = SimRng::new(1);
        let req = HttpRequest::get("http://example.com/");

        let mut n1 = network();
        n1.add_server("example.com", country("US"), img_handler(400));
        n1.add_middlebox(Box::new(RstInjector));
        let c1 = n1.add_client(country("US"), IspClass::Residential);
        let rst = n1.fetch(&c1, &req, SimTime::ZERO, &mut rng);

        let mut n2 = network();
        n2.add_server("example.com", country("US"), img_handler(400));
        n2.add_middlebox(Box::new(SynDropper));
        let c2 = n2.add_client(country("US"), IspClass::Residential);
        let drop = n2.fetch(&c2, &req, SimTime::ZERO, &mut rng);

        assert_eq!(rst.result, Err(FetchError::ConnectionReset));
        assert_eq!(drop.result, Err(FetchError::ConnectTimeout));
        // The observable asymmetry (paper: timing side channel).
        assert!(rst.timings.total() * 10 < drop.timings.total());
    }

    struct BlockPager;
    impl Middlebox for BlockPager {
        fn name(&self) -> &str {
            "blockpage"
        }
        fn applies_to(&self, _c: &Host) -> bool {
            true
        }
        fn on_http_request(&self, req: &HttpRequest, _ctx: &StageContext<'_>) -> HttpAction {
            if req.url.contains("banned") {
                HttpAction::BlockPage
            } else {
                HttpAction::Pass
            }
        }
    }

    #[test]
    fn block_page_replaces_response() {
        let mut n = network();
        n.add_server("example.com", country("US"), img_handler(400));
        n.add_middlebox(Box::new(BlockPager));
        let c = n.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let out = n.fetch(
            &c,
            &HttpRequest::get("http://example.com/banned.png"),
            SimTime::ZERO,
            &mut rng,
        );
        let resp = out.result.unwrap();
        // A block page is an HTML 200 — NOT an image. The browser's img
        // loader will fire onerror on this.
        assert_eq!(resp.content_type, ContentType::Html);
        assert!(resp.keywords.contains(&"blocked".to_string()));
    }

    struct KeywordCensor;
    impl Middlebox for KeywordCensor {
        fn name(&self) -> &str {
            "keyword"
        }
        fn applies_to(&self, _c: &Host) -> bool {
            true
        }
        fn on_http_response(
            &self,
            _req: &HttpRequest,
            resp: &HttpResponse,
            _ctx: &StageContext<'_>,
        ) -> HttpAction {
            if resp.keywords.iter().any(|k| k == "forbidden-topic") {
                HttpAction::Reset
            } else {
                HttpAction::Pass
            }
        }
    }

    #[test]
    fn response_keyword_censorship_resets() {
        let mut n = network();
        let mut resp = HttpResponse::ok(ContentType::Html, 10_000);
        resp.keywords = vec!["forbidden-topic".to_string()];
        n.add_server("news.example", country("US"), Box::new(ConstHandler(resp)));
        n.add_middlebox(Box::new(KeywordCensor));
        let c = n.add_client(country("CN"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let out = n.fetch(
            &c,
            &HttpRequest::get("http://news.example/article"),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(out.result, Err(FetchError::ConnectionReset));
    }

    #[test]
    fn dns_redirect_to_sinkhole_times_out() {
        struct Redirector;
        impl Middlebox for Redirector {
            fn name(&self) -> &str {
                "redir"
            }
            fn applies_to(&self, _c: &Host) -> bool {
                true
            }
            fn on_dns(&self, _n: &str, _ctx: &StageContext<'_>) -> DnsAction {
                DnsAction::Redirect(Ipv4Addr::new(100, 66, 6, 6))
            }
        }
        let mut n = network();
        n.add_server("example.com", country("US"), img_handler(400));
        n.add_middlebox(Box::new(Redirector));
        let c = n.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let out = n.fetch(
            &c,
            &HttpRequest::get("http://example.com/"),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(out.result, Err(FetchError::ConnectTimeout));
        assert_eq!(out.server_ip, Some(Ipv4Addr::new(100, 66, 6, 6)));
    }

    #[test]
    fn larger_bodies_take_longer() {
        let mut n = network();
        n.add_server("small.example", country("US"), img_handler(500));
        n.add_server("large.example", country("US"), img_handler(500_000));
        let c = n.add_client(country("US"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let small = n
            .fetch(
                &c,
                &HttpRequest::get("http://small.example/"),
                SimTime::ZERO,
                &mut rng,
            )
            .timings
            .transfer;
        let large = n
            .fetch(
                &c,
                &HttpRequest::get("http://large.example/"),
                SimTime::ZERO,
                &mut rng,
            )
            .timings
            .transfer;
        assert!(large > small * 100);
    }

    #[test]
    fn fetch_is_deterministic_given_seed() {
        let run = || {
            let mut n = network();
            n.path_model = PathModel::default(); // jitter on
            n.add_server("example.com", country("BR"), img_handler(1_234));
            let c = n.add_client(country("JP"), IspClass::Mobile);
            let mut rng = SimRng::new(99);
            let out = n.fetch(
                &c,
                &HttpRequest::get("http://example.com/i.png"),
                SimTime::ZERO,
                &mut rng,
            );
            out.timings.total().as_micros()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn remove_middlebox_unblocks_and_bumps_generation() {
        let mut n = network();
        n.add_server("censored.com", country("US"), img_handler(400));
        n.add_middlebox(Box::new(DnsBlocker));
        let gen_installed = n.middlebox_generation();
        let pk = n.add_client(country("PK"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        let req = HttpRequest::get("http://censored.com/x.png");
        assert!(n.fetch(&pk, &req, SimTime::ZERO, &mut rng).result.is_err());

        assert!(n.remove_middlebox("dns-blocker"));
        assert!(n.middlebox_generation() > gen_installed);
        assert!(n.fetch(&pk, &req, SimTime::ZERO, &mut rng).result.is_ok());
        // Removing a name that is no longer installed is a no-op.
        let gen_after = n.middlebox_generation();
        assert!(!n.remove_middlebox("dns-blocker"));
        assert_eq!(n.middlebox_generation(), gen_after);
    }

    #[test]
    fn remove_middlebox_invalidates_warm_session_pipelines() {
        let mut n = network();
        n.add_server("censored.com", country("US"), img_handler(400));
        n.add_middlebox(Box::new(DnsBlocker));
        let pk = n.add_client(country("PK"), IspClass::Residential);
        let mut session = FetchSession::new(pk);
        let mut rng = SimRng::new(2);
        let req = HttpRequest::get("http://censored.com/x.png");
        // Compile the pipeline with the blocker installed.
        assert!(session
            .fetch(&mut n, &req, SimTime::ZERO, &mut rng)
            .result
            .is_err());
        // Lift it: the warm session must re-match, not replay the block.
        n.remove_middlebox("dns-blocker");
        let out = session.fetch(&mut n, &req, SimTime::from_secs(1), &mut rng);
        assert!(out.result.is_ok(), "stale pipeline survived removal");
    }

    /// `count` fresh clients spread round-robin over every country of the
    /// world and every ISP class, each giving one cold fetch to a server
    /// and one to an address nothing listens at.
    fn churn_clients(n: &mut Network, codes: &[CountryCode], count: usize, rng: &mut SimRng) {
        let served = HttpRequest::get("http://example.com/i.png");
        let ghost = HttpRequest::get("http://ghost.example/");
        for i in 0..count {
            let isp = IspClass::ALL[(i / codes.len()) % IspClass::ALL.len()];
            let client = n.add_client(codes[i % codes.len()], isp);
            assert!(n.fetch(&client, &served, SimTime::ZERO, rng).result.is_ok());
            assert!(n.fetch(&client, &ghost, SimTime::ZERO, rng).result.is_err());
        }
    }

    #[test]
    fn quality_memo_is_bounded_by_countries_not_clients() {
        let mut n = network();
        n.add_server("example.com", country("US"), img_handler(400));
        n.dns
            .register("ghost.example", Ipv4Addr::new(203, 0, 113, 7));
        let codes: Vec<CountryCode> = n.world.iter().map(|c| c.code).collect();
        let bound = codes.len() * codes.len() * IspClass::ALL.len();
        let mut rng = SimRng::new(3);

        churn_clients(&mut n, &codes, 1_000, &mut rng);
        let at_1k = n.quality_memo.borrow().map.len();
        churn_clients(&mut n, &codes, 7_000, &mut rng);
        let at_8k = n.quality_memo.borrow().map.len();
        assert!(at_8k <= bound, "{at_8k} memo entries exceed {bound}");
        assert_eq!(at_1k, at_8k, "the memo grew with clients that left");
    }

    #[test]
    fn memoised_quality_tracks_every_mutation_of_the_network() {
        use crate::topology::TopologyConfig;
        let mut n = Network::new(World::builtin());
        let codes: Vec<CountryCode> = n.world.iter().map(|c| c.code).collect();
        let mut rng = SimRng::new(0x9E0);
        let mut clients = vec![n.add_client(country("US"), IspClass::Residential)];
        // Addresses in /16 blocks the allocator has not opened yet: they
        // resolve to the client's own country until a block claims them.
        let mut dests: Vec<Ipv4Addr> = (0..24).map(|k| Ipv4Addr::new(100, k, 0, 2)).collect();
        let mut tried: Vec<(Host, Ipv4Addr)> = Vec::new();
        for step in 0..300u64 {
            match rng.index(5) {
                0 => {
                    let host = n.add_server(
                        &format!("s{step}.example"),
                        *rng.pick(&codes),
                        img_handler(100),
                    );
                    dests.push(host.ip);
                }
                1 => {
                    // A country's first client opens a fresh /16 block.
                    for _ in 0..3 {
                        let isp = *rng.pick(&IspClass::ALL);
                        let client = n.add_client(*rng.pick(&codes), isp);
                        dests.push(client.ip);
                        clients.push(client);
                    }
                }
                2 => n.path_model.failure_scale = rng.range_u64(0, 4) as f64 / 2.0,
                3 => n.set_topology(AsTopology::generate(TopologyConfig::with_seed(step))),
                _ => {
                    let client = rng.pick(&clients).clone();
                    let dest = *rng.pick(&dests);
                    n.quality_between(&client, dest);
                    tried.push((client, dest));
                }
            }
            for (client, dest) in &tried {
                let fresh = n.quality_between_uncached(client, n.server_country(client, *dest));
                assert_eq!(
                    n.quality_between(client, *dest),
                    fresh,
                    "step {step}: stale memo for {} → {dest}",
                    client.ip
                );
            }
        }
        assert!(tried.len() > 30 && n.allocator.assignments().len() > 10);
    }
}

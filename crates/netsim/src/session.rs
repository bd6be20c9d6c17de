//! Session-oriented transport: the layered fetch engine.
//!
//! [`crate::network::Network::fetch`] models every visit as a fully cold start: each
//! request re-resolves DNS, re-establishes TCP, and re-matches the entire
//! middlebox chain. Real browsers do none of that — they keep per-origin
//! connections alive, cache resolutions in-process, and sit behind a fixed
//! on-path censor set for the lifetime of a browsing session. At Encore's
//! target scale (millions of incidental visits) the cold-start model is
//! also the simulator's hot path.
//!
//! A [`FetchSession`] is the session-layer answer. It belongs to one client
//! and owns three pieces of amortised state:
//!
//! * a **compiled middlebox pipeline** — the subset of the network's
//!   middleboxes whose [`applies_to`](crate::middlebox::Middlebox::applies_to) matches this client,
//!   matched once per session (and re-validated only when the network's
//!   middlebox set changes) instead of once per request per stage;
//! * a **DNS host cache** — the browser/OS-level resolver cache, honouring
//!   record TTLs, sitting in front of the shared per-country resolver
//!   cache in [`crate::dns::DnsSystem`];
//! * a **keep-alive connection pool** — per-destination established
//!   connections with an idle timeout, so repeat fetches to an origin skip
//!   the TCP stage entirely.
//!
//! The cold path through [`FetchSession::fetch`] is *exactly* the §3.1
//! pipeline of the legacy entry point — same stages, same middlebox
//! consultation order, same RNG draw sequence — so `Network::fetch` is now
//! a thin wrapper that runs a single-shot session. Warm-path semantics
//! are deliberately different, and deliberately faithful to real stacks:
//! a cached resolution skips the transient-DNS-failure draw (no query is
//! sent), and a kept-alive connection skips SYN-stage censorship (an
//! established flow sees no new handshake — DNS- and TCP-stage censors are
//! only observable on cold state, exactly the cache-interference effect
//! the paper discusses for DNS).

use crate::dns::{DnsOutcome, NameId};
use crate::host::Host;
use crate::http::{HttpRequest, HttpResponse};
use crate::middlebox::{DnsAction, HttpAction, StageContext, TcpAction};
use crate::network::{FetchError, FetchOutcome, FetchTimings, Network};
use crate::path::PathQuality;
use crate::tcp::{TcpAttempt, CONNECT_TIMEOUT, DNS_TIMEOUT, HTTP_TIMEOUT};
use crate::topology::TransitDecision;
use sim_core::{SimDuration, SimRng, SimTime, SymTable};
use std::net::Ipv4Addr;

/// In-process DNS cache lookup cost (a hash probe, not a network round
/// trip), charged on every session-cache hit.
const DNS_CACHE_HIT_COST: SimDuration = SimDuration::from_micros(100);

/// Tuning knobs for a session's amortised state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// How long an idle kept-alive connection survives before the next
    /// fetch must re-establish it. Zero disables connection reuse.
    pub keep_alive: SimDuration,
    /// Whether the session keeps a client-local DNS cache.
    pub dns_cache: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            // Browsers keep idle HTTP/1.1 connections for roughly a
            // minute; Apache-era servers often closed them sooner. 60 s
            // is the conventional middle ground.
            keep_alive: SimDuration::from_secs(60),
            dns_cache: true,
        }
    }
}

impl SessionConfig {
    /// A configuration with all amortisation disabled: every fetch is a
    /// cold start, byte-for-byte equivalent to the legacy pipeline.
    pub fn cold() -> SessionConfig {
        SessionConfig {
            keep_alive: SimDuration::ZERO,
            dns_cache: false,
        }
    }
}

/// Counters describing how much work the session amortised away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Total fetches issued through this session.
    pub fetches: u64,
    /// Fetches whose name resolution was served from the session cache.
    pub dns_cache_hits: u64,
    /// Fetches that reused a kept-alive connection.
    pub connections_reused: u64,
    /// Times the middlebox pipeline was (re)compiled.
    pub pipeline_rebuilds: u64,
}

/// A client's transport session: compiled censor pipeline, DNS host cache,
/// and keep-alive connection pool. See the module docs for semantics.
pub struct FetchSession {
    client: Host,
    config: SessionConfig,
    /// Indices into the network's middlebox list that apply to this
    /// client, in network order. Valid while `pipeline_generation`
    /// matches the network's.
    pipeline: Vec<usize>,
    pipeline_generation: u64,
    /// Whether every middlebox in `pipeline` declares a pure DNS verdict
    /// ([`crate::middlebox::Middlebox::dns_verdict_is_pure`]) — the
    /// precondition for `dns_verdicts` memoisation.
    pipeline_dns_pure: bool,
    /// Network behaviour generation `dns_verdicts` was filled under.
    behavior_generation: u64,
    /// Pre-resolved first-non-`Pass` DNS verdict per [`NameId`] — the
    /// flat per-host dispatch table replacing the per-fetch pattern walk
    /// for pure pipelines. Rebuilt lazily after set/behaviour bumps.
    dns_verdicts: SymTable<DnsAction>,
    /// `NameId`-indexed (address, expires-at): the client-local resolver
    /// cache. A warm hit is a single vector index — no hash, no alloc.
    dns_cache: SymTable<(Ipv4Addr, SimTime)>,
    /// (destination, idle-expiry) of established connections. Pools are
    /// small (bounded by distinct live origins), so a linear scan over a
    /// flat vector beats a tree.
    connections: Vec<(Ipv4Addr, SimTime)>,
    /// (destination, path quality) — static per client/destination pair
    /// for a given topology generation.
    quality_cache: Vec<(Ipv4Addr, PathQuality)>,
    /// Topology generation `quality_cache` was filled under (0 = the
    /// flat model / no topology). A replaced topology reroutes, so
    /// hop-derived RTTs go stale and the cache must clear.
    topology_generation: u64,
    /// Resolver RTT, a pure function of the client's (fixed) country —
    /// computed on first use so the per-fetch country-record clone the
    /// legacy path paid is gone.
    resolver_rtt: Option<SimDuration>,
    stats: SessionStats,
}

impl FetchSession {
    /// Open a session for `client` with default amortisation.
    pub fn new(client: Host) -> FetchSession {
        FetchSession::with_config(client, SessionConfig::default())
    }

    /// Open a session with explicit configuration.
    pub fn with_config(client: Host, config: SessionConfig) -> FetchSession {
        FetchSession {
            client,
            config,
            pipeline: Vec::new(),
            // Network generations start at 1, so a fresh session always
            // compiles its pipeline on first use.
            pipeline_generation: 0,
            pipeline_dns_pure: true,
            behavior_generation: 0,
            dns_verdicts: SymTable::default(),
            dns_cache: SymTable::default(),
            connections: Vec::new(),
            quality_cache: Vec::new(),
            topology_generation: 0,
            resolver_rtt: None,
            stats: SessionStats::default(),
        }
    }

    /// The client this session belongs to.
    pub fn client(&self) -> &Host {
        &self.client
    }

    /// Amortisation counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Drop all cached session state (the "new browsing session" reset:
    /// cold DNS, cold connections; the pipeline stays, it only depends on
    /// the network's middlebox set).
    pub fn reset(&mut self) {
        self.dns_cache.clear();
        self.connections.clear();
    }

    /// Whether a live client-local DNS entry for `id` exists at `now`.
    fn dns_cached(&self, id: NameId, now: SimTime) -> Option<Ipv4Addr> {
        match self.dns_cache.get(id.0) {
            Some(&(ip, expires)) if now < expires => Some(ip),
            _ => None,
        }
    }

    /// Cache a resolution for `id` (growing the id-indexed table as the
    /// interner does).
    fn dns_cache_insert(&mut self, id: NameId, ip: Ipv4Addr, expires: SimTime) {
        self.dns_cache.insert(id.0, (ip, expires));
    }

    /// Drop expired session state: DNS entries past their TTL and
    /// kept-alive connections past their idle expiry.
    ///
    /// Behaviour-neutral by construction — the fetch path never serves an
    /// expired entry (both lookups check expiry before use), so pruning
    /// only releases memory. The world engine calls this from its
    /// maintenance-tick events so month-long continuous runs keep pooled
    /// clients' session maps bounded.
    pub fn prune_expired(&mut self, now: SimTime) {
        self.dns_cache.retain(|&(_, expires)| now < expires);
        self.connections.retain(|&(_, expiry)| now < expiry);
    }

    /// Pool an established connection: an already pooled destination has
    /// its idle expiry refreshed in place, a new one is appended.
    fn pool_connection(&mut self, dst: Ipv4Addr, expiry: SimTime) {
        match self.connections.iter_mut().find(|(ip, _)| *ip == dst) {
            Some(slot) => slot.1 = expiry,
            None => self.connections.push((dst, expiry)),
        }
    }

    /// Whether a kept-alive connection to `dst` is live at `now`.
    pub fn has_connection(&self, dst: Ipv4Addr, now: SimTime) -> bool {
        self.connections
            .iter()
            .any(|&(ip, expiry)| ip == dst && now < expiry)
    }

    /// Re-match the middlebox chain if the network's set changed since we
    /// last compiled (or if this session has never compiled it), and drop
    /// memoised verdicts when middlebox *behaviour* changed (control
    /// signals bump a separate generation — coverage is unchanged, so the
    /// pipeline itself stays valid).
    fn refresh_pipeline(&mut self, net: &Network) {
        if self.behavior_generation != net.behavior_generation() {
            self.behavior_generation = net.behavior_generation();
            self.dns_verdicts.clear();
        }
        if self.topology_generation != net.topology_generation() {
            // A replaced topology reroutes: hop-derived RTTs in the
            // quality cache are stale. Data-plane only — the pipeline
            // and DNS verdicts are untouched.
            self.topology_generation = net.topology_generation();
            self.quality_cache.clear();
        }
        if self.pipeline_generation == net.middlebox_generation() {
            return;
        }
        self.pipeline.clear();
        self.dns_verdicts.clear();
        let mut pure = true;
        for (i, mb) in net.middleboxes().iter().enumerate() {
            if mb.applies_to(&self.client) {
                pure &= mb.dns_verdict_is_pure();
                self.pipeline.push(i);
            }
        }
        self.pipeline_dns_pure = pure;
        self.pipeline_generation = net.middlebox_generation();
        self.stats.pipeline_rebuilds += 1;
    }

    /// Path quality to `server_ip`, computed once per destination. Quality
    /// is a pure function of (client, destination country), so caching it
    /// never changes outcomes — only skips recomputation.
    fn quality_to(&mut self, net: &Network, server_ip: Ipv4Addr) -> PathQuality {
        if let Some(&(_, q)) = self.quality_cache.iter().find(|(ip, _)| *ip == server_ip) {
            return q;
        }
        let q = net.quality_between(&self.client, server_ip);
        self.quality_cache.push((server_ip, q));
        q
    }

    /// Perform one HTTP fetch through this session at time `now`.
    ///
    /// This is the full §3.1 pipeline (DNS → TCP → HTTP) with the
    /// session's amortisation applied. The five failure timings of the
    /// legacy path are preserved:
    ///
    /// * forged NXDOMAIN — fast (1 local RTT);
    /// * dropped DNS — slow ([`DNS_TIMEOUT`]);
    /// * RST — fast (1 RTT);
    /// * dropped SYN / unroutable sinkhole — slow ([`CONNECT_TIMEOUT`]);
    /// * dropped HTTP — slow ([`HTTP_TIMEOUT`]).
    pub fn fetch(
        &mut self,
        net: &mut Network,
        req: &HttpRequest,
        now: SimTime,
        rng: &mut SimRng,
    ) -> FetchOutcome {
        self.stats.fetches += 1;
        let mut timings = FetchTimings::default();

        let Some(host_name) = req.host() else {
            return FetchOutcome::fail(FetchError::BadUrl, timings, None);
        };

        self.refresh_pipeline(net);

        // ---------------- Stage 1: DNS ----------------
        let server_ip = match self.dns_stage(net, &host_name, now, rng, &mut timings) {
            Ok(ip) => ip,
            Err(outcome) => return outcome,
        };

        let quality = self.quality_to(net, server_ip);

        // -------------- Transit links (topology) --------------
        // Cross the routed AS path's hotspot links. Without a topology —
        // or with every link on the route under threshold — this is a
        // no-op that consumes no RNG draws, preserving flat-model worlds
        // byte-for-byte.
        match net.transit_decision(&self.client, server_ip, now, rng) {
            TransitDecision::Pass => {}
            TransitDecision::Delay(d) => timings.connect += d,
            TransitDecision::Shed => {
                // Near-source congestion signal: the overloaded transit
                // link sheds the flow and the failure propagates back
                // fast — one RTT, like a reset, not a timeout. The shed
                // flow's connection (if pooled) is gone.
                timings.connect += net.path_model.sample_rtt(&quality, rng);
                self.connections.retain(|&(ip, _)| ip != server_ip);
                return FetchOutcome::fail(FetchError::Congested, timings, Some(server_ip));
            }
        }

        // ---------------- Stage 2: TCP ----------------
        let reused =
            self.has_connection(server_ip, now) && self.config.keep_alive > SimDuration::ZERO;
        if reused {
            self.stats.connections_reused += 1;
            // An established flow: no handshake, no SYN-stage censorship,
            // no connect latency. (The connection must once have passed
            // the full TCP stage to exist.)
        } else if let Err(outcome) =
            self.tcp_stage(net, server_ip, &quality, now, rng, &mut timings)
        {
            return outcome;
        }

        // ---------------- Stage 3: HTTP ----------------
        let outcome = self.http_stage(net, req, server_ip, &quality, now, rng, timings);

        // Keep-alive bookkeeping: a completed exchange leaves the
        // connection pooled; a reset or timeout kills it.
        if self.config.keep_alive > SimDuration::ZERO {
            if outcome.result.is_ok() {
                let idle_from = now + outcome.timings.total();
                self.pool_connection(server_ip, idle_from + self.config.keep_alive);
            } else {
                self.connections.retain(|&(ip, _)| ip != server_ip);
            }
        }
        outcome
    }

    /// Name resolution with the session cache in front of the shared
    /// per-country resolver. Returns the destination address or a
    /// terminal outcome.
    #[allow(clippy::result_large_err)] // Err is the terminal FetchOutcome, consumed immediately
    fn dns_stage(
        &mut self,
        net: &mut Network,
        host_name: &str,
        now: SimTime,
        rng: &mut SimRng,
        timings: &mut FetchTimings,
    ) -> Result<Ipv4Addr, FetchOutcome> {
        let resolver_rtt = match self.resolver_rtt {
            Some(rtt) => rtt,
            None => {
                let rtt =
                    SimDuration::from_millis_f64(net.access_latency_ms(self.client.country) * 0.6);
                self.resolver_rtt = Some(rtt);
                rtt
            }
        };

        // Censors inspect every query the client *would* send. The session
        // cache sits behind the censor for the first resolution (the query
        // that populates it necessarily crossed the censor), and a session
        // hit skips the wire entirely — so the middlebox is consulted
        // before the cache exactly as a forwarding resolver would be, and
        // cache hits never consult it at all.
        let host_id = net.dns.intern(host_name);
        if self.config.dns_cache {
            if let Some(ip) = self.dns_cached(host_id, now) {
                self.stats.dns_cache_hits += 1;
                timings.dns += DNS_CACHE_HIT_COST;
                return Ok(ip);
            }
        }

        match self.dns_verdict(net, host_name, host_id, now) {
            DnsAction::NxDomain => {
                timings.dns += resolver_rtt;
                Err(FetchOutcome::fail(FetchError::DnsNxDomain, *timings, None))
            }
            DnsAction::Drop => {
                timings.dns += DNS_TIMEOUT;
                Err(FetchOutcome::fail(FetchError::DnsTimeout, *timings, None))
            }
            DnsAction::Redirect(ip) => {
                timings.dns += resolver_rtt;
                // A forged answer is an answer: browsers cache it, which
                // is how poisoned resolutions persist for a session.
                if self.config.dns_cache {
                    self.dns_cache_insert(host_id, ip, now + crate::dns::DEFAULT_TTL);
                }
                Ok(ip)
            }
            DnsAction::Poison { ip, ttl } => {
                timings.dns += resolver_rtt;
                // Same as a redirect, except the censor dictates how long
                // the lie is cached — a lying TTL makes the poisoning
                // outlive (or undershoot) the block itself.
                if self.config.dns_cache {
                    self.dns_cache_insert(host_id, ip, now + ttl);
                }
                Ok(ip)
            }
            DnsAction::Pass => {
                // Transient DNS failure (client-side unreliability).
                let q_local = self.quality_to(net, self.client.ip);
                if net.path_model.stage_fails(&q_local, rng) {
                    timings.dns += DNS_TIMEOUT;
                    return Err(FetchOutcome::fail(FetchError::DnsTimeout, *timings, None));
                }
                let (outcome, cached) = net.dns.resolve_id(self.client.country, host_id, now);
                timings.dns += if cached {
                    SimDuration::from_millis(1)
                } else {
                    resolver_rtt
                };
                match outcome {
                    DnsOutcome::Resolved(a) => {
                        if self.config.dns_cache {
                            self.dns_cache_insert(host_id, a.ip, now + a.ttl);
                        }
                        Ok(a.ip)
                    }
                    DnsOutcome::NxDomain => {
                        Err(FetchOutcome::fail(FetchError::DnsNxDomain, *timings, None))
                    }
                    DnsOutcome::Timeout => {
                        timings.dns += DNS_TIMEOUT;
                        Err(FetchOutcome::fail(FetchError::DnsTimeout, *timings, None))
                    }
                }
            }
        }
    }

    /// First-non-`Pass` DNS verdict of the compiled pipeline for
    /// `host_name`, via the per-host dispatch table when the pipeline is
    /// pure (a pure verdict depends only on the host, so a table hit is
    /// the walk's answer).
    fn dns_verdict(
        &mut self,
        net: &Network,
        host_name: &str,
        host_id: NameId,
        now: SimTime,
    ) -> DnsAction {
        let memoise = self.pipeline_dns_pure;
        if memoise {
            if let Some(&verdict) = self.dns_verdicts.get(host_id.0) {
                return verdict;
            }
        }
        let ctx = StageContext {
            client: &self.client,
            now,
        };
        let verdict = self
            .pipeline
            .iter()
            .map(|&i| net.middleboxes()[i].on_dns(host_name, &ctx))
            .find(|act| *act != DnsAction::Pass)
            .unwrap_or(DnsAction::Pass);
        if memoise {
            self.dns_verdicts.insert(host_id.0, verdict);
        }
        verdict
    }

    /// Connection establishment. `Ok(())` leaves an established
    /// connection; the pool entry is written by the caller once the HTTP
    /// exchange settles.
    #[allow(clippy::result_large_err)] // Err is the terminal FetchOutcome, consumed immediately
    fn tcp_stage(
        &self,
        net: &Network,
        server_ip: Ipv4Addr,
        quality: &PathQuality,
        now: SimTime,
        rng: &mut SimRng,
        timings: &mut FetchTimings,
    ) -> Result<(), FetchOutcome> {
        let ctx = StageContext {
            client: &self.client,
            now,
        };
        let attempt = TcpAttempt::http(server_ip);

        let censor_tcp = self
            .pipeline
            .iter()
            .map(|&i| net.middleboxes()[i].on_tcp(&attempt, &ctx))
            .find(|act| *act != TcpAction::Pass)
            .unwrap_or(TcpAction::Pass);
        match censor_tcp {
            TcpAction::Reset => {
                timings.connect += net.path_model.sample_rtt(quality, rng);
                return Err(FetchOutcome::fail(
                    FetchError::ConnectionReset,
                    *timings,
                    Some(server_ip),
                ));
            }
            TcpAction::Drop => {
                timings.connect += CONNECT_TIMEOUT;
                return Err(FetchOutcome::fail(
                    FetchError::ConnectTimeout,
                    *timings,
                    Some(server_ip),
                ));
            }
            TcpAction::Pass => {}
        }

        // Unroutable / no server listening (e.g. a DNS redirect to a
        // sinkhole): connect times out.
        if !net.has_server(server_ip) {
            timings.connect += CONNECT_TIMEOUT;
            return Err(FetchOutcome::fail(
                FetchError::ConnectTimeout,
                *timings,
                Some(server_ip),
            ));
        }

        if net.path_model.stage_fails(quality, rng) {
            timings.connect += CONNECT_TIMEOUT;
            return Err(FetchOutcome::fail(
                FetchError::ConnectTimeout,
                *timings,
                Some(server_ip),
            ));
        }
        timings.connect += net.path_model.sample_rtt(quality, rng);
        Ok(())
    }

    /// The HTTP exchange over an established connection.
    #[allow(clippy::too_many_arguments)]
    fn http_stage(
        &self,
        net: &Network,
        req: &HttpRequest,
        server_ip: Ipv4Addr,
        quality: &PathQuality,
        now: SimTime,
        rng: &mut SimRng,
        mut timings: FetchTimings,
    ) -> FetchOutcome {
        let ctx = StageContext {
            client: &self.client,
            now,
        };

        let censor_req = self
            .pipeline
            .iter()
            .map(|&i| net.middleboxes()[i].on_http_request(req, &ctx))
            .find(|act| *act != HttpAction::Pass)
            .unwrap_or(HttpAction::Pass);

        let rtt = net.path_model.sample_rtt(quality, rng);
        match censor_req {
            HttpAction::Drop => {
                timings.ttfb += HTTP_TIMEOUT;
                return FetchOutcome::fail(FetchError::ResponseTimeout, timings, Some(server_ip));
            }
            HttpAction::Reset => {
                timings.ttfb += rtt;
                return FetchOutcome::fail(FetchError::ConnectionReset, timings, Some(server_ip));
            }
            HttpAction::BlockPage => {
                timings.ttfb += rtt;
                let resp = HttpResponse::block_page();
                timings.transfer += net.path_model.transfer_time(quality, resp.body_bytes);
                return FetchOutcome {
                    result: Ok(resp),
                    timings,
                    server_ip: Some(server_ip),
                };
            }
            HttpAction::RedirectTo(loc) => {
                timings.ttfb += rtt;
                return FetchOutcome {
                    result: Ok(HttpResponse::redirect(loc)),
                    timings,
                    server_ip: Some(server_ip),
                };
            }
            HttpAction::Pass => {}
        }

        // The real server answers.
        if net.path_model.stage_fails(quality, rng) {
            timings.ttfb += HTTP_TIMEOUT;
            return FetchOutcome::fail(FetchError::ResponseTimeout, timings, Some(server_ip));
        }
        let mut resp = net.handle_request(server_ip, req, self.client.ip, now);
        timings.ttfb += rtt;

        // Response-side censorship (keyword filters inspect content here).
        let censor_resp = self
            .pipeline
            .iter()
            .map(|&i| net.middleboxes()[i].on_http_response(req, &resp, &ctx))
            .find(|act| *act != HttpAction::Pass)
            .unwrap_or(HttpAction::Pass);
        match censor_resp {
            HttpAction::Drop => {
                timings.ttfb += HTTP_TIMEOUT;
                return FetchOutcome::fail(FetchError::ResponseTimeout, timings, Some(server_ip));
            }
            HttpAction::Reset => {
                return FetchOutcome::fail(FetchError::ConnectionReset, timings, Some(server_ip));
            }
            HttpAction::BlockPage => {
                resp = HttpResponse::block_page();
            }
            HttpAction::RedirectTo(loc) => {
                resp = HttpResponse::redirect(loc);
            }
            HttpAction::Pass => {}
        }

        timings.transfer += net.path_model.transfer_time(quality, resp.body_bytes);

        FetchOutcome {
            result: Ok(resp),
            timings,
            server_ip: Some(server_ip),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::{country, IspClass, World};
    use crate::http::ContentType;
    use crate::middlebox::Middlebox;
    use crate::network::ConstHandler;

    fn network() -> Network {
        let mut n = Network::ideal(World::builtin());
        n.add_server(
            "origin.example",
            country("US"),
            Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 400))),
        );
        n
    }

    fn session(n: &mut Network) -> FetchSession {
        let client = n.add_client(country("DE"), IspClass::Residential);
        FetchSession::new(client)
    }

    #[test]
    fn a_replaced_topology_revalidates_cached_path_quality() {
        use crate::topology::{AsTopology, TopologyConfig};
        let topology = |seed| AsTopology::generate(TopologyConfig::with_seed(seed));
        let hops = |seed| topology(seed).hops_between(country("DE"), country("US"));
        let rerouted = (2..64)
            .find(|&s| hops(s) != hops(1))
            .expect("a seed reroutes DE→US");
        let mut n = network();
        let mut s = session(&mut n);
        let req = HttpRequest::get("http://origin.example/favicon.ico");
        let mut rng = SimRng::new(1);
        let mut cached = Vec::new();
        for seed in [1, rerouted] {
            n.set_topology(topology(seed));
            assert!(s
                .fetch(&mut n, &req, SimTime::ZERO, &mut rng)
                .result
                .is_ok());
            let server = n
                .dns
                .authoritative("origin.example")
                .expect("registered")
                .ip;
            for &(ip, q) in &s.quality_cache {
                assert_eq!(q, n.quality_between(&s.client, ip), "seed {seed}");
            }
            let (_, q) = *s
                .quality_cache
                .iter()
                .find(|(ip, _)| *ip == server)
                .unwrap();
            cached.push(q);
        }
        assert_ne!(
            cached[0], cached[1],
            "the route's hop count changed, so must its RTT"
        );
    }

    #[test]
    fn cold_session_matches_legacy_fetch_exactly() {
        let req = HttpRequest::get("http://origin.example/favicon.ico");

        // Legacy one-shot path.
        let mut n1 = network();
        let c1 = n1.add_client(country("DE"), IspClass::Residential);
        let mut rng1 = SimRng::new(42);
        let legacy = n1.fetch(&c1, &req, SimTime::ZERO, &mut rng1);

        // Explicit cold session.
        let mut n2 = network();
        let c2 = n2.add_client(country("DE"), IspClass::Residential);
        let mut s = FetchSession::with_config(c2, SessionConfig::cold());
        let mut rng2 = SimRng::new(42);
        let via_session = s.fetch(&mut n2, &req, SimTime::ZERO, &mut rng2);

        assert_eq!(legacy, via_session);
        // And the RNG streams stayed in lockstep.
        assert_eq!(rng1.next_u64(), rng2.next_u64());
    }

    #[test]
    fn prune_expired_is_behaviour_neutral() {
        let req = HttpRequest::get("http://origin.example/favicon.ico");
        let run = |prune: bool| {
            let mut n = network();
            let mut s = session(&mut n);
            let mut rng = SimRng::new(11);
            let first = s.fetch(&mut n, &req, SimTime::ZERO, &mut rng);
            // Well past both the DNS TTL and the keep-alive window.
            let later = SimTime::from_secs(7_200);
            if prune {
                s.prune_expired(later);
                assert!(!s.has_connection(first.server_ip.unwrap(), later));
            }
            let second = s.fetch(&mut n, &req, later, &mut rng);
            (first, second, rng.next_u64())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn prune_expired_keeps_live_state() {
        let mut n = network();
        let mut s = session(&mut n);
        let mut rng = SimRng::new(12);
        let req = HttpRequest::get("http://origin.example/favicon.ico");
        let out = s.fetch(&mut n, &req, SimTime::ZERO, &mut rng);
        let soon = SimTime::from_secs(10);
        s.prune_expired(soon);
        assert!(s.has_connection(out.server_ip.unwrap(), soon));
        // The live DNS entry still serves a cache hit.
        let before = s.stats().dns_cache_hits;
        s.fetch(&mut n, &req, soon, &mut rng);
        assert_eq!(s.stats().dns_cache_hits, before + 1);
    }

    #[test]
    fn warm_fetch_skips_dns_and_connect() {
        let mut n = network();
        let mut s = session(&mut n);
        let mut rng = SimRng::new(7);
        let req = HttpRequest::get("http://origin.example/favicon.ico");

        let cold = s.fetch(&mut n, &req, SimTime::ZERO, &mut rng);
        let warm = s.fetch(&mut n, &req, SimTime::from_secs(1), &mut rng);

        assert!(cold.result.is_ok());
        assert!(warm.result.is_ok());
        assert!(warm.timings.dns < cold.timings.dns, "dns amortised");
        assert_eq!(warm.timings.connect, SimDuration::ZERO, "keep-alive");
        assert!(
            warm.timings.total() * 2 < cold.timings.total(),
            "warm {} vs cold {}",
            warm.timings.total(),
            cold.timings.total()
        );
        let stats = s.stats();
        assert_eq!(stats.fetches, 2);
        assert_eq!(stats.dns_cache_hits, 1);
        assert_eq!(stats.connections_reused, 1);
    }

    #[test]
    fn keep_alive_expires_after_idle_timeout() {
        let mut n = network();
        let mut s = session(&mut n);
        let mut rng = SimRng::new(7);
        let req = HttpRequest::get("http://origin.example/i.png");

        s.fetch(&mut n, &req, SimTime::ZERO, &mut rng);
        // Well past the keep-alive window: the connection is gone, but the
        // DNS record (5-minute TTL) is still cached.
        let later = SimTime::from_secs(200);
        let out = s.fetch(&mut n, &req, later, &mut rng);
        assert!(out.result.is_ok());
        assert!(out.timings.connect > SimDuration::ZERO, "re-established");
        assert_eq!(s.stats().connections_reused, 0);
        assert_eq!(s.stats().dns_cache_hits, 1);
    }

    #[test]
    fn dns_cache_respects_ttl() {
        let mut n = network();
        n.dns.register_with_ttl(
            "short.example",
            std::net::Ipv4Addr::new(100, 99, 1, 1),
            SimDuration::from_secs(10),
        );
        let mut s = session(&mut n);
        let mut rng = SimRng::new(3);
        let req = HttpRequest::get("http://short.example/x");
        s.fetch(&mut n, &req, SimTime::ZERO, &mut rng);
        s.fetch(&mut n, &req, SimTime::from_secs(60), &mut rng);
        assert_eq!(s.stats().dns_cache_hits, 0, "expired record not served");
    }

    struct FlipDnsBlocker;
    impl Middlebox for FlipDnsBlocker {
        fn name(&self) -> &str {
            "flip"
        }
        fn applies_to(&self, client: &Host) -> bool {
            client.country == country("DE")
        }
        fn on_dns(&self, _n: &str, _ctx: &StageContext<'_>) -> DnsAction {
            DnsAction::NxDomain
        }
    }

    #[test]
    fn pipeline_recompiles_when_middleboxes_change() {
        let mut n = network();
        let mut s = session(&mut n);
        let mut rng = SimRng::new(11);
        let req = HttpRequest::get("http://origin.example/a.png");

        let before = s.fetch(&mut n, &req, SimTime::ZERO, &mut rng);
        assert!(before.result.is_ok());

        // A censor appears mid-session. The next *cold-DNS* fetch must see
        // it; this fetch is warm, so it sails through on cached state —
        // exactly the cache-interference effect of paper §3.1.
        n.add_middlebox(Box::new(FlipDnsBlocker));
        let warm = s.fetch(&mut n, &req, SimTime::from_secs(1), &mut rng);
        assert!(warm.result.is_ok(), "cached state bypasses the new censor");

        // After the session's caches go cold, the censor bites.
        s.reset();
        let cold = s.fetch(&mut n, &req, SimTime::from_secs(2), &mut rng);
        assert_eq!(cold.result, Err(FetchError::DnsNxDomain));
        assert_eq!(s.stats().pipeline_rebuilds, 2);
    }

    #[test]
    fn reset_connection_is_evicted_from_pool() {
        struct ResetEveryResponse;
        impl Middlebox for ResetEveryResponse {
            fn name(&self) -> &str {
                "rst-resp"
            }
            fn applies_to(&self, _c: &Host) -> bool {
                true
            }
            fn on_http_response(
                &self,
                _req: &HttpRequest,
                _resp: &HttpResponse,
                _ctx: &StageContext<'_>,
            ) -> HttpAction {
                HttpAction::Reset
            }
        }
        let mut n = network();
        n.add_middlebox(Box::new(ResetEveryResponse));
        let mut s = session(&mut n);
        let mut rng = SimRng::new(13);
        let req = HttpRequest::get("http://origin.example/x.png");
        let first = s.fetch(&mut n, &req, SimTime::ZERO, &mut rng);
        assert_eq!(first.result, Err(FetchError::ConnectionReset));
        // The torn-down connection must not be reused.
        let second = s.fetch(&mut n, &req, SimTime::from_secs(1), &mut rng);
        assert!(second.timings.connect > SimDuration::ZERO);
        assert_eq!(s.stats().connections_reused, 0);
    }

    #[test]
    fn dns_entry_expiring_exactly_at_ttl_boundary_is_not_served() {
        let mut n = network();
        n.dns.register_with_ttl(
            "short.example",
            std::net::Ipv4Addr::new(100, 99, 1, 1),
            SimDuration::from_secs(10),
        );
        let mut s = session(&mut n);
        let mut rng = SimRng::new(21);
        let req = HttpRequest::get("http://short.example/x");

        s.fetch(&mut n, &req, SimTime::ZERO, &mut rng);
        // One instant before the boundary the record still serves…
        s.fetch(
            &mut n,
            &req,
            SimTime::from_secs(10) - SimDuration::from_micros(1),
            &mut rng,
        );
        assert_eq!(s.stats().dns_cache_hits, 1, "pre-boundary hit");
        // …but *exactly at* its TTL boundary it must not: expiry is
        // exclusive (`now < expires`), matching prune_expired.
        s.fetch(&mut n, &req, SimTime::from_secs(10), &mut rng);
        assert_eq!(
            s.stats().dns_cache_hits,
            1,
            "an entry expiring exactly now must not be served"
        );
        // prune_expired agrees with the serve path at the same boundary:
        // the re-resolution at t=10 re-cached until t=20; pruning at
        // exactly t=20 drops it, so the next fetch resolves again.
        s.prune_expired(SimTime::from_secs(20));
        s.fetch(&mut n, &req, SimTime::from_secs(20), &mut rng);
        assert_eq!(s.stats().dns_cache_hits, 1, "pruned at the boundary");
    }

    #[test]
    fn keep_alive_pool_evicts_nearest_expiry_at_capacity() {
        let mut n = network();
        n.add_server(
            "b.example",
            country("US"),
            Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 400))),
        );
        let mut s = session(&mut n);
        let mut rng = SimRng::new(31);
        let mut fetch = |s: &mut FetchSession, url: &str, secs: u64| {
            s.fetch(
                &mut n,
                &HttpRequest::get(url),
                SimTime::from_secs(secs),
                &mut rng,
            )
            .server_ip
            .unwrap()
        };
        let a = fetch(&mut s, "http://origin.example/x", 0);
        let b = fetch(&mut s, "http://b.example/x", 1);
        assert_eq!(s.connections.len(), 2);

        // Reusing a pooled destination refreshes its entry in place: no
        // second entry, and its idle expiry moves forward…
        fetch(&mut s, "http://origin.example/y", 30);
        assert_eq!(s.connections.len(), 2);
        assert_eq!(s.stats().connections_reused, 1);

        // …so once the keep-alive window has passed for b (pooled at
        // 1 s) but not for the refreshed a (30 s), b is the one gone.
        let now = SimTime::from_secs(70);
        assert!(s.has_connection(a, now), "refreshed expiry not kept");
        assert!(!s.has_connection(b, now), "nearest-expiry entry still live");
    }

    #[test]
    fn pipeline_recompiles_on_remove_middlebox_generation_bump() {
        let mut n = network();
        n.add_middlebox(Box::new(FlipDnsBlocker));
        let gen_with_censor = n.middlebox_generation();
        let mut s = session(&mut n);
        let mut rng = SimRng::new(41);
        let req = HttpRequest::get("http://origin.example/a.png");

        // First fetch compiles the pipeline against the censored set.
        let blocked = s.fetch(&mut n, &req, SimTime::ZERO, &mut rng);
        assert_eq!(blocked.result, Err(FetchError::DnsNxDomain));
        assert_eq!(s.stats().pipeline_rebuilds, 1);

        // Removal bumps the generation counter…
        assert!(n.remove_middlebox("flip"));
        assert!(n.middlebox_generation() > gen_with_censor);
        // …so the next fetch recompiles (second rebuild) and the stale
        // censor index is never consulted against the shrunken set.
        let open = s.fetch(&mut n, &req, SimTime::from_secs(1), &mut rng);
        assert!(open.result.is_ok(), "censor gone, fetch must succeed");
        assert_eq!(s.stats().pipeline_rebuilds, 2);

        // Removing an unknown name bumps nothing and triggers no rebuild.
        assert!(!n.remove_middlebox("never-installed"));
        s.fetch(&mut n, &req, SimTime::from_secs(2), &mut rng);
        assert_eq!(s.stats().pipeline_rebuilds, 2);
    }

    #[test]
    fn sessions_are_deterministic() {
        let run = || {
            let mut n = Network::new(World::builtin());
            n.add_server(
                "origin.example",
                country("BR"),
                Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 1_234))),
            );
            let client = n.add_client(country("JP"), IspClass::Mobile);
            let mut s = FetchSession::new(client);
            let mut rng = SimRng::new(99);
            let mut total = SimDuration::ZERO;
            for i in 0..10 {
                let out = s.fetch(
                    &mut n,
                    &HttpRequest::get("http://origin.example/i.png"),
                    SimTime::from_secs(i),
                    &mut rng,
                );
                total += out.timings.total();
            }
            total.as_micros()
        };
        assert_eq!(run(), run());
    }
}

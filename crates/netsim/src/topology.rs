//! Scale-free AS/ISP topology with congested transit links.
//!
//! The flat path model (`crate::path`) treats every client→server pair as
//! one abstract path: access + backbone + server latency. That is enough
//! for censorship signatures, but it cannot express Encore's hardest
//! confound — *congestion*: a page failing to load through an overloaded
//! transit AS looks exactly like a censored one, and the paper's
//! cross-origin inference must not flag it.
//!
//! This module adds the missing substrate:
//!
//! * a **seeded scale-free AS graph** grown by preferential attachment
//!   with a configurable degree exponent (the Barabási–Albert process
//!   with a tunable attachment offset), connected by construction;
//! * **deterministic shortest-path routing**: BFS from every AS with
//!   lowest-AS-id tie-breaking, precomputed into per-AS-pair route
//!   tables (hop count + the hotspot links each route crosses), so the
//!   session layer's warm-path/zero-alloc contract survives — a route
//!   lookup is a table index. A topology's routes never change once
//!   generated: the one way to reroute is to replace the topology
//!   ([`crate::network::Network::set_topology`]), which bumps the
//!   network's topology generation so every memo of hop-derived RTTs
//!   (network quality memo, session quality cache) revalidates;
//! * **betweenness hotspots**: the links crossed by the most routes
//!   become finite-capacity transit bottlenecks ("Communication
//!   Bottlenecks in Scale-Free Networks": load concentrates on the few
//!   high-betweenness links);
//! * **per-link load state with near-source signaling**: each hotspot
//!   link tracks carried load per epoch plus a background (brownout)
//!   level; past a utilisation threshold it first *delays* and then
//!   *sheds* fetches. A shed fetch fails fast — the congested link
//!   signals back along the path near the source instead of silently
//!   timing out (the SFC idea), which is what gives congestion a
//!   distinguishable failure shape
//!   ([`crate::network::FetchError::Congested`]).
//!
//! Everything here is data-plane: marking hotspots, changing background
//! load, and shedding never touch the middlebox set, DNS or any route,
//! so compiled session pipelines and cached path qualities stay valid
//! (no generation bump).

use crate::geo::CountryCode;
use serde::{Deserialize, Serialize};
use sim_core::{splitmix_mix, SimDuration, SimRng, SimTime};

/// Hard cap on any shed probability: even a fully saturated link must
/// let a trickle through, so measurement cells on congested paths keep
/// enough samples for the detector's minimum-n guard to stay decisive.
pub const SHED_MAX: f64 = 0.85;

/// Extra one-way latency per AS hop beyond the first, in milliseconds —
/// routed paths through more transit ASes are slower, on top of the flat
/// model's access/backbone terms.
pub const HOP_MS: f64 = 2.0;

/// Maximum queueing delay a single congested (but not shedding) hotspot
/// link adds to a fetch, in milliseconds.
pub const MAX_QUEUE_MS: f64 = 400.0;

/// Length of one carried-load accounting epoch. Sixty seconds matches
/// the keep-alive idle window: load is "simultaneous enough" to contend
/// when it lands within one epoch.
pub const LOAD_EPOCH: SimDuration = SimDuration::from_secs(60);

/// Configuration of a generated topology — plain data, so scenarios can
/// carry it across shard threads and serialize it into artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// Seed of the generated graph (independent of the world seed: the
    /// same topology can host many worlds).
    pub seed: u64,
    /// Number of autonomous systems.
    pub ases: usize,
    /// Links each new AS attaches with (the Barabási–Albert `m`).
    pub links_per_as: usize,
    /// Target degree-distribution exponent γ. The attachment kernel is
    /// `degree + a` with `a = m·(γ − 3)`: `γ = 3` is pure preferential
    /// attachment; smaller γ (heavier tail) weights high-degree ASes
    /// harder.
    pub degree_exponent: f64,
    /// How many of the highest-betweenness links become finite-capacity
    /// transit hotspots.
    pub hotspots: usize,
    /// Fetches one hotspot link carries per [`LOAD_EPOCH`] at nominal
    /// capacity (before background load).
    pub hotspot_capacity: u32,
    /// Utilisation above which a hotspot link starts delaying and
    /// shedding.
    pub shed_threshold: f64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            seed: 1,
            ases: 64,
            links_per_as: 2,
            degree_exponent: 2.5,
            hotspots: 4,
            hotspot_capacity: 600,
            shed_threshold: 0.7,
        }
    }
}

impl TopologyConfig {
    /// The default topology under a specific graph seed.
    pub fn with_seed(seed: u64) -> TopologyConfig {
        TopologyConfig {
            seed,
            ..TopologyConfig::default()
        }
    }
}

/// One inter-AS link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Lower endpoint AS id.
    pub a: u32,
    /// Higher endpoint AS id.
    pub b: u32,
    /// How many shortest-path routes cross this link (the betweenness
    /// approximation hotspot selection ranks by).
    pub route_crossings: u32,
    /// Whether this link is a finite-capacity transit hotspot.
    pub hotspot: bool,
    /// Fetches per [`LOAD_EPOCH`] at nominal capacity (meaningful only
    /// for hotspots).
    pub capacity: u32,
}

/// One precomputed route: everything the per-fetch hot path needs,
/// flattened so a lookup is two slice reads and no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouteEntry {
    /// AS hops (0 when source and destination share an AS).
    pub hops: u32,
    /// Range into [`AsTopology::route_hotspots`] listing the hotspot
    /// links this route crosses.
    hotspot_start: u32,
    hotspot_len: u32,
}

/// What a routed fetch experiences crossing its transit links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitDecision {
    /// All links under threshold: no effect.
    Pass,
    /// Congested but not shed: queueing delay added to connect time.
    Delay(SimDuration),
    /// Shed at a hotspot link with a near-source congestion signal: the
    /// fetch fails fast as [`crate::network::FetchError::Congested`].
    Shed,
}

/// A generated AS topology with routing tables and per-link load state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsTopology {
    config: TopologyConfig,
    /// Per-AS degree.
    degrees: Vec<u32>,
    links: Vec<Link>,
    /// Per-AS-pair route table, indexed `src * ases + dst`.
    routes: Vec<RouteEntry>,
    /// Flattened hotspot-link indices all routes share (see
    /// [`RouteEntry`]).
    route_hotspots: Vec<u32>,
    /// Per-AS-pair link paths, kept so hotspot flags can be re-marked
    /// (e.g. [`AsTopology::ensure_hotspot_between`]) without rerunning
    /// BFS.
    pair_links: Vec<Vec<u32>>,
    /// Per-link background utilisation (the brownout control knob —
    /// data-plane only, never reroutes).
    background: Vec<f64>,
    /// Per-link fetches carried in the current epoch.
    carried: Vec<u32>,
    /// Epoch `carried` counts belong to.
    carried_epoch: u64,
}

impl AsTopology {
    /// Grow the graph, compute routes and betweenness, and mark the
    /// top-`hotspots` links as transit bottlenecks.
    pub fn generate(config: TopologyConfig) -> AsTopology {
        let mut topo = AsTopology {
            config,
            degrees: Vec::new(),
            links: Vec::new(),
            routes: Vec::new(),
            route_hotspots: Vec::new(),
            pair_links: Vec::new(),
            background: Vec::new(),
            carried: Vec::new(),
            carried_epoch: 0,
        };
        topo.build();
        topo
    }

    fn build(&mut self) {
        let cfg = self.config;
        let n = cfg.ases.max(2);
        let m = cfg.links_per_as.clamp(1, n - 1);
        let mut rng = SimRng::new(cfg.seed ^ 0xA5_70_70_10);
        // Attachment offset a = m·(γ − 3): γ = 3 reduces to pure
        // preferential attachment (weight = degree).
        let offset = m as f64 * (cfg.degree_exponent - 3.0);

        self.degrees = vec![0u32; n];
        self.links.clear();
        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
        let add_link = |links: &mut Vec<Link>,
                        degrees: &mut Vec<u32>,
                        adjacency: &mut Vec<Vec<u32>>,
                        a: usize,
                        b: usize| {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            links.push(Link {
                a: lo as u32,
                b: hi as u32,
                route_crossings: 0,
                hotspot: false,
                capacity: cfg.hotspot_capacity,
            });
            degrees[lo] += 1;
            degrees[hi] += 1;
            adjacency[lo].push(hi as u32);
            adjacency[hi].push(lo as u32);
        };

        // Seed clique over the first m+1 ASes, then preferential
        // attachment for the rest.
        for a in 0..=m {
            for b in (a + 1)..=m {
                add_link(&mut self.links, &mut self.degrees, &mut adjacency, a, b);
            }
        }
        let mut weights: Vec<f64> = Vec::with_capacity(n);
        for new in (m + 1)..n {
            weights.clear();
            weights.extend(
                self.degrees[..new]
                    .iter()
                    .map(|&d| (d as f64 + offset).max(1e-3)),
            );
            let mut chosen: Vec<usize> = Vec::with_capacity(m);
            while chosen.len() < m {
                let pick = rng
                    .pick_weighted(&weights)
                    .expect("positive attachment weights");
                if !chosen.contains(&pick) {
                    chosen.push(pick);
                    // Zero the weight so the next draw picks a distinct
                    // neighbour without rejection loops.
                    weights[pick] = 0.0;
                }
            }
            // Restore and wire up (order of chosen is draw order —
            // deterministic in the seed).
            for &target in &chosen {
                add_link(
                    &mut self.links,
                    &mut self.degrees,
                    &mut adjacency,
                    new,
                    target,
                );
            }
        }
        // Deterministic neighbour order for the BFS tie-break: lowest AS
        // id wins.
        for neigh in &mut adjacency {
            neigh.sort_unstable();
        }
        self.compute_routes(&adjacency);
        self.mark_hotspots();
        self.background = vec![0.0; self.links.len()];
        self.carried = vec![0; self.links.len()];
        self.carried_epoch = 0;
    }

    /// BFS from every AS (lowest-id tie-break via sorted adjacency and
    /// first-visit-wins), then flatten per-pair routes into the table.
    fn compute_routes(&mut self, adjacency: &[Vec<u32>]) {
        let n = self.degrees.len();
        // Link index lookup: links are few (≈ m·n), a sorted table of
        // endpoint pairs beats a hash map for determinism and locality.
        let mut link_of: std::collections::BTreeMap<(u32, u32), u32> =
            std::collections::BTreeMap::new();
        for (i, l) in self.links.iter_mut().enumerate() {
            l.route_crossings = 0;
            link_of.insert((l.a, l.b), i as u32);
        }
        let key = |x: u32, y: u32| if x < y { (x, y) } else { (y, x) };

        self.routes = vec![
            RouteEntry {
                hops: 0,
                hotspot_start: 0,
                hotspot_len: 0
            };
            n * n
        ];
        // Per-pair link paths, gathered first so crossings are counted
        // before hotspot marking; the hotspot ranges are filled by
        // `reindex_route_hotspots` once hotspot flags exist.
        let mut parent: Vec<u32> = Vec::new();
        let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        let mut pair_links: Vec<Vec<u32>> = vec![Vec::new(); n * n];
        for src in 0..n as u32 {
            parent.clear();
            parent.resize(n, u32::MAX);
            parent[src as usize] = src;
            queue.clear();
            queue.push_back(src);
            while let Some(u) = queue.pop_front() {
                for &v in &adjacency[u as usize] {
                    if parent[v as usize] == u32::MAX {
                        parent[v as usize] = u;
                        queue.push_back(v);
                    }
                }
            }
            for dst in 0..n as u32 {
                if dst == src || parent[dst as usize] == u32::MAX {
                    continue;
                }
                let mut hops = 0u32;
                let mut cur = dst;
                let links_on_path = &mut pair_links[src as usize * n + dst as usize];
                while cur != src {
                    let p = parent[cur as usize];
                    let li = link_of[&key(cur, p)];
                    links_on_path.push(li);
                    hops += 1;
                    cur = p;
                }
                self.routes[src as usize * n + dst as usize].hops = hops;
                for &li in links_on_path.iter() {
                    self.links[li as usize].route_crossings += 1;
                }
            }
        }
        self.pair_links = pair_links;
    }

    /// Rank links by route crossings (betweenness approximation) and
    /// mark the top `hotspots` as finite-capacity bottlenecks, then
    /// rebuild the flattened per-route hotspot ranges.
    fn mark_hotspots(&mut self) {
        for l in &mut self.links {
            l.hotspot = false;
        }
        let mut order: Vec<usize> = (0..self.links.len()).collect();
        // Highest crossings first; ties break on the lower link index so
        // the selection is deterministic.
        order.sort_by_key(|&i| (std::cmp::Reverse(self.links[i].route_crossings), i));
        for &i in order.iter().take(self.config.hotspots) {
            self.links[i].hotspot = true;
        }
        self.reindex_route_hotspots();
    }

    /// Rebuild [`RouteEntry`] hotspot ranges from the per-pair link
    /// paths and the current hotspot flags.
    fn reindex_route_hotspots(&mut self) {
        self.route_hotspots.clear();
        for (pair, links_on_path) in self.pair_links.iter().enumerate() {
            let start = self.route_hotspots.len() as u32;
            for &li in links_on_path {
                if self.links[li as usize].hotspot {
                    self.route_hotspots.push(li);
                }
            }
            self.routes[pair].hotspot_start = start;
            self.routes[pair].hotspot_len = self.route_hotspots.len() as u32 - start;
        }
    }

    /// The configuration the current graph was grown from.
    pub fn config(&self) -> &TopologyConfig {
        &self.config
    }

    /// Number of ASes.
    pub fn ases(&self) -> usize {
        self.degrees.len()
    }

    /// The links of the graph.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Per-AS degrees.
    pub fn degrees(&self) -> &[u32] {
        &self.degrees
    }

    /// Deterministic country → AS mapping: a splitmix mix of the graph
    /// seed and the two-byte code, reduced mod the AS count. Stable for
    /// the life of the topology.
    pub fn as_of_country(&self, cc: CountryCode) -> u32 {
        let code = cc.as_str().as_bytes();
        let mixed = splitmix_mix(self.config.seed ^ ((code[0] as u64) << 8 | code[1] as u64));
        (mixed % self.degrees.len() as u64) as u32
    }

    /// The precomputed route between two countries' ASes.
    pub fn route_between(&self, a: CountryCode, b: CountryCode) -> RouteEntry {
        let (src, dst) = (self.as_of_country(a), self.as_of_country(b));
        self.routes[src as usize * self.degrees.len() + dst as usize]
    }

    /// AS-hop count between two countries (0 when co-located).
    pub fn hops_between(&self, a: CountryCode, b: CountryCode) -> u32 {
        self.route_between(a, b).hops
    }

    /// Force the route between two countries to cross a hotspot: mark
    /// its highest-crossing link as a hotspot if none of its links is
    /// one already. Returns the hotspot link's index, or `None` for a
    /// zero-hop (co-located) route. Routing ignores capacity, so this
    /// never changes any route — data-plane only, no generation bump.
    pub fn ensure_hotspot_between(&mut self, a: CountryCode, b: CountryCode) -> Option<usize> {
        let (src, dst) = (self.as_of_country(a), self.as_of_country(b));
        let n = self.degrees.len();
        let links_on_path = &self.pair_links[src as usize * n + dst as usize];
        if links_on_path.is_empty() {
            return None;
        }
        if let Some(&li) = links_on_path
            .iter()
            .find(|&&li| self.links[li as usize].hotspot)
        {
            return Some(li as usize);
        }
        // Deterministic: the most-crossed link on the route, ties to the
        // lower index.
        let &best = links_on_path
            .iter()
            .min_by_key(|&&li| {
                (
                    std::cmp::Reverse(self.links[li as usize].route_crossings),
                    li,
                )
            })
            .expect("non-empty path");
        self.links[best as usize].hotspot = true;
        self.reindex_route_hotspots();
        Some(best as usize)
    }

    /// Set the background utilisation of every *hotspot* link — the
    /// transit-wide brownout a scheduled world mutation flips on and off.
    /// Data-plane only: no generation bump, no pipeline recompiles.
    pub fn set_hotspot_background(&mut self, level: f64) {
        for i in 0..self.links.len() {
            if self.links[i].hotspot {
                self.background[i] = level.max(0.0);
            }
        }
    }

    /// A link's background utilisation.
    pub fn background(&self, link: usize) -> f64 {
        self.background[link]
    }

    /// Divide hotspot capacities by the shard count, so N shards each
    /// seeing 1/N of the offered load reproduce the serial run's
    /// utilisation. Capacity never drops below 1.
    pub fn scale_capacity(&mut self, shards: usize) {
        let shards = shards.max(1) as u32;
        for l in &mut self.links {
            l.capacity = (l.capacity / shards).max(1);
        }
    }

    /// Roll the carried-load epoch forward if `now` left the current
    /// one.
    fn roll_epoch(&mut self, now: SimTime) {
        let epoch = now.as_micros() / LOAD_EPOCH.as_micros();
        if epoch != self.carried_epoch {
            self.carried_epoch = epoch;
            self.carried.iter_mut().for_each(|c| *c = 0);
        }
    }

    /// Account one fetch crossing the route between two countries and
    /// decide its fate. Consumes **at most one** RNG draw, and exactly
    /// zero when no hotspot link on the route is over threshold — so
    /// topologies at rest leave every RNG stream untouched.
    pub fn transit(
        &mut self,
        src: CountryCode,
        dst: CountryCode,
        now: SimTime,
        rng: &mut SimRng,
    ) -> TransitDecision {
        let route = {
            let (s, d) = (self.as_of_country(src), self.as_of_country(dst));
            self.routes[s as usize * self.degrees.len() + d as usize]
        };
        if route.hotspot_len == 0 {
            return TransitDecision::Pass;
        }
        self.roll_epoch(now);
        // Bottleneck semantics: the single worst link on the route sets
        // the shed probability (a fetch squeezed through the tightest
        // hop is not re-lotteried at every other congested hop), while
        // queueing delay accumulates per congested hop. Compounding shed
        // probabilities multiplicatively would make long transit paths
        // shed nearly everything during a brownout, collapsing record
        // volume below any detector's minimum-evidence guard.
        let mut max_over = 0.0f64;
        let mut delay_ms = 0.0f64;
        let threshold = self.config.shed_threshold;
        let range =
            route.hotspot_start as usize..(route.hotspot_start + route.hotspot_len) as usize;
        for k in range {
            let li = self.route_hotspots[k] as usize;
            self.carried[li] += 1;
            let cap = self.links[li].capacity.max(1) as f64;
            let u = self.background[li] + self.carried[li] as f64 / cap;
            if u > threshold {
                let over = ((u - threshold) / (1.0 - threshold).max(1e-9)).min(1.0);
                max_over = max_over.max(over);
                delay_ms += over * over * MAX_QUEUE_MS;
            }
        }
        let shed_prob = (max_over * SHED_MAX).min(SHED_MAX);
        if shed_prob > 0.0 && rng.chance(shed_prob) {
            return TransitDecision::Shed;
        }
        if delay_ms > 0.0 {
            return TransitDecision::Delay(SimDuration::from_millis_f64(delay_ms));
        }
        TransitDecision::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::country;

    fn topo(seed: u64) -> AsTopology {
        AsTopology::generate(TopologyConfig::with_seed(seed))
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            assert_eq!(topo(seed), topo(seed));
        }
        assert_ne!(topo(1).links(), topo(2).links());
    }

    #[test]
    fn graph_is_connected() {
        for seed in 0..8u64 {
            let t = topo(seed);
            let n = t.ases();
            for dst in 1..n as u32 {
                let r = t.routes[dst as usize];
                assert!(r.hops > 0, "AS {dst} unreachable from AS 0 (seed {seed})");
            }
        }
    }

    #[test]
    fn heavier_exponent_concentrates_degree() {
        // Smaller γ → heavier tail → the max degree takes a larger share
        // of all edge endpoints. Averaged over seeds to avoid
        // single-draw noise.
        let share = |gamma: f64| -> f64 {
            let mut total = 0.0;
            for seed in 0..6u64 {
                let t = AsTopology::generate(TopologyConfig {
                    seed,
                    ases: 128,
                    degree_exponent: gamma,
                    ..TopologyConfig::default()
                });
                let max = *t.degrees().iter().max().unwrap() as f64;
                let sum: u32 = t.degrees().iter().sum();
                total += max / sum as f64;
            }
            total / 6.0
        };
        let heavy = share(2.1);
        let light = share(3.0);
        assert!(
            heavy > light,
            "γ=2.1 max-degree share {heavy:.4} must exceed γ=3.0 share {light:.4}"
        );
    }

    #[test]
    fn hotspots_are_the_most_crossed_links() {
        let t = topo(5);
        let hotspots: Vec<&Link> = t.links().iter().filter(|l| l.hotspot).collect();
        assert_eq!(hotspots.len(), t.config().hotspots);
        let min_hot = hotspots.iter().map(|l| l.route_crossings).min().unwrap();
        let max_cold = t
            .links()
            .iter()
            .filter(|l| !l.hotspot)
            .map(|l| l.route_crossings)
            .max()
            .unwrap();
        assert!(min_hot >= max_cold, "{min_hot} < {max_cold}");
    }

    #[test]
    fn regenerate_bumps_generation_and_changes_routes() {
        // A regenerated graph is attached by replacing the old one, which
        // bumps the network's topology generation.
        let mut net = crate::network::Network::new(crate::geo::World::builtin());
        net.set_topology(topo(1));
        let before = net.topology().unwrap().routes.clone();
        net.set_topology(topo(2));
        assert_eq!(net.topology_generation(), 2);
        assert_ne!(
            net.topology().unwrap().routes,
            before,
            "a new seed must reroute"
        );
    }

    #[test]
    fn ensure_hotspot_between_is_idempotent_and_route_neutral() {
        let mut t = topo(3);
        let (a, b) = (country("TR"), country("US"));
        let hops = t.hops_between(a, b);
        let first = t.ensure_hotspot_between(a, b);
        let second = t.ensure_hotspot_between(a, b);
        assert_eq!(first, second, "idempotent");
        assert_eq!(t.hops_between(a, b), hops, "routing ignores capacity");
        if hops > 0 {
            assert!(t.route_between(a, b).hotspot_len > 0);
        }
    }

    #[test]
    fn transit_at_rest_consumes_no_draws() {
        let mut t = topo(4);
        t.ensure_hotspot_between(country("TR"), country("US"));
        let mut rng = SimRng::new(9);
        let reference = SimRng::new(9).next_u64();
        // Low offered load, zero background: below threshold, no draw.
        let d = t.transit(country("TR"), country("US"), SimTime::ZERO, &mut rng);
        assert_eq!(d, TransitDecision::Pass);
        assert_eq!(rng.next_u64(), reference, "RNG stream untouched");
    }

    #[test]
    fn saturated_hotspot_sheds_and_caps_at_shed_max() {
        let mut t = AsTopology::generate(TopologyConfig {
            hotspot_capacity: 10,
            ..TopologyConfig::with_seed(6)
        });
        let (a, b) = (country("TR"), country("US"));
        t.ensure_hotspot_between(a, b).expect("routed pair");
        t.set_hotspot_background(5.0); // far beyond saturation
        let mut rng = SimRng::new(1);
        let mut shed = 0;
        let n = 2_000;
        for i in 0..n {
            if t.transit(a, b, SimTime::from_millis(i), &mut rng) == TransitDecision::Shed {
                shed += 1;
            }
        }
        let rate = shed as f64 / n as f64;
        assert!(rate > 0.5, "saturated link must shed hard (rate {rate})");
        assert!(
            rate < SHED_MAX + 0.05,
            "shed rate {rate} must respect SHED_MAX"
        );
    }

    #[test]
    fn brownout_delay_precedes_shedding() {
        let mut t = AsTopology::generate(TopologyConfig {
            hotspot_capacity: 1_000,
            ..TopologyConfig::with_seed(6)
        });
        let (a, b) = (country("TR"), country("US"));
        t.ensure_hotspot_between(a, b).expect("routed pair");
        // Just over threshold: some delay, shedding possible but rare.
        t.set_hotspot_background(t.config().shed_threshold + 0.05);
        let mut rng = SimRng::new(2);
        let mut delays = 0;
        for i in 0..200 {
            if let TransitDecision::Delay(d) = t.transit(a, b, SimTime::from_millis(i), &mut rng) {
                assert!(d > SimDuration::ZERO);
                delays += 1;
            }
        }
        assert!(delays > 100, "mild congestion should mostly delay");
    }

    #[test]
    fn carried_load_resets_each_epoch() {
        let mut t = AsTopology::generate(TopologyConfig {
            hotspot_capacity: 5,
            ..TopologyConfig::with_seed(8)
        });
        let (a, b) = (country("TR"), country("US"));
        let hot = t.ensure_hotspot_between(a, b).expect("routed pair");
        let mut rng = SimRng::new(3);
        for _ in 0..20 {
            t.transit(a, b, SimTime::ZERO, &mut rng);
        }
        assert!(t.carried[hot] >= 20, "load accumulates within an epoch");
        t.transit(a, b, SimTime::from_secs(120), &mut rng);
        assert!(t.carried[hot] <= 1, "a new epoch starts from zero");
    }

    #[test]
    fn capacity_scaling_never_hits_zero() {
        let mut t = AsTopology::generate(TopologyConfig {
            hotspot_capacity: 3,
            ..TopologyConfig::with_seed(1)
        });
        t.scale_capacity(16);
        assert!(t.links().iter().all(|l| l.capacity >= 1));
    }

    #[test]
    fn country_mapping_is_stable_and_covers_the_graph() {
        let t = topo(11);
        let a = t.as_of_country(country("CN"));
        assert_eq!(a, t.as_of_country(country("CN")));
        assert!((a as usize) < t.ases());
    }
}

//! The DNS subsystem.
//!
//! Zones map DNS names to addresses; clients resolve through a caching
//! resolver in their own country (which is where DNS-based censorship
//! interposes — paper §3.1: "the DNS request may result in blocking or
//! redirection").
//!
//! ## Data-oriented layout
//!
//! Every distinct (case-folded) name is interned to a dense [`NameId`]
//! once; the record table and the per-country resolver caches are flat
//! vectors indexed by that id. The name-based API (`register`, `resolve`,
//! …) is unchanged — it interns and delegates — while hot-path callers
//! (the session layer) hold a [`NameId`] and hit [`DnsSystem::resolve_id`]
//! with no hashing or allocation at all. Ids are assigned in first-seen
//! order, so they are deterministic for a deterministic workload.

use crate::geo::CountryCode;
use serde::{Deserialize, Serialize};
use sim_core::{Interner, SimDuration, SimTime, Sym, SymTable};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Result payload of a successful resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DnsAnswer {
    /// Resolved address.
    pub ip: Ipv4Addr,
    /// Time-to-live for caching.
    pub ttl: SimDuration,
}

/// Outcome of a resolution attempt as observed by the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DnsOutcome {
    /// Name resolved.
    Resolved(DnsAnswer),
    /// Authoritative "no such domain".
    NxDomain,
    /// The query or its answer was dropped; the client times out.
    Timeout,
}

/// Default TTL for records without an explicit one.
pub const DEFAULT_TTL: SimDuration = SimDuration::from_secs(300);

/// Dense identifier for an interned, case-folded DNS name. The id is an
/// index into the [`DnsSystem`]'s tables (and into any id-indexed cache a
/// session keeps), assigned in first-seen order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(pub(crate) Sym);

impl NameId {
    /// The id as a table index.
    #[inline]
    pub fn index(self) -> usize {
        self.0.index()
    }
}

/// Case-fold a DNS name without allocating when it is already lowercase
/// (the common case: every URL in the simulation is lowercase).
fn fold(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// The global DNS database plus per-country resolver caches.
///
/// The cache model matters for Encore: a client that has already resolved
/// `censored.com` recently will skip the DNS stage, so DNS-level censorship
/// is only observable on a cold cache. We model one shared cache per
/// (country, name) — a reasonable stand-in for ISP resolver caches.
#[derive(Debug, Default)]
pub struct DnsSystem {
    /// Case-folded name ↔ dense id.
    names: Interner,
    /// `NameId`-indexed A records (`None` = not registered).
    records: SymTable<DnsAnswer>,
    /// Per-country resolver cache, `NameId`-indexed: (answer, expires-at).
    cache: BTreeMap<CountryCode, SymTable<(DnsAnswer, SimTime)>>,
    /// Statistics: total queries and cache hits.
    queries: u64,
    cache_hits: u64,
}

impl DnsSystem {
    /// Empty DNS database.
    pub fn new() -> DnsSystem {
        DnsSystem::default()
    }

    /// Intern `name` (case-folded), returning its dense id. Idempotent;
    /// allocation-free for names already interned in lowercase form.
    pub fn intern(&mut self, name: &str) -> NameId {
        NameId(self.names.intern(&fold(name)))
    }

    /// Look up the id of an already-interned name without interning.
    pub fn name_id(&self, name: &str) -> Option<NameId> {
        self.names.get(&fold(name)).map(NameId)
    }

    /// Register (or replace) an A record with the default TTL.
    pub fn register(&mut self, name: &str, ip: Ipv4Addr) {
        self.register_with_ttl(name, ip, DEFAULT_TTL);
    }

    /// Register (or replace) an A record with an explicit TTL.
    pub fn register_with_ttl(&mut self, name: &str, ip: Ipv4Addr, ttl: SimDuration) {
        let id = self.intern(name);
        self.records.insert(id.0, DnsAnswer { ip, ttl });
    }

    /// Authoritative lookup, bypassing caches (used by middleboxes that
    /// need ground truth, and by tests).
    pub fn authoritative(&self, name: &str) -> Option<DnsAnswer> {
        let id = self.name_id(name)?;
        self.records.get(id.0).copied()
    }

    /// Resolve `name` from `country`'s resolver at time `now`, consulting
    /// the resolver cache. Returns the outcome and whether it was served
    /// from cache.
    pub fn resolve(
        &mut self,
        country: CountryCode,
        name: &str,
        now: SimTime,
    ) -> (DnsOutcome, bool) {
        let id = self.intern(name);
        self.resolve_id(country, id, now)
    }

    /// [`DnsSystem::resolve`] for a pre-interned name: the hot path. Two
    /// vector indexes, no hashing, no allocation (beyond one-time cache
    /// growth per country).
    pub fn resolve_id(
        &mut self,
        country: CountryCode,
        id: NameId,
        now: SimTime,
    ) -> (DnsOutcome, bool) {
        self.queries += 1;
        if let Some((answer, expires)) = self.cache.get(&country).and_then(|c| c.get(id.0)) {
            if now < *expires {
                self.cache_hits += 1;
                return (DnsOutcome::Resolved(*answer), true);
            }
        }
        match self.records.get(id.0).copied() {
            Some(answer) => {
                self.cache_insert(country, id, answer, now);
                (DnsOutcome::Resolved(answer), false)
            }
            None => (DnsOutcome::NxDomain, false),
        }
    }

    fn cache_insert(&mut self, country: CountryCode, id: NameId, answer: DnsAnswer, now: SimTime) {
        let country_cache = self.cache.entry(country).or_default();
        country_cache.insert(id.0, (answer, now + answer.ttl));
    }

    /// Drop all cached entries (e.g. between experiment repetitions).
    pub fn flush_caches(&mut self) {
        self.cache.clear();
    }

    /// `(total queries, cache hits)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.queries, self.cache_hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::country;

    fn ip(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(100, 0, 0, n)
    }

    #[test]
    fn resolves_registered_name() {
        let mut d = DnsSystem::new();
        d.register("example.com", ip(1));
        let (o, cached) = d.resolve(country("US"), "example.com", SimTime::ZERO);
        assert!(!cached);
        match o {
            DnsOutcome::Resolved(a) => assert_eq!(a.ip, ip(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_name_is_nxdomain() {
        let mut d = DnsSystem::new();
        let (o, _) = d.resolve(country("US"), "nope.invalid", SimTime::ZERO);
        assert_eq!(o, DnsOutcome::NxDomain);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let mut d = DnsSystem::new();
        d.register("Example.COM", ip(1));
        let (o, _) = d.resolve(country("US"), "EXAMPLE.com", SimTime::ZERO);
        assert!(matches!(o, DnsOutcome::Resolved(_)));
    }

    #[test]
    fn second_resolution_hits_cache() {
        let mut d = DnsSystem::new();
        d.register("example.com", ip(1));
        let t = SimTime::ZERO;
        let (_, c1) = d.resolve(country("US"), "example.com", t);
        let (_, c2) = d.resolve(country("US"), "example.com", t + SimDuration::from_secs(1));
        assert!(!c1);
        assert!(c2);
        assert_eq!(d.stats(), (2, 1));
    }

    #[test]
    fn cache_expires_after_ttl() {
        let mut d = DnsSystem::new();
        d.register_with_ttl("example.com", ip(1), SimDuration::from_secs(10));
        d.resolve(country("US"), "example.com", SimTime::ZERO);
        let (_, cached) = d.resolve(country("US"), "example.com", SimTime::from_secs(11));
        assert!(!cached);
    }

    #[test]
    fn caches_are_per_country() {
        let mut d = DnsSystem::new();
        d.register("example.com", ip(1));
        d.resolve(country("US"), "example.com", SimTime::ZERO);
        let (_, cached) = d.resolve(country("CN"), "example.com", SimTime::ZERO);
        assert!(!cached, "CN must not share US's cache");
    }

    #[test]
    fn poisoned_cache_overrides_until_ttl() {
        let mut d = DnsSystem::new();
        d.register("example.com", ip(1));
        let forged = DnsAnswer {
            ip: ip(99),
            ttl: SimDuration::from_secs(60),
        };
        // A forged answer in the resolver cache, as a poisoning censor's
        // would persist there.
        let id = d.intern("example.com");
        d.cache_insert(country("CN"), id, forged, SimTime::ZERO);
        let (o, cached) = d.resolve(country("CN"), "example.com", SimTime::from_secs(1));
        assert!(cached);
        assert_eq!(o, DnsOutcome::Resolved(forged));
        // After expiry the true record reappears.
        let (o2, _) = d.resolve(country("CN"), "example.com", SimTime::from_secs(120));
        match o2 {
            DnsOutcome::Resolved(a) => assert_eq!(a.ip, ip(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn flush_caches_forces_fresh_lookup() {
        let mut d = DnsSystem::new();
        d.register("example.com", ip(1));
        d.resolve(country("US"), "example.com", SimTime::ZERO);
        d.flush_caches();
        let (_, cached) = d.resolve(country("US"), "example.com", SimTime::ZERO);
        assert!(!cached);
    }

    #[test]
    fn name_ids_are_dense_case_folded_and_resolve_back() {
        let mut d = DnsSystem::new();
        let a = d.intern("Facebook.COM");
        let b = d.intern("youtube.com");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        // Case variants collapse to one id.
        assert_eq!(d.intern("facebook.com"), a);
        assert_eq!(d.name_id("FACEBOOK.com"), Some(a));
        assert_eq!(d.name_id("never-seen.example"), None);
        // Registration and id-based resolution agree with the name API.
        d.register("facebook.com", ip(7));
        let (o, _) = d.resolve_id(country("US"), a, SimTime::ZERO);
        assert_eq!(
            o,
            DnsOutcome::Resolved(DnsAnswer {
                ip: ip(7),
                ttl: DEFAULT_TTL
            })
        );
    }
}

//! IP geolocation — the MaxMind GeoLite stand-in.
//!
//! Paper §7: "We use a standard IP geolocation database to determine
//! client locations." Real GeoIP databases are imperfect; [`GeoDb`] is
//! derived from the simulator's ground-truth allocations with an optional
//! error rate that deterministically mislocates a fraction of addresses —
//! letting the ablation benches quantify how geolocation error degrades
//! detection.

use netsim::geo::CountryCode;
use netsim::ip::IpAllocator;
use netsim::Ipv4Net;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// An IP → country database.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeoDb {
    ranges: Vec<(Ipv4Net, CountryCode)>,
    /// Fraction of lookups that return a wrong country.
    error_rate: f64,
    /// Countries available as wrong answers.
    all_countries: Vec<CountryCode>,
}

impl GeoDb {
    /// Snapshot the allocator's ground truth into a database.
    pub fn from_allocator(alloc: &IpAllocator) -> GeoDb {
        let ranges: Vec<_> = alloc.assignments().to_vec();
        let mut all_countries: Vec<_> = ranges.iter().map(|&(_, c)| c).collect();
        all_countries.sort();
        all_countries.dedup();
        GeoDb {
            ranges,
            error_rate: 0.0,
            all_countries,
        }
    }

    /// Builder: introduce a deterministic per-address error rate.
    pub fn with_error_rate(mut self, rate: f64) -> GeoDb {
        self.error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Deterministic hash of an address to a unit value. FNV alone has
    /// poor high-bit avalanche on 4-byte inputs, so a murmur-style
    /// finaliser is applied.
    fn unit_hash(ip: Ipv4Addr) -> f64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in ip.octets() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Locate an address. `None` for addresses outside every known range
    /// (as with real databases).
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<CountryCode> {
        let truth = self
            .ranges
            .iter()
            .find(|(net, _)| net.contains(ip))
            .map(|&(_, c)| c)?;
        if self.error_rate > 0.0 && Self::unit_hash(ip) < self.error_rate {
            // Deterministically pick a different country.
            let idx = (Self::unit_hash(ip) * 1e9) as usize % self.all_countries.len().max(1);
            let wrong = self.all_countries[idx];
            if wrong != truth {
                return Some(wrong);
            }
            // Fall back to the next country over.
            let j = (idx + 1) % self.all_countries.len();
            return Some(self.all_countries[j]);
        }
        Some(truth)
    }

    /// The error rate of a database that arrived from outside the
    /// process (a FINAL frame's payload): deserializing goes around
    /// [`with_error_rate`](Self::with_error_rate)'s clamp, so a NaN or
    /// out-of-`[0, 1]` rate is refused here, as an error. Databases
    /// whose checked rates are equal [`merge`](Self::merge) without a
    /// panic; `merge` keeps its assert for in-process callers.
    pub fn checked_error_rate(&self) -> Result<f64, String> {
        if (0.0..=1.0).contains(&self.error_rate) {
            Ok(self.error_rate)
        } else {
            Err(format!("a GeoIP error rate of {}", self.error_rate))
        }
    }

    /// Union another database's ranges into this one — the merge step of
    /// a sharded run, where each shard derived a database from its own
    /// (disjoint, striped) allocator. Associative and commutative:
    /// ranges are deduplicated and kept in a canonical sorted order, so
    /// any merge tree over the same shard set yields the same database.
    /// Both databases must use the same error rate (the rate is scenario
    /// configuration, not per-shard state).
    pub fn merge(mut self, other: &GeoDb) -> GeoDb {
        assert!(
            (self.error_rate - other.error_rate).abs() < f64::EPSILON,
            "merging GeoDbs with different error rates"
        );
        self.ranges.extend(other.ranges.iter().cloned());
        self.ranges
            .sort_by_key(|&(net, c)| (u32::from(net.base), net.prefix, c));
        self.ranges.dedup();
        self.all_countries = self.ranges.iter().map(|&(_, c)| c).collect();
        self.all_countries.sort();
        self.all_countries.dedup();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geo::country;

    fn allocator_with(countries: &[&str], per: usize) -> (IpAllocator, Vec<Ipv4Addr>) {
        let mut a = IpAllocator::new();
        let mut ips = Vec::new();
        for c in countries {
            for _ in 0..per {
                ips.push(a.allocate(country(c)));
            }
        }
        (a, ips)
    }

    #[test]
    fn perfect_db_matches_ground_truth() {
        let (a, ips) = allocator_with(&["PK", "CN", "US"], 100);
        let db = GeoDb::from_allocator(&a);
        for ip in ips {
            assert_eq!(db.lookup(ip), Some(a.country_of(ip).unwrap()));
        }
    }

    #[test]
    fn unknown_address_is_none() {
        let (a, _) = allocator_with(&["US"], 1);
        let db = GeoDb::from_allocator(&a);
        assert_eq!(db.lookup(Ipv4Addr::new(8, 8, 8, 8)), None);
    }

    #[test]
    fn error_rate_mislocates_roughly_that_fraction() {
        let (a, ips) = allocator_with(&["PK", "CN", "US", "BR"], 500);
        let db = GeoDb::from_allocator(&a).with_error_rate(0.10);
        let wrong = ips
            .iter()
            .filter(|&&ip| db.lookup(ip) != Some(a.country_of(ip).unwrap()))
            .count();
        let rate = wrong as f64 / ips.len() as f64;
        assert!((0.05..0.16).contains(&rate), "error rate = {rate}");
    }

    #[test]
    fn errors_are_deterministic() {
        let (a, ips) = allocator_with(&["PK", "CN"], 200);
        let db1 = GeoDb::from_allocator(&a).with_error_rate(0.2);
        let db2 = GeoDb::from_allocator(&a).with_error_rate(0.2);
        for ip in ips {
            assert_eq!(db1.lookup(ip), db2.lookup(ip));
        }
    }

    #[test]
    fn merge_unions_sharded_allocators() {
        let mut a0 = IpAllocator::sharded(0, 2);
        let mut a1 = IpAllocator::sharded(1, 2);
        let ip0 = a0.allocate(country("PK"));
        let ip1 = a1.allocate(country("CN"));
        let merged = GeoDb::from_allocator(&a0).merge(&GeoDb::from_allocator(&a1));
        assert_eq!(merged.lookup(ip0), Some(country("PK")));
        assert_eq!(merged.lookup(ip1), Some(country("CN")));
        // Commutative: either merge order resolves both shards.
        let flipped = GeoDb::from_allocator(&a1).merge(&GeoDb::from_allocator(&a0));
        assert_eq!(flipped.lookup(ip0), Some(country("PK")));
        assert_eq!(flipped.lookup(ip1), Some(country("CN")));
        assert_eq!(merged.ranges.len(), flipped.ranges.len());
    }

    #[test]
    fn mislocated_addresses_never_get_their_true_country() {
        let (a, ips) = allocator_with(&["PK", "CN", "US"], 300);
        let db = GeoDb::from_allocator(&a).with_error_rate(1.0);
        for ip in ips {
            let got = db.lookup(ip).unwrap();
            assert_ne!(got, a.country_of(ip).unwrap());
        }
    }
}

//! Deterministic IPv4 address allocation.
//!
//! Each country receives disjoint /16 blocks; every allocated host address
//! is unique. The mapping is deterministic, which gives the `encore::geo`
//! GeoIP database (the stand-in for MaxMind, paper §7) ground truth to be
//! derived from — including the ability to inject a configurable error
//! rate to model real-world geolocation imprecision.

use crate::geo::CountryCode;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

/// An IPv4 network in CIDR form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ipv4Net {
    /// Network address (host bits zero).
    pub base: Ipv4Addr,
    /// Prefix length (0–32).
    pub prefix: u8,
}

impl Ipv4Net {
    /// Construct, masking the base to the prefix.
    pub fn new(base: Ipv4Addr, prefix: u8) -> Ipv4Net {
        assert!(prefix <= 32, "prefix must be at most 32");
        let mask = Self::mask(prefix);
        Ipv4Net {
            base: Ipv4Addr::from(u32::from(base) & mask),
            prefix,
        }
    }

    fn mask(prefix: u8) -> u32 {
        if prefix == 0 {
            0
        } else {
            u32::MAX << (32 - prefix)
        }
    }

    /// Whether `ip` falls inside this network.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        (u32::from(ip) & Self::mask(self.prefix)) == u32::from(self.base)
    }

    /// Number of addresses in the network.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.prefix)
    }

    /// The `n`-th address in the network (0-based). Returns `None` past the
    /// end.
    pub fn nth(&self, n: u64) -> Option<Ipv4Addr> {
        if n >= self.size() {
            return None;
        }
        Some(Ipv4Addr::from(u32::from(self.base) + n as u32))
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base, self.prefix)
    }
}

/// Deterministic allocator: one or more /16 blocks per country, plus a
/// reserved block for infrastructure (servers, block pages).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IpAllocator {
    /// Country → (block, next host index).
    blocks: BTreeMap<CountryCode, Vec<(Ipv4Net, u64)>>,
    /// Next /16 to hand out, as the second octet pair of 10.x/100.x space.
    next_block: u32,
    /// Step between handed-out block indices. 0 (the serial default) is
    /// treated as 1; a sharded allocator uses the shard count, so sibling
    /// shards draw from interleaved, disjoint /16 sequences.
    block_stride: u32,
    /// Ground truth: allocated ranges per country, for GeoIP derivation.
    assignments: Vec<(Ipv4Net, CountryCode)>,
}

impl IpAllocator {
    /// Create an empty allocator.
    pub fn new() -> IpAllocator {
        IpAllocator::default()
    }

    /// An allocator for shard `index` of `count`: it hands out only the
    /// /16 block indices congruent to `index` modulo `count`, so the
    /// address space of every shard in a parallel run is disjoint from
    /// every sibling's. Shard 0 of 1 is exactly the serial allocator —
    /// the lockstep property the determinism harness relies on.
    pub fn sharded(index: u32, count: u32) -> IpAllocator {
        assert!(count >= 1, "shard count must be at least 1");
        assert!(index < count, "shard index {index} out of range 0..{count}");
        IpAllocator {
            next_block: index,
            block_stride: count,
            ..IpAllocator::default()
        }
    }

    /// Allocate a fresh host address in `country`'s space.
    pub fn allocate(&mut self, country: CountryCode) -> Ipv4Addr {
        loop {
            let blocks = self.blocks.entry(country).or_default();
            if let Some((net, next)) = blocks.last_mut() {
                // Skip network (.0.0) and the first address so hosts start
                // at .0.2, and never run past the block.
                if *next < net.size() - 1 {
                    let ip = net.nth(*next).expect("index in range");
                    *next += 1;
                    return ip;
                }
            }
            // Need a new /16 for this country.
            let idx = self.next_block;
            self.next_block += self.block_stride.max(1);
            // Carve from 100.64.0.0/10-style space upward: 100.(64+hi).(x).y
            // — we just spread across 100.0.0.0/8 and 101.0.0.0/8 etc. to
            // stay clearly outside special-purpose ranges used elsewhere.
            let hi = 100 + (idx / 256) as u8;
            let lo = (idx % 256) as u8;
            let net = Ipv4Net::new(Ipv4Addr::new(hi, lo, 0, 0), 16);
            self.assignments.push((net, country));
            self.blocks.entry(country).or_default().push((net, 2));
        }
    }

    /// Ground-truth country of an address, if it was allocated by us.
    /// Blocks are handed out in ascending address order, so the one that
    /// could hold `ip` is the last whose base is not above it.
    pub fn country_of(&self, ip: Ipv4Addr) -> Option<CountryCode> {
        let after = self.assignments.partition_point(|(net, _)| net.base <= ip);
        let &(net, c) = self.assignments.get(after.checked_sub(1)?)?;
        net.contains(ip).then_some(c)
    }

    /// All `(network, country)` assignments made so far, in allocation
    /// order (deterministic).
    pub fn assignments(&self) -> &[(Ipv4Net, CountryCode)] {
        &self.assignments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::country;

    #[test]
    fn net_masks_base() {
        let n = Ipv4Net::new(Ipv4Addr::new(10, 1, 2, 3), 16);
        assert_eq!(n.base, Ipv4Addr::new(10, 1, 0, 0));
        assert_eq!(n.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn net_contains() {
        let n = Ipv4Net::new(Ipv4Addr::new(10, 1, 0, 0), 16);
        assert!(n.contains(Ipv4Addr::new(10, 1, 255, 255)));
        assert!(!n.contains(Ipv4Addr::new(10, 2, 0, 0)));
    }

    #[test]
    fn net_nth_bounds() {
        let n = Ipv4Net::new(Ipv4Addr::new(10, 0, 0, 0), 30);
        assert_eq!(n.size(), 4);
        assert_eq!(n.nth(0), Some(Ipv4Addr::new(10, 0, 0, 0)));
        assert_eq!(n.nth(3), Some(Ipv4Addr::new(10, 0, 0, 3)));
        assert_eq!(n.nth(4), None);
    }

    #[test]
    fn zero_prefix_contains_everything() {
        let n = Ipv4Net::new(Ipv4Addr::new(1, 2, 3, 4), 0);
        assert!(n.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert_eq!(n.size(), 1 << 32);
    }

    #[test]
    fn allocation_is_unique_and_geolocatable() {
        let mut a = IpAllocator::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1_000 {
            let ip = a.allocate(country("PK"));
            assert!(seen.insert(ip), "duplicate {ip}");
            assert_eq!(a.country_of(ip), Some(country("PK")));
        }
        for _ in 0..1_000 {
            let ip = a.allocate(country("CN"));
            assert!(seen.insert(ip), "duplicate {ip}");
            assert_eq!(a.country_of(ip), Some(country("CN")));
        }
    }

    #[test]
    fn countries_get_disjoint_blocks() {
        let mut a = IpAllocator::new();
        a.allocate(country("US"));
        a.allocate(country("CN"));
        let nets: Vec<_> = a.assignments().iter().map(|&(n, _)| n).collect();
        assert_eq!(nets.len(), 2);
        assert!(!nets[0].contains(nets[1].base));
        assert!(!nets[1].contains(nets[0].base));
    }

    #[test]
    fn allocator_grows_new_blocks_when_exhausted() {
        let mut a = IpAllocator::new();
        // Exhaust most of a /16: allocate 70,000 > 65,534 hosts.
        for _ in 0..70_000 {
            a.allocate(country("IN"));
        }
        assert!(a.assignments().len() >= 2);
    }

    #[test]
    fn unknown_ip_has_no_country() {
        let a = IpAllocator::new();
        assert_eq!(a.country_of(Ipv4Addr::new(8, 8, 8, 8)), None);
        // Blocks 100.1, 100.3 and 100.5: addresses below, between and
        // past them belong to no country.
        let mut b = IpAllocator::sharded(1, 2);
        for cc in ["US", "CN", "PK"] {
            b.allocate(country(cc));
        }
        for ip in [[8, 8, 8, 8], [100, 0, 0, 2], [100, 4, 0, 2], [100, 7, 0, 2]] {
            assert_eq!(b.country_of(Ipv4Addr::from(ip)), None, "{ip:?}");
        }
    }

    #[test]
    fn sharded_allocators_are_disjoint() {
        let shards = 4u32;
        let mut all = std::collections::BTreeSet::new();
        for i in 0..shards {
            let mut a = IpAllocator::sharded(i, shards);
            for cc in ["US", "CN", "PK"] {
                for _ in 0..50 {
                    let ip = a.allocate(country(cc));
                    assert!(all.insert(ip), "shard {i} reused {ip}");
                    assert_eq!(a.country_of(ip), Some(country(cc)));
                }
            }
        }
    }

    #[test]
    fn shard_zero_of_one_matches_serial_allocator() {
        let mut serial = IpAllocator::new();
        let mut sharded = IpAllocator::sharded(0, 1);
        for cc in ["DE", "BR", "DE"] {
            for _ in 0..10 {
                assert_eq!(serial.allocate(country(cc)), sharded.allocate(country(cc)));
            }
        }
        assert_eq!(serial.assignments(), sharded.assignments());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sharded_rejects_index_past_count() {
        let _ = IpAllocator::sharded(3, 3);
    }

    #[test]
    fn allocation_is_deterministic() {
        let run = || {
            let mut a = IpAllocator::new();
            (0..10)
                .map(|_| a.allocate(country("BR")))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}

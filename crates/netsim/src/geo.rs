//! Geography: countries, regions, and ISP classes.
//!
//! The paper reports measurements from 170 countries, with China, India,
//! the United Kingdom and Brazil contributing ≥1,000 measurements and
//! Egypt, South Korea, Iran, Pakistan, Turkey and Saudi Arabia ≥100 (§7).
//! The built-in [`World`] table names every country that matters to the
//! paper's analysis explicitly (with per-country network quality) and can
//! synthesise an arbitrary long tail of additional countries so that runs
//! reach the paper's 170-country diversity.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// ISO-3166-style two-letter country code (upper-case ASCII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CountryCode([u8; 2]);

// Hand-written codecs: a country code reads naturally as the string "US",
// both as a value and as a map key.
impl Serialize for CountryCode {
    fn write_json(&self, out: &mut String) {
        serde::json::push_string(out, self.as_str());
    }
    // Binary form: the two raw ASCII bytes (hot in streamed visit logs).
    fn write_bin(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
}

impl Deserialize for CountryCode {
    fn from_value(v: &serde::json::Value) -> Result<Self, serde::json::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::json::Error::new("expected country code string"))?;
        <Self as serde::JsonKey>::from_json_key(s)
    }
    fn read_bin(input: &mut serde::bin::Reader<'_>) -> Result<Self, serde::json::Error> {
        let bytes = input.take(2)?;
        if bytes.iter().all(|b| b.is_ascii_alphabetic()) {
            Ok(CountryCode([bytes[0], bytes[1]]))
        } else {
            Err(serde::json::Error::new("bad country code bytes"))
        }
    }
}

impl serde::JsonKey for CountryCode {
    fn to_json_key(&self) -> String {
        self.as_str().to_string()
    }
    fn from_json_key(s: &str) -> Result<Self, serde::json::Error> {
        let bytes = s.as_bytes();
        if bytes.len() == 2 && bytes.iter().all(|b| b.is_ascii_alphabetic()) {
            Ok(CountryCode::new(s))
        } else {
            Err(serde::json::Error::new(format!("bad country code `{s}`")))
        }
    }
}

impl CountryCode {
    /// Construct from a two-letter code. Panics on malformed input —
    /// country codes are always compile-time or table-derived constants.
    pub fn new(code: &str) -> CountryCode {
        let bytes = code.as_bytes();
        assert!(
            bytes.len() == 2 && bytes.iter().all(|b| b.is_ascii_alphabetic()),
            "country code must be two ASCII letters, got {code:?}"
        );
        CountryCode([bytes[0].to_ascii_uppercase(), bytes[1].to_ascii_uppercase()])
    }

    /// The code as a string slice.
    pub fn as_str(&self) -> &str {
        // Invariant: constructed from ASCII letters.
        std::str::from_utf8(&self.0).expect("country code is ASCII")
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Coarse world regions used by the backbone-latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Region {
    /// North America.
    NorthAmerica,
    /// South and Central America.
    SouthAmerica,
    /// Europe.
    Europe,
    /// Middle East and North Africa.
    MiddleEast,
    /// Sub-Saharan Africa.
    Africa,
    /// South Asia.
    SouthAsia,
    /// East Asia.
    EastAsia,
    /// South-East Asia and Oceania.
    Oceania,
}

impl Region {
    /// All regions, in a fixed order.
    pub const ALL: [Region; 8] = [
        Region::NorthAmerica,
        Region::SouthAmerica,
        Region::Europe,
        Region::MiddleEast,
        Region::Africa,
        Region::SouthAsia,
        Region::EastAsia,
        Region::Oceania,
    ];

    /// Stable index of the region (used by the latency matrix).
    pub fn index(self) -> usize {
        Region::ALL
            .iter()
            .position(|r| *r == self)
            .expect("region present in ALL")
    }
}

/// Access-network class of a vantage point. The paper (§2) stresses that
/// residential and mobile networks "can face much different censorship
/// practices than academic and research networks" — censor policies and
/// network quality can differ per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum IspClass {
    /// Home broadband.
    Residential,
    /// Cellular data.
    Mobile,
    /// University / research network.
    Academic,
    /// Cloud or hosting provider (where servers live; also PlanetLab-style
    /// vantage points).
    Datacenter,
}

impl IspClass {
    /// All classes, in a fixed order.
    pub const ALL: [IspClass; 4] = [
        IspClass::Residential,
        IspClass::Mobile,
        IspClass::Academic,
        IspClass::Datacenter,
    ];
}

/// Static description of one country.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Country {
    /// Two-letter code.
    pub code: CountryCode,
    /// Human-readable name.
    pub name: String,
    /// World region (drives backbone latency).
    pub region: Region,
    /// Median last-mile latency contribution, milliseconds.
    pub access_latency_ms: f64,
    /// Probability that any single network operation transiently fails for
    /// reasons unrelated to censorship (the paper's India example: "a
    /// country with notoriously unreliable network connectivity,
    /// contributed to a 5% false positive rate").
    pub transient_failure_rate: f64,
    /// Relative share of the simulated client population (arbitrary
    /// weight; normalised by consumers).
    pub population_weight: f64,
    /// Whether the paper/world knowledge flags this country as practising
    /// some form of Web filtering (used only to *construct* interesting
    /// censor policies — the measurement pipeline never reads it).
    pub known_filtering: bool,
}

/// The world: a table of countries.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct World {
    countries: BTreeMap<CountryCode, Country>,
}

/// Row format for the built-in table:
/// (code, name, region, access ms, transient failure, pop weight, filtering)
type CountryRow = (&'static str, &'static str, Region, f64, f64, f64, bool);

/// Countries named by the paper plus the rest of the top of the Internet
/// population, with rough but plausible network-quality parameters.
/// Transient-failure rates are calibrated so the §7.1 soundness experiment
/// reproduces the paper's "India contributed to a 5% false positive rate"
/// observation.
const BUILTIN: &[CountryRow] = &[
    (
        "US",
        "United States",
        Region::NorthAmerica,
        15.0,
        0.010,
        30.0,
        false,
    ),
    (
        "CA",
        "Canada",
        Region::NorthAmerica,
        18.0,
        0.010,
        3.0,
        false,
    ),
    (
        "MX",
        "Mexico",
        Region::NorthAmerica,
        35.0,
        0.030,
        3.0,
        false,
    ),
    (
        "BR",
        "Brazil",
        Region::SouthAmerica,
        40.0,
        0.030,
        6.0,
        false,
    ),
    (
        "AR",
        "Argentina",
        Region::SouthAmerica,
        45.0,
        0.030,
        2.0,
        false,
    ),
    (
        "CO",
        "Colombia",
        Region::SouthAmerica,
        48.0,
        0.035,
        1.5,
        false,
    ),
    (
        "GB",
        "United Kingdom",
        Region::Europe,
        14.0,
        0.008,
        6.0,
        true,
    ),
    ("DE", "Germany", Region::Europe, 13.0, 0.008, 5.0, false),
    ("FR", "France", Region::Europe, 14.0, 0.009, 4.0, false),
    ("NL", "Netherlands", Region::Europe, 10.0, 0.007, 2.0, false),
    ("IT", "Italy", Region::Europe, 20.0, 0.012, 3.0, false),
    ("ES", "Spain", Region::Europe, 18.0, 0.011, 3.0, false),
    ("PL", "Poland", Region::Europe, 20.0, 0.012, 2.0, false),
    ("SE", "Sweden", Region::Europe, 11.0, 0.007, 1.0, false),
    ("RU", "Russia", Region::Europe, 35.0, 0.025, 5.0, true),
    ("UA", "Ukraine", Region::Europe, 30.0, 0.022, 1.5, false),
    ("TR", "Turkey", Region::MiddleEast, 35.0, 0.025, 3.0, true),
    ("IR", "Iran", Region::MiddleEast, 60.0, 0.040, 3.0, true),
    (
        "SA",
        "Saudi Arabia",
        Region::MiddleEast,
        45.0,
        0.025,
        2.0,
        true,
    ),
    (
        "AE",
        "United Arab Emirates",
        Region::MiddleEast,
        35.0,
        0.018,
        1.0,
        true,
    ),
    ("EG", "Egypt", Region::MiddleEast, 55.0, 0.040, 3.0, true),
    ("IL", "Israel", Region::MiddleEast, 25.0, 0.012, 1.0, false),
    ("NG", "Nigeria", Region::Africa, 80.0, 0.070, 3.0, false),
    (
        "ZA",
        "South Africa",
        Region::Africa,
        60.0,
        0.040,
        1.5,
        false,
    ),
    ("KE", "Kenya", Region::Africa, 75.0, 0.060, 1.0, false),
    ("IN", "India", Region::SouthAsia, 65.0, 0.050, 18.0, true),
    ("PK", "Pakistan", Region::SouthAsia, 70.0, 0.045, 4.0, true),
    (
        "BD",
        "Bangladesh",
        Region::SouthAsia,
        75.0,
        0.055,
        3.0,
        true,
    ),
    (
        "LK",
        "Sri Lanka",
        Region::SouthAsia,
        60.0,
        0.040,
        0.5,
        false,
    ),
    ("CN", "China", Region::EastAsia, 50.0, 0.030, 20.0, true),
    ("JP", "Japan", Region::EastAsia, 12.0, 0.006, 5.0, false),
    (
        "KR",
        "South Korea",
        Region::EastAsia,
        10.0,
        0.006,
        3.0,
        true,
    ),
    ("TW", "Taiwan", Region::EastAsia, 15.0, 0.008, 1.5, false),
    ("HK", "Hong Kong", Region::EastAsia, 12.0, 0.008, 1.0, false),
    ("VN", "Vietnam", Region::Oceania, 55.0, 0.040, 3.0, true),
    ("TH", "Thailand", Region::Oceania, 45.0, 0.030, 2.5, true),
    ("ID", "Indonesia", Region::Oceania, 60.0, 0.045, 6.0, true),
    ("MY", "Malaysia", Region::Oceania, 40.0, 0.025, 1.5, true),
    (
        "PH",
        "Philippines",
        Region::Oceania,
        55.0,
        0.045,
        3.0,
        false,
    ),
    ("SG", "Singapore", Region::Oceania, 10.0, 0.005, 1.0, false),
    ("AU", "Australia", Region::Oceania, 25.0, 0.010, 2.0, false),
    (
        "NZ",
        "New Zealand",
        Region::Oceania,
        28.0,
        0.010,
        0.5,
        false,
    ),
];

impl World {
    /// The built-in table of explicitly modelled countries.
    pub fn builtin() -> World {
        let mut w = World::default();
        for &(code, name, region, lat, fail, pop, filt) in BUILTIN {
            w.insert(Country {
                code: CountryCode::new(code),
                name: name.to_string(),
                region,
                access_latency_ms: lat,
                transient_failure_rate: fail,
                population_weight: pop,
                known_filtering: filt,
            });
        }
        w
    }

    /// The built-in table extended with synthetic countries up to `total`
    /// (codes `X<letter><letter>`-style), so that large runs exhibit the
    /// paper's 170-country diversity. Synthetic countries get middling
    /// network quality and a small population weight.
    pub fn with_long_tail(total: usize) -> World {
        let mut w = World::builtin();
        let regions = Region::ALL;
        let mut i = 0usize;
        while w.len() < total {
            // Generate codes QA, QB, ..., avoiding collisions with builtins.
            let a = b'A' + (i / 26) as u8 % 26;
            let b = b'A' + (i % 26) as u8;
            i += 1;
            let code_str = format!("{}{}", a as char, b as char);
            let code = CountryCode::new(&code_str);
            if w.get(code).is_some() {
                continue;
            }
            let region = regions[i % regions.len()];
            w.insert(Country {
                code,
                name: format!("Synthetic-{code_str}"),
                region,
                access_latency_ms: 40.0 + (i % 7) as f64 * 10.0,
                transient_failure_rate: 0.02 + (i % 5) as f64 * 0.005,
                population_weight: 0.2,
                known_filtering: false,
            });
        }
        w
    }

    /// Insert (or replace) a country.
    pub fn insert(&mut self, c: Country) {
        self.countries.insert(c.code, c);
    }

    /// Look up a country by code.
    pub fn get(&self, code: CountryCode) -> Option<&Country> {
        self.countries.get(&code)
    }

    /// Iterate over all countries in code order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &Country> {
        self.countries.values()
    }

    /// Number of countries.
    pub fn len(&self) -> usize {
        self.countries.len()
    }

    /// Whether the world is empty.
    pub fn is_empty(&self) -> bool {
        self.countries.is_empty()
    }
}

/// Convenience constructor: `country("PK")`.
pub fn country(code: &str) -> CountryCode {
    CountryCode::new(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn country_code_normalises_case() {
        assert_eq!(CountryCode::new("pk").as_str(), "PK");
        assert_eq!(CountryCode::new("Pk").to_string(), "PK");
    }

    #[test]
    #[should_panic(expected = "two ASCII letters")]
    fn country_code_rejects_length() {
        let _ = CountryCode::new("PAK");
    }

    #[test]
    #[should_panic(expected = "two ASCII letters")]
    fn country_code_rejects_digits() {
        let _ = CountryCode::new("P1");
    }

    #[test]
    fn builtin_world_has_paper_countries() {
        let w = World::builtin();
        for c in [
            "CN", "IN", "GB", "BR", "EG", "KR", "IR", "PK", "TR", "SA", "US",
        ] {
            assert!(w.get(country(c)).is_some(), "missing {c}");
        }
    }

    #[test]
    fn builtin_world_flags_filtering_countries() {
        let w = World::builtin();
        let f: Vec<CountryCode> = w
            .countries
            .values()
            .filter(|c| c.known_filtering)
            .map(|c| c.code)
            .collect();
        for c in ["CN", "IR", "PK", "TR", "SA", "EG", "KR"] {
            assert!(f.contains(&country(c)), "{c} should be flagged");
        }
        assert!(!f.contains(&country("US")));
        assert!(!f.contains(&country("DE")));
    }

    #[test]
    fn long_tail_reaches_170_countries() {
        let w = World::with_long_tail(170);
        assert!(w.len() >= 170, "got {}", w.len());
        // Builtins are preserved.
        assert_eq!(w.get(country("CN")).unwrap().name, "China");
    }

    #[test]
    fn long_tail_smaller_than_builtin_is_noop() {
        let w = World::with_long_tail(5);
        assert_eq!(w.len(), World::builtin().len());
    }

    #[test]
    fn india_has_elevated_failure_rate() {
        // Calibration hook for the paper's 5% India false-positive remark.
        let w = World::builtin();
        let india = w.get(country("IN")).unwrap();
        let us = w.get(country("US")).unwrap();
        assert!(india.transient_failure_rate >= 0.04);
        assert!(india.transient_failure_rate > 3.0 * us.transient_failure_rate);
    }

    #[test]
    fn iteration_is_sorted_by_code() {
        let w = World::builtin();
        let codes: Vec<_> = w.iter().map(|c| c.code).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        assert_eq!(codes, sorted);
    }

    #[test]
    fn region_index_is_stable() {
        for (i, r) in Region::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn population_weights_align_with_codes() {
        let w = World::builtin();
        assert!(w.countries.values().all(|c| c.population_weight > 0.0));
    }
}

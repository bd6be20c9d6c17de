//! Audience models: who visits an origin site.
//!
//! §6.2 measured a professor's homepage for February 2014: 1,171 visits,
//! "most visitors were from the United States, but we saw more than 10
//! users from 10 other countries, and 16% of visitors reside in countries
//! with well-known Web filtering policies (India, China, Pakistan, the
//! UK, and South Korea)". Dwell: "45% of visitors remained on the page
//! for longer than 10 seconds … 35% … longer than a minute".

use browser::Engine;
use netsim::geo::{country, CountryCode, IspClass, World};
use serde::{Deserialize, Serialize};
use sim_core::dist::{Empirical, LogNormal, Sample};
use sim_core::{SimDuration, SimRng};

/// A sampled visitor profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Visitor {
    /// Where the visitor is.
    pub country: CountryCode,
    /// Their access network.
    pub isp: IspClass,
    /// Their browser.
    pub engine: Engine,
    /// How long they stay on the page.
    pub dwell: SimDuration,
    /// Whether this is automated traffic (the §6.2 "automated traffic
    /// from our campus' security scanner").
    pub is_crawler: bool,
}

impl Visitor {
    /// The self-reported user agent: crawlers announce themselves, humans
    /// report the browser actually driving the visit (which, for a
    /// returning pooled client, may differ from this visitor's sampled
    /// engine).
    pub fn user_agent(&self, client_engine: Engine) -> &'static str {
        if self.is_crawler {
            "CampusSecurityScanner/1.0 (bot)"
        } else {
            client_engine.name()
        }
    }

    /// Dwell time as the Encore snippet experiences it. Most automated
    /// clients never execute JavaScript, so they load the origin page but
    /// attempt no measurement; a 25% minority are headless browsers that
    /// do (the "erroneously contributed measurements" of §7.1).
    pub fn effective_dwell(&self, rng: &mut SimRng) -> SimDuration {
        if self.is_crawler && !rng.chance(0.25) {
            SimDuration::ZERO
        } else {
            self.dwell
        }
    }
}

/// An origin site's audience.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Audience {
    /// Country mix.
    pub countries: Empirical<CountryCode>,
    /// Access-network mix.
    pub isps: Empirical<IspClass>,
    /// Browser mix.
    pub engines: Empirical<Engine>,
    /// Fraction of visits that bounce in under ten seconds.
    pub bounce_fraction: f64,
    /// Fraction of visits that stay over a minute (the rest dwell
    /// 10–60 s).
    pub long_stay_fraction: f64,
    /// Fraction of automated visits.
    pub crawler_fraction: f64,
}

impl Audience {
    /// The §6.2 academic-homepage audience.
    pub fn academic() -> Audience {
        let countries = Empirical::new(vec![
            (country("US"), 62.0),
            // The five "well-known Web filtering" countries: 16% combined.
            (country("IN"), 6.0),
            (country("CN"), 4.0),
            (country("PK"), 2.0),
            (country("GB"), 2.5),
            (country("KR"), 1.5),
            // A tail of ten-plus other countries.
            (country("DE"), 4.0),
            (country("CA"), 3.5),
            (country("FR"), 2.5),
            (country("BR"), 2.0),
            (country("JP"), 2.0),
            (country("AU"), 1.5),
            (country("NL"), 1.5),
            (country("IT"), 1.5),
            (country("ES"), 1.5),
            (country("SE"), 1.0),
            (country("IR"), 1.0),
        ]);
        Audience {
            countries,
            isps: Empirical::new(vec![
                (IspClass::Residential, 0.55),
                (IspClass::Academic, 0.30),
                (IspClass::Mobile, 0.15),
            ]),
            engines: Engine::market_distribution(),
            bounce_fraction: 0.55,
            long_stay_fraction: 0.35,
            crawler_fraction: 0.12,
        }
    }

    /// A world audience matching the world table's population weights —
    /// for the §7 full-scale runs (popular origin sites with global
    /// reach).
    pub fn world(world: &World) -> Audience {
        let countries = Empirical::new(
            world
                .iter()
                .map(|c| (c.code, c.population_weight))
                .collect(),
        );
        Audience {
            countries,
            isps: Empirical::new(vec![
                (IspClass::Residential, 0.62),
                (IspClass::Mobile, 0.28),
                (IspClass::Academic, 0.07),
                (IspClass::Datacenter, 0.03),
            ]),
            engines: Engine::market_distribution(),
            bounce_fraction: 0.50,
            long_stay_fraction: 0.30,
            crawler_fraction: 0.04,
        }
    }

    /// Sample one visitor.
    pub fn sample(&self, rng: &mut SimRng) -> Visitor {
        let dwell = self.sample_dwell(rng);
        Visitor {
            country: *self.countries.sample(rng),
            isp: *self.isps.sample(rng),
            engine: *self.engines.sample(rng),
            dwell,
            is_crawler: rng.chance(self.crawler_fraction),
        }
    }

    /// Sample a dwell time matching the §6.2 fractions: a three-way
    /// mixture of bounces (<10 s), medium stays (10–60 s), and long
    /// stays (log-normal above 60 s).
    pub fn sample_dwell(&self, rng: &mut SimRng) -> SimDuration {
        let u = rng.unit();
        if u < self.bounce_fraction {
            SimDuration::from_millis_f64(rng.range_f64(500.0, 9_500.0))
        } else if u < 1.0 - self.long_stay_fraction {
            SimDuration::from_millis_f64(rng.range_f64(10_000.0, 59_000.0))
        } else {
            let extra = LogNormal::from_median(120.0, 0.9).sample(rng); // seconds
            SimDuration::from_secs(60) + SimDuration::from_millis_f64(extra * 1_000.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn academic_audience_dwell_fractions_match_paper() {
        let a = Audience::academic();
        let mut rng = SimRng::new(0xD4E11);
        let n = 20_000;
        let dwells: Vec<SimDuration> = (0..n).map(|_| a.sample_dwell(&mut rng)).collect();
        let over_10s = dwells
            .iter()
            .filter(|d| **d > SimDuration::from_secs(10))
            .count() as f64
            / n as f64;
        let over_60s = dwells
            .iter()
            .filter(|d| **d > SimDuration::from_secs(60))
            .count() as f64
            / n as f64;
        assert!((0.42..0.48).contains(&over_10s), ">10s = {over_10s}");
        assert!((0.32..0.38).contains(&over_60s), ">60s = {over_60s}");
    }

    #[test]
    fn academic_audience_is_mostly_us_with_filtering_tail() {
        let a = Audience::academic();
        let mut rng = SimRng::new(2);
        let n = 20_000;
        let mut us = 0;
        let mut filtering = 0;
        for _ in 0..n {
            let v = a.sample(&mut rng);
            if v.country == country("US") {
                us += 1;
            }
            if ["IN", "CN", "PK", "GB", "KR"]
                .iter()
                .any(|c| v.country == country(c))
            {
                filtering += 1;
            }
        }
        let us_frac = us as f64 / n as f64;
        let filt_frac = filtering as f64 / n as f64;
        assert!(us_frac > 0.5, "US fraction {us_frac}");
        // Paper: "16% of visitors reside in countries with well-known Web
        // filtering policies".
        assert!((0.12..0.20).contains(&filt_frac), "filtering {filt_frac}");
    }

    #[test]
    fn world_audience_spans_many_countries() {
        let world = World::with_long_tail(170);
        let a = Audience::world(&world);
        let mut rng = SimRng::new(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..30_000 {
            seen.insert(a.sample(&mut rng).country);
        }
        assert!(seen.len() > 100, "only {} countries sampled", seen.len());
    }

    #[test]
    fn crawler_fraction_respected() {
        let a = Audience::academic();
        let mut rng = SimRng::new(4);
        let crawlers = (0..10_000)
            .filter(|_| a.sample(&mut rng).is_crawler)
            .count();
        assert!((900..1_500).contains(&crawlers), "crawlers = {crawlers}");
    }

    #[test]
    fn visitors_get_varied_engines() {
        let a = Audience::academic();
        let mut rng = SimRng::new(5);
        let engines: std::collections::BTreeSet<_> =
            (0..1_000).map(|_| a.sample(&mut rng).engine).collect();
        assert_eq!(engines.len(), 4);
    }
}

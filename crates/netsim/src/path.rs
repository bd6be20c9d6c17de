//! Path quality: RTT, loss, and bandwidth between hosts.
//!
//! RTT = client access latency + backbone latency between regions + server
//! access latency, with multiplicative log-normal jitter per operation.
//! Bandwidth determines transfer time for response bodies; loss contributes
//! to transient failures alongside each country's baseline unreliability.
//! Figure 7's cached-vs-uncached gap ("most clients take at least 50 ms
//! longer to load the same image uncached") emerges directly from this
//! model: a cached load skips the network entirely and costs only render
//! time, while an uncached load pays DNS + TCP + HTTP round trips.

use crate::geo::{Country, IspClass, Region};
use crate::host::Host;
use serde::{Deserialize, Serialize};
use sim_core::dist::{LogNormal, Sample};
use sim_core::{SimDuration, SimRng};

/// Inter-region one-way backbone latency in milliseconds. Symmetric.
/// Indexed by [`Region::index`]. Values are rough great-circle/backbone
/// figures; the experiments only depend on them being plausible and
/// heterogeneous.
const BACKBONE_MS: [[f64; 8]; 8] = [
    // NA     SA     EU     ME     AF     SAs    EAs    Oc
    [5.0, 75.0, 45.0, 70.0, 90.0, 110.0, 75.0, 90.0], // NorthAmerica
    [75.0, 10.0, 95.0, 120.0, 120.0, 160.0, 140.0, 150.0], // SouthAmerica
    [45.0, 95.0, 5.0, 30.0, 50.0, 65.0, 110.0, 120.0], // Europe
    [70.0, 120.0, 30.0, 8.0, 45.0, 40.0, 85.0, 95.0], // MiddleEast
    [90.0, 120.0, 50.0, 45.0, 15.0, 70.0, 120.0, 130.0], // Africa
    [110.0, 160.0, 65.0, 40.0, 70.0, 10.0, 55.0, 60.0], // SouthAsia
    [75.0, 140.0, 110.0, 85.0, 120.0, 55.0, 8.0, 40.0], // EastAsia
    [90.0, 150.0, 120.0, 95.0, 130.0, 60.0, 40.0, 12.0], // Oceania
];

/// Per-ISP-class multipliers on access latency and failure rate.
fn isp_factors(isp: IspClass) -> (f64, f64) {
    match isp {
        IspClass::Residential => (1.0, 1.0),
        IspClass::Mobile => (1.8, 1.6),
        IspClass::Academic => (0.6, 0.4),
        IspClass::Datacenter => (0.3, 0.2),
    }
}

/// Static quality of the path between two specific hosts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathQuality {
    /// Median round-trip time.
    pub rtt_median_ms: f64,
    /// Probability that one network operation (one request/response
    /// exchange) transiently fails.
    pub failure_rate: f64,
    /// Effective downstream bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

/// Configuration of the path model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathModel {
    /// Sigma of the log-normal RTT jitter (0 disables jitter).
    pub jitter_sigma: f64,
    /// Baseline downstream bandwidth for a residential client, bytes/s.
    pub base_bandwidth_bps: f64,
    /// Global multiplier on country failure rates (1.0 = calibrated).
    pub failure_scale: f64,
}

impl Default for PathModel {
    fn default() -> Self {
        PathModel {
            jitter_sigma: 0.25,
            // ~8 Mbit/s median residential downstream, 2014-era.
            base_bandwidth_bps: 1_000_000.0,
            failure_scale: 1.0,
        }
    }
}

impl PathModel {
    /// A lossless, jitter-free model for tests that need exact timings.
    pub fn ideal() -> PathModel {
        PathModel {
            jitter_sigma: 0.0,
            base_bandwidth_bps: 1_000_000.0,
            failure_scale: 0.0,
        }
    }

    /// Static path quality between `client` (in `client_country`) and a
    /// server (in `server_country`).
    pub fn quality(
        &self,
        client: &Host,
        client_country: &Country,
        server_country: &Country,
    ) -> PathQuality {
        let (lat_f, fail_f) = isp_factors(client.isp);
        let backbone = backbone_ms(client_country.region, server_country.region);
        let rtt = client_country.access_latency_ms * lat_f
            + 2.0 * backbone
            + server_country.access_latency_ms * 0.3; // Servers are well-connected.
        let failure =
            (client_country.transient_failure_rate * fail_f * self.failure_scale).clamp(0.0, 1.0);
        PathQuality {
            rtt_median_ms: rtt,
            failure_rate: failure,
            bandwidth_bps: self.base_bandwidth_bps / lat_f.max(0.2),
        }
    }

    /// Sample one round-trip time with jitter.
    pub fn sample_rtt(&self, q: &PathQuality, rng: &mut SimRng) -> SimDuration {
        let jitter = if self.jitter_sigma > 0.0 {
            LogNormal::new(0.0, self.jitter_sigma).sample(rng)
        } else {
            1.0
        };
        SimDuration::from_millis_f64(q.rtt_median_ms * jitter)
    }

    /// Transfer time for `bytes` of body at the path's bandwidth (plus the
    /// serialisation already covered by the RTT term).
    pub fn transfer_time(&self, q: &PathQuality, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_millis_f64(bytes as f64 / q.bandwidth_bps * 1_000.0)
    }

    /// Per-stage failure probability such that a three-stage fetch
    /// (DNS → TCP → HTTP) fails with overall probability
    /// `q.failure_rate`. The calibrated country rates describe *fetch*
    /// failure (that is what the paper's false-positive rates measure),
    /// so each stage must draw at a correspondingly lower rate.
    pub fn stage_failure_probability(&self, q: &PathQuality) -> f64 {
        1.0 - (1.0 - q.failure_rate.clamp(0.0, 1.0)).powf(1.0 / 3.0)
    }

    /// Bernoulli transient-failure draw for one *stage* of a fetch.
    pub fn stage_fails(&self, q: &PathQuality, rng: &mut SimRng) -> bool {
        rng.chance(self.stage_failure_probability(q))
    }
}

/// Symmetric backbone latency between two regions, in ms (one way).
pub fn backbone_ms(a: Region, b: Region) -> f64 {
    BACKBONE_MS[a.index()][b.index()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::{country, World};
    use crate::host::HostId;
    use std::net::Ipv4Addr;

    fn host(c: &str, isp: IspClass) -> Host {
        Host::new(HostId(0), Ipv4Addr::new(100, 0, 0, 2), country(c), isp)
    }

    fn world_pair(client: &str, server: &str) -> (Country, Country) {
        let w = World::builtin();
        (
            w.get(country(client)).unwrap().clone(),
            w.get(country(server)).unwrap().clone(),
        )
    }

    #[test]
    fn backbone_is_symmetric() {
        for a in Region::ALL {
            for b in Region::ALL {
                assert_eq!(backbone_ms(a, b), backbone_ms(b, a), "{a:?}/{b:?}");
            }
        }
    }

    #[test]
    fn intra_region_faster_than_inter() {
        assert!(
            backbone_ms(Region::Europe, Region::Europe)
                < backbone_ms(Region::Europe, Region::EastAsia)
        );
    }

    #[test]
    fn pakistan_to_us_slower_than_us_to_us() {
        let m = PathModel::default();
        let (pk, us) = world_pair("PK", "US");
        let (us_c, _) = world_pair("US", "US");
        let q_pk = m.quality(&host("PK", IspClass::Residential), &pk, &us);
        let q_us = m.quality(&host("US", IspClass::Residential), &us_c, &us);
        assert!(q_pk.rtt_median_ms > q_us.rtt_median_ms + 50.0);
    }

    #[test]
    fn academic_isp_faster_and_more_reliable_than_mobile() {
        let m = PathModel::default();
        let (ind, us) = world_pair("IN", "US");
        let q_ac = m.quality(&host("IN", IspClass::Academic), &ind, &us);
        let q_mo = m.quality(&host("IN", IspClass::Mobile), &ind, &us);
        assert!(q_ac.rtt_median_ms < q_mo.rtt_median_ms);
        assert!(q_ac.failure_rate < q_mo.failure_rate);
    }

    #[test]
    fn ideal_model_is_deterministic_and_lossless() {
        let m = PathModel::ideal();
        let (us, us2) = world_pair("US", "US");
        let q = m.quality(&host("US", IspClass::Residential), &us, &us2);
        assert_eq!(q.failure_rate, 0.0);
        let mut rng = SimRng::new(1);
        let a = m.sample_rtt(&q, &mut rng);
        let b = m.sample_rtt(&q, &mut rng);
        assert_eq!(a, b, "no jitter in ideal model");
    }

    #[test]
    fn rtt_jitter_varies_but_stays_positive() {
        let m = PathModel::default();
        let (us, us2) = world_pair("US", "US");
        let q = m.quality(&host("US", IspClass::Residential), &us, &us2);
        let mut rng = SimRng::new(2);
        let samples: Vec<_> = (0..100).map(|_| m.sample_rtt(&q, &mut rng)).collect();
        assert!(samples.iter().any(|a| *a != samples[0]));
        assert!(samples.iter().all(|a| a.as_micros() > 0));
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let m = PathModel::default();
        let (us, us2) = world_pair("US", "US");
        let q = m.quality(&host("US", IspClass::Residential), &us, &us2);
        let t1 = m.transfer_time(&q, 1_000);
        let t2 = m.transfer_time(&q, 100_000);
        assert!(t2 > t1 * 50);
        assert_eq!(m.transfer_time(&q, 0), SimDuration::ZERO);
    }

    #[test]
    fn failure_scale_zero_disables_failures() {
        let m = PathModel {
            failure_scale: 0.0,
            ..PathModel::default()
        };
        let (ind, us) = world_pair("IN", "US");
        let q = m.quality(&host("IN", IspClass::Mobile), &ind, &us);
        assert_eq!(q.failure_rate, 0.0);
    }

    #[test]
    fn stage_failure_composes_to_fetch_failure() {
        let m = PathModel::default();
        let q = PathQuality {
            rtt_median_ms: 100.0,
            failure_rate: 0.05,
            bandwidth_bps: 1e6,
        };
        let p_stage = m.stage_failure_probability(&q);
        let composed = 1.0 - (1.0 - p_stage).powi(3);
        assert!((composed - 0.05).abs() < 1e-9, "composed = {composed}");
        assert!(p_stage < 0.05);
    }

    #[test]
    fn india_residential_failure_rate_near_five_percent() {
        // The §7.1 calibration: India's image-task false-positive rate was
        // about 5% in the paper.
        let m = PathModel::default();
        let (ind, us) = world_pair("IN", "US");
        let q = m.quality(&host("IN", IspClass::Residential), &ind, &us);
        assert!(
            (0.03..0.08).contains(&q.failure_rate),
            "failure = {}",
            q.failure_rate
        );
    }
}

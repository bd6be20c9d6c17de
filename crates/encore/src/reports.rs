//! Report generation — the researcher-facing output.
//!
//! Paper §3.1: "Our goal is to observe instances of Web filtering and
//! report them to a central authority (e.g., researchers) for analysis."
//! This module turns raw collection records plus detector output into
//! the kind of per-country report the OpenNet Initiative published
//! qualitatively and Encore aimed to ground in continuous measurement:
//! measurement volume, vantage diversity, per-domain success rates, and
//! the flagged resources, renderable as Markdown.

use crate::collection::{StoredMeasurement, SubmissionPhase};
use crate::geo::GeoDb;
use crate::inference::{Detection, FilteringDetector};
use crate::tasks::TaskOutcome;
use netsim::geo::CountryCode;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-domain measurement summary within one country.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainSummary {
    /// Target domain.
    pub domain: String,
    /// Result measurements.
    pub measurements: u64,
    /// Successful measurements.
    pub successes: u64,
    /// Whether the detector flagged this domain here.
    pub flagged: bool,
}

impl DomainSummary {
    /// Observed success rate.
    pub fn success_rate(&self) -> f64 {
        if self.measurements == 0 {
            1.0
        } else {
            self.successes as f64 / self.measurements as f64
        }
    }
}

/// A country's report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountryReport {
    /// The country.
    pub country: CountryCode,
    /// Total result measurements geolocated here.
    pub measurements: u64,
    /// Distinct client addresses seen.
    pub distinct_ips: usize,
    /// Per-domain summaries, flagged first, then by volume.
    pub domains: Vec<DomainSummary>,
}

impl CountryReport {
    /// Domains flagged as filtered here.
    pub fn flagged_domains(&self) -> Vec<&str> {
        self.domains
            .iter()
            .filter(|d| d.flagged)
            .map(|d| d.domain.as_str())
            .collect()
    }
}

/// Build per-country reports from records + detections.
pub fn country_reports(
    records: &[StoredMeasurement],
    geo: &GeoDb,
    detector: &FilteringDetector,
) -> Vec<CountryReport> {
    let detections: Vec<Detection> = detector.detect(records, geo);
    let flagged: std::collections::BTreeSet<(String, CountryCode)> = detections
        .iter()
        .map(|d| (d.domain.clone(), d.country))
        .collect();

    // (country, domain) → (n, x); country → ips.
    let mut cells: BTreeMap<(CountryCode, String), (u64, u64)> = BTreeMap::new();
    let mut ips: BTreeMap<CountryCode, std::collections::BTreeSet<std::net::Ipv4Addr>> =
        BTreeMap::new();
    for rec in records {
        if rec.submission.phase != SubmissionPhase::Result {
            continue;
        }
        if detector.config.exclude_crawlers && rec.is_crawler() {
            continue;
        }
        let (Some(outcome), Some(domain), Some(country)) = (
            rec.submission.outcome,
            rec.target_domain(),
            geo.lookup(rec.client_ip),
        ) else {
            continue;
        };
        let cell = cells.entry((country, domain)).or_default();
        cell.0 += 1;
        if outcome == TaskOutcome::Success {
            cell.1 += 1;
        }
        ips.entry(country).or_default().insert(rec.client_ip);
    }

    let mut by_country: BTreeMap<CountryCode, Vec<DomainSummary>> = BTreeMap::new();
    for ((country, domain), (n, x)) in cells {
        by_country.entry(country).or_default().push(DomainSummary {
            flagged: flagged.contains(&(domain.clone(), country)),
            domain,
            measurements: n,
            successes: x,
        });
    }

    let mut reports: Vec<CountryReport> = by_country
        .into_iter()
        .map(|(country, mut domains)| {
            domains.sort_by(|a, b| {
                b.flagged
                    .cmp(&a.flagged)
                    .then(b.measurements.cmp(&a.measurements))
                    .then(a.domain.cmp(&b.domain))
            });
            CountryReport {
                country,
                measurements: domains.iter().map(|d| d.measurements).sum(),
                distinct_ips: ips.get(&country).map(|s| s.len()).unwrap_or(0),
                domains,
            }
        })
        .collect();
    // Largest contributors first.
    reports.sort_by(|a, b| {
        b.measurements
            .cmp(&a.measurements)
            .then(a.country.cmp(&b.country))
    });
    reports
}

/// Render reports as a Markdown document.
pub fn render_markdown(reports: &[CountryReport]) -> String {
    let mut out = String::from("# Encore measurement report\n\n");
    let total: u64 = reports.iter().map(|r| r.measurements).sum();
    let flagged_total: usize = reports.iter().map(|r| r.flagged_domains().len()).sum();
    out.push_str(&format!(
        "{} result measurements across {} countries; {} (domain, country) pairs flagged.\n\n",
        total,
        reports.len(),
        flagged_total
    ));
    for r in reports {
        out.push_str(&format!(
            "## {} — {} measurements from {} addresses\n\n",
            r.country, r.measurements, r.distinct_ips
        ));
        if r.domains.is_empty() {
            out.push_str("no measurements\n\n");
            continue;
        }
        out.push_str("| domain | measurements | success rate | status |\n");
        out.push_str("|---|---|---|---|\n");
        for d in &r.domains {
            out.push_str(&format!(
                "| {} | {} | {:.1}% | {} |\n",
                d.domain,
                d.measurements,
                100.0 * d.success_rate(),
                if d.flagged { "**FILTERED**" } else { "ok" }
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Submission;
    use crate::tasks::{MeasurementId, TaskType};
    use netsim::geo::country;
    use netsim::ip::IpAllocator;
    use sim_core::SimTime;

    fn records() -> (Vec<StoredMeasurement>, GeoDb) {
        let mut alloc = IpAllocator::new();
        let mut records = Vec::new();
        let mut id = 0u64;
        let mut add = |alloc: &mut IpAllocator,
                       records: &mut Vec<StoredMeasurement>,
                       domain: &str,
                       cc: &str,
                       ok: bool| {
            id += 1;
            records.push(StoredMeasurement {
                submission: Submission {
                    measurement_id: MeasurementId(id),
                    phase: SubmissionPhase::Result,
                    outcome: Some(if ok {
                        TaskOutcome::Success
                    } else {
                        TaskOutcome::Failure
                    }),
                    elapsed_ms: 100,
                    task_type: TaskType::Image,
                    target_url: format!("http://{domain}/favicon.ico").into(),
                    user_agent: "Chrome".into(),
                    congested: false,
                },
                client_ip: alloc.allocate(country(cc)),
                referer: None,
                received_at: SimTime::ZERO,
            });
        };
        for _ in 0..20 {
            add(&mut alloc, &mut records, "youtube.com", "PK", false);
            add(&mut alloc, &mut records, "youtube.com", "US", true);
            add(&mut alloc, &mut records, "wikipedia.org", "PK", true);
        }
        (records, GeoDb::from_allocator(&alloc))
    }

    #[test]
    fn reports_group_and_flag_correctly() {
        let (records, geo) = records();
        let reports = country_reports(&records, &geo, &FilteringDetector::default());
        assert_eq!(reports.len(), 2);
        let pk = reports.iter().find(|r| r.country == country("PK")).unwrap();
        assert_eq!(pk.measurements, 40);
        assert_eq!(pk.distinct_ips, 40);
        assert_eq!(pk.flagged_domains(), vec!["youtube.com"]);
        let yt = pk
            .domains
            .iter()
            .find(|d| d.domain == "youtube.com")
            .unwrap();
        assert_eq!(yt.success_rate(), 0.0);
        let wiki = pk
            .domains
            .iter()
            .find(|d| d.domain == "wikipedia.org")
            .unwrap();
        assert!(!wiki.flagged);
        assert_eq!(wiki.success_rate(), 1.0);
        let us = reports.iter().find(|r| r.country == country("US")).unwrap();
        assert!(us.flagged_domains().is_empty());
    }

    #[test]
    fn flagged_domains_sort_first() {
        let (records, geo) = records();
        let reports = country_reports(&records, &geo, &FilteringDetector::default());
        let pk = reports.iter().find(|r| r.country == country("PK")).unwrap();
        assert_eq!(pk.domains[0].domain, "youtube.com");
    }

    #[test]
    fn markdown_rendering_contains_key_facts() {
        let (records, geo) = records();
        let reports = country_reports(&records, &geo, &FilteringDetector::default());
        let md = render_markdown(&reports);
        assert!(md.contains("# Encore measurement report"));
        assert!(md.contains("## PK"));
        assert!(md.contains("**FILTERED**"));
        assert!(md.contains("youtube.com"));
        assert!(md.contains("1 (domain, country) pairs flagged"));
    }

    #[test]
    fn empty_records_give_empty_report() {
        let alloc = IpAllocator::new();
        let geo = GeoDb::from_allocator(&alloc);
        let reports = country_reports(&[], &geo, &FilteringDetector::default());
        assert!(reports.is_empty());
        let md = render_markdown(&reports);
        assert!(md.contains("0 result measurements"));
    }
}

//! Censors that target Encore itself (paper §8, "Detecting and
//! interfering with Encore measurements").
//!
//! The paper argues content-based blocking of tasks is hard (JavaScript
//! obfuscation) and behaviour-based blocking requires the censor to
//! "identify a sequence of requests as a measurement attempt and
//! interpose on subsequent requests". [`EncoreFingerprinter`] implements
//! exactly that adversary: it watches for clients contacting known Encore
//! infrastructure domains and then suppresses their *subsequent* requests
//! to known collection endpoints for a while — distorting results rather
//! than blocking measurement outright.
//!
//! Its weakness is also the paper's: the blacklist of infrastructure
//! domains must be curated, so mirrors under fresh domains (shared
//! hosting, CDNs) evade it until discovered.

use netsim::geo::CountryCode;
use netsim::host::Host;
use netsim::http::{host_of, HttpRequest};
use netsim::middlebox::{HttpAction, Middlebox, StageContext};
use sim_core::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// A behaviour-fingerprinting censor.
pub struct EncoreFingerprinter {
    country: CountryCode,
    /// Domains recognised as Encore coordination infrastructure.
    coordinator_domains: Vec<String>,
    /// Domains recognised as Encore collection infrastructure.
    collector_domains: Vec<String>,
    /// How long after a coordinator contact the client's collector
    /// traffic is suppressed.
    memory: SimDuration,
    /// Per-client last coordinator contact.
    seen: RefCell<BTreeMap<Ipv4Addr, SimTime>>,
    /// `seen`'s length at the next prune: twice its length after the last.
    prune_at: Cell<usize>,
}

/// `seen` is never pruned below this many entries.
const MIN_PRUNE_LEN: usize = 64;

impl EncoreFingerprinter {
    /// Censor in `country` knowing the given infrastructure domains.
    pub fn new(
        country: CountryCode,
        coordinator_domains: Vec<String>,
        collector_domains: Vec<String>,
    ) -> EncoreFingerprinter {
        EncoreFingerprinter {
            country,
            coordinator_domains,
            collector_domains,
            memory: SimDuration::from_secs(300),
            seen: RefCell::new(BTreeMap::new()),
            prune_at: Cell::new(MIN_PRUNE_LEN),
        }
    }

    fn is_coordinator(&self, host: &str) -> bool {
        self.coordinator_domains.iter().any(|d| host == d)
    }

    fn is_collector(&self, host: &str) -> bool {
        self.collector_domains.iter().any(|d| host == d)
    }
}

impl Middlebox for EncoreFingerprinter {
    fn name(&self) -> &str {
        "encore-fingerprinter"
    }

    fn applies_to(&self, client: &Host) -> bool {
        client.country == self.country
    }

    fn on_http_request(&self, req: &HttpRequest, ctx: &StageContext<'_>) -> HttpAction {
        let Some(host) = host_of(&req.url) else {
            return HttpAction::Pass;
        };
        if self.is_coordinator(&host) {
            // Note the client; let the request through (suppressing the
            // *reports* distorts data more quietly than blocking tasks).
            let mut seen = self.seen.borrow_mut();
            seen.insert(ctx.client.ip, ctx.now);
            // Simulated time only advances, so a contact older than
            // `memory` can never cause a drop again: forget it.
            if seen.len() >= self.prune_at.get() {
                seen.retain(|_, &mut t| ctx.now.since(t) <= self.memory);
                self.prune_at.set((2 * seen.len()).max(MIN_PRUNE_LEN));
            }
            return HttpAction::Pass;
        }
        if self.is_collector(&host) {
            let seen = self.seen.borrow();
            if let Some(&t) = seen.get(&ctx.client.ip) {
                if ctx.now.since(t) <= self.memory {
                    return HttpAction::Drop;
                }
            }
        }
        HttpAction::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use browser::{BrowserClient, Engine};
    use encore::coordination::SchedulingStrategy;
    use encore::delivery::OriginSite;
    use encore::system::EncoreSystem;
    use encore::tasks::{MeasurementId, MeasurementTask, TaskSpec};
    use netsim::geo::{country, IspClass, World};
    use netsim::http::{ContentType, HttpResponse};
    use netsim::network::{ConstHandler, Network};
    use sim_core::SimRng;

    fn deployed() -> (Network, EncoreSystem, OriginSite) {
        let mut net = Network::ideal(World::builtin());
        net.add_server(
            "target.example",
            country("US"),
            Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 400))),
        );
        let origin = OriginSite::academic("origin.example");
        let sys = EncoreSystem::deploy(
            &mut net,
            vec![MeasurementTask {
                id: MeasurementId(0),
                spec: TaskSpec::Image {
                    url: "http://target.example/favicon.ico".into(),
                },
            }],
            SchedulingStrategy::RoundRobin,
            vec![origin.clone()],
            country("US"),
        );
        (net, sys, origin)
    }

    fn visit(
        net: &mut Network,
        sys: &mut EncoreSystem,
        origin: &OriginSite,
        cc: &str,
    ) -> encore::system::VisitOutcome {
        let root = SimRng::new(0xF1);
        let mut c = BrowserClient::new(
            net,
            country(cc),
            IspClass::Residential,
            Engine::Chrome,
            &root,
        );
        sys.run_visit(
            net,
            &mut c,
            origin,
            SimDuration::from_secs(30),
            SimTime::from_secs(10),
            "Chrome",
        )
    }

    #[test]
    fn fingerprinter_suppresses_reports_not_tasks() {
        let (mut net, mut sys, origin) = deployed();
        net.add_middlebox(Box::new(EncoreFingerprinter::new(
            country("CN"),
            vec!["coordinator.encore-repro.net".into()],
            vec!["collector.encore-repro.net".into()],
        )));
        let out = visit(&mut net, &mut sys, &origin, "CN");
        // The measurement ran (the censor let the coordinator fetch and
        // the cross-origin request pass)…
        assert!(out.got_task);
        assert_eq!(out.executed.len(), 1);
        // …but the reports silently vanished.
        assert_eq!(out.inits_delivered, 0);
        assert_eq!(out.results_delivered, 0);
        assert_eq!(sys.collection.len(), 0);
    }

    #[test]
    fn fingerprinter_only_affects_its_country() {
        let (mut net, mut sys, origin) = deployed();
        net.add_middlebox(Box::new(EncoreFingerprinter::new(
            country("CN"),
            vec!["coordinator.encore-repro.net".into()],
            vec!["collector.encore-repro.net".into()],
        )));
        let out = visit(&mut net, &mut sys, &origin, "DE");
        assert_eq!(out.results_delivered, 1);
    }

    #[test]
    fn unknown_mirror_evades_the_fingerprint() {
        let (mut net, mut sys, origin) = deployed();
        net.add_middlebox(Box::new(EncoreFingerprinter::new(
            country("CN"),
            vec!["coordinator.encore-repro.net".into()],
            vec!["collector.encore-repro.net".into()],
        )));
        // A mirror the censor has not yet blacklisted restores reporting.
        sys.add_collector_mirror(&mut net, "innocuous-cdn.example", country("SG"));
        let out = visit(&mut net, &mut sys, &origin, "CN");
        assert_eq!(out.results_delivered, 1, "mirror evades fingerprint");
    }

    #[test]
    fn memory_expiry_restores_collection() {
        let (mut net, mut sys, origin) = deployed();
        let mut fingerprinter = EncoreFingerprinter::new(
            country("CN"),
            vec!["coordinator.encore-repro.net".into()],
            vec!["collector.encore-repro.net".into()],
        );
        fingerprinter.memory = SimDuration::from_millis(1);
        net.add_middlebox(Box::new(fingerprinter));
        // With a 1 ms memory the suppression has lapsed by the time the
        // (slower) beacon goes out.
        let out = visit(&mut net, &mut sys, &origin, "CN");
        assert!(out.results_delivered >= 1);
    }

    #[test]
    fn clients_without_coordinator_contact_unaffected() {
        // Server-side-inline origins never touch the coordinator, so the
        // fingerprinting censor has nothing to key on.
        let (mut net, mut sys, _origin) = deployed();
        let inline = OriginSite::academic("inline.example")
            .with_install(encore::delivery::InstallMethod::ServerSideInline);
        inline.install(&mut net, country("US"));
        sys.origins.push(inline.clone());
        net.add_middlebox(Box::new(EncoreFingerprinter::new(
            country("CN"),
            vec!["coordinator.encore-repro.net".into()],
            vec!["collector.encore-repro.net".into()],
        )));
        let out = visit(&mut net, &mut sys, &inline, "CN");
        assert!(out.got_task);
        assert_eq!(out.results_delivered, 1);
    }

    #[test]
    fn clients_that_left_are_forgotten() {
        let fingerprinter = EncoreFingerprinter::new(
            country("CN"),
            vec!["coordinator.encore-repro.net".into()],
            vec!["collector.encore-repro.net".into()],
        );
        let mut net = Network::ideal(World::builtin());
        let coordinator = HttpRequest::get("http://coordinator.encore-repro.net/task.js");
        let collector = HttpRequest::get("http://collector.encore-repro.net/submit");
        for i in 0..10_000 {
            let client = net.add_client(country("CN"), IspClass::Residential);
            let ctx = StageContext {
                client: &client,
                now: SimTime::from_secs(i * 301),
            };
            assert_eq!(
                fingerprinter.on_http_request(&coordinator, &ctx),
                HttpAction::Pass
            );
            // Pruning never forgets a contact that can still suppress.
            assert_eq!(
                fingerprinter.on_http_request(&collector, &ctx),
                HttpAction::Drop
            );
        }
        let resident = fingerprinter.seen.borrow().len();
        assert!(
            resident <= MIN_PRUNE_LEN,
            "{resident} departed clients kept"
        );
    }
}

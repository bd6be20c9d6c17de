//! The assembled Encore deployment — the full Figure 2 flow.
//!
//! ```text
//! 1. origin serves page to client (with the Encore snippet)
//! 2. client fetches the measurement task from the coordination server
//! 3. task issues a cross-origin request to the measurement target
//! 4. a censor may filter the request or response
//! 5. client submits init + result to the collection server
//! ```
//!
//! Every arrow in that diagram is a real fetch through the simulated
//! network — so a censor can block the origin, the coordination server,
//! the target, or the collection server, and the system degrades exactly
//! as §8 describes.

use crate::collection::{
    write_submit_url_cached, CollectionServer, EncodeCache, SubmissionParts, SubmissionPhase,
};
use crate::coordination::{ClientProfile, CoordinationServer, SchedulingStrategy};
use crate::delivery::{InstallMethod, OriginSite};
use crate::geo::GeoDb;
use crate::inference::{Detection, FilteringDetector};
use crate::tasks::{execute_spec, MeasurementId, MeasurementTask, TaskExecution};
use browser::BrowserClient;
use netsim::geo::CountryCode;
use netsim::http::{ContentType, HttpRequest, HttpResponse};
use netsim::network::{ConstHandler, Network};
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime};

/// Minimum dwell time to *attempt* a task: the page's JavaScript must
/// have run. The Appendix A snippet submits its `init` beacon and starts
/// measuring as soon as the page loads, so even short visits attempt one
/// task (§6.2: 999 of 1,171 visits attempted a measurement; dwell over
/// ten seconds is "more than sufficient", not necessary).
pub const MIN_DWELL_FOR_TASK: SimDuration = SimDuration::from_secs(2);

/// Dwell time per additional task (§6.2: "the 35% of visitors who
/// remained for longer than a minute could easily run multiple
/// measurement tasks").
pub const DWELL_PER_EXTRA_TASK: SimDuration = SimDuration::from_secs(60);

/// What happened during one client visit to an origin page.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VisitOutcome {
    /// Did the origin page itself load?
    pub origin_loaded: bool,
    /// Did the client obtain a measurement task (coordination server
    /// reachable, pool non-empty, compatible task available)?
    pub got_task: bool,
    /// Each executed task's measurement ID with what the page observed —
    /// the ID links it to its submissions in the collection store. The
    /// task itself is not kept: the visit borrowed the scheduler's
    /// template, so the list is allocated once, at the visit's task
    /// budget, and only when a task was assigned.
    pub executed: Vec<(MeasurementId, TaskExecution)>,
    /// Init beacons that reached the collection server.
    pub inits_delivered: usize,
    /// Results that reached the collection server.
    pub results_delivered: usize,
}

impl VisitOutcome {
    fn empty() -> VisitOutcome {
        VisitOutcome {
            origin_loaded: false,
            got_task: false,
            executed: Vec::new(),
            inits_delivered: 0,
            results_delivered: 0,
        }
    }
}

/// A deployed Encore instance.
pub struct EncoreSystem {
    /// Coordination server domain.
    pub coordinator_domain: String,
    /// The scheduler.
    pub coordination: CoordinationServer,
    /// The collection service.
    pub collection: CollectionServer,
    /// Collection mirror domains, tried in order when the primary is
    /// unreachable (§8: "collection of the results could be distributed
    /// across servers hosted in different domains, to ensure that
    /// collection is not blocked").
    pub collector_mirrors: Vec<String>,
    /// Participating origin sites.
    pub origins: Vec<OriginSite>,
    /// Cap on tasks per visit.
    pub max_tasks_per_visit: usize,
    /// Precomputed `http://<coordinator>/task` URL (hot path).
    task_url: String,
    /// Reused scratch buffer for the origin page URL.
    page_url_buf: String,
    /// What submissions are assembled in.
    outbox: Outbox,
}

/// The reused buffers a submission is assembled in, kept apart from the
/// rest of the system so a visit can deliver while it borrows its task's
/// template from the scheduler.
struct Outbox {
    /// Reused scratch request — the delivery hot path rewrites its
    /// URL/referer buffers in place instead of allocating a fresh
    /// request per submission.
    req: HttpRequest,
    /// Memo of percent-encoded target/user-agent fields for the submit
    /// URL builder.
    encode_cache: EncodeCache,
}

impl EncoreSystem {
    /// Deploy Encore: registers the coordination and collection servers
    /// (hosted in `infra_country`) and the given origin sites.
    pub fn deploy(
        net: &mut Network,
        tasks: Vec<MeasurementTask>,
        strategy: SchedulingStrategy,
        origins: Vec<OriginSite>,
        infra_country: CountryCode,
    ) -> EncoreSystem {
        let coordinator_domain = "coordinator.encore-repro.net".to_string();
        // The coordination endpoint serves the measurement-task JS: a
        // small script response.
        net.add_server(
            &coordinator_domain,
            infra_country,
            Box::new(ConstHandler(
                HttpResponse::ok(ContentType::Script, 3_000).no_store(),
            )),
        );
        let collection = CollectionServer::new("collector.encore-repro.net");
        collection.install(net, infra_country);
        for o in &origins {
            o.install(net, infra_country);
        }
        let task_url = format!("http://{coordinator_domain}/task");
        EncoreSystem {
            coordinator_domain,
            coordination: CoordinationServer::new(tasks, strategy),
            collection,
            collector_mirrors: Vec::new(),
            origins,
            max_tasks_per_visit: 4,
            task_url,
            page_url_buf: String::new(),
            outbox: Outbox {
                req: HttpRequest::get(String::new()),
                encode_cache: EncodeCache::default(),
            },
        }
    }

    /// Add a collection mirror in `country` (shares the primary's store).
    /// Clients fall back to mirrors when the primary collector is
    /// blocked.
    pub fn add_collector_mirror(&mut self, net: &mut Network, domain: &str, country: CountryCode) {
        self.collection.install_mirror(net, domain, country);
        self.collector_mirrors.push(domain.to_string());
    }

    /// How many tasks a visit of length `dwell` can run.
    pub fn tasks_for_dwell(&self, dwell: SimDuration) -> usize {
        if dwell < MIN_DWELL_FOR_TASK {
            return 0;
        }
        let extra = (dwell.as_secs() / DWELL_PER_EXTRA_TASK.as_secs()) as usize;
        (1 + extra).min(self.max_tasks_per_visit)
    }

    /// Simulate one client visiting `origin` and staying `dwell`.
    ///
    /// Every step is a real network fetch subject to censorship. The
    /// `user_agent` is what the client self-reports (crawlers announce
    /// themselves).
    pub fn run_visit(
        &mut self,
        net: &mut Network,
        client: &mut BrowserClient,
        origin: &OriginSite,
        dwell: SimDuration,
        now: SimTime,
        user_agent: &str,
    ) -> VisitOutcome {
        // Build the page URL in the reused scratch buffer (taken out of
        // self for the duration of the visit so it can be borrowed
        // alongside `&mut self` calls below).
        let mut page_url = std::mem::take(&mut self.page_url_buf);
        page_url.clear();
        page_url.push_str("http://");
        page_url.push_str(&origin.domain);
        page_url.push('/');
        let outcome =
            self.visit_with_page_url(net, client, origin, dwell, now, user_agent, &page_url);
        self.page_url_buf = page_url;
        outcome
    }

    #[allow(clippy::too_many_arguments)]
    fn visit_with_page_url(
        &mut self,
        net: &mut Network,
        client: &mut BrowserClient,
        origin: &OriginSite,
        dwell: SimDuration,
        now: SimTime,
        user_agent: &str,
        page_url: &str,
    ) -> VisitOutcome {
        let mut outcome = VisitOutcome::empty();

        // 1. Load the origin page.
        let (page, page_time) = client.fetch_following_redirects(net, page_url, None, now);
        if !page.as_ref().is_ok_and(|r| r.status.is_success()) {
            return outcome;
        }
        outcome.origin_loaded = true;
        let mut t = now + page_time;

        // 2. Obtain the measurement task.
        match origin.install_method {
            InstallMethod::Tag => {
                let (resp, fetch_time) =
                    client.fetch_following_redirects(net, &self.task_url, Some(page_url), t);
                t += fetch_time;
                if !resp.as_ref().is_ok_and(|r| r.status.is_success()) {
                    // §5.4: "a censor can simply block access to the
                    // coordination server".
                    return outcome;
                }
            }
            InstallMethod::ServerSideInline => {
                // The webmaster's server already inlined the task; no
                // client-side fetch to block.
            }
        }

        let n_tasks = self.tasks_for_dwell(dwell);
        let profile = ClientProfile {
            engine: client.engine,
        };
        let referer = if origin.strip_referer {
            None
        } else {
            Some(page_url)
        };

        // The task's template stays in the scheduler's pool: it is
        // borrowed for the length of one task, so everything else the
        // loop touches is borrowed field by field.
        let EncoreSystem {
            coordination,
            collection,
            collector_mirrors,
            outbox,
            ..
        } = self;
        let collectors = || {
            std::iter::once(collection.domain.as_str())
                .chain(collector_mirrors.iter().map(String::as_str))
        };
        for _ in 0..n_tasks {
            let Some((id, spec)) = coordination.assign(profile, t, &mut client.rng) else {
                break;
            };
            if !outcome.got_task {
                outcome.got_task = true;
                outcome.executed = Vec::with_capacity(n_tasks);
            }

            // 3. Submit the init beacon (Appendix A: "Submit to the
            // server as soon as the client loads the page").
            let init = SubmissionParts {
                measurement_id: id,
                phase: SubmissionPhase::Init,
                outcome: None,
                elapsed_ms: 0,
                task_type: spec.task_type(),
                target_url: spec.target_url(),
                user_agent,
                congested: false,
            };
            if outbox.deliver(net, client, collectors(), &init, referer, t) {
                outcome.inits_delivered += 1;
            }

            // 4. Execute the measurement.
            let exec = execute_spec(spec, client, net, t);
            t += exec.elapsed;

            // 5. Submit the result.
            let result = SubmissionParts {
                measurement_id: id,
                phase: SubmissionPhase::Result,
                outcome: Some(exec.outcome),
                elapsed_ms: exec.elapsed.as_millis(),
                task_type: spec.task_type(),
                target_url: spec.target_url(),
                user_agent,
                congested: exec.congested,
            };
            if outbox.deliver(net, client, collectors(), &result, referer, t) {
                outcome.results_delivered += 1;
            }
            outcome.executed.push((id, exec));
        }
        outcome
    }

    /// Run the §7.2 detector over everything collected so far.
    pub fn detect(&self, geo: &GeoDb, detector: &FilteringDetector) -> Vec<Detection> {
        detector.detect(&self.collection.records(), geo)
    }
}

impl Outbox {
    /// Submit to the first of `collectors` (the primary, then its
    /// mirrors) that accepts it; true if any did. The request is
    /// assembled in the reused scratch buffers: the hot path allocates
    /// nothing once they have grown to steady state.
    fn deliver<'a>(
        &mut self,
        net: &mut Network,
        client: &mut BrowserClient,
        collectors: impl Iterator<Item = &'a str>,
        parts: &SubmissionParts<'_>,
        referer: Option<&str>,
        now: SimTime,
    ) -> bool {
        let req = &mut self.req;
        for domain in collectors {
            req.url.clear();
            write_submit_url_cached(&mut req.url, domain, parts, &mut self.encode_cache);
            match (referer, &mut req.referer) {
                (Some(r), Some(buf)) => {
                    buf.clear();
                    buf.push_str(r);
                }
                (Some(r), slot @ None) => *slot = Some(r.to_string()),
                (None, slot) => *slot = None,
            }
            let out = client.fetch_once(net, req, now);
            if out.result.is_ok_and(|r| r.status.is_success()) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{MeasurementId, TaskOutcome, TaskSpec};
    use browser::Engine;
    use censor::national::NationalCensor;
    use censor::policy::{CensorPolicy, Mechanism};
    use netsim::geo::{country, IspClass, World};
    use netsim::network::ConstHandler;
    use sim_core::SimRng;

    fn target_tasks() -> Vec<MeasurementTask> {
        vec![MeasurementTask {
            id: MeasurementId(0),
            spec: TaskSpec::Image {
                url: "http://target.example/favicon.ico".into(),
            },
        }]
    }

    fn base_network() -> Network {
        let mut net = Network::ideal(World::builtin());
        net.add_server(
            "target.example",
            country("US"),
            Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 400))),
        );
        net
    }

    fn client(net: &mut Network, cc: &str) -> BrowserClient {
        let root = SimRng::new(0x51);
        BrowserClient::new(
            net,
            country(cc),
            IspClass::Residential,
            Engine::Chrome,
            &root,
        )
    }

    #[test]
    fn full_visit_flow_collects_a_measurement() {
        let mut net = base_network();
        let origin = OriginSite::academic("prof.example");
        let mut sys = EncoreSystem::deploy(
            &mut net,
            target_tasks(),
            SchedulingStrategy::RoundRobin,
            vec![origin.clone()],
            country("US"),
        );
        let mut c = client(&mut net, "DE");
        let out = sys.run_visit(
            &mut net,
            &mut c,
            &origin,
            SimDuration::from_secs(30),
            SimTime::ZERO,
            "Chrome",
        );
        assert!(out.origin_loaded);
        assert!(out.got_task);
        assert_eq!(out.executed.len(), 1);
        assert_eq!(out.executed[0].1.outcome, TaskOutcome::Success);
        assert_eq!(out.inits_delivered, 1);
        assert_eq!(out.results_delivered, 1);
        // Collector saw init + result.
        assert_eq!(sys.collection.len(), 2);
    }

    #[test]
    fn short_dwell_runs_no_task() {
        let mut net = base_network();
        let origin = OriginSite::academic("prof.example");
        let mut sys = EncoreSystem::deploy(
            &mut net,
            target_tasks(),
            SchedulingStrategy::RoundRobin,
            vec![origin.clone()],
            country("US"),
        );
        let mut c = client(&mut net, "DE");
        let out = sys.run_visit(
            &mut net,
            &mut c,
            &origin,
            SimDuration::from_millis(800),
            SimTime::ZERO,
            "Chrome",
        );
        assert!(out.origin_loaded);
        assert!(out.executed.is_empty());
        assert_eq!(sys.collection.len(), 0);
    }

    #[test]
    fn long_dwell_runs_multiple_tasks() {
        let mut net = base_network();
        let origin = OriginSite::academic("prof.example");
        let mut sys = EncoreSystem::deploy(
            &mut net,
            target_tasks(),
            SchedulingStrategy::RoundRobin,
            vec![origin.clone()],
            country("US"),
        );
        assert_eq!(sys.tasks_for_dwell(SimDuration::from_secs(1)), 0);
        assert_eq!(sys.tasks_for_dwell(SimDuration::from_secs(5)), 1);
        assert_eq!(sys.tasks_for_dwell(SimDuration::from_secs(30)), 1);
        assert_eq!(sys.tasks_for_dwell(SimDuration::from_secs(90)), 2);
        assert_eq!(sys.tasks_for_dwell(SimDuration::from_secs(600)), 4); // capped
        let mut c = client(&mut net, "DE");
        let out = sys.run_visit(
            &mut net,
            &mut c,
            &origin,
            SimDuration::from_secs(150),
            SimTime::ZERO,
            "Chrome",
        );
        assert_eq!(out.executed.len(), 3);
    }

    #[test]
    fn measurement_of_blocked_target_reports_failure() {
        let mut net = base_network();
        let policy =
            CensorPolicy::named("censor").block_domain("target.example", Mechanism::DnsNxDomain);
        net.add_middlebox(Box::new(NationalCensor::new(country("PK"), policy)));
        let origin = OriginSite::academic("prof.example");
        let mut sys = EncoreSystem::deploy(
            &mut net,
            target_tasks(),
            SchedulingStrategy::RoundRobin,
            vec![origin.clone()],
            country("US"),
        );
        let mut c = client(&mut net, "PK");
        let out = sys.run_visit(
            &mut net,
            &mut c,
            &origin,
            SimDuration::from_secs(30),
            SimTime::ZERO,
            "Chrome",
        );
        assert_eq!(out.executed[0].1.outcome, TaskOutcome::Failure);
        // The failure made it to the collector — filtering the target
        // does not stop result submission.
        assert_eq!(out.results_delivered, 1);
    }

    #[test]
    fn blocking_the_coordinator_stops_tag_installs() {
        let mut net = base_network();
        let policy = CensorPolicy::named("anti-encore")
            .block_domain("coordinator.encore-repro.net", Mechanism::DnsNxDomain);
        net.add_middlebox(Box::new(NationalCensor::new(country("PK"), policy)));
        let origin = OriginSite::academic("prof.example");
        let mut sys = EncoreSystem::deploy(
            &mut net,
            target_tasks(),
            SchedulingStrategy::RoundRobin,
            vec![origin.clone()],
            country("US"),
        );
        let mut c = client(&mut net, "PK");
        let out = sys.run_visit(
            &mut net,
            &mut c,
            &origin,
            SimDuration::from_secs(30),
            SimTime::ZERO,
            "Chrome",
        );
        assert!(out.origin_loaded);
        assert!(!out.got_task, "censor blocked the coordination server");
        assert!(out.executed.is_empty());
    }

    #[test]
    fn server_side_inline_survives_coordinator_blocking() {
        let mut net = base_network();
        let policy = CensorPolicy::named("anti-encore")
            .block_domain("coordinator.encore-repro.net", Mechanism::DnsNxDomain);
        net.add_middlebox(Box::new(NationalCensor::new(country("PK"), policy)));
        let origin =
            OriginSite::academic("robust.example").with_install(InstallMethod::ServerSideInline);
        let mut sys = EncoreSystem::deploy(
            &mut net,
            target_tasks(),
            SchedulingStrategy::RoundRobin,
            vec![origin.clone()],
            country("US"),
        );
        let mut c = client(&mut net, "PK");
        let out = sys.run_visit(
            &mut net,
            &mut c,
            &origin,
            SimDuration::from_secs(30),
            SimTime::ZERO,
            "Chrome",
        );
        // §8: the inline install path keeps measuring.
        assert!(out.got_task);
        assert_eq!(out.executed.len(), 1);
    }

    #[test]
    fn referer_stripping_respected() {
        let mut net = base_network();
        let origin = OriginSite::academic("private.example").with_referer_stripping();
        let mut sys = EncoreSystem::deploy(
            &mut net,
            target_tasks(),
            SchedulingStrategy::RoundRobin,
            vec![origin.clone()],
            country("US"),
        );
        let mut c = client(&mut net, "DE");
        sys.run_visit(
            &mut net,
            &mut c,
            &origin,
            SimDuration::from_secs(30),
            SimTime::ZERO,
            "Chrome",
        );
        assert!(sys.collection.records().iter().all(|r| r.referer.is_none()));
    }

    #[test]
    fn end_to_end_detection_of_regional_filtering() {
        let mut net = base_network();
        let policy =
            CensorPolicy::named("censor").block_domain("target.example", Mechanism::TcpReset);
        let mut censor = NationalCensor::new(country("IR"), policy);
        censor.resolve_ip_rules(&net.dns);
        net.add_middlebox(Box::new(censor));

        let origin = OriginSite::academic("prof.example");
        let mut sys = EncoreSystem::deploy(
            &mut net,
            target_tasks(),
            SchedulingStrategy::RoundRobin,
            vec![origin.clone()],
            country("US"),
        );
        // 15 Iranian and 15 German clients visit.
        for cc in ["IR", "DE"] {
            for _ in 0..15 {
                let mut c = client(&mut net, cc);
                sys.run_visit(
                    &mut net,
                    &mut c,
                    &origin,
                    SimDuration::from_secs(30),
                    SimTime::from_secs(60),
                    "Chrome",
                );
            }
        }
        let geo = GeoDb::from_allocator(&net.allocator);
        let detections = sys.detect(&geo, &FilteringDetector::default());
        assert_eq!(detections.len(), 1);
        assert_eq!(detections[0].country, country("IR"));
        assert_eq!(detections[0].domain, "target.example");
    }
}

//! Counting-allocator bound on a whole warm visit: a returning client
//! whose sessions are warm loads the origin page, fetches the task
//! script, and runs `k` measurement tasks for one allocation — the
//! visit's `executed` list, sized once to its task budget — plus the
//! two accepted-submission responses (init and result) of each task;
//! a visit that runs no task allocates nothing. No copy of a task
//! template, and no growth of the list.
//!
//! "The responses" are measured, not assumed: cloning an accepted
//! `HttpResponse` allocates exactly what building it did.

use alloc_count::measure;
use browser::{BrowserClient, Engine};
use encore::collection::Submission;
use encore::coordination::SchedulingStrategy;
use encore::delivery::OriginSite;
use encore::tasks::{MeasurementId, MeasurementTask, TaskOutcome, TaskSpec, TaskType};
use encore::{CollectionServer, EncoreSystem, SubmissionPhase};
use netsim::geo::{country, IspClass, World};
use netsim::http::{ContentType, HttpRequest, HttpResponse, StatusCode};
use netsim::network::{ConstHandler, HttpHandler, Network};
use sim_core::{SimDuration, SimRng, SimTime};
use std::net::Ipv4Addr;

/// An ideal-path world with four image tasks on four targets, one
/// academic origin, and Encore deployed over them.
fn world() -> (Network, EncoreSystem, OriginSite) {
    let mut net = Network::ideal(World::builtin());
    let tasks = (0..4)
        .map(|i| {
            let host = format!("target{i}.example");
            net.add_server(
                &host,
                country("US"),
                Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 400))),
            );
            MeasurementTask {
                id: MeasurementId(0),
                spec: TaskSpec::Image {
                    url: format!("http://{host}/favicon.ico"),
                },
            }
        })
        .collect();
    let origin = OriginSite::academic("prof.example");
    let sys = EncoreSystem::deploy(
        &mut net,
        tasks,
        SchedulingStrategy::RoundRobin,
        vec![origin.clone()],
        country("US"),
    );
    (net, sys, origin)
}

/// Allocations of one accepted-submission response, by cloning one a
/// scratch collector gave back.
fn response_allocations() -> u64 {
    let scratch = CollectionServer::new("collector.example");
    let sub = Submission {
        measurement_id: MeasurementId(1),
        phase: SubmissionPhase::Result,
        outcome: Some(TaskOutcome::Success),
        elapsed_ms: 120,
        task_type: TaskType::Image,
        target_url: "http://target0.example/favicon.ico".into(),
        user_agent: "Chrome".into(),
        congested: false,
    };
    let req = HttpRequest::get(scratch.submit_url(&sub)).with_referer("http://prof.example/");
    let resp = scratch.handle(&req, Ipv4Addr::new(100, 64, 0, 1), SimTime::ZERO);
    assert_eq!(resp.status, StatusCode::OK);
    measure(|| resp.clone()).1.count
}

#[test]
fn a_warm_visit_allocates_its_task_list_and_responses_only() {
    const WARM_UP: u64 = 200;
    const MEASURED: u64 = 2_000;
    /// Amortised growth of the collector's record log over one dwell's
    /// measured visits (a doubling or two), not a per-visit cost.
    const GROWTH: u64 = 32;

    let per_response = response_allocations();
    assert!(per_response >= 1, "the response itself should allocate");
    let (mut net, mut sys, origin) = world();
    let mut client = BrowserClient::new(
        &mut net,
        country("DE"),
        IspClass::Residential,
        Engine::Chrome,
        &SimRng::new(0x7151),
    );
    let ua = Engine::Chrome.name();
    let mut now = SimTime::from_secs(1);

    for (dwell_s, k) in [(0, 0), (30, 1), (61, 2), (121, 3), (181, 4)] {
        let dwell = SimDuration::from_secs(dwell_s);
        assert_eq!(sys.tasks_for_dwell(dwell), k);
        let mut visit = || {
            now += SimDuration::from_secs(1);
            let out = sys.run_visit(&mut net, &mut client, &origin, dwell, now, ua);
            assert_eq!(out.results_delivered, k, "every submission is accepted");
            out
        };
        for _ in 0..WARM_UP {
            visit();
        }
        let mut total = 0;
        for _ in 0..MEASURED {
            let (out, allocs) = measure(&mut visit);
            assert_eq!(out.executed.len(), k);
            assert_eq!(out.executed.capacity(), k, "the task list is sized once");
            total += allocs.count;
        }
        let task_list = u64::from(k > 0);
        let per_visit = task_list + 2 * k as u64 * per_response;
        println!(
            "k = {k}: {:.3} allocations per visit (bound {per_visit})",
            total as f64 / MEASURED as f64
        );
        assert!(
            total <= MEASURED * per_visit + GROWTH,
            "{MEASURED} warm visits running {k} tasks allocated {total} times; \
             the list and {per_response}-allocation responses account for {}",
            MEASURED * per_visit
        );
    }
}

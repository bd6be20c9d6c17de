//! The adversary's playbook (§8) and Encore's counters:
//!
//! 1. **Block the coordination server** — kills tag-installed origins;
//!    server-side-inline origins keep measuring.
//! 2. **Block the collection server** — results are lost until a mirror
//!    in another domain picks them up.
//! 3. **Poison the data** — flood forged failure reports from one
//!    address; the detector's per-IP cap blunts it.
//!
//! ```sh
//! cargo run --example adversary
//! ```

use encore_repro::browser::{BrowserClient, Engine};
use encore_repro::censor::national::NationalCensor;
use encore_repro::censor::policy::{CensorPolicy, Mechanism};
use encore_repro::encore::coordination::SchedulingStrategy;
use encore_repro::encore::delivery::{InstallMethod, OriginSite};
use encore_repro::encore::system::EncoreSystem;
use encore_repro::encore::tasks::{MeasurementId, MeasurementTask, TaskSpec};
use encore_repro::netsim::geo::{country, IspClass, World};
use encore_repro::netsim::http::{ContentType, HttpResponse};
use encore_repro::netsim::network::{ConstHandler, Network};
use encore_repro::sim_core::{SimDuration, SimRng, SimTime};

fn tasks() -> Vec<MeasurementTask> {
    vec![MeasurementTask {
        id: MeasurementId(0),
        spec: TaskSpec::Image {
            url: "http://target.example/favicon.ico".into(),
        },
    }]
}

fn network_with_target() -> Network {
    let mut net = Network::ideal(World::builtin());
    net.add_server(
        "target.example",
        country("US"),
        Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 400))),
    );
    net
}

fn visit(
    net: &mut Network,
    sys: &mut EncoreSystem,
    origin: &OriginSite,
    cc: &str,
) -> encore_repro::encore::system::VisitOutcome {
    let root = SimRng::new(0xAD5E);
    let mut client = BrowserClient::new(
        net,
        country(cc),
        IspClass::Residential,
        Engine::Chrome,
        &root,
    );
    sys.run_visit(
        net,
        &mut client,
        origin,
        SimDuration::from_secs(30),
        SimTime::from_secs(60),
        "Chrome",
    )
}

fn main() {
    // --- Attack 1: block the coordination server -------------------------
    println!("== attack 1: censor blocks coordinator.encore-repro.net ==");
    let mut net = network_with_target();
    let block_coord = CensorPolicy::named("anti-encore")
        .block_domain("coordinator.encore-repro.net", Mechanism::DnsNxDomain);
    net.add_middlebox(Box::new(NationalCensor::new(country("PK"), block_coord)));

    let tag_origin = OriginSite::academic("tag-install.example");
    let inline_origin = OriginSite::academic("inline-install.example")
        .with_install(InstallMethod::ServerSideInline);
    let mut sys = EncoreSystem::deploy(
        &mut net,
        tasks(),
        SchedulingStrategy::RoundRobin,
        vec![tag_origin.clone(), inline_origin.clone()],
        country("US"),
    );
    let tag_visit = visit(&mut net, &mut sys, &tag_origin, "PK");
    let inline_visit = visit(&mut net, &mut sys, &inline_origin, "PK");
    println!(
        "  tag install:    got task = {}  (blocked: client must reach the coordinator)",
        tag_visit.got_task
    );
    println!(
        "  inline install: got task = {}  (webmaster proxies the task, §8)",
        inline_visit.got_task
    );
    assert!(!tag_visit.got_task && inline_visit.got_task);

    // --- Attack 2: block the collection server ---------------------------
    println!("\n== attack 2: censor blocks collector.encore-repro.net ==");
    let mut net = network_with_target();
    let block_collector = CensorPolicy::named("anti-collector")
        .block_domain("collector.encore-repro.net", Mechanism::DnsNxDomain);
    net.add_middlebox(Box::new(NationalCensor::new(
        country("PK"),
        block_collector,
    )));

    let origin = OriginSite::academic("origin.example");
    let mut sys = EncoreSystem::deploy(
        &mut net,
        tasks(),
        SchedulingStrategy::RoundRobin,
        vec![origin.clone()],
        country("US"),
    );
    let lost = visit(&mut net, &mut sys, &origin, "PK");
    println!(
        "  without mirror: results delivered = {} (measurement lost)",
        lost.results_delivered
    );
    assert_eq!(lost.results_delivered, 0);

    // Add a mirror hosted in another domain (shared-hosting collateral).
    sys.add_collector_mirror(&mut net, "cdn-mirror.shared-hosting.example", country("DE"));
    let saved = visit(&mut net, &mut sys, &origin, "PK");
    println!(
        "  with mirror:    results delivered = {} (fallback worked)",
        saved.results_delivered
    );
    assert_eq!(saved.results_delivered, 1);

    // --- Attack 3: poisoned submissions ----------------------------------
    println!("\n== attack 3: forged failure reports from one address ==");
    use encore_repro::encore::collection::{Submission, SubmissionPhase};
    use encore_repro::encore::tasks::{TaskOutcome, TaskType};
    use encore_repro::encore::{DetectorConfig, FilteringDetector, GeoDb};
    use encore_repro::netsim::http::HttpRequest;

    // Honest clients in two countries first.
    for cc in ["US", "DE"] {
        for _ in 0..25 {
            let v = visit(&mut net, &mut sys, &origin, cc);
            assert!(v.results_delivered > 0);
        }
    }
    // The attacker floods 400 forged failures from a single BR address.
    let attacker = net.add_client(country("BR"), IspClass::Datacenter);
    let mut rng = SimRng::new(9);
    for i in 0..400u64 {
        let forged = Submission {
            measurement_id: MeasurementId(900_000 + i),
            phase: SubmissionPhase::Result,
            outcome: Some(TaskOutcome::Failure),
            elapsed_ms: 100,
            task_type: TaskType::Image,
            target_url: "http://target.example/favicon.ico".into(),
            user_agent: "Chrome".into(),
            congested: false,
        };
        let url = sys.collection.submit_url(&forged);
        net.fetch(
            &attacker,
            &HttpRequest::get(&url),
            SimTime::from_secs(1),
            &mut rng,
        );
    }
    let geo = GeoDb::from_allocator(&net.allocator);
    let records = sys.collection.records();
    let naive = FilteringDetector::new(DetectorConfig {
        max_per_ip: None,
        ..DetectorConfig::default()
    });
    let hardened = FilteringDetector::new(DetectorConfig {
        max_per_ip: Some(10),
        min_measurements: 20,
        ..DetectorConfig::default()
    });
    println!(
        "  naive detector:    {} detection(s) — the attacker forged censorship in BR",
        naive.detect(&records, &geo).len()
    );
    println!(
        "  per-IP-capped:     {} detection(s) — flood from one address discounted",
        hardened.detect(&records, &geo).len()
    );
    assert!(naive.detect(&records, &geo).len() > hardened.detect(&records, &geo).len());
    println!("\nadversary example OK");
}

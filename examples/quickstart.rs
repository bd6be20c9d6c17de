//! Quickstart: measure Web filtering with Encore in ~60 lines.
//!
//! Builds a small simulated Internet, installs a censor that blocks
//! `blocked.example` for clients in Pakistan, deploys Encore on a
//! volunteer origin site, lets thirty clients visit, and runs the
//! detector.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use encore_repro::browser::BrowserClient;
use encore_repro::censor::national::NationalCensor;
use encore_repro::censor::policy::{CensorPolicy, Mechanism};
use encore_repro::encore::coordination::SchedulingStrategy;
use encore_repro::encore::delivery::OriginSite;
use encore_repro::encore::system::EncoreSystem;
use encore_repro::encore::tasks::{MeasurementId, MeasurementTask, TaskSpec};
use encore_repro::encore::{FilteringDetector, GeoDb};
use encore_repro::netsim::geo::{country, IspClass, World};
use encore_repro::netsim::http::{ContentType, HttpResponse};
use encore_repro::netsim::network::{ConstHandler, Network};
use encore_repro::sim_core::{SimDuration, SimRng, SimTime};

fn main() {
    // 1. A simulated Internet with a measurement target.
    let mut net = Network::new(World::builtin());
    net.add_server(
        "blocked.example",
        country("US"),
        Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 400))),
    );

    // 2. A national censor: Pakistan forges NXDOMAIN for the target.
    let policy = CensorPolicy::named("pta").block_domain("blocked.example", Mechanism::DnsNxDomain);
    net.add_middlebox(Box::new(NationalCensor::new(country("PK"), policy)));

    // 3. Deploy Encore: one favicon measurement task, one origin site.
    let tasks = vec![MeasurementTask {
        id: MeasurementId(0),
        spec: TaskSpec::Image {
            url: "http://blocked.example/favicon.ico".into(),
        },
    }];
    let origin = OriginSite::academic("volunteer.example");
    let mut sys = EncoreSystem::deploy(
        &mut net,
        tasks,
        SchedulingStrategy::RoundRobin,
        vec![origin.clone()],
        country("US"),
    );

    // 4. Thirty clients visit the origin page: half in Pakistan, half in
    //    Germany. Each visit runs the full Figure 2 flow.
    let root = SimRng::new(42);
    for i in 0..30 {
        let cc = if i % 2 == 0 { "PK" } else { "DE" };
        let engine = *browser_mix().sample(&mut root.fork_indexed("engine", i));
        let mut client =
            BrowserClient::new(&mut net, country(cc), IspClass::Residential, engine, &root);
        sys.run_visit(
            &mut net,
            &mut client,
            &origin,
            SimDuration::from_secs(45),
            SimTime::from_secs(i * 60),
            "Chrome",
        );
    }

    // 5. Detect filtering from the collected measurements.
    let geo = GeoDb::from_allocator(&net.allocator);
    let detections = FilteringDetector::default().detect(&sys.collection.records(), &geo);

    println!("collected {} submissions", sys.collection.len());
    for d in &detections {
        println!(
            "FILTERED: {} in {} ({} measurements, {} succeeded, p = {:.2e})",
            d.domain, d.country, d.n, d.x, d.p_value
        );
    }
    assert_eq!(detections.len(), 1, "expected exactly the PK detection");
    assert_eq!(detections[0].country, country("PK"));
    println!("quickstart OK");
}

fn browser_mix() -> encore_repro::sim_core::dist::Empirical<encore_repro::browser::Engine> {
    encore_repro::browser::Engine::market_distribution()
}

//! Counting-allocator proof that a streaming world's memory is flat in
//! visits: Encore's vantage points come once and leave (§3, §6.2), so a
//! world that keeps running at a fixed daily rate must not hold anything
//! per client that has left.
//!
//! The world is the streaming batch world of the benchmark's `stream_*`
//! workloads (the §7.2 social-site targets behind the 2014 national
//! censors, over ideal paths), run serially for 4 and for 16 days at the
//! same arrival rate. A structure that grows with clients ever seen —
//! the network's path-quality memo once keyed on each client's own
//! address — grows its largest single allocation with the days run.

use alloc_count::{measure, Allocs, Counting};
use censor::registry::{install_world_censors, SAFE_TARGETS};
use encore::coordination::SchedulingStrategy;
use encore::delivery::OriginSite;
use encore::system::EncoreSystem;
use encore::tasks::{MeasurementId, MeasurementTask, TaskSpec};
use netsim::geo::{country, World};
use netsim::http::{ContentType, HttpResponse};
use netsim::scenario::NetworkScenario;
use population::{Audience, BatchConfig, StreamingSpec, WorldEngine, WorldRecipe};
use sim_core::{SimDuration, SimRng};

#[global_allocator]
static ALLOC: Counting = Counting;

const DAY: SimDuration = SimDuration::from_days(1);
const VISITS_PER_DAY: u64 = 2_000;

/// Run the streaming batch world for `days` at [`VISITS_PER_DAY`],
/// returning what the run (not the world's construction) allocated.
fn streaming_run(days: u64) -> Allocs {
    let mut spec = NetworkScenario::new().with_ideal_paths();
    for d in SAFE_TARGETS {
        spec = spec.with_server(d, country("US"), HttpResponse::ok(ContentType::Image, 500));
    }
    let mut net = spec.build();
    install_world_censors(&mut net);
    let tasks = SAFE_TARGETS
        .iter()
        .enumerate()
        .map(|(i, d)| MeasurementTask {
            id: MeasurementId(i as u64),
            spec: TaskSpec::Image {
                url: format!("http://{d}/favicon.ico"),
            },
        })
        .collect();
    let origins = vec![OriginSite::academic("origin.example").with_popularity(3.0)];
    let mut sys = EncoreSystem::deploy(
        &mut net,
        tasks,
        SchedulingStrategy::RoundRobin,
        origins,
        country("US"),
    );
    let recipe = WorldRecipe::batch(BatchConfig {
        visits: days * VISITS_PER_DAY,
        mean_gap: DAY / VISITS_PER_DAY,
        ..BatchConfig::default()
    })
    .with_streaming(StreamingSpec::with_window(DAY));
    let audience = Audience::world(&World::builtin());
    let mut rng = SimRng::new(0x57_12EA);
    let (outcome, allocs) = measure(|| {
        WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng).run()
    });
    assert_eq!(outcome.report.visits, days * VISITS_PER_DAY);
    allocs
}

#[test]
fn streaming_world_memory_is_flat_in_days() {
    let short = streaming_run(4);
    let long = streaming_run(16);
    println!(
        "largest allocation: 4 days {} B, 16 days {} B",
        short.largest, long.largest
    );
    assert!(
        long.largest < 2 * short.largest,
        "16 days' largest allocation {} B is not under twice 4 days' {} B",
        long.largest,
        short.largest
    );
}

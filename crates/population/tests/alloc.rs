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
//!
//! A RECORD_CHUNK comes from another process, so what its decode
//! reserves must be bounded by the bytes that arrived, not by the counts
//! they declare.

use alloc_count::{measure, Allocs, Counting};
use censor::registry::{install_world_censors, SAFE_TARGETS};
use encore::collection::SubmissionPhase;
use encore::coordination::SchedulingStrategy;
use encore::delivery::OriginSite;
use encore::system::EncoreSystem;
use encore::tasks::{MeasurementId, MeasurementTask, TaskOutcome, TaskSpec, TaskType};
use netsim::geo::{country, World};
use netsim::http::{ContentType, HttpResponse};
use netsim::scenario::NetworkScenario;
use population::transport::{DEFAULT_MAX_PAYLOAD, KIND_RECORD_CHUNK};
use population::{Audience, BatchConfig, StreamingSpec, WorldEngine, WorldRecipe};
use serde::Deserialize;
use sim_core::frame::{encode_frame, read_frame};
use sim_core::{SimDuration, SimRng, SimTime};
use std::net::Ipv4Addr;

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

/// A RECORD_CHUNK's positional wire shape — its text table, then its
/// rows — as the coordinator decodes it (the codec's own types are
/// private to `population`).
#[derive(Deserialize)]
#[allow(dead_code)]
struct RecordChunk {
    texts: Vec<String>,
    rows: Vec<RecordRow>,
}

#[derive(Deserialize)]
#[allow(dead_code)]
struct RecordRow {
    measurement_id: MeasurementId,
    phase: SubmissionPhase,
    outcome: Option<TaskOutcome>,
    elapsed_ms: u64,
    task_type: TaskType,
    target_url: u32,
    user_agent: u32,
    congested: bool,
    client_ip: Ipv4Addr,
    referer: Option<u32>,
    received_at: SimTime,
}

/// A CRC-valid RECORD_CHUNK of 1 MiB whose leading counts declare 10⁶
/// texts, or an empty table and 10⁶ rows, and whose remaining bytes
/// decode to no element. Reading the frame and decoding its payload
/// fails, and nothing along the way asks for more than 2 MiB: the
/// payload buffer, plus what a count may reserve (1 MiB) — not the
/// 24–48 MB that 10⁶ strings or rows would take.
///
/// The coordinator folds a stream on a lane thread, which this
/// per-thread tally cannot see, so the decode runs here on the wire
/// shape; that the fold refuses such a chunk as a `Payload` error with
/// no credit is `transport`'s hostile-stream test.
#[test]
fn a_hostile_record_count_reserves_what_arrived() {
    for (what, table) in [("10⁶ texts", &[][..]), ("10⁶ rows", &[0][..])] {
        let mut payload = table.to_vec();
        serde::bin::put_uvarint(&mut payload, 1_000_000);
        payload.resize(1 << 20, 0xff);
        let wire = encode_frame(KIND_RECORD_CHUNK, &payload);
        let (decoded, allocs) = measure(|| {
            let frame = read_frame(&mut &wire[..], DEFAULT_MAX_PAYLOAD)
                .expect("a CRC-valid frame")
                .expect("one frame");
            serde::bin::from_slice::<RecordChunk>(&frame.payload).map(|_| ())
        });
        println!("{what}: largest allocation {} B", allocs.largest);
        assert!(decoded.is_err(), "{what}: decoded");
        assert!(
            allocs.largest <= 2 << 20,
            "{what}: largest allocation {} B",
            allocs.largest
        );
    }
}

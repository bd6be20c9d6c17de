//! Per-layer probes: each layer timed from outside, by calling its
//! public functions on the workload's own fixture world.
//!
//! A time probe is the median ns/op over [`BATCHES`] batches; the first
//! batch doubles as the warm-up. Counts that come from a run (fetches
//! per visit, hit ratios, frames) are not measured here — the trace
//! command reads them from the run's own reports.

use crate::spec::{Workload, WorldSpec};
use crate::stats::median;
use bench::specs::BenchWorldSpec;
use bench::{corpus_fixture, shard_fixture};
use browser::{BrowserCache, BrowserClient, Engine};
use censor::registry::install_world_censors;
use encore::collection::{write_submit_url_cached, EncodeCache, Submission, SubmissionParts};
use encore::streaming::{CountMinSketch, ReservoirSample, StreamingConfig};
use encore::system::EncoreSystem;
use encore::tasks::{execute_task, MeasurementId, MeasurementTask, TaskOutcome};
use encore::{
    ClientProfile, CollectionSnapshot, FilteringDetector, GeoDb, StoredMeasurement, SubmissionPhase,
};
use netsim::geo::{country, CountryCode, IspClass};
use netsim::network::Network;
use netsim::session::FetchSession;
use netsim::HttpRequest;
use population::{
    Audience, Merge, ProcessTransport, Rollup, ShardContext, ShardTransport, ThreadTransport,
    WindowedRollups, WorldEngine, WorldOutcome, WorldSpec as _,
};
use sim_core::dist::Sample;
use sim_core::frame::{decode_frame, encode_frame};
use sim_core::{
    binomial_sf, merge_time_ordered, EventQueue, Exponential, SimDuration, SimRng, SimTime,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Batches behind every time probe.
pub const BATCHES: usize = 5;

/// Reads the process's allocation count (trace binary only).
pub type AllocCounter = fn() -> u64;

/// Median over [`BATCHES`] batches of `batch(ops)`'s wall, in ns/op.
fn ns_per_op(ops: u64, mut batch: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch(ops);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Median over [`BATCHES`] runs of `once()`, in milliseconds.
fn ms_per_call<T>(mut once: impl FnMut() -> T) -> f64 {
    ns_per_op(1, |_| {
        black_box(once());
    }) / 1e6
}

fn mib_per_s(bytes: usize, ns: f64) -> f64 {
    (bytes as f64 / (1024.0 * 1024.0)) / (ns / 1e9)
}

/// The workload's world, built once, plus a clock that only moves
/// forward so sessions see time the way a run shows it to them.
struct Fixture {
    net: Network,
    sys: EncoreSystem,
    audience: Audience,
    rng: SimRng,
    /// A measurement target's URL (the first task the pool hands out).
    target_url: String,
    /// A (country, URL) the world's censors block.
    blocked: (CountryCode, String),
    now: SimTime,
}

impl Fixture {
    fn build(spec: WorldSpec, seed: u64) -> Fixture {
        let (mut net, mut sys) = spec.build(ShardContext {
            index: 0,
            shards: 1,
        });
        let mut rng = SimRng::new(seed);
        let profile = ClientProfile {
            engine: Engine::Chrome,
        };
        let target_url = sys
            .coordination
            .next_task(profile, SimTime::ZERO, &mut rng)
            .map(|t| t.spec.target_url().to_string())
            .expect("every fixture deploys at least one Chrome-compatible task");
        // The registry worlds block twitter.com in China from the start.
        // The timeline world's only censor arrives with its first
        // scheduled policy change, so that change is applied here.
        let blocked = match spec {
            WorldSpec::Fixture(BenchWorldSpec::Timeline { .. }) => {
                if let Some((_, change)) = spec.recipe().timeline().entries().first() {
                    change.apply(&mut net);
                }
                country("TR")
            }
            _ => country("CN"),
        };
        Fixture {
            net,
            sys,
            audience: spec.audience(),
            rng,
            target_url,
            blocked: (blocked, "http://twitter.com/favicon.ico".to_string()),
            now: SimTime::from_secs(1),
        }
    }

    /// Advance the clock by `ms` and return the new time.
    fn tick(&mut self, ms: u64) -> SimTime {
        self.now += SimDuration::from_millis(ms);
        self.now
    }

    /// Advance the clock by 10 µs: millions of operations then fit
    /// inside one DNS TTL and one keep-alive, so a warm path stays warm.
    fn tick_warm(&mut self) -> SimTime {
        self.now += SimDuration::from_micros(10);
        self.now
    }

    fn client(&mut self, cc: CountryCode) -> BrowserClient {
        BrowserClient::new(
            &mut self.net,
            cc,
            IspClass::Residential,
            Engine::Chrome,
            &self.rng,
        )
    }

    /// `n` clients in uncensored Germany, each with a warm connection to
    /// the target and to the collector.
    fn warm_clients(&mut self, n: usize) -> Vec<BrowserClient> {
        let target = HttpRequest::get(self.target_url.clone());
        let collector = HttpRequest::get(format!("http://{}/ping", self.sys.collection.domain));
        (0..n)
            .map(|_| {
                let mut c = self.client(country("DE"));
                for _ in 0..2 {
                    let t = self.tick(1);
                    c.fetch_once(&mut self.net, &target, t);
                    c.fetch_once(&mut self.net, &collector, t);
                }
                c
            })
            .collect()
    }
}

/// A small finished run of `spec` on one shard, with the live system
/// still around so its collection server can be probed.
struct SmallRun {
    sys: EncoreSystem,
    outcome: WorldOutcome,
    collection: CollectionSnapshot,
    geo: GeoDb,
}

fn small_run(spec: WorldSpec, seed: u64) -> SmallRun {
    let (mut net, mut sys) = spec.build(ShardContext {
        index: 0,
        shards: 1,
    });
    let audience = spec.audience();
    let recipe = spec.recipe();
    let mut rng = SimRng::new(seed);
    let outcome = WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng).run();
    let collection = sys.collection.snapshot();
    let geo = GeoDb::from_allocator(&net.allocator);
    SmallRun {
        sys,
        outcome,
        collection,
        geo,
    }
}

/// One result submission for `target_url`.
fn submission_parts(id: u64, target_url: &str) -> SubmissionParts<'_> {
    SubmissionParts {
        measurement_id: MeasurementId(id),
        phase: SubmissionPhase::Result,
        outcome: Some(TaskOutcome::Success),
        elapsed_ms: 120,
        task_type: encore::TaskType::Image,
        target_url,
        user_agent: Engine::Chrome.name(),
        congested: false,
    }
}

/// One pass over `reqs`, request `i` fetched by client `i mod n`, 2 ms
/// apart (under the ingest queue's drain rate, and each client comes
/// round again well inside its keep-alive); ns per fetch.
fn round_robin_ns(fx: &mut Fixture, clients: &mut [BrowserClient], reqs: &[HttpRequest]) -> f64 {
    let t0 = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        let t = fx.tick(2);
        let k = i % clients.len();
        black_box(clients[k].fetch_once(&mut fx.net, req, t));
    }
    t0.elapsed().as_nanos() as f64 / reqs.len() as f64
}

/// Resident bytes of one retained record: the struct plus its owned
/// strings (the formula `memory_scale` uses).
fn record_bytes(r: &StoredMeasurement) -> usize {
    std::mem::size_of_val(r)
        + r.submission.target_url.len()
        + r.submission.user_agent.len()
        + r.referer.as_ref().map_or(0, String::len)
}

/// The metric map a probes run fills, with the knobs every section
/// shares.
struct Probes {
    out: BTreeMap<String, f64>,
    /// Divides the operation counts (20 for `--quick`).
    scale: u64,
    allocs: Option<AllocCounter>,
}

impl Probes {
    fn put(&mut self, name: &str, value: f64) {
        self.out.insert(name.to_string(), value);
    }

    fn ops(&self, n: u64) -> u64 {
        (n / self.scale).max(64)
    }

    /// Allocations so far (0 in the binary without the counter).
    fn allocs(&self) -> u64 {
        self.allocs.map_or(0, |read| read())
    }
}

/// Run every probe for `workload`; the result maps metric name to value.
/// `scale` divides the operation counts (20 for `--quick`).
pub fn run(
    workload: &Workload,
    seed: u64,
    scale: u64,
    allocs: Option<AllocCounter>,
) -> Result<BTreeMap<String, f64>, String> {
    let mut p = Probes {
        out: BTreeMap::new(),
        scale,
        allocs,
    };
    let small = workload.quick().spec;
    sim_core_probes(&mut p);
    world_probes(&mut p, workload.spec, seed);
    construction_probes(&mut p);
    exact_run_probes(&mut p, small.exact(), seed);
    streaming_run_probes(&mut p, small.streaming(), seed)?;
    transport_probes(&mut p, seed)?;
    Ok(p.out)
}

/// The workload's own world: netsim, censor, browser, encore, population.
fn world_probes(p: &mut Probes, spec: WorldSpec, seed: u64) {
    let mut fx = Fixture::build(spec, seed);
    let de = country("DE");

    {
        let id = fx.net.dns.intern("twitter.com");
        let mut t = fx.now;
        p.put(
            "netsim.dns.resolve_hit_ns",
            ns_per_op(p.ops(1_000_000), |n| {
                for _ in 0..n {
                    black_box(fx.net.dns.resolve_id(de, id, t));
                }
            }),
        );
        // Each lookup lands after the previous answer's TTL ran out.
        p.put(
            "netsim.dns.resolve_miss_ns",
            ns_per_op(p.ops(1_000_000), |n| {
                for _ in 0..n {
                    t += SimDuration::from_days(2);
                    black_box(fx.net.dns.resolve_id(de, id, t));
                }
            }),
        );
        fx.net.dns.flush_caches();
    }

    let target = HttpRequest::get(fx.target_url.clone());
    // Cold: a new session per fetch, as a first-time visitor's first
    // request is — pipeline compile, empty DNS cache, new connection.
    let cold_fetch = |fx: &mut Fixture, cc: CountryCode, req: &HttpRequest, n: u64| {
        let host = fx.net.add_client(cc, IspClass::Residential);
        ns_per_op(n, |n| {
            for _ in 0..n {
                let t = fx.tick(50);
                let mut session = FetchSession::new(host.clone());
                black_box(session.fetch(&mut fx.net, req, t, &mut fx.rng));
            }
        })
    };
    let cold = cold_fetch(&mut fx, de, &target, p.ops(200_000));
    p.put("netsim.session.fetch_cold_ns", cold);
    let (blocked_cc, blocked_url) = fx.blocked.clone();
    let blocked_req = HttpRequest::get(blocked_url);
    p.put(
        "netsim.session.fetch_blocked_ns",
        cold_fetch(&mut fx, blocked_cc, &blocked_req, p.ops(200_000)),
    );
    {
        // The same cold fetch with every middlebox removed.
        let mut bare_fx = Fixture::build(spec, seed);
        bare_fx.net.clear_middleboxes();
        let without = cold_fetch(&mut bare_fx, de, &target, p.ops(200_000));
        p.put("censor.dispatch.overhead_ns", cold - without);
    }

    let host = fx.net.add_client(de, IspClass::Residential);
    let mut session = FetchSession::new(host);
    for _ in 0..4 {
        let t = fx.tick(50);
        session.fetch(&mut fx.net, &target, t, &mut fx.rng);
    }
    let before = p.allocs();
    let warm_ops = p.ops(1_000_000);
    let warm = ns_per_op(warm_ops, |n| {
        for _ in 0..n {
            let t = fx.tick_warm();
            black_box(session.fetch(&mut fx.net, &target, t, &mut fx.rng));
        }
    });
    p.put("netsim.session.fetch_warm_ns", warm);
    p.put(
        "netsim.session.warm_allocs_per_fetch",
        (p.allocs() - before) as f64 / (warm_ops * BATCHES as u64) as f64,
    );

    p.put(
        "browser.client.new_ns",
        ns_per_op(p.ops(100_000), |n| {
            for _ in 0..n {
                black_box(fx.client(de));
            }
        }),
    );
    {
        let mut client = fx.warm_clients(1).remove(0);
        let url = fx.target_url.clone();
        p.put(
            "browser.loader.load_image_cold_ns",
            ns_per_op(p.ops(200_000), |n| {
                for _ in 0..n {
                    client.cache = BrowserCache::default();
                    let t = fx.tick(50);
                    black_box(client.load_image(&mut fx.net, &url, t));
                }
            }),
        );
        p.put(
            "browser.loader.load_image_cached_ns",
            ns_per_op(p.ops(1_000_000), |n| {
                for _ in 0..n {
                    let t = fx.tick_warm();
                    black_box(client.load_image(&mut fx.net, &url, t));
                }
            }),
        );
        let profile = ClientProfile {
            engine: client.engine,
        };
        p.put(
            "encore.coordination.next_task_ns",
            ns_per_op(p.ops(1_000_000), |n| {
                for _ in 0..n {
                    black_box(fx.sys.coordination.next_task(profile, fx.now, &mut fx.rng));
                }
            }),
        );
        let task: MeasurementTask = fx
            .sys
            .coordination
            .next_task(profile, fx.now, &mut fx.rng)
            .expect("pool is not empty");
        p.put(
            "encore.tasks.execute_task_ns",
            ns_per_op(p.ops(200_000), |n| {
                for _ in 0..n {
                    client.cache = BrowserCache::default();
                    let t = fx.tick(50);
                    black_box(execute_task(&task, &mut client, &mut fx.net, t));
                }
            }),
        );
    }

    // Submission encode and parse.
    {
        let mut cache = EncodeCache::default();
        let mut url = String::new();
        let domain = fx.sys.collection.domain.clone();
        let mut id = 0u64;
        p.put(
            "encore.collection.submit_url_encode_ns",
            ns_per_op(p.ops(1_000_000), |n| {
                for _ in 0..n {
                    id += 1;
                    url.clear();
                    write_submit_url_cached(
                        &mut url,
                        &domain,
                        &submission_parts(id, &fx.target_url),
                        &mut cache,
                    );
                    black_box(&url);
                }
            }),
        );
        p.put(
            "encore.collection.submit_parse_ns",
            ns_per_op(p.ops(1_000_000), |n| {
                for _ in 0..n {
                    black_box(Submission::from_url(black_box(&url)));
                }
            }),
        );
    }

    // Ingest: what a submit fetch costs beyond a plain warm fetch, on
    // the same pool of warm clients taken round-robin (so each address
    // stays under the per-window cap the streaming fold applies).
    let ingest = |fx: &mut Fixture, streaming: bool| -> f64 {
        if streaming {
            let cfg = StreamingConfig::with_window(SimDuration::from_days(1));
            fx.sys
                .collection
                .enable_streaming(&cfg, 0x5EED_5EED, fx.rng.fork("probe-reservoir"));
        }
        let mut clients = fx.warm_clients(512);
        let per_batch = clients.len() * 8;
        let domain = fx.sys.collection.domain.clone();
        let mut cache = EncodeCache::default();
        let mut next_id = 1u64 << 32;
        let plain = vec![HttpRequest::get(fx.target_url.clone()); per_batch];
        let mut plain_ns = Vec::with_capacity(BATCHES);
        let mut submit_ns = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            // Every submission is new: none is a wire duplicate.
            let submits: Vec<HttpRequest> = (0..per_batch)
                .map(|_| {
                    next_id += 1;
                    let mut url = String::new();
                    let parts = submission_parts(next_id, &fx.target_url);
                    write_submit_url_cached(&mut url, &domain, &parts, &mut cache);
                    HttpRequest::get(url)
                })
                .collect();
            plain_ns.push(round_robin_ns(fx, &mut clients, &plain));
            submit_ns.push(round_robin_ns(fx, &mut clients, &submits));
        }
        median(&submit_ns) - median(&plain_ns)
    };
    p.put("encore.collection.ingest_exact_ns", ingest(&mut fx, false));
    {
        let mut streaming_fx = Fixture::build(spec, seed);
        p.put(
            "encore.collection.ingest_streaming_ns",
            ingest(&mut streaming_fx, true),
        );
    }

    // Whole visits, warm (one returning client) and cold (a new client
    // per visit; its construction is timed separately above).
    {
        let origin = fx.sys.origins[0].clone();
        let dwell = SimDuration::from_secs(30);
        let ua = Engine::Chrome.name();
        let mut client = fx.warm_clients(1).remove(0);
        for _ in 0..4 {
            let t = fx.tick(1_000);
            fx.sys
                .run_visit(&mut fx.net, &mut client, &origin, dwell, t, ua);
        }
        let before = p.allocs();
        let n_warm = p.ops(200_000);
        p.put(
            "encore.system.run_visit_warm_ns",
            ns_per_op(n_warm, |n| {
                for _ in 0..n {
                    let t = fx.tick(1_000);
                    black_box(
                        fx.sys
                            .run_visit(&mut fx.net, &mut client, &origin, dwell, t, ua),
                    );
                }
            }),
        );
        p.put(
            "encore.system.allocs_per_visit_warm",
            (p.allocs() - before) as f64 / (n_warm * BATCHES as u64) as f64,
        );

        let n_cold = p.ops(50_000);
        let mut cold_allocs = 0u64;
        let mut samples = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let mut ns = 0u128;
            for _ in 0..n_cold {
                let mut fresh = fx.client(de);
                let t = fx.tick(1_000);
                let before = p.allocs();
                let t0 = Instant::now();
                black_box(
                    fx.sys
                        .run_visit(&mut fx.net, &mut fresh, &origin, dwell, t, ua),
                );
                ns += t0.elapsed().as_nanos();
                cold_allocs += p.allocs() - before;
            }
            samples.push(ns as f64 / n_cold as f64);
        }
        p.put("encore.system.run_visit_cold_ns", median(&samples));
        p.put(
            "encore.system.allocs_per_visit_cold",
            cold_allocs as f64 / (n_cold * BATCHES as u64) as f64,
        );
    }

    p.put(
        "population.audience.sample_ns",
        ns_per_op(p.ops(1_000_000), |n| {
            for _ in 0..n {
                black_box(fx.audience.sample(&mut fx.rng));
            }
        }),
    );
    {
        let mut rollups = WindowedRollups::new(8);
        let mut at = 0u64;
        p.put(
            "population.analytics.rollup_push_ns",
            ns_per_op(p.ops(1_000_000), |n| {
                for _ in 0..n {
                    at += 1;
                    rollups.push(Rollup {
                        at: SimTime::from_secs(at),
                        visits: at,
                        collected: at as usize,
                    });
                }
                black_box(rollups.resident_len());
            }),
        );
    }
}

/// World construction.
fn construction_probes(p: &mut Probes) {
    {
        let bare = ms_per_call(|| shard_fixture::scenario().build_shard(0, 1));
        let censored = ms_per_call(|| {
            let mut net = shard_fixture::scenario().build_shard(0, 1);
            install_world_censors(&mut net);
            net
        });
        p.put("censor.registry.install_ms", (censored - bare).max(0.0));
    }
    p.put(
        "websim.corpus.generate_ms",
        ms_per_call(corpus_fixture::corpus),
    );
    {
        let corpus = corpus_fixture::corpus();
        let with = ms_per_call(|| {
            let mut net = corpus_fixture::scenario().build_shard(0, 1);
            corpus.install(&mut net, &mut SimRng::new(corpus_fixture::CORPUS_SEED ^ 1));
            net
        });
        let without = ms_per_call(|| corpus_fixture::scenario().build_shard(0, 1));
        p.put("websim.corpus.install_ms", (with - without).max(0.0));
    }
}

/// A small exact run of this world: collection, inference, codec.
fn exact_run_probes(p: &mut Probes, spec: WorldSpec, seed: u64) {
    let a = small_run(spec, seed);
    let b = small_run(spec, seed ^ 0x9E37_79B9);
    let records = a.collection.records.len().max(1);
    p.put(
        "encore.collection.snapshot_ns_per_record",
        ns_per_op(records as u64, |_| {
            black_box(a.sys.collection.snapshot());
        }),
    );
    let both = (records + b.collection.records.len()) as u64;
    let mut pairs: Vec<_> = (0..BATCHES)
        .map(|_| (a.collection.clone(), b.collection.clone()))
        .collect();
    p.put(
        "encore.collection.merge_ns_per_record",
        ns_per_op(both, |_| {
            let (x, y) = pairs.pop().expect("one pair per batch");
            black_box(x.merge_owned(y));
        }),
    );
    p.put(
        "encore.collection.bytes_per_record",
        a.collection.records.iter().map(record_bytes).sum::<usize>() as f64 / records as f64,
    );
    let det = FilteringDetector::default();
    p.put(
        "encore.inference.detect_ns_per_record",
        ns_per_op(records as u64, |_| {
            black_box(det.detect(&a.collection.records, &a.geo));
        }),
    );
    p.put(
        "encore.inference.detect_windows_ns_per_record",
        ns_per_op(records as u64, |_| {
            black_box(det.detect_windows(&a.collection.records, &a.geo, SimDuration::from_days(1)));
        }),
    );
    let log = (a.outcome.log.len() + b.outcome.log.len()) as u64;
    let mut pairs: Vec<_> = (0..BATCHES)
        .map(|_| (a.outcome.clone(), b.outcome.clone()))
        .collect();
    let merge_ns = ns_per_op(log.max(1), |_| {
        let (x, y) = pairs.pop().expect("one pair per batch");
        black_box(x.merge(y));
    });
    // Batch worlds keep no visit log, so there is nothing per record.
    p.put(
        "population.analytics.merge_ns_per_record",
        if log == 0 { 0.0 } else { merge_ns },
    );
    let chunk = &a.collection.records[..records.min(4096).min(a.collection.records.len())];
    let bytes = serde::bin::to_vec(chunk);
    p.put(
        "population.transport.payload_encode_mib_per_s",
        mib_per_s(
            bytes.len(),
            ns_per_op(1, |_| {
                black_box(serde::bin::to_vec(black_box(chunk)));
            }),
        ),
    );
    p.put(
        "population.transport.payload_decode_mib_per_s",
        mib_per_s(
            bytes.len(),
            ns_per_op(1, |_| {
                black_box(serde::bin::from_slice::<Vec<StoredMeasurement>>(&bytes).is_ok());
            }),
        ),
    );
}

/// A small streaming run: sketch, reservoir, merge, judge.
fn streaming_run_probes(p: &mut Probes, spec: WorldSpec, seed: u64) -> Result<(), String> {
    let a = small_run(spec, seed);
    let b = small_run(spec, seed ^ 0x9E37_79B9);
    let (Some(sa), Some(sb)) = (a.collection.streaming, b.collection.streaming) else {
        return Err("streaming probe run carried no analytics".to_string());
    };
    let cfg = StreamingConfig::default();
    let mut sketch = CountMinSketch::new(cfg.sketch_depth, cfg.sketch_width, 0x5EED_5EED);
    let key = b"http://twitter.com/favicon.ico";
    p.put(
        "encore.streaming.sketch_add_ns",
        ns_per_op(p.ops(1_000_000), |n| {
            for _ in 0..n {
                sketch.add(black_box(key), 1);
            }
        }),
    );
    let mut reservoir = ReservoirSample::new(cfg.reservoir);
    let mut rng = SimRng::new(seed);
    let Some(record) = sa.reservoir.records().next().cloned() else {
        return Err("streaming probe run sampled no record".to_string());
    };
    // As ingest does it: draw a priority, clone a record only if the
    // reservoir would keep it.
    p.put(
        "encore.streaming.reservoir_offer_ns",
        ns_per_op(p.ops(1_000_000), |n| {
            for _ in 0..n {
                let priority = rng.next_u64();
                if reservoir.would_admit(priority) {
                    reservoir.offer(priority, record.clone());
                }
            }
        }),
    );
    let cells: usize = sa.windows.iter().map(|w| w.cells.len()).sum();
    let det = FilteringDetector::default();
    p.put(
        "encore.inference.judge_streamed_ns_per_cell",
        ns_per_op(cells.max(1) as u64, |_| {
            black_box(det.judge_streamed(&sa));
        }),
    );
    let mut pairs: Vec<_> = (0..BATCHES).map(|_| (sa.clone(), sb.clone())).collect();
    p.put(
        "encore.streaming.stats_merge_ns",
        ns_per_op(1, |_| {
            let (mut x, y) = pairs.pop().expect("one pair per batch");
            x.merge(y);
            black_box(x);
        }),
    );
    Ok(())
}

/// The process transport's fixed cost: a world with almost no traffic.
fn transport_probes(p: &mut Probes, seed: u64) -> Result<(), String> {
    let tiny = WorldSpec::Fixture(BenchWorldSpec::Timeline {
        days: 1,
        rate: 1.0,
        streaming: false,
    });
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let process = ProcessTransport::new(exe);
    let mut failed = None;
    let proc_ms = ms_per_call(|| {
        if let Err(e) = process.run(&tiny, 2, seed) {
            failed = Some(e.to_string());
        }
    });
    if let Some(e) = failed {
        return Err(format!("fixed-overhead probe: {e}"));
    }
    let thread_ms = ms_per_call(|| ThreadTransport.run(&tiny, 2, seed).is_ok());
    p.put(
        "population.transport.fixed_overhead_ms",
        proc_ms - thread_ms,
    );
    Ok(())
}

/// Probes that need no world at all.
fn sim_core_probes(p: &mut Probes) {
    let mut rng = SimRng::new(0xBE7C);
    p.put(
        "sim_core.rng.next_u64_ns",
        ns_per_op(p.ops(4_000_000), |n| {
            for _ in 0..n {
                black_box(rng.next_u64());
            }
        }),
    );
    let gap = Exponential::from_mean(1_200.0);
    p.put(
        "sim_core.dist.exponential_ns",
        ns_per_op(p.ops(4_000_000), |n| {
            for _ in 0..n {
                black_box(gap.sample(&mut rng));
            }
        }),
    );
    // A world's queue holds a handful of pending events (next arrival,
    // next rollup, next maintenance tick, a few policy changes).
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut at = 0u64;
    for i in 0..8 {
        queue.schedule(SimTime::from_secs(1_000_000 + i), i);
    }
    p.put(
        "sim_core.queue.schedule_pop_ns",
        ns_per_op(p.ops(2_000_000), |n| {
            for _ in 0..n {
                at += 1;
                queue.schedule(SimTime::from_micros(at), at);
                black_box(queue.pop());
            }
        }),
    );

    let payload: Vec<u8> = (0..256 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    let frame = encode_frame(4, &payload);
    let frames = 32u64;
    p.put(
        "sim_core.frame.encode_mib_per_s",
        mib_per_s(
            payload.len(),
            ns_per_op(frames, |n| {
                for _ in 0..n {
                    black_box(encode_frame(4, black_box(&payload)));
                }
            }),
        ),
    );
    p.put(
        "sim_core.frame.decode_mib_per_s",
        mib_per_s(
            payload.len(),
            ns_per_op(frames, |n| {
                for _ in 0..n {
                    black_box(decode_frame(black_box(&frame), u32::MAX).is_ok());
                }
            }),
        ),
    );

    let items = p.ops(400_000) as usize;
    let side = |offset: u64| -> Vec<(SimTime, u64)> {
        (0..items as u64 / 2)
            .map(|i| (SimTime::from_micros(i * 2 + offset), i))
            .collect()
    };
    let mut pairs: Vec<_> = (0..BATCHES).map(|_| (side(0), side(1))).collect();
    p.put(
        "sim_core.merge.time_ordered_ns_per_item",
        ns_per_op(items as u64, |_| {
            let (a, b) = pairs.pop().expect("one pair per batch");
            black_box(merge_time_ordered(a, b, |x| x.0));
        }),
    );

    // A daily (country, domain) cell: around a hundred measurements.
    p.put(
        "sim_core.stats.binomial_sf_ns",
        ns_per_op(p.ops(400_000), |n| {
            for i in 0..n {
                black_box(binomial_sf(100 + i % 50, 0.7, 40 + i % 40));
            }
        }),
    );
}

//! The five workloads and the one serializable world spec they all run
//! through.
//!
//! Every world goes through a single entry point,
//! `ShardTransport::run(&spec, shards, seed)`, on [`WorldSpec`]: the
//! bench crate's fixture worlds plus the one world this benchmark adds
//! (the 10⁶-visit streaming batch). The spec crosses the process
//! transport's pipe as bytes, so the worker role of this same binary
//! rebuilds exactly the world the coordinator described.

use bench::specs::BenchWorldSpec;
use bench::{corpus_fixture, shard_fixture};
use encore::system::EncoreSystem;
use netsim::geo::World;
use netsim::network::Network;
use population::{Audience, ShardContext, StreamingSpec, WorldRecipe};
use serde::{Deserialize, Serialize};
use sim_core::SimDuration;

/// A world the benchmark can run on either transport.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WorldSpec {
    /// One of the bench crate's fixture worlds.
    Fixture(BenchWorldSpec),
    /// `visits` batch arrivals over the §7.2 censored world
    /// (`shard_fixture`), daily rollups, streaming analytics with every
    /// default (dedup on) and a one-day window.
    StreamBatch {
        /// Total visits across all shards.
        visits: u64,
    },
    /// The [`WorldSpec::StreamBatch`] world with the exact record log
    /// instead of streaming analytics. No workload runs it; the
    /// per-layer probes use it to get records out of that world.
    ExactBatch {
        /// Total visits across all shards.
        visits: u64,
    },
}

impl WorldSpec {
    /// The same world keeping its exact record log.
    pub fn exact(self) -> WorldSpec {
        match self {
            WorldSpec::StreamBatch { visits } => WorldSpec::ExactBatch { visits },
            WorldSpec::Fixture(BenchWorldSpec::Timeline { days, rate, .. }) => {
                WorldSpec::Fixture(BenchWorldSpec::Timeline {
                    days,
                    rate,
                    streaming: false,
                })
            }
            other => other,
        }
    }

    /// The same world on streaming analytics. The corpus world cannot
    /// stream, so it falls back to the streaming batch world.
    pub fn streaming(self) -> WorldSpec {
        match self {
            WorldSpec::ExactBatch { visits } => WorldSpec::StreamBatch { visits },
            WorldSpec::Fixture(BenchWorldSpec::Timeline { days, rate, .. }) => {
                WorldSpec::Fixture(BenchWorldSpec::Timeline {
                    days,
                    rate,
                    streaming: true,
                })
            }
            WorldSpec::Fixture(_) => WorldSpec::StreamBatch {
                visits: STREAM_VISITS / 20,
            },
            other => other,
        }
    }
}

impl population::WorldSpec for WorldSpec {
    fn audience(&self) -> Audience {
        match self {
            WorldSpec::Fixture(spec) => spec.audience(),
            WorldSpec::StreamBatch { .. } | WorldSpec::ExactBatch { .. } => {
                Audience::world(&World::builtin())
            }
        }
    }

    fn recipe(&self) -> WorldRecipe {
        match *self {
            WorldSpec::Fixture(spec) => spec.recipe(),
            WorldSpec::StreamBatch { visits } => WorldSpec::ExactBatch { visits }
                .recipe()
                .with_streaming(StreamingSpec::with_window(DAY)),
            WorldSpec::ExactBatch { visits } => {
                WorldRecipe::batch(shard_fixture::batch(visits)).with_rollups(DAY)
            }
        }
    }

    fn build(&self, ctx: ShardContext) -> (Network, EncoreSystem) {
        match self {
            WorldSpec::Fixture(spec) => spec.build(ctx),
            WorldSpec::StreamBatch { .. } | WorldSpec::ExactBatch { .. } => {
                shard_fixture::build_censored(ctx)
            }
        }
    }
}

/// Rollup cadence and streaming window of the batch worlds.
const DAY: SimDuration = SimDuration::from_days(1);

/// Which backend executes the shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Transport {
    /// In-process OS threads.
    Threads,
    /// Worker processes: this same binary re-executed in its worker role.
    Process,
}

/// One named workload: a world, a shard count, a transport, and the
/// reason it is in the benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The name `--workload` selects and `BENCHMARK.json` lists.
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// The world.
    pub spec: WorldSpec,
    /// Shard count.
    pub shards: usize,
    /// Shard backend.
    pub transport: Transport,
}

/// Simulated days of the timeline workloads.
pub const TIMELINE_DAYS: u64 = 30;
/// Arrival rate of the timeline workloads (≈450k visits in 30 days).
pub const TIMELINE_RATE: f64 = 1500.0;
/// Visits of the streaming workloads.
pub const STREAM_VISITS: u64 = 1_000_000;

const TIMELINE: WorldSpec = WorldSpec::Fixture(BenchWorldSpec::Timeline {
    days: TIMELINE_DAYS,
    rate: TIMELINE_RATE,
    streaming: false,
});

/// The five workloads, in the order every report lists them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "world_report_90d",
        why: "The flagship a user launches: 90-day corpus world, exact analytics, cold sessions; \
              inference and record retention dominate.",
        spec: WorldSpec::Fixture(BenchWorldSpec::Corpus {
            days: corpus_fixture::DAYS,
            rate: corpus_fixture::RATE,
        }),
        shards: 1,
        transport: Transport::Threads,
    },
    Workload {
        name: "stream_1m",
        why: "1M streaming visits on one shard: the visit hot path is the whole wall; \
              inference and retention are bypassed.",
        spec: WorldSpec::StreamBatch {
            visits: STREAM_VISITS,
        },
        shards: 1,
        transport: Transport::Threads,
    },
    Workload {
        name: "stream_1m_x2",
        why: "The same 1M visits split over 2 thread shards: per-shard build, arrival thinning \
              and sketch merge show as lost speed-up.",
        spec: WorldSpec::StreamBatch {
            visits: STREAM_VISITS,
        },
        shards: 2,
        transport: Transport::Threads,
    },
    Workload {
        name: "timeline_450k_thr_x2",
        why: "Exact-mode sharding on threads: 1.3M records snapshotted and merged in memory; \
              one detector pass, so shard and merge dominate.",
        spec: TIMELINE,
        shards: 2,
        transport: Transport::Threads,
    },
    Workload {
        name: "timeline_450k_proc_x2",
        why: "The same world over worker processes: every record crosses a pipe in CRC'd \
              frames, so codec and pipe cost show against the thread run.",
        spec: TIMELINE,
        shards: 2,
        transport: Transport::Process,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The `--quick` smoke size: the same world at one twentieth of the
    /// traffic. Verdicts lose their statistical power at this size, so
    /// quick runs keep only the checks that do not depend on it.
    pub fn quick(self) -> Workload {
        let spec = match self.spec {
            WorldSpec::StreamBatch { visits } => WorldSpec::StreamBatch {
                visits: visits / 20,
            },
            WorldSpec::ExactBatch { visits } => WorldSpec::ExactBatch {
                visits: visits / 20,
            },
            WorldSpec::Fixture(BenchWorldSpec::Corpus { days, rate }) => {
                WorldSpec::Fixture(BenchWorldSpec::Corpus {
                    days,
                    rate: rate / 20.0,
                })
            }
            WorldSpec::Fixture(BenchWorldSpec::Timeline {
                days,
                rate,
                streaming,
            }) => WorldSpec::Fixture(BenchWorldSpec::Timeline {
                days,
                rate: rate / 20.0,
                streaming,
            }),
            other => other,
        };
        Workload { spec, ..self }
    }
}

//! Property tests for the population models.

use netsim::geo::World;
use population::{Audience, BatchConfig, BatchReport, Merge};
use proptest::prelude::*;
use sim_core::{SimDuration, SimRng};

/// A structurally arbitrary report, generated from a seed so the merge
/// laws are exercised over the whole counter space.
fn report_from(seed: u64) -> BatchReport {
    let mut rng = SimRng::new(seed);
    let mut draw = || rng.range_u64(0, 1 << 40);
    BatchReport {
        visits: draw(),
        origin_loads: draw(),
        visits_with_tasks: draw(),
        tasks_executed: draw(),
        results_delivered: draw(),
        clients_created: draw(),
        clients_reused: draw(),
        dns_cache_hits: draw(),
        connections_reused: draw(),
        session_fetches: draw(),
        sim_span: SimDuration::from_micros(draw()),
    }
}

proptest! {
    #[test]
    fn batch_report_merge_is_commutative(a in any::<u64>(), b in any::<u64>()) {
        let (ra, rb) = (report_from(a), report_from(b));
        prop_assert_eq!(ra.merge(rb), rb.merge(ra));
    }

    #[test]
    fn batch_report_merge_is_associative(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (ra, rb, rc) = (report_from(a), report_from(b), report_from(c));
        let left = ra.merge(rb).merge(rc);
        let right = ra.merge(rb.merge(rc));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn batch_report_merge_identity_is_default(a in any::<u64>()) {
        let r = report_from(a);
        prop_assert_eq!(r.merge(BatchReport::default()), r);
        prop_assert_eq!(BatchReport::default().merge(r), r);
    }

    #[test]
    fn shard_partition_conserves_visits(visits in 0u64..100_000, shards in 1usize..32) {
        let total = BatchConfig { visits, ..BatchConfig::default() };
        let sum: u64 = (0..shards)
            .map(|i| population::shard::shard_batch_config(&total, shards, i).visits)
            .sum();
        prop_assert_eq!(sum, visits);
        // Earlier shards never carry less than later ones (remainder
        // goes to the front), and the split is as even as possible.
        let sizes: Vec<u64> = (0..shards)
            .map(|i| population::shard::shard_batch_config(&total, shards, i).visits)
            .collect();
        for w in sizes.windows(2) {
            prop_assert!(w[0] >= w[1] && w[0] - w[1] <= 1);
        }
    }

    #[test]
    fn rollup_series_merge_is_associative_and_commutative(
        a in proptest::collection::vec((0u64..40, 0u64..1_000, 0usize..1_000), 0..8),
        b in proptest::collection::vec((0u64..40, 0u64..1_000, 0usize..1_000), 0..8),
        c in proptest::collection::vec((0u64..40, 0u64..1_000, 0usize..1_000), 0..8),
    ) {
        use population::{merge_in_order, Merge, Rollup, RollupSeries};
        use sim_core::SimTime;
        // Sort each generated series by time (rollup series are always
        // time-ordered — they are recorded by a monotone event queue)
        // and deduplicate instants (one rollup fires per instant).
        let series = |mut v: Vec<(u64, u64, usize)>| {
            v.sort_by_key(|e| e.0);
            v.dedup_by_key(|e| e.0);
            RollupSeries(
                v.into_iter()
                    .map(|(t, visits, collected)| Rollup {
                        at: SimTime::from_secs(t),
                        visits,
                        collected,
                    })
                    .collect(),
            )
        };
        let (sa, sb, sc) = (series(a), series(b), series(c));
        let left = sa.clone().merge(sb.clone()).merge(sc.clone());
        let right = sa.clone().merge(sb.clone().merge(sc.clone()));
        prop_assert_eq!(&left, &right, "associativity");
        prop_assert_eq!(
            sa.clone().merge(sb.clone()),
            sb.clone().merge(sa.clone()),
            "commutativity"
        );
        prop_assert_eq!(sa.clone().merge(RollupSeries::default()), sa.clone(), "identity");
        prop_assert_eq!(
            merge_in_order([sa.clone(), sb, sc]).unwrap(),
            left,
            "merge_in_order is the same fold"
        );
    }

    #[test]
    fn shard_recipe_thins_arrivals_but_broadcasts_control(
        shards in 1usize..9,
        visits in 0u64..10_000,
    ) {
        use population::shard::shard_batch_config;
        use population::{shard_recipe, WorldRecipe};
        use sim_core::SimTime;
        let recipe = |config| {
            WorldRecipe::batch(config)
                .with_timeline(censor::timeline::PolicyTimeline::new().at(
                    SimTime::from_secs(100),
                    censor::timeline::PolicyChange::Lift { name: "x".into() },
                ))
                .with_rollups(SimDuration::from_secs(500))
                .with_maintenance(SimDuration::from_secs(700))
        };
        let config = BatchConfig { visits, ..BatchConfig::default() };
        let mut total = 0u64;
        for index in 0..shards {
            // Arrival half thinned 1/N; control half broadcast verbatim.
            let thinned = shard_batch_config(&config, shards, index);
            prop_assert_eq!(shard_recipe(&recipe(config), shards, index), recipe(thinned));
            total += thinned.visits;
        }
        prop_assert_eq!(total, visits, "thinning must conserve the workload");
    }

    #[test]
    fn shard_deployment_config_conserves_aggregate_rate(
        shards in 1usize..17,
        rate_times_10 in 1u64..10_000,
    ) {
        let total = population::DeploymentConfig {
            visits_per_day_per_weight: rate_times_10 as f64 / 10.0,
            ..population::DeploymentConfig::default()
        };
        let per_shard: Vec<_> = (0..shards)
            .map(|i| population::shard::shard_deployment_config(&total, shards, i))
            .collect();
        let aggregate: f64 = per_shard.iter().map(|c| c.visits_per_day_per_weight).sum();
        prop_assert!(
            (aggregate - total.visits_per_day_per_weight).abs()
                < 1e-9 * total.visits_per_day_per_weight.max(1.0)
        );
        for c in &per_shard {
            prop_assert_eq!(c.duration, total.duration, "span is never divided");
        }
        // One shard is the serial config, bit for bit.
        prop_assert_eq!(
            population::shard::shard_deployment_config(&total, 1, 0),
            total
        );
    }

    #[test]
    fn shard_rng_streams_are_disjoint(seed in any::<u64>(), shards in 2usize..8) {
        let mut rngs = population::shard::shard_rngs(seed, shards);
        let mut firsts: Vec<u64> = rngs.iter_mut().map(|r| r.next_u64()).collect();
        firsts.sort_unstable();
        firsts.dedup();
        prop_assert_eq!(firsts.len(), shards);
    }

    #[test]
    fn dwell_samples_are_positive_and_bounded(seed in any::<u64>()) {
        let a = Audience::academic();
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            let d = a.sample_dwell(&mut rng);
            prop_assert!(d > SimDuration::ZERO);
            // Nobody stays on an academic homepage for a week.
            prop_assert!(d < SimDuration::from_days(1), "dwell = {d}");
        }
    }

    #[test]
    fn visitors_always_come_from_known_countries(seed in any::<u64>()) {
        let world = World::with_long_tail(170);
        let a = Audience::world(&world);
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            let v = a.sample(&mut rng);
            prop_assert!(world.get(v.country).is_some(), "unknown country {}", v.country);
        }
    }

    #[test]
    fn sampling_is_seed_deterministic(seed in any::<u64>()) {
        let a = Audience::academic();
        let mut r1 = SimRng::new(seed);
        let mut r2 = SimRng::new(seed);
        for _ in 0..20 {
            let v1 = a.sample(&mut r1);
            let v2 = a.sample(&mut r2);
            prop_assert_eq!(v1, v2);
        }
    }
}

/// Streaming fold-and-evict properties: a [`WindowedRollups`] window
/// must lose no information relative to keeping the whole series (its
/// fold plus the resident tail reconstructs the end-of-run fold
/// exactly, for every window size and stream length), and the summary
/// types the shards exchange must form commutative merge monoids.
mod streaming_fold_props {
    use super::*;
    use encore::streaming::DropCounters;
    use population::{Merge, Rollup, RollupFold, StreamSummary, WindowedRollups};
    use sim_core::SimTime;

    /// A structurally arbitrary time-ordered rollup series.
    fn series_from(seed: u64, len: usize) -> Vec<Rollup> {
        let mut rng = SimRng::new(seed);
        let mut at = 0u64;
        (0..len)
            .map(|_| {
                at += rng.range_u64(1, 10_000);
                Rollup {
                    at: SimTime::from_secs(at),
                    visits: rng.range_u64(0, 1 << 30),
                    collected: rng.range_u64(0, 1 << 30) as usize,
                }
            })
            .collect()
    }

    fn fold_from(seed: u64) -> RollupFold {
        let mut rng = SimRng::new(seed);
        let last = if rng.range_u64(0, 2) == 0 {
            None
        } else {
            Some(Rollup {
                at: SimTime::from_secs(rng.range_u64(0, 1 << 30)),
                visits: rng.range_u64(0, 1 << 30),
                collected: rng.range_u64(0, 1 << 30) as usize,
            })
        };
        RollupFold {
            points: rng.range_u64(0, 1 << 30),
            last,
        }
    }

    fn summary_from(seed: u64) -> StreamSummary {
        let mut rng = SimRng::new(seed);
        let mut draw = || rng.range_u64(0, 1 << 30);
        StreamSummary {
            window: draw(),
            evicted: fold_from(seed ^ 0xF01D),
            drops: DropCounters {
                queue_full: draw(),
                queue_full_congested: draw(),
                expired: draw(),
                duplicate: draw(),
            },
            accepted: draw(),
        }
    }

    proptest! {
        /// Folding-and-evicting as the stream advances equals folding
        /// everything at the end of the run, for any window size, and
        /// the resident set never outgrows the window.
        #[test]
        fn windowed_fold_and_evict_equals_end_of_run_fold(
            seed in any::<u64>(),
            len in 0usize..40,
            window in 1usize..9,
        ) {
            let all = series_from(seed, len);
            let mut windowed = WindowedRollups::new(window);
            for (i, r) in all.iter().enumerate() {
                windowed.push(*r);
                prop_assert!(windowed.resident_len() <= window);
                // No point is ever lost or double-counted mid-stream.
                prop_assert_eq!(
                    windowed.folded().points + windowed.resident_len() as u64,
                    i as u64 + 1
                );
            }
            let (tail, evicted) = windowed.into_parts();
            let mut reconstructed = evicted;
            for r in &tail.0 {
                reconstructed.absorb(*r);
            }
            let mut whole = RollupFold::default();
            for r in &all {
                whole.absorb(*r);
            }
            prop_assert_eq!(reconstructed, whole);
        }

        /// RollupFold's merge is associative and commutative with the
        /// default as identity — shards may combine in any order.
        #[test]
        fn rollup_fold_merge_is_monoidal(
            a in any::<u64>(), b in any::<u64>(), c in any::<u64>(),
        ) {
            let (fa, fb, fc) = (fold_from(a), fold_from(b), fold_from(c));
            prop_assert_eq!(fa.merge(fb), fb.merge(fa), "commutativity");
            prop_assert_eq!(
                fa.merge(fb).merge(fc),
                fa.merge(fb.merge(fc)),
                "associativity"
            );
            prop_assert_eq!(fa.merge(RollupFold::default()), fa, "identity");
        }

        /// StreamSummary (the per-shard wire summary) merges as a
        /// commutative monoid too: drops and accepted add, the evicted
        /// fold merges, the window annotation takes the max.
        #[test]
        fn stream_summary_merge_is_monoidal(
            a in any::<u64>(), b in any::<u64>(), c in any::<u64>(),
        ) {
            let (sa, sb, sc) = (summary_from(a), summary_from(b), summary_from(c));
            prop_assert_eq!(sa.merge(sb), sb.merge(sa), "commutativity");
            prop_assert_eq!(
                sa.merge(sb).merge(sc),
                sa.merge(sb.merge(sc)),
                "associativity"
            );
            prop_assert_eq!(sa.merge(StreamSummary::default()), sa, "identity");
            let merged = sa.merge(sb);
            prop_assert_eq!(merged.accepted, sa.accepted + sb.accepted);
            prop_assert_eq!(merged.drops.total(), sa.drops.total() + sb.drops.total());
        }
    }
}

/// World-engine event-ordering properties: arbitrary interleavings of
/// scheduled configuration events with the arrival stream must neither
/// perturb the visit stream (when the events are behaviour-neutral) nor
/// break run-to-run determinism.
mod world_engine_props {
    use super::*;
    use encore::coordination::SchedulingStrategy;
    use encore::delivery::OriginSite;
    use encore::system::EncoreSystem;
    use encore::tasks::{MeasurementId, MeasurementTask, TaskSpec};
    use netsim::geo::country;
    use netsim::http::{ContentType, HttpResponse};
    use netsim::network::{ConstHandler, Network};
    use population::{DeploymentConfig, Retain, WorldChange, WorldEngine, WorldRecipe};
    use sim_core::SimTime;

    fn tiny_world() -> (Network, EncoreSystem) {
        let mut net = Network::ideal(World::builtin());
        net.add_server(
            "target.example",
            country("US"),
            Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, 400))),
        );
        let tasks = vec![MeasurementTask {
            id: MeasurementId(0),
            spec: TaskSpec::Image {
                url: "http://target.example/favicon.ico".into(),
            },
        }];
        let sys = EncoreSystem::deploy(
            &mut net,
            tasks,
            SchedulingStrategy::RoundRobin,
            vec![OriginSite::academic("prof.example")],
            country("US"),
        );
        (net, sys)
    }

    fn two_days() -> WorldRecipe {
        WorldRecipe::deployment(DeploymentConfig {
            duration: SimDuration::from_days(2),
            visits_per_day_per_weight: 20.0,
            ..DeploymentConfig::default()
        })
        .retain_visits(Retain::Full)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // Neutral events (world changes a flat world has nothing to apply
        // to, maintenance ticks, rollups) at arbitrary instants —
        // including instants colliding with arrivals — leave the visit
        // log byte-identical to an event-free run.
        #[test]
        fn interleaved_neutral_events_never_perturb_the_visit_stream(
            seed in any::<u64>(),
            changes in proptest::collection::vec((0u64..200_000, 0.0f64..2.0), 0..6),
            tick_secs in 600u64..90_000,
        ) {
            let audience = Audience::academic();
            let bare = {
                let (mut net, mut sys) = tiny_world();
                let mut rng = SimRng::new(seed);
                WorldEngine::from_recipe(&mut net, &mut sys, &audience, &two_days(), &mut rng)
                    .run()
                    .log
            };
            let noisy = {
                let (mut net, mut sys) = tiny_world();
                let mut rng = SimRng::new(seed);
                let recipe = changes
                    .iter()
                    .fold(two_days(), |recipe, &(s, level)| {
                        let change = WorldChange::HotspotBackground(level);
                        recipe.change_at(SimTime::from_secs(s), change)
                    })
                    .with_maintenance(SimDuration::from_secs(tick_secs))
                    .with_rollups(SimDuration::from_secs(tick_secs));
                WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng)
                    .run()
                    .log
            };
            prop_assert_eq!(bare, noisy);
        }

        // A fixed seed plus a fixed event schedule reproduces the full
        // outcome — log, report, and rollups — run to run.
        #[test]
        fn engine_runs_are_reproducible_under_interleaving(
            seed in any::<u64>(),
            block_secs in 0u64..200_000,
        ) {
            use censor::policy::{CensorPolicy, Mechanism};
            use censor::timeline::{CensorSpec, PolicyChange, PolicyTimeline};
            let audience = Audience::academic();
            let block = CensorSpec::new(
                country("US"),
                CensorPolicy::named("mid-run-block")
                    .block_domain("target.example", Mechanism::DnsNxDomain),
            );
            let recipe = two_days()
                .with_timeline(
                    PolicyTimeline::new()
                        .at(SimTime::from_secs(block_secs), PolicyChange::Install(block)),
                )
                .with_rollups(SimDuration::from_secs(7_200));
            let go = || {
                let (mut net, mut sys) = tiny_world();
                let mut rng = SimRng::new(seed);
                let out =
                    WorldEngine::from_recipe(&mut net, &mut sys, &audience, &recipe, &mut rng).run();
                (out.log, out.report, out.rollups)
            };
            prop_assert_eq!(go(), go());
        }
    }
}

//! Property tests for the simulation kernel.

use proptest::prelude::*;
use sim_core::dist::{Empirical, Exponential, LogNormal, Pareto, Sample, Zipf};
use sim_core::{Cdf, EventQueue, FiveNumber, SimDuration, SimRng, SimTime, Summary};

proptest! {
    // ---- time ----

    #[test]
    fn time_add_then_subtract_roundtrips(base in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_micros(base);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((t + dur) - dur, t);
        prop_assert_eq!((t + dur) - t, dur);
    }

    #[test]
    fn duration_display_never_panics(us in 0u64..u64::MAX / 2) {
        let _ = SimDuration::from_micros(us).to_string();
        let _ = SimTime::from_micros(us).to_string();
    }

    #[test]
    fn since_is_antisymmetric_saturating(a in 0u64..1_000_000_000, b in 0u64..1_000_000_000) {
        let (ta, tb) = (SimTime::from_micros(a), SimTime::from_micros(b));
        let fwd = tb.since(ta);
        let back = ta.since(tb);
        // One direction is the true gap, the other saturates at zero.
        prop_assert!(fwd == SimDuration::ZERO || back == SimDuration::ZERO);
        prop_assert_eq!(fwd.as_micros() + back.as_micros(), a.abs_diff(b));
    }

    // ---- rng ----

    #[test]
    fn forks_are_reproducible(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let mut a = SimRng::new(seed).fork(&label);
        let mut b = SimRng::new(seed).fork(&label);
        prop_assert_eq!(a.unit(), b.unit());
    }

    // ---- stream splitting (the sharding substrate) ----

    #[test]
    fn split_children_pairwise_disjoint_window(seed in any::<u64>(), n_children in 2usize..6) {
        // Sample a window of each child stream; with 64-bit draws any
        // overlap between windows means the streams coincided, which the
        // 2^192 long-jump spacing must prevent.
        let mut parent = SimRng::new(seed);
        let mut windows: Vec<Vec<u64>> = Vec::new();
        for _ in 0..n_children {
            let mut child = parent.split();
            windows.push((0..128).map(|_| child.next_u64()).collect());
        }
        for i in 0..windows.len() {
            for j in (i + 1)..windows.len() {
                let a: std::collections::HashSet<u64> = windows[i].iter().copied().collect();
                prop_assert!(
                    !windows[j].iter().any(|v| a.contains(v)),
                    "children {i} and {j} share draws"
                );
            }
        }
    }

    #[test]
    fn split_children_never_overlap_parent_continuation(seed in any::<u64>()) {
        let mut parent = SimRng::new(seed);
        let mut child_draws = std::collections::HashSet::new();
        for _ in 0..4 {
            let mut child = parent.split();
            for _ in 0..128 {
                child_draws.insert(child.next_u64());
            }
        }
        // The parent continues past every child's block.
        for _ in 0..512 {
            prop_assert!(
                !child_draws.contains(&parent.next_u64()),
                "parent continuation re-entered a child's stream"
            );
        }
    }

    #[test]
    fn split_fork_namespaces_disjoint(seed in any::<u64>(), label in "[a-z]{1,10}") {
        // Shard i and shard j forking the same subsystem label must get
        // different streams — otherwise parallel shards replay each
        // other's arrivals.
        let mut parent = SimRng::new(seed);
        let kids: Vec<SimRng> = (0..4).map(|_| parent.split()).collect();
        let mut firsts: Vec<u64> = kids.iter().map(|k| k.fork(&label).next_u64()).collect();
        firsts.sort_unstable();
        firsts.dedup();
        prop_assert_eq!(firsts.len(), 4, "forked shard streams collided");
    }

    #[test]
    fn split_sequence_is_reproducible(seed in any::<u64>()) {
        let run = |seed: u64| {
            let mut parent = SimRng::new(seed);
            (0..4).map(|_| parent.split().next_u64()).collect::<Vec<u64>>()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    // ---- distributions ----

    #[test]
    fn distributions_stay_in_support(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        prop_assert!(LogNormal::new(2.0, 1.0).sample(&mut rng) > 0.0);
        prop_assert!(Pareto::new(5.0, 1.5).sample(&mut rng) >= 5.0);
        prop_assert!(Exponential::from_mean(3.0).sample(&mut rng) >= 0.0);
    }

    #[test]
    fn zipf_ranks_in_range(n in 1usize..500, s in 0.0f64..3.0) {
        // All mass sits on ranks `[0, n)`, non-increasing in rank.
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|r| z.mass(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total mass {total}");
        prop_assert_eq!(z.mass(n), 0.0);
        for r in 1..n {
            prop_assert!(z.mass(r) <= z.mass(r - 1) + 1e-12);
        }
    }

    #[test]
    fn empirical_only_returns_positive_weight_items(
        seed in any::<u64>(),
        weights in proptest::collection::vec(0.0f64..5.0, 1..10),
    ) {
        prop_assume!(weights.iter().any(|w| *w > 0.0));
        let pairs: Vec<(usize, f64)> = weights.iter().cloned().enumerate().collect();
        let dist = Empirical::new(pairs);
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            let &idx = dist.sample(&mut rng);
            prop_assert!(weights[idx] > 0.0, "drew zero-weight item {idx}");
        }
    }

    // ---- stats ----

    #[test]
    fn five_number_is_ordered(xs in proptest::collection::vec(-1e9f64..1e9, 1..300)) {
        let f = FiveNumber::of(&xs).unwrap();
        prop_assert!(f.min <= f.q1 && f.q1 <= f.median && f.median <= f.q3 && f.q3 <= f.max);
        prop_assert!(f.min <= f.mean && f.mean <= f.max);
    }

    #[test]
    fn summary_and_cdf_agree_on_extremes(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::of(&xs);
        let cdf = Cdf::new(xs);
        prop_assert_eq!(s.min, cdf.quantile(0.0).unwrap());
        prop_assert_eq!(s.max, cdf.quantile(1.0).unwrap());
        prop_assert_eq!(s.n, cdf.len());
    }

    // ---- event queue ----

    #[test]
    fn queue_preserves_insertion_order_at_equal_times(
        times in proptest::collection::vec(0u64..10, 1..100),
    ) {
        // Many collisions guaranteed by the tiny time range.
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(*t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, idx)) = q.pop() {
            if let Some((lat, lidx)) = last {
                prop_assert!(at > lat || (at == lat && idx > lidx));
            }
            last = Some((at, idx));
        }
    }

    // The world engine's backbone: events scheduled *while firing* (the
    // self-scheduling arrival process, rescheduled maintenance ticks)
    // must interleave with pre-scheduled events exactly like a reference
    // stable-sorted list. Ops mix schedules and pops in arbitrary order.
    #[test]
    fn queue_matches_reference_model_under_interleaved_schedule_and_fire(
        ops in proptest::collection::vec((proptest::bool::ANY, 0u64..40), 1..200),
    ) {
        let mut q = EventQueue::new();
        // Reference model: (effective_time, seq), popped min-first with
        // seq as the tie-break.
        let mut pending: Vec<(u64, usize)> = Vec::new();
        let mut seq = 0usize;
        let mut now = 0u64;
        let mut queue_popped = Vec::new();
        let mut model_popped = Vec::new();
        for (is_pop, t) in ops {
            if is_pop {
                if let Some((at, id)) = q.pop() {
                    queue_popped.push((at.as_micros(), id));
                    now = at.as_micros();
                }
                if let Some(pos) = pending
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &entry)| entry)
                    .map(|(i, _)| i)
                {
                    model_popped.push(pending.remove(pos));
                }
            } else {
                // Past scheduling clamps to "now" in both worlds.
                q.schedule(SimTime::from_micros(t), seq);
                pending.push((t.max(now), seq));
                seq += 1;
            }
        }
        prop_assert_eq!(&queue_popped, &model_popped);
        // Drain the rest: still model-identical.
        while let Some((at, id)) = q.pop() {
            queue_popped.push((at.as_micros(), id));
        }
        pending.sort_unstable();
        model_popped.extend(pending);
        prop_assert_eq!(queue_popped, model_popped);
    }
}

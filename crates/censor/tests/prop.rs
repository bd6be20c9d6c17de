//! Property tests for the censor crate — chiefly the policy timeline's
//! determinism contract: changes apply in time order with insertion
//! order as the tie-break, identically on every shard.

use censor::policy::{CensorPolicy, Mechanism};
use censor::timeline::{CensorSpec, PolicyChange, PolicyTimeline};
use netsim::geo::country;
use netsim::network::Network;
use proptest::prelude::*;
use sim_core::SimTime;

/// Decode a generated op list into a timeline plus the insertion order.
/// Each op is `(time_secs, kind)`; `kind` cycles install/lift/rewrite
/// over a small name space so lifts and rewrites frequently hit names
/// that earlier installs created (and sometimes miss, exercising the
/// no-op path).
fn build_timeline(ops: &[(u64, u8)]) -> PolicyTimeline {
    let mut tl = PolicyTimeline::new();
    for (i, &(t, kind)) in ops.iter().enumerate() {
        let name = format!("censor-{}", i % 4);
        let spec = CensorSpec::new(
            country("TR"),
            CensorPolicy::named(&name).block_domain("blocked.example", Mechanism::DnsNxDomain),
        );
        let change = match kind % 3 {
            0 => PolicyChange::Install(spec),
            1 => PolicyChange::Lift { name },
            _ => PolicyChange::Rewrite { name, with: spec },
        };
        tl.schedule(SimTime::from_secs(t), change);
    }
    tl
}

/// The observable world state a timeline leaves behind: installed
/// middlebox names in order, plus the generation counter (how many times
/// session pipelines were invalidated).
fn world_state(net: &Network) -> (Vec<String>, u64) {
    (
        net.middleboxes()
            .iter()
            .map(|m| m.name().to_string())
            .collect(),
        net.middlebox_generation(),
    )
}

proptest! {
    #[test]
    fn entries_are_time_sorted_with_insertion_tie_break(
        ops in proptest::collection::vec((0u64..50, 0u8..6), 1..40),
    ) {
        let tl = build_timeline(&ops);
        prop_assert_eq!(tl.len(), ops.len());
        // Time-sorted…
        for w in tl.entries().windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
        // …and within one instant, in the order the ops were scheduled.
        // Reconstruct the expected order with a stable sort of the input.
        let mut expected: Vec<(u64, usize)> =
            ops.iter().enumerate().map(|(i, &(t, _))| (t, i)).collect();
        expected.sort_by_key(|&(t, _)| t); // stable: preserves insertion order per t
        let got_times: Vec<u64> = tl.entries().iter().map(|(t, _)| t.as_secs()).collect();
        let want_times: Vec<u64> = expected.iter().map(|&(t, _)| t).collect();
        prop_assert_eq!(got_times, want_times);
    }

    /// Shard-count invariance of control events: broadcasting one
    /// timeline to N shard-built worlds yields, on every shard, the same
    /// middlebox-generation-counter *sequence* (recorded change by
    /// change) as applying it to the serial world. This is the substrate
    /// guarantee `population::run_sharded_world` leans on: since
    /// per-shard topologies are identical and generation bumps are a
    /// pure function of the middlebox set's history, warm-session
    /// pipeline invalidation happens at the same points in the control
    /// schedule on every shard.
    #[test]
    fn broadcast_timeline_yields_identical_generation_sequences(
        ops in proptest::collection::vec((0u64..50, 0u8..6), 1..30),
        shards in 2usize..5,
    ) {
        use netsim::scenario::NetworkScenario;
        let scenario = NetworkScenario::new().with_ideal_paths();

        // Serial reference: apply change by change, recording the
        // generation counter after each application.
        let sequence = |mut net: Network| -> Vec<(Vec<String>, u64)> {
            let tl = build_timeline(&ops);
            let mut seq = Vec::with_capacity(tl.len());
            for (_, change) in tl.entries() {
                change.apply(&mut net);
                seq.push(world_state(&net));
            }
            seq
        };
        let serial_seq = sequence(scenario.build());

        for index in 0..shards {
            let shard_seq = sequence(scenario.build_shard(index, shards));
            prop_assert_eq!(
                &shard_seq, &serial_seq,
                "shard {}/{} diverged from the serial generation sequence",
                index, shards
            );
        }
    }
}

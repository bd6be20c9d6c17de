//! Property tests for the Encore system crate.

use browser::Engine;
use encore::coordination::{ClientProfile, CoordinationServer, SchedulingStrategy};
use encore::delivery::render_task_js;
use encore::targets::EthicsStage;
use encore::tasks::{MeasurementId, MeasurementTask, TaskSpec, IFRAME_CACHE_THRESHOLD};
use proptest::prelude::*;
use sim_core::{SimDuration, SimRng, SimTime};

fn arb_spec() -> impl Strategy<Value = TaskSpec> {
    let url = "http://[a-z]{1,10}\\.(com|org)/[a-z0-9/._-]{0,30}";
    prop_oneof![
        url.prop_map(|u| TaskSpec::Image { url: u }),
        url.prop_map(|u| TaskSpec::Stylesheet { url: u }),
        url.prop_map(|u| TaskSpec::Script { url: u }),
        (url, url).prop_map(|(p, i)| TaskSpec::Iframe {
            page_url: p,
            probe_image_url: i,
            threshold: IFRAME_CACHE_THRESHOLD,
        }),
    ]
}

proptest! {
    /// The Table 2 stages are strictly nested: anything the final stage
    /// permits, earlier stages permit too.
    #[test]
    fn ethics_stages_are_nested(spec in arb_spec()) {
        let task = MeasurementTask {
            id: MeasurementId(0),
            spec,
        };
        if EthicsStage::FaviconsFewSites.permits(&task) {
            prop_assert!(EthicsStage::FaviconsOnly.permits(&task));
        }
        if EthicsStage::FaviconsOnly.permits(&task) {
            prop_assert!(EthicsStage::Unrestricted.permits(&task));
        }
    }

    /// The scheduler never hands a client an incompatible task, under
    /// any strategy, engine, pool or timing.
    #[test]
    fn scheduler_respects_engine_constraints(
        specs in proptest::collection::vec(arb_spec(), 1..12),
        engine_idx in 0usize..4,
        strategy_idx in 0usize..3,
        times in proptest::collection::vec(0u64..100_000, 1..30),
        seed in any::<u64>(),
    ) {
        let tasks: Vec<MeasurementTask> = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| MeasurementTask {
                id: MeasurementId(i as u64),
                spec,
            })
            .collect();
        let strategy = [
            SchedulingStrategy::Random,
            SchedulingStrategy::RoundRobin,
            SchedulingStrategy::CoordinatedBursts {
                window: SimDuration::from_secs(60),
            },
        ][strategy_idx];
        let engine = Engine::ALL[engine_idx];
        let mut server = CoordinationServer::new(tasks, strategy);
        let mut rng = SimRng::new(seed);
        let profile = ClientProfile { engine };
        for t in times {
            if let Some(task) = server.next_task(profile, SimTime::from_millis(t), &mut rng) {
                prop_assert!(task.spec.compatible_with(engine));
            }
        }
    }

    /// Assignment IDs are unique across any sequence of requests.
    #[test]
    fn scheduler_ids_unique(
        n in 1usize..100,
        seed in any::<u64>(),
    ) {
        let tasks = vec![MeasurementTask {
            id: MeasurementId(0),
            spec: TaskSpec::Image {
                url: "http://t.com/favicon.ico".into(),
            },
        }];
        let mut server = CoordinationServer::new(tasks, SchedulingStrategy::Random);
        let mut rng = SimRng::new(seed);
        let mut ids = std::collections::BTreeSet::new();
        for _ in 0..n {
            let t = server
                .next_task(ClientProfile { engine: Engine::Chrome }, SimTime::ZERO, &mut rng)
                .unwrap();
            prop_assert!(ids.insert(t.id), "duplicate id {:?}", t.id);
        }
    }

    /// The rendered JavaScript always embeds the measurement ID, the
    /// target URL, the init beacon, and both event handlers.
    #[test]
    fn task_js_always_complete(spec in arb_spec(), id in 0u64..u64::MAX) {
        let task = MeasurementTask {
            id: MeasurementId(id),
            spec,
        };
        let js = render_task_js(&task, "collector.example");
        prop_assert!(js.contains(&task.id.to_string()));
        prop_assert!(js.contains(task.spec.target_url()));
        prop_assert!(js.contains("init"));
        prop_assert!(js.contains("failure"));
        prop_assert!(js.contains("success"));
    }
}

/// Laws the streaming analytics structures must satisfy for the
/// bounded-memory pipeline to be sound: the sketch never under-counts
/// (serially or across shard merges) and stays inside the ε·N error
/// envelope, and the reservoir's bottom-k merge is a commutative
/// monoid that agrees with serial sampling under any stream split.
mod streaming_props {
    use super::*;
    use encore::collection::{StoredMeasurement, Submission, SubmissionPhase};
    use encore::streaming::{CountMinSketch, ReservoirSample};
    use encore::tasks::{TaskOutcome, TaskType};
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    /// An arbitrary workload of (namespace, key, count) additions drawn
    /// from a small key universe so streams genuinely revisit keys.
    fn arb_workload() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
        proptest::collection::vec((0u8..2, 0u64..24, 1u64..50), 1..40).prop_map(|v| {
            v.into_iter()
                .map(|(ns, key, count)| ([b'u', b'o'][ns as usize], key, count))
                .collect()
        })
    }

    fn exact_counts(workload: &[(u8, u64, u64)]) -> BTreeMap<(u8, u64), u64> {
        let mut exact = BTreeMap::new();
        for &(ns, key, count) in workload {
            *exact.entry((ns, key)).or_insert(0u64) += count;
        }
        exact
    }

    /// A structurally arbitrary record (the reservoir treats records as
    /// opaque payloads; only the canonical tie-break order ever looks
    /// inside).
    fn meas(id: u64) -> StoredMeasurement {
        StoredMeasurement {
            submission: Submission {
                measurement_id: MeasurementId(id),
                phase: SubmissionPhase::Result,
                outcome: Some(TaskOutcome::Success),
                elapsed_ms: id % 900,
                task_type: TaskType::Image,
                target_url: format!("http://d{}.example/favicon.ico", id % 7).into(),
                user_agent: "Firefox".into(),
                congested: false,
            },
            client_ip: Ipv4Addr::new(10, (id >> 16) as u8, (id >> 8) as u8, id as u8),
            referer: None,
            received_at: SimTime::from_millis(id),
        }
    }

    /// The sketch as it was before a key's slots became a primitive:
    /// `add` runs `estimate` (one hash per row) and then re-derives the
    /// same row indexes to raise them — `2 × depth` passes over the key.
    /// Kept here as the reference the slots path must equal, field for
    /// field (the field names are [`CountMinSketch`]'s own, so
    /// [`ReferenceSketch::as_sketch`] can rebuild one through serde and
    /// the comparison is the whole-struct `PartialEq`, `items` included).
    #[derive(Clone, serde::Serialize)]
    struct ReferenceSketch {
        depth: u32,
        width: u32,
        seed: u64,
        items: u64,
        counters: Vec<u64>,
    }

    impl ReferenceSketch {
        fn new(depth: u32, width: u32, seed: u64) -> ReferenceSketch {
            ReferenceSketch {
                depth,
                width,
                seed,
                items: 0,
                counters: vec![0; depth as usize * width as usize],
            }
        }

        fn row_index(&self, row: u32, ns: u8, key: &[u8]) -> usize {
            let salt = self.seed
                ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(row) + 1)
                ^ (u64::from(ns) << 56);
            let h = sim_core::seeded_hash(salt, key);
            row as usize * self.width as usize + (h % u64::from(self.width)) as usize
        }

        fn add_ns(&mut self, ns: u8, key: &[u8], count: u64) {
            self.items = self.items.saturating_add(count);
            let target = self.estimate_ns(ns, key).saturating_add(count);
            for row in 0..self.depth {
                let idx = self.row_index(row, ns, key);
                if self.counters[idx] < target {
                    self.counters[idx] = target;
                }
            }
        }

        fn estimate_ns(&self, ns: u8, key: &[u8]) -> u64 {
            (0..self.depth)
                .map(|row| self.counters[self.row_index(row, ns, key)])
                .min()
                .expect("depth > 0")
        }

        fn merge(&mut self, other: &ReferenceSketch) {
            self.items = self.items.saturating_add(other.items);
            for (c, o) in self.counters.iter_mut().zip(&other.counters) {
                *c = c.saturating_add(*o);
            }
        }

        fn as_sketch(&self) -> CountMinSketch {
            let json = serde_json::to_string(self).expect("serialize reference");
            serde_json::from_str(&json).expect("reference has the sketch's shape")
        }
    }

    /// Keys of assorted lengths (the empty key included) from a small
    /// universe, any namespace byte, and counts that reach saturation.
    fn arb_saturating_workload() -> impl Strategy<Value = Vec<(u8, Vec<u8>, u64)>> {
        let count = prop_oneof![0u64..50, (u64::MAX - 2)..=u64::MAX, any::<u64>()];
        proptest::collection::vec((any::<u8>(), 0usize..12, count), 1..40).prop_map(|v| {
            v.into_iter()
                .map(|(ns, k, count)| {
                    let key = format!("http://k{k}.example/{}", "x".repeat(k * 5));
                    (ns, key.as_bytes()[..key.len() * k / 11].to_vec(), count)
                })
                .collect()
        })
    }

    /// Distinct priorities for `n` offers — unique by construction so
    /// the split/serial comparison cannot hinge on tie-break order.
    fn priorities(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SimRng::new(seed);
        (0..n as u64)
            .map(|i| (rng.range_u64(0, 1 << 40) << 12) | i)
            .collect()
    }

    proptest! {
        /// Count-min never under-counts, and over-counts by at most
        /// ε·N with ε = e/width (the classic bound; conservative
        /// update only tightens it).
        #[test]
        fn sketch_never_undercounts_and_respects_epsilon_n(
            workload in arb_workload(),
            seed in any::<u64>(),
        ) {
            let mut sketch = CountMinSketch::new(4, 1024, seed);
            for &(ns, key, count) in &workload {
                sketch.add_ns(ns, &key.to_le_bytes(), count);
            }
            let exact = exact_counts(&workload);
            let n: u64 = exact.values().sum();
            prop_assert_eq!(sketch.items(), n);
            let slack = (std::f64::consts::E / f64::from(sketch.width()) * n as f64).ceil() as u64;
            for (&(ns, key), &true_count) in &exact {
                let est = sketch.estimate_ns(ns, &key.to_le_bytes());
                prop_assert!(est >= true_count, "undercount: {est} < {true_count}");
                prop_assert!(
                    est <= true_count + slack,
                    "over ε·N: {est} > {true_count} + {slack}"
                );
            }
        }

        /// Splitting a stream across shards and merging the per-shard
        /// sketches keeps the no-undercount guarantee and the exact
        /// item total, and the element-wise merge is associative and
        /// commutative with the empty sketch as identity.
        #[test]
        fn sketch_merge_is_sound_and_monoidal(
            workload in arb_workload(),
            mask in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let dims = |w: &[(u8, u64, u64)]| {
                let mut s = CountMinSketch::new(4, 1024, seed);
                for &(ns, key, count) in w {
                    s.add_ns(ns, &key.to_le_bytes(), count);
                }
                s
            };
            let (a, b): (Vec<_>, Vec<_>) = workload
                .iter()
                .enumerate()
                .partition(|(i, _)| mask >> (i % 64) & 1 == 0);
            let strip = |v: Vec<(usize, &(u8, u64, u64))>| {
                v.into_iter().map(|(_, e)| *e).collect::<Vec<_>>()
            };
            let (sa, sb) = (dims(&strip(a)), dims(&strip(b)));
            let mut merged = sa.clone();
            merged.merge(&sb);
            let exact = exact_counts(&workload);
            prop_assert_eq!(merged.items(), exact.values().sum::<u64>());
            for (&(ns, key), &true_count) in &exact {
                prop_assert!(merged.estimate_ns(ns, &key.to_le_bytes()) >= true_count);
            }
            // Monoid laws on the counter arrays themselves.
            let mut ab = sa.clone();
            ab.merge(&sb);
            let mut ba = sb.clone();
            ba.merge(&sa);
            prop_assert_eq!(&ab, &ba, "commutativity");
            let sc = dims(&workload);
            let mut left = ab.clone();
            left.merge(&sc);
            let mut bc = sb.clone();
            bc.merge(&sc);
            let mut right = sa.clone();
            right.merge(&bc);
            prop_assert_eq!(&left, &right, "associativity");
            let mut with_id = sa.clone();
            with_id.merge(&CountMinSketch::new(4, 1024, seed));
            prop_assert_eq!(&with_id, &sa, "identity");
        }

        /// Hashing a key's slots once and updating at them leaves
        /// exactly the sketch the `2 × depth` formula leaves — through
        /// `add_ns`, through slots kept per key and reused, and after a
        /// split-then-merge — at every legal shape down to one row or
        /// one column, saturating counts included.
        #[test]
        fn slots_path_sketch_equals_the_two_pass_reference(
            workload in arb_saturating_workload(),
            depth in 1u32..=CountMinSketch::MAX_DEPTH,
            width_idx in 0usize..5,
            mask in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let width = [1u32, 2, 5, 64, 1024][width_idx];
            let mut reference = ReferenceSketch::new(depth, width, seed);
            let mut halves = [reference.clone(), reference.clone()];
            let mut via_add = CountMinSketch::new(depth, width, seed);
            let mut via_slots = via_add.clone();
            let mut split = [via_add.clone(), via_add.clone()];
            let mut memo = BTreeMap::new();
            for (i, (ns, key, count)) in workload.iter().enumerate() {
                let (ns, count) = (*ns, *count);
                reference.add_ns(ns, key, count);
                via_add.add_ns(ns, key, count);
                let slots = *memo
                    .entry((ns, key.clone()))
                    .or_insert_with(|| via_slots.slots_ns(ns, key));
                prop_assert_eq!(slots, via_slots.slots_ns(ns, key), "slots are a function of the key");
                via_slots.add_at(&slots, count);
                prop_assert_eq!(via_slots.estimate_at(&slots), reference.estimate_ns(ns, key));
                let half = (mask >> (i % 64) & 1) as usize;
                halves[half].add_ns(ns, key, count);
                split[half].add_at(&slots, count);
            }
            let expected = reference.as_sketch();
            prop_assert_eq!(&via_add, &expected, "add_ns");
            prop_assert_eq!(&via_slots, &expected, "memoised slots");
            for (ns, key, _) in &workload {
                prop_assert_eq!(via_add.estimate_ns(*ns, key), reference.estimate_ns(*ns, key));
            }
            let [mut left, right] = split;
            left.merge(&right);
            let [mut ref_left, ref_right] = halves;
            ref_left.merge(&ref_right);
            prop_assert_eq!(&left, &ref_left.as_sketch(), "split then merge");
        }

        /// Bottom-k reservoir merge is associative and commutative with
        /// the empty sample as identity, and merging per-shard samples
        /// of any stream split reproduces the serial sample exactly.
        #[test]
        fn reservoir_merge_is_monoidal_and_split_invariant(
            n in 1usize..60,
            capacity in 1u64..12,
            mask in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let prio = priorities(seed, n);
            let mut serial = ReservoirSample::new(capacity);
            let mut parts = [ReservoirSample::new(capacity), ReservoirSample::new(capacity)];
            for i in 0..n {
                serial.offer(prio[i], meas(i as u64));
                parts[(mask >> (i % 64) & 1) as usize].offer(prio[i], meas(i as u64));
            }
            let [pa, pb] = parts;
            let mut split = pa.clone();
            split.merge(pb.clone());
            prop_assert_eq!(&split, &serial, "split == serial");
            prop_assert_eq!(serial.seen, n as u64);
            prop_assert!(serial.len() as u64 <= capacity);
            // Monoid laws.
            let mut ab = pa.clone();
            ab.merge(pb.clone());
            let mut ba = pb.clone();
            ba.merge(pa.clone());
            prop_assert_eq!(&ab, &ba, "commutativity");
            let mut left = ab.clone();
            left.merge(serial.clone());
            let mut bc = pb.clone();
            bc.merge(serial.clone());
            let mut right = pa.clone();
            right.merge(bc);
            prop_assert_eq!(&left, &right, "associativity");
            let mut with_id = pa.clone();
            with_id.merge(ReservoirSample::new(capacity));
            prop_assert_eq!(&with_id, &pa, "identity");
        }
    }
}

/// `CollectionServer::snapshot` decides the canonical order on the
/// store's interned records (strings compared by rank, not by bytes)
/// and only then builds the owned ones: it must still be exactly the
/// owned records sorted by the canonical comparison.
mod snapshot_props {
    use super::*;
    use encore::collection::{CollectionServer, CollectionSnapshot, StoredMeasurement, Submission};
    use netsim::http::HttpRequest;
    use netsim::network::HttpHandler;
    use std::net::Ipv4Addr;

    /// Stable-sort `snapshot` into the canonical order, restated from its
    /// definition: received time first, then every other field.
    fn canonicalize(snapshot: &mut CollectionSnapshot) {
        fn key(r: &StoredMeasurement) -> impl Ord + '_ {
            let s = &r.submission;
            (
                r.received_at,
                u32::from(r.client_ip),
                s.measurement_id,
                s.phase,
                s.outcome,
                s.task_type,
                s.elapsed_ms,
                &*s.target_url,
                &*s.user_agent,
                r.referer.as_deref(),
                s.congested,
            )
        }
        snapshot.records.sort_by(|a, b| key(a).cmp(&key(b)));
    }

    /// Raw `cmh-target` spellings. The first two are two escapings of one
    /// decoded URL (one symbol, one rank); the rest are chosen so that
    /// first-seen (symbol) order and string order disagree.
    const TARGETS: [&str; 4] = [
        "http%3A%2F%2Fm.example%2Ffavicon.ico",
        "http%3A%2F%2Fm%2Eexample%2Ffavicon%2Eico",
        "http%3A%2F%2Fz.example%2F",
        "http%3A%2F%2Fa.example%2F",
    ];
    const AGENTS: [&str; 3] = ["Firefox", "Chrome", ""];
    const REFERERS: [Option<&str>; 3] = [
        None,
        Some("http://origin-b.example/"),
        Some("http://origin-a.example/"),
    ];
    const RESULTS: [&str; 3] = ["init", "success", "failure"];
    const TYPES: [&str; 2] = ["script", "image"];

    /// One submission as indexes into the tables above, every field
    /// drawn from a universe small enough that any two submissions often
    /// agree on a prefix of the canonical key — down to all of it.
    #[derive(Debug, Clone, Copy)]
    struct Wire {
        at_ms: u64,
        ip: u8,
        id: u64,
        result: usize,
        elapsed: u64,
        ty: usize,
        target: usize,
        agent: usize,
        referer: usize,
        congested: bool,
    }

    /// Every `Wire` is one mixed-radix number (the vendored proptest
    /// builds tuples of at most four strategies).
    fn arb_wire() -> impl Strategy<Value = Wire> {
        (0usize..3 * 2 * 2 * 3 * 2 * 2 * 4 * 3 * 3 * 2).prop_map(|mut code| {
            let mut digit = |radix: usize| {
                let d = code % radix;
                code /= radix;
                d
            };
            Wire {
                at_ms: digit(3) as u64,
                ip: digit(2) as u8,
                id: digit(2) as u64,
                result: digit(RESULTS.len()),
                elapsed: digit(2) as u64,
                ty: digit(TYPES.len()),
                target: digit(TARGETS.len()),
                agent: digit(AGENTS.len()),
                referer: digit(REFERERS.len()),
                congested: digit(2) == 1,
            }
        })
    }

    fn submit(server: &CollectionServer, w: Wire) {
        let mut url = format!(
            "http://collector.example/submit?cmh-id=m-{:016x}&cmh-result={}&cmh-elapsed={}\
             &cmh-type={}&cmh-target={}&cmh-ua={}",
            w.id, RESULTS[w.result], w.elapsed, TYPES[w.ty], TARGETS[w.target], AGENTS[w.agent],
        );
        if w.congested {
            url.push_str("&cmh-cong=1");
        }
        let mut req = HttpRequest::get(url);
        if let Some(referer) = REFERERS[w.referer] {
            req = req.with_referer(referer);
        }
        let ip = Ipv4Addr::new(10, 0, 0, w.ip);
        let resp = server.handle(&req, ip, SimTime::from_millis(w.at_ms));
        assert_eq!(resp.status.0, 200, "a well-formed submission is stored");
    }

    #[test]
    fn the_two_escapings_decode_to_one_url() {
        let decoded = |target: &str| {
            let url = format!(
                "http://c/submit?cmh-id=m-01&cmh-result=init&cmh-elapsed=0&cmh-type=image\
                 &cmh-target={target}"
            );
            Submission::from_url(&url).expect("well-formed").target_url
        };
        assert_ne!(TARGETS[0], TARGETS[1]);
        assert_eq!(decoded(TARGETS[0]), decoded(TARGETS[1]));
    }

    proptest! {
        #[test]
        fn snapshot_is_the_record_log_sorted_by_the_canonical_order(
            wires in proptest::collection::vec(arb_wire(), 0..60),
            repeats in proptest::collection::vec(0usize..60, 0..8),
        ) {
            let server = CollectionServer::new("collector.example");
            // Every wire once, then exact duplicates of some, arriving
            // after everything else.
            let repeats = repeats.iter().filter_map(|&i| wires.get(i));
            let submitted: Vec<Wire> = wires.iter().chain(repeats).copied().collect();
            for &w in &submitted {
                submit(&server, w);
            }

            let mut sorted = CollectionSnapshot {
                records: server.records(),
                ..CollectionSnapshot::default()
            };
            prop_assert_eq!(sorted.len(), submitted.len());
            canonicalize(&mut sorted);
            prop_assert_eq!(server.snapshot(), sorted);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `merge_owned` is concatenation then `canonicalize` — record
        /// for record, and text allocation for text allocation, so equal
        /// records keep the stable sort's `self`-before-`other` order —
        /// and so is commutative and associative by value. The sides
        /// share exact duplicates; `later` moves one side wholly after
        /// the other (the append path) or neither.
        #[test]
        fn merge_owned_is_concatenation_then_canonicalize(
            a in proptest::collection::vec(arb_wire(), 0..30),
            b in proptest::collection::vec(arb_wire(), 0..30),
            c in proptest::collection::vec(arb_wire(), 0..20),
            shared in proptest::collection::vec(0usize..30, 0..8),
            later in 0u8..3,
        ) {
            let shift = |wires: &[Wire], by: u64| -> Vec<Wire> {
                wires.iter().map(|&w| Wire { at_ms: w.at_ms + by, ..w }).collect()
            };
            let shared = shared.iter().filter_map(|&i| a.get(i)).copied();
            let b: Vec<Wire> = b.iter().copied().chain(shared).collect();
            let (a, b) = match later {
                1 => (a, shift(&b, 10)),
                2 => (shift(&a, 10), b),
                _ => (a, b),
            };
            let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));

            let merged = sa.clone().merge_owned(sb.clone());
            let reference = concatenated(&sa, &sb);
            prop_assert_eq!(&merged, &reference);
            prop_assert!(same_text(&merged, &reference), "equal records reordered");

            prop_assert_eq!(&sb.clone().merge_owned(sa.clone()), &merged, "commutative");
            let left = merged.merge_owned(sc.clone());
            let right = sa.merge_owned(sb.merge_owned(sc));
            prop_assert_eq!(left, right, "associative");
        }
    }

    /// The snapshot of a server that received `wires`, in order.
    fn snapshot_of(wires: &[Wire]) -> CollectionSnapshot {
        let server = CollectionServer::new("collector.example");
        for &w in wires {
            submit(&server, w);
        }
        server.snapshot()
    }

    /// The reference merge: concatenate, then stable-sort into canonical
    /// order.
    fn concatenated(a: &CollectionSnapshot, b: &CollectionSnapshot) -> CollectionSnapshot {
        let mut both = CollectionSnapshot {
            records: [a.records.clone(), b.records.clone()].concat(),
            malformed: a.malformed + b.malformed,
            streaming: None,
        };
        canonicalize(&mut both);
        both
    }

    /// Whether each record of `x` holds the very URL allocation its
    /// counterpart in `y` does. Each server's snapshot has its own, so
    /// this tells which side an exact duplicate came from.
    fn same_text(x: &CollectionSnapshot, y: &CollectionSnapshot) -> bool {
        x.records.len() == y.records.len()
            && x.records.iter().zip(&y.records).all(|(p, q)| {
                std::sync::Arc::ptr_eq(&p.submission.target_url, &q.submission.target_url)
            })
    }
}

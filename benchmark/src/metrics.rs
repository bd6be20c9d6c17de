//! Every metric the benchmark prints, by name, with its unit and
//! direction. `BENCHMARK.json` lists exactly these names (a unit test
//! holds the two in step).
//!
//! For a per-layer metric, `moves` records — before anything is
//! measured — which end-to-end metric on which workload a change to
//! that layer should move.

use crate::stats::Better::{self, Higher, Lower};

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`; a per-layer name starts `crate.module.`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// End to end: the share of the parent's median by which the metric
    /// may worsen before it is a regression. Per layer: none.
    pub bound: Option<f64>,
    /// Per layer: the end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

/// The end-to-end metrics, reported for every workload.
///
/// `verdict_error_rate` (wrong ÷ checked ground-truth verdicts) is
/// printed beside them but is not listed here or in `BENCHMARK.json`:
/// it must read 0, and a bound that is a share of 0 gates nothing. A
/// wrong verdict fails the rep instead.
pub const END_TO_END: [Metric; 4] = [
    e2e("visits_per_s", "visits/s", Higher, 0.25),
    e2e("cpu_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

const STREAM: &str = "visits_per_s on stream_1m, stream_1m_x2";
const HOT: &str = "visits_per_s on stream_1m (most), every workload's run phase";
const COLD: &str = "visits_per_s on world_report_90d run phase (cold sessions), stream_1m";
const PROC: &str = "visits_per_s, cpu_s on timeline_450k_proc_x2; no change on thr_x2";
const EXACT: &str = "visits_per_s, peak_rss_mib on timeline_450k_*, world_report_90d";
const FLAGSHIP_SETUP: &str = "setup_s on world_report_90d";

/// The per-layer metrics of a traced run, layer = `crate.module`.
pub const PER_LAYER: [Metric; 70] = [
    // Phases: spans around the harness's own calls.
    layer("phase.setup_s", "s", Lower, "setup_s, same workload"),
    layer(
        "phase.run_s",
        "s",
        Lower,
        "visits_per_s (≈100% of stream_1m, ≈40% of world_report_90d)",
    ),
    layer(
        "phase.judge_s",
        "s",
        Lower,
        "visits_per_s on world_report_90d (≈60%), timeline_450k_* (≈25%); ≈0 on stream_*",
    ),
    layer(
        "phase.report_encode_s",
        "s",
        Lower,
        "visits_per_s, negligible everywhere",
    ),
    layer(
        "phase.teardown_s",
        "s",
        Lower,
        "cpu_s on the exact workloads",
    ),
    layer(
        "phase.unattributed_s",
        "s",
        Lower,
        "none: wall the spans do not cover",
    ),
    layer(
        "trace.overhead_pct",
        "%",
        Lower,
        "none: traced vs untraced wall",
    ),
    // sim_core
    layer("sim_core.rng.next_u64_ns", "ns", Lower, HOT),
    layer("sim_core.dist.exponential_ns", "ns", Lower, HOT),
    layer("sim_core.queue.schedule_pop_ns", "ns", Lower, HOT),
    layer("sim_core.frame.encode_mib_per_s", "MiB/s", Higher, PROC),
    layer("sim_core.frame.decode_mib_per_s", "MiB/s", Higher, PROC),
    layer(
        "sim_core.merge.time_ordered_ns_per_item",
        "ns",
        Lower,
        "visits_per_s on both timeline_450k_*",
    ),
    layer(
        "sim_core.stats.binomial_sf_ns",
        "ns",
        Lower,
        "visits_per_s on world_report_90d (judge phase)",
    ),
    // netsim
    layer("netsim.dns.resolve_hit_ns", "ns", Lower, STREAM),
    layer("netsim.dns.resolve_miss_ns", "ns", Lower, COLD),
    layer("netsim.session.fetch_cold_ns", "ns", Lower, COLD),
    layer("netsim.session.fetch_warm_ns", "ns", Lower, STREAM),
    layer("netsim.session.fetch_blocked_ns", "ns", Lower, STREAM),
    layer("netsim.session.fetches_per_visit", "count", Lower, STREAM),
    layer("netsim.session.dns_hit_ratio", "ratio", Higher, STREAM),
    layer("netsim.session.conn_reuse_ratio", "ratio", Higher, STREAM),
    layer(
        "netsim.session.warm_allocs_per_fetch",
        "count",
        Lower,
        "visits_per_s on stream_*; reads 0 on ideal paths",
    ),
    // censor / websim
    layer(
        "censor.dispatch.overhead_ns",
        "ns",
        Lower,
        "visits_per_s on stream_1m",
    ),
    layer("censor.registry.install_ms", "ms", Lower, FLAGSHIP_SETUP),
    layer("websim.corpus.generate_ms", "ms", Lower, FLAGSHIP_SETUP),
    layer("websim.corpus.install_ms", "ms", Lower, FLAGSHIP_SETUP),
    // browser
    layer(
        "browser.client.new_ns",
        "ns",
        Lower,
        "visits_per_s: 0.65 clients/visit on stream_*, 0.95 on world_report_90d",
    ),
    layer(
        "browser.loader.load_image_cold_ns",
        "ns",
        Lower,
        "visits_per_s on stream_1m",
    ),
    layer(
        "browser.loader.load_image_cached_ns",
        "ns",
        Lower,
        "visits_per_s on stream_1m",
    ),
    // encore
    layer("encore.coordination.next_task_ns", "ns", Lower, HOT),
    layer("encore.tasks.execute_task_ns", "ns", Lower, HOT),
    layer("encore.collection.submit_url_encode_ns", "ns", Lower, HOT),
    layer("encore.collection.submit_parse_ns", "ns", Lower, HOT),
    layer(
        "encore.collection.ingest_exact_ns",
        "ns",
        Lower,
        "visits_per_s on world_report_90d, timeline_450k_*; no change on stream_*",
    ),
    layer(
        "encore.collection.ingest_streaming_ns",
        "ns",
        Lower,
        "visits_per_s on stream_*; no change on the exact workloads",
    ),
    layer("encore.system.run_visit_warm_ns", "ns", Lower, STREAM),
    layer("encore.system.run_visit_cold_ns", "ns", Lower, COLD),
    layer(
        "encore.system.allocs_per_visit_warm",
        "count",
        Lower,
        STREAM,
    ),
    layer("encore.system.allocs_per_visit_cold", "count", Lower, COLD),
    layer("encore.system.tasks_per_visit", "count", Lower, HOT),
    layer("encore.system.submissions_per_visit", "count", Lower, HOT),
    layer(
        "encore.collection.snapshot_ns_per_record",
        "ns",
        Lower,
        EXACT,
    ),
    layer("encore.collection.merge_ns_per_record", "ns", Lower, EXACT),
    layer(
        "encore.collection.bytes_per_record",
        "bytes",
        Lower,
        "peak_rss_mib on timeline_450k_*, world_report_90d",
    ),
    layer("encore.streaming.sketch_add_ns", "ns", Lower, STREAM),
    layer("encore.streaming.reservoir_offer_ns", "ns", Lower, STREAM),
    layer(
        "encore.streaming.stats_merge_ns",
        "ns",
        Lower,
        "visits_per_s on stream_1m_x2",
    ),
    layer(
        "encore.streaming.resident_bytes",
        "bytes",
        Lower,
        "peak_rss_mib on stream_*",
    ),
    layer(
        "encore.inference.detect_ns_per_record",
        "ns",
        Lower,
        "visits_per_s on world_report_90d, timeline_450k_*",
    ),
    layer(
        "encore.inference.detect_windows_ns_per_record",
        "ns",
        Lower,
        "visits_per_s on world_report_90d (eight passes), timeline_450k_* (one)",
    ),
    layer(
        "encore.inference.judge_streamed_ns_per_cell",
        "ns",
        Lower,
        "visits_per_s on stream_*; expected negligible",
    ),
    // population
    layer("population.audience.sample_ns", "ns", Lower, HOT),
    layer(
        "population.world.ns_per_visit",
        "ns",
        Lower,
        "visits_per_s: run phase ÷ visits at 1 shard",
    ),
    layer(
        "population.analytics.rollup_push_ns",
        "ns",
        Lower,
        "visits_per_s on stream_1m; expected negligible",
    ),
    layer(
        "population.shard.speedup_x2",
        "x",
        Higher,
        "visits_per_s on stream_1m_x2 against stream_1m",
    ),
    layer(
        "population.shard.imbalance",
        "ratio",
        Lower,
        "visits_per_s on the x2 workloads",
    ),
    layer(
        "population.shard.cpu_inflation",
        "x",
        Lower,
        "cpu_s on stream_1m_x2 against stream_1m",
    ),
    layer(
        "population.analytics.merge_ns_per_record",
        "ns",
        Lower,
        "visits_per_s on timeline_450k_thr_x2",
    ),
    layer("population.transport.frames", "count", Lower, PROC),
    layer("population.transport.payload_mib", "MiB", Lower, PROC),
    layer(
        "population.transport.bytes_per_record",
        "bytes",
        Lower,
        PROC,
    ),
    layer(
        "population.transport.largest_payload_kib",
        "KiB",
        Lower,
        "peak_rss_mib on timeline_450k_proc_x2",
    ),
    layer(
        "population.transport.peak_resident_outcomes",
        "count",
        Lower,
        "peak_rss_mib on timeline_450k_proc_x2",
    ),
    layer(
        "population.transport.payload_encode_mib_per_s",
        "MiB/s",
        Higher,
        PROC,
    ),
    layer(
        "population.transport.payload_decode_mib_per_s",
        "MiB/s",
        Higher,
        PROC,
    ),
    layer("population.transport.fixed_overhead_ms", "ms", Lower, PROC),
    layer("population.transport.process_over_thread", "x", Lower, PROC),
    // The visit budget: probes × counts against the measured visit.
    layer(
        "visit.estimated_ns",
        "ns",
        Lower,
        "none: Σ probe ns/op × ops/visit, beside population.world.ns_per_visit",
    ),
    layer(
        "visit.unattributed_ns",
        "ns",
        Lower,
        "none: the visit the probes do not explain; reported, not gated",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "bad metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "metric {} listed twice", m.name);
        }
        for w in crate::spec::WORKLOADS {
            assert!(name_ok(w.name), "bad workload name {:?}", w.name);
            assert!(seen.insert(w.name), "name {} used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn end_to_end_bounds_fit_the_contract() {
        for m in END_TO_END {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && m.better == Lower));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    /// `BENCHMARK.json` lists exactly the workloads and metrics this
    /// package emits, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let doc = serde::json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let obj = doc.as_object().expect("object");
        let section = |key: &str| -> Vec<Vec<(String, String)>> {
            let (_, v) = obj.iter().find(|(k, _)| k == key).expect(key);
            v.as_array()
                .expect("array")
                .iter()
                .map(|item| {
                    item.as_object()
                        .expect("object")
                        .iter()
                        .map(|(k, v)| {
                            let v = v
                                .as_str()
                                .map(str::to_string)
                                .or_else(|| v.num_token().map(str::to_string))
                                .expect("string or number");
                            (k.clone(), v)
                        })
                        .collect()
                })
                .collect()
        };
        let row = |pairs: &[(&str, String)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect()
        };

        let want: Vec<_> = crate::spec::WORKLOADS
            .iter()
            .map(|w| row(&[("name", w.name.into()), ("why", w.why.into())]))
            .collect();
        assert_eq!(section("workloads"), want, "workloads drifted");

        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                row(&[
                    ("name", m.name.into()),
                    ("unit", m.unit.into()),
                    ("better", m.better.as_str().into()),
                    ("bound", format!("{}", m.bound.unwrap())),
                ])
            })
            .collect();
        assert_eq!(section("end_to_end"), want, "end_to_end drifted");

        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                row(&[
                    ("name", m.name.into()),
                    ("unit", m.unit.into()),
                    ("better", m.better.as_str().into()),
                ])
            })
            .collect();
        assert_eq!(section("per_layer"), want, "per_layer drifted");
    }
}

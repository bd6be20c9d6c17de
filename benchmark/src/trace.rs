//! The traced pass: one workload run once with spans on, the same
//! world on the other shard configurations for the ratios between them,
//! then the per-layer probes — and every per-layer metric derived from
//! those.
//!
//! The traced rep and the probes run in the trace binary (the one with
//! the counting allocator); the comparison reps run in the main binary,
//! untraced, so `trace.overhead_pct` is the honest gap between the two.

use crate::harness::{run_child, spawn_rep, ChildJob, ROLE_PROBES};
use crate::metrics::PER_LAYER;
use crate::rep::RepResult;
use crate::spans::{self_time_ns, Span};
use crate::spec::{Transport, Workload};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// File name of the trace-role binary, built beside the main one.
pub const TRACE_BIN: &str = "encore-benchmark-trace";

/// The trace binary beside `main_exe`.
pub fn trace_exe(main_exe: &Path) -> Result<PathBuf, String> {
    let exe = main_exe.with_file_name(format!("{TRACE_BIN}{}", std::env::consts::EXE_SUFFIX));
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!(
            "{} is missing: build the whole package first \
             (`bash benchmark/run.sh` does; `cargo run` builds one binary only)",
            exe.display()
        ))
    }
}

/// One workload's traced pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceReport {
    /// Workload name.
    pub workload: String,
    /// Every per-layer metric.
    pub metrics: BTreeMap<String, f64>,
    /// The traced rep's spans.
    pub spans: Vec<Span>,
    /// Child runs made (traced rep, comparison reps, probes).
    pub ops_attempted: usize,
    /// Child runs that failed a check or did not finish.
    pub ops_failed: usize,
    /// What failed, one line each.
    pub failures: Vec<String>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Trace one workload.
pub fn trace_workload(main_exe: &Path, workload: Workload, seed: u64, quick: bool) -> TraceReport {
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();

    let tracer = trace_exe(main_exe);
    if let Err(e) = &tracer {
        attempted += 1;
        failed += 1;
        failures.push(e.clone());
    }

    let mut rep = |label: &str, exe: &Path, job: ChildJob| -> Option<RepResult> {
        attempted += 1;
        eprintln!("[{} trace: {label}]", workload.name);
        match spawn_rep(exe, &job) {
            Ok(r) => {
                let bad: Vec<String> = r
                    .failures()
                    .map(|c| format!("{label}: {}: {}", c.name, c.detail))
                    .collect();
                if !bad.is_empty() {
                    failed += 1;
                    failures.extend(bad);
                }
                Some(r)
            }
            Err(e) => {
                failed += 1;
                failures.push(format!("{label}: {e}"));
                None
            }
        }
    };

    let traced = tracer.as_ref().ok().and_then(|exe| {
        rep(
            "traced rep",
            exe,
            ChildJob {
                traced: true,
                ..ChildJob::of(workload, seed, quick)
            },
        )
    });

    // The three shard configurations; the workload's own is the
    // untraced twin of the traced rep and keeps the default-seed pins.
    let mut config = |shards: usize, transport: Transport| {
        let w = Workload {
            shards,
            transport,
            ..workload
        };
        let own = w == workload;
        rep(
            &format!("untraced {shards} shard(s) on {transport:?}"),
            main_exe,
            ChildJob {
                pinned: own && !quick,
                ..ChildJob::of(w, seed, quick)
            },
        )
        .map(|r| (own, r))
    };
    let thr1 = config(1, Transport::Threads);
    let thr2 = config(2, Transport::Threads);
    let proc2 = config(2, Transport::Process);
    let own = [&thr1, &thr2, &proc2]
        .into_iter()
        .flatten()
        .find(|(own, _)| *own)
        .map(|(_, r)| r.clone());

    if let Some(t) = &traced {
        for p in ["setup", "run", "judge", "report_encode", "teardown"] {
            metrics.insert(format!("phase.{p}_s"), t.phase(p));
        }
        // The root span's self time: rep wall no phase span covers.
        if !t.spans.is_empty() {
            metrics.insert(
                "phase.unattributed_s".into(),
                self_time_ns(&t.spans, 0) as f64 / 1e9,
            );
        }
        if let Some(u) = &own {
            metrics.insert(
                "trace.overhead_pct".into(),
                (ratio(t.wall_s, u.wall_s) - 1.0) * 100.0,
            );
        }
        let c = &t.counts;
        let visits = c.visits as f64;
        let fetches = c.session_fetches as f64;
        metrics.insert(
            "netsim.session.fetches_per_visit".into(),
            ratio(fetches, visits),
        );
        metrics.insert(
            "netsim.session.dns_hit_ratio".into(),
            ratio(c.dns_cache_hits as f64, fetches),
        );
        metrics.insert(
            "netsim.session.conn_reuse_ratio".into(),
            ratio(c.connections_reused as f64, fetches),
        );
        metrics.insert(
            "encore.system.tasks_per_visit".into(),
            ratio(c.tasks_executed as f64, visits),
        );
        metrics.insert(
            "encore.system.submissions_per_visit".into(),
            ratio(c.records.max(c.accepted) as f64, visits),
        );
        metrics.insert(
            "encore.streaming.resident_bytes".into(),
            c.streaming_resident_bytes as f64,
        );
    }
    if let Some((_, one)) = &thr1 {
        metrics.insert(
            "population.world.ns_per_visit".into(),
            ratio(one.phase("run") * 1e9, one.counts.visits as f64),
        );
    }
    if let (Some((_, one)), Some((_, two))) = (&thr1, &thr2) {
        metrics.insert(
            "population.shard.speedup_x2".into(),
            ratio(two.visits_per_s, one.visits_per_s),
        );
        metrics.insert(
            "population.shard.cpu_inflation".into(),
            ratio(two.cpu_s, one.cpu_s),
        );
        let per_shard = &two.counts.per_shard_visits;
        let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len().max(1) as f64;
        metrics.insert(
            "population.shard.imbalance".into(),
            ratio(per_shard.iter().copied().max().unwrap_or(0) as f64, mean),
        );
    }
    if let Some((_, p)) = &proc2 {
        let c = &p.counts;
        let mib = 1024.0 * 1024.0;
        metrics.insert("population.transport.frames".into(), c.frames as f64);
        metrics.insert(
            "population.transport.payload_mib".into(),
            c.payload_bytes as f64 / mib,
        );
        metrics.insert(
            "population.transport.bytes_per_record".into(),
            ratio(c.payload_bytes as f64, c.records as f64),
        );
        metrics.insert(
            "population.transport.largest_payload_kib".into(),
            c.largest_payload_bytes as f64 / 1024.0,
        );
        metrics.insert(
            "population.transport.peak_resident_outcomes".into(),
            c.peak_resident_outcomes as f64,
        );
        if let Some((_, two)) = &thr2 {
            metrics.insert(
                "population.transport.process_over_thread".into(),
                ratio(two.visits_per_s, p.visits_per_s),
            );
        }
    }

    if let Ok(exe) = &tracer {
        attempted += 1;
        eprintln!("[{} trace: probes]", workload.name);
        let mut args = vec![
            "--workload".to_string(),
            workload.name.to_string(),
            "--seed".to_string(),
            seed.to_string(),
        ];
        if quick {
            args.push("--quick".to_string());
        }
        match run_child(exe, ROLE_PROBES, &args).and_then(|line| {
            serde_json::from_str::<BTreeMap<String, f64>>(&line)
                .map_err(|e| format!("probes output: {e}"))
        }) {
            Ok(probes) => metrics.extend(probes),
            Err(e) => {
                failed += 1;
                failures.push(format!("probes: {e}"));
            }
        }
    }

    let clients_per_visit = traced.as_ref().map_or(0.0, |t| {
        ratio(t.counts.clients_created as f64, t.counts.visits as f64)
    });
    visit_budget(&mut metrics, clients_per_visit);

    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|m| m.name)
        .filter(|name| !metrics.contains_key(*name))
        .collect();
    if !missing.is_empty() {
        failed += 1;
        failures.push(format!("per-layer metrics not measured: {missing:?}"));
    }
    TraceReport {
        workload: workload.name.to_string(),
        metrics,
        spans: traced.map_or(Vec::new(), |t| t.spans),
        ops_attempted: attempted,
        ops_failed: failed,
        failures,
    }
}

/// `visit.estimated_ns`: what the probes say a visit should cost, from
/// ns/op × ops/visit (`clients_per_visit` new browser clients among
/// them), beside what a visit does cost at one shard.
fn visit_budget(metrics: &mut BTreeMap<String, f64>, clients_per_visit: f64) {
    let get = |name: &str| metrics.get(name).copied();
    let estimate = (|| {
        let reuse = get("netsim.session.conn_reuse_ratio")?;
        let fetch = reuse * get("netsim.session.fetch_warm_ns")?
            + (1.0 - reuse) * get("netsim.session.fetch_cold_ns")?;
        let submissions = get("encore.system.submissions_per_visit")?;
        // Streaming runs accept into the fold; exact runs keep records.
        let ingest = if get("encore.streaming.resident_bytes")? > 0.0 {
            get("encore.collection.ingest_streaming_ns")?
        } else {
            get("encore.collection.ingest_exact_ns")?
        };
        Some(
            get("population.audience.sample_ns")?
                + get("sim_core.dist.exponential_ns")?
                + get("sim_core.queue.schedule_pop_ns")?
                + clients_per_visit * get("browser.client.new_ns")?
                + get("netsim.session.fetches_per_visit")? * fetch
                + get("encore.system.tasks_per_visit")? * get("encore.coordination.next_task_ns")?
                + submissions * (get("encore.collection.submit_url_encode_ns")? + ingest),
        )
    })();
    if let (Some(estimated), Some(measured)) = (estimate, get("population.world.ns_per_visit")) {
        metrics.insert("visit.estimated_ns".into(), estimated);
        metrics.insert("visit.unattributed_ns".into(), measured - estimated);
    }
}

/// Print one workload's per-layer table.
pub fn print_report(r: &TraceReport) {
    println!("\n== {} (per layer) ==", r.workload);
    for m in PER_LAYER {
        match r.metrics.get(m.name) {
            Some(v) => println!("{:<50} {:>16.4} {:<8} → {}", m.name, v, m.unit, m.moves),
            None => println!("{:<50} {:>16} {:<8}", m.name, "missing", m.unit),
        }
    }
    println!(
        "ops_failed / ops_attempted: {} / {}",
        r.ops_failed, r.ops_attempted
    );
    for f in &r.failures {
        println!("  FAILED {f}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visit_budget_needs_every_input_and_reports_the_gap() {
        let mut m: BTreeMap<String, f64> = BTreeMap::new();
        visit_budget(&mut m, 0.5);
        assert!(m.is_empty(), "no inputs, no estimate");
        for (name, v) in [
            ("netsim.session.conn_reuse_ratio", 0.5),
            ("netsim.session.fetch_warm_ns", 100.0),
            ("netsim.session.fetch_cold_ns", 300.0),
            ("netsim.session.fetches_per_visit", 6.0),
            ("encore.system.submissions_per_visit", 3.0),
            ("encore.streaming.resident_bytes", 0.0),
            ("encore.collection.ingest_exact_ns", 50.0),
            ("encore.collection.ingest_streaming_ns", 1e9),
            ("population.audience.sample_ns", 20.0),
            ("sim_core.dist.exponential_ns", 10.0),
            ("sim_core.queue.schedule_pop_ns", 10.0),
            ("encore.system.tasks_per_visit", 1.5),
            ("encore.coordination.next_task_ns", 40.0),
            ("encore.collection.submit_url_encode_ns", 30.0),
            ("browser.client.new_ns", 200.0),
            ("population.world.ns_per_visit", 2_000.0),
        ] {
            m.insert(name.to_string(), v);
        }
        visit_budget(&mut m, 0.5);
        // 20+10+10 + 0.5×200 + 6×200 + 1.5×40 + 3×(30+50)
        assert_eq!(m["visit.estimated_ns"], 1_640.0);
        assert_eq!(m["visit.unattributed_ns"], 360.0);
    }
}

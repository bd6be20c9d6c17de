//! The flagship generative-corpus experiment — a 90-day multi-country
//! "world report" over a seeded `websim::corpus::Corpus`.
//!
//! Encore's deployment (paper §7) observed real censorship from real
//! vantage points over months; this command is the simulated analogue at
//! full ambition: a Zipf-popularity synthetic web with scale-free
//! cross-links, a ten-country demographic mix, the standing 2014
//! registry regimes (CN/IR/PK), a scheduled Turkish block
//! (onset day 30, lift day 60), a Russian *adaptive* censor escalating
//! RST → DNS poison → IP block against the corpus' most popular site,
//! and three benign disruptions (origin outage, botched cert rotation,
//! permanent redesign) against the second most popular site — which is
//! also under measurement, so the detector's cross-region control is
//! exercised against realistic operational noise for the entire run.
//!
//! `--shards N` / `--transport {threads,process}` run the identical
//! recipe distributed; at one shard CI byte-diffs
//! `results/world_report.json` against `tests/golden/world_report.json`
//! (blessed by `tests/world_report.rs`), and at more shards this command
//! gates itself on verdict equality with that serial golden, compiled
//! into the binary (censor verdicts and the zero-false-positive
//! disruption count must be shard-invariant).

use super::{gate_on_serial_golden, run_world, WORLD_REPORT_GOLDEN};
use bench::corpus_fixture::{
    self, WorldReport, DAYS, OUTAGE_START, RATE, REDESIGN_DAY, RU_IP_BLOCK_DAY, RU_RST_DAY,
    RU_STAND_DOWN_DAY, TR_BLOCK_LIFT, TR_BLOCK_ONSET,
};
use bench::fixtures::RunArgs;
use bench::print_table;
use bench::specs::BenchWorldSpec;

pub fn run(args: &RunArgs) {
    let (shards, transport) = (args.shards, args.transport);
    let days = args.days(DAYS);

    let spec = BenchWorldSpec::Corpus { days, rate: RATE };
    let run = run_world("world_report", &spec, args);
    let report = corpus_fixture::report(&run, shards, days, args.seed);

    println!(
        "=== world report: {} corpus sites, {days} days ===",
        report.corpus_domains.len()
    );
    println!(
        "({} visits, seed {:#x}, across {} shard(s) on the {transport} transport; \
         {} policy events, {} control signals; TR block days \
         {TR_BLOCK_ONSET}-{TR_BLOCK_LIFT}, RU escalation days \
         {RU_RST_DAY}-{RU_STAND_DOWN_DAY} peaking at IP block day {RU_IP_BLOCK_DAY}; \
         disruptions on {} from day {OUTAGE_START} through the day-{REDESIGN_DAY} \
         redesign)\n",
        report.visits,
        args.seed,
        shards,
        report.policy_changes_applied,
        report.control_signals_applied,
        report.verdicts.disrupted_domain,
    );
    print_table(
        &["country", "domain", "onset", "lift", "flagged days"],
        &report
            .verdicts
            .pairs
            .iter()
            .map(|p| {
                vec![
                    p.country.clone(),
                    p.domain.clone(),
                    p.onset_day
                        .map(|d| format!("day {d}"))
                        .unwrap_or("-".into()),
                    p.lift_day.map(|d| format!("day {d}")).unwrap_or("-".into()),
                    p.flagged_days.len().to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nbenign disruptions on {}: global-failure days {:?}, \
         censorship detections {} (must be 0)",
        report.verdicts.disrupted_domain,
        report.verdicts.disrupted_failure_days,
        report.verdicts.disrupted_detections,
    );
    if report.verdicts.disrupted_detections != 0 {
        eprintln!(
            "FALSE POSITIVE: {} detections against the benignly disrupted domain {}",
            report.verdicts.disrupted_detections, report.verdicts.disrupted_domain
        );
        std::process::exit(1);
    }

    let name = match shards {
        1 => "world_report".to_string(),
        n => format!("world_report_shards{n}"),
    };
    args.write_results(&name, &report);

    gate_on_serial_golden(
        args,
        (days, DAYS),
        || {
            serde_json::from_str::<WorldReport>(WORLD_REPORT_GOLDEN)
                .expect("the embedded golden parses")
                .verdicts
        },
        &report.verdicts,
    );
}

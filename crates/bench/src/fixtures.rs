//! Shared Network/EncoreSystem scenario builders and the one argument
//! parser for the `bench` commands.
//!
//! Every experiment needs the same setup: a constant-image server per
//! measurement target, a favicon task pool over those targets, and an
//! `EncoreSystem::deploy` with US-hosted infrastructure. Copy-pasted
//! fixtures drift — one command's world stops being another's — so the
//! pieces live here once and the commands compose them.

use encore::coordination::SchedulingStrategy;
use encore::delivery::OriginSite;
use encore::system::EncoreSystem;
use encore::tasks::{MeasurementId, MeasurementTask, TaskSpec};
use netsim::geo::{country, CountryCode};
use netsim::http::{ContentType, HttpResponse};
use netsim::network::{ConstHandler, Network};
use population::transport::TransportKind;
use serde::Serialize;
use std::path::PathBuf;

/// One `bench` subcommand: what `bench <name>` runs and which flags it
/// reads.
pub struct Command {
    /// The `<command>` word on the command line.
    pub name: &'static str,
    /// One line for the usage text.
    pub about: &'static str,
    /// The flags this command reads on top of `--seed` and `--out`,
    /// which every command reads.
    pub flags: &'static [&'static str],
    /// The command's entry point.
    pub run: fn(&RunArgs),
}

/// Every flag `bench` knows: name, value placeholder, usage line. One
/// spelling per knob — there is no environment mirror.
const FLAGS: &[(&str, &str, &str)] = &[
    (
        "--seed",
        "N",
        "root seed, decimal or the 0x-hex form runs print",
    ),
    (
        "--out",
        "DIR",
        "directory JSON results are written to [results]",
    ),
    ("--shards", "N", "shards the world runs across [1]"),
    ("--days", "N", "simulated days [the command's own default]"),
    (
        "--transport",
        "T",
        "shard backend, threads or process [threads]",
    ),
    ("--cases", "N", "simcheck case budget [200]"),
    (
        "--replay",
        "CLASS:SEED",
        "re-run one simcheck case, e.g. detector:0x1b2c",
    ),
];

/// The flags every command reads.
const COMMON_FLAGS: &[&str] = &["--seed", "--out"];

/// The one argument parser of the `bench` binary: `bench <command>
/// [--flag value | --flag=value]...`.
///
/// Nothing is ever ignored or defaulted silently: an unknown command, an
/// unknown flag, a flag the chosen command does not read, a missing
/// value, or a malformed value is an error (usage on stderr, exit 2) —
/// running `--transprot process` or `--shard 2` on the default backend
/// and reporting its numbers would be a result for an experiment nobody
/// asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Root experiment seed.
    pub seed: u64,
    /// Shard count (at least 1).
    pub shards: usize,
    /// Shard backend.
    pub transport: TransportKind,
    /// simcheck case budget.
    pub cases: usize,
    /// `simcheck --replay`: the one case to regenerate.
    pub replay: Option<(simcheck::CaseClass, u64)>,
    days: Option<u64>,
    out_dir: PathBuf,
}

impl RunArgs {
    /// Parse the process's actual CLI arguments against `commands`, or
    /// print the error and the usage text and exit with code 2.
    pub fn parse(commands: &[Command]) -> (&Command, RunArgs) {
        RunArgs::from_args(commands, std::env::args().skip(1)).unwrap_or_else(|msg| {
            eprintln!("error: {msg}\n\n{}", usage(commands));
            std::process::exit(2);
        })
    }

    fn from_args(
        commands: &[Command],
        args: impl IntoIterator<Item = String>,
    ) -> Result<(&Command, RunArgs), String> {
        let mut it = args.into_iter();
        let name = it.next().ok_or("no command given")?;
        let command = commands
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| format!("unknown command {name:?}"))?;
        let mut run = RunArgs {
            seed: crate::DEFAULT_SEED,
            shards: 1,
            transport: TransportKind::Threads,
            cases: 200,
            replay: None,
            days: None,
            out_dir: PathBuf::from("results"),
        };
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            if !FLAGS.iter().any(|(known, ..)| *known == flag) {
                return Err(format!("unknown flag {arg:?}"));
            }
            if !COMMON_FLAGS.contains(&flag) && !command.flags.contains(&flag) {
                return Err(format!("`{name}` does not read {flag}"));
            }
            let value = match inline {
                Some(value) => value,
                // Never consume another flag as this flag's value.
                None => it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{flag} needs a value"))?,
            };
            match flag {
                "--seed" => {
                    run.seed = parse_seed(&value).ok_or_else(|| {
                        format!("--seed must be a decimal or 0x-hex u64 (got {value:?})")
                    })?;
                }
                "--out" => run.out_dir = PathBuf::from(value),
                "--shards" => {
                    run.shards = value.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!(
                            "--shards must be at least 1 (got {value}): a run needs at least \
                             one shard to execute on"
                        )
                    })?;
                }
                "--days" => {
                    run.days = Some(value.parse().map_err(|_| {
                        format!("--days must be a non-negative whole number (got {value})")
                    })?);
                }
                "--transport" => {
                    run.transport = value.parse().map_err(|err| format!("--transport: {err}"))?;
                }
                "--cases" => {
                    run.cases = value.parse().map_err(|_| {
                        format!("--cases must be a whole number of worlds (got {value:?})")
                    })?;
                }
                "--replay" => {
                    let (class, seed) = value.split_once(':').unwrap_or((&value, ""));
                    let case = simcheck::CaseClass::from_name(class).zip(parse_seed(seed));
                    run.replay = Some(case.ok_or_else(|| {
                        format!("--replay must be CLASS:SEED like detector:0x1b2c (got {value:?})")
                    })?);
                }
                _ => unreachable!("every entry of FLAGS is parsed above"),
            }
        }
        Ok((command, run))
    }

    /// Simulated days, with a per-command default.
    pub fn days(&self, default: u64) -> u64 {
        self.days.unwrap_or(default)
    }

    /// Directory JSON artifacts are written to (default `results/`).
    pub fn out_dir(&self) -> &std::path::Path {
        &self.out_dir
    }

    /// Write an experiment's JSON artifact as `<out>/<name>.json`, or
    /// print the path and the OS error and exit 1: a run that could not
    /// save its artifact has not succeeded.
    pub fn write_results<T: Serialize>(&self, name: &str, value: &T) {
        let path = self.out_dir.join(format!("{name}.json"));
        let json = serde_json::to_string_pretty(value).expect("results serialize to JSON");
        if let Err(err) =
            std::fs::create_dir_all(&self.out_dir).and_then(|()| std::fs::write(&path, json))
        {
            eprintln!("error: cannot write {}: {err}", path.display());
            std::process::exit(1);
        }
        eprintln!("[written {path:?}]");
    }
}

/// Seeds are printed in hex, so `--seed 0xe7c02015` round-trips.
fn parse_seed(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

/// The usage text: every command with the flags it reads, then every
/// flag.
fn usage(commands: &[Command]) -> String {
    let mut text = String::from("usage: bench <command> [--flag value | --flag=value]...\n");
    text.push_str("\ncommands (each also reads --seed and --out):\n");
    for c in commands {
        text.push_str(&format!("  {:<13} {}", c.name, c.about));
        if !c.flags.is_empty() {
            text.push_str(&format!(" [{}]", c.flags.join(" ")));
        }
        text.push('\n');
    }
    text.push_str("\nflags:\n");
    for (flag, value, help) in FLAGS {
        text.push_str(&format!("  {:<20} {help}\n", format!("{flag} {value}")));
    }
    text
}

/// Install a US-hosted server answering every request with a constant
/// image of `bytes` bytes — the standard measurement-target stand-in
/// (favicons in the paper are small single-packet images).
pub fn add_image_server(net: &mut Network, domain: &str, bytes: u64) {
    add_image_server_in(net, domain, country("US"), bytes);
}

/// [`add_image_server`] with an explicit hosting country.
pub fn add_image_server_in(net: &mut Network, domain: &str, cc: CountryCode, bytes: u64) {
    net.add_server(
        domain,
        cc,
        Box::new(ConstHandler(HttpResponse::ok(ContentType::Image, bytes))),
    );
}

/// Install favicon-serving image servers for every domain (the §7.2
/// social-site targets are `censor::registry::SAFE_TARGETS`).
pub fn install_image_targets(net: &mut Network, domains: &[&str]) {
    for d in domains {
        add_image_server(net, d, 500);
    }
}

/// The ethics-staged favicon task pool: one `Image` task per domain,
/// IDs in domain order.
pub fn favicon_tasks(domains: &[&str]) -> Vec<MeasurementTask> {
    domains
        .iter()
        .enumerate()
        .map(|(i, d)| MeasurementTask {
            id: MeasurementId(i as u64),
            spec: TaskSpec::Image {
                url: format!("http://{d}/favicon.ico"),
            },
        })
        .collect()
}

/// Deploy Encore with US-hosted infrastructure (where the paper's
/// coordination and collection servers lived).
pub fn deploy_us(
    net: &mut Network,
    tasks: Vec<MeasurementTask>,
    strategy: SchedulingStrategy,
    origins: Vec<OriginSite>,
) -> EncoreSystem {
    EncoreSystem::deploy(net, tasks, strategy, origins, country("US"))
}

/// `n` equally popular academic volunteer origins named
/// `{prefix}-{i}.example`.
pub fn volunteer_origins(prefix: &str, n: usize, popularity: f64) -> Vec<OriginSite> {
    (0..n)
        .map(|i| OriginSite::academic(format!("{prefix}-{i}.example")).with_popularity(popularity))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use censor::registry::SAFE_TARGETS;
    use netsim::geo::{IspClass, World};
    use netsim::http::HttpRequest;
    use sim_core::{SimRng, SimTime};

    #[test]
    fn fixture_world_serves_favicon_tasks() {
        let mut net = Network::ideal(World::builtin());
        install_image_targets(&mut net, &SAFE_TARGETS);
        let tasks = favicon_tasks(&SAFE_TARGETS);
        assert_eq!(tasks.len(), SAFE_TARGETS.len());
        let sys = deploy_us(
            &mut net,
            tasks.clone(),
            SchedulingStrategy::RoundRobin,
            volunteer_origins("origin", 3, 2.0),
        );
        assert_eq!(sys.origins.len(), 3);
        // Every task's target answers with an image.
        let client = net.add_client(country("DE"), IspClass::Residential);
        let mut rng = SimRng::new(1);
        for t in &tasks {
            let out = net.fetch(
                &client,
                &HttpRequest::get(t.spec.target_url()),
                SimTime::ZERO,
                &mut rng,
            );
            let resp = out.result.expect("target reachable");
            assert_eq!(resp.content_type, ContentType::Image);
        }
    }

    fn noop(_: &RunArgs) {}

    /// A table shaped like the binary's: a world command reading every
    /// run flag, the simcheck flags, and a command reading only the
    /// common pair.
    const COMMANDS: &[Command] = &[
        Command {
            name: "timeline",
            about: "",
            flags: &["--shards", "--days", "--transport"],
            run: noop,
        },
        Command {
            name: "simcheck",
            about: "",
            flags: &["--cases", "--replay"],
            run: noop,
        },
        Command {
            name: "table1",
            about: "",
            flags: &[],
            run: noop,
        },
    ];

    fn try_args(cli: &[&str]) -> Result<RunArgs, String> {
        RunArgs::from_args(COMMANDS, cli.iter().map(|s| s.to_string())).map(|(_, args)| args)
    }

    #[test]
    fn run_args_flags_override_defaults() {
        let args = |cli: &[&str]| try_args(cli).expect("valid configuration");

        // Defaults.
        let a = args(&["timeline"]);
        assert_eq!(a.seed, crate::DEFAULT_SEED);
        assert_eq!(a.shards, 1);
        assert_eq!(a.days(30), 30);
        assert_eq!(a.out_dir(), std::path::Path::new("results"));

        // Both --flag v and --flag=v forms.
        let a = args(&[
            "timeline",
            "--seed",
            "9",
            "--shards=4",
            "--out",
            "elsewhere",
        ]);
        assert_eq!(a.seed, 9);
        assert_eq!(a.shards, 4);
        assert_eq!(a.out_dir(), std::path::Path::new("elsewhere"));

        // The dispatcher gets the command the first word names.
        let (command, _) =
            RunArgs::from_args(COMMANDS, ["table1".to_string()]).expect("known command");
        assert_eq!(command.name, "table1");

        // A malformed value is an error, never a silent default.
        let err = try_args(&["timeline", "--seed", "not-a-number"]).unwrap_err();
        assert!(err.contains("not-a-number"), "error must echo: {err}");

        // A flag with a missing value never swallows the next flag.
        let err = try_args(&["timeline", "--seed", "--shards", "4"]).unwrap_err();
        assert!(err.contains("--seed needs a value"), "unclear error: {err}");
        let err = try_args(&["timeline", "--days"]).unwrap_err();
        assert!(err.contains("--days needs a value"), "unclear error: {err}");

        // Hex seeds round-trip from the form the commands print.
        assert_eq!(args(&["timeline", "--seed", "0x3039"]).seed, 12345);
        assert_eq!(args(&["table1", "--seed=0XE7C02015"]).seed, 0xE7C0_2015);

        // The simcheck flags ride the same parse.
        let a = args(&["simcheck", "--cases", "12", "--replay", "detector:0x1b2c"]);
        assert_eq!(a.cases, 12);
        assert_eq!(a.replay, Some((simcheck::CaseClass::Detector, 0x1b2c)));
        assert_eq!(args(&["simcheck"]).cases, 200);
        for bad in ["detector", "nonsense:7", "detector:0xZZ"] {
            let err = try_args(&["simcheck", "--replay", bad]).unwrap_err();
            assert!(err.contains(bad), "error must echo the value: {err}");
        }
    }

    #[test]
    fn run_args_reject_unknown_commands_flags_and_unread_flags() {
        // The silent-misrun cases: each of these used to run the default
        // backend or shard count and report its numbers.
        let err = try_args(&["timeline", "--transprot", "process"]).unwrap_err();
        assert!(err.contains("unknown flag \"--transprot\""), "{err}");
        let err = try_args(&["timeline", "--shard=2"]).unwrap_err();
        assert!(err.contains("unknown flag \"--shard=2\""), "{err}");
        let err = try_args(&["timeline", "stray"]).unwrap_err();
        assert!(err.contains("unknown flag \"stray\""), "{err}");

        // No command, or one that does not exist.
        let err = try_args(&[]).unwrap_err();
        assert!(err.contains("no command"), "{err}");
        let err = try_args(&["timelime"]).unwrap_err();
        assert!(err.contains("unknown command \"timelime\""), "{err}");
        let err = try_args(&["--seed", "7"]).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");

        // A real flag the chosen command does not read.
        let err = try_args(&["table1", "--shards", "2"]).unwrap_err();
        assert!(err.contains("`table1` does not read --shards"), "{err}");
        let err = try_args(&["timeline", "--cases", "5"]).unwrap_err();
        assert!(err.contains("`timeline` does not read --cases"), "{err}");
        let err = try_args(&["simcheck", "--days", "3"]).unwrap_err();
        assert!(err.contains("`simcheck` does not read --days"), "{err}");

        // The usage text names every command and every flag.
        let text = usage(COMMANDS);
        for c in COMMANDS {
            assert!(text.contains(c.name), "usage lacks {}: {text}", c.name);
        }
        for (flag, ..) in FLAGS {
            assert!(text.contains(flag), "usage lacks {flag}: {text}");
        }
    }

    #[test]
    fn run_args_streaming_flag_parses_and_hard_rejects_garbage() {
        // The timeline always streams: there is no analytics switch, so
        // every spelling of the old flag is a hard error rather than a
        // silently ignored word — bare, valued, or followed by a flag it
        // must not swallow.
        assert_eq!(try_args(&["timeline"]).unwrap().shards, 1);
        for cli in [
            &["timeline", "--streaming"][..],
            &["timeline", "--streaming", "--shards", "4"],
            &["timeline", "--streaming=false"],
            &["timeline", "--streaming=1"],
            &["timeline", "--streaming=maybe"],
        ] {
            let err = try_args(cli).unwrap_err();
            assert!(err.contains("unknown flag \"--streaming"), "{cli:?}: {err}");
        }
    }

    #[test]
    fn run_args_reject_zero_shards_and_negative_days() {
        // `--shards 0` is a structural impossibility: hard error, not a
        // silent clamp.
        let err = try_args(&["timeline", "--shards", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "unclear error: {err}");
        let err = try_args(&["timeline", "--shards", "-2"]).unwrap_err();
        assert!(err.contains("at least 1"), "unclear error: {err}");
        assert!(err.contains("-2"), "error must echo the value: {err}");

        // Negative day spans are impossible worlds.
        let err = try_args(&["timeline", "--days", "-5"]).unwrap_err();
        assert!(err.contains("non-negative"), "unclear error: {err}");
        assert!(err.contains("-5"), "error must echo the value: {err}");
        let err = try_args(&["timeline", "--days=-5x"]).unwrap_err();
        assert!(err.contains("non-negative"), "unclear error: {err}");
        let err = try_args(&["timeline", "--days", "soon"]).unwrap_err();
        assert!(err.contains("soon"), "error must echo the value: {err}");

        // Nearby valid values still parse.
        assert_eq!(try_args(&["timeline", "--shards", "1"]).unwrap().shards, 1);
        assert_eq!(try_args(&["timeline", "--days", "0"]).unwrap().days(30), 0);
    }

    #[test]
    fn run_args_transport_accepts_backends_and_hard_rejects_garbage() {
        assert_eq!(
            try_args(&["timeline"]).unwrap().transport,
            TransportKind::Threads
        );
        let a = try_args(&["timeline", "--transport", "process"]).unwrap();
        assert_eq!(a.transport, TransportKind::Process);
        let a = try_args(&["timeline", "--transport=threads"]).unwrap();
        assert_eq!(a.transport, TransportKind::Threads);

        // A typo must not silently gate the default backend.
        for bad in ["proces", "Threads", "sockets"] {
            let err = try_args(&["timeline", "--transport", bad]).unwrap_err();
            assert!(err.contains("--transport"), "unclear: {err}");
            assert!(err.contains(bad), "error must echo the value: {err}");
        }
    }

    #[test]
    fn volunteer_origins_are_distinct() {
        let origins = volunteer_origins("v", 17, 1.5);
        let mut domains: Vec<_> = origins.iter().map(|o| o.domain.clone()).collect();
        domains.sort();
        domains.dedup();
        assert_eq!(domains.len(), 17);
    }
}

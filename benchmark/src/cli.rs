//! Argument parsing for the binary's commands and child roles.

use crate::spec::{self, Workload};

const VALUE_FLAGS: [&str; 8] = [
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--reps",
    "--shards",
    "--transport",
    "--samples",
];
const PRESENCE_FLAGS: [&str; 3] = ["--quick", "--traced", "--pinned"];

/// Parsed `--flag value` pairs and presence flags. Unknown flags and
/// malformed values are errors: a run that silently ignored one would
/// report numbers for an experiment nobody asked for.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Flags {
    values: Vec<(String, String)>,
    present: Vec<String>,
}

impl Flags {
    /// Parse an argument list (without the program name or command).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if PRESENCE_FLAGS.contains(&arg.as_str()) {
                flags.present.push(arg);
            } else if VALUE_FLAGS.contains(&arg.as_str()) {
                let value = it.next().ok_or(format!("{arg} needs a value"))?;
                flags.values.push((arg, value));
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(flags)
    }

    /// Whether a presence flag was given.
    pub fn has(&self, flag: &str) -> bool {
        self.present.iter().any(|f| f == flag)
    }

    /// The (last) value of a value flag.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// A value flag parsed as a number.
    pub fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: bad number {v:?}")))
            .transpose()
    }

    /// `--seed`, decimal or `0x…` hex; the bench crate's default seed
    /// when absent.
    pub fn seed(&self) -> Result<u64, String> {
        match self.value("--seed") {
            None => Ok(bench::DEFAULT_SEED),
            Some(v) => match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            }
            .map_err(|_| format!("--seed: bad number {v:?}")),
        }
    }

    /// `--workload`, resolved against the five names.
    pub fn workload(&self) -> Result<Option<Workload>, String> {
        self.value("--workload")
            .map(|name| {
                spec::workload(name).ok_or_else(|| {
                    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (one of {names:?})")
                })
            })
            .transpose()
    }

    /// The workloads a command runs: the named one, or all five.
    pub fn workloads(&self) -> Result<Vec<Workload>, String> {
        Ok(match self.workload()? {
            Some(w) => vec![w],
            None => spec::WORKLOADS.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_driver_contract_argument_list_parses() {
        let f = parse(&[
            "--workload",
            "stream_1m",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(f.workload().unwrap().unwrap().name, "stream_1m");
        assert_eq!(f.seed(), Ok(7));
        assert_eq!(f.number::<f64>("--seconds"), Ok(Some(10.0)));
        assert_eq!(f.value("--trace"), Some("0"));
        assert!(!f.has("--quick"));
    }

    #[test]
    fn seeds_read_as_decimal_or_hex_and_default_to_the_bench_seed() {
        assert_eq!(parse(&["--seed", "0x3039"]).unwrap().seed(), Ok(12345));
        assert_eq!(parse(&[]).unwrap().seed(), Ok(bench::DEFAULT_SEED));
        assert!(parse(&["--seed", "twelve"]).unwrap().seed().is_err());
    }

    #[test]
    fn unknown_flags_missing_values_and_unknown_workloads_are_errors() {
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--workload", "nope"]).unwrap().workload().is_err());
        assert_eq!(parse(&[]).unwrap().workloads().unwrap().len(), 5);
    }
}

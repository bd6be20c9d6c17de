#!/usr/bin/env bash
# Build the benchmark package (both binaries) and run it.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh run|trace|selfcheck [--seed S] [--reps R] [--workload W] [--quick]
#
# Builds from source every time (a no-op when nothing changed), into
# $CARGO_TARGET_DIR if set and benchmark/target otherwise, so nothing
# pre-built is ever needed. Fails, printing no result, when the crates
# the benchmark measures are not there to build against.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins
exec "$target/release/encore-benchmark" "$@"

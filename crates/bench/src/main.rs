//! `bench <command> [flags]` — every experiment of the reproduction
//! behind one dispatcher and one [`RunArgs`] parse (`bench` with no
//! arguments prints the commands and flags).
//!
//! The binary is also its own shard worker: the process transport
//! re-executes it (`std::env::current_exe()`) with one argument, the
//! worker role, and `worker_main` speaks the frame protocol for a
//! `population::Scenario` — what every command and simcheck send. A
//! worker reads its scenario and job from stdin, streams its shard back
//! over stdout, and exits 0 — or writes an ERROR frame and exits 1.

#![forbid(unsafe_code)]

mod commands;

use bench::fixtures::RunArgs;
use bench::specs::SHARD_ROLE;
use population::{worker_main, Scenario};

fn main() {
    if std::env::args().nth(1).as_deref() == Some(SHARD_ROLE) {
        std::process::exit(worker_main::<Scenario>());
    }
    let (command, args) = RunArgs::parse(commands::COMMANDS);
    (command.run)(&args);
}

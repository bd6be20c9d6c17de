//! The end-to-end binary: system allocator, no unsafe code. Every
//! end-to-end number is measured in this binary.

#![forbid(unsafe_code)]

fn main() -> std::process::ExitCode {
    encore_benchmark::app::main(None)
}

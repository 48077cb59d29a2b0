//! `cargo xtask bench-e2e` — the paper-model TPC-W harness: the
//! saturation sweep and the larger-than-memory cell.
//!
//! A thin wrapper over the `bench_e2e` binary in dmv-bench so the repo
//! has one entry point for `BENCH_e2e.json`:
//!
//! ```text
//! cargo xtask bench-e2e                 # both cells, writes BENCH_e2e.json
//! cargo xtask bench-e2e --smoke         # seconds-long CI sanity run
//! cargo xtask bench-e2e --out f.json    # alternate output path
//! ```
//!
//! All arguments are forwarded verbatim.

use std::process::{Command, ExitCode};

/// Builds (release) and runs `bench_e2e` with the given arguments.
pub fn run(args: &[String]) -> ExitCode {
    let status = Command::new(env!("CARGO"))
        .args(["run", "--release", "-q", "-p", "dmv-bench", "--bin", "bench_e2e", "--"])
        .args(args)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("failed to launch bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

//! Repo automation entry point: `cargo xtask <task>`.
//!
//! ```text
//! cargo xtask lint                    the repo-specific lint pass
//! cargo xtask dst --seeds 100         explore 100 random fault schedules
//! cargo xtask dst --seed 7            one verbose run
//! cargo xtask dst --repro f.repro     replay a persisted failure
//! cargo xtask figs [figure…]          the paper's figures; see dmv-bench's `figs`
//! cargo xtask figs --smoke            the seconds-long CI cells
//! ```
//!
//! `dst` and `figs` build their binary in release mode and forward every
//! argument verbatim.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

mod lint;

use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let task = args.next();
    let rest: Vec<String> = args.collect();
    match task.as_deref() {
        Some("lint") => lint::run(&rest),
        Some("dst") => run_release(&["-p", "dmv-dst"], &rest),
        Some("figs") => run_release(&["-p", "dmv-bench", "--bin", "figs"], &rest),
        Some(other) => {
            eprintln!("unknown task `{other}`; available tasks: lint, dst, figs");
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: cargo xtask <task>\n\ntasks:\n  lint  run the repo-specific lint pass\n  dst   run the deterministic fault-schedule explorer\n  figs  regenerate the paper's figures into BENCH_figs.json"
            );
            ExitCode::FAILURE
        }
    }
}

/// Builds (release) and runs the binary `target` names with `args`.
fn run_release(target: &[&str], args: &[String]) -> ExitCode {
    let status = Command::new(env!("CARGO"))
        .args(["run", "--release", "-q"])
        .args(target)
        .arg("--")
        .args(args)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("failed to launch {}: {e}", target.join(" "));
            ExitCode::FAILURE
        }
    }
}

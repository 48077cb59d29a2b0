//! `figs` — regenerates the paper's figures (`cargo xtask figs`).
//!
//! ```text
//! cargo xtask figs            every figure; writes BENCH_figs.json
//! cargo xtask figs F5 T1      the named figures; writes target/figs.json
//! cargo xtask figs --smoke    the MvccCow saturation and ltm cells and the
//!                             DMV stale fail-over at smoke size; writes
//!                             target/figs.json
//! ```
//!
//! Figure ids: F3…F9, T1 (§6.1 abort rates), saturation, ltm. Prints
//! every row and verdict, and exits non-zero when a verdict fails.

use dmv_bench::figs::{self, Figure};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let picked: Vec<&String> = args.iter().filter(|a| *a != "--smoke").collect();
    let known = |name: &str| figs::ALL.iter().any(|(id, _)| id.eq_ignore_ascii_case(name));
    if let Some(bad) = picked.iter().find(|a| smoke || !known(a)) {
        let ids: Vec<&str> = figs::ALL.iter().map(|(id, _)| *id).collect();
        eprintln!("figs: unexpected `{bad}`; usage: figs [--smoke | {}…]", ids.join("|"));
        return ExitCode::FAILURE;
    }

    let figures: Vec<Figure> = if smoke {
        figs::smoke()
    } else {
        figs::ALL
            .iter()
            .filter(|(id, _)| {
                picked.is_empty() || picked.iter().any(|p| id.eq_ignore_ascii_case(p))
            })
            .map(|(_, run)| run())
            .collect()
    };

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("crates/bench");
    let path = if smoke || !picked.is_empty() {
        root.join("target/figs.json")
    } else {
        root.join("BENCH_figs.json")
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::fs::create_dir_all(path.parent().expect("the output path has a directory"))
        .and_then(|()| std::fs::write(&path, figs::to_json(&figures, cores)))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));

    println!("\n--- verdicts ---");
    for f in &figures {
        let passed = f.verdicts.iter().filter(|v| v.pass).count();
        let status = if f.passed() { "PASS" } else { "FAIL" };
        println!("  {:<10} {status}  {passed}/{} verdicts", f.id, f.verdicts.len());
    }
    println!("wrote {}", path.display());
    if figures.iter().all(Figure::passed) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

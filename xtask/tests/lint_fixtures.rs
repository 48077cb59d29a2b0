//! Integration tests for `xtask lint`, run against the synthetic
//! fixtures under `tests/fixtures/`. The bad fixture must trip every
//! rule (non-zero exit); the clean fixture must pass.

use std::process::Command;

fn run_lint(fixture: &str) -> std::process::Output {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/");
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root", &format!("{root}{fixture}")])
        .output()
        .expect("spawn xtask lint")
}

#[test]
fn bad_fixture_trips_every_rule() {
    let out = run_lint("bad");
    assert!(!out.status.success(), "lint must exit non-zero on the violation fixture");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for rule in [
        "relaxed-justify",
        "wall-clock",
        "rng-sources",
        "hotpath-locks",
        "no-unwrap",
        "modeled-wait",
        "wire-boundary",
        "lock-order",
        "wire-exhaustive",
        "design-inventory",
    ] {
        assert!(
            stderr.contains(&format!("[{rule}]")),
            "rule `{rule}` not reported; stderr:\n{stderr}"
        );
    }
}

#[test]
fn bad_fixture_skips_test_code() {
    let out = run_lint("bad");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The #[cfg(test)] module at the bottom repeats the Instant and
    // unwrap violations on lines 34+; none may be reported there.
    for line in stderr.lines().filter(|l| l.contains("crates/core/src/lib.rs")) {
        let lineno: usize = line
            .split(':')
            .nth(1)
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unparseable violation line: {line}"));
        assert!(lineno < 34, "violation reported inside test code: {line}");
    }
}

#[test]
fn bad_fixture_reports_the_unlisted_and_the_stale_module() {
    let out = run_lint("bad");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let inventory: Vec<&str> =
        stderr.lines().filter(|l| l.contains("[design-inventory]")).collect();
    assert_eq!(inventory.len(), 2, "one unlisted + one stale module expected; stderr:\n{stderr}");
    assert!(inventory.iter().any(|l| {
        l.starts_with("crates/common/src/lib.rs:5:") && l.contains("`pub mod stats`")
    }));
    assert!(inventory.iter().any(|l| l.starts_with("DESIGN.md:8:") && l.contains("`gate`")));
}

#[test]
fn bad_fixture_reports_every_sleep_outside_clock_and_every_unnamed_wait() {
    let out = run_lint("bad");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for site in
        ["crates/core/src/lib.rs:30:", "crates/dst/src/lib.rs:8:", "crates/net/src/lib.rs:5:"]
    {
        assert!(
            stderr.lines().any(|l| l.starts_with(site) && l.contains("[modeled-wait]")),
            "no modeled-wait report at {site}; stderr:\n{stderr}"
        );
    }
}

#[test]
fn clean_fixture_passes() {
    let out = run_lint("clean");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "clean fixture must lint clean; stderr:\n{stderr}");
}

#[test]
fn unknown_argument_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--bogus"])
        .output()
        .expect("spawn xtask lint");
    assert!(!out.status.success());
}

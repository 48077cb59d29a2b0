//! `dmv_benchmark` — the repository benchmark.
//!
//! Deploys a real `DmvCluster` (simnet fabric, MvccCow, small TPC-W
//! scale, CPU model off so real CPU is the CPU), drives it closed-loop
//! at zero think time, prints every metric by name and unit and checks
//! the outputs. See `README.md` next to this file for the workloads,
//! the metric glossary and how the layers are expected to move the
//! end-to-end numbers.
//!
//! ```text
//! dmv_benchmark --workload W --seed N --seconds S --trace 0|1   one run, result as the last line (JSON)
//! dmv_benchmark [--seed N] [--seconds S] [--trace] [--probes]    every workload, human-readable
//! dmv_benchmark --aa N [--workload W]                            N alternating repeats, spread vs bound
//! dmv_benchmark --smoke                                          2 s per workload, checks only
//! dmv_benchmark --manifest                                       print BENCHMARK.json
//! ```

mod metrics;
mod probes;
mod procfs;
mod stats;
mod trace;
mod workload;

use metrics::{Values, END_TO_END};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use workload::{Workload, SETUP_REPEATS, WORKLOADS};

/// Seconds one run measures; `BENCHMARK.json` carries the same number.
const RUN_SECONDS: u64 = 20;
const DEFAULT_SEED: u64 = 20_070_625;

#[derive(Debug)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    probes: bool,
    aa: Option<usize>,
    smoke: bool,
    manifest: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        probes: false,
        aa: None,
        smoke: false,
        manifest: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload = Some(workload::workload(name).ok_or(format!(
                    "unknown workload {name}; one of {}",
                    WORKLOADS.map(|w| w.name).join(", ")
                ))?);
            }
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--aa" => a.aa = Some(value("a count")?.parse().map_err(|e| format!("--aa: {e}"))?),
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--probes" => a.probes = true,
            "--smoke" => a.smoke = true,
            "--manifest" => a.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// nproc, compiler and revision, printed with every result: a number
/// means nothing without the host it was taken on.
fn host_line() -> String {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "host: nproc {}, {}, git {}",
        workload::nproc(),
        run("rustc", &["--version"]),
        run("git", &["rev-parse", "--short", "HEAD"])
    )
}

/// What one run of one workload produced.
struct Outcome {
    values: Values,
    attempted: usize,
    failed: usize,
    violations: Vec<String>,
    notes: Vec<String>,
}

impl Outcome {
    fn new(
        values: Values,
        data: &workload::RunData,
        violations: Vec<String>,
        notes: Vec<String>,
    ) -> Self {
        Outcome {
            values,
            attempted: data.samples.len(),
            failed: data.samples.iter().filter(|s| !s.ok).count(),
            violations,
            notes,
        }
    }

    fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One untraced run: set up, drive, check, report the end-to-end
/// metrics. The repeat set-ups behind `setup_s` come last, after the
/// measured cluster is gone and the memory peak is read, so they are in
/// neither.
fn run_untraced(w: &Workload, seed: u64, seconds: u64) -> Outcome {
    let dep = workload::deploy(w, false);
    let data = workload::run(&dep, w, seed, seconds, false);
    let mut violations = workload::verify(&dep, w, &data);
    let peak_rss_mb = procfs::peak_rss_mb();
    let mut notes =
        vec![metrics::sample_counts(&data), metrics::slice_summary(&data), residency_note(&dep)];
    let mut setups = vec![dep.setup_s];
    dep.cluster.shutdown();
    drop(dep);
    while setups.len() < SETUP_REPEATS {
        let again = workload::deploy(w, false);
        setups.push(again.setup_s);
        again.cluster.shutdown();
    }
    notes.push(format!("set-ups, s: {setups:?}"));
    let values = metrics::end_to_end(&data, stats::median(&setups), peak_rss_mb);
    violations.extend(metrics::unmeasured(&values));
    Outcome::new(values, &data, violations, notes)
}

fn residency_note(dep: &workload::Deployment) -> String {
    let pages = dep.working_set_pages;
    match dep.budget_pages {
        Some(budget) => format!("buffer budget {budget} of {pages} populated pages per node"),
        None => format!("buffer budget unbounded ({pages} populated pages per node)"),
    }
}

/// One traced run plus the probes: every per-layer metric.
fn run_traced(w: &Workload, seed: u64, seconds: u64, with_probes: bool) -> Outcome {
    let dep = workload::deploy(w, true);
    let data = workload::run(&dep, w, seed, seconds, true);
    let mut violations = workload::verify(&dep, w, &data);
    let mut values = metrics::traced_layers(&dep, &data);
    let mut notes = vec![metrics::sample_counts(&data), residency_note(&dep)];
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let path =
        std::path::Path::new(&dir).join("dmv_benchmark").join(format!("trace-{}.jsonl", w.name));
    match trace::write_jsonl(&path, &data.spans) {
        Ok(()) => notes.push(format!("{} spans written to {}", data.spans.len(), path.display())),
        Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
    }
    let mut table = String::from("self time, us per traced interaction:");
    for (name, us) in metrics::self_time_table(&data.spans) {
        let _ = write!(table, "\n    {name:<28} {us:>10.1}");
    }
    notes.push(table);
    let writesets = dep.traced.as_ref().map(|t| t.sampled_writesets()).unwrap_or_default();
    dep.cluster.shutdown();
    if with_probes {
        values.extend(probes::run_all(seed, &writesets));
        // The contract: a traced run reports every per-layer metric,
        // each as a number.
        for l in metrics::per_layer() {
            assert!(values.iter().any(|(n, _)| *n == l.name), "{} was not measured", l.name);
        }
        violations.extend(metrics::unmeasured(&values));
    }
    Outcome::new(values, &data, violations, notes)
}

/// Unit of every registered metric, by name.
fn units() -> HashMap<String, &'static str> {
    let e2e = END_TO_END.iter().map(|m| (m.name.to_owned(), m.unit));
    e2e.chain(metrics::per_layer().into_iter().map(|l| (l.name, l.unit))).collect()
}

/// Each value with its registered unit; a value nobody registered is a bug.
fn with_units(values: &Values) -> Vec<(&str, f64, &'static str)> {
    let units = units();
    values
        .iter()
        .map(|(n, v)| {
            let unit = units.get(n).unwrap_or_else(|| panic!("metric {n} is not in the registry"));
            (n.as_str(), *v, *unit)
        })
        .collect()
}

/// A JSON number with all its digits (no exponent form). A value that
/// could not be measured is `null`, never a made-up number; a run that
/// owes the value fails its checks (see [`metrics::unmeasured`]).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The contract's result line.
fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = with_units(&o.values)
        .into_iter()
        .map(|(n, v, unit)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(v)))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn print_outcome(w: &Workload, o: &Outcome) {
    for (name, v, unit) in with_units(&o.values) {
        println!("  {name:<44} {:>14} {unit}", num(v));
    }
    for n in &o.notes {
        println!("  {n}");
    }
    println!("  attempted {} failed {}", o.attempted, o.failed);
    for v in &o.violations {
        println!("  CHECK FAILED [{}]: {v}", w.name);
    }
    if o.correct() {
        println!("  checks passed [{}]", w.name);
    }
}

/// `BENCHMARK.json`, generated from the registry so names, units and
/// bounds cannot drift from the code that measures them.
fn manifest() -> String {
    let q = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = metrics::per_layer()
        .iter()
        .map(|l| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(&l.name),
                q(l.unit),
                q(l.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"examples/dmv_benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"examples/dmv_benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// `--aa N`: N alternating repeats of each workload; per metric the
/// median, quartiles and spread over all repeats, and the shift between
/// the medians of the even and the odd repeats (two interleaved sets of
/// the same code). Fails if a spread or a shift exceeds the bound.
fn aa(ws: &[&'static Workload], repeats: usize, seed: u64, seconds: u64) -> bool {
    let mut runs: Vec<Vec<Values>> = vec![Vec::new(); ws.len()];
    let mut ok = true;
    for rep in 0..repeats {
        // Alternate the order so no workload always runs on a warm host.
        let order: Vec<usize> =
            if rep % 2 == 0 { (0..ws.len()).collect() } else { (0..ws.len()).rev().collect() };
        for i in order {
            let o = run_untraced(ws[i], seed + rep as u64, seconds);
            println!("rep {rep} {}: {}", ws[i].name, result_json(&o));
            ok &= o.correct();
            runs[i].push(o.values);
        }
    }
    println!(
        "\n{:<14} {:<16} {:>11} {:>11} {:>11} {:>8} {:>8} {:>7}",
        "workload", "metric", "q1", "median", "q3", "spread", "a/b", "bound"
    );
    for (w, reps) in ws.iter().zip(&runs) {
        for m in &END_TO_END {
            let series: Vec<f64> = reps
                .iter()
                .map(|v| v.iter().find(|(n, _)| n == m.name).map_or(0.0, |(_, x)| *x))
                .collect();
            let Some([q1, q2, q3]) = stats::quartiles(&series) else { continue };
            let spread = stats::spread(&series).unwrap_or(f64::INFINITY);
            let set = |parity: usize| -> Vec<f64> {
                series
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 2 == parity)
                    .map(|(_, x)| *x)
                    .collect()
            };
            let (a, b) = (stats::median(&set(0)), stats::median(&set(1)));
            let worse = if m.better == "lower" { (b - a) / a } else { (a - b) / a };
            // Set-up time is judged on its medians only: the contract
            // exempts its spread, and so does this check.
            let bad = (spread > m.bound && m.name != "setup_s") || worse.abs() > m.bound;
            ok &= !bad;
            println!(
                "{:<14} {:<16} {:>11.4} {:>11.4} {:>11.4} {:>7.1}% {:>+7.1}% {:>6.0}%{}",
                w.name,
                m.name,
                q1,
                q2,
                q3,
                spread * 100.0,
                worse * 100.0,
                m.bound * 100.0,
                if bad { "  EXCEEDED" } else { "" }
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dmv_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        println!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    println!("{}", host_line());
    println!("{}", workload::settings_line());
    if args.workload.is_none() {
        for m in &END_TO_END {
            println!(
                "  {:<16} [{}, {} is better, bound {:.0}%] {}",
                m.name,
                m.unit,
                m.better,
                m.bound * 100.0,
                m.what
            );
        }
    }
    let selected: Vec<&'static Workload> =
        args.workload.map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w]);
    let seconds = if args.smoke { 2 } else { args.seconds };
    // A workload run with fewer clients than it names is another
    // workload under the same name: refuse, do not clamp.
    if let Some(w) = selected.iter().find(|w| w.clients > workload::nproc()) {
        eprintln!(
            "dmv_benchmark: {} drives {} client threads but this host has {} cores",
            w.name,
            w.clients,
            workload::nproc()
        );
        return ExitCode::from(2);
    }

    if let Some(repeats) = args.aa {
        return if aa(&selected, repeats.max(2), args.seed, seconds) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // The driver's form: one workload, result as the last line.
    if let (Some(w), false) = (args.workload, args.smoke) {
        println!("workload {}: {}", w.name, w.why);
        let o = if args.trace {
            run_traced(w, args.seed, seconds, true)
        } else {
            run_untraced(w, args.seed, seconds)
        };
        print_outcome(w, &o);
        println!("{}", result_json(&o));
        return if o.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let mut ok = true;
    for w in &selected {
        println!("\n== {} — {}", w.name, w.why);
        let o = run_untraced(w, args.seed, seconds);
        ok &= o.correct();
        if args.smoke {
            println!("  {}", if o.correct() { "checks passed" } else { "CHECKS FAILED" });
            o.violations.iter().for_each(|v| println!("  {v}"));
            continue;
        }
        print_outcome(w, &o);
        if args.trace || args.probes {
            // Probes take their write-sets from the traced `order` run.
            let probes_here = args.probes && w.name == "order";
            println!("-- traced{}", if probes_here { " + probes" } else { "" });
            let t = run_traced(w, args.seed, seconds.min(10), probes_here);
            ok &= t.correct();
            print_outcome(w, &t);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args("--workload order_ltm --seed 7 --seconds 9 --trace 1").unwrap();
        assert_eq!(a.workload.unwrap().name, "order_ltm");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 9, true));
        let a = args("--workload browse --seed 1 --seconds 12 --trace 0").unwrap();
        assert!(!a.trace);
        // The issue's bare flags.
        let a = args("--trace --probes --aa 3").unwrap();
        assert!(a.trace && a.probes && a.workload.is_none());
        assert_eq!((a.aa, a.seed, a.seconds), (Some(3), DEFAULT_SEED, RUN_SECONDS));
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--bogus").is_err());
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let o = Outcome {
            values: vec![("setup_s".into(), 1.5), ("txn_per_s".into(), f64::NAN)],
            attempted: 10,
            failed: 0,
            violations: Vec::new(),
            notes: Vec::new(),
        };
        assert_eq!(
            result_json(&o),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 1.5, \"unit\": \"s\"}, \"txn_per_s\": {\"value\": null, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn manifest_lists_every_workload_and_metric_once() {
        let m = manifest();
        assert!(m.len() < 64 * 1024);
        for w in &WORKLOADS {
            assert_eq!(m.matches(&format!("\"name\": \"{}\"", w.name)).count(), 1, "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for e in &END_TO_END {
            assert_eq!(m.matches(&format!("\"name\": \"{}\"", e.name)).count(), 1, "{}", e.name);
        }
        for l in metrics::per_layer() {
            assert_eq!(m.matches(&format!("\"name\": \"{}\"", l.name)).count(), 1, "{}", l.name);
        }
        assert!(m.contains("\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\""));
    }
}

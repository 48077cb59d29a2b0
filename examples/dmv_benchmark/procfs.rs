//! Process and per-thread CPU time and peak memory, read from `/proc`.
//! Linux only; parsing is split from file access so it is unit-tested
//! on literal input.

use std::collections::BTreeMap;
use std::fs;

/// `USER_HZ`: the unit of the `utime`/`stime` fields. Fixed at 100 on
/// every Linux ABI this benchmark targets (sysconf is not reachable
/// without libc).
const TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of a `stat` file. The
/// command name (field 2) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value of a `kB` line (`VmHWM`, `VmRSS`, ...) of a `status` file.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.strip_prefix(key).is_some_and(|r| r.starts_with(':')))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// The group a thread's CPU is reported under, from its `comm`
/// (the kernel truncates names to 15 bytes, so prefixes decide).
pub fn thread_group(comm: &str) -> &'static str {
    let comm = comm.trim_end();
    if comm.starts_with("bench-client") {
        "client"
    } else if comm.starts_with("replica-") {
        "replica"
    } else if comm == "dmv-gc" {
        "gc"
    } else {
        "other"
    }
}

/// CPU milliseconds the whole process has consumed so far.
pub fn process_cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_stat_ticks(&stat).expect("parse /proc/self/stat");
    ticks as f64 * 1000.0 / TICKS_PER_SEC
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kb(&status, "VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// CPU milliseconds per thread group (see [`thread_group`]) consumed so
/// far by the threads alive now. Threads that exit between the listing
/// and the read are skipped.
pub fn thread_cpu_ms() -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return out };
    for task in tasks.flatten() {
        let dir = task.path();
        let (Ok(comm), Ok(stat)) =
            (fs::read_to_string(dir.join("comm")), fs::read_to_string(dir.join("stat")))
        else {
            continue;
        };
        if let Some(ticks) = parse_stat_ticks(&stat) {
            *out.entry(thread_group(&comm)).or_insert(0.0) += ticks as f64 * 1000.0 / TICKS_PER_SEC;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_hostile_comm() {
        let plain = "4242 (dmv_benchmark) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                     137 21 0 0 20 0 7 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_ticks(plain), Some(158));
        // A comm with spaces and a closing parenthesis must not shift fields.
        let hostile = "7 (a b) c) R 1 7 7 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 1 1 1 1";
        assert_eq!(parse_stat_ticks(hostile), Some(11));
        assert_eq!(parse_stat_ticks("garbage"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_kb_lines() {
        let status =
            "Name:\tdmv_benchmark\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(51200));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(40000));
        assert_eq!(parse_status_kb(status, "Vm"), None);
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn comm_names_map_to_groups() {
        // `comm` files end in a newline and are cut at 15 bytes.
        assert_eq!(thread_group("bench-client-0\n"), "client");
        assert_eq!(thread_group("replica-n10\n"), "replica");
        assert_eq!(thread_group("dmv-gc\n"), "gc");
        assert_eq!(thread_group("dmv-monitor\n"), "other");
        assert_eq!(thread_group("dmv_benchmark\n"), "other");
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(process_cpu_ms() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(thread_cpu_ms().values().sum::<f64>() >= 0.0);
    }
}

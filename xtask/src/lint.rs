//! The repo-specific lint pass: `cargo xtask lint`.
//!
//! A dependency-free, line/token-based scanner enforcing invariants the
//! compiler cannot see. It walks every `crates/*/src/**/*.rs` file
//! (vendor shims and this binary are exempt) and checks:
//!
//! * **relaxed-justify** — every `Ordering::Relaxed` carries a
//!   `// relaxed-ok: <why>` justification on the same or previous line.
//!   Relaxed is correct only for values nothing else is ordered
//!   against (counters, IDs, load hints); the comment is the proof
//!   obligation.
//! * **wall-clock** — `std::time::Instant` / `SystemTime` only inside
//!   `crates/common/src/clock.rs` (plus the dmv-check shim layer that
//!   mirrors parking_lot's deadline API). All other code goes through
//!   `SimClock`/`wall_now`, keeping simnet time-scaling intact.
//! * **rng-sources** — `thread_rng` / `rand::random` only inside
//!   `crates/common/src/rng.rs`; everything else derives from seeded
//!   streams so whole-cluster runs stay reproducible.
//! * **hotpath-locks** — no `std::sync::Mutex`/`RwLock` in the
//!   hot-path crates (core, common, pagestore): parking_lot (or the
//!   dmv-check shims) only.
//! * **no-unwrap** — no `.unwrap()` / `.expect(` in non-test code of
//!   core/memdb/pagestore; `// unwrap-ok: <why>` documents the
//!   invariant where a panic truly cannot fire.
//! * **modeled-wait** — `thread::sleep` only inside
//!   `crates/common/src/clock.rs`: every other sleep goes through
//!   `clock::sleep_wall` / `sleep_until` / `SimClock::sleep_paper`, so one
//!   module owns how a thread waits out time (and its timer slack). In
//!   non-test code of core/net/memdb/pagestore each of those calls carries
//!   a `// wait-ok: <what the model waits for>`: every sleep on a
//!   transaction's path must be a delay the cost model asks for, paid
//!   once — not a stall per message or per step.
//! * **wire-boundary** — raw sockets (`std::net`, `TcpStream`,
//!   `TcpListener`, `UdpSocket`) only inside `crates/net/`. Everything
//!   else talks through the `Transport` trait, so cluster code stays
//!   runnable on simnet and real TCP alike.
//! * **lock-order** — nested lock acquisitions must agree with the
//!   hierarchy declared in `xtask/lock_order.toml`. The scanner tracks
//!   `let g = x.lock()` / `drop(g)` / scope exit per function, so only
//!   genuinely-overlapping holds are compared.
//! * **wire-exhaustive** — every variant of `Msg`
//!   (`crates/core/src/messages.rs`) must appear in the round-trip
//!   suite `crates/core/tests/wire_roundtrip.rs`; a codec case that is
//!   never round-tripped is exactly the one that breaks on the wire.
//! * **design-inventory** — every `pub mod` of a `crates/<dir>/src/lib.rs`
//!   is named on the `modules:` list of `<dir>/`'s entry in DESIGN.md's
//!   "Workspace inventory", and the list names no module that is gone:
//!   the inventory is the map a newcomer reads first, and a stale line
//!   in it (a module deleted long ago, say) outlives every grep.
//!
//! Most rules apply only to `crates/*/src` library code, and within a
//! src file everything from the first `#[cfg(test)]` line onward is
//! ignored (repo convention keeps test modules at the bottom of the
//! file): integration tests and benches may use wall clocks, ambient
//! RNG and unwrap freely. **relaxed-justify is the exception** — it
//! audits the full tree (root `src`/`tests`/`examples`/`benches`,
//! crate test dirs, and `xtask/src`), because an unjustified `Relaxed`
//! in a test can hide the very reordering the test exists to catch.
//! Files whose entire purpose is deliberately-relaxed code (the litmus
//! suite, the race-mutation corpus) are exempt via
//! [`RELAXED_CORPUS_EXEMPT`].
//!
//! Escape hatches (`relaxed-ok:`, `wall-clock-ok:`, `rng-ok:`,
//! `unwrap-ok:`, `wait-ok:`, `wire-boundary-ok:`, `lock-order-ok:`,
//! `wire-exhaustive-ok:`) take effect on the violating line or the
//! line directly above it, and are themselves grep-able audit
//! points.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files allowed to name `Instant`/`SystemTime` directly.
const WALL_CLOCK_ALLOWED: &[&str] = &["crates/common/src/clock.rs", "crates/check/src/sync.rs"];

/// Files allowed to reach for ambient randomness.
const RNG_ALLOWED: &[&str] = &["crates/common/src/rng.rs"];

/// Crates whose hot paths must not use std's poisoning locks.
const HOTPATH_CRATES: &[&str] =
    &["crates/core/", "crates/common/", "crates/pagestore/", "crates/epoch/"];

/// Crates whose non-test code must not panic via unwrap/expect.
const NO_UNWRAP_CRATES: &[&str] =
    &["crates/core/", "crates/memdb/", "crates/pagestore/", "crates/epoch/"];

/// The one file allowed to call `thread::sleep`.
const SLEEP_ALLOWED: &str = "crates/common/src/clock.rs";

/// Crates on a transaction's path, where every sleep must name the
/// modeled delay it pays.
const MODELED_WAIT_CRATES: &[&str] =
    &["crates/core/", "crates/net/", "crates/memdb/", "crates/pagestore/"];

/// Calls of the sleeps `clock.rs` offers.
const CLOCK_SLEEPS: &[&str] = &["sleep_paper(", "sleep_wall(", "sleep_until("];

/// The one crate allowed to open raw sockets; everyone else goes
/// through the `Transport` trait.
const WIRE_BOUNDARY_ALLOWED_PREFIX: &str = "crates/net/";

/// Socket type names that mark a wire-boundary violation outside
/// `crates/net/` (matched as whole words; `std::net` is matched as a
/// path substring).
const SOCKET_TYPES: &[&str] = &["TcpStream", "TcpListener", "UdpSocket"];

/// Files that exist to write deliberately-unsynchronized code: the
/// model-checker litmus suite and the race-detector mutation corpus.
/// Annotating their `Relaxed` sites `relaxed-ok:` would be a lie — the
/// relaxed misuse is the test payload — so they are exempt wholesale.
const RELAXED_CORPUS_EXEMPT: &[&str] =
    &["crates/check/tests/litmus.rs", "crates/check/tests/race_mutations.rs"];

/// The enum whose variants the wire round-trip suite must cover, and
/// the suite that must cover them.
const WIRE_ENUM_FILE: &str = "crates/core/src/messages.rs";
const WIRE_ROUNDTRIP_FILE: &str = "crates/core/tests/wire_roundtrip.rs";

/// The document, and the section of it, that must name every public
/// module of every workspace crate.
const DESIGN_FILE: &str = "DESIGN.md";
const INVENTORY_HEADING: &str = "## Workspace inventory";

#[derive(Debug)]
struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

pub fn run(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(p) => root = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("lint: --root needs a path");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => {
                eprintln!("lint: unknown argument `{other}` (supported: --root <path>)");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let root = match root {
        Some(r) => r,
        None => match find_workspace_root() {
            Some(r) => r,
            None => {
                eprintln!("lint: could not locate workspace root (run from inside the repo)");
                return ExitCode::FAILURE;
            }
        },
    };

    let order = match LockOrder::load(&root.join("xtask/lock_order.toml")) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benches", "xtask/src"] {
        collect_rs_files(&root.join(dir), &mut files);
    }
    files.sort();

    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let rel = path.strip_prefix(&root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        // Library/binary sources get every rule; test, bench, example
        // and tooling code gets only the full-tree relaxed audit (wall
        // clocks, ambient RNG and unwrap are fine there).
        let full = rel.starts_with("crates/") && rel.contains("/src/");
        if !full && RELAXED_CORPUS_EXEMPT.contains(&rel.as_str()) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(path) else {
            eprintln!("lint: unreadable file {rel}");
            return ExitCode::FAILURE;
        };
        scanned += 1;
        if full {
            lint_file(&rel, &text, &order, &mut violations);
        } else {
            lint_relaxed_only(&rel, &text, &mut violations);
        }
    }

    check_wire_exhaustive(&root, &mut violations);
    check_design_inventory(&root, &mut violations);

    if violations.is_empty() {
        println!("lint: {scanned} files clean");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("lint: {} violation(s) in {} scanned file(s)", violations.len(), scanned);
        ExitCode::FAILURE
    }
}

/// Walks up from the current directory to the first `Cargo.toml`
/// declaring a `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// One source line split into its code and comment halves.
struct SplitLine<'a> {
    code: &'a str,
    comment: &'a str,
}

/// Naive `//` split — good enough for token scanning; `//` inside a
/// string literal would mis-split, which at worst suppresses a token on
/// that line.
fn split_comment(line: &str) -> SplitLine<'_> {
    match line.find("//") {
        Some(i) => SplitLine { code: &line[..i], comment: &line[i..] },
        None => SplitLine { code: line, comment: "" },
    }
}

/// True if `hay` contains `needle` as a whole word (no identifier
/// characters on either side), so `WallInstant` does not match
/// `Instant`.
fn contains_word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok =
            !hay[after..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Escape comments count on the flagged line or the line directly above.
fn escaped(lines: &[SplitLine<'_>], idx: usize, escape: &str) -> bool {
    lines[idx].comment.contains(escape) || (idx > 0 && lines[idx - 1].comment.contains(escape))
}

fn lint_file(rel: &str, text: &str, order: &LockOrder, out: &mut Vec<Violation>) {
    let raw: Vec<&str> = text.lines().collect();
    // Repo convention: test modules sit at the bottom of src files, so
    // everything from the first `#[cfg(test)]` on is test-only code.
    let cutoff =
        raw.iter().position(|l| l.trim_start().starts_with("#[cfg(test)]")).unwrap_or(raw.len());
    let lines: Vec<SplitLine<'_>> = raw[..cutoff].iter().map(|l| split_comment(l)).collect();

    let in_hotpath = HOTPATH_CRATES.iter().any(|c| rel.starts_with(c));
    let no_unwrap = NO_UNWRAP_CRATES.iter().any(|c| rel.starts_with(c));
    let modeled_wait = MODELED_WAIT_CRATES.iter().any(|c| rel.starts_with(c));
    let wall_allowed = WALL_CLOCK_ALLOWED.contains(&rel);
    let rng_allowed = RNG_ALLOWED.contains(&rel);
    let sockets_allowed = rel.starts_with(WIRE_BOUNDARY_ALLOWED_PREFIX);

    let mut push = |line: usize, rule: &'static str, message: String| {
        out.push(Violation { file: rel.to_string(), line: line + 1, rule, message });
    };

    for (i, l) in lines.iter().enumerate() {
        if relaxed_violation(&lines, i) {
            push(i, "relaxed-justify", RELAXED_MSG.to_string());
        }
        if !wall_allowed
            && (contains_word(l.code, "Instant") || contains_word(l.code, "SystemTime"))
            && !escaped(&lines, i, "wall-clock-ok:")
        {
            push(
                i,
                "wall-clock",
                "direct Instant/SystemTime use outside clock.rs — go through \
                 SimClock or clock::wall_now()/wall_deadline() (simnet determinism)"
                    .to_string(),
            );
        }
        if !rng_allowed
            && (contains_word(l.code, "thread_rng") || l.code.contains("rand::random"))
            && !escaped(&lines, i, "rng-ok:")
        {
            push(
                i,
                "rng-sources",
                "ambient randomness outside rng.rs — derive a seeded stream \
                 via dmv_common::rng so runs stay reproducible"
                    .to_string(),
            );
        }
        if rel != SLEEP_ALLOWED && l.code.contains("thread::sleep") {
            push(
                i,
                "modeled-wait",
                "thread::sleep outside clock.rs — sleep through dmv_common::clock \
                 (sleep_wall, sleep_until or SimClock::sleep_paper)"
                    .to_string(),
            );
        } else if modeled_wait
            && CLOCK_SLEEPS.iter().any(|s| l.code.contains(s))
            && !escaped(&lines, i, "wait-ok:")
        {
            push(
                i,
                "modeled-wait",
                "sleep without a `wait-ok:` naming the modeled delay it pays — \
                 stamp a deadline or merge it into an existing wait instead"
                    .to_string(),
            );
        }
        if !sockets_allowed
            && (l.code.contains("std::net")
                || SOCKET_TYPES.iter().any(|t| contains_word(l.code, t)))
            && !escaped(&lines, i, "wire-boundary-ok:")
        {
            push(
                i,
                "wire-boundary",
                "raw socket use outside crates/net — go through the \
                 dmv_net::Transport trait so the code runs on simnet too"
                    .to_string(),
            );
        }
        if in_hotpath
            && l.code.contains("std::sync::")
            && (l.code.contains("Mutex") || l.code.contains("RwLock"))
        {
            push(
                i,
                "hotpath-locks",
                "std::sync::Mutex/RwLock in a hot-path crate — use parking_lot \
                 or the dmv_check::sync shims (no poisoning, no std contention)"
                    .to_string(),
            );
        }
        if no_unwrap
            && (l.code.contains(".unwrap()") || l.code.contains(".expect("))
            && !escaped(&lines, i, "unwrap-ok:")
        {
            push(
                i,
                "no-unwrap",
                "unwrap/expect in non-test hot-path code — return a DmvResult, \
                 or document the invariant with `unwrap-ok:`"
                    .to_string(),
            );
        }
    }

    check_lock_order(rel, &lines, order, out);
}

// ------------------------------------------------- full-tree relaxed audit

// relaxed-ok: rule message text, not an atomic access
const RELAXED_MSG: &str = "Ordering::Relaxed without a `relaxed-ok:` justification — \
     state why nothing is ordered against this value, or use Acquire/Release";

/// True if line `idx` uses `Ordering::Relaxed` in code without an
/// escape on the same or previous line.
fn relaxed_violation(lines: &[SplitLine<'_>], idx: usize) -> bool {
    // relaxed-ok: the audit's grep token, not an atomic access
    lines[idx].code.contains("Ordering::Relaxed") && !escaped(lines, idx, "relaxed-ok:")
}

/// The relaxed-justify audit alone, applied to the whole file (no
/// `#[cfg(test)]` cutoff): test, bench, example and tooling code.
fn lint_relaxed_only(rel: &str, text: &str, out: &mut Vec<Violation>) {
    let lines: Vec<SplitLine<'_>> = text.lines().map(split_comment).collect();
    for i in 0..lines.len() {
        if relaxed_violation(&lines, i) {
            out.push(Violation {
                file: rel.to_string(),
                line: i + 1,
                rule: "relaxed-justify",
                message: RELAXED_MSG.to_string(),
            });
        }
    }
}

// ---------------------------------------------------- wire exhaustiveness

/// Every `Msg` variant must appear (as a whole word, in code) in the
/// wire round-trip suite. A variant the suite never encodes/decodes is
/// the one whose codec silently drifts.
fn check_wire_exhaustive(root: &Path, out: &mut Vec<Violation>) {
    let Ok(enum_text) = std::fs::read_to_string(root.join(WIRE_ENUM_FILE)) else {
        // No wire enum in this tree (e.g. a lint fixture without one):
        // nothing to check.
        return;
    };
    let roundtrip = std::fs::read_to_string(root.join(WIRE_ROUNDTRIP_FILE)).unwrap_or_default();
    let rt_code: Vec<SplitLine<'_>> = roundtrip.lines().map(split_comment).collect();
    let covered = |variant: &str| rt_code.iter().any(|l| contains_word(l.code, variant));

    let lines: Vec<SplitLine<'_>> = enum_text.lines().map(split_comment).collect();
    let mut in_enum = false;
    let mut depth = 0i32;
    for (i, l) in lines.iter().enumerate() {
        let code = l.code;
        if !in_enum {
            if contains_word(code, "enum") && contains_word(code, "Msg") {
                in_enum = true;
                depth = 0;
            } else {
                continue;
            }
        } else if depth == 1 {
            // A variant line: a leading capitalized identifier
            // (attributes start with `#`, doc comments have no code).
            let ident: String = code
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if ident.chars().next().is_some_and(char::is_uppercase)
                && !covered(&ident)
                && !escaped(&lines, i, "wire-exhaustive-ok:")
            {
                out.push(Violation {
                    file: WIRE_ENUM_FILE.to_string(),
                    line: i + 1,
                    rule: "wire-exhaustive",
                    message: format!(
                        "`Msg::{ident}` has no round-trip case in {WIRE_ROUNDTRIP_FILE} — \
                         every wire variant must be encode/decode-tested (or justified \
                         with `wire-exhaustive-ok:`)"
                    ),
                });
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return; // enum closed; later Msg mentions are not variants
                    }
                }
                _ => {}
            }
        }
    }
}

// ------------------------------------------------------ design inventory

fn first_token(line: &str) -> &str {
    line.split_whitespace().next().unwrap_or("")
}

/// The `pub mod` names of each `crates/<dir>/src/lib.rs` and the names
/// on the `modules:` list of `<dir>/`'s inventory entry must be the same
/// set. An entry runs from the line whose first token is `<dir>/` to the
/// next line whose first token ends in `/` (or the closing code fence);
/// its `modules:` list runs to the end of the entry.
fn check_design_inventory(root: &Path, out: &mut Vec<Violation>) {
    let design = std::fs::read_to_string(root.join(DESIGN_FILE)).unwrap_or_default();
    let inventory: Vec<(usize, &str)> = design
        .lines()
        .enumerate()
        .skip_while(|(_, l)| l.trim_end() != INVENTORY_HEADING)
        .skip(1)
        .take_while(|(_, l)| !l.starts_with("## "))
        .collect();
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else { return };
    let mut dirs: Vec<String> =
        entries.flatten().filter_map(|e| e.file_name().into_string().ok()).collect();
    dirs.sort();
    for dir in dirs {
        let lib = format!("crates/{dir}/src/lib.rs");
        let Ok(text) = std::fs::read_to_string(root.join(&lib)) else { continue };
        let declared: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .filter_map(|(i, l)| Some((i, l.trim().strip_prefix("pub mod ")?.strip_suffix(';')?)))
            .collect();

        let entry: Vec<(usize, &str)> = inventory
            .iter()
            .skip_while(|(_, l)| first_token(l).strip_suffix('/') != Some(dir.as_str()))
            .enumerate()
            .take_while(|(n, (_, l))| {
                *n == 0 || !(first_token(l).ends_with('/') || first_token(l) == "```")
            })
            .map(|(_, e)| *e)
            .collect();
        let entry_text = entry.iter().map(|(_, l)| *l).collect::<Vec<_>>().join(" ");
        let listed: Vec<&str> = entry_text
            .split_once("modules:")
            .map(|(_, names)| names.split([' ', ',', '`']).filter(|w| !w.is_empty()).collect())
            .unwrap_or_default();
        let list_line = entry.iter().find(|(_, l)| l.contains("modules:")).map_or(0, |(ln, _)| *ln);

        for (i, name) in &declared {
            if !listed.contains(name) {
                out.push(Violation {
                    file: lib.clone(),
                    line: i + 1,
                    rule: "design-inventory",
                    message: format!(
                        "`pub mod {name}` is not on the `modules:` list of `{dir}/` in \
                         {DESIGN_FILE}'s \"{INVENTORY_HEADING}\" — name it there"
                    ),
                });
            }
        }
        for name in listed.iter().filter(|n| !declared.iter().any(|(_, d)| d == *n)) {
            out.push(Violation {
                file: DESIGN_FILE.to_string(),
                line: list_line + 1,
                rule: "design-inventory",
                message: format!(
                    "the inventory lists module `{name}` under `{dir}/`, but {lib} declares \
                     no such `pub mod` — drop the stale name"
                ),
            });
        }
    }
}

// ------------------------------------------------------- lock ordering

/// The declared hierarchy: each chain is a list of lock field names in
/// outermost-first order. Locks in different chains are unordered.
struct LockOrder {
    chains: Vec<(String, Vec<String>)>,
}

impl LockOrder {
    /// Minimal parser for the `lock_order.toml` subset:
    /// `[[chain]]` tables with `name = "..."` and
    /// `order = ["a", "b", ...]` entries.
    fn load(path: &Path) -> Result<LockOrder, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut chains: Vec<(String, Vec<String>)> = Vec::new();
        let mut current: Option<(String, Vec<String>)> = None;
        for (ln, raw) in text.lines().enumerate() {
            // TOML comments are `#`-prefixed.
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[chain]]" {
                if let Some(c) = current.take() {
                    chains.push(c);
                }
                current = Some((String::new(), Vec::new()));
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("{}:{}: expected `key = value`", path.display(), ln + 1));
            };
            let entry = current
                .as_mut()
                .ok_or_else(|| format!("{}:{}: entry outside [[chain]]", path.display(), ln + 1))?;
            match key.trim() {
                "name" => entry.0 = value.trim().trim_matches('"').to_string(),
                "order" => {
                    let inner = value.trim().trim_start_matches('[').trim_end_matches(']');
                    entry.1 = inner
                        .split(',')
                        .map(|s| s.trim().trim_matches('"').to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                }
                other => {
                    return Err(format!(
                        "{}:{}: unknown key `{other}` in [[chain]]",
                        path.display(),
                        ln + 1
                    ));
                }
            }
        }
        if let Some(c) = current.take() {
            chains.push(c);
        }
        for (name, locks) in &chains {
            if name.is_empty() || locks.len() < 2 {
                return Err(format!(
                    "{}: every [[chain]] needs a name and at least two locks",
                    path.display()
                ));
            }
        }
        Ok(LockOrder { chains })
    }

    /// Position of `lock` in the chain containing both names, if any.
    fn rank(&self, a: &str, b: &str) -> Option<(usize, usize, &str)> {
        for (name, chain) in &self.chains {
            let pa = chain.iter().position(|l| l == a);
            let pb = chain.iter().position(|l| l == b);
            if let (Some(pa), Some(pb)) = (pa, pb) {
                return Some((pa, pb, name));
            }
        }
        None
    }

    fn is_known(&self, name: &str) -> bool {
        self.chains.iter().any(|(_, c)| c.iter().any(|l| l == name))
    }
}

/// A currently-held lock during the scan of one function body.
struct Held {
    lock: String,
    /// Brace depth at acquisition; leaving it releases the guard.
    depth: i32,
    /// The guard variable, when bound with `let`, so `drop(var)` (and
    /// re-binding) can release it early.
    var: Option<String>,
    line: usize,
}

/// Extracts `name` from the last `name.lock()` / `.read()` / `.write()`
/// call on the line, plus the `let var` binding if present. Multiple
/// acquisitions per line are returned in order.
fn acquisitions(code: &str) -> Vec<(String, Option<String>)> {
    let bytes = code.as_bytes();
    let mut found = Vec::new();
    for method in ["lock()", "read()", "write()"] {
        let mut start = 0;
        while let Some(pos) = code[start..].find(method) {
            let at = start + pos;
            start = at + method.len();
            // Must be a method call: preceded by '.'
            if at == 0 || bytes[at - 1] != b'.' {
                continue;
            }
            // Identifier directly before the dot is the lock name.
            let mut end = at - 1;
            while end > 0 && {
                let c = bytes[end - 1] as char;
                c.is_alphanumeric() || c == '_'
            } {
                end -= 1;
            }
            let name = &code[end..at - 1];
            if name.is_empty() {
                continue;
            }
            // `let var = ` binding on the same line, if any.
            let var = code[..end].rfind("let ").and_then(|l| {
                let rest = code[l + 4..].trim_start();
                let rest = rest.strip_prefix("mut ").unwrap_or(rest);
                let id: String =
                    rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
                (!id.is_empty()).then_some(id)
            });
            found.push((at, name.to_string(), var));
        }
    }
    found.sort_by_key(|(at, _, _)| *at);
    found.into_iter().map(|(_, n, v)| (n, v)).collect()
}

fn check_lock_order(
    rel: &str,
    lines: &[SplitLine<'_>],
    order: &LockOrder,
    out: &mut Vec<Violation>,
) {
    let mut held: Vec<Held> = Vec::new();
    let mut depth: i32 = 0;
    let mut fn_depth: Option<i32> = None;

    for (i, l) in lines.iter().enumerate() {
        let code = l.code;
        let trimmed = code.trim_start();
        if fn_depth.is_none() && (trimmed.starts_with("fn ") || trimmed.contains(" fn ")) {
            fn_depth = Some(depth);
            held.clear();
        }

        // Explicit early release: `drop(guard)`.
        if let Some(pos) = code.find("drop(") {
            let arg: String =
                code[pos + 5..].chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            held.retain(|h| h.var.as_deref() != Some(arg.as_str()));
        }

        for (name, var) in acquisitions(code) {
            if !order.is_known(&name) {
                continue;
            }
            for h in &held {
                if let Some((rank_new, rank_held, chain)) = order.rank(&name, &h.lock) {
                    if rank_new < rank_held && !escaped(lines, i, "lock-order-ok:") {
                        out.push(Violation {
                            file: rel.to_string(),
                            line: i + 1,
                            rule: "lock-order",
                            message: format!(
                                "`{name}` acquired while holding `{held}` — chain `{chain}` \
                                 orders {name} before {held} (held since line {since})",
                                name = name,
                                held = h.lock,
                                chain = chain,
                                since = h.line + 1,
                            ),
                        });
                    }
                }
            }
            // Re-binding a guard variable drops the old guard first.
            if let Some(v) = &var {
                held.retain(|h| h.var.as_deref() != Some(v.as_str()));
            }
            held.push(Held { lock: name, depth, var, line: i });
        }

        // Brace tracking after acquisition handling: a guard acquired on
        // this line lives in the *current* scope.
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    // A guard acquired at depth d dies when its scope
                    // closes, i.e. when depth drops below d.
                    held.retain(|h| h.depth <= depth);
                    if let Some(fd) = fn_depth {
                        if depth <= fd {
                            fn_depth = None;
                            held.clear();
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

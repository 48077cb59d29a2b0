//! Mutation corpus for the happens-before race detector (PR 7).
//!
//! Each seed scripts a known-bad memory-ordering mutation of a real
//! hot-path protocol against a private [`Detector`] instance and
//! asserts it is **caught** with a report naming both racing sites;
//! each seed has a clean counterpart asserting the correct protocol
//! produces **zero** reports. The scripted tests run in every build
//! mode (the detector is plain code); the `shimmed` module at the
//! bottom re-runs the downgrade seeds through the real `dmv_race`
//! shims with real threads.
//!
//! Seeds:
//! 1. torn-snapshot revert — the PR-1 bug: collecting a version
//!    vector with `Relaxed` per-entry loads while a writer publishes
//!    entries with `Release`.
//! 2. AckTracker watermark fast-path read downgraded
//!    `SeqCst → Relaxed`.
//! 3. applier shard hand-off: the received-vector publish (`fetch_max`)
//!    downgraded `Release → Relaxed` under an `Acquire` reader.
//! 4. version-vector publish store downgraded `Release → Relaxed`
//!    under an `Acquire` reader.
//! 5. lock-order inversion (dynamic cycle, declared-chain and
//!    declared-`[[alone]]` forms).
//! 6. condvar notify with no happens-before edge to the waiter.

use dmv_check::race::{parse_chains, Detector};
use dmv_check::report::{RaceKind, Site};
use std::sync::atomic::Ordering;

fn two_threads(d: &Detector) -> (usize, usize) {
    let a = d.register_thread(None, Some("writer".into()));
    let b = d.register_thread(None, Some("reader".into()));
    (a, b)
}

// ------------------------------------------------- seed 1: torn snapshot

/// PR-1 torn snapshot, reintroduced: `AtomicVersionVector::snapshot`
/// collecting entries with `Relaxed` loads while `merge` publishes
/// them with `Release`. The relaxed collect can mix entries from
/// different merges; the detector flags each relaxed load that
/// observed an unordered release store.
#[test]
fn torn_snapshot_revert_caught() {
    let d = Detector::new();
    let (w, r) = two_threads(&d);
    let e0 = d.alloc_object();
    let e1 = d.alloc_object();
    d.label_loc(e0, "vv[0]");
    d.label_loc(e1, "vv[1]");
    // Writer: merge publishes both entries with Release.
    let w0 = Site::caller();
    d.atomic_store(w, e0, Ordering::Release, w0);
    let w1 = Site::caller();
    d.atomic_store(w, e1, Ordering::Release, w1);
    // Reader: mutated snapshot() collects with Relaxed loads.
    let r0 = Site::caller();
    d.atomic_load(r, e0, Ordering::Relaxed, r0);
    let r1 = Site::caller();
    d.atomic_load(r, e1, Ordering::Relaxed, r1);
    let reports = d.reports();
    assert_eq!(reports.len(), 2, "both torn entries flagged");
    for (rep, (ws, rs)) in reports.iter().zip([(w0, r0), (w1, r1)]) {
        assert_eq!(rep.kind, RaceKind::RelaxedRead);
        assert_eq!(rep.prior.site, ws, "report names the racing store");
        assert_eq!(rep.current.site, rs, "report names the racing load");
    }
}

/// The shipped protocol: snapshot() uses Acquire loads of Release
/// stores — every observed entry is synchronized, nothing is flagged.
#[test]
fn torn_snapshot_fixed_clean() {
    let d = Detector::new();
    let (w, r) = two_threads(&d);
    let e0 = d.alloc_object();
    let e1 = d.alloc_object();
    d.atomic_store(w, e0, Ordering::Release, Site::caller());
    d.atomic_store(w, e1, Ordering::Release, Site::caller());
    d.atomic_load(r, e0, Ordering::Acquire, Site::caller());
    d.atomic_load(r, e1, Ordering::Acquire, Site::caller());
    assert_eq!(d.report_count(), 0);
}

// ------------------------------------- seed 2: watermark read downgrade

/// AckTracker fast path: `wait()` evaluates its predicate (a watermark
/// `load(SeqCst)`) before registering as a waiter. Downgrading that
/// load to `Relaxed` lets the committer act on a watermark with no
/// ordering edge to the recorder's `fetch_max`.
#[test]
fn watermark_relaxed_fast_path_caught() {
    let d = Detector::new();
    let (recorder, committer) = two_threads(&d);
    let wm = d.alloc_object();
    d.label_loc(wm, "ack.watermark");
    let record_site = Site::caller();
    d.atomic_rmw(recorder, wm, Ordering::SeqCst, record_site); // fetch_max
    let read_site = Site::caller();
    d.atomic_load(committer, wm, Ordering::Relaxed, read_site); // downgraded pred()
    let reports = d.reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].kind, RaceKind::RelaxedRead);
    assert_eq!(reports[0].object, "ack.watermark");
    assert_eq!(reports[0].prior.site, record_site);
    assert_eq!(reports[0].current.site, read_site);
}

/// The shipped SeqCst predicate read synchronizes with the recorder.
#[test]
fn watermark_seqcst_fast_path_clean() {
    let d = Detector::new();
    let (recorder, committer) = two_threads(&d);
    let wm = d.alloc_object();
    d.atomic_rmw(recorder, wm, Ordering::SeqCst, Site::caller());
    d.atomic_load(committer, wm, Ordering::SeqCst, Site::caller());
    assert_eq!(d.report_count(), 0);
}

// -------------------------------- seed 3: shard hand-off publish downgrade

/// Applier hand-off: the receiver publishes the received-version
/// vector with a Release `fetch_max` after filling page queues; a
/// reader's Acquire load of it is what orders the queue contents.
/// Downgrading the publish to `Relaxed` leaves the acquire with no
/// edge — flagged as a relaxed-publish on the *store* side.
#[test]
fn applier_handoff_relaxed_publish_caught() {
    let d = Detector::new();
    let (receiver, reader) = two_threads(&d);
    let received = d.alloc_object();
    d.label_loc(received, "applier.received");
    let pub_site = Site::caller();
    d.atomic_rmw(receiver, received, Ordering::Relaxed, pub_site); // downgraded fetch_max
    let read_site = Site::caller();
    d.atomic_load(reader, received, Ordering::Acquire, read_site);
    let reports = d.reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].kind, RaceKind::RelaxedPublish);
    assert_eq!(reports[0].prior.site, pub_site);
    assert_eq!(reports[0].current.site, read_site);
}

/// The shipped Release fetch_max gives the acquire reader its edge.
#[test]
fn applier_handoff_release_publish_clean() {
    let d = Detector::new();
    let (receiver, reader) = two_threads(&d);
    let received = d.alloc_object();
    d.atomic_rmw(receiver, received, Ordering::Release, Site::caller());
    d.atomic_load(reader, received, Ordering::Acquire, Site::caller());
    assert_eq!(d.report_count(), 0);
}

// ---------------------------------- seed 4: version publish downgrade

/// Version-vector publish: a master's commit stores the new table
/// version with Release so a slave's Acquire read-tag check orders
/// the page bytes behind it. A Relaxed store breaks the edge.
#[test]
fn version_publish_relaxed_store_caught() {
    let d = Detector::new();
    let (master, slave) = two_threads(&d);
    let ver = d.alloc_object();
    d.label_loc(ver, "dbversion[t0]");
    let pub_site = Site::caller();
    d.atomic_store(master, ver, Ordering::Relaxed, pub_site); // downgraded publish
    let tag_site = Site::caller();
    d.atomic_load(slave, ver, Ordering::Acquire, tag_site);
    let reports = d.reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].kind, RaceKind::RelaxedPublish);
    assert_eq!(reports[0].prior.site, pub_site);
    assert_eq!(reports[0].current.site, tag_site);
}

#[test]
fn version_publish_release_store_clean() {
    let d = Detector::new();
    let (master, slave) = two_threads(&d);
    let ver = d.alloc_object();
    d.atomic_store(master, ver, Ordering::Release, Site::caller());
    d.atomic_load(slave, ver, Ordering::Acquire, Site::caller());
    assert_eq!(d.report_count(), 0);
}

// ----------------------------------------- pure-relaxed stats exemption

/// Locations whose accesses are all Relaxed (independent stats
/// counters annotated `relaxed-ok:`) communicate no cross-cell
/// invariant and are exempt.
#[test]
fn pure_relaxed_counter_is_exempt() {
    let d = Detector::new();
    let (a, b) = two_threads(&d);
    let ctr = d.alloc_object();
    d.label_loc(ctr, "stats.counter");
    d.atomic_rmw(a, ctr, Ordering::Relaxed, Site::caller());
    d.atomic_load(b, ctr, Ordering::Relaxed, Site::caller());
    d.atomic_rmw(b, ctr, Ordering::Relaxed, Site::caller());
    d.atomic_load(a, ctr, Ordering::Relaxed, Site::caller());
    assert_eq!(d.report_count(), 0, "all-relaxed stats cells must not be flagged");
}

// ------------------------------------------------- lock-order inversion

#[test]
fn dynamic_lock_inversion_caught() {
    let d = Detector::new();
    let (t0, t1) = two_threads(&d);
    let a = d.alloc_object();
    let b = d.alloc_object();
    d.label_lock(a, "queues");
    d.label_lock(b, "wait_lock");
    // t0: A then B (establishes the edge), releases both.
    let first_site = Site::caller();
    d.lock_acquire(t0, a, first_site);
    d.lock_acquire(t0, b, Site::caller());
    d.lock_release(t0, b, Site::caller());
    d.lock_release(t0, a, Site::caller());
    // t1: B then A — the reverse order closes the cycle.
    d.lock_acquire(t1, b, Site::caller());
    let inv_site = Site::caller();
    d.lock_acquire(t1, a, inv_site);
    let reports = d.reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].kind, RaceKind::LockOrderInversion);
    assert_eq!(reports[0].current.site, inv_site);
}

#[test]
fn declared_chain_violation_caught() {
    let chains = parse_chains(
        r#"
        [[chain]]
        name = "applier"
        order = ["queues", "wait_lock"]
        "#,
    );
    let d = Detector::with_lock_order(chains);
    let t0 = d.register_thread(None, None);
    let a = d.alloc_object();
    let b = d.alloc_object();
    d.label_lock(a, "queues");
    d.label_lock(b, "wait_lock");
    // Acquire in declared-reverse order on a single thread: no dynamic
    // cycle exists yet, only the declaration catches it.
    d.lock_acquire(t0, b, Site::caller());
    let site = Site::caller();
    d.lock_acquire(t0, a, site);
    let reports = d.reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].kind, RaceKind::LockOrderInversion);
    assert!(reports[0].message.contains("applier"), "names the violated chain");
    assert_eq!(reports[0].current.site, site);
}

#[test]
fn declared_chain_respected_clean() {
    let chains = parse_chains(
        r#"
        [[chain]]
        name = "applier"
        order = ["queues", "wait_lock"]
        "#,
    );
    let d = Detector::with_lock_order(chains);
    let t0 = d.register_thread(None, None);
    let a = d.alloc_object();
    let b = d.alloc_object();
    d.label_lock(a, "queues");
    d.label_lock(b, "wait_lock");
    d.lock_acquire(t0, a, Site::caller());
    d.lock_acquire(t0, b, Site::caller());
    d.lock_release(t0, b, Site::caller());
    d.lock_release(t0, a, Site::caller());
    assert_eq!(d.report_count(), 0);
}

/// An `[[alone]]` lock held together with one of its `not_with` locks
/// is caught in either nesting, and the table after it still parses as
/// its own chain (its `name` line must not rename the table before).
#[test]
fn declared_alone_lock_held_with_a_banned_lock_caught_in_either_order() {
    let text = r#"
        [[alone]]
        name = "reuse"
        lock = "results"
        not_with = ["slots"]
        not_across = ["execute("]

        [[chain]]
        name = "applier"
        order = ["slots", "wait_lock"]
        "#;
    let chains = parse_chains(text);
    assert_eq!(chains.len(), 2);
    assert_eq!((chains[0].name.as_str(), chains[0].apart), ("reuse", true));
    assert_eq!(chains[0].order, ["results", "slots"]);
    assert_eq!((chains[1].name.as_str(), chains[1].apart), ("applier", false));
    for results_first in [true, false] {
        let d = Detector::with_lock_order(parse_chains(text));
        let t0 = d.register_thread(None, None);
        let (results, slots, wait) = (d.alloc_object(), d.alloc_object(), d.alloc_object());
        d.label_lock(results, "results");
        d.label_lock(slots, "slots");
        d.label_lock(wait, "wait_lock");
        let (first, second) = if results_first { (results, slots) } else { (slots, results) };
        d.lock_acquire(t0, first, Site::caller());
        d.lock_acquire(t0, second, Site::caller());
        d.lock_release(t0, second, Site::caller());
        d.lock_release(t0, first, Site::caller());
        // Alone is fine, and so is the declared chain.
        d.lock_acquire(t0, results, Site::caller());
        d.lock_release(t0, results, Site::caller());
        d.lock_acquire(t0, slots, Site::caller());
        d.lock_acquire(t0, wait, Site::caller());
        let reports = d.reports();
        assert_eq!(reports.len(), 1, "results first: {results_first}");
        assert_eq!(reports[0].kind, RaceKind::LockOrderInversion);
        assert!(reports[0].message.contains("`reuse`"), "names the table: {}", reports[0].message);
    }
}

// ---------------------------------------------------- condvar no-HB

/// A notify whose notifier never published anything (no release op
/// before notifying): the waiter wakes with no edge to the state the
/// notifier wrote — the missed-notify protocol's failure mode.
#[test]
fn condvar_notify_without_publish_caught() {
    let d = Detector::new();
    let (notifier, waiter) = two_threads(&d);
    let m = d.alloc_object();
    let cv = d.alloc_object();
    d.label_lock(m, "wait_lock");
    d.label_cv(cv, "ack.cv");
    // Waiter: lock, park (the shim releases the mutex around the real
    // wait).
    d.lock_acquire(waiter, m, Site::caller());
    let seq = d.cv_wait_begin(waiter, cv, Site::caller());
    d.lock_release(waiter, m, Site::caller());
    // Notifier: mutates shared state and notifies WITHOUT taking the
    // mutex (no release ⇒ nothing published).
    let notify_site = Site::caller();
    d.cv_notify(notifier, cv, notify_site);
    // Waiter wakes, reacquires.
    d.lock_acquire(waiter, m, Site::caller());
    let wake_site = Site::caller();
    d.cv_wait_end(waiter, cv, seq, false, wake_site);
    let reports = d.reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].kind, RaceKind::CondvarNoHb);
    assert_eq!(reports[0].prior.site, notify_site);
    assert_eq!(reports[0].current.site, wake_site);
}

/// The shipped protocol: the notifier publishes under the mutex (or
/// any release op) before notifying; the waiter's reacquire joins the
/// lock clock, so the wake has its edge.
#[test]
fn condvar_notify_under_mutex_clean() {
    let d = Detector::new();
    let (notifier, waiter) = two_threads(&d);
    let m = d.alloc_object();
    let cv = d.alloc_object();
    d.lock_acquire(waiter, m, Site::caller());
    let seq = d.cv_wait_begin(waiter, cv, Site::caller());
    d.lock_release(waiter, m, Site::caller());
    d.lock_acquire(notifier, m, Site::caller());
    d.lock_release(notifier, m, Site::caller());
    d.cv_notify(notifier, cv, Site::caller());
    d.lock_acquire(waiter, m, Site::caller());
    d.cv_wait_end(waiter, cv, seq, false, Site::caller());
    assert_eq!(d.report_count(), 0);
}

/// A timed-out wake is never checked: there may be no notify at all.
#[test]
fn condvar_timeout_wake_clean() {
    let d = Detector::new();
    let (notifier, waiter) = two_threads(&d);
    let m = d.alloc_object();
    let cv = d.alloc_object();
    d.lock_acquire(waiter, m, Site::caller());
    let seq = d.cv_wait_begin(waiter, cv, Site::caller());
    d.lock_release(waiter, m, Site::caller());
    d.cv_notify(notifier, cv, Site::caller());
    d.lock_acquire(waiter, m, Site::caller());
    d.cv_wait_end(waiter, cv, seq, true, Site::caller());
    assert_eq!(d.report_count(), 0);
}

// ------------------------------------------------------ external HB

/// A relaxed exchange whose ordering is carried by a mutex is not a
/// race: the lock release/acquire makes the writer's epoch visible.
#[test]
fn relaxed_under_mutex_clean() {
    let d = Detector::new();
    let (w, r) = two_threads(&d);
    let m = d.alloc_object();
    let loc = d.alloc_object();
    // Mark the location as mixed-ordering so the exemption for
    // pure-relaxed cells does not apply.
    d.atomic_store(w, loc, Ordering::Release, Site::caller());
    d.lock_acquire(w, m, Site::caller());
    d.atomic_store(w, loc, Ordering::Relaxed, Site::caller());
    d.lock_release(w, m, Site::caller());
    d.lock_acquire(r, m, Site::caller());
    d.atomic_load(r, loc, Ordering::Relaxed, Site::caller());
    d.lock_release(r, m, Site::caller());
    assert_eq!(d.report_count(), 0, "mutex carries the edge for relaxed accesses");
}

/// A fork edge orders everything the parent did before the spawn.
#[test]
fn fork_edge_orders_parent_writes() {
    let d = Detector::new();
    let parent = d.register_thread(None, Some("parent".into()));
    let loc = d.alloc_object();
    d.atomic_store(parent, loc, Ordering::Release, Site::caller());
    d.atomic_store(parent, loc, Ordering::Relaxed, Site::caller());
    let child = d.register_thread(Some(parent), Some("child".into()));
    d.atomic_load(child, loc, Ordering::Relaxed, Site::caller());
    assert_eq!(d.report_count(), 0, "fork edge covers pre-spawn writes");
}

/// A join edge orders everything the child did before the join.
#[test]
fn join_edge_orders_child_writes() {
    let d = Detector::new();
    let parent = d.register_thread(None, Some("parent".into()));
    let child = d.register_thread(Some(parent), Some("child".into()));
    let loc = d.alloc_object();
    d.atomic_store(parent, loc, Ordering::Release, Site::caller()); // mixed location
    d.atomic_store(child, loc, Ordering::Relaxed, Site::caller());
    d.join_edge(parent, child);
    d.atomic_load(parent, loc, Ordering::Relaxed, Site::caller());
    assert_eq!(d.report_count(), 0, "join edge covers the child's writes");
}

// ------------------------------------------- real-shim seeds (dmv_race)
//
// The same downgrade seeds driven through the actual shim types with
// real OS threads and the process-global detector. Tests in one binary
// share that global, so every assertion is scoped to this test's own
// labels.

#[cfg(dmv_race)]
mod shimmed {
    use dmv_check::race;
    use dmv_check::report::RaceKind;
    use dmv_check::sync::atomic::{AtomicU64, Ordering};
    use dmv_check::thread;
    use std::sync::Arc;

    fn reports_on(label: &str) -> Vec<dmv_check::report::RaceReport> {
        race::global().reports().into_iter().filter(|r| r.object == label).collect()
    }

    #[test]
    fn shim_watermark_relaxed_fast_path_caught() {
        let wm = Arc::new(AtomicU64::new(0));
        race::label(&*wm, "mutseed.watermark");
        let w = Arc::clone(&wm);
        let h = thread::spawn(move || {
            w.fetch_max(5, Ordering::SeqCst); // recorder (release)
        });
        // Committer fast path, downgraded SeqCst → Relaxed: spin until
        // the recorder's watermark is observed *before* joining, so no
        // join edge can order it.
        while wm.load(Ordering::Relaxed) < 5 {
            std::hint::spin_loop();
        }
        h.join().unwrap(); // unwrap-ok: test thread join
        let reps = reports_on("mutseed.watermark");
        assert!(!reps.is_empty(), "relaxed fast-path read must be flagged");
        assert_eq!(reps[0].kind, RaceKind::RelaxedRead);
    }

    #[test]
    fn shim_version_publish_relaxed_caught() {
        let ver = Arc::new(AtomicU64::new(0));
        race::label(&*ver, "mutseed.version");
        let v = Arc::clone(&ver);
        let h = thread::spawn(move || {
            v.store(7, Ordering::Relaxed); // downgraded publish
        });
        while ver.load(Ordering::Acquire) != 7 {
            std::hint::spin_loop();
        }
        h.join().unwrap(); // unwrap-ok: test thread join
        let reps = reports_on("mutseed.version");
        assert!(!reps.is_empty(), "acquire of a relaxed publish must be flagged");
        assert_eq!(reps[0].kind, RaceKind::RelaxedPublish);
    }

    #[test]
    fn shim_release_publish_clean() {
        let ver = Arc::new(AtomicU64::new(0));
        race::label(&*ver, "mutseed.clean_version");
        let v = Arc::clone(&ver);
        let h = thread::spawn(move || {
            v.store(7, Ordering::Release);
        });
        while ver.load(Ordering::Acquire) != 7 {
            std::hint::spin_loop();
        }
        h.join().unwrap(); // unwrap-ok: test thread join
        assert!(
            reports_on("mutseed.clean_version").is_empty(),
            "release/acquire exchange must not be flagged"
        );
    }

    #[test]
    fn shim_lock_inversion_caught() {
        use dmv_check::sync::Mutex;
        let a = Mutex::new(());
        let b = Mutex::new(());
        race::label(&a, "mutseed.lockA");
        race::label(&b, "mutseed.lockB");
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        {
            let _gb = b.lock();
            let _ga = a.lock(); // reverse order: dynamic inversion
        }
        let reps = reports_on("mutseed.lockA");
        assert!(!reps.is_empty(), "reverse acquisition order must be flagged");
        assert_eq!(reps[0].kind, RaceKind::LockOrderInversion);
    }
}

//! FastTrack-style happens-before race detection over the shim
//! primitives, for **real** multi-threaded runs (`--cfg dmv_race`).
//!
//! Where `dmv_check` explores bounded interleavings of a small closed
//! model, this module instruments whatever execution actually happens:
//! every shim operation updates per-thread vector clocks ([`crate::vc`])
//! and per-object release clocks, and three classes of happens-before
//! violation are reported ([`crate::report`]):
//!
//! 1. **Relaxed communication** — a load observes a store it has no
//!    happens-before edge to, and the only "ordering" in the exchange
//!    is a `Relaxed` access (either the load is `Relaxed`, or an
//!    `Acquire` load observed a non-release store). Locations whose
//!    accesses are *all* `Relaxed` (independent stats counters, by
//!    policy annotated `relaxed-ok:`) are exempt: they communicate no
//!    cross-cell invariant, and flagging them would bury real findings.
//! 2. **Lock-order inversion** — a thread acquires lock B while holding
//!    lock A after some thread acquired A while holding B (dynamic
//!    cycle), or in an order contradicting a declared chain in
//!    `xtask/lock_order.toml` (locks are named via [`label`]).
//! 3. **Condvar wake without happens-before** — a wait returns due to a
//!    notify whose notifier has published nothing the waiter now
//!    happens-after, i.e. the notify protocol lost its memory-ordering
//!    edge (the bug class the applier/ack "missed-notify" protocol
//!    exists to prevent).
//!
//! The detector itself is mode-independent: [`Detector`] is plain code
//! driven through an explicit API, so the mutation corpus
//! (`tests/race_mutations.rs`) can script known-bad interleavings in
//! any build. Under `--cfg dmv_race` the shims in [`crate::sync`] and
//! [`crate::thread`] drive the process-wide [`global`] instance.
//!
//! All detector state sits behind one mutex; operations serialize
//! through it. That costs throughput (fine for test runs) but cannot
//! mask a race: detection is happens-before-based, so any execution
//! that exhibits a reads-from edge without an ordering edge is flagged
//! regardless of how the instrumentation interleaves the threads.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::OnceLock;

use parking_lot::Mutex;

use crate::report::{write_artifact, Access, OpRecord, RaceKind, RaceReport, Site};
use crate::vc::{Epoch, VectorClock};

/// How many recent shim ops each thread keeps for replay traces.
const TRACE_CAP: usize = 48;

fn is_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// A declared lock-acquisition chain from `xtask/lock_order.toml`, or
/// one of its `[[alone]]` tables.
#[derive(Clone, Debug)]
pub struct Chain {
    /// Chain name (diagnostic only).
    pub name: String,
    /// Lock names in the order they must be acquired; for an `[[alone]]`
    /// table, its lock and then its `not_with` locks.
    pub order: Vec<String>,
    /// An `[[alone]]` table: `order[0]` is never held together with any
    /// later lock, in either order.
    pub apart: bool,
}

struct ThreadState {
    name: String,
    vc: VectorClock,
    /// The clock this thread last made visible through a release
    /// operation — what a condvar notify can promise its waiters.
    published: VectorClock,
    held: Vec<HeldLock>,
    trace: VecDeque<OpRecord>,
}

#[derive(Clone, Copy)]
struct HeldLock {
    lock: usize,
    site: Site,
}

struct WriteInfo {
    epoch: Epoch,
    site: Site,
    release: bool,
    thread: String,
    op: &'static str,
}

#[derive(Default)]
struct LocState {
    label: Option<&'static str>,
    /// Join of the clocks of all release-ordered writers.
    sync: VectorClock,
    last_write: Option<WriteInfo>,
    /// True once any access used a non-`Relaxed` ordering; pure-relaxed
    /// locations are exempt from communication checks (see module doc).
    sync_seen: bool,
}

#[derive(Default)]
struct LockState {
    label: Option<&'static str>,
    /// Join of the clocks of all releasers.
    clock: VectorClock,
    last_acquire_site: Option<Site>,
}

#[derive(Default)]
struct CvState {
    label: Option<&'static str>,
    notify_seq: u64,
    /// `(published clock, tid, site)` of the most recent notifier.
    last_notify: Option<(VectorClock, usize, Site)>,
}

#[derive(Default)]
struct State {
    threads: Vec<ThreadState>,
    locs: HashMap<usize, LocState>,
    locks: HashMap<usize, LockState>,
    cvs: HashMap<usize, CvState>,
    next_object: usize,
    /// Observed acquisition edges: `(held, acquired)` with the sites of
    /// the first observation.
    edges: HashMap<(usize, usize), (Site, Site)>,
    chains: Vec<Chain>,
    reports: Vec<RaceReport>,
    dedup: HashSet<(&'static str, Site, Site)>,
}

impl State {
    fn thread(&mut self, tid: usize) -> &mut ThreadState {
        &mut self.threads[tid]
    }

    fn loc_label(&self, id: usize) -> String {
        match self.locs.get(&id).and_then(|l| l.label) {
            Some(l) => l.to_string(),
            None => format!("atomic#{id}"),
        }
    }

    fn lock_label(&self, id: usize) -> String {
        match self.locks.get(&id).and_then(|l| l.label) {
            Some(l) => l.to_string(),
            None => format!("lock#{id}"),
        }
    }

    fn cv_label(&self, id: usize) -> String {
        match self.cvs.get(&id).and_then(|l| l.label) {
            Some(l) => l.to_string(),
            None => format!("condvar#{id}"),
        }
    }

    fn record_op(&mut self, tid: usize, op: &'static str, object: String, site: Site) {
        let t = self.thread(tid);
        if t.trace.len() == TRACE_CAP {
            t.trace.pop_front();
        }
        t.trace.push_back(OpRecord { tid, op, object, site });
    }

    fn publish(
        &mut self,
        kind: RaceKind,
        object: String,
        message: String,
        prior: Access,
        current: Access,
        tid: usize,
    ) {
        if !self.dedup.insert((kind.tag(), prior.site, current.site)) {
            return;
        }
        let report = RaceReport {
            kind,
            message,
            object,
            prior,
            current,
            trace: self.threads[tid].trace.iter().cloned().collect(),
            backtrace: std::backtrace::Backtrace::force_capture().to_string(),
        };
        eprintln!("{report}");
        write_artifact(&report, self.reports.len());
        self.reports.push(report);
    }
}

/// The happens-before engine. One instance per process in `dmv_race`
/// builds ([`global`]); the mutation corpus builds its own.
#[derive(Default)]
pub struct Detector {
    state: Mutex<State>,
}

impl Detector {
    /// A detector with no declared lock chains.
    pub fn new() -> Self {
        Detector::default()
    }

    /// A detector cross-checking dynamic lock acquisitions against
    /// declared chains.
    pub fn with_lock_order(chains: Vec<Chain>) -> Self {
        let d = Detector::new();
        d.state.lock().chains = chains;
        d
    }

    // ------------------------------------------------------- threads

    /// Registers a thread; `parent` (if any) donates a fork edge, so
    /// the child happens-after everything the parent did so far.
    pub fn register_thread(&self, parent: Option<usize>, name: Option<String>) -> usize {
        let mut s = self.state.lock();
        let tid = s.threads.len();
        let mut vc = match parent {
            Some(p) => s.threads[p].vc.clone(),
            None => VectorClock::new(),
        };
        vc.set(tid, 1);
        if let Some(p) = parent {
            s.threads[p].vc.bump(p);
        }
        let name = name.unwrap_or_else(|| format!("t{tid}"));
        s.threads.push(ThreadState {
            name,
            published: vc.clone(),
            vc,
            held: Vec::new(),
            trace: VecDeque::new(),
        });
        tid
    }

    /// A join edge: `joiner` happens-after everything `joined` did.
    pub fn join_edge(&self, joiner: usize, joined: usize) {
        let mut s = self.state.lock();
        let child = s.threads[joined].vc.clone();
        s.threads[joiner].vc.join(&child);
    }

    // ------------------------------------------------------- atomics

    /// Allocates an id for a new shim object (atomic, lock or condvar).
    pub fn alloc_object(&self) -> usize {
        let mut s = self.state.lock();
        let id = s.next_object;
        s.next_object += 1;
        id
    }

    /// Names an atomic location for reports.
    pub fn label_loc(&self, loc: usize, label: &'static str) {
        self.state.lock().locs.entry(loc).or_default().label = Some(label);
    }

    /// Names a lock, connecting it to `xtask/lock_order.toml` chains.
    pub fn label_lock(&self, lock: usize, label: &'static str) {
        self.state.lock().locks.entry(lock).or_default().label = Some(label);
    }

    /// Names a condvar for reports.
    pub fn label_cv(&self, cv: usize, label: &'static str) {
        self.state.lock().cvs.entry(cv).or_default().label = Some(label);
    }

    /// An atomic load: acquire orderings join the location's release
    /// clock; then the observed last write is checked for an ordering
    /// edge (see module doc for the exemption of pure-relaxed
    /// locations).
    pub fn atomic_load(&self, tid: usize, loc: usize, ord: Ordering, site: Site) {
        self.atomic_load_op(tid, loc, ord, site, || ());
    }

    /// [`Detector::atomic_load`] wrapping the real operation, so the
    /// observed value and the recorded last-write metadata cannot be
    /// torn apart by a concurrent shim op on the same location.
    pub fn atomic_load_op<T>(
        &self,
        tid: usize,
        loc: usize,
        ord: Ordering,
        site: Site,
        f: impl FnOnce() -> T,
    ) -> T {
        let mut s = self.state.lock();
        let v = f();
        let object = s.loc_label(loc);
        s.record_op(tid, "load", object, site);
        self.read_sync(&mut s, tid, loc, ord);
        self.check_read(&mut s, tid, loc, ord, site);
        v
    }

    /// An atomic store: release orderings publish the writer's clock
    /// into the location; the last-write epoch is always updated.
    pub fn atomic_store(&self, tid: usize, loc: usize, ord: Ordering, site: Site) {
        self.atomic_store_op(tid, loc, ord, site, || ());
    }

    /// [`Detector::atomic_store`] wrapping the real operation.
    pub fn atomic_store_op<T>(
        &self,
        tid: usize,
        loc: usize,
        ord: Ordering,
        site: Site,
        f: impl FnOnce() -> T,
    ) -> T {
        let mut s = self.state.lock();
        let v = f();
        let object = s.loc_label(loc);
        s.record_op(tid, "store", object, site);
        self.write_side(&mut s, tid, loc, ord, site, "store");
        v
    }

    /// An atomic read-modify-write: the read side is checked like a
    /// load of the same ordering, the write side published like a
    /// store.
    pub fn atomic_rmw(&self, tid: usize, loc: usize, ord: Ordering, site: Site) {
        self.atomic_rmw_op(tid, loc, ord, site, || ());
    }

    /// [`Detector::atomic_rmw`] wrapping the real operation.
    pub fn atomic_rmw_op<T>(
        &self,
        tid: usize,
        loc: usize,
        ord: Ordering,
        site: Site,
        f: impl FnOnce() -> T,
    ) -> T {
        let mut s = self.state.lock();
        let v = f();
        let object = s.loc_label(loc);
        s.record_op(tid, "rmw", object, site);
        self.read_sync(&mut s, tid, loc, ord);
        self.check_read(&mut s, tid, loc, ord, site);
        self.write_side(&mut s, tid, loc, ord, site, "rmw");
        v
    }

    /// A compare-exchange: on success the read+write sides use the
    /// success ordering; on failure only a load with the failure
    /// ordering happened.
    pub fn atomic_cas_op<T, E>(
        &self,
        tid: usize,
        loc: usize,
        success: Ordering,
        failure: Ordering,
        site: Site,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let mut s = self.state.lock();
        let r = f();
        let object = s.loc_label(loc);
        s.record_op(tid, "cas", object, site);
        let ord = if r.is_ok() { success } else { failure };
        self.read_sync(&mut s, tid, loc, ord);
        self.check_read(&mut s, tid, loc, ord, site);
        if r.is_ok() {
            self.write_side(&mut s, tid, loc, success, site, "cas");
        }
        r
    }

    /// Acquire-side synchronization of a read: join the location's
    /// release clock into the reader.
    fn read_sync(&self, s: &mut State, tid: usize, loc: usize, ord: Ordering) {
        if is_acquire(ord) {
            let sync = {
                let l = s.locs.entry(loc).or_default();
                l.sync_seen = true;
                l.sync.clone()
            };
            s.thread(tid).vc.join(&sync);
        }
    }

    fn check_read(&self, s: &mut State, tid: usize, loc: usize, ord: Ordering, site: Site) {
        let (w_epoch, w_site, w_release, w_thread, w_op) = {
            let Some(l) = s.locs.get(&loc) else { return };
            if !l.sync_seen {
                return;
            }
            let Some(w) = &l.last_write else { return };
            (w.epoch, w.site, w.release, w.thread.clone(), w.op)
        };
        if w_epoch.tid == tid || w_epoch.visible_to(&s.threads[tid].vc) {
            return;
        }
        let (kind, message) = if !is_acquire(ord) {
            (
                RaceKind::RelaxedRead,
                format!(
                    "Relaxed load observed `{w_op}` by {w_thread} with no happens-before \
                     edge; the relaxed access is the only ordering in this communication"
                ),
            )
        } else if !w_release {
            (
                RaceKind::RelaxedPublish,
                format!(
                    "{ord:?} load observed a non-release `{w_op}` by {w_thread}; the \
                     store side was downgraded, so the acquire creates no edge"
                ),
            )
        } else {
            // A release write the reader does not happen-after is
            // synchronized by this very acquire load (the join above);
            // nothing is missing.
            return;
        };
        let object = s.loc_label(loc);
        let prior = Access { thread: w_thread, op: w_op.to_string(), site: w_site };
        let current =
            Access { thread: s.threads[tid].name.clone(), op: format!("load({ord:?})"), site };
        s.publish(kind, object, message, prior, current, tid);
    }

    fn write_side(
        &self,
        s: &mut State,
        tid: usize,
        loc: usize,
        ord: Ordering,
        site: Site,
        op: &'static str,
    ) {
        let release = is_release(ord);
        let (epoch, thread_name) = {
            let t = &s.threads[tid];
            (t.vc.epoch(tid), t.name.clone())
        };
        if release {
            let vc = s.threads[tid].vc.clone();
            let l = s.locs.entry(loc).or_default();
            l.sync_seen = true;
            l.sync.join(&vc);
            s.threads[tid].published = vc;
            s.threads[tid].vc.bump(tid);
        }
        let l = s.locs.entry(loc).or_default();
        l.last_write = Some(WriteInfo { epoch, site, release, thread: thread_name, op });
    }

    // --------------------------------------------------------- locks

    /// A successful lock (or rwlock guard) acquisition: joins the
    /// lock's release clock and checks acquisition order against both
    /// the dynamically observed edge set and the declared chains.
    pub fn lock_acquire(&self, tid: usize, lock: usize, site: Site) {
        let mut s = self.state.lock();
        let object = s.lock_label(lock);
        s.record_op(tid, "lock", object, site);
        let clock = {
            let l = s.locks.entry(lock).or_default();
            l.last_acquire_site = Some(site);
            l.clock.clone()
        };
        s.thread(tid).vc.join(&clock);
        self.check_lock_order(&mut s, tid, lock, site);
        s.thread(tid).held.push(HeldLock { lock, site });
    }

    /// A lock (or guard) release: publishes the holder's clock into
    /// the lock.
    pub fn lock_release(&self, tid: usize, lock: usize, site: Site) {
        let mut s = self.state.lock();
        let object = s.lock_label(lock);
        s.record_op(tid, "unlock", object, site);
        let vc = s.threads[tid].vc.clone();
        s.locks.entry(lock).or_default().clock.join(&vc);
        s.threads[tid].published = vc;
        s.threads[tid].vc.bump(tid);
        let t = s.thread(tid);
        if let Some(pos) = t.held.iter().rposition(|h| h.lock == lock) {
            t.held.remove(pos);
        }
    }

    fn check_lock_order(&self, s: &mut State, tid: usize, acquiring: usize, site: Site) {
        let held: Vec<HeldLock> = s.threads[tid].held.clone();
        for h in held {
            if h.lock == acquiring {
                continue; // reentrant read locks are not an inversion
            }
            // Dynamic: someone acquired `h.lock` while holding
            // `acquiring` and we are doing the reverse.
            if let Some(&(prior_held, prior_acq)) = s.edges.get(&(acquiring, h.lock)) {
                let a_label = s.lock_label(acquiring);
                let h_label = s.lock_label(h.lock);
                let current = Access {
                    thread: s.threads[tid].name.clone(),
                    op: format!("lock `{a_label}` while holding `{h_label}`"),
                    site,
                };
                let prior = Access {
                    thread: "another thread".to_string(),
                    op: format!(
                        "lock `{h_label}` while holding `{a_label}` (held at {prior_held})"
                    ),
                    site: prior_acq,
                };
                let msg = format!(
                    "locks `{h_label}` and `{a_label}` are acquired in both orders; \
                     this can deadlock under contention"
                );
                s.publish(RaceKind::LockOrderInversion, a_label, msg, prior, current, tid);
            }
            s.edges.entry((h.lock, acquiring)).or_insert((h.site, site));
            // Declared: both locks named in one chain, wrong direction.
            let (Some(hl), Some(al)) = (
                s.locks.get(&h.lock).and_then(|l| l.label),
                s.locks.get(&acquiring).and_then(|l| l.label),
            ) else {
                continue;
            };
            for chain in s.chains.clone() {
                let hi = chain.order.iter().position(|n| n == hl);
                let ai = chain.order.iter().position(|n| n == al);
                if let (Some(hi), Some(ai)) = (hi, ai) {
                    if chain.apart && hi.min(ai) == 0 && hi != ai {
                        let current = Access {
                            thread: s.threads[tid].name.clone(),
                            op: format!("lock `{al}` while holding `{hl}`"),
                            site,
                        };
                        let prior = Access {
                            thread: s.threads[tid].name.clone(),
                            op: format!("lock `{hl}`"),
                            site: h.site,
                        };
                        let msg = format!(
                            "declared `[[alone]]` table `{}` never holds `{al}` together with \
                             `{hl}`",
                            chain.name
                        );
                        s.publish(
                            RaceKind::LockOrderInversion,
                            al.to_string(),
                            msg,
                            prior,
                            current,
                            tid,
                        );
                    } else if !chain.apart && ai < hi {
                        let current = Access {
                            thread: s.threads[tid].name.clone(),
                            op: format!("lock `{al}` while holding `{hl}`"),
                            site,
                        };
                        let prior = Access {
                            thread: s.threads[tid].name.clone(),
                            op: format!("lock `{hl}`"),
                            site: h.site,
                        };
                        let msg = format!(
                            "declared chain `{}` orders `{al}` before `{hl}`, but `{al}` \
                             was acquired second",
                            chain.name
                        );
                        s.publish(
                            RaceKind::LockOrderInversion,
                            al.to_string(),
                            msg,
                            prior,
                            current,
                            tid,
                        );
                    }
                }
            }
        }
    }

    // ------------------------------------------------------ condvars

    /// A notify: remembers the notifier's *published* clock — what a
    /// correctly synchronized waiter will happen-after once it
    /// reacquires the mutex the notifier released.
    pub fn cv_notify(&self, tid: usize, cv: usize, site: Site) {
        let mut s = self.state.lock();
        let object = s.cv_label(cv);
        s.record_op(tid, "notify", object, site);
        let published = s.threads[tid].published.clone();
        let c = s.cvs.entry(cv).or_default();
        c.notify_seq += 1;
        c.last_notify = Some((published, tid, site));
    }

    /// Called before a wait parks; returns the notify sequence number
    /// used by [`Detector::cv_wait_end`] to ignore wakes with no
    /// intervening notify (timeout slices, spurious wakes).
    pub fn cv_wait_begin(&self, tid: usize, cv: usize, site: Site) -> u64 {
        let mut s = self.state.lock();
        let object = s.cv_label(cv);
        s.record_op(tid, "wait", object, site);
        s.cvs.entry(cv).or_default().notify_seq
    }

    /// Called after a wait returns and the mutex is reacquired: if a
    /// notify happened during the wait and the waiter still does not
    /// happen-after what that notifier had published, the notify
    /// protocol has no ordering edge.
    pub fn cv_wait_end(&self, tid: usize, cv: usize, begin_seq: u64, timed_out: bool, site: Site) {
        if timed_out {
            return;
        }
        let mut s = self.state.lock();
        let Some(c) = s.cvs.get(&cv) else { return };
        if c.notify_seq == begin_seq {
            return; // no notify since parking: nothing to check
        }
        let Some((published, ntid, nsite)) = c.last_notify.clone() else { return };
        if ntid == tid || published.leq(&s.threads[tid].vc) {
            return;
        }
        let object = s.cv_label(cv);
        let notifier = s.threads[ntid].name.clone();
        let prior = Access { thread: notifier.clone(), op: "notify".to_string(), site: nsite };
        let current =
            Access { thread: s.threads[tid].name.clone(), op: "wait returned".to_string(), site };
        let msg = format!(
            "condvar wait woke from a notify by {notifier}, but the waiter has no \
             happens-before edge to anything that thread published; state read after \
             this wake may be stale"
        );
        s.publish(RaceKind::CondvarNoHb, object, msg, prior, current, tid);
    }

    // ------------------------------------------------------- reports

    /// Number of reports so far.
    pub fn report_count(&self) -> usize {
        self.state.lock().reports.len()
    }

    /// Snapshot of all reports so far.
    pub fn reports(&self) -> Vec<RaceReport> {
        self.state.lock().reports.clone()
    }
}

// --------------------------------------------------------------- global

static GLOBAL: OnceLock<Detector> = OnceLock::new();

std::thread_local! {
    static TID: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The process-wide detector the `dmv_race` shims report to.
pub fn global() -> &'static Detector {
    GLOBAL.get_or_init(|| Detector::with_lock_order(load_declared_chains()))
}

/// The calling thread's detector id, registering it lazily. Threads
/// spawned through [`crate::thread`] are registered with a fork edge by
/// the spawner; anything else (the test harness thread, `main`) starts
/// with an empty clock, which is sound for roots that do their setup
/// before any shimmed child runs.
pub fn current_tid() -> usize {
    TID.with(|t| match t.get() {
        Some(tid) => tid,
        None => {
            let name = std::thread::current().name().map(str::to_string);
            let tid = global().register_thread(None, name);
            t.set(Some(tid));
            tid
        }
    })
}

/// Binds the calling thread to a pre-registered id (spawn wrapper).
#[cfg_attr(not(dmv_race), allow(dead_code))]
pub(crate) fn set_current_tid(tid: usize) {
    TID.with(|t| t.set(Some(tid)));
}

/// Loads the declared chains from `xtask/lock_order.toml`
/// (`DMV_RACE_LOCK_ORDER` overrides the path). Missing file → no
/// declared-order checking, dynamic inversion detection still applies.
fn load_declared_chains() -> Vec<Chain> {
    let path = std::env::var("DMV_RACE_LOCK_ORDER").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../xtask/lock_order.toml").to_string()
    });
    let Ok(text) = std::fs::read_to_string(path) else { return Vec::new() };
    parse_chains(&text)
}

/// Minimal parser for the `[[chain]]` and `[[alone]]` tables the lint
/// also reads: a chain has a `name = "..."` and an `order = ["a", "b",
/// ...]` line; an `[[alone]]` table a `name`, a `lock` and a `not_with`
/// list (`not_across` is for the lint alone).
pub fn parse_chains(text: &str) -> Vec<Chain> {
    let mut chains = Vec::new();
    let mut current: Option<Chain> = None;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with("[[") {
            chains.extend(current.take());
            let apart = line.starts_with("[[alone]]");
            if apart || line.starts_with("[[chain]]") {
                current = Some(Chain { name: String::new(), order: Vec::new(), apart });
            }
            continue;
        }
        let Some(c) = current.as_mut() else { continue };
        if let Some(rest) = line.strip_prefix("name") {
            if let Some(v) = quoted_values(rest).next() {
                c.name = v;
            }
        } else if let Some(rest) = line.strip_prefix("order") {
            c.order = quoted_values(rest).collect();
        } else if let Some(rest) = line.strip_prefix("lock") {
            c.order.splice(0..0, quoted_values(rest).take(1));
        } else if let Some(rest) = line.strip_prefix("not_with") {
            c.order.extend(quoted_values(rest));
        }
    }
    chains.extend(current.take());
    chains.retain(|c| c.order.len() > 1);
    chains
}

fn quoted_values(s: &str) -> impl Iterator<Item = String> + '_ {
    s.split('"').skip(1).step_by(2).map(str::to_string)
}

/// Panics if the global detector has recorded any race report. No-op
/// in builds where the shims do not instrument (no reports can exist),
/// so tests can call it unconditionally.
pub fn assert_clean() {
    let d = global();
    let n = d.report_count();
    if n > 0 {
        let tags: Vec<String> =
            d.reports().iter().map(|r| format!("{} on `{}`", r.kind.tag(), r.object)).collect();
        panic!("dmv-race recorded {n} race report(s): {tags:?} (see stderr / DMV_RACE_REPORT_DIR)");
    }
}

/// Objects that can be given a stable name for race reports and
/// declared lock-order checking. In builds without `dmv_race` every
/// implementation is a no-op.
pub trait Labeled {
    /// Attaches `name` to the object in the active detector.
    fn set_race_label(&self, name: &'static str);
}

/// Names a shim object (lock, condvar or atomic) in race reports; for
/// locks the name also connects it to `xtask/lock_order.toml` chains.
pub fn label<T: Labeled + ?Sized>(object: &T, name: &'static str) {
    object.set_race_label(name);
}

//! Shimmed synchronization primitives.
//!
//! Normal builds: literal re-exports of `parking_lot` and
//! `std::sync::atomic` — zero cost, zero behavior change. Under
//! `--cfg dmv_check`: wrappers that route every operation through the
//! controlled scheduler in `crate::sched`.
//!
//! Checked-mode semantics worth knowing:
//!
//! * Shim objects used **outside** an active execution (helper threads,
//!   test setup) silently pass through to the real primitive.
//! * `Condvar::wait_until` / `wait_for` never time out under the model:
//!   a waiter that is never notified deadlocks, which the checker
//!   reports. "No lost wakeup" is therefore checked for free.
//! * `RwLock` is modeled as an exclusive lock (readers serialize). This
//!   drops reader-reader overlap from the explored space — sound for
//!   data-race-free readers, which is what the hot path has — and keeps
//!   the checker small.

#[cfg(not(any(dmv_check, dmv_race)))]
pub use parking_lot::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

/// Shimmed atomics; in normal builds these are exactly `std`'s.
#[cfg(not(any(dmv_check, dmv_race)))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// In normal builds [`crate::race::label`] is a no-op on the raw types.
#[cfg(not(any(dmv_check, dmv_race)))]
mod labels {
    impl<T: ?Sized> crate::race::Labeled for parking_lot::Mutex<T> {
        fn set_race_label(&self, _name: &'static str) {}
    }
    impl<T: ?Sized> crate::race::Labeled for parking_lot::RwLock<T> {
        fn set_race_label(&self, _name: &'static str) {}
    }
    impl crate::race::Labeled for parking_lot::Condvar {
        fn set_race_label(&self, _name: &'static str) {}
    }
    impl crate::race::Labeled for std::sync::atomic::AtomicBool {
        fn set_race_label(&self, _name: &'static str) {}
    }
    impl crate::race::Labeled for std::sync::atomic::AtomicU64 {
        fn set_race_label(&self, _name: &'static str) {}
    }
    impl crate::race::Labeled for std::sync::atomic::AtomicUsize {
        fn set_race_label(&self, _name: &'static str) {}
    }
}

#[cfg(dmv_check)]
pub use checked::{
    atomic, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};

/// Model-checked builds ignore race labels too.
#[cfg(dmv_check)]
mod labels {
    use super::checked;

    impl<T> crate::race::Labeled for checked::Mutex<T> {
        fn set_race_label(&self, _name: &'static str) {}
    }
    impl<T> crate::race::Labeled for checked::RwLock<T> {
        fn set_race_label(&self, _name: &'static str) {}
    }
    impl crate::race::Labeled for checked::Condvar {
        fn set_race_label(&self, _name: &'static str) {}
    }
    impl crate::race::Labeled for checked::atomic::AtomicBool {
        fn set_race_label(&self, _name: &'static str) {}
    }
    impl crate::race::Labeled for checked::atomic::AtomicU64 {
        fn set_race_label(&self, _name: &'static str) {}
    }
    impl crate::race::Labeled for checked::atomic::AtomicUsize {
        fn set_race_label(&self, _name: &'static str) {}
    }
}

#[cfg(dmv_race)]
pub use raced::{
    atomic, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};

#[cfg(dmv_check)]
mod checked {
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::sync::Arc;
    use std::time::Duration;

    // wall-clock-ok: this file mirrors the parking_lot API surface,
    // whose deadline-based waits take a std Instant; checked mode
    // ignores the deadline entirely (waits never time out).
    use std::time::Instant;

    use crate::sched::{self, Exec, Registration};

    type Ctl = Option<(Arc<Exec>, usize, usize)>;

    // ---------------------------------------------------------- mutex

    /// Checked mutex: logical ownership lives in the scheduler; the
    /// real `parking_lot` lock underneath only stores the data and is
    /// never contended (one modeled thread runs at a time).
    pub struct Mutex<T> {
        reg: Registration,
        inner: parking_lot::Mutex<T>,
    }

    pub struct MutexGuard<'a, T> {
        ctl: Ctl,
        mx: &'a parking_lot::Mutex<T>,
        inner: Option<parking_lot::MutexGuard<'a, T>>,
    }

    impl<T> Mutex<T> {
        pub const fn new(value: T) -> Self {
            Mutex { reg: Registration::new(), inner: parking_lot::Mutex::new(value) }
        }

        pub fn lock(&self) -> MutexGuard<'_, T> {
            match sched::current() {
                None => MutexGuard { ctl: None, mx: &self.inner, inner: Some(self.inner.lock()) },
                Some((e, me)) => {
                    let id = self.reg.id_in(&e, || e.register_lock());
                    e.lock_acquire(me, id);
                    MutexGuard {
                        ctl: Some((e, me, id)),
                        mx: &self.inner,
                        inner: Some(self.inner.lock()),
                    }
                }
            }
        }

        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            match sched::current() {
                None => self.inner.try_lock().map(|g| MutexGuard {
                    ctl: None,
                    mx: &self.inner,
                    inner: Some(g),
                }),
                Some((e, me)) => {
                    let id = self.reg.id_in(&e, || e.register_lock());
                    if e.try_lock_acquire(me, id) {
                        Some(MutexGuard {
                            ctl: Some((e, me, id)),
                            mx: &self.inner,
                            inner: Some(self.inner.lock()),
                        })
                    } else {
                        None
                    }
                }
            }
        }

        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut()
        }

        pub fn into_inner(self) -> T {
            self.inner.into_inner()
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            // Peek at the storage directly (not a schedule point).
            match self.inner.try_lock() {
                Some(g) => f.debug_struct("Mutex").field("data", &*g).finish(),
                None => f.write_str("Mutex { <locked> }"),
            }
        }
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard present")
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard present")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // Release the real lock before the logical one so whichever
            // thread is scheduled at the release point can take it.
            self.inner = None;
            if let Some((e, me, id)) = self.ctl.take() {
                e.lock_release(me, id, true);
            }
        }
    }

    // -------------------------------------------------------- condvar

    #[derive(Debug, Clone, Copy)]
    pub struct WaitTimeoutResult {
        timed_out: bool,
    }

    impl WaitTimeoutResult {
        pub fn timed_out(&self) -> bool {
            self.timed_out
        }
    }

    #[derive(Default)]
    pub struct Condvar {
        reg: Registration,
        inner: parking_lot::Condvar,
    }

    impl Condvar {
        pub fn new() -> Self {
            Condvar::default()
        }

        pub fn notify_one(&self) {
            match sched::current() {
                None => self.inner.notify_one(),
                Some((e, me)) => {
                    let cv = self.reg.id_in(&e, || e.register_condvar());
                    e.cv_notify(me, cv, false);
                }
            }
        }

        pub fn notify_all(&self) {
            match sched::current() {
                None => self.inner.notify_all(),
                Some((e, me)) => {
                    let cv = self.reg.id_in(&e, || e.register_condvar());
                    e.cv_notify(me, cv, true);
                }
            }
        }

        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            match guard.ctl.clone() {
                Some((e, me, lock_id)) => {
                    let cv = self.reg.id_in(&e, || e.register_condvar());
                    // Atomic release-and-park: hand the real lock back,
                    // then block in the scheduler until notified and
                    // logically reacquired.
                    guard.inner = None;
                    e.cv_wait(me, cv, lock_id);
                    guard.inner = Some(guard.mx.lock());
                }
                None => {
                    let g = guard.inner.as_mut().expect("guard present");
                    self.inner.wait(g);
                }
            }
        }

        /// Checked mode never times out: a waiter nobody notifies is a
        /// deadlock, and the checker reports it with the schedule.
        pub fn wait_until<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            deadline: Instant,
        ) -> WaitTimeoutResult {
            if guard.ctl.is_some() {
                self.wait(guard);
                WaitTimeoutResult { timed_out: false }
            } else {
                let g = guard.inner.as_mut().expect("guard present");
                WaitTimeoutResult { timed_out: self.inner.wait_until(g, deadline).timed_out() }
            }
        }

        pub fn wait_for<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            timeout: Duration,
        ) -> WaitTimeoutResult {
            if guard.ctl.is_some() {
                self.wait(guard);
                WaitTimeoutResult { timed_out: false }
            } else {
                let g = guard.inner.as_mut().expect("guard present");
                WaitTimeoutResult { timed_out: self.inner.wait_for(g, timeout).timed_out() }
            }
        }
    }

    impl fmt::Debug for Condvar {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Condvar")
        }
    }

    // --------------------------------------------------------- rwlock

    /// Checked rwlock, modeled as an exclusive lock (see module docs).
    pub struct RwLock<T> {
        reg: Registration,
        inner: parking_lot::RwLock<T>,
    }

    pub struct RwLockReadGuard<'a, T> {
        ctl: Ctl,
        inner: Option<parking_lot::RwLockReadGuard<'a, T>>,
    }

    pub struct RwLockWriteGuard<'a, T> {
        ctl: Ctl,
        inner: Option<parking_lot::RwLockWriteGuard<'a, T>>,
    }

    impl<T> RwLock<T> {
        pub const fn new(value: T) -> Self {
            RwLock { reg: Registration::new(), inner: parking_lot::RwLock::new(value) }
        }

        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            match sched::current() {
                None => RwLockReadGuard { ctl: None, inner: Some(self.inner.read()) },
                Some((e, me)) => {
                    let id = self.reg.id_in(&e, || e.register_lock());
                    e.lock_acquire(me, id);
                    RwLockReadGuard { ctl: Some((e, me, id)), inner: Some(self.inner.read()) }
                }
            }
        }

        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            match sched::current() {
                None => RwLockWriteGuard { ctl: None, inner: Some(self.inner.write()) },
                Some((e, me)) => {
                    let id = self.reg.id_in(&e, || e.register_lock());
                    e.lock_acquire(me, id);
                    RwLockWriteGuard { ctl: Some((e, me, id)), inner: Some(self.inner.write()) }
                }
            }
        }

        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut()
        }

        pub fn into_inner(self) -> T {
            self.inner.into_inner()
        }
    }

    impl<T: Default> Default for RwLock<T> {
        fn default() -> Self {
            RwLock::new(T::default())
        }
    }

    impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("RwLock { .. }")
        }
    }

    impl<T> Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard present")
        }
    }

    impl<T> Drop for RwLockReadGuard<'_, T> {
        fn drop(&mut self) {
            self.inner = None;
            if let Some((e, me, id)) = self.ctl.take() {
                e.lock_release(me, id, true);
            }
        }
    }

    impl<T> Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard present")
        }
    }

    impl<T> DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard present")
        }
    }

    impl<T> Drop for RwLockWriteGuard<'_, T> {
        fn drop(&mut self) {
            self.inner = None;
            if let Some((e, me, id)) = self.ctl.take() {
                e.lock_release(me, id, true);
            }
        }
    }

    // -------------------------------------------------------- atomics

    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        use std::sync::atomic as std_atomic;
        use std::sync::Arc;

        use crate::sched::{self, Exec, Registration};

        /// Shared checked-op plumbing over a `u64` oracle value.
        macro_rules! checked_atomic {
            ($name:ident, $std:ident, $prim:ty) => {
                pub struct $name {
                    real: std_atomic::$std,
                    reg: Registration,
                }

                impl $name {
                    pub const fn new(v: $prim) -> Self {
                        $name { real: std_atomic::$std::new(v), reg: Registration::new() }
                    }

                    fn ctl(&self) -> Option<(Arc<Exec>, usize, usize)> {
                        let (e, me) = sched::current()?;
                        let id = self.reg.id_in(&e, || {
                            e.register_atomic(to64(self.real.load(Ordering::SeqCst)))
                        });
                        Some((e, me, id))
                    }

                    pub fn load(&self, ord: Ordering) -> $prim {
                        match self.ctl() {
                            None => self.real.load(ord),
                            Some((e, me, id)) => from64(e.atomic_load(me, id, ord)),
                        }
                    }

                    pub fn store(&self, v: $prim, ord: Ordering) {
                        match self.ctl() {
                            None => self.real.store(v, ord),
                            Some((e, me, id)) => {
                                e.atomic_store(me, id, to64(v), ord);
                                // Keep the raw cell equal to the oracle's
                                // latest value so post-model reads agree.
                                self.real.store(v, Ordering::SeqCst);
                            }
                        }
                    }

                    pub fn swap(&self, v: $prim, ord: Ordering) -> $prim {
                        self.rmw(ord, move |_| v, |r| r.swap(v, ord))
                    }

                    pub fn compare_exchange(
                        &self,
                        current: $prim,
                        new: $prim,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$prim, $prim> {
                        match self.ctl() {
                            None => self.real.compare_exchange(current, new, success, failure),
                            Some((e, me, id)) => {
                                let r = e.atomic_cas(me, id, to64(current), to64(new), success);
                                if r.is_ok() {
                                    self.real.store(new, Ordering::SeqCst);
                                }
                                r.map(from64).map_err(from64)
                            }
                        }
                    }

                    pub fn compare_exchange_weak(
                        &self,
                        current: $prim,
                        new: $prim,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$prim, $prim> {
                        self.compare_exchange(current, new, success, failure)
                    }

                    pub fn get_mut(&mut self) -> &mut $prim {
                        self.real.get_mut()
                    }

                    pub fn into_inner(self) -> $prim {
                        self.real.into_inner()
                    }

                    fn rmw(
                        &self,
                        ord: Ordering,
                        f: impl Fn($prim) -> $prim,
                        passthrough: impl FnOnce(&std_atomic::$std) -> $prim,
                    ) -> $prim {
                        match self.ctl() {
                            None => passthrough(&self.real),
                            Some((e, me, id)) => {
                                let prev =
                                    from64(e.atomic_rmw(me, id, ord, |v| to64(f(from64(v)))));
                                self.real.store(f(prev), Ordering::SeqCst);
                                prev
                            }
                        }
                    }
                }

                impl Default for $name {
                    fn default() -> Self {
                        $name::new(Default::default())
                    }
                }

                impl std::fmt::Debug for $name {
                    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                        write!(f, "{:?}", self.real)
                    }
                }

                impl From<$prim> for $name {
                    fn from(v: $prim) -> Self {
                        $name::new(v)
                    }
                }
            };
        }

        macro_rules! int_rmw_ops {
            ($name:ident, $std:ident, $prim:ty) => {
                impl $name {
                    pub fn fetch_add(&self, v: $prim, ord: Ordering) -> $prim {
                        self.rmw(ord, move |x| x.wrapping_add(v), |r| r.fetch_add(v, ord))
                    }

                    pub fn fetch_sub(&self, v: $prim, ord: Ordering) -> $prim {
                        self.rmw(ord, move |x| x.wrapping_sub(v), |r| r.fetch_sub(v, ord))
                    }

                    pub fn fetch_max(&self, v: $prim, ord: Ordering) -> $prim {
                        self.rmw(ord, move |x| x.max(v), |r| r.fetch_max(v, ord))
                    }

                    pub fn fetch_min(&self, v: $prim, ord: Ordering) -> $prim {
                        self.rmw(ord, move |x| x.min(v), |r| r.fetch_min(v, ord))
                    }

                    pub fn fetch_or(&self, v: $prim, ord: Ordering) -> $prim {
                        self.rmw(ord, move |x| x | v, |r| r.fetch_or(v, ord))
                    }

                    pub fn fetch_and(&self, v: $prim, ord: Ordering) -> $prim {
                        self.rmw(ord, move |x| x & v, |r| r.fetch_and(v, ord))
                    }
                }
            };
        }

        mod u64_impl {
            use super::*;

            fn to64(v: u64) -> u64 {
                v
            }

            fn from64(v: u64) -> u64 {
                v
            }

            checked_atomic!(AtomicU64, AtomicU64, u64);
            int_rmw_ops!(AtomicU64, AtomicU64, u64);
        }

        mod usize_impl {
            use super::*;

            fn to64(v: usize) -> u64 {
                v as u64
            }

            fn from64(v: u64) -> usize {
                v as usize
            }

            checked_atomic!(AtomicUsize, AtomicUsize, usize);
            int_rmw_ops!(AtomicUsize, AtomicUsize, usize);
        }

        mod bool_impl {
            use super::*;

            fn to64(v: bool) -> u64 {
                u64::from(v)
            }

            fn from64(v: u64) -> bool {
                v != 0
            }

            checked_atomic!(AtomicBool, AtomicBool, bool);

            impl AtomicBool {
                pub fn fetch_or(&self, v: bool, ord: Ordering) -> bool {
                    self.rmw(ord, move |x| x | v, |r| r.fetch_or(v, ord))
                }

                pub fn fetch_and(&self, v: bool, ord: Ordering) -> bool {
                    self.rmw(ord, move |x| x & v, |r| r.fetch_and(v, ord))
                }
            }
        }

        pub use bool_impl::AtomicBool;
        pub use u64_impl::AtomicU64;
        pub use usize_impl::AtomicUsize;
    }
}

#[cfg(dmv_race)]
mod raced {
    //! Instrumented primitives for `--cfg dmv_race`: real parking_lot
    //! locks and real std atomics, with every operation reported to
    //! [`crate::race::global`]. `#[track_caller]` on each entry point
    //! makes reports name hot-path source lines, not shim lines.

    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::sync::OnceLock;
    use std::time::Duration;

    // wall-clock-ok: this file mirrors the parking_lot API surface,
    // whose deadline-based waits take a std Instant.
    use std::time::Instant;

    use crate::race;
    use crate::report::Site;

    pub use parking_lot::WaitTimeoutResult;

    /// Lazily allocated detector object id.
    #[derive(Default)]
    struct Reg(OnceLock<usize>);

    impl Reg {
        const fn new() -> Self {
            Reg(OnceLock::new())
        }

        fn id(&self) -> usize {
            *self.0.get_or_init(|| race::global().alloc_object())
        }
    }

    // ---------------------------------------------------------- mutex

    pub struct Mutex<T: ?Sized> {
        reg: Reg,
        inner: parking_lot::Mutex<T>,
    }

    pub struct MutexGuard<'a, T: ?Sized> {
        id: usize,
        site: Site,
        inner: parking_lot::MutexGuard<'a, T>,
    }

    impl<T> Mutex<T> {
        pub const fn new(value: T) -> Self {
            Mutex { reg: Reg::new(), inner: parking_lot::Mutex::new(value) }
        }

        pub fn into_inner(self) -> T {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> Mutex<T> {
        #[track_caller]
        pub fn lock(&self) -> MutexGuard<'_, T> {
            let site = Site::caller();
            let id = self.reg.id();
            let g = self.inner.lock();
            race::global().lock_acquire(race::current_tid(), id, site);
            MutexGuard { id, site, inner: g }
        }

        #[track_caller]
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            let site = Site::caller();
            let id = self.reg.id();
            let g = self.inner.try_lock()?;
            race::global().lock_acquire(race::current_tid(), id, site);
            Some(MutexGuard { id, site, inner: g })
        }

        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut()
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Debug::fmt(&self.inner, f)
        }
    }

    impl<T: ?Sized> crate::race::Labeled for Mutex<T> {
        fn set_race_label(&self, name: &'static str) {
            race::global().label_lock(self.reg.id(), name);
        }
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // Bookkeeping first: the logical release must be recorded
            // before the real unlock (fields drop after this body) so
            // the next acquirer joins a clock that includes us.
            race::global().lock_release(race::current_tid(), self.id, self.site);
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Debug::fmt(&**self, f)
        }
    }

    impl<T: ?Sized + fmt::Display> fmt::Display for MutexGuard<'_, T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Display::fmt(&**self, f)
        }
    }

    // --------------------------------------------------------- rwlock

    pub struct RwLock<T: ?Sized> {
        reg: Reg,
        inner: parking_lot::RwLock<T>,
    }

    pub struct RwLockReadGuard<'a, T: ?Sized> {
        id: usize,
        site: Site,
        inner: parking_lot::RwLockReadGuard<'a, T>,
    }

    pub struct RwLockWriteGuard<'a, T: ?Sized> {
        id: usize,
        site: Site,
        inner: parking_lot::RwLockWriteGuard<'a, T>,
    }

    impl<T> RwLock<T> {
        pub const fn new(value: T) -> Self {
            RwLock { reg: Reg::new(), inner: parking_lot::RwLock::new(value) }
        }

        pub fn into_inner(self) -> T {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> RwLock<T> {
        #[track_caller]
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            let site = Site::caller();
            let id = self.reg.id();
            let g = self.inner.read();
            race::global().lock_acquire(race::current_tid(), id, site);
            RwLockReadGuard { id, site, inner: g }
        }

        #[track_caller]
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            let site = Site::caller();
            let id = self.reg.id();
            let g = self.inner.write();
            race::global().lock_acquire(race::current_tid(), id, site);
            RwLockWriteGuard { id, site, inner: g }
        }

        #[track_caller]
        pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
            let site = Site::caller();
            let id = self.reg.id();
            let g = self.inner.try_read()?;
            race::global().lock_acquire(race::current_tid(), id, site);
            Some(RwLockReadGuard { id, site, inner: g })
        }

        #[track_caller]
        pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
            let site = Site::caller();
            let id = self.reg.id();
            let g = self.inner.try_write()?;
            race::global().lock_acquire(race::current_tid(), id, site);
            Some(RwLockWriteGuard { id, site, inner: g })
        }

        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut()
        }
    }

    impl<T: Default> Default for RwLock<T> {
        fn default() -> Self {
            RwLock::new(T::default())
        }
    }

    impl<T: ?Sized> fmt::Debug for RwLock<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("RwLock { .. }")
        }
    }

    impl<T: ?Sized> crate::race::Labeled for RwLock<T> {
        fn set_race_label(&self, name: &'static str) {
            race::global().label_lock(self.reg.id(), name);
        }
    }

    impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
        fn drop(&mut self) {
            race::global().lock_release(race::current_tid(), self.id, self.site);
        }
    }

    impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
        fn drop(&mut self) {
            race::global().lock_release(race::current_tid(), self.id, self.site);
        }
    }

    // -------------------------------------------------------- condvar

    pub struct Condvar {
        reg: Reg,
        inner: parking_lot::Condvar,
    }

    impl Condvar {
        pub const fn new() -> Self {
            Condvar { reg: Reg::new(), inner: parking_lot::Condvar::new() }
        }

        #[track_caller]
        pub fn notify_one(&self) {
            race::global().cv_notify(race::current_tid(), self.reg.id(), Site::caller());
            self.inner.notify_one();
        }

        #[track_caller]
        pub fn notify_all(&self) {
            race::global().cv_notify(race::current_tid(), self.reg.id(), Site::caller());
            self.inner.notify_all();
        }

        #[track_caller]
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            let site = Site::caller();
            let (det, tid, cv) = (race::global(), race::current_tid(), self.reg.id());
            let begin = det.cv_wait_begin(tid, cv, site);
            det.lock_release(tid, guard.id, site);
            self.inner.wait(&mut guard.inner);
            det.lock_acquire(tid, guard.id, site);
            det.cv_wait_end(tid, cv, begin, false, site);
        }

        #[track_caller]
        pub fn wait_until<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            deadline: Instant,
        ) -> WaitTimeoutResult {
            let site = Site::caller();
            let (det, tid, cv) = (race::global(), race::current_tid(), self.reg.id());
            let begin = det.cv_wait_begin(tid, cv, site);
            det.lock_release(tid, guard.id, site);
            let res = self.inner.wait_until(&mut guard.inner, deadline);
            det.lock_acquire(tid, guard.id, site);
            det.cv_wait_end(tid, cv, begin, res.timed_out(), site);
            res
        }

        #[track_caller]
        pub fn wait_for<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            timeout: Duration,
        ) -> WaitTimeoutResult {
            let site = Site::caller();
            let (det, tid, cv) = (race::global(), race::current_tid(), self.reg.id());
            let begin = det.cv_wait_begin(tid, cv, site);
            det.lock_release(tid, guard.id, site);
            let res = self.inner.wait_for(&mut guard.inner, timeout);
            det.lock_acquire(tid, guard.id, site);
            det.cv_wait_end(tid, cv, begin, res.timed_out(), site);
            res
        }
    }

    impl Default for Condvar {
        fn default() -> Self {
            Condvar::new()
        }
    }

    impl fmt::Debug for Condvar {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Condvar")
        }
    }

    impl crate::race::Labeled for Condvar {
        fn set_race_label(&self, name: &'static str) {
            race::global().label_cv(self.reg.id(), name);
        }
    }

    // -------------------------------------------------------- atomics

    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        use std::sync::atomic as std_atomic;

        use super::Reg;
        use crate::race;
        use crate::report::Site;

        macro_rules! raced_atomic {
            ($name:ident, $std:ident, $prim:ty) => {
                pub struct $name {
                    real: std_atomic::$std,
                    reg: Reg,
                }

                impl $name {
                    pub const fn new(v: $prim) -> Self {
                        $name { real: std_atomic::$std::new(v), reg: Reg::new() }
                    }

                    #[track_caller]
                    pub fn load(&self, ord: Ordering) -> $prim {
                        race::global().atomic_load_op(
                            race::current_tid(),
                            self.reg.id(),
                            ord,
                            Site::caller(),
                            || self.real.load(ord),
                        )
                    }

                    #[track_caller]
                    pub fn store(&self, v: $prim, ord: Ordering) {
                        race::global().atomic_store_op(
                            race::current_tid(),
                            self.reg.id(),
                            ord,
                            Site::caller(),
                            || self.real.store(v, ord),
                        )
                    }

                    #[track_caller]
                    pub fn swap(&self, v: $prim, ord: Ordering) -> $prim {
                        self.rmw(ord, |r| r.swap(v, ord))
                    }

                    #[track_caller]
                    pub fn compare_exchange(
                        &self,
                        current: $prim,
                        new: $prim,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$prim, $prim> {
                        race::global().atomic_cas_op(
                            race::current_tid(),
                            self.reg.id(),
                            success,
                            failure,
                            Site::caller(),
                            || self.real.compare_exchange(current, new, success, failure),
                        )
                    }

                    #[track_caller]
                    pub fn compare_exchange_weak(
                        &self,
                        current: $prim,
                        new: $prim,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$prim, $prim> {
                        self.compare_exchange(current, new, success, failure)
                    }

                    pub fn get_mut(&mut self) -> &mut $prim {
                        self.real.get_mut()
                    }

                    pub fn into_inner(self) -> $prim {
                        self.real.into_inner()
                    }

                    #[track_caller]
                    fn rmw(
                        &self,
                        ord: Ordering,
                        f: impl FnOnce(&std_atomic::$std) -> $prim,
                    ) -> $prim {
                        race::global().atomic_rmw_op(
                            race::current_tid(),
                            self.reg.id(),
                            ord,
                            Site::caller(),
                            || f(&self.real),
                        )
                    }
                }

                impl Default for $name {
                    fn default() -> Self {
                        $name::new(Default::default())
                    }
                }

                impl std::fmt::Debug for $name {
                    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                        write!(f, "{:?}", self.real)
                    }
                }

                impl From<$prim> for $name {
                    fn from(v: $prim) -> Self {
                        $name::new(v)
                    }
                }

                impl race::Labeled for $name {
                    fn set_race_label(&self, name: &'static str) {
                        race::global().label_loc(self.reg.id(), name);
                    }
                }
            };
        }

        macro_rules! raced_int_rmw_ops {
            ($name:ident, $prim:ty) => {
                impl $name {
                    #[track_caller]
                    pub fn fetch_add(&self, v: $prim, ord: Ordering) -> $prim {
                        self.rmw(ord, |r| r.fetch_add(v, ord))
                    }

                    #[track_caller]
                    pub fn fetch_sub(&self, v: $prim, ord: Ordering) -> $prim {
                        self.rmw(ord, |r| r.fetch_sub(v, ord))
                    }

                    #[track_caller]
                    pub fn fetch_max(&self, v: $prim, ord: Ordering) -> $prim {
                        self.rmw(ord, |r| r.fetch_max(v, ord))
                    }

                    #[track_caller]
                    pub fn fetch_min(&self, v: $prim, ord: Ordering) -> $prim {
                        self.rmw(ord, |r| r.fetch_min(v, ord))
                    }

                    #[track_caller]
                    pub fn fetch_or(&self, v: $prim, ord: Ordering) -> $prim {
                        self.rmw(ord, |r| r.fetch_or(v, ord))
                    }

                    #[track_caller]
                    pub fn fetch_and(&self, v: $prim, ord: Ordering) -> $prim {
                        self.rmw(ord, |r| r.fetch_and(v, ord))
                    }
                }
            };
        }

        raced_atomic!(AtomicU64, AtomicU64, u64);
        raced_int_rmw_ops!(AtomicU64, u64);
        raced_atomic!(AtomicUsize, AtomicUsize, usize);
        raced_int_rmw_ops!(AtomicUsize, usize);
        raced_atomic!(AtomicBool, AtomicBool, bool);

        impl AtomicBool {
            #[track_caller]
            pub fn fetch_or(&self, v: bool, ord: Ordering) -> bool {
                self.rmw(ord, |r| r.fetch_or(v, ord))
            }

            #[track_caller]
            pub fn fetch_and(&self, v: bool, ord: Ordering) -> bool {
                self.rmw(ord, |r| r.fetch_and(v, ord))
            }
        }
    }
}

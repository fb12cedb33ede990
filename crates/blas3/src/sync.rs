//! The synchronisation facade under the shipped concurrent cores: the
//! pool's [`TeamBarrier`](crate::pool::TeamBarrier) and job hand-off, and
//! the serve layer's completion slot, take their `Mutex`, `Condvar` and
//! atomics from here instead of from `std::sync`, so the interleaving
//! checker (`crate::chaos`) can run *them* — not a copy.
//!
//! There are two builds of this module and one set of names.
//!
//! * **Without `feature = "chaos"`** (every build that ships or is
//!   benchmarked) it is re-exports of the `std` types plus [`spin_until`],
//!   a spin-then-yield loop: `sync::Mutex<T>` *is* `std::sync::Mutex<T>`.
//! * **With `feature = "chaos"`** each name is a thin wrapper holding the
//!   `std` primitive *and* the checker's bookkeeping for it (a
//!   `ModelAtomic`, `ModelMutex` or `Gate`). On a **model thread** — one
//!   running a body of `chaos::run_interleaved` / `run_scripted`, found
//!   through the scheduler's thread-local (`chaos::current`; the loom
//!   pattern) — an operation first declares itself to the scheduler,
//!   yields, and updates the vector clocks with the ordering it was
//!   written with (or `Relaxed`, under a `chaos::Weakening`), then
//!   performs the real operation. On **any other thread** it falls
//!   straight through to `std`, so a `--features chaos` build still runs
//!   the ordinary pool and serve suites on real threads.
//!
//! What a wake does and does not order, under the scheduler:
//! [`Condvar::wait`] is model-unlock, park on the condvar's gate,
//! model-lock; `notify_*` opens that gate. Opening a gate makes parked
//! threads runnable and **conveys no happens-before edge** — a woken
//! waiter earns its edges from the mutex it re-takes or from an `Acquire`
//! load, exactly as on hardware, so a missing `Release` stays visible.
//! [`spin_until`] parks until another model thread writes something its
//! condition read, then re-evaluates it (a spin loop would branch without
//! bound under exhaustive exploration). [`Condvar::wait_timeout`] under
//! the scheduler is [`Condvar::wait`]: no schedule explores a timeout.
//! Poisoning is `std`'s in both builds — the `LockResult`s come from the
//! real mutex.

#[cfg(not(feature = "chaos"))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(feature = "chaos"))]
pub use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

#[cfg(feature = "chaos")]
pub use modelled::{
    AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering, WaitTimeoutResult,
};

/// Busy-wait until `done()` is `true`: spin for the first 63 misses, then
/// yield the CPU between evaluations (an oversubscribed host must not burn
/// whole quanta spinning). `done` carries the caller's loads and orderings.
#[inline]
pub fn spin_until(mut done: impl FnMut() -> bool) {
    #[cfg(feature = "chaos")]
    if let Some((hooks, tid)) = crate::chaos::sched::current() {
        return hooks.wait_until(tid, done);
    }
    let mut spins = 0u32;
    while !done() {
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(feature = "chaos")]
mod modelled {
    use crate::chaos::sched::{self, AccessKind, Gate};
    use crate::chaos::vclock::{recorded, ModelAtomic, ModelMutex};
    use std::ops::{Deref, DerefMut};
    use std::panic::Location;
    pub use std::sync::atomic::Ordering;
    use std::sync::{LockResult, PoisonError};
    use std::time::Duration;

    // `$name`: the `std` atomic of the same name plus its `ModelAtomic`.
    macro_rules! atomic {
        ($name:ident, $prim:ty $(, $rmw:ident => $model:ident)*) => {
            #[doc = concat!("`std::sync::atomic::", stringify!($name), "` under the checker.")]
            pub struct $name {
                real: std::sync::atomic::$name,
                model: ModelAtomic,
            }

            impl $name {
                /// A new atomic holding `value`.
                pub fn new(value: $prim) -> $name {
                    $name {
                        real: std::sync::atomic::$name::new(value),
                        model: ModelAtomic::new(stringify!($name), value as u64),
                    }
                }

                /// `load`, declared and clocked on a model thread.
                #[track_caller]
                pub fn load(&self, order: Ordering) -> $prim {
                    if let Some((hooks, tid)) = sched::current() {
                        let order = recorded(Location::caller(), AccessKind::Read, order);
                        self.model.load(&hooks, tid, order);
                    }
                    self.real.load(order)
                }

                /// `store`, declared and clocked on a model thread.
                #[track_caller]
                pub fn store(&self, value: $prim, order: Ordering) {
                    if let Some((hooks, tid)) = sched::current() {
                        let order = recorded(Location::caller(), AccessKind::Write, order);
                        self.model.store(&hooks, tid, value as u64, order);
                    }
                    self.real.store(value, order);
                }

                $(
                    #[doc = concat!("`", stringify!($rmw), "`, declared and clocked on a model thread.")]
                    #[track_caller]
                    pub fn $rmw(&self, delta: $prim, order: Ordering) -> $prim {
                        if let Some((hooks, tid)) = sched::current() {
                            let order = recorded(Location::caller(), AccessKind::Rmw, order);
                            self.model
                                .rmw(&hooks, tid, order, |v| v.$model(delta as u64));
                        }
                        self.real.$rmw(delta, order)
                    }
                )*
            }
        };
    }

    atomic!(AtomicBool, bool);
    atomic!(AtomicUsize, usize, fetch_add => wrapping_add, fetch_sub => wrapping_sub);
    atomic!(AtomicU64, u64);

    /// `f` over what a `LockResult` holds, poisoned or not.
    fn map<A, B>(result: LockResult<A>, f: impl FnOnce(A) -> B) -> LockResult<B> {
        match result {
            Ok(a) => Ok(f(a)),
            Err(poisoned) => Err(PoisonError::new(f(poisoned.into_inner()))),
        }
    }

    /// `std::sync::Mutex` under the checker: model threads contend on the
    /// [`ModelMutex`] (parking on its gate, never on the OS), so the real
    /// lock underneath is always free when they reach it.
    pub struct Mutex<T> {
        real: std::sync::Mutex<T>,
        model: ModelMutex,
    }

    /// Guard of a [`Mutex`]; dropping it on a model thread is the modelled
    /// unlock (a `Release` and a wake of parked lockers). A guard never
    /// leaves its thread, so it was taken on a model thread iff dropped on one.
    pub struct MutexGuard<'a, T> {
        lock: &'a Mutex<T>,
        /// `None` only once [`Condvar`] has taken the real guard.
        real: Option<std::sync::MutexGuard<'a, T>>,
    }

    impl<T> Mutex<T> {
        /// A new, unlocked mutex around `value`.
        pub fn new(value: T) -> Mutex<T> {
            Mutex {
                real: std::sync::Mutex::new(value),
                model: ModelMutex::new("sync.mutex"),
            }
        }

        /// `lock`: the modelled acquisition on a model thread, then the
        /// real one (whose poison verdict is returned as is).
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            if let Some((hooks, tid)) = sched::current() {
                self.model.acquire(&hooks, tid);
            }
            map(self.real.lock(), |real| self.guard(real))
        }

        fn guard<'a>(&'a self, real: std::sync::MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            let real = Some(real);
            MutexGuard { lock: self, real }
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // Real unlock first: the modelled release is a yield point, and
            // the next model thread in must find the real lock free.
            if let (Some(_), Some((hooks, tid))) = (self.real.take(), sched::current()) {
                self.lock.model.release(&hooks, tid);
            }
        }
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.real.as_deref().expect("guard holds the lock")
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.real.as_deref_mut().expect("guard holds the lock")
        }
    }

    /// Whether a [`Condvar::wait_timeout`] timed out (never, when modelled).
    pub struct WaitTimeoutResult(bool);

    impl WaitTimeoutResult {
        /// `true` if the wait timed out.
        pub fn timed_out(&self) -> bool {
            self.0
        }
    }

    /// `std::sync::Condvar` under the checker (see the module docs for
    /// what its wake orders).
    #[derive(Default)]
    pub struct Condvar {
        real: std::sync::Condvar,
        gate: Gate,
    }

    impl Condvar {
        /// A new condition variable.
        pub fn new() -> Condvar {
            Condvar::default()
        }

        /// `wait`. On a model thread: unlock, park on the gate, re-lock —
        /// with no yield between the unlock and the park, so a notify
        /// cannot fall in between.
        pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            let lock = guard.lock;
            if let Some((hooks, tid)) = sched::current() {
                drop(guard);
                hooks.gate_wait(tid, &self.gate);
                return lock.lock();
            }
            let real = guard.real.take().expect("guard holds the lock");
            map(self.real.wait(real), |real| lock.guard(real))
        }

        /// `wait_timeout`; under the scheduler the timeout never fires.
        pub fn wait_timeout<'a, T>(
            &self,
            mut guard: MutexGuard<'a, T>,
            timeout: Duration,
        ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
            if sched::current().is_some() {
                return map(self.wait(guard), |guard| (guard, WaitTimeoutResult(false)));
            }
            let lock = guard.lock;
            let real = guard.real.take().expect("guard holds the lock");
            map(self.real.wait_timeout(real, timeout), |(real, result)| {
                (lock.guard(real), WaitTimeoutResult(result.timed_out()))
            })
        }

        /// `notify_one`; on a model thread it also opens the gate (every
        /// parked waiter runs again: a spurious wake is within contract).
        pub fn notify_one(&self) {
            self.open_gate();
            self.real.notify_one();
        }

        /// `notify_all`.
        pub fn notify_all(&self) {
            self.open_gate();
            self.real.notify_all();
        }

        fn open_gate(&self) {
            if let Some((hooks, tid)) = sched::current() {
                hooks.gate_open(tid, &self.gate);
            }
        }
    }
}

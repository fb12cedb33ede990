//! The synchronisation facade: every first-party `Mutex`, `Condvar` and
//! the atomics beside them — the pool's [`TeamBarrier`](crate::pool::TeamBarrier)
//! and job hand-off, the serve layer's completion slot, cells, admission,
//! breaker and telemetry, the predictor's cache — come from here instead
//! of from `std::sync`, so the interleaving checker (`crate::chaos`) can
//! run *them*, not a copy, and every lock acquisition is order-checked.
//!
//! There are two builds of this module and one set of names.
//!
//! * **Without `feature = "chaos"`** (every build that ships or is
//!   benchmarked) it is re-exports of the `std` types plus two
//!   spin-then-yield loops, [`spin_until`] and the bounded
//!   [`spin_briefly`]: `sync::Mutex<T>` *is* `std::sync::Mutex<T>`.
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
//! bound under exhaustive exploration); [`spin_briefly`] evaluates its
//! condition once, so the park after it is always explored.
//! [`Condvar::wait_timeout`] under the scheduler is [`Condvar::wait`]: no
//! schedule explores a timeout.
//! Poisoning is `std`'s in both builds — the `LockResult`s come from the
//! real mutex.
//!
//! **Lock order** (chaos build, every thread, model or not). A lock's
//! *class* is where its `Mutex::new` was written, so all cells' state
//! locks are one class. Each thread keeps the classes it holds (a
//! `Condvar` wait holds nothing while parked), and the process keeps
//! every "holding A, acquires B" edge it has seen (`lock_edges`).
//! Before the real acquisition, `lock` panics — naming its call site and
//! the creation sites involved — when the thread already holds a lock of
//! the same class (two such locks have no fixed order), or when the new
//! edge would close a cycle. An acyclic order needs no declaration.

use std::time::{Duration, Instant};

#[cfg(not(feature = "chaos"))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(feature = "chaos"))]
pub use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

#[cfg(feature = "chaos")]
pub use modelled::{
    AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering, WaitTimeoutResult,
};
#[cfg(feature = "chaos")]
pub use order::lock_edges;

/// Busy-wait until `done()` is `true`: spin for the first 63 misses, then
/// yield the CPU between evaluations (an oversubscribed host must not burn
/// whole quanta spinning). `done` carries the caller's loads and orderings.
#[inline]
pub fn spin_until(done: impl FnMut() -> bool) {
    #[cfg(feature = "chaos")]
    if let Some((hooks, tid)) = crate::chaos::sched::current() {
        return hooks.wait_until(tid, done);
    }
    spin(done, None);
}

/// How long [`spin_briefly`] keeps trying: about one sleeping wake-up
/// (a futex wait plus the scheduler's wake of a parked thread measured
/// 37–42 µs on a 2-vCPU Xeon), so spinning never costs more than the
/// park it may save.
pub const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// [`spin_until`] for at most [`SPIN_BUDGET`]: `true` once `done()` holds,
/// `false` when the budget ran out first and the caller should park.
/// Call it only right after the thread did work — an idle thread that
/// spun before every park would burn a core waiting for nothing.
///
/// Under the interleaving checker it evaluates `done` once and returns:
/// an unbounded modelled spin would report a thread that is never handed
/// another job as deadlocked, and a single evaluation leaves the park path
/// to be explored on every schedule where the condition is not yet true.
#[inline]
pub fn spin_briefly(done: impl FnMut() -> bool) -> bool {
    #[cfg(feature = "chaos")]
    if crate::chaos::sched::current().is_some() {
        let mut done = done;
        return done();
    }
    spin(done, Some(SPIN_BUDGET))
}

/// The spin-then-yield loop of [`spin_until`] and [`spin_briefly`]; the
/// budget's clock starts at the first yield, so a short wait reads no time.
fn spin(mut done: impl FnMut() -> bool, budget: Option<Duration>) -> bool {
    let mut spins = 0u32;
    let mut yielding_since = None;
    while !done() {
        if spins < 63 {
            spins += 1;
            std::hint::spin_loop();
            continue;
        }
        if let Some(budget) = budget {
            let since = *yielding_since.get_or_insert_with(Instant::now);
            if since.elapsed() >= budget {
                return false;
            }
        }
        std::thread::yield_now();
    }
    true
}

/// The run-time lock-order check (see the module docs).
#[cfg(feature = "chaos")]
mod order {
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::panic::Location;
    use std::sync::PoisonError;

    /// A lock class: the source location of its `Mutex::new`.
    pub(super) type Class = &'static Location<'static>;

    thread_local! {
        /// The classes this thread holds, oldest first.
        static HELD: RefCell<Vec<Class>> = const { RefCell::new(Vec::new()) };
    }

    /// Every "holding A, acquires B" edge taken in this process so far.
    static EDGES: std::sync::Mutex<BTreeSet<(Class, Class)>> =
        std::sync::Mutex::new(BTreeSet::new());

    /// Every "holding A, acquires B" edge observed in this process so far,
    /// as the creation sites of A and B.
    pub fn lock_edges() -> Vec<(&'static Location<'static>, &'static Location<'static>)> {
        let edges = EDGES.lock().unwrap_or_else(PoisonError::into_inner);
        edges.iter().copied().collect()
    }

    /// Run before `site` takes a lock of `class`: record the edges from
    /// every class this thread holds, or panic if the order breaks.
    pub(super) fn check(class: Class, site: &Location<'_>) {
        let verdict = HELD.try_with(|held| conflict(&held.borrow(), class));
        if let Ok(Some(why)) = verdict {
            panic!("lock order: {site} acquires the lock created at {class}, {why}");
        }
    }

    fn conflict(held: &[Class], class: Class) -> Option<String> {
        if held.is_empty() {
            return None;
        }
        if held.contains(&class) {
            return Some(
                "but this thread already holds a lock of that class: \
                 two locks of one class are nested in no fixed order"
                    .to_string(),
            );
        }
        let mut edges = EDGES.lock().unwrap_or_else(PoisonError::into_inner);
        for &holding in held {
            if edges.contains(&(holding, class)) {
                continue;
            }
            if let Some(chain) = chain(&edges, class, holding) {
                let chain: Vec<String> = chain.iter().map(ToString::to_string).collect();
                return Some(format!(
                    "holding the lock created at {holding}, but the reverse order \
                     {} was taken before: a cycle",
                    chain.join(" -> ")
                ));
            }
            edges.insert((holding, class));
        }
        None
    }

    /// A chain of recorded edges from `from` to `to`, if one exists.
    fn chain(edges: &BTreeSet<(Class, Class)>, from: Class, to: Class) -> Option<Vec<Class>> {
        let mut stack = vec![vec![from]];
        let mut seen = BTreeSet::new();
        while let Some(path) = stack.pop() {
            let last = path[path.len() - 1];
            if last == to {
                return Some(path);
            }
            if seen.insert(last) {
                for &(_, next) in edges.iter().filter(|(a, _)| *a == last) {
                    let mut longer = path.clone();
                    longer.push(next);
                    stack.push(longer);
                }
            }
        }
        None
    }

    /// This thread now holds a lock of `class`.
    pub(super) fn hold(class: Class) {
        let _ = HELD.try_with(|held| held.borrow_mut().push(class));
    }

    /// This thread no longer holds its lock of `class`.
    pub(super) fn release(class: Class) {
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held.iter().rposition(|&c| c == class) {
                held.remove(i);
            }
        });
    }
}

#[cfg(feature = "chaos")]
mod modelled {
    use super::order;
    use crate::chaos::sched::{self, AccessKind, Gate};
    use crate::chaos::vclock::{recorded, ModelAtomic, ModelMutex};
    use std::fmt;
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

            impl fmt::Debug for $name {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    fmt::Debug::fmt(&self.real, f)
                }
            }
        };
    }

    atomic!(AtomicBool, bool);
    atomic!(AtomicUsize, usize, fetch_add => wrapping_add, fetch_sub => wrapping_sub);
    atomic!(AtomicU64, u64, fetch_add => wrapping_add);

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
        /// The lock's class for the order check: where it was created.
        class: order::Class,
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
        /// A new, unlocked mutex around `value`, of the class of the
        /// caller's source location.
        #[track_caller]
        pub fn new(value: T) -> Mutex<T> {
            Mutex {
                real: std::sync::Mutex::new(value),
                model: ModelMutex::new("sync.mutex"),
                class: Location::caller(),
            }
        }

        /// `lock`: the order check, the modelled acquisition on a model
        /// thread, then the real one (whose poison verdict is returned as is).
        #[track_caller]
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            order::check(self.class, Location::caller());
            if let Some((hooks, tid)) = sched::current() {
                self.model.acquire(&hooks, tid);
            }
            map(self.real.lock(), |real| self.guard(real))
        }

        /// `is_poisoned`.
        pub fn is_poisoned(&self) -> bool {
            self.real.is_poisoned()
        }

        /// `clear_poison`.
        pub fn clear_poison(&self) {
            self.real.clear_poison();
        }

        fn guard<'a>(&'a self, real: std::sync::MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            order::hold(self.class);
            let real = Some(real);
            MutexGuard { lock: self, real }
        }
    }

    impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Debug::fmt(&self.real, f)
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // Real unlock first: the modelled release is a yield point, and
            // the next model thread in must find the real lock free.
            if let Some(real) = self.real.take() {
                drop(real);
                order::release(self.lock.class);
                if let Some((hooks, tid)) = sched::current() {
                    self.lock.model.release(&hooks, tid);
                }
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
            // Parked, this thread holds nothing.
            order::release(lock.class);
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
            order::release(lock.class);
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

#[cfg(all(test, feature = "chaos"))]
mod tests {
    use super::{lock_edges, Condvar, Mutex};
    use std::panic::Location;
    use std::sync::Arc;

    /// The panic message of a thread body that must panic.
    fn panic_of(body: impl FnOnce() + Send + 'static) -> String {
        let payload = std::thread::spawn(body).join().expect_err("must panic");
        *payload
            .downcast::<String>()
            .expect("a formatted panic message")
    }

    fn site(line: u32) -> String {
        format!("{}:{line}:", file!())
    }

    #[test]
    fn reversing_an_observed_order_panics_naming_both_creation_sites() {
        let (a, a_line) = (Arc::new(Mutex::new(())), line!());
        let (b, b_line) = (Arc::new(Mutex::new(())), line!());
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        std::thread::spawn(move || {
            let _a = a2.lock().unwrap();
            let _b = b2.lock().unwrap();
        })
        .join()
        .unwrap();
        let message = panic_of(move || {
            let _b = b.lock().unwrap();
            let _a = a.lock().unwrap();
        });
        assert!(message.contains("a cycle"), "{message}");
        assert!(message.contains(&site(a_line)), "{message}");
        assert!(message.contains(&site(b_line)), "{message}");
    }

    #[test]
    fn nesting_two_locks_of_one_class_panics() {
        // One creation site, so one class — like every cell's state lock.
        fn cell() -> Mutex<u32> {
            Mutex::new(0)
        }
        let cells = Arc::new([cell(), cell()]);
        let message = panic_of(move || {
            let _first = cells[0].lock().unwrap();
            let _second = cells[1].lock().unwrap();
        });
        assert!(
            message.contains("already holds a lock of that class"),
            "{message}"
        );
    }

    #[test]
    fn a_thread_parked_in_a_condvar_wait_holds_nothing() {
        for timed in [false, true] {
            let parked = Arc::new((Mutex::new(false), Condvar::new()));
            let (c, c_line) = (Arc::new(Mutex::new(())), line!());
            let (d, d_line) = (Arc::new(Mutex::new(())), line!());
            let (about_to_park, parking) = std::sync::mpsc::channel();
            let waiter = {
                let parked = Arc::clone(&parked);
                std::thread::spawn(move || {
                    let (flag, cv) = &*parked;
                    let mut set = flag.lock().unwrap();
                    about_to_park.send(()).unwrap();
                    while !*set {
                        set = if timed {
                            let timeout = std::time::Duration::from_millis(5);
                            cv.wait_timeout(set, timeout).unwrap().0
                        } else {
                            cv.wait(set).unwrap()
                        };
                    }
                    drop(set);
                    // Nothing is held now: this nesting is c -> d alone.
                    let _c = c.lock().unwrap();
                    let _d = d.lock().unwrap();
                })
            };
            // The flag lock is free only once the waiter has parked on it.
            parking.recv().unwrap();
            *parked.0.lock().unwrap() = true;
            parked.1.notify_all();
            waiter.join().unwrap();
            // The one edge into c or d is c -> d: none leaves the flag lock
            // the waiter parked on.
            let into_c_or_d: Vec<_> = lock_edges()
                .into_iter()
                .filter(|(_, to)| to.file() == file!() && [c_line, d_line].contains(&to.line()))
                .collect();
            let c_to_d =
                |(from, to): &(&Location, &Location)| (from.line(), to.line()) == (c_line, d_line);
            assert!(into_c_or_d.iter().any(c_to_d), "{into_c_or_d:?}");
            assert!(into_c_or_d.iter().all(c_to_d), "{into_c_or_d:?}");
        }
    }
}

//! A persistent fork/join thread pool with per-call thread-count control.
//!
//! The ADSALA paper's entire premise is that the *number of threads* used by
//! a BLAS call is a runtime decision. Production BLAS runtimes (MKL, BLIS)
//! keep a persistent pool and activate a subset of workers per call; we do
//! the same so that per-call spawn cost reflects wake-up/synchronisation, not
//! OS thread creation.
//!
//! There is one fork/join, [`ThreadPool::run_team`]: the caller and up to
//! `nt - 1` helpers form a *team* that can rendezvous repeatedly on a
//! reusable [`TeamBarrier`] during one parallel region. This is what the
//! BLIS-style cooperative macro-kernel in [`kernel`](crate::kernel) is
//! built on — workers jointly pack one shared operand panel, cross the
//! barrier, then split the consuming loop, instead of each worker owning a
//! private top-level chunk. Helpers beyond the current pool size are
//! created on demand and kept until [`ThreadPool::shutdown`].
//! Oversubscription (more workers than hardware threads) is allowed — the
//! paper's platforms run with hyper-threading, and "too many threads" is
//! precisely the regime ADSALA learns to avoid.
//!
//! [`ThreadPool::run`] is the barrier-free view of the same region: a
//! closure over `nt` logical worker ids `0..nt`, each called exactly once,
//! dealt round-robin over the members present.
//!
//! Each helper owns a one-job `Slot` (a `Mutex` + `Condvar` and a
//! lock-free "posted" mirror), and a call's completion is one `JobState`
//! (an atomic countdown plus a `Mutex` + `Condvar` for a parked caller).
//! A forked call pays for a sleeping wake-up only when a side has been idle:
//! a worker that just finished a job, and a caller that just ran its own
//! share, first spin for up to [`sync::SPIN_BUDGET`]
//! ([`sync::spin_briefly`]) and park only if nothing arrived, and a post or
//! a last finisher signals the condvar only when the other side is
//! actually parked (a flag read under the lock), so back-to-back calls
//! make no futex call at all.
//!
//! All of that shared state, and [`TeamBarrier`]'s, is written against
//! [`crate::sync`], which *is* `std::sync` in every build but the
//! test-only `chaos` one — there the interleaving checker schedules this
//! code itself (`tests/chaos_{regression,dpor}.rs`, the `scenarios`
//! module below), not a model of it. New shared state here goes through
//! `sync` too (`xtask analyze` flags a raw `std::sync` primitive as
//! `raw-sync-import`); `Arc` and `OnceLock` stay `std`'s.

use crate::sync::{self, AtomicBool, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

/// Lock a mutex, proceeding through poisoning: pool bookkeeping state stays
/// consistent even when a worker closure panicked while holding no locks.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Completion state shared between `run_team` and the participating workers.
struct JobState {
    remaining: AtomicUsize,
    panicked: AtomicBool,
    /// Whether the caller has parked on `cv`; the last finisher reads it
    /// under this lock and signals only a parked caller.
    parked: Mutex<bool>,
    cv: Condvar,
}

impl JobState {
    fn new(workers: usize) -> JobState {
        JobState {
            remaining: AtomicUsize::new(workers),
            panicked: AtomicBool::new(false),
            parked: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn finish_one(&self) {
        // ORDER: AcqRel — release this worker's writes to the job's
        // outputs; the final decrementer acquires everyone else's.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 && *lock_unpoisoned(&self.parked) {
            self.cv.notify_one();
        }
    }

    /// Block until every worker has finished: spin briefly (the caller
    /// has just run its own share, so the workers are usually about to
    /// finish), then park. Returning orders the caller after everything
    /// each worker did before its `finish_one`.
    fn wait(&self) {
        // ORDER: Acquire — pairs with finish_one's AcqRel decrements, whose
        // release sequence ends at zero: seeing it acquires every worker's
        // writes, on the spinning path as on the parked one.
        let done = || self.remaining.load(Ordering::Acquire) == 0;
        if sync::spin_briefly(done) {
            return;
        }
        let mut parked = lock_unpoisoned(&self.parked);
        while !done() {
            *parked = true;
            parked = self
                .cv
                .wait(parked)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// Type-erased pointer to the caller's `Fn(usize)` closure.
///
/// The pointer is only dereferenced while [`ThreadPool::run_team`] is
/// blocked waiting for [`JobState`], so the borrow it erases is always live.
struct JobRef {
    func: *const (dyn Fn(usize) + Sync),
    state: Arc<JobState>,
    tid: usize,
}

// SAFETY: the closure behind `func` is `Sync`, and `run_team` keeps the
// referent alive until every worker has signalled completion through
// `state`: `JobState::wait` returning orders the caller after everything
// each worker did before its `finish_one` (`scenarios::job_hand_off_*`
// run that claim on every schedule, and break it by weakening `fetch_sub`).
unsafe impl Send for JobRef {}

impl JobRef {
    /// Run the job on this worker and report to its `JobState`; a panic
    /// is caught and flagged for the caller to re-raise.
    fn run(self) {
        // SAFETY: see `JobRef` — the referent outlives the job.
        let f = unsafe { &*self.func };
        if catch_unwind(AssertUnwindSafe(|| f(self.tid))).is_err() {
            // ORDER: Release — pairs with the caller's Acquire load after
            // wait(); the flag must be visible once the job counter hits
            // zero.
            self.state.panicked.store(true, Ordering::Release);
        }
        self.state.finish_one();
    }
}

/// A helper's mailbox: at most one job posted and not yet taken, and the
/// close that tells the helper to exit once it has taken that job.
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
    /// `state.job.is_some() || state.closed`, stored under the lock, so
    /// the worker's spin and the poster's choice of helpers can read it
    /// without taking the lock.
    posted: AtomicBool,
}

struct SlotState {
    job: Option<JobRef>,
    /// Whether the worker has parked on `cv`; a post or a close reads it
    /// under the lock and signals only a parked worker.
    parked: bool,
    closed: bool,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            state: Mutex::new(SlotState {
                job: None,
                parked: false,
                closed: false,
            }),
            cv: Condvar::new(),
            posted: AtomicBool::new(false),
        }
    }

    /// Whether a posted job is still waiting for the worker. Read by a
    /// poster holding the pool's worker lock: every post happened-before
    /// that lock, so `false` means the worker has taken the last one and
    /// the slot stays empty until this poster fills it.
    fn occupied(&self) -> bool {
        // ORDER: Relaxed — a mirror; the job itself moves under the lock.
        self.posted.load(Ordering::Relaxed)
    }

    /// Hand `job` to the worker. The caller holds the pool's worker lock
    /// and has seen the slot unoccupied, so it is empty.
    fn post(&self, job: JobRef) {
        let mut st = lock_unpoisoned(&self.state);
        debug_assert!(st.job.is_none(), "posted to an occupied slot");
        st.job = Some(job);
        self.publish(&st);
    }

    /// Tell the worker to exit once any posted job has run.
    fn close(&self) {
        let mut st = lock_unpoisoned(&self.state);
        st.closed = true;
        self.publish(&st);
    }

    /// Mirror a post or close into `posted` and signal a parked worker.
    fn publish(&self, st: &SlotState) {
        // ORDER: Relaxed — a mirror; the job itself moves under the lock.
        self.posted.store(true, Ordering::Relaxed);
        if st.parked {
            self.cv.notify_one();
        }
    }

    /// The worker's receive: the next job, or `None` once closed. Each
    /// call follows a job (or the spawn a post is about to follow), so
    /// the worker spins briefly before it parks.
    fn recv(&self) -> Option<JobRef> {
        sync::spin_briefly(|| self.occupied());
        let mut st = lock_unpoisoned(&self.state);
        loop {
            if let Some(job) = st.job.take() {
                // ORDER: Relaxed — a mirror; the job itself moves under
                // the lock.
                self.posted.store(st.closed, Ordering::Relaxed);
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st.parked = true;
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st.parked = false;
        }
    }
}

/// A helper thread's whole life: run what is posted until the slot closes.
fn work(slot: &Slot) {
    while let Some(job) = slot.recv() {
        job.run();
    }
}

/// One helper worker: its slot and its join handle (kept so that
/// [`ThreadPool::shutdown`] can wait for a clean exit).
struct Worker {
    slot: Arc<Slot>,
    handle: std::thread::JoinHandle<()>,
}

/// A persistent fork/join pool. See the module docs.
pub struct ThreadPool {
    workers: Mutex<Vec<Worker>>,
    /// Hard cap on workers, to bound resource use on small hosts.
    max_workers: usize,
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

thread_local! {
    /// Per-thread pool override consulted by [`ThreadPool::with_current`].
    static CURRENT: std::cell::RefCell<Option<Arc<ThreadPool>>> =
        const { std::cell::RefCell::new(None) };
}

/// Restores the previous thread-current pool on drop (see
/// [`ThreadPool::enter`]).
pub struct PoolGuard {
    previous: Option<Arc<ThreadPool>>,
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.previous.take());
    }
}

impl ThreadPool {
    /// Create a pool that may grow up to `max_workers` helper threads
    /// (the calling thread is always an additional implicit worker).
    pub fn with_max_workers(max_workers: usize) -> ThreadPool {
        ThreadPool {
            workers: Mutex::new(Vec::new()),
            max_workers,
        }
    }

    /// The process-wide pool used by the BLAS entry points when no
    /// thread-current override is installed (see [`ThreadPool::enter`]).
    pub fn global() -> &'static ThreadPool {
        GLOBAL.get_or_init(|| ThreadPool::with_max_workers(1024))
    }

    /// Install `pool` as this thread's pool for the lifetime of the
    /// returned guard: every BLAS entry point reached from this thread
    /// dispatches onto it instead of the process-global pool.
    ///
    /// This is the seam a sharded service layer uses to give each
    /// scheduler cell a *disjoint slice* of worker threads — each cell
    /// creates its own bounded pool and enters it on its scheduler thread,
    /// so one tenant's 8-thread gemm cannot ride on (or stall behind)
    /// another cell's workers. Guards nest: entering a second pool shadows
    /// the first until the inner guard drops.
    ///
    /// The override is per-thread and is *not* inherited by pool workers:
    /// a worker of pool X that itself issues a parallel BLAS call would
    /// dispatch onto the global pool. The service layer avoids that regime
    /// by executing batched jobs at `nt == 1`.
    #[must_use = "the override lasts only while the guard is alive"]
    pub fn enter(pool: Arc<ThreadPool>) -> PoolGuard {
        let previous = CURRENT.with(|c| c.borrow_mut().replace(pool));
        PoolGuard { previous }
    }

    /// Run `f` against this thread's current pool: the innermost
    /// [`ThreadPool::enter`] override, or the process-global pool when none
    /// is installed. All BLAS routine drivers dispatch through this.
    pub fn with_current<R>(f: impl FnOnce(&ThreadPool) -> R) -> R {
        // Clone the Arc out before calling `f` so a re-entrant
        // `with_current` (or an `enter` inside `f`) never observes a held
        // RefCell borrow.
        let current = CURRENT.with(|c| c.borrow().clone());
        match current {
            Some(pool) => f(&pool),
            None => f(ThreadPool::global()),
        }
    }

    /// Number of hardware threads visible to this process.
    pub fn hardware_threads() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Number of helper workers currently alive.
    pub fn spawned_workers(&self) -> usize {
        lock_unpoisoned(&self.workers).len()
    }

    fn ensure_workers(&self, need: usize) {
        let mut ws = lock_unpoisoned(&self.workers);
        while ws.len() < need.min(self.max_workers) {
            let slot = Arc::new(Slot::new());
            let worker_slot = Arc::clone(&slot);
            let idx = ws.len();
            let spawned = std::thread::Builder::new()
                .name(format!("blas3-worker-{idx}"))
                .spawn(move || work(&worker_slot));
            match spawned {
                Ok(handle) => ws.push(Worker { slot, handle }),
                // Degrade, don't panic: thread creation can fail under
                // resource exhaustion, and `run_team` sizes the team by
                // the helpers present, so a partial pool only costs
                // parallelism.
                Err(_) => break,
            }
        }
    }

    /// Tear down every helper worker and wait for them to exit.
    ///
    /// Closing a worker's slot makes its receive loop end — at once, even
    /// mid-spin — so workers finish any posted job and return; the join
    /// then observes the clean exit. The pool stays usable afterwards — the
    /// next [`ThreadPool::run`] simply re-spawns what it needs — so service
    /// layers and tests can reclaim threads instead of leaking
    /// process-lifetime workers. Called automatically on [`Drop`].
    pub fn shutdown(&self) {
        let drained: Vec<Worker> = {
            let mut ws = lock_unpoisoned(&self.workers);
            ws.drain(..).collect()
        };
        for w in drained {
            w.slot.close();
            // A worker that panicked unwinds through catch_unwind already;
            // a join error here would mean the thread died outside a job,
            // which the pool treats as already-exited.
            let _ = w.handle.join();
        }
    }

    /// Call `f(tid)` exactly once for every logical worker id in `0..nt`,
    /// in parallel on a team of up to `nt` members, and wait for all of
    /// them. `nt == 0` is treated as 1. Panics (after all members finish)
    /// if any call panicked.
    ///
    /// Member `m` of a team of `size` runs `m, m + size, …` below `nt`: a
    /// full team runs one id each, and a short-handed one (the worker cap,
    /// a refused spawn, a racing [`ThreadPool::shutdown`]) spreads the
    /// leftover ids over the members present. So `f` must never block on
    /// another id — cooperating workers use [`ThreadPool::run_team`].
    pub fn run<F>(&self, nt: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let nt = nt.max(1);
        self.run_team(nt, |team| {
            for tid in (team.tid..nt).step_by(team.size) {
                f(tid);
            }
        });
    }

    /// Run `f` on a *team* of cooperating members — the caller plus up to
    /// `nt - 1` helpers — that may rendezvous on the team's reusable
    /// barrier ([`TeamCtx::barrier`]), and wait for all of them.
    ///
    /// * The closure receives a [`TeamCtx`] carrying the member id **and the
    ///   actual team size**: the team is sized by the helpers present and
    ///   free (fewer than `nt - 1` under the worker cap, a refused spawn, a
    ///   racing [`ThreadPool::shutdown`], or helpers still holding a job
    ///   another thread's call posted), and every member of it runs
    ///   concurrently, so barrier waits always complete.
    /// * A panicking member poisons the barrier, releasing every current and
    ///   future waiter immediately so the region drains instead of hanging;
    ///   the call then panics once all members have returned.
    ///
    /// Callers split work by `team.size` and must route *every* member
    /// through the same sequence of barrier waits.
    pub fn run_team<F>(&self, nt: usize, f: F)
    where
        F: Fn(TeamCtx<'_>) + Sync,
    {
        let nt = nt.max(1);
        if nt == 1 {
            return TeamCtx::solo(f);
        }
        let helpers = (nt - 1).min(self.max_workers);
        self.ensure_workers(helpers);
        // Size the team by the helpers actually present (a concurrent
        // shutdown may have drained some since `ensure_workers`) whose
        // slot is free (another thread's call may have posted to one that
        // has not taken it yet): the barrier and the completion state must
        // count exactly the members that run — never wait for a job that
        // was never sent. Only a holder of this lock posts, and a slot only
        // goes from occupied to free meanwhile, so the posting pass below
        // finds at least `dispatched` free slots.
        let ws = lock_unpoisoned(&self.workers);
        let free = || ws.iter().filter(|w| !w.slot.occupied());
        let dispatched = free().take(helpers).count();
        let size = dispatched + 1;
        let barrier = TeamBarrier::new(size);
        let wrap = |tid: usize| {
            let result = catch_unwind(AssertUnwindSafe(|| {
                f(TeamCtx {
                    tid,
                    size,
                    barrier: &barrier,
                })
            }));
            if let Err(payload) = result {
                // Free every member blocked on the barrier before
                // propagating, or the team would deadlock waiting for us.
                barrier.poison();
                std::panic::resume_unwind(payload);
            }
        };
        let func: *const (dyn Fn(usize) + Sync) = &wrap;
        // SAFETY: only the lifetime is transmuted away; this function does
        // not return until `state.wait()` has observed every worker's
        // completion, so no worker can touch `wrap` (or the barrier and `f`
        // it borrows) after they go out of scope.
        let func: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(func) };
        let state = Arc::new(JobState::new(dispatched));
        for (i, w) in free().take(dispatched).enumerate() {
            w.slot.post(JobRef {
                func,
                state: Arc::clone(&state),
                tid: i + 1,
            });
        }
        drop(ws);
        let local = catch_unwind(AssertUnwindSafe(|| wrap(0)));
        if dispatched > 0 {
            state.wait();
        }
        // ORDER: Acquire — pairs with the workers' Release store; wait()
        // already returned, so a set flag is ordered before this load.
        if local.is_err() || state.panicked.load(Ordering::Acquire) {
            panic!("blas3 parallel job panicked");
        }
    }

    /// [`ThreadPool::run`] on the thread-current pool (the innermost
    /// [`ThreadPool::enter`] override, else the global pool). The routine
    /// drivers dispatch through this so a service cell can confine their
    /// parallelism to its own worker slice.
    pub fn run_current<F>(nt: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        ThreadPool::with_current(|pool| pool.run(nt, f))
    }

    /// [`ThreadPool::run_team`] on the thread-current pool (see
    /// [`ThreadPool::run_current`]).
    pub fn run_team_current<F>(nt: usize, f: F)
    where
        F: Fn(TeamCtx<'_>) + Sync,
    {
        ThreadPool::with_current(|pool| pool.run_team(nt, f))
    }

    /// Split `len` items into `nt` nearly-equal contiguous chunks; returns
    /// the `(start, end)` of chunk `tid`, empty when there is no work left
    /// for that worker.
    pub fn chunk(len: usize, nt: usize, tid: usize) -> (usize, usize) {
        let nt = nt.max(1);
        let base = len / nt;
        let extra = len % nt;
        let start = tid * base + tid.min(extra);
        let size = base + usize::from(tid < extra);
        let end = (start + size).min(len);
        (start.min(len), end)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A reusable sense-reversing barrier for one team of cooperating workers.
///
/// Compute-bound teams rendezvous many times per BLAS call (once per shared
/// packed panel), so the barrier spins briefly and then yields instead of
/// taking a mutex/condvar round-trip; yielding keeps oversubscribed hosts
/// (more workers than cores — a regime the ADSALA model must be able to
/// measure) from burning whole scheduler quanta in spin loops.
///
/// Crossing the barrier establishes happens-before between everything the
/// members wrote before arriving and everything they read after leaving —
/// that is what lets one worker read a panel another worker packed.
pub struct TeamBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
    total: usize,
}

impl TeamBarrier {
    /// Barrier for `total` members; every member must call [`wait`] for any
    /// member to proceed past it.
    ///
    /// [`wait`]: TeamBarrier::wait
    pub fn new(total: usize) -> TeamBarrier {
        TeamBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            total: total.max(1),
        }
    }

    /// Block until all `total` members have arrived. Reusable: the next
    /// round begins as soon as the last arrival releases the current one.
    ///
    /// # Panics
    /// Once the barrier is [`poison`](TeamBarrier::poison)ed: the region is
    /// already lost to another member's panic, and a survivor that kept
    /// computing would race it on shared state (the packed panels) — so
    /// every waiter unwinds instead, and the team call re-raises once all
    /// members have drained.
    pub fn wait(&self) {
        if self.total == 1 {
            return;
        }
        if self.is_poisoned() {
            panic!("team barrier poisoned by another member's panic");
        }
        // ORDER: Acquire — snapshot the generation before arriving so the
        // spin below cannot miss a flip that happens in between.
        let gen = self.generation.load(Ordering::Acquire);
        // ORDER: AcqRel — release our writes to the arrival chain, acquire
        // the writes of everyone who arrived before us.
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // ORDER: Relaxed — only this (last) arriver touches the reset;
            // the Release flip below publishes it for the next round.
            self.arrived.store(0, Ordering::Relaxed);
            // ORDER: Release — the flip publishes the whole round's writes
            // (chained through the AcqRel arrivals) to every spinner.
            self.generation.fetch_add(1, Ordering::Release);
            return;
        }
        sync::spin_until(|| {
            // ORDER: Acquire — pairs with the Release flip; seeing the new
            // generation also makes the round's writes visible.
            if self.generation.load(Ordering::Acquire) != gen {
                return true;
            }
            // ORDER: Acquire — pairs with poison()'s Release store.
            if self.poisoned.load(Ordering::Acquire) {
                panic!("team barrier poisoned by another member's panic");
            }
            false
        });
    }

    /// Mark the barrier unusable: every current and future [`wait`]
    /// unwinds (see there). Called when a team member panics mid-region.
    ///
    /// [`wait`]: TeamBarrier::wait
    pub fn poison(&self) {
        // ORDER: Release — members observe the flag with Acquire and
        // unwind; Release keeps the panicking member's writes ordered
        // before the observable poisoning.
        self.poisoned.store(true, Ordering::Release);
    }

    /// Whether [`poison`](TeamBarrier::poison) has been called.
    pub fn is_poisoned(&self) -> bool {
        // ORDER: Acquire — pairs with poison()'s Release store.
        self.poisoned.load(Ordering::Acquire)
    }
}

/// One member's view of a cooperative team: its id, the team size to split
/// work by, and the shared rendezvous barrier.
#[derive(Clone, Copy)]
pub struct TeamCtx<'a> {
    /// This member's id, `0..size`.
    pub tid: usize,
    /// Number of members running concurrently (normally the `nt` passed to
    /// [`ThreadPool::run_team`]; smaller when the pool is short-handed).
    pub size: usize,
    barrier: &'a TeamBarrier,
}

impl TeamCtx<'_> {
    /// Run `f` as a team of one on the calling thread: no pool, and every
    /// [`barrier`](TeamCtx::barrier) returns at once. The `nt == 1` arm of
    /// [`ThreadPool::run_team`], and how the serial GEMM entry runs the
    /// cooperative engine.
    pub(crate) fn solo<R>(f: impl FnOnce(TeamCtx<'_>) -> R) -> R {
        let barrier = TeamBarrier::new(1);
        f(TeamCtx {
            tid: 0,
            size: 1,
            barrier: &barrier,
        })
    }

    /// Rendezvous with every other team member (see [`TeamBarrier::wait`]).
    #[inline]
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// This member's contiguous chunk of `len` items, split evenly over the
    /// team (shorthand for [`ThreadPool::chunk`] with the team's geometry).
    #[inline]
    pub fn chunk(&self, len: usize) -> (usize, usize) {
        ThreadPool::chunk(len, self.size, self.tid)
    }
}

/// Wrapper that lets disjoint-region writers share a raw mutable pointer.
///
/// The BLAS routines partition output matrices into disjoint regions per
/// worker; this wrapper carries the base pointer across the `Sync` closure
/// boundary. All safety obligations are local to each routine: workers must
/// write only to their own region.
#[derive(Clone, Copy)]
pub struct SendPtr<T>(pub *mut T);

// SAFETY: dereferencing is the responsibility of the routines, which ensure
// disjoint access; the pointer itself is just an address.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: `&SendPtr` only yields copies of the address, never a
// dereference; the disjoint-region contract above covers shared use.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer.
    #[inline(always)]
    pub fn get(self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn runs_all_tids_exactly_once() {
        let pool = ThreadPool::with_max_workers(16);
        for nt in [1, 2, 3, 7, 16] {
            let hits = (0..nt).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
            pool.run(nt, |tid| {
                hits[tid].fetch_add(1, Ordering::Relaxed);
            });
            for h in &hits {
                assert_eq!(h.load(Ordering::Relaxed), 1);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn zero_threads_treated_as_one() {
        let pool = ThreadPool::with_max_workers(4);
        let count = AtomicUsize::new(0);
        pool.run(0, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn pool_reuses_workers_across_calls() {
        let pool = ThreadPool::with_max_workers(8);
        pool.run(4, |_| {});
        let after_first = pool.spawned_workers();
        pool.run(4, |_| {});
        assert_eq!(pool.spawned_workers(), after_first);
        assert_eq!(after_first, 3);
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn parallel_sum_matches_serial() {
        let pool = ThreadPool::with_max_workers(8);
        let data: Vec<u64> = (0..10_000).collect();
        let total = AtomicU64::new(0);
        let nt = 5;
        pool.run(nt, |tid| {
            let (s, e) = ThreadPool::chunk(data.len(), nt, tid);
            let part: u64 = data[s..e].iter().sum();
            total.fetch_add(part, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 10_000 * 9_999 / 2);
    }

    #[test]
    fn chunk_covers_range_without_overlap() {
        for len in [0usize, 1, 7, 100, 101] {
            for nt in [1usize, 2, 3, 8, 150] {
                let mut covered = vec![false; len];
                let mut prev_end = 0;
                for tid in 0..nt {
                    let (s, e) = ThreadPool::chunk(len, nt, tid);
                    assert!(s <= e);
                    assert_eq!(s, prev_end.min(len));
                    for c in covered[s..e].iter_mut() {
                        assert!(!*c);
                        *c = true;
                    }
                    prev_end = e.max(prev_end);
                }
                assert!(covered.into_iter().all(|c| c), "len={len} nt={nt}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn a_capped_pool_deals_every_tid_once_over_a_team_of_the_helpers_present() {
        // Two helpers at most: seven ids land on a team of three.
        let pool = ThreadPool::with_max_workers(2);
        let hits: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
        pool.run(7, |tid| {
            hits[tid].fetch_add(1, Ordering::Relaxed);
        });
        for (tid, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "tid {tid}");
        }
        assert_eq!(pool.spawned_workers(), 2);

        let members: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
        pool.run_team(7, |team| {
            assert_eq!(team.size, 3);
            members[team.tid].fetch_add(1, Ordering::Relaxed);
            // All three members are live at once, or this never returns.
            team.barrier();
        });
        let ran: Vec<usize> = members.iter().map(|m| m.load(Ordering::Relaxed)).collect();
        assert_eq!(ran, [1, 1, 1, 0, 0, 0, 0]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn shutdown_joins_workers_and_pool_recovers() {
        let pool = ThreadPool::with_max_workers(8);
        pool.run(4, |_| {});
        assert_eq!(pool.spawned_workers(), 3);
        pool.shutdown();
        assert_eq!(pool.spawned_workers(), 0);
        // Shutdown is not terminal: the next run re-spawns what it needs.
        let count = AtomicUsize::new(0);
        pool.run(4, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
        assert_eq!(pool.spawned_workers(), 3);
        // Idempotent, including through Drop at scope end.
        pool.shutdown();
        pool.shutdown();
        assert_eq!(pool.spawned_workers(), 0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn run_racing_shutdown_neither_hangs_nor_loses_tids() {
        let pool = ThreadPool::with_max_workers(8);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let runner = s.spawn(|| {
                for _ in 0..200 {
                    pool.run(4, |_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            // Concurrent shutdowns may drain workers mid-run; every run
            // must still execute all 4 tids (locally if need be) and return.
            for _ in 0..50 {
                pool.shutdown();
                std::thread::yield_now();
            }
            runner.join().unwrap();
        });
        assert_eq!(total.load(Ordering::Relaxed), 200 * 4);
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn a_shutdown_inside_the_spin_window_returns_at_once() {
        // Right after a call returns, its helper is spinning for the next
        // job; the close must end that spin, not wait out its budget.
        let pool = ThreadPool::with_max_workers(1);
        let mut took: Vec<Duration> = (0..5)
            .map(|_| {
                pool.run(2, |_| {});
                let start = Instant::now();
                pool.shutdown();
                start.elapsed()
            })
            .collect();
        took.sort();
        assert!(took[2] < Duration::from_millis(5), "{took:?}");
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn shutdown_after_worker_panic_still_joins() {
        let pool = ThreadPool::with_max_workers(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(3, |tid| {
                if tid == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        pool.shutdown();
        assert_eq!(pool.spawned_workers(), 0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn team_barrier_synchronises_phases() {
        // Phase 1: every member writes its slot; barrier; phase 2: every
        // member reads all slots. Any missed publication fails the sum.
        let pool = ThreadPool::with_max_workers(8);
        for nt in [1usize, 2, 3, 7] {
            let slots: Vec<AtomicUsize> = (0..nt).map(|_| AtomicUsize::new(0)).collect();
            let total = AtomicUsize::new(0);
            pool.run_team(nt, |team| {
                assert!(team.size >= 1 && team.size <= nt);
                slots[team.tid].store(team.tid + 1, Ordering::Relaxed);
                team.barrier();
                let sum: usize = (0..team.size)
                    .map(|t| slots[t].load(Ordering::Relaxed))
                    .sum();
                total.fetch_add(sum, Ordering::Relaxed);
            });
            // Each member saw the full sum 1 + 2 + ... + size.
            let size_sum: usize = (1..=nt).sum();
            assert_eq!(total.load(Ordering::Relaxed), nt * size_sum, "nt={nt}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn team_barrier_reusable_many_rounds() {
        let pool = ThreadPool::with_max_workers(4);
        let nt = 4;
        let counter = AtomicUsize::new(0);
        let rounds = 100;
        pool.run_team(nt, |team| {
            for r in 0..rounds {
                if team.tid == 0 {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                team.barrier();
                // After round r's barrier, everyone must observe r+1.
                assert_eq!(counter.load(Ordering::Relaxed), r + 1);
                team.barrier();
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), rounds);
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn team_member_panic_poisons_barrier_instead_of_hanging() {
        let pool = ThreadPool::with_max_workers(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_team(3, |team| {
                if team.tid == 1 {
                    panic!("boom");
                }
                // Without poisoning, these members would spin forever
                // waiting for tid 1; with it, they unwind here instead of
                // free-running into the region tid 1 abandoned.
                team.barrier();
                team.barrier();
            });
        }));
        assert!(result.is_err());
        // Pool must still be usable afterwards with a fresh barrier.
        let count = AtomicUsize::new(0);
        pool.run_team(3, |team| {
            team.barrier();
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn team_chunk_matches_pool_chunk() {
        let pool = ThreadPool::with_max_workers(4);
        pool.run_team(3, |team| {
            assert_eq!(team.chunk(10), ThreadPool::chunk(10, team.size, team.tid));
        });
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn enter_overrides_current_pool_and_nests() {
        // No override: with_current sees the global pool.
        ThreadPool::with_current(|p| {
            assert!(std::ptr::eq(p, ThreadPool::global()));
        });
        let outer = Arc::new(ThreadPool::with_max_workers(2));
        let inner = Arc::new(ThreadPool::with_max_workers(3));
        {
            let _g1 = ThreadPool::enter(Arc::clone(&outer));
            ThreadPool::with_current(|p| assert!(std::ptr::eq(p, &*outer)));
            {
                let _g2 = ThreadPool::enter(Arc::clone(&inner));
                ThreadPool::with_current(|p| assert!(std::ptr::eq(p, &*inner)));
            }
            // Inner guard dropped: outer override restored.
            ThreadPool::with_current(|p| assert!(std::ptr::eq(p, &*outer)));
        }
        ThreadPool::with_current(|p| {
            assert!(std::ptr::eq(p, ThreadPool::global()));
        });
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn run_current_dispatches_onto_the_entered_pool() {
        let pool = Arc::new(ThreadPool::with_max_workers(4));
        let _g = ThreadPool::enter(Arc::clone(&pool));
        let count = AtomicUsize::new(0);
        ThreadPool::run_current(3, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
        // The helpers were spawned by the entered pool, not the global one.
        assert_eq!(pool.spawned_workers(), 2);
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn override_is_per_thread_not_inherited() {
        let pool = Arc::new(ThreadPool::with_max_workers(4));
        let _g = ThreadPool::enter(Arc::clone(&pool));
        std::thread::scope(|s| {
            s.spawn(|| {
                // A fresh thread sees no override.
                ThreadPool::with_current(|p| {
                    assert!(std::ptr::eq(p, ThreadPool::global()));
                });
            });
        });
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn worker_panic_propagates() {
        let pool = ThreadPool::with_max_workers(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(3, |tid| {
                if tid == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool must still be usable afterwards.
        let count = AtomicUsize::new(0);
        pool.run(3, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }
}

/// The job hand-off under the interleaving checker (`--features chaos`):
/// `JobState` itself, scheduled through [`crate::sync`], with the job's
/// outputs stood in for by `DataCell`s that flag any read not ordered after
/// its write — the `SAFETY` argument of `JobRef`, and of the lifetime erase
/// in [`ThreadPool::run_team`], as an executable statement.
#[cfg(all(test, feature = "chaos"))]
mod scenarios {
    use super::*;
    use crate::chaos::{self, weakened, AccessKind, DataCell, Hooks, ThreadBody, Weakening};

    /// Two workers each write their output and `finish_one()`; the third
    /// thread is the caller: it `wait()`s, then reads both outputs.
    fn job_hand_off_bodies() -> Vec<ThreadBody> {
        let state = Arc::new(JobState::new(2));
        let outputs = Arc::new([DataCell::new("output 0"), DataCell::new("output 1")]);
        let worker = |w: usize| -> ThreadBody {
            let (state, outputs) = (Arc::clone(&state), Arc::clone(&outputs));
            Box::new(move |hooks: &Hooks, tid: usize| {
                outputs[w].write(hooks, tid, 7);
                state.finish_one();
            })
        };
        let (first, second) = (worker(0), worker(1));
        let caller = Box::new(move |hooks: &Hooks, tid: usize| {
            state.wait();
            assert_eq!(outputs.each_ref().map(|o| o.read(hooks, tid)), [7, 7]);
        });
        vec![first, second, caller]
    }

    #[test]
    fn job_hand_off_orders_the_caller_after_every_worker() {
        chaos::prove("job hand-off", job_hand_off_bodies);
    }

    #[test]
    fn job_hand_off_with_a_relaxed_decrement_is_caught() {
        // `finish_one`'s decrement recorded as `Relaxed`: the worker that
        // is not last no longer publishes its output to the one that is.
        let relaxed_finish = Weakening {
            file: "pool.rs",
            kind: AccessKind::Rmw,
            order: Ordering::AcqRel,
        };
        let broken = || weakened(relaxed_finish, job_hand_off_bodies());
        let unsynchronised = |r: &chaos::RunReport| {
            let output = |v: &String| v.contains("unsynchronised read") && v.contains("output");
            assert!(r.violations.iter().any(output), "{r:?}");
        };
        let in_seed_block = |seed| chaos::run_interleaved(seed, 200_000, broken());
        let failure = chaos::explore(0..64, in_seed_block).expect_err("seed block missed it");
        unsynchronised(&failure.report);
        let dpor = chaos::dpor::explore_exhaustive(&Default::default(), broken);
        unsynchronised(&dpor.failure.expect("DPOR missed it"));
    }

    /// One helper's slot as the pool drives it, plus test-side tallies
    /// (plain atomics, touched one model thread at a time).
    struct Rig {
        slot: Slot,
        /// Stands in for the pool's worker lock: `true` while the helper
        /// is listed, i.e. until a shutdown has drained it. A fork posts
        /// only to a listed helper, and a shutdown closes only a drained
        /// one — the order `run_team` and `shutdown` keep under that lock.
        listed: Mutex<bool>,
        /// What a job writes and its caller reads after the join.
        output: DataCell,
        forks: std::sync::atomic::AtomicUsize,
        runs: std::sync::atomic::AtomicUsize,
        exits: std::sync::atomic::AtomicUsize,
        finished: std::sync::atomic::AtomicUsize,
    }

    impl Rig {
        fn new() -> Arc<Rig> {
            Arc::new(Rig {
                slot: Slot::new(),
                listed: Mutex::new(true),
                output: DataCell::new("job output"),
                forks: Default::default(),
                runs: Default::default(),
                exits: Default::default(),
                finished: Default::default(),
            })
        }

        /// `run_team`'s fork onto this helper, when it is still listed: a
        /// job that writes the output, posted under the worker lock, then
        /// the join and the caller's read of the output.
        fn fork(self: &Arc<Rig>) {
            let listed = lock_unpoisoned(&self.listed);
            if !*listed {
                return;
            }
            let rig = Arc::clone(self);
            let job = move |_: usize| {
                let (hooks, tid) = chaos::current().expect("a job runs on a model thread");
                rig.output.write(&hooks, tid, 7);
                rig.runs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            };
            let state = Arc::new(JobState::new(1));
            let (func, tid) = (&job as *const (dyn Fn(usize) + Sync), 1);
            self.slot.post(JobRef {
                func,
                state: Arc::clone(&state),
                tid,
            });
            drop(listed);
            self.forks.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            state.wait();
            let (hooks, tid) = chaos::current().expect("the caller is a model thread");
            assert_eq!(self.output.read(&hooks, tid), 7);
        }

        /// `ThreadPool::shutdown` for this helper: drain it, then close.
        fn shutdown(&self) {
            *lock_unpoisoned(&self.listed) = false;
            self.slot.close();
        }

        /// The helper thread: the pool's own worker loop.
        fn worker(self: &Arc<Rig>, bodies: usize) -> ThreadBody {
            let rig = Arc::clone(self);
            Box::new(move |_: &Hooks, _: usize| {
                work(&rig.slot);
                rig.exits.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                rig.finish(bodies);
            })
        }

        /// Last call of each of `bodies` bodies: the last one out checks
        /// that every posted job ran exactly once and the worker exited.
        fn finish(&self, bodies: usize) {
            use std::sync::atomic::Ordering::SeqCst;
            if self.finished.fetch_add(1, SeqCst) + 1 == bodies {
                assert_eq!(self.runs.load(SeqCst), self.forks.load(SeqCst));
                assert_eq!(self.exits.load(SeqCst), 1);
            }
        }
    }

    /// A post races the worker's spin-then-park and a shutdown: whichever
    /// lands first, a posted job runs exactly once before the worker exits,
    /// and no wake-up is lost (a lost one would show as a deadlock).
    fn slot_bodies() -> Vec<ThreadBody> {
        let rig = Rig::new();
        let (caller, closer) = (Arc::clone(&rig), Arc::clone(&rig));
        let fork: ThreadBody = Box::new(move |_: &Hooks, _: usize| {
            caller.fork();
            caller.finish(3);
        });
        let shutdown: ThreadBody = Box::new(move |_: &Hooks, _: usize| {
            closer.shutdown();
            closer.finish(3);
        });
        vec![rig.worker(3), fork, shutdown]
    }

    /// Two forks back to back onto one helper: the caller's join spins
    /// then parks on each, the worker's receive after the first job spins
    /// then parks against the second post, and each job's output reaches
    /// the caller. (No shutdown — `slot_bodies` races that — so the worker
    /// takes exactly two jobs, which keeps DPOR to ~3k schedules.)
    fn round_trip_bodies() -> Vec<ThreadBody> {
        let rig = Rig::new();
        let (caller, helper) = (Arc::clone(&rig), Arc::clone(&rig));
        let forks: ThreadBody = Box::new(move |_: &Hooks, _: usize| {
            caller.fork();
            caller.fork();
            assert_eq!(caller.runs.load(std::sync::atomic::Ordering::SeqCst), 2);
        });
        let worker: ThreadBody = Box::new(move |_: &Hooks, _: usize| {
            for _ in 0..2 {
                helper.slot.recv().expect("two jobs are posted").run();
            }
        });
        vec![worker, forks]
    }

    #[test]
    fn a_post_racing_the_workers_park_and_a_shutdown_runs_once_and_joins() {
        chaos::prove("slot: post vs park vs shutdown", slot_bodies);
    }

    #[test]
    fn back_to_back_forks_spin_then_park_on_both_sides() {
        chaos::prove("fork/join round trips", round_trip_bodies);
    }
}

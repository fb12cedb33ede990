//! The cooperative scheduler: real threads, exactly one runnable at a
//! time, handover only at explicit yield points. Two strategies pick the
//! next runner — a seeded PRNG (the classic seed sweep) or a script (the
//! DPOR engine in [`super::dpor`] replaying a chosen prefix, then
//! following a deterministic default rule). Determinism falls out of the
//! construction: the OS scheduler never gets to pick between two runnable
//! model threads.
//!
//! Two ingredients exist for exhaustive exploration:
//!
//! * **Declared accesses** — every modelled operation announces itself
//!   via [`Hooks::yield_access`] *before* executing, so the scheduler
//!   knows the next transition of every parked thread. Sleep sets (the
//!   DPOR pruning device) need exactly that.
//! * **[`Gate`]s** — futex-like parking with no happens-before edge.
//!   Spin waits branch unboundedly under systematic exploration; a gate
//!   removes the waiter from the enabled set instead, keeping the
//!   schedule space finite and making deadlocks detectable. A spin wait
//!   in shipped code ([`crate::sync::spin_until`]) needs no gate of its
//!   own: [`Hooks::wait_until`] parks it on the objects its condition read.

use super::vclock::VClock;
use super::Prng;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Marker payload for the abort unwind (budget exhausted, sleep-blocked,
/// or fatal): the wrapper recognises it and records the abort instead of
/// a model panic.
struct ChaosAbort;

/// Read/write class of a declared operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Pure load: independent of other reads of the same object.
    Read,
    /// Pure store.
    Write,
    /// Read-modify-write (including failed compare-exchanges, which
    /// still read — treating them as RMW is conservative but sound).
    Rmw,
}

/// What a modelled operation is about to do, declared at its yield point.
/// The DPOR engine treats two accesses as *dependent* when they touch the
/// same object and at least one writes; dependent transitions are where
/// backtrack points go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Identity of the modelled object (the [`vclock`](super::vclock)
    /// primitives mint one id per `ModelAtomic`/`DataCell` instance).
    pub obj: u64,
    /// Operation class.
    pub kind: AccessKind,
}

impl Access {
    /// Whether reordering `self` against `other` can change the outcome.
    pub fn dependent(&self, other: &Access) -> bool {
        self.obj == other.obj && !(self.kind == AccessKind::Read && other.kind == AccessKind::Read)
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Mint a process-unique id, for gates and modelled objects alike: a
/// modelled atomic doubles as a parking spot ([`Hooks::wait_until`]).
pub(super) fn next_id() -> u64 {
    // ORDER: Relaxed — only mints unique ids; nothing is published.
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// A futex-like parking spot. [`Hooks::gate_wait`] removes the caller
/// from the enabled set until someone calls [`Hooks::gate_open`]; the
/// wake is scheduler-level only and conveys **no** happens-before edge,
/// so a woken waiter still has to earn its memory-model edges through
/// `Acquire` loads. That keeps ordering bugs (a `Relaxed` flip) visible
/// even though the spin loop that used to find them is gone.
pub struct Gate {
    id: u64,
}

impl Gate {
    /// A fresh gate, distinct from every other gate in the process.
    pub fn new() -> Gate {
        Gate { id: next_id() }
    }
}

impl Default for Gate {
    fn default() -> Gate {
        Gate::new()
    }
}

/// One forced choice while replaying a DPOR prefix: add `sleep` (the
/// siblings already explored from this node) to the sleep set, then run
/// thread `choice`.
#[derive(Clone, Debug)]
pub struct ScriptEntry {
    /// Thread to run at this step; must be enabled (the run is flagged
    /// fatal otherwise — a nondeterministic scenario).
    pub choice: usize,
    /// Threads to put to sleep at this node before choosing.
    pub sleep: Vec<usize>,
}

/// One scheduling decision of a scripted run, as recorded for the DPOR
/// engine's race analysis and exploration stack.
#[derive(Clone, Debug)]
pub struct StepRecord {
    /// Thread that ran.
    pub chosen: usize,
    /// Sorted enabled set at this node (runnable, not gate-blocked).
    pub enabled: Vec<usize>,
    /// Sorted sleep set at entry to this node (after script injection,
    /// before the chosen transition woke dependents).
    pub sleep: Vec<usize>,
    /// The chosen thread's declared transition (`None`: thread start,
    /// bare yield, or a gate re-entry).
    pub access: Option<Access>,
}

/// How the next runner is picked.
enum Strategy {
    /// Seeded PRNG sweep — the classic mode.
    Random(Prng),
    /// DPOR mode: forced prefix, then lowest-id non-sleeping thread.
    Scripted {
        script: Vec<ScriptEntry>,
        pos: usize,
        sleep: BTreeSet<usize>,
        trace: Vec<StepRecord>,
    },
}

/// Why a run was cut short.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AbortKind {
    /// Step budget exhausted — a livelock signal, reported as `aborted`.
    Budget,
    /// Every enabled thread is asleep: the rest of this schedule is
    /// provably equivalent to one already explored. Not an error.
    SleepBlocked,
    /// Unrecoverable model problem (deadlock, nondeterministic scenario);
    /// a violation was recorded alongside.
    Fatal,
}

struct State {
    strategy: Strategy,
    /// Threads waiting to be handed the token.
    runnable: Vec<usize>,
    /// Thread currently holding the token (`None` during handover).
    current: Option<usize>,
    /// Declared next operation per thread (`None` until the thread
    /// reaches its first declared yield).
    pending: Vec<Option<Access>>,
    /// Wake keys a thread is parked on — one gate id, or the object ids a
    /// [`Hooks::wait_until`] condition read; empty when not parked.
    /// Blocked threads are not runnable and not enabled.
    blocked: Vec<Vec<u64>>,
    /// Per thread, while it evaluates a [`Hooks::wait_until`] condition:
    /// the objects the condition has read so far, and whether one of them
    /// has been written since.
    watch: Vec<Option<(Vec<u64>, bool)>>,
    /// Threads that have not finished yet.
    alive: usize,
    steps: u64,
    budget: u64,
    /// Set when the run is cut short: every yield point unwinds so the
    /// run drains instead of spinning forever.
    abort: Option<AbortKind>,
    /// Chosen thread ids in order — the schedule's identity.
    schedule: Vec<usize>,
    violations: Vec<String>,
}

struct Inner {
    state: Mutex<State>,
    cv: Condvar,
    /// The run's vector clocks, one per model thread.
    clocks: Mutex<Vec<VClock>>,
}

/// Handle the model code calls back into: yield points, gates, violation
/// reporting, and the run's vector clocks.
#[derive(Clone)]
pub struct Hooks {
    inner: Arc<Inner>,
}

thread_local! {
    /// Set around each body by [`run_interleaved`] / [`run_scripted`]: how
    /// [`crate::sync`]'s primitives find the scheduler (the loom pattern).
    static CURRENT: RefCell<Option<(Hooks, usize)>> = const { RefCell::new(None) };
}

/// The calling thread's scheduler handle and model-thread id while it runs
/// a body of a scheduler run; `None` anywhere else (a scenario *builder*
/// included: it runs before the threads exist).
pub fn current() -> Option<(Hooks, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// One model thread's body: receives the shared hooks and its thread id.
pub type ThreadBody = Box<dyn FnOnce(&Hooks, usize) + Send>;

/// Outcome of one run (seeded or scripted).
#[derive(Debug)]
pub struct RunReport {
    /// Memory-model and invariant violations, in detection order.
    pub violations: Vec<String>,
    /// Scheduler steps consumed.
    pub steps: u64,
    /// Model threads that panicked (deliberate, e.g. a poisoned barrier
    /// drain, or accidental — the caller decides which via expectations).
    pub panics: usize,
    /// Whether the run was cut short abnormally (budget exhausted,
    /// deadlock, nondeterministic scenario).
    pub aborted: bool,
    /// Whether the run stopped because every enabled thread was asleep —
    /// a provably redundant continuation, not an error.
    pub sleep_blocked: bool,
    /// Chosen thread ids in order: the schedule's identity, used for
    /// coverage counting and failure replay.
    pub schedule: Vec<usize>,
}

impl RunReport {
    /// No violations and no abnormal abort (panics are judged by the
    /// caller; sleep-blocking is pruning, not failure).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && !self.aborted
    }
}

impl Hooks {
    /// Hand the token back and block until the scheduler picks this
    /// thread again, without declaring an access (model-internal steps).
    pub fn yield_point(&self, tid: usize) {
        self.yield_with(tid, None);
    }

    /// Declare the operation about to execute, then yield. The vclock
    /// primitives call this so the scheduler always knows every parked
    /// thread's next transition — the ingredient sleep sets need.
    pub fn yield_access(&self, tid: usize, access: Access) {
        self.yield_with(tid, Some(access));
    }

    fn yield_with(&self, tid: usize, access: Option<Access>) {
        let mut st = lock_unpoisoned(&self.inner.state);
        // (Off the token after an abort: the thread outlived it through a
        // `catch_unwind`, or is unwinding through a guard's drop.)
        debug_assert!(st.abort.is_some() || st.current == Some(tid));
        st.pending[tid] = access;
        st.runnable.push(tid);
        st.current = None;
        Inner::dispatch(&mut st);
        self.inner.cv.notify_all();
        self.park_until_running(st, tid);
    }

    /// Park on `gate` until another thread opens it. Because model
    /// threads run one at a time and hand over only at yields, there is
    /// no lost-wakeup window between a model read and this park.
    pub fn gate_wait(&self, tid: usize, gate: &Gate) {
        let st = lock_unpoisoned(&self.inner.state);
        self.park_on(st, tid, vec![gate.id]);
    }

    fn park_on(&self, mut st: MutexGuard<'_, State>, tid: usize, keys: Vec<u64>) {
        debug_assert!(st.abort.is_some() || st.current == Some(tid));
        st.pending[tid] = None;
        st.blocked[tid] = keys;
        st.current = None;
        Inner::dispatch(&mut st);
        self.inner.cv.notify_all();
        self.park_until_running(st, tid);
    }

    /// Open `gate`: every thread parked on it becomes runnable again.
    /// The caller keeps the token — opening a gate is not a scheduling
    /// point, and (like a futex wake) conveys no happens-before edge.
    pub fn gate_open(&self, tid: usize, gate: &Gate) {
        self.open(tid, gate.id);
    }

    /// Open wake key `key`: a gate's id, or — after a modelled store or
    /// RMW — the id of the object written, which wakes every thread whose
    /// [`wait_until`](Hooks::wait_until) condition read it.
    pub(super) fn open(&self, tid: usize, key: u64) {
        let mut st = lock_unpoisoned(&self.inner.state);
        debug_assert!(st.abort.is_some() || st.current == Some(tid));
        for t in 0..st.blocked.len() {
            if st.blocked[t].contains(&key) {
                st.blocked[t].clear();
                st.runnable.push(t);
            }
            if let Some((reads, stale)) = &mut st.watch[t] {
                *stale |= reads.contains(&key);
            }
        }
    }

    /// A modelled load or RMW is reading `obj`: remember it if the thread
    /// is evaluating a [`wait_until`](Hooks::wait_until) condition.
    pub(super) fn note_read(&self, tid: usize, obj: u64) {
        if let Some((reads, _)) = &mut lock_unpoisoned(&self.inner.state).watch[tid] {
            reads.push(obj);
        }
    }

    /// The modelled spin wait: evaluate `done` (its modelled loads are
    /// ordinary declared steps) and, while it is `false`, park until some
    /// thread writes one of the objects it read. A write that slipped in
    /// at a yield *inside* the evaluation, after the load that would have
    /// seen it, marks the watch stale: `done` runs again instead of
    /// parking, so no wake-up is lost. Does not nest.
    pub fn wait_until(&self, tid: usize, mut done: impl FnMut() -> bool) {
        loop {
            lock_unpoisoned(&self.inner.state).watch[tid] = Some((Vec::new(), false));
            let finished = done();
            let mut st = lock_unpoisoned(&self.inner.state);
            let (reads, stale) = st.watch[tid].take().unwrap_or_default();
            if finished {
                return;
            }
            if !stale {
                self.park_on(st, tid, reads);
            }
        }
    }

    /// Record a violation (memory-model race, broken invariant). The run
    /// continues so one schedule can surface several independent findings.
    pub fn violation(&self, message: String) {
        let mut st = lock_unpoisoned(&self.inner.state);
        // Threads unwinding off the token after an abort find nothing real.
        if st.abort.is_none() {
            st.violations.push(message);
        }
    }

    /// The run's vector clocks, indexed by model-thread id.
    pub fn clocks(&self) -> MutexGuard<'_, Vec<VClock>> {
        let clocks = self.inner.clocks.lock();
        clocks.unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn park_until_running(&self, mut st: MutexGuard<'_, State>, tid: usize) {
        loop {
            if st.abort.is_some() {
                drop(st);
                if std::thread::panicking() {
                    // Unwinding already (a guard's drop reached a yield):
                    // a second panic would abort the process.
                    return;
                }
                // Unwind through the model; the wrapper records the abort.
                std::panic::panic_any(ChaosAbort);
            }
            if st.current == Some(tid) {
                return;
            }
            st = self
                .inner
                .cv
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

impl Inner {
    /// Pick the next runner if the token is free: uniformly at random in
    /// seeded mode, by script-then-default-rule in scripted mode.
    fn dispatch(st: &mut State) {
        if st.current.is_some() || st.abort.is_some() {
            return;
        }
        if st.runnable.is_empty() {
            if st.alive > 0 {
                // Live threads exist but none is enabled: every one of
                // them is parked on a gate nobody left to open.
                st.violations.push(format!(
                    "deadlock: all {} live model threads are gate-blocked",
                    st.alive
                ));
                st.abort = Some(AbortKind::Fatal);
            }
            return;
        }
        st.steps += 1;
        if st.steps > st.budget {
            st.abort = Some(AbortKind::Budget);
            return;
        }
        let tid = if let Strategy::Random(rng) = &mut st.strategy {
            let idx = rng.below(st.runnable.len());
            Some(st.runnable[idx])
        } else {
            Self::scripted_choice(st)
        };
        let Some(tid) = tid else {
            return; // abort already recorded by the chooser
        };
        let idx = st
            .runnable
            .iter()
            .position(|&t| t == tid)
            .expect("chosen thread must be runnable");
        st.runnable.swap_remove(idx);
        st.current = Some(tid);
        st.schedule.push(tid);
    }

    /// The scripted chooser: forced prefix, deterministic default rule
    /// (lowest-id enabled non-sleeping thread) past it, sleep-set
    /// bookkeeping, and the per-step trace record.
    fn scripted_choice(st: &mut State) -> Option<usize> {
        let State {
            strategy,
            runnable,
            pending,
            violations,
            abort,
            ..
        } = st;
        let Strategy::Scripted {
            script,
            pos,
            sleep,
            trace,
        } = strategy
        else {
            unreachable!("scripted_choice outside scripted mode");
        };
        let mut enabled: Vec<usize> = runnable.clone();
        enabled.sort_unstable();
        if *pos < script.len() {
            sleep.extend(script[*pos].sleep.iter().copied());
        }
        let chosen = if *pos < script.len() {
            let want = script[*pos].choice;
            if !enabled.contains(&want) {
                violations.push(format!(
                    "scripted choice {want} at step {} is not enabled ({enabled:?}): \
                     the scenario builder is nondeterministic",
                    *pos
                ));
                *abort = Some(AbortKind::Fatal);
                return None;
            }
            want
        } else {
            match enabled.iter().copied().find(|t| !sleep.contains(t)) {
                Some(t) => t,
                None => {
                    // Everything enabled is asleep: this continuation is
                    // provably covered by an already-explored schedule.
                    *abort = Some(AbortKind::SleepBlocked);
                    return None;
                }
            }
        };
        trace.push(StepRecord {
            chosen,
            enabled,
            sleep: sleep.iter().copied().collect(),
            access: pending[chosen],
        });
        *pos += 1;
        // Sleep-set propagation: executing the chosen transition wakes
        // every sleeper whose declared next operation depends on it (an
        // undeclared pending op is independent of everything).
        if let Some(acc) = pending[chosen] {
            sleep.retain(|&q| match pending[q] {
                Some(p) => !p.dependent(&acc),
                None => true,
            });
        }
        sleep.remove(&chosen);
        Some(chosen)
    }
}

fn lock_unpoisoned(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run `bodies` as model threads under the seed's schedule and report.
///
/// Each body receives the shared [`Hooks`] and its thread id; it must
/// call [`Hooks::yield_point`] / [`Hooks::yield_access`] around every
/// modelled operation (the [`vclock`](super::vclock) primitives do so
/// internally). `budget` bounds total scheduler steps: exhausting it
/// aborts the run and is reported as a livelock/deadlock.
pub fn run_interleaved(seed: u64, budget: u64, bodies: Vec<ThreadBody>) -> RunReport {
    run_with(Strategy::Random(Prng::new(seed)), budget, bodies).0
}

/// Run `bodies` under a scripted schedule: forced choices (with sleep
/// injections) from `script`, then the deterministic default rule. Also
/// returns the per-step trace the DPOR engine analyzes.
pub fn run_scripted(
    script: Vec<ScriptEntry>,
    budget: u64,
    bodies: Vec<ThreadBody>,
) -> (RunReport, Vec<StepRecord>) {
    run_with(
        Strategy::Scripted {
            script,
            pos: 0,
            sleep: BTreeSet::new(),
            trace: Vec::new(),
        },
        budget,
        bodies,
    )
}

fn run_with(
    strategy: Strategy,
    budget: u64,
    bodies: Vec<ThreadBody>,
) -> (RunReport, Vec<StepRecord>) {
    let threads = bodies.len();
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            strategy,
            runnable: (0..threads).collect(),
            current: None,
            pending: vec![None; threads],
            blocked: vec![Vec::new(); threads],
            watch: vec![None; threads],
            alive: threads,
            steps: 0,
            budget,
            abort: None,
            schedule: Vec::new(),
            violations: Vec::new(),
        }),
        cv: Condvar::new(),
        clocks: Mutex::new(vec![VClock::new(threads); threads]),
    });
    // Seat the first runner before any thread starts.
    {
        let mut st = lock_unpoisoned(&inner.state);
        Inner::dispatch(&mut st);
    }
    let mut panics = 0usize;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (tid, body) in bodies.into_iter().enumerate() {
            let inner = Arc::clone(&inner);
            let hooks = Hooks { inner };
            handles.push(scope.spawn(move || {
                // Wait to be seated, run, then retire the token.
                {
                    let mut st = lock_unpoisoned(&hooks.inner.state);
                    while st.current != Some(tid) && st.abort.is_none() {
                        st = hooks
                            .inner
                            .cv
                            .wait(st)
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                    }
                    if st.abort.is_some() {
                        st.alive -= 1;
                        return false;
                    }
                }
                CURRENT.with(|c| *c.borrow_mut() = Some((hooks.clone(), tid)));
                let result = catch_unwind(AssertUnwindSafe(|| body(&hooks, tid)));
                let mut st = lock_unpoisoned(&hooks.inner.state);
                // A panic after the abort is teardown, whatever its payload
                // (code under test may `catch_unwind` the abort itself).
                let panicked = match result {
                    Ok(()) => false,
                    Err(payload) => !payload.is::<ChaosAbort>() && st.abort.is_none(),
                };
                st.alive -= 1;
                st.pending[tid] = None;
                if st.current == Some(tid) {
                    st.current = None;
                }
                Inner::dispatch(&mut st);
                hooks.inner.cv.notify_all();
                panicked
            }));
        }
        for handle in handles {
            if handle.join().unwrap_or(true) {
                panics += 1;
            }
        }
    });
    let st = lock_unpoisoned(&inner.state);
    let trace = match &st.strategy {
        Strategy::Scripted { trace, .. } => trace.clone(),
        Strategy::Random(_) => Vec::new(),
    };
    let report = RunReport {
        violations: st.violations.clone(),
        steps: st.steps,
        panics,
        aborted: matches!(st.abort, Some(AbortKind::Budget | AbortKind::Fatal)),
        sleep_blocked: matches!(st.abort, Some(AbortKind::SleepBlocked)),
        schedule: st.schedule.clone(),
    };
    (report, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn interleaving(seed: u64) -> Vec<usize> {
        let trace = Arc::new(Mutex::new(Vec::new()));
        let bodies: Vec<ThreadBody> = (0..3)
            .map(|_| {
                let trace = Arc::clone(&trace);
                Box::new(move |hooks: &Hooks, tid: usize| {
                    for _ in 0..4 {
                        trace
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .push(tid);
                        hooks.yield_point(tid);
                    }
                }) as ThreadBody
            })
            .collect();
        let report = run_interleaved(seed, 10_000, bodies);
        assert!(report.is_clean(), "{report:?}");
        let guard = trace
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        guard.clone()
    }

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(interleaving(42), interleaving(42));
    }

    #[test]
    fn different_seeds_eventually_differ() {
        let base = interleaving(0);
        assert!(
            (1..32).any(|s| interleaving(s) != base),
            "32 seeds produced identical schedules"
        );
    }

    #[test]
    fn budget_exhaustion_reports_abort() {
        let spins = Arc::new(AtomicUsize::new(0));
        let spins2 = Arc::clone(&spins);
        let report = run_interleaved(
            1,
            100,
            vec![Box::new(move |hooks, tid| {
                // Livelock on purpose: wait for a flag nobody sets.
                loop {
                    spins2.fetch_add(1, Ordering::Relaxed);
                    hooks.yield_point(tid);
                }
            })],
        );
        assert!(report.aborted);
        assert!(spins.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn model_panics_are_counted_not_propagated() {
        let report = run_interleaved(
            1,
            1_000,
            vec![
                Box::new(|hooks, tid| {
                    hooks.yield_point(tid);
                    panic!("model thread panic");
                }),
                Box::new(|hooks, tid| hooks.yield_point(tid)),
            ],
        );
        assert_eq!(report.panics, 1);
        assert!(!report.aborted);
    }

    #[test]
    fn gate_wakes_parked_thread() {
        // Sweep seeds: whatever order the two threads start in, the run
        // must complete without deadlock or abort. Gates are futex-like
        // (an open only wakes currently-parked threads), so the waiter
        // follows the check-then-park pattern; cooperative scheduling
        // closes the lost-wakeup window because nothing runs between the
        // condition check and the park.
        for seed in 0..16 {
            let gate = Arc::new(Gate::new());
            let flag = Arc::new(Mutex::new(false));
            let waiter = {
                let gate = Arc::clone(&gate);
                let flag = Arc::clone(&flag);
                Box::new(move |hooks: &Hooks, tid: usize| loop {
                    if *flag.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) {
                        break;
                    }
                    hooks.gate_wait(tid, &gate);
                }) as ThreadBody
            };
            let opener = {
                let gate = Arc::clone(&gate);
                let flag = Arc::clone(&flag);
                Box::new(move |hooks: &Hooks, tid: usize| {
                    hooks.yield_point(tid);
                    *flag.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) = true;
                    hooks.gate_open(tid, &gate);
                }) as ThreadBody
            };
            let report = run_interleaved(seed, 10_000, vec![waiter, opener]);
            assert!(report.is_clean(), "seed {seed}: {report:?}");
            assert_eq!(report.panics, 0, "seed {seed}");
        }
    }

    #[test]
    fn unopened_gate_is_a_deadlock() {
        let gate = Arc::new(Gate::new());
        let report = run_interleaved(
            3,
            10_000,
            vec![{
                let gate = Arc::clone(&gate);
                Box::new(move |hooks: &Hooks, tid: usize| {
                    hooks.gate_wait(tid, &gate);
                }) as ThreadBody
            }],
        );
        assert!(report.aborted);
        assert!(
            report.violations.iter().any(|v| v.contains("deadlock")),
            "{report:?}"
        );
    }

    #[test]
    fn scripted_prefix_is_followed_exactly() {
        let mk = |log: &Arc<Mutex<Vec<usize>>>| {
            let log = Arc::clone(log);
            Box::new(move |hooks: &Hooks, tid: usize| {
                for _ in 0..2 {
                    log.lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .push(tid);
                    hooks.yield_point(tid);
                }
            }) as ThreadBody
        };
        let log = Arc::new(Mutex::new(Vec::new()));
        let script = vec![
            ScriptEntry {
                choice: 1,
                sleep: Vec::new(),
            },
            ScriptEntry {
                choice: 0,
                sleep: Vec::new(),
            },
        ];
        let (report, trace) = run_scripted(script, 10_000, vec![mk(&log), mk(&log)]);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(&report.schedule[..2], &[1, 0]);
        assert_eq!(trace[0].chosen, 1);
        assert_eq!(trace[0].enabled, vec![0, 1]);
        assert_eq!(trace[1].chosen, 0);
        // Past the script the default rule picks the lowest id.
        assert!(report.schedule.len() > 2);
    }

    #[test]
    fn sleeping_every_enabled_thread_blocks_the_run() {
        let bodies: Vec<ThreadBody> = (0..2)
            .map(|_| {
                Box::new(move |hooks: &Hooks, tid: usize| {
                    hooks.yield_point(tid);
                }) as ThreadBody
            })
            .collect();
        // Run thread 0 to completion while thread 1 sleeps; once only
        // sleeping threads remain the run must stop as sleep-blocked.
        let script = vec![ScriptEntry {
            choice: 0,
            sleep: vec![1],
        }];
        let (report, _) = run_scripted(script, 10_000, bodies);
        assert!(report.sleep_blocked, "{report:?}");
        assert!(!report.aborted, "{report:?}");
        assert_eq!(report.schedule, vec![0, 0]);
    }
}

//! The completion frontend: one settlement slot per admitted job,
//! consumed through a [`Ticket`] as a blocking wait, a poll, a callback,
//! or a [`CompletionQueue`] an event loop can drain.
//!
//! Exactly one delivery happens per slot. [`Ticket::wait`] and
//! [`Ticket::wait_timeout`] park the calling thread on the slot's condvar
//! (one claim loop, with or without a deadline); [`Ticket::poll`] suits
//! cooperative loops; [`Ticket::on_complete`] runs a closure on the
//! scheduler cell that finished the job; and [`Ticket::forward_to`] fans
//! many jobs into one [`CompletionQueue`] that a single consumer (or async
//! executor shim) drains, with no thread parked per job.
//!
//! Callbacks run on cell scheduler threads with **no locks held**, and a
//! panicking callback is caught and counted
//! ([`crate::ShardStats::callback_panics`]) rather than allowed to wedge
//! the cell.
//!
//! The slot is a `Mutex<SlotState>` + `Condvar` + one advisory atomic
//! word, all three taken from [`adsala_blas3::sync`] — `std::sync` in
//! every build but the test-only `chaos` one, where the interleaving
//! checker schedules *this file* (the `scenarios` module at the bottom).
//! Shared state added here goes through `sync` too; `xtask analyze`
//! flags a raw `std::sync` primitive as `raw-sync-import`.

use crate::job::{Completed, ServeError};
use adsala_blas3::sync::{AtomicU64, Condvar, Mutex, Ordering};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The closure form accepted by [`Ticket::on_complete`].
pub type CompletionCallback = Box<dyn FnOnce(Result<Completed, ServeError>) + Send + 'static>;

/// Values of the slot's advisory `phase` word: the [`SlotState`] variant
/// last stored, for [`Ticket::poll`]'s lock-free "still in flight".
const PENDING: u64 = 0;
const ARMED: u64 = 1;
const READY: u64 = 2;
const CLAIMED: u64 = 3;

/// Lifecycle of one job's settlement slot.
// The slot always lives behind an `Arc<CompletionSlot>`, so the large
// `Ready` variant is already heap-resident; boxing it would only add an
// allocation per settled job.
#[allow(clippy::large_enum_variant)]
enum SlotState {
    /// Job still in flight; nobody asked for a callback yet.
    Pending,
    /// Job still in flight; run this when it settles.
    Armed(CompletionCallback),
    /// Job settled; outcome waiting for `wait`/`poll` to take it.
    Ready(Result<Completed, ServeError>),
    /// Outcome already delivered (taken by a waiter or fed to a callback).
    Claimed,
}

/// Shared settlement slot between a job and its [`Ticket`].
pub(crate) struct CompletionSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
    /// Advisory mirror of `state`'s variant, written under the
    /// lock, read lock-free by [`Ticket::poll`]'s fast path. Advisory
    /// means a stale read is always safe: the fast path only
    /// short-circuits the "still in flight" answer, every claiming step
    /// re-checks under the lock — so the *mutex* carries every
    /// happens-before edge of the hand-over and the word carries none
    /// (`scenarios::the_phase_word_carries_no_ordering_the_scenarios_need`
    /// proves each scenario clean with its stores recorded as `Relaxed`).
    /// They stay `Release`/`Acquire`: free on the hosts this runs on, and
    /// a future reader acting on the word *without* re-locking would be
    /// ordered after the state change it reports.
    phase: AtomicU64,
}

impl CompletionSlot {
    pub fn new() -> Arc<CompletionSlot> {
        Arc::new(CompletionSlot {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
            phase: AtomicU64::new(PENDING),
        })
    }

    /// Settle the job. Runs any armed callback on the *calling* thread with
    /// no locks held; a panic in the callback is caught. Returns `true` if
    /// a callback panicked (the caller counts it against its shard).
    pub fn complete(&self, outcome: Result<Completed, ServeError>) -> bool {
        let callback = {
            let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
            match std::mem::replace(&mut *st, SlotState::Claimed) {
                SlotState::Armed(cb) => {
                    // ORDER: Release — not load-bearing (see `phase`):
                    // the callback leaves through this critical section.
                    self.phase.store(CLAIMED, Ordering::Release);
                    Some((cb, outcome))
                }
                SlotState::Pending => {
                    *st = SlotState::Ready(outcome);
                    // ORDER: Release — not load-bearing (see `phase`): a
                    // poll that reads READY still takes the ordering lock.
                    self.phase.store(READY, Ordering::Release);
                    None
                }
                // Double-complete cannot happen (each job settles once);
                // treat defensively as already delivered.
                prev => {
                    *st = prev;
                    None
                }
            }
        };
        match callback {
            Some((cb, outcome)) => {
                self.cv.notify_all();
                catch_unwind(AssertUnwindSafe(move || cb(outcome))).is_err()
            }
            None => {
                self.cv.notify_all();
                false
            }
        }
    }
}

/// Handle to one submitted job's outcome.
///
/// Exactly one delivery happens per ticket: through [`Ticket::wait`],
/// a successful [`Ticket::poll`], an [`Ticket::on_complete`] callback, or
/// a [`CompletionQueue`] entry. Dropping a ticket abandons the outcome
/// without blocking the service.
pub struct Ticket {
    slot: Arc<CompletionSlot>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    pub(crate) fn new(slot: Arc<CompletionSlot>) -> Ticket {
        Ticket { slot }
    }

    /// Block until the job settles and return its outcome.
    ///
    /// `Err(ServeError::ServiceStopped)` means the service shut down (or
    /// shed the job — see [`ServeError::Shed`]) before running it.
    pub fn wait(self) -> Result<Completed, ServeError> {
        self.claim(None)
    }

    /// [`Ticket::wait`] with a patience bound: block until the job
    /// settles or `timeout` elapses, whichever comes first (a `timeout`
    /// past the end of the clock is no bound at all).
    ///
    /// On timeout the ticket is consumed and the outcome settles as
    /// `Err(ServeError::DeadlineExceeded)` — the job itself may still run
    /// to completion inside the service (nobody is listening any more),
    /// exactly like dropping the ticket. A service shutdown while waiting
    /// still settles as the underlying outcome delivers it (typically
    /// [`ServeError::ServiceStopped`]), not as a timeout.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Completed, ServeError> {
        self.claim(Instant::now().checked_add(timeout))
    }

    /// The blocking claim behind [`Ticket::wait`] (`deadline` `None`) and
    /// [`Ticket::wait_timeout`]: the one place a thread parks on a slot.
    fn claim(self, deadline: Option<Instant>) -> Result<Completed, ServeError> {
        let mut st = self.slot.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            match std::mem::replace(&mut *st, SlotState::Claimed) {
                SlotState::Ready(outcome) => {
                    // ORDER: Release — not load-bearing (see `phase`);
                    // tells a later poll the ticket is spent.
                    self.slot.phase.store(CLAIMED, Ordering::Release);
                    return outcome;
                }
                SlotState::Claimed => return Err(ServeError::ServiceStopped),
                prev => *st = prev,
            }
            st = match deadline {
                None => self.slot.cv.wait(st).unwrap_or_else(|p| p.into_inner()),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(ServeError::DeadlineExceeded);
                    }
                    let (guard, _) = self
                        .slot
                        .cv
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(|p| p.into_inner());
                    guard
                }
            };
        }
    }

    /// Non-blocking check: `Ok(Some(..))` once when the job has settled,
    /// `Ok(None)` while it is still in flight, `Err` if the outcome can no
    /// longer arrive on this ticket (service stopped, job shed, or the
    /// outcome was already delivered).
    pub fn poll(&self) -> Result<Option<Completed>, ServeError> {
        // Lock-free fast path on the advisory phase word: while the job
        // is in flight a poll loop never touches the slot mutex (and so
        // never contends with the cell thread settling the job). A stale
        // PENDING/ARMED read just answers "in flight" one extra time.
        // ORDER: Acquire — pairs with `phase`'s Release stores; like them
        // not load-bearing: all it decides lock-free is `Ok(None)`.
        let phase = self.slot.phase.load(Ordering::Acquire);
        if phase == PENDING || phase == ARMED {
            return Ok(None);
        }
        let mut st = self.slot.state.lock().unwrap_or_else(|p| p.into_inner());
        match std::mem::replace(&mut *st, SlotState::Claimed) {
            SlotState::Ready(outcome) => {
                // ORDER: Release — not load-bearing (see `phase`); tells
                // a later poll the ticket is spent.
                self.slot.phase.store(CLAIMED, Ordering::Release);
                match outcome {
                    Ok(done) => Ok(Some(done)),
                    Err(e) => Err(e),
                }
            }
            SlotState::Claimed => Err(ServeError::ServiceStopped),
            prev => {
                *st = prev;
                Ok(None)
            }
        }
    }

    /// Arm `f` to run when the job settles, consuming the ticket. If the
    /// job already settled, `f` runs immediately on the calling thread;
    /// otherwise it runs on the scheduler cell that finishes (or sheds)
    /// the job. `f` must not block: it executes inline on a cell thread.
    pub fn on_complete<F>(self, f: F)
    where
        F: FnOnce(Result<Completed, ServeError>) + Send + 'static,
    {
        // The match arms are exclusive, so `f` moves into exactly one of
        // them: either armed in the slot or returned to run after the
        // lock drops (callbacks never run under the slot lock).
        let run_now = {
            let mut st = self.slot.state.lock().unwrap_or_else(|p| p.into_inner());
            match std::mem::replace(&mut *st, SlotState::Claimed) {
                SlotState::Pending => {
                    *st = SlotState::Armed(Box::new(f));
                    // ORDER: Release — not load-bearing (see `phase`):
                    // ARMED reads as "in flight", exactly like PENDING.
                    self.slot.phase.store(ARMED, Ordering::Release);
                    None
                }
                SlotState::Ready(outcome) => {
                    // ORDER: Release — not load-bearing (see `phase`);
                    // the inline claim is a delivery like any other.
                    self.slot.phase.store(CLAIMED, Ordering::Release);
                    Some((outcome, f))
                }
                // Outcome already delivered elsewhere (e.g. a successful
                // `poll`): report as stopped, matching `wait` on a spent
                // ticket.
                SlotState::Claimed => Some((Err(ServeError::ServiceStopped), f)),
                // Arming consumes the ticket by value, so a second arming
                // cannot be reached; if it ever were, keep the armed
                // callback and treat this one like a spent ticket rather
                // than panicking on a cell thread.
                SlotState::Armed(prev) => {
                    *st = SlotState::Armed(prev);
                    Some((Err(ServeError::ServiceStopped), f))
                }
            }
        };
        if let Some((outcome, f)) = run_now {
            f(outcome);
        }
    }

    /// Route this job's outcome into `queue`, tagged with `token` so the
    /// consumer can tell jobs apart. Sugar over [`Ticket::on_complete`].
    pub fn forward_to(self, queue: &CompletionQueue, token: u64) {
        let inner = Arc::clone(&queue.inner);
        self.on_complete(move |outcome| inner.push(token, outcome));
    }
}

struct QueueInner {
    entries: Mutex<VecDeque<(u64, Result<Completed, ServeError>)>>,
    cv: Condvar,
}

impl QueueInner {
    fn push(&self, token: u64, outcome: Result<Completed, ServeError>) {
        let mut q = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        q.push_back((token, outcome));
        drop(q);
        self.cv.notify_one();
    }
}

/// A multi-producer completion mailbox: forward any number of tickets into
/// it ([`Ticket::forward_to`]) and drain settled jobs from one place —
/// the shape an async executor's reactor or an event loop wants, with no
/// thread parked per job.
///
/// Cloning is cheap and shares the mailbox.
#[derive(Clone)]
pub struct CompletionQueue {
    inner: Arc<QueueInner>,
}

impl Default for CompletionQueue {
    fn default() -> CompletionQueue {
        CompletionQueue::new()
    }
}

impl CompletionQueue {
    /// An empty mailbox.
    pub fn new() -> CompletionQueue {
        CompletionQueue {
            inner: Arc::new(QueueInner {
                entries: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
            }),
        }
    }

    /// Pop the oldest settled job, if any, without blocking.
    pub fn try_recv(&self) -> Option<(u64, Result<Completed, ServeError>)> {
        self.inner
            .entries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop_front()
    }

    /// Pop the oldest settled job, waiting up to `timeout` for one to
    /// arrive.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(u64, Result<Completed, ServeError>)> {
        let deadline = Instant::now() + timeout;
        let mut q = self.inner.entries.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(entry) = q.pop_front() {
                return Some(entry);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .inner
                .cv
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            q = guard;
        }
    }

    /// Number of settled jobs waiting to be drained.
    pub fn len(&self) -> usize {
        self.inner
            .entries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .len()
    }

    /// Whether no settled jobs are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{AnyOp, ClientId};
    use crate::router::TenantId;
    use crate::telemetry::TelemetryRecord;
    use adsala_blas3::{Matrix, OwnedOp, Transpose};
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub(super) fn done() -> Completed {
        let op: AnyOp = OwnedOp::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha: 1.0,
            a: Matrix::<f64>::zeros(2, 2),
            b: Matrix::<f64>::zeros(2, 2),
            beta: 0.0,
            c: Matrix::<f64>::zeros(2, 2),
        }
        .into();
        Completed {
            stats: TelemetryRecord {
                seq: 0,
                client: ClientId(0),
                tenant: TenantId(0),
                shard: 0,
                routine: op.routine(),
                dims: op.dims(),
                nt: 1,
                admitted_nt: 1,
                predicted_secs: 1e-6,
                model_backed: false,
                epoch: 0,
                observed_secs: 1e-6,
                batch_size: 1,
            },
            op,
            result: Ok(()),
        }
    }

    #[test]
    fn poll_sees_pending_then_ready_then_spent() {
        let slot = CompletionSlot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        assert!(matches!(ticket.poll(), Ok(None)));
        assert!(!slot.complete(Ok(done())));
        assert!(matches!(ticket.poll(), Ok(Some(_))));
        // Outcome delivered: the ticket is spent.
        assert!(matches!(ticket.poll(), Err(ServeError::ServiceStopped)));
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn wait_blocks_until_completed_from_another_thread() {
        let slot = CompletionSlot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        let settler = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            slot.complete(Ok(done()));
        });
        assert!(ticket.wait().is_ok());
        settler.join().unwrap();
    }

    #[test]
    fn wait_timeout_settles_as_deadline_exceeded() {
        let slot = CompletionSlot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        let outcome = ticket.wait_timeout(Duration::from_millis(5));
        assert!(matches!(outcome, Err(ServeError::DeadlineExceeded)));
        // The timed-out waiter claimed nothing: a late settle still works
        // (nobody listens, like a dropped ticket).
        assert!(!slot.complete(Ok(done())));
    }

    #[test]
    fn wait_timeout_returns_an_already_ready_outcome_immediately() {
        let slot = CompletionSlot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        slot.complete(Ok(done()));
        assert!(ticket.wait_timeout(Duration::ZERO).is_ok());
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn wait_timeout_sees_a_shutdown_settle_not_a_timeout() {
        let slot = CompletionSlot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        let settler = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            slot.complete(Err(ServeError::ServiceStopped));
        });
        let outcome = ticket.wait_timeout(Duration::from_secs(30));
        assert!(matches!(outcome, Err(ServeError::ServiceStopped)));
        settler.join().unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn wait_and_wait_timeout_are_one_claim_loop() {
        type Outcome = Result<Completed, ServeError>;
        type Settle = fn() -> Outcome;
        let kind = |o: Outcome| o.map(|done| done.result.is_ok());
        let unbounded: fn(Ticket) -> Outcome = Ticket::wait;
        let bounded: fn(Ticket) -> Outcome = |t| t.wait_timeout(Duration::from_secs(30));
        // The second is what a cell's shutdown drain delivers when the
        // service is dropped under a waiter.
        let settles: [Settle; 2] = [|| Ok(done()), || Err(ServeError::ServiceStopped)];
        for settle in settles {
            for wait in [unbounded, bounded] {
                // Settled before the wait: no park at all.
                let slot = CompletionSlot::new();
                slot.complete(settle());
                assert_eq!(kind(wait(Ticket::new(slot))), kind(settle()));
                // Settled from another thread: it starts once the waiter
                // is about to park, and the outcome must not depend on
                // which of the two gets to the slot first.
                let slot = CompletionSlot::new();
                let ticket = Ticket::new(Arc::clone(&slot));
                let (go, started) = std::sync::mpsc::channel();
                let settler = std::thread::spawn(move || {
                    started.recv().unwrap();
                    slot.complete(settle());
                });
                go.send(()).unwrap();
                assert_eq!(kind(wait(ticket)), kind(settle()));
                settler.join().unwrap();
            }
        }
        // Only a deadline tells the two apart: it expires with the job
        // still finishing, which then settles to nobody.
        let slot = CompletionSlot::new();
        let late = Ticket::new(Arc::clone(&slot)).wait_timeout(Duration::from_millis(5));
        assert_eq!(late.unwrap_err(), ServeError::DeadlineExceeded);
        assert!(!slot.complete(Ok(done())));
        // A bound past the end of the clock is no bound.
        let ticket = Ticket::new(Arc::clone(&slot));
        assert!(ticket.wait_timeout(Duration::MAX).is_ok());
    }

    #[test]
    fn callback_armed_before_completion_runs_on_settling_thread() {
        let slot = CompletionSlot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        ticket.on_complete(move |outcome| {
            assert!(outcome.is_ok());
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        assert!(!slot.complete(Ok(done())));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn callback_armed_after_completion_runs_inline() {
        let slot = CompletionSlot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        slot.complete(Err(ServeError::Shed));
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        ticket.on_complete(move |outcome| {
            assert!(matches!(outcome, Err(ServeError::Shed)));
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panicking_callback_is_caught_and_reported() {
        let slot = CompletionSlot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        ticket.on_complete(|_| panic!("listener bug"));
        assert!(slot.complete(Ok(done())), "panic should be reported");
        // The slot is still usable state-wise (claimed), not poisoned.
        assert!(slot.state.lock().is_ok());
    }

    #[test]
    fn completion_queue_fans_in_many_tickets() {
        let q = CompletionQueue::new();
        let slots: Vec<_> = (0..4).map(|_| CompletionSlot::new()).collect();
        for (i, slot) in slots.iter().enumerate() {
            Ticket::new(Arc::clone(slot)).forward_to(&q, i as u64);
        }
        assert!(q.try_recv().is_none());
        for slot in slots.iter().rev() {
            slot.complete(Ok(done()));
        }
        let mut tokens: Vec<u64> = (0..4)
            .map(|_| q.recv_timeout(Duration::from_secs(1)).unwrap().0)
            .collect();
        // Arrival order is completion order (reverse of forwarding here).
        assert_eq!(tokens, vec![3, 2, 1, 0]);
        tokens.sort_unstable();
        assert_eq!(tokens, vec![0, 1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn dropping_a_ticket_does_not_block_completion() {
        let slot = CompletionSlot::new();
        drop(Ticket::new(Arc::clone(&slot)));
        assert!(!slot.complete(Ok(done())));
    }
}

/// The shipped slot, [`Ticket`] and [`CompletionQueue`] under the
/// interleaving checker (`--features chaos`), each scenario under the
/// fixed 64-seed block *and* exhaustively (DPOR) at 2–3 threads. The job's
/// result is a [`DataCell`] the settler writes before settling: whoever is
/// handed the outcome reads it, and the checker flags the read if the
/// hand-over did not order it.
#[cfg(all(test, feature = "chaos"))]
mod scenarios {
    use super::tests::done;
    use super::*;
    use adsala_blas3::chaos::{self, current, weakened, AccessKind, DataCell, Hooks, ThreadBody};
    use adsala_blas3::sync::spin_until;
    use std::sync::atomic::AtomicUsize;

    type Scenario = fn() -> Vec<ThreadBody>;

    /// One job as a scenario sees it: its slot, the stand-in result, and two
    /// test-side tallies (plain atomics, touched one model thread at a time):
    /// deliveries, and bodies finished — the last body out checks the former.
    struct Job {
        slot: Arc<CompletionSlot>,
        result: DataCell,
        delivered: AtomicUsize,
        finished: AtomicUsize,
    }

    impl Job {
        fn new() -> Arc<Job> {
            Arc::new(Job {
                slot: CompletionSlot::new(),
                result: DataCell::new("job result"),
                delivered: AtomicUsize::new(0),
                finished: AtomicUsize::new(0),
            })
        }

        fn ticket(&self) -> Ticket {
            Ticket::new(Arc::clone(&self.slot))
        }

        /// The cell thread's side: produce the result, settle the slot.
        fn settle(&self) {
            let (hooks, tid) = current().expect("settled on a model thread");
            self.result.write(&hooks, tid, 7);
            self.slot.complete(Ok(done()));
        }

        /// The outcome reached a consumer on the calling model thread.
        fn deliver(&self, outcome: &Result<Completed, ServeError>) {
            let (hooks, tid) = current().expect("delivered on a model thread");
            if outcome.is_ok() {
                assert_eq!(self.result.read(&hooks, tid), 7);
            }
            self.delivered.fetch_add(1, Ordering::SeqCst);
        }

        /// Last call of each of `bodies` bodies: the last one out checks
        /// that the outcome was delivered exactly once.
        fn finish(&self, bodies: usize) {
            if self.finished.fetch_add(1, Ordering::SeqCst) + 1 == bodies {
                assert_eq!(self.delivered.load(Ordering::SeqCst), 1);
            }
        }
    }

    /// A body over `job` (its helpers find the hooks through [`current`]).
    fn body(job: &Arc<Job>, f: impl FnOnce(&Job) + Send + 'static) -> ThreadBody {
        let job = Arc::clone(job);
        Box::new(move |_: &Hooks, _: usize| f(&job))
    }

    /// The settling body of a scenario of `bodies` bodies that `finish`.
    fn settler(job: &Arc<Job>, bodies: usize) -> ThreadBody {
        body(job, move |job| {
            job.settle();
            job.finish(bodies);
        })
    }

    /// One `poll`: "in flight", or the outcome with its result ordered.
    fn poll_vs_settle() -> Vec<ThreadBody> {
        let job = Job::new();
        let ticket = job.ticket();
        let poll = move |job: &Job| match ticket.poll() {
            Ok(Some(done)) => job.deliver(&Ok(done)),
            Ok(None) => {}
            Err(e) => panic!("a lone poll sees in-flight or settled, not {e:?}"),
        };
        vec![body(&job, Job::settle), body(&job, poll)]
    }

    /// `on_complete`: whichever side gets to the slot first, the callback
    /// runs exactly once (inline on the loser).
    fn arm_vs_settle() -> Vec<ThreadBody> {
        let job = Job::new();
        let (ticket, armed) = (job.ticket(), Arc::clone(&job));
        let arm = move |job: &Job| {
            ticket.on_complete(move |outcome| armed.deliver(&outcome));
            job.finish(2);
        };
        vec![settler(&job, 2), body(&job, arm)]
    }

    /// `wait`: the outcome arrives whether the settle lands before or after
    /// the park; a lost wake-up would show as a deadlock.
    fn claim_vs_settle() -> Vec<ThreadBody> {
        let job = Job::new();
        let ticket = job.ticket();
        let wait = move |job: &Job| {
            let outcome = ticket.wait();
            assert!(outcome.is_ok(), "{outcome:?}");
            job.deliver(&outcome);
        };
        vec![body(&job, Job::settle), body(&job, wait)]
    }

    /// Two poll loops on one slot: exactly one is handed the outcome, the
    /// other finds the ticket spent.
    fn two_polls_vs_settle() -> Vec<ThreadBody> {
        let job = Job::new();
        let poll_loop = |ticket: Ticket| {
            move |job: &Job| {
                let mut seen = Ok(None);
                spin_until(|| {
                    seen = ticket.poll();
                    !matches!(seen, Ok(None))
                });
                match seen {
                    Ok(Some(done)) => job.deliver(&Ok(done)),
                    Err(ServeError::ServiceStopped) => {}
                    other => panic!("poll loop ended on {other:?}"),
                }
                job.finish(3);
            }
        };
        let polls = [poll_loop(job.ticket()), poll_loop(job.ticket())].map(|p| body(&job, p));
        std::iter::once(settler(&job, 3)).chain(polls).collect()
    }

    /// Two producers forwarded into one [`CompletionQueue`]: the consumer
    /// drains two distinct tokens, each with its result ordered.
    fn fan_in() -> Vec<ThreadBody> {
        let (queue, jobs) = (CompletionQueue::new(), [Job::new(), Job::new()]);
        for (token, job) in jobs.iter().enumerate() {
            job.ticket().forward_to(&queue, token as u64);
        }
        let mut bodies: Vec<ThreadBody> = jobs.iter().map(|job| body(job, Job::settle)).collect();
        bodies.push(Box::new(move |_: &Hooks, _: usize| {
            let mut tokens = Vec::new();
            for _ in 0..jobs.len() {
                let (token, outcome) = queue
                    .recv_timeout(Duration::from_secs(3600))
                    .expect("a forwarded job always arrives");
                assert!(outcome.is_ok(), "{outcome:?}");
                jobs[token as usize].deliver(&outcome);
                tokens.push(token);
            }
            tokens.sort_unstable();
            assert_eq!(tokens, [0, 1], "each token exactly once");
        }));
        bodies
    }

    /// Shutdown settles *every* slot as stopped while a completer is still
    /// settling job 0 (first there wins) and a waiter is parked on job 1:
    /// job 0's armed callback runs exactly once, the waiter is released.
    fn shutdown_drain() -> Vec<ThreadBody> {
        let (job, parked) = (Job::new(), Job::new());
        let armed = Arc::clone(&job);
        job.ticket()
            .on_complete(move |outcome| armed.deliver(&outcome));
        let (ticket, other) = (parked.ticket(), Arc::clone(&parked.slot));
        let wait = move |job: &Job| {
            assert_eq!(ticket.wait().unwrap_err(), ServeError::ServiceStopped);
            job.finish(3);
        };
        let shutdown = move |job: &Job| {
            job.slot.complete(Err(ServeError::ServiceStopped));
            other.complete(Err(ServeError::ServiceStopped));
            job.finish(3);
        };
        vec![settler(&job, 3), body(&job, wait), body(&job, shutdown)]
    }

    const SCENARIOS: [(&str, Scenario); 6] = [
        ("poll vs settle", poll_vs_settle),
        ("arm vs settle", arm_vs_settle),
        ("claim vs settle", claim_vs_settle),
        ("two polls vs settle", two_polls_vs_settle),
        ("fan-in", fan_in),
        ("shutdown drain", shutdown_drain),
    ];

    #[test]
    fn every_scenario_holds_under_the_seed_block_and_dpor() {
        for (name, scenario) in SCENARIOS {
            chaos::prove(name, scenario);
        }
    }

    /// The verdict on the advisory `phase` word: with each of its `Release`
    /// stores *recorded as `Relaxed`*, every scenario is still proved clean
    /// — the slot mutex carries each edge. (A lock-free settle would need
    /// the `Release`; this slot never claims anything without the lock.)
    #[test]
    fn the_phase_word_carries_no_ordering_the_scenarios_need() {
        let relaxed_phase = chaos::Weakening {
            file: "completion.rs",
            kind: AccessKind::Write,
            order: Ordering::Release,
        };
        for (name, scenario) in SCENARIOS {
            let relaxed = format!("{name}, relaxed phase");
            chaos::prove(&relaxed, || weakened(relaxed_phase, scenario()));
        }
    }
}

//! The completion frontend: one settlement slot per admitted job,
//! consumed through a [`Ticket`] as a blocking wait or a callback.
//!
//! Exactly one delivery happens per slot. [`Ticket::wait`] and
//! [`Ticket::wait_timeout`] park the calling thread on the slot's condvar
//! (one claim loop, with or without a deadline); [`Ticket::on_complete`]
//! runs a closure on the scheduler cell that finished the job. Fan-in and
//! non-blocking checks are `on_complete` feeding a `std::sync::mpsc`
//! channel: `recv` drains many jobs from one place, `try_recv` asks
//! without blocking.
//!
//! Callbacks run on cell scheduler threads with **no locks held**, and a
//! panicking callback is caught and counted
//! ([`crate::ShardStats::callback_panics`]) rather than allowed to wedge
//! the cell.
//!
//! The slot is a `Mutex<SlotState>` + `Condvar`, both taken from
//! [`adsala_blas3::sync`] — `std::sync` in every build but the test-only
//! `chaos` one, where the interleaving checker schedules *this file* (the
//! `scenarios` module at the bottom). Shared state added here goes
//! through `sync` too; `xtask analyze` flags a raw `std::sync` primitive
//! as `raw-sync-import`.

use crate::job::{Completed, ServeError};
use adsala_blas3::sync::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The closure form accepted by [`Ticket::on_complete`].
pub type CompletionCallback = Box<dyn FnOnce(Result<Completed, ServeError>) + Send + 'static>;

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
    /// Job settled; outcome waiting for a `wait` or `on_complete` to take it.
    Ready(Result<Completed, ServeError>),
    /// Outcome already delivered (taken by a waiter or fed to a callback).
    ///
    /// Every consumer takes its [`Ticket`] by value and the service makes
    /// one ticket per slot, so neither `claim` nor `on_complete` can find
    /// a slot `Armed` or `Claimed`: only `complete` sees those states.
    Claimed,
}

/// Shared settlement slot between a job and its [`Ticket`].
pub(crate) struct CompletionSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl CompletionSlot {
    pub fn new() -> Arc<CompletionSlot> {
        Arc::new(CompletionSlot {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
        })
    }

    /// Settle the job. Runs any armed callback on the *calling* thread with
    /// no locks held; a panic in the callback is caught. Returns `true` if
    /// a callback panicked (the caller counts it against its shard).
    pub fn complete(&self, outcome: Result<Completed, ServeError>) -> bool {
        let callback = {
            let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
            match std::mem::replace(&mut *st, SlotState::Claimed) {
                SlotState::Armed(cb) => Some((cb, outcome)),
                SlotState::Pending => {
                    *st = SlotState::Ready(outcome);
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
        self.cv.notify_all();
        callback.is_some_and(|(cb, outcome)| {
            catch_unwind(AssertUnwindSafe(move || cb(outcome))).is_err()
        })
    }
}

/// Handle to one submitted job's outcome.
///
/// Exactly one delivery happens per ticket: through [`Ticket::wait`] /
/// [`Ticket::wait_timeout`] or an [`Ticket::on_complete`] callback.
/// Dropping a ticket abandons the outcome without blocking the service.
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
                SlotState::Ready(outcome) => return outcome,
                pending @ SlotState::Pending => *st = pending,
                SlotState::Armed(_) | SlotState::Claimed => {
                    unreachable!("a slot has one ticket, consumed once")
                }
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

    /// Arm `f` to run when the job settles, consuming the ticket. If the
    /// job already settled, `f` runs immediately on the calling thread;
    /// otherwise it runs on the scheduler cell that finishes (or sheds)
    /// the job. `f` must not block: it executes inline on a cell thread.
    ///
    /// To fan many jobs into one consumer, send each outcome down a
    /// `std::sync::mpsc` channel tagged with a token of your choosing.
    pub fn on_complete<F>(self, f: F)
    where
        F: FnOnce(Result<Completed, ServeError>) + Send + 'static,
    {
        // `f` is either armed in the slot or returned to run after the
        // lock drops (callbacks never run under the slot lock).
        let run_now = {
            let mut st = self.slot.state.lock().unwrap_or_else(|p| p.into_inner());
            match std::mem::replace(&mut *st, SlotState::Claimed) {
                SlotState::Pending => {
                    *st = SlotState::Armed(Box::new(f));
                    None
                }
                SlotState::Ready(outcome) => Some((outcome, f)),
                SlotState::Armed(_) | SlotState::Claimed => {
                    unreachable!("a slot has one ticket, consumed once")
                }
            }
        };
        if let Some((outcome, f)) = run_now {
            f(outcome);
        }
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
    use std::sync::mpsc::{self, TryRecvError};

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
                observed_secs: 1e-6,
                batch_size: 1,
            },
            op,
            result: Ok(()),
        }
    }

    #[test]
    fn try_recv_sees_pending_then_ready_then_spent() {
        let slot = CompletionSlot::new();
        let (tx, rx) = mpsc::channel();
        Ticket::new(Arc::clone(&slot)).on_complete(move |o| tx.send(o).unwrap());
        assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Empty);
        assert!(!slot.complete(Ok(done())));
        assert!(rx.try_recv().unwrap().is_ok());
        // Outcome delivered: the callback (and its sender) is gone.
        assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Disconnected);
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
    fn on_complete_fans_many_tickets_into_one_channel() {
        let (tx, rx) = mpsc::channel();
        let slots: Vec<_> = (0..4).map(|_| CompletionSlot::new()).collect();
        for (token, slot) in slots.iter().enumerate() {
            let tx = tx.clone();
            Ticket::new(Arc::clone(slot)).on_complete(move |o| tx.send((token, o)).unwrap());
        }
        drop(tx);
        assert!(rx.try_recv().is_err());
        for slot in slots.iter().rev() {
            slot.complete(Ok(done()));
        }
        // Arrival order is completion order (reverse of arming here), and
        // the channel closes once every callback has run.
        let tokens: Vec<usize> = rx.iter().map(|(token, _)| token).collect();
        assert_eq!(tokens, vec![3, 2, 1, 0]);
    }

    #[test]
    fn dropping_a_ticket_does_not_block_completion() {
        let slot = CompletionSlot::new();
        drop(Ticket::new(Arc::clone(&slot)));
        assert!(!slot.complete(Ok(done())));
    }
}

/// The shipped slot and [`Ticket`] under the interleaving checker
/// (`--features chaos`), each scenario under the fixed 64-seed block *and*
/// exhaustively (DPOR) at 2–3 threads. The job's
/// result is a [`DataCell`] the settler writes before settling: whoever is
/// handed the outcome reads it, and the checker flags the read if the
/// hand-over did not order it.
#[cfg(all(test, feature = "chaos"))]
mod scenarios {
    use super::tests::done;
    use super::*;
    use adsala_blas3::chaos::{self, current, DataCell, Hooks, ThreadBody};
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    const SCENARIOS: [(&str, Scenario); 3] = [
        ("arm vs settle", arm_vs_settle),
        ("claim vs settle", claim_vs_settle),
        ("shutdown drain", shutdown_drain),
    ];

    #[test]
    fn every_scenario_holds_under_the_seed_block_and_dpor() {
        for (name, scenario) in SCENARIOS {
            chaos::prove(name, scenario);
        }
    }
}

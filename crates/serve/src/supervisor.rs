//! Cell supervision and brownout degradation: per-cell heartbeat
//! watchdogs with drain-and-restart, and a per-backend circuit breaker.
//!
//! ## The watchdog
//!
//! Every scheduler iteration bumps its cell's monotonic heartbeat
//! counter. The supervisor sweeps the heartbeats every 25 ms; a cell with
//! queued work whose heartbeat has not moved across 4 consecutive sweeps
//! is declared wedged — the scheduler thread died (a backend panicked
//! through it) or is stuck inside a call that will not return. Idle cells
//! are never flagged: with nothing queued a parked scheduler is healthy,
//! and any push wakes it (bumping the heartbeat) before work can wait on
//! it.
//!
//! Restart is *drain-and-restart*, serialised with admission placement:
//! under the admission lock the supervisor bumps the cell's generation
//! (so the old thread, if merely stuck, retires itself instead of
//! double-serving), re-homes the wedged cell's queued jobs to surviving
//! cells through the router, and spawns a replacement scheduler. Tenants
//! with a batch **in flight** on the wedged cell are deliberately *not*
//! re-homed: their next batch may not overtake the one in the air, so
//! their queued jobs stay put for the replacement scheduler, which will
//! not take the tenant's next batch until the wedged thread finishes the
//! one it holds.
//!
//! ## The breaker
//!
//! Execution outcomes feed a service-wide circuit breaker. Sustained
//! consecutive backend failure trips it to **brownout**: queued Batch
//! work is shed, new Batch submissions are refused
//! ([`crate::RejectReason::Brownout`]), and Interactive/Standard traffic
//! keeps being served from whatever capacity survives. Eight consecutive
//! failures trip it; after 250 ms open it half-opens and the next
//! executions act as probes: two consecutive successes close it, any
//! failure re-opens it with a fresh timer.
//!
//! Both are on by default and switched off with
//! [`crate::ServeConfig::supervisor`] and [`crate::ServeConfig::breaker`];
//! their timings and thresholds are fixed.

use crate::cell::scheduler_loop;
use crate::queue::Job;
use crate::router::{QosClass, TenantId};
use crate::service::Shared;
use adsala_blas3::sync::{Mutex, MutexGuard, Ordering};
use adsala_blas3::Blas3Backend;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time between watchdog sweeps over the cells' heartbeats.
pub(crate) const SWEEP_INTERVAL: Duration = Duration::from_millis(25);
/// Consecutive sweeps a cell with queued work may leave its heartbeat
/// unmoved before it is declared wedged and restarted: the detection
/// window is at least `SWEEP_INTERVAL * WEDGE_AFTER` (100 ms).
const WEDGE_AFTER: u32 = 4;

/// Consecutive execution failures (retries included) that trip the
/// breaker from closed to open.
const TRIP_AFTER: u32 = 8;
/// How long the breaker stays open before half-opening to probe.
const OPEN_FOR: Duration = Duration::from_millis(250);
/// Consecutive successes in the half-open state that close it again.
const CLOSE_AFTER: u32 = 2;

/// The breaker's position (see the module docs for the lifecycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all QoS classes admitted, failures counted.
    Closed,
    /// Tripped (brownout): Batch submissions refused, timer running.
    Open,
    /// Timer expired: executions are probes; successes close, any
    /// failure re-opens.
    HalfOpen,
}

/// A point-in-time copy of the breaker, surfaced via
/// [`crate::ServiceStats::breaker`].
#[derive(Debug, Clone, Copy)]
pub struct BreakerSnapshot {
    /// Current position.
    pub state: BreakerState,
    /// Consecutive failures observed since the last success (closed) or
    /// consecutive probe successes (half-open).
    pub streak: u32,
    /// Times the breaker has tripped over the service lifetime.
    pub trips: u64,
}

struct BreakerInner {
    state: BreakerState,
    /// Consecutive failures while closed; consecutive successes while
    /// half-open.
    streak: u32,
    /// When the breaker last opened (meaningful while `Open`).
    opened_at: Option<Instant>,
    trips: u64,
}

/// Service-wide circuit breaker over backend execution outcomes. All
/// state sits behind one short-critical-section mutex: the breaker is
/// touched once per execution outcome and per admission, both of which
/// already pay far larger costs.
pub(crate) struct Breaker {
    /// Disabled, the breaker stays [`BreakerState::Closed`] forever.
    enabled: bool,
    trip_after: u32,
    open_for: Duration,
    close_after: u32,
    inner: Mutex<BreakerInner>,
}

impl Breaker {
    pub fn new(enabled: bool) -> Breaker {
        Breaker::with_thresholds(enabled, TRIP_AFTER, OPEN_FOR, CLOSE_AFTER)
    }

    /// The shipped breaker is [`Breaker::new`]; the unit tests drive the
    /// same state machine through short thresholds.
    fn with_thresholds(
        enabled: bool,
        trip_after: u32,
        open_for: Duration,
        close_after: u32,
    ) -> Breaker {
        Breaker {
            enabled,
            trip_after,
            open_for,
            close_after,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                streak: 0,
                opened_at: None,
                trips: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BreakerInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Lazily advance `Open` to `HalfOpen` once the open timer expires.
    /// Called with the lock held.
    fn tick(&self, inner: &mut BreakerInner) {
        if inner.state == BreakerState::Open
            && inner
                .opened_at
                .is_none_or(|at| at.elapsed() >= self.open_for)
        {
            inner.state = BreakerState::HalfOpen;
            inner.streak = 0;
        }
    }

    /// Whether a submission of class `qos` must be refused right now.
    /// Only the shed-first class (Batch) is browned out; higher classes
    /// keep flowing so the surviving capacity serves what matters most.
    pub fn deny(&self, qos: QosClass) -> bool {
        if !self.enabled || qos != QosClass::Batch {
            return false;
        }
        let mut inner = self.lock();
        self.tick(&mut inner);
        inner.state != BreakerState::Closed
    }

    /// Record one failed execution. Returns `true` when this failure
    /// freshly tripped the breaker (the caller sheds the Batch lanes).
    pub fn record_failure(&self) -> bool {
        if !self.enabled {
            return false;
        }
        let mut inner = self.lock();
        self.tick(&mut inner);
        match inner.state {
            BreakerState::Closed => {
                inner.streak += 1;
                if inner.streak >= self.trip_after {
                    inner.state = BreakerState::Open;
                    inner.opened_at = Some(Instant::now());
                    inner.streak = 0;
                    inner.trips += 1;
                    return true;
                }
                false
            }
            // A failed probe re-opens with a fresh timer (no new shed:
            // the Batch lanes were already drained at the trip).
            BreakerState::HalfOpen => {
                inner.state = BreakerState::Open;
                inner.opened_at = Some(Instant::now());
                inner.streak = 0;
                false
            }
            BreakerState::Open => false,
        }
    }

    /// Record one successful execution.
    pub fn record_success(&self) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        self.tick(&mut inner);
        match inner.state {
            BreakerState::Closed => inner.streak = 0,
            BreakerState::HalfOpen => {
                inner.streak += 1;
                if inner.streak >= self.close_after {
                    inner.state = BreakerState::Closed;
                    inner.streak = 0;
                    inner.opened_at = None;
                }
            }
            // Success while open: an in-flight job finished after the
            // trip; it neither closes nor re-arms anything.
            BreakerState::Open => {}
        }
    }

    pub fn snapshot(&self) -> BreakerSnapshot {
        let mut inner = self.lock();
        self.tick(&mut inner);
        BreakerSnapshot {
            state: inner.state,
            streak: inner.streak,
            trips: inner.trips,
        }
    }
}

/// Shed every queued Batch-lane job on every cell (the brownout action
/// taken when the breaker trips). Runs on whichever thread observed the
/// tripping failure; locks one cell at a time and settles the victims
/// with no lock held.
pub(crate) fn brownout_shed<B: Blas3Backend>(shared: &Shared<B>) {
    for cell in &shared.cells {
        let victims = {
            let mut st = cell.lock();
            let victims = st.queues.drain_lane(QosClass::Batch);
            cell.sync_gauges(&st.queues);
            victims
        };
        for job in victims {
            cell.shed_jobs.fetch_add(1, Ordering::Relaxed);
            cell.settle_unserved(job, crate::job::ServeError::Shed);
        }
    }
}

/// The watchdog thread body: sweep heartbeats every [`SWEEP_INTERVAL`],
/// restart wedged cells, and on shutdown join every replacement scheduler
/// this supervisor spawned. (The original schedulers are joined by
/// [`crate::Service`]'s drop.) Between sweeps the thread parks, and the
/// drop unparks it after raising the stop flag, so shutdown never waits
/// out a sweep interval.
pub(crate) fn supervisor_loop<B: Blas3Backend + 'static>(shared: Arc<Shared<B>>) {
    let n = shared.cells.len();
    // Last observed heartbeat and how many sweeps it has sat still.
    let mut last_beat = vec![0u64; n];
    let mut stale_sweeps = vec![0u32; n];
    let mut replacements: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut next_sweep = Instant::now() + SWEEP_INTERVAL;
    while !shared.is_stopped() {
        // A wake before the sweep is due is the drop's unpark (or a
        // spurious one): loop to re-check the stop flag.
        let now = Instant::now();
        if now < next_sweep {
            std::thread::park_timeout(next_sweep - now);
            continue;
        }
        next_sweep = now + SWEEP_INTERVAL;
        for (index, cell) in shared.cells.iter().enumerate() {
            // ORDER: Relaxed — the heartbeat is a liveness gauge; the
            // sweep needs monotonicity per cell, not cross-thread
            // publication (restart itself synchronises via the admission
            // lock and the generation edge).
            let beat = cell.heartbeat.load(Ordering::Relaxed);
            // ORDER: Acquire — pairs with sync_gauges' Release store.
            let pending = cell.pending.load(Ordering::Acquire);
            if beat != last_beat[index] || pending == 0 {
                last_beat[index] = beat;
                stale_sweeps[index] = 0;
                continue;
            }
            stale_sweeps[index] += 1;
            if stale_sweeps[index] < WEDGE_AFTER {
                continue;
            }
            stale_sweeps[index] = 0;
            if let Some(handle) = restart_cell(&shared, index) {
                replacements.push(handle);
            }
        }
    }
    // Shutdown: the replacement schedulers drain like the originals; this
    // thread owns their handles, so it joins them before retiring.
    for handle in replacements {
        let _ = handle.join();
    }
}

/// Drain-and-restart one wedged cell. Returns the replacement scheduler's
/// handle, or `None` when the host refused the thread (the cell is left
/// drained but schedulerless; the next sweep retries).
fn restart_cell<B: Blas3Backend + 'static>(
    shared: &Arc<Shared<B>>,
    index: usize,
) -> Option<std::thread::JoinHandle<()>> {
    let cell = &shared.cells[index];
    // The admission lock serialises the re-home against concurrent
    // placement: no submitter can route toward the draining cell or
    // observe a half-moved tenant.
    let registry = shared.registry();
    // ORDER: AcqRel — the generation edge. The Release half publishes the
    // restart to the old scheduler's Acquire load (a merely-stuck thread
    // retires instead of double-serving); the Acquire half orders this
    // bump after any prior restart of the same cell.
    let new_generation = cell.generation.fetch_add(1, Ordering::AcqRel) + 1;
    let orphans = {
        let mut st = cell.lock();
        let orphans = st.queues.drain_rehome();
        cell.sync_gauges(&st.queues);
        orphans
    };
    let stopped = rehome(shared, index, orphans);
    // Settled with no lock held: a callback may resubmit, which would
    // otherwise deadlock on the admission lock.
    drop(registry);
    for (target, job) in stopped {
        shared.cells[target].settle_unserved(job, crate::job::ServeError::ServiceStopped);
    }
    cell.restarts.fetch_add(1, Ordering::Relaxed);
    let spawn_shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("adsala-serve-cell-{index}-g{new_generation}"))
        .spawn(move || scheduler_loop(spawn_shared, index, new_generation))
        .ok()
}

/// Push a wedged cell's drained jobs onto surviving cells, one target per
/// tenant so per-tenant FIFO order survives the move. Caller holds the
/// admission lock; cell locks are taken one at a time. Returns the jobs
/// whose target is shutting down, with that target, for the caller to
/// settle once the admission lock is released.
fn rehome<B: Blas3Backend>(
    shared: &Arc<Shared<B>>,
    wedged: usize,
    orphans: Vec<Job>,
) -> Vec<(usize, Job)> {
    let mut stopped = Vec::new();
    let pick_target = || -> usize {
        shared
            .cells
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != wedged || shared.cells.len() == 1)
            // ORDER: Acquire — pairs with sync_gauges' Release store.
            .min_by_key(|(_, c)| c.backlog_nanos.load(Ordering::Acquire))
            .map(|(i, _)| i)
            .unwrap_or(wedged)
    };
    let mut assigned: Vec<(TenantId, usize)> = Vec::new();
    let mut notify: Vec<usize> = Vec::new();
    for job in orphans {
        let tenant = job.tenant.id;
        let target = match assigned.iter().find(|(t, _)| *t == tenant) {
            Some((_, cell)) => *cell,
            None => {
                let cell = pick_target();
                assigned.push((tenant, cell));
                job.tenant.set_home(cell);
                cell
            }
        };
        let target_cell = &shared.cells[target];
        let mut st = target_cell.lock();
        if st.shutdown {
            // The target's scheduler is draining out; queueing behind it
            // would orphan the job a second time.
            stopped.push((target, job));
            continue;
        }
        st.queues.push(job);
        target_cell.sync_gauges(&st.queues);
        drop(st);
        if !notify.contains(&target) {
            notify.push(target);
        }
    }
    for target in notify {
        shared.cells[target].cv.notify_all();
    }
    stopped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_only_on_consecutive_failures() {
        let b = Breaker::with_thresholds(true, 3, Duration::from_secs(60), 1);
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        b.record_success(); // streak broken
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure(), "third consecutive failure trips");
        assert_eq!(b.snapshot().state, BreakerState::Open);
        assert_eq!(b.snapshot().trips, 1);
        // Batch refused, higher classes flow.
        assert!(b.deny(QosClass::Batch));
        assert!(!b.deny(QosClass::Standard));
        assert!(!b.deny(QosClass::Interactive));
    }

    #[test]
    fn breaker_half_opens_then_closes_on_probe_successes() {
        let b = Breaker::with_thresholds(true, 1, Duration::ZERO, 2);
        assert!(b.record_failure());
        // open_for elapsed (zero): next touch half-opens.
        assert_eq!(b.snapshot().state, BreakerState::HalfOpen);
        assert!(b.deny(QosClass::Batch), "half-open still refuses Batch");
        b.record_success();
        assert_eq!(b.snapshot().state, BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.snapshot().state, BreakerState::Closed);
        assert!(!b.deny(QosClass::Batch));
    }

    #[test]
    fn failed_probe_reopens_without_a_new_trip() {
        let b = Breaker::with_thresholds(true, 1, Duration::ZERO, 2);
        assert!(b.record_failure());
        assert_eq!(b.snapshot().state, BreakerState::HalfOpen);
        assert!(!b.record_failure(), "a failed probe is not a fresh trip");
        assert_eq!(b.snapshot().trips, 1);
        // Zero open_for: straight back to half-open on the next look.
        assert_eq!(b.snapshot().state, BreakerState::HalfOpen);
    }

    #[test]
    fn disabled_breaker_is_inert() {
        let b = Breaker::new(false);
        for _ in 0..2 * TRIP_AFTER {
            assert!(!b.record_failure());
        }
        assert!(!b.deny(QosClass::Batch));
        assert_eq!(b.snapshot().state, BreakerState::Closed);
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn a_job_rehomed_onto_a_stopping_cell_settles_with_no_lock_held() {
        use crate::{AnyOp, ServeConfig, ServeError, Service};
        use adsala::runtime::Adsala;
        use adsala_blas3::{Matrix, NativeBackend, OwnedOp, Transpose};

        let gemm = || {
            AnyOp::from(OwnedOp::Gemm {
                transa: Transpose::No,
                transb: Transpose::No,
                alpha: 1.0,
                a: Matrix::<f64>::zeros(8, 8),
                b: Matrix::<f64>::zeros(8, 8),
                beta: 0.0,
                c: Matrix::<f64>::zeros(8, 8),
            })
        };
        let config = ServeConfig {
            shards: 2,
            supervisor: false,
            ..Default::default()
        };
        let service: Service<NativeBackend> =
            Service::with_config(Adsala::new(Vec::new(), 1), config).expect("spawn cells");
        service.pause();
        let client = service.client();
        let again = client.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        client
            .submit(gemm())
            .expect("admitted")
            .on_complete(move |outcome| {
                let resubmitted = again.submit(gemm()).is_ok();
                let _ = tx.send((outcome.err(), resubmitted));
            });
        let shared = Arc::clone(&service.shared);
        let wedged = (0..2)
            .find(|&i| shared.cells[i].pending.load(Ordering::Acquire) == 1)
            .expect("the job is queued on one cell");
        // The only re-home target is shutting down, so the job is settled
        // by the restart, and its callback submits again.
        shared.cells[1 - wedged].lock().shutdown = true;
        let restart = std::thread::spawn(move || restart_cell(&shared, wedged));
        let Ok(settled) = rx.recv_timeout(Duration::from_secs(10)) else {
            // Dropping the service would join the stuck restart forever.
            std::mem::forget(service);
            panic!("the restart deadlocked: the callback resubmitted under the admission lock");
        };
        assert_eq!(settled, (Some(ServeError::ServiceStopped), true));
        let replacement = restart.join().expect("the restart returns");
        drop(service);
        if let Some(scheduler) = replacement {
            scheduler.join().expect("the replacement scheduler exits");
        }
    }
}

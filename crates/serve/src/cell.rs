//! Scheduler cells: the unit of sharding.
//!
//! A cell is one scheduler thread plus a private [`ThreadPool`] capped at
//! its slice of the hardware threads, a private [`Telemetry`] ring, and a
//! per-cell `LaneQueues`. The router places every admitted job on
//! exactly one cell; the cell's scheduler drains its lanes highest QoS
//! class first and executes batches on its own pool (the scheduler thread
//! holds a [`ThreadPool::enter`] override for its lifetime, so the
//! runtime's per-call parallelism stays confined to the cell's worker
//! slice).
//!
//! A cell serves only its own queues: a batch finishes on the cell that
//! took it. With nothing queued the scheduler parks on the cell's condvar
//! until something notifies it; with work queued that it cannot take yet
//! (paused, or every tenant with work in flight) it parks for at most
//! `IDLE_TICK`.

use crate::job::{AnyOp, Completed, ServeError};
use crate::queue::{Batch, Job, LaneQueues};
use crate::retry::{backoff_delay, RETRY_ATTEMPTS};
use crate::router::secs_to_nanos;
use crate::service::Shared;
use crate::supervisor::SWEEP_INTERVAL;
use crate::telemetry::{Telemetry, TelemetryRecord};
use adsala_blas3::sync::{self, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering};
use adsala_blas3::{Blas3Backend, ThreadPool};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest a scheduler with queued work parks without waking to bump its
/// heartbeat and sweep expired jobs. The heartbeat means "the scheduler
/// *loop* is responsive" — a cell parked on its condvar with work queued
/// (paused, or every queued tenant already in flight) is healthy and must
/// keep beating, or the supervisor would mistake it for wedged and
/// restart-storm it. Only a thread genuinely stuck inside batch execution
/// freezes its heartbeat. An empty cell parks with no timeout: the
/// supervisor ignores a still heartbeat while nothing is pending. Kept
/// well under the supervisor's [`SWEEP_INTERVAL`] so a live cell always
/// beats between two sweeps; the assertion below pins that at compile
/// time.
const IDLE_TICK: Duration = Duration::from_millis(5);
const _: () = assert!(2 * IDLE_TICK.as_nanos() < SWEEP_INTERVAL.as_nanos());

/// Records each cell's telemetry ring holds before evicting the oldest
/// (the merged view holds up to `shards * TELEMETRY_CAPACITY`).
const TELEMETRY_CAPACITY: usize = 1024;

/// Queue state guarded by the cell lock.
pub(crate) struct CellState {
    pub queues: LaneQueues,
    pub paused: bool,
    pub shutdown: bool,
}

/// One scheduler cell. Not generic over the backend: everything
/// backend-typed lives in [`Shared`], so cells can sit in a plain `Vec`
/// and be referenced from any thread.
pub(crate) struct Cell {
    /// Shard index (position in `Shared::cells`).
    pub index: usize,
    /// The cell's private worker pool.
    pub pool: Arc<ThreadPool>,
    pub state: Mutex<CellState>,
    /// Signalled on push, re-home, finish-batch, pause/resume, and
    /// shutdown.
    pub cv: Condvar,
    /// Per-cell telemetry ring (merged across cells by
    /// `Service::telemetry_snapshot`).
    pub telemetry: Telemetry,
    /// Mirror of `queues.queued()`, readable without the cell lock.
    pub pending: AtomicUsize,
    /// Mirror of `queues.backlog_secs()` in nanoseconds, readable without
    /// the cell lock — the router's placement signal.
    pub backlog_nanos: AtomicU64,
    /// Jobs shed from this cell's queues under overload.
    pub shed_jobs: AtomicU64,
    /// Completion callbacks that panicked on this cell's threads (caught,
    /// counted, never allowed to wedge the scheduler).
    pub callback_panics: AtomicU64,
    /// Monotonic liveness counter bumped by every scheduler iteration;
    /// the supervisor's wedge signal (see [`crate::supervisor`]).
    pub heartbeat: AtomicU64,
    /// Scheduler generation. The supervisor bumps it when restarting the
    /// cell; a scheduler thread that observes a generation newer than its
    /// own retires instead of double-serving against its replacement.
    pub generation: AtomicU64,
    /// Times the supervisor drained and restarted this cell.
    pub restarts: AtomicU64,
    /// Transient-failure retries executed on this cell.
    pub retries: AtomicU64,
    /// Jobs settled as [`ServeError::DeadlineExceeded`] — swept from the
    /// queues or caught at the executor — without reaching the pool.
    pub expired_jobs: AtomicU64,
}

impl Cell {
    pub fn new(index: usize, workers: usize) -> Cell {
        Cell {
            index,
            pool: Arc::new(ThreadPool::with_max_workers(workers)),
            state: Mutex::new(CellState {
                queues: LaneQueues::default(),
                paused: false,
                shutdown: false,
            }),
            cv: Condvar::new(),
            telemetry: Telemetry::new(TELEMETRY_CAPACITY),
            pending: AtomicUsize::new(0),
            backlog_nanos: AtomicU64::new(0),
            shed_jobs: AtomicU64::new(0),
            callback_panics: AtomicU64::new(0),
            heartbeat: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            expired_jobs: AtomicU64::new(0),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, CellState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Refresh the lock-free gauges from the queues. Call after every
    /// queue mutation, with the cell lock held.
    pub fn sync_gauges(&self, queues: &LaneQueues) {
        // ORDER: Release — routers read these gauges without the cell
        // lock; Release orders them after the queue mutation they report.
        self.pending.store(queues.queued(), Ordering::Release);
        // ORDER: Release — same publication edge as `pending` above.
        self.backlog_nanos
            .store(secs_to_nanos(queues.backlog_secs()), Ordering::Release);
    }

    /// Predicted seconds queued on this cell.
    pub fn backlog_secs(&self) -> f64 {
        // ORDER: Acquire — pairs with sync_gauges' Release store.
        self.backlog_nanos.load(Ordering::Acquire) as f64 / 1e9
    }

    /// How long the scheduler may park given the queues it just checked:
    /// no timeout on an empty cell, [`IDLE_TICK`] while work waits.
    fn park_timeout(st: &CellState) -> Option<Duration> {
        (!st.queues.is_empty()).then_some(IDLE_TICK)
    }

    /// The cell's one park, bounded by `timeout` when there is one. Every
    /// event that gives the cell work — a push, a re-home, finish-batch,
    /// pause/resume, shutdown — changes the state under the cell lock and
    /// then notifies the condvar, and the caller checked that state under
    /// the same lock, so an untimed park misses none of them. When the
    /// scheduler has just served a batch (`after_work`) it spins on
    /// `pending` for up to [`sync::SPIN_BUDGET`] instead, catching the next
    /// submission of a busy stream without a sleeping wake-up. Either way
    /// it returns with the lock re-taken, and the caller re-checks.
    fn park<'a>(
        &'a self,
        st: MutexGuard<'a, CellState>,
        timeout: Option<Duration>,
        after_work: bool,
    ) -> MutexGuard<'a, CellState> {
        if after_work {
            drop(st);
            // ORDER: Acquire — pairs with sync_gauges' Release store.
            sync::spin_briefly(|| self.pending.load(Ordering::Acquire) > 0);
            return self.lock();
        }
        let Some(timeout) = timeout else {
            return self
                .cv
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        };
        let (guard, _) = self
            .cv
            .wait_timeout(st, timeout)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        guard
    }

    /// Settle a job that will never run (shutdown drain, shed or expired),
    /// counting a panicking completion callback against this cell.
    pub fn settle_unserved(&self, job: Job, error: ServeError) {
        job.tenant.settle(job.cost.secs);
        if job.slot.complete(Err(error)) {
            self.callback_panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

enum Work {
    /// A batch from this cell's queues to execute.
    Serve(Batch),
    /// Shutdown: settle these drained jobs and exit.
    Exit(Vec<Job>),
    /// The supervisor restarted this cell behind us: retire without
    /// touching the queues — the replacement scheduler owns them now.
    Stale,
}

/// The per-cell scheduler: wait for work, take one batch from the cell's
/// lanes, execute it outside every lock, resolve tickets, repeat.
/// `generation` is the scheduler's lease on the cell — when the cell's
/// generation counter moves past it (a supervisor restart), this thread
/// retires.
pub(crate) fn scheduler_loop<B: Blas3Backend>(
    shared: Arc<Shared<B>>,
    index: usize,
    generation: u64,
) {
    let cell = Arc::clone(&shared.cells[index]);
    // Confine the runtime's per-call parallelism (and multi-job batch
    // fan-out) to this cell's worker slice for the thread's lifetime.
    let _pool_scope = ThreadPool::enter(Arc::clone(&cell.pool));
    let mut after_work = false;
    loop {
        match acquire_work(&shared, &cell, generation, after_work) {
            Work::Serve(batch) => {
                serve_batch(&shared, &cell, batch);
                after_work = true;
            }
            Work::Exit(jobs) => {
                for job in jobs {
                    cell.settle_unserved(job, ServeError::ServiceStopped);
                }
                return;
            }
            Work::Stale => return,
        }
    }
}

/// Wait for the next thing to do. `after_work`: the scheduler has just
/// served a batch, so its first park spins (see [`Cell::park`]); an idle
/// cell never spins.
fn acquire_work<B: Blas3Backend>(
    shared: &Shared<B>,
    cell: &Cell,
    generation: u64,
    mut after_work: bool,
) -> Work {
    let mut st = cell.lock();
    loop {
        // ORDER: Relaxed — pure liveness gauge for the supervisor's wedge
        // detection; no payload is published through it.
        cell.heartbeat.fetch_add(1, Ordering::Relaxed);
        // ORDER: Acquire — pairs with the supervisor's AcqRel generation
        // bump: a superseded scheduler must observe the restart (and the
        // re-home before it) and retire instead of double-serving.
        if cell.generation.load(Ordering::Acquire) != generation {
            return Work::Stale;
        }
        // Lazy expiry sweep: jobs whose deadline already passed settle
        // typed here and never cost a pool wake-up.
        let expired = st.queues.expire_due(Instant::now());
        if !expired.is_empty() {
            cell.sync_gauges(&st.queues);
            drop(st);
            for job in expired {
                cell.expired_jobs.fetch_add(1, Ordering::Relaxed);
                cell.settle_unserved(job, ServeError::DeadlineExceeded);
            }
            st = cell.lock();
            continue;
        }
        if st.shutdown && (st.paused || st.queues.is_empty()) {
            // Graceful: drain admitted work unless paused. A paused
            // shutdown settles the queued jobs to `ServiceStopped`
            // instead of hanging their tickets.
            let jobs = st.queues.drain_all();
            cell.sync_gauges(&st.queues);
            return Work::Exit(jobs);
        }
        if !st.paused {
            if let Some(batch) = st.queues.take_batch(shared.cfg.max_batch) {
                cell.sync_gauges(&st.queues);
                return Work::Serve(batch);
            }
        }
        // Nothing takeable (empty, paused, or every tenant with work is
        // in flight). Every wake-up, spun or parked, bumps the heartbeat
        // above.
        let timeout = Cell::park_timeout(&st);
        st = cell.park(st, timeout, std::mem::take(&mut after_work));
    }
}

/// Execute one batch on `cell`'s pool, then clear its tenant's in-flight
/// mark and wake the cell.
///
/// A singleton batch executes with its admission-predicted thread count —
/// the paper's per-call regime. A multi-job batch (same routine, same
/// shape) instead spends **one pool wake-up for the whole batch**:
/// `min(nt, batch_len)` workers pull jobs, in FIFO start order, from one
/// shared iterator and run each op serially. Total width stays within
/// what the model judged worthwhile for the shape, but the per-op
/// fork/join synchronisation — the dominant dispatch cost on small
/// fixed-shape streams — is paid once instead of per job.
fn serve_batch<B: Blas3Backend>(shared: &Shared<B>, cell: &Cell, batch: Batch) {
    let Batch { tenant, qos, jobs } = batch;
    let batch_size = jobs.len();
    if batch_size == 1 {
        for job in jobs {
            let nt = job.cost.nt;
            serve_one(shared, cell, job, 1, nt);
        }
    } else {
        debug_assert!(jobs.windows(2).all(|w| w[0].key == w[1].key));
        let width = jobs[0].cost.nt.min(batch_size).max(1);
        let jobs = Mutex::new(jobs.into_iter());
        cell.pool.run(width, |_| loop {
            // The guard is a temporary of this statement: the lock is
            // released before the job runs.
            let next = jobs
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .next();
            let Some(job) = next else { break };
            serve_one(shared, cell, job, batch_size, 1);
        });
    }
    cell.lock().queues.finish_batch(tenant, qos);
    // If the supervisor replaced this thread while the batch ran, the
    // replacement may be parked waiting for this tenant to leave flight
    // (shutdown drain included); wake the cell unconditionally.
    cell.cv.notify_all();
}

fn serve_one<B: Blas3Backend>(
    shared: &Shared<B>,
    cell: &Cell,
    job: Job,
    batch_size: usize,
    exec_nt: usize,
) {
    // Last line of deadline defence: the lazy sweep runs per scheduler
    // wake-up, so a job can expire between the sweep and its turn inside
    // a batch. Settle it typed instead of burning pool time on an answer
    // nobody can use.
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        cell.expired_jobs.fetch_add(1, Ordering::Relaxed);
        cell.settle_unserved(job, ServeError::DeadlineExceeded);
        return;
    }
    let Job {
        client,
        tenant,
        key: (routine, dims),
        mut op,
        cost,
        deadline,
        slot,
    } = job;
    // Admission validated the description, so the built-in backends cannot
    // fail execution — but a custom backend may (resource exhaustion,
    // device errors, injected faults). A transient failure is retried with
    // capped, jittered backoff: ops are pure call descriptions and a
    // transient fault fires before operands are written, so re-executing
    // the identical call is safe. Each retry re-charges the tenant's
    // backlog budget for the attempt, and every outcome feeds the circuit
    // breaker. Fatal errors travel back through the ticket; panicking in
    // the scheduler would wedge every other tenant's pending jobs.
    let max_attempts = if shared.cfg.retry { RETRY_ATTEMPTS } else { 1 };
    // Stable per-job jitter coordinates: replayable under a fixed fault
    // schedule, distinct across a tenant's concurrent jobs.
    let jitter_seed = client.0 ^ tenant.id.0.rotate_left(32);
    let execute = |op: &mut AnyOp| match op {
        AnyOp::F32(o) => shared.runtime.execute_with_nt(exec_nt, o.as_op()),
        AnyOp::F64(o) => shared.runtime.execute_with_nt(exec_nt, o.as_op()),
        AnyOp::F32L2(o) => shared.runtime.execute_with_nt(exec_nt, o.as_op()),
        AnyOp::F64L2(o) => shared.runtime.execute_with_nt(exec_nt, o.as_op()),
    };
    let mut start = Instant::now();
    let mut result = execute(&mut op);
    // Observed seconds cover the *last* attempt only, so retries and
    // backoff sleeps do not pollute the telemetry or the price correction.
    let mut observed_secs = start.elapsed().as_secs_f64();
    let mut attempt = 1u32;
    while let Err(e) = &result {
        if shared.breaker.record_failure() {
            // This failure tripped the breaker: brown out — shed every
            // queued Batch-lane job so surviving capacity goes to the
            // higher classes. No locks are held here.
            crate::supervisor::brownout_shed(shared);
        }
        if !e.is_transient() || attempt >= max_attempts {
            break;
        }
        let delay = backoff_delay(attempt, jitter_seed);
        if deadline.is_some_and(|d| Instant::now() + delay >= d) {
            // The deadline would pass during the backoff; the transient
            // error settles as-is rather than as a late success.
            break;
        }
        // Budget-priced retry: the attempt occupies the tenant's backlog
        // budget again, so a tenant hammering a failing path throttles
        // itself at admission instead of billing the service.
        tenant.charge(cost.secs);
        cell.retries.fetch_add(1, Ordering::Relaxed);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        start = Instant::now();
        result = execute(&mut op);
        observed_secs = start.elapsed().as_secs_f64();
        tenant.settle(cost.secs);
        attempt += 1;
    }
    // The job's one record: the ticket carries it whatever the verdict;
    // the ring and the price correction only take executions that
    // succeeded.
    let stats = TelemetryRecord {
        seq: shared.next_seq(),
        client,
        tenant: tenant.id,
        shard: cell.index,
        routine,
        dims,
        nt: exec_nt,
        admitted_nt: cost.nt,
        predicted_secs: cost.secs,
        model_backed: cost.model_backed,
        observed_secs,
        batch_size,
    };
    if result.is_ok() {
        shared.breaker.record_success();
        cell.telemetry.record(stats);
        // The routine's price correction learns from the same samples the
        // drift view averages (no lock of the service is held here).
        if stats.qualifies_for_drift() {
            if let Some(predictor) = shared.runtime.predictor(routine) {
                predictor.observe(dims, exec_nt, observed_secs);
            }
        }
    }
    tenant.settle(cost.secs);
    // The client may have dropped its ticket; that only means nobody is
    // listening for this result. A panicking callback is caught inside
    // `complete` and only counted here.
    if slot.complete(Ok(Completed { op, stats, result })) {
        cell.callback_panics.fetch_add(1, Ordering::Relaxed);
    }
}

/// The cell's park under the interleaving checker (`--features chaos`):
/// [`Cell::park`] itself, scheduled through `adsala_blas3::sync`, against a
/// submission's push. The timeout comes from [`Cell::park_timeout`], as in
/// `acquire_work`: on the empty queue it is none, so the park is the
/// shipped untimed `Condvar::wait`, and a lost wake-up shows as a
/// deadlock.
#[cfg(all(test, feature = "chaos"))]
mod scenarios {
    use super::*;
    use crate::queue::tests::{job_for, tenant};
    use crate::router::QosClass;
    use adsala_blas3::chaos::{self, DataCell, Hooks, ThreadBody};

    /// A job is pushed while the scheduler, just done with a batch, spins
    /// on `pending` or has parked: the scheduler takes it, and the operands
    /// written before the push are ordered before the take.
    fn push_vs_park_bodies() -> Vec<ThreadBody> {
        let cell = Arc::new(Cell::new(0, 1));
        let operands = Arc::new(DataCell::new("job operands"));
        let job = job_for(&tenant(0, QosClass::Standard), 4, 1e-6);
        let scheduler: ThreadBody = {
            let (cell, operands) = (Arc::clone(&cell), Arc::clone(&operands));
            Box::new(move |hooks: &Hooks, tid: usize| {
                // `acquire_work`'s take-or-park loop, right after a batch.
                let mut st = cell.lock();
                let mut after_work = true;
                let batch = loop {
                    if let Some(batch) = st.queues.take_batch(8) {
                        break batch;
                    }
                    let timeout = Cell::park_timeout(&st);
                    st = cell.park(st, timeout, std::mem::take(&mut after_work));
                };
                drop(st);
                assert_eq!(batch.jobs.len(), 1);
                assert_eq!(operands.read(hooks, tid), 7);
            })
        };
        // What admission does to the target cell once the job is priced.
        let submitter: ThreadBody = Box::new(move |hooks: &Hooks, tid: usize| {
            operands.write(hooks, tid, 7);
            let mut st = cell.lock();
            st.queues.push(job);
            cell.sync_gauges(&st.queues);
            drop(st);
            cell.cv.notify_all();
        });
        vec![scheduler, submitter]
    }

    #[test]
    fn a_push_reaches_a_spinning_or_parked_scheduler() {
        chaos::prove("cell: push vs spin-then-park", push_vs_park_bodies);
    }
}

//! What is still a *model*, and why.
//!
//! A model is a small stand-in for a piece of the serve or kernel layer,
//! built from the [`vclock`](super::vclock) primitives and checked on
//! every schedule the seed (or DPOR) picks. Three remain, and all three
//! check a **discipline over plain state**, not an ordering:
//!
//! * [`ArenaModel`] — a pack buffer is returned by the thread that took
//!   it, lent once, released once;
//! * [`QueueModel`] — one batch per tenant in flight, per-tenant FIFO;
//! * [`RestartModel`] — the supervisor's drain-and-rehome never moves a
//!   tenant whose batch is airborne, and serves every job exactly once.
//!
//! None holds an atomic ordering that could drift from its original, so
//! they may stay copies until the serve layer has an executable
//! specification. An *ordering* argument — the pool's barrier and job
//! hand-off, the serve completion slot — gets no model: those types are
//! written against [`crate::sync`] and their scenarios run the shipped
//! code. Do not add a model of something the facade can carry.
//!
//! Every scenario is a `*_bodies()` builder returning fresh state on each
//! call, so it runs under both the seeded sweep ([`super::explore`]) and
//! [`super::dpor::explore_exhaustive`] (which re-runs the builder per
//! schedule). Waits park on [`Gate`]s instead of spinning, which would
//! branch unboundedly under systematic exploration; a gate wake carries
//! no happens-before edge, so ordering bugs stay expressible.

use super::sched::{Gate, Hooks, ThreadBody};
use super::vclock::ModelAtomic;
use super::{run_interleaved, RunReport};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Pack-buffer arena discipline
// ---------------------------------------------------------------------------

/// Model of the `arena` free-list discipline. The real arena is
/// thread-local, which is itself the invariant: a buffer must be returned
/// by the thread that took it, never be lent out twice, and never be
/// released twice. The model enforces all three and reports breaches as
/// violations instead of corrupting anything.
pub struct ArenaModel {
    state: Mutex<ArenaState>,
}

#[derive(Default)]
struct ArenaState {
    free: Vec<u64>,
    /// Buffer id → owning thread while lent out.
    live: BTreeMap<u64, usize>,
    next: u64,
}

impl ArenaModel {
    /// An empty arena: no buffers minted yet.
    pub fn new() -> ArenaModel {
        ArenaModel {
            state: Mutex::new(ArenaState::default()),
        }
    }

    /// Take a buffer (reusing the free list like `arena::take`).
    pub fn take(&self, hooks: &Hooks, tid: usize) -> u64 {
        hooks.yield_point(tid);
        let mut st = self.lock();
        let id = st.free.pop().unwrap_or_else(|| {
            st.next += 1;
            st.next
        });
        if let Some(owner) = st.live.insert(id, tid) {
            hooks.violation(format!(
                "arena lent buffer {id} to thread {tid} while thread {owner} still holds it"
            ));
        }
        id
    }

    /// Return a buffer (the `PackBuf::drop` path).
    pub fn release(&self, hooks: &Hooks, tid: usize, id: u64) {
        hooks.yield_point(tid);
        let mut st = self.lock();
        match st.live.remove(&id) {
            Some(owner) if owner != tid => hooks.violation(format!(
                "buffer {id} taken by thread {owner} but released by thread {tid} \
                 (thread-local discipline broken)"
            )),
            Some(_) => {}
            None => hooks.violation(format!("double release of arena buffer {id}")),
        }
        st.free.push(id);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ArenaState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl Default for ArenaModel {
    fn default() -> ArenaModel {
        ArenaModel::new()
    }
}

/// Bodies for the arena discipline scenario: every thread takes two
/// buffers and returns them in LIFO order, `rounds` times. Honest use —
/// any violation is a checker bug.
pub fn arena_discipline_bodies(threads: usize, rounds: usize) -> Vec<ThreadBody> {
    let arena = Arc::new(ArenaModel::new());
    (0..threads)
        .map(|_| {
            let arena = Arc::clone(&arena);
            Box::new(move |hooks: &Hooks, tid: usize| {
                for _ in 0..rounds {
                    let a = arena.take(hooks, tid);
                    let b = arena.take(hooks, tid);
                    arena.release(hooks, tid, b);
                    arena.release(hooks, tid, a);
                }
            }) as ThreadBody
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Serve queue take/steal/hold
// ---------------------------------------------------------------------------

/// Model of the serve queue's take/steal/hold path. Two invariants from
/// `queue::LaneQueues`/`cell` are checked on every schedule:
///
/// 1. **Hold**: at most one batch per tenant is in flight at a time
///    (taking a second one while the first is outstanding is a violation);
/// 2. **FIFO**: a tenant's jobs complete in submission order.
///
/// `hold_in_flight = true` is the production behaviour; `false` removes
/// the hold (the known-broken variant) so the tests can prove the checker
/// catches the resulting double-dispatch.
pub struct QueueModel {
    state: Mutex<QueueState>,
    gate: Gate,
    hold_in_flight: bool,
}

/// Outcome of one [`QueueModel::take`] attempt.
pub enum Take {
    /// A batch to process: the tenant and its job sequence numbers.
    Batch(u64, Vec<u64>),
    /// Nothing takeable right now, but jobs are still queued or in
    /// flight: park on [`QueueModel::gate`] (the next complete opens it).
    Wait,
    /// Every job has completed; the worker can exit.
    Drained,
}

#[derive(Default)]
struct QueueState {
    /// Tenant → queued job sequence numbers, FIFO.
    queued: BTreeMap<u64, VecDeque<u64>>,
    /// Tenants with a batch currently dispatched.
    in_flight: BTreeSet<u64>,
    /// Tenant → last completed sequence number.
    completed: BTreeMap<u64, u64>,
    next_seq: BTreeMap<u64, u64>,
}

impl QueueModel {
    /// An empty queue; `hold_in_flight` enables the production hold rule.
    pub fn new(hold_in_flight: bool) -> QueueModel {
        QueueModel {
            state: Mutex::new(QueueState::default()),
            gate: Gate::new(),
            hold_in_flight,
        }
    }

    /// Enqueue one job for `tenant` before the run starts (no yields).
    pub fn seed_job(&self, tenant: u64) {
        let mut st = self.lock();
        let seq = st.next_seq.entry(tenant).or_insert(0);
        *seq += 1;
        let seq = *seq;
        st.queued.entry(tenant).or_default().push_back(seq);
    }

    /// Take up to `max_batch` jobs from one tenant — any worker may call
    /// this, so two workers taking concurrently is the steal interleaving.
    /// The takeable/drained decision is a single modelled step, so a
    /// worker told to [`Take::Wait`] can park immediately with no window
    /// for the state to change underneath it.
    pub fn take(&self, hooks: &Hooks, tid: usize, max_batch: usize) -> Take {
        hooks.yield_point(tid);
        let mut st = self.lock();
        let tenant = st.queued.iter().find_map(|(t, q)| {
            if q.is_empty() {
                return None;
            }
            // The hold rule: skip tenants with a batch outstanding.
            if self.hold_in_flight && st.in_flight.contains(t) {
                return None;
            }
            Some(*t)
        });
        let Some(tenant) = tenant else {
            return if st.queued.values().all(VecDeque::is_empty) && st.in_flight.is_empty() {
                Take::Drained
            } else {
                Take::Wait
            };
        };
        if !st.in_flight.insert(tenant) {
            hooks.violation(format!(
                "took a second batch for tenant {tenant} while one is in flight \
                 (hold discipline broken)"
            ));
        }
        let q = st.queued.entry(tenant).or_default();
        let take = max_batch.min(q.len()).max(1);
        let jobs: Vec<u64> = q.drain(..take.min(q.len())).collect();
        Take::Batch(tenant, jobs)
    }

    /// Complete a batch, checking per-tenant FIFO order, then wake parked
    /// workers: completing can make a held tenant takeable again or drain
    /// the queue entirely.
    pub fn complete(&self, hooks: &Hooks, tid: usize, tenant: u64, jobs: &[u64]) {
        hooks.yield_point(tid);
        {
            let mut st = self.lock();
            for &seq in jobs {
                let done = st.completed.entry(tenant).or_insert(0);
                if seq != *done + 1 {
                    hooks.violation(format!(
                        "tenant {tenant} job {seq} completed after {} (FIFO order broken)",
                        *done
                    ));
                }
                *done = (*done).max(seq);
            }
            st.in_flight.remove(&tenant);
        }
        hooks.gate_open(tid, &self.gate);
    }

    /// The gate [`Take::Wait`] workers park on.
    pub fn gate(&self) -> &Gate {
        &self.gate
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Bodies for the queue drain scenario: `workers` threads drain
/// pre-seeded tenants in batches, with a yield between take and complete
/// so the in-flight window is schedulable. Idle workers park on the
/// queue gate instead of retrying, keeping the schedule space finite.
pub fn queue_drain_bodies(
    workers: usize,
    tenants: u64,
    jobs_per_tenant: usize,
    hold_in_flight: bool,
) -> Vec<ThreadBody> {
    let queue = Arc::new(QueueModel::new(hold_in_flight));
    for tenant in 0..tenants {
        for _ in 0..jobs_per_tenant {
            queue.seed_job(tenant);
        }
    }
    (0..workers)
        .map(|_| {
            let queue = Arc::clone(&queue);
            Box::new(move |hooks: &Hooks, tid: usize| {
                loop {
                    match queue.take(hooks, tid, 2) {
                        Take::Batch(tenant, jobs) => {
                            // The in-flight window: the batch is dispatched
                            // but not yet completed.
                            hooks.yield_point(tid);
                            queue.complete(hooks, tid, tenant, &jobs);
                        }
                        Take::Wait => hooks.gate_wait(tid, queue.gate()),
                        Take::Drained => break,
                    }
                }
            }) as ThreadBody
        })
        .collect()
}

/// The queue drain scenario under one seeded schedule (two tenants of
/// four jobs, as the regression suite has always swept it).
pub fn queue_drain(seed: u64, workers: usize, hold_in_flight: bool) -> RunReport {
    run_interleaved(
        seed,
        200_000,
        queue_drain_bodies(workers, 2, 4, hold_in_flight),
    )
}

// ---------------------------------------------------------------------------
// Supervisor drain-and-restart handshake
// ---------------------------------------------------------------------------

/// Model of the serve supervisor's wedge-recovery handshake
/// (`supervisor::restart_cell` + `cell::acquire_work`'s generation lease):
/// a scheduler holding generation `g` keeps serving its cell until the
/// supervisor bumps the cell's generation, at which point the scheduler
/// must retire without taking more work; the supervisor drains the wedged
/// cell's queues and re-homes them to a sibling cell.
///
/// Two invariants are checked on every schedule, across *both* cells:
///
/// 1. **Exactly-once**: no job is served twice (a drain must move a job,
///    never copy it) and none is lost (a lost job parks every worker
///    forever, which the scheduler reports as a deadlock);
/// 2. **FIFO**: a tenant's jobs complete in submission order even when
///    the tenant's queue migrates between cells mid-run.
///
/// `rehome_in_flight = false` is the production rule — a tenant with a
/// batch still airborne on the wedged cell is *not* re-homed (its mark
/// lives on that cell, so the target cell would happily dispatch the
/// tenant's next batch alongside the airborne one). Pass `true` to
/// re-inject that bug: the drained tail completes on the sibling while
/// the wedged batch is still in flight, and the FIFO check flags it.
pub struct RestartModel {
    /// The cells' admission/queue mutex, condensed to one `AcqRel` RMW
    /// per operation: the lock's release/acquire edge is faithful, every
    /// queue operation is one modelled step
    /// (so a `Wait` verdict and the park stay back to back), and — the
    /// part the DPOR engine needs — all queue operations conflict, so
    /// systematic exploration visits every take/drain/complete order.
    stamp: ModelAtomic,
    state: Mutex<RestartState>,
    /// Cell 0's generation lease (`cell.generation` in the real code).
    generation: ModelAtomic,
    /// Cell 0's heartbeat gauge (`cell.heartbeat`).
    heartbeat: ModelAtomic,
    gate: Gate,
    rehome_in_flight: bool,
}

/// Outcome of one [`RestartModel::take`] attempt.
pub enum RestartTake {
    /// One job to serve: the cell it was taken from, the tenant, and the
    /// job's sequence number.
    Job(usize, u64, u64),
    /// Nothing takeable right now but the service is not drained: park on
    /// [`RestartModel::gate`] (the next complete or drain opens it).
    Wait,
    /// Every seeded job has completed; the worker can exit.
    Drained,
}

#[derive(Default)]
struct RestartCell {
    /// Tenant → queued job sequence numbers, FIFO.
    queued: BTreeMap<u64, VecDeque<u64>>,
    /// Tenants with a job currently dispatched *from this cell* — the
    /// per-cell scope is the point: a drain that moves a held tenant
    /// leaves the mark behind on the wedged cell.
    in_flight: BTreeSet<u64>,
}

#[derive(Default)]
struct RestartState {
    cells: Vec<RestartCell>,
    /// Tenant → last completed sequence number (global across cells).
    completed: BTreeMap<u64, u64>,
    /// Every (tenant, seq) ever completed — the double-serve check.
    served: BTreeSet<(u64, u64)>,
    /// Seeded jobs not yet completed; 0 ⇒ drained.
    remaining: usize,
    next_seq: BTreeMap<u64, u64>,
}

impl RestartModel {
    /// A two-cell service with the given drain rule (`false` = production).
    pub fn new(rehome_in_flight: bool) -> RestartModel {
        RestartModel {
            stamp: ModelAtomic::new("restart.stamp", 0),
            state: Mutex::new(RestartState {
                cells: (0..2).map(|_| RestartCell::default()).collect(),
                ..RestartState::default()
            }),
            generation: ModelAtomic::new("cell0.generation", 0),
            heartbeat: ModelAtomic::new("cell0.heartbeat", 0),
            gate: Gate::new(),
            rehome_in_flight,
        }
    }

    /// Enqueue one job for `tenant` on `cell` before the run starts.
    pub fn seed_job(&self, cell: usize, tenant: u64) {
        let mut st = self.lock();
        let seq = st.next_seq.entry(tenant).or_insert(0);
        *seq += 1;
        let seq = *seq;
        st.cells[cell]
            .queued
            .entry(tenant)
            .or_default()
            .push_back(seq);
        st.remaining += 1;
    }

    /// Take one job, scanning `cells` in order and honouring each cell's
    /// in-flight hold (one airborne batch per tenant per cell, as in
    /// `queue::LaneQueues`). One modelled step, so a [`RestartTake::Wait`]
    /// verdict and the park are back to back with no window in between.
    pub fn take(&self, hooks: &Hooks, tid: usize, cells: &[usize]) -> RestartTake {
        // ORDER: AcqRel — modelled queue-mutex handoff; also what makes
        // takes conflict with drains and completes under DPOR.
        self.stamp.fetch_add(hooks, tid, 1, Ordering::AcqRel);
        let mut st = self.lock();
        for &cell in cells {
            let tenant = st.cells[cell].queued.iter().find_map(|(t, q)| {
                if q.is_empty() || st.cells[cell].in_flight.contains(t) {
                    return None;
                }
                Some(*t)
            });
            if let Some(tenant) = tenant {
                st.cells[cell].in_flight.insert(tenant);
                let seq = st.cells[cell]
                    .queued
                    .get_mut(&tenant)
                    .and_then(VecDeque::pop_front)
                    .expect("tenant was found with a non-empty queue");
                return RestartTake::Job(cell, tenant, seq);
            }
        }
        if st.remaining == 0 {
            RestartTake::Drained
        } else {
            RestartTake::Wait
        }
    }

    /// Complete a job taken from `cell`, checking exactly-once and global
    /// per-tenant FIFO, then wake parked workers.
    pub fn complete(&self, hooks: &Hooks, tid: usize, cell: usize, tenant: u64, seq: u64) {
        // ORDER: AcqRel — modelled queue-mutex handoff (see `stamp`).
        self.stamp.fetch_add(hooks, tid, 1, Ordering::AcqRel);
        {
            let mut st = self.lock();
            if !st.served.insert((tenant, seq)) {
                hooks.violation(format!(
                    "tenant {tenant} job {seq} served twice (exactly-once broken)"
                ));
            }
            let done = st.completed.entry(tenant).or_insert(0);
            if seq != *done + 1 {
                hooks.violation(format!(
                    "tenant {tenant} job {seq} completed after {} (rehome broke FIFO order)",
                    *done
                ));
            }
            *done = (*done).max(seq);
            st.remaining = st.remaining.saturating_sub(1);
            st.cells[cell].in_flight.remove(&tenant);
        }
        hooks.gate_open(tid, &self.gate);
    }

    /// The supervisor's restart: bump cell 0's generation lease (fencing
    /// out the incumbent scheduler), then drain cell 0's queues into cell
    /// 1 — skipping tenants with an airborne batch unless the broken
    /// `rehome_in_flight` rule is on — and wake everyone.
    pub fn restart(&self, hooks: &Hooks, tid: usize) {
        // The wedge sweep: read the liveness gauge, as supervisor_loop
        // does before deciding the cell is stuck.
        // ORDER: Relaxed — modelled; pure liveness gauge, mirrors the
        // production heartbeat read.
        let _ = self.heartbeat.load(hooks, tid, Ordering::Relaxed);
        // ORDER: AcqRel — modelled; the lease bump. Pairs with the
        // scheduler's Acquire check so a stale scheduler also observes
        // everything the supervisor published before fencing it out.
        self.generation.fetch_add(hooks, tid, 1, Ordering::AcqRel);
        // ORDER: AcqRel — modelled queue-mutex handoff (see `stamp`);
        // the drain conflicts with every take and complete, so DPOR
        // explores it against each of the incumbent's serving steps.
        self.stamp.fetch_add(hooks, tid, 1, Ordering::AcqRel);
        {
            let mut st = self.lock();
            let drained: Vec<u64> = st.cells[0]
                .queued
                .iter()
                .filter(|(t, q)| {
                    !q.is_empty() && (self.rehome_in_flight || !st.cells[0].in_flight.contains(t))
                })
                .map(|(t, _)| *t)
                .collect();
            for tenant in drained {
                let jobs = st.cells[0]
                    .queued
                    .get_mut(&tenant)
                    .map(std::mem::take)
                    .unwrap_or_default();
                st.cells[1].queued.entry(tenant).or_default().extend(jobs);
            }
        }
        hooks.gate_open(tid, &self.gate);
    }

    /// The gate [`RestartTake::Wait`] workers park on.
    pub fn gate(&self) -> &Gate {
        &self.gate
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RestartState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Bodies for the restart handshake: thread 0 is the incumbent cell-0
/// scheduler (bumps its heartbeat, honours the generation lease, serves
/// with a yield inside the in-flight window — the schedulable wedge);
/// thread 1 is the supervisor (one sweep, lease bump, drain-and-rehome);
/// thread 2 is the sibling scheduler, serving cell 1 first and stealing
/// from cell 0 — which also stands in for the replacement scheduler the
/// real supervisor spawns. Cell 0 is seeded with a two-job tenant (the
/// FIFO witness pair) and a one-job tenant (the re-homed work).
pub fn restart_rehome_bodies(rehome_in_flight: bool) -> Vec<ThreadBody> {
    let model = Arc::new(RestartModel::new(rehome_in_flight));
    model.seed_job(0, 0);
    model.seed_job(0, 0);
    model.seed_job(0, 1);
    let incumbent = {
        let model = Arc::clone(&model);
        Box::new(move |hooks: &Hooks, tid: usize| {
            loop {
                // ORDER: Relaxed — modelled; the liveness gauge bump at
                // the top of acquire_work.
                model.heartbeat.fetch_add(hooks, tid, 1, Ordering::Relaxed);
                // ORDER: Acquire — modelled; pairs with the supervisor's
                // AcqRel lease bump. A stale lease means retire *without*
                // taking more work.
                if model.generation.load(hooks, tid, Ordering::Acquire) != 0 {
                    break;
                }
                match model.take(hooks, tid, &[0]) {
                    RestartTake::Job(cell, tenant, seq) => {
                        // The wedge: the job is airborne but not yet
                        // complete, and the supervisor may fire here.
                        hooks.yield_point(tid);
                        model.complete(hooks, tid, cell, tenant, seq);
                    }
                    RestartTake::Wait => hooks.gate_wait(tid, model.gate()),
                    RestartTake::Drained => break,
                }
            }
        }) as ThreadBody
    };
    let supervisor = {
        let model = Arc::clone(&model);
        Box::new(move |hooks: &Hooks, tid: usize| {
            model.restart(hooks, tid);
        }) as ThreadBody
    };
    let sibling = {
        let model = Arc::clone(&model);
        Box::new(move |hooks: &Hooks, tid: usize| loop {
            match model.take(hooks, tid, &[1, 0]) {
                RestartTake::Job(cell, tenant, seq) => {
                    hooks.yield_point(tid);
                    model.complete(hooks, tid, cell, tenant, seq);
                }
                RestartTake::Wait => hooks.gate_wait(tid, model.gate()),
                RestartTake::Drained => break,
            }
        }) as ThreadBody
    };
    vec![incumbent, supervisor, sibling]
}

/// The restart handshake under one seeded schedule (the regression suite
/// sweeps this via [`super::explore`]).
pub fn restart_rehome(seed: u64, rehome_in_flight: bool) -> RunReport {
    run_interleaved(seed, 200_000, restart_rehome_bodies(rehome_in_flight))
}

#[cfg(test)]
mod tests {
    use super::super::explore;
    use super::*;

    #[test]
    fn arena_discipline_is_clean_across_seeds() {
        let report = explore(0..32, |seed| {
            run_interleaved(seed, 100_000, arena_discipline_bodies(3, 3))
        })
        .expect("honest arena use flagged");
        assert_eq!(report.seeds_run, 32);
    }

    #[test]
    fn arena_cross_thread_release_and_double_free_are_detected() {
        let arena = Arc::new(ArenaModel::new());
        let handoff = Arc::new(Mutex::new(None::<u64>));
        let mk = |taker: bool| {
            let arena = Arc::clone(&arena);
            let handoff = Arc::clone(&handoff);
            Box::new(move |hooks: &Hooks, tid: usize| {
                if taker {
                    let id = arena.take(hooks, tid);
                    *handoff
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(id);
                } else {
                    loop {
                        let id = handoff
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .take();
                        match id {
                            // Release a buffer another thread took, twice.
                            Some(id) => {
                                arena.release(hooks, tid, id);
                                arena.release(hooks, tid, id);
                                break;
                            }
                            None => hooks.yield_point(tid),
                        }
                    }
                }
            }) as ThreadBody
        };
        let report = run_interleaved(5, 100_000, vec![mk(true), mk(false)]);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("thread-local discipline broken")),
            "{report:?}"
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("double release")),
            "{report:?}"
        );
    }

    #[test]
    fn queue_hold_keeps_one_batch_per_tenant_across_seeds() {
        let report = explore(0..32, |seed| queue_drain(seed, 2, true)).expect("held queue flagged");
        assert_eq!(report.seeds_run, 32);
    }

    #[test]
    fn queue_without_hold_is_caught() {
        let failure =
            explore(0..64, |seed| queue_drain(seed, 2, false)).expect_err("missing hold escaped");
        assert!(
            failure
                .report
                .violations
                .iter()
                .any(|v| v.contains("hold discipline broken") || v.contains("FIFO order broken")),
            "seed {}: {:?}",
            failure.seed,
            failure.report
        );
    }

    #[test]
    fn restart_handshake_is_clean_across_seeds() {
        let report =
            explore(0..64, |seed| restart_rehome(seed, false)).expect("production drain flagged");
        assert_eq!(report.seeds_run, 64);
        assert!(report.schedules_seen > 1, "{report:?}");
    }

    #[test]
    fn rehoming_an_in_flight_tenant_is_caught() {
        let failure = explore(0..64, |seed| restart_rehome(seed, true))
            .expect_err("in-flight rehome escaped 64 seeds");
        assert!(
            failure
                .report
                .violations
                .iter()
                .any(|v| v.contains("rehome broke FIFO order")),
            "seed {}: wrong violation kind: {:?}",
            failure.seed,
            failure.report
        );
    }
}

//! Small replicas of the real concurrent cores, built from the
//! [`vclock`](super::vclock) primitives so every schedule the seed picks
//! is also checked against the memory model.
//!
//! Each model mirrors the algorithm of its production counterpart —
//! [`BarrierModel`] is `pool::TeamBarrier` line for line, ordering for
//! ordering — but with every shared access routed through the chaos
//! scheduler. The barrier's generation-flip ordering is a constructor
//! parameter so the known-broken variant (`Relaxed` flip, the bug the
//! Release/Acquire pair exists to prevent) stays expressible, and the
//! completion [`SlotModel`]'s settle ordering is parameterised the same
//! way (`Relaxed` on the settle publication is the regression the DPOR
//! engine must catch even when random seeds miss it).
//!
//! Every scenario comes as a `*_bodies()` builder returning fresh model
//! state on each call, so the same scenario runs under both the seeded
//! sweep ([`super::explore`]) and systematic exploration
//! ([`super::dpor::explore_exhaustive`], which re-runs the builder once
//! per explored schedule). Waits park on [`Gate`]s instead of spinning:
//! a spin loop branches unboundedly under systematic exploration, a gate
//! keeps the schedule space finite — and because a gate wake carries no
//! happens-before edge, the ordering bugs the spins used to expose stay
//! expressible.

use super::sched::{Gate, Hooks, ThreadBody};
use super::vclock::{Clocks, DataCell, Env, ModelAtomic};
use super::{run_interleaved, RunReport};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// TeamBarrier
// ---------------------------------------------------------------------------

/// Model of `pool::TeamBarrier`: sense-reversing via a generation counter,
/// poisonable, reusable round to round. `flip` is the ordering of the
/// generation increment — `Release` in the real code; pass `Relaxed` to
/// re-inject the publication bug the checker exists to catch.
pub struct BarrierModel {
    arrived: ModelAtomic,
    generation: ModelAtomic,
    poisoned: ModelAtomic,
    gate: Gate,
    total: usize,
    flip: Ordering,
}

impl BarrierModel {
    /// Barrier for `total` members with the given generation-flip ordering.
    pub fn new(total: usize, flip: Ordering) -> BarrierModel {
        BarrierModel {
            arrived: ModelAtomic::new("barrier.arrived", 0),
            generation: ModelAtomic::new("barrier.generation", 0),
            poisoned: ModelAtomic::new("barrier.poisoned", 0),
            gate: Gate::new(),
            total: total.max(1),
            flip,
        }
    }

    /// Mirror of `TeamBarrier::wait`, same operation sequence and (modulo
    /// `flip`) the same orderings. Waiters park on the barrier gate and
    /// are woken by the flip (or by `poison`); the snapshot is taken
    /// *before* the poison check so a poison always changes the
    /// generation a parked waiter re-checks — no wake can be lost.
    ///
    /// # Panics
    /// Once [`poison`](BarrierModel::poison)ed, like the real barrier.
    pub fn wait(&self, env: &Env<'_>, tid: usize) {
        if self.total == 1 {
            return;
        }
        // ORDER: Acquire — modelled; snapshot the generation before
        // arriving, exactly as TeamBarrier::wait does.
        let gen = self.generation.load(env, tid, Ordering::Acquire);
        // ORDER: Acquire — modelled; pairs with poison()'s Release store.
        if self.poisoned.load(env, tid, Ordering::Acquire) != 0 {
            panic!("model barrier poisoned");
        }
        // ORDER: AcqRel — modelled arrival chain, as in the real barrier.
        if self.arrived.fetch_add(env, tid, 1, Ordering::AcqRel) + 1 == self.total as u64 {
            // ORDER: Relaxed — modelled; the flip publishes the reset.
            self.arrived.store(env, tid, 0, Ordering::Relaxed);
            self.generation.fetch_add(env, tid, 1, self.flip);
            env.hooks.gate_open(tid, &self.gate);
            return;
        }
        // Park until the generation moves. The load and the park are
        // back to back, so a flip between them is impossible (model
        // threads run one at a time) — the wake cannot be lost.
        // ORDER: Acquire — modelled; pairs with the (configurable) flip.
        while self.generation.load(env, tid, Ordering::Acquire) == gen {
            env.hooks.gate_wait(tid, &self.gate);
        }
        // ORDER: Acquire — modelled; pairs with poison()'s Release (a
        // poison bumps the generation too, landing the waiter here).
        if self.poisoned.load(env, tid, Ordering::Acquire) != 0 {
            panic!("model barrier poisoned");
        }
    }

    /// Mirror of `TeamBarrier::poison`. Also bumps the generation and
    /// opens the gate so parked waiters drain through the poison check
    /// instead of waiting for a flip that will never come.
    pub fn poison(&self, env: &Env<'_>, tid: usize) {
        // ORDER: Release — modelled, mirroring TeamBarrier::poison.
        self.poisoned.store(env, tid, 1, Ordering::Release);
        // ORDER: Release — modelled drain path: waiters observing this
        // bump must also observe the poison flag above.
        self.generation.fetch_add(env, tid, 1, Ordering::Release);
        env.hooks.gate_open(tid, &self.gate);
    }
}

/// Bodies for the barrier publication scenario: each of `members`
/// threads writes its slot, waits, reads its neighbour's slot, then
/// waits again before the next round (so reads and the next round's
/// writes cannot overlap *if the barrier is correct*). With a `Release`
/// flip every schedule must come back clean; with a `Relaxed` flip the
/// neighbour read is unsynchronised and the vector clocks flag it.
pub fn barrier_publication_bodies(
    members: usize,
    rounds: usize,
    flip: Ordering,
) -> Vec<ThreadBody> {
    let clocks = Arc::new(Clocks::new(members));
    let barrier = Arc::new(BarrierModel::new(members, flip));
    let slots: Arc<Vec<DataCell>> = Arc::new((0..members).map(|_| DataCell::new("slot")).collect());
    (0..members)
        .map(|_| {
            let clocks = Arc::clone(&clocks);
            let barrier = Arc::clone(&barrier);
            let slots = Arc::clone(&slots);
            Box::new(move |hooks: &Hooks, tid: usize| {
                let env = Env {
                    hooks,
                    clocks: &clocks,
                };
                for round in 0..rounds {
                    slots[tid].write(&env, tid, (round * members + tid) as u64 + 1);
                    barrier.wait(&env, tid);
                    let neighbour = slots[(tid + 1) % members].read(&env, tid);
                    assert!(neighbour > 0, "read a slot from before its write");
                    barrier.wait(&env, tid);
                }
            }) as ThreadBody
        })
        .collect()
}

/// The barrier publication scenario under one seeded schedule (the
/// regression suite sweeps this via [`super::explore`]).
pub fn barrier_publication(seed: u64, members: usize, rounds: usize, flip: Ordering) -> RunReport {
    run_interleaved(
        seed,
        200_000,
        barrier_publication_bodies(members, rounds, flip),
    )
}

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
    pub fn take(&self, env: &Env<'_>, tid: usize) -> u64 {
        env.hooks.yield_point(tid);
        let mut st = self.lock();
        let id = st.free.pop().unwrap_or_else(|| {
            st.next += 1;
            st.next
        });
        if let Some(owner) = st.live.insert(id, tid) {
            env.hooks.violation(format!(
                "arena lent buffer {id} to thread {tid} while thread {owner} still holds it"
            ));
        }
        id
    }

    /// Return a buffer (the `PackBuf::drop` path).
    pub fn release(&self, env: &Env<'_>, tid: usize, id: u64) {
        env.hooks.yield_point(tid);
        let mut st = self.lock();
        match st.live.remove(&id) {
            Some(owner) if owner != tid => env.hooks.violation(format!(
                "buffer {id} taken by thread {owner} but released by thread {tid} \
                 (thread-local discipline broken)"
            )),
            Some(_) => {}
            None => env
                .hooks
                .violation(format!("double release of arena buffer {id}")),
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
    let clocks = Arc::new(Clocks::new(threads));
    let arena = Arc::new(ArenaModel::new());
    (0..threads)
        .map(|_| {
            let clocks = Arc::clone(&clocks);
            let arena = Arc::clone(&arena);
            Box::new(move |hooks: &Hooks, tid: usize| {
                let env = Env {
                    hooks,
                    clocks: &clocks,
                };
                for _ in 0..rounds {
                    let a = arena.take(&env, tid);
                    let b = arena.take(&env, tid);
                    arena.release(&env, tid, b);
                    arena.release(&env, tid, a);
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
    pub fn take(&self, env: &Env<'_>, tid: usize, max_batch: usize) -> Take {
        env.hooks.yield_point(tid);
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
            env.hooks.violation(format!(
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
    pub fn complete(&self, env: &Env<'_>, tid: usize, tenant: u64, jobs: &[u64]) {
        env.hooks.yield_point(tid);
        {
            let mut st = self.lock();
            for &seq in jobs {
                let done = st.completed.entry(tenant).or_insert(0);
                if seq != *done + 1 {
                    env.hooks.violation(format!(
                        "tenant {tenant} job {seq} completed after {} (FIFO order broken)",
                        *done
                    ));
                }
                *done = (*done).max(seq);
            }
            st.in_flight.remove(&tenant);
        }
        env.hooks.gate_open(tid, &self.gate);
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
    let clocks = Arc::new(Clocks::new(workers));
    let queue = Arc::new(QueueModel::new(hold_in_flight));
    for tenant in 0..tenants {
        for _ in 0..jobs_per_tenant {
            queue.seed_job(tenant);
        }
    }
    (0..workers)
        .map(|_| {
            let clocks = Arc::clone(&clocks);
            let queue = Arc::clone(&queue);
            Box::new(move |hooks: &Hooks, tid: usize| {
                let env = Env {
                    hooks,
                    clocks: &clocks,
                };
                loop {
                    match queue.take(&env, tid, 2) {
                        Take::Batch(tenant, jobs) => {
                            // The in-flight window: the batch is dispatched
                            // but not yet completed.
                            hooks.yield_point(tid);
                            queue.complete(&env, tid, tenant, &jobs);
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
// Serve completion frontend
// ---------------------------------------------------------------------------

/// The abstract armed→settled slot protocol shared with
/// `crates/serve/src/completion.rs`. The production slot and this model
/// mirror these phase constants; a serve-side test asserts the two sets
/// stay equal, so a protocol change there breaks loudly here.
pub mod protocol {
    /// No outcome and no callback yet.
    pub const PENDING: u64 = 0;
    /// A callback is armed, waiting for the outcome.
    pub const ARMED: u64 = 1;
    /// A settler holds exclusivity and is publishing the outcome
    /// (transient; the mutex-backed production slot passes through it
    /// implicitly, under its lock).
    pub const SETTLING: u64 = 2;
    /// The outcome is published and unclaimed.
    pub const READY: u64 = 3;
    /// The outcome has been delivered; terminal.
    pub const CLAIMED: u64 = 4;
}

/// Model of one completion slot (`serve`'s `Ticket`/`CompletionSlot`
/// pair) as the lock-free phase protocol the production mutex
/// implementation is equivalent to: settlers win exclusivity with a
/// `PENDING → SETTLING` CAS, publish the outcome, then flip to `READY`;
/// claimers (poll, wait, or an armed callback) take `READY → CLAIMED`
/// exactly once. `settle_order` is the ordering of the READY
/// publication — `Release` in the real protocol; pass `Relaxed` to
/// re-inject the weakened-settle bug the DPOR regression must catch.
pub struct SlotModel {
    phase: ModelAtomic,
    outcome: DataCell,
    callback: DataCell,
    gate: Gate,
    settle_order: Ordering,
    delivered: AtomicUsize,
}

impl SlotModel {
    /// A pending slot with the given settle-publication ordering.
    pub fn new(settle_order: Ordering) -> SlotModel {
        SlotModel {
            phase: ModelAtomic::new("slot.phase", protocol::PENDING),
            outcome: DataCell::new("slot.outcome"),
            callback: DataCell::new("slot.callback"),
            gate: Gate::new(),
            settle_order,
            delivered: AtomicUsize::new(0),
        }
    }

    /// `CompletionSlot::complete`: win settle exclusivity, publish the
    /// outcome, flip to READY — or, if a callback armed first, claim and
    /// run it inline. A slot someone else already settled is left alone
    /// (the shutdown-vs-completer race is benign by construction).
    pub fn settle(&self, env: &Env<'_>, tid: usize, outcome: u64) {
        // ORDER: AcqRel — modelled; winning the settle exclusivity. The
        // Acquire failure side reads the phase that beat us.
        match self.phase.compare_exchange(
            env,
            tid,
            protocol::PENDING,
            protocol::SETTLING,
            Ordering::AcqRel,  // ORDER: wins settle exclusivity (modelled)
            Ordering::Acquire, // ORDER: failure reads the phase that beat us
        ) {
            Ok(_) => {
                self.outcome.write(env, tid, outcome);
                // The settle publication: Release in the real protocol
                // (pairs with every claimer's Acquire); the regression
                // suite injects Relaxed here, which clears the release
                // deposit and leaves the claimer's outcome read
                // unsynchronised — the bug DPOR must find.
                self.phase
                    .store(env, tid, protocol::READY, self.settle_order);
                env.hooks.gate_open(tid, &self.gate);
            }
            Err(p) if p == protocol::ARMED => {
                // A callback raced in first: claim it and deliver inline.
                // ORDER: AcqRel — modelled; the claim reads the armed
                // callback and closes the exactly-once window.
                if self
                    .phase
                    .compare_exchange(
                        env,
                        tid,
                        protocol::ARMED,
                        protocol::CLAIMED,
                        Ordering::AcqRel,  // ORDER: claim reads the armed callback
                        Ordering::Relaxed, // ORDER: failure means another claimer won; no payload
                    )
                    .is_ok()
                {
                    let _ = self.callback.read(env, tid);
                    self.deliver(env);
                    env.hooks.gate_open(tid, &self.gate);
                }
            }
            Err(_) => {
                // SETTLING/READY/CLAIMED: someone else settled (e.g.
                // shutdown racing the completer). Exactly-once is the
                // claimer's job; nothing to do here.
            }
        }
    }

    /// `Ticket::on_complete`: publish the callback, then arm. If
    /// completion already won, claim and run the callback now instead
    /// (the production "run immediately" path).
    pub fn arm(&self, env: &Env<'_>, tid: usize, callback: u64) {
        self.callback.write(env, tid, callback);
        // ORDER: Release on success publishes the callback to whichever
        // settler claims it; Acquire on failure reads the phase that won.
        match self.phase.compare_exchange(
            env,
            tid,
            protocol::PENDING,
            protocol::ARMED,
            Ordering::Release, // ORDER: publishes the callback to the settler
            Ordering::Acquire, // ORDER: failure reads the phase that won
        ) {
            Ok(_) => {}
            Err(_) => self.claim_when_ready(env, tid),
        }
    }

    /// `Ticket::poll`: one non-blocking check of the phase;
    /// claims and delivers if the slot is READY.
    pub fn poll(&self, env: &Env<'_>, tid: usize) -> bool {
        // ORDER: Acquire — modelled advisory fast path; pairs with the
        // settle publication (or fails to when the regression weakens it).
        let phase = self.phase.load(env, tid, Ordering::Acquire);
        if phase != protocol::READY {
            return false;
        }
        // ORDER: AcqRel — modelled; the claim closes the exactly-once
        // window against concurrent claimers.
        if self
            .phase
            .compare_exchange(
                env,
                tid,
                protocol::READY,
                protocol::CLAIMED,
                Ordering::AcqRel,  // ORDER: claim closes the exactly-once window
                Ordering::Relaxed, // ORDER: failure means another claimer won; no payload
            )
            .is_err()
        {
            return false;
        }
        let _ = self.outcome.read(env, tid);
        self.deliver(env);
        env.hooks.gate_open(tid, &self.gate);
        true
    }

    /// `Ticket::wait`: park until the outcome is delivered — by this
    /// thread claiming READY, or by whoever ran the armed callback.
    pub fn wait(&self, env: &Env<'_>, tid: usize) {
        self.claim_when_ready(env, tid);
    }

    /// Park until the slot is READY, claim and deliver; returns once the
    /// slot reaches CLAIMED (delivered by us or by someone else). The
    /// phase load and the park are back to back, so a settle between
    /// them is impossible — the gate wake cannot be lost.
    fn claim_when_ready(&self, env: &Env<'_>, tid: usize) {
        loop {
            // ORDER: Acquire — modelled; pairs with the settle
            // publication. The regression's Relaxed settle leaves this
            // load unsynchronised, which the outcome read below flags.
            let phase = self.phase.load(env, tid, Ordering::Acquire);
            if phase == protocol::CLAIMED {
                return;
            }
            if phase == protocol::READY {
                // ORDER: AcqRel — modelled; the claim closes the
                // exactly-once window against concurrent claimers.
                if self
                    .phase
                    .compare_exchange(
                        env,
                        tid,
                        protocol::READY,
                        protocol::CLAIMED,
                        Ordering::AcqRel, // ORDER: claim closes the exactly-once window
                        Ordering::Relaxed, // ORDER: failure means another claimer won; no payload
                    )
                    .is_ok()
                {
                    let _ = self.outcome.read(env, tid);
                    self.deliver(env);
                    env.hooks.gate_open(tid, &self.gate);
                    return;
                }
                continue;
            }
            env.hooks.gate_wait(tid, &self.gate);
        }
    }

    /// Exactly-once bookkeeping: a second delivery is a protocol breach.
    fn deliver(&self, env: &Env<'_>) {
        // ORDER: Relaxed — test-side tally; every increment runs under
        // the scheduler token, never concurrently.
        let before = self.delivered.fetch_add(1, Ordering::Relaxed);
        if before > 0 {
            env.hooks
                .violation("completion delivered twice (exactly-once broken)".to_string());
        }
    }

    /// How many times the outcome was delivered (exactly-once ⇒ 1).
    pub fn deliveries(&self) -> usize {
        // ORDER: Relaxed — test-side tally read after the run.
        self.delivered.load(Ordering::Relaxed)
    }
}

/// Model of the `CompletionQueue` fan-in mailbox. The production queue
/// is a `Mutex<VecDeque>`; here the lock's release/acquire handoff is
/// condensed into a single `AcqRel` RMW on `stamp` per push/pop, so the
/// edge is faithful while every queue operation stays one modelled step
/// — which keeps the consumer's check-then-park window closed.
pub struct FanInModel {
    stamp: ModelAtomic,
    entries: Mutex<VecDeque<u64>>,
    gate: Gate,
}

impl FanInModel {
    /// An empty mailbox.
    pub fn new() -> FanInModel {
        FanInModel {
            stamp: ModelAtomic::new("fanin.stamp", 0),
            entries: Mutex::new(VecDeque::new()),
            gate: Gate::new(),
        }
    }

    /// Producer side: publish a token and wake the consumer.
    pub fn push(&self, env: &Env<'_>, tid: usize, token: u64) {
        // ORDER: AcqRel — modelled queue-mutex handoff (push publishes
        // everything the producer did before pushing).
        self.stamp.fetch_add(env, tid, 1, Ordering::AcqRel);
        self.lock().push_back(token);
        env.hooks.gate_open(tid, &self.gate);
    }

    /// Consumer side: one modelled attempt to pop a token.
    pub fn try_pop(&self, env: &Env<'_>, tid: usize) -> Option<u64> {
        // ORDER: AcqRel — modelled queue-mutex handoff (pop acquires
        // everything every producer published).
        self.stamp.fetch_add(env, tid, 1, Ordering::AcqRel);
        self.lock().pop_front()
    }

    /// The gate an empty-handed consumer parks on.
    pub fn gate(&self) -> &Gate {
        &self.gate
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<u64>> {
        self.entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl Default for FanInModel {
    fn default() -> FanInModel {
        FanInModel::new()
    }
}

/// Bodies for the settle-vs-poll race: thread 0 settles, thread 1 polls
/// once. With a `Release` settle every schedule is clean; with `Relaxed`
/// the schedule where the poll claims the outcome reads it
/// unsynchronised — random seeds may or may not land on it, DPOR must.
pub fn completion_poll_bodies(settle_order: Ordering) -> Vec<ThreadBody> {
    let clocks = Arc::new(Clocks::new(2));
    let slot = Arc::new(SlotModel::new(settle_order));
    let settler = {
        let clocks = Arc::clone(&clocks);
        let slot = Arc::clone(&slot);
        Box::new(move |hooks: &Hooks, tid: usize| {
            let env = Env {
                hooks,
                clocks: &clocks,
            };
            slot.settle(&env, tid, 7);
        }) as ThreadBody
    };
    let poller = {
        let clocks = Arc::clone(&clocks);
        let slot = Arc::clone(&slot);
        Box::new(move |hooks: &Hooks, tid: usize| {
            let env = Env {
                hooks,
                clocks: &clocks,
            };
            let _ = slot.poll(&env, tid);
        }) as ThreadBody
    };
    vec![settler, poller]
}

/// Bodies for `on_complete` arming racing completion: thread 0 settles
/// while thread 1 arms a callback. Whichever side wins, the callback
/// must run exactly once (the loser claims inline).
pub fn completion_arm_race_bodies(settle_order: Ordering) -> Vec<ThreadBody> {
    let clocks = Arc::new(Clocks::new(2));
    let slot = Arc::new(SlotModel::new(settle_order));
    let settler = {
        let clocks = Arc::clone(&clocks);
        let slot = Arc::clone(&slot);
        Box::new(move |hooks: &Hooks, tid: usize| {
            let env = Env {
                hooks,
                clocks: &clocks,
            };
            slot.settle(&env, tid, 7);
        }) as ThreadBody
    };
    let armer = {
        let clocks = Arc::clone(&clocks);
        let slot = Arc::clone(&slot);
        Box::new(move |hooks: &Hooks, tid: usize| {
            let env = Env {
                hooks,
                clocks: &clocks,
            };
            slot.arm(&env, tid, 9);
        }) as ThreadBody
    };
    vec![settler, armer]
}

/// Bodies for the `CompletionQueue` fan-in: each producer settles its
/// own slot then pushes the slot index; the consumer (last thread)
/// drains exactly `producers` distinct tokens and claims each outcome.
pub fn completion_fanin_bodies(producers: usize) -> Vec<ThreadBody> {
    let threads = producers + 1;
    let clocks = Arc::new(Clocks::new(threads));
    let slots: Arc<Vec<SlotModel>> = Arc::new(
        (0..producers)
            .map(|_| SlotModel::new(Ordering::Release)) // ORDER: real settle publication
            .collect(),
    );
    let fanin = Arc::new(FanInModel::new());
    let mut bodies: Vec<ThreadBody> = (0..producers)
        .map(|i| {
            let clocks = Arc::clone(&clocks);
            let slots = Arc::clone(&slots);
            let fanin = Arc::clone(&fanin);
            Box::new(move |hooks: &Hooks, tid: usize| {
                let env = Env {
                    hooks,
                    clocks: &clocks,
                };
                slots[i].settle(&env, tid, 100 + i as u64);
                fanin.push(&env, tid, i as u64);
            }) as ThreadBody
        })
        .collect();
    bodies.push({
        let clocks = Arc::clone(&clocks);
        let slots = Arc::clone(&slots);
        let fanin = Arc::clone(&fanin);
        Box::new(move |hooks: &Hooks, tid: usize| {
            let env = Env {
                hooks,
                clocks: &clocks,
            };
            let mut got = BTreeSet::new();
            while got.len() < producers {
                match fanin.try_pop(&env, tid) {
                    Some(token) => {
                        if !got.insert(token) {
                            hooks.violation(format!("fan-in delivered token {token} twice"));
                            continue;
                        }
                        if !slots[token as usize].poll(&env, tid) {
                            hooks.violation(format!(
                                "fan-in token {token} arrived before its slot settled"
                            ));
                        }
                    }
                    None => hooks.gate_wait(tid, fanin.gate()),
                }
            }
        }) as ThreadBody
    });
    bodies
}

/// Bodies for shutdown settling every armed waiter: a completer settles
/// slot 0 while shutdown settles *all* slots (tolerating the race on
/// slot 0), and a waiter armed on slot 1 must still see exactly one
/// delivery — if shutdown missed it, the waiter parks forever and the
/// scheduler reports the deadlock.
pub fn completion_shutdown_bodies() -> Vec<ThreadBody> {
    let clocks = Arc::new(Clocks::new(3));
    let slots: Arc<Vec<SlotModel>> =
        // ORDER: Release — the real protocol's settle publication.
        Arc::new((0..2).map(|_| SlotModel::new(Ordering::Release)).collect());
    let completer = {
        let clocks = Arc::clone(&clocks);
        let slots = Arc::clone(&slots);
        Box::new(move |hooks: &Hooks, tid: usize| {
            let env = Env {
                hooks,
                clocks: &clocks,
            };
            slots[0].settle(&env, tid, 7);
        }) as ThreadBody
    };
    let waiter = {
        let clocks = Arc::clone(&clocks);
        let slots = Arc::clone(&slots);
        Box::new(move |hooks: &Hooks, tid: usize| {
            let env = Env {
                hooks,
                clocks: &clocks,
            };
            slots[1].arm(&env, tid, 9);
            slots[1].wait(&env, tid);
        }) as ThreadBody
    };
    let shutdown = {
        let clocks = Arc::clone(&clocks);
        let slots = Arc::clone(&slots);
        Box::new(move |hooks: &Hooks, tid: usize| {
            let env = Env {
                hooks,
                clocks: &clocks,
            };
            for slot in slots.iter() {
                slot.settle(&env, tid, 99);
            }
        }) as ThreadBody
    };
    vec![completer, waiter, shutdown]
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
    /// per operation exactly as [`FanInModel`] condenses its queue lock:
    /// the edge is faithful, every queue operation is one modelled step
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
    pub fn take(&self, env: &Env<'_>, tid: usize, cells: &[usize]) -> RestartTake {
        // ORDER: AcqRel — modelled queue-mutex handoff; also what makes
        // takes conflict with drains and completes under DPOR.
        self.stamp.fetch_add(env, tid, 1, Ordering::AcqRel);
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
    pub fn complete(&self, env: &Env<'_>, tid: usize, cell: usize, tenant: u64, seq: u64) {
        // ORDER: AcqRel — modelled queue-mutex handoff (see `stamp`).
        self.stamp.fetch_add(env, tid, 1, Ordering::AcqRel);
        {
            let mut st = self.lock();
            if !st.served.insert((tenant, seq)) {
                env.hooks.violation(format!(
                    "tenant {tenant} job {seq} served twice (exactly-once broken)"
                ));
            }
            let done = st.completed.entry(tenant).or_insert(0);
            if seq != *done + 1 {
                env.hooks.violation(format!(
                    "tenant {tenant} job {seq} completed after {} (rehome broke FIFO order)",
                    *done
                ));
            }
            *done = (*done).max(seq);
            st.remaining = st.remaining.saturating_sub(1);
            st.cells[cell].in_flight.remove(&tenant);
        }
        env.hooks.gate_open(tid, &self.gate);
    }

    /// The supervisor's restart: bump cell 0's generation lease (fencing
    /// out the incumbent scheduler), then drain cell 0's queues into cell
    /// 1 — skipping tenants with an airborne batch unless the broken
    /// `rehome_in_flight` rule is on — and wake everyone.
    pub fn restart(&self, env: &Env<'_>, tid: usize) {
        // The wedge sweep: read the liveness gauge, as supervisor_loop
        // does before deciding the cell is stuck.
        // ORDER: Relaxed — modelled; pure liveness gauge, mirrors the
        // production heartbeat read.
        let _ = self.heartbeat.load(env, tid, Ordering::Relaxed);
        // ORDER: AcqRel — modelled; the lease bump. Pairs with the
        // scheduler's Acquire check so a stale scheduler also observes
        // everything the supervisor published before fencing it out.
        self.generation.fetch_add(env, tid, 1, Ordering::AcqRel);
        // ORDER: AcqRel — modelled queue-mutex handoff (see `stamp`);
        // the drain conflicts with every take and complete, so DPOR
        // explores it against each of the incumbent's serving steps.
        self.stamp.fetch_add(env, tid, 1, Ordering::AcqRel);
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
        env.hooks.gate_open(tid, &self.gate);
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
    let clocks = Arc::new(Clocks::new(3));
    let model = Arc::new(RestartModel::new(rehome_in_flight));
    model.seed_job(0, 0);
    model.seed_job(0, 0);
    model.seed_job(0, 1);
    let incumbent = {
        let clocks = Arc::clone(&clocks);
        let model = Arc::clone(&model);
        Box::new(move |hooks: &Hooks, tid: usize| {
            let env = Env {
                hooks,
                clocks: &clocks,
            };
            loop {
                // ORDER: Relaxed — modelled; the liveness gauge bump at
                // the top of acquire_work.
                model.heartbeat.fetch_add(&env, tid, 1, Ordering::Relaxed);
                // ORDER: Acquire — modelled; pairs with the supervisor's
                // AcqRel lease bump. A stale lease means retire *without*
                // taking more work.
                if model.generation.load(&env, tid, Ordering::Acquire) != 0 {
                    break;
                }
                match model.take(&env, tid, &[0]) {
                    RestartTake::Job(cell, tenant, seq) => {
                        // The wedge: the job is airborne but not yet
                        // complete, and the supervisor may fire here.
                        hooks.yield_point(tid);
                        model.complete(&env, tid, cell, tenant, seq);
                    }
                    RestartTake::Wait => hooks.gate_wait(tid, model.gate()),
                    RestartTake::Drained => break,
                }
            }
        }) as ThreadBody
    };
    let supervisor = {
        let clocks = Arc::clone(&clocks);
        let model = Arc::clone(&model);
        Box::new(move |hooks: &Hooks, tid: usize| {
            let env = Env {
                hooks,
                clocks: &clocks,
            };
            model.restart(&env, tid);
        }) as ThreadBody
    };
    let sibling = {
        let clocks = Arc::clone(&clocks);
        let model = Arc::clone(&model);
        Box::new(move |hooks: &Hooks, tid: usize| {
            let env = Env {
                hooks,
                clocks: &clocks,
            };
            loop {
                match model.take(&env, tid, &[1, 0]) {
                    RestartTake::Job(cell, tenant, seq) => {
                        hooks.yield_point(tid);
                        model.complete(&env, tid, cell, tenant, seq);
                    }
                    RestartTake::Wait => hooks.gate_wait(tid, model.gate()),
                    RestartTake::Drained => break,
                }
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
    fn correct_barrier_is_clean_across_seeds() {
        let report = explore(0..48, |seed| {
            barrier_publication(seed, 3, 2, Ordering::Release)
        })
        .expect("correct barrier flagged");
        assert_eq!(report.seeds_run, 48);
        assert!(report.schedules_seen > 1, "{report:?}");
    }

    #[test]
    fn relaxed_flip_is_caught_within_the_seed_budget() {
        let failure = explore(0..64, |seed| {
            barrier_publication(seed, 3, 2, Ordering::Relaxed)
        })
        .expect_err("broken barrier escaped 64 seeds");
        assert!(
            failure
                .report
                .violations
                .iter()
                .any(|v| v.contains("unsynchronised read")),
            "seed {}: wrong violation kind: {:?}",
            failure.seed,
            failure.report
        );
    }

    #[test]
    fn poisoned_barrier_drains_every_member() {
        let members = 3;
        let bodies = || {
            let clocks = Arc::new(Clocks::new(members));
            let barrier = Arc::new(BarrierModel::new(members, Ordering::Release));
            (0..members)
                .map(|i| {
                    let clocks = Arc::clone(&clocks);
                    let barrier = Arc::clone(&barrier);
                    Box::new(move |hooks: &Hooks, tid: usize| {
                        let env = Env {
                            hooks,
                            clocks: &clocks,
                        };
                        if i == 0 {
                            // The member whose kernel "panicked": poison,
                            // then unwind like the real pool's panic path.
                            barrier.poison(&env, tid);
                            panic!("member failure");
                        }
                        barrier.wait(&env, tid);
                    }) as ThreadBody
                })
                .collect()
        };
        for seed in 0..16 {
            let report = run_interleaved(seed, 100_000, bodies());
            assert_eq!(report.panics, members, "seed {seed}: every member unwinds");
            assert!(!report.aborted, "seed {seed}: drain deadlocked: {report:?}");
            assert!(report.violations.is_empty(), "seed {seed}: {report:?}");
        }
    }

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
        let clocks = Arc::new(Clocks::new(2));
        let arena = Arc::new(ArenaModel::new());
        let handoff = Arc::new(Mutex::new(None::<u64>));
        let mk = |taker: bool| {
            let clocks = Arc::clone(&clocks);
            let arena = Arc::clone(&arena);
            let handoff = Arc::clone(&handoff);
            Box::new(move |hooks: &Hooks, tid: usize| {
                let env = Env {
                    hooks,
                    clocks: &clocks,
                };
                if taker {
                    let id = arena.take(&env, tid);
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
                                arena.release(&env, tid, id);
                                arena.release(&env, tid, id);
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
    fn completion_poll_and_arm_race_are_clean_across_seeds() {
        for scenario in [completion_poll_bodies, completion_arm_race_bodies] {
            let report = explore(0..64, |seed| {
                run_interleaved(seed, 200_000, scenario(Ordering::Release))
            })
            .expect("correct completion protocol flagged");
            assert_eq!(report.seeds_run, 64);
        }
    }

    #[test]
    fn completion_fanin_and_shutdown_are_clean_across_seeds() {
        let report = explore(0..64, |seed| {
            run_interleaved(seed, 200_000, completion_fanin_bodies(2))
        })
        .expect("fan-in flagged");
        assert!(report.schedules_seen > 1, "{report:?}");
        let report = explore(0..64, |seed| {
            run_interleaved(seed, 200_000, completion_shutdown_bodies())
        })
        .expect("shutdown settle flagged");
        assert_eq!(report.seeds_run, 64);
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

    #[test]
    fn arm_race_delivers_exactly_once_whichever_side_wins() {
        // The exactly-once tally is checked inside deliver(); a clean
        // sweep therefore proves single delivery on every schedule. Run
        // one schedule directly to also observe the counter.
        let clocks = Arc::new(Clocks::new(2));
        let slot = Arc::new(SlotModel::new(Ordering::Release));
        let mk = |settles: bool| {
            let clocks = Arc::clone(&clocks);
            let slot = Arc::clone(&slot);
            Box::new(move |hooks: &Hooks, tid: usize| {
                let env = Env {
                    hooks,
                    clocks: &clocks,
                };
                if settles {
                    slot.settle(&env, tid, 7);
                } else {
                    slot.arm(&env, tid, 9);
                }
            }) as ThreadBody
        };
        let report = run_interleaved(3, 100_000, vec![mk(true), mk(false)]);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.panics, 0);
        assert_eq!(slot.deliveries(), 1, "callback must run exactly once");
    }
}

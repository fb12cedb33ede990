//! Per-cell job queues: QoS priority lanes, per-tenant FIFOs drained
//! round-robin, same-shape batch extraction, and shed-candidate selection.
//!
//! Each scheduler cell owns one `LaneQueues`. Within a cell, jobs sit in
//! one FIFO per tenant, grouped into [`QosClass::COUNT`] lanes drained
//! strictly highest class first; inside a lane tenants take round-robin
//! turns so no tenant starves a peer of equal class. A turn takes the
//! **contiguous same-shape prefix** of one tenant's FIFO (up to
//! `max_batch`) — never jobs from behind a different shape — so per-tenant
//! submission order is preserved all the way through execution.
//!
//! A taken batch marks its tenant entry *in flight* until the executor
//! reports back (`LaneQueues::finish_batch`); while in flight the cell
//! takes none of that tenant's later jobs. A cell's own scheduler never
//! needs the mark — it finishes one batch before it takes the next — but
//! two readers do. A scheduler the supervisor starts in place of a wedged
//! one must not take a tenant's next batch while the wedged thread still
//! holds the one before it, or the two would run out of order. And the
//! router's sticky rule (`LaneQueues::tenant_busy`) keeps a tenant on its
//! cell while a batch is in flight, so its later jobs queue behind that
//! batch instead of starting on another cell beside it.

use crate::completion::CompletionSlot;
use crate::job::{AnyOp, ClientId};
use crate::router::{QosClass, TenantId, TenantState};
use crate::service::GroupCost;
use adsala_blas3::op::{Dims, Routine};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// One accepted, not-yet-served job.
pub(crate) struct Job {
    /// Submitting client handle.
    pub client: ClientId,
    /// Tenant the client belongs to (routing + accounting).
    pub tenant: Arc<TenantState>,
    /// Batching key, computed once at admission.
    pub key: (Routine, Dims),
    /// The call description (operands included).
    pub op: AnyOp,
    /// The priced decision the job was admitted under, as admission
    /// computed it: `cost.secs` is what every queue gauge and budget
    /// counts, `cost.nt` the width a singleton batch executes at.
    pub cost: GroupCost,
    /// Absolute completion deadline, when the submission carried one
    /// ([`crate::SubmitOptions`]). Swept lazily by
    /// [`LaneQueues::expire_due`] and re-checked by the executor so a
    /// dead job never reaches the pool.
    pub deadline: Option<Instant>,
    /// Settlement slot shared with the submitting [`crate::Ticket`].
    pub slot: Arc<CompletionSlot>,
}

/// One tenant's same-shape batch, taken from a cell by its scheduler. The
/// cell's tenant entry stays in flight until [`LaneQueues::finish_batch`]
/// runs for `(tenant, qos)`.
pub(crate) struct Batch {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Lane the batch came from (needed to clear the in-flight mark).
    pub qos: QosClass,
    /// The jobs, in tenant submission order, all sharing one
    /// `(routine, dims)` key.
    pub jobs: Vec<Job>,
}

/// A cheapest-to-refuse shed candidate reported by
/// [`LaneQueues::peek_shed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ShedCandidate {
    /// Class of the candidate (strictly below the submission that is
    /// trying to make room).
    pub qos: QosClass,
    /// Predicted seconds freed by shedding it.
    pub predicted_secs: f64,
}

struct TenantEntry {
    tenant: TenantId,
    q: VecDeque<Job>,
    /// A batch from this FIFO is being executed; no further batch may
    /// leave until it finishes.
    in_flight: bool,
}

#[derive(Default)]
struct Lane {
    /// Tenant FIFOs in first-submission order; entries persist for the
    /// cell lifetime (tenants are few and long-lived by design).
    entries: Vec<TenantEntry>,
    /// Round-robin cursor into `entries`.
    cursor: usize,
}

/// The per-cell queue structure described in the module docs.
#[derive(Default)]
pub(crate) struct LaneQueues {
    lanes: [Lane; QosClass::COUNT],
    /// Total queued jobs across lanes (excludes in-flight batches).
    queued: usize,
    /// Sum of predicted seconds across queued jobs.
    backlog_secs: f64,
}

impl LaneQueues {
    pub fn queued(&self) -> usize {
        self.queued
    }

    pub fn backlog_secs(&self) -> f64 {
        self.backlog_secs
    }

    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Whether `tenant` still has queued jobs or a batch in flight here —
    /// if so, the router must keep the tenant homed on this cell.
    pub fn tenant_busy(&self, tenant: TenantId, qos: QosClass) -> bool {
        self.lanes[qos.lane()]
            .entries
            .iter()
            .any(|e| e.tenant == tenant && (!e.q.is_empty() || e.in_flight))
    }

    /// Enqueue one job at the tail of its tenant's FIFO.
    pub fn push(&mut self, job: Job) {
        self.queued += 1;
        self.backlog_secs += job.cost.secs;
        let lane = &mut self.lanes[job.tenant.qos.lane()];
        let tenant = job.tenant.id;
        match lane.entries.iter_mut().find(|e| e.tenant == tenant) {
            Some(e) => e.q.push_back(job),
            None => {
                let mut q = VecDeque::new();
                q.push_back(job);
                lane.entries.push(TenantEntry {
                    tenant,
                    q,
                    in_flight: false,
                });
            }
        }
    }

    /// Take the next batch to serve: highest-priority lane first; within a
    /// lane, round-robin over tenants that are not in flight. The chosen
    /// tenant yields the contiguous prefix of its FIFO sharing the head
    /// job's `(routine, dims)` key, up to `max_batch`, and is marked in
    /// flight until [`LaneQueues::finish_batch`]. `None` when nothing is
    /// takeable (empty, or every tenant with work is in flight).
    pub fn take_batch(&mut self, max_batch: usize) -> Option<Batch> {
        let max_batch = max_batch.max(1);
        for (lane_idx, lane) in self.lanes.iter_mut().enumerate() {
            let n = lane.entries.len();
            for step in 0..n {
                let idx = (lane.cursor + step) % n;
                let e = &mut lane.entries[idx];
                if e.in_flight {
                    continue;
                }
                let Some(head) = e.q.pop_front() else {
                    continue;
                };
                let key = head.key;
                let mut jobs = vec![head];
                while jobs.len() < max_batch {
                    if !e.q.front().is_some_and(|next| next.key == key) {
                        break;
                    }
                    let Some(next) = e.q.pop_front() else { break };
                    jobs.push(next);
                }
                e.in_flight = true;
                let tenant = e.tenant;
                lane.cursor = (idx + 1) % n;
                self.remove_from_gauges(&jobs);
                return Some(Batch {
                    tenant,
                    qos: QosClass::of_lane(lane_idx),
                    jobs,
                });
            }
        }
        None
    }

    /// Clear the in-flight mark left by [`LaneQueues::take_batch`]. Called
    /// by whichever cell executed the batch, after execution, with the
    /// owning cell's lock held.
    pub fn finish_batch(&mut self, tenant: TenantId, qos: QosClass) {
        if let Some(e) = self.lanes[qos.lane()]
            .entries
            .iter_mut()
            .find(|e| e.tenant == tenant)
        {
            debug_assert!(e.in_flight, "finish_batch without a batch in flight");
            e.in_flight = false;
        }
    }

    /// The cheapest-to-refuse queued job of a class strictly below
    /// `below`, if any: lowest class first, then smallest predicted
    /// seconds. Only FIFO tails are candidates, so shedding never punches
    /// a hole in a tenant's submission order.
    pub fn peek_shed(&self, below: QosClass) -> Option<ShedCandidate> {
        for lane_idx in (0..QosClass::COUNT).rev() {
            let qos = QosClass::of_lane(lane_idx);
            if qos >= below {
                break;
            }
            let cheapest = self.lanes[lane_idx]
                .entries
                .iter()
                .filter_map(|e| e.q.back().map(|j| j.cost.secs))
                .min_by(f64::total_cmp);
            if let Some(predicted_secs) = cheapest {
                return Some(ShedCandidate {
                    qos,
                    predicted_secs,
                });
            }
        }
        None
    }

    /// Total predicted seconds of queued jobs in classes strictly below
    /// `below` — the most a shedding pass could free from this cell.
    pub fn sheddable_secs(&self, below: QosClass) -> f64 {
        let mut total = 0.0;
        for lane_idx in (0..QosClass::COUNT).rev() {
            if QosClass::of_lane(lane_idx) >= below {
                break;
            }
            total += self.lanes[lane_idx]
                .entries
                .iter()
                .flat_map(|e| e.q.iter())
                .map(|j| j.cost.secs)
                .sum::<f64>();
        }
        total
    }

    /// Remove and return the job [`LaneQueues::peek_shed`] would pick.
    pub fn shed_one(&mut self, below: QosClass) -> Option<Job> {
        let candidate = self.peek_shed(below)?;
        let lane = &mut self.lanes[candidate.qos.lane()];
        // The filter guarantees a back job; a tenant whose queue emptied
        // anyway simply sorts first on 0.0 and yields None from pop_back.
        let tail_secs = |e: &TenantEntry| e.q.back().map(|j| j.cost.secs).unwrap_or(0.0);
        let entry = lane
            .entries
            .iter_mut()
            .filter(|e| !e.q.is_empty())
            .min_by(|a, b| tail_secs(a).total_cmp(&tail_secs(b)))?;
        let job = entry.q.pop_back()?;
        self.remove_from_gauges(std::slice::from_ref(&job));
        Some(job)
    }

    /// Remove and return every queued job whose deadline is at or before
    /// `now` (the caller settles them to
    /// [`crate::ServeError::DeadlineExceeded`]). The lazy expiry sweep:
    /// schedulers call this before taking a batch, so a dead job costs a
    /// queue scan, never a pool wake-up. Removing an expired job from the
    /// middle of a FIFO is order-safe — the survivors keep their relative
    /// order, and the removed job is settled, not re-queued.
    pub fn expire_due(&mut self, now: Instant) -> Vec<Job> {
        let mut expired = Vec::new();
        for lane in self.lanes.iter_mut() {
            for e in lane.entries.iter_mut() {
                if !e.q.iter().any(|j| j.deadline.is_some_and(|d| d <= now)) {
                    continue;
                }
                let drained = std::mem::take(&mut e.q);
                for job in drained {
                    if job.deadline.is_some_and(|d| d <= now) {
                        expired.push(job);
                    } else {
                        e.q.push_back(job);
                    }
                }
            }
        }
        self.remove_from_gauges(&expired);
        expired
    }

    /// Drain the queued jobs of every tenant **without** a batch in
    /// flight, preserving per-tenant FIFO order — the supervisor's
    /// drain-and-restart source. An in-flight tenant's jobs stay: its
    /// airborne batch must land before its next batch may leave anywhere,
    /// so those jobs wait here for the replacement scheduler.
    pub fn drain_rehome(&mut self) -> Vec<Job> {
        let mut moved = Vec::new();
        for lane in self.lanes.iter_mut() {
            for e in lane.entries.iter_mut() {
                if !e.in_flight {
                    moved.extend(e.q.drain(..));
                }
            }
        }
        self.remove_from_gauges(&moved);
        moved
    }

    /// Drain every queued job of one QoS lane (the brownout shed: the
    /// whole lane goes, so no tenant's FIFO is left with a hole). The
    /// caller settles the victims to [`crate::ServeError::Shed`].
    pub fn drain_lane(&mut self, qos: QosClass) -> Vec<Job> {
        let mut shed = Vec::new();
        for e in self.lanes[qos.lane()].entries.iter_mut() {
            shed.extend(e.q.drain(..));
        }
        self.remove_from_gauges(&shed);
        shed
    }

    /// Subtract a set of removed jobs from the `queued`/`backlog_secs`
    /// gauges (shared tail of every removal above).
    fn remove_from_gauges(&mut self, removed: &[Job]) {
        self.queued -= removed.len();
        self.backlog_secs -= removed.iter().map(|j| j.cost.secs).sum::<f64>();
        if self.queued == 0 {
            // Keep accumulated float error from drifting the budget.
            self.backlog_secs = 0.0;
        }
    }

    /// Drain every queued job (shutdown path; the caller settles their
    /// tickets to [`crate::ServeError::ServiceStopped`]). In-flight batches
    /// are not here — they are owned by whichever cell is executing them.
    pub fn drain_all(&mut self) -> Vec<Job> {
        let mut all = Vec::with_capacity(self.queued);
        for lane in self.lanes.iter_mut() {
            for e in lane.entries.iter_mut() {
                all.extend(e.q.drain(..));
            }
        }
        self.queued = 0;
        self.backlog_secs = 0.0;
        all
    }
}

/// The queue tests, and the job builders `cell::scenarios` shares.
#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::router::TenantConfig;
    use adsala_blas3::{Matrix, OwnedOp, Transpose};
    use std::collections::BTreeMap;
    use std::time::Duration;

    pub(crate) fn tenant(id: u64, qos: QosClass) -> Arc<TenantState> {
        Arc::new(TenantState::new(
            TenantId(id),
            TenantConfig {
                qos,
                ..TenantConfig::default()
            },
        ))
    }

    pub(crate) fn job_for(tenant: &Arc<TenantState>, m: usize, secs: f64) -> Job {
        let op: AnyOp = OwnedOp::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha: 1.0,
            a: Matrix::<f64>::zeros(m, m),
            b: Matrix::<f64>::zeros(m, m),
            beta: 0.0,
            c: Matrix::<f64>::zeros(m, m),
        }
        .into();
        Job {
            client: ClientId(tenant.id.0),
            tenant: Arc::clone(tenant),
            key: op.group_key(),
            cost: GroupCost {
                nt: 1,
                secs,
                model_backed: false,
            },
            deadline: None,
            op,
            slot: CompletionSlot::new(),
        }
    }

    #[test]
    fn round_robin_alternates_tenants_within_a_lane() {
        let mut qs = LaneQueues::default();
        let (a, b) = (tenant(0, QosClass::Standard), tenant(1, QosClass::Standard));
        for _ in 0..3 {
            qs.push(job_for(&a, 4, 1.0));
        }
        for _ in 0..3 {
            qs.push(job_for(&b, 4, 1.0));
        }
        let mut order = Vec::new();
        while let Some(batch) = qs.take_batch(1) {
            order.push(batch.tenant.0);
            qs.finish_batch(batch.tenant, batch.qos);
        }
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn higher_qos_lane_drains_first() {
        let mut qs = LaneQueues::default();
        let bulk = tenant(0, QosClass::Batch);
        let ui = tenant(1, QosClass::Interactive);
        qs.push(job_for(&bulk, 4, 1.0));
        qs.push(job_for(&ui, 4, 1.0));
        let first = qs.take_batch(4).unwrap();
        assert_eq!(first.tenant, TenantId(1));
        assert_eq!(first.qos, QosClass::Interactive);
        qs.finish_batch(first.tenant, first.qos);
        let second = qs.take_batch(4).unwrap();
        assert_eq!(second.tenant, TenantId(0));
    }

    #[test]
    fn batch_takes_only_the_contiguous_same_shape_prefix() {
        let mut qs = LaneQueues::default();
        let t = tenant(0, QosClass::Standard);
        qs.push(job_for(&t, 4, 1.0));
        qs.push(job_for(&t, 4, 1.0));
        qs.push(job_for(&t, 8, 1.0)); // shape change stops the batch
        qs.push(job_for(&t, 4, 1.0));
        let b = qs.take_batch(16).unwrap();
        assert_eq!(b.jobs.len(), 2, "prefix stops at the shape change");
        qs.finish_batch(b.tenant, b.qos);
        let b = qs.take_batch(16).unwrap();
        assert_eq!(b.jobs.len(), 1);
        assert_eq!(b.jobs[0].key.1, Dims::d3(8, 8, 8));
        qs.finish_batch(b.tenant, b.qos);
        let b = qs.take_batch(16).unwrap();
        assert_eq!(b.jobs.len(), 1);
        assert_eq!(b.jobs[0].key.1, Dims::d3(4, 4, 4));
    }

    #[test]
    fn in_flight_tenant_yields_no_second_batch_until_finished() {
        let mut qs = LaneQueues::default();
        let t = tenant(0, QosClass::Standard);
        for _ in 0..4 {
            qs.push(job_for(&t, 4, 1.0));
        }
        let b = qs.take_batch(2).unwrap();
        assert_eq!(b.jobs.len(), 2);
        assert!(!qs.is_empty());
        assert!(qs.take_batch(2).is_none(), "tenant is in flight");
        assert!(qs.tenant_busy(TenantId(0), QosClass::Standard));
        qs.finish_batch(b.tenant, b.qos);
        assert_eq!(qs.take_batch(2).unwrap().jobs.len(), 2);
    }

    #[test]
    fn max_batch_caps_a_turn_and_backlog_tracks() {
        let mut qs = LaneQueues::default();
        let t = tenant(0, QosClass::Standard);
        for _ in 0..5 {
            qs.push(job_for(&t, 4, 1.0));
        }
        assert_eq!(qs.queued(), 5);
        assert!((qs.backlog_secs() - 5.0).abs() < 1e-12);
        let b = qs.take_batch(2).unwrap();
        assert_eq!(b.jobs.len(), 2);
        assert_eq!(qs.queued(), 3);
        assert!((qs.backlog_secs() - 3.0).abs() < 1e-12);
        qs.drain_all();
        assert!(qs.is_empty());
        assert_eq!(qs.backlog_secs(), 0.0);
    }

    #[test]
    fn expire_due_sweeps_only_dead_jobs_and_keeps_order() {
        let mut qs = LaneQueues::default();
        let t = tenant(0, QosClass::Standard);
        let now = Instant::now();
        let mut dead = job_for(&t, 4, 1.0);
        dead.deadline = Some(now - Duration::from_millis(1));
        let mut live = job_for(&t, 8, 1.0);
        live.deadline = Some(now + Duration::from_secs(60));
        let undated = job_for(&t, 16, 1.0);
        qs.push(job_for(&t, 2, 1.0)); // undated head survives in place
        qs.push(dead);
        qs.push(live);
        qs.push(undated);
        let expired = qs.expire_due(Instant::now());
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].key.1, Dims::d3(4, 4, 4));
        assert_eq!(qs.queued(), 3);
        // Survivors keep submission order around the hole.
        let dims: Vec<Dims> = std::iter::from_fn(|| {
            qs.take_batch(1).map(|b| {
                let d = b.jobs[0].key.1;
                qs.finish_batch(b.tenant, b.qos);
                d
            })
        })
        .collect();
        assert_eq!(
            dims,
            vec![Dims::d3(2, 2, 2), Dims::d3(8, 8, 8), Dims::d3(16, 16, 16)]
        );
    }

    #[test]
    fn drain_rehome_skips_in_flight_tenants() {
        let mut qs = LaneQueues::default();
        let (a, b) = (tenant(0, QosClass::Standard), tenant(1, QosClass::Standard));
        for _ in 0..3 {
            qs.push(job_for(&a, 4, 1.0));
        }
        for m in [2, 8] {
            qs.push(job_for(&b, m, 1.0));
        }
        // Tenant a has a batch in the air: its queued jobs must stay.
        let airborne = qs.take_batch(1).unwrap();
        assert_eq!(airborne.tenant, TenantId(0));
        let moved = qs.drain_rehome();
        assert_eq!(moved.len(), 2, "only the idle tenant's jobs move");
        assert!(moved.iter().all(|j| j.tenant.id == TenantId(1)));
        // FIFO order of the moved tenant survives the drain.
        assert_eq!(moved[0].key.1, Dims::d3(2, 2, 2));
        assert_eq!(moved[1].key.1, Dims::d3(8, 8, 8));
        assert_eq!(qs.queued(), 2);
        qs.finish_batch(airborne.tenant, airborne.qos);
        assert_eq!(qs.take_batch(8).unwrap().jobs.len(), 2);
    }

    #[test]
    fn drain_lane_empties_exactly_one_class() {
        let mut qs = LaneQueues::default();
        let bulk = tenant(0, QosClass::Batch);
        let ui = tenant(1, QosClass::Interactive);
        qs.push(job_for(&bulk, 4, 1.0));
        qs.push(job_for(&bulk, 4, 1.0));
        qs.push(job_for(&ui, 4, 2.0));
        let shed = qs.drain_lane(QosClass::Batch);
        assert_eq!(shed.len(), 2);
        assert_eq!(qs.queued(), 1);
        assert!((qs.backlog_secs() - 2.0).abs() < 1e-12);
        assert_eq!(qs.take_batch(1).unwrap().tenant, TenantId(1));
    }

    #[test]
    fn shed_picks_the_cheapest_tail_of_the_lowest_class() {
        let mut qs = LaneQueues::default();
        let bulk = tenant(0, QosClass::Batch);
        let std_t = tenant(1, QosClass::Standard);
        qs.push(job_for(&bulk, 4, 3.0));
        qs.push(job_for(&bulk, 4, 0.5)); // cheapest batch-class tail
        qs.push(job_for(&std_t, 4, 0.1));
        // An interactive submission may shed standard and batch work; the
        // batch lane is strictly lower, so it goes first despite the
        // standard job being cheaper.
        let peek = qs.peek_shed(QosClass::Interactive).unwrap();
        assert_eq!(peek.qos, QosClass::Batch);
        assert!((peek.predicted_secs - 0.5).abs() < 1e-12);
        let shed = qs.shed_one(QosClass::Interactive).unwrap();
        assert!((shed.cost.secs - 0.5).abs() < 1e-12);
        // A standard submission may only shed the batch lane.
        let peek = qs.peek_shed(QosClass::Standard).unwrap();
        assert_eq!(peek.qos, QosClass::Batch);
        assert!((peek.predicted_secs - 3.0).abs() < 1e-12);
        // A batch submission has nothing strictly below it.
        assert!(qs.peek_shed(QosClass::Batch).is_none());
        assert_eq!(qs.queued(), 2);
    }

    /// SplitMix64, for the seeded driver below.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Tenant, key, price and cell of a job pushed and not yet seen leaving.
    struct Queued(usize, (Routine, Dims), f64, usize);

    /// Two cells' real `LaneQueues` and what the driver saw go in and come
    /// out. Jobs are tagged by push order in `client`; prices are quarter
    /// seconds, so the gauge sums are exact. A job leaves `queued` once: a
    /// second exit of the same job fails that removal.
    struct Driver {
        cells: [LaneQueues; 2],
        tenants: Vec<Arc<TenantState>>,
        queued: BTreeMap<u64, Queued>,
        /// Tenant → (owner cell, serials) of its taken, unfinished batch.
        airborne: BTreeMap<usize, (usize, Vec<u64>)>,
        left: usize,
        pushed: usize,
        now: Instant,
        rng: SplitMix,
    }

    impl Driver {
        fn new(seed: u64) -> Driver {
            let lanes = [0, 1, 1, 2].into_iter().enumerate();
            Driver {
                cells: Default::default(),
                tenants: lanes
                    .map(|(t, l)| tenant(t as u64, QosClass::of_lane(l)))
                    .collect(),
                queued: BTreeMap::new(),
                airborne: BTreeMap::new(),
                left: 0,
                pushed: 0,
                now: Instant::now(),
                rng: SplitMix(seed),
            }
        }

        fn step(&mut self) {
            self.now += Duration::from_millis(1);
            let c = self.rng.below(2);
            match self.rng.below(10) {
                0..=3 => self.push(),
                4 | 5 => self.take(c),
                6 | 7 => self.finish_one(),
                8 => self.rehome(c),
                _ => {
                    let qos = QosClass::of_lane(self.rng.below(3));
                    let gone = match self.rng.below(3) {
                        0 => self.cells[c].shed_one(qos).into_iter().collect(),
                        1 => self.cells[c].expire_due(self.now),
                        _ => self.cells[c].drain_lane(qos),
                    };
                    for job in gone {
                        self.left_unserved(c, job);
                    }
                }
            }
            self.check();
        }

        fn push(&mut self) {
            let t = self.rng.below(self.tenants.len());
            let tenant = Arc::clone(&self.tenants[t]);
            // The router's sticky rule: where the tenant is busy, else anywhere.
            let cell = (0..2)
                .find(|&c| self.cells[c].tenant_busy(tenant.id, tenant.qos))
                .unwrap_or_else(|| self.rng.below(2));
            let secs = 0.25 * (1 + self.rng.below(4)) as f64;
            let mut job = job_for(&tenant, 1 + self.rng.below(2), secs);
            job.client = ClientId(self.pushed as u64);
            let due = self.now + Duration::from_millis(1 + self.rng.below(12) as u64);
            job.deadline = (self.rng.below(4) == 0).then_some(due);
            let queued = Queued(t, job.key, secs, cell);
            self.queued.insert(job.client.0, queued);
            self.pushed += 1;
            self.cells[cell].push(job);
        }

        /// A take on cell `c`: the next batch its scheduler would run.
        fn take(&mut self, c: usize) {
            let max_batch = 1 + self.rng.below(3);
            let Some(batch) = self.cells[c].take_batch(max_batch) else {
                return;
            };
            let t = batch.tenant.0 as usize;
            let held = self.airborne.contains_key(&t);
            assert!(!held, "second batch in flight for tenant {t}");
            let serials: Vec<u64> = batch.jobs.iter().map(|j| j.client.0).collect();
            let fifo = self.queued.iter().filter(|(_, q)| q.0 == t);
            let fifo: Vec<u64> = fifo.map(|(&s, _)| s).collect();
            // Per-tenant FIFO and batch shape: the head of the tenant's
            // queued jobs, one key, at most `max_batch`, cut short only by
            // a key change.
            let head = fifo.get(..serials.len());
            assert_eq!(head, Some(&serials[..]), "tenant {t}: not its FIFO's head");
            let key = batch.jobs[0].key;
            assert!(serials.len() <= max_batch && batch.jobs.iter().all(|j| j.key == key));
            let next = fifo.get(serials.len()).map(|s| self.queued[s].1);
            let cut = serials.len() == max_batch || next != Some(key);
            assert!(cut, "tenant {t}: batch stopped before a same-key job");
            for s in &serials {
                assert_eq!(self.queued.remove(s).map(|q| q.3), Some(c));
            }
            self.airborne.insert(t, (c, serials));
        }

        fn finish_one(&mut self) {
            let pick = self.rng.below(self.airborne.len().max(1));
            let Some(&t) = self.airborne.keys().nth(pick) else {
                return;
            };
            let (owner, serials) = self.airborne.remove(&t).unwrap();
            self.cells[owner].finish_batch(self.tenants[t].id, self.tenants[t].qos);
            self.left += serials.len();
        }

        /// The supervisor's restart of cell `c`: drain, push into the other.
        fn rehome(&mut self, c: usize) {
            for job in self.cells[c].drain_rehome() {
                let t = job.tenant.id.0 as usize;
                let held = self.airborne.contains_key(&t);
                assert!(!held, "re-homed an airborne tenant {t}");
                let q = self.queued.get_mut(&job.client.0).unwrap();
                assert_eq!(q.3, c);
                q.3 = 1 - c;
                self.cells[1 - c].push(job);
            }
        }

        fn left_unserved(&mut self, c: usize, job: Job) {
            let cell = self.queued.remove(&job.client.0).map(|q| q.3);
            assert_eq!(cell, Some(c), "job {} left cell {c}", job.client.0);
            self.left += 1;
        }

        /// The invariants, after every whole call.
        fn check(&self) {
            for (c, qs) in self.cells.iter().enumerate() {
                let here = self.queued.values().filter(|q| q.3 == c);
                let (n, secs) = here.fold((0, 0.0), |(n, s), q| (n + 1, s + q.2));
                let gauges = (qs.queued(), qs.backlog_secs(), qs.is_empty());
                assert_eq!(gauges, (n, secs, n == 0), "cell {c}: gauges");
            }
            for tenant in &self.tenants {
                let busy = |c: usize| self.cells[c].tenant_busy(tenant.id, tenant.qos);
                assert!(!(busy(0) && busy(1)), "{} split across cells", tenant.id);
            }
            let airborne: usize = self.airborne.values().map(|(_, s)| s.len()).sum();
            let seen = self.queued.len() + airborne + self.left;
            assert_eq!(seen, self.pushed, "a job was lost or duplicated");
        }

        /// Land every airborne batch, then drain and count what is left.
        fn drain(&mut self) {
            while !self.airborne.is_empty() {
                self.finish_one();
            }
            for c in 0..2 {
                for job in self.cells[c].drain_all() {
                    self.left_unserved(c, job);
                }
            }
            self.check();
            assert_eq!(self.left, self.pushed);
        }
    }

    /// The queue discipline — hold, no split tenant, batch shape,
    /// per-tenant FIFO, exactly once, gauges — over seeded sequences of
    /// whole calls on two real cells' queues: push by the sticky rule,
    /// take on either cell, finish, drain-and-rehome (the supervisor's
    /// restart), shed, expire, drain a lane. No threads or sleeps, so it
    /// runs in the Miri step too.
    #[test]
    fn seeded_call_sequences_keep_the_queue_discipline() {
        let (sequences, calls) = if cfg!(miri) { (16, 40) } else { (2_000, 80) };
        for seed in 0..sequences {
            let run = std::panic::catch_unwind(|| {
                let mut driver = Driver::new(seed);
                (0..calls).for_each(|_| driver.step());
                driver.drain();
            });
            if let Err(panic) = run {
                eprintln!("queue driver: seed {seed} failed");
                std::panic::resume_unwind(panic);
            }
        }
    }
}

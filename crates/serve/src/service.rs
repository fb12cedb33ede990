//! The service: tenant registry, cost-aware admission and routing, and
//! the shard lifecycle.
//!
//! A [`Service`] is N scheduler cells (see [`crate::cell`]) behind one
//! admission path. Submission prices every `(routine, dims)` group once
//! with the runtime's cost model, checks the tenant's private budget and
//! the global backlog budget (shedding strictly-lower-QoS queued jobs if
//! that makes room), and places the jobs on the tenant's home cell — or,
//! when the tenant is idle, re-homes it to the cell with the least
//! predicted-seconds backlog. The predictions the paper computes for
//! thread-count selection are thus reused twice: as the admission price
//! and as the load-balancing signal.

use crate::cell::{scheduler_loop, Cell};
use crate::completion::{CompletionSlot, Ticket};
use crate::job::{AnyOp, ClientId, RejectReason, Rejected, ServeError};
use crate::queue::{Job, ShedCandidate};
use crate::router::{TenantConfig, TenantId, TenantState};
use crate::supervisor::{supervisor_loop, Breaker, BreakerSnapshot};
use crate::telemetry::{self, RoutineDrift, TelemetryRecord};
use adsala::runtime::Adsala;
use adsala_blas3::op::{Dims, Routine};
use adsala_blas3::sync::{AtomicBool, AtomicU64, Mutex, MutexGuard, Ordering};
use adsala_blas3::{Blas3Backend, ThreadPool};
use std::sync::Arc;

/// Service-level knobs, one value each. The retry schedule, the
/// watchdog's timing, the breaker's thresholds and the per-cell telemetry
/// ring's size (1024 records) are fixed; the `retry`, `supervisor` and
/// `breaker` switches turn each defence off whole.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of scheduler cells. `0` (the default) resolves to the
    /// `ADSALA_TEST_SHARDS` environment variable when set, else
    /// `min(4, hardware threads)`. Each cell owns a private worker pool
    /// capped at `ceil(hardware_threads / shards)` threads.
    pub shards: usize,
    /// Maximum queued (admitted, unserved) jobs across all cells.
    pub queue_capacity: usize,
    /// Global admission budget: a submission is rejected (after shedding
    /// what QoS allows) when the cells' summed predicted backlog plus the
    /// submission's predicted seconds would exceed this.
    pub backlog_budget_secs: f64,
    /// Maximum jobs served per scheduler wake-up (one same-shape batch).
    pub max_batch: usize,
    /// Cost model for routines without an installed predictor: predicted
    /// seconds = `flops / (fallback_gflops * 1e9)`.
    pub fallback_gflops: f64,
    /// Retry transient backend failures: up to three attempts per job
    /// under capped, jittered exponential backoff (500 µs doubling, 50 ms
    /// cap). Off, every job gets a single attempt.
    pub retry: bool,
    /// Run the cell watchdog: every 25 ms it sweeps the cells'
    /// heartbeats, and a cell with queued work whose heartbeat sits still
    /// for 4 sweeps is drained and restarted. Off, cells are never
    /// restarted.
    pub supervisor: bool,
    /// Feed execution outcomes to the backend circuit breaker: 8
    /// consecutive failures trip it and Batch work is browned out until,
    /// 250 ms on, 2 successful half-open probes close it. Off, the breaker
    /// stays [`BreakerState::Closed`](crate::BreakerState::Closed).
    pub breaker: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 0,
            queue_capacity: 1024,
            backlog_budget_secs: 60.0,
            max_batch: 32,
            fallback_gflops: 1.0,
            retry: true,
            supervisor: true,
            breaker: true,
        }
    }
}

/// Per-submission options ([`Client::submit_with`] /
/// [`Client::submit_batch_with`]). Plain [`Default`] means "no deadline",
/// matching [`Client::submit`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Absolute completion deadline. Admission rejects the submission
    /// outright ([`RejectReason::DeadlineInfeasible`]) when the target
    /// cell's predicted backlog plus the submission's own predicted
    /// seconds already misses it; an admitted job whose deadline passes
    /// while queued is swept out and settled as
    /// [`ServeError::DeadlineExceeded`] without reaching the pool.
    pub deadline: Option<std::time::Instant>,
}

/// Plausibility window for model-predicted seconds. Installed models are
/// fit on their platform's sampled domain; a call far outside it (e.g. a
/// tiny matrix against a cluster-scale model) can extrapolate to absurd
/// estimates, and an admission controller that believes `1e28` seconds
/// rejects everything. Model estimates are clamped into
/// [`plausible_window`].
const MAX_PLAUSIBLE_FLOPS_PER_SEC: f64 = 1e13; // 10 Tflop/s
const MIN_PLAUSIBLE_FLOPS_PER_SEC: f64 = 1e6; // 1 Mflop/s
const MAX_PLAUSIBLE_BYTES_PER_SEC: f64 = 1e12; // 1 TB/s
const MIN_PLAUSIBLE_BYTES_PER_SEC: f64 = 1e7; // 10 MB/s

/// `[lo, hi]` bounds on believable wall-clock seconds for a call doing
/// `flops` floating-point operations over `bytes` of operand memory.
///
/// Each resource implies a window on its own; the call cannot finish
/// faster than its *binding* resource allows, so both bounds take the
/// `max` of the flop- and byte-implied times. A flops-only window breaks
/// on Level 2: a dgemv with `2n^2` flops over `~8n^2` bytes has a
/// byte-implied floor ~800x above its flop-implied one, and clamping a
/// sane memory-bound estimate down to the flop floor would let the
/// admission budget wave through far more backlog than the machine can
/// serve.
fn plausible_window(flops: f64, bytes: f64) -> (f64, f64) {
    let flops = flops.max(1.0);
    let bytes = bytes.max(1.0);
    let lo = (flops / MAX_PLAUSIBLE_FLOPS_PER_SEC).max(bytes / MAX_PLAUSIBLE_BYTES_PER_SEC);
    let hi = (flops / MIN_PLAUSIBLE_FLOPS_PER_SEC).max(bytes / MIN_PLAUSIBLE_BYTES_PER_SEC);
    (lo, hi)
}

/// The priced decision shared by every op of one `(routine, dims)` group
/// in a submission. Computed once in [`Client::submit_batch_with`] and
/// carried whole on the job (`queue::Job::cost`) until the executing cell
/// writes it into the job's [`TelemetryRecord`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupCost {
    /// Thread count the cost model chose.
    pub nt: usize,
    /// Predicted seconds at `nt` (clamped plausible when model-backed,
    /// else the flops fallback).
    pub secs: f64,
    /// Whether an installed model priced the group.
    pub model_backed: bool,
    /// Epoch version of that model (0 on the fallback path).
    pub epoch: u64,
}

/// The tenant registry, guarded by the admission lock. The same lock
/// serialises every capacity/budget check against the push it admits, so
/// two racing submissions cannot both fit under the last slice of budget.
/// Cells never take this lock — execution only touches atomics.
pub(crate) struct Registry {
    tenants: Vec<Arc<TenantState>>,
}

/// State shared between client handles, the service, and the cells.
pub(crate) struct Shared<B: Blas3Backend> {
    pub runtime: Adsala<B>,
    pub cfg: ServeConfig,
    pub cells: Vec<Arc<Cell>>,
    /// Backend circuit breaker fed by every execution outcome.
    pub breaker: Breaker,
    admission: Mutex<Registry>,
    /// Set before shutdown notifications; submissions observe it without
    /// touching any cell lock.
    stopped: AtomicBool,
    /// Global telemetry sequence stamp, so per-cell rings merge into one
    /// service-wide order.
    seq: AtomicU64,
    next_client: AtomicU64,
    next_tenant: AtomicU64,
}

impl<B: Blas3Backend> Shared<B> {
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Whether shutdown has begun (the supervisor's exit signal).
    pub fn is_stopped(&self) -> bool {
        // ORDER: Acquire — pairs with the Release stores in shutdown and
        // the failed-spawn path.
        self.stopped.load(Ordering::Acquire)
    }

    /// The admission lock. Held for every capacity check + placement, and
    /// by the supervisor while draining and re-homing a wedged cell, so
    /// routing never observes a half-moved tenant.
    pub(crate) fn registry(&self) -> MutexGuard<'_, Registry> {
        self.admission
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn pending_jobs(&self) -> usize {
        self.cells
            .iter()
            // ORDER: Acquire — pairs with sync_gauges' Release store.
            .map(|c| c.pending.load(Ordering::Acquire))
            .sum()
    }

    fn backlog_secs(&self) -> f64 {
        self.cells.iter().map(|c| c.backlog_secs()).sum()
    }
}

/// Per-shard slice of a [`ServiceStats`] snapshot.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Jobs queued on this cell (admitted, not yet taken for execution).
    pub pending_jobs: usize,
    /// Predicted seconds of this cell's queued backlog.
    pub backlog_secs: f64,
    /// Telemetry records currently retained in this cell's ring.
    pub telemetry_records: usize,
    /// Jobs this cell served over the service lifetime (including records
    /// since evicted from the ring).
    pub served: u64,
    /// Jobs shed from this cell's queues under overload.
    pub shed_jobs: u64,
    /// Completion callbacks that panicked on this cell's threads (caught
    /// and counted, never propagated into the scheduler).
    pub callback_panics: u64,
    /// Transient-failure retries executed on this cell (see
    /// [`ServeConfig::retry`]).
    pub retries: u64,
    /// Times the supervisor drained and restarted this cell's scheduler.
    pub restarts: u64,
    /// Jobs settled as [`ServeError::DeadlineExceeded`] without reaching
    /// the pool.
    pub expired_jobs: u64,
}

/// A point-in-time operator snapshot of a [`Service`] from
/// [`Service::stats`]: the per-shard breakdown — the view that shows
/// skew and shedding — plus the merged drift signals.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// One entry per scheduler cell.
    pub shards: Vec<ShardStats>,
    /// Aggregate observed/predicted drift over the merged telemetry,
    /// when any record qualifies.
    pub mean_observed_over_predicted: Option<f64>,
    /// Per-routine drift breakdown over the merged telemetry (see
    /// [`telemetry::drift_by_routine`]).
    pub drift_by_routine: Vec<RoutineDrift>,
    /// The backend circuit breaker's position and trip count.
    pub breaker: BreakerSnapshot,
}

/// A sharded, batched, admission-controlled executor over a shared
/// [`Adsala`] runtime. See the crate docs for the design.
///
/// Dropping the service shuts it down: each cell drains its already
/// admitted jobs (unless paused), then exits and is joined.
pub struct Service<B: Blas3Backend + 'static> {
    pub(crate) shared: Arc<Shared<B>>,
    schedulers: Vec<std::thread::JoinHandle<()>>,
    /// The watchdog thread, when [`ServeConfig::supervisor`]. Unparked and
    /// joined first on drop — it owns the handles of any replacement
    /// schedulers it spawned and joins them before retiring.
    supervisor: Option<std::thread::JoinHandle<()>>,
}

/// Resolve [`ServeConfig::shards`]: explicit > env override > hardware.
fn resolve_shards(cfg: &ServeConfig) -> usize {
    if cfg.shards > 0 {
        return cfg.shards;
    }
    if let Ok(v) = std::env::var("ADSALA_TEST_SHARDS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    ThreadPool::hardware_threads().clamp(1, 4)
}

impl<B: Blas3Backend + 'static> Service<B> {
    /// Serve `runtime` with the default [`ServeConfig`].
    ///
    /// # Errors
    /// [`ServeError::Spawn`] when the host refuses a scheduler thread;
    /// already-spawned cells are shut down cleanly, so the caller can
    /// degrade (e.g. retry with fewer shards) instead of panicking.
    pub fn new(runtime: Adsala<B>) -> Result<Service<B>, ServeError> {
        Service::with_config(runtime, ServeConfig::default())
    }

    /// Serve `runtime` with explicit knobs.
    ///
    /// # Errors
    /// [`ServeError::Spawn`] — see [`Service::new`].
    pub fn with_config(runtime: Adsala<B>, cfg: ServeConfig) -> Result<Service<B>, ServeError> {
        let shards = resolve_shards(&cfg);
        let workers_per_cell = ThreadPool::hardware_threads().div_ceil(shards).max(1);
        let cells: Vec<Arc<Cell>> = (0..shards)
            .map(|i| Arc::new(Cell::new(i, workers_per_cell)))
            .collect();
        let breaker = Breaker::new(cfg.breaker);
        let shared = Arc::new(Shared {
            runtime,
            cfg,
            cells,
            breaker,
            admission: Mutex::new(Registry {
                tenants: Vec::new(),
            }),
            stopped: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            next_client: AtomicU64::new(0),
            next_tenant: AtomicU64::new(0),
        });
        let mut schedulers = Vec::with_capacity(shards);
        for i in 0..shards {
            let cell_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("adsala-serve-cell-{i}"))
                .spawn(move || scheduler_loop(cell_shared, i, 0));
            match spawned {
                Ok(handle) => schedulers.push(handle),
                Err(e) => {
                    // Degrade, don't panic: stop the cells that did spawn
                    // and hand the caller a typed error.
                    // ORDER: Release — pairs with admit_locked's Acquire
                    // load; a submitter that sees the flag must also see
                    // the shutdown marks below published by the cell locks.
                    shared.stopped.store(true, Ordering::Release);
                    for cell in &shared.cells {
                        cell.lock().shutdown = true;
                        cell.cv.notify_all();
                    }
                    for handle in schedulers {
                        let _ = handle.join();
                    }
                    return Err(ServeError::Spawn {
                        shard: i,
                        kind: e.kind(),
                    });
                }
            }
        }
        // The watchdog is best-effort by design: a host that refuses the
        // thread leaves the service running unsupervised (the pre-watchdog
        // behaviour) rather than failing construction.
        let supervisor = if shared.cfg.supervisor {
            let sup_shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("adsala-serve-supervisor".to_string())
                .spawn(move || supervisor_loop(sup_shared))
                .ok()
        } else {
            None
        };
        Ok(Service {
            shared,
            schedulers,
            supervisor,
        })
    }

    /// Register a tenant with explicit QoS class and backlog budget.
    pub fn tenant(&self, cfg: TenantConfig) -> TenantId {
        let id = TenantId(self.shared.next_tenant.fetch_add(1, Ordering::Relaxed));
        let state = Arc::new(TenantState::new(id, cfg));
        self.shared.registry().tenants.push(state);
        id
    }

    /// A client handle submitting as `tenant`.
    ///
    /// # Panics
    /// If `tenant` was not returned by [`Service::tenant`] (or
    /// [`Service::client`]) on this service.
    pub fn client_for(&self, tenant: TenantId) -> Client<B> {
        let state = self
            .shared
            .registry()
            .tenants
            .iter()
            .find(|t| t.id == tenant)
            .map(Arc::clone)
            .expect("unknown tenant id for this service");
        Client {
            shared: Arc::clone(&self.shared),
            id: ClientId(self.shared.next_client.fetch_add(1, Ordering::Relaxed)),
            tenant: state,
        }
    }

    /// A new client handle under a **fresh tenant** with
    /// [`TenantConfig::default`] knobs — each call gets its own FIFO and
    /// fairness slot, preserving the pre-shard per-client semantics.
    pub fn client(&self) -> Client<B> {
        let tenant = self.tenant(TenantConfig::default());
        self.client_for(tenant)
    }

    /// Number of scheduler cells actually running (after
    /// [`ServeConfig::shards`] resolution).
    pub fn shards(&self) -> usize {
        self.shared.cells.len()
    }

    /// Pause serving on every cell (submissions still admit and queue
    /// until [`Service::resume`]). Called before the first submission it
    /// is a staged start-up: nothing is served until `resume`.
    pub fn pause(&self) {
        for cell in &self.shared.cells {
            cell.lock().paused = true;
            cell.cv.notify_all();
        }
    }

    /// Resume serving after [`Service::pause`].
    pub fn resume(&self) {
        for cell in &self.shared.cells {
            cell.lock().paused = false;
            cell.cv.notify_all();
        }
    }

    /// The merged observed-wall-clock telemetry across every cell, in
    /// service-wide recording order (each record carries the shard it
    /// executed on). This is the view the adaptation loop refits from.
    pub fn telemetry_snapshot(&self) -> Vec<TelemetryRecord> {
        let mut merged: Vec<TelemetryRecord> = self
            .shared
            .cells
            .iter()
            .flat_map(|c| c.telemetry.snapshot())
            .collect();
        merged.sort_by_key(|r| r.seq);
        merged
    }

    /// The runtime serving this service's calls.
    pub fn runtime(&self) -> &Adsala<B> {
        &self.shared.runtime
    }

    /// Jobs admitted but not yet taken for execution, across all cells.
    pub fn pending_jobs(&self) -> usize {
        self.shared.pending_jobs()
    }

    /// Predicted seconds of the admitted-but-untaken backlog.
    pub fn backlog_secs(&self) -> f64 {
        self.shared.backlog_secs()
    }

    /// One consistent operator view: the per-shard breakdown (queue
    /// depth, backlog and shed counters — the skew view) plus the
    /// drift signals over the merged telemetry, aggregate *and* per
    /// routine, because the aggregate can hide one drifting routine
    /// behind several healthy ones.
    pub fn stats(&self) -> ServiceStats {
        let shards = self
            .shared
            .cells
            .iter()
            .map(|c| ShardStats {
                shard: c.index,
                // ORDER: Acquire — pairs with sync_gauges' Release store.
                pending_jobs: c.pending.load(Ordering::Acquire),
                backlog_secs: c.backlog_secs(),
                telemetry_records: c.telemetry.len(),
                served: c.telemetry.total_recorded(),
                shed_jobs: c.shed_jobs.load(Ordering::Relaxed),
                callback_panics: c.callback_panics.load(Ordering::Relaxed),
                retries: c.retries.load(Ordering::Relaxed),
                restarts: c.restarts.load(Ordering::Relaxed),
                expired_jobs: c.expired_jobs.load(Ordering::Relaxed),
            })
            .collect();
        let snap = self.telemetry_snapshot();
        ServiceStats {
            shards,
            mean_observed_over_predicted: telemetry::mean_observed_over_predicted(&snap),
            drift_by_routine: telemetry::drift_by_routine(&snap),
            breaker: self.shared.breaker.snapshot(),
        }
    }

    /// Shut down explicitly (identical to dropping the service).
    pub fn shutdown(self) {}
}

impl<B: Blas3Backend + 'static> Drop for Service<B> {
    fn drop(&mut self) {
        // ORDER: Release — pairs with admit_locked's Acquire load so a
        // racing submitter that sees the flag also sees shutdown state.
        self.shared.stopped.store(true, Ordering::Release);
        for cell in &self.shared.cells {
            cell.lock().shutdown = true;
            cell.cv.notify_all();
        }
        // The supervisor first: while it runs it may drain/restart cells,
        // and it owns the replacement schedulers' handles — after this
        // join no thread but the (possibly stale) originals remains. It
        // parks between sweeps; the unpark ends that wait now that the
        // stop flag is up.
        if let Some(handle) = self.supervisor.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
        for handle in self.schedulers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A submission handle onto a [`Service`], scoped to one tenant. Cheap to
/// clone; clones share the tenant's FIFO, QoS class, and budget.
pub struct Client<B: Blas3Backend + 'static> {
    shared: Arc<Shared<B>>,
    id: ClientId,
    tenant: Arc<TenantState>,
}

impl<B: Blas3Backend + 'static> Clone for Client<B> {
    fn clone(&self) -> Self {
        Client {
            shared: Arc::clone(&self.shared),
            id: self.id,
            tenant: Arc::clone(&self.tenant),
        }
    }
}

impl<B: Blas3Backend + 'static> Client<B> {
    /// This handle's identifier (appears in [`TelemetryRecord`]s).
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The tenant this handle submits as.
    pub fn tenant_id(&self) -> TenantId {
        self.tenant.id
    }

    /// Submit one job.
    ///
    /// # Errors
    /// [`Rejected`] (operands handed back) when validation, queue
    /// capacity, or a backlog budget refuses the job.
    pub fn submit(&self, op: impl Into<AnyOp>) -> Result<Ticket, Rejected> {
        self.submit_with(op, SubmitOptions::default())
    }

    /// [`Client::submit`] with per-submission options (deadline).
    ///
    /// # Errors
    /// As [`Client::submit`], plus
    /// [`RejectReason::DeadlineInfeasible`] when the predicted completion
    /// already misses the deadline.
    pub fn submit_with(
        &self,
        op: impl Into<AnyOp>,
        opts: SubmitOptions,
    ) -> Result<Ticket, Rejected> {
        let mut tickets = self.submit_batch_with(vec![op.into()], opts)?;
        Ok(tickets.pop().expect("one ticket per accepted op"))
    }

    /// Submit a batch of jobs, admitted and rejected atomically.
    ///
    /// Jobs sharing a `(routine, dims)` key are priced with **one**
    /// prediction sweep for the whole group and served back-to-back with
    /// the same thread count — the amortisation that makes fixed-shape
    /// streams cheap. The whole submission lands on one cell (the
    /// tenant's home), so order within the batch is preserved.
    ///
    /// # Errors
    /// [`Rejected`] with every operand handed back if any op fails
    /// validation, or if the batch as a whole exceeds queue capacity, the
    /// tenant's budget, or (after shedding what QoS allows) the global
    /// backlog budget.
    pub fn submit_batch(&self, ops: Vec<AnyOp>) -> Result<Vec<Ticket>, Rejected> {
        self.submit_batch_with(ops, SubmitOptions::default())
    }

    /// [`Client::submit_batch`] with per-submission options (deadline).
    ///
    /// # Errors
    /// As [`Client::submit_batch`], plus
    /// [`RejectReason::DeadlineInfeasible`] when the target cell's
    /// predicted backlog plus the submission's own predicted seconds
    /// already misses `opts.deadline`.
    pub fn submit_batch_with(
        &self,
        ops: Vec<AnyOp>,
        opts: SubmitOptions,
    ) -> Result<Vec<Ticket>, Rejected> {
        let mut ops = ops;
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        for op in ops.iter_mut() {
            if let Err(e) = op.validate() {
                return Err(Rejected {
                    reason: RejectReason::Invalid(e),
                    ops,
                });
            }
        }

        // Price each group once: the predictor sweep (or flops fallback)
        // runs per distinct (routine, dims), not per op. Done outside
        // every lock — prediction can be microseconds-expensive.
        let mut groups: Vec<((Routine, Dims), GroupCost)> = Vec::new();
        let mut costs = Vec::with_capacity(ops.len());
        for op in &ops {
            let key = op.group_key();
            let est = match groups.iter().find(|(k, _)| *k == key) {
                Some((_, est)) => *est,
                None => {
                    let c = self.shared.runtime.predict_cost(key.0, key.1);
                    let flops = op.flops().max(1.0);
                    let est = match c.secs {
                        Some(secs) => {
                            let (lo, hi) = plausible_window(flops, op.bytes_touched());
                            GroupCost {
                                nt: c.nt,
                                secs: secs.clamp(lo, hi),
                                model_backed: true,
                                epoch: c.epoch.unwrap_or(0),
                            }
                        }
                        None => GroupCost {
                            nt: c.nt,
                            secs: flops / (self.shared.cfg.fallback_gflops * 1e9),
                            model_backed: false,
                            epoch: 0,
                        },
                    };
                    groups.push((key, est));
                    est
                }
            };
            costs.push((key, est));
        }
        let requested_secs: f64 = costs.iter().map(|(_, est)| est.secs).sum();

        // Admit under the admission lock; settle shed victims only after
        // every lock is released (a shed callback may resubmit, which
        // would otherwise deadlock on the admission lock).
        let mut shed_victims: Vec<(usize, Job)> = Vec::new();
        let admitted = {
            let _registry = self.shared.registry();
            self.admit_locked(ops, costs, requested_secs, opts, &mut shed_victims)
        };
        for (cell_idx, job) in shed_victims {
            let cell = &self.shared.cells[cell_idx];
            cell.shed_jobs.fetch_add(1, Ordering::Relaxed);
            cell.settle_unserved(job, ServeError::Shed);
        }
        match admitted {
            Ok((tickets, target)) => {
                self.shared.cells[target].cv.notify_all();
                Ok(tickets)
            }
            Err((reason, ops)) => Err(Rejected { reason, ops }),
        }
    }

    /// Capacity/budget checks, shedding, placement, and the push — all
    /// under the admission lock (held by the caller through the registry
    /// guard). Returns the tickets plus the target cell to notify.
    #[allow(clippy::type_complexity)]
    fn admit_locked(
        &self,
        ops: Vec<AnyOp>,
        costs: Vec<((Routine, Dims), GroupCost)>,
        requested_secs: f64,
        opts: SubmitOptions,
        shed_victims: &mut Vec<(usize, Job)>,
    ) -> Result<(Vec<Ticket>, usize), (RejectReason, Vec<AnyOp>)> {
        let shared = &self.shared;
        let cfg = &shared.cfg;
        // ORDER: Acquire — pairs with the Release stores in shutdown and
        // the failed-spawn path, ordering their cleanup before this read.
        if shared.stopped.load(Ordering::Acquire) {
            return Err((RejectReason::Stopped, ops));
        }
        // Brownout: while the breaker is open (or probing half-open), the
        // shed-first class is refused at the door instead of queued and
        // shed moments later.
        if shared.breaker.deny(self.tenant.qos) {
            return Err((RejectReason::Brownout, ops));
        }
        if shared.pending_jobs() + ops.len() > cfg.queue_capacity {
            return Err((
                RejectReason::QueueFull {
                    capacity: cfg.queue_capacity,
                },
                ops,
            ));
        }
        let tenant_backlog = self.tenant.queued_secs();
        if tenant_backlog + requested_secs > self.tenant.budget_secs {
            return Err((
                RejectReason::TenantBudgetExceeded {
                    tenant: self.tenant.id,
                    backlog_secs: tenant_backlog,
                    requested_secs,
                    budget_secs: self.tenant.budget_secs,
                },
                ops,
            ));
        }

        let mut backlog_secs = shared.backlog_secs();
        if backlog_secs + requested_secs > cfg.backlog_budget_secs {
            // Feasibility first: reject without destroying work when even
            // shedding every strictly-lower-class job cannot make room.
            let sheddable: f64 = shared
                .cells
                .iter()
                .map(|c| c.lock().queues.sheddable_secs(self.tenant.qos))
                .sum();
            if backlog_secs - sheddable + requested_secs > cfg.backlog_budget_secs {
                return Err((
                    RejectReason::BudgetExceeded {
                        backlog_secs,
                        requested_secs,
                        budget_secs: cfg.backlog_budget_secs,
                    },
                    ops,
                ));
            }
            // Shed cheapest-to-refuse first: lowest class, then smallest
            // predicted seconds, across all cells.
            while backlog_secs + requested_secs > cfg.backlog_budget_secs {
                let mut best: Option<(usize, ShedCandidate)> = None;
                for (i, c) in shared.cells.iter().enumerate() {
                    if let Some(cand) = c.lock().queues.peek_shed(self.tenant.qos) {
                        let better = match &best {
                            None => true,
                            Some((_, b)) => {
                                (cand.qos, cand.predicted_secs) < (b.qos, b.predicted_secs)
                            }
                        };
                        if better {
                            best = Some((i, cand));
                        }
                    }
                }
                let Some((cell_idx, _)) = best else {
                    // Candidates raced into flight; their seconds left the
                    // backlog gauge too, so re-check below.
                    break;
                };
                let cell = &shared.cells[cell_idx];
                let mut st = cell.lock();
                if let Some(job) = st.queues.shed_one(self.tenant.qos) {
                    cell.sync_gauges(&st.queues);
                    drop(st);
                    shed_victims.push((cell_idx, job));
                }
                backlog_secs = shared.backlog_secs();
            }
            if backlog_secs + requested_secs > cfg.backlog_budget_secs {
                return Err((
                    RejectReason::BudgetExceeded {
                        backlog_secs,
                        requested_secs,
                        budget_secs: cfg.backlog_budget_secs,
                    },
                    ops,
                ));
            }
        }

        // Placement: sticky while the tenant has work on its home cell,
        // else the cell with the least predicted backlog.
        let target = match self.tenant.home() {
            Some(home)
                if shared.cells[home]
                    .lock()
                    .queues
                    .tenant_busy(self.tenant.id, self.tenant.qos) =>
            {
                home
            }
            _ => shared
                .cells
                .iter()
                .enumerate()
                // ORDER: Acquire — pairs with sync_gauges' Release store.
                .min_by_key(|(_, c)| c.backlog_nanos.load(Ordering::Acquire))
                .map(|(i, _)| i)
                // ServeConfig guarantees at least one cell; the fallback
                // index is never used (and would be caught by the same
                // config validation if it ever were).
                .unwrap_or(0),
        };

        // Deadline feasibility: the predicted completion is the target
        // cell's queued backlog plus this submission's own predicted
        // seconds (the admission price, reused a third time). A job that
        // already cannot make its deadline is refused with the operands
        // handed back — strictly better than queueing work guaranteed to
        // be swept out dead.
        if let Some(deadline) = opts.deadline {
            let deadline_secs = deadline
                .saturating_duration_since(std::time::Instant::now())
                .as_secs_f64();
            let predicted_secs = shared.cells[target].backlog_secs() + requested_secs;
            if predicted_secs > deadline_secs {
                return Err((
                    RejectReason::DeadlineInfeasible {
                        predicted_secs,
                        deadline_secs,
                    },
                    ops,
                ));
            }
        }
        self.tenant.set_home(target);
        // Charge before the jobs are visible: a cell may serve and settle
        // them the moment the push's lock drops, and a settle that lands
        // first saturates at zero and is lost.
        self.tenant.charge(requested_secs);

        let mut tickets = Vec::with_capacity(ops.len());
        let cell = &shared.cells[target];
        let mut st = cell.lock();
        for (op, (key, cost)) in ops.into_iter().zip(costs) {
            let slot = CompletionSlot::new();
            tickets.push(Ticket::new(Arc::clone(&slot)));
            st.queues.push(Job {
                client: self.id,
                tenant: Arc::clone(&self.tenant),
                key,
                op,
                cost,
                deadline: opts.deadline,
                slot,
            });
        }
        cell.sync_gauges(&st.queues);
        drop(st);
        Ok((tickets, target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plausible_window_tracks_the_binding_resource() {
        // Compute-bound call (Level 3 regime): flops imply both bounds.
        let (lo, hi) = plausible_window(1e12, 1e9);
        assert!((lo - 1e12 / MAX_PLAUSIBLE_FLOPS_PER_SEC).abs() / lo < 1e-12);
        assert!((hi - 1e12 / MIN_PLAUSIBLE_FLOPS_PER_SEC).abs() / hi < 1e-12);

        // Memory-bound call (a 5000x5000 dgemv): 5e7 flops over 2e8
        // bytes. The flop-implied floor is 5 microseconds; streaming
        // 200 MB cannot beat 200 microseconds even at 1 TB/s, so the
        // byte-implied floor must win.
        let (flops, bytes) = (5e7, 2e8);
        let (lo, hi) = plausible_window(flops, bytes);
        assert!((lo - bytes / MAX_PLAUSIBLE_BYTES_PER_SEC).abs() / lo < 1e-12);
        assert!(lo > 10.0 * flops / MAX_PLAUSIBLE_FLOPS_PER_SEC);

        // Regression for the flops-only clamp: an extrapolated model
        // estimate physically faster than memory allows was believed
        // verbatim (the flop floor sat 40x below it), under-pricing the
        // memory-bound backlog at admission. The joint window lifts it to
        // the byte floor.
        let extrapolated = 1e-4_f64;
        let old_lo = flops / MAX_PLAUSIBLE_FLOPS_PER_SEC;
        assert_eq!(extrapolated.clamp(old_lo, hi), extrapolated);
        assert_eq!(extrapolated.clamp(lo, hi), lo);

        // A sane memory-bound estimate (~50 GB/s effective) survives.
        let sane = 4e-3_f64;
        assert_eq!(sane.clamp(lo, hi), sane);

        // The window stays well-formed at degenerate inputs.
        let (lo, hi) = plausible_window(0.0, 0.0);
        assert!(lo > 0.0 && hi >= lo);
    }
}

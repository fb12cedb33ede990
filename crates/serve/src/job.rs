//! Job descriptions and typed errors/rejections. (Completion handling —
//! tickets, callbacks, queues — lives in [`crate::completion`]; the per-job
//! record a completion carries is [`TelemetryRecord`].)

use crate::router::TenantId;
use crate::telemetry::TelemetryRecord;
use adsala_blas3::op::{Dims, Routine};
use adsala_blas3::{Blas3Error, OwnedOp, OwnedOp2};
use std::fmt;

/// Identifier of one client handle of a [`crate::Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client-{}", self.0)
    }
}

/// A precision-erased owned call description: what clients enqueue.
///
/// The service serves both precisions through one queue (the runtime's
/// backend trait is monomorphic per precision underneath), so jobs carry
/// their precision with them.
#[derive(Debug, Clone)]
pub enum AnyOp {
    /// A single-precision Level 3 call.
    F32(OwnedOp<f32>),
    /// A double-precision Level 3 call.
    F64(OwnedOp<f64>),
    /// A single-precision Level 2 call.
    F32L2(OwnedOp2<f32>),
    /// A double-precision Level 2 call.
    F64L2(OwnedOp2<f64>),
}

impl From<OwnedOp<f32>> for AnyOp {
    fn from(op: OwnedOp<f32>) -> AnyOp {
        AnyOp::F32(op)
    }
}

impl From<OwnedOp<f64>> for AnyOp {
    fn from(op: OwnedOp<f64>) -> AnyOp {
        AnyOp::F64(op)
    }
}

impl From<OwnedOp2<f32>> for AnyOp {
    fn from(op: OwnedOp2<f32>) -> AnyOp {
        AnyOp::F32L2(op)
    }
}

impl From<OwnedOp2<f64>> for AnyOp {
    fn from(op: OwnedOp2<f64>) -> AnyOp {
        AnyOp::F64L2(op)
    }
}

impl AnyOp {
    /// The fully-qualified routine (family + precision).
    pub fn routine(&self) -> Routine {
        match self {
            AnyOp::F32(op) => op.routine(),
            AnyOp::F64(op) => op.routine(),
            AnyOp::F32L2(op) => op.routine(),
            AnyOp::F64L2(op) => op.routine(),
        }
    }

    /// Canonical dimension tuple of the call.
    pub fn dims(&self) -> Dims {
        match self {
            AnyOp::F32(op) => op.dims(),
            AnyOp::F64(op) => op.dims(),
            AnyOp::F32L2(op) => op.dims(),
            AnyOp::F64L2(op) => op.dims(),
        }
    }

    /// The `(routine, dims)` batching key: jobs sharing it share one
    /// prediction and one scheduler wake-up.
    pub fn group_key(&self) -> (Routine, Dims) {
        (self.routine(), self.dims())
    }

    /// Floating-point operation count of the call.
    pub fn flops(&self) -> f64 {
        self.routine().op.flops(self.dims())
    }

    /// Bytes of operand memory the call touches. For Level 2 calls this,
    /// not flops, is the binding resource: admission plausibility windows
    /// take the slower of the flop- and byte-implied floors so a
    /// memory-bound call cannot be priced as if compute were the limit.
    pub fn bytes_touched(&self) -> f64 {
        let routine = self.routine();
        routine.op.footprint_bytes(self.dims(), routine.prec)
    }

    /// Check the cross-operand dimension rules of the call.
    pub fn validate(&mut self) -> Result<(), Blas3Error> {
        match self {
            AnyOp::F32(op) => op.validate(),
            AnyOp::F64(op) => op.validate(),
            AnyOp::F32L2(op) => op.validate(),
            AnyOp::F64L2(op) => op.validate(),
        }
    }
}

/// A finished job: the operands (with the result written into the output
/// operand on success) and the accounting.
#[derive(Debug)]
pub struct Completed {
    /// The job's operands; the output operand holds the result when
    /// `result` is `Ok`.
    pub op: AnyOp,
    /// Execution accounting: the job's one record. For a job whose
    /// `result` is `Ok` this same value is what the executing cell's
    /// telemetry ring holds (`Service::telemetry_snapshot`); a failed job
    /// delivers it here only.
    pub stats: TelemetryRecord,
    /// The backend's verdict. Admission validates every description, so
    /// with the built-in backends this is always `Ok`; a custom
    /// [`adsala_blas3::Blas3Backend`] may still fail post-validation (e.g.
    /// resource exhaustion), and that error surfaces here instead of
    /// wedging the scheduler.
    pub result: Result<(), Blas3Error>,
}

/// Service-level error surfaced through tickets and constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The service shut down before serving the job.
    ServiceStopped,
    /// The job was admitted but then shed under overload to make room for
    /// higher-QoS work (see [`crate::TenantConfig`]). The caller may
    /// resubmit.
    Shed,
    /// The host refused to spawn a scheduler cell thread
    /// ([`crate::Service::with_config`]); already-spawned cells were shut
    /// down cleanly. Retrying with fewer shards is the intended
    /// degradation.
    Spawn {
        /// Index of the cell whose scheduler failed to spawn.
        shard: usize,
        /// The OS error category.
        kind: std::io::ErrorKind,
    },
    /// The job's deadline passed before it ran ([`crate::SubmitOptions`]'s
    /// `deadline`, swept lazily from the queues), or a
    /// [`crate::Ticket::wait_timeout`] expired before the job settled.
    DeadlineExceeded,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::ServiceStopped => write!(f, "service stopped before the job was served"),
            ServeError::Shed => {
                write!(f, "job shed under overload to admit higher-priority work")
            }
            ServeError::Spawn { shard, kind } => {
                write!(
                    f,
                    "failed to spawn the scheduler thread for cell {shard}: {kind}"
                )
            }
            ServeError::DeadlineExceeded => {
                write!(f, "deadline passed before the job was served")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RejectReason {
    /// A call description failed validation.
    Invalid(Blas3Error),
    /// The queue already holds `capacity` jobs.
    QueueFull {
        /// Configured queue capacity.
        capacity: usize,
    },
    /// Admitting the submission would push the predicted backlog past the
    /// configured budget, and shedding lower-QoS work could not make room.
    BudgetExceeded {
        /// Predicted seconds already queued.
        backlog_secs: f64,
        /// Predicted seconds of the rejected submission.
        requested_secs: f64,
        /// Configured budget.
        budget_secs: f64,
    },
    /// Admitting the submission would push the *tenant's* predicted
    /// backlog past its private budget
    /// ([`crate::TenantConfig::backlog_budget_secs`]).
    TenantBudgetExceeded {
        /// The tenant that hit its budget.
        tenant: TenantId,
        /// Predicted seconds the tenant already has admitted.
        backlog_secs: f64,
        /// Predicted seconds of the rejected submission.
        requested_secs: f64,
        /// The tenant's configured budget.
        budget_secs: f64,
    },
    /// The service is shutting down.
    Stopped,
    /// The submission carried a deadline ([`crate::SubmitOptions`]) that
    /// the predicted completion time — target cell backlog plus the
    /// submission's own predicted seconds — already misses. Rejecting at
    /// admission is strictly better than queueing work guaranteed to be
    /// swept out as [`ServeError::DeadlineExceeded`].
    DeadlineInfeasible {
        /// Predicted seconds until the submission would complete.
        predicted_secs: f64,
        /// Seconds until the deadline at admission time.
        deadline_secs: f64,
    },
    /// The backend circuit breaker is open (brownout): sustained backend
    /// failure tripped it, and submissions in the shed-first QoS classes
    /// are refused until half-open probes close it again
    /// (see [`crate::BreakerState`]).
    Brownout,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Invalid(e) => write!(f, "invalid call description: {e}"),
            RejectReason::QueueFull { capacity } => {
                write!(f, "queue full ({capacity} jobs)")
            }
            RejectReason::BudgetExceeded {
                backlog_secs,
                requested_secs,
                budget_secs,
            } => write!(
                f,
                "predicted backlog {backlog_secs:.3e}s + requested {requested_secs:.3e}s exceeds \
                 budget {budget_secs:.3e}s"
            ),
            RejectReason::TenantBudgetExceeded {
                tenant,
                backlog_secs,
                requested_secs,
                budget_secs,
            } => write!(
                f,
                "{tenant} backlog {backlog_secs:.3e}s + requested {requested_secs:.3e}s exceeds \
                 its budget {budget_secs:.3e}s"
            ),
            RejectReason::Stopped => write!(f, "service is shutting down"),
            RejectReason::DeadlineInfeasible {
                predicted_secs,
                deadline_secs,
            } => write!(
                f,
                "predicted completion in {predicted_secs:.3e}s misses the deadline \
                 {deadline_secs:.3e}s away"
            ),
            RejectReason::Brownout => {
                write!(f, "backend circuit breaker open: low-priority work refused")
            }
        }
    }
}

/// A rejected submission: the reason plus the operands handed back, so the
/// caller keeps their data and can retry or shed load.
#[derive(Debug)]
pub struct Rejected {
    /// Why admission failed.
    pub reason: RejectReason,
    /// The submitted ops, returned in submission order.
    pub ops: Vec<AnyOp>,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ops rejected: {}", self.ops.len(), self.reason)
    }
}

impl std::error::Error for Rejected {}

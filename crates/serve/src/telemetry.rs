//! The per-job record, and the ring of recent records.
//!
//! [`TelemetryRecord`] is the service's **one** description of a finished
//! job: the priced decision it was admitted under, where and how wide it
//! ran, and the observed wall-clock. The executing cell builds it once,
//! hands it to the submitter as
//! [`Completed::stats`](crate::Completed::stats), and — when the backend
//! succeeded — appends the same value to its [`Telemetry`] ring and, when
//! the record [qualifies](TelemetryRecord::qualifies_for_drift), feeds
//! the routine's price correction
//! ([`ThreadPredictor::observe`](adsala::ThreadPredictor::observe)). The
//! drift an operator reads is that correction's own
//! ([`ServiceStats::drift_by_routine`](crate::ServiceStats::drift_by_routine)),
//! not a second average over these records.
//! Whatever else is learned about a job on its way through the service
//! (stage stamps, the decision's inputs) belongs here as a field, so every
//! reader sees it.
//!
//! Under sharding each cell owns a private ring (no cross-cell lock on
//! the serve path); records carry a service-wide [`TelemetryRecord::seq`]
//! stamp so `Service::telemetry_snapshot` can merge the rings back into
//! one recording order.

use crate::job::ClientId;
use crate::router::TenantId;
use adsala_blas3::op::{Dims, Routine};
use adsala_blas3::sync::{Mutex, MutexGuard};
use std::collections::VecDeque;

/// One executed job: what was predicted, what was observed, where it ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryRecord {
    /// Service-wide stamp taken when the job finished executing:
    /// merge-sorting per-cell rings by this recovers one global order.
    /// (Failed jobs take a stamp too, so ring stamps may have gaps.)
    pub seq: u64,
    /// Submitting client.
    pub client: ClientId,
    /// Tenant the client submitted as.
    pub tenant: TenantId,
    /// Scheduler cell that executed the job: the cell it was queued on
    /// when its batch was taken.
    pub shard: usize,
    /// Routine of the call.
    pub routine: Routine,
    /// Dimensions of the call.
    pub dims: Dims,
    /// Thread count the call executed with. Inside a multi-job batch this
    /// is 1 (batch members run serially across one pool wake-up) and may
    /// differ from [`TelemetryRecord::admitted_nt`].
    pub nt: usize,
    /// Thread count the cost model chose at admission — the count
    /// `predicted_secs` was priced at.
    pub admitted_nt: usize,
    /// Predicted seconds the job was admitted under.
    pub predicted_secs: f64,
    /// Whether the prediction came from an installed model (`true`) or
    /// not (`false`): the flops-based fallback cost model, or a model
    /// estimate that admission's plausibility window clamped.
    pub model_backed: bool,
    /// Observed wall-clock seconds of the execution (the last attempt,
    /// when the job was retried).
    pub observed_secs: f64,
    /// Jobs served in the same scheduler wake-up.
    pub batch_size: usize,
}

impl TelemetryRecord {
    /// Whether this record is a drift sample by the service's policy:
    /// model-backed, and executed at the thread count it was priced at.
    /// Batch-serialised jobs (executed `nt` differs from `admitted_nt`)
    /// are excluded — their mismatch is scheduling policy, not model
    /// error. The numbers themselves are the predictor's to vet
    /// ([`ThreadPredictor::observe`](adsala::ThreadPredictor::observe)
    /// skips a sample it cannot form a finite ratio from).
    pub fn qualifies_for_drift(&self) -> bool {
        self.model_backed && self.nt == self.admitted_nt
    }
}

struct Inner {
    ring: VecDeque<TelemetryRecord>,
    total: u64,
}

/// Bounded ring buffer of [`TelemetryRecord`]s; oldest records are evicted
/// once `capacity` is reached.
pub struct Telemetry {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Telemetry {
    /// Ring buffer holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Telemetry {
        let capacity = capacity.max(1);
        Telemetry {
            capacity,
            inner: Mutex::new(Inner {
                ring: VecDeque::with_capacity(capacity),
                total: 0,
            }),
        }
    }

    /// Append a record, evicting the oldest when full.
    pub fn record(&self, rec: TelemetryRecord) {
        let mut inner = self.lock();
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(rec);
        inner.total += 1;
    }

    /// Copy of the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<TelemetryRecord> {
        self.lock().ring.iter().copied().collect()
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records ever recorded, including evicted ones.
    pub fn total_recorded(&self) -> u64 {
        self.lock().total
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsala_blas3::op::{OpKind, Precision};

    fn rec(i: u64) -> TelemetryRecord {
        TelemetryRecord {
            seq: i,
            client: ClientId(i),
            tenant: TenantId(i),
            shard: 0,
            routine: Routine::new(OpKind::Gemm, Precision::Double),
            dims: Dims::d3(8, 8, 8),
            nt: 2,
            admitted_nt: 2,
            predicted_secs: 1.0,
            model_backed: true,
            observed_secs: 2.0,
            batch_size: 1,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_total() {
        let t = Telemetry::new(3);
        for i in 0..5 {
            t.record(rec(i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_recorded(), 5);
        let snap = t.snapshot();
        assert_eq!(
            snap.iter().map(|r| r.client.0).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn only_model_backed_records_run_at_their_priced_nt_qualify() {
        assert!(rec(0).qualifies_for_drift());
        let mut fallback = rec(1);
        fallback.model_backed = false;
        assert!(!fallback.qualifies_for_drift());
        // Batch-serialised execution (nt != admitted_nt) is policy, not
        // model error.
        let mut batched = rec(2);
        batched.nt = 1;
        batched.admitted_nt = 8;
        assert!(!batched.qualifies_for_drift());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let t = Telemetry::new(0);
        t.record(rec(0));
        t.record(rec(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.capacity(), 1);
    }
}

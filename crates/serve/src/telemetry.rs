//! The per-job record, and the observed-vs-predicted telemetry built from it.
//!
//! [`TelemetryRecord`] is the service's **one** description of a finished
//! job: the priced decision it was admitted under, where and how wide it
//! ran, and the observed wall-clock. The executing cell builds it once,
//! hands it to the submitter as
//! [`Completed::stats`](crate::Completed::stats), and — when the backend
//! succeeded — appends the same value to its [`Telemetry`] ring and, when
//! the record [qualifies](TelemetryRecord::qualifies_for_drift), feeds
//! the routine's price correction
//! ([`ThreadPredictor::observe`](adsala::ThreadPredictor::observe)).
//! Whatever else is learned about a job on its way through the service
//! (stage stamps, the decision's inputs) belongs here as a field, so every
//! reader sees it.
//!
//! Under sharding each cell owns a private ring (no cross-cell lock on
//! the serve path); records carry a service-wide [`TelemetryRecord::seq`]
//! stamp so `Service::telemetry_snapshot` can merge the rings back into
//! one recording order, and the drift view is a free function
//! ([`drift_by_routine`]) that works on any record slice — per-cell or
//! merged.

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
    /// Whether the prediction came from an installed model (`true`) or the
    /// flops-based fallback cost model (`false`).
    pub model_backed: bool,
    /// Observed wall-clock seconds of the execution (the last attempt,
    /// when the job was retried).
    pub observed_secs: f64,
    /// Jobs served in the same scheduler wake-up.
    pub batch_size: usize,
}

/// Smallest prediction a drift ratio may be formed against: the floor the
/// price correction applies to the model's own seconds.
pub use adsala::predictor::MIN_PREDICTED_SECS;

impl TelemetryRecord {
    /// Whether this record is a valid drift sample: model-backed, with a
    /// finite prediction at or above [`MIN_PREDICTED_SECS`] (zero and
    /// subnormal predictions would send one ratio to `inf` and poison the
    /// whole window mean), a finite positive observation, executed at the
    /// thread count it was priced at. Batch-serialised jobs (executed `nt`
    /// differs from `admitted_nt`) are excluded — their mismatch is
    /// scheduling policy, not model error.
    pub fn qualifies_for_drift(&self) -> bool {
        self.model_backed
            && self.predicted_secs.is_finite()
            && self.predicted_secs >= MIN_PREDICTED_SECS
            && self.observed_secs.is_finite()
            && self.observed_secs > 0.0
            && self.nt == self.admitted_nt
    }
}

/// Per-routine drift summary from [`drift_by_routine`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoutineDrift {
    /// The routine.
    pub routine: Routine,
    /// Mean `observed / predicted` over this routine's qualifying records.
    pub mean_observed_over_predicted: f64,
    /// Number of qualifying records behind the mean.
    pub samples: usize,
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

/// Per-routine drift over the records in `records` that
/// [qualify](TelemetryRecord::qualifies_for_drift), sorted by routine;
/// empty when no record qualifies. Works on any slice — one cell's
/// snapshot or the merged service-wide view. One row per routine, so a
/// badly drifting routine cannot hide behind several healthy ones (their
/// `samples`-weighted mean is the service-wide ratio).
pub fn drift_by_routine(records: &[TelemetryRecord]) -> Vec<RoutineDrift> {
    let mut per: Vec<(Routine, f64, usize)> = Vec::new();
    for r in records.iter().filter(|r| r.qualifies_for_drift()) {
        let ratio = r.observed_secs / r.predicted_secs;
        match per.iter_mut().find(|(rt, ..)| *rt == r.routine) {
            Some((_, sum, n)) => {
                *sum += ratio;
                *n += 1;
            }
            None => per.push((r.routine, ratio, 1)),
        }
    }
    per.sort_by_key(|&(rt, ..)| rt);
    per.into_iter()
        .map(|(routine, sum, n)| RoutineDrift {
            routine,
            mean_observed_over_predicted: sum / n as f64,
            samples: n,
        })
        .collect()
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
    fn drift_signal_averages_model_backed_records_only() {
        let t = Telemetry::new(8);
        assert_eq!(drift_by_routine(&t.snapshot()), Vec::new());
        t.record(rec(0)); // observed/predicted = 2.0
        let mut fallback = rec(1);
        fallback.model_backed = false;
        fallback.observed_secs = 100.0;
        t.record(fallback);
        // Batch-serialised execution (nt != admitted_nt) is policy, not
        // model error — it must not pollute the drift signal.
        let mut batched = rec(2);
        batched.nt = 1;
        batched.admitted_nt = 8;
        batched.observed_secs = 50.0;
        t.record(batched);
        let per = drift_by_routine(&t.snapshot());
        assert_eq!(per.len(), 1);
        assert_eq!(per[0].samples, 1);
        assert_eq!(per[0].mean_observed_over_predicted, 2.0);
    }

    #[test]
    fn drift_by_routine_exposes_what_the_aggregate_hides() {
        let t = Telemetry::new(16);
        // Four healthy dgemm records (ratio 1.0)...
        for i in 0..4 {
            let mut r = rec(i);
            r.observed_secs = 1.0;
            t.record(r);
        }
        // ...hiding one dsymm drifting 5x.
        let mut drifting = rec(4);
        drifting.routine = Routine::new(OpKind::Symm, Precision::Double);
        drifting.observed_secs = 5.0;
        t.record(drifting);
        // A fallback record never pollutes either view.
        let mut fallback = rec(5);
        fallback.model_backed = false;
        fallback.observed_secs = 1000.0;
        t.record(fallback);

        let per = drift_by_routine(&t.snapshot());
        // The service-wide mean (1.8) is the rows' samples-weighted mean.
        let weighted = per
            .iter()
            .map(|d| d.mean_observed_over_predicted * d.samples as f64)
            .sum::<f64>()
            / per.iter().map(|d| d.samples).sum::<usize>() as f64;
        assert!((weighted - 1.8).abs() < 1e-12, "weighted {weighted}");
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].routine.name(), "dgemm");
        assert!((per[0].mean_observed_over_predicted - 1.0).abs() < 1e-12);
        assert_eq!(per[0].samples, 4);
        assert_eq!(per[1].routine.name(), "dsymm");
        assert!((per[1].mean_observed_over_predicted - 5.0).abs() < 1e-12);
        assert_eq!(per[1].samples, 1);
    }

    #[test]
    fn zero_and_subnormal_predictions_cannot_poison_the_window_mean() {
        let t = Telemetry::new(16);
        // Four healthy records (ratio 2.0)...
        for i in 0..4 {
            t.record(rec(i));
        }
        // ...plus records whose predictions slipped below the exp-path
        // clamp floor: exactly zero, subnormal, tiny-but-normal, and NaN /
        // infinite observations. Any one of these would have sent a single
        // ratio to ~inf and dragged the whole window mean with it.
        for (predicted, observed) in [
            (0.0, 1.0),
            (f64::MIN_POSITIVE / 2.0, 1.0), // subnormal
            (1e-300, 1.0),                  // normal but far below the floor
            (1.0, f64::NAN),
            (1.0, f64::INFINITY),
        ] {
            let mut bad = rec(9);
            bad.predicted_secs = predicted;
            bad.observed_secs = observed;
            t.record(bad);
        }
        let per = drift_by_routine(&t.snapshot());
        assert_eq!(per.len(), 1);
        assert_eq!(per[0].samples, 4);
        assert!((per[0].mean_observed_over_predicted - 2.0).abs() < 1e-12);
    }

    #[test]
    fn prediction_at_the_floor_still_qualifies() {
        let mut r = rec(0);
        r.predicted_secs = MIN_PREDICTED_SECS;
        assert!(r.qualifies_for_drift());
        r.predicted_secs = MIN_PREDICTED_SECS / 2.0;
        assert!(!r.qualifies_for_drift());
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

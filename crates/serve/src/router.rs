//! Tenants, QoS classes, and the cost-aware placement state the admission
//! path routes with.
//!
//! Every client handle belongs to a **tenant** — the unit of isolation the
//! sharded service schedules by. A tenant carries a [`QosClass`] (which
//! priority lane its jobs queue in) and a private backlog budget, and the
//! router keeps it **sticky** to one scheduler cell while it has work in
//! flight: same-tenant jobs land in one FIFO, which is what makes
//! same-shape batching effective and per-tenant ordering cheap to
//! guarantee. A tenant with no queued or in-flight work is re-placed on
//! the cell with the least predicted-seconds backlog the next time it
//! submits, so stickiness never pins a tenant to a cell that has grown a
//! queue behind its back.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Identifier of one tenant of a [`crate::Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Priority class of a tenant's jobs. Cells drain lanes strictly highest
/// class first, and under overload admission may [shed](crate::ServeError::Shed)
/// queued jobs of a *strictly lower* class to make room for a
/// higher-class submission.
///
/// Declared lowest-to-highest so `a < b` means "a is cheaper to refuse
/// than b".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QosClass {
    /// Throughput work: lowest priority, first to be shed.
    Batch,
    /// The default class.
    Standard,
    /// Latency-sensitive work: drained first, never shed for others.
    Interactive,
}

impl QosClass {
    /// Number of classes (= scheduler lanes per cell).
    pub const COUNT: usize = 3;

    /// Lane index, highest priority first (`Interactive` is lane 0).
    #[inline]
    pub(crate) fn lane(self) -> usize {
        match self {
            QosClass::Interactive => 0,
            QosClass::Standard => 1,
            QosClass::Batch => 2,
        }
    }

    /// The class served by lane `lane` (inverse of [`QosClass::lane`]).
    #[inline]
    pub(crate) fn of_lane(lane: usize) -> QosClass {
        match lane {
            0 => QosClass::Interactive,
            1 => QosClass::Standard,
            _ => QosClass::Batch,
        }
    }
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QosClass::Interactive => write!(f, "interactive"),
            QosClass::Standard => write!(f, "standard"),
            QosClass::Batch => write!(f, "batch"),
        }
    }
}

/// Per-tenant admission knobs (see [`crate::Service::tenant`]).
#[derive(Debug, Clone, Copy)]
pub struct TenantConfig {
    /// Priority lane for the tenant's jobs.
    pub qos: QosClass,
    /// Private backlog budget: a submission is rejected
    /// ([`crate::RejectReason::TenantBudgetExceeded`]) when the tenant's
    /// own admitted-but-unfinished predicted seconds would exceed this —
    /// one greedy tenant exhausts *its* budget, not the service's.
    pub backlog_budget_secs: f64,
}

impl Default for TenantConfig {
    fn default() -> TenantConfig {
        TenantConfig {
            qos: QosClass::Standard,
            backlog_budget_secs: f64::INFINITY,
        }
    }
}

/// Sentinel for "tenant has no home cell" in [`TenantState::home`].
const NO_HOME: usize = usize::MAX;

/// Shared routing/accounting state of one tenant. Jobs hold an `Arc` so
/// completion can settle the accounting without touching the registry.
pub(crate) struct TenantState {
    pub id: TenantId,
    pub qos: QosClass,
    pub budget_secs: f64,
    /// Cell index the tenant's queued jobs live on (`NO_HOME` when none).
    /// Mutated only under the service's admission lock.
    home: AtomicUsize,
    /// Predicted nanoseconds admitted and not yet completed or shed.
    queued_nanos: AtomicU64,
}

/// Saturating conversion shared by the tenant and cell backlog gauges:
/// predicted seconds are tracked as integer nanoseconds so completions on
/// cell threads can settle them without a lock.
pub(crate) fn secs_to_nanos(secs: f64) -> u64 {
    if secs.is_finite() && secs > 0.0 {
        (secs * 1e9).min(u64::MAX as f64 / 2.0) as u64
    } else {
        0
    }
}

impl TenantState {
    pub fn new(id: TenantId, cfg: TenantConfig) -> TenantState {
        TenantState {
            id,
            qos: cfg.qos,
            budget_secs: cfg.backlog_budget_secs,
            home: AtomicUsize::new(NO_HOME),
            queued_nanos: AtomicU64::new(0),
        }
    }

    /// The tenant's current home cell, if any.
    pub fn home(&self) -> Option<usize> {
        // ORDER: Acquire — pairs with set_home's Release so the index is
        // never newer than the enqueue it routes toward.
        match self.home.load(Ordering::Acquire) {
            NO_HOME => None,
            idx => Some(idx),
        }
    }

    /// Re-home the tenant (admission lock held by the caller).
    pub fn set_home(&self, cell: usize) {
        // ORDER: Release — publish the enqueue that made this cell home;
        // pairs with the Acquire load in `home` above.
        self.home.store(cell, Ordering::Release);
    }

    /// Predicted seconds admitted for this tenant and not yet finished.
    pub fn queued_secs(&self) -> f64 {
        // ORDER: Acquire — pairs with the AcqRel updates in charge and
        // settle; the budget check must not run ahead of settlements.
        self.queued_nanos.load(Ordering::Acquire) as f64 / 1e9
    }

    /// Account `secs` predicted seconds (one submission, or one retry
    /// attempt) as admitted.
    pub fn charge(&self, secs: f64) {
        // ORDER: AcqRel — admission (under the lock) and completions (on
        // cell threads) race on this gauge; AcqRel chains the updates so a
        // budget check never sees a charge without its predecessors.
        self.queued_nanos
            .fetch_add(secs_to_nanos(secs), Ordering::AcqRel);
    }

    /// Settle one job (completed or shed) of `secs` predicted seconds.
    pub fn settle(&self, secs: f64) {
        let nanos = secs_to_nanos(secs);
        // Saturating: rounding can leave the gauge a few nanos short.
        // ORDER: Acquire — seed the CAS loop with a value no older than
        // the last settlement.
        let mut cur = self.queued_nanos.load(Ordering::Acquire);
        loop {
            let next = cur.saturating_sub(nanos);
            match self.queued_nanos.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,  // ORDER: success stays in the gauge chain
                Ordering::Acquire, // ORDER: failure refreshes the seed
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_lanes_invert_and_order() {
        for qos in [QosClass::Interactive, QosClass::Standard, QosClass::Batch] {
            assert_eq!(QosClass::of_lane(qos.lane()), qos);
        }
        assert!(QosClass::Batch < QosClass::Standard);
        assert!(QosClass::Standard < QosClass::Interactive);
    }

    #[test]
    fn tenant_accounting_round_trips_and_saturates() {
        let t = TenantState::new(TenantId(0), TenantConfig::default());
        assert_eq!(t.home(), None);
        t.set_home(2);
        assert_eq!(t.home(), Some(2));
        t.charge(1.5);
        assert!((t.queued_secs() - 1.5).abs() < 1e-9);
        t.settle(1.0);
        t.settle(1.0); // over-settle: gauge saturates at zero
        assert_eq!(t.queued_secs(), 0.0);
    }

    #[test]
    fn nanos_conversion_rejects_non_finite() {
        assert_eq!(secs_to_nanos(f64::NAN), 0);
        assert_eq!(secs_to_nanos(f64::INFINITY), 0);
        assert_eq!(secs_to_nanos(-1.0), 0);
        assert_eq!(secs_to_nanos(1.0), 1_000_000_000);
    }
}

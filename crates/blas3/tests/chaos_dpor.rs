//! Exhaustive-schedule gate: DPOR exploration at small thread counts —
//! of the shipped `TeamBarrier` (scheduled through `adsala_blas3::sync`)
//! and of the three discipline models that remain in `chaos::models`.
//! Unlike the seed block in `chaos_regression.rs`, nothing here depends
//! on a seed landing on the right schedule — a clean `complete` report is
//! a proof over the scenario's schedule space, and a bug is found on
//! every invocation or not at all.
#![cfg(feature = "chaos")]

mod chaos_common;

use adsala_blas3::chaos::dpor::{explore_exhaustive, DporConfig};
use adsala_blas3::chaos::models::{
    arena_discipline_bodies, queue_drain_bodies, restart_rehome_bodies,
};
use adsala_blas3::chaos::{prove, weakened, RunReport, ThreadBody};
use chaos_common::{barrier_poison_bodies, barrier_publication_bodies, RELAXED_FLIP};

/// The gate for an injected bug: DPOR must find it without seed luck — on
/// every invocation, on the same schedule. Returns that failing run.
fn find(name: &str, scenario: impl Fn() -> Vec<ThreadBody>) -> RunReport {
    let run = || {
        explore_exhaustive(&DporConfig::default(), &scenario)
            .failure
            .unwrap_or_else(|| panic!("{name}: DPOR missed it"))
    };
    let (first, second) = (run(), run());
    assert_eq!(first.schedule, second.schedule, "{name}: order drifted");
    assert_eq!(first.violations, second.violations, "{name}");
    first
}

#[test]
fn correct_barrier_is_proved_clean_exhaustively() {
    for members in 2..=3 {
        let report = prove(&format!("barrier x{members}"), || {
            barrier_publication_bodies(members, 1)
        });
        assert!(report.sleep_blocked > 0, "nothing pruned: {report:?}");
    }
}

#[test]
fn broken_barrier_is_found_without_seed_luck() {
    let found = find("relaxed flip", || {
        weakened(RELAXED_FLIP, barrier_publication_bodies(2, 1))
    });
    assert!(
        found
            .violations
            .iter()
            .any(|v| v.contains("unsynchronised read")),
        "wrong violation kind: {found:?}"
    );
}

#[test]
fn poisoned_barrier_drains_every_member_on_every_schedule() {
    // The scenario swallows the unwinds it expects and reports a member
    // that fails to unwind, so "proved" here means "everyone drained".
    for members in 2..=3 {
        prove(&format!("poison drain x{members}"), || {
            barrier_poison_bodies(members)
        });
    }
}

#[test]
fn arena_discipline_is_proved_clean_exhaustively() {
    let report = explore_exhaustive(&DporConfig::default(), || arena_discipline_bodies(2, 1));
    assert!(report.failure.is_none(), "{report:?}");
    assert!(report.complete, "coverage not proven: {report:?}");
}

#[test]
fn queue_hold_is_proved_clean_exhaustively() {
    let report = explore_exhaustive(&DporConfig::default(), || queue_drain_bodies(2, 1, 2, true));
    assert!(report.failure.is_none(), "{report:?}");
    assert!(report.complete, "coverage not proven: {report:?}");
}

#[test]
fn restart_handshake_is_proved_clean_exhaustively() {
    // The supervisor's drain-and-restart: incumbent scheduler wedged
    // mid-batch, lease bump, drain-and-rehome, sibling steal — every
    // schedule must serve each job exactly once in per-tenant order.
    let report = explore_exhaustive(&DporConfig::default(), || restart_rehome_bodies(false));
    assert!(report.failure.is_none(), "{report:?}");
    assert!(report.complete, "coverage not proven: {report:?}");
    assert!(report.schedules > 1, "{report:?}");
}

#[test]
fn in_flight_rehome_is_found_without_seed_luck() {
    // The drain bug the production skip-in-flight rule exists to prevent:
    // re-homing a tenant whose batch is still airborne lets the sibling
    // serve the tail out of order.
    let found = find("in-flight rehome", || restart_rehome_bodies(true));
    assert!(
        found
            .violations
            .iter()
            .any(|v| v.contains("rehome broke FIFO order")),
        "wrong violation kind: {found:?}"
    );
}

//! Exhaustive-schedule gate: DPOR exploration of the shipped `TeamBarrier`
//! (scheduled through `adsala_blas3::sync`) at small thread counts. Every
//! gate here runs shipped code and asserts more than one schedule.
//! Unlike the seed block in `chaos_regression.rs`, nothing here depends
//! on a seed landing on the right schedule — a clean `complete` report is
//! a proof over the scenario's schedule space, and a bug is found on
//! every invocation or not at all.
#![cfg(feature = "chaos")]

mod chaos_common;

use adsala_blas3::chaos::dpor::{explore_exhaustive, DporConfig};
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

//! Regression gate for the deterministic interleaving checker, over the
//! shipped `TeamBarrier`: the barrier as written must survive a fixed
//! seed block, and the one concurrency bug this design is most prone to —
//! a `Relaxed` generation flip where `Release` is required, injected by
//! the harness as a [`Weakening`](adsala_blas3::chaos::Weakening), not by
//! editing a copy — must be caught inside the same block. If the second
//! test ever fails, the checker has lost the sensitivity CI depends on.
#![cfg(feature = "chaos")]

mod chaos_common;

use adsala_blas3::chaos::{explore, run_interleaved, weakened, RunReport};
use chaos_common::{barrier_poison_bodies, barrier_publication_bodies, RELAXED_FLIP};

/// CI sweeps this fixed block of seeds; fixed so a failure names a seed
/// that will reproduce forever.
const SEEDS: std::ops::Range<u64> = 0..64;

fn publication(seed: u64, members: usize, rounds: usize) -> RunReport {
    run_interleaved(seed, 200_000, barrier_publication_bodies(members, rounds))
}

fn broken_publication(seed: u64) -> RunReport {
    run_interleaved(
        seed,
        200_000,
        weakened(RELAXED_FLIP, barrier_publication_bodies(4, 3)),
    )
}

#[test]
fn correct_barrier_survives_the_ci_seed_block() {
    for members in 2..=4 {
        let report = explore(SEEDS, |seed| publication(seed, members, 3))
            .expect("the shipped barrier was flagged (checker false positive)");
        // Coverage evidence, not just a green light: the block must have
        // actually scattered schedules.
        assert_eq!(report.seeds_run, 64);
        assert!(report.schedules_seen > 1, "degenerate sweep: {report:?}");
        assert!(report.max_steps > 0, "{report:?}");
    }
}

#[test]
fn broken_barrier_is_caught_within_the_ci_seed_block() {
    let failure = explore(SEEDS, broken_publication)
        .expect_err("checker missed the relaxed-flip barrier across the whole seed block");
    assert!(
        failure
            .report
            .violations
            .iter()
            .any(|v| v.contains("unsynchronised read")),
        "seed {} failed for the wrong reason: {:?}",
        failure.seed,
        failure.report
    );
    // The reported seed must replay to the identical violations — that is
    // the whole point of a deterministic checker. `explore` already
    // asserts this internally; assert once more at the gate.
    let replay = broken_publication(failure.seed);
    assert_eq!(failure.report.violations, replay.violations);
}

#[test]
fn poisoned_barrier_drains_every_member_across_the_ci_seed_block() {
    for members in 2..=4 {
        for seed in SEEDS {
            // Clean means: every member unwound (a survivor is a
            // violation) and none was left parked (a deadlock is an abort).
            let report = run_interleaved(seed, 100_000, barrier_poison_bodies(members));
            assert!(report.is_clean(), "seed {seed}: {report:?}");
            assert_eq!(report.panics, 0, "seed {seed}: {report:?}");
        }
    }
}

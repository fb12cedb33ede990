//! Scenarios over the shipped `pool::TeamBarrier`, shared by the seeded
//! gate (`chaos_regression.rs`) and the exhaustive one (`chaos_dpor.rs`).
//! The barrier is the real type, scheduled through `adsala_blas3::sync`;
//! only the payload it is supposed to publish is a checker instrument (a
//! [`DataCell`], which flags any read not ordered after its write).

use adsala_blas3::chaos::{AccessKind, DataCell, Hooks, ThreadBody, Weakening};
use adsala_blas3::pool::TeamBarrier;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The bug this barrier design is most prone to, injected from outside:
/// the one `Release` RMW in `pool.rs` — the generation flip — recorded as
/// `Relaxed`.
pub const RELAXED_FLIP: Weakening = Weakening {
    file: "pool.rs",
    kind: AccessKind::Rmw,
    // ORDER: Release — names the ordering to match, performs nothing.
    order: Ordering::Release,
};

/// Barrier publication: each of `members` threads writes its slot, waits,
/// reads its neighbour's slot, then waits again before the next round (so
/// reads and the next round's writes cannot overlap *if the barrier is
/// correct*). Clean on every schedule as shipped; under [`RELAXED_FLIP`]
/// the neighbour read is unsynchronised and the vector clocks flag it.
pub fn barrier_publication_bodies(members: usize, rounds: usize) -> Vec<ThreadBody> {
    let barrier = Arc::new(TeamBarrier::new(members));
    let slots: Arc<Vec<DataCell>> = Arc::new((0..members).map(|_| DataCell::new("slot")).collect());
    (0..members)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let slots = Arc::clone(&slots);
            Box::new(move |hooks: &Hooks, tid: usize| {
                for round in 0..rounds {
                    slots[tid].write(hooks, tid, (round * members + tid) as u64 + 1);
                    barrier.wait();
                    let neighbour = slots[(tid + 1) % members].read(hooks, tid);
                    assert!(neighbour > 0, "read a slot from before its write");
                    barrier.wait();
                }
            }) as ThreadBody
        })
        .collect()
}

/// Poison drain: member 0 is the one whose kernel "panicked" — it poisons
/// the barrier and unwinds, like `run_team`'s panic path — while every
/// other member is somewhere in `wait`. All of them must unwind too: a
/// member that comes back from `wait` instead is a violation (a survivor
/// would free-run into the region member 0 abandoned), and one that never
/// wakes is the deadlock the scheduler reports. The expected unwinds are
/// swallowed here, so a clean run has no panics.
pub fn barrier_poison_bodies(members: usize) -> Vec<ThreadBody> {
    quiet_expected_panics();
    let barrier = Arc::new(TeamBarrier::new(members));
    (0..members)
        .map(|member| {
            let barrier = Arc::clone(&barrier);
            Box::new(move |hooks: &Hooks, tid: usize| {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if member == 0 {
                        barrier.poison();
                        panic!("{MEMBER_FAILURE}");
                    }
                    barrier.wait();
                }));
                match outcome {
                    Ok(()) => hooks.violation(format!("member {tid} survived a poisoned barrier")),
                    Err(payload) if payload.is::<String>() || payload.is::<&str>() => {}
                    // Not a panic message: the scheduler tearing the run
                    // down (a pruned or aborted schedule). Let it through.
                    Err(payload) => resume_unwind(payload),
                }
            }) as ThreadBody
        })
        .collect()
}

const MEMBER_FAILURE: &str = "member failure (expected by the poison-drain scenario)";

/// Keep the hundreds of expected unwinds of an exhaustive poison-drain
/// exploration out of the test log; every other panic prints as usual.
fn quiet_expected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info.payload().downcast_ref::<String>().map(String::as_str);
            let message = message.or(info.payload().downcast_ref::<&str>().copied());
            let expected =
                message.is_some_and(|m| m == MEMBER_FAILURE || m.contains("barrier poisoned"));
            if !expected {
                default(info);
            }
        }));
    });
}

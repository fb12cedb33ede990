//! In a build without `chaos`, `adsala_blas3::sync` contributes no type of
//! its own: each name *is* the `std` type, so a reference to one is a
//! reference to the other, and the pool is laid out and compiled exactly
//! as if it named `std::sync` itself.
#![cfg(not(feature = "chaos"))]

use adsala_blas3::sync;

const _: fn(&std::sync::Mutex<()>) -> &sync::Mutex<()> = |m| m;
const _: fn(&std::sync::Condvar) -> &sync::Condvar = |c| c;
const _: fn(&std::sync::atomic::AtomicUsize) -> &sync::AtomicUsize = |a| a;
const _: fn(&std::sync::atomic::AtomicU64) -> &sync::AtomicU64 = |a| a;
const _: fn(&std::sync::atomic::AtomicBool) -> &sync::AtomicBool = |a| a;

#[test]
fn spin_until_re_evaluates_until_the_condition_holds() {
    let mut calls = 0;
    sync::spin_until(|| {
        calls += 1;
        calls == 100
    });
    assert_eq!(calls, 100);
}

#[test]
fn spin_briefly_holds_on_the_condition_and_gives_up_after_its_budget() {
    let mut calls = 0;
    assert!(sync::spin_briefly(|| {
        calls += 1;
        calls == 50
    }));
    assert_eq!(calls, 50);
    let start = std::time::Instant::now();
    assert!(!sync::spin_briefly(|| false));
    assert!(start.elapsed() >= sync::SPIN_BUDGET);
}

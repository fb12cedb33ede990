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

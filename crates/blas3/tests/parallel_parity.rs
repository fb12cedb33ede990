//! Parallel parity: the cooperative macro-kernel path must agree with the
//! naive [`ReferenceBackend`] oracles for every routine, at every thread
//! count — including teams larger than any matrix extent (ragged shapes
//! that leave some members with empty pack/compute chunks, which still
//! must meet every barrier) — in both precisions.
//!
//! Extras beyond plain parity:
//!
//! * **nt-invariance** — the cooperative schedule computes each tile with
//!   the same micro-kernel and block order regardless of team size, so
//!   results must be *bitwise* identical across nt. (The old per-chunk
//!   strategy could not make this promise: chunk boundaries moved with nt.)
//! * **zero steady-state allocations** lives in `arena_steady_state.rs`:
//!   the arena's counters are process-wide, so that check needs a test
//!   binary of its own.
//!
//! The `ADSALA_TEST_NT` environment variable appends one extra thread
//! count to every sweep (CI uses it to force an oddball team size).

// Outside the Miri subset: exercises the OS thread pool and spin barriers.
#![cfg(not(miri))]

use adsala_blas3::pool::ThreadPool;
use adsala_blas3::{gemm, reference, symm, syr2k, syrk, trmm, trsm};
use adsala_blas3::{Diag, Float, Matrix, Side, Transpose, Uplo};
use proptest::prelude::*;

/// Deterministic value stream in roughly [-2, 2].
fn val(seed: u64, i: usize, j: usize) -> f64 {
    let h = (i as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((j as u64).wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(seed.wrapping_mul(0x94D049BB133111EB));
    ((h >> 40) % 2001) as f64 / 500.0 - 2.0
}

fn det_mat<T: Float>(r: usize, c: usize, seed: u64) -> Matrix<T> {
    Matrix::from_fn(r, c, |i, j| T::from_f64(val(seed, i, j)))
}

/// Diagonally-dominant triangular operand so TRSM stays well-conditioned.
fn tri_mat<T: Float>(n: usize, seed: u64) -> Matrix<T> {
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            T::from_f64(4.0 + (i % 5) as f64)
        } else {
            T::from_f64(val(seed, i, j) / 4.0)
        }
    })
}

fn rel_diff<T: Float>(got: &Matrix<T>, expect: &Matrix<T>) -> f64 {
    got.max_abs_diff(expect) / expect.frob_norm().max(1.0)
}

/// The thread counts every sweep races: the issue's fixed set, the host's
/// hardware concurrency, and an optional CI-forced extra via
/// `ADSALA_TEST_NT`.
fn nt_sweep() -> Vec<usize> {
    let mut nts = vec![1, 2, 3, 7, ThreadPool::hardware_threads()];
    if let Some(forced) = std::env::var("ADSALA_TEST_NT")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        nts.push(forced.clamp(1, 64));
    }
    nts.sort_unstable();
    nts.dedup();
    nts
}

/// Race all six routines at `(m, n, k)`-ish shapes against the reference
/// for one scalar type, across the full nt sweep, asserting both oracle
/// parity and bitwise nt-invariance.
fn check_all_routines<T: Float>(m: usize, n: usize, k: usize, seed: u64, tol: f64) {
    let nts = nt_sweep();
    let label = std::any::type_name::<T>();

    // GEMM, both transpose flags.
    for (ta, tb) in [
        (Transpose::No, Transpose::No),
        (Transpose::Yes, Transpose::No),
        (Transpose::No, Transpose::Yes),
    ] {
        let a = match ta {
            Transpose::No => det_mat::<T>(m, k, seed),
            Transpose::Yes => det_mat::<T>(k, m, seed),
        };
        let b = match tb {
            Transpose::No => det_mat::<T>(k, n, seed ^ 1),
            Transpose::Yes => det_mat::<T>(n, k, seed ^ 1),
        };
        let c0 = det_mat::<T>(m, n, seed ^ 2);
        let alpha = T::from_f64(1.25);
        let beta = T::from_f64(-0.5);
        let mut expect = c0.clone();
        reference::gemm(ta, tb, alpha, &a, &b, beta, &mut expect);
        let mut first: Option<Matrix<T>> = None;
        for &nt in &nts {
            let mut c = c0.clone();
            gemm::gemm(nt, ta, tb, alpha, a.as_ref(), b.as_ref(), beta, c.as_mut());
            assert!(
                rel_diff(&c, &expect) < tol,
                "{label} gemm m={m} n={n} k={k} nt={nt} {ta:?}{tb:?}"
            );
            match &first {
                None => first = Some(c),
                Some(f) => assert_eq!(
                    c.as_slice(),
                    f.as_slice(),
                    "{label} gemm nt={nt} not bitwise nt-invariant"
                ),
            }
        }
    }

    // SYMM.
    for side in [Side::Left, Side::Right] {
        for uplo in [Uplo::Upper, Uplo::Lower] {
            let na = if side == Side::Left { m } else { n };
            let a = det_mat::<T>(na, na, seed ^ 3);
            let b = det_mat::<T>(m, n, seed ^ 4);
            let c0 = det_mat::<T>(m, n, seed ^ 5);
            let alpha = T::from_f64(0.75);
            let beta = T::from_f64(1.5);
            let mut expect = c0.clone();
            reference::symm(side, uplo, alpha, &a, &b, beta, &mut expect);
            let mut first: Option<Matrix<T>> = None;
            for &nt in &nts {
                let mut c = c0.clone();
                symm::symm(
                    nt,
                    side,
                    uplo,
                    alpha,
                    a.as_ref(),
                    b.as_ref(),
                    beta,
                    c.as_mut(),
                );
                assert!(
                    rel_diff(&c, &expect) < tol,
                    "{label} symm m={m} n={n} nt={nt} {side:?} {uplo:?}"
                );
                match &first {
                    None => first = Some(c),
                    Some(f) => assert_eq!(c.as_slice(), f.as_slice(), "{label} symm nt={nt}"),
                }
            }
        }
    }

    // SYRK / SYR2K (use m as the order, k as the rank).
    for uplo in [Uplo::Upper, Uplo::Lower] {
        for trans in [Transpose::No, Transpose::Yes] {
            let a = match trans {
                Transpose::No => det_mat::<T>(m, k, seed ^ 6),
                Transpose::Yes => det_mat::<T>(k, m, seed ^ 6),
            };
            let b = match trans {
                Transpose::No => det_mat::<T>(m, k, seed ^ 7),
                Transpose::Yes => det_mat::<T>(k, m, seed ^ 7),
            };
            let c0 = det_mat::<T>(m, m, seed ^ 8);
            let alpha = T::from_f64(0.9);
            let beta = T::from_f64(0.4);
            let mut expect_rk = c0.clone();
            reference::syrk(uplo, trans, alpha, &a, beta, &mut expect_rk);
            let mut expect_r2k = c0.clone();
            reference::syr2k(uplo, trans, alpha, &a, &b, beta, &mut expect_r2k);
            let mut first_rk: Option<Matrix<T>> = None;
            let mut first_r2k: Option<Matrix<T>> = None;
            for &nt in &nts {
                let mut c = c0.clone();
                syrk::syrk(nt, uplo, trans, alpha, a.as_ref(), beta, c.as_mut());
                assert!(
                    rel_diff(&c, &expect_rk) < tol,
                    "{label} syrk n={m} k={k} nt={nt} {uplo:?} {trans:?}"
                );
                match &first_rk {
                    None => first_rk = Some(c),
                    Some(f) => assert_eq!(c.as_slice(), f.as_slice(), "{label} syrk nt={nt}"),
                }
                let mut c = c0.clone();
                syr2k::syr2k(
                    nt,
                    uplo,
                    trans,
                    alpha,
                    a.as_ref(),
                    b.as_ref(),
                    beta,
                    c.as_mut(),
                );
                assert!(
                    rel_diff(&c, &expect_r2k) < tol,
                    "{label} syr2k n={m} k={k} nt={nt} {uplo:?} {trans:?}"
                );
                match &first_r2k {
                    None => first_r2k = Some(c),
                    Some(f) => assert_eq!(c.as_slice(), f.as_slice(), "{label} syr2k nt={nt}"),
                }
            }
        }
    }

    // TRMM / TRSM.
    for side in [Side::Left, Side::Right] {
        for uplo in [Uplo::Upper, Uplo::Lower] {
            for trans in [Transpose::No, Transpose::Yes] {
                for diag in [Diag::NonUnit, Diag::Unit] {
                    let na = if side == Side::Left { m } else { n };
                    let a = tri_mat::<T>(na, seed ^ 9);
                    let b0 = det_mat::<T>(m, n, seed ^ 10);
                    let alpha = T::from_f64(1.5);
                    let mut expect_mm = b0.clone();
                    reference::trmm(side, uplo, trans, diag, alpha, &a, &mut expect_mm);
                    let mut expect_sm = b0.clone();
                    reference::trsm(side, uplo, trans, diag, alpha, &a, &mut expect_sm);
                    let mut first_mm: Option<Matrix<T>> = None;
                    let mut first_sm: Option<Matrix<T>> = None;
                    for &nt in &nts {
                        let mut b = b0.clone();
                        trmm::trmm(nt, side, uplo, trans, diag, alpha, a.as_ref(), b.as_mut());
                        assert!(
                            rel_diff(&b, &expect_mm) < tol,
                            "{label} trmm m={m} n={n} nt={nt} {side:?} {uplo:?} {trans:?} {diag:?}"
                        );
                        match &first_mm {
                            None => first_mm = Some(b),
                            Some(f) => {
                                assert_eq!(b.as_slice(), f.as_slice(), "{label} trmm nt={nt}")
                            }
                        }
                        let mut b = b0.clone();
                        trsm::trsm(nt, side, uplo, trans, diag, alpha, a.as_ref(), b.as_mut());
                        // TRSM amplifies error by the condition number;
                        // loosen by the order of the system.
                        assert!(
                            rel_diff(&b, &expect_sm) < tol * (na as f64).max(4.0),
                            "{label} trsm m={m} n={n} nt={nt} {side:?} {uplo:?} {trans:?} {diag:?}"
                        );
                        match &first_sm {
                            None => first_sm = Some(b),
                            Some(f) => {
                                assert_eq!(b.as_slice(), f.as_slice(), "{label} trsm nt={nt}")
                            }
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random shapes through every routine, every nt, both precisions.
    #[test]
    fn cooperative_paths_match_reference(
        m in 1usize..80,
        n in 1usize..80,
        k in 1usize..60,
        seed in any::<u64>(),
    ) {
        check_all_routines::<f64>(m, n, k, seed, 1e-11);
        check_all_routines::<f32>(m, n, k, seed, 1e-3);
    }
}

/// Ragged shapes pinned at the decomposition edges: single rows/columns,
/// register-block boundaries (mr/nr at 6, 8, 16, 32), the TB=64 diagonal
/// block, the NB=128 triangle tile, and the mc/kc cache blocks — with
/// team sizes guaranteed to leave members with empty chunks.
#[test]
fn edge_shapes_leave_empty_chunks() {
    for &(m, n, k) in &[
        (1, 1, 1),
        (1, 97, 33),
        (97, 1, 33),
        (2, 3, 300),
        (6, 6, 6),
        (8, 16, 32),
        (33, 17, 9),
        (63, 65, 64),
        (64, 64, 64),
        (127, 129, 5),
        (128, 128, 2),
        (200, 3, 80),
    ] {
        check_all_routines::<f64>(m, n, k, 0xED6E * (m + n + k) as u64, 1e-11);
    }
}

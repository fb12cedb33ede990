//! Property-based tests for the BLAS L3 kernels: algebraic identities that
//! must hold for arbitrary shapes, scalars, flags, and thread counts.

// Outside the Miri subset: proptest volume; the deterministic subset covers this logic.
#![cfg(not(miri))]

use adsala_blas3::op::Dims;
use adsala_blas3::{gemm, symm, syr2k, syrk, trmm, trsm};
use adsala_blas3::{Diag, Matrix, Side, Transpose, Uplo};
use proptest::prelude::*;

fn det_mat(r: usize, c: usize, seed: u64) -> Matrix<f64> {
    Matrix::from_fn(r, c, |i, j| {
        let h = (i as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((j as u64).wrapping_mul(0xBF58476D1CE4E5B9))
            .wrapping_add(seed.wrapping_mul(0x94D049BB133111EB));
        ((h >> 40) % 2001) as f64 / 500.0 - 2.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// C = A*(B1+B2) == A*B1 + A*B2 (distributivity over the B operand).
    #[test]
    fn gemm_distributes_over_addition(
        m in 1usize..48, n in 1usize..48, k in 1usize..48,
        s1 in any::<u64>(), s2 in any::<u64>(), nt in 1usize..4,
    ) {
        let a = det_mat(m, k, 1);
        let b1 = det_mat(k, n, s1);
        let b2 = det_mat(k, n, s2);
        let bsum = Matrix::from_fn(k, n, |i, j| b1.get(i, j) + b2.get(i, j));
        let mut lhs = Matrix::<f64>::zeros(m, n);
        gemm::gemm(nt, Transpose::No, Transpose::No, 1.0, a.as_ref(), bsum.as_ref(), 0.0, lhs.as_mut());
        let mut rhs = Matrix::<f64>::zeros(m, n);
        gemm::gemm(nt, Transpose::No, Transpose::No, 1.0, a.as_ref(), b1.as_ref(), 0.0, rhs.as_mut());
        gemm::gemm(nt, Transpose::No, Transpose::No, 1.0, a.as_ref(), b2.as_ref(), 1.0, rhs.as_mut());
        let scale = rhs.frob_norm().max(1.0);
        prop_assert!(lhs.max_abs_diff(&rhs) / scale < 1e-13);
    }

    /// (A*B)' == B'*A' through the transpose flags.
    #[test]
    fn gemm_transpose_of_product(
        m in 1usize..40, n in 1usize..40, k in 1usize..40, nt in 1usize..4,
    ) {
        let a = det_mat(m, k, 3);
        let b = det_mat(k, n, 4);
        let mut ab = Matrix::<f64>::zeros(m, n);
        gemm::gemm(nt, Transpose::No, Transpose::No, 1.0, a.as_ref(), b.as_ref(), 0.0, ab.as_mut());
        // B'A' with the flag path: C2 = op(B)*op(A), both transposed.
        let mut btat = Matrix::<f64>::zeros(n, m);
        gemm::gemm(nt, Transpose::Yes, Transpose::Yes, 1.0, b.as_ref(), a.as_ref(), 0.0, btat.as_mut());
        prop_assert!(ab.transposed().max_abs_diff(&btat) < 1e-12);
    }

    /// SYRK(No) on A equals SYRK(Yes) on A': the two trans paths agree.
    #[test]
    fn syrk_trans_paths_agree(n in 1usize..40, k in 1usize..40, nt in 1usize..4) {
        let a = det_mat(n, k, 5);
        let at = a.transposed();
        let mut c1 = Matrix::<f64>::zeros(n, n);
        syrk::syrk(nt, Uplo::Lower, Transpose::No, 1.0, a.as_ref(), 0.0, c1.as_mut());
        let mut c2 = Matrix::<f64>::zeros(n, n);
        syrk::syrk(nt, Uplo::Lower, Transpose::Yes, 1.0, at.as_ref(), 0.0, c2.as_mut());
        prop_assert!(c1.max_abs_diff(&c2) < 1e-12);
    }

    /// SYR2K with B == A equals 2 * SYRK(A).
    #[test]
    fn syr2k_reduces_to_twice_syrk(n in 1usize..36, k in 1usize..36, nt in 1usize..4) {
        let a = det_mat(n, k, 6);
        let mut c1 = Matrix::<f64>::zeros(n, n);
        syr2k::syr2k(nt, Uplo::Upper, Transpose::No, 1.0, a.as_ref(), a.as_ref(), 0.0, c1.as_mut());
        let mut c2 = Matrix::<f64>::zeros(n, n);
        syrk::syrk(nt, Uplo::Upper, Transpose::No, 2.0, a.as_ref(), 0.0, c2.as_mut());
        prop_assert!(c1.max_abs_diff(&c2) < 1e-12);
    }

    /// SYMM Left with an identity A is a scaled copy.
    #[test]
    fn symm_identity_is_copy(m in 1usize..40, n in 1usize..40, alpha in -2.0f64..2.0, nt in 1usize..4) {
        let id = Matrix::<f64>::identity(m);
        let b = det_mat(m, n, 7);
        let mut c = Matrix::<f64>::zeros(m, n);
        symm::symm(nt, Side::Left, Uplo::Upper, alpha, id.as_ref(), b.as_ref(), 0.0, c.as_mut());
        let expect = Matrix::from_fn(m, n, |i, j| alpha * b.get(i, j));
        prop_assert!(c.max_abs_diff(&expect) < 1e-13);
    }

    /// TRMM then TRSM with the same flags is the identity, for random flag
    /// combinations and thread counts.
    #[test]
    fn trmm_trsm_roundtrip(
        m in 1usize..45, n in 1usize..45,
        left in any::<bool>(), upper in any::<bool>(),
        transposed in any::<bool>(), unit in any::<bool>(),
        nt in 1usize..4,
    ) {
        let side = if left { Side::Left } else { Side::Right };
        let uplo = if upper { Uplo::Upper } else { Uplo::Lower };
        let tr = if transposed { Transpose::Yes } else { Transpose::No };
        let diag = if unit { Diag::Unit } else { Diag::NonUnit };
        let na = if left { m } else { n };
        let a = Matrix::<f64>::from_fn(na, na, |i, j| {
            if i == j { 3.5 + (i % 4) as f64 } else {
                0.25 * (((i * 13 + j * 7) % 8) as f64 / 8.0 - 0.5)
            }
        });
        let x0 = det_mat(m, n, 8);
        let mut b = x0.clone();
        trmm::trmm(nt, side, uplo, tr, diag, 1.0, a.as_ref(), b.as_mut());
        trsm::trsm(nt, side, uplo, tr, diag, 1.0, a.as_ref(), b.as_mut());
        let scale = x0.frob_norm().max(1.0);
        prop_assert!(b.max_abs_diff(&x0) / scale < 1e-10);
    }

    /// Footprint and flops formulas are monotone in every dimension.
    #[test]
    fn op_formulas_monotone(a in 2usize..5000, b in 2usize..5000, c in 2usize..5000) {
        use adsala_blas3::op::OpKind;
        for op in OpKind::ALL {
            let d = if op.n_dims() == 3 { Dims::d3(a, b, c) } else { Dims::d2(a, b) };
            let bigger = if op.n_dims() == 3 { Dims::d3(a + 1, b + 1, c + 1) } else { Dims::d2(a + 1, b + 1) };
            prop_assert!(op.flops(bigger) > op.flops(d));
            prop_assert!(op.footprint_words(bigger) > op.footprint_words(d));
        }
    }
}

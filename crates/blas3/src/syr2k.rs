//! Symmetric rank-2k update:
//! `C = alpha*(A*B' + B*A') + beta*C` (NoTrans) or
//! `C = alpha*(A'*B + B'*A) + beta*C` (Trans);
//! only the `uplo` triangle of C is referenced and updated.
//!
//! SYRK's driver (`syrk::rank_k`) run with a second operand: **two GEMMs
//! into the stored triangle** (`A * B'` and `B * A'`), each team member
//! running both over its own slab of the triangle's columns, each product
//! skipping the register tiles outside the triangle.
//!
//! Within the backend seam this module is the kernel level: the driver
//! below takes the operand views a validated
//! [`Blas3Op::Syr2k`](crate::call::Blas3Op) holds, and is what
//! [`NativeBackend`](crate::backend::NativeBackend) invokes for one.

use crate::matrix::{MatMut, MatRef};
use crate::syrk::rank_k;
use crate::{Float, Transpose, Uplo};

/// SYR2K on operand views with an explicit thread count.
///
/// `C` is square of order `n` (only its `uplo` triangle is referenced and
/// updated); `op(A)` and `op(B)` are both `n x k`.
///
/// # Panics
/// If the operand shapes disagree, with the text of the typed error
/// [`Blas3Op::validate`](crate::call::Blas3Op::validate) returns.
pub fn syr2k<T: Float>(
    nt: usize,
    uplo: Uplo,
    trans: Transpose,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    rank_k(nt, uplo, trans, alpha, a, Some(b), beta, c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::reference;
    use crate::{
        Transpose::{No, Yes},
        Uplo::{Lower, Upper},
    };

    fn test_mat(r: usize, c: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(r, c, |i, j| {
            let h = (i as u64)
                .wrapping_mul(0xff51afd7ed558ccd)
                .wrapping_add((j as u64).wrapping_mul(0xc4ceb9fe1a85ec53))
                .wrapping_add(seed);
            ((h >> 40) % 1000) as f64 / 100.0 - 5.0
        })
    }

    #[test]
    fn matches_reference_all_flags() {
        for &(n, k) in &[(1, 1), (6, 9), (17, 5), (64, 40), (150, 16)] {
            for &nt in &[1usize, 4] {
                for uplo in [Upper, Lower] {
                    for trans in [No, Yes] {
                        let (a, b) = match trans {
                            No => (test_mat(n, k, 1), test_mat(n, k, 2)),
                            Yes => (test_mat(k, n, 1), test_mat(k, n, 2)),
                        };
                        let c0 = test_mat(n, n, 3);
                        let mut c = c0.clone();
                        syr2k(
                            nt,
                            uplo,
                            trans,
                            1.1,
                            a.as_ref(),
                            b.as_ref(),
                            0.4,
                            c.as_mut(),
                        );
                        let mut expect = c0.clone();
                        reference::syr2k(uplo, trans, 1.1, &a, &b, 0.4, &mut expect);
                        let scale = expect.frob_norm().max(1.0);
                        assert!(
                            c.max_abs_diff(&expect) / scale < 1e-12,
                            "n={n} k={k} nt={nt} {uplo:?} {trans:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn with_b_equal_to_a_is_syrk_at_twice_alpha() {
        // A*A' + A*A' = 2*A*A': the one strip driver, with and without B.
        for &(n, k) in &[(6, 9), (64, 40), (150, 16)] {
            for &nt in &[1usize, 4] {
                for uplo in [Upper, Lower] {
                    for trans in [No, Yes] {
                        let a = match trans {
                            No => test_mat(n, k, 1),
                            Yes => test_mat(k, n, 1),
                        };
                        let c0 = test_mat(n, n, 3);
                        let mut c = c0.clone();
                        syr2k(
                            nt,
                            uplo,
                            trans,
                            1.1,
                            a.as_ref(),
                            a.as_ref(),
                            0.4,
                            c.as_mut(),
                        );
                        let mut expect = c0.clone();
                        crate::syrk::syrk(nt, uplo, trans, 2.2, a.as_ref(), 0.4, expect.as_mut());
                        let scale = expect.frob_norm().max(1.0);
                        assert!(
                            c.max_abs_diff(&expect) / scale < 1e-12,
                            "n={n} k={k} nt={nt} {uplo:?} {trans:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nt_invariant_bitwise() {
        let (n, k) = (260, 14);
        let a = test_mat(n, k, 4);
        let b = test_mat(n, k, 5);
        let c0 = test_mat(n, n, 6);
        let mut base = c0.clone();
        syr2k(
            1,
            Upper,
            No,
            1.3,
            a.as_ref(),
            b.as_ref(),
            0.2,
            base.as_mut(),
        );
        for nt in [3usize, 6] {
            let mut c = c0.clone();
            syr2k(nt, Upper, No, 1.3, a.as_ref(), b.as_ref(), 0.2, c.as_mut());
            assert_eq!(c.as_slice(), base.as_slice(), "nt={nt}");
        }
    }

    #[test]
    fn symmetric_result_when_started_symmetric() {
        // Starting from symmetric C (both triangles equal), computing each
        // triangle separately must give mirror-equal triangles.
        let n = 70;
        let k = 8;
        let a = test_mat(n, k, 4);
        let b = test_mat(n, k, 5);
        let mut cl = Matrix::<f64>::zeros(n, n);
        let mut cu = Matrix::<f64>::zeros(n, n);
        syr2k(2, Lower, No, 1.0, a.as_ref(), b.as_ref(), 0.0, cl.as_mut());
        syr2k(2, Upper, No, 1.0, a.as_ref(), b.as_ref(), 0.0, cu.as_mut());
        for j in 0..n {
            for i in j..n {
                assert!((cl.get(i, j) - cu.get(j, i)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn opposite_triangle_untouched() {
        let n = 130;
        let a = test_mat(n, 6, 1);
        let b = test_mat(n, 6, 2);
        let mut c = Matrix::<f64>::filled(n, n, f64::NAN);
        syr2k(3, Upper, No, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        for j in 0..n {
            for i in 0..n {
                if i <= j {
                    assert!(c.get(i, j).is_finite());
                } else {
                    assert!(c.get(i, j).is_nan());
                }
            }
        }
    }
}

//! Symmetric rank-k update: `C = alpha*A*A' + beta*C` (NoTrans) or
//! `C = alpha*A'*A + beta*C` (Trans); only the `uplo` triangle of C is
//! referenced and updated.
//!
//! It is **one GEMM** of `op(A)` by `op(A)'` whose output is a triangle
//! ([`gemm_team`] with `tri` set): each team member owns a slab of the
//! triangle's columns, cut by area so the slabs carry equal flops, scales
//! it by `beta` and packs `op(A)` on either side for it as for a GEMM of
//! its extents. Each column block runs only the rows from (up to) the
//! diagonal, and in the blocks the diagonal crosses the macro-kernel's
//! tile filter skips the register tiles wholly outside the triangle and
//! commits only the stored half of the ones that straddle it. Half a
//! GEMM's flops, nothing computed and thrown away beyond those straddling
//! tiles, the opposite triangle never touched, and no barrier. SYR2K is
//! the same driver, `rank_k`, given its second operand: two such products
//! over the same slabs.
//!
//! Within the backend seam this module is the kernel level: the driver
//! below takes the operand views a validated
//! [`Blas3Op::Syrk`](crate::call::Blas3Op) holds, and is what
//! [`NativeBackend`](crate::backend::NativeBackend) invokes for one.

use crate::call::{entry, syrk_shape};
use crate::kernel::gemm_team;
use crate::matrix::{MatMut, MatRef};
use crate::op::{Dims, OpKind};
use crate::pack::PackSrc;
use crate::pool::{SendPtr, ThreadPool};
use crate::{Float, Transpose, Uplo};

/// SYRK on operand views with an explicit thread count.
///
/// `C` is square of order `n` (only its `uplo` triangle is referenced and
/// updated); `op(A)` is `n x k`.
///
/// # Panics
/// If the operand shapes disagree, with the text of the typed error
/// [`Blas3Op::validate`](crate::call::Blas3Op::validate) returns.
pub fn syrk<T: Float>(
    nt: usize,
    uplo: Uplo,
    trans: Transpose,
    alpha: T,
    a: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    rank_k(nt, uplo, trans, alpha, a, None, beta, c);
}

/// The driver behind SYRK (`b` absent: `C += alpha * A * A'`) and SYR2K
/// (`b` present: `C += alpha * (A * B' + B * A')`), with the entry check
/// of whichever routine it is running.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rank_k<T: Float>(
    nt: usize,
    uplo: Uplo,
    trans: Transpose,
    alpha: T,
    a: MatRef<'_, T>,
    b: Option<MatRef<'_, T>>,
    beta: T,
    c: MatMut<'_, T>,
) {
    let op = b.map_or(OpKind::Syrk, |_| OpKind::Syr2k);
    let Dims([n, k, _]) = entry(syrk_shape(op, trans, a, b, c.as_ref()));
    if n == 0 {
        return;
    }
    // The `op(X) * op(Y)'` products the triangle accumulates.
    let other = b.unwrap_or(a);
    let pairs = [(a, other), (other, a)];
    let pairs = &pairs[..if b.is_some() { 2 } else { 1 }];
    let flipped = match trans {
        Transpose::No => Transpose::Yes,
        Transpose::Yes => Transpose::No,
    };

    let ldc = c.ld();
    let cptr = SendPtr(c.into_slice().as_mut_ptr());
    // Resolve the micro-kernel once; the whole team shares it.
    let disp = T::kernel();
    ThreadPool::run_team_current(nt, |team| {
        for (i, &(x, y)) in pairs.iter().enumerate() {
            // The first product scales the slab by `beta`; the second
            // accumulates onto the same slab.
            let beta = if i == 0 { beta } else { T::ONE };
            // SAFETY: the stored triangle of C is exclusive to the team,
            // and the product touches nothing else of it.
            unsafe {
                gemm_team(
                    Some(uplo),
                    &disp,
                    &team,
                    n,
                    n,
                    k,
                    alpha,
                    &PackSrc::matrix(x, trans),
                    &PackSrc::matrix(y, flipped),
                    beta,
                    cptr.get(),
                    ldc,
                );
            }
        }
    });
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
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((j as u64).wrapping_mul(0xBF58476D1CE4E5B9))
                .wrapping_add(seed.wrapping_mul(0x94D049BB133111EB));
            ((h >> 40) % 1000) as f64 / 100.0 - 5.0
        })
    }

    #[test]
    fn matches_reference_all_flags() {
        for &(n, k) in &[(1, 1), (5, 8), (17, 4), (64, 64), (150, 20), (200, 3)] {
            for &nt in &[1usize, 4] {
                for uplo in [Upper, Lower] {
                    for trans in [No, Yes] {
                        let a = match trans {
                            No => test_mat(n, k, 7),
                            Yes => test_mat(k, n, 7),
                        };
                        let c0 = test_mat(n, n, 9);
                        let mut c = c0.clone();
                        syrk(nt, uplo, trans, 0.9, a.as_ref(), 1.2, c.as_mut());
                        let mut expect = c0.clone();
                        reference::syrk(uplo, trans, 0.9, &a, 1.2, &mut expect);
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
        // Every tile is computed as a team of one computes it, so the
        // team size cannot change any bit of the result.
        let (n, k) = (300, 40);
        let a = test_mat(n, k, 3);
        let c0 = test_mat(n, n, 4);
        let mut base = c0.clone();
        syrk(1, Lower, No, 0.8, a.as_ref(), 1.1, base.as_mut());
        for nt in [2usize, 5] {
            let mut c = c0.clone();
            syrk(nt, Lower, No, 0.8, a.as_ref(), 1.1, c.as_mut());
            assert_eq!(c.as_slice(), base.as_slice(), "nt={nt}");
        }
    }

    #[test]
    fn opposite_triangle_untouched_even_with_nan() {
        let n = 140; // spans two tiles
        let k = 10;
        let a = test_mat(n, k, 3);
        let mut c = Matrix::<f64>::filled(n, n, f64::NAN);
        syrk(3, Lower, No, 1.0, a.as_ref(), 0.0, c.as_mut());
        for j in 0..n {
            for i in 0..n {
                if i >= j {
                    assert!(
                        c.get(i, j).is_finite(),
                        "triangle ({i},{j}) must be written"
                    );
                } else {
                    assert!(c.get(i, j).is_nan(), "upper ({i},{j}) must be untouched");
                }
            }
        }
    }

    #[test]
    fn result_is_positive_semidefinite_on_diagonal() {
        // C = A*A' has non-negative diagonal.
        let a = test_mat(30, 12, 5);
        let mut c = Matrix::<f64>::zeros(30, 30);
        syrk(2, Upper, No, 1.0, a.as_ref(), 0.0, c.as_mut());
        for i in 0..30 {
            assert!(c.get(i, i) >= -1e-12);
        }
    }
}

//! General matrix-matrix multiply: `C = alpha * op(A) * op(B) + beta * C`.
//!
//! Parallel strategy: one team region running [`gemm_team`] — each member
//! owns a slab of C in whole register panels (rows when `m > n`, else
//! columns), scales it by `beta`, and packs and multiplies only what its
//! slab reads. The team meets no barrier; the slabs are cut by flops, and
//! every tile is computed as a team of one computes it, so the result is
//! bitwise the same at every `nt`.
//!
//! Within the backend seam this module is the kernel level: the driver
//! below takes the operand views a validated
//! [`Blas3Op::Gemm`](crate::call::Blas3Op) holds, and is what
//! [`NativeBackend`](crate::backend::NativeBackend) invokes for one.

use crate::call::{entry, gemm_shape};
use crate::kernel::gemm_team;
use crate::matrix::{MatMut, MatRef};
use crate::op::Dims;
use crate::pack::PackSrc;
use crate::pool::{SendPtr, ThreadPool};
use crate::{Float, Transpose};

/// GEMM on operand views with an explicit thread count: computes
/// `C = alpha * op(A) * op(B) + beta * C` using exactly `nt` threads.
///
/// # Panics
/// If the operand shapes disagree (`op(A)` must be `m x k`, `op(B)`
/// `k x n`, for the `m x n` view C), with the text of the
/// [`Blas3Error`](crate::Blas3Error) that
/// [`Blas3Op::validate`](crate::call::Blas3Op::validate) returns for the
/// same call.
pub fn gemm<T: Float>(
    nt: usize,
    transa: Transpose,
    transb: Transpose,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    let Dims([_, k, _]) = entry(gemm_shape(transa, transb, a, b, c.as_ref()));
    // Both transpose cases are affine layouts — always the strided packing
    // fast path.
    let a_src = PackSrc::matrix(a, transa);
    let b_src = PackSrc::matrix(b, transb);
    scaled_product(nt, k, alpha, &a_src, &b_src, beta, c);
}

/// `C = alpha * A * B + beta * C` for two already-operated `m x k` / `k x n`
/// packing sources, as one team region: GEMM's whole body, and SYMM's with
/// its symmetric operand as a [`PackSrc::Symmetric`].
///
/// The caller has checked that the sources cover `m x k` and `k x n` for
/// the `m x n` view C.
pub(crate) fn scaled_product<T: Float>(
    nt: usize,
    k: usize,
    alpha: T,
    a: &PackSrc<'_, T>,
    b: &PackSrc<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    let (m, n, ldc) = (c.rows(), c.cols(), c.ld());
    if m == 0 || n == 0 {
        return;
    }
    let cptr = SendPtr(c.into_slice().as_mut_ptr());
    // Resolve the micro-kernel once; the whole team shares it.
    let disp = T::kernel();
    ThreadPool::run_team_current(nt, |team| {
        // SAFETY: C is exclusively borrowed for this call and the team is
        // the only accessor; the sources cover the m x k / k x n extents
        // (caller's check).
        unsafe {
            gemm_team(
                None,
                &disp,
                &team,
                m,
                n,
                k,
                alpha,
                a,
                b,
                beta,
                cptr.get(),
                ldc,
            )
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::reference;
    use crate::Transpose::{No, Yes};

    fn test_mat(r: usize, c: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(r, c, |i, j| {
            let h = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add((j as u64).wrapping_mul(1442695040888963407))
                .wrapping_add(seed);
            ((h >> 33) % 2000) as f64 / 100.0 - 10.0
        })
    }

    #[test]
    fn matches_reference_across_shapes_and_threads() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (7, 5, 3),
            (32, 32, 32),
            (65, 129, 33),
            (300, 5, 80),
        ] {
            for &nt in &[1usize, 2, 4] {
                for transa in [No, Yes] {
                    for transb in [No, Yes] {
                        let a = match transa {
                            No => test_mat(m, k, 1),
                            Yes => test_mat(k, m, 1),
                        };
                        let b = match transb {
                            No => test_mat(k, n, 2),
                            Yes => test_mat(n, k, 2),
                        };
                        let c0 = test_mat(m, n, 3);
                        let mut c = c0.clone();
                        gemm(
                            nt,
                            transa,
                            transb,
                            1.3,
                            a.as_ref(),
                            b.as_ref(),
                            0.7,
                            c.as_mut(),
                        );
                        let mut expect = c0.clone();
                        reference::gemm(transa, transb, 1.3, &a, &b, 0.7, &mut expect);
                        let scale = expect.frob_norm().max(1.0);
                        assert!(
                            c.max_abs_diff(&expect) / scale < 1e-12,
                            "m={m} n={n} k={k} nt={nt} {transa:?} {transb:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn slabs_are_nt_invariant_bitwise() {
        // Every slab computes its tiles with the same micro-kernel and
        // block order as a team of one — so changing nt cannot change a
        // single bit of the result.
        let (m, n, k) = (130, 75, 61);
        let a = test_mat(m, k, 5);
        let b = test_mat(n, k, 6); // op(B) = B' is k x n
        let c0 = test_mat(m, n, 7);
        let mut base = c0.clone();
        gemm(1, No, Yes, 1.1, a.as_ref(), b.as_ref(), -0.4, base.as_mut());
        for nt in [2usize, 3, 7] {
            let mut c = c0.clone();
            gemm(nt, No, Yes, 1.1, a.as_ref(), b.as_ref(), -0.4, c.as_mut());
            assert_eq!(c.as_slice(), base.as_slice(), "nt={nt} changed bits");
        }
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let a = Matrix::<f64>::identity(4);
        let b = Matrix::<f64>::filled(4, 4, 2.0);
        let mut c = Matrix::<f64>::filled(4, 4, f64::NAN);
        gemm(2, No, No, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        assert!(c.max_abs_diff(&b) < 1e-15);
    }

    #[test]
    fn many_threads_small_matrix() {
        // More threads than register panels: the members past the last
        // panel own empty slabs and must return without touching C.
        let a = test_mat(3, 3, 1);
        let b = test_mat(3, 3, 2);
        let mut c = Matrix::<f64>::zeros(3, 3);
        gemm(16, No, No, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        let mut expect = Matrix::<f64>::zeros(3, 3);
        reference::gemm(No, No, 1.0, &a, &b, 0.0, &mut expect);
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn f32_precision_path() {
        let a = Matrix::<f32>::from_fn(20, 10, |i, j| ((i + j) % 5) as f32);
        let b = Matrix::<f32>::from_fn(10, 15, |i, j| ((i * 2 + j) % 7) as f32);
        let mut c = Matrix::<f32>::zeros(20, 15);
        gemm(2, No, No, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        let mut expect = Matrix::<f32>::zeros(20, 15);
        reference::gemm(No, No, 1.0, &a, &b, 0.0, &mut expect);
        assert!(c.max_abs_diff(&expect) < 1e-3);
    }
}

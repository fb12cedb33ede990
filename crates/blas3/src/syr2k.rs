//! Symmetric rank-2k update:
//! `C = alpha*(A*B' + B*A') + beta*C` (NoTrans) or
//! `C = alpha*(A'*B + B'*A) + beta*C` (Trans);
//! only the `uplo` triangle of C is referenced and updated.
//!
//! Shares the block-column strip decomposition with SYRK: each strip's
//! off-diagonal rectangle runs **two cooperative GEMMs** (`A_i * B_j'` and
//! `B_i * A_j'`) over team-shared packed panels; diagonal tiles exploit
//! `(A*B')' = B*A'`, so one scratch product suffices —
//! `C_dd += alpha * (S + S')` with `S = A_d * B_d'` — and are distributed
//! round-robin across the team.
//!
//! Within the backend seam this module is the kernel level: the driver
//! below takes the operand views a validated
//! [`Blas3Op::Syr2k`](crate::call::Blas3Op) holds, and is what
//! [`NativeBackend`](crate::backend::NativeBackend) invokes for one.

use crate::arena;
use crate::call::{entry, syrk_shape};
use crate::kernel::{gemm_cooperative, gemm_serial_with, shared_pack_lens, SharedPack};
use crate::matrix::{MatMut, MatRef};
use crate::op::{Dims, OpKind};
use crate::pool::{SendPtr, ThreadPool};
use crate::syrk::{a_cols_src, a_rows_src, scale_triangle_cols, strip_rect, NB};
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
    let shape = syrk_shape(OpKind::Syr2k, trans, a, Some(b), c.as_ref());
    let Dims([n, k, _]) = entry(shape);
    if n == 0 {
        return;
    }

    let ldc = c.ld();
    let cptr = SendPtr(c.into_slice().as_mut_ptr());
    let skip = alpha == T::ZERO || k == 0;
    // Resolve the micro-kernel once; the whole team shares it.
    let disp = T::kernel();
    let (alen, blen) = shared_pack_lens(&disp, n, NB.min(n), k.max(1));
    let mut pa = arena::take::<T>(alen);
    let mut pb = arena::take::<T>(blen);
    let shared = SharedPack::new(&mut pa, &mut pb);
    let nb = n.div_ceil(NB);
    ThreadPool::run_team_current(nt, |team| {
        let (js, je) = team.chunk(n);
        // SAFETY: disjoint column chunks of the triangle per member.
        unsafe { scale_triangle_cols(n, uplo, beta, cptr, ldc, js, je) };
        team.barrier();
        if skip {
            return;
        }
        // Phase 1: strip rectangles, two cooperative products each.
        for bj in 0..nb {
            let (j0, j1) = (bj * NB, ((bj + 1) * NB).min(n));
            let (r0, rows) = strip_rect(n, uplo, j0, j1);
            if rows == 0 {
                continue;
            }
            let w = j1 - j0;
            let cp = SendPtr(cptr.get().wrapping_add(r0 + j0 * ldc));
            // SAFETY: strip rectangles are disjoint regions of C, exclusive
            // to the team; shared bufs sized for the largest strip.
            unsafe {
                // C_strip += alpha * A_rows * B_cols'
                gemm_cooperative(
                    &disp,
                    &team,
                    rows,
                    w,
                    k,
                    alpha,
                    &a_rows_src(a, trans, r0, rows),
                    &a_cols_src(b, trans, j0, w),
                    cp.get(),
                    ldc,
                    &shared,
                );
                // C_strip += alpha * B_rows * A_cols'
                gemm_cooperative(
                    &disp,
                    &team,
                    rows,
                    w,
                    k,
                    alpha,
                    &a_rows_src(b, trans, r0, rows),
                    &a_cols_src(a, trans, j0, w),
                    cp.get(),
                    ldc,
                    &shared,
                );
            }
        }
        // Phase 2: diagonal tiles — S = alpha * A_d * B_d', then
        // C += S + S' on the stored triangle. Disjoint from the rectangles.
        for bj in (team.tid..nb).step_by(team.size) {
            let (j0, j1) = (bj * NB, ((bj + 1) * NB).min(n));
            let w = j1 - j0;
            let mut scratch = arena::take_zeroed::<T>(w * w);
            // SAFETY: scratch is thread-local.
            unsafe {
                gemm_serial_with(
                    &disp,
                    w,
                    w,
                    k,
                    alpha,
                    &a_rows_src(a, trans, j0, w),
                    &a_cols_src(b, trans, j0, w),
                    scratch.as_mut_ptr(),
                    w,
                );
            }
            let s = scratch.as_slice();
            for j in 0..w {
                let (r0t, r1t) = match uplo {
                    Uplo::Lower => (j, w),
                    Uplo::Upper => (0, j + 1),
                };
                for i in r0t..r1t {
                    // SAFETY: this diagonal tile is owned by this member.
                    unsafe {
                        let dst = cptr.get().add((j0 + i) + (j0 + j) * ldc);
                        *dst += s[i + j * w] + s[j + i * w];
                    }
                }
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

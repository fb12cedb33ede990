//! Symmetric rank-k update: `C = alpha*A*A' + beta*C` (NoTrans) or
//! `C = alpha*A'*A + beta*C` (Trans); only the `uplo` triangle of C is
//! referenced and updated.
//!
//! The triangle is decomposed into `NB`-wide block-column strips. Each
//! strip's off-diagonal rectangle is one **cooperative GEMM** — the whole
//! team shares packed panels of A and splits the micro-panel loop — so the
//! strided A operand is packed once per cache block instead of once per
//! tile per worker. The `NB x NB` diagonal tiles are independent of every
//! rectangle (disjoint C regions), so they are distributed round-robin
//! across the team at the end: each is computed serially into arena
//! scratch and only its triangular half committed. SYR2K is the same
//! driver, `rank_k`, given its second operand.
//!
//! Within the backend seam this module is the kernel level: the driver
//! below takes the operand views a validated
//! [`Blas3Op::Syrk`](crate::call::Blas3Op) holds, and is what
//! [`NativeBackend`](crate::backend::NativeBackend) invokes for one.

use crate::arena;
use crate::call::{entry, op_shape, syrk_shape};
use crate::kernel::{
    gemm_cooperative, gemm_serial_with, scale_block, shared_pack_lens, SharedPack,
};
use crate::matrix::{MatMut, MatRef};
use crate::op::{Dims, OpKind};
use crate::pack::PackSrc;
use crate::pool::{SendPtr, ThreadPool};
use crate::{Float, Transpose, Uplo};

/// Tile size for the triangular-output decomposition.
const NB: usize = 128;

/// Rows `r0..r0 + rows` of `op(A)`, as the sub-view of A's storage that
/// holds them (still to be read under `trans`).
fn op_rows<'a, T: Float>(
    a: MatRef<'a, T>,
    trans: Transpose,
    r0: usize,
    rows: usize,
) -> MatRef<'a, T> {
    let (i, j) = op_shape(trans, r0, 0);
    let (_, k) = op_shape(trans, a.rows(), a.cols());
    let (r, c) = op_shape(trans, rows, k);
    a.submatrix(i, j, r, c)
        .expect("strips lie inside the checked operand")
}

/// The operated view of A: `src(i, p) = op(A)[r0 + i, p]`, `rows x k`.
fn a_rows_src<T: Float>(
    a: MatRef<'_, T>,
    trans: Transpose,
    r0: usize,
    rows: usize,
) -> PackSrc<'_, T> {
    PackSrc::matrix(op_rows(a, trans, r0, rows), trans)
}

/// The transposed operated view: `src(p, j) = op(A)[c0 + j, p]` — the
/// "B side" of a rank-k product, `k x cols`.
fn a_cols_src<T: Float>(
    a: MatRef<'_, T>,
    trans: Transpose,
    c0: usize,
    cols: usize,
) -> PackSrc<'_, T> {
    let flipped = match trans {
        Transpose::No => Transpose::Yes,
        Transpose::Yes => Transpose::No,
    };
    PackSrc::matrix(op_rows(a, trans, c0, cols), flipped)
}

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

/// The strip driver behind SYRK (`b` absent: `C += alpha * A * A'`) and
/// SYR2K (`b` present: `C += alpha * (A * B' + B * A')`), with the entry
/// check of whichever routine it is running.
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
    // The `rows x cols'` products a strip rectangle accumulates; a diagonal
    // tile needs only the first, because `(A * B')' = B * A'`.
    let other = b.unwrap_or(a);
    let pairs = [(a, other), (other, a)];
    let pairs = &pairs[..if b.is_some() { 2 } else { 1 }];

    let ldc = c.ld();
    let cptr = SendPtr(c.into_slice().as_mut_ptr());
    let skip = alpha == T::ZERO || k == 0;
    // Resolve the micro-kernel once; the whole team shares it.
    let disp = T::kernel();
    // Shared panels sized for the largest strip rectangle (rows <= n,
    // strip width <= NB).
    let (alen, blen) = shared_pack_lens(&disp, n, NB.min(n), k.max(1));
    let mut abuf = arena::take::<T>(alen);
    let mut bbuf = arena::take::<T>(blen);
    let shared = SharedPack::new(&mut abuf, &mut bbuf);
    let nb = n.div_ceil(NB);
    ThreadPool::run_team_current(nt, |team| {
        // Rows of column `j` in the stored triangle of an order-`len` block.
        let stored = |j: usize, len: usize| match uplo {
            Uplo::Lower => j..len,
            Uplo::Upper => 0..j + 1,
        };
        // Beta scale of the stored triangle, split by columns.
        let (js, je) = team.chunk(n);
        for j in js..je {
            let rows = stored(j, n);
            // SAFETY: column j of the triangle belongs to this member only.
            unsafe {
                scale_block(
                    rows.len(),
                    1,
                    beta,
                    cptr.get().add(rows.start + j * ldc),
                    ldc,
                )
            };
        }
        team.barrier();
        if skip {
            return;
        }
        // Phase 1: every strip's off-diagonal rectangle, cooperatively.
        for bj in 0..nb {
            let (j0, j1) = (bj * NB, ((bj + 1) * NB).min(n));
            // The rows of C the strip updates below (Lower) or above
            // (Upper) its diagonal block.
            let (r0, rows) = match uplo {
                Uplo::Lower => (j1, n - j1),
                Uplo::Upper => (0, j0),
            };
            if rows == 0 {
                continue;
            }
            for &(x, y) in pairs {
                // SAFETY: strip rectangles are disjoint regions of C,
                // exclusive to the team; shared bufs sized for the largest
                // strip.
                unsafe {
                    gemm_cooperative(
                        &disp,
                        &team,
                        rows,
                        j1 - j0,
                        k,
                        alpha,
                        &a_rows_src(x, trans, r0, rows),
                        &a_cols_src(y, trans, j0, j1 - j0),
                        cptr.get().add(r0 + j0 * ldc),
                        ldc,
                        &shared,
                    );
                }
            }
        }
        // Phase 2: diagonal tiles, distributed round-robin — disjoint from
        // every rectangle, so no barrier is needed between the phases. Each
        // is `S = alpha * X_d * Y_d'` into scratch, then `C += S` (SYRK) or
        // `C += S + S'` (SYR2K) on the stored triangle.
        let (x, y) = pairs[0];
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
                    &a_rows_src(x, trans, j0, w),
                    &a_cols_src(y, trans, j0, w),
                    scratch.as_mut_ptr(),
                    w,
                );
            }
            let s = scratch.as_slice();
            for j in 0..w {
                let rows = stored(j, w);
                // SAFETY: this diagonal tile is owned by this member.
                unsafe {
                    let col = cptr.get().add(j0 + (j0 + j) * ldc);
                    match b {
                        None => rows.for_each(|i| *col.add(i) += s[i + j * w]),
                        Some(_) => rows.for_each(|i| *col.add(i) += s[i + j * w] + s[j + i * w]),
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
        // Strips and diagonal tiles are computed with a fixed schedule,
        // so the team size cannot change any bit of the result.
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

    #[test]
    fn alpha_zero_scales_triangle_only() {
        let n = 6;
        let a = test_mat(n, 4, 1);
        let c0 = test_mat(n, n, 2);
        let mut c = c0.clone();
        syrk(2, Lower, No, 0.0, a.as_ref(), 3.0, c.as_mut());
        for j in 0..n {
            for i in 0..n {
                let expect = if i >= j {
                    3.0 * c0.get(i, j)
                } else {
                    c0.get(i, j)
                };
                assert!((c.get(i, j) - expect).abs() < 1e-12);
            }
        }
    }
}

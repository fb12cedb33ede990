//! Triangular matrix-matrix multiply (in place):
//! `B = alpha*op(A)*B` (Left) or `B = alpha*B*op(A)` (Right),
//! A triangular with optional implicit unit diagonal.
//!
//! Both sides are **one sweep**, written in `(t, f)` coordinates: `t` runs
//! along the extent A multiplies, `f` along the free one, so element
//! `(t, f)` is `B[t, f]` on the Left and `B[f, t]` on the Right, and —
//! `B * op(A)` being `(op(A)' * B')'` — the Right reads `op(A)` with its
//! indices swapped (`call::by_side` is the whole of that rule).
//!
//! The team sweeps the diagonal blocks **in lockstep**: per block, the
//! small in-place triangular product is split across members along `f`
//! (each member's slice is self-contained), then the rectangular
//! accumulation against the not-yet-overwritten remainder runs as one
//! **cooperative GEMM** over the whole free extent — the triangular
//! operand's packed panels are produced once by the team instead of once
//! per worker, and B's panels take the strided fast path. The sweep
//! direction is chosen so every read sees original data, exactly as in the
//! serial algorithm; a barrier separates the two phases because they
//! partition B differently, and every member meets the same waits because
//! every branch below depends on the block only.
//!
//! Within the backend seam this module is the kernel level: the driver
//! below takes the operand views a validated
//! [`Blas3Op::Trmm`](crate::call::Blas3Op) holds, and is what
//! [`NativeBackend`](crate::backend::NativeBackend) invokes for one.

use crate::arena;
use crate::call::{by_side, entry, tri_shape};
use crate::kernel::{gemm_cooperative, scale_block, shared_pack_lens, SharedPack};
use crate::matrix::{MatMut, MatRef};
use crate::op::{Dims, OpKind};
use crate::pack::PackSrc;
use crate::pool::{SendPtr, ThreadPool};
use crate::{Diag, Float, Side, Transpose, Uplo};

/// Diagonal-block size for the in-place sweep.
const TB: usize = 64;

/// Accessor for element `(i, j)` of the triangular `op(A)`.
#[inline]
pub(crate) fn tri_at<T: Float>(
    a: MatRef<'_, T>,
    uplo: Uplo,
    trans: Transpose,
    diag: Diag,
    i: usize,
    j: usize,
) -> T {
    // Map to storage coordinates.
    let (si, sj) = match trans {
        Transpose::No => (i, j),
        Transpose::Yes => (j, i),
    };
    if si == sj {
        return match diag {
            Diag::Unit => T::ONE,
            Diag::NonUnit => a.get(si, sj),
        };
    }
    let stored = match uplo {
        Uplo::Upper => si < sj,
        Uplo::Lower => si > sj,
    };
    if stored {
        a.get(si, sj)
    } else {
        T::ZERO
    }
}

/// Whether `op(A)` is effectively upper triangular.
#[inline]
pub(crate) fn effective_upper(uplo: Uplo, trans: Transpose) -> bool {
    matches!(
        (uplo, trans),
        (Uplo::Upper, Transpose::No) | (Uplo::Lower, Transpose::Yes)
    )
}

/// TRMM on operand views with an explicit thread count.
///
/// `B` is `m x n` and is overwritten with the product. `A` is `m x m`
/// (Left) or `n x n` (Right); only its `uplo` triangle is referenced.
///
/// # Panics
/// If the operand shapes disagree, with the text of the typed error
/// [`Blas3Op::validate`](crate::call::Blas3Op::validate) returns.
pub fn trmm<T: Float>(
    nt: usize,
    side: Side,
    uplo: Uplo,
    trans: Transpose,
    diag: Diag,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatMut<'_, T>,
) {
    let Dims([m, n, _]) = entry(tri_shape(OpKind::Trmm, side, a, b.as_ref()));
    let ldb = b.ld();
    let b = b.into_slice();
    if m == 0 || n == 0 {
        return;
    }
    let (tlen, flen) = by_side(side, m, n);
    let (st, sf) = by_side(side, 1, ldb);
    let at = move |t: usize, p: usize| {
        let (i, j) = by_side(side, t, p);
        tri_at(a, uplo, trans, diag, i, j)
    };
    // Row `t` reads the rows after it or before it; the sweep runs away
    // from them, so every read sees data it has not yet overwritten.
    let upper = effective_upper(uplo, trans) == (side == Side::Left);
    // BLAS convention: `alpha == 0` is `B := 0` with neither operand read —
    // no blocks to sweep, and the final scale stores the zeros.
    let swept = if alpha == T::ZERO { 0 } else { tlen };
    let nblocks = swept.div_ceil(TB);
    let bp = SendPtr(b.as_mut_ptr());
    // Resolve the micro-kernel once; the whole team shares it.
    let disp = T::kernel();
    let (rows, cols) = by_side(side, TB.min(tlen), flen);
    let (alen, blen) = shared_pack_lens(&disp, rows, cols, tlen);
    let mut pa = arena::take::<T>(alen);
    let mut pb = arena::take::<T>(blen);
    let shared = SharedPack::new(&mut pa, &mut pb);

    ThreadPool::run_team_current(nt, |team| {
        // SAFETY: bp spans the m x n matrix B with leading dimension ldb,
        // and every caller keeps t < tlen, f < flen.
        let bget = |t: usize, f: usize| unsafe { *bp.get().add(t * st + f * sf) };
        // SAFETY: same extent as bget; the team partition keeps concurrent
        // writes on disjoint elements, and barriers order every
        // cross-chunk read after the write it needs.
        let bset = |t: usize, f: usize, v: T| unsafe { *bp.get().add(t * st + f * sf) = v };
        for blk in 0..nblocks {
            let t0 = TB * if upper { blk } else { nblocks - 1 - blk };
            let t1 = (t0 + TB).min(tlen);
            // 1. In-place triangular product on the diagonal block, `f`
            // chunks: `t` outermost so one gathered row of op(A) serves the
            // whole chunk, in the order that overwrites a row only once read.
            let (fs, fe) = team.chunk(flen);
            let mut row = [T::ZERO; TB];
            for step in 0..t1 - t0 {
                let t = if upper { t0 + step } else { t1 - 1 - step };
                let ps = if upper { t..t1 } else { t0..t + 1 };
                for (x, p) in row.iter_mut().zip(ps.clone()) {
                    *x = at(t, p);
                }
                for f in fs..fe {
                    let mut acc = T::ZERO;
                    for (&x, p) in row.iter().zip(ps.clone()) {
                        acc += x * bget(p, f);
                    }
                    bset(t, f, acc);
                }
            }
            // The fold below repartitions the same block by register tile
            // (and, after the last block, the alpha scale by column).
            team.barrier();
            // 2. Rectangular accumulation against the untouched part, as
            // one cooperative product over the whole free extent (none for
            // the last block).
            let (src0, krem) = if upper { (t1, tlen - t1) } else { (0, t0) };
            if krem > 0 {
                let (r0, c0) = by_side(side, t0, src0);
                let tri = move |i: usize, j: usize| tri_at(a, uplo, trans, diag, r0 + i, c0 + j);
                let tri_src = PackSrc::gather(&tri);
                // SAFETY: `t` in src0..src0+krem is untouched until its own
                // block's turn, so it is a stable read while t0..t1 is
                // written.
                let b_src =
                    unsafe { PackSrc::from_raw(bp.get().add(src0 * st) as *const T, 1, ldb) };
                let (lhs, rhs) = by_side(side, &tri_src, &b_src);
                let (rows, cols) = by_side(side, t1 - t0, flen);
                // SAFETY: the destination `t` in t0..t1 is team-exclusive
                // (tile split inside); the barrier above published phase 1,
                // the trailing one fences the source before the next block
                // overwrites it.
                unsafe {
                    gemm_cooperative(
                        &disp,
                        &team,
                        rows,
                        cols,
                        krem,
                        T::ONE,
                        lhs,
                        rhs,
                        bp.get().add(t0 * st),
                        ldb,
                        &shared,
                    );
                }
            }
        }
        // 3. Final alpha scale, column chunks.
        if alpha != T::ONE {
            let (js, je) = team.chunk(n);
            if js < je {
                // SAFETY: disjoint column chunks per member.
                unsafe { scale_block(m, je - js, alpha, bp.get().add(js * ldb), ldb) };
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
        Diag::{NonUnit, Unit},
        Side::{Left, Right},
        Transpose::{No, Yes},
        Uplo::{Lower, Upper},
    };

    fn test_mat(r: usize, c: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(r, c, |i, j| {
            let h = (i as u64)
                .wrapping_mul(0x2545F4914F6CDD1D)
                .wrapping_add((j as u64).wrapping_mul(0x9E3779B97F4A7C15))
                .wrapping_add(seed);
            ((h >> 40) % 1000) as f64 / 100.0 - 5.0
        })
    }

    #[test]
    fn matches_reference_all_flags() {
        for &(m, n) in &[(1, 1), (5, 7), (64, 64), (70, 30), (130, 9), (9, 130)] {
            for &nt in &[1usize, 3] {
                for side in [Left, Right] {
                    for uplo in [Upper, Lower] {
                        for trans in [No, Yes] {
                            for diag in [NonUnit, Unit] {
                                let na = if side == Left { m } else { n };
                                let a = test_mat(na, na, 17);
                                let b0 = test_mat(m, n, 23);
                                let mut b = b0.clone();
                                trmm(nt, side, uplo, trans, diag, 1.4, a.as_ref(), b.as_mut());
                                let mut expect = b0.clone();
                                reference::trmm(side, uplo, trans, diag, 1.4, &a, &mut expect);
                                let scale = expect.frob_norm().max(1.0);
                                assert!(
                                    b.max_abs_diff(&expect) / scale < 1e-12,
                                    "m={m} n={n} nt={nt} {side:?} {uplo:?} {trans:?} {diag:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn right_is_the_transpose_of_left_bitwise() {
        // B * op(A) = (op(A)' * B')': both sides are the one (t, f) sweep,
        // so the Right result is the Left one of the transposed problem,
        // bit for bit, for every flag.
        for &(m, n) in &[(5, 7), (70, 30), (9, 130)] {
            for &nt in &[1usize, 3] {
                for uplo in [Upper, Lower] {
                    for (trans, flipped) in [(No, Yes), (Yes, No)] {
                        for diag in [NonUnit, Unit] {
                            let a = test_mat(n, n, 17);
                            let b0 = test_mat(m, n, 23);
                            let mut right = b0.clone();
                            trmm(
                                nt,
                                Right,
                                uplo,
                                trans,
                                diag,
                                1.4,
                                a.as_ref(),
                                right.as_mut(),
                            );
                            let mut left = b0.transposed();
                            trmm(
                                nt,
                                Left,
                                uplo,
                                flipped,
                                diag,
                                1.4,
                                a.as_ref(),
                                left.as_mut(),
                            );
                            assert_eq!(
                                right.as_slice(),
                                left.transposed().as_slice(),
                                "m={m} n={n} nt={nt} {uplo:?} {trans:?} {diag:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn nt_invariant_bitwise() {
        let (m, n) = (150, 90);
        let a = test_mat(m, m, 2);
        let b0 = test_mat(m, n, 3);
        let mut base = b0.clone();
        trmm(1, Left, Lower, No, NonUnit, 1.6, a.as_ref(), base.as_mut());
        for nt in [2usize, 5] {
            let mut b = b0.clone();
            trmm(nt, Left, Lower, No, NonUnit, 1.6, a.as_ref(), b.as_mut());
            assert_eq!(b.as_slice(), base.as_slice(), "nt={nt}");
        }
    }

    #[test]
    fn alpha_zero_zeroes_b() {
        let a = test_mat(5, 5, 1);
        let mut b = test_mat(5, 4, 2);
        trmm(2, Left, Upper, No, NonUnit, 0.0, a.as_ref(), b.as_mut());
        assert_eq!(b, Matrix::zeros(5, 4));
    }

    #[test]
    fn identity_triangular_is_noop_with_unit_diag() {
        // A strictly-zero triangle with Unit acts as the identity.
        let a = Matrix::<f64>::zeros(6, 6);
        let b0 = test_mat(6, 3, 9);
        let mut b = b0.clone();
        trmm(2, Left, Upper, No, Unit, 1.0, a.as_ref(), b.as_mut());
        assert!(b.max_abs_diff(&b0) < 1e-15);
    }

    #[test]
    fn unstored_triangle_not_read() {
        let m = 80;
        let mut a = test_mat(m, m, 3);
        // Upper-triangular use: poison strictly-lower storage.
        for j in 0..m {
            for i in j + 1..m {
                a.set(i, j, f64::NAN);
            }
        }
        let mut b = test_mat(m, 10, 4);
        trmm(2, Left, Upper, No, NonUnit, 1.0, a.as_ref(), b.as_mut());
        assert!(b.as_slice().iter().all(|x| x.is_finite()));
    }
}

//! Triangular solve with multiple right-hand sides (in place):
//! `op(A) * X = alpha * B` (Left) or `X * op(A) = alpha * B` (Right);
//! the solution X overwrites B. A is assumed non-singular.
//!
//! Both sides are **one sweep**, written in the `(t, f)` coordinates of
//! [`trmm`](crate::trmm): `X * op(A) = B` being `op(A)' * X' = B'`, the
//! Right swaps B's strides and reads `op(A)` with its indices swapped.
//!
//! The diagonal blocks are **dependent** — block `t0..t1` can only be
//! solved after every earlier block's contribution is folded in — so their
//! serial ordering is kept, and the team sweeps them in lockstep: per
//! block, the fold of the already-solved part is one team product
//! ([`gemm_team`], `beta = 1`) over the whole free extent (its triangular
//! operand a rectangle wholly inside the stored triangle, packed as a
//! plain strided view), then the diagonal block is solved by
//! **substitution on packed panels**
//! ([`tri_block_sweep`], the BLIS scheme): the block is packed once by the
//! team with the reciprocals of its diagonal, each member copies its
//! micro-panels of the block's rows of B into packed panels, and sweeps
//! them in `nr`-row steps — the fold from the rows solved earlier in the
//! block is the ordinary micro-kernel, and only the `nr x nr` triangle
//! left on a register tile is solved by the dispatch's portable tile
//! solve. No block is inverted, so the error bound is substitution's. The
//! team meets two barriers per block: one after the fold, because the
//! substitution partitions the block's rows by free micro-panel and the
//! fold by slab, and one after the substitution, which publishes the solved
//! values the next fold reads. Every member meets the same waits because
//! every branch inside the region depends on the block (or on `alpha`)
//! only.
//!
//! Within the backend seam this module is the kernel level: the driver
//! below takes the operand views a validated
//! [`Blas3Op::Trsm`](crate::call::Blas3Op) holds, and is what
//! [`NativeBackend`](crate::backend::NativeBackend) invokes for one.

use crate::arena;
use crate::call::{by_side, entry, tri_shape};
use crate::kernel::{gemm_team, scale_block, tri_block_sweep, TriOp};
use crate::matrix::{MatMut, MatRef};
use crate::op::{Dims, OpKind};
use crate::pack::PackSrc;
use crate::pool::{SendPtr, ThreadPool};
use crate::trmm::TriOperand;
use crate::{Diag, Float, Side, Transpose, Uplo};

/// TRSM on operand views with an explicit thread count.
///
/// On return, `B` holds `X` such that `op(A) X = alpha B_in` (Left) or
/// `X op(A) = alpha B_in` (Right).
///
/// # Panics
/// If the operand shapes disagree, with the text of the typed error
/// [`Blas3Op::validate`](crate::call::Blas3Op::validate) returns.
pub fn trsm<T: Float>(
    nt: usize,
    side: Side,
    uplo: Uplo,
    trans: Transpose,
    diag: Diag,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatMut<'_, T>,
) {
    let Dims([m, n, _]) = entry(tri_shape(OpKind::Trsm, side, a, b.as_ref()));
    let ldb = b.ld();
    let b = b.into_slice();
    if m == 0 || n == 0 {
        return;
    }

    let (tlen, flen) = by_side(side, m, n);
    let (st, _) = by_side(side, 1, ldb);
    let bp = SendPtr(b.as_mut_ptr());
    // Resolve the micro-kernel once; the whole team shares it.
    let disp = T::kernel();
    let tri = TriOperand::new(&disp, TriOp::Solve, side, uplo, trans, diag, a);
    let tb = tri.tb;
    // Row `t` depends on the rows after it or before it; the sweep starts
    // at the block that depends on none.
    let nblocks = tlen.div_ceil(tb);
    let block = |blk: usize| {
        let t0 = tb * if tri.upper { nblocks - 1 - blk } else { blk };
        (t0, (t0 + tb).min(tlen))
    };
    // The packed diagonal block (reciprocals on its diagonal), one at a
    // time.
    let mut pd = arena::take::<T>(tri.packed_len(tb.min(tlen)));
    let dbuf = SendPtr(pd.as_mut_ptr());

    ThreadPool::run_team_current(nt, |team| {
        // Alpha scale first, column chunks. BLAS convention: `alpha == 0`
        // is `B := 0` with A not referenced — the scale stores the zeros
        // and that is the whole call.
        let (js, je) = team.chunk(n);
        if js < je {
            // SAFETY: disjoint column chunks per member.
            unsafe { scale_block(m, je - js, alpha, bp.get().add(js * ldb), ldb) };
        }
        if alpha == T::ZERO {
            return;
        }
        let (t0, t1) = block(0);
        // SAFETY: nobody reads the block buffer before the barrier.
        unsafe { tri.pack_block(&team, t0, t1 - t0, dbuf) };
        // Publishes the scale before any fold reads across the partition,
        // and the first packed block.
        team.barrier();
        for blk in 0..nblocks {
            let (t0, t1) = block(blk);
            // 1. Fold in the already-solved part as one team product over
            // the whole free extent (none for the first block).
            let (src0, krem) = if tri.upper { (t1, tlen - t1) } else { (0, t0) };
            if krem > 0 {
                let tri_src = tri.fold_operand(t0, t1 - t0, src0, krem);
                // SAFETY: `t` in src0..src0+krem holds final solved values
                // (published by the barrier below in an earlier iteration)
                // and is not written again.
                let b_src =
                    unsafe { PackSrc::from_raw(bp.get().add(src0 * st) as *const T, 1, ldb) };
                let (lhs, rhs) = by_side(side, &tri_src, &b_src);
                let (rows, cols) = by_side(side, t1 - t0, flen);
                // SAFETY: the destination `t` in t0..t1 is team-exclusive
                // (slabs inside).
                unsafe {
                    gemm_team(
                        None,
                        &disp,
                        &team,
                        rows,
                        cols,
                        krem,
                        -T::ONE,
                        lhs,
                        rhs,
                        T::ONE,
                        bp.get().add(t0 * st),
                        ldb,
                    );
                }
                // The substitution repartitions the folded rows, and reads
                // the block packed after the last one.
                team.barrier();
            }
            // 2. Solve the diagonal block by substitution on packed
            // panels, each member its own micro-panels of the free extent.
            // SAFETY: the packed block was published, and rows t0..t1
            // completed, by the barrier after the fold (the first one, for
            // block 0).
            unsafe {
                let packed = std::slice::from_raw_parts(dbuf.get(), tri.packed_len(t1 - t0));
                tri_block_sweep(
                    &disp,
                    &team,
                    side,
                    tri.upper,
                    TriOp::Solve,
                    t1 - t0,
                    flen,
                    packed,
                    bp.get().add(t0 * st),
                    ldb,
                );
            }
            if blk + 1 == nblocks {
                break;
            }
            // Publish the solved block for the next fold; the barrier after
            // that fold publishes the next packed block.
            team.barrier();
            let (n0, n1) = block(blk + 1);
            // SAFETY: every member is past its sweep of this block.
            unsafe { tri.pack_block(&team, n0, n1 - n0, dbuf) };
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::reference;
    use crate::trmm::trmm;
    use crate::{
        Diag::{NonUnit, Unit},
        Side::{Left, Right},
        Transpose::{No, Yes},
        Uplo::{Lower, Upper},
    };

    /// Well-conditioned triangular test matrix: dominant diagonal.
    fn tri_test_mat(n: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                4.0 + (i % 5) as f64
            } else {
                let h = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add((j as u64).wrapping_mul(0x2545F4914F6CDD1D))
                    .wrapping_add(seed);
                ((h >> 40) % 100) as f64 / 100.0 - 0.5
            }
        })
    }

    fn test_mat(r: usize, c: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(r, c, |i, j| {
            let h = (i as u64)
                .wrapping_mul(0xff51afd7ed558ccd)
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
                                let a = tri_test_mat(na, 17);
                                let b0 = test_mat(m, n, 23);
                                let mut b = b0.clone();
                                trsm(nt, side, uplo, trans, diag, 1.5, a.as_ref(), b.as_mut());
                                let mut expect = b0.clone();
                                reference::trsm(side, uplo, trans, diag, 1.5, &a, &mut expect);
                                let scale = expect.frob_norm().max(1.0);
                                assert!(
                                    b.max_abs_diff(&expect) / scale < 1e-10,
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
        // X * op(A) = B is op(A)' * X' = B': both sides are the one (t, f)
        // sweep, so the Right solution is the Left one of the transposed
        // problem, bit for bit, for every flag.
        for &(m, n) in &[(5, 7), (70, 30), (9, 130)] {
            for &nt in &[1usize, 3] {
                for uplo in [Upper, Lower] {
                    for (trans, flipped) in [(No, Yes), (Yes, No)] {
                        for diag in [NonUnit, Unit] {
                            let a = tri_test_mat(n, 17);
                            let b0 = test_mat(m, n, 23);
                            let mut right = b0.clone();
                            trsm(
                                nt,
                                Right,
                                uplo,
                                trans,
                                diag,
                                1.5,
                                a.as_ref(),
                                right.as_mut(),
                            );
                            let mut left = b0.transposed();
                            trsm(
                                nt,
                                Left,
                                uplo,
                                flipped,
                                diag,
                                1.5,
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
        let (m, n) = (150, 70);
        let a = tri_test_mat(m, 1);
        let b0 = test_mat(m, n, 2);
        let mut base = b0.clone();
        trsm(1, Left, Lower, No, NonUnit, 2.0, a.as_ref(), base.as_mut());
        for nt in [2usize, 5] {
            let mut b = b0.clone();
            trsm(nt, Left, Lower, No, NonUnit, 2.0, a.as_ref(), b.as_mut());
            assert_eq!(b.as_slice(), base.as_slice(), "nt={nt}");
        }
    }

    /// The defining property: trsm(trmm(X)) == X for every flag combination.
    #[test]
    fn trsm_inverts_trmm() {
        let m = 90;
        let n = 40;
        for side in [Left, Right] {
            for uplo in [Upper, Lower] {
                for trans in [No, Yes] {
                    for diag in [NonUnit, Unit] {
                        let na = if side == Left { m } else { n };
                        let a = tri_test_mat(na, 5);
                        let x0 = test_mat(m, n, 8);
                        let mut b = x0.clone();
                        trmm(2, side, uplo, trans, diag, 2.0, a.as_ref(), b.as_mut());
                        trsm(2, side, uplo, trans, diag, 0.5, a.as_ref(), b.as_mut());
                        let scale = x0.frob_norm().max(1.0);
                        assert!(
                            b.max_abs_diff(&x0) / scale < 1e-10,
                            "{side:?} {uplo:?} {trans:?} {diag:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn residual_is_small() {
        // Direct residual check: op(A) X ~= alpha*B.
        let m = 100;
        let n = 20;
        let a = tri_test_mat(m, 2);
        let b0 = test_mat(m, n, 3);
        let mut x = b0.clone();
        trsm(4, Left, Lower, No, NonUnit, 3.0, a.as_ref(), x.as_mut());
        let mut ax = x.clone();
        trmm(4, Left, Lower, No, NonUnit, 1.0, a.as_ref(), ax.as_mut());
        let expect = Matrix::from_fn(m, n, |i, j| 3.0 * b0.get(i, j));
        assert!(ax.max_abs_diff(&expect) / expect.frob_norm() < 1e-12);
    }

    #[test]
    fn alpha_zero_zeroes_b_without_reading_a() {
        // BLAS: `alpha == 0` is `B := 0` and A is not referenced — a NaN
        // anywhere in A must not reach B, nor must a NaN already in B stay.
        for &(m, n) in &[(5, 4), (70, 9), (9, 140)] {
            for &nt in &[1usize, 3] {
                for side in [Left, Right] {
                    for uplo in [Upper, Lower] {
                        for trans in [No, Yes] {
                            for diag in [NonUnit, Unit] {
                                let na = if side == Left { m } else { n };
                                let a = Matrix::<f64>::filled(na, na, f64::NAN);
                                let mut b = test_mat(m, n, 6);
                                b.set(m - 1, 0, f64::NAN);
                                trsm(nt, side, uplo, trans, diag, 0.0, a.as_ref(), b.as_mut());
                                assert_eq!(
                                    b,
                                    Matrix::zeros(m, n),
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
    fn unit_diag_ignores_stored_diagonal() {
        let n = 6;
        let mut a = tri_test_mat(n, 1);
        for i in 0..n {
            a.set(i, i, f64::NAN); // must not be read under Unit
        }
        let mut b = test_mat(n, 2, 4);
        trsm(1, Left, Lower, No, Unit, 1.0, a.as_ref(), b.as_mut());
        assert!(b.as_slice().iter().all(|x| x.is_finite()));
    }
}

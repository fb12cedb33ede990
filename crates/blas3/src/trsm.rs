//! Triangular solve with multiple right-hand sides (in place):
//! `op(A) * X = alpha * B` (Left) or `X * op(A) = alpha * B` (Right);
//! the solution X overwrites B. A is assumed non-singular.
//!
//! The diagonal blocks are **dependent** — block `i` can only be solved
//! after every earlier block's contribution is folded in — so their serial
//! ordering is kept, and the team sweeps them in lockstep: per block, the
//! fold of the already-solved part is one **cooperative GEMM** over all of
//! B (the triangular operand's panels are packed once by the team, the
//! solved part of B takes the strided fast path), then the small
//! substitution on the diagonal block is split across members (columns for
//! Left, rows for Right — each member's slice is self-contained). A barrier
//! after each substitution publishes the solved values the next fold reads.
//!
//! Within the backend seam this module is the kernel level: the driver
//! below takes the operand views a validated
//! [`Blas3Op::Trsm`](crate::call::Blas3Op) holds, and is what
//! [`NativeBackend`](crate::backend::NativeBackend) invokes for one.

use crate::arena;
use crate::call::{entry, tri_shape};
use crate::kernel::{gemm_cooperative, scale_block, shared_pack_lens, SharedPack};
use crate::matrix::{MatMut, MatRef};
use crate::op::{Dims, OpKind};
use crate::pack::PackSrc;
use crate::pool::{SendPtr, ThreadPool};
use crate::trmm::{effective_upper, sweep_order, tri_at};
use crate::{Diag, Float, Side, Transpose, Uplo};

/// Diagonal-block size for the substitution sweep.
const TB: usize = 64;

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

    let at = move |i: usize, j: usize| tri_at(a, uplo, trans, diag, i, j);
    let eff_upper = effective_upper(uplo, trans);
    let bp = SendPtr(b.as_mut_ptr());
    // Resolve the micro-kernel once; the whole team shares it.
    let disp = T::kernel();
    let (alen, blen) = match side {
        Side::Left => shared_pack_lens(&disp, TB.min(m), n, m),
        Side::Right => shared_pack_lens(&disp, m, TB.min(n), n),
    };
    let mut pa = arena::take::<T>(alen);
    let mut pb = arena::take::<T>(blen);
    let shared = SharedPack::new(&mut pa, &mut pb);

    match side {
        Side::Left => {
            let nblocks = m.div_ceil(TB);
            // Forward (effective lower) or backward (effective upper).
            let order = sweep_order(nblocks, !eff_upper);
            ThreadPool::run_team_current(nt, |team| {
                // SAFETY: bp spans the m x n matrix B with leading
                // dimension ldb, and every caller keeps i < m, j < n.
                let bget = |i: usize, j: usize| unsafe { *bp.get().add(i + j * ldb) };
                // SAFETY: same extent as bget; the team partition keeps
                // concurrent writes on disjoint elements, and barriers
                // order every cross-chunk read after the write it needs.
                let bset = |i: usize, j: usize, v: T| unsafe { *bp.get().add(i + j * ldb) = v };
                // Alpha scale first, column chunks; the barrier publishes
                // it before any fold reads across the column partition.
                let (js, je) = team.chunk(n);
                if js < je {
                    // SAFETY: disjoint column chunks per member.
                    unsafe { scale_block(m, je - js, alpha, bp.get().add(js * ldb), ldb) };
                }
                team.barrier();
                for &bi in &order {
                    let i0 = bi * TB;
                    let i1 = ((bi + 1) * TB).min(m);
                    // 1. Fold in already-solved rows as one cooperative
                    // product over all of B's columns.
                    let (src0, krem) = if eff_upper { (i1, m - i1) } else { (0, i0) };
                    if krem > 0 {
                        let a_fold = move |i: usize, p: usize| at(i0 + i, src0 + p);
                        let a_src = PackSrc::gather(&a_fold);
                        // SAFETY: rows src0..src0+krem hold final solved
                        // values (published by the barrier below in an
                        // earlier iteration) and are not written again.
                        let b_src =
                            unsafe { PackSrc::from_raw(bp.get().add(src0) as *const T, 1, ldb) };
                        // SAFETY: destination rows i0..i1 team-exclusive.
                        unsafe {
                            gemm_cooperative(
                                &disp,
                                &team,
                                i1 - i0,
                                n,
                                krem,
                                -T::ONE,
                                &a_src,
                                &b_src,
                                bp.get().add(i0),
                                ldb,
                                &shared,
                            );
                        }
                    } else {
                        // Keep every member's barrier schedule identical.
                        team.barrier();
                    }
                    // 2. Solve the diagonal block, column chunks.
                    let (js, je) = team.chunk(n);
                    for j in js..je {
                        if eff_upper {
                            for i in (i0..i1).rev() {
                                let mut v = bget(i, j);
                                for p in i + 1..i1 {
                                    v -= at(i, p) * bget(p, j);
                                }
                                if diag == Diag::NonUnit {
                                    v = v / at(i, i);
                                }
                                bset(i, j, v);
                            }
                        } else {
                            for i in i0..i1 {
                                let mut v = bget(i, j);
                                for p in i0..i {
                                    v -= at(i, p) * bget(p, j);
                                }
                                if diag == Diag::NonUnit {
                                    v = v / at(i, i);
                                }
                                bset(i, j, v);
                            }
                        }
                    }
                    // Publish the solved rows for the next block's fold.
                    team.barrier();
                }
            });
        }
        Side::Right => {
            let nblocks = n.div_ceil(TB);
            // Solution column j depends on at(p, j): effective upper means
            // p < j (solve left-to-right), lower means p > j.
            let order = sweep_order(nblocks, eff_upper);
            ThreadPool::run_team_current(nt, |team| {
                // SAFETY: bp spans the m x n matrix B with leading
                // dimension ldb, and every caller keeps i < m, j < n.
                let bget = |i: usize, j: usize| unsafe { *bp.get().add(i + j * ldb) };
                // SAFETY: same extent as bget; the team partition keeps
                // concurrent writes on disjoint elements, and barriers
                // order every cross-chunk read after the write it needs.
                let bset = |i: usize, j: usize, v: T| unsafe { *bp.get().add(i + j * ldb) = v };
                let (js, je) = team.chunk(n);
                if js < je {
                    // SAFETY: disjoint column chunks per member.
                    unsafe { scale_block(m, je - js, alpha, bp.get().add(js * ldb), ldb) };
                }
                team.barrier();
                for &bj in &order {
                    let j0 = bj * TB;
                    let j1 = ((bj + 1) * TB).min(n);
                    // 1. Fold in already-solved columns.
                    let (src0, krem) = if eff_upper { (0, j0) } else { (j1, n - j1) };
                    if krem > 0 {
                        let a_fold = move |p: usize, j: usize| at(src0 + p, j0 + j);
                        let at_src = PackSrc::gather(&a_fold);
                        // SAFETY: columns src0.. hold final solved values.
                        let b_src = unsafe {
                            PackSrc::from_raw(bp.get().add(src0 * ldb) as *const T, 1, ldb)
                        };
                        // SAFETY: destination columns j0..j1 team-exclusive.
                        unsafe {
                            gemm_cooperative(
                                &disp,
                                &team,
                                m,
                                j1 - j0,
                                krem,
                                -T::ONE,
                                &b_src,
                                &at_src,
                                bp.get().add(j0 * ldb),
                                ldb,
                                &shared,
                            );
                        }
                    } else {
                        team.barrier();
                    }
                    // 2. Solve the diagonal block, row chunks.
                    let (is, ie) = team.chunk(m);
                    if eff_upper {
                        for j in j0..j1 {
                            for i in is..ie {
                                let mut v = bget(i, j);
                                for p in j0..j {
                                    v -= bget(i, p) * at(p, j);
                                }
                                if diag == Diag::NonUnit {
                                    v = v / at(j, j);
                                }
                                bset(i, j, v);
                            }
                        }
                    } else {
                        for j in (j0..j1).rev() {
                            for i in is..ie {
                                let mut v = bget(i, j);
                                for p in j + 1..j1 {
                                    v -= bget(i, p) * at(p, j);
                                }
                                if diag == Diag::NonUnit {
                                    v = v / at(j, j);
                                }
                                bset(i, j, v);
                            }
                        }
                    }
                    // Publish the solved columns for the next block's fold.
                    team.barrier();
                }
            });
        }
    }
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

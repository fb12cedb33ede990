//! Triangular matrix-matrix multiply (in place):
//! `B = alpha*op(A)*B` (Left) or `B = alpha*B*op(A)` (Right),
//! A triangular with optional implicit unit diagonal.
//!
//! The team sweeps the diagonal blocks **in lockstep**: per block, the
//! small in-place triangular product is split across members (columns for
//! Left, rows for Right — each member's slice is self-contained), then the
//! rectangular accumulation against the not-yet-overwritten remainder runs
//! as one **cooperative GEMM** over the whole of B — the triangular
//! operand's packed panels are produced once by the team instead of once
//! per worker, and B's panels take the strided fast path instead of the old
//! closure gather. The sweep direction is chosen so every read sees
//! original data, exactly as in the serial algorithm; barriers separate the
//! two phases because they partition B differently.
//!
//! Within the backend seam this module is the kernel level: the driver
//! below takes the operand views a validated
//! [`Blas3Op::Trmm`](crate::call::Blas3Op) holds, and is what
//! [`NativeBackend`](crate::backend::NativeBackend) invokes for one.

use crate::arena;
use crate::call::{entry, tri_shape};
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

/// The diagonal-block sweep order: ascending when the off-diagonal source
/// lies *after* the block (effective upper on the Left / lower on the
/// Right), descending otherwise — so rectangular reads always see data the
/// sweep has not yet overwritten.
pub(crate) fn sweep_order(nblocks: usize, ascending: bool) -> Vec<usize> {
    if ascending {
        (0..nblocks).collect()
    } else {
        (0..nblocks).rev().collect()
    }
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
    if alpha == T::ZERO {
        // BLAS convention: B := 0.
        let bp = SendPtr(b.as_mut_ptr());
        ThreadPool::run_current(nt, |tid| {
            let (js, je) = ThreadPool::chunk(n, nt, tid);
            for j in js..je {
                // SAFETY: disjoint columns per worker.
                unsafe { scale_block(m, 1, T::ZERO, bp.get().add(j * ldb), ldb) };
            }
        });
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
            let order = sweep_order(nblocks, eff_upper);
            ThreadPool::run_team_current(nt, |team| {
                // SAFETY: bp spans the m x n matrix B with leading
                // dimension ldb, and every caller keeps i < m, j < n.
                let bget = |i: usize, j: usize| unsafe { *bp.get().add(i + j * ldb) };
                // SAFETY: same extent as bget; the team partition keeps
                // concurrent writes on disjoint elements, and barriers
                // order every cross-chunk read after the write it needs.
                let bset = |i: usize, j: usize, v: T| unsafe { *bp.get().add(i + j * ldb) = v };
                for &bi in &order {
                    let i0 = bi * TB;
                    let i1 = ((bi + 1) * TB).min(m);
                    // 1. In-place triangular product on the diagonal block:
                    // column-local, so members take column chunks.
                    let (js, je) = team.chunk(n);
                    for j in js..je {
                        if eff_upper {
                            for i in i0..i1 {
                                let mut acc = T::ZERO;
                                for p in i..i1 {
                                    acc += at(i, p) * bget(p, j);
                                }
                                bset(i, j, acc);
                            }
                        } else {
                            for i in (i0..i1).rev() {
                                let mut acc = T::ZERO;
                                for p in i0..=i {
                                    acc += at(i, p) * bget(p, j);
                                }
                                bset(i, j, acc);
                            }
                        }
                    }
                    // The fold below repartitions the same rows by register tile.
                    team.barrier();
                    // 2. Rectangular accumulation against untouched rows,
                    // as one cooperative product over all of B's columns.
                    let (src0, krem) = if eff_upper { (i1, m - i1) } else { (0, i0) };
                    if krem > 0 {
                        let a_fold = move |i: usize, p: usize| at(i0 + i, src0 + p);
                        let a_src = PackSrc::gather(&a_fold);
                        // SAFETY: rows src0..src0+krem are untouched until
                        // their own block's turn, so they are stable reads
                        // while rows i0..i1 are written.
                        let b_src =
                            unsafe { PackSrc::from_raw(bp.get().add(src0) as *const T, 1, ldb) };
                        // SAFETY: destination rows i0..i1 are team-exclusive
                        // (tile split inside); barrier above published phase 1.
                        unsafe {
                            gemm_cooperative(
                                &disp,
                                &team,
                                i1 - i0,
                                n,
                                krem,
                                T::ONE,
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
                }
                // 3. Final alpha scale, column chunks (the barrier above —
                // cooperative trailing or explicit — ordered all writes).
                if alpha != T::ONE {
                    let (js, je) = team.chunk(n);
                    if js < je {
                        // SAFETY: disjoint column chunks per member.
                        unsafe { scale_block(m, je - js, alpha, bp.get().add(js * ldb), ldb) };
                    }
                }
            });
        }
        Side::Right => {
            let nblocks = n.div_ceil(TB);
            let order = sweep_order(nblocks, !eff_upper);
            ThreadPool::run_team_current(nt, |team| {
                // SAFETY: bp spans the m x n matrix B with leading
                // dimension ldb, and every caller keeps i < m, j < n.
                let bget = |i: usize, j: usize| unsafe { *bp.get().add(i + j * ldb) };
                // SAFETY: same extent as bget; the team partition keeps
                // concurrent writes on disjoint elements, and barriers
                // order every cross-chunk read after the write it needs.
                let bset = |i: usize, j: usize, v: T| unsafe { *bp.get().add(i + j * ldb) = v };
                for &bj in &order {
                    let j0 = bj * TB;
                    let j1 = ((bj + 1) * TB).min(n);
                    // 1. In-place triangular product on the diagonal block:
                    // row-local, so members take row chunks.
                    let (is, ie) = team.chunk(m);
                    if eff_upper {
                        for j in (j0..j1).rev() {
                            for i in is..ie {
                                let mut acc = T::ZERO;
                                for p in j0..=j {
                                    acc += bget(i, p) * at(p, j);
                                }
                                bset(i, j, acc);
                            }
                        }
                    } else {
                        for j in j0..j1 {
                            for i in is..ie {
                                let mut acc = T::ZERO;
                                for p in j..j1 {
                                    acc += bget(i, p) * at(p, j);
                                }
                                bset(i, j, acc);
                            }
                        }
                    }
                    team.barrier();
                    // 2. Rectangular accumulation against untouched columns.
                    let (src0, krem) = if eff_upper { (0, j0) } else { (j1, n - j1) };
                    if krem > 0 {
                        let a_fold = move |p: usize, j: usize| at(src0 + p, j0 + j);
                        let at_src = PackSrc::gather(&a_fold);
                        // SAFETY: columns src0.. are untouched until their
                        // own block's turn; stable reads.
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
                                T::ONE,
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
                }
                if alpha != T::ONE {
                    let (js, je) = team.chunk(n);
                    if js < je {
                        // SAFETY: disjoint column chunks per member.
                        unsafe { scale_block(m, je - js, alpha, bp.get().add(js * ldb), ldb) };
                    }
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

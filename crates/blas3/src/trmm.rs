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
//! The team sweeps the diagonal blocks of A
//! ([`KernelDispatch::tri_block`] rows each) **in lockstep**, and every
//! flop of a block goes through the packed micro-kernel:
//!
//! 1. the **diagonal block** is packed once by the team
//!    ([`pack_tri_panels`]: the unstored half written as zeros, never
//!    read) and multiplied by the block's own rows of B, which each member
//!    copies into packed panels one micro-panel of `f` at a time — so the
//!    update is out of place, no order of overwriting matters, and B is
//!    read in contiguous runs whatever its leading dimension
//!    ([`tri_block_sweep`]; register tiles in the zero half are not run);
//! 2. the **fold** of the not-yet-overwritten remainder is one team
//!    product ([`gemm_team`], `beta = 1`) over the whole free extent. Its
//!    triangular operand is a rectangle wholly inside the stored triangle
//!    — the blocks are cut on the diagonal — so it packs as a plain
//!    strided view.
//!
//! `alpha` rides inside both products. The sweep direction is chosen so
//! every fold reads rows no block has overwritten yet. The team meets two
//! barriers per block: one before the fold, because the fold partitions
//! the block's rows by slab and the sweep by free micro-panel, and one
//! after it, which publishes the next packed diagonal block and keeps the
//! next sweep from overwriting rows a fold is still reading. Every member
//! meets the same waits because every branch inside the region depends on
//! the block (or on `alpha`) only.
//!
//! Within the backend seam this module is the kernel level: the driver
//! below takes the operand views a validated
//! [`Blas3Op::Trmm`](crate::call::Blas3Op) holds, and is what
//! [`NativeBackend`](crate::backend::NativeBackend) invokes for one.

use crate::arena;
use crate::call::{by_side, entry, op_shape, tri_shape};
use crate::kernel::{gemm_team, scale_block, tri_block_sweep, KernelDispatch, TriOp};
use crate::matrix::{MatMut, MatRef};
use crate::op::{Dims, OpKind};
use crate::pack::{pack_tri_panels, packed_a_len, PackSrc};
use crate::pool::{SendPtr, TeamCtx, ThreadPool};
use crate::{Diag, Float, Side, Transpose, Uplo};

/// The triangular operand of one TRMM/TRSM call as the `(t, f)` sweep
/// reads it: element `(t, p)` is `op(A)[t, p]` on the Left and
/// `op(A)[p, t]` on the Right, and the sweep advances in diagonal blocks of
/// [`KernelDispatch::tri_block`] rows whose panels are `pt` high.
#[derive(Clone, Copy)]
pub(crate) struct TriOperand<'a, T: Float> {
    a: MatRef<'a, T>,
    side: Side,
    trans: Transpose,
    diag: Diag,
    /// Row `t` reaches the depths `p >= t` (else `p <= t`).
    pub upper: bool,
    /// Order of a diagonal block (the last may be shorter).
    pub tb: usize,
    /// Height of the micro-panels the triangle packs into ([`TriOp::tile`]).
    pt: usize,
    /// Whether the packed diagonal holds reciprocals (a solve's does).
    invert_diag: bool,
}

impl<'a, T: Float> TriOperand<'a, T> {
    pub fn new(
        disp: &KernelDispatch<T>,
        op: TriOp<T>,
        side: Side,
        uplo: Uplo,
        trans: Transpose,
        diag: Diag,
        a: MatRef<'a, T>,
    ) -> Self {
        let op_upper = matches!(
            (uplo, trans),
            (Uplo::Upper, Transpose::No) | (Uplo::Lower, Transpose::Yes)
        );
        TriOperand {
            a,
            side,
            trans,
            diag,
            upper: op_upper == (side == Side::Left),
            tb: disp.tri_block(),
            pt: op.tile(disp, side).0,
            invert_diag: matches!(op, TriOp::Solve),
        }
    }

    /// Elements a packed diagonal block of order `len` takes.
    pub fn packed_len(&self, len: usize) -> usize {
        packed_a_len(self.pt, len, len)
    }

    /// The rectangle `t0..t0 + len` by `p0..p0 + k` of the sweep as the
    /// operand of a fold. It never straddles the diagonal — the blocks are
    /// cut on it — so it is a plain **strided** view of A's storage, on
    /// the side of the product the triangular operand stands.
    pub fn fold_operand(&self, t0: usize, len: usize, p0: usize, k: usize) -> PackSrc<'a, T> {
        let (r0, c0) = by_side(self.side, t0, p0);
        let (rows, cols) = by_side(self.side, len, k);
        let (i, j) = op_shape(self.trans, r0, c0);
        let (r, c) = op_shape(self.trans, rows, cols);
        let rect = self.a.submatrix(i, j, r, c);
        PackSrc::matrix(
            rect.expect("blocks lie inside the checked operand"),
            self.trans,
        )
    }

    /// Pack the diagonal block `t0..t0 + len` into `buf`, each member its
    /// share of the micro-panels. The team must meet a barrier before
    /// anyone reads the block.
    ///
    /// # Safety
    /// `buf` must be valid for [`TriOperand::packed_len`]`(len)` elements
    /// that no member reads or writes otherwise until that barrier.
    pub unsafe fn pack_block(&self, team: &TeamCtx<'_>, t0: usize, len: usize, buf: SendPtr<T>) {
        let (lo, hi) = team.chunk(len.div_ceil(self.pt));
        if lo == hi {
            return;
        }
        let blk = self.a.submatrix(t0, t0, len, len);
        // Element (t, p) reads storage (p, t) on exactly one of the Right
        // side and a transposed A.
        let flipped = match (self.side == Side::Right) != (self.trans == Transpose::Yes) {
            true => Transpose::Yes,
            false => Transpose::No,
        };
        let step = self.pt * len;
        // SAFETY: panel ranges are disjoint across members and inside the
        // caller's buffer.
        let mine = std::slice::from_raw_parts_mut(buf.get().add(lo * step), (hi - lo) * step);
        pack_tri_panels(
            self.pt,
            blk.expect("blocks lie inside the checked operand"),
            flipped,
            self.upper,
            self.diag,
            self.invert_diag,
            lo,
            hi,
            mine,
        );
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
    let (tlen, flen) = by_side(side, m, n);
    let (st, _) = by_side(side, 1, ldb);
    let bp = SendPtr(b.as_mut_ptr());
    // Resolve the micro-kernel once; the whole team shares it.
    let disp = T::kernel();
    let tri = TriOperand::new(&disp, TriOp::Product(alpha), side, uplo, trans, diag, a);
    let tb = tri.tb;
    // Row `t` reads the rows after it or before it; the sweep runs away
    // from them, so every fold sees rows no block has overwritten yet.
    let nblocks = tlen.div_ceil(tb);
    let block = |blk: usize| {
        let t0 = tb * if tri.upper { blk } else { nblocks - 1 - blk };
        (t0, (t0 + tb).min(tlen))
    };
    // The packed diagonal block, one at a time.
    let mut pd = arena::take::<T>(tri.packed_len(tb.min(tlen)));
    let dbuf = SendPtr(pd.as_mut_ptr());

    ThreadPool::run_team_current(nt, |team| {
        // BLAS convention: `alpha == 0` is `B := 0` with neither operand
        // read.
        if alpha == T::ZERO {
            let (js, je) = team.chunk(n);
            if js < je {
                // SAFETY: disjoint column chunks per member.
                unsafe { scale_block(m, je - js, alpha, bp.get().add(js * ldb), ldb) };
            }
            return;
        }
        let (t0, t1) = block(0);
        // SAFETY: nobody reads the block buffer before the barrier.
        unsafe { tri.pack_block(&team, t0, t1 - t0, dbuf) };
        team.barrier();
        for blk in 0..nblocks {
            let (t0, t1) = block(blk);
            // 1. The diagonal block times its own rows of B, out of place
            // through packed panels, `alpha` inside.
            // SAFETY: the packed block was published by the barrier above
            // or by the one after the previous fold; rows t0..t1 still
            // hold original data, and each member writes its own
            // micro-panels of them.
            unsafe {
                let packed = std::slice::from_raw_parts(dbuf.get(), tri.packed_len(t1 - t0));
                tri_block_sweep(
                    &disp,
                    &team,
                    side,
                    tri.upper,
                    TriOp::Product(alpha),
                    t1 - t0,
                    flen,
                    packed,
                    bp.get().add(t0 * st),
                    ldb,
                );
            }
            let (src0, krem) = if tri.upper { (t1, tlen - t1) } else { (0, t0) };
            if krem == 0 {
                // The last block: nothing left to fold in.
                break;
            }
            // The fold repartitions the same rows by slab, and the next
            // block is packed over this one.
            team.barrier();
            let (n0, n1) = block(blk + 1);
            // SAFETY: every member is past its sweep of this block.
            unsafe { tri.pack_block(&team, n0, n1 - n0, dbuf) };
            // 2. Rectangular accumulation against the untouched part, as
            // one team product over the whole free extent.
            let tri_src = tri.fold_operand(t0, t1 - t0, src0, krem);
            // SAFETY: `t` in src0..src0+krem is untouched until its own
            // block's turn, so it is a stable read while t0..t1 is
            // written.
            let b_src = unsafe { PackSrc::from_raw(bp.get().add(src0 * st) as *const T, 1, ldb) };
            let (lhs, rhs) = by_side(side, &tri_src, &b_src);
            let (rows, cols) = by_side(side, t1 - t0, flen);
            // SAFETY: the destination `t` in t0..t1 is team-exclusive
            // (slabs inside); the barrier above ended the sweep.
            unsafe {
                gemm_team(
                    None,
                    &disp,
                    &team,
                    rows,
                    cols,
                    krem,
                    alpha,
                    lhs,
                    rhs,
                    T::ONE,
                    bp.get().add(t0 * st),
                    ldb,
                );
            }
            // Publishes the next packed block, and fences the rows this
            // fold read before the next sweep overwrites them.
            team.barrier();
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

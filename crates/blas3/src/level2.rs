//! The BLAS Level 2 routine family: GEMV, GER, SYMV, TRMV, TRSV.
//!
//! These are the crate's **memory-bound** routines: O(n^2) flops over
//! O(n^2) operand bytes, so every matrix element is loaded exactly once
//! and the packed-panel machinery the Level 3 drivers use would only add
//! traffic. Each routine is instead a walk over raw column-major columns
//! built from the two streaming primitives of [`Level2Dispatch`] — `axpy`
//! for column updates, `dot` for column reductions — with software prefetch
//! of the next column when the selected kernel asks for it.
//!
//! Parallel strategy, where there is one:
//!
//! * **GEMV** — NoTrans splits *rows*: each worker owns a disjoint slice of
//!   `y` and streams every column's row-chunk into it. Trans splits
//!   *output elements*: each worker reduces its own columns by `dot`.
//! * **GER** — splits *columns*: each worker rank-1-updates a disjoint
//!   column range of A (perfectly parallel, no reduction).
//! * **SYMV** — the stored triangle makes row-splits ragged, so each team
//!   member accumulates a full-length private partial over its column
//!   chunk, then after a barrier the team reduces disjoint row chunks of
//!   the partials into `y`. The partials split each sum where the column
//!   chunks end, and the serial walk folds `alpha` in per column, so its
//!   result moves with `nt` by rounding; every other routine here gives
//!   the same bits at every `nt` (`tests/level2_parity.rs`).
//! * **TRMV / TRSV** stay serial. TRSV's substitution recurrence makes
//!   column `j` depend on every column after (or before) it — the
//!   sequential chain *is* the algorithm — and TRMV's in-place update
//!   order is the same chain run forwards; parallelising either means
//!   blocking into Level 3 calls, which the tiny sizes this family serves
//!   never amortise. The predictor learns `nt = 1` for them instead.
//!
//! All entry points take the operand views a validated Level 2
//! [`Blas3Op`](crate::call::Blas3Op) holds; strided (`inc != 1`) vectors
//! are staged through contiguous temporaries so the kernels always stream
//! unit-stride.

use crate::call::{entry, gemv_shape, ger_shape, square_shape};
use crate::kernel::level2::Level2Dispatch;
use crate::kernel::prefetch_read;
use crate::matrix::{MatMut, MatRef};
use crate::op::{Dims, OpKind};
use crate::pool::{SendPtr, ThreadPool};
use crate::vector::{VecMut, VecRef};
use crate::{Diag, Float, Transpose, Uplo};

/// Cache lines of the next matrix column to pull while the current one
/// streams (same window as the Level 3 macro-kernel uses for panels).
const PREFETCH_LINES: usize = 4;

/// Column `j` of a matrix view.
#[inline]
fn col<'a, T: Float>(a: &MatRef<'a, T>, j: usize) -> &'a [T] {
    &a.data()[j * a.ld()..j * a.ld() + a.rows()]
}

/// Pull the head of column `j` (from row `i0`) towards the cache while the
/// current column streams.
#[inline]
fn prefetch_col<T: Float>(a: &MatRef<'_, T>, j: usize, i0: usize) {
    prefetch_read(a.data()[j * a.ld() + i0..].as_ptr(), PREFETCH_LINES);
}

/// Scale a vector in place; `beta == 0` stores zeros (clearing NaNs, per
/// BLAS convention), `beta == 1` is a no-op.
fn scale_vec<T: Float>(beta: T, y: &mut [T]) {
    if beta == T::ONE {
        return;
    }
    if beta == T::ZERO {
        y.fill(T::ZERO);
    } else {
        for v in y.iter_mut() {
            *v *= beta;
        }
    }
}

/// Stage a strided input vector as a contiguous slice (borrowing when it
/// already is one).
fn staged<'a, T: Float>(v: &VecRef<'a, T>, buf: &'a mut Vec<T>) -> &'a [T] {
    match v.contiguous() {
        Some(s) => s,
        None => {
            *buf = v.to_vec();
            buf.as_slice()
        }
    }
}

/// `y = alpha * op(A) * x + beta * y` where A is `m x n` column-major.
///
/// Uses exactly `nt` threads (row-split for NoTrans, output-split for
/// Trans); `nt <= 1` is the same walk over the one whole chunk.
///
/// # Panics
/// If the vector lengths disagree with `op(A)`, with the text of the typed
/// error [`Blas3Op::validate`](crate::call::Blas3Op::validate) returns.
pub fn gemv<T: Float>(
    nt: usize,
    trans: Transpose,
    alpha: T,
    a: MatRef<'_, T>,
    x: VecRef<'_, T>,
    beta: T,
    mut y: VecMut<'_, T>,
) {
    entry(gemv_shape(trans, a, x.len(), y.len()));
    if y.is_empty() {
        return;
    }

    let mut xbuf = Vec::new();
    let xs = staged(&x, &mut xbuf);
    let run = |ys: &mut [T]| {
        scale_vec(beta, ys);
        if alpha != T::ZERO && !xs.is_empty() {
            let disp = T::kernel2();
            match trans {
                Transpose::No => gemv_notrans(nt, &disp, alpha, a, xs, ys),
                Transpose::Yes => gemv_trans(nt, &disp, alpha, a, xs, ys),
            }
        }
    };
    // Strided y: run the whole routine on a contiguous copy, write back once.
    match y.contiguous_mut() {
        Some(ys) => run(ys),
        None => {
            let mut ybuf = y.as_ref().to_vec();
            run(&mut ybuf);
            y.copy_from_slice(&ybuf);
        }
    }
}

/// Row-split `y[0..m] += alpha * A * x`: each worker streams every column's
/// chunk of rows into its disjoint slice of `y`.
fn gemv_notrans<T: Float>(
    nt: usize,
    disp: &Level2Dispatch<T>,
    alpha: T,
    a: MatRef<'_, T>,
    x: &[T],
    y: &mut [T],
) {
    let (m, n) = (a.rows(), a.cols());
    // A single row cannot be split; `run` calls a team of one inline.
    let nt = if m < 2 { 1 } else { nt };
    let yptr = SendPtr(y.as_mut_ptr());
    ThreadPool::run_current(nt, |tid| {
        let (is, ie) = ThreadPool::chunk(m, nt, tid);
        if is >= ie {
            return;
        }
        // SAFETY: row ranges are disjoint across workers, so each mutable
        // slice of y is exclusive; `y` outlives the fork/join region.
        let my_y = unsafe { std::slice::from_raw_parts_mut(yptr.get().add(is), ie - is) };
        for (j, &xj) in x.iter().enumerate() {
            if disp.prefetch && j + 1 < n {
                prefetch_col(&a, j + 1, is);
            }
            (disp.axpy)(alpha * xj, &col(&a, j)[is..ie], my_y);
        }
    });
}

/// Output-split `y[0..n] += alpha * A' * x`: each worker reduces its own
/// columns by `dot` (disjoint output elements, no synchronisation).
fn gemv_trans<T: Float>(
    nt: usize,
    disp: &Level2Dispatch<T>,
    alpha: T,
    a: MatRef<'_, T>,
    x: &[T],
    y: &mut [T],
) {
    let n = a.cols();
    // A single output cannot be split; `run` calls a team of one inline.
    let nt = if n < 2 { 1 } else { nt };
    let yptr = SendPtr(y.as_mut_ptr());
    ThreadPool::run_current(nt, |tid| {
        let (js, je) = ThreadPool::chunk(n, nt, tid);
        if js >= je {
            return;
        }
        // SAFETY: column ranges are disjoint, so each worker's y elements
        // are exclusive.
        let my_y = unsafe { std::slice::from_raw_parts_mut(yptr.get().add(js), je - js) };
        for (jj, yj) in my_y.iter_mut().enumerate() {
            let j = js + jj;
            if disp.prefetch && j + 1 < je {
                prefetch_col(&a, j + 1, 0);
            }
            *yj = alpha.mul_add((disp.dot)(col(&a, j), x), *yj);
        }
    });
}

/// Rank-1 update `A += alpha * x * y'` where A is `m x n` column-major.
///
/// Column-split across `nt` threads: each worker axpy-updates a disjoint
/// column range (no reduction, no synchronisation).
///
/// # Panics
/// On disagreeing shapes, as for [`gemv`].
pub fn ger<T: Float>(nt: usize, alpha: T, x: VecRef<'_, T>, y: VecRef<'_, T>, a: MatMut<'_, T>) {
    let Dims([m, n, _]) = entry(ger_shape(x.len(), y.len(), a.as_ref()));
    if m == 0 || n == 0 || alpha == T::ZERO {
        return;
    }
    let (mut xbuf, mut ybuf) = (Vec::new(), Vec::new());
    let xs = staged(&x, &mut xbuf);
    let ys = staged(&y, &mut ybuf);
    let disp = T::kernel2();
    let lda = a.ld();
    let a = a.into_slice();

    // A single column cannot be split; `run` calls a team of one inline.
    let nt = if n < 2 { 1 } else { nt };
    let aptr = SendPtr(a.as_mut_ptr());
    ThreadPool::run_current(nt, |tid| {
        let (js, je) = ThreadPool::chunk(n, nt, tid);
        for (j, &yj) in ys.iter().enumerate().take(je).skip(js) {
            // SAFETY: column ranges are disjoint across workers and each
            // column is m <= lda elements starting at j * lda, inside the
            // extent the view constructor checked.
            let c = unsafe { std::slice::from_raw_parts_mut(aptr.get().add(j * lda), m) };
            (disp.axpy)(alpha * yj, xs, c);
        }
    });
}

/// `y = alpha * A * x + beta * y` where A is symmetric with only the
/// `uplo` triangle stored (`n x n`, column-major).
///
/// Parallel: each team member accumulates a full-length private partial
/// over its column chunk of the stored triangle, then the team reduces
/// disjoint row chunks of the partials into `y` after a barrier.
///
/// # Panics
/// On disagreeing shapes, as for [`gemv`].
pub fn symv<T: Float>(
    nt: usize,
    uplo: Uplo,
    alpha: T,
    a: MatRef<'_, T>,
    x: VecRef<'_, T>,
    beta: T,
    mut y: VecMut<'_, T>,
) {
    let Dims([n, ..]) = entry(square_shape(OpKind::Symv, a, x.len(), Some(y.len())));
    if n == 0 {
        return;
    }
    let mut xbuf = Vec::new();
    let xs = staged(&x, &mut xbuf);
    let run = |ys: &mut [T]| {
        scale_vec(beta, ys);
        if alpha != T::ZERO {
            let disp = T::kernel2();
            if nt <= 1 || n < 2 {
                symv_serial_into(&disp, uplo, alpha, a, xs, ys);
            } else {
                symv_parallel(nt, &disp, uplo, alpha, a, xs, ys);
            }
        }
    };
    match y.contiguous_mut() {
        Some(ys) => run(ys),
        None => {
            let mut ybuf = y.as_ref().to_vec();
            run(&mut ybuf);
            y.copy_from_slice(&ybuf);
        }
    }
}

/// One serial pass over the stored triangle: column `j` contributes an
/// axpy into the off-diagonal rows and a dot for `y[j]`, so each stored
/// element is used for both its own and its mirrored position in one load.
fn symv_serial_into<T: Float>(
    disp: &Level2Dispatch<T>,
    uplo: Uplo,
    alpha: T,
    a: MatRef<'_, T>,
    x: &[T],
    y: &mut [T],
) {
    let n = a.rows();
    for j in 0..n {
        let c = col(&a, j);
        match uplo {
            Uplo::Upper => {
                // Stored rows 0..=j; c[j] is the diagonal.
                let off = &c[..j];
                (disp.axpy)(alpha * x[j], off, &mut y[..j]);
                let mirror = (disp.dot)(off, &x[..j]);
                y[j] = alpha.mul_add(c[j].mul_add(x[j], mirror), y[j]);
            }
            Uplo::Lower => {
                // Stored rows j..n; c[j] is the diagonal.
                let off = &c[j + 1..n];
                (disp.axpy)(alpha * x[j], off, &mut y[j + 1..n]);
                let mirror = (disp.dot)(off, &x[j + 1..n]);
                y[j] = alpha.mul_add(c[j].mul_add(x[j], mirror), y[j]);
            }
        }
    }
}

/// Column-chunked symmetric product with private partials and a row-chunk
/// reduction (see module docs).
fn symv_parallel<T: Float>(
    nt: usize,
    disp: &Level2Dispatch<T>,
    uplo: Uplo,
    alpha: T,
    a: MatRef<'_, T>,
    x: &[T],
    y: &mut [T],
) {
    let n = a.rows();
    // One private full-length partial per team member, in one allocation.
    let mut partials = vec![T::ZERO; nt * n];
    let pptr = SendPtr(partials.as_mut_ptr());
    let yptr = SendPtr(y.as_mut_ptr());
    ThreadPool::run_team_current(nt, |team| {
        let tid = team.tid;
        // SAFETY: each member touches only its own `tid` stripe before the
        // barrier; the allocation outlives the team region.
        let mine = unsafe { std::slice::from_raw_parts_mut(pptr.get().add(tid * n), n) };
        let (js, je) = team.chunk(n);
        for j in js..je {
            let c = col(&a, j);
            match uplo {
                Uplo::Upper => {
                    let off = &c[..j];
                    (disp.axpy)(x[j], off, &mut mine[..j]);
                    let mirror = (disp.dot)(off, &x[..j]);
                    mine[j] += c[j].mul_add(x[j], mirror);
                }
                Uplo::Lower => {
                    let off = &c[j + 1..n];
                    (disp.axpy)(x[j], off, &mut mine[j + 1..n]);
                    let mirror = (disp.dot)(off, &x[j + 1..n]);
                    mine[j] += c[j].mul_add(x[j], mirror);
                }
            }
        }
        // Publish every partial before anyone reduces.
        team.barrier();
        let (is, ie) = team.chunk(n);
        if is < ie {
            // SAFETY: row ranges are disjoint across members; partials are
            // read-only after the barrier.
            let my_y = unsafe { std::slice::from_raw_parts_mut(yptr.get().add(is), ie - is) };
            for t in 0..team.size {
                // SAFETY: pptr holds team.size partials of n rows each;
                // the barrier above froze them, so shared reads are sound.
                let part =
                    unsafe { std::slice::from_raw_parts(pptr.get().add(t * n + is), ie - is) };
                (disp.axpy)(alpha, part, my_y);
            }
        }
    });
}

/// `x = op(A) * x` in place, A triangular (`n x n`, `uplo` triangle stored,
/// optionally unit-diagonal). Serial by design — see the module docs.
///
/// # Panics
/// On disagreeing shapes, as for [`gemv`].
pub fn trmv<T: Float>(
    uplo: Uplo,
    trans: Transpose,
    diag: Diag,
    a: MatRef<'_, T>,
    mut x: VecMut<'_, T>,
) {
    let Dims([n, ..]) = entry(square_shape(OpKind::Trmv, a, x.len(), None));
    if n == 0 {
        return;
    }
    let disp = T::kernel2();
    // Each (uplo, trans) pair has exactly one in-place walk order that
    // reads every x element before the walk overwrites it.
    let walk = |xs: &mut [T]| match (uplo, trans) {
        (Uplo::Upper, Transpose::No) => {
            // x[i] <- sum_{j >= i}: ascending columns, x[j] still original
            // when column j is consumed.
            for j in 0..n {
                let c = col(&a, j);
                let t = xs[j];
                (disp.axpy)(t, &c[..j], &mut xs[..j]);
                xs[j] = match diag {
                    Diag::NonUnit => c[j] * t,
                    Diag::Unit => t,
                };
            }
        }
        (Uplo::Lower, Transpose::No) => {
            // Descending columns for the lower triangle.
            for j in (0..n).rev() {
                let c = col(&a, j);
                let t = xs[j];
                (disp.axpy)(t, &c[j + 1..n], &mut xs[j + 1..n]);
                xs[j] = match diag {
                    Diag::NonUnit => c[j] * t,
                    Diag::Unit => t,
                };
            }
        }
        (Uplo::Upper, Transpose::Yes) => {
            // op(A) is lower: descending dot walk keeps x[..j] original.
            for j in (0..n).rev() {
                let c = col(&a, j);
                let mirror = (disp.dot)(&c[..j], &xs[..j]);
                let d = match diag {
                    Diag::NonUnit => c[j],
                    Diag::Unit => T::ONE,
                };
                xs[j] = d.mul_add(xs[j], mirror);
            }
        }
        (Uplo::Lower, Transpose::Yes) => {
            // op(A) is upper: ascending dot walk keeps x[j+1..] original.
            for j in 0..n {
                let c = col(&a, j);
                let mirror = (disp.dot)(&c[j + 1..n], &xs[j + 1..n]);
                let d = match diag {
                    Diag::NonUnit => c[j],
                    Diag::Unit => T::ONE,
                };
                xs[j] = d.mul_add(xs[j], mirror);
            }
        }
    };
    match x.contiguous_mut() {
        Some(xs) => walk(xs),
        None => {
            let mut xbuf = x.as_ref().to_vec();
            walk(&mut xbuf);
            x.copy_from_slice(&xbuf);
        }
    }
}

/// Solve `op(A) * x = b` in place (b arrives in `x`, the solution
/// overwrites it), A triangular. Serial by design: substitution makes
/// every step depend on the previous one — see the module docs.
///
/// # Panics
/// On disagreeing shapes, as for [`gemv`].
pub fn trsv<T: Float>(
    uplo: Uplo,
    trans: Transpose,
    diag: Diag,
    a: MatRef<'_, T>,
    mut x: VecMut<'_, T>,
) {
    let Dims([n, ..]) = entry(square_shape(OpKind::Trsv, a, x.len(), None));
    if n == 0 {
        return;
    }
    let disp = T::kernel2();
    let walk = |xs: &mut [T]| match (uplo, trans) {
        (Uplo::Upper, Transpose::No) => {
            // Back substitution, column-oriented: once x[j] is final,
            // eliminate its contribution from every earlier row at once.
            for j in (0..n).rev() {
                let c = col(&a, j);
                if diag == Diag::NonUnit {
                    xs[j] = xs[j] / c[j];
                }
                let t = xs[j];
                (disp.axpy)(-t, &c[..j], &mut xs[..j]);
            }
        }
        (Uplo::Lower, Transpose::No) => {
            for j in 0..n {
                let c = col(&a, j);
                if diag == Diag::NonUnit {
                    xs[j] = xs[j] / c[j];
                }
                let t = xs[j];
                (disp.axpy)(-t, &c[j + 1..n], &mut xs[j + 1..n]);
            }
        }
        (Uplo::Upper, Transpose::Yes) => {
            // op(A) is lower: forward substitution by dot against the
            // already-solved prefix.
            for j in 0..n {
                let c = col(&a, j);
                let s = xs[j] - (disp.dot)(&c[..j], &xs[..j]);
                xs[j] = match diag {
                    Diag::NonUnit => s / c[j],
                    Diag::Unit => s,
                };
            }
        }
        (Uplo::Lower, Transpose::Yes) => {
            for j in (0..n).rev() {
                let c = col(&a, j);
                let s = xs[j] - (disp.dot)(&c[j + 1..n], &xs[j + 1..n]);
                xs[j] = match diag {
                    Diag::NonUnit => s / c[j],
                    Diag::Unit => s,
                };
            }
        }
    };
    match x.contiguous_mut() {
        Some(xs) => walk(xs),
        None => {
            let mut xbuf = x.as_ref().to_vec();
            walk(&mut xbuf);
            x.copy_from_slice(&xbuf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::reference;
    use crate::{Diag::*, Transpose::*, Uplo::*};

    fn test_mat(r: usize, c: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(r, c, |i, j| {
            let v = (i as u64)
                .wrapping_mul(2654435761)
                .wrapping_add((j as u64).wrapping_mul(40503))
                .wrapping_add(seed);
            ((v % 17) as f64) / 8.0 - 1.0
        })
    }

    fn test_vec(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| (((i as u64).wrapping_mul(97).wrapping_add(seed) % 13) as f64) / 6.0 - 1.0)
            .collect()
    }

    #[test]
    fn gemv_matches_reference_across_threads_and_flags() {
        for &(m, n) in &[(1, 1), (3, 7), (16, 16), (33, 9), (64, 65)] {
            let a = test_mat(m, n, 5);
            for trans in [No, Yes] {
                let (xl, yl) = match trans {
                    No => (n, m),
                    Yes => (m, n),
                };
                let x = test_vec(xl, 1);
                let y0 = test_vec(yl, 2);
                let mut want = y0.clone();
                reference::gemv(trans, 1.25, &a, &x, -0.5, &mut want);
                for nt in [1usize, 2, 5] {
                    let mut y = y0.clone();
                    gemv(
                        nt,
                        trans,
                        1.25,
                        a.as_ref(),
                        VecRef::new(xl, 1, &x),
                        -0.5,
                        VecMut::new(yl, 1, &mut y),
                    );
                    for i in 0..yl {
                        assert!(
                            (y[i] - want[i]).abs() < 1e-10,
                            "gemv {m}x{n} trans={trans:?} nt={nt} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemv_strided_vectors_match_contiguous() {
        let (m, n) = (9, 6);
        let a = test_mat(m, n, 3);
        let x = test_vec(2 * n, 4);
        let mut y = test_vec(3 * m, 5);
        let x1: Vec<f64> = x.iter().step_by(2).copied().collect();
        let mut y1: Vec<f64> = y.iter().step_by(3).copied().collect();
        gemv(
            2,
            No,
            2.0,
            a.as_ref(),
            VecRef::new(n, 2, &x),
            0.5,
            VecMut::new(m, 3, &mut y),
        );
        gemv(
            1,
            No,
            2.0,
            a.as_ref(),
            VecRef::new(n, 1, &x1),
            0.5,
            VecMut::new(m, 1, &mut y1),
        );
        for i in 0..m {
            assert!((y[3 * i] - y1[i]).abs() < 1e-12, "strided gemv i={i}");
        }
    }

    #[test]
    fn ger_matches_reference_across_threads() {
        let (m, n) = (23, 11);
        let x = test_vec(m, 7);
        let y = test_vec(n, 8);
        let a0 = test_mat(m, n, 9);
        let mut want = a0.clone();
        reference::ger(0.75, &x, &y, &mut want);
        for nt in [1usize, 3, 6] {
            let mut a = a0.clone();
            ger(
                nt,
                0.75,
                VecRef::new(m, 1, &x),
                VecRef::new(n, 1, &y),
                a.as_mut(),
            );
            assert!(a.max_abs_diff(&want) < 1e-12, "ger nt={nt}");
        }
    }

    #[test]
    fn symv_matches_reference_both_triangles() {
        let n = 37;
        let full = {
            let mut m = test_mat(n, n, 11);
            m.symmetrize_from(Upper);
            m
        };
        let x = test_vec(n, 12);
        let y0 = test_vec(n, 13);
        for uplo in [Upper, Lower] {
            let mut want = y0.clone();
            reference::symv(uplo, 1.5, &full, &x, 0.25, &mut want);
            for nt in [1usize, 2, 4, 7] {
                let mut y = y0.clone();
                symv(
                    nt,
                    uplo,
                    1.5,
                    full.as_ref(),
                    VecRef::new(n, 1, &x),
                    0.25,
                    VecMut::new(n, 1, &mut y),
                );
                for i in 0..n {
                    assert!(
                        (y[i] - want[i]).abs() < 1e-10,
                        "symv uplo={uplo:?} nt={nt} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn trmv_and_trsv_roundtrip_all_flag_combinations() {
        let n = 19;
        // Diagonally dominant so the solve is well-conditioned.
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                4.0 + (i % 3) as f64
            } else {
                (((i * 5 + j * 3) % 7) as f64) / 7.0 - 0.5
            }
        });
        let x0 = test_vec(n, 14);
        for uplo in [Upper, Lower] {
            for trans in [No, Yes] {
                for diag in [NonUnit, Unit] {
                    let mut x = x0.clone();
                    trmv(uplo, trans, diag, a.as_ref(), VecMut::new(n, 1, &mut x));
                    let mut want = x0.clone();
                    reference::trmv(uplo, trans, diag, &a, &mut want);
                    for i in 0..n {
                        assert!(
                            (x[i] - want[i]).abs() < 1e-10,
                            "trmv {uplo:?}/{trans:?}/{diag:?} i={i}"
                        );
                    }
                    trsv(uplo, trans, diag, a.as_ref(), VecMut::new(n, 1, &mut x));
                    for i in 0..n {
                        assert!(
                            (x[i] - x0[i]).abs() < 1e-8,
                            "trsv failed to invert trmv {uplo:?}/{trans:?}/{diag:?} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_and_degenerate_shapes_are_no_ops() {
        let empty = |rows, cols| MatRef::<f64>::new(rows, cols, rows.max(1), &[]);
        // m == 0: nothing to do, not even beta-scaling.
        gemv(
            2,
            No,
            1.0,
            empty(0, 5),
            VecRef::new(5, 1, &[0.0; 5]),
            0.0,
            VecMut::new(0, 1, &mut []),
        );
        // n == 0: y = beta * y only.
        let mut y = vec![2.0f64; 3];
        gemv(
            2,
            No,
            1.0,
            empty(3, 0),
            VecRef::new(0, 1, &[]),
            0.5,
            VecMut::new(3, 1, &mut y),
        );
        assert_eq!(y, vec![1.0; 3]);
        // alpha == 0 skips the product even with poisoned A.
        let mut y = vec![1.0f64; 2];
        gemv(
            1,
            No,
            0.0,
            MatRef::new(2, 2, 2, &[f64::NAN; 4]),
            VecRef::new(2, 1, &[1.0, 1.0]),
            2.0,
            VecMut::new(2, 1, &mut y),
        );
        assert_eq!(y, vec![2.0; 2]);
        let none = || VecRef::<f64>::new(0, 1, &[]);
        ger(2, 1.0, none(), none(), MatMut::new(0, 0, 1, &mut []));
        symv(
            2,
            Upper,
            1.0,
            empty(0, 0),
            none(),
            0.0,
            VecMut::new(0, 1, &mut []),
        );
        trmv(Upper, No, NonUnit, empty(0, 0), VecMut::new(0, 1, &mut []));
        trsv(Lower, Yes, Unit, empty(0, 0), VecMut::new(0, 1, &mut []));
    }

    #[test]
    fn beta_zero_overwrites_nan_y() {
        let (m, n) = (4, 4);
        let a = test_mat(m, n, 20);
        let x = test_vec(n, 21);
        let mut y = vec![f64::NAN; m];
        gemv(
            1,
            No,
            1.0,
            a.as_ref(),
            VecRef::new(n, 1, &x),
            0.0,
            VecMut::new(m, 1, &mut y),
        );
        assert!(y.iter().all(|v| v.is_finite()));
    }
}

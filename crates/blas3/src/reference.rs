//! Naive, obviously-correct reference implementations of every BLAS L3
//! subroutine, used as test oracles for the optimised routines.
//!
//! These are O(n^3) triple loops that follow the BLAS specification
//! directly. They are deliberately simple — any disagreement between these
//! and the blocked implementations is a bug in the latter.
//!
//! They also power [`ReferenceBackend`](crate::backend::ReferenceBackend),
//! the second implementation behind the [`crate::backend::Blas3Backend`]
//! seam, so the whole runtime can be differentially tested against them.

use crate::matrix::Matrix;
use crate::{Diag, Float, Side, Transpose, Uplo};

fn tr<T: Float>(m: &Matrix<T>, trans: Transpose, i: usize, j: usize) -> T {
    match trans {
        Transpose::No => m.get(i, j),
        Transpose::Yes => m.get(j, i),
    }
}

/// Whether `(i, j)` lies in the `uplo` triangle (diagonal included).
fn stored(uplo: Uplo, i: usize, j: usize) -> bool {
    match uplo {
        Uplo::Upper => i <= j,
        Uplo::Lower => i >= j,
    }
}

/// Read element `(i, j)` of a symmetric matrix stored in one triangle.
fn sym<T: Float>(a: &Matrix<T>, uplo: Uplo, i: usize, j: usize) -> T {
    if stored(uplo, i, j) {
        a.get(i, j)
    } else {
        a.get(j, i)
    }
}

/// `beta * old`, with `old` not read at `beta = 0` (BLAS: C is then not
/// referenced, so a NaN already there does not survive).
fn scaled<T: Float>(beta: T, old: T) -> T {
    if beta == T::ZERO {
        T::ZERO
    } else {
        beta * old
    }
}

/// `C = beta * C` over the entries `keep` selects: the whole of an update
/// at `alpha = 0`, where BLAS references neither A nor B.
fn scale_only<T: Float>(beta: T, c: &mut Matrix<T>, keep: impl Fn(usize, usize) -> bool) {
    for j in 0..c.cols() {
        for i in (0..c.rows()).filter(|&i| keep(i, j)) {
            c.set(i, j, scaled(beta, c.get(i, j)));
        }
    }
}

/// Read element `(i, j)` of a triangular matrix (zero outside the triangle,
/// one on the diagonal for `Diag::Unit`).
fn tri<T: Float>(a: &Matrix<T>, uplo: Uplo, diag: Diag, i: usize, j: usize) -> T {
    if i == j {
        return match diag {
            Diag::Unit => T::ONE,
            Diag::NonUnit => a.get(i, j),
        };
    }
    if stored(uplo, i, j) {
        a.get(i, j)
    } else {
        T::ZERO
    }
}

/// Triangular element of `op(A)`.
fn tri_op<T: Float>(
    a: &Matrix<T>,
    uplo: Uplo,
    trans: Transpose,
    diag: Diag,
    i: usize,
    j: usize,
) -> T {
    match trans {
        Transpose::No => tri(a, uplo, diag, i, j),
        Transpose::Yes => tri(a, uplo, diag, j, i),
    }
}

/// `C = alpha * op(A) * op(B) + beta * C`.
pub fn gemm<T: Float>(
    transa: Transpose,
    transb: Transpose,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let m = c.rows();
    let n = c.cols();
    let k = match transa {
        Transpose::No => a.cols(),
        Transpose::Yes => a.rows(),
    };
    if alpha == T::ZERO {
        return scale_only(beta, c, |_, _| true);
    }
    for j in 0..n {
        for i in 0..m {
            let mut acc = T::ZERO;
            for p in 0..k {
                acc += tr(a, transa, i, p) * tr(b, transb, p, j);
            }
            c.set(i, j, alpha * acc + scaled(beta, c.get(i, j)));
        }
    }
}

/// `C = alpha*A*B + beta*C` (Left) or `C = alpha*B*A + beta*C` (Right),
/// A symmetric stored in `uplo`.
pub fn symm<T: Float>(
    side: Side,
    uplo: Uplo,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let m = c.rows();
    let n = c.cols();
    if alpha == T::ZERO {
        return scale_only(beta, c, |_, _| true);
    }
    for j in 0..n {
        for i in 0..m {
            let mut acc = T::ZERO;
            match side {
                Side::Left => {
                    for p in 0..m {
                        acc += sym(a, uplo, i, p) * b.get(p, j);
                    }
                }
                Side::Right => {
                    for p in 0..n {
                        acc += b.get(i, p) * sym(a, uplo, p, j);
                    }
                }
            }
            c.set(i, j, alpha * acc + scaled(beta, c.get(i, j)));
        }
    }
}

/// `C = alpha*A*A' + beta*C` (NoTrans) or `C = alpha*A'*A + beta*C` (Trans),
/// only the `uplo` triangle of C referenced/updated.
pub fn syrk<T: Float>(
    uplo: Uplo,
    trans: Transpose,
    alpha: T,
    a: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let n = c.rows();
    let k = match trans {
        Transpose::No => a.cols(),
        Transpose::Yes => a.rows(),
    };
    if alpha == T::ZERO {
        return scale_only(beta, c, |i, j| stored(uplo, i, j));
    }
    for j in 0..n {
        for i in (0..n).filter(|&i| stored(uplo, i, j)) {
            let mut acc = T::ZERO;
            for p in 0..k {
                let av = match trans {
                    Transpose::No => a.get(i, p),
                    Transpose::Yes => a.get(p, i),
                };
                let bv = match trans {
                    Transpose::No => a.get(j, p),
                    Transpose::Yes => a.get(p, j),
                };
                acc += av * bv;
            }
            c.set(i, j, alpha * acc + scaled(beta, c.get(i, j)));
        }
    }
}

/// `C = alpha*(A*B' + B*A') + beta*C` (NoTrans) or
/// `C = alpha*(A'*B + B'*A) + beta*C` (Trans); `uplo` triangle only.
pub fn syr2k<T: Float>(
    uplo: Uplo,
    trans: Transpose,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let n = c.rows();
    let k = match trans {
        Transpose::No => a.cols(),
        Transpose::Yes => a.rows(),
    };
    if alpha == T::ZERO {
        return scale_only(beta, c, |i, j| stored(uplo, i, j));
    }
    for j in 0..n {
        for i in (0..n).filter(|&i| stored(uplo, i, j)) {
            let mut acc = T::ZERO;
            for p in 0..k {
                let (aip, bjp, bip, ajp) = match trans {
                    Transpose::No => (a.get(i, p), b.get(j, p), b.get(i, p), a.get(j, p)),
                    Transpose::Yes => (a.get(p, i), b.get(p, j), b.get(p, i), a.get(p, j)),
                };
                acc += aip * bjp + bip * ajp;
            }
            c.set(i, j, alpha * acc + scaled(beta, c.get(i, j)));
        }
    }
}

/// Run `f` over each column of B (Left) or each row (Right), writing the
/// line back. `f` gets the transpose to apply: a Right-side `X * op(A)` is,
/// row by row, the Level-2 `op(A)' * x`.
fn each_line<T: Float>(
    side: Side,
    trans: Transpose,
    b: &mut Matrix<T>,
    f: impl Fn(Transpose, &mut [T]),
) {
    let (lines, len, trans) = match (side, trans) {
        (Side::Left, t) => (b.cols(), b.rows(), t),
        (Side::Right, Transpose::No) => (b.rows(), b.cols(), Transpose::Yes),
        (Side::Right, Transpose::Yes) => (b.rows(), b.cols(), Transpose::No),
    };
    let at = |line: usize, t: usize| match side {
        Side::Left => (t, line),
        Side::Right => (line, t),
    };
    for line in 0..lines {
        let mut x: Vec<T> = (0..len)
            .map(|t| at(line, t))
            .map(|(i, j)| b.get(i, j))
            .collect();
        f(trans, &mut x);
        for (t, &v) in x.iter().enumerate() {
            let (i, j) = at(line, t);
            b.set(i, j, v);
        }
    }
}

/// `B = alpha*op(A)*B` (Left) or `B = alpha*B*op(A)` (Right), A triangular.
pub fn trmm<T: Float>(
    side: Side,
    uplo: Uplo,
    trans: Transpose,
    diag: Diag,
    alpha: T,
    a: &Matrix<T>,
    b: &mut Matrix<T>,
) {
    if alpha == T::ZERO {
        *b = Matrix::zeros(b.rows(), b.cols());
        return;
    }
    each_line(side, trans, b, |trans, x| {
        trmv(uplo, trans, diag, a, x);
        x.iter_mut().for_each(|v| *v = alpha * *v);
    });
}

/// Solve `op(A) * X = alpha * B` (Left) or `X * op(A) = alpha * B` (Right);
/// X overwrites B. A is triangular and assumed non-singular.
pub fn trsm<T: Float>(
    side: Side,
    uplo: Uplo,
    trans: Transpose,
    diag: Diag,
    alpha: T,
    a: &Matrix<T>,
    b: &mut Matrix<T>,
) {
    if alpha == T::ZERO {
        *b = Matrix::zeros(b.rows(), b.cols());
        return;
    }
    each_line(side, trans, b, |trans, x| {
        x.iter_mut().for_each(|v| *v = alpha * *v);
        trsv(uplo, trans, diag, a, x);
    });
}

/// `y = alpha * op(A) * x + beta * y` (Level 2).
pub fn gemv<T: Float>(trans: Transpose, alpha: T, a: &Matrix<T>, x: &[T], beta: T, y: &mut [T]) {
    let (rows, cols) = match trans {
        Transpose::No => (a.rows(), a.cols()),
        Transpose::Yes => (a.cols(), a.rows()),
    };
    assert_eq!(x.len(), cols, "gemv x length");
    assert_eq!(y.len(), rows, "gemv y length");
    if alpha == T::ZERO {
        return y.iter_mut().for_each(|yi| *yi = scaled(beta, *yi));
    }
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc = T::ZERO;
        for (p, &xp) in x.iter().enumerate() {
            acc += tr(a, trans, i, p) * xp;
        }
        *yi = alpha * acc + scaled(beta, *yi);
    }
}

/// Rank-1 update `A = alpha * x * y' + A` (Level 2).
pub fn ger<T: Float>(alpha: T, x: &[T], y: &[T], a: &mut Matrix<T>) {
    assert_eq!(x.len(), a.rows(), "ger x length");
    assert_eq!(y.len(), a.cols(), "ger y length");
    if alpha == T::ZERO {
        return;
    }
    for (j, &yj) in y.iter().enumerate() {
        for (i, &xi) in x.iter().enumerate() {
            let v = a.get(i, j) + alpha * xi * yj;
            a.set(i, j, v);
        }
    }
}

/// `y = alpha * A * x + beta * y`, A symmetric stored in `uplo` (Level 2).
pub fn symv<T: Float>(uplo: Uplo, alpha: T, a: &Matrix<T>, x: &[T], beta: T, y: &mut [T]) {
    let n = a.rows();
    assert_eq!(x.len(), n, "symv x length");
    assert_eq!(y.len(), n, "symv y length");
    if alpha == T::ZERO {
        return y.iter_mut().for_each(|yi| *yi = scaled(beta, *yi));
    }
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc = T::ZERO;
        for (p, &xp) in x.iter().enumerate() {
            acc += sym(a, uplo, i, p) * xp;
        }
        *yi = alpha * acc + scaled(beta, *yi);
    }
}

/// `x = op(A) * x`, A triangular (Level 2).
pub fn trmv<T: Float>(uplo: Uplo, trans: Transpose, diag: Diag, a: &Matrix<T>, x: &mut [T]) {
    let n = a.rows();
    assert_eq!(x.len(), n, "trmv x length");
    let out: Vec<T> = (0..n)
        .map(|i| {
            let mut acc = T::ZERO;
            for (p, &xp) in x.iter().enumerate() {
                acc += tri_op(a, uplo, trans, diag, i, p) * xp;
            }
            acc
        })
        .collect();
    x.copy_from_slice(&out);
}

/// Solve `op(A) * x = b` where b arrives in `x` and the solution overwrites
/// it; A triangular and assumed non-singular (Level 2).
pub fn trsv<T: Float>(uplo: Uplo, trans: Transpose, diag: Diag, a: &Matrix<T>, x: &mut [T]) {
    let n = a.rows();
    assert_eq!(x.len(), n, "trsv x length");
    let eff_upper = matches!(
        (uplo, trans),
        (Uplo::Upper, Transpose::No) | (Uplo::Lower, Transpose::Yes)
    );
    let at = |i: usize, j: usize| tri_op(a, uplo, trans, diag, i, j);
    if eff_upper {
        for i in (0..n).rev() {
            let mut v = x[i];
            for (p, &xp) in x.iter().enumerate().skip(i + 1) {
                v -= at(i, p) * xp;
            }
            if diag == Diag::NonUnit {
                v = v / at(i, i);
            }
            x[i] = v;
        }
    } else {
        for i in 0..n {
            let mut v = x[i];
            for (p, &xp) in x.iter().enumerate().take(i) {
                v -= at(i, p) * xp;
            }
            if diag == Diag::NonUnit {
                v = v / at(i, i);
            }
            x[i] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// trsm must invert trmm: X = trsm(A, trmm(A, X)).
    #[test]
    fn trsm_inverts_trmm_all_flag_combinations() {
        let m = 6;
        let n = 4;
        let a = Matrix::<f64>::from_fn(m, m, |i, j| {
            if i == j {
                3.0 + i as f64
            } else {
                0.3 * ((i * 5 + j * 7) % 9) as f64 - 1.0
            }
        });
        let x0 = Matrix::<f64>::from_fn(m, n, |i, j| ((i * 3 + j) % 7) as f64 - 3.0);
        for side in [Side::Left, Side::Right] {
            let a = if side == Side::Right {
                // A must be n x n for Right.
                Matrix::<f64>::from_fn(n, n, |i, j| {
                    if i == j {
                        2.0 + i as f64
                    } else {
                        0.2 * ((i + 2 * j) % 5) as f64
                    }
                })
            } else {
                a.clone()
            };
            for uplo in [Uplo::Upper, Uplo::Lower] {
                for trans in [Transpose::No, Transpose::Yes] {
                    for diag in [Diag::NonUnit, Diag::Unit] {
                        let mut b = x0.clone();
                        trmm(side, uplo, trans, diag, 2.0, &a, &mut b);
                        trsm(side, uplo, trans, diag, 0.5, &a, &mut b);
                        assert!(
                            b.max_abs_diff(&x0) < 1e-9,
                            "{side:?} {uplo:?} {trans:?} {diag:?}"
                        );
                    }
                }
            }
        }
    }

    /// SYMM with a fully-symmetric matrix must agree with GEMM.
    #[test]
    fn symm_agrees_with_gemm_on_symmetric_input() {
        let m = 5;
        let n = 3;
        let mut a = Matrix::<f64>::from_fn(m, m, |i, j| ((i * j + i + 2 * j) % 7) as f64);
        a.symmetrize_from(Uplo::Upper);
        let b = Matrix::<f64>::from_fn(m, n, |i, j| (i + 10 * j) as f64);
        let c0 = Matrix::<f64>::from_fn(m, n, |i, j| (i * j) as f64);

        let mut c_sym = c0.clone();
        symm(Side::Left, Uplo::Upper, 1.5, &a, &b, 0.5, &mut c_sym);
        let mut c_gemm = c0.clone();
        gemm(Transpose::No, Transpose::No, 1.5, &a, &b, 0.5, &mut c_gemm);
        assert!(c_sym.max_abs_diff(&c_gemm) < 1e-12);

        // Lower-stored must agree too.
        let mut c_low = c0.clone();
        symm(Side::Left, Uplo::Lower, 1.5, &a, &b, 0.5, &mut c_low);
        assert!(c_low.max_abs_diff(&c_gemm) < 1e-12);
    }

    /// SYRK leaves the opposite triangle untouched.
    #[test]
    fn syrk_preserves_opposite_triangle() {
        let n = 4;
        let k = 3;
        let a = Matrix::<f64>::from_fn(n, k, |i, j| (i + j) as f64);
        let mut c = Matrix::<f64>::filled(n, n, 7.0);
        syrk(Uplo::Lower, Transpose::No, 1.0, &a, 0.0, &mut c);
        for j in 0..n {
            for i in 0..j {
                assert_eq!(c.get(i, j), 7.0, "upper part must be untouched");
            }
        }
        // Diagonal entries are row self-products.
        for i in 0..n {
            let expect: f64 = (0..k).map(|p| ((i + p) * (i + p)) as f64).sum();
            assert_eq!(c.get(i, i), expect);
        }
    }

    /// SYR2K equals gemm(A,B') + gemm(B,A') on the stored triangle.
    #[test]
    fn syr2k_matches_two_gemms() {
        let n = 5;
        let k = 4;
        let a = Matrix::<f64>::from_fn(n, k, |i, j| ((3 * i + j) % 6) as f64 - 2.0);
        let b = Matrix::<f64>::from_fn(n, k, |i, j| ((i + 2 * j) % 5) as f64 - 1.0);
        let mut c = Matrix::<f64>::zeros(n, n);
        syr2k(Uplo::Upper, Transpose::No, 2.0, &a, &b, 0.0, &mut c);

        let mut full = Matrix::<f64>::zeros(n, n);
        gemm(Transpose::No, Transpose::Yes, 2.0, &a, &b, 0.0, &mut full);
        let mut ba = Matrix::<f64>::zeros(n, n);
        gemm(Transpose::No, Transpose::Yes, 2.0, &b, &a, 0.0, &mut ba);
        for j in 0..n {
            for i in 0..=j {
                let expect = full.get(i, j) + ba.get(i, j);
                assert!((c.get(i, j) - expect).abs() < 1e-12);
            }
        }
    }

    /// GEMV must agree with a GEMM against an n x 1 matrix.
    #[test]
    fn gemv_agrees_with_single_column_gemm() {
        let a = Matrix::<f64>::from_fn(4, 3, |i, j| ((i * 3 + j) % 7) as f64 - 2.0);
        let x = [1.0, -2.0, 0.5];
        for trans in [Transpose::No, Transpose::Yes] {
            let (rows, cols) = match trans {
                Transpose::No => (4, 3),
                Transpose::Yes => (3, 4),
            };
            let xv: Vec<f64> = (0..cols).map(|i| x[i % 3]).collect();
            let mut y = vec![0.25; rows];
            let xm = Matrix::from_col_major(cols, 1, xv.clone());
            let mut ym = Matrix::from_col_major(rows, 1, y.clone());
            gemm(trans, Transpose::No, 1.5, &a, &xm, 0.5, &mut ym);
            gemv(trans, 1.5, &a, &xv, 0.5, &mut y);
            for (i, yi) in y.iter().enumerate() {
                assert!((yi - ym.get(i, 0)).abs() < 1e-12, "{trans:?} row {i}");
            }
        }
    }

    /// trsv must invert trmv for every flag combination.
    #[test]
    fn trsv_inverts_trmv_all_flag_combinations() {
        let n = 7;
        let a = Matrix::<f64>::from_fn(n, n, |i, j| {
            if i == j {
                3.0 + i as f64
            } else {
                0.3 * ((i * 5 + j * 7) % 9) as f64 - 1.0
            }
        });
        let x0: Vec<f64> = (0..n).map(|i| ((i * 3) % 7) as f64 - 3.0).collect();
        for uplo in [Uplo::Upper, Uplo::Lower] {
            for trans in [Transpose::No, Transpose::Yes] {
                for diag in [Diag::NonUnit, Diag::Unit] {
                    let mut x = x0.clone();
                    trmv(uplo, trans, diag, &a, &mut x);
                    trsv(uplo, trans, diag, &a, &mut x);
                    for i in 0..n {
                        assert!(
                            (x[i] - x0[i]).abs() < 1e-9,
                            "{uplo:?} {trans:?} {diag:?} element {i}"
                        );
                    }
                }
            }
        }
    }

    /// SYMV on a symmetrised matrix agrees with GEMV; GER matches the
    /// element-wise outer product.
    #[test]
    fn symv_and_ger_oracles() {
        let n = 5;
        let mut a = Matrix::<f64>::from_fn(n, n, |i, j| ((i * j + i + 2 * j) % 7) as f64);
        a.symmetrize_from(Uplo::Upper);
        let x: Vec<f64> = (0..n).map(|i| (i as f64) - 2.0).collect();
        let mut y_sym = vec![1.0; n];
        let mut y_gemv = vec![1.0; n];
        symv(Uplo::Upper, 2.0, &a, &x, 0.5, &mut y_sym);
        gemv(Transpose::No, 2.0, &a, &x, 0.5, &mut y_gemv);
        for i in 0..n {
            assert!((y_sym[i] - y_gemv[i]).abs() < 1e-12);
        }
        let mut y_low = vec![1.0; n];
        symv(Uplo::Lower, 2.0, &a, &x, 0.5, &mut y_low);
        for i in 0..n {
            assert!((y_low[i] - y_gemv[i]).abs() < 1e-12);
        }

        let mut am = Matrix::<f64>::filled(2, 3, 1.0);
        ger(2.0, &[1.0, -1.0], &[3.0, 0.0, 0.5], &mut am);
        assert_eq!(am.get(0, 0), 7.0);
        assert_eq!(am.get(1, 0), -5.0);
        assert_eq!(am.get(0, 2), 2.0);
        assert_eq!(am.get(1, 1), 1.0);
    }

    #[test]
    fn gemm_transposes() {
        let a = Matrix::<f64>::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
        let b = Matrix::<f64>::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        // C = A' * B : 2x2
        let mut c = Matrix::<f64>::zeros(2, 2);
        gemm(Transpose::Yes, Transpose::No, 1.0, &a, &b, 0.0, &mut c);
        let at = a.transposed();
        let mut expect = Matrix::<f64>::zeros(2, 2);
        gemm(Transpose::No, Transpose::No, 1.0, &at, &b, 0.0, &mut expect);
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }
}

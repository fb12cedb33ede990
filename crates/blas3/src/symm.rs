//! Symmetric matrix-matrix multiply:
//! `C = alpha*A*B + beta*C` (Left) or `C = alpha*B*A + beta*C` (Right),
//! where A is symmetric with only the `uplo` triangle stored.
//!
//! SYMM is GEMM whose one operand is a symmetric [`PackSrc`] — element
//! `(i, j)` outside the stored triangle reads the transposed location — so
//! it runs GEMM's own scaled-product region (`scaled_product`), with the
//! two operands ordered by `side`. The packing layer materialises the
//! mirror into each team member's packed panels — each panel depth as one
//! contiguous run of the stored column plus one strided run along the
//! mirrored row — and the micro-kernel is oblivious. The dense B operand takes the strided fast
//! path.
//!
//! Within the backend seam this module is the kernel level: the driver
//! below takes the operand views a validated
//! [`Blas3Op::Symm`](crate::call::Blas3Op) holds, and is what
//! [`NativeBackend`](crate::backend::NativeBackend) invokes for one.

use crate::call::{by_side, entry, symm_shape};
use crate::gemm::scaled_product;
use crate::matrix::{MatMut, MatRef};
use crate::pack::PackSrc;
use crate::{Float, Side, Transpose, Uplo};

/// SYMM on operand views with an explicit thread count.
///
/// `B` and `C` are `m x n`; `A` is `m x m` (Left) or `n x n` (Right),
/// symmetric, with only the `uplo` triangle referenced.
///
/// # Panics
/// If the operand shapes disagree, with the text of the typed error
/// [`Blas3Op::validate`](crate::call::Blas3Op::validate) returns.
pub fn symm<T: Float>(
    nt: usize,
    side: Side,
    uplo: Uplo,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    entry(symm_shape(side, a, b, c.as_ref()));
    let sym_src = PackSrc::symmetric(a, uplo);
    let b_src = PackSrc::matrix(b, Transpose::No);
    // C += alpha * A_sym * B on the Left, alpha * B * A_sym on the Right.
    let (lhs, rhs) = by_side(side, &sym_src, &b_src);
    scaled_product(nt, a.rows(), alpha, lhs, rhs, beta, c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::reference;
    use crate::{
        Side::{Left, Right},
        Uplo::{Lower, Upper},
    };

    fn test_mat(r: usize, c: usize, seed: u64) -> Matrix<f64> {
        Matrix::from_fn(r, c, |i, j| {
            let h = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((j as u64).wrapping_mul(0xD1B54A32D192ED03))
                .wrapping_add(seed);
            ((h >> 40) % 1000) as f64 / 50.0 - 10.0
        })
    }

    #[test]
    fn matches_reference_all_flags() {
        for &(m, n) in &[(1, 1), (5, 7), (33, 17), (64, 64), (10, 130)] {
            for &nt in &[1usize, 3] {
                for side in [Left, Right] {
                    for uplo in [Upper, Lower] {
                        let na = if side == Left { m } else { n };
                        let a = test_mat(na, na, 11);
                        let b = test_mat(m, n, 22);
                        let c0 = test_mat(m, n, 33);
                        let mut c = c0.clone();
                        symm(
                            nt,
                            side,
                            uplo,
                            1.7,
                            a.as_ref(),
                            b.as_ref(),
                            -0.3,
                            c.as_mut(),
                        );
                        let mut expect = c0.clone();
                        reference::symm(side, uplo, 1.7, &a, &b, -0.3, &mut expect);
                        let scale = expect.frob_norm().max(1.0);
                        assert!(
                            c.max_abs_diff(&expect) / scale < 1e-12,
                            "m={m} n={n} nt={nt} {side:?} {uplo:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nt_invariant_bitwise() {
        let (m, n) = (70, 45);
        let a = test_mat(m, m, 1);
        let b = test_mat(m, n, 2);
        let c0 = test_mat(m, n, 3);
        let mut base = c0.clone();
        symm(
            1,
            Left,
            Upper,
            1.2,
            a.as_ref(),
            b.as_ref(),
            0.3,
            base.as_mut(),
        );
        for nt in [2usize, 5] {
            let mut c = c0.clone();
            symm(
                nt,
                Left,
                Upper,
                1.2,
                a.as_ref(),
                b.as_ref(),
                0.3,
                c.as_mut(),
            );
            assert_eq!(c.as_slice(), base.as_slice(), "nt={nt}");
        }
    }

    #[test]
    fn only_stored_triangle_is_read() {
        // Poison the unstored triangle with NaN; result must stay finite.
        let m = 8;
        let n = 6;
        let mut a = test_mat(m, m, 1);
        for j in 0..m {
            for i in j + 1..m {
                a.set(i, j, f64::NAN); // poison strictly-lower; store Upper
            }
        }
        let b = test_mat(m, n, 2);
        let mut c = Matrix::<f64>::zeros(m, n);
        symm(2, Left, Upper, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        assert!(c.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn f32_matches_reference() {
        let a = test_mat(12, 12, 5);
        let af = Matrix::<f32>::from_fn(12, 12, |i, j| a.get(i, j) as f32);
        let b = test_mat(12, 9, 6);
        let bf = Matrix::<f32>::from_fn(12, 9, |i, j| b.get(i, j) as f32);
        let mut c = Matrix::<f32>::zeros(12, 9);
        symm(
            2,
            Left,
            Lower,
            1.0,
            af.as_ref(),
            bf.as_ref(),
            0.0,
            c.as_mut(),
        );
        let mut expect = Matrix::<f32>::zeros(12, 9);
        reference::symm(Left, Lower, 1.0, &af, &bf, 0.0, &mut expect);
        assert!(c.max_abs_diff(&expect) < 1e-2);
    }
}

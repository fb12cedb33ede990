//! Owned, `'static` BLAS Level 3 call descriptions.
//!
//! [`crate::call::Blas3Op`] borrows its operands, which is the right shape
//! for a synchronous entry point but cannot cross a queue: a service layer
//! that accepts work from many clients and executes it later on another
//! thread needs the operands to move *with* the job. [`OwnedOp`] is that
//! mirror — one variant per subroutine family, identical flags and scalars,
//! but [`Matrix`]-owned operands. [`OwnedOp::as_op`] reborrows it as a
//! [`Blas3Op`] for execution, and [`OwnedOp::output`]/[`OwnedOp::into_output`]
//! hand the result back to the submitting client afterwards.

use crate::call::{op_shape, Blas3Error, Blas3Op};
use crate::matrix::Matrix;
use crate::op::{Diag, Dims, OpKind, Routine, Side, Transpose, Uplo};
use crate::Float;

/// A fully-described BLAS Level 3 call with owned operands.
///
/// Field meanings match [`Blas3Op`] variant-for-variant; see its docs for
/// the semantics of each flag and scalar.
#[derive(Debug, Clone)]
pub enum OwnedOp<T: Float> {
    /// `C = alpha * op(A) * op(B) + beta * C`.
    Gemm {
        /// Transpose flag for A.
        transa: Transpose,
        /// Transpose flag for B.
        transb: Transpose,
        /// Scale on the product.
        alpha: T,
        /// Left operand.
        a: Matrix<T>,
        /// Right operand.
        b: Matrix<T>,
        /// Scale on the existing C.
        beta: T,
        /// Output operand.
        c: Matrix<T>,
    },
    /// Symmetric matrix-matrix multiply (see [`Blas3Op::Symm`]).
    Symm {
        /// Side the symmetric operand multiplies from.
        side: Side,
        /// Stored triangle of A.
        uplo: Uplo,
        /// Scale on the product.
        alpha: T,
        /// Symmetric operand.
        a: Matrix<T>,
        /// Dense operand.
        b: Matrix<T>,
        /// Scale on the existing C.
        beta: T,
        /// Output operand.
        c: Matrix<T>,
    },
    /// Symmetric rank-k update (see [`Blas3Op::Syrk`]).
    Syrk {
        /// Updated triangle of C.
        uplo: Uplo,
        /// Which product orientation is used.
        trans: Transpose,
        /// Scale on the product.
        alpha: T,
        /// Rank-k factor.
        a: Matrix<T>,
        /// Scale on the existing C.
        beta: T,
        /// Output operand (square).
        c: Matrix<T>,
    },
    /// Symmetric rank-2k update (see [`Blas3Op::Syr2k`]).
    Syr2k {
        /// Updated triangle of C.
        uplo: Uplo,
        /// Which product orientation is used.
        trans: Transpose,
        /// Scale on the product.
        alpha: T,
        /// First rank-k factor.
        a: Matrix<T>,
        /// Second rank-k factor.
        b: Matrix<T>,
        /// Scale on the existing C.
        beta: T,
        /// Output operand (square).
        c: Matrix<T>,
    },
    /// Triangular matrix multiply, in place on B (see [`Blas3Op::Trmm`]).
    Trmm {
        /// Side the triangular operand multiplies from.
        side: Side,
        /// Stored triangle of A.
        uplo: Uplo,
        /// Transpose flag for A.
        trans: Transpose,
        /// Unit-diagonal flag for A.
        diag: Diag,
        /// Scale on the product.
        alpha: T,
        /// Triangular operand.
        a: Matrix<T>,
        /// In-place dense operand.
        b: Matrix<T>,
    },
    /// Triangular solve, in place on B (see [`Blas3Op::Trsm`]).
    Trsm {
        /// Side the triangular operand multiplies from.
        side: Side,
        /// Stored triangle of A.
        uplo: Uplo,
        /// Transpose flag for A.
        trans: Transpose,
        /// Unit-diagonal flag for A.
        diag: Diag,
        /// Scale on B before the solve.
        alpha: T,
        /// Triangular operand.
        a: Matrix<T>,
        /// In-place right-hand sides.
        b: Matrix<T>,
    },
}

impl<T: Float> OwnedOp<T> {
    /// The subroutine family this call belongs to.
    pub fn op_kind(&self) -> OpKind {
        match self {
            OwnedOp::Gemm { .. } => OpKind::Gemm,
            OwnedOp::Symm { .. } => OpKind::Symm,
            OwnedOp::Syrk { .. } => OpKind::Syrk,
            OwnedOp::Syr2k { .. } => OpKind::Syr2k,
            OwnedOp::Trmm { .. } => OpKind::Trmm,
            OwnedOp::Trsm { .. } => OpKind::Trsm,
        }
    }

    /// The fully-qualified routine (family + precision of `T`).
    pub fn routine(&self) -> Routine {
        Routine::new(self.op_kind(), T::PRECISION)
    }

    /// Canonical dimension tuple, identical to [`Blas3Op::dims`].
    pub fn dims(&self) -> Dims {
        match self {
            OwnedOp::Gemm { transa, a, c, .. } => {
                let (_, k) = op_shape(*transa, a.rows(), a.cols());
                Dims::d3(c.rows(), k, c.cols())
            }
            OwnedOp::Symm { c, .. } => Dims::d2(c.rows(), c.cols()),
            OwnedOp::Syrk { trans, a, c, .. } | OwnedOp::Syr2k { trans, a, c, .. } => {
                let (_, k) = op_shape(*trans, a.rows(), a.cols());
                Dims::d2(c.rows(), k)
            }
            OwnedOp::Trmm { b, .. } | OwnedOp::Trsm { b, .. } => Dims::d2(b.rows(), b.cols()),
        }
    }

    /// Floating-point operation count of this call.
    pub fn flops(&self) -> f64 {
        self.op_kind().flops(self.dims())
    }

    /// Reborrow as a [`Blas3Op`] view for execution through a
    /// [`crate::backend::Blas3Backend`].
    pub fn as_op(&mut self) -> Blas3Op<'_, T> {
        match self {
            OwnedOp::Gemm {
                transa,
                transb,
                alpha,
                a,
                b,
                beta,
                c,
            } => Blas3Op::Gemm {
                transa: *transa,
                transb: *transb,
                alpha: *alpha,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: *beta,
                c: c.as_mut(),
            },
            OwnedOp::Symm {
                side,
                uplo,
                alpha,
                a,
                b,
                beta,
                c,
            } => Blas3Op::Symm {
                side: *side,
                uplo: *uplo,
                alpha: *alpha,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: *beta,
                c: c.as_mut(),
            },
            OwnedOp::Syrk {
                uplo,
                trans,
                alpha,
                a,
                beta,
                c,
            } => Blas3Op::Syrk {
                uplo: *uplo,
                trans: *trans,
                alpha: *alpha,
                a: a.as_ref(),
                beta: *beta,
                c: c.as_mut(),
            },
            OwnedOp::Syr2k {
                uplo,
                trans,
                alpha,
                a,
                b,
                beta,
                c,
            } => Blas3Op::Syr2k {
                uplo: *uplo,
                trans: *trans,
                alpha: *alpha,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: *beta,
                c: c.as_mut(),
            },
            OwnedOp::Trmm {
                side,
                uplo,
                trans,
                diag,
                alpha,
                a,
                b,
            } => Blas3Op::Trmm {
                side: *side,
                uplo: *uplo,
                trans: *trans,
                diag: *diag,
                alpha: *alpha,
                a: a.as_ref(),
                b: b.as_mut(),
            },
            OwnedOp::Trsm {
                side,
                uplo,
                trans,
                diag,
                alpha,
                a,
                b,
            } => Blas3Op::Trsm {
                side: *side,
                uplo: *uplo,
                trans: *trans,
                diag: *diag,
                alpha: *alpha,
                a: a.as_ref(),
                b: b.as_mut(),
            },
        }
    }

    /// Check the cross-operand dimension rules (see [`Blas3Op::validate`]).
    pub fn validate(&mut self) -> Result<(), Blas3Error> {
        self.as_op().validate()
    }

    /// The operand that receives this call's result (C, or B for the
    /// in-place triangular routines).
    pub fn output(&self) -> &Matrix<T> {
        match self {
            OwnedOp::Gemm { c, .. }
            | OwnedOp::Symm { c, .. }
            | OwnedOp::Syrk { c, .. }
            | OwnedOp::Syr2k { c, .. } => c,
            OwnedOp::Trmm { b, .. } | OwnedOp::Trsm { b, .. } => b,
        }
    }

    /// Consume the call and return its output operand.
    pub fn into_output(self) -> Matrix<T> {
        match self {
            OwnedOp::Gemm { c, .. }
            | OwnedOp::Symm { c, .. }
            | OwnedOp::Syrk { c, .. }
            | OwnedOp::Syr2k { c, .. } => c,
            OwnedOp::Trmm { b, .. } | OwnedOp::Trsm { b, .. } => b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Blas3Backend, NativeBackend, ReferenceBackend};
    use crate::reference;

    fn gemm_op(m: usize) -> OwnedOp<f64> {
        OwnedOp::Gemm {
            transa: Transpose::No,
            transb: Transpose::Yes,
            alpha: 1.25,
            a: Matrix::from_fn(m, m, |i, j| ((i * 5 + j) % 7) as f64 - 3.0),
            b: Matrix::from_fn(m, m, |i, j| ((i + 3 * j) % 5) as f64 - 2.0),
            beta: 0.0,
            c: Matrix::zeros(m, m),
        }
    }

    #[test]
    fn owned_op_mirrors_the_borrowed_description() {
        let mut op = gemm_op(12);
        assert_eq!(op.op_kind(), OpKind::Gemm);
        assert_eq!(op.routine().name(), "dgemm");
        assert_eq!(op.dims(), Dims::d3(12, 12, 12));
        assert!(op.validate().is_ok());
        let flops = op.flops();
        let view = op.as_op();
        assert_eq!(view.dims(), Dims::d3(12, 12, 12));
        assert_eq!(view.flops(), flops);
    }

    #[test]
    fn executes_and_returns_the_output() {
        let mut op = gemm_op(16);
        let (a, b) = match &op {
            OwnedOp::Gemm { a, b, .. } => (a.clone(), b.clone()),
            _ => unreachable!(),
        };
        NativeBackend.execute(1, op.as_op()).unwrap();
        let mut expect = Matrix::<f64>::zeros(16, 16);
        reference::gemm(
            Transpose::No,
            Transpose::Yes,
            1.25,
            &a,
            &b,
            0.0,
            &mut expect,
        );
        assert!(op.output().max_abs_diff(&expect) < 1e-12);
        assert!(op.into_output().max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn in_place_routines_report_b_as_output() {
        let n = 8;
        let b0 = Matrix::<f64>::filled(n, n, 1.0);
        let mut op = OwnedOp::Trsm {
            side: Side::Left,
            uplo: Uplo::Upper,
            trans: Transpose::No,
            diag: Diag::NonUnit,
            alpha: 1.0,
            a: Matrix::from_fn(n, n, |i, j| if i == j { 4.0 } else { 0.5 }),
            b: b0.clone(),
        };
        assert_eq!(op.dims(), Dims::d2(n, n));
        NativeBackend.execute(1, op.as_op()).unwrap();
        // The solve overwrites B, and the output accessor exposes it.
        assert!(op.output().max_abs_diff(&b0) > 1e-3);
    }

    #[test]
    fn owned_validation_reports_mismatches() {
        let mut op = OwnedOp::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha: 1.0,
            a: Matrix::<f64>::zeros(4, 5),
            b: Matrix::<f64>::zeros(6, 3),
            beta: 0.0,
            c: Matrix::<f64>::zeros(4, 3),
        };
        let err = op.validate().unwrap_err();
        assert!(matches!(err, Blas3Error::DimMismatch { got: (5, 6), .. }));
    }

    #[test]
    fn reference_and_native_agree_on_owned_ops() {
        let mut native = gemm_op(20);
        let mut refr = native.clone();
        NativeBackend.execute(2, native.as_op()).unwrap();
        ReferenceBackend.execute(1, refr.as_op()).unwrap();
        assert!(native.output().max_abs_diff(refr.output()) < 1e-12);
    }
}

//! Owned, `'static` BLAS Level 2 call descriptions.
//!
//! [`Blas3Op`] borrows its operands, which is the right shape for a
//! synchronous entry point but cannot cross a queue. [`OwnedOp2`] is the
//! Level 2 counterpart of [`crate::owned::OwnedOp`]: one variant per
//! matrix-vector family, identical flags and scalars, but [`Matrix`]- and
//! `Vec`-owned operands (owned vectors are always contiguous, `inc = 1`).
//! [`OwnedOp2::as_op`] reborrows it as a [`Blas3Op`] for execution.
//!
//! The Level 2 output operand is a vector for every family except GER
//! (whose rank-1 update lands in the matrix), so there are two output
//! accessors, [`OwnedOp2::out_vector`] and [`OwnedOp2::out_matrix`].

use crate::call::{Blas3Error, Blas3Op};
use crate::matrix::Matrix;
use crate::op::{Diag, Dims, OpKind, Routine, Transpose, Uplo};
use crate::vector::{VecMut, VecRef};
use crate::Float;

/// A fully-described BLAS Level 2 call with owned operands.
///
/// Field meanings match the Level 2 variants of [`Blas3Op`]
/// variant-for-variant; see their docs for the semantics of each flag and
/// scalar.
#[derive(Debug, Clone)]
pub enum OwnedOp2<T: Float> {
    /// `y = alpha * op(A) * x + beta * y`.
    Gemv {
        /// Transpose flag for A.
        trans: Transpose,
        /// Scale on the product.
        alpha: T,
        /// Matrix operand (stored orientation; `trans` applies on top).
        a: Matrix<T>,
        /// Input vector (length = columns of `op(A)`).
        x: Vec<T>,
        /// Scale on the existing y.
        beta: T,
        /// Output vector (length = rows of `op(A)`).
        y: Vec<T>,
    },
    /// Rank-1 update `A = alpha * x * y' + A`, in place on A.
    Ger {
        /// Scale on the outer product.
        alpha: T,
        /// Column vector (length = rows of A).
        x: Vec<T>,
        /// Row vector (length = columns of A).
        y: Vec<T>,
        /// In-place matrix operand.
        a: Matrix<T>,
    },
    /// `y = alpha * A * x + beta * y`, A symmetric, `uplo` triangle stored.
    Symv {
        /// Stored triangle of A.
        uplo: Uplo,
        /// Scale on the product.
        alpha: T,
        /// Symmetric operand.
        a: Matrix<T>,
        /// Input vector.
        x: Vec<T>,
        /// Scale on the existing y.
        beta: T,
        /// Output vector.
        y: Vec<T>,
    },
    /// `x = op(A) * x`, A triangular; x is updated in place.
    Trmv {
        /// Stored triangle of A.
        uplo: Uplo,
        /// Transpose flag for A.
        trans: Transpose,
        /// Unit-diagonal flag for A.
        diag: Diag,
        /// Triangular operand.
        a: Matrix<T>,
        /// In-place vector operand.
        x: Vec<T>,
    },
    /// Solve `op(A) * x = b` in place on x; A triangular.
    Trsv {
        /// Stored triangle of A.
        uplo: Uplo,
        /// Transpose flag for A.
        trans: Transpose,
        /// Unit-diagonal flag for A.
        diag: Diag,
        /// Triangular operand.
        a: Matrix<T>,
        /// In-place right-hand side / solution vector.
        x: Vec<T>,
    },
}

impl<T: Float> OwnedOp2<T> {
    /// The subroutine family this call belongs to.
    pub fn op_kind(&self) -> OpKind {
        match self {
            OwnedOp2::Gemv { .. } => OpKind::Gemv,
            OwnedOp2::Ger { .. } => OpKind::Ger,
            OwnedOp2::Symv { .. } => OpKind::Symv,
            OwnedOp2::Trmv { .. } => OpKind::Trmv,
            OwnedOp2::Trsv { .. } => OpKind::Trsv,
        }
    }

    /// The fully-qualified routine (family + precision of `T`).
    pub fn routine(&self) -> Routine {
        Routine::new(self.op_kind(), T::PRECISION)
    }

    /// Canonical dimension tuple, identical to [`Blas3Op::dims`].
    pub fn dims(&self) -> Dims {
        match self {
            OwnedOp2::Gemv { a, .. } | OwnedOp2::Ger { a, .. } => Dims::d2(a.rows(), a.cols()),
            OwnedOp2::Symv { a, .. } | OwnedOp2::Trmv { a, .. } | OwnedOp2::Trsv { a, .. } => {
                Dims::d1(a.rows())
            }
        }
    }

    /// Reborrow as a [`Blas3Op`] view for execution through a
    /// [`crate::backend::Blas3Backend`].
    pub fn as_op(&mut self) -> Blas3Op<'_, T> {
        match self {
            OwnedOp2::Gemv {
                trans,
                alpha,
                a,
                x,
                beta,
                y,
            } => Blas3Op::Gemv {
                trans: *trans,
                alpha: *alpha,
                a: a.as_ref(),
                x: VecRef::new(x.len(), 1, x),
                beta: *beta,
                y: VecMut::new(y.len(), 1, y),
            },
            OwnedOp2::Ger { alpha, x, y, a } => Blas3Op::Ger {
                alpha: *alpha,
                x: VecRef::new(x.len(), 1, x),
                y: VecRef::new(y.len(), 1, y),
                a: a.as_mut(),
            },
            OwnedOp2::Symv {
                uplo,
                alpha,
                a,
                x,
                beta,
                y,
            } => Blas3Op::Symv {
                uplo: *uplo,
                alpha: *alpha,
                a: a.as_ref(),
                x: VecRef::new(x.len(), 1, x),
                beta: *beta,
                y: VecMut::new(y.len(), 1, y),
            },
            OwnedOp2::Trmv {
                uplo,
                trans,
                diag,
                a,
                x,
            } => Blas3Op::Trmv {
                uplo: *uplo,
                trans: *trans,
                diag: *diag,
                a: a.as_ref(),
                x: VecMut::new(x.len(), 1, x),
            },
            OwnedOp2::Trsv {
                uplo,
                trans,
                diag,
                a,
                x,
            } => Blas3Op::Trsv {
                uplo: *uplo,
                trans: *trans,
                diag: *diag,
                a: a.as_ref(),
                x: VecMut::new(x.len(), 1, x),
            },
        }
    }

    /// Check the cross-operand dimension rules (see [`Blas3Op::validate`]).
    pub fn validate(&mut self) -> Result<(), Blas3Error> {
        self.as_op().validate()
    }

    /// The output vector, when this family's result is a vector
    /// (everything but GER).
    pub fn out_vector(&self) -> Option<&[T]> {
        match self {
            OwnedOp2::Gemv { y, .. } | OwnedOp2::Symv { y, .. } => Some(y),
            OwnedOp2::Trmv { x, .. } | OwnedOp2::Trsv { x, .. } => Some(x),
            OwnedOp2::Ger { .. } => None,
        }
    }

    /// The output matrix, when this family's result is a matrix (GER only).
    pub fn out_matrix(&self) -> Option<&Matrix<T>> {
        match self {
            OwnedOp2::Ger { a, .. } => Some(a),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Blas3Backend, NativeBackend, ReferenceBackend};

    fn gemv_op(m: usize, n: usize) -> OwnedOp2<f64> {
        OwnedOp2::Gemv {
            trans: Transpose::No,
            alpha: 1.5,
            a: Matrix::from_fn(m, n, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0),
            x: (0..n).map(|i| (i % 5) as f64 - 2.0).collect(),
            beta: 0.5,
            y: (0..m).map(|i| (i % 3) as f64).collect(),
        }
    }

    #[test]
    fn owned_op2_mirrors_the_borrowed_description() {
        let mut op = gemv_op(9, 14);
        assert_eq!(op.op_kind(), OpKind::Gemv);
        assert_eq!(op.routine().name(), "dgemv");
        assert_eq!(op.dims(), Dims::d2(9, 14));
        assert!(op.validate().is_ok());
        let view = op.as_op();
        assert_eq!(view.routine().name(), "dgemv");
        assert_eq!(view.dims(), Dims::d2(9, 14));
    }

    #[test]
    fn native_and_reference_agree_through_the_owned_layer() {
        let mut native = gemv_op(17, 23);
        let mut refr = native.clone();
        NativeBackend.execute(4, native.as_op()).unwrap();
        ReferenceBackend.execute(1, refr.as_op()).unwrap();
        let (a, b) = (native.out_vector().unwrap(), refr.out_vector().unwrap());
        for (u, v) in a.iter().zip(b) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn ger_reports_the_matrix_as_output() {
        let mut op = OwnedOp2::Ger {
            alpha: 2.0,
            x: vec![1.0f64, 2.0, 3.0],
            y: vec![1.0f64, -1.0],
            a: Matrix::zeros(3, 2),
        };
        assert_eq!(op.dims(), Dims::d2(3, 2));
        assert!(op.out_vector().is_none());
        NativeBackend.execute(1, op.as_op()).unwrap();
        let out = op.out_matrix().unwrap();
        assert_eq!((out.get(2, 0), out.get(2, 1)), (6.0, -6.0));
    }

    #[test]
    fn trsv_roundtrips_through_owned_ops() {
        let n = 12;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                3.0
            } else if i < j {
                0.25
            } else {
                0.0
            }
        });
        let x0: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut mul = OwnedOp2::Trmv {
            uplo: Uplo::Upper,
            trans: Transpose::No,
            diag: Diag::NonUnit,
            a: a.clone(),
            x: x0.clone(),
        };
        NativeBackend.execute(1, mul.as_op()).unwrap();
        let mut solve = OwnedOp2::Trsv {
            uplo: Uplo::Upper,
            trans: Transpose::No,
            diag: Diag::NonUnit,
            a,
            x: mul.out_vector().unwrap().to_vec(),
        };
        NativeBackend.execute(1, solve.as_op()).unwrap();
        for (u, v) in solve.out_vector().unwrap().iter().zip(&x0) {
            assert!((u - v).abs() < 1e-10, "trsv did not invert trmv");
        }
    }
}

//! The unified call-description layer for BLAS Level 2 calls.
//!
//! [`Blas2Op`] is [`crate::call::Blas3Op`] one dimension down: one variant
//! per matrix-vector family (GEMV, GER, SYMV, TRMV, TRSV), bundling flags,
//! scalars, typed [`MatRef`]/[`MatMut`] matrix views and typed
//! [`VecRef`]/[`VecMut`] vector views. Backends consume these through
//! [`crate::backend::Blas3Backend::execute2_f32`]/`execute2_f64`; the
//! ADSALA runtime produces them, predicts a thread count from
//! [`Blas2Op::dims`], and dispatches.
//!
//! The Level 2 family is the crate's memory-bound regime: every routine
//! performs O(n^2) flops over O(n^2) bytes, so arithmetic intensity stays
//! O(1) and the profitable thread count saturates at the memory-bandwidth
//! knee rather than the core count. Validation reuses the same typed
//! [`Blas3Error`] the Level 3 layer reports.

use crate::call::{agree, op_shape, square, Shape};
use crate::matrix::{MatMut, MatRef};
use crate::op::{Diag, Dims, OpKind, Routine, Transpose, Uplo};
use crate::vector::{VecMut, VecRef};
use crate::{Blas3Error, Float};

/// GEMV `(m, n)` from A's stored shape: x spans the columns of `op(A)`, y
/// its rows.
pub(crate) fn gemv_shape<T: Float>(
    trans: Transpose,
    a: MatRef<'_, T>,
    xlen: usize,
    ylen: usize,
) -> Shape {
    let (rows, cols) = op_shape(trans, a.rows(), a.cols());
    let ok = agree(OpKind::Gemv, "op(A) columns and x length", cols, xlen)
        .and_then(|()| agree(OpKind::Gemv, "op(A) rows and y length", rows, ylen));
    (Dims::d2(a.rows(), a.cols()), ok)
}

/// GER `(m, n)`: x spans A's rows, y its columns.
pub(crate) fn ger_shape<T: Float>(xlen: usize, ylen: usize, a: MatRef<'_, T>) -> Shape {
    let ok = agree(OpKind::Ger, "A rows and x length", a.rows(), xlen)
        .and_then(|()| agree(OpKind::Ger, "A columns and y length", a.cols(), ylen));
    (Dims::d2(a.rows(), a.cols()), ok)
}

/// SYMV / TRMV / TRSV `(n)`: A is square of order `n`, which every vector
/// of the call (x, and SYMV's y) must span.
pub(crate) fn square_shape<T: Float>(
    op: OpKind,
    a: MatRef<'_, T>,
    xlen: usize,
    ylen: Option<usize>,
) -> Shape {
    let ok = square(op, "A", a)
        .and_then(|()| agree(op, "A order and x length", a.rows(), xlen))
        .and_then(|()| match ylen {
            None => Ok(()),
            Some(ylen) => agree(op, "A order and y length", a.rows(), ylen),
        });
    (Dims::d1(a.rows()), ok)
}

/// A fully-described BLAS Level 2 call: flags, scalars, and operand views.
///
/// One variant per matrix-vector family. Dimensions derive from the views
/// via [`Blas2Op::dims`], and [`Blas2Op::validate`] checks the
/// cross-operand consistency rules.
#[derive(Debug)]
pub enum Blas2Op<'a, T: Float> {
    /// `y = alpha * op(A) * x + beta * y`.
    Gemv {
        /// Transpose flag for A.
        trans: Transpose,
        /// Scale on the product.
        alpha: T,
        /// Matrix operand (stored orientation; `trans` applies on top).
        a: MatRef<'a, T>,
        /// Input vector (length = columns of `op(A)`).
        x: VecRef<'a, T>,
        /// Scale on the existing y.
        beta: T,
        /// Output vector (length = rows of `op(A)`).
        y: VecMut<'a, T>,
    },
    /// Rank-1 update `A = alpha * x * y' + A`, in place on A.
    Ger {
        /// Scale on the outer product.
        alpha: T,
        /// Column vector (length = rows of A).
        x: VecRef<'a, T>,
        /// Row vector (length = columns of A).
        y: VecRef<'a, T>,
        /// In-place matrix operand.
        a: MatMut<'a, T>,
    },
    /// `y = alpha * A * x + beta * y`, A symmetric with only the `uplo`
    /// triangle stored.
    Symv {
        /// Stored triangle of A.
        uplo: Uplo,
        /// Scale on the product.
        alpha: T,
        /// Symmetric operand.
        a: MatRef<'a, T>,
        /// Input vector.
        x: VecRef<'a, T>,
        /// Scale on the existing y.
        beta: T,
        /// Output vector.
        y: VecMut<'a, T>,
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
        a: MatRef<'a, T>,
        /// In-place vector operand.
        x: VecMut<'a, T>,
    },
    /// Solve `op(A) * x = b` where b arrives in x and the solution
    /// overwrites it; A triangular.
    Trsv {
        /// Stored triangle of A.
        uplo: Uplo,
        /// Transpose flag for A.
        trans: Transpose,
        /// Unit-diagonal flag for A.
        diag: Diag,
        /// Triangular operand.
        a: MatRef<'a, T>,
        /// In-place right-hand side / solution vector.
        x: VecMut<'a, T>,
    },
}

impl<'a, T: Float> Blas2Op<'a, T> {
    /// The subroutine family this call belongs to.
    pub fn op_kind(&self) -> OpKind {
        match self {
            Blas2Op::Gemv { .. } => OpKind::Gemv,
            Blas2Op::Ger { .. } => OpKind::Ger,
            Blas2Op::Symv { .. } => OpKind::Symv,
            Blas2Op::Trmv { .. } => OpKind::Trmv,
            Blas2Op::Trsv { .. } => OpKind::Trsv,
        }
    }

    /// The fully-qualified routine (family + precision of `T`).
    pub fn routine(&self) -> Routine {
        Routine::new(self.op_kind(), T::PRECISION)
    }

    /// This call's operands under its routine's shape rule.
    fn shape(&self) -> Shape {
        match self {
            Blas2Op::Gemv { trans, a, x, y, .. } => gemv_shape(*trans, *a, x.len(), y.len()),
            Blas2Op::Ger { x, y, a, .. } => ger_shape(x.len(), y.len(), a.as_ref()),
            Blas2Op::Symv { a, x, y, .. } => square_shape(OpKind::Symv, *a, x.len(), Some(y.len())),
            Blas2Op::Trmv { a, x, .. } | Blas2Op::Trsv { a, x, .. } => {
                square_shape(self.op_kind(), *a, x.len(), None)
            }
        }
    }

    /// Canonical dimension tuple: GEMV/GER `(m, n)` from A's stored shape;
    /// SYMV/TRMV/TRSV `(n)`.
    pub fn dims(&self) -> Dims {
        self.shape().0
    }

    /// Floating-point operation count of this call.
    pub fn flops(&self) -> f64 {
        self.op_kind().flops(self.dims())
    }

    /// Bytes of operand memory this call touches (inputs + outputs,
    /// in-place operands counted once), at the precision of `T`.
    pub fn bytes_touched(&self) -> f64 {
        self.op_kind().footprint_bytes(self.dims(), T::PRECISION)
    }

    /// Check every cross-operand dimension rule of the BLAS specification
    /// for this call, returning the first violation as a typed error.
    pub fn validate(&self) -> Result<(), Blas3Error> {
        self.shape().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::call::tests::{
        assert_same_failure, malformed, operand_name, packed, view, view_mut, Operand,
    };
    use crate::matrix::Matrix;

    #[test]
    fn op_kind_dims_routine_and_costs() {
        let a = Matrix::<f64>::zeros(3, 5);
        let x = [0.0f64; 5];
        let mut y = [0.0f64; 3];
        let op = Blas2Op::Gemv {
            trans: Transpose::No,
            alpha: 1.0,
            a: a.as_ref(),
            x: VecRef::new(5, 1, &x),
            beta: 0.0,
            y: VecMut::new(3, 1, &mut y),
        };
        assert_eq!(op.op_kind(), OpKind::Gemv);
        assert_eq!(op.dims(), Dims::d2(3, 5));
        assert_eq!(op.routine().name(), "dgemv");
        assert_eq!(op.flops(), 30.0);
        assert_eq!(op.bytes_touched(), (15.0 + 8.0) * 8.0);
        assert!(op.validate().is_ok());
    }

    #[test]
    fn transposed_gemv_swaps_vector_roles() {
        let a = Matrix::<f32>::zeros(3, 5); // op(A) = A' is 5x3
        let x = [0.0f32; 3];
        let mut y = [0.0f32; 5];
        let op = Blas2Op::Gemv {
            trans: Transpose::Yes,
            alpha: 1.0,
            a: a.as_ref(),
            x: VecRef::new(3, 1, &x),
            beta: 0.0,
            y: VecMut::new(5, 1, &mut y),
        };
        assert_eq!(op.dims(), Dims::d2(3, 5), "dims follow A's stored shape");
        assert!(op.validate().is_ok());
    }

    #[test]
    fn ger_dims_and_validation() {
        let mut a = Matrix::<f64>::zeros(3, 5);
        let x = [0.0f64; 3];
        let y = [0.0f64; 5];
        let op = Blas2Op::Ger {
            alpha: 1.0,
            x: VecRef::new(3, 1, &x),
            y: VecRef::new(5, 1, &y),
            a: a.as_mut(),
        };
        assert_eq!(op.dims(), Dims::d2(3, 5));
        assert_eq!(op.flops(), 30.0);
        assert!(op.validate().is_ok());
    }

    /// One vector operand as a classic entry point describes it:
    /// `(name, len, inc, slice length)`.
    type Vector = (&'static str, usize, usize, usize);

    /// The two malformed descriptions a view constructor must reject by
    /// operand name: a zero increment and a short slice.
    fn malformed_vec((name, len, inc, needed): Vector) -> [(Vector, Blas3Error); 2] {
        let got = needed - 1;
        [
            (
                (name, len, 0, needed),
                Blas3Error::BadIncrement { name, inc: 0 },
            ),
            (
                (name, len, inc, got),
                Blas3Error::ShortVector {
                    name,
                    len,
                    inc,
                    needed,
                    got,
                },
            ),
        ]
    }

    /// The view, through the panicking (`classic`) or fallible constructor.
    fn vec_ref(
        (name, len, inc, slice): Vector,
        buf: &[f64],
        classic: bool,
    ) -> Result<VecRef<'_, f64>, Blas3Error> {
        if classic {
            Ok(VecRef::new_named(name, len, inc, &buf[..slice]))
        } else {
            VecRef::try_new_named(name, len, inc, &buf[..slice])
        }
    }

    /// [`vec_ref`] for an output operand.
    fn vec_mut(
        (name, len, inc, slice): Vector,
        buf: &mut [f64],
        classic: bool,
    ) -> Result<VecMut<'_, f64>, Blas3Error> {
        if classic {
            Ok(VecMut::new_named(name, len, inc, &mut buf[..slice]))
        } else {
            VecMut::try_new_named(name, len, inc, &mut buf[..slice])
        }
    }

    /// One Level 2 call: the family, its transpose flag, A's stored shape,
    /// and the vector lengths in entry-point order.
    type Call = (OpKind, Transpose, (usize, usize), &'static [usize]);

    /// Describe `call` over `a` and `vecs` and run it down one of the two
    /// paths of [`assert_same_failure`].
    fn run(
        (kind, trans, ..): Call,
        a: Operand,
        vecs: &[Vector],
        classic: bool,
    ) -> Result<(), Blas3Error> {
        use crate::level2::{gemv, ger, symv, trmv, trsv};
        let (mut abuf, mut xbuf, mut ybuf) = ([0.0f64; 64], [0.0f64; 16], [0.0f64; 16]);
        let (uplo, diag, alpha, beta) = (Uplo::Lower, Diag::Unit, 1.0, 0.0);
        let (x, y) = (vecs[0], vecs[vecs.len() - 1]);
        #[rustfmt::skip]
        let op = match kind {
            OpKind::Gemv => Blas2Op::Gemv {
                trans, alpha, a: view(a, &abuf, classic)?, x: vec_ref(x, &xbuf, classic)?,
                beta, y: vec_mut(y, &mut ybuf, classic)?,
            },
            OpKind::Ger => Blas2Op::Ger {
                alpha, x: vec_ref(x, &xbuf, classic)?, y: vec_ref(y, &ybuf, classic)?,
                a: view_mut(a, &mut abuf, classic)?,
            },
            OpKind::Symv => Blas2Op::Symv {
                uplo, alpha, a: view(a, &abuf, classic)?, x: vec_ref(x, &xbuf, classic)?,
                beta, y: vec_mut(y, &mut ybuf, classic)?,
            },
            OpKind::Trmv => Blas2Op::Trmv {
                uplo, trans, diag, a: view(a, &abuf, classic)?, x: vec_mut(x, &mut xbuf, classic)?,
            },
            OpKind::Trsv => Blas2Op::Trsv {
                uplo, trans, diag, a: view(a, &abuf, classic)?, x: vec_mut(x, &mut xbuf, classic)?,
            },
            _ => unreachable!("Level 3 families have their own table in call.rs"),
        };
        if !classic {
            return op.validate();
        }
        match op {
            Blas2Op::Gemv {
                trans,
                alpha,
                a,
                x,
                beta,
                y,
            } => gemv(1, trans, alpha, a, x, beta, y),
            Blas2Op::Ger { alpha, x, y, a } => ger(1, alpha, x, y, a),
            Blas2Op::Symv {
                uplo,
                alpha,
                a,
                x,
                beta,
                y,
            } => symv(1, uplo, alpha, a, x, beta, y),
            Blas2Op::Trmv {
                uplo,
                trans,
                diag,
                a,
                x,
            } => trmv(uplo, trans, diag, a, x),
            Blas2Op::Trsv {
                uplo,
                trans,
                diag,
                a,
                x,
            } => trsv(uplo, trans, diag, a, x),
        }
        Ok(())
    }

    #[test]
    fn every_malformed_call_fails_the_same_way_typed_and_through_the_driver() {
        use OpKind::{Gemv, Ger, Symv, Trmv, Trsv};
        use Transpose::{No as N, Yes as T};
        let mismatch = |op, expected, x, y| {
            Some(Blas3Error::DimMismatch {
                op,
                expected,
                got: (x, y),
            })
        };
        let not_square = |op, rows, cols| {
            Some(Blas3Error::NotSquare {
                op,
                name: "A",
                rows,
                cols,
            })
        };
        // Each call, and the first constraint its operands violate.
        #[rustfmt::skip]
        let table: &[(Call, Option<Blas3Error>)] = &[
            // GEMV: x spans the columns of op(A), y its rows.
            ((Gemv, N, (3, 5), &[5, 3]), None),
            ((Gemv, T, (3, 5), &[3, 5]), None),
            ((Gemv, N, (3, 5), &[4, 3]), mismatch(Gemv, "op(A) columns and x length", 5, 4)),
            ((Gemv, N, (3, 6), &[5, 3]), mismatch(Gemv, "op(A) columns and x length", 6, 5)),
            ((Gemv, T, (3, 5), &[5, 3]), mismatch(Gemv, "op(A) columns and x length", 3, 5)),
            ((Gemv, N, (3, 5), &[5, 4]), mismatch(Gemv, "op(A) rows and y length", 3, 4)),
            ((Gemv, N, (4, 5), &[5, 3]), mismatch(Gemv, "op(A) rows and y length", 4, 3)),
            // GER: x spans A's rows, y its columns.
            ((Ger, N, (3, 5), &[3, 5]), None),
            ((Ger, N, (3, 5), &[4, 5]), mismatch(Ger, "A rows and x length", 3, 4)),
            ((Ger, N, (4, 5), &[3, 5]), mismatch(Ger, "A rows and x length", 4, 3)),
            ((Ger, N, (3, 5), &[3, 4]), mismatch(Ger, "A columns and y length", 5, 4)),
            ((Ger, N, (3, 6), &[3, 5]), mismatch(Ger, "A columns and y length", 6, 5)),
            // SYMV / TRMV / TRSV: A square, every vector of its order.
            ((Symv, N, (4, 4), &[4, 4]), None),
            ((Symv, N, (4, 3), &[4, 4]), not_square(Symv, 4, 3)),
            ((Symv, N, (3, 4), &[4, 4]), not_square(Symv, 3, 4)),
            ((Symv, N, (4, 4), &[5, 4]), mismatch(Symv, "A order and x length", 4, 5)),
            ((Symv, N, (4, 4), &[4, 3]), mismatch(Symv, "A order and y length", 4, 3)),
            ((Trmv, N, (4, 4), &[4]), None),
            ((Trmv, T, (4, 3), &[4]), not_square(Trmv, 4, 3)),
            ((Trmv, N, (3, 4), &[4]), not_square(Trmv, 3, 4)),
            ((Trmv, N, (4, 4), &[5]), mismatch(Trmv, "A order and x length", 4, 5)),
            ((Trsv, T, (4, 4), &[4]), None),
            ((Trsv, N, (4, 3), &[4]), not_square(Trsv, 4, 3)),
            ((Trsv, T, (3, 4), &[4]), not_square(Trsv, 3, 4)),
            ((Trsv, N, (4, 4), &[3]), mismatch(Trsv, "A order and x length", 4, 3)),
        ];
        for (call, expect) in table {
            let (kind, _, shape, lens) = *call;
            let a = packed(operand_name(kind, 'A'), shape);
            // Stride-2 vectors over slices that just cover them.
            let vecs: Vec<Vector> = ['x', 'y']
                .iter()
                .zip(lens)
                .map(|(&v, &len)| (operand_name(kind, v), len, 2, 2 * len - 1))
                .collect();
            let label = format!("{call:?}");
            assert_same_failure(&label, expect.as_ref(), |classic| {
                run(*call, a, &vecs, classic)
            });
            if expect.is_some() {
                continue;
            }
            // A well-formed call, with each operand in turn malformed.
            for (bad, error) in malformed(a) {
                let label = format!("{label}, malformed A");
                assert_same_failure(&label, Some(&error), |classic| {
                    run(*call, bad, &vecs, classic)
                });
            }
            for i in 0..vecs.len() {
                for (bad, error) in malformed_vec(vecs[i]) {
                    let mut vecs = vecs.clone();
                    vecs[i] = bad;
                    let label = format!("{label}, malformed {}", bad.0);
                    assert_same_failure(&label, Some(&error), |classic| {
                        run(*call, a, &vecs, classic)
                    });
                }
            }
        }
    }
}

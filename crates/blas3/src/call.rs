//! The unified call-description layer: one value per BLAS call.
//!
//! A [`Blas3Op`] bundles everything a call needs — operand flags, scalars,
//! typed matrix views and, for the Level 2 families, typed strided vector
//! views ([`VecRef`]/[`VecMut`]) — into a single enum with one variant per
//! subroutine family: the six of Level 3 and the five of Level 2. Backends
//! ([`crate::backend::Blas3Backend`]) consume these descriptions; the
//! ADSALA runtime produces them, predicts a thread count from
//! [`Blas3Op::dims`], and dispatches.
//!
//! [`Blas3Op::validate`] turns the cross-operand dimension rules of the BLAS
//! specification into typed [`Blas3Error`]s instead of scattered panics, so
//! library users can reject malformed calls gracefully.

use crate::matrix::{MatMut, MatRef};
use crate::op::{Diag, Dims, OpKind, Routine, Side, Transpose, Uplo};
use crate::vector::{VecMut, VecRef};
use crate::Float;
use std::fmt;

/// Typed error for malformed BLAS calls and views.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Blas3Error {
    /// A leading dimension is smaller than the view's row count.
    BadLeadingDim {
        /// Operand name (`"view"` for standalone views, `"gemm A"`-style
        /// inside a validated call).
        name: &'static str,
        /// The offending leading dimension.
        ld: usize,
        /// The view's row count.
        rows: usize,
    },
    /// A slice is too short for the view shape it was paired with.
    ShortSlice {
        /// Operand name.
        name: &'static str,
        /// View rows.
        rows: usize,
        /// View columns.
        cols: usize,
        /// Leading dimension.
        ld: usize,
        /// Minimum length the shape requires.
        needed: usize,
        /// Actual slice length.
        got: usize,
    },
    /// A sub-view does not fit inside its parent view.
    SubviewOutOfBounds {
        /// Anchor row.
        i: usize,
        /// Anchor column.
        j: usize,
        /// Requested rows.
        rows: usize,
        /// Requested columns.
        cols: usize,
        /// Parent view rows.
        parent_rows: usize,
        /// Parent view columns.
        parent_cols: usize,
    },
    /// Two operands of one call disagree on a shared dimension.
    DimMismatch {
        /// Subroutine family the call belongs to.
        op: OpKind,
        /// Which constraint was violated, e.g. `"op(A) columns"` vs
        /// `"op(B) rows"`.
        expected: &'static str,
        /// The two disagreeing extents.
        got: (usize, usize),
    },
    /// A symmetric/triangular operand is not square.
    NotSquare {
        /// Subroutine family the call belongs to.
        op: OpKind,
        /// Operand name.
        name: &'static str,
        /// Actual rows.
        rows: usize,
        /// Actual columns.
        cols: usize,
    },
    /// A vector increment (stride) is zero; the reference BLAS allows
    /// negative increments, this implementation requires `inc >= 1`.
    BadIncrement {
        /// Operand name.
        name: &'static str,
        /// The offending increment.
        inc: usize,
    },
    /// A slice is too short for the vector shape it was paired with.
    ShortVector {
        /// Operand name.
        name: &'static str,
        /// Logical element count.
        len: usize,
        /// Increment (stride) between elements.
        inc: usize,
        /// Minimum slice length the shape requires.
        needed: usize,
        /// Actual slice length.
        got: usize,
    },
    /// The backend failed executing an otherwise well-formed call.
    ///
    /// Raised by fallible backends (notably [`crate::fault::FaultBackend`])
    /// rather than by call validation. `transient` distinguishes faults a
    /// caller may safely retry — ops are pure, so re-execution is idempotent
    /// — from fatal ones that will keep failing.
    BackendFault {
        /// Backend name.
        backend: &'static str,
        /// Whether a retry of the identical call may succeed.
        transient: bool,
    },
}

impl Blas3Error {
    /// `true` when the error is a transient backend fault that a caller may
    /// retry. Every other variant — validation errors, fatal faults — is
    /// deterministic and will fail again identically.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Blas3Error::BackendFault {
                transient: true,
                ..
            }
        )
    }
}

impl fmt::Display for Blas3Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Blas3Error::BadLeadingDim { name, ld, rows } => {
                write!(f, "{name}: leading dimension {ld} < rows {rows}")
            }
            Blas3Error::ShortSlice {
                name,
                rows,
                cols,
                ld,
                needed,
                got,
            } => write!(
                f,
                "{name}: slice too short for {rows}x{cols} ld {ld}: length {got} < required {needed}"
            ),
            Blas3Error::SubviewOutOfBounds {
                i,
                j,
                rows,
                cols,
                parent_rows,
                parent_cols,
            } => write!(
                f,
                "sub-view {rows}x{cols} at ({i}, {j}) exceeds parent {parent_rows}x{parent_cols}"
            ),
            Blas3Error::DimMismatch { op, expected, got } => write!(
                f,
                "{}: {expected} disagree: {} vs {}",
                op.name(),
                got.0,
                got.1
            ),
            Blas3Error::NotSquare {
                op,
                name,
                rows,
                cols,
            } => write!(f, "{}: {name} must be square, got {rows}x{cols}", op.name()),
            Blas3Error::BadIncrement { name, inc } => {
                write!(f, "{name}: vector increment must be >= 1, got {inc}")
            }
            Blas3Error::ShortVector {
                name,
                len,
                inc,
                needed,
                got,
            } => write!(
                f,
                "{name}: slice too short for {len}-vector inc {inc}: length {got} < required {needed}"
            ),
            Blas3Error::BackendFault { backend, transient } => {
                let kind = if *transient { "transient" } else { "fatal" };
                write!(f, "backend {backend}: {kind} fault")
            }
        }
    }
}

impl std::error::Error for Blas3Error {}

/// Shape of `op(M)` for a stored `rows x cols` operand under a transpose
/// flag — and, the swap being its own inverse, the stored shape of an
/// operand whose `op(M)` is `rows x cols`.
///
/// The one place the rule is written: [`Blas3Op::validate`],
/// [`Blas3Op::dims`], the drivers' entry checks and the classic slice shims
/// of the ADSALA runtime all call it.
pub fn op_shape(trans: Transpose, rows: usize, cols: usize) -> (usize, usize) {
    match trans {
        Transpose::No => (rows, cols),
        Transpose::Yes => (cols, rows),
    }
}

/// Order of the square operand (SYMM's symmetric, TRMM/TRSM's triangular A)
/// that multiplies an `m x n` operand from `side`.
pub fn side_order(side: Side, m: usize, n: usize) -> usize {
    by_side(side, m, n).0
}

/// A `(rows, columns)` pair of the `m x n` operand re-read as `(t, f)` —
/// `t` along the extent the square operand multiplies, `f` along the free
/// one — and, the swap being its own inverse, a `(t, f)` pair put back in
/// `(rows, columns)` order. The one place the TRMM/TRSM sweeps, written in
/// `(t, f)`, learn which side they are on.
pub(crate) fn by_side<X>(side: Side, x: X, y: X) -> (X, X) {
    match side {
        Side::Left => (x, y),
        Side::Right => (y, x),
    }
}

/// A routine's shape rule applied to one set of operands: the canonical
/// dimension tuple, and the first cross-operand constraint the operands
/// violate. On a violation the extents still come from the output operand
/// (and `k` from A), which is what [`Blas3Op::dims`] documents.
pub(crate) type Shape = (Dims, Result<(), Blas3Error>);

/// The single entry check of a public driver: a malformed call panics with
/// the text of the typed error [`Blas3Op::validate`] would have returned.
pub(crate) fn entry(shape: Shape) -> Dims {
    match shape {
        (dims, Ok(())) => dims,
        (_, Err(e)) => panic!("{e}"),
    }
}

/// `Ok` when two extents that must be equal are.
pub(crate) fn agree(
    op: OpKind,
    expected: &'static str,
    x: usize,
    y: usize,
) -> Result<(), Blas3Error> {
    if x == y {
        Ok(())
    } else {
        Err(Blas3Error::DimMismatch {
            op,
            expected,
            got: (x, y),
        })
    }
}

/// `Ok` when an operand that must be square is.
pub(crate) fn square<T: Float>(
    op: OpKind,
    name: &'static str,
    m: MatRef<'_, T>,
) -> Result<(), Blas3Error> {
    if m.rows() == m.cols() {
        Ok(())
    } else {
        Err(Blas3Error::NotSquare {
            op,
            name,
            rows: m.rows(),
            cols: m.cols(),
        })
    }
}

/// GEMM `(m, k, n)`: C is `m x n`, `op(A)` is `m x k`, `op(B)` is `k x n`.
pub(crate) fn gemm_shape<T: Float>(
    transa: Transpose,
    transb: Transpose,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatRef<'_, T>,
) -> Shape {
    let (am, ak) = op_shape(transa, a.rows(), a.cols());
    let (bk, bn) = op_shape(transb, b.rows(), b.cols());
    let ok = agree(OpKind::Gemm, "op(A) rows and C rows", am, c.rows())
        .and_then(|()| agree(OpKind::Gemm, "op(B) columns and C columns", bn, c.cols()))
        .and_then(|()| agree(OpKind::Gemm, "op(A) columns and op(B) rows", ak, bk));
    (Dims::d3(c.rows(), ak, c.cols()), ok)
}

/// SYMM `(m, n)`: B and C are `m x n`, A is square of the order of the
/// extent it multiplies (`m` on the Left, `n` on the Right).
pub(crate) fn symm_shape<T: Float>(
    side: Side,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatRef<'_, T>,
) -> Shape {
    let order = side_order(side, c.rows(), c.cols());
    let ok = square(OpKind::Symm, "A", a)
        .and_then(|()| {
            agree(
                OpKind::Symm,
                "A order and the multiplied C extent",
                a.rows(),
                order,
            )
        })
        .and_then(|()| agree(OpKind::Symm, "B rows and C rows", b.rows(), c.rows()))
        .and_then(|()| agree(OpKind::Symm, "B columns and C columns", b.cols(), c.cols()));
    (Dims::d2(c.rows(), c.cols()), ok)
}

/// SYRK / SYR2K `(n, k)`: C is square of order `n`, `op(A)` — and for SYR2K
/// `op(B)` — is `n x k`.
pub(crate) fn syrk_shape<T: Float>(
    op: OpKind,
    trans: Transpose,
    a: MatRef<'_, T>,
    b: Option<MatRef<'_, T>>,
    c: MatRef<'_, T>,
) -> Shape {
    let (an, ak) = op_shape(trans, a.rows(), a.cols());
    let ok = square(op, "C", c)
        .and_then(|()| agree(op, "op(A) rows and C order", an, c.rows()))
        .and_then(|()| match b {
            None => Ok(()),
            Some(b) => {
                let (bn, bk) = op_shape(trans, b.rows(), b.cols());
                agree(op, "op(B) rows and C order", bn, c.rows())
                    .and_then(|()| agree(op, "op(A) and op(B) inner extents", ak, bk))
            }
        });
    (Dims::d2(c.rows(), ak), ok)
}

/// TRMM / TRSM `(m, n)`: B is `m x n`, A is square of the order of the
/// extent it multiplies.
pub(crate) fn tri_shape<T: Float>(
    op: OpKind,
    side: Side,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
) -> Shape {
    let order = side_order(side, b.rows(), b.cols());
    let ok = square(op, "A", a)
        .and_then(|()| agree(op, "A order and the multiplied B extent", a.rows(), order));
    (Dims::d2(b.rows(), b.cols()), ok)
}

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

/// A fully-described BLAS call: flags, scalars, and operand views.
///
/// One variant per subroutine family: the six Level 3 families of paper
/// Table I, then the five Level 2 matrix-vector families. Dimensions are
/// not stored redundantly — they derive from the views via
/// [`Blas3Op::dims`], and [`Blas3Op::validate`] checks the cross-operand
/// consistency rules.
#[derive(Debug)]
pub enum Blas3Op<'a, T: Float> {
    /// `C = alpha * op(A) * op(B) + beta * C`.
    Gemm {
        /// Transpose flag for A.
        transa: Transpose,
        /// Transpose flag for B.
        transb: Transpose,
        /// Scale on the product.
        alpha: T,
        /// Left operand (stored orientation; `transa` applies on top).
        a: MatRef<'a, T>,
        /// Right operand.
        b: MatRef<'a, T>,
        /// Scale on the existing C.
        beta: T,
        /// Output operand.
        c: MatMut<'a, T>,
    },
    /// `C = alpha*A*B + beta*C` (Left) or `C = alpha*B*A + beta*C` (Right),
    /// A symmetric with only the `uplo` triangle stored.
    Symm {
        /// Side the symmetric operand multiplies from.
        side: Side,
        /// Stored triangle of A.
        uplo: Uplo,
        /// Scale on the product.
        alpha: T,
        /// Symmetric operand.
        a: MatRef<'a, T>,
        /// Dense operand.
        b: MatRef<'a, T>,
        /// Scale on the existing C.
        beta: T,
        /// Output operand.
        c: MatMut<'a, T>,
    },
    /// `C = alpha*A*A' + beta*C` (No) or `C = alpha*A'*A + beta*C` (Yes);
    /// only the `uplo` triangle of C is referenced and updated.
    Syrk {
        /// Updated triangle of C.
        uplo: Uplo,
        /// Which product orientation is used.
        trans: Transpose,
        /// Scale on the product.
        alpha: T,
        /// Rank-k factor.
        a: MatRef<'a, T>,
        /// Scale on the existing C.
        beta: T,
        /// Output operand (square).
        c: MatMut<'a, T>,
    },
    /// `C = alpha*(A*B' + B*A') + beta*C` (No) or transposed (Yes); `uplo`
    /// triangle of C only.
    Syr2k {
        /// Updated triangle of C.
        uplo: Uplo,
        /// Which product orientation is used.
        trans: Transpose,
        /// Scale on the product.
        alpha: T,
        /// First rank-k factor.
        a: MatRef<'a, T>,
        /// Second rank-k factor.
        b: MatRef<'a, T>,
        /// Scale on the existing C.
        beta: T,
        /// Output operand (square).
        c: MatMut<'a, T>,
    },
    /// `B = alpha*op(A)*B` (Left) or `B = alpha*B*op(A)` (Right), A
    /// triangular; B is updated in place.
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
        a: MatRef<'a, T>,
        /// In-place dense operand.
        b: MatMut<'a, T>,
    },
    /// Solve `op(A) * X = alpha * B` (Left) or `X * op(A) = alpha * B`
    /// (Right); X overwrites B.
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
        a: MatRef<'a, T>,
        /// In-place right-hand sides.
        b: MatMut<'a, T>,
    },
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

impl<'a, T: Float> Blas3Op<'a, T> {
    /// The subroutine family this call belongs to.
    pub fn op_kind(&self) -> OpKind {
        match self {
            Blas3Op::Gemm { .. } => OpKind::Gemm,
            Blas3Op::Symm { .. } => OpKind::Symm,
            Blas3Op::Syrk { .. } => OpKind::Syrk,
            Blas3Op::Syr2k { .. } => OpKind::Syr2k,
            Blas3Op::Trmm { .. } => OpKind::Trmm,
            Blas3Op::Trsm { .. } => OpKind::Trsm,
            Blas3Op::Gemv { .. } => OpKind::Gemv,
            Blas3Op::Ger { .. } => OpKind::Ger,
            Blas3Op::Symv { .. } => OpKind::Symv,
            Blas3Op::Trmv { .. } => OpKind::Trmv,
            Blas3Op::Trsv { .. } => OpKind::Trsv,
        }
    }

    /// The fully-qualified routine (family + precision of `T`).
    pub fn routine(&self) -> Routine {
        Routine::new(self.op_kind(), T::PRECISION)
    }

    /// This call's operands under its routine's shape rule.
    fn shape(&self) -> Shape {
        match self {
            Blas3Op::Gemm {
                transa,
                transb,
                a,
                b,
                c,
                ..
            } => gemm_shape(*transa, *transb, *a, *b, c.as_ref()),
            Blas3Op::Symm { side, a, b, c, .. } => symm_shape(*side, *a, *b, c.as_ref()),
            Blas3Op::Syrk { trans, a, c, .. } => {
                syrk_shape(OpKind::Syrk, *trans, *a, None, c.as_ref())
            }
            Blas3Op::Syr2k { trans, a, b, c, .. } => {
                syrk_shape(OpKind::Syr2k, *trans, *a, Some(*b), c.as_ref())
            }
            Blas3Op::Trmm { side, a, b, .. } | Blas3Op::Trsm { side, a, b, .. } => {
                tri_shape(self.op_kind(), *side, *a, b.as_ref())
            }
            Blas3Op::Gemv { trans, a, x, y, .. } => gemv_shape(*trans, *a, x.len(), y.len()),
            Blas3Op::Ger { x, y, a, .. } => ger_shape(x.len(), y.len(), a.as_ref()),
            Blas3Op::Symv { a, x, y, .. } => square_shape(OpKind::Symv, *a, x.len(), Some(y.len())),
            Blas3Op::Trmv { a, x, .. } | Blas3Op::Trsv { a, x, .. } => {
                square_shape(self.op_kind(), *a, x.len(), None)
            }
        }
    }

    /// Canonical dimension tuple (paper Table I order), derived from the
    /// operand views: GEMM `(m, k, n)`; SYMM `(m, n)`; SYRK/SYR2K `(n, k)`;
    /// TRMM/TRSM `(m, n)`; GEMV/GER `(m, n)` from A's stored shape;
    /// SYMV/TRMV/TRSV `(n)`.
    ///
    /// Meaningful only up to the consistency [`Blas3Op::validate`] checks;
    /// on an inconsistent call the extents come from the output operand
    /// (and `k` from A), or from A for the Level 2 families.
    pub fn dims(&self) -> Dims {
        self.shape().0
    }

    /// Floating-point operation count of this call.
    pub fn flops(&self) -> f64 {
        self.op_kind().flops(self.dims())
    }

    /// Bytes of operand memory this call touches (inputs + outputs, in-place
    /// operands counted once), at the precision of `T`.
    pub fn bytes_touched(&self) -> f64 {
        self.op_kind().footprint_bytes(self.dims(), T::PRECISION)
    }

    /// Check every cross-operand dimension rule of the BLAS specification
    /// for this call, returning the first violation as a typed error.
    ///
    /// Leading-dimension and slice-length invariants are already enforced by
    /// the view constructors, so this only needs to relate the operands to
    /// each other.
    pub fn validate(&self) -> Result<(), Blas3Error> {
        self.shape().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn op_kind_dims_and_routine() {
        let a = Matrix::<f64>::zeros(3, 5);
        let b = Matrix::<f64>::zeros(5, 7);
        let mut c = Matrix::<f64>::zeros(3, 7);
        let op = Blas3Op::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha: 1.0,
            a: a.as_ref(),
            b: b.as_ref(),
            beta: 0.0,
            c: c.as_mut(),
        };
        assert_eq!(op.op_kind(), OpKind::Gemm);
        assert_eq!(op.dims(), Dims::d3(3, 5, 7));
        assert_eq!(op.routine().name(), "dgemm");
        assert_eq!(op.flops(), 2.0 * 3.0 * 5.0 * 7.0);
        assert!(op.validate().is_ok());
    }

    #[test]
    fn cost_helpers_follow_the_blas_formulas() {
        // GEMM m=3, k=5, n=7: 2mkn flops; (mk + kn + mn) f64 words.
        let a = Matrix::<f64>::zeros(3, 5);
        let b = Matrix::<f64>::zeros(5, 7);
        let mut c = Matrix::<f64>::zeros(3, 7);
        let gemm = Blas3Op::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha: 1.0,
            a: a.as_ref(),
            b: b.as_ref(),
            beta: 0.0,
            c: c.as_mut(),
        };
        assert_eq!(gemm.flops(), 2.0 * 3.0 * 5.0 * 7.0);
        assert_eq!(gemm.bytes_touched(), (15.0 + 35.0 + 21.0) * 8.0);

        // SYMM m=4, n=6: 2m^2n flops; (m^2 + 2mn) words.
        let a = Matrix::<f64>::zeros(4, 4);
        let b = Matrix::<f64>::zeros(4, 6);
        let mut c = Matrix::<f64>::zeros(4, 6);
        let symm = Blas3Op::Symm {
            side: Side::Left,
            uplo: Uplo::Upper,
            alpha: 1.0,
            a: a.as_ref(),
            b: b.as_ref(),
            beta: 0.0,
            c: c.as_mut(),
        };
        assert_eq!(symm.flops(), 2.0 * 16.0 * 6.0);
        assert_eq!(symm.bytes_touched(), (16.0 + 2.0 * 24.0) * 8.0);

        // SYRK n=4, k=6: n^2 k flops; (nk + n^2) f32 words.
        let a = Matrix::<f32>::zeros(4, 6);
        let mut c = Matrix::<f32>::zeros(4, 4);
        let syrk = Blas3Op::Syrk {
            uplo: Uplo::Lower,
            trans: Transpose::No,
            alpha: 1.0,
            a: a.as_ref(),
            beta: 0.0,
            c: c.as_mut(),
        };
        assert_eq!(syrk.flops(), 16.0 * 6.0);
        assert_eq!(syrk.bytes_touched(), (24.0 + 16.0) * 4.0);

        // SYR2K n=4, k=6: 2n^2 k flops; (2nk + n^2) words.
        let b = Matrix::<f32>::zeros(4, 6);
        let mut c2 = Matrix::<f32>::zeros(4, 4);
        let syr2k = Blas3Op::Syr2k {
            uplo: Uplo::Lower,
            trans: Transpose::No,
            alpha: 1.0,
            a: a.as_ref(),
            b: b.as_ref(),
            beta: 0.0,
            c: c2.as_mut(),
        };
        assert_eq!(syr2k.flops(), 2.0 * 16.0 * 6.0);
        assert_eq!(syr2k.bytes_touched(), (2.0 * 24.0 + 16.0) * 4.0);

        // TRMM / TRSM m=5, n=3: m^2 n flops; (m^2 + mn) words, B in place.
        let a = Matrix::<f64>::zeros(5, 5);
        let mut bt = Matrix::<f64>::zeros(5, 3);
        let trmm = Blas3Op::Trmm {
            side: Side::Left,
            uplo: Uplo::Upper,
            trans: Transpose::No,
            diag: Diag::NonUnit,
            alpha: 1.0,
            a: a.as_ref(),
            b: bt.as_mut(),
        };
        assert_eq!(trmm.flops(), 25.0 * 3.0);
        assert_eq!(trmm.bytes_touched(), (25.0 + 15.0) * 8.0);
        let mut bt = Matrix::<f64>::zeros(5, 3);
        let trsm = Blas3Op::Trsm {
            side: Side::Left,
            uplo: Uplo::Upper,
            trans: Transpose::No,
            diag: Diag::NonUnit,
            alpha: 1.0,
            a: a.as_ref(),
            b: bt.as_mut(),
        };
        assert_eq!(trsm.flops(), 25.0 * 3.0);
        assert_eq!(trsm.bytes_touched(), (25.0 + 15.0) * 8.0);

        // GEMV m=3, n=5: 2mn flops; (mn + m + n) words. GER the same.
        let a = Matrix::<f64>::zeros(3, 5);
        let (x, mut y) = ([0.0f64; 5], [0.0f64; 3]);
        let gemv = Blas3Op::Gemv {
            trans: Transpose::No,
            alpha: 1.0,
            a: a.as_ref(),
            x: VecRef::new(5, 1, &x),
            beta: 0.0,
            y: VecMut::new(3, 1, &mut y),
        };
        assert_eq!(gemv.routine().name(), "dgemv");
        assert_eq!(gemv.dims(), Dims::d2(3, 5));
        assert_eq!(gemv.flops(), 30.0);
        assert_eq!(gemv.bytes_touched(), (15.0 + 8.0) * 8.0);
        let mut a = Matrix::<f64>::zeros(3, 5);
        let ger = Blas3Op::Ger {
            alpha: 1.0,
            x: VecRef::new(3, 1, &y),
            y: VecRef::new(5, 1, &x),
            a: a.as_mut(),
        };
        assert_eq!(ger.dims(), Dims::d2(3, 5));
        assert_eq!(ger.flops(), 30.0);
        assert!(ger.validate().is_ok());
    }

    #[test]
    fn transposed_gemm_and_gemv_dims() {
        // op(A) = A' is 5x3: x spans its 3 columns, y its 5 rows, and the
        // dimension tuple follows A's stored shape.
        let a = Matrix::<f32>::zeros(3, 5);
        let (x, mut y) = ([0.0f32; 3], [0.0f32; 5]);
        let op = Blas3Op::Gemv {
            trans: Transpose::Yes,
            alpha: 1.0,
            a: a.as_ref(),
            x: VecRef::new(3, 1, &x),
            beta: 0.0,
            y: VecMut::new(5, 1, &mut y),
        };
        assert_eq!(op.dims(), Dims::d2(3, 5));
        assert!(op.validate().is_ok());

        let a = Matrix::<f32>::zeros(5, 3); // op(A) = A' is 3x5
        let b = Matrix::<f32>::zeros(7, 5); // op(B) = B' is 5x7
        let mut c = Matrix::<f32>::zeros(3, 7);
        let op = Blas3Op::Gemm {
            transa: Transpose::Yes,
            transb: Transpose::Yes,
            alpha: 1.0,
            a: a.as_ref(),
            b: b.as_ref(),
            beta: 0.0,
            c: c.as_mut(),
        };
        assert_eq!(op.dims(), Dims::d3(3, 5, 7));
        assert_eq!(op.routine().name(), "sgemm");
        assert!(op.validate().is_ok());
    }

    /// One operand as a classic entry point describes it: a matrix
    /// `(name, rows, cols, ld, slice length)` or a vector
    /// `(name, len, inc, slice length)`.
    #[derive(Debug, Clone, Copy)]
    enum Operand {
        Matrix(&'static str, usize, usize, usize, usize),
        Vector(&'static str, usize, usize, usize),
    }

    /// The operand a table entry describes, named as the classic entry
    /// points name it (e.g. `"gemm A"`, `"gemv x"`): an upper-case letter is
    /// a tightly packed matrix, a lower-case one a stride-2 vector of length
    /// `rows` over a slice that just covers it.
    fn operand(kind: OpKind, letter: char, (rows, cols): (usize, usize)) -> Operand {
        let name = Box::leak(format!("{} {letter}", kind.name()).into_boxed_str());
        if letter.is_lowercase() {
            Operand::Vector(name, rows, 2, 2 * rows - 1)
        } else {
            Operand::Matrix(name, rows, cols, rows.max(1), rows * cols)
        }
    }

    /// The two malformed descriptions a view constructor must reject by
    /// operand name: a short leading dimension (for a vector, a zero
    /// increment) and a short slice.
    fn malformed(operand: Operand) -> [(Operand, Blas3Error); 2] {
        use Operand::{Matrix as M, Vector as V};
        match operand {
            M(name, rows, cols, ld, len) => [
                (
                    M(name, rows, cols, rows - 1, len),
                    Blas3Error::BadLeadingDim {
                        name,
                        ld: rows - 1,
                        rows,
                    },
                ),
                (
                    M(name, rows, cols, ld, len - 1),
                    Blas3Error::ShortSlice {
                        name,
                        rows,
                        cols,
                        ld,
                        needed: len,
                        got: len - 1,
                    },
                ),
            ],
            V(name, len, inc, slice) => [
                (
                    V(name, len, 0, slice),
                    Blas3Error::BadIncrement { name, inc: 0 },
                ),
                (
                    V(name, len, inc, slice - 1),
                    Blas3Error::ShortVector {
                        name,
                        len,
                        inc,
                        needed: slice,
                        got: slice - 1,
                    },
                ),
            ],
        }
    }

    /// An input operand's view.
    #[derive(Clone, Copy)]
    enum In<'a> {
        Mat(MatRef<'a, f64>),
        Vector(VecRef<'a, f64>),
    }

    /// The output operand's view.
    enum Out<'a> {
        Mat(MatMut<'a, f64>),
        Vector(VecMut<'a, f64>),
    }

    /// An input's view, through the panicking (`classic`) or fallible
    /// constructor.
    fn input(operand: Operand, buf: &[f64], classic: bool) -> Result<In<'_>, Blas3Error> {
        Ok(match (operand, classic) {
            (Operand::Matrix(name, rows, cols, ld, len), true) => {
                In::Mat(MatRef::new_named(name, rows, cols, ld, &buf[..len]))
            }
            (Operand::Matrix(name, rows, cols, ld, len), false) => {
                In::Mat(MatRef::try_new_named(name, rows, cols, ld, &buf[..len])?)
            }
            (Operand::Vector(name, len, inc, slice), true) => {
                In::Vector(VecRef::new_named(name, len, inc, &buf[..slice]))
            }
            (Operand::Vector(name, len, inc, slice), false) => {
                In::Vector(VecRef::try_new_named(name, len, inc, &buf[..slice])?)
            }
        })
    }

    /// [`input`] for the output operand.
    fn output(operand: Operand, buf: &mut [f64], classic: bool) -> Result<Out<'_>, Blas3Error> {
        Ok(match (operand, classic) {
            (Operand::Matrix(name, rows, cols, ld, len), true) => {
                Out::Mat(MatMut::new_named(name, rows, cols, ld, &mut buf[..len]))
            }
            (Operand::Matrix(name, rows, cols, ld, len), false) => Out::Mat(MatMut::try_new_named(
                name,
                rows,
                cols,
                ld,
                &mut buf[..len],
            )?),
            (Operand::Vector(name, len, inc, slice), true) => {
                Out::Vector(VecMut::new_named(name, len, inc, &mut buf[..slice]))
            }
            (Operand::Vector(name, len, inc, slice), false) => {
                Out::Vector(VecMut::try_new_named(name, len, inc, &mut buf[..slice])?)
            }
        })
    }

    /// Assert that `call` fails (or, for `None`, succeeds) identically down
    /// both paths: `call(false)` is the typed one — fallible view
    /// constructors, then `validate()` — and `call(true)` the classic one —
    /// panicking constructors, then the public driver — whose panic text
    /// must be the typed error's.
    fn assert_same_failure(
        label: &str,
        expect: Option<&Blas3Error>,
        call: impl Fn(bool) -> Result<(), Blas3Error>,
    ) {
        assert_eq!(call(false).err().as_ref(), expect, "{label}: typed path");
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(true)));
        let text = panic
            .err()
            .map(|p| *p.downcast::<String>().expect("formatted panic"));
        assert_eq!(text, expect.map(|e| e.to_string()), "{label}: classic path");
    }

    /// One call: the family, its transpose flags (`transa`/`transb` for
    /// GEMM, `trans` first otherwise) and side, and the stored operand
    /// shapes in entry-point order (inputs, then the output), a vector's as
    /// `(len, 1)`.
    type Call = (OpKind, [Transpose; 2], Side, &'static [(usize, usize)]);

    /// Describe `call` over `specs` and run it down one of the two paths of
    /// [`assert_same_failure`].
    fn run(
        (kind, [trans, transb], side, _): Call,
        specs: &[Operand],
        classic: bool,
    ) -> Result<(), Blas3Error> {
        use In::{Mat as A, Vector as X};
        use Out::{Mat as C, Vector as Y};
        let mut bufs = vec![[0.0f64; 64]; specs.len()];
        let (out, ins) = bufs.split_last_mut().unwrap();
        let (out_spec, in_specs) = specs.split_last().unwrap();
        let views = in_specs.iter().zip(ins.iter());
        let ins = views
            .map(|(&o, buf)| input(o, buf, classic))
            .collect::<Result<Vec<_>, _>>()?;
        let out = output(*out_spec, out, classic)?;
        let (uplo, diag, alpha, beta) = (Uplo::Upper, Diag::NonUnit, 1.0, 0.0);
        #[rustfmt::skip]
        let op = match (kind, &ins[..], out) {
            (OpKind::Gemm, &[A(a), A(b)], C(c)) => Blas3Op::Gemm { transa: trans, transb, alpha, a, b, beta, c },
            (OpKind::Symm, &[A(a), A(b)], C(c)) => Blas3Op::Symm { side, uplo, alpha, a, b, beta, c },
            (OpKind::Syrk, &[A(a)], C(c)) => Blas3Op::Syrk { uplo, trans, alpha, a, beta, c },
            (OpKind::Syr2k, &[A(a), A(b)], C(c)) => Blas3Op::Syr2k { uplo, trans, alpha, a, b, beta, c },
            (OpKind::Trmm, &[A(a)], C(b)) => Blas3Op::Trmm { side, uplo, trans, diag, alpha, a, b },
            (OpKind::Trsm, &[A(a)], C(b)) => Blas3Op::Trsm { side, uplo, trans, diag, alpha, a, b },
            (OpKind::Gemv, &[A(a), X(x)], Y(y)) => Blas3Op::Gemv { trans, alpha, a, x, beta, y },
            (OpKind::Ger, &[X(x), X(y)], C(a)) => Blas3Op::Ger { alpha, x, y, a },
            (OpKind::Symv, &[A(a), X(x)], Y(y)) => Blas3Op::Symv { uplo, alpha, a, x, beta, y },
            (OpKind::Trmv, &[A(a)], Y(x)) => Blas3Op::Trmv { uplo, trans, diag, a, x },
            (OpKind::Trsv, &[A(a)], Y(x)) => Blas3Op::Trsv { uplo, trans, diag, a, x },
            _ => unreachable!("operands do not fit {kind:?}"),
        };
        if classic {
            crate::backend::drive(1, op);
            return Ok(());
        }
        op.validate()
    }

    #[test]
    fn every_malformed_call_fails_the_same_way_typed_and_through_the_driver() {
        use OpKind::{Gemm, Gemv, Ger, Symm, Symv, Syr2k, Syrk, Trmm, Trmv, Trsm, Trsv};
        use Side::{Left as L, Right as R};
        use Transpose::{No as N, Yes as T};
        let mismatch = |op, expected, x, y| {
            Some(Blas3Error::DimMismatch {
                op,
                expected,
                got: (x, y),
            })
        };
        let not_square = |op, name, rows, cols| {
            Some(Blas3Error::NotSquare {
                op,
                name,
                rows,
                cols,
            })
        };
        // Each call, and the first constraint its operands violate.
        #[rustfmt::skip]
        let table: &[(Call, Option<Blas3Error>)] = &[
            // GEMM: op(A) m x k, op(B) k x n, C m x n.
            ((Gemm, [N, N], L, &[(4, 5), (5, 3), (4, 3)]), None),
            ((Gemm, [T, T], L, &[(5, 4), (3, 5), (4, 3)]), None),
            ((Gemm, [N, N], L, &[(4, 5), (5, 3), (6, 3)]), mismatch(Gemm, "op(A) rows and C rows", 4, 6)),
            ((Gemm, [N, N], L, &[(7, 5), (5, 3), (4, 3)]), mismatch(Gemm, "op(A) rows and C rows", 7, 4)),
            ((Gemm, [N, N], L, &[(4, 5), (5, 3), (4, 7)]), mismatch(Gemm, "op(B) columns and C columns", 3, 7)),
            ((Gemm, [N, N], L, &[(4, 5), (5, 2), (4, 3)]), mismatch(Gemm, "op(B) columns and C columns", 2, 3)),
            ((Gemm, [N, N], L, &[(4, 6), (5, 3), (4, 3)]), mismatch(Gemm, "op(A) columns and op(B) rows", 6, 5)),
            ((Gemm, [N, N], L, &[(4, 5), (6, 3), (4, 3)]), mismatch(Gemm, "op(A) columns and op(B) rows", 5, 6)),
            // The inner mismatch only the transpose flag reveals.
            ((Gemm, [T, N], L, &[(4, 5), (5, 3), (5, 3)]), mismatch(Gemm, "op(A) columns and op(B) rows", 4, 5)),
            // SYMM: A square of the multiplied extent, B and C m x n.
            ((Symm, [N, N], L, &[(4, 4), (4, 3), (4, 3)]), None),
            ((Symm, [N, N], R, &[(3, 3), (4, 3), (4, 3)]), None),
            ((Symm, [N, N], L, &[(4, 5), (4, 3), (4, 3)]), not_square(Symm, "A", 4, 5)),
            ((Symm, [N, N], L, &[(5, 4), (4, 3), (4, 3)]), not_square(Symm, "A", 5, 4)),
            ((Symm, [N, N], R, &[(4, 4), (4, 3), (4, 3)]), mismatch(Symm, "A order and the multiplied C extent", 4, 3)),
            ((Symm, [N, N], L, &[(4, 4), (4, 3), (5, 3)]), mismatch(Symm, "A order and the multiplied C extent", 4, 5)),
            ((Symm, [N, N], L, &[(4, 4), (6, 3), (4, 3)]), mismatch(Symm, "B rows and C rows", 6, 4)),
            ((Symm, [N, N], L, &[(4, 4), (4, 9), (4, 3)]), mismatch(Symm, "B columns and C columns", 9, 3)),
            ((Symm, [N, N], L, &[(4, 4), (4, 3), (4, 2)]), mismatch(Symm, "B columns and C columns", 3, 2)),
            // SYRK: C square of order n, op(A) n x k.
            ((Syrk, [N, N], L, &[(4, 6), (4, 4)]), None),
            ((Syrk, [T, N], L, &[(4, 6), (6, 6)]), None),
            ((Syrk, [N, N], L, &[(4, 6), (4, 5)]), not_square(Syrk, "C", 4, 5)),
            ((Syrk, [N, N], L, &[(4, 6), (5, 4)]), not_square(Syrk, "C", 5, 4)),
            ((Syrk, [N, N], L, &[(4, 6), (6, 6)]), mismatch(Syrk, "op(A) rows and C order", 4, 6)),
            ((Syrk, [T, N], L, &[(4, 6), (4, 4)]), mismatch(Syrk, "op(A) rows and C order", 6, 4)),
            // SYR2K: as SYRK, with op(B) congruent to op(A).
            ((Syr2k, [N, N], L, &[(5, 3), (5, 3), (5, 5)]), None),
            ((Syr2k, [T, N], L, &[(3, 5), (3, 5), (5, 5)]), None),
            ((Syr2k, [N, N], L, &[(5, 3), (5, 3), (5, 6)]), not_square(Syr2k, "C", 5, 6)),
            ((Syr2k, [N, N], L, &[(6, 3), (5, 3), (5, 5)]), mismatch(Syr2k, "op(A) rows and C order", 6, 5)),
            ((Syr2k, [N, N], L, &[(5, 3), (7, 3), (5, 5)]), mismatch(Syr2k, "op(B) rows and C order", 7, 5)),
            ((Syr2k, [N, N], L, &[(5, 3), (5, 4), (5, 5)]), mismatch(Syr2k, "op(A) and op(B) inner extents", 3, 4)),
            ((Syr2k, [T, N], L, &[(2, 5), (3, 5), (5, 5)]), mismatch(Syr2k, "op(A) and op(B) inner extents", 2, 3)),
            // TRMM / TRSM: A square of the multiplied extent of B.
            ((Trmm, [N, N], L, &[(4, 4), (4, 6)]), None),
            ((Trsm, [T, N], R, &[(6, 6), (4, 6)]), None),
            ((Trmm, [N, N], L, &[(4, 6), (4, 6)]), not_square(Trmm, "A", 4, 6)),
            ((Trsm, [T, N], L, &[(6, 4), (4, 6)]), not_square(Trsm, "A", 6, 4)),
            ((Trmm, [N, N], L, &[(4, 4), (5, 6)]), mismatch(Trmm, "A order and the multiplied B extent", 4, 5)),
            ((Trmm, [T, N], R, &[(6, 6), (4, 5)]), mismatch(Trmm, "A order and the multiplied B extent", 6, 5)),
            ((Trsm, [T, N], R, &[(4, 4), (4, 6)]), mismatch(Trsm, "A order and the multiplied B extent", 4, 6)),
            ((Trsm, [N, N], L, &[(4, 4), (6, 6)]), mismatch(Trsm, "A order and the multiplied B extent", 4, 6)),
            // GEMV: x spans the columns of op(A), y its rows.
            ((Gemv, [N, N], L, &[(3, 5), (5, 1), (3, 1)]), None),
            ((Gemv, [T, N], L, &[(3, 5), (3, 1), (5, 1)]), None),
            ((Gemv, [N, N], L, &[(3, 5), (4, 1), (3, 1)]), mismatch(Gemv, "op(A) columns and x length", 5, 4)),
            ((Gemv, [N, N], L, &[(3, 6), (5, 1), (3, 1)]), mismatch(Gemv, "op(A) columns and x length", 6, 5)),
            ((Gemv, [T, N], L, &[(3, 5), (5, 1), (3, 1)]), mismatch(Gemv, "op(A) columns and x length", 3, 5)),
            ((Gemv, [N, N], L, &[(3, 5), (5, 1), (4, 1)]), mismatch(Gemv, "op(A) rows and y length", 3, 4)),
            ((Gemv, [N, N], L, &[(4, 5), (5, 1), (3, 1)]), mismatch(Gemv, "op(A) rows and y length", 4, 3)),
            // GER: x spans A's rows, y its columns.
            ((Ger, [N, N], L, &[(3, 1), (5, 1), (3, 5)]), None),
            ((Ger, [N, N], L, &[(4, 1), (5, 1), (3, 5)]), mismatch(Ger, "A rows and x length", 3, 4)),
            ((Ger, [N, N], L, &[(3, 1), (5, 1), (4, 5)]), mismatch(Ger, "A rows and x length", 4, 3)),
            ((Ger, [N, N], L, &[(3, 1), (4, 1), (3, 5)]), mismatch(Ger, "A columns and y length", 5, 4)),
            ((Ger, [N, N], L, &[(3, 1), (5, 1), (3, 6)]), mismatch(Ger, "A columns and y length", 6, 5)),
            // SYMV / TRMV / TRSV: A square, every vector of its order.
            ((Symv, [N, N], L, &[(4, 4), (4, 1), (4, 1)]), None),
            ((Symv, [N, N], L, &[(4, 3), (4, 1), (4, 1)]), not_square(Symv, "A", 4, 3)),
            ((Symv, [N, N], L, &[(3, 4), (4, 1), (4, 1)]), not_square(Symv, "A", 3, 4)),
            ((Symv, [N, N], L, &[(4, 4), (5, 1), (4, 1)]), mismatch(Symv, "A order and x length", 4, 5)),
            ((Symv, [N, N], L, &[(4, 4), (4, 1), (3, 1)]), mismatch(Symv, "A order and y length", 4, 3)),
            ((Trmv, [N, N], L, &[(4, 4), (4, 1)]), None),
            ((Trmv, [T, N], L, &[(4, 3), (4, 1)]), not_square(Trmv, "A", 4, 3)),
            ((Trmv, [N, N], L, &[(3, 4), (4, 1)]), not_square(Trmv, "A", 3, 4)),
            ((Trmv, [N, N], L, &[(4, 4), (5, 1)]), mismatch(Trmv, "A order and x length", 4, 5)),
            ((Trsv, [T, N], L, &[(4, 4), (4, 1)]), None),
            ((Trsv, [N, N], L, &[(4, 3), (4, 1)]), not_square(Trsv, "A", 4, 3)),
            ((Trsv, [T, N], L, &[(3, 4), (4, 1)]), not_square(Trsv, "A", 3, 4)),
            ((Trsv, [N, N], L, &[(4, 4), (3, 1)]), mismatch(Trsv, "A order and x length", 4, 3)),
        ];
        for (call, expect) in table {
            let (kind, .., shapes) = *call;
            let letters = match kind {
                Syrk => "AC",
                Trmm | Trsm => "AB",
                Gemv | Symv => "Axy",
                Ger => "xyA",
                Trmv | Trsv => "Ax",
                _ => "ABC",
            };
            let specs: Vec<Operand> = letters
                .chars()
                .zip(shapes)
                .map(|(l, &shape)| operand(kind, l, shape))
                .collect();
            let label = format!("{call:?}");
            assert_same_failure(&label, expect.as_ref(), |classic| {
                run(*call, &specs, classic)
            });
            if expect.is_some() {
                continue;
            }
            // A well-formed call, with each operand in turn malformed.
            for i in 0..specs.len() {
                for (bad, error) in malformed(specs[i]) {
                    let mut specs = specs.clone();
                    specs[i] = bad;
                    let label = format!("{label}, malformed {bad:?}");
                    assert_same_failure(&label, Some(&error), |classic| {
                        run(*call, &specs, classic)
                    });
                }
            }
        }
    }
}

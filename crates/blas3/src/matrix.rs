//! Owned column-major matrices and borrowed views.
//!
//! Storage follows the reference-BLAS convention: element `(i, j)` of a
//! matrix with leading dimension `ld` lives at linear index `i + j * ld`.
//!
//! [`MatRef`] and [`MatMut`] are the typed operand views the
//! [`crate::call::Blas3Op`] call-description layer is built on: a borrowed
//! slice plus `rows`/`cols`/`ld`, with every constructor (including the
//! sub-view constructors) checking the leading-dimension and length
//! invariants so that downstream kernel code can rely on them.

use crate::call::Blas3Error;
use crate::Float;

/// An owned, column-major, dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Float> Matrix<T> {
    /// Zero-filled `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix<T> {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: T) -> Matrix<T> {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from a generator `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Matrix<T> {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build from column-major data. Panics if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<T>) -> Matrix<T> {
        assert_eq!(
            data.len(),
            rows * cols,
            "column-major data length must equal rows*cols"
        );
        Matrix { rows, cols, data }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Matrix<T> {
        Matrix::from_fn(n, n, |i, j| if i == j { T::ONE } else { T::ZERO })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension (equals `rows` for owned matrices).
    pub fn ld(&self) -> usize {
        self.rows.max(1)
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows] = v;
    }

    /// Underlying column-major storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable underlying column-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrowed view of the whole matrix.
    pub fn as_ref(&self) -> MatRef<'_, T> {
        MatRef {
            rows: self.rows,
            cols: self.cols,
            ld: self.ld(),
            data: &self.data,
        }
    }

    /// Mutable borrowed view of the whole matrix.
    pub fn as_mut(&mut self) -> MatMut<'_, T> {
        let (rows, cols, ld) = (self.rows, self.cols, self.ld());
        MatMut {
            rows,
            cols,
            ld,
            data: &mut self.data,
        }
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Symmetrise in place from the given triangle: copies the stored
    /// triangle onto the other one. Requires a square matrix.
    pub fn symmetrize_from(&mut self, uplo: crate::Uplo) {
        assert_eq!(self.rows, self.cols, "symmetrize requires a square matrix");
        let n = self.rows;
        for j in 0..n {
            for i in 0..j {
                match uplo {
                    crate::Uplo::Upper => {
                        let v = self.get(i, j);
                        self.set(j, i, v);
                    }
                    crate::Uplo::Lower => {
                        let v = self.get(j, i);
                        self.set(i, j, v);
                    }
                }
            }
        }
    }

    /// Maximum absolute difference against another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix<T>) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|x| {
                let v = x.to_f64();
                v * v
            })
            .sum::<f64>()
            .sqrt()
    }
}

/// Check the view invariants shared by [`MatRef`] and [`MatMut`], returning
/// a typed [`Blas3Error`] on violation.
fn check_view(
    name: &'static str,
    rows: usize,
    cols: usize,
    ld: usize,
    len: usize,
) -> Result<(), Blas3Error> {
    if ld < rows.max(1) {
        return Err(Blas3Error::BadLeadingDim { name, ld, rows });
    }
    if rows > 0 && cols > 0 {
        // Saturating: an extent past `usize::MAX` is one no slice covers.
        let needed = ld.saturating_mul(cols - 1).saturating_add(rows);
        if len < needed {
            return Err(Blas3Error::ShortSlice {
                name,
                rows,
                cols,
                ld,
                needed,
                got: len,
            });
        }
    }
    Ok(())
}

/// Whether `len` items from `start` stay within `0..parent`.
fn fits(start: usize, len: usize, parent: usize) -> bool {
    start.checked_add(len).is_some_and(|end| end <= parent)
}

/// A borrowed, immutable, column-major matrix view with leading dimension.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a, T> {
    rows: usize,
    cols: usize,
    ld: usize,
    data: &'a [T],
}

impl<'a, T: Float> MatRef<'a, T> {
    /// View over raw column-major storage, returning a typed error unless
    /// `ld >= rows` and the slice covers `ld * (cols - 1) + rows` elements
    /// (the last column may be short by `ld - rows`).
    pub fn try_new(
        rows: usize,
        cols: usize,
        ld: usize,
        data: &'a [T],
    ) -> Result<MatRef<'a, T>, Blas3Error> {
        MatRef::try_new_named("view", rows, cols, ld, data)
    }

    /// [`MatRef::try_new`] with an operand name (e.g. `"gemm A"`) carried
    /// into the error, so call-site diagnostics identify the operand.
    pub fn try_new_named(
        name: &'static str,
        rows: usize,
        cols: usize,
        ld: usize,
        data: &'a [T],
    ) -> Result<MatRef<'a, T>, Blas3Error> {
        check_view(name, rows, cols, ld, data.len())?;
        Ok(MatRef {
            rows,
            cols,
            ld,
            data,
        })
    }

    /// Panicking variant of [`MatRef::try_new`] (single source of truth:
    /// same invariant check, the error becomes the panic message).
    pub fn new(rows: usize, cols: usize, ld: usize, data: &'a [T]) -> MatRef<'a, T> {
        MatRef::try_new(rows, cols, ld, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panicking variant of [`MatRef::try_new_named`].
    pub fn new_named(
        name: &'static str,
        rows: usize,
        cols: usize,
        ld: usize,
        data: &'a [T],
    ) -> MatRef<'a, T> {
        MatRef::try_new_named(name, rows, cols, ld, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }
    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }
    /// Leading dimension.
    pub fn ld(&self) -> usize {
        self.ld
    }
    /// Raw storage.
    pub fn data(&self) -> &'a [T] {
        self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.ld]
    }

    /// Checked sub-view of `rows x cols` anchored at `(i, j)`, sharing this
    /// view's leading dimension.
    pub fn submatrix(
        &self,
        i: usize,
        j: usize,
        rows: usize,
        cols: usize,
    ) -> Result<MatRef<'a, T>, Blas3Error> {
        if !fits(i, rows, self.rows) || !fits(j, cols, self.cols) {
            return Err(Blas3Error::SubviewOutOfBounds {
                i,
                j,
                rows,
                cols,
                parent_rows: self.rows,
                parent_cols: self.cols,
            });
        }
        // A zero-size sub-view anchored at the far corner would compute an
        // offset past the end of the slice; give it an empty window instead
        // of letting the slice indexing panic.
        if rows == 0 || cols == 0 {
            return MatRef::try_new(rows, cols, self.ld, &[]);
        }
        let offset = i + j * self.ld;
        MatRef::try_new(rows, cols, self.ld, &self.data[offset..])
    }

    /// Copy this view into an owned [`Matrix`].
    pub fn to_matrix(&self) -> Matrix<T> {
        Matrix::from_fn(self.rows, self.cols, |i, j| self.get(i, j))
    }
}

/// A borrowed, mutable, column-major matrix view with leading dimension.
///
/// Unlike [`MatRef`] this is not `Copy`; use [`MatMut::rb`] to reborrow for
/// a shorter lifetime, mirroring how `&mut` reborrows work.
#[derive(Debug)]
pub struct MatMut<'a, T> {
    rows: usize,
    cols: usize,
    ld: usize,
    data: &'a mut [T],
}

impl<'a, T: Float> MatMut<'a, T> {
    /// Mutable view over raw column-major storage; same invariants as
    /// [`MatRef::try_new`].
    pub fn try_new(
        rows: usize,
        cols: usize,
        ld: usize,
        data: &'a mut [T],
    ) -> Result<MatMut<'a, T>, Blas3Error> {
        MatMut::try_new_named("view", rows, cols, ld, data)
    }

    /// [`MatMut::try_new`] with an operand name (e.g. `"gemm C"`) carried
    /// into the error, so call-site diagnostics identify the operand.
    pub fn try_new_named(
        name: &'static str,
        rows: usize,
        cols: usize,
        ld: usize,
        data: &'a mut [T],
    ) -> Result<MatMut<'a, T>, Blas3Error> {
        check_view(name, rows, cols, ld, data.len())?;
        Ok(MatMut {
            rows,
            cols,
            ld,
            data,
        })
    }

    /// Panicking variant of [`MatMut::try_new`] (single source of truth:
    /// same invariant check, the error becomes the panic message).
    pub fn new(rows: usize, cols: usize, ld: usize, data: &'a mut [T]) -> MatMut<'a, T> {
        MatMut::try_new(rows, cols, ld, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panicking variant of [`MatMut::try_new_named`].
    pub fn new_named(
        name: &'static str,
        rows: usize,
        cols: usize,
        ld: usize,
        data: &'a mut [T],
    ) -> MatMut<'a, T> {
        MatMut::try_new_named(name, rows, cols, ld, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }
    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }
    /// Leading dimension.
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.ld]
    }

    /// Element write.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.ld] = v;
    }

    /// Reborrow with a shorter lifetime (the `&mut` reborrow pattern).
    pub fn rb(&mut self) -> MatMut<'_, T> {
        MatMut {
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
            data: self.data,
        }
    }

    /// Immutable view of the same region.
    pub fn as_ref(&self) -> MatRef<'_, T> {
        MatRef {
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
            data: self.data,
        }
    }

    /// Consume the view, recovering the underlying slice (the drivers split
    /// it across their team through a raw pointer).
    pub fn into_slice(self) -> &'a mut [T] {
        self.data
    }

    /// Checked mutable sub-view of `rows x cols` anchored at `(i, j)`.
    ///
    /// Consumes the view (a mutable sub-view aliases its parent); reborrow
    /// with [`MatMut::rb`] first to keep the parent usable afterwards.
    pub fn submatrix(
        self,
        i: usize,
        j: usize,
        rows: usize,
        cols: usize,
    ) -> Result<MatMut<'a, T>, Blas3Error> {
        if !fits(i, rows, self.rows) || !fits(j, cols, self.cols) {
            return Err(Blas3Error::SubviewOutOfBounds {
                i,
                j,
                rows,
                cols,
                parent_rows: self.rows,
                parent_cols: self.cols,
            });
        }
        // See MatRef::submatrix: an empty sub-view at the far corner must
        // not index past the end of the parent slice.
        if rows == 0 || cols == 0 {
            return MatMut::try_new(rows, cols, self.ld, &mut []);
        }
        let offset = i + j * self.ld;
        MatMut::try_new(rows, cols, self.ld, &mut self.data[offset..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Uplo;

    #[test]
    fn from_fn_is_col_major() {
        let m = Matrix::<f64>::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    fn identity_and_transpose() {
        let i3 = Matrix::<f32>::identity(3);
        assert_eq!(i3.transposed(), i3);
        let m = Matrix::<f32>::from_fn(2, 3, |i, j| (i + 3 * j) as f32);
        let t = m.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), m.get(1, 2));
    }

    #[test]
    fn symmetrize_upper_to_lower() {
        let mut m =
            Matrix::<f64>::from_fn(3, 3, |i, j| if i <= j { (i + 10 * j) as f64 } else { -1.0 });
        m.symmetrize_from(Uplo::Upper);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn symmetrize_lower_to_upper() {
        let mut m =
            Matrix::<f64>::from_fn(3, 3, |i, j| if i >= j { (i + 10 * j) as f64 } else { -1.0 });
        m.symmetrize_from(Uplo::Lower);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn matrix_ref_strided() {
        let m = Matrix::<f64>::from_fn(4, 4, |i, j| (i + 4 * j) as f64);
        // 2x2 view at offset (1,1): ld = 4
        let v = MatRef::new(2, 2, 4, &m.as_slice()[1 + 4..]);
        assert_eq!(v.get(0, 0), m.get(1, 1));
        assert_eq!(v.get(1, 1), m.get(2, 2));
    }

    #[test]
    #[should_panic(expected = "leading dimension")]
    fn bad_ld_panics() {
        let d = [0.0f64; 4];
        let _ = MatRef::new(3, 1, 2, &d);
    }

    #[test]
    #[should_panic(expected = "slice too short")]
    fn short_slice_panics() {
        let d = [0.0f64; 4];
        let _ = MatRef::new(2, 3, 2, &d);
    }

    #[test]
    fn try_new_returns_typed_errors() {
        let d = [0.0f64; 4];
        assert!(matches!(
            MatRef::try_new(3, 1, 2, &d),
            Err(Blas3Error::BadLeadingDim { ld: 2, rows: 3, .. })
        ));
        assert!(matches!(
            MatRef::try_new(2, 3, 2, &d),
            Err(Blas3Error::ShortSlice {
                needed: 6,
                got: 4,
                ..
            })
        ));
        let mut m = [0.0f64; 4];
        assert!(matches!(
            MatMut::try_new(5, 1, 4, &mut m),
            Err(Blas3Error::BadLeadingDim { .. })
        ));
        assert!(MatRef::try_new(2, 2, 2, &d).is_ok());
    }

    #[test]
    fn an_extent_past_usize_max_is_a_short_slice() {
        // `ld * (cols - 1) + rows` wraps to a small number unchecked.
        let d = [1.0f64; 2];
        assert!(matches!(
            MatRef::try_new(2, 3, 1 << 63, &d),
            Err(Blas3Error::ShortSlice {
                needed: usize::MAX,
                got: 2,
                ..
            })
        ));
        let mut m = [1.0f64; 2];
        assert!(matches!(
            MatMut::try_new(1, usize::MAX, 2, &mut m),
            Err(Blas3Error::ShortSlice {
                needed: usize::MAX,
                ..
            })
        ));
    }

    #[test]
    fn a_subview_whose_end_overflows_is_out_of_bounds() {
        let mut m = Matrix::<f64>::zeros(3, 3);
        for (i, j, rows, cols) in [(1, 0, usize::MAX, 1), (0, 2, 1, usize::MAX)] {
            let sub = m.as_ref().submatrix(i, j, rows, cols);
            assert!(matches!(sub, Err(Blas3Error::SubviewOutOfBounds { .. })));
            let sub = m.as_mut().submatrix(i, j, rows, cols);
            assert!(matches!(sub, Err(Blas3Error::SubviewOutOfBounds { .. })));
        }
    }

    #[test]
    fn submatrix_views_share_storage() {
        let m = Matrix::<f64>::from_fn(4, 5, |i, j| (i + 10 * j) as f64);
        let whole = m.as_ref();
        let sub = whole.submatrix(1, 2, 2, 3).unwrap();
        assert_eq!(sub.rows(), 2);
        assert_eq!(sub.cols(), 3);
        assert_eq!(sub.ld(), whole.ld());
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(sub.get(i, j), m.get(1 + i, 2 + j));
            }
        }
        assert!(matches!(
            whole.submatrix(3, 0, 2, 1),
            Err(Blas3Error::SubviewOutOfBounds { .. })
        ));
    }

    #[test]
    fn zero_size_subview_at_far_corner_is_ok() {
        // Anchoring an empty window at (rows, cols) must not index past the
        // end of the parent slice.
        let m = Matrix::<f64>::from_fn(4, 5, |i, j| (i + j) as f64);
        let v = m.as_ref().submatrix(4, 5, 0, 0).unwrap();
        assert_eq!((v.rows(), v.cols()), (0, 0));
        let v = m.as_ref().submatrix(0, 5, 4, 0).unwrap();
        assert_eq!((v.rows(), v.cols()), (4, 0));
        let mut m2 = Matrix::<f64>::zeros(3, 3);
        let v = m2.as_mut().submatrix(3, 3, 0, 0).unwrap();
        assert_eq!((v.rows(), v.cols()), (0, 0));
    }

    #[test]
    fn new_and_try_new_accept_the_same_inputs() {
        // The panicking and Result constructors share one invariant check;
        // zero-row views in particular must agree.
        let empty: [f64; 0] = [];
        assert!(MatRef::try_new(0, 3, 1, &empty).is_ok());
        let v = MatRef::<f64>::new(0, 3, 1, &empty);
        assert_eq!((v.rows(), v.cols()), (0, 3));
    }

    #[test]
    fn mat_mut_subview_writes_land_in_parent() {
        let mut m = Matrix::<f64>::zeros(4, 4);
        {
            let mut sub = m.as_mut().submatrix(1, 1, 2, 2).unwrap();
            sub.set(0, 0, 5.0);
            sub.set(1, 1, 7.0);
        }
        assert_eq!(m.get(1, 1), 5.0);
        assert_eq!(m.get(2, 2), 7.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn mat_mut_reborrow_and_as_ref() {
        let mut m = Matrix::<f64>::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let mut v = m.as_mut();
        let snapshot = v.as_ref().to_matrix();
        v.rb().set(0, 0, -1.0);
        assert_eq!(v.get(0, 0), -1.0);
        assert_eq!(snapshot.get(0, 0), 0.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::<f64>::from_col_major(1, 2, vec![3.0, 4.0]);
        assert!((m.frob_norm() - 5.0).abs() < 1e-12);
        let z = Matrix::<f64>::zeros(1, 2);
        assert_eq!(m.max_abs_diff(&z), 4.0);
    }
}

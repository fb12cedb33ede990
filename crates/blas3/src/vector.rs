//! Borrowed strided vector views for the Level 2 call layer.
//!
//! [`VecRef`] and [`VecMut`] mirror [`crate::matrix::MatRef`]/
//! [`crate::matrix::MatMut`] one dimension down: a borrowed slice plus a
//! logical length and an increment (the BLAS `incx` stride), with every
//! constructor checking the invariants so kernel code can rely on them.
//! Unlike the reference BLAS the increment must be positive; negative
//! strides are a relic of Fortran call sites this crate does not serve.
//!
//! Element `i` of a vector with increment `inc` lives at linear index
//! `i * inc`. `inc == 1` is the contiguous fast path the SIMD Level 2
//! kernels require; strided vectors are staged through a contiguous
//! temporary by the drivers.

use crate::call::Blas3Error;
use crate::Float;

/// Check the view invariants shared by [`VecRef`] and [`VecMut`].
fn check_vector(
    name: &'static str,
    len: usize,
    inc: usize,
    slice_len: usize,
) -> Result<(), Blas3Error> {
    if inc == 0 {
        return Err(Blas3Error::BadIncrement { name, inc });
    }
    if len > 0 {
        // Saturating: an extent past `usize::MAX` is one no slice covers.
        let needed = (len - 1).saturating_mul(inc).saturating_add(1);
        if slice_len < needed {
            return Err(Blas3Error::ShortVector {
                name,
                len,
                inc,
                needed,
                got: slice_len,
            });
        }
    }
    Ok(())
}

/// A borrowed, immutable, strided vector view.
#[derive(Debug, Clone, Copy)]
pub struct VecRef<'a, T> {
    len: usize,
    inc: usize,
    data: &'a [T],
}

impl<'a, T: Float> VecRef<'a, T> {
    /// View over raw storage, returning a typed error unless `inc >= 1` and
    /// the slice covers `(len - 1) * inc + 1` elements.
    pub fn try_new(len: usize, inc: usize, data: &'a [T]) -> Result<VecRef<'a, T>, Blas3Error> {
        VecRef::try_new_named("vector", len, inc, data)
    }

    /// [`VecRef::try_new`] with an operand name (e.g. `"gemv x"`) carried
    /// into the error.
    pub fn try_new_named(
        name: &'static str,
        len: usize,
        inc: usize,
        data: &'a [T],
    ) -> Result<VecRef<'a, T>, Blas3Error> {
        check_vector(name, len, inc, data.len())?;
        Ok(VecRef { len, inc, data })
    }

    /// Panicking variant of [`VecRef::try_new`].
    pub fn new(len: usize, inc: usize, data: &'a [T]) -> VecRef<'a, T> {
        VecRef::try_new(len, inc, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panicking variant of [`VecRef::try_new_named`].
    pub fn new_named(name: &'static str, len: usize, inc: usize, data: &'a [T]) -> VecRef<'a, T> {
        VecRef::try_new_named(name, len, inc, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Logical element count.
    pub fn len(&self) -> usize {
        self.len
    }
    /// Whether the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
    /// Increment (stride) between logical elements.
    pub fn inc(&self) -> usize {
        self.inc
    }
    /// Raw storage.
    pub fn data(&self) -> &'a [T] {
        self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        self.data[i * self.inc]
    }

    /// The contiguous element slice when `inc == 1`, `None` otherwise.
    /// Kernels branch on this: contiguous vectors go straight to SIMD,
    /// strided ones are staged through a temporary first.
    pub fn contiguous(&self) -> Option<&'a [T]> {
        (self.inc == 1).then(|| &self.data[..self.len])
    }

    /// Copy into an owned contiguous `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

/// A borrowed, mutable, strided vector view.
///
/// Not `Copy`; use [`VecMut::rb`] to reborrow for a shorter lifetime.
#[derive(Debug)]
pub struct VecMut<'a, T> {
    len: usize,
    inc: usize,
    data: &'a mut [T],
}

impl<'a, T: Float> VecMut<'a, T> {
    /// Mutable view over raw storage; same invariants as
    /// [`VecRef::try_new`].
    pub fn try_new(len: usize, inc: usize, data: &'a mut [T]) -> Result<VecMut<'a, T>, Blas3Error> {
        VecMut::try_new_named("vector", len, inc, data)
    }

    /// [`VecMut::try_new`] with an operand name carried into the error.
    pub fn try_new_named(
        name: &'static str,
        len: usize,
        inc: usize,
        data: &'a mut [T],
    ) -> Result<VecMut<'a, T>, Blas3Error> {
        check_vector(name, len, inc, data.len())?;
        Ok(VecMut { len, inc, data })
    }

    /// Panicking variant of [`VecMut::try_new`].
    pub fn new(len: usize, inc: usize, data: &'a mut [T]) -> VecMut<'a, T> {
        VecMut::try_new(len, inc, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panicking variant of [`VecMut::try_new_named`].
    pub fn new_named(
        name: &'static str,
        len: usize,
        inc: usize,
        data: &'a mut [T],
    ) -> VecMut<'a, T> {
        VecMut::try_new_named(name, len, inc, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Logical element count.
    pub fn len(&self) -> usize {
        self.len
    }
    /// Whether the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
    /// Increment (stride) between logical elements.
    pub fn inc(&self) -> usize {
        self.inc
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        self.data[i * self.inc]
    }

    /// Element write.
    #[inline]
    pub fn set(&mut self, i: usize, v: T) {
        debug_assert!(i < self.len);
        self.data[i * self.inc] = v;
    }

    /// Reborrow with a shorter lifetime (the `&mut` reborrow pattern).
    pub fn rb(&mut self) -> VecMut<'_, T> {
        VecMut {
            len: self.len,
            inc: self.inc,
            data: self.data,
        }
    }

    /// Immutable view of the same elements.
    pub fn as_ref(&self) -> VecRef<'_, T> {
        VecRef {
            len: self.len,
            inc: self.inc,
            data: self.data,
        }
    }

    /// The contiguous element slice when `inc == 1`, `None` otherwise.
    pub fn contiguous_mut(&mut self) -> Option<&mut [T]> {
        (self.inc == 1).then(|| &mut self.data[..self.len])
    }

    /// Consume the view, recovering the underlying slice.
    pub fn into_slice(self) -> &'a mut [T] {
        self.data
    }

    /// Overwrite the logical elements from a contiguous slice of the same
    /// length (the write-back half of staging a strided vector).
    pub fn copy_from_slice(&mut self, src: &[T]) {
        assert_eq!(src.len(), self.len, "write-back length mismatch");
        for (i, &v) in src.iter().enumerate() {
            self.data[i * self.inc] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_view_indexes_by_increment() {
        let d = [1.0f64, -1.0, 2.0, -1.0, 3.0];
        let v = VecRef::new(3, 2, &d);
        assert_eq!((v.get(0), v.get(1), v.get(2)), (1.0, 2.0, 3.0));
        assert_eq!(v.contiguous(), None);
        assert_eq!(v.to_vec(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn contiguous_fast_path_is_exposed() {
        let d = [1.0f32, 2.0, 3.0, 99.0];
        let v = VecRef::new(3, 1, &d);
        assert_eq!(v.contiguous(), Some(&d[..3]));
        let mut m = [0.0f32; 3];
        let mut vm = VecMut::new(3, 1, &mut m);
        vm.contiguous_mut().unwrap()[1] = 5.0;
        assert_eq!(vm.get(1), 5.0);
    }

    #[test]
    fn typed_errors_for_bad_views() {
        let d = [0.0f64; 4];
        assert!(matches!(
            VecRef::try_new(3, 0, &d),
            Err(Blas3Error::BadIncrement { inc: 0, .. })
        ));
        assert!(matches!(
            VecRef::try_new(3, 2, &d),
            Err(Blas3Error::ShortVector {
                needed: 5,
                got: 4,
                ..
            })
        ));
        // `(len - 1) * inc + 1` wraps to a small number unchecked.
        assert!(matches!(
            VecRef::try_new(3, 1 << 63, &[1.0f64; 2]),
            Err(Blas3Error::ShortVector {
                needed: usize::MAX,
                got: 2,
                ..
            })
        ));
        let mut m = [1.0f64; 2];
        assert!(matches!(
            VecMut::try_new(usize::MAX, 2, &mut m),
            Err(Blas3Error::ShortVector {
                needed: usize::MAX,
                ..
            })
        ));
        // Empty vectors are fine over any storage.
        assert!(VecRef::try_new(0, 1, &[] as &[f64]).is_ok());
        let mut m: [f64; 0] = [];
        assert!(VecMut::try_new(0, 3, &mut m).is_ok());
    }

    #[test]
    fn strided_write_back() {
        let mut d = [0.0f64; 5];
        let mut v = VecMut::new(3, 2, &mut d);
        v.copy_from_slice(&[7.0, 8.0, 9.0]);
        assert_eq!(d, [7.0, 0.0, 8.0, 0.0, 9.0]);
    }
}

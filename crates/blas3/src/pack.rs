//! Panel packing for the blocked macro-kernel.
//!
//! Following the GotoBLAS/BLIS design, the macro-kernel consumes:
//!
//! * an **A block** of `mc x kc` packed into row-panels of height `mr`
//!   (panel-major: panel 0 rows `0..mr`, stored `kc` columns of `mr`
//!   contiguous values each), zero-padded to a multiple of `mr`;
//! * a **B block** of `kc x nc` packed into column-panels of width `nr`,
//!   zero-padded to a multiple of `nr`.
//!
//! The panel heights/widths are the register-block shape of the
//! **selected micro-kernel** ([`KernelDispatch`](crate::kernel::KernelDispatch)),
//! not a property of the scalar type, so both functions take the geometry
//! explicitly. The zero padding is what lets SIMD kernels issue full-width
//! vector loads over every tile, including edge tiles.
//!
//! Operands are described by a [`PackSrc`]: either a **strided descriptor**
//! (`element(i, j) = *(ptr + i*rs + j*cs)`) that covers plain and
//! transposed column-major views — and lowers to contiguous `memcpy`-style
//! copies when one stride is 1 — or a **gather closure** for operands with
//! no affine layout (SYMM's symmetric mirroring). The strided path is what
//! makes packing disappear from profiles: the seed's closure-per-element
//! gather cost as much as a third of a mid-size GEMM once the micro-kernels
//! went SIMD.
//!
//! A triangular operand needs neither: every rectangle TRMM/TRSM fold in
//! lies wholly inside the stored triangle and is a plain strided view, and
//! the one block that straddles the diagonal goes through
//! [`pack_tri_panels`], which **writes** zeros for the half BLAS says is
//! not referenced (and the diagonal as stored, as `1`, or as its
//! reciprocal) instead of reading it and masking — so a NaN parked in the
//! unstored triangle can never reach a micro-kernel.
//!
//! The A-side and B-side layouts are the same layout — panel-major, then
//! depth-major, `mr` (or `nr`) contiguous values per depth step — which is
//! what lets the triangular block be packed once for either side.
//!
//! Every packer writes **every** lane of the destination, padding included,
//! because buffers come from the reuse [`arena`](crate::arena) and carry
//! stale contents.
//!
//! The `*_panels` variants pack only a sub-range of panels — that is the
//! unit the cooperative macro-kernel splits across a
//! [`TeamCtx`](crate::pool::TeamCtx) so one shared packed block is produced
//! jointly by the whole team.

use crate::call::op_shape;
use crate::matrix::MatRef;
use crate::{Diag, Float, Transpose};
use std::marker::PhantomData;

/// A strided, read-only 2-D operand view: `at(i, j) = base[i*rs + j*cs]`.
///
/// Covers every affine layout the routines need: a column-major matrix is
/// `(rs, cs) = (1, ld)`, its transpose `(ld, 1)`.
#[derive(Clone, Copy)]
pub struct StridedSrc<'a, T> {
    ptr: *const T,
    rs: usize,
    cs: usize,
    _marker: PhantomData<&'a T>,
}

// SAFETY: a StridedSrc only reads; the constructors bound the readable
// extent (checked in `new`, caller-promised in `from_raw`), so sharing the
// view across packing workers is sound.
unsafe impl<T: Sync> Send for StridedSrc<'_, T> {}
// SAFETY: shared references to the view only permit reads of T: Sync
// data within the same bounded extent, so `&StridedSrc` may cross
// threads on the same grounds as Send above.
unsafe impl<T: Sync> Sync for StridedSrc<'_, T> {}

impl<'a, T: Float> StridedSrc<'a, T> {
    /// View into `data` with element `(i, j)` at `data[off + i*rs + j*cs]`,
    /// checked to stay in bounds for all `i < rows`, `j < cols`.
    ///
    /// # Panics
    /// If the extent `(rows, cols)` reaches past `data.len()`.
    pub fn new(data: &'a [T], off: usize, rs: usize, cs: usize, rows: usize, cols: usize) -> Self {
        if rows > 0 && cols > 0 {
            let last = off + (rows - 1) * rs + (cols - 1) * cs;
            assert!(
                last < data.len(),
                "strided view {rows}x{cols} (off {off}, rs {rs}, cs {cs}) \
                 reaches index {last} past operand length {}",
                data.len()
            );
        }
        StridedSrc {
            // SAFETY note: `off` may equal data.len() when rows/cols is 0;
            // wrapping keeps the pointer computation defined — it is never
            // dereferenced for an empty extent.
            ptr: data.as_ptr().wrapping_add(off),
            rs,
            cs,
            _marker: PhantomData,
        }
    }

    /// Unchecked view rooted at `ptr` (for operands only reachable through
    /// a raw pointer, e.g. the in-place routines reading their own output
    /// matrix while other regions of it are being written).
    ///
    /// # Safety
    /// `ptr + i*rs + j*cs` must be readable for every `(i, j)` the packing
    /// call derived from this view touches, and those elements must not be
    /// written concurrently.
    pub unsafe fn from_raw(ptr: *const T, rs: usize, cs: usize) -> Self {
        StridedSrc {
            ptr,
            rs,
            cs,
            _marker: PhantomData,
        }
    }

    /// Element `(i, j)`.
    ///
    /// # Safety
    /// `(i, j)` must be inside the extent the view was constructed for.
    #[inline(always)]
    pub unsafe fn at(&self, i: usize, j: usize) -> T {
        *self.ptr.add(i * self.rs + j * self.cs)
    }
}

/// One packable operand: strided descriptor fast path, gather fallback.
///
/// The packers index it as `src(i, p)` (A-side) or `src(p, j)` (B-side) —
/// the descriptor itself is orientation-agnostic.
pub enum PackSrc<'a, T: Float> {
    /// Affine layout; packs via contiguous or strided copies.
    Strided(StridedSrc<'a, T>),
    /// Arbitrary layout (symmetric mirror, triangular mask); packs via one
    /// closure call per element.
    Gather(&'a (dyn Fn(usize, usize) -> T + Sync)),
}

impl<'a, T: Float> PackSrc<'a, T> {
    /// Checked strided view (see [`StridedSrc::new`]).
    pub fn strided(
        data: &'a [T],
        off: usize,
        rs: usize,
        cs: usize,
        rows: usize,
        cols: usize,
    ) -> Self {
        PackSrc::Strided(StridedSrc::new(data, off, rs, cs, rows, cols))
    }

    /// The *operated* shape `op(M)` of a column-major matrix view: element
    /// `(i, j)` reads `M[i, j]`, or `M[j, i]` when transposed.
    pub fn matrix(m: MatRef<'a, T>, trans: Transpose) -> Self {
        let (rows, cols) = op_shape(trans, m.rows(), m.cols());
        // The strides swap with the extents.
        let (rs, cs) = op_shape(trans, 1, m.ld());
        PackSrc::strided(m.data(), 0, rs, cs, rows, cols)
    }

    /// Unchecked strided view (see [`StridedSrc::from_raw`]).
    ///
    /// # Safety
    /// As for [`StridedSrc::from_raw`].
    pub unsafe fn from_raw(ptr: *const T, rs: usize, cs: usize) -> Self {
        PackSrc::Strided(StridedSrc::from_raw(ptr, rs, cs))
    }

    /// Gather fallback.
    pub fn gather(f: &'a (dyn Fn(usize, usize) -> T + Sync)) -> Self {
        PackSrc::Gather(f)
    }

    /// Element `(i, j)`.
    ///
    /// # Safety
    /// For the strided variant, `(i, j)` must be inside the constructed
    /// extent; the gather variant is safe for any indices its closure
    /// accepts.
    #[inline(always)]
    pub unsafe fn at(&self, i: usize, j: usize) -> T {
        match self {
            PackSrc::Strided(s) => s.at(i, j),
            PackSrc::Gather(f) => f(i, j),
        }
    }
}

/// Packed length of an A block: `mc x kc` in `mr`-row panels, zero-padded.
#[inline]
pub fn packed_a_len(mr: usize, mc: usize, kc: usize) -> usize {
    mc.div_ceil(mr) * mr * kc
}

/// Packed length of a B block: `kc x nc` in `nr`-column panels, zero-padded.
#[inline]
pub fn packed_b_len(nr: usize, kc: usize, nc: usize) -> usize {
    nc.div_ceil(nr) * nr * kc
}

/// Pack an `mc x kc` block of A — rooted at `(i_off, p_off)` of `src` —
/// into `buf` as `mr`-row panels. `buf` must hold [`packed_a_len`] elements;
/// every lane (padding included) is written.
pub fn pack_a<T: Float>(
    mr: usize,
    mc: usize,
    kc: usize,
    src: &PackSrc<'_, T>,
    i_off: usize,
    p_off: usize,
    buf: &mut [T],
) {
    pack_a_panels(mr, mc, kc, src, i_off, p_off, 0, mc.div_ceil(mr), buf);
}

/// Pack panels `panel_lo..panel_hi` of the A block — the cooperative
/// packing unit: each team member packs a disjoint panel range through its
/// own `buf` slice, which starts at panel `panel_lo`'s offset (so disjoint
/// `&mut` sub-slices of one shared buffer compose into a full pack).
#[allow(clippy::too_many_arguments)]
pub fn pack_a_panels<T: Float>(
    mr: usize,
    mc: usize,
    kc: usize,
    src: &PackSrc<'_, T>,
    i_off: usize,
    p_off: usize,
    panel_lo: usize,
    panel_hi: usize,
    buf: &mut [T],
) {
    debug_assert!(panel_hi <= mc.div_ceil(mr));
    assert!(buf.len() >= (panel_hi - panel_lo) * mr * kc);
    for panel in panel_lo..panel_hi {
        let i0 = panel * mr;
        let rows = mr.min(mc - i0);
        let base = (panel - panel_lo) * mr * kc;
        match src {
            PackSrc::Strided(s) if s.rs == 1 => {
                // Unit row stride: each packed column is a contiguous run
                // of `rows` source elements.
                for p in 0..kc {
                    let dst = &mut buf[base + p * mr..base + p * mr + mr];
                    // SAFETY: the view's constructor bounds the extent; the
                    // run (i_off+i0 .. +rows, p_off+p) is inside it.
                    unsafe {
                        let sp = s.ptr.add((i_off + i0) + (p_off + p) * s.cs);
                        std::ptr::copy_nonoverlapping(sp, dst.as_mut_ptr(), rows);
                    }
                    dst[rows..].fill(T::ZERO);
                }
            }
            PackSrc::Strided(s) => {
                for p in 0..kc {
                    let dst = &mut buf[base + p * mr..base + p * mr + mr];
                    // SAFETY: extent bounded by the view's constructor.
                    unsafe {
                        let sp = s.ptr.add((i_off + i0) * s.rs + (p_off + p) * s.cs);
                        for (r, d) in dst.iter_mut().enumerate().take(rows) {
                            *d = *sp.add(r * s.rs);
                        }
                    }
                    dst[rows..].fill(T::ZERO);
                }
            }
            PackSrc::Gather(f) => {
                for p in 0..kc {
                    let dst = &mut buf[base + p * mr..base + p * mr + mr];
                    for (r, d) in dst.iter_mut().enumerate().take(rows) {
                        *d = f(i_off + i0 + r, p_off + p);
                    }
                    dst[rows..].fill(T::ZERO);
                }
            }
        }
    }
}

/// Pack a `kc x nc` block of B — rooted at `(p_off, j_off)` of `src` —
/// into `buf` as `nr`-column panels. `buf` must hold [`packed_b_len`]
/// elements; every lane (padding included) is written.
pub fn pack_b<T: Float>(
    nr: usize,
    kc: usize,
    nc: usize,
    src: &PackSrc<'_, T>,
    p_off: usize,
    j_off: usize,
    buf: &mut [T],
) {
    pack_b_panels(nr, kc, nc, src, p_off, j_off, 0, nc.div_ceil(nr), buf);
}

/// Pack panels `panel_lo..panel_hi` of the B block (cooperative unit;
/// `buf` starts at panel `panel_lo`'s offset, as for [`pack_a_panels`]).
#[allow(clippy::too_many_arguments)]
pub fn pack_b_panels<T: Float>(
    nr: usize,
    kc: usize,
    nc: usize,
    src: &PackSrc<'_, T>,
    p_off: usize,
    j_off: usize,
    panel_lo: usize,
    panel_hi: usize,
    buf: &mut [T],
) {
    debug_assert!(panel_hi <= nc.div_ceil(nr));
    assert!(buf.len() >= (panel_hi - panel_lo) * nr * kc);
    for panel in panel_lo..panel_hi {
        let j0 = panel * nr;
        let cols = nr.min(nc - j0);
        let base = (panel - panel_lo) * nr * kc;
        match src {
            PackSrc::Strided(s) if s.cs == 1 => {
                // Unit column stride: each packed row-group is a contiguous
                // run of `cols` source elements.
                for p in 0..kc {
                    let dst = &mut buf[base + p * nr..base + p * nr + nr];
                    // SAFETY: extent bounded by the view's constructor.
                    unsafe {
                        let sp = s.ptr.add((p_off + p) * s.rs + (j_off + j0));
                        std::ptr::copy_nonoverlapping(sp, dst.as_mut_ptr(), cols);
                    }
                    dst[cols..].fill(T::ZERO);
                }
            }
            PackSrc::Strided(s) if s.rs == 1 => {
                // Unit row stride (plain column-major B): read each source
                // column contiguously, scatter into the panel with stride
                // `nr` — sequential loads, short strided stores.
                if kc > 0 {
                    for c in 0..cols {
                        // SAFETY: extent bounded by the view's constructor.
                        unsafe {
                            let sp = s.ptr.add(p_off + (j_off + j0 + c) * s.cs);
                            for p in 0..kc {
                                *buf.get_unchecked_mut(base + p * nr + c) = *sp.add(p);
                            }
                        }
                    }
                }
                for p in 0..kc {
                    buf[base + p * nr + cols..base + p * nr + nr].fill(T::ZERO);
                }
            }
            PackSrc::Strided(s) => {
                for p in 0..kc {
                    let dst = &mut buf[base + p * nr..base + p * nr + nr];
                    // SAFETY: extent bounded by the view's constructor.
                    unsafe {
                        let sp = s.ptr.add((p_off + p) * s.rs + (j_off + j0) * s.cs);
                        for (c, d) in dst.iter_mut().enumerate().take(cols) {
                            *d = *sp.add(c * s.cs);
                        }
                    }
                    dst[cols..].fill(T::ZERO);
                }
            }
            PackSrc::Gather(f) => {
                for p in 0..kc {
                    let dst = &mut buf[base + p * nr..base + p * nr + nr];
                    for (c, d) in dst.iter_mut().enumerate().take(cols) {
                        *d = f(p_off + p, j_off + j0 + c);
                    }
                    dst[cols..].fill(T::ZERO);
                }
            }
        }
    }
}

/// Pack panels `panel_lo..panel_hi` of a triangular **diagonal block** as
/// `pw`-row panels in the layout of [`pack_a_panels`] / [`pack_b_panels`]
/// (the two coincide), depth running over the block's whole order.
///
/// `blk` is the square diagonal block of the stored operand and the packed
/// element `(r, p)` — row `r` of its panel set, depth `p` — is
/// `blk[r, p]`, or `blk[p, r]` under `Transpose::Yes`. With `upper` the
/// packed operand is upper triangular (`p >= r` kept), otherwise lower.
/// The other half is **written as zeros and never read**; the diagonal is
/// `1` under [`Diag::Unit`] (not read either), else the stored value or,
/// with `invert_diag`, its reciprocal — what the tile solve of
/// [`tri_block_sweep`](crate::kernel::tri_block_sweep) multiplies by.
/// `buf` starts at panel `panel_lo`'s offset and every lane is written.
#[allow(clippy::too_many_arguments)]
pub fn pack_tri_panels<T: Float>(
    pw: usize,
    blk: MatRef<'_, T>,
    trans: Transpose,
    upper: bool,
    diag: Diag,
    invert_diag: bool,
    panel_lo: usize,
    panel_hi: usize,
    buf: &mut [T],
) {
    let len = blk.rows();
    debug_assert_eq!(len, blk.cols(), "a diagonal block is square");
    debug_assert!(panel_hi <= len.div_ceil(pw));
    assert!(buf.len() >= (panel_hi - panel_lo) * pw * len);
    let (rs, cs) = op_shape(trans, 1, blk.ld());
    let data = blk.data();
    // Rows `lo..hi` of depth column `p` into the head of `dst`.
    let copy = |dst: &mut [T], lo: usize, hi: usize, p: usize| {
        if rs == 1 {
            dst[..hi - lo].copy_from_slice(&data[lo + p * cs..hi + p * cs]);
        } else {
            for (r, d) in (lo..hi).zip(dst) {
                *d = data[r * rs + p * cs];
            }
        }
    };
    for panel in panel_lo..panel_hi {
        let r0 = panel * pw;
        let r1 = (r0 + pw).min(len);
        let dst = &mut buf[(panel - panel_lo) * pw * len..][..pw * len];
        // Depths at which the panel lies wholly in the unstored half, and
        // those at which it lies wholly in the stored one.
        let (unstored, stored) = if upper {
            (0..r0, r1..len)
        } else {
            (r1..len, 0..r0)
        };
        dst[unstored.start * pw..unstored.end * pw].fill(T::ZERO);
        for p in stored {
            let lane = &mut dst[p * pw..(p + 1) * pw];
            copy(lane, r0, r1, p);
            lane[r1 - r0..].fill(T::ZERO);
        }
        // The panel's own triangle: column `p` keeps the rows on the
        // stored side of its diagonal entry.
        for p in r0..r1 {
            let lane = &mut dst[p * pw..(p + 1) * pw];
            lane.fill(T::ZERO);
            if upper {
                copy(lane, r0, p, p);
            } else {
                copy(&mut lane[p + 1 - r0..], p + 1, r1, p);
            }
            lane[p - r0] = match diag {
                Diag::Unit => T::ONE,
                Diag::NonUnit if invert_diag => T::ONE / data[p * (rs + cs)],
                Diag::NonUnit => data[p * (rs + cs)],
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gather_of(vals: &[f64], rows: usize) -> impl Fn(usize, usize) -> f64 + Sync + '_ {
        move |i, j| vals[i + j * rows]
    }

    #[test]
    fn pack_a_layout_f64() {
        // mc=3, kc=2, mr=8 -> one panel, padded to 8 rows.
        let data: Vec<f64> = (0..3 * 2).map(|x| (10 * (x % 3) + x / 3) as f64).collect();
        let src = PackSrc::strided(&data, 0, 1, 3, 3, 2);
        let mut buf = vec![f64::NAN; packed_a_len(8, 3, 2)];
        pack_a(8, 3, 2, &src, 0, 0, &mut buf);
        assert_eq!(buf.len(), 8 * 2);
        // column p=0 of panel: rows 0,10,20, padding zeros
        assert_eq!(&buf[0..4], &[0.0, 10.0, 20.0, 0.0]);
        // column p=1 starts at offset mr
        assert_eq!(&buf[8..12], &[1.0, 11.0, 21.0, 0.0]);
    }

    #[test]
    fn pack_a_strided_matches_gather() {
        // Transposed view (rs = ld, cs = 1) must agree with the closure.
        let (rows, cols) = (7, 9);
        let data: Vec<f64> = (0..rows * cols).map(|x| x as f64).collect();
        let strided = PackSrc::strided(&data, 0, rows, 1, cols, rows);
        let g = |i: usize, p: usize| data[p + i * rows];
        let gather = PackSrc::gather(&g);
        let (mr, mc, kc) = (4, 6, 5);
        let mut b1 = vec![f64::NAN; packed_a_len(mr, mc, kc)];
        let mut b2 = vec![f64::NAN; packed_a_len(mr, mc, kc)];
        pack_a(mr, mc, kc, &strided, 2, 1, &mut b1);
        pack_a(mr, mc, kc, &gather, 2, 1, &mut b2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn pack_a_multiple_panels_and_offsets() {
        let mr = 8;
        let mc = mr + 2;
        let data: Vec<f64> = (0..mc).map(|x| x as f64).collect();
        let src = PackSrc::strided(&data, 0, 1, mc, mc, 1);
        let mut buf = vec![f64::NAN; packed_a_len(mr, mc, 1)];
        pack_a(mr, mc, 1, &src, 0, 0, &mut buf);
        assert_eq!(buf.len(), 2 * mr);
        assert_eq!(buf[0], 0.0);
        assert_eq!(buf[mr - 1], (mr - 1) as f64);
        // second panel holds rows mr, mr+1 then padding
        assert_eq!(buf[mr], mr as f64);
        assert_eq!(buf[mr + 1], (mr + 1) as f64);
        assert_eq!(buf[mr + 2], 0.0);
    }

    #[test]
    fn pack_a_panel_ranges_compose() {
        // Packing [0..1) and [1..panels) into the same buffer equals one
        // full pack — the cooperative-split invariant.
        let (mr, mc, kc) = (8, 29, 7);
        let data: Vec<f64> = (0..mc * kc).map(|x| (x * 31 % 101) as f64).collect();
        let src = PackSrc::strided(&data, 0, 1, mc, mc, kc);
        let panels = mc.div_ceil(mr);
        let mut whole = vec![f64::NAN; packed_a_len(mr, mc, kc)];
        let mut split = vec![f64::NAN; packed_a_len(mr, mc, kc)];
        pack_a(mr, mc, kc, &src, 0, 0, &mut whole);
        pack_a_panels(mr, mc, kc, &src, 0, 0, 0, 1, &mut split[..mr * kc]);
        pack_a_panels(mr, mc, kc, &src, 0, 0, 1, panels, &mut split[mr * kc..]);
        assert_eq!(whole, split);
    }

    #[test]
    fn pack_b_layout_f64() {
        // kc=2, nc=3, nr=4 -> one panel of 4 cols; B stored 2x3 col-major.
        let nr = 4;
        let data: Vec<f64> = vec![0.0, 100.0, 1.0, 101.0, 2.0, 102.0];
        let src = PackSrc::strided(&data, 0, 1, 2, 2, 3);
        let mut buf = vec![f64::NAN; packed_b_len(nr, 2, 3)];
        pack_b(nr, 2, 3, &src, 0, 0, &mut buf);
        assert_eq!(buf.len(), nr * 2);
        // row p=0: cols 0,1,2, pad
        assert_eq!(&buf[0..nr], &[0.0, 1.0, 2.0, 0.0]);
        // row p=1 at offset nr
        assert_eq!(&buf[nr..nr + 3], &[100.0, 101.0, 102.0]);
    }

    #[test]
    fn pack_b_all_three_stride_paths_agree() {
        let (rows, cols) = (11, 13);
        let data: Vec<f64> = (0..rows * cols).map(|x| ((x * 17) % 251) as f64).collect();
        let (nr, kc, nc) = (6, 5, 9);
        // cs == 1 path: element (p, j) = data[j + p*rows] (transposed view).
        let t = PackSrc::strided(&data, 0, rows, 1, cols, rows);
        // rs == 1 path: element (p, j) = data[p + j*rows].
        let n = PackSrc::strided(&data, 0, 1, rows, rows, cols);
        let g1 = |p: usize, j: usize| data[j + p * rows];
        let g2 = |p: usize, j: usize| data[p + j * rows];
        let mut bt = vec![f64::NAN; packed_b_len(nr, kc, nc)];
        let mut bn = vec![f64::NAN; packed_b_len(nr, kc, nc)];
        let mut gt = vec![f64::NAN; packed_b_len(nr, kc, nc)];
        let mut gn = vec![f64::NAN; packed_b_len(nr, kc, nc)];
        pack_b(nr, kc, nc, &t, 1, 2, &mut bt);
        pack_b(nr, kc, nc, &n, 1, 2, &mut bn);
        pack_b(nr, kc, nc, &PackSrc::gather(&g1), 1, 2, &mut gt);
        pack_b(nr, kc, nc, &PackSrc::gather(&g2), 1, 2, &mut gn);
        assert_eq!(bt, gt);
        assert_eq!(bn, gn);
    }

    #[test]
    fn packers_overwrite_stale_padding() {
        // Buffers from the arena are dirty; every padding lane must be
        // re-zeroed by the packers.
        let (mr, mc, kc) = (8, 3, 2);
        let data = vec![1.0f64; mc * kc];
        let src = PackSrc::strided(&data, 0, 1, mc, mc, kc);
        let mut buf = vec![f64::NAN; packed_a_len(mr, mc, kc)];
        pack_a(mr, mc, kc, &src, 0, 0, &mut buf);
        assert!(buf.iter().all(|x| x.is_finite()));
        let (nr, nc) = (8, 3);
        let mut bbuf = vec![f64::NAN; packed_b_len(nr, kc, nc)];
        let srcb = PackSrc::strided(&data, 0, 1, kc, kc, nc);
        pack_b(nr, kc, nc, &srcb, 0, 0, &mut bbuf);
        assert!(bbuf.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn pack_roundtrip_values_at_simd_geometry() {
        // 16-row panels (the AVX2 f32 tile height): values land where the
        // macro-kernel expects them regardless of geometry.
        let mr = 16;
        let mc = 29;
        let kc = 7;
        let vals: Vec<f64> = (0..mc * kc)
            .map(|x| ((x % mc) * 31 + x / mc) as f64)
            .collect();
        let g = gather_of(&vals, mc);
        let src = PackSrc::gather(&g);
        let mut buf = vec![f64::NAN; packed_a_len(mr, mc, kc)];
        pack_a(mr, mc, kc, &src, 0, 0, &mut buf);
        for i in 0..mc {
            for p in 0..kc {
                let panel = i / mr;
                let r = i % mr;
                let v = buf[panel * mr * kc + p * mr + r];
                assert_eq!(v, (i * 31 + p) as f64);
            }
        }
    }

    #[test]
    fn pack_tri_writes_the_unstored_half_and_a_unit_diagonal_without_reading_them() {
        // The block sits at (2, 2) of a larger matrix; everything BLAS says
        // is not referenced is NaN, so a read-then-mask packer fails.
        let (len, ld, pw) = (7, 11, 3);
        for stored_upper in [false, true] {
            for trans in [Transpose::No, Transpose::Yes] {
                for (diag, invert) in [
                    (Diag::NonUnit, false),
                    (Diag::NonUnit, true),
                    (Diag::Unit, false),
                ] {
                    let in_triangle = |i: usize, j: usize| match stored_upper {
                        true => j > i,
                        false => j < i,
                    };
                    let stored =
                        |i: usize, j: usize| in_triangle(i, j) || (i == j && diag == Diag::NonUnit);
                    let mut data = vec![f64::NAN; ld * ld];
                    for j in 0..len {
                        for i in 0..len {
                            if stored(i, j) {
                                data[2 + i + (2 + j) * ld] = (1 + i + 10 * j) as f64;
                            }
                        }
                    }
                    let blk = MatRef::new(ld, ld, ld, &data)
                        .submatrix(2, 2, len, len)
                        .unwrap();
                    // Transposing the stored triangle flips which half the
                    // packed operand keeps.
                    let upper = stored_upper != (trans == Transpose::Yes);
                    let mut buf = vec![f64::NAN; packed_a_len(pw, len, len)];
                    pack_tri_panels(
                        pw,
                        blk,
                        trans,
                        upper,
                        diag,
                        invert,
                        0,
                        len.div_ceil(pw),
                        &mut buf,
                    );
                    for r in 0..len.div_ceil(pw) * pw {
                        for p in 0..len {
                            let got = buf[(r / pw) * pw * len + p * pw + r % pw];
                            let (i, j) = op_shape(trans, r, p);
                            let want = if r >= len || !(stored(i, j) || r == p) {
                                0.0
                            } else if r != p {
                                blk.get(i, j)
                            } else if diag == Diag::Unit {
                                1.0
                            } else if invert {
                                1.0 / blk.get(i, j)
                            } else {
                                blk.get(i, j)
                            };
                            assert_eq!(
                                got, want,
                                "({r},{p}) upper={stored_upper} {trans:?} {diag:?} invert={invert}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "strided view")]
    fn strided_out_of_bounds_panics() {
        let data = vec![0.0f64; 10];
        let _ = StridedSrc::new(&data, 0, 1, 5, 5, 3);
    }
}

//! Level 2 parity: every routine, both precisions, every forcible kernel
//! choice, and an nt sweep, against the naive reference oracle — including
//! ragged leading dimensions, strided vectors, and empty shapes — and the
//! results across thread counts: bit for bit, except SYMV's.
//!
//! Like `simd_parity.rs`, the kernel-choice sweep is the only place here
//! that mutates the process-wide override; the proptests run under
//! whatever kernel is currently dispatched (all of them must be correct,
//! so a concurrent override flip cannot invalidate a parity assertion).

// Outside the Miri subset: proptest volume plus the OS thread pool.
#![cfg(not(miri))]

use adsala_blas3::kernel::{set_kernel_choice, KernelChoice};
use adsala_blas3::{level2, reference};
use adsala_blas3::{Diag, Float, MatMut, MatRef, Matrix, Transpose, Uplo, VecMut, VecRef};
use proptest::prelude::*;

/// Deterministic value stream in roughly [-2, 2].
fn val(seed: u64, i: usize, j: usize) -> f64 {
    let h = (i as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((j as u64).wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(seed.wrapping_mul(0x94D049BB133111EB));
    ((h >> 40) % 2001) as f64 / 500.0 - 2.0
}

/// Column-major `m x n` payload inside an `lda x n` allocation; the
/// padding lanes carry a sentinel so clobbers are detectable.
fn col_major<T: Float>(m: usize, n: usize, lda: usize, seed: u64) -> Vec<T> {
    let mut a = vec![T::from_f64(-77.0); lda * n];
    for j in 0..n {
        for i in 0..m {
            a[j * lda + i] = T::from_f64(val(seed, i, j));
        }
    }
    a
}

/// Dense copy of the logical `m x n` region for the oracle.
fn as_matrix<T: Float>(raw: &[T], m: usize, n: usize, lda: usize) -> Matrix<T> {
    Matrix::from_fn(m, n, |i, j| raw[j * lda + i])
}

/// Storage for a logical-length-`n`, increment-`inc` vector.
fn strided<T: Float>(n: usize, inc: usize, seed: u64) -> Vec<T> {
    let len = if n == 0 { 0 } else { (n - 1) * inc + 1 };
    (0..len)
        .map(|i| {
            if i % inc == 0 {
                T::from_f64(val(seed, i / inc, 5))
            } else {
                T::from_f64(-55.0) // stride gap sentinel
            }
        })
        .collect()
}

/// Contiguous copy of a strided vector's logical elements.
fn gather<T: Float>(v: &[T], n: usize, inc: usize) -> Vec<T> {
    (0..n).map(|i| v[i * inc]).collect()
}

/// Elementwise compare the logical elements of a strided result against a
/// contiguous oracle, relative to the oracle's magnitude, and check the
/// stride gaps kept their sentinel.
fn assert_vec_close<T: Float>(got: &[T], inc: usize, want: &[T], tol: f64, label: &str) {
    let scale = want.iter().map(|w| w.to_f64().abs()).fold(1.0f64, f64::max);
    for (i, w) in want.iter().enumerate() {
        let g = got[i * inc].to_f64();
        assert!(
            (g - w.to_f64()).abs() <= tol * scale,
            "{label}: element {i}: got {g}, want {}",
            w.to_f64()
        );
    }
    for (i, g) in got.iter().enumerate() {
        if i % inc != 0 {
            assert_eq!(g.to_f64(), -55.0, "{label}: stride gap {i} clobbered");
        }
    }
}

fn tol_for<T: Float>(n: usize) -> f64 {
    let eps = if T::BYTES == 4 {
        f32::EPSILON as f64
    } else {
        f64::EPSILON
    };
    // Each output accumulates O(n) products of [-2,2] values; TRSV adds a
    // substitution chain on a diagonally-boosted operand. A generous
    // constant absorbs reassociation and FMA differences.
    (n as f64 + 4.0) * 64.0 * eps
}

/// Drive all five routines at one `(m, n, pad, incx, incy, nt)` point
/// against the reference oracle. `n` doubles as the order of the square
/// SYMV/TRMV/TRSV operands. Returns the bits of every result but SYMV's.
#[allow(clippy::too_many_arguments)]
fn check_level2<T: Float>(
    m: usize,
    n: usize,
    pad: usize,
    incx: usize,
    incy: usize,
    nt: usize,
    seed: u64,
    label: &str,
) -> Vec<u64> {
    let mut bits = Vec::new();
    let mut keep = |v: &[T]| bits.extend(v.iter().map(|x| x.to_f64().to_bits()));
    let lda = m.max(1) + pad;
    let a = col_major::<T>(m, n, lda, seed);
    let am = as_matrix(&a, m, n, lda);
    let alpha = T::from_f64(1.0 + val(seed, 3, 5) / 4.0);
    let beta = T::from_f64(val(seed, 9, 2) / 2.0);
    let tol = tol_for::<T>(m.max(n));

    // GEMV, both transposes. op(A) no-trans is m x n: x has n, y has m.
    for (trans, xlen, ylen) in [(Transpose::No, n, m), (Transpose::Yes, m, n)] {
        let x = strided::<T>(xlen, incx, seed ^ 0xA);
        let mut y = strided::<T>(ylen, incy, seed ^ 0xB);
        let mut want = gather(&y, ylen, incy);
        level2::gemv(
            nt,
            trans,
            alpha,
            MatRef::new(m, n, lda, &a),
            VecRef::new(xlen, incx, &x),
            beta,
            VecMut::new(ylen, incy, &mut y),
        );
        reference::gemv(trans, alpha, &am, &gather(&x, xlen, incx), beta, &mut want);
        assert_vec_close(&y, incy, &want, tol, &format!("{label} gemv {trans:?}"));
        keep(&y);
    }

    // GER: in-place rank-1 update on the ragged operand.
    {
        let x = strided::<T>(m, incx, seed ^ 0xC);
        let y = strided::<T>(n, incy, seed ^ 0xD);
        let mut a2 = a.clone();
        let mut want = am.clone();
        level2::ger(
            nt,
            alpha,
            VecRef::new(m, incx, &x),
            VecRef::new(n, incy, &y),
            MatMut::new(m, n, lda, &mut a2),
        );
        reference::ger(alpha, &gather(&x, m, incx), &gather(&y, n, incy), &mut want);
        for j in 0..n {
            for i in 0..lda {
                let g = a2[j * lda + i].to_f64();
                if i < m {
                    let w = want.get(i, j).to_f64();
                    assert!(
                        (g - w).abs() <= tol * w.abs().max(1.0),
                        "{label} ger ({i},{j}): got {g}, want {w}"
                    );
                } else {
                    assert_eq!(g, -77.0, "{label} ger: lda padding ({i},{j}) clobbered");
                }
            }
        }
        keep(&a2);
    }

    // The square families at order n, lda-padded.
    let n2 = n;
    let lda2 = n2.max(1) + pad;
    let mut sa = col_major::<T>(n2, n2, lda2, seed ^ 0xE);
    for i in 0..n2 {
        // Boost the diagonal so TRSV stays well-conditioned.
        sa[i * lda2 + i] = T::from_f64(4.0 + (i % 3) as f64);
    }
    let sam = as_matrix(&sa, n2, n2, lda2);
    let sav = MatRef::new(n2, n2, lda2, &sa);
    let tol2 = tol_for::<T>(n2);

    for uplo in [Uplo::Upper, Uplo::Lower] {
        // SYMV
        let x = strided::<T>(n2, incx, seed ^ 0xF);
        let mut y = strided::<T>(n2, incy, seed ^ 0x10);
        let mut want = gather(&y, n2, incy);
        level2::symv(
            nt,
            uplo,
            alpha,
            sav,
            VecRef::new(n2, incx, &x),
            beta,
            VecMut::new(n2, incy, &mut y),
        );
        reference::symv(uplo, alpha, &sam, &gather(&x, n2, incx), beta, &mut want);
        assert_vec_close(&y, incy, &want, tol2, &format!("{label} symv {uplo:?}"));

        for trans in [Transpose::No, Transpose::Yes] {
            for diag in [Diag::NonUnit, Diag::Unit] {
                // TRMV
                let mut x = strided::<T>(n2, incx, seed ^ 0x11);
                let mut want = gather(&x, n2, incx);
                level2::trmv(uplo, trans, diag, sav, VecMut::new(n2, incx, &mut x));
                reference::trmv(uplo, trans, diag, &sam, &mut want);
                assert_vec_close(
                    &x,
                    incx,
                    &want,
                    tol2,
                    &format!("{label} trmv {uplo:?} {trans:?} {diag:?}"),
                );
                keep(&x);

                // TRSV
                let mut b = strided::<T>(n2, incx, seed ^ 0x12);
                let mut want = gather(&b, n2, incx);
                level2::trsv(uplo, trans, diag, sav, VecMut::new(n2, incx, &mut b));
                reference::trsv(uplo, trans, diag, &sam, &mut want);
                assert_vec_close(
                    &b,
                    incx,
                    &want,
                    tol2,
                    &format!("{label} trsv {uplo:?} {trans:?} {diag:?}"),
                );
                keep(&b);
            }
        }
    }
    bits
}

/// Every forcible kernel choice, both precisions, an nt sweep past the
/// parallel thresholds, ragged lda, strided vectors, and empty/degenerate
/// shapes. This test owns the process-wide kernel override start to
/// finish (nothing else in this binary mutates it).
#[test]
fn all_level2_routines_agree_with_reference_under_every_kernel_choice() {
    let choices = [
        KernelChoice::Scalar,
        KernelChoice::Avx2,
        KernelChoice::Avx512,
        KernelChoice::Neon,
    ];
    let shapes = [
        (0usize, 0usize), // fully empty
        (0, 5),           // empty rows, non-empty cols
        (5, 0),           // the transpose-empty case
        (1, 1),           // scalar corner
        (7, 13),          // ragged, below any vector width
        (33, 17),         // spans several SIMD lanes with a remainder
    ];
    for choice in choices {
        if !set_kernel_choice(choice) {
            continue; // not compiled in / not available on this CPU
        }
        for &(m, n) in &shapes {
            for nt in [1usize, 3, 8] {
                for (incx, incy) in [(1usize, 1usize), (2, 3)] {
                    let label = format!("{choice:?} m={m} n={n} nt={nt} inc=({incx},{incy})");
                    check_level2::<f64>(m, n, 3, incx, incy, nt, 42, &label);
                    check_level2::<f32>(m, n, 3, incx, incy, nt, 43, &label);
                }
            }
        }
    }
    assert!(set_kernel_choice(KernelChoice::Auto));
}

/// GEMV (both transposes), GER, TRMV and TRSV give the same bits at every
/// thread count; SYMV sums per-member partials and is held to its reference
/// tolerance at each (see the `level2` module docs). Row and column chunks
/// end off any SIMD width; the kernel is the dispatched one.
#[test]
fn results_are_bitwise_across_thread_counts_except_symv() {
    for (m, n) in [(33, 17), (203, 77), (7, 130)] {
        for (incx, incy) in [(1, 1), (2, 3)] {
            let label = format!("m={m} n={n} inc=({incx},{incy})");
            let at = |nt| {
                let label = format!("{label} nt={nt}");
                let f64s = check_level2::<f64>(m, n, 3, incx, incy, nt, 0x2A, &label);
                (
                    f64s,
                    check_level2::<f32>(m, n, 3, incx, incy, nt, 0x2B, &label),
                )
            };
            let one = at(1);
            for nt in [2, 3, 5] {
                assert!(at(nt) == one, "{label}: nt {nt} differs from nt 1");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random shapes (empties included), pads, strides, and thread counts
    /// under the currently dispatched kernel, both precisions.
    #[test]
    fn level2_matches_reference_on_random_shapes(
        m in 0usize..40,
        n in 0usize..40,
        pad in 0usize..4,
        incx in 1usize..3,
        incy in 1usize..3,
        nt in 1usize..9,
        seed in any::<u64>(),
    ) {
        check_level2::<f64>(m, n, pad, incx, incy, nt, seed, "prop/f64");
        check_level2::<f32>(m, n, pad, incx, incy, nt, seed ^ 0x5A5A, "prop/f32");
    }
}

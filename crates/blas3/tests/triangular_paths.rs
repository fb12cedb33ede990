//! The packed triangular paths — TRMM/TRSM's diagonal-block sweep and
//! strided folds, SYRK/SYR2K's triangle-restricted product — against the
//! naive [`reference`] oracles under **every kernel this build + CPU can
//! run**, at shapes chosen around the register block (`mr`, `nr`), the
//! diagonal block and its multiples, and at several team sizes.
//!
//! Everything BLAS says is *not referenced* is poisoned with NaN: the
//! unstored triangle of A (and its diagonal under `Diag::Unit`), the
//! opposite triangle of C. A packer that reads the unstored half and masks
//! it, instead of writing zeros, turns a result NaN here.
//!
//! The drivers resolve their kernel through the process-wide override, so
//! this binary is one `#[test]` that owns it from start to finish.

// Outside the Miri subset: executes vendor SIMD intrinsics, spawns threads.
#![cfg(not(miri))]

use adsala_blas3::kernel::{available_f32, available_f64, set_kernel_choice, KernelChoice};
use adsala_blas3::matrix::{MatMut, MatRef};
use adsala_blas3::{reference, syr2k, syrk, trmm, trsm};
use adsala_blas3::{Diag, Float, Matrix, Side, Transpose, Uplo};

const NTS: [usize; 4] = [1, 2, 3, 5];

type Flags = (Side, Uplo, Transpose, Diag);

/// Every side x uplo x trans x diag.
fn all_flags() -> Vec<Flags> {
    let mut v = Vec::new();
    for side in [Side::Left, Side::Right] {
        for uplo in [Uplo::Upper, Uplo::Lower] {
            for trans in [Transpose::No, Transpose::Yes] {
                for diag in [Diag::NonUnit, Diag::Unit] {
                    v.push((side, uplo, trans, diag));
                }
            }
        }
    }
    v
}

/// Deterministic value stream in roughly [-2, 2].
fn val(seed: u64, i: usize, j: usize) -> f64 {
    let h = (i as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((j as u64).wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(seed.wrapping_mul(0x94D049BB133111EB));
    ((h >> 40) % 2001) as f64 / 500.0 - 2.0
}

fn det_mat<T: Float>(r: usize, c: usize, seed: u64) -> Matrix<T> {
    Matrix::from_fn(r, c, |i, j| T::from_f64(val(seed, i, j)))
}

/// Every kernel choice this build + CPU accepts, scalar first.
fn kernels() -> Vec<KernelChoice> {
    let all = [
        KernelChoice::Scalar,
        KernelChoice::Avx2,
        KernelChoice::Avx512,
        KernelChoice::Neon,
    ];
    let runnable: Vec<_> = all.into_iter().filter(|&c| set_kernel_choice(c)).collect();
    assert_eq!(runnable.len(), available_f64().len());
    assert_eq!(runnable.len(), available_f32().len());
    runnable
}

/// Whether storage element `(i, j)` of a triangular A is referenced.
fn referenced(uplo: Uplo, diag: Diag, i: usize, j: usize) -> bool {
    match i.cmp(&j) {
        std::cmp::Ordering::Equal => diag == Diag::NonUnit,
        std::cmp::Ordering::Less => uplo == Uplo::Upper,
        std::cmp::Ordering::Greater => uplo == Uplo::Lower,
    }
}

/// One TRMM and one TRSM of a `t x f` problem (`t` the triangular extent)
/// per flag combination: the reference once on a clean A, then the native
/// driver on the poisoned A under each kernel, once per `(pad, nt)` of
/// `runs` with B in storage of leading dimension `rows + pad`. Bitwise
/// equal across all of a kernel's runs.
fn check_tri<T: Float>(
    kernels: &[KernelChoice],
    flags: &[Flags],
    t: usize,
    f: usize,
    runs: &[(usize, usize)],
    tol: f64,
) {
    for &(side, uplo, trans, diag) in flags {
        let (m, n) = match side {
            Side::Left => (t, f),
            Side::Right => (f, t),
        };
        // Well-conditioned whatever `t`: a dominant diagonal over
        // off-diagonals that shrink with the order.
        let clean = Matrix::<T>::from_fn(t, t, |i, j| {
            if i == j {
                T::from_f64(2.0 + (i % 3) as f64)
            } else if referenced(uplo, diag, i, j) {
                T::from_f64(val(7, i, j) / t as f64)
            } else {
                T::ZERO
            }
        });
        let poisoned = Matrix::<T>::from_fn(t, t, |i, j| {
            if referenced(uplo, diag, i, j) {
                clean.get(i, j)
            } else {
                T::from_f64(f64::NAN)
            }
        });
        let b0 = det_mat::<T>(m, n, 11);
        let alpha = T::from_f64(1.25);
        for solve in [false, true] {
            let mut expect = b0.clone();
            match solve {
                false => reference::trmm(side, uplo, trans, diag, alpha, &clean, &mut expect),
                true => reference::trsm(side, uplo, trans, diag, alpha, &clean, &mut expect),
            }
            let scale = expect.frob_norm().max(1.0);
            for &kernel in kernels {
                assert!(set_kernel_choice(kernel));
                let mut first: Option<Matrix<T>> = None;
                for &(pad, nt) in runs {
                    let ld = m + pad;
                    let mut store = vec![T::from_f64(f64::NAN); ld * n];
                    for j in 0..n {
                        store[j * ld..j * ld + m].copy_from_slice(&b0.as_slice()[j * m..][..m]);
                    }
                    let b = MatMut::new(m, n, ld, &mut store);
                    match solve {
                        false => {
                            trmm::trmm(nt, side, uplo, trans, diag, alpha, poisoned.as_ref(), b)
                        }
                        true => {
                            trsm::trsm(nt, side, uplo, trans, diag, alpha, poisoned.as_ref(), b)
                        }
                    }
                    let label = format!(
                        "{} {kernel:?} {} t={t} f={f} ld={ld} nt={nt} \
                         {side:?} {uplo:?} {trans:?} {diag:?}",
                        std::any::type_name::<T>(),
                        if solve { "trsm" } else { "trmm" },
                    );
                    assert!(
                        (0..n).all(|j| store[j * ld + m..(j + 1) * ld]
                            .iter()
                            .all(|x| x.to_f64().is_nan())),
                        "{label}: padding rows written"
                    );
                    let got = MatRef::new(m, n, ld, &store).to_matrix();
                    assert!(
                        got.as_slice().iter().all(|x| x.to_f64().is_finite()),
                        "{label}: the unstored half of A reached B"
                    );
                    let off = got.max_abs_diff(&expect) / scale;
                    assert!(off < tol, "{label}: off by {off:e}");
                    match &first {
                        None => first = Some(got),
                        Some(base) => assert!(
                            base.as_slice()
                                .iter()
                                .zip(got.as_slice())
                                .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits()),
                            "{label}: not bitwise nt-invariant"
                        ),
                    }
                }
            }
        }
    }
}

/// The TRMM/TRSM table for one precision. Per kernel: `t` around its
/// register block, the 64-row mark and past one diagonal block, `f` around
/// its other register extent and well past it, every flag combination and
/// team size; then a ragged order past two diagonal blocks.
fn tri_table<T: Float>(kernels: &[KernelChoice], tol: f64) {
    let runs: Vec<(usize, usize)> = NTS.iter().map(|&nt| (0, nt)).collect();
    for &kernel in kernels {
        assert!(set_kernel_choice(kernel));
        let disp = T::kernel();
        let mut ts = vec![1, disp.mr - 1, disp.mr, disp.mr + 1, 63, 64, 65, 2 * 64 + 3];
        let mut fs = vec![1, disp.nr - 1, disp.nr + 1, 130];
        for v in [&mut ts, &mut fs] {
            v.retain(|&x| x > 0);
            v.sort_unstable();
            v.dedup();
        }
        for &t in &ts {
            for &f in &fs {
                check_tri::<T>(&[kernel], &all_flags(), t, f, &runs, tol);
            }
        }
        check_tri::<T>(
            &[kernel],
            &all_flags(),
            2 * disp.tri_block() + 3,
            7,
            &runs,
            tol,
        );
    }
}

/// The 512 x 96 operand B whose columns are 4 KiB apart in f64 — the
/// stride a sweep along B's rows used to walk — and the same with a padded
/// leading dimension: four diagonal blocks on the Left. The flag space is
/// thinned to one combination per side and sweep direction, and the team
/// sizes are split over the two leading dimensions, because one such call
/// is 25 MFLOP of unoptimised test build (the table above has every
/// combination at every team size).
fn tri_power_of_two_ld(kernels: &[KernelChoice], tol: f64) {
    use {Diag::*, Side::*, Transpose::*, Uplo::*};
    let flags = [
        (Left, Upper, No, NonUnit),
        (Left, Upper, Yes, Unit),
        (Right, Lower, No, Unit),
        (Right, Lower, Yes, NonUnit),
    ];
    check_tri::<f64>(kernels, &flags, 512, 96, &[(0, 1), (0, 5), (5, 3)], tol);
}

/// SYRK and SYR2K at orders around the register block and the cache
/// block, the opposite triangle of C NaN and required to stay so.
fn rank_k_table<T: Float>(kernels: &[KernelChoice], tol: f64) {
    let mut ns = vec![1, 127, 128, 129, 300];
    for &kernel in kernels {
        assert!(set_kernel_choice(kernel));
        ns.push(T::kernel().nr);
    }
    ns.sort_unstable();
    ns.dedup();
    let k = 37;
    for n in ns {
        for uplo in [Uplo::Upper, Uplo::Lower] {
            for trans in [Transpose::No, Transpose::Yes] {
                let (ar, ac) = match trans {
                    Transpose::No => (n, k),
                    Transpose::Yes => (k, n),
                };
                let (a, b) = (det_mat::<T>(ar, ac, 3), det_mat::<T>(ar, ac, 4));
                let in_triangle = |i: usize, j: usize| match uplo {
                    Uplo::Upper => i <= j,
                    Uplo::Lower => i >= j,
                };
                let clean = Matrix::<T>::from_fn(n, n, |i, j| {
                    if in_triangle(i, j) {
                        T::from_f64(val(5, i, j))
                    } else {
                        T::ZERO
                    }
                });
                let (alpha, beta) = (T::from_f64(0.9), T::from_f64(-0.6));
                for two in [false, true] {
                    let mut expect = clean.clone();
                    match two {
                        false => reference::syrk(uplo, trans, alpha, &a, beta, &mut expect),
                        true => reference::syr2k(uplo, trans, alpha, &a, &b, beta, &mut expect),
                    }
                    let scale = expect.frob_norm().max(1.0);
                    for &kernel in kernels {
                        assert!(set_kernel_choice(kernel));
                        let mut first: Option<Matrix<T>> = None;
                        for nt in [1usize, 3] {
                            let mut c = Matrix::<T>::from_fn(n, n, |i, j| {
                                if in_triangle(i, j) {
                                    clean.get(i, j)
                                } else {
                                    T::from_f64(f64::NAN)
                                }
                            });
                            match two {
                                false => {
                                    syrk::syrk(nt, uplo, trans, alpha, a.as_ref(), beta, c.as_mut())
                                }
                                true => syr2k::syr2k(
                                    nt,
                                    uplo,
                                    trans,
                                    alpha,
                                    a.as_ref(),
                                    b.as_ref(),
                                    beta,
                                    c.as_mut(),
                                ),
                            }
                            let label = format!(
                                "{} {kernel:?} {} n={n} nt={nt} {uplo:?} {trans:?}",
                                std::any::type_name::<T>(),
                                if two { "syr2k" } else { "syrk" },
                            );
                            for j in 0..n {
                                for i in 0..n {
                                    let got = c.get(i, j).to_f64();
                                    if in_triangle(i, j) {
                                        let d = (got - expect.get(i, j).to_f64()).abs();
                                        assert!(d / scale < tol, "{label}: ({i},{j}) off by {d:e}");
                                    } else {
                                        assert!(got.is_nan(), "{label}: ({i},{j}) touched");
                                    }
                                }
                            }
                            match &first {
                                None => first = Some(c),
                                Some(base) => assert!(
                                    (0..n).all(|j| (0..n).all(|i| !in_triangle(i, j)
                                        || base.get(i, j).to_f64().to_bits()
                                            == c.get(i, j).to_f64().to_bits())),
                                    "{label}: not bitwise nt-invariant"
                                ),
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn packed_triangular_paths_agree_with_reference_under_every_kernel() {
    let kernels = kernels();
    tri_table::<f64>(&kernels, 1e-11);
    tri_table::<f32>(&kernels, 1e-3);
    tri_power_of_two_ld(&kernels, 1e-11);
    rank_k_table::<f64>(&kernels, 1e-11);
    rank_k_table::<f32>(&kernels, 1e-3);
    assert!(set_kernel_choice(KernelChoice::Auto));
}

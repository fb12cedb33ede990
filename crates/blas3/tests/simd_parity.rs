//! SIMD/scalar parity: every micro-kernel the runtime dispatch can hand out
//! on this machine must agree with a high-precision reference — across full
//! tiles, partial edge tiles (`mr < MR`, `nr < NR`), both precisions, the
//! serial macro-kernel, and all six routine drivers.
//!
//! Tolerances are accumulation-order aware: a blocked/SIMD kernel sums the
//! `k` products in a different order (and with fused multiply-adds) than
//! the naive oracle, so elementwise error is bounded by `~k * eps * |a||b|`
//! magnitudes, not by exact equality.

// Outside the Miri subset: executes vendor SIMD intrinsics.
#![cfg(not(miri))]

use adsala_blas3::kernel::{
    available_f32, available_f64, gemm_serial_with, set_kernel_choice, KernelChoice, KernelDispatch,
};
use adsala_blas3::pack::PackSrc;
use adsala_blas3::{gemm, reference, symm, syr2k, syrk, trmm, trsm};
use adsala_blas3::{Diag, Float, Matrix, Side, Transpose, Uplo};
use proptest::prelude::*;

/// Deterministic value stream in roughly [-2, 2].
fn val(seed: u64, i: usize, j: usize) -> f64 {
    let h = (i as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((j as u64).wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(seed.wrapping_mul(0x94D049BB133111EB));
    ((h >> 40) % 2001) as f64 / 500.0 - 2.0
}

/// Run one kernel on synthetic packed panels against an f64 oracle over the
/// same panels. Exercises: padding lanes (panels are packed at the kernel's
/// full geometry with the dead lanes zeroed, exactly as `pack` produces
/// them), a non-trivial `alpha`, pre-initialised C, `ldc > mr`, and the
/// live `mr x nr` sub-tile write-back.
fn check_microkernel<T: Float>(
    disp: &KernelDispatch<T>,
    kc: usize,
    mr: usize,
    nr: usize,
    seed: u64,
) {
    let (fmr, fnr) = (disp.mr, disp.nr);
    let mut a = vec![T::ZERO; fmr * kc];
    let mut b = vec![T::ZERO; fnr * kc];
    for p in 0..kc {
        for i in 0..mr {
            a[p * fmr + i] = T::from_f64(val(seed, i, p));
        }
        for j in 0..nr {
            b[p * fnr + j] = T::from_f64(val(seed ^ 0xB0B, p, j));
        }
    }
    let alpha = T::from_f64(1.0 + val(seed, 7, 11) / 4.0);
    let ldc = mr + (seed as usize % 3);
    let mut c = vec![T::ZERO; ldc * nr.max(1)];
    for (idx, slot) in c.iter_mut().enumerate() {
        *slot = T::from_f64(val(seed ^ 0xC0C, idx, 0));
    }
    let c0 = c.clone();
    // SAFETY: c is an exclusive mr x nr block with leading dimension
    // ldc >= mr; the panels hold kc full tiles of disp's geometry; disp
    // came from this machine's availability listing.
    unsafe { disp.run(kc, alpha, &a, &b, c.as_mut_ptr(), ldc, mr, nr) };

    let eps = if T::BYTES == 4 {
        f32::EPSILON as f64
    } else {
        f64::EPSILON
    };
    // Each output sums kc products of values in [-2,2] plus the C term;
    // allow a generous constant for reassociation + FMA differences.
    let tol = (kc as f64 + 2.0) * 4.0 * eps * 8.0;
    for j in 0..nr {
        for i in 0..mr {
            let mut acc = 0.0f64;
            for p in 0..kc {
                acc += a[p * fmr + i].to_f64() * b[p * fnr + j].to_f64();
            }
            let expect = alpha.to_f64() * acc + c0[i + j * ldc].to_f64();
            let got = c[i + j * ldc].to_f64();
            assert!(
                (got - expect).abs() <= tol,
                "{}: kc={kc} tile {mr}x{nr} at ({i},{j}): got {got}, expect {expect}",
                disp.name
            );
        }
    }
    // Lanes outside the live sub-tile (the ldc gap) must be untouched.
    for j in 0..nr {
        for i in mr..ldc {
            assert_eq!(
                c[i + j * ldc].to_f64(),
                c0[i + j * ldc].to_f64(),
                "{}: padding lane ({i},{j}) clobbered",
                disp.name
            );
        }
    }
}

/// Full serial blocked product through one dispatch vs the naive oracle.
fn check_gemm_serial<T: Float>(disp: &KernelDispatch<T>, m: usize, n: usize, k: usize, seed: u64) {
    let a = Matrix::<T>::from_fn(m, k, |i, j| T::from_f64(val(seed, i, j)));
    let b = Matrix::<T>::from_fn(k, n, |i, j| T::from_f64(val(seed ^ 0xFE, i, j)));
    let alpha = T::from_f64(1.0 + val(seed, 3, 5) / 4.0);
    let mut c = Matrix::<T>::from_fn(m, n, |i, j| T::from_f64(val(seed ^ 0xC0C, i, j)));
    let c0 = c.clone();
    // SAFETY: c's storage is an exclusive m x n block with ldc = m.
    unsafe {
        gemm_serial_with(
            disp,
            m,
            n,
            k,
            alpha,
            &PackSrc::strided(a.as_slice(), 0, 1, a.ld(), m, k),
            &PackSrc::strided(b.as_slice(), 0, 1, b.ld(), k, n),
            c.as_mut_slice().as_mut_ptr(),
            m,
        );
    }
    let eps = if T::BYTES == 4 {
        f32::EPSILON as f64
    } else {
        f64::EPSILON
    };
    let tol = (k as f64 + 2.0) * 4.0 * eps * 8.0;
    for j in 0..n {
        for i in 0..m {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += a.get(i, p).to_f64() * b.get(p, j).to_f64();
            }
            let expect = alpha.to_f64() * acc + c0.get(i, j).to_f64();
            let got = c.get(i, j).to_f64();
            assert!(
                (got - expect).abs() <= tol,
                "{}: {m}x{n}x{k} at ({i},{j}): got {got}, expect {expect}",
                disp.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every available kernel, both precisions, arbitrary live sub-tiles —
    /// including full tiles (the vector write-back path) and 1x1 corners.
    #[test]
    fn microkernel_matches_oracle_on_full_and_edge_tiles(
        kc in 1usize..70,
        mr_pick in any::<u64>(),
        nr_pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        for disp in available_f32() {
            let mr = 1 + (mr_pick as usize) % disp.mr;
            let nr = 1 + (nr_pick as usize) % disp.nr;
            check_microkernel(&disp, kc, mr, nr, seed);
            // The full tile always deserves a case: it is the hot path.
            check_microkernel(&disp, kc, disp.mr, disp.nr, seed ^ 1);
        }
        for disp in available_f64() {
            let mr = 1 + (mr_pick as usize) % disp.mr;
            let nr = 1 + (nr_pick as usize) % disp.nr;
            check_microkernel(&disp, kc, mr, nr, seed);
            check_microkernel(&disp, kc, disp.mr, disp.nr, seed ^ 1);
        }
    }

    /// The serial macro-kernel agrees with the oracle for every kernel's
    /// geometry, across shapes that produce interior blocks, edge panels,
    /// and sub-register shapes.
    #[test]
    fn gemm_serial_matches_oracle_for_every_kernel(
        m in 1usize..70,
        n in 1usize..70,
        k in 1usize..70,
        seed in any::<u64>(),
    ) {
        for disp in available_f32() {
            check_gemm_serial(&disp, m, n, k, seed);
        }
        for disp in available_f64() {
            check_gemm_serial(&disp, m, n, k, seed);
        }
    }
}

fn det_mat<T: Float>(r: usize, c: usize, seed: u64) -> Matrix<T> {
    Matrix::from_fn(r, c, |i, j| T::from_f64(val(seed, i, j)))
}

fn rel_diff<T: Float>(got: &Matrix<T>, expect: &Matrix<T>) -> f64 {
    got.max_abs_diff(expect) / expect.frob_norm().max(1.0)
}

/// Drive all six routines through each forcible kernel choice and compare
/// against the naive reference, then hold every SIMD kernel to the first
/// one's result bits. This is the only test that mutates the process-wide
/// kernel override, so it owns start-to-finish; the proptest parity above
/// uses explicit dispatch objects and is unaffected.
///
/// The bit comparison leaves the scalar kernel out: its 8 x 4 f64 tile
/// solves TRSM's diagonal blocks four columns at a time where every SIMD
/// tile takes six, which reorders the solve's updates. The SIMD kernels
/// share `nr` and `kc`, and each element's sum runs in the same order
/// whatever their `mr`, so switching among them changes speed, not numbers.
#[test]
fn all_routines_agree_with_reference_under_every_kernel_choice() {
    let choices = [
        KernelChoice::Scalar,
        KernelChoice::Avx2,
        KernelChoice::Avx512,
        KernelChoice::Neon,
    ];
    let mut first_simd: Option<(KernelChoice, ResultBits)> = None;
    for choice in choices {
        if !set_kernel_choice(choice) {
            continue; // not compiled in / not on this CPU
        }
        // 37 x 29 sits off every register block.
        let mut results = routine_bits(choice, 37, 29, true);
        if choice == KernelChoice::Scalar {
            continue;
        }
        // One past every SIMD dispatch's `kc` (256): k runs into a second
        // rank-`kc` update. The bit comparison alone checks it.
        results.extend(routine_bits(choice, 257, 257, false));
        match &first_simd {
            None => first_simd = Some((choice, results)),
            Some((first, expect)) => {
                assert_eq!(results.len(), expect.len());
                for ((what, got), (_, want)) in results.iter().zip(expect) {
                    let differ = got.iter().zip(want).filter(|(g, w)| g != w).count();
                    assert_eq!(
                        differ, 0,
                        "{what}: {choice:?} and {first:?} differ in {differ} elements"
                    );
                }
            }
        }
    }
    assert!(set_kernel_choice(KernelChoice::Auto));
}

/// Each routine result's label and its elements' bits.
type ResultBits = Vec<(String, Vec<u64>)>;

/// [`check_routines`] in both precisions; `checked` holds every result to
/// the reference.
fn routine_bits(choice: KernelChoice, m: usize, n: usize, checked: bool) -> ResultBits {
    let mut out = check_routines::<f64>(m, n, checked.then_some(1e-11), &format!("{choice:?}/f64"));
    out.extend(check_routines::<f32>(
        m,
        n,
        checked.then_some(1e-3),
        &format!("{choice:?}/f32"),
    ));
    out
}

/// A matrix's elements as bits (`f32` widens to `f64` exactly, so equal
/// bits here are equal bits in `T`).
fn bits<T: Float>(m: &Matrix<T>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
}

/// All six routines at `m x n` (C is `m x m` or `m x n`), at nt 1 and 3,
/// each checked against the reference to within `tol` when there is one;
/// returns the outputs' bits.
fn check_routines<T: Float>(m: usize, n: usize, tol: Option<f64>, label: &str) -> ResultBits {
    let label = format!("{label} {m}x{n}");
    let mut out = Vec::new();
    for nt in [1usize, 3] {
        // GEMM (both transposes exercised by the kernel-level tests above;
        // one mixed case here).
        let a = det_mat::<T>(m, n, 1);
        let b = det_mat::<T>(m, n, 2);
        let c0 = det_mat::<T>(m, m, 3);
        let mut c = c0.clone();
        gemm::gemm(
            nt,
            Transpose::No,
            Transpose::Yes,
            T::from_f64(1.3),
            a.as_ref(),
            b.as_ref(),
            T::from_f64(0.7),
            c.as_mut(),
        );
        if let Some(tol) = tol {
            let mut expect = c0.clone();
            reference::gemm(
                Transpose::No,
                Transpose::Yes,
                T::from_f64(1.3),
                &a,
                &b,
                T::from_f64(0.7),
                &mut expect,
            );
            assert!(rel_diff(&c, &expect) < tol, "{label} gemm nt={nt}");
        }
        out.push((format!("{label} gemm nt={nt}"), bits(&c)));

        // SYMM
        let sa = det_mat::<T>(m, m, 4);
        let sb = det_mat::<T>(m, n, 5);
        let sc0 = det_mat::<T>(m, n, 6);
        let mut sc = sc0.clone();
        symm::symm(
            nt,
            Side::Left,
            Uplo::Upper,
            T::from_f64(1.1),
            sa.as_ref(),
            sb.as_ref(),
            T::from_f64(-0.4),
            sc.as_mut(),
        );
        if let Some(tol) = tol {
            let mut sexpect = sc0.clone();
            reference::symm(
                Side::Left,
                Uplo::Upper,
                T::from_f64(1.1),
                &sa,
                &sb,
                T::from_f64(-0.4),
                &mut sexpect,
            );
            assert!(rel_diff(&sc, &sexpect) < tol, "{label} symm nt={nt}");
        }
        out.push((format!("{label} symm nt={nt}"), bits(&sc)));

        // SYRK
        let ka = det_mat::<T>(m, n, 7);
        let kc0 = det_mat::<T>(m, m, 8);
        let mut kc = kc0.clone();
        syrk::syrk(
            nt,
            Uplo::Lower,
            Transpose::No,
            T::from_f64(0.9),
            ka.as_ref(),
            T::from_f64(0.2),
            kc.as_mut(),
        );
        if let Some(tol) = tol {
            let mut kexpect = kc0.clone();
            reference::syrk(
                Uplo::Lower,
                Transpose::No,
                T::from_f64(0.9),
                &ka,
                T::from_f64(0.2),
                &mut kexpect,
            );
            assert!(rel_diff(&kc, &kexpect) < tol, "{label} syrk nt={nt}");
        }
        out.push((format!("{label} syrk nt={nt}"), bits(&kc)));

        // SYR2K
        let ra = det_mat::<T>(m, n, 9);
        let rb = det_mat::<T>(m, n, 10);
        let rc0 = det_mat::<T>(m, m, 11);
        let mut rc = rc0.clone();
        syr2k::syr2k(
            nt,
            Uplo::Upper,
            Transpose::No,
            T::from_f64(1.2),
            ra.as_ref(),
            rb.as_ref(),
            T::from_f64(0.5),
            rc.as_mut(),
        );
        if let Some(tol) = tol {
            let mut rexpect = rc0.clone();
            reference::syr2k(
                Uplo::Upper,
                Transpose::No,
                T::from_f64(1.2),
                &ra,
                &rb,
                T::from_f64(0.5),
                &mut rexpect,
            );
            assert!(rel_diff(&rc, &rexpect) < tol, "{label} syr2k nt={nt}");
        }
        out.push((format!("{label} syr2k nt={nt}"), bits(&rc)));

        // TRMM
        let mut ta = det_mat::<T>(m, m, 12);
        for i in 0..m {
            ta.set(i, i, T::from_f64(3.0 + (i % 3) as f64));
        }
        let mut tb = det_mat::<T>(m, n, 13);
        let mut texpect = tb.clone();
        trmm::trmm(
            nt,
            Side::Left,
            Uplo::Upper,
            Transpose::No,
            Diag::NonUnit,
            T::from_f64(1.4),
            ta.as_ref(),
            tb.as_mut(),
        );
        if let Some(tol) = tol {
            reference::trmm(
                Side::Left,
                Uplo::Upper,
                Transpose::No,
                Diag::NonUnit,
                T::from_f64(1.4),
                &ta,
                &mut texpect,
            );
            assert!(rel_diff(&tb, &texpect) < tol, "{label} trmm nt={nt}");
        }
        out.push((format!("{label} trmm nt={nt}"), bits(&tb)));

        // TRSM (well-conditioned diagonal set above)
        let mut ub = det_mat::<T>(m, n, 14);
        let mut uexpect = ub.clone();
        trsm::trsm(
            nt,
            Side::Left,
            Uplo::Upper,
            Transpose::No,
            Diag::NonUnit,
            T::from_f64(0.8),
            ta.as_ref(),
            ub.as_mut(),
        );
        if let Some(tol) = tol {
            reference::trsm(
                Side::Left,
                Uplo::Upper,
                Transpose::No,
                Diag::NonUnit,
                T::from_f64(0.8),
                &ta,
                &mut uexpect,
            );
            assert!(rel_diff(&ub, &uexpect) < tol, "{label} trsm nt={nt}");
        }
        out.push((format!("{label} trsm nt={nt}"), bits(&ub)));
    }
    out
}

/// The geometry the packer and macro-kernel rely on must hold for every
/// dispatch: full tiles fit the panels, and `mc` tiles evenly by `mr`.
#[test]
fn every_available_dispatch_reports_sane_geometry() {
    for disp in available_f32() {
        assert!(
            disp.mr >= 1 && disp.nr >= 1 && disp.kc >= 1,
            "{}",
            disp.name
        );
        assert_eq!(disp.mc % disp.mr, 0, "{}", disp.name);
    }
    for disp in available_f64() {
        assert!(
            disp.mr >= 1 && disp.nr >= 1 && disp.kc >= 1,
            "{}",
            disp.name
        );
        assert_eq!(disp.mc % disp.mr, 0, "{}", disp.name);
    }
}

//! Cross-crate numerical validation: the optimised BLAS L3 routines (used
//! by the ADSALA runtime) against the naive reference implementations, on
//! shapes drawn from the *actual sampler domains* (capped for test speed) —
//! i.e. the shapes the paper's workloads produce, not hand-picked ones.

use adsala_repro::blas3::op::{OpKind, Routine};
use adsala_repro::blas3::{reference, Diag, Matrix, Side, Transpose, Uplo, VecMut, VecRef};
use adsala_repro::sampling::DomainSampler;

fn cap(v: usize) -> usize {
    8 + v % 120 // keep test matrices small but shape-diverse
}

fn mat(r: usize, c: usize, seed: u64) -> Matrix<f64> {
    Matrix::from_fn(r, c, |i, j| {
        let h = (i as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((j as u64).wrapping_mul(0x2545F4914F6CDD1D))
            .wrapping_add(seed);
        ((h >> 40) % 1000) as f64 / 200.0 - 2.5
    })
}

fn tri(n: usize, seed: u64) -> Matrix<f64> {
    let mut a = mat(n, n, seed);
    for i in 0..n {
        a.set(i, i, 5.0 + (i % 3) as f64);
    }
    a
}

fn vecd(n: usize, seed: u64) -> Vec<f64> {
    let m = mat(n, 1, seed);
    (0..n).map(|i| m.get(i, 0)).collect()
}

fn vec_rel_diff(got: &[f64], want: &[f64]) -> f64 {
    let scale = want.iter().fold(1.0f64, |m, w| m.max(w.abs()));
    got.iter()
        .zip(want)
        .fold(0.0f64, |m, (g, w)| m.max((g - w).abs()))
        / scale
}

#[test]
fn sampled_shapes_match_reference() {
    for routine in Routine::all()
        .into_iter()
        .filter(|r| r.prec == adsala_repro::blas3::op::Precision::Double)
    {
        let mut sampler = DomainSampler::new(routine, 4, 42);
        for trial in 0..6 {
            let s = sampler.sample();
            let nt = s.nt;
            match routine.op {
                OpKind::Gemm => {
                    let (m, k, n) = (cap(s.dims.a()), cap(s.dims.b()), cap(s.dims.c()));
                    let a = mat(m, k, 1);
                    let b = mat(k, n, 2);
                    let mut c = mat(m, n, 3);
                    let mut e = c.clone();
                    adsala_repro::blas3::gemm::gemm(
                        nt,
                        Transpose::No,
                        Transpose::No,
                        1.1,
                        a.as_ref(),
                        b.as_ref(),
                        0.5,
                        c.as_mut(),
                    );
                    reference::gemm(Transpose::No, Transpose::No, 1.1, &a, &b, 0.5, &mut e);
                    assert!(
                        c.max_abs_diff(&e) / e.frob_norm().max(1.0) < 1e-12,
                        "gemm trial {trial}"
                    );
                }
                OpKind::Symm => {
                    let (m, n) = (cap(s.dims.a()), cap(s.dims.b()));
                    let a = mat(m, m, 4);
                    let b = mat(m, n, 5);
                    let mut c = mat(m, n, 6);
                    let mut e = c.clone();
                    adsala_repro::blas3::symm::symm(
                        nt,
                        Side::Left,
                        Uplo::Lower,
                        0.9,
                        a.as_ref(),
                        b.as_ref(),
                        -0.4,
                        c.as_mut(),
                    );
                    reference::symm(Side::Left, Uplo::Lower, 0.9, &a, &b, -0.4, &mut e);
                    assert!(
                        c.max_abs_diff(&e) / e.frob_norm().max(1.0) < 1e-12,
                        "symm trial {trial}"
                    );
                }
                OpKind::Syrk => {
                    let (n, k) = (cap(s.dims.a()), cap(s.dims.b()));
                    let a = mat(n, k, 7);
                    let mut c = mat(n, n, 8);
                    let mut e = c.clone();
                    adsala_repro::blas3::syrk::syrk(
                        nt,
                        Uplo::Upper,
                        Transpose::No,
                        1.3,
                        a.as_ref(),
                        0.2,
                        c.as_mut(),
                    );
                    reference::syrk(Uplo::Upper, Transpose::No, 1.3, &a, 0.2, &mut e);
                    assert!(
                        c.max_abs_diff(&e) / e.frob_norm().max(1.0) < 1e-12,
                        "syrk trial {trial}"
                    );
                }
                OpKind::Syr2k => {
                    let (n, k) = (cap(s.dims.a()), cap(s.dims.b()));
                    let a = mat(n, k, 9);
                    let b = mat(n, k, 10);
                    let mut c = mat(n, n, 11);
                    let mut e = c.clone();
                    adsala_repro::blas3::syr2k::syr2k(
                        nt,
                        Uplo::Lower,
                        Transpose::Yes,
                        0.7,
                        a.transposed().as_ref(),
                        b.transposed().as_ref(),
                        0.1,
                        c.as_mut(),
                    );
                    reference::syr2k(
                        Uplo::Lower,
                        Transpose::Yes,
                        0.7,
                        &a.transposed(),
                        &b.transposed(),
                        0.1,
                        &mut e,
                    );
                    assert!(
                        c.max_abs_diff(&e) / e.frob_norm().max(1.0) < 1e-12,
                        "syr2k trial {trial}"
                    );
                }
                OpKind::Trmm => {
                    let (m, n) = (cap(s.dims.a()), cap(s.dims.b()));
                    let a = tri(m, 12);
                    let mut b = mat(m, n, 13);
                    let mut e = b.clone();
                    adsala_repro::blas3::trmm::trmm(
                        nt,
                        Side::Left,
                        Uplo::Lower,
                        Transpose::No,
                        Diag::NonUnit,
                        1.0,
                        a.as_ref(),
                        b.as_mut(),
                    );
                    reference::trmm(
                        Side::Left,
                        Uplo::Lower,
                        Transpose::No,
                        Diag::NonUnit,
                        1.0,
                        &a,
                        &mut e,
                    );
                    assert!(
                        b.max_abs_diff(&e) / e.frob_norm().max(1.0) < 1e-12,
                        "trmm trial {trial}"
                    );
                }
                OpKind::Trsm => {
                    let (m, n) = (cap(s.dims.a()), cap(s.dims.b()));
                    let a = tri(m, 14);
                    let mut b = mat(m, n, 15);
                    let mut e = b.clone();
                    adsala_repro::blas3::trsm::trsm(
                        nt,
                        Side::Right,
                        Uplo::Upper,
                        Transpose::No,
                        Diag::NonUnit,
                        2.0,
                        tri(n, 16).as_ref(),
                        b.as_mut(),
                    );
                    reference::trsm(
                        Side::Right,
                        Uplo::Upper,
                        Transpose::No,
                        Diag::NonUnit,
                        2.0,
                        &tri(n, 16),
                        &mut e,
                    );
                    assert!(
                        b.max_abs_diff(&e) / e.frob_norm().max(1.0) < 1e-10,
                        "trsm trial {trial}"
                    );
                    let _ = a;
                }
                OpKind::Gemv => {
                    let (m, n) = (cap(s.dims.a()), cap(s.dims.b()));
                    let a = mat(m, n, 17);
                    let x = vecd(n, 18);
                    let mut y = vecd(m, 19);
                    let mut e = y.clone();
                    adsala_repro::blas3::level2::gemv(
                        nt,
                        Transpose::No,
                        1.1,
                        a.as_ref(),
                        VecRef::new(n, 1, &x),
                        0.5,
                        VecMut::new(m, 1, &mut y),
                    );
                    reference::gemv(Transpose::No, 1.1, &a, &x, 0.5, &mut e);
                    assert!(vec_rel_diff(&y, &e) < 1e-12, "gemv trial {trial}");
                }
                OpKind::Ger => {
                    let (m, n) = (cap(s.dims.a()), cap(s.dims.b()));
                    let mut a = mat(m, n, 20);
                    let mut e = a.clone();
                    let x = vecd(m, 21);
                    let y = vecd(n, 22);
                    adsala_repro::blas3::level2::ger(
                        nt,
                        0.8,
                        VecRef::new(m, 1, &x),
                        VecRef::new(n, 1, &y),
                        a.as_mut(),
                    );
                    reference::ger(0.8, &x, &y, &mut e);
                    assert!(
                        a.max_abs_diff(&e) / e.frob_norm().max(1.0) < 1e-12,
                        "ger trial {trial}"
                    );
                }
                OpKind::Symv => {
                    let n = cap(s.dims.a());
                    let a = mat(n, n, 23);
                    let x = vecd(n, 24);
                    let mut y = vecd(n, 25);
                    let mut e = y.clone();
                    adsala_repro::blas3::level2::symv(
                        nt,
                        Uplo::Lower,
                        0.9,
                        a.as_ref(),
                        VecRef::new(n, 1, &x),
                        -0.4,
                        VecMut::new(n, 1, &mut y),
                    );
                    reference::symv(Uplo::Lower, 0.9, &a, &x, -0.4, &mut e);
                    assert!(vec_rel_diff(&y, &e) < 1e-12, "symv trial {trial}");
                }
                OpKind::Trmv => {
                    let n = cap(s.dims.a());
                    let a = tri(n, 26);
                    let mut x = vecd(n, 27);
                    let mut e = x.clone();
                    adsala_repro::blas3::level2::trmv(
                        Uplo::Upper,
                        Transpose::No,
                        Diag::NonUnit,
                        a.as_ref(),
                        VecMut::new(n, 1, &mut x),
                    );
                    reference::trmv(Uplo::Upper, Transpose::No, Diag::NonUnit, &a, &mut e);
                    assert!(vec_rel_diff(&x, &e) < 1e-12, "trmv trial {trial}");
                }
                OpKind::Trsv => {
                    let n = cap(s.dims.a());
                    let a = tri(n, 28);
                    let mut x = vecd(n, 29);
                    let mut e = x.clone();
                    adsala_repro::blas3::level2::trsv(
                        Uplo::Lower,
                        Transpose::No,
                        Diag::NonUnit,
                        a.as_ref(),
                        VecMut::new(n, 1, &mut x),
                    );
                    reference::trsv(Uplo::Lower, Transpose::No, Diag::NonUnit, &a, &mut e);
                    assert!(vec_rel_diff(&x, &e) < 1e-10, "trsv trial {trial}");
                }
            }
        }
    }
}

#[test]
fn gemm_associativity_with_identity_chain() {
    // (A*I)*B == A*(I*B) == A*B across thread counts.
    let m = 60;
    let a = mat(m, m, 21);
    let b = mat(m, m, 22);
    let id = Matrix::<f64>::identity(m);
    let mut ab = Matrix::<f64>::zeros(m, m);
    adsala_repro::blas3::gemm::gemm(
        3,
        Transpose::No,
        Transpose::No,
        1.0,
        a.as_ref(),
        b.as_ref(),
        0.0,
        ab.as_mut(),
    );
    let mut ai = Matrix::<f64>::zeros(m, m);
    adsala_repro::blas3::gemm::gemm(
        2,
        Transpose::No,
        Transpose::No,
        1.0,
        a.as_ref(),
        id.as_ref(),
        0.0,
        ai.as_mut(),
    );
    let mut aib = Matrix::<f64>::zeros(m, m);
    adsala_repro::blas3::gemm::gemm(
        4,
        Transpose::No,
        Transpose::No,
        1.0,
        ai.as_ref(),
        b.as_ref(),
        0.0,
        aib.as_mut(),
    );
    assert!(ab.max_abs_diff(&aib) < 1e-10);
}

#[test]
fn results_identical_across_thread_counts() {
    // Our partitioning never changes summation order within a C element,
    // so results must be bitwise identical across nt.
    let m = 100;
    let a = mat(m, m, 31);
    let b = mat(m, m, 32);
    let mut c1 = Matrix::<f64>::zeros(m, m);
    adsala_repro::blas3::gemm::gemm(
        1,
        Transpose::No,
        Transpose::No,
        1.0,
        a.as_ref(),
        b.as_ref(),
        0.0,
        c1.as_mut(),
    );
    for nt in [2usize, 3, 7] {
        let mut c = Matrix::<f64>::zeros(m, m);
        adsala_repro::blas3::gemm::gemm(
            nt,
            Transpose::No,
            Transpose::No,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        assert_eq!(c, c1, "nt={nt} changed the result bits");
    }
}

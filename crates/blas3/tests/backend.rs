//! Backend-seam tests: the two shipped backends must agree numerically when
//! driven through the object-safe trait path, and reject malformed calls
//! with typed errors. (Which call shapes `validate` rejects, and with what,
//! is the table-driven test of `call.rs` / `call2.rs`.)

// Outside the Miri subset: exercises the OS thread pool.
#![cfg(not(miri))]

use adsala_blas3::call::{Blas3Error, Blas3Op};
use adsala_blas3::{
    Blas3Backend, Diag, MatMut, MatRef, Matrix, NativeBackend, ReferenceBackend, Side, Transpose,
    Uplo,
};

fn mat(r: usize, c: usize, seed: u64) -> Matrix<f64> {
    Matrix::from_fn(r, c, |i, j| {
        let h = (i as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((j as u64).wrapping_mul(0xD1B54A32D192ED03))
            .wrapping_add(seed.wrapping_mul(0xBF58476D1CE4E5B9));
        ((h >> 40) % 1000) as f64 / 100.0 - 5.0
    })
}

fn tri(n: usize, seed: u64) -> Matrix<f64> {
    let mut a = mat(n, n, seed);
    for i in 0..n {
        a.set(i, i, 4.0 + (i % 3) as f64);
    }
    a
}

// ------------------------------------------------------------------- views

#[test]
fn view_construction_errors_carry_shape_context() {
    let d = [0.0f64; 10];
    match MatRef::try_new(4, 3, 4, &d) {
        Err(Blas3Error::ShortSlice { needed, got, .. }) => {
            assert_eq!(needed, 12);
            assert_eq!(got, 10);
        }
        other => panic!("expected ShortSlice, got {other:?}"),
    }
    let mut m = [0.0f64; 10];
    assert!(matches!(
        MatMut::try_new(4, 2, 3, &mut m),
        Err(Blas3Error::BadLeadingDim { ld: 3, rows: 4, .. })
    ));
}

// ------------------------------------------------- backend agreement (dyn)

/// Execute one op description on a `dyn`-object backend.
fn execute_dyn(backend: &dyn Blas3Backend, nt: usize, op: Blas3Op<'_, f64>) {
    backend
        .execute_f64(nt, op)
        .unwrap_or_else(|e| panic!("{} backend rejected a valid op: {e}", backend.name()));
}

#[test]
fn native_and_reference_agree_through_trait_objects() {
    let backends: [&dyn Blas3Backend; 2] = [&NativeBackend, &ReferenceBackend];
    let (m, n, k) = (23, 17, 31);

    // One representative call per variant; each backend fills its own C
    // starting from identical contents.
    for nt in [1usize, 3] {
        let mut results: Vec<Vec<Matrix<f64>>> = Vec::new();
        for backend in backends {
            let mut per_op = Vec::new();

            let a = mat(m, k, 1);
            let b = mat(k, n, 2);
            let mut c = mat(m, n, 3);
            execute_dyn(
                backend,
                nt,
                Blas3Op::Gemm {
                    transa: Transpose::No,
                    transb: Transpose::No,
                    alpha: 1.3,
                    a: a.as_ref(),
                    b: b.as_ref(),
                    beta: 0.4,
                    c: c.as_mut(),
                },
            );
            per_op.push(c);

            let a = mat(m, m, 4);
            let b = mat(m, n, 5);
            let mut c = mat(m, n, 6);
            execute_dyn(
                backend,
                nt,
                Blas3Op::Symm {
                    side: Side::Left,
                    uplo: Uplo::Upper,
                    alpha: 0.9,
                    a: a.as_ref(),
                    b: b.as_ref(),
                    beta: -0.2,
                    c: c.as_mut(),
                },
            );
            per_op.push(c);

            let a = mat(n, k, 7);
            let mut c = mat(n, n, 8);
            execute_dyn(
                backend,
                nt,
                Blas3Op::Syrk {
                    uplo: Uplo::Lower,
                    trans: Transpose::No,
                    alpha: 1.1,
                    a: a.as_ref(),
                    beta: 0.6,
                    c: c.as_mut(),
                },
            );
            per_op.push(c);

            let a = mat(n, k, 9);
            let b = mat(n, k, 10);
            let mut c = mat(n, n, 11);
            execute_dyn(
                backend,
                nt,
                Blas3Op::Syr2k {
                    uplo: Uplo::Upper,
                    trans: Transpose::No,
                    alpha: 0.7,
                    a: a.as_ref(),
                    b: b.as_ref(),
                    beta: 0.1,
                    c: c.as_mut(),
                },
            );
            per_op.push(c);

            let a = tri(m, 12);
            let mut b = mat(m, n, 13);
            execute_dyn(
                backend,
                nt,
                Blas3Op::Trmm {
                    side: Side::Left,
                    uplo: Uplo::Lower,
                    trans: Transpose::No,
                    diag: Diag::NonUnit,
                    alpha: 1.0,
                    a: a.as_ref(),
                    b: b.as_mut(),
                },
            );
            per_op.push(b);

            let a = tri(n, 14);
            let mut b = mat(m, n, 15);
            execute_dyn(
                backend,
                nt,
                Blas3Op::Trsm {
                    side: Side::Right,
                    uplo: Uplo::Upper,
                    trans: Transpose::No,
                    diag: Diag::NonUnit,
                    alpha: 2.0,
                    a: a.as_ref(),
                    b: b.as_mut(),
                },
            );
            per_op.push(b);

            results.push(per_op);
        }

        let names = ["gemm", "symm", "syrk", "syr2k", "trmm", "trsm"];
        for (i, name) in names.iter().enumerate() {
            let scale = results[1][i].frob_norm().max(1.0);
            let diff = results[0][i].max_abs_diff(&results[1][i]) / scale;
            assert!(
                diff < 1e-12,
                "{name} nt={nt}: native vs reference diff {diff}"
            );
        }
    }
}

#[test]
fn backends_validate_before_executing() {
    // Both backends must reject the same malformed op with a typed error
    // (not a panic) through the trait-object path.
    let backends: [&dyn Blas3Backend; 2] = [&NativeBackend, &ReferenceBackend];
    for backend in backends {
        let a = mat(4, 5, 1);
        let b = mat(9, 3, 2); // inner 5 vs 9
        let mut c = Matrix::<f64>::zeros(4, 3);
        let err = backend
            .execute_f64(
                1,
                Blas3Op::Gemm {
                    transa: Transpose::No,
                    transb: Transpose::No,
                    alpha: 1.0,
                    a: a.as_ref(),
                    b: b.as_ref(),
                    beta: 0.0,
                    c: c.as_mut(),
                },
            )
            .unwrap_err();
        assert!(
            matches!(err, Blas3Error::DimMismatch { got: (5, 9), .. }),
            "{}: {err:?}",
            backend.name()
        );
    }
}

#[test]
fn generic_execute_works_on_boxed_trait_objects() {
    // The generic convenience path must also serve `Box<dyn Blas3Backend>`,
    // which is how a runtime with a runtime-chosen backend stores it.
    let backend: Box<dyn Blas3Backend> = Box::new(ReferenceBackend);
    let a = Matrix::<f64>::identity(6);
    let b = mat(6, 4, 1);
    let mut c = Matrix::<f64>::zeros(6, 4);
    backend
        .execute(
            1,
            Blas3Op::Gemm {
                transa: Transpose::No,
                transb: Transpose::No,
                alpha: 1.0,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: 0.0,
                c: c.as_mut(),
            },
        )
        .unwrap();
    assert!(c.max_abs_diff(&b) < 1e-15);
    assert_eq!(backend.name(), "reference");
    assert_eq!(backend.max_threads(), 1);
}

#[test]
fn subviews_flow_through_backends() {
    // A Blas3Op over sub-views must only touch the viewed window.
    let big = mat(10, 10, 1);
    let mut out = Matrix::<f64>::filled(10, 10, 7.0);
    {
        let a = big.as_ref().submatrix(1, 1, 4, 3).unwrap();
        let b = big.as_ref().submatrix(2, 4, 3, 5).unwrap();
        let c = out.as_mut().submatrix(3, 2, 4, 5).unwrap();
        NativeBackend
            .execute(
                2,
                Blas3Op::Gemm {
                    transa: Transpose::No,
                    transb: Transpose::No,
                    alpha: 1.0,
                    a,
                    b,
                    beta: 0.0,
                    c,
                },
            )
            .unwrap();
    }
    // Everything outside the 4x5 window at (3,2) is untouched.
    let mut touched = 0;
    for i in 0..10 {
        for j in 0..10 {
            let inside = (3..7).contains(&i) && (2..7).contains(&j);
            if inside {
                touched += 1;
            } else {
                assert_eq!(out.get(i, j), 7.0, "({i},{j}) outside window modified");
            }
        }
    }
    assert_eq!(touched, 20);
    // And the window holds the expected product.
    let mut expect = Matrix::<f64>::zeros(4, 5);
    let am = big.as_ref().submatrix(1, 1, 4, 3).unwrap().to_matrix();
    let bm = big.as_ref().submatrix(2, 4, 3, 5).unwrap().to_matrix();
    adsala_blas3::reference::gemm(
        Transpose::No,
        Transpose::No,
        1.0,
        &am,
        &bm,
        0.0,
        &mut expect,
    );
    for i in 0..4 {
        for j in 0..5 {
            assert!((out.get(3 + i, 2 + j) - expect.get(i, j)).abs() < 1e-12);
        }
    }
}

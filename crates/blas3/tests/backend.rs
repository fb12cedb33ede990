//! Backend-seam tests: the two shipped backends must agree numerically when
//! driven through the object-safe trait path, and reject malformed calls
//! with typed errors. (Which call shapes `validate` rejects, and with what,
//! is the table-driven test of `call.rs`.)

// Outside the Miri subset: exercises the OS thread pool.
#![cfg(not(miri))]

use adsala_blas3::call::{Blas3Error, Blas3Op};
use adsala_blas3::{
    Blas3Backend, Diag, MatMut, MatRef, Matrix, NativeBackend, ReferenceBackend, Side, Transpose,
    Uplo, VecMut, VecRef,
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

#[test]
fn backends_validate_before_executing() {
    // Both backends must reject the same malformed op with a typed error
    // (not a panic) through the trait-object path.
    for backend in NATIVE_AND_REFERENCE {
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
    // A Level 2 call takes the same object-safe entry point.
    let x = [1.0, 2.0, 3.0, 4.0];
    let mut y = [0.0f64; 6];
    backend
        .execute_f64(
            1,
            Blas3Op::Gemv {
                trans: Transpose::No,
                alpha: 1.0,
                a: b.as_ref(),
                x: VecRef::new(4, 1, &x),
                beta: 0.0,
                y: VecMut::new(6, 1, &mut y),
            },
        )
        .unwrap();
    for (i, v) in y.iter().enumerate() {
        let want: f64 = (0..4).map(|j| b.get(i, j) * x[j]).sum();
        assert!((v - want).abs() < 1e-12, "y[{i}] = {v}, want {want}");
    }
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

// ------------------------------------------ backend agreement, table-driven

const NATIVE_AND_REFERENCE: [&dyn Blas3Backend; 2] = [&NativeBackend, &ReferenceBackend];
const LEVEL3: [&str; 6] = ["gemm", "symm", "syrk", "syr2k", "trmm", "trsm"];

/// A finite operand; square ones get a strong diagonal so TRSM is stable.
fn operand(r: usize, c: usize, seed: u64) -> Matrix<f64> {
    if r == c {
        tri(r, seed)
    } else {
        mat(r, c, seed)
    }
}

fn nan(r: usize, c: usize, _seed: u64) -> Matrix<f64> {
    Matrix::filled(r, c, f64::NAN)
}

/// Run one Level-3 `routine` with output `m x n` (`n x n` for SYRK/SYR2K),
/// inner dimension `k`, read-only operands built by `input`, and a finite
/// C; TRMM/TRSM's in-place B is built by `input` too. SYMM and TRMM apply
/// A from the left, TRSM from the right. Returns the call's result and the
/// output operand.
fn level3(
    backend: &dyn Blas3Backend,
    nt: usize,
    routine: &str,
    uplo: Uplo,
    (m, n, k): (usize, usize, usize),
    (alpha, beta): (f64, f64),
    input: fn(usize, usize, u64) -> Matrix<f64>,
) -> (Result<(), Blas3Error>, Matrix<f64>) {
    let (a, b) = match routine {
        "gemm" => (input(m, k, 1), input(k, n, 2)),
        "symm" | "trmm" => (input(m, m, 1), input(m, n, 2)),
        "syrk" | "syr2k" => (input(n, k, 1), input(n, k, 2)),
        "trsm" => (input(n, n, 1), input(m, n, 2)),
        other => unreachable!("{other}"),
    };
    let (a, b) = (a.as_ref(), b.as_ref());
    let mut c = match routine {
        "syrk" | "syr2k" => mat(n, n, 3),
        "trmm" | "trsm" => b.to_matrix(),
        _ => mat(m, n, 3),
    };
    let (no, diag) = (Transpose::No, Diag::NonUnit);
    let op = match routine {
        "gemm" => Blas3Op::Gemm {
            transa: no,
            transb: no,
            alpha,
            a,
            b,
            beta,
            c: c.as_mut(),
        },
        "symm" => Blas3Op::Symm {
            side: Side::Left,
            uplo,
            alpha,
            a,
            b,
            beta,
            c: c.as_mut(),
        },
        "syrk" => Blas3Op::Syrk {
            uplo,
            trans: no,
            alpha,
            a,
            beta,
            c: c.as_mut(),
        },
        "syr2k" => Blas3Op::Syr2k {
            uplo,
            trans: no,
            alpha,
            a,
            b,
            beta,
            c: c.as_mut(),
        },
        "trmm" => Blas3Op::Trmm {
            side: Side::Left,
            uplo,
            trans: no,
            diag,
            alpha,
            a,
            b: c.as_mut(),
        },
        _ => Blas3Op::Trsm {
            side: Side::Right,
            uplo,
            trans: no,
            diag,
            alpha,
            a,
            b: c.as_mut(),
        },
    };
    (backend.execute_f64(nt, op), c)
}

/// Run one Level-2 `routine` (`gemv`, `symv` or `ger`) on a finite A and
/// y with `x` (and GER's `y`) built by `input`; returns the output operand.
fn level2(
    backend: &dyn Blas3Backend,
    nt: usize,
    routine: &str,
    (alpha, beta): (f64, f64),
    input: fn(usize, usize, u64) -> Matrix<f64>,
) -> Matrix<f64> {
    let (m, n) = (7, 5);
    let rows = if routine == "symv" { n } else { m };
    let mut a = mat(rows, n, 1);
    let (x, col) = (input(n, 1, 2), input(m, 1, 4));
    let mut y = mat(rows, 1, 3);
    let x = VecRef::new(n, 1, x.as_slice());
    let op = match routine {
        "gemv" => Blas3Op::Gemv {
            trans: Transpose::No,
            alpha,
            a: a.as_ref(),
            x,
            beta,
            y: VecMut::new(m, 1, y.as_mut_slice()),
        },
        "symv" => Blas3Op::Symv {
            uplo: Uplo::Upper,
            alpha,
            a: a.as_ref(),
            x,
            beta,
            y: VecMut::new(n, 1, y.as_mut_slice()),
        },
        _ => Blas3Op::Ger {
            alpha,
            x: VecRef::new(m, 1, col.as_slice()),
            y: x,
            a: a.as_mut(),
        },
    };
    backend.execute_f64(nt, op).unwrap();
    if routine == "ger" {
        a
    } else {
        y
    }
}

/// Each routine once per triangle through the trait-object path: the
/// blocked kernels against the naive oracles.
#[test]
fn native_and_reference_agree_through_trait_objects() {
    for nt in [1, 3] {
        for (routine, uplo) in LEVEL3
            .into_iter()
            .flat_map(|r| [(r, Uplo::Upper), (r, Uplo::Lower)])
        {
            let [native, reference] = NATIVE_AND_REFERENCE.map(|backend| {
                let (res, out) = level3(
                    backend,
                    nt,
                    routine,
                    uplo,
                    (23, 17, 31),
                    (1.3, 0.4),
                    operand,
                );
                res.unwrap_or_else(|e| panic!("{} rejected {routine}: {e}", backend.name()));
                out
            });
            let diff = native.max_abs_diff(&reference) / reference.frob_norm().max(1.0);
            assert!(
                diff < 1e-12,
                "{routine} {uplo:?} nt={nt}: native vs reference diff {diff}"
            );
        }
    }
}

/// BLAS references none of A, B or x at `alpha = 0`: a NaN there must not
/// reach the output, on the optimised backend or on the oracle.
#[test]
fn alpha_zero_reads_no_operand() {
    let (alpha, beta) = (0.0, 0.5);
    for nt in [1, 2] {
        for routine in LEVEL3.into_iter().chain(["gemv", "symv", "ger"]) {
            let [native, reference] = NATIVE_AND_REFERENCE.map(|backend| {
                if LEVEL3.contains(&routine) {
                    level3(
                        backend,
                        nt,
                        routine,
                        Uplo::Lower,
                        (9, 6, 4),
                        (alpha, beta),
                        nan,
                    )
                    .1
                } else {
                    level2(backend, nt, routine, (alpha, beta), nan)
                }
            });
            for (name, out) in [("native", &native), ("reference", &reference)] {
                assert!(
                    out.as_slice().iter().all(|v| v.is_finite()),
                    "{routine} nt={nt}: {name} output holds a NaN read through alpha = 0"
                );
            }
            assert_eq!(native.as_slice(), reference.as_slice(), "{routine} nt={nt}");
        }
    }
}

/// Each of m, n, k at zero in turn: no panic, the same typed verdict from
/// both backends, the same output, and `k = 0` leaving exactly `beta * C`
/// on the entries the routine owns.
#[test]
fn zero_sized_dims_agree_across_backends() {
    let beta = 0.5;
    for zero in 0..3 {
        let mut dims = [6, 5, 4];
        dims[zero] = 0;
        let dims = (dims[0], dims[1], dims[2]);
        for routine in LEVEL3 {
            let [(native_res, native), (reference_res, reference)] =
                NATIVE_AND_REFERENCE.map(|backend| {
                    level3(backend, 2, routine, Uplo::Lower, dims, (1.3, beta), operand)
                });
            let case = format!("{routine} (m, n, k) = {dims:?}");
            assert_eq!(native_res, reference_res, "{case}: typed verdicts differ");
            assert!(
                native.max_abs_diff(&reference) < 1e-12,
                "{case}: outputs differ"
            );
            if dims.2 == 0 && ["gemm", "syrk", "syr2k"].contains(&routine) {
                let c0 = mat(native.rows(), native.cols(), 3);
                let owned = |i: usize, j: usize| routine == "gemm" || i >= j;
                for j in 0..native.cols() {
                    for i in 0..native.rows() {
                        let want = if owned(i, j) {
                            beta * c0.get(i, j)
                        } else {
                            c0.get(i, j)
                        };
                        assert_eq!(
                            native.get(i, j),
                            want,
                            "{case}: C({i}, {j}) is not beta * C"
                        );
                    }
                }
            }
        }
    }
}

/// One NaN — and, as a second poison, one infinity — at `A(ROW, p)` with
/// `alpha = 1`, `beta = 0` reaches every entry of row `ROW` of C and no
/// other row — under whichever micro-kernel the process runs (CI repeats
/// the suite per `ADSALA_KERNEL`). The infinity makes row `ROW` infinite,
/// or NaN where it meets a zero of B: non-finite either way. SYMM's poison
/// sits on the diagonal (`p = ROW`): off it, the mirrored `A(p, ROW)`
/// would poison row `p` as well. SYRK and SYR2K form `A Aᵀ` (and
/// `A Bᵀ + B Aᵀ`), so row `ROW` of A reaches row `ROW` *and* column `ROW`
/// of C; only the stored triangle is written, and the other keeps C's
/// finite input.
#[test]
fn one_nan_in_a_poisons_exactly_its_row_of_c() {
    const ROW: usize = 5;
    fn poisoned<const INF: bool>(r: usize, c: usize, seed: u64) -> Matrix<f64> {
        let mut x = mat(r, c, seed);
        if seed == 1 {
            let poison = if INF { f64::INFINITY } else { f64::NAN };
            x.set(ROW, if r == c { ROW } else { 7 }, poison);
        }
        x
    }
    for inf in [false, true] {
        let input = if inf {
            poisoned::<true>
        } else {
            poisoned::<false>
        };
        for nt in [1, 2] {
            for (routine, uplo) in [
                ("gemm", Uplo::Upper),
                ("symm", Uplo::Upper),
                ("syrk", Uplo::Upper),
                ("syrk", Uplo::Lower),
                ("syr2k", Uplo::Upper),
                ("syr2k", Uplo::Lower),
            ] {
                let dims = (13, 9, 11);
                let (res, c) = level3(&NativeBackend, nt, routine, uplo, dims, (1.0, 0.0), input);
                res.unwrap();
                let stored = |i: usize, j: usize| match uplo {
                    Uplo::Upper => i <= j,
                    Uplo::Lower => i >= j,
                };
                for j in 0..c.cols() {
                    for i in 0..c.rows() {
                        let reached = if routine.starts_with("syr") {
                            stored(i, j) && (i == ROW || j == ROW)
                        } else {
                            i == ROW
                        };
                        assert_eq!(
                            if inf {
                                !c.get(i, j).is_finite()
                            } else {
                                c.get(i, j).is_nan()
                            },
                            reached,
                            "inf={inf} {routine} {uplo:?} nt={nt}: C({i}, {j}) = {}",
                            c.get(i, j)
                        );
                    }
                }
            }
        }
    }
}

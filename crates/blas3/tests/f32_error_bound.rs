//! Single precision at the top of `l3_large`'s range: every f32 Level-3
//! routine at n = 512, at one and two threads, against the [`ReferenceBackend`]
//! run in f64 on the same inputs widened (widening is exact, so the f64
//! result differs from the exact one by O(n·u64), far below what is checked).
//!
//! * GEMM, SYMM, SYRK, SYR2K and TRMM meet the componentwise forward bound
//!   `|C32 − C64| ≤ 4(k+2)·u32·(|α|·|op(A)||op(B)| + |β||C|)`, the right side
//!   computed by the same reference call on absolute values.
//! * TRSM, on a strongly diagonal A, meets the normwise residual bound
//!   `‖op(A)·X32 − αB‖∞ ≤ 4n·u32·‖A‖∞‖X32‖∞`.
//!
//! The kernel is the process's: run it again under `ADSALA_KERNEL=avx2` and
//! `=scalar` to cover those. The f64 reference products take minutes
//! unoptimised, so the test runs in release builds only:
//!
//! ```sh
//! cargo test --release -p adsala-blas3 --test f32_error_bound -- --nocapture
//! ```

use adsala_blas3::{Diag, Float, Matrix, OpKind, OwnedOp, Side, Transpose, Uplo};
use adsala_blas3::{NativeBackend, ReferenceBackend};

const N: usize = 512;
const SEED: u64 = 0x0F32_E44B;
const NTS: [usize; 2] = [1, 2];

/// The call of Level-3 family `kind` on `a`, `b` and `c`; TRMM and TRSM
/// take `c` as their in-place B.
fn call<T: Float>(
    kind: OpKind,
    alpha: f64,
    beta: f64,
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &Matrix<T>,
) -> OwnedOp<T> {
    let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
    let (a, b, c) = (a.clone(), b.clone(), c.clone());
    let (side, uplo, trans, diag) = (Side::Left, Uplo::Upper, Transpose::No, Diag::NonUnit);
    match kind {
        OpKind::Gemm => OwnedOp::Gemm {
            transa: Transpose::No,
            transb: Transpose::Yes,
            alpha,
            a,
            b,
            beta,
            c,
        },
        OpKind::Symm => OwnedOp::Symm {
            side,
            uplo,
            alpha,
            a,
            b,
            beta,
            c,
        },
        OpKind::Syrk => OwnedOp::Syrk {
            uplo: Uplo::Lower,
            trans,
            alpha,
            a,
            beta,
            c,
        },
        OpKind::Syr2k => OwnedOp::Syr2k {
            uplo,
            trans: Transpose::Yes,
            alpha,
            a,
            b,
            beta,
            c,
        },
        OpKind::Trmm => OwnedOp::Trmm {
            side,
            uplo,
            trans,
            diag,
            alpha,
            a,
            b: c,
        },
        OpKind::Trsm => OwnedOp::Trsm {
            side,
            uplo,
            trans,
            diag,
            alpha,
            a,
            b: c,
        },
        _ => unreachable!("{kind:?} is Level 2"),
    }
}

/// Seeded values in [-2, 2], rounded to f32.
fn dense(seed: u64) -> Matrix<f32> {
    Matrix::from_fn(N, N, |i, j| {
        let h = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((j as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(seed.wrapping_mul(0x94D0_49BB_1331_11EB));
        ((h >> 40) % 2001) as f32 / 500.0 - 2.0
    })
}

/// Upper triangle with diagonal 4 and off-diagonal entries of at most 2/N,
/// so every row is diagonally dominant; the lower triangle is zero.
fn strong_upper(seed: u64) -> Matrix<f32> {
    let d = dense(seed);
    Matrix::from_fn(N, N, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Less => d.get(i, j) / N as f32,
        std::cmp::Ordering::Equal => 4.0,
        std::cmp::Ordering::Greater => 0.0,
    })
}

fn map(m: &Matrix<impl Float>, f: impl Fn(f64) -> f64) -> Matrix<f64> {
    Matrix::from_fn(m.rows(), m.cols(), |i, j| f(m.get(i, j).to_f64()))
}

fn norm_inf(m: &Matrix<f64>) -> f64 {
    (0..m.rows())
        .map(|i| (0..m.cols()).map(|j| m.get(i, j).abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

fn reference(mut op: OwnedOp<f64>) -> Matrix<f64> {
    ReferenceBackend.run(1, op.as_op()).unwrap();
    op.into_output()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "minutes unoptimised; run with --release")]
fn f32_level3_meets_forward_error_bounds_at_n512() {
    let started = std::time::Instant::now();
    let u = f64::from(f32::EPSILON) / 2.0;
    let (alpha, beta) = (1.25, -0.5);
    let (b, c) = (dense(SEED ^ 1), dense(SEED ^ 2));
    let (b64, c64) = (map(&b, |x| x), map(&c, |x| x));
    for kind in OpKind::ALL {
        let a = if matches!(kind, OpKind::Trmm | OpKind::Trsm) {
            strong_upper(SEED)
        } else {
            dense(SEED)
        };
        let a64 = map(&a, |x| x);
        // The f64 result and the bound's magnitudes, for the forward check.
        let forward = (kind != OpKind::Trsm).then(|| {
            let exact = reference(call(kind, alpha, beta, &a64, &b64, &c64));
            let magnitude = reference(call(
                kind,
                f64::abs(alpha),
                f64::abs(beta),
                &map(&a, f64::abs),
                &map(&b, f64::abs),
                &map(&c, f64::abs),
            ));
            (exact, magnitude)
        });
        let mut worst: f64 = 0.0;
        for nt in NTS {
            let mut op = call(kind, alpha, beta, &a, &b, &c);
            NativeBackend.run(nt, op.as_op()).unwrap();
            let got = map(op.output(), |x| x);
            let ratio = match &forward {
                Some((exact, magnitude)) => {
                    let scale = 4.0 * (N + 2) as f64 * u;
                    let cells = got.as_slice().iter().zip(exact.as_slice());
                    cells
                        .zip(magnitude.as_slice())
                        .map(|((g, e), m)| (g - e).abs() / (scale * m.max(f64::MIN_POSITIVE)))
                        .fold(0.0, f64::max)
                }
                None => {
                    // A·X32 in f64: TRMM takes TRSM's flags.
                    let ax = reference(call(OpKind::Trmm, 1.0, 0.0, &a64, &b64, &got));
                    let residual =
                        Matrix::from_fn(N, N, |i, j| ax.get(i, j) - alpha * c64.get(i, j));
                    norm_inf(&residual) / (4.0 * N as f64 * u * norm_inf(&a64) * norm_inf(&got))
                }
            };
            assert!(
                ratio <= 1.0,
                "{kind:?} nt={nt}: error is {ratio:.3} of its bound"
            );
            worst = worst.max(ratio);
        }
        println!("{kind:?}: worst error / bound {worst:.2e} over nt {NTS:?}");
    }
    println!("n = {N}: {:.1} s", started.elapsed().as_secs_f64());
}

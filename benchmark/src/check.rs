//! Correctness: outputs of the measured system against `ReferenceBackend`,
//! outside every timed region.
//!
//! The naive oracle runs at ~1.4 GFLOP/s, so a large Level-3 output is
//! checked on a sample of its columns: every family here is generated
//! left-sided and untransposed, which makes output column `j` a function
//! of column `j` of the right-hand operand (of row `j` of the factors, for
//! the rank-k updates). The reference computes just those columns, from
//! operands gathered into a smaller call.

use crate::rng::Rng;
use adsala_blas3::{Float, Matrix, OwnedOp, OwnedOp2, ReferenceBackend, Side, Transpose, Uplo};
use adsala_serve::AnyOp;

/// Reference work per checked op, flops.
const REFERENCE_FLOP_BUDGET: f64 = 6.0e7;

/// Forward-error tolerance: the largest entry-wise difference, relative to
/// the largest reference entry, may reach `TOL_FACTOR * k * eps`, where
/// `k` is the length of the inner products and `eps` the unit round-off of
/// the precision (2^-24 or 2^-53). Blocked and naive summation orders
/// differ by at most `~k * eps` relative to `|a|.|b|`; operands are
/// uniform in [-0.5, 0.5), so the factor leaves room for cancellation in
/// the reference entry the error is measured against.
const TOL_FACTOR: f64 = 64.0;

fn unit_roundoff<T: Float>() -> f64 {
    match T::BYTES {
        4 => 2f64.powi(-24),
        _ => 2f64.powi(-53),
    }
}

/// Largest difference over the checked entries and largest reference
/// magnitude: `(max |got - want|, max |want|)`.
fn compare<T: Float>(pairs: impl Iterator<Item = (T, T)>) -> (f64, f64) {
    pairs.fold((0.0f64, 0.0f64), |(err, scale), (got, want)| {
        let (g, w) = (got.to_f64(), want.to_f64());
        let d = if g.is_finite() {
            (g - w).abs()
        } else {
            f64::INFINITY
        };
        (err.max(d), scale.max(w.abs()))
    })
}

fn within<T: Float>((err, scale): (f64, f64), inner: usize) -> bool {
    err <= TOL_FACTOR * inner.max(1) as f64 * unit_roundoff::<T>() * scale.max(f64::MIN_POSITIVE)
}

/// The output columns to check: all of them when the budget allows, else
/// one per stratum of `count` equal strata, placed by the seed, with the
/// first and the last column always among them. The kernels split a wide
/// output by columns across the team and finish it with a remainder tile
/// and a last packed panel; strata much narrower than a thread's panel
/// put columns in every panel, and the last column sits in the edge tile.
fn sample_columns(n: usize, count: usize, rng: &mut Rng) -> Vec<usize> {
    if count >= n {
        return (0..n).collect();
    }
    let mut cols: Vec<usize> = (0..count)
        .map(|s| {
            let (lo, hi) = (s * n / count, (s + 1) * n / count);
            lo + rng.below(hi - lo)
        })
        .collect();
    cols[0] = 0;
    cols[count - 1] = n - 1;
    cols
}

fn gather_cols<T: Float>(m: &Matrix<T>, cols: &[usize]) -> Matrix<T> {
    Matrix::from_fn(m.rows(), cols.len(), |i, t| m.get(i, cols[t]))
}

fn gather_rows<T: Float>(m: &Matrix<T>, rows: &[usize]) -> Matrix<T> {
    Matrix::from_fn(rows.len(), m.cols(), |t, j| m.get(rows[t], j))
}

/// The output of `op` run on the reference; `None` when it refuses.
fn reference_output<T: Float>(mut op: OwnedOp<T>) -> Option<Matrix<T>> {
    ReferenceBackend.run(1, op.as_op()).ok()?;
    Some(op.output().clone())
}

/// Check sampled columns of a Level-3 result against the reference run on
/// `input` (the operands as they were before the call). `None` when the
/// reference refuses the call.
fn level3<T: Float>(input: OwnedOp<T>, result: &OwnedOp<T>, seed: u64) -> Option<bool> {
    let out = result.output();
    let (m, n) = (out.rows(), out.cols());
    let per_col = (input.flops() / n.max(1) as f64).max(1.0);
    let count = ((REFERENCE_FLOP_BUDGET / per_col) as usize).max(2);
    let cols = sample_columns(n, count, &mut Rng::stream(seed, 6));
    // C[:, J] = alpha * A * B[J, :]' + beta * C[:, J], on the reference.
    let gemm_nt = |alpha: T, a: &Matrix<T>, b: &Matrix<T>, beta: T, c: Matrix<T>| {
        reference_output(OwnedOp::Gemm {
            transa: Transpose::No,
            transb: Transpose::Yes,
            alpha,
            a: a.clone(),
            b: gather_rows(b, &cols),
            beta,
            c,
        })
    };
    let mut lower_only = false;
    // `want` holds the reference's output columns `cols`, side by side.
    let (inner, want): (usize, Matrix<T>) = match input {
        OwnedOp::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha,
            a,
            b,
            beta,
            c,
        } => (
            a.cols(),
            reference_output(OwnedOp::Gemm {
                transa: Transpose::No,
                transb: Transpose::No,
                alpha,
                b: gather_cols(&b, &cols),
                a,
                beta,
                c: gather_cols(&c, &cols),
            })?,
        ),
        OwnedOp::Symm {
            side: Side::Left,
            uplo,
            alpha,
            a,
            b,
            beta,
            c,
        } => (
            a.rows(),
            reference_output(OwnedOp::Symm {
                side: Side::Left,
                uplo,
                alpha,
                b: gather_cols(&b, &cols),
                a,
                beta,
                c: gather_cols(&c, &cols),
            })?,
        ),
        // The rank-k updates through the reference gemm; only the stored
        // (lower) triangle is compared.
        OwnedOp::Syrk {
            uplo: Uplo::Lower,
            trans: Transpose::No,
            alpha,
            a,
            beta,
            c,
        } => {
            lower_only = true;
            (
                a.cols(),
                gemm_nt(alpha, &a, &a, beta, gather_cols(&c, &cols))?,
            )
        }
        OwnedOp::Syr2k {
            uplo: Uplo::Lower,
            trans: Transpose::No,
            alpha,
            a,
            b,
            beta,
            c,
        } => {
            lower_only = true;
            let first = gemm_nt(alpha, &a, &b, beta, gather_cols(&c, &cols))?;
            (2 * a.cols(), gemm_nt(alpha, &b, &a, T::ONE, first)?)
        }
        OwnedOp::Trmm {
            side: Side::Left,
            uplo,
            trans,
            diag,
            alpha,
            a,
            b,
        } => (
            a.rows(),
            reference_output(OwnedOp::Trmm {
                side: Side::Left,
                uplo,
                trans,
                diag,
                alpha,
                b: gather_cols(&b, &cols),
                a,
            })?,
        ),
        OwnedOp::Trsm {
            side: Side::Left,
            uplo,
            trans,
            diag,
            alpha,
            a,
            b,
        } => (
            a.rows(),
            reference_output(OwnedOp::Trsm {
                side: Side::Left,
                uplo,
                trans,
                diag,
                alpha,
                b: gather_cols(&b, &cols),
                a,
            })?,
        ),
        // Flags the generator does not produce (right side, transposes,
        // upper rank-k): no column shortcut, run the whole call.
        other => {
            let want = reference_output(other)?;
            let pairs = out.as_slice().iter().zip(want.as_slice());
            return Some(within::<T>(compare(pairs.map(|(g, w)| (*g, *w))), m.max(n)));
        }
    };
    let pairs = cols.iter().enumerate().flat_map(|(t, &j)| {
        let first = if lower_only { j } else { 0 };
        let want = &want;
        (first..m).map(move |i| (out.get(i, j), want.get(i, t)))
    });
    Some(within::<T>(compare(pairs), inner))
}

/// Level-2 calls are O(n^2): the reference runs the whole call.
fn level2<T: Float>(mut input: OwnedOp2<T>, result: &OwnedOp2<T>) -> bool {
    let d = input.dims();
    let inner = d.a().max(d.b());
    if ReferenceBackend.run2(1, input.as_op()).is_err() {
        return false;
    }
    let verdict = match (result.out_vector(), input.out_vector()) {
        (Some(got), Some(want)) => compare(got.iter().copied().zip(want.iter().copied())),
        _ => match (result.out_matrix(), input.out_matrix()) {
            (Some(got), Some(want)) => compare(
                got.as_slice()
                    .iter()
                    .copied()
                    .zip(want.as_slice().iter().copied()),
            ),
            _ => return false,
        },
    };
    within::<T>(verdict, inner)
}

/// Whether `result` (an op after the measured system ran it) matches the
/// reference run from `input` (the same op before the call); `seed` places
/// the sampled columns of a large output. A reference that refuses the
/// call counts as a mismatch.
pub fn matches_reference(input: AnyOp, result: &AnyOp, seed: u64) -> bool {
    match (input, result) {
        (AnyOp::F32(i), AnyOp::F32(r)) => level3(i, r, seed).unwrap_or(false),
        (AnyOp::F64(i), AnyOp::F64(r)) => level3(i, r, seed).unwrap_or(false),
        (AnyOp::F32L2(i), AnyOp::F32L2(r)) => level2(i, r),
        (AnyOp::F64L2(i), AnyOp::F64L2(r)) => level2(i, r),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::call;
    use crate::rng::Rng;
    use crate::workload::BenchOp;
    use adsala::Adsala;
    use adsala_blas3::op::{Dims, OpKind};

    #[test]
    fn native_results_match_and_an_unexecuted_one_does_not() {
        let lib = Adsala::new(Vec::new(), 2);
        let mut rng = Rng::new(21);
        let mut ops = vec![
            BenchOp::level3::<f64>(OpKind::Gemm, Dims::d3(70, 33, 41), &mut rng),
            BenchOp::level3::<f32>(OpKind::Symm, Dims::d2(37, 29), &mut rng),
            BenchOp::level3::<f64>(OpKind::Syrk, Dims::d2(45, 19), &mut rng),
            BenchOp::level3::<f32>(OpKind::Syr2k, Dims::d2(31, 50), &mut rng),
            BenchOp::level3::<f64>(OpKind::Trmm, Dims::d2(52, 17), &mut rng),
            BenchOp::level3::<f64>(OpKind::Trsm, Dims::d2(48, 23), &mut rng),
            // Large enough that only sampled columns are checked.
            BenchOp::level3::<f64>(OpKind::Gemm, Dims::d3(300, 300, 700), &mut rng),
            BenchOp::level3::<f64>(OpKind::Symm, Dims::d2(450, 500), &mut rng),
            BenchOp::level3::<f64>(OpKind::Syr2k, Dims::d2(400, 300), &mut rng),
            BenchOp::level3::<f64>(OpKind::Trsm, Dims::d2(450, 500), &mut rng),
            BenchOp::level2::<f64>(OpKind::Gemv, Transpose::Yes, Dims::d2(90, 60), &mut rng),
            BenchOp::level2::<f32>(OpKind::Ger, Transpose::No, Dims::d2(40, 70), &mut rng),
            BenchOp::level2::<f64>(OpKind::Symv, Transpose::No, Dims::d1(64), &mut rng),
            BenchOp::level2::<f64>(OpKind::Trsv, Transpose::No, Dims::d1(200), &mut rng),
        ];
        for (seed, op) in ops.iter_mut().enumerate() {
            let input = op.op.clone();
            call(&lib, &mut op.op, Some(2)).unwrap();
            assert!(
                matches_reference(input.clone(), &op.op, seed as u64),
                "{} {}",
                op.op.routine(),
                op.op.dims()
            );
            // An untouched output (the call never ran) must not pass.
            assert!(
                !matches_reference(input.clone(), &input, seed as u64),
                "{} unexecuted passed",
                op.op.routine()
            );
        }
    }

    #[test]
    fn one_wrong_entry_in_the_last_column_of_a_large_result_is_caught() {
        let lib = Adsala::new(Vec::new(), 2);
        let mut op =
            BenchOp::level3::<f64>(OpKind::Gemm, Dims::d3(500, 500, 500), &mut Rng::new(5));
        let input = op.op.clone();
        call(&lib, &mut op.op, Some(2)).unwrap();
        assert!(matches_reference(input.clone(), &op.op, 1));
        let AnyOp::F64(OwnedOp::Gemm { c, .. }) = &mut op.op else {
            panic!("gemm expected")
        };
        // About a fifth of the 500 columns fit the budget; the corner entry
        // belongs to the second thread's panel and to the edge tile.
        let (i, j) = (c.rows() - 1, c.cols() - 1);
        c.set(i, j, c.get(i, j) + 1e-3);
        for seed in 0..8 {
            assert!(
                !matches_reference(input.clone(), &op.op, seed),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn sampled_columns_cover_every_stratum_and_both_edges() {
        for (n, count) in [(512, 114), (700, 333), (9, 2), (500, 499)] {
            for seed in 0..20 {
                let cols = sample_columns(n, count, &mut Rng::new(seed));
                assert_eq!(cols.len(), count);
                assert_eq!((cols[0], cols[count - 1]), (0, n - 1));
                for (s, &j) in cols.iter().enumerate() {
                    assert!(
                        (s * n / count..(s + 1) * n / count).contains(&j),
                        "{n} {count} {j}"
                    );
                }
            }
        }
        assert_eq!(sample_columns(4, 9, &mut Rng::new(0)), [0, 1, 2, 3]);
    }
}

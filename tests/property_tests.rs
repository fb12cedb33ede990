//! Property-based tests (proptest) on cross-crate invariants: BLAS
//! linearity and inverse identities, sampler feasibility, Yeo-Johnson
//! bijectivity, machine-model sanity, and preprocessing shape-safety.

use adsala_repro::blas3::op::{Dims, OpKind, Precision, Routine};
use adsala_repro::blas3::{reference, Diag, Matrix, Side, Transpose, Uplo};
use adsala_repro::machine::{MachineSpec, PerfModel};
use adsala_repro::sampling::DomainSampler;
use proptest::prelude::*;

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix<f64>> {
    (1..=max_dim, 1..=max_dim, any::<u64>()).prop_map(|(r, c, seed)| {
        Matrix::from_fn(r, c, |i, j| {
            let h = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((j as u64).wrapping_mul(0x2545F4914F6CDD1D))
                .wrapping_add(seed);
            ((h >> 40) % 2001) as f64 / 400.0 - 2.5
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// gemm(alpha, A, B) + gemm(beta, A, B) == gemm(alpha+beta, A, B):
    /// linearity in alpha under accumulation.
    #[test]
    fn gemm_linear_in_alpha(a in arb_matrix(40), alpha in -3.0f64..3.0, beta in -3.0f64..3.0, nt in 1usize..5) {
        let m = a.rows();
        let k = a.cols();
        let b = Matrix::<f64>::from_fn(k, m, |i, j| ((i * 3 + j * 5) % 11) as f64 - 5.0);
        let mut c1 = Matrix::<f64>::zeros(m, m);
        adsala_repro::blas3::gemm::gemm(nt, Transpose::No, Transpose::No, alpha, a.as_ref(), b.as_ref(), 0.0, c1.as_mut());
        adsala_repro::blas3::gemm::gemm(nt, Transpose::No, Transpose::No, beta, a.as_ref(), b.as_ref(), 1.0, c1.as_mut());
        let mut c2 = Matrix::<f64>::zeros(m, m);
        adsala_repro::blas3::gemm::gemm(nt, Transpose::No, Transpose::No, alpha + beta, a.as_ref(), b.as_ref(), 0.0, c2.as_mut());
        let scale = c2.frob_norm().max(1.0);
        prop_assert!(c1.max_abs_diff(&c2) / scale < 1e-12);
    }

    /// gemm with transposed operands equals gemm on materialised transposes.
    #[test]
    fn gemm_transpose_consistency(a in arb_matrix(30), nt in 1usize..4) {
        let (r, c) = (a.rows(), a.cols());
        let b = Matrix::<f64>::from_fn(r, c, |i, j| ((i + 7 * j) % 13) as f64 - 6.0);
        // C = A' * B (c x c)
        let mut c1 = Matrix::<f64>::zeros(c, c);
        adsala_repro::blas3::gemm::gemm(nt, Transpose::Yes, Transpose::No, 1.0, a.as_ref(), b.as_ref(), 0.0, c1.as_mut());
        let at = a.transposed();
        let mut c2 = Matrix::<f64>::zeros(c, c);
        adsala_repro::blas3::gemm::gemm(nt, Transpose::No, Transpose::No, 1.0, at.as_ref(), b.as_ref(), 0.0, c2.as_mut());
        prop_assert!(c1.max_abs_diff(&c2) < 1e-10);
    }

    /// trsm inverts trmm for every flag combination (randomised dims).
    #[test]
    fn trsm_inverts_trmm(
        m in 1usize..50,
        n in 1usize..50,
        side_left in any::<bool>(),
        upper in any::<bool>(),
        trans in any::<bool>(),
        unit in any::<bool>(),
        nt in 1usize..4,
    ) {
        let side = if side_left { Side::Left } else { Side::Right };
        let uplo = if upper { Uplo::Upper } else { Uplo::Lower };
        let tr = if trans { Transpose::Yes } else { Transpose::No };
        let diag = if unit { Diag::Unit } else { Diag::NonUnit };
        let na = if side_left { m } else { n };
        let a = Matrix::<f64>::from_fn(na, na, |i, j| {
            if i == j { 4.0 + (i % 5) as f64 } else { 0.3 * (((i * 7 + j * 3) % 9) as f64 / 9.0 - 0.5) }
        });
        let x0 = Matrix::<f64>::from_fn(m, n, |i, j| ((i * 5 + j * 3) % 17) as f64 - 8.0);
        let mut b = x0.clone();
        adsala_repro::blas3::trmm::trmm(nt, side, uplo, tr, diag, 2.0, a.as_ref(), b.as_mut());
        adsala_repro::blas3::trsm::trsm(nt, side, uplo, tr, diag, 0.5, a.as_ref(), b.as_mut());
        let scale = x0.frob_norm().max(1.0);
        prop_assert!(b.max_abs_diff(&x0) / scale < 1e-9);
    }

    /// syrk on [A | B] equals syrk(A) + syrk(B): additivity over column
    /// partitions of the rank-k factor.
    #[test]
    fn syrk_additive_over_k(n in 2usize..30, k1 in 1usize..10, k2 in 1usize..10, nt in 1usize..4) {
        let a = Matrix::<f64>::from_fn(n, k1, |i, j| ((i * 3 + j) % 7) as f64 - 3.0);
        let b = Matrix::<f64>::from_fn(n, k2, |i, j| ((i + j * 5) % 9) as f64 - 4.0);
        let joined = Matrix::<f64>::from_fn(n, k1 + k2, |i, j| {
            if j < k1 { a.get(i, j) } else { b.get(i, j - k1) }
        });
        let mut c1 = Matrix::<f64>::zeros(n, n);
        adsala_repro::blas3::syrk::syrk(nt, Uplo::Lower, Transpose::No, 1.0, joined.as_ref(), 0.0, c1.as_mut());
        let mut c2 = Matrix::<f64>::zeros(n, n);
        adsala_repro::blas3::syrk::syrk(nt, Uplo::Lower, Transpose::No, 1.0, a.as_ref(), 0.0, c2.as_mut());
        adsala_repro::blas3::syrk::syrk(nt, Uplo::Lower, Transpose::No, 1.0, b.as_ref(), 1.0, c2.as_mut());
        prop_assert!(c1.max_abs_diff(&c2) < 1e-10);
    }

    /// symm equals gemm when the symmetric operand is materialised fully.
    #[test]
    fn symm_equals_gemm_on_full_matrix(m in 1usize..30, n in 1usize..30, nt in 1usize..4) {
        let mut a = Matrix::<f64>::from_fn(m, m, |i, j| ((i * j + 2 * i + j) % 11) as f64 - 5.0);
        a.symmetrize_from(Uplo::Upper);
        let b = Matrix::<f64>::from_fn(m, n, |i, j| ((i + 3 * j) % 8) as f64 - 4.0);
        let mut c1 = Matrix::<f64>::zeros(m, n);
        adsala_repro::blas3::symm::symm(nt, Side::Left, Uplo::Upper, 1.5, a.as_ref(), b.as_ref(), 0.0, c1.as_mut());
        let mut c2 = Matrix::<f64>::zeros(m, n);
        reference::gemm(Transpose::No, Transpose::No, 1.5, &a, &b, 0.0, &mut c2);
        prop_assert!(c1.max_abs_diff(&c2) < 1e-10);
    }

    /// Every sampler draw respects the memory cap and bounds, for every
    /// routine and random seed.
    #[test]
    fn sampler_draws_always_feasible(seed in any::<u64>(), nt_max in 1usize..300) {
        for routine in Routine::all() {
            let mut s = DomainSampler::new(routine, nt_max, seed);
            let smp = s.sample();
            let fp = routine.op.footprint_bytes(smp.dims, routine.prec);
            prop_assert!(fp <= adsala_repro::sampling::domain::DEFAULT_CAP_BYTES);
            prop_assert!(smp.nt >= 1 && smp.nt <= nt_max);
        }
    }

    /// Yeo-Johnson transform is a bijection. The inverse is numerically
    /// ill-conditioned once `|lambda| * ln(1+|x|)` is large (the transform
    /// saturates at -1/lambda and the inversion cancels catastrophically),
    /// so the property is checked on the numerically meaningful region —
    /// which comfortably covers the post-fit lambdas (|lambda| <= 5 is the
    /// MLE search range but fitted values cluster in [-2, 2]).
    #[test]
    fn yeo_johnson_bijective(x in -1e4f64..1e4, lambda in -4.0f64..4.0) {
        use adsala_repro::ml::preprocess::yeo_johnson::{inverse_value, transform_value};
        prop_assume!(lambda.abs() * (1.0 + x.abs()).ln() < 18.0);
        let t = transform_value(x, lambda);
        prop_assert!(t.is_finite());
        let back = inverse_value(t, lambda);
        prop_assert!((back - x).abs() < 1e-6 * (1.0 + x.abs()));
    }

    /// Machine-model times are positive, finite, and decrease from 1 thread
    /// to the kernel-optimal region for large balanced problems.
    #[test]
    fn machine_model_sane(m in 64usize..2000, nt in 1usize..96) {
        let model = PerfModel::new(MachineSpec::gadi());
        let r = Routine::new(OpKind::Gemm, Precision::Double);
        let t = model.expected_time(r, Dims::d3(m, m, m), nt);
        prop_assert!(t > 0.0 && t.is_finite());
        // Never better than the work/peak bound by more than the model's
        // efficiency headroom.
        let flops = 2.0 * (m as f64).powi(3);
        let absolute_peak = 48.0 * 1.2 * MachineSpec::gadi().core_peak_flops(false);
        prop_assert!(t > flops / absolute_peak / 10.0);
    }

    /// Speedup of the model-optimal thread count is >= 1 by construction.
    #[test]
    fn ideal_speedup_at_least_one(a in 8usize..3000, b in 8usize..3000) {
        let model = PerfModel::new(MachineSpec::setonix());
        let r = Routine::new(OpKind::Trmm, Precision::Single);
        let s = model.ideal_speedup(r, Dims::d2(a, b));
        prop_assert!(s >= 1.0 - 1e-12, "ideal speedup {s} < 1");
    }
}

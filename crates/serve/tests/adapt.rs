//! The price corrects itself on a live service: under a backend that runs
//! 2x slower than the installed model believes, the calls the service
//! serves teach the routine's predictor the drift, later calls are priced
//! at the observed wall-clock, and no call's thread count moves.

// Outside the Miri subset: drives a live Service (OS worker threads).
#![cfg(not(miri))]

#[path = "support/drift_harness.rs"]
mod drift_harness;

use adsala::install::{install_routine, InstallOptions};
use adsala::runtime::Adsala;
use adsala::timer::SimTimer;
use adsala_blas3::op::Routine;
use adsala_blas3::{Blas3Backend, Matrix, OwnedOp, Transpose};
use adsala_machine::MachineSpec;
use adsala_ml::model::ModelKind;
use adsala_serve::{ServeConfig, Service, TelemetryRecord};
use drift_harness::{
    calibrated_time_scale, min_traffic_secs, traffic_shape, ScaledTimer, SkewedSpinBackend,
};

/// `count` gemm jobs over a rotating set of 16 distinct shapes, submitted
/// and awaited one at a time (singleton batches execute at the admitted
/// `nt`, so every record qualifies for the drift signal), and their
/// records in submission order. Shapes sit well inside the install
/// domain, where the trained model is accurate: drift must come from the
/// injected skew, not from extrapolation error.
fn drive_traffic<B: Blas3Backend + 'static>(
    service: &Service<B>,
    count: usize,
) -> Vec<TelemetryRecord> {
    let client = service.client();
    (0..count)
        .map(|i| {
            let (m, k, n) = traffic_shape(i);
            let done = client
                .submit(OwnedOp::Gemm {
                    transa: Transpose::No,
                    transb: Transpose::No,
                    alpha: 1.0,
                    a: Matrix::<f64>::zeros(m, k),
                    b: Matrix::<f64>::zeros(k, n),
                    beta: 0.0,
                    c: Matrix::<f64>::zeros(m, n),
                })
                .expect("within budget")
                .wait()
                .expect("service alive");
            assert!(done.result.is_ok());
            assert!(done.stats.qualifies_for_drift(), "{:?}", done.stats);
            done.stats
        })
        .collect()
}

fn mean_ratio(records: &[TelemetryRecord]) -> f64 {
    records
        .iter()
        .map(|r| r.observed_secs / r.predicted_secs)
        .sum::<f64>()
        / records.len() as f64
}

#[test]
fn drift_is_priced_in_without_moving_the_thread_count() {
    let routine = Routine::parse("dgemm").unwrap();
    // Calibrate once against this machine's scheduling noise, then install
    // and spin on the identically scaled surface (see drift_harness).
    let scale = calibrated_time_scale(min_traffic_secs(
        &SimTimer::new(MachineSpec::gadi()),
        routine,
    ));
    let installed = install_routine(
        &ScaledTimer {
            inner: SimTimer::new(MachineSpec::gadi()),
            scale,
        },
        routine,
        &InstallOptions {
            n_train: 300,
            n_eval: 10,
            kinds: vec![ModelKind::Xgboost],
            nt_stride: 8,
            ..Default::default()
        },
    );
    let runtime = Adsala::builder()
        .backend(SkewedSpinBackend::new(
            SimTimer::new(MachineSpec::gadi()),
            2.0,
            scale,
        ))
        .install(installed)
        .fallback_nt(1)
        .build()
        .unwrap();
    let service = Service::with_config(
        runtime,
        ServeConfig {
            backlog_budget_secs: 1e9,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");

    // Observed wall-clock is 2x what the installed model believes. The
    // first 32 calls are priced by the model alone; the correction they
    // teach prices the rest.
    let pre = drive_traffic(&service, 48);
    let pre_ratio = mean_ratio(&pre);
    assert!(
        pre_ratio > 1.4,
        "injected 2x drift must be visible, measured {pre_ratio:.3}"
    );
    let drift = &service.stats().drift_by_routine;
    assert_eq!(drift.len(), 1);
    assert_eq!((drift[0].routine, drift[0].samples), (routine, 48));

    // The service never stopped; the same shapes again, now priced at what
    // they take.
    let post = drive_traffic(&service, 48);
    let post_ratio = mean_ratio(&post);
    assert!(
        (0.75..=1.35).contains(&post_ratio),
        "corrected ratio {post_ratio:.3} is outside the healthy band"
    );
    assert!(
        (post_ratio - 1.0).abs() < 0.5 * (pre_ratio - 1.0).abs(),
        "ratio must move measurably toward 1: pre {pre_ratio:.3}, post {post_ratio:.3}"
    );

    // The price moved, the choice did not.
    for (before, after) in pre.iter().zip(&post) {
        assert_eq!(before.dims, after.dims);
        assert_eq!(
            before.admitted_nt, after.admitted_nt,
            "{}: the correction moved the thread count",
            before.dims
        );
    }
}

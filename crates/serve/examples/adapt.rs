//! Price correction, end to end: a service whose installed cost model is
//! systematically wrong learns the drift from the calls it serves and
//! prices later calls at the wall-clock they take, without stopping and
//! without moving any call's thread count.
//!
//! The drift is injected deterministically: the dgemm model is installed
//! against the simulated Gadi timings, but the serving backend replays
//! those timings **2x slower** (a "skewed timer" standing in for a machine
//! that no longer matches its installation profile — new firmware, noisy
//! neighbours, a BLAS upgrade). Each served call feeds the routine's
//! predictor its observed seconds; from the 32nd on, admission prices at
//! the model's seconds times the learned drift.
//!
//! Exits non-zero unless the mean observed/predicted of the second round
//! lands in 0.75–1.35 and every shape keeps its thread count.
//!
//! ```text
//! cargo run --release -p adsala-serve --example adapt
//! ```

#[path = "../tests/support/drift_harness.rs"]
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
use std::process::ExitCode;

/// One round of production traffic: `count` gemms over 16 rotating shapes,
/// one at a time. Returns each call's record.
fn traffic<B: Blas3Backend + 'static>(service: &Service<B>, count: usize) -> Vec<TelemetryRecord> {
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
            done.result.expect("backend ok");
            done.stats
        })
        .collect()
}

/// Mean observed/predicted over `records`, printed.
fn report(round: usize, records: &[TelemetryRecord]) -> f64 {
    let ratios: Vec<f64> = records
        .iter()
        .filter(|r| r.qualifies_for_drift())
        .map(|r| r.observed_secs / r.predicted_secs)
        .collect();
    let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    println!(
        "round {round}: {} calls, observed/predicted = {mean:.2} \
         (first call {:.2}, last call {:.2})",
        ratios.len(),
        ratios.first().copied().unwrap_or(f64::NAN),
        ratios.last().copied().unwrap_or(f64::NAN),
    );
    mean
}

fn main() -> ExitCode {
    println!("== price correction: a 2x drift, learned from served calls ==\n");

    println!("installing dgemm on simulated gadi (gradient-boosted model)...");
    let routine = Routine::parse("dgemm").unwrap();
    // Calibrate against this machine's scheduling noise so slow/loaded CI
    // hosts stretch the spins instead of drowning the drift signal (see
    // tests/support/drift_harness.rs).
    let scale = calibrated_time_scale(min_traffic_secs(
        &SimTimer::new(MachineSpec::gadi()),
        routine,
    ));
    if scale > 1.0 {
        println!("(noisy host: spin timings scaled {scale:.1}x by calibration)");
    }
    let timer = ScaledTimer {
        inner: SimTimer::new(MachineSpec::gadi()),
        scale,
    };
    let installed = install_routine(
        &timer,
        routine,
        &InstallOptions {
            n_train: 300,
            n_eval: 10,
            kinds: vec![ModelKind::Xgboost],
            nt_stride: 8,
            ..Default::default()
        },
    );

    // Serve through a backend that runs 2x slower than the model believes.
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

    println!(
        "\n48 calls against the 2x-slower backend; the first 32 are priced by the model alone"
    );
    let pre = traffic(&service, 48);
    report(1, &pre);
    println!("48 more calls over the same shapes, priced with the learned correction");
    let post = traffic(&service, 48);
    let corrected = report(2, &post);

    let moved = pre
        .iter()
        .zip(&post)
        .filter(|(a, b)| a.admitted_nt != b.admitted_nt)
        .count();
    println!("shapes whose thread count moved: {moved} of {}", pre.len());
    if moved > 0 || !(0.75..=1.35).contains(&corrected) {
        println!("FAILED: the corrected ratio must lie in 0.75-1.35 with no thread count moved");
        return ExitCode::FAILURE;
    }
    println!("done: priced at what the calls take, the service never stopped.");
    ExitCode::SUCCESS
}

//! Online adaptation, end to end: a service whose installed cost model is
//! systematically wrong detects the drift from its own telemetry, refits,
//! and hot-swaps the new model epoch — without stopping.
//!
//! The drift is injected deterministically: the dgemm model is installed
//! against the simulated Gadi timings, but the serving backend replays
//! those timings **2x slower** (a "skewed timer" standing in for a machine
//! that no longer matches its installation profile — new firmware, noisy
//! neighbours, a BLAS upgrade). The adaptation loop must notice that
//! observed wall-clock is twice what the model predicts, refit from the
//! telemetry window, and converge the observed/predicted ratio back to ~1.
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
use adsala_serve::{AdaptAction, AdaptConfig, Adapter, ServeConfig, Service};
use drift_harness::{
    calibrated_time_scale, min_traffic_secs, traffic_shape, ScaledTimer, SkewedSpinBackend,
};

/// One round of production traffic: `count` gemms over 16 rotating shapes.
fn traffic<B: Blas3Backend + 'static>(service: &Service<B>, count: usize) {
    let client = service.client();
    for i in 0..count {
        let (m, k, n) = traffic_shape(i);
        client
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
            .expect("service alive")
            .result
            .expect("backend ok");
    }
}

/// Mean observed/predicted over the records priced by the *current* epoch
/// — the window the adaptation driver itself watches.
fn print_drift<B: Blas3Backend + 'static>(service: &Service<B>, routine: Routine) {
    let version = service
        .runtime()
        .model_epoch(routine)
        .expect("routine installed")
        .version();
    let (mut sum, mut n) = (0.0, 0usize);
    for r in service.telemetry_snapshot() {
        if r.routine == routine && r.epoch == version && r.qualifies_for_drift() {
            sum += r.observed_secs / r.predicted_secs;
            n += 1;
        }
    }
    println!(
        "  drift: {} epoch {} observed/predicted = {:.2} over {} calls",
        routine,
        version,
        sum / n.max(1) as f64,
        n
    );
}

fn main() {
    println!("== online adaptation: drift -> refit -> hot swap ==\n");

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
    let adapter = Adapter::new(AdaptConfig {
        min_window: 32,
        drift_band: (0.75, 1.35),
        kinds: vec![ModelKind::LinearRegression, ModelKind::Xgboost],
        ..Default::default()
    });

    println!("\nround 1: 48 calls against the 2x-slower backend");
    traffic(&service, 48);
    print_drift(&service, routine);

    // The adaptation loop: keep running passes between traffic rounds
    // until the drift signal sits inside the healthy band.
    for round in 1..=4 {
        let reports = adapter.run_once(&service);
        let Some(report) = reports.first() else {
            break;
        };
        match &report.action {
            AdaptAction::Swapped {
                version,
                selected,
                candidate_rmse,
                live_rmse,
            } => {
                println!(
                    "\nadapt pass {round}: drift {:.2} -> refit ({} on {} records, \
                     holdout rmse {:.3} vs live {:.3}) -> swapped in epoch {version}",
                    report.drift.unwrap_or(f64::NAN),
                    selected.display_name(),
                    report.window,
                    candidate_rmse,
                    live_rmse,
                );
                println!(
                    "round {}: 48 more calls, now priced by epoch {version}",
                    round + 1
                );
                traffic(&service, 48);
                print_drift(&service, routine);
            }
            AdaptAction::InBand => {
                println!(
                    "\nadapt pass {round}: drift {:.2} is inside the healthy band - converged",
                    report.drift.unwrap_or(f64::NAN)
                );
                break;
            }
            other => {
                println!("\nadapt pass {round}: {other:?}");
                break;
            }
        }
    }

    let epoch = service
        .runtime()
        .model_epoch(routine)
        .expect("dgemm is installed");
    println!(
        "\nfinal epoch: v{} ({}, {} training rows) - the service never stopped",
        epoch.version(),
        epoch
            .installed()
            .map(|i| i.selected.display_name())
            .unwrap_or("opaque"),
        epoch.model().trained_samples(),
    );
    println!("done.");
}

//! End-to-end online adaptation: a live service under systematic drift
//! detects it, refits from its own telemetry, hot-swaps the model epoch
//! without stopping, and converges — while the guardrail rejects refits
//! that would score worse than the live epoch.

// Outside the Miri subset: drives a live Service (OS worker threads).
#![cfg(not(miri))]

#[path = "support/drift_harness.rs"]
mod drift_harness;

use adsala::cost::CostModel;
use adsala::install::{install_routine, InstallOptions};
use adsala::runtime::Adsala;
use adsala::timer::SimTimer;
use adsala_blas3::op::{Dims, Routine};
use adsala_blas3::{Blas3Backend, Matrix, OwnedOp, Transpose};
use adsala_machine::MachineSpec;
use adsala_ml::model::ModelKind;
use adsala_serve::{AdaptAction, AdaptConfig, Adapter, ServeConfig, Service, TelemetryRecord};
use drift_harness::{
    calibrated_time_scale, min_traffic_secs, traffic_shape, ScaledTimer, SkewedSpinBackend,
};

fn gemm_op(m: usize, k: usize, n: usize) -> OwnedOp<f64> {
    OwnedOp::Gemm {
        transa: Transpose::No,
        transb: Transpose::No,
        alpha: 1.0,
        a: Matrix::<f64>::zeros(m, k),
        b: Matrix::<f64>::zeros(k, n),
        beta: 0.0,
        c: Matrix::<f64>::zeros(m, n),
    }
}

/// `count` gemm jobs over a rotating set of 16 distinct shapes, submitted
/// and awaited one at a time (singleton batches execute at the admitted
/// `nt`, so every record qualifies for the drift signal). Shapes sit well
/// inside the install domain, where the trained model is accurate —
/// drift must come from the injected skew, not from extrapolation error.
fn drive_traffic<B: Blas3Backend + 'static>(service: &Service<B>, count: usize) {
    let client = service.client();
    for i in 0..count {
        let (m, k, n) = traffic_shape(i);
        let done = client
            .submit(gemm_op(m, k, n))
            .expect("within budget")
            .wait()
            .expect("service alive");
        assert!(done.result.is_ok());
    }
}

fn installed_dgemm(kind: ModelKind, n_train: usize) -> adsala::InstalledRoutine {
    installed_dgemm_scaled(kind, n_train, 1.0)
}

fn installed_dgemm_scaled(kind: ModelKind, n_train: usize, scale: f64) -> adsala::InstalledRoutine {
    let timer = ScaledTimer {
        inner: SimTimer::new(MachineSpec::gadi()),
        scale,
    };
    install_routine(
        &timer,
        Routine::parse("dgemm").unwrap(),
        &InstallOptions {
            n_train,
            n_eval: 10,
            kinds: vec![kind],
            nt_stride: 8,
            ..Default::default()
        },
    )
}

fn mean_ratio_for_epoch(records: &[TelemetryRecord], epoch: u64) -> f64 {
    let ratios: Vec<f64> = records
        .iter()
        .filter(|r| r.epoch == epoch && r.qualifies_for_drift())
        .map(|r| r.observed_secs / r.predicted_secs)
        .collect();
    assert!(
        !ratios.is_empty(),
        "no qualifying records for epoch {epoch}"
    );
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

#[test]
fn drift_is_detected_refit_and_swapped_without_stopping_the_service() {
    let routine = Routine::parse("dgemm").unwrap();
    // Calibrate once against this machine's scheduling noise, then install
    // and spin on the identically scaled surface (see drift_harness).
    let scale = calibrated_time_scale(min_traffic_secs(
        &SimTimer::new(MachineSpec::gadi()),
        routine,
    ));
    let runtime = Adsala::builder()
        .backend(SkewedSpinBackend::new(
            SimTimer::new(MachineSpec::gadi()),
            2.0,
            scale,
        ))
        .install(installed_dgemm_scaled(ModelKind::Xgboost, 300, scale))
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

    // Phase 1: traffic under the skewed backend. Observed wall-clock is 2x
    // what the installed (epoch 1) model believes.
    drive_traffic(&service, 48);
    let pre = mean_ratio_for_epoch(&service.telemetry_snapshot(), 1);
    assert!(
        pre > 1.4,
        "injected 2x drift must be visible, measured {pre:.3}"
    );
    // The per-routine stats expose it too.
    let stats = service.stats();
    let drift = stats
        .drift_by_routine
        .iter()
        .find(|d| d.routine == routine)
        .expect("dgemm drift row");
    assert_eq!(drift.latest_epoch, 1);
    assert!(drift.mean_observed_over_predicted > 1.4);

    // Phase 2: one adaptation pass refits from telemetry and swaps.
    let adapter = Adapter::new(AdaptConfig {
        min_window: 32,
        drift_band: (0.75, 1.35),
        kinds: vec![ModelKind::LinearRegression, ModelKind::Xgboost],
        ..Default::default()
    });
    let reports = adapter.run_once(&service);
    assert_eq!(reports.len(), 1);
    let report = &reports[0];
    assert_eq!(report.routine, routine);
    assert!(report.window >= 32);
    match &report.action {
        AdaptAction::Swapped {
            version,
            candidate_rmse,
            live_rmse,
            ..
        } => {
            assert_eq!(*version, 2);
            assert!(
                candidate_rmse < live_rmse,
                "refit on observed data must beat the drifted epoch \
                 (candidate {candidate_rmse:.4} vs live {live_rmse:.4})"
            );
        }
        other => panic!("expected a swap, got {other:?}"),
    }
    let epoch = service.runtime().model_epoch(routine).unwrap();
    assert_eq!(epoch.version(), 2);
    assert_eq!(
        epoch.model().version(),
        2,
        "refit artefact version follows the epoch"
    );
    assert!(epoch.model().trained_samples() > 0);

    // Phase 3: the service never stopped; post-swap traffic is priced by
    // the new epoch and the observed/predicted ratio moves back toward 1.
    drive_traffic(&service, 48);
    let snap = service.telemetry_snapshot();
    let post = mean_ratio_for_epoch(&snap, 2);
    assert!(
        (post - 1.0).abs() < 0.5 * (pre - 1.0).abs(),
        "ratio must move measurably toward 1: pre {pre:.3}, post {post:.3}"
    );
    assert!(
        (0.5..1.5).contains(&post),
        "post-swap ratio {post:.3} not near 1"
    );

    // Phase 4: convergence — the next pass sees the healthy post-swap
    // window (epoch-2 records only) and leaves the model alone.
    let reports = adapter.run_once(&service);
    assert_eq!(reports.len(), 1);
    assert_eq!(
        reports[0].action,
        AdaptAction::InBand,
        "drift {:?}",
        reports[0].drift
    );
    assert_eq!(service.runtime().model_epoch(routine).unwrap().version(), 2);
}

#[test]
fn refit_worse_than_live_epoch_is_rejected() {
    use adsala_serve::adapt::{refit_from_records, RefitOutcome};
    use adsala_serve::{ClientId, TenantId};

    let inst = installed_dgemm(ModelKind::LinearRegression, 160);
    let routine = inst.routine;
    let live: &dyn CostModel = &inst;

    // Synthesise telemetry straight from the live model: observed equals
    // its own prediction exactly, so the live epoch's holdout RMSE is ~0
    // and any imperfect refit must lose the holdout comparison.
    let mk_records = |scale: f64| -> Vec<TelemetryRecord> {
        (0..60usize)
            .map(|i| {
                // Strictly distinct shapes: holdout rows must be unseen by
                // the refit, or a memorising model could tie the oracle.
                // Kept well inside the install domain, where the live
                // model's surface is smooth.
                let dims = Dims::d3(1024 + 16 * i, 1152 + 12 * i, 1280 + 20 * i);
                let nt = 1 + 8 * (i % 4);
                TelemetryRecord {
                    seq: i as u64,
                    client: ClientId(0),
                    tenant: TenantId(0),
                    shard: 0,
                    routine,
                    dims,
                    nt,
                    admitted_nt: nt,
                    predicted_secs: live.predict_secs(dims, nt),
                    model_backed: true,
                    epoch: 1,
                    observed_secs: live.predict_secs(dims, nt) * scale,
                    batch_size: 1,
                }
            })
            .collect()
    };

    // A decision tree on 45 training rows cannot reproduce the linear
    // model's continuous surface: holdout RMSE > 0 = live's, so the
    // guardrail must hold.
    let cfg = AdaptConfig {
        min_window: 40,
        kinds: vec![ModelKind::DecisionTree],
        ..Default::default()
    };
    match refit_from_records(&mk_records(1.0), live, &cfg) {
        RefitOutcome::RejectedWorse {
            candidate_rmse,
            live_rmse,
            ..
        } => {
            assert!(live_rmse < 1e-9, "live generated the data: rmse ~ 0");
            assert!(candidate_rmse > live_rmse);
        }
        other => panic!("guardrail must reject, got {other:?}"),
    }

    // Same shapes, but observed = 2x live: now a linear refit fits the
    // shifted surface exactly while the live epoch is off by ln(2), so the
    // same guardrail accepts.
    let cfg = AdaptConfig {
        min_window: 40,
        kinds: vec![ModelKind::LinearRegression],
        ..Default::default()
    };
    match refit_from_records(&mk_records(2.0), live, &cfg) {
        RefitOutcome::Accepted(cand) => {
            assert!(cand.candidate_rmse < cand.live_rmse);
            assert!((cand.live_rmse - std::f64::consts::LN_2).abs() < 0.05);
            assert_eq!(cand.installed.version, 2);
            // The accepted refit predicts the drifted (2x) surface: its
            // geometric-mean shift over the record points must be ~2x the
            // live model (pointwise fit error averages out in ln space).
            let recs = mk_records(2.0);
            let gm = (recs
                .iter()
                .map(|r| {
                    (cand.installed.predict_secs(r.dims, r.nt) / live.predict_secs(r.dims, r.nt))
                        .ln()
                })
                .sum::<f64>()
                / recs.len() as f64)
                .exp();
            assert!(
                (1.5..2.7).contains(&gm),
                "refit must track the 2x surface, got geometric mean {gm:.3}"
            );
        }
        other => panic!("better refit must be accepted, got {other:?}"),
    }
}

#[test]
fn a_refit_neither_inherits_nor_derives_a_serial_threshold() {
    use adsala::install::predict_best_nt;
    use adsala_serve::adapt::{refit_from_records, RefitOutcome};
    use adsala_serve::{ClientId, TenantId};

    /// Installed artefacts whose every call is priced fastest on one
    /// thread: the `nt` profile a refit inherits for its synthetic rows.
    #[derive(Debug)]
    struct SerialLive(adsala::InstalledRoutine);
    impl CostModel for SerialLive {
        fn routine(&self) -> Routine {
            self.0.routine
        }
        fn version(&self) -> u64 {
            self.0.version
        }
        fn trained_samples(&self) -> usize {
            self.0.trained_samples
        }
        fn predict_cost(&self, dims: Dims) -> (usize, f64) {
            (1, self.predict_secs(dims, 1))
        }
        fn predict_secs(&self, dims: Dims, nt: usize) -> f64 {
            self.0.predict_secs(dims, 1) * nt as f64
        }
        fn as_installed(&self) -> Option<&adsala::InstalledRoutine> {
            Some(&self.0)
        }
    }

    let inst = installed_dgemm(ModelKind::LinearRegression, 160);
    assert_eq!(inst.pipeline.serial_footprint, None, "paper-style corpus");
    let routine = inst.routine;
    let refit = |live: &SerialLive| {
        // Every record ran on one thread, 2x slower than priced: each shape
        // then has a measured `nt = 1` row and synthetic rows at more
        // threads, all of them slower — it would vote, and vote serial.
        let records: Vec<TelemetryRecord> = (0..60usize)
            .map(|i| {
                let dims = Dims::d3(1024 + 16 * i, 1152 + 12 * i, 1280 + 20 * i);
                TelemetryRecord {
                    seq: i as u64,
                    client: ClientId(0),
                    tenant: TenantId(0),
                    shard: 0,
                    routine,
                    dims,
                    nt: 1,
                    admitted_nt: 1,
                    predicted_secs: live.predict_secs(dims, 1),
                    model_backed: true,
                    epoch: 1,
                    observed_secs: 2.0 * live.predict_secs(dims, 1),
                    batch_size: 1,
                }
            })
            .collect();
        let cfg = AdaptConfig {
            min_window: 40,
            kinds: vec![ModelKind::LinearRegression],
            ..Default::default()
        };
        match refit_from_records(&records, live, &cfg) {
            RefitOutcome::Accepted(cand) => cand,
            other => panic!("a 2x drift must be refitted, got {other:?}"),
        }
    };

    let plain = refit(&SerialLive(inst.clone()));
    let mut with_threshold = inst;
    with_threshold.pipeline.serial_footprint = Some(1e9);
    let live = SerialLive(with_threshold);
    assert!(live.0.answers_serial(Dims::d3(2000, 2000, 2000)));
    let cand = refit(&live);

    let refitted = &cand.installed;
    assert_eq!(refitted.pipeline.serial_footprint, None);
    let cands = refitted.candidates();
    for i in 0..60usize {
        let dims = Dims::d3(1024 + 16 * i, 1152 + 12 * i, 1280 + 20 * i);
        assert!(!refitted.answers_serial(dims));
        let swept = predict_best_nt(&refitted.model, &refitted.pipeline, routine, dims, &cands);
        assert_eq!(refitted.predict_nt(dims), swept);
    }
    // The live threshold changed nothing else about the outcome.
    assert_eq!(cand.selected, plain.selected);
    assert_eq!(
        cand.candidate_rmse.to_bits(),
        plain.candidate_rmse.to_bits()
    );
    assert_eq!(cand.live_rmse.to_bits(), plain.live_rmse.to_bits());
    assert_eq!(refitted.version, 2);
    assert_eq!(refitted.pipeline, plain.installed.pipeline);
    assert_eq!(refitted.model, plain.installed.model);
    assert_eq!(refitted.trained_samples, plain.installed.trained_samples);
}

#[test]
fn too_small_windows_and_opaque_models_do_not_refit() {
    use adsala_serve::adapt::{refit_from_records, RefitOutcome};

    let inst = installed_dgemm(ModelKind::LinearRegression, 120);
    let cfg = AdaptConfig::default();
    match refit_from_records(&[], &inst, &cfg) {
        RefitOutcome::TooFewSamples { have: 0, need } => assert_eq!(need, cfg.min_window),
        other => panic!("expected TooFewSamples, got {other:?}"),
    }

    /// A model with no installation artefacts behind it.
    #[derive(Debug)]
    struct OpaqueModel(Routine);
    impl CostModel for OpaqueModel {
        fn routine(&self) -> Routine {
            self.0
        }
        fn version(&self) -> u64 {
            1
        }
        fn trained_samples(&self) -> usize {
            0
        }
        fn predict_cost(&self, _dims: Dims) -> (usize, f64) {
            (1, 1.0)
        }
        fn predict_secs(&self, _dims: Dims, _nt: usize) -> f64 {
            1.0
        }
    }
    let opaque = OpaqueModel(inst.routine);
    assert!(matches!(
        refit_from_records(&[], &opaque, &cfg),
        RefitOutcome::Opaque
    ));
}

#[test]
fn empty_model_portfolio_is_a_typed_outcome_not_a_panic() {
    use adsala_serve::adapt::{refit_from_records, RefitOutcome};
    use adsala_serve::{ClientId, TenantId};

    let inst = installed_dgemm(ModelKind::LinearRegression, 120);
    let routine = inst.routine;
    let records: Vec<TelemetryRecord> = (0..60usize)
        .map(|i| {
            let dims = Dims::d3(1024 + 16 * i, 1152 + 12 * i, 1280 + 20 * i);
            TelemetryRecord {
                seq: i as u64,
                client: ClientId(0),
                tenant: TenantId(0),
                shard: 0,
                routine,
                dims,
                nt: 9,
                admitted_nt: 9,
                predicted_secs: 1e-3,
                model_backed: true,
                epoch: 1,
                observed_secs: 2e-3,
                batch_size: 1,
            }
        })
        .collect();
    let cfg = AdaptConfig {
        min_window: 40,
        kinds: Vec::new(), // misconfigured: nothing to refit with
        ..Default::default()
    };
    assert!(matches!(
        refit_from_records(&records, &inst, &cfg),
        RefitOutcome::NoViableCandidate
    ));
}

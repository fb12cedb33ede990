//! The price corrects itself on a live service: under a backend that runs
//! 2x slower than the installed model believes, the calls the service
//! serves teach the routine's predictor the drift, later calls are priced
//! at the observed wall-clock, and no call's thread count moves.

// Outside the Miri subset: drives a live Service (OS worker threads).
#![cfg(not(miri))]

use adsala::install::{install_routine, InstallOptions};
use adsala::runtime::Adsala;
use adsala::timer::{BlasTimer, SimTimer};
use adsala_blas3::op::{Dims, Routine};
use adsala_blas3::{Blas3Backend, Blas3Error, Blas3Op, Matrix, OwnedOp, Transpose};
use adsala_machine::MachineSpec;
use adsala_ml::model::ModelKind;
use adsala_serve::{ServeConfig, Service, TelemetryRecord};
use std::time::{Duration, Instant};

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
    // and spin on the identically scaled surface (see the harness below).
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
    // The reading learned the injected 2x.
    let learned = drift[0].ratio;
    assert!(
        (1.5..=2.5).contains(&learned),
        "the correction read {learned:.3} against a 2x drift"
    );

    // The service never stopped; the same shapes again, now priced at what
    // they take.
    let post = drive_traffic(&service, 48);
    let post_ratio = mean_ratio(&post);
    eprintln!(
        "round 1: observed/predicted {pre_ratio:.2}; correction {learned:.2} over 48 calls; \
         round 2: observed/predicted {post_ratio:.2}"
    );
    let drift = &service.stats().drift_by_routine;
    assert_eq!(drift.len(), 1);
    assert_eq!((drift[0].routine, drift[0].samples), (routine, 96));
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

// ------------------------------------------------------ drift injection
//
// How do we make a spin-loop backend show an installed model exactly
// `skew`x drift on any machine, including a loaded CI box? Scheduling noise
// is additive per spin, so the answer is a **calibrated time scale**: probe
// this machine's spin-deadline overshoot once, then stretch both the
// installed timings and the replayed spins by the same factor until the
// smallest traffic call dwarfs the noise. The drift *ratio* is unchanged;
// only the test's wall-clock grows, and only on noisy hosts.

/// Spin the current thread for `secs` of wall-clock; returns the achieved
/// duration (>= `secs`; the excess is this machine's scheduling overshoot).
fn spin_for(secs: f64) -> f64 {
    let target = Duration::from_secs_f64(secs);
    let t0 = Instant::now();
    while t0.elapsed() < target {
        std::hint::spin_loop();
    }
    t0.elapsed().as_secs_f64()
}

/// Calibrated time scale applied identically to the installed timings and
/// the backend's spins: on a loaded host a spin can overshoot its deadline
/// by a whole timeslice, and against the smallest ~1.8 ms simulated
/// traffic call that noise alone approaches the injected 2x drift.
/// Deriving the scale from a measured baseline (rather than a fixed
/// iteration count) keeps the suite instant on healthy machines and merely
/// slower — not flaky — on loaded ones.
fn calibrated_time_scale(min_traffic_secs: f64) -> f64 {
    const PROBE_SECS: f64 = 2e-4;
    // Smallest spin must dwarf the worst observed overshoot by this much.
    const HEADROOM: f64 = 8.0;
    // Never extrapolate below a microsecond, and never stretch the suite
    // beyond ~64x even on a pathologically loaded machine.
    const MIN_OVERSHOOT: f64 = 1e-6;
    const MAX_SCALE: f64 = 64.0;
    let mut overshoot = MIN_OVERSHOOT;
    for _ in 0..8 {
        overshoot = overshoot.max(spin_for(PROBE_SECS) - PROBE_SECS);
    }
    (overshoot * HEADROOM / min_traffic_secs).clamp(1.0, MAX_SCALE)
}

/// The `i`-th traffic shape (shared by the driver and the calibration).
fn traffic_shape(i: usize) -> (usize, usize, usize) {
    (
        1280 + 96 * (i % 16),
        1280 + 96 * ((i * 3) % 16),
        1280 + 96 * ((i * 5) % 16),
    )
}

/// Smallest (unscaled) seconds any traffic call can spin for, over all
/// shapes and admissible thread counts.
fn min_traffic_secs(timer: &impl BlasTimer, routine: Routine) -> f64 {
    let mut min = f64::MAX;
    for i in 0..16 {
        let (m, k, n) = traffic_shape(i);
        for nt in 1..=timer.max_threads() {
            min = min.min(timer.time(routine, Dims::d3(m, k, n), nt, 0));
        }
    }
    min
}

/// A [`BlasTimer`] with every measurement multiplied by a constant: a model
/// installed through it learns the *scaled* surface, so a backend spinning
/// `scale * skew * time` shows it exactly `skew`x drift.
struct ScaledTimer<T: BlasTimer> {
    /// The timer being scaled.
    inner: T,
    /// Multiplier applied to every measurement.
    scale: f64,
}

impl<T: BlasTimer> BlasTimer for ScaledTimer<T> {
    fn time(&self, routine: Routine, dims: Dims, nt: usize, rep: u64) -> f64 {
        self.inner.time(routine, dims, nt, rep) * self.scale
    }
    fn max_threads(&self) -> usize {
        self.inner.max_threads()
    }
    fn platform(&self) -> &str {
        self.inner.platform()
    }
}

/// A backend whose wall-clock is a skewed replay of a timer's surface:
/// executing `(op, nt)` spins for `scale * skew *` the timer's measurement.
/// With the model installed through [`ScaledTimer`] at the same `scale`,
/// `skew = 2.0` is the "observed is twice predicted" drift, injected
/// deterministically.
struct SkewedSpinBackend<T: BlasTimer> {
    timer: T,
    skew: f64,
    scale: f64,
}

impl<T: BlasTimer> SkewedSpinBackend<T> {
    /// Backend replaying `timer` at `scale * skew` wall-clock.
    fn new(timer: T, skew: f64, scale: f64) -> SkewedSpinBackend<T> {
        SkewedSpinBackend { timer, skew, scale }
    }

    fn spin(&self, routine: Routine, dims: Dims, nt: usize) {
        spin_for(self.timer.time(routine, dims, nt, 0) * self.scale * self.skew);
    }
}

impl<T: BlasTimer + Send> Blas3Backend for SkewedSpinBackend<T> {
    fn name(&self) -> &str {
        "skewed-spin"
    }
    fn max_threads(&self) -> usize {
        self.timer.max_threads()
    }
    fn execute_f32(&self, nt: usize, op: Blas3Op<'_, f32>) -> Result<(), Blas3Error> {
        op.validate()?;
        self.spin(op.routine(), op.dims(), nt);
        Ok(())
    }
    fn execute_f64(&self, nt: usize, op: Blas3Op<'_, f64>) -> Result<(), Blas3Error> {
        op.validate()?;
        self.spin(op.routine(), op.dims(), nt);
        Ok(())
    }
}

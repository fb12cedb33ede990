//! Shared drift-injection harness for the price-correction integration
//! test (`tests/adapt.rs`) and example (`examples/adapt.rs`), both of which
//! include this one file with `#[path]`, so they cannot silently diverge in
//! how they calibrate against machine noise or inject the skew.
//!
//! The harness answers one question robustly: *how do we make a spin-loop
//! backend show an installed model exactly `skew`x drift on any machine,
//! including a loaded CI box?* Scheduling noise is additive per spin, so
//! the answer is a **calibrated time scale**: probe this machine's
//! spin-deadline overshoot once, then stretch both the installed timings
//! and the replayed spins by the same factor until the smallest traffic
//! call dwarfs the noise. The drift *ratio* is unchanged; only the suite's
//! wall-clock grows, and only on noisy hosts.

use adsala::timer::BlasTimer;
use adsala_blas3::op::{Dims, Routine};
use adsala_blas3::{Blas3Backend, Blas3Error, Blas3Op};
use std::time::{Duration, Instant};

/// Spin the current thread for `secs` of wall-clock; returns the achieved
/// duration (>= `secs`; the excess is this machine's scheduling overshoot).
pub fn spin_for(secs: f64) -> f64 {
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
pub fn calibrated_time_scale(min_traffic_secs: f64) -> f64 {
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

/// The `i`-th traffic shape (shared by the drivers and the calibration).
pub fn traffic_shape(i: usize) -> (usize, usize, usize) {
    (
        1280 + 96 * (i % 16),
        1280 + 96 * ((i * 3) % 16),
        1280 + 96 * ((i * 5) % 16),
    )
}

/// Smallest (unscaled) seconds any traffic call can spin for, over all
/// shapes and admissible thread counts.
pub fn min_traffic_secs(timer: &impl BlasTimer, routine: Routine) -> f64 {
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
pub struct ScaledTimer<T: BlasTimer> {
    /// The timer being scaled.
    pub inner: T,
    /// Multiplier applied to every measurement.
    pub scale: f64,
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
pub struct SkewedSpinBackend<T: BlasTimer> {
    timer: T,
    skew: f64,
    scale: f64,
}

impl<T: BlasTimer> SkewedSpinBackend<T> {
    /// Backend replaying `timer` at `scale * skew` wall-clock.
    pub fn new(timer: T, skew: f64, scale: f64) -> SkewedSpinBackend<T> {
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

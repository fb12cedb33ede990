//! The online-adaptation seam: a first-class cost-model trait and the
//! versioned epochs that make predictor slots hot-swappable.
//!
//! The paper installs its thread-count models once per platform. A
//! long-running service cannot afford that: when production telemetry shows
//! the installed model drifting away from observed wall-clock, a refit must
//! replace it *in place*, without tearing the runtime down. The API pieces
//! here are that seam:
//!
//! * [`CostModel`] — the object-safe prediction interface. The offline
//!   installation artefacts ([`InstalledRoutine`]) implement it, but so can
//!   anything else (an online refit, a fixed-cost stub in tests, a remote
//!   model server).
//! * [`ModelEpoch`] — one published generation of a model: a monotonically
//!   increasing version paired with an `Arc<dyn CostModel>`. Predictions are
//!   tagged with the epoch that produced them, so telemetry can separate
//!   pre-swap from post-swap behaviour and last-call caches can invalidate
//!   on version bumps.
//! * [`SwapError`] — the typed failure of
//!   [`Adsala::swap_model`](crate::runtime::Adsala::swap_model).
//!
//! See [`crate::predictor::ThreadPredictor`] for the swap mechanics and
//! `adsala-serve`'s `adapt` module for the drift → refit → swap driver built
//! on top.
//!
//! # `t_eval` where the answer is obvious
//!
//! The trait has two questions, and [`InstalledRoutine`] answers them at
//! different prices. [`CostModel::predict_nt`] under the install corpus's
//! serial threshold
//! ([`PipelineConfig::serial_footprint`](crate::pipeline::PipelineConfig))
//! is one comparison on the call's footprint — no feature, transform or
//! tree — and [`CostModel::predict_cost`] there prices the one row at
//! `nt = 1` instead of one per candidate. Above the threshold, and for
//! every install without one, both are the sweep of [`crate::install`],
//! bit for bit. The threshold stops under the first training shape one
//! thread needed more than [`crate::pipeline::SERIAL_VOTE_MAX_SECS`] for:
//! the shortcut is for calls the sweep is a visible share of.

use crate::install::{predict_secs_at, InstalledRoutine};
use adsala_blas3::op::{Dims, Routine};
use std::fmt;
use std::sync::Arc;

/// An object-safe predictor of BLAS call cost: thread-count selection plus
/// wall-clock estimation, with enough metadata to version and audit it.
///
/// Implemented by [`InstalledRoutine`] (the paper's offline artefacts) and
/// by whatever an online-adaptation loop refits. All methods take `&self`
/// and the trait requires `Send + Sync`, so one model behind an `Arc` can
/// serve concurrent callers.
pub trait CostModel: fmt::Debug + Send + Sync {
    /// The routine this model prices.
    fn routine(&self) -> Routine;

    /// Artefact version of this model (1 = the initial offline install;
    /// refits count up from the epoch they replace).
    fn version(&self) -> u64;

    /// Number of training rows the model was fitted on.
    fn trained_samples(&self) -> usize;

    /// Predict the best thread count for `dims` *and* the model's runtime
    /// estimate at that count, in seconds.
    fn predict_cost(&self, dims: Dims) -> (usize, f64);

    /// Predict the best thread count for `dims`.
    fn predict_nt(&self, dims: Dims) -> usize {
        self.predict_cost(dims).0
    }

    /// Predicted seconds for `dims` at an explicit thread count — the
    /// per-point view a holdout evaluation needs (telemetry records carry
    /// the `nt` that actually executed, not the model's argmin).
    fn predict_secs(&self, dims: Dims, nt: usize) -> f64;

    /// The offline installation artefacts behind this model, when it has
    /// any. Refit loops use this to inherit the platform label, candidate
    /// thread counts, and preprocessing shape; an opaque model (returning
    /// `None`, the default) can be served but not refitted from.
    fn as_installed(&self) -> Option<&InstalledRoutine> {
        None
    }
}

impl CostModel for InstalledRoutine {
    fn routine(&self) -> Routine {
        self.routine
    }

    fn version(&self) -> u64 {
        self.version
    }

    fn trained_samples(&self) -> usize {
        self.trained_samples
    }

    /// Under the serial threshold one row is priced instead of one per
    /// candidate: the bits the sweep returns when its argmin is 1.
    fn predict_cost(&self, dims: Dims) -> (usize, f64) {
        if self.answers_serial(dims) {
            (1, self.predict_secs(dims, 1))
        } else {
            self.sweep(dims)
        }
    }

    /// Under the serial threshold no feature, transform or tree is touched.
    fn predict_nt(&self, dims: Dims) -> usize {
        if self.answers_serial(dims) {
            1
        } else {
            self.sweep(dims).0
        }
    }

    fn predict_secs(&self, dims: Dims, nt: usize) -> f64 {
        predict_secs_at(&self.model, &self.pipeline, self.routine, dims, nt)
    }

    fn as_installed(&self) -> Option<&InstalledRoutine> {
        Some(self)
    }
}

/// One published generation of a routine's cost model: the model plus the
/// monotonically increasing version a predictor slot stamped it with.
///
/// Epochs are immutable once published; a swap builds a new one. Readers
/// hold them through `Arc`, so a prediction in flight keeps its epoch alive
/// even while a swap publishes the next.
#[derive(Debug, Clone)]
pub struct ModelEpoch {
    version: u64,
    model: Arc<dyn CostModel>,
}

impl ModelEpoch {
    /// Publish `model` as epoch `version`.
    pub fn new(version: u64, model: Arc<dyn CostModel>) -> ModelEpoch {
        ModelEpoch { version, model }
    }

    /// The slot-assigned version of this epoch.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The cost model serving this epoch.
    pub fn model(&self) -> &Arc<dyn CostModel> {
        &self.model
    }

    /// The offline artefacts behind this epoch's model, when it has any.
    pub fn installed(&self) -> Option<&InstalledRoutine> {
        self.model.as_installed()
    }
}

/// Why [`Adsala::swap_model`](crate::runtime::Adsala::swap_model) refused a
/// swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SwapError {
    /// No predictor slot exists for the routine: swaps replace models, they
    /// do not install new routines (fallback-served routines have no slot).
    UnknownRoutine(Routine),
    /// The new model prices a different routine than the slot serves.
    RoutineMismatch {
        /// Routine of the predictor slot.
        slot: Routine,
        /// Routine the offered model claims to price.
        model: Routine,
    },
    /// A conditional swap lost the race: the slot no longer serves the
    /// epoch the replacement was prepared against.
    VersionConflict {
        /// Epoch version the caller refitted against.
        expected: u64,
        /// Epoch version actually serving.
        current: u64,
    },
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::UnknownRoutine(r) => {
                write!(f, "no predictor slot installed for {r}")
            }
            SwapError::RoutineMismatch { slot, model } => {
                write!(f, "model prices {model} but the slot serves {slot}")
            }
            SwapError::VersionConflict { expected, current } => {
                write!(
                    f,
                    "slot serves epoch {current}, not the expected epoch {expected}"
                )
            }
        }
    }
}

impl std::error::Error for SwapError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::install::tests::all_candidates_install;
    use crate::install::{install_routine, predict_best_nt, InstallOptions};
    use crate::timer::SimTimer;
    use adsala_blas3::op::{OpKind, Precision};
    use adsala_machine::MachineSpec;
    use adsala_ml::model::ModelKind;

    fn quick_install() -> InstalledRoutine {
        let timer = SimTimer::new(MachineSpec::gadi());
        install_routine(
            &timer,
            Routine::new(OpKind::Gemm, Precision::Double),
            &InstallOptions {
                n_train: 100,
                n_eval: 8,
                kinds: vec![ModelKind::LinearRegression],
                nt_stride: 8,
                ..Default::default()
            },
        )
    }

    #[test]
    fn installed_routine_implements_the_trait() {
        let inst = quick_install();
        let d = Dims::d3(300, 200, 400);
        let direct = predict_best_nt(
            &inst.model,
            &inst.pipeline,
            inst.routine,
            d,
            &inst.candidates(),
        );
        let model: &dyn CostModel = &inst;
        assert_eq!(model.predict_nt(d), direct);
        assert_eq!(model.predict_cost(d).0, direct);
        assert_eq!(model.version(), 1, "fresh installs are epoch 1");
        assert!(model.trained_samples() > 0);
        assert_eq!(model.routine().name(), "dgemm");
        assert!(model.as_installed().is_some());
    }

    #[test]
    fn predict_secs_matches_the_sweep_at_the_argmin() {
        let inst = quick_install();
        let d = Dims::d3(512, 256, 128);
        let (nt, secs) = CostModel::predict_cost(&inst, d);
        let at_nt = inst.predict_secs(d, nt);
        assert!(
            (secs - at_nt).abs() <= 1e-12 * secs.max(1.0),
            "sweep said {secs}, point query said {at_nt}"
        );
        // Every candidate's point estimate is >= the argmin's.
        for &c in &inst.candidates() {
            assert!(inst.predict_secs(d, c) >= secs * (1.0 - 1e-12));
        }
    }

    #[test]
    fn under_the_threshold_is_the_measured_best_and_above_it_is_the_sweep() {
        const MAX_NT: usize = 4;
        let mut thresholds = 0;
        // One routine per feature family; dgemm's smallest sampled shape is
        // not serial-best, so it has no threshold and always sweeps.
        for op in [OpKind::Gemm, OpKind::Symm, OpKind::Gemv, OpKind::Symv] {
            let (inst, corpus) = all_candidates_install(op, MAX_NT);
            let threshold = inst.pipeline.serial_footprint;
            thresholds += usize::from(threshold.is_some());
            assert_eq!(threshold.is_none(), op == OpKind::Gemm, "{op:?}");
            let bits = |(nt, secs): (usize, f64)| (nt, secs.to_bits());
            let mut under = 0;
            // Every training shape votes: it was timed at 1..=MAX_NT.
            for (shape, labels) in corpus
                .samples
                .chunks(MAX_NT)
                .zip(corpus.dataset.y.chunks(MAX_NT))
            {
                let dims = shape[0].dims;
                let sweep = inst.sweep(dims);
                if threshold.is_some_and(|t| op.footprint_words(dims) <= t) {
                    under += 1;
                    assert!(inst.answers_serial(dims));
                    assert!(labels.iter().all(|&l| labels[0] <= l), "{op:?} {dims}");
                    assert_eq!(inst.predict_nt(dims), 1);
                    let at_one = inst.predict_secs(dims, 1);
                    assert_eq!(bits(inst.predict_cost(dims)), bits((1, at_one)));
                    // What the sweep returns whenever its own argmin is 1.
                    assert!(sweep.0 != 1 || sweep.1.to_bits() == at_one.to_bits());
                } else {
                    assert!(!inst.answers_serial(dims));
                    assert_eq!(inst.predict_nt(dims), sweep.0, "{op:?} {dims}");
                    assert_eq!(bits(inst.predict_cost(dims)), bits(sweep));
                }
            }
            assert_eq!(under > 0, threshold.is_some());
            // Shapes the corpus never saw, one word above the threshold up:
            // the sweep, bit for bit.
            for i in 0..40usize {
                let dims = match op.n_dims() {
                    3 => Dims::d3(8 + 13 * i, 200 - 3 * i, 8 + i * i),
                    2 => Dims::d2(8 + 29 * i, 8 + 7 * i * i),
                    _ => Dims::d1(8 + 31 * i),
                };
                if !inst.answers_serial(dims) {
                    let sweep = inst.sweep(dims);
                    assert_eq!(inst.predict_nt(dims), sweep.0);
                    assert_eq!(bits(inst.predict_cost(dims)), bits(sweep));
                }
            }
        }
        assert_eq!(thresholds, 3);
    }

    #[test]
    fn epoch_exposes_version_and_artefacts() {
        let inst = quick_install();
        let epoch = ModelEpoch::new(3, Arc::new(inst));
        assert_eq!(epoch.version(), 3);
        assert_eq!(
            epoch.installed().unwrap().selected,
            ModelKind::LinearRegression
        );
        assert_eq!(
            epoch.model().version(),
            1,
            "artefact version is the model's own"
        );
    }

    #[test]
    fn swap_error_displays_routines() {
        let r1 = Routine::new(OpKind::Gemm, Precision::Double);
        let r2 = Routine::new(OpKind::Symm, Precision::Single);
        assert!(SwapError::UnknownRoutine(r1).to_string().contains("dgemm"));
        let s = SwapError::RoutineMismatch {
            slot: r1,
            model: r2,
        }
        .to_string();
        assert!(s.contains("dgemm") && s.contains("ssymm"));
    }
}

//! The online-adaptation driver: drift detection → telemetry refit → hot
//! epoch swap.
//!
//! The paper installs its models once per platform; this module closes the
//! loop the ROADMAP calls "online adaptation". The telemetry ring
//! already pairs every served call with the prediction it was admitted
//! under; [`run_once`] turns those pairs back into training data:
//!
//! 1. **Detect** — per routine, the mean `observed / predicted` ratio over
//!    records priced by the *current* epoch (pre-swap history must not
//!    re-trigger a refit). Ratios inside the healthy band `DRIFT_BAND`
//!    (0.75–1.35) are left alone; windows shorter than `MIN_WINDOW` (32
//!    records) are ignored.
//! 2. **Refit** — qualifying records become training rows through the same
//!    feature path the offline install used (`features_for` → a freshly
//!    fitted preprocessing pipeline), with `ln(observed seconds)` labels;
//!    each model family of `KINDS` (linear regression and XGBoost) is
//!    grid-search tuned on the training split. Telemetry only covers the
//!    thread counts the live policy chose, so the training split is
//!    augmented with an *anchored nt sweep*: rows at the other candidate
//!    thread counts, labelled with the live model's nt-profile shifted (in
//!    ln space) by each record's observed-over-predicted ratio. Without
//!    this a refit would have no nt signal at all and its argmin would
//!    wander into thread counts nobody ever measured.
//! 3. **Guard** — the winner is scored on a held-out split (`HOLDOUT_FRAC`,
//!    a quarter of the window) against the *live* epoch scored on the same
//!    rows. A candidate whose holdout RMSE is worse than the live model's
//!    is rejected: a refit may never make the service worse just because
//!    drift was detected.
//! 4. **Swap** — an accepted candidate is published with
//!    [`Adsala::swap_model_if`](adsala::runtime::Adsala::swap_model_if), a
//!    compare-and-swap against the epoch the refit was prepared from: the
//!    service keeps serving throughout, callers mid-prediction finish on
//!    the epoch they started with, and the routine's prediction table
//!    cannot leak stale answers (entries are epoch-tagged). Concurrent
//!    passes cannot silently replace each other's models: the loser
//!    reports [`AdaptAction::Superseded`] and its refit is discarded.
//!
//! The loop has no settings; its window, band, split, model families and
//! split seed are the constants below. [`run_once`] is synchronous and
//! re-entrant: call it from a maintenance thread, a timer loop, or a test
//! — each call makes at most one swap per routine, and post-swap telemetry
//! (tagged with the new epoch) then decides whether the loop has converged.

use crate::service::Service;
use crate::telemetry::{drift_by_routine, TelemetryRecord};
use adsala::cost::{CostModel, SwapError};
use adsala::features::{feature_names, features_for};
use adsala::install::InstalledRoutine;
use adsala::pipeline::fit_pipeline;
use adsala::runtime::Adsala;
use adsala_blas3::op::Routine;
use adsala_blas3::Blas3Backend;
use adsala_ml::metrics::rmse;
use adsala_ml::model::{ModelKind, Regressor};
use adsala_ml::preprocess::stratified_split;
use adsala_ml::tuning::GridSearch;
use adsala_ml::Dataset;
use std::sync::Arc;

/// Qualifying records under the current epoch a routine needs before its
/// drift is acted on.
const MIN_WINDOW: usize = 32;
/// Healthy band for the mean `observed / predicted` ratio.
const DRIFT_BAND: (f64, f64) = (0.75, 1.35);
/// Share of the window held out for the guard.
const HOLDOUT_FRAC: f64 = 0.25;
/// Model families the refit tunes and races.
const KINDS: [ModelKind; 2] = [ModelKind::LinearRegression, ModelKind::Xgboost];
/// Seed of the train/holdout split.
const SEED: u64 = 0xADA9_7001;

// Below 16 records the holdout guard scores a handful of rows; a band
// that is empty or not positive never (or always) fires; a split outside
// (0, 1) trains or guards on nothing.
const _: () = assert!(MIN_WINDOW >= 16);
const _: () = assert!(0.0 < DRIFT_BAND.0 && DRIFT_BAND.0 < DRIFT_BAND.1);
const _: () = assert!(0.0 < HOLDOUT_FRAC && HOLDOUT_FRAC < 1.0);

/// What [`run_once`] decided for one routine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AdaptAction {
    /// Drift is inside the healthy band; nothing to do.
    InBand,
    /// Not enough qualifying records under the current epoch yet.
    TooFewSamples {
        /// Records required before acting.
        need: usize,
    },
    /// Drift detected, refit accepted, new epoch published.
    Swapped {
        /// The epoch version now serving.
        version: u64,
        /// Family of the refitted model.
        selected: ModelKind,
        /// Holdout RMSE (ln-seconds) of the refit.
        candidate_rmse: f64,
        /// Holdout RMSE (ln-seconds) of the epoch it replaced.
        live_rmse: f64,
    },
    /// Drift detected but the refit lost to the live epoch on holdout:
    /// guardrail held, nothing swapped.
    RejectedWorse {
        /// Family of the best (still losing) refit candidate.
        selected: ModelKind,
        /// Its holdout RMSE (ln-seconds).
        candidate_rmse: f64,
        /// The live epoch's holdout RMSE (ln-seconds).
        live_rmse: f64,
    },
    /// Drift detected but no model family produced a finite holdout
    /// score: nothing to swap.
    NoViableCandidate,
    /// Drift detected and a refit was accepted, but another swap published
    /// a newer epoch first; the refit was discarded as stale.
    Superseded {
        /// Epoch version now serving.
        current_version: u64,
    },
    /// The live model exposes no installation artefacts to refit from
    /// (an opaque [`CostModel`] can be served but not adapted).
    Opaque,
}

/// Per-routine outcome of one [`run_once`] pass.
#[derive(Debug, Clone)]
pub struct AdaptReport {
    /// The routine examined.
    pub routine: Routine,
    /// Qualifying records under the current epoch.
    pub window: usize,
    /// Mean `observed / predicted` over the window (`None` when empty).
    pub drift: Option<f64>,
    /// What the driver did.
    pub action: AdaptAction,
}

/// An accepted refit, ready to swap.
#[derive(Debug)]
pub struct RefitCandidate {
    /// The refitted artefact (version already counted up from the live
    /// epoch; pipeline refitted on the telemetry window).
    pub installed: InstalledRoutine,
    /// Family of the winning model.
    pub selected: ModelKind,
    /// Holdout RMSE (ln-seconds) of the refit.
    pub candidate_rmse: f64,
    /// Holdout RMSE (ln-seconds) of the live epoch on the same rows.
    pub live_rmse: f64,
}

/// One pass of the loop: examine every model-backed routine seen in
/// telemetry, refit and hot-swap the ones that drifted. Returns one report
/// per examined routine (sorted by routine). The service keeps serving
/// throughout — this runs entirely through `&Service`.
pub fn run_once<B: Blas3Backend + 'static>(service: &Service<B>) -> Vec<AdaptReport> {
    // The merged view across every scheduler cell: drift is a property of
    // the model, not of whichever shard happened to execute the call, so
    // the pass aggregates before it judges.
    let snap = service.telemetry_snapshot();
    let runtime = service.runtime();
    let mut routines: Vec<Routine> = snap
        .iter()
        .filter(|r| r.model_backed)
        .map(|r| r.routine)
        .collect();
    routines.sort();
    routines.dedup();

    let mut reports = Vec::with_capacity(routines.len());
    for routine in routines {
        let Some(epoch) = runtime.model_epoch(routine) else {
            // Model-backed records for a routine without a slot can only
            // mean the record predates a runtime rebuild; nothing to do.
            continue;
        };
        let live_version = epoch.version();
        // Only records priced by the current epoch count: the drift that
        // justified the *last* swap must not justify the next one.
        let recs: Vec<TelemetryRecord> = snap
            .iter()
            .filter(|r| r.routine == routine && r.epoch == live_version && r.qualifies_for_drift())
            .copied()
            .collect();
        let window = recs.len();
        let drift = drift_by_routine(&recs)
            .first()
            .map(|d| d.mean_observed_over_predicted);

        let action = match drift {
            Some(ratio) if window >= MIN_WINDOW => {
                if (DRIFT_BAND.0..=DRIFT_BAND.1).contains(&ratio) {
                    AdaptAction::InBand
                } else {
                    match refit_from_records(&recs, epoch.model().as_ref()) {
                        Ok(cand) => publish(runtime, live_version, cand),
                        Err(action) => action,
                    }
                }
            }
            _ => AdaptAction::TooFewSamples { need: MIN_WINDOW },
        };
        reports.push(AdaptReport {
            routine,
            window,
            drift,
            action,
        });
    }
    reports
}

/// Swap `cand` in, provided its routine still serves epoch `expected`, the
/// one the refit was prepared from: if another pass (or an operator)
/// published first, this refit is stale and must not clobber theirs.
fn publish<B: Blas3Backend>(
    runtime: &Adsala<B>,
    expected: u64,
    cand: RefitCandidate,
) -> AdaptAction {
    let routine = cand.installed.routine;
    match runtime.swap_model_if(routine, expected, Arc::new(cand.installed)) {
        Ok(version) => AdaptAction::Swapped {
            version,
            selected: cand.selected,
            candidate_rmse: cand.candidate_rmse,
            live_rmse: cand.live_rmse,
        },
        Err(SwapError::VersionConflict { current, .. }) => AdaptAction::Superseded {
            current_version: current,
        },
        Err(e) => unreachable!("run_once found the slot and the refit prices its routine: {e}"),
    }
}

/// Refit one routine's cost model from telemetry records, guarded against
/// regressions: the candidate is accepted only if its holdout RMSE
/// (ln-seconds) is no worse than the live model's on the same held-out
/// rows.
///
/// Records that do not [qualify](TelemetryRecord::qualifies_for_drift) or
/// belong to another routine are ignored. Exposed so tests (and callers
/// with their own swap policy) can drive the refit without a [`Service`].
///
/// # Errors
/// The [`AdaptAction`] a refit that is not accepted reports:
/// [`AdaptAction::Opaque`], [`AdaptAction::TooFewSamples`],
/// [`AdaptAction::NoViableCandidate`] or [`AdaptAction::RejectedWorse`].
pub fn refit_from_records(
    records: &[TelemetryRecord],
    live: &dyn CostModel,
) -> Result<RefitCandidate, AdaptAction> {
    let routine = live.routine();
    let Some(live_inst) = live.as_installed() else {
        return Err(AdaptAction::Opaque);
    };
    let usable: Vec<&TelemetryRecord> = records
        .iter()
        .filter(|r| r.routine == routine && r.qualifies_for_drift())
        .collect();
    let too_few = AdaptAction::TooFewSamples { need: MIN_WINDOW };
    if usable.len() < MIN_WINDOW {
        return Err(too_few);
    }

    // Telemetry rows -> the install-time representation: raw Table III
    // features at the executed thread count, ln(observed seconds) labels.
    let raw: Vec<Vec<f64>> = usable
        .iter()
        .map(|r| features_for(routine, r.dims, r.nt))
        .collect();
    let y: Vec<f64> = usable
        .iter()
        .map(|r| r.observed_secs.max(1e-12).ln())
        .collect();

    let (train_idx, hold_idx) = stratified_split(&y, HOLDOUT_FRAC, SEED);
    if hold_idx.is_empty() || train_idx.len() < 8 {
        return Err(too_few);
    }

    // Fresh preprocessing pipeline on the training split only — the
    // holdout stays untouched by LOF/standardisation fitting.
    let names: Vec<String> = feature_names(routine.op)
        .into_iter()
        .map(String::from)
        .collect();
    let mut train_x: Vec<Vec<f64>> = train_idx.iter().map(|&i| raw[i].clone()).collect();
    let mut train_y: Vec<f64> = train_idx.iter().map(|&i| y[i]).collect();

    // Anchored nt sweep: production telemetry only samples the thread
    // counts the live policy chose, so a model fitted on it alone has no nt
    // signal and its argmin would wander into thread counts nobody ever
    // measured. For each training record, add rows at a strided subset of
    // the candidate thread counts, labelled with the live model's
    // nt-profile shifted (in ln space) by the record's observed ratio —
    // the refit learns the drift from real rows and inherits the nt shape
    // from the epoch it replaces. The holdout stays real records only.
    let cands = live_inst.candidates();
    let step = cands.len().div_ceil(6).max(1);
    for &i in &train_idx {
        let r = usable[i];
        let shift = y[i] - live.predict_secs(r.dims, r.nt).max(1e-12).ln();
        for &nt in cands.iter().step_by(step) {
            if nt == r.nt {
                continue;
            }
            train_x.push(features_for(routine, r.dims, nt));
            train_y.push(live.predict_secs(r.dims, nt).max(1e-12).ln() + shift);
        }
    }
    let fitted = fit_pipeline(&Dataset::new(train_x, train_y, names));

    // Guardrail baseline: the live epoch scored on the held-out rows.
    let hold_y: Vec<f64> = hold_idx.iter().map(|&i| y[i]).collect();
    let live_preds: Vec<f64> = hold_idx
        .iter()
        .map(|&i| {
            let r = usable[i];
            live.predict_secs(r.dims, r.nt).max(1e-12).ln()
        })
        .collect();
    let live_rmse = rmse(&live_preds, &hold_y);

    // Tune every family on the preprocessed training rows and
    // score each on the raw holdout through the new pipeline.
    let mut best: Option<(ModelKind, adsala_ml::model::Model, f64)> = None;
    for kind in KINDS {
        let tuned = GridSearch::new(kind).search(&fitted.train.x, &fitted.train.y);
        let preds: Vec<f64> = hold_idx
            .iter()
            .map(|&i| {
                tuned
                    .model
                    .predict_row(&fitted.config.transform_row(&raw[i]))
            })
            .collect();
        let err = rmse(&preds, &hold_y);
        // A degenerate fit (non-finite holdout error) can never win — and
        // must never slip past the guardrail comparison below.
        if err.is_finite() && best.as_ref().is_none_or(|(.., e)| err < *e) {
            best = Some((kind, tuned.model, err));
        }
    }
    let Some((selected, model, candidate_rmse)) = best else {
        // Every family degenerated to a non-finite holdout score: a typed
        // outcome, not a panic in the maintenance thread that drives
        // adaptation.
        return Err(AdaptAction::NoViableCandidate);
    };

    if candidate_rmse > live_rmse {
        return Err(AdaptAction::RejectedWorse {
            selected,
            candidate_rmse,
            live_rmse,
        });
    }

    let installed = InstalledRoutine {
        routine,
        platform: live_inst.platform.clone(),
        max_threads: live_inst.max_threads,
        nt_stride: live_inst.nt_stride,
        pipeline: fitted.config,
        model,
        selected,
        // A refit carries no Table VI evaluation rows; the guardrail RMSEs
        // in the report are its evaluation.
        reports: Vec::new(),
        version: live.version() + 1,
        trained_samples: fitted.train.len(),
    };
    Ok(RefitCandidate {
        installed,
        selected,
        candidate_rmse,
        live_rmse,
    })
}

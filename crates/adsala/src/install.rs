//! Installation workflow (paper Fig. 1a and §IV): gather -> preprocess ->
//! tune & train every candidate model -> evaluate -> select by *estimated
//! speedup* -> refit the winner for production.
//!
//! The selection criterion is the paper's
//! `s = t_original / (t_ADSALA + t_eval)` (§IV-D): predictive accuracy and
//! model evaluation latency are traded off in one number, which is why a
//! slightly-less-accurate linear model can beat a kNN whose per-call sweep
//! costs milliseconds.
//!
//! # The prediction sweep
//!
//! `t_eval` is paid on every predictor-cache miss that the install's serial
//! threshold does not answer ([`InstalledRoutine::answers_serial`]), so
//! [`predict_best_cost`]
//! and [`predict_secs_at`] are one pass without a heap allocation. Raw
//! Table III features go to a stack row ([`features_into`]); only the
//! columns the correlation filter kept are power-transformed and
//! standardised, by the same operations in the same order as
//! [`PipelineConfig::transform_row`], so the bits are the same; a column
//! that does not involve `nt` is transformed once per call and copied to
//! every other candidate. The candidates are iterated, not collected, and
//! their rows are laid side by side, sixteen to a block, so that the model
//! prices a block in one [`Regressor::predict_rows`] — for the
//! gradient-boosted kind one lock-step walk of its node arena (see
//! `adsala_ml::tree::gbt`). The first minimum wins, then one `exp`.

use crate::features::{features_into, MAX_FEATURES};
use crate::gather::{gather, gather_offset, Gathered};
use crate::pipeline::{fit_pipeline, PipelineConfig};
use crate::timer::BlasTimer;
use adsala_blas3::op::{Dims, Routine};
use adsala_ml::metrics::rmse;
use adsala_ml::model::{HyperParams, Model, ModelKind, Regressor};
use adsala_ml::preprocess::stratified_split;
use adsala_ml::tuning::GridSearch;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Installation options.
#[derive(Debug, Clone)]
pub struct InstallOptions {
    /// Training-corpus size (paper: 1000-1200).
    pub n_train: usize,
    /// Held-out evaluation corpus size (paper: 100-120).
    pub n_eval: usize,
    /// Test fraction of the stratified split used for RMSE reporting.
    pub test_frac: f64,
    /// Sampler seed.
    pub seed: u64,
    /// Candidate model kinds (default: the full Table II portfolio).
    pub kinds: Vec<ModelKind>,
    /// Stride through the candidate thread counts at prediction time
    /// (1 = every count; larger values trade argmin resolution for speed).
    pub nt_stride: usize,
}

impl Default for InstallOptions {
    fn default() -> Self {
        InstallOptions {
            n_train: 1000,
            n_eval: 110,
            test_frac: 0.15,
            seed: 0xAD5A1A,
            kinds: ModelKind::ALL.to_vec(),
            nt_stride: 1,
        }
    }
}

/// Per-model evaluation statistics — one row of paper Table VI.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelReport {
    /// Model family.
    pub kind: ModelKind,
    /// Winning hyper-parameters from the grid search.
    pub params: HyperParams,
    /// RMSE on the held-out stratified test split (log-seconds label).
    pub test_rmse: f64,
    /// `test_rmse` normalised by the worst model's RMSE (Table VI col 1).
    pub normalized_rmse: f64,
    /// Mean speedup assuming zero evaluation cost.
    pub ideal_mean_speedup: f64,
    /// `sum(t_max) / sum(t_choice)` over the eval corpus.
    pub ideal_aggregate_speedup: f64,
    /// Measured cost of one full argmin sweep, microseconds.
    pub eval_time_us: f64,
    /// Mean of `t_max / (t_choice + t_eval)` (the selection criterion).
    pub estimated_mean_speedup: f64,
    /// `sum(t_max) / sum(t_choice + t_eval)`.
    pub estimated_aggregate_speedup: f64,
}

/// A fully-installed routine: everything the runtime needs, plus the
/// installation-time reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstalledRoutine {
    /// The routine.
    pub routine: Routine,
    /// Platform label from the timer.
    pub platform: String,
    /// Max thread count of the platform.
    pub max_threads: usize,
    /// Stride through candidate thread counts.
    pub nt_stride: usize,
    /// Replayable preprocessing config (Fig. 1a "Config File").
    pub pipeline: PipelineConfig,
    /// The selected, production-ready model (Fig. 1a "Trained Model").
    pub model: Model,
    /// Family of the selected model.
    pub selected: ModelKind,
    /// Table VI rows for every candidate.
    pub reports: Vec<ModelReport>,
    /// Artefact version: 1 for an offline install, counting up with every
    /// online refit that replaces it (see [`crate::cost::CostModel`]).
    pub version: u64,
    /// Training rows the production model was fitted on.
    pub trained_samples: usize,
}

impl InstalledRoutine {
    /// Candidate thread counts swept at prediction time.
    pub fn candidates(&self) -> Vec<usize> {
        candidates(self.max_threads, self.nt_stride).collect()
    }

    /// The prediction sweep over every candidate thread count.
    pub(crate) fn sweep(&self, dims: Dims) -> (usize, f64) {
        let cands = candidates(self.max_threads, self.nt_stride);
        sweep(&self.model, &self.pipeline, self.routine, dims, cands)
    }

    /// Whether `dims` sits at or under the install corpus's serial
    /// threshold ([`PipelineConfig::serial_footprint`]), where this
    /// routine's [`CostModel`](crate::cost::CostModel) answers `nt = 1`
    /// without running the sweep.
    pub fn answers_serial(&self, dims: Dims) -> bool {
        self.pipeline
            .serial_footprint
            .is_some_and(|words| self.routine.op.footprint_words(dims) <= words)
    }
}

/// `1, 1 + stride, ...` up to `max_threads`, which is always the last one.
pub(crate) fn candidates(max_threads: usize, stride: usize) -> impl Iterator<Item = usize> {
    let stride = stride.max(1);
    let max_on_stride = max_threads.checked_sub(1).is_none_or(|d| d % stride == 0);
    (1..=max_threads)
        .step_by(stride)
        .chain((!max_on_stride).then_some(max_threads))
}

/// Predict the best thread count for `dims` with a fitted model+pipeline.
pub fn predict_best_nt(
    model: &Model,
    pipeline: &PipelineConfig,
    routine: Routine,
    dims: Dims,
    cands: &[usize],
) -> usize {
    predict_best_cost(model, pipeline, routine, dims, cands).0
}

/// Predict the best thread count for `dims` *and* the model's runtime
/// estimate at that count, in seconds.
///
/// The regression label is `ln(seconds)` (see [`crate::gather`]), so the
/// argmin sweep's winning prediction exponentiates back to a wall-clock
/// estimate. Service layers use this as a cost model: admission control and
/// backlog accounting need predicted *time*, not just the thread count.
pub fn predict_best_cost(
    model: &Model,
    pipeline: &PipelineConfig,
    routine: Routine,
    dims: Dims,
    cands: &[usize],
) -> (usize, f64) {
    sweep(model, pipeline, routine, dims, cands.iter().copied())
}

/// Model-predicted seconds for one call at an explicit thread count — the
/// point query behind [`crate::cost::CostModel::predict_secs`]: the argmin
/// sweep over that one candidate.
pub fn predict_secs_at(
    model: &Model,
    pipeline: &PipelineConfig,
    routine: Routine,
    dims: Dims,
    nt: usize,
) -> f64 {
    sweep(model, pipeline, routine, dims, std::iter::once(nt)).1
}

/// Candidates whose rows are built and priced together.
const BLOCK: usize = 16;

/// The model-space rows of one call's candidates:
/// `pipeline.transform_row(&features_for(routine, dims, nt))` bit for bit.
struct CandidateRows<'a> {
    pipeline: &'a PipelineConfig,
    routine: Routine,
    dims: Dims,
    /// Raw features of the call's first candidate.
    first_raw: [f64; MAX_FEATURES],
    /// Their kept columns, transformed.
    first_row: [f64; MAX_FEATURES],
}

impl<'a> CandidateRows<'a> {
    fn new(pipeline: &'a PipelineConfig, routine: Routine, dims: Dims, first: usize) -> Self {
        let mut first_raw = [0.0; MAX_FEATURES];
        let raw_width = features_into(routine, dims, first, &mut first_raw);
        let mut first_row = [0.0; MAX_FEATURES];
        let width = pipeline.correlation.kept.len();
        pipeline.transform_into(&first_raw[..raw_width], &mut first_row[..width]);
        CandidateRows {
            pipeline,
            routine,
            dims,
            first_raw,
            first_row,
        }
    }

    /// Write candidate `nt`'s row, one slot per kept feature. A column
    /// whose raw value has the bits it has for the first candidate takes
    /// that candidate's transformed value: the transform is a function of
    /// the column's value alone.
    fn write(&self, nt: usize, row: &mut [f64]) {
        let mut raw = [0.0; MAX_FEATURES];
        features_into(self.routine, self.dims, nt, &mut raw);
        for ((out, &j), &first) in row
            .iter_mut()
            .zip(&self.pipeline.correlation.kept)
            .zip(&self.first_row)
        {
            *out = if raw[j].to_bits() == self.first_raw[j].to_bits() {
                first
            } else {
                self.pipeline.transform_column(j, raw[j])
            };
        }
    }
}

/// The prediction sweep (see the module docs): up to [`BLOCK`] candidates'
/// rows at a time, one [`Regressor::predict_rows`] each, first minimum wins.
pub(crate) fn sweep(
    model: &Model,
    pipeline: &PipelineConfig,
    routine: Routine,
    dims: Dims,
    cands: impl Iterator<Item = usize>,
) -> (usize, f64) {
    let mut cands = cands.peekable();
    let first = *cands.peek().expect("at least one candidate thread count");
    let rows_of = CandidateRows::new(pipeline, routine, dims, first);
    let width = pipeline.correlation.kept.len();
    let mut best = (first, f64::INFINITY);
    let mut rows = [0.0; BLOCK * MAX_FEATURES];
    let mut nts = [0; BLOCK];
    let mut preds = [0.0; BLOCK];
    loop {
        let mut n = 0;
        for nt in cands.by_ref().take(BLOCK) {
            rows_of.write(nt, &mut rows[n * width..][..width]);
            nts[n] = nt;
            n += 1;
        }
        if n == 0 {
            break;
        }
        model.predict_rows(&rows[..n * width], &mut preds[..n]);
        for (&nt, &pred) in nts[..n].iter().zip(&preds[..n]) {
            if pred < best.1 {
                best = (nt, pred);
            }
        }
    }
    (best.0, best.1.exp())
}

/// Evaluate one trained model over an eval corpus; returns
/// `(ideal_mean, ideal_agg, est_mean, est_agg, eval_time_us)`.
#[allow(clippy::too_many_arguments)]
fn evaluate_model(
    timer: &dyn BlasTimer,
    routine: Routine,
    model: &Model,
    pipeline: &PipelineConfig,
    eval: &Gathered,
    cands: &[usize],
) -> (f64, f64, f64, f64, f64) {
    let nt_max = timer.max_threads();
    // Measure the sweep cost on a handful of points (paper: "averaging
    // multiple runs").
    let reps = 5.min(eval.samples.len());
    let t0 = Instant::now();
    for s in eval.samples.iter().take(reps) {
        std::hint::black_box(predict_best_nt(model, pipeline, routine, s.dims, cands));
    }
    let eval_time = t0.elapsed().as_secs_f64() / reps.max(1) as f64;

    let mut ratios = Vec::with_capacity(eval.samples.len());
    let mut est_ratios = Vec::with_capacity(eval.samples.len());
    let mut sum_max = 0.0;
    let mut sum_choice = 0.0;
    let mut sum_choice_est = 0.0;
    for (i, s) in eval.samples.iter().enumerate() {
        let rep = 1_000_000 + i as u64;
        let choice = predict_best_nt(model, pipeline, routine, s.dims, cands);
        let t_max = timer.time(routine, s.dims, nt_max, rep);
        let t_choice = timer.time(routine, s.dims, choice, rep);
        ratios.push(t_max / t_choice);
        est_ratios.push(t_max / (t_choice + eval_time));
        sum_max += t_max;
        sum_choice += t_choice;
        sum_choice_est += t_choice + eval_time;
    }
    let n = ratios.len() as f64;
    (
        ratios.iter().sum::<f64>() / n,
        sum_max / sum_choice,
        est_ratios.iter().sum::<f64>() / n,
        sum_max / sum_choice_est,
        eval_time * 1e6,
    )
}

/// Run the full installation for one routine.
pub fn install_routine(
    timer: &dyn BlasTimer,
    routine: Routine,
    opts: &InstallOptions,
) -> InstalledRoutine {
    // 1. Gather training and evaluation corpora from disjoint stream
    //    segments (§VI-A).
    let corpus = gather(timer, routine, opts.n_train, opts.seed);
    let eval = gather_offset(
        timer,
        routine,
        opts.n_eval,
        opts.seed,
        10 * opts.n_train as u64,
    );

    // 2. Preprocess.
    let fitted = fit_pipeline(&corpus.dataset);
    let train_all = &fitted.train;

    // 3. Stratified split for RMSE reporting.
    let (tr_idx, te_idx) = stratified_split(&train_all.y, opts.test_frac, opts.seed ^ 0x5EED);
    let tr = train_all.select_rows(&tr_idx);
    let te = train_all.select_rows(&te_idx);

    let cands: Vec<usize> = candidates(timer.max_threads(), opts.nt_stride).collect();

    // 4. Tune, train, and evaluate every candidate kind.
    let mut reports = Vec::with_capacity(opts.kinds.len());
    let mut models: Vec<Model> = Vec::with_capacity(opts.kinds.len());
    for &kind in &opts.kinds {
        let tuned = GridSearch::new(kind).search(&tr.x, &tr.y);
        let pred = tuned.model.predict(&te.x);
        let test_rmse = rmse(&pred, &te.y);
        let (ideal_mean, ideal_agg, est_mean, est_agg, eval_us) =
            evaluate_model(timer, routine, &tuned.model, &fitted.config, &eval, &cands);
        reports.push(ModelReport {
            kind,
            params: tuned.params,
            test_rmse,
            normalized_rmse: 0.0, // filled below
            ideal_mean_speedup: ideal_mean,
            ideal_aggregate_speedup: ideal_agg,
            eval_time_us: eval_us,
            estimated_mean_speedup: est_mean,
            estimated_aggregate_speedup: est_agg,
        });
        models.push(tuned.model);
    }
    let worst = reports
        .iter()
        .map(|r| r.test_rmse)
        .fold(f64::MIN, f64::max)
        .max(1e-12);
    for r in reports.iter_mut() {
        r.normalized_rmse = r.test_rmse / worst;
    }

    // 5. Select by estimated mean speedup (§IV-D) and refit the winner on
    //    the full preprocessed corpus.
    let best_i = reports
        .iter()
        .enumerate()
        .max_by(|a, b| {
            a.1.estimated_mean_speedup
                .total_cmp(&b.1.estimated_mean_speedup)
        })
        .map(|(i, _)| i)
        .expect("at least one candidate kind");
    let selected = reports[best_i].kind;
    let model = selected.fit(&train_all.x, &train_all.y, &reports[best_i].params);
    drop(models);

    InstalledRoutine {
        routine,
        platform: timer.platform().to_string(),
        max_threads: timer.max_threads(),
        nt_stride: opts.nt_stride,
        pipeline: fitted.config,
        model,
        selected,
        reports,
        version: 1,
        trained_samples: train_all.len(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::features::features_for;
    use crate::gather::gather_all_candidates;
    use crate::timer::SimTimer;
    use adsala_blas3::op::{OpKind, Precision};
    use adsala_machine::MachineSpec;
    use adsala_ml::tree::gbt::GbtParams;
    use adsala_sampling::DomainSampler;

    /// What the benchmark's host install builds, on the simulator: 40 small
    /// shapes of double-precision `op`, each timed at every `nt` up to
    /// `max_threads`, through the pipeline into a gradient-boosted model.
    /// Returns the corpus too; its rows are shape-major.
    pub(crate) fn all_candidates_install(
        op: OpKind,
        max_threads: usize,
    ) -> (InstalledRoutine, Gathered) {
        let timer = SimTimer::new(MachineSpec::gadi());
        let routine = Routine::new(op, Precision::Double);
        let mut sampler = DomainSampler::with_cap(routine, max_threads, 3e5, 0xA11CA);
        let cands: Vec<usize> = (1..=max_threads).collect();
        let corpus = gather_all_candidates(&timer, &mut sampler, 40, &cands);
        let fitted = fit_pipeline(&corpus.dataset);
        let params = HyperParams::Gbt(GbtParams {
            n_rounds: 25,
            ..Default::default()
        });
        let installed = InstalledRoutine {
            routine,
            platform: "gadi".into(),
            max_threads,
            nt_stride: 1,
            model: ModelKind::Xgboost.fit(&fitted.train.x, &fitted.train.y, &params),
            pipeline: fitted.config,
            selected: ModelKind::Xgboost,
            reports: Vec::new(),
            version: 1,
            trained_samples: fitted.train.len(),
        };
        (installed, corpus)
    }

    fn quick_opts() -> InstallOptions {
        InstallOptions {
            n_train: 160,
            n_eval: 25,
            kinds: vec![
                ModelKind::LinearRegression,
                ModelKind::DecisionTree,
                ModelKind::Xgboost,
            ],
            nt_stride: 4,
            ..Default::default()
        }
    }

    #[test]
    fn install_produces_usable_model() {
        let timer = SimTimer::new(MachineSpec::gadi());
        let r = Routine::new(OpKind::Gemm, Precision::Double);
        let inst = install_routine(&timer, r, &quick_opts());
        assert_eq!(inst.reports.len(), 3);
        assert_eq!(inst.platform, "gadi");
        // Selected kind must be one of the candidates and its report exists.
        assert!(inst.reports.iter().any(|rep| rep.kind == inst.selected));
        // The model predicts a valid thread count.
        let nt = predict_best_nt(
            &inst.model,
            &inst.pipeline,
            r,
            Dims::d3(500, 500, 500),
            &inst.candidates(),
        );
        assert!((1..=96).contains(&nt));
    }

    #[test]
    fn predict_best_cost_returns_positive_seconds() {
        let timer = SimTimer::new(MachineSpec::gadi());
        let r = Routine::new(OpKind::Gemm, Precision::Double);
        let mut o = quick_opts();
        o.kinds = vec![ModelKind::LinearRegression];
        let inst = install_routine(&timer, r, &o);
        let d = Dims::d3(400, 300, 200);
        let (nt, secs) = predict_best_cost(&inst.model, &inst.pipeline, r, d, &inst.candidates());
        assert_eq!(
            nt,
            predict_best_nt(&inst.model, &inst.pipeline, r, d, &inst.candidates())
        );
        assert!(secs.is_finite() && secs > 0.0, "predicted {secs} s");
        // Sanity: a 400x300x200 dgemm on the simulated cluster is far from
        // instantaneous and far from an hour.
        assert!(secs < 3600.0);
    }

    #[test]
    fn estimated_speedup_beats_one_for_the_winner() {
        // The whole point of the method: on the simulated platform the
        // selected model must deliver estimated mean speedup > 1.
        let timer = SimTimer::new(MachineSpec::gadi());
        let r = Routine::new(OpKind::Symm, Precision::Double);
        let inst = install_routine(&timer, r, &quick_opts());
        let win = inst
            .reports
            .iter()
            .find(|rep| rep.kind == inst.selected)
            .unwrap();
        assert!(
            win.estimated_mean_speedup > 1.0,
            "estimated mean speedup {}",
            win.estimated_mean_speedup
        );
    }

    #[test]
    fn normalized_rmse_has_unit_max() {
        let timer = SimTimer::new(MachineSpec::gadi());
        let r = Routine::new(OpKind::Trmm, Precision::Single);
        let inst = install_routine(&timer, r, &quick_opts());
        let max = inst
            .reports
            .iter()
            .map(|rep| rep.normalized_rmse)
            .fold(f64::MIN, f64::max);
        assert!((max - 1.0).abs() < 1e-9);
        for rep in &inst.reports {
            assert!(rep.normalized_rmse > 0.0 && rep.normalized_rmse <= 1.0);
            assert!(rep.eval_time_us > 0.0);
        }
    }

    #[test]
    fn level2_predicted_nt_plateaus_below_core_count() {
        // The first workload class where the *trained* model must learn
        // that scaling stops before the core count: large dgemv is
        // bandwidth-bound, so predicted-best-nt has to sit clearly below
        // the 48 physical cores even as the matrix grows to the domain cap.
        let timer = SimTimer::new(MachineSpec::gadi());
        let phys = MachineSpec::gadi().physical_cores();
        let r = Routine::new(OpKind::Gemv, Precision::Double);
        let mut o = quick_opts();
        o.n_train = 300;
        let inst = install_routine(&timer, r, &o);
        for d in [
            Dims::d2(4000, 4000),
            Dims::d2(8000, 2000),
            Dims::d2(2000, 8000),
        ] {
            let nt = predict_best_nt(&inst.model, &inst.pipeline, r, d, &inst.candidates());
            assert!(
                (2..phys).contains(&nt),
                "dgemv {d}: predicted {nt} must plateau in [2, {phys})"
            );
        }
    }

    /// The sweep this crate shipped with before the row block: one
    /// allocated row and one `predict_row` per candidate.
    fn sweep_row_by_row(
        model: &Model,
        pipeline: &PipelineConfig,
        routine: Routine,
        dims: Dims,
        cands: &[usize],
    ) -> (usize, f64) {
        let mut best = (cands[0], f64::INFINITY);
        for &nt in cands {
            let row = pipeline.transform_row(&features_for(routine, dims, nt));
            let pred = model.predict_row(&row);
            if pred < best.1 {
                best = (nt, pred);
            }
        }
        (best.0, best.1.exp())
    }

    #[test]
    fn sweep_equals_the_row_by_row_sweep_bit_for_bit() {
        let timer = SimTimer::new(MachineSpec::gadi());
        // One routine per feature family: 17, 9, 11 and 9 raw columns.
        for (op, raw_width) in [
            (OpKind::Gemm, 17),
            (OpKind::Symm, 9),
            (OpKind::Gemv, 11),
            (OpKind::Symv, 9),
        ] {
            let r = Routine::new(op, Precision::Double);
            let fitted = fit_pipeline(&gather(&timer, r, 150, 0xB17).dataset);
            let pipeline = &fitted.config;
            assert_eq!(pipeline.yeo_johnson.lambdas.len(), raw_width);
            let params = HyperParams::Gbt(GbtParams {
                n_rounds: 25,
                ..Default::default()
            });
            let model = ModelKind::Xgboost.fit(&fitted.train.x, &fitted.train.y, &params);
            let width = pipeline.correlation.kept.len();
            for max_threads in [1, 2, 7, 48, 128] {
                for nt_stride in [1, 8] {
                    let cands: Vec<usize> = candidates(max_threads, nt_stride).collect();
                    for i in 0..6usize {
                        let dims = Dims::d3(9 + 331 * i, 2000 - 333 * i, 8 + 97 * i * i);
                        let rows_of = CandidateRows::new(pipeline, r, dims, cands[0]);
                        let mut row = vec![0.0; width];
                        for &nt in &cands {
                            rows_of.write(nt, &mut row);
                            let want = pipeline.transform_row(&features_for(r, dims, nt));
                            let bits =
                                |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(&row), bits(&want), "{r} {dims} nt {nt}");
                        }
                        let (nt, secs) = predict_best_cost(&model, pipeline, r, dims, &cands);
                        let (want_nt, want_secs) =
                            sweep_row_by_row(&model, pipeline, r, dims, &cands);
                        assert_eq!((nt, secs.to_bits()), (want_nt, want_secs.to_bits()));
                        // The sweep is the argmin of the point query.
                        let at = |nt| predict_secs_at(&model, pipeline, r, dims, nt);
                        assert_eq!(at(nt).to_bits(), secs.to_bits());
                        assert!(cands.iter().all(|&c| at(c) >= secs), "{r} {dims}");
                    }
                }
            }
        }
    }

    #[test]
    fn candidate_strides_always_include_max() {
        let list = |max, stride| candidates(max, stride).collect::<Vec<_>>();
        assert_eq!(list(8, 1), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(list(8, 3), vec![1, 4, 7, 8]);
        assert_eq!(list(7, 3), vec![1, 4, 7]);
        assert_eq!(list(96, 96), vec![1, 96]);
        assert_eq!(list(1, 8), vec![1]);
    }

    #[test]
    fn installed_routine_serde_roundtrip() {
        let timer = SimTimer::new(MachineSpec::gadi());
        let r = Routine::new(OpKind::Syrk, Precision::Double);
        let mut o = quick_opts();
        o.n_train = 120;
        o.kinds = vec![ModelKind::LinearRegression];
        let inst = install_routine(&timer, r, &o);
        let s = serde_json::to_string(&inst).unwrap();
        let back: InstalledRoutine = serde_json::from_str(&s).unwrap();
        assert_eq!(back.selected, inst.selected);
        assert_eq!(back.pipeline, inst.pipeline);
        let d = Dims::d2(300, 4000);
        assert_eq!(
            predict_best_nt(&back.model, &back.pipeline, r, d, &back.candidates()),
            predict_best_nt(&inst.model, &inst.pipeline, r, d, &inst.candidates()),
        );
    }
}

//! Held-out evaluation of an installed routine (paper §VI-B): fresh
//! scrambled-Halton test samples, speedup of the ML-selected thread count
//! over the max-thread baseline, *including* the model evaluation time.
//! Produces the rows of Table VII and the per-sample records behind
//! Figs 6-7.

use crate::install::InstalledRoutine;
use crate::predictor::ThreadPredictor;
use crate::timer::{time_against_max, BlasTimer};
use adsala_blas3::op::Dims;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One evaluated call.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EvalRecord {
    /// Input dimensions.
    pub dims: Dims,
    /// ML-selected thread count.
    pub nt_chosen: usize,
    /// Baseline (max-thread) seconds.
    pub t_max: f64,
    /// Seconds with the chosen thread count.
    pub t_chosen: f64,
    /// Model-evaluation seconds charged to this call.
    pub t_eval: f64,
    /// `t_max / (t_chosen + t_eval)`.
    pub speedup: f64,
}

/// Distribution statistics in the format of paper Table VII.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SpeedupStats {
    /// Mean speedup.
    pub mean: f64,
    /// Standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q75: f64,
    /// Maximum.
    pub max: f64,
}

impl SpeedupStats {
    /// Compute stats from raw speedups.
    pub fn from(mut s: Vec<f64>) -> SpeedupStats {
        assert!(!s.is_empty());
        s.sort_by(f64::total_cmp);
        let n = s.len() as f64;
        let mean = s.iter().sum::<f64>() / n;
        let var = s.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let pct = |q: f64| s[((s.len() - 1) as f64 * q).round() as usize];
        SpeedupStats {
            mean,
            std: var.sqrt(),
            min: s[0],
            q25: pct(0.25),
            median: pct(0.5),
            q75: pct(0.75),
            max: s[s.len() - 1],
        }
    }
}

/// Result of evaluating one installed routine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Evaluation {
    /// Routine name (e.g. `dgemm`).
    pub routine: String,
    /// Platform label.
    pub platform: String,
    /// Per-sample records (for the heatmap figures).
    pub records: Vec<EvalRecord>,
    /// Table VII row.
    pub stats: SpeedupStats,
    /// Mean `t_eval` seconds of the records, the predictor's table hits
    /// and sweeps together; 0 when there are none.
    pub t_eval: f64,
}

/// Evaluate an installed routine on `n` fresh test samples.
///
/// The test stream skips far past the installation stream (paper §VI-A uses
/// separate datasets sampled "within the same domain").
pub fn evaluate(
    timer: &dyn BlasTimer,
    installed: &InstalledRoutine,
    n: usize,
    seed: u64,
) -> Evaluation {
    let routine = installed.routine;
    let predictor = ThreadPredictor::new(installed.clone());
    let mut sampler = adsala_sampling::DomainSampler::new(routine, timer.max_threads(), seed);
    sampler.skip(50_000);
    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        let s = sampler.sample();
        // Time the *actual* prediction path, cache included — repeated
        // dims in real workloads benefit exactly like the paper describes.
        let t0 = Instant::now();
        let nt = predictor.predict(s.dims);
        let t_eval = t0.elapsed().as_secs_f64();
        let (t_max, t_chosen) = time_against_max(timer, routine, s.dims, nt, 7_000_000 + i as u64);
        records.push(EvalRecord {
            dims: s.dims,
            nt_chosen: nt,
            t_max,
            t_chosen,
            t_eval,
            speedup: t_max / (t_chosen + t_eval),
        });
    }
    let stats = SpeedupStats::from(records.iter().map(|r| r.speedup).collect());
    let t_eval = records.iter().map(|r| r.t_eval).sum::<f64>() / n.max(1) as f64;
    Evaluation {
        routine: routine.name(),
        platform: installed.platform.clone(),
        t_eval,
        records,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::install::{install_routine, InstallOptions};
    use crate::timer::{LoggedTimer, SimTimer};
    use adsala_blas3::op::{OpKind, Precision, Routine};
    use adsala_machine::MachineSpec;
    use adsala_ml::model::ModelKind;

    #[test]
    fn stats_from_known_values() {
        let s = SpeedupStats::from(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q25, 2.0);
        assert_eq!(s.q75, 4.0);
        assert!((s.std - (2.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn evaluation_yields_positive_speedups_on_simulator() {
        let timer = SimTimer::new(MachineSpec::gadi());
        let r = Routine::new(OpKind::Symm, Precision::Double);
        let inst = install_routine(
            &timer,
            r,
            &InstallOptions {
                n_train: 150,
                n_eval: 10,
                kinds: vec![ModelKind::Xgboost],
                nt_stride: 4,
                ..Default::default()
            },
        );
        let ev = evaluate(&timer, &inst, 30, 99);
        assert_eq!(ev.records.len(), 30);
        assert!(ev.stats.mean > 1.0, "mean speedup {}", ev.stats.mean);
        assert!(ev.stats.min > 0.0);
        // Chosen thread counts stay within range.
        for rec in &ev.records {
            assert!(rec.nt_chosen >= 1 && rec.nt_chosen <= 96);
            assert!(rec.t_eval >= 0.0);
        }
        let mean = ev.records.iter().map(|r| r.t_eval).sum::<f64>() / 30.0;
        assert!((ev.t_eval - mean).abs() <= 1e-12 * mean);
    }

    #[test]
    fn every_timed_pair_follows_a_discarded_call_on_its_dims() {
        let timer = SimTimer::new(MachineSpec::gadi());
        let r = Routine::new(OpKind::Gemm, Precision::Double);
        let opts = InstallOptions {
            n_train: 60,
            n_eval: 5,
            kinds: vec![ModelKind::LinearRegression],
            nt_stride: 8,
            ..Default::default()
        };
        let inst = install_routine(&timer, r, &opts);
        let logged = LoggedTimer::new(timer);
        let ev = evaluate(&logged, &inst, 12, 7);
        let pairs = logged.warmed_pairs();
        assert_eq!(pairs.len(), ev.records.len());
        for (rec, &(dims, nt, t_max, t_chosen)) in ev.records.iter().zip(&pairs) {
            assert_eq!((rec.dims, rec.nt_chosen), (dims, nt));
            assert_eq!((rec.t_max, rec.t_chosen), (t_max, t_chosen));
        }
    }

    #[test]
    fn speedup_accounts_for_eval_time() {
        let recs = [EvalRecord {
            dims: Dims::d3(1, 1, 1),
            nt_chosen: 1,
            t_max: 2.0,
            t_chosen: 1.0,
            t_eval: 1.0,
            speedup: 1.0,
        }];
        // By construction: 2.0 / (1.0 + 1.0) == 1.0
        assert_eq!(
            recs[0].speedup,
            recs[0].t_max / (recs[0].t_chosen + recs[0].t_eval)
        );
    }
}

//! Host-faithful installation: train the thread-count models on *this*
//! machine, composed from the public pieces of the paper's workflow.
//!
//! `adsala::install_routine` hard-wires the 500 MB sampling cap and tunes
//! the whole model portfolio; on this host one such sample can take
//! seconds. The benchmark keeps the workflow (sample the capped domain,
//! time through `RealTimer`, Table III features, the preprocessing
//! pipeline, a gradient-boosted model) and sizes it to the workload.

use adsala::features::{feature_names, features_for};
use adsala::pipeline::fit_pipeline;
use adsala::timer::{BlasTimer, RealTimer};
use adsala::InstalledRoutine;
use adsala_blas3::op::{Dims, Routine};
use adsala_ml::model::ModelKind;
use adsala_ml::Dataset;
use adsala_sampling::DomainSampler;
use std::time::Instant;

/// The installation's own sampling seed: set-up is part of the system, not
/// of the workload's inputs, so it does not follow `--seed`.
const INSTALL_SEED: u64 = 0x00AD_5A1A;

/// A timing is the minimum of this many calls after one warm-up call. The
/// minimum matters on a shared host: a two-thread call is slowed by up to
/// 20% whenever the second core is contended, and a model trained on single
/// timings chose `nt` for the large shapes differently from one set-up to
/// the next.
const REPEATS: u64 = 3;

/// Where the set-up time went, by layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct InstallTimes {
    pub draw_secs: f64,
    pub gather_secs: f64,
    pub pipeline_secs: f64,
    pub fit_secs: f64,
}

fn time_call(timer: &RealTimer, routine: Routine, dims: Dims, nt: usize) -> f64 {
    timer.time(routine, dims, nt, 0);
    (1..=REPEATS)
        .map(|rep| timer.time(routine, dims, nt, rep))
        .fold(f64::INFINITY, f64::min)
}

/// Install one routine from `shapes` sampled shapes under `cap_bytes`.
///
/// Every shape is timed at every candidate thread count (the sampler's
/// own `nt` draw is not used): with the few hundred timings a set-up may
/// take here, a model shown each shape once cannot tell the factor-of-two
/// effect of `nt` from the orders of magnitude between shapes, and its
/// choice at the large shapes changed from one set-up to the next.
pub fn host_install(
    timer: &RealTimer,
    routine: Routine,
    shapes: usize,
    cap_bytes: f64,
    times: &mut InstallTimes,
) -> InstalledRoutine {
    let t0 = Instant::now();
    let max_nt = timer.max_threads();
    let drawn = DomainSampler::with_cap(routine, max_nt, cap_bytes, INSTALL_SEED).take(shapes);
    let t1 = Instant::now();
    let mut x = Vec::with_capacity(shapes * max_nt);
    let mut y = Vec::with_capacity(shapes * max_nt);
    for s in &drawn {
        for nt in 1..=max_nt {
            let secs = time_call(timer, routine, s.dims, nt);
            x.push(features_for(routine, s.dims, nt));
            y.push(secs.max(1e-12).ln());
        }
    }
    let names = feature_names(routine.op)
        .into_iter()
        .map(String::from)
        .collect();
    let t2 = Instant::now();
    let fitted = fit_pipeline(&Dataset::new(x, y, names));
    let t3 = Instant::now();
    let kind = ModelKind::Xgboost;
    let model = kind.fit(&fitted.train.x, &fitted.train.y, &kind.default_params());
    let t4 = Instant::now();
    times.draw_secs += (t1 - t0).as_secs_f64();
    times.gather_secs += (t2 - t1).as_secs_f64();
    times.pipeline_secs += (t3 - t2).as_secs_f64();
    times.fit_secs += (t4 - t3).as_secs_f64();
    InstalledRoutine {
        routine,
        platform: timer.platform().to_string(),
        max_threads: timer.max_threads(),
        nt_stride: 1,
        pipeline: fitted.config,
        model,
        selected: kind,
        reports: Vec::new(),
        version: 1,
        trained_samples: fitted.train.len(),
    }
}

//! Installation-time data gathering (paper §IV-B and Fig. 1a).
//!
//! Draws `(dims, nt)` points from the scrambled-Halton domain sampler,
//! times each call through the black-box [`BlasTimer`], and materialises a
//! training [`Dataset`] with Table III features. The regression label is
//! `ln(seconds)`: runtimes span six orders of magnitude across the domain,
//! and the log-label keeps small calls from being ignored by the squared
//! loss (the prediction argmin is invariant under the monotone transform).

use crate::features::{feature_names, features_for};
use crate::timer::BlasTimer;
use adsala_blas3::op::Routine;
use adsala_ml::Dataset;
use adsala_sampling::{DomainSampler, Sample};

/// A gathered timing corpus for one routine.
#[derive(Debug, Clone)]
pub struct Gathered {
    /// The routine this data describes.
    pub routine: Routine,
    /// Raw `(dims, nt)` draws, parallel to the dataset rows.
    pub samples: Vec<Sample>,
    /// Measured seconds, parallel to the dataset rows.
    pub seconds: Vec<f64>,
    /// Feature matrix + `ln(seconds)` labels.
    pub dataset: Dataset,
}

/// Gather `n` timed samples for `routine`.
///
/// `seed` controls the scrambled-Halton stream; passing a different seed
/// (or using [`gather_offset`]) yields the disjoint test corpus of §VI-A.
pub fn gather(timer: &dyn BlasTimer, routine: Routine, n: usize, seed: u64) -> Gathered {
    gather_offset(timer, routine, n, seed, 0)
}

/// Gather `n` samples after skipping `skip` points of the same stream —
/// the paper's test sets continue the training stream so that train and
/// test jointly keep low discrepancy.
pub fn gather_offset(
    timer: &dyn BlasTimer,
    routine: Routine,
    n: usize,
    seed: u64,
    skip: u64,
) -> Gathered {
    let mut sampler = DomainSampler::new(routine, timer.max_threads(), seed);
    sampler.skip(skip);
    timed(timer, routine, sampler.take(n))
}

/// Time every sample (repetition index = row index) and build the dataset.
fn timed(timer: &dyn BlasTimer, routine: Routine, samples: Vec<Sample>) -> Gathered {
    let n = samples.len();
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    let mut seconds = Vec::with_capacity(n);
    for (i, s) in samples.iter().enumerate() {
        let secs = timer.time(routine, s.dims, s.nt, i as u64);
        x.push(features_for(routine, s.dims, s.nt));
        y.push(secs.max(1e-12).ln());
        seconds.push(secs);
    }
    let names = feature_names(routine.op)
        .into_iter()
        .map(String::from)
        .collect();
    Gathered {
        routine,
        samples,
        seconds,
        dataset: Dataset::new(x, y, names),
    }
}

/// Draw `shapes` shapes from `sampler` and time each at every thread count
/// in `cands` (the sampler's own `nt` draw is unused) — the all-candidates
/// corpus a host with few candidates can afford, and the only kind
/// [`fit_pipeline`](crate::pipeline::fit_pipeline) derives a serial
/// threshold from. Rows are shape-major, in `cands` order.
pub fn gather_all_candidates(
    timer: &dyn BlasTimer,
    sampler: &mut DomainSampler,
    shapes: usize,
    cands: &[usize],
) -> Gathered {
    let samples = sampler
        .take(shapes)
        .iter()
        .flat_map(|s| cands.iter().map(|&nt| Sample { dims: s.dims, nt }))
        .collect();
    timed(timer, sampler.routine(), samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timer::SimTimer;
    use adsala_blas3::op::{OpKind, Precision};
    use adsala_machine::MachineSpec;

    fn dgemm() -> Routine {
        Routine::new(OpKind::Gemm, Precision::Double)
    }

    #[test]
    fn gathers_requested_count_with_consistent_shapes() {
        let t = SimTimer::new(MachineSpec::gadi());
        let g = gather(&t, dgemm(), 50, 1);
        assert_eq!(g.dataset.len(), 50);
        assert_eq!(g.samples.len(), 50);
        assert_eq!(g.seconds.len(), 50);
        assert_eq!(g.dataset.n_features(), 17);
        assert!(g.seconds.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn labels_are_log_seconds() {
        let t = SimTimer::new(MachineSpec::gadi());
        let g = gather(&t, dgemm(), 20, 2);
        for (label, secs) in g.dataset.y.iter().zip(&g.seconds) {
            assert!((label - secs.ln()).abs() < 1e-9);
        }
    }

    #[test]
    fn offset_stream_continues_rather_than_repeats() {
        // The skipped stream must differ from the unskipped prefix (same
        // low-discrepancy sequence, later segment). Individual (dims, nt)
        // tuples may still collide after grid rounding, so compare the
        // sequences, not membership.
        let t = SimTimer::new(MachineSpec::gadi());
        let train = gather(&t, dgemm(), 10, 3);
        let test = gather_offset(&t, dgemm(), 10, 3, 1000);
        assert_ne!(train.samples, test.samples);
        // Same seed and offset reproduce exactly.
        let test2 = gather_offset(&t, dgemm(), 10, 3, 1000);
        assert_eq!(test.samples, test2.samples);
        assert_eq!(test.seconds, test2.seconds);
    }

    #[test]
    fn gathers_level2_corpora_with_intensity_features() {
        // The Level 2 families flow through the same sampler/timer/feature
        // path as Level 3, landing in datasets with the explicit
        // arithmetic-intensity columns.
        let t = SimTimer::new(MachineSpec::gadi());
        let gemv = gather(&t, Routine::new(OpKind::Gemv, Precision::Double), 40, 5);
        assert_eq!(gemv.dataset.len(), 40);
        assert_eq!(gemv.dataset.n_features(), 11);
        assert!(gemv.dataset.feature_names.iter().any(|n| n == "ai"));
        assert!(gemv.seconds.iter().all(|&s| s > 0.0 && s.is_finite()));

        let symv = gather(&t, Routine::new(OpKind::Symv, Precision::Single), 40, 6);
        assert_eq!(symv.dataset.n_features(), 9);
        assert!(symv.samples.iter().all(|s| s.dims.0[1] == 1));
    }

    #[test]
    fn runtimes_span_orders_of_magnitude() {
        // The paper's domains include tiny and huge calls; the log label
        // exists precisely because of this spread. The deterministic stream
        // in vendor/rand needs ~400 draws before the sampled shapes cover
        // both extremes of the dgemm domain (200 draws top out near 62x).
        let t = SimTimer::new(MachineSpec::setonix());
        let g = gather(&t, dgemm(), 400, 4);
        let min = g.seconds.iter().cloned().fold(f64::MAX, f64::min);
        let max = g.seconds.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max / min > 100.0, "spread only {}", max / min);
    }
}

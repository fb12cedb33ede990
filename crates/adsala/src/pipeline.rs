//! The ADSALA preprocessing pipeline (paper §II-C, §IV-C), combining the
//! `adsala-ml` preprocessing blocks in the paper's order:
//!
//! 1. **Yeo-Johnson** power transform per feature (MLE lambda);
//! 2. **standardisation** to zero mean / unit variance;
//! 3. **LOF outlier removal** on the transformed training rows;
//! 4. **correlation pruning** at the 80 % threshold.
//!
//! The fitted [`PipelineConfig`] is exactly the "Config File (For data
//! preprocessing)" of Fig. 1a: it is persisted at installation time and
//! replayed on every runtime feature vector.
//!
//! # The serial threshold
//!
//! [`fit_pipeline`] is the one function that sees the raw corpus on every
//! install path, so it is also where the paper's `t_eval` term is dealt
//! with for the calls whose answer the corpus already holds. When the
//! corpus timed shapes at `nt = 1` *and* at more threads (an all-candidates
//! corpus; [`crate::gather::gather`] draws one `nt` per shape and never
//! does), the shapes are ranked by the `footprint` column and
//! [`PipelineConfig::serial_footprint`] is the footprint of the last one
//! before the first shape that some `nt > 1` ran faster. At or under it a
//! prediction is `1` from one comparison on the raw word count, before any
//! feature is computed (see `impl CostModel for InstalledRoutine`); above
//! it the sweep decides as before. It is a statement about measured labels,
//! not a second model: a label flipped by host noise only lowers it. There
//! is no upper bound ("every larger call runs at `max`"): on the paper's
//! hosts the best `nt` of a large call is not `max`, and where such a bound
//! could fire `t_eval` is ~1 % of the call — nothing to win back.
//!
//! A shape that took longer than [`SERIAL_VOTE_MAX_SECS`] on one thread
//! ends the prefix whatever its labels say. Under that time one thread wins
//! because waking a team costs more than the work, which is the same at
//! every install; above it the two labels differ by what the second core
//! was worth while the installer ran, and on a shared host that is a few
//! percent either way from one set-up to the next. Without the limit the
//! threshold of one routine on one host went from `None` to 1.3M words
//! between set-ups and took every call of the workload with it, to save a
//! sweep that is 1 % of such a call.

use adsala_ml::preprocess::yeo_johnson::transform_value;
use adsala_ml::preprocess::{CorrelationFilter, LocalOutlierFactor, Standardizer, YeoJohnson};
use adsala_ml::Dataset;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Fitted preprocessing parameters, applied identically at runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Per-feature Yeo-Johnson lambdas (all raw features).
    pub yeo_johnson: YeoJohnson,
    /// Per-feature standardisation (all raw features, post-YJ).
    pub standardizer: Standardizer,
    /// Correlation-pruning projection (indices into the raw feature list).
    pub correlation: CorrelationFilter,
    /// Names of the surviving features.
    pub kept_features: Vec<String>,
    /// Footprint in words at or under which every training shape timed at
    /// `nt = 1` and at more threads ran fastest at `nt = 1`; `None` when the
    /// corpus held no such shape or the smallest one was not serial-best
    /// (see the module docs).
    pub serial_footprint: Option<f64>,
}

impl PipelineConfig {
    /// Transform one raw feature row into model space.
    pub fn transform_row(&self, raw: &[f64]) -> Vec<f64> {
        let mut row = vec![0.0; self.correlation.kept.len()];
        self.transform_into(raw, &mut row);
        row
    }

    /// [`transform_row`](Self::transform_row) into a caller's buffer, one
    /// slot per kept feature.
    pub(crate) fn transform_into(&self, raw: &[f64], row: &mut [f64]) {
        assert_eq!(raw.len(), self.yeo_johnson.lambdas.len());
        assert_eq!(raw.len(), self.standardizer.means.len());
        for (out, &j) in row.iter_mut().zip(&self.correlation.kept) {
            *out = self.transform_column(j, raw[j]);
        }
    }

    /// Model-space value of raw feature `j`. Columns do not mix, so only
    /// the kept ones are ever transformed; per column this is the power
    /// transform, subtraction and division the fitted blocks apply to a
    /// whole row, in their order.
    pub(crate) fn transform_column(&self, j: usize, x: f64) -> f64 {
        let power = transform_value(x, self.yeo_johnson.lambdas[j]);
        (power - self.standardizer.means[j]) / self.standardizer.stds[j]
    }
}

/// Outcome of fitting the pipeline on a training corpus.
#[derive(Debug, Clone)]
pub struct FittedPipeline {
    /// The replayable config.
    pub config: PipelineConfig,
    /// The preprocessed training dataset (outliers removed, features
    /// transformed and pruned).
    pub train: Dataset,
    /// Indices of the surviving (inlier) rows in the input dataset.
    pub inlier_rows: Vec<usize>,
}

/// Longest `nt = 1` timing, in seconds, of a shape that may extend the
/// serial threshold (labels are log-seconds, as every corpus builder of this
/// crate writes them). The shortcut saves one sweep, ~5 us for two
/// candidates on the host of record: past 200 us that is under 3 % of the
/// call, a wrong `1` costs the call its whole parallel speed-up, and which
/// label is the smaller depends on the load of the host during the install
/// (see the module docs).
pub const SERIAL_VOTE_MAX_SECS: f64 = 2e-4;

/// The serial threshold of a raw corpus (see the module docs). Rows are
/// grouped into shapes by the columns left of `nt`; a shape votes when it
/// has a label at `nt = 1` and one at `nt > 1`, and is serial-best when the
/// former is no greater than the latter (a tie goes to the smaller `nt`).
/// A voter slower than [`SERIAL_VOTE_MAX_SECS`] on one thread counts as not
/// serial-best. The unbroken serial-best prefix in footprint order is every
/// serial-best voter strictly under the smallest voter that is not.
fn serial_footprint(data: &Dataset) -> Option<f64> {
    let column = |name: &str| data.feature_names.iter().position(|n| n == name);
    let (nt, footprint) = (column("nt")?, column("footprint")?);
    let shape = |i: usize| &data.x[i][..nt];
    let mut rows: Vec<usize> = (0..data.len()).collect();
    rows.sort_unstable_by(|&a, &b| {
        let differing = shape(a).iter().zip(shape(b)).find(|(x, y)| x != y);
        differing.map_or(Ordering::Equal, |(x, y)| x.total_cmp(y))
    });
    // (footprint, serial-best) of every voting shape.
    let mut voters = Vec::new();
    for group in rows.chunk_by(|&a, &b| shape(a) == shape(b)) {
        let best = |serial: bool| {
            let labels = group.iter().filter(|&&i| (data.x[i][nt] == 1.0) == serial);
            labels.map(|&i| data.y[i]).min_by(f64::total_cmp)
        };
        if let (Some(serial), Some(parallel)) = (best(true), best(false)) {
            let obvious = serial <= parallel && serial <= SERIAL_VOTE_MAX_SECS.ln();
            voters.push((data.x[group[0]][footprint], obvious));
        }
    }
    let first_parallel = voters
        .iter()
        .filter(|v| !v.1)
        .fold(f64::INFINITY, |least, v| least.min(v.0));
    voters
        .iter()
        .filter(|v| v.1 && v.0 < first_parallel)
        .map(|v| v.0)
        .max_by(f64::total_cmp)
}

/// Fit the full pipeline on a gathered training dataset.
pub fn fit_pipeline(data: &Dataset) -> FittedPipeline {
    assert!(
        !data.is_empty(),
        "cannot fit a pipeline on an empty dataset"
    );
    // 1-2. Yeo-Johnson + standardisation fitted on all rows.
    let yj = YeoJohnson::fit(&data.x);
    let mut transformed = data.x.clone();
    yj.transform(&mut transformed);
    let std = Standardizer::fit(&transformed);
    std.transform(&mut transformed);

    // 3. LOF on the transformed rows (density is meaningless on raw scales
    //    spanning six orders of magnitude).
    let lof = LocalOutlierFactor::default();
    let inliers = lof.inlier_indices(&transformed);

    // 4. Correlation pruning fitted on the surviving rows.
    let surviving: Vec<Vec<f64>> = inliers.iter().map(|&i| transformed[i].clone()).collect();
    let corr = CorrelationFilter::fit(&surviving);

    let kept_features: Vec<String> = corr
        .kept
        .iter()
        .map(|&j| data.feature_names[j].clone())
        .collect();
    let x: Vec<Vec<f64>> = surviving.iter().map(|r| corr.transform_row(r)).collect();
    let y: Vec<f64> = inliers.iter().map(|&i| data.y[i]).collect();
    let train = Dataset::new(x, y, kept_features.clone());

    FittedPipeline {
        config: PipelineConfig {
            yeo_johnson: yj,
            standardizer: std,
            correlation: corr,
            kept_features,
            serial_footprint: serial_footprint(data),
        },
        train,
        inlier_rows: inliers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{feature_names, features_for};
    use crate::gather::{gather, gather_all_candidates, Gathered};
    use crate::timer::SimTimer;
    use adsala_blas3::op::{Dims, OpKind, Precision, Routine};
    use adsala_machine::MachineSpec;
    use adsala_sampling::DomainSampler;

    fn gemm_corpus(n: usize) -> Dataset {
        let r = Routine::new(OpKind::Gemm, Precision::Double);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let m = 16 + (i * 37) % 2000;
            let k = 16 + (i * 91) % 1500;
            let nn = 16 + (i * 53) % 2500;
            let nt = 1 + (i * 7) % 96;
            let f = features_for(r, Dims::d3(m, k, nn), nt);
            // Synthetic label correlated with the flop feature.
            y.push((f[7] / nt as f64 + 1e3).ln());
            x.push(f);
        }
        Dataset::new(
            x,
            y,
            feature_names(OpKind::Gemm)
                .into_iter()
                .map(String::from)
                .collect(),
        )
    }

    #[test]
    fn pipeline_prunes_correlated_features() {
        let d = gemm_corpus(300);
        let fp = fit_pipeline(&d);
        // The 17 raw GEMM features are heavily redundant: pruning must bite,
        // landing in the paper's 4-15 dimension band.
        let kept = fp.config.correlation.kept.len();
        assert!(kept < 17, "nothing pruned");
        assert!((4..=15).contains(&kept), "kept {kept} features");
        assert_eq!(fp.train.n_features(), kept);
        assert_eq!(fp.config.kept_features.len(), kept);
    }

    #[test]
    fn transform_row_matches_training_transformation() {
        let d = gemm_corpus(150);
        let fp = fit_pipeline(&d);
        // Row 0 (if inlier) must map to the same vector the training set holds.
        if let Some(pos) = fp.inlier_rows.iter().position(|&i| i == 0) {
            let rt = fp.config.transform_row(&d.x[0]);
            assert_eq!(rt, fp.train.x[pos]);
        }
    }

    #[test]
    fn outliers_reduce_training_rows_but_not_below_90pct() {
        let d = gemm_corpus(250);
        let fp = fit_pipeline(&d);
        assert!(fp.train.len() <= 250);
        assert!(
            fp.train.len() >= 225,
            "LOF removed too much: {} rows left",
            fp.train.len()
        );
    }

    #[test]
    fn config_serde_roundtrip() {
        let d = gemm_corpus(120);
        let fp = fit_pipeline(&d);
        let s = serde_json::to_string(&fp.config).unwrap();
        let back: PipelineConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(back, fp.config);
        let row = fp.config.transform_row(&d.x[3]);
        assert_eq!(back.transform_row(&d.x[3]), row);
    }

    #[test]
    fn transformed_features_are_standardised() {
        let d = gemm_corpus(200);
        let fp = fit_pipeline(&d);
        for j in 0..fp.train.n_features() {
            let col = fp.train.column(j);
            let m = col.iter().sum::<f64>() / col.len() as f64;
            // Mean near 0 (outlier removal shifts it slightly).
            assert!(m.abs() < 0.3, "feature {j} mean {m}");
        }
    }

    const CANDS: [usize; 3] = [1, 2, 8];

    /// 24 small shapes of `op`, each at every count in [`CANDS`], relabelled
    /// so that exactly the shapes with `serial(footprint)` ran fastest on
    /// one thread. Returns the corpus and its footprints in rising order.
    fn relabelled(op: OpKind, serial: impl Fn(f64) -> bool) -> (Gathered, Vec<f64>) {
        let timer = SimTimer::new(MachineSpec::gadi());
        let r = Routine::new(op, Precision::Double);
        let mut sampler = DomainSampler::with_cap(r, 96, 3e5, 0x5E21A1);
        let mut g = gather_all_candidates(&timer, &mut sampler, 24, &CANDS);
        let mut footprints = Vec::new();
        for (i, s) in g.samples.iter().enumerate() {
            let words = op.footprint_words(s.dims);
            g.dataset.y[i] = if serial(words) == (s.nt == 1) {
                -9.0
            } else {
                -8.0
            };
            footprints.push(words);
        }
        footprints.sort_by(f64::total_cmp);
        footprints.dedup();
        assert!(footprints.len() >= 12, "{op:?}: shapes collide");
        (g, footprints)
    }

    #[test]
    fn a_corpus_with_one_nt_per_shape_derives_no_threshold() {
        let timer = SimTimer::new(MachineSpec::gadi());
        let r = Routine::new(OpKind::Symm, Precision::Double);
        let d = gather(&timer, r, 200, 0xB17).dataset;
        assert_eq!(serial_footprint(&d), None);
        assert_eq!(fit_pipeline(&d).config.serial_footprint, None);
        // Nor does a dataset that is not a Table III corpus at all.
        let bare = Dataset::new(vec![vec![1.0], vec![2.0]], vec![0.0, 1.0], vec!["a".into()]);
        assert_eq!(serial_footprint(&bare), None);
    }

    #[test]
    fn a_monotone_corpus_derives_its_last_serial_footprint_in_every_family() {
        // Three dimensions, two, Level-2 two and Level-2 one: the `nt` and
        // `footprint` columns sit somewhere else in each.
        for op in [OpKind::Gemm, OpKind::Trsm, OpKind::Gemv, OpKind::Symv] {
            let (all, fps) = relabelled(op, |_| true);
            let cut = fps[7];
            let (g, _) = relabelled(op, |words| words <= cut);
            assert_eq!(serial_footprint(&g.dataset), Some(cut), "{op:?}");
            assert_eq!(fit_pipeline(&g.dataset).config.serial_footprint, Some(cut));
            // Every shape serial-best: the largest one; none: nothing.
            assert_eq!(serial_footprint(&all.dataset), fps.last().copied());
            let (none, _) = relabelled(op, |_| false);
            assert_eq!(serial_footprint(&none.dataset), None);
        }
    }

    #[test]
    fn one_flipped_label_cuts_the_prefix_there() {
        let (_, fps) = relabelled(OpKind::Symm, |_| true);
        let (cut, flipped) = (fps[9], fps[4]);
        let (g, _) = relabelled(OpKind::Symm, |w| w <= cut && w != flipped);
        assert_eq!(serial_footprint(&g.dataset), Some(fps[3]));
        // Flipping the smallest shape leaves no prefix at all.
        let (g, _) = relabelled(OpKind::Symm, |w| w <= cut && w != fps[0]);
        assert_eq!(serial_footprint(&g.dataset), None);
    }

    #[test]
    fn an_exact_tie_goes_to_one_thread() {
        let (_, fps) = relabelled(OpKind::Syrk, |_| true);
        let cut = fps[5];
        let (mut g, _) = relabelled(OpKind::Syrk, |w| w <= cut);
        // The shape right above the cut: every label equal.
        for (i, s) in g.samples.iter().enumerate() {
            if OpKind::Syrk.footprint_words(s.dims) == fps[6] {
                g.dataset.y[i] = -9.0;
            }
        }
        assert_eq!(serial_footprint(&g.dataset), Some(fps[6]));
    }

    #[test]
    fn a_shape_slower_than_the_limit_on_one_thread_ends_the_prefix() {
        let (mut all, fps) = relabelled(OpKind::Trmm, |_| true);
        assert_eq!(serial_footprint(&all.dataset), fps.last().copied());
        // Serial-best still, by the same margin, but a millisecond each way:
        // what the labels say there is the host's load, not the routine.
        let slow = fps[10];
        for (i, s) in all.samples.iter().enumerate() {
            if OpKind::Trmm.footprint_words(s.dims) == slow {
                all.dataset.y[i] += 2.5;
            }
        }
        assert_eq!(serial_footprint(&all.dataset), Some(fps[9]));
        // The limit itself still votes.
        for (i, s) in all.samples.iter().enumerate() {
            if OpKind::Trmm.footprint_words(s.dims) == slow {
                let at = SERIAL_VOTE_MAX_SECS.ln();
                all.dataset.y[i] = if s.nt == 1 { at } else { at + 1.0 };
            }
        }
        assert_eq!(serial_footprint(&all.dataset), fps.last().copied());
    }

    #[test]
    fn a_shape_never_timed_on_one_thread_neither_votes_nor_blocks() {
        let (_, fps) = relabelled(OpKind::Gemm, |_| true);
        let (cut, odd) = (fps[8], fps[2]);
        let (g, _) = relabelled(OpKind::Gemm, |w| w <= cut && w != odd);
        assert_eq!(serial_footprint(&g.dataset), Some(fps[1]), "it blocks");
        // Without its `nt = 1` row the shape has nothing to compare.
        let keep: Vec<usize> = (0..g.dataset.len())
            .filter(|&i| {
                let s = g.samples[i];
                s.nt != 1 || OpKind::Gemm.footprint_words(s.dims) != odd
            })
            .collect();
        assert_eq!(keep.len(), g.dataset.len() - 1);
        let d = g.dataset.select_rows(&keep);
        assert_eq!(serial_footprint(&d), Some(cut));
        // Nor does it vote: alone above the cut and all-serial, it adds
        // nothing (drop the `nt > 1` rows of the largest shape instead).
        let (all, _) = relabelled(OpKind::Gemm, |_| true);
        let top = *fps.last().unwrap();
        let keep: Vec<usize> = (0..all.dataset.len())
            .filter(|&i| {
                let s = all.samples[i];
                s.nt == 1 || OpKind::Gemm.footprint_words(s.dims) != top
            })
            .collect();
        let d = all.dataset.select_rows(&keep);
        assert_eq!(serial_footprint(&d), Some(fps[fps.len() - 2]));
    }
}

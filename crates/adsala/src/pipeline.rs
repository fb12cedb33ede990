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

use adsala_ml::preprocess::yeo_johnson::transform_value;
use adsala_ml::preprocess::{CorrelationFilter, LocalOutlierFactor, Standardizer, YeoJohnson};
use adsala_ml::Dataset;
use serde::{Deserialize, Serialize};

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
        },
        train,
        inlier_rows: inliers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{feature_names, features_for};
    use adsala_blas3::op::{Dims, OpKind, Precision, Routine};

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
}

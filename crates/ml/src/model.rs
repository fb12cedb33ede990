//! The model portfolio: a unified enum over all eight candidate regressors
//! (paper Table II), their hyper-parameter spaces, and their qualitative
//! characteristics.

use crate::linear::{BayesianRidge, ElasticNet, LinearRegression};
use crate::neighbors::knn::{KnnRegressor, KnnWeights};
use crate::tree::adaboost::{AdaBoostParams, AdaBoostR2};
use crate::tree::decision_tree::{DecisionTree, TreeParams};
use crate::tree::gbt::{GbtParams, GradientBoosting};
use crate::tree::random_forest::{ForestParams, RandomForest};
use serde::{Deserialize, Serialize};

/// Anything that predicts a scalar from a feature row.
pub trait Regressor {
    /// Predict a single row.
    fn predict_row(&self, x: &[f64]) -> f64;

    /// Predict many rows.
    fn predict(&self, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Predict `out.len()` equally wide rows stored back to back in `rows`,
    /// without allocating: the thread-count sweep's view of a model, one
    /// row per candidate. Row by row unless the model has a batched walk.
    fn predict_rows(&self, rows: &[f64], out: &mut [f64]) {
        predict_row_by_row(self, rows, out);
    }
}

fn predict_row_by_row<R: Regressor + ?Sized>(model: &R, rows: &[f64], out: &mut [f64]) {
    if out.is_empty() {
        return;
    }
    let width = rows.len() / out.len();
    assert_eq!(rows.len(), width * out.len(), "rows must share one width");
    for (i, o) in out.iter_mut().enumerate() {
        *o = model.predict_row(&rows[i * width..(i + 1) * width]);
    }
}

/// The eight candidate model families of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ModelKind {
    /// Ordinary least squares.
    LinearRegression,
    /// L1+L2 penalised linear model.
    ElasticNet,
    /// Evidence-maximised ridge ("Bayes Regression").
    BayesianRidge,
    /// Single CART tree.
    DecisionTree,
    /// Bagged trees.
    RandomForest,
    /// AdaBoost.R2.
    AdaBoost,
    /// k-nearest neighbours.
    Knn,
    /// Gradient-boosted trees (the XGBoost stand-in).
    Xgboost,
}

/// Qualitative model characteristics — one row of paper Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Characteristics {
    /// Table II "Model Categories".
    pub category: &'static str,
    /// Whether the model is parametric.
    pub parametric: bool,
    /// Table II "Good with Data Imbalance".
    pub good_with_imbalance: bool,
    /// Table II "Data Size Requirement".
    pub data_size_requirement: &'static str,
}

/// Hyper-parameter settings for one model kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HyperParams {
    /// OLS has no hyper-parameters.
    Linear,
    /// ElasticNet regularisation.
    ElasticNetParams {
        /// Overall strength.
        alpha: f64,
        /// L1 share.
        l1_ratio: f64,
    },
    /// Bayesian ridge has no tuned hyper-parameters (priors are broad).
    Bayesian,
    /// Decision-tree growth controls.
    Tree(TreeParams),
    /// Random-forest controls.
    Forest(ForestParams),
    /// AdaBoost.R2 controls.
    Ada(AdaBoostParams),
    /// Gradient-boosting controls.
    Gbt(GbtParams),
    /// kNN controls.
    KnnParams {
        /// Neighbourhood size.
        k: usize,
        /// Weighting scheme.
        weights: KnnWeights,
    },
}

/// A fitted model of any kind, serialisable for the runtime library.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Model {
    /// Fitted OLS.
    Linear(LinearRegression),
    /// Fitted ElasticNet.
    ElasticNet(ElasticNet),
    /// Fitted Bayesian ridge.
    Bayesian(BayesianRidge),
    /// Fitted CART tree.
    Tree(DecisionTree),
    /// Fitted random forest.
    Forest(RandomForest),
    /// Fitted AdaBoost.R2 ensemble.
    Ada(AdaBoostR2),
    /// Fitted gradient-boosted ensemble.
    Gbt(GradientBoosting),
    /// Fitted (memorised) kNN.
    Knn(KnnRegressor),
}

impl Regressor for Model {
    fn predict_row(&self, x: &[f64]) -> f64 {
        match self {
            Model::Linear(m) => m.predict_row(x),
            Model::ElasticNet(m) => m.predict_row(x),
            Model::Bayesian(m) => m.predict_row(x),
            Model::Tree(m) => m.predict_row(x),
            Model::Forest(m) => m.predict_row(x),
            Model::Ada(m) => m.predict_row(x),
            Model::Gbt(m) => m.predict_row(x),
            Model::Knn(m) => m.predict_row(x),
        }
    }

    fn predict_rows(&self, rows: &[f64], out: &mut [f64]) {
        match self {
            Model::Gbt(m) => m.predict_rows(rows, out),
            _ => predict_row_by_row(self, rows, out),
        }
    }
}

impl Model {
    /// Which family this model belongs to.
    pub fn kind(&self) -> ModelKind {
        match self {
            Model::Linear(_) => ModelKind::LinearRegression,
            Model::ElasticNet(_) => ModelKind::ElasticNet,
            Model::Bayesian(_) => ModelKind::BayesianRidge,
            Model::Tree(_) => ModelKind::DecisionTree,
            Model::Forest(_) => ModelKind::RandomForest,
            Model::Ada(_) => ModelKind::AdaBoost,
            Model::Gbt(_) => ModelKind::Xgboost,
            Model::Knn(_) => ModelKind::Knn,
        }
    }
}

impl ModelKind {
    /// All kinds, in Table II order.
    pub const ALL: [ModelKind; 8] = [
        ModelKind::LinearRegression,
        ModelKind::ElasticNet,
        ModelKind::BayesianRidge,
        ModelKind::DecisionTree,
        ModelKind::RandomForest,
        ModelKind::AdaBoost,
        ModelKind::Knn,
        ModelKind::Xgboost,
    ];

    /// Human-readable name as used in the paper's Table VI rows.
    pub fn display_name(self) -> &'static str {
        match self {
            ModelKind::LinearRegression => "Linear Regression",
            ModelKind::ElasticNet => "ElasticNet",
            ModelKind::BayesianRidge => "Bayes Regression",
            ModelKind::DecisionTree => "Decision Tree",
            ModelKind::RandomForest => "Random Forest",
            ModelKind::AdaBoost => "AdaBoost",
            ModelKind::Knn => "KNN",
            ModelKind::Xgboost => "XGBoost",
        }
    }

    /// The scikit-learn/XGBoost class name used in the paper's Tables IV-V.
    pub fn sklearn_name(self) -> &'static str {
        match self {
            ModelKind::LinearRegression => "LinearRegression",
            ModelKind::ElasticNet => "ElasticNet",
            ModelKind::BayesianRidge => "BayesianRidge",
            ModelKind::DecisionTree => "DecisionTreeRegressor",
            ModelKind::RandomForest => "RandomForestRegressor",
            ModelKind::AdaBoost => "AdaBoostRegressor",
            ModelKind::Knn => "KNeighborsRegressor",
            ModelKind::Xgboost => "XGBRegressor",
        }
    }

    /// Table II row for this kind.
    pub fn characteristics(self) -> Characteristics {
        match self {
            ModelKind::LinearRegression => Characteristics {
                category: "Linear Models",
                parametric: true,
                good_with_imbalance: false,
                data_size_requirement: "Medium",
            },
            ModelKind::ElasticNet => Characteristics {
                category: "Linear Models",
                parametric: true,
                good_with_imbalance: false,
                data_size_requirement: "Medium",
            },
            ModelKind::BayesianRidge => Characteristics {
                category: "Linear Models",
                parametric: true,
                good_with_imbalance: false,
                data_size_requirement: "Small",
            },
            ModelKind::DecisionTree => Characteristics {
                category: "Tree Based Models",
                parametric: false,
                good_with_imbalance: true,
                data_size_requirement: "Medium",
            },
            ModelKind::RandomForest | ModelKind::AdaBoost | ModelKind::Xgboost => Characteristics {
                category: "Tree Based Models",
                parametric: false,
                good_with_imbalance: true,
                data_size_requirement: "Medium",
            },
            ModelKind::Knn => Characteristics {
                category: "Other Models",
                parametric: false,
                good_with_imbalance: false,
                data_size_requirement: "Medium",
            },
        }
    }

    /// Default hyper-parameters.
    pub fn default_params(self) -> HyperParams {
        match self {
            ModelKind::LinearRegression => HyperParams::Linear,
            ModelKind::ElasticNet => HyperParams::ElasticNetParams {
                alpha: 0.1,
                l1_ratio: 0.5,
            },
            ModelKind::BayesianRidge => HyperParams::Bayesian,
            ModelKind::DecisionTree => HyperParams::Tree(TreeParams::default()),
            ModelKind::RandomForest => HyperParams::Forest(ForestParams::default()),
            ModelKind::AdaBoost => HyperParams::Ada(AdaBoostParams::default()),
            ModelKind::Knn => HyperParams::KnnParams {
                k: 5,
                weights: KnnWeights::Distance,
            },
            ModelKind::Xgboost => HyperParams::Gbt(GbtParams::default()),
        }
    }

    /// Hyper-parameter grid searched at installation time (paper §IV-C:
    /// "the hyper-parameter tuning is performed for all models"). Kept
    /// deliberately compact — the full pipeline trains every kind for every
    /// subroutine on every platform.
    pub fn param_grid(self) -> Vec<HyperParams> {
        match self {
            ModelKind::LinearRegression => vec![HyperParams::Linear],
            ModelKind::BayesianRidge => vec![HyperParams::Bayesian],
            ModelKind::ElasticNet => vec![
                HyperParams::ElasticNetParams {
                    alpha: 0.01,
                    l1_ratio: 0.5,
                },
                HyperParams::ElasticNetParams {
                    alpha: 0.1,
                    l1_ratio: 0.5,
                },
                HyperParams::ElasticNetParams {
                    alpha: 0.1,
                    l1_ratio: 0.9,
                },
                HyperParams::ElasticNetParams {
                    alpha: 1.0,
                    l1_ratio: 0.5,
                },
            ],
            ModelKind::DecisionTree => vec![
                HyperParams::Tree(TreeParams {
                    max_depth: 6,
                    ..TreeParams::default()
                }),
                HyperParams::Tree(TreeParams {
                    max_depth: 10,
                    ..TreeParams::default()
                }),
                HyperParams::Tree(TreeParams {
                    max_depth: 14,
                    min_samples_leaf: 2,
                    ..TreeParams::default()
                }),
            ],
            ModelKind::RandomForest => vec![
                HyperParams::Forest(ForestParams {
                    n_trees: 60,
                    seed: 17,
                    ..Default::default()
                }),
                HyperParams::Forest(ForestParams {
                    n_trees: 120,
                    seed: 17,
                    ..Default::default()
                }),
            ],
            ModelKind::AdaBoost => vec![
                HyperParams::Ada(AdaBoostParams {
                    n_estimators: 40,
                    seed: 23,
                    ..Default::default()
                }),
                HyperParams::Ada(AdaBoostParams {
                    n_estimators: 40,
                    tree: TreeParams {
                        max_depth: 5,
                        ..TreeParams::default()
                    },
                    seed: 23,
                    ..Default::default()
                }),
            ],
            ModelKind::Knn => vec![
                HyperParams::KnnParams {
                    k: 3,
                    weights: KnnWeights::Distance,
                },
                HyperParams::KnnParams {
                    k: 5,
                    weights: KnnWeights::Distance,
                },
                HyperParams::KnnParams {
                    k: 8,
                    weights: KnnWeights::Uniform,
                },
            ],
            ModelKind::Xgboost => vec![
                HyperParams::Gbt(GbtParams {
                    n_rounds: 150,
                    max_depth: 5,
                    eta: 0.1,
                    ..Default::default()
                }),
                HyperParams::Gbt(GbtParams {
                    n_rounds: 250,
                    max_depth: 6,
                    eta: 0.08,
                    ..Default::default()
                }),
                HyperParams::Gbt(GbtParams {
                    n_rounds: 150,
                    max_depth: 7,
                    eta: 0.1,
                    subsample: 0.8,
                    ..Default::default()
                }),
            ],
        }
    }

    /// Fit this kind with the given hyper-parameters.
    ///
    /// # Panics
    /// If `params` does not belong to this kind.
    pub fn fit(self, x: &[Vec<f64>], y: &[f64], params: &HyperParams) -> Model {
        match (self, params) {
            (ModelKind::LinearRegression, HyperParams::Linear) => {
                Model::Linear(LinearRegression::fit(x, y))
            }
            (ModelKind::ElasticNet, HyperParams::ElasticNetParams { alpha, l1_ratio }) => {
                Model::ElasticNet(ElasticNet::fit(x, y, *alpha, *l1_ratio))
            }
            (ModelKind::BayesianRidge, HyperParams::Bayesian) => {
                Model::Bayesian(BayesianRidge::fit(x, y))
            }
            (ModelKind::DecisionTree, HyperParams::Tree(p)) => {
                Model::Tree(DecisionTree::fit(x, y, *p))
            }
            (ModelKind::RandomForest, HyperParams::Forest(p)) => {
                Model::Forest(RandomForest::fit(x, y, *p))
            }
            (ModelKind::AdaBoost, HyperParams::Ada(p)) => Model::Ada(AdaBoostR2::fit(x, y, *p)),
            (ModelKind::Knn, HyperParams::KnnParams { k, weights }) => {
                Model::Knn(KnnRegressor::fit(x, y, *k, *weights))
            }
            (ModelKind::Xgboost, HyperParams::Gbt(p)) => {
                Model::Gbt(GradientBoosting::fit(x, y, *p))
            }
            (kind, p) => panic!("hyper-parameters {p:?} do not match model kind {kind:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![(i as f64 * 0.17).sin(), (i % 9) as f64 / 9.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] + r[1] * r[1]).collect();
        (x, y)
    }

    #[test]
    fn every_kind_fits_and_predicts_finite() {
        let (x, y) = toy();
        for kind in ModelKind::ALL {
            let m = kind.fit(&x, &y, &kind.default_params());
            assert_eq!(m.kind(), kind);
            let p = m.predict_row(&x[0]);
            assert!(p.is_finite(), "{kind:?} produced {p}");
        }
    }

    #[test]
    fn predict_rows_equals_predict_row_for_every_kind() {
        let (x, y) = toy();
        let flat: Vec<f64> = x[..9].iter().flatten().copied().collect();
        for kind in ModelKind::ALL {
            let m = kind.fit(&x[..60], &y[..60], &kind.default_params());
            let mut out = [0.0; 9];
            m.predict_rows(&flat, &mut out);
            for (row, got) in x.iter().zip(out) {
                assert_eq!(got.to_bits(), m.predict_row(row).to_bits(), "{kind:?}");
            }
            m.predict_rows(&[], &mut []);
        }
    }

    #[test]
    fn every_kind_serialises_roundtrip() {
        let (x, y) = toy();
        for kind in ModelKind::ALL {
            let m = kind.fit(&x[..40], &y[..40], &kind.default_params());
            let s = serde_json::to_string(&m).unwrap();
            let back: Model = serde_json::from_str(&s).unwrap();
            assert_eq!(back, m, "{kind:?}");
            // Identical predictions after the roundtrip.
            assert_eq!(back.predict_row(&x[5]), m.predict_row(&x[5]));
        }
    }

    #[test]
    fn param_grids_match_their_kind() {
        let (x, y) = toy();
        for kind in ModelKind::ALL {
            let grid = kind.param_grid();
            assert!(!grid.is_empty());
            for p in grid {
                // Must not panic:
                let _ = kind.fit(&x[..30], &y[..30], &p);
            }
        }
    }

    #[test]
    #[should_panic(expected = "do not match")]
    fn mismatched_params_panic() {
        let (x, y) = toy();
        ModelKind::LinearRegression.fit(&x, &y, &HyperParams::Bayesian);
    }

    #[test]
    fn table2_characteristics_structure() {
        // Linear models are parametric and bad with imbalance; tree models
        // the reverse — the key qualitative content of Table II.
        for kind in [
            ModelKind::LinearRegression,
            ModelKind::ElasticNet,
            ModelKind::BayesianRidge,
        ] {
            let c = kind.characteristics();
            assert!(c.parametric && !c.good_with_imbalance);
        }
        for kind in [
            ModelKind::DecisionTree,
            ModelKind::RandomForest,
            ModelKind::AdaBoost,
            ModelKind::Xgboost,
        ] {
            let c = kind.characteristics();
            assert!(!c.parametric && c.good_with_imbalance);
        }
        assert_eq!(ModelKind::Knn.characteristics().category, "Other Models");
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(ModelKind::Xgboost.sklearn_name(), "XGBRegressor");
        assert_eq!(ModelKind::BayesianRidge.display_name(), "Bayes Regression");
        assert_eq!(ModelKind::ALL.len(), 8);
    }
}

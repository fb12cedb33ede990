//! # adsala
//!
//! The Architecture and Data-Structure Aware Linear Algebra library: ML-driven
//! runtime selection of the thread count for BLAS Level 3 calls, reproducing
//! Xia & Barca (IPDPSW 2024, arXiv:2406.19621).
//!
//! ## Workflow (paper Fig. 1)
//!
//! **Installation** ([`install`]): a [`timer::BlasTimer`] measures the
//! underlying BLAS at scrambled-Halton-sampled `(dims, nt)` points
//! ([`gather`]); the timings are preprocessed (LOF outlier removal,
//! Yeo-Johnson, standardisation, correlation pruning — [`pipeline`]); every
//! candidate model is tuned and trained; the model with the highest
//! *estimated speedup* `s = t_max / (t_predicted_choice + t_eval)` is
//! selected and persisted ([`store`]).
//!
//! **Runtime** ([`runtime`]): the saved model predicts the runtime of the
//! imminent call for every admissible thread count and the call executes
//! with the argmin ([`predictor`]), with a table of recent predictions to
//! skip repeated evaluations. The [`runtime::Adsala`] type is generic over the
//! `adsala_blas3::Blas3Backend` executing the calls (the paper's runtime is
//! a wrapper over MKL/BLIS; the backend trait is that seam here): every
//! call is described as an `adsala_blas3::Blas3Op`, flows through the
//! single [`runtime::Adsala::execute`] path, and the drop-in wide
//! `{s,d}{gemm,symm,syrk,syr2k,trmm,trsm}` entry points remain as thin
//! shims over it. Configure instances with [`runtime::AdsalaBuilder`].
//!
//! **Evaluation** ([`evaluate`]): held-out Halton test sets reproduce the
//! paper's speedup statistics (Table VII) and heatmaps (Figs 4-7).
//!
//! **Price correction** ([`predictor`]): a served call's observed seconds
//! can be fed back through [`ThreadPredictor::observe`]; each routine's
//! predictor keeps a running mean of `ln(observed / model seconds)` and,
//! from its 32nd sample on, multiplies the seconds
//! [`runtime::Adsala::predict_cost`] reports by `exp(mean)`. The model
//! still picks `nt`: the correction scales every candidate's price alike.
//! `adsala-serve` feeds it from the calls its cells serve.

#![warn(missing_docs)]

pub mod evaluate;
pub mod features;
pub mod gather;
pub mod install;
pub mod pipeline;
pub mod predictor;
pub mod runtime;
pub mod store;
pub mod timer;

pub use install::{install_routine, InstalledRoutine, ModelReport};
pub use predictor::{ModelEpoch, ThreadPredictor};
pub use runtime::{Adsala, AdsalaBuilder, CostEstimate};
pub use timer::{BlasTimer, RealTimer, SimTimer};

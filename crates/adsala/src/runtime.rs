//! The ADSALA runtime library (paper Fig. 1b): drop-in BLAS L3 entry points
//! that predict the optimal thread count per call and dispatch to a
//! pluggable [`Blas3Backend`] with it.
//!
//! The paper's runtime is a *wrapper* around a preexisting BLAS (MKL on
//! Gadi, BLIS on Setonix) whose only decision is the thread count. That is
//! exactly the shape of [`Adsala`]: it is generic over the backend that
//! executes the call, and every entry point funnels through one
//! [`Adsala::execute`] path — describe the call as a
//! [`Blas3Op`], predict `nt` from its dimensions (the predictor's table included),
//! dispatch through the backend trait.
//!
//! Build instances with [`Adsala::builder`] (choose the backend, point at a
//! model directory, set the fallback thread count), or use [`Adsala::new`]
//! on already-installed routines with the [`NativeBackend`].
//! The six wide per-routine methods (`gemm`, `symm`, ...) remain as thin
//! shims over [`Blas3Op`] so existing call sites keep compiling.
//!
//! Routines without an installed model fall back to the configured thread
//! count, i.e. behave exactly like the baseline library.

use crate::install::InstalledRoutine;
use crate::predictor::{ModelEpoch, ThreadPredictor};
use crate::store;
use adsala_blas3::call::{op_shape, side_order};
use adsala_blas3::op::{Dims, Routine};
use adsala_blas3::{
    Blas3Backend, Blas3Error, Blas3Op, Diag, Float, MatMut, MatRef, NativeBackend, Side, Transpose,
    Uplo,
};
use std::collections::HashMap;
use std::path::PathBuf;

/// The runtime library instance, generic over the executing backend.
///
/// `Adsala<B>` is `Send + Sync` (predictor caches are internally locked, and
/// [`Blas3Backend`] requires it of the backend), so one instance wrapped in
/// an `Arc` can serve calls from many threads at once — the shape the
/// `adsala-serve` service layer builds on.
pub struct Adsala<B: Blas3Backend = NativeBackend> {
    backend: B,
    predictors: HashMap<Routine, ThreadPredictor>,
    fallback_nt: usize,
}

/// A predicted execution cost for one call: the thread count the model
/// chose, and — when a model is installed for the routine — its wall-clock
/// estimate at that count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Thread count the call would execute with.
    pub nt: usize,
    /// Model-predicted seconds at `nt`, with the routine's price
    /// correction applied (see [`ThreadPredictor::predict_cost`]); `None`
    /// when the routine has no installed model (the fallback path predicts
    /// nothing).
    pub secs: Option<f64>,
}

/// Configures and constructs an [`Adsala`] runtime.
///
/// ```
/// use adsala::runtime::Adsala;
/// use adsala_blas3::{Blas3Backend, ReferenceBackend};
///
/// let lib = Adsala::builder()
///     .backend(ReferenceBackend)
///     .fallback_nt(4)
///     .build()
///     .unwrap();
/// assert_eq!(lib.backend().max_threads(), 1);
/// ```
#[derive(Debug)]
pub struct AdsalaBuilder<B: Blas3Backend = NativeBackend> {
    backend: B,
    model_dir: Option<PathBuf>,
    platform: Option<String>,
    fallback_nt: Option<usize>,
    installed: Vec<InstalledRoutine>,
}

impl Adsala<NativeBackend> {
    /// Start configuring a runtime (defaults to the [`NativeBackend`]).
    pub fn builder() -> AdsalaBuilder<NativeBackend> {
        AdsalaBuilder {
            backend: NativeBackend,
            model_dir: None,
            platform: None,
            fallback_nt: None,
            installed: Vec::new(),
        }
    }

    /// Build from pre-installed routines on the native backend;
    /// `fallback_nt` is used for routines without a model (the paper's
    /// baseline: max threads).
    pub fn new(installed: Vec<InstalledRoutine>, fallback_nt: usize) -> Adsala {
        Adsala::with_backend(NativeBackend, installed, fallback_nt)
    }
}

impl<B: Blas3Backend> AdsalaBuilder<B> {
    /// Serve calls with a different backend implementation.
    pub fn backend<B2: Blas3Backend>(self, backend: B2) -> AdsalaBuilder<B2> {
        AdsalaBuilder {
            backend,
            model_dir: self.model_dir,
            platform: self.platform,
            fallback_nt: self.fallback_nt,
            installed: self.installed,
        }
    }

    /// Directory holding persisted installation artefacts (see
    /// [`crate::store`]). Requires [`AdsalaBuilder::platform`].
    pub fn model_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.model_dir = Some(dir.into());
        self
    }

    /// Platform label whose artefacts to load from the model directory.
    pub fn platform(mut self, platform: impl Into<String>) -> Self {
        self.platform = Some(platform.into());
        self
    }

    /// Thread count for routines without an installed model. Defaults to
    /// the backend's `max_threads()` — the paper's baseline behaviour.
    pub fn fallback_nt(mut self, nt: usize) -> Self {
        self.fallback_nt = Some(nt);
        self
    }

    /// Add an already-installed routine directly (no file round-trip).
    pub fn install(mut self, routine: InstalledRoutine) -> Self {
        self.installed.push(routine);
        self
    }

    /// Construct the runtime, loading any persisted routines. Routines
    /// added explicitly via [`AdsalaBuilder::install`] take precedence over
    /// same-routine artefacts loaded from the model directory.
    ///
    /// # Errors
    /// Propagates artefact I/O or parse failures; a missing model directory
    /// is not an error (the runtime simply serves fallbacks), but a
    /// `model_dir` without a `platform` is `InvalidInput`.
    pub fn build(self) -> std::io::Result<Adsala<B>> {
        let mut installed = Vec::new();
        if let Some(dir) = &self.model_dir {
            let platform = self.platform.as_deref().ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "AdsalaBuilder: model_dir requires a platform label",
                )
            })?;
            for r in store::installed_routines(dir, platform) {
                installed.push(store::load(dir, platform, r)?);
            }
        }
        // Explicit installs go last: with_backend's per-routine map keeps
        // the later entry, so they win over disk artefacts.
        installed.extend(self.installed);
        let fallback_nt = self
            .fallback_nt
            .unwrap_or_else(|| self.backend.max_threads());
        Ok(Adsala::with_backend(self.backend, installed, fallback_nt))
    }
}

impl<B: Blas3Backend> Adsala<B> {
    fn with_backend(backend: B, installed: Vec<InstalledRoutine>, fallback_nt: usize) -> Adsala<B> {
        let predictors = installed
            .into_iter()
            .map(|i| (i.routine, ThreadPredictor::new(i)))
            .collect();
        Adsala {
            backend,
            predictors,
            fallback_nt: fallback_nt.max(1),
        }
    }

    /// The backend serving this runtime's calls.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Predict the thread count that will be used for a call.
    pub fn predict_nt(&self, routine: Routine, dims: Dims) -> usize {
        self.predictors
            .get(&routine)
            .map(|p| p.predict(dims))
            .unwrap_or(self.fallback_nt)
    }

    /// Predict the thread count *and* the model's runtime estimate for a
    /// call (see [`CostEstimate`]). Shares the per-routine table of recent
    /// predictions with [`Adsala::predict_nt`].
    pub fn predict_cost(&self, routine: Routine, dims: Dims) -> CostEstimate {
        match self.predictors.get(&routine) {
            Some(p) => {
                let (nt, secs) = p.predict_cost(dims);
                CostEstimate {
                    nt,
                    secs: Some(secs),
                }
            }
            None => CostEstimate {
                nt: self.fallback_nt,
                secs: None,
            },
        }
    }

    /// The thread count served to routines without an installed model.
    pub fn fallback_nt(&self) -> usize {
        self.fallback_nt
    }

    /// Access a routine's predictor (for diagnostics).
    pub fn predictor(&self, routine: Routine) -> Option<&ThreadPredictor> {
        self.predictors.get(&routine)
    }

    /// The installed model of a routine, or `None` when the routine is
    /// served by the fallback thread count. Frozen while
    /// `benchmark/src/probes.rs` reads the artefacts through it;
    /// [`ThreadPredictor::installed`] is the same.
    pub fn model_epoch(&self, routine: Routine) -> Option<&ModelEpoch> {
        self.predictors.get(&routine).map(ThreadPredictor::epoch)
    }

    /// The single dispatch path every call goes through: validate the call
    /// description, predict the thread count from its dimensions, execute
    /// on the backend. Returns the thread count used.
    ///
    /// Validation runs here so a malformed call fails *before* paying for
    /// the prediction sweep; the built-in backends validate again on entry
    /// because they are independently public. The double check is a handful
    /// of integer comparisons — noise next to even the smallest kernel
    /// launch (see the `runtime/backend_dispatch` bench).
    ///
    /// # Errors
    /// [`Blas3Error`] when the call description is dimensionally
    /// inconsistent (the typed replacement for the legacy panics).
    pub fn execute<T: Float>(&self, op: Blas3Op<'_, T>) -> Result<usize, Blas3Error> {
        op.validate()?;
        let nt = self.predict_nt(op.routine(), op.dims());
        self.backend.execute(nt, op)?;
        Ok(nt)
    }

    /// Execute a call with an explicitly chosen thread count, skipping the
    /// prediction step.
    ///
    /// This is the dispatch half of [`Adsala::execute`] for callers that
    /// already predicted — e.g. a batching scheduler that ran
    /// [`Adsala::predict_cost`] once for a whole group of same-shape calls
    /// at admission time and now executes each member with the shared `nt`.
    ///
    /// # Errors
    /// [`Blas3Error`] when the call description is dimensionally
    /// inconsistent.
    pub fn execute_with_nt<T: Float>(
        &self,
        nt: usize,
        op: Blas3Op<'_, T>,
    ) -> Result<(), Blas3Error> {
        op.validate()?;
        self.backend.execute(nt, op)
    }

    /// The same call as [`Adsala::execute`], for either BLAS level.
    ///
    /// # Errors
    /// Same conditions as [`Adsala::execute`].
    // `benchmark/` (frozen outside `[benchmark]` PRs) calls this name.
    pub fn execute2<T: Float>(&self, op: Blas3Op<'_, T>) -> Result<usize, Blas3Error> {
        self.execute(op)
    }

    /// The same call as [`Adsala::execute_with_nt`], for either BLAS level.
    ///
    /// # Errors
    /// Same conditions as [`Adsala::execute_with_nt`].
    // `benchmark/` (frozen outside `[benchmark]` PRs) calls this name.
    pub fn execute2_with_nt<T: Float>(
        &self,
        nt: usize,
        op: Blas3Op<'_, T>,
    ) -> Result<(), Blas3Error> {
        self.execute_with_nt(nt, op)
    }

    /// GEMM with ML-selected thread count:
    /// `C = alpha*op(A)*op(B) + beta*C`.
    ///
    /// Thin shim over [`Blas3Op::Gemm`]; panics on inconsistent shapes like
    /// the raw BLAS entry points do. Prefer [`Adsala::execute`] for typed
    /// errors.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm<T: Float>(
        &self,
        transa: Transpose,
        transb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        alpha: T,
        a: &[T],
        lda: usize,
        b: &[T],
        ldb: usize,
        beta: T,
        c: &mut [T],
        ldc: usize,
    ) -> usize {
        let (ar, ac) = op_shape(transa, m, k);
        let (br, bc) = op_shape(transb, k, n);
        self.execute(Blas3Op::Gemm {
            transa,
            transb,
            alpha,
            a: MatRef::new_named("gemm A", ar, ac, lda, a),
            b: MatRef::new_named("gemm B", br, bc, ldb, b),
            beta,
            c: MatMut::new_named("gemm C", m, n, ldc, c),
        })
        .expect("gemm call description invalid")
    }

    /// SYMM with ML-selected thread count (shim over [`Blas3Op::Symm`]).
    #[allow(clippy::too_many_arguments)]
    pub fn symm<T: Float>(
        &self,
        side: Side,
        uplo: Uplo,
        m: usize,
        n: usize,
        alpha: T,
        a: &[T],
        lda: usize,
        b: &[T],
        ldb: usize,
        beta: T,
        c: &mut [T],
        ldc: usize,
    ) -> usize {
        let na = side_order(side, m, n);
        self.execute(Blas3Op::Symm {
            side,
            uplo,
            alpha,
            a: MatRef::new_named("symm A", na, na, lda, a),
            b: MatRef::new_named("symm B", m, n, ldb, b),
            beta,
            c: MatMut::new_named("symm C", m, n, ldc, c),
        })
        .expect("symm call description invalid")
    }

    /// SYRK with ML-selected thread count (shim over [`Blas3Op::Syrk`]).
    #[allow(clippy::too_many_arguments)]
    pub fn syrk<T: Float>(
        &self,
        uplo: Uplo,
        trans: Transpose,
        n: usize,
        k: usize,
        alpha: T,
        a: &[T],
        lda: usize,
        beta: T,
        c: &mut [T],
        ldc: usize,
    ) -> usize {
        let (ar, ac) = op_shape(trans, n, k);
        self.execute(Blas3Op::Syrk {
            uplo,
            trans,
            alpha,
            a: MatRef::new_named("syrk A", ar, ac, lda, a),
            beta,
            c: MatMut::new_named("syrk C", n, n, ldc, c),
        })
        .expect("syrk call description invalid")
    }

    /// SYR2K with ML-selected thread count (shim over [`Blas3Op::Syr2k`]).
    #[allow(clippy::too_many_arguments)]
    pub fn syr2k<T: Float>(
        &self,
        uplo: Uplo,
        trans: Transpose,
        n: usize,
        k: usize,
        alpha: T,
        a: &[T],
        lda: usize,
        b: &[T],
        ldb: usize,
        beta: T,
        c: &mut [T],
        ldc: usize,
    ) -> usize {
        let (ar, ac) = op_shape(trans, n, k);
        self.execute(Blas3Op::Syr2k {
            uplo,
            trans,
            alpha,
            a: MatRef::new_named("syr2k A", ar, ac, lda, a),
            b: MatRef::new_named("syr2k B", ar, ac, ldb, b),
            beta,
            c: MatMut::new_named("syr2k C", n, n, ldc, c),
        })
        .expect("syr2k call description invalid")
    }

    /// TRMM with ML-selected thread count, in place on B (shim over
    /// [`Blas3Op::Trmm`]).
    #[allow(clippy::too_many_arguments)]
    pub fn trmm<T: Float>(
        &self,
        side: Side,
        uplo: Uplo,
        trans: Transpose,
        diag: Diag,
        m: usize,
        n: usize,
        alpha: T,
        a: &[T],
        lda: usize,
        b: &mut [T],
        ldb: usize,
    ) -> usize {
        let na = side_order(side, m, n);
        self.execute(Blas3Op::Trmm {
            side,
            uplo,
            trans,
            diag,
            alpha,
            a: MatRef::new_named("trmm A", na, na, lda, a),
            b: MatMut::new_named("trmm B", m, n, ldb, b),
        })
        .expect("trmm call description invalid")
    }

    /// TRSM with ML-selected thread count, in place on B (shim over
    /// [`Blas3Op::Trsm`]).
    #[allow(clippy::too_many_arguments)]
    pub fn trsm<T: Float>(
        &self,
        side: Side,
        uplo: Uplo,
        trans: Transpose,
        diag: Diag,
        m: usize,
        n: usize,
        alpha: T,
        a: &[T],
        lda: usize,
        b: &mut [T],
        ldb: usize,
    ) -> usize {
        let na = side_order(side, m, n);
        self.execute(Blas3Op::Trsm {
            side,
            uplo,
            trans,
            diag,
            alpha,
            a: MatRef::new_named("trsm A", na, na, lda, a),
            b: MatMut::new_named("trsm B", m, n, ldb, b),
        })
        .expect("trsm call description invalid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::install::{install_routine, InstallOptions};
    use crate::timer::SimTimer;
    use adsala_blas3::{Matrix, ReferenceBackend};
    use adsala_machine::MachineSpec;
    use adsala_ml::model::ModelKind;

    fn mini_adsala(routines: &[&str]) -> Adsala {
        let timer = SimTimer::new(MachineSpec::gadi());
        let opts = InstallOptions {
            n_train: 100,
            n_eval: 8,
            kinds: vec![ModelKind::LinearRegression],
            nt_stride: 16,
            ..Default::default()
        };
        let installed = routines
            .iter()
            .map(|n| install_routine(&timer, Routine::parse(n).unwrap(), &opts))
            .collect();
        Adsala::new(installed, 4)
    }

    #[test]
    fn gemm_through_adsala_is_numerically_correct() {
        let lib = mini_adsala(&["dgemm"]);
        let m = 24;
        let a = Matrix::<f64>::from_fn(m, m, |i, j| ((i + 2 * j) % 7) as f64 - 3.0);
        let b = Matrix::<f64>::from_fn(m, m, |i, j| ((3 * i + j) % 5) as f64 - 2.0);
        let mut c = Matrix::<f64>::zeros(m, m);
        let nt = lib.gemm(
            Transpose::No,
            Transpose::No,
            m,
            m,
            m,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            m,
            0.0,
            c.as_mut_slice(),
            m,
        );
        assert!(nt >= 1);
        let mut expect = Matrix::<f64>::zeros(m, m);
        adsala_blas3::reference::gemm(Transpose::No, Transpose::No, 1.0, &a, &b, 0.0, &mut expect);
        assert!(c.max_abs_diff(&expect) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "gemm A: leading dimension")]
    fn wide_shim_panics_name_the_offending_operand() {
        let lib = Adsala::new(Vec::new(), 1);
        let a = [0.0f64; 4];
        let b = [0.0f64; 9];
        let mut c = [0.0f64; 9];
        // lda = 2 < m = 3: the panic must say which operand is malformed.
        lib.gemm(
            Transpose::No,
            Transpose::No,
            3,
            3,
            3,
            1.0,
            &a,
            2,
            &b,
            3,
            0.0,
            &mut c,
            3,
        );
    }

    #[test]
    fn uninstalled_routine_uses_fallback() {
        let lib = mini_adsala(&["dgemm"]);
        let r = Routine::parse("strsm").unwrap();
        assert_eq!(lib.predict_nt(r, Dims::d2(64, 64)), 4);
    }

    #[test]
    fn every_wrapper_executes() {
        let lib = mini_adsala(&["dgemm", "dsymm", "dsyrk", "dsyr2k", "dtrmm", "dtrsm"]);
        let n = 16;
        let mk_a = || {
            Matrix::<f64>::from_fn(n, n, |i, j| {
                if i == j {
                    5.0
                } else {
                    0.1 * ((i + j) % 3) as f64
                }
            })
        };
        let a = mk_a();
        let b0 = Matrix::<f64>::from_fn(n, n, |i, j| ((i * 3 + j) % 11) as f64 - 5.0);
        let mut c = Matrix::<f64>::zeros(n, n);
        lib.symm(
            Side::Left,
            Uplo::Upper,
            n,
            n,
            1.0,
            a.as_slice(),
            n,
            b0.as_slice(),
            n,
            0.0,
            c.as_mut_slice(),
            n,
        );
        lib.syrk(
            Uplo::Lower,
            Transpose::No,
            n,
            n,
            1.0,
            a.as_slice(),
            n,
            0.0,
            c.as_mut_slice(),
            n,
        );
        lib.syr2k(
            Uplo::Lower,
            Transpose::No,
            n,
            n,
            1.0,
            a.as_slice(),
            n,
            b0.as_slice(),
            n,
            0.0,
            c.as_mut_slice(),
            n,
        );
        let mut b = b0.clone();
        lib.trmm(
            Side::Left,
            Uplo::Upper,
            Transpose::No,
            Diag::NonUnit,
            n,
            n,
            1.0,
            a.as_slice(),
            n,
            b.as_mut_slice(),
            n,
        );
        lib.trsm(
            Side::Left,
            Uplo::Upper,
            Transpose::No,
            Diag::NonUnit,
            n,
            n,
            1.0,
            a.as_slice(),
            n,
            b.as_mut_slice(),
            n,
        );
        // trsm(trmm(B)) == B
        assert!(b.max_abs_diff(&b0) < 1e-9);
    }

    #[test]
    fn repeated_calls_hit_prediction_cache() {
        let lib = mini_adsala(&["dgemm"]);
        let r = Routine::parse("dgemm").unwrap();
        let d = Dims::d3(128, 128, 128);
        lib.predict_nt(r, d);
        lib.predict_nt(r, d);
        lib.predict_nt(r, d);
        let (hits, misses) = lib.predictor(r).unwrap().cache_stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 2);
    }

    #[test]
    fn execute_returns_typed_error_on_mismatch() {
        let lib = mini_adsala(&["dgemm"]);
        let a = Matrix::<f64>::zeros(4, 5);
        let b = Matrix::<f64>::zeros(6, 3); // inner mismatch: 5 vs 6
        let mut c = Matrix::<f64>::zeros(4, 3);
        let err = lib
            .execute(Blas3Op::Gemm {
                transa: Transpose::No,
                transb: Transpose::No,
                alpha: 1.0,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: 0.0,
                c: c.as_mut(),
            })
            .unwrap_err();
        assert!(matches!(err, Blas3Error::DimMismatch { got: (5, 6), .. }));
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn adsala_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Adsala<NativeBackend>>();
        assert_send_sync::<Adsala<ReferenceBackend>>();

        // And actually share one across threads through an Arc.
        let lib = std::sync::Arc::new(mini_adsala(&["dgemm"]));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let lib = std::sync::Arc::clone(&lib);
                std::thread::spawn(move || {
                    lib.predict_nt(Routine::parse("dgemm").unwrap(), Dims::d3(64, 64, 64))
                })
            })
            .collect();
        let nts: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(nts.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn predict_cost_reports_seconds_only_when_modelled() {
        let lib = mini_adsala(&["dgemm"]);
        let modelled = lib.predict_cost(Routine::parse("dgemm").unwrap(), Dims::d3(96, 96, 96));
        assert!(modelled.secs.is_some_and(|s| s > 0.0));
        assert_eq!(
            modelled.nt,
            lib.predict_nt(Routine::parse("dgemm").unwrap(), Dims::d3(96, 96, 96))
        );
        let fallback = lib.predict_cost(Routine::parse("strsm").unwrap(), Dims::d2(64, 64));
        assert_eq!(fallback.nt, lib.fallback_nt());
        assert_eq!(fallback.secs, None);
    }

    #[test]
    fn execute_with_nt_matches_predicted_execution() {
        let lib = Adsala::builder()
            .backend(ReferenceBackend)
            .fallback_nt(2)
            .build()
            .unwrap();
        let a = Matrix::<f64>::identity(6);
        let b = Matrix::<f64>::filled(6, 6, 3.0);
        let mut c = Matrix::<f64>::zeros(6, 6);
        lib.execute_with_nt(
            1,
            Blas3Op::Gemm {
                transa: Transpose::No,
                transb: Transpose::No,
                alpha: 1.0,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: 0.0,
                c: c.as_mut(),
            },
        )
        .unwrap();
        assert!(c.max_abs_diff(&b) < 1e-15);
        // Malformed descriptions still fail with a typed error.
        let bad = Matrix::<f64>::zeros(5, 4);
        let err = lib
            .execute_with_nt(
                1,
                Blas3Op::Gemm {
                    transa: Transpose::No,
                    transb: Transpose::No,
                    alpha: 1.0,
                    a: a.as_ref(),
                    b: bad.as_ref(),
                    beta: 0.0,
                    c: c.as_mut(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, Blas3Error::DimMismatch { .. }));
    }

    #[test]
    fn level2_calls_flow_through_the_runtime() {
        use adsala_blas3::{VecMut, VecRef};
        let lib = mini_adsala(&["dgemv"]);
        let r = Routine::parse("dgemv").unwrap();
        let (m, n) = (13usize, 21usize);
        let a = Matrix::<f64>::from_fn(m, n, |i, j| ((i * 5 + j) % 9) as f64 - 4.0);
        let x: Vec<f64> = (0..n).map(|i| (i % 4) as f64 - 1.5).collect();
        let mut y = vec![1.0f64; m];
        let nt = lib
            .execute(Blas3Op::Gemv {
                trans: Transpose::No,
                alpha: 2.0,
                a: a.as_ref(),
                x: VecRef::new(n, 1, &x),
                beta: -1.0,
                y: VecMut::new(m, 1, &mut y),
            })
            .unwrap();
        assert!((1..=96).contains(&nt));
        assert_eq!(nt, lib.predict_nt(r, Dims::d2(m, n)));
        let mut expect = vec![1.0f64; m];
        adsala_blas3::reference::gemv(Transpose::No, 2.0, &a, &x, -1.0, &mut expect);
        for (u, v) in y.iter().zip(&expect) {
            assert!((u - v).abs() < 1e-12);
        }
        // predict_cost prices the admitted Level 2 call.
        let est = lib.predict_cost(r, Dims::d2(m, n));
        assert!(est.secs.is_some_and(|s| s > 0.0 && s.is_finite()));

        // The explicit-nt dispatch path and typed validation both work.
        let mut y2 = vec![0.0f64; m];
        lib.execute_with_nt(
            1,
            Blas3Op::Gemv {
                trans: Transpose::No,
                alpha: 1.0,
                a: a.as_ref(),
                x: VecRef::new(n, 1, &x),
                beta: 0.0,
                y: VecMut::new(m, 1, &mut y2),
            },
        )
        .unwrap();
        let err = lib
            .execute_with_nt(
                1,
                Blas3Op::Gemv {
                    trans: Transpose::No,
                    alpha: 1.0,
                    a: a.as_ref(),
                    x: VecRef::new(m, 1, &y2), // wrong length: m, needs n
                    beta: 0.0,
                    y: VecMut::new(m, 1, &mut y),
                },
            )
            .unwrap_err();
        assert!(matches!(err, Blas3Error::DimMismatch { .. }));
    }

    #[test]
    fn a_fault_rule_on_dgemv_fails_only_the_level2_call() {
        use adsala_blas3::op::{OpKind, Precision};
        use adsala_blas3::{FaultBackend, FaultKind, FaultRule, FaultTarget, VecMut, VecRef};
        let dgemv = Routine::new(OpKind::Gemv, Precision::Double);
        let lib = Adsala::builder()
            .backend(FaultBackend::new(
                NativeBackend,
                0,
                vec![FaultRule::new(FaultKind::Fatal).targeting(FaultTarget::routine(dgemv))],
            ))
            .fallback_nt(2)
            .build()
            .unwrap();
        let a = Matrix::<f64>::identity(8);
        let (x, mut y) = ([1.0f64; 8], [0.0f64; 8]);
        let err = lib
            .execute2(Blas3Op::Gemv {
                trans: Transpose::No,
                alpha: 1.0,
                a: a.as_ref(),
                x: VecRef::new(8, 1, &x),
                beta: 0.0,
                y: VecMut::new(8, 1, &mut y),
            })
            .unwrap_err();
        assert_eq!(
            err,
            Blas3Error::BackendFault {
                backend: "fault",
                transient: false
            }
        );
        assert_eq!(y, [0.0; 8], "a faulted call writes nothing");
        let b = Matrix::<f64>::filled(8, 8, 2.0);
        let mut c = Matrix::<f64>::zeros(8, 8);
        let gemm = Blas3Op::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha: 1.0,
            a: a.as_ref(),
            b: b.as_ref(),
            beta: 0.0,
            c: c.as_mut(),
        };
        assert_eq!(lib.execute(gemm), Ok(2));
        assert!(c.max_abs_diff(&b) < 1e-15);
        assert_eq!(lib.backend().stats().injected, 1);
    }

    #[test]
    fn builder_swaps_backend_and_execute_path_serves_it() {
        let lib = Adsala::builder()
            .backend(ReferenceBackend)
            .fallback_nt(3)
            .build()
            .unwrap();
        assert_eq!(lib.backend().name(), "reference");
        let a = Matrix::<f64>::identity(8);
        let b = Matrix::<f64>::filled(8, 8, 2.0);
        let mut c = Matrix::<f64>::zeros(8, 8);
        let nt = lib
            .execute(Blas3Op::Gemm {
                transa: Transpose::No,
                transb: Transpose::No,
                alpha: 1.0,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: 0.0,
                c: c.as_mut(),
            })
            .unwrap();
        assert_eq!(nt, 3, "no model installed: fallback nt must be used");
        assert!(c.max_abs_diff(&b) < 1e-15);
    }
}

//! The black-box timing interface between ADSALA and the BLAS it tunes.
//!
//! ADSALA never looks inside the BLAS: it only needs a mapping
//! `(routine, dims, nt) -> seconds`. Two backends are provided:
//!
//! * [`SimTimer`] — the `adsala-machine` analytic model of Setonix/Gadi.
//!   This is what the paper-scale experiments run on (see DESIGN.md §5 for
//!   the substitution rationale): it exercises the identical pipeline code
//!   while standing in for hardware we do not have.
//! * [`RealTimer`] — wall-clock measurement through a [`Blas3Backend`],
//!   usable wherever the library is actually deployed. The timer executes
//!   the *same* [`Blas3Op`] descriptions through the *same* backend trait
//!   the runtime dispatches through, so installation measures exactly what
//!   runtime serves; [`RealTimer::with_backend`] times any other backend
//!   implementation the runtime might be configured with.

use adsala_blas3::op::{Dims, OpKind, Routine};
use adsala_blas3::{
    Blas3Backend, Blas3Op, Diag, Float, Matrix, NativeBackend, Side, Transpose, Uplo, VecMut,
    VecRef,
};
use adsala_machine::{MachineSpec, PerfModel};
use std::time::Instant;

/// Black-box BLAS timing backend.
pub trait BlasTimer: Sync {
    /// Measure (or model) one call, in seconds. `rep` distinguishes repeat
    /// measurements of the same configuration.
    fn time(&self, routine: Routine, dims: Dims, nt: usize, rep: u64) -> f64;

    /// Maximum admissible thread count (the paper's baseline uses exactly
    /// this value).
    fn max_threads(&self) -> usize;

    /// Platform label used in reports and persisted configs.
    fn platform(&self) -> &str;
}

/// Simulated timer over the analytic machine model.
#[derive(Debug, Clone)]
pub struct SimTimer {
    model: PerfModel,
}

impl SimTimer {
    /// Timer over a machine spec (e.g. [`MachineSpec::setonix`]).
    pub fn new(spec: MachineSpec) -> SimTimer {
        SimTimer {
            model: PerfModel::new(spec),
        }
    }

    /// Access the underlying model (used by ground-truth evaluations).
    pub fn model(&self) -> &PerfModel {
        &self.model
    }
}

impl BlasTimer for SimTimer {
    fn time(&self, routine: Routine, dims: Dims, nt: usize, rep: u64) -> f64 {
        self.model.measure(routine, dims, nt, rep)
    }

    fn max_threads(&self) -> usize {
        self.model.spec().max_threads()
    }

    fn platform(&self) -> &str {
        &self.model.spec().name
    }
}

/// Wall-clock timer over a [`Blas3Backend`] on this host.
pub struct RealTimer<B: Blas3Backend = NativeBackend> {
    backend: B,
    max_threads: usize,
    name: String,
}

impl RealTimer<NativeBackend> {
    /// Timer over the native kernels, allowing up to
    /// `hardware threads x smt_level` threads. Equivalent to
    /// `RealTimer::with_backend(NativeBackend, smt_level)` — both produce
    /// the same platform label, so artefacts installed through either
    /// constructor are found by the other.
    pub fn new(smt_level: usize) -> RealTimer {
        RealTimer::with_backend(NativeBackend, smt_level)
    }
}

impl<B: Blas3Backend> RealTimer<B> {
    /// Timer over an arbitrary backend, allowing up to
    /// `backend.max_threads() x smt_level` threads. The platform label
    /// embeds the backend name so artefacts from different backends never
    /// collide in the store.
    pub fn with_backend(backend: B, smt_level: usize) -> RealTimer<B> {
        let base = backend.max_threads().max(1);
        let name = format!("{}-{base}core", backend.name());
        RealTimer {
            backend,
            max_threads: (base * smt_level.max(1)).max(1),
            name,
        }
    }

    /// The backend being timed.
    pub fn backend(&self) -> &B {
        &self.backend
    }
}

/// Build operands, execute one [`Blas3Op`] through the backend, return
/// elapsed seconds (operand construction excluded).
fn run_typed<T: Float, B: Blas3Backend>(backend: &B, op: OpKind, dims: Dims, nt: usize) -> f64 {
    // Deterministic, well-conditioned operands. TRSM needs a
    // diagonally-dominant triangular A.
    let gen = |r: usize, c: usize, seed: u64| {
        Matrix::<T>::from_fn(r, c, |i, j| {
            let h = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((j as u64).wrapping_mul(0x2545F4914F6CDD1D))
                .wrapping_add(seed);
            T::from_f64(((h >> 40) % 1000) as f64 / 1000.0 - 0.5)
        })
    };
    let genv = |n: usize, seed: u64| -> Vec<T> {
        (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(seed.wrapping_mul(0x2545F4914F6CDD1D));
                T::from_f64(((h >> 40) % 1000) as f64 / 1000.0 - 0.5)
            })
            .collect()
    };
    let one = T::ONE;
    let time = |op: Blas3Op<'_, T>| {
        let routine = op.routine();
        let t0 = Instant::now();
        backend
            .execute(nt, op)
            .unwrap_or_else(|e| panic!("timer {} must be well-formed: {e}", routine.name()));
        t0.elapsed().as_secs_f64()
    };
    match op {
        OpKind::Gemm => {
            let (m, k, n) = (dims.a(), dims.b(), dims.c());
            let (a, b) = (gen(m, k, 1), gen(k, n, 2));
            let mut c = Matrix::<T>::zeros(m, n);
            time(Blas3Op::Gemm {
                transa: Transpose::No,
                transb: Transpose::No,
                alpha: one,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: T::ZERO,
                c: c.as_mut(),
            })
        }
        OpKind::Symm => {
            let (m, n) = (dims.a(), dims.b());
            let (a, b) = (gen(m, m, 3), gen(m, n, 4));
            let mut c = Matrix::<T>::zeros(m, n);
            time(Blas3Op::Symm {
                side: Side::Left,
                uplo: Uplo::Upper,
                alpha: one,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: T::ZERO,
                c: c.as_mut(),
            })
        }
        OpKind::Syrk => {
            let (n, k) = (dims.a(), dims.b());
            let a = gen(n, k, 5);
            let mut c = Matrix::<T>::zeros(n, n);
            time(Blas3Op::Syrk {
                uplo: Uplo::Lower,
                trans: Transpose::No,
                alpha: one,
                a: a.as_ref(),
                beta: T::ZERO,
                c: c.as_mut(),
            })
        }
        OpKind::Syr2k => {
            let (n, k) = (dims.a(), dims.b());
            let (a, b) = (gen(n, k, 6), gen(n, k, 7));
            let mut c = Matrix::<T>::zeros(n, n);
            time(Blas3Op::Syr2k {
                uplo: Uplo::Lower,
                trans: Transpose::No,
                alpha: one,
                a: a.as_ref(),
                b: b.as_ref(),
                beta: T::ZERO,
                c: c.as_mut(),
            })
        }
        OpKind::Trmm => {
            let (m, n) = (dims.a(), dims.b());
            let (a, mut b) = (gen(m, m, 8), gen(m, n, 9));
            time(Blas3Op::Trmm {
                side: Side::Left,
                uplo: Uplo::Upper,
                trans: Transpose::No,
                diag: Diag::NonUnit,
                alpha: one,
                a: a.as_ref(),
                b: b.as_mut(),
            })
        }
        OpKind::Trsm => {
            let (m, n) = (dims.a(), dims.b());
            let mut a = gen(m, m, 10);
            for i in 0..m {
                a.set(i, i, T::from_f64(4.0 + (i % 3) as f64));
            }
            let mut b = gen(m, n, 11);
            time(Blas3Op::Trsm {
                side: Side::Left,
                uplo: Uplo::Upper,
                trans: Transpose::No,
                diag: Diag::NonUnit,
                alpha: one,
                a: a.as_ref(),
                b: b.as_mut(),
            })
        }
        // Level 2: same deterministic operands one dimension down. TRSV
        // needs the same diagonal dominance as TRSM.
        OpKind::Gemv => {
            let (m, n) = (dims.a(), dims.b());
            let (a, x) = (gen(m, n, 12), genv(n, 13));
            let mut y = vec![T::ZERO; m];
            time(Blas3Op::Gemv {
                trans: Transpose::No,
                alpha: one,
                a: a.as_ref(),
                x: VecRef::new(n, 1, &x),
                beta: T::ZERO,
                y: VecMut::new(m, 1, &mut y),
            })
        }
        OpKind::Ger => {
            let (m, n) = (dims.a(), dims.b());
            let (x, y) = (genv(m, 14), genv(n, 15));
            let mut a = gen(m, n, 16);
            time(Blas3Op::Ger {
                alpha: one,
                x: VecRef::new(m, 1, &x),
                y: VecRef::new(n, 1, &y),
                a: a.as_mut(),
            })
        }
        OpKind::Symv => {
            let n = dims.a();
            let (a, x) = (gen(n, n, 17), genv(n, 18));
            let mut y = vec![T::ZERO; n];
            time(Blas3Op::Symv {
                uplo: Uplo::Upper,
                alpha: one,
                a: a.as_ref(),
                x: VecRef::new(n, 1, &x),
                beta: T::ZERO,
                y: VecMut::new(n, 1, &mut y),
            })
        }
        OpKind::Trmv => {
            let n = dims.a();
            let (a, mut x) = (gen(n, n, 19), genv(n, 20));
            time(Blas3Op::Trmv {
                uplo: Uplo::Upper,
                trans: Transpose::No,
                diag: Diag::NonUnit,
                a: a.as_ref(),
                x: VecMut::new(n, 1, &mut x),
            })
        }
        OpKind::Trsv => {
            let n = dims.a();
            let mut a = gen(n, n, 21);
            for i in 0..n {
                a.set(i, i, T::from_f64(4.0 + (i % 3) as f64));
            }
            let mut x = genv(n, 22);
            time(Blas3Op::Trsv {
                uplo: Uplo::Upper,
                trans: Transpose::No,
                diag: Diag::NonUnit,
                a: a.as_ref(),
                x: VecMut::new(n, 1, &mut x),
            })
        }
    }
}

impl<B: Blas3Backend> BlasTimer for RealTimer<B> {
    fn time(&self, routine: Routine, dims: Dims, nt: usize, _rep: u64) -> f64 {
        match routine.prec {
            adsala_blas3::op::Precision::Double => {
                run_typed::<f64, B>(&self.backend, routine.op, dims, nt)
            }
            adsala_blas3::op::Precision::Single => {
                run_typed::<f32, B>(&self.backend, routine.op, dims, nt)
            }
        }
    }

    fn max_threads(&self) -> usize {
        self.max_threads
    }

    fn platform(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsala_blas3::op::Precision;
    use adsala_blas3::ReferenceBackend;

    #[test]
    fn sim_timer_is_deterministic() {
        let t = SimTimer::new(MachineSpec::gadi());
        let r = Routine::new(OpKind::Gemm, Precision::Double);
        let d = Dims::d3(100, 100, 100);
        assert_eq!(t.time(r, d, 8, 0), t.time(r, d, 8, 0));
        assert_eq!(t.max_threads(), 96);
        assert_eq!(t.platform(), "gadi");
    }

    #[test]
    fn real_timer_times_every_routine() {
        let t = RealTimer::new(1);
        for r in Routine::all() {
            let d = if r.op.n_dims() == 3 {
                Dims::d3(24, 16, 20)
            } else {
                Dims::d2(24, 16)
            };
            let secs = t.time(r, d, 1, 0);
            assert!(secs > 0.0 && secs < 5.0, "{r}: {secs}s");
        }
        assert!(t.max_threads() >= 1);
    }

    #[test]
    fn real_timer_smt_level_multiplies_threads() {
        let t1 = RealTimer::new(1);
        let t2 = RealTimer::new(2);
        assert_eq!(t2.max_threads(), 2 * t1.max_threads());
    }

    #[test]
    fn new_and_with_backend_share_platform_label() {
        // Artefacts saved by either constructor must be found by the other.
        let a = RealTimer::new(1);
        let b = RealTimer::with_backend(NativeBackend, 1);
        assert_eq!(a.platform(), b.platform());
        assert_eq!(a.max_threads(), b.max_threads());
    }

    #[test]
    fn real_timer_over_reference_backend() {
        // Installation can time any backend through the same trait the
        // runtime dispatches through.
        let t = RealTimer::with_backend(ReferenceBackend, 1);
        assert_eq!(t.max_threads(), 1);
        assert!(t.platform().starts_with("reference-"));
        let r = Routine::new(OpKind::Trsm, Precision::Double);
        let secs = t.time(r, Dims::d2(16, 12), 1, 0);
        assert!(secs > 0.0 && secs < 5.0);
    }
}

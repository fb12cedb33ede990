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
//!
//! **Operands are built once per key.** Building a call's operands costs a
//! hash and a division per element — for a Level 2 shape about ten times
//! the call it feeds — and installation times each shape many times in a
//! row (a warm-up and repeats at every candidate thread count). So
//! [`RealTimer`] keeps the operands of the last `(routine, dims)` it timed
//! and reuses them while calls repeat that key; a call with another key
//! drops them, then builds its own from the same generator and seeds, with
//! zeroed outputs. Timed calls then run on operands the previous call of
//! that shape left in cache, as calls at runtime do.
//!
//! * The **in-place operand** (TRMM/TRSM's B, TRMV/TRSV's x) is copied
//!   back from a copy taken at build time before each call, untimed:
//!   repeated solves would otherwise shrink B toward denormals, whose
//!   arithmetic is far slower.
//! * **GER's A** is not restored: a rank-1 update is additive, so its
//!   values stay bounded and normal, and a copy would cost a whole matrix.
//! * **`beta = 0` outputs** (C, GEMV/SYMV's y) are overwritten by the call
//!   and need no reset.
//!
//! The entry holds one shape's operands (plus the in-place copy) until the
//! next call with another key or until the timer is dropped; a timer held
//! for a whole run keeps them alive that long. The lock around it is never
//! held across a BLAS call: the entry is taken out for the call and put
//! back after it, so a concurrent caller builds its own operands.

use adsala_blas3::op::{Dims, OpKind, Precision, Routine};
use adsala_blas3::sync::{Mutex, MutexGuard};
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

/// `(t_max, t_nt)`: one call of `routine` on `dims` timed at the timer's
/// maximum thread count, then one at `nt`, both under repeat `rep` — the
/// pair every speed-up is formed from. A discarded call at the maximum
/// comes first: the timer may keep a shape's operands, and the pair's
/// first call would otherwise pay for faulting in the fresh output's pages
/// that the second call finds warm.
pub(crate) fn time_against_max(
    timer: &dyn BlasTimer,
    routine: Routine,
    dims: Dims,
    nt: usize,
    rep: u64,
) -> (f64, f64) {
    let nt_max = timer.max_threads();
    timer.time(routine, dims, nt_max, rep);
    let t_max = timer.time(routine, dims, nt_max, rep);
    (t_max, timer.time(routine, dims, nt, rep))
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
///
/// The timer keeps the operands of the last `(routine, dims)` it timed and
/// times every later call of that key on them; see the module doc for what
/// is put back before each call and what the kept entry costs.
pub struct RealTimer<B: Blas3Backend = NativeBackend> {
    backend: B,
    max_threads: usize,
    name: String,
    /// The last key's operands, taken out for each call and put back after
    /// it, so no lock is held across a BLAS call.
    last: Mutex<Option<Entry>>,
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
            last: Mutex::new(None),
        }
    }

    /// The backend being timed.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The kept entry. Its critical sections only move whole values, so a
    /// poisoned lock holds nothing torn.
    fn last(&self) -> MutexGuard<'_, Option<Entry>> {
        self.last
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// One key's operands, in the key's precision.
struct Entry {
    key: (Routine, Dims),
    operands: Typed,
}

enum Typed {
    Double(Operands<f64>),
    Single(Operands<f32>),
}

impl Entry {
    fn build(routine: Routine, dims: Dims) -> Entry {
        let operands = match routine.prec {
            Precision::Double => Typed::Double(Operands::build(routine.op, dims)),
            Precision::Single => Typed::Single(Operands::build(routine.op, dims)),
        };
        Entry {
            key: (routine, dims),
            operands,
        }
    }
}

/// The deterministic operands of one call: every routine reads them with
/// the flags below, `alpha = 1` and `beta = 0`. Operands a routine does not
/// have are empty.
struct Operands<T: Float> {
    op: OpKind,
    /// Read-only matrices: A, and GEMM/SYMM/SYR2K's B.
    a: Matrix<T>,
    b: Matrix<T>,
    /// Read-only vectors: x, and GER's y.
    x: Vec<T>,
    y: Vec<T>,
    /// The written matrix: C, TRMM/TRSM's B, or GER's A.
    c: Matrix<T>,
    /// The written vector: GEMV/SYMV's y, or TRMV/TRSV's x.
    v: Vec<T>,
    /// The in-place operand as built (TRMM/TRSM's B, TRMV/TRSV's x), copied
    /// back before every call; empty for the other routines.
    saved: Vec<T>,
}

impl<T: Float> Operands<T> {
    fn build(op: OpKind, dims: Dims) -> Operands<T> {
        // Deterministic, well-conditioned operands. TRSM and TRSV need a
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
        let dominant = |n: usize, seed: u64| {
            let mut a = gen(n, n, seed);
            for i in 0..n {
                a.set(i, i, T::from_f64(4.0 + (i % 3) as f64));
            }
            a
        };
        let empty = || Matrix::<T>::zeros(0, 0);
        let mut o = Operands {
            op,
            a: empty(),
            b: empty(),
            x: Vec::new(),
            y: Vec::new(),
            c: empty(),
            v: Vec::new(),
            saved: Vec::new(),
        };
        // Table I order: (m, n), or (n, k) for SYRK/SYR2K, or (n).
        let (m, n) = (dims.a(), dims.b());
        match op {
            OpKind::Gemm => {
                let (k, n) = (dims.b(), dims.c());
                (o.a, o.b, o.c) = (gen(m, k, 1), gen(k, n, 2), Matrix::zeros(m, n));
            }
            OpKind::Symm => (o.a, o.b, o.c) = (gen(m, m, 3), gen(m, n, 4), Matrix::zeros(m, n)),
            OpKind::Syrk => (o.a, o.c) = (gen(m, n, 5), Matrix::zeros(m, m)),
            OpKind::Syr2k => (o.a, o.b, o.c) = (gen(m, n, 6), gen(m, n, 7), Matrix::zeros(m, m)),
            OpKind::Trmm => (o.a, o.c) = (gen(m, m, 8), gen(m, n, 9)),
            OpKind::Trsm => (o.a, o.c) = (dominant(m, 10), gen(m, n, 11)),
            OpKind::Gemv => (o.a, o.x, o.v) = (gen(m, n, 12), genv(n, 13), vec![T::ZERO; m]),
            OpKind::Ger => (o.x, o.y, o.c) = (genv(m, 14), genv(n, 15), gen(m, n, 16)),
            OpKind::Symv => (o.a, o.x, o.v) = (gen(m, m, 17), genv(m, 18), vec![T::ZERO; m]),
            OpKind::Trmv => (o.a, o.v) = (gen(m, m, 19), genv(m, 20)),
            OpKind::Trsv => (o.a, o.v) = (dominant(m, 21), genv(m, 22)),
        }
        o.saved = match op {
            OpKind::Trmm | OpKind::Trsm => o.c.as_slice().to_vec(),
            OpKind::Trmv | OpKind::Trsv => o.v.clone(),
            _ => Vec::new(),
        };
        o
    }

    /// Put the in-place operand back as built (untimed), then run one call
    /// through `backend` and return its elapsed seconds.
    fn time<B: Blas3Backend>(&mut self, backend: &B, nt: usize) -> f64 {
        match self.op {
            OpKind::Trmm | OpKind::Trsm => self.c.as_mut_slice().copy_from_slice(&self.saved),
            OpKind::Trmv | OpKind::Trsv => self.v.copy_from_slice(&self.saved),
            _ => {}
        }
        let op = self.call();
        let routine = op.routine();
        let t0 = Instant::now();
        backend
            .execute(nt, op)
            .unwrap_or_else(|e| panic!("timer {} must be well-formed: {e}", routine.name()));
        t0.elapsed().as_secs_f64()
    }

    fn call(&mut self) -> Blas3Op<'_, T> {
        let (one, zero) = (T::ONE, T::ZERO);
        let x = VecRef::new(self.x.len(), 1, &self.x);
        let (vlen, v) = (self.v.len(), &mut self.v);
        match self.op {
            OpKind::Gemm => Blas3Op::Gemm {
                transa: Transpose::No,
                transb: Transpose::No,
                alpha: one,
                a: self.a.as_ref(),
                b: self.b.as_ref(),
                beta: zero,
                c: self.c.as_mut(),
            },
            OpKind::Symm => Blas3Op::Symm {
                side: Side::Left,
                uplo: Uplo::Upper,
                alpha: one,
                a: self.a.as_ref(),
                b: self.b.as_ref(),
                beta: zero,
                c: self.c.as_mut(),
            },
            OpKind::Syrk => Blas3Op::Syrk {
                uplo: Uplo::Lower,
                trans: Transpose::No,
                alpha: one,
                a: self.a.as_ref(),
                beta: zero,
                c: self.c.as_mut(),
            },
            OpKind::Syr2k => Blas3Op::Syr2k {
                uplo: Uplo::Lower,
                trans: Transpose::No,
                alpha: one,
                a: self.a.as_ref(),
                b: self.b.as_ref(),
                beta: zero,
                c: self.c.as_mut(),
            },
            OpKind::Trmm => Blas3Op::Trmm {
                side: Side::Left,
                uplo: Uplo::Upper,
                trans: Transpose::No,
                diag: Diag::NonUnit,
                alpha: one,
                a: self.a.as_ref(),
                b: self.c.as_mut(),
            },
            OpKind::Trsm => Blas3Op::Trsm {
                side: Side::Left,
                uplo: Uplo::Upper,
                trans: Transpose::No,
                diag: Diag::NonUnit,
                alpha: one,
                a: self.a.as_ref(),
                b: self.c.as_mut(),
            },
            OpKind::Gemv => Blas3Op::Gemv {
                trans: Transpose::No,
                alpha: one,
                a: self.a.as_ref(),
                x,
                beta: zero,
                y: VecMut::new(vlen, 1, v),
            },
            OpKind::Ger => Blas3Op::Ger {
                alpha: one,
                x,
                y: VecRef::new(self.y.len(), 1, &self.y),
                a: self.c.as_mut(),
            },
            OpKind::Symv => Blas3Op::Symv {
                uplo: Uplo::Upper,
                alpha: one,
                a: self.a.as_ref(),
                x,
                beta: zero,
                y: VecMut::new(vlen, 1, v),
            },
            OpKind::Trmv => Blas3Op::Trmv {
                uplo: Uplo::Upper,
                trans: Transpose::No,
                diag: Diag::NonUnit,
                a: self.a.as_ref(),
                x: VecMut::new(vlen, 1, v),
            },
            OpKind::Trsv => Blas3Op::Trsv {
                uplo: Uplo::Upper,
                trans: Transpose::No,
                diag: Diag::NonUnit,
                a: self.a.as_ref(),
                x: VecMut::new(vlen, 1, v),
            },
        }
    }
}

impl<B: Blas3Backend> BlasTimer for RealTimer<B> {
    fn time(&self, routine: Routine, dims: Dims, nt: usize, _rep: u64) -> f64 {
        let key = (routine, dims);
        // Out of the lock for the call: a concurrent caller finds no entry
        // and builds its own operands.
        let kept = self.last().take();
        let mut entry = match kept {
            Some(entry) if entry.key == key => entry,
            stale => {
                // The old key's operands go before the new key's are built,
                // so at most one set is alive.
                drop(stale);
                Entry::build(routine, dims)
            }
        };
        let secs = match &mut entry.operands {
            Typed::Double(o) => o.time(&self.backend, nt),
            Typed::Single(o) => o.time(&self.backend, nt),
        };
        *self.last() = Some(entry);
        secs
    }

    fn max_threads(&self) -> usize {
        self.max_threads
    }

    fn platform(&self) -> &str {
        &self.name
    }
}

/// A [`BlasTimer`] that logs every call it forwards to `inner`, for tests
/// of how callers sequence their timings.
#[cfg(test)]
pub(crate) struct LoggedTimer<T> {
    inner: T,
    log: Mutex<Vec<(Dims, usize, f64)>>,
}

#[cfg(test)]
impl<T: BlasTimer> LoggedTimer<T> {
    pub(crate) fn new(inner: T) -> LoggedTimer<T> {
        LoggedTimer {
            inner,
            log: Mutex::new(Vec::new()),
        }
    }

    /// The logged calls as paired timings, asserting that each pair came
    /// right after a discarded call on the same dims at `max_threads`:
    /// `(dims, nt of the second call, first secs, second secs)`.
    pub(crate) fn warmed_pairs(&self) -> Vec<(Dims, usize, f64, f64)> {
        let log = self.log.lock().unwrap();
        assert_eq!(log.len() % 3, 0, "calls come in threes");
        let nt_max = self.max_threads();
        log.chunks(3)
            .map(|call| {
                let dims = call[0].0;
                assert_eq!(call[0].1, nt_max, "the discarded call runs at nt_max");
                assert!(call.iter().all(|c| c.0 == dims), "one dims per three");
                assert_eq!(call[1].1, nt_max, "the pair starts at nt_max");
                (dims, call[2].1, call[1].2, call[2].2)
            })
            .collect()
    }
}

#[cfg(test)]
impl<T: BlasTimer> BlasTimer for LoggedTimer<T> {
    fn time(&self, routine: Routine, dims: Dims, nt: usize, rep: u64) -> f64 {
        let secs = self.inner.time(routine, dims, nt, rep);
        self.log.lock().unwrap().push((dims, nt, secs));
        secs
    }

    fn max_threads(&self) -> usize {
        self.inner.max_threads()
    }

    fn platform(&self) -> &str {
        self.inner.platform()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsala_blas3::{Blas3Error, ReferenceBackend};

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

    /// What one call held when it reached the backend, before it ran.
    #[derive(Debug, Clone, PartialEq)]
    struct Seen {
        dims: Dims,
        addrs: Vec<usize>,
        /// Checksum of the operands the call only reads.
        inputs: u64,
        /// Checksum of the operand it writes (the in-place one for TRMM,
        /// TRSM, TRMV and TRSV).
        written: u64,
    }

    /// [`NativeBackend`] behind a log of what every call held.
    #[derive(Default)]
    struct Recording {
        seen: Mutex<Vec<Seen>>,
    }

    fn checksum<T: Float>(vals: &[T]) -> u64 {
        vals.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v.to_f64().to_bits()).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// The operands of `op`: those it only reads, then the one it writes.
    fn operands<'s, T: Float>(op: &'s Blas3Op<'_, T>) -> (Vec<&'s [T]>, &'s [T]) {
        match op {
            Blas3Op::Gemm { a, b, c, .. }
            | Blas3Op::Symm { a, b, c, .. }
            | Blas3Op::Syr2k { a, b, c, .. } => (vec![a.data(), b.data()], c.as_ref().data()),
            Blas3Op::Syrk { a, c, .. } => (vec![a.data()], c.as_ref().data()),
            Blas3Op::Trmm { a, b, .. } | Blas3Op::Trsm { a, b, .. } => {
                (vec![a.data()], b.as_ref().data())
            }
            Blas3Op::Gemv { a, x, y, .. } | Blas3Op::Symv { a, x, y, .. } => {
                (vec![a.data(), x.data()], y.as_ref().data())
            }
            Blas3Op::Ger { x, y, a, .. } => (vec![x.data(), y.data()], a.as_ref().data()),
            Blas3Op::Trmv { a, x, .. } | Blas3Op::Trsv { a, x, .. } => {
                (vec![a.data()], x.as_ref().data())
            }
        }
    }

    impl Recording {
        fn record<T: Float>(&self, op: &Blas3Op<'_, T>) {
            let (inputs, written) = operands(op);
            let addrs = inputs.iter().chain([&written]);
            let seen = Seen {
                dims: op.dims(),
                addrs: addrs.map(|s| s.as_ptr() as usize).collect(),
                inputs: inputs.iter().fold(0, |h, s| h ^ checksum(s).rotate_left(1)),
                written: checksum(written),
            };
            self.seen.lock().unwrap().push(seen);
        }

        fn seen(&self) -> Vec<Seen> {
            self.seen.lock().unwrap().clone()
        }
    }

    impl Blas3Backend for Recording {
        fn name(&self) -> &str {
            "recording"
        }
        fn max_threads(&self) -> usize {
            2
        }
        fn execute_f32(&self, nt: usize, op: Blas3Op<'_, f32>) -> Result<(), Blas3Error> {
            self.record(&op);
            NativeBackend.execute_f32(nt, op)
        }
        fn execute_f64(&self, nt: usize, op: Blas3Op<'_, f64>) -> Result<(), Blas3Error> {
            self.record(&op);
            NativeBackend.execute_f64(nt, op)
        }
    }

    fn every_routine() -> Vec<Routine> {
        Routine::all()
            .into_iter()
            .chain(Routine::all_level2())
            .collect()
    }

    /// Two distinct keys of `r`'s dimensionality.
    fn two_keys(r: Routine) -> (Dims, Dims) {
        match r.op.n_dims() {
            3 => (Dims::d3(24, 16, 20), Dims::d3(18, 22, 12)),
            2 => (Dims::d2(24, 16), Dims::d2(18, 22)),
            _ => (Dims::d1(24), Dims::d1(18)),
        }
    }

    fn restores(op: OpKind) -> bool {
        matches!(
            op,
            OpKind::Trmm | OpKind::Trsm | OpKind::Trmv | OpKind::Trsv
        )
    }

    #[test]
    fn operands_are_reused_per_key_restored_and_rebuilt_on_return() {
        for r in every_routine() {
            let (k1, k2) = two_keys(r);
            // What a fresh timer's first call of `k2` holds: as built.
            let fresh = RealTimer::with_backend(Recording::default(), 1);
            fresh.time(r, k2, 1, 0);
            let fresh = fresh.backend().seen().remove(0);

            let t = RealTimer::with_backend(Recording::default(), 1);
            for nt in [1, 2] {
                for rep in 0..4 {
                    t.time(r, k1, nt, rep);
                }
            }
            t.time(r, k2, 1, 0);
            t.time(r, k1, 1, 0);
            let seen = t.backend().seen();
            let first = &seen[0];
            for (i, s) in seen[..8].iter().enumerate() {
                assert_eq!(s.addrs, first.addrs, "{r} call {i}: one set of operands");
                assert_eq!(s.inputs, first.inputs, "{r} call {i}: inputs unchanged");
                if restores(r.op) {
                    assert_eq!(s.written, first.written, "{r} call {i}: restored");
                } else if i > 0 {
                    // The previous call's result is still there: reused.
                    assert_ne!(s.written, first.written, "{r} call {i}: reused");
                }
            }
            assert_eq!(seen[8].dims, k2, "{r}");
            assert_eq!(
                (seen[8].inputs, seen[8].written),
                (fresh.inputs, fresh.written),
                "{r}: a new key gets newly built operands"
            );
            assert_eq!(seen[9].dims, k1, "{r}");
            assert_eq!(
                (seen[9].inputs, seen[9].written),
                (first.inputs, first.written),
                "{r}: going back rebuilds the same values"
            );
        }
    }

    #[test]
    fn repeated_solves_start_from_the_built_right_hand_side() {
        for prec in [Precision::Double, Precision::Single] {
            for (op, dims) in [
                (OpKind::Trsm, Dims::d2(32, 8)),
                (OpKind::Trsv, Dims::d1(64)),
            ] {
                let r = Routine::new(op, prec);
                let t = RealTimer::with_backend(Recording::default(), 1);
                for rep in 0..200 {
                    t.time(r, dims, 1 + rep as usize % 2, rep);
                }
                let seen = t.backend().seen();
                assert_eq!(seen.len(), 200);
                assert!(
                    seen.iter().all(|s| s.written == seen[0].written),
                    "{r}: the right-hand side drifted"
                );
            }
        }
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

//! # adsala-blas3
//!
//! A from-scratch, multi-threaded implementation of the six BLAS Level 3
//! subroutine families (GEMM, SYMM, SYRK, SYR2K, TRMM, TRSM) and the five
//! core Level 2 families (GEMV, GER, SYMV, TRMV, TRSV) in single and
//! double precision, with **explicit thread-count control**.
//!
//! This crate plays the role that Intel MKL (on Gadi) and AMD BLIS (on
//! Setonix) play in the ADSALA paper: the "preexisting library" that the
//! ADSALA runtime wraps and whose thread count it chooses. Every entry point
//! therefore takes an explicit `nt` (number of threads) argument, which is the
//! knob the paper's machine-learning runtime turns.
//!
//! ## Layout conventions
//!
//! Matrices are **column-major** with an explicit leading dimension, exactly
//! like the reference BLAS. The [`Matrix`] type owns storage; the routines
//! take checked [`MatRef`]/[`MatMut`] views (a slice plus shape and leading
//! dimension) so callers can pass sub-matrices.
//!
//! ## Structure
//!
//! * [`op`] — operand-flag enums ([`Side`], [`Uplo`], [`Transpose`],
//!   [`Diag`]) and the [`OpKind`] descriptor encoding Table I of the paper.
//! * [`matrix`] — owned column-major matrices and the checked, typed
//!   [`MatRef`]/[`MatMut`] operand views.
//! * [`call`] — the unified call-description layer: one [`Blas3Op`] value
//!   per call of either level, with typed [`Blas3Error`] validation. Level 2
//!   operands use the strided [`VecRef`]/[`VecMut`] views from [`vector`].
//!   The `Blas3` prefix (like [`Blas3Error`]'s and [`Blas3Backend`]'s) is
//!   the crate's name, not a limit to Level 3.
//! * [`owned`] / [`owned2`] — [`OwnedOp`] (Level 3) and [`OwnedOp2`]
//!   (Level 2), the owned `'static` forms of the call description that
//!   queued/deferred executors (the `adsala-serve` crate) move jobs around
//!   with; both reborrow as a [`Blas3Op`].
//! * [`backend`] — the pluggable [`Blas3Backend`] execution trait
//!   ([`NativeBackend`] blocked kernels, [`ReferenceBackend`] oracles), one
//!   entry point per precision for both levels.
//! * [`pool`] — a persistent work-stealing-free fork/join thread pool with
//!   cooperative *teams* ([`pool::TeamCtx`], a reusable barrier); the cost
//!   of spawning/synchronising threads is part of what the paper's model
//!   learns, so the pool is deliberately explicit rather than hidden behind
//!   rayon.
//! * [`sync`] — the `Mutex`/`Condvar`/atomics the pool and the serve
//!   crate's completion slot are written against: `std`'s, or — test-only
//!   `chaos` feature — wrappers the interleaving checker can schedule.
//! * [`kernel`] / [`pack`] / [`arena`] — blocked micro-kernels, panel
//!   packing, and the packing-buffer reuse arena. The
//!   [`kernel::KernelDispatch`] seam picks an explicit SIMD micro-kernel
//!   (AVX2 or AVX-512F on x86-64, NEON on aarch64, all built in by the
//!   default `simd` feature) at runtime via CPU detection, falling back to
//!   the portable scalar kernel, and carries the
//!   tile geometry the packing and blocking layers must use with it.
//!   Parallel execution is a BLIS-style **cooperative macro-kernel**
//!   ([`kernel::gemm_cooperative`]): the team jointly packs one shared
//!   panel per cache block and splits the consuming loop, instead of each
//!   worker re-packing shared operands for a private chunk of C.
//! * One module per Level 3 subroutine family, plus [`level2`] for the
//!   matrix-vector drivers (the memory-bound regime: O(n^2) flops over
//!   O(n^2) bytes, so the profitable thread count saturates at the
//!   memory-bandwidth knee, not the core count); [`mod@reference`] holds naive
//!   implementations used as test oracles.

#![warn(missing_docs)]
#![allow(clippy::too_many_arguments)] // BLAS signatures are wide by specification

pub mod arena;
pub mod backend;
pub mod call;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod fault;
pub mod kernel;
pub mod matrix;
pub mod op;
pub mod owned;
pub mod owned2;
pub mod pack;
pub mod pool;
pub mod reference;
pub mod sync;
pub mod vector;

pub mod gemm;
pub mod level2;
pub mod symm;
pub mod syr2k;
pub mod syrk;
pub mod trmm;
pub mod trsm;

pub use backend::{Blas3Backend, NativeBackend, ReferenceBackend};
pub use call::{Blas3Error, Blas3Op};
pub use fault::{FaultBackend, FaultKind, FaultRule, FaultStats, FaultTarget};
pub use matrix::{MatMut, MatRef, Matrix};
pub use op::{Diag, OpKind, Precision, Side, Transpose, Uplo};
pub use owned::OwnedOp;
pub use owned2::OwnedOp2;
pub use pool::ThreadPool;
pub use vector::{VecMut, VecRef};

/// Floating-point scalar usable by the kernels.
///
/// Implemented for `f32` and `f64`. The register-block shape and
/// cache-block sizes are deliberately **not** here: they belong to the
/// runtime-selected micro-kernel (see [`Float::kernel`] and
/// [`kernel::KernelDispatch`]) — an AVX2 f32 kernel wants a different tile
/// than the scalar fallback, so geometry cannot be a property of the
/// scalar type.
pub trait Float:
    Copy
    + Send
    + Sync
    + PartialOrd
    + core::fmt::Debug
    + core::fmt::Display
    + core::ops::Add<Output = Self>
    + core::ops::Sub<Output = Self>
    + core::ops::Mul<Output = Self>
    + core::ops::Div<Output = Self>
    + core::ops::Neg<Output = Self>
    + core::ops::AddAssign
    + core::ops::SubAssign
    + core::ops::MulAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Bytes per element, used for memory-footprint accounting.
    const BYTES: usize;
    /// The BLAS precision tag for this scalar type.
    const PRECISION: Precision;

    /// The micro-kernel selected for this scalar type on this CPU: entry
    /// point plus the tile geometry and cache blocking to use with it.
    /// Resolved through the [`kernel::simd`] runtime dispatch (overridable
    /// with [`kernel::set_kernel_choice`] or `ADSALA_KERNEL`); cheap enough
    /// to call per serial product, but drivers hoist it out of their
    /// fork/join loops.
    fn kernel() -> kernel::KernelDispatch<Self>
    where
        Self: Sized;

    /// The Level 2 vector kernels (axpy/dot) selected for this scalar type
    /// on this CPU, answering to the same override machinery as
    /// [`Float::kernel`].
    fn kernel2() -> kernel::level2::Level2Dispatch<Self>
    where
        Self: Sized;

    /// Route a call description to the backend entry point matching this
    /// precision (the seam that keeps [`Blas3Backend`] object-safe while
    /// letting generic code call `backend.execute(nt, op)` for any `T`).
    fn dispatch_op<B: Blas3Backend + ?Sized>(
        backend: &B,
        nt: usize,
        op: Blas3Op<'_, Self>,
    ) -> Result<(), Blas3Error>;

    /// Lossless conversion from `f64` (lossy for `f32`, used for scalars).
    fn from_f64(x: f64) -> Self;
    /// Conversion to `f64` for error measurement.
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Fused multiply-add where available.
    fn mul_add(self, a: Self, b: Self) -> Self;
}

impl Float for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 4;
    const PRECISION: Precision = Precision::Single;

    fn kernel() -> kernel::KernelDispatch<f32> {
        kernel::simd::select_f32()
    }

    fn kernel2() -> kernel::level2::Level2Dispatch<f32> {
        kernel::level2::select2_f32()
    }

    fn dispatch_op<B: Blas3Backend + ?Sized>(
        backend: &B,
        nt: usize,
        op: Blas3Op<'_, f32>,
    ) -> Result<(), Blas3Error> {
        backend.execute_f32(nt, op)
    }

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
}

impl Float for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 8;
    const PRECISION: Precision = Precision::Double;

    fn kernel() -> kernel::KernelDispatch<f64> {
        kernel::simd::select_f64()
    }

    fn kernel2() -> kernel::level2::Level2Dispatch<f64> {
        kernel::level2::select2_f64()
    }

    fn dispatch_op<B: Blas3Backend + ?Sized>(
        backend: &B,
        nt: usize,
        op: Blas3Op<'_, f64>,
    ) -> Result<(), Blas3Error> {
        backend.execute_f64(nt, op)
    }

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
}

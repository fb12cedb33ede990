//! Vector micro-kernels for the Level 2 (matrix-vector) drivers, and the
//! runtime dispatch that selects one.
//!
//! Level 2 routines never profit from the packed-panel machinery the GEMM
//! macro-kernel is built on — each matrix element is touched exactly once,
//! so packing would double the traffic of an already memory-bound loop.
//! What they need instead are two streaming vector primitives over
//! contiguous column-major columns:
//!
//! * `axpy` — `y += alpha * x` (the column update of GEMV-N, GER, SYMV,
//!   TRMV and the substitution step of TRSV), and
//! * `dot`  — `x . y` (the column reduction of GEMV-T and the diagonal
//!   step of the transposed triangular walks).
//!
//! [`Level2Dispatch`] bundles one implementation of each plus a prefetch
//! flag, selected by the **same** [`KernelChoice`] machinery as the Level 3
//! tile kernels: auto-detection, the `ADSALA_KERNEL` environment variable,
//! and [`set_kernel_choice`](super::set_kernel_choice) all act on both
//! families at once, so forcing `scalar` for a parity run pins every
//! routine in the crate.
//!
//! The SIMD variants are safe `fn` pointers wrapping `#[target_feature]`
//! inner functions; the dispatch only hands a variant out after the same
//! runtime CPU detection the Level 3 selection uses, which is what makes
//! the wrappers sound.

use super::simd::{self, KernelChoice};
use crate::Float;

/// The selected Level 2 vector kernels for one scalar type.
///
/// The Level 2 analogue of [`KernelDispatch`](super::KernelDispatch): an
/// `axpy` and a `dot` entry point plus the prefetch policy the drivers
/// should follow when walking matrix columns. Obtain one via
/// [`select2_f32`] / [`select2_f64`] (or [`Float::kernel2`](crate::Float))
/// and thread it through a whole routine so every column sees the same
/// instruction set.
#[derive(Debug, Clone, Copy)]
pub struct Level2Dispatch<T: Float> {
    /// Human-readable kernel name (matches the Level 3 dispatch names so
    /// one `ADSALA_KERNEL` spelling pins both families).
    pub name: &'static str,
    /// Whether drivers should software-prefetch the next matrix column
    /// while the current one streams (the SIMD kernels outrun the hardware
    /// prefetcher on short columns; the scalar kernel does not).
    pub prefetch: bool,
    /// `y[i] += alpha * x[i]` over `min(x.len(), y.len())` elements.
    pub axpy: fn(alpha: T, x: &[T], y: &mut [T]),
    /// Sum of `x[i] * y[i]` over `min(x.len(), y.len())` elements.
    pub dot: fn(x: &[T], y: &[T]) -> T,
}

/// Portable `axpy`: the fallback every build carries and the reference the
/// SIMD variants are tested against.
fn axpy_scalar<T: Float>(alpha: T, x: &[T], y: &mut [T]) {
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi = xi.mul_add(alpha, *yi);
    }
}

/// Portable `dot` with four independent accumulators: breaks the FMA
/// dependency chain (latency, not bandwidth, bounds a one-accumulator
/// reduction) and keeps rounding behaviour close to the vector kernels,
/// which also reduce in lanes.
fn dot_scalar<T: Float>(x: &[T], y: &[T]) -> T {
    let n = x.len().min(y.len());
    let mut acc = [T::ZERO; 4];
    let mut i = 0;
    while i + 4 <= n {
        acc[0] = x[i].mul_add(y[i], acc[0]);
        acc[1] = x[i + 1].mul_add(y[i + 1], acc[1]);
        acc[2] = x[i + 2].mul_add(y[i + 2], acc[2]);
        acc[3] = x[i + 3].mul_add(y[i + 3], acc[3]);
        i += 4;
    }
    while i < n {
        acc[0] = x[i].mul_add(y[i], acc[0]);
        i += 1;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

const SCALAR2_F32: Level2Dispatch<f32> = Level2Dispatch {
    name: "scalar",
    prefetch: false,
    axpy: axpy_scalar::<f32>,
    dot: dot_scalar::<f32>,
};
const SCALAR2_F64: Level2Dispatch<f64> = Level2Dispatch {
    name: "scalar",
    prefetch: false,
    axpy: axpy_scalar::<f64>,
    dot: dot_scalar::<f64>,
};

/// The `f32` vector kernels of one instruction set; as for the tile
/// kernels, an ISA this build leaves out maps to scalar and the two callers
/// below never name one the CPU lacks.
fn dispatch2_f32(isa: KernelChoice) -> Level2Dispatch<f32> {
    match isa {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelChoice::Avx2 => x86::AVX2_F32,
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelChoice::Avx512 => x86::AVX512_F32,
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        KernelChoice::Neon => neon::NEON_F32,
        _ => SCALAR2_F32,
    }
}

/// [`dispatch2_f32`] for `f64`.
fn dispatch2_f64(isa: KernelChoice) -> Level2Dispatch<f64> {
    match isa {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelChoice::Avx2 => x86::AVX2_F64,
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelChoice::Avx512 => x86::AVX512_F64,
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        KernelChoice::Neon => neon::NEON_F64,
        _ => SCALAR2_F64,
    }
}

/// Runtime-selected Level 2 kernels for `f32`: the same resolved ISA as
/// the Level 3 [`select_f32`](super::simd::select_f32).
pub fn select2_f32() -> Level2Dispatch<f32> {
    dispatch2_f32(simd::resolved_isa())
}

/// Runtime-selected Level 2 kernels for `f64`.
pub fn select2_f64() -> Level2Dispatch<f64> {
    dispatch2_f64(simd::resolved_isa())
}

/// Every `f32` Level 2 dispatch this build + CPU can run, scalar first
/// (mirrors [`available_f32`](super::available_f32) for the parity suite
/// and the bandwidth bench).
pub fn available2_f32() -> Vec<Level2Dispatch<f32>> {
    simd::available_isas().map(dispatch2_f32).collect()
}

/// Every `f64` Level 2 dispatch this build + CPU can run, scalar first.
pub fn available2_f64() -> Vec<Level2Dispatch<f64>> {
    simd::available_isas().map(dispatch2_f64).collect()
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    //! AVX2 and AVX-512 axpy/dot. Unlike the tile kernels these run over
    //! raw (unpacked, unpadded) slices, so every variant carries a scalar
    //! tail loop for the ragged end.

    use super::Level2Dispatch;
    use core::arch::x86_64::*;

    pub const AVX2_F32: Level2Dispatch<f32> = Level2Dispatch {
        name: "avx2-f32x8",
        prefetch: true,
        axpy: axpy_f32_avx2,
        dot: dot_f32_avx2,
    };
    pub const AVX2_F64: Level2Dispatch<f64> = Level2Dispatch {
        name: "avx2-f64x4",
        prefetch: true,
        axpy: axpy_f64_avx2,
        dot: dot_f64_avx2,
    };
    pub const AVX512_F32: Level2Dispatch<f32> = Level2Dispatch {
        name: "avx512-f32x16",
        prefetch: true,
        axpy: axpy_f32_avx512,
        dot: dot_f32_avx512,
    };
    pub const AVX512_F64: Level2Dispatch<f64> = Level2Dispatch {
        name: "avx512-f64x8",
        prefetch: true,
        axpy: axpy_f64_avx512,
        dot: dot_f64_avx512,
    };

    fn axpy_f32_avx2(alpha: f32, x: &[f32], y: &mut [f32]) {
        // SAFETY: the dispatch hands this kernel out only after
        // `is_x86_feature_detected!("avx2"/"fma")` both report present.
        unsafe { axpy_f32_avx2_impl(alpha, x, y) }
    }

    /// # Safety
    /// CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn axpy_f32_avx2_impl(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len().min(y.len());
        let av = _mm256_set1_ps(alpha);
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        let mut i = 0;
        while i + 16 <= n {
            // SAFETY: i + 16 <= n keeps both 8-lane pairs in bounds.
            let y0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            let y1 = _mm256_fmadd_ps(
                av,
                _mm256_loadu_ps(xp.add(i + 8)),
                _mm256_loadu_ps(yp.add(i + 8)),
            );
            _mm256_storeu_ps(yp.add(i), y0);
            _mm256_storeu_ps(yp.add(i + 8), y1);
            i += 16;
        }
        while i + 8 <= n {
            // SAFETY: 8 lanes in bounds.
            let y0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            _mm256_storeu_ps(yp.add(i), y0);
            i += 8;
        }
        while i < n {
            y[i] = x[i].mul_add(alpha, y[i]);
            i += 1;
        }
    }

    fn dot_f32_avx2(x: &[f32], y: &[f32]) -> f32 {
        // SAFETY: detection-gated as for axpy.
        unsafe { dot_f32_avx2_impl(x, y) }
    }

    /// # Safety
    /// CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_f32_avx2_impl(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len().min(y.len());
        let (xp, yp) = (x.as_ptr(), y.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            // SAFETY: i + 16 <= n keeps both 8-lane pairs in bounds.
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(xp.add(i + 8)),
                _mm256_loadu_ps(yp.add(i + 8)),
                acc1,
            );
            i += 16;
        }
        while i + 8 <= n {
            // SAFETY: 8 lanes in bounds.
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)), acc0);
            i += 8;
        }
        let acc = _mm256_add_ps(acc0, acc1);
        let lo = _mm256_castps256_ps128(acc);
        let hi = _mm256_extractf128_ps(acc, 1);
        let q = _mm_add_ps(lo, hi);
        let q = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let q = _mm_add_ss(q, _mm_shuffle_ps(q, q, 0b01));
        let mut total = _mm_cvtss_f32(q);
        while i < n {
            total = x[i].mul_add(y[i], total);
            i += 1;
        }
        total
    }

    fn axpy_f64_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
        // SAFETY: detection-gated as for the f32 variant.
        unsafe { axpy_f64_avx2_impl(alpha, x, y) }
    }

    /// # Safety
    /// CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn axpy_f64_avx2_impl(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len().min(y.len());
        let av = _mm256_set1_pd(alpha);
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n keeps both 4-lane pairs in bounds.
            let y0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            let y1 = _mm256_fmadd_pd(
                av,
                _mm256_loadu_pd(xp.add(i + 4)),
                _mm256_loadu_pd(yp.add(i + 4)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + 4), y1);
            i += 8;
        }
        while i + 4 <= n {
            // SAFETY: 4 lanes in bounds.
            let y0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            _mm256_storeu_pd(yp.add(i), y0);
            i += 4;
        }
        while i < n {
            y[i] = x[i].mul_add(alpha, y[i]);
            i += 1;
        }
    }

    fn dot_f64_avx2(x: &[f64], y: &[f64]) -> f64 {
        // SAFETY: detection-gated as for axpy.
        unsafe { dot_f64_avx2_impl(x, y) }
    }

    /// # Safety
    /// CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_f64_avx2_impl(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len().min(y.len());
        let (xp, yp) = (x.as_ptr(), y.as_ptr());
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n keeps both 4-lane pairs in bounds.
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), acc0);
            acc1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(xp.add(i + 4)),
                _mm256_loadu_pd(yp.add(i + 4)),
                acc1,
            );
            i += 8;
        }
        while i + 4 <= n {
            // SAFETY: 4 lanes in bounds.
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), acc0);
            i += 4;
        }
        let acc = _mm256_add_pd(acc0, acc1);
        let lo = _mm256_castpd256_pd128(acc);
        let hi = _mm256_extractf128_pd(acc, 1);
        let q = _mm_add_pd(lo, hi);
        let q = _mm_add_sd(q, _mm_unpackhi_pd(q, q));
        let mut total = _mm_cvtsd_f64(q);
        while i < n {
            total = x[i].mul_add(y[i], total);
            i += 1;
        }
        total
    }

    fn axpy_f32_avx512(alpha: f32, x: &[f32], y: &mut [f32]) {
        // SAFETY: handed out only after `is_x86_feature_detected!("avx512f")`.
        unsafe { axpy_f32_avx512_impl(alpha, x, y) }
    }

    /// # Safety
    /// CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn axpy_f32_avx512_impl(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len().min(y.len());
        let av = _mm512_set1_ps(alpha);
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        let mut i = 0;
        while i + 16 <= n {
            // SAFETY: 16 lanes in bounds.
            let y0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(xp.add(i)), _mm512_loadu_ps(yp.add(i)));
            _mm512_storeu_ps(yp.add(i), y0);
            i += 16;
        }
        if i < n {
            // SAFETY: masked tail touches only the live low lanes.
            let m = (((1u32 << (n - i)) - 1) & 0xFFFF) as __mmask16;
            let xv = _mm512_maskz_loadu_ps(m, xp.add(i));
            let yv = _mm512_maskz_loadu_ps(m, yp.add(i));
            _mm512_mask_storeu_ps(yp.add(i), m, _mm512_fmadd_ps(av, xv, yv));
        }
    }

    fn dot_f32_avx512(x: &[f32], y: &[f32]) -> f32 {
        // SAFETY: detection-gated as for axpy.
        unsafe { dot_f32_avx512_impl(x, y) }
    }

    /// # Safety
    /// CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn dot_f32_avx512_impl(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len().min(y.len());
        let (xp, yp) = (x.as_ptr(), y.as_ptr());
        let mut acc0 = _mm512_setzero_ps();
        let mut acc1 = _mm512_setzero_ps();
        let mut i = 0;
        while i + 32 <= n {
            // SAFETY: both 16-lane pairs in bounds.
            acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(xp.add(i)), _mm512_loadu_ps(yp.add(i)), acc0);
            acc1 = _mm512_fmadd_ps(
                _mm512_loadu_ps(xp.add(i + 16)),
                _mm512_loadu_ps(yp.add(i + 16)),
                acc1,
            );
            i += 32;
        }
        while i + 16 <= n {
            // SAFETY: 16 lanes in bounds.
            acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(xp.add(i)), _mm512_loadu_ps(yp.add(i)), acc0);
            i += 16;
        }
        if i < n {
            // SAFETY: masked tail touches only the live low lanes.
            let m = (((1u32 << (n - i)) - 1) & 0xFFFF) as __mmask16;
            let xv = _mm512_maskz_loadu_ps(m, xp.add(i));
            let yv = _mm512_maskz_loadu_ps(m, yp.add(i));
            acc1 = _mm512_fmadd_ps(xv, yv, acc1);
        }
        _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1))
    }

    fn axpy_f64_avx512(alpha: f64, x: &[f64], y: &mut [f64]) {
        // SAFETY: detection-gated as for the f32 variant.
        unsafe { axpy_f64_avx512_impl(alpha, x, y) }
    }

    /// # Safety
    /// CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn axpy_f64_avx512_impl(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len().min(y.len());
        let av = _mm512_set1_pd(alpha);
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: 8 lanes in bounds.
            let y0 = _mm512_fmadd_pd(av, _mm512_loadu_pd(xp.add(i)), _mm512_loadu_pd(yp.add(i)));
            _mm512_storeu_pd(yp.add(i), y0);
            i += 8;
        }
        if i < n {
            // SAFETY: masked tail touches only the live low lanes.
            let m = (((1u16 << (n - i)) - 1) & 0xFF) as __mmask8;
            let xv = _mm512_maskz_loadu_pd(m, xp.add(i));
            let yv = _mm512_maskz_loadu_pd(m, yp.add(i));
            _mm512_mask_storeu_pd(yp.add(i), m, _mm512_fmadd_pd(av, xv, yv));
        }
    }

    fn dot_f64_avx512(x: &[f64], y: &[f64]) -> f64 {
        // SAFETY: detection-gated as for axpy.
        unsafe { dot_f64_avx512_impl(x, y) }
    }

    /// # Safety
    /// CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn dot_f64_avx512_impl(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len().min(y.len());
        let (xp, yp) = (x.as_ptr(), y.as_ptr());
        let mut acc0 = _mm512_setzero_pd();
        let mut acc1 = _mm512_setzero_pd();
        let mut i = 0;
        while i + 16 <= n {
            // SAFETY: both 8-lane pairs in bounds.
            acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(xp.add(i)), _mm512_loadu_pd(yp.add(i)), acc0);
            acc1 = _mm512_fmadd_pd(
                _mm512_loadu_pd(xp.add(i + 8)),
                _mm512_loadu_pd(yp.add(i + 8)),
                acc1,
            );
            i += 16;
        }
        while i + 8 <= n {
            // SAFETY: 8 lanes in bounds.
            acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(xp.add(i)), _mm512_loadu_pd(yp.add(i)), acc0);
            i += 8;
        }
        if i < n {
            // SAFETY: masked tail touches only the live low lanes.
            let m = (((1u16 << (n - i)) - 1) & 0xFF) as __mmask8;
            let xv = _mm512_maskz_loadu_pd(m, xp.add(i));
            let yv = _mm512_maskz_loadu_pd(m, yp.add(i));
            acc1 = _mm512_fmadd_pd(xv, yv, acc1);
        }
        _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1))
    }
}

#[cfg(all(feature = "simd", target_arch = "aarch64"))]
mod neon {
    //! NEON axpy/dot (aarch64). Two q-register streams per loop plus a
    //! scalar tail, like the x86 variants.

    use super::Level2Dispatch;
    use core::arch::aarch64::*;

    pub const NEON_F32: Level2Dispatch<f32> = Level2Dispatch {
        name: "neon-f32x4",
        prefetch: true,
        axpy: axpy_f32_neon,
        dot: dot_f32_neon,
    };
    pub const NEON_F64: Level2Dispatch<f64> = Level2Dispatch {
        name: "neon-f64x2",
        prefetch: true,
        axpy: axpy_f64_neon,
        dot: dot_f64_neon,
    };

    fn axpy_f32_neon(alpha: f32, x: &[f32], y: &mut [f32]) {
        // SAFETY: the dispatch hands this kernel out only after the NEON
        // runtime detection reports present.
        unsafe { axpy_f32_neon_impl(alpha, x, y) }
    }

    /// # Safety
    /// CPU must support NEON.
    #[target_feature(enable = "neon")]
    unsafe fn axpy_f32_neon_impl(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len().min(y.len());
        let av = vdupq_n_f32(alpha);
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: both 4-lane pairs in bounds.
            let y0 = vfmaq_f32(vld1q_f32(yp.add(i)), av, vld1q_f32(xp.add(i)));
            let y1 = vfmaq_f32(vld1q_f32(yp.add(i + 4)), av, vld1q_f32(xp.add(i + 4)));
            vst1q_f32(yp.add(i), y0);
            vst1q_f32(yp.add(i + 4), y1);
            i += 8;
        }
        while i < n {
            y[i] = x[i].mul_add(alpha, y[i]);
            i += 1;
        }
    }

    fn dot_f32_neon(x: &[f32], y: &[f32]) -> f32 {
        // SAFETY: detection-gated as for axpy.
        unsafe { dot_f32_neon_impl(x, y) }
    }

    /// # Safety
    /// CPU must support NEON.
    #[target_feature(enable = "neon")]
    unsafe fn dot_f32_neon_impl(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len().min(y.len());
        let (xp, yp) = (x.as_ptr(), y.as_ptr());
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: both 4-lane pairs in bounds.
            acc0 = vfmaq_f32(acc0, vld1q_f32(xp.add(i)), vld1q_f32(yp.add(i)));
            acc1 = vfmaq_f32(acc1, vld1q_f32(xp.add(i + 4)), vld1q_f32(yp.add(i + 4)));
            i += 8;
        }
        let mut total = vaddvq_f32(vaddq_f32(acc0, acc1));
        while i < n {
            total = x[i].mul_add(y[i], total);
            i += 1;
        }
        total
    }

    fn axpy_f64_neon(alpha: f64, x: &[f64], y: &mut [f64]) {
        // SAFETY: detection-gated as for the f32 variant.
        unsafe { axpy_f64_neon_impl(alpha, x, y) }
    }

    /// # Safety
    /// CPU must support NEON.
    #[target_feature(enable = "neon")]
    unsafe fn axpy_f64_neon_impl(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len().min(y.len());
        let av = vdupq_n_f64(alpha);
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: both 2-lane pairs in bounds.
            let y0 = vfmaq_f64(vld1q_f64(yp.add(i)), av, vld1q_f64(xp.add(i)));
            let y1 = vfmaq_f64(vld1q_f64(yp.add(i + 2)), av, vld1q_f64(xp.add(i + 2)));
            vst1q_f64(yp.add(i), y0);
            vst1q_f64(yp.add(i + 2), y1);
            i += 4;
        }
        while i < n {
            y[i] = x[i].mul_add(alpha, y[i]);
            i += 1;
        }
    }

    fn dot_f64_neon(x: &[f64], y: &[f64]) -> f64 {
        // SAFETY: detection-gated as for axpy.
        unsafe { dot_f64_neon_impl(x, y) }
    }

    /// # Safety
    /// CPU must support NEON.
    #[target_feature(enable = "neon")]
    unsafe fn dot_f64_neon_impl(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len().min(y.len());
        let (xp, yp) = (x.as_ptr(), y.as_ptr());
        let mut acc0 = vdupq_n_f64(0.0);
        let mut acc1 = vdupq_n_f64(0.0);
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: both 2-lane pairs in bounds.
            acc0 = vfmaq_f64(acc0, vld1q_f64(xp.add(i)), vld1q_f64(yp.add(i)));
            acc1 = vfmaq_f64(acc1, vld1q_f64(xp.add(i + 2)), vld1q_f64(yp.add(i + 2)));
            i += 4;
        }
        let mut total = vaddvq_f64(vaddq_f64(acc0, acc1));
        while i < n {
            total = x[i].mul_add(y[i], total);
            i += 1;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Awkward lengths: empty, sub-vector, one vector, vector + tail, and
    // lengths crossing every unroll boundary the kernels use.
    const LENS: [usize; 9] = [0, 1, 3, 7, 8, 9, 16, 33, 257];

    #[test]
    fn every_axpy_matches_scalar() {
        for disp in available2_f32() {
            for &n in &LENS {
                let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.5) - 3.0).collect();
                let mut y: Vec<f32> = (0..n).map(|i| (i as f32 * -0.25) + 1.0).collect();
                let mut want = y.clone();
                axpy_scalar(1.5f32, &x, &mut want);
                (disp.axpy)(1.5, &x, &mut y);
                for i in 0..n {
                    assert!(
                        (y[i] - want[i]).abs() <= 1e-4 * want[i].abs().max(1.0),
                        "{} axpy n={n} i={i}: {} vs {}",
                        disp.name,
                        y[i],
                        want[i]
                    );
                }
            }
        }
        for disp in available2_f64() {
            for &n in &LENS {
                let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.5) - 3.0).collect();
                let mut y: Vec<f64> = (0..n).map(|i| (i as f64 * -0.25) + 1.0).collect();
                let mut want = y.clone();
                axpy_scalar(1.5f64, &x, &mut want);
                (disp.axpy)(1.5, &x, &mut y);
                for i in 0..n {
                    assert!(
                        (y[i] - want[i]).abs() <= 1e-12 * want[i].abs().max(1.0),
                        "{} axpy n={n} i={i}",
                        disp.name
                    );
                }
            }
        }
    }

    #[test]
    fn every_dot_matches_scalar() {
        for disp in available2_f32() {
            for &n in &LENS {
                let x: Vec<f32> = (0..n).map(|i| ((i * 7 % 13) as f32) - 6.0).collect();
                let y: Vec<f32> = (0..n).map(|i| ((i * 5 % 11) as f32) - 5.0).collect();
                let want = dot_scalar(&x, &y);
                let got = (disp.dot)(&x, &y);
                let tol = 1e-3 * want.abs().max(1.0);
                assert!(
                    (got - want).abs() <= tol,
                    "{} dot n={n}: {got} vs {want}",
                    disp.name
                );
            }
        }
        for disp in available2_f64() {
            for &n in &LENS {
                let x: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
                let y: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) - 5.0).collect();
                let want = dot_scalar(&x, &y);
                let got = (disp.dot)(&x, &y);
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "{} dot n={n}: {got} vs {want}",
                    disp.name
                );
            }
        }
    }

    #[test]
    fn level2_availability_tracks_level3() {
        // Both families answer to the same KernelChoice machinery, so what
        // this build + CPU can run must agree name-for-name. (No override
        // mutation here: `kernel_choice_override_lifecycle` owns that.)
        let l2: Vec<&str> = available2_f32().iter().map(|d| d.name).collect();
        let l3: Vec<&str> = super::super::available_f32()
            .iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(l2, l3, "f32 Level 2 and Level 3 availability must match");
        let l2: Vec<&str> = available2_f64().iter().map(|d| d.name).collect();
        let l3: Vec<&str> = super::super::available_f64()
            .iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(l2, l3, "f64 Level 2 and Level 3 availability must match");
        assert_eq!(l2[0], "scalar");
        let picked = select2_f64().name;
        assert!(l2.contains(&picked), "selected {picked} must be available");
    }
}

//! Explicit SIMD micro-kernels and the runtime CPU dispatch that selects
//! one.
//!
//! Each kernel computes the same packed-panel tile product as
//! [`scalar_microkernel`] — `C[0..mr, 0..nr] +=
//! alpha * Apanel * Bpanel` — but with hand-placed vector FMAs and a tile
//! geometry chosen for the register file of its instruction set:
//!
//! | kernel          | f32 tile | f64 tile | gate |
//! |-----------------|----------|----------|------|
//! | scalar          | 8 x 8    | 8 x 4    | always built |
//! | AVX2 + FMA      | 16 x 6   | 8 x 6    | `simd` feature (default), x86-64, runtime-detected |
//! | AVX-512F        | 32 x 6   | 16 x 6   | `simd` feature (default), x86-64, runtime-detected |
//! | NEON            | 8 x 12   | 4 x 12   | `simd` feature, aarch64 |
//!
//! One build carries every kernel of its architecture; which one runs is a
//! run-time matter only. Selection happens once per process (cached): the
//! first kernel in the auto-detection order (`resolved_isa`) whose CPU
//! features [`std::arch::is_x86_feature_detected!`] (or the aarch64
//! equivalent) reports present wins, so the binary still runs correctly on
//! a plain SSE2 machine by falling back to the scalar kernel. Auto-detection
//! takes the widest vectors the CPU has: AVX-512 ahead of AVX2, so an
//! AVX2-only host runs the 256-bit kernels. Two escape hatches exist for
//! operations and tests: the `ADSALA_KERNEL` environment variable
//! (`scalar` / `avx2` / `avx512` / `neon`, read once) and
//! [`set_kernel_choice`], both of which fall back to auto-detection when
//! they name a kernel this CPU or build cannot run.
//!
//! All kernels consume the zero-padded panels produced by
//! [`pack`](crate::pack), so vector loads over the full tile are always in
//! bounds; partial edge tiles differ only in write-back, which spills the
//! register accumulators to a stack buffer and stores the live `mr x nr`
//! sub-tile scalar-wise.

use super::{scalar_microkernel, tile_solve, KernelDispatch};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which micro-kernel family to select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum KernelChoice {
    /// Auto-detect: the first kernel of the detection order the CPU supports.
    Auto = 0,
    /// Portable scalar fallback.
    Scalar = 1,
    /// AVX2 + FMA (x86-64).
    Avx2 = 2,
    /// AVX-512F (x86-64; auto-selected ahead of AVX2 where detected).
    Avx512 = 3,
    /// NEON (aarch64).
    Neon = 4,
}

impl KernelChoice {
    /// Parse the `ADSALA_KERNEL` spellings.
    fn from_name(s: &str) -> Option<KernelChoice> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(KernelChoice::Auto),
            "scalar" => Some(KernelChoice::Scalar),
            "avx2" => Some(KernelChoice::Avx2),
            "avx512" => Some(KernelChoice::Avx512),
            "neon" => Some(KernelChoice::Neon),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> KernelChoice {
        match v {
            1 => KernelChoice::Scalar,
            2 => KernelChoice::Avx2,
            3 => KernelChoice::Avx512,
            4 => KernelChoice::Neon,
            _ => KernelChoice::Auto,
        }
    }
}

/// Process-wide override set by [`set_kernel_choice`]; 0 = defer to the
/// `ADSALA_KERNEL` environment variable, then auto-detection.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Force the micro-kernel family used by all subsequent dispatch lookups
/// (an operational kill-switch, and how the parity suite exercises every
/// path through the full routine drivers).
///
/// Returns `false` — and leaves the selection unchanged — when the request
/// names a kernel this build or CPU cannot run. `KernelChoice::Auto`
/// restores detection (always succeeds).
pub fn set_kernel_choice(choice: KernelChoice) -> bool {
    if !choice_available(choice) {
        return false;
    }
    OVERRIDE.store(choice as u8, Ordering::Relaxed);
    true
}

/// Whether this build carries `choice`'s kernels and this CPU runs them.
fn choice_available(choice: KernelChoice) -> bool {
    match choice {
        KernelChoice::Auto | KernelChoice::Scalar => true,
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelChoice::Avx2 => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelChoice::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        KernelChoice::Neon => std::arch::is_aarch64_feature_detected!("neon"),
        _ => false,
    }
}

/// The instruction set every dispatch lookup of both kernel families
/// resolves to: the [`set_kernel_choice`] override, else the
/// `ADSALA_KERNEL` environment variable, else the first available one of the
/// detection order — the whole priority chain, written once. Never names an ISA
/// [`choice_available`] rejects (the override is checked before it is
/// stored), which is what makes handing out its SIMD kernels sound.
pub(super) fn resolved_isa() -> KernelChoice {
    // Miri interprets no vendor intrinsics, so under the interpreter the
    // scalar kernel is the only runnable one — whatever the override, the
    // environment, or CPU detection would otherwise pick.
    if cfg!(miri) {
        return KernelChoice::Scalar;
    }
    match KernelChoice::from_u8(OVERRIDE.load(Ordering::Relaxed)) {
        KernelChoice::Auto => {
            static DETECTED: OnceLock<KernelChoice> = OnceLock::new();
            *DETECTED.get_or_init(|| {
                let env = std::env::var("ADSALA_KERNEL")
                    .ok()
                    .and_then(|v| KernelChoice::from_name(&v));
                // Widest vectors first. The 512-bit tiles outrun the
                // 256-bit ones at every dim measured from 13 to 512 and tie
                // at 8, so no shape calls for AVX2 where AVX-512 runs.
                let detection_order = [
                    KernelChoice::Avx512,
                    KernelChoice::Avx2,
                    KernelChoice::Neon,
                    KernelChoice::Scalar,
                ];
                env.into_iter()
                    .chain(detection_order)
                    .find(|&c| c != KernelChoice::Auto && choice_available(c))
                    .unwrap_or(KernelChoice::Scalar)
            })
        }
        forced => forced,
    }
}

/// Every instruction set this build + CPU can run, in declaration order
/// (scalar first): the list behind each family's `available*` (the parity
/// suites and the kernel benches pit each SIMD path against the scalar
/// reference inside one binary).
pub(super) fn available_isas() -> impl Iterator<Item = KernelChoice> {
    (KernelChoice::Scalar as u8..=KernelChoice::Neon as u8)
        .map(KernelChoice::from_u8)
        .filter(|&c| choice_available(c))
}

/// The scalar fallback dispatches (the seed's geometry, unchanged).
const SCALAR_F32: KernelDispatch<f32> = KernelDispatch::new(
    "scalar",
    8,
    8,
    256,
    256,
    2048,
    false,
    scalar_microkernel::<f32, 8, 8>,
    tile_solve::<f32, 8, 8>,
);
const SCALAR_F64: KernelDispatch<f64> = KernelDispatch::new(
    "scalar",
    8,
    4,
    128,
    256,
    2048,
    false,
    scalar_microkernel::<f64, 8, 4>,
    tile_solve::<f64, 4, 8>,
);

/// Name an instantiation of the portable [`tile_solve`] compiled under an
/// instruction set's `target_feature`: `$nr x $mr` is the tile kernel's
/// register block, so the unrolled solve sits in that ISA's vector
/// registers.
#[cfg(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64")))]
macro_rules! tile_solve_for {
    ($name:ident, $feature:literal, $t:ty, $nr:literal, $mr:literal) => {
        /// # Safety
        /// The CPU must support the named target feature.
        #[target_feature(enable = $feature)]
        unsafe fn $name(upper: bool, rows: usize, tdiag: &[$t], x: &mut [$t]) {
            super::tile_solve::<$t, $nr, $mr>(upper, rows, tdiag, x)
        }
    };
}

/// The `f32` tile kernel of one instruction set. An ISA this build leaves
/// out maps to scalar; [`resolved_isa`] and [`available_isas`] never name
/// one, nor one the CPU lacks.
fn dispatch_f32(isa: KernelChoice) -> KernelDispatch<f32> {
    match isa {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelChoice::Avx2 => x86::AVX2_F32,
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelChoice::Avx512 => x86::AVX512_F32,
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        KernelChoice::Neon => neon::NEON_F32,
        _ => SCALAR_F32,
    }
}

/// [`dispatch_f32`] for `f64`.
fn dispatch_f64(isa: KernelChoice) -> KernelDispatch<f64> {
    match isa {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelChoice::Avx2 => x86::AVX2_F64,
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelChoice::Avx512 => x86::AVX512_F64,
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        KernelChoice::Neon => neon::NEON_F64,
        _ => SCALAR_F64,
    }
}

/// Runtime-selected kernel for `f32` (see the module docs for the override
/// order).
pub fn select_f32() -> KernelDispatch<f32> {
    dispatch_f32(resolved_isa())
}

/// Runtime-selected kernel for `f64`.
pub fn select_f64() -> KernelDispatch<f64> {
    dispatch_f64(resolved_isa())
}

/// Every `f32` kernel this build + CPU can run, scalar first.
pub fn available_f32() -> Vec<KernelDispatch<f32>> {
    available_isas().map(dispatch_f32).collect()
}

/// Every `f64` kernel this build + CPU can run, scalar first.
pub fn available_f64() -> Vec<KernelDispatch<f64>> {
    available_isas().map(dispatch_f64).collect()
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    //! AVX2 and AVX-512 tile products.
    //!
    //! Layout reminder: the A panel stores `kc` column-groups of `MR`
    //! contiguous values, the B panel `kc` row-groups of `NR` values; both
    //! are zero-padded by the packer, so full-width vector loads are always
    //! in bounds even when the live sub-tile is smaller.

    use super::super::KernelDispatch;
    use core::arch::x86_64::*;

    /// Lane mask selecting the low `lanes` of a 16-lane f32 vector.
    #[inline(always)]
    fn mask16(lanes: usize) -> __mmask16 {
        debug_assert!(lanes <= 16);
        (((1u32 << lanes) - 1) & 0xFFFF) as __mmask16
    }

    /// Lane mask selecting the low `lanes` of an 8-lane f64 vector.
    #[inline(always)]
    fn mask8(lanes: usize) -> __mmask8 {
        debug_assert!(lanes <= 8);
        (((1u16 << lanes) - 1) & 0xFF) as __mmask8
    }

    pub const AVX2_F32: KernelDispatch<f32> = KernelDispatch::new(
        "avx2-f32x8",
        16,
        6,
        256,
        256,
        2046,
        true,
        f32_avx2,
        solve_f32_avx2,
    );
    pub const AVX2_F64: KernelDispatch<f64> = KernelDispatch::new(
        "avx2-f64x4",
        8,
        6,
        128,
        256,
        2046,
        true,
        f64_avx2,
        solve_f64_avx2,
    );
    pub const AVX512_F32: KernelDispatch<f32> = KernelDispatch::new(
        "avx512-f32x16",
        32,
        6,
        256,
        256,
        2046,
        true,
        f32_avx512,
        solve_f32_avx512,
    );
    pub const AVX512_F64: KernelDispatch<f64> = KernelDispatch::new(
        "avx512-f64x8",
        16,
        6,
        128,
        256,
        2046,
        true,
        f64_avx512,
        solve_f64_avx512,
    );

    tile_solve_for!(solve_f32_avx2, "avx2,fma", f32, 6, 16);
    tile_solve_for!(solve_f64_avx2, "avx2,fma", f64, 6, 8);
    tile_solve_for!(solve_f32_avx512, "avx512f", f32, 6, 32);
    tile_solve_for!(solve_f64_avx512, "avx512f", f64, 6, 16);

    /// AVX2+FMA f32 16x6 tile: 12 ymm accumulators (two per column), one
    /// broadcast register, two A registers — 15 of the 16 ymm names.
    ///
    /// # Safety
    /// Kernel contract of [`MicroKernelFn`](super::super::MicroKernelFn);
    /// additionally the CPU must support AVX2 and FMA (the dispatch only
    /// hands this kernel out after `is_x86_feature_detected!` confirms
    /// both).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn f32_avx2(
        kc: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: *mut f32,
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        const MR: usize = 16;
        const NR: usize = 6;
        debug_assert!(mr <= MR && nr <= NR);
        debug_assert!(a.len() >= kc * MR && b.len() >= kc * NR);
        let mut acc = [_mm256_setzero_ps(); 2 * NR];
        let mut ap = a.as_ptr();
        let mut bp = b.as_ptr();
        for _ in 0..kc {
            // SAFETY: the packer zero-pads panels to full MR/NR tiles, so
            // each of the kc steps reads one full 16-lane A column and 6
            // B values inside the slices asserted above.
            let a0 = _mm256_loadu_ps(ap);
            let a1 = _mm256_loadu_ps(ap.add(8));
            for j in 0..NR {
                let bv = _mm256_set1_ps(*bp.add(j));
                acc[2 * j] = _mm256_fmadd_ps(a0, bv, acc[2 * j]);
                acc[2 * j + 1] = _mm256_fmadd_ps(a1, bv, acc[2 * j + 1]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let av = _mm256_set1_ps(alpha);
        if mr == MR && nr == NR {
            // Full tile: vector read-modify-write of C, column by column.
            for j in 0..NR {
                // SAFETY: caller guarantees an exclusive MR x NR block at c
                // with stride ldc >= mr, so both 8-lane halves of column j
                // are in bounds.
                let cp = c.add(j * ldc);
                _mm256_storeu_ps(cp, _mm256_fmadd_ps(av, acc[2 * j], _mm256_loadu_ps(cp)));
                let cp1 = cp.add(8);
                _mm256_storeu_ps(
                    cp1,
                    _mm256_fmadd_ps(av, acc[2 * j + 1], _mm256_loadu_ps(cp1)),
                );
            }
        } else {
            // Edge tile: spill accumulators, write back the live sub-tile.
            let mut buf = [0.0f32; MR * NR];
            for j in 0..NR {
                // SAFETY: buf is MR * NR long; j < NR keeps both stores in
                // bounds.
                _mm256_storeu_ps(buf.as_mut_ptr().add(j * MR), acc[2 * j]);
                _mm256_storeu_ps(buf.as_mut_ptr().add(j * MR + 8), acc[2 * j + 1]);
            }
            for j in 0..nr {
                for i in 0..mr {
                    // SAFETY: i < mr, j < nr stay inside the caller's
                    // exclusive mr x nr block with stride ldc.
                    let dst = c.add(i + j * ldc);
                    *dst = alpha.mul_add(buf[i + j * MR], *dst);
                }
            }
        }
    }

    /// AVX2+FMA f64 8x6 tile: 12 ymm accumulators of 4 lanes each.
    ///
    /// # Safety
    /// Kernel contract of [`MicroKernelFn`](super::super::MicroKernelFn);
    /// CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn f64_avx2(
        kc: usize,
        alpha: f64,
        a: &[f64],
        b: &[f64],
        c: *mut f64,
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        const MR: usize = 8;
        const NR: usize = 6;
        debug_assert!(mr <= MR && nr <= NR);
        debug_assert!(a.len() >= kc * MR && b.len() >= kc * NR);
        let mut acc = [_mm256_setzero_pd(); 2 * NR];
        let mut ap = a.as_ptr();
        let mut bp = b.as_ptr();
        for _ in 0..kc {
            // SAFETY: zero-padded packed panels; bounds asserted above.
            let a0 = _mm256_loadu_pd(ap);
            let a1 = _mm256_loadu_pd(ap.add(4));
            for j in 0..NR {
                let bv = _mm256_set1_pd(*bp.add(j));
                acc[2 * j] = _mm256_fmadd_pd(a0, bv, acc[2 * j]);
                acc[2 * j + 1] = _mm256_fmadd_pd(a1, bv, acc[2 * j + 1]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let av = _mm256_set1_pd(alpha);
        if mr == MR && nr == NR {
            for j in 0..NR {
                // SAFETY: full-tile write-back inside the caller's exclusive
                // MR x NR block.
                let cp = c.add(j * ldc);
                _mm256_storeu_pd(cp, _mm256_fmadd_pd(av, acc[2 * j], _mm256_loadu_pd(cp)));
                let cp1 = cp.add(4);
                _mm256_storeu_pd(
                    cp1,
                    _mm256_fmadd_pd(av, acc[2 * j + 1], _mm256_loadu_pd(cp1)),
                );
            }
        } else {
            let mut buf = [0.0f64; MR * NR];
            for j in 0..NR {
                // SAFETY: buf is MR * NR long.
                _mm256_storeu_pd(buf.as_mut_ptr().add(j * MR), acc[2 * j]);
                _mm256_storeu_pd(buf.as_mut_ptr().add(j * MR + 4), acc[2 * j + 1]);
            }
            for j in 0..nr {
                for i in 0..mr {
                    // SAFETY: live sub-tile only.
                    let dst = c.add(i + j * ldc);
                    *dst = alpha.mul_add(buf[i + j * MR], *dst);
                }
            }
        }
    }

    /// AVX-512F f32 32x6 tile: 12 zmm accumulators (two 16-lane halves per
    /// column) out of 32 zmm names.
    ///
    /// # Safety
    /// Kernel contract of [`MicroKernelFn`](super::super::MicroKernelFn);
    /// CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn f32_avx512(
        kc: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: *mut f32,
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        const MR: usize = 32;
        const NR: usize = 6;
        debug_assert!(mr <= MR && nr <= NR);
        debug_assert!(a.len() >= kc * MR && b.len() >= kc * NR);
        let mut acc = [_mm512_setzero_ps(); 2 * NR];
        let mut ap = a.as_ptr();
        let mut bp = b.as_ptr();
        for _ in 0..kc {
            // SAFETY: zero-padded packed panels; bounds asserted above.
            let a0 = _mm512_loadu_ps(ap);
            let a1 = _mm512_loadu_ps(ap.add(16));
            for j in 0..NR {
                let bv = _mm512_set1_ps(*bp.add(j));
                acc[2 * j] = _mm512_fmadd_ps(a0, bv, acc[2 * j]);
                acc[2 * j + 1] = _mm512_fmadd_ps(a1, bv, acc[2 * j + 1]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let av = _mm512_set1_ps(alpha);
        if mr == MR && nr == NR {
            for j in 0..NR {
                // SAFETY: full-tile write-back inside the caller's exclusive
                // MR x NR block.
                let cp = c.add(j * ldc);
                _mm512_storeu_ps(cp, _mm512_fmadd_ps(av, acc[2 * j], _mm512_loadu_ps(cp)));
                let cp1 = cp.add(16);
                _mm512_storeu_ps(
                    cp1,
                    _mm512_fmadd_ps(av, acc[2 * j + 1], _mm512_loadu_ps(cp1)),
                );
            }
        } else {
            // Edge tile: masked read-modify-write of exactly the live
            // mr x nr sub-tile — no scalar spill loop. Lane masks cover
            // the live rows of each 16-lane half; masked loads read only
            // live lanes (no out-of-bounds touch), masked stores write
            // only live lanes.
            let m0 = mask16(mr.min(16));
            let m1 = mask16(mr.saturating_sub(16));
            for j in 0..nr {
                // SAFETY: masked lanes never touch memory; live lanes stay
                // inside the caller's exclusive mr x nr block with stride
                // ldc.
                let cp = c.add(j * ldc);
                let c0 = _mm512_maskz_loadu_ps(m0, cp);
                _mm512_mask_storeu_ps(cp, m0, _mm512_fmadd_ps(av, acc[2 * j], c0));
                if m1 != 0 {
                    let cp1 = cp.add(16);
                    let c1 = _mm512_maskz_loadu_ps(m1, cp1);
                    _mm512_mask_storeu_ps(cp1, m1, _mm512_fmadd_ps(av, acc[2 * j + 1], c1));
                }
            }
        }
    }

    /// AVX-512F f64 16x6 tile.
    ///
    /// # Safety
    /// Kernel contract of [`MicroKernelFn`](super::super::MicroKernelFn);
    /// CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn f64_avx512(
        kc: usize,
        alpha: f64,
        a: &[f64],
        b: &[f64],
        c: *mut f64,
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        const MR: usize = 16;
        const NR: usize = 6;
        debug_assert!(mr <= MR && nr <= NR);
        debug_assert!(a.len() >= kc * MR && b.len() >= kc * NR);
        let mut acc = [_mm512_setzero_pd(); 2 * NR];
        let mut ap = a.as_ptr();
        let mut bp = b.as_ptr();
        for _ in 0..kc {
            // SAFETY: zero-padded packed panels; bounds asserted above.
            let a0 = _mm512_loadu_pd(ap);
            let a1 = _mm512_loadu_pd(ap.add(8));
            for j in 0..NR {
                let bv = _mm512_set1_pd(*bp.add(j));
                acc[2 * j] = _mm512_fmadd_pd(a0, bv, acc[2 * j]);
                acc[2 * j + 1] = _mm512_fmadd_pd(a1, bv, acc[2 * j + 1]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let av = _mm512_set1_pd(alpha);
        if mr == MR && nr == NR {
            for j in 0..NR {
                // SAFETY: full-tile write-back inside the caller's exclusive
                // MR x NR block.
                let cp = c.add(j * ldc);
                _mm512_storeu_pd(cp, _mm512_fmadd_pd(av, acc[2 * j], _mm512_loadu_pd(cp)));
                let cp1 = cp.add(8);
                _mm512_storeu_pd(
                    cp1,
                    _mm512_fmadd_pd(av, acc[2 * j + 1], _mm512_loadu_pd(cp1)),
                );
            }
        } else {
            // Edge tile: masked read-modify-write, as in the f32 kernel.
            let m0 = mask8(mr.min(8));
            let m1 = mask8(mr.saturating_sub(8));
            for j in 0..nr {
                // SAFETY: masked lanes never touch memory; live lanes stay
                // inside the caller's exclusive mr x nr block.
                let cp = c.add(j * ldc);
                let c0 = _mm512_maskz_loadu_pd(m0, cp);
                _mm512_mask_storeu_pd(cp, m0, _mm512_fmadd_pd(av, acc[2 * j], c0));
                if m1 != 0 {
                    let cp1 = cp.add(8);
                    let c1 = _mm512_maskz_loadu_pd(m1, cp1);
                    _mm512_mask_storeu_pd(cp1, m1, _mm512_fmadd_pd(av, acc[2 * j + 1], c1));
                }
            }
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "aarch64"))]
mod neon {
    //! NEON tile products (aarch64). Same structure as the x86 kernels:
    //! full-tile register accumulation over zero-padded panels, vector
    //! write-back for full tiles, stack spill for edges.

    use super::super::KernelDispatch;
    use core::arch::aarch64::*;

    // 8 x 12 / 4 x 12 tiles: 24 accumulator q-registers, two A registers
    // and one broadcast register — 27 of the 32 NEON names, against the 19
    // the seed's 8-column tile used. The wider tile amortises each packed A
    // column over half again as many FMAs, which matters on aarch64 parts
    // whose L1 bandwidth lags their FMA throughput. `nc` drops to 2040
    // (= 12 * 170) so cache blocks tile evenly by `nr`.
    pub const NEON_F32: KernelDispatch<f32> = KernelDispatch::new(
        "neon-f32x4",
        8,
        12,
        256,
        256,
        2040,
        true,
        f32_neon,
        solve_f32_neon,
    );
    pub const NEON_F64: KernelDispatch<f64> = KernelDispatch::new(
        "neon-f64x2",
        4,
        12,
        128,
        256,
        2040,
        true,
        f64_neon,
        solve_f64_neon,
    );

    tile_solve_for!(solve_f32_neon, "neon", f32, 12, 8);
    tile_solve_for!(solve_f64_neon, "neon", f64, 12, 4);

    /// NEON f32 8x12 tile: 24 q-register accumulators (two per column) of
    /// the 32 available.
    ///
    /// # Safety
    /// Kernel contract of [`MicroKernelFn`](super::super::MicroKernelFn);
    /// CPU must support NEON (always true on aarch64, still runtime-checked
    /// by the dispatch).
    #[target_feature(enable = "neon")]
    unsafe fn f32_neon(
        kc: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: *mut f32,
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        const MR: usize = 8;
        const NR: usize = 12;
        debug_assert!(mr <= MR && nr <= NR);
        debug_assert!(a.len() >= kc * MR && b.len() >= kc * NR);
        let mut acc = [vdupq_n_f32(0.0); 2 * NR];
        let mut ap = a.as_ptr();
        let mut bp = b.as_ptr();
        for _ in 0..kc {
            // SAFETY: zero-padded packed panels; bounds asserted above.
            let a0 = vld1q_f32(ap);
            let a1 = vld1q_f32(ap.add(4));
            for j in 0..NR {
                let bv = vdupq_n_f32(*bp.add(j));
                acc[2 * j] = vfmaq_f32(acc[2 * j], a0, bv);
                acc[2 * j + 1] = vfmaq_f32(acc[2 * j + 1], a1, bv);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let av = vdupq_n_f32(alpha);
        if mr == MR && nr == NR {
            for j in 0..NR {
                // SAFETY: full-tile write-back inside the caller's exclusive
                // MR x NR block.
                let cp = c.add(j * ldc);
                vst1q_f32(cp, vfmaq_f32(vld1q_f32(cp), av, acc[2 * j]));
                let cp1 = cp.add(4);
                vst1q_f32(cp1, vfmaq_f32(vld1q_f32(cp1), av, acc[2 * j + 1]));
            }
        } else {
            let mut buf = [0.0f32; MR * NR];
            for j in 0..NR {
                // SAFETY: buf is MR * NR long.
                vst1q_f32(buf.as_mut_ptr().add(j * MR), acc[2 * j]);
                vst1q_f32(buf.as_mut_ptr().add(j * MR + 4), acc[2 * j + 1]);
            }
            for j in 0..nr {
                for i in 0..mr {
                    // SAFETY: live sub-tile only.
                    let dst = c.add(i + j * ldc);
                    *dst = alpha.mul_add(buf[i + j * MR], *dst);
                }
            }
        }
    }

    /// NEON f64 4x12 tile.
    ///
    /// # Safety
    /// Kernel contract of [`MicroKernelFn`](super::super::MicroKernelFn);
    /// CPU must support NEON.
    #[target_feature(enable = "neon")]
    unsafe fn f64_neon(
        kc: usize,
        alpha: f64,
        a: &[f64],
        b: &[f64],
        c: *mut f64,
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        const MR: usize = 4;
        const NR: usize = 12;
        debug_assert!(mr <= MR && nr <= NR);
        debug_assert!(a.len() >= kc * MR && b.len() >= kc * NR);
        let mut acc = [vdupq_n_f64(0.0); 2 * NR];
        let mut ap = a.as_ptr();
        let mut bp = b.as_ptr();
        for _ in 0..kc {
            // SAFETY: zero-padded packed panels; bounds asserted above.
            let a0 = vld1q_f64(ap);
            let a1 = vld1q_f64(ap.add(2));
            for j in 0..NR {
                let bv = vdupq_n_f64(*bp.add(j));
                acc[2 * j] = vfmaq_f64(acc[2 * j], a0, bv);
                acc[2 * j + 1] = vfmaq_f64(acc[2 * j + 1], a1, bv);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let av = vdupq_n_f64(alpha);
        if mr == MR && nr == NR {
            for j in 0..NR {
                // SAFETY: full-tile write-back inside the caller's exclusive
                // MR x NR block.
                let cp = c.add(j * ldc);
                vst1q_f64(cp, vfmaq_f64(vld1q_f64(cp), av, acc[2 * j]));
                let cp1 = cp.add(2);
                vst1q_f64(cp1, vfmaq_f64(vld1q_f64(cp1), av, acc[2 * j + 1]));
            }
        } else {
            let mut buf = [0.0f64; MR * NR];
            for j in 0..NR {
                // SAFETY: buf is MR * NR long.
                vst1q_f64(buf.as_mut_ptr().add(j * MR), acc[2 * j]);
                vst1q_f64(buf.as_mut_ptr().add(j * MR + 2), acc[2 * j + 1]);
            }
            for j in 0..nr {
                for i in 0..mr {
                    // SAFETY: live sub-tile only.
                    let dst = c.add(i + j * ldc);
                    *dst = alpha.mul_add(buf[i + j * MR], *dst);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available_and_first() {
        let f32s = available_f32();
        let f64s = available_f64();
        assert_eq!(f32s[0].name, "scalar");
        assert_eq!(f64s[0].name, "scalar");
    }

    // One test owns every mutation of the process-wide override: the test
    // harness runs #[test] fns concurrently and a second mutator would race.
    #[test]
    fn kernel_choice_override_lifecycle() {
        // Forcing scalar takes effect for both precisions.
        assert!(set_kernel_choice(KernelChoice::Scalar));
        assert_eq!(super::select_f32().name, "scalar");
        assert_eq!(super::select_f64().name, "scalar");
        // A kernel this build can never run is rejected and leaves the
        // selection untouched (NEON on x86 and vice versa).
        #[cfg(target_arch = "x86_64")]
        assert!(!set_kernel_choice(KernelChoice::Neon));
        #[cfg(target_arch = "aarch64")]
        assert!(!set_kernel_choice(KernelChoice::Avx2));
        assert_eq!(super::select_f64().name, "scalar");
        // Auto restores detection.
        assert!(set_kernel_choice(KernelChoice::Auto));
        let auto = super::select_f32().name;
        assert!(available_f32().iter().any(|k| k.name == auto));
        // With no `ADSALA_KERNEL` in the way, Auto is the widest x86 ISA the
        // CPU has, for the tile and the Level 2 kernels alike.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if std::env::var_os("ADSALA_KERNEL").is_none() {
            let expect = if std::arch::is_x86_feature_detected!("avx512f") {
                Some("avx512-f64x8")
            } else if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                Some("avx2-f64x4")
            } else {
                None
            };
            if let Some(name) = expect {
                assert_eq!(super::select_f64().name, name);
                assert_eq!(super::super::level2::select2_f64().name, name);
            }
        }
    }
}

//! Register-blocked micro-kernels, the serial macro-kernel ("Goto" loops),
//! and the team-cooperative macro-kernel the parallel drivers are built on.
//!
//! A micro-kernel multiplies one packed `MR x kc` A panel by one packed
//! `kc x NR` B panel and adds the `alpha`-scaled product into C. Which
//! micro-kernel runs — and therefore what `MR`/`NR` the packing and blocking
//! use — is decided at runtime by the [`KernelDispatch`] seam: the
//! [`simd`] module probes the CPU once (`is_x86_feature_detected!`-style)
//! and hands back either an explicit SIMD kernel (AVX2, feature-gated
//! AVX-512, NEON) or the portable [`scalar_microkernel`] fallback, so one
//! binary runs correctly on any CPU.
//!
//! The tile geometry (`mr`, `nr`), the cache-blocking parameters (`mc`,
//! `kc`, `nc`), and whether the macro-kernel issues software prefetches are
//! properties of the **selected kernel**, not of the scalar type.
//! Everything downstream — [`pack`](crate::pack), the macro-kernels below,
//! and the routine drivers built on them — reads the geometry from the
//! dispatch instead of from `Float` constants.
//!
//! One execution engine sits on the packing and micro-kernel layers:
//! [`gemm_cooperative`], the BLIS-style five-loop blocked algorithm run by
//! a team. Every member of a [`TeamCtx`] walks the same `jc/pc/ic` block
//! schedule, jointly packs **one shared** B panel and **one shared** A
//! block per iteration (split by panel, published by a barrier), then
//! splits the flattened register-tile loop over the packed block. Shared
//! operands are packed once per block — not once per worker — and the tile
//! split (`(nc/nr)*(mc/mr)` units) stays load-balanced at thread counts
//! where splitting C into per-worker chunks would leave workers idle.
//!
//! [`gemm_serial_with`] is that engine on a team of one (its barriers
//! return at once), with packing buffers drawn from the reuse [`arena`]
//! (steady-state calls allocate nothing).

pub mod level2;
pub mod simd;

use crate::arena;
use crate::pack::{pack_a_panels, pack_b_panels, packed_a_len, packed_b_len, PackSrc};
use crate::pool::{SendPtr, TeamCtx};
use crate::Float;

pub use simd::{available_f32, available_f64, set_kernel_choice, KernelChoice};

/// Entry-point type shared by every micro-kernel.
///
/// `a` is an `MR x kc` packed panel (column-contiguous groups of `MR`
/// values, zero-padded), `b` a `kc x NR` packed panel (row-contiguous
/// groups of `NR`); `mr <= MR` and `nr <= NR` bound the live sub-tile
/// written back to `c`, where `MR`/`NR` are the *kernel's* full tile shape
/// ([`KernelDispatch::mr`]/[`KernelDispatch::nr`]).
///
/// # Safety
/// `c` must point to an `mr x nr` block with leading dimension `ldc`, valid
/// for reads and writes, not aliased by any concurrent access; the packed
/// panels must hold at least `kc` full tiles; for SIMD kernels the CPU must
/// support the instruction set the kernel was compiled for (guaranteed when
/// the kernel was obtained through the [`simd`] runtime dispatch).
pub type MicroKernelFn<T> =
    unsafe fn(kc: usize, alpha: T, a: &[T], b: &[T], c: *mut T, ldc: usize, mr: usize, nr: usize);

/// The selected micro-kernel for one scalar type: an entry point plus the
/// tile geometry and cache blocking every downstream layer must use with it.
///
/// This is the seam between the ISA-specific code in [`simd`] and the
/// ISA-agnostic macro-kernel/packing/drivers: callers obtain one via
/// [`Float::kernel`] (runtime CPU detection, overridable with
/// [`set_kernel_choice`] or the `ADSALA_KERNEL` environment variable) and
/// thread it through [`gemm_serial_with`] / [`gemm_cooperative`].
#[derive(Debug, Clone, Copy)]
pub struct KernelDispatch<T: Float> {
    /// Human-readable kernel name (`"scalar"`, `"avx2-f32x8"`, ...).
    pub name: &'static str,
    /// Register-block rows of the full tile.
    pub mr: usize,
    /// Register-block columns of the full tile.
    pub nr: usize,
    /// Cache-block size along `m` (rows of the packed A block).
    pub mc: usize,
    /// Cache-block size along `k` (depth of the packed panels).
    pub kc: usize,
    /// Cache-block size along `n` (columns of the packed B block).
    pub nc: usize,
    /// Whether the macro-kernel should software-prefetch upcoming packed
    /// panels for this kernel (SIMD kernels stream panels fast enough for
    /// the hardware prefetcher to fall behind; the scalar kernel does not).
    pub prefetch: bool,
    kernel: MicroKernelFn<T>,
}

impl<T: Float> KernelDispatch<T> {
    /// Describe a micro-kernel.
    ///
    /// # Panics
    /// If `mc` is not a (non-zero) multiple of `mr`: packed A blocks must
    /// tile evenly in the common interior case, or every cache block would
    /// silently pay a partial edge panel. Compile-time for `const`
    /// dispatches.
    pub const fn new(
        name: &'static str,
        mr: usize,
        nr: usize,
        mc: usize,
        kc: usize,
        nc: usize,
        prefetch: bool,
        kernel: MicroKernelFn<T>,
    ) -> KernelDispatch<T> {
        assert!(
            mr > 0 && mc > 0 && mc.is_multiple_of(mr),
            "cache block mc must be a multiple of the register block mr"
        );
        KernelDispatch {
            name,
            mr,
            nr,
            mc,
            kc,
            nc,
            prefetch,
            kernel,
        }
    }

    /// Run the micro-kernel: `C[0..mr, 0..nr] += alpha * Apanel * Bpanel`.
    ///
    /// # Safety
    /// As for [`MicroKernelFn`]: `c` must point to an exclusive `mr x nr`
    /// block with leading dimension `ldc`; `a`/`b` must be packed panels of
    /// at least `kc` tiles of this kernel's geometry; and the kernel's
    /// instruction set must be supported (always true for dispatches
    /// returned by [`Float::kernel`] / [`simd`] selection).
    #[inline]
    pub unsafe fn run(
        &self,
        kc: usize,
        alpha: T,
        a: &[T],
        b: &[T],
        c: *mut T,
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        debug_assert!(
            mr <= self.mr && nr <= self.nr,
            "live sub-tile exceeds register block"
        );
        debug_assert!(
            a.len() >= kc * self.mr && b.len() >= kc * self.nr,
            "packed panels shorter than kc tiles"
        );
        debug_assert!(
            nr <= 1 || ldc >= mr,
            "multi-column write-back requires ldc {ldc} >= mr {mr}"
        );
        (self.kernel)(kc, alpha, a, b, c, ldc, mr, nr)
    }
}

/// Upper bound on `MR * NR` for the scalar kernel's stack accumulator.
const MAX_ACC: usize = 64;

/// Portable micro-kernel: `C[0..mr, 0..nr] += alpha * Apanel * Bpanel`.
///
/// `MR`/`NR` are the packed-panel tile shape (compile-time so LLVM unrolls
/// the accumulation loops); `mr <= MR` and `nr <= NR` bound the live
/// sub-tile written back. This is the fallback every [`simd`] dispatch
/// guarantees is available, and the reference the SIMD kernels are tested
/// against.
///
/// # Safety
/// `c` must point to an `mr x nr` block with leading dimension `ldc`, valid
/// for reads and writes, not aliased by any concurrent access.
#[inline]
pub unsafe fn scalar_microkernel<T: Float, const MR: usize, const NR: usize>(
    kc: usize,
    alpha: T,
    a: &[T],
    b: &[T],
    c: *mut T,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    debug_assert!(mr <= MR && nr <= NR, "live sub-tile exceeds register block");
    debug_assert!(
        a.len() >= kc * MR && b.len() >= kc * NR,
        "packed panels shorter than kc tiles"
    );
    debug_assert!(MR * NR <= MAX_ACC, "accumulator tile overflows scratch");
    debug_assert!(
        nr <= 1 || ldc >= mr,
        "multi-column write-back requires ldc {ldc} >= mr {mr}"
    );
    let mut acc = [T::ZERO; MAX_ACC];
    // Accumulate over the full padded tile: padding lanes are zero, so they
    // contribute nothing but keep the trip counts compile-time constants.
    for p in 0..kc {
        let ap = &a[p * MR..p * MR + MR];
        let bp = &b[p * NR..p * NR + NR];
        for (j, &bv) in bp.iter().enumerate() {
            let row = &mut acc[j * MR..(j + 1) * MR];
            for (i, &av) in ap.iter().enumerate() {
                row[i] = av.mul_add(bv, row[i]);
            }
        }
    }
    // Write back only the live sub-tile.
    for j in 0..nr {
        for i in 0..mr {
            // SAFETY: i < mr and j < nr, so `i + j * ldc` stays inside the
            // caller-guaranteed exclusive `mr x nr` block with stride `ldc`
            // (`ldc >= mr` asserted above whenever nr > 1).
            let dst = c.add(i + j * ldc);
            *dst = alpha.mul_add(acc[i + j * MR], *dst);
        }
    }
}

/// Software-prefetch `lines` cache lines starting at `ptr` into L1.
///
/// A hint only: prefetching never faults, so any address is acceptable;
/// no-op on architectures without a stable prefetch intrinsic.
#[inline(always)]
pub(crate) fn prefetch_read<T>(ptr: *const T, lines: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is an architectural hint and cannot fault, even on
    // unmapped addresses; wrapping_add keeps the pointer arithmetic defined
    // when the prefetch window runs past the end of a short panel.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let p = ptr as *const i8;
        for l in 0..lines {
            _mm_prefetch(p.wrapping_add(l * 64), _MM_HINT_T0);
        }
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: `prfm pldl1keep` is likewise a non-faulting hint; the operand
    // is only an address, never dereferenced architecturally.
    unsafe {
        let p = ptr as *const i8;
        for l in 0..lines {
            core::arch::asm!(
                "prfm pldl1keep, [{addr}]",
                addr = in(reg) p.wrapping_add(l * 64),
                options(nostack, preserves_flags, readonly)
            );
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = (ptr, lines);
    }
}

/// How many cache lines of the *next* packed panel to pull while the
/// current micro-kernel runs. One micro-kernel call streams `kc` tiles —
/// plenty of time to hide a few line fills.
const PREFETCH_LINES: usize = 4;

/// Run the macro-kernel over a packed block pair: for every register tile
/// in the **flattened** `(jp, ip)` tile range `tile_lo..tile_hi` — tile
/// `t` is B micro-panel `t / a_panels`, A micro-panel `t % a_panels` —
/// invoke the micro-kernel on the corresponding C tile. `c` is the base of
/// the `mc x nc` output block.
///
/// The flattened tile range is the cooperative split unit: every tile
/// writes a disjoint `mr x nr` block of C, so a team can partition
/// `0..a_panels * b_panels` freely. Splitting tiles (not just B panels)
/// keeps narrow outputs parallel: a tall-skinny product with a single B
/// micro-panel still spreads its many A panels across the team.
///
/// # Safety
/// `abuf`/`bbuf` must be fully packed blocks of `disp`'s geometry
/// (`mc x kc` and `kc x nc`); `c` must point to an `mc x nc` block with
/// leading dimension `ldc >= mc` whose tiles `tile_lo..tile_hi` this
/// caller owns exclusively; `disp` must be runnable on this CPU.
#[allow(clippy::too_many_arguments)]
pub unsafe fn macro_kernel<T: Float>(
    disp: &KernelDispatch<T>,
    kc: usize,
    alpha: T,
    abuf: &[T],
    bbuf: &[T],
    mc: usize,
    nc: usize,
    tile_lo: usize,
    tile_hi: usize,
    c: *mut T,
    ldc: usize,
) {
    let mr = disp.mr;
    let nr = disp.nr;
    let a_panels = mc.div_ceil(mr);
    debug_assert!(tile_hi <= a_panels * nc.div_ceil(nr));
    for t in tile_lo..tile_hi {
        let jp = t / a_panels;
        let ip = t % a_panels;
        let j0 = jp * nr;
        let i0 = ip * mr;
        let nr_eff = nr.min(nc - j0);
        let mr_eff = mr.min(mc - i0);
        let bp = &bbuf[jp * nr * kc..(jp + 1) * nr * kc];
        let ap = &abuf[ip * mr * kc..(ip + 1) * mr * kc];
        if disp.prefetch && t + 1 < tile_hi {
            // Warm the next tile's panels while this one computes: its A
            // panel always changes; its B panel only when jp advances.
            let nip = (t + 1) % a_panels;
            prefetch_read(abuf.as_ptr().add(nip * mr * kc), PREFETCH_LINES);
            if nip == 0 {
                prefetch_read(bbuf.as_ptr().add((jp + 1) * nr * kc), PREFETCH_LINES);
            }
        }
        // SAFETY: the tile anchor lies inside the caller's exclusive
        // mc x nc block and the micro-kernel writes only the
        // mr_eff x nr_eff live sub-tile at that anchor with stride ldc.
        let cptr = c.add(i0 + j0 * ldc);
        disp.run(kc, alpha, ap, bp, cptr, ldc, mr_eff, nr_eff);
    }
}

/// Serial blocked GEMM through the runtime-selected micro-kernel:
/// `C[0..m, 0..n] += alpha * A * B` where A and B are [`PackSrc`] operand
/// descriptors (`a(i, p)`, `b(p, j)` indexing); `C` is raw column-major
/// storage with leading dimension `ldc`.
///
/// Accumulates (no beta handling — callers pre-scale C), which is what lets
/// SYMM/SYR2K/TRMM layer multiple products onto one output.
///
/// # Safety
/// `c` must point to an `m x n` column-major block (leading dimension `ldc`)
/// that no other thread accesses during the call; strided operands must
/// cover the `m x k` / `k x n` extents.
pub unsafe fn gemm_serial<T: Float>(
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &PackSrc<'_, T>,
    b: &PackSrc<'_, T>,
    c: *mut T,
    ldc: usize,
) {
    gemm_serial_with(&T::kernel(), m, n, k, alpha, a, b, c, ldc)
}

/// [`gemm_serial`] with an explicit kernel dispatch: [`gemm_cooperative`]
/// on a team of one, so the `jc/pc/ic` block schedule exists once.
///
/// Drivers that issue serial products (the rank-k diagonal tiles, and the
/// parity/bench harnesses that pin a specific kernel) resolve the dispatch
/// once and pass it here; the two packing buffers come from the calling
/// thread's [`arena`] (zero allocations once warm).
///
/// # Safety
/// As for [`gemm_serial`]; additionally `disp` must be runnable on this CPU
/// (always true for dispatches from [`Float::kernel`] or the [`simd`]
/// availability listings).
#[allow(clippy::too_many_arguments)]
pub unsafe fn gemm_serial_with<T: Float>(
    disp: &KernelDispatch<T>,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &PackSrc<'_, T>,
    b: &PackSrc<'_, T>,
    c: *mut T,
    ldc: usize,
) {
    let (alen, blen) = shared_pack_lens(disp, m, n, k);
    let mut abuf = arena::take::<T>(alen);
    let mut bbuf = arena::take::<T>(blen);
    let shared = SharedPack::new(&mut abuf, &mut bbuf);
    TeamCtx::solo(|team| {
        // SAFETY: the caller's contract is gemm_cooperative's, with this
        // thread as the whole team; the buffers above are sized by
        // shared_pack_lens and outlive the call.
        unsafe { gemm_cooperative(disp, &team, m, n, k, alpha, a, b, c, ldc, &shared) }
    });
}

/// Shared packed-panel storage for one cooperative product: raw views over
/// two caller-owned arena buffers ([`shared_pack_lens`] gives the sizes).
///
/// The caller (the thread that enters
/// [`ThreadPool::run_team`](crate::pool::ThreadPool::run_team)) takes the
/// buffers from *its* arena, builds this descriptor, and keeps the buffers
/// alive for the whole team region; inside, every member packs a disjoint
/// panel range and reads the whole block after the barrier.
#[derive(Clone, Copy)]
pub struct SharedPack<T> {
    abuf: SendPtr<T>,
    alen: usize,
    bbuf: SendPtr<T>,
    blen: usize,
}

// SAFETY: the raw buffer pointers are shared across the team by design;
// the cooperative engine writes disjoint panel ranges between barriers.
unsafe impl<T> Sync for SharedPack<T> {}

impl<T: Float> SharedPack<T> {
    /// Describe two caller-owned buffers as the team's shared packing
    /// space. `abuf`/`bbuf` must stay alive (and otherwise untouched) for
    /// as long as any team member may use this descriptor.
    pub fn new(abuf: &mut arena::PackBuf<T>, bbuf: &mut arena::PackBuf<T>) -> SharedPack<T> {
        SharedPack {
            alen: abuf.len(),
            abuf: SendPtr(abuf.as_mut_ptr()),
            blen: bbuf.len(),
            bbuf: SendPtr(bbuf.as_mut_ptr()),
        }
    }
}

/// Buffer lengths (`a`, `b`) a [`SharedPack`] needs for an `m x n x k`
/// cooperative product under `disp`.
pub fn shared_pack_lens<T: Float>(
    disp: &KernelDispatch<T>,
    m: usize,
    n: usize,
    k: usize,
) -> (usize, usize) {
    let kc = disp.kc.min(k.max(1));
    (
        packed_a_len(disp.mr, disp.mc.min(m.max(1)), kc),
        packed_b_len(disp.nr, kc, disp.nc.min(n.max(1))),
    )
}

/// Team-cooperative blocked GEMM: `C[0..m, 0..n] += alpha * A * B`.
///
/// **Every member of the team must call this with identical arguments**
/// (only `team.tid` differs): all members walk the same `jc/pc/ic` block
/// schedule and rendezvous inside. Per `(jc, pc)` iteration the team packs
/// one shared B panel (split by micro-panel), and per `ic` block one shared
/// A block; barriers publish each pack before anyone consumes it and fence
/// consumption before the next iteration overwrites the buffers. The
/// macro-kernel's flattened `(jp, ip)` tile loop is then split across
/// members — `(nc/nr)*(mc/mr)` units, so the split stays balanced even
/// for narrow or short outputs.
///
/// Accumulates like [`gemm_serial_with`] (callers pre-scale C by `beta`,
/// inside the same team region, barrier-separated). Returns with a trailing
/// barrier: on exit all of C's contribution is visible to every member.
///
/// # Safety
/// `c` must point to an `m x n` column-major block (leading dimension
/// `ldc`) that nothing outside this team touches during the call; `shared`
/// must describe live buffers of at least [`shared_pack_lens`] elements
/// not used for anything else during the call; operand descriptors must
/// cover the `m x k` / `k x n` extents; `disp` must be runnable on this
/// CPU. All members must pass identical `disp`/shape/operand/`shared`
/// arguments.
#[allow(clippy::too_many_arguments)]
pub unsafe fn gemm_cooperative<T: Float>(
    disp: &KernelDispatch<T>,
    team: &TeamCtx<'_>,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &PackSrc<'_, T>,
    b: &PackSrc<'_, T>,
    c: *mut T,
    ldc: usize,
    shared: &SharedPack<T>,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    debug_assert!(
        n <= 1 || ldc >= m,
        "an m x n block with n > 1 requires ldc {ldc} >= m {m}"
    );
    let (need_a, need_b) = shared_pack_lens(disp, m, n, k);
    assert!(
        shared.alen >= need_a && shared.blen >= need_b,
        "shared pack buffers too small: have ({}, {}), need ({need_a}, {need_b})",
        shared.alen,
        shared.blen
    );
    let mr = disp.mr;
    let nr = disp.nr;
    let mut jc = 0;
    while jc < n {
        let ncb = disp.nc.min(n - jc);
        let b_panels = ncb.div_ceil(nr);
        let mut pc = 0;
        while pc < k {
            let kcb = disp.kc.min(k - pc);
            // Cooperative B pack: each member fills a disjoint panel range
            // of the shared buffer through its own sub-slice.
            let (bp_lo, bp_hi) = team.chunk(b_panels);
            if bp_lo < bp_hi {
                // SAFETY: panel ranges are disjoint across members, so the
                // mutable sub-slices never alias; extents checked above.
                let my = std::slice::from_raw_parts_mut(
                    shared.bbuf.get().add(bp_lo * nr * kcb),
                    (bp_hi - bp_lo) * nr * kcb,
                );
                pack_b_panels(nr, kcb, ncb, b, pc, jc, bp_lo, bp_hi, my);
            }
            // Publish the packed B panel to the whole team.
            team.barrier();
            // SAFETY: after the barrier the packed B block is immutable
            // until the next iteration's barrier; shared read-only view.
            let bbuf = std::slice::from_raw_parts(shared.bbuf.get(), b_panels * nr * kcb);
            let mut ic = 0;
            while ic < m {
                let mcb = disp.mc.min(m - ic);
                let a_panels = mcb.div_ceil(mr);
                let (ap_lo, ap_hi) = team.chunk(a_panels);
                if ap_lo < ap_hi {
                    // SAFETY: disjoint panel ranges as for B above.
                    let my = std::slice::from_raw_parts_mut(
                        shared.abuf.get().add(ap_lo * mr * kcb),
                        (ap_hi - ap_lo) * mr * kcb,
                    );
                    pack_a_panels(mr, mcb, kcb, a, ic, pc, ap_lo, ap_hi, my);
                }
                // Publish the packed A block.
                team.barrier();
                // SAFETY: immutable until the post-consumption barrier.
                let abuf = std::slice::from_raw_parts(shared.abuf.get(), a_panels * mr * kcb);
                // Split the flattened (jp, ip) tile space: disjoint mr x nr
                // C tiles per member, and still balanced when the output is
                // narrow (b_panels == 1 but many A panels) or short.
                let (t_lo, t_hi) = team.chunk(a_panels * b_panels);
                if t_lo < t_hi {
                    // SAFETY: members write disjoint tile ranges of the
                    // team-exclusive C block; panels fully packed.
                    macro_kernel(
                        disp,
                        kcb,
                        alpha,
                        abuf,
                        bbuf,
                        mcb,
                        ncb,
                        t_lo,
                        t_hi,
                        c.add(ic + jc * ldc),
                        ldc,
                    );
                }
                // Everyone must finish consuming the A block (and, on the
                // last ic, the B panel) before the next pack overwrites it.
                team.barrier();
                ic += mcb;
            }
            pc += kcb;
        }
        jc += ncb;
    }
}

/// Scale a column-major `m x n` block in place: `C *= beta`.
///
/// `beta == 1` is a no-op; `beta == 0` stores zeros (clearing NaNs/Infs, per
/// BLAS convention).
///
/// # Safety
/// `c` must point to an exclusive `m x n` block with leading dimension `ldc`.
pub unsafe fn scale_block<T: Float>(m: usize, n: usize, beta: T, c: *mut T, ldc: usize) {
    if beta == T::ONE {
        return;
    }
    debug_assert!(
        n <= 1 || ldc >= m,
        "an m x n block with n > 1 requires ldc {ldc} >= m {m}"
    );
    for j in 0..n {
        // SAFETY: j < n keeps the column anchor inside the caller-guaranteed
        // exclusive m x n block; i < m keeps each element inside its column
        // (columns are ldc >= m apart, asserted above).
        let col = c.add(j * ldc);
        if beta == T::ZERO {
            for i in 0..m {
                *col.add(i) = T::ZERO;
            }
        } else {
            for i in 0..m {
                let v = col.add(i);
                *v *= beta;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::pool::ThreadPool;

    fn naive(m: usize, n: usize, k: usize, a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
        Matrix::from_fn(m, n, |i, j| (0..k).map(|p| a.get(i, p) * b.get(p, j)).sum())
    }

    #[test]
    fn gemm_serial_matches_naive_various_shapes() {
        for (m, n, k) in [
            (1, 1, 1),
            (3, 5, 7),
            (8, 8, 8),
            (17, 13, 9),
            (64, 33, 40),
            (5, 260, 300),
        ] {
            let a = Matrix::<f64>::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
            let b = Matrix::<f64>::from_fn(k, n, |i, j| ((i * 5 + j * 2) % 13) as f64 - 6.0);
            let mut c = Matrix::<f64>::zeros(m, n);
            let expect = naive(m, n, k, &a, &b);
            unsafe {
                gemm_serial(
                    m,
                    n,
                    k,
                    1.0,
                    &PackSrc::strided(a.as_slice(), 0, 1, m, m, k),
                    &PackSrc::strided(b.as_slice(), 0, 1, k, k, n),
                    c.as_mut_slice().as_mut_ptr(),
                    m,
                );
            }
            assert!(c.max_abs_diff(&expect) < 1e-9, "shape {m}x{n}x{k}");
        }
    }

    #[test]
    fn gemm_serial_accumulates_with_alpha() {
        let m = 4;
        let a = Matrix::<f64>::identity(m);
        let mut c = Matrix::<f64>::filled(m, m, 2.0);
        unsafe {
            gemm_serial(
                m,
                m,
                m,
                3.0,
                &PackSrc::strided(a.as_slice(), 0, 1, m, m, m),
                &PackSrc::strided(a.as_slice(), 0, 1, m, m, m),
                c.as_mut_slice().as_mut_ptr(),
                m,
            );
        }
        // C = 2 + 3*I
        for i in 0..m {
            for j in 0..m {
                let expect = if i == j { 5.0 } else { 2.0 };
                assert_eq!(c.get(i, j), expect);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn gemm_cooperative_matches_serial_bitwise() {
        // The cooperative engine walks the same block schedule with the
        // same micro-kernel per tile as the serial engine — the split only
        // changes *who* computes a tile — so results are bitwise equal at
        // every team size.
        let (m, n, k) = (83, 131, 97);
        let a = Matrix::<f64>::from_fn(m, k, |i, j| ((i * 13 + j * 7) % 17) as f64 - 8.0);
        let b = Matrix::<f64>::from_fn(k, n, |i, j| ((i * 3 + j * 11) % 19) as f64 - 9.0);
        let disp = f64::kernel();
        let mut serial = Matrix::<f64>::zeros(m, n);
        unsafe {
            gemm_serial_with(
                &disp,
                m,
                n,
                k,
                1.0,
                &PackSrc::strided(a.as_slice(), 0, 1, m, m, k),
                &PackSrc::strided(b.as_slice(), 0, 1, k, k, n),
                serial.as_mut_slice().as_mut_ptr(),
                m,
            );
        }
        let pool = ThreadPool::with_max_workers(8);
        for nt in [1usize, 2, 3, 5] {
            let mut c = Matrix::<f64>::zeros(m, n);
            let (alen, blen) = shared_pack_lens(&disp, m, n, k);
            let mut abuf = arena::take::<f64>(alen);
            let mut bbuf = arena::take::<f64>(blen);
            let shared = SharedPack::new(&mut abuf, &mut bbuf);
            let cptr = SendPtr(c.as_mut_slice().as_mut_ptr());
            let asrc = PackSrc::strided(a.as_slice(), 0, 1, m, m, k);
            let bsrc = PackSrc::strided(b.as_slice(), 0, 1, k, k, n);
            pool.run_team(nt, |team| {
                // SAFETY: C is exclusive to this team; shared bufs live on
                // this stack frame for the whole region.
                unsafe {
                    gemm_cooperative(
                        &disp,
                        &team,
                        m,
                        n,
                        k,
                        1.0,
                        &asrc,
                        &bsrc,
                        cptr.get(),
                        m,
                        &shared,
                    );
                }
            });
            assert_eq!(
                c.as_slice(),
                serial.as_slice(),
                "cooperative nt={nt} diverged from serial"
            );
        }
    }

    #[test]
    fn scale_block_beta_zero_clears_nan() {
        let mut c = vec![f64::NAN; 6];
        unsafe { scale_block(2, 3, 0.0, c.as_mut_ptr(), 2) };
        assert!(c.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn scale_block_respects_ld() {
        // 2x2 block inside 3-row storage; third row untouched.
        let mut c = vec![1.0f64; 6];
        unsafe { scale_block(2, 2, 2.0, c.as_mut_ptr(), 3) };
        assert_eq!(c, vec![2.0, 2.0, 1.0, 2.0, 2.0, 1.0]);
    }

    #[test]
    fn scalar_microkernel_edge_tile() {
        // mr=3, nr=2 edge within an 8x8 tile.
        const MR: usize = 8;
        const NR: usize = 8;
        let kc = 5;
        let mut a = vec![0.0f32; MR * kc];
        let mut b = vec![0.0f32; NR * kc];
        for p in 0..kc {
            for i in 0..3 {
                a[p * MR + i] = (i + p) as f32;
            }
            for j in 0..2 {
                b[p * NR + j] = (j * 2 + p) as f32;
            }
        }
        let mut c = vec![0.0f32; 6];
        unsafe { scalar_microkernel::<f32, MR, NR>(kc, 1.0f32, &a, &b, c.as_mut_ptr(), 3, 3, 2) };
        for i in 0..3 {
            for j in 0..2 {
                let expect: f32 = (0..kc).map(|p| ((i + p) * (j * 2 + p)) as f32).sum();
                assert_eq!(c[i + j * 3], expect);
            }
        }
    }

    #[test]
    fn dispatch_geometry_is_consistent() {
        for disp in available_f32() {
            assert!(disp.mr > 0 && disp.nr > 0, "{}", disp.name);
            assert_eq!(disp.mc % disp.mr, 0, "{}: mc must tile by mr", disp.name);
        }
        for disp in available_f64() {
            assert!(disp.mr > 0 && disp.nr > 0, "{}", disp.name);
            assert_eq!(disp.mc % disp.mr, 0, "{}: mc must tile by mr", disp.name);
        }
    }
}

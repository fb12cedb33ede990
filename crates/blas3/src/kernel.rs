//! Register-blocked micro-kernels, the serial macro-kernel ("Goto" loops),
//! and the team-cooperative macro-kernel the parallel drivers are built on.
//!
//! A micro-kernel multiplies one packed `MR x kc` A panel by one packed
//! `kc x NR` B panel and adds the `alpha`-scaled product into C. Which
//! micro-kernel runs — and therefore what `MR`/`NR` the packing and blocking
//! use — is decided at runtime by the [`KernelDispatch`] seam: the
//! [`simd`] module probes the CPU once (`is_x86_feature_detected!`-style)
//! and hands back either an explicit SIMD kernel (AVX2, AVX-512, NEON) or
//! the portable [`scalar_microkernel`] fallback, so one binary runs
//! correctly on any CPU.
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
//!
//! Every flop of every Level-3 routine goes through
//! [`KernelDispatch::run`] on packed, zero-padded panels — there is no
//! scalar inner loop beside it. Two pieces beyond the whole-block product
//! make that so for the triangular routines:
//!
//! * a **triangle-restricted product**, [`gemm_cooperative_in`]: the same
//!   engine with a tile filter in [`macro_kernel`], which is all of SYRK
//!   and SYR2K;
//! * the **diagonal-block sweep** of TRMM and TRSM, [`tri_block_sweep`]:
//!   the block packed with its unstored half written as zeros, its rows of
//!   B copied into packed panels, a product or a substitution run tile by
//!   tile — and for the substitution the one routine-specific kernel, the
//!   portable [`tile_solve`], which each dispatch instantiates at its own
//!   geometry ([`KernelDispatch::solve_tile`]).

pub mod level2;
pub mod simd;

use crate::arena;
use crate::call::by_side;
use crate::pack::{pack_a_panels, pack_b_panels, packed_a_len, packed_b_len, PackSrc};
use crate::pool::{SendPtr, TeamCtx};
use crate::{Float, Side, Uplo};

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

/// Entry-point type of the tile solve that goes with a micro-kernel: an
/// instantiation of [`tile_solve`] at the kernel's `(nr, mr)`, compiled for
/// the kernel's instruction set.
///
/// # Safety
/// The CPU must support that instruction set (guaranteed when obtained
/// through the [`simd`] runtime dispatch); the arguments are
/// [`tile_solve`]'s, which is safe.
pub type TileSolveFn<T> = unsafe fn(upper: bool, rows: usize, tdiag: &[T], x: &mut [T]);

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
    solve: TileSolveFn<T>,
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
        solve: TileSolveFn<T>,
    ) -> KernelDispatch<T> {
        assert!(
            mr > 0 && mc > 0 && mc.is_multiple_of(mr),
            "cache block mc must be a multiple of the register block mr"
        );
        assert!(
            mr * nr <= MAX_TILE,
            "register tile overflows the stack tile of the triangular paths"
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
            solve,
        }
    }

    /// Order of the diagonal blocks TRMM and TRSM cut their triangular
    /// operand into ([`tri_block_sweep`]): one cache block of rows, so the
    /// fold against a block is a single `ic` block of the cooperative
    /// engine, and the largest the packed-block buffer ever gets.
    pub fn tri_block(&self) -> usize {
        self.mc
    }

    /// Run the tile solve ([`tile_solve`] at this kernel's geometry) on the
    /// `rows x mr` tile `x`.
    ///
    /// # Safety
    /// The kernel's instruction set must be supported (always true for
    /// dispatches returned by [`Float::kernel`] / [`simd`] selection).
    #[inline]
    pub unsafe fn solve_tile(&self, upper: bool, rows: usize, tdiag: &[T], x: &mut [T]) {
        debug_assert!(rows <= self.nr && x.len() >= rows * self.mr);
        (self.solve)(upper, rows, tdiag, x)
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

/// Upper bound on `mr * nr` over every dispatch ([`KernelDispatch::new`]
/// checks it): the size of the stack tile the triangular paths stage one
/// register tile in.
const MAX_TILE: usize = 256;

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
/// `tri` restricts the update to one triangle of the output — the rank-k
/// routines': `(uplo, shift)` keeps element `(i, j)` of the block when
/// `i - j + shift` is `>= 0` (Lower) or `<= 0` (Upper), `shift` being the
/// block's row origin minus its column origin. It is a **tile filter**: a
/// register tile wholly outside the triangle is not run, one wholly inside
/// goes straight to C, and one the diagonal crosses runs on a stack tile
/// holding C's stored half, which is then copied back — no element outside
/// the triangle is read or written, and every kept element takes the same
/// single rounding as in a tile written in place.
///
/// # Safety
/// `abuf`/`bbuf` must be fully packed blocks of `disp`'s geometry
/// (`mc x kc` and `kc x nc`); `c` must point to an `mc x nc` block with
/// leading dimension `ldc >= mc` whose tiles `tile_lo..tile_hi` (their
/// kept triangle, under `tri`) this caller owns exclusively; `disp` must
/// be runnable on this CPU.
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
    tri: Option<(Uplo, isize)>,
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
        if let Some((uplo, shift)) = tri {
            // `i - j + shift` at the tile's anchor, then its range over
            // the live sub-tile.
            let d0 = i0 as isize - j0 as isize + shift;
            let (d_min, d_max) = (d0 - (nr_eff as isize - 1), d0 + (mr_eff as isize - 1));
            let (outside, inside) = match uplo {
                Uplo::Lower => (d_max < 0, d_min >= 0),
                Uplo::Upper => (d_min > 0, d_max <= 0),
            };
            if outside {
                continue;
            }
            if !inside {
                // Column j keeps the rows with `i + d0 - j` on the stored
                // side of zero.
                let kept = |j: usize| {
                    let edge = (j as isize - d0).clamp(0, mr_eff as isize) as usize;
                    match uplo {
                        Uplo::Lower => edge..mr_eff,
                        Uplo::Upper => 0..mr_eff.min(edge + usize::from(j as isize >= d0)),
                    }
                };
                // The kept elements of C go through the stack tile, so the
                // kernel's one `fma(alpha, acc, c)` rounds them exactly as
                // it rounds a tile written in place.
                let mut tile = [T::ZERO; MAX_TILE];
                for j in 0..nr_eff {
                    for i in kept(j) {
                        // SAFETY: a kept element of the caller's tile.
                        tile[i + j * mr] = *cptr.add(i + j * ldc);
                    }
                }
                // SAFETY: a private mr x nr tile (MAX_TILE bounds every
                // dispatch's register block).
                disp.run(kc, alpha, ap, bp, tile.as_mut_ptr(), mr, mr_eff, nr_eff);
                for j in 0..nr_eff {
                    for i in kept(j) {
                        // SAFETY: as above.
                        *cptr.add(i + j * ldc) = tile[i + j * mr];
                    }
                }
                continue;
            }
        }
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
    gemm_cooperative_in(None, disp, team, m, n, k, alpha, a, b, c, ldc, shared)
}

/// [`gemm_cooperative`] restricted to one triangle of the output: with
/// `tri = Some(uplo)` only the elements `(i, j)` of C in that triangle
/// (`i >= j` Lower, `i <= j` Upper) are updated — or read — which is a
/// rank-k update when `B = A'`. The schedule, the packing and the barriers
/// are the whole-block product's; each `ic` block runs only the B
/// micro-panels its rows reach, dealt round-robin, and [`macro_kernel`]'s
/// tile filter handles the block the diagonal crosses. `None` is
/// [`gemm_cooperative`].
///
/// # Safety
/// As for [`gemm_cooperative`], the team owning the named triangle of `c`
/// rather than the whole block.
#[allow(clippy::too_many_arguments)]
pub unsafe fn gemm_cooperative_in<T: Float>(
    tri: Option<Uplo>,
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
                let cblk = c.add(ic + jc * ldc);
                match tri {
                    None => {
                        // Split the flattened (jp, ip) tile space: disjoint
                        // mr x nr C tiles per member, and still balanced
                        // when the output is narrow (b_panels == 1 but many
                        // A panels) or short.
                        let (t_lo, t_hi) = team.chunk(a_panels * b_panels);
                        if t_lo < t_hi {
                            // SAFETY: members write disjoint tile ranges of
                            // the team-exclusive C block; panels fully
                            // packed.
                            macro_kernel(
                                disp, kcb, alpha, abuf, bbuf, mcb, ncb, t_lo, t_hi, None, cblk, ldc,
                            );
                        }
                    }
                    Some(uplo) => {
                        // The B micro-panels this block's rows reach: those
                        // not wholly past the diagonal. They are dealt
                        // round-robin, because a contiguous split of a
                        // triangle gives one member the long columns.
                        let (jp_lo, jp_hi) = match uplo {
                            Uplo::Lower => (0, (ic + mcb).saturating_sub(jc).div_ceil(nr)),
                            Uplo::Upper => (ic.saturating_sub(jc) / nr, b_panels),
                        };
                        let shift = ic as isize - jc as isize;
                        for jp in (jp_lo + team.tid..jp_hi.min(b_panels)).step_by(team.size) {
                            // SAFETY: as above, one B micro-panel's tiles
                            // at a time; the filter keeps to the triangle.
                            macro_kernel(
                                disp,
                                kcb,
                                alpha,
                                abuf,
                                bbuf,
                                mcb,
                                ncb,
                                jp * a_panels,
                                (jp + 1) * a_panels,
                                Some((uplo, shift)),
                                cblk,
                                ldc,
                            );
                        }
                    }
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

/// What [`tri_block_sweep`] does to a diagonal block's rows of B.
#[derive(Clone, Copy)]
pub enum TriOp<T> {
    /// `B_blk := alpha * T_blk * B_blk` — TRMM, `alpha` inside.
    Product(T),
    /// `B_blk := T_blk^-1 * B_blk` by substitution — TRSM.
    Solve,
}

impl<T: Float> TriOp<T> {
    /// Register-block extents along `t` and along `f` for a block of
    /// `side`: which operand of the micro-kernel the triangle stands on.
    /// A product keeps the fold's assignment (`call::by_side`); a solve puts
    /// the triangle on the B side whichever the side, so that a register
    /// tile is `nr` rows of the block by `mr` lanes of the free extent —
    /// the layout of the packed free panel itself. The tile then never
    /// leaves that panel, the triangle left on it is `nr x nr` (not
    /// `mr x mr`: 6 against 8, 16 or 32), and its substitution runs over
    /// `mr` contiguous lanes.
    pub fn tile(self, disp: &KernelDispatch<T>, side: Side) -> (usize, usize) {
        match self {
            TriOp::Product(_) => by_side(side, disp.mr, disp.nr),
            TriOp::Solve => (disp.nr, disp.mr),
        }
    }
}

/// One **diagonal block** of a triangular routine through the packed
/// micro-kernel, in the `(t, f)` coordinates of [`trmm`](crate::trmm): the
/// block is `len x len`, its rows of B are `len x flen`, and element
/// `(t, f)` of them is `b[t*st + f*sf]` with `(st, sf)` = `(1, ldb)` on
/// the Left, `(ldb, 1)` on the Right.
///
/// `tri` is the block packed by
/// [`pack_tri_panels`](crate::pack::pack_tri_panels) in `pt`-row panels
/// (`(pt, pf)` = [`TriOp::tile`]) — the unstored half zeros, the diagonal
/// inverted for [`TriOp::Solve`] — and `upper` says row `t` of it reaches
/// depths `p >= t`. The block's rows of B are copied, one `pf`-lane
/// micro-panel of the free extent at a time, into the shared buffer of the
/// other operand, which makes the update out of place; then, per register
/// tile:
///
/// * **product**: one micro-kernel call over the depth range where the
///   triangular panel is not identically zero, into the zeroed tile of B;
/// * **solve**: panel steps in dependency order, the tile staying in the
///   packed free panel — the fold from the rows of the block already
///   solved is the ordinary micro-kernel (`alpha = -1`) reading the
///   panel's solved rows and accumulating into the step's, and the
///   `nr x nr` triangle left over is [`KernelDispatch::solve_tile`], in
///   place; the solved panel is copied back to B once.
///
/// **Meets no barrier.** The free micro-panels are dealt to fixed slots of
/// the shared buffer, each member packs and alone consumes the panels in
/// its own slots, and a tile's arithmetic does not depend on who runs it —
/// so the result is bitwise the same at every team size. Every member must
/// call with identical arguments.
///
/// # Safety
/// `b` must point to the block's rows of B (extent and strides as above),
/// which nothing outside the team touches during the call and which the
/// team has finished writing before it (a barrier); `tri` must be a fully
/// packed `len`-order block in `pt`-row panels, published to every member;
/// `shared` must describe live buffers of at least
/// [`shared_pack_lens`]`(rows, cols, len)` elements, `(rows, cols)` the
/// block's rows of B as a matrix, that no member uses for anything else
/// until a barrier after the call; `disp` must be runnable on this CPU.
#[allow(clippy::too_many_arguments)]
pub unsafe fn tri_block_sweep<T: Float>(
    disp: &KernelDispatch<T>,
    team: &TeamCtx<'_>,
    side: Side,
    upper: bool,
    op: TriOp<T>,
    len: usize,
    flen: usize,
    tri: &[T],
    b: *mut T,
    ldb: usize,
    shared: &SharedPack<T>,
) {
    let (pt, pf) = op.tile(disp, side);
    let (st, sf) = by_side(side, 1, ldb);
    // The free panels take the place of the micro-kernel's A operand
    // unless the triangle does.
    let f_on_a = matches!(op, TriOp::Solve) || side == Side::Right;
    let (fbuf, fbuf_len) = match f_on_a {
        true => (shared.abuf, shared.alen),
        false => (shared.bbuf, shared.blen),
    };
    let (t_panels, f_panels) = (len.div_ceil(pt), flen.div_ceil(pf));
    debug_assert!(tri.len() >= t_panels * pt * len);
    let slots = (fbuf_len / (pf * len)).min(f_panels);
    assert!(slots > 0, "shared pack buffer shorter than one free panel");
    let (slot_lo, slot_hi) = team.chunk(slots);
    // SAFETY: the block's rows of B, stable for the whole call except
    // where this member itself writes (after it has packed them). Read as
    // a B-side operand `(p, j) = (t, f)`: the two sides' panel layouts
    // coincide.
    let src = PackSrc::from_raw(b as *const T, st, sf);
    for base in (0..f_panels).step_by(slots) {
        for slot in slot_lo..slot_hi.min(f_panels - base) {
            let panel = base + slot;
            let f0 = panel * pf;
            let cols = pf.min(flen - f0);
            // SAFETY: slot ranges are disjoint across members and inside
            // the buffer (`slots * pf * len <= fbuf_len`).
            let fp = std::slice::from_raw_parts_mut(fbuf.get().add(slot * pf * len), pf * len);
            pack_b_panels(pf, len, flen, &src, 0, 0, panel, panel + 1, fp);
            let out = b.add(f0 * sf);
            match op {
                TriOp::Product(alpha) => {
                    let (r, c) = by_side(side, len, cols);
                    // SAFETY: this member's own micro-panel of the block.
                    scale_block(r, c, T::ZERO, out, ldb);
                    for s in 0..t_panels {
                        let r0 = s * pt;
                        let rows = pt.min(len - r0);
                        // Depths at which this panel of the triangle is
                        // not identically zero.
                        let (d_lo, d_hi) = if upper { (r0, len) } else { (0, r0 + rows) };
                        let tp = &tri[(s * len + d_lo) * pt..(s * len + d_hi) * pt];
                        let fpp = &fp[d_lo * pf..d_hi * pf];
                        let ((ap, mr_eff), (bp, nr_eff)) = match f_on_a {
                            true => ((fpp, cols), (tp, rows)),
                            false => ((tp, rows), (fpp, cols)),
                        };
                        // SAFETY: the tile lies in this member's micro-panel
                        // of the block; both slices hold d_hi - d_lo tiles.
                        disp.run(
                            d_hi - d_lo,
                            alpha,
                            ap,
                            bp,
                            out.add(r0 * st),
                            ldb,
                            mr_eff,
                            nr_eff,
                        );
                    }
                }
                TriOp::Solve => {
                    for step in 0..t_panels {
                        // Start at the rows that depend on no other.
                        let s = if upper { t_panels - 1 - step } else { step };
                        let r0 = s * pt;
                        let rows = pt.min(len - r0);
                        // The rows of the panel solved so far, and the rest
                        // with this step's rows in it.
                        let split = if upper { r0 + rows } else { r0 };
                        let (head, tail) = fp.split_at_mut(split * pf);
                        let (solved, d_lo, x) = match upper {
                            true => (&*tail, split, &mut head[r0 * pf..]),
                            false => (&*head, 0, &mut tail[..rows * pf]),
                        };
                        let depth = solved.len() / pf;
                        if depth > 0 {
                            let tp = &tri[(s * len + d_lo) * pt..(s * len + d_lo + depth) * pt];
                            // SAFETY: `x` is the step's rows of the packed
                            // panel as a `cols x rows` tile of leading
                            // dimension `pf`, disjoint from `solved`.
                            disp.run(depth, -T::ONE, solved, tp, x.as_mut_ptr(), pf, cols, rows);
                        }
                        // SAFETY: `disp` is runnable on this CPU.
                        disp.solve_tile(upper, rows, &tri[(s * len + r0) * pt..], x);
                    }
                    // Unpack, B's unit stride innermost: (count, stride in
                    // the panel, stride in B) along `f` and along `t`.
                    let ((n_out, p_out, b_out), (n_in, p_in, b_in)) =
                        by_side(side, (cols, 1, sf), (len, pf, st));
                    for o in 0..n_out {
                        for i in 0..n_in {
                            // SAFETY: every (t, f) of this member's panel.
                            *out.add(o * b_out + i * b_in) = fp[o * p_out + i * p_in];
                        }
                    }
                }
            }
        }
    }
}

/// Solve the triangle left on one register tile by substitution, in place:
/// `X := T_dd^-1 * X` for the `rows x MR` tile `x` (row `i` is
/// `x[i*MR..][..MR]`, `rows <= NR`). Portable, and written once: each
/// dispatch names the instantiation at its own `(NR, MR)` — like
/// [`scalar_microkernel`] — and the SIMD dispatches compile theirs under
/// their instruction set's `target_feature`, which with compile-time
/// extents keeps the whole tile in vector registers.
///
/// `tdiag` starts at the diagonal triangle as packed in `NR`-row panels:
/// column `j` of it is `tdiag[j*NR..][..rows]`, contiguous, its diagonal
/// entry already the **reciprocal** (so the solve multiplies; no block is
/// inverted, and the error bound is substitution's). Column-oriented: once
/// row `j` is final it is subtracted from every row that depends on it,
/// `MR` independent lanes at a time.
#[inline(always)]
pub fn tile_solve<T: Float, const NR: usize, const MR: usize>(
    upper: bool,
    rows: usize,
    tdiag: &[T],
    x: &mut [T],
) {
    // The direction as a compile-time constant: with it every index below
    // is one, and the unrolled tile stays in registers.
    if upper {
        tile_solve_toward::<T, NR, MR, true>(rows, tdiag, x)
    } else {
        tile_solve_toward::<T, NR, MR, false>(rows, tdiag, x)
    }
}

/// [`tile_solve`] in one direction.
#[inline(always)]
fn tile_solve_toward<T: Float, const NR: usize, const MR: usize, const UPPER: bool>(
    rows: usize,
    tdiag: &[T],
    x: &mut [T],
) {
    assert!(rows <= NR);
    let x = &mut x[..rows * MR];
    let tdiag = &tdiag[..rows * NR];
    let mut tile = [[T::ZERO; MR]; NR];
    for i in 0..NR {
        if i < rows {
            tile[i].copy_from_slice(&x[i * MR..(i + 1) * MR]);
        }
    }
    for step in 0..NR {
        let j = if UPPER { NR - 1 - step } else { step };
        if j >= rows {
            continue;
        }
        let mut xj = tile[j];
        for v in xj.iter_mut() {
            *v *= tdiag[j * NR + j];
        }
        tile[j] = xj;
        // Every row that depends on row j, with its entry of column j.
        for i in 0..NR {
            if (if UPPER { i < j } else { i > j }) && i < rows {
                let a = tdiag[j * NR + i];
                for (v, &solved) in tile[i].iter_mut().zip(xj.iter()) {
                    *v -= a * solved;
                }
            }
        }
    }
    for i in 0..NR {
        if i < rows {
            x[i * MR..(i + 1) * MR].copy_from_slice(&tile[i]);
        }
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
    fn tile_solve_matches_substitution_in_both_directions_and_on_short_tiles() {
        // A 4 x 4 triangle in 4-row packed columns (unstored half zero,
        // reciprocal diagonal), against a textbook solve per lane.
        const NR: usize = 4;
        const MR: usize = 8;
        for upper in [false, true] {
            for rows in 1..=NR {
                let t = |i: usize, j: usize| -> f64 {
                    match (i == j, if upper { j > i } else { j < i }) {
                        (true, _) => 2.0 + i as f64,
                        (_, true) => 0.25 * (1 + i + 2 * j) as f64 - 1.0,
                        _ => 0.0,
                    }
                };
                let mut tdiag = vec![0.0f64; NR * rows];
                for j in 0..rows {
                    for i in 0..rows {
                        tdiag[j * NR + i] = if i == j { 1.0 / t(i, i) } else { t(i, j) };
                    }
                }
                let b: Vec<f64> = (0..rows * MR).map(|x| (x % 7) as f64 - 3.0).collect();
                let mut x = b.clone();
                tile_solve::<f64, NR, MR>(upper, rows, &tdiag, &mut x);
                for c in 0..MR {
                    for i in 0..rows {
                        let lhs: f64 = (0..rows).map(|j| t(i, j) * x[j * MR + c]).sum();
                        assert!(
                            (lhs - b[i * MR + c]).abs() < 1e-12,
                            "upper={upper} rows={rows} ({i},{c})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn macro_kernel_triangle_filter_keeps_to_the_triangle() {
        // C poisoned outside the kept triangle: the filter must neither
        // read nor write it, whichever side of the block the diagonal
        // enters on.
        let disp = f64::kernel();
        let (m, n, k) = (3 * disp.mr + 1, 3 * disp.nr + 2, 5);
        let a = Matrix::<f64>::from_fn(m, k, |i, p| ((i + 2 * p) % 5) as f64 - 2.0);
        let b = Matrix::<f64>::from_fn(k, n, |p, j| ((3 * p + j) % 7) as f64 - 3.0);
        let expect = naive(m, n, k, &a, &b);
        let mut abuf = vec![0.0; packed_a_len(disp.mr, m, k)];
        let mut bbuf = vec![0.0; packed_b_len(disp.nr, k, n)];
        let asrc = PackSrc::strided(a.as_slice(), 0, 1, m, m, k);
        let bsrc = PackSrc::strided(b.as_slice(), 0, 1, k, k, n);
        pack_a_panels(
            disp.mr,
            m,
            k,
            &asrc,
            0,
            0,
            0,
            m.div_ceil(disp.mr),
            &mut abuf,
        );
        pack_b_panels(
            disp.nr,
            k,
            n,
            &bsrc,
            0,
            0,
            0,
            n.div_ceil(disp.nr),
            &mut bbuf,
        );
        let tiles = m.div_ceil(disp.mr) * n.div_ceil(disp.nr);
        for uplo in [Uplo::Lower, Uplo::Upper] {
            for shift in [-7isize, 0, 5] {
                let kept = |i: usize, j: usize| {
                    let d = i as isize - j as isize + shift;
                    if uplo == Uplo::Lower {
                        d >= 0
                    } else {
                        d <= 0
                    }
                };
                let mut c =
                    Matrix::<f64>::from_fn(m, n, |i, j| if kept(i, j) { 1.0 } else { f64::NAN });
                unsafe {
                    macro_kernel(
                        &disp,
                        k,
                        2.0,
                        &abuf,
                        &bbuf,
                        m,
                        n,
                        0,
                        tiles,
                        Some((uplo, shift)),
                        c.as_mut_slice().as_mut_ptr(),
                        m,
                    );
                }
                for j in 0..n {
                    for i in 0..m {
                        if kept(i, j) {
                            assert_eq!(c.get(i, j), 1.0 + 2.0 * expect.get(i, j), "({i},{j})");
                        } else {
                            assert!(c.get(i, j).is_nan(), "({i},{j}) outside the triangle");
                        }
                    }
                }
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

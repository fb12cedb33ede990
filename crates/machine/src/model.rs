//! The analytic runtime model: `(routine, dims, nt) -> seconds`, decomposed
//! into kernel, data-copy, and thread-sync components (paper Table VIII).
//!
//! ## Model structure
//!
//! For a call with dimensions `d` and thread count `nt` on machine `M`:
//!
//! ```text
//! t(d, nt) = t_kernel + t_copy + t_sync + t_call
//!
//! t_kernel = flops / (p_eff * peak_core * eff_kernel)
//!     p_eff      = min(engaged effective cores, parallel tasks)
//!     eff_kernel = plateau factors for the inner (reduction) dimension
//!                  and the per-task work granularity
//!
//! t_copy   = packing_traffic / bw(nt)
//!     bw saturates per socket, gains an LLC-resident boost, and pays
//!     NUMA-spread and high-nt contention penalties
//!
//! t_sync   = spawn + barriers + oversubscription-scheduling + imbalance
//! ```
//!
//! Hyper-threads contribute `smt_yield` of a physical core to `p_eff` but
//! add full sync cost — which is exactly the trade-off that makes the
//! optimal thread count non-trivial and platform-dependent.

use crate::perturb::Perturb;
use crate::spec::MachineSpec;
use adsala_blas3::op::{Dims, OpKind, Routine};

/// Per-call time decomposition, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakdown {
    /// Time in the floating-point kernels.
    pub kernel: f64,
    /// Time copying/packing operand blocks.
    pub copy: f64,
    /// Thread synchronisation: spawn, barriers, scheduling, imbalance.
    pub sync: f64,
}

impl Breakdown {
    /// Total wall time.
    pub fn total(&self) -> f64 {
        self.kernel + self.copy + self.sync
    }
}

/// Per-subroutine tuning constants of the modelled BLAS runtime.
///
/// These encode how each routine family stresses the machine differently:
/// SYMM packs a mirrored triangle with strided reads (high traffic and
/// contention — the paper finds SYMM has the largest speedups on both
/// platforms), the triangular routines have substitution-ordering barriers,
/// and GEMM is the best-conditioned baseline.
#[derive(Debug, Clone, Copy)]
struct OpTuning {
    /// Packing traffic as a multiple of the operand footprint.
    traffic: f64,
    /// Scale on barrier/scheduling sync costs.
    sync_scale: f64,
    /// High-thread-count bandwidth contention strength.
    contention: f64,
}

fn tuning(op: OpKind) -> OpTuning {
    match op {
        OpKind::Gemm => OpTuning {
            traffic: 2.2,
            sync_scale: 1.0,
            contention: 0.8,
        },
        OpKind::Symm => OpTuning {
            traffic: 3.4,
            sync_scale: 2.0,
            contention: 4.5,
        },
        OpKind::Syrk => OpTuning {
            traffic: 2.0,
            sync_scale: 0.85,
            contention: 1.1,
        },
        OpKind::Syr2k => OpTuning {
            traffic: 2.8,
            sync_scale: 0.75,
            contention: 1.0,
        },
        OpKind::Trmm => OpTuning {
            traffic: 2.4,
            sync_scale: 1.25,
            contention: 1.4,
        },
        OpKind::Trsm => OpTuning {
            traffic: 2.5,
            sync_scale: 1.35,
            contention: 1.5,
        },
        // Level 2: no packing, every operand byte is streamed about once
        // (traffic near 1), almost no barriers, but the streams compete
        // hard for bandwidth — contention is what makes the optimal nt
        // plateau at the memory knee instead of the core count.
        OpKind::Gemv => OpTuning {
            traffic: 1.1,
            sync_scale: 0.35,
            contention: 3.5,
        },
        OpKind::Ger => OpTuning {
            traffic: 1.25,
            sync_scale: 0.3,
            contention: 4.0,
        },
        OpKind::Symv => OpTuning {
            traffic: 1.4,
            sync_scale: 0.9,
            contention: 3.8,
        },
        OpKind::Trmv => OpTuning {
            traffic: 1.1,
            sync_scale: 0.15,
            contention: 2.0,
        },
        OpKind::Trsv => OpTuning {
            traffic: 1.15,
            sync_scale: 0.2,
            contention: 2.0,
        },
    }
}

/// Number of independent parallel work items the runtime can distribute.
fn parallel_tasks(op: OpKind, d: Dims) -> f64 {
    let t = match op {
        // 2-D tile partition of C.
        OpKind::Gemm => d.a().div_ceil(32) * d.c().div_ceil(32),
        OpKind::Symm => d.a().div_ceil(32) * d.b().div_ceil(32),
        // Triangular tile set of C; the runtime additionally splits the
        // reduction dimension (with a tree reduction) when C is small but k
        // is deep, so the task count scales with both.
        OpKind::Syrk | OpKind::Syr2k => {
            let nb = d.a().div_ceil(64);
            let k_split = d.b().div_ceil(1024);
            nb * (nb + 1) / 2 * k_split
        }
        // Column groups of the right-hand side.
        OpKind::Trmm | OpKind::Trsm => d.b().div_ceil(8),
        // Row (or output-column) chunks of the vector drivers.
        OpKind::Gemv => d.a().max(d.b()).div_ceil(32),
        OpKind::Ger => d.b().div_ceil(4),
        OpKind::Symv => d.a().div_ceil(32),
        // Substitution chain: strictly serial drivers.
        OpKind::Trmv | OpKind::Trsv => 1,
    };
    t.max(1) as f64
}

/// The reduction/dependency dimension that paces barriers and kernel
/// efficiency.
fn inner_dim(op: OpKind, d: Dims) -> usize {
    match op {
        OpKind::Gemm => d.b(),                               // k
        OpKind::Symm => d.a(),                               // m (left-side chain)
        OpKind::Syrk | OpKind::Syr2k => d.b(),               // k
        OpKind::Trmm | OpKind::Trsm => d.a(),                // m (substitution chain)
        OpKind::Gemv => d.b(),                               // n (axpy count / dot length)
        OpKind::Ger => d.a(),                                // m (column axpy length)
        OpKind::Symv | OpKind::Trmv | OpKind::Trsv => d.a(), // n
    }
}

/// Analytic performance model for one machine.
#[derive(Debug, Clone)]
pub struct PerfModel {
    spec: MachineSpec,
    perturb: Perturb,
}

impl PerfModel {
    /// Model over a machine spec, with the spec's perturbation seed.
    pub fn new(spec: MachineSpec) -> PerfModel {
        let perturb = Perturb::new(spec.seed);
        PerfModel { spec, perturb }
    }

    /// The machine this model simulates.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Noise-free, perturbation-free component breakdown.
    pub fn breakdown(&self, routine: Routine, dims: Dims, nt: usize) -> Breakdown {
        let s = &self.spec;
        let op = routine.op;
        let tun = tuning(op);
        let single = routine.prec == adsala_blas3::op::Precision::Single;
        let nt = nt.clamp(1, s.max_threads());

        let flops = op.flops(dims);
        let bytes = op.footprint_bytes(dims, routine.prec);

        // --- thread placement (compact: fill cores, then hyperthreads) ---
        let phys_cores = s.physical_cores();
        let phys = nt.min(phys_cores);
        let ht = nt - phys;
        let eff_cores = phys as f64 + s.smt_yield * ht as f64;

        // --- kernel ---
        let tasks = parallel_tasks(op, dims);
        let p_eff = eff_cores.min(tasks);
        let inner = inner_dim(op, dims) as f64;
        let eff_inner = inner / (inner + 40.0);
        let flops_per_task = flops / tasks;
        let eff_task = (flops_per_task / (flops_per_task + 1.0e5)).max(0.15);
        let peak = s.core_peak_flops(single);
        let kernel = flops / (p_eff * peak * s.kernel_efficiency * eff_inner.max(0.05) * eff_task);

        // --- copy ---
        // Only cores with work generate memory traffic: a serial driver
        // (tasks = 1) streams through one core's load/store ports no matter
        // how many threads were placed.
        let mem_cores = phys.min(tasks.ceil() as usize).max(1);
        let s0 = mem_cores.min(s.cores_per_socket);
        let s1 = mem_cores - s0;
        let bw_gbs = (s0 as f64 * s.bw_per_core_gbs).min(s.bw_per_socket_gbs)
            + (s1 as f64 * s.bw_per_core_gbs).min(s.bw_per_socket_gbs);
        let llc_groups = phys.div_ceil(s.cores_per_llc);
        let llc_bytes = llc_groups as f64 * s.llc_mib * 1024.0 * 1024.0;
        let cache_boost = if bytes < 0.5 * llc_bytes { 2.5 } else { 1.0 };
        let numa_used = phys.div_ceil(s.cores_per_numa());
        let numa_factor = 1.0
            + s.numa_penalty * (numa_used as f64 - 1.0) / (s.numa_domains as f64 - 1.0).max(1.0);
        let nt_frac = nt as f64 / s.max_threads() as f64;
        let contention = 1.0 + tun.contention * nt_frac * nt_frac;
        let copy = bytes * tun.traffic * numa_factor * contention / (bw_gbs * 1e9 * cache_boost);

        // --- sync ---
        let kblocks = (inner / 256.0).ceil().max(1.0);
        let spawn = s.spawn_us_per_thread * 1e-6 * nt as f64;
        let barrier = s.barrier_us * 1e-6 * ((nt + 1) as f64).log2() * kblocks * tun.sync_scale;
        let oversub = nt.saturating_sub(phys_cores) as f64;
        let idle = (nt as f64 - tasks).max(0.0);
        // Barrier storms do not scale unboundedly with the reduction depth:
        // runtimes coarsen blocks for deep k, so the scheduling penalty sees
        // a sub-linear barrier count.
        let kblocks_sched = kblocks.powf(0.6);
        let sched = s.oversub_sched_us
            * 1e-6
            * kblocks_sched
            * tun.sync_scale
            * (oversub + 0.15 * idle.min(nt as f64))
            / 24.0;
        // Work quantisation: with p engaged workers and `tasks` quanta, the
        // last wave runs partially full; waiting shows up as sync.
        let p_int = (nt as f64).min(tasks).max(1.0);
        let imbalance = ((tasks / p_int).ceil() / (tasks / p_int) - 1.0) * kernel;
        let sync = spawn + barrier + sched + imbalance;

        // Fixed dispatch overhead, folded into sync.
        let call_overhead = 2.0e-6;

        Breakdown {
            kernel,
            copy,
            sync: sync + call_overhead,
        }
    }

    /// Expected (noise-free) wall time including systematic abnormal-patch
    /// perturbations. This is the "ground truth" the heatmaps plot.
    pub fn expected_time(&self, routine: Routine, dims: Dims, nt: usize) -> f64 {
        let base = self.breakdown(routine, dims, nt).total();
        base * self
            .perturb
            .patch_factor(routine, dims, nt, self.spec.max_threads())
    }

    /// One simulated measurement (expected time times log-normal noise);
    /// `rep` distinguishes repeated measurements of the same point.
    pub fn measure(&self, routine: Routine, dims: Dims, nt: usize, rep: u64) -> f64 {
        self.expected_time(routine, dims, nt) * self.perturb.noise_factor(routine, dims, nt, rep)
    }

    /// Sweep all candidate thread counts; return `(best_nt, best_time)` by
    /// expected time.
    pub fn optimal_nt(&self, routine: Routine, dims: Dims) -> (usize, f64) {
        self.spec
            .candidate_threads()
            .into_iter()
            .map(|nt| (nt, self.expected_time(routine, dims, nt)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("candidate set is non-empty")
    }

    /// Expected speedup of the optimal thread count over the max-thread
    /// baseline (the paper's "room for improvement").
    pub fn ideal_speedup(&self, routine: Routine, dims: Dims) -> f64 {
        let t_max = self.expected_time(routine, dims, self.spec.max_threads());
        let (_, t_best) = self.optimal_nt(routine, dims);
        t_max / t_best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsala_blas3::op::Precision;

    fn dgemm() -> Routine {
        Routine::new(OpKind::Gemm, Precision::Double)
    }
    fn dsymm() -> Routine {
        Routine::new(OpKind::Symm, Precision::Double)
    }

    #[test]
    fn components_positive_and_finite() {
        for spec in [MachineSpec::setonix(), MachineSpec::gadi()] {
            let m = PerfModel::new(spec);
            for r in Routine::all().into_iter().chain(Routine::all_level2()) {
                for dims in [Dims::d3(64, 64, 64), Dims::d3(2000, 500, 2000)] {
                    let dims = match r.op.n_dims() {
                        1 => Dims::d1(dims.a()),
                        2 => Dims::d2(dims.a(), dims.b()),
                        _ => dims,
                    };
                    for nt in [1, 7, 48, 96] {
                        let b = m.breakdown(r, dims, nt);
                        assert!(b.kernel > 0.0 && b.kernel.is_finite(), "{r} {dims} {nt}");
                        assert!(b.copy > 0.0 && b.copy.is_finite());
                        assert!(b.sync > 0.0 && b.sync.is_finite());
                    }
                }
            }
        }
    }

    #[test]
    fn more_threads_help_large_compute_bound_gemm() {
        let m = PerfModel::new(MachineSpec::gadi());
        let d = Dims::d3(4000, 4000, 4000);
        let t1 = m.breakdown(dgemm(), d, 1).total();
        let t48 = m.breakdown(dgemm(), d, 48).total();
        assert!(t48 < t1 / 20.0, "48 threads {t48} vs 1 thread {t1}");
    }

    #[test]
    fn small_matrices_prefer_few_threads() {
        for spec in [MachineSpec::setonix(), MachineSpec::gadi()] {
            let max = spec.max_threads();
            let m = PerfModel::new(spec);
            let (best, _) = m.optimal_nt(dgemm(), Dims::d3(48, 48, 48));
            assert!(best <= max / 4, "small gemm optimal {best} of {max}");
        }
    }

    #[test]
    fn large_square_gemm_prefers_many_threads() {
        let m = PerfModel::new(MachineSpec::setonix());
        let (best, _) = m.optimal_nt(dgemm(), Dims::d3(5000, 5000, 5000));
        assert!(best >= 96, "large gemm optimal {best}");
    }

    #[test]
    fn skinny_symm_has_large_ideal_speedup() {
        // Shape from Table VIII: dsymm 248 x 39944 — big win territory.
        let m = PerfModel::new(MachineSpec::gadi());
        let s = m.ideal_speedup(dsymm(), Dims::d2(248, 39944));
        assert!(s > 1.3, "dsymm ideal speedup {s}");
    }

    #[test]
    fn sync_dominates_tiny_work_at_max_threads() {
        // Table VIII pattern: small gemm at max threads is sync-bound.
        let m = PerfModel::new(MachineSpec::gadi());
        let b = m.breakdown(dgemm(), Dims::d3(64, 2048, 64), 96);
        assert!(b.sync > b.kernel, "sync {} kernel {}", b.sync, b.kernel);
        // and ML-selected few threads reduce total substantially.
        let b16 = m.breakdown(dgemm(), Dims::d3(64, 2048, 64), 16);
        assert!(b16.total() < b.total() / 1.5);
    }

    #[test]
    fn hyperthreads_used_on_setonix_but_not_gadi() {
        // Paper §VI-A: on Setonix, SYRK/TRMM/TRSM often have optimal nt
        // *above* the physical core count; on Gadi almost all calls sit
        // below it. Count how often each platform's optimum exceeds its
        // physical cores over a spread of large compute-bound shapes.
        let shapes = [
            Dims::d2(4000, 4000),
            Dims::d2(6000, 2000),
            Dims::d2(3000, 8000),
            Dims::d2(5000, 5000),
            Dims::d2(2500, 2500),
        ];
        let count_above = |spec: MachineSpec| {
            let phys = spec.physical_cores();
            let m = PerfModel::new(spec);
            let r = Routine::new(OpKind::Syrk, Precision::Double);
            shapes
                .iter()
                .filter(|&&d| m.optimal_nt(r, d).0 > phys)
                .count()
        };
        let seto = count_above(MachineSpec::setonix());
        let gadi = count_above(MachineSpec::gadi());
        assert!(
            seto > gadi,
            "setonix above-phys count {seto} must exceed gadi's {gadi}"
        );
        // "Almost all" Gadi calls sit at or below the physical cores —
        // abnormal-patch cells may push the odd shape slightly over.
        assert!(gadi <= 1, "gadi above-phys count {gadi}");
    }

    #[test]
    fn level2_optimal_nt_plateaus_below_core_count() {
        // The paper's Level 3 workloads scale to (and past) the physical
        // core count; the memory-bound Level 2 family must not. GEMV's
        // optimal thread count sits at the bandwidth knee: above 1, but
        // clearly below the physical cores, even for huge matrices where a
        // compute-bound routine would want every core.
        for spec in [MachineSpec::setonix(), MachineSpec::gadi()] {
            let phys = spec.physical_cores();
            let m = PerfModel::new(spec);
            for r in [
                Routine::new(OpKind::Gemv, Precision::Double),
                Routine::new(OpKind::Ger, Precision::Double),
            ] {
                let dims = match r.op.n_dims() {
                    1 => Dims::d1(12_000),
                    _ => Dims::d2(12_000, 12_000),
                };
                let (best, _) = m.optimal_nt(r, dims);
                assert!(best >= 2, "{r}: parallel L2 should engage >1 thread");
                assert!(
                    best < phys,
                    "{r}: optimal {best} must plateau below {phys} physical cores"
                );
            }
            // And the serial substitution routines must prefer one thread.
            let (best, _) = m.optimal_nt(
                Routine::new(OpKind::Trsv, Precision::Double),
                Dims::d1(8000),
            );
            assert_eq!(best, 1, "trsv is a serial chain");
        }
    }

    #[test]
    fn measure_is_deterministic_per_rep() {
        let m = PerfModel::new(MachineSpec::setonix());
        let d = Dims::d3(300, 300, 300);
        assert_eq!(m.measure(dgemm(), d, 8, 0), m.measure(dgemm(), d, 8, 0));
        assert_ne!(m.measure(dgemm(), d, 8, 0), m.measure(dgemm(), d, 8, 1));
    }

    #[test]
    fn expected_time_clamps_thread_count() {
        let m = PerfModel::new(MachineSpec::gadi());
        let d = Dims::d3(100, 100, 100);
        assert_eq!(
            m.expected_time(dgemm(), d, 10_000),
            m.expected_time(dgemm(), d, 96)
        );
        assert_eq!(
            m.expected_time(dgemm(), d, 0),
            m.expected_time(dgemm(), d, 1)
        );
    }

    #[test]
    fn single_precision_kernel_is_faster() {
        let m = PerfModel::new(MachineSpec::gadi());
        let d = Dims::d3(2000, 2000, 2000);
        let kd = m.breakdown(dgemm(), d, 48).kernel;
        let ks = m
            .breakdown(Routine::new(OpKind::Gemm, Precision::Single), d, 48)
            .kernel;
        assert!(ks < kd);
    }
}

//! Per-layer probes: each layer's public functions timed directly on small
//! fixed inputs, in the traced run. They are the same in every workload,
//! so a layer's own speed can be read apart from how much a workload uses
//! it.

use crate::direct::call;
use crate::host;
use crate::metrics::Values;
use crate::rng::Rng;
use crate::stats::median;
use crate::workload::{BenchOp, Workload};
use adsala::features::features_for;
use adsala::Adsala;
use adsala_blas3::op::{Dims, OpKind, Routine};
use adsala_blas3::{Blas3Backend, NativeBackend, ThreadPool, Transpose};
use adsala_ml::model::Regressor;
use adsala_serve::AnyOp;
use std::hint::black_box;
use std::time::Instant;

/// Median seconds of one run of `f` over `reps` runs, after one discarded.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut v)
}

/// Median of `reps` values of `f`.
fn median_secs_of(reps: usize, f: impl Fn() -> f64) -> f64 {
    median(&mut (0..reps).map(|_| f()).collect::<Vec<_>>())
}

const BATCHES: usize = 15;

/// Median over batches of the mean seconds per item, for calls too short
/// to time one by one. `f(i)` runs item `i` of `items`.
fn per_item_secs(items: usize, rounds: usize, mut f: impl FnMut(usize)) -> f64 {
    median_secs(BATCHES, || {
        for _ in 0..rounds {
            for i in 0..items {
                f(i);
            }
        }
    }) / (items * rounds) as f64
}

/// Up to 64 `(routine, dims)` pairs the workload calls.
fn shapes(w: &Workload) -> Vec<(Routine, Dims)> {
    w.ops
        .iter()
        .take(64)
        .map(|o| (o.op.routine(), o.op.dims()))
        .collect()
}

/// The prediction path, outermost to innermost.
fn predictor(lib: &Adsala, w: &Workload, out: &mut Values) {
    let shapes = shapes(w);
    let n = shapes.len();
    let epochs: Vec<_> = shapes
        .iter()
        .map(|(r, _)| {
            lib.model_epoch(*r)
                .expect("every workload routine is installed")
        })
        .collect();
    let installed: Vec<_> = epochs
        .iter()
        .map(|e| {
            e.installed()
                .expect("host_install publishes installed routines")
        })
        .collect();
    let rows: Vec<Vec<f64>> = shapes
        .iter()
        .zip(&installed)
        .map(|((r, d), inst)| inst.pipeline.transform_row(&features_for(*r, *d, 1)))
        .collect();

    let secs = per_item_secs(n, 20, |i| {
        black_box(installed[i].model.predict_row(black_box(&rows[i])));
    });
    out.set("ml.predict_row_ns", secs * 1e9);

    let secs = per_item_secs(n, 20, |i| {
        let (r, d) = shapes[i];
        black_box(installed[i].pipeline.transform_row(&features_for(r, d, 1)));
    });
    out.set("adsala.features_ns", secs * 1e9);

    let secs = per_item_secs(n, 10, |i| {
        let (r, d) = shapes[i];
        let p = lib.predictor(r).expect("installed");
        black_box(p.predict_uncached(black_box(d)));
    });
    out.set("adsala.predict_miss_us", secs * 1e6);

    // One shape over and over: every lookup after the first is a hit.
    let (r, d) = shapes[0];
    let p = lib.predictor(r).expect("installed");
    let secs = per_item_secs(1, 2000, |_| {
        black_box(p.predict(black_box(d)));
    });
    out.set("adsala.predict_hit_ns", secs * 1e9);
}

/// What `Adsala::execute_with_nt` adds on top of the backend it calls:
/// both timed on an 8x8x8 gemm, where the kernel is ~100 ns.
fn dispatch(lib: &Adsala, out: &mut Values) {
    let mut tiny = BenchOp::level3::<f64>(OpKind::Gemm, Dims::d3(8, 8, 8), &mut Rng::new(8));
    let AnyOp::F64(op) = &mut tiny.op else {
        unreachable!("level3::<f64> builds an F64 op")
    };
    let through = per_item_secs(1, 2000, |_| {
        lib.execute_with_nt(1, op.as_op())
            .expect("well-formed gemm");
    });
    let backend = NativeBackend;
    let below = per_item_secs(1, 2000, |_| {
        backend
            .execute_f64(1, op.as_op())
            .expect("well-formed gemm");
    });
    out.set("adsala.dispatch_ns", (through - below) * 1e9);
}

fn pool(max_nt: usize, out: &mut Values) {
    let pool = ThreadPool::global();
    let secs = median_secs(300, || {
        pool.run(max_nt, |tid| {
            black_box(tid);
        })
    });
    out.set("blas3.pool.run_us", secs * 1e6);
    let secs = median_secs(300, || pool.run_team(max_nt, |team| team.barrier()));
    out.set("blas3.pool.team_us", secs * 1e6);
    out.set("blas3.pool.spawned_workers", pool.spawned_workers() as f64);
}

const KERNEL_N: usize = 384;
const KERNEL_REPS: usize = 5;

/// Serial rate of each Level-3 family on a 384-cube: above the cache
/// blocks' size, so packing and the micro-kernel are both exercised.
fn kernels(lib: &Adsala, peak_gflops: f64, out: &mut Values) {
    let n = KERNEL_N;
    let mut rng = Rng::new(384);
    let probes: [(&'static str, BenchOp); 7] = [
        (
            "blas3.kernel.dgemm_gflops",
            BenchOp::level3::<f64>(OpKind::Gemm, Dims::d3(n, n, n), &mut rng),
        ),
        (
            "blas3.kernel.dsymm_gflops",
            BenchOp::level3::<f64>(OpKind::Symm, Dims::d2(n, n), &mut rng),
        ),
        (
            "blas3.kernel.dsyrk_gflops",
            BenchOp::level3::<f64>(OpKind::Syrk, Dims::d2(n, n), &mut rng),
        ),
        (
            "blas3.kernel.dsyr2k_gflops",
            BenchOp::level3::<f64>(OpKind::Syr2k, Dims::d2(n, n), &mut rng),
        ),
        (
            "blas3.kernel.dtrmm_gflops",
            BenchOp::level3::<f64>(OpKind::Trmm, Dims::d2(n, n), &mut rng),
        ),
        (
            "blas3.kernel.dtrsm_gflops",
            BenchOp::level3::<f64>(OpKind::Trsm, Dims::d2(n, n), &mut rng),
        ),
        (
            "blas3.kernel.sgemm_gflops",
            BenchOp::level3::<f32>(OpKind::Gemm, Dims::d3(n, n, n), &mut rng),
        ),
    ];
    for (name, mut op) in probes {
        let flops = op.op.flops();
        let secs = median_secs(KERNEL_REPS, || {
            op.refresh();
            call(lib, &mut op.op, Some(1)).expect("well-formed probe");
        });
        out.set(name, flops / secs / 1e9);
    }
    out.set(
        "blas3.kernel.roofline_frac",
        out.get("blas3.kernel.dgemm_gflops") / peak_gflops,
    );
}

const LEVEL2_REPS: usize = 5;

/// Serial streaming rate of each Level-2 family, computed bytes per
/// second, on an operand of 8x the private L2.
fn level2(lib: &Adsala, l2_kib: u64, triad_gbps: f64, out: &mut Values) {
    let n = ((8 * l2_kib.max(256) * 1024 / 8) as f64).sqrt() as usize;
    let (sq, order) = (Dims::d2(n, n), Dims::d1(n));
    let mut rng = Rng::new(2);
    let probes: [(&'static str, BenchOp); 7] = [
        (
            "blas3.level2.dgemv_n_gbps",
            BenchOp::level2::<f64>(OpKind::Gemv, Transpose::No, sq, &mut rng),
        ),
        (
            "blas3.level2.dgemv_t_gbps",
            BenchOp::level2::<f64>(OpKind::Gemv, Transpose::Yes, sq, &mut rng),
        ),
        (
            "blas3.level2.dger_gbps",
            BenchOp::level2::<f64>(OpKind::Ger, Transpose::No, sq, &mut rng),
        ),
        (
            "blas3.level2.dsymv_gbps",
            BenchOp::level2::<f64>(OpKind::Symv, Transpose::No, order, &mut rng),
        ),
        (
            "blas3.level2.dtrmv_gbps",
            BenchOp::level2::<f64>(OpKind::Trmv, Transpose::No, order, &mut rng),
        ),
        (
            "blas3.level2.dtrsv_gbps",
            BenchOp::level2::<f64>(OpKind::Trsv, Transpose::No, order, &mut rng),
        ),
        (
            "blas3.level2.sgemv_gbps",
            BenchOp::level2::<f32>(OpKind::Gemv, Transpose::No, sq, &mut rng),
        ),
    ];
    for (name, mut op) in probes {
        let bytes = op.op.bytes_touched();
        let secs = median_secs(LEVEL2_REPS, || {
            op.refresh();
            call(lib, &mut op.op, Some(1)).expect("well-formed probe");
        });
        out.set(name, bytes / secs / 1e9);
    }
    out.set(
        "blas3.level2.triad_frac",
        out.get("blas3.level2.dgemv_n_gbps") / triad_gbps,
    );
}

/// Run every probe; `lib` is the workload's host-trained runtime.
pub fn run(lib: &Adsala, w: &Workload, info: &host::HostInfo, max_nt: usize, out: &mut Values) {
    let peak = median_secs_of(5, host::peak_gflops_f64);
    let triad = host::triad_gbps(info.l2_kib);
    out.set("host.peak_gflops_f64", peak);
    out.set("host.triad_gbps", triad);
    predictor(lib, w, out);
    dispatch(lib, out);
    pool(max_nt, out);
    kernels(lib, peak, out);
    level2(lib, info.l2_kib, triad, out);
}

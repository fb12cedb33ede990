//! Bandwidth bench for the Level-2 family: GB/s per routine, serial vs
//! parallel, under every kernel the host can run — the memory-bound
//! counterpart of `blas3_kernels`' GFLOP/s tables.
//!
//! Level-2 arithmetic intensity is O(1) flops/byte, so the interesting
//! number is bytes moved per second and where the parallel speedup stops
//! growing: on a real machine gemv saturates at the bandwidth knee, at or
//! below the core count — the regime the ADSALA predictor must learn to
//! price below `nt = cores`.
//!
//! **Results are written to `BENCH_level2.json` at the repo root** so the
//! README's table can be regenerated instead of drifting. Set
//! `ADSALA_BENCH_SMOKE=1` for a short CI smoke run (same pipeline,
//! smaller operands, fewer samples).

use adsala_blas3::kernel::{set_kernel_choice, KernelChoice};
use adsala_blas3::{level2, Diag, MatMut, MatRef, ThreadPool, Transpose, Uplo, VecMut, VecRef};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

/// Mean seconds per call after one warm-up call.
fn measure(mut f: impl FnMut(), samples: usize) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..samples {
        f();
    }
    t0.elapsed().as_secs_f64() / samples as f64
}

struct Operands {
    n: usize,
    a: Vec<f64>,
    tri: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Operands {
    fn new(n: usize) -> Self {
        let val = |i: usize, j: usize| ((i * 7 + j * 13) % 101) as f64 / 101.0 - 0.5;
        let a: Vec<f64> = (0..n * n).map(|k| val(k % n, k / n)).collect();
        let mut tri = a.clone();
        for i in 0..n {
            // Diagonal dominance keeps repeated trsv/trmv applications
            // numerically tame over the sample loop.
            tri[i * n + i] = 4.0 + (i % 3) as f64;
        }
        Operands {
            n,
            a,
            tri,
            x: (0..n).map(|i| val(i, 3)).collect(),
            y: (0..n).map(|i| val(i, 5)).collect(),
        }
    }
}

const ROUTINES: [&str; 5] = ["dgemv", "dger", "dsymv", "dtrmv", "dtrsv"];

/// Bytes a single call reads + writes (f64): the full matrix (or stored
/// triangle) plus the vectors, counting the output twice (read + write).
fn bytes_per_call(routine: &str, n: usize) -> f64 {
    let (nn, tri) = ((n * n) as f64, (n * (n + 1) / 2) as f64);
    let n = n as f64;
    8.0 * match routine {
        "dgemv" => nn + n + 2.0 * n,
        "dger" => 2.0 * nn + n + n,
        "dsymv" => tri + n + 2.0 * n,
        "dtrmv" | "dtrsv" => tri + 2.0 * n,
        _ => unreachable!(),
    }
}

/// Mean seconds per call for one routine at one thread count.
fn run_routine(routine: &str, ops: &mut Operands, nt: usize, samples: usize) -> f64 {
    let n = ops.n;
    match routine {
        "dgemv" => measure(
            || {
                level2::gemv(
                    nt,
                    Transpose::No,
                    1.0,
                    MatRef::new(n, n, n, &ops.a),
                    VecRef::new(n, 1, &ops.x),
                    0.5,
                    VecMut::new(n, 1, &mut ops.y),
                );
            },
            samples,
        ),
        "dger" => measure(
            || {
                level2::ger(
                    nt,
                    1e-3,
                    VecRef::new(n, 1, &ops.x),
                    VecRef::new(n, 1, &ops.y),
                    MatMut::new(n, n, n, &mut ops.a),
                )
            },
            samples,
        ),
        "dsymv" => measure(
            || {
                level2::symv(
                    nt,
                    Uplo::Lower,
                    1.0,
                    MatRef::new(n, n, n, &ops.a),
                    VecRef::new(n, 1, &ops.x),
                    0.5,
                    VecMut::new(n, 1, &mut ops.y),
                );
            },
            samples,
        ),
        "dtrmv" => measure(
            || {
                level2::trmv(
                    Uplo::Upper,
                    Transpose::No,
                    Diag::NonUnit,
                    MatRef::new(n, n, n, &ops.tri),
                    VecMut::new(n, 1, &mut ops.x),
                );
            },
            samples,
        ),
        "dtrsv" => measure(
            || {
                level2::trsv(
                    Uplo::Upper,
                    Transpose::No,
                    Diag::NonUnit,
                    MatRef::new(n, n, n, &ops.tri),
                    VecMut::new(n, 1, &mut ops.x),
                );
            },
            samples,
        ),
        _ => unreachable!(),
    }
}

fn bench_level2_bandwidth(_c: &mut Criterion) {
    let smoke = std::env::var("ADSALA_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let (n, samples) = if smoke { (160, 3) } else { (1536, 20) };
    let cores = ThreadPool::hardware_threads();
    let par_nt = cores.clamp(2, 8);

    // GB/s per routine, serial vs parallel, per forcible kernel. trmv/trsv
    // are serial by design (loop-carried dependence), recorded as null.
    let mut kernel_rows = String::new();
    for choice in [
        KernelChoice::Scalar,
        KernelChoice::Avx2,
        KernelChoice::Avx512,
        KernelChoice::Neon,
    ] {
        if !set_kernel_choice(choice) {
            continue;
        }
        for routine in ROUTINES {
            let gb = bytes_per_call(routine, n) / 1e9;
            let mut ops = Operands::new(n);
            let serial = gb / run_routine(routine, &mut ops, 1, samples);
            let parallel = if matches!(routine, "dtrmv" | "dtrsv") {
                None
            } else {
                let mut ops = Operands::new(n);
                Some(gb / run_routine(routine, &mut ops, par_nt, samples))
            };
            let par_str = parallel.map_or("null".to_string(), |g| format!("{g:.2}"));
            println!(
                "level2_bandwidth/{choice:?}/{routine} n={n}: serial {serial:.2} GB/s, \
                 parallel(nt={par_nt}) {par_str} GB/s"
            );
            if !kernel_rows.is_empty() {
                kernel_rows.push_str(",\n");
            }
            kernel_rows.push_str(&format!(
                "    {{\"kernel\": \"{choice:?}\", \"routine\": \"{routine}\", \
                 \"serial_gbps\": {serial:.2}, \"parallel_nt\": {par_nt}, \
                 \"parallel_gbps\": {par_str}}}"
            ));
        }
    }
    assert!(set_kernel_choice(KernelChoice::Auto));

    // gemv thread sweep under the auto-dispatched kernel: where does the
    // speedup curve flatten relative to the core count?
    let gb = bytes_per_call("dgemv", n) / 1e9;
    let mut sweep_rows = String::new();
    let mut base = 0.0f64;
    let mut best = (1usize, 0.0f64);
    for nt in [1usize, 2, 4, 8] {
        let mut ops = Operands::new(n);
        let gbps = gb / run_routine("dgemv", &mut ops, nt, samples);
        if nt == 1 {
            base = gbps;
        }
        if gbps > best.1 {
            best = (nt, gbps);
        }
        let speedup = gbps / base;
        println!("level2_bandwidth/gemv_nt_sweep nt={nt}: {gbps:.2} GB/s ({speedup:.2}x vs nt=1)");
        if !sweep_rows.is_empty() {
            sweep_rows.push_str(",\n");
        }
        sweep_rows.push_str(&format!(
            "    {{\"nt\": {nt}, \"gbps\": {gbps:.2}, \"speedup_vs_nt1\": {speedup:.2}}}"
        ));
    }
    println!(
        "level2_bandwidth: gemv best nt = {} ({:.2} GB/s) on a {cores}-core host",
        best.0, best.1
    );

    let json = format!(
        "{{\n  \"description\": \"crates/bench/benches/level2_bandwidth.rs: bytes moved per \
         second for the Level-2 family (dense n x n f64 operands, n = {n}). Level-2 arithmetic \
         intensity is O(1) flops/byte, so GB/s is the capacity metric and the gemv nt sweep \
         shows the parallel speedup saturating at the bandwidth knee, at or below the core \
         count - the plateau the ADSALA thread-count predictor learns for this regime. trmv/trsv \
         are serial by design (loop-carried substitution chain): parallel_gbps is null.\",\n  \
         \"command\": \"cargo bench -p adsala-bench --bench level2_bandwidth\",\n  \
         \"metric\": \"gbps = (matrix-or-triangle + vector traffic, output counted twice) / mean \
         seconds over {samples} samples after one warm-up\",\n  \
         \"host\": {{\"cores\": {cores}, \"parallel_nt\": {par_nt}, \"smoke\": {smoke}}},\n  \
         \"kernels\": [\n{kernel_rows}\n  ],\n  \
         \"gemv_nt_sweep\": [\n{sweep_rows}\n  ],\n  \
         \"gemv_best_nt\": {},\n  \"gemv_best_gbps\": {:.2}\n}}\n",
        best.0, best.1
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_level2.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("level2_bandwidth: results written to {path}"),
        Err(e) => println!("level2_bandwidth: could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_level2_bandwidth);
criterion_main!(benches);

//! Criterion benches for the BLAS L3 substrate: throughput of each routine
//! at a fixed size across thread counts. On a multi-core host this shows
//! the non-monotone thread-count behaviour the paper exploits; on a 1-core
//! CI box it degenerates to overhead measurement, which is still the
//! relevant quantity for the sync-cost model.
//!
//! The `kernel_dispatch` groups race every micro-kernel this machine can
//! run (scalar fallback, AVX2, AVX-512 where the CPU has it) on a
//! single-threaded serial GEMM — the number the
//! paper's `kernel_efficiency` feature summarises, and the headline
//! speedup recorded in the README.

use adsala_blas3::gemm::gemm;
use adsala_blas3::kernel::{available_f32, available_f64, gemm_serial_with};
use adsala_blas3::op::OpKind;
use adsala_blas3::pack::PackSrc;
use adsala_blas3::{Diag, Matrix, Side, Transpose, Uplo};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_kernel_dispatch(c: &mut Criterion) {
    let n = 384;
    let gflops = 2.0 * (n as f64).powi(3) / 1e9;

    let a32 = Matrix::<f32>::from_fn(n, n, |i, j| ((i * 7 + j) % 13) as f32 - 6.0);
    let b32 = Matrix::<f32>::from_fn(n, n, |i, j| ((i + j * 5) % 11) as f32 - 5.0);
    let mut group = c.benchmark_group(format!("kernel_dispatch/sgemm {n} nt=1 ({gflops:.1} GF)"));
    for disp in available_f32() {
        let mut cm = Matrix::<f32>::zeros(n, n);
        group.bench_function(BenchmarkId::from_parameter(disp.name), |bench| {
            bench.iter(|| {
                // SAFETY: cm is exclusively owned; disp is available here.
                unsafe {
                    gemm_serial_with(
                        &disp,
                        n,
                        n,
                        n,
                        1.0f32,
                        &PackSrc::strided(a32.as_slice(), 0, 1, n, n, n),
                        &PackSrc::strided(b32.as_slice(), 0, 1, n, n, n),
                        cm.as_mut_slice().as_mut_ptr(),
                        n,
                    );
                }
            });
        });
    }
    group.finish();

    let a64 = Matrix::<f64>::from_fn(n, n, |i, j| ((i * 7 + j) % 13) as f64 - 6.0);
    let b64 = Matrix::<f64>::from_fn(n, n, |i, j| ((i + j * 5) % 11) as f64 - 5.0);
    let mut group = c.benchmark_group(format!("kernel_dispatch/dgemm {n} nt=1 ({gflops:.1} GF)"));
    for disp in available_f64() {
        let mut cm = Matrix::<f64>::zeros(n, n);
        group.bench_function(BenchmarkId::from_parameter(disp.name), |bench| {
            bench.iter(|| {
                // SAFETY: cm is exclusively owned; disp is available here.
                unsafe {
                    gemm_serial_with(
                        &disp,
                        n,
                        n,
                        n,
                        1.0f64,
                        &PackSrc::strided(a64.as_slice(), 0, 1, n, n, n),
                        &PackSrc::strided(b64.as_slice(), 0, 1, n, n, n),
                        cm.as_mut_slice().as_mut_ptr(),
                        n,
                    );
                }
            });
        });
    }
    group.finish();
}

/// The cooperative GEMM driver across thread counts.
fn bench_parallel_scaling(c: &mut Criterion) {
    for &n in &[384usize, 1024] {
        let gflops = 2.0 * (n as f64).powi(3) / 1e9;
        let a = Matrix::<f32>::from_fn(n, n, |i, j| ((i * 7 + j) % 13) as f32 - 6.0);
        let b = Matrix::<f32>::from_fn(n, n, |i, j| ((i + j * 5) % 11) as f32 - 5.0);
        let mut cm = Matrix::<f32>::zeros(n, n);
        let mut group = c.benchmark_group(format!("parallel_scaling/sgemm {n} ({gflops:.1} GF)"));
        for &nt in &[1usize, 2, 4, 8] {
            group.bench_with_input(BenchmarkId::from_parameter(nt), &nt, |bench, &nt| {
                bench.iter(|| {
                    gemm(
                        nt,
                        Transpose::No,
                        Transpose::No,
                        1.0f32,
                        a.as_ref(),
                        b.as_ref(),
                        0.0f32,
                        cm.as_mut(),
                    )
                });
            });
        }
        group.finish();
    }
}

fn mat(n: usize, c: usize, seed: u64) -> Matrix<f64> {
    Matrix::from_fn(n, c, |i, j| {
        let h = (i as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((j as u64).wrapping_mul(seed | 1));
        ((h >> 40) % 1000) as f64 / 1000.0 - 0.5
    })
}

fn bench_routines(c: &mut Criterion) {
    let n = 192;
    let a = mat(n, n, 1);
    let b = mat(n, n, 2);
    let tri = {
        let mut t = mat(n, n, 3);
        for i in 0..n {
            t.set(i, i, 4.0 + (i % 3) as f64);
        }
        t
    };
    let threads = [1usize, 2, 4];
    // Level 2 has its own bandwidth-oriented bench (`level2_bandwidth`).
    for op in OpKind::ALL.into_iter().filter(|op| !op.is_level2()) {
        let mut group = c.benchmark_group(format!("blas3/{}", op.name()));
        // The one-sided routines run a different operand order (SYMM) or a
        // transposed sweep (TRMM/TRSM) per side, and the benchmark of
        // record times Left only — so both sides get a row here.
        let sides: &[Side] = match op {
            OpKind::Symm | OpKind::Trmm | OpKind::Trsm => &[Side::Left, Side::Right],
            _ => &[Side::Left],
        };
        for (&side, &nt) in sides
            .iter()
            .flat_map(|s| threads.iter().map(move |t| (s, t)))
        {
            let id = match sides.len() {
                1 => BenchmarkId::from_parameter(nt),
                _ => BenchmarkId::new(format!("{side:?}"), nt),
            };
            group.bench_with_input(id, &nt, |bench, &nt| {
                bench.iter(|| match op {
                    OpKind::Gemm => {
                        let mut cm = Matrix::<f64>::zeros(n, n);
                        gemm(
                            nt,
                            Transpose::No,
                            Transpose::No,
                            1.0,
                            a.as_ref(),
                            b.as_ref(),
                            0.0,
                            cm.as_mut(),
                        );
                        cm
                    }
                    OpKind::Symm => {
                        let mut cm = Matrix::<f64>::zeros(n, n);
                        adsala_blas3::symm::symm(
                            nt,
                            side,
                            Uplo::Upper,
                            1.0,
                            a.as_ref(),
                            b.as_ref(),
                            0.0,
                            cm.as_mut(),
                        );
                        cm
                    }
                    OpKind::Syrk => {
                        let mut cm = Matrix::<f64>::zeros(n, n);
                        adsala_blas3::syrk::syrk(
                            nt,
                            Uplo::Lower,
                            Transpose::No,
                            1.0,
                            a.as_ref(),
                            0.0,
                            cm.as_mut(),
                        );
                        cm
                    }
                    OpKind::Syr2k => {
                        let mut cm = Matrix::<f64>::zeros(n, n);
                        adsala_blas3::syr2k::syr2k(
                            nt,
                            Uplo::Lower,
                            Transpose::No,
                            1.0,
                            a.as_ref(),
                            b.as_ref(),
                            0.0,
                            cm.as_mut(),
                        );
                        cm
                    }
                    OpKind::Trmm => {
                        let mut bm = b.clone();
                        adsala_blas3::trmm::trmm(
                            nt,
                            side,
                            Uplo::Upper,
                            Transpose::No,
                            Diag::NonUnit,
                            1.0,
                            tri.as_ref(),
                            bm.as_mut(),
                        );
                        bm
                    }
                    OpKind::Trsm => {
                        let mut bm = b.clone();
                        adsala_blas3::trsm::trsm(
                            nt,
                            side,
                            Uplo::Upper,
                            Transpose::No,
                            Diag::NonUnit,
                            1.0,
                            tri.as_ref(),
                            bm.as_mut(),
                        );
                        bm
                    }
                    _ => unreachable!("level-2 ops are filtered out above"),
                });
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_kernel_dispatch, bench_parallel_scaling, bench_routines
}
criterion_main!(benches);

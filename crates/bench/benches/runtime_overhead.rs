//! Criterion benches for the runtime dispatch path (paper §III-B): the
//! cost of a prediction with a cold cache (full sweep), with a warm
//! prediction table (the repeated-dims fast path), and the end-to-end
//! overhead relative to the raw BLAS call.

use adsala::install::{install_routine, InstallOptions, InstalledRoutine};
use adsala::predictor::ThreadPredictor;
use adsala::timer::SimTimer;
use adsala_blas3::op::{Dims, OpKind, Precision, Routine};
use adsala_machine::MachineSpec;
use adsala_ml::model::ModelKind;
use criterion::{criterion_group, criterion_main, Criterion};

fn installed(kind: ModelKind) -> InstalledRoutine {
    let timer = SimTimer::new(MachineSpec::gadi());
    let routine = Routine::new(OpKind::Gemm, Precision::Double);
    install_routine(
        &timer,
        routine,
        &InstallOptions {
            n_train: 220,
            n_eval: 10,
            kinds: vec![kind],
            nt_stride: 1,
            ..Default::default()
        },
    )
}

fn predictor(kind: ModelKind) -> ThreadPredictor {
    ThreadPredictor::new(installed(kind))
}

fn bench_cache_paths(c: &mut Criterion) {
    for kind in [ModelKind::LinearRegression, ModelKind::Xgboost] {
        let p = predictor(kind);
        let d = Dims::d3(777, 333, 555);
        let mut group = c.benchmark_group(format!("runtime/{}", kind.display_name()));
        group.bench_function("uncached_sweep", |b| {
            b.iter(|| p.predict_uncached(std::hint::black_box(d)))
        });
        // The same model sweeping fewer candidates than gadi's 96: what a
        // miss costs per candidate, from this sandbox's 2 to a paper host's
        // 48.
        if kind == ModelKind::Xgboost {
            for max_threads in [2, 8, 48] {
                let mut inst = p.installed().clone();
                inst.max_threads = max_threads;
                let p = ThreadPredictor::new(inst);
                group.bench_function(format!("uncached_sweep/{max_threads}"), |b| {
                    b.iter(|| p.predict_uncached(std::hint::black_box(d)))
                });
            }
        }
        // Warm the cache once, then measure the hit path.
        p.predict(d);
        group.bench_function("cached_hit", |b| {
            b.iter(|| p.predict(std::hint::black_box(d)))
        });
        group.finish();
    }
}

fn bench_end_to_end_small_gemm(c: &mut Criterion) {
    // Overhead of prediction relative to executing a small gemm: the
    // cached path must be negligible next to even a 64^3 call.
    use adsala_blas3::Matrix;
    let p = predictor(ModelKind::LinearRegression);
    let n = 64;
    let a = Matrix::<f64>::from_fn(n, n, |i, j| (i + j) as f64 / n as f64);
    let b = Matrix::<f64>::from_fn(n, n, |i, j| (i * 2 + j) as f64 / n as f64);
    let mut group = c.benchmark_group("runtime/end_to_end");
    group.bench_function("gemm64_raw", |bch| {
        bch.iter(|| {
            let mut cm = Matrix::<f64>::zeros(n, n);
            adsala_blas3::gemm::gemm(
                1,
                adsala_blas3::Transpose::No,
                adsala_blas3::Transpose::No,
                1.0,
                a.as_ref(),
                b.as_ref(),
                0.0,
                cm.as_mut(),
            );
            cm
        })
    });
    group.bench_function("gemm64_with_cached_prediction", |bch| {
        let d = Dims::d3(n, n, n);
        p.predict(d); // warm
        bch.iter(|| {
            let _nt = p.predict(std::hint::black_box(d));
            let mut cm = Matrix::<f64>::zeros(n, n);
            adsala_blas3::gemm::gemm(
                1,
                adsala_blas3::Transpose::No,
                adsala_blas3::Transpose::No,
                1.0,
                a.as_ref(),
                b.as_ref(),
                0.0,
                cm.as_mut(),
            );
            cm
        })
    });
    group.finish();
}

fn bench_backend_dispatch(c: &mut Criterion) {
    // Cost of the typed call-description layer: the same gemm through the
    // driver directly vs described as a Blas3Op and dispatched through the
    // Blas3Backend trait (one more validation). The difference is the price
    // of the backend seam, which must stay negligible against even a small
    // call.
    use adsala_blas3::{Blas3Backend, Blas3Op, Matrix, NativeBackend, Transpose};
    let n = 64;
    let a = Matrix::<f64>::from_fn(n, n, |i, j| (i + j) as f64 / n as f64);
    let b = Matrix::<f64>::from_fn(n, n, |i, j| (i * 2 + j) as f64 / n as f64);
    let mut group = c.benchmark_group("runtime/backend_dispatch");
    group.bench_function("gemm64_driver", |bch| {
        bch.iter(|| {
            let mut cm = Matrix::<f64>::zeros(n, n);
            adsala_blas3::gemm::gemm(
                1,
                Transpose::No,
                Transpose::No,
                1.0,
                a.as_ref(),
                b.as_ref(),
                0.0,
                cm.as_mut(),
            );
            cm
        })
    });
    group.bench_function("gemm64_blas3op_trait", |bch| {
        bch.iter(|| {
            let mut cm = Matrix::<f64>::zeros(n, n);
            NativeBackend
                .execute(
                    1,
                    Blas3Op::Gemm {
                        transa: Transpose::No,
                        transb: Transpose::No,
                        alpha: 1.0,
                        a: a.as_ref(),
                        b: b.as_ref(),
                        beta: 0.0,
                        c: cm.as_mut(),
                    },
                )
                .unwrap();
            cm
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(400));
    targets = bench_cache_paths, bench_end_to_end_small_gemm, bench_backend_dispatch
}
criterion_main!(benches);

//! Integration tests for the service layer: result equivalence against the
//! reference-backend oracle, fairness, admission control, telemetry, and
//! amortised batch prediction.

// Outside the Miri subset: drives a live Service (OS worker threads).
#![cfg(not(miri))]

use adsala::install::{install_routine, InstallOptions};
use adsala::runtime::Adsala;
use adsala::timer::SimTimer;
use adsala_blas3::op::Routine;
use adsala_blas3::{
    Blas3Backend, Diag, Float, Matrix, NativeBackend, OwnedOp, OwnedOp2, ReferenceBackend, Side,
    Transpose, Uplo,
};
use adsala_machine::MachineSpec;
use adsala_ml::model::ModelKind;
use adsala_serve::{AnyOp, RejectReason, ServeConfig, ServeError, Service};
use std::sync::mpsc::{self, TryRecvError};
use std::time::{Duration, Instant};

fn modelless_runtime() -> Adsala<NativeBackend> {
    Adsala::new(Vec::new(), 2)
}

fn mat(m: usize, n: usize, seed: usize) -> Matrix<f64> {
    Matrix::from_fn(m, n, |i, j| {
        ((i * 31 + j * 17 + seed * 7) % 13) as f64 / 13.0 - 0.4
    })
}

fn spd_mat(n: usize) -> Matrix<f64> {
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            6.0
        } else {
            0.25 * ((i + j) % 3) as f64
        }
    })
}

fn vec_f64(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 23 + seed * 5) % 11) as f64 / 11.0 - 0.3)
        .collect()
}

/// A mixed stream across the six Level 3 families (f64), one f32 gemm,
/// and three Level 2 calls (dgemv, dsymv, strsv) so both call layers flow
/// through one queue.
fn mixed_ops(seed: usize) -> Vec<AnyOp> {
    let n = 20;
    vec![
        OwnedOp::Gemm {
            transa: Transpose::No,
            transb: Transpose::Yes,
            alpha: 1.25,
            a: mat(n, n, seed),
            b: mat(n, n, seed + 1),
            beta: 0.5,
            c: mat(n, n, seed + 2),
        }
        .into(),
        OwnedOp::Symm {
            side: Side::Left,
            uplo: Uplo::Upper,
            alpha: 0.75,
            a: spd_mat(n),
            b: mat(n, n, seed + 3),
            beta: 0.0,
            c: Matrix::zeros(n, n),
        }
        .into(),
        OwnedOp::Syrk {
            uplo: Uplo::Lower,
            trans: Transpose::No,
            alpha: 1.0,
            a: mat(n, n, seed + 4),
            beta: 0.25,
            c: mat(n, n, seed + 5),
        }
        .into(),
        OwnedOp::Syr2k {
            uplo: Uplo::Upper,
            trans: Transpose::Yes,
            alpha: -0.5,
            a: mat(n, n, seed + 6),
            b: mat(n, n, seed + 7),
            beta: 1.0,
            c: mat(n, n, seed + 8),
        }
        .into(),
        OwnedOp::Trmm {
            side: Side::Left,
            uplo: Uplo::Upper,
            trans: Transpose::No,
            diag: Diag::NonUnit,
            alpha: 1.0,
            a: spd_mat(n),
            b: mat(n, n, seed + 9),
        }
        .into(),
        OwnedOp::Trsm {
            side: Side::Right,
            uplo: Uplo::Lower,
            trans: Transpose::Yes,
            diag: Diag::NonUnit,
            alpha: 2.0,
            a: spd_mat(n),
            b: mat(n, n, seed + 10),
        }
        .into(),
        AnyOp::F32(OwnedOp::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha: 1.0,
            a: Matrix::<f32>::from_fn(n, n, |i, j| ((i + 2 * j) % 5) as f32 - 2.0),
            b: Matrix::<f32>::from_fn(n, n, |i, j| ((3 * i + j) % 7) as f32 - 3.0),
            beta: 0.0,
            c: Matrix::<f32>::zeros(n, n),
        }),
        OwnedOp2::Gemv {
            trans: Transpose::Yes,
            alpha: 1.5,
            a: mat(n, n + 4, seed + 11),
            x: vec_f64(n, seed + 12),
            beta: -0.5,
            y: vec_f64(n + 4, seed + 13),
        }
        .into(),
        OwnedOp2::Symv {
            uplo: Uplo::Lower,
            alpha: 0.5,
            a: spd_mat(n),
            x: vec_f64(n, seed + 14),
            beta: 1.0,
            y: vec_f64(n, seed + 15),
        }
        .into(),
        AnyOp::F32L2(OwnedOp2::Trsv {
            uplo: Uplo::Upper,
            trans: Transpose::No,
            diag: Diag::NonUnit,
            a: Matrix::<f32>::from_fn(n, n, |i, j| {
                if i == j {
                    4.0
                } else {
                    ((i + 2 * j) % 3) as f32 * 0.25
                }
            }),
            x: (0..n)
                .map(|i| ((i * 7 + seed) % 9) as f32 / 9.0 - 0.4)
                .collect(),
        }),
    ]
}

/// Run one op on the reference backend, sequentially, and return its output.
fn oracle(op: &AnyOp) -> AnyOp {
    let mut copy = op.clone();
    match &mut copy {
        AnyOp::F32(o) => ReferenceBackend.execute(1, o.as_op()).unwrap(),
        AnyOp::F64(o) => ReferenceBackend.execute(1, o.as_op()).unwrap(),
        AnyOp::F32L2(o) => ReferenceBackend.execute(1, o.as_op()).unwrap(),
        AnyOp::F64L2(o) => ReferenceBackend.execute(1, o.as_op()).unwrap(),
    }
    copy
}

fn l2_diff<T: Float>(x: &OwnedOp2<T>, y: &OwnedOp2<T>) -> f64 {
    match (x.out_vector(), y.out_vector()) {
        (Some(a), Some(b)) => a
            .iter()
            .zip(b)
            .map(|(p, q)| (p.to_f64() - q.to_f64()).abs())
            .fold(0.0, f64::max),
        _ => x
            .out_matrix()
            .expect("ger writes the matrix")
            .max_abs_diff(y.out_matrix().expect("ger writes the matrix")),
    }
}

fn max_diff(a: &AnyOp, b: &AnyOp) -> f64 {
    match (a, b) {
        (AnyOp::F32(x), AnyOp::F32(y)) => x.output().max_abs_diff(y.output()),
        (AnyOp::F64(x), AnyOp::F64(y)) => x.output().max_abs_diff(y.output()),
        (AnyOp::F32L2(x), AnyOp::F32L2(y)) => l2_diff(x, y),
        (AnyOp::F64L2(x), AnyOp::F64L2(y)) => l2_diff(x, y),
        _ => panic!("precision mismatch"),
    }
}

#[test]
fn batched_results_match_the_reference_oracle() {
    let service = Service::new(modelless_runtime()).expect("spawn scheduler cells");
    let client = service.client();
    let ops = mixed_ops(3);
    let expected: Vec<AnyOp> = ops.iter().map(oracle).collect();
    let tickets = client.submit_batch(ops).expect("well within budget");
    for (ticket, want) in tickets.into_iter().zip(&expected) {
        let done = ticket.wait().unwrap();
        assert!(done.result.is_ok());
        assert!(done.stats.nt >= 1);
        assert!(done.stats.admitted_nt >= 1);
        assert!(done.stats.observed_secs >= 0.0);
        let tol = match want {
            AnyOp::F32(_) | AnyOp::F32L2(_) => 1e-4,
            AnyOp::F64(_) | AnyOp::F64L2(_) => 1e-10,
        };
        assert!(
            max_diff(&done.op, want) < tol,
            "{} diverged from the reference oracle",
            want.routine()
        );
    }
}

#[test]
fn parallel_batch_execution_matches_the_reference_oracle() {
    // Same-shape jobs served as one multi-job batch (one pool wake-up,
    // jobs claimed concurrently) must still match the serial oracle.
    let service = Service::new(modelless_runtime()).expect("spawn scheduler cells");
    let client = service.client();
    let ops: Vec<AnyOp> = (0..12)
        .map(|i| {
            AnyOp::from(OwnedOp::Gemm {
                transa: Transpose::No,
                transb: Transpose::Yes,
                alpha: 1.0 + i as f64 / 8.0,
                a: mat(24, 24, i),
                b: mat(24, 24, i + 1),
                beta: 0.5,
                c: mat(24, 24, i + 2),
            })
        })
        .collect();
    let expected: Vec<AnyOp> = ops.iter().map(oracle).collect();
    let tickets = client.submit_batch(ops).unwrap();
    for (ticket, want) in tickets.into_iter().zip(&expected) {
        let done = ticket.wait().unwrap();
        assert!(done.stats.batch_size > 1, "expected a multi-job batch");
        assert!(max_diff(&done.op, want) < 1e-10);
    }
}

#[test]
fn sequential_submission_matches_batched_submission() {
    let service = Service::new(modelless_runtime()).expect("spawn scheduler cells");
    let client = service.client();
    let batched: Vec<AnyOp> = {
        let tickets = client.submit_batch(mixed_ops(11)).unwrap();
        tickets.into_iter().map(|t| t.wait().unwrap().op).collect()
    };
    for (i, want) in batched.iter().enumerate() {
        let op = mixed_ops(11).swap_remove(i);
        let done = client.submit(op).unwrap().wait().unwrap();
        assert!(
            max_diff(&done.op, want) < 1e-12,
            "op {i}: batched and per-op submission disagree"
        );
    }
}

#[test]
fn round_robin_prevents_starvation_between_competing_clients() {
    let service = Service::with_config(
        modelless_runtime(),
        ServeConfig {
            // One cell: the strict a,a,b,b serving order below is only
            // defined when a single scheduler drains the lanes.
            shards: 1,
            max_batch: 2,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    service.pause();
    let a = service.client();
    let b = service.client();
    let submit_n = |client: &adsala_serve::Client<NativeBackend>, n: usize| {
        (0..n)
            .map(|i| {
                client
                    .submit(OwnedOp::Gemm {
                        transa: Transpose::No,
                        transb: Transpose::No,
                        alpha: 1.0,
                        a: mat(12, 12, i),
                        b: mat(12, 12, i + 1),
                        beta: 0.0,
                        c: Matrix::zeros(12, 12),
                    })
                    .unwrap()
            })
            .collect::<Vec<_>>()
    };
    // Client a fills its queue first; without fairness it would monopolise.
    let ta = submit_n(&a, 6);
    let tb = submit_n(&b, 6);
    assert_eq!(service.pending_jobs(), 12);
    service.resume();
    for t in ta.into_iter().chain(tb) {
        t.wait().unwrap();
    }
    let order: Vec<u64> = service
        .telemetry_snapshot()
        .iter()
        .map(|r| r.client.0)
        .collect();
    assert_eq!(order.len(), 12);
    // Round-robin with max_batch 2 must interleave strictly: a,a,b,b,...
    let expect: Vec<u64> = (0..12).map(|i| ((i / 2) % 2) as u64).collect();
    assert_eq!(order, expect, "serving order starved a client");
}

#[test]
fn admission_rejects_beyond_the_predicted_backlog_budget() {
    let service = Service::with_config(
        modelless_runtime(),
        ServeConfig {
            backlog_budget_secs: 1e-9,
            fallback_gflops: 1.0,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    let client = service.client();
    let op = OwnedOp::Gemm {
        transa: Transpose::No,
        transb: Transpose::No,
        alpha: 1.0,
        a: mat(64, 64, 0),
        b: mat(64, 64, 1),
        beta: 0.0,
        c: Matrix::zeros(64, 64),
    };
    let rejected = client.submit(op).unwrap_err();
    match rejected.reason {
        RejectReason::BudgetExceeded {
            requested_secs,
            budget_secs,
            ..
        } => {
            // 2 * 64^3 flops at 1 Gflop/s.
            let expect = 2.0 * 64f64.powi(3) / 1e9;
            assert!((requested_secs - expect).abs() < 1e-12);
            assert_eq!(budget_secs, 1e-9);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    // The operands come back to the caller.
    assert_eq!(rejected.ops.len(), 1);
    assert_eq!(rejected.ops[0].dims().a(), 64);
}

#[test]
fn admission_rejects_when_the_queue_is_full_and_returns_all_ops() {
    let service = Service::with_config(
        modelless_runtime(),
        ServeConfig {
            queue_capacity: 2,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    service.pause();
    let client = service.client();
    let rejected = client.submit_batch(mixed_ops(5)).unwrap_err();
    assert!(matches!(
        rejected.reason,
        RejectReason::QueueFull { capacity: 2 }
    ));
    assert_eq!(rejected.ops.len(), mixed_ops(5).len());
    assert_eq!(service.pending_jobs(), 0, "rejection must admit nothing");
}

#[test]
fn admission_rejects_invalid_descriptions_with_a_typed_error() {
    let service = Service::new(modelless_runtime()).expect("spawn scheduler cells");
    let client = service.client();
    let bad = OwnedOp::Gemm {
        transa: Transpose::No,
        transb: Transpose::No,
        alpha: 1.0,
        a: Matrix::<f64>::zeros(4, 5),
        b: Matrix::<f64>::zeros(6, 3), // inner mismatch: 5 vs 6
        beta: 0.0,
        c: Matrix::<f64>::zeros(4, 3),
    };
    let rejected = client.submit(bad).unwrap_err();
    assert!(matches!(rejected.reason, RejectReason::Invalid(_)));
}

#[test]
fn tickets_surface_shutdown_to_both_callbacks_and_waiters() {
    let service = Service::new(modelless_runtime()).expect("spawn scheduler cells");
    service.pause();
    let client = service.client();
    let mk = || OwnedOp::Gemm {
        transa: Transpose::No,
        transb: Transpose::No,
        alpha: 1.0,
        a: mat(8, 8, 0),
        b: mat(8, 8, 1),
        beta: 0.0,
        c: Matrix::zeros(8, 8),
    };
    let (tx, settled) = mpsc::channel();
    let armed = client.submit(mk()).unwrap();
    armed.on_complete(move |o| tx.send(o).unwrap());
    let waiter = client.submit(mk()).unwrap();
    // Paused service: still pending, not an error.
    assert_eq!(settled.try_recv().unwrap_err(), TryRecvError::Empty);
    // Paused shutdown drops queued jobs; both ticket styles must see it.
    drop(service);
    assert_eq!(
        settled.try_recv().unwrap().unwrap_err(),
        ServeError::ServiceStopped
    );
    assert_eq!(waiter.wait().unwrap_err(), ServeError::ServiceStopped);
    // A client outliving its service gets a typed rejection on submit.
    assert!(matches!(
        client.submit(mk()).unwrap_err().reason,
        RejectReason::Stopped
    ));
}

#[test]
fn a_shutdown_right_after_a_job_returns_at_once() {
    // Right after a batch the cell's scheduler and its pool's helper spin
    // for the next job, and the supervisor parks between its sweeps;
    // shutting down then must wait out neither.
    let config = ServeConfig {
        shards: 1,
        ..Default::default()
    };
    let mut took: Vec<Duration> = (0..5)
        .map(|_| {
            let service = Service::with_config(modelless_runtime(), config.clone())
                .expect("spawn scheduler cells");
            let op = OwnedOp::Gemm {
                transa: Transpose::No,
                transb: Transpose::No,
                alpha: 1.0,
                a: mat(16, 16, 0),
                b: mat(16, 16, 1),
                beta: 0.0,
                c: Matrix::zeros(16, 16),
            };
            service.client().submit(op).unwrap().wait().unwrap();
            let start = Instant::now();
            service.shutdown();
            start.elapsed()
        })
        .collect();
    took.sort();
    assert!(took[2] < Duration::from_millis(5), "{took:?}");
}

#[test]
fn telemetry_records_every_served_job() {
    // Ring eviction is covered by the telemetry module's unit tests; here
    // five jobs fit the per-cell ring whole.
    let service = Service::with_config(
        modelless_runtime(),
        ServeConfig {
            // One cell: the served/len assertions below are about one ring.
            shards: 1,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    let client = service.client();
    let ops: Vec<AnyOp> = (0..5)
        .map(|i| {
            AnyOp::from(OwnedOp::Gemm {
                transa: Transpose::No,
                transb: Transpose::No,
                alpha: 1.0,
                a: mat(16, 16, i),
                b: mat(16, 16, i + 1),
                beta: 0.0,
                c: Matrix::zeros(16, 16),
            })
        })
        .collect();
    for t in client.submit_batch(ops).unwrap() {
        t.wait().unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.shards.len(), 1);
    assert_eq!(stats.shards[0].served, 5);
    assert_eq!(stats.shards[0].telemetry_records, 5);
    let records = service.telemetry_snapshot();
    assert_eq!(records.len(), 5);
    for r in records {
        assert_eq!(r.client, client.id());
        assert_eq!(r.routine, Routine::parse("dgemm").unwrap());
        assert!(r.nt >= 1);
        assert!(r.observed_secs >= 0.0);
        assert!(r.predicted_secs > 0.0);
        assert!(!r.model_backed, "no model installed");
    }
}

#[test]
fn batch_submission_amortises_prediction_across_shape_groups() {
    // Same assertion pattern as the prediction-cache tests in
    // crates/adsala/src/runtime.rs, driven through the service layer.
    let timer = SimTimer::new(MachineSpec::gadi());
    let routine = Routine::parse("dgemm").unwrap();
    let installed = install_routine(
        &timer,
        routine,
        &InstallOptions {
            n_train: 100,
            n_eval: 8,
            kinds: vec![ModelKind::LinearRegression],
            nt_stride: 16,
            ..Default::default()
        },
    );
    let service = Service::new(Adsala::new(vec![installed], 2)).expect("spawn scheduler cells");
    let client = service.client();

    let gemm = |m: usize, i: usize| {
        AnyOp::from(OwnedOp::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha: 1.0,
            a: mat(m, m, i),
            b: mat(m, m, i + 1),
            beta: 0.0,
            c: Matrix::zeros(m, m),
        })
    };
    // Two shape groups interleaved: 4 ops of 24^3, 4 ops of 16^3.
    let ops: Vec<AnyOp> = (0..8)
        .map(|i| gemm(if i % 2 == 0 { 24 } else { 16 }, i))
        .collect();
    let tickets = client.submit_batch(ops).unwrap();
    for t in tickets {
        t.wait().unwrap();
    }
    let (hits, misses) = service.runtime().predictor(routine).unwrap().cache_stats();
    // One prediction sweep per distinct (routine, dims) group — not per op.
    // The interleaved shapes would evict the last-call cache on every
    // per-op prediction (8 misses); grouped pricing does 2 sweeps total.
    assert_eq!(misses, 2, "expected one sweep per shape group");
    assert_eq!(hits, 0, "grouped pricing never re-consults the cache");
}

#[test]
fn level2_jobs_are_priced_batched_and_served_with_telemetry() {
    // The end-to-end path for the memory-bound family: a dgemv stream is
    // admitted under a model-backed price, taken as one same-shape batch
    // (`submit_batch` pushes the six jobs under one hold of the cell
    // lock, so the prefix is whole when the scheduler looks), executed
    // through the Level 2 runtime entry point, and recorded in telemetry
    // under the Level 2 routine kind.
    let timer = SimTimer::new(MachineSpec::gadi());
    let routine = Routine::parse("dgemv").unwrap();
    let installed = install_routine(
        &timer,
        routine,
        &InstallOptions {
            n_train: 150,
            n_eval: 8,
            kinds: vec![ModelKind::LinearRegression],
            nt_stride: 16,
            ..Default::default()
        },
    );
    let service = Service::with_config(
        Adsala::new(vec![installed], 2),
        ServeConfig {
            shards: 1,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    let client = service.client();

    let gemv = |i: usize| {
        AnyOp::from(OwnedOp2::Gemv {
            trans: Transpose::No,
            alpha: 1.0 + i as f64 / 8.0,
            a: mat(32, 24, i),
            x: vec_f64(24, i + 1),
            beta: 0.25,
            y: vec_f64(32, i + 2),
        })
    };
    let ops: Vec<AnyOp> = (0..6).map(gemv).collect();
    let expected: Vec<AnyOp> = ops.iter().map(oracle).collect();
    let tickets = client.submit_batch(ops).expect("within budget");
    let mut delivered = Vec::new();
    for (ticket, want) in tickets.into_iter().zip(&expected) {
        let done = ticket.wait().unwrap();
        delivered.push(done.stats);
        assert!(done.result.is_ok());
        assert!(
            done.stats.model_backed,
            "dgemv predictor must price the job"
        );
        assert!(done.stats.predicted_secs > 0.0);
        assert!(done.stats.admitted_nt >= 1);
        assert_eq!(done.stats.batch_size, 6, "same-shape gemvs must coalesce");
        assert!(max_diff(&done.op, want) < 1e-10);
    }
    let snap = service.telemetry_snapshot();
    assert_eq!(snap.len(), 6);
    for r in &snap {
        // Batch members finish in any order: the ring holds, in recording
        // order, exactly the records the tickets delivered.
        assert!(delivered.contains(r), "{r:?} was delivered to no ticket");
        assert_eq!(r.routine, routine);
        assert_eq!(r.dims.a(), 32);
        assert_eq!(r.dims.b(), 24);
        assert!(r.model_backed);
        assert!(r.predicted_secs > 0.0);
        assert!(r.observed_secs >= 0.0);
        assert_eq!(r.batch_size, 6);
    }
}

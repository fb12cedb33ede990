//! Fault tolerance end to end: a live `Service` over a seeded
//! `FaultBackend`. Transient faults are retried to success with
//! exactly-once settlement, fatal faults settle typed without retry, a
//! wedged cell is detected, drained, and restarted with per-tenant FIFO
//! preserved across the re-home (the only end-to-end check of the real
//! supervisor's drain-and-rehome), the circuit breaker trips to brownout
//! (Batch shed, Interactive served) and recovers through half-open, and
//! deadlines reject, sweep, and time out on every path.

// Outside the Miri subset: drives a live Service (OS worker threads).
#![cfg(not(miri))]

use adsala::runtime::Adsala;
use adsala_blas3::fault::{FaultBackend, FaultKind, FaultRule, FaultTarget};
use adsala_blas3::op::{Dims, Routine};
use adsala_blas3::{
    Blas3Backend, Blas3Error, Matrix, NativeBackend, OpKind, OwnedOp, Precision, ReferenceBackend,
    Transpose,
};
use adsala_serve::{
    AnyOp, BreakerState, QosClass, RejectReason, ServeConfig, ServeError, Service, SubmitOptions,
    TenantConfig, Ticket,
};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn faulted_runtime(seed: u64, rules: Vec<FaultRule>) -> Adsala<FaultBackend<NativeBackend>> {
    Adsala::builder()
        .backend(FaultBackend::new(NativeBackend, seed, rules))
        .fallback_nt(2)
        .build()
        .expect("build runtime")
}

fn mat(m: usize, n: usize, seed: usize) -> Matrix<f64> {
    Matrix::from_fn(m, n, |i, j| {
        ((i * 31 + j * 17 + seed * 7) % 13) as f64 / 13.0 - 0.4
    })
}

fn gemm(m: usize, seed: usize) -> AnyOp {
    AnyOp::from(OwnedOp::Gemm {
        transa: Transpose::No,
        transb: Transpose::Yes,
        alpha: 1.0 + seed as f64 / 16.0,
        a: mat(m, m, seed),
        b: mat(m, m, seed + 1),
        beta: 0.5,
        c: mat(m, m, seed + 2),
    })
}

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

fn max_diff(a: &AnyOp, b: &AnyOp) -> f64 {
    match (a, b) {
        (AnyOp::F64(x), AnyOp::F64(y)) => x.output().max_abs_diff(y.output()),
        _ => panic!("precision mismatch"),
    }
}

#[test]
fn transient_faults_are_retried_to_success_with_exactly_once_settlement() {
    // A scripted schedule: exactly the 3rd, 8th, and 13th backend calls
    // fail transiently. Calls are sequential (one cell, singleton
    // batches), a retry is the immediately following call, and no two
    // scripted indices are adjacent — so every retry deterministically
    // succeeds and the retry counter is exact, not probabilistic.
    let rules = vec![
        FaultRule::new(FaultKind::Transient).window(2, 1),
        FaultRule::new(FaultKind::Transient).window(7, 1),
        FaultRule::new(FaultKind::Transient).window(12, 1),
    ];
    let service = Service::with_config(
        faulted_runtime(11, rules),
        ServeConfig {
            shards: 1,
            max_batch: 1,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    let client = service.client();

    let jobs: Vec<AnyOp> = (0..16).map(|i| gemm(32, i)).collect();
    let want: Vec<AnyOp> = jobs.iter().map(oracle).collect();
    let (tx, completions) = mpsc::channel();
    for (i, op) in jobs.iter().enumerate() {
        let tx = tx.clone();
        let ticket = client.submit(op.clone()).expect("within budget");
        ticket.on_complete(move |o| tx.send((i, o)).unwrap());
    }

    // Every job settles exactly once, successfully, with the faulted
    // calls' results still byte-for-byte against the serial oracle (a
    // transient fault fires before operands are written, so the retried
    // call starts from pristine inputs).
    let mut seen = vec![0u32; jobs.len()];
    for _ in 0..jobs.len() {
        let (token, outcome) = completions
            .recv_timeout(Duration::from_secs(30))
            .expect("service alive");
        let done = outcome.expect("job served");
        done.result.as_ref().expect("transient faults retried away");
        assert!(
            max_diff(&done.op, &want[token]) < 1e-9,
            "retried execution diverged from the reference oracle"
        );
        seen[token] += 1;
    }
    assert!(
        seen.iter().all(|&n| n == 1),
        "every ticket settles exactly once: {seen:?}"
    );

    let stats = service.stats();
    assert_eq!(stats.shards.iter().map(|s| s.served).sum::<u64>(), 16);
    let retries: u64 = stats.shards.iter().map(|s| s.retries).sum();
    assert_eq!(retries, 3, "one retry per scripted transient fault");
    assert_eq!(stats.breaker.trips, 0, "isolated transients never trip");
}

#[test]
fn a_fatal_fault_settles_typed_without_burning_retries() {
    // The 2nd call fails fatally: the job's ticket carries the typed
    // error, nothing is retried, and the cell keeps serving. Every ticket
    // delivers the job's record; the telemetry ring holds exactly the
    // records of the executions that succeeded.
    let rules = vec![FaultRule::new(FaultKind::Fatal).window(1, 1)];
    let service = Service::with_config(
        faulted_runtime(7, rules),
        ServeConfig {
            shards: 1,
            max_batch: 1,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    let client = service.client();

    let tickets: Vec<_> = (0..4)
        .map(|i| client.submit(gemm(24, i)).expect("within budget"))
        .collect();
    let mut records = Vec::new();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let done = ticket.wait().expect("settled, not dropped");
        assert_eq!(done.stats.client, client.id());
        assert_eq!(done.stats.dims, Dims::d3(24, 24, 24));
        records.push(done.stats);
        if i == 1 {
            assert!(
                matches!(
                    done.result,
                    Err(Blas3Error::BackendFault {
                        transient: false,
                        ..
                    })
                ),
                "fatal fault must surface typed: {:?}",
                done.result
            );
        } else {
            assert!(done.result.is_ok(), "job {i} unaffected");
        }
    }
    let failed = records.remove(1);
    let snap = service.telemetry_snapshot();
    assert_eq!(snap, records, "the ring holds what the tickets delivered");
    assert!(
        snap.iter().all(|r| r.seq != failed.seq),
        "a failed execution is no drift sample"
    );
    let stats = service.stats();
    assert_eq!(
        stats.shards.iter().map(|s| s.retries).sum::<u64>(),
        0,
        "fatal faults are not retried"
    );
}

#[test]
fn deadlines_reject_at_admission_sweep_in_queue_and_bound_waits() {
    let service = Service::with_config(
        faulted_runtime(3, Vec::new()),
        ServeConfig {
            shards: 1,
            fallback_gflops: 1.0,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    service.pause();
    let client = service.client();

    // Already-expired deadline: the admission feasibility check refuses
    // up front (predicted backlog + run time cannot fit in zero).
    let rejected = client
        .submit_with(
            gemm(32, 0),
            SubmitOptions {
                deadline: Some(Instant::now()),
            },
        )
        .unwrap_err();
    assert!(
        matches!(rejected.reason, RejectReason::DeadlineInfeasible { .. }),
        "expected DeadlineInfeasible, got {:?}",
        rejected.reason
    );

    // Feasible at admission but expires while queued (the service is
    // paused past the deadline): the lazy sweep settles it typed.
    let queued = client
        .submit_with(
            gemm(32, 1),
            SubmitOptions {
                deadline: Some(Instant::now() + Duration::from_millis(40)),
            },
        )
        .expect("feasible against an empty backlog");
    std::thread::sleep(Duration::from_millis(120));
    service.resume();
    assert_eq!(queued.wait().unwrap_err(), ServeError::DeadlineExceeded);
    let stats = service.stats();
    assert_eq!(stats.shards.iter().map(|s| s.expired_jobs).sum::<u64>(), 1);

    // wait_timeout bounds the caller even when the job itself has no
    // deadline: a paused queue simply never settles in time.
    service.pause();
    let parked = client.submit(gemm(32, 2)).expect("within budget");
    assert_eq!(
        parked.wait_timeout(Duration::from_millis(40)).unwrap_err(),
        ServeError::DeadlineExceeded
    );
    service.resume();
}

#[test]
fn a_wedged_cell_is_restarted_and_rehomed_tenants_keep_fifo_order() {
    // One scripted Latency hit wedges cell 1's scheduler inside the only
    // 96x96x96 call for 1.2s — far past the supervisor's 100 ms window
    // (4 sweeps of 25 ms). A cell serves only its own queues, so the *only*
    // way queued work escapes the wedged cell is the supervisor's
    // drain-and-rehome.
    let wedge = FaultRule::new(FaultKind::Latency(Duration::from_millis(1200)))
        .targeting(FaultTarget::shape(
            Routine::new(OpKind::Gemm, Precision::Double),
            Dims::d3(96, 96, 96),
        ))
        .window(0, 1);
    let service = Service::with_config(
        faulted_runtime(5, vec![wedge]),
        ServeConfig {
            shards: 2,
            max_batch: 1,
            fallback_gflops: 1.0,
            backlog_budget_secs: 1e9,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    service.pause();

    let pin = service.client_for(service.tenant(TenantConfig::default()));
    let wedged = service.client_for(service.tenant(TenantConfig::default()));
    let rehomed = service.client_for(service.tenant(TenantConfig::default()));
    let (tx, completions) = mpsc::channel();
    let forward = |ticket: Ticket, token: u64| {
        let tx = tx.clone();
        ticket.on_complete(move |o| tx.send((token, o)).unwrap());
    };

    // Deterministic placement while paused (cost-routed, all observable):
    // the pin's 128^3 job claims cell 0's backlog, so the wedge tenant
    // (96^3, then a small follow-up) and the re-homed tenant's stream all
    // home to cell 1.
    forward(pin.submit(gemm(128, 40)).expect("within budget"), 200);
    forward(wedged.submit(gemm(96, 0)).expect("within budget"), 0);
    forward(wedged.submit(gemm(32, 1)).expect("within budget"), 1);
    for i in 0..3u64 {
        let ticket = rehomed.submit(gemm(24, 10 + i as usize));
        forward(ticket.expect("within budget"), 100 + i);
    }
    service.resume();

    let mut wedged_tokens = Vec::new();
    let mut rehomed_tokens = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..6 {
        let (token, outcome) = completions
            .recv_timeout(Duration::from_secs(30))
            .expect("service alive");
        let done = outcome.expect("job served, not lost in the restart");
        assert!(done.result.is_ok(), "token {token}: {:?}", done.result);
        assert!(seen.insert(token), "token {token} delivered twice");
        match token {
            0..=99 => wedged_tokens.push(token),
            100..=199 => rehomed_tokens.push(token),
            _ => {}
        }
    }
    // Per-tenant FIFO survives both the wedge (the follow-up job waits
    // for the airborne one) and the drain-and-rehome (the moved stream
    // completes in submission order on its new cell).
    assert_eq!(wedged_tokens, vec![0, 1]);
    assert_eq!(rehomed_tokens, vec![100, 101, 102]);

    let stats = service.stats();
    let restarts: u64 = stats.shards.iter().map(|s| s.restarts).sum();
    assert!(restarts >= 1, "the wedged cell was never restarted");
    assert_eq!(
        stats.shards.iter().map(|s| s.served).sum::<u64>(),
        6,
        "restart must not lose a job"
    );
}

#[test]
fn breaker_trips_to_brownout_sheds_batch_and_recovers_half_open() {
    // The first eight calls fail fatally: the breaker trips on the eighth
    // consecutive failure. Everything after succeeds, so later executions
    // are the half-open probes.
    let rules = vec![FaultRule::new(FaultKind::Fatal).window(0, 8)];
    let service = Service::with_config(
        faulted_runtime(13, rules),
        ServeConfig {
            shards: 1,
            max_batch: 1,
            fallback_gflops: 1.0,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    service.pause();
    let batch = service.client_for(service.tenant(TenantConfig {
        qos: QosClass::Batch,
        ..Default::default()
    }));
    let vip = service.client_for(service.tenant(TenantConfig {
        qos: QosClass::Interactive,
        ..Default::default()
    }));

    // Ten Batch jobs queue while paused; the first eight will fail and
    // trip, which must shed the remaining two *from the queue*.
    let tickets: Vec<_> = (0..10)
        .map(|i| batch.submit(gemm(24, i)).expect("closed breaker admits"))
        .collect();
    service.resume();
    let mut outcomes = tickets.into_iter();
    for i in 0..8 {
        let done = outcomes.next().unwrap().wait().expect("settled");
        assert!(
            matches!(done.result, Err(Blas3Error::BackendFault { .. })),
            "job {i} was scripted to fail"
        );
    }
    for _ in 8..10 {
        assert_eq!(
            outcomes.next().unwrap().wait().unwrap_err(),
            ServeError::Shed,
            "queued Batch work is shed at the trip"
        );
    }

    // Brownout: Batch submissions bounce typed, Interactive still lands
    // and is served by the surviving capacity.
    let bounced = batch.submit(gemm(24, 10)).unwrap_err();
    assert!(
        matches!(bounced.reason, RejectReason::Brownout),
        "expected Brownout, got {:?}",
        bounced.reason
    );
    let served = vip
        .submit(gemm(24, 11))
        .expect("interactive flows through brownout")
        .wait()
        .expect("settled");
    assert!(served.result.is_ok());

    let stats = service.stats();
    assert_eq!(stats.breaker.trips, 1);
    assert_eq!(stats.shards.iter().map(|s| s.shed_jobs).sum::<u64>(), 2);

    // Past the 250 ms open window the next successes are probes; two of
    // them close the breaker and Batch admission returns.
    std::thread::sleep(Duration::from_millis(300));
    for i in 0..2 {
        let probe = vip
            .submit(gemm(24, 12 + i))
            .expect("probes admitted")
            .wait()
            .expect("settled");
        assert!(probe.result.is_ok());
    }
    assert_eq!(service.stats().breaker.state, BreakerState::Closed);
    let recovered = batch
        .submit(gemm(24, 14))
        .expect("closed breaker admits Batch again")
        .wait()
        .expect("settled");
    assert!(recovered.result.is_ok());
    assert_eq!(service.stats().breaker.trips, 1, "no second trip");
}

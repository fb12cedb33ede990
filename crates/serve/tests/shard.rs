//! Sharded-service behaviour: tenants sharing a cell against the
//! reference oracle, per-tenant FIFO order and home-cell placement, QoS
//! shedding, per-tenant budgets, the non-blocking completion frontend
//! under shutdown, and callback panics not wedging a scheduler cell.

// Outside the Miri subset: drives a live Service (OS worker threads).
#![cfg(not(miri))]

use adsala::runtime::Adsala;
use adsala_blas3::{Blas3Backend, Matrix, NativeBackend, OwnedOp, ReferenceBackend, Transpose};
use adsala_serve::{
    AnyOp, QosClass, RejectReason, ServeConfig, ServeError, Service, SubmitOptions, TenantConfig,
    Ticket,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn modelless_runtime() -> Adsala<NativeBackend> {
    Adsala::new(Vec::new(), 2)
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
fn tenants_sharing_a_cell_run_there_in_oracle_and_fifo_order() {
    // Skew a 3-cell service deterministically: heavy tenant A homes to
    // cell 0 (all backlogs zero), one large pin job each parks on cells 1
    // and 2, and heavy tenant B then also homes to cell 0 (now the
    // least-backlogged). The pins exist only to steer that placement and
    // never run: they carry a deadline that passes while the service is
    // still paused, so at resume cells 1 and 2 sweep them out and sit
    // idle beside cell 0's backlog.
    let heavy_jobs = 8;
    let service = Service::with_config(
        modelless_runtime(),
        ServeConfig {
            shards: 3,
            // Singleton batches: completion order per tenant is then the
            // strictest possible FIFO claim.
            max_batch: 1,
            backlog_budget_secs: 1e9,
            queue_capacity: 4096,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    assert_eq!(service.shards(), 3);

    let heavy_a = service.client_for(service.tenant(TenantConfig::default()));
    let heavy_b = service.client_for(service.tenant(TenantConfig::default()));
    let pin_1 = service.client_for(service.tenant(TenantConfig::default()));
    let pin_2 = service.client_for(service.tenant(TenantConfig::default()));

    service.pause();
    let streams: Vec<Vec<AnyOp>> = vec![
        (0..heavy_jobs).map(|i| gemm(96, i)).collect(),
        (0..heavy_jobs).map(|i| gemm(96, 100 + i)).collect(),
    ];
    let want: Vec<Vec<AnyOp>> = streams
        .iter()
        .map(|ops| ops.iter().map(oracle).collect())
        .collect();
    let (tx, completions) = mpsc::channel();
    let forward = |ticket: Ticket, token: usize| {
        let tx = tx.clone();
        ticket.on_complete(move |o| tx.send((token, o)).unwrap());
    };
    // Tenant A fills cell 0, the pins claim cells 1 and 2 (one 256^3 job
    // outweighs A's whole 96^3 stream), then tenant B joins cell 0.
    for (i, op) in streams[0].iter().enumerate() {
        forward(heavy_a.submit(op.clone()).expect("within budget"), i);
    }
    // Predicted at 33 ms each (1 Gflop/s fallback): feasible at admission,
    // expired by the time the service resumes.
    let pins_expire = Instant::now() + Duration::from_millis(300);
    let expiring = SubmitOptions {
        deadline: Some(pins_expire),
    };
    let pins = vec![
        pin_1
            .submit_with(gemm(256, 40), expiring)
            .expect("feasible"),
        pin_2
            .submit_with(gemm(256, 41), expiring)
            .expect("feasible"),
    ];
    for (i, op) in streams[1].iter().enumerate() {
        forward(heavy_b.submit(op.clone()).expect("within budget"), 1000 + i);
    }
    std::thread::sleep(pins_expire.saturating_duration_since(Instant::now()));
    service.resume();

    for t in pins {
        assert_eq!(t.wait().unwrap_err(), ServeError::DeadlineExceeded);
    }
    // Both heavy tenants' completions arrive in per-tenant submission
    // order, every result matches the serial reference oracle, and every
    // job ran on cell 0, the tenants' home, while cells 1 and 2 idled.
    let mut tokens: Vec<Vec<u64>> = vec![Vec::new(), Vec::new()];
    let mut shards: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); 2];
    for _ in 0..2 * heavy_jobs {
        let (token, outcome) = completions
            .recv_timeout(Duration::from_secs(30))
            .expect("service alive");
        let (tenant, idx) = (token / 1000, token % 1000);
        let done = outcome.expect("job served");
        assert!(done.result.is_ok());
        shards[tenant].insert(done.stats.shard);
        assert!(
            max_diff(&done.op, &want[tenant][idx]) < 1e-9,
            "execution diverged from the reference oracle"
        );
        tokens[tenant].push(idx as u64);
    }
    let sorted: Vec<u64> = (0..heavy_jobs as u64).collect();
    for (tenant, seen) in tokens.iter().enumerate() {
        assert_eq!(
            seen, &sorted,
            "tenant {tenant}: completion order must follow submission order"
        );
        assert_eq!(
            shards[tenant],
            [0].into(),
            "tenant {tenant}: every job runs on its home cell"
        );
    }
}

#[test]
fn qos_shedding_evicts_the_cheapest_lower_class_job_for_interactive_work() {
    let service = Service::with_config(
        modelless_runtime(),
        ServeConfig {
            shards: 1,
            backlog_budget_secs: 9e-4,
            fallback_gflops: 1.0,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    service.pause();
    let batch_a = service.client_for(service.tenant(TenantConfig {
        qos: QosClass::Batch,
        ..Default::default()
    }));
    let batch_b = service.client_for(service.tenant(TenantConfig {
        qos: QosClass::Batch,
        ..Default::default()
    }));
    let vip = service.client_for(service.tenant(TenantConfig {
        qos: QosClass::Interactive,
        ..Default::default()
    }));

    // 2*64^3/1e9 = 5.24e-4s and 2*48^3/1e9 = 2.21e-4s at 1 Gflop/s.
    let expensive = batch_a.submit(gemm(64, 0)).expect("within budget");
    let cheap = batch_b.submit(gemm(48, 1)).expect("within budget");

    // Infeasible even with full shedding: rejected up front, nothing shed.
    let huge = vip.submit(gemm(128, 2)).unwrap_err();
    assert!(matches!(huge.reason, RejectReason::BudgetExceeded { .. }));
    assert_eq!(service.pending_jobs(), 2, "infeasible reject must not shed");

    // Feasible after shedding: the cheapest Batch-class tail goes first.
    let served = vip.submit(gemm(48, 3)).expect("sheds to make room");
    assert_eq!(
        cheap.wait().unwrap_err(),
        ServeError::Shed,
        "the cheaper batch job is the one shed"
    );

    service.resume();
    let vip_done = served.wait().unwrap();
    assert!(vip_done.result.is_ok());
    let batch_done = expensive.wait().unwrap();
    assert!(batch_done.result.is_ok());

    // Strict lane priority: the interactive job ran before the batch job
    // that was queued first.
    let order: Vec<u64> = service
        .telemetry_snapshot()
        .iter()
        .map(|r| r.tenant.0)
        .collect();
    assert_eq!(order.first(), Some(&vip.tenant_id().0));

    let stats = service.stats();
    assert_eq!(stats.shards[0].shed_jobs, 1);
}

#[test]
fn tenant_backlog_budgets_are_enforced_independently() {
    let service = Service::with_config(
        modelless_runtime(),
        ServeConfig {
            shards: 1,
            fallback_gflops: 1.0,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    service.pause();
    let capped = service.client_for(service.tenant(TenantConfig {
        backlog_budget_secs: 6e-4,
        ..Default::default()
    }));
    let free = service.client();

    let first = capped.submit(gemm(64, 0)).expect("first fits the budget");
    let rejected = capped.submit(gemm(64, 1)).unwrap_err();
    match rejected.reason {
        RejectReason::TenantBudgetExceeded {
            tenant,
            budget_secs,
            ..
        } => {
            assert_eq!(tenant, capped.tenant_id());
            assert_eq!(budget_secs, 6e-4);
        }
        other => panic!("expected TenantBudgetExceeded, got {other:?}"),
    }
    // The global budget is untouched: another tenant still gets in.
    let other = free.submit(gemm(64, 2)).expect("global budget has room");

    service.resume();
    first.wait().unwrap();
    let done = other.wait().unwrap();
    assert!(done.result.is_ok());

    // Settled backlog frees the tenant's budget again.
    let retry = capped
        .submit(gemm(64, 3))
        .expect("budget freed after serve");
    retry.wait().unwrap();
}

#[test]
fn a_panicking_callback_does_not_wedge_its_scheduler_cell() {
    let service = Service::with_config(
        modelless_runtime(),
        ServeConfig {
            shards: 1,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    let client = service.client();

    let fired = Arc::new(AtomicU64::new(0));
    let fired_cb = Arc::clone(&fired);
    client.submit(gemm(16, 0)).unwrap().on_complete(move |_| {
        fired_cb.fetch_add(1, Ordering::SeqCst);
        panic!("completion callback blew up");
    });

    // The cell that caught the panic keeps serving.
    for i in 1..4 {
        let done = client.submit(gemm(16, i)).unwrap().wait().unwrap();
        assert!(done.result.is_ok());
    }
    assert_eq!(fired.load(Ordering::SeqCst), 1);
    let stats = service.stats();
    assert_eq!(stats.shards[0].callback_panics, 1);
    assert_eq!(stats.shards[0].served, 4);
}

#[test]
fn shard_count_resolution_prefers_explicit_config_over_the_env_override() {
    // Explicit shard counts win even when ADSALA_TEST_SHARDS is set (the
    // CI matrix must not rewrite tests that pin a count).
    std::env::set_var("ADSALA_TEST_SHARDS", "2");
    let pinned = Service::with_config(
        modelless_runtime(),
        ServeConfig {
            shards: 5,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    assert_eq!(pinned.shards(), 5);
    assert_eq!(pinned.stats().shards.len(), 5);

    let from_env = Service::new(modelless_runtime()).expect("spawn scheduler cells");
    assert_eq!(from_env.shards(), 2);
    std::env::remove_var("ADSALA_TEST_SHARDS");
}

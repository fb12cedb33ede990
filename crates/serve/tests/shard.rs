//! Sharded-service behaviour: cross-cell work stealing against the
//! reference oracle, per-tenant FIFO order under stealing, QoS shedding,
//! per-tenant budgets, the non-blocking completion frontend under
//! shutdown, and callback panics not wedging a scheduler cell.

// Outside the Miri subset: drives a live Service (OS worker threads).
#![cfg(not(miri))]

use adsala::runtime::Adsala;
use adsala_blas3::fault::{FaultBackend, FaultKind, FaultRule, FaultTarget};
use adsala_blas3::op::{Dims, OpKind, Precision, Routine};
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

/// One skewed round on a paused 3-cell service. Per-tenant FIFO keeps at
/// most one batch per tenant in the air, so a *lone* tenant's queue is
/// never stealable while its own cell serves it — skew that thieves can
/// fix means a cell hosting several backlogged tenants. This arranges
/// exactly that deterministically: heavy tenant A homes to cell 0 (all
/// backlogs zero), one large pin job each parks on cells 1 and 2, and
/// heavy tenant B then also homes to cell 0 (now the least-backlogged).
/// The pins exist only to steer that placement and never run: they carry
/// a deadline that passes while the service is still paused, so at
/// resume cells 1 and 2 sweep them out and are idle at once, whatever a
/// 256-cube gemm costs in this build (137 ms in a debug one — more than
/// cell 0's whole backlog). They then steal from cell 0 — *provided
/// cell 0 is still backlogged*, which the caller's backend makes true by
/// construction (see the test).
/// Returns the number of batches stolen during the round.
fn skewed_round<B: Blas3Backend + 'static>(service: &Service<B>, heavy_jobs: usize) -> u64 {
    let stolen_before: u64 = service
        .stats()
        .shards
        .iter()
        .map(|s| s.stolen_batches)
        .sum();

    let heavy_a = service.client_for(service.tenant(TenantConfig::default()));
    let heavy_b = service.client_for(service.tenant(TenantConfig::default()));
    let pin_1 = service.client_for(service.tenant(TenantConfig::default()));
    let pin_2 = service.client_for(service.tenant(TenantConfig::default()));

    service.pause();
    let streams: Vec<(u64, Vec<AnyOp>)> = vec![
        (0, (0..heavy_jobs).map(|i| gemm(96, i)).collect()),
        (1, (0..heavy_jobs).map(|i| gemm(96, 100 + i)).collect()),
    ];
    let want: Vec<Vec<AnyOp>> = streams
        .iter()
        .map(|(_, ops)| ops.iter().map(oracle).collect())
        .collect();
    let (tx, completions) = mpsc::channel();
    let forward = |ticket: Ticket, token: usize| {
        let tx = tx.clone();
        ticket.on_complete(move |o| tx.send((token, o)).unwrap());
    };
    // Tenant A fills cell 0, the pins claim cells 1 and 2 (one 256^3 job
    // outweighs A's whole 96^3 stream), then tenant B joins cell 0.
    for (i, op) in streams[0].1.iter().enumerate() {
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
    for (i, op) in streams[1].1.iter().enumerate() {
        forward(heavy_b.submit(op.clone()).expect("within budget"), 1000 + i);
    }
    std::thread::sleep(pins_expire.saturating_duration_since(Instant::now()));
    service.resume();

    for t in pins {
        assert_eq!(t.wait().unwrap_err(), ServeError::DeadlineExceeded);
    }
    // Both heavy tenants' completions arrive in per-tenant submission
    // order even when idle cells steal batches mid-stream, and every
    // result matches the serial reference oracle.
    let mut tokens: Vec<Vec<u64>> = vec![Vec::new(), Vec::new()];
    let mut shards_seen = std::collections::BTreeSet::new();
    for _ in 0..2 * heavy_jobs {
        let (token, outcome) = completions
            .recv_timeout(Duration::from_secs(30))
            .expect("service alive");
        let (tenant, idx) = (token / 1000, token % 1000);
        let done = outcome.expect("job served");
        assert!(done.result.is_ok());
        shards_seen.insert(done.stats.shard);
        assert!(
            max_diff(&done.op, &want[tenant][idx]) < 1e-9,
            "stolen execution diverged from the reference oracle"
        );
        tokens[tenant].push(idx as u64);
    }
    let sorted: Vec<u64> = (0..heavy_jobs as u64).collect();
    for (tenant, seen) in tokens.iter().enumerate() {
        assert_eq!(
            seen, &sorted,
            "tenant {tenant}: completion order must follow submission order"
        );
    }

    let stolen_after: u64 = service
        .stats()
        .shards
        .iter()
        .map(|s| s.stolen_batches)
        .sum();
    let stolen = stolen_after - stolen_before;
    if stolen > 0 {
        assert!(
            shards_seen.len() > 1,
            "a stolen batch must execute on a cell other than the home cell"
        );
    }
    stolen
}

#[test]
fn cross_shard_steal_preserves_oracle_results_and_tenant_fifo_order() {
    // The skew has to *hold* for a steal to be possible: cells 1 and 2 must
    // be idle while cell 0 still has both heavy tenants queued. Left to the
    // kernels that is a race (in a release build sixteen 96-cube gemms take
    // about a millisecond, barely longer than a thief's poll tick), so a
    // fault schedule decides it: every 96-cube gemm — the pins are another
    // shape, and never run anyway (see `skewed_round`) — is held for 5 ms
    // before it runs. Cell 0 then has at least 80 ms of backlog in front of
    // two cells that are idle from the moment the service resumes, and one
    // round suffices. Faults fire before the inner backend, so the operands
    // and the oracle comparison are untouched.
    let slow_heavy =
        FaultRule::new(FaultKind::Latency(Duration::from_millis(5))).targeting(FaultTarget::shape(
            Routine::new(OpKind::Gemm, Precision::Double),
            Dims::d3(96, 96, 96),
        ));
    let runtime = Adsala::builder()
        .backend(FaultBackend::new(NativeBackend, 1, vec![slow_heavy]))
        .fallback_nt(2)
        .build()
        .expect("build runtime");
    let service = Service::with_config(
        runtime,
        ServeConfig {
            shards: 3,
            // Singleton batches: completion order per tenant is then the
            // strictest possible FIFO claim, steal or no steal.
            max_batch: 1,
            backlog_budget_secs: 1e9,
            queue_capacity: 4096,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    assert_eq!(service.shards(), 3);

    // Order and oracle equivalence are asserted inside the round.
    let stolen = skewed_round(&service, 8);
    assert!(
        stolen > 0,
        "idle cells never stole from a cell holding ~80 ms of backlog"
    );
    let stats = service.stats();
    let donated: u64 = stats.shards.iter().map(|s| s.donated_batches).sum();
    assert_eq!(stolen, donated, "every steal has a matching donation");
}

#[test]
fn disabling_steal_pins_every_job_to_its_home_cell() {
    let service = Service::with_config(
        modelless_runtime(),
        ServeConfig {
            shards: 2,
            steal: false,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    service.pause();
    let client = service.client();
    let tickets: Vec<_> = (0..6)
        .map(|i| client.submit(gemm(24, i)).unwrap())
        .collect();
    service.resume();
    let mut shards = std::collections::BTreeSet::new();
    for t in tickets {
        shards.insert(t.wait().unwrap().stats.shard);
    }
    assert_eq!(shards.len(), 1, "steal disabled: one tenant, one cell");
    let stats = service.stats();
    assert!(stats.shards.iter().all(|s| s.stolen_batches == 0));
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

//! The serve spec in its smallest form: 48 seeded cases over a live
//! `Service` (shards, `max_batch`, transient faults, budgets across the
//! QoS classes, a paused start, 200 µs deadlines), each checked for
//! exactly-once settlement, per-tenant FIFO, `served` and budget
//! conservation. Jobs run one thread wide (`fallback_nt(1)`), so a batch
//! runs its jobs one after another and a tenant's completion order is its
//! start order: per-tenant FIFO is about the `stats.seq` stamped at the end
//! of each job. The block fails if a mechanism never fired.

// Outside the Miri subset: drives a live Service (OS worker threads).
#![cfg(not(miri))]

use adsala::runtime::Adsala;
use adsala_blas3::fault::{FaultBackend, FaultKind, FaultRule};
use adsala_blas3::{Matrix, OwnedOp, ReferenceBackend, Transpose};
use adsala_serve::{
    AnyOp, QosClass, ServeConfig, ServeError, Service, ShardStats, SubmitOptions, TenantConfig,
};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Fallback price of an 8-cube gemm. Finite tenant budgets are `n + 0.5`
/// of these: one leaked job fails the probe, nanosecond rounding cannot.
const UNIT: f64 = 1024e-9;

fn gemm(m: usize) -> AnyOp {
    AnyOp::from(OwnedOp::Gemm {
        transa: Transpose::No,
        transb: Transpose::No,
        alpha: 1.0,
        a: Matrix::<f64>::zeros(m, m),
        b: Matrix::<f64>::zeros(m, m),
        beta: 0.0,
        c: Matrix::<f64>::zeros(m, m),
    })
}

/// One case; returns `[admitted, shed, expired, retries, rejected]`.
fn run_case(seed: u64) -> [u64; 5] {
    let mut state = seed; // SplitMix64
    let mut below = |n: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    // Transients on scripted, spaced calls: each one is retried, and no
    // run of failures comes near the breaker's eight in a row.
    let mut at = 0;
    let faults = (0..12 * below(2))
        .map(|_| {
            at += 3 + below(4) as u64;
            FaultRule::new(FaultKind::Transient).window(at, 1)
        })
        .collect();
    let runtime = Adsala::builder()
        .backend(FaultBackend::new(ReferenceBackend, seed, faults))
        .fallback_nt(1)
        .build()
        .expect("build runtime");
    let cfg = ServeConfig {
        shards: 1 + below(3),
        max_batch: 1 + below(4),
        backlog_budget_secs: [48.5 * UNIT, 1.0][below(2)],
        ..Default::default()
    };
    let service = Service::with_config(runtime, cfg).expect("spawn scheduler cells");
    let paused = below(2) == 0;
    if paused {
        service.pause();
    }
    let qos = [QosClass::Interactive, QosClass::Standard, QosClass::Batch];
    let tenants: Vec<_> = (0..4)
        .map(|i| {
            let budget = [6.5 * UNIT, 40.5 * UNIT, f64::INFINITY][below(3)];
            let qos = qos[(i + below(2)) % 3];
            let tenant = service.tenant(TenantConfig {
                qos,
                backlog_budget_secs: budget,
            });
            (service.client_for(tenant), budget)
        })
        .collect();

    // One submitting thread: token order is each tenant's submission order.
    let (tx, completions) = mpsc::channel();
    let (mut owner, mut rejected) = (Vec::new(), 0);
    for i in 0..40 {
        if paused && i == 20 {
            service.resume();
        }
        let t = below(tenants.len());
        let ops = (0..1 + below(3)).map(|_| gemm([8, 12][below(2)])).collect();
        let deadline = (below(4) == 0).then(|| Instant::now() + Duration::from_micros(200));
        let (client, _) = &tenants[t];
        match client.submit_batch_with(ops, SubmitOptions { deadline }) {
            Ok(tickets) => tickets.into_iter().for_each(|ticket| {
                let (tx, token) = (tx.clone(), owner.len());
                ticket.on_complete(move |o| tx.send((token, o)).unwrap());
                owner.push(t);
            }),
            Err(_) => rejected += 1,
        }
    }
    service.resume();

    // Exactly once, and per-tenant FIFO over the successful jobs.
    let mut arrivals = vec![0; owner.len()];
    let mut started = vec![Vec::new(); tenants.len()];
    let (mut ok, mut shed, mut expired) = (0, 0, 0);
    for _ in 0..owner.len() {
        let (token, outcome) = completions
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("case {seed}: an admitted job never settled"));
        arrivals[token] += 1;
        match outcome {
            Ok(done) if done.result.is_ok() => {
                ok += 1;
                started[owner[token]].push((token, done.stats.seq));
            }
            // Retries ran out: the backend's error is the settlement.
            Ok(_) => {}
            Err(ServeError::Shed) => shed += 1,
            Err(ServeError::DeadlineExceeded) => expired += 1,
            Err(e) => panic!("case {seed}, token {token}: {e:?}"),
        }
    }
    let once = arrivals.iter().all(|&n| n == 1);
    assert!(once, "case {seed}: {arrivals:?}");
    for (t, mut jobs) in started.into_iter().enumerate() {
        jobs.sort_unstable();
        let fifo = jobs.windows(2).all(|w| w[0].1 < w[1].1);
        assert!(fifo, "case {seed}, tenant {t}: (token, seq) {jobs:?}");
    }
    let stats = service.stats();
    let total = |f: fn(&ShardStats) -> u64| stats.shards.iter().map(f).sum::<u64>();
    assert_eq!(total(|s| s.served), ok, "case {seed}: served");
    assert_eq!(total(|s| s.shed_jobs), shed, "case {seed}: shed");
    assert_eq!(total(|s| s.expired_jobs), expired, "case {seed}: expired");

    // Budget conservation: nothing queued, nothing priced, and each
    // finite-budget tenant can spend its whole budget again.
    assert_eq!(service.pending_jobs(), 0, "case {seed}");
    assert_eq!(service.backlog_secs(), 0.0, "case {seed}");
    for (t, (client, budget)) in tenants.iter().enumerate() {
        if budget.is_infinite() {
            continue;
        }
        let probe = (0..(budget / UNIT) as usize).map(|_| gemm(8)).collect();
        let admitted = client.submit_batch(probe);
        let tickets = admitted.unwrap_or_else(|r| panic!("case {seed}, tenant {t}: {}", r.reason));
        for ticket in tickets {
            ticket.wait().expect("probe settled");
        }
    }
    drop((tenants, service));
    let extra = completions.try_recv();
    assert!(extra.is_err(), "case {seed}: an extra settlement");
    let retries = total(|s| s.retries);
    [owner.len() as u64, shed, expired, retries, rejected]
}

#[test]
fn every_case_settles_once_in_tenant_order_and_gives_its_budget_back() {
    let mut totals = [0; 5];
    for case in 0..48 {
        for (sum, n) in totals.iter_mut().zip(run_case(case)) {
            *sum += n;
        }
    }
    println!("spec block (admitted, shed, expired, retries, rejected): {totals:?}");
    assert!(totals.iter().all(|&n| n > 0), "a mechanism never fired");
}

//! In a `--features chaos` build every lock acquisition is order-checked
//! where it is taken, on real threads too (see `adsala_blas3::sync`): a
//! nesting that could deadlock panics, and every nesting taken is kept as
//! an edge. Admission nests a cell's state lock and the breaker's lock
//! under the admission lock; this pins that the check sees both.
#![cfg(all(feature = "chaos", not(miri)))]

use adsala::runtime::Adsala;
use adsala_blas3::{Matrix, NativeBackend, OwnedOp, Transpose};
use adsala_serve::{AnyOp, QosClass, ServeConfig, ServeError, Service, TenantConfig};

fn gemm(n: usize) -> AnyOp {
    AnyOp::from(OwnedOp::Gemm {
        transa: Transpose::No,
        transb: Transpose::No,
        alpha: 1.0,
        a: Matrix::<f64>::zeros(n, n),
        b: Matrix::<f64>::zeros(n, n),
        beta: 0.0,
        c: Matrix::<f64>::zeros(n, n),
    })
}

/// Whether some thread took a lock created in `taken` while holding one
/// created in `held` (both file names).
fn nested(held: &str, taken: &str) -> bool {
    adsala_blas3::sync::lock_edges()
        .iter()
        .any(|(h, t)| h.file().ends_with(held) && t.file().ends_with(taken))
}

#[test]
fn a_shedding_submission_nests_cell_state_under_admission() {
    // No installed model: a 32-cube dgemm is priced at 65.5 us by the
    // 1 GFLOP/s fallback, so one job fits the 100 us budget and two do not.
    let config = ServeConfig {
        shards: 1,
        backlog_budget_secs: 1e-4,
        fallback_gflops: 1.0,
        ..Default::default()
    };
    let service: Service<NativeBackend> =
        Service::with_config(Adsala::new(Vec::new(), 1), config).expect("spawn cells");
    service.pause();
    let tenant = |qos| {
        service.client_for(service.tenant(TenantConfig {
            qos,
            ..Default::default()
        }))
    };
    let victim = tenant(QosClass::Batch)
        .submit(gemm(32))
        .expect("fits the budget");
    tenant(QosClass::Interactive)
        .submit(gemm(32))
        .expect("admitted by shedding the batch job");
    assert_eq!(victim.wait().unwrap_err(), ServeError::Shed);

    let edges = adsala_blas3::sync::lock_edges();
    assert!(nested("service.rs", "cell.rs"), "{edges:?}");
    assert!(nested("service.rs", "supervisor.rs"), "{edges:?}");
}

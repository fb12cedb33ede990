//! A `--features chaos` build of this crate, with no scheduler run in
//! sight: the completion slot's `Mutex` and `Condvar` are the
//! interleaving checker's wrappers here, and on every thread that is not
//! one of the checker's model threads — a client, a scheduler cell —
//! they must behave exactly like the `std` primitives they hold. So: a
//! live service, real threads, every way of consuming a ticket.
//!
//! (The scenarios that *do* run under the scheduler need the private
//! slot, so they live beside it: `cargo test -p adsala-serve --features
//! chaos --lib completion`.)
#![cfg(all(feature = "chaos", not(miri)))]

use adsala::runtime::Adsala;
use adsala_blas3::{Matrix, NativeBackend, OwnedOp, Transpose};
use adsala_serve::{AnyOp, ServeConfig, ServeError, Service};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

fn gemm(n: usize) -> AnyOp {
    AnyOp::from(OwnedOp::Gemm {
        transa: Transpose::No,
        transb: Transpose::No,
        alpha: 1.0,
        a: Matrix::<f64>::from_fn(n, n, |i, j| (i + 2 * j) as f64),
        b: Matrix::<f64>::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 }),
        beta: 0.0,
        c: Matrix::<f64>::zeros(n, n),
    })
}

fn service(shards: usize) -> Service<NativeBackend> {
    let config = ServeConfig {
        shards,
        ..Default::default()
    };
    Service::with_config(Adsala::new(Vec::new(), 2), config).expect("spawn scheduler cells")
}

#[test]
fn the_facade_is_not_running_under_a_scheduler_here() {
    assert!(adsala_blas3::chaos::current().is_none());
}

#[test]
fn every_way_of_consuming_a_ticket_works_on_real_threads() {
    let service = service(2);
    let client = service.client();

    // Blocking wait, bounded wait.
    assert!(client.submit(gemm(24)).unwrap().wait().is_ok());
    let bounded = client.submit(gemm(24)).unwrap();
    assert!(bounded.wait_timeout(Duration::from_secs(30)).is_ok());

    // Callbacks, run by the cell threads that finish the jobs, fanned into
    // one channel and drained with a bound: each job delivers exactly
    // once, and the channel closes when the last callback has run.
    let (tx, rx) = mpsc::channel();
    for token in 0..16 {
        let tx = tx.clone();
        client
            .submit(gemm(8 + token))
            .unwrap()
            .on_complete(move |o| tx.send((token, o)).unwrap());
    }
    drop(tx);
    let mut tokens = Vec::new();
    loop {
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok((token, outcome)) => {
                assert!(outcome.unwrap().result.is_ok());
                tokens.push(token);
            }
            Err(RecvTimeoutError::Timeout) => panic!("a job never settled: {tokens:?}"),
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    tokens.sort_unstable();
    assert_eq!(tokens, (0..16).collect::<Vec<_>>());
}

#[test]
fn shutdown_releases_a_parked_waiter_on_real_threads() {
    let service = service(1);
    service.pause();
    let ticket = service.client().submit(gemm(16)).unwrap();
    let waiter = std::thread::spawn(move || ticket.wait());
    std::thread::sleep(Duration::from_millis(20));
    drop(service);
    assert_eq!(
        waiter.join().unwrap().unwrap_err(),
        ServeError::ServiceStopped
    );
}

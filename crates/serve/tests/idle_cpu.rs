//! An idle service burns no CPU: a cell's scheduler and its pool's workers
//! spin only right after a batch, and an empty cell parks until it is
//! told, so once a burst of jobs is over only the supervisor's sweeps
//! wake the service. Alone in its file — its own test process — so no
//! other test's threads count in the process's CPU time.
#![cfg(all(target_os = "linux", not(miri)))]

use adsala::runtime::Adsala;
use adsala_blas3::{Matrix, OwnedOp, Transpose};
use adsala_serve::{ServeConfig, Service};
use std::time::Duration;

/// CPU time every thread of this process has used so far, in nanoseconds:
/// the first field of each thread's `schedstat`. (`/proc/self/stat` counts
/// in clock ticks of 10 ms, too coarse for a 2 ms bound.)
fn process_cpu_ns() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs is mounted");
    tasks
        .map(|task| {
            let path = task.expect("a task entry").path().join("schedstat");
            let stat = std::fs::read_to_string(path).expect("a thread's schedstat");
            let ns = stat.split_whitespace().next().expect("a run-time field");
            ns.parse::<u64>().expect("nanoseconds")
        })
        .sum()
}

/// Serve a burst of 500 jobs one at a time on a `shards`-cell service,
/// then return the CPU time the process used over a 200 ms idle window.
/// The service is dropped, and its threads joined, before this returns.
fn idle_cpu_ns_after_a_burst(shards: usize) -> u64 {
    // No installed model: every job runs at the fallback two threads, so
    // the burst wakes the cell's pool as well as its scheduler.
    let config = ServeConfig {
        shards,
        ..Default::default()
    };
    let service = Service::with_config(Adsala::new(Vec::new(), 2), config).expect("spawn cells");
    let client = service.client();
    for _ in 0..500 {
        let op = OwnedOp::Gemm {
            transa: Transpose::No,
            transb: Transpose::No,
            alpha: 1.0,
            a: Matrix::<f64>::zeros(16, 16),
            b: Matrix::<f64>::zeros(16, 16),
            beta: 0.0,
            c: Matrix::<f64>::zeros(16, 16),
        };
        let ticket = client.submit(op).expect("admitted");
        ticket.wait().expect("served");
    }
    // A running thread's `schedstat` lags until it is next scheduled:
    // yield so this one's burst is counted before the window opens.
    std::thread::yield_now();
    let before = process_cpu_ns();
    std::thread::sleep(Duration::from_millis(200));
    process_cpu_ns().saturating_sub(before)
}

#[test]
fn an_idle_service_uses_no_cpu_after_a_burst() {
    // One cell, then three: a multi-cell service's empty cells must sleep
    // as soundly as a lone one.
    for shards in [1, 3] {
        let used = idle_cpu_ns_after_a_burst(shards);
        assert!(
            used < 2_000_000,
            "an idle {shards}-cell service used {used} ns of CPU in a 200 ms window"
        );
    }
}

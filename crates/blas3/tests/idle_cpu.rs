//! An idle pool burns no CPU: a worker spins only right after a job, and
//! a caller only while its own call waits, so once a burst of calls is
//! over every thread sleeps. Alone in its file — its own test process — so
//! no other test's threads count in the process's CPU time.
#![cfg(all(target_os = "linux", not(miri)))]

use adsala_blas3::ThreadPool;
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

#[test]
fn an_idle_pool_uses_no_cpu_after_a_burst() {
    let pool = ThreadPool::with_max_workers(1);
    for _ in 0..2000 {
        pool.run(2, |tid| {
            std::hint::black_box(tid);
        });
    }
    // A running thread's `schedstat` lags until it is next scheduled:
    // yield so this one's burst is counted before the window opens.
    std::thread::yield_now();
    let before = process_cpu_ns();
    std::thread::sleep(Duration::from_millis(200));
    let used = process_cpu_ns().saturating_sub(before);
    assert!(
        used < 2_000_000,
        "an idle pool used {used} ns of CPU in a 200 ms window"
    );
}

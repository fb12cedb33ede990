//! Trace-driven open-loop load generator for the sharded service layer.
//!
//! A fixed, seeded trace of Poisson arrivals over a skewed tenant
//! population (one hot tenant holds ~40% of the traffic) is replayed
//! against the service at shard counts {1, 2, 4}. Arrivals are open-loop:
//! each job is submitted at its scheduled trace time whether or not
//! earlier jobs finished, so queueing delay is measured instead of hidden
//! (no coordinated omission). Latency is completion time minus *scheduled*
//! arrival; rejected submissions count against the rejection rate and
//! record no latency.
//!
//! The offered rate is calibrated on the host to ~1.3x what a single cell
//! can serve, so one shard saturates (admission control sheds the excess)
//! while two and four shards absorb the same trace — the sharding win
//! shows up as throughput and tail latency, not as a tuned constant.
//!
//! **Results are written to `BENCH_serve.json` and `BENCH_faults.json` at
//! the repo root** — re-running the bench refreshes the recorded numbers
//! the README cites. Set `ADSALA_BENCH_SMOKE=1` for a short CI smoke trace
//! (same pipeline, ~10x fewer arrivals) that prints its results and writes
//! neither file, so the committed full-run records stay intact.

use adsala::runtime::Adsala;
use adsala_blas3::fault::{FaultBackend, FaultKind, FaultRule};
use adsala_blas3::{Blas3Backend, Matrix, NativeBackend, OwnedOp, ThreadPool, Transpose};
use adsala_serve::{AnyOp, ServeConfig, Service, TenantConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const TENANTS: usize = 8;
/// Traffic share of each tenant: tenant 0 is hot, tenant 1 warm, the
/// rest split the remainder evenly.
const TENANT_SHARE: [f64; TENANTS] = [0.40, 0.15, 0.075, 0.075, 0.075, 0.075, 0.075, 0.075];
/// Square gemm sizes in the op mix and their traffic shares.
const SHAPES: [usize; 3] = [64, 96, 128];
const SHAPE_SHARE: [f64; 3] = [0.50, 0.30, 0.20];
/// Offered load relative to measured single-cell capacity.
const OVERLOAD: f64 = 1.3;
/// Global predicted-seconds admission budget: with `fallback_gflops`
/// calibrated to the host, this is (roughly) the worst queueing delay
/// admission control tolerates before shedding.
const BUDGET_SECS: f64 = 0.1;

fn mat(n: usize, seed: usize) -> Matrix<f64> {
    Matrix::from_fn(n, n, |i, j| {
        ((i * 31 + j * 17 + seed * 7) % 13) as f64 / 13.0 - 0.4
    })
}

fn gemm(n: usize, seed: usize) -> AnyOp {
    AnyOp::from(OwnedOp::Gemm {
        transa: Transpose::No,
        transb: Transpose::No,
        alpha: 1.0,
        a: mat(n, seed),
        b: mat(n, seed + 1),
        beta: 0.0,
        c: Matrix::zeros(n, n),
    })
}

struct Event {
    /// Seconds after trace start this job arrives.
    at: f64,
    tenant: usize,
    shape: usize,
}

fn pick(shares: &[f64], u: f64) -> usize {
    let mut acc = 0.0;
    for (i, s) in shares.iter().enumerate() {
        acc += s;
        if u < acc {
            return i;
        }
    }
    shares.len() - 1
}

/// Seeded Poisson-ish trace: exponential inter-arrival times at `rate`
/// jobs/sec, tenant and shape drawn from the skewed shares.
fn build_trace(events: usize, rate: f64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(0x005E_EDAD_5A1A);
    let mut at = 0.0;
    (0..events)
        .map(|_| {
            let u: f64 = rng.gen();
            at += -(1.0 - u).ln() / rate;
            Event {
                at,
                tenant: pick(&TENANT_SHARE, rng.gen()),
                shape: pick(&SHAPE_SHARE, rng.gen()),
            }
        })
        .collect()
}

/// Measure the mix's mean service time on this host (one cell serves
/// batches one at a time, so single-cell capacity ~ 1/mean). Also returns
/// the effective GFLOP/s to calibrate the fallback cost model with, so
/// predicted seconds track observed seconds and the admission budget is
/// denominated in real queueing delay.
fn calibrate(runtime: &Adsala<NativeBackend>) -> (f64, f64) {
    let (mut mean_secs, mut mean_flops) = (0.0, 0.0);
    for (i, &n) in SHAPES.iter().enumerate() {
        let mut op = gemm(n, i);
        let AnyOp::F64(o) = &mut op else {
            unreachable!()
        };
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            runtime.execute_with_nt(2, o.as_op()).unwrap();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        mean_secs += SHAPE_SHARE[i] * best;
        mean_flops += SHAPE_SHARE[i] * op.flops();
    }
    (mean_secs, mean_flops / mean_secs / 1e9)
}

struct LoadResult {
    shards: usize,
    completed: usize,
    rejected: usize,
    errored: usize,
    throughput: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    makespan_secs: f64,
    shed_jobs: u64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// What one open-loop replay of the trace observed: sorted completion
/// latencies in seconds, rejected submissions, jobs settled with a typed
/// error, and the wall-clock makespan.
struct Replay {
    lats: Vec<f64>,
    rejected: usize,
    errored: usize,
    makespan_secs: f64,
}

/// Open-loop replay of the trace against an already-built service:
/// submit each job at its scheduled arrival, account every settlement,
/// drain, and return the raw observations.
fn replay<B: Blas3Backend + 'static>(trace: &[Event], service: &Service<B>) -> Replay {
    let clients: Vec<_> = (0..TENANTS)
        .map(|_| service.client_for(service.tenant(TenantConfig::default())))
        .collect();
    // A few data variants per shape, cloned at submit time so the
    // generator does a memcpy instead of an O(n^2) fill per arrival.
    let templates: Vec<Vec<AnyOp>> = SHAPES
        .iter()
        .map(|&n| (0..4).map(|s| gemm(n, s)).collect())
        .collect();

    let latencies = Arc::new(Mutex::new(Vec::<f64>::with_capacity(trace.len())));
    let errored = Arc::new(AtomicUsize::new(0));
    let settled = Arc::new(AtomicUsize::new(0));
    let mut rejected = 0usize;

    let t0 = Instant::now();
    for (i, ev) in trace.iter().enumerate() {
        // Open loop: wait for the scheduled arrival; if the generator is
        // behind, submit immediately (latency is charged from `ev.at`
        // either way).
        loop {
            let now = t0.elapsed().as_secs_f64();
            if now >= ev.at {
                break;
            }
            std::thread::sleep(Duration::from_secs_f64((ev.at - now).min(200e-6)));
        }
        let op = templates[ev.shape][i % 4].clone();
        match clients[ev.tenant].submit(op) {
            Ok(ticket) => {
                let at = ev.at;
                let latencies = Arc::clone(&latencies);
                let errored = Arc::clone(&errored);
                let settled = Arc::clone(&settled);
                ticket.on_complete(move |outcome| {
                    // A delivered job may still carry an execution error
                    // (`Completed::result`, e.g. an unretried backend
                    // fault) — only a clean result counts as served.
                    match outcome {
                        Ok(c) if c.result.is_ok() => {
                            let lat = t0.elapsed().as_secs_f64() - at;
                            latencies
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .push(lat);
                        }
                        _ => {
                            errored.fetch_add(1, Ordering::AcqRel);
                        }
                    }
                    settled.fetch_add(1, Ordering::AcqRel);
                });
            }
            Err(_) => rejected += 1,
        }
    }
    // Drain: every admitted job settles (completion or typed error).
    let admitted = trace.len() - rejected;
    let deadline = Instant::now() + Duration::from_secs(120);
    while settled.load(Ordering::Acquire) < admitted {
        assert!(Instant::now() < deadline, "load drain timed out");
        std::thread::sleep(Duration::from_millis(1));
    }
    let makespan_secs = t0.elapsed().as_secs_f64();
    // Every admitted job has settled (each callback pushes before the
    // settled increment), so taking under the lock is complete even
    // while scheduler threads still hold Arc clones for a few more
    // microseconds.
    let mut lats = std::mem::take(&mut *latencies.lock().unwrap_or_else(|p| p.into_inner()));
    lats.sort_by(f64::total_cmp);
    Replay {
        lats,
        rejected,
        errored: errored.load(Ordering::Acquire),
        makespan_secs,
    }
}

/// Replay the trace against a fresh fault-free service at the given
/// shard count.
fn run_trace(trace: &[Event], shards: usize, gflops: f64) -> LoadResult {
    let runtime = Adsala::new(Vec::new(), 2);
    let service = Service::with_config(
        runtime,
        ServeConfig {
            shards,
            queue_capacity: 1_000_000, // the budget, not the count, governs
            backlog_budget_secs: BUDGET_SECS,
            fallback_gflops: gflops,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    let r = replay(trace, &service);
    let stats = service.stats();
    let shed_jobs = stats.shards.iter().map(|s| s.shed_jobs).sum();
    drop(service);
    LoadResult {
        shards,
        completed: r.lats.len(),
        rejected: r.rejected,
        errored: r.errored,
        throughput: r.lats.len() as f64 / r.makespan_secs,
        p50_ms: percentile(&r.lats, 0.50) * 1e3,
        p99_ms: percentile(&r.lats, 0.99) * 1e3,
        p999_ms: percentile(&r.lats, 0.999) * 1e3,
        makespan_secs: r.makespan_secs,
        shed_jobs,
    }
}

/// Seed of the faulted runs' injection schedule — fixed so both the
/// supervised and unsupervised replays face the same flaky backend.
const FAULT_SEED: u64 = 0xFA_17;
/// Fraction of backend calls that fail transiently in the faulted runs.
const TRANSIENT_RATE: f64 = 0.01;
/// The one scripted mid-run stall: a single backend call sleeps this
/// long, wedging whichever scheduler cell was serving it.
const WEDGE: Duration = Duration::from_millis(400);
/// Shard count of the faulted runs. Two cells: a cell serves only its own
/// queues, so the only way a wedged cell's backlog moves is the
/// supervisor's drain-and-rehome.
const FAULT_SHARDS: usize = 2;
/// Offered load of the faulted runs, relative to the *measured*
/// fault-free throughput at [`FAULT_SHARDS`]. Deliberately below
/// saturation: at overload, admission shedding dominates every other
/// signal; at ~70% utilisation availability loss is attributable to the
/// injected faults and the wedge, which is what this run measures.
const FAULT_LOAD: f64 = 0.7;

struct FaultResult {
    supervised: bool,
    completed: usize,
    rejected: usize,
    errored: usize,
    /// Jobs that completed successfully, over all arrivals.
    availability: f64,
    injected_faults: u64,
    backend_calls: u64,
    retries: u64,
    restarts: u64,
    shed_jobs: u64,
    breaker_trips: u64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    makespan_secs: f64,
}

/// Replay the trace against a backend that fails 1% of calls transiently
/// and stalls one mid-run call long enough to wedge its cell — once with
/// the full supervision stack (retries, watchdog, breaker) and once bare
/// (single attempt, no watchdog, no breaker). Same trace, same seeded
/// fault schedule; the delta is what supervision buys.
fn run_faulted(trace: &[Event], gflops: f64, supervised: bool) -> FaultResult {
    let rules = vec![
        FaultRule::new(FaultKind::Transient).with_probability(TRANSIENT_RATE),
        FaultRule::new(FaultKind::Latency(WEDGE)).window(trace.len() as u64 / 2, 1),
    ];
    let runtime = Adsala::builder()
        .backend(FaultBackend::new(NativeBackend, FAULT_SEED, rules))
        .fallback_nt(2)
        .build()
        .expect("build faulted runtime");
    let service = Service::with_config(
        runtime,
        ServeConfig {
            shards: FAULT_SHARDS,
            queue_capacity: 1_000_000,
            backlog_budget_secs: BUDGET_SECS,
            fallback_gflops: gflops,
            // The watchdog's 100 ms detection window (4 sweeps of 25 ms)
            // catches the wedge well inside its 400 ms stall.
            retry: supervised,
            supervisor: supervised,
            breaker: supervised,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    let r = replay(trace, &service);
    let stats = service.stats();
    let fstats = service.runtime().backend().stats();
    let result = FaultResult {
        supervised,
        completed: r.lats.len(),
        rejected: r.rejected,
        errored: r.errored,
        availability: r.lats.len() as f64 / trace.len() as f64,
        injected_faults: fstats.injected,
        backend_calls: fstats.calls,
        retries: stats.shards.iter().map(|s| s.retries).sum(),
        restarts: stats.shards.iter().map(|s| s.restarts).sum(),
        shed_jobs: stats.shards.iter().map(|s| s.shed_jobs).sum(),
        breaker_trips: stats.breaker.trips,
        p50_ms: percentile(&r.lats, 0.50) * 1e3,
        p99_ms: percentile(&r.lats, 0.99) * 1e3,
        p999_ms: percentile(&r.lats, 0.999) * 1e3,
        makespan_secs: r.makespan_secs,
    };
    drop(service);
    result
}

fn main() {
    let smoke = std::env::var("ADSALA_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let events = if smoke { 400 } else { 4000 };

    let (mean_svc, gflops) = calibrate(&Adsala::new(Vec::new(), 2));
    let rate = OVERLOAD / mean_svc;
    println!(
        "serve_load: calibrated mix service time {:.0} us -> offered rate {:.0} jobs/s \
         ({OVERLOAD}x single-cell capacity), {events} arrivals",
        mean_svc * 1e6,
        rate
    );
    let trace = build_trace(events, rate);

    let mut results = Vec::new();
    for &shards in &SHARD_COUNTS {
        let r = run_trace(&trace, shards, gflops);
        println!(
            "serve_load/shards={}: {} served, {} rejected ({:.1}%), {:.0} jobs/s, \
             p50 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms",
            r.shards,
            r.completed,
            r.rejected,
            100.0 * r.rejected as f64 / events as f64,
            r.throughput,
            r.p50_ms,
            r.p99_ms,
            r.p999_ms,
        );
        results.push(r);
    }

    let single = &results[0];
    for r in &results[1..] {
        let better = r.throughput > single.throughput || r.p99_ms < single.p99_ms;
        println!(
            "serve_load: {} shards vs 1: throughput {:.2}x, p99 {:.2}x{}",
            r.shards,
            r.throughput / single.throughput,
            r.p99_ms / single.p99_ms,
            if better { "" } else { "  [NO WIN]" }
        );
    }

    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"shards\": {}, \"completed\": {}, \"rejected\": {}, \"errored\": {}, \
                 \"rejection_rate\": {:.4}, \"throughput_jobs_per_sec\": {:.1}, \
                 \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \
                 \"makespan_secs\": {:.3}, \"shed_jobs\": {}}}",
                r.shards,
                r.completed,
                r.rejected,
                r.errored,
                r.rejected as f64 / events as f64,
                r.throughput,
                r.p50_ms,
                r.p99_ms,
                r.p999_ms,
                r.makespan_secs,
                r.shed_jobs,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"description\": \"crates/bench/benches/serve_load.rs: open-loop Poisson trace \
         ({events} arrivals, {TENANTS} tenants, hot tenant {:.0}% of traffic, square dgemm mix \
         {SHAPES:?}) replayed against the sharded service at {OVERLOAD}x calibrated single-cell \
         capacity. Latency is completion minus scheduled arrival (no coordinated omission); \
         rejections are admission-control shedding at a {BUDGET_SECS}s predicted-backlog \
         budget.\",\n  \
         \"command\": \"cargo bench -p adsala-bench --bench serve_load\",\n  \
         \"host\": {{\"cores\": {}, \"offered_jobs_per_sec\": {rate:.0}, \
         \"calibrated_mix_service_us\": {:.1}}},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        TENANT_SHARE[0] * 100.0,
        ThreadPool::hardware_threads(),
        mean_svc * 1e6,
        rows.join(",\n"),
    );
    record(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json"),
        &json,
        smoke,
    );

    // --- Faulted replays: the same arrival process against a flaky,
    // wedging backend, with and without the supervision stack. Rated
    // from the *measured* fault-free throughput at the same shard
    // count, not the calibrated single-op capacity — under load the two
    // can differ a lot, and an overloaded faulted run measures
    // admission shedding instead of fault handling. ---
    let measured = results
        .iter()
        .find(|r| r.shards == FAULT_SHARDS)
        .expect("fault shard count is benchmarked above")
        .throughput;
    let fault_rate = FAULT_LOAD * measured;
    println!(
        "serve_load/faults: offered rate {fault_rate:.0} jobs/s \
         ({FAULT_LOAD}x measured {FAULT_SHARDS}-shard throughput), {events} arrivals"
    );
    let fault_trace = build_trace(events, fault_rate);
    let faulted: Vec<FaultResult> = [true, false]
        .iter()
        .map(|&sup| {
            let r = run_faulted(&fault_trace, gflops, sup);
            println!(
                "serve_load/faults/{}: availability {:.1}% ({} ok, {} errored, {} rejected), \
                 {} faults injected over {} calls, {} retries, {} restarts, {} shed, \
                 {} breaker trips, p50 {:.2} ms, p99 {:.2} ms",
                if sup { "supervised" } else { "unsupervised" },
                100.0 * r.availability,
                r.completed,
                r.errored,
                r.rejected,
                r.injected_faults,
                r.backend_calls,
                r.retries,
                r.restarts,
                r.shed_jobs,
                r.breaker_trips,
                r.p50_ms,
                r.p99_ms,
            );
            r
        })
        .collect();
    let (sup, bare) = (&faulted[0], &faulted[1]);
    println!(
        "serve_load/faults: supervision availability {:+.2} pp, p99 {:.2}x{}",
        100.0 * (sup.availability - bare.availability),
        sup.p99_ms / bare.p99_ms,
        if sup.availability >= bare.availability {
            ""
        } else {
            "  [NO WIN]"
        }
    );

    let fault_rows: Vec<String> = faulted
        .iter()
        .map(|r| {
            format!(
                "    {{\"supervised\": {}, \"completed\": {}, \"rejected\": {}, \
                 \"errored\": {}, \"availability\": {:.4}, \"injected_faults\": {}, \
                 \"backend_calls\": {}, \"retry_rate\": {:.4}, \"retries\": {}, \
                 \"restarts\": {}, \"shed_jobs\": {}, \"breaker_trips\": {}, \
                 \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \
                 \"makespan_secs\": {:.3}}}",
                r.supervised,
                r.completed,
                r.rejected,
                r.errored,
                r.availability,
                r.injected_faults,
                r.backend_calls,
                r.retries as f64 / r.backend_calls.max(1) as f64,
                r.retries,
                r.restarts,
                r.shed_jobs,
                r.breaker_trips,
                r.p50_ms,
                r.p99_ms,
                r.p999_ms,
                r.makespan_secs,
            )
        })
        .collect();
    let fault_json = format!(
        "{{\n  \"description\": \"crates/bench/benches/serve_load.rs (faulted replays): the same \
         open-loop Poisson trace ({events} arrivals) against FaultBackend<NativeBackend> — \
         {:.0}% of calls fail transiently and one scripted mid-run call stalls {} ms, wedging \
         its scheduler cell. {FAULT_SHARDS} shards. 'supervised' runs the full \
         stack (capped-backoff retries, cell watchdog with drain-and-rehome, circuit breaker); \
         'unsupervised' is a single attempt with watchdog and breaker off. Identical trace and \
         fault seed — the delta is what supervision buys.\",\n  \
         \"command\": \"cargo bench -p adsala-bench --bench serve_load\",\n  \
         \"host\": {{\"cores\": {}, \"offered_jobs_per_sec\": {fault_rate:.0}, \
         \"transient_rate\": {TRANSIENT_RATE}, \"wedge_ms\": {}, \"fault_seed\": {FAULT_SEED}}},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        TRANSIENT_RATE * 100.0,
        WEDGE.as_millis(),
        ThreadPool::hardware_threads(),
        WEDGE.as_millis(),
        fault_rows.join(",\n"),
    );
    record(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_faults.json"),
        &fault_json,
        smoke,
    );
}

/// Write a full run's record to the repo root; a smoke run only prints.
fn record(path: &str, json: &str, smoke: bool) {
    if smoke {
        println!("serve_load: smoke run, {path} left as committed");
        return;
    }
    match std::fs::write(path, json) {
        Ok(()) => println!("serve_load: results written to {path}"),
        Err(e) => println!("serve_load: could not write {path}: {e}"),
    }
}

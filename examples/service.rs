//! The "millions of users" story in miniature: many clients share one
//! ADSALA runtime through the `adsala-serve` service layer.
//!
//! The demo installs a dgemm model on the simulated Gadi platform, then:
//! 1. serves N concurrent clients submitting batched fixed-shape streams,
//! 2. compares batched vs per-op submission throughput on one stream,
//! 3. shows admission control shedding load under a tiny backlog budget,
//! 4. prints the service's one aggregate view (jobs served per cell, the
//!    routine's price correction) and the last records its own tickets
//!    delivered (the observed-vs-predicted pairs the correction learns
//!    from).
//!
//! ```text
//! cargo run --release --example service
//! ```

use adsala_repro::adsala::install::{install_routine, InstallOptions};
use adsala_repro::adsala::runtime::Adsala;
use adsala_repro::adsala::timer::SimTimer;
use adsala_repro::blas3::op::Routine;
use adsala_repro::blas3::{Matrix, OwnedOp, Transpose};
use adsala_repro::machine::MachineSpec;
use adsala_repro::ml::model::ModelKind;
use adsala_repro::serve::{AnyOp, ServeConfig, Service};
use std::time::Instant;

fn gemm(m: usize, seed: usize) -> AnyOp {
    AnyOp::from(OwnedOp::Gemm {
        transa: Transpose::No,
        transb: Transpose::No,
        alpha: 1.0,
        a: Matrix::<f64>::from_fn(m, m, |i, j| ((i * 3 + j + seed) % 7) as f64 - 3.0),
        b: Matrix::<f64>::from_fn(m, m, |i, j| ((i + 5 * j + seed) % 5) as f64 - 2.0),
        beta: 0.0,
        c: Matrix::<f64>::zeros(m, m),
    })
}

/// A fixed-shape-alternating stream of `count` gemm jobs.
fn stream(count: usize, seed: usize) -> Vec<AnyOp> {
    (0..count)
        .map(|i| gemm(if i % 2 == 0 { 48 } else { 32 }, seed + i))
        .collect()
}

fn main() {
    println!("== adsala-serve: batched, admission-controlled serving ==\n");

    println!("installing dgemm on simulated gadi (decision-tree model, quick corpus)...");
    // A tree's prices stay inside the simulated timings it learned from, so
    // admission's plausibility window never clamps them and every served
    // call feeds the price correction.
    let timer = SimTimer::new(MachineSpec::gadi());
    let routine = Routine::parse("dgemm").unwrap();
    let installed = install_routine(
        &timer,
        routine,
        &InstallOptions {
            n_train: 200,
            n_eval: 10,
            kinds: vec![ModelKind::DecisionTree],
            nt_stride: 8,
            ..Default::default()
        },
    );
    let runtime = Adsala::new(vec![installed], 2);

    // --- 1. N clients x M ops through one shared runtime -----------------
    let service = Service::new(runtime).expect("spawn scheduler cells");
    let n_clients = 4;
    let ops_per_client = 24;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..n_clients {
            let client = service.client();
            scope.spawn(move || {
                let tickets = client
                    .submit_batch(stream(ops_per_client, c * 1000))
                    .expect("within budget");
                for t in tickets {
                    t.wait().expect("service alive");
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let total = n_clients * ops_per_client;
    println!(
        "\n{} clients x {} batched ops: {} jobs in {:.1} ms ({:.0} jobs/s)",
        n_clients,
        ops_per_client,
        total,
        elapsed * 1e3,
        total as f64 / elapsed
    );

    // --- 2. batched vs per-op submission on one fixed-shape stream -------
    let client = service.client();
    let count = 64;
    let t0 = Instant::now();
    let tickets: Vec<_> = stream(count, 0)
        .into_iter()
        .map(|op| client.submit(op).expect("within budget"))
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }
    let per_op = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut records: Vec<_> = client
        .submit_batch(stream(count, 0))
        .expect("within budget")
        .into_iter()
        .map(|t| t.wait().unwrap().stats)
        .collect();
    let batched = t0.elapsed().as_secs_f64();
    records.sort_by_key(|r| r.seq);
    println!(
        "{count}-op alternating-shape stream: per-op {:.2} ms, batched {:.2} ms ({:.2}x)",
        per_op * 1e3,
        batched * 1e3,
        per_op / batched
    );

    // --- 3. admission control under a tiny budget -------------------------
    let strict = Service::with_config(
        Adsala::new(Vec::new(), 2),
        ServeConfig {
            backlog_budget_secs: 2e-4,
            fallback_gflops: 1.0,
            ..Default::default()
        },
    )
    .expect("spawn scheduler cells");
    let shedder = strict.client();
    let mut admitted = 0;
    let mut rejected = 0;
    let mut pending = Vec::new();
    for i in 0..32 {
        match shedder.submit(gemm(40, i)) {
            Ok(t) => {
                admitted += 1;
                pending.push(t);
            }
            Err(r) => {
                if rejected == 0 {
                    println!("\nadmission control engaged: {}", r.reason);
                }
                rejected += 1;
            }
        }
    }
    for t in pending {
        let _ = t.wait();
    }
    println!("strict budget admitted {admitted} and shed {rejected} of 32 jobs");

    // --- 4. stats and records ----------------------------------------------
    let stats = service.stats();
    println!(
        "\nstats: {} jobs served across {} scheduler cells",
        stats.shards.iter().map(|s| s.served).sum::<u64>(),
        stats.shards.len()
    );
    for s in &stats.shards {
        println!(
            "  cell {}: served {} (shed {} jobs)",
            s.shard, s.served, s.shed_jobs
        );
    }
    if stats.drift_by_routine.is_empty() {
        println!("  no drift samples: no job ran at its priced nt on an unclamped model price");
    }
    // The model was trained on a simulated Gadi node and the jobs ran on
    // this host, so the ratio is that gap: measuring it is what the price
    // correction is for.
    for d in &stats.drift_by_routine {
        println!(
            "  {}: observed/model seconds {:.3e} (geometric mean) over {} calls (the drift the price correction learns)",
            d.routine, d.ratio, d.samples
        );
    }
    println!("last records delivered to the batched stream's tickets:");
    for r in records.iter().rev().take(3) {
        println!(
            "  {} {} nt={} predicted {:.2e}s observed {:.2e}s batch={} ({}, cell {})",
            r.routine,
            r.dims,
            r.nt,
            r.predicted_secs,
            r.observed_secs,
            r.batch_size,
            r.client,
            r.shard
        );
    }
    println!("\ndone.");
}

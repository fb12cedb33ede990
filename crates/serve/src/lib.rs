//! # adsala-serve
//!
//! A sharded, batched, admission-controlled service layer over the ADSALA
//! runtime: many tenants, one shared `Adsala<B>`, N scheduler cells.
//!
//! Everything below `adsala-serve` decides *how* a BLAS call runs (the
//! paper's per-call thread count); this crate decides *whether, when, and
//! where* it runs. The installed predictors double as a cost model — each
//! submitted job is priced in predicted seconds before it is accepted —
//! and that one signal buys the whole service layer:
//!
//! * **Admission control** ([`ServeConfig::backlog_budget_secs`], plus a
//!   per-tenant budget in [`TenantConfig`]): overload turns into fast,
//!   typed rejections ([`Rejected`]) instead of unbounded latency, and
//!   under pressure the cheapest-to-refuse lower-QoS queued jobs are
//!   [shed](ServeError::Shed) to make room for higher-priority work.
//! * **Cost-aware routing**: the service runs [`ServeConfig::shards`]
//!   scheduler cells, each with a private worker-pool slice; a submission
//!   lands on its tenant's home cell while the tenant has work in flight
//!   (keeping batches together and per-tenant order trivial) and is
//!   otherwise re-homed to the cell with the least predicted-seconds
//!   backlog. A cell serves only its own queues, and an empty one sleeps
//!   until a push, a resume or shutdown wakes it.
//! * **Fairness and priority**: within a cell, jobs queue in QoS lanes
//!   ([`QosClass`]) drained highest class first; inside a lane, tenants
//!   take round-robin turns so a tenant streaming thousands of jobs
//!   cannot starve one submitting a handful.
//! * **Batching** ([`Client::submit_batch`]): same-routine, same-shape
//!   jobs share one prediction sweep, and whatever same-shape prefix of a
//!   tenant's FIFO is queued when its turn comes (up to
//!   [`ServeConfig::max_batch`]) is served in one scheduler wake-up —
//!   nothing is held back to wait for peers.
//! * **Fault tolerance**: transient backend failures are retried under
//!   capped, jittered backoff, a watchdog restarts a wedged cell, and a
//!   circuit breaker browns out Batch work under sustained failure. Their
//!   timings are fixed; [`ServeConfig::retry`], [`ServeConfig::supervisor`]
//!   and [`ServeConfig::breaker`] switch each one off.
//!
//! A job has one record, [`TelemetryRecord`]: the priced decision it was
//! admitted under (carried whole on the queued job), where and how wide it
//! ran, and the observed wall-clock. The executing cell builds it once;
//! the submitter receives it as [`Completed::stats`] and a successful
//! execution appends the same value to the cell's [`Telemetry`] ring.
//! `Service::telemetry_snapshot` merges the rings into one service-wide
//! order, and [`drift_by_routine`] reads the per-routine mean
//! `observed / predicted` from it. The same successful records correct the
//! prices admission works with: the cell feeds each one that
//! [qualifies](TelemetryRecord::qualifies_for_drift) to its routine's
//! predictor ([`ThreadPredictor::observe`](adsala::ThreadPredictor::observe)),
//! which from 32 samples on scales the model's seconds by the observed
//! drift. The thread count the model picks does not move.

//! ## Shape of the API
//!
//! Submission returns a [`Ticket`], consumed one of two ways: blocking
//! [`Ticket::wait`] (bounded: [`Ticket::wait_timeout`]), or
//! [`Ticket::on_complete`], which runs a closure on the cell that finished
//! the job. Sending from that closure into a `std::sync::mpsc` channel
//! fans many jobs into one consumer with no thread parked per job, and the
//! channel's `try_recv` is the non-blocking check:
//!
//! ```
//! use adsala::Adsala;
//! use adsala_blas3::{Matrix, OwnedOp, ReferenceBackend, Transpose};
//! use adsala_serve::{AnyOp, Service};
//! use std::sync::mpsc;
//! use std::time::{Duration, Instant};
//!
//! let gemm = |scale: f64| OwnedOp::Gemm {
//!     transa: Transpose::No,
//!     transb: Transpose::No,
//!     alpha: 1.0,
//!     a: Matrix::<f64>::identity(8),
//!     b: Matrix::<f64>::filled(8, 8, scale),
//!     beta: 0.0,
//!     c: Matrix::<f64>::zeros(8, 8),
//! };
//!
//! let runtime = Adsala::builder()
//!     .backend(ReferenceBackend)
//!     .fallback_nt(1)
//!     .build()
//!     .unwrap();
//! let service = Service::new(runtime).expect("spawn scheduler cells");
//! let client = service.client();
//!
//! let c00 = |op: AnyOp| match op {
//!     AnyOp::F64(op) => op.into_output().get(0, 0),
//!     other => panic!("sent a dgemm, got back {other:?}"),
//! };
//!
//! // Fan-in: every job sends its tagged outcome down one channel.
//! let (tx, completions) = mpsc::channel();
//! for token in 0..4u64 {
//!     let ticket = client.submit(gemm(token as f64)).expect("within budget");
//!     let tx = tx.clone();
//!     ticket.on_complete(move |outcome| tx.send((token, outcome)).unwrap());
//! }
//! // Non-blocking: `try_recv` asks whether another job has settled, so
//! // the consumer can get on with other work while none has.
//! let give_up = Instant::now() + Duration::from_secs(5);
//! let mut done = 0;
//! while done < 4 {
//!     match completions.try_recv() {
//!         Ok((token, outcome)) => {
//!             assert_eq!(c00(outcome.unwrap().op), token as f64);
//!             done += 1;
//!         }
//!         Err(mpsc::TryRecvError::Empty) => {
//!             assert!(Instant::now() < give_up, "service alive");
//!             std::thread::yield_now();
//!         }
//!         Err(e) => panic!("{e}"),
//!     }
//! }
//!
//! // Blocking `wait()` when a thread has nothing better to do.
//! let ticket = client.submit(gemm(2.0)).expect("within budget");
//! let done = ticket.wait().unwrap();
//! assert_eq!(c00(done.op), 2.0);
//! ```
//!
//! Jobs move through the queues as [`OwnedOp`](adsala_blas3::OwnedOp)s
//! (the owned mirror of `Blas3Op`), wrapped in the precision-erased
//! [`AnyOp`]; completion hands the operands back through the outcome, so
//! results are read without sharing memory with the service.

#![warn(missing_docs)]

pub mod cell;
pub mod completion;
pub mod job;
pub mod queue;
mod retry;
pub mod router;
pub mod service;
pub mod supervisor;
pub mod telemetry;

pub use completion::{CompletionCallback, Ticket};
pub use job::{AnyOp, ClientId, Completed, RejectReason, Rejected, ServeError};
pub use router::{QosClass, TenantConfig, TenantId};
pub use service::{Client, ServeConfig, Service, ServiceStats, ShardStats, SubmitOptions};
pub use supervisor::{BreakerSnapshot, BreakerState};
pub use telemetry::{
    drift_by_routine, RoutineDrift, Telemetry, TelemetryRecord, MIN_PREDICTED_SECS,
};

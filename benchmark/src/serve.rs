//! The serve entry point: one generator thread submitting jobs to a
//! `Service`, in a closed loop (a fixed window in flight) or an open loop
//! (a fixed Poisson schedule, whatever the service does).

use crate::trace::{Tracer, ROOT};
use crate::workload::{Arrival, BenchOp};
use adsala_blas3::NativeBackend;
use adsala_serve::{AnyOp, Client, Completed, ServeError, Service, TenantConfig};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

/// One job in every serve phase keeps its returned operands for the
/// correctness check, at most this many per phase.
const KEEP_EVERY: usize = 64;
const KEEP_LIMIT: usize = 16;
/// A job not settled this long after the last one is a hang, not a tail.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(20);
/// Below this gap the generator spins for its next arrival; above it, it
/// sleeps to this distance first.
const SPIN_WITHIN: Duration = Duration::from_micros(200);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Pending,
    Done,
    /// Settled with an error, or with an `Err` execution result.
    Failed,
    /// Refused at submission.
    Rejected,
}

/// One job as the generator saw it. Times are nanoseconds on the
/// tracer's clock.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub op: u32,
    /// When the job was due: the scheduled arrival in an open loop, the
    /// moment the window had room in a closed one.
    pub due_ns: u64,
    pub submit_ns: u64,
    pub submitted_ns: u64,
    /// Stamped inside the completion callback, on the cell's thread.
    pub done_ns: u64,
    pub exec_secs: f64,
    pub batch: u32,
    pub model_backed: bool,
    pub outcome: Outcome,
}

impl Job {
    /// Seconds from `from_ns` to completion.
    pub fn latency_from(&self, from_ns: u64) -> f64 {
        self.done_ns.saturating_sub(from_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub enum Load<'a> {
    Closed {
        window: usize,
    },
    /// Arrival offsets in seconds from the phase start.
    Open {
        schedule: &'a [f64],
    },
}

#[derive(Debug, Default)]
pub struct Phase {
    pub jobs: Vec<Job>,
    /// Phase start to last settlement.
    pub wall_secs: f64,
    /// `(op index, operands as returned)` of the sampled completions.
    pub kept: Vec<(u32, AnyOp)>,
}

impl Phase {
    pub fn done(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter().filter(|j| j.outcome == Outcome::Done)
    }

    pub fn count(&self, outcome: Outcome) -> usize {
        self.jobs.iter().filter(|j| j.outcome == outcome).count()
    }
}

type Settled = (u32, Instant, Result<Completed, ServeError>);

/// The generator: owns the tenants' clients, the position in the traffic
/// and the channel completions come back on.
pub struct Generator<'a> {
    clients: Vec<Client<NativeBackend>>,
    ops: &'a [BenchOp],
    traffic: &'a [Arrival],
    cursor: usize,
    tx: Sender<Settled>,
    rx: Receiver<Settled>,
}

impl<'a> Generator<'a> {
    pub fn new(
        service: &Service<NativeBackend>,
        tenants: usize,
        ops: &'a [BenchOp],
        traffic: &'a [Arrival],
    ) -> Generator<'a> {
        let clients = (0..tenants)
            .map(|_| service.client_for(service.tenant(TenantConfig::default())))
            .collect();
        let (tx, rx) = channel();
        Generator {
            clients,
            ops,
            traffic,
            cursor: 0,
            tx,
            rx,
        }
    }

    /// The next job of the traffic with its operands. Building a request
    /// is the client's work: it happens before the job is due.
    fn prepare(&mut self) -> (Arrival, AnyOp) {
        let a = self.traffic[self.cursor % self.traffic.len()];
        self.cursor += 1;
        (a, self.ops[a.op as usize].op.clone())
    }

    fn submit(
        &mut self,
        (a, op): (Arrival, AnyOp),
        phase: &mut Phase,
        due: Instant,
        tracer: &Tracer,
    ) -> bool {
        let token = phase.jobs.len() as u32;
        let tx = self.tx.clone();
        let t0 = Instant::now();
        let ticket = self.clients[a.tenant as usize].submit(op);
        let t1 = Instant::now();
        let accepted = ticket.is_ok();
        phase.jobs.push(Job {
            op: a.op,
            due_ns: tracer.ns(due.min(t0)),
            submit_ns: tracer.ns(t0),
            submitted_ns: tracer.ns(t1),
            done_ns: 0,
            exec_secs: 0.0,
            batch: 0,
            model_backed: false,
            outcome: if accepted {
                Outcome::Pending
            } else {
                Outcome::Rejected
            },
        });
        if let Ok(ticket) = ticket {
            ticket.on_complete(move |outcome| {
                // The receiver outlives every job of the phase; a send can
                // only fail after the run was abandoned.
                let _ = tx.send((token, Instant::now(), outcome));
            });
        }
        accepted
    }

    fn settle(&self, phase: &mut Phase, (token, at, outcome): Settled, tracer: &Tracer) {
        let job = &mut phase.jobs[token as usize];
        job.done_ns = tracer.ns(at);
        match outcome {
            Ok(c) => {
                job.exec_secs = c.stats.observed_secs;
                job.batch = c.stats.batch_size as u32;
                job.model_backed = c.stats.model_backed;
                job.outcome = if c.result.is_ok() {
                    Outcome::Done
                } else {
                    Outcome::Failed
                };
                if (token as usize).is_multiple_of(KEEP_EVERY) && phase.kept.len() < KEEP_LIMIT {
                    phase.kept.push((job.op, c.op));
                }
            }
            Err(_) => job.outcome = Outcome::Failed,
        }
    }

    fn wait_one(&self, phase: &mut Phase, tracer: &Tracer) {
        let settled = self
            .rx
            .recv_timeout(SETTLE_TIMEOUT)
            .expect("the service stopped settling jobs");
        self.settle(phase, settled, tracer);
    }

    /// Run one phase for `seconds`, then wait for every job in flight.
    pub fn run(&mut self, load: &Load<'_>, seconds: f64, tracer: &Tracer) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let mut in_flight = 0usize;
        match *load {
            Load::Closed { window } => loop {
                while in_flight < window && Instant::now() < end {
                    let job = self.prepare();
                    if !self.submit(job, &mut phase, Instant::now(), tracer) {
                        break;
                    }
                    in_flight += 1;
                }
                if in_flight == 0 {
                    // Drained after the end, or nothing is being admitted.
                    if Instant::now() >= end {
                        break;
                    }
                    std::thread::sleep(SPIN_WITHIN);
                    continue;
                }
                self.wait_one(&mut phase, tracer);
                in_flight -= 1;
            },
            Load::Open { schedule } => {
                for &at in schedule.iter().take_while(|&&at| at < seconds) {
                    let due = start + Duration::from_secs_f64(at);
                    let job = self.prepare();
                    loop {
                        while let Ok(settled) = self.rx.try_recv() {
                            self.settle(&mut phase, settled, tracer);
                            in_flight -= 1;
                        }
                        let now = Instant::now();
                        if now >= due {
                            break;
                        }
                        if due - now > SPIN_WITHIN {
                            std::thread::sleep(due - now - SPIN_WITHIN);
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                    if self.submit(job, &mut phase, due, tracer) {
                        in_flight += 1;
                    }
                }
                while in_flight > 0 {
                    self.wait_one(&mut phase, tracer);
                    in_flight -= 1;
                }
            }
        }
        let last = phase.jobs.iter().map(|j| j.done_ns).max().unwrap_or(0);
        phase.wall_secs = last.saturating_sub(tracer.ns(start)) as f64 * 1e-9;
        phase
    }
}

/// Spans of one phase: root `job` from due to done; children
/// `serve.submit` (the `submit` call) and `serve.wait` (submit return to
/// the completion callback), whose child `serve.exec` is the service's own
/// `observed_secs`, placed at the end of the wait. The self time of
/// `serve.wait` is queueing, wake-up and settlement.
pub fn record_spans(phase: &Phase, tracer: &mut Tracer) {
    for (seq, j) in phase.jobs.iter().enumerate() {
        if j.outcome != Outcome::Done {
            continue;
        }
        let seq = seq as u32;
        let root = tracer.push("job", ROOT, seq, j.due_ns, j.done_ns);
        tracer.push("serve.submit", root, seq, j.submit_ns, j.submitted_ns);
        let wait = tracer.push("serve.wait", root, seq, j.submitted_ns, j.done_ns);
        let exec_ns = (j.exec_secs * 1e9) as u64;
        let exec_start = j.done_ns.saturating_sub(exec_ns).max(j.submitted_ns);
        tracer.push("serve.exec", wait, seq, exec_start, j.done_ns);
    }
}

//! One run of one workload: set-up, the measured phase, the correctness
//! check, and the metrics derived from them.

use crate::check::matches_reference;
use crate::direct::{call, rotate, run_passes, Mode, PassResult};
use crate::host::{self, HostInfo};
use crate::install::{host_install, InstallTimes};
use crate::metrics::Values;
use crate::probes;
use crate::rng::Rng;
use crate::serve::{record_spans, Generator, Load, Outcome, Phase};
use crate::stats::{median, percentile, sort, supported_tail};
use crate::trace::Tracer;
use crate::workload::{poisson_schedule, BenchOp, Entry, Workload};
use adsala::timer::{BlasTimer, RealTimer};
use adsala::{Adsala, InstalledRoutine};
use adsala_blas3::NativeBackend;
use adsala_serve::{ServeConfig, Service};
use std::path::PathBuf;
use std::time::Instant;

/// Set-up runs this many times and the fastest is reported; the last
/// system built is the one measured. The contract's advice is the median
/// of several set-ups; on this host a median of three lands in whichever
/// state the machine was in for two of them (see [`CALL_QUANTILE`]), and
/// the median of ten such runs moved by 22% between two sets of the same
/// commit.
const SETUP_REPEATS: usize = 3;
/// A closed serve phase runs in slices of this length, rotating, so each
/// phase is sampled all through the run.
const SERVE_SLICE_SECS: f64 = 0.1;
/// The gated rates and latencies describe the machine's uncontended state.
/// The sandbox is in one of a few states for seconds at a time (a serial
/// round of `l3_large` takes 130 ms or 200 ms, a two-thread round 73, 86
/// or 108 ms, depending on what shares the cores), and the share of a run
/// spent in each differs from run to run, so a median over a run lands in
/// whichever state was the more common. The fast state's value is the same
/// in every run that visits it.
///
/// A call cannot run faster than on the uncontended machine, so each
/// distinct op counts at this quantile of its own call times: the fastest
/// call up to 50 rounds, the second fastest up to 100, the 76th of the
/// 3800 rounds of `l2_stream` (where the very fastest is a rare lucky
/// one).
const CALL_QUANTILE: f64 = 0.02;
/// A closed serve phase counts at this quantile of its slices' rates: a
/// slice needs a tenth of a second of quiet, not the milliseconds of a
/// call, and holds a mix of jobs, so the best slice of fifty is too far out.
const SLICE_QUANTILE: f64 = 0.9;
/// Open-loop jobs count as served in time when they complete this long
/// after their scheduled arrival at the latest.
const OPEN_SLO_SECS: f64 = 10e-3;

pub struct Args {
    pub workload: &'static crate::workload::Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the result file and the span file.
    pub out_dir: String,
}

/// Everything one run reports.
pub struct Report {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub workload_hash: u64,
    pub info: HostInfo,
    /// Human-readable lines beyond the metric table: tails with their
    /// percentile and sample count, set-up repetitions, file names.
    pub notes: Vec<String>,
}

type Svc = Service<NativeBackend>;

/// One cell, so the generator thread keeps a core on a two-core host;
/// admission is bounded by the predicted-seconds budget, not the count.
fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: adsala_blas3::ThreadPool::hardware_threads()
            .saturating_sub(1)
            .max(1),
        queue_capacity: 1_000_000,
        ..ServeConfig::default()
    }
}

fn spawn(installed: Vec<InstalledRoutine>, max_nt: usize) -> Svc {
    Service::with_config(Adsala::new(installed, max_nt), serve_config())
        .expect("the host refused a scheduler thread")
}

/// The system under test after set-up.
struct System {
    installed: Vec<InstalledRoutine>,
    lib: Adsala,
    /// Serve workloads: the service, and the same service without models
    /// at one thread per job and at nt = max: the two fixed choices the
    /// model-backed service is measured against.
    service: Option<Svc>,
    fixed: Option<[Svc; 2]>,
    install: InstallTimes,
    spawn_secs: f64,
}

fn warm_direct(lib: &Adsala, ops: &mut [BenchOp], max_nt: usize) {
    for mode in [None, Some(max_nt), Some(1)] {
        for op in ops.iter_mut() {
            op.refresh();
            call(lib, &mut op.op, mode).expect("generated ops are well-formed");
        }
    }
}

fn warm_serve(service: &Svc, w: &Workload, tracer: &Tracer) {
    let mut g = Generator::new(service, w.tenants, &w.ops, &w.traffic);
    g.run(
        &Load::Closed {
            window: w.spec.serve_window,
        },
        0.05,
        tracer,
    );
}

/// Train the models on this host, build the runtime (and services), and
/// run one discarded warm-up round.
fn set_up(w: &mut Workload, timer: &RealTimer, tracer: &Tracer) -> System {
    let max_nt = timer.max_threads();
    let cap = 1.5 * w.max_footprint_bytes();
    let mut install = InstallTimes::default();
    let installed: Vec<InstalledRoutine> = w
        .routines()
        .into_iter()
        .map(|r| host_install(timer, r, w.spec.install_shapes, cap, &mut install))
        .collect();
    let lib = Adsala::new(installed.clone(), max_nt);
    let mut system = System {
        installed,
        lib,
        service: None,
        fixed: None,
        install,
        spawn_secs: 0.0,
    };
    match w.spec.entry {
        Entry::Direct => warm_direct(&system.lib, &mut w.ops, max_nt),
        Entry::Serve => {
            warm_direct(&system.lib, &mut w.ops, max_nt);
            let t = Instant::now();
            let service = spawn(system.installed.clone(), max_nt);
            system.spawn_secs = t.elapsed().as_secs_f64();
            let fixed = [spawn(Vec::new(), 1), spawn(Vec::new(), max_nt)];
            for svc in [&service, &fixed[0], &fixed[1]] {
                warm_serve(svc, w, tracer);
            }
            system.service = Some(service);
            system.fixed = Some(fixed);
        }
    }
    system
}

fn shut_down(service: Svc) -> f64 {
    let t = Instant::now();
    service.shutdown();
    t.elapsed().as_secs_f64()
}

/// Rotating short slices of closed-loop phases, each a
/// `(generator index, window, seconds)`. `keep` turns each finished slice
/// of phase `p` into what the caller needs of it; returns the kept slices
/// of each phase.
fn closed_slices<T>(
    gens: &mut [Generator<'_>],
    plan: &[(usize, usize, f64)],
    tracer: &Tracer,
    mut keep: impl FnMut(usize, Phase) -> T,
) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = plan.iter().map(|_| Vec::new()).collect();
    let budgets: Vec<f64> = plan.iter().map(|p| p.2).collect();
    rotate(&budgets, |p, left| {
        let (g, window, _) = plan[p];
        let secs = left.min(SERVE_SLICE_SECS);
        out[p].push(keep(p, gens[g].run(&Load::Closed { window }, secs, tracer)));
    });
    out
}

fn slice_rate(p: &Phase) -> f64 {
    p.done().count() as f64 / p.wall_secs.max(f64::MIN_POSITIVE)
}

/// Jobs per second of a closed phase with the machine uncontended: the
/// [`SLICE_QUANTILE`] of its slices' rates.
fn steady_slice_rate(rates: Vec<f64>) -> f64 {
    quantile_and_median(rates, SLICE_QUANTILE).0
}

/// Sorted seconds from submission to completion of every completed job.
fn round_trips(slices: &[Phase]) -> Vec<f64> {
    let mut v: Vec<f64> = slices
        .iter()
        .flat_map(|p| p.done())
        .map(|j| j.latency_from(j.submit_ns))
        .collect();
    sort(&mut v);
    v
}

fn tail_note(name: &str, unit: &str, scale: f64, sorted: &[f64]) -> String {
    match supported_tail(sorted) {
        Some((q, v)) => format!(
            "# {name}: p{} = {:.3} {unit} over {} samples",
            q * 100.0,
            v * scale,
            sorted.len()
        ),
        None => format!(
            "# {name}: {} samples, too few for a percentile",
            sorted.len()
        ),
    }
}

/// Tallies of what was attempted and what went wrong.
struct Tally {
    /// Places the columns checked of a large output.
    seed: u64,
    attempted: u64,
    failed: u64,
    mismatched: u64,
}

impl Tally {
    fn new(seed: u64) -> Tally {
        Tally {
            seed,
            attempted: 0,
            failed: 0,
            mismatched: 0,
        }
    }

    fn passes(&mut self, passes: &[PassResult]) {
        for p in passes {
            self.attempted += p.calls;
            self.failed += p.failed;
        }
    }

    fn phases<'a>(&mut self, phases: impl IntoIterator<Item = &'a Phase>, ops: &[BenchOp]) {
        for p in phases {
            self.attempted += p.jobs.len() as u64;
            self.failed += (p.count(Outcome::Failed) + p.count(Outcome::Rejected)) as u64;
            for (op, result) in &p.kept {
                let seed = self.seed ^ u64::from(*op);
                if !matches_reference(ops[*op as usize].op.clone(), result, seed) {
                    self.mismatched += 1;
                }
            }
        }
    }

    /// Run a seeded sample of the distinct ops through the measured
    /// library and compare each with the reference.
    fn direct_sample(&mut self, lib: &Adsala, w: &mut Workload) {
        let seed = self.seed;
        let mut order: Vec<usize> = (0..w.ops.len()).collect();
        Rng::stream(seed, 4).shuffle(&mut order);
        for &i in order.iter().take(w.spec.check_ops) {
            let op = &mut w.ops[i];
            op.refresh();
            let input = op.op.clone();
            self.attempted += 1;
            match call(lib, &mut op.op, None) {
                Ok(_) if matches_reference(input, &op.op, seed ^ i as u64) => {}
                Ok(_) => self.mismatched += 1,
                Err(_) => self.failed += 1,
            }
        }
    }
}

fn put_back_ops(ops: &mut [BenchOp]) {
    ops.iter_mut().for_each(BenchOp::refresh);
}

/// `(hits, misses)` of the last-call caches of the workload's routines.
fn cache_counts(lib: &Adsala, w: &Workload) -> (u64, u64) {
    w.routines()
        .iter()
        .filter_map(|r| lib.predictor(*r))
        .map(|p| p.cache_stats())
        .fold((0, 0), |(h, m), (a, b)| (h + a, m + b))
}

fn hit_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let (h, m) = (after.0 - before.0, after.1 - before.1);
    h as f64 / (h + m).max(1) as f64
}

fn rate(p: &PassResult) -> f64 {
    median(&mut p.round_rates.clone())
}

/// Time of the ML pass over the time of an oracle that runs each op at the
/// better of the two fixed thread counts: 1.0 means every call went as
/// fast as the best fixed choice, `t_eval` included. The three passes
/// rotate within one run, so the state of the machine cancels.
fn ml_over_oracle(ml: &PassResult, nt1: &PassResult, maxnt: &PassResult) -> f64 {
    let n = ml.op_calls.len();
    let oracle: f64 = (0..n)
        .map(|i| nt1.op_mean_secs(i).min(maxnt.op_mean_secs(i)))
        .sum();
    (0..n).map(|i| ml.op_mean_secs(i)).sum::<f64>() / oracle
}

/// Calls per second of a pass with the machine uncontended: every
/// distinct op counted at the [`CALL_QUANTILE`] of its call times.
fn steady_rate(p: &PassResult) -> f64 {
    let per_op = p.op_quantile_us(CALL_QUANTILE);
    per_op.len() as f64 / per_op.iter().sum::<f64>() * 1e6
}

/// The median call of a pass with the machine uncontended, microseconds:
/// the median over the distinct ops (each is called equally often) of the
/// op's [`CALL_QUANTILE`] call time.
fn steady_p50_us(p: &PassResult) -> f64 {
    median(&mut p.op_quantile_us(CALL_QUANTILE))
}

/// The `q`-quantile and the median of a sample.
fn quantile_and_median(mut v: Vec<f64>, q: f64) -> (f64, f64) {
    sort(&mut v);
    (percentile(&v, q), percentile(&v, 0.5))
}

/// `t_eval`: microseconds of one `Adsala::predict_nt` call on the
/// workload's own sequence of shapes (so the last-call cache hits as often
/// as it does in the workload), as the median over rounds of a round's
/// mean. Single calls on the hit path are shorter than a clock read.
fn predict_us(lib: &Adsala, w: &Workload, seconds: f64) -> f64 {
    let seq: Vec<_> = w
        .traffic
        .iter()
        .take(8192)
        .map(|a| {
            let op = &w.ops[a.op as usize].op;
            (op.routine(), op.dims())
        })
        .collect();
    let began = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || began.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        for &(r, d) in &seq {
            std::hint::black_box(lib.predict_nt(r, std::hint::black_box(d)));
        }
        rounds.push(t.elapsed().as_secs_f64() / seq.len() as f64 * 1e6);
    }
    median(&mut rounds)
}

fn call_times_note(name: &str, pass: &PassResult, notes: &mut Vec<String>) {
    let mut calls: Vec<f64> = pass.call_us.iter().map(|&u| f64::from(u)).collect();
    sort(&mut calls);
    notes.push(format!(
        "# {name}: {:.1} calls/s uncontended, {:.1} as the median round ran; call p50 {:.3} us",
        steady_rate(pass),
        rate(pass),
        percentile(&calls, 0.5)
    ));
    notes.push(tail_note(&format!("{name} tail"), "us", 1.0, &calls));
}

/// The untraced run: only what the end-to-end metrics need.
fn measure_end_to_end(
    args: &Args,
    w: &mut Workload,
    sys: &System,
    max_nt: usize,
    tracer: &Tracer,
    out: &mut Report,
) {
    let s = args.seconds;
    let mut tally = Tally::new(args.seed);
    match w.spec.entry {
        Entry::Direct => {
            // The serial pass needs the fewest rounds: one busy thread
            // finds the machine uncontended far more often than two.
            let plan = [
                (Mode::Ml, 0.4 * s, false),
                (Mode::MaxNt, 0.4 * s, false),
                (Mode::Nt1, 0.2 * s, false),
            ];
            let rps = w.spec.rounds_per_slice;
            let passes = run_passes(&sys.lib, &mut w.ops, &plan, rps, max_nt, None);
            tally.passes(&passes);
            let [ml, maxnt, nt1] = &passes[..] else {
                unreachable!("one result per planned pass")
            };
            out.values.set("ops_per_s", steady_rate(ml));
            out.values.set("maxnt_ops_per_s", steady_rate(maxnt));
            out.values.set("nt1_ops_per_s", steady_rate(nt1));
            out.values.set("op_p50_us", steady_p50_us(ml));
            for (name, pass) in ["ML pass", "maxnt pass", "nt1 pass"].iter().zip(&passes) {
                call_times_note(name, pass, &mut out.notes);
            }
            tally.direct_sample(&sys.lib, w);
        }
        Entry::Serve => {
            let service = sys
                .service
                .as_ref()
                .expect("serve set-up spawns the service");
            let fixed = sys
                .fixed
                .as_ref()
                .expect("serve set-up spawns the model-less services");
            let mut gens = [service, &fixed[0], &fixed[1]]
                .map(|svc| Generator::new(svc, w.tenants, &w.ops, &w.traffic));
            let window = w.spec.serve_window;
            let plan = [
                (0, window, 0.25 * s),
                (2, window, 0.25 * s),
                (1, window, 0.2 * s),
                (0, 1, 0.3 * s),
            ];
            // Of a slice only its rate is kept, and the round trips of
            // window 1: two million job records would make the peak
            // resident set follow the throughput.
            let mut round_trip_us: Vec<f64> = Vec::new();
            let rates = closed_slices(&mut gens, &plan, tracer, |p, phase| {
                tally.phases([&phase], &w.ops);
                if plan[p].1 == 1 {
                    round_trip_us.extend(phase.done().map(|j| j.latency_from(j.submit_ns) * 1e6));
                }
                slice_rate(&phase)
            });
            let names = ["ops_per_s", "maxnt_ops_per_s", "nt1_ops_per_s"];
            for (name, phase) in names.into_iter().zip(&rates) {
                let (steady, typical) = quantile_and_median(phase.clone(), SLICE_QUANTILE);
                out.values.set(name, steady);
                out.notes.push(format!(
                    "# {name} (window {window}): {steady:.1} jobs/s uncontended, {typical:.1} in the median slice of {}",
                    phase.len()
                ));
            }
            // One job in flight: every round trip wakes the cell and then
            // the generator. Four in five take the sleeping path (24-36 us
            // for a 32-cube); the rest find the other thread still
            // spinning (6-16 us). The plain median stays on the sleeping
            // path, which is the one the metric is about.
            sort(&mut round_trip_us);
            out.values.set("op_p50_us", percentile(&round_trip_us, 0.5));
            out.notes
                .push(tail_note("window 1 round trip", "us", 1.0, &round_trip_us));
        }
    }
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    out.mismatched += tally.mismatched;
}

/// Direct-entry layer metrics from three traced passes plus one untraced
/// ML pass as the tracing-overhead base. Returns the per-op serial means.
fn measure_direct_layers(
    w: &mut Workload,
    lib: &Adsala,
    max_nt: usize,
    budget: f64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    report: &mut Report,
) -> Vec<f64> {
    let (out, notes) = (&mut report.values, &mut report.notes);
    let rps = w.spec.rounds_per_slice;
    let before = cache_counts(lib, w);
    // The untraced ML pass rotates with the traced one, so the two see
    // the same machine and their ratio is the tracing overhead.
    let plan = [
        (Mode::Ml, 0.3 * budget, false),
        (Mode::Ml, 0.3 * budget, true),
        (Mode::MaxNt, 0.2 * budget, false),
        (Mode::Nt1, 0.2 * budget, false),
    ];
    let passes = run_passes(lib, &mut w.ops, &plan, rps, max_nt, Some(tracer));
    let after = cache_counts(lib, w);
    tally.passes(&passes);
    let (plain, ml, maxnt, nt1) = (&passes[0], &passes[1], &passes[2], &passes[3]);

    out.set("direct.ops_per_s", steady_rate(plain));
    out.set("direct.maxnt_ops_per_s", steady_rate(maxnt));
    out.set("blas3.nt1_ops_per_s", steady_rate(nt1));
    out.set("direct.op_p50_us", steady_p50_us(plain));
    let mut calls: Vec<f64> = plain.call_us.iter().map(|&u| f64::from(u)).collect();
    sort(&mut calls);
    let tail = supported_tail(&calls).map_or(percentile(&calls, 0.5), |(_, v)| v);
    out.set("direct.op_tail_us", tail);
    notes.push(tail_note("direct.op_tail_us", "us", 1.0, &calls));

    let work = |f: fn(&BenchOp) -> f64| -> f64 {
        w.ops
            .iter()
            .zip(&plain.op_calls)
            .map(|(op, &n)| f(op) * f64::from(n))
            .sum::<f64>()
            / plain.busy_secs
            / 1e9
    };
    out.set("blas3.gflops", work(|op| op.op.flops()));
    out.set("blas3.gbps", work(|op| op.op.bytes_touched()));

    let n = w.ops.len();
    let sum = |f: &dyn Fn(usize) -> f64| (0..n).map(f).sum::<f64>();
    let (t_max, t_one) = (
        sum(&|i| maxnt.op_mean_secs(i)),
        sum(&|i| nt1.op_mean_secs(i)),
    );
    out.set("blas3.parallel_eff", t_one / (max_nt as f64 * t_max));
    out.set("adsala.nt_regret", ml_over_oracle(ml, nt1, maxnt));
    out.set(
        "adsala.nt1_share",
        ml.nt1_calls as f64 / ml.calls.max(1) as f64,
    );
    out.set(
        "adsala.speedup_vs_max_nt",
        steady_rate(plain) / steady_rate(maxnt),
    );
    if w.spec.entry == Entry::Direct {
        out.set("adsala.cache_hit_share", hit_share(before, after));
    }
    // Only the direct path runs different code when traced (two public
    // calls and three clock reads per op); serve spans are built after
    // the run from the timestamps the generator takes anyway.
    out.set(
        "trace.overhead_share",
        1.0 - steady_rate(ml) / steady_rate(plain),
    );
    let times = tracer.times();
    out.set(
        "adsala.predict_share",
        times["adsala.predict"].total_ns as f64 / times["op"].total_ns.max(1) as f64,
    );
    (0..n).map(|i| nt1.op_mean_secs(i)).collect()
}

/// Serve-entry layer metrics: closed at window 1, closed at the workload's
/// window (against the model-backed service and the two model-less ones),
/// open loop at the workload's fixed rate.
#[allow(clippy::too_many_arguments)]
fn measure_serve_layers(
    args: &Args,
    w: &mut Workload,
    service: &Svc,
    fixed: &[Svc; 2],
    serial_secs: &[f64],
    budget: f64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    report: &mut Report,
) {
    let (out, notes) = (&mut report.values, &mut report.notes);
    put_back_ops(&mut w.ops);
    let window = w.spec.serve_window;
    let before = cache_counts(service.runtime(), w);
    let mut gens = [service, &fixed[0], &fixed[1]]
        .map(|svc| Generator::new(svc, w.tenants, &w.ops, &w.traffic));
    let plan = [
        (1, window, 0.125 * budget),
        (2, window, 0.125 * budget),
        (0, 1, 0.225 * budget),
        (0, window, 0.225 * budget),
    ];
    let mut slices = closed_slices(&mut gens, &plan, tracer, |_, phase| phase);
    let open_secs = 0.3 * budget;
    let schedule = poisson_schedule(w.spec.open_rate, open_secs, &mut Rng::stream(args.seed, 5));
    let open = gens[0].run(
        &Load::Open {
            schedule: &schedule,
        },
        open_secs,
        tracer,
    );
    let after = cache_counts(service.runtime(), w);
    tally.phases(slices.iter().flatten().chain([&open]), &w.ops);
    let mut next = || slices.pop().expect("one list of slices per planned phase");
    let (windowed, single, maxnt, nt1) = (next(), next(), next(), next());
    for p in single.iter().chain(&windowed).chain([&open]) {
        record_spans(p, tracer);
    }

    out.set(
        "serve.jobs_per_s",
        steady_slice_rate(windowed.iter().map(slice_rate).collect()),
    );
    out.set(
        "serve.maxnt_jobs_per_s",
        steady_slice_rate(maxnt.iter().map(slice_rate).collect()),
    );
    out.set(
        "serve.nt1_jobs_per_s",
        steady_slice_rate(nt1.iter().map(slice_rate).collect()),
    );
    let rtt = round_trips(&single);
    out.set("serve.rtt_p50_us", percentile(&rtt, 0.5) * 1e6);
    let over = |f: &dyn Fn(&crate::serve::Job) -> f64| -> Vec<f64> {
        let mut v: Vec<f64> = single.iter().flat_map(|p| p.done()).map(f).collect();
        sort(&mut v);
        v
    };
    let submit = over(&|j| (j.submitted_ns - j.submit_ns) as f64 * 1e-9);
    out.set("serve.submit_us", percentile(&submit, 0.5) * 1e6);
    let exec = over(&|j| j.exec_secs);
    let exec_mean = exec.iter().sum::<f64>() / exec.len() as f64;
    out.set("serve.exec_us", exec_mean * 1e6);
    let serial = over(&|j| serial_secs[j.op as usize]);
    out.set(
        "serve.exec_inflation",
        exec_mean / (serial.iter().sum::<f64>() / serial.len() as f64),
    );
    let overhead = over(&|j| j.latency_from(j.submit_ns) - j.exec_secs);
    out.set("serve.overhead_us", percentile(&overhead, 0.5) * 1e6);

    let jobs: Vec<_> = windowed.iter().flat_map(|p| p.done()).collect();
    let wall: f64 = windowed.iter().map(|p| p.wall_secs).sum();
    out.set(
        "serve.busy_share",
        jobs.iter().map(|j| j.exec_secs).sum::<f64>() / wall,
    );
    out.set(
        "serve.batch_size_mean",
        jobs.iter().map(|j| f64::from(j.batch)).sum::<f64>() / jobs.len() as f64,
    );
    out.set(
        "serve.model_backed_share",
        jobs.iter().filter(|j| j.model_backed).count() as f64 / jobs.len() as f64,
    );

    let mut lat: Vec<f64> = open.done().map(|j| j.latency_from(j.due_ns)).collect();
    sort(&mut lat);
    out.set("serve.open_p50_ms", percentile(&lat, 0.5) * 1e3);
    let in_time = lat.iter().filter(|&&l| l <= OPEN_SLO_SECS).count();
    out.set(
        "serve.open_slo_share",
        in_time as f64 / open.jobs.len().max(1) as f64,
    );
    let tail = supported_tail(&lat).map_or(percentile(&lat, 0.5), |(_, v)| v);
    out.set("serve.open_tail_ms", tail * 1e3);
    notes.push(tail_note("serve.open_tail_ms", "ms", 1e3, &lat));
    let mut late: Vec<f64> = open
        .jobs
        .iter()
        .map(|j| (j.submit_ns - j.due_ns) as f64 * 1e-9)
        .collect();
    sort(&mut late);
    out.set("serve.gen_late_p99_ms", percentile(&late, 0.99) * 1e3);
    out.set("serve.gen_late_max_ms", percentile(&late, 1.0) * 1e3);

    let rejected: usize = single
        .iter()
        .chain(&windowed)
        .chain(&maxnt)
        .chain(&nt1)
        .chain([&open])
        .map(|p| p.count(Outcome::Rejected))
        .sum();
    out.set("serve.rejected", rejected as f64);
    let stats = service.stats();
    out.set(
        "serve.retries",
        stats.shards.iter().map(|s| s.retries).sum::<u64>() as f64,
    );
    out.set(
        "serve.shed",
        stats.shards.iter().map(|s| s.shed_jobs).sum::<u64>() as f64,
    );
    if w.spec.entry == Entry::Serve {
        out.set("adsala.cache_hit_share", hit_share(before, after));
    }
}

/// The traced run: probes, then both entry points over the workload's
/// ops, the workload's own entry point getting most of the time.
fn measure_layers(
    args: &Args,
    w: &mut Workload,
    sys: &mut System,
    max_nt: usize,
    tracer: &mut Tracer,
    out: &mut Report,
) {
    let values = &mut out.values;
    values.set("sampling.draw_us", sys.install.draw_secs * 1e6);
    values.set("adsala.gather_s", sys.install.gather_secs);
    values.set("adsala.pipeline_fit_s", sys.install.pipeline_secs);
    values.set("ml.fit_s", sys.install.fit_secs);
    probes::run(&sys.lib, w, &out.info, max_nt, values);
    // On the workload's own entry point, so the cache hits as it does there.
    let predictor = sys.service.as_ref().map_or(&sys.lib, |svc| svc.runtime());
    values.set("adsala.predict_us", predict_us(predictor, w, 0.5));

    let (direct_share, serve_share) = match w.spec.entry {
        Entry::Direct => (0.65, 0.35),
        Entry::Serve => (0.25, 0.75),
    };
    let mut tally = Tally::new(args.seed);
    let serial = measure_direct_layers(
        w,
        &sys.lib,
        max_nt,
        direct_share * args.seconds,
        tracer,
        &mut tally,
        out,
    );
    // Direct workloads meet the serve layer here for the first time.
    let service = sys.service.take().unwrap_or_else(|| {
        let t = Instant::now();
        let service = spawn(sys.installed.clone(), max_nt);
        sys.spawn_secs = t.elapsed().as_secs_f64();
        service
    });
    // The two fixed choices in serve form: no model, every job at one
    // thread, or at nt = max (the paper's baseline).
    let fixed = sys
        .fixed
        .take()
        .unwrap_or_else(|| [spawn(Vec::new(), 1), spawn(Vec::new(), max_nt)]);
    measure_serve_layers(
        args,
        w,
        &service,
        &fixed,
        &serial,
        serve_share * args.seconds,
        tracer,
        &mut tally,
        out,
    );
    let values = &mut out.values;
    values.set("serve.spawn_ms", sys.spawn_secs * 1e3);
    values.set("serve.shutdown_ms", shut_down(service) * 1e3);
    values.set("trace.self_time_cover", tracer.root_cover());
    tally.direct_sample(&sys.lib, w);
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    out.mismatched += tally.mismatched;

    let path = PathBuf::from(&args.out_dir).join(format!("trace-{}.jsonl", w.spec.name));
    match tracer.write_jsonl(&path) {
        Ok(()) => out.notes.push(format!(
            "# {} spans recorded, trace written to {}",
            tracer.spans.len(),
            path.display()
        )),
        Err(e) => out
            .notes
            .push(format!("# trace not written to {}: {e}", path.display())),
    }
}

pub fn run(args: &Args) -> Report {
    let info = HostInfo::read();
    let mut w = Workload::generate(args.workload, args.seed);
    let mut out = Report {
        values: Values::default(),
        attempted: 0,
        failed: 0,
        mismatched: 0,
        workload_hash: w.hash(),
        info,
        notes: Vec::new(),
    };
    let timer = RealTimer::new(1);
    let max_nt = timer.max_threads();
    let mut tracer = Tracer::new();

    let mut setups: Vec<f64> = Vec::new();
    let mut system = None;
    for _ in 0..SETUP_REPEATS {
        drop(system.take());
        let t = Instant::now();
        system = Some(set_up(&mut w, &timer, &tracer));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut system = system.expect("set-up ran at least once");
    out.notes.push(format!(
        "# set-up ran {} times: {}",
        setups.len(),
        setups
            .iter()
            .map(|s| format!("{s:.3} s"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);

    if args.trace {
        measure_layers(args, &mut w, &mut system, max_nt, &mut tracer, &mut out);
    } else {
        measure_end_to_end(args, &mut w, &system, max_nt, &tracer, &mut out);
        out.values.set("setup_s", setup_s);
    }
    drop(system);
    if !args.trace {
        out.values.set("peak_rss_mb", host::peak_rss_mib());
    }
    out
}

//! The direct entry point: one caller thread in a closed loop on
//! `Adsala::execute`, as three passes over the identical op sequence.

use crate::stats::{percentile, sort};
use crate::trace::{Tracer, ROOT};
use crate::workload::BenchOp;
use adsala::Adsala;
use adsala_blas3::Blas3Error;
use adsala_serve::AnyOp;
use std::time::Instant;

/// How the thread count of a pass is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Adsala::execute`: the model predicts, then the backend runs.
    Ml,
    /// `execute_with_nt(max)`: the paper's `t_max` baseline, and what a
    /// runtime without a model does.
    MaxNt,
    /// `execute_with_nt(1)`: the plain serial baseline.
    Nt1,
}

/// Run one call with the model's choice (`None`) or a fixed thread count;
/// returns the thread count used.
pub fn call(lib: &Adsala, op: &mut AnyOp, nt: Option<usize>) -> Result<usize, Blas3Error> {
    macro_rules! dispatch {
        ($o:expr, $execute:ident, $with_nt:ident) => {
            match nt {
                None => lib.$execute($o.as_op()),
                Some(nt) => lib.$with_nt(nt, $o.as_op()).map(|()| nt),
            }
        };
    }
    match op {
        AnyOp::F32(o) => dispatch!(o, execute, execute_with_nt),
        AnyOp::F64(o) => dispatch!(o, execute, execute_with_nt),
        AnyOp::F32L2(o) => dispatch!(o, execute2, execute2_with_nt),
        AnyOp::F64L2(o) => dispatch!(o, execute2, execute2_with_nt),
    }
}

/// What one pass measured. Rates count the time inside the library calls;
/// restoring an in-place operand between calls is the caller's work.
#[derive(Debug, Clone)]
pub struct PassResult {
    pub calls: u64,
    pub failed: u64,
    pub nt1_calls: u64,
    /// Seconds inside library calls.
    pub busy_secs: f64,
    /// Calls per busy second of each whole round.
    pub round_rates: Vec<f64>,
    /// Duration of every call, microseconds, in call order: rounds are
    /// whole, so call `k` is op `k % n_ops`.
    pub call_us: Vec<f32>,
    /// Busy seconds and calls per distinct op, by op index.
    pub op_secs: Vec<f64>,
    pub op_calls: Vec<u32>,
}

impl PassResult {
    fn new(n_ops: usize) -> PassResult {
        PassResult {
            calls: 0,
            failed: 0,
            nt1_calls: 0,
            busy_secs: 0.0,
            round_rates: Vec::new(),
            call_us: Vec::new(),
            op_secs: vec![0.0; n_ops],
            op_calls: vec![0; n_ops],
        }
    }

    /// Mean seconds of one call of op `i`.
    pub fn op_mean_secs(&self, i: usize) -> f64 {
        self.op_secs[i] / f64::from(self.op_calls[i].max(1))
    }

    /// For each distinct op, the `q`-quantile of its call times over the
    /// rounds, microseconds.
    pub fn op_quantile_us(&self, q: f64) -> Vec<f64> {
        let n = self.op_secs.len();
        (0..n)
            .map(|i| {
                let mut v: Vec<f64> = self.call_us[i..]
                    .iter()
                    .step_by(n)
                    .map(|&u| f64::from(u))
                    .collect();
                sort(&mut v);
                percentile(&v, q)
            })
            .collect()
    }
}

/// One pass over every op, in order, in one mode.
fn round(
    lib: &Adsala,
    ops: &mut [BenchOp],
    mode: Mode,
    max_nt: usize,
    res: &mut PassResult,
    mut tracer: Option<&mut Tracer>,
) {
    let mut busy = 0.0;
    for (i, op) in ops.iter_mut().enumerate() {
        op.refresh();
        let t0 = Instant::now();
        let outcome = match (mode, tracer.as_deref_mut()) {
            // Traced: the two halves of `execute` as two public calls, so
            // each gets its own span. The fixed-nt passes have one layer
            // and nothing to tell apart.
            (Mode::Ml, Some(tr)) => {
                let nt = lib.predict_nt(op.op.routine(), op.op.dims());
                let t1 = Instant::now();
                let r = call(lib, &mut op.op, Some(nt));
                let t2 = Instant::now();
                let (a, b, c) = (tr.ns(t0), tr.ns(t1), tr.ns(t2));
                let seq = res.calls as u32;
                let root = tr.push("op", ROOT, seq, a, c);
                tr.push("adsala.predict", root, seq, a, b);
                tr.push("blas3.execute", root, seq, b, c);
                r
            }
            (Mode::Ml, None) => call(lib, &mut op.op, None),
            (Mode::MaxNt, _) => call(lib, &mut op.op, Some(max_nt)),
            (Mode::Nt1, _) => call(lib, &mut op.op, Some(1)),
        };
        let secs = t0.elapsed().as_secs_f64();
        busy += secs;
        res.calls += 1;
        res.call_us.push((secs * 1e6) as f32);
        res.op_secs[i] += secs;
        res.op_calls[i] += 1;
        match outcome {
            Ok(1) => res.nt1_calls += 1,
            Ok(_) => {}
            Err(_) => res.failed += 1,
        }
    }
    res.busy_secs += busy;
    res.round_rates.push(ops.len() as f64 / busy);
}

/// Spend each budget (wall-clock seconds) in slices: `slice(p, left)` runs
/// one slice of activity `p` with `left` seconds of its budget remaining.
/// Slices rotate (ABC, BCA, CAB, ...) so no activity always follows the
/// same neighbour and all of them sample the whole run, whatever state the
/// machine is in at the time.
pub fn rotate(budgets: &[f64], mut slice: impl FnMut(usize, f64)) {
    let n = budgets.len();
    let mut spent = vec![0.0f64; n];
    for cycle in 0.. {
        let mut ran = false;
        for k in 0..n {
            let p = (k + cycle) % n;
            let left = budgets[p] - spent[p];
            if left <= 0.0 {
                continue;
            }
            ran = true;
            let t = Instant::now();
            slice(p, left);
            spent[p] += t.elapsed().as_secs_f64();
        }
        if !ran {
            break;
        }
    }
}

/// One pass: its mode, its wall-clock budget in seconds, and whether its
/// calls are traced (when a tracer is given).
pub type Pass = (Mode, f64, bool);

/// Run the passes for their budgets. A slice is `rounds_per_slice` whole
/// rounds in one mode, so the mode never changes between two calls: a
/// serial call parks the pool worker and the next parallel call pays
/// ~15 us to wake it again.
pub fn run_passes(
    lib: &Adsala,
    ops: &mut [BenchOp],
    passes: &[Pass],
    rounds_per_slice: usize,
    max_nt: usize,
    mut tracer: Option<&mut Tracer>,
) -> Vec<PassResult> {
    let mut results = vec![PassResult::new(ops.len()); passes.len()];
    let budgets: Vec<f64> = passes.iter().map(|p| p.1).collect();
    rotate(&budgets, |p, _| {
        for _ in 0..rounds_per_slice {
            let tr = tracer.as_deref_mut().filter(|_| passes[p].2);
            round(lib, ops, passes[p].0, max_nt, &mut results[p], tr);
        }
    });
    results
}

//! The four workloads: which calls, in which order, for which reason.
//!
//! Everything here is a constant or a function of `--seed`; nothing is
//! calibrated from a measurement. Shapes are drawn from fixed strata and
//! the seed only moves them inside a stratum, permutes them and fills the
//! operands, so two seeds give different inputs of the same total work.

use crate::rng::Rng;
use adsala_blas3::op::{Dims, OpKind, Precision, Routine};
use adsala_blas3::{Diag, Float, Matrix, OwnedOp, OwnedOp2, Side, Transpose, Uplo};
use adsala_serve::AnyOp;

/// How a workload reaches the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// One caller thread in a closed loop on `Adsala::execute`.
    Direct,
    /// Jobs submitted to a `Service`.
    Serve,
}

/// The constants of one workload.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layer does the work here.
    pub why: &'static str,
    pub entry: Entry,
    /// Whole rounds run in one mode before the passes rotate; sized so a
    /// slice lasts ~100 ms: long enough that a parked pool worker is not
    /// re-woken after every call, short enough that every pass meets every
    /// state the machine is in during the run.
    pub rounds_per_slice: usize,
    /// Shapes sampled per routine at set-up, each timed at every nt.
    pub install_shapes: usize,
    /// Distinct ops re-run against `ReferenceBackend` after the measured
    /// phase, drawn by the seed.
    pub check_ops: usize,
    /// Jobs kept in flight in the closed serve phase; bounded so the
    /// operand clones in flight stay under ~512 MiB.
    pub serve_window: usize,
    /// Fixed arrival rate of the open-loop phase, jobs/s.
    pub open_rate: f64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "l3_small",
        why: "512 Level-3 calls with dims in 8..96, every one a predictor-cache miss: the prediction sweep is about a quarter of a call, kernels barely show",
        entry: Entry::Direct,
        rounds_per_slice: 4,
        install_shapes: 32,
        check_ops: 64,
        serve_window: 16,
        open_rate: 2000.0,
    },
    Spec {
        name: "l3_large",
        why: "49 Level-3 calls with dims in 128..512: packing and kernels do the work, prediction is about 1% of a call, the small strata sit on the nt crossover",
        entry: Entry::Direct,
        rounds_per_slice: 1,
        install_shapes: 10,
        check_ops: 8,
        serve_window: 4,
        open_rate: 100.0,
    },
    Spec {
        name: "l2_stream",
        why: "seven Level-2 calls on n=1024 operands (8 MiB each): priced by bytes, plateaus at the bandwidth knee; a gemm gain that costs the streaming kernels shows here",
        entry: Entry::Direct,
        rounds_per_slice: 64,
        install_shapes: 16,
        check_ops: 7,
        serve_window: 2,
        open_rate: 50.0,
    },
    Spec {
        name: "serve_small",
        why: "dgemm 32/48/64 through one service cell in same-shape runs: admission, queue, wake-up, completion and the cache-hit predict path do the work",
        entry: Entry::Serve,
        rounds_per_slice: 512,
        install_shapes: 48,
        check_ops: 12,
        serve_window: 16,
        open_rate: 2000.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One call of a workload: the owned description plus what is needed to
/// run it again. The in-place families (trmm, trsm, trmv, trsv) overwrite
/// an input, and thousands of repeats would drive the values to overflow
/// or denormals, so their in-place operand is restored before each call.
#[derive(Debug, Clone)]
pub struct BenchOp {
    pub op: AnyOp,
    pristine: Pristine,
    /// Generator state after this op's operands were drawn; part of the
    /// workload hash, so equal hashes mean equal operand values.
    fingerprint: u64,
}

#[derive(Debug, Clone)]
pub enum Pristine {
    None,
    F32(Vec<f32>),
    F64(Vec<f64>),
}

/// The two precisions, for wrapping a generic op into `AnyOp`.
pub trait Scalar: Float {
    fn wrap3(op: OwnedOp<Self>) -> AnyOp;
    fn wrap2(op: OwnedOp2<Self>) -> AnyOp;
    fn keep(v: Vec<Self>) -> Pristine;
}

impl Scalar for f32 {
    fn wrap3(op: OwnedOp<f32>) -> AnyOp {
        AnyOp::F32(op)
    }
    fn wrap2(op: OwnedOp2<f32>) -> AnyOp {
        AnyOp::F32L2(op)
    }
    fn keep(v: Vec<f32>) -> Pristine {
        Pristine::F32(v)
    }
}

impl Scalar for f64 {
    fn wrap3(op: OwnedOp<f64>) -> AnyOp {
        AnyOp::F64(op)
    }
    fn wrap2(op: OwnedOp2<f64>) -> AnyOp {
        AnyOp::F64L2(op)
    }
    fn keep(v: Vec<f64>) -> Pristine {
        Pristine::F64(v)
    }
}

fn dense<T: Float>(rows: usize, cols: usize, rng: &mut Rng) -> Matrix<T> {
    Matrix::from_col_major(rows, cols, vector(rows * cols, rng))
}

/// Strictly diagonally dominant, so products stay bounded and solves are
/// well conditioned at every order (a random triangle is not: its
/// condition number grows exponentially with n).
fn triangle<T: Float>(n: usize, rng: &mut Rng) -> Matrix<T> {
    let scale = T::from_f64(1.0 / n as f64);
    let mut m: Matrix<T> = dense(n, n, rng);
    for (j, col) in m.as_mut_slice().chunks_exact_mut(n).enumerate() {
        let diag = col[j];
        col.iter_mut().for_each(|v| *v *= scale);
        col[j] = diag + T::from_f64(2.0);
    }
    m
}

fn vector<T: Float>(n: usize, rng: &mut Rng) -> Vec<T> {
    (0..n).map(|_| T::from_f64(rng.centered())).collect()
}

impl BenchOp {
    /// A Level-3 call with the flags `RealTimer` times at installation
    /// (left side, no transpose, non-unit diagonal, `beta = 0`), so the
    /// host-trained model prices exactly the calls it is asked about.
    pub fn level3<T: Scalar>(kind: OpKind, d: Dims, rng: &mut Rng) -> BenchOp {
        let (one, zero) = (T::ONE, T::ZERO);
        let mut pristine = Pristine::None;
        let op = match kind {
            OpKind::Gemm => OwnedOp::Gemm {
                transa: Transpose::No,
                transb: Transpose::No,
                alpha: one,
                a: dense(d.a(), d.b(), rng),
                b: dense(d.b(), d.c(), rng),
                beta: zero,
                c: Matrix::zeros(d.a(), d.c()),
            },
            OpKind::Symm => OwnedOp::Symm {
                side: Side::Left,
                uplo: Uplo::Upper,
                alpha: one,
                a: dense(d.a(), d.a(), rng),
                b: dense(d.a(), d.b(), rng),
                beta: zero,
                c: Matrix::zeros(d.a(), d.b()),
            },
            OpKind::Syrk => OwnedOp::Syrk {
                uplo: Uplo::Lower,
                trans: Transpose::No,
                alpha: one,
                a: dense(d.a(), d.b(), rng),
                beta: zero,
                c: Matrix::zeros(d.a(), d.a()),
            },
            OpKind::Syr2k => OwnedOp::Syr2k {
                uplo: Uplo::Lower,
                trans: Transpose::No,
                alpha: one,
                a: dense(d.a(), d.b(), rng),
                b: dense(d.a(), d.b(), rng),
                beta: zero,
                c: Matrix::zeros(d.a(), d.a()),
            },
            OpKind::Trmm | OpKind::Trsm => {
                let a = triangle(d.a(), rng);
                let b: Matrix<T> = dense(d.a(), d.b(), rng);
                pristine = T::keep(b.as_slice().to_vec());
                let (side, uplo, trans, diag) =
                    (Side::Left, Uplo::Upper, Transpose::No, Diag::NonUnit);
                let alpha = one;
                if kind == OpKind::Trmm {
                    OwnedOp::Trmm {
                        side,
                        uplo,
                        trans,
                        diag,
                        alpha,
                        a,
                        b,
                    }
                } else {
                    OwnedOp::Trsm {
                        side,
                        uplo,
                        trans,
                        diag,
                        alpha,
                        a,
                        b,
                    }
                }
            }
            other => panic!("{} is not a Level-3 family", other.name()),
        };
        BenchOp {
            op: T::wrap3(op),
            pristine,
            fingerprint: rng.next_u64(),
        }
    }

    /// A Level-2 call; `trans` only applies to gemv.
    pub fn level2<T: Scalar>(kind: OpKind, trans: Transpose, d: Dims, rng: &mut Rng) -> BenchOp {
        let (one, zero) = (T::ONE, T::ZERO);
        let mut pristine = Pristine::None;
        let op = match kind {
            OpKind::Gemv => {
                let (xlen, ylen) = match trans {
                    Transpose::No => (d.b(), d.a()),
                    Transpose::Yes => (d.a(), d.b()),
                };
                OwnedOp2::Gemv {
                    trans,
                    alpha: one,
                    a: dense(d.a(), d.b(), rng),
                    x: vector(xlen, rng),
                    beta: zero,
                    y: vec![zero; ylen],
                }
            }
            // `refresh` flips the sign of alpha, so the update is undone
            // by the next call and A stays bounded without a copy.
            OpKind::Ger => OwnedOp2::Ger {
                alpha: one,
                x: vector(d.a(), rng),
                y: vector(d.b(), rng),
                a: dense(d.a(), d.b(), rng),
            },
            OpKind::Symv => OwnedOp2::Symv {
                uplo: Uplo::Upper,
                alpha: one,
                a: dense(d.a(), d.a(), rng),
                x: vector(d.a(), rng),
                beta: zero,
                y: vec![zero; d.a()],
            },
            OpKind::Trmv | OpKind::Trsv => {
                let a = triangle(d.a(), rng);
                let x: Vec<T> = vector(d.a(), rng);
                pristine = T::keep(x.clone());
                let (uplo, trans, diag) = (Uplo::Upper, Transpose::No, Diag::NonUnit);
                if kind == OpKind::Trmv {
                    OwnedOp2::Trmv {
                        uplo,
                        trans,
                        diag,
                        a,
                        x,
                    }
                } else {
                    OwnedOp2::Trsv {
                        uplo,
                        trans,
                        diag,
                        a,
                        x,
                    }
                }
            }
            other => panic!("{} is not a Level-2 family", other.name()),
        };
        BenchOp {
            op: T::wrap2(op),
            pristine,
            fingerprint: rng.next_u64(),
        }
    }

    /// Put the op back into a state it can be called from again.
    pub fn refresh(&mut self) {
        fn level3<T: Float>(op: &mut OwnedOp<T>, p: &[T]) {
            if let OwnedOp::Trmm { b, .. } | OwnedOp::Trsm { b, .. } = op {
                b.as_mut_slice().copy_from_slice(p);
            }
        }
        fn level2<T: Float>(op: &mut OwnedOp2<T>, p: Option<&[T]>) {
            match (op, p) {
                (OwnedOp2::Trmv { x, .. } | OwnedOp2::Trsv { x, .. }, Some(p)) => {
                    x.copy_from_slice(p)
                }
                (OwnedOp2::Ger { alpha, .. }, _) => *alpha = -*alpha,
                _ => {}
            }
        }
        match (&mut self.op, &self.pristine) {
            (AnyOp::F32(op), Pristine::F32(p)) => level3(op, p),
            (AnyOp::F64(op), Pristine::F64(p)) => level3(op, p),
            (AnyOp::F32L2(op), Pristine::F32(p)) => level2(op, Some(p)),
            (AnyOp::F64L2(op), Pristine::F64(p)) => level2(op, Some(p)),
            (AnyOp::F32L2(op), _) => level2(op, None),
            (AnyOp::F64L2(op), _) => level2(op, None),
            _ => {}
        }
    }
}

/// One job of the serve traffic: which op, under which tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub op: u32,
    pub tenant: u8,
}

/// A generated workload: the distinct ops and the order jobs draw them in.
#[derive(Debug)]
pub struct Workload {
    pub spec: &'static Spec,
    pub ops: Vec<BenchOp>,
    /// Serve traffic, cycled. Direct workloads visit their ops in order
    /// under one tenant.
    pub traffic: Vec<Arrival>,
    pub tenants: usize,
}

/// `count` values covering `[lo, hi]` evenly: one per stratum, placed
/// inside it by the seed, then shuffled.
fn strata(count: usize, lo: usize, hi: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..count)
        .map(|s| lo + ((s as f64 + rng.unit()) / count as f64 * (hi - lo + 1) as f64) as usize)
        .collect();
    rng.shuffle(&mut v);
    v
}

/// The installation sampler's density: uniform in the square root, so
/// small dims are drawn more often than large ones.
fn sqrt_scale(u: f64, lo: usize, hi: usize) -> usize {
    let (a, b) = ((lo as f64).sqrt(), (hi as f64).sqrt());
    let s = a + u * (b - a);
    ((s * s).round() as usize).clamp(lo, hi)
}

fn dims_of(kind: OpKind, d: [usize; 3]) -> Dims {
    match kind.n_dims() {
        3 => Dims::d3(d[0], d[1], d[2]),
        2 => Dims::d2(d[0], d[1]),
        _ => Dims::d1(d[0]),
    }
}

fn typed_level3(r: Routine, d: Dims, rng: &mut Rng) -> BenchOp {
    match r.prec {
        Precision::Single => BenchOp::level3::<f32>(r.op, d, rng),
        Precision::Double => BenchOp::level3::<f64>(r.op, d, rng),
    }
}

const SMALL_OPS: usize = 512;
const SMALL_DIMS: (usize, usize) = (8, 96);

fn l3_small(seed: u64) -> Vec<BenchOp> {
    let routines = Routine::all();
    let mut shape = Rng::stream(seed, 1);
    let mut fill = Rng::stream(seed, 2);
    let cols: Vec<Vec<usize>> = (0..3)
        .map(|_| strata(SMALL_OPS, SMALL_DIMS.0, SMALL_DIMS.1, &mut shape))
        .collect();
    let mut last: Vec<Option<Dims>> = vec![None; routines.len()];
    (0..SMALL_OPS)
        .map(|i| {
            // Routines cycle, so two calls of one routine are 12 apart;
            // they must also differ in dims or the second would hit the
            // routine's last-call cache.
            let slot = i % routines.len();
            let r = routines[slot];
            let mut d = [cols[0][i], cols[1][i], cols[2][i]];
            if last[slot] == Some(dims_of(r.op, d)) {
                d[0] = if d[0] == SMALL_DIMS.1 {
                    SMALL_DIMS.0
                } else {
                    d[0] + 1
                };
            }
            let dims = dims_of(r.op, d);
            last[slot] = Some(dims);
            typed_level3(r, dims, &mut fill)
        })
        .collect()
}

const LARGE_PER_ROUTINE: usize = 7;
const LARGE_DIMS: (usize, usize) = (128, 512);

fn l3_large(seed: u64) -> Vec<BenchOp> {
    let routines: Vec<Routine> = [
        "dgemm", "dsymm", "dsyrk", "dsyr2k", "dtrmm", "dtrsm", "sgemm",
    ]
    .iter()
    .map(|n| Routine::parse(n).expect("known routine name"))
    .collect();
    let mut shape = Rng::stream(seed, 1);
    let mut fill = Rng::stream(seed, 2);
    let mut ops = Vec::new();
    for (ri, &r) in routines.iter().enumerate() {
        for s in 0..LARGE_PER_ROUTINE {
            // A fixed Latin design: dim j of the op in stratum s comes
            // from stratum s + 2j + routine (mod 7). Every stratum is used
            // once per dim and routine, shapes are not all cubic, and the
            // seed moves a dim only within the middle fifth of its stratum
            // (a few percent), so the work of a round and its median call
            // stay put between seeds.
            let mut d = [1usize; 3];
            for (j, dim) in d.iter_mut().enumerate() {
                let stratum = (s + 2 * j + ri) % LARGE_PER_ROUTINE;
                let u = (stratum as f64 + 0.4 + 0.2 * shape.unit()) / LARGE_PER_ROUTINE as f64;
                *dim = sqrt_scale(u, LARGE_DIMS.0, LARGE_DIMS.1);
            }
            ops.push(typed_level3(r, dims_of(r.op, d), &mut fill));
        }
    }
    shape.shuffle(&mut ops);
    ops
}

pub const STREAM_N: usize = 1024;

fn l2_stream(seed: u64) -> Vec<BenchOp> {
    let mut fill = Rng::stream(seed, 2);
    let n = STREAM_N;
    let (sq, order) = (Dims::d2(n, n), Dims::d1(n));
    let mut ops = vec![
        BenchOp::level2::<f64>(OpKind::Gemv, Transpose::No, sq, &mut fill),
        BenchOp::level2::<f64>(OpKind::Gemv, Transpose::Yes, sq, &mut fill),
        BenchOp::level2::<f64>(OpKind::Ger, Transpose::No, sq, &mut fill),
        BenchOp::level2::<f64>(OpKind::Symv, Transpose::No, order, &mut fill),
        BenchOp::level2::<f64>(OpKind::Trmv, Transpose::No, order, &mut fill),
        BenchOp::level2::<f64>(OpKind::Trsv, Transpose::No, order, &mut fill),
        BenchOp::level2::<f32>(OpKind::Gemv, Transpose::No, sq, &mut fill),
    ];
    Rng::stream(seed, 1).shuffle(&mut ops);
    ops
}

const SERVE_SHAPES: [usize; 3] = [32, 48, 64];
/// 40/40/20, not the 50/30/20 of `serve_load`: with half the jobs in the
/// smallest class the median round trip sits on the boundary between two
/// classes and jumps from run to run.
const SERVE_SHAPE_SHARE: [f64; 3] = [0.40, 0.40, 0.20];
const SERVE_VARIANTS: usize = 4;
const SERVE_TENANTS: usize = 8;
/// One hot tenant, one warm, six even (the `serve_load` population).
const SERVE_TENANT_SHARE: [f64; SERVE_TENANTS] =
    [0.40, 0.15, 0.075, 0.075, 0.075, 0.075, 0.075, 0.075];
/// Mean length of a same-shape run. A fixed-shape stream is what the
/// last-call cache and same-shape batching are built for; runs this long
/// make ~98% of predictions cache hits, against ~0% on `l3_small`.
const SERVE_RUN_MEAN: f64 = 32.0;
const SERVE_TRAFFIC_LEN: usize = 1 << 17;

fn serve_small(seed: u64) -> (Vec<BenchOp>, Vec<Arrival>) {
    let mut fill = Rng::stream(seed, 2);
    let ops: Vec<BenchOp> = SERVE_SHAPES
        .iter()
        .flat_map(|&n| std::iter::repeat_n(n, SERVE_VARIANTS))
        .map(|n| BenchOp::level3::<f64>(OpKind::Gemm, Dims::d3(n, n, n), &mut fill))
        .collect();
    let mut rng = Rng::stream(seed, 3);
    let mut shape = rng.pick(&SERVE_SHAPE_SHARE);
    let traffic = (0..SERVE_TRAFFIC_LEN)
        .map(|_| {
            if rng.unit() < 1.0 / SERVE_RUN_MEAN {
                shape = rng.pick(&SERVE_SHAPE_SHARE);
            }
            Arrival {
                op: (shape * SERVE_VARIANTS + rng.below(SERVE_VARIANTS)) as u32,
                tenant: rng.pick(&SERVE_TENANT_SHARE) as u8,
            }
        })
        .collect();
    (ops, traffic)
}

impl Workload {
    pub fn generate(spec: &'static Spec, seed: u64) -> Workload {
        let (ops, traffic, tenants) = match spec.name {
            "l3_small" => (l3_small(seed), None, 1),
            "l3_large" => (l3_large(seed), None, 1),
            "l2_stream" => (l2_stream(seed), None, 1),
            "serve_small" => {
                let (ops, traffic) = serve_small(seed);
                (ops, Some(traffic), SERVE_TENANTS)
            }
            other => panic!("no generator for workload {other}"),
        };
        let traffic = traffic.unwrap_or_else(|| {
            (0..ops.len() as u32)
                .map(|op| Arrival { op, tenant: 0 })
                .collect()
        });
        Workload {
            spec,
            ops,
            traffic,
            tenants,
        }
    }

    /// The routines the workload calls, each once, in first-use order.
    pub fn routines(&self) -> Vec<Routine> {
        let mut seen = Vec::new();
        for op in &self.ops {
            let r = op.op.routine();
            if !seen.contains(&r) {
                seen.push(r);
            }
        }
        seen
    }

    /// Largest operand footprint of any op, bytes.
    pub fn max_footprint_bytes(&self) -> f64 {
        self.ops
            .iter()
            .map(|o| {
                let r = o.op.routine();
                r.op.footprint_bytes(o.op.dims(), r.prec)
            })
            .fold(0.0, f64::max)
    }

    /// FNV-1a over the op sequence (routine, dims, operand fingerprint)
    /// and the traffic order. Two result sets are only comparable when
    /// seed for seed their hashes agree.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for op in &self.ops {
            eat(op.op.routine().name().as_bytes());
            for d in op.op.dims().0 {
                eat(&(d as u64).to_le_bytes());
            }
            eat(&op.fingerprint.to_le_bytes());
        }
        for a in &self.traffic {
            eat(&a.op.to_le_bytes());
            eat(&[a.tenant]);
        }
        h
    }
}

/// Seeded Poisson arrival offsets (seconds) at `rate` jobs/s over
/// `seconds`.
pub fn poisson_schedule(rate: f64, seconds: f64, rng: &mut Rng) -> Vec<f64> {
    let mut at = 0.0;
    let mut out = Vec::with_capacity((rate * seconds) as usize + 16);
    loop {
        at += rng.exponential(rate);
        if at >= seconds {
            return out;
        }
        out.push(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_hash_other_seed_other_hash() {
        for spec in SPECS.iter().filter(|s| s.name != "l2_stream") {
            let a = Workload::generate(spec, 11).hash();
            let b = Workload::generate(spec, 11).hash();
            let c = Workload::generate(spec, 12).hash();
            assert_eq!(a, b, "{}", spec.name);
            assert_ne!(a, c, "{}", spec.name);
        }
    }

    #[test]
    fn l3_small_never_repeats_dims_within_a_routine() {
        let w = Workload::generate(spec("l3_small").unwrap(), 5);
        assert_eq!(w.ops.len(), SMALL_OPS);
        let n = w.routines().len();
        assert_eq!(n, 12);
        // Cycled: the successor of the last op of a routine is its first.
        for i in 0..w.ops.len() {
            let r = w.ops[i].op.routine();
            let next = (1..=w.ops.len())
                .map(|k| &w.ops[(i + k) % w.ops.len()])
                .find(|o| o.op.routine() == r)
                .unwrap();
            assert_ne!(w.ops[i].op.dims(), next.op.dims(), "op {i} ({r})");
            for d in w.ops[i].op.dims().0.iter().take(r.op.n_dims()) {
                assert!((SMALL_DIMS.0..=SMALL_DIMS.1).contains(d));
            }
        }
    }

    #[test]
    fn l3_large_round_work_is_steady_across_seeds() {
        let flops = |seed| -> f64 {
            Workload::generate(spec("l3_large").unwrap(), seed)
                .ops
                .iter()
                .map(|o| o.op.flops())
                .sum()
        };
        let base = flops(1);
        for seed in 2..8 {
            let rel = (flops(seed) - base).abs() / base;
            assert!(rel < 0.03, "seed {seed}: round flops off by {rel:.3}");
        }
    }

    #[test]
    fn l3_large_work_sits_in_the_calls_with_a_dim_of_384_or_more() {
        for seed in 1..8 {
            let w = Workload::generate(spec("l3_large").unwrap(), seed);
            let (mut large, mut all) = (0.0, 0.0);
            for o in &w.ops {
                let r = o.op.routine();
                let big = o.op.dims().0.iter().take(r.op.n_dims()).any(|&d| d >= 384);
                all += o.op.flops();
                if big {
                    large += o.op.flops();
                }
            }
            assert!(large / all > 0.8, "seed {seed}: {:.3}", large / all);
        }
    }

    #[test]
    fn serve_traffic_runs_make_cache_hits_dominate() {
        let w = Workload::generate(spec("serve_small").unwrap(), 9);
        let same_shape = w
            .traffic
            .windows(2)
            .filter(|p| p[0].op as usize / SERVE_VARIANTS == p[1].op as usize / SERVE_VARIANTS)
            .count() as f64
            / (w.traffic.len() - 1) as f64;
        assert!(same_shape > 0.95, "same-shape successor share {same_shape}");
        let hot =
            w.traffic.iter().filter(|a| a.tenant == 0).count() as f64 / w.traffic.len() as f64;
        assert!((hot - 0.40).abs() < 0.01, "hot tenant share {hot}");
    }

    #[test]
    fn poisson_schedule_keeps_its_mean_rate() {
        let s = poisson_schedule(2000.0, 10.0, &mut Rng::new(4));
        let rate = s.len() as f64 / 10.0;
        assert!((rate - 2000.0).abs() < 40.0, "rate {rate}");
        assert!(s.windows(2).all(|p| p[0] < p[1]));
        assert!(*s.last().unwrap() < 10.0);
    }

    #[test]
    fn refresh_restores_in_place_operands() {
        let mut rng = Rng::new(1);
        let mut op = BenchOp::level3::<f64>(OpKind::Trmm, Dims::d2(8, 8), &mut rng);
        let AnyOp::F64(OwnedOp::Trmm { b, .. }) = &mut op.op else {
            panic!("trmm expected")
        };
        let before = b.as_slice().to_vec();
        b.as_mut_slice().fill(9.0);
        op.refresh();
        let AnyOp::F64(OwnedOp::Trmm { b, .. }) = &op.op else {
            panic!("trmm expected")
        };
        assert_eq!(b.as_slice(), &before[..]);
    }
}

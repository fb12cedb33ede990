//! The predictor performs **zero** heap allocations, on a miss, on a hit
//! and when it observes a served call: raw features, the preprocessing
//! transform, every candidate's row and the gradient-boosted walk all live
//! on the stack, and the table of recent predictions and the price
//! correction are fixed-size.
//!
//! Allocations are counted per thread by a `#[global_allocator]`, which a
//! test binary can only have one of and which would also count what
//! sibling tests do — so this is a binary of its own, like
//! `crates/blas3/tests/arena_steady_state.rs`.

// Outside the Miri subset: replaces the global allocator.
#![cfg(not(miri))]

use adsala::gather::gather_all_candidates;
use adsala::install::predict_best_cost;
use adsala::pipeline::fit_pipeline;
use adsala::timer::SimTimer;
use adsala::{InstalledRoutine, ThreadPredictor};
use adsala_blas3::op::{Dims, OpKind, Precision, Routine};
use adsala_machine::MachineSpec;
use adsala_ml::model::{HyperParams, ModelKind};
use adsala_ml::tree::gbt::GbtParams;
use adsala_sampling::DomainSampler;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting the calling thread's allocations.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System::alloc`, to which the caller's
    // layout is passed on as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A gradient-boosted installation sweeping `max_threads` candidates,
/// from an all-candidates corpus of small shapes.
fn boosted_install(op: OpKind, max_threads: usize) -> InstalledRoutine {
    let routine = Routine::new(op, Precision::Double);
    let timer = SimTimer::new(MachineSpec::gadi());
    let mut sampler = DomainSampler::with_cap(routine, max_threads, 3e5, 0xA110C);
    let mut cands = vec![1, 2, max_threads];
    cands.dedup();
    let corpus = gather_all_candidates(&timer, &mut sampler, 60, &cands);
    let fitted = fit_pipeline(&corpus.dataset);
    let params = HyperParams::Gbt(GbtParams {
        n_rounds: 40,
        ..Default::default()
    });
    InstalledRoutine {
        routine,
        platform: "gadi".into(),
        max_threads,
        nt_stride: 1,
        model: ModelKind::Xgboost.fit(&fitted.train.x, &fitted.train.y, &params),
        pipeline: fitted.config,
        selected: ModelKind::Xgboost,
        reports: Vec::new(),
        version: 1,
        trained_samples: fitted.train.len(),
    }
}

#[test]
fn the_miss_path_allocates_nothing() {
    let before = allocations();
    drop(std::hint::black_box(vec![0u8; 64]));
    assert_eq!(allocations() - before, 1, "the counter sees this thread");
    // The widest rows (17 raw features), swept over 2 and 48 candidates.
    for max_threads in [2, 48] {
        let predictor = ThreadPredictor::new(boosted_install(OpKind::Gemm, max_threads));
        let dims = |i: usize| Dims::d3(8 + 7 * i, 3000 - 2 * i, 64 + i % 300);
        predictor.predict_uncached(dims(0)); // warm-up
        let before = allocations();
        let mut picked = 0;
        for i in 1..=1000 {
            picked += predictor.predict_uncached(dims(i));
        }
        assert_eq!(
            allocations() - before,
            0,
            "1000 misses over {max_threads} candidates allocated"
        );
        assert!((1000..=1000 * max_threads).contains(&picked));
    }
}

#[test]
fn neither_a_miss_nor_a_hit_of_the_table_allocates() {
    let predictor = ThreadPredictor::new(boosted_install(OpKind::Symv, 48));
    let dims = |i: usize| Dims::d1(8 + i);
    // Warm-up.
    predictor.predict_cost(dims(1000));
    predictor.observe(dims(1000), 1, 1e-3);
    // 1000 distinct dims: `predict` misses and `predict_cost` hits the
    // entry it left. Each call is observed twice: at its chosen `nt` (the
    // model's seconds come from the table) and at another (they come from
    // the model's point query). From the 16th dims on the price is
    // corrected. The table fills, then every new key replaces an entry.
    let before = allocations();
    for i in 0..1000 {
        let nt = predictor.predict(dims(i));
        assert_eq!(predictor.predict_cost(dims(i)).0, nt);
        predictor.observe(dims(i), nt, 1e-3);
        predictor.observe(dims(i), nt % 48 + 1, 1e-3);
    }
    assert_eq!(
        allocations() - before,
        0,
        "1000 misses and 1000 hits allocated"
    );
    assert_eq!(predictor.cache_stats(), (1000, 1001));
    // The correction is on.
    let d = dims(999);
    let inst = predictor.installed();
    let model = predict_best_cost(
        &inst.model,
        &inst.pipeline,
        inst.routine,
        d,
        &inst.candidates(),
    );
    let priced = predictor.predict_cost(d);
    assert_eq!(priced.0, model.0);
    assert!(
        (priced.1 / model.1 - 1.0).abs() > 1e-6,
        "{priced:?} vs {model:?}"
    );
    // The last 40 are still in the table: hits of both views.
    let before = allocations();
    for _ in 0..25 {
        for i in 960..1000 {
            let nt = predictor.predict(dims(i));
            assert_eq!(predictor.predict_cost(dims(i)).0, nt);
            predictor.observe(dims(i), nt, 1e-3);
        }
    }
    assert_eq!(allocations() - before, 0, "2000 hits allocated");
    assert_eq!(predictor.cache_stats(), (3001, 1001));
}

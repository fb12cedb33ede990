//! The runtime thread-count predictor: a per-routine table of recent
//! predictions — the paper's last-call cache (§III-B: "our software
//! remembers the input to the last BLAS call and its correlated ML
//! prediction") widened to its last 64 distinct dims (`CAPACITY`) — and a
//! correction of the model's price learned from served calls.
//!
//! The key is the call's exact [`Dims`], so a hit returns exactly what the
//! sweep returned at those dims, and a workload that repeats up to 64
//! shapes per routine sweeps each one once. The table is a fixed array
//! scanned linearly, the most recently used entry first, and a new key
//! replaces entries round-robin: neither a hit nor a miss allocates.
//! [`ThreadPredictor::predict`] — all that
//! [`Adsala::execute`](crate::runtime::Adsala::execute) needs — and
//! [`ThreadPredictor::predict_cost`] — what a scheduler's admission needs —
//! share the table: a miss of either sweeps once and caches the thread
//! count with the model's seconds there.
//!
//! **The price corrects itself.** A model installed once per platform
//! drifts from the wall-clock the host shows later (new firmware, a BLAS
//! upgrade, noisy neighbours). [`ThreadPredictor::observe`] feeds a served
//! call's observed seconds back, and the predictor keeps one running mean
//! of `ln(observed / model seconds)` for its routine, each sample weighted
//! `max(1/count, 1/32)`: the plain mean of the first 32 calls, then an
//! exponential average over about the last 32. From the 32nd sample on,
//! [`ThreadPredictor::predict_cost`] multiplies the model's seconds by
//! `exp(mean)`. The ratio is taken against the model's own, uncorrected
//! seconds, so the correction cannot chase itself, and it scales every
//! candidate's price alike, so the chosen thread count never moves: the
//! model decides `nt`, the correction only its price.
//! [`ThreadPredictor::drift`] reads it back: how wrong the model's price
//! has been lately, the one drift figure the repository reports.

use crate::install::{predict_secs_at, InstalledRoutine};
use adsala_blas3::op::{Dims, Routine};
use adsala_blas3::sync::{Mutex, MutexGuard};

/// Entries in one routine's table: the distinct dims it remembers.
const CAPACITY: usize = 64;

/// Observations the correction needs before it prices.
const WARM_SAMPLES: u64 = 32;

/// Weight floor of one observation: past [`WARM_SAMPLES`] the mean
/// forgets at this rate.
const MIN_WEIGHT: f64 = 1.0 / 32.0;

/// Smallest model prediction, in seconds, an observation's ratio may be
/// formed against.
///
/// Predictions come out of `exp(ln_secs)`, which can round to a subnormal
/// (or, through a degenerate model, to exactly zero), and a single
/// `observed / 1e-300` ratio is `~1e300`. Such samples are skipped, not
/// clamped: a model emitting them is broken in a way a price correction
/// cannot learn from.
pub const MIN_PREDICTED_SECS: f64 = 1e-12;

/// The installed model a predictor serves.
///
/// Frozen: `benchmark/src/probes.rs` reaches the installed artefacts
/// through [`Adsala::model_epoch`](crate::runtime::Adsala::model_epoch)
/// and [`ModelEpoch::installed`], and both stay until the benchmark reads
/// [`ThreadPredictor::installed`] instead. A model is installed once and
/// never replaced, so there is one epoch per routine.
#[derive(Debug)]
pub struct ModelEpoch(InstalledRoutine);

impl ModelEpoch {
    /// The offline installation artefacts: always `Some`.
    pub fn installed(&self) -> Option<&InstalledRoutine> {
        Some(&self.0)
    }
}

/// One cached prediction.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    dims: Dims,
    nt: usize,
    /// The model's seconds at `nt`, uncorrected.
    secs: f64,
}

/// A routine's recent predictions, at most one per dims.
#[derive(Debug)]
struct Table {
    entries: [Option<CacheEntry>; CAPACITY],
    /// The most recently used entry, tried first.
    recent: usize,
    /// The entry a new key replaces.
    next: usize,
}

impl Table {
    const EMPTY: Table = Table {
        entries: [None; CAPACITY],
        recent: 0,
        next: 0,
    };

    /// The entry for `dims`.
    fn get(&mut self, dims: Dims) -> Option<CacheEntry> {
        let fits = |e: &Option<CacheEntry>| e.is_some_and(|e| e.dims == dims);
        if !fits(&self.entries[self.recent]) {
            self.recent = self.entries.iter().position(fits)?;
        }
        self.entries[self.recent]
    }

    /// Store `entry` over the one for its dims, or else over the next in
    /// turn.
    fn put(&mut self, entry: CacheEntry) {
        let same = |e: &Option<CacheEntry>| e.is_some_and(|e| e.dims == entry.dims);
        self.recent = self.entries.iter().position(same).unwrap_or_else(|| {
            let i = self.next;
            self.next = (i + 1) % CAPACITY;
            i
        });
        self.entries[self.recent] = Some(entry);
    }
}

/// The running mean of `ln(observed / model seconds)`.
#[derive(Debug, Clone, Copy)]
struct Correction {
    count: u64,
    mean: f64,
}

impl Correction {
    const NONE: Correction = Correction {
        count: 0,
        mean: 0.0,
    };

    fn add(&mut self, ln_ratio: f64) {
        self.count += 1;
        let weight = (1.0 / self.count as f64).max(MIN_WEIGHT);
        self.mean += weight * (ln_ratio - self.mean);
    }

    /// What the model's seconds are multiplied by.
    fn factor(&self) -> f64 {
        if self.count < WARM_SAMPLES {
            1.0
        } else {
            self.mean.exp()
        }
    }
}

/// A routine's price correction, read: how wrong the installed model's
/// seconds have been over the calls served lately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Drift {
    /// The routine.
    pub routine: Routine,
    /// Observations behind the reading.
    pub samples: u64,
    /// The geometric mean of `observed / model seconds`, over all samples
    /// up to the 32nd and about the last 32 after it; 1 with none. From
    /// sample 32 on, [`ThreadPredictor::predict_cost`] multiplies the
    /// model's seconds by exactly this.
    pub ratio: f64,
}

/// What the predictor's one lock guards.
#[derive(Debug)]
struct Slot {
    table: Table,
    correction: Correction,
    hits: u64,
    misses: u64,
}

impl Slot {
    /// The table's entry for `dims`, counted as a hit when there is one.
    fn hit(&mut self, dims: Dims) -> Option<CacheEntry> {
        let entry = self.table.get(dims);
        self.hits += u64::from(entry.is_some());
        entry
    }
}

/// Runtime predictor for one routine: its installed model, a table of the
/// model's recent `(dims, nt, seconds)` predictions, and the correction of
/// those seconds learned from served calls.
///
/// All methods take `&self`; the slot is internally synchronised, so one
/// predictor shared through an `Arc` (or inside
/// [`Adsala`](crate::runtime::Adsala)) serves concurrent predictions and
/// observations without external locking.
#[derive(Debug)]
pub struct ThreadPredictor {
    model: ModelEpoch,
    slot: Mutex<Slot>,
}

impl ThreadPredictor {
    /// Serve `installed`.
    pub fn new(installed: InstalledRoutine) -> ThreadPredictor {
        ThreadPredictor {
            model: ModelEpoch(installed),
            slot: Mutex::new(Slot {
                table: Table::EMPTY,
                correction: Correction::NONE,
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// The routine this predictor serves.
    pub fn routine(&self) -> Routine {
        self.model.0.routine
    }

    /// The installed artefacts behind the predictions.
    pub fn installed(&self) -> &InstalledRoutine {
        &self.model.0
    }

    pub(crate) fn epoch(&self) -> &ModelEpoch {
        &self.model
    }

    /// Predict the best thread count, consulting the table first.
    pub fn predict(&self, dims: Dims) -> usize {
        let hit = self.lock().hit(dims);
        hit.unwrap_or_else(|| self.sweep(dims)).nt
    }

    /// Predict the best thread count *and* the runtime estimate at that
    /// count (seconds), consulting the table first. The estimate is the
    /// model's, times the correction once it has 32 observations.
    ///
    /// One table serves both views, so a scheduler that estimates a call's
    /// cost at admission time and then dispatches it pays for a single
    /// sweep, not two.
    pub fn predict_cost(&self, dims: Dims) -> (usize, f64) {
        let (hit, factor) = {
            let mut slot = self.lock();
            (slot.hit(dims), slot.correction.factor())
        };
        let entry = hit.unwrap_or_else(|| self.sweep(dims));
        (entry.nt, entry.secs * factor)
    }

    /// Feed back a served call: it ran at `nt` and took `observed_secs`.
    /// The sample is `ln(observed / model seconds at (dims, nt))`; a call
    /// whose observation is not finite and positive, or whose model
    /// seconds are under [`MIN_PREDICTED_SECS`], is ignored.
    pub fn observe(&self, dims: Dims, nt: usize, observed_secs: f64) {
        if !(observed_secs.is_finite() && observed_secs > 0.0) {
            return;
        }
        let mut slot = self.lock();
        let model_secs = match slot.table.get(dims).filter(|e| e.nt == nt) {
            Some(entry) => entry.secs,
            None => {
                drop(slot);
                let i = &self.model.0;
                let secs = predict_secs_at(&i.model, &i.pipeline, i.routine, dims, nt);
                slot = self.lock();
                secs
            }
        };
        let ln_ratio = (observed_secs / model_secs).ln();
        if model_secs >= MIN_PREDICTED_SECS && ln_ratio.is_finite() {
            slot.correction.add(ln_ratio);
        }
    }

    /// The price correction as it stands.
    pub fn drift(&self) -> Drift {
        let correction = self.lock().correction;
        Drift {
            routine: self.routine(),
            samples: correction.count,
            ratio: correction.mean.exp(),
        }
    }

    /// A miss: sweep outside the lock, then cache the result.
    fn sweep(&self, dims: Dims) -> CacheEntry {
        let (nt, secs) = self.model.0.sweep(dims);
        let entry = CacheEntry { dims, nt, secs };
        let mut slot = self.lock();
        slot.misses += 1;
        slot.table.put(entry);
        entry
    }

    /// Bypass the cache (used by benchmarks isolating the sweep cost).
    pub fn predict_uncached(&self, dims: Dims) -> usize {
        self.model.0.sweep(dims).0
    }

    /// `(cache_hits, cache_misses)` counters.
    pub fn cache_stats(&self) -> (u64, u64) {
        let slot = self.lock();
        (slot.hits, slot.misses)
    }

    /// Lock the slot, recovering from poisoning. A thread that panicked
    /// while holding this lock cannot have torn it (the critical sections
    /// only read or assign whole values), but whatever it cached or
    /// observed is suspect — clear the table and the correction (the
    /// counters stand), and serve the lookup as a miss rather than
    /// propagating the panic into every later caller (the serve scheduler
    /// among them).
    fn lock(&self) -> MutexGuard<'_, Slot> {
        match self.slot.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.slot.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.table = Table::EMPTY;
                guard.correction = Correction::NONE;
                guard
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::install::{install_routine, InstallOptions};
    use crate::timer::SimTimer;
    use adsala_blas3::op::{OpKind, Precision};
    use adsala_machine::MachineSpec;
    use adsala_ml::model::ModelKind;
    use std::sync::Arc;

    fn predictor() -> ThreadPredictor {
        let timer = SimTimer::new(MachineSpec::gadi());
        let r = Routine::new(OpKind::Gemm, Precision::Double);
        let inst = install_routine(
            &timer,
            r,
            &InstallOptions {
                n_train: 120,
                n_eval: 10,
                kinds: vec![ModelKind::LinearRegression],
                nt_stride: 8,
                ..Default::default()
            },
        );
        ThreadPredictor::new(inst)
    }

    #[test]
    fn repeated_dims_hit_the_cache() {
        let p = predictor();
        let d = Dims::d3(256, 256, 256);
        let a = p.predict(d);
        let b = p.predict(d);
        assert_eq!(a, b);
        let (hits, misses) = p.cache_stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
    }

    /// `k` distinct dims of one routine.
    fn cycle(k: usize) -> Vec<Dims> {
        (0..k)
            .map(|i| Dims::d3(8 + i, 96 - i % 80, 16 + 3 * i))
            .collect()
    }

    #[test]
    fn a_cycle_that_fits_the_table_sweeps_each_dims_once() {
        let p = predictor();
        let shapes = cycle(CAPACITY);
        for pass in 0..3u64 {
            for &d in &shapes {
                let (nt, secs) = p.predict_cost(d);
                let swept = p.installed().sweep(d);
                assert_eq!((nt, secs.to_bits()), (swept.0, swept.1.to_bits()));
                assert_eq!(p.predict(d), nt);
            }
            let n = CAPACITY as u64;
            assert_eq!(p.cache_stats(), ((2 * pass + 1) * n, n), "pass {pass}");
        }
    }

    #[test]
    fn a_cycle_longer_than_the_table_still_answers_the_sweep() {
        let p = predictor();
        let shapes = cycle(CAPACITY + 5);
        for _ in 0..3 {
            for &d in &shapes {
                assert_eq!(p.predict(d), p.predict_uncached(d));
            }
        }
        // Round-robin replacement under a cycle longer than the table:
        // each dims is replaced before it comes round again.
        assert_eq!(p.cache_stats(), (0, 3 * shapes.len() as u64));
    }

    #[test]
    fn cached_and_uncached_agree() {
        let p = predictor();
        let d = Dims::d3(333, 77, 512);
        assert_eq!(p.predict(d), p.predict_uncached(d));
    }

    #[test]
    fn both_views_share_one_entry_whichever_fills_it() {
        let shapes = [Dims::d3(48, 64, 80), Dims::d3(3000, 2000, 1000)];
        for cost_first in [false, true] {
            let p = predictor();
            for (i, d) in shapes.into_iter().enumerate() {
                let (nt, secs) = if cost_first {
                    let (nt, secs) = p.predict_cost(d);
                    assert_eq!(p.predict(d), nt);
                    (nt, secs)
                } else {
                    let nt = p.predict(d);
                    let (cost_nt, secs) = p.predict_cost(d);
                    assert_eq!(cost_nt, nt);
                    (nt, secs)
                };
                assert!(secs.is_finite() && secs > 0.0);
                // One miss, then hits: the previous shape's last lookup too.
                let seen = i as u64 + 1;
                assert_eq!(
                    p.cache_stats(),
                    (2 * seen - 1, seen),
                    "cost first: {cost_first}"
                );
                assert_eq!(p.predict_cost(d), (nt, secs));
            }
        }
    }

    #[test]
    fn prediction_is_a_valid_candidate() {
        let p = predictor();
        let cands = p.installed().candidates();
        for m in [16usize, 500, 4000] {
            let nt = p.predict(Dims::d3(m, m, m));
            assert!(cands.contains(&nt), "nt {nt} not in candidate set");
        }
    }

    /// Dims spread over the domain, each observed at the thread count the
    /// model chose there.
    fn served(p: &ThreadPredictor, i: usize) -> (Dims, usize, f64) {
        let d = Dims::d3(64 + 37 * i, 48 + 53 * (i % 11), 96 + 29 * (i % 7));
        let nt = p.predict(d);
        let secs = p.installed().sweep(d).1;
        (d, nt, secs)
    }

    #[test]
    fn a_doubled_observation_doubles_the_price_from_the_32nd_sample_on() {
        let p = predictor();
        assert_eq!(p.drift().samples, 0);
        assert_eq!(p.drift().ratio, 1.0);
        let probes: Vec<Dims> = (0..8).map(|i| Dims::d3(16 << i, 700, 90 + i)).collect();
        let before: Vec<(usize, f64)> = probes.iter().map(|&d| p.predict_cost(d)).collect();
        let nts: Vec<usize> = probes.iter().map(|&d| p.predict(d)).collect();
        for i in 0..2 * WARM_SAMPLES as usize {
            let (d, nt, secs) = served(&p, i);
            p.observe(d, nt, 2.0 * secs);
            let drift = p.drift();
            assert_eq!((drift.routine, drift.samples), (p.routine(), i as u64 + 1));
            assert!((drift.ratio - 2.0).abs() < 1e-12, "sample {i}: {drift:?}");
            let warm = i + 1 >= WARM_SAMPLES as usize;
            let factor = if warm { 2.0 } else { 1.0 };
            for ((&d, &(nt, secs)), &picked) in probes.iter().zip(&before).zip(&nts) {
                let (now_nt, now) = p.predict_cost(d);
                assert_eq!(now_nt, nt, "sample {i}: the price moved the choice");
                assert_eq!(p.predict(d), picked, "sample {i}");
                assert_eq!(p.predict_uncached(d), picked, "sample {i}");
                let rel = (now - factor * secs).abs() / (factor * secs);
                assert!(rel < 1e-9, "sample {i}: {now} vs {factor} x {secs}");
                // The reading is the factor the price carries.
                if warm {
                    let rel = (now - secs * drift.ratio).abs() / (secs * drift.ratio);
                    assert!(rel < 1e-12, "sample {i}: {now} vs {secs} x {drift:?}");
                }
            }
        }
    }

    #[test]
    fn an_observation_off_the_table_is_priced_by_the_model_at_its_nt() {
        let p = predictor();
        let d = Dims::d3(900, 300, 700);
        let nt = p.predict(d);
        let other = if nt == 1 { 9 } else { 1 };
        let unseen = Dims::d3(77, 88, 99);
        let i = p.installed();
        let at = |d, nt| predict_secs_at(&i.model, &i.pipeline, i.routine, d, nt);
        // The table holds `d` at the argmin only: another `nt`, and dims
        // never predicted, are priced by the model at that point.
        for _ in 0..WARM_SAMPLES / 2 {
            p.observe(d, other, 4.0 * at(d, other));
            p.observe(unseen, 1, 4.0 * at(unseen, 1));
        }
        let (cost_nt, secs) = p.predict_cost(d);
        assert_eq!(cost_nt, nt);
        assert!((secs / i.sweep(d).1 - 4.0).abs() < 1e-9, "{secs}");
    }

    #[test]
    fn unusable_observations_are_ignored() {
        let p = predictor();
        let d = Dims::d3(512, 512, 512);
        let (nt, secs) = p.predict_cost(d);
        for observed in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0, -0.0] {
            for _ in 0..WARM_SAMPLES {
                p.observe(d, nt, observed);
            }
        }
        assert_eq!(p.drift().samples, 0);
        assert_eq!(p.predict_cost(d), (nt, secs));
        // Model seconds under the floor: the table entry stands in for a
        // degenerate model's prediction.
        let tiny = Dims::d3(8, 8, 8);
        p.predict(tiny);
        for model_secs in [0.0, MIN_PREDICTED_SECS / 2.0, f64::NAN] {
            let mut slot = p.lock();
            let mut entry = slot.table.get(tiny).unwrap();
            entry.secs = model_secs;
            slot.table.put(entry);
            drop(slot);
            for _ in 0..WARM_SAMPLES {
                p.observe(tiny, entry.nt, 1e-3);
            }
        }
        assert_eq!(p.drift().samples, 0);
        // At the floor a sample counts.
        let mut slot = p.lock();
        let mut entry = slot.table.get(tiny).unwrap();
        entry.secs = MIN_PREDICTED_SECS;
        slot.table.put(entry);
        drop(slot);
        p.observe(tiny, entry.nt, 1e-3);
        assert_eq!(p.drift().samples, 1);
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn poisoned_cache_recovers_as_a_miss_without_its_correction() {
        let p = Arc::new(predictor());
        let d = Dims::d3(128, 128, 128);
        let before = p.predict(d);
        let (_, unscaled) = p.predict_cost(d);
        for i in 0..WARM_SAMPLES as usize {
            let (dims, nt, secs) = served(&p, i);
            p.observe(dims, nt, 3.0 * secs);
        }
        let (_, scaled) = p.predict_cost(d);
        assert!((scaled / unscaled - 3.0).abs() < 1e-9);

        // Poison the cache mutex: panic on a thread that holds it.
        let poisoner = Arc::clone(&p);
        let joined = std::thread::spawn(move || {
            let _guard = poisoner.slot.lock().unwrap();
            panic!("poison the predictor cache");
        })
        .join();
        assert!(joined.is_err());
        assert!(p.slot.is_poisoned());

        // Prediction must not propagate the panic; the suspect table and
        // correction are cleared, so this is a miss at the model's price,
        // and caching then works again.
        let (hits, misses) = p.cache_stats();
        assert_eq!(p.predict_cost(d), (before, unscaled));
        assert!(!p.slot.is_poisoned(), "poison must be cleared");
        p.predict(d);
        assert_eq!(p.cache_stats(), (hits + 1, misses + 1));
    }
}

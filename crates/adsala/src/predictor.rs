//! The runtime thread-count predictor with the paper's last-call cache
//! (§III-B: "our software remembers the input to the last BLAS call and its
//! correlated ML prediction") — rebuilt as a hot-swappable slot.
//!
//! A predictor no longer owns its model: it owns an `Arc`-published
//! [`ModelEpoch`] that [`ThreadPredictor::swap`] can replace atomically
//! while calls are in flight. The last-call cache is tagged with the epoch
//! version that filled it, so a swap invalidates it implicitly — a cached
//! entry from epoch N can never be served under epoch N+1.
//!
//! The two views pay for what they ask. [`ThreadPredictor::predict`] — all
//! that [`Adsala::execute`](crate::runtime::Adsala::execute) needs — is
//! [`CostModel::predict_nt`] on a miss and caches the thread count with its
//! seconds unset; [`ThreadPredictor::predict_cost`] — what a scheduler's
//! admission needs — serves only an entry whose seconds are set, and
//! otherwise prices the call as a miss and completes the entry.

use crate::cost::{CostModel, ModelEpoch};
use crate::install::InstalledRoutine;
use adsala_blas3::op::{Dims, Routine};
use adsala_blas3::sync::{AtomicU64, Mutex, MutexGuard, Ordering};
use std::sync::Arc;

/// One cached prediction, tagged with the epoch that produced it.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    version: u64,
    dims: Dims,
    nt: usize,
    /// Unset when [`ThreadPredictor::predict`] filled the entry: it asks
    /// the model for a thread count only.
    secs: Option<f64>,
}

/// What the predictor's one lock guards: the published epoch and the last
/// call's entry. The entry keeps its version tag because a miss predicts
/// outside the lock and may store after a swap.
#[derive(Debug)]
struct Slot {
    epoch: Arc<ModelEpoch>,
    last: Option<CacheEntry>,
}

/// Runtime predictor slot for one routine: an epoch-versioned
/// [`CostModel`] plus the most recent `(dims, nt, seconds)` prediction.
///
/// All methods take `&self`; the slot is internally synchronised, so one
/// predictor shared through an `Arc` (or inside
/// [`Adsala`](crate::runtime::Adsala)) serves concurrent predictions and
/// concurrent swaps without external locking.
#[derive(Debug)]
pub struct ThreadPredictor {
    routine: Routine,
    slot: Mutex<Slot>,
    hits: AtomicU64,
    misses: AtomicU64,
    swaps: AtomicU64,
}

impl ThreadPredictor {
    /// Build from an installed routine (epoch version = the artefact's own).
    pub fn new(installed: InstalledRoutine) -> ThreadPredictor {
        ThreadPredictor::from_model(Arc::new(installed))
    }

    /// Build from any cost model (epoch version = the model's own).
    pub fn from_model(model: Arc<dyn CostModel>) -> ThreadPredictor {
        let routine = model.routine();
        let version = model.version();
        ThreadPredictor {
            routine,
            slot: Mutex::new(Slot {
                epoch: Arc::new(ModelEpoch::new(version, model)),
                last: None,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
        }
    }

    /// The routine this predictor serves.
    pub fn routine(&self) -> Routine {
        self.routine
    }

    /// The currently published epoch. Callers get their own `Arc`, so the
    /// returned epoch stays valid (and readable) across later swaps.
    pub fn epoch(&self) -> Arc<ModelEpoch> {
        Arc::clone(&self.lock().epoch)
    }

    /// Publish a new model, bumping the epoch version by one. Callers that
    /// were mid-prediction keep the epoch they started with; the last-call
    /// cache stops matching on the next lookup (its entries are
    /// version-tagged). Returns the new version.
    ///
    /// # Panics
    /// If `model` prices a different routine than this slot serves —
    /// [`Adsala::swap_model`](crate::runtime::Adsala::swap_model) is the
    /// typed-error front door.
    pub fn swap(&self, model: Arc<dyn CostModel>) -> u64 {
        self.publish(None, model)
            .expect("unconditional swap cannot conflict")
    }

    /// Compare-and-swap publication: publish `model` only if the current
    /// epoch version still equals `expected`, so two concurrent refit
    /// drivers cannot silently replace each other's accepted models.
    /// Returns the new version, or `Err(current_version)` when another
    /// swap won the race (the caller's refit is stale — re-observe and
    /// refit again rather than force-publishing).
    pub fn swap_if(&self, expected: u64, model: Arc<dyn CostModel>) -> Result<u64, u64> {
        self.publish(Some(expected), model)
    }

    fn publish(&self, expected: Option<u64>, model: Arc<dyn CostModel>) -> Result<u64, u64> {
        assert_eq!(
            model.routine(),
            self.routine,
            "swapped model prices a different routine than the slot serves"
        );
        let mut slot = self.lock();
        let current = slot.epoch.version();
        if expected.is_some_and(|expected| expected != current) {
            return Err(current);
        }
        let version = current + 1;
        slot.epoch = Arc::new(ModelEpoch::new(version, model));
        self.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(version)
    }

    /// Predict the best thread count, consulting the last-call cache first.
    ///
    /// A miss asks the model for the thread count alone
    /// ([`CostModel::predict_nt`]) — under an install's serial threshold
    /// that is one comparison — and caches it with its seconds unset.
    pub fn predict(&self, dims: Dims) -> usize {
        let epoch = match self.lookup(dims, |e| Some(e.nt)) {
            Ok(nt) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return nt;
            }
            Err(epoch) => epoch,
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let nt = epoch.model().predict_nt(dims);
        self.lock().last = Some(CacheEntry {
            version: epoch.version(),
            dims,
            nt,
            secs: None,
        });
        nt
    }

    /// Predict the best thread count *and* the model's runtime estimate at
    /// that count (seconds), consulting the last-call cache first.
    ///
    /// One cache serves both views, so a scheduler that estimates a call's
    /// cost at admission time and then dispatches it pays for a single
    /// sweep, not two.
    pub fn predict_cost(&self, dims: Dims) -> (usize, f64) {
        let (nt, secs, _) = self.predict_cost_versioned(dims);
        (nt, secs)
    }

    /// [`ThreadPredictor::predict_cost`] plus the epoch version that made
    /// the prediction — what telemetry records so post-swap drift can be
    /// separated from the history that triggered the swap.
    ///
    /// An entry that [`ThreadPredictor::predict`] cached has no seconds:
    /// it is priced as a miss and completed.
    pub fn predict_cost_versioned(&self, dims: Dims) -> (usize, f64, u64) {
        let epoch = match self.lookup(dims, |e| Some((e.nt, e.secs?, e.version))) {
            Ok(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return hit;
            }
            Err(epoch) => epoch,
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let version = epoch.version();
        let (nt, secs) = epoch.model().predict_cost(dims);
        self.lock().last = Some(CacheEntry {
            version,
            dims,
            nt,
            secs: Some(secs),
        });
        (nt, secs, version)
    }

    /// `hit` of the last call's entry when it is for `dims` under the
    /// current epoch and `hit` accepts it; otherwise the current epoch, to
    /// predict with outside the lock. A hit clones nothing.
    fn lookup<R>(
        &self,
        dims: Dims,
        hit: impl FnOnce(CacheEntry) -> Option<R>,
    ) -> Result<R, Arc<ModelEpoch>> {
        let slot = self.lock();
        slot.last
            .filter(|e| e.version == slot.epoch.version() && e.dims == dims)
            .and_then(hit)
            .ok_or_else(|| Arc::clone(&slot.epoch))
    }

    /// Bypass the cache (used by benchmarks isolating the sweep cost).
    pub fn predict_uncached(&self, dims: Dims) -> usize {
        self.epoch().model().predict_nt(dims)
    }

    /// `(cache_hits, cache_misses)` counters.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of swaps published since construction.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Lock the slot, recovering from poisoning. A thread that panicked
    /// while holding this lock cannot have torn it (the critical sections
    /// only read or assign whole values), but whatever entry it cached is
    /// suspect — drop it, keep the epoch, and serve the lookup as a miss
    /// rather than propagating the panic into every later caller (the
    /// serve scheduler among them).
    fn lock(&self) -> MutexGuard<'_, Slot> {
        match self.slot.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.slot.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.last = None;
                guard
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::install::tests::all_candidates_install;
    use crate::install::{install_routine, InstallOptions};
    use crate::timer::SimTimer;
    use adsala_blas3::op::{OpKind, Precision};
    use adsala_machine::MachineSpec;
    use adsala_ml::model::ModelKind;

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

    #[test]
    fn different_dims_miss_the_cache() {
        let p = predictor();
        p.predict(Dims::d3(100, 100, 100));
        p.predict(Dims::d3(200, 200, 200));
        p.predict(Dims::d3(100, 100, 100)); // evicted by the 200 call
        let (hits, misses) = p.cache_stats();
        assert_eq!(hits, 0);
        assert_eq!(misses, 3);
    }

    #[test]
    fn cached_and_uncached_agree() {
        let p = predictor();
        let d = Dims::d3(333, 77, 512);
        assert_eq!(p.predict(d), p.predict_uncached(d));
    }

    #[test]
    fn predict_cost_shares_the_cache_with_predict() {
        let p = predictor();
        let d = Dims::d3(640, 128, 96);
        let (nt, secs) = p.predict_cost(d);
        assert!(secs.is_finite() && secs > 0.0);
        // The nt-only view must hit the same cache entry.
        assert_eq!(p.predict(d), nt);
        let (hits, misses) = p.cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn predict_leaves_the_seconds_for_predict_cost_to_fill_in() {
        let (inst, corpus) = all_candidates_install(OpKind::Symv, 4);
        let p = ThreadPredictor::new(inst.clone());
        let under = corpus.samples[0].dims;
        let above = Dims::d1(3000);
        assert!(inst.answers_serial(under) && !inst.answers_serial(above));
        let mut misses = 0;
        for d in [under, above] {
            // `predict` first: the entry it caches has no seconds, so the
            // cost view prices the call itself and completes the entry.
            let nt = p.predict(d);
            let (cost_nt, secs) = p.predict_cost(d);
            assert_eq!(cost_nt, nt);
            assert!(secs.is_finite() && secs > 0.0);
            misses += 2;
            assert_eq!(p.cache_stats(), (misses - 2, misses));
            // Completed: both views now hit.
            assert_eq!(p.predict_cost(d), (nt, secs));
            assert_eq!(p.predict(d), nt);
            assert_eq!(p.cache_stats().1, misses);
        }
        // `predict_cost` first is one miss, then one hit.
        let q = ThreadPredictor::new(inst);
        for (i, d) in [under, above].into_iter().enumerate() {
            let (nt, _) = q.predict_cost(d);
            assert_eq!(q.predict(d), nt);
            assert_eq!(q.cache_stats(), (i as u64 + 1, i as u64 + 1));
        }
        // A swap invalidates an entry on either side of the threshold.
        q.predict(under);
        let replacement = q.epoch().installed().unwrap().clone();
        q.swap(Arc::new(replacement));
        let before = q.cache_stats();
        q.predict(under);
        assert_eq!(q.cache_stats(), (before.0, before.1 + 1));
    }

    #[test]
    fn prediction_is_a_valid_candidate() {
        let p = predictor();
        let cands = p.epoch().installed().unwrap().candidates();
        for m in [16usize, 500, 4000] {
            let nt = p.predict(Dims::d3(m, m, m));
            assert!(cands.contains(&nt), "nt {nt} not in candidate set");
        }
    }

    #[test]
    fn swap_bumps_the_version_and_invalidates_the_cache() {
        let p = predictor();
        let d = Dims::d3(256, 256, 256);
        p.predict(d);
        p.predict(d); // 1 miss, 1 hit
        let old = p.epoch();
        assert_eq!(old.version(), 1);

        let replacement = old.installed().unwrap().clone();
        let v = p.swap(Arc::new(replacement));
        assert_eq!(v, 2);
        assert_eq!(p.epoch().version(), 2);
        assert_eq!(p.swap_count(), 1);
        // The old epoch handle is still alive and usable.
        assert_eq!(old.version(), 1);

        // Same dims again: the entry cached under epoch 1 must not be
        // served — this lookup is a miss against epoch 2.
        p.predict(d);
        let (hits, misses) = p.cache_stats();
        assert_eq!((hits, misses), (1, 2), "stale epoch-1 entry was served");
        // And the fresh entry caches normally under the new epoch.
        p.predict(d);
        assert_eq!(p.cache_stats(), (2, 2));
    }

    #[test]
    #[should_panic(expected = "different routine")]
    fn swap_rejects_a_model_for_another_routine() {
        let p = predictor();
        let timer = SimTimer::new(MachineSpec::gadi());
        let other = install_routine(
            &timer,
            Routine::new(OpKind::Symm, Precision::Double),
            &InstallOptions {
                n_train: 100,
                n_eval: 8,
                kinds: vec![ModelKind::LinearRegression],
                nt_stride: 16,
                ..Default::default()
            },
        );
        p.swap(Arc::new(other));
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns OS threads; outside the Miri subset")]
    fn poisoned_cache_recovers_as_a_miss() {
        let p = Arc::new(predictor());
        let d = Dims::d3(128, 128, 128);
        let before = p.predict(d);

        // Poison the cache mutex: panic on a thread that holds it.
        let poisoner = Arc::clone(&p);
        let joined = std::thread::spawn(move || {
            let _guard = poisoner.slot.lock().unwrap();
            panic!("poison the predictor cache");
        })
        .join();
        assert!(joined.is_err());
        assert!(p.slot.is_poisoned());

        // Prediction must not propagate the panic; the suspect entry is
        // dropped, so this is a miss, and caching then works again.
        assert_eq!(p.predict(d), before);
        assert!(!p.slot.is_poisoned(), "poison must be cleared");
        p.predict(d);
        let (hits, misses) = p.cache_stats();
        assert_eq!(misses, 2, "post-poison lookup must be a miss");
        assert_eq!(hits, 1, "cache must resume serving hits after recovery");
    }
}

//! Vector-clock memory model: just enough of the C11 ordering semantics
//! to tell a `Release`/`Acquire` publication edge from a `Relaxed` hole.
//!
//! Every model thread carries a vector clock ([`Hooks::clocks`]). A `Release`
//! store (or RMW) deposits the writer's clock on the atomic; an `Acquire`
//! load joins that deposit into the reader's clock; a `Relaxed` store
//! clears the deposit (it starts a new, unsynchronised value), while a
//! `Relaxed` RMW leaves the existing deposit in place (an RMW continues
//! the release sequence). [`DataCell`] then checks plain-data accesses
//! against those clocks: a read that is not ordered after the last write
//! — or a write concurrent with another write — is a violation.
//!
//! The model checks the *current* schedule only (no exhaustive reorder
//! search); coverage comes from sweeping seeds via [`super::explore`] or
//! from systematic exploration via [`super::dpor::explore_exhaustive`].
//! For the latter, every primitive declares its next operation to the
//! scheduler ([`Hooks::yield_access`]) before executing it, so the DPOR
//! engine can tell dependent transitions apart from independent ones.

use super::sched::{next_id, Access, AccessKind, Gate, Hooks, ThreadBody};
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// A vector clock: component `t` counts thread `t`'s modelled operations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VClock(Vec<u64>);

impl VClock {
    /// The zero clock over `threads` components.
    pub fn new(threads: usize) -> VClock {
        VClock(vec![0; threads])
    }

    /// Advance this thread's own component by one event.
    pub fn tick(&mut self, tid: usize) {
        self.0[tid] += 1;
    }

    /// Component-wise maximum: absorb everything `other` has seen.
    pub fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// Component `t`: how many of thread `t`'s events this clock has
    /// absorbed (zero for components never joined). The DPOR engine uses
    /// this for its "is step *i* already in thread *p*'s causal past"
    /// race check.
    pub fn component(&self, t: usize) -> u64 {
        self.0.get(t).copied().unwrap_or(0)
    }

    /// Whether `self` dominates `other` (every component ≥) — i.e. the
    /// events `other` describes all happened-before `self`.
    pub fn dominates(&self, other: &VClock) -> bool {
        other
            .0
            .iter()
            .enumerate()
            .all(|(t, &c)| self.0.get(t).copied().unwrap_or(0) >= c)
    }
}

/// A modelled atomic `u64` that tracks the release deposit alongside the
/// value. All operations run under the scheduler token (the caller is the
/// only running thread), so a plain mutex — never contended — holds state.
/// ([`crate::sync`]'s atomics carry one beside the `std` atomic they wrap;
/// there only the deposit and the declared access matter.)
pub struct ModelAtomic {
    id: u64,
    state: Mutex<AtomicState>,
}

struct AtomicState {
    value: u64,
    /// Clock deposited by the last `Release`-or-stronger store/RMW chain;
    /// `None` after a `Relaxed` store broke the chain.
    deposit: Option<VClock>,
}

impl AtomicState {
    /// The acquire side of `order`: join the release deposit, if any.
    fn acquire(&self, order: Ordering, clock: &mut VClock) {
        if let (true, Some(deposit)) = (acquires(order), &self.deposit) {
            clock.join(deposit);
        }
    }

    /// The release side of an RMW, which continues the release sequence:
    /// the deposit accumulates, and a `Relaxed` RMW leaves it intact.
    fn release_rmw(&mut self, order: Ordering, clock: &VClock) {
        if releases(order) {
            self.deposit.get_or_insert_with(VClock::default).join(clock);
        }
    }
}

impl ModelAtomic {
    /// A modelled atomic named for diagnostics, starting at `value`.
    pub fn new(_name: &'static str, value: u64) -> ModelAtomic {
        ModelAtomic {
            id: next_id(),
            state: Mutex::new(AtomicState {
                value,
                deposit: None,
            }),
        }
    }

    /// One modelled operation: declare it, yield, tick the caller's
    /// clock, then run `op` on the state and that clock.
    fn step<R>(
        &self,
        hooks: &Hooks,
        tid: usize,
        kind: AccessKind,
        op: impl FnOnce(&mut AtomicState, &mut VClock) -> R,
    ) -> R {
        hooks.yield_access(tid, Access { obj: self.id, kind });
        if kind != AccessKind::Write {
            hooks.note_read(tid, self.id);
        }
        let mut clocks = hooks.clocks();
        clocks[tid].tick(tid);
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        op(&mut st, &mut clocks[tid])
    }

    /// Atomic load; an acquiring `order` joins the release deposit.
    pub fn load(&self, hooks: &Hooks, tid: usize, order: Ordering) -> u64 {
        self.step(hooks, tid, AccessKind::Read, |st, clock| {
            st.acquire(order, clock);
            st.value
        })
    }

    /// Atomic store; a releasing `order` deposits the writer's clock,
    /// while `Relaxed` clears any existing deposit (it starts a new
    /// unsynchronised value: whoever reads it acquires nothing).
    pub fn store(&self, hooks: &Hooks, tid: usize, value: u64, order: Ordering) {
        self.step(hooks, tid, AccessKind::Write, |st, clock| {
            st.value = value;
            st.deposit = releases(order).then(|| clock.clone());
        });
        hooks.open(tid, self.id);
    }

    /// A read-modify-write that always succeeds (`fetch_add`, `fetch_sub`,
    /// `swap`, …) with C11 semantics; returns the previous value.
    pub fn rmw(
        &self,
        hooks: &Hooks,
        tid: usize,
        order: Ordering,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        let prev = self.step(hooks, tid, AccessKind::Rmw, |st, clock| {
            let prev = st.value;
            st.value = f(prev);
            st.acquire(order, clock);
            st.release_rmw(order, clock);
            prev
        });
        hooks.open(tid, self.id);
        prev
    }

    /// `fetch_add` as an [`rmw`](ModelAtomic::rmw).
    pub fn fetch_add(&self, hooks: &Hooks, tid: usize, delta: u64, order: Ordering) -> u64 {
        self.rmw(hooks, tid, order, |v| v.wrapping_add(delta))
    }

    /// Compare-exchange with C11 semantics: on success (an RMW) the
    /// `success` ordering's acquire side joins the deposit and its
    /// release side extends the release chain; on failure (a load) the
    /// `failure` ordering's acquire side joins the deposit. Declared as
    /// an RMW either way — conservative for DPOR dependence, and sound.
    pub fn compare_exchange(
        &self,
        hooks: &Hooks,
        tid: usize,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        let result = self.step(hooks, tid, AccessKind::Rmw, |st, clock| {
            if st.value != current {
                st.acquire(failure, clock);
                return Err(st.value);
            }
            st.value = new;
            st.acquire(success, clock);
            st.release_rmw(success, clock);
            Ok(current)
        });
        if result.is_ok() {
            hooks.open(tid, self.id);
        }
        result
    }
}

/// Plain (non-atomic) data: every access is checked against the clocks.
pub struct DataCell {
    name: &'static str,
    id: u64,
    state: Mutex<CellState>,
}

struct CellState {
    value: u64,
    /// Clock of the last writer at the time of the write.
    write_clock: VClock,
    writer: Option<usize>,
}

impl DataCell {
    /// A plain-data cell named for diagnostics, starting at zero.
    pub fn new(name: &'static str) -> DataCell {
        DataCell {
            name,
            id: next_id(),
            state: Mutex::new(CellState {
                value: 0,
                write_clock: VClock::default(),
                writer: None,
            }),
        }
    }

    /// One checked access (`Some(v)` writes `v`): declare it, yield, tick,
    /// and report a race unless it is ordered after the last write.
    fn access(&self, hooks: &Hooks, tid: usize, write: Option<u64>) -> u64 {
        let (kind, race) = match write {
            Some(_) => (AccessKind::Write, "data race"),
            None => (AccessKind::Read, "unsynchronised read"),
        };
        hooks.yield_access(tid, Access { obj: self.id, kind });
        let mut clocks = hooks.clocks();
        clocks[tid].tick(tid);
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if !clocks[tid].dominates(&st.write_clock) {
            hooks.violation(format!(
                "{race}: thread {tid} accessed `{}` not ordered after thread {:?}'s write \
                 (missing Release/Acquire edge)",
                self.name, st.writer
            ));
        }
        if let Some(value) = write {
            (st.value, st.writer) = (value, Some(tid));
            st.write_clock = clocks[tid].clone();
        }
        st.value
    }

    /// Plain write: a violation unless ordered after every prior write.
    pub fn write(&self, hooks: &Hooks, tid: usize, value: u64) {
        self.access(hooks, tid, Some(value));
    }

    /// Plain read: a violation unless ordered after the last write.
    pub fn read(&self, hooks: &Hooks, tid: usize) -> u64 {
        self.access(hooks, tid, None)
    }
}

/// A modelled mutex: CAS-acquire with gate parking instead of spinning,
/// so exhaustive exploration stays finite and a double-acquire shows up
/// as a detected deadlock rather than a hang. Release/Acquire edges come
/// from the underlying [`ModelAtomic`], so data protected by the lock is
/// genuinely ordered — and a misuse (releasing a free mutex) is a
/// violation.
pub struct ModelMutex {
    state: ModelAtomic,
    gate: Gate,
}

impl ModelMutex {
    /// A free mutex named for diagnostics.
    pub fn new(name: &'static str) -> ModelMutex {
        ModelMutex {
            state: ModelAtomic::new(name, 0),
            gate: Gate::new(),
        }
    }

    /// Block until the mutex is acquired. Parks on the gate while held;
    /// each release opens the gate, so the retry count is bounded by the
    /// number of release events (no spinning under DPOR).
    pub fn acquire(&self, hooks: &Hooks, tid: usize) {
        loop {
            // ORDER: Acquire on success — the modelled lock-acquisition
            // edge; a relaxed failure load learns nothing and retries.
            let won = self
                .state
                .compare_exchange(hooks, tid, 0, 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok();
            if won {
                return;
            }
            hooks.gate_wait(tid, &self.gate);
        }
    }

    /// Release the mutex and wake parked acquirers. Releasing a mutex
    /// that is not held is reported as a violation.
    pub fn release(&self, hooks: &Hooks, tid: usize) {
        // ORDER: Release — publishes the critical section to the next
        // acquirer; a relaxed failure load is only the misuse check.
        let freed = self
            .state
            .compare_exchange(hooks, tid, 1, 0, Ordering::Release, Ordering::Relaxed)
            .is_ok();
        if !freed {
            hooks.violation(format!(
                "thread {tid} released a model mutex that is not held"
            ));
        }
        hooks.gate_open(tid, &self.gate);
    }
}

fn acquires(order: Ordering) -> bool {
    matches!(
        order,
        // ORDER: classification only — the acquiring set of the model.
        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
    )
}

fn releases(order: Ordering) -> bool {
    matches!(
        order,
        // ORDER: classification only — the releasing set of the model.
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

/// A fault the harness injects into code it does not edit: on the threads
/// of a [`weakened`] scenario, every [`crate::sync`] atomic operation of
/// this `kind`, written with this `order`, at a call site in a file whose
/// path ends with `file`, is *recorded* by the model as `Relaxed`. The
/// real operation is untouched — only the happens-before edge the checker
/// credits it with goes away, which is what a weakened ordering means.
#[derive(Clone, Copy, Debug)]
pub struct Weakening {
    /// Path suffix of the call site's file (`"pool.rs"`).
    pub file: &'static str,
    /// Operation class to match.
    pub kind: AccessKind,
    /// Ordering, as written in the source, to match.
    pub order: Ordering,
}

thread_local! {
    /// The weakening in force on this model thread, if any.
    static WEAKEN: Cell<Option<Weakening>> = const { Cell::new(None) };
}

/// `bodies` with `weakening` in force on their threads. It rides with the
/// bodies, so a seeded run, a scripted replay and DPOR all see the fault.
pub fn weakened(weakening: Weakening, bodies: Vec<ThreadBody>) -> Vec<ThreadBody> {
    let arm = |body: ThreadBody| -> ThreadBody {
        Box::new(move |hooks: &Hooks, tid: usize| {
            WEAKEN.set(Some(weakening));
            body(hooks, tid)
        })
    };
    bodies.into_iter().map(arm).collect()
}

/// What the model records for a facade operation written with `order` at
/// `site`: `order`, or `Relaxed` under a matching [`Weakening`].
pub fn recorded(site: &std::panic::Location<'_>, kind: AccessKind, order: Ordering) -> Ordering {
    let hit = |w: Weakening| w.kind == kind && w.order == order && site.file().ends_with(w.file);
    match WEAKEN.get().is_some_and(hit) {
        // ORDER: Relaxed — the injected fault, recorded not executed.
        true => Ordering::Relaxed,
        false => order,
    }
}

#[cfg(test)]
mod tests {
    use super::super::sched::{run_interleaved, ThreadBody};
    use super::*;
    use std::sync::Arc;

    /// One writer publishes data then sets a flag; one reader spins on the
    /// flag then reads the data. With Release/Acquire the model must stay
    /// clean on every seed; with a Relaxed store it must trip on schedules
    /// where the reader actually observes the flag.
    fn message_pass(seed: u64, store_order: Ordering) -> super::super::RunReport {
        let flag = Arc::new(ModelAtomic::new("flag", 0));
        let data = Arc::new(DataCell::new("payload"));
        let mk = |writer: bool| {
            let flag = Arc::clone(&flag);
            let data = Arc::clone(&data);
            Box::new(move |hooks: &Hooks, tid: usize| {
                if writer {
                    data.write(hooks, tid, 41);
                    data.write(hooks, tid, 42);
                    flag.store(hooks, tid, 1, store_order);
                } else {
                    while flag.load(hooks, tid, Ordering::Acquire) == 0 {}
                    assert_eq!(data.read(hooks, tid), 42);
                }
            }) as ThreadBody
        };
        run_interleaved(seed, 100_000, vec![mk(true), mk(false)])
    }

    #[test]
    fn release_acquire_pass_is_clean_across_seeds() {
        for seed in 0..64 {
            let report = message_pass(seed, Ordering::Release);
            assert!(report.is_clean(), "seed {seed}: {report:?}");
            assert_eq!(report.panics, 0, "seed {seed}");
        }
    }

    #[test]
    fn relaxed_publication_is_detected() {
        let hit = (0..64).any(|seed| {
            let report = message_pass(seed, Ordering::Relaxed);
            report
                .violations
                .iter()
                .any(|v| v.contains("unsynchronised read"))
        });
        assert!(hit, "no seed exposed the Relaxed publication");
    }

    #[test]
    fn clock_domination_is_partial_order() {
        let mut a = VClock::new(2);
        let mut b = VClock::new(2);
        a.tick(0);
        b.tick(1);
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
        a.join(&b);
        assert!(a.dominates(&b));
    }
}

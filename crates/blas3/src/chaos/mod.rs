//! Deterministic interleaving checker ("loom-lite") for the pool/serve
//! concurrency cores. Feature-gated behind `chaos`; test-only tooling.
//!
//! What it checks is **the shipped code** and nothing else:
//! `pool::TeamBarrier`, the pool's job hand-off and the serve crate's
//! completion slot are written against [`crate::sync`], whose primitives
//! are this checker's wrappers under `feature = "chaos"`. A scenario is a
//! few thread bodies calling the real type; each `sync` operation they
//! perform declares itself here, yields, and is clocked. Plain state under
//! one lock is driven by seeded whole calls instead (see CONTRIBUTING).
//!
//! The pieces:
//!
//! * [`sched`] — a cooperative scheduler: model threads run one at a time
//!   and hand over control only at explicit [`sched::Hooks::yield_point`]s,
//!   with the next runner picked by a seeded PRNG. One seed → one exact
//!   interleaving, replayable forever. Its thread-local ([`current`]:
//!   "this OS thread is model thread `tid` of that run") is how a `sync`
//!   primitive deep inside `TeamBarrier::wait` finds the scheduler.
//! * [`vclock`] — a vector-clock memory model: [`vclock::ModelAtomic`]
//!   tracks the happens-before edges that `Release`/`Acquire` create (and
//!   that `Relaxed` deliberately does not), and [`vclock::DataCell`]
//!   flags any read of plain data that is not ordered after its write.
//!   Fault injection lives here too: a [`Weakening`] makes the model
//!   *record* an operation of the shipped code as `Relaxed` for one
//!   scenario ([`weakened`]) — "a `Relaxed` flip is caught" is then a
//!   statement about `pool.rs`, not about an editable copy of it.
//! * [`dpor`] — dynamic partial-order reduction: systematic exploration
//!   of *every* inequivalent schedule for small thread counts, with
//!   backtrack points computed from the vector clocks and sleep sets
//!   pruning equivalent interleavings.
//!
//! Coverage comes two ways: a CI run sweeps many seeds ([`explore`],
//! reporting coverage via [`ExploreReport`]) for larger configurations,
//! and [`dpor::explore_exhaustive`] proves exhaustiveness for small ones.
//! Either way a failure is re-run to prove the reproduction is
//! deterministic before it is reported.

pub mod dpor;
pub mod sched;
pub mod vclock;

pub use sched::{
    current, run_interleaved, run_scripted, Access, AccessKind, Gate, Hooks, RunReport,
    ScriptEntry, StepRecord, ThreadBody,
};
pub use vclock::{weakened, DataCell, Weakening};

/// SplitMix64: tiny, seedable, and good enough to scatter schedules.
/// (Not `rand`: the checker must be dependency-free and byte-for-byte
/// reproducible across platforms.)
#[derive(Clone)]
pub struct Prng(u64);

impl Prng {
    /// Seeded generator; equal seeds yield equal sequences everywhere.
    pub fn new(seed: u64) -> Prng {
        // Avoid the all-zero fixed point without losing seed identity.
        Prng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Coverage summary of a clean seed sweep: how many seeds ran, how many
/// *distinct* schedules they actually produced (seeds can collide), and
/// the longest run. CI logs these so "passed" carries evidence instead
/// of a bare `Ok(())`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreReport {
    /// Seeds executed (the whole range on success).
    pub seeds_run: u64,
    /// Distinct schedules observed across those seeds.
    pub schedules_seen: u64,
    /// Longest run in scheduler steps.
    pub max_steps: u64,
}

/// The smallest failing seed in the range, with its report (re-run once
/// to prove the reproduction is deterministic before being returned).
#[derive(Debug)]
pub struct ExploreFailure {
    /// The failing seed.
    pub seed: u64,
    /// The failing run's report.
    pub report: RunReport,
}

/// Sweep `seeds`, running `f` per seed. On the first failing report the
/// seed is re-run to confirm the failure reproduces deterministically
/// and returned as `Err` (seeds are scanned in order, so it is the
/// smallest failing one in range). A clean sweep returns the coverage
/// summary instead of discarding it.
pub fn explore(
    seeds: std::ops::Range<u64>,
    f: impl Fn(u64) -> RunReport,
) -> Result<ExploreReport, ExploreFailure> {
    let mut seen = std::collections::HashSet::new();
    let mut seeds_run = 0u64;
    let mut max_steps = 0u64;
    for seed in seeds {
        let report = f(seed);
        seeds_run += 1;
        max_steps = max_steps.max(report.steps);
        if !report.is_clean() {
            let again = f(seed);
            assert_eq!(
                report.violations, again.violations,
                "seed {seed} did not reproduce deterministically"
            );
            return Err(ExploreFailure { seed, report });
        }
        seen.insert(report.schedule.clone());
    }
    Ok(ExploreReport {
        seeds_run,
        schedules_seen: seen.len() as u64,
        max_steps,
    })
}

/// The gate a scenario over shipped code goes through: the fixed 64-seed
/// block (no violation, abort or panicking body), then DPOR — clean,
/// complete, and more than one schedule explored (one proves nothing).
pub fn prove(name: &str, scenario: impl Fn() -> Vec<ThreadBody>) -> dpor::DporReport {
    let seeded = |seed| {
        let report = run_interleaved(seed, 200_000, scenario());
        assert_eq!(report.panics, 0, "{name}, seed {seed}: {report:?}");
        report
    };
    explore(0..64, seeded).unwrap_or_else(|f| panic!("{name}: seed {}: {:?}", f.seed, f.report));
    let report = dpor::explore_exhaustive(&dpor::DporConfig::default(), &scenario);
    let (runs, pruned) = (report.schedules, report.sleep_blocked);
    println!(
        "{name}: {runs} interleavings, {pruned} pruned, longest {} steps",
        report.max_steps
    );
    assert!(report.failure.is_none(), "{name}: {report:?}");
    assert!(report.complete, "{name}: coverage not proven: {report:?}");
    assert!(runs > 1, "{name}: one schedule: {report:?}");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prng_is_deterministic_and_spreads() {
        let mut a = Prng::new(7);
        let mut b = Prng::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut seen = xs.clone();
        seen.dedup();
        assert_eq!(seen.len(), xs.len(), "degenerate PRNG output");
    }

    #[test]
    fn explore_reports_first_failing_seed() {
        let fail_from = 3u64;
        let run = |seed: u64| RunReport {
            violations: if seed >= fail_from {
                vec![format!("seed {seed} failed")]
            } else {
                Vec::new()
            },
            steps: seed + 1,
            panics: 0,
            aborted: false,
            sleep_blocked: false,
            schedule: vec![seed as usize % 2],
        };
        let failure = explore(0..10, run).expect_err("failure expected");
        assert_eq!(failure.seed, fail_from);
        assert_eq!(failure.report.violations.len(), 1);
        let report = explore(0..fail_from, run).expect("clean prefix");
        assert_eq!(report.seeds_run, fail_from);
        assert_eq!(report.schedules_seen, 2, "two distinct mock schedules");
        assert_eq!(report.max_steps, fail_from);
    }
}

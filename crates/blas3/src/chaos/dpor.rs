//! Dynamic partial-order reduction (DPOR): systematic exploration of
//! every *inequivalent* schedule of a scenario, in the style of
//! Flanagan–Godefroid.
//!
//! The engine drives [`run_scripted`] in a loop.
//! Each run follows a forced prefix (the exploration stack), then a
//! deterministic default rule. Afterwards the recorded trace is swept
//! once with vector clocks ([`VClock`]): for every step `j` the latest
//! earlier step `i` that is *dependent* (same object, at least one
//! write — conflicting `ModelAtomic`/`DataCell` accesses, barrier RMWs,
//! mutex CASes) and **not** already in `j`'s causal past marks a race,
//! and a backtrack point is added at `i`'s node so the reversed order
//! gets explored too. Sleep sets prune runs whose remainder is provably
//! equivalent to one already explored.
//!
//! Because both the scenario and the default rule are deterministic,
//! everything here is seed-free: a bug found by
//! [`explore_exhaustive`] is found on every invocation, and a clean
//! `complete` report is a proof over the model's schedule space (for
//! the configured budgets), not a sample.

use super::sched::{run_scripted, RunReport, ScriptEntry, StepRecord, ThreadBody};
use super::vclock::VClock;
use std::collections::{BTreeSet, HashMap};

/// Budgets for one exploration.
#[derive(Clone, Copy, Debug)]
pub struct DporConfig {
    /// Per-run scheduler step budget (exhaustion counts as
    /// `budget_aborts` and makes the exploration incomplete).
    pub step_budget: u64,
    /// Stop after this many runs; `0` means unbounded. A bounded
    /// exploration that hits the cap reports `complete: false` with the
    /// coverage it reached.
    pub max_schedules: u64,
}

impl Default for DporConfig {
    fn default() -> DporConfig {
        DporConfig {
            step_budget: 200_000,
            max_schedules: 0,
        }
    }
}

/// Outcome of one exploration: coverage counters plus the first failing
/// schedule, if any.
#[derive(Debug)]
pub struct DporReport {
    /// Completed (non-sleep-blocked) schedules explored.
    pub schedules: u64,
    /// Runs cut short by the sleep set — pruned, provably redundant.
    pub sleep_blocked: u64,
    /// Runs that exhausted the per-run step budget.
    pub budget_aborts: u64,
    /// Longest run in scheduler steps.
    pub max_steps: u64,
    /// Whether the schedule space was provably covered: no failure, no
    /// budget abort, and the backtrack sets drained before any cap.
    pub complete: bool,
    /// The first failing run (violations or model panics), re-executed
    /// once to prove the reproduction is deterministic. Exploration
    /// stops at the first failure.
    pub failure: Option<RunReport>,
}

/// One node of the exploration stack: the scheduling state at a step of
/// the current run, plus which branches have been tried from it.
struct Node {
    /// Sorted enabled set at the node.
    enabled: Vec<usize>,
    /// Branch the current run took.
    chosen: usize,
    /// Sleep set at entry (threads whose transition here is covered).
    sleep_at_entry: BTreeSet<usize>,
    /// Sleep to inject when replaying *through* this node with `chosen`
    /// (the siblings fully explored before `chosen` was picked).
    injected: Vec<usize>,
    /// Branches taken from this node so far.
    done: BTreeSet<usize>,
    /// Threads that must still be tried from this node (from races).
    backtrack: BTreeSet<usize>,
}

/// Explore the scenario's schedule space exhaustively with DPOR
/// reduction. `scenario` must build a fresh, deterministic set of
/// thread bodies (and fresh model state) per call; nondeterminism is
/// detected and reported as a failure.
pub fn explore_exhaustive(cfg: &DporConfig, scenario: impl Fn() -> Vec<ThreadBody>) -> DporReport {
    drive(cfg, scenario, true)
}

/// Explore *every* interleaving with no reduction (every enabled thread
/// is a branch at every node). Exponential — test-sized scenarios only;
/// exists so the DPOR schedule count has a hand-checkable baseline.
pub fn explore_all_interleavings(
    cfg: &DporConfig,
    scenario: impl Fn() -> Vec<ThreadBody>,
) -> DporReport {
    drive(cfg, scenario, false)
}

fn drive(cfg: &DporConfig, scenario: impl Fn() -> Vec<ThreadBody>, reduce: bool) -> DporReport {
    let mut stack: Vec<Node> = Vec::new();
    let mut script: Vec<ScriptEntry> = Vec::new();
    let mut report = DporReport {
        schedules: 0,
        sleep_blocked: 0,
        budget_aborts: 0,
        max_steps: 0,
        complete: false,
        failure: None,
    };
    loop {
        let bodies = scenario();
        let threads = bodies.len();
        let (run, trace) = run_scripted(script.clone(), cfg.step_budget, bodies);
        report.max_steps = report.max_steps.max(run.steps);

        let failed = !run.violations.is_empty() || run.panics > 0;
        let budget_abort = run.aborted && run.violations.is_empty();
        if run.sleep_blocked {
            report.sleep_blocked += 1;
        } else if budget_abort {
            report.budget_aborts += 1;
        } else {
            report.schedules += 1;
        }
        if failed {
            // Prove the reproduction is schedule-deterministic before
            // reporting it: same script, fresh scenario, same findings.
            let (again, _) = run_scripted(script.clone(), cfg.step_budget, scenario());
            assert_eq!(
                run.violations, again.violations,
                "schedule {:?} did not reproduce deterministically",
                run.schedule
            );
            report.failure = Some(run);
            return report;
        }
        if trace.len() < script.len() {
            // The forced prefix itself was cut short (per-run budget too
            // small to replay it): coverage cannot be completed.
            return report;
        }

        // Graft the new suffix onto the exploration stack. Prefix nodes
        // (and their done/backtrack bookkeeping) are preserved.
        stack.truncate(script.len());
        for rec in &trace[script.len()..] {
            stack.push(Node {
                enabled: rec.enabled.clone(),
                chosen: rec.chosen,
                sleep_at_entry: rec.sleep.iter().copied().collect(),
                injected: Vec::new(),
                done: BTreeSet::from([rec.chosen]),
                backtrack: if reduce {
                    BTreeSet::new()
                } else {
                    rec.enabled.iter().copied().collect()
                },
            });
        }

        if reduce {
            add_backtracks(&mut stack, &trace, threads);
        }

        if cfg.max_schedules > 0
            && report.schedules + report.sleep_blocked + report.budget_aborts >= cfg.max_schedules
        {
            return report;
        }

        // Deepest node with an untried, non-sleeping, enabled branch.
        let next = stack.iter().enumerate().rev().find_map(|(k, node)| {
            node.backtrack
                .iter()
                .copied()
                .find(|b| {
                    !node.done.contains(b)
                        && !node.sleep_at_entry.contains(b)
                        && node.enabled.contains(b)
                })
                .map(|b| (k, b))
        });
        let Some((k, branch)) = next else {
            report.complete = report.budget_aborts == 0;
            return report;
        };
        let covered: Vec<usize> = stack[k].done.iter().copied().collect();
        let node = &mut stack[k];
        node.chosen = branch;
        node.done.insert(branch);
        // When reducing, the already-explored siblings go to sleep for
        // the new branch: any run that would just reorder independent
        // steps around them is pruned as sleep-blocked.
        node.injected = if reduce { covered } else { Vec::new() };
        stack.truncate(k + 1);
        script = stack
            .iter()
            .map(|n| ScriptEntry {
                choice: n.chosen,
                sleep: n.injected.clone(),
            })
            .collect();
    }
}

/// One in-order sweep of a recorded trace: maintain per-thread and
/// per-object vector clocks, detect races (dependent, different thread,
/// not in the causal past), and add backtrack points at the race's
/// earlier node, per Flanagan–Godefroid: add the racing thread if it was
/// enabled there, otherwise every thread enabled there.
fn add_backtracks(stack: &mut [Node], trace: &[StepRecord], threads: usize) {
    let mut clock: Vec<VClock> = vec![VClock::new(threads); threads];
    let mut write_clock: HashMap<u64, VClock> = HashMap::new();
    let mut read_clock: HashMap<u64, VClock> = HashMap::new();
    // Per-thread step counter; seq[j] is step j's 1-based index within
    // its thread, so "step i is in thread p's past" is exactly
    // `clock[p].component(proc(i)) >= seq[i]`.
    let mut steps_of: Vec<u64> = vec![0; threads];
    let mut seq: Vec<u64> = vec![0; trace.len()];

    for j in 0..trace.len() {
        let p = trace[j].chosen;
        if let Some(a) = trace[j].access {
            // The latest earlier dependent step not ordered before this
            // one. The check uses p's clock *before* this step's joins —
            // joining first would make every last dependent predecessor
            // look ordered and mask the race.
            let racing = (0..j).rev().find(|&i| {
                let ri = &trace[i];
                if ri.chosen == p {
                    return false;
                }
                let Some(ai) = ri.access else {
                    return false;
                };
                ai.dependent(&a) && clock[p].component(ri.chosen) < seq[i]
            });
            if let Some(i) = racing {
                let node = &mut stack[i];
                if node.enabled.contains(&p) {
                    if !node.sleep_at_entry.contains(&p) {
                        node.backtrack.insert(p);
                    }
                } else {
                    for q in node.enabled.clone() {
                        if !node.sleep_at_entry.contains(&q) {
                            node.backtrack.insert(q);
                        }
                    }
                }
            }
            // Now absorb the object's history: reads order after the
            // last write; writes/RMWs order after every prior access.
            match a.kind {
                super::AccessKind::Read => {
                    if let Some(w) = write_clock.get(&a.obj) {
                        clock[p].join(w);
                    }
                }
                super::AccessKind::Write | super::AccessKind::Rmw => {
                    if let Some(w) = write_clock.get(&a.obj) {
                        clock[p].join(w);
                    }
                    if let Some(r) = read_clock.get(&a.obj) {
                        clock[p].join(r);
                    }
                }
            }
        }
        steps_of[p] += 1;
        seq[j] = steps_of[p];
        clock[p].tick(p);
        if let Some(a) = trace[j].access {
            match a.kind {
                super::AccessKind::Read => {
                    read_clock.entry(a.obj).or_default().join(&clock[p]);
                }
                super::AccessKind::Write | super::AccessKind::Rmw => {
                    write_clock.entry(a.obj).or_default().join(&clock[p]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::sched::Hooks;
    use super::super::vclock::{DataCell, ModelAtomic, ModelMutex};
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// Two threads, three modelled operations (atomic stores, so the
    /// accesses conflict without being a plain-data race). Each thread
    /// occupies one schedule slot for its start and one per operation
    /// (exit folds into the last resume): thread 0 takes 2 of the 5
    /// slots, so the naive interleaving count is C(5,2) = 10.
    fn two_thread_scenario(shared: bool) -> impl Fn() -> Vec<ThreadBody> {
        move || {
            let x = Arc::new(ModelAtomic::new("x", 0));
            let y = Arc::new(ModelAtomic::new("y", 0));
            let mk = |first: bool| {
                let x = Arc::clone(&x);
                let y = Arc::clone(&y);
                Box::new(move |hooks: &Hooks, tid: usize| {
                    if first {
                        x.store(hooks, tid, 1, Ordering::Relaxed);
                    } else if shared {
                        // Same object: all three stores conflict.
                        x.store(hooks, tid, 2, Ordering::Relaxed);
                        x.store(hooks, tid, 3, Ordering::Relaxed);
                    } else {
                        // Disjoint object: nothing conflicts.
                        y.store(hooks, tid, 2, Ordering::Relaxed);
                        y.store(hooks, tid, 3, Ordering::Relaxed);
                    }
                }) as ThreadBody
            };
            vec![mk(true), mk(false)]
        }
    }

    #[test]
    fn naive_count_matches_hand_count() {
        for shared in [false, true] {
            let report =
                explore_all_interleavings(&DporConfig::default(), two_thread_scenario(shared));
            assert!(report.failure.is_none(), "{report:?}");
            assert!(report.complete, "{report:?}");
            assert_eq!(report.schedules, 10, "shared={shared}: {report:?}");
        }
    }

    #[test]
    fn dpor_collapses_independent_writes_to_one_class() {
        let report = explore_exhaustive(&DporConfig::default(), two_thread_scenario(false));
        assert!(report.failure.is_none(), "{report:?}");
        assert!(report.complete, "{report:?}");
        assert_eq!(report.schedules, 1, "{report:?}");
    }

    #[test]
    fn dpor_explores_exactly_the_conflicting_orders() {
        let report = explore_exhaustive(&DporConfig::default(), two_thread_scenario(true));
        assert!(report.failure.is_none(), "{report:?}");
        assert!(report.complete, "{report:?}");
        // Three Mazurkiewicz classes: thread 0's write before both of
        // thread 1's, between them, or after both.
        assert_eq!(report.schedules, 3, "{report:?}");
    }

    #[test]
    fn bounded_mode_reports_partial_coverage() {
        let cfg = DporConfig {
            step_budget: 200_000,
            max_schedules: 2,
        };
        let report = explore_all_interleavings(&cfg, two_thread_scenario(true));
        assert!(!report.complete, "{report:?}");
        assert!(report.schedules <= 2, "{report:?}");
        assert!(report.failure.is_none(), "{report:?}");
    }

    #[test]
    fn mutex_handoff_is_explored_without_deadlock_or_spin() {
        let scenario = || {
            let mutex = Arc::new(ModelMutex::new("m"));
            let cell = Arc::new(DataCell::new("guarded"));
            (0..2)
                .map(|_| {
                    let mutex = Arc::clone(&mutex);
                    let cell = Arc::clone(&cell);
                    Box::new(move |hooks: &Hooks, tid: usize| {
                        mutex.acquire(hooks, tid);
                        let v = cell.read(hooks, tid);
                        cell.write(hooks, tid, v + 1);
                        mutex.release(hooks, tid);
                    }) as ThreadBody
                })
                .collect::<Vec<_>>()
        };
        let report = explore_exhaustive(&DporConfig::default(), scenario);
        assert!(report.failure.is_none(), "{report:?}");
        assert!(report.complete, "{report:?}");
        assert!(report.schedules >= 2, "{report:?}");
    }
}

//! Working on sets of result files: `compare` judges one set against
//! another by each metric's direction and bound; `run-all` produces a set.

use crate::metrics::{Better, END_TO_END};
use crate::result::{file_name, DEFAULT_OUT_DIR};
use crate::stats::quartiles;
use crate::workload::SPECS;
use serde::value::{parse, Number, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// One result file, as far as `compare` and `run-all` read it.
struct RunFile {
    workload: String,
    trace: bool,
    seed: u64,
    finished_unix_s: u64,
    hash: String,
    /// What must agree between two sets: CPU, core count, kernels.
    host: String,
    commit: String,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &Path) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |v: &Value, k: &str| -> Result<String, String> {
        v.get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{}: no {k}", path.display()))
    };
    let host = doc
        .get("host")
        .ok_or_else(|| format!("{}: no host", path.display()))?;
    let cores = host.get("cores").and_then(Value::as_u64).unwrap_or(0);
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{}: no metrics", path.display()))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(RunFile {
        workload: field(&doc, "workload")?,
        trace: doc.get("trace") == Some(&Value::Bool(true)),
        seed: doc.get("seed").and_then(Value::as_u64).unwrap_or(0),
        finished_unix_s: doc
            .get("finished_unix_s")
            .and_then(Value::as_u64)
            .unwrap_or(0),
        hash: field(&doc, "workload_hash")?,
        commit: field(host, "git_commit")?,
        host: format!(
            "{} x{cores}, kernels {} / {}",
            field(host, "cpu_model")?,
            field(host, "kernel_f64")?,
            field(host, "kernel_f32")?
        ),
        metrics,
    })
}

/// The result files of a directory: the untraced runs, or the traced ones.
fn load_set(dir: &str, trace: bool) -> Result<Vec<RunFile>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut set = Vec::new();
    for p in paths
        .iter()
        .filter(|p| p.file_name().is_some_and(|n| n != "summary.json"))
    {
        let run = load(p)?;
        if run.trace == trace {
            set.push(run);
        }
    }
    if set.is_empty() {
        return Err(format!("{dir}: no result files with trace = {trace}"));
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound: the sets cannot
    /// resolve a change of the size the bound forbids.
    Unresolved,
}

/// Two runs of equal seed form a pair when they ended within this many
/// seconds of each other: close enough that the machine was in the same
/// mood for both. Two sets of one commit run an hour apart differed by up
/// to 20% on `serve_small`, every run of one set beating its partner.
const PAIR_WINDOW_SECS: u64 = 900;

/// One metric of one run: when the run ended, its seed, the value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub finished_unix_s: u64,
    pub seed: u64,
    pub value: f64,
}

/// Judge set `b` against set `a` (the parent) on one metric. Returns the
/// label and `(pairs b won, pairs)`.
///
/// An improvement is claimed only when the medians differ by more than
/// the parent's own inter-quartile distance and `b` wins at least nine
/// tenths of the pairs: the machine drifts over the half hour a set takes,
/// and a drift moves medians without moving who wins a pair run back to
/// back. Sets run one after the other have no pairs and show no
/// improvement.
pub fn judge(a: &[Reading], b: &[Reading], better: Better, bound: f64) -> (Label, usize, usize) {
    let values = |set: &[Reading]| set.iter().map(|r| r.value).collect::<Vec<f64>>();
    let (va, vb) = (values(a), values(b));
    let (qa, qb) = (quartiles(&va), quartiles(&vb));
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs();
    // Whether `x` reads better than `y`.
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    // Positive = b is worse, as a share of a's median.
    let worse = match better {
        Better::Lower => (qb[1] - qa[1]) / qa[1].abs(),
        Better::Higher => (qa[1] - qb[1]) / qa[1].abs(),
    };
    let pairs: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|x| {
            b.iter()
                .find(|y| {
                    y.seed == x.seed
                        && y.finished_unix_s.abs_diff(x.finished_unix_s) <= PAIR_WINDOW_SECS
                })
                .map(|y| (x.value, y.value))
        })
        .collect();
    let won = pairs.iter().filter(|(x, y)| beats(*y, *x)).count();
    let label = if spread(qa).max(spread(qb)) > bound {
        if vb.iter().all(|y| va.iter().all(|x| beats(*y, *x))) {
            Label::Improved
        } else {
            Label::Unresolved
        }
    } else if worse > bound {
        Label::Regressed
    } else if -worse > spread(qa) && !pairs.is_empty() && won * 10 >= pairs.len() * 9 {
        Label::Improved
    } else {
        Label::Unchanged
    };
    (label, won, pairs.len())
}

/// The readings of one metric over the runs of one workload.
fn metric_of(set: &[RunFile], workload: &str, metric: &str) -> Vec<Reading> {
    set.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| {
            Some(Reading {
                finished_unix_s: r.finished_unix_s,
                seed: r.seed,
                value: *r.metrics.get(metric)?,
            })
        })
        .collect()
}

/// `compare <dir-a> <dir-b>`: one row per (workload, end-to-end metric).
/// `Ok(false)` when any row regressed.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let [dir_a, dir_b] = args else {
        return Err("compare takes two directories of result files".to_string());
    };
    let (a, b) = (load_set(dir_a, false)?, load_set(dir_b, false)?);
    if a[0].host != b[0].host || a.iter().chain(&b).any(|r| r.host != a[0].host) {
        return Err(format!(
            "refusing to compare results of different hosts or kernels: {} vs {}",
            a[0].host, b[0].host
        ));
    }
    for ra in &a {
        if let Some(rb) = b
            .iter()
            .find(|rb| rb.workload == ra.workload && rb.seed == ra.seed && rb.hash != ra.hash)
        {
            return Err(format!(
                "refusing to compare: {} seed {} generated different inputs ({} vs {})",
                ra.workload, ra.seed, ra.hash, rb.hash
            ));
        }
    }
    println!(
        "{:<12} {:<16} {:>38} {:>38} {:>8} {:>7}  label",
        "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "bound", "b wins"
    );
    let (mut regressed, mut any_pairs) = (false, false);
    for spec in &SPECS {
        for m in &END_TO_END {
            let (va, vb) = (
                metric_of(&a, spec.name, m.name),
                metric_of(&b, spec.name, m.name),
            );
            if va.len() < 2 || vb.len() < 2 {
                continue;
            }
            let (label, won, pairs) = judge(&va, &vb, m.better, m.bound);
            regressed |= label == Label::Regressed;
            any_pairs |= pairs > 0;
            let show = |v: &[Reading]| {
                let q = quartiles(&v.iter().map(|r| r.value).collect::<Vec<_>>());
                format!("{:.4} [{:.4}, {:.4}] n={}", q[1], q[0], q[2], v.len())
            };
            println!(
                "{:<12} {:<16} {:>38} {:>38} {:>7.0}% {:>7}  {label:?}",
                spec.name,
                m.name,
                show(&va),
                show(&vb),
                m.bound * 100.0,
                format!("{won}/{pairs}"),
            );
        }
    }
    if !any_pairs {
        println!(
            "no two runs of equal workload and seed ended within {} min of each other: no pairs, so no improvement is judged (alternate the two sides seed by seed)",
            PAIR_WINDOW_SECS / 60
        );
    }
    Ok(!regressed)
}

/// Median and quartiles of every end-to-end metric of every workload in
/// a set, the per-layer metrics of its traced runs, and the host the set
/// was measured on.
fn summary(set: &[RunFile], traced: &[RunFile]) -> Value {
    let object = Value::Object;
    let number = |v: f64| Value::Number(Number::F(v));
    let workloads = SPECS
        .iter()
        .map(|spec| {
            let metrics = END_TO_END
                .iter()
                .filter_map(|m| {
                    let v: Vec<f64> = metric_of(set, spec.name, m.name)
                        .iter()
                        .map(|r| r.value)
                        .collect();
                    (v.len() >= 2).then(|| {
                        let q = quartiles(&v);
                        let entry = object(vec![
                            ("median".to_string(), number(q[1])),
                            ("q1".to_string(), number(q[0])),
                            ("q3".to_string(), number(q[2])),
                            ("spread".to_string(), number((q[2] - q[0]) / q[1].abs())),
                            ("unit".to_string(), Value::String(m.unit.to_string())),
                            ("runs".to_string(), Value::Number(Number::U(v.len() as u64))),
                        ]);
                        (m.name.to_string(), entry)
                    })
                })
                .collect();
            (spec.name.to_string(), object(metrics))
        })
        .collect();
    let per_layer = traced
        .iter()
        .map(|r| {
            let metrics = r.metrics.iter().map(|(k, v)| (k.clone(), number(*v)));
            (
                format!("{} seed {}", r.workload, r.seed),
                object(metrics.collect()),
            )
        })
        .collect();
    object(vec![
        ("host".to_string(), Value::String(set[0].host.clone())),
        (
            "git_commit".to_string(),
            Value::String(set[0].commit.clone()),
        ),
        ("end_to_end".to_string(), object(workloads)),
        ("per_layer".to_string(), object(per_layer)),
    ])
}

/// Write `<dir>/summary.json` from the result files in `dir`.
fn summarize(dir: &str) -> Result<(), String> {
    let text = summary(&load_set(dir, false)?, &load_set(dir, true)?).to_json_pretty() + "\n";
    std::fs::write(Path::new(dir).join("summary.json"), text)
        .map_err(|e| format!("{dir}/summary.json: {e}"))
}

/// `run-all [--seeds N] [--out DIR]`: every workload for seeds `1..=N`
/// untraced and once traced, each as a child process of this same program,
/// leaving one result file per run and a `summary.json` in `DIR`.
pub fn run_all(args: &[String]) -> Result<bool, String> {
    let seeds: u64 = crate::flag(args, "--seeds")
        .map_or(Ok(10), |v| v.parse().map_err(|e| format!("--seeds: {e}")))?;
    let out = crate::flag(args, "--out").unwrap_or(DEFAULT_OUT_DIR);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut all_correct = true;
    for spec in &SPECS {
        for (seed, trace) in (1..=seeds).map(|s| (s, false)).chain([(1, true)]) {
            let status = std::process::Command::new(&exe)
                .args(["--workload", spec.name, "--seed", &seed.to_string()])
                .args(["--out", out, "--trace", if trace { "1" } else { "0" }])
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            println!(
                "{} -> {}",
                file_name(spec.name, seed, trace),
                if status.success() { "ok" } else { "FAILED" }
            );
            all_correct &= status.success();
        }
    }
    summarize(out)?;
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Readings of seeds 0, 1, ... ending `offset_secs` after the hour.
    fn readings(v: &[f64], offset_secs: u64) -> Vec<Reading> {
        v.iter()
            .enumerate()
            .map(|(i, x)| Reading {
                finished_unix_s: 3600 * i as u64 + offset_secs,
                seed: i as u64,
                value: *x,
            })
            .collect()
    }

    fn label(a: &[f64], b: &[f64], better: Better, bound: f64) -> Label {
        judge(&readings(a, 0), &readings(b, 60), better, bound).0
    }

    #[test]
    fn labels_follow_direction_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |d: f64| a.map(|v| v + d);
        // Within the bound and within the parent's spread.
        assert_eq!(
            label(&a, &shift(0.2), Better::Lower, 0.10),
            Label::Unchanged
        );
        // 20% slower on a lower-is-better metric.
        assert_eq!(
            label(&a, &shift(20.0), Better::Lower, 0.10),
            Label::Regressed
        );
        // The same shift is an improvement when higher is better.
        assert_eq!(
            label(&a, &shift(20.0), Better::Higher, 0.10),
            Label::Improved
        );
        assert_eq!(
            label(&a, &shift(-20.0), Better::Higher, 0.10),
            Label::Regressed
        );
        // Spread wider than the bound: not resolvable...
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(
            label(&noisy, &shift(0.0), Better::Lower, 0.10),
            Label::Unresolved
        );
        // ...unless every run of b beats every run of a.
        assert_eq!(
            label(&noisy, &shift(-50.0), Better::Lower, 0.10),
            Label::Improved
        );
    }

    #[test]
    fn an_improvement_needs_nine_tenths_of_pairs_run_close_in_time() {
        // The parent drifts from 100 to 109 over its ten runs.
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        // b reads 6 lower in every pair: more than the parent's
        // inter-quartile distance, and b wins 10 of 10.
        let b: Vec<f64> = a.iter().map(|x| x - 6.0).collect();
        assert_eq!(
            judge(&readings(&a, 0), &readings(&b, 60), Better::Lower, 0.25),
            (Label::Improved, 10, 10)
        );
        // The same values met in another order win 7 pairs of 10: the
        // median moved as much, but that is what drift looks like.
        let mut shuffled = b.clone();
        shuffled.rotate_left(7);
        let (label, won, pairs) = judge(
            &readings(&a, 0),
            &readings(&shuffled, 60),
            Better::Lower,
            0.25,
        );
        assert_eq!((label, pairs), (Label::Unchanged, 10));
        assert!(won < 9, "{won}");
        // A set run half an hour after the other has no pairs at all.
        assert_eq!(
            judge(&readings(&a, 0), &readings(&b, 1800), Better::Lower, 0.25),
            (Label::Unchanged, 0, 0)
        );
    }
}

//! The metric registry: every name the benchmark prints, with its unit and
//! direction, in the order it is printed. `BENCHMARK.json` lists the same
//! names; a unit test keeps the two in step.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change is a regression.
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off; every
/// workload reports every one (the contract: "With `--trace 0` the
/// metrics are every `end_to_end` metric").
///
/// * `ops_per_s`: calls per second of `Adsala::execute` (the model picks
///   `nt`, `t_eval` paid); on `serve_small`, jobs per second through the
///   model-backed service at the workload's window.
/// * `maxnt_ops_per_s`, `nt1_ops_per_s`: the same calls through
///   `execute_with_nt(max)` (the paper's `t_max`, and what a runtime
///   without a model does) and `execute_with_nt(1)` (the plain serial
///   baseline); on `serve_small`, through a service whose runtime has no
///   model and runs every job at `nt = max` / at one thread.
/// * `op_p50_us`: the median `execute` call as its caller sees it
///   (`t_eval + t_call`); on `serve_small`, the median round trip, submit to
///   completion callback, with one job in flight.
///
/// All four are absolute and describe the machine's uncontended state
/// (`run.rs::CALL_QUANTILE`). The bounds are the contract's ceiling
/// ("`bound` ... is at most 0.25"): the ten-run spread of a number with
/// two busy threads reached 0.12 in a noisy spell, two sets of one commit
/// forty minutes apart differed by up to 20%, and the contract wants both
/// inside the bound.
pub const END_TO_END: [Metric; 6] = [
    gated("setup_s", "s", Lower, 0.25),
    gated("ops_per_s", "1/s", Higher, 0.25),
    gated("maxnt_ops_per_s", "1/s", Higher, 0.25),
    gated("nt1_ops_per_s", "1/s", Higher, 0.25),
    gated("op_p50_us", "us", Lower, 0.25),
    gated("peak_rss_mb", "MiB", Lower, 0.2),
];

/// Single layers, from the traced run. Not gated.
pub const PER_LAYER: [Metric; 67] = [
    // The machine, probed in the same run so ratios have a base.
    layer("host.peak_gflops_f64", "GFLOP/s", Higher),
    layer("host.triad_gbps", "GB/s", Higher),
    // Where set-up time went.
    layer("sampling.draw_us", "us", Lower),
    layer("adsala.gather_s", "s", Lower),
    layer("adsala.pipeline_fit_s", "s", Lower),
    layer("ml.fit_s", "s", Lower),
    layer("serve.spawn_ms", "ms", Lower),
    layer("serve.shutdown_ms", "ms", Lower),
    // The prediction and dispatch path, probed.
    layer("ml.predict_row_ns", "ns", Lower),
    layer("adsala.features_ns", "ns", Lower),
    layer("adsala.predict_miss_us", "us", Lower),
    layer("adsala.predict_hit_ns", "ns", Lower),
    layer("adsala.predict_us", "us", Lower),
    layer("adsala.dispatch_ns", "ns", Lower),
    layer("blas3.pool.run_us", "us", Lower),
    layer("blas3.pool.team_us", "us", Lower),
    layer("blas3.pool.spawned_workers", "count", Lower),
    // Kernels, probed serially on fixed shapes.
    layer("blas3.kernel.dgemm_gflops", "GFLOP/s", Higher),
    layer("blas3.kernel.dsymm_gflops", "GFLOP/s", Higher),
    layer("blas3.kernel.dsyrk_gflops", "GFLOP/s", Higher),
    layer("blas3.kernel.dsyr2k_gflops", "GFLOP/s", Higher),
    layer("blas3.kernel.dtrmm_gflops", "GFLOP/s", Higher),
    layer("blas3.kernel.dtrsm_gflops", "GFLOP/s", Higher),
    layer("blas3.kernel.sgemm_gflops", "GFLOP/s", Higher),
    layer("blas3.kernel.roofline_frac", "share", Higher),
    layer("blas3.level2.dgemv_n_gbps", "GB/s", Higher),
    layer("blas3.level2.dgemv_t_gbps", "GB/s", Higher),
    layer("blas3.level2.dger_gbps", "GB/s", Higher),
    layer("blas3.level2.dsymv_gbps", "GB/s", Higher),
    layer("blas3.level2.dtrmv_gbps", "GB/s", Higher),
    layer("blas3.level2.dtrsv_gbps", "GB/s", Higher),
    layer("blas3.level2.sgemv_gbps", "GB/s", Higher),
    layer("blas3.level2.triad_frac", "share", Higher),
    // The workload's ops through the direct entry point, three passes.
    layer("direct.ops_per_s", "1/s", Higher),
    layer("direct.maxnt_ops_per_s", "1/s", Higher),
    layer("blas3.nt1_ops_per_s", "1/s", Higher),
    layer("direct.op_p50_us", "us", Lower),
    layer("direct.op_tail_us", "us", Lower),
    layer("blas3.gflops", "GFLOP/s", Higher),
    layer("blas3.gbps", "GB/s", Higher),
    layer("blas3.parallel_eff", "share", Higher),
    layer("adsala.predict_share", "share", Lower),
    layer("adsala.cache_hit_share", "share", Higher),
    layer("adsala.nt1_share", "share", Higher),
    layer("adsala.speedup_vs_max_nt", "ratio", Higher),
    layer("adsala.nt_regret", "ratio", Lower),
    // The workload's ops through a service: closed window 1, closed at
    // the workload's window, open loop at the workload's fixed rate.
    layer("serve.jobs_per_s", "1/s", Higher),
    layer("serve.maxnt_jobs_per_s", "1/s", Higher),
    layer("serve.nt1_jobs_per_s", "1/s", Higher),
    layer("serve.rtt_p50_us", "us", Lower),
    layer("serve.submit_us", "us", Lower),
    layer("serve.exec_us", "us", Lower),
    layer("serve.exec_inflation", "ratio", Lower),
    layer("serve.overhead_us", "us", Lower),
    layer("serve.busy_share", "share", Higher),
    layer("serve.batch_size_mean", "count", Higher),
    layer("serve.open_p50_ms", "ms", Lower),
    layer("serve.open_slo_share", "share", Higher),
    layer("serve.open_tail_ms", "ms", Lower),
    layer("serve.gen_late_p99_ms", "ms", Lower),
    layer("serve.gen_late_max_ms", "ms", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.retries", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.model_backed_share", "share", Higher),
    // The tracing itself.
    layer("trace.overhead_share", "share", Lower),
    layer("trace.self_time_cover", "share", Higher),
];

pub fn registry(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// A value set earlier in the same run.
    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} read before it was set"))
    }

    /// The values of `metrics`, in order. An absent or non-finite value is
    /// a bug in the harness, reported by name.
    pub fn ordered(&self, metrics: &[Metric]) -> Result<Vec<(Metric, f64)>, String> {
        metrics
            .iter()
            .map(|m| match self.0.get(m.name) {
                Some(v) if v.is_finite() => Ok((*m, *v)),
                Some(v) => Err(format!("metric {} is {v}", m.name)),
                None => Err(format!("metric {} was not measured", m.name)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::{parse, Value};

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        for (key, metrics) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let want: Vec<_> = metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                    )
                })
                .collect();
            assert_eq!(listed(&doc, key), want, "{key}");
        }
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(Value::as_f64).unwrap())
            .collect();
        assert_eq!(bounds, END_TO_END.map(|m| m.bound));
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(names, crate::workload::SPECS.map(|s| s.name));
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::result::RUN_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}

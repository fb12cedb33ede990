//! What a run prints and the result file it writes.
//!
//! Standard output: one `name value unit` line per metric, `#` notes, and
//! as the last line one JSON object with exactly `correct`, `attempted`,
//! `failed` and `metrics`. The result file repeats that with the `host`
//! block, the seed and the `workload_hash`, which `compare` needs to
//! refuse sets that are not comparable.

use crate::metrics::{registry, Metric};
use crate::run::{run, Args, Report};
use serde::value::{Number, Value};
use std::path::{Path, PathBuf};

/// `run_seconds` of `BENCHMARK.json`: how long every run measures.
pub const RUN_SECONDS: f64 = 20.0;
pub const DEFAULT_OUT_DIR: &str = "benchmark/out";

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn metrics_value(values: &[(Metric, f64)]) -> Value {
    Value::Object(
        values
            .iter()
            .map(|(m, v)| {
                let entry = obj(vec![
                    ("value", Value::Number(Number::F(*v))),
                    ("unit", text(m.unit)),
                ]);
                (m.name.to_string(), entry)
            })
            .collect(),
    )
}

pub fn file_name(workload: &str, seed: u64, trace: bool) -> String {
    format!("result-{workload}-s{seed}-t{}.json", u8::from(trace))
}

fn write_file(
    dir: &Path,
    args: &Args,
    report: &Report,
    last_line: &Value,
) -> std::io::Result<PathBuf> {
    let host = &report.info;
    let mut doc = vec![
        ("workload", text(args.workload.name)),
        ("seed", Value::Number(Number::U(args.seed))),
        ("seconds", Value::Number(Number::F(args.seconds))),
        // When the run ended: `compare` pairs runs made close in time.
        (
            "finished_unix_s",
            Value::Number(Number::U(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_secs()),
            )),
        ),
        ("trace", Value::Bool(args.trace)),
        (
            "workload_hash",
            text(&format!("{:016x}", report.workload_hash)),
        ),
        (
            "host",
            obj(vec![
                ("cpu_model", text(&host.cpu_model)),
                ("cores", Value::Number(Number::U(host.cores as u64))),
                ("l2_kib", Value::Number(Number::U(host.l2_kib))),
                ("llc_kib", Value::Number(Number::U(host.llc_kib))),
                ("kernel_f64", text(host.kernel_f64)),
                ("kernel_f32", text(host.kernel_f32)),
                ("git_commit", text(&host.git_commit)),
            ]),
        ),
    ];
    if let Value::Object(fields) = last_line {
        doc.extend(fields.iter().map(|(k, v)| (k.as_str(), v.clone())));
    }
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file_name(args.workload.name, args.seed, args.trace));
    std::fs::write(&path, obj(doc).to_json_pretty() + "\n")?;
    Ok(path)
}

/// Run one workload and print its report; `Ok(false)` when the outputs
/// were wrong or an operation failed.
pub fn run_and_report(args: &Args) -> Result<bool, String> {
    let report = run(args);
    let values = report.values.ordered(registry(args.trace))?;
    let correct = report.mismatched == 0 && report.failed == 0;
    let host = &report.info;
    println!(
        "# {} seed {} hash {:016x} | {} | {} cores | L2 {} KiB, LLC {} KiB | kernels {} / {} | commit {}",
        args.workload.name,
        args.seed,
        report.workload_hash,
        host.cpu_model,
        host.cores,
        host.l2_kib,
        host.llc_kib,
        host.kernel_f64,
        host.kernel_f32,
        host.git_commit,
    );
    println!("# {}", args.workload.why);
    for (m, v) in &values {
        println!("{} {v} {}", m.name, m.unit);
    }
    for note in &report.notes {
        println!("{note}");
    }
    println!(
        "# failed_share {} ({} failed or refused, {} differing from ReferenceBackend, of {} attempted)",
        (report.failed + report.mismatched) as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.mismatched,
        report.attempted,
    );
    let last_line = obj(vec![
        ("correct", Value::Bool(correct)),
        (
            "attempted",
            Value::Number(Number::U(report.attempted.max(1))),
        ),
        (
            "failed",
            Value::Number(Number::U(report.failed + report.mismatched)),
        ),
        ("metrics", metrics_value(&values)),
    ]);
    match write_file(Path::new(&args.out_dir), args, &report, &last_line) {
        Ok(path) => println!("# result written to {}", path.display()),
        Err(e) => println!("# result file not written under {}: {e}", args.out_dir),
    }
    println!("{}", last_line.to_json());
    Ok(correct)
}

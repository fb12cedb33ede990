//! The benchmark of record for the ADSALA reproduction.
//!
//! `adsala-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints one line per metric (`name value unit`),
//! then one JSON object as the last line of its standard output.
//! `adsala-benchmark compare <dir> <dir>` and `run-all` work on sets of the
//! result files each run also writes. See README.md.

mod check;
mod compare;
mod direct;
mod host;
mod install;
mod metrics;
mod probes;
mod result;
mod rng;
mod run;
mod serve;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

const USAGE: &str = "usage:
  adsala-benchmark --workload <l3_small|l3_large|l2_stream|serve_small> --seed <u64>
                   [--seconds 20] [--trace <0|1>] [--out <dir>]
  adsala-benchmark compare <dir-a> <dir-b>
  adsala-benchmark run-all [--seeds <n>] [--out <dir>]";

/// The value following `flag`, if the flag is present.
pub fn flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_run(args: &[String]) -> Result<run::Args, String> {
    let name = flag(args, "--workload").ok_or("--workload is required")?;
    let workload = workload::spec(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = flag(args, "--seed")
        .ok_or("--seed is required")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    // The run length belongs to the benchmark: two sets measured for
    // different lengths are not comparable, and the bounds were set for
    // this one. The driver passes `run_seconds` of BENCHMARK.json.
    if let Some(s) = flag(args, "--seconds") {
        if s.parse::<f64>().ok() != Some(result::RUN_SECONDS) {
            return Err(format!(
                "--seconds {s}: a run measures for {} s",
                result::RUN_SECONDS
            ));
        }
    }
    // A bare `--trace` (the issue's spelling) means 1.
    let trace = match flag(args, "--trace") {
        Some("0") => false,
        Some("1") => true,
        Some(other) if !other.starts_with("--") => {
            return Err(format!("--trace takes 0 or 1, not {other}"))
        }
        _ => args.iter().any(|a| a == "--trace"),
    };
    let out_dir = flag(args, "--out")
        .unwrap_or(result::DEFAULT_OUT_DIR)
        .to_string();
    Ok(run::Args {
        workload,
        seed,
        seconds: result::RUN_SECONDS,
        trace,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match args.first().map(String::as_str) {
        Some("compare") => compare::compare(&args[1..]),
        Some("run-all") => compare::run_all(&args[1..]),
        _ => parse_run(&args).and_then(|args| result::run_and_report(&args)),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("adsala-benchmark: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

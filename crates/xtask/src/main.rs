//! `cargo run -p xtask -- analyze [--root DIR] [--json]`
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error. `--json`
//! prints one finding per line as a JSON object (`file`, `line`,
//! `lint`, `message`) for tooling; the exit-code contract and the
//! stderr summary are unchanged.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("usage: xtask analyze [--root DIR] [--json]");
        return ExitCode::from(2);
    };
    if command != "analyze" {
        eprintln!("unknown command {command:?}; the only command is `analyze`");
        return ExitCode::from(2);
    }
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    // `cargo run -p xtask` executes from the workspace root; an explicit
    // --root serves the fixture tests and out-of-tree runs.
    let root = root.unwrap_or_else(|| PathBuf::from("."));

    match xtask::analyze(&root) {
        Ok(report) => {
            for finding in &report.findings {
                if json {
                    println!(
                        "{{\"file\":\"{}\",\"line\":{},\"lint\":\"{}\",\"message\":\"{}\"}}",
                        escape_json(&finding.file),
                        finding.line,
                        finding.lint.name(),
                        escape_json(&finding.message)
                    );
                } else {
                    println!("{finding}");
                }
            }
            let s = &report.stats;
            eprintln!(
                "xtask analyze: {} files; {} unsafe sites, {} labeled orderings, \
                 {} Relaxed sites, {} allow-listed panic sites; {} finding(s)",
                report.files,
                s.unsafe_sites,
                s.labeled_ordering_sites,
                s.relaxed_sites,
                s.panic_sites_allowed,
                report.findings.len()
            );
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            ExitCode::from(2)
        }
    }
}

/// Minimal JSON string escaping: quotes, backslashes, and control
/// characters (everything a finding message can realistically contain).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

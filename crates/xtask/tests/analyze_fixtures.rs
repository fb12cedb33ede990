//! Fixture suite: one miniature workspace per lint, each engineered to
//! trip exactly that lint once per file — so a regression in any rule
//! shows up as a count or kind mismatch here, not as silence on the real
//! tree. The
//! binary is also driven end to end for its exit-code contract
//! (0 clean / 1 findings / 2 usage or I/O error).

use std::path::{Path, PathBuf};
use std::process::Command;
use xtask::Lint;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// In-process run asserting exactly one finding of the expected kind in
/// each of `in_files`, and none elsewhere.
fn assert_findings(name: &str, lint: Lint, in_files: &[&str]) {
    let report = xtask::analyze(&fixture(name)).expect("fixture must analyze");
    let files: Vec<&str> = report.findings.iter().map(|f| f.file.as_str()).collect();
    assert_eq!(
        files,
        in_files,
        "fixture {name} must trip its lint once per file: {:#?}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    for finding in &report.findings {
        assert_eq!(finding.lint, lint, "fixture {name}: {finding}");
        assert!(finding.line > 0, "fixture {name} must carry a line number");
    }
}

#[test]
fn each_fixture_trips_exactly_its_lint() {
    let demo = &["crates/demo/src/lib.rs"];
    assert_findings("missing-safety", Lint::MissingSafety, demo);
    assert_findings("unlabeled-ordering", Lint::UnlabeledOrdering, demo);
    assert_findings("undeclared-relaxed", Lint::UndeclaredRelaxed, demo);
    assert_findings(
        "banned-panic",
        Lint::BannedPanic,
        &["crates/serve/src/lib.rs"],
    );
    // One file beside the facade (a raw atomic), one that never imports
    // it (a raw lock).
    assert_findings(
        "raw-sync-import",
        Lint::RawSyncImport,
        &["crates/demo/src/lib.rs", "crates/plain/src/lib.rs"],
    );
    assert_findings(
        "stale-entry",
        Lint::StaleEntry,
        &["crates/xtask/orderings.toml"],
    );
}

#[test]
fn clean_fixture_has_no_findings_and_counts_its_sites() {
    let report = xtask::analyze(&fixture("clean")).expect("clean fixture must analyze");
    assert!(
        report.is_clean(),
        "{:#?}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    assert_eq!(report.stats.unsafe_sites, 1);
    assert_eq!(report.stats.labeled_ordering_sites, 2);
    assert_eq!(report.stats.relaxed_sites, 1);
}

fn run_binary(root: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("analyze")
        .arg("--root")
        .arg(root)
        .output()
        .expect("failed to launch the xtask binary")
}

#[test]
fn binary_exits_zero_on_a_clean_tree() {
    let out = run_binary(&fixture("clean"));
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(out.stdout.is_empty(), "clean run must print no findings");
}

#[test]
fn binary_exits_one_and_prints_file_line_diagnostics_on_findings() {
    let out = run_binary(&fixture("missing-safety"));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/demo/src/lib.rs:3"),
        "diagnostic must be file:line, got: {stdout}"
    );
    assert!(stdout.contains("missing-safety"), "got: {stdout}");
}

fn run_binary_json(root: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("analyze")
        .arg("--root")
        .arg(root)
        .arg("--json")
        .output()
        .expect("failed to launch the xtask binary")
}

#[test]
fn json_mode_emits_one_object_per_finding_with_the_same_exit_code() {
    let out = run_binary_json(&fixture("missing-safety"));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "one finding, one line: {stdout}");
    let line = lines[0];
    assert!(line.starts_with('{') && line.ends_with('}'), "got: {line}");
    for key in ["\"file\":", "\"line\":", "\"lint\":", "\"message\":"] {
        assert!(line.contains(key), "missing {key} in: {line}");
    }
    assert!(line.contains("\"lint\":\"missing-safety\""), "got: {line}");
}

#[test]
fn json_mode_escapes_quotes_inside_messages() {
    // The stale-entry message quotes the entry's file and pattern with
    // `{:?}`, so its JSON form must carry escaped quotes.
    let out = run_binary_json(&fixture("stale-entry"));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\\\""),
        "message quotes must be escaped: {stdout}"
    );
    for line in stdout.lines() {
        let unescaped = line.replace("\\\\", "").replace("\\\"", "");
        assert_eq!(
            unescaped.matches('"').count() % 2,
            0,
            "unbalanced raw quotes in: {line}"
        );
    }
}

#[test]
fn json_mode_is_silent_and_zero_on_a_clean_tree() {
    let out = run_binary_json(&fixture("clean"));
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(out.stdout.is_empty(), "clean JSON run must print nothing");
}

#[test]
fn binary_exits_two_on_a_malformed_manifest() {
    let out = run_binary(&fixture("bad-manifest"));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("orderings.toml"), "got: {stderr}");
}

#[test]
fn binary_exits_two_on_usage_errors() {
    let no_command = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .output()
        .expect("failed to launch the xtask binary");
    assert_eq!(no_command.status.code(), Some(2));

    let unknown = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint-the-moon")
        .output()
        .expect("failed to launch the xtask binary");
    assert_eq!(unknown.status.code(), Some(2));
}

/// The real tree must stay clean — the same check CI runs as a hard gate,
/// here so `cargo test` catches a violation before the workflow does.
#[test]
fn the_workspace_itself_is_clean() {
    let workspace_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask has a workspace root two levels up");
    let report = xtask::analyze(workspace_root).expect("workspace must analyze");
    assert!(
        report.is_clean(),
        "workspace lint violations:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

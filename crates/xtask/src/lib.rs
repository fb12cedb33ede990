//! First-party workspace correctness tooling.
//!
//! `cargo run -p xtask -- analyze` scans every first-party source tree
//! (`crates/*/src` plus the workspace-root `src/`) and enforces the
//! repo's `unsafe`/atomics/panic/`sync` discipline — see [`lints`] for the
//! rules and `CONTRIBUTING.md` for the comment grammar. Vendored stand-ins
//! (`vendor/`) are out of scope: they mirror external crates. Lock order
//! is not a static rule: every lock comes from `adsala_blas3::sync`, whose
//! `chaos` build checks the order where each lock is taken.
//!
//! The analyzer is a library plus a thin binary so its own test suite
//! (and the fixture tests under `tests/`) can drive it in-process.

pub mod lex;
pub mod lints;
pub mod manifest;

pub use lints::{Finding, Lint};

use lints::FileStats;
use std::path::{Path, PathBuf};

/// Aggregate result of one analyzer run.
pub struct Report {
    /// All diagnostics, sorted by (file, line).
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files: usize,
    /// Audit coverage counters summed over the scan.
    pub stats: FileStats,
}

impl Report {
    /// Whether the run is clean (the binary's exit-0 condition).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Run the full analysis rooted at `root` (the workspace directory).
///
/// Reads the hand-audited manifests from `crates/xtask/orderings.toml`
/// and `crates/xtask/panic_allow.toml` under the same root; a missing
/// manifest is treated as empty, a malformed one is an `Err`.
pub fn analyze(root: &Path) -> Result<Report, String> {
    let relaxed = load_manifest(root, "crates/xtask/orderings.toml", "relaxed")?;
    let allow = load_manifest(root, "crates/xtask/panic_allow.toml", "allow")?;

    let mut files = collect_sources(root)?;
    files.sort();

    let mut findings = Vec::new();
    let mut stats = FileStats::default();
    let mut relaxed_used = vec![false; relaxed.entries.len()];
    let mut allow_used = vec![false; allow.entries.len()];

    for path in &files {
        let rel = rel_path(root, path);
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("failed to read {}: {e}", path.display()))?;
        let mut file_stats = FileStats::default();
        lints::analyze_source(
            &rel,
            &source,
            &relaxed.entries,
            &mut relaxed_used,
            &allow.entries,
            &mut allow_used,
            &mut findings,
            &mut file_stats,
        );
        stats.unsafe_sites += file_stats.unsafe_sites;
        stats.labeled_ordering_sites += file_stats.labeled_ordering_sites;
        stats.relaxed_sites += file_stats.relaxed_sites;
        stats.panic_sites_allowed += file_stats.panic_sites_allowed;
    }

    for (ledger, used, name) in [
        (&relaxed, &relaxed_used, "orderings.toml"),
        (&allow, &allow_used, "panic_allow.toml"),
    ] {
        for (entry, used) in ledger.entries.iter().zip(used) {
            if !used {
                findings.push(Finding {
                    file: format!("crates/xtask/{name}"),
                    line: entry.defined_at,
                    lint: Lint::StaleEntry,
                    message: format!(
                        "entry for {:?} (pattern {:?}) matches no site; remove or fix it",
                        entry.file, entry.pattern
                    ),
                });
            }
        }
    }

    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Ok(Report {
        findings,
        files: files.len(),
        stats,
    })
}

fn load_manifest(root: &Path, rel: &str, section: &str) -> Result<manifest::Manifest, String> {
    let path = root.join(rel);
    if !path.exists() {
        return Ok(manifest::Manifest::default());
    }
    let source =
        std::fs::read_to_string(&path).map_err(|e| format!("failed to read {rel}: {e}"))?;
    manifest::parse(&source, section).map_err(|e| format!("{rel}: {e}"))
}

/// Every `.rs` file under `crates/*/src` and the root `src/`.
fn collect_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                walk_rs(&src, &mut out)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs(&root_src, &mut out)?;
    }
    if out.is_empty() {
        return Err(format!(
            "no Rust sources found under {} (expected crates/*/src)",
            root.display()
        ));
    }
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `root`-relative path with `/` separators (stable across platforms, and
/// the form the manifests and diagnostics use).
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

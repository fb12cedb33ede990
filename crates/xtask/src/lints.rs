//! The four per-file workspace lints and their shared adjacency machinery.
//!
//! 1. **missing-safety** — every `unsafe` keyword in non-test code must
//!    carry a `SAFETY:` comment on the same line or in the contiguous
//!    comment/attribute block directly above it. Doc conventions count:
//!    a `# Safety` doc section satisfies the rule for `unsafe fn`.
//! 2. **unlabeled-ordering** — every non-`Relaxed` atomic ordering
//!    (`Acquire`/`Release`/`AcqRel`/`SeqCst`) must carry an `ORDER:`
//!    comment the same way; every `Relaxed` must carry one *or* be
//!    declared in the hand-audited `orderings.toml` ledger.
//! 3. **banned-panic** — `unwrap()`, `expect(`, `panic!`,
//!    `unreachable!`, `todo!`, `unimplemented!` are forbidden in the
//!    scheduler/worker thread paths (`crates/serve/src`,
//!    `crates/blas3/src/pool.rs`) outside tests, unless allow-listed in
//!    `panic_allow.toml` with a stated infallibility reason.
//! 4. **raw-sync-import** — every lock comes from the `sync` facade
//!    (`crate::sync` / `adsala_blas3::sync`), whose `chaos` build checks
//!    lock order where each lock is taken: a `std::sync` `Mutex`,
//!    `MutexGuard`, `Condvar` or `RwLock` path outside tests, in any file
//!    but the facade's own implementation ([`SYNC_IMPL_PATHS`]), is a lock
//!    that check cannot see. A file importing the facade has its shared
//!    state under the interleaving checker too, so a `std::sync::atomic`
//!    path beside it is also a finding. No ledger, no allow-list.
//!
//! Manifest hygiene is part of the contract: an entry that no longer
//! matches any site is itself a finding (**stale-entry**), so the ledgers
//! cannot rot into an ambient allowlist.

use crate::lex::{self, Line};
use crate::manifest::Entry;
use std::fmt;

/// Paths (repo-relative prefixes) where panicking calls are banned: code
/// here runs on scheduler/worker threads, where an unwound panic either
/// poisons shared state or takes a whole cell down with it.
pub const BANNED_PANIC_PATHS: &[&str] = &["crates/serve/src", "crates/blas3/src/pool.rs"];

/// Paths (repo-relative prefixes) that implement the `sync` facade on top
/// of `std::sync`: the only first-party code that may name a raw lock.
pub const SYNC_IMPL_PATHS: &[&str] = &["crates/blas3/src/sync.rs", "crates/blas3/src/chaos"];

/// Tokens the banned-panic lint looks for in code (literals blanked).
const PANIC_TOKENS: &[&str] = &[
    "unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Non-`Relaxed` ordering tokens that require an `ORDER:` justification.
const LABELED_ORDERINGS: &[&str] = &[
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// The `std::sync` lock names, a finding wherever they appear; the same
/// plus the `atomic` module, a finding in a file written against the
/// facade; and the paths that mark a file as written against it.
const LOCK_NAMES: &[&str] = &["Mutex", "MutexGuard", "Condvar", "RwLock"];
const FACADE_NAMES: &[&str] = &["atomic", "Mutex", "MutexGuard", "Condvar", "RwLock"];
const FACADE_PATHS: &[&str] = &["crate::sync", "adsala_blas3::sync"];

/// Which lint produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    MissingSafety,
    UnlabeledOrdering,
    UndeclaredRelaxed,
    BannedPanic,
    /// A raw `std::sync` lock anywhere, or a raw atomic in a file
    /// written against the facade.
    RawSyncImport,
    StaleEntry,
}

impl Lint {
    pub fn name(self) -> &'static str {
        match self {
            Lint::MissingSafety => "missing-safety",
            Lint::UnlabeledOrdering => "unlabeled-ordering",
            Lint::UndeclaredRelaxed => "undeclared-relaxed",
            Lint::BannedPanic => "banned-panic",
            Lint::RawSyncImport => "raw-sync-import",
            Lint::StaleEntry => "stale-entry",
        }
    }
}

/// One diagnostic: `file:line: [lint] message`.
#[derive(Debug)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub lint: Lint,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.lint.name(),
            self.message
        )
    }
}

/// Per-file audit counters, summed into the run report.
#[derive(Debug, Default, Clone, Copy)]
pub struct FileStats {
    pub unsafe_sites: usize,
    pub labeled_ordering_sites: usize,
    pub relaxed_sites: usize,
    pub panic_sites_allowed: usize,
}

/// Analyze one file's source. `rel_path` is repo-relative with `/`
/// separators. Matched manifest entries are flagged in `*_used` (indexed
/// like the corresponding slice) for staleness reporting by the caller.
// A scanner pass threads the manifests, their usage bitmaps, and both
// output sinks through one call; bundling them into a context struct
// would only rename the width.
#[allow(clippy::too_many_arguments)]
pub fn analyze_source(
    rel_path: &str,
    source: &str,
    relaxed_ledger: &[Entry],
    relaxed_used: &mut [bool],
    panic_allow: &[Entry],
    panic_used: &mut [bool],
    findings: &mut Vec<Finding>,
    stats: &mut FileStats,
) {
    let lines = lex::split_lines(source);
    let test_mask = test_region_mask(&lines);
    let banned = under(rel_path, BANNED_PANIC_PATHS);
    let on_facade = lines
        .iter()
        .zip(&test_mask)
        .any(|(line, &test)| !test && FACADE_PATHS.iter().any(|p| contains_word(&line.code, p)));
    let raw_names = if under(rel_path, SYNC_IMPL_PATHS) {
        &[][..]
    } else if on_facade {
        FACADE_NAMES
    } else {
        LOCK_NAMES
    };

    for (idx, line) in lines.iter().enumerate() {
        if test_mask[idx] {
            continue;
        }
        let lineno = idx + 1;
        let code = line.code.as_str();

        if let Some(name) = raw_sync_name(&lines, idx, raw_names) {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: lineno,
                lint: Lint::RawSyncImport,
                message: format!(
                    "`std::sync` `{name}` outside the `sync` facade; take it from `sync` \
                     so the lock-order check and the interleaving checker see it"
                ),
            });
        }

        if contains_word(code, "unsafe") {
            stats.unsafe_sites += 1;
            if !has_marker(&lines, idx, &["SAFETY:", "# Safety"]) {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: lineno,
                    lint: Lint::MissingSafety,
                    message: "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
                });
            }
        }

        if LABELED_ORDERINGS.iter().any(|t| code.contains(t)) {
            stats.labeled_ordering_sites += 1;
            if !has_marker(&lines, idx, &["ORDER:"]) {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: lineno,
                    lint: Lint::UnlabeledOrdering,
                    message: "non-Relaxed atomic ordering without an adjacent `// ORDER:` \
                              justification"
                        .to_string(),
                });
            }
        }

        if code.contains("Ordering::Relaxed") {
            stats.relaxed_sites += 1;
            let mut declared = false;
            for (i, e) in relaxed_ledger.iter().enumerate() {
                if e.matches(rel_path, code) {
                    relaxed_used[i] = true;
                    declared = true;
                }
            }
            if !declared && !has_marker(&lines, idx, &["ORDER:"]) {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: lineno,
                    lint: Lint::UndeclaredRelaxed,
                    message: "`Ordering::Relaxed` neither declared in orderings.toml nor \
                              carrying an `// ORDER:` comment"
                        .to_string(),
                });
            }
        }

        if banned {
            for token in PANIC_TOKENS {
                if !code.contains(token) {
                    continue;
                }
                let mut allowed = false;
                for (i, e) in panic_allow.iter().enumerate() {
                    if e.matches(rel_path, code) {
                        panic_used[i] = true;
                        allowed = true;
                    }
                }
                if allowed {
                    stats.panic_sites_allowed += 1;
                } else {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: lineno,
                        lint: Lint::BannedPanic,
                        message: format!(
                            "`{token}` in a scheduler/worker path; handle the error or \
                             allow-list it in panic_allow.toml with an infallibility reason"
                        ),
                    });
                }
            }
        }
    }
}

/// `true` for every line inside a `#[cfg(test)] mod … { … }` region.
///
/// Tracks brace depth on the *code* view (literals already blanked, so
/// braces in strings cannot confuse the count). A `#[cfg(test)]` attribute
/// arms the detector; the next `mod` item opening a brace starts the
/// region, which ends when depth returns to its starting value. An armed
/// detector is disarmed by any other code (the attribute gated something
/// that is not a module — a fn or use — which stays in scope for lints).
pub(crate) fn test_region_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut armed = false;
    let mut region_floor: Option<i64> = None;

    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.trim();
        let in_region_at_start = region_floor.is_some();
        if in_region_at_start {
            mask[idx] = true;
        }
        if region_floor.is_none() {
            if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
                armed = true;
                // The attribute line itself belongs to the test region.
                mask[idx] = true;
            } else if armed && !code.is_empty() {
                if code.starts_with("mod ") || code.starts_with("pub mod ") {
                    if code.contains('{') {
                        mask[idx] = true;
                        region_floor = Some(depth);
                        armed = false;
                    }
                    // `mod tests;` (no brace) gates a file we scan anyway.
                } else if !code.starts_with("#[") && !code.starts_with("#!") {
                    armed = false;
                } else {
                    // Another attribute between cfg(test) and the mod.
                    mask[idx] = true;
                }
            }
        }
        for c in line.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if let Some(floor) = region_floor {
                        if depth <= floor {
                            region_floor = None;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    mask
}

/// Whether any of `markers` appears in the comment on line `idx` or in the
/// contiguous comment/attribute block directly above it. A blank line or a
/// code-bearing line breaks adjacency — a comment must sit *on* its site.
fn has_marker(lines: &[Line], idx: usize, markers: &[&str]) -> bool {
    let hit = |l: &Line| markers.iter().any(|m| l.comment.contains(m));
    if hit(&lines[idx]) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        let below = lines[j].code.trim().starts_with('.');
        j -= 1;
        let line = &lines[j];
        let code = line.code.trim();
        let commented = !line.comment.trim().is_empty();
        if hit(line) {
            return true;
        }
        if code.is_empty() && commented {
            continue; // pure comment line without the marker yet
        }
        if (code.starts_with("#[") || code.starts_with("#!")) && code.ends_with(']') {
            continue; // attribute between the comment and the item
        }
        if code.ends_with('=') || code.ends_with('(') || below {
            // The flagged token sits on a wrapped continuation of this
            // statement — `let x =` / `f(` split by rustfmt, or a method
            // chain whose next line starts with `.` — so the comment for
            // the site may legitimately be above the statement head.
            continue;
        }
        return false; // blank line or real code: adjacency broken
    }
    false
}

/// Whether `rel_path` is one of `paths` or lies under one.
fn under(rel_path: &str, paths: &[&str]) -> bool {
    paths
        .iter()
        .any(|p| rel_path == *p || rel_path.starts_with(&format!("{p}/")))
}

/// The name of `names` a `std::sync::` path starting on line `idx`
/// reaches, if any: the first segment of a plain path, or any name inside
/// a use-group — whose closing brace rustfmt may have put on a later line.
fn raw_sync_name(lines: &[Line], idx: usize, names: &[&'static str]) -> Option<&'static str> {
    lines[idx]
        .code
        .split("std::sync::")
        .skip(1)
        .find_map(|tail| {
            let scope: String = if tail.trim_start().starts_with('{') {
                let rest = lines[idx + 1..].iter().map(|l| l.code.as_str());
                let mut depth = 0usize;
                std::iter::once(tail.trim_start())
                    .chain(rest)
                    .flat_map(|l| l.chars().chain(Some(' ')))
                    .take_while(|&c| {
                        depth += usize::from(c == '{');
                        depth -= usize::from(c == '}');
                        depth > 0
                    })
                    .collect()
            } else {
                tail.chars()
                    .take_while(|&c| is_ident_byte(c as u8))
                    .collect()
            };
            names.iter().copied().find(|n| contains_word(&scope, n))
        })
}

/// Word-boundary containment: `unsafe` matches, `unsafe_op` does not.
fn contains_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let begin = start + pos;
        let end = begin + word.len();
        let left_ok = begin == 0 || !is_ident_byte(bytes[begin - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        start = begin + 1;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut stats = FileStats::default();
        analyze_source(
            rel,
            src,
            &[],
            &mut [],
            &[],
            &mut [],
            &mut findings,
            &mut stats,
        );
        findings
    }

    #[test]
    fn commented_unsafe_passes_and_bare_unsafe_fails() {
        let ok = "// SAFETY: pointer is live\nlet x = unsafe { *p };\n";
        assert!(run("crates/a/src/l.rs", ok).is_empty());
        let bad = "let x = unsafe { *p };\n";
        let f = run("crates/a/src/l.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::MissingSafety);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn attribute_between_comment_and_item_keeps_adjacency() {
        let src = "// SAFETY: target checked at dispatch\n#[target_feature(enable = \"avx2\")]\nunsafe fn kernel() {}\n";
        assert!(run("crates/a/src/k.rs", src).is_empty());
    }

    #[test]
    fn wrapped_statement_keeps_adjacency_through_the_head() {
        let src = "// SAFETY: rows are stable while this block writes\nlet b_src =\n    unsafe { PackSrc::from_raw(p, 1, ldb) };\n";
        assert!(run("crates/a/src/l.rs", src).is_empty());
    }

    #[test]
    fn method_chain_keeps_adjacency_through_the_head() {
        let src = "// ORDER: Release — publishes the gauge\nself.backlog_nanos\n    .store(n, Ordering::Release);\n";
        assert!(run("crates/a/src/l.rs", src).is_empty());
    }

    #[test]
    fn chain_head_below_real_code_is_still_flagged() {
        let src = "let y = f();\nself.backlog_nanos\n    .store(n, Ordering::Release);\n";
        let f = run("crates/a/src/l.rs", src);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn blank_line_breaks_adjacency() {
        let src = "// SAFETY: stale comment\n\nlet x = unsafe { *p };\n";
        let f = run("crates/a/src/l.rs", src);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn safety_doc_section_counts_for_unsafe_fn() {
        let src = "/// Does things.\n///\n/// # Safety\n/// `p` must be valid.\npub unsafe fn f(p: *const u8) {}\n";
        assert!(run("crates/a/src/l.rs", src).is_empty());
    }

    #[test]
    fn orderings_need_order_comments() {
        let bad = "flag.store(true, Ordering::Release);\n";
        let f = run("crates/a/src/l.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::UnlabeledOrdering);
        let ok = "// ORDER: publishes the panel write before the flag flip\nflag.store(true, Ordering::Release);\n";
        assert!(run("crates/a/src/l.rs", ok).is_empty());
    }

    #[test]
    fn relaxed_needs_ledger_or_comment() {
        let bad = "count.fetch_add(1, Ordering::Relaxed);\n";
        let f = run("crates/a/src/l.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::UndeclaredRelaxed);

        let entry = Entry {
            file: "crates/a/src/l.rs".to_string(),
            pattern: "fetch_add(1, Ordering::Relaxed)".to_string(),
            reason: "pure counter".to_string(),
            defined_at: 1,
        };
        let mut findings = Vec::new();
        let mut stats = FileStats::default();
        let mut used = [false];
        analyze_source(
            "crates/a/src/l.rs",
            bad,
            std::slice::from_ref(&entry),
            &mut used,
            &[],
            &mut [],
            &mut findings,
            &mut stats,
        );
        assert!(findings.is_empty());
        assert!(used[0]);
    }

    #[test]
    fn panic_tokens_flagged_only_in_banned_paths() {
        let src = "let v = m.lock().unwrap();\n";
        assert!(run("crates/adsala/src/x.rs", src).is_empty());
        let f = run("crates/serve/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::BannedPanic);
        let f = run("crates/blas3/src/pool.rs", src);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn cfg_test_module_is_exempt_from_all_lints() {
        let src = "fn live() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let x = unsafe { danger() };\n        x.unwrap();\n        flag.store(true, Ordering::SeqCst);\n    }\n}\n";
        assert!(run("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn code_after_the_test_module_is_linted_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n\nlet x = unsafe { f() };\n";
        let f = run("crates/a/src/l.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn cfg_test_on_a_non_module_item_does_not_open_a_region() {
        let src = "#[cfg(test)]\nfn helper() {}\n\nlet x = unsafe { f() };\n";
        let f = run("crates/a/src/l.rs", src);
        assert_eq!(f.len(), 1, "the unsafe after the gated fn is still live");
    }

    #[test]
    fn raw_std_sync_locks_are_flagged_in_every_file_but_the_facade_itself() {
        let facade = "use crate::sync::{AtomicUsize, Mutex};\n";
        for raw in [
            "use std::sync::{Arc, Condvar};\n",
            "use std::sync::{\n    mpsc::Sender,\n    MutexGuard,\n};\n",
            "static N: std::sync::Mutex<u32> = std::sync::Mutex::new(0);\n",
            "use std::sync::RwLock;\n",
        ] {
            for (src, line) in [(format!("{facade}{raw}"), 2), (raw.to_string(), 1)] {
                let f = run("crates/a/src/l.rs", &src);
                assert_eq!(f.len(), 1, "{src}");
                assert_eq!((f[0].lint, f[0].line), (Lint::RawSyncImport, line));
            }
            for exempt in [
                "crates/blas3/src/sync.rs",
                "crates/blas3/src/chaos/sched.rs",
            ] {
                assert!(run(exempt, raw).is_empty(), "{exempt}: {raw}");
            }
        }
        // A raw atomic is a finding only beside the facade.
        let atomic = "use std::sync::atomic::AtomicBool;\n";
        let f = run("crates/a/src/l.rs", &format!("{facade}{atomic}"));
        assert_eq!((f.len(), f[0].lint, f[0].line), (1, Lint::RawSyncImport, 2));
        assert!(run("crates/a/src/l.rs", atomic).is_empty());
        let fine = "use adsala_blas3::sync::Mutex;\nuse std::sync::mpsc::Sender;\n\
                    use std::sync::{Arc, OnceLock};\n#[cfg(test)]\nmod tests {\n    \
                    use std::sync::atomic::AtomicU64;\n}\n";
        assert!(run("crates/a/src/l.rs", fine).is_empty());
    }

    #[test]
    fn strings_and_comments_never_trip_lints() {
        let src = "let s = \"unsafe panic! Ordering::SeqCst unwrap()\"; // unsafe in prose\n";
        assert!(run("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "let g = m.lock().unwrap_or_else(|p| p.into_inner());\n";
        assert!(run("crates/serve/src/x.rs", src).is_empty());
    }
}

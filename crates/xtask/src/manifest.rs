//! Hand-audited annotation manifests, in a tiny TOML subset.
//!
//! Two files sit next to the analyzer and are read at analysis time:
//!
//! * `crates/xtask/orderings.toml` — the `Relaxed` ledger: every
//!   `Ordering::Relaxed` site outside tests must either carry an inline
//!   `// ORDER:` comment or appear here with a reviewed reason.
//! * `crates/xtask/panic_allow.toml` — the panic allowlist: every
//!   `unwrap()`/`expect(`/`panic!`-family call left in a banned scheduler
//!   path must appear here with a stated infallibility reason.
//!
//! The grammar is deliberately small (std-only, no TOML dependency):
//! `[[relaxed]]` / `[[allow]]` array-of-table headers followed by
//! `key = "value"` string pairs, plus `#` comments. Unknown keys are
//! errors — a typo in a manifest must not silently disable an entry.

use std::fmt;

/// One manifest entry: match a file (by repo-relative suffix) and a code
/// substring on the flagged line, with a mandatory human reason.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Repo-relative path (or unambiguous suffix) of the file.
    pub file: String,
    /// Substring of the *code* (literals blanked) on the matched line.
    pub pattern: String,
    /// Reviewed justification; required non-empty.
    pub reason: String,
    /// Line in the manifest, for diagnostics.
    pub defined_at: usize,
}

impl Entry {
    /// Whether this entry covers `line_code` of `rel_path`.
    pub fn matches(&self, rel_path: &str, line_code: &str) -> bool {
        (rel_path == self.file || rel_path.ends_with(&self.file))
            && line_code.contains(&self.pattern)
    }
}

/// A parsed manifest: a named list of entries.
#[derive(Debug, Default)]
pub struct Manifest {
    pub entries: Vec<Entry>,
}

/// Manifest syntax/validation error.
#[derive(Debug)]
pub struct ManifestError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "manifest line {}: {}", self.line, self.message)
    }
}

/// One generic `[[section]]` table: the declared key/value pairs plus
/// the header's line number. Every key in the schema is guaranteed
/// present and non-empty after parsing.
#[derive(Debug)]
struct Table {
    defined_at: usize,
    values: Vec<(String, String)>,
}

impl Table {
    /// The value for `key` (validated present for schema keys).
    fn get(&self, key: &str) -> &str {
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .unwrap_or("")
    }
}

/// Parse an array-of-tables manifest against a fixed key schema.
/// Unknown keys are errors (a typo must not silently disable an entry);
/// so is a table missing any schema key.
fn parse_tables(source: &str, section: &str, keys: &[&str]) -> Result<Vec<Table>, ManifestError> {
    let header = format!("[[{section}]]");
    let mut tables: Vec<Table> = Vec::new();
    let mut open = false;
    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_toml_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line == header {
            if let Some(prev) = tables.last() {
                validate(prev, keys)?;
            }
            tables.push(Table {
                defined_at: lineno,
                values: Vec::new(),
            });
            open = true;
            continue;
        }
        if line.starts_with("[[") || line.starts_with('[') {
            return Err(ManifestError {
                line: lineno,
                message: format!("unexpected table {line:?}; only {header} is allowed"),
            });
        }
        let Some((key, value)) = parse_kv(&line) else {
            return Err(ManifestError {
                line: lineno,
                message: format!("expected `key = \"value\"`, got {line:?}"),
            });
        };
        if !open {
            return Err(ManifestError {
                line: lineno,
                message: format!("key {key:?} before the first {header} header"),
            });
        }
        if !keys.contains(&key) {
            return Err(ManifestError {
                line: lineno,
                message: format!("unknown key {key:?} (expected {})", keys.join("/")),
            });
        }
        let table = tables.last_mut().unwrap_or_else(|| unreachable!());
        table.values.push((key.to_string(), value));
    }
    if let Some(last) = tables.last() {
        validate(last, keys)?;
    }
    Ok(tables)
}

/// Parse a manifest whose array-of-table header is `[[section]]` into
/// the classic file/pattern/reason [`Entry`] shape.
pub fn parse(source: &str, section: &str) -> Result<Manifest, ManifestError> {
    let tables = parse_tables(source, section, &["file", "pattern", "reason"])?;
    let entries = tables
        .into_iter()
        .map(|t| Entry {
            file: t.get("file").to_string(),
            pattern: t.get("pattern").to_string(),
            reason: t.get("reason").to_string(),
            defined_at: t.defined_at,
        })
        .collect();
    Ok(Manifest { entries })
}

fn validate(t: &Table, keys: &[&str]) -> Result<(), ManifestError> {
    for key in keys {
        if t.get(key).trim().is_empty() {
            return Err(ManifestError {
                line: t.defined_at,
                message: format!("entry is missing a non-empty `{key}`"),
            });
        }
    }
    Ok(())
}

/// `key = "value"`, honouring escaped quotes in the value.
fn parse_kv(line: &str) -> Option<(&str, String)> {
    let (key, rest) = line.split_once('=')?;
    let rest = rest.trim();
    if !rest.starts_with('"') || rest.len() < 2 {
        return None;
    }
    let mut value = String::new();
    let mut chars = rest[1..].chars();
    loop {
        match chars.next()? {
            '\\' => value.push(chars.next()?),
            '"' => break,
            c => value.push(c),
        }
    }
    // Anything after the closing quote must be blank (comments were
    // stripped already).
    if !chars.as_str().trim().is_empty() {
        return None;
    }
    Some((key.trim(), value))
}

/// Strip a `#` comment that is not inside a quoted value.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_comments() {
        let src = r##"
# ledger
[[relaxed]]
file = "crates/a/src/x.rs"   # trailing comment
pattern = "fetch_add(1, Ordering::Relaxed)"
reason = "counter, no payload"
[[relaxed]]
file = "crates/b/src/y.rs"
pattern = "load(Ordering::Relaxed)"
reason = "gauge \"snapshot\""
"##;
        let m = parse(src, "relaxed").unwrap();
        assert_eq!(m.entries.len(), 2);
        assert!(m.entries[1].reason.contains("\"snapshot\""));
        assert!(m.entries[0].matches(
            "crates/a/src/x.rs",
            "  self.n.fetch_add(1, Ordering::Relaxed);"
        ));
        assert!(!m.entries[0].matches("crates/a/src/x.rs", "store(1, Ordering::Relaxed)"));
    }

    #[test]
    fn missing_reason_is_an_error() {
        let src = "[[allow]]\nfile = \"f.rs\"\npattern = \"unwrap()\"\n";
        let err = parse(src, "allow").unwrap_err();
        assert!(err.message.contains("reason"));
    }

    #[test]
    fn unknown_key_is_an_error() {
        let src = "[[allow]]\nfile = \"f.rs\"\npattern = \"x\"\nreason = \"y\"\nlines = \"3\"\n";
        assert!(parse(src, "allow").is_err());
    }

    #[test]
    fn key_before_header_is_an_error() {
        assert!(parse("file = \"f.rs\"\n", "relaxed").is_err());
    }

    /// SplitMix64: a seeded stream for the mutant test.
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n.max(1) as u64) as usize
        }
    }

    /// `text` damaged once: bits flipped, cut short, a quote dropped or
    /// doubled, or a multi-byte character spliced in (possibly inside
    /// another one, which leaves invalid UTF-8 for the lossy decode).
    fn mutant(text: &str, kind: usize, rng: &mut Stream) -> String {
        let mut bytes = text.as_bytes().to_vec();
        let quotes: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'"').collect();
        let quote = quotes[rng.below(quotes.len())];
        match kind {
            0 => {
                for _ in 0..=rng.below(4) {
                    let at = rng.below(bytes.len());
                    bytes[at] ^= 1 << rng.below(8);
                }
            }
            1 => bytes.truncate(rng.below(bytes.len())),
            2 => {
                bytes.remove(quote);
            }
            3 => bytes.insert(quote, b'"'),
            _ => {
                let wide = ["é", "—", "日本", "🦀", "\u{0}", "\u{feff}", "\\\""];
                let at = rng.below(bytes.len() + 1);
                let splice = wide[rng.below(wide.len())].as_bytes();
                bytes.splice(at..at, splice.iter().copied());
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    #[test]
    fn a_mutated_ledger_parses_or_is_a_typed_error() {
        let ledgers = [
            (include_str!("../orderings.toml"), "relaxed"),
            (include_str!("../panic_allow.toml"), "allow"),
        ];
        let per_ledger = if cfg!(miri) { 10 } else { 2000 };
        let mut rng = Stream(0x1ED6_E125);
        let (mut parsed, mut rejected) = (0, 0);
        for (text, section) in ledgers {
            assert!(
                parse(text, section).is_ok(),
                "the committed {section} ledger"
            );
            for i in 0..per_ledger {
                let damaged = mutant(text, i % 5, &mut rng);
                match std::panic::catch_unwind(|| parse(&damaged, section)) {
                    Ok(Ok(_)) => parsed += 1,
                    Ok(Err(e)) => {
                        let lines = damaged.lines().count();
                        assert!(
                            (1..=lines).contains(&e.line),
                            "mutant {i} of the {section} ledger: {e} (of {lines} lines)"
                        );
                        rejected += 1;
                    }
                    Err(_) => panic!("mutant {i} of the {section} ledger panicked:\n{damaged}"),
                }
            }
        }
        assert!(
            parsed > 0 && rejected > 0,
            "{parsed} parsed, {rejected} rejected"
        );
    }
}

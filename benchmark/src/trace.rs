//! Spans recorded by the harness around its calls into each layer's public
//! functions. They are kept in memory and written out when the run ends;
//! nothing under `crates/` is instrumented.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// No parent: the span is the root of one op or job.
pub const ROOT: u32 = u32::MAX;

/// Most spans written to the trace file. The sums below use every span;
/// the file keeps the head of the run, which is what a reader opens.
const FILE_SPAN_LIMIT: usize = 200_000;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the causing span in the tracer, or [`ROOT`].
    pub parent: u32,
    /// Sequence id of the op or job; spans of one request share it.
    pub seq: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per span name: total duration, and self time (duration minus the part
/// of the interval that child spans cover).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTimes {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds of `t` since the tracer was made.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span and return its index, for use as a parent.
    pub fn push(&mut self, name: &'static str, parent: u32, seq: u32, start: u64, end: u64) -> u32 {
        self.spans.push(Span {
            name,
            parent,
            seq,
            start_ns: start,
            end_ns: end,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn times(&self) -> BTreeMap<&'static str, NameTimes> {
        self_times(&self.spans)
    }

    /// Share of the root spans' time that their child spans account for.
    /// What is left is time no layer was entered: the harness itself, or a
    /// generator running late.
    pub fn root_cover(&self) -> f64 {
        let (mut total, mut own) = (0u64, 0u64);
        let covered = covered_by_children(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == ROOT {
                total += s.duration();
                own += s.duration() - covered[i];
            }
        }
        if total == 0 {
            return 0.0;
        }
        1.0 - own as f64 / total as f64
    }

    /// One JSON object per line: name, start, end, parent, seq.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().take(FILE_SPAN_LIMIT).enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"seq\":{}}}",
                s.name, s.start_ns, s.end_ns, s.seq
            )?;
        }
        writeln!(
            out,
            "{{\"spans_recorded\":{},\"spans_written\":{}}}",
            self.spans.len(),
            self.spans.len().min(FILE_SPAN_LIMIT)
        )?;
        out.flush()
    }
}

/// For each span, the nanoseconds of its interval covered by the union of
/// its children (clipped to the parent; overlapping children count once).
fn covered_by_children(spans: &[Span]) -> Vec<u64> {
    let mut kids: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if b > a {
                kids.entry(s.parent).or_default().push((a, b));
            }
        }
    }
    let mut covered = vec![0u64; spans.len()];
    for (parent, mut iv) in kids {
        iv.sort_unstable();
        let (mut sum, mut cur) = (0u64, iv[0]);
        for &(a, b) in &iv[1..] {
            if a <= cur.1 {
                cur.1 = cur.1.max(b);
            } else {
                sum += cur.1 - cur.0;
                cur = (a, b);
            }
        }
        covered[parent as usize] = sum + (cur.1 - cur.0);
    }
    covered
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTimes> {
    let covered = covered_by_children(spans);
    let mut out: BTreeMap<&'static str, NameTimes> = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.duration();
        e.self_ns += s.duration() - c;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            seq: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // job 0..100: submit 10..20, wait 20..90 whose child exec is 40..70.
        let spans = [
            span("job", ROOT, 0, 100),
            span("submit", 0, 10, 20),
            span("wait", 0, 20, 90),
            span("exec", 2, 40, 70),
        ];
        let t = self_times(&spans);
        assert_eq!(t["job"].total_ns, 100);
        assert_eq!(t["job"].self_ns, 20);
        assert_eq!(t["submit"].self_ns, 10);
        assert_eq!(t["wait"].total_ns, 70);
        assert_eq!(t["wait"].self_ns, 40);
        assert_eq!(t["exec"].self_ns, 30);
        // Self times partition the root: nothing counted twice or lost.
        let all: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(all, 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("root", ROOT, 100, 200),
            span("a", 0, 90, 150),  // starts before the parent
            span("b", 0, 140, 180), // overlaps a
            span("c", 0, 195, 260), // ends after the parent
        ];
        let t = self_times(&spans);
        // Cover: 100..180 and 195..200 = 85.
        assert_eq!(t["root"].self_ns, 15);
    }

    #[test]
    fn root_cover_is_the_attributed_share() {
        let mut tr = Tracer::new();
        let r = tr.push("op", ROOT, 1, 0, 100);
        tr.push("predict", r, 1, 0, 30);
        tr.push("execute", r, 1, 30, 95);
        assert!((tr.root_cover() - 0.95).abs() < 1e-12);
    }
}

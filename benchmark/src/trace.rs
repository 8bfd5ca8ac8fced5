//! The benchmark's own spans: one record around each call into a layer,
//! kept in a per-thread vector and written out when the workload ends.
//! Nothing inside `crates/` is instrumented by this.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::json::Json;
use crate::stats;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Position of the causing span in the same thread's vector, plus
    /// one; 0 for a span nothing caused.
    pub parent: u32,
    /// Spans of one op share this.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of each span of one thread: its duration minus the part of
/// it its child spans cover. Children of one parent do not overlap (a
/// thread makes one call at a time), so their durations simply add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(parent) = (s.parent as usize).checked_sub(1) {
            covered[parent] += s.duration_ns();
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

/// Median duration and median self time per span name, microseconds.
pub fn summarize(threads: &[Vec<Span>]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut by_name: BTreeMap<&'static str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for spans in threads {
        for (s, own) in spans.iter().zip(self_times_ns(spans)) {
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(s.duration_ns());
            entry.1.push(own);
        }
    }
    by_name
        .into_iter()
        .map(|(name, (total, own))| {
            (name, (stats::median_u64(&total) / 1e3, stats::median_u64(&own) / 1e3))
        })
        .collect()
}

/// Writes every span as one JSON line.
pub fn write_jsonl(path: &Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let line = Json::obj([
                ("lane", Json::Num(thread as f64)),
                ("id", Json::Num((id + 1) as f64)),
                ("parent", if s.parent == 0 { Json::Null } else { Json::Num(f64::from(s.parent)) }),
                ("op_id", Json::Num(s.op_id as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, op_id: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("op", 0, 1000, 0),
            span("request", 100, 400, 1),
            span("redeem", 450, 950, 1),
            span("inner", 500, 600, 3),
            span("orphan", 2000, 2100, 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![200, 300, 400, 100, 100]);
    }

    #[test]
    fn self_time_never_underflows() {
        // A child that outlasts its parent (clock read order) costs the
        // parent nothing below zero.
        let spans = vec![span("op", 100, 200, 0), span("call", 90, 260, 1)];
        assert_eq!(self_times_ns(&spans), vec![0, 170]);
    }

    #[test]
    fn summary_takes_medians_across_threads() {
        let threads = vec![
            vec![span("op", 0, 3000, 0), span("call", 0, 1000, 1)],
            vec![span("op", 0, 5000, 0), span("call", 0, 2000, 1), span("call", 2000, 5000, 1)],
        ];
        let s = summarize(&threads);
        assert_eq!(s["op"], (4.0, 1.0));
        assert_eq!(s["call"], (2.0, 2.0));
    }
}

//! In-memory spans of a traced run, their self times, and the trace file
//! written at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use dvs_obs::json::json_escape;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed (`layer.operation`).
    pub name: &'static str,
    /// Nanoseconds from the tracer's start.
    pub start: u64,
    /// Nanoseconds from the tracer's start.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The cell (or request) the span worked for.
    pub cell: Option<String>,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time their children cover.
    pub self_ns: u64,
}

/// The spans of one run.
pub struct Tracer {
    t0: Instant,
    workload: &'static str,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty trace of `workload`.
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            t0: Instant::now(),
            workload,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a finished interval; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        cell: Option<&str>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            cell: cell.map(str::to_string),
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, cell: Option<&str>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, cell)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.ns(Instant::now());
    }

    /// Times `f` as a span; returns its value and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        cell: Option<&str>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.record(name, start, end, parent, cell);
        (value, end - start)
    }

    /// Count, total and self time per span name. A span's self time is
    /// its duration minus the part of it its children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let duration = s.end.saturating_sub(s.start);
            let covered = covered(kids, s.start, s.end);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += duration;
            t.self_ns += duration - covered;
        }
        out
    }

    /// Writes the spans, per-name totals and `extras` as one JSON file.
    pub fn write(
        &self,
        path: &Path,
        seed: u64,
        host: &str,
        extras: &BTreeMap<String, f64>,
    ) -> std::io::Result<()> {
        let mut out = format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"host\":{host},\"totals\":{{",
            self.workload
        );
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("},\"extras\":{");
        for (i, (name, v)) in extras.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{}\":{v:?}", json_escape(name));
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i > 0 { ",\n" } else { "\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let cell = s
                .cell
                .as_ref()
                .map_or("null".to_string(), |c| format!("\"{}\"", json_escape(c)));
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\
                 \"workload\":\"{}\",\"cell\":{cell}}}",
                s.name, s.start, s.end, self.workload
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new("w");
        let base = t.t0;
        let at = |ns: u64| base + Duration::from_nanos(ns);
        let root = t.record("root", at(0), at(100), None, None);
        // Overlapping children cover [10, 40] and [60, 70]: 40 ns.
        t.record("child", at(10), at(30), Some(root), Some("c"));
        t.record("child", at(20), at(40), Some(root), Some("c"));
        t.record("child", at(60), at(70), Some(root), None);
        let totals = t.totals();
        assert_eq!(
            totals["root"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 60
            }
        );
        assert_eq!(totals["child"].count, 3);
        assert_eq!(totals["child"].self_ns, 50);
    }

    #[test]
    fn trace_file_is_json() {
        let mut t = Tracer::new("w");
        let root = t.open("root", None, Some("cell \"x\""));
        let _ = t.time("child", Some(root), None, || 1 + 1);
        t.close(root);
        let dir = std::env::temp_dir().join(format!("dvs-perf-trace-{}", std::process::id()));
        let path = dir.join("trace-w.json");
        let extras = BTreeMap::from([("serve.requests".to_string(), 3.0)]);
        t.write(&path, 7, "{\"nproc\":2}", &extras).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        let v = dvs_obs::json::Value::parse(&text).expect("trace file is JSON");
        assert_eq!(
            v.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len),
            Some(2)
        );
        assert!(v.get("totals").and_then(|t| t.get("root")).is_some());
        let _ = std::fs::remove_dir_all(dir);
    }
}

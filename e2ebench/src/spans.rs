//! Host-wall spans recorded from the benchmark's side of each layer
//! boundary, kept in memory and written out when the run ends as a Chrome
//! trace (the same trace-event form sp-trace emits: `process_name` /
//! `thread_name` metadata plus complete `"X"` events, microseconds).

use scalapart::machine::trace::json::{escape, num};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// Seconds since the trace origin.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same [`Spans`].
    pub parent: Option<usize>,
    /// Preorder index of the bisection the span belongs to, if any.
    pub bisection: Option<usize>,
    /// Trace lane (Chrome `tid`); one per traced activity.
    pub lane: u32,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// An append-only span store with one time origin.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    lanes: BTreeMap<u32, String>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            lanes: BTreeMap::new(),
        }
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Seconds between the origin and `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    pub fn name_lane(&mut self, lane: u32, name: &str) {
        self.lanes.insert(lane, name.to_string());
    }

    /// Open a span at `start`; close it with [`Spans::close`].
    pub fn open(
        &mut self,
        name: &str,
        start: f64,
        parent: Option<usize>,
        bisection: Option<usize>,
        lane: u32,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent,
            bisection,
            lane,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize, end: f64) {
        self.spans[id].end = end;
    }

    /// Record a finished span.
    pub fn push(
        &mut self,
        name: &str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        bisection: Option<usize>,
        lane: u32,
    ) -> usize {
        let id = self.open(name, start, parent, bisection, lane);
        self.close(id, end);
        id
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of spans named `name` under `root` (at any depth).
    pub fn total(&self, root: usize, name: &str) -> f64 {
        self.descendants(root)
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.spans[i].dur())
            .sum()
    }

    /// A span's duration minus the time its direct children cover
    /// (children of one parent never overlap by construction).
    pub fn self_time(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur)
            .sum();
        self.spans[id].dur() - children
    }

    /// Per-name `(total, self)` seconds under `root`, root included.
    pub fn breakdown(&self, root: usize) -> BTreeMap<String, (f64, f64)> {
        let mut out: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for i in std::iter::once(root).chain(self.descendants(root)) {
            let e = out.entry(self.spans[i].name.clone()).or_default();
            e.0 += self.spans[i].dur();
            e.1 += self.self_time(i);
        }
        out
    }

    fn is_under(&self, mut i: usize, root: usize) -> bool {
        while let Some(p) = self.spans[i].parent {
            if p == root {
                return true;
            }
            i = p;
        }
        false
    }

    fn descendants(&self, root: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.spans.len()).filter(move |&i| self.is_under(i, root))
    }

    /// Render every span as a Chrome trace-event JSON array on one host
    /// process, a lane per traced activity.
    pub fn chrome_trace(&self, process: &str) -> String {
        let mut lines = vec![format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \
             \"args\": {{\"name\": \"{}\"}}}}",
            escape(process)
        )];
        for (lane, name) in &self.lanes {
            lines.push(format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {lane}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                escape(name)
            ));
        }
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = format!("\"id\": {i}");
            if let Some(p) = s.parent {
                args.push_str(&format!(", \"parent\": {p}"));
            }
            if let Some(b) = s.bisection {
                args.push_str(&format!(", \"bisection\": {b}"));
            }
            lines.push(format!(
                "{{\"name\": \"{}\", \"cat\": \"host\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{{args}}}}}",
                escape(&s.name),
                s.lane,
                num(s.start * 1e6),
                num(s.dur() * 1e6),
            ));
        }
        format!("[\n{}\n]\n", lines.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut s = Spans::new();
        let root = s.push("kway", 0.0, 10.0, None, None, 0);
        let b = s.push("bisection", 1.0, 9.0, Some(root), Some(0), 0);
        s.push("coarsen", 1.0, 3.0, Some(b), Some(0), 0);
        s.push("embed", 3.0, 8.0, Some(b), Some(0), 0);
        assert_eq!(s.self_time(root), 2.0);
        assert_eq!(s.self_time(b), 1.0);
        assert_eq!(s.total(root, "embed"), 5.0);
        let bd = s.breakdown(root);
        assert_eq!(bd["kway"], (10.0, 2.0));
        assert_eq!(bd["coarsen"], (2.0, 2.0));
    }

    #[test]
    fn chrome_trace_names_process_and_lanes() {
        let mut s = Spans::new();
        s.name_lane(0, "k-way");
        s.push("kway", 0.0, 0.5, None, None, 0);
        let t = s.chrome_trace("bench");
        assert!(t.starts_with("[\n{\"name\": \"process_name\""));
        assert!(t.contains("\"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0"));
        assert!(t.contains("\"ph\": \"X\""));
        assert!(t.contains("\"dur\": 500000"));
        assert!(t.trim_end().ends_with(']'));
    }
}

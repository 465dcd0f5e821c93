//! In-memory spans recorded around the referee's calls into each layer.
//!
//! A span is `{id, parent, name, workload, start_ns, end_ns}`. Spans are
//! kept in a vector while the benchmark runs and written as JSONL when it
//! ends. A span's *self time* is its duration minus the part of that
//! interval its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer { workload, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span named `name`, child of whichever span is
    /// open; returns the body's value and the span's duration in seconds.
    pub fn span<R>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let value = body(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        (value, (end_ns - start_ns) as f64 / 1e9)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, self.workload, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of span `id`: its duration minus the union of its direct
/// children's intervals (children may overlap or touch; each covered
/// nanosecond is subtracted once).
pub fn self_time_ns(spans: &[Span], id: u32) -> u64 {
    let me = &spans[id as usize];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.duration_ns() - covered
}

/// Total self time of every span named `name`, in seconds.
pub fn self_time_of(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| self_time_ns(spans, s.id)).sum::<u64>() as f64
        / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "s", start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // Parent [0,100); children [10,30), [20,50) overlapping, [50,60)
        // touching, and a grandchild that must not be subtracted twice.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 50, 60),
            span(4, Some(2), 25, 45),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 50);
        assert_eq!(self_time_ns(&spans, 1), 20);
        assert_eq!(self_time_ns(&spans, 2), 30 - 20);
        assert_eq!(self_time_ns(&spans, 4), 20);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![span(0, None, 10, 20), span(1, Some(0), 5, 15), span(2, Some(0), 18, 40)];
        assert_eq!(self_time_ns(&spans, 0), 10 - 5 - 2);
    }

    #[test]
    fn tracer_nests_and_serialises() {
        let mut t = Tracer::new("storm_flat");
        let (value, outer_s) =
            t.span("outer", |t| t.span("inner", |_| std::hint::black_box(3)).0 + 1);
        assert_eq!(value, 4);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[0].duration_ns() as f64 / 1e9, outer_s);
        assert_eq!(
            self_time_ns(spans, 0) + spans[1].duration_ns(),
            spans[0].duration_ns(),
            "one child: self + child = whole"
        );
        let lines: Vec<_> = t.to_jsonl().lines().map(str::to_owned).collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(&lines[0]).expect("span lines are JSON");
        assert_eq!(first.get("name").and_then(|n| n.as_str()), Some("outer"));
        assert_eq!(first.get("workload").and_then(|n| n.as_str()), Some("storm_flat"));
        assert_eq!(first.get("parent"), Some(&crate::json::Json::Null));
    }
}

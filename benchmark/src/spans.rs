//! In-memory spans around the harness's own calls into the system under
//! test: name, start, end, the span that caused it, and the workload
//! they all belong to. Nothing is written while a rep runs; the harness
//! collects every rep's spans and writes them out once, at exit.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Layer boundary or phase name.
    pub name: String,
    /// Nanoseconds from the recorder's origin to entry.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's origin to exit.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// The workload id every span of one rep shares.
    pub workload: String,
}

/// A span recorder for one rep.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts now.
    pub fn new(workload: &'static str) -> Spans {
        Spans {
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            workload: self.workload.to_string(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Seconds the first span called `name` lasted.
    pub fn duration_s(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// The recorded spans, in entry order.
    pub fn into_vec(self) -> Vec<Span> {
        self.spans
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let total = spans[id].end_ns - spans[id].start_ns;
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    total.saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_under_the_open_span_and_self_time_excludes_them() {
        let mut spans = Spans::new("w");
        let root = spans.enter("rep");
        let a = spans.enter("run");
        spans.exit(a);
        let b = spans.enter("judge");
        spans.exit(b);
        spans.exit(root);
        let v = spans.into_vec();
        assert_eq!(v[a].parent, Some(root));
        assert_eq!(v[b].parent, Some(root));
        assert_eq!(v[root].parent, None);
        assert!(v
            .iter()
            .all(|s| s.workload == "w" && s.end_ns >= s.start_ns));
        let covered = (v[a].end_ns - v[a].start_ns) + (v[b].end_ns - v[b].start_ns);
        assert_eq!(
            self_time_ns(&v, root),
            (v[root].end_ns - v[root].start_ns) - covered
        );
    }
}

//! Spans recorded around the benchmark's own calls into each layer.
//!
//! The tracer is also the benchmark's stopwatch: [`Tracer::start`] and
//! [`Tracer::end`] read the clock whether tracing is on or off, so a traced
//! and an untraced repetition time exactly the same calls. With tracing on,
//! `end` additionally keeps the span in memory; spans are written out only
//! when the workload ends.

use std::collections::HashMap;
use std::time::Instant;

/// One finished span. `parent` is 0 for a root span; `trace` groups the
/// spans of one repetition (detect, shard) or one round (serve).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started but not ended.
#[derive(Debug)]
pub struct Open {
    trace: u64,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turn span recording on or off for the calls that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn start(&mut self, trace: u64, parent: u64, name: &'static str) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            trace,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// End `open`, returning its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        let secs = end_ns.saturating_sub(open.start_ns) as f64 * 1e-9;
        if self.on {
            self.spans.push(Span {
                trace: open.trace,
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        }
        secs
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in the order given: its duration minus the
/// part of its interval that its children cover (overlapping children
/// count once, and a child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|&(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name, in order of first appearance: `(name, count, total_ns,
/// self_ns)`.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.duration_ns();
                r.3 += self_ns;
            }
            None => rows.push((s.name, 1, s.duration_ns(), self_ns)),
        }
    }
    rows
}

/// One JSON object per line: trace id, span id, parent id, name, start and
/// end in nanoseconds since the workload process started its clock.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace: 1,
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two overlapping children cover 10..50 once (40 ns).
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            // A child running past its parent counts only inside it.
            span(4, 1, 90, 130),
            // A grandchild is its child's business, not the root's.
            span(5, 2, 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 8, 20, 40, 8]);
    }

    #[test]
    fn leaves_keep_their_whole_duration() {
        let spans = vec![span(7, 0, 5, 9), span(8, 0, 1, 2)];
        assert_eq!(self_times(&spans), vec![4, 1]);
    }

    #[test]
    fn by_name_aggregates_and_tracer_records_only_when_on() {
        let mut t = Tracer::new();
        let off = t.start(1, 0, "off");
        assert!(t.end(off) >= 0.0);
        assert!(t.spans().is_empty());
        t.set_on(true);
        let root = t.start(1, 0, "round");
        for _ in 0..3 {
            let req = t.start(1, root.id(), "read");
            t.end(req);
        }
        t.end(root);
        let rows = by_name(t.spans());
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].0, rows[0].1), ("read", 3));
        assert_eq!((rows[1].0, rows[1].1), ("round", 1));
        let round = &rows[1];
        assert_eq!(round.2 - round.3, rows[0].2, "round self = total - reads");
        let line = to_jsonl(&t.spans()[..1]);
        assert!(line.starts_with("{\"trace\":1,\"span\":"));
        assert!(line.ends_with("}\n"));
    }
}

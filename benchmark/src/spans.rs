//! In-memory spans around the calls the harness makes into each layer.
//!
//! The benchmark measures from outside: a span brackets one call into
//! a layer's public function. Spans are kept in memory and written out
//! when the workload ends. A span's *self time* is its duration minus
//! the part of that interval its children cover, so a parent that only
//! sequences its children reads ~0 and nothing is counted twice.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Spans of one operation (rep, request) share an identifier.
    pub op_id: u64,
}

/// A span that has been opened and not yet closed.
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

/// A single-threaded span recorder. `time` always measures; it records
/// a span only while `enabled`, which is how one loop serves both the
/// untraced and the traced run.
pub struct Spans {
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Spans {
    pub fn new(epoch: Instant, enabled: bool) -> Spans {
        Spans { enabled, epoch, spans: Vec::new(), open: Vec::new(), op_id: 0 }
    }

    /// An empty, disabled recorder on the same clock: a client thread's,
    /// to be [`absorb`](Spans::absorb)ed when the thread is done.
    pub fn fork(&self) -> Spans {
        Spans::new(self.epoch, false)
    }

    /// Start a new operation: spans recorded from now on carry `op_id`.
    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    /// Open a span; close it with [`Spans::end`]. Spans nest in the
    /// order they are opened.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                op_id: self.op_id,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { idx, start: Instant::now() }
    }

    /// Close the innermost open span; returns its elapsed seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
            self.spans[idx].start_ns = (open.start - self.epoch).as_nanos() as u64;
            self.spans[idx].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        (end - open.start).as_secs_f64()
    }

    /// Run `f` inside a span called `name`; returns its result and the
    /// elapsed seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let open = self.begin(name);
        let out = f(self);
        let secs = self.end(open);
        (out, secs)
    }

    /// Append another recorder's spans (a client thread's), keeping
    /// their parent links valid.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds: duration minus the union
/// of its direct children's intervals (clipped to the parent, and
/// merged so overlapping children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-name totals: (count, total ns, self ns).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    out
}

/// The span file: every span, plus the per-name summary.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let list: Vec<Value> = spans
        .iter()
        .map(|s| {
            json!({
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": match s.parent { Some(p) => json!(p), None => Value::Null },
                "op_id": s.op_id,
            })
        })
        .collect();
    let summary: Vec<Value> = by_name(spans)
        .into_iter()
        .map(|(name, (count, total, own))| {
            json!({ "name": name, "count": count, "total_ns": total, "self_ns": own })
        })
        .collect();
    json!({ "workload": workload, "summary": Value::Array(summary), "spans": Value::Array(list) })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op_id: 0 }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root 0..100 > a 10..60 > b 20..30; root also > c 70..90.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root interval");
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        // Two children overlap on 30..50; a third pokes past the parent.
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            span("z", 90, 120, Some(0)),
        ];
        // Covered: 10..70 (60) + 90..100 (10).
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_links_parents_and_ops() {
        let mut s = Spans::new(Instant::now(), true);
        s.set_op(7);
        s.time("outer", |s| {
            s.time("inner", |_| ());
        });
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[1].op_id, 7);
        assert!(s.spans()[0].start_ns <= s.spans()[1].start_ns);
        assert!(s.spans()[1].end_ns <= s.spans()[0].end_ns);

        let mut off = Spans::new(Instant::now(), false);
        let ((), secs) = off.time("ignored", |_| ());
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty(), "a disabled recorder only measures");
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let mut a = Spans::new(Instant::now(), true);
        a.time("a", |_| ());
        let mut b = Spans::new(Instant::now(), true);
        b.time("p", |b| {
            b.time("q", |_| ());
        });
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}

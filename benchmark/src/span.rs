//! Spans recorded by the traced pass: one per call into a layer, kept
//! in memory and written out when the pass ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. `parent` is the id of the enclosing span (0 for
/// none — ids start at 1); spans of one op share `op`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one clock. Nesting follows the call stack:
/// a span entered while another is open becomes its child.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// The op id stamped on spans entered from now on.
    pub op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Time `f` as a leaf span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another (a
/// future threaded layer) or stick out of the parent; the covered part
/// is the union of the children's intervals clipped to the parent's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, over every span recorded under an op
/// span named `root` (the root included). Probe spans outside any op
/// are left out, so the shares add up to the ops' wall time.
pub fn self_time_by_name(spans: &[Span], root: &str) -> BTreeMap<&'static str, u64> {
    let selfs = self_times_ns(spans);
    let under_root = |s: &Span| {
        let mut cur = s;
        loop {
            if cur.name == root {
                return true;
            }
            if cur.parent == 0 {
                return false;
            }
            cur = &spans[cur.parent as usize - 1];
        }
    };
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        if under_root(s) {
            *out.entry(s.name).or_insert(0) += own;
        }
    }
    out
}

/// The span file: `{"workload", "seed", "spans": [{id, parent, op, name,
/// start_ns, end_ns}]}`.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::Num(seed as f64)),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("id", Json::Num(f64::from(s.id))),
                            ("parent", Json::Num(f64::from(s.parent))),
                            ("op", Json::Num(f64::from(s.op))),
                            ("name", Json::Str(s.name.to_string())),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "a", 10, 40),
            // Overlaps `a` by 10 and has a child of its own.
            span(3, 1, "b", 30, 60),
            span(4, 3, "b.inner", 35, 45),
            // Sticks out of the parent: only 90..100 counts.
            span(5, 1, "c", 90, 120),
            // A probe outside the op.
            span(6, 0, "probe", 200, 230),
        ];
        let selfs = self_times_ns(&spans);
        // Children cover 10..60 and 90..100 = 60 of the op's 100.
        assert_eq!(selfs, vec![40, 30, 20, 10, 30, 30]);

        let by_name = self_time_by_name(&spans, "op");
        assert_eq!(by_name.get("op"), Some(&40));
        assert_eq!(by_name.get("b.inner"), Some(&10));
        assert_eq!(by_name.get("probe"), None);
    }

    #[test]
    fn tracer_nests_by_call_stack() {
        let mut t = Tracer::new();
        t.op = 7;
        let op = t.enter("op");
        let x = t.span("leaf", || 41 + 1);
        t.exit(op);
        t.span("probe", || ());
        assert_eq!(x, 42);
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("op", 0, 7));
        assert_eq!((s[1].name, s[1].parent), ("leaf", op));
        assert_eq!((s[2].name, s[2].parent), ("probe", 0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}

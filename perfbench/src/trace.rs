//! The benchmark's own span list.
//!
//! Spans are recorded by the benchmark around its calls into each layer —
//! name, start, end, parent — and kept in memory until the run writes them
//! out. They never go through the program's `obs` ring, so nothing is
//! dropped however long the run is.

use std::collections::BTreeMap;
use std::time::Instant;

use obs::json::Value;

/// One completed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name: the layer call it wraps (`pta.solve`) or a benchmark
    /// structure span (`pass`, `row`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An in-memory span recorder. A disabled tracer records nothing and only
/// runs the closures it is given.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer sharing `epoch` with the rest of the run.
    pub fn new(epoch: Instant) -> Self {
        Tracer { enabled: false, epoch, spans: Vec::new(), open: Vec::new() }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its index, or
    /// `None` when disabled.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let span =
            Span { name, start_ns: self.now_ns(), end_ns: 0, parent: self.open.last().copied() };
        self.spans.push(span);
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `enter` returned.
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Duration of span `id`, nanoseconds.
    pub fn duration_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        s.end_ns - s.start_ns
    }

    /// Self time per span name over the subtree rooted at `root`: each
    /// span's duration minus the time its children cover. The values sum
    /// to the root's duration exactly when children nest inside their
    /// parent and do not overlap, which [`Tracer::check_nesting`] checks.
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for id in self.subtree(root) {
            let children: u64 = self
                .spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.parent == Some(id))
                .map(|(c, _)| self.duration_ns(c))
                .sum();
            *out.entry(self.spans[id].name).or_insert(0) += self.duration_ns(id) - children;
        }
        out
    }

    /// Span indices of the subtree rooted at `root` (root included).
    fn subtree(&self, root: usize) -> Vec<usize> {
        let mut ids = vec![root];
        let mut i = 0;
        while i < ids.len() {
            let parent = ids[i];
            ids.extend(
                (parent + 1..self.spans.len()).filter(|&c| self.spans[c].parent == Some(parent)),
            );
            i += 1;
        }
        ids
    }

    /// True when every span of the subtree lies inside its parent and
    /// siblings do not overlap — the condition under which self times add
    /// up to the root's wall time.
    pub fn check_nesting(&self, root: usize) -> bool {
        self.subtree(root).into_iter().all(|id| {
            let p = &self.spans[id];
            let mut kids: Vec<&Span> = self.spans.iter().filter(|s| s.parent == Some(id)).collect();
            kids.sort_by_key(|s| s.start_ns);
            kids.iter()
                .all(|k| k.start_ns >= p.start_ns && k.end_ns <= p.end_ns && k.end_ns >= k.start_ns)
                && kids.windows(2).all(|w| w[0].end_ns <= w[1].start_ns)
        })
    }

    /// The recorded spans as Chrome trace-event JSON (complete events,
    /// microsecond timestamps, with each span's index and parent in
    /// `args`).
    pub fn chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Obj(vec![
                    ("name".to_owned(), Value::str(s.name)),
                    ("cat".to_owned(), Value::str("perfbench")),
                    ("ph".to_owned(), Value::str("X")),
                    ("ts".to_owned(), Value::Float(s.start_ns as f64 / 1e3)),
                    ("dur".to_owned(), Value::Float((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid".to_owned(), Value::uint(1)),
                    ("tid".to_owned(), Value::uint(1)),
                    (
                        "args".to_owned(),
                        Value::Obj(vec![
                            ("id".to_owned(), Value::uint(id as u64)),
                            (
                                "parent".to_owned(),
                                s.parent.map_or(Value::Null, |p| Value::uint(p as u64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![("traceEvents".to_owned(), Value::Arr(events))]).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_root() {
        let mut t = Tracer::new(Instant::now());
        t.set_enabled(true);
        let root = t.enter("pass");
        t.time("a", || std::hint::black_box((0..1000).sum::<u64>()));
        t.time("b", || std::hint::black_box((0..100).product::<u64>()));
        t.exit(root);
        let root = root.unwrap();
        assert!(t.check_nesting(root));
        let total: u64 = t.self_times(root).values().sum();
        assert_eq!(total, t.duration_ns(root));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        assert_eq!(t.time("a", || 7), 7);
        assert!(t.enter("b").is_none());
        assert!(t.spans.is_empty());
    }
}

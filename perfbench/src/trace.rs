//! In-memory spans for the traced run.
//!
//! A span records a name, start, end, the span that was open when it
//! started (its parent) and the operation it belongs to. Spans are opened
//! and closed on the driving thread only, around calls into the program's
//! public functions, and kept in memory until the run writes them out. A
//! layer's self time is its span minus the part its child spans cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let now = self.tracer.now_ns();
        let mut st = self.tracer.lock();
        st.spans[self.index].end_ns = now;
        if st.open.last() == Some(&self.index) {
            st.open.pop();
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

impl Tracer {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("tracer lock poisoned")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new operation id; spans opened afterwards carry it.
    pub fn begin_op(&self) -> u64 {
        let mut st = self.lock();
        st.op += 1;
        st.op
    }

    /// Opens a span under the innermost open one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start_ns = self.now_ns();
        let mut st = self.lock();
        let index = st.spans.len();
        let (parent, op) = (st.open.last().copied(), st.op);
        st.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        st.open.push(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans();
        let mut totals = BTreeMap::new();
        for (i, own) in self_times(&spans).into_iter().enumerate() {
            *totals.entry(spans[i].name).or_insert(0) += own;
        }
        totals
    }

    /// Total wall time per span name (children included), in nanoseconds.
    pub fn wall_times(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for s in self.spans() {
            *totals.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        totals
    }

    /// The spans as JSON lines, for the trace file the run writes out.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.op
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("call", 0, 100, None),
            span("level", 10, 60, Some(0)),
            span("evaluate", 20, 50, Some(1)),
            span("level", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 120, Some(0)),
        ];
        // Children cover 10..100 of the root once.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        let t = Tracer::default();
        let op = t.begin_op();
        {
            let _outer = t.span("outer");
            t.time("inner", || std::hint::black_box(1 + 1));
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.op == op && s.end_ns >= s.start_ns));
        let own = t.self_times();
        let wall = t.wall_times();
        assert_eq!(own["outer"] + own["inner"], wall["outer"]);
    }
}

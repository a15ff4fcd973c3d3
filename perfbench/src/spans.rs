//! In-memory span recording for the traced run. Spans are taken from the
//! benchmark's own code, around calls into each layer's public functions,
//! kept in memory, and written out once at exit.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request (batch) identifier shared by the spans of one batch.
    pub req: u64,
    /// Work items the span covers (events, bytes, records...).
    pub count: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Thread-safe span sink. Spans recorded from another thread (the store
/// observer runs on the shard worker) attach to the context span set with
/// [`Tracer::enter`].
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    context: Mutex<(Option<usize>, u64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            context: Mutex::new((None, 0)),
        }
    }
}

impl Tracer {
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index.
    pub fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span sink poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Open a span whose end is filled in by [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start = self.now();
        self.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
            count: 0,
        })
    }

    pub fn close(&self, idx: usize, count: u64) {
        let end = self.now();
        let mut spans = self.spans.lock().expect("span sink poisoned");
        spans[idx].end = end;
        spans[idx].count = count;
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, parent, req);
        let out = f();
        self.close(idx, count);
        out
    }

    /// Make `parent`/`req` the context for spans recorded off-thread.
    pub fn enter(&self, parent: Option<usize>, req: u64) {
        *self.context.lock().expect("span context poisoned") = (parent, req);
    }

    /// Record a span that just ended after `nanos`, under the context.
    pub fn push_in_context(&self, name: &'static str, nanos: u64, count: u64) {
        let (parent, req) = *self.context.lock().expect("span context poisoned");
        let end = self.now();
        self.push(Span {
            name,
            start: end.saturating_sub(nanos),
            end,
            parent,
            req,
            count,
        });
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Summed duration and count of the spans called `name`.
pub fn totals(spans: &[Span], name: &str) -> (u64, u64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0, 0), |(d, c, n), s| (d + s.dur(), c + s.count, n + 1))
}

/// Write spans as JSON lines.
pub fn write(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{},\"count\":{}}}",
            s.name, s.start, s.end, parent, s.req, s.count
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("batch", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: union 10..50
            span("c", 90, 120, Some(0)), // clipped to 90..100
            span("d", 12, 18, Some(1)),  // grandchild: counts against a only
            span("other", 0, 100, None),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 40 - 10);
        assert_eq!(st[1], 20 - 6);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 30);
        assert_eq!(st[5], 100);
    }

    #[test]
    fn children_outside_the_parent_do_not_count() {
        let spans = vec![span("p", 50, 60, None), span("k", 0, 40, Some(0))];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn tracer_records_nested_and_off_thread_spans() {
        let t = Tracer::default();
        let outer = t.open("outer", None, 7);
        t.enter(Some(outer), 7);
        std::thread::scope(|s| {
            s.spawn(|| t.push_in_context("inner", 0, 3));
        });
        t.close(outer, 1);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 7);
        assert_eq!(totals(&spans, "inner").1, 3);
        assert!(spans[0].end >= spans[1].end);
    }
}

//! The benchmark's own spans.
//!
//! The traced run wraps each pipeline stage and each call into a layer's
//! public functions in a span: name, start, end, the span that caused it,
//! and a trace id shared by every span of one operation. Spans stay in
//! memory until the run ends and are then written to `trace.json`. The
//! program under test records nothing here — spans inside it are a later
//! change.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use deepthermo::telemetry::push_json_string;

/// One finished span. `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What a child needs to know about the span that caused it; `Copy` so
/// it can cross into rank and client threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRef {
    pub id: u64,
    pub trace: u64,
}

thread_local! {
    /// The innermost open span on this thread.
    static CURRENT: Cell<Option<SpanRef>> = const { Cell::new(None) };
}

/// In-memory span sink shared by every thread of a traced run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span under the innermost open span of this thread.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.open(CURRENT.with(Cell::get), name)
    }

    /// Open a span under `parent` — for threads started inside a span,
    /// whose own stack is empty.
    pub fn span_under(&self, parent: SpanRef, name: &str) -> SpanGuard<'_> {
        self.open(Some(parent), name)
    }

    fn open(&self, parent: Option<SpanRef>, name: &str) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let me = SpanRef {
            id,
            trace: parent.map_or(id, |p| p.trace),
        };
        let previous = CURRENT.with(|c| c.replace(Some(me)));
        SpanGuard {
            tracer: self,
            me,
            parent: parent.map_or(0, |p| p.id),
            previous,
            name: name.to_string(),
            start: Instant::now(),
        }
    }

    /// Record an already-measured interval (client request spans are
    /// timed in the generator's hot loop and filed afterwards).
    pub fn record(&self, parent: SpanRef, name: &str, start: Instant, end: Instant) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: parent.id,
            trace: id,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no thread panics while filing a span")
            .push(span);
    }

    /// Every span filed so far, in start order.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while filing a span")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// An open span; closes (and is filed) when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    me: SpanRef,
    parent: u64,
    previous: Option<SpanRef>,
    name: String,
    start: Instant,
}

impl SpanGuard<'_> {
    pub fn handle(&self) -> SpanRef {
        self.me
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        CURRENT.with(|c| c.set(self.previous));
        self.tracer.push(Span {
            id: self.me.id,
            parent: self.parent,
            trace: self.me.trace,
            name: std::mem::take(&mut self.name),
            start_ns: self.tracer.ns(self.start),
            end_ns: self.tracer.ns(end),
        });
    }
}

/// Self time per span id: the span's duration minus the part of its
/// interval that its child spans cover. Children may overlap each other
/// (rank threads under one cluster span), so the cover is the union of
/// their intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
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
            let mut cover = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.clamp(reach, s.end_ns);
                    let b = b.clamp(reach, s.end_ns);
                    cover += b - a;
                    reach = b.max(reach);
                }
            }
            (s.id, s.duration_ns().saturating_sub(cover))
        })
        .collect()
}

/// Share of span `root`'s interval covered by the union of the spans
/// `pick` selects — the attributed fraction of a traced operation.
pub fn cover_frac(spans: &[Span], root: u64, pick: impl Fn(&Span) -> bool) -> f64 {
    let Some(root) = spans.iter().find(|s| s.id == root) else {
        return 0.0;
    };
    let picked: Vec<Span> = spans
        .iter()
        .filter(|s| pick(s))
        .map(|s| Span {
            parent: root.id,
            ..s.clone()
        })
        .collect();
    let mut tree = vec![Span {
        parent: 0,
        ..root.clone()
    }];
    tree.extend(picked);
    let uncovered = self_times(&tree)[&root.id];
    1.0 - uncovered as f64 / root.duration_ns().max(1) as f64
}

/// Per-name totals: `(count, total ns, self ns)`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += selfs[&s.id];
    }
    out
}

/// Total duration of every span called `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum::<u64>() as f64
        / 1e9
}

/// Render `trace.json`: the per-name summary first (what a reader wants),
/// then at most `max_spans` individual spans with their self time.
pub fn to_json(header: &[(&str, String)], spans: &[Span], max_spans: usize) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{");
    for (k, v) in header {
        push_json_string(&mut out, k);
        out.push(':');
        out.push_str(v);
        out.push(',');
    }
    out.push_str("\"by_name\":{");
    for (i, (name, (count, total, self_ns))) in totals_by_name(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, name);
        out.push_str(&format!(
            ":{{\"count\":{count},\"total_us\":{:.3},\"self_us\":{:.3}}}",
            *total as f64 / 1e3,
            *self_ns as f64 / 1e3
        ));
    }
    out.push_str(&format!(
        "}},\"spans_recorded\":{},\"spans\":[",
        spans.len()
    ));
    for (i, s) in spans.iter().take(max_spans).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":",
            s.id, s.parent, s.trace
        ));
        push_json_string(&mut out, &s.name);
        out.push_str(&format!(
            ",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            selfs[&s.id] as f64 / 1e3
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two overlapping children cover [10, 50]; a third [70, 80].
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 1, 70, 80),
            // A grandchild only reduces its own parent.
            span(5, 2, 15, 25),
            // A child that overruns its parent is clipped to it.
            span(6, 4, 75, 95),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 30 - 10);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&4], 10 - 5);
        assert_eq!(selfs[&5], 10);
        // Spans 2..4 cover [10,50] and [70,80] of span 1, wherever they
        // hang in the tree.
        let frac = cover_frac(&spans, 1, |s| (2..=4).contains(&s.id));
        assert!((frac - 0.5).abs() < 1e-12, "{frac}");
        assert!((cover_frac(&spans, 1, |s| s.id == 5) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn guards_nest_and_cross_threads() {
        let tracer = Tracer::new();
        {
            let root = tracer.span("root");
            let handle = root.handle();
            {
                let _inner = tracer.span("inner");
            }
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _rank = tracer.span_under(handle, "rank");
                    let _leaf = tracer.span("leaf");
                });
            });
            let now = Instant::now();
            tracer.record(handle, "request", now, now);
        }
        let spans = tracer.snapshot();
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let root = by("root");
        assert_eq!(root.parent, 0);
        assert_eq!(by("inner").parent, root.id);
        assert_eq!(by("rank").parent, root.id);
        assert_eq!(by("leaf").parent, by("rank").id);
        assert_eq!(by("leaf").trace, root.id);
        assert_eq!(by("request").parent, root.id);
        // A filed request is its own operation.
        assert_eq!(by("request").trace, by("request").id);
        let json = to_json(&[("workload", "\"t\"".to_string())], &spans, 3);
        let v = deepthermo::telemetry::parse_json(&json).unwrap();
        assert_eq!(v.get("spans").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("spans_recorded").unwrap().as_u64(), Some(5));
        assert!(v.get("by_name").unwrap().get("leaf").is_some());
    }
}

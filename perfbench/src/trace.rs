//! In-memory span recording around calls into the program's public
//! layers, written out once as a Chrome/Perfetto trace.
//!
//! A span has a name (`layer.call`), a start and end on one monotonic
//! clock, the span that was open when it began (its parent), and the id
//! of the op or batch it served — spans of one op share that id. A
//! span's *self time* is its duration minus the part of its interval
//! its children cover; the root span of an op therefore keeps exactly
//! the time no timed layer accounts for (the "unattributed" remainder).
//!
//! A disabled tracer records nothing: every call is one branch.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `native.apply_batch`; the layer is the prefix.
    pub name: &'static str,
    /// The op or batch this span served.
    pub id: u64,
    /// Recording thread (trace row).
    pub tid: u32,
    /// Start, nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, nanoseconds since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The package's one wall-clock read: every timing starts here. The
/// benchmark measures host wall time by design.
pub fn now() -> Instant {
    // dynbc-lint: allow(no-wall-clock) — the benchmark times calls from outside; no model result reads it
    Instant::now()
}

/// Token for an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for thread row `tid`, timing against `origin` (share
    /// one origin across threads so their spans line up).
    pub fn new(on: bool, origin: Instant, tid: u32) -> Self {
        Self {
            on,
            origin,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// True when spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The clock origin (for tracers of other threads).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            tid: self.tid,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes `tok`, which must be the innermost open span.
    pub fn end(&mut self, tok: Open) {
        if let Some(idx) = tok.0 {
            assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let tok = self.begin(name, id);
        let r = f();
        self.end(tok);
        r
    }

    /// The recorded spans (every span closed).
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed span at trace end");
        self.spans
    }
}

/// Appends `more` to `spans`, re-basing its parent indices.
pub fn merge(spans: &mut Vec<Span>, more: Vec<Span>) {
    let base = spans.len();
    spans.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span, in nanoseconds: its duration minus the
/// union of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-call cost of recording one span on this host, in nanoseconds —
/// the tracing overhead each recorded span adds to a traced run.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 20_000;
    let mut t = Tracer::new(true, now(), 0);
    let root = t.begin("calibrate", 0);
    let start = now();
    for i in 0..N {
        let tok = t.begin("calibrate.leaf", i);
        t.end(tok);
    }
    let ns = start.elapsed().as_nanos() as f64;
    t.end(root);
    std::hint::black_box(t.into_spans());
    ns / N as f64
}

/// The spans as a Chrome trace-event JSON document (loads in Perfetto
/// and `chrome://tracing`): complete events with the layer as category
/// and the op id and parent name as arguments.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s
            .parent
            .map_or("null".to_string(), |p| format!("\"{}\"", spans[p].name));
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.layer(),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            parent
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            id: 7,
            tid: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a.x", 10, 40, Some(0)),
            // Overlaps a.x: the union, not the sum, is subtracted.
            span("b.y", 30, 50, Some(0)),
            // Reaches past the parent: clipped to it.
            span("c.z", 90, 120, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 40 - 10);
        assert_eq!(st[1], 30 - 8);
        assert_eq!(st[2], 20);
        assert_eq!(st[4], 8);
    }

    #[test]
    fn layers_plus_remainder_sum_to_the_root() {
        let spans = vec![
            span("op", 0, 1000, None),
            span("a.x", 100, 300, Some(0)),
            span("b.y", 300, 900, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st.iter().sum::<u64>(), spans[0].dur_ns());
    }

    #[test]
    fn tracer_nests_and_merges() {
        let origin = now();
        let mut t = Tracer::new(true, origin, 0);
        let root = t.begin("op", 1);
        let v = t.span("a.call", 1, || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        let mut spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer(), "a");

        let mut u = Tracer::new(true, origin, 1);
        let r = u.begin("read", 2);
        u.span("serve.read", 2, || ());
        u.end(r);
        merge(&mut spans, u.into_spans());
        assert_eq!(spans[3].parent, Some(2), "parent indices re-based");
        let json = chrome_json(&spans);
        assert!(json.contains("\"name\":\"serve.read\",\"cat\":\"serve\""));
        assert!(json.contains("\"parent\":\"read\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, now(), 0);
        let tok = t.begin("op", 0);
        t.span("a.call", 0, || ());
        t.end(tok);
        assert!(t.into_spans().is_empty());
    }
}

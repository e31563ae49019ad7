//! In-memory span recorder for the traced run.
//!
//! Spans carry a name, start, end, parent and run id. They stay in memory
//! while the benchmark runs and are written out once, at exit, as Chrome
//! trace-event JSON (opens offline in Perfetto or `chrome://tracing`).
//! A disabled recorder records nothing, so the untraced run pays one
//! branch per span site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub run: u32,
    pub parent: Option<SpanId>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Count, total and self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every span begun from now on with `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            run: self.run,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the innermost open span, which must be `id`; returns its
    /// duration in nanoseconds (0 when disabled).
    pub fn end(&mut self, id: Option<SpanId>) -> u64 {
        let Some(id) = id else { return 0 };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Adds a finished span with explicit times (spans measured elsewhere,
    /// possibly overlapping their siblings).
    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Self time of every span: its duration minus the part of it that
    /// the union of its children's intervals covers. Overlapping children
    /// are counted once, and a child reaching outside its parent counts
    /// only inside it.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, kids)| {
                let covered = covered_ns(span.start_ns, span.end_ns, kids);
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Per-name count, total and self time, sorted by name.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(span.name.clone()).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// The spans as Chrome trace-event JSON: one complete ("X") event per
    /// span, timestamps in microseconds, the run id as the process id, and
    /// the span's own id, parent and self time in `args`.
    pub fn chrome_json(&self) -> String {
        let self_times = self.self_times();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (id, (span, self_ns)) in self.spans.iter().zip(self_times).enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{},\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                span.name,
                layer_of(&span.name),
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.run,
                id,
                parent,
                self_ns as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// The layer a span name belongs to: its first dotted component, or the
/// first two for the multi-part layers (`core.*`, `fl.*`).
pub fn layer_of(name: &str) -> &str {
    let mut parts = name.splitn(3, '.');
    let first = parts.next().unwrap_or(name);
    match (first, parts.next()) {
        ("core" | "fl", Some(second)) => &name[..first.len() + 1 + second.len()],
        _ => first,
    }
}

/// Length of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            run: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut t = Tracer::new(true);
        let root = t.push(span("round", None, 0, 100));
        // Two children overlapping on [20, 30), plus a disjoint one.
        t.push(span("a", Some(root), 10, 30));
        t.push(span("b", Some(root), 20, 40));
        t.push(span("c", Some(root), 60, 70));
        // Children cover [10, 40) and [60, 70): 40 ns of 100.
        assert_eq!(t.self_times()[root], 60);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let mut t = Tracer::new(true);
        let root = t.push(span("round", None, 50, 100));
        t.push(span("early", Some(root), 0, 60));
        t.push(span("late", Some(root), 90, 130));
        t.push(span("inside", Some(root), 95, 99));
        // Covered inside [50, 100): [50, 60) and [90, 100) = 20 ns.
        assert_eq!(t.self_times()[root], 30);
    }

    #[test]
    fn grandchildren_count_only_against_their_parent() {
        let mut t = Tracer::new(true);
        let root = t.push(span("round", None, 0, 100));
        let child = t.push(span("child", Some(root), 0, 50));
        t.push(span("grandchild", Some(child), 10, 20));
        let selfs = t.self_times();
        assert_eq!(selfs[root], 50);
        assert_eq!(selfs[child], 40);
        let totals = t.totals();
        assert_eq!(totals["child"].count, 1);
        assert_eq!(totals["child"].self_ns, 40);
    }

    #[test]
    fn nested_begin_end_links_parents() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans()[1].parent, outer);
        assert_eq!(t.spans()[0].parent, None);
        let json = t.chrome_json();
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        assert_eq!(t.end(id), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn layer_names() {
        assert_eq!(layer_of("core.merging.plan_build"), "core.merging");
        assert_eq!(layer_of("fl.compress.encode"), "fl.compress");
        assert_eq!(layer_of("moe.batch_gradients"), "moe");
        assert_eq!(layer_of("quant"), "quant");
    }
}

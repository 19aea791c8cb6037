//! In-memory spans around the benchmark's calls into each layer, and the
//! self-time arithmetic the traced run reports.
//!
//! A span's name is `<layer>.<call>`; its layer is everything before the
//! first dot. A span's self time is its duration minus its children's
//! durations: the benchmark makes its layer calls one after another, so the
//! children of a span never overlap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The operation this span belongs to (`None` for set-up and probes).
    pub op: Option<u64>,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder. When disabled every method is a plain call-through, so
/// the untraced runs pay nothing but a branch.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, t0: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::default() }
    }

    /// Run `f` inside a span named `name`. `f` receives the new span's id
    /// (0 when tracing is off) to pass as the parent of nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        // ordering: Relaxed — a unique-id counter; it publishes no data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.t0.elapsed().as_secs_f64();
        let out = f(Some(id));
        let end = self.t0.elapsed().as_secs_f64();
        self.push(Span { id, parent, op, name, start, end });
        out
    }

    /// Record a span measured elsewhere (e.g. by the load generator).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        // ordering: Relaxed — a unique-id counter; it publishes no data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
        self.push(Span { id, parent, op, name, start: at(start), end: at(end) });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer lock poisoned by a panicking thread").push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock poisoned by a panicking thread").clone()
    }
}

/// Durations of the spans named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::duration).collect()
}

/// Self time of every span, by id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut own: BTreeMap<u64, f64> = spans.iter().map(|s| (s.id, s.duration())).collect();
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| own.get_mut(&p)) {
            *parent -= s.duration();
        }
    }
    own
}

/// Spans of an operation that are not reachable from that operation's root
/// span (named `root`) through parents of the same operation: spans whose
/// time would be missing from the operation's layers.
pub fn detached<'a>(spans: &'a [Span], root: &str) -> Vec<&'a Span> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let reaches_root = |mut s: &'a Span| loop {
        if s.name == root {
            return true;
        }
        match s.parent.and_then(|p| by_id.get(&p).copied()) {
            Some(parent) if parent.op == s.op => s = parent,
            _ => return false,
        }
    };
    spans.iter().filter(|s| s.op.is_some() && !reaches_root(s)).collect()
}

/// Self time summed per layer over the spans of operations (`op` set).
pub fn op_self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut by_layer = BTreeMap::new();
    for s in spans.iter().filter(|s| s.op.is_some()) {
        *by_layer.entry(s.layer()).or_insert(0.0) += own[&s.id];
    }
    by_layer
}

/// The spans as JSON lines, for the traced run's output file.
pub fn to_jsonl(spans: &[Span]) -> String {
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
            s.id,
            opt(s.parent),
            opt(s.op),
            s.name,
            s.start,
            s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span { id, parent, op: Some(1), name, start, end }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, None, "op.run", 0.0, 10.0),
            span(2, Some(1), "telco-sim.run", 1.0, 4.0),
            span(3, Some(1), "telco-analytics.sweep", 5.0, 9.0),
            span(4, Some(3), "telco-trace.decode", 5.0, 6.5),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 3.0);
        assert_eq!(own[&2], 3.0);
        assert_eq!(own[&3], 2.5);
        assert_eq!(own[&4], 1.5);
        // Self times of a tree add up to the root's duration.
        assert_eq!(own.values().sum::<f64>(), 10.0);
        let by_layer = op_self_time_by_layer(&spans);
        assert_eq!(by_layer["op"], 3.0);
        assert_eq!(by_layer["telco-analytics"], 2.5);
    }

    #[test]
    fn detached_spans_are_found() {
        let mut spans = vec![
            span(1, None, "op.run", 0.0, 10.0),
            span(2, Some(1), "a.x", 1.0, 4.0),
            span(3, Some(2), "a.y", 1.5, 2.0),
        ];
        assert!(detached(&spans, "op.run").is_empty());
        // No parent, a parent never recorded, a parent of another operation.
        spans.push(span(4, None, "a.z", 5.0, 6.0));
        spans.push(span(5, Some(99), "a.z", 6.0, 7.0));
        spans.push(Span { op: Some(2), ..span(6, Some(2), "a.z", 7.0, 8.0) });
        let ids: Vec<u64> = detached(&spans, "op.run").iter().map(|s| s.id).collect();
        assert_eq!(ids, [4, 5, 6]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("a.b", None, None, |id| id), None);
        assert!(tracer.spans().is_empty());
        let tracer = Tracer::new(true);
        let id = tracer.span("a.b", None, Some(7), |id| id);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((Some(spans[0].id), spans[0].op, spans[0].layer()), (id, Some(7), "a"));
    }
}

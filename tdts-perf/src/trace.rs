//! Spans recorded by the benchmark around its calls into the program.
//!
//! A traced run records one span per public call (name, start, end, parent
//! span, and the id of the pass or request it belongs to), keeps them in
//! memory and writes them out when the run ends. An untraced run uses the
//! same calls with recording switched off: the clock is still read, because
//! the end-to-end metrics come from the same timings.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tdts_bench::Json;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    /// Parent span id; 0 for a root span.
    pub parent: u64,
    /// Pass or request id shared by every span of that pass or request.
    pub trace: u64,
    pub name: &'static str,
    /// Method or other qualifier (`""` when none).
    pub label: &'static str,
    pub start: f64,
    pub end: f64,
}

impl SpanRecord {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The span sink of one run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds from the tracer's epoch to `t`.
    pub fn offset(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// A fresh id for a pass or request (also usable as a span id).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Open a span now. It is recorded when [`Span::end`] is called.
    pub fn span(
        &self,
        name: &'static str,
        label: &'static str,
        parent: u64,
        trace: u64,
    ) -> Span<'_> {
        let id = if self.enabled { self.next_id() } else { 0 };
        Span { tracer: self, id, parent, trace, name, label, start: Instant::now() }
    }

    /// Record a span over an interval measured elsewhere (a request's span
    /// starts when it was due, not when the generator got to it; its id is
    /// allocated up front so children can name it). No-op when off.
    pub fn record(&self, span: SpanRecord) {
        if self.enabled {
            self.push(span);
        }
    }

    fn push(&self, span: SpanRecord) {
        self.spans.lock().expect("span sink poisoned by a panicking load thread").push(span);
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans =
            self.spans.lock().expect("span sink poisoned by a panicking load thread").clone();
        spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));
        spans
    }
}

/// An open span; [`Span::end`] records it and returns its duration.
pub struct Span<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    label: &'static str,
    start: Instant,
}

impl Span<'_> {
    /// This span's id, for its children (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    pub fn end(self) -> Duration {
        let end = Instant::now();
        if self.tracer.enabled {
            self.tracer.push(SpanRecord {
                id: self.id,
                parent: self.parent,
                trace: self.trace,
                name: self.name,
                label: self.label,
                start: self.tracer.offset(self.start),
                end: self.tracer.offset(end),
            });
        }
        end - self.start
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children clipped to the parent, overlapping
/// children counted once). Returned in the order of `spans`.
pub fn self_times(spans: &[SpanRecord]) -> Vec<f64> {
    let mut children: std::collections::HashMap<u64, Vec<(f64, f64)>> =
        std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut cursor = s.start;
                for &(start, end) in kids.iter() {
                    let (lo, hi) = (start.max(cursor), end.min(s.end));
                    if hi > lo {
                        covered += hi - lo;
                        cursor = hi;
                    }
                }
            }
            (s.duration() - covered).max(0.0)
        })
        .collect()
}

/// Per span name and label: count, total time and total self time.
pub fn summarize(spans: &[SpanRecord]) -> Json {
    let selfs = self_times(spans);
    let mut rows: Vec<(String, u64, f64, f64)> = Vec::new();
    for (span, self_s) in spans.iter().zip(selfs) {
        let key = if span.label.is_empty() {
            span.name.to_string()
        } else {
            format!("{}/{}", span.name, span.label)
        };
        match rows.iter_mut().find(|r| r.0 == key) {
            Some(row) => {
                row.1 += 1;
                row.2 += span.duration();
                row.3 += self_s;
            }
            None => rows.push((key, 1, span.duration(), self_s)),
        }
    }
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    Json::Arr(
        rows.into_iter()
            .map(|(key, count, total, self_s)| {
                Json::obj()
                    .field("span", key)
                    .field("count", count)
                    .field("total_s", total)
                    .field("self_s", self_s)
            })
            .collect(),
    )
}

/// The spans as a JSON array, for the trace file.
pub fn spans_json(spans: &[SpanRecord]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj()
                    .field("id", s.id)
                    .field("parent", s.parent)
                    .field("trace", s.trace)
                    .field("name", s.name)
                    .field("label", s.label)
                    .field("start_s", s.start)
                    .field("end_s", s.end)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: f64, end: f64) -> SpanRecord {
        SpanRecord { id, parent, trace: 1, name: "s", label: "", start, end }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(1, 0, 0.0, 10.0),
            // Two overlapping children cover [1, 5] together.
            span(2, 1, 1.0, 4.0),
            span(3, 1, 2.0, 5.0),
            // A child running past its parent is clipped at 10.
            span(4, 1, 8.0, 12.0),
            // A grandchild does not reduce the root's self time again.
            span(5, 2, 1.5, 2.5),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 10.0 - 4.0 - 2.0);
        assert_eq!(selfs[1], 3.0 - 1.0);
        assert_eq!(selfs[2], 3.0);
        assert_eq!(selfs[3], 4.0);
        assert_eq!(selfs[4], 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let tracer = Tracer::new(false);
        let s = tracer.span("x", "", 0, 0);
        assert_eq!(s.id(), 0);
        let _ = s.end();
        assert!(tracer.spans().is_empty());
        let on = Tracer::new(true);
        let outer = on.span("outer", "", 0, 7);
        let inner = on.span("inner", "m", outer.id(), 7);
        let (inner_id, outer_id) = (inner.id(), outer.id());
        inner.end();
        outer.end();
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.id == inner_id).unwrap();
        assert_eq!((inner.parent, inner.trace, inner.label), (outer_id, 7, "m"));
    }
}

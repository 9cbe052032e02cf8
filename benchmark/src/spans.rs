//! Spans recorded by the benchmark around its own calls into each layer.
//! They stay in memory and are written out once, as a Chrome trace, when
//! the run ends. A disabled recorder records nothing, so untraced runs
//! pay one branch per span.

use bear_telemetry::ChromeTrace;
use std::time::{Duration, Instant};

/// Handle of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug)]
struct Span {
    name: String,
    parent: Option<SpanId>,
    start: Duration,
    end: Duration,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span named `name` under `parent`.
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start: now,
            end: now,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id`.
    pub fn end(&mut self, id: SpanId) {
        let now = self.origin.elapsed();
        if let Some(span) = self.spans.get_mut(id.0) {
            span.end = now;
        }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a Chrome trace: one complete event per span on a
    /// single track, each carrying its own and its parent's id (1-based;
    /// parent 0 = root).
    pub fn to_chrome(&self, process: &str) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        trace.name_process(1, process);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(0, |p| p.0 as u64 + 1);
            trace.complete(
                1,
                1,
                &s.name,
                s.start.as_micros() as u64,
                (s.end - s.start).as_micros() as u64,
                &[("span", i as u64 + 1), ("parent", parent)],
            );
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bear_bench::report::Json;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        let id = spans.begin("x", None);
        spans.end(id);
        assert_eq!(spans.len(), 0);
    }

    #[test]
    fn chrome_trace_reparses_with_parent_links() {
        let mut spans = Spans::new(true);
        let root = spans.begin("run", None);
        let child = spans.begin("rep \"1\"", Some(root));
        spans.end(child);
        spans.end(root);
        let doc = Json::parse(&spans.to_chrome("benchmark dev_grid").to_json()).expect("parses");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 3, "process name + two spans");
        let args = events[2].get("args").expect("args");
        assert_eq!(args.get("span").and_then(Json::as_u64), Some(2));
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(1));
    }
}

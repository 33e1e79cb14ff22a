//! Spans around the benchmark's calls into each layer.
//!
//! A span is `name, start_ns, end_ns, parent`; spans are held in memory
//! and written out once, when the traced run ends. A layer's *self*
//! time is its span's duration minus what its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// One recorded interval, in nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<call>`: the layer is the part before the dot.
    pub name: String,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, on the same clock.
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
}

/// Time a span name accounts for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus their children's.
    pub self_ns: u64,
}

/// The in-memory span recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `body` inside a span called `name`; spans opened by `body`
    /// become its children.
    pub fn span<T>(&mut self, name: &str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.nanos(Instant::now());
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = body(self);
        self.open.pop();
        self.spans[index].end_ns = self.nanos(Instant::now());
        out
    }

    /// Records an interval measured elsewhere (another thread) as a
    /// child of the currently open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        let span = Span {
            name: name.to_owned(),
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
    }

    /// Every span so far, in start order of opening.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name. Children recorded from
    /// another thread may overlap each other; their cover is capped at
    /// the parent's duration so self time never goes negative.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut child_cover = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_cover[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (span, cover) in self.spans.iter().zip(child_cover) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name.clone()).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(cover);
        }
        totals
    }

    /// The spans as a JSON array of `{id, name, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                json!({
                    "id": id,
                    "name": span.name,
                    "start_ns": span.start_ns,
                    "end_ns": span.end_ns,
                    "parent": span.parent,
                })
            })
            .collect();
        Value::Array(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut tracer = Tracer::new();
        tracer.span("core.run", |tracer| {
            std::thread::sleep(Duration::from_millis(2));
            tracer.span("netsim.step", |_| {
                std::thread::sleep(Duration::from_millis(3))
            });
            tracer.span("netsim.step", |_| {
                std::thread::sleep(Duration::from_millis(3))
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let totals = tracer.totals();
        let (run, step) = (totals["core.run"], totals["netsim.step"]);
        assert_eq!((run.count, step.count), (1, 2));
        assert_eq!(step.total_ns, step.self_ns);
        assert_eq!(run.self_ns, run.total_ns - step.total_ns);
        assert!(run.self_ns >= 2_000_000 && step.total_ns >= 6_000_000);
        assert!(!totals.contains_key("absent"));
    }

    #[test]
    fn recorded_intervals_hang_off_the_open_span_and_serialise() {
        let mut tracer = Tracer::new();
        let start = Instant::now();
        tracer.span("observe.run", |tracer| {
            tracer.record("observe.http_get", start, start + Duration::from_micros(5));
        });
        assert_eq!(tracer.spans()[1].parent, Some(0));
        let json = tracer.to_json();
        assert_eq!(json[1]["name"], json!("observe.http_get"));
        assert_eq!(json[1]["parent"], json!(0));
        assert_eq!(json[0]["parent"], Value::Null);
        let width = json[1]["end_ns"].as_u64().unwrap() - json[1]["start_ns"].as_u64().unwrap();
        assert_eq!(width, 5_000);
    }
}

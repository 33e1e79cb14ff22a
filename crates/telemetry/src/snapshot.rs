//! Frozen telemetry: order-insensitive merging and the two exporters.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use orscope_json::escape_into;

use crate::metric::{bucket_bounds, Histogram, BUCKET_COUNT};

/// Whether a metric is deterministic across shard layouts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// Per-flow deterministic: for a failure-free configuration the
    /// merged value is byte-identical across shard counts, so the metric
    /// joins the JSON-lines export.
    Global,
    /// Layout-dependent diagnostics (event counts, queue depths, pacer
    /// ticks): exported only in the Prometheus-style dump.
    Shard,
}

impl Scope {
    /// The label value used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Scope::Global => "global",
            Scope::Shard => "shard",
        }
    }
}

/// A recorded value with its scope: a `u64` for counters and gauges, a
/// boxed [`Histogram`] for histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricValue<T = u64> {
    /// Shard-invariance class.
    pub scope: Scope,
    /// The recorded value.
    pub value: T,
}

/// A frozen phase span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SpanSnapshot {
    /// Recordings merged in (one per shard for per-shard phases).
    pub count: u64,
    /// Maximum wall-clock duration in nanoseconds.
    pub wall_nanos: u64,
    /// Maximum SimNet virtual duration in nanoseconds.
    pub virt_nanos: u64,
}

impl SpanSnapshot {
    /// Merges `other` in: counts add, durations take the max (parallel
    /// shards overlap in wall time, so the sum would be meaningless).
    pub fn absorb(&mut self, other: &Self) {
        self.count += other.count;
        self.wall_nanos = self.wall_nanos.max(other.wall_nanos);
        self.virt_nanos = self.virt_nanos.max(other.virt_nanos);
    }
}

/// What a run recorded, frozen for merging and export: a layer's plain
/// books entered by name, in one place, once the numbers are final.
/// `BTreeMap` keys give both exporters a deterministic order.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Counters by name.
    pub counters: BTreeMap<String, MetricValue>,
    /// High-water gauges by name.
    pub gauges: BTreeMap<String, MetricValue>,
    /// Histograms by name. Boxed: a B-tree node reserves room for
    /// eleven values, and a [`Histogram`] is half a kilobyte.
    pub histograms: BTreeMap<String, MetricValue<Box<Histogram>>>,
    /// Phase spans by name.
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl TelemetrySnapshot {
    /// Merges `other` in, order-insensitively (mirroring
    /// `NetStats::absorb`): counters add, gauges keep the high-water
    /// mark, histograms and spans merge via their own `absorb`. A
    /// metric must carry the same scope on both sides.
    ///
    /// ```
    /// use orscope_telemetry::{MetricValue, Scope, TelemetrySnapshot};
    /// let shard = |value: u64| {
    ///     let mut snapshot = TelemetrySnapshot::default();
    ///     let metric = MetricValue { scope: Scope::Global, value };
    ///     snapshot.counters.insert("x".to_owned(), metric);
    ///     snapshot
    /// };
    /// let (a, b) = (shard(3), shard(4));
    /// let mut ab = a.clone();
    /// ab.absorb(&b);
    /// let mut ba = b.clone();
    /// ba.absorb(&a);
    /// assert_eq!(ab, ba);
    /// assert_eq!(ab.counters["x"].value, 7);
    /// ```
    pub fn absorb(&mut self, other: &TelemetrySnapshot) {
        for (name, theirs) in &other.counters {
            let mine = self.counters.entry(name.clone()).or_insert(MetricValue {
                scope: theirs.scope,
                value: 0,
            });
            debug_assert_eq!(mine.scope, theirs.scope, "scope mismatch for {name}");
            mine.value += theirs.value;
        }
        for (name, theirs) in &other.gauges {
            let mine = self.gauges.entry(name.clone()).or_insert(MetricValue {
                scope: theirs.scope,
                value: 0,
            });
            debug_assert_eq!(mine.scope, theirs.scope, "scope mismatch for {name}");
            mine.value = mine.value.max(theirs.value);
        }
        for (name, theirs) in &other.histograms {
            let mine = self.histograms.entry(name.clone()).or_insert(MetricValue {
                scope: theirs.scope,
                value: Box::default(),
            });
            debug_assert_eq!(mine.scope, theirs.scope, "scope mismatch for {name}");
            mine.value.absorb(&theirs.value);
        }
        for (name, theirs) in &other.spans {
            self.spans.entry(name.clone()).or_default().absorb(theirs);
        }
    }

    /// The JSON-lines export: one object per [`Scope::Global`] metric,
    /// in deterministic (sorted) order. Shard-scope diagnostics and
    /// spans are deliberately excluded — they are layout- or wall-clock-
    /// dependent, and this export is the surface the shard-invariance
    /// guarantee covers.
    pub fn to_jsonl(&self) -> String {
        self.to_jsonl_tagged(&[])
    }

    /// [`Self::to_jsonl`] with extra numeric fields prefixed onto every
    /// line (e.g. `("year", 2018)` when one file carries both scans).
    pub fn to_jsonl_tagged(&self, tags: &[(&str, u64)]) -> String {
        let mut out = String::new();
        // Every line opens the same way: the tags, the kind, the name
        // (metric names are plain ASCII, but escaping keeps the exporter
        // total).
        let mut tag_fragment = String::new();
        for (key, value) in tags {
            tag_fragment.push('"');
            escape_into(&mut tag_fragment, key);
            let _ = write!(tag_fragment, "\":{value},");
        }
        let open_line = |out: &mut String, kind: &str, name: &str| {
            let _ = write!(out, "{{{tag_fragment}\"kind\":\"{kind}\",\"name\":\"");
            escape_into(out, name);
            out.push('"');
        };
        for (name, metric) in &self.counters {
            if metric.scope != Scope::Global {
                continue;
            }
            open_line(&mut out, "counter", name);
            let _ = writeln!(out, ",\"value\":{}}}", metric.value);
        }
        for (name, metric) in &self.gauges {
            if metric.scope != Scope::Global {
                continue;
            }
            open_line(&mut out, "gauge", name);
            let _ = writeln!(out, ",\"value\":{}}}", metric.value);
        }
        for (name, metric) in &self.histograms {
            if metric.scope != Scope::Global {
                continue;
            }
            let histogram = &metric.value;
            let buckets: String = histogram
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, count)| **count > 0)
                .map(|(index, count)| {
                    let (low, high) = bucket_bounds(index);
                    format!("[{low},{high},{count}]")
                })
                .collect::<Vec<_>>()
                .join(",");
            open_line(&mut out, "histogram", name);
            let _ = writeln!(
                out,
                ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{buckets}]}}",
                histogram.count, histogram.sum, histogram.min, histogram.max,
            );
        }
        out
    }

    /// The Prometheus-style text dump: every metric of every scope plus
    /// the phase spans, with a `scope` label distinguishing global from
    /// per-shard diagnostics and `labels` added to every series.
    pub fn to_prometheus_labeled(&self, labels: &[(&str, &str)]) -> String {
        let extra: String = labels
            .iter()
            .map(|(key, value)| format!("{key}=\"{value}\","))
            .collect();
        let mut out = String::new();
        for (name, metric) in &self.counters {
            let prom = prom_name(name);
            let _ = writeln!(out, "# TYPE {prom} counter");
            let _ = writeln!(
                out,
                "{prom}{{{extra}scope=\"{}\"}} {}",
                metric.scope.as_str(),
                metric.value
            );
        }
        for (name, metric) in &self.gauges {
            let prom = prom_name(name);
            let _ = writeln!(out, "# TYPE {prom} gauge");
            let _ = writeln!(
                out,
                "{prom}{{{extra}scope=\"{}\"}} {}",
                metric.scope.as_str(),
                metric.value
            );
        }
        for (name, metric) in &self.histograms {
            let prom = prom_name(name);
            let scope = metric.scope.as_str();
            let histogram = &metric.value;
            let _ = writeln!(out, "# TYPE {prom} histogram");
            let mut cumulative = 0u64;
            for (index, count) in histogram.buckets.iter().enumerate() {
                if *count == 0 {
                    continue;
                }
                cumulative += count;
                let (_, high) = bucket_bounds(index);
                let le = if high == u64::MAX {
                    "+Inf".to_owned()
                } else {
                    high.to_string()
                };
                let _ = writeln!(
                    out,
                    "{prom}_bucket{{{extra}scope=\"{scope}\",le=\"{le}\"}} {cumulative}"
                );
            }
            if bucket_bounds(BUCKET_COUNT - 1).1 == u64::MAX
                && histogram.buckets[BUCKET_COUNT - 1] == 0
            {
                let _ = writeln!(
                    out,
                    "{prom}_bucket{{{extra}scope=\"{scope}\",le=\"+Inf\"}} {cumulative}"
                );
            }
            let _ = writeln!(
                out,
                "{prom}_sum{{{extra}scope=\"{scope}\"}} {}",
                histogram.sum
            );
            let _ = writeln!(
                out,
                "{prom}_count{{{extra}scope=\"{scope}\"}} {}",
                histogram.count
            );
        }
        for (name, span) in &self.spans {
            let prom = prom_name(name);
            let _ = writeln!(out, "# TYPE {prom}_wall_seconds gauge");
            let _ = writeln!(
                out,
                "{prom}_wall_seconds{{{extra}}} {}",
                span.wall_nanos as f64 / 1e9
            );
            let _ = writeln!(out, "# TYPE {prom}_virt_seconds gauge");
            let _ = writeln!(
                out,
                "{prom}_virt_seconds{{{extra}}} {}",
                span.virt_nanos as f64 / 1e9
            );
            let _ = writeln!(out, "# TYPE {prom}_count counter");
            let _ = writeln!(out, "{prom}_count{{{extra}}} {}", span.count);
        }
        out
    }
}

/// `name` as a Prometheus series name: `orscope_` prefix, with every
/// non-alphanumeric byte flattened to `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("orscope_");
    for ch in name.chars() {
        out.push(if ch.is_ascii_alphanumeric() { ch } else { '_' });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TelemetrySnapshot {
        /// The Prometheus-style text dump: every metric of every scope plus
        /// the phase spans, with a `scope` label distinguishing global from
        /// per-shard diagnostics.
        fn to_prometheus(&self) -> String {
            self.to_prometheus_labeled(&[])
        }
    }

    fn histogram(samples: &[u64]) -> MetricValue<Box<Histogram>> {
        MetricValue {
            scope: Scope::Global,
            value: Box::new(samples.iter().copied().collect()),
        }
    }

    fn sample() -> TelemetrySnapshot {
        let mut snapshot = TelemetrySnapshot::default();
        snapshot.counters.insert(
            "net.datagrams_sent".into(),
            MetricValue {
                scope: Scope::Global,
                value: 12,
            },
        );
        snapshot.counters.insert(
            "net.events_processed".into(),
            MetricValue {
                scope: Scope::Shard,
                value: 99,
            },
        );
        snapshot.gauges.insert(
            "net.event_queue_depth_hwm".into(),
            MetricValue {
                scope: Scope::Shard,
                value: 5,
            },
        );
        snapshot.histograms.insert(
            "prober.q1_r2_latency_ns".into(),
            histogram(&[3, 900, 900_000]),
        );
        snapshot.spans.insert(
            "phase.probe".into(),
            SpanSnapshot {
                count: 1,
                wall_nanos: 2_000_000,
                virt_nanos: 3_000_000_000,
            },
        );
        snapshot
    }

    #[test]
    fn jsonl_exports_only_global_scope() {
        let jsonl = sample().to_jsonl();
        assert!(jsonl.contains("net.datagrams_sent"));
        assert!(jsonl.contains("q1_r2_latency_ns"));
        assert!(!jsonl.contains("events_processed"), "shard scope leaked");
        assert!(!jsonl.contains("phase.probe"), "spans leaked into jsonl");
        for line in jsonl.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line {line}"
            );
        }
    }

    #[test]
    fn jsonl_tags_prefix_every_line() {
        let jsonl = sample().to_jsonl_tagged(&[("year", 2018)]);
        for line in jsonl.lines() {
            assert!(line.starts_with("{\"year\":2018,"), "untagged line {line}");
        }
    }

    #[test]
    fn prometheus_includes_shard_scope_and_spans() {
        let text = sample().to_prometheus();
        assert!(text.contains("orscope_net_events_processed{scope=\"shard\"} 99"));
        assert!(text.contains("orscope_net_datagrams_sent{scope=\"global\"} 12"));
        assert!(text.contains("orscope_phase_probe_virt_seconds{} 3"));
        assert!(text.contains("orscope_prober_q1_r2_latency_ns_count{scope=\"global\"} 3"));
        assert!(text.contains("le=\"+Inf\""));
    }

    #[test]
    fn absorb_is_commutative_on_mixed_snapshots() {
        let a = sample();
        let mut b = TelemetrySnapshot::default();
        b.counters.insert(
            "net.datagrams_sent".into(),
            MetricValue {
                scope: Scope::Global,
                value: 8,
            },
        );
        b.histograms
            .insert("prober.q1_r2_latency_ns".into(), histogram(&[1, u64::MAX]));
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters["net.datagrams_sent"].value, 20);
        let histogram = &ab.histograms["prober.q1_r2_latency_ns"].value;
        assert_eq!(histogram.count, 5);
        assert_eq!(histogram.min, 1);
        assert_eq!(histogram.max, u64::MAX);
    }

    #[test]
    fn gauges_absorb_by_max() {
        let mut a = TelemetrySnapshot::default();
        a.gauges.insert(
            "g".into(),
            MetricValue {
                scope: Scope::Shard,
                value: 3,
            },
        );
        let mut b = TelemetrySnapshot::default();
        b.gauges.insert(
            "g".into(),
            MetricValue {
                scope: Scope::Shard,
                value: 9,
            },
        );
        a.absorb(&b);
        assert_eq!(a.gauges["g"].value, 9);
    }

    #[test]
    fn spans_absorb_by_max() {
        let span = |count, wall_nanos, virt_nanos| SpanSnapshot {
            count,
            wall_nanos,
            virt_nanos,
        };
        let mut merged = span(1, 10, 100);
        merged.absorb(&span(1, 30, 40));
        assert_eq!(merged, span(2, 30, 100));
    }

    #[test]
    fn jsonl_lines_are_json_even_with_hostile_names() {
        let mut snapshot = sample();
        snapshot.counters.insert(
            "a\"b\\c\n\u{1}".into(),
            MetricValue {
                scope: Scope::Global,
                value: 1,
            },
        );
        let jsonl = snapshot.to_jsonl_tagged(&[("ye\"ar", 2018)]);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            r#"{"ye\"ar":2018,"kind":"counter","name":"a\"b\\c\n\u0001","value":1}"#
        );
        assert_eq!(
            lines[1],
            r#"{"ye\"ar":2018,"kind":"counter","name":"net.datagrams_sent","value":12}"#
        );
        assert!(lines[2].starts_with(
            r#"{"ye\"ar":2018,"kind":"histogram","name":"prober.q1_r2_latency_ns","count":3,"sum":900903,"min":3,"max":900000,"buckets":[["#
        ));
        for line in lines {
            let value = orscope_json::Wire::decode(line).expect("every line is a JSON object");
            assert_eq!(value["ye\"ar"], orscope_json::Wire::U64(2018));
        }
    }
}

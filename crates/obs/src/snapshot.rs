//! Point-in-time registry snapshots: deterministic "counts" vs
//! timing-class data, JSON export, flamegraph collapsed stacks.

use crate::hist::Hist;
use std::fmt::Write as _;

/// One aggregated span path.
///
/// `path` is the `;`-joined chain of open span names on the recording
/// thread (innermost last), e.g. `sweep.point;core.cs_cq.analyze`.
/// `count` is deterministic; `total_ns` is wall-clock and therefore
/// timing-class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEntry {
    /// `;`-joined span path, innermost name last.
    pub path: String,
    /// Times a span closed at this path (deterministic).
    pub count: u64,
    /// Total monotonic nanoseconds spent in spans at this path
    /// (timing-class: excluded from determinism checks).
    pub total_ns: u64,
}

/// An immutable snapshot of every metric the registry has aggregated.
///
/// The **deterministic subset** — counters, histogram contents, span
/// *counts* — is exactly what [`ObsSnapshot::counts_json`] serializes and
/// what sweep reports embed; it is bit-identical across thread counts and
/// input order. Gauges and all `*_ns` fields are **timing-class** and are
/// excluded from that subset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsSnapshot {
    /// Monotonic event counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Max-merged gauges, sorted by name (timing-class: high-water marks
    /// depend on scheduling).
    pub gauges: Vec<(String, u64)>,
    /// Fixed-bucket histograms, sorted by name.
    pub histograms: Vec<(String, Hist)>,
    /// Aggregated spans, sorted by path.
    pub spans: Vec<SpanEntry>,
}

/// Escapes `s` as a JSON string literal body (same dialect as the sweep
/// report writer).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn hist_json(h: &Hist) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"count\":{},\"sum\":{},\"overflow\":{},\"nan_rejected\":{},\"buckets\":{{",
        h.count, h.sum, h.overflow, h.nan_rejected
    );
    let mut first = true;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n > 0 {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "\"{i}\":{n}");
        }
    }
    // Inclusive upper bound of each emitted bucket, so consumers (and
    // the Prometheus renderer) never hard-code the bit-length ladder.
    s.push_str("},\"le\":{");
    let mut first = true;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n > 0 {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "\"{i}\":{}", Hist::bucket_bounds(i).1);
        }
    }
    s.push_str("}}");
    s
}

impl ObsSnapshot {
    /// `true` when nothing at all has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// The value of counter `name`, or `0` when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The histogram `name`, if any values were recorded under it.
    pub fn histogram(&self, name: &str) -> Option<&Hist> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// The close-count of spans at `path`, or `0` when absent.
    pub fn span_count(&self, path: &str) -> u64 {
        self.spans
            .iter()
            .find(|e| e.path == path)
            .map_or(0, |e| e.count)
    }

    /// Counters whose names start with `prefix`, in sorted order.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .iter()
            .filter(move |(n, _)| n.starts_with(prefix))
            .map(|(n, v)| (n.as_str(), *v))
    }

    /// The difference `self - before` for two cumulative snapshots of the
    /// same registry: counters/histograms/span-counts subtract
    /// (saturating) and entries that go to zero are dropped; gauges keep
    /// `self`'s value because a high-water mark has no meaningful
    /// difference.
    pub fn delta_since(&self, before: &ObsSnapshot) -> ObsSnapshot {
        let mut out = ObsSnapshot::default();
        for (name, v) in &self.counters {
            let d = v.saturating_sub(before.counter(name));
            if d > 0 {
                out.counters.push((name.clone(), d));
            }
        }
        out.gauges = self.gauges.clone();
        for (name, h) in &self.histograms {
            let d = match before.histogram(name) {
                Some(b) => h.delta_since(b),
                None => h.clone(),
            };
            if !d.is_empty() {
                out.histograms.push((name.clone(), d));
            }
        }
        for e in &self.spans {
            let (bc, bns) = before
                .spans
                .iter()
                .find(|b| b.path == e.path)
                .map_or((0, 0), |b| (b.count, b.total_ns));
            let count = e.count.saturating_sub(bc);
            let total_ns = e.total_ns.saturating_sub(bns);
            if count > 0 || total_ns > 0 {
                out.spans.push(SpanEntry {
                    path: e.path.clone(),
                    count,
                    total_ns,
                });
            }
        }
        out
    }

    /// A copy restricted to the deterministic subset: gauges dropped,
    /// span timings zeroed, counters and histograms kept. Two runs of the
    /// same work agree on `counts_only()` regardless of thread count.
    pub fn counts_only(&self) -> ObsSnapshot {
        ObsSnapshot {
            counters: self.counters.clone(),
            gauges: Vec::new(),
            histograms: self.histograms.clone(),
            spans: self
                .spans
                .iter()
                .map(|e| SpanEntry {
                    path: e.path.clone(),
                    count: e.count,
                    total_ns: 0,
                })
                .collect(),
        }
    }

    /// Compact single-line JSON of the deterministic subset only
    /// (counters, histogram contents, span counts). This is the section
    /// sweep reports embed, so report bit-identity extends to telemetry.
    pub fn counts_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{}", json_str(name), v);
        }
        s.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{}", json_str(name), hist_json(h));
        }
        s.push_str("},\"span_counts\":{");
        for (i, e) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{}", json_str(&e.path), e.count);
        }
        s.push_str("}}");
        s
    }

    /// Full pretty-printed JSON document (deterministic subset *and*
    /// timing-class data) in the workspace's hand-rolled style.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"harness\": \"cyclesteal-xtest\",\n  \"version\": 1,\n  \"kind\": \"obs\",\n");
        s.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(s, "    {}: {}", json_str(name), v);
        }
        s.push_str(if self.counters.is_empty() { "},\n" } else { "\n  },\n" });
        s.push_str("  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(s, "    {}: {}", json_str(name), v);
        }
        s.push_str(if self.gauges.is_empty() { "},\n" } else { "\n  },\n" });
        s.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(s, "    {}: {}", json_str(name), hist_json(h));
        }
        s.push_str(if self.histograms.is_empty() { "},\n" } else { "\n  },\n" });
        s.push_str("  \"spans\": [");
        for (i, e) in self.spans.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "    {{\"path\": {}, \"count\": {}, \"total_ns\": {}}}",
                json_str(&e.path),
                e.count,
                e.total_ns
            );
        }
        s.push_str(if self.spans.is_empty() { "]\n}\n" } else { "\n  ]\n}\n" });
        s
    }

    /// Compact single-line JSON of a **request trace**: counters, span
    /// count/total_ns pairs, and histograms. Embedded verbatim in the
    /// daemon's slow-query log, so it must stay one line.
    pub fn trace_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{}", json_str(name), v);
        }
        s.push_str("},\"spans\":{");
        for (i, e) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{}:{{\"count\":{},\"total_ns\":{}}}",
                json_str(&e.path),
                e.count,
                e.total_ns
            );
        }
        s.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{}", json_str(name), hist_json(h));
        }
        s.push_str("}}");
        s
    }

    /// Flamegraph "collapsed stack" text: one `path total_ns` line per
    /// span path, sorted by path. Feed directly to `flamegraph.pl` or any
    /// compatible renderer (the weight is nanoseconds).
    pub fn collapsed_stacks(&self) -> String {
        let mut s = String::new();
        for e in &self.spans {
            let _ = writeln!(s, "{} {}", e.path, e.total_ns);
        }
        s
    }

    /// A human-readable per-stage summary: spans sorted by total time
    /// (descending), then counters and gauges. This is what
    /// `examples/sweep.rs --obs` prints.
    pub fn summary_table(&self) -> String {
        let mut s = String::new();
        if !self.spans.is_empty() {
            let _ = writeln!(s, "{:<52} {:>10} {:>12} {:>10}", "span path", "count", "total ms", "mean us");
            let mut spans: Vec<&SpanEntry> = self.spans.iter().collect();
            spans.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.path.cmp(&b.path)));
            for e in spans {
                let total_ms = e.total_ns as f64 / 1e6;
                let mean_us = if e.count > 0 {
                    e.total_ns as f64 / e.count as f64 / 1e3
                } else {
                    0.0
                };
                let _ = writeln!(
                    s,
                    "{:<52} {:>10} {:>12.3} {:>10.2}",
                    e.path, e.count, total_ms, mean_us
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(s, "{:<52} {:>10}", "counter", "value");
            for (name, v) in &self.counters {
                let _ = writeln!(s, "{name:<52} {v:>10}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(s, "{:<52} {:>10} {:>12}", "histogram", "count", "mean");
            for (name, h) in &self.histograms {
                let mean = if h.count > 0 {
                    h.sum as f64 / h.count as f64
                } else {
                    0.0
                };
                let _ = writeln!(s, "{name:<52} {:>10} {mean:>12.2}", h.count);
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(s, "{:<52} {:>10}", "gauge (timing-class)", "value");
            for (name, v) in &self.gauges {
                let _ = writeln!(s, "{name:<52} {v:>10}");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObsSnapshot {
        let mut h = Hist::new();
        h.record(3);
        h.record(300);
        ObsSnapshot {
            counters: vec![("a.hits".into(), 7), ("b.miss".into(), 2)],
            gauges: vec![("pool.hwm".into(), 9)],
            histograms: vec![("iters".into(), h)],
            spans: vec![
                SpanEntry {
                    path: "root".into(),
                    count: 1,
                    total_ns: 1000,
                },
                SpanEntry {
                    path: "root;leaf".into(),
                    count: 4,
                    total_ns: 400,
                },
            ],
        }
    }

    #[test]
    fn counts_json_excludes_timings_and_gauges() {
        let j = sample().counts_json();
        assert!(j.contains("\"a.hits\":7"), "{j}");
        assert!(j.contains("\"root;leaf\":4"), "{j}");
        assert!(j.contains("\"iters\":{\"count\":2,\"sum\":303"), "{j}");
        assert!(!j.contains("total_ns"), "no timings in counts: {j}");
        assert!(!j.contains("pool.hwm"), "no gauges in counts: {j}");
    }

    #[test]
    fn counts_only_masks_exactly_the_timing_class() {
        let c = sample().counts_only();
        assert!(c.gauges.is_empty());
        assert!(c.spans.iter().all(|e| e.total_ns == 0));
        assert_eq!(c.counter("a.hits"), 7);
        assert_eq!(c.span_count("root;leaf"), 4);
        // counts_json is invariant under the mask: it never read timings.
        assert_eq!(c.counts_json(), sample().counts_json());
    }

    #[test]
    fn full_json_includes_everything() {
        let j = sample().to_json();
        assert!(j.contains("\"kind\": \"obs\""));
        assert!(j.contains("\"pool.hwm\": 9"));
        assert!(j.contains("\"total_ns\": 1000"));
        assert!(j.contains("\"buckets\":{\"2\":1,\"9\":1}"), "{j}");
    }

    #[test]
    fn collapsed_stack_lines() {
        let c = sample().collapsed_stacks();
        assert_eq!(c, "root 1000\nroot;leaf 400\n");
    }

    #[test]
    fn delta_drops_unchanged_entries_and_keeps_new_ones() {
        let before = sample();
        let mut after = sample();
        after.counters[0].1 = 10; // a.hits 7 -> 10
        after.counters.push(("c.new".into(), 5));
        after.counters.sort();
        after.spans[1].count = 6;
        after.spans[1].total_ns = 900;
        let d = after.delta_since(&before);
        assert_eq!(d.counter("a.hits"), 3);
        assert_eq!(d.counter("b.miss"), 0, "unchanged counter dropped");
        assert!(!d.counters.iter().any(|(n, _)| n == "b.miss"));
        assert_eq!(d.counter("c.new"), 5);
        assert!(d.histograms.is_empty(), "unchanged histogram dropped");
        assert_eq!(d.span_count("root;leaf"), 2);
        assert_eq!(d.gauges, after.gauges, "gauges pass through");
    }

    #[test]
    fn hist_json_pairs_every_bucket_with_its_upper_bound() {
        let j = sample().counts_json();
        // Values 3 and 300 land in buckets 2 and 9 whose inclusive upper
        // bounds are 3 and 511.
        assert!(j.contains("\"buckets\":{\"2\":1,\"9\":1},\"le\":{\"2\":3,\"9\":511}"), "{j}");
    }

    #[test]
    fn trace_json_is_single_line_and_complete() {
        let t = sample().trace_json();
        assert!(!t.contains('\n'));
        assert!(t.contains("\"a.hits\":7"), "{t}");
        assert!(t.contains("\"root;leaf\":{\"count\":4,\"total_ns\":400}"), "{t}");
        assert!(t.contains("\"iters\":{\"count\":2"), "{t}");
    }

    #[test]
    fn empty_snapshot_serializes_cleanly() {
        let e = ObsSnapshot::default();
        assert!(e.is_empty());
        assert_eq!(
            e.counts_json(),
            "{\"counters\":{},\"histograms\":{},\"span_counts\":{}}"
        );
        assert!(e.to_json().contains("\"counters\": {}"));
    }
}

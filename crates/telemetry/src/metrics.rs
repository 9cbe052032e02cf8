//! Dependency-free metrics registry: labelled atomic counters, gauges,
//! and fixed-bucket histograms, plus the correlation/trace ID that ties a
//! job's log lines together.
//!
//! The registry is the live side of the observability stack: handles are
//! cheap `Arc`'d atomics that hot paths update lock-free, while the
//! registry itself (a `BTreeMap` behind a mutex) is only locked on
//! metric *creation* and on snapshot. Two encoders read it:
//!
//! - [`Registry::to_json`] — a stable (sorted by name, then labels) JSON
//!   document, the machine-readable dump written by `--metrics-out` and
//!   served by the daemon's `{"op":"metrics"}` request;
//! - [`Registry::exposition`] — Prometheus-style text exposition
//!   (`# HELP` / `# TYPE` comments, `name{label="v"} value` samples,
//!   cumulative `_bucket`/`_sum`/`_count` histogram series).
//!
//! Everything here is observability-only: nothing in the simulator's
//! deterministic outputs may depend on registry contents.

use crate::{escape_json, json_num};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (stored as `f64` bits).
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Finite upper bounds, ascending. An implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// One cell per bound plus the `+Inf` overflow cell.
    buckets: Vec<AtomicU64>,
    /// Sum of observed values, as `f64` bits (CAS-updated).
    sum_bits: AtomicU64,
}

/// A histogram with fixed upper-bound buckets chosen at creation.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .core
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.core.bounds.len());
        self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.core.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// Registry key: metric name plus its label set, sorted by label key so
/// equal label sets written in different orders land on one series.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    slots: BTreeMap<MetricKey, Slot>,
    help: BTreeMap<String, String>,
}

/// A shared, thread-safe registry of named metrics.
///
/// Cloning is cheap (an `Arc`); all clones see the same metrics.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned registry only ever holds observability data; keep
        // serving it rather than cascading the panic.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns (creating on first use) the counter `name{labels}`.
    ///
    /// # Panics
    ///
    /// If the same (name, labels) series was already registered as a
    /// different metric kind — a programming error.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        let mut inner = self.lock();
        let slot = inner.slots.entry(key).or_insert_with(|| {
            Slot::Counter(Counter {
                cell: Arc::new(AtomicU64::new(0)),
            })
        });
        match slot {
            Slot::Counter(c) => c.clone(),
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Returns (creating on first use, initially `0.0`) the gauge
    /// `name{labels}`.
    ///
    /// # Panics
    ///
    /// If the series exists with a different kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        let mut inner = self.lock();
        let slot = inner.slots.entry(key).or_insert_with(|| {
            Slot::Gauge(Gauge {
                bits: Arc::new(AtomicU64::new(0f64.to_bits())),
            })
        });
        match slot {
            Slot::Gauge(g) => g.clone(),
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Returns (creating on first use) the histogram `name{labels}` with
    /// the given finite upper `bounds` (ascending; an `+Inf` overflow
    /// bucket is implicit). Bounds are fixed at creation; later calls
    /// return the existing series and ignore `bounds`.
    ///
    /// # Panics
    ///
    /// If `bounds` is empty or not strictly ascending, or the series
    /// exists with a different kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram {name} needs >= 1 bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name} bounds must be strictly ascending"
        );
        let key = MetricKey::new(name, labels);
        let mut inner = self.lock();
        let slot = inner.slots.entry(key).or_insert_with(|| {
            Slot::Histogram(Histogram {
                core: Arc::new(HistogramCore {
                    bounds: bounds.to_vec(),
                    buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                    sum_bits: AtomicU64::new(0f64.to_bits()),
                }),
            })
        });
        match slot {
            Slot::Histogram(h) => h.clone(),
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Attaches a `# HELP` line to every series named `name`.
    pub fn set_help(&self, name: &str, help: &str) {
        self.lock().help.insert(name.to_string(), help.to_string());
    }

    /// Whether no series has been registered.
    pub fn is_empty(&self) -> bool {
        self.lock().slots.is_empty()
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.lock().slots.len()
    }

    /// Stable JSON dump: `{"metrics":[...]}` with entries sorted by name
    /// then labels. Counter values are exact integers; gauges and
    /// histogram sums use the shortest round-trip `f64` rendering;
    /// histogram buckets carry per-bucket (non-cumulative) counts with
    /// the overflow bucket's `le` serialized as the string `"+Inf"`.
    pub fn to_json(&self) -> String {
        let inner = self.lock();
        let mut out = String::from("{\"metrics\":[");
        for (i, (key, slot)) in inner.slots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":\"");
            out.push_str(&escape_json(&key.name));
            out.push_str("\",\"kind\":\"");
            out.push_str(slot.kind());
            out.push_str("\",\"labels\":{");
            for (j, (k, v)) in key.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&escape_json(k));
                out.push_str("\":\"");
                out.push_str(&escape_json(v));
                out.push('"');
            }
            out.push('}');
            match slot {
                Slot::Counter(c) => {
                    out.push_str(",\"value\":");
                    out.push_str(&c.get().to_string());
                }
                Slot::Gauge(g) => {
                    out.push_str(",\"value\":");
                    out.push_str(&json_num(g.get()));
                }
                Slot::Histogram(h) => {
                    out.push_str(",\"count\":");
                    out.push_str(&h.count().to_string());
                    out.push_str(",\"sum\":");
                    out.push_str(&json_num(h.sum()));
                    out.push_str(",\"buckets\":[");
                    for (j, bucket) in h.core.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str("{\"le\":");
                        match h.core.bounds.get(j) {
                            Some(b) => out.push_str(&json_num(*b)),
                            None => out.push_str("\"+Inf\""),
                        }
                        out.push_str(",\"count\":");
                        out.push_str(&bucket.load(Ordering::Relaxed).to_string());
                        out.push('}');
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Prometheus-style text exposition. `# HELP` / `# TYPE` are emitted
    /// once per metric name; histogram buckets are cumulative and end in
    /// `le="+Inf"`, followed by `_sum` and `_count` series.
    pub fn exposition(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        let mut announced: Option<&str> = None;
        for (key, slot) in inner.slots.iter() {
            if announced != Some(key.name.as_str()) {
                if let Some(help) = inner.help.get(&key.name) {
                    out.push_str(&format!(
                        "# HELP {} {}\n",
                        key.name,
                        help.replace('\\', "\\\\").replace('\n', "\\n")
                    ));
                }
                out.push_str(&format!("# TYPE {} {}\n", key.name, slot.kind()));
                announced = Some(key.name.as_str());
            }
            match slot {
                Slot::Counter(c) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        key.name,
                        render_labels(&key.labels, None),
                        c.get()
                    ));
                }
                Slot::Gauge(g) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        key.name,
                        render_labels(&key.labels, None),
                        json_num(g.get())
                    ));
                }
                Slot::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (j, bucket) in h.core.buckets.iter().enumerate() {
                        cumulative += bucket.load(Ordering::Relaxed);
                        let le = match h.core.bounds.get(j) {
                            Some(b) => json_num(*b),
                            None => "+Inf".to_string(),
                        };
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            key.name,
                            render_labels(&key.labels, Some(&le)),
                            cumulative
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        key.name,
                        render_labels(&key.labels, None),
                        json_num(h.sum())
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        key.name,
                        render_labels(&key.labels, None),
                        cumulative
                    ));
                }
            }
        }
        out
    }
}

/// Renders `{k="v",...}` (empty string for no labels), appending an
/// `le` label when given (histogram bucket lines).
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{}\"", escape_label(le)));
    }
    format!("{{{}}}", parts.join(","))
}

/// Prometheus label-value escaping: backslash, double quote, newline.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// A 64-bit correlation/trace ID, rendered as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Derives a stable ID from a name (FNV-1a, the same hash the
    /// campaign uses for cell/job keys — a job's trace ID equals the
    /// hash of its canonical spec line, so retries and resumed runs
    /// share one trace).
    pub fn from_name(name: &str) -> TraceId {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TraceId(h)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_one_cell() {
        let reg = Registry::new();
        let a = reg.counter("jobs_total", &[("client", "alice")]);
        let b = reg.counter("jobs_total", &[("client", "alice")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let reg = Registry::new();
        let a = reg.counter("x", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("x", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x", &[]);
        reg.gauge("x", &[]);
    }

    #[test]
    fn gauge_round_trips_f64() {
        let reg = Registry::new();
        let g = reg.gauge("depth", &[]);
        g.set(3.25);
        assert_eq!(g.get(), 3.25);
        g.set(-1.0);
        assert_eq!(g.get(), -1.0);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let reg = Registry::new();
        let h = reg.histogram("lat_ms", &[], &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 55.5);
        let text = reg.exposition();
        assert!(text.contains("# TYPE lat_ms histogram"));
        assert!(text.contains("lat_ms_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_ms_bucket{le=\"10\"} 2"));
        assert!(text.contains("lat_ms_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_ms_sum 55.5"));
        assert!(text.contains("lat_ms_count 3"));
    }

    #[test]
    fn json_dump_is_stable_and_balanced() {
        let reg = Registry::new();
        reg.counter("b_total", &[("k", "v")]).inc();
        reg.gauge("a_gauge", &[]).set(1.5);
        reg.histogram("c_hist", &[], &[2.0]).observe(1.0);
        let dump = reg.to_json();
        assert_eq!(dump, reg.to_json(), "dump must be deterministic");
        assert_eq!(dump.matches('{').count(), dump.matches('}').count());
        assert_eq!(dump.matches('[').count(), dump.matches(']').count());
        // BTreeMap order: a_gauge before b_total before c_hist.
        let a = dump.find("a_gauge").unwrap();
        let b = dump.find("b_total").unwrap();
        let c = dump.find("c_hist").unwrap();
        assert!(a < b && b < c);
        assert!(dump.contains("\"le\":\"+Inf\""));
    }

    #[test]
    fn exposition_emits_type_once_and_help() {
        let reg = Registry::new();
        reg.set_help("jobs_total", "Jobs admitted per client");
        reg.counter("jobs_total", &[("client", "alice")]).inc();
        reg.counter("jobs_total", &[("client", "bob")]).add(2);
        let text = reg.exposition();
        assert_eq!(text.matches("# TYPE jobs_total counter").count(), 1);
        assert_eq!(text.matches("# HELP jobs_total").count(), 1);
        assert!(text.contains("jobs_total{client=\"alice\"} 1"));
        assert!(text.contains("jobs_total{client=\"bob\"} 2"));
    }

    #[test]
    fn trace_ids_are_stable_hex() {
        let a = TraceId::from_name("fig07|Alloy|mcf");
        let b = TraceId::from_name("fig07|Alloy|mcf");
        assert_eq!(a, b);
        let s = a.to_string();
        assert_eq!(s.len(), 16);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, TraceId::from_name("fig07|Alloy|lbm"));
    }
}

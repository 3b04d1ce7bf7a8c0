//! Dependency-free prometheus-style metrics for the Choreo service.
//!
//! A long-running placement service needs to be observable without
//! pulling a metrics framework into a registry-less build: this crate is
//! the minimal shape of `prometheus_client` (the queueing-party exemplar
//! in SNIPPETS.md) — a [`Registry`] of named metrics with three
//! instrument kinds and the standard text exposition format:
//!
//! * [`Counter`] — a monotone `u64` (admissions, rejections, events);
//! * [`Gauge`] — a settable `f64` (queue depth, SLO attainment);
//! * [`Histogram`] — fixed upper-bound buckets with cumulative counts,
//!   sum and count (placement latency).
//!
//! A labeled metric is a fixed set of gauges:
//! [`Registry::labeled_gauges`] registers one gauge per value of a
//! single label, all known at construction, so every series is exported
//! from the start and an update indexes a `Vec` instead of looking a
//! label up.
//!
//! Every instrument is a cheap [`Arc`]-backed handle: the service loop
//! keeps typed handles on its hot path and the registry keeps clones for
//! rendering, so recording a sample is one or two atomic operations and
//! never takes a lock. [`Registry::render`] produces the prometheus text
//! format (`# HELP` / `# TYPE` / samples, histograms with `le` buckets
//! and `+Inf`), suitable for a `/metrics` endpoint byte-for-byte.
//!
//! Phase timing and conformance live in the companion modules: [`span`]
//! adds the hot-path stopwatch API (no-op until a recorder is
//! installed), and [`parse`] re-parses the exposition for conformance
//! testing.
//!
//! Metrics are **observational only**: nothing in the deterministic
//! service trajectory reads them back, so wall-clock-derived samples
//! (latency histograms, spans) never perturb a simulated run's trace
//! digest.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub mod parse;
pub mod span;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A detached counter (not yet registered anywhere).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn inc_by(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable floating-point gauge (stored as `f64` bits).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// A detached gauge at `0.0`.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A histogram over fixed bucket upper bounds (an implicit `+Inf` bucket
/// catches the tail). Buckets store *per-bucket* counts; rendering emits
/// the prometheus-style cumulative form.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
struct HistogramInner {
    /// Ascending finite upper bounds.
    bounds: Vec<f64>,
    /// Per-bucket counts; `buckets[bounds.len()]` is the `+Inf` bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations, `f64` bits updated by CAS.
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Histogram over the given ascending finite upper bounds.
    pub fn new(bounds: Vec<f64>) -> Histogram {
        assert!(!bounds.is_empty(), "a histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "bucket bounds must be finite and strictly ascending"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds,
                buckets,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let i = self.inner.bounds.partition_point(|&b| b < v);
        self.inner.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        let mut old = self.inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(old) + v).to_bits();
            match self.inner.sum_bits.compare_exchange_weak(
                old,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(cur) => old = cur,
            }
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed))
    }

    /// Append this histogram's cumulative prometheus sample lines.
    fn render_samples(&self, name: &str, out: &mut String) {
        let mut cumulative = 0u64;
        for (i, bound) in self.inner.bounds.iter().enumerate() {
            cumulative += self.inner.buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!("{name}_bucket{{le=\"{}\"}} {cumulative}\n", fmt_f64(*bound)));
        }
        cumulative += self.inner.buckets[self.inner.bounds.len()].load(Ordering::Relaxed);
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!("{name}_sum {}\n", fmt_f64(self.sum())));
        out.push_str(&format!("{name}_count {}\n", self.count()));
    }
}

/// `count` histogram bounds growing geometrically from `start`, each the
/// previous one times `factor` (the usual latency-bucket shape).
pub fn geometric_bounds(start: f64, factor: f64, count: usize) -> Vec<f64> {
    let mut bounds = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        bounds.push(b);
        b *= factor;
    }
    bounds
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    /// One gauge per label value, each with its sample-line prefix
    /// (`name{label="value"}`) rendered once at registration.
    LabeledGauges(Vec<(String, Gauge)>),
}

struct Entry {
    name: String,
    help: String,
    instrument: Instrument,
}

/// A set of named metrics rendered together. Registration order is
/// exposition order; names must be unique.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn push(&self, name: &str, help: &str, instrument: Instrument) {
        let mut entries = self.entries.lock().expect("registry poisoned");
        assert!(entries.iter().all(|e| e.name != name), "metric {name:?} registered twice");
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') && !name.is_empty(),
            "metric name {name:?} must be [a-zA-Z0-9_]+"
        );
        entries.push(Entry { name: name.into(), help: help.into(), instrument });
    }

    /// Register and return a new counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let c = Counter::new();
        self.push(name, help, Instrument::Counter(c.clone()));
        c
    }

    /// Register and return a new gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let g = Gauge::new();
        self.push(name, help, Instrument::Gauge(g.clone()));
        g
    }

    /// Register and return a new histogram over `bounds`.
    pub fn histogram(&self, name: &str, help: &str, bounds: Vec<f64>) -> Histogram {
        let h = Histogram::new(bounds);
        self.push(name, help, Instrument::Histogram(h.clone()));
        h
    }

    /// Register one gauge per label value, rendered as the series
    /// `name{label="value"}` under a single `# TYPE name gauge` header,
    /// in the order given; `values` must be distinct. Returns the gauges
    /// in that order; every series is exported from registration on.
    pub fn labeled_gauges(
        &self,
        name: &str,
        help: &str,
        label: &str,
        values: impl IntoIterator<Item = String>,
    ) -> Vec<Gauge> {
        let series: Vec<(String, Gauge)> = values
            .into_iter()
            .map(|v| (format!("{name}{{{label}=\"{}\"}}", escape_label(&v)), Gauge::new()))
            .collect();
        let gauges = series.iter().map(|(_, g)| g.clone()).collect();
        self.push(name, help, Instrument::LabeledGauges(series));
        gauges
    }

    /// Render every metric in the prometheus text exposition format.
    pub fn render(&self) -> String {
        let entries = self.entries.lock().expect("registry poisoned");
        let mut out = String::new();
        for e in entries.iter() {
            out.push_str("# HELP ");
            out.push_str(&e.name);
            out.push(' ');
            out.push_str(&escape_help(&e.help));
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&e.name);
            match &e.instrument {
                Instrument::Counter(c) => {
                    out.push_str(&format!(" counter\n{} {}\n", e.name, c.get()));
                }
                Instrument::Gauge(g) => {
                    out.push_str(&format!(" gauge\n{} {}\n", e.name, fmt_f64(g.get())));
                }
                Instrument::Histogram(h) => {
                    out.push_str(" histogram\n");
                    h.render_samples(&e.name, &mut out);
                }
                Instrument::LabeledGauges(series) => {
                    out.push_str(" gauge\n");
                    for (prefix, g) in series {
                        out.push_str(&format!("{prefix} {}\n", fmt_f64(g.get())));
                    }
                }
            }
        }
        out
    }
}

/// Prometheus-friendly float formatting: integral values render without
/// an exponent or trailing zeros.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escape `# HELP` text per the text format: `\` and newline.
pub(crate) fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value per the text format: `\`, `"` and newline.
pub(crate) fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let r = Registry::new();
        let c = r.counter("requests_total", "Requests served");
        let g = r.gauge("queue_depth", "Tenants waiting");
        c.inc();
        c.inc_by(2);
        g.set(4.5);
        assert_eq!(c.get(), 3);
        assert_eq!(g.get(), 4.5);
        let text = r.render();
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total 3"));
        assert!(text.contains("# HELP queue_depth Tenants waiting"));
        assert!(text.contains("queue_depth 4.5"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let r = Registry::new();
        let h = r.histogram("latency", "Latency", vec![1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 5.0, 50.0, 5000.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5060.5);
        let text = r.render();
        assert!(text.contains("latency_bucket{le=\"1\"} 1"));
        assert!(text.contains("latency_bucket{le=\"10\"} 3"));
        assert!(text.contains("latency_bucket{le=\"100\"} 4"));
        assert!(text.contains("latency_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("latency_sum 5060.5"));
        assert!(text.contains("latency_count 5"));
    }

    #[test]
    fn geometric_bounds_multiply_from_the_start() {
        assert_eq!(geometric_bounds(1.0, 2.0, 4), vec![1.0, 2.0, 4.0, 8.0]);
        let b = geometric_bounds(1e-6, 2.0, 20);
        assert_eq!(b.len(), 20);
        assert!(b.windows(2).all(|w| w[1] == w[0] * 2.0));
    }

    #[test]
    fn labeled_gauges_render_every_series_in_registration_order() {
        let r = Registry::new();
        let g =
            r.labeled_gauges("lost", "Lost by pod", "pod", ["10", "9", "spine"].map(String::from));
        g[1].set(0.5);
        let text = r.render();
        assert_eq!(
            text,
            "# HELP lost Lost by pod\n# TYPE lost gauge\n\
             lost{pod=\"10\"} 0\nlost{pod=\"9\"} 0.5\nlost{pod=\"spine\"} 0\n"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.labeled_gauges("m", "", "raw", ["a\\b\"c\nd".to_string()])[0].set(1.0);
        assert!(r.render().ends_with("m{raw=\"a\\\\b\\\"c\\nd\"} 1\n"));
    }

    #[test]
    fn help_text_is_escaped_in_the_exposition() {
        let r = Registry::new();
        r.counter("odd_total", "line one\nline two with a \\ backslash");
        let text = r.render();
        assert!(
            text.contains("# HELP odd_total line one\\nline two with a \\\\ backslash"),
            "{text}"
        );
        assert!(!text.contains("line one\nline"), "raw newline must not split the HELP line");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_rejected() {
        let r = Registry::new();
        let _a = r.counter("x", "first");
        let _b = r.counter("x", "second");
    }

    #[test]
    fn handles_are_shared_with_the_registry() {
        let r = Registry::new();
        let c = r.counter("shared", "Shared handle");
        let c2 = c.clone();
        std::thread::spawn(move || c2.inc()).join().unwrap();
        c.inc();
        assert!(r.render().contains("shared 2"));
    }
}

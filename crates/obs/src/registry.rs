//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms — optionally labeled — with a Prometheus text exporter.
//!
//! All metric cells are atomics, so recording never blocks and is safe
//! from parallel stages; the registry maps are behind short-lived mutexes
//! taken only to *look up or create* a metric, and handles are `Arc`s a
//! caller may retain to skip the lookup entirely on a hot path.
//!
//! A metric series is identified by its name plus an optional set of
//! label pairs (e.g. `predvfs_slo_burn_fast{stream="sha"}`); the
//! unlabeled accessors are the common case and map to an empty label
//! set. Labels render per the Prometheus exposition rules: sorted by
//! key, values escaped, and for histograms the `le` label appended last.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::span::SpanTotal;

/// Recovers a possibly poisoned guard: the registry maps are only
/// inserted into, so a snapshot taken by a panicking thread is still
/// internally consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A series identity: metric name plus sorted label pairs. Ordering is
/// lexicographic on `(name, labels)`, so a `BTreeMap` keyed by it groups
/// every series of one metric together — exactly what the exporter needs
/// to emit a single `# TYPE` line per metric name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl SeriesKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        labels.sort();
        SeriesKey {
            name: name.to_owned(),
            labels,
        }
    }

    /// The exposition-format series name: `name` or `name{k="v",...}`.
    fn render(&self) -> String {
        render_series(&self.name, &self.labels, None)
    }
}

/// Renders `name{labels...}` with an optional extra trailing label (the
/// histogram exporter's `le`). Label values are escaped per the
/// exposition rules: backslash, double quote, and newline.
fn render_series(name: &str, labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return name.to_owned();
    }
    let mut out = String::with_capacity(name.len() + 16);
    out.push_str(name);
    out.push('{');
    let mut first = true;
    let push_pair = |out: &mut String, first: &mut bool, k: &str, v: &str| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    };
    for (k, v) in labels {
        push_pair(&mut out, &mut first, k, v);
    }
    if let Some((k, v)) = extra {
        push_pair(&mut out, &mut first, k, v);
    }
    out.push('}');
    out
}

/// A monotonically increasing integer metric.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point metric.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Atomically adds `delta` to an `f64` stored as bits in `cell`.
fn atomic_f64_add(cell: &AtomicU64, delta: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + delta).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A histogram over fixed, sorted bucket upper bounds (the `+Inf` bucket
/// is implicit), tracking per-bucket counts plus the sum and count of
/// observations — exactly the Prometheus histogram data model.
///
/// `NaN` observations are counted separately ([`Histogram::nan_count`])
/// and excluded from the buckets, sum, and count: a single NaN would
/// otherwise poison `_sum` forever and land in the `+Inf` bucket, where
/// it would silently skew every tail-quantile estimate.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One cell per bound, plus the trailing `+Inf` bucket.
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
    nan_count: AtomicU64,
}

impl Histogram {
    /// A histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            count: AtomicU64::new(0),
            nan_count: AtomicU64::new(0),
        }
    }

    /// The default bucket layout: powers of ten from `1e-9` to `1e12`,
    /// wide enough for seconds-scale phase timings and picojoule-scale
    /// energies alike.
    pub fn default_bounds() -> Vec<f64> {
        (-9..=12).map(|e| 10f64.powi(e)).collect()
    }

    /// Records one observation. `NaN` values go to the separate NaN
    /// counter instead of the buckets and sum.
    pub fn observe(&self, value: f64) {
        if value.is_nan() {
            self.nan_count.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, value);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of (non-NaN) observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// NaN observations rejected from the buckets and sum.
    pub fn nan_count(&self) -> u64 {
        self.nan_count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// `(upper bound, cumulative count)` pairs in bound order, ending
    /// with the `+Inf` bucket.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut acc = 0;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, cell) in self.buckets.iter().enumerate() {
            acc += cell.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, acc));
        }
        out
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) from the
    /// bucket counts by linear interpolation within the containing
    /// bucket — the same estimator as PromQL's `histogram_quantile`.
    ///
    /// Returns `None` when the histogram is empty. The first bucket
    /// interpolates from a lower edge of 0 when its upper bound is
    /// positive (observations are assumed non-negative there), and a
    /// quantile landing in the `+Inf` bucket reports the largest finite
    /// bound — the estimate cannot be better than "beyond the layout".
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let buckets = self.cumulative_buckets();
        let mut prev_cum = 0u64;
        for (i, &(bound, cum)) in buckets.iter().enumerate() {
            if (cum as f64) >= rank && cum > prev_cum {
                if bound.is_infinite() {
                    return self.bounds.last().copied();
                }
                let lower = if i == 0 {
                    if bound > 0.0 {
                        0.0
                    } else {
                        return Some(bound);
                    }
                } else {
                    buckets[i - 1].0
                };
                let in_bucket = (cum - prev_cum) as f64;
                let pos = ((rank - prev_cum as f64) / in_bucket).clamp(0.0, 1.0);
                return Some(lower + (bound - lower) * pos);
            }
            prev_cum = cum;
        }
        self.bounds.last().copied()
    }

    /// The median estimate ([`Histogram::quantile`] at 0.5).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The 90th-percentile estimate.
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.9)
    }

    /// The 99th-percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// A process- or run-scoped collection of named metrics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<SeriesKey, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<SeriesKey, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<SeriesKey, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The unlabeled counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// The counter series `name{labels}`, created on first use.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut map = lock(&self.counters);
        Arc::clone(
            map.entry(SeriesKey::new(name, labels))
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// The unlabeled gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// The gauge series `name{labels}`, created on first use.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut map = lock(&self.gauges);
        Arc::clone(
            map.entry(SeriesKey::new(name, labels))
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// The unlabeled histogram named `name`, created with `bounds` on
    /// first use (later calls keep the original bucket layout).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, &[], bounds)
    }

    /// The histogram series `name{labels}`, created with `bounds` on
    /// first use (later calls keep the original bucket layout).
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        let mut map = lock(&self.histograms);
        Arc::clone(
            map.entry(SeriesKey::new(name, labels))
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// Records per-name span totals ([`SelfProfile::totals`]) as the
    /// series `predvfs_span_calls_total{span="…"}` (a counter) and
    /// `predvfs_span_seconds{span="…"}` (a gauge of inclusive seconds).
    /// The counters add, so record one profile once, at export.
    ///
    /// [`SelfProfile::totals`]: crate::SelfProfile::totals
    pub fn record_span_totals(&self, totals: &BTreeMap<&str, SpanTotal>) {
        for (&name, total) in totals {
            let labels = [("span", name)];
            self.counter_with("predvfs_span_calls_total", &labels)
                .add(total.calls);
            self.gauge_with("predvfs_span_seconds", &labels)
                .set(total.ns as f64 / 1e9);
        }
    }

    /// Snapshot of every counter as `(series, value)`, series-sorted;
    /// labeled series render as `name{k="v"}`.
    pub fn counters(&self) -> Vec<(String, u64)> {
        lock(&self.counters)
            .iter()
            .map(|(k, v)| (k.render(), v.get()))
            .collect()
    }

    /// Snapshot of every gauge as `(series, value)`, series-sorted.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        lock(&self.gauges)
            .iter()
            .map(|(k, v)| (k.render(), v.get()))
            .collect()
    }

    /// Snapshot of every histogram as `(series, count, sum)`,
    /// series-sorted.
    pub fn histogram_summaries(&self) -> Vec<(String, u64, f64)> {
        lock(&self.histograms)
            .iter()
            .map(|(k, v)| (k.render(), v.count(), v.sum()))
            .collect()
    }

    /// Snapshot of every histogram as `(series, p50, p90, p99)` for
    /// summary display, series-sorted; empty histograms report zeros.
    pub fn histogram_quantiles(&self) -> Vec<(String, f64, f64, f64)> {
        lock(&self.histograms)
            .iter()
            .map(|(k, v)| {
                (
                    k.render(),
                    v.p50().unwrap_or(0.0),
                    v.p90().unwrap_or(0.0),
                    v.p99().unwrap_or(0.0),
                )
            })
            .collect()
    }

    /// Renders every metric in the Prometheus text exposition format.
    /// Series are sorted by `(name, labels)` and one `# TYPE` line is
    /// emitted per metric name, so the output is stable and parseable.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let counters: Vec<(SeriesKey, u64)> = lock(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let mut last_name = None::<String>;
        for (key, value) in counters {
            if last_name.as_deref() != Some(&key.name) {
                let _ = writeln!(out, "# TYPE {} counter", key.name);
                last_name = Some(key.name.clone());
            }
            let _ = writeln!(out, "{} {value}", key.render());
        }
        let gauges: Vec<(SeriesKey, f64)> = lock(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let mut last_name = None::<String>;
        for (key, value) in gauges {
            if last_name.as_deref() != Some(&key.name) {
                let _ = writeln!(out, "# TYPE {} gauge", key.name);
                last_name = Some(key.name.clone());
            }
            let _ = writeln!(out, "{} {}", key.render(), fmt_f64(value));
        }
        let hists: Vec<(SeriesKey, Arc<Histogram>)> = lock(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        let mut last_name = None::<String>;
        for (key, h) in hists {
            if last_name.as_deref() != Some(&key.name) {
                let _ = writeln!(out, "# TYPE {} histogram", key.name);
                last_name = Some(key.name.clone());
            }
            for (bound, cum) in h.cumulative_buckets() {
                let le = if bound.is_infinite() {
                    "+Inf".to_owned()
                } else {
                    fmt_f64(bound)
                };
                let series = render_series(
                    &format!("{}_bucket", key.name),
                    &key.labels,
                    Some(("le", &le)),
                );
                let _ = writeln!(out, "{series} {cum}");
            }
            let _ = writeln!(
                out,
                "{} {}",
                render_series(&format!("{}_sum", key.name), &key.labels, None),
                fmt_f64(h.sum())
            );
            let _ = writeln!(
                out,
                "{} {}",
                render_series(&format!("{}_count", key.name), &key.labels, None),
                h.count()
            );
        }
        out
    }
}

/// Formats a float for the Prometheus exposition: finite
/// shortest-roundtrip, with non-finite values spelled the Prometheus way.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total").add(2);
        reg.counter("a_total").add(3);
        reg.gauge("g").set(1.5);
        assert_eq!(reg.counters(), vec![("a_total".to_owned(), 5)]);
        assert_eq!(reg.gauges(), vec![("g".to_owned(), 1.5)]);
    }

    #[test]
    fn labeled_series_are_distinct_and_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter_with("jobs_total", &[("stream", "sha")]).add(3);
        reg.counter_with("jobs_total", &[("stream", "md")]).add(4);
        reg.counter("jobs_total").add(1);
        // Label order at the call site must not matter.
        reg.gauge_with("burn", &[("window", "fast"), ("stream", "sha")])
            .set(2.0);
        reg.gauge_with("burn", &[("stream", "sha"), ("window", "fast")])
            .set(3.0);
        assert_eq!(
            reg.counters(),
            vec![
                ("jobs_total".to_owned(), 1),
                ("jobs_total{stream=\"md\"}".to_owned(), 4),
                ("jobs_total{stream=\"sha\"}".to_owned(), 3),
            ]
        );
        assert_eq!(
            reg.gauges(),
            vec![("burn{stream=\"sha\",window=\"fast\"}".to_owned(), 3.0)]
        );
        let text = reg.prometheus_text();
        // One TYPE line per metric name, not per series.
        assert_eq!(text.matches("# TYPE jobs_total counter").count(), 1);
        assert!(text.contains("jobs_total{stream=\"sha\"} 3"));
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter_with("c_total", &[("k", "a\"b\\c\nd")]).add(1);
        let text = reg.prometheus_text();
        assert!(text.contains("c_total{k=\"a\\\"b\\\\c\\nd\"} 1"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 0.7, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(
            h.cumulative_buckets(),
            vec![(1.0, 2), (10.0, 3), (f64::INFINITY, 4)]
        );
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 56.2).abs() < 1e-12);
        assert!((h.mean() - 14.05).abs() < 1e-12);
    }

    #[test]
    fn nan_observations_do_not_poison_sum_or_buckets() {
        let h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.5);
        h.observe(f64::NAN);
        h.observe(5.0);
        assert_eq!(h.count(), 2, "NaN must not count as an observation");
        assert_eq!(h.nan_count(), 1);
        assert!((h.sum() - 5.5).abs() < 1e-12, "sum must stay finite");
        assert_eq!(
            h.cumulative_buckets(),
            vec![(1.0, 1), (10.0, 2), (f64::INFINITY, 2)],
            "NaN must not land in the +Inf bucket"
        );
        assert!(h.quantile(0.99).is_some());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn labeled_histogram_renders_le_last() {
        let reg = MetricsRegistry::new();
        reg.histogram_with("lat_seconds", &[("stream", "sha")], &[0.1, 1.0])
            .observe(0.05);
        let text = reg.prometheus_text();
        assert!(text.contains("lat_seconds_bucket{stream=\"sha\",le=\"0.1\"} 1"));
        assert!(text.contains("lat_seconds_bucket{stream=\"sha\",le=\"+Inf\"} 1"));
        assert!(text.contains("lat_seconds_sum{stream=\"sha\"} 0.05"));
        assert!(text.contains("lat_seconds_count{stream=\"sha\"} 1"));
    }

    #[test]
    fn prometheus_text_is_stable_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("z_total").add(1);
        reg.counter("a_total").add(2);
        reg.gauge("obj").set(0.25);
        reg.histogram("lat_seconds", &[0.1, 1.0]).observe(0.05);
        let text = reg.prometheus_text();
        let a = text.find("a_total 2").expect("a_total");
        let z = text.find("z_total 1").expect("z_total");
        assert!(a < z, "counters must be name-sorted");
        assert!(text.contains("# TYPE obj gauge\nobj 0.25"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_seconds_count 1"));
        assert_eq!(text, reg.prometheus_text(), "export must be idempotent");
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new(&[10.0, 20.0, 30.0]);
        // 10 observations in (10, 20]: the median ranks 5 of 10 in that
        // bucket, interpolating to 10 + 20·(5/10)... over width 10 → 15.
        for _ in 0..10 {
            h.observe(15.0);
        }
        assert!((h.p50().unwrap() - 15.0).abs() < 1e-12);
        assert!((h.p90().unwrap() - 19.0).abs() < 1e-12);
        // All mass in one bucket: q=1 reaches the upper bound.
        assert!((h.quantile(1.0).unwrap() - 20.0).abs() < 1e-12);
        // q=0 reaches the lower edge of the first non-empty bucket.
        assert!((h.quantile(0.0).unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.p99(), None);
    }

    #[test]
    fn quantile_in_overflow_bucket_reports_last_finite_bound() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(100.0);
        h.observe(200.0);
        assert_eq!(h.p99(), Some(2.0));
    }

    #[test]
    fn parallel_counting_is_exact() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n_total");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}

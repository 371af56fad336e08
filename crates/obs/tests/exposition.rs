//! A minimal Prometheus text exposition-format checker, run over the
//! registry's real export — labeled series included — plus a golden
//! byte-for-byte snapshot of a representative registry.
//!
//! The checker is deliberately small but strict about the things a
//! scraper would choke on: metric/label name charsets, label-value
//! escaping, one `# TYPE` per metric, histogram bucket monotonicity,
//! and the `+Inf` bucket equalling `_count`.

use std::collections::{BTreeMap, BTreeSet};

use predvfs_obs::{Histogram, MetricsRegistry, SpanTotal};

fn is_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// One parsed sample line.
#[derive(Debug)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parses `name{k="v",...} value` per the exposition format, panicking
/// with a line-specific message on any violation.
fn parse_sample(line: &str) -> Sample {
    let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
        panic!("sample line without value: {line:?}");
    });
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("bad sample value {v:?} in {line:?}")),
    };
    let (name, labels) = match series.split_once('{') {
        None => (series.to_owned(), Vec::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unterminated label set in {line:?}"));
            let mut labels = Vec::new();
            let mut chars = body.chars().peekable();
            loop {
                let mut key = String::new();
                for c in chars.by_ref() {
                    if c == '=' {
                        break;
                    }
                    key.push(c);
                }
                assert!(is_label_name(&key), "bad label name {key:?} in {line:?}");
                assert_eq!(
                    chars.next(),
                    Some('"'),
                    "label value must be quoted: {line:?}"
                );
                let mut value = String::new();
                loop {
                    match chars.next() {
                        Some('\\') => match chars.next() {
                            Some('\\') => value.push('\\'),
                            Some('"') => value.push('"'),
                            Some('n') => value.push('\n'),
                            other => panic!("bad escape {other:?} in {line:?}"),
                        },
                        Some('"') => break,
                        Some(c) => value.push(c),
                        None => panic!("unterminated label value in {line:?}"),
                    }
                }
                labels.push((key, value));
                match chars.next() {
                    Some(',') => continue,
                    None => break,
                    other => panic!("expected ',' or end after label, got {other:?} in {line:?}"),
                }
            }
            (name.to_owned(), labels)
        }
    };
    assert!(
        is_metric_name(&name),
        "bad metric name {name:?} in {line:?}"
    );
    Sample {
        name,
        labels,
        value,
    }
}

/// The checker: parses a full exposition document and enforces the
/// structural rules, returning the samples grouped by metric name.
fn check_exposition(text: &str) -> BTreeMap<String, Vec<Sample>> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples: BTreeMap<String, Vec<Sample>> = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(meta) = line.strip_prefix("# TYPE ") {
            let (name, kind) = meta
                .split_once(' ')
                .unwrap_or_else(|| panic!("bad TYPE line {line:?}"));
            assert!(is_metric_name(name), "bad TYPE name {name:?}");
            assert!(
                matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ),
                "bad TYPE kind {kind:?}"
            );
            assert!(
                types.insert(name.to_owned(), kind.to_owned()).is_none(),
                "duplicate TYPE for {name}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment {line:?}");
        let sample = parse_sample(line);
        // Histogram sample names carry the _bucket/_sum/_count suffix;
        // map back to the declared metric for the TYPE check.
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                let stripped = sample.name.strip_suffix(suf)?;
                types
                    .get(stripped)
                    .filter(|k| *k == "histogram")
                    .map(|_| stripped.to_owned())
            })
            .unwrap_or_else(|| sample.name.clone());
        assert!(
            types.contains_key(&base),
            "sample {0} has no TYPE declaration",
            sample.name
        );
        samples.entry(base).or_default().push(sample);
    }
    // Histogram structure: per label set, buckets are cumulative
    // non-decreasing with ascending le, and +Inf equals _count.
    for (name, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let group = &samples[name];
        let mut series: BTreeSet<String> = BTreeSet::new();
        for s in group {
            let mut key: Vec<String> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            key.sort();
            series.insert(key.join(","));
        }
        for key in series {
            let of_series = |suffix: &str| -> Vec<&Sample> {
                group
                    .iter()
                    .filter(|s| s.name == format!("{name}{suffix}"))
                    .filter(|s| {
                        let mut k: Vec<String> = s
                            .labels
                            .iter()
                            .filter(|(k, _)| k != "le")
                            .map(|(k, v)| format!("{k}={v}"))
                            .collect();
                        k.sort();
                        k.join(",") == key
                    })
                    .collect()
            };
            let buckets = of_series("_bucket");
            assert!(!buckets.is_empty(), "{name}{{{key}}} has no buckets");
            let mut prev_le = f64::NEG_INFINITY;
            let mut prev_cum = 0.0f64;
            let mut inf_cum = None;
            for b in &buckets {
                let le = b
                    .labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| match v.as_str() {
                        "+Inf" => f64::INFINITY,
                        v => v.parse::<f64>().expect("numeric le"),
                    })
                    .expect("bucket without le");
                assert!(le > prev_le, "{name}: le not ascending");
                assert!(b.value >= prev_cum, "{name}: bucket counts not cumulative");
                prev_le = le;
                prev_cum = b.value;
                if le.is_infinite() {
                    inf_cum = Some(b.value);
                }
            }
            let inf_cum = inf_cum.unwrap_or_else(|| panic!("{name}: no +Inf bucket"));
            let count = of_series("_count");
            assert_eq!(count.len(), 1, "{name}: exactly one _count");
            assert_eq!(
                count[0].value, inf_cum,
                "{name}: +Inf bucket must equal _count"
            );
            assert_eq!(of_series("_sum").len(), 1, "{name}: exactly one _sum");
        }
    }
    samples
}

/// A registry shaped like a real serve run: unlabeled totals, per-stream
/// labeled series, a histogram, and the span totals the CLI exports.
fn serve_like_registry() -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    reg.counter("predvfs_serve_jobs_done_total").add(160);
    reg.counter("predvfs_serve_misses_total").add(12);
    for (stream, jobs, misses) in [("sha", 80u64, 5u64), ("md", 80, 7)] {
        let labels = [("stream", stream)];
        reg.counter_with("predvfs_serve_stream_jobs_done_total", &labels)
            .add(jobs);
        reg.counter_with("predvfs_serve_stream_misses_total", &labels)
            .add(misses);
        reg.gauge_with("predvfs_slo_burn_fast", &labels)
            .set(misses as f64 / 4.0);
        reg.gauge_with("predvfs_calibration_coverage", &labels)
            .set(0.875);
    }
    let h = reg.histogram("predvfs_serve_slack_seconds", &[1e-3, 1e-2, 1e-1]);
    for v in [5e-4, 3e-3, 8e-3, 0.04, 0.2] {
        h.observe(v);
    }
    reg.record_span_totals(&BTreeMap::from([
        (
            "serve.prepare",
            SpanTotal {
                calls: 1,
                ns: 1_250_000_000,
            },
        ),
        (
            "serve.dispatch.arrival",
            SpanTotal {
                calls: 240,
                ns: 3_100_000,
            },
        ),
    ]));
    reg
}

#[test]
fn real_export_with_labels_passes_the_checker() {
    let reg = serve_like_registry();
    let samples = check_exposition(&reg.prometheus_text());
    assert_eq!(
        samples["predvfs_serve_stream_misses_total"].len(),
        2,
        "one series per stream label"
    );
    let sha = samples["predvfs_serve_stream_misses_total"]
        .iter()
        .find(|s| s.labels == vec![("stream".to_owned(), "sha".to_owned())])
        .expect("sha series present");
    assert_eq!(sha.value, 5.0);
    assert!(samples.contains_key("predvfs_serve_slack_seconds"));
    let span = |name: &str, label: &str| {
        samples[name]
            .iter()
            .find(|s| s.labels == vec![("span".to_owned(), label.to_owned())])
            .unwrap_or_else(|| panic!("{name}{{span={label:?}}} missing"))
            .value
    };
    assert_eq!(span("predvfs_span_calls_total", "serve.prepare"), 1.0);
    assert_eq!(
        span("predvfs_span_calls_total", "serve.dispatch.arrival"),
        240.0
    );
    assert_eq!(span("predvfs_span_seconds", "serve.prepare"), 1.25);
    assert_eq!(
        span("predvfs_span_seconds", "serve.dispatch.arrival"),
        0.0031
    );
}

#[test]
fn escaped_label_values_survive_the_round_trip() {
    let reg = MetricsRegistry::new();
    reg.counter_with("c_total", &[("k", "a\"b\\c\nd")]).add(1);
    let samples = check_exposition(&reg.prometheus_text());
    assert_eq!(
        samples["c_total"][0].labels,
        vec![("k".to_owned(), "a\"b\\c\nd".to_owned())]
    );
}

#[test]
fn golden_snapshot_of_a_small_registry() {
    let reg = MetricsRegistry::new();
    reg.counter("predvfs_jobs_total").add(3);
    reg.counter_with("predvfs_stream_jobs_total", &[("stream", "md")])
        .add(1);
    reg.counter_with("predvfs_stream_jobs_total", &[("stream", "sha")])
        .add(2);
    reg.gauge_with("predvfs_burn", &[("stream", "sha"), ("window", "fast")])
        .set(1.5);
    reg.histogram("predvfs_lat_seconds", &[0.1, 1.0])
        .observe(0.05);
    let golden = "\
# TYPE predvfs_jobs_total counter
predvfs_jobs_total 3
# TYPE predvfs_stream_jobs_total counter
predvfs_stream_jobs_total{stream=\"md\"} 1
predvfs_stream_jobs_total{stream=\"sha\"} 2
# TYPE predvfs_burn gauge
predvfs_burn{stream=\"sha\",window=\"fast\"} 1.5
# TYPE predvfs_lat_seconds histogram
predvfs_lat_seconds_bucket{le=\"0.1\"} 1
predvfs_lat_seconds_bucket{le=\"1\"} 1
predvfs_lat_seconds_bucket{le=\"+Inf\"} 1
predvfs_lat_seconds_sum 0.05
predvfs_lat_seconds_count 1
";
    assert_eq!(reg.prometheus_text(), golden);
    check_exposition(golden);
}

#[test]
fn default_bounds_histogram_is_well_formed() {
    let reg = MetricsRegistry::new();
    let h = reg.histogram("phase_seconds", &Histogram::default_bounds());
    h.observe(1e-4);
    h.observe(2.5);
    h.observe(f64::NAN); // excluded, must not break the invariants
    check_exposition(&reg.prometheus_text());
    assert_eq!(h.nan_count(), 1);
}

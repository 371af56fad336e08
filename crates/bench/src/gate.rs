//! The performance gate: current BENCH reports vs committed baselines.
//!
//! The gate compares each fresh `BENCH_<area>.json` against the baseline
//! committed under `results/bench_baselines/` and fails (nonzero exit in
//! the `bench_gate` binary) when a metric regressed past its tolerance.
//! Three rules keep it honest without making it flaky:
//!
//! * **Direction is inferred from the metric name.** Suffix/prefix
//!   conventions say whether higher or lower is better (see
//!   [`direction`]); names with no recognized convention, and every
//!   `_info` name, are informational — recorded in the report, never
//!   gated. Noisy curiosity metrics (e.g. enabled-profiling overhead)
//!   deliberately use such names.
//! * **Tolerances are generous in quick mode.** Quick workloads are tiny
//!   and noisy, so the quick ratio band is wide; full runs get the tight
//!   band. If *either* report is quick, the quick band applies.
//! * **Environment mismatches skip, not fail.** A baseline measured with
//!   `quick: true` says nothing about a full run (and vice versa); the
//!   gate skips the area and says so, rather than comparing apples to
//!   oranges.

use std::fmt;

use crate::bench_report::BenchReport;

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger numbers are better (throughput, speedup); the gate fires on
    /// a drop.
    HigherBetter,
    /// Smaller numbers are better (latency, size, overhead); the gate
    /// fires on a rise.
    LowerBetter,
    /// No recognized convention: recorded for humans, never gated.
    Informational,
}

/// Infers a metric's direction from its name.
///
/// An `_info` suffix is informational whatever the rest of the name says.
/// Otherwise, higher-better: `geomean_` prefix, or a `_per_sec` / `_cps`
/// / `_speedup` suffix. Lower-better: `_s` / `_ms` / `_ns` / `_pct` /
/// `_kb` suffix. Anything else is informational.
pub fn direction(name: &str) -> Direction {
    if name.ends_with("_info") {
        Direction::Informational
    } else if name.starts_with("geomean_")
        || name.ends_with("_per_sec")
        || name.ends_with("_cps")
        || name.ends_with("_speedup")
    {
        Direction::HigherBetter
    } else if name.ends_with("_s")
        || name.ends_with("_ms")
        || name.ends_with("_ns")
        || name.ends_with("_pct")
        || name.ends_with("_kb")
    {
        Direction::LowerBetter
    } else {
        Direction::Informational
    }
}

/// Per-comparison tolerances.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Allowed fractional degradation for ratio-gated metrics (0.5 =
    /// current may be up to 50% worse than baseline).
    pub ratio: f64,
    /// Extra absolute slack, in points, for `_pct` metrics — a 0.1% →
    /// 0.2% jitter is a 2× ratio but means nothing.
    pub pct_points: f64,
}

impl Tolerance {
    /// The band for a comparison: generous when either side ran quick.
    pub fn for_quick(quick: bool) -> Tolerance {
        if quick {
            Tolerance {
                ratio: 0.5,
                pct_points: 10.0,
            }
        } else {
            Tolerance {
                ratio: 0.25,
                pct_points: 3.0,
            }
        }
    }
}

/// One gated metric that moved past its tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Bench area the metric came from.
    pub area: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Human-readable bound that was exceeded.
    pub bound: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: baseline {:.6} -> current {:.6} (allowed {})",
            self.area, self.metric, self.baseline, self.current, self.bound
        )
    }
}

/// The result of comparing one area.
#[derive(Debug, Clone, Default)]
pub struct AreaOutcome {
    /// Metrics that regressed past tolerance.
    pub violations: Vec<Violation>,
    /// Metrics compared and within tolerance.
    pub passed: usize,
    /// Metrics not gated (informational, or present on only one side),
    /// with the reason.
    pub skipped: Vec<String>,
    /// Set when the whole area was skipped (e.g. quick-flag mismatch).
    pub area_skipped: Option<String>,
}

/// Compares `current` against `baseline` for one area.
///
/// Both reports must be for the same area; a quick-flag mismatch skips
/// the whole comparison. Metrics present on only one side are skipped
/// with a note (a *new* metric is not a regression; a *vanished* one is
/// worth a human look but the gate can't price it).
pub fn compare(baseline: &BenchReport, current: &BenchReport) -> AreaOutcome {
    let mut out = AreaOutcome::default();
    if baseline.env.quick != current.env.quick {
        out.area_skipped = Some(format!(
            "quick-flag mismatch (baseline quick={}, current quick={})",
            baseline.env.quick, current.env.quick
        ));
        return out;
    }
    let tol = Tolerance::for_quick(baseline.env.quick || current.env.quick);
    for (name, &base) in &baseline.metrics {
        let Some(&cur) = current.metrics.get(name) else {
            out.skipped
                .push(format!("{name}: present only in baseline"));
            continue;
        };
        match check_metric(name, base, cur, tol) {
            MetricResult::Pass => out.passed += 1,
            MetricResult::Skip(reason) => out.skipped.push(format!("{name}: {reason}")),
            MetricResult::Fail(bound) => out.violations.push(Violation {
                area: current.area.clone(),
                metric: name.clone(),
                baseline: base,
                current: cur,
                bound,
            }),
        }
    }
    for name in current.metrics.keys() {
        if !baseline.metrics.contains_key(name) {
            out.skipped.push(format!("{name}: new metric, no baseline"));
        }
    }
    out
}

enum MetricResult {
    Pass,
    Skip(String),
    Fail(String),
}

fn check_metric(name: &str, base: f64, cur: f64, tol: Tolerance) -> MetricResult {
    let dir = match direction(name) {
        Direction::Informational => return MetricResult::Skip("informational".to_owned()),
        d => d,
    };
    if !base.is_finite() || !cur.is_finite() {
        return MetricResult::Skip("non-finite value".to_owned());
    }
    match dir {
        Direction::HigherBetter => {
            let floor = base * (1.0 - tol.ratio);
            if cur >= floor {
                MetricResult::Pass
            } else {
                MetricResult::Fail(format!(">= {floor:.6}"))
            }
        }
        Direction::LowerBetter => {
            let mut ceil = base * (1.0 + tol.ratio);
            if name.ends_with("_pct") {
                ceil = ceil.max(base + tol.pct_points);
            }
            if cur <= ceil {
                MetricResult::Pass
            } else {
                MetricResult::Fail(format!("<= {ceil:.6}"))
            }
        }
        Direction::Informational => unreachable!("filtered above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(area: &str, quick: bool, metrics: &[(&str, f64)]) -> BenchReport {
        let mut r = BenchReport::new(area, quick);
        for (name, value) in metrics {
            r.metric(name, *value);
        }
        r
    }

    #[test]
    fn direction_conventions() {
        assert_eq!(direction("geomean_speedup_step"), Direction::HigherBetter);
        assert_eq!(direction("analyze_mb_per_sec"), Direction::HigherBetter);
        assert_eq!(direction("vm_cps"), Direction::HigherBetter);
        assert_eq!(direction("fit_time_s"), Direction::LowerBetter);
        assert_eq!(direction("disabled_overhead_pct"), Direction::LowerBetter);
        assert_eq!(direction("journal_size_kb"), Direction::LowerBetter);
        assert_eq!(
            direction("enabled_overhead_ratio"),
            Direction::Informational
        );
        assert_eq!(direction("runs"), Direction::Informational);
        assert_eq!(direction("rust_lines_info"), Direction::Informational);
        assert_eq!(direction("geomean_speedup_info"), Direction::Informational);
    }

    #[test]
    fn within_tolerance_passes() {
        let base = report("rtl", true, &[("geomean_speedup_step", 100.0)]);
        let cur = report("rtl", true, &[("geomean_speedup_step", 60.0)]);
        let out = compare(&base, &cur);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.passed, 1);
    }

    #[test]
    fn synthetic_degradation_fails_with_named_metric() {
        // Quick tolerance is 50%; a 60% drop in a higher-better metric
        // must fire and name the metric.
        let base = report("rtl", true, &[("geomean_speedup_step", 100.0)]);
        let cur = report("rtl", true, &[("geomean_speedup_step", 40.0)]);
        let out = compare(&base, &cur);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].metric, "geomean_speedup_step");
        assert!(out.violations[0]
            .to_string()
            .contains("geomean_speedup_step"));
    }

    #[test]
    fn lower_better_fires_on_rise_only() {
        let base = report("opt", false, &[("fit_time_s", 1.0)]);
        let faster = report("opt", false, &[("fit_time_s", 0.1)]);
        assert!(compare(&base, &faster).violations.is_empty());
        let slower = report("opt", false, &[("fit_time_s", 1.3)]);
        assert_eq!(compare(&base, &slower).violations.len(), 1);
    }

    #[test]
    fn pct_metrics_get_absolute_point_slack() {
        // 0.1% -> 0.4% is a 4x ratio but only 0.3 points: must pass.
        let base = report("obs", true, &[("disabled_overhead_pct", 0.1)]);
        let cur = report("obs", true, &[("disabled_overhead_pct", 0.4)]);
        assert!(compare(&base, &cur).violations.is_empty());
        // Past the point slack it fails.
        let bad = report("obs", true, &[("disabled_overhead_pct", 20.0)]);
        assert_eq!(compare(&base, &bad).violations.len(), 1);
    }

    #[test]
    fn quick_mismatch_skips_the_area() {
        let base = report("rtl", false, &[("geomean_speedup_step", 100.0)]);
        let cur = report("rtl", true, &[("geomean_speedup_step", 1.0)]);
        let out = compare(&base, &cur);
        assert!(out.area_skipped.is_some());
        assert!(out.violations.is_empty());
    }

    #[test]
    fn informational_and_one_sided_metrics_are_skipped() {
        let base = report(
            "serve",
            true,
            &[("checkpoint_overhead_ratio", 0.2), ("old_metric_s", 1.0)],
        );
        let cur = report(
            "serve",
            true,
            &[("checkpoint_overhead_ratio", 9.9), ("new_metric_s", 1.0)],
        );
        let out = compare(&base, &cur);
        assert!(out.violations.is_empty());
        assert_eq!(out.skipped.len(), 3);
    }
}

//! # predvfs-bench
//!
//! The paper's reproduction, and the bench binaries that measure the
//! framework itself.
//!
//! The `repro` binary regenerates every table and figure of the paper's
//! evaluation, plus the ablations and extensions (see DESIGN.md's
//! experiment index). Each exhibit is a function in [`repro::EXHIBITS`]
//! over one shared [`repro::Context`]: it prints a paper-style text
//! table, writes the same data as CSV under `results/`, and — where the
//! paper reports a headline number — prints the paper's value next to the
//! measured one.
//!
//! The `bench_*` binaries and `fig_serve_scale` each time one area —
//! `bench_rtl` the RTL engines, `bench_opt` the FISTA fit,
//! `bench_analyze` the trace analyzer, `bench_obs` the span guards,
//! `fig_serve_scale` the sharded serve tier — and write a
//! [`bench_report`] that `bench_gate` compares against its committed
//! baseline ([`gate`]). They share the quick switch ([`quick`]) and the
//! best-of-N wall timer ([`best_of`]), and print through
//! [`predvfs_sim::outln!`], a stdout writer that never panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::Instant;

pub mod bench_report;
pub mod gate;
pub mod repro;

/// Paper reference values used for side-by-side reporting.
pub mod paper {
    /// Table 4: `(name, area_um2, freq_mhz, max_ms, avg_ms, min_ms)`.
    pub const TABLE4: [(&str, f64, f64, f64, f64, f64); 7] = [
        ("h264", 659_506.0, 250.0, 11.46, 7.56, 6.50),
        ("cjpeg", 175_225.0, 250.0, 13.90, 5.22, 0.88),
        ("djpeg", 394_635.0, 250.0, 14.79, 3.78, 1.82),
        ("md", 31_791.0, 455.0, 15.52, 7.11, 0.80),
        ("stencil", 10_140.0, 602.0, 15.97, 5.92, 1.41),
        ("aes", 56_121.0, 500.0, 16.19, 4.62, 1.94),
        ("sha", 19_740.0, 500.0, 12.94, 4.11, 1.11),
    ];

    /// Headline results (§4.3): average energy savings and miss rates.
    pub const PREDICTION_SAVINGS_PCT: f64 = 36.7;
    /// Average prediction-scheme deadline misses.
    pub const PREDICTION_MISS_PCT: f64 = 0.4;
    /// PID's average deadline misses.
    pub const PID_MISS_PCT: f64 = 10.5;
    /// PID energy penalty vs. prediction.
    pub const PID_ENERGY_PENALTY_PCT: f64 = 4.3;
    /// Savings with overheads removed (Fig. 13).
    pub const NO_OVERHEAD_SAVINGS_PCT: f64 = 39.8;
    /// Oracle savings (Fig. 13).
    pub const ORACLE_SAVINGS_PCT: f64 = 40.5;
    /// Savings with boost (Fig. 14).
    pub const BOOST_SAVINGS_PCT: f64 = 36.4;
    /// FPGA savings (§4.4).
    pub const FPGA_SAVINGS_PCT: f64 = 35.9;
    /// Average ASIC slice area overhead (§4.3).
    pub const SLICE_AREA_PCT: f64 = 5.1;
    /// Average slice time as share of budget.
    pub const SLICE_TIME_PCT: f64 = 3.5;
    /// Average slice energy overhead.
    pub const SLICE_ENERGY_PCT: f64 = 1.5;
    /// Average FPGA slice resource overhead (§4.4).
    pub const FPGA_SLICE_RESOURCE_PCT: f64 = 9.4;
    /// h264 case study: detected → selected features (§3.7).
    pub const H264_FEATURES: (usize, usize) = (257, 7);
    /// h264 case study: slice area share.
    pub const H264_SLICE_AREA_PCT: f64 = 5.7;
    /// h264 case study: slice energy share.
    pub const H264_SLICE_ENERGY_PCT: f64 = 2.8;
}

/// Whether a bench binary runs its reduced smoke workload: `--quick` on
/// the command line, or `PREDVFS_QUICK=1` in the environment.
pub fn quick() -> bool {
    std::env::var("PREDVFS_QUICK").as_deref() == Ok("1") || std::env::args().any(|a| a == "--quick")
}

/// Calls `f` `reps` times and returns the fastest call's wall time in
/// seconds, with the last call's value.
///
/// # Panics
///
/// Panics if `reps` is 0.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(reps > 0, "best_of needs at least one rep");
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let value = f();
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (best, last.expect("reps > 0"))
}

/// Directory where experiment CSVs are written.
pub fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

/// Directory holding the committed BENCH baselines the gate compares
/// against.
pub fn baselines_dir() -> PathBuf {
    results_dir().join("bench_baselines")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_times_every_rep_and_returns_the_last_value() {
        let mut calls = 0;
        let (best, last) = best_of(3, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (3, 3));
        assert!(best.is_finite() && best >= 0.0);
    }

    #[test]
    fn paper_constants_cover_all_benchmarks() {
        let names: Vec<&str> = predvfs_accel::all().iter().map(|b| b.name).collect();
        for (name, ..) in paper::TABLE4 {
            assert!(names.contains(&name), "{name} missing from registry");
        }
    }
}

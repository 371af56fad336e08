//! The performance gate: compares fresh `BENCH_*.json` reports at the
//! repo root against the baselines committed under
//! `results/bench_baselines/`, and exits non-zero when any gated metric
//! regressed past its tolerance (see [`predvfs_bench::gate`] for the
//! direction and tolerance rules).
//!
//! Usage:
//!
//! ```text
//! bench_gate [--baseline-dir DIR] [--current-dir DIR]
//! ```
//!
//! Every baseline must have a matching current report — a bench binary
//! that stopped emitting its report is itself a regression. Current
//! reports with no baseline are listed as new (commit a baseline to start
//! gating them).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use predvfs_bench::bench_report::BenchReport;
use predvfs_bench::{baselines_dir, gate};

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// `BENCH_*.json` files in `dir`, sorted by name.
fn bench_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    files
}

fn main() -> ExitCode {
    let baseline_dir = arg_value("--baseline-dir").map_or_else(baselines_dir, PathBuf::from);
    let current_dir = arg_value("--current-dir").map_or_else(|| PathBuf::from("."), PathBuf::from);

    let baselines = bench_files(&baseline_dir);
    if baselines.is_empty() {
        eprintln!(
            "bench_gate: no BENCH_*.json baselines in {} — nothing to gate",
            baseline_dir.display()
        );
        return ExitCode::FAILURE;
    }

    let mut failures = 0usize;
    let mut compared_areas = 0usize;
    for base_path in &baselines {
        let name = base_path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let baseline = match BenchReport::load(base_path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("FAIL {name}: unreadable baseline: {e}");
                failures += 1;
                continue;
            }
        };
        let cur_path = current_dir.join(name);
        let current = match BenchReport::load(&cur_path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!(
                    "FAIL {name}: missing/unreadable current report \
                     (did the bench binary run?): {e}"
                );
                failures += 1;
                continue;
            }
        };
        let outcome = gate::compare(&baseline, &current);
        if let Some(reason) = &outcome.area_skipped {
            println!("SKIP {}: {reason}", baseline.area);
            continue;
        }
        compared_areas += 1;
        for v in &outcome.violations {
            eprintln!("FAIL {v}");
            failures += 1;
        }
        for s in &outcome.skipped {
            println!("  info {}/{s}", baseline.area);
        }
        println!(
            "{} {}: {} gated metric(s) within tolerance, {} violation(s), \
             {} informational (baseline {} on {} cores, current {} on {} cores)",
            if outcome.violations.is_empty() {
                "PASS"
            } else {
                "FAIL"
            },
            baseline.area,
            outcome.passed,
            outcome.violations.len(),
            outcome.skipped.len(),
            baseline.env.git_rev,
            baseline.env.cores,
            current.env.git_rev,
            current.env.cores,
        );
    }

    // Current reports with no baseline are worth a line, not a failure.
    for cur_path in bench_files(&current_dir) {
        let name = cur_path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !baseline_dir.join(name).exists() {
            println!("NEW  {name}: no baseline yet (commit one under results/bench_baselines/)");
        }
    }

    if failures > 0 {
        eprintln!("bench_gate: {failures} failure(s) across {compared_areas} compared area(s)");
        ExitCode::FAILURE
    } else {
        println!("bench_gate: all {compared_areas} compared area(s) within tolerance");
        ExitCode::SUCCESS
    }
}

//! Reproduces the paper's evaluation: `repro [EXHIBIT...]`.
//!
//! With no arguments every exhibit runs, in README order; otherwise the
//! named ones run, in the order given. Each exhibit's text goes to stdout
//! under an `=== name ===` header and its CSVs go under `results/`,
//! relative to the working directory. `PREDVFS_QUICK=1` shrinks the
//! workloads about tenfold for smoke runs.
//!
//! All exhibits share one context, so each experiment configuration is
//! prepared once per run. Wall times land in `BENCH_repro.json`: the
//! total in `total_s` and one `<exhibit>_ms` per exhibit that ran. Beside
//! them, `rust_lines_info` records the code size, the lines of the
//! tracked `*.rs` files under `crates/` and `examples/` (left out outside
//! a git checkout).

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use predvfs_accel::WorkloadSize;
use predvfs_bench::bench_report::{rust_lines, BenchReport};
use predvfs_bench::repro::{exhibit, Context, EXHIBITS};
use predvfs_bench::results_dir;
use predvfs_sim::outln;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let chosen = if names.is_empty() {
        EXHIBITS.iter().collect()
    } else {
        let mut chosen = Vec::with_capacity(names.len());
        for name in &names {
            let Some(e) = exhibit(name) else {
                let known: Vec<&str> = EXHIBITS.iter().map(|e| e.name).collect();
                eprintln!(
                    "error: unknown exhibit '{name}' (known: {})",
                    known.join(", ")
                );
                return ExitCode::FAILURE;
            };
            chosen.push(e);
        }
        chosen
    };
    let quick = std::env::var("PREDVFS_QUICK").as_deref() == Ok("1");
    let size = if quick {
        WorkloadSize::Quick
    } else {
        WorkloadSize::Full
    };

    let ctx = Context::new(size, results_dir());
    let mut report = BenchReport::new("repro", quick);
    let start = Instant::now();
    for e in chosen {
        outln!("=== {} ===", e.name);
        let t = Instant::now();
        if let Err(err) = (e.run)(&ctx) {
            eprintln!("error: {}: {err}", e.name);
            return ExitCode::FAILURE;
        }
        report.metric(&format!("{}_ms", e.name), t.elapsed().as_secs_f64() * 1e3);
    }
    let total_s = start.elapsed().as_secs_f64();
    report.metric("total_s", total_s).notes(
        "Wall time of one repro run: all exhibits share one context, so each \
         experiment configuration is prepared once, and each design, trace \
         pass, fit, slice and slice table is built once. rust_lines_info \
         counts the lines of the tracked *.rs files under crates/ and \
         examples/.",
    );
    if let Some(lines) = rust_lines(Path::new(".")) {
        report.metric("rust_lines_info", lines as f64);
    }
    let layers = ctx.cache().counts();
    match report.write_into(Path::new(".")) {
        Ok(path) => eprintln!(
            "repro: {total_s:.1} s, {} trace passes, {} cache hits, {} fits, {} slice builds; \
             wrote {}",
            ctx.cache().misses(),
            ctx.cache().hits(),
            layers.fits,
            layers.slices,
            path.display()
        ),
        Err(err) => {
            eprintln!("error: writing BENCH_repro.json: {err}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

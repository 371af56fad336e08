//! A bench binary whose stdout reader has gone away still finishes: its
//! progress lines are dropped, its report is written, and it exits 0, as
//! in `bench_opt --quick | head -1` or `repro fig02_h264_variation | head -1`.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use predvfs_bench::bench_report::BenchReport;

/// Runs `bin` with `args` and `PREDVFS_QUICK=1` in a fresh directory
/// named after `tag`, with the read end of its stdout closed before it
/// starts, so every write to its stdout fails with a broken pipe.
/// Returns the output and the directory.
fn run_with_stdout_closed(tag: &str, bin: &str, args: &[&str]) -> (Output, PathBuf) {
    let cwd = std::env::temp_dir().join(format!(
        "predvfs-closed-stdout-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&cwd);
    fs::create_dir_all(&cwd).unwrap();
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(bin)
        .args(args)
        .env("PREDVFS_QUICK", "1")
        .current_dir(&cwd)
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    (out, cwd)
}

#[test]
fn bench_opt_writes_its_report_and_exits_0_with_stdout_closed() {
    let (_, cwd) = run_with_stdout_closed("opt", env!("CARGO_BIN_EXE_bench_opt"), &["--quick"]);
    let report = BenchReport::load(&cwd.join("BENCH_opt.json")).expect("a readable report");
    assert_eq!(report.area, "opt");
    assert!(report.env.quick);
    assert!(report.metrics["fista_fit_ms"] > 0.0);
    fs::remove_dir_all(&cwd).unwrap();
}

#[test]
fn repro_writes_its_csvs_and_report_and_exits_0_with_stdout_closed() {
    let (_, cwd) = run_with_stdout_closed(
        "repro",
        env!("CARGO_BIN_EXE_repro"),
        &["fig02_h264_variation"],
    );
    for csv in ["fig02_h264_variation.csv", "fig02_summary.csv"] {
        let text = fs::read_to_string(cwd.join("results").join(csv)).expect(csv);
        assert!(text.lines().count() > 1, "{csv} has no rows");
    }
    let report = BenchReport::load(&cwd.join("BENCH_repro.json")).expect("a readable report");
    assert_eq!(report.area, "repro");
    assert!(report.env.quick);
    assert!(report.metrics["fig02_h264_variation_ms"] > 0.0);
    fs::remove_dir_all(&cwd).unwrap();
}

//! A bench binary whose stdout reader has gone away still finishes: its
//! progress lines are dropped, its report is written, and it exits 0, as
//! in `bench_opt --quick | head -1`.

use std::fs;
use std::process::Command;

use predvfs_bench::bench_report::BenchReport;

#[test]
fn bench_opt_writes_its_report_and_exits_0_with_stdout_closed() {
    let cwd = std::env::temp_dir().join(format!("predvfs-closed-stdout-{}", std::process::id()));
    let _ = fs::remove_dir_all(&cwd);
    fs::create_dir_all(&cwd).unwrap();
    // The read end is closed before the child starts, so every write to
    // its stdout fails with a broken pipe.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_bench_opt"))
        .arg("--quick")
        .current_dir(&cwd)
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");

    let report = BenchReport::load(&cwd.join("BENCH_opt.json")).expect("a readable report");
    assert_eq!(report.area, "opt");
    assert!(report.env.quick);
    assert!(report.metrics["fista_fit_ms"] > 0.0);
    fs::remove_dir_all(&cwd).unwrap();
}

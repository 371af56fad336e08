//! A `predvfs` command whose stdout reader has gone away still finishes:
//! its table lines are dropped, its files are written, and it exits 0,
//! as in `predvfs serve examples/demo.scenario --metrics-out m.prom | head -1`.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// Runs `predvfs` with `args` (plus the `env` variables) in a fresh
/// directory named after `tag`, with the read end of its stdout closed
/// before it starts, so every write to its stdout fails with a broken
/// pipe. Asserts that it exits 0 and returns the directory.
fn run_with_stdout_closed(tag: &str, args: &[&str], env: &[(&str, &str)]) -> PathBuf {
    let cwd = std::env::temp_dir().join(format!(
        "predvfs-cli-closed-stdout-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&cwd);
    fs::create_dir_all(&cwd).unwrap();
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_predvfs"))
        .args(args)
        .envs(env.iter().copied())
        .current_dir(&cwd)
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    cwd
}

#[test]
fn serve_writes_its_metrics_and_exits_0_with_stdout_closed() {
    let demo = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/demo.scenario");
    let cwd = run_with_stdout_closed("serve", &["serve", demo, "--metrics-out", "m.prom"], &[]);
    let metrics = fs::read_to_string(cwd.join("m.prom")).expect("a metrics file");
    assert!(
        metrics.contains("predvfs_serve_streams_prepared_total 4"),
        "{metrics}"
    );
    fs::remove_dir_all(&cwd).unwrap();
}

#[test]
fn eval_exits_0_with_stdout_closed() {
    let cwd = run_with_stdout_closed("eval", &["eval", "sha"], &[("PREDVFS_QUICK", "1")]);
    fs::remove_dir_all(&cwd).unwrap();
}

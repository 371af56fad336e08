//! The reproduction's shared context: sharing it between exhibits changes
//! nothing they write, and the sharing happens — one trace pass per
//! benchmark. Runs at quick size and writes only under the system temp
//! directory.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use predvfs_accel::WorkloadSize;
use predvfs_bench::repro::{exhibit, Context};

/// A fresh, empty directory under the system temp directory.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("predvfs-repro-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(ctx: &Context, name: &str) {
    let e = exhibit(name).expect("registered exhibit");
    (e.run)(ctx).unwrap_or_else(|err| panic!("{name}: {err}"));
}

/// Every file directly in `dir`, by name, with its bytes.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read(&path).unwrap())
        })
        .collect()
}

#[test]
fn a_shared_context_writes_the_same_bytes_from_one_trace_pass_per_benchmark() {
    let pair = ["fig10_prediction_error", "fig11_energy_misses"];
    let root = scratch("sharing");

    let shared = Context::new(WorkloadSize::Quick, root.join("shared"));
    for name in pair {
        run(&shared, name);
    }
    assert_eq!(shared.cache().misses(), 7, "one trace pass per benchmark");

    let mut alone = BTreeMap::new();
    for name in pair {
        let dir = root.join(name);
        run(&Context::new(WorkloadSize::Quick, &dir), name);
        alone.extend(files(&dir));
    }
    let together = files(&root.join("shared"));
    assert_eq!(
        together.keys().collect::<Vec<_>>(),
        [
            "fig10_prediction_error.csv",
            "fig11_energy.csv",
            "fig11_misses.csv"
        ]
    );
    assert!(together == alone, "sharing the context changed an output");
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn an_unknown_exhibit_is_one_error_line_before_any_work() {
    let cwd = scratch("unknown");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("nosuch")
        .current_dir(&cwd)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("error: unknown exhibit 'nosuch' (known: fig02_h264_variation, "));
    assert!(files(&cwd).is_empty(), "wrote files before rejecting");
    fs::remove_dir_all(&cwd).unwrap();
}

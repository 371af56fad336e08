//! The versioned BENCH schema (v1) every bench binary emits.
//!
//! One-off emitters with incompatible layouts made `BENCH_*.json`
//! unrelatable: nothing recorded *where* a number was measured, so a
//! 23.74% checkpoint overhead measured on 1 core could be misread as a
//! gated result. Schema v1 fixes both problems:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "area": "rtl",
//!   "env": { "cores": 4, "quick": true, "git_rev": "09ccb73" },
//!   "metrics": { "geomean_speedup_step": 227.39 },
//!   "notes": "free-form context",
//!   "unasserted": ["speedup assert skipped: ran on 1 cores (needs >= 4)"]
//! }
//! ```
//!
//! * `area` names the subsystem (`rtl`, `serve`, `obs`, …); the file is
//!   `BENCH_<area>.json` at the repo root, with committed baselines under
//!   `results/bench_baselines/`.
//! * `env` records cores, quick mode, and the git revision, so every
//!   number carries its measurement conditions.
//! * `metrics` is a flat `name → f64` map. Direction (higher/lower is
//!   better) is inferred from naming conventions by the gate (see
//!   [`crate::gate`]); names with no recognized convention are recorded
//!   but never gated.
//! * `unasserted` lists asserts that were *skipped* in this environment;
//!   [`BenchReport::unassert`] also prints them as loud warnings.
//!
//! The layout above is written by hand, every string and number through
//! [`predvfs_obs::json`]'s escaper and float writer; [`BenchReport::parse`]
//! reads any valid JSON with that module's parser and extracts the schema
//! fields.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use predvfs_obs::json::{self, Value};

/// Current schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// Measurement environment, recorded in every report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEnv {
    /// Logical CPU cores available to the process.
    pub cores: usize,
    /// Whether the run used the reduced quick/smoke workload.
    pub quick: bool,
    /// Short git revision of the working tree (`"unknown"` when git is
    /// unavailable).
    pub git_rev: String,
}

impl BenchEnv {
    /// Captures the current environment.
    pub fn capture(quick: bool) -> BenchEnv {
        BenchEnv {
            cores: std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
            quick,
            git_rev: git_short_rev(),
        }
    }
}

/// `git rev-parse --short HEAD`, or `"unknown"`.
fn git_short_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Lines of the `*.rs` files git tracks under `crates/` and `examples/`
/// of the checkout holding `dir`, counted as `wc -l` counts them
/// (newline bytes), or `None` when git cannot list them or a listed file
/// cannot be read.
pub fn rust_lines(dir: &Path) -> Option<u64> {
    let out = Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["ls-files", "-z", "--"])
        .args([":(top)crates/*.rs", ":(top)examples/*.rs"])
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    let mut lines = 0;
    for name in out.stdout.split(|&b| b == 0).filter(|n| !n.is_empty()) {
        let text = std::fs::read(dir.join(std::str::from_utf8(name).ok()?)).ok()?;
        lines += text.iter().filter(|&&b| b == b'\n').count() as u64;
    }
    Some(lines)
}

/// One bench area's results in schema v1.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Subsystem name (`rtl`, `serve`, `obs`, `opt`, `analyze`, …).
    pub area: String,
    /// Where the numbers were measured.
    pub env: BenchEnv,
    /// Flat metric map; the gate infers comparison direction from names.
    pub metrics: BTreeMap<String, f64>,
    /// Free-form context for readers of the raw file.
    pub notes: String,
    /// Asserts that were skipped in this environment, with the reason.
    pub unasserted: Vec<String>,
}

impl BenchReport {
    /// A new report for `area`, capturing the environment.
    pub fn new(area: &str, quick: bool) -> BenchReport {
        BenchReport {
            area: area.to_owned(),
            env: BenchEnv::capture(quick),
            metrics: BTreeMap::new(),
            notes: String::new(),
            unasserted: Vec::new(),
        }
    }

    /// Records one metric (non-finite values are recorded as 0 so the
    /// file stays valid JSON).
    pub fn metric(&mut self, name: &str, value: f64) -> &mut Self {
        let v = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.to_owned(), v);
        self
    }

    /// Sets the free-form notes.
    pub fn notes(&mut self, notes: &str) -> &mut Self {
        self.notes = notes.to_owned();
        self
    }

    /// Records a skipped assert and prints the mandatory loud warning, so
    /// a number measured outside its gating environment can't be misread
    /// as a gated result.
    pub fn unassert(&mut self, reason: &str) -> &mut Self {
        eprintln!("unasserted: {reason}");
        self.unasserted.push(reason.to_owned());
        self
    }

    /// Convenience for the common skip: an assert gated on a minimum core
    /// count, on a machine below it. Returns whether the assert should
    /// run (true = enough cores; caller asserts).
    pub fn gate_on_cores(&mut self, what: &str, min_cores: usize) -> bool {
        if self.env.cores >= min_cores {
            true
        } else {
            self.unassert(&format!(
                "{what} skipped: ran on {} cores (needs >= {min_cores})",
                self.env.cores
            ));
            false
        }
    }

    /// Renders the report as schema-v1 JSON.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"schema\": {SCHEMA_VERSION},\n  \"area\": ");
        json::write_str(&mut out, &self.area);
        let _ = write!(
            out,
            ",\n  \"env\": {{ \"cores\": {}, \"quick\": {}, \"git_rev\": ",
            self.env.cores, self.env.quick
        );
        json::write_str(&mut out, &self.env.git_rev);
        out.push_str(" },\n  \"metrics\": {\n");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            out.push_str("    ");
            json::write_str(&mut out, name);
            out.push_str(": ");
            json::write_f64(&mut out, *value);
            out.push_str(if i + 1 == self.metrics.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  },\n  \"notes\": ");
        json::write_str(&mut out, &self.notes);
        out.push_str(",\n  \"unasserted\": [");
        for (i, u) in self.unasserted.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, u);
        }
        out.push_str("]\n}\n");
        out
    }

    /// Writes `BENCH_<area>.json` into `dir` and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem write.
    pub fn write_into(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.area));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Parses a schema-v1 report.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, a missing/mismatched schema
    /// version, or missing required fields.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        if doc.as_object().is_none() {
            return Err("top level is not an object".to_owned());
        }
        let schema = doc
            .get("schema")
            .and_then(Value::as_f64)
            .ok_or("missing schema version")?;
        if schema != SCHEMA_VERSION as f64 {
            return Err(format!("unsupported schema version {schema}"));
        }
        let area = doc
            .get("area")
            .and_then(Value::as_str)
            .ok_or("missing area")?
            .to_owned();
        let env_obj = doc
            .get("env")
            .filter(|v| v.as_object().is_some())
            .ok_or("missing env object")?;
        let env = BenchEnv {
            cores: env_obj.get("cores").and_then(Value::as_f64).unwrap_or(0.0) as usize,
            quick: env_obj
                .get("quick")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            git_rev: env_obj
                .get("git_rev")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_owned(),
        };
        let metrics_obj = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("missing metrics object")?;
        let mut metrics = BTreeMap::new();
        for (k, v) in metrics_obj {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("metric `{k}` is not a number"))?;
            metrics.insert(k.clone(), v);
        }
        let notes = doc
            .get("notes")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_owned();
        let unasserted = doc
            .get("unasserted")
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|v| v.as_str().map(str::to_owned))
            .collect();
        Ok(BenchReport {
            area,
            env,
            metrics,
            notes,
            unasserted,
        })
    }

    /// Reads and parses `path`.
    ///
    /// # Errors
    ///
    /// As for [`BenchReport::parse`], plus the filesystem read.
    pub fn load(path: &Path) -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        BenchReport::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let mut report = BenchReport::new("rtl", true);
        report
            .metric("geomean_speedup_step", 227.39)
            .metric("vm_cps", 1.25e8)
            .notes("line one\nline \"two\"")
            .unassert("speedup assert skipped: ran on 1 cores (needs >= 4)");
        let json = report.to_json();
        let back = BenchReport::parse(&json).expect("parses");
        assert_eq!(back.area, "rtl");
        assert_eq!(back.env, report.env);
        assert_eq!(back.metrics, report.metrics);
        assert_eq!(back.notes, report.notes);
        assert_eq!(back.unasserted, report.unasserted);
    }

    #[test]
    fn parse_rejects_wrong_schema_and_garbage() {
        assert!(BenchReport::parse("{\"schema\": 2, \"area\": \"x\"}").is_err());
        assert!(BenchReport::parse("not json").is_err());
        assert!(BenchReport::parse("{\"area\": \"x\"}").is_err());
        // Trailing garbage after a valid document is an error, not a skip.
        let valid = BenchReport::new("rtl", true).to_json();
        assert!(BenchReport::parse(&valid).is_ok());
        assert!(BenchReport::parse(&format!("{valid} extra")).is_err());
        // A hostile nest is an error, not a stack overflow.
        let nest = format!("{{\"schema\": 1, \"notes\": {}", "[".repeat(100_000));
        assert!(BenchReport::parse(&nest).is_err());
    }

    #[test]
    fn env_capture_records_at_least_one_core() {
        let env = BenchEnv::capture(false);
        assert!(env.cores >= 1);
        assert!(!env.quick);
        assert!(!env.git_rev.is_empty());
    }

    #[test]
    fn rust_lines_counts_tracked_rust_files_under_crates_and_examples() {
        let dir = std::env::temp_dir().join(format!("predvfs-rust-lines-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let files = [
            ("crates/a/src/lib.rs", "fn a() {}\n\nfn b() {}\n"),
            ("examples/demo.rs", "fn main() {}\n"),
            ("crates/a/notes.txt", "not rust\n"),
            ("perfbench/src/main.rs", "fn main() {}\n"),
        ];
        for (path, text) in files {
            let path = dir.join(path);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        }
        let git = |args: &[&str]| {
            let status = Command::new("git").arg("-C").arg(&dir).args(args).status();
            assert!(status.unwrap().success(), "git {args:?}");
        };
        git(&["init", "-q"]);
        git(&["add", "."]);
        std::fs::write(dir.join("crates/a/src/untracked.rs"), "fn u() {}\n").unwrap();

        // 3 + 1 lines: the text file, the file outside crates/ and
        // examples/, and the untracked file do not count, from the root
        // or from a subdirectory.
        assert_eq!(rust_lines(&dir), Some(4));
        assert_eq!(rust_lines(&dir.join("crates/a")), Some(4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gate_on_cores_records_the_skip() {
        let mut report = BenchReport::new("serve", true);
        report.env.cores = 1;
        assert!(!report.gate_on_cores("checkpoint overhead", 4));
        assert_eq!(report.unasserted.len(), 1);
        assert!(report.unasserted[0].contains("ran on 1 cores"));
        report.env.cores = 8;
        assert!(report.gate_on_cores("checkpoint overhead", 4));
        assert_eq!(report.unasserted.len(), 1);
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        // Unknown fields, however nested, are skipped; escapes decode.
        let text = r#"{"schema": 1, "area": "a\"b", "extra": [1, {"b": [null]}],
            "env": {"cores": 2, "quick": false, "git_rev": "x\u0041"},
            "metrics": {"m_s": 220, "n": -2.5e-3}, "notes": "x\ny", "unasserted": ["u"]}"#;
        let r = BenchReport::parse(text).unwrap();
        assert_eq!(r.area, "a\"b");
        assert_eq!(r.env.git_rev, "xA");
        assert_eq!(r.metrics["m_s"], 220.0);
        assert_eq!(r.metrics["n"], -2.5e-3);
        assert_eq!(r.notes, "x\ny");
        assert_eq!(r.unasserted, ["u"]);
    }
}

//! Plain-text tables and CSV output for the exhibits of `repro`, and
//! [`outln!`](crate::outln), the stdout writer every binary prints through.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// `println!`, except that a closed or failing stdout drops the line
/// instead of panicking: `predvfs eval sha | head -1` and
/// `bench_opt | head -1` still write their files and exit 0. The CLI and
/// the bench binaries send every stdout line through it.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {{
        use ::std::io::Write as _;
        let _ = ::std::writeln!(::std::io::stdout(), $($arg)*);
    }};
}

/// A simple aligned text table that can also be serialized as CSV.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the headers.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:>w$}", w = *w);
            }
            out.push('\n');
        };
        line(&self.headers, &widths, &mut out);
        let total = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        out
    }

    /// Prints the table and a blank line to stdout, through
    /// [`outln!`](crate::outln).
    pub fn print(&self) {
        crate::outln!("{}", self.render());
    }

    /// Serializes as CSV (headers first).
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV form to a file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }
}

/// Formats a float with the given number of decimals (experiment output
/// convention).
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["bench", "energy%"]);
        t.row(&["h264".into(), "71.3".into()]);
        t.row(&["sha".into(), "58.9".into()]);
        t
    }

    #[test]
    fn render_aligns_and_includes_all_rows() {
        let t = sample();
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("h264"));
        assert!(s.contains("58.9"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["hello, world".into(), "2".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"hello, world\""));
        assert!(csv.starts_with("a,b\n"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn write_csv_creates_dirs() {
        let dir = std::env::temp_dir().join("predvfs_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sub/out.csv");
        sample().write_csv(&path).unwrap();
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(1.23456, 2), "1.23");
    }
}

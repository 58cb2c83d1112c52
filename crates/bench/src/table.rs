//! Result tables: aligned console printing plus CSV export.

use std::fmt::Write as _;
use std::path::Path;

/// A titled table of string cells.
#[derive(Clone, Debug)]
pub struct Table {
    /// Human-readable title (printed above the table).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows; each must match the header width.
    pub rows: Vec<Vec<String>>,
    /// Basename (no extension) for the CSV export.
    pub csv_name: String,
}

impl Table {
    /// An empty table.
    pub fn new(title: impl Into<String>, csv_name: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            csv_name: csv_name.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Panics if the width differs from the header.
    pub(crate) fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width {} != header width {}",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(out, "{}", "-".repeat(header.join("  ").len()));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Writes CSV into `dir` as `<csv_name>.csv` (commas in cells are
    /// quoted).
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        let quote = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.columns
                .iter()
                .map(|c| quote(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
            );
        }
        std::fs::write(dir.join(format!("{}.csv", self.csv_name)), out)
    }
}

/// Formats a probability/fraction with 4 decimals.
pub(crate) fn fmt_frac(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a percentage with 1 decimal.
pub(crate) fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats seconds with 3 decimals.
pub(crate) fn fmt_secs(x: f64) -> String {
    if x.is_infinite() {
        "inf".to_string()
    } else {
        format!("{x:.3}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_and_counts() {
        let mut t = Table::new("Demo", "demo", &["x", "value"]);
        t.push_row(vec!["1".into(), "0.5".into()]);
        t.push_row(vec!["10".into(), "0.25".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("value"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new("Demo", "demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn csv_quotes() {
        let dir = std::env::temp_dir().join(format!("ssb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut t = Table::new("T", "quoted", &["a,b", "c"]);
        t.push_row(vec!["x\"y".into(), "z".into()]);
        t.write_csv(&dir).unwrap();
        let s = std::fs::read_to_string(dir.join("quoted.csv")).unwrap();
        assert!(s.contains("\"a,b\""));
        assert!(s.contains("\"x\"\"y\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_frac(0.12345), "0.1235");
        assert_eq!(fmt_pct(0.5), "50.0%");
        assert_eq!(fmt_secs(1.5), "1.500s");
        assert_eq!(fmt_secs(f64::INFINITY), "inf");
    }
}

//! Plain-text tables and JSON export for the experiment harness.
//!
//! Every table/figure binary in `dc-bench` prints its rows through
//! [`Table`] (so EXPERIMENTS.md and the console agree) and dumps the raw
//! numbers as JSON for regeneration diffs.

use serde::Serialize;
use std::fmt::Write as _;
use std::path::Path;

/// A simple fixed-width text table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the cell count does not match the header count.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}", width = widths[i]);
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Formats a float with the given number of decimals (helper for table
/// cells).
pub fn fmt_f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Serializes `value` as pretty JSON into `dir/name.json`, creating the
/// directory if needed. The write is atomic (temp + fsync + rename), so a
/// crash mid-experiment never leaves a truncated report behind a previous
/// good one. Returns the written path.
pub fn write_json<T: Serialize>(
    dir: &Path,
    name: &str,
    value: &T,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    dc_matrix::atomic::atomic_write(&path, json.as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer", "23"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // All rows the same width.
        assert_eq!(lines[0].len(), lines[2].len().max(lines[0].len()));
        assert!(lines[3].contains("longer"));
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(vec!["x"]);
        assert!(t.is_empty());
        t.row(vec!["1"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row has 1 cells")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn fmt_helper() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(2.0, 0), "2");
    }

    #[test]
    fn write_json_roundtrip() {
        let dir = std::env::temp_dir().join("dc_eval_report_test");
        let path = write_json(&dir, "sample", &vec![1, 2, 3]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back: Vec<i32> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

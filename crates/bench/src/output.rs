//! Aligned-table output for the paper's artifacts.

use std::fmt::Display;

/// A titled table with fixed-width columns, a header row and a rule, like
/// the rows the paper's figures plot, followed by free-text notes
/// (checkpoints and break-even points read off the same curves).
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// A table titled `title` whose columns are the whitespace-separated
    /// names in `headers`.
    pub fn new(title: &str, headers: &str) -> Table {
        Table {
            title: title.to_owned(),
            headers: headers.split_whitespace().map(str::to_owned).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append one row (must match the header arity).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(cells);
    }

    /// Append one line printed after the rows.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Render to a string: a `=== title ===` banner, the table, the notes.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = format!("\n=== {} ===\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for note in &self.notes {
                out.push_str(note);
                out.push('\n');
            }
        }
        out
    }
}

/// Format a float with 3 decimals.
pub(crate) fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("fig", "x ratio");
        t.row(&[&1, &"0.58"]);
        t.row(&[&1000, &"0.42"]);
        t.note("h* = 0.019");
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 8);
        assert_eq!(lines[1], "=== fig ===");
        assert!(lines[2].contains("ratio"));
        assert!(lines[3].starts_with('-'));
        assert!(lines[5].contains("1000"));
        assert_eq!(lines[7], "h* = 0.019");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("fig", "a");
        t.row(&[&1, &2]);
    }

    #[test]
    fn float_formats() {
        assert_eq!(f3(0.123456), "0.123");
    }
}

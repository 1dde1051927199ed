//! Plain-text table rendering.
//!
//! The experiment binaries and the bench harness print their results in the
//! same row/column layout as the paper's Tables 1–3, so a reader can put the
//! regenerated output next to the paper and compare shapes directly.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with a title (printed above the grid).
    pub fn new(title: impl Into<String>) -> Self {
        TextTable {
            title: title.into(),
            header: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Set the column headers.
    pub fn header<I, S>(mut self, cols: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.header = cols.into_iter().map(Into::into).collect();
        self
    }

    /// Append a row of cells (stringified by the caller).
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the table to a `String`.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }

        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                let _ = write!(line, "{:<width$}  ", cell, width = w);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        };
        if !self.header.is_empty() {
            render_row(&self.header, &widths, &mut out);
            let total: usize = widths
                .iter()
                .map(|w| w.saturating_add(2))
                .sum::<usize>()
                .saturating_sub(2);
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Format a floating point number the way the paper's tables do (two
/// decimal places).
pub fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows_aligned() {
        let mut t = TextTable::new("Table 1").header(["scheduling", "mean", "99.9 %ile"]);
        t.row(["WFQ", "3.16", "53.86"]);
        t.row(["FIFO", "3.17", "34.72"]);
        let s = t.render();
        assert!(s.contains("Table 1"));
        assert!(s.contains("scheduling"));
        assert!(s.contains("WFQ"));
        assert!(s.contains("34.72"));
        // Header separator present
        assert!(s.lines().any(|l| l.starts_with('-')));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn ragged_rows_do_not_panic() {
        let mut t = TextTable::new("").header(["a", "b"]);
        t.row(["1"]);
        t.row(["1", "2", "3"]);
        let s = t.render();
        assert!(s.contains('3'));
    }

    #[test]
    fn empty_table_renders_title_only() {
        let t = TextTable::new("nothing");
        assert_eq!(t.render().trim(), "nothing");
        assert!(t.is_empty());
    }

    #[test]
    fn fmt2_rounds() {
        assert_eq!(fmt2(1.23456), "1.23");
        assert_eq!(fmt2(2.0), "2.00");
    }

    #[test]
    fn display_matches_render() {
        let mut t = TextTable::new("x").header(["c"]);
        t.row(["v"]);
        assert_eq!(format!("{t}"), t.render());
    }
}

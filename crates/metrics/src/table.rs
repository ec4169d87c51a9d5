//! Result tables.
//!
//! Every benchmark binary prints its results as a [`Table`]: a header row
//! plus data rows, rendered as aligned plain text (for the console) or
//! CSV (for plotting and EXPERIMENTS.md). Keeping the rendering
//! here keeps the bench binaries to pure experiment logic.

use std::fmt::Write as _;

/// A small column-oriented table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are padded with empty
    /// cells; longer rows are a caller bug and panic in debug builds.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        debug_assert!(
            cells.len() <= self.headers.len(),
            "row has {} cells but table has {} columns",
            cells.len(),
            self.headers.len()
        );
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Append a row of displayable values.
    pub fn row_display<D: std::fmt::Display>(&mut self, cells: &[D]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells)
    }

    /// Title accessor.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }

    /// Render as aligned plain text with a title line and separator.
    pub fn to_text(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = w[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let sep: usize = w.iter().sum::<usize>() + 2 * w.len().saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(sep));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }

    /// Render as CSV (RFC-4180 quoting for cells containing `,`, `"`, or
    /// newlines). Includes the header row, not the title.
    pub fn to_csv(&self) -> String {
        fn esc(cell: &str) -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Figure 1", &["threads", "speedup"]);
        t.row(&["1".into(), "1.00".into()]);
        t.row(&["16".into(), "7.85".into()]);
        t
    }

    #[test]
    fn text_is_aligned_and_titled() {
        let s = sample().to_text();
        assert!(s.starts_with("== Figure 1 =="));
        assert!(s.contains("threads  speedup"));
        assert!(s.contains("     16     7.85"));
    }

    #[test]
    fn csv_round_trips_simple_cells() {
        let s = sample().to_csv();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "threads,speedup");
        assert_eq!(lines[2], "16,7.85");
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(&["x,y".into(), "he said \"hi\"\nline2".into()]);
        let s = t.to_csv();
        assert!(s.contains("\"x,y\""));
        assert!(s.contains("\"he said \"\"hi\"\"\nline2\""));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new("t", &["a", "b", "c"]);
        t.row(&["1".into()]);
        assert_eq!(t.len(), 1);
        let csv = t.to_csv();
        assert!(csv.lines().nth(1).unwrap().ends_with(",,"));
    }

    #[test]
    fn row_display_converts_values() {
        let mut t = Table::new("t", &["n", "x"]);
        t.row_display(&[1.5, 2.25]);
        assert!(t.to_csv().contains("1.5,2.25"));
    }
}

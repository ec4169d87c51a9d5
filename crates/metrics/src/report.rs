//! Experiment reports.
//!
//! An [`ExperimentReport`] couples the numbers a bench binary produced with
//! the context needed to interpret them: which experiment (paper figure or
//! table), which execution mode (real threads vs the multicore simulator),
//! which corpus scale, and free-form notes (e.g. "heap accounting
//! inactive"). Reports render to the console and are written as CSV next to
//! the binary's working directory so EXPERIMENTS.md can reference them.

use crate::table::Table;
use std::io::Write as _;
use std::path::Path;

/// One named data series (e.g. one line of a speedup figure).
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label, e.g. `"NSF abstracts"`.
    pub name: String,
    /// `(x, y)` points, e.g. `(threads, speedup)`.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// New empty series.
    pub fn new(name: &str) -> Self {
        Series {
            name: name.to_string(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// A complete experiment result: identification, context, and tables.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id, e.g. `"figure1"`.
    pub id: String,
    /// Human description, e.g. the paper caption.
    pub description: String,
    /// `"simulated (P virtual cores)"` or `"real threads"`.
    pub mode: String,
    /// Corpus scale note, e.g. `"1/8 of paper scale"`.
    pub scale: String,
    /// Result tables in presentation order.
    pub tables: Vec<Table>,
    /// Free-form context notes.
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// New empty report.
    pub fn new(id: &str, description: &str, mode: &str, scale: &str) -> Self {
        ExperimentReport {
            id: id.to_string(),
            description: description.to_string(),
            mode: mode.to_string(),
            scale: scale.to_string(),
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Attach a result table.
    pub fn add_table(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Attach a context note.
    pub fn note(&mut self, note: &str) -> &mut Self {
        self.notes.push(note.to_string());
        self
    }

    /// Render the full report for the console.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n", self.id, self.description));
        out.push_str(&format!("mode:  {}\n", self.mode));
        out.push_str(&format!("scale: {}\n\n", self.scale));
        for t in &self.tables {
            out.push_str(&t.to_text());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Write each table as `<dir>/<id>_<index>.csv`; returns written paths.
    pub fn write_csvs(&self, dir: &Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::new();
        for (i, t) in self.tables.iter().enumerate() {
            let path = dir.join(format!("{}_{}.csv", self.id, i));
            let mut f = std::fs::File::create(&path)?;
            f.write_all(t.to_csv().as_bytes())?;
            paths.push(path);
        }
        Ok(paths)
    }
}

impl std::fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// Build a speedup [`Table`] from several series sharing the same x values.
///
/// Panics if the series have differing x grids — series in one figure must
/// be sampled at the same thread counts.
pub fn speedup_table(title: &str, x_label: &str, series: &[Series]) -> Table {
    let mut headers: Vec<&str> = vec![x_label];
    headers.extend(series.iter().map(|s| s.name.as_str()));
    let mut t = Table::new(title, &headers);
    if series.is_empty() {
        return t;
    }
    let xs: Vec<f64> = series[0].points.iter().map(|p| p.0).collect();
    for s in series {
        let sx: Vec<f64> = s.points.iter().map(|p| p.0).collect();
        assert_eq!(sx, xs, "series '{}' sampled on a different x grid", s.name);
    }
    for (i, x) in xs.iter().enumerate() {
        let mut row = vec![format!("{x}")];
        for s in series {
            row.push(format!("{:.2}", s.points[i].1));
        }
        t.row(&row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Vec<Series> {
        let mut a = Series::new("NSF abstracts");
        a.push(1.0, 1.0);
        a.push(16.0, 7.8);
        let mut b = Series::new("Mix");
        b.push(1.0, 1.0);
        b.push(16.0, 2.5);
        vec![a, b]
    }

    #[test]
    fn speedup_table_merges_series_columns() {
        let t = speedup_table("Figure 1", "threads", &series());
        let csv = t.to_csv();
        assert!(csv.starts_with("threads,NSF abstracts,Mix"));
        assert!(csv.contains("16,7.80,2.50"));
    }

    #[test]
    #[should_panic(expected = "different x grid")]
    fn speedup_table_rejects_mismatched_grids() {
        let mut a = Series::new("a");
        a.push(1.0, 1.0);
        let mut b = Series::new("b");
        b.push(2.0, 1.0);
        speedup_table("t", "threads", &[a, b]);
    }

    #[test]
    fn report_renders_context() {
        let mut r = ExperimentReport::new("figure1", "K-means scalability", "simulated", "1/8");
        r.add_table(speedup_table("Figure 1", "threads", &series()));
        r.note("costs: analytic model");
        let text = r.to_text();
        assert!(text.contains("figure1"));
        assert!(text.contains("mode:  simulated"));
        assert!(text.contains("note: costs: analytic model"));
    }

    #[test]
    fn write_csvs_creates_files() {
        let dir = std::env::temp_dir().join(format!("hpa_report_test_{}", std::process::id()));
        let mut r = ExperimentReport::new("figX", "d", "m", "s");
        r.add_table(speedup_table("t", "threads", &series()));
        let paths = r.write_csvs(&dir).unwrap();
        assert_eq!(paths.len(), 1);
        let content = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(content.contains("threads"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

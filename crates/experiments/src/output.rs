//! Experiment output: aligned text tables for the terminal, CSV series for
//! plotting, and tiny ASCII sparkline charts for quick shape checks.

use std::fmt::Write as _;

/// One rendered table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (stringified by the producer).
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Build a table; row widths may be ragged (short rows are padded).
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                let _ = write!(line, "{:<width$}  ", cell, width = w);
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total.min(120)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// The same data as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(",")
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

/// A complete experiment result.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Short name (`fig3`, `table1`, ...).
    pub name: String,
    /// What the paper artifact shows and what to look for here.
    pub description: String,
    /// Rendered tables, in display order.
    pub tables: Vec<TextTable>,
}

impl ExperimentOutput {
    /// Create an output container.
    pub fn new(name: impl Into<String>, description: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            description: description.into(),
            tables: Vec::new(),
        }
    }

    /// Render the whole experiment as terminal text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.name, self.description);
        for t in &self.tables {
            let _ = writeln!(out, "{}", t.render());
        }
        out
    }

    /// `(filename, contents)` pairs for CSV export.
    pub fn csv_files(&self) -> Vec<(String, String)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let slug: String = t
                    .title
                    .chars()
                    .map(|c| if c.is_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
                    .collect::<String>()
                    .split('_')
                    .filter(|s| !s.is_empty())
                    .collect::<Vec<_>>()
                    .join("_");
                (format!("{}_{:02}_{}.csv", self.name, i, slug), t.to_csv())
            })
            .collect()
    }
}

/// A one-line ASCII sparkline of a series (for quick shape checks in the
/// terminal: the Fig. 2 "rise then flatten" is visible at a glance).
pub fn sparkline(values: &[f64]) -> String {
    const TICKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|v| {
            let t = ((v - lo) / span * 7.0).round() as usize;
            TICKS[t.min(7)]
        })
        .collect()
}

/// A fixed-size ASCII scatter/line chart for terminal output: `points`
/// are `(x, y)` pairs; the chart is `width x height` characters with
/// simple min/max axis labels. Used by `pbc repro` so the
/// figure *shapes* (the thing this reproduction is judged on) are visible
/// without leaving the terminal.
pub fn ascii_chart(points: &[(f64, f64)], width: usize, height: usize) -> String {
    if points.is_empty() || width < 8 || height < 3 {
        return String::new();
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in points {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    let x_span = (x_max - x_min).max(1e-12);
    let y_span = (y_max - y_min).max(1e-12);
    let mut grid = vec![vec![' '; width]; height];
    for &(x, y) in points {
        let cx = (((x - x_min) / x_span) * (width - 1) as f64).round() as usize;
        let cy = (((y - y_min) / y_span) * (height - 1) as f64).round() as usize;
        grid[height - 1 - cy][cx] = '*';
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{y_max:>9.2} |")
        } else if i == height - 1 {
            format!("{y_min:>9.2} |")
        } else {
            format!("{:>9} |", "")
        };
        let _ = writeln!(out, "{label}{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "{:>10}+{}", "", "-".repeat(width));
    let _ = writeln!(
        out,
        "{:>11}{:<.1} .. {:.1}",
        "", x_min, x_max
    );
    out
}

/// Format a float with sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if pbc_types::is_zero(v) {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_aligns() {
        let mut t = TextTable::new("demo", &["a", "bbbb", "c"]);
        t.push(vec!["1".into(), "2".into(), "3".into()]);
        t.push(vec!["10".into(), "20".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.lines().count() >= 5);
        // Header line pads the short column name to the width of "bbbb".
        let header = r.lines().nth(1).unwrap();
        assert!(header.starts_with("a   bbbb  c"));
    }

    #[test]
    fn csv_escapes() {
        let mut t = TextTable::new("x", &["name", "v"]);
        t.push(vec!["has,comma".into(), "1".into()]);
        t.push(vec!["has\"quote".into(), "2".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn csv_filenames_are_slugged() {
        let mut out = ExperimentOutput::new("fig1", "demo");
        out.tables.push(TextTable::new("CPU STREAM, perf vs P_b", &["x"]));
        let files = out.csv_files();
        assert_eq!(files.len(), 1);
        assert!(files[0].0.starts_with("fig1_00_cpu_stream"), "{}", files[0].0);
        assert!(files[0].0.ends_with(".csv"));
    }

    #[test]
    fn ascii_chart_shape() {
        let pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, (i * i) as f64)).collect();
        let chart = ascii_chart(&pts, 40, 10);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 12); // 10 rows + axis + x labels
        // Extremes are plotted: top row has a star near the right, bottom
        // row near the left.
        assert!(lines[0].contains('*'));
        assert!(lines[9].contains('*'));
        assert!(lines[0].rfind('*').unwrap() > lines[9].find('*').unwrap());
        // Axis labels show the y range.
        assert!(lines[0].contains("361.00"));
        assert!(lines[9].contains("0.00"));
    }

    #[test]
    fn ascii_chart_degenerate_inputs() {
        assert_eq!(ascii_chart(&[], 40, 10), "");
        assert_eq!(ascii_chart(&[(1.0, 1.0)], 4, 2), "");
        // A single point still renders without panicking.
        let one = ascii_chart(&[(5.0, 5.0)], 20, 5);
        assert!(one.contains('*'));
    }

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(123.456), "123.5");
        assert_eq!(fmt(12.345), "12.35");
        assert_eq!(fmt(0.1234), "0.1234");
    }
}

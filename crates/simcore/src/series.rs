//! Time-series recording and tabular export.
//!
//! The benchmark harness reproduces the paper's figures as text tables.
//! [`Series`] records `(x, y)` points for one curve; [`Table`] lays several
//! curves over a shared x-axis and renders aligned columns.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named curve of `(x, y)` points.
#[derive(Debug, Clone, Default)]
pub struct Series {
    name: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// New empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point. X values need not be sorted; [`Table`] sorts its
    /// union axis.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Recorded points in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Y value at exactly `x`, if recorded (first match).
    pub fn at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (*px - x).abs() < 1e-12)
            .map(|&(_, y)| y)
    }
}

/// A collection of series sharing an x-axis, renderable as a text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    x_label: String,
    series: Vec<Series>,
}

impl Table {
    /// New table with a title and an x-axis label.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            x_label: x_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a curve.
    pub fn add(&mut self, series: Series) -> &mut Self {
        self.series.push(series);
        self
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The curves.
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Look up a series by name.
    pub fn get(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name() == name)
    }

    /// Union of x values across all series, sorted ascending.
    fn x_axis(&self) -> Vec<f64> {
        let mut keys: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &self.series {
            for &(x, _) in s.points() {
                keys.insert(x.to_bits(), x);
            }
        }
        let mut xs: Vec<f64> = keys.into_values().collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN x value"));
        xs
    }

    /// Render as an aligned, human-readable text table.
    pub fn render(&self) -> String {
        let xs = self.x_axis();
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let mut header = vec![self.x_label.clone()];
        header.extend(self.series.iter().map(|s| s.name().to_string()));
        let mut rows: Vec<Vec<String>> = vec![header];
        for &x in &xs {
            let mut row = vec![trim_float(x)];
            for s in &self.series {
                row.push(match s.at(x) {
                    Some(y) => trim_float(y),
                    None => "-".to_string(),
                });
            }
            rows.push(row);
        }
        let cols = rows[0].len();
        let mut widths = vec![0usize; cols];
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        for row in &rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, cell)| format!("{:>width$}", cell, width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }
}

/// Format a float compactly: integers without decimals, otherwise 4
/// significant decimals.
fn trim_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        let s = format!("{v:.4}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_records_points() {
        let mut s = Series::new("lat");
        s.push(1.0, 10.0);
        s.push(2.0, 20.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.at(1.0), Some(10.0));
        assert_eq!(s.at(3.0), None);
        assert!(!s.is_empty());
    }

    #[test]
    fn table_renders_union_axis() {
        let mut a = Series::new("a");
        a.push(1.0, 1.5);
        a.push(2.0, 2.5);
        let mut b = Series::new("b");
        b.push(2.0, 0.25);
        b.push(3.0, 0.5);
        let mut t = Table::new("demo", "x");
        t.add(a);
        t.add(b);
        let text = t.render();
        assert!(text.contains("# demo"));
        assert!(text.contains('x'));
        // x=1 row has "-" for b; x=3 row has "-" for a.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 3); // title + header + 3 x rows
        assert!(lines[2].contains('-') || lines[4].contains('-'));
        assert!(t.get("a").is_some());
        assert!(t.get("zzz").is_none());
    }

    #[test]
    fn trim_float_formats() {
        assert_eq!(trim_float(5.0), "5");
        assert_eq!(trim_float(0.25), "0.25");
        assert_eq!(trim_float(1.23456), "1.2346");
    }

    #[test]
    fn x_axis_sorted_unique() {
        let mut a = Series::new("a");
        a.push(3.0, 1.0);
        a.push(1.0, 1.0);
        a.push(3.0, 2.0);
        let mut t = Table::new("t", "x");
        t.add(a);
        assert_eq!(t.x_axis(), vec![1.0, 3.0]);
    }
}

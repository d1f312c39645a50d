//! ASCII line charts for the experiment harness.
//!
//! The paper's figures are log-scale line plots; the harness reproduces
//! their *shape* directly in the terminal, so a harness run shows
//! curve-vs-curve comparisons without a plotting stack. One chart holds
//! several named series over a shared categorical x axis (the sweep
//! points), rendered on a log-10 y grid.

use std::fmt::Write as _;

/// A named data series (one algorithm's curve).
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// One value per x position; `None` = missing point (e.g. timeout).
    pub values: Vec<Option<f64>>,
}

/// A log-scale ASCII chart.
#[derive(Clone, Debug)]
pub struct AsciiChart {
    title: String,
    x_labels: Vec<String>,
    series: Vec<Series>,
    height: usize,
}

/// Marker characters assigned to series in order.
const MARKS: &[char] = &['*', 'o', '+', 'x', '#', '@', '%', '&'];

impl AsciiChart {
    /// Creates a chart with the given title and x-axis labels.
    pub fn new(title: impl Into<String>, x_labels: Vec<String>) -> Self {
        AsciiChart {
            title: title.into(),
            x_labels,
            series: Vec::new(),
            height: 12,
        }
    }

    /// Sets the plot height in rows (default 12, min 3).
    pub fn height(mut self, rows: usize) -> Self {
        self.height = rows.max(3);
        self
    }

    /// Adds a series; its length should equal the x-label count (shorter
    /// series are padded with missing points).
    pub fn add_series(&mut self, name: impl Into<String>, values: Vec<Option<f64>>) -> &mut Self {
        let mut values = values;
        values.resize(self.x_labels.len(), None);
        self.series.push(Series {
            name: name.into(),
            values,
        });
        self
    }

    /// Renders the chart. Values must be positive to appear (log scale);
    /// non-positive and missing values leave gaps.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);

        let finite: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.values.iter().flatten().copied())
            .filter(|&v| v > 0.0 && v.is_finite())
            .collect();
        if finite.is_empty() || self.x_labels.is_empty() {
            let _ = writeln!(out, "  (no data)");
            return out;
        }
        let lo = finite.iter().copied().fold(f64::INFINITY, f64::min).log10();
        let hi = finite
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .log10();
        let span = (hi - lo).max(1e-9);
        let rows = self.height;
        let col_width = 6usize;
        let width = self.x_labels.len() * col_width;

        // Grid: rows × width, top row = hi.
        let mut grid = vec![vec![' '; width]; rows];
        for (si, s) in self.series.iter().enumerate() {
            let mark = MARKS[si % MARKS.len()];
            for (xi, v) in s.values.iter().enumerate() {
                let Some(v) = v else { continue };
                if !(*v > 0.0 && v.is_finite()) {
                    continue;
                }
                let frac = (v.log10() - lo) / span;
                let row = ((1.0 - frac) * (rows - 1) as f64).round() as usize;
                let col = xi * col_width + col_width / 2;
                let cell = &mut grid[row.min(rows - 1)][col];
                // Overlapping series: show a combined marker.
                *cell = if *cell == ' ' { mark } else { '?' };
            }
        }

        for (ri, row) in grid.iter().enumerate() {
            let level = hi - span * ri as f64 / (rows - 1) as f64;
            let line: String = row.iter().collect();
            let _ = writeln!(out, "{:>9.2e} |{}", 10f64.powf(level), line);
        }
        let _ = writeln!(out, "{:>9} +{}", "", "-".repeat(width));
        let mut labels = format!("{:>9}  ", "");
        for l in &self.x_labels {
            let mut l = l.clone();
            l.truncate(col_width - 1);
            labels.push_str(&format!("{l:^col_width$}"));
        }
        let _ = writeln!(out, "{labels}");
        let legend: Vec<String> = self
            .series
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{} {}", MARKS[i % MARKS.len()], s.name))
            .collect();
        let _ = writeln!(out, "{:>11}{}", "", legend.join("   "));
        out
    }
}

impl std::fmt::Display for AsciiChart {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_series_and_legend() {
        let mut c = AsciiChart::new("test chart", vec!["0.9".into(), "0.5".into(), "0.1".into()]);
        c.add_series("fast", vec![Some(0.01), Some(0.1), Some(1.0)]);
        c.add_series("slow", vec![Some(0.1), Some(1.0), Some(10.0)]);
        let s = c.render();
        assert!(s.contains("test chart"));
        assert!(s.contains("* fast"));
        assert!(s.contains("o slow"));
        assert!(s.contains('|'));
        // Highest value labels the top row.
        assert!(s.contains("1.00e1"));
    }

    #[test]
    fn missing_points_leave_gaps() {
        let mut c = AsciiChart::new("gaps", vec!["a".into(), "b".into()]);
        c.add_series("s", vec![Some(1.0), None]);
        let s = c.render();
        // Only one marker plotted.
        assert_eq!(s.matches('*').count(), 2, "{s}"); // 1 in plot + 1 in legend
    }

    #[test]
    fn empty_chart_degrades_gracefully() {
        let c = AsciiChart::new("empty", vec!["x".into()]);
        assert!(c.render().contains("(no data)"));
        let mut c2 = AsciiChart::new("nonpositive", vec!["x".into()]);
        c2.add_series("z", vec![Some(0.0)]);
        assert!(c2.render().contains("(no data)"));
    }

    #[test]
    fn short_series_padded() {
        let mut c = AsciiChart::new("pad", vec!["a".into(), "b".into(), "c".into()]);
        c.add_series("s", vec![Some(2.0)]);
        let s = c.render();
        assert!(s.contains("s"));
    }

    #[test]
    fn monotone_series_descends_visually() {
        let mut c = AsciiChart::new("m", (0..4).map(|i| i.to_string()).collect());
        c.add_series(
            "down",
            vec![Some(1000.0), Some(100.0), Some(10.0), Some(1.0)],
        );
        let rendered = c.render();
        // First column's marker must appear on an earlier line than the last
        // column's.
        let lines: Vec<&str> = rendered.lines().collect();
        let row_of = |col_hint: usize| {
            lines
                .iter()
                .position(|l| {
                    l.find('*')
                        .map(|pos| (pos > 10) && ((pos - 11) / 6 == col_hint))
                        .unwrap_or(false)
                })
                .unwrap_or(usize::MAX)
        };
        assert!(row_of(0) < row_of(3), "{rendered}");
    }
}

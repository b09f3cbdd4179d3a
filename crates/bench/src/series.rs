//! Result tables for the experiment harness: a labelled set of series
//! over a shared x-axis, with aligned text rendering, speedup summaries
//! (the §5.2.1-style "avg/max over baseline" lines), and serde export.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One experiment table: `x[i]` (e.g. matrix order) against one value
/// per series (e.g. TFLOPS per strategy). `None` marks configurations a
/// strategy cannot run (like cuBLASDx beyond its shared-memory limit).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    pub title: String,
    pub x_label: String,
    pub y_label: String,
    pub x: Vec<usize>,
    pub series: Vec<Series>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Series {
    pub label: String,
    pub values: Vec<Option<f64>>,
}

impl Table {
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
        x: Vec<usize>,
    ) -> Self {
        Table {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            x,
            series: Vec::new(),
        }
    }

    pub fn push_series(&mut self, label: impl Into<String>, values: Vec<Option<f64>>) {
        assert_eq!(values.len(), self.x.len(), "series length mismatch");
        self.series.push(Series {
            label: label.into(),
            values,
        });
    }

    /// Push a series computed at every x.
    pub(crate) fn push_with(
        &mut self,
        label: impl Into<String>,
        f: impl FnMut(usize) -> Option<f64>,
    ) {
        let values = self.x.iter().copied().map(f).collect();
        self.push_series(label, values);
    }

    pub fn series_by_label(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Speedup of series `a` over series `b` at every x where both ran:
    /// returns `(average, maximum)`.
    pub fn speedup(&self, a: &str, b: &str) -> Option<(f64, f64)> {
        let sa = self.series_by_label(a)?;
        let sb = self.series_by_label(b)?;
        let ratios: Vec<f64> = sa
            .values
            .iter()
            .zip(&sb.values)
            .filter_map(|(x, y)| match (x, y) {
                (Some(x), Some(y)) if *y > 0.0 => Some(x / y),
                _ => None,
            })
            .collect();
        if ratios.is_empty() {
            return None;
        }
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let max = ratios.iter().copied().fold(f64::MIN, f64::max);
        Some((avg, max))
    }

    /// Aligned text rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let _ = writeln!(out, "   ({} vs {})", self.y_label, self.x_label);
        let width = 14usize;
        let _ = write!(out, "{:>8}", self.x_label);
        for s in &self.series {
            let _ = write!(out, "{:>width$}", s.label);
        }
        let _ = writeln!(out);
        for (i, &x) in self.x.iter().enumerate() {
            let _ = write!(out, "{x:>8}");
            for s in &self.series {
                match s.values[i] {
                    Some(v) if v.abs() >= 1000.0 => {
                        let _ = write!(out, "{v:>width$.0}");
                    }
                    Some(v) => {
                        let _ = write!(out, "{v:>width$.2}");
                    }
                    None => {
                        let _ = write!(out, "{:>width$}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// §5.2.1-style summary lines: average and max speedup of every
    /// `kami` series over every `baseline` series.
    pub fn summary(&self, kami_labels: &[&str], baseline_labels: &[&str]) -> String {
        let mut out = String::new();
        for k in kami_labels {
            for b in baseline_labels {
                if let Some((avg, max)) = self.speedup(k, b) {
                    let _ = writeln!(out, "{k} over {b}: {avg:.2}x average (up to {max:.2}x)");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("T", "n", "TFLOPS", vec![16, 32]);
        t.push_series("KAMI-1D", vec![Some(10.0), Some(20.0)]);
        t.push_series("base", vec![Some(2.0), Some(10.0)]);
        t.push_series("gappy", vec![None, Some(5.0)]);
        t
    }

    #[test]
    fn speedup_avg_and_max() {
        let t = sample();
        let (avg, max) = t.speedup("KAMI-1D", "base").unwrap();
        assert!((avg - 3.5).abs() < 1e-12);
        assert!((max - 5.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_skips_missing_points() {
        let t = sample();
        let (avg, max) = t.speedup("KAMI-1D", "gappy").unwrap();
        assert_eq!(avg, 4.0);
        assert_eq!(max, 4.0);
    }

    #[test]
    fn render_contains_all_series() {
        let r = sample().render();
        assert!(r.contains("KAMI-1D"));
        assert!(r.contains("gappy"));
        assert!(r.contains('-'));
    }

    #[test]
    fn json_roundtrip() {
        let t = sample();
        let parsed: Table = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        assert_eq!(parsed.x, t.x);
        assert_eq!(parsed.series.len(), 3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_series_rejected() {
        let mut t = Table::new("T", "n", "y", vec![1, 2, 3]);
        t.push_series("s", vec![Some(1.0)]);
    }
}

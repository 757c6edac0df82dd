//! Plain-text / markdown / CSV tables for experiment output.

use serde::{Deserialize, Serialize};
use tf_simcore::SimStats;

/// A rendered experiment result: title, column headers, string rows, and
/// free-form notes (methodology, caveats).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Title, e.g. `"E1: Theorem 1 headline (k=2)"`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of pre-formatted cells (same arity as `headers`).
    pub rows: Vec<Vec<String>>,
    /// Notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// An empty table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn push_row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Fixed-width text rendering.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1))),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }

    /// GitHub-flavored markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        for n in &self.notes {
            out.push_str(&format!("\n_{n}_\n"));
        }
        out
    }

    /// CSV rendering (quotes cells containing commas/quotes).
    pub fn to_csv(&self) -> String {
        fn esc(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Headers for the standard engine-stats columns appended to experiment
/// tables; [`stats_cells`] produces the matching cells. Keeping one shared
/// definition means every table spells the columns the same way.
pub const STATS_HEADERS: [&str; 3] = ["steps", "peak alive", "alloc ms"];

/// Render one run's (or an aggregate's) [`SimStats`] as cells matching
/// [`STATS_HEADERS`].
pub fn stats_cells(s: &SimStats) -> Vec<String> {
    vec![
        s.steps().to_string(),
        s.peak_alive.to_string(),
        fnum(s.alloc_secs() * 1e3),
    ]
}

/// Per-stage timing table built from the tracing layer's buffered span
/// summaries ([`tf_obs::summary`]): one row per `(category, span)` pair
/// with call count, total wall-clock, and mean duration. Returns `None`
/// when no spans were recorded (tracing off, or nothing instrumented
/// ran), so callers can skip rendering an empty table.
pub fn timing_table() -> Option<Table> {
    let summaries = tf_obs::summary();
    if summaries.is_empty() {
        return None;
    }
    let mut t = Table::new("stage timings", &["stage", "calls", "total ms", "mean ms"]);
    for s in &summaries {
        let total_ms = s.total_ns as f64 / 1e6;
        t.push_row(vec![
            format!("{}.{}", s.cat, s.name),
            s.count.to_string(),
            fnum(total_ms),
            fnum(total_ms / s.count.max(1) as f64),
        ]);
    }
    t.note("spans aggregated by (category, name); durations are wall-clock");
    Some(t)
}

/// Format a float with 4 significant digits — compact but comparable.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    if !x.is_finite() {
        return format!("{x}");
    }
    let mag = x.abs().log10().floor() as i32;
    let decimals = (3 - mag).clamp(0, 6) as usize;
    format!("{x:.decimals$}")
}

/// Render replicated measurements as `mean ± std` (sample standard
/// deviation, n − 1 denominator; both 0 for no values, the std 0 for one),
/// each with [`fnum`]'s 4 significant digits.
pub fn mean_std(values: &[f64]) -> String {
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n.max(1) as f64;
    let var = if n > 1 {
        values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    format!("{} ± {}", fnum(mean), fnum(var.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2.5".into()]);
        t.push_row(vec!["xx".into(), "y,z".into()]);
        t.note("a note");
        t
    }

    #[test]
    fn text_rendering_aligns() {
        let s = sample().to_text();
        assert!(s.contains("== demo =="));
        assert!(s.contains("a   b") || s.contains(" a"));
        assert!(s.contains("note: a note"));
    }

    #[test]
    fn markdown_rendering() {
        let s = sample().to_markdown();
        assert!(s.starts_with("### demo"));
        assert!(s.contains("| a | b |"));
        assert!(s.contains("|---|---|"));
        assert!(s.contains("_a note_"));
    }

    #[test]
    fn csv_escapes() {
        let s = sample().to_csv();
        assert!(s.contains("\"y,z\""));
        assert!(s.starts_with("a,b\n"));
    }

    #[test]
    fn stats_cells_match_headers() {
        let s = SimStats {
            arrival_steps: 2,
            completion_steps: 3,
            peak_alive: 7,
            alloc_ns: 1_500_000,
            ..Default::default()
        };
        let cells = stats_cells(&s);
        assert_eq!(cells.len(), STATS_HEADERS.len());
        assert_eq!(cells[0], "5");
        assert_eq!(cells[1], "7");
        assert_eq!(cells[2], "1.500");
    }

    #[test]
    fn timing_table_reflects_recorded_spans() {
        tf_obs::install_collect();
        {
            let _s = tf_obs::span!("tabletest", "stage_a");
        }
        let t = timing_table().expect("spans were recorded");
        assert_eq!(t.headers, vec!["stage", "calls", "total ms", "mean ms"]);
        let row = t
            .rows
            .iter()
            .find(|r| r[0] == "tabletest.stage_a")
            .expect("our span aggregates into a row");
        let calls: u64 = row[1].parse().unwrap();
        assert!(calls >= 1);
        tf_obs::install(tf_obs::SinkSpec::Off);
    }

    #[test]
    fn fnum_significant_digits() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(1.23456), "1.235");
        assert_eq!(fnum(123.456), "123.5");
        assert_eq!(fnum(12345.6), "12346");
        assert_eq!(fnum(0.000123456), "0.000123");
        assert_eq!(fnum(f64::INFINITY), "inf");
    }

    #[test]
    fn mean_std_summarizes_replicates() {
        assert_eq!(mean_std(&[1.0, 2.0, 3.0]), "2.000 ± 1.000");
        assert_eq!(mean_std(&[2.0, 2.0]), "2.000 ± 0");
        assert_eq!(mean_std(&[5.0]), "5.000 ± 0");
        assert_eq!(mean_std(&[]), "0 ± 0");
    }
}

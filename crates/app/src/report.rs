//! Plain-text table formatting for the experiment binaries.

use quake_core::telemetry::{HistSummary, PhaseId, Telemetry};
use std::fmt::Write as _;

/// A fixed-width text table with right-aligned numeric columns, in the
/// style of the paper's figures.
///
/// # Examples
///
/// ```
/// use quake_app::report::Table;
/// let mut t = Table::new(vec!["app", "nodes"]);
/// t.row(vec!["sf10".into(), "7294".into()]);
/// let text = t.render();
/// assert!(text.contains("sf10"));
/// ```
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
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table: header, separator, and rows with every column
    /// padded to its widest cell. The first column is left-aligned, the
    /// rest right-aligned.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                if c == 0 {
                    let _ = write!(out, "{:<width$}", cell, width = widths[c]);
                } else {
                    let _ = write!(out, "{:>width$}", cell, width = widths[c]);
                }
            }
            out.push('\n');
        };
        emit(&self.headers, &mut out);
        let sep: Vec<String> = (0..cols).map(|c| "-".repeat(widths[c])).collect();
        emit(&sep, &mut out);
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }
}

/// Formats a bandwidth in MB/s with sensible precision.
pub fn fmt_mb_per_s(bytes_per_sec: f64) -> String {
    let mb = bytes_per_sec / 1e6;
    if mb >= 100.0 {
        format!("{mb:.0}")
    } else if mb >= 1.0 {
        format!("{mb:.1}")
    } else {
        format!("{mb:.3}")
    }
}

/// Formats a duration in engineering units (ns/us/ms/s) with three
/// significant figures. Unit thresholds sit at the rounding boundary
/// (999.5 of the smaller unit), so 999.7 ns renders as "1.00 us" rather
/// than the "1000.0 ns" the naive `< 1e-6` cut produced.
pub fn fmt_seconds(s: f64) -> String {
    if s == 0.0 {
        return "0".to_string();
    }
    let (v, unit) = if s < 999.5e-9 {
        (s * 1e9, "ns")
    } else if s < 999.5e-6 {
        (s * 1e6, "us")
    } else if s < 0.9995 {
        (s * 1e3, "ms")
    } else {
        (s, "s")
    };
    let digits = if v < 9.995 {
        2
    } else if v < 99.95 {
        1
    } else {
        0
    };
    format!("{v:.digits$} {unit}")
}

/// Wall-clock time of each set-up phase a run goes through, printed as one
/// `set-up:` line so the phases before the measured work account for their
/// own time.
#[derive(Debug, Default, Clone)]
pub struct SetupWalls(pub Vec<(&'static str, f64)>);

impl SetupWalls {
    /// Runs `f` as set-up phase `phase`, recording its wall.
    pub fn time<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.0.push((phase, start.elapsed().as_secs_f64()));
        out
    }
}

impl std::fmt::Display for SetupWalls {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("set-up:")?;
        for (i, (phase, s)) in self.0.iter().enumerate() {
            let sep = if i == 0 { " " } else { ", " };
            write!(f, "{sep}{phase} {}", fmt_seconds(*s))?;
        }
        Ok(())
    }
}

/// Formats a count exactly below 10 000 and with a k/M/G suffix (three
/// significant figures) above.
pub fn fmt_count(n: u64) -> String {
    if n < 10_000 {
        return n.to_string();
    }
    let v = n as f64;
    let (v, suffix) = if v < 999.5e3 {
        (v / 1e3, "k")
    } else if v < 999.5e6 {
        (v / 1e6, "M")
    } else {
        (v / 1e9, "G")
    };
    let digits = if v < 9.995 {
        2
    } else if v < 99.95 {
        1
    } else {
        0
    };
    format!("{v:.digits$}{suffix}")
}

/// Renders the telemetry report: a header line, per-phase wall times, the
/// channel percentile table, and the drift-monitor verdict.
pub fn telemetry_summary(t: &Telemetry) -> String {
    let ns = |v: u64| fmt_seconds(v as f64 * 1e-9);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "telemetry: {} steps, {} spans retained ({} dropped), {} fault instants",
        t.steps,
        fmt_count(t.spans.len() as u64),
        fmt_count(t.spans.dropped()),
        fmt_count(t.instants().len() as u64 + t.instants_dropped()),
    );
    let walls: Vec<String> = PhaseId::ALL
        .iter()
        .filter(|&&p| t.phase_wall_ns(p) > 0)
        .map(|&p| format!("{} {}", p.name(), ns(t.phase_wall_ns(p))))
        .collect();
    if !walls.is_empty() {
        let _ = writeln!(out, "phase walls: {}", walls.join(", "));
    }
    let mut table = Table::new(vec!["channel", "count", "p50", "p90", "p99", "max"]);
    let channels: [(&str, HistSummary, bool); 3] = [
        ("block latency", t.block_latency_ns.summary(), true),
        ("block size (words)", t.block_words.summary(), false),
        ("PE compute", t.compute_ns.summary(), true),
    ];
    for (name, s, is_time) in channels {
        let cell = |v: u64| if is_time { ns(v) } else { v.to_string() };
        table.row(vec![
            name.to_string(),
            fmt_count(s.count),
            cell(s.p50),
            cell(s.p90),
            cell(s.p99),
            cell(s.max),
        ]);
    }
    out.push_str(&table.render());
    match &t.drift {
        None => {
            let _ = writeln!(out, "model drift: monitor off");
        }
        Some(d) => {
            let _ = write!(
                out,
                "model drift: {}/{} observed steps flagged (threshold {:.2})",
                d.flagged_total(),
                d.steps_observed(),
                d.threshold(),
            );
            match d.worst() {
                Some(w) => {
                    let _ = writeln!(
                        out,
                        "; worst score {:.2} at step {} (measured {}, Eq. (2) predicted {})",
                        w.score,
                        w.step,
                        fmt_seconds(w.measured),
                        fmt_seconds(w.predicted),
                    );
                }
                None => out.push('\n'),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_pads_and_aligns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "12345".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equally wide.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[1].starts_with("----"));
        // Numeric column right-aligned.
        assert!(lines[2].ends_with("    1"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn emptiness() {
        let t = Table::new(vec!["x"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn bandwidth_formats() {
        assert_eq!(fmt_mb_per_s(300e6), "300");
        assert_eq!(fmt_mb_per_s(12.34e6), "12.3");
        assert_eq!(fmt_mb_per_s(0.5e6), "0.500");
    }

    #[test]
    fn duration_formats() {
        assert_eq!(fmt_seconds(0.0), "0");
        assert_eq!(fmt_seconds(7e-9), "7.00 ns");
        assert_eq!(fmt_seconds(22e-6), "22.0 us");
        assert_eq!(fmt_seconds(3.5e-3), "3.50 ms");
        assert_eq!(fmt_seconds(2.0), "2.00 s");
    }

    #[test]
    fn duration_unit_boundaries_round_up_cleanly() {
        // The old `< 1e-6` cut rendered these as "1000.0 ns" / "1000.00 us".
        assert_eq!(fmt_seconds(999.7e-9), "1.00 us");
        assert_eq!(fmt_seconds(999.7e-6), "1.00 ms");
        assert_eq!(fmt_seconds(0.9996), "1.00 s");
        // Just below the boundary stays in the smaller unit.
        assert_eq!(fmt_seconds(999.4e-9), "999 ns");
        assert_eq!(fmt_seconds(150e-9), "150 ns");
    }

    #[test]
    fn count_formats() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(9_999), "9999");
        assert_eq!(fmt_count(10_000), "10.0k");
        assert_eq!(fmt_count(123_456), "123k");
        assert_eq!(fmt_count(1_234_567), "1.23M");
        assert_eq!(fmt_count(9_870_000_000), "9.87G");
    }

    #[test]
    fn telemetry_summary_renders_channels_walls_and_drift() {
        use quake_core::telemetry::{Span, Telemetry, TelemetryConfig};
        let mut t = Telemetry::new(2, vec![(12, 2), (10, 2)], TelemetryConfig::default());
        t.steps = 3;
        t.span(Span {
            phase: PhaseId::Compute,
            pe: 0,
            step: 0,
            start_ns: 0,
            dur_ns: 1_500,
        });
        t.add_phase_wall(PhaseId::Compute, 1_500);
        t.block_latency_ns.record(2_000);
        t.block_words.record(12);
        t.compute_ns.record(1_500);
        let text = telemetry_summary(&t);
        assert!(text.contains("telemetry: 3 steps"));
        assert!(text.contains("phase walls: compute 1.50 us"));
        for channel in ["block latency", "block size (words)", "PE compute"] {
            assert!(text.contains(channel), "summary must list '{channel}'");
        }
        for header in ["p50", "p90", "p99", "max"] {
            assert!(
                text.contains(header),
                "summary must have a '{header}' column"
            );
        }
        assert!(text.contains("model drift: 0/0 observed steps flagged"));

        let off = Telemetry::new(
            1,
            vec![(0, 0)],
            TelemetryConfig {
                drift: None,
                ..TelemetryConfig::default()
            },
        );
        assert!(telemetry_summary(&off).contains("model drift: monitor off"));
    }
}

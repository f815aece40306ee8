//! Exporters: Prometheus text exposition, plus the JSON and timestamp
//! helpers the Chrome `trace_event` writer ([`super::merged_chrome_trace`])
//! shares.
//!
//! Both formats are emitted by hand (the workspace has no real serde) and
//! deterministically: histograms in bucket order, object keys fixed. The
//! Prometheus output uses the plain text exposition format: histogram
//! families with cumulative `le` buckets and `+Inf`, plus counters for
//! steps, phase walls, and drift flags.

use std::fmt::Write as _;

use super::histogram::{bucket_upper, Log2Histogram, BUCKETS};
use super::span::PhaseId;
use super::Telemetry;

/// Escapes a string for a JSON literal (the span vocabulary is static and
/// clean, but label strings pass through here for safety).
pub(super) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds to the fractional microseconds Chrome's `ts`/`dur` expect.
pub(super) fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

impl Telemetry {
    /// Renders the Prometheus text exposition.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        write_histogram(
            &mut out,
            "quake_block_latency_seconds",
            "Per-block exchange fetch latency.",
            &self.block_latency_ns,
            1e-9,
        );
        write_histogram(
            &mut out,
            "quake_block_size_words",
            "Exchange block size in 64-bit words.",
            &self.block_words,
            1.0,
        );
        write_histogram(
            &mut out,
            "quake_pe_compute_seconds",
            "Per-PE compute-phase time per step.",
            &self.compute_ns,
            1e-9,
        );
        write_histogram(
            &mut out,
            "quake_node_block_words",
            "Merged cross-node aggregate block size per (node, node) pair \
             in 64-bit words (empty on flat runs).",
            &self.node_block_words,
            1.0,
        );

        out.push_str("# HELP quake_steps_total BSP steps observed by telemetry.\n");
        out.push_str("# TYPE quake_steps_total counter\n");
        let _ = writeln!(out, "quake_steps_total {}", self.steps);

        out.push_str("# HELP quake_phase_seconds_total Accumulated wall time per BSP phase.\n");
        out.push_str("# TYPE quake_phase_seconds_total counter\n");
        for phase in PhaseId::ALL {
            let _ = writeln!(
                out,
                "quake_phase_seconds_total{{phase=\"{}\"}} {}",
                phase.name(),
                fmt_f64(self.phase_wall_ns(phase) as f64 * 1e-9)
            );
        }

        out.push_str("# HELP quake_spans_dropped_total Spans overwritten in the ring buffer.\n");
        out.push_str("# TYPE quake_spans_dropped_total counter\n");
        let _ = writeln!(out, "quake_spans_dropped_total {}", self.spans.dropped());

        out.push_str("# HELP quake_fault_instants_total Fault/recovery point events recorded.\n");
        out.push_str("# TYPE quake_fault_instants_total counter\n");
        let _ = writeln!(
            out,
            "quake_fault_instants_total {}",
            self.instants().len() as u64 + self.instants_dropped()
        );

        if let Some(drift) = &self.drift {
            out.push_str(
                "# HELP quake_drift_flagged_total Steps whose measured exchange time \
                 escaped the Eq. (2) model.\n",
            );
            out.push_str("# TYPE quake_drift_flagged_total counter\n");
            let _ = writeln!(out, "quake_drift_flagged_total {}", drift.flagged_total());
            out.push_str("# HELP quake_drift_beta_bound The section 3.4 beta bound.\n");
            out.push_str("# TYPE quake_drift_beta_bound gauge\n");
            let _ = writeln!(out, "quake_drift_beta_bound {}", fmt_f64(drift.beta()));
            out.push_str("# HELP quake_drift_worst_score Worst per-step drift score seen.\n");
            out.push_str("# TYPE quake_drift_worst_score gauge\n");
            let worst = drift.worst().map_or(0.0, |w| w.score);
            let _ = writeln!(out, "quake_drift_worst_score {}", fmt_f64(worst));
        }
        out
    }
}

/// Prometheus sample values must be plain decimal or scientific floats;
/// `{:e}` keeps tiny latencies exact without 30-digit expansions.
pub(super) fn fmt_f64(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if (1e-3..1e15).contains(&v.abs()) {
        format!("{v}")
    } else {
        format!("{v:e}")
    }
}

/// Writes one histogram family: cumulative `_bucket{le=...}` lines over the
/// occupied log2 buckets, `+Inf`, `_sum`, `_count`.
pub(super) fn write_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    h: &Log2Histogram,
    scale: f64,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let top = (0..BUCKETS).rev().find(|&b| h.buckets()[b] > 0);
    let mut cum = 0u64;
    if let Some(top) = top {
        for b in 0..=top {
            cum += h.buckets()[b];
            let le = bucket_upper(b) as f64 * scale;
            let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", fmt_f64(le));
        }
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{name}_sum {}", fmt_f64(h.sum() as f64 * scale));
    let _ = writeln!(out, "{name}_count {}", h.count());
}

#[cfg(test)]
mod tests {
    use super::super::span::{Span, TraceInstant};
    use super::super::{merged_chrome_trace, ShardTrace, Telemetry, TelemetryConfig};
    use super::*;

    fn sample_telemetry() -> Telemetry {
        let mut t = Telemetry::new(2, vec![(30, 1), (30, 1)], TelemetryConfig::default());
        for step in 0..3u64 {
            for pe in 0..2u32 {
                t.span(Span {
                    phase: PhaseId::Compute,
                    pe,
                    step,
                    start_ns: step * 1000,
                    dur_ns: 400 + u64::from(pe),
                });
                t.span(Span {
                    phase: PhaseId::Exchange,
                    pe,
                    step,
                    start_ns: step * 1000 + 500,
                    dur_ns: 100,
                });
                t.span(Span {
                    phase: PhaseId::Barrier,
                    pe,
                    step,
                    start_ns: step * 1000 + 600,
                    dur_ns: 10,
                });
                t.compute_ns.record(400);
            }
            t.span(Span {
                phase: PhaseId::Fold,
                pe: 2,
                step,
                start_ns: step * 1000 + 700,
                dur_ns: 50,
            });
            t.block_latency_ns.record(120 + step);
            t.block_words.record(30);
            t.add_phase_wall(PhaseId::Compute, 401);
            t.add_phase_wall(PhaseId::Exchange, 100);
            t.steps += 1;
        }
        t.instant(TraceInstant {
            name: "fault:crash",
            pe: 1,
            step: 1,
            at_ns: 1550,
        });
        t
    }

    #[test]
    fn chrome_trace_has_metadata_spans_and_instants() {
        let t = sample_telemetry();
        let text = merged_chrome_trace("smvp sf10 x4", &[ShardTrace::local(&t)], &[]);
        assert!(text.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(text.ends_with("]}"));
        for needle in [
            "\"process_name\"",
            "\"thread_name\"",
            "\"driver\"",
            "\"name\":\"compute\"",
            "\"name\":\"exchange\"",
            "\"name\":\"barrier\"",
            "\"name\":\"fold\"",
            "\"ph\":\"X\"",
            "\"ph\":\"i\"",
            "\"name\":\"fault:crash\"",
            "\"args\":{\"step\":1}",
        ] {
            assert!(text.contains(needle), "missing {needle} in trace:\n{text}");
        }
        // ts in fractional µs: 1550 ns → 1.550.
        assert!(text.contains("\"ts\":1.550"));
    }

    #[test]
    fn prometheus_exposition_has_expected_families() {
        let t = sample_telemetry();
        let text = t.to_prometheus();
        for family in [
            "quake_block_latency_seconds",
            "quake_block_size_words",
            "quake_pe_compute_seconds",
            "quake_steps_total",
            "quake_phase_seconds_total",
            "quake_spans_dropped_total",
            "quake_fault_instants_total",
            "quake_drift_flagged_total",
            "quake_drift_beta_bound",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        assert!(text.contains("quake_steps_total 3"));
        assert!(text.contains("_bucket{le=\"+Inf\"} 3"));
        // Cumulative bucket counts end at the total count.
        assert!(text.contains("quake_block_size_words_count 3"));
        assert!(text.contains("phase=\"compute\""));
    }

    #[test]
    fn empty_telemetry_still_exports_valid_documents() {
        let t = Telemetry::new(1, vec![(0, 0)], TelemetryConfig::default());
        let trace = merged_chrome_trace("empty", &[ShardTrace::local(&t)], &[]);
        assert!(trace.contains("traceEvents"));
        let prom = t.to_prometheus();
        assert!(prom.contains("quake_steps_total 0"));
        assert!(prom.contains("quake_block_latency_seconds_bucket{le=\"+Inf\"} 0"));
    }

    #[test]
    fn json_escaping_covers_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn us_formats_ns_remainder() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1_550), "1.550");
        assert_eq!(us(1_000_007), "1000.007");
    }
}

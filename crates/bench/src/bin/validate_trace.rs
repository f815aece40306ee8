//! Validates the telemetry artifacts a `quake smvp-run` wrote: the Chrome
//! `trace_event` JSON (`--trace-json`) and/or the Prometheus text
//! exposition (`--metrics`). CI runs this against a live sf10 run.
//!
//! Usage:
//!   validate_trace --trace-json FILE [--require-spans a,b,c]
//!                  [--require-instants] [--require-processes N]
//!                  [--require-flows] [--metrics FILE]
//!
//! `--require-processes N` asserts the trace spans at least N distinct
//! pids (a merged multi-shard trace shows one per shard plus the
//! supervisor); `--require-flows` asserts at least one paired cross-shard
//! flow arrow made it into the trace. Exits 0 when every named artifact
//! is structurally valid (and contains the required span names / at
//! least one instant / the expected metric families), 1 otherwise.

use quake_bench::trace::{validate_chrome_trace, validate_prometheus};
use std::process::ExitCode;

/// Metric families the exporter always emits, checked whenever a metrics
/// file is validated.
const EXPECTED_FAMILIES: [(&str, &str); 5] = [
    ("quake_block_latency_seconds", "histogram"),
    ("quake_block_size_words", "histogram"),
    ("quake_pe_compute_seconds", "histogram"),
    ("quake_steps_total", "counter"),
    ("quake_phase_seconds_total", "counter"),
];

fn fail(what: &str, why: &str) -> ExitCode {
    eprintln!("validate_trace: {what}: {why}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut trace_json = String::new();
    let mut metrics = String::new();
    let mut require_spans: Vec<String> = Vec::new();
    let mut require_instants = false;
    let mut require_processes = 0usize;
    let mut require_flows = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--trace-json" => trace_json = value("--trace-json"),
            "--metrics" => metrics = value("--metrics"),
            "--require-spans" => {
                require_spans = value("--require-spans")
                    .split(',')
                    .map(str::to_string)
                    .collect();
            }
            "--require-instants" => require_instants = true,
            "--require-processes" => {
                require_processes = value("--require-processes")
                    .parse()
                    .expect("--require-processes needs a count");
            }
            "--require-flows" => require_flows = true,
            other => {
                eprintln!("validate_trace: unknown argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }
    if trace_json.is_empty() && metrics.is_empty() {
        eprintln!("validate_trace: nothing to do (pass --trace-json and/or --metrics)");
        return ExitCode::FAILURE;
    }

    if !trace_json.is_empty() {
        let text = match std::fs::read_to_string(&trace_json) {
            Ok(t) => t,
            Err(e) => return fail(&trace_json, &e.to_string()),
        };
        let summary = match validate_chrome_trace(&text) {
            Ok(s) => s,
            Err(e) => return fail(&trace_json, &e),
        };
        for span in &require_spans {
            if !summary.has_span(span) {
                return fail(&trace_json, &format!("missing required span '{span}'"));
            }
        }
        if require_instants && summary.instants == 0 {
            return fail(&trace_json, "no instant events (expected fault instants)");
        }
        if summary.pids.len() < require_processes {
            return fail(
                &trace_json,
                &format!(
                    "only {} distinct pids, expected at least {require_processes} \
                     (one per shard in a merged trace)",
                    summary.pids.len()
                ),
            );
        }
        if require_flows && summary.flow_starts == 0 {
            return fail(&trace_json, "no flow events (expected ghost-block arrows)");
        }
        println!(
            "{trace_json}: OK — {} metadata, {} spans ({}), {} instants ({}), \
             {} pids, {} flows",
            summary.metadata,
            summary.spans,
            summary
                .span_names
                .iter()
                .cloned()
                .collect::<Vec<_>>()
                .join(","),
            summary.instants,
            summary
                .instant_names
                .iter()
                .cloned()
                .collect::<Vec<_>>()
                .join(","),
            summary.pids.len(),
            summary.flow_starts,
        );
    }

    if !metrics.is_empty() {
        let text = match std::fs::read_to_string(&metrics) {
            Ok(t) => t,
            Err(e) => return fail(&metrics, &e.to_string()),
        };
        let summary = match validate_prometheus(&text) {
            Ok(s) => s,
            Err(e) => return fail(&metrics, &e),
        };
        for (family, kind) in EXPECTED_FAMILIES {
            if !summary.has_family(family, kind) {
                return fail(&metrics, &format!("missing {kind} family '{family}'"));
            }
        }
        println!(
            "{metrics}: OK — {} families, {} samples",
            summary.families.len(),
            summary.samples
        );
    }
    ExitCode::SUCCESS
}

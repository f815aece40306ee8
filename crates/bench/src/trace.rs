//! Validators for the telemetry artifacts `quake smvp-run` writes: the
//! Chrome `trace_event` JSON trace (`--trace-json`) and the Prometheus
//! text exposition (`--metrics`).
//!
//! CI runs these (via the `validate_trace` binary) against a live sf10
//! run, so the exporters in `quake_core::telemetry` cannot silently drift
//! away from the two formats' actual grammars. The checks are
//! deliberately structural — event shape, phase vocabulary, label syntax,
//! cumulative-bucket monotonicity — not byte-for-byte golden files, so
//! they stay stable across timing noise.

use crate::json::{parse, Json};
use std::collections::{BTreeMap, BTreeSet};

/// What a validated Chrome trace contained.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// `ph:"M"` metadata events (process/thread names).
    pub metadata: usize,
    /// `ph:"X"` complete (span) events.
    pub spans: usize,
    /// `ph:"i"` instant events.
    pub instants: usize,
    /// `ph:"s"` flow-start events (cross-process ghost arrows).
    pub flow_starts: usize,
    /// `ph:"t"` flow-finish events.
    pub flow_finishes: usize,
    /// Distinct process ids observed across all events — a merged
    /// multi-shard trace shows one per shard (plus the supervisor).
    pub pids: BTreeSet<i64>,
    /// Distinct span names observed, sorted.
    pub span_names: BTreeSet<String>,
    /// Distinct instant names observed, sorted.
    pub instant_names: BTreeSet<String>,
}

impl TraceSummary {
    /// True if a span with the given name (a BSP phase) was present.
    pub fn has_span(&self, name: &str) -> bool {
        self.span_names.contains(name)
    }
}

fn field<'a>(event: &'a Json, key: &str, i: usize) -> Result<&'a Json, String> {
    event
        .get(key)
        .ok_or_else(|| format!("event {i}: missing '{key}'"))
}

fn num_field(event: &Json, key: &str, i: usize) -> Result<f64, String> {
    field(event, key, i)?
        .as_f64()
        .ok_or_else(|| format!("event {i}: '{key}' is not a number"))
}

fn str_field<'a>(event: &'a Json, key: &str, i: usize) -> Result<&'a str, String> {
    field(event, key, i)?
        .as_str()
        .ok_or_else(|| format!("event {i}: '{key}' is not a string"))
}

/// Validates a Chrome `trace_event` JSON document (Object Format: a root
/// object with a `traceEvents` array) and summarizes its contents.
///
/// Flow events are held to the pairing contract the trace merger
/// guarantees: every flow id must carry both its `s` and its `t`
/// endpoint, and the finish may never precede its start.
///
/// # Errors
///
/// Returns a description of the first structural violation: unparsable
/// JSON, a missing/ill-typed required field, an unknown event phase, a
/// negative timestamp/duration, or a dangling/backward flow.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("root object must have a 'traceEvents' array")?;
    let mut summary = TraceSummary::default();
    let mut flow_starts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut flow_finishes: BTreeMap<u64, f64> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        if event.as_object().is_none() {
            return Err(format!("event {i}: not an object"));
        }
        let name = str_field(event, "name", i)?.to_string();
        let ph = str_field(event, "ph", i)?;
        summary.pids.insert(num_field(event, "pid", i)? as i64);
        num_field(event, "tid", i)?;
        match ph {
            "M" => {
                // Metadata: args.name carries the process/thread label.
                let args = field(event, "args", i)?;
                args.get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: metadata without args.name"))?;
                summary.metadata += 1;
            }
            "X" => {
                let ts = num_field(event, "ts", i)?;
                let dur = num_field(event, "dur", i)?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i}: negative ts/dur"));
                }
                summary.spans += 1;
                summary.span_names.insert(name);
            }
            "i" => {
                let ts = num_field(event, "ts", i)?;
                if ts < 0.0 {
                    return Err(format!("event {i}: negative ts"));
                }
                let scope = str_field(event, "s", i)?;
                if !matches!(scope, "t" | "p" | "g") {
                    return Err(format!("event {i}: bad instant scope '{scope}'"));
                }
                summary.instants += 1;
                summary.instant_names.insert(name);
            }
            "s" | "t" => {
                let ts = num_field(event, "ts", i)?;
                if ts < 0.0 {
                    return Err(format!("event {i}: negative ts"));
                }
                let id = num_field(event, "id", i)?;
                if !(id.is_finite() && id >= 0.0 && id.fract() == 0.0) {
                    return Err(format!("event {i}: flow id must be a nonnegative integer"));
                }
                let book = if ph == "s" {
                    summary.flow_starts += 1;
                    &mut flow_starts
                } else {
                    summary.flow_finishes += 1;
                    &mut flow_finishes
                };
                if book.insert(id as u64, ts).is_some() {
                    return Err(format!("event {i}: duplicate flow '{ph}' for id {id}"));
                }
            }
            other => return Err(format!("event {i}: unsupported phase '{other}'")),
        }
    }
    for (id, s_ts) in &flow_starts {
        let t_ts = flow_finishes
            .get(id)
            .ok_or_else(|| format!("flow id {id}: 's' without a matching 't'"))?;
        if t_ts < s_ts {
            return Err(format!("flow id {id}: finish precedes start"));
        }
    }
    if let Some((id, _)) = flow_finishes
        .iter()
        .find(|(id, _)| !flow_starts.contains_key(id))
    {
        return Err(format!("flow id {id}: 't' without a matching 's'"));
    }
    Ok(summary)
}

/// What a validated Prometheus exposition contained.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSummary {
    /// `# TYPE` declarations: family name → type string.
    pub families: BTreeMap<String, String>,
    /// Total sample lines.
    pub samples: usize,
}

impl MetricsSummary {
    /// True if the family was declared with the given type.
    pub fn has_family(&self, name: &str, kind: &str) -> bool {
        self.families.get(name).map(String::as_str) == Some(kind)
    }
}

fn metric_name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Splits a sample line into (metric name, label text or "", value).
fn split_sample(line: &str) -> Result<(&str, &str, f64), String> {
    let (name_and_labels, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("sample without value: '{line}'"))?;
    let value: f64 = value
        .parse()
        .map_err(|_| format!("bad sample value '{value}' in '{line}'"))?;
    let (name, labels) = match name_and_labels.split_once('{') {
        None => (name_and_labels, ""),
        Some((name, rest)) => {
            let labels = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated label set in '{line}'"))?;
            (name, labels)
        }
    };
    if !metric_name_ok(name) {
        return Err(format!("bad metric name '{name}'"));
    }
    // Each label must be key="value" (the exporter never emits quotes or
    // commas inside label values, so a flat split is exact here).
    for pair in labels.split(',').filter(|p| !p.is_empty()) {
        let (key, val) = pair
            .split_once('=')
            .ok_or_else(|| format!("bad label '{pair}' in '{line}'"))?;
        if !metric_name_ok(key) || !val.starts_with('"') || !val.ends_with('"') || val.len() < 2 {
            return Err(format!("bad label '{pair}' in '{line}'"));
        }
    }
    Ok((name, labels, value))
}

/// The family a sample belongs to: histogram series drop their
/// `_bucket`/`_sum`/`_count` suffix when such a family was declared.
fn family_of<'a>(name: &'a str, families: &BTreeMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if families.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

fn le_value(labels: &str) -> Option<f64> {
    labels.split(',').find_map(|pair| {
        let (key, val) = pair.split_once('=')?;
        if key != "le" {
            return None;
        }
        val.trim_matches('"').parse().ok()
    })
}

/// Validates a Prometheus text exposition: comment/HELP/TYPE grammar,
/// sample syntax, every sample belonging to a declared family, and for
/// each histogram a cumulative, `+Inf`-terminated bucket series whose
/// total agrees with `_count`.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_prometheus(text: &str) -> Result<MetricsSummary, String> {
    let mut summary = MetricsSummary::default();
    // Histogram series — keyed by (family, non-`le` labels) so a family
    // exported once unlabeled and once per shard/generation validates
    // each label set as its own cumulative series —
    // → (le thresholds, bucket values, count, saw _sum).
    type HistState = (Vec<f64>, Vec<f64>, Option<f64>, bool);
    let mut declared_hists: BTreeSet<String> = BTreeSet::new();
    let mut histograms: BTreeMap<(String, String), HistState> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            match words.next() {
                Some("HELP") => {
                    let name = words.next().ok_or("HELP without a metric name")?;
                    if !metric_name_ok(name) {
                        return Err(format!("bad metric name in HELP: '{name}'"));
                    }
                }
                Some("TYPE") => {
                    let name = words.next().ok_or("TYPE without a metric name")?;
                    let kind = words.next().ok_or("TYPE without a type")?;
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("unknown metric type '{kind}'"));
                    }
                    summary.families.insert(name.to_string(), kind.to_string());
                    if kind == "histogram" {
                        declared_hists.insert(name.to_string());
                    }
                }
                // Free-form comments are legal exposition.
                _ => {}
            }
            continue;
        }
        let (name, labels, value) = split_sample(line)?;
        let family = family_of(name, &summary.families);
        if !summary.families.contains_key(family) {
            return Err(format!("sample '{name}' has no # TYPE declaration"));
        }
        summary.samples += 1;
        if declared_hists.contains(family) {
            let series: String = labels
                .split(',')
                .filter(|p| !p.is_empty() && !p.starts_with("le="))
                .collect::<Vec<_>>()
                .join(",");
            let (les, buckets, count, saw_sum) =
                histograms.entry((family.to_string(), series)).or_default();
            if name.ends_with("_bucket") {
                let le = le_value(labels)
                    .ok_or_else(|| format!("bucket without an 'le' label: '{line}'"))?;
                les.push(le);
                buckets.push(value);
            } else if name.ends_with("_count") {
                *count = Some(value);
            } else if name.ends_with("_sum") {
                *saw_sum = true;
            }
        }
    }
    for family in &declared_hists {
        if !histograms.keys().any(|(f, _)| f == family) {
            return Err(format!("histogram '{family}' has no buckets"));
        }
    }
    for ((family, series), (les, buckets, count, saw_sum)) in &histograms {
        let what = if series.is_empty() {
            family.clone()
        } else {
            format!("{family}{{{series}}}")
        };
        if buckets.is_empty() {
            return Err(format!("histogram '{what}' has no buckets"));
        }
        if !les.windows(2).all(|w| w[0] <= w[1]) || *les.last().expect("nonempty") != f64::INFINITY
        {
            return Err(format!(
                "histogram '{what}' 'le' series must ascend to +Inf"
            ));
        }
        if !buckets.windows(2).all(|w| w[0] <= w[1]) {
            return Err(format!("histogram '{what}' buckets are not cumulative"));
        }
        let count = count.ok_or_else(|| format!("histogram '{what}' missing _count"))?;
        if !saw_sum {
            return Err(format!("histogram '{what}' missing _sum"));
        }
        let last = *buckets.last().expect("nonempty");
        if (last - count).abs() > 1e-9 {
            return Err(format!(
                "histogram '{what}': +Inf bucket {last} != _count {count}"
            ));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quake_core::telemetry::{
        merged_chrome_trace, PhaseId, ShardTrace, Span, SupervisorInstant, Telemetry,
        TelemetryConfig, TraceInstant,
    };

    fn sample_telemetry() -> Telemetry {
        let mut t = Telemetry::new(2, vec![(20, 2), (16, 2)], TelemetryConfig::default());
        for (pe, phase) in [(0, PhaseId::Compute), (1, PhaseId::Exchange)] {
            t.span(Span {
                phase,
                pe,
                step: 0,
                start_ns: 100 * u64::from(pe),
                dur_ns: 1_000,
            });
            t.add_phase_wall(phase, 1_000);
        }
        t.instant(TraceInstant {
            name: "fault:crash",
            pe: 1,
            step: 0,
            at_ns: 42,
        });
        t.block_latency_ns.record(2_000);
        t.block_words.record(20);
        t.compute_ns.record(1_000);
        t.steps = 1;
        t
    }

    #[test]
    fn live_chrome_trace_passes_validation() {
        let shard = ShardTrace::local(&sample_telemetry());
        let trace = merged_chrome_trace("sf-test", &[shard], &[]);
        let summary = validate_chrome_trace(&trace).expect("valid trace");
        assert!(summary.metadata >= 3, "process + 2 PE lanes at minimum");
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.instants, 1);
        assert!(summary.has_span("compute") && summary.has_span("exchange"));
        assert!(summary.instant_names.contains("fault:crash"));
    }

    #[test]
    fn supervisor_only_chrome_trace_passes_validation() {
        let sup = [SupervisorInstant {
            name: "shard-respawn".to_string(),
            shard: 1,
            at_ns: 1_000,
        }];
        let summary =
            validate_chrome_trace(&merged_chrome_trace("sf-test", &[], &sup)).expect("valid");
        assert_eq!(summary.spans, 0);
        assert_eq!(summary.instants, 1);
        assert!(summary.instant_names.contains("shard-respawn"));
    }

    #[test]
    fn live_prometheus_exposition_passes_validation() {
        let text = sample_telemetry().to_prometheus();
        let summary = validate_prometheus(&text).expect("valid exposition");
        assert!(summary.has_family("quake_block_latency_seconds", "histogram"));
        assert!(summary.has_family("quake_block_size_words", "histogram"));
        assert!(summary.has_family("quake_steps_total", "counter"));
        assert!(summary.samples > 10);
    }

    #[test]
    fn trace_validator_rejects_structural_violations() {
        for bad in [
            "not json",
            "{}",
            r#"{"traceEvents":[{"ph":"X"}]}"#,
            r#"{"traceEvents":[{"name":"x","ph":"Q","pid":0,"tid":0}]}"#,
            r#"{"traceEvents":[{"name":"x","ph":"X","pid":0,"tid":0,"ts":-1,"dur":0}]}"#,
            r#"{"traceEvents":[{"name":"x","ph":"i","pid":0,"tid":0,"ts":0,"s":"z"}]}"#,
            r#"{"traceEvents":[{"name":"x","ph":"M","pid":0,"tid":0,"args":{}}]}"#,
        ] {
            assert!(validate_chrome_trace(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn prometheus_validator_rejects_structural_violations() {
        for bad in [
            "quake_undeclared_total 1",
            "# TYPE quake_x counter\nquake_x",
            "# TYPE quake_x counter\nquake_x notanumber",
            "# TYPE quake_x frobnitz\nquake_x 1",
            "# TYPE quake_x counter\nquake_x{le=\"unterminated} 1",
            "# TYPE quake_h histogram\nquake_h_sum 0\nquake_h_count 0",
            // Non-cumulative buckets.
            "# TYPE quake_h histogram\n\
             quake_h_bucket{le=\"1\"} 5\nquake_h_bucket{le=\"+Inf\"} 3\n\
             quake_h_sum 1\nquake_h_count 3",
            // +Inf bucket disagrees with _count.
            "# TYPE quake_h histogram\n\
             quake_h_bucket{le=\"+Inf\"} 3\nquake_h_sum 1\nquake_h_count 4",
        ] {
            assert!(validate_prometheus(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn flow_events_validate_and_are_counted() {
        let text = r#"{"traceEvents":[
            {"name":"ghost 0->1","ph":"s","pid":1,"tid":0,"ts":10,"id":1,"cat":"ghost"},
            {"name":"ghost 0->1","ph":"t","pid":2,"tid":0,"ts":15,"id":1,"cat":"ghost"}
        ]}"#;
        let summary = validate_chrome_trace(text).expect("paired flow is valid");
        assert_eq!(summary.flow_starts, 1);
        assert_eq!(summary.flow_finishes, 1);
        assert_eq!(summary.pids.len(), 2, "flows span two shard processes");
    }

    #[test]
    fn flow_validator_rejects_dangling_and_backward_flows() {
        for (bad, why) in [
            (
                r#"{"traceEvents":[{"name":"g","ph":"s","pid":1,"tid":0,"ts":10,"id":1}]}"#,
                "s without t",
            ),
            (
                r#"{"traceEvents":[{"name":"g","ph":"t","pid":1,"tid":0,"ts":10,"id":1}]}"#,
                "t without s",
            ),
            (
                r#"{"traceEvents":[
                    {"name":"g","ph":"s","pid":1,"tid":0,"ts":20,"id":1},
                    {"name":"g","ph":"t","pid":2,"tid":0,"ts":10,"id":1}]}"#,
                "finish precedes start",
            ),
            (
                r#"{"traceEvents":[
                    {"name":"g","ph":"s","pid":1,"tid":0,"ts":1,"id":1},
                    {"name":"g","ph":"s","pid":1,"tid":0,"ts":2,"id":1},
                    {"name":"g","ph":"t","pid":2,"tid":0,"ts":3,"id":1}]}"#,
                "duplicate start",
            ),
            (
                r#"{"traceEvents":[{"name":"g","ph":"s","pid":1,"tid":0,"ts":1,"id":1.5}]}"#,
                "fractional id",
            ),
        ] {
            assert!(validate_chrome_trace(bad).is_err(), "{why} should fail");
        }
    }

    #[test]
    fn labeled_histogram_series_validate_independently() {
        // One family, a global series plus two shard-labeled series — each
        // must be cumulative on its own, not concatenated.
        let text = "# TYPE quake_h histogram\n\
                    quake_h_bucket{le=\"1\"} 4\nquake_h_bucket{le=\"+Inf\"} 6\n\
                    quake_h_sum 9\nquake_h_count 6\n\
                    quake_h_bucket{shard=\"0\",le=\"1\"} 3\n\
                    quake_h_bucket{shard=\"0\",le=\"+Inf\"} 4\n\
                    quake_h_sum{shard=\"0\"} 5\nquake_h_count{shard=\"0\"} 4\n\
                    quake_h_bucket{shard=\"1\",le=\"1\"} 1\n\
                    quake_h_bucket{shard=\"1\",le=\"+Inf\"} 2\n\
                    quake_h_sum{shard=\"1\"} 4\nquake_h_count{shard=\"1\"} 2\n";
        validate_prometheus(text).expect("each labeled series is cumulative on its own");

        // A broken shard series must still be caught even when the global
        // series is fine.
        let broken = "# TYPE quake_h histogram\n\
                      quake_h_bucket{le=\"+Inf\"} 6\nquake_h_sum 9\nquake_h_count 6\n\
                      quake_h_bucket{shard=\"0\",le=\"1\"} 5\n\
                      quake_h_bucket{shard=\"0\",le=\"+Inf\"} 3\n\
                      quake_h_sum{shard=\"0\"} 5\nquake_h_count{shard=\"0\"} 3\n";
        let err = validate_prometheus(broken).expect_err("non-cumulative shard series");
        assert!(err.contains("shard"), "error names the series: {err}");
    }

    #[test]
    fn prometheus_validator_accepts_a_minimal_hand_written_exposition() {
        let text = "# HELP quake_x total things\n# TYPE quake_x counter\n\
                    quake_x{phase=\"compute\"} 12\n\
                    # TYPE quake_h histogram\n\
                    quake_h_bucket{le=\"1\"} 1\nquake_h_bucket{le=\"+Inf\"} 2\n\
                    quake_h_sum 3.5\nquake_h_count 2\n";
        let summary = validate_prometheus(text).expect("valid");
        assert_eq!(summary.samples, 5);
        assert!(summary.has_family("quake_h", "histogram"));
    }
}

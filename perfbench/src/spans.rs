//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public API; nothing inside the program is instrumented. Every
//! span has a name, a start, an end and a parent, and carries the trace id
//! of the step it belongs to. Spans stay in memory until the run ends and
//! are then written once as a Chrome `trace_event` document.

use quake_bench::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Trace id shared by every span of one step.
    pub step: u64,
    /// Measurements read from the layer's own report while the span was open.
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn arg(&self, key: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// Records spans when on; every method is a no-op when off, so the
/// untraced run reads no clocks and stores nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    step: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
        }
    }

    pub fn off() -> Self {
        Self::new(false)
    }

    /// Starts a new trace id; spans opened from here on share it.
    pub fn begin_step(&mut self) {
        if self.on {
            self.step += 1;
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            step: self.step,
            args: Vec::new(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `enter` returned. Spans close innermost first.
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            assert_eq!(
                self.open.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Attaches a measurement to an open or closed span.
    pub fn arg(&mut self, id: Option<usize>, key: &'static str, value: f64) {
        if let Some(id) = id {
            self.spans[id].args.push((key, value));
        }
    }

    /// Every closed span with this name, in recording order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time of every span: its duration minus the time its children
    /// cover. Children of one span never overlap (one thread records).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        self.spans
            .iter()
            .zip(child_ms)
            .map(|(s, c)| s.ms() - c)
            .collect()
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ms()) {
            *by_name.entry(s.name).or_insert(0.0) += own;
        }
        by_name
    }

    /// The recorded spans as a Chrome `trace_event` document.
    pub fn chrome_trace(&self, label: &str) -> String {
        let mut events = vec![Json::obj(vec![
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::num(1.0)),
            ("tid", Json::num(1.0)),
            ("args", Json::obj(vec![("name", Json::str(label))])),
        ])];
        for (id, (s, own)) in self.spans.iter().zip(self.self_ms()).enumerate() {
            let mut args = vec![
                ("id", Json::num(id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                ),
                ("step", Json::num(s.step as f64)),
                ("self_us", Json::num(own * 1e3)),
            ];
            args.extend(s.args.iter().map(|&(k, v)| (k, Json::num(v))));
            events.push(Json::obj(vec![
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::num(s.start_ns as f64 / 1e3)),
                ("dur", Json::num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::num(1.0)),
                ("tid", Json::num(1.0)),
                ("args", Json::obj(args)),
            ]));
        }
        Json::obj(vec![
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Array(events)),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_trace_validates() {
        let mut tr = Tracer::new(true);
        tr.begin_step();
        let outer = tr.enter("outer");
        let inner = tr.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.exit(inner);
        tr.exit(outer);
        let own = tr.self_ms();
        assert!(own[0] >= 0.0 && own[0] < tr.spans[0].ms());
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[0].step, tr.spans[1].step);
        let summary = quake_bench::trace::validate_chrome_trace(&tr.chrome_trace("t")).unwrap();
        assert_eq!(summary.spans, 2);
        assert!(summary.has_span("inner"));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let id = tr.enter("x");
        tr.arg(id, "k", 1.0);
        tr.exit(id);
        assert!(tr.spans.is_empty());
    }
}

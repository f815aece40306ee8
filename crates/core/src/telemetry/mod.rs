//! Structured telemetry for the instrumented BSP executor: span tracing,
//! log2-bucketed histograms, live model-drift detection, and exporters.
//!
//! The paper's central finding is that *small-block latency*, not
//! bandwidth, binds the SMVP exchange (§5: µs-scale maximal blocks vs
//! ~100 ns → 7 ns cache-line blocks). Seeing that in a live run requires
//! per-block and per-phase *distributions*, not the coarse per-phase wall
//! sums the executor's counters accumulate. This module provides the
//! observability layer:
//!
//! * [`SpanRing`] / [`PhaseId`] — a preallocated overwrite-oldest ring of
//!   per-PE, per-step phase spans with a fixed span vocabulary
//!   (`compute`, `exchange`, `barrier`, `recover`, plus `assemble`/`fold`
//!   and the nested `post`/`wait`/`gather`); recording is allocation-free
//!   in steady state;
//! * [`Log2Histogram`] — HDR-style power-of-two-bucketed histograms with
//!   p50/p90/p99/max summaries, used for block latency, block size and
//!   per-PE compute time;
//! * [`DriftMonitor`] — per-step comparison of the measured exchange time
//!   against the Eq. (2) prediction `B_max·T_l + C_max·T_w` and the §3.4 β
//!   bracket, flagging steps the linear model cannot explain;
//! * [`Telemetry`] — the aggregate the executor owns, with its Prometheus
//!   text exposition ([`Telemetry::to_prometheus`]);
//! * [`merged_chrome_trace`] — the one Chrome `trace_event` JSON writer
//!   (loadable in `chrome://tracing` or Perfetto), over per-shard
//!   snapshots; an in-process run is one pseudo-shard
//!   ([`ShardTrace::local`]).
//!
//! Everything here operates on plain integers handed in by the executor
//! (nanosecond offsets from its epoch), so the module is deterministic
//! under test and free of any clock or I/O dependency.

mod context;
mod drift;
mod export;
mod histogram;
mod merge;
pub mod profile;
mod span;

pub use context::{FlowKind, FlowRec, InstantRec, TelemetrySnapshot, TraceContext};
pub use drift::{DriftConfig, DriftMonitor, DriftSample};
pub use histogram::{bucket_lower, bucket_of, bucket_upper, HistSummary, Log2Histogram, BUCKETS};
pub use merge::{merged_chrome_trace, merged_telemetry, ShardTrace, SupervisorInstant};
pub use span::{PhaseId, Span, SpanRing, TraceInstant};

/// Construction-time knobs for [`Telemetry`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Span ring capacity (most recent spans retained).
    pub span_capacity: usize,
    /// Instant-event capacity (faults are rare; excess is counted, not
    /// kept).
    pub instant_capacity: usize,
    /// Drift-monitor configuration, or `None` to disable drift detection.
    pub drift: Option<DriftConfig>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            span_capacity: 65_536,
            instant_capacity: 4_096,
            drift: Some(DriftConfig::default()),
        }
    }
}

/// The telemetry state one executor owns: spans, instants, histograms, the
/// drift monitor, and per-phase wall accumulators.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Per-PE, per-step phase spans (most recent window).
    pub spans: SpanRing,
    instants: Vec<TraceInstant>,
    instant_cap: usize,
    instants_dropped: u64,
    /// Per-block exchange fetch latency, nanoseconds.
    pub block_latency_ns: Log2Histogram,
    /// Per-block message size, words.
    pub block_words: Log2Histogram,
    /// Per-PE compute-phase time, nanoseconds.
    pub compute_ns: Log2Histogram,
    /// Node-aggregated exchange: merged per-(node, node) block size, words.
    /// Empty on flat runs.
    pub node_block_words: Log2Histogram,
    /// Live Eq. (2) drift monitor, when armed with per-PE loads.
    pub drift: Option<DriftMonitor>,
    /// BSP steps observed.
    pub steps: u64,
    /// Accumulated wall nanoseconds per phase (indexed like
    /// [`PhaseId::ALL`]).
    phase_wall_ns: [u64; PhaseId::ALL.len()],
    /// PEs in the traced executor (trace lane `pes` is the driver).
    pes: usize,
}

impl Telemetry {
    /// Telemetry for `pes` processing elements. `loads` (per-PE
    /// `(words, blocks)` per step) arms the drift monitor when the config
    /// asks for one.
    pub fn new(pes: usize, loads: Vec<(u64, u64)>, config: TelemetryConfig) -> Self {
        let instant_cap = config.instant_capacity.clamp(1, 1 << 20);
        Telemetry {
            spans: SpanRing::new(config.span_capacity),
            // Faults are exceptional, so instants may allocate when they
            // arrive; the steady-state hot path records none.
            instants: Vec::new(),
            instant_cap,
            instants_dropped: 0,
            block_latency_ns: Log2Histogram::new(),
            block_words: Log2Histogram::new(),
            compute_ns: Log2Histogram::new(),
            node_block_words: Log2Histogram::new(),
            drift: config.drift.map(|d| DriftMonitor::new(loads, d)),
            steps: 0,
            phase_wall_ns: [0; PhaseId::ALL.len()],
            pes,
        }
    }

    /// PEs in the traced executor.
    pub fn pes(&self) -> usize {
        self.pes
    }

    /// Records a span and attributes its duration to the phase totals.
    #[inline]
    pub fn span(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Adds `ns` of wall time to `phase`'s exposition counter.
    pub fn add_phase_wall(&mut self, phase: PhaseId, ns: u64) {
        self.phase_wall_ns[phase as usize] += ns;
    }

    /// Accumulated wall nanoseconds for `phase`.
    pub fn phase_wall_ns(&self, phase: PhaseId) -> u64 {
        self.phase_wall_ns[phase as usize]
    }

    /// Records a point event, keeping at most the configured capacity.
    pub fn instant(&mut self, event: TraceInstant) {
        if self.instants.len() < self.instant_cap {
            self.instants.push(event);
        } else {
            self.instants_dropped += 1;
        }
    }

    /// Retained point events, in recording order.
    pub fn instants(&self) -> &[TraceInstant] {
        &self.instants
    }

    /// Point events discarded because the buffer was full.
    pub fn instants_dropped(&self) -> u64 {
        self.instants_dropped
    }

    /// Accounts for `n` point events that existed elsewhere but cannot be
    /// carried into this aggregate (cross-process snapshots carry owned
    /// strings; [`TraceInstant`] names are `&'static str`). Keeps merged
    /// totals truthful without fabricating events.
    pub fn note_dropped_instants(&mut self, n: u64) {
        self.instants_dropped += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_accumulates_all_channels() {
        let mut t = Telemetry::new(2, vec![(10, 1), (8, 1)], TelemetryConfig::default());
        assert_eq!(t.pes(), 2);
        t.span(Span {
            phase: PhaseId::Compute,
            pe: 0,
            step: 0,
            start_ns: 0,
            dur_ns: 100,
        });
        t.add_phase_wall(PhaseId::Compute, 100);
        t.instant(TraceInstant {
            name: "fault:crash",
            pe: 1,
            step: 0,
            at_ns: 50,
        });
        t.block_latency_ns.record(120);
        t.block_words.record(30);
        t.steps = 1;
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.instants().len(), 1);
        assert_eq!(t.phase_wall_ns(PhaseId::Compute), 100);
        assert_eq!(t.phase_wall_ns(PhaseId::Exchange), 0);
        assert!(t.drift.is_some());
    }

    #[test]
    fn instant_overflow_is_counted_not_kept() {
        let mut t = Telemetry::new(
            1,
            vec![(0, 0)],
            TelemetryConfig {
                span_capacity: 4,
                instant_capacity: 2,
                drift: None,
            },
        );
        for i in 0..5 {
            t.instant(TraceInstant {
                name: "fault:crash",
                pe: 0,
                step: i,
                at_ns: i,
            });
        }
        assert_eq!(t.instants().len(), 2);
        assert_eq!(t.instants_dropped(), 3);
        assert!(t.drift.is_none());
    }
}

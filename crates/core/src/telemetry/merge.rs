//! Merging per-shard telemetry snapshots into one coherent timeline.
//!
//! Each shard process records against its own monotonic epoch. The parent
//! measures, at handshake time, an RTT-midpoint clock offset per shard
//! (generation-tagged, re-measured after every respawn); this module applies
//! those offsets and renders a single Chrome `trace_event` document:
//!
//! * one *process* track per shard (`pid` = shard index), labeled with the
//!   shard's PE range and supervision generation, plus a `supervisor` track
//!   for parent-side incidents;
//! * one *thread* lane per global PE inside its owning shard's process;
//! * cross-process flow events (`ph:"s"` → `ph:"t"`) pairing each ghost
//!   block's post on the sender track with its acquire on the receiver
//!   track, which is what makes the irregular exchange *visible*: in
//!   Perfetto the flow arrows fan out from a posting PE to every consumer,
//!   and a stalled wire shows up as a long arrow into a long `wait` span;
//! * per-shard and whole-run `telemetry_stats` metadata carrying dropped
//!   span/instant/flow counts so a truncated window is visibly truncated;
//! * on node-aggregated runs, whole-run `node_block_words` metadata: the
//!   merged (node, node) block-size distribution summed over the shards.
//!
//! This is the one Chrome writer: an in-process run renders as a single
//! pseudo-shard capture, and a run with no snapshots at all still renders
//! its supervisor track as a valid document.
//!
//! [`merged_telemetry`] separately folds the snapshots into one aggregate
//! [`Telemetry`] so the existing summary table and Prometheus exposition
//! work unchanged on distributed runs.

use std::collections::BTreeMap;

use super::context::{FlowKind, TelemetrySnapshot, TraceContext};
use super::export::{fmt_f64, json_escape, us};
use super::histogram::Log2Histogram;
use super::span::Span;
use super::{PhaseId, Telemetry, TelemetryConfig};

/// One shard's snapshot plus the parent's knowledge of its clock domain.
#[derive(Debug, Clone)]
pub struct ShardTrace {
    /// The package the shard child shipped at run end.
    pub snap: TelemetrySnapshot,
    /// Nanoseconds to *add* to the shard's timestamps to express them on
    /// the parent's run clock (RTT-midpoint estimate from handshake).
    pub clock_offset_ns: i64,
}

/// A parent-side incident to render on the supervisor track (wire chaos
/// verdicts, respawns).
#[derive(Debug, Clone)]
pub struct SupervisorInstant {
    /// Event name (e.g. `incident:stall`, `incident:respawn`).
    pub name: String,
    /// Shard the incident concerns.
    pub shard: u32,
    /// Nanoseconds on the parent's run clock.
    pub at_ns: u64,
}

impl ShardTrace {
    /// A single-process run's telemetry as one pseudo-shard on offset 0:
    /// the run is its own clock domain, so this is exactly what a
    /// one-shard proc ensemble would ship.
    pub fn local(telemetry: &Telemetry) -> Self {
        let ctx = TraceContext {
            run_id: 0,
            shard: 0,
            generation: 0,
        };
        let pes = telemetry.pes() as u32;
        ShardTrace {
            snap: TelemetrySnapshot::capture(telemetry, ctx, 0, pes, Vec::new(), 0),
            clock_offset_ns: 0,
        }
    }

    /// A shard timestamp expressed on the parent's run clock.
    fn align(&self, ns: u64) -> u64 {
        (ns as i64).saturating_add(self.clock_offset_ns).max(0) as u64
    }
}

/// Renders the merged multi-process Chrome trace document.
pub fn merged_chrome_trace(
    run_name: &str,
    shards: &[ShardTrace],
    supervisor: &[SupervisorInstant],
) -> String {
    let total_spans: usize = shards.iter().map(|s| s.snap.spans.len()).sum();
    let mut out = String::with_capacity(512 + 170 * total_spans);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&ev);
    };

    let (flow_events, unpaired_flows) = pair_flows(shards);

    // Whole-run stats up front: a reader (human or validator) learns about
    // loss before scrolling any events.
    let dropped_spans: u64 = shards.iter().map(|s| s.snap.spans_dropped).sum();
    let dropped_instants: u64 = shards.iter().map(|s| s.snap.instants_dropped).sum();
    let dropped_flows: u64 = shards.iter().map(|s| s.snap.flows_dropped).sum();
    let run_id = shards.first().map_or(0, |s| s.snap.ctx.run_id);
    push(
        &mut out,
        format!(
            "{{\"name\":\"telemetry_stats\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":\"telemetry_stats\",\"run_id\":{run_id},\
             \"shards\":{},\"dropped_spans\":{dropped_spans},\
             \"dropped_instants\":{dropped_instants},\
             \"dropped_flows\":{dropped_flows},\
             \"unpaired_flows\":{unpaired_flows}}}}}",
            shards.len()
        ),
    );
    // Node-aggregated runs: the merged (node, node) block-size
    // distribution in-band, so a Perfetto reader sees the aggregation
    // factor next to the gather spans and flow arrows.
    let mut node_blocks = Log2Histogram::default();
    for st in shards {
        node_blocks.merge(&st.snap.node_block_words);
    }
    if node_blocks.count() > 0 {
        let s = node_blocks.summary();
        push(
            &mut out,
            format!(
                "{{\"name\":\"node_block_words\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
                 \"args\":{{\"name\":\"node_block_words\",\"count\":{},\
                 \"p50\":{},\"p99\":{},\"max\":{},\"mean\":{}}}}}",
                s.count,
                s.p50,
                s.p99,
                s.max,
                fmt_f64(s.mean)
            ),
        );
    }

    for st in shards {
        let snap = &st.snap;
        let pid = snap.ctx.shard;
        push(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{} shard {pid} gen {} (PE {}..{})\"}}}}",
                json_escape(run_name),
                snap.ctx.generation,
                snap.pe_lo,
                snap.pe_hi,
            ),
        );
        push(
            &mut out,
            format!(
                "{{\"name\":\"telemetry_stats\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"telemetry_stats\",\"generation\":{},\
                 \"dropped_spans\":{},\"dropped_instants\":{},\"dropped_flows\":{}}}}}",
                snap.ctx.generation, snap.spans_dropped, snap.instants_dropped, snap.flows_dropped
            ),
        );
        let mut tids: Vec<u32> = snap.spans.iter().map(|s| s.pe).collect();
        tids.extend(snap.instants.iter().map(|i| i.pe));
        tids.extend(snap.pe_lo..snap.pe_hi);
        tids.sort_unstable();
        tids.dedup();
        for tid in &tids {
            let label = if (snap.pe_lo..snap.pe_hi).contains(tid) {
                format!("PE {tid}")
            } else {
                "driver".to_string()
            };
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{\"name\":\"{label}\"}}}}"
                ),
            );
        }
        // Sort by (lane, aligned start) so each track reads monotonically —
        // the ring interleaves PEs within a step.
        let mut spans: Vec<Span> = snap.spans.clone();
        spans.sort_by_key(|s| (s.pe, st.align(s.start_ns), s.dur_ns));
        for s in &spans {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"bsp\",\"ph\":\"X\",\"pid\":{pid},\
                     \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"step\":{}}}}}",
                    s.phase.name(),
                    s.pe,
                    us(st.align(s.start_ns)),
                    us(s.dur_ns),
                    s.step
                ),
            );
        }
        for i in &snap.instants {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                     \"pid\":{pid},\"tid\":{},\"ts\":{},\"args\":{{\"step\":{}}}}}",
                    json_escape(&i.name),
                    i.pe,
                    us(st.align(i.at_ns)),
                    i.step
                ),
            );
        }
    }

    for ev in flow_events {
        push(&mut out, ev);
    }

    if !supervisor.is_empty() {
        let sup_pid = shards
            .iter()
            .map(|s| s.snap.ctx.shard + 1)
            .max()
            .unwrap_or(0);
        push(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{sup_pid},\"tid\":0,\
                 \"args\":{{\"name\":\"supervisor\"}}}}"
            ),
        );
        for i in supervisor {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                     \"pid\":{sup_pid},\"tid\":0,\"ts\":{},\"args\":{{\"shard\":{}}}}}",
                    json_escape(&i.name),
                    us(i.at_ns),
                    i.shard
                ),
            );
        }
    }

    out.push_str("]}");
    out
}

/// One endpoint of a flow, located on the merged timeline.
struct FlowEnd {
    pid: u32,
    tid: u32,
    at_ns: u64,
}

/// Pairs the k-th post with the k-th acquire per `(step, from, to)` edge
/// (both sides sorted by aligned time) and renders `ph:"s"`/`ph:"t"` event
/// pairs. Returns the rendered events and the count of endpoints that never
/// found a partner (receiver died, buffer truncated on one side).
///
/// Only complete pairs are emitted, so the merged document satisfies "every
/// `s` has a matching `t`" by construction; the losses are reported in the
/// `telemetry_stats` metadata instead of dangling arrows.
fn pair_flows(shards: &[ShardTrace]) -> (Vec<String>, u64) {
    type Edge = (u64, u32, u32);
    let mut posts: BTreeMap<Edge, Vec<FlowEnd>> = BTreeMap::new();
    let mut acquires: BTreeMap<Edge, Vec<FlowEnd>> = BTreeMap::new();
    for st in shards {
        for f in &st.snap.flows {
            let end = FlowEnd {
                pid: st.snap.ctx.shard,
                tid: match f.kind {
                    FlowKind::Post => f.from,
                    FlowKind::Acquire => f.to,
                },
                at_ns: st.align(f.at_ns),
            };
            let bucket = match f.kind {
                FlowKind::Post => &mut posts,
                FlowKind::Acquire => &mut acquires,
            };
            bucket.entry((f.step, f.from, f.to)).or_default().push(end);
        }
    }
    let mut events = Vec::new();
    let mut unpaired = 0u64;
    let mut next_id = 1u64;
    for (edge, mut ps) in posts {
        let mut acqs = acquires.remove(&edge).unwrap_or_default();
        ps.sort_by_key(|e| e.at_ns);
        acqs.sort_by_key(|e| e.at_ns);
        let pairs = ps.len().min(acqs.len());
        unpaired += (ps.len().max(acqs.len()) - pairs) as u64;
        let (step, from, to) = edge;
        for (p, a) in ps.iter().zip(acqs.iter()).take(pairs) {
            let id = next_id;
            next_id += 1;
            // Clamp so the arrow never points backward in time: offsets are
            // RTT-midpoint *estimates* and can disagree by half an RTT.
            let t_ns = a.at_ns.max(p.at_ns);
            events.push(format!(
                "{{\"name\":\"ghost {from}->{to}\",\"cat\":\"ghost\",\"ph\":\"s\",\
                 \"id\":{id},\"pid\":{},\"tid\":{},\"ts\":{},\
                 \"args\":{{\"step\":{step}}}}}",
                p.pid,
                p.tid,
                us(p.at_ns)
            ));
            events.push(format!(
                "{{\"name\":\"ghost {from}->{to}\",\"cat\":\"ghost\",\"ph\":\"t\",\
                 \"id\":{id},\"pid\":{},\"tid\":{},\"ts\":{},\
                 \"args\":{{\"step\":{step}}}}}",
                a.pid,
                a.tid,
                us(t_ns)
            ));
        }
    }
    unpaired += acquires.values().map(|v| v.len() as u64).sum::<u64>();
    (events, unpaired)
}

/// Folds the shard snapshots into one aggregate [`Telemetry`] (offsets
/// applied to span timestamps) so the summary table and Prometheus
/// exposition work unchanged on a distributed run.
///
/// The drift monitor is not reconstructed — it needs per-step residual
/// state that does not survive snapshotting — and instants are accounted
/// as dropped (their owned names cannot become `&'static str`), keeping
/// `quake_fault_instants_total` truthful.
pub fn merged_telemetry(shards: &[ShardTrace]) -> Telemetry {
    let pes = shards.iter().map(|s| s.snap.pe_hi).max().unwrap_or(0) as usize;
    let total_spans: usize = shards.iter().map(|s| s.snap.spans.len()).sum();
    let mut t = Telemetry::new(
        pes,
        Vec::new(),
        TelemetryConfig {
            span_capacity: total_spans.max(1),
            instant_capacity: 1,
            drift: None,
        },
    );
    for st in shards {
        let snap = &st.snap;
        for s in &snap.spans {
            t.span(Span {
                start_ns: st.align(s.start_ns),
                ..*s
            });
        }
        t.spans.note_dropped(snap.spans_dropped);
        t.note_dropped_instants(snap.instants.len() as u64 + snap.instants_dropped);
        for phase in PhaseId::ALL {
            t.add_phase_wall(phase, snap.phase_wall_ns[phase as usize]);
        }
        t.block_latency_ns.merge(&snap.block_latency_ns);
        t.block_words.merge(&snap.block_words);
        t.compute_ns.merge(&snap.compute_ns);
        t.node_block_words.merge(&snap.node_block_words);
        t.steps = t.steps.max(snap.steps);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::super::context::{FlowRec, TraceContext};
    use super::*;

    fn shard(shard: u32, pe_lo: u32, pe_hi: u32, offset: i64) -> ShardTrace {
        let mut spans = Vec::new();
        for step in 0..3u64 {
            for pe in pe_lo..pe_hi {
                spans.push(Span {
                    phase: PhaseId::Compute,
                    pe,
                    step,
                    start_ns: step * 1_000,
                    dur_ns: 400,
                });
                spans.push(Span {
                    phase: PhaseId::Exchange,
                    pe,
                    step,
                    start_ns: step * 1_000 + 450,
                    dur_ns: 200,
                });
            }
        }
        let mut phase_wall_ns = [0u64; PhaseId::ALL.len()];
        phase_wall_ns[PhaseId::Compute as usize] = 1_200 * u64::from(pe_hi - pe_lo);
        ShardTrace {
            snap: TelemetrySnapshot {
                ctx: TraceContext {
                    run_id: 7,
                    shard,
                    generation: u32::from(shard == 1),
                },
                pe_lo,
                pe_hi,
                steps: 3,
                phase_wall_ns,
                spans,
                spans_dropped: 2,
                instants: Vec::new(),
                instants_dropped: 1,
                block_latency_ns: Default::default(),
                block_words: Default::default(),
                compute_ns: Default::default(),
                node_block_words: Default::default(),
                flows: Vec::new(),
                flows_dropped: 0,
            },
            clock_offset_ns: offset,
        }
    }

    fn with_flows(mut st: ShardTrace, flows: Vec<FlowRec>) -> ShardTrace {
        st.snap.flows = flows;
        st
    }

    #[test]
    fn merged_trace_has_one_process_per_shard_and_stats() {
        let shards = [shard(0, 0, 2, 0), shard(1, 2, 4, 5_000)];
        let text = merged_chrome_trace("smvp", &shards, &[]);
        assert!(text.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(text.contains("\"name\":\"smvp shard 0 gen 0 (PE 0..2)\""));
        assert!(text.contains("\"name\":\"smvp shard 1 gen 1 (PE 2..4)\""));
        assert!(text.contains("\"dropped_spans\":4")); // run total
        assert!(text.contains("\"pid\":1,\"tid\":3"));
        // Offset application: shard 1 step-0 compute starts at 5 µs.
        assert!(text.contains("\"ts\":5.000"));
    }

    #[test]
    fn flows_pair_post_with_acquire_across_processes() {
        let a = with_flows(
            shard(0, 0, 1, 0),
            vec![FlowRec {
                kind: FlowKind::Post,
                step: 1,
                from: 0,
                to: 1,
                at_ns: 1_450,
                waited_ns: 0,
            }],
        );
        let b = with_flows(
            shard(1, 1, 2, 100),
            vec![FlowRec {
                kind: FlowKind::Acquire,
                step: 1,
                from: 0,
                to: 1,
                at_ns: 1_500,
                waited_ns: 40,
            }],
        );
        let text = merged_chrome_trace("smvp", &[a, b], &[]);
        assert!(text.contains("\"ph\":\"s\",\"id\":1,\"pid\":0,\"tid\":0"));
        assert!(text.contains("\"ph\":\"t\",\"id\":1,\"pid\":1,\"tid\":1"));
        assert!(text.contains("\"unpaired_flows\":0"));
    }

    #[test]
    fn unpaired_endpoints_are_counted_not_emitted() {
        let a = with_flows(
            shard(0, 0, 1, 0),
            vec![
                FlowRec {
                    kind: FlowKind::Post,
                    step: 0,
                    from: 0,
                    to: 1,
                    at_ns: 10,
                    waited_ns: 0,
                },
                FlowRec {
                    kind: FlowKind::Post,
                    step: 0,
                    from: 0,
                    to: 1,
                    at_ns: 20,
                    waited_ns: 0,
                },
            ],
        );
        let b = with_flows(
            shard(1, 1, 2, 0),
            vec![
                FlowRec {
                    kind: FlowKind::Acquire,
                    step: 0,
                    from: 0,
                    to: 1,
                    at_ns: 30,
                    waited_ns: 0,
                },
                // A stray acquire on an edge nobody posted.
                FlowRec {
                    kind: FlowKind::Acquire,
                    step: 9,
                    from: 0,
                    to: 1,
                    at_ns: 40,
                    waited_ns: 0,
                },
            ],
        );
        let text = merged_chrome_trace("smvp", &[a, b], &[]);
        assert_eq!(text.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(text.matches("\"ph\":\"t\"").count(), 1);
        assert!(text.contains("\"unpaired_flows\":2"));
    }

    #[test]
    fn flow_arrow_never_points_backward() {
        // Receiver clock behind by 1 µs: raw acquire ts < post ts.
        let a = with_flows(
            shard(0, 0, 1, 0),
            vec![FlowRec {
                kind: FlowKind::Post,
                step: 0,
                from: 0,
                to: 1,
                at_ns: 2_000,
                waited_ns: 0,
            }],
        );
        let b = with_flows(
            shard(1, 1, 2, -1_000),
            vec![FlowRec {
                kind: FlowKind::Acquire,
                step: 0,
                from: 0,
                to: 1,
                at_ns: 2_500,
                waited_ns: 0,
            }],
        );
        let text = merged_chrome_trace("smvp", &[a, b], &[]);
        // Acquire aligned to 1.5 µs, clamped up to the post's 2.0 µs.
        assert!(text.contains("\"ph\":\"t\",\"id\":1,\"pid\":1,\"tid\":1,\"ts\":2.000"));
    }

    #[test]
    fn supervisor_track_renders_incidents() {
        let shards = [shard(0, 0, 1, 0), shard(2, 1, 2, 0)];
        let sup = [SupervisorInstant {
            name: "incident:stall".to_string(),
            shard: 2,
            at_ns: 9_000,
        }];
        let text = merged_chrome_trace("smvp", &shards, &sup);
        assert!(text.contains("\"name\":\"supervisor\""));
        // Supervisor pid sits above the largest shard pid.
        assert!(text.contains("\"pid\":3,\"tid\":0,\"ts\":9.000"));
        assert!(text.contains("\"args\":{\"shard\":2}"));
    }

    #[test]
    fn one_shard_capture_renders_lanes_instants_and_node_blocks() {
        use super::super::span::TraceInstant;
        let mut t = Telemetry::new(2, vec![(30, 1), (30, 1)], TelemetryConfig::default());
        for pe in 0..3u32 {
            // PE 2 is the caller-thread `driver` lane of a 2-PE run.
            let phase = if pe == 2 {
                PhaseId::Fold
            } else {
                PhaseId::Compute
            };
            t.span(Span {
                phase,
                pe,
                step: 0,
                start_ns: 100,
                dur_ns: 400,
            });
        }
        t.instant(TraceInstant {
            name: "fault:crash",
            pe: 1,
            step: 0,
            at_ns: 1_550,
        });
        t.node_block_words.record(96);
        t.node_block_words.record(160);
        let text = merged_chrome_trace("smvp", &[ShardTrace::local(&t)], &[]);
        for needle in [
            "\"name\":\"smvp shard 0 gen 0 (PE 0..2)\"",
            "\"tid\":0,\"args\":{\"name\":\"PE 0\"}",
            "\"tid\":1,\"args\":{\"name\":\"PE 1\"}",
            "\"tid\":2,\"args\":{\"name\":\"driver\"}",
            "\"name\":\"fold\",\"cat\":\"bsp\",\"ph\":\"X\",\"pid\":0,\"tid\":2",
            "\"name\":\"fault:crash\",\"cat\":\"fault\",\"ph\":\"i\"",
            "\"ts\":1.550",
            "\"name\":\"node_block_words\",\"count\":2,",
            "\"max\":160,\"mean\":128}",
        ] {
            assert!(text.contains(needle), "missing {needle} in trace:\n{text}");
        }
        // Flat runs carry no aggregation metadata.
        assert!(!merged_chrome_trace("smvp", &[shard(0, 0, 2, 0)], &[]).contains("node_block"));
    }

    #[test]
    fn node_block_words_sum_over_shards() {
        let mut a = shard(0, 0, 1, 0);
        let mut b = shard(1, 1, 2, 0);
        a.snap.node_block_words.record(64);
        b.snap.node_block_words.record(64);
        b.snap.node_block_words.record(64);
        let text = merged_chrome_trace("smvp", &[a, b], &[]);
        assert_eq!(
            text.matches("\"name\":\"node_block_words\",\"ph\"").count(),
            1
        );
        assert!(text.contains("\"count\":3,"));
    }

    #[test]
    fn supervisor_only_trace_is_a_valid_document() {
        let sup = [
            SupervisorInstant {
                name: "wire-stall".to_string(),
                shard: 1,
                at_ns: 2_500_000,
            },
            SupervisorInstant {
                name: "shard-respawn".to_string(),
                shard: 1,
                at_ns: 3_000_000,
            },
        ];
        let text = merged_chrome_trace("sf10", &[], &sup);
        assert!(text.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(text.ends_with("]}"));
        assert!(text.contains("\"shards\":0,"));
        assert!(text.contains("\"pid\":0,\"tid\":0,\"args\":{\"name\":\"supervisor\"}"));
        assert!(text.contains("\"name\":\"wire-stall\""));
        assert!(text.contains("\"ts\":3000.000,\"args\":{\"shard\":1}"));
        assert!(!text.contains("\"ph\":\"X\""), "no shard, no spans");
        // No incidents either: still one well-formed document.
        let empty = merged_chrome_trace("sf10", &[], &[]);
        assert!(empty.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{"));
        assert!(empty.ends_with("}]}"));
    }

    #[test]
    fn merged_telemetry_aggregates_counters() {
        let shards = [shard(0, 0, 2, 0), shard(1, 2, 4, 5_000)];
        let t = merged_telemetry(&shards);
        assert_eq!(t.pes(), 4);
        assert_eq!(t.steps, 3);
        assert_eq!(t.spans.len(), 24);
        assert_eq!(t.spans.dropped(), 4);
        assert_eq!(t.instants_dropped(), 2);
        assert_eq!(t.phase_wall_ns(PhaseId::Compute), 4_800);
        // Prometheus export works on the merged aggregate.
        let prom = t.to_prometheus();
        assert!(prom.contains("quake_spans_dropped_total 4"));
        assert!(prom.contains("quake_steps_total 3"));
    }

    #[test]
    fn aligned_span_starts_are_monotonic_per_track() {
        let shards = [shard(0, 0, 2, 0), shard(1, 2, 4, -250)];
        let text = merged_chrome_trace("smvp", &shards, &[]);
        // Extract (pid, tid, ts) for X events in document order and check
        // per-track monotonicity the same way the bench validator does.
        let mut last: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for ev in text.split("{\"name\":").skip(1) {
            if !ev.contains("\"ph\":\"X\"") {
                continue;
            }
            let grab = |key: &str| -> f64 {
                let at = ev.find(key).unwrap() + key.len();
                let rest = &ev[at..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
                    .unwrap_or(rest.len());
                rest[..end].parse().unwrap()
            };
            let key = (grab("\"pid\":") as u32, grab("\"tid\":") as u32);
            let ts = grab("\"ts\":");
            if let Some(prev) = last.insert(key, ts) {
                assert!(prev <= ts, "track {key:?} went backwards: {prev} > {ts}");
            }
        }
        assert!(!last.is_empty());
    }
}

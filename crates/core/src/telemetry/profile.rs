//! The per-step critical-path profiler: where did each step's wall time go?
//!
//! The paper's Fig. 10 splits runtime into compute vs communication per
//! machine; this module does the same split per *step* and per *PE* from
//! the recorded span window, then goes two levels deeper than the paper
//! could: the exchange is split into transport **wait** (blocked in
//! `acquire`, the latency term the paper says dominates) and **apply**
//! (summing neighbor partials, the bandwidth term), and every step names
//! the PE on its critical path.
//!
//! Attribution is exact by construction: the executor's traced paths record
//! one top-level span per phase per PE per step, and the per-PE span total
//! *is* the measured step wall for that PE (the `barrier` span is the wall
//! residual). The step wall is the maximum per-PE total, the row shown is
//! the wall-defining PE's breakdown, and the **straggler** is the PE with
//! the most *busy* time (total minus barrier minus wait) — the one everyone
//! else waited for.
//!
//! Busy time alone cannot finger a shard whose process died mid-step (a
//! wire stall ends in a respawn, and the victim generation's span ring
//! dies with it). The cross-shard flow records close that gap: when a
//! step's largest recorded `acquire` wait exceeds every PE's busy time,
//! the *sender* of that starved edge is the straggler — the victims'
//! clocks testify against the shard that cannot testify for itself. A
//! stalled wire therefore shows up twice: as the receivers' inflated wait
//! rungs, and as the stalled shard's name in the straggler column.
//!
//! The report closes with the Eq. (2)/overlap *predicted* decomposition
//! next to the measured one, so a model-vs-measured residual is localized
//! to a phase (latency underestimated? overlap not hiding?) instead of
//! smeared over the run.

use std::fmt::Write as _;

use crate::model::beta::modeled_comm_time;

use super::context::FlowKind;
use super::merge::ShardTrace;
use super::span::PhaseId;

/// Inputs the profiler needs beyond the spans themselves.
#[derive(Debug, Clone, Default)]
pub struct ProfileOptions {
    /// Per-PE `(words, blocks)` exchanged per step, for the Eq. (2)
    /// baseline. Empty disables the model comparison.
    pub loads: Vec<(u64, u64)>,
    /// Fitted or measured link parameters `(t_l, t_w)` in seconds.
    pub link: Option<(f64, f64)>,
    /// Whether the run used the overlapped schedule (changes the predicted
    /// step composition: `max(interior, exchange)` instead of their sum).
    pub overlap: bool,
}

/// Wall-time attribution rungs for one (step, PE), nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rungs {
    /// Boundary compute + publishing outgoing blocks (`post` spans).
    pub post_ns: u64,
    /// Interior/local compute (`compute` spans).
    pub interior_ns: u64,
    /// Exchange time spent applying neighbor partials (exchange − wait).
    pub apply_ns: u64,
    /// Exchange time spent blocked in `Transport::acquire`.
    pub wait_ns: u64,
    /// Step-barrier residual (wall minus this PE's own work).
    pub barrier_ns: u64,
    /// Chaos-layer crash recovery: the re-run time not spent on this
    /// PE's own stages.
    pub recover_ns: u64,
    /// Everything else on the PE lane (assemble, fold).
    pub other_ns: u64,
}

impl Rungs {
    /// Sum of all rungs — the PE's measured step wall.
    pub fn total_ns(&self) -> u64 {
        self.post_ns
            + self.interior_ns
            + self.apply_ns
            + self.wait_ns
            + self.barrier_ns
            + self.recover_ns
            + self.other_ns
    }

    /// Time this PE held the critical path: total minus idle (barrier)
    /// minus transport wait.
    pub fn busy_ns(&self) -> u64 {
        self.total_ns() - self.barrier_ns - self.wait_ns
    }

    fn add(&mut self, other: &Rungs) {
        self.post_ns += other.post_ns;
        self.interior_ns += other.interior_ns;
        self.apply_ns += other.apply_ns;
        self.wait_ns += other.wait_ns;
        self.barrier_ns += other.barrier_ns;
        self.recover_ns += other.recover_ns;
        self.other_ns += other.other_ns;
    }
}

/// One step's attribution row.
#[derive(Debug, Clone)]
pub struct StepRow {
    /// BSP step.
    pub step: u64,
    /// Measured step wall: the maximum per-PE rung total.
    pub wall_ns: u64,
    /// The wall-defining PE (whose rungs are shown).
    pub crit_pe: u32,
    /// The wall-defining PE's breakdown.
    pub rungs: Rungs,
    /// The PE everyone waited for: the most busy time across PEs, or the
    /// sender of the step's starving edge when a recorded acquire wait
    /// exceeds every PE's busy time (a dead generation leaves no spans,
    /// but its victims' flow records still name it).
    pub straggler_pe: u32,
    /// Shard owning the straggler.
    pub straggler_shard: u32,
    /// How long the straggler held the step: its busy nanoseconds, or
    /// the wait observed against it when flow blame decided.
    pub straggler_busy_ns: u64,
}

/// Model-vs-measured comparison, per mean step.
#[derive(Debug, Clone)]
pub struct ModelComparison {
    /// Eq. (2) `B_max·T_l + C_max·T_w`, ns per step.
    pub predicted_exchange_ns: u64,
    /// Measured mean of per-step max-PE exchange (apply + wait), ns.
    pub measured_exchange_ns: u64,
    /// Measured mean of per-step max-PE interior compute, ns.
    pub measured_interior_ns: u64,
    /// Measured mean of per-step max-PE post, ns.
    pub measured_post_ns: u64,
    /// Measured mean step wall, ns.
    pub measured_wall_ns: u64,
    /// Predicted step wall composed from the schedule: barrier schedule
    /// `interior + exchange`, overlap schedule
    /// `post + max(interior, exchange)` (OverlapAnalysis composition) —
    /// measured compute terms, *predicted* exchange term.
    pub predicted_step_ns: u64,
    /// True when the overlap composition was used.
    pub overlap: bool,
}

/// The full profiler output.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Per-step rows, ascending step order.
    pub steps: Vec<StepRow>,
    /// Rung totals over the wall-defining PEs of all steps.
    pub totals: Rungs,
    /// Spans lost to ring overwrite across all shards: when nonzero the
    /// earliest rows may under-report.
    pub spans_dropped: u64,
    /// The Eq. (2)/overlap baseline, when loads and link were provided.
    pub model: Option<ModelComparison>,
}

impl ProfileReport {
    /// Attributes the span windows in `shards` (timestamps need not be
    /// aligned — attribution uses durations only).
    pub fn build(shards: &[ShardTrace], opts: &ProfileOptions) -> ProfileReport {
        // (step, pe) -> raw phase sums. BTreeMap keeps steps ordered.
        let mut by_pe: std::collections::BTreeMap<(u64, u32), [u64; PhaseId::ALL.len()]> =
            std::collections::BTreeMap::new();
        let mut owned: Vec<(u32, u32, u32)> = Vec::new(); // (pe_lo, pe_hi, shard)
                                                          // step -> worst recorded cross-shard acquire wait (from, waited).
        let mut starved: std::collections::BTreeMap<u64, (u32, u64)> =
            std::collections::BTreeMap::new();
        for st in shards {
            owned.push((st.snap.pe_lo, st.snap.pe_hi, st.snap.ctx.shard));
            for f in &st.snap.flows {
                if f.kind == FlowKind::Acquire {
                    let worst = starved.entry(f.step).or_insert((f.from, 0));
                    if f.waited_ns > worst.1 {
                        *worst = (f.from, f.waited_ns);
                    }
                }
            }
            for s in &st.snap.spans {
                // Driver-lane spans (fold, recovery control) are not PE
                // wall time; skip lanes outside the shard's PE range.
                if !(st.snap.pe_lo..st.snap.pe_hi).contains(&s.pe) {
                    continue;
                }
                by_pe.entry((s.step, s.pe)).or_default()[s.phase as usize] += s.dur_ns;
            }
        }
        let shard_of = |pe: u32| -> u32 {
            owned
                .iter()
                .find(|(lo, hi, _)| (*lo..*hi).contains(&pe))
                .map_or(0, |(_, _, sh)| *sh)
        };

        // Fold raw phase sums into rungs per (step, pe).
        let mut rows: std::collections::BTreeMap<u64, Vec<(u32, Rungs)>> =
            std::collections::BTreeMap::new();
        for (&(step, pe), sums) in &by_pe {
            let exchange = sums[PhaseId::Exchange as usize];
            // `wait` spans are nested inside `exchange`; clamp so clock
            // quantization can never produce a negative apply rung.
            let wait = sums[PhaseId::Wait as usize].min(exchange);
            let r = Rungs {
                post_ns: sums[PhaseId::Post as usize],
                interior_ns: sums[PhaseId::Compute as usize],
                apply_ns: exchange - wait,
                wait_ns: wait,
                barrier_ns: sums[PhaseId::Barrier as usize],
                recover_ns: sums[PhaseId::Recover as usize],
                other_ns: sums[PhaseId::Assemble as usize] + sums[PhaseId::Fold as usize],
            };
            rows.entry(step).or_default().push((pe, r));
        }

        let mut steps = Vec::with_capacity(rows.len());
        let mut totals = Rungs::default();
        for (step, pes) in rows {
            let (crit_pe, crit) = pes
                .iter()
                .max_by_key(|(pe, r)| (r.total_ns(), *pe))
                .copied()
                .expect("step with no PEs");
            let (mut straggler_pe, straggler) = pes
                .iter()
                .max_by_key(|(pe, r)| (r.busy_ns(), *pe))
                .copied()
                .expect("step with no PEs");
            let mut straggler_busy_ns = straggler.busy_ns();
            // Flow blame: a starving edge that out-waits every PE's busy
            // time names its sender — even one whose spans died with a
            // respawned process.
            if let Some(&(from, waited)) = starved.get(&step) {
                if waited > straggler_busy_ns {
                    straggler_pe = from;
                    straggler_busy_ns = waited;
                }
            }
            totals.add(&crit);
            steps.push(StepRow {
                step,
                wall_ns: crit.total_ns(),
                crit_pe,
                rungs: crit,
                straggler_pe,
                straggler_shard: shard_of(straggler_pe),
                straggler_busy_ns,
            });
        }

        let model = build_model(&steps, opts);
        ProfileReport {
            steps,
            totals,
            spans_dropped: shards.iter().map(|s| s.snap.spans_dropped).sum(),
            model,
        }
    }

    /// The most frequent straggler shard across steps, with its step count.
    pub fn dominant_straggler(&self) -> Option<(u32, usize)> {
        let mut counts: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
        for row in &self.steps {
            *counts.entry(row.straggler_shard).or_default() += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(sh, n)| (n, std::cmp::Reverse(sh)))
    }

    /// Renders the human-readable attribution table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("critical-path attribution (rungs of the wall-defining PE, per step)\n");
        if self.spans_dropped > 0 {
            let _ = writeln!(
                out,
                "  note: {} spans dropped from ring buffers; earliest rows may under-report",
                self.spans_dropped
            );
        }
        let _ = writeln!(
            out,
            "  {:>5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}  {:>8}  straggler",
            "step",
            "wall",
            "post",
            "interior",
            "apply",
            "wait",
            "barrier",
            "recover",
            "other",
            "crit-PE"
        );
        for row in &self.steps {
            let r = &row.rungs;
            let _ = writeln!(
                out,
                "  {:>5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}  {:>8}  PE {} (shard {}, busy {})",
                row.step,
                fmt_ns(row.wall_ns),
                fmt_ns(r.post_ns),
                fmt_ns(r.interior_ns),
                fmt_ns(r.apply_ns),
                fmt_ns(r.wait_ns),
                fmt_ns(r.barrier_ns),
                fmt_ns(r.recover_ns),
                fmt_ns(r.other_ns),
                format!("PE {}", row.crit_pe),
                row.straggler_pe,
                row.straggler_shard,
                fmt_ns(row.straggler_busy_ns),
            );
        }
        let t = &self.totals;
        let _ = writeln!(
            out,
            "  {:>5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "total",
            fmt_ns(t.total_ns()),
            fmt_ns(t.post_ns),
            fmt_ns(t.interior_ns),
            fmt_ns(t.apply_ns),
            fmt_ns(t.wait_ns),
            fmt_ns(t.barrier_ns),
            fmt_ns(t.recover_ns),
            fmt_ns(t.other_ns),
        );
        if let Some((shard, n)) = self.dominant_straggler() {
            let _ = writeln!(
                out,
                "  straggler verdict: shard {shard} holds the critical path in {n}/{} steps",
                self.steps.len()
            );
        }
        if let Some(m) = &self.model {
            let _ = writeln!(
                out,
                "  model: Eq. (2) exchange {} vs measured {} per step ({})",
                fmt_ns(m.predicted_exchange_ns),
                fmt_ns(m.measured_exchange_ns),
                fmt_residual(m.measured_exchange_ns, m.predicted_exchange_ns),
            );
            let composition = if m.overlap {
                "post + max(interior, exchange)"
            } else {
                "interior + exchange"
            };
            let _ = writeln!(
                out,
                "  model: predicted step [{composition}] {} vs measured wall {} per step ({})",
                fmt_ns(m.predicted_step_ns),
                fmt_ns(m.measured_wall_ns),
                fmt_residual(m.measured_wall_ns, m.predicted_step_ns),
            );
        }
        out
    }

    /// Renders the machine-readable artifact for `--profile-json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"steps\":[");
        for (i, row) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"step\":{},\"wall_ns\":{},\"crit_pe\":{},\"straggler_pe\":{},\
                 \"straggler_shard\":{},\"straggler_busy_ns\":{},\"rungs\":{}}}",
                row.step,
                row.wall_ns,
                row.crit_pe,
                row.straggler_pe,
                row.straggler_shard,
                row.straggler_busy_ns,
                rungs_json(&row.rungs)
            );
        }
        let _ = write!(
            out,
            "],\"totals\":{},\"spans_dropped\":{}",
            rungs_json(&self.totals),
            self.spans_dropped
        );
        match &self.model {
            Some(m) => {
                let _ = write!(
                    out,
                    ",\"model\":{{\"predicted_exchange_ns\":{},\"measured_exchange_ns\":{},\
                     \"measured_interior_ns\":{},\"measured_post_ns\":{},\
                     \"measured_wall_ns\":{},\"predicted_step_ns\":{},\"overlap\":{}}}",
                    m.predicted_exchange_ns,
                    m.measured_exchange_ns,
                    m.measured_interior_ns,
                    m.measured_post_ns,
                    m.measured_wall_ns,
                    m.predicted_step_ns,
                    m.overlap
                );
            }
            None => out.push_str(",\"model\":null"),
        }
        out.push('}');
        out
    }
}

fn build_model(steps: &[StepRow], opts: &ProfileOptions) -> Option<ModelComparison> {
    let (t_l, t_w) = opts.link?;
    if opts.loads.is_empty() || steps.is_empty() {
        return None;
    }
    let predicted_exchange_ns = (modeled_comm_time(&opts.loads, t_l, t_w) * 1e9).round() as u64;
    let n = steps.len() as u64;
    let mean = |f: &dyn Fn(&StepRow) -> u64| steps.iter().map(f).sum::<u64>() / n;
    let measured_exchange_ns = mean(&|r| r.rungs.apply_ns + r.rungs.wait_ns);
    let measured_interior_ns = mean(&|r| r.rungs.interior_ns);
    let measured_post_ns = mean(&|r| r.rungs.post_ns);
    let measured_wall_ns = mean(&|r| r.wall_ns);
    let predicted_step_ns = if opts.overlap {
        measured_post_ns + measured_interior_ns.max(predicted_exchange_ns)
    } else {
        measured_interior_ns + predicted_exchange_ns
    };
    Some(ModelComparison {
        predicted_exchange_ns,
        measured_exchange_ns,
        measured_interior_ns,
        measured_post_ns,
        measured_wall_ns,
        predicted_step_ns,
        overlap: opts.overlap,
    })
}

fn rungs_json(r: &Rungs) -> String {
    format!(
        "{{\"post_ns\":{},\"interior_ns\":{},\"apply_ns\":{},\"wait_ns\":{},\
         \"barrier_ns\":{},\"recover_ns\":{},\"other_ns\":{}}}",
        r.post_ns, r.interior_ns, r.apply_ns, r.wait_ns, r.barrier_ns, r.recover_ns, r.other_ns
    )
}

/// `ns` with an engineering unit, 3 significant-ish digits, fixed width
/// friendly (`1.23 ms`, `456 µs`, `789 ns`).
fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if v >= 1e9 {
        format!("{:.2} s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2} ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2} µs", v / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Signed relative residual of measured vs predicted.
fn fmt_residual(measured: u64, predicted: u64) -> String {
    if predicted == 0 {
        return "predicted 0".to_string();
    }
    let rel = (measured as f64 - predicted as f64) / predicted as f64;
    format!("{:+.1}% vs model", rel * 100.0)
}

#[cfg(test)]
mod tests {
    use super::super::context::{TelemetrySnapshot, TraceContext};
    use super::super::span::Span;
    use super::*;

    fn snap(shard: u32, pe_lo: u32, pe_hi: u32, spans: Vec<Span>) -> ShardTrace {
        ShardTrace {
            snap: TelemetrySnapshot {
                ctx: TraceContext {
                    run_id: 1,
                    shard,
                    generation: 0,
                },
                pe_lo,
                pe_hi,
                steps: 0,
                phase_wall_ns: [0; PhaseId::ALL.len()],
                spans,
                spans_dropped: 0,
                instants: Vec::new(),
                instants_dropped: 0,
                block_latency_ns: Default::default(),
                block_words: Default::default(),
                compute_ns: Default::default(),
                node_block_words: Default::default(),
                flows: Vec::new(),
                flows_dropped: 0,
            },
            clock_offset_ns: 0,
        }
    }

    fn span(phase: PhaseId, pe: u32, step: u64, dur_ns: u64) -> Span {
        Span {
            phase,
            pe,
            step,
            start_ns: step * 10_000,
            dur_ns,
        }
    }

    /// Two PEs: PE 0 computes 800 and waits 100 at the barrier (wall 1000);
    /// PE 1 computes 300, exchanges 500 (of which 200 waited), barrier 200
    /// (wall 1000).
    fn two_pe_shard() -> ShardTrace {
        snap(
            0,
            0,
            2,
            vec![
                span(PhaseId::Compute, 0, 0, 800),
                span(PhaseId::Exchange, 0, 0, 100),
                span(PhaseId::Barrier, 0, 0, 100),
                span(PhaseId::Compute, 1, 0, 300),
                span(PhaseId::Exchange, 1, 0, 500),
                span(PhaseId::Wait, 1, 0, 200),
                span(PhaseId::Barrier, 1, 0, 200),
                // Driver-lane fold must not pollute PE attribution.
                span(PhaseId::Fold, 2, 0, 9_999),
            ],
        )
    }

    #[test]
    fn rungs_sum_to_the_pe_wall_and_wait_splits_exchange() {
        let report = ProfileReport::build(&[two_pe_shard()], &ProfileOptions::default());
        assert_eq!(report.steps.len(), 1);
        let row = &report.steps[0];
        assert_eq!(row.wall_ns, 1_000);
        assert_eq!(row.rungs.total_ns(), row.wall_ns);
        // Both PEs total 1000; the tie-break picks the higher PE, whose
        // exchange splits into 300 apply + 200 wait.
        assert_eq!(row.crit_pe, 1);
        assert_eq!(row.rungs.apply_ns, 300);
        assert_eq!(row.rungs.wait_ns, 200);
        // Straggler is PE 0: busy 900 vs PE 1's 600.
        assert_eq!(row.straggler_pe, 0);
        assert_eq!(row.straggler_busy_ns, 900);
        assert_eq!(row.straggler_shard, 0);
    }

    #[test]
    fn straggler_crosses_shard_boundaries() {
        let a = snap(
            0,
            0,
            1,
            vec![
                span(PhaseId::Compute, 0, 0, 100),
                span(PhaseId::Barrier, 0, 0, 900),
            ],
        );
        let b = snap(
            3,
            1,
            2,
            vec![
                // A stalled wire inflates this shard's post rung.
                span(PhaseId::Post, 1, 0, 950),
                span(PhaseId::Compute, 1, 0, 50),
            ],
        );
        let report = ProfileReport::build(&[a, b], &ProfileOptions::default());
        let row = &report.steps[0];
        assert_eq!(row.straggler_pe, 1);
        assert_eq!(row.straggler_shard, 3);
        assert_eq!(report.dominant_straggler(), Some((3, 1)));
        let table = report.render_table();
        assert!(table.contains("shard 3 holds the critical path in 1/1 steps"));
    }

    #[test]
    fn flow_blame_names_a_shard_whose_spans_died_with_it() {
        // Shard 0 (the victim) spent the step blocked on a block from
        // PE 1: tiny compute, a huge exchange that was almost all wait.
        // Shard 1 stalled, was respawned, and its replacement generation
        // replayed the step quickly — its spans show nothing unusual.
        let mut victim = snap(
            0,
            0,
            1,
            vec![
                span(PhaseId::Compute, 0, 0, 1_000),
                span(PhaseId::Exchange, 0, 0, 2_000_000),
                span(PhaseId::Wait, 0, 0, 1_999_000),
            ],
        );
        victim.snap.flows.push(crate::telemetry::FlowRec {
            kind: FlowKind::Acquire,
            step: 0,
            from: 1,
            to: 0,
            at_ns: 2_000_000,
            waited_ns: 1_999_000,
        });
        let respawned = snap(
            1,
            1,
            2,
            vec![
                span(PhaseId::Compute, 1, 0, 1_200),
                span(PhaseId::Exchange, 1, 0, 300),
            ],
        );
        let report = ProfileReport::build(&[victim, respawned], &ProfileOptions::default());
        let row = &report.steps[0];
        // Busy time alone would pick the respawned shard's normal compute;
        // the recorded wait against PE 1 overrules it.
        assert_eq!(row.straggler_pe, 1);
        assert_eq!(row.straggler_shard, 1);
        assert_eq!(row.straggler_busy_ns, 1_999_000);
        assert_eq!(report.dominant_straggler(), Some((1, 1)));
    }

    #[test]
    fn model_section_localizes_residuals() {
        let report = ProfileReport::build(
            &[two_pe_shard()],
            &ProfileOptions {
                // One block of 10 words on the busiest PE.
                loads: vec![(10, 1)],
                // t_l = 100 ns, t_w = 10 ns → predicted exchange 200 ns.
                link: Some((100e-9, 10e-9)),
                overlap: false,
            },
        );
        let m = report.model.as_ref().expect("model");
        assert_eq!(m.predicted_exchange_ns, 200);
        assert_eq!(m.measured_exchange_ns, 500);
        assert_eq!(m.measured_interior_ns, 300);
        assert_eq!(m.predicted_step_ns, 500);
        let table = report.render_table();
        assert!(table.contains("Eq. (2) exchange"), "{table}");
        assert!(table.contains("+150.0% vs model"), "{table}");
        let json = report.to_json();
        assert!(json.contains("\"predicted_exchange_ns\":200"));
        assert!(json.contains("\"overlap\":false"));
    }

    #[test]
    fn json_is_wellformed_without_model() {
        let report = ProfileReport::build(&[two_pe_shard()], &ProfileOptions::default());
        let json = report.to_json();
        assert!(json.starts_with("{\"steps\":["));
        assert!(json.ends_with("}"));
        assert!(json.contains("\"model\":null"));
        assert!(json.contains("\"wall_ns\":1000"));
    }

    #[test]
    fn dropped_spans_are_called_out() {
        let mut st = two_pe_shard();
        st.snap.spans_dropped = 7;
        let report = ProfileReport::build(&[st], &ProfileOptions::default());
        assert_eq!(report.spans_dropped, 7);
        assert!(report
            .render_table()
            .contains("7 spans dropped from ring buffers"));
    }
}

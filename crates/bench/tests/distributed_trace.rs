//! Distributed-trace conformance: the merged multi-process trace a
//! `--transport proc` run emits must agree with the in-process
//! shared-memory trace on *logical* span structure per PE, align into one
//! coherent timeline, pair every cross-shard flow arrow, and feed a
//! profiler whose rows sum exactly to the measured step walls — and under
//! wire-stall chaos the profiler must name the stalled shard as the step
//! straggler from its victims' testimony alone.
//!
//! `harness = false`: the proc backend re-executes this binary as shard
//! children via `current_exe()`, and the shard hook must run before any
//! other code. A custom `main` routes children first, then runs the
//! sections sequentially.

use quake_app::executor::BspExecutor;
use quake_app::transport::run;
use quake_app::transport::wire::RunSpec;
use quake_app::transport::{proc, TransportKind};
use quake_bench::trace::{validate_chrome_trace, validate_prometheus};
use quake_core::telemetry::profile::{ProfileOptions, ProfileReport};
use quake_core::telemetry::{
    merged_chrome_trace, merged_telemetry, DriftConfig, PhaseId, TelemetryConfig,
};
use std::collections::BTreeMap;

const PARTS: usize = 5;
const STEPS: u64 = 4;

fn base_spec(case: u64, shards: usize) -> RunSpec {
    RunSpec {
        parts: PARTS,
        steps: STEPS,
        threads: 2,
        shards,
        trace: true,
        span_capacity: 8192,
        x_kind: "rng".to_string(),
        x_seed: 500 + case,
        ..RunSpec::default()
    }
}

/// Logical span structure: how many spans of each deterministic phase
/// each (step, PE) lane carries. Wait/barrier spans are timing-dependent
/// (emitted only when time was actually lost) and excluded; the
/// compute/exchange/post skeleton is schedule-determined and must be
/// identical across transports.
fn span_structure(
    spans: &[quake_core::telemetry::Span],
    pe_lo: u32,
    pe_hi: u32,
) -> BTreeMap<(u64, u32, &'static str), usize> {
    let mut out = BTreeMap::new();
    for s in spans {
        if !(pe_lo..pe_hi).contains(&s.pe) {
            continue;
        }
        let name = match s.phase {
            PhaseId::Compute | PhaseId::Exchange | PhaseId::Post => s.phase.name(),
            _ => continue,
        };
        *out.entry((s.step, s.pe, name)).or_insert(0) += 1;
    }
    out
}

/// One spec, three verdicts: structure parity with the shared transport,
/// a valid merged artifact pair, and exact profiler attribution.
fn merged_trace_conforms(shards: usize) {
    let spec = base_spec(shards as u64, shards);
    let label = format!("merged-trace (shards {shards})");
    let built = run::build(&spec).unwrap_or_else(|e| panic!("{label}: build failed: {e}"));
    let out = run::run_with(TransportKind::Proc, &spec, &built)
        .unwrap_or_else(|e| panic!("{label}: proc run failed: {e}"));

    // Every shard delivered exactly one generation-0 snapshot, and the
    // owned PE ranges partition 0..parts.
    assert_eq!(out.shard_telemetry.len(), shards, "{label}: snapshots");
    let mut next_pe = 0u32;
    for (k, st) in out.shard_telemetry.iter().enumerate() {
        assert_eq!(st.snap.ctx.shard as usize, k, "{label}: shard order");
        assert_eq!(st.snap.pe_lo, next_pe, "{label}: PE ranges must tile");
        assert!(st.snap.pe_hi > st.snap.pe_lo);
        assert_eq!(st.snap.steps, STEPS);
        next_pe = st.snap.pe_hi;
    }
    assert_eq!(next_pe as usize, PARTS, "{label}: PE ranges cover all PEs");
    let run_id = out.shard_telemetry[0].snap.ctx.run_id;
    assert!(
        out.shard_telemetry
            .iter()
            .all(|s| s.snap.ctx.run_id == run_id),
        "{label}: one run id across the ensemble"
    );

    // The same problem traced in-process over the shared transport: the
    // logical span skeleton per (step, PE) must match the union of the
    // shard snapshots exactly.
    let mut exec = BspExecutor::new(&built.system, spec.threads);
    exec.enable_telemetry(TelemetryConfig {
        span_capacity: spec.span_capacity,
        drift: Some(DriftConfig {
            min_time_s: 1.0,
            ..DriftConfig::default()
        }),
        ..TelemetryConfig::default()
    });
    let y_shared = exec.run(&built.x, STEPS);
    assert!(
        y_shared.len() == out.y.len()
            && y_shared.iter().zip(&out.y).all(|(u, v)| (
                u.x.to_bits(),
                u.y.to_bits(),
                u.z.to_bits()
            ) == (
                v.x.to_bits(),
                v.y.to_bits(),
                v.z.to_bits()
            )),
        "{label}: traced proc output diverged from traced shared"
    );
    let telemetry = exec.telemetry().expect("telemetry armed");
    let reference: Vec<_> = telemetry.spans.iter().copied().collect();
    let shared_structure = span_structure(&reference, 0, PARTS as u32);
    let mut proc_structure = BTreeMap::new();
    for st in &out.shard_telemetry {
        proc_structure.extend(span_structure(&st.snap.spans, st.snap.pe_lo, st.snap.pe_hi));
    }
    assert_eq!(
        shared_structure, proc_structure,
        "{label}: logical span structure diverged between transports"
    );

    // Aligned timestamps are monotonic per track: within each shard's
    // clock, on every PE lane, step s+1 work starts after step s work.
    for st in &out.shard_telemetry {
        let mut first_start: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        for s in &st.snap.spans {
            let e = first_start.entry((s.pe, s.step)).or_insert(u64::MAX);
            *e = (*e).min(s.start_ns);
        }
        let mut prev: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (&(pe, step), &start) in &first_start {
            if let Some(&(pstep, pstart)) = prev.get(&pe) {
                assert!(
                    step > pstep && start >= pstart,
                    "{label}: shard {} PE {pe}: step {step} starts at {start} \
                     before step {pstep} at {pstart}",
                    st.snap.ctx.shard
                );
            }
            prev.insert(pe, (step, start));
        }
    }

    // The merged Chrome trace validates, shows one process track per
    // shard, and pairs every flow arrow.
    let trace = merged_chrome_trace("distributed-trace", &out.shard_telemetry, &[]);
    let summary = validate_chrome_trace(&trace)
        .unwrap_or_else(|e| panic!("{label}: merged trace invalid: {e}"));
    assert!(
        summary.pids.len() >= shards,
        "{label}: expected ≥{shards} process tracks, saw {}",
        summary.pids.len()
    );
    assert!(
        summary.flow_starts > 0,
        "{label}: no cross-shard flow arrows in the merged trace"
    );
    assert_eq!(summary.flow_starts, summary.flow_finishes);
    assert!(summary.has_span("compute") && summary.has_span("exchange"));

    // The merged Prometheus exposition validates too.
    let metrics = merged_telemetry(&out.shard_telemetry).to_prometheus();
    validate_prometheus(&metrics)
        .unwrap_or_else(|e| panic!("{label}: merged exposition invalid: {e}"));

    // Profiler attribution: one row per step, each summing to its
    // measured step wall exactly, stragglers real PEs.
    let report = ProfileReport::build(
        &out.shard_telemetry,
        &ProfileOptions {
            loads: Vec::new(),
            link: Some((out.link.t_l, out.link.t_w)),
            overlap: false,
        },
    );
    assert_eq!(report.steps.len(), STEPS as usize, "{label}: profile rows");
    for row in &report.steps {
        assert_eq!(
            row.rungs.total_ns(),
            row.wall_ns,
            "{label}: step {} rungs do not sum to the wall",
            row.step
        );
        assert!((row.straggler_pe as usize) < PARTS);
    }
    let table = report.render_table();
    assert!(table.contains("critical-path attribution"), "{table}");
    println!(
        "{label}: structure parity, {} flows paired, {} process tracks, profile exact",
        summary.flow_starts,
        summary.pids.len()
    );
}

/// Under seeded wire chaos that injects a hung-peer stall, the profiler
/// must name the stalled shard as the straggler of the stalled step —
/// even though that shard's own span ring died with its killed process:
/// the victims' recorded acquire waits testify against it.
fn stall_chaos_blames_the_stalled_shard() {
    for seed in 0..8u64 {
        let mut spec = base_spec(40 + seed, 3);
        spec.steps = 5;
        spec.conn_timeout = 1.0;
        spec.restart_budget = 5;
        spec.wire_fault_rate = 0.3;
        spec.wire_fault_seed = 7400 + seed;
        let built = run::build(&spec).expect("chaos fixture builds");
        let out = run::run_with(TransportKind::Proc, &spec, &built)
            .unwrap_or_else(|e| panic!("stall seed {seed}: proc run failed: {e}"));
        let stalled: Vec<usize> = out
            .incidents
            .iter()
            .filter(|i| i.kind == "wire-stall")
            .map(|i| i.shard)
            .collect();
        if stalled.is_empty() {
            continue; // this seed drew no stall; try the next
        }
        let report = ProfileReport::build(&out.shard_telemetry, &ProfileOptions::default());
        let worst = report
            .steps
            .iter()
            .max_by_key(|r| r.wall_ns)
            .expect("profiled steps");
        assert!(
            stalled.contains(&(worst.straggler_shard as usize)),
            "stall seed {seed}: stalled shards {stalled:?}, but step {} (wall {} ns) \
             blames shard {}\n{}",
            worst.step,
            worst.wall_ns,
            worst.straggler_shard,
            report.render_table()
        );
        // The blame came from observed wait, which dwarfs any busy time.
        assert!(
            worst.straggler_busy_ns > 100_000_000,
            "stall seed {seed}: blamed wait {} ns is too small for a stall",
            worst.straggler_busy_ns
        );
        println!(
            "stall chaos: seed {seed} stalled shard(s) {stalled:?}, profiler blamed shard {} \
             with {} ns observed wait",
            worst.straggler_shard, worst.straggler_busy_ns
        );
        return;
    }
    panic!("no seed in the scan produced a wire stall; widen the scan");
}

fn main() {
    proc::shard_host_hook();
    merged_trace_conforms(2);
    merged_trace_conforms(3);
    stall_chaos_blames_the_stalled_shard();
    println!("distributed trace: all sections passed");
}

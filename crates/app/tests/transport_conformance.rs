//! Cross-transport conformance: every `Transport` backend must produce the
//! bitwise-identical folded product and exactly matching measurement
//! counters for the same [`RunSpec`], across the full option surface —
//! worker-thread counts 1–8, ±RCM renumbering, ±latency-hiding overlap,
//! ±telemetry, ±chaos-layer fault injection. A gate section also holds
//! the node-aware exchange to its two performance claims under an
//! emulated inter-node link.
//!
//! `harness = false`: the proc backend re-executes this binary as shard
//! children via `current_exe()`, and the shard hook must run before any
//! other code (libtest's argument parsing included). A custom `main`
//! routes children first, then runs the sections sequentially.
//!
//! `QUAKE_CONFORMANCE_QUICK=1` shrinks the matrices for CI smoke runs; the
//! gate section runs the same way in both modes.

use quake_app::transport::run::{self, RunOutput};
use quake_app::transport::wire::RunSpec;
use quake_app::transport::{proc, TransportKind};
use quake_partition::comm::{CommAnalysis, OverlapAnalysis};

const PARTS: usize = 5;
const STEPS: u64 = 6;

fn base_spec(case: u64) -> RunSpec {
    RunSpec {
        parts: PARTS,
        steps: STEPS,
        span_capacity: 4096,
        x_kind: "rng".to_string(),
        x_seed: 40 + case,
        ..RunSpec::default()
    }
}

fn bitwise_eq(a: &[quake_sparse::dense::Vec3], b: &[quake_sparse::dense::Vec3]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(u, v)| {
            (u.x.to_bits(), u.y.to_bits(), u.z.to_bits())
                == (v.x.to_bits(), v.y.to_bits(), v.z.to_bits())
        })
}

/// Per-PE measurement counters must match *exactly* — not approximately —
/// between two transports: the trait carries blocks, not arithmetic, so
/// nothing about the fabric may change what was counted.
fn assert_counters_match(label: &str, reference: &RunOutput, other: &RunOutput) {
    assert_eq!(
        reference.report.pe.len(),
        other.report.pe.len(),
        "{label}: PE count"
    );
    for (q, (a, b)) in reference.report.pe.iter().zip(&other.report.pe).enumerate() {
        assert_eq!(a.flops, b.flops, "{label}: PE {q} flops");
        assert_eq!(a.words_sent, b.words_sent, "{label}: PE {q} words_sent");
        assert_eq!(
            a.words_received, b.words_received,
            "{label}: PE {q} words_received"
        );
        assert_eq!(a.blocks_sent, b.blocks_sent, "{label}: PE {q} blocks_sent");
        assert_eq!(
            a.blocks_received, b.blocks_received,
            "{label}: PE {q} blocks_received"
        );
    }
}

/// The conformance matrix. Each thread count runs two flag combinations,
/// chosen so every ±rcm/±overlap/±trace/±faults value appears at several
/// thread counts, and shards alternate between 2 and 3.
fn matrix(quick: bool) {
    let threads: &[usize] = if quick {
        &[1, 4]
    } else {
        &[1, 2, 3, 4, 5, 6, 7, 8]
    };
    let mut case = 0u64;
    for &t in threads {
        for pick in 0..2u64 {
            // Complementary flag pattern per thread count: case parity
            // flips rcm/overlap, thread parity flips trace/faults.
            let rcm = (case + pick) % 2 == 1;
            let overlap = pick == 1;
            let trace = (t + pick as usize).is_multiple_of(2);
            let faults = (t as u64 + case).is_multiple_of(3);
            let mut spec = base_spec(case);
            spec.threads = t;
            spec.rcm = rcm;
            spec.overlap = overlap;
            spec.trace = trace;
            spec.shards = 2 + (case as usize % 2);
            if faults {
                spec.fault_rate = 0.25;
                spec.fault_seed = 1000 + case;
            }
            run_case(&spec, case);
            case += 1;
        }
    }
    println!("conformance matrix: {case} cases passed");
}

fn run_case(spec: &RunSpec, case: u64) {
    let label = format!(
        "case {case} (threads {}, rcm {}, overlap {}, trace {}, faults {}, shards {})",
        spec.threads,
        spec.rcm,
        spec.overlap,
        spec.trace,
        spec.fault_rate > 0.0,
        spec.shards
    );
    let built = run::build(spec).unwrap_or_else(|e| panic!("{label}: build failed: {e}"));
    let shared = run::run_with(TransportKind::Shared, spec, &built)
        .unwrap_or_else(|e| panic!("{label}: shared run failed: {e}"));
    let netsim = run::run_with(TransportKind::Netsim, spec, &built)
        .unwrap_or_else(|e| panic!("{label}: netsim run failed: {e}"));
    let procr = run::run_with(TransportKind::Proc, spec, &built)
        .unwrap_or_else(|e| panic!("{label}: proc run failed: {e}"));

    // Headline invariant: the folded product is bitwise-identical across
    // every backend.
    assert!(
        bitwise_eq(&shared.y, &netsim.y),
        "{label}: netsim y diverged from shared"
    );
    assert!(
        bitwise_eq(&shared.y, &procr.y),
        "{label}: proc y diverged from shared"
    );
    assert_counters_match(&format!("{label} netsim"), &shared, &netsim);
    assert_counters_match(&format!("{label} proc"), &shared, &procr);

    // Counters must also match the static characterization exactly: the
    // same convention the validation layer enforces, per PE.
    let analysis = CommAnalysis::new(&built.app.mesh, &built.partition);
    let steps = spec.steps;
    for (q, (c, predicted)) in shared.report.pe.iter().zip(analysis.per_pe()).enumerate() {
        assert_eq!(c.flops / steps, predicted.flops, "{label}: PE {q} flops");
        assert_eq!(
            (c.words_sent + c.words_received) / steps,
            predicted.words,
            "{label}: PE {q} words"
        );
        assert_eq!(
            (c.blocks_sent + c.blocks_received) / steps,
            predicted.blocks,
            "{label}: PE {q} blocks"
        );
    }
    if spec.overlap {
        let oa = OverlapAnalysis::new(&built.app.mesh, &built.partition);
        let predicted: Vec<usize> = oa
            .per_pe()
            .iter()
            .map(|p| p.boundary_rows as usize)
            .collect();
        for (transport, out) in [("shared", &shared), ("proc", &procr)] {
            let got = out
                .boundary_rows
                .as_deref()
                .unwrap_or_else(|| panic!("{label}: {transport} reported no boundary split"));
            assert_eq!(got, predicted, "{label}: {transport} boundary rows");
        }
    }

    // Link provenance: proc measures its parameters from the live socket,
    // the in-process backends run presets.
    assert!(
        procr.link.measured,
        "{label}: proc link must be microbenchmarked"
    );
    assert!(
        procr.link.t_l > 0.0 && procr.link.t_w > 0.0,
        "{label}: measured link parameters must be positive"
    );
    assert!(!shared.link.measured, "{label}: shared link is a preset");
    assert!(!netsim.link.measured, "{label}: netsim link is a preset");
    let modeled = netsim
        .modeled_exchange_s
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: netsim must model the exchange"));
    assert!(
        modeled.iter().sum::<f64>() > 0.0,
        "{label}: postal model billed nothing"
    );

    // Chaos composition: the ledger balances and matches across fabrics
    // (the plan is a pure function of the spec, and shards own disjoint
    // PE ranges, so the merged proc ledger equals the in-process one).
    if spec.fault_rate > 0.0 {
        match (&shared.report.fault, &procr.report.fault) {
            (Some(a), Some(b)) => {
                assert!(a.balanced(), "{label}: shared ledger unbalanced");
                assert!(b.balanced(), "{label}: proc ledger unbalanced");
                assert_eq!(a.injected, b.injected, "{label}: injected mismatch");
                assert_eq!(a.detected, b.detected, "{label}: detected mismatch");
                assert_eq!(a.recovered, b.recovered, "{label}: recovered mismatch");
            }
            (a, b) => panic!(
                "{label}: fault report presence diverged (shared {}, proc {})",
                a.is_some(),
                b.is_some()
            ),
        }
    }
}

/// The node-aggregation matrix: the node-aware two-level exchange across
/// node counts 1, 2 and one-node-per-shard, shard counts 2 and 3, ±RCM,
/// ±overlap and ±chaos. Aggregation is transport-level, so every node-aware
/// run — on every backend — must be bitwise-identical to the FLAT shared
/// run of the same spec, with exactly equal per-PE counters (the logical
/// exchange never changes, only how blocks ride the fabric) and balanced
/// fault ledgers matching the flat run's.
fn node_matrix(quick: bool) {
    let cells: Vec<(usize, bool, bool, bool)> = if quick {
        vec![
            (2, false, false, false),
            (3, true, true, false),
            (2, false, true, true),
        ]
    } else {
        let mut v = Vec::new();
        for shards in [2usize, 3] {
            for rcm in [false, true] {
                for overlap in [false, true] {
                    for faults in [false, true] {
                        v.push((shards, rcm, overlap, faults));
                    }
                }
            }
        }
        v
    };
    let mut cases = 0usize;
    for (i, &(shards, rcm, overlap, faults)) in cells.iter().enumerate() {
        let case = 500 + i as u64;
        let mut flat = base_spec(case);
        flat.threads = 2;
        flat.shards = shards;
        flat.rcm = rcm;
        flat.overlap = overlap;
        // Trace half the cells so the gather-span/histogram path runs too.
        flat.trace = i % 2 == 0;
        if faults {
            flat.fault_rate = 0.25;
            flat.fault_seed = 2000 + case;
        }
        let built = run::build(&flat).unwrap_or_else(|e| panic!("node case {case}: build: {e}"));
        let reference = run::run_with(TransportKind::Shared, &flat, &built)
            .unwrap_or_else(|e| panic!("node case {case}: flat shared run: {e}"));
        let mut node_counts = vec![1usize, 2, shards];
        node_counts.dedup();
        for nodes in node_counts {
            let mut spec = flat.clone();
            spec.nodes = nodes;
            for kind in [
                TransportKind::Shared,
                TransportKind::Netsim,
                TransportKind::Proc,
            ] {
                let label = format!(
                    "node case {case} (shards {shards}, nodes {nodes}, rcm {rcm}, overlap \
                     {overlap}, faults {faults}, {kind:?})"
                );
                let out = run::run_with(kind, &spec, &built)
                    .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
                assert!(
                    bitwise_eq(&reference.y, &out.y),
                    "{label}: aggregated y diverged from the flat shared run"
                );
                assert_counters_match(&label, &reference, &out);
                if faults {
                    let (a, b) = (
                        reference.report.fault.as_ref().expect("flat ledger"),
                        out.report
                            .fault
                            .as_ref()
                            .unwrap_or_else(|| panic!("{label}: missing fault ledger")),
                    );
                    assert!(b.balanced(), "{label}: ledger unbalanced:\n{b}");
                    assert_eq!(a.injected, b.injected, "{label}: injected mismatch");
                    assert_eq!(a.recovered, b.recovered, "{label}: recovered mismatch");
                }
                cases += 1;
            }
        }
    }
    println!("node aggregation matrix: {cases} node-aware runs matched the flat reference");
}

/// The node-aware exchange gates: 16 PEs on 4 shard processes placed on 2
/// nodes, with every cross-node frame held 5 ms (a netem-style emulated
/// inter-node link; on one host the intra- and inter-node legs are
/// otherwise the same socket, which no message-count optimisation can tell
/// apart). The flat arm (`aggregate` off) keeps the placement and the slow
/// link but sends every boundary frame across it; the aggregated arm
/// gathers partials intra-node and sends one merged block per node pair.
/// Two gates, both on the exchange wall per step:
///
/// 1. the aggregated exchange beats the flat one;
/// 2. on the aggregated run, the max-rate model (Bienz, Gropp & Olson)
///    scores closer to the measured wall than Eq. (2), which charges the
///    slow link for every flat boundary message.
///
/// Both models are scored by [`run::score_exchange`], the same numbers
/// `smvp-run` prints.
fn node_exchange_gates() {
    let flat = RunSpec {
        parts: 16,
        threads: 2,
        steps: 4,
        shards: 4,
        nodes: 2,
        aggregate: false,
        wire_latency: 5e-3,
        ..RunSpec::default()
    };
    let aggregated = RunSpec {
        aggregate: true,
        ..flat.clone()
    };
    let built = run::build(&flat).expect("node gate fixture builds");
    let run_proc = |spec: &RunSpec, arm: &str| {
        let out = run::run_with(TransportKind::Proc, spec, &built)
            .unwrap_or_else(|e| panic!("node gates: {arm} proc run failed: {e}"));
        (run::score_exchange(spec, &built, &out), out.y)
    };
    let (flat_score, flat_y) = run_proc(&flat, "flat");
    let (score, y) = run_proc(&aggregated, "aggregated");
    assert!(
        bitwise_eq(&flat_y, &y),
        "node gates: aggregated y diverged from the flat run"
    );
    assert!(
        score.measured_s < flat_score.measured_s,
        "node gates: the aggregated exchange ({:.3e} s/step) must beat the flat one \
         ({:.3e} s/step)",
        score.measured_s,
        flat_score.measured_s
    );
    let maxrate_err = score
        .maxrate_rel_err()
        .expect("an aggregating run is scored by the max-rate model");
    assert!(
        maxrate_err < score.eq2_rel_err(),
        "node gates: the max-rate model's rel error ({maxrate_err:.4}) must be below \
         Eq. (2)'s ({:.4})",
        score.eq2_rel_err()
    );
    println!(
        "node exchange gates: aggregated {:.3e} s/step vs flat {:.3e} s/step; max-rate rel \
         err {:.1}% vs Eq. (2) rel err {:.1}%",
        score.measured_s,
        flat_score.measured_s,
        100.0 * maxrate_err,
        100.0 * score.eq2_rel_err()
    );
}

/// The wire-chaos matrix: seeded fault injection on the live socket
/// stream — payload corruption, tail truncation, delays, connection
/// resets and hung-peer stalls — across shard counts and schedule
/// variants. Every recovered run must be bitwise-identical to the
/// fault-free shared-memory run of the same spec, with exactly matching
/// per-PE counters and a balanced wire ledger, and an intact restart
/// budget must never escalate to a whole-ensemble restart.
fn wire_chaos_matrix(quick: bool) {
    let cells: Vec<(usize, bool, bool, bool)> = if quick {
        vec![
            (2, false, false, false),
            (3, true, false, true),
            (2, false, true, true),
            (3, true, true, false),
        ]
    } else {
        let mut v = Vec::new();
        for shards in [2usize, 3] {
            for rcm in [false, true] {
                for overlap in [false, true] {
                    for trace in [false, true] {
                        v.push((shards, rcm, overlap, trace));
                    }
                }
            }
        }
        v
    };
    let mut seen = quake_core::fault::WireFaultCounts::default();
    let mut respawns = 0u64;
    for (i, &(shards, rcm, overlap, trace)) in cells.iter().enumerate() {
        let case = 700 + i as u64;
        let label = format!(
            "wire case {case} (shards {shards}, rcm {rcm}, overlap {overlap}, trace {trace})"
        );
        let mut spec = base_spec(case);
        spec.threads = 2;
        spec.shards = shards;
        spec.rcm = rcm;
        spec.overlap = overlap;
        spec.trace = trace;
        // Deadline and budget sized for the worst chaos cell: every
        // shard may stall once (each costs one respawn) and a slow
        // respawn may draw one extra suspect, so the budget needs
        // headroom above `shards` for the no-ensemble-restart assertion
        // to be fair.
        spec.conn_timeout = 1.0;
        spec.restart_budget = 5;
        spec.wire_fault_rate = 0.3;
        spec.wire_fault_seed = 7000 + case;
        let built = run::build(&spec).unwrap_or_else(|e| panic!("{label}: build failed: {e}"));
        let reference = run::run_with(TransportKind::Shared, &spec, &built)
            .unwrap_or_else(|e| panic!("{label}: shared run failed: {e}"));
        let chaotic = run::run_with(TransportKind::Proc, &spec, &built)
            .unwrap_or_else(|e| panic!("{label}: proc run failed: {e}"));
        assert!(
            bitwise_eq(&reference.y, &chaotic.y),
            "{label}: recovered output diverged from the fault-free run"
        );
        assert_counters_match(&label, &reference, &chaotic);
        let timeline: Vec<String> = chaotic
            .incidents
            .iter()
            .map(|i| format!("t+{:.2}s shard {} {}", i.t_s, i.shard, i.kind))
            .collect();
        let fr = chaotic
            .report
            .fault
            .unwrap_or_else(|| panic!("{label}: a chaos run must carry a fault report"));
        assert!(
            fr.wire_injected.total() > 0,
            "{label}: the armed plan injected nothing; incidents: {timeline:?}\n{fr}"
        );
        assert!(fr.balanced(), "{label}: wire ledger unbalanced:\n{fr}");
        assert_eq!(
            fr.ensemble_restarts, 0,
            "{label}: ensemble restart despite an intact shard-restart budget"
        );
        seen.corrupt += fr.wire_injected.corrupt;
        seen.truncate += fr.wire_injected.truncate;
        seen.delay += fr.wire_injected.delay;
        seen.reset += fr.wire_injected.reset;
        seen.stall += fr.wire_injected.stall;
        respawns += fr.respawned_shards;
    }
    if !quick {
        // Across the full matrix every fault kind must have fired at
        // least once — otherwise the matrix is not exercising what it
        // claims to.
        for (kind, n) in [
            ("corrupt", seen.corrupt),
            ("truncate", seen.truncate),
            ("delay", seen.delay),
            ("reset", seen.reset),
            ("stall", seen.stall),
        ] {
            assert!(n > 0, "wire matrix never injected a {kind} fault");
        }
    }
    println!(
        "wire chaos matrix: {} cases passed (injected {} = corrupt {} + truncate {} + delay {} \
         + reset {} + stall {}; {} shard respawns, 0 ensemble restarts)",
        cells.len(),
        seen.total(),
        seen.corrupt,
        seen.truncate,
        seen.delay,
        seen.reset,
        seen.stall,
        respawns
    );
}

/// A shard killed mid-step: the supervisor must
/// respawn ONLY the dead shard — the survivors hold in degraded wait, the
/// child rebuilds from the spec and replays — and the recovered output is
/// bitwise-identical to the shared-memory transport. An ensemble restart
/// here would mean the shard-level ladder rung was skipped.
fn peer_kill_restart_recovers(tmp: &std::path::Path) {
    let mut spec = base_spec(901);
    spec.threads = 2;
    spec.shards = 2;
    spec.conn_timeout = 2.0;
    let marker = tmp.join("kill-once-restart");
    let built = run::build(&spec).expect("restart fixture builds");
    let reference = run::run_with(TransportKind::Shared, &spec, &built).expect("shared reference");
    std::env::set_var("QUAKE_PROC_KILL", "0:2");
    std::env::set_var("QUAKE_PROC_KILL_ONCE", &marker);
    let result = run::run_with(TransportKind::Proc, &spec, &built);
    std::env::remove_var("QUAKE_PROC_KILL");
    std::env::remove_var("QUAKE_PROC_KILL_ONCE");
    assert!(
        marker.exists(),
        "the kill plan must have armed (marker missing)"
    );
    let out = result.expect("shard respawn must revive the shard");
    assert!(
        bitwise_eq(&reference.y, &out.y),
        "recovered proc output diverged from shared"
    );
    let fr = out.report.fault.expect("a respawn run carries a report");
    assert!(
        fr.respawned_shards >= 1,
        "the kill must recover via a shard respawn, got:\n{fr}"
    );
    assert_eq!(
        fr.ensemble_restarts, 0,
        "shard-level recovery must not escalate to an ensemble restart"
    );
    assert!(
        out.incidents.iter().any(|i| i.kind == "shard-respawn"),
        "the incident timeline must record the respawn"
    );
    println!(
        "peer-kill restart: shard respawned in place ({} respawns, 0 ensemble restarts), \
         output bitwise-equal",
        fr.respawned_shards
    );
}

/// With the shard-restart budget zeroed out, the same one-shot kill must
/// fall through to the next ladder rung: one whole-ensemble retry, which
/// succeeds because the kill marker is spent.
fn budget_zero_falls_back_to_ensemble_retry(tmp: &std::path::Path) {
    let mut spec = base_spec(902);
    spec.threads = 2;
    spec.shards = 2;
    spec.conn_timeout = 2.0;
    spec.restart_budget = 0;
    let marker = tmp.join("kill-once-no-budget");
    let built = run::build(&spec).expect("budget fixture builds");
    let reference = run::run_with(TransportKind::Shared, &spec, &built).expect("shared reference");
    std::env::set_var("QUAKE_PROC_KILL", "0:2");
    std::env::set_var("QUAKE_PROC_KILL_ONCE", &marker);
    let result = run::run_with(TransportKind::Proc, &spec, &built);
    std::env::remove_var("QUAKE_PROC_KILL");
    std::env::remove_var("QUAKE_PROC_KILL_ONCE");
    let out = result.expect("the ensemble retry must recover the run");
    assert!(
        bitwise_eq(&reference.y, &out.y),
        "ensemble-retried output diverged from shared"
    );
    let fr = out
        .report
        .fault
        .expect("an ensemble retry carries a report");
    assert_eq!(fr.respawned_shards, 0, "budget 0 forbids shard respawns");
    assert_eq!(fr.ensemble_restarts, 1, "exactly one ensemble retry");
    println!("budget-zero kill: recovered by one ensemble retry, output bitwise-equal");
}

/// A shard that dies on EVERY attempt must exhaust the whole ladder —
/// restart budget, then the ensemble retry — and surface as a typed
/// error, not a hang or a panic.
fn persistent_kill_exhausts_the_ladder() {
    let mut spec = base_spec(903);
    spec.threads = 1;
    spec.steps = 3;
    spec.shards = 2;
    spec.conn_timeout = 1.0;
    spec.restart_budget = 1;
    let built = run::build(&spec).expect("ladder fixture builds");
    std::env::set_var("QUAKE_PROC_KILL", "1:1");
    let result = run::run_with(TransportKind::Proc, &spec, &built);
    std::env::remove_var("QUAKE_PROC_KILL");
    let err = match result {
        Ok(_) => panic!("a persistently dying shard must fail the run"),
        Err(e) => e,
    };
    assert!(
        err.contains("shard") || err.contains("disconnected") || err.contains("suspect"),
        "the exhausted ladder must name the shard, got: {err}"
    );
    println!("persistent kill: ladder exhausted into a typed error ({err})");
}

fn main() {
    proc::shard_host_hook();
    let quick = std::env::var("QUAKE_CONFORMANCE_QUICK").is_ok();
    if quick {
        println!("transport conformance: quick mode");
    }
    let tmp = std::env::temp_dir().join(format!("quake-conformance-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("scratch dir");
    matrix(quick);
    node_matrix(quick);
    node_exchange_gates();
    wire_chaos_matrix(quick);
    peer_kill_restart_recovers(&tmp);
    budget_zero_falls_back_to_ensemble_retry(&tmp);
    persistent_kill_exhausts_the_ladder();
    let _ = std::fs::remove_dir_all(&tmp);
    println!("transport conformance: all sections passed");
}

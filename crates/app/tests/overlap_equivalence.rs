//! The latency-hiding schedule's equivalence guarantee, quantified.
//!
//! `--overlap on` restructures the executor's compute and exchange phases
//! into one merged broadcast (boundary rows posted first, interior rows
//! overlapping the exchange), but it must be *observationally invisible*
//! to the numerics: at any worker-thread count from 1 to 8, with or
//! without RCM renumbering, with or without telemetry, with or without
//! chaos-layer fault injection, the overlapped run must produce output
//! **bitwise-equal** to the barrier run of the same product, and the
//! measured `F`/`C_max`/`B_max` counters must match the fault-free
//! characterization exactly. Alongside the equivalence, the row split the
//! executor actually runs must be the split
//! [`OverlapAnalysis`](quake_partition::comm::OverlapAnalysis) prices.
//!
//! The mesh/partition fixture is built once (it is expensive) and shared;
//! each proptest case varies only the cheap knobs.

use proptest::prelude::*;
use quake_app::executor::BspExecutor;
use quake_app::family::{AppConfig, QuakeApp};
use quake_app::DistributedSystem;
use quake_core::fault::{FaultPlan, FaultRates};
use quake_core::telemetry::{DriftConfig, PhaseId, TelemetryConfig};
use quake_fem::assembly::UniformMaterial;
use quake_mesh::ground::Material;
use quake_partition::comm::{CommAnalysis, OverlapAnalysis};
use quake_partition::geometric::{Partitioner, RecursiveBisection};
use quake_sparse::dense::Vec3;
use std::sync::OnceLock;

const PARTS: usize = 6;
const STEPS: u64 = 5;

struct Fixture {
    system: DistributedSystem,
    x: Vec<Vec3>,
    /// Fault-free characterization maxima: (F, C_max, B_max).
    predicted: (u64, u64, u64),
    /// The model's per-PE boundary row counts.
    boundary_rows: Vec<u64>,
    /// Barrier-schedule output, natural node order.
    reference: Vec<Vec3>,
    /// Barrier-schedule output, RCM-renumbered subdomains.
    reference_rcm: Vec<Vec3>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let app = QuakeApp::generate(AppConfig::new("sf10", 10.0, 8.0)).expect("fixture mesh");
        let partition = RecursiveBisection::inertial()
            .partition(&app.mesh, PARTS)
            .expect("fixture partition");
        let analysis = CommAnalysis::new(&app.mesh, &partition);
        let overlap = OverlapAnalysis::new(&app.mesh, &partition);
        let mat = Material {
            vs: 1000.0,
            vp: 2000.0,
            rho: 2000.0,
        };
        let system = DistributedSystem::build(&app.mesh, &partition, &UniformMaterial(mat))
            .expect("fixture system");
        let x: Vec<Vec3> = (0..app.mesh.node_count())
            .map(|i| {
                let s = i as f64;
                Vec3::new((0.1 * s).sin(), (0.2 * s).cos(), (0.3 * s).sin())
            })
            .collect();
        let reference = BspExecutor::new(&system, 2).run(&x, STEPS);
        let reference_rcm = BspExecutor::with_rcm(&system, 2).run(&x, STEPS);
        Fixture {
            predicted: (analysis.f_max(), analysis.c_max(), analysis.b_max()),
            boundary_rows: overlap.per_pe().iter().map(|l| l.boundary_rows).collect(),
            system,
            x,
            reference,
            reference_rcm,
        }
    })
}

fn bitwise_eq(a: &[Vec3], b: &[Vec3]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(u, v)| {
            (u.x.to_bits(), u.y.to_bits(), u.z.to_bits())
                == (v.x.to_bits(), v.y.to_bits(), v.z.to_bits())
        })
}

/// The explicit sweep the issue asks for: every thread count from 1 to 8,
/// both node orderings — the overlapped schedule is bitwise-equal to the
/// barrier schedule and its counters still match the characterization.
#[test]
fn overlap_runs_are_bitwise_equal_across_thread_counts_and_orderings() {
    let fx = fixture();
    for threads in 1..=8 {
        for rcm in [false, true] {
            let mut exec = BspExecutor::with_options(&fx.system, threads, rcm, true);
            assert!(exec.overlap_enabled());
            let y = exec.run(&fx.x, STEPS);
            let reference = if rcm {
                &fx.reference_rcm
            } else {
                &fx.reference
            };
            assert!(
                bitwise_eq(reference, &y),
                "{threads} threads, rcm={rcm}: overlapped run diverged from barrier run"
            );
            let report = exec.report();
            assert_eq!(
                (report.f_max(), report.c_max(), report.b_max()),
                fx.predicted,
                "{threads} threads, rcm={rcm}: counters diverged under overlap"
            );
        }
    }
}

/// The split the executor runs is exactly the split the model prices: the
/// per-PE boundary row counts match `OverlapAnalysis` one for one, and
/// every boundary count is a strict subset of the PE's rows on a
/// multi-PE partition.
#[test]
fn executor_boundary_split_matches_overlap_analysis_exactly() {
    let fx = fixture();
    for rcm in [false, true] {
        let exec = BspExecutor::with_options(&fx.system, 2, rcm, true);
        let split = exec.overlap_boundary_rows().expect("overlap armed");
        let measured: Vec<u64> = split.iter().map(|&nb| nb as u64).collect();
        assert_eq!(
            measured, fx.boundary_rows,
            "rcm={rcm}: executor split disagrees with OverlapAnalysis"
        );
        for (q, (&nb, sd)) in split.iter().zip(fx.system.subdomains()).enumerate() {
            assert!(nb > 0, "PE {q} has no boundary rows on a {PARTS}-way cut");
            assert!(nb < sd.node_count(), "PE {q} has no interior rows");
        }
    }
}

/// Overlap composes with telemetry: output stays bitwise-equal, every
/// overlapped step records Post spans alongside the regular phases, and
/// the drift monitor stays silent (spin-wait time is excluded from the
/// exchange times it judges).
#[test]
fn traced_overlap_runs_record_post_spans_and_stay_drift_silent() {
    let fx = fixture();
    for threads in [1, 3, 8] {
        let mut exec = BspExecutor::with_options(&fx.system, threads, false, true);
        // Drift floor raised past CI scheduler noise: this test asserts
        // wiring and bitwise equality, not the monitor's sensitivity
        // (which drift.rs unit-tests over synthetic times).
        exec.enable_telemetry(TelemetryConfig {
            drift: Some(DriftConfig {
                min_time_s: 1.0,
                ..DriftConfig::default()
            }),
            ..TelemetryConfig::default()
        });
        let y = exec.run(&fx.x, STEPS);
        assert!(
            bitwise_eq(&fx.reference, &y),
            "{threads} threads: traced overlapped run diverged"
        );
        let t = exec.telemetry().expect("telemetry armed");
        assert_eq!(t.steps, STEPS);
        for phase in [
            PhaseId::Assemble,
            PhaseId::Post,
            PhaseId::Compute,
            PhaseId::Exchange,
            PhaseId::Fold,
        ] {
            assert!(
                t.spans.iter().any(|s| s.phase == phase),
                "{threads} threads: no {} span",
                phase.name()
            );
        }
        // One Post span per PE per step: the boundary half of the split.
        let posts = t.spans.iter().filter(|s| s.phase == PhaseId::Post).count() as u64;
        assert_eq!(posts, STEPS * PARTS as u64);
        assert_eq!(t.compute_ns.count(), STEPS * PARTS as u64);
        assert_eq!(t.block_latency_ns.count(), t.block_words.count());
        assert!(
            t.block_latency_ns.count() > 0,
            "no exchange traffic recorded"
        );
        let drift = t.drift.as_ref().expect("drift armed by default");
        assert_eq!(
            drift.flagged_total(),
            0,
            "{threads} threads: drift flagged a clean overlapped run"
        );
        assert!(t.instants().is_empty(), "clean run recorded fault instants");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Overlap composes with the chaos layer (the same step body, split
    /// into a compute and an exchange dispatch): a fault-injected,
    /// recovered run with overlap armed still equals the barrier
    /// fault-free reference, the ledger balances, and the counters are
    /// untouched.
    #[test]
    fn overlapped_chaos_runs_stay_bitwise_equal_and_balanced(
        seed in 0u64..1_000_000,
        threads in 1usize..=8,
        rcm in 0u8..2,
        trace in 0u8..2,
    ) {
        let rcm = rcm == 1;
        let fx = fixture();
        let plan = FaultPlan::generate(seed, STEPS, PARTS, &FaultRates::uniform(0.25));
        let mut exec = BspExecutor::with_options(&fx.system, threads, rcm, true);
        if trace == 1 {
            exec.enable_telemetry(TelemetryConfig::default());
        }
        exec.enable_faults(plan);
        let y = exec.run(&fx.x, STEPS);
        let reference = if rcm { &fx.reference_rcm } else { &fx.reference };
        prop_assert!(
            bitwise_eq(reference, &y),
            "seed {seed}, {threads} threads, rcm={rcm}: overlapped chaos run diverged"
        );
        let report = exec.report();
        let fr = report.fault.expect("armed executor reports faults");
        prop_assert!(fr.balanced(), "seed {seed}: unbalanced ledger: {fr}");
        prop_assert_eq!(
            (report.f_max(), report.c_max(), report.b_max()),
            fx.predicted
        );
    }
}

//! The critical-path profiler's attribution identity, property-tested.
//!
//! `ProfileReport` claims exactness by construction: the rungs of every
//! step row sum to that row's measured step wall, the step wall is the
//! maximum per-PE span total, and the straggler is a real PE of the run.
//! The rows never bill more than the executor itself measured: their walls
//! sum to at most its billed phase walls, so no span is counted twice.
//! These must hold for every schedule the executor can produce — worker
//! threads 1–8, ±RCM renumbering, ±latency-hiding overlap, ±chaos —
//! because the span shapes differ (the overlap schedule emits
//! post/compute/exchange triples, the barrier schedule compute/exchange
//! pairs, chaos steps recover spans, and wait/barrier spans appear only
//! when time was actually lost there).
//!
//! A crash re-run is billed to the crashed PE: its lane carries the
//! re-run as a Recover span, so the profiler's `recover` rung sees it.
//!
//! The mesh/partition fixture is built once (it is expensive) and shared;
//! each proptest case varies only the cheap knobs.

use proptest::prelude::*;
use quake_app::executor::BspExecutor;
use quake_app::family::{AppConfig, QuakeApp};
use quake_app::DistributedSystem;
use quake_core::fault::{FaultEvent, FaultKind, FaultPlan, FaultRates};
use quake_core::telemetry::profile::{ProfileOptions, ProfileReport};
use quake_core::telemetry::{
    DriftConfig, PhaseId, ShardTrace, Telemetry, TelemetryConfig, TelemetrySnapshot, TraceContext,
};
use quake_fem::assembly::UniformMaterial;
use quake_mesh::ground::Material;
use quake_partition::geometric::{Partitioner, RecursiveBisection};
use quake_sparse::dense::Vec3;
use std::sync::OnceLock;

const PARTS: usize = 6;
const STEPS: u64 = 4;

struct Fixture {
    system: DistributedSystem,
    x: Vec<Vec3>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let app = QuakeApp::generate(AppConfig::new("sf10", 10.0, 8.0)).expect("fixture mesh");
        let partition = RecursiveBisection::inertial()
            .partition(&app.mesh, PARTS)
            .expect("fixture partition");
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
        Fixture { system, x }
    })
}

/// Telemetry with the drift noise floor raised past anything a loaded CI
/// machine can produce (these tests assert attribution arithmetic, not
/// drift sensitivity) and a ring large enough that no span is dropped.
fn quiet_telemetry() -> TelemetryConfig {
    TelemetryConfig {
        span_capacity: 1 << 14,
        drift: Some(DriftConfig {
            min_time_s: 1.0,
            ..DriftConfig::default()
        }),
        ..TelemetryConfig::default()
    }
}

/// Captures `telemetry` as one shard owning PEs `pe_lo..pe_hi` (the
/// profiler attributes only those lanes) and profiles it.
fn profile(
    telemetry: &Telemetry,
    pe_lo: u32,
    pe_hi: u32,
    overlap: bool,
) -> (ShardTrace, ProfileReport) {
    let shard = ShardTrace {
        snap: TelemetrySnapshot::capture(
            telemetry,
            TraceContext {
                run_id: 0,
                shard: 0,
                generation: 0,
            },
            pe_lo,
            pe_hi,
            Vec::new(),
            0,
        ),
        clock_offset_ns: 0,
    };
    let report = ProfileReport::build(
        std::slice::from_ref(&shard),
        &ProfileOptions {
            loads: Vec::new(),
            link: None,
            overlap,
        },
    );
    (shard, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every schedule, with or without chaos: each attribution row
    /// sums to its measured step wall exactly, the rows' walls sum to at
    /// most the executor's billed wall, every step appears, and the
    /// straggler is a real PE.
    #[test]
    fn attribution_rows_sum_to_the_measured_step_wall(
        threads in 1usize..=8,
        rcm in 0u8..2,
        overlap in 0u8..2,
        faults in 0u8..2,
        seed in 0u64..1_000,
    ) {
        let (rcm, overlap, faults) = (rcm == 1, overlap == 1, faults == 1);
        let fx = fixture();
        let mut exec = BspExecutor::with_options(&fx.system, threads, rcm, overlap);
        if faults {
            exec.enable_faults(FaultPlan::generate(
                seed,
                STEPS,
                PARTS,
                &FaultRates::uniform(0.25),
            ));
        }
        exec.enable_telemetry(quiet_telemetry());
        exec.run(&fx.x, STEPS);
        let telemetry = exec.telemetry().expect("telemetry armed");
        prop_assert!(telemetry.spans.dropped() == 0, "ring sized for the run");
        let (shard, report) = profile(telemetry, 0, PARTS as u32, overlap);
        prop_assert_eq!(report.steps.len(), STEPS as usize);
        let mut total_wall = 0u64;
        for (i, row) in report.steps.iter().enumerate() {
            prop_assert_eq!(row.step, i as u64);
            // The identity under test: rungs are a *partition* of the
            // wall-defining PE's step time, so they sum back exactly.
            prop_assert!(
                row.rungs.total_ns() == row.wall_ns,
                "threads {} rcm {} overlap {} step {}: rungs sum {} != wall {}",
                threads, rcm, overlap, i, row.rungs.total_ns(), row.wall_ns
            );
            prop_assert!(row.wall_ns > 0, "a real step takes time");
            prop_assert!((row.crit_pe as usize) < PARTS);
            prop_assert!((row.straggler_pe as usize) < PARTS);
            prop_assert!(row.straggler_busy_ns <= row.wall_ns);
            // The overlap schedule is the only source of post spans.
            if !overlap {
                prop_assert_eq!(row.rungs.post_ns, 0);
            }
            total_wall += row.wall_ns;
        }
        prop_assert_eq!(report.totals.total_ns(), total_wall);
        // No span is billed twice: the rows' walls never exceed the wall
        // the executor billed, up to each span's ns truncation (a row holds
        // at most eight spans per step).
        let billed_ns = exec.report().phases.total() * 1e9;
        prop_assert!(
            total_wall as f64 <= billed_ns + (8 * STEPS) as f64,
            "threads {} rcm {} overlap {} faults {}: rows bill {} ns, executor {} ns",
            threads, rcm, overlap, faults, total_wall, billed_ns
        );
        // The profiler is pure over the same snapshot: rebuilding must
        // reproduce the rows bit for bit.
        let again = ProfileReport::build(
            std::slice::from_ref(&shard),
            &ProfileOptions { loads: Vec::new(), link: None, overlap },
        );
        for (a, b) in report.steps.iter().zip(&again.steps) {
            prop_assert_eq!(a.rungs, b.rungs);
            prop_assert_eq!(a.straggler_pe, b.straggler_pe);
        }
    }
}

/// A crash re-run is billed to the crashed PE: the re-run is a Recover
/// span on that PE's lane only, the PE's `recover` rung on the crash step
/// holds at least the whole span, every row still sums to its step wall,
/// for every PE and for the crashed PE's lane alone, and the rows bill no
/// more than the executor measured (the re-run's nested own stages are
/// not counted twice).
#[test]
fn crash_rerun_is_billed_to_the_crashed_pe() {
    const CRASHED: usize = 4;
    const AT: u64 = 2;
    let fx = fixture();
    for overlap in [false, true] {
        let mut exec = BspExecutor::with_options(&fx.system, 3, false, overlap);
        exec.enable_faults(FaultPlan::from_events(vec![FaultEvent {
            step: AT,
            pe: CRASHED,
            kind: FaultKind::Crash,
        }]));
        exec.enable_telemetry(quiet_telemetry());
        exec.run(&fx.x, STEPS);
        let telemetry = exec.telemetry().expect("telemetry armed");
        assert_eq!(telemetry.spans.dropped(), 0, "ring sized for the run");
        let reruns: Vec<_> = telemetry
            .spans
            .iter()
            .filter(|s| s.phase == PhaseId::Recover)
            .collect();
        assert!(
            !reruns.is_empty(),
            "overlap {overlap}: the crash was re-run"
        );
        assert!(
            reruns
                .iter()
                .all(|s| s.pe == CRASHED as u32 && s.step == AT),
            "overlap {overlap}: re-runs belong to the crashed PE's lane: {reruns:?}"
        );
        let rerun_ns: u64 = reruns.iter().map(|s| s.dur_ns).sum();
        for (lo, hi) in [(0, PARTS as u32), (CRASHED as u32, CRASHED as u32 + 1)] {
            let (_, report) = profile(telemetry, lo, hi, overlap);
            assert_eq!(report.steps.len(), STEPS as usize);
            for row in &report.steps {
                assert_eq!(
                    row.rungs.total_ns(),
                    row.wall_ns,
                    "overlap {overlap} lanes {lo}..{hi} step {}",
                    row.step
                );
            }
        }
        let (_, all) = profile(telemetry, 0, PARTS as u32, overlap);
        let rows_ns: u64 = all.steps.iter().map(|r| r.wall_ns).sum();
        let billed_ns = exec.report().phases.total() * 1e9;
        assert!(
            rows_ns as f64 <= billed_ns + (8 * STEPS) as f64,
            "overlap {overlap}: rows bill {rows_ns} ns, executor {billed_ns} ns"
        );
        let (_, lane) = profile(telemetry, CRASHED as u32, CRASHED as u32 + 1, overlap);
        let row = &lane.steps[AT as usize];
        assert_eq!(row.crit_pe, CRASHED as u32);
        assert!(
            row.rungs.recover_ns >= rerun_ns,
            "overlap {overlap}: recover rung {} < re-run {rerun_ns} ns",
            row.rungs.recover_ns
        );
    }
}

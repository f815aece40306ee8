//! Chaos property tests: the self-healing claim, quantified.
//!
//! For *any* seeded [`FaultPlan`] — stragglers and PE crashes, the
//! executor's PE faults — at *any* worker-thread count from 1 to 8, a
//! recovered BSP SMVP run must be **bitwise-equal** to the fault-free run,
//! its fault ledger must balance (injected == detected == recovered), and
//! its accumulated `F`/`C_max`/`B_max` counters must still match the
//! fault-free characterization exactly. Block faults happen only on the
//! proc transport's sockets; `transport_conformance`'s wire-chaos matrix
//! covers them. A second property drives
//! the crash path specifically: a crash at an arbitrary (step, PE) — over
//! natural or RCM-renumbered subdomains, under the barrier or the overlap
//! schedule — is healed by re-running the crashed worker's compute inside
//! its step, at no extra dispatch and no replayed step.
//!
//! The mesh/partition fixture is built once (it is expensive) and shared;
//! each proptest case varies only the cheap knobs (fault seed, crash
//! point, thread count, schedule), so failures replay from the printed
//! inputs alone.

use proptest::prelude::*;
use quake_app::executor::BspExecutor;
use quake_app::family::{AppConfig, QuakeApp};
use quake_app::DistributedSystem;
use quake_core::fault::{FaultEvent, FaultKind, FaultPlan, FaultRates};
use quake_fem::assembly::UniformMaterial;
use quake_mesh::ground::Material;
use quake_partition::comm::CommAnalysis;
use quake_partition::geometric::{Partitioner, RecursiveBisection};
use quake_sparse::dense::Vec3;
use std::sync::OnceLock;

const PARTS: usize = 6;
const STEPS: u64 = 6;

struct Fixture {
    system: DistributedSystem,
    x: Vec<Vec3>,
    /// Fault-free characterization maxima: (F, C_max, B_max).
    predicted: (u64, u64, u64),
    /// Fault-free output, natural node order.
    reference: Vec<Vec3>,
    /// Fault-free output, RCM-renumbered subdomains.
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
        // The clean result is deterministic and thread-count independent
        // (each PE's work is fixed; exchange and fold orders are fixed), so
        // one reference per node ordering suffices.
        let reference = BspExecutor::new(&system, 2).run(&x, STEPS);
        let reference_rcm = BspExecutor::with_rcm(&system, 2).run(&x, STEPS);
        Fixture {
            predicted: (analysis.f_max(), analysis.c_max(), analysis.b_max()),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn any_seeded_plan_recovers_bitwise_equal_and_balanced(
        seed in 0u64..1_000_000,
        threads in 1usize..=8,
    ) {
        let fx = fixture();
        let plan = FaultPlan::generate(seed, STEPS, PARTS, &FaultRates::uniform(0.25));
        let mut exec = BspExecutor::new(&fx.system, threads);
        exec.enable_faults(plan);
        let y = exec.run(&fx.x, STEPS);
        prop_assert!(
            bitwise_eq(&fx.reference, &y),
            "seed {seed}, {threads} threads: recovered run diverged"
        );
        let report = exec.report();
        let fr = report.fault.expect("armed executor reports faults");
        prop_assert!(fr.balanced(), "seed {seed}: unbalanced ledger: {fr}");
        prop_assert_eq!(report.steps, STEPS);
        // Recovery must not smear the measured characterization.
        prop_assert_eq!(
            (report.f_max(), report.c_max(), report.b_max()),
            fx.predicted
        );
    }

    #[test]
    fn a_crash_anywhere_reruns_inside_its_step(
        crash_step in 0..STEPS,
        crash_pe in 0usize..PARTS,
        threads in 1usize..=8,
        rcm in 0u8..2,
        overlap in 0u8..2,
    ) {
        let (rcm, overlap) = (rcm == 1, overlap == 1);
        let fx = fixture();
        let plan = FaultPlan::from_events(vec![FaultEvent {
            step: crash_step,
            pe: crash_pe,
            kind: FaultKind::Crash,
        }]);
        let mut exec = BspExecutor::with_options(&fx.system, threads, rcm, overlap);
        exec.enable_faults(plan);
        let before = exec.pool_stats().broadcasts;
        let y = exec.run(&fx.x, STEPS);
        // The overlapped product is bitwise the barrier product.
        let reference = if rcm { &fx.reference_rcm } else { &fx.reference };
        prop_assert!(
            bitwise_eq(reference, &y),
            "crash at ({crash_step}, {crash_pe}), {threads} threads, rcm={rcm}, \
             overlap={overlap}: recovered run diverged"
        );
        let report = exec.report();
        let fr = report.fault.expect("armed executor reports faults");
        prop_assert!(fr.balanced(), "unbalanced ledger: {fr}");
        prop_assert_eq!(fr.injected.crash, 1);
        prop_assert!(fr.degraded_shards >= 1, "no inline re-run: {fr}");
        // Two dispatches per chaos step, crash or not: the re-run runs on
        // the caller and no step is replayed.
        prop_assert_eq!(exec.pool_stats().broadcasts - before, 2 * STEPS);
        prop_assert_eq!(report.steps, STEPS);
        prop_assert_eq!(
            (report.f_max(), report.c_max(), report.b_max()),
            fx.predicted
        );
    }
}

/// A straggle and a crash in the same worker chunk and step: the inline
/// re-run skips the straggled PE, whose compute already finished, so its
/// stamp keeps the delay and straggle detection still balances the ledger.
#[test]
fn straggle_before_crash_in_one_chunk_stays_balanced() {
    let fx = fixture();
    // One worker thread: every PE shares one chunk. PE 0 straggles and PE 1
    // crashes in the same step.
    let plan = FaultPlan::from_events(vec![
        FaultEvent {
            step: 0,
            pe: 0,
            kind: FaultKind::Straggle { delay_us: 300 },
        },
        FaultEvent {
            step: 0,
            pe: 1,
            kind: FaultKind::Crash,
        },
    ]);
    let mut exec = BspExecutor::new(&fx.system, 1);
    exec.enable_faults(plan);
    let _ = exec.run(&fx.x, 2);
    let fr = exec.fault_report().unwrap();
    assert!(fr.balanced(), "ledger unbalanced: {fr}");
}

//! Spec-driven run construction shared by every transport host.
//!
//! The proc backend's shard children rebuild the *entire* problem from a
//! [`RunSpec`] — mesh generation, partitioning, assembly and the input
//! vector are all pure functions of the spec, so only ghost blocks and
//! results ever cross a socket. The same builder drives the in-process
//! backends, which is what makes the cross-transport conformance suite
//! meaningful: every backend runs the bitwise-identical problem.
//!
//! This module is also the whole of `quake smvp-run`'s pipeline: the
//! command parses its flags into a [`RunSpec`], builds with
//! [`build_timed`], runs with [`run_with`] over whichever transport was
//! asked for, and renders its report from the [`Built`] problem and the
//! [`RunOutput`] alone. Its proofs rerun a clean variant of the spec
//! through [`run_with`], and the setup golden digests that pin [`build`]
//! pin the command too.

use super::wire::RunSpec;
use super::{
    ghost_edges, proc, LinkParams, NetsimTransport, NodeMap, SharedTransport, Transport,
    TransportKind,
};
use crate::distributed::DistributedSystem;
use crate::executor::{BspExecutor, ExecutionReport};
use crate::family::{AppConfig, QuakeApp};
use crate::report::SetupWalls;
use quake_core::fault::{FaultPlan, FaultRates};
use quake_core::machine::Network;
use quake_core::telemetry::{ShardTrace, Telemetry, TelemetryConfig};
use quake_fem::assembly::UniformMaterial;
use quake_mesh::ground::Material;
use quake_partition::comm::{CommAnalysis, MaxRateAnalysis};
use quake_partition::geometric::Partitioner;
use quake_partition::partition::Partition;
use quake_spark::PoolStats;
use quake_sparse::dense::Vec3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A fully constructed problem instance: everything deterministic that a
/// run needs, before any transport is chosen.
pub struct Built {
    /// The generated application (mesh + ground model).
    pub app: QuakeApp,
    /// The element partition every PE count derives from.
    pub partition: Partition,
    /// The executable distributed system.
    pub system: DistributedSystem,
    /// The global input vector.
    pub x: Vec<Vec3>,
}

/// What one transport run produced, in transport-independent shape.
pub struct RunOutput {
    /// The folded global product after the last step.
    pub y: Vec<Vec3>,
    /// The measurement report (proc: merged across shard processes).
    pub report: ExecutionReport,
    /// Per-PE boundary-row counts when the overlap schedule ran.
    pub boundary_rows: Option<Vec<usize>>,
    /// The Eq. (2) parameters the fabric ran at (proc: measured).
    pub link: LinkParams,
    /// Netsim only: modeled exchange seconds per PE over all steps.
    pub modeled_exchange_s: Option<Vec<f64>>,
    /// Proc only: supervisor-observed recovery incidents (suspects,
    /// shard respawns, stall announcements), in wall-clock order.
    pub incidents: Vec<Incident>,
    /// Trace only: every shard's telemetry snapshot with its clock offset,
    /// ready for the trace merger and the profiler. Proc: one entry per
    /// shard generation that finished a run attempt, offset by the
    /// handshake measurement. In process: one pseudo-shard on offset 0,
    /// so every run renders through the same merged writer.
    pub shard_telemetry: Vec<ShardTrace>,
    /// Proc only: per-shard wire/chaos ledgers as `(shard, generation,
    /// report)`, for shard-labeled Prometheus series.
    pub shard_faults: Vec<(usize, u32, quake_core::fault::FaultReport)>,
    /// In-process + trace only: the executor's live telemetry. Unlike the
    /// merged snapshots it keeps the drift monitor, so the summary and the
    /// Prometheus exposition read it directly.
    pub telemetry: Option<Telemetry>,
    /// In-process only: the executor's worker-pool dispatch counters.
    pub pool_stats: Option<PoolStats>,
    /// In-process only: seconds spent building the executor's plan (proc
    /// shard children plan their own).
    pub plan_s: Option<f64>,
}

/// One supervisor-observed recovery event on the proc fabric, stamped
/// relative to the ensemble's Go.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Seconds since the ensemble released the shards.
    pub t_s: f64,
    /// What happened: `wire-stall`, `suspect`, `shard-respawn`,
    /// `ensemble-restart`.
    pub kind: &'static str,
    /// The shard the event concerns.
    pub shard: usize,
}

/// The partitioner registry, keyed by the CLI spelling.
///
/// # Errors
///
/// Returns a message naming the unknown partitioner.
pub fn partitioner(name: &str) -> Result<Box<dyn Partitioner>, String> {
    use quake_partition::geometric::{LinearPartition, RandomPartition, RecursiveBisection};
    use quake_partition::sfc::MortonPartition;
    use quake_partition::spectral::SpectralBisection;
    Ok(match name {
        "rib" => Box::new(RecursiveBisection::inertial()),
        "rcb" => Box::new(RecursiveBisection::coordinate()),
        "spectral" => Box::new(SpectralBisection::default()),
        "morton" => Box::new(MortonPartition),
        "linear" => Box::new(LinearPartition),
        "random" => Box::new(RandomPartition { seed: 1 }),
        other => return Err(format!("unknown partitioner '{other}'")),
    })
}

/// The deterministic input vector for a spec: the CLI's trig formula, or a
/// seeded uniform sample for conformance runs.
///
/// # Errors
///
/// Returns a message on an unknown `x_kind`.
pub fn make_x(spec: &RunSpec, nodes: usize) -> Result<Vec<Vec3>, String> {
    match spec.x_kind.as_str() {
        "trig" => Ok((0..nodes)
            .map(|i| {
                let s = i as f64;
                Vec3::new((0.1 * s).sin(), (0.2 * s).cos(), (0.3 * s).sin())
            })
            .collect()),
        "rng" => {
            let mut rng = StdRng::seed_from_u64(spec.x_seed);
            Ok((0..nodes)
                .map(|_| Vec3::new(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()))
                .collect())
        }
        other => Err(format!("unknown x_kind '{other}'")),
    }
}

/// Builds the full problem instance a spec describes. This is the
/// `smvp-run` command's construction path, and a shard child calling it
/// reproduces the parent's mesh, partition and matrices bit for bit.
///
/// # Errors
///
/// Returns a message on an invalid spec or a generation failure.
pub fn build(spec: &RunSpec) -> Result<Built, String> {
    build_timed(spec).map(|(built, _)| built)
}

/// [`build`], also returning the wall of each phase it ran: `generate`,
/// `partition` and `system build`.
///
/// # Errors
///
/// Returns a message on an invalid spec or a generation failure.
pub fn build_timed(spec: &RunSpec) -> Result<(Built, SetupWalls), String> {
    let mut walls = SetupWalls::default();
    let mut config = AppConfig::new(format!("sf{}", spec.period), spec.period, spec.scale);
    config.seed = spec.seed;
    let app = walls
        .time("generate", || QuakeApp::generate(config))
        .map_err(|e| e.to_string())?;
    let strat = partitioner(&spec.partitioner)?;
    let partition = walls
        .time("partition", || strat.partition(&app.mesh, spec.parts))
        .map_err(|e| e.to_string())?;
    let mat = Material {
        vs: app.ground.vs_rock,
        vp: 2.0 * app.ground.vs_rock,
        rho: 2600.0,
    };
    let system = walls
        .time("system build", || {
            DistributedSystem::build(&app.mesh, &partition, &UniformMaterial(mat))
        })
        .map_err(|e| e.to_string())?;
    let x = make_x(spec, app.mesh.node_count())?;
    let built = Built {
        app,
        partition,
        system,
        x,
    };
    Ok((built, walls))
}

/// Arms the fault and telemetry layers on an executor per the spec —
/// shared by the in-process runner and the proc shard children so every
/// backend runs the same chaos plan and the same telemetry config.
pub(crate) fn arm(exec: &mut BspExecutor, spec: &RunSpec) {
    arm_at(exec, spec, None);
}

/// [`arm`] with an explicit telemetry epoch: a proc shard child passes its
/// fabric origin so its span clock is the one the parent's handshake offset
/// measurement refers to.
pub(crate) fn arm_at(exec: &mut BspExecutor, spec: &RunSpec, epoch: Option<std::time::Instant>) {
    if spec.fault_rate > 0.0 {
        let plan = FaultPlan::generate(
            spec.fault_seed,
            spec.steps,
            spec.parts,
            &FaultRates::uniform(spec.fault_rate),
        );
        exec.enable_faults(plan);
    }
    if spec.trace {
        let mut config = TelemetryConfig {
            span_capacity: spec.span_capacity,
            ..TelemetryConfig::default()
        };
        if let Some(d) = config.drift.as_mut() {
            d.threshold = spec.drift_threshold;
        }
        match epoch {
            Some(at) => exec.enable_telemetry_at(config, at),
            None => exec.enable_telemetry(config),
        }
    }
    if spec.nodes >= 1 && spec.aggregate {
        // Telemetry attribution only (gather spans, merged-block
        // histogram); the transports carry the actual aggregation.
        let map = NodeMap::for_shards(spec.parts, spec.shards, spec.nodes);
        let of: Vec<usize> = (0..spec.parts).map(|q| map.node_of(q)).collect();
        exec.set_node_map(&of);
    }
}

/// Runs the spec over the chosen transport and returns the folded product
/// plus the merged report. `shared` and `netsim` run in-process over the
/// mailbox fabric; `proc` forks `spec.shards` shard processes connected
/// by Unix-domain sockets (see [`proc::run_parent`]). A traced in-process
/// run also returns its telemetry, live and as a one-shard capture.
///
/// # Errors
///
/// Returns a message on any build, protocol or child-process failure —
/// never panics on transport faults.
pub fn run_with(kind: TransportKind, spec: &RunSpec, built: &Built) -> Result<RunOutput, String> {
    if kind == TransportKind::Proc {
        return proc::run_parent(spec, built).map_err(|e| e.to_string());
    }
    let edges = ghost_edges(&built.system);
    let p = built.system.subdomains().len();
    // Node-aware runs swap in the aggregating fabrics; the executor's
    // schedule is identical either way (aggregation is transport-level).
    // `aggregate false` is the ablation arm: the node placement stays
    // (so an emulated wire still prices the same topology) but the
    // exchange runs flat.
    let node_map = (spec.nodes >= 1 && spec.aggregate)
        .then(|| NodeMap::for_shards(spec.parts, spec.shards, spec.nodes));
    let mut netsim: Option<Arc<NetsimTransport>> = None;
    let link: Arc<dyn Transport> = match kind {
        TransportKind::Shared => match &node_map {
            Some(map) => Arc::new(SharedTransport::with_nodes(&edges, map)),
            None => Arc::new(SharedTransport::new(&edges)),
        },
        TransportKind::Netsim => {
            let t = Arc::new(match &node_map {
                Some(map) => NetsimTransport::with_nodes(
                    &edges,
                    p,
                    Network::cray_t3e(),
                    Network::node_local(),
                    map,
                ),
                None => NetsimTransport::new(&edges, p, Network::cray_t3e()),
            });
            netsim = Some(Arc::clone(&t));
            t
        }
        TransportKind::Proc => unreachable!("handled above"),
    };
    let params = link.link();
    let plan = std::time::Instant::now();
    let mut exec = BspExecutor::with_transport(
        &built.system,
        spec.threads,
        spec.rcm,
        spec.overlap,
        0..p,
        link,
    );
    let plan_s = plan.elapsed().as_secs_f64();
    arm(&mut exec, spec);
    let y = exec.run(&built.x, spec.steps);
    let telemetry = exec.telemetry().cloned();
    let shard_telemetry = telemetry.iter().map(ShardTrace::local).collect();
    Ok(RunOutput {
        y,
        report: exec.report(),
        boundary_rows: exec.overlap_boundary_rows().map(|b| b.to_vec()),
        link: params,
        modeled_exchange_s: netsim.map(|t| t.modeled_exchange_s()),
        incidents: Vec::new(),
        shard_telemetry,
        shard_faults: Vec::new(),
        telemetry,
        pool_stats: Some(exec.pool_stats()),
        plan_s: Some(plan_s),
    })
}

/// A run's measured exchange wall next to the two communication models
/// that predict it, per step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeScore {
    /// Measured exchange wall, seconds per step.
    pub measured_s: f64,
    /// Eq. (2), `B_max·T_l + C_max·T_w`, under the run's link.
    pub eq2_s: f64,
    /// The max-rate model of Bienz, Gropp & Olson: the busiest node's
    /// injection port plus the intra-node gather leg. `None` unless the
    /// run aggregates (`nodes >= 1` and `aggregate`), since it prices the
    /// merged exchange a flat run never performs.
    pub maxrate_s: Option<f64>,
}

impl ExchangeScore {
    /// Eq. (2)'s relative error against the measured wall.
    pub fn eq2_rel_err(&self) -> f64 {
        self.rel_err(self.eq2_s)
    }

    /// The max-rate model's relative error, when the run aggregates.
    pub fn maxrate_rel_err(&self) -> Option<f64> {
        self.maxrate_s.map(|p| self.rel_err(p))
    }

    fn rel_err(&self, predicted: f64) -> f64 {
        (self.measured_s - predicted).abs() / self.measured_s.max(f64::MIN_POSITIVE)
    }
}

/// Scores Eq. (2) and, on an aggregating run, the max-rate model against
/// `out`'s measured exchange wall per step, both under `out`'s link (proc:
/// measured on the live socket). An emulated inter-node hold
/// (`wire_latency`) is part of the link both models must price, so it
/// folds into the slow leg's latency term; the max-rate model's intra-node
/// gather leg rides the raw link.
pub fn score_exchange(spec: &RunSpec, built: &Built, out: &RunOutput) -> ExchangeScore {
    let comm = CommAnalysis::new(&built.app.mesh, &built.partition);
    let link = out.link;
    let t_l_eff = link.t_l + spec.wire_latency;
    let eq2_s = comm.b_max() as f64 * t_l_eff + comm.c_max() as f64 * link.t_w;
    let maxrate_s = (spec.nodes >= 1 && spec.aggregate).then(|| {
        MaxRateAnalysis::from_comm(comm, spec.nodes)
            .predicted_with_local(t_l_eff, link.t_w, link.t_l, link.t_w)
    });
    ExchangeScore {
        measured_s: out.report.phases.exchange / spec.steps.max(1) as f64,
        eq2_s,
        maxrate_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trig_x_matches_the_cli_formula() {
        let spec = RunSpec::default();
        let x = make_x(&spec, 4).unwrap();
        assert_eq!(x[3].x.to_bits(), (0.1f64 * 3.0).sin().to_bits());
        assert_eq!(x[3].y.to_bits(), (0.2f64 * 3.0).cos().to_bits());
    }

    #[test]
    fn rng_x_is_seed_deterministic() {
        let mut spec = RunSpec {
            x_kind: "rng".into(),
            x_seed: 7,
            ..RunSpec::default()
        };
        let a = make_x(&spec, 16).unwrap();
        let b = make_x(&spec, 16).unwrap();
        assert_eq!(a, b, "same seed, same vector");
        spec.x_seed = 8;
        assert_ne!(a, make_x(&spec, 16).unwrap(), "different seed differs");
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        assert!(partitioner("voronoi").is_err());
        let spec = RunSpec {
            x_kind: "zeros".into(),
            ..RunSpec::default()
        };
        assert!(make_x(&spec, 3).is_err());
    }

    #[test]
    fn shared_and_netsim_runners_agree_bitwise() {
        let spec = RunSpec {
            parts: 4,
            threads: 2,
            steps: 3,
            ..RunSpec::default()
        };
        let built = build(&spec).expect("sf10 builds");
        let a = run_with(TransportKind::Shared, &spec, &built).unwrap();
        let b = run_with(TransportKind::Netsim, &spec, &built).unwrap();
        assert_eq!(a.y.len(), b.y.len());
        for (u, v) in a.y.iter().zip(&b.y) {
            assert_eq!(u.x.to_bits(), v.x.to_bits());
            assert_eq!(u.y.to_bits(), v.y.to_bits());
            assert_eq!(u.z.to_bits(), v.z.to_bits());
        }
        assert_eq!(a.report.pe.len(), b.report.pe.len());
        for (u, v) in a.report.pe.iter().zip(&b.report.pe) {
            assert_eq!(u.flops, v.flops);
            assert_eq!(u.words_sent, v.words_sent);
            assert_eq!(u.words_received, v.words_received);
            assert_eq!(u.blocks_sent, v.blocks_sent);
            assert_eq!(u.blocks_received, v.blocks_received);
        }
        let modeled = b.modeled_exchange_s.expect("netsim models the exchange");
        assert!(modeled.iter().sum::<f64>() > 0.0, "postal model billed");
        assert!(!b.link.measured, "netsim runs a preset, not a measurement");
    }
}

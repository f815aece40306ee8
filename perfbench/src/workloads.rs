//! The three workloads: their set-up, timed rounds, correctness gates and
//! the traced layer ladder.
//!
//! Every workload is a closed loop with one caller: a round of `steps`
//! steps starts when the previous round returns, and each step starts when
//! the previous step returns. Rounds repeat until the run's `--seconds`
//! have passed; end-to-end figures are medians over rounds (and over steps
//! for the per-step percentiles).

use crate::spans::{Span, Tracer};
use crate::stats::{median, quantile};
use quake_app::executor::{ExecutionReport, PhaseWalls};
use quake_app::transport::run::{self, Built, RunOutput};
use quake_app::transport::wire::RunSpec;
use quake_app::transport::{LinkParams, TransportKind};
use quake_app::{AppConfig, BspExecutor, DistributedSystem, QuakeApp};
use quake_bench::json::Json;
use quake_fem::{assemble, GroundMaterial, PointSource, Ricker, Simulation, UniformMaterial};
use quake_mesh::ground::Material;
use quake_partition::comm::{CommAnalysis, MaxRateAnalysis, OverlapAnalysis};
use quake_spark::{bmv_pooled_into, WorkerPool};
use quake_sparse::bcsr::Bcsr3;
use quake_sparse::dense::Vec3;
use quake_sparse::reorder::{identity_perm, permuted_bandwidth, rcm};
use std::hint::black_box;
use std::time::Instant;

/// Linear shrink factor of every workload's mesh.
pub const SCALE: f64 = 6.0;
/// Mesh generator seed of every workload: the CLI's default, so each
/// workload's mesh and partition are fixed. The run's `--seed` sets the
/// inputs instead (the BSP input vector, the time loop's source direction).
/// A seeded mesh would change the sf10 partition's `B_max` between 10 and
/// 14, and the proc step time with it by a third.
const MESH_SEED: u64 = 0x5eed;
/// Shard processes of the proc fabric. Each runs one worker thread, so no
/// workload keeps more than two cores busy.
pub const SHARDS: usize = 2;
/// Relative tolerance of the distributed product against
/// `DistributedSystem::smvp` where no bitwise proof exists.
const TOLERANCE: f64 = 1e-10;
/// Upper bound on rounds per run, whatever `--seconds` allows.
const MAX_ROUNDS: usize = 400;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The `Simulation::advance` loop of `quake simulate`, its product on
    /// the simulation's own worker pool (`set_parallel`).
    TimeLoop,
    /// `BspExecutor::step_into` over the in-process shared transport.
    BspShared,
    /// One `run_with(TransportKind::Proc, ..)` call per round.
    BspProc,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Basin period of the mesh (`sf<period>`), generated at [`SCALE`].
    pub period: f64,
    /// PEs of the partition. The time loop partitions only in the traced
    /// ladder.
    pub parts: usize,
    /// Pool threads of the in-process executor.
    pub threads: usize,
    /// The overlap schedule instead of the barrier schedule.
    pub overlap: bool,
    /// Steps per round.
    pub steps: u64,
    /// Set-up repetitions per run; `setup_s` is their median.
    pub setup_reps: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "timeloop-sf5",
        kind: Kind::TimeLoop,
        period: 5.0,
        parts: 4,
        threads: 2,
        overlap: false,
        steps: 1000,
        setup_reps: 5,
    },
    Workload {
        name: "bsp-sf5-shared",
        kind: Kind::BspShared,
        period: 5.0,
        parts: 4,
        threads: 2,
        overlap: false,
        steps: 1000,
        setup_reps: 5,
    },
    Workload {
        name: "bsp-sf10-proc",
        kind: Kind::BspProc,
        period: 10.0,
        parts: 8,
        threads: 1,
        overlap: true,
        steps: 2000,
        setup_reps: 9,
    },
];

/// How long and how much one run measures.
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    /// Tiny counts that exercise every path in seconds.
    pub smoke: bool,
}

impl Settings {
    fn steps(&self, w: &Workload) -> u64 {
        if self.smoke {
            20
        } else {
            w.steps
        }
    }

    fn setup_reps(&self, w: &Workload) -> usize {
        if self.smoke {
            1
        } else {
            w.setup_reps
        }
    }

    fn min_rounds(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Untraced-traced round pairs of the traced run's main loop.
    fn trace_pairs(&self) -> usize {
        if self.smoke {
            1
        } else {
            8
        }
    }

    /// Steps per round of the traced run: shorter in-process rounds keep
    /// the written trace small.
    fn trace_steps(&self, w: &Workload) -> u64 {
        match w.kind {
            Kind::BspProc => self.steps(w),
            _ => self.steps(w).min(200),
        }
    }

    /// Iterations of a ladder rung the workload itself does not run.
    fn rung(&self, n: u64) -> u64 {
        if self.smoke {
            3
        } else {
            n
        }
    }
}

/// Correctness checks attempted and failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// What one run measured.
pub struct Outcome {
    /// `(name, value, unit)` of every metric of the run's mode.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub checks: Checks,
    /// Provenance-free description of the run: samples, matrix features,
    /// model predictions and, when traced, self times.
    pub record: Vec<(&'static str, Json)>,
    /// The Chrome trace of a traced run.
    pub trace: Option<String>,
}

fn spec(w: &Workload, seed: u64, steps: u64) -> RunSpec {
    RunSpec {
        period: w.period,
        scale: SCALE,
        seed: MESH_SEED,
        parts: w.parts,
        threads: 1,
        steps,
        overlap: w.overlap,
        shards: SHARDS,
        x_kind: "rng".into(),
        x_seed: seed,
        ..RunSpec::default()
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Wall seconds of each set-up call, in call order.
type Walls = Vec<(&'static str, f64)>;

fn timed<T>(tr: &mut Tracer, walls: &mut Walls, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = tr.enter(name);
    let t0 = Instant::now();
    let out = f();
    walls.push((name, t0.elapsed().as_secs_f64()));
    tr.exit(id);
    out
}

fn generate(spec: &RunSpec) -> Result<QuakeApp, String> {
    let mut config = AppConfig::new(format!("sf{}", spec.period), spec.period, spec.scale);
    config.seed = spec.seed;
    QuakeApp::generate(config).map_err(|e| e.to_string())
}

/// The uniform rock `run::build` assembles the distributed system with.
fn rock(app: &QuakeApp) -> UniformMaterial {
    UniformMaterial(Material {
        vs: app.ground.vs_rock,
        vp: 2.0 * app.ground.vs_rock,
        rho: 2600.0,
    })
}

/// The time loop's seeded input: a point force of `quake simulate`'s
/// magnitude, tilted from the vertical in a direction drawn from the seed.
fn source_force(spec: &RunSpec) -> Result<Vec3, String> {
    let v = run::make_x(spec, 1)?[0];
    let dir = Vec3::new(v.x - 0.5, v.y - 0.5, 1.0);
    Ok(dir * (1e15 / dir.norm()))
}

/// `stable_dt` plus `Simulation::new` with the basin source and receiver,
/// as `quake simulate` sets them up, stepping on `threads` pool workers.
fn simulation(
    app: &QuakeApp,
    system: quake_fem::AssembledSystem,
    force: Vec3,
    threads: usize,
) -> Result<Simulation, String> {
    let max_vp = 3f64.sqrt() * app.ground.vs_rock;
    let dt = Simulation::stable_dt(&app.mesh, max_vp, 0.4);
    let mut sim = Simulation::new(system, dt).map_err(|e| e.to_string())?;
    let centre = app.ground.basin_center_surface();
    sim.add_source(PointSource::nearest(
        &app.mesh,
        centre + Vec3::new(0.0, 0.0, -2_000.0),
        force,
        Ricker::new(1.0 / app.config.period_s),
    ));
    let rx = PointSource::nearest(&app.mesh, centre, Vec3::ZERO, Ricker::new(1.0)).node;
    sim.add_receiver(rx);
    sim.set_parallel(threads);
    Ok(sim)
}

/// Partition, system build and input vector, mirroring `run::build` so the
/// proc shards rebuild exactly this problem.
fn build(
    spec: &RunSpec,
    app: QuakeApp,
    tr: &mut Tracer,
    walls: &mut Walls,
) -> Result<Built, String> {
    let strat = run::partitioner(&spec.partitioner)?;
    let partition = timed(tr, walls, "partition", || {
        strat.partition(&app.mesh, spec.parts)
    })
    .map_err(|e| e.to_string())?;
    let system = timed(tr, walls, "fem.system_build", || {
        DistributedSystem::build(&app.mesh, &partition, &rock(&app))
    })
    .map_err(|e| e.to_string())?;
    let x = run::make_x(spec, app.mesh.node_count())?;
    Ok(Built {
        app,
        partition,
        system,
        x,
    })
}

/// What a workload's own set-up built. One exists per run, so its size
/// does not matter.
#[allow(clippy::large_enum_variant)]
enum Plan {
    TimeLoop(QuakeApp, Simulation),
    Shared(Built, BspExecutor),
    Proc(Built),
}

/// The workload's own set-up calls, as a user of the program makes them.
fn setup(w: &Workload, spec: &RunSpec, tr: &mut Tracer, walls: &mut Walls) -> Result<Plan, String> {
    let app = timed(tr, walls, "mesh.generate", || generate(spec))?;
    if w.kind == Kind::TimeLoop {
        let system = timed(tr, walls, "fem.assemble", || {
            assemble(&app.mesh, &GroundMaterial(&app.ground))
        })
        .map_err(|e| e.to_string())?;
        let force = source_force(spec)?;
        let sim = timed(tr, walls, "fem.sim_new", || {
            simulation(&app, system, force, w.threads)
        })?;
        return Ok(Plan::TimeLoop(app, sim));
    }
    let built = build(spec, app, tr, walls)?;
    Ok(match w.kind {
        Kind::BspShared => {
            let exec = timed(tr, walls, "executor.plan", || {
                BspExecutor::with_options(&built.system, w.threads, false, w.overlap)
            });
            Plan::Shared(built, exec)
        }
        _ => Plan::Proc(built),
    })
}

/// Every layer's set-up on the workload's mesh, for the traced ladder.
struct Stack {
    built: Built,
    global: Bcsr3,
    sim: Simulation,
    exec: BspExecutor,
}

fn setup_all(w: &Workload, spec: &RunSpec, tr: &mut Tracer) -> Result<Stack, String> {
    let walls = &mut Walls::new();
    let app = timed(tr, walls, "mesh.generate", || generate(spec))?;
    let built = build(spec, app, tr, walls)?;
    let app = &built.app;
    let system = timed(tr, walls, "fem.assemble", || match w.kind {
        Kind::TimeLoop => assemble(&app.mesh, &GroundMaterial(&app.ground)),
        _ => assemble(&app.mesh, &rock(app)),
    })
    .map_err(|e| e.to_string())?;
    let global = system.stiffness.clone();
    let force = source_force(spec)?;
    let sim = timed(tr, walls, "fem.sim_new", || {
        simulation(app, system, force, w.threads)
    })?;
    let exec = timed(tr, walls, "executor.plan", || {
        BspExecutor::with_options(&built.system, w.threads, false, w.overlap)
    });
    Ok(Stack {
        built,
        global,
        sim,
        exec,
    })
}

// ---------------------------------------------------------------------------
// Rounds
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Untraced rounds for `--seconds`.
    Untraced,
    /// This many pairs of an untraced and a traced round.
    Alternate(usize),
    /// One traced round (a ladder rung).
    Once,
}

/// Runs rounds per `mode`; `round(traced)` returns the round's wall seconds.
fn schedule(
    set: &Settings,
    mode: Mode,
    mut round: impl FnMut(bool) -> Result<f64, String>,
) -> Result<Vec<(f64, bool)>, String> {
    let mut walls = Vec::new();
    match mode {
        Mode::Once => walls.push((round(true)?, true)),
        Mode::Alternate(pairs) => {
            for i in 0..2 * pairs {
                let traced = i % 2 == 1;
                walls.push((round(traced)?, traced));
            }
        }
        Mode::Untraced => {
            let t0 = Instant::now();
            while walls.len() < set.min_rounds()
                || (t0.elapsed().as_secs_f64() < set.seconds && walls.len() < MAX_ROUNDS)
            {
                walls.push((round(false)?, false));
            }
        }
    }
    Ok(walls)
}

/// What the timed rounds produced.
#[derive(Default)]
struct Rounds {
    /// Wall seconds of each round, and whether it was traced.
    walls: Vec<(f64, bool)>,
    /// Wall ms of every step of the untraced rounds (proc: each untraced
    /// round's mean step, from its phase walls).
    step_ms: Vec<f64>,
    /// The 90th percentile of each untraced in-process round's steps.
    round_p90: Vec<f64>,
    /// FNV-1a digest of each round's output bits.
    digests: Vec<u64>,
    /// The first round's output, for the elementwise reference comparison.
    first: Vec<Vec3>,
    /// Time loop: each round's final displacement energy.
    energies: Vec<f64>,
    /// Proc: each round's run output, minus the product.
    runs: Vec<RunOutput>,
}

impl Rounds {
    fn untraced_walls(&self) -> Vec<f64> {
        self.walls.iter().filter(|w| !w.1).map(|w| w.0).collect()
    }

    fn traced_walls(&self) -> Vec<f64> {
        self.walls.iter().filter(|w| w.1).map(|w| w.0).collect()
    }

    fn keep(&mut self, y: &[Vec3]) {
        self.digests.push(digest(y));
        if self.first.is_empty() {
            self.first = y.to_vec();
        }
    }
}

fn digest(v: &[Vec3]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in v.iter().flat_map(|p| [p.x, p.y, p.z]) {
        for b in w.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Serial `Simulation::advance` rounds, each from a fresh copy of `sim0`.
fn timeloop_rounds(
    set: &Settings,
    mode: Mode,
    steps: u64,
    sim0: &Simulation,
    tr: &mut Tracer,
) -> Result<Rounds, String> {
    let mut r = Rounds::default();
    let mut off = Tracer::off();
    r.walls = schedule(set, mode, |traced| {
        let tr = if traced { &mut *tr } else { &mut off };
        let mut sim = sim0.clone();
        let first = r.step_ms.len();
        let t0 = Instant::now();
        for _ in 0..steps {
            tr.begin_step();
            let id = tr.enter("fem.advance");
            let t = Instant::now();
            sim.advance();
            let ms = ms_since(t);
            tr.exit(id);
            if !traced {
                r.step_ms.push(ms);
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        if !traced {
            r.round_p90.push(quantile(&r.step_ms[first..], 0.9));
        }
        r.keep(sim.displacement());
        r.energies.push(sim.displacement_energy());
        Ok(wall)
    })?;
    Ok(r)
}

/// Phase walls per step, read from the executor's own report: `phases`
/// and `barrier_s` (summed over PEs) accumulated over `steps` steps.
fn phase_args(
    tr: &mut Tracer,
    id: Option<usize>,
    phases: &PhaseWalls,
    barrier_s: f64,
    pes: usize,
    steps: f64,
) {
    for (key, s) in [
        ("assemble_ms", phases.assemble),
        ("compute_ms", phases.compute),
        ("exchange_ms", phases.exchange),
        ("fold_ms", phases.fold),
        ("barrier_ms", barrier_s / pes.max(1) as f64),
    ] {
        tr.arg(id, key, s / steps * 1e3);
    }
}

/// [`phase_args`] for one step, from reports taken before and after it.
fn step_phases(
    tr: &mut Tracer,
    id: Option<usize>,
    before: &ExecutionReport,
    after: &ExecutionReport,
) {
    let (b, a) = (&before.phases, &after.phases);
    let delta = PhaseWalls {
        assemble: a.assemble - b.assemble,
        compute: a.compute - b.compute,
        exchange: a.exchange - b.exchange,
        fold: a.fold - b.fold,
    };
    let barrier = barrier_s(after) - barrier_s(before);
    phase_args(tr, id, &delta, barrier, after.pe.len(), 1.0);
}

fn barrier_s(report: &ExecutionReport) -> f64 {
    report.pe.iter().map(|c| c.t_barrier).sum()
}

/// `BspExecutor::step_into` rounds on the seeded `x`.
fn executor_rounds(
    set: &Settings,
    mode: Mode,
    steps: u64,
    exec: &mut BspExecutor,
    x: &[Vec3],
    tr: &mut Tracer,
) -> Result<Rounds, String> {
    let mut r = Rounds::default();
    let mut off = Tracer::off();
    let mut y = vec![Vec3::ZERO; x.len()];
    r.walls = schedule(set, mode, |traced| {
        let tr = if traced { &mut *tr } else { &mut off };
        let first = r.step_ms.len();
        let t0 = Instant::now();
        for _ in 0..steps {
            tr.begin_step();
            let before = traced.then(|| exec.report());
            let id = tr.enter("executor.step_into");
            let t = Instant::now();
            exec.step_into(x, &mut y);
            let ms = ms_since(t);
            tr.exit(id);
            match before {
                Some(before) => step_phases(tr, id, &before, &exec.report()),
                None => r.step_ms.push(ms),
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        if !traced {
            r.round_p90.push(quantile(&r.step_ms[first..], 0.9));
        }
        r.keep(&y);
        Ok(wall)
    })?;
    Ok(r)
}

/// One `run_with(TransportKind::Proc, ..)` call per round.
fn proc_rounds(
    set: &Settings,
    mode: Mode,
    spec: &RunSpec,
    built: &Built,
    tr: &mut Tracer,
) -> Result<Rounds, String> {
    let mut r = Rounds::default();
    let mut off = Tracer::off();
    let steps = spec.steps.max(1) as f64;
    r.walls = schedule(set, mode, |traced| {
        let tr = if traced { &mut *tr } else { &mut off };
        tr.begin_step();
        let id = tr.enter("transport.run_with");
        let t0 = Instant::now();
        let mut out = run::run_with(TransportKind::Proc, spec, built)?;
        let wall = t0.elapsed().as_secs_f64();
        tr.exit(id);
        let p = out.report.phases;
        let pes = out.report.pe.len();
        phase_args(tr, id, &p, barrier_s(&out.report), pes, steps);
        tr.arg(id, "bootstrap_s", wall - p.total());
        if !traced {
            r.step_ms.push(p.total() / steps * 1e3);
        }
        r.keep(&out.y);
        out.y = Vec::new();
        r.runs.push(out);
        Ok(wall)
    })?;
    Ok(r)
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

fn bitwise_eq(a: &[Vec3], b: &[Vec3]) -> bool {
    a.len() == b.len()
        && digest(a) == digest(b)
        && a.iter().zip(b).all(|(u, v)| {
            (u.x.to_bits(), u.y.to_bits(), u.z.to_bits())
                == (v.x.to_bits(), v.y.to_bits(), v.z.to_bits())
        })
}

/// Within [`TOLERANCE`] of the reference, relative to its largest entry.
fn close(got: &[Vec3], want: &[Vec3]) -> bool {
    let scale = want.iter().map(|v| v.norm()).fold(0.0, f64::max);
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| (*a - *b).norm() <= TOLERANCE * (1.0 + scale))
}

/// Every PE's flops, words and blocks per step equal the analysis exactly.
fn counters_match(report: &ExecutionReport, comm: &CommAnalysis) -> bool {
    let steps = report.steps;
    steps > 0
        && report.pe.len() == comm.parts()
        && report.pe.iter().zip(comm.per_pe()).all(|(c, l)| {
            c.flops == l.flops * steps
                && c.words() == l.words * steps
                && c.blocks() == l.blocks * steps
        })
}

/// The plain single-threaded run is the reference: `set_parallel` promises
/// the pooled product bitwise-equal to it.
fn check_timeloop(r: &Rounds, sim0: &Simulation, steps: u64, checks: &mut Checks) {
    let mut reference = sim0.clone();
    reference.set_parallel(1);
    reference.run(steps);
    let want = digest(reference.displacement());
    for (&d, e) in r.digests.iter().zip(&r.energies) {
        checks.check(d == want, "time-loop round differs from the serial run");
        checks.check(e.is_finite(), "final displacement energy is not finite");
    }
    checks.check(
        bitwise_eq(&r.first, reference.displacement()),
        "time-loop displacement differs bitwise from the serial run",
    );
}

fn check_shared(
    r: &Rounds,
    built: &Built,
    report: &ExecutionReport,
    comm: &CommAnalysis,
    checks: &mut Checks,
) {
    let want = built.system.smvp(&built.x);
    checks.check(
        close(&r.first, &want),
        "executor y differs from DistributedSystem::smvp",
    );
    let first = digest(&r.first);
    for &d in &r.digests {
        checks.check(d == first, "executor y differs between rounds");
    }
    checks.check(
        counters_match(report, comm),
        "executor counters differ from CommAnalysis",
    );
}

fn check_proc(
    r: &Rounds,
    spec: &RunSpec,
    built: &Built,
    comm: &CommAnalysis,
    checks: &mut Checks,
) -> Result<(), String> {
    let twin = run::run_with(TransportKind::Shared, spec, built)?;
    checks.check(
        close(&twin.y, &built.system.smvp(&built.x)),
        "shared-transport y differs from DistributedSystem::smvp",
    );
    checks.check(
        bitwise_eq(&r.first, &twin.y),
        "proc y differs bitwise from the shared transport",
    );
    let want = digest(&twin.y);
    for (&d, out) in r.digests.iter().zip(&r.runs) {
        checks.check(
            d == want,
            "proc y differs bitwise from the shared transport",
        );
        checks.check(
            counters_match(&out.report, comm),
            "proc counters differ from CommAnalysis",
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Features and model
// ---------------------------------------------------------------------------

/// Mpakos et al.'s cheap matrix features: exact counts, readable beyond
/// this host.
struct Features {
    nodes: usize,
    blocks: usize,
    bandwidth_natural: usize,
    bandwidth_rcm: usize,
    flops: u64,
    /// Bytes one ideal-cache pass of the 3×3 BCSR product moves (computed,
    /// not measured): 72-byte blocks plus 8-byte column indices, row
    /// pointers, and `x` read and `y` written once.
    bytes: u64,
}

impl Features {
    fn of(app: &QuakeApp) -> Self {
        let pattern = app.mesh.pattern();
        let nodes = pattern.node_count();
        let blocks = pattern.block_nnz();
        Features {
            nodes,
            blocks,
            bandwidth_natural: permuted_bandwidth(&pattern, &identity_perm(nodes)),
            bandwidth_rcm: permuted_bandwidth(&pattern, &rcm(&pattern)),
            flops: pattern.smvp_flops(),
            bytes: (blocks * (72 + 8) + (nodes + 1) * 8 + nodes * 2 * 24) as u64,
        }
    }

    fn json(&self, overlap: Option<&OverlapAnalysis>) -> Json {
        Json::obj(vec![
            ("nodes", Json::num(self.nodes as f64)),
            ("blocks", Json::num(self.blocks as f64)),
            ("blocks_per_row", Json::num(self.blocks_per_row())),
            (
                "bandwidth_natural",
                Json::num(self.bandwidth_natural as f64),
            ),
            ("bandwidth_rcm", Json::num(self.bandwidth_rcm as f64)),
            ("flops_per_smvp", Json::num(self.flops as f64)),
            ("computed_bytes_per_smvp", Json::num(self.bytes as f64)),
            (
                "computed_bytes_per_flop",
                Json::num(self.bytes as f64 / self.flops as f64),
            ),
            (
                "boundary_row_frac",
                overlap.map_or(Json::Null, |o| Json::num(boundary_frac(o))),
            ),
            (
                "boundary_interior_ratio",
                overlap.map_or(Json::Null, |o| {
                    let f = boundary_frac(o);
                    Json::num(f / (1.0 - f))
                }),
            ),
        ])
    }

    fn blocks_per_row(&self) -> f64 {
        self.blocks as f64 / self.nodes as f64
    }
}

fn boundary_frac(o: &OverlapAnalysis) -> f64 {
    let rows: u64 = o.per_pe().iter().map(|p| p.rows).sum();
    let boundary: u64 = o.per_pe().iter().map(|p| p.boundary_rows).sum();
    boundary as f64 / rows.max(1) as f64
}

/// The model's prediction next to the measurement, per step.
struct ModelGap {
    /// Measured `(F, C_max, B_max)`.
    counters: (u64, u64, u64),
    eq2_s: f64,
    maxrate_s: f64,
    measured_exchange_s: f64,
    measured_compute_s: f64,
    t_l: f64,
    t_w: f64,
}

impl ModelGap {
    /// Eq. (2) and the max-rate model (each shard process a node) under the
    /// link the run used, against its measured exchange wall per step.
    fn of(report: &ExecutionReport, link: LinkParams, overlap: &OverlapAnalysis) -> Self {
        let comm = overlap.comm();
        let (t_l, t_w) = (link.t_l, link.t_w);
        let steps = report.steps.max(1) as f64;
        let maxrate = MaxRateAnalysis::from_comm(comm.clone(), SHARDS.min(comm.parts()));
        ModelGap {
            counters: (report.f_max(), report.c_max(), report.b_max()),
            eq2_s: comm.b_max() as f64 * t_l + comm.c_max() as f64 * t_w,
            maxrate_s: maxrate.predicted(t_l, t_w),
            measured_exchange_s: report.phases.exchange / steps,
            measured_compute_s: report.phases.compute / steps,
            t_l,
            t_w,
        }
    }

    fn json(&self, overlap: &OverlapAnalysis) -> Json {
        let comm = overlap.comm();
        // T_f from the measured compute wall of the busiest PE's flops.
        let t_f = self.measured_compute_s / comm.f_max().max(1) as f64;
        Json::obj(vec![
            ("F", Json::num(comm.f_max() as f64)),
            ("C_max", Json::num(comm.c_max() as f64)),
            ("B_max", Json::num(comm.b_max() as f64)),
            ("measured_F", Json::num(self.counters.0 as f64)),
            ("measured_C_max", Json::num(self.counters.1 as f64)),
            ("measured_B_max", Json::num(self.counters.2 as f64)),
            ("beta", Json::num(comm.beta())),
            ("link_t_l_s", Json::num(self.t_l)),
            ("link_t_w_s", Json::num(self.t_w)),
            ("t_f_s", Json::num(t_f)),
            ("eq2_exchange_s", Json::num(self.eq2_s)),
            ("maxrate_exchange_s", Json::num(self.maxrate_s)),
            ("measured_exchange_s", Json::num(self.measured_exchange_s)),
            ("measured_compute_s", Json::num(self.measured_compute_s)),
            (
                "overlap_step_barrier_s",
                Json::num(overlap.predicted_step_barrier(t_f, self.t_l, self.t_w)),
            ),
            (
                "overlap_step_overlapped_s",
                Json::num(overlap.predicted_step_overlapped(t_f, self.t_l, self.t_w)),
            ),
        ])
    }
}

/// Measured over predicted; 0 where the model predicts no cost (the
/// shared transport's nominal link).
fn ratio(measured: f64, predicted: f64) -> f64 {
    if predicted > 0.0 {
        measured / predicted
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

fn samples(r: &Rounds, steps: u64) -> Json {
    Json::obj(vec![
        ("rounds", Json::num(r.untraced_walls().len() as f64)),
        ("traced_rounds", Json::num(r.traced_walls().len() as f64)),
        ("steps_per_round", Json::num(steps as f64)),
        ("step_samples", Json::num(r.step_ms.len() as f64)),
        (
            "round_s",
            Json::Array(r.untraced_walls().into_iter().map(Json::num).collect()),
        ),
    ])
}

/// The untraced run: end-to-end metrics only.
pub fn run_untraced(w: &Workload, set: &Settings) -> Result<Outcome, String> {
    let steps = set.steps(w);
    let spec = spec(w, set.seed, steps);
    let timed_setup = || -> Result<(Plan, f64), String> {
        let mut walls = Walls::new();
        let plan = setup(w, &spec, &mut Tracer::off(), &mut walls)?;
        Ok((plan, walls.iter().map(|(_, s)| s).sum()))
    };
    let (plan, first_setup_s) = timed_setup()?;
    let mut checks = Checks::default();
    let mut record = Vec::new();
    let mut off = Tracer::off();
    let (r, rss) = match plan {
        Plan::TimeLoop(app, sim0) => {
            warm_timeloop(&sim0);
            let r = timeloop_rounds(set, Mode::Untraced, steps, &sim0, &mut off)?;
            let rss = crate::host::peak_rss_mb();
            check_timeloop(&r, &sim0, steps, &mut checks);
            record.push(("features", Features::of(&app).json(None)));
            (r, rss)
        }
        Plan::Shared(built, mut exec) => {
            exec.run(&built.x, 20);
            let r = executor_rounds(set, Mode::Untraced, steps, &mut exec, &built.x, &mut off)?;
            let rss = crate::host::peak_rss_mb();
            let overlap = OverlapAnalysis::new(&built.app.mesh, &built.partition);
            let report = exec.report();
            check_shared(&r, &built, &report, overlap.comm(), &mut checks);
            record.push(("features", Features::of(&built.app).json(Some(&overlap))));
            // The shared transport's nominal link: it bills no message cost.
            let link = LinkParams {
                t_l: 0.0,
                t_w: 0.0,
                measured: false,
            };
            let gap = ModelGap::of(&report, link, &overlap);
            record.push(("model", gap.json(&overlap)));
            (r, rss)
        }
        Plan::Proc(built) => {
            let r = proc_rounds(set, Mode::Untraced, &spec, &built, &mut off)?;
            let rss = crate::host::peak_rss_mb();
            let overlap = OverlapAnalysis::new(&built.app.mesh, &built.partition);
            check_proc(&r, &spec, &built, overlap.comm(), &mut checks)?;
            record.push(("features", Features::of(&built.app).json(Some(&overlap))));
            let gap = ModelGap::of(&r.runs[0].report, r.runs[0].link, &overlap);
            record.push(("model", gap.json(&overlap)));
            (r, rss)
        }
    };
    // The remaining set-ups run after the peak RSS was read, so what they
    // leave behind in the allocator does not count towards it.
    let mut setup_s = vec![first_setup_s];
    for _ in 1..set.setup_reps(w) {
        setup_s.push(timed_setup()?.1);
    }
    record.push(("samples", samples(&r, steps)));
    // The tail is p90, not p99: on a shared 2-core host p99 spread over a
    // quarter between runs of one build. In-process rounds: the median of each round's
    // p90 (100 samples beyond it per round), so one disturbed round does not
    // set the tail. Proc: the 90th percentile of the rounds' mean steps, the
    // only per-step figure its shards report untraced.
    let p90 = if r.round_p90.is_empty() {
        quantile(&r.step_ms, 0.9)
    } else {
        median(&r.round_p90)
    };
    Ok(Outcome {
        metrics: vec![
            ("setup_s", median(&setup_s), "s"),
            ("run_s", median(&r.untraced_walls()), "s"),
            ("step_ms_p50", quantile(&r.step_ms, 0.5), "ms"),
            ("step_ms_p90", p90, "ms"),
            ("peak_rss_mb", rss, "MB"),
        ],
        checks,
        record,
        trace: None,
    })
}

/// A few untimed steps so the first timed round does not pay first-touch
/// page faults.
fn warm_timeloop(sim0: &Simulation) {
    let mut sim = sim0.clone();
    sim.run(20);
    black_box(sim.displacement());
}

fn median_of<'a>(spans: impl Iterator<Item = &'a Span>, f: impl Fn(&Span) -> f64) -> f64 {
    median(&spans.map(f).collect::<Vec<_>>())
}

/// The traced run: per-layer metrics from spans around every layer's calls
/// on the workload's mesh, and `trace.overhead` from untraced and traced
/// rounds in turn. It does a fixed amount of work: the written trace must
/// stay small enough for `quake_bench::trace` to validate quickly.
pub fn run_traced(w: &Workload, set: &Settings) -> Result<Outcome, String> {
    let steps = set.trace_steps(w);
    let spec = spec(w, set.seed, steps);
    let mut tr = Tracer::new(true);
    let mut stack = setup_all(w, &spec, &mut tr)?;
    let built = &stack.built;
    let overlap = OverlapAnalysis::new(&built.app.mesh, &built.partition);
    let comm = overlap.comm();
    let features = Features::of(&built.app);
    let mut checks = Checks::default();

    // Bare kernels: the serial global product, the pooled one the time
    // loop steps with, then each PE's local one.
    let pool = (w.threads > 1).then(|| WorkerPool::new(w.threads));
    let mut y = vec![Vec3::ZERO; built.x.len()];
    for _ in 0..set.rung(40) {
        tr.begin_step();
        let id = tr.enter("kernel.global_spmv");
        stack
            .global
            .spmv(black_box(&built.x), &mut y)
            .expect("global dimensions match");
        tr.exit(id);
        if let Some(pool) = &pool {
            let id = tr.enter("kernel.global_pooled");
            bmv_pooled_into(&stack.global, black_box(&built.x), pool, &mut y);
            tr.exit(id);
        }
        black_box(&y);
    }
    let subdomains = built.system.subdomains();
    let xs: Vec<Vec<Vec3>> = subdomains
        .iter()
        .map(|sd| sd.global_nodes.iter().map(|&g| built.x[g]).collect())
        .collect();
    let mut ys: Vec<Vec<Vec3>> = subdomains
        .iter()
        .map(|sd| vec![Vec3::ZERO; sd.node_count()])
        .collect();
    for _ in 0..set.rung(40) {
        tr.begin_step();
        let sum = tr.enter("kernel.pe_sum");
        for ((sd, x), y) in subdomains.iter().zip(&xs).zip(&mut ys) {
            let id = tr.enter("kernel.pe_spmv");
            sd.stiffness
                .spmv(black_box(x), y)
                .expect("local dimensions match");
            tr.exit(id);
        }
        tr.exit(sum);
        black_box(&ys);
    }

    // The workload's own loop alternates untraced and traced rounds; every
    // other layer runs one traced rung.
    let mode = |k: Kind| {
        if w.kind == k {
            Mode::Alternate(set.trace_pairs())
        } else {
            Mode::Once
        }
    };
    let fem_steps = if w.kind == Kind::TimeLoop {
        steps
    } else {
        set.rung(100)
    };
    let fem = timeloop_rounds(set, mode(Kind::TimeLoop), fem_steps, &stack.sim, &mut tr)?;
    let mut exec_rounds = None;
    if w.kind != Kind::BspProc {
        let n = if w.kind == Kind::BspShared {
            steps
        } else {
            set.rung(100)
        };
        stack.exec.run(&built.x, 20);
        exec_rounds = Some(executor_rounds(
            set,
            mode(Kind::BspShared),
            n,
            &mut stack.exec,
            &built.x,
            &mut tr,
        )?);
    }
    let proc_spec = if w.kind == Kind::BspProc {
        spec.clone()
    } else {
        RunSpec {
            steps: set.rung(200),
            ..spec.clone()
        }
    };
    let proc = proc_rounds(set, mode(Kind::BspProc), &proc_spec, built, &mut tr)?;

    let main = match w.kind {
        Kind::TimeLoop => {
            check_timeloop(&fem, &stack.sim, fem_steps, &mut checks);
            &fem
        }
        Kind::BspShared => {
            let r = exec_rounds
                .as_ref()
                .expect("shared workload ran the executor");
            check_shared(r, built, &stack.exec.report(), comm, &mut checks);
            r
        }
        Kind::BspProc => {
            check_proc(&proc, &spec, built, comm, &mut checks)?;
            &proc
        }
    };
    let trace_overhead = median(&main.traced_walls()) / median(&main.untraced_walls());

    // The executor layer: the in-process executor's own report per step,
    // except on the proc workload, whose executors live in the shards.
    let exec_span = if w.kind == Kind::BspProc {
        "transport.run_with"
    } else {
        "executor.step_into"
    };
    let exec_report = match w.kind {
        Kind::BspProc => proc.runs[0].report.clone(),
        _ => stack.exec.report(),
    };
    checks.check(
        counters_match(&exec_report, comm),
        "executor counters differ from CommAnalysis",
    );
    let phase = |key: &str| median_of(tr.named(exec_span), |s| s.arg(key).unwrap_or(f64::NAN));
    let (assemble_ms, compute_ms, exchange_ms, fold_ms) = (
        phase("assemble_ms"),
        phase("compute_ms"),
        phase("exchange_ms"),
        phase("fold_ms"),
    );
    let step_ms = if w.kind == Kind::BspProc {
        assemble_ms + compute_ms + exchange_ms + fold_ms
    } else {
        median_of(tr.named(exec_span), Span::ms)
    };
    let (compute_all, exchange_all): (f64, f64) = tr
        .named(exec_span)
        .map(|s| {
            (
                s.arg("compute_ms").unwrap_or(0.0),
                s.arg("exchange_ms").unwrap_or(0.0),
            )
        })
        .fold((0.0, 0.0), |(c, x), (dc, dx)| (c + dc, x + dx));
    let busy = if w.kind == Kind::BspProc {
        SHARDS
    } else {
        w.threads
    } as f64;

    let setup = |name: &str| tr.named(name).next().map_or(f64::NAN, |s| s.ms() / 1e3);
    let global_ms = median_of(tr.named("kernel.global_spmv"), Span::ms);
    // The product inside `advance`: pooled when the time loop has workers.
    let advance_kernel_ms = match &pool {
        Some(_) => median_of(tr.named("kernel.global_pooled"), Span::ms),
        None => global_ms,
    };
    let pe_sum_ms = median_of(tr.named("kernel.pe_sum"), Span::ms);
    let advance_ms = median_of(tr.named("fem.advance"), Span::ms);

    let last = proc.runs.last().expect("the proc rung ran");
    let gap = ModelGap::of(&last.report, last.link, &overlap);
    let faults = |f: fn(&quake_core::fault::FaultReport) -> u64| -> f64 {
        proc.runs
            .iter()
            .filter_map(|o| o.report.fault.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let steps_done = exec_report.steps.max(1);
    let flops_per_step: u64 = exec_report.pe.iter().map(|c| c.flops).sum::<u64>() / steps_done;

    let metrics = vec![
        ("mesh.generate_s", setup("mesh.generate"), "s"),
        ("partition.s", setup("partition"), "s"),
        ("fem.assemble_s", setup("fem.assemble"), "s"),
        ("fem.system_build_s", setup("fem.system_build"), "s"),
        ("fem.sim_new_s", setup("fem.sim_new"), "s"),
        ("executor.plan_s", setup("executor.plan"), "s"),
        ("kernel.global_ms", global_ms, "ms"),
        (
            "kernel.gflops",
            features.flops as f64 / (global_ms * 1e-3) / 1e9,
            "GFLOP/s",
        ),
        ("kernel.pe_sum_ms", pe_sum_ms, "ms"),
        ("fem.advance_ms", advance_ms, "ms"),
        ("fem.update_ms", advance_ms - advance_kernel_ms, "ms"),
        ("executor.step_ms", step_ms, "ms"),
        ("executor.assemble_ms", assemble_ms, "ms"),
        ("executor.compute_ms", compute_ms, "ms"),
        ("executor.exchange_ms", exchange_ms, "ms"),
        ("executor.fold_ms", fold_ms, "ms"),
        ("executor.barrier_ms", phase("barrier_ms"), "ms"),
        (
            "executor.efficiency",
            compute_all / (compute_all + exchange_all),
            "ratio",
        ),
        (
            "executor.compute_overhead",
            compute_ms / (pe_sum_ms / busy),
            "ratio",
        ),
        (
            "transport.bootstrap_s",
            median_of(tr.named("transport.run_with"), |s| {
                s.arg("bootstrap_s").unwrap_or(f64::NAN)
            }),
            "s",
        ),
        ("transport.link_t_l_us", gap.t_l * 1e6, "us"),
        ("transport.link_t_w_ns", gap.t_w * 1e9, "ns"),
        ("transport.resends", faults(|f| f.wire_resends), "count"),
        ("transport.reconnects", faults(|f| f.reconnects), "count"),
        (
            "transport.respawns",
            faults(|f| f.respawned_shards + f.ensemble_restarts),
            "count",
        ),
        (
            "model.eq2_ratio",
            ratio(gap.measured_exchange_s, gap.eq2_s),
            "ratio",
        ),
        (
            "model.maxrate_ratio",
            ratio(gap.measured_exchange_s, gap.maxrate_s),
            "ratio",
        ),
        ("mesh.nodes", features.nodes as f64, "count"),
        ("kernel.blocks", features.blocks as f64, "count"),
        (
            "kernel.flops_per_byte",
            features.flops as f64 / features.bytes as f64,
            "flop/B",
        ),
        ("matrix.blocks_per_row", features.blocks_per_row(), "count"),
        (
            "matrix.bandwidth_natural",
            features.bandwidth_natural as f64,
            "count",
        ),
        (
            "matrix.bandwidth_rcm",
            features.bandwidth_rcm as f64,
            "count",
        ),
        ("executor.flops_per_step", flops_per_step as f64, "flop"),
        ("executor.c_max_words", exec_report.c_max() as f64, "words"),
        (
            "executor.b_max_blocks",
            exec_report.b_max() as f64,
            "blocks",
        ),
        (
            "executor.boundary_row_frac",
            boundary_frac(&overlap),
            "ratio",
        ),
        ("trace.overhead", trace_overhead, "ratio"),
    ];
    let self_ms = Json::Object(
        tr.self_ms_by_name()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::num(v)))
            .collect(),
    );
    let record = vec![
        ("features", features.json(Some(&overlap))),
        ("model", gap.json(&overlap)),
        ("samples", samples(main, steps)),
        ("self_ms", self_ms),
    ];
    Ok(Outcome {
        metrics,
        checks,
        record,
        trace: Some(tr.chrome_trace(w.name)),
    })
}

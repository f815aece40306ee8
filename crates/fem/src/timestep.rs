//! Explicit central-difference time stepping.
//!
//! The Quake applications run 6000 explicit time steps, each dominated by
//! one SMVP `y = Kx` — the only parallel operation besides I/O. The update
//! is the standard central difference with a lumped (diagonal) mass matrix:
//!
//! `u⁺ = 2u − u⁻ + Δt²·M⁻¹·(f − K·u)`
//!
//! [`Simulation`] keeps the stiffness in half storage ([`SymTiles`]: the
//! upper triangle and the diagonal, 17 MB instead of 33 MB on sf5) and
//! streams it once per step. [`Simulation::advance`] runs the product and
//! the update as one fused pass: each worker's [`SymBand`] computes its
//! rows in 256-row pieces and the update consumes each piece while its
//! products are still in cache. Row `i` of the update reads only `u[i]`,
//! `u⁻[i]` and row `i` of `K·u`, so `u⁺` overwrites `u⁻` in place and the
//! two buffers swap after the step — no second pass, no extra displacement
//! buffer.
//!
//! The bits are the full product's. A worker that owns rows `lo..hi` first
//! streams its cross strip — the transposes of the upper blocks that rows
//! below `lo` hold for its rows, which are the first terms of each row's
//! full-storage sum — and then sweeps `lo..hi` in half storage, scattering
//! transposed terms only below `hi`. Every row thus adds its lower terms
//! in ascending column order, then its diagonal, then its upper terms,
//! each with the full product's operations, whatever the split. The serial
//! path is one band over every row, with no strip.

use crate::assembly::AssembledSystem;
use crate::source::PointSource;
use quake_mesh::mesh::TetMesh;
use quake_spark::{broadcast_rows, worker_rows, SymBand, WorkerPool};
use quake_sparse::dense::Vec3;
use quake_sparse::error::SparseError;
use quake_sparse::tiles::SymTiles;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Error produced by simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A node carries zero mass (an unassembled or detached node).
    ZeroMass(usize),
    /// The time step is not positive.
    BadTimeStep(f64),
    /// The stiffness is not bitwise symmetric with ascending rows, so its
    /// half storage cannot reproduce the full product.
    NotSymmetric(SparseError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ZeroMass(n) => write!(f, "node {n} has zero lumped mass"),
            SimError::BadTimeStep(dt) => write!(f, "time step {dt} must be positive"),
            SimError::NotSymmetric(e) => write!(f, "stiffness has no half storage: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::NotSymmetric(e) => Some(e),
            _ => None,
        }
    }
}

/// A displacement recording at one receiver node.
#[derive(Debug, Clone, PartialEq)]
pub struct Seismogram {
    /// The recorded node.
    pub node: usize,
    /// One displacement sample per time step.
    pub samples: Vec<Vec3>,
}

impl Seismogram {
    /// Peak displacement magnitude over the recording.
    pub fn peak(&self) -> f64 {
        self.samples.iter().map(|s| s.norm()).fold(0.0, f64::max)
    }

    /// Index of the first sample whose magnitude exceeds `threshold`, or
    /// `None` if it never does — used to measure wave arrival times.
    pub fn first_arrival(&self, threshold: f64) -> Option<usize> {
        self.samples.iter().position(|s| s.norm() > threshold)
    }
}

/// A persistent worker pool driving the simulation's SMVP.
///
/// Wrapped so [`Simulation`] can keep deriving `Clone`/`Debug`: a clone
/// spawns a fresh pool of the same width (worker threads are not shareable
/// state), and `Debug` prints just the width.
struct PoolHandle(WorkerPool);

impl fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("PoolHandle")
            .field(&self.0.threads())
            .finish()
    }
}

impl Clone for PoolHandle {
    fn clone(&self) -> Self {
        PoolHandle(WorkerPool::new(self.0.threads()))
    }
}

/// An explicit central-difference wave-propagation simulation.
#[derive(Debug, Clone)]
pub struct Simulation {
    /// The stiffness in half storage. It is never written after
    /// construction, so clones share it instead of copying the matrix.
    stiffness: Arc<SymTiles>,
    /// Lumped nodal mass.
    mass: Vec<f64>,
    /// Point sources, stably sorted by node: a step walks them with a
    /// cursor, and sources on one node keep their insertion order.
    sources: Vec<PointSource>,
    receivers: Vec<usize>,
    dt: f64,
    time: f64,
    step: u64,
    /// Mass-proportional Rayleigh damping coefficient α (1/s); the damping
    /// force is `α·M·u̇`.
    damping: f64,
    /// Pooled workers for the fused step, or `None` for the serial path.
    pool: Option<PoolHandle>,
    /// One band per pool worker, over its [`worker_rows`]; one band over
    /// every row on the serial path.
    bands: Vec<SymBand>,
    /// `u⁻` before a step; the step overwrites it with `u⁺`.
    u_prev: Vec<Vec3>,
    u_curr: Vec<Vec3>,
    records: Vec<Seismogram>,
}

/// Rows per kernel call inside a step: the block's 6 KB of products stay
/// in L1 while the update consumes them.
const STEP_BLOCK: usize = 256;

/// Everything one time step reads; shared by every band of the step.
struct Step<'a> {
    stiffness: &'a SymTiles,
    mass: &'a [f64],
    u_curr: &'a [Vec3],
    /// Sorted by node.
    sources: &'a [PointSource],
    time: f64,
    /// `1/Δt²`.
    c1: f64,
    /// `α/(2Δt)`.
    c2: f64,
    /// `1/(c1 + c2)`.
    inv_denom: f64,
}

impl Step<'_> {
    /// The step body for the nodes of `band`: `u_prev` holds `u⁻` for
    /// exactly those nodes on entry and `u⁺` on return.
    ///
    /// Per node this is `f = −(K·u)ᵢ + Σ sources`, then the
    /// central-difference update with the same operations in the same
    /// order as the original two-pass step, so the result is bitwise equal
    /// to it for any split of the rows.
    fn band(&self, band: &mut SymBand, u_prev: &mut [Vec3]) {
        let lo = band.rows().start;
        let mut ku = [Vec3::ZERO; STEP_BLOCK];
        let mut src = self.sources.partition_point(|s| s.node < lo);
        band.sweep(self.stiffness, self.u_curr, &mut ku, |rows, products| {
            let prev = &mut u_prev[rows.start - lo..rows.end - lo];
            for ((i, &k), up) in rows.zip(products).zip(prev) {
                let mut f = -k;
                while let Some(s) = self.sources.get(src).filter(|s| s.node == i) {
                    f += s.force_at(self.time);
                    src += 1;
                }
                let rhs = f * (1.0 / self.mass[i])
                    + (self.u_curr[i] * 2.0 - *up) * self.c1
                    + *up * self.c2;
                *up = rhs * self.inv_denom;
            }
        });
    }
}

impl Simulation {
    /// Creates a simulation with time step `dt` (seconds). The stiffness is
    /// converted once into the half storage the step kernel runs on, and
    /// the source matrix is consumed as it converts
    /// ([`SymTiles::from_bcsr_owned`]), so the two are never resident at
    /// once.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadTimeStep`] if `dt ≤ 0`,
    /// [`SimError::ZeroMass`] if any node has no mass, or
    /// [`SimError::NotSymmetric`] if the stiffness is not bitwise
    /// symmetric with strictly ascending rows (an assembled one always
    /// is).
    pub fn new(system: AssembledSystem, dt: f64) -> Result<Self, SimError> {
        if dt <= 0.0 || dt.is_nan() {
            return Err(SimError::BadTimeStep(dt));
        }
        if let Some(n) = system.mass.iter().position(|&m| m <= 0.0) {
            return Err(SimError::ZeroMass(n));
        }
        let AssembledSystem { stiffness, mass } = system;
        let n = stiffness.block_rows();
        let stiffness = SymTiles::from_bcsr_owned(stiffness).map_err(SimError::NotSymmetric)?;
        Ok(Simulation {
            bands: vec![SymBand::new(&stiffness, 0..n)],
            stiffness: Arc::new(stiffness),
            mass,
            sources: Vec::new(),
            receivers: Vec::new(),
            dt,
            time: 0.0,
            step: 0,
            damping: 0.0,
            pool: None,
            u_prev: vec![Vec3::ZERO; n],
            u_curr: vec![Vec3::ZERO; n],
            records: Vec::new(),
        })
    }

    /// Sets the mass-proportional Rayleigh damping coefficient `alpha`
    /// (1/s). Zero (the default) is the paper's undamped explicit scheme; a
    /// positive value attenuates motion, standing in for the absorbing
    /// boundaries of the production code.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative.
    pub fn set_damping(&mut self, alpha: f64) -> &mut Self {
        assert!(alpha >= 0.0, "damping must be non-negative");
        self.damping = alpha;
        self
    }

    /// Runs each step on a persistent worker pool of `threads` workers
    /// (`threads <= 1` restores the serial path). The pool lives for the
    /// rest of the simulation, so the 6000-step loop pays thread spawn cost
    /// once instead of per step. Each worker runs the whole fused step —
    /// product and update — for one contiguous range of nodes, in one
    /// broadcast per step; its cross strip is built here, once. Every
    /// node's arithmetic is independent of the split, so results are
    /// bitwise identical to the serial path.
    pub fn set_parallel(&mut self, threads: usize) -> &mut Self {
        let n = self.u_curr.len();
        let threads = threads.max(1);
        self.bands = (0..threads)
            .map(|w| SymBand::new(&self.stiffness, worker_rows(n, threads, w)))
            .collect();
        self.pool = (threads > 1).then(|| PoolHandle(WorkerPool::new(threads)));
        self
    }

    /// Number of worker threads driving the SMVP (1 means serial).
    pub fn parallelism(&self) -> usize {
        self.pool.as_ref().map_or(1, |h| h.0.threads())
    }

    /// Adds a point source. Forces of sources on the same node are summed
    /// in the order the sources were added.
    pub fn add_source(&mut self, source: PointSource) -> &mut Self {
        let at = self.sources.partition_point(|s| s.node <= source.node);
        self.sources.insert(at, source);
        self
    }

    /// Adds a receiver recording the displacement of `node` each step.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn add_receiver(&mut self, node: usize) -> &mut Self {
        assert!(
            node < self.u_curr.len(),
            "receiver node {node} out of range"
        );
        self.receivers.push(node);
        self.records.push(Seismogram {
            node,
            samples: Vec::new(),
        });
        self
    }

    /// Current simulated time (seconds).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Number of completed steps.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Current displacement field.
    pub fn displacement(&self) -> &[Vec3] {
        &self.u_curr
    }

    /// The recorded seismograms so far.
    pub fn seismograms(&self) -> &[Seismogram] {
        &self.records
    }

    /// A conservative stable time step for the mesh/material combination:
    /// `dt = safety · min_e (min altitude / v_p)` (CFL-style bound).
    ///
    /// The bound uses each element's minimum *altitude* rather than its
    /// shortest edge: Delaunay meshes contain sliver elements whose edges
    /// are all moderate but whose height is tiny, and it is the altitude
    /// that controls the element's highest eigenfrequency under a lumped
    /// mass matrix. An edge-based bound admits time steps that blow up on
    /// such meshes.
    pub fn stable_dt(mesh: &TetMesh, max_vp: f64, safety: f64) -> f64 {
        let min_altitude = (0..mesh.element_count())
            .map(|e| mesh.tetra(e).min_altitude())
            .fold(f64::INFINITY, f64::min);
        safety * min_altitude / max_vp
    }

    /// Advances one time step (one SMVP plus vector updates — the paper's
    /// unit of work).
    ///
    /// The product and the update are one fused pass: the serial path runs
    /// it over all nodes, the pooled path over one band per worker in a
    /// single broadcast. Each band writes `u⁺` over its slice of `u⁻`
    /// while `u` stays read-only, and the two buffers swap after the
    /// barrier. The step allocates nothing, and each source's force is
    /// evaluated once.
    pub fn advance(&mut self) {
        // Central difference with mass-proportional damping α:
        //   M·(u⁺−2u+u⁻)/Δt² + α·M·(u⁺−u⁻)/(2Δt) + K·u = f
        // solved per node for u⁺ (M is lumped/diagonal).
        let c1 = 1.0 / (self.dt * self.dt);
        let c2 = self.damping / (2.0 * self.dt);
        let step = Step {
            stiffness: &self.stiffness,
            mass: &self.mass,
            u_curr: &self.u_curr,
            sources: &self.sources,
            time: self.time,
            c1,
            c2,
            inv_denom: 1.0 / (c1 + c2),
        };
        match &self.pool {
            Some(handle) => broadcast_rows(
                &handle.0,
                &mut self.u_prev,
                &mut self.bands,
                |_, u_prev, band| step.band(band, u_prev),
            ),
            None => step.band(&mut self.bands[0], &mut self.u_prev),
        }
        std::mem::swap(&mut self.u_prev, &mut self.u_curr);
        self.step += 1;
        self.time += self.dt;
        for (r, &node) in self.receivers.iter().enumerate() {
            let sample = self.u_curr[node];
            self.records[r].samples.push(sample);
        }
    }

    /// Runs `steps` time steps.
    pub fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            self.advance();
        }
    }

    /// Total displacement energy proxy `Σ m_i·|u_i|²` (bounded for a stable
    /// run, exploding for an unstable one).
    pub fn displacement_energy(&self) -> f64 {
        self.u_curr
            .iter()
            .zip(&self.mass)
            .map(|(u, &m)| m * u.norm_squared())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::{assemble, UniformMaterial};
    use crate::source::Ricker;
    use quake_mesh::generator::{generate_mesh, GeneratorOptions};
    use quake_mesh::geometry::Aabb;
    use quake_mesh::ground::{Material, UniformSizing};

    fn small_system() -> (TetMesh, AssembledSystem) {
        let domain = Aabb::new(Vec3::ZERO, Vec3::splat(4.0));
        let mesh = generate_mesh(domain, &UniformSizing(1.0), GeneratorOptions::default()).unwrap();
        let mat = Material {
            vs: 1.0,
            vp: 2.0,
            rho: 1.0,
        };
        let sys = assemble(&mesh, &UniformMaterial(mat)).unwrap();
        (mesh, sys)
    }

    #[test]
    fn zero_initial_state_stays_zero_without_sources() {
        let (_, sys) = small_system();
        let mut sim = Simulation::new(sys, 1e-3).unwrap();
        sim.run(50);
        assert_eq!(sim.step_count(), 50);
        assert_eq!(sim.displacement_energy(), 0.0);
    }

    #[test]
    fn source_excites_waves_that_stay_bounded() {
        let (mesh, sys) = small_system();
        let dt = Simulation::stable_dt(&mesh, 2.0, 0.3);
        assert!(dt > 0.0);
        let mut sim = Simulation::new(sys, dt).unwrap();
        let src = PointSource::nearest(
            &mesh,
            Vec3::splat(2.0),
            Vec3::new(0.0, 0.0, 1.0),
            Ricker::new(0.5),
        );
        sim.add_source(src);
        sim.add_receiver(0);
        sim.run(300);
        let energy = sim.displacement_energy();
        assert!(energy > 0.0, "source should excite motion");
        assert!(
            energy.is_finite() && energy < 1e12,
            "unstable: energy = {energy}"
        );
        assert_eq!(sim.seismograms()[0].samples.len(), 300);
    }

    #[test]
    fn waves_arrive_later_at_distant_receivers() {
        let (mesh, sys) = small_system();
        let dt = Simulation::stable_dt(&mesh, 2.0, 0.3);
        let mut sim = Simulation::new(sys, dt).unwrap();
        let corner = Vec3::ZERO;
        let src = PointSource::nearest(&mesh, corner, Vec3::new(0.0, 0.0, 1e3), Ricker::new(0.8));
        let src_pos = mesh.nodes()[src.node];
        sim.add_source(src);
        // Near and far receivers.
        let near = PointSource::nearest(
            &mesh,
            src_pos + Vec3::splat(1.0),
            Vec3::ZERO,
            Ricker::new(1.0),
        )
        .node;
        let far = PointSource::nearest(
            &mesh,
            src_pos + Vec3::splat(3.5),
            Vec3::ZERO,
            Ricker::new(1.0),
        )
        .node;
        sim.add_receiver(near);
        sim.add_receiver(far);
        sim.run(800);
        let threshold = 1e-6 * sim.seismograms()[0].peak().max(sim.seismograms()[1].peak());
        let t_near = sim.seismograms()[0].first_arrival(threshold);
        let t_far = sim.seismograms()[1].first_arrival(threshold);
        let (t_near, t_far) = (t_near.expect("near arrival"), t_far.expect("far arrival"));
        assert!(
            t_near < t_far,
            "near receiver must hear the wave first: {t_near} vs {t_far}"
        );
    }

    #[test]
    fn construction_errors() {
        let (_, sys) = small_system();
        assert!(matches!(
            Simulation::new(sys.clone(), 0.0),
            Err(SimError::BadTimeStep(_))
        ));
        let mut bad = sys;
        bad.mass[3] = 0.0;
        assert!(matches!(
            Simulation::new(bad, 1e-3),
            Err(SimError::ZeroMass(3))
        ));
    }

    #[test]
    fn seismogram_helpers() {
        let s = Seismogram {
            node: 0,
            samples: vec![
                Vec3::ZERO,
                Vec3::new(0.5, 0.0, 0.0),
                Vec3::new(2.0, 0.0, 0.0),
            ],
        };
        assert_eq!(s.peak(), 2.0);
        assert_eq!(s.first_arrival(0.4), Some(1));
        assert_eq!(s.first_arrival(5.0), None);
    }

    #[test]
    fn damping_attenuates_motion() {
        let (mesh, sys) = small_system();
        let dt = Simulation::stable_dt(&mesh, 2.0, 0.3);
        // Compare at a fixed simulated time (not step count) so the test is
        // insensitive to how conservative stable_dt is: α·t is what sets the
        // attenuation, and 2.0 s at α = 2 /s damps energy by ≈ e⁻⁸.
        let steps = (2.0 / dt).ceil() as u64;
        let run = |alpha: f64| {
            let mut sim = Simulation::new(sys.clone(), dt).unwrap();
            sim.set_damping(alpha);
            let src = PointSource::nearest(
                &mesh,
                Vec3::splat(2.0),
                Vec3::new(0.0, 0.0, 1.0),
                Ricker::new(0.5),
            );
            sim.add_source(src);
            sim.run(steps);
            sim.displacement_energy()
        };
        let undamped = run(0.0);
        let damped = run(2.0);
        assert!(
            damped < 0.5 * undamped,
            "damped {damped} vs undamped {undamped}"
        );
        assert!(damped > 0.0);
    }

    #[test]
    fn zero_damping_matches_original_scheme() {
        let (mesh, sys) = small_system();
        let dt = Simulation::stable_dt(&mesh, 2.0, 0.3);
        let mut a = Simulation::new(sys.clone(), dt).unwrap();
        let mut b = Simulation::new(sys, dt).unwrap();
        b.set_damping(0.0);
        let src = PointSource::nearest(
            &mesh,
            Vec3::splat(2.0),
            Vec3::new(1.0, 0.0, 0.0),
            Ricker::new(0.5),
        );
        a.add_source(src);
        b.add_source(src);
        a.run(100);
        b.run(100);
        assert_eq!(a.displacement(), b.displacement());
    }

    #[test]
    fn parallel_smvp_matches_serial_bitwise() {
        let (mesh, sys) = small_system();
        let dt = Simulation::stable_dt(&mesh, 2.0, 0.3);
        let src = PointSource::nearest(
            &mesh,
            Vec3::splat(2.0),
            Vec3::new(1.0, 0.0, 0.0),
            Ricker::new(0.5),
        );
        let mut serial = Simulation::new(sys.clone(), dt).unwrap();
        serial.add_source(src);
        serial.run(100);
        for threads in [1, 2, 4] {
            let mut par = Simulation::new(sys.clone(), dt).unwrap();
            par.set_parallel(threads);
            assert_eq!(par.parallelism(), threads.max(1));
            par.add_source(src);
            par.run(100);
            // Each node's arithmetic is independent of the row split, so
            // the floating-point operations are identical, not merely close.
            assert_eq!(serial.displacement(), par.displacement());
        }
        // Cloning a parallel simulation keeps the configured width.
        let mut par = Simulation::new(sys, dt).unwrap();
        par.set_parallel(3);
        assert_eq!(par.clone().parallelism(), 3);
        par.set_parallel(1);
        assert_eq!(par.parallelism(), 1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_damping_panics() {
        let (_, sys) = small_system();
        let mut sim = Simulation::new(sys, 1e-3).unwrap();
        sim.set_damping(-0.1);
    }

    #[test]
    fn time_advances_by_dt() {
        let (_, sys) = small_system();
        let mut sim = Simulation::new(sys, 0.25).unwrap();
        sim.run(4);
        assert!((sim.time() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_receiver_panics() {
        let (_, sys) = small_system();
        let mut sim = Simulation::new(sys, 1e-3).unwrap();
        sim.add_receiver(usize::MAX);
    }

    #[test]
    fn error_display() {
        assert!(SimError::ZeroMass(5).to_string().contains("node 5"));
        assert!(SimError::BadTimeStep(-1.0).to_string().contains("positive"));
        let e = SimError::NotSymmetric(SparseError::NotSymmetric);
        assert!(e
            .to_string()
            .contains(&SparseError::NotSymmetric.to_string()));
        assert_eq!(
            e.source().map(|s| s.to_string()),
            Some(SparseError::NotSymmetric.to_string())
        );
    }

    #[test]
    fn a_stiffness_asymmetric_in_one_bit_is_a_typed_error() {
        use quake_sparse::bcsr::Bcsr3Builder;
        let (_, sys) = small_system();
        let k = &sys.stiffness;
        let n = k.block_rows();
        // The first off-diagonal block, with the last mantissa bit of one
        // entry flipped; its mirror keeps the original bits.
        let flip = (0..n)
            .flat_map(|r| (k.row_ptr()[r]..k.row_ptr()[r + 1]).map(move |i| (r, i)))
            .find(|&(r, i)| k.col_idx()[i] != r)
            .expect("an assembled stiffness couples nodes")
            .1;
        let mut b = Bcsr3Builder::new(n);
        for r in 0..n {
            for i in k.row_ptr()[r]..k.row_ptr()[r + 1] {
                let mut m = k.blocks()[i];
                if i == flip {
                    m.m[0][1] = f64::from_bits(m.m[0][1].to_bits() ^ 1);
                }
                b.add_block(r, k.col_idx()[i], m);
            }
        }
        let bad = AssembledSystem {
            stiffness: b.build(),
            mass: sys.mass.clone(),
        };
        assert!(
            (bad.stiffness.blocks()[flip].m[0][1] - k.blocks()[flip].m[0][1]).abs() < 1e-9,
            "equal within any tolerance"
        );
        assert_eq!(
            Simulation::new(bad, 1e-3).unwrap_err(),
            SimError::NotSymmetric(SparseError::NotSymmetric)
        );
        assert!(Simulation::new(sys, 1e-3).is_ok());
    }
}

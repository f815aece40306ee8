//! Bitwise oracle for `Simulation::advance`.
//!
//! The reference below is the original two-pass time step, written out
//! inline: a full scalar `Bcsr3::spmv`, then a per-node central-difference
//! update that scans every source for every node. The simulation fuses the
//! product and the update into one row-range pass on the tile kernel, so
//! these tests pin it to the reference bit for bit — serial and pooled,
//! with the vector kernel and with the scalar fallback forced.

use quake_fem::{assemble, AssembledSystem, PointSource, Ricker, Simulation, UniformMaterial};
use quake_mesh::generator::{generate_mesh, GeneratorOptions};
use quake_mesh::geometry::Aabb;
use quake_mesh::ground::{Material, UniformSizing};
use quake_mesh::mesh::TetMesh;
use quake_spark::{force_scalar, simd_active};
use quake_sparse::dense::Vec3;
use std::sync::Mutex;

/// Serializes the tests that flip the process-wide `force_scalar` switch.
static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

const DAMPING: f64 = 0.7;

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

/// Three sources, added out of node order, two of them on the same node and
/// not adjacent in insertion order — so the per-node force sum must keep
/// insertion order across an intervening source.
fn sources(mesh: &TetMesh) -> Vec<PointSource> {
    let shared = PointSource::nearest(
        mesh,
        Vec3::splat(2.0),
        Vec3::new(0.0, 0.0, 1.0),
        Ricker::new(0.5),
    );
    let other = PointSource::nearest(
        mesh,
        Vec3::new(0.5, 0.5, 0.5),
        Vec3::new(0.3, -1.0, 0.2),
        Ricker::new(0.8),
    );
    let mut second = shared;
    second.force = Vec3::new(-0.4, 0.9, 0.1);
    second.wavelet = Ricker::new(0.65);
    assert_ne!(shared.node, other.node);
    vec![shared, other, second]
}

/// The original algorithm: `Bcsr3::spmv`, then the per-node update that
/// scans every source for every node.
fn reference(sys: &AssembledSystem, srcs: &[PointSource], dt: f64, steps: u64) -> Vec<Vec3> {
    let n = sys.stiffness.block_rows();
    let mut u_prev = vec![Vec3::ZERO; n];
    let mut u_curr = vec![Vec3::ZERO; n];
    let mut scratch = vec![Vec3::ZERO; n];
    let mut time = 0.0;
    for _ in 0..steps {
        sys.stiffness.spmv(&u_curr, &mut scratch).unwrap();
        let c1 = 1.0 / (dt * dt);
        let c2 = DAMPING / (2.0 * dt);
        let denom = c1 + c2;
        for i in 0..n {
            let mut f = -scratch[i];
            for s in srcs {
                if s.node == i {
                    f += s.force_at(time);
                }
            }
            let rhs = f * (1.0 / sys.mass[i]) + (u_curr[i] * 2.0 - u_prev[i]) * c1 + u_prev[i] * c2;
            let next = rhs * (1.0 / denom);
            u_prev[i] = u_curr[i];
            u_curr[i] = next;
        }
        time += dt;
    }
    u_curr
}

fn simulate(
    sys: &AssembledSystem,
    srcs: &[PointSource],
    dt: f64,
    threads: usize,
    steps: u64,
) -> Vec<Vec3> {
    let mut sim = Simulation::new(sys.clone(), dt).unwrap();
    sim.set_damping(DAMPING).set_parallel(threads);
    for &s in srcs {
        sim.add_source(s);
    }
    sim.run(steps);
    sim.displacement().to_vec()
}

fn assert_bits_eq(got: &[Vec3], want: &[Vec3], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            (g.x.to_bits(), g.y.to_bits(), g.z.to_bits()),
            (w.x.to_bits(), w.y.to_bits(), w.z.to_bits()),
            "{what}: node {i} differs: {g} vs {w}"
        );
    }
}

/// FNV-1a over the little-endian bits of every component.
fn digest(v: &[Vec3]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in v.iter().flat_map(|p| [p.x, p.y, p.z]) {
        for b in w.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn advance_matches_the_two_pass_reference_bitwise() {
    let _guard = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mesh, sys) = small_system();
    let dt = Simulation::stable_dt(&mesh, 2.0, 0.3);
    let srcs = sources(&mesh);
    let steps = 150;
    let want = reference(&sys, &srcs, dt, steps);
    assert!(
        want.iter().any(|u| u.norm() > 0.0),
        "the sources must excite motion"
    );
    let hardware = simd_active();
    for scalar in [true, false] {
        force_scalar(scalar);
        assert_eq!(simd_active(), hardware && !scalar);
        for threads in 1..=4 {
            let got = simulate(&sys, &srcs, dt, threads, steps);
            assert_bits_eq(
                &got,
                &want,
                &format!("threads {threads}, force_scalar({scalar})"),
            );
        }
    }
    force_scalar(false);
}

/// Digest of the displacement after 200 damped steps on the small mesh with
/// the three sources, as computed by the original two-pass `advance`.
const GOLDEN_DIGEST: u64 = 0x2513_4d4c_fe06_9de9;

#[test]
fn displacement_digest_matches_the_original_algorithm() {
    let (mesh, sys) = small_system();
    let dt = Simulation::stable_dt(&mesh, 2.0, 0.3);
    let srcs = sources(&mesh);
    for threads in [1, 3] {
        let got = digest(&simulate(&sys, &srcs, dt, threads, 200));
        assert_eq!(
            got, GOLDEN_DIGEST,
            "threads {threads}: digest {got:#018x} differs from the golden value"
        );
    }
}

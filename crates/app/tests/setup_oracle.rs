//! Bitwise oracle for the set-up layers: mesh generation, quality
//! refinement, global assembly and the distributed system build.
//!
//! Each test folds one layer's complete output — every coordinate, index
//! and matrix entry, bit for bit — into an FNV-1a digest and compares it
//! with a golden value. The golden values were computed by the original
//! implementations (a per-insertion allocating Bowyer–Watson, and
//! assembly through the sorted-row `Bcsr3Builder` with hashed global→local
//! maps), so any change to the set-up code must reproduce their output
//! exactly: same mesh, same summation order, same signed zeros.

use quake_app::distributed::DistributedSystem;
use quake_app::executor::BspExecutor;
use quake_app::family::{AppConfig, QuakeApp};
use quake_fem::assembly::{assemble, GroundMaterial};
use quake_mesh::generator::{generate_mesh, GeneratorOptions};
use quake_mesh::geometry::Aabb;
use quake_mesh::ground::UniformSizing;
use quake_mesh::mesh::TetMesh;
use quake_mesh::refine::{refine_quality, QualityOptions};
use quake_partition::geometric::{Partitioner, RecursiveBisection};
use quake_sparse::bcsr::Bcsr3;
use quake_sparse::dense::Vec3;

/// Incremental FNV-1a over 64-bit words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn vec3s(&mut self, v: &[Vec3]) {
        self.word(v.len() as u64);
        for p in v {
            self.f64(p.x);
            self.f64(p.y);
            self.f64(p.z);
        }
    }

    fn indices(&mut self, v: &[usize]) {
        self.word(v.len() as u64);
        for &i in v {
            self.word(i as u64);
        }
    }

    fn mesh(&mut self, mesh: &TetMesh) {
        self.vec3s(mesh.nodes());
        self.word(mesh.element_count() as u64);
        for e in mesh.elements() {
            for &v in e {
                self.word(v as u64);
            }
        }
    }

    fn matrix(&mut self, k: &Bcsr3) {
        self.indices(k.row_ptr());
        self.indices(k.col_idx());
        for b in k.blocks() {
            for row in &b.m {
                for &x in row {
                    self.f64(x);
                }
            }
        }
    }
}

/// The sf10 member at scale 6: a few thousand nodes, seconds in a debug
/// build, generated through the same path as the CLI and the benchmark.
fn app() -> QuakeApp {
    QuakeApp::generate(AppConfig::new("sf10", 10.0, 6.0)).unwrap()
}

/// A deterministic, sign-mixed input vector for the product digests.
fn input(n: usize) -> Vec<Vec3> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            Vec3::new((0.37 * t).sin(), (0.11 * t).cos() - 0.5, 1.0 / (1.0 + t))
        })
        .collect()
}

fn check(what: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{what}: digest {got:#018x} differs from the golden {want:#018x}"
    );
}

const MESH_DIGEST: u64 = 0x6643_7019_4463_c1a6;
const REFINE_DIGEST: u64 = 0x1568_1f83_07dd_ac9e;
const ASSEMBLE_DIGEST: u64 = 0x4d80_959c_eb6b_e7de;
/// `(RIB parts, digest)`.
const SYSTEM_DIGESTS: [(usize, u64); 2] = [(4, 0xbfda_de96_b84d_1679), (8, 0xd4b2_a725_cd12_29c3)];

#[test]
fn basin_mesh_matches_golden() {
    let app = app();
    let mut h = Fnv::new();
    h.mesh(&app.mesh);
    check("sf10 @ scale 6 mesh", h.0, MESH_DIGEST);
}

#[test]
fn quality_refinement_matches_golden() {
    // Unfiltered, so the slivers give refinement work; every round
    // re-enters the Delaunay builder on the grown point set.
    let domain = Aabb::new(Vec3::ZERO, Vec3::splat(5.0));
    let raw = GeneratorOptions {
        max_radius_edge: f64::INFINITY,
        ..GeneratorOptions::default()
    };
    let mesh = generate_mesh(domain, &UniformSizing(1.0), raw).unwrap();
    let (refined, stats) = refine_quality(&mesh, domain, QualityOptions::default()).unwrap();
    assert!(stats.inserted > 0, "refinement must insert points");
    let mut h = Fnv::new();
    h.mesh(&refined);
    h.word(stats.rounds as u64);
    h.word(stats.inserted as u64);
    h.word(stats.remaining_bad as u64);
    check("refine_quality", h.0, REFINE_DIGEST);
}

#[test]
fn global_assembly_matches_golden() {
    let app = app();
    let sys = assemble(&app.mesh, &GroundMaterial(&app.ground)).unwrap();
    let mut h = Fnv::new();
    h.matrix(&sys.stiffness);
    for &m in &sys.mass {
        h.f64(m);
    }
    check("assemble", h.0, ASSEMBLE_DIGEST);
}

#[test]
fn distributed_system_matches_golden() {
    let app = app();
    let x = input(app.mesh.node_count());
    for (parts, want) in SYSTEM_DIGESTS {
        let partition = RecursiveBisection::inertial()
            .partition(&app.mesh, parts)
            .unwrap();
        let sys =
            DistributedSystem::build(&app.mesh, &partition, &GroundMaterial(&app.ground)).unwrap();
        let mut h = Fnv::new();
        for sd in sys.subdomains() {
            h.indices(&sd.global_nodes);
            h.matrix(&sd.stiffness);
        }
        for a in 0..parts {
            for b in 0..parts {
                h.word(sys.message_words(a, b));
            }
        }
        // The product runs the exchange schedule: its pair order decides
        // the summation order of every multiply-shared node.
        h.vec3s(&sys.smvp(&x));
        h.vec3s(&BspExecutor::new(&sys, 2).step(&x));
        check(&format!("DistributedSystem at {parts} parts"), h.0, want);
    }
}

//! The real distributed SMVP of §2.3: local subdomain matrices with
//! replicated shared nodes, a local product per PE, and an exchange-and-sum
//! communication phase.
//!
//! This is an executable model of the data distribution the paper analyzes:
//! `x`/`y` values of a node replicated on every PE whose subdomain touches
//! it, `K_ij` resident wherever both nodes reside (assembled from local
//! elements only), and one message per neighbor pair each way carrying
//! 3 words per shared node. Its numerical output is bit-for-bit comparable
//! with a sequential global SMVP, and its message sizes reproduce the
//! `C_i`/`B_i` counts of [`quake_partition::comm::CommAnalysis`].
//!
//! Each PE's `K_ij` is resident once, in half storage ([`SymTiles`]: the
//! upper triangle, each symmetric pair of blocks kept once). The build
//! assembles one PE at a time and converts its full matrix as it releases
//! it ([`SymTiles::from_bcsr_owned`]), so at most one PE's full matrix is
//! ever resident. Every [`BspExecutor`](crate::executor::BspExecutor)
//! built from the system shares these matrices instead of copying them;
//! a schedule that renumbers rows expands one PE at a time with
//! [`SymTiles::to_bcsr`], bit for bit the assembled matrix.

use quake_fem::assembly::MaterialField;
use quake_fem::elasticity::{element_stiffness, DegenerateElement};
use quake_mesh::mesh::TetMesh;
use quake_partition::partition::Partition;
use quake_spark::tile_kernels::bmv_sym_into;
use quake_sparse::bcsr::{Bcsr3, ElementAssembler};
use quake_sparse::dense::Vec3;
use quake_sparse::error::SparseError;
use quake_sparse::tiles::{LaneBlock, SymTiles};
use std::cell::RefCell;
use std::ops::Deref;
use std::sync::Arc;

/// One PE's local stiffness in half storage, shared by every executor
/// built from its system. It dereferences to the [`SymTiles`] it holds.
#[derive(Debug, Clone)]
pub struct LocalStiffness(Arc<SymTiles>);

impl LocalStiffness {
    /// Local SMVP `y = Kx` over per-node 3-vectors, into `y`, on the
    /// half-storage kernel the barrier schedule runs
    /// ([`bmv_sym_into`]), bit for bit the full matrix's product.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x` or `y` does not hold
    /// one [`Vec3`] per block row.
    pub fn spmv(&self, x: &[Vec3], y: &mut [Vec3]) -> Result<(), SparseError> {
        let n = self.block_rows();
        for (len, what) in [(x.len(), "x block vector"), (y.len(), "y block vector")] {
            if len != n {
                return Err(SparseError::DimensionMismatch {
                    expected: n,
                    found: len,
                    what,
                });
            }
        }
        // The kernel's scratch, one lane block per row, kept per thread so
        // a repeated product neither allocates nor faults its pages in.
        thread_local! {
            static ACC: RefCell<Vec<LaneBlock>> = const { RefCell::new(Vec::new()) };
        }
        ACC.with_borrow_mut(|acc| {
            acc.resize(n, LaneBlock::default());
            bmv_sym_into(&self.0, x, acc, y);
        });
        Ok(())
    }

    /// The shared matrix itself, for an executor that streams it.
    pub(crate) fn shared(&self) -> &Arc<SymTiles> {
        &self.0
    }
}

impl Deref for LocalStiffness {
    type Target = SymTiles;

    fn deref(&self) -> &SymTiles {
        &self.0
    }
}

/// One PE's share of the distributed system.
#[derive(Debug, Clone)]
pub struct LocalSubdomain {
    /// Sorted global ids of the nodes residing on this PE.
    pub global_nodes: Vec<usize>,
    /// Local stiffness matrix over local node indices (contributions from
    /// this PE's elements only), in half storage.
    pub stiffness: LocalStiffness,
}

impl LocalSubdomain {
    /// Number of local (possibly replicated) nodes.
    pub fn node_count(&self) -> usize {
        self.global_nodes.len()
    }

    /// Flops of this PE's local SMVP (`F_i = 2·m_i`).
    pub fn smvp_flops(&self) -> u64 {
        self.stiffness.smvp_flops()
    }
}

/// A message exchanged between two PEs during the communication phase.
#[derive(Debug, Clone)]
pub(crate) struct Exchange {
    pub(crate) a: usize,
    pub(crate) b: usize,
    /// `(local index on a, local index on b)` for each shared node.
    pub(crate) pairs: Vec<(usize, usize)>,
}

/// The distributed SMVP system: one subdomain per PE plus the exchange
/// schedule.
#[derive(Debug, Clone)]
pub struct DistributedSystem {
    subdomains: Vec<LocalSubdomain>,
    exchanges: Vec<Exchange>,
    node_count: usize,
}

/// Where every node resides: each PE's sorted global nodes, and each
/// node's local index on every PE it resides on, in a table aligned with
/// `node_pes`: `slot[first[v] + k]` is v's index on `node_pes(v)[k]`.
struct Residence<'a> {
    partition: &'a Partition,
    global_nodes: Vec<Vec<usize>>,
    first: Vec<usize>,
    slot: Vec<usize>,
    /// Each PE's elements, in global element order.
    elements: Vec<Vec<usize>>,
}

impl<'a> Residence<'a> {
    fn new(mesh: &TetMesh, partition: &'a Partition) -> Self {
        assert_eq!(
            partition.assignments().len(),
            mesh.element_count(),
            "partition does not match mesh"
        );
        let p = partition.parts();
        let n = mesh.node_count();
        // Local node lists are sorted because node ids ascend.
        let mut global_nodes: Vec<Vec<usize>> = vec![Vec::new(); p];
        let mut first = Vec::with_capacity(n + 1);
        let mut slot = Vec::with_capacity(n);
        first.push(0);
        for v in 0..n {
            for &q in partition.node_pes(v) {
                slot.push(global_nodes[q].len());
                global_nodes[q].push(v);
            }
            first.push(slot.len());
        }
        let mut elements: Vec<Vec<usize>> = vec![Vec::new(); p];
        for (e, &q) in partition.assignments().iter().enumerate() {
            elements[q].push(e);
        }
        Residence {
            partition,
            global_nodes,
            first,
            slot,
            elements,
        }
    }

    /// Node `v`'s local index on PE `q`.
    fn local(&self, q: usize, v: usize) -> usize {
        let k = self
            .partition
            .node_pes(v)
            .iter()
            .position(|&r| r == q)
            .expect("an element's nodes reside on its PE");
        self.slot[self.first[v] + k]
    }

    /// PE `q`'s local stiffness from its own elements, in global element
    /// order.
    fn assemble<F: MaterialField>(
        &self,
        q: usize,
        mesh: &TetMesh,
        field: &F,
    ) -> Result<Bcsr3, DegenerateElement> {
        let conns: Vec<[usize; 4]> = self.elements[q]
            .iter()
            .map(|&e| mesh.elements()[e].map(|g| self.local(q, g)))
            .collect();
        let mut assembler = ElementAssembler::new(self.global_nodes[q].len(), &conns);
        for (&e, conn) in self.elements[q].iter().zip(&conns) {
            let mat = field.material(mesh, e);
            let ke = element_stiffness(&mesh.tetra(e), mat.lambda(), mat.mu())?;
            assembler.add_element(conn, &ke);
        }
        Ok(assembler.finish())
    }
}

/// Every PE's full local stiffness as assembly leaves it, before the half
/// storage conversion: the reference the expansion is checked against.
#[cfg(test)]
pub(crate) fn assembled_pes<F: MaterialField>(
    mesh: &TetMesh,
    partition: &Partition,
    field: &F,
) -> Vec<Bcsr3> {
    let residence = Residence::new(mesh, partition);
    (0..partition.parts())
        .map(|q| {
            residence
                .assemble(q, mesh, field)
                .expect("elements integrate")
        })
        .collect()
}

impl DistributedSystem {
    /// Builds local matrices and the exchange schedule from a partitioned
    /// mesh.
    ///
    /// PEs are assembled one at a time, each from its own elements in
    /// global element order, and each PE's full matrix is converted to
    /// half storage as it is released, so at most one is ever resident.
    ///
    /// # Errors
    ///
    /// Returns [`DegenerateElement`] if any element cannot be integrated.
    ///
    /// # Panics
    ///
    /// Panics if `partition` does not match `mesh`, or if a PE's matrix is
    /// not bitwise symmetric, which element stiffnesses and their
    /// assembly in element order guarantee.
    pub fn build<F: MaterialField>(
        mesh: &TetMesh,
        partition: &Partition,
        field: &F,
    ) -> Result<Self, DegenerateElement> {
        let mut residence = Residence::new(mesh, partition);
        let p = partition.parts();
        let n = mesh.node_count();
        let mut subdomains = Vec::with_capacity(p);
        for q in 0..p {
            let full = residence.assemble(q, mesh, field)?;
            let tiles = SymTiles::from_bcsr_owned(full)
                .unwrap_or_else(|e| panic!("PE {q} stiffness has no half storage: {e}"));
            subdomains.push(LocalSubdomain {
                global_nodes: std::mem::take(&mut residence.global_nodes[q]),
                stiffness: LocalStiffness(Arc::new(tiles)),
            });
        }
        // Exchange schedule: for every node shared by several PEs, each
        // unordered pair of sharers exchanges that node's values. Entries
        // are listed in node order; the stable sort groups them by pair and
        // keeps node order within each pair.
        let mut shared: Vec<((usize, usize), (usize, usize))> = Vec::new();
        for v in 0..n {
            let pes = partition.node_pes(v);
            let slots = &residence.slot[residence.first[v]..residence.first[v + 1]];
            for (ai, &a) in pes.iter().enumerate() {
                for (bi, &b) in pes.iter().enumerate().skip(ai + 1) {
                    shared.push(((a, b), (slots[ai], slots[bi])));
                }
            }
        }
        shared.sort_by_key(|&(pair, _)| pair);
        let exchanges: Vec<Exchange> = shared
            .chunk_by(|x, y| x.0 == y.0)
            .map(|run| Exchange {
                a: run[0].0 .0,
                b: run[0].0 .1,
                pairs: run.iter().map(|&(_, l)| l).collect(),
            })
            .collect();
        Ok(DistributedSystem {
            subdomains,
            exchanges,
            node_count: n,
        })
    }

    /// The per-PE subdomains.
    pub fn subdomains(&self) -> &[LocalSubdomain] {
        &self.subdomains
    }

    /// The pairwise exchange schedule (for the instrumented executor).
    pub(crate) fn exchanges(&self) -> &[Exchange] {
        &self.exchanges
    }

    /// Total mesh nodes of the global system.
    pub fn global_nodes(&self) -> usize {
        self.node_count
    }

    /// Number of PEs.
    pub fn parts(&self) -> usize {
        self.subdomains.len()
    }

    /// Words of one message between `a` and `b` (3 per shared node), or 0
    /// if they share nothing.
    pub fn message_words(&self, a: usize, b: usize) -> u64 {
        let key = (a.min(b), a.max(b));
        self.exchanges
            .iter()
            .find(|e| (e.a, e.b) == key)
            .map(|e| 3 * e.pairs.len() as u64)
            .unwrap_or(0)
    }

    /// Executes one distributed SMVP for a *global* input vector (one
    /// [`Vec3`] per mesh node) and returns the summed global result.
    ///
    /// The computation phase runs each PE's local product over its
    /// replicated `x` values, on the barrier schedule's half-storage kernel
    /// ([`LocalStiffness::spmv`]); the communication phase exchanges partial `y`
    /// sums pairwise and adds them, exactly as §2.3 describes.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the mesh node count.
    pub fn smvp(&self, x: &[Vec3]) -> Vec<Vec3> {
        assert_eq!(x.len(), self.node_count, "x length must match mesh nodes");
        // Computation phase: local products on replicated x, in place over
        // one reusable gather buffer.
        let mut partials: Vec<Vec<Vec3>> = self
            .subdomains
            .iter()
            .map(|sd| vec![Vec3::ZERO; sd.node_count()])
            .collect();
        let mut x_local: Vec<Vec3> = Vec::new();
        for (sd, part) in self.subdomains.iter().zip(partials.iter_mut()) {
            x_local.clear();
            x_local.extend(sd.global_nodes.iter().map(|&g| x[g]));
            sd.stiffness
                .spmv(&x_local, part)
                .expect("local dimensions consistent by construction");
        }
        // Communication phase: exchange original partials and sum. Snapshot
        // the partials first so multi-way shared nodes accumulate each
        // sharer's contribution exactly once.
        let snapshot = partials.clone();
        for ex in &self.exchanges {
            for &(la, lb) in &ex.pairs {
                partials[ex.a][la] += snapshot[ex.b][lb];
                partials[ex.b][lb] += snapshot[ex.a][la];
            }
        }
        // Fold replicated results into the global vector, checking that all
        // replicas agree.
        let mut y = vec![Vec3::ZERO; self.node_count];
        let mut written = vec![false; self.node_count];
        for (sd, part) in self.subdomains.iter().zip(&partials) {
            for (l, &g) in sd.global_nodes.iter().enumerate() {
                if written[g] {
                    debug_assert!(
                        (y[g] - part[l]).norm() <= 1e-9 * (1.0 + y[g].norm()),
                        "replicas disagree at node {g}"
                    );
                } else {
                    y[g] = part[l];
                    written[g] = true;
                }
            }
        }
        debug_assert!(written.iter().all(|&w| w), "every node resides somewhere");
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{AppConfig, QuakeApp};
    use quake_fem::assembly::{assemble, GroundMaterial, UniformMaterial};
    use quake_mesh::ground::Material;
    use quake_partition::comm::CommAnalysis;
    use quake_partition::geometric::{Partitioner, RecursiveBisection};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mat() -> Material {
        Material {
            vs: 1000.0,
            vp: 2000.0,
            rho: 2000.0,
        }
    }

    fn setup(parts: usize) -> (TetMesh, Partition, DistributedSystem) {
        let app = QuakeApp::generate(AppConfig::new("sf10", 10.0, 8.0)).unwrap();
        let partition = RecursiveBisection::inertial()
            .partition(&app.mesh, parts)
            .unwrap();
        let sys = DistributedSystem::build(&app.mesh, &partition, &UniformMaterial(mat())).unwrap();
        (app.mesh, partition, sys)
    }

    #[test]
    fn distributed_smvp_matches_sequential() {
        let (mesh, _, sys) = setup(8);
        let global = assemble(&mesh, &UniformMaterial(mat())).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<Vec3> = (0..mesh.node_count())
            .map(|_| Vec3::new(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let seq = global.stiffness.spmv_alloc(&x).unwrap();
        let dist = sys.smvp(&x);
        let scale: f64 = seq.iter().map(|v| v.norm()).fold(0.0, f64::max);
        for (i, (a, b)) in seq.iter().zip(&dist).enumerate() {
            assert!(
                (*a - *b).norm() <= 1e-10 * (1.0 + scale),
                "node {i}: sequential {a} vs distributed {b}"
            );
        }
    }

    #[test]
    fn global_and_subdomain_stiffness_are_bitwise_symmetric() {
        // The half-storage kernels reproduce the full product only on
        // bitwise-symmetric matrices with ascending rows; pin that for the
        // heterogeneous ground model and a uniform rock. `build` converts
        // every subdomain matrix itself and panics on an asymmetric one.
        let app = QuakeApp::generate(AppConfig::new("sf10", 10.0, 8.0)).unwrap();
        let ground = assemble(&app.mesh, &GroundMaterial(&app.ground)).unwrap();
        SymTiles::from_bcsr(&ground.stiffness).expect("global stiffness is bitwise symmetric");
        for parts in [4, 8] {
            let partition = RecursiveBisection::inertial()
                .partition(&app.mesh, parts)
                .unwrap();
            let systems = [
                DistributedSystem::build(&app.mesh, &partition, &GroundMaterial(&app.ground)),
                DistributedSystem::build(&app.mesh, &partition, &UniformMaterial(mat())),
            ];
            for sys in systems {
                let sys = sys.unwrap_or_else(|e| panic!("{parts} parts: {e}"));
                assert_eq!(sys.parts(), parts);
            }
        }
    }

    /// Asserts that two matrices hold the same words: structure and every
    /// block bit, signed zeros included.
    fn assert_same_matrix(got: &Bcsr3, want: &Bcsr3, what: &str) {
        assert_eq!(got.row_ptr(), want.row_ptr(), "{what}: row_ptr");
        assert_eq!(got.col_idx(), want.col_idx(), "{what}: col_idx");
        for (k, (a, b)) in got.blocks().iter().zip(want.blocks()).enumerate() {
            for (x, y) in a.m.iter().flatten().zip(b.m.iter().flatten()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: block {k}");
            }
        }
    }

    #[test]
    fn resident_half_storage_expands_to_the_assembled_subdomains() {
        let app = QuakeApp::generate(AppConfig::new("sf10", 10.0, 8.0)).unwrap();
        let field = GroundMaterial(&app.ground);
        let partition = RecursiveBisection::inertial()
            .partition(&app.mesh, 4)
            .unwrap();
        let sys = DistributedSystem::build(&app.mesh, &partition, &field).unwrap();
        let assembled = assembled_pes(&app.mesh, &partition, &field);
        let x: Vec<Vec3> = (0..app.mesh.node_count())
            .map(|i| Vec3::new((0.1 * i as f64).sin(), -0.5, 1.0 / (1.0 + i as f64)))
            .collect();
        for (q, (sd, full)) in sys.subdomains().iter().zip(&assembled).enumerate() {
            let what = format!("PE {q}");
            assert_same_matrix(&sd.stiffness.to_bcsr(), full, &what);
            let borrowed = SymTiles::from_bcsr(full).unwrap();
            assert_same_matrix(&borrowed.to_bcsr(), full, &format!("{what}, from_bcsr"));
            // The local product is the full matrix's, bit for bit.
            let xl: Vec<Vec3> = sd.global_nodes.iter().map(|&g| x[g]).collect();
            let want = full.spmv_alloc(&xl).unwrap();
            let mut got = vec![Vec3::ZERO; sd.node_count()];
            sd.stiffness.spmv(&xl, &mut got).unwrap();
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    [a.x, a.y, a.z].map(f64::to_bits),
                    [b.x, b.y, b.z].map(f64::to_bits),
                    "{what}, row {i}"
                );
            }
            assert!(matches!(
                sd.stiffness.spmv(&xl[1..], &mut got),
                Err(SparseError::DimensionMismatch { .. })
            ));
            assert!(matches!(
                sd.stiffness.spmv(&xl, &mut got[1..]),
                Err(SparseError::DimensionMismatch { .. })
            ));
        }
    }

    #[test]
    fn message_sizes_match_comm_analysis() {
        let (mesh, partition, sys) = setup(4);
        let analysis = CommAnalysis::new(&mesh, &partition);
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert_eq!(
                        sys.message_words(a, b),
                        analysis.traffic(a, b),
                        "traffic mismatch between {a} and {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn local_flops_match_comm_analysis() {
        let (mesh, partition, sys) = setup(4);
        let analysis = CommAnalysis::new(&mesh, &partition);
        for (q, sd) in sys.subdomains().iter().enumerate() {
            assert_eq!(
                sd.smvp_flops(),
                analysis.per_pe()[q].flops,
                "flop count mismatch on PE {q}"
            );
        }
    }

    #[test]
    fn single_pe_degenerates_to_sequential() {
        let (mesh, _, _) = setup(2);
        let partition = RecursiveBisection::inertial().partition(&mesh, 1).unwrap();
        let sys = DistributedSystem::build(&mesh, &partition, &UniformMaterial(mat())).unwrap();
        assert_eq!(sys.parts(), 1);
        assert_eq!(sys.message_words(0, 0), 0);
        let global = assemble(&mesh, &UniformMaterial(mat())).unwrap();
        let x = vec![Vec3::new(1.0, -1.0, 0.5); mesh.node_count()];
        let seq = global.stiffness.spmv_alloc(&x).unwrap();
        let dist = sys.smvp(&x);
        for (a, b) in seq.iter().zip(&dist) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }

    #[test]
    fn replication_counts() {
        let (mesh, partition, sys) = setup(8);
        let total_local: usize = sys.subdomains().iter().map(|s| s.node_count()).sum();
        let expected: usize = (0..mesh.node_count())
            .map(|v| partition.node_pes(v).len())
            .sum();
        assert_eq!(total_local, expected);
        assert!(
            total_local > mesh.node_count(),
            "shared nodes are replicated"
        );
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn wrong_x_length_panics() {
        let (_, _, sys) = setup(2);
        let _ = sys.smvp(&[Vec3::ZERO]);
    }
}

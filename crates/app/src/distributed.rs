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

use quake_fem::assembly::MaterialField;
use quake_fem::elasticity::{element_stiffness, DegenerateElement};
use quake_mesh::mesh::TetMesh;
use quake_partition::partition::Partition;
use quake_sparse::bcsr::{Bcsr3, ElementAssembler};
use quake_sparse::dense::Vec3;

/// One PE's share of the distributed system.
#[derive(Debug, Clone)]
pub struct LocalSubdomain {
    /// Sorted global ids of the nodes residing on this PE.
    pub global_nodes: Vec<usize>,
    /// Local stiffness matrix over local node indices (contributions from
    /// this PE's elements only).
    pub stiffness: Bcsr3,
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

impl DistributedSystem {
    /// Builds local matrices and the exchange schedule from a partitioned
    /// mesh.
    ///
    /// # Errors
    ///
    /// Returns [`DegenerateElement`] if any element cannot be integrated.
    ///
    /// # Panics
    ///
    /// Panics if `partition` does not match `mesh`.
    pub fn build<F: MaterialField>(
        mesh: &TetMesh,
        partition: &Partition,
        field: &F,
    ) -> Result<Self, DegenerateElement> {
        assert_eq!(
            partition.assignments().len(),
            mesh.element_count(),
            "partition does not match mesh"
        );
        let p = partition.parts();
        let n = mesh.node_count();
        // Local node lists (sorted because node ids ascend), and each
        // node's local index on every PE it resides on, in a table aligned
        // with `node_pes`: `slot[first[v] + k]` is v's index on
        // `node_pes(v)[k]`.
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
        let local = |q: usize, v: usize| {
            let pes = partition.node_pes(v);
            let k = pes
                .iter()
                .position(|&r| r == q)
                .expect("an element's nodes reside on its PE");
            slot[first[v] + k]
        };
        // Each PE's elements in local numbering, in global element order.
        let mut elements: Vec<Vec<[usize; 4]>> = vec![Vec::new(); p];
        for (conn, &q) in mesh.elements().iter().zip(partition.assignments()) {
            elements[q].push(conn.map(|g| local(q, g)));
        }
        // Local assembly from each PE's own elements, in element order.
        let mut assemblers: Vec<ElementAssembler> = global_nodes
            .iter()
            .zip(&elements)
            .map(|(nodes, elems)| ElementAssembler::new(nodes.len(), elems))
            .collect();
        let mut next = vec![0usize; p];
        for (e, &q) in partition.assignments().iter().enumerate() {
            let tet = mesh.tetra(e);
            let mat = field.material(mesh, e);
            let ke = element_stiffness(&tet, mat.lambda(), mat.mu())?;
            assemblers[q].add_element(&elements[q][next[q]], &ke);
            next[q] += 1;
        }
        let subdomains: Vec<LocalSubdomain> = assemblers
            .into_iter()
            .zip(global_nodes)
            .map(|(a, nodes)| LocalSubdomain {
                global_nodes: nodes,
                stiffness: a.finish(),
            })
            .collect();
        // Exchange schedule: for every node shared by several PEs, each
        // unordered pair of sharers exchanges that node's values. Entries
        // are listed in node order; the stable sort groups them by pair and
        // keeps node order within each pair.
        let mut shared: Vec<((usize, usize), (usize, usize))> = Vec::new();
        for v in 0..n {
            let pes = partition.node_pes(v);
            let slots = &slot[first[v]..first[v + 1]];
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
    /// replicated `x` values; the communication phase exchanges partial `y`
    /// sums pairwise and adds them, exactly as §2.3 describes.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the mesh node count.
    pub fn smvp(&self, x: &[Vec3]) -> Vec<Vec3> {
        assert_eq!(x.len(), self.node_count, "x length must match mesh nodes");
        // Computation phase: local products on replicated x, in place over
        // one reusable gather buffer (no per-subdomain spmv_alloc).
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
    use quake_sparse::tiles::SymTiles;
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
        // The half-storage executor kernel reproduces the full product
        // only on bitwise-symmetric matrices with ascending rows; pin that
        // for the heterogeneous ground model and a uniform rock.
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
                for (q, sd) in sys.unwrap().subdomains().iter().enumerate() {
                    SymTiles::from_bcsr(&sd.stiffness).unwrap_or_else(|e| {
                        panic!("PE {q} of {parts}: subdomain stiffness not bitwise symmetric: {e}")
                    });
                }
            }
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

//! Property-based tests on cross-crate invariants (proptest).

use proptest::prelude::*;
use quake_core::model::beta::{beta_bound, exact_comm_time, modeled_comm_time};
use quake_mesh::geometry::{insphere, orient3d, Tetra};
use quake_netsim::simulate::{simulate_comm_phase, SimOptions};
use quake_netsim::workload::Workload;
use quake_spark::bmv_sym_into;
use quake_sparse::bcsr::Bcsr3Builder;
use quake_sparse::dense::{Mat3, Vec3};
use quake_sparse::pattern::Pattern;
use quake_sparse::reorder::{permuted_bandwidth, rcm};
use quake_sparse::tiles::{LaneBlock, SymTiles};
use std::collections::BTreeSet;

fn vec3_strategy() -> impl Strategy<Value = Vec3> {
    (-10.0..10.0f64, -10.0..10.0f64, -10.0..10.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Half storage computes the same product as full storage, bit for bit:
    /// `SymTiles` accepts a bitwise-symmetric `Bcsr3` and `bmv_sym_into`
    /// reproduces `Bcsr3::spmv` on it.
    #[test]
    fn symmetric_storage_agrees(
        pairs in prop::collection::vec(
            (0usize..10, 0usize..10, prop::collection::vec(-4.0..4.0f64, 9)),
            0..40,
        ),
        x in prop::collection::vec(-3.0..3.0f64, 30),
    ) {
        let n = 10;
        let mut b = Bcsr3Builder::new(n);
        // One block per unordered position: a repeat would sum twice on
        // each side, and the two sums need not stay transposes bit for bit.
        let mut seen = BTreeSet::new();
        for (a, c, v) in pairs {
            if !seen.insert((a.min(c), a.max(c))) {
                continue;
            }
            let m = Mat3::new([[v[0], v[1], v[2]], [v[3], v[4], v[5]], [v[6], v[7], v[8]]]);
            b.add_block(a, c, m);
            if a != c {
                b.add_block(c, a, m.transpose());
            }
        }
        let full = b.build();
        let sym = SymTiles::from_bcsr(&full).expect("built bitwise symmetric");
        let x: Vec<Vec3> = x.chunks(3).map(|c| Vec3::new(c[0], c[1], c[2])).collect();
        let mut yf = vec![Vec3::ZERO; n];
        full.spmv(&x, &mut yf).expect("dims");
        let mut acc = vec![LaneBlock::default(); n];
        let mut ys = vec![Vec3::ZERO; n];
        bmv_sym_into(&sym, &x, &mut acc, &mut ys);
        for (a, b) in yf.iter().zip(&ys) {
            prop_assert_eq!(a.to_array().map(f64::to_bits), b.to_array().map(f64::to_bits));
        }
    }

    /// orient3d is antisymmetric under vertex swaps; insphere of the
    /// centroid of a non-degenerate tet is positive.
    #[test]
    fn geometric_predicates(
        a in vec3_strategy(), b in vec3_strategy(),
        c in vec3_strategy(), d in vec3_strategy(),
    ) {
        let o = orient3d(a, b, c, d);
        prop_assert!((orient3d(b, a, c, d) + o).abs() <= 1e-9 * (1.0 + o.abs()));
        let t = Tetra::new(a, b, c, d);
        if o.abs() > 1e-3 {
            // Orient positively, then the centroid must be inside the
            // circumsphere.
            let (p, q, r, s) = if o > 0.0 { (a, b, c, d) } else { (a, b, d, c) };
            prop_assert!(insphere(p, q, r, s, t.centroid()) > 0.0);
        }
    }

    /// RCM always yields a permutation and never increases the bandwidth of
    /// an already-banded path-like graph's natural order by more than the
    /// graph's diameter... more simply: output is a valid permutation and
    /// bandwidth is positive iff the graph has edges.
    #[test]
    fn rcm_yields_valid_permutation(
        edges in prop::collection::vec((0usize..30, 0usize..30), 0..80),
    ) {
        let filtered: Vec<(usize, usize)> =
            edges.into_iter().filter(|&(a, b)| a != b).collect();
        let p = Pattern::from_edges(30, &filtered).expect("bounded");
        let perm = rcm(&p);
        let mut seen = [false; 30];
        for &v in &perm {
            prop_assert!(v < 30);
            prop_assert!(!seen[v]);
            seen[v] = true;
        }
        let bw = permuted_bandwidth(&p, &perm);
        prop_assert_eq!(bw > 0, p.edge_count() > 0);
    }

    /// The β bound brackets the model overestimate for arbitrary loads and
    /// machine parameters.
    #[test]
    fn beta_brackets_model(
        loads in prop::collection::vec((1u64..10_000, 1u64..100), 1..32),
        t_l in 1e-9..1e-3f64,
        t_w in 1e-10..1e-6f64,
    ) {
        let beta = beta_bound(&loads);
        prop_assert!((1.0..=2.0).contains(&beta));
        let exact = exact_comm_time(&loads, t_l, t_w);
        let model = modeled_comm_time(&loads, t_l, t_w);
        prop_assert!(model >= exact * (1.0 - 1e-12));
        prop_assert!(model <= beta * exact * (1.0 + 1e-9));
    }

    /// The event-driven simulation never beats the busiest PE's serial
    /// lower bound, and always drains (no deadlock) for symmetric random
    /// workloads.
    #[test]
    fn netsim_respects_lower_bound(
        p in 4usize..20,
        words in 1u64..500,
        degree in 1usize..4,
        seed in 0u64..50,
    ) {
        let w = Workload::random_sparse(p, 1_000, words, degree.min(p - 1), seed);
        let t_l = 1e-6;
        let t_w = 10e-9;
        let sim = simulate_comm_phase(
            &w,
            &quake_core::machine::Network { name: "prop", t_l, t_w },
            SimOptions::default(),
        );
        let lower = w
            .pe_loads()
            .iter()
            .map(|&(c, b)| b as f64 * t_l + c as f64 * t_w)
            .fold(0.0, f64::max);
        prop_assert!(sim >= lower * (1.0 - 1e-12));
        // And a safe upper bound: even if every NI serialized into a single
        // chain (receive dependencies can idle NIs), the makespan cannot
        // exceed the total NI work across all PEs.
        let total: f64 = w
            .pe_loads()
            .iter()
            .map(|&(c, b)| b as f64 * t_l + c as f64 * t_w)
            .sum();
        prop_assert!(sim <= total + 1e-12);
    }

    /// Mesh pattern counts: block nnz = 2·edges + nodes, always.
    #[test]
    fn pattern_count_identity(
        edges in prop::collection::vec((0usize..25, 0usize..25), 0..80),
    ) {
        let filtered: Vec<(usize, usize)> =
            edges.into_iter().filter(|&(a, b)| a != b).collect();
        let p = Pattern::from_edges(25, &filtered).expect("bounded");
        prop_assert_eq!(p.block_nnz(), 2 * p.edge_count() + 25);
        prop_assert_eq!(p.smvp_flops(), 18 * p.block_nnz() as u64);
    }

    /// Delaunay on arbitrary (jittered) point sets: every tet positively
    /// oriented, every input point used, total volume bounded by the
    /// bounding box.
    #[test]
    fn delaunay_structural_invariants(
        pts in prop::collection::vec(
            (0.0..4.0f64, 0.0..4.0f64, 0.0..4.0f64), 8..40),
        jitter_seed in 0u64..1000,
    ) {
        use quake_mesh::delaunay::delaunay;
        use quake_mesh::geometry::{orient3d, Aabb, Tetra};
        // Jitter deterministically to avoid exact degeneracies the f64
        // predicates cannot resolve.
        let points: Vec<Vec3> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y, z))| {
                let h = (i as u64)
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(jitter_seed);
                let j = |k: u64| ((h >> (k * 16)) & 0xffff) as f64 / 65536.0 * 1e-3;
                Vec3::new(x + j(0), y + j(1), z + j(2))
            })
            .collect();
        let tri = delaunay(&points).expect("jittered input triangulates");
        let mut used = vec![false; tri.points.len()];
        let mut volume = 0.0;
        for tet in &tri.tets {
            let [a, b, c, d] = tet.map(|i| tri.points[i]);
            prop_assert!(orient3d(a, b, c, d) > 0.0, "negative tet");
            volume += Tetra::new(a, b, c, d).volume();
            for &v in tet {
                used[v] = true;
            }
        }
        prop_assert!(used.iter().all(|&u| u), "unused input point");
        let bbox = Aabb::from_points(&tri.points).expect("non-empty");
        prop_assert!(volume <= bbox.volume() * (1.0 + 1e-9));
    }

    /// Mesh text and binary IO round-trip arbitrary valid meshes.
    #[test]
    fn mesh_io_round_trips(
        coords in prop::collection::vec(
            (-100.0..100.0f64, -100.0..100.0f64, -100.0..100.0f64), 4..20),
        picks in prop::collection::vec((0usize..1000, 0usize..1000, 0usize..1000, 0usize..1000), 1..12),
    ) {
        use quake_mesh::io;
        use quake_mesh::mesh::TetMesh;
        let n = coords.len();
        let nodes: Vec<Vec3> = coords.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect();
        // Build elements with 4 distinct in-range node indices.
        let elements: Vec<[usize; 4]> = picks
            .iter()
            .filter_map(|&(a, b, c, d)| {
                let e = [a % n, b % n, c % n, d % n];
                let distinct = (0..4).all(|i| (i + 1..4).all(|j| e[i] != e[j]));
                distinct.then_some(e)
            })
            .collect();
        let mesh = TetMesh::new(nodes, elements).expect("validated above");
        // Text round trip.
        let mut buf = Vec::new();
        io::write_text(&mesh, &mut buf).expect("write");
        let text_back = io::read_text(std::io::BufReader::new(&buf[..])).expect("read");
        prop_assert_eq!(&text_back, &mesh);
        // Binary round trip.
        let bin_back = io::from_bytes(io::to_bytes(&mesh)).expect("decode");
        prop_assert_eq!(&bin_back, &mesh);
    }
}

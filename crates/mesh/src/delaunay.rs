//! Incremental 3D Delaunay tetrahedralization (Bowyer–Watson).
//!
//! The Quake meshes were produced by the Archimedes tool chain, whose mesh
//! generator is a Delaunay-refinement code. We reproduce the substrate from
//! scratch: points pre-sorted along a Morton (Z-order) curve for walk
//! locality, a deterministic face walk for point location, and cavity-based
//! Bowyer–Watson insertion. The builder keeps its cavity, stack, boundary
//! and edge-map buffers across insertions, so inserting a point allocates
//! nothing once the buffers have grown to the largest cavity.
//!
//! The predicates are plain `f64` filters, not exact arithmetic; callers are
//! expected to provide jittered (generic-position) input, which the graded
//! sampler in [`crate::sampling`] guarantees.

use crate::geometry::{insphere, orient3d, Aabb};
use quake_sparse::dense::Vec3;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Error produced when the triangulation cannot be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DelaunayError {
    /// Fewer than four input points, or all points degenerate.
    TooFewPoints(usize),
    /// Point location failed (numerically degenerate input).
    LocationFailed {
        /// Index of the point being inserted when location failed.
        point: usize,
    },
}

impl fmt::Display for DelaunayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DelaunayError::TooFewPoints(n) => {
                write!(
                    f,
                    "need at least 4 points for a tetrahedralization, got {n}"
                )
            }
            DelaunayError::LocationFailed { point } => {
                write!(f, "point location failed while inserting point {point}")
            }
        }
    }
}

impl Error for DelaunayError {}

const NONE: usize = usize::MAX;

/// One tetrahedron of the triangulation under construction.
#[derive(Debug, Clone, Copy)]
struct Tet {
    /// Vertex indices (positively oriented).
    v: [usize; 4],
    /// `nbr[i]` is the tet across the face opposite vertex `i` (`NONE` if
    /// on the boundary of the super-tet).
    nbr: [usize; 4],
    alive: bool,
}

/// The result of a tetrahedralization: vertices (in the, possibly reordered,
/// order used for insertion) and positively oriented tetrahedra indexing
/// them.
#[derive(Debug, Clone)]
pub struct Tetrahedralization {
    /// Vertex coordinates.
    pub points: Vec<Vec3>,
    /// Tetrahedra as quadruples of indices into `points`.
    pub tets: Vec<[usize; 4]>,
}

/// Builds the Delaunay tetrahedralization of `points`.
///
/// The input is internally sorted along a Morton curve; the returned
/// [`Tetrahedralization::points`] reflects that order (it is a permutation
/// of the input).
///
/// # Errors
///
/// Returns [`DelaunayError::TooFewPoints`] for fewer than 4 points and
/// [`DelaunayError::LocationFailed`] if point location fails, which indicates
/// degenerate (non-jittered) input.
///
/// # Examples
///
/// ```
/// use quake_mesh::delaunay::delaunay;
/// use quake_sparse::dense::Vec3;
/// let pts = vec![
///     Vec3::new(0.0, 0.0, 0.0),
///     Vec3::new(1.0, 0.0, 0.1),
///     Vec3::new(0.0, 1.0, 0.2),
///     Vec3::new(0.1, 0.2, 1.0),
///     Vec3::new(0.9, 0.8, 0.9),
/// ];
/// let t = delaunay(&pts)?;
/// assert!(t.tets.len() >= 2);
/// # Ok::<(), quake_mesh::delaunay::DelaunayError>(())
/// ```
pub fn delaunay(points: &[Vec3]) -> Result<Tetrahedralization, DelaunayError> {
    if points.len() < 4 {
        return Err(DelaunayError::TooFewPoints(points.len()));
    }
    let sorted = morton_sort(points);
    let mut t = Builder::new(&sorted);
    for i in 0..sorted.len() {
        t.insert(i + 4)?;
    }
    Ok(t.extract(sorted))
}

/// Sorts points along a Morton (Z-order) curve for insertion locality.
fn morton_sort(points: &[Vec3]) -> Vec<Vec3> {
    let bbox = Aabb::from_points(points).expect("non-empty");
    let ext = bbox.extent();
    let scale = |v: f64, lo: f64, e: f64| -> u64 {
        if e <= 0.0 {
            return 0;
        }
        let t = ((v - lo) / e).clamp(0.0, 1.0);
        (t * 1023.0) as u64
    };
    let mut keyed: Vec<(u64, Vec3)> = points
        .iter()
        .map(|&p| {
            let xi = scale(p.x, bbox.min.x, ext.x);
            let yi = scale(p.y, bbox.min.y, ext.y);
            let zi = scale(p.z, bbox.min.z, ext.z);
            (
                interleave3(xi) | interleave3(yi) << 1 | interleave3(zi) << 2,
                p,
            )
        })
        .collect();
    keyed.sort_by_key(|&(k, _)| k);
    keyed.into_iter().map(|(_, p)| p).collect()
}

/// Spreads the low 10 bits of `x` so consecutive bits are 3 apart.
fn interleave3(mut x: u64) -> u64 {
    x &= 0x3ff;
    x = (x | x << 16) & 0x30000ff;
    x = (x | x << 8) & 0x300f00f;
    x = (x | x << 4) & 0x30c30c3;
    x = (x | x << 2) & 0x9249249;
    x
}

/// Multiplicative hasher for the cavity's edge keys: the keys are small
/// vertex indices, so SipHash's flooding resistance buys nothing here.
#[derive(Default)]
struct EdgeHasher(u64);

impl Hasher for EdgeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Cavity edge `(lo, hi)` → the new tet and face index waiting for the
/// sibling that shares the edge.
type EdgeMap = HashMap<(usize, usize), (usize, usize), BuildHasherDefault<EdgeHasher>>;

struct Builder {
    /// All vertices: 4 super-tet vertices followed by the input points.
    verts: Vec<Vec3>,
    tets: Vec<Tet>,
    free: Vec<usize>,
    /// Hint: a live tet near the last insertion.
    last: usize,
    /// Scratch marks for cavity BFS (generation counting).
    mark: Vec<u64>,
    generation: u64,
    /// Per-insertion scratch, cleared and reused by every [`Builder::insert`]:
    /// the cavity's tets, the BFS stack, the boundary faces with their
    /// external neighbours, and the open edges of the cavity fill.
    cavity: Vec<usize>,
    stack: Vec<usize>,
    boundary: Vec<([usize; 3], usize)>,
    edges: EdgeMap,
}

impl Builder {
    fn new(points: &[Vec3]) -> Builder {
        let bbox = Aabb::from_points(points).expect("non-empty");
        let c = bbox.center();
        let s = bbox.longest_side().max(1e-9) * 1000.0;
        // A large regular-ish super-tet around the domain.
        let sv = [
            c + Vec3::new(0.0, 0.0, 3.0 * s),
            c + Vec3::new(-2.0 * s, -2.0 * s, -s),
            c + Vec3::new(2.0 * s, -2.0 * s, -s),
            c + Vec3::new(0.0, 2.5 * s, -s),
        ];
        let mut verts = sv.to_vec();
        verts.extend_from_slice(points);
        let mut v0 = [0usize, 1, 2, 3];
        if orient3d(verts[0], verts[1], verts[2], verts[3]) < 0.0 {
            v0.swap(2, 3);
        }
        let tets = vec![Tet {
            v: v0,
            nbr: [NONE; 4],
            alive: true,
        }];
        Builder {
            verts,
            tets,
            free: Vec::new(),
            last: 0,
            mark: vec![0],
            generation: 0,
            cavity: Vec::new(),
            stack: Vec::new(),
            boundary: Vec::new(),
            edges: EdgeMap::default(),
        }
    }

    /// Walks from the hint tet toward the tet containing vertex `p`: at
    /// each tet, crosses the first face (in the fixed order 0..4) that has
    /// `p` strictly on its far side, never stepping straight back into the
    /// tet it came from. Falls back to a scan of all live tets if the walk
    /// exceeds its step budget.
    fn locate(&self, p: usize) -> Option<usize> {
        let pt = self.verts[p];
        let mut cur = self.last;
        if !self.tets[cur].alive {
            cur = self.tets.iter().position(|t| t.alive)?;
        }
        let max_steps = 8 * (self.tets.len() + 64);
        let mut prev = NONE;
        for _ in 0..max_steps {
            let t = &self.tets[cur];
            let mut moved = false;
            for i in 0..4 {
                let f = face_opposite(&t.v, i);
                // Face is oriented so the opposite vertex is on the positive
                // side; if p is strictly on the negative side, cross it.
                let o = orient3d(self.verts[f[0]], self.verts[f[1]], self.verts[f[2]], pt);
                if o < 0.0 {
                    let next = t.nbr[i];
                    if next == NONE || next == prev {
                        continue;
                    }
                    prev = cur;
                    cur = next;
                    moved = true;
                    break;
                }
            }
            if !moved {
                return Some(cur);
            }
        }
        // Fall back to exhaustive search over live tets.
        (0..self.tets.len()).find(|&i| {
            self.tets[i].alive && {
                let v = self.tets[i].v;
                (0..4).all(|k| {
                    let f = face_opposite(&v, k);
                    orient3d(self.verts[f[0]], self.verts[f[1]], self.verts[f[2]], pt) >= 0.0
                })
            }
        })
    }

    /// True if vertex `p` lies strictly inside the circumsphere of tet `t`.
    fn in_circumsphere(&self, t: usize, p: usize) -> bool {
        let v = self.tets[t].v;
        insphere(
            self.verts[v[0]],
            self.verts[v[1]],
            self.verts[v[2]],
            self.verts[v[3]],
            self.verts[p],
        ) > 0.0
    }

    fn insert(&mut self, p: usize) -> Result<(), DelaunayError> {
        let start = self
            .locate(p)
            .ok_or(DelaunayError::LocationFailed { point: p })?;
        // Grow the cavity: all connected tets whose circumsphere contains p.
        self.generation += 1;
        let gen = self.generation;
        let mut cavity = std::mem::take(&mut self.cavity);
        let mut stack = std::mem::take(&mut self.stack);
        let mut boundary = std::mem::take(&mut self.boundary);
        let mut edges = std::mem::take(&mut self.edges);
        cavity.clear();
        edges.clear();
        cavity.push(start);
        self.mark[start] = gen;
        stack.push(start);
        while let Some(t) = stack.pop() {
            for i in 0..4 {
                let n = self.tets[t].nbr[i];
                if n != NONE
                    && self.mark[n] != gen
                    && self.tets[n].alive
                    && self.in_circumsphere(n, p)
                {
                    self.mark[n] = gen;
                    cavity.push(n);
                    stack.push(n);
                }
            }
        }
        // Collect boundary faces: (face vertices, external neighbor).
        boundary.clear();
        for &t in &cavity {
            for i in 0..4 {
                let n = self.tets[t].nbr[i];
                let external = n == NONE || self.mark[n] != gen;
                if external {
                    let f = face_opposite(&self.tets[t].v, i);
                    boundary.push((f, n));
                }
            }
        }
        // Kill cavity tets.
        for &t in &cavity {
            self.tets[t].alive = false;
            self.free.push(t);
        }
        // Create one new tet per boundary face, oriented positively.
        let mut newest = NONE;
        for &(f, ext) in &boundary {
            let [a, b, c] = f;
            let mut v = [p, a, b, c];
            if orient3d(
                self.verts[v[0]],
                self.verts[v[1]],
                self.verts[v[2]],
                self.verts[v[3]],
            ) < 0.0
            {
                v.swap(2, 3);
            }
            let idx = self.alloc(Tet {
                v,
                nbr: [NONE; 4],
                alive: true,
            });
            newest = idx;
            // Link across the boundary face (opposite vertex p = index 0).
            self.tets[idx].nbr[0] = ext;
            if ext != NONE {
                // The shared face of ext is the one opposite its only vertex
                // not on the face; point that face here.
                let ev = self.tets[ext].v;
                let i = (0..4)
                    .find(|&i| !f.contains(&ev[i]))
                    .expect("external neighbour shares the boundary face");
                self.tets[ext].nbr[i] = idx;
            }
            // Link the three faces incident to p with sibling new tets via
            // the shared boundary edge. Each such face starts with p (see
            // `face_opposite`); its other two vertices form an edge of the
            // cavity boundary shared with exactly one sibling.
            let tv = self.tets[idx].v;
            for i in 1..4 {
                let [_, x, y] = face_opposite(&tv, i);
                let key = (x.min(y), x.max(y));
                match edges.remove(&key) {
                    None => {
                        edges.insert(key, (idx, i));
                    }
                    Some((other, oi)) => {
                        self.tets[idx].nbr[i] = other;
                        self.tets[other].nbr[oi] = idx;
                    }
                }
            }
        }
        debug_assert!(edges.is_empty(), "unmatched internal faces in cavity fill");
        assert_ne!(newest, NONE, "cavity has boundary faces");
        self.last = newest;
        self.cavity = cavity;
        self.stack = stack;
        self.boundary = boundary;
        self.edges = edges;
        Ok(())
    }

    fn alloc(&mut self, t: Tet) -> usize {
        if let Some(i) = self.free.pop() {
            self.tets[i] = t;
            i
        } else {
            self.tets.push(t);
            self.mark.push(0);
            self.tets.len() - 1
        }
    }

    fn extract(self, points: Vec<Vec3>) -> Tetrahedralization {
        let mut tets = Vec::new();
        for t in &self.tets {
            if t.alive && t.v.iter().all(|&v| v >= 4) {
                tets.push([t.v[0] - 4, t.v[1] - 4, t.v[2] - 4, t.v[3] - 4]);
            }
        }
        Tetrahedralization { points, tets }
    }
}

/// The face opposite vertex `i`, ordered so that vertex `i` is on its
/// positive side for a positively oriented tet.
#[inline]
fn face_opposite(v: &[usize; 4], i: usize) -> [usize; 3] {
    // For positively oriented (v0, v1, v2, v3):
    //   face opp 0: (v1, v3, v2), opp 1: (v0, v2, v3),
    //   face opp 2: (v0, v3, v1), opp 3: (v0, v1, v2).
    match i {
        0 => [v[1], v[3], v[2]],
        1 => [v[0], v[2], v[3]],
        2 => [v[0], v[3], v[1]],
        3 => [v[0], v[1], v[2]],
        _ => unreachable!("face index out of range"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Tetra;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Vec3::new(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    /// Brute-force check of the Delaunay empty-circumsphere property.
    fn check_delaunay(t: &Tetrahedralization, tol: f64) {
        for tet in &t.tets {
            let [a, b, c, d] = tet.map(|i| t.points[i]);
            assert!(
                orient3d(a, b, c, d) > 0.0,
                "tet {tet:?} not positively oriented"
            );
            let (center, r) = Tetra::new(a, b, c, d)
                .circumsphere()
                .expect("non-degenerate");
            for (i, &p) in t.points.iter().enumerate() {
                if tet.contains(&i) {
                    continue;
                }
                let dist = (p - center).norm();
                assert!(
                    dist >= r * (1.0 - tol),
                    "point {i} at distance {dist} violates circumsphere r={r} of {tet:?}"
                );
            }
        }
    }

    #[test]
    fn too_few_points_errors() {
        assert!(matches!(
            delaunay(&random_points(3, 1)),
            Err(DelaunayError::TooFewPoints(3))
        ));
    }

    #[test]
    fn five_points_delaunay() {
        let pts = random_points(5, 42);
        let t = delaunay(&pts).unwrap();
        assert!(!t.tets.is_empty());
        check_delaunay(&t, 1e-9);
    }

    #[test]
    fn fifty_points_delaunay_property() {
        let t = delaunay(&random_points(50, 7)).unwrap();
        check_delaunay(&t, 1e-9);
    }

    #[test]
    fn two_hundred_points_delaunay_property() {
        let t = delaunay(&random_points(200, 3)).unwrap();
        check_delaunay(&t, 1e-9);
    }

    #[test]
    fn hull_volume_matches_sum_of_tets() {
        // The union of tets is the convex hull; compare total volume with a
        // Monte-Carlo estimate of the hull volume using containment in tets.
        let pts = random_points(100, 9);
        let t = delaunay(&pts).unwrap();
        let total: f64 = t
            .tets
            .iter()
            .map(|&tet| {
                let [a, b, c, d] = tet.map(|i| t.points[i]);
                Tetra::new(a, b, c, d).volume()
            })
            .sum();
        // Hull of 100 uniform points in the unit cube has volume well above
        // 0.6 and at most 1.
        assert!(total > 0.6 && total <= 1.0 + 1e-9, "total = {total}");
    }

    #[test]
    fn tets_partition_points_consistently() {
        let pts = random_points(80, 11);
        let t = delaunay(&pts).unwrap();
        // Every input point appears in at least one tet.
        let mut used = vec![false; t.points.len()];
        for tet in &t.tets {
            for &v in tet {
                used[v] = true;
            }
        }
        assert!(
            used.iter().all(|&u| u),
            "every point must be a vertex of some tet"
        );
    }

    #[test]
    fn grid_with_jitter_works() {
        // Near-degenerate grids are the nasty case; jitter keeps predicates
        // decisive. This mimics what the graded sampler produces.
        let mut rng = StdRng::seed_from_u64(5);
        let mut pts = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                for k in 0..5 {
                    pts.push(Vec3::new(
                        i as f64 + rng.gen::<f64>() * 0.2,
                        j as f64 + rng.gen::<f64>() * 0.2,
                        k as f64 + rng.gen::<f64>() * 0.2,
                    ));
                }
            }
        }
        let t = delaunay(&pts).unwrap();
        check_delaunay(&t, 1e-7);
        assert!(
            t.tets.len() > 300,
            "5x5x5 jittered grid should yield many tets"
        );
    }

    #[test]
    fn morton_sort_is_permutation() {
        let pts = random_points(64, 2);
        let sorted = morton_sort(&pts);
        assert_eq!(sorted.len(), pts.len());
        let sum_in: f64 = pts.iter().map(|p| p.x + p.y + p.z).sum();
        let sum_out: f64 = sorted.iter().map(|p| p.x + p.y + p.z).sum();
        assert!((sum_in - sum_out).abs() < 1e-9);
    }

    #[test]
    fn interleave_bits() {
        assert_eq!(interleave3(0b1), 0b1);
        assert_eq!(interleave3(0b11), 0b1001);
        assert_eq!(interleave3(0b101), 0b1000001);
    }

    #[test]
    fn display_of_errors() {
        assert!(DelaunayError::TooFewPoints(2)
            .to_string()
            .contains("4 points"));
        assert!(DelaunayError::LocationFailed { point: 7 }
            .to_string()
            .contains("point 7"));
    }
}

//! Node reordering for cache locality: reverse Cuthill–McKee (RCM).
//!
//! The paper attributes the low sustained MFLOPS of irregular codes to
//! "irregular memory reference patterns". RCM reduces the bandwidth of the
//! stiffness matrix so that the gather of `x[col]` during the SMVP touches a
//! compact window of the vector. The `quake-memsim` crate quantifies the
//! effect.

use crate::pattern::Pattern;
use std::collections::VecDeque;

/// Computes a reverse Cuthill–McKee ordering of the pattern's node graph.
///
/// Returns `perm` with `perm[old] = new`. Disconnected components are each
/// ordered from a pseudo-peripheral start node; components are processed in
/// ascending order of their lowest-numbered node.
///
/// # Examples
///
/// ```
/// use quake_sparse::pattern::Pattern;
/// use quake_sparse::reorder::rcm;
/// let p = Pattern::from_edges(4, &[(0, 3), (3, 1), (1, 2)])?;
/// let perm = rcm(&p);
/// assert_eq!(perm.len(), 4);
/// # Ok::<(), quake_sparse::error::SparseError>(())
/// ```
pub fn rcm(pattern: &Pattern) -> Vec<usize> {
    let n = pattern.node_count();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    for start in 0..n {
        if visited[start] {
            continue;
        }
        let root = pseudo_peripheral(pattern, start, &visited);
        // Standard Cuthill–McKee BFS with neighbors sorted by degree.
        let mut queue = VecDeque::new();
        queue.push_back(root);
        visited[root] = true;
        while let Some(u) = queue.pop_front() {
            order.push(u);
            let mut nbrs: Vec<usize> = pattern
                .neighbors(u)
                .iter()
                .copied()
                .filter(|&v| v != u && !visited[v])
                .collect();
            nbrs.sort_unstable_by_key(|&v| pattern.degree(v));
            for v in nbrs {
                visited[v] = true;
                queue.push_back(v);
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    // Reverse to get RCM; convert order list to perm[old] = new.
    let mut perm = vec![0usize; n];
    for (new, &old) in order.iter().rev().enumerate() {
        perm[old] = new;
    }
    perm
}

/// Finds an approximate pseudo-peripheral node of the component containing
/// `start`, restricted to unvisited nodes: repeated BFS keeping the farthest
/// minimum-degree node of the last level.
fn pseudo_peripheral(pattern: &Pattern, start: usize, visited: &[bool]) -> usize {
    let mut root = start;
    let mut last_ecc = 0usize;
    for _ in 0..8 {
        let (levels, ecc) = bfs_levels(pattern, root, visited);
        if ecc <= last_ecc {
            break;
        }
        last_ecc = ecc;
        // Pick minimum-degree node in the last level.
        let far: Vec<usize> = levels
            .iter()
            .enumerate()
            .filter_map(|(v, &l)| (l == Some(ecc)).then_some(v))
            .collect();
        root = far
            .into_iter()
            .min_by_key(|&v| pattern.degree(v))
            .unwrap_or(root);
    }
    root
}

fn bfs_levels(pattern: &Pattern, root: usize, visited: &[bool]) -> (Vec<Option<usize>>, usize) {
    let n = pattern.node_count();
    let mut level: Vec<Option<usize>> = vec![None; n];
    level[root] = Some(0);
    let mut queue = VecDeque::new();
    queue.push_back(root);
    let mut ecc = 0usize;
    while let Some(u) = queue.pop_front() {
        let lu = level[u].expect("queued nodes have levels");
        ecc = ecc.max(lu);
        for &v in pattern.neighbors(u) {
            if v != u && !visited[v] && level[v].is_none() {
                level[v] = Some(lu + 1);
                queue.push_back(v);
            }
        }
    }
    (level, ecc)
}

/// Pattern bandwidth under a permutation `perm[old] = new`:
/// `max |perm[i] − perm[j]|` over all edges.
///
/// # Panics
///
/// Panics if `perm.len() != pattern.node_count()`.
pub fn permuted_bandwidth(pattern: &Pattern, perm: &[usize]) -> usize {
    assert_eq!(
        perm.len(),
        pattern.node_count(),
        "perm length must equal node count"
    );
    pattern
        .edges()
        .map(|(i, j)| perm[i].abs_diff(perm[j]))
        .max()
        .unwrap_or(0)
}

/// The identity permutation of length `n`.
pub fn identity_perm(n: usize) -> Vec<usize> {
    (0..n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_permutation(p: &[usize]) -> bool {
        let mut seen = vec![false; p.len()];
        for &v in p {
            if v >= p.len() || seen[v] {
                return false;
            }
            seen[v] = true;
        }
        true
    }

    #[test]
    fn rcm_is_a_permutation() {
        let p = Pattern::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]).unwrap();
        let perm = rcm(&p);
        assert!(is_permutation(&perm));
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_path() {
        // A path graph whose identity numbering is scrambled: RCM should
        // recover near-optimal bandwidth 1.
        let edges = [
            (0usize, 7usize),
            (7, 3),
            (3, 9),
            (9, 1),
            (1, 8),
            (8, 4),
            (4, 6),
            (6, 2),
            (2, 5),
        ];
        let p = Pattern::from_edges(10, &edges).unwrap();
        let before = permuted_bandwidth(&p, &identity_perm(10));
        let perm = rcm(&p);
        let after = permuted_bandwidth(&p, &perm);
        assert!(
            after < before,
            "RCM should shrink bandwidth ({after} !< {before})"
        );
        assert_eq!(after, 1, "a path graph has optimal bandwidth 1");
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        let p = Pattern::from_edges(5, &[(0, 1), (3, 4)]).unwrap();
        let perm = rcm(&p);
        assert!(is_permutation(&perm));
    }

    #[test]
    fn rcm_empty_graph() {
        let p = Pattern::from_edges(0, &[]).unwrap();
        assert!(rcm(&p).is_empty());
    }

    #[test]
    fn rcm_single_node() {
        let p = Pattern::from_edges(1, &[]).unwrap();
        assert_eq!(rcm(&p), vec![0]);
    }

    #[test]
    fn bandwidth_of_grid_improves_or_ties() {
        // 4x4 grid graph, row-major numbering (already decent: bw 4).
        let mut edges = Vec::new();
        let idx = |r: usize, c: usize| r * 4 + c;
        for r in 0..4 {
            for c in 0..4 {
                if c + 1 < 4 {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < 4 {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        let p = Pattern::from_edges(16, &edges).unwrap();
        let before = permuted_bandwidth(&p, &identity_perm(16));
        let after = permuted_bandwidth(&p, &rcm(&p));
        assert!(after <= before);
    }

    #[test]
    #[should_panic(expected = "perm length")]
    fn permuted_bandwidth_length_mismatch_panics() {
        let p = Pattern::from_edges(3, &[(0, 1)]).unwrap();
        let _ = permuted_bandwidth(&p, &[0, 1]);
    }
}

//! SMVP address-trace generation and sustained-`T_f` estimation.
//!
//! The paper observes that irregular codes sustain only a small fraction of
//! peak ("approximately 70 MFLOPS … only 12% of the peak rated performance
//! of 600 MFLOPS") because of irregular memory references and data too large
//! for cache. This module replays the demand reference stream of the local
//! SMVP the program runs, the half-storage sweep over a [`SymTiles`] stream
//! (`bmv_sym_rows_into` in `quake-spark`), through the cache model to
//! *derive* that effect rather than assume it. The sweep streams each upper
//! 3×3 tile once, gathers `x[j]` for it and scatters its transposed product
//! into `acc[j]`, so the replay measures both the stream's footprint and
//! the irregularity of its gathers and scatters.

use crate::hierarchy::Hierarchy;
use quake_sparse::tiles::{SymTiles, TILE_LANES};

/// Bytes of one `f64` word, the unit every reference loads or stores.
const WORD_BYTES: u64 = 8;
/// Bytes of one `usize` row pointer.
const ROW_PTR_BYTES: u64 = 8;
/// Bytes of one `u32` tile column.
const COL_BYTES: u64 = 4;
/// Bytes of one 3×3 tile, nine words.
const TILE_BYTES: u64 = TILE_LANES as u64 * WORD_BYTES;
/// Bytes of one `Vec3` entry of `x` and `out`.
const VEC3_BYTES: u64 = 24;
/// Bytes of one `LaneBlock` entry of the scatter accumulator `acc`.
const LANE_BLOCK_BYTES: u64 = 32;

/// Base addresses for arrays of `bytes` laid out back to back, each
/// starting on its own 4 KiB page.
pub(crate) fn page_aligned<const N: usize>(bytes: [u64; N]) -> [u64; N] {
    let page = 4096u64;
    let mut next = 0;
    bytes.map(|len| {
        let base = next;
        next = (base + len).div_ceil(page) * page;
        base
    })
}

/// Accesses the `words` consecutive words from `addr` on.
fn access_words(hierarchy: &mut Hierarchy, addr: u64, words: u64) {
    for w in 0..words {
        hierarchy.access(addr + w * WORD_BYTES);
    }
}

/// Replays one half-storage SMVP over every row of `sym` through
/// `hierarchy` and returns the memory time in seconds.
///
/// The stream is one reference per word the kernel's scalar path loads or
/// stores (the AVX path performs the same operations lane-wise), with no
/// prefetch:
/// * per row `i`: its row pointer, `x[i]`, the three lanes of `acc[i]`
///   and, last, the store of `out[i]`;
/// * per upper tile: its `u32` column `j`, its nine value words and `x[j]`;
/// * per off-diagonal tile, also: the read-modify-write of `acc[j]`, a
///   load and a store of each of its three lanes.
pub fn replay_smvp(sym: &SymTiles, hierarchy: &mut Hierarchy) -> f64 {
    let upper = sym.upper();
    let (row_ptr, col_idx) = (upper.row_ptr(), upper.col_idx());
    let (n, tiles) = (upper.block_rows() as u64, upper.block_nnz() as u64);
    let [ptr_base, col_base, tile_base, x_base, acc_base, out_base] = page_aligned([
        (n + 1) * ROW_PTR_BYTES,
        tiles * COL_BYTES,
        tiles * TILE_BYTES,
        n * VEC3_BYTES,
        n * LANE_BLOCK_BYTES,
        n * VEC3_BYTES,
    ]);
    let before = hierarchy.total_time();
    for i in 0..upper.block_rows() {
        hierarchy.access(ptr_base + (i as u64 + 1) * ROW_PTR_BYTES);
        access_words(hierarchy, x_base + i as u64 * VEC3_BYTES, 3);
        access_words(hierarchy, acc_base + i as u64 * LANE_BLOCK_BYTES, 3);
        for k in row_ptr[i]..row_ptr[i + 1] {
            let j = col_idx[k] as u64;
            hierarchy.access(col_base + k as u64 * COL_BYTES);
            access_words(hierarchy, tile_base + k as u64 * TILE_BYTES, 9);
            access_words(hierarchy, x_base + j * VEC3_BYTES, 3);
            if j != i as u64 {
                for w in 0..3 {
                    let lane = acc_base + j * LANE_BLOCK_BYTES + w * WORD_BYTES;
                    hierarchy.access(lane);
                    hierarchy.access(lane);
                }
            }
        }
        access_words(hierarchy, out_base + i as u64 * VEC3_BYTES, 3);
    }
    hierarchy.total_time() - before
}

/// The sustained-`T_f` estimate for repeated SMVPs with one matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TfEstimate {
    /// Effective seconds per flop including memory time.
    pub t_f: f64,
    /// Sustained MFLOPS (`1e-6 / t_f`).
    pub mflops: f64,
    /// Fraction of the measured passes' references that reached main
    /// memory.
    pub memory_fraction: f64,
}

/// Estimates sustained `T_f` by replaying `iterations` SMVPs with `sym`
/// (after one more that warms the cache and is discarded, matching
/// steady-state measurement) and combining memory time with `flop_time`
/// per flop of raw arithmetic. Flops are [`SymTiles::smvp_flops`], those
/// of the full product, so `t_f` is per flop of the full product.
///
/// # Panics
///
/// Panics if `iterations == 0` or the matrix is empty.
pub fn estimate_tf(
    sym: &SymTiles,
    hierarchy: &mut Hierarchy,
    flop_time: f64,
    iterations: u32,
) -> TfEstimate {
    assert!(iterations > 0, "need at least one measured iteration");
    assert!(sym.block_nnz() > 0, "matrix has no work");
    // Warm-up pass.
    replay_smvp(sym, hierarchy);
    let (before_accesses, before_memory) = (hierarchy.accesses(), hierarchy.counts().2);
    let mut mem_time = 0.0;
    for _ in 0..iterations {
        mem_time += replay_smvp(sym, hierarchy);
    }
    mem_time /= iterations as f64;
    let measured = hierarchy.accesses() - before_accesses;
    let flops = sym.smvp_flops() as f64;
    let t_f = (mem_time + flops * flop_time) / flops;
    TfEstimate {
        t_f,
        mflops: 1e-6 / t_f,
        memory_fraction: (hierarchy.counts().2 - before_memory) as f64 / measured as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quake_sparse::bcsr::Bcsr3Builder;
    use quake_sparse::dense::Mat3;
    use quake_sparse::pattern::Pattern;
    use quake_sparse::reorder::{permuted_bandwidth, rcm};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Half storage for the symmetric block matrix with a diagonal block in
    /// every row and a mirrored pair of blocks for each of `edges`. The
    /// replay reads addresses only, so every block is the identity.
    fn symmetric(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> SymTiles {
        let mut b = Bcsr3Builder::new(n);
        for r in 0..n {
            b.add_block(r, r, Mat3::identity());
        }
        for (r, c) in edges {
            if r != c {
                b.add_block(r, c, Mat3::identity());
                b.add_block(c, r, Mat3::identity());
            }
        }
        SymTiles::from_bcsr(&b.build()).expect("built bitwise symmetric")
    }

    /// A banded matrix: the cache-friendly extreme.
    fn banded(n: usize, band: usize) -> SymTiles {
        symmetric(
            n,
            (0..n).flat_map(|r| (r + 1..(r + band + 1).min(n)).map(move |c| (r, c))),
        )
    }

    /// A random matrix: the cache-hostile extreme.
    fn scattered(n: usize, per_row: usize, seed: u64) -> SymTiles {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<_> = (0..n)
            .flat_map(|r| (0..per_row).map(move |_| r))
            .map(|r| (r, rng.gen_range(0..n)))
            .collect();
        symmetric(n, edges)
    }

    #[test]
    fn replay_counts_every_reference() {
        // Row 0 holds no tile, rows 3 and 4 only their diagonal.
        let mut b = Bcsr3Builder::new(5);
        for r in 1..5 {
            b.add_block(r, r, Mat3::identity());
        }
        for (r, c) in [(2, 4), (2, 3), (4, 1)] {
            b.add_block(r, c, Mat3::identity());
            b.add_block(c, r, Mat3::identity());
        }
        let sym = SymTiles::from_bcsr(&b.build()).unwrap();
        for m in [&sym, &banded(100, 2), &scattered(300, 3, 5)] {
            let upper = m.upper();
            let (n, tiles) = (upper.block_rows() as u64, upper.block_nnz() as u64);
            let diagonal = (0..upper.block_rows())
                .filter(|&i| {
                    let cols = &upper.col_idx()[upper.row_ptr()[i]..upper.row_ptr()[i + 1]];
                    cols.contains(&(i as u32))
                })
                .count() as u64;
            let mut h = Hierarchy::alpha_21164_like();
            replay_smvp(m, &mut h);
            // Per row: row pointer, x[i], acc[i], out[i]. Per tile: column,
            // nine words, x[j]. Per off-diagonal tile: acc[j] loaded and
            // stored, three lanes each.
            let expect = 10 * n + 13 * tiles + 6 * (tiles - diagonal);
            assert_eq!(h.accesses(), expect);
        }
        assert_eq!(sym.upper().block_nnz(), 7);
        let mut h = Hierarchy::alpha_21164_like();
        replay_smvp(&sym, &mut h);
        assert_eq!(h.accesses(), 10 * 5 + 13 * 7 + 6 * 3);
    }

    #[test]
    fn memory_fraction_counts_only_the_measured_passes() {
        // 48 rows, band 2: eight pages of arrays, within the 32 KiB over
        // which the 96 KiB 3-way L2 gives each line its own set, so the
        // warm stream never leaves L2.
        let m = banded(48, 2);
        let mut h = Hierarchy::alpha_21164_like();
        let est = estimate_tf(&m, &mut h, 1.0 / 300e6, 2);
        assert!(h.counts().2 > 0, "the warm-up pass misses cold");
        assert_eq!(est.memory_fraction, 0.0);
        // A hierarchy used before reports the same fraction.
        let est2 = estimate_tf(&m, &mut h, 1.0 / 300e6, 2);
        assert_eq!(est2.memory_fraction, 0.0);
    }

    #[test]
    fn banded_sustains_more_than_scattered() {
        let n = 8_000;
        let cycle = 1.0 / 300e6;
        let mut h1 = Hierarchy::alpha_21164_like();
        let banded_est = estimate_tf(&banded(n, 6), &mut h1, cycle, 1);
        let mut h2 = Hierarchy::alpha_21164_like();
        let scattered_est = estimate_tf(&scattered(n, 6, 1), &mut h2, cycle, 1);
        // Both stream the same 72-byte tiles in order, and those dominate
        // the references, so the gathers and scatters alone separate them.
        assert!(
            banded_est.mflops > 1.3 * scattered_est.mflops,
            "banded {} vs scattered {} MFLOPS",
            banded_est.mflops,
            scattered_est.mflops
        );
        assert!(scattered_est.memory_fraction > banded_est.memory_fraction);
    }

    #[test]
    fn sustained_is_far_below_peak_for_irregular_access() {
        // The paper's qualitative claim: irregular SMVPs run at a small
        // fraction of peak. Peak here = 1 flop per cycle = 300 MFLOPS.
        let cycle = 1.0 / 300e6;
        let mut h = Hierarchy::alpha_21164_like();
        let est = estimate_tf(&scattered(10_000, 6, 2), &mut h, cycle, 1);
        let peak_mflops = 300.0;
        assert!(
            est.mflops < 0.35 * peak_mflops,
            "sustained {} MFLOPS is not ≪ peak {peak_mflops}",
            est.mflops
        );
        assert!(est.mflops > 5.0, "sanity: {} MFLOPS", est.mflops);
    }

    #[test]
    fn rcm_reordering_does_not_hurt_the_sustained_rate() {
        // A random geometric-ish graph, natural vs RCM order.
        let n = 4_000;
        let mut rng = StdRng::seed_from_u64(7);
        let mut edges = Vec::new();
        for i in 0..n {
            for _ in 0..6 {
                // Mostly-local neighbors, scrambled indices.
                let j = (i + rng.gen_range(1..200)) % n;
                if i != j {
                    edges.push((i.min(j), i.max(j)));
                }
            }
        }
        let pattern = Pattern::from_edges(n, &edges).unwrap();
        let natural: Vec<usize> = (0..n).collect();
        let perm = rcm(&pattern);
        assert!(permuted_bandwidth(&pattern, &perm) <= permuted_bandwidth(&pattern, &natural));
        let ordered = |p: &[usize]| symmetric(n, pattern.edges().map(|(a, b)| (p[a], p[b])));
        let cycle = 1.0 / 300e6;
        let mut h1 = Hierarchy::alpha_21164_like();
        let nat = estimate_tf(&ordered(&natural), &mut h1, cycle, 1);
        let mut h2 = Hierarchy::alpha_21164_like();
        let ord = estimate_tf(&ordered(&perm), &mut h2, cycle, 1);
        assert!(
            ord.mflops >= nat.mflops * 0.95,
            "RCM should not hurt: {} vs {}",
            ord.mflops,
            nat.mflops
        );
    }

    #[test]
    fn estimate_is_deterministic() {
        let m = banded(2_000, 4);
        let cycle = 1.0 / 300e6;
        let mut h1 = Hierarchy::alpha_21164_like();
        let a = estimate_tf(&m, &mut h1, cycle, 2);
        let mut h2 = Hierarchy::alpha_21164_like();
        let b = estimate_tf(&m, &mut h2, cycle, 2);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_iterations_panics() {
        let m = banded(10, 1);
        let mut h = Hierarchy::alpha_21164_like();
        let _ = estimate_tf(&m, &mut h, 1e-9, 0);
    }
}

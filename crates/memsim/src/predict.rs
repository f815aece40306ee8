//! Predicted miss-rate deltas for the BCSR microkernel transforms.
//!
//! ROADMAP item 4 asks for the cache model to earn its keep: before a
//! layout or prefetch transform is implemented in the kernels, replay its
//! exact reference stream under the hierarchy and *predict* the miss-rate
//! change, then record prediction next to measurement in EXPERIMENTS.md.
//! This module replays the block-SMVP trace of [`Bcsr3Tiles`] under three
//! successive transforms:
//!
//! 1. **`mat3-baseline`** — PR 5's register-blocked kernel: row-major
//!    72-byte `Mat3` blocks and 8-byte block-column indices.
//! 2. **`tiled`** — the flat SIMD tile stream: same 72 bytes of values per
//!    block (column-major, sequentially streamed) but 4-byte indices.
//! 3. **`tiled-prefetch`** — plus the kernel's software prefetch of the
//!    gather target and tile stream a few tiles ahead.
//!
//! Prefetches install lines without charging demand counters or time
//! ([`Hierarchy::prefetch`]): the model assumes fills overlap with
//! compute, so a transform's win shows up as demand misses converted to
//! hits. Bytes still move — compare [`TransformPrediction::bytes_streamed`]
//! alongside miss rates.

use crate::hierarchy::Hierarchy;
use crate::trace::page_aligned;
use quake_sparse::tiles::Bcsr3Tiles;

/// Gather-prefetch lookahead in tiles — keep in step with the kernel's
/// `LOOKAHEAD` in `quake-spark`'s tile kernels.
const LOOKAHEAD: usize = 4;

/// Bytes of one `Vec3` source/destination entry.
const VEC3_BYTES: u64 = 24;

/// Bytes of one 3×3 block's values (both layouts store 9 f64 words).
const BLOCK_BYTES: u64 = 72;

/// Predicted cache behavior of one transform's SMVP reference stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformPrediction {
    /// Transform label (see module docs).
    pub name: &'static str,
    /// Demand accesses replayed (identical across transforms — same
    /// algorithm, different layout/prefetch).
    pub accesses: u64,
    /// Fraction of demand accesses that missed L1.
    pub l1_miss_rate: f64,
    /// Fraction of demand accesses that reached main memory.
    pub memory_fraction: f64,
    /// Simulated demand access time for one product, seconds.
    pub mem_time: f64,
    /// Matrix bytes streamed per product (values + indices + row
    /// pointers) — the footprint the transform actually moves.
    pub bytes_streamed: u64,
}

/// Replays one transform: a warm-up product, then one measured product.
/// `idx_bytes` is the block-column index width (4 tiled, 8 baseline);
/// `gather_prefetch` adds the AVX kernel's gather and stream lookahead
/// prefetches.
fn replay(
    name: &'static str,
    tiles: &Bcsr3Tiles,
    template: &Hierarchy,
    idx_bytes: u64,
    gather_prefetch: bool,
) -> TransformPrediction {
    let n = tiles.block_rows() as u64;
    let nk = tiles.block_nnz();
    let [ptr_base, col_base, values_base, x_base, y_base] = page_aligned([
        (n + 1) * 8,
        nk as u64 * idx_bytes,
        nk as u64 * BLOCK_BYTES,
        n * VEC3_BYTES,
        n * VEC3_BYTES,
    ]);
    let row_ptr = tiles.row_ptr();
    let col_idx = tiles.col_idx();
    let mut h = template.clone();
    let mut counts = (0u64, 0u64, 0u64);
    let mut mem_time = 0.0;
    for pass in 0..2 {
        let before_time = h.total_time();
        let before_counts = h.counts();
        for r in 0..tiles.block_rows() {
            h.access(ptr_base + (r as u64 + 1) * 8);
            for k in row_ptr[r]..row_ptr[r + 1] {
                if gather_prefetch && nk != 0 {
                    let kp = (k + LOOKAHEAD).min(nk - 1);
                    h.prefetch(x_base + col_idx[kp] as u64 * VEC3_BYTES);
                    h.prefetch(values_base + (kp as u64) * BLOCK_BYTES);
                }
                h.access(col_base + k as u64 * idx_bytes);
                for w in 0..9u64 {
                    h.access(values_base + k as u64 * BLOCK_BYTES + w * 8);
                }
                let col = col_idx[k] as u64;
                for w in 0..3u64 {
                    h.access(x_base + col * VEC3_BYTES + w * 8);
                }
            }
            for w in 0..3u64 {
                h.access(y_base + r as u64 * VEC3_BYTES + w * 8);
            }
        }
        if pass == 1 {
            mem_time = h.total_time() - before_time;
            let after = h.counts();
            counts = (
                after.0 - before_counts.0,
                after.1 - before_counts.1,
                after.2 - before_counts.2,
            );
        }
    }
    let accesses = counts.0 + counts.1 + counts.2;
    let frac = |c: u64| {
        if accesses == 0 {
            0.0
        } else {
            c as f64 / accesses as f64
        }
    };
    TransformPrediction {
        name,
        accesses,
        l1_miss_rate: frac(counts.1 + counts.2),
        memory_fraction: frac(counts.2),
        mem_time,
        bytes_streamed: (n + 1) * 8 + nk as u64 * (idx_bytes + BLOCK_BYTES),
    }
}

/// Predicts the per-transform miss rates for one matrix under `template`'s
/// hierarchy, in the order the transforms were implemented (see module
/// docs). The same demand stream is replayed each time — only layout and
/// prefetch differ — so `accesses` is constant across the three entries
/// and the deltas isolate each transform's contribution.
pub fn predict_transforms(tiles: &Bcsr3Tiles, template: &Hierarchy) -> Vec<TransformPrediction> {
    vec![
        replay("mat3-baseline", tiles, template, 8, false),
        replay("tiled", tiles, template, 4, false),
        replay("tiled-prefetch", tiles, template, 4, true),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use quake_sparse::bcsr::Bcsr3Builder;
    use quake_sparse::dense::Mat3;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A scattered-but-local block matrix big enough to spill the alpha
    /// preset's caches (stream ≈ 1.2 MiB ≫ 96 KiB L2; x ≈ 48 KiB ≫ 8 KiB
    /// L1).
    fn spilled_tiles() -> Bcsr3Tiles {
        let n = 2000;
        let mut rng = StdRng::seed_from_u64(11);
        let mut b = Bcsr3Builder::new(n);
        for r in 0..n {
            b.add_block(r, r, Mat3::identity());
            for _ in 0..7 {
                let off = rng.gen_range(0..600) as isize - 300;
                let c = (r as isize + off).rem_euclid(n as isize) as usize;
                b.add_block(r, c, Mat3::new([[0.5; 3]; 3]));
            }
        }
        Bcsr3Tiles::from_bcsr(&b.build())
    }

    #[test]
    fn transforms_improve_in_order() {
        let tiles = spilled_tiles();
        let h = Hierarchy::alpha_21164_like();
        let p = predict_transforms(&tiles, &h);
        assert_eq!(
            p.iter().map(|t| t.name).collect::<Vec<_>>(),
            ["mat3-baseline", "tiled", "tiled-prefetch"]
        );
        // Same algorithm, same demand stream: access counts agree.
        assert!(p.iter().all(|t| t.accesses == p[0].accesses));
        // 4-byte indices stream fewer matrix bytes and miss no more.
        assert!(p[1].bytes_streamed < p[0].bytes_streamed);
        assert!(p[1].l1_miss_rate <= p[0].l1_miss_rate);
        // Gather prefetch converts demand misses into hits.
        assert!(p[2].l1_miss_rate < p[1].l1_miss_rate);
        assert!(p[2].memory_fraction < p[1].memory_fraction);
        assert!(p[2].mem_time > 0.0);
    }

    #[test]
    fn prediction_is_deterministic() {
        let tiles = spilled_tiles();
        let h = Hierarchy::modern_core_like();
        let a = predict_transforms(&tiles, &h);
        let b = predict_transforms(&tiles, &h);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_matrix_predicts_zero_misses() {
        let tiles = Bcsr3Tiles::from_bcsr(&Bcsr3Builder::new(0).build());
        let p = predict_transforms(&tiles, &Hierarchy::alpha_21164_like());
        assert_eq!(p.len(), 3);
        assert!(p.iter().all(|t| t.accesses == 0 && t.l1_miss_rate == 0.0));
    }

    #[test]
    fn modern_preset_exposes_blocking_parameters() {
        let h = Hierarchy::modern_core_like();
        assert_eq!(h.l1().capacity_bytes(), 32 * 1024);
        assert_eq!(h.l2().capacity_bytes(), 1024 * 1024);
        assert_eq!(h.l1().line_bytes(), 64);
    }

    #[test]
    fn prefetch_charges_nothing_but_installs_the_line() {
        let mut h = Hierarchy::alpha_21164_like();
        h.prefetch(0x1000);
        assert_eq!(h.accesses(), 0);
        assert_eq!(h.total_time(), 0.0);
        assert_eq!(h.access(0x1000), crate::hierarchy::HitLevel::L1);
    }
}

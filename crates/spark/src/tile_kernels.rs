//! SIMD block-SMVP kernels over the flat [`Bcsr3Tiles`] layout.
//!
//! The scalar 3×3 microkernel ([`crate::kernels::bmv_range_into`]) is
//! throughput-bound on its 18 scalar multiply-adds per tile. These kernels
//! vectorize across a block's three *rows*: each column of the column-major
//! tile is one 4-lane `f64` load (lanes 0–2 live, lane 3 overhanging into
//! the next column or the stream's zero tail pad), the three source-vector
//! components are broadcast, and each tile costs three packed multiplies
//! and three packed adds instead of eighteen scalar operations.
//!
//! **The bitwise contract.** Per lane, the vector kernel performs exactly
//! the scalar microkernel's operation sequence —
//! `acc += (t·vx + t·vy) + t·vz` with multiplies and adds as separate
//! instructions (no FMA contraction — a fused multiply-add rounds once
//! where the scalar path rounds twice, which would break equality) — so
//! the result is **bitwise-equal** to the scalar path on every input. The
//! executor's cross-schedule and cross-transport equality proofs rely on
//! this. Lane 3 accumulates garbage (finite tile values, or zero at the
//! tail pad) and is never stored.
//!
//! **Dispatch.** The AVX path is compiled behind the `simd` cargo feature
//! and selected at runtime via `is_x86_feature_detected!("avx")`; the
//! scalar tile path (same layout, same operation order) is the fallback
//! everywhere else. [`force_scalar`] disables the vector path at runtime
//! so the fallback is testable on AVX hardware, and [`simd_active`]
//! reports which path dispatch would take.
//!
//! **Half storage.** [`bmv_sym_rows_into`] runs the same product from a
//! [`SymTiles`] upper triangle over a row range `lo..hi` with a scatter
//! limit: each upper tile adds its product to its own row and, when the
//! mirror row lies below the limit, its transposed product to that row's
//! accumulator. Each symmetric pair of blocks is streamed once. Rows are
//! visited in ascending order, which delivers every row's terms from
//! columns in `lo..i` in its full-storage column order; the accumulator
//! must already hold the terms from columns below `lo`. So:
//!
//! * [`bmv_sym_into`] is the range `0..n` with limit `n` from a zeroed
//!   accumulator — nothing lies below row 0 — and is the executor's local
//!   product under every schedule;
//! * a [`SymBand`] over `lo..hi` first streams its cross strip
//!   ([`SymTiles::cross_strip`]: the blocks `(j, c)` with `j` in `lo..hi`
//!   and `c < lo`, each the bit-exact transpose of a stored upper tile)
//!   through [`bmv_tiles_range_into`] into the accumulator, then sweeps
//!   `lo..hi` with limit `hi`. Bands over disjoint rows write disjoint
//!   memory, so the time loop runs one per pool worker.
//!
//! Either way each row adds its lower terms in ascending column order,
//! then its diagonal, then its upper terms, each with the operations of
//! the full product, so these paths too are bitwise-equal to
//! [`bmv_range_into`](crate::kernels::bmv_range_into) on the full matrix,
//! whatever the split. So is [`bmv_tiles_range_into`] over a
//! [`SymTiles::strip`] of whole rows, which the executor's overlap
//! schedule streams for its boundary rows before [`bmv_sym_into`]
//! recomputes them with the same bits.
//!
//! **Prefetch.** The irregular `x[col]` gather is the stream the hardware
//! prefetcher cannot predict; the full-tile AVX path issues a software
//! prefetch for the gather target a few tiles ahead (plus the tile stream
//! itself, cheap insurance when the hardware stride prefetcher lags). The
//! half-storage path prefetches the tile stream only: on the banded sf5
//! stiffness its gather and scatter prefetches cost more than they saved.

use quake_sparse::dense::Vec3;
use quake_sparse::tiles::{Bcsr3Tiles, LaneBlock, SymTiles, TILE_LANES};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// When set, [`bmv_tiles_range_into`] and [`bmv_sym_into`] take the scalar
/// tile path even where AVX is available.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Forces (or un-forces) the scalar fallback path at runtime, overriding
/// feature detection. Output is bitwise-identical either way — this exists
/// so tests and A/B measurements can pin the path explicitly.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// True if the vector path would be taken right now: the `simd` feature is
/// compiled in, the CPU reports AVX, and [`force_scalar`] is not set.
pub fn simd_active() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        !FORCE_SCALAR.load(Ordering::Relaxed) && std::arch::is_x86_feature_detected!("avx")
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// SMVP over the contiguous block-row range `rows` of the tiled layout —
/// the SIMD twin of [`bmv_range_into`](crate::kernels::bmv_range_into),
/// with the same calling convention: `out[i - rows.start]` receives row
/// `i`, `x` spans the full matrix.
///
/// Output is bitwise-equal to `bmv_range_into` on the source
/// [`Bcsr3`](quake_sparse::bcsr::Bcsr3) (and therefore to
/// [`Bcsr3::spmv`](quake_sparse::bcsr::Bcsr3::spmv)) regardless of which
/// path dispatch selects.
///
/// # Panics
///
/// Panics if `rows` extends past the block-row count, `x.len()` does not
/// match the block-row count, or `out.len() != rows.len()`.
pub fn bmv_tiles_range_into(tiles: &Bcsr3Tiles, x: &[Vec3], rows: Range<usize>, out: &mut [Vec3]) {
    check_args(tiles, x, &rows, out);
    if simd_active() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: simd_active() verified AVX support at runtime; argument
        // invariants were checked above.
        unsafe {
            avx::rows_range(tiles, x, rows, out);
            return;
        }
    }
    rows_range_scalar(tiles, x, rows, out);
}

/// Full SMVP `out = K x` from the half-storage layout: bitwise-equal to
/// [`bmv_range_into`](crate::kernels::bmv_range_into) over every row of
/// the full matrix `sym` was built
/// from, on whichever path dispatch selects. It is
/// [`bmv_sym_rows_into`] over rows `0..n` with limit `n` from a zeroed
/// `acc`, which is scratch with one 4-lane block per row.
///
/// # Panics
///
/// Panics if `x`, `acc` or `out` does not hold one entry per block row.
pub fn bmv_sym_into(sym: &SymTiles, x: &[Vec3], acc: &mut [LaneBlock], out: &mut [Vec3]) {
    let n = sym.block_rows();
    assert_eq!(acc.len(), n, "acc must hold one lane block per row");
    acc.fill(LaneBlock::default());
    bmv_sym_rows_into(sym, x, 0..n, n, acc, out);
}

/// The half-storage sweep over the block rows `rows`, scattering only to
/// rows below `limit`: `out[i - rows.start]` receives row `i`.
///
/// `acc[k]` belongs to row `rows.start + k`, for every row below `limit`.
/// Row `i` starts from `acc[i - rows.start]`, which by then must hold its
/// lower-triangle terms from columns below `rows.start` (zero if there are
/// none); the terms from columns in `rows.start..i` are scattered there by
/// the sweep itself, in ascending source-row order. It adds its diagonal
/// and upper tiles in column order, and each upper tile `(i, j)` with
/// `j < limit` also adds its transposed product
/// `(K[0][l]·xᵢ + K[1][l]·yᵢ) + K[2][l]·zᵢ` to `acc[j - rows.start]`. That
/// is the order and association the full product uses for row `j`'s term
/// `K[j][i]·xᵢ`, so no bit changes. On return, the blocks of rows in
/// `rows.end..limit` hold the terms this sweep gave them, and the next
/// sweep, over `rows.end..`, starts from them.
///
/// # Panics
///
/// Panics unless `rows.start <= rows.end <= limit <= n`, `x.len() == n`,
/// `acc.len() == limit - rows.start` and `out.len() == rows.len()`.
pub fn bmv_sym_rows_into(
    sym: &SymTiles,
    x: &[Vec3],
    rows: Range<usize>,
    limit: usize,
    acc: &mut [LaneBlock],
    out: &mut [Vec3],
) {
    let n = sym.block_rows();
    assert!(
        rows.start <= rows.end && rows.end <= limit && limit <= n,
        "row range {rows:?} with limit {limit} out of bounds for {n} block rows"
    );
    assert_eq!(x.len(), n, "x length must match block rows");
    assert_eq!(
        acc.len(),
        limit - rows.start,
        "acc must hold one lane block per row from rows.start to limit"
    );
    assert_eq!(out.len(), rows.len(), "out length must match the row range");
    if simd_active() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: simd_active() verified AVX support at runtime; lengths
        // and bounds were checked above.
        unsafe {
            avx::sym_rows(sym.upper(), x, rows, limit, acc, out);
            return;
        }
    }
    sym_rows_scalar(sym.upper(), x, rows, limit, acc, out);
}

/// The scalar path of [`bmv_sym_rows_into`]: the AVX path's operations,
/// lane by lane.
fn sym_rows_scalar(
    upper: &Bcsr3Tiles,
    x: &[Vec3],
    rows: Range<usize>,
    limit: usize,
    acc: &mut [LaneBlock],
    out: &mut [Vec3],
) {
    let (row_ptr, col_idx) = (upper.row_ptr(), upper.col_idx());
    let values = upper.values();
    let base = rows.start;
    for (i, yi) in rows.zip(out.iter_mut()) {
        let xi = x[i];
        let [mut a0, mut a1, mut a2, _] = acc[i - base].0;
        for (k, &j) in (row_ptr[i]..row_ptr[i + 1]).zip(&col_idx[row_ptr[i]..row_ptr[i + 1]]) {
            let (j, t) = (j as usize, &values[k * TILE_LANES..(k + 1) * TILE_LANES]);
            let v = x[j];
            a0 += t[0] * v.x + t[3] * v.y + t[6] * v.z;
            a1 += t[1] * v.x + t[4] * v.y + t[7] * v.z;
            a2 += t[2] * v.x + t[5] * v.y + t[8] * v.z;
            if j != i && j < limit {
                let dst = &mut acc[j - base].0;
                for (l, slot) in dst[..3].iter_mut().enumerate() {
                    *slot += t[3 * l] * xi.x + t[3 * l + 1] * xi.y + t[3 * l + 2] * xi.z;
                }
            }
        }
        *yi = Vec3::new(a0, a1, a2);
    }
}

/// One worker's rows of a pooled half-storage product: the rows'
/// [`SymTiles::cross_strip`], built once, and the sweep's accumulator.
///
/// Row `j`'s full-storage sum takes its lower terms in ascending column
/// order, then its diagonal, then its upper terms. A band over `lo..hi`
/// first streams the strip, whose tiles are the terms from columns below
/// `lo`, into `acc`; then it sweeps `lo..hi` with [`bmv_sym_rows_into`],
/// scattering only below `hi`. The sweep adds the terms from columns in
/// `lo..j` and the rest, in order, so each row is bitwise the full
/// product's, and bands over disjoint rows write disjoint memory. A band
/// over `0..n` has no strip: it is [`bmv_sym_into`] in pieces.
#[derive(Debug, Clone)]
pub struct SymBand {
    rows: Range<usize>,
    /// `None` when no block crosses into the band from below.
    strip: Option<Arc<Bcsr3Tiles>>,
    /// One lane block per row of the band.
    acc: Vec<LaneBlock>,
}

impl SymBand {
    /// The band over `rows` of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` extends past the block-row count.
    pub fn new(sym: &SymTiles, rows: Range<usize>) -> Self {
        // Nothing lies below row 0.
        let strip = (rows.start > 0)
            .then(|| sym.cross_strip(rows.clone()))
            .filter(|s| s.block_nnz() > 0);
        SymBand {
            strip: strip.map(Arc::new),
            acc: vec![LaneBlock::default(); rows.len()],
            rows,
        }
    }

    /// The block rows this band computes.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Computes `K x` on the band's rows in ascending pieces of
    /// `piece.len()` rows, and calls `f(rows, products)` with each piece as
    /// soon as it is final, so a fused pass can consume it from cache.
    /// `sym` must be the matrix the band was built from. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not hold one entry per block row, or if `piece`
    /// is empty while the band is not.
    pub fn sweep(
        &mut self,
        sym: &SymTiles,
        x: &[Vec3],
        piece: &mut [Vec3],
        mut f: impl FnMut(Range<usize>, &[Vec3]),
    ) {
        let (lo, hi) = (self.rows.start, self.rows.end);
        if lo == hi {
            return;
        }
        assert!(!piece.is_empty(), "a sweep needs a non-empty piece buffer");
        let len = piece.len();
        let pieces = (lo..hi).step_by(len).map(|b| b..(b + len).min(hi));
        match &self.strip {
            Some(strip) => {
                for r in pieces.clone() {
                    let y = &mut piece[..r.len()];
                    bmv_tiles_range_into(strip, x, r.clone(), y);
                    for (a, v) in self.acc[r.start - lo..r.end - lo].iter_mut().zip(y) {
                        *a = LaneBlock([v.x, v.y, v.z, 0.0]);
                    }
                }
            }
            None => self.acc.fill(LaneBlock::default()),
        }
        for r in pieces {
            let y = &mut piece[..r.len()];
            bmv_sym_rows_into(sym, x, r.clone(), hi, &mut self.acc[r.start - lo..], y);
            f(r, y);
        }
    }
}

fn check_args(tiles: &Bcsr3Tiles, x: &[Vec3], rows: &Range<usize>, out: &[Vec3]) {
    let n = tiles.block_rows();
    assert!(
        rows.start <= rows.end && rows.end <= n,
        "row range {rows:?} out of bounds for {n} block rows"
    );
    assert_eq!(x.len(), n, "x length must match block rows");
    assert_eq!(out.len(), rows.len(), "out length must match the row range");
}

/// The scalar path over the tiled layout: column-major indexing, but the
/// per-lane operation order of [`crate::kernels::bmv_range_into`]'s
/// `micro_3x3` exactly — `acc[l] += (t·vx + t·vy) + t·vz` — so all three
/// implementations agree bitwise.
fn rows_range_scalar(tiles: &Bcsr3Tiles, x: &[Vec3], rows: Range<usize>, out: &mut [Vec3]) {
    let row_ptr = tiles.row_ptr();
    let col_idx = tiles.col_idx();
    let values = tiles.values();
    // SAFETY (whole loop): Bcsr3Tiles::audit guarantees row_ptr is monotone
    // with row_ptr[n] == block_nnz, every col_idx[k] < n == x.len(), and the
    // value stream holds TILE_LANES words per tile; rows/out bounds were
    // asserted by the caller.
    for r in rows.clone() {
        unsafe {
            let mut acc = [0.0f64; 3];
            for k in *row_ptr.get_unchecked(r)..*row_ptr.get_unchecked(r + 1) {
                let t = values.as_ptr().add(k * TILE_LANES);
                let v = *x.get_unchecked(*col_idx.get_unchecked(k) as usize);
                for (lane, slot) in acc.iter_mut().enumerate() {
                    *slot += *t.add(lane) * v.x + *t.add(3 + lane) * v.y + *t.add(6 + lane) * v.z;
                }
            }
            *out.get_unchecked_mut(r - rows.start) = Vec3::new(acc[0], acc[1], acc[2]);
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx {
    use super::*;
    use std::arch::x86_64::*;

    /// Gather-prefetch lookahead, in tiles. Far enough to beat an L2 miss
    /// at ~15 tiles/row, near enough that the line is rarely evicted
    /// before use.
    const LOOKAHEAD: usize = 4;

    /// The AVX row-range kernel. Per tile: three 4-lane column loads
    /// (lane 3 overhangs into the next column / zero tail pad and is
    /// discarded), three broadcasts, three `mul` + three `add` — the
    /// scalar operation order per lane, never contracted to FMA.
    ///
    /// # Safety
    ///
    /// Caller must have AVX verified and the `check_args` invariants hold;
    /// `tiles` must pass its audit (aligned stream, zero tail tile,
    /// in-range columns — guaranteed by `Bcsr3Tiles` construction).
    #[target_feature(enable = "avx")]
    pub unsafe fn rows_range(tiles: &Bcsr3Tiles, x: &[Vec3], rows: Range<usize>, out: &mut [Vec3]) {
        let row_ptr = tiles.row_ptr();
        let col_idx = tiles.col_idx();
        let values = tiles.values();
        let nk = col_idx.len();
        let xp = x.as_ptr();
        for r in rows.clone() {
            let mut acc = _mm256_setzero_pd();
            for k in *row_ptr.get_unchecked(r)..*row_ptr.get_unchecked(r + 1) {
                let t = values.as_ptr().add(k * TILE_LANES);
                // Prefetch the gather target LOOKAHEAD tiles ahead (the
                // access the hardware prefetcher cannot predict) and the
                // tile stream at the same distance. Addresses use
                // wrapping arithmetic: prefetch never faults, but only
                // wrapping_add may leave the allocation without UB.
                if nk != 0 {
                    let kp = (k + LOOKAHEAD).min(nk - 1);
                    let cp = *col_idx.get_unchecked(kp) as usize;
                    _mm_prefetch(xp.add(cp) as *const i8, _MM_HINT_T0);
                    _mm_prefetch(
                        (t as *const i8).wrapping_add(LOOKAHEAD * TILE_LANES * 8),
                        _MM_HINT_T0,
                    );
                }
                let v = x.get_unchecked(*col_idx.get_unchecked(k) as usize);
                let bx = _mm256_set1_pd(v.x);
                let by = _mm256_set1_pd(v.y);
                let bz = _mm256_set1_pd(v.z);
                // Columns at word offsets 0, 3, 6; each load reads four
                // words, one past the column — in bounds thanks to the
                // stream's zero tail tile (audited at construction).
                let c0 = _mm256_loadu_pd(t);
                let c1 = _mm256_loadu_pd(t.add(3));
                let c2 = _mm256_loadu_pd(t.add(6));
                // (c0·vx + c1·vy) + c2·vz, then acc + — the scalar
                // association, as separate mul/add (no FMA).
                let s = _mm256_add_pd(
                    _mm256_add_pd(_mm256_mul_pd(c0, bx), _mm256_mul_pd(c1, by)),
                    _mm256_mul_pd(c2, bz),
                );
                acc = _mm256_add_pd(acc, s);
            }
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
            *out.get_unchecked_mut(r - rows.start) = Vec3::new(lanes[0], lanes[1], lanes[2]);
        }
    }

    /// The AVX half-storage kernel behind [`bmv_sym_rows_into`]. Per upper
    /// tile: the three column loads feed the direct product, as in
    /// [`rows_range`]; three `unpack` and three `permute2f128` turn the
    /// same registers into the tile's rows `[t0 t3 t6]`, `[t1 t4 t7]`,
    /// `[t2 t5 t8]` (lane 3 is discarded) for the transposed product,
    /// which is added to the target row's `acc` block in memory. Separate
    /// `mul` and `add`, never FMA. Only the tile stream is prefetched: the
    /// gather and scatter targets of a banded matrix are mostly in cache
    /// already, and prefetching them measured 5–10% slower on sf5.
    ///
    /// # Safety
    ///
    /// Caller must have AVX verified and the [`bmv_sym_rows_into`] bounds
    /// hold; `upper` must pass its audit.
    #[target_feature(enable = "avx")]
    pub unsafe fn sym_rows(
        upper: &Bcsr3Tiles,
        x: &[Vec3],
        rows: Range<usize>,
        limit: usize,
        acc: &mut [LaneBlock],
        out: &mut [Vec3],
    ) {
        let row_ptr = upper.row_ptr();
        let col_idx = upper.col_idx();
        let values = upper.values();
        let base = rows.start;
        // LaneBlock is 32-byte aligned, so every row's block is one
        // aligned 4-lane load or store.
        let ap = acc.as_mut_ptr() as *mut f64;
        for i in rows {
            let mut a = _mm256_load_pd(ap.add(4 * (i - base)));
            let xi = x.get_unchecked(i);
            let (sx, sy, sz) = (
                _mm256_set1_pd(xi.x),
                _mm256_set1_pd(xi.y),
                _mm256_set1_pd(xi.z),
            );
            for k in *row_ptr.get_unchecked(i)..*row_ptr.get_unchecked(i + 1) {
                let t = values.as_ptr().add(k * TILE_LANES);
                // Wrapping arithmetic: prefetch never faults, but only
                // wrapping_add may leave the allocation without UB.
                _mm_prefetch(
                    (t as *const i8).wrapping_add(LOOKAHEAD * TILE_LANES * 8),
                    _MM_HINT_T0,
                );
                let j = *col_idx.get_unchecked(k) as usize;
                let v = x.get_unchecked(j);
                let c0 = _mm256_loadu_pd(t);
                let c1 = _mm256_loadu_pd(t.add(3));
                let c2 = _mm256_loadu_pd(t.add(6));
                let s = _mm256_add_pd(
                    _mm256_add_pd(
                        _mm256_mul_pd(c0, _mm256_set1_pd(v.x)),
                        _mm256_mul_pd(c1, _mm256_set1_pd(v.y)),
                    ),
                    _mm256_mul_pd(c2, _mm256_set1_pd(v.z)),
                );
                a = _mm256_add_pd(a, s);
                if j != i && j < limit {
                    // c0 = [t0 t1 t2 t3], c1 = [t3 t4 t5 t6], c2 = [t6 t7 t8 _].
                    let lo = _mm256_unpacklo_pd(c0, c1); // [t0 t3 | t2 t5]
                    let hi = _mm256_unpackhi_pd(c0, c1); // [t1 t4 | t3 t6]
                    let h2 = _mm256_unpackhi_pd(c2, c2); // [t7 t7 | _ _]
                    let r0 = _mm256_permute2f128_pd(lo, c2, 0x20); // [t0 t3 | t6 t7]
                    let r1 = _mm256_permute2f128_pd(hi, h2, 0x20); // [t1 t4 | t7 t7]
                    let r2 = _mm256_permute2f128_pd(lo, c2, 0x31); // [t2 t5 | t8 _]
                    let st = _mm256_add_pd(
                        _mm256_add_pd(_mm256_mul_pd(r0, sx), _mm256_mul_pd(r1, sy)),
                        _mm256_mul_pd(r2, sz),
                    );
                    let dst = ap.add(4 * (j - base));
                    _mm256_store_pd(dst, _mm256_add_pd(_mm256_load_pd(dst), st));
                }
            }
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), a);
            *out.get_unchecked_mut(i - base) = Vec3::new(lanes[0], lanes[1], lanes[2]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::bmv_range_into;
    use quake_sparse::bcsr::{Bcsr3, Bcsr3Builder};
    use quake_sparse::dense::Mat3;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Mutex;

    /// Serializes tests that flip the global [`force_scalar`] switch.
    static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

    fn random_bcsr(n: usize, seed: u64) -> Bcsr3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = Bcsr3Builder::new(n);
        for r in 0..n {
            // Degree 0..=8 so every per-row tile-count residue appears,
            // including empty rows.
            let deg = rng.gen_range(0..=8usize);
            for _ in 0..deg {
                let c = rng.gen_range(0..n);
                let m = Mat3::new([
                    [rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0), 0.1],
                    [rng.gen_range(-2.0..2.0), 1.0, rng.gen_range(-2.0..2.0)],
                    [0.3, rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)],
                ]);
                b.add_block(r, c, m);
            }
        }
        b.build()
    }

    fn random_x(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(-3.0..3.0),
                    rng.gen_range(-3.0..3.0),
                    rng.gen_range(-3.0..3.0),
                )
            })
            .collect()
    }

    fn assert_vec3_bits_eq(a: &[Vec3], b: &[Vec3], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (i, (u, v)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                (u.x.to_bits(), u.y.to_bits(), u.z.to_bits()),
                (v.x.to_bits(), v.y.to_bits(), v.z.to_bits()),
                "{what}: row {i} differs: {u} vs {v}"
            );
        }
    }

    #[test]
    fn tile_kernel_matches_scalar_micro_bitwise() {
        for seed in 0..12u64 {
            let n = 40 + (seed as usize) * 13;
            let matrix = random_bcsr(n, seed);
            let tiles = Bcsr3Tiles::from_bcsr(&matrix);
            let x = random_x(n, seed);
            let mut want = vec![Vec3::ZERO; n];
            bmv_range_into(&matrix, &x, 0..n, &mut want);
            let mut got = vec![Vec3::ZERO; n];
            bmv_tiles_range_into(&tiles, &x, 0..n, &mut got);
            assert_vec3_bits_eq(&got, &want, &format!("dispatched, seed {seed}"));
            // The scalar tile path must agree even when dispatch would
            // have picked the vector path.
            let mut scalar = vec![Vec3::ZERO; n];
            rows_range_scalar(&tiles, &x, 0..n, &mut scalar);
            assert_vec3_bits_eq(&scalar, &want, &format!("scalar tiles, seed {seed}"));
        }
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn avx_path_matches_scalar_micro_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx") {
            eprintln!("skipping: no AVX on this host");
            return;
        }
        for seed in 0..12u64 {
            let n = 64 + (seed as usize) * 7;
            let matrix = random_bcsr(n, seed.wrapping_mul(31).wrapping_add(5));
            let tiles = Bcsr3Tiles::from_bcsr(&matrix);
            let x = random_x(n, seed);
            let mut want = vec![Vec3::ZERO; n];
            bmv_range_into(&matrix, &x, 0..n, &mut want);
            let mut got = vec![Vec3::ZERO; n];
            // SAFETY: AVX verified above; ranges are in bounds.
            unsafe { avx::rows_range(&tiles, &x, 0..n, &mut got) };
            assert_vec3_bits_eq(&got, &want, &format!("avx explicit, seed {seed}"));
        }
    }

    #[test]
    fn partial_ranges_match_scalar_micro() {
        let n = 120;
        let matrix = random_bcsr(n, 99);
        let tiles = Bcsr3Tiles::from_bcsr(&matrix);
        let x = random_x(n, 99);
        let mut want = vec![Vec3::ZERO; n];
        bmv_range_into(&matrix, &x, 0..n, &mut want);
        for (lo, hi) in [(0, 0), (0, 1), (7, 7), (3, 50), (50, 120), (119, 120)] {
            let mut got = vec![Vec3::ZERO; hi - lo];
            bmv_tiles_range_into(&tiles, &x, lo..hi, &mut got);
            assert_vec3_bits_eq(&got, &want[lo..hi], &format!("range {lo}..{hi}"));
        }
    }

    #[test]
    fn tail_tiles_of_every_residue_match() {
        // Matrices whose total tile count runs through every residue mod 4
        // (the lane-block granularity) and whose last row has 1..=8 tiles,
        // so the overhanging tail-column load exercises every alignment of
        // the final tile against the zero pad.
        for extra in 0..8usize {
            let n = 16;
            let mut b = Bcsr3Builder::new(n);
            for r in 0..n - 1 {
                b.add_block(r, r, Mat3::identity());
                b.add_block(r, (r + 5) % n, Mat3::new([[0.5; 3]; 3]));
            }
            for j in 0..=extra {
                b.add_block(n - 1, j, Mat3::new([[1.0 + j as f64; 3]; 3]));
            }
            let matrix = b.build();
            let tiles = Bcsr3Tiles::from_bcsr(&matrix);
            let x = random_x(n, extra as u64);
            let mut want = vec![Vec3::ZERO; n];
            bmv_range_into(&matrix, &x, 0..n, &mut want);
            let mut got = vec![Vec3::ZERO; n];
            bmv_tiles_range_into(&tiles, &x, 0..n, &mut got);
            assert_vec3_bits_eq(&got, &want, &format!("tail residue {extra}"));
        }
    }

    #[test]
    fn forced_fallback_disables_simd_and_stays_bitwise_equal() {
        let _guard = DISPATCH_LOCK.lock().unwrap();
        let n = 80;
        let matrix = random_bcsr(n, 3);
        let tiles = Bcsr3Tiles::from_bcsr(&matrix);
        let x = random_x(n, 3);
        let mut want = vec![Vec3::ZERO; n];
        bmv_range_into(&matrix, &x, 0..n, &mut want);

        let hardware = simd_active();
        force_scalar(true);
        assert!(
            !simd_active(),
            "force_scalar(true) must disable the vector path"
        );
        let mut forced = vec![Vec3::ZERO; n];
        bmv_tiles_range_into(&tiles, &x, 0..n, &mut forced);
        force_scalar(false);
        assert_eq!(
            simd_active(),
            hardware,
            "force_scalar(false) must restore detection"
        );

        assert_vec3_bits_eq(&forced, &want, "forced fallback");
    }

    /// A random bitwise-symmetric matrix: some rows empty, some holding
    /// only their diagonal, about one entry in six `+0.0` or `-0.0`, and
    /// always a coupling to the last row.
    fn random_symmetric_bcsr(n: usize, seed: u64) -> Bcsr3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let entry = |rng: &mut StdRng| match rng.gen_range(0..12) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0..2.0),
        };
        let block = |rng: &mut StdRng| {
            let mut m = [[0.0; 3]; 3];
            for row in &mut m {
                for v in row.iter_mut() {
                    *v = entry(rng);
                }
            }
            Mat3::new(m)
        };
        // 0: empty, 1: diagonal only, 2+: coupled.
        let kind: Vec<u32> = (0..n)
            .map(|r| if r + 1 == n { 2 } else { rng.gen_range(0..6) })
            .collect();
        let coupled: Vec<usize> = (0..n).filter(|&r| kind[r] >= 2).collect();
        let mut b = Bcsr3Builder::new(n);
        for (r, &k) in kind.iter().enumerate() {
            if k == 0 {
                continue;
            }
            b.add_block(r, r, block(&mut rng));
            if k == 1 {
                continue;
            }
            let mut cols: Vec<usize> = (0..rng.gen_range(0..6))
                .map(|_| coupled[rng.gen_range(0..coupled.len())])
                .filter(|&c| c > r)
                .collect();
            if r + 1 < n && rng.gen_range(0..4) == 0 {
                cols.push(n - 1);
            }
            cols.sort_unstable();
            cols.dedup();
            for c in cols {
                let m = block(&mut rng);
                b.add_block(r, c, m);
                b.add_block(c, r, m.transpose());
            }
        }
        if n > 1 && b.clone().build().block(0, n - 1).is_none() {
            let m = block(&mut rng);
            b.add_block(0, n - 1, m);
            b.add_block(n - 1, 0, m.transpose());
        }
        b.build()
    }

    #[test]
    fn sym_kernel_matches_full_micro_bitwise_on_both_paths() {
        let _guard = DISPATCH_LOCK.lock().unwrap();
        for seed in 0..16u64 {
            let n = 1 + (seed as usize) * 13;
            let full = random_symmetric_bcsr(n, seed);
            let sym = SymTiles::from_bcsr(&full).expect("generated matrix is bitwise symmetric");
            let mut x = random_x(n, seed);
            for (i, v) in x.iter_mut().enumerate().step_by(7) {
                *v = if i % 2 == 0 { Vec3::ZERO } else { -Vec3::ZERO };
            }
            let mut want = vec![Vec3::ZERO; n];
            bmv_range_into(&full, &x, 0..n, &mut want);
            let mut acc = vec![LaneBlock([7.0; 4]); n];
            for forced in [false, true] {
                force_scalar(forced);
                let mut got = vec![Vec3::new(9.0, 9.0, 9.0); n];
                bmv_sym_into(&sym, &x, &mut acc, &mut got);
                let path = if simd_active() { "avx" } else { "scalar" };
                assert_vec3_bits_eq(&got, &want, &format!("{path}, seed {seed}"));
            }
            force_scalar(false);
        }
    }

    #[test]
    fn sym_tiles_reject_what_the_kernel_cannot_reproduce() {
        use quake_sparse::error::SparseError;
        let m = Mat3::new([[1.0, 0.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        let build = |blocks: &[(usize, usize, Mat3)]| {
            let mut b = Bcsr3Builder::new(3);
            for &(i, j, blk) in blocks {
                b.add_block(i, j, blk);
            }
            b.build()
        };
        let id = Mat3::identity();
        let ok = build(&[(0, 0, id), (0, 2, m), (2, 0, m.transpose()), (2, 2, id)]);
        assert!(SymTiles::from_bcsr(&ok).is_ok());
        // A missing mirror, on either side of the diagonal.
        for one_sided in [(0, 2, m), (2, 0, m)] {
            let a = build(&[(0, 0, id), one_sided, (2, 2, id)]);
            assert_eq!(
                SymTiles::from_bcsr(&a).unwrap_err(),
                SparseError::NotSymmetric
            );
        }
        // A mirror that differs only in the sign of a zero: equal under
        // `==`, but not bit for bit.
        let mut signed = m.transpose();
        signed.m[1][0] = -0.0;
        assert_eq!(signed, m.transpose());
        let z = build(&[(0, 0, id), (0, 2, m), (2, 0, signed), (2, 2, id)]);
        assert_eq!(
            SymTiles::from_bcsr(&z).unwrap_err(),
            SparseError::NotSymmetric
        );
    }

    /// The oracle's rows `lo..hi` of the full product.
    fn oracle_rows(full: &Bcsr3, x: &[Vec3], rows: Range<usize>) -> Vec<Vec3> {
        let mut want = vec![Vec3::ZERO; rows.len()];
        bmv_range_into(full, x, rows, &mut want);
        want
    }

    #[test]
    fn sym_rows_in_pieces_match_one_sweep_on_both_paths() {
        let _guard = DISPATCH_LOCK.lock().unwrap();
        for seed in 0..8u64 {
            let n = 30 + (seed as usize) * 11;
            let full = random_symmetric_bcsr(n, seed);
            let sym = SymTiles::from_bcsr(&full).expect("bitwise symmetric");
            let x = random_x(n, seed);
            let want = oracle_rows(&full, &x, 0..n);
            // Pieces of every kind: empty, one row, ragged, the tail.
            let cuts = [0, 0, 1, 1, 7, n / 2, n / 2, n - 1, n];
            for forced in [false, true] {
                force_scalar(forced);
                let mut acc = vec![LaneBlock::default(); n];
                let mut got = Vec::new();
                for w in cuts.windows(2) {
                    let mut out = vec![Vec3::new(9.0, 9.0, 9.0); w[1] - w[0]];
                    bmv_sym_rows_into(&sym, &x, w[0]..w[1], n, &mut acc[w[0]..], &mut out);
                    got.extend(out);
                }
                let path = if simd_active() { "avx" } else { "scalar" };
                assert_vec3_bits_eq(&got, &want, &format!("{path} pieces, seed {seed}"));
            }
            force_scalar(false);
        }
    }

    #[test]
    fn bands_below_a_limit_match_the_full_product_on_both_paths() {
        let _guard = DISPATCH_LOCK.lock().unwrap();
        for seed in 0..8u64 {
            let n = 20 + (seed as usize) * 9;
            let full = random_symmetric_bcsr(n, seed ^ 0xb0);
            let sym = SymTiles::from_bcsr(&full).expect("bitwise symmetric");
            let x = random_x(n, seed);
            for forced in [false, true] {
                force_scalar(forced);
                let path = if simd_active() { "avx" } else { "scalar" };
                for (lo, hi) in [(0, n / 3), (n / 3, n - 2), (n - 2, n), (5, 5), (0, n)] {
                    // The strip's terms first, then a sweep that scatters
                    // only inside lo..hi, from scratch left dirty.
                    let mut from_strip = vec![Vec3::ZERO; hi - lo];
                    bmv_tiles_range_into(&sym.cross_strip(lo..hi), &x, lo..hi, &mut from_strip);
                    let mut acc: Vec<LaneBlock> = from_strip
                        .iter()
                        .map(|v| LaneBlock([v.x, v.y, v.z, f64::NAN]))
                        .collect();
                    let mut got = vec![Vec3::new(9.0, 9.0, 9.0); hi - lo];
                    bmv_sym_rows_into(&sym, &x, lo..hi, hi, &mut acc, &mut got);
                    let want = oracle_rows(&full, &x, lo..hi);
                    assert_vec3_bits_eq(
                        &got,
                        &want,
                        &format!("{path} band {lo}..{hi}, seed {seed}"),
                    );
                    // And the band through SymBand, in 4-row pieces.
                    let mut band = SymBand::new(&sym, lo..hi);
                    let mut piece = [Vec3::ZERO; 4];
                    let mut swept = Vec::new();
                    band.sweep(&sym, &x, &mut piece, |r, y| {
                        assert_eq!(r.start, lo + swept.len(), "pieces ascend");
                        swept.extend_from_slice(y);
                    });
                    assert_vec3_bits_eq(&swept, &want, &format!("{path} SymBand {lo}..{hi}"));
                }
            }
            force_scalar(false);
        }
    }

    #[test]
    fn empty_sym_ranges_touch_nothing() {
        let full = random_symmetric_bcsr(12, 4);
        let sym = SymTiles::from_bcsr(&full).expect("bitwise symmetric");
        let x = random_x(12, 4);
        for k in [0, 6, 12] {
            bmv_sym_rows_into(&sym, &x, k..k, k, &mut [], &mut []);
        }
        let mut acc = vec![LaneBlock([3.0; 4]); 4];
        bmv_sym_rows_into(&sym, &x, 8..8, 12, &mut acc, &mut []);
        assert!(acc.iter().all(|a| a.0 == [3.0; 4]));
        let mut band = SymBand::new(&sym, 7..7);
        band.sweep(&sym, &x, &mut [], |_, _| {
            panic!("an empty band has no piece")
        });
    }

    #[test]
    #[should_panic(expected = "with limit 5 out of bounds")]
    fn rows_past_the_limit_panic() {
        let sym = SymTiles::from_bcsr(&random_symmetric_bcsr(10, 1)).unwrap();
        let x = random_x(10, 1);
        bmv_sym_rows_into(
            &sym,
            &x,
            2..6,
            5,
            &mut [LaneBlock::default(); 3],
            &mut [Vec3::ZERO; 4],
        );
    }

    #[test]
    #[should_panic(expected = "acc must hold one lane block per row from rows.start to limit")]
    fn short_scratch_panics() {
        let sym = SymTiles::from_bcsr(&random_symmetric_bcsr(10, 1)).unwrap();
        let x = random_x(10, 1);
        bmv_sym_rows_into(
            &sym,
            &x,
            2..6,
            8,
            &mut [LaneBlock::default(); 4],
            &mut [Vec3::ZERO; 4],
        );
    }

    #[test]
    fn empty_matrix_and_empty_rows() {
        let tiles = Bcsr3Tiles::from_bcsr(&Bcsr3Builder::new(0).build());
        let mut out: Vec<Vec3> = Vec::new();
        bmv_tiles_range_into(&tiles, &[], 0..0, &mut out);
        let n = 5;
        let matrix = Bcsr3Builder::new(n).build(); // all rows empty
        let tiles = Bcsr3Tiles::from_bcsr(&matrix);
        let x = random_x(n, 1);
        let mut got = vec![Vec3::new(9.0, 9.0, 9.0); n];
        bmv_tiles_range_into(&tiles, &x, 0..n, &mut got);
        assert!(got.iter().all(|v| v.x == 0.0 && v.y == 0.0 && v.z == 0.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn range_past_end_panics() {
        let tiles = Bcsr3Tiles::from_bcsr(&random_bcsr(10, 0));
        let x = random_x(10, 0);
        let mut out = vec![Vec3::ZERO; 11];
        bmv_tiles_range_into(&tiles, &x, 0..11, &mut out);
    }
}

//! SIMD-friendly flat tile layout for [`Bcsr3`].
//!
//! [`Bcsr3`] stores its blocks as row-major [`Mat3`]s — the natural layout
//! for the scalar register-blocked microkernel, but the wrong transpose for
//! a vector unit: SIMD wants each block *column* contiguous so the three
//! `y += column · x_component` multiply-adds become one packed multiply per
//! column with `x` components broadcast across lanes. [`Bcsr3Tiles`] is the
//! kernel-ready transposition:
//!
//! * each 3×3 block becomes a **column-major 9-word tile**
//!   (`[c0r0 c0r1 c0r2  c1r0 c1r1 c1r2  c2r0 c2r1 c2r2]`), packed
//!   back-to-back at 72-byte strides so the matrix stream carries exactly
//!   the same byte traffic as the [`Mat3`] layout (a 4-lane-padded tile was
//!   measured 33% more bytes — a net loss on meshes that spill the cache);
//! * the backing store is built from [`LaneBlock`]s —
//!   `#[repr(C, align(32))]` groups of four `f64` — so the stream's base is
//!   **32-byte aligned** and construction can audit that invariant loudly
//!   ([`Bcsr3Tiles::audit`]) instead of a kernel silently taking unaligned
//!   penalties;
//! * one **zero tail tile** pads the stream so a vector load of a tile's
//!   last column may read one lane past the 72-byte tile (the idiom a
//!   4-lane load of a 3-lane column needs), and software prefetch of
//!   `tiles[k + d]` stays in bounds for any lookahead `d ≤` one tile;
//! * column indices narrow to `u32` (a 3×3-block matrix with 2³² block
//!   rows would already be a 300-GB index array — asserted at
//!   construction), shaving 4 bytes per block off the streamed index
//!   traffic next to the 72-byte tile;
//! * on Linux the store is advised onto transparent huge pages before it
//!   is first touched (`madvise(MADV_HUGEPAGE)` on its whole 2 MB pages;
//!   hosts in THP `madvise` mode back nothing else with them), so a sweep
//!   over a stream of many megabytes takes one TLB entry per 2 MB instead
//!   of per 4 KB. Streams under 4 MB may span no whole huge page and are
//!   unaffected.
//!
//! [`SymTiles`] is the same stream over the upper triangle only, for a
//! bitwise-symmetric matrix: it streams each symmetric pair of blocks
//! once, and its construction checks the two invariants a kernel needs
//! to reproduce the full product bit for bit. Its
//! [`cross_strip`](SymTiles::cross_strip) for a row range is the small
//! full-orientation stream a worker owning those rows needs in addition,
//! to take the terms that rows below the range scatter to them.

use crate::bcsr::Bcsr3;
use crate::error::SparseError;
use std::ops::Range;

/// Four `f64` lanes at the vector unit's natural 32-byte alignment — the
/// building block of the tile stream's backing store.
///
/// `4 × 8 = 32` bytes with 32-byte alignment means a `Vec<LaneBlock>` is
/// gap-free and its base address is always 32-byte aligned, which is the
/// whole point: reinterpreting it as a flat `&[f64]` gives an aligned,
/// contiguous value stream without padding individual 9-word tiles.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C, align(32))]
pub struct LaneBlock(pub [f64; 4]);

/// The alignment (bytes) the tile stream's base is guaranteed to have.
pub const STREAM_ALIGN: usize = std::mem::align_of::<LaneBlock>();

/// Words (f64 lanes) per 3×3 tile in the flat stream.
pub const TILE_LANES: usize = 9;

/// A [`Bcsr3`] re-laid for SIMD: column-major 9-word tiles in an aligned
/// flat stream, `u32` column indices, and a zero tail tile for overhanging
/// vector loads and prefetch.
///
/// # Examples
///
/// ```
/// use quake_sparse::bcsr::Bcsr3Builder;
/// use quake_sparse::dense::{Mat3, Vec3};
/// use quake_sparse::tiles::Bcsr3Tiles;
///
/// let mut b = Bcsr3Builder::new(2);
/// b.add_block(0, 0, Mat3::identity());
/// b.add_block(1, 1, Mat3::identity());
/// let m = b.build();
/// let tiles = Bcsr3Tiles::from_bcsr(&m);
/// assert_eq!(tiles.block_rows(), 2);
/// // Tile 0 is the identity, column-major: e0, e1, e2.
/// assert_eq!(tiles.tile(0)[0], 1.0);
/// assert_eq!(tiles.tile(0)[4], 1.0);
/// assert_eq!(tiles.tile(0)[8], 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Bcsr3Tiles {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    /// Aligned backing store; the live stream is `blocks · TILE_LANES`
    /// words plus one zero tail tile, rounded up to whole lane blocks.
    store: Vec<LaneBlock>,
    /// Number of real (non-pad) tiles.
    blocks: usize,
}

impl Bcsr3Tiles {
    /// Transposes `matrix` into the flat tile layout.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has 2³² or more block rows (the `u32` column
    /// index would overflow). Debug builds additionally run the full
    /// [`audit`](Bcsr3Tiles::audit).
    pub fn from_bcsr(matrix: &Bcsr3) -> Self {
        Self::from_blocks_where(matrix, |_, _| true)
    }

    /// Transposes the blocks `(row, col)` of `matrix` for which `keep`
    /// holds, each row in storage order.
    fn from_blocks_where(matrix: &Bcsr3, keep: impl Fn(usize, usize) -> bool) -> Self {
        let n = matrix.block_rows();
        let (src_ptr, src_col) = (matrix.row_ptr(), matrix.col_idx());
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(matrix.block_nnz());
        for r in 0..n {
            for &c in &src_col[src_ptr[r]..src_ptr[r + 1]] {
                if keep(r, c) {
                    col_idx.push(c as u32);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self::with_stream(n, row_ptr, col_idx, |values| {
            let mut tile = 0;
            for r in 0..n {
                for k in src_ptr[r]..src_ptr[r + 1] {
                    if keep(r, src_col[k]) {
                        let m = &matrix.blocks()[k].m;
                        values[tile * TILE_LANES..(tile + 1) * TILE_LANES].copy_from_slice(&[
                            m[0][0], m[1][0], m[2][0], m[0][1], m[1][1], m[2][1], m[0][2], m[1][2],
                            m[2][2],
                        ]);
                        tile += 1;
                    }
                }
            }
        })
    }

    /// Allocates the value stream for `col_idx.len()` tiles, advises the
    /// kernel to back it with huge pages, zeroes it and lets `fill` write
    /// the live tiles in order.
    ///
    /// The advice must precede the first touch: a page faulted in before
    /// it stays a 4 KB page. A sweep over the sf5 stiffness touches about
    /// 4,000 such pages per step, one TLB miss each.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit a `u32` column index.
    fn with_stream(
        n: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        fill: impl FnOnce(&mut [f64]),
    ) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "matrix with {n} block rows overflows u32 column indices"
        );
        let blocks = col_idx.len();
        // Live words + one zero tail tile, rounded up to whole LaneBlocks;
        // the tail tile doubles as the round-up slack's zero source.
        let words = blocks * TILE_LANES + TILE_LANES;
        let mut store = Vec::with_capacity(words.div_ceil(4));
        advise_huge_pages(store.as_mut_ptr() as usize, store.capacity() * STREAM_ALIGN);
        store.resize(words.div_ceil(4), LaneBlock::default());
        let mut tiles = Bcsr3Tiles {
            n,
            row_ptr,
            col_idx,
            store,
            blocks,
        };
        fill(tiles.values_mut());
        debug_assert!(tiles.audit().is_ok(), "{:?}", tiles.audit());
        tiles
    }

    /// Block-row (and block-column) count.
    #[inline]
    pub fn block_rows(&self) -> usize {
        self.n
    }

    /// Number of stored 3×3 tiles (excluding the tail pad).
    #[inline]
    pub fn block_nnz(&self) -> usize {
        self.blocks
    }

    /// Row pointers: tile `k` of row `r` satisfies
    /// `row_ptr[r] <= k < row_ptr[r + 1]`.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Block-column index per tile.
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The flat value stream: `block_nnz()` column-major 9-word tiles
    /// followed by one zero tail tile. The base pointer is 32-byte aligned.
    #[inline]
    pub fn values(&self) -> &[f64] {
        // SAFETY: LaneBlock is #[repr(C, align(32))] over [f64; 4] with no
        // padding, so a Vec<LaneBlock> of L elements is exactly 4·L
        // contiguous f64s; the slice stays within the allocation and the
        // lifetime is tied to &self.
        unsafe {
            std::slice::from_raw_parts(self.store.as_ptr() as *const f64, self.store.len() * 4)
        }
    }

    fn values_mut(&mut self) -> &mut [f64] {
        // SAFETY: as in `values`, plus exclusive access through &mut self.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.store.as_mut_ptr() as *mut f64,
                self.store.len() * 4,
            )
        }
    }

    /// Tile `k` as a column-major 9-word array.
    ///
    /// # Panics
    ///
    /// Panics if `k >= block_nnz()`.
    #[inline]
    pub fn tile(&self, k: usize) -> &[f64; 9] {
        assert!(k < self.blocks, "tile {k} out of {} blocks", self.blocks);
        let values = self.values();
        // SAFETY: the stream holds TILE_LANES words per tile plus a tail
        // tile, so indices k·9..k·9+9 are in bounds for k < blocks.
        unsafe { &*(values.as_ptr().add(k * TILE_LANES) as *const [f64; 9]) }
    }

    /// Verifies every layout invariant the SIMD kernel relies on; returns
    /// the first violation as a message. Construction debug-asserts this,
    /// so a misaligned or short stream fails loudly instead of silently
    /// producing unaligned loads or out-of-bounds prefetch.
    pub fn audit(&self) -> Result<(), String> {
        let base = self.store.as_ptr() as usize;
        if !base.is_multiple_of(STREAM_ALIGN) {
            return Err(format!(
                "tile stream base {base:#x} is not {STREAM_ALIGN}-byte aligned"
            ));
        }
        if self.row_ptr.len() != self.n + 1 {
            return Err(format!(
                "row_ptr has {} entries for {} rows",
                self.row_ptr.len(),
                self.n
            ));
        }
        if self.row_ptr[0] != 0 || self.row_ptr[self.n] != self.blocks {
            return Err("row_ptr does not span 0..block_nnz".into());
        }
        if self.row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err("row_ptr is not monotone".into());
        }
        if self.col_idx.len() != self.blocks {
            return Err("col_idx length does not match block count".into());
        }
        if let Some(&c) = self.col_idx.iter().find(|&&c| c as usize >= self.n) {
            return Err(format!("column {c} out of {} block rows", self.n));
        }
        // The stream must hold every tile plus one full tail tile...
        let need = (self.blocks + 1) * TILE_LANES;
        if self.values().len() < need {
            return Err(format!(
                "stream holds {} words; {need} required (tiles + tail pad)",
                self.values().len()
            ));
        }
        // ...and everything past the last real tile must be zero, so the
        // overhanging lane of a tail-column vector load multiplies to a
        // finite value and prefetch lands on mapped memory.
        if self.values()[self.blocks * TILE_LANES..]
            .iter()
            .any(|&v| v != 0.0)
        {
            return Err("tail pad is not zeroed".into());
        }
        Ok(())
    }
}

/// Half storage for a bitwise-symmetric [`Bcsr3`]: the upper triangle,
/// diagonal included, as a [`Bcsr3Tiles`] stream.
///
/// Every Quake stiffness is symmetric, so the lower triangle repeats the
/// upper one transposed. Dropping it almost halves the bytes an SMVP
/// streams. A kernel recovers the lower terms by scattering each upper
/// tile's transposed product into the target row. For the product to be
/// *bitwise* the full matrix's, two conditions must hold, and
/// [`SymTiles::from_bcsr`] checks both:
///
/// * every row's columns strictly ascend, so a row's terms are summed
///   lower triangle first, in ascending column order; ascending-row
///   scattering delivers them in exactly that order;
/// * every off-diagonal block is the `to_bits`-exact transpose of its
///   mirror, signed zeros included, so the transposed operands are the
///   stored ones.
///
/// The full block count is kept: flop counters still bill `18 ×` the
/// blocks the full product multiplies.
///
/// # Examples
///
/// ```
/// use quake_sparse::bcsr::Bcsr3Builder;
/// use quake_sparse::dense::Mat3;
/// use quake_sparse::tiles::SymTiles;
///
/// let m = Mat3::new([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
/// let mut b = Bcsr3Builder::new(2);
/// b.add_block(0, 0, Mat3::identity());
/// b.add_block(0, 1, m);
/// b.add_block(1, 0, m.transpose());
/// b.add_block(1, 1, Mat3::identity());
/// let sym = SymTiles::from_bcsr(&b.build()).unwrap();
/// assert_eq!(sym.block_nnz(), 4);
/// assert_eq!(sym.upper().block_nnz(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct SymTiles {
    upper: Bcsr3Tiles,
    full_blocks: usize,
}

impl SymTiles {
    /// Keeps the upper triangle of `matrix`, diagonal included.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::MalformedStructure`] if some row's columns
    /// do not strictly ascend, and [`SparseError::NotSymmetric`] if an
    /// off-diagonal block has no mirror or differs from its mirror's
    /// transpose in any bit.
    ///
    /// # Panics
    ///
    /// As [`Bcsr3Tiles::from_bcsr`].
    pub fn from_bcsr(matrix: &Bcsr3) -> Result<Self, SparseError> {
        check_bitwise_symmetric(matrix)?;
        Ok(SymTiles {
            upper: Bcsr3Tiles::from_blocks_where(matrix, |r, c| c >= r),
            full_blocks: matrix.block_nnz(),
        })
    }

    /// The lower-triangle blocks that `rows` takes from the rows below
    /// it: every full-storage block `(j, c)` with `j` in `rows` and
    /// `c < rows.start`, each row's blocks in ascending column order, as a
    /// [`Bcsr3Tiles`] over all [`block_rows`](SymTiles::block_rows) rows
    /// (rows outside `rows` are empty).
    ///
    /// Each tile is the bit-exact transpose of the stored upper tile
    /// `(c, j)`, so a product over the strip performs the full product's
    /// own operations on row `j`'s first terms. A worker that owns `rows`
    /// in a pooled half-storage product streams its strip for them, then
    /// sweeps its own upper rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` extends past the block-row count.
    pub fn cross_strip(&self, rows: Range<usize>) -> Bcsr3Tiles {
        let n = self.block_rows();
        assert!(
            rows.start <= rows.end && rows.end <= n,
            "row range {rows:?} out of bounds for {n} block rows"
        );
        let (up_ptr, up_col) = (self.upper.row_ptr(), self.upper.col_idx());
        // The upper rows `c < rows.start`, and in each the tiles whose
        // column falls in `rows`: contiguous, since columns ascend.
        let crossing = |c: usize| {
            let cols = &up_col[up_ptr[c]..up_ptr[c + 1]];
            let from = cols.partition_point(|&j| (j as usize) < rows.start);
            let to = cols.partition_point(|&j| (j as usize) < rows.end);
            up_ptr[c] + from..up_ptr[c] + to
        };
        let mut row_ptr = vec![0; n + 1];
        for c in 0..rows.start {
            for &j in &up_col[crossing(c)] {
                row_ptr[j as usize + 1] += 1;
            }
        }
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        // Visiting `c` in ascending order appends to each row `j` in
        // ascending column order.
        let mut next = row_ptr[..n].to_vec();
        let mut col_idx = vec![0u32; row_ptr[n]];
        let mut source = vec![0usize; row_ptr[n]];
        for c in 0..rows.start {
            for k in crossing(c) {
                let j = up_col[k] as usize;
                col_idx[next[j]] = c as u32;
                source[next[j]] = k;
                next[j] += 1;
            }
        }
        Bcsr3Tiles::with_stream(n, row_ptr, col_idx, |values| {
            for (tile, &k) in source.iter().enumerate() {
                let t = self.upper.tile(k);
                // Column-major (c, j) holds M[r][l] at 3l + r; its
                // transpose (j, c) holds M[l][r] there.
                values[tile * TILE_LANES..(tile + 1) * TILE_LANES]
                    .copy_from_slice(&[t[0], t[3], t[6], t[1], t[4], t[7], t[2], t[5], t[8]]);
            }
        })
    }

    /// The stored upper triangle: in each row the diagonal tile (if any)
    /// comes first, then the upper tiles in ascending column order.
    #[inline]
    pub fn upper(&self) -> &Bcsr3Tiles {
        &self.upper
    }

    /// Block-row (and block-column) count.
    #[inline]
    pub fn block_rows(&self) -> usize {
        self.upper.block_rows()
    }

    /// Blocks of the full matrix, both triangles.
    #[inline]
    pub fn block_nnz(&self) -> usize {
        self.full_blocks
    }

    /// Flops of one full product: `18 ×` [`block_nnz`](SymTiles::block_nnz),
    /// as [`Bcsr3::smvp_flops`] counts them.
    #[inline]
    pub fn smvp_flops(&self) -> u64 {
        18 * self.full_blocks as u64
    }
}

/// Asks the kernel to back the whole huge pages inside `[addr, addr +
/// len)` with transparent huge pages. It is advice: where it is refused,
/// or on a host whose THP mode is `never`, the pages stay 4 KB and nothing
/// else changes. A region smaller than a huge page gets no advice.
#[cfg(target_os = "linux")]
fn advise_huge_pages(addr: usize, len: usize) {
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    const MADV_HUGEPAGE: i32 = 14;
    /// Bytes per transparent huge page on x86-64 and aarch64 Linux.
    const HUGE_PAGE: usize = 2 << 20;
    let start = addr.next_multiple_of(HUGE_PAGE);
    let end = (addr + len) / HUGE_PAGE * HUGE_PAGE;
    if end > start {
        // SAFETY: the range lies inside one live allocation of the caller,
        // and MADV_HUGEPAGE changes only how its pages are backed, never
        // their contents or mapping.
        unsafe { madvise(start as *mut std::ffi::c_void, end - start, MADV_HUGEPAGE) };
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_addr: usize, _len: usize) {}

/// Checks that `matrix`'s rows strictly ascend and that each lower block
/// is the bitwise transpose of its upper mirror, and vice versa.
///
/// Rows are visited in ascending order. The mirror of lower block `(i, j)`
/// is the next unmatched upper block of row `j`, because row `j`'s upper
/// columns ascend and so do the rows that match them. A per-row cursor
/// therefore matches every pair in one pass, with no search.
fn check_bitwise_symmetric(matrix: &Bcsr3) -> Result<(), SparseError> {
    let (row_ptr, col_idx, blocks) = (matrix.row_ptr(), matrix.col_idx(), matrix.blocks());
    let n = matrix.block_rows();
    // cursor[j]: the first upper block of row j not yet matched.
    let mut cursor = Vec::with_capacity(n);
    for r in 0..n {
        let cols = &col_idx[row_ptr[r]..row_ptr[r + 1]];
        if cols.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SparseError::MalformedStructure(
                "row columns do not strictly ascend",
            ));
        }
        cursor.push(row_ptr[r] + cols.partition_point(|&c| c <= r));
    }
    for i in 0..n {
        for k in row_ptr[i]..row_ptr[i + 1] {
            let j = col_idx[k];
            if j >= i {
                break;
            }
            let m = cursor[j];
            if m == row_ptr[j + 1] || col_idx[m] != i {
                return Err(SparseError::NotSymmetric);
            }
            let (lower, upper) = (&blocks[k].m, &blocks[m].m);
            for r in 0..3 {
                for c in 0..3 {
                    if lower[r][c].to_bits() != upper[c][r].to_bits() {
                        return Err(SparseError::NotSymmetric);
                    }
                }
            }
            cursor[j] = m + 1;
        }
    }
    // An upper block nothing matched has no lower mirror.
    if (0..n).any(|j| cursor[j] != row_ptr[j + 1]) {
        return Err(SparseError::NotSymmetric);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcsr::Bcsr3Builder;
    use crate::dense::{Mat3, Vec3};

    fn dense_band_matrix(n: usize, half_band: usize) -> Bcsr3 {
        let mut b = Bcsr3Builder::new(n);
        for r in 0..n {
            let lo = r.saturating_sub(half_band);
            let hi = (r + half_band + 1).min(n);
            for c in lo..hi {
                let v = (r * 31 + c * 7 + 1) as f64;
                b.add_block(
                    r,
                    c,
                    Mat3::new([[v, -v, 0.5], [v * 2.0, v, -1.0], [0.0, v, v]]),
                );
            }
        }
        b.build()
    }

    #[test]
    fn tiles_transpose_blocks_column_major() {
        let mut b = Bcsr3Builder::new(2);
        let m = Mat3::new([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        b.add_block(0, 1, m);
        b.add_block(1, 0, Mat3::identity());
        let tiles = Bcsr3Tiles::from_bcsr(&b.build());
        assert_eq!(tiles.block_nnz(), 2);
        assert_eq!(tiles.col_idx(), &[1, 0]);
        // Column-major: [col0, col1, col2] of the row-major source.
        assert_eq!(
            tiles.tile(0),
            &[1.0, 4.0, 7.0, 2.0, 5.0, 8.0, 3.0, 6.0, 9.0]
        );
    }

    #[test]
    fn stream_is_aligned_and_tail_padded() {
        let m = dense_band_matrix(37, 3);
        let tiles = Bcsr3Tiles::from_bcsr(&m);
        tiles
            .audit()
            .expect("fresh tiles must pass their own audit");
        let empty = Bcsr3Tiles::from_bcsr(&Bcsr3Builder::new(0).build());
        empty.audit().expect("empty tiles are valid");
        assert_eq!(tiles.values().as_ptr() as usize % STREAM_ALIGN, 0);
        // Tail: at least one full zero tile past the last real one.
        let live = tiles.block_nnz() * TILE_LANES;
        assert!(tiles.values().len() >= live + TILE_LANES);
        assert!(tiles.values()[live..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn audit_reports_unzeroed_tail() {
        let m = dense_band_matrix(5, 1);
        let mut tiles = Bcsr3Tiles::from_bcsr(&m);
        let live = tiles.block_nnz() * TILE_LANES;
        tiles.values_mut()[live + 2] = 1.0;
        let err = tiles.audit().unwrap_err();
        assert!(err.contains("tail pad"), "unexpected audit error: {err}");
    }

    #[test]
    fn audit_reports_bad_columns() {
        let m = dense_band_matrix(5, 1);
        let mut tiles = Bcsr3Tiles::from_bcsr(&m);
        tiles.col_idx[0] = 99;
        let err = tiles.audit().unwrap_err();
        assert!(err.contains("column 99"), "unexpected audit error: {err}");
    }

    #[test]
    fn tiles_match_source_product_bitwise() {
        // Rebuilding the product from tiles (scalar, column-major order of
        // operations chosen to match Mat3::mul_vec) must be bitwise equal.
        let m = dense_band_matrix(64, 5);
        let tiles = Bcsr3Tiles::from_bcsr(&m);
        let x: Vec<Vec3> = (0..64)
            .map(|i| Vec3::new(i as f64 * 0.37, -(i as f64), 1.0 / (i + 1) as f64))
            .collect();
        let mut want = vec![Vec3::ZERO; 64];
        m.spmv(&x, &mut want).unwrap();
        let (row_ptr, col_idx, values) = (tiles.row_ptr(), tiles.col_idx(), tiles.values());
        for r in 0..64 {
            let mut acc = [0.0f64; 3];
            for k in row_ptr[r]..row_ptr[r + 1] {
                let t = &values[k * TILE_LANES..(k + 1) * TILE_LANES];
                let v = x[col_idx[k] as usize];
                for lane in 0..3 {
                    acc[lane] += t[lane] * v.x + t[3 + lane] * v.y + t[6 + lane] * v.z;
                }
            }
            assert_eq!(acc[0].to_bits(), want[r].x.to_bits(), "row {r}");
            assert_eq!(acc[1].to_bits(), want[r].y.to_bits(), "row {r}");
            assert_eq!(acc[2].to_bits(), want[r].z.to_bits(), "row {r}");
        }
    }

    /// `dense_band_matrix`'s upper triangle, mirrored: bitwise symmetric.
    fn symmetric_band_matrix(n: usize, half_band: usize) -> Bcsr3 {
        let m = dense_band_matrix(n, half_band);
        let mut b = Bcsr3Builder::new(n);
        for r in 0..n {
            for k in m.row_ptr()[r]..m.row_ptr()[r + 1] {
                let c = m.col_idx()[k];
                if c >= r {
                    b.add_block(r, c, m.blocks()[k]);
                    if c > r {
                        b.add_block(c, r, m.blocks()[k].transpose());
                    }
                }
            }
        }
        b.build()
    }

    #[test]
    fn cross_strip_holds_the_lower_blocks_from_below_bit_for_bit() {
        let full = symmetric_band_matrix(40, 4);
        let sym = SymTiles::from_bcsr(&full).expect("mirrored matrix is symmetric");
        for (lo, hi) in [(0, 40), (0, 0), (10, 25), (25, 40), (39, 40), (12, 12)] {
            let strip = sym.cross_strip(lo..hi);
            strip.audit().expect("a strip passes its audit");
            assert_eq!(strip.block_rows(), 40);
            let mut want = 0;
            for r in 0..40 {
                let cols = &strip.col_idx()[strip.row_ptr()[r]..strip.row_ptr()[r + 1]];
                let expect: Vec<u32> = if (lo..hi).contains(&r) {
                    let row = &full.col_idx()[full.row_ptr()[r]..full.row_ptr()[r + 1]];
                    row.iter().filter(|&&c| c < lo).map(|&c| c as u32).collect()
                } else {
                    Vec::new()
                };
                assert_eq!(cols, expect.as_slice(), "strip {lo}..{hi}, row {r}");
                want += expect.len();
                for (k, &c) in (strip.row_ptr()[r]..).zip(cols) {
                    let block = full.block(r, c as usize).unwrap();
                    for (col, lanes) in strip.tile(k).chunks_exact(3).enumerate() {
                        for (row, &v) in lanes.iter().enumerate() {
                            assert_eq!(v.to_bits(), block.m[row][col].to_bits());
                        }
                    }
                }
            }
            assert_eq!(strip.block_nnz(), want, "strip {lo}..{hi}");
        }
        assert_eq!(sym.cross_strip(0..40).block_nnz(), 0);
        assert!(sym.cross_strip(20..40).block_nnz() > 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn cross_strip_past_the_end_panics() {
        let sym = SymTiles::from_bcsr(&symmetric_band_matrix(8, 1)).unwrap();
        sym.cross_strip(4..9);
    }

    #[test]
    fn streams_above_a_huge_page_are_aligned_and_complete() {
        // 88,000 tiles = 6.3 MB: the store spans at least one whole 2 MB
        // page, which gets the huge-page advice before it is touched.
        let m = dense_band_matrix(8000, 5);
        let tiles = Bcsr3Tiles::from_bcsr(&m);
        assert!(tiles.values().len() * 8 > 4 << 20);
        tiles.audit().expect("a huge stream passes its audit");
        assert_eq!(
            tiles.tile(tiles.block_nnz() - 1)[0],
            m.blocks()[m.block_nnz() - 1].m[0][0]
        );
    }

    #[test]
    fn sym_tiles_keep_the_upper_triangle_in_row_order() {
        let full = symmetric_band_matrix(40, 3);
        let sym = SymTiles::from_bcsr(&full).expect("mirrored matrix is symmetric");
        assert_eq!(sym.block_nnz(), full.block_nnz());
        assert_eq!(sym.smvp_flops(), full.smvp_flops());
        let upper = sym.upper();
        upper.audit().expect("upper tiles pass their own audit");
        assert_eq!(upper.block_nnz(), (full.block_nnz() + 40) / 2);
        for r in 0..40 {
            let cols = &upper.col_idx()[upper.row_ptr()[r]..upper.row_ptr()[r + 1]];
            assert_eq!(
                cols.first(),
                Some(&(r as u32)),
                "row {r} starts at its diagonal"
            );
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {r} ascends");
            for (k, &c) in (upper.row_ptr()[r]..).zip(cols) {
                let want = full.block(r, c as usize).unwrap();
                for (col, lanes) in upper.tile(k).chunks_exact(3).enumerate() {
                    for (row, &v) in lanes.iter().enumerate() {
                        assert_eq!(v.to_bits(), want.m[row][col].to_bits());
                    }
                }
            }
        }
    }
}

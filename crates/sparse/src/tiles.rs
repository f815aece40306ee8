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
//!   unaffected. The store is allocated untouched: every live word is
//!   first written by the conversion's fill, after the advice, and only
//!   the tail pad is zeroed.
//!
//! [`SymTiles`] is the same stream over the upper triangle only, for a
//! bitwise-symmetric matrix: it streams each symmetric pair of blocks
//! once, and its construction checks the two invariants a kernel needs
//! to reproduce the full product bit for bit. Its
//! [`cross_strip`](SymTiles::cross_strip) for a row range is the small
//! full-orientation stream a worker owning those rows needs in addition,
//! to take the terms that rows below the range scatter to them.
//!
//! A [`Bcsr3`] whose owner no longer needs it converts with
//! [`SymTiles::from_bcsr_owned`], which never holds the matrix and its
//! stream at once. It fills the rows from the last to the first and, every
//! 2 MB of source consumed, cuts the source's block array to the rows
//! still to fill and shrinks it, so the allocator gets the tail back. The
//! stream's pages become resident only as the fill first writes them,
//! after the huge-page advice, so the stream grows as the source shrinks
//! and the conversion's peak is the source plus about one huge page. The
//! words written are those of [`SymTiles::from_bcsr`], which shares the
//! per-row fill.

use crate::bcsr::Bcsr3;
use crate::dense::Mat3;
use crate::error::SparseError;
use std::mem::MaybeUninit;
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
        let col_idx = matrix.col_idx().iter().map(|&c| c as u32).collect();
        let row_ptr = matrix.row_ptr().to_vec();
        // SAFETY: one tile per block, and the fill writes every block.
        unsafe {
            Self::with_stream(matrix.block_rows(), row_ptr, col_idx, |_, values| {
                write_tiles(values, 0, matrix.blocks())
            })
        }
    }

    /// Allocates the value stream for `col_idx.len()` tiles, advises the
    /// kernel to back it with huge pages, lets `fill` write the live tiles
    /// and zeroes the tail pad.
    ///
    /// `fill` receives the stream's row pointers and its live words.
    /// Nothing else touches the live words, so each page of the stream is
    /// first touched by `fill`, after the advice: a page faulted in before
    /// it stays a 4 KB page (a sweep over the sf5 stiffness touches about
    /// 4,000 such pages per step, one TLB miss each), and a page `fill`
    /// has not reached yet is not resident.
    ///
    /// # Safety
    ///
    /// Unless it panics, `fill` must write every word of the slice it
    /// receives: the stream is read as initialised `f64`s afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit a `u32` column index.
    unsafe fn with_stream(
        n: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        fill: impl FnOnce(&[usize], &mut [MaybeUninit<f64>]),
    ) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "matrix with {n} block rows overflows u32 column indices"
        );
        let blocks = col_idx.len();
        // Live words + one zero tail tile, rounded up to whole LaneBlocks;
        // everything past the live words (the pad) is zero.
        let live = blocks * TILE_LANES;
        let lanes = (live + TILE_LANES).div_ceil(4);
        let mut store = Vec::with_capacity(lanes);
        advise_huge_pages(store.as_mut_ptr() as usize, store.capacity() * STREAM_ALIGN);
        let spare = &mut store.spare_capacity_mut()[..lanes];
        // SAFETY: MaybeUninit<LaneBlock> has LaneBlock's layout, four f64s
        // with no padding, so `lanes` of them are exactly `4 · lanes`
        // contiguous MaybeUninit<f64>s inside the allocation.
        let values = unsafe {
            std::slice::from_raw_parts_mut(spare.as_mut_ptr().cast::<MaybeUninit<f64>>(), lanes * 4)
        };
        let (words, pad) = values.split_at_mut(live);
        fill(&row_ptr, words);
        pad.fill(MaybeUninit::new(0.0));
        // SAFETY: `fill` wrote every live word (the caller's contract) and
        // the pad is zeroed, so the first `lanes` LaneBlocks are initialised.
        unsafe { store.set_len(lanes) };
        let tiles = Bcsr3Tiles {
            n,
            row_ptr,
            col_idx,
            store,
            blocks,
        };
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

    #[cfg(test)]
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
        let (n, row_ptr) = (matrix.block_rows(), matrix.row_ptr());
        let (up_ptr, up_col) = upper_pattern(n, row_ptr, matrix.col_idx());
        // SAFETY: row r writes tiles up_ptr[r]..up_ptr[r + 1], and the rows
        // cover every tile.
        let upper = unsafe {
            Bcsr3Tiles::with_stream(n, up_ptr, up_col, |up_ptr, values| {
                for r in 0..n {
                    fill_upper_row(values, up_ptr, r, row_ptr[r + 1], matrix.blocks());
                }
            })
        };
        Ok(SymTiles {
            upper,
            full_blocks: matrix.block_nnz(),
        })
    }

    /// As [`from_bcsr`](SymTiles::from_bcsr), but consumes `matrix` and
    /// releases it while the stream fills, so the two are never resident
    /// together: the conversion's peak is the source plus about 2 MB
    /// instead of the source plus the whole stream.
    ///
    /// The rows are filled from the last to the first. Each time the
    /// blocks consumed since the last release reach 2 MB (one huge page),
    /// the source's block array is cut to the rows not yet filled and
    /// shrunk, which hands its tail back to the allocator (glibc shrinks
    /// a large, `mmap`-backed block in place with `mremap`). The stream's
    /// pages are first touched as the fill reaches them, so its resident
    /// size grows only as the source's shrinks. The stream written is the
    /// one `from_bcsr` writes, word for word.
    ///
    /// # Errors
    ///
    /// As [`from_bcsr`](SymTiles::from_bcsr); the checks run on the intact
    /// matrix before anything is released.
    ///
    /// # Panics
    ///
    /// As [`Bcsr3Tiles::from_bcsr`].
    pub fn from_bcsr_owned(matrix: Bcsr3) -> Result<Self, SparseError> {
        check_bitwise_symmetric(&matrix)?;
        let full_blocks = matrix.block_nnz();
        let (n, row_ptr, col_idx, mut blocks) = matrix.into_parts();
        let (up_ptr, up_col) = upper_pattern(n, &row_ptr, &col_idx);
        drop(col_idx);
        let chunk = RELEASE_BYTES / std::mem::size_of::<Mat3>();
        // SAFETY: as in `from_bcsr`, in the opposite row order. A row's
        // source blocks are released only after the row is written.
        let upper = unsafe {
            Bcsr3Tiles::with_stream(n, up_ptr, up_col, |up_ptr, values| {
                for r in (0..n).rev() {
                    fill_upper_row(values, up_ptr, r, row_ptr[r + 1], &blocks);
                    if blocks.len() - row_ptr[r] >= chunk {
                        blocks.truncate(row_ptr[r]);
                        blocks.shrink_to_fit();
                    }
                }
            })
        };
        Ok(SymTiles { upper, full_blocks })
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
        // SAFETY: `source` holds one entry per tile, and each writes its
        // whole tile.
        unsafe {
            Bcsr3Tiles::with_stream(n, row_ptr, col_idx, |_, values| {
                for (tile, &k) in values.chunks_exact_mut(TILE_LANES).zip(&source) {
                    let t = self.upper.tile(k);
                    // Column-major (c, j) holds M[r][l] at 3l + r; its
                    // transpose (j, c) holds M[l][r] there.
                    tile.copy_from_slice(
                        &[t[0], t[3], t[6], t[1], t[4], t[7], t[2], t[5], t[8]]
                            .map(MaybeUninit::new),
                    );
                }
            })
        }
    }

    /// The full matrix this half storage was built from, word for word:
    /// the inverse of [`from_bcsr`](SymTiles::from_bcsr) and
    /// [`from_bcsr_owned`](SymTiles::from_bcsr_owned).
    ///
    /// Row `r` is its lower blocks, the bit-exact transposes of the upper
    /// tiles `(c, r)` in ascending `c`, then its stored upper tiles. The
    /// source's rows held exactly these columns in this order, since its
    /// columns ascend and every lower block mirrors an upper one.
    pub fn to_bcsr(&self) -> Bcsr3 {
        let n = self.block_rows();
        let (up_ptr, up_col) = (self.upper.row_ptr(), self.upper.col_idx());
        let mut row_ptr = vec![0; n + 1];
        for r in 0..n {
            row_ptr[r + 1] += up_ptr[r + 1] - up_ptr[r];
            for &j in &up_col[up_ptr[r]..up_ptr[r + 1]] {
                if j as usize != r {
                    row_ptr[j as usize + 1] += 1;
                }
            }
        }
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        // Visiting rows in ascending order gives each row its lower blocks
        // in ascending column order before it appends its own upper tiles.
        let mut next = row_ptr[..n].to_vec();
        let mut col_idx = vec![0; self.full_blocks];
        let mut blocks = vec![Mat3::ZERO; self.full_blocks];
        for c in 0..n {
            for k in up_ptr[c]..up_ptr[c + 1] {
                let j = up_col[k] as usize;
                // Column-major (c, j) holds M[r][l] at 3l + r.
                let t = self.upper.tile(k);
                col_idx[next[c]] = j;
                blocks[next[c]] =
                    Mat3::new([[t[0], t[3], t[6]], [t[1], t[4], t[7]], [t[2], t[5], t[8]]]);
                next[c] += 1;
                if j != c {
                    col_idx[next[j]] = c;
                    blocks[next[j]] =
                        Mat3::new([[t[0], t[1], t[2]], [t[3], t[4], t[5]], [t[6], t[7], t[8]]]);
                    next[j] += 1;
                }
            }
        }
        Bcsr3::from_parts(n, row_ptr, col_idx, blocks)
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

/// Source bytes [`SymTiles::from_bcsr_owned`] consumes between two
/// releases: the most of the matrix it holds twice, once in each layout.
const RELEASE_BYTES: usize = 2 << 20;

/// Writes `blocks` as consecutive column-major tiles from tile `first` on.
fn write_tiles(values: &mut [MaybeUninit<f64>], first: usize, blocks: &[Mat3]) {
    let words = &mut values[first * TILE_LANES..(first + blocks.len()) * TILE_LANES];
    for (tile, block) in words.chunks_exact_mut(TILE_LANES).zip(blocks) {
        let m = &block.m;
        tile.copy_from_slice(
            &[
                m[0][0], m[1][0], m[2][0], m[0][1], m[1][1], m[2][1], m[0][2], m[1][2], m[2][2],
            ]
            .map(MaybeUninit::new),
        );
    }
}

/// The upper triangle's row pointers and columns, diagonal included. Row
/// `r` keeps the suffix of its columns from the first `c ≥ r` on, since
/// the columns ascend (as [`check_bitwise_symmetric`] checks).
fn upper_pattern(n: usize, row_ptr: &[usize], col_idx: &[usize]) -> (Vec<usize>, Vec<u32>) {
    let upper = |r: usize| {
        let cols = &col_idx[row_ptr[r]..row_ptr[r + 1]];
        &cols[cols.partition_point(|&c| c < r)..]
    };
    let mut up_ptr = Vec::with_capacity(n + 1);
    up_ptr.push(0);
    for r in 0..n {
        up_ptr.push(up_ptr[r] + upper(r).len());
    }
    let mut up_col = Vec::with_capacity(up_ptr[n]);
    for r in 0..n {
        up_col.extend(upper(r).iter().map(|&c| c as u32));
    }
    (up_ptr, up_col)
}

/// Writes row `r`'s upper tiles: the last `up_ptr[r + 1] - up_ptr[r]`
/// source blocks before `row_end`, the end of row `r` in `blocks`.
fn fill_upper_row(
    values: &mut [MaybeUninit<f64>],
    up_ptr: &[usize],
    r: usize,
    row_end: usize,
    blocks: &[Mat3],
) {
    let len = up_ptr[r + 1] - up_ptr[r];
    write_tiles(values, up_ptr[r], &blocks[row_end - len..row_end]);
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

    /// A bitwise-symmetric matrix over `n` rows drawn from `seed`: some
    /// rows empty, some holding only their diagonal, the rest coupled to
    /// a few random columns, with signed zeros among the entries.
    fn random_symmetric_matrix(n: usize, seed: u64) -> Bcsr3 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        let block = |next: &mut dyn FnMut(u64) -> u64| {
            let mut m = [[0.0; 3]; 3];
            for v in m.iter_mut().flatten() {
                *v = match next(10) {
                    0 => 0.0,
                    1 => -0.0,
                    k => k as f64 * 0.37 - 2.0,
                };
            }
            Mat3::new(m)
        };
        // 0: empty, 1: diagonal only, 2+: coupled.
        let kinds: Vec<u64> = (0..n).map(|_| next(5)).collect();
        let mut b = Bcsr3Builder::new(n);
        for r in 0..n {
            if kinds[r] > 0 {
                b.add_block(r, r, block(&mut next));
            }
            if kinds[r] < 2 {
                continue;
            }
            for c in r + 1..n {
                if kinds[c] >= 2 && next(4) == 0 {
                    let m = block(&mut next);
                    b.add_block(r, c, m);
                    b.add_block(c, r, m.transpose());
                }
            }
        }
        b.build()
    }

    /// Asserts that two half-storage streams are the same word for word:
    /// pattern, every value word including the tail pad, and counts.
    fn assert_same_stream(got: &SymTiles, want: &SymTiles, what: &str) {
        let (g, w) = (got.upper(), want.upper());
        g.audit().unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(g.block_rows(), w.block_rows(), "{what}: rows");
        assert_eq!(g.row_ptr(), w.row_ptr(), "{what}: row_ptr");
        assert_eq!(g.col_idx(), w.col_idx(), "{what}: col_idx");
        assert_eq!(g.block_nnz(), w.block_nnz(), "{what}: upper blocks");
        assert_eq!(got.block_nnz(), want.block_nnz(), "{what}: full blocks");
        assert_eq!(g.values().len(), w.values().len(), "{what}: stream words");
        for (k, (a, b)) in g.values().iter().zip(w.values()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: word {k}");
        }
    }

    #[test]
    fn owned_conversion_writes_the_borrowed_stream_word_for_word() {
        let mut cases = vec![
            ("band 40/3".to_string(), symmetric_band_matrix(40, 3)),
            ("band 1/0".to_string(), symmetric_band_matrix(1, 0)),
            ("band 2/1".to_string(), symmetric_band_matrix(2, 1)),
            ("empty".to_string(), Bcsr3Builder::new(0).build()),
            ("rows, no blocks".to_string(), Bcsr3Builder::new(3).build()),
        ];
        for (n, seed) in [(0, 1), (1, 2), (2, 3), (2, 4), (17, 5), (60, 6), (200, 7)] {
            cases.push((
                format!("random n = {n}, seed {seed}"),
                random_symmetric_matrix(n, seed),
            ));
        }
        // 144,000 blocks, 10 MB: the owned path releases its source five
        // times, at row boundaries that fall mid-chunk.
        let big = symmetric_band_matrix(16_000, 4);
        assert!(big.block_nnz() * std::mem::size_of::<Mat3>() > 4 * RELEASE_BYTES);
        cases.push(("band 16000/4".to_string(), big));
        for (what, m) in cases {
            let want = SymTiles::from_bcsr(&m).expect("generated matrix is symmetric");
            let got = SymTiles::from_bcsr_owned(m).expect("generated matrix is symmetric");
            assert_same_stream(&got, &want, &what);
        }
    }

    #[test]
    fn owned_conversion_rejects_what_the_borrowed_one_rejects() {
        let m = Mat3::new([[1.0, 0.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        let mut b = Bcsr3Builder::new(3);
        b.add_block(0, 0, Mat3::identity());
        b.add_block(0, 2, m);
        b.add_block(2, 0, m.transpose());
        b.add_block(2, 2, Mat3::identity());
        let ok = b.build();
        assert!(SymTiles::from_bcsr_owned(ok.clone()).is_ok());
        // One bit off: the sign of a zero in the mirror.
        let mut b = Bcsr3Builder::new(3);
        let mut signed = m.transpose();
        signed.m[1][0] = -0.0;
        b.add_block(0, 0, Mat3::identity());
        b.add_block(0, 2, m);
        b.add_block(2, 0, signed);
        b.add_block(2, 2, Mat3::identity());
        assert_eq!(
            SymTiles::from_bcsr_owned(b.build()).unwrap_err(),
            SparseError::NotSymmetric
        );
        // Rows whose columns descend.
        let unsorted = ok.permute_symmetric_stable(&[2, 1, 0]).unwrap();
        assert!(matches!(
            SymTiles::from_bcsr_owned(unsorted),
            Err(SparseError::MalformedStructure(_))
        ));
    }

    /// Asserts that two matrices hold the same words: structure and every
    /// block bit, signed zeros included.
    fn assert_same_matrix(got: &Bcsr3, want: &Bcsr3, what: &str) {
        assert_eq!(got.block_rows(), want.block_rows(), "{what}: rows");
        assert_eq!(got.row_ptr(), want.row_ptr(), "{what}: row_ptr");
        assert_eq!(got.col_idx(), want.col_idx(), "{what}: col_idx");
        for (k, (a, b)) in got.blocks().iter().zip(want.blocks()).enumerate() {
            for (x, y) in a.m.iter().flatten().zip(b.m.iter().flatten()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: block {k}");
            }
        }
    }

    #[test]
    fn expansion_gives_back_the_source_word_for_word() {
        let mut cases = vec![
            ("band 40/3".to_string(), symmetric_band_matrix(40, 3)),
            ("band 1/0".to_string(), symmetric_band_matrix(1, 0)),
            ("band 300/7".to_string(), symmetric_band_matrix(300, 7)),
            ("empty".to_string(), Bcsr3Builder::new(0).build()),
            ("rows, no blocks".to_string(), Bcsr3Builder::new(3).build()),
        ];
        for (n, seed) in [(1, 2), (2, 3), (17, 5), (60, 6), (200, 7)] {
            cases.push((
                format!("random n = {n}, seed {seed}"),
                random_symmetric_matrix(n, seed),
            ));
        }
        for (what, m) in cases {
            let borrowed = SymTiles::from_bcsr(&m).expect("generated matrix is symmetric");
            assert_same_matrix(&borrowed.to_bcsr(), &m, &format!("{what}, from_bcsr"));
            let owned =
                SymTiles::from_bcsr_owned(m.clone()).expect("generated matrix is symmetric");
            assert_same_matrix(&owned.to_bcsr(), &m, &format!("{what}, from_bcsr_owned"));
            // And back: the expansion converts to the same stream.
            let again = SymTiles::from_bcsr_owned(owned.to_bcsr()).expect("expansion is symmetric");
            assert_same_stream(&again, &owned, &format!("{what}, round trip"));
        }
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

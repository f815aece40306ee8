//! The scalar 3×3 block SMVP kernel and the pooled row split.
//!
//! [`bmv_range_into`] multiplies a contiguous block-row range of a
//! [`Bcsr3`] through a register-blocked 3×3 microkernel. It is the bitwise
//! oracle for the tile kernels in [`crate::tile_kernels`], which the time
//! loop and the executor run. [`broadcast_rows`] is the row-parallel
//! skeleton of every pooled product: one [`WorkerPool::broadcast`] batch,
//! each worker writing its own contiguous chunk of the output, with chunk
//! geometry computed arithmetically by [`worker_rows`] so the steady-state
//! product never touches the allocator.

use crate::pool::WorkerPool;
use quake_sparse::bcsr::Bcsr3;
use quake_sparse::dense::{Mat3, Vec3};

/// A raw pointer that may cross thread boundaries.
///
/// Used to hand each worker of a shared broadcast closure its own
/// *disjoint* region of one output buffer without materializing per-worker
/// `&mut` slices (which a shared `Fn` closure cannot hold). Every use site
/// is responsible for disjointness and documents its argument.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);

// SAFETY: the pointer is only dereferenced inside broadcast batches whose
// workers write disjoint index ranges, and every batch is a full barrier
// before the underlying buffer is touched again.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// The rows of `0..n` that worker `w` of `threads` owns in
/// [`broadcast_rows`]: the `w`-th of `threads` near-equal contiguous
/// chunks, computed arithmetically so hot closures can derive their range
/// without allocating a chunk list. The chunks for `w < threads` cover
/// `0..n` exactly once; when `threads > n` the excess chunks are empty.
pub fn worker_rows(n: usize, threads: usize, w: usize) -> std::ops::Range<usize> {
    debug_assert!(threads > 0, "worker_rows needs at least one worker");
    debug_assert!(w < threads, "worker index out of range");
    (n * w / threads)..(n * (w + 1) / threads)
}

/// `y = K x` over a persistent [`WorkerPool`] with the scalar microkernel:
/// one broadcast batch, zero heap allocations per call after pool warmup.
/// perfbench's `kernel.global` rung is its only caller; the program runs
/// [`crate::tile_kernels::bmv_tiles_range_into`] over the same split
/// instead.
///
/// # Panics
///
/// Panics if `x.len()` or `y.len()` does not match the block-row count.
pub fn bmv_pooled_into(matrix: &Bcsr3, x: &[Vec3], pool: &WorkerPool, y: &mut [Vec3]) {
    assert_eq!(
        x.len(),
        matrix.block_rows(),
        "x length must match block rows"
    );
    assert_eq!(
        y.len(),
        matrix.block_rows(),
        "y length must match block rows"
    );
    broadcast_rows(pool, y, &mut vec![(); pool.threads()], |rows, out, _| {
        bmv_range_into(matrix, x, rows, out)
    });
}

/// Runs `f(rows, &mut out[rows], &mut state[w])` once on every worker `w`
/// of `pool`, where `rows` is [`worker_rows`]`(out.len(), threads, w)`
/// (empty when there are more workers than rows) — one broadcast batch, a
/// full barrier, nothing allocated. `state` carries one value per worker,
/// such as a [`SymBand`](crate::tile_kernels::SymBand) built for that
/// worker's rows; pass `&mut vec![(); threads]` (which does not allocate)
/// when there is none. This is the row-parallel skeleton of
/// [`bmv_pooled_into`] and of the time step's fused product-plus-update.
///
/// # Panics
///
/// Panics if `state` does not hold one entry per worker.
pub fn broadcast_rows<T: Send, S: Send>(
    pool: &WorkerPool,
    out: &mut [T],
    state: &mut [S],
    f: impl Fn(std::ops::Range<usize>, &mut [T], &mut S) + Sync,
) {
    let n = out.len();
    let threads = pool.threads();
    assert_eq!(state.len(), threads, "state must hold one entry per worker");
    let out_ptr = SendPtr(out.as_mut_ptr());
    let state_ptr = SendPtr(state.as_mut_ptr());
    pool.broadcast(&|w| {
        let rows = worker_rows(n, threads, w);
        // SAFETY: worker_rows partitions 0..n, so workers get disjoint
        // ranges of `out`, and worker w alone touches `state[w]`; the
        // broadcast barrier ends every access before the caller's `&mut`
        // borrows are used again.
        let (mine, st) = unsafe {
            (
                std::slice::from_raw_parts_mut(out_ptr.get().add(rows.start), rows.len()),
                &mut *state_ptr.get().add(w),
            )
        };
        f(rows, mine, st);
    });
}

/// SMVP over the contiguous block-row range `rows`, through the
/// register-blocked 3×3 microkernel. `out` holds exactly one [`Vec3`] per
/// row of the range (`out[i - rows.start]` is row `i`'s result); `x` spans
/// the full matrix. This is the inner kernel of [`bmv_pooled_into`] and the
/// oracle every tile kernel is tested against over the full range.
///
/// The microkernel walks each row's blocks as one sequential stream over
/// the flat `[f64; 9]` tile of each [`Mat3`] ([`Mat3::as_flat`]) with
/// three independent accumulator lanes held in registers — enough ILP to
/// keep the FMA ports busy without breaking the streaming access pattern
/// (a two-row lockstep variant measured ~10% slower on meshes that spill
/// the last-level cache, because it interleaves two block streams). Each
/// row's accumulation order is identical to [`Bcsr3::spmv`], so the
/// result is **bitwise**-equal to the scalar path (the overlapped
/// executor's equality proof depends on this).
///
/// # Panics
///
/// Panics if `rows` extends past the block-row count, `x.len()` does not
/// match the block-row count, or `out.len() != rows.len()`.
pub fn bmv_range_into(matrix: &Bcsr3, x: &[Vec3], rows: std::ops::Range<usize>, out: &mut [Vec3]) {
    let n = matrix.block_rows();
    assert!(
        rows.start <= rows.end && rows.end <= n,
        "row range {rows:?} out of bounds for {n} block rows"
    );
    assert_eq!(x.len(), n, "x length must match block rows");
    assert_eq!(out.len(), rows.len(), "out length must match the row range");
    let row_ptr = matrix.row_ptr();
    let col_idx = matrix.col_idx();
    let blocks = matrix.blocks();
    // SAFETY (whole loop): Bcsr3 construction guarantees `row_ptr` is
    // monotone with `row_ptr[n] == block_nnz` and every `col_idx[k] < n ==
    // x.len()` (asserted above); `r` stays inside `rows`, which the entry
    // assertions bound by `n` and `out.len()`.
    for r in rows.clone() {
        unsafe {
            let mut acc = [0.0f64; 3];
            for k in *row_ptr.get_unchecked(r)..*row_ptr.get_unchecked(r + 1) {
                micro_3x3(blocks, col_idx, x, k, &mut acc);
            }
            *out.get_unchecked_mut(r - rows.start) = Vec3::new(acc[0], acc[1], acc[2]);
        }
    }
}

/// One 3×3 block × vector multiply-accumulate over the flat 9-tile.
///
/// Each lane computes `acc += (t·vx + t·vy) + t·vz` with exactly the
/// association of [`Mat3::mul_vec`](quake_sparse::dense::Mat3::mul_vec)
/// followed by `+=` — re-associating (e.g. per-term accumulators) would
/// break the bitwise contract with [`Bcsr3::spmv`].
///
/// # Safety
///
/// `k` must index `blocks` and `col_idx`, and `col_idx[k]` must index `x` —
/// guaranteed by `Bcsr3`'s construction invariants when `k` lies between
/// valid `row_ptr` entries.
#[inline(always)]
unsafe fn micro_3x3(blocks: &[Mat3], col_idx: &[usize], x: &[Vec3], k: usize, acc: &mut [f64; 3]) {
    let t = blocks.get_unchecked(k).as_flat();
    let v = *x.get_unchecked(*col_idx.get_unchecked(k));
    acc[0] += t[0] * v.x + t[1] * v.y + t[2] * v.z;
    acc[1] += t[3] * v.x + t[4] * v.y + t[5] * v.z;
    acc[2] += t[6] * v.x + t[7] * v.y + t[8] * v.z;
}

#[cfg(test)]
mod tests {
    use super::*;
    use quake_sparse::bcsr::Bcsr3Builder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn worker_rows_partition_rows() {
        for (n, parts) in [(10, 3), (3, 8), (0, 4), (16, 16), (7, 1)] {
            let mut covered = Vec::new();
            for k in 0..parts {
                covered.extend(worker_rows(n, parts, k));
            }
            assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} parts={parts}");
        }
    }

    fn random_bcsr(n: usize, seed: u64) -> (Bcsr3, Vec<Vec3>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = Bcsr3Builder::new(n);
        for i in 0..n {
            b.add_block(i, i, Mat3::identity() * (2.0 + rng.gen::<f64>()));
            for _ in 0..rng.gen_range(0..5) {
                let j = rng.gen_range(0..n);
                let m = Mat3::outer(
                    Vec3::new(rng.gen(), rng.gen(), rng.gen()),
                    Vec3::new(rng.gen(), rng.gen(), rng.gen()),
                );
                b.add_block(i, j, m);
            }
        }
        let matrix = b.build();
        let x: Vec<Vec3> = (0..n)
            .map(|_| Vec3::new(rng.gen::<f64>() - 0.5, rng.gen(), rng.gen()))
            .collect();
        (matrix, x)
    }

    fn assert_vec3_bits_eq(a: &[Vec3], b: &[Vec3], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (i, (p, q)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()],
                [q.x.to_bits(), q.y.to_bits(), q.z.to_bits()],
                "{what}: row {i} differs bitwise"
            );
        }
    }

    #[test]
    fn bmv_range_full_range_is_bitwise_equal_to_spmv() {
        let (matrix, x) = random_bcsr(97, 21);
        let reference = matrix.spmv_alloc(&x).unwrap();
        let mut out = vec![Vec3::ZERO; 97];
        bmv_range_into(&matrix, &x, 0..97, &mut out);
        assert_vec3_bits_eq(&reference, &out, "full range");
    }

    #[test]
    fn bmv_range_empty_range_is_a_noop() {
        let (matrix, x) = random_bcsr(16, 22);
        let mut out: Vec<Vec3> = Vec::new();
        bmv_range_into(&matrix, &x, 7..7, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn bmv_range_single_row_matches_that_row_only() {
        let (matrix, x) = random_bcsr(33, 23);
        let reference = matrix.spmv_alloc(&x).unwrap();
        for r in [0usize, 16, 32] {
            let mut out = vec![Vec3::new(f64::NAN, f64::NAN, f64::NAN); 1];
            bmv_range_into(&matrix, &x, r..r + 1, &mut out);
            assert_vec3_bits_eq(&reference[r..r + 1], &out, "single row");
        }
    }

    #[test]
    fn bmv_range_arbitrary_splits_tile_the_product_bitwise() {
        let (matrix, x) = random_bcsr(61, 24);
        let reference = matrix.spmv_alloc(&x).unwrap();
        for cuts in [vec![0, 61], vec![0, 1, 61], vec![0, 13, 14, 40, 61]] {
            let mut out = vec![Vec3::ZERO; 61];
            for w in cuts.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                bmv_range_into(&matrix, &x, lo..hi, &mut out[lo..hi]);
            }
            assert_vec3_bits_eq(&reference, &out, "tiled ranges");
        }
    }

    #[test]
    #[should_panic(expected = "row range")]
    fn bmv_range_rejects_out_of_bounds_rows() {
        let (matrix, x) = random_bcsr(8, 26);
        let mut out = vec![Vec3::ZERO; 2];
        bmv_range_into(&matrix, &x, 7..9, &mut out);
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn bmv_pooled_wrong_x_length_panics() {
        let matrix = Bcsr3Builder::new(3).build();
        let mut y = vec![Vec3::ZERO; 3];
        bmv_pooled_into(&matrix, &[Vec3::ZERO], &WorkerPool::new(2), &mut y);
    }
}

//! Spark98-style SMVP kernels.
//!
//! The paper's postscript points to Spark98, "a collection of 10 portable
//! sequential and parallel SMVP kernels". This module rebuilds the
//! shared-memory members of that family over the symmetric stiffness
//! matrices of this reproduction:
//!
//! * [`smv`] — sequential symmetric SMVP (the baseline);
//! * [`lmv`] — threaded, scattered `y` updates guarded by per-entry locks
//!   (Spark98's LMV);
//! * [`rmv`] — threaded, private per-thread `y` buffers combined by a
//!   parallel tree reduction (Spark98's RMV);
//! * [`pmv`] — threaded row-parallel product over the *full* (non-symmetric
//!   storage) matrix: no conflicts, double the memory traffic;
//! * [`bmv`] — threaded block-row-parallel product over 3×3-block CSR,
//!   the layout the Quake stiffness matrices actually use.
//!
//! All kernels compute exactly the same `y = Kx`; the benches compare their
//! throughput, reproducing the classic locks-vs-reduction tradeoff.
//!
//! # Allocation-free hot path
//!
//! Every kernel comes in two forms: an allocating convenience wrapper
//! (`rmv`, …) that returns a fresh `Vec`, and an in-place `_into` variant
//! (`rmv_into`, …) that writes into a caller-owned output and draws its
//! scratch space from a reusable [`KernelWorkspace`]. The `_into` +
//! `*_pooled` combination ([`rmv_pooled_into`], [`pmv_pooled_into`],
//! [`bmv_pooled_into`]) is the executor-grade path: after warmup it
//! performs **zero heap allocations per product** — workspace buffers are
//! zeroed in place, work is dispatched over [`WorkerPool::broadcast`] (one
//! shared closure per batch, nothing boxed), and chunk geometry is computed
//! arithmetically by [`chunk_range`] instead of materializing a chunk list.
//! That matters because the paper's time loop repeats the SMVP 6000 times:
//! any per-call allocation shows up in the measured `T_f` as allocator
//! noise rather than memory-system behaviour.

use crate::pool::{BatchFn, WorkerPool};
use crate::workspace::KernelWorkspace;
use quake_sparse::bcsr::Bcsr3;
use quake_sparse::csr::Csr;
use quake_sparse::dense::{Mat3, Vec3};
use quake_sparse::sym::{SymCsr, SymParts};

/// A raw pointer that may cross thread boundaries.
///
/// Used to hand each worker of a shared [`BatchFn`] closure its own
/// *disjoint* region of one output or scratch buffer without materializing
/// per-worker `&mut` slices (which a shared `Fn` closure cannot hold).
/// Every use site is responsible for disjointness; each documents its
/// argument.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);

// SAFETY: the pointer is only dereferenced inside kernel batches whose
// workers write disjoint index ranges, and every batch is a full barrier
// before the underlying buffer is touched again.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// The `k`-th of `parts` near-equal contiguous chunks of `0..n`, computed
/// arithmetically so hot closures can derive their row range without
/// allocating a chunk list. Chunks for `k < parts` cover `0..n` exactly
/// once; when `parts > n` the excess chunks are empty.
pub(crate) fn chunk_range(n: usize, parts: usize, k: usize) -> std::ops::Range<usize> {
    debug_assert!(parts > 0, "chunk_range needs at least one part");
    debug_assert!(k < parts, "chunk index out of range");
    (n * k / parts)..(n * (k + 1) / parts)
}

/// Splits `n` rows into at most `threads` contiguous non-empty chunks of
/// near-equal size. Returns an empty list for `n == 0` (there are no rows
/// to chunk — callers iterate the list, so zero chunks means zero work).
fn row_chunks(n: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = threads.max(1).min(n);
    (0..parts).map(|k| chunk_range(n, parts, k)).collect()
}

/// Scatters the symmetric contributions of `rows` into `buf`: for each row
/// `r`, `buf[r] += (Kx)[r]`'s upper-triangle terms and `buf[c] += v·x[r]`
/// for every stored `(r, c)` (the transpose term). `buf` must be zeroed
/// beforehand over every column it can touch.
///
/// The inner loop uses unchecked indexing: [`SymCsr`] construction
/// guarantees `row_ptr` is monotone with `row_ptr[dim]` equal to the
/// stored-entry count and every stored column index `< dim`, and callers
/// assert `x.len() == buf.len() == dim`. The allocating PR-1-era kernels
/// kept per-access bounds checks; dropping them on this gather/scatter —
/// the innermost loop of the paper's 6000-step workload — is part of the
/// in-place hot path's measured advantage.
#[inline]
fn scatter_sym_rows(full: &SymParts<'_>, x: &[f64], buf: &mut [f64], rows: std::ops::Range<usize>) {
    debug_assert_eq!(x.len(), buf.len());
    debug_assert_eq!(x.len() + 1, full.row_ptr.len());
    debug_assert!(rows.end <= x.len());
    for r in rows {
        // SAFETY: see above — every index is validated at construction.
        unsafe {
            let xr = *x.get_unchecked(r);
            let mut local = *full.diag.get_unchecked(r) * xr;
            for k in *full.row_ptr.get_unchecked(r)..*full.row_ptr.get_unchecked(r + 1) {
                let c = *full.col_idx.get_unchecked(k);
                let v = *full.values.get_unchecked(k);
                local += v * *x.get_unchecked(c);
                *buf.get_unchecked_mut(c) += v * xr;
            }
            *buf.get_unchecked_mut(r) += local;
        }
    }
}

/// Sequential symmetric SMVP (baseline).
///
/// # Panics
///
/// Panics if `x.len()` does not match the matrix dimension.
pub fn smv(matrix: &SymCsr, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; matrix.dim()];
    smv_into(matrix, x, &mut y);
    y
}

/// In-place [`smv`]: writes `y = Kx` into a caller-owned buffer.
///
/// # Panics
///
/// Panics if `x.len()` or `y.len()` does not match the matrix dimension.
pub fn smv_into(matrix: &SymCsr, x: &[f64], y: &mut [f64]) {
    assert_eq!(
        x.len(),
        matrix.dim(),
        "x length must match matrix dimension"
    );
    assert_eq!(
        y.len(),
        matrix.dim(),
        "y length must match matrix dimension"
    );
    matrix.spmv(x, y).expect("dimensions asserted above");
}

/// Threaded symmetric SMVP with per-entry locks on the scattered updates.
///
/// Each thread owns a contiguous row range; the transpose contribution
/// `y[c] += v·x[r]` may target any row, so each `y` entry is a mutex.
///
/// # Panics
///
/// Panics if `x.len()` does not match the matrix dimension or
/// `threads == 0`.
pub fn lmv(matrix: &SymCsr, x: &[f64], threads: usize) -> Vec<f64> {
    let mut y = vec![0.0; matrix.dim()];
    let mut ws = KernelWorkspace::new();
    lmv_into(matrix, x, threads, &mut y, &mut ws);
    y
}

/// In-place [`lmv`]: accumulates into lock cells owned by `ws` (zeroed in
/// place, reused across calls), then copies the result into `y`.
///
/// # Panics
///
/// Panics if `x.len()` or `y.len()` does not match the matrix dimension or
/// `threads == 0`.
pub fn lmv_into(
    matrix: &SymCsr,
    x: &[f64],
    threads: usize,
    y: &mut [f64],
    ws: &mut KernelWorkspace,
) {
    assert_eq!(
        x.len(),
        matrix.dim(),
        "x length must match matrix dimension"
    );
    assert_eq!(
        y.len(),
        matrix.dim(),
        "y length must match matrix dimension"
    );
    assert!(threads > 0, "need at least one thread");
    let n = matrix.dim();
    let full = matrix.parts();
    let cells = ws.lock_cells(n);
    let chunks = row_chunks(n, threads);
    std::thread::scope(|scope| {
        let shared: &[parking_lot::Mutex<f64>] = cells;
        for range in &chunks {
            let range = range.clone();
            scope.spawn(move || {
                for r in range {
                    let mut local = full.diag[r] * x[r];
                    for k in full.row_ptr[r]..full.row_ptr[r + 1] {
                        let c = full.col_idx[k];
                        let v = full.values[k];
                        local += v * x[c];
                        *shared[c].lock() += v * x[r];
                    }
                    *shared[r].lock() += local;
                }
            });
        }
    });
    for (yi, cell) in y.iter_mut().zip(cells.iter_mut()) {
        *yi = *cell.get_mut();
    }
}

/// Threaded symmetric SMVP with per-thread private accumulation buffers
/// combined by a parallel tree reduction (Spark98's RMV strategy).
///
/// # Panics
///
/// Panics if `x.len()` does not match the matrix dimension or
/// `threads == 0`.
pub fn rmv(matrix: &SymCsr, x: &[f64], threads: usize) -> Vec<f64> {
    let mut y = vec![0.0; matrix.dim()];
    let mut ws = KernelWorkspace::new();
    rmv_into(matrix, x, threads, &mut y, &mut ws);
    y
}

/// In-place [`rmv`]: per-thread reduction buffers live in `ws` (zeroed in
/// place, reused across calls) and are combined by a parallel tree
/// reduction instead of a serial fold.
///
/// # Panics
///
/// Panics if `x.len()` or `y.len()` does not match the matrix dimension or
/// `threads == 0`.
pub fn rmv_into(
    matrix: &SymCsr,
    x: &[f64],
    threads: usize,
    y: &mut [f64],
    ws: &mut KernelWorkspace,
) {
    assert_eq!(
        x.len(),
        matrix.dim(),
        "x length must match matrix dimension"
    );
    assert_eq!(
        y.len(),
        matrix.dim(),
        "y length must match matrix dimension"
    );
    assert!(threads > 0, "need at least one thread");
    let n = matrix.dim();
    let full = matrix.parts();
    let chunks = row_chunks(n, threads);
    let buffers = chunks.len();
    if buffers == 0 {
        return;
    }
    if buffers == 1 {
        // Single reduction buffer: scatter straight into `y` serially — no
        // workspace traffic, no reduction, no thread spawn.
        y.fill(0.0);
        scatter_sym_rows(&full, x, y, 0..n);
        return;
    }
    let flat = ws.reduction_flat(buffers, n);
    let ptr = SendPtr(flat.as_mut_ptr());
    let y_ptr = SendPtr(y.as_mut_ptr());
    std::thread::scope(|scope| {
        for (t, range) in chunks.iter().enumerate() {
            let range = range.clone();
            scope.spawn(move || {
                // SAFETY: buffer `t` is the flat range `[t*n, (t+1)*n)`;
                // each spawned thread takes a distinct `t`, so the slices
                // are disjoint, and the scope joins before `flat` is read.
                let buf = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(t * n), n) };
                buf.fill(0.0);
                scatter_sym_rows(&full, x, buf, range);
            });
        }
    });
    tree_reduce_into(ptr, buffers, n, threads, y_ptr, &|f| {
        std::thread::scope(|scope| {
            for w in 0..threads {
                scope.spawn(move || f(w));
            }
        });
    });
}

/// Parallel tree reduction of `buffers` flat per-thread accumulation
/// buffers (buffer `t` = `flat[t*n..(t+1)*n]`), writing the elementwise
/// total into `y` (which must not alias the workspace).
///
/// Stride-doubling pairwise adds: in the round with stride `s`, buffer
/// `dst + s` is added into buffer `dst` for every `dst ≡ 0 (mod 2s)`.
/// Distinct pairs touch disjoint buffers, and each pair's element range is
/// further chunked across `workers / npairs` workers, so every round is
/// embarrassingly parallel; `log2(buffers)` rounds replace the old serial
/// fold's `buffers · n` sequential adds. The final round always has a
/// single pair `(0, s)` and stores its sums directly into `y`, fusing the
/// copy-out that would otherwise cost one more barrier; with a single
/// buffer the only round is a parallel copy.
///
/// `run` executes one round: it must call the given closure once per worker
/// index in `0..workers` and act as a full barrier (the pool's `broadcast`
/// or a spawn scope both qualify).
fn tree_reduce_into(
    flat: SendPtr<f64>,
    buffers: usize,
    n: usize,
    workers: usize,
    y: SendPtr<f64>,
    run: &dyn Fn(&BatchFn<'_>),
) {
    if buffers == 1 {
        run(&move |w: usize| {
            // SAFETY: workers copy disjoint element chunks, and `y` never
            // aliases the workspace.
            unsafe {
                let s = flat.get();
                let d = y.get();
                for i in chunk_range(n, workers, w) {
                    *d.add(i) = *s.add(i);
                }
            }
        });
        return;
    }
    let mut stride = 1;
    while stride < buffers {
        // Pairs (dst, dst+stride) with dst ≡ 0 (mod 2·stride) and
        // dst + stride < buffers; `stride < buffers` makes this ≥ 1.
        let npairs = (buffers - stride - 1) / (2 * stride) + 1;
        debug_assert!(
            npairs <= workers,
            "pairs outnumber workers (buffers > workers?)"
        );
        // Once `2s ≥ buffers` only the pair `(0, s)` remains: that round
        // produces the final totals, so route them straight into `y`.
        let last = 2 * stride >= buffers;
        debug_assert!(!last || npairs == 1);
        let chunks_per_pair = (workers / npairs).max(1);
        run(&move |w: usize| {
            let pair = w / chunks_per_pair;
            if pair >= npairs {
                return;
            }
            let dst = pair * 2 * stride;
            let src = dst + stride;
            let chunk = chunk_range(n, chunks_per_pair, w % chunks_per_pair);
            // SAFETY: distinct pairs read/write disjoint buffers (dst is a
            // multiple of 2·stride, src ≡ stride mod 2·stride), distinct
            // workers of one pair write disjoint element chunks, and `run`
            // is a barrier between rounds.
            unsafe {
                let d = flat.get().add(dst * n);
                let s = flat.get().add(src * n);
                if last {
                    let out = y.get();
                    for i in chunk {
                        *out.add(i) = *d.add(i) + *s.add(i);
                    }
                } else {
                    for i in chunk {
                        *d.add(i) += *s.add(i);
                    }
                }
            }
        });
        stride *= 2;
    }
}

/// Threaded row-parallel SMVP over full CSR storage: each thread writes a
/// disjoint slice of `y`, so no synchronization is needed, at the cost of
/// storing (and streaming) both triangles.
///
/// # Panics
///
/// Panics if `x.len() != matrix.cols()` or `threads == 0`.
pub fn pmv(matrix: &Csr, x: &[f64], threads: usize) -> Vec<f64> {
    let mut y = vec![0.0; matrix.rows()];
    pmv_into(matrix, x, threads, &mut y);
    y
}

/// In-place [`pmv`]: writes disjoint row slices of the caller-owned `y`.
/// Needs no workspace — row-parallel full storage has no write conflicts.
///
/// # Panics
///
/// Panics if `x.len() != matrix.cols()`, `y.len() != matrix.rows()`, or
/// `threads == 0`.
pub fn pmv_into(matrix: &Csr, x: &[f64], threads: usize, y: &mut [f64]) {
    assert_eq!(x.len(), matrix.cols(), "x length must match matrix columns");
    assert_eq!(y.len(), matrix.rows(), "y length must match matrix rows");
    assert!(threads > 0, "need at least one thread");
    let n = matrix.rows();
    let chunks = row_chunks(n, threads);
    std::thread::scope(|scope| {
        let mut rest: &mut [f64] = y;
        for range in &chunks {
            let (mine, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let range = range.clone();
            scope.spawn(move || {
                for (slot, r) in mine.iter_mut().zip(range) {
                    let mut sum = 0.0;
                    for (c, v) in matrix.row(r).pairs() {
                        sum += v * x[c];
                    }
                    *slot = sum;
                }
            });
        }
    });
}

/// [`rmv`] over a persistent [`WorkerPool`]: per-worker private buffers
/// combined by a pooled tree reduction, no thread spawns on the call path.
///
/// # Panics
///
/// Panics if `x.len()` does not match the matrix dimension.
pub fn rmv_pooled(matrix: &SymCsr, x: &[f64], pool: &WorkerPool) -> Vec<f64> {
    let mut y = vec![0.0; matrix.dim()];
    let mut ws = KernelWorkspace::new();
    rmv_pooled_into(matrix, x, pool, &mut y, &mut ws);
    y
}

/// In-place [`rmv_pooled`] — the executor-grade symmetric path. After
/// warmup this performs zero heap allocations per call: the scatter and
/// the tree reduction (whose last round writes `y` directly) run as
/// [`WorkerPool::broadcast`] batches over workspace buffers that are
/// zeroed in place.
///
/// # Panics
///
/// Panics if `x.len()` or `y.len()` does not match the matrix dimension.
pub fn rmv_pooled_into(
    matrix: &SymCsr,
    x: &[f64],
    pool: &WorkerPool,
    y: &mut [f64],
    ws: &mut KernelWorkspace,
) {
    assert_eq!(
        x.len(),
        matrix.dim(),
        "x length must match matrix dimension"
    );
    assert_eq!(
        y.len(),
        matrix.dim(),
        "y length must match matrix dimension"
    );
    let n = matrix.dim();
    if n == 0 {
        return;
    }
    let threads = pool.threads();
    let buffers = threads.min(n);
    let full = matrix.parts();
    let y_ptr = SendPtr(y.as_mut_ptr());
    if buffers == 1 {
        // Single reduction buffer: scatter straight into `y` in one batch —
        // no workspace traffic, no reduction round.
        pool.broadcast(&move |w| {
            if w != 0 {
                return;
            }
            // SAFETY: only worker 0 touches `y`, and the broadcast barrier
            // orders its writes before the caller reads `y`.
            let yb = unsafe { std::slice::from_raw_parts_mut(y_ptr.get(), n) };
            yb.fill(0.0);
            scatter_sym_rows(&full, x, yb, 0..n);
        });
        return;
    }
    let flat = ws.reduction_flat(buffers, n);
    let ptr = SendPtr(flat.as_mut_ptr());
    pool.broadcast(&move |w| {
        if w >= buffers {
            return;
        }
        // SAFETY: worker `w < buffers` exclusively owns the flat range
        // `[w*n, (w+1)*n)`; the broadcast barrier orders these writes
        // before the reduction below.
        let buf = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(w * n), n) };
        buf.fill(0.0);
        scatter_sym_rows(&full, x, buf, chunk_range(n, buffers, w));
    });
    tree_reduce_into(ptr, buffers, n, threads, y_ptr, &|f| pool.broadcast(f));
}

/// [`pmv`] over a persistent [`WorkerPool`]: disjoint row slices of `y`
/// written in place, no thread spawns on the call path.
///
/// # Panics
///
/// Panics if `x.len() != matrix.cols()`.
pub fn pmv_pooled(matrix: &Csr, x: &[f64], pool: &WorkerPool) -> Vec<f64> {
    let mut y = vec![0.0; matrix.rows()];
    pmv_pooled_into(matrix, x, pool, &mut y);
    y
}

/// In-place [`pmv_pooled`]: one broadcast batch, zero heap allocations per
/// call after pool warmup.
///
/// # Panics
///
/// Panics if `x.len() != matrix.cols()` or `y.len() != matrix.rows()`.
pub fn pmv_pooled_into(matrix: &Csr, x: &[f64], pool: &WorkerPool, y: &mut [f64]) {
    assert_eq!(x.len(), matrix.cols(), "x length must match matrix columns");
    assert_eq!(y.len(), matrix.rows(), "y length must match matrix rows");
    let n = matrix.rows();
    let threads = pool.threads();
    // Hoisted raw CSR parts: resolving `matrix.row(r)` inside the hot loop
    // costs two bounds-checked slice constructions per row.
    let row_ptr = matrix.row_ptr();
    let col_idx = matrix.col_idx();
    let values = matrix.values();
    let y_ptr = SendPtr(y.as_mut_ptr());
    pool.broadcast(&move |w| {
        // SAFETY: chunk_range partitions 0..n, so workers write disjoint
        // elements of `y`; the broadcast barrier ends the writes before
        // the caller's `&mut y` is used again. Unchecked indexing relies on
        // `Csr`'s construction invariants: `row_ptr` is monotone with
        // `row_ptr[n] == nnz`, and every `col_idx` is `< cols == x.len()`
        // (asserted above).
        for r in chunk_range(n, threads, w) {
            unsafe {
                let start = *row_ptr.get_unchecked(r);
                let end = *row_ptr.get_unchecked(r + 1);
                let mut sum = 0.0;
                for k in start..end {
                    sum += values.get_unchecked(k) * x.get_unchecked(*col_idx.get_unchecked(k));
                }
                *y_ptr.get().add(r) = sum;
            }
        }
    });
}

/// Threaded block-row-parallel SMVP over 3×3-block CSR storage: each thread
/// owns a contiguous range of block rows (disjoint `y` slices, no
/// synchronization), and the 3×3 blocks amortize index traffic — the layout
/// the Quake stiffness matrices actually use.
///
/// # Panics
///
/// Panics if `x.len()` does not match the block-row count or `threads == 0`.
pub fn bmv(matrix: &Bcsr3, x: &[Vec3], threads: usize) -> Vec<Vec3> {
    let mut y = vec![Vec3::ZERO; matrix.block_rows()];
    bmv_into(matrix, x, threads, &mut y);
    y
}

/// In-place [`bmv`]: writes disjoint block-row slices of the caller-owned
/// `y`. Needs no workspace.
///
/// # Panics
///
/// Panics if `x.len()` or `y.len()` does not match the block-row count or
/// `threads == 0`.
pub fn bmv_into(matrix: &Bcsr3, x: &[Vec3], threads: usize, y: &mut [Vec3]) {
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
    assert!(threads > 0, "need at least one thread");
    let n = matrix.block_rows();
    let chunks = row_chunks(n, threads);
    let row_ptr = matrix.row_ptr();
    let col_idx = matrix.col_idx();
    let blocks = matrix.blocks();
    std::thread::scope(|scope| {
        let mut rest: &mut [Vec3] = y;
        for range in &chunks {
            let (mine, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let range = range.clone();
            scope.spawn(move || {
                for (slot, r) in mine.iter_mut().zip(range) {
                    let mut acc = Vec3::ZERO;
                    for k in row_ptr[r]..row_ptr[r + 1] {
                        acc += blocks[k].mul_vec(x[col_idx[k]]);
                    }
                    *slot = acc;
                }
            });
        }
    });
}

/// [`bmv`] over a persistent [`WorkerPool`] — the executor-grade path for
/// the BCSR layout the Quake matrices actually use.
///
/// # Panics
///
/// Panics if `x.len()` does not match the block-row count.
pub fn bmv_pooled(matrix: &Bcsr3, x: &[Vec3], pool: &WorkerPool) -> Vec<Vec3> {
    let mut y = vec![Vec3::ZERO; matrix.block_rows()];
    bmv_pooled_into(matrix, x, pool, &mut y);
    y
}

/// In-place [`bmv_pooled`]: one broadcast batch, zero heap allocations per
/// call after pool warmup.
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
    broadcast_rows(pool, y, |rows, out| bmv_range_into(matrix, x, rows, out));
}

/// Runs `f(rows, &mut out[rows])` once on every worker of `pool`, where
/// worker `w` owns the `w`-th of `threads` near-equal contiguous ranges of
/// `0..out.len()` (empty when there are more workers than rows) — one
/// broadcast batch, a full barrier, nothing allocated. This is the
/// row-parallel skeleton of [`bmv_pooled_into`], exposed so fused per-row
/// passes (such as a time step's product-plus-update) split rows exactly as
/// the pooled kernels do.
pub fn broadcast_rows<T: Send>(
    pool: &WorkerPool,
    out: &mut [T],
    f: impl Fn(std::ops::Range<usize>, &mut [T]) + Sync,
) {
    let n = out.len();
    let threads = pool.threads();
    let out_ptr = SendPtr(out.as_mut_ptr());
    pool.broadcast(&|w| {
        let rows = chunk_range(n, threads, w);
        // SAFETY: chunk_range partitions 0..n, so workers get disjoint
        // ranges of `out`; the broadcast barrier ends every access before
        // the caller's `&mut out` is used again.
        let mine =
            unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(rows.start), rows.len()) };
        f(rows, mine);
    });
}

/// SMVP over the contiguous block-row range `rows`, through the
/// register-blocked 3×3 microkernel. `out` holds exactly one [`Vec3`] per
/// row of the range (`out[i - rows.start]` is row `i`'s result); `x` spans
/// the full matrix. This is the shared inner kernel of [`bmv_pooled_into`]
/// and the latency-hiding executor, which multiplies a PE's boundary and
/// interior rows as two separate ranges.
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
    use quake_sparse::coo::Coo;
    use quake_sparse::dense::Mat3;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_symmetric(n: usize, per_row: usize, seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0 + rng.gen::<f64>()).unwrap();
        }
        for _ in 0..n * per_row {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                let v = rng.gen::<f64>() - 0.5;
                coo.push(a, b, v).unwrap();
                coo.push(b, a, v).unwrap();
            }
        }
        coo.to_csr()
    }

    fn assert_vec_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-10 * (1.0 + x.abs()),
                "mismatch at {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn all_kernels_agree_with_sequential() {
        let full = random_symmetric(500, 6, 1);
        let sym = SymCsr::from_csr(&full, 1e-12).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let x: Vec<f64> = (0..500).map(|_| rng.gen::<f64>() - 0.5).collect();
        let reference = full.spmv_alloc(&x).unwrap();
        assert_vec_close(&smv(&sym, &x), &reference);
        for threads in [1, 2, 4, 7] {
            assert_vec_close(&lmv(&sym, &x, threads), &reference);
            assert_vec_close(&rmv(&sym, &x, threads), &reference);
            assert_vec_close(&pmv(&full, &x, threads), &reference);
        }
    }

    #[test]
    fn more_threads_than_rows_is_safe() {
        let full = random_symmetric(5, 2, 3);
        let sym = SymCsr::from_csr(&full, 1e-12).unwrap();
        let x = vec![1.0; 5];
        let reference = full.spmv_alloc(&x).unwrap();
        assert_vec_close(&lmv(&sym, &x, 64), &reference);
        assert_vec_close(&rmv(&sym, &x, 64), &reference);
        assert_vec_close(&pmv(&full, &x, 64), &reference);
    }

    #[test]
    fn row_chunks_cover_everything() {
        let chunks = row_chunks(10, 3);
        assert_eq!(chunks.len(), 3);
        let total: usize = chunks.iter().map(|r| r.len()).sum();
        assert_eq!(total, 10);
        assert_eq!(chunks[0].start, 0);
        assert_eq!(chunks.last().unwrap().end, 10);
        // Degenerate shapes: no rows means no chunks (not one empty chunk),
        // and chunks are never empty when rows exist.
        assert!(row_chunks(0, 4).is_empty());
        assert_eq!(row_chunks(3, 8).len(), 3);
        assert!(row_chunks(3, 8).iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn chunk_range_partitions_rows() {
        for (n, parts) in [(10, 3), (3, 8), (0, 4), (16, 16), (7, 1)] {
            let mut covered = Vec::new();
            for k in 0..parts {
                covered.extend(chunk_range(n, parts, k));
            }
            assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} parts={parts}");
        }
    }

    #[test]
    fn empty_matrix_is_safe_for_all_kernels() {
        let full = Coo::new(0, 0).to_csr();
        let sym = SymCsr::from_csr(&full, 1e-12).unwrap();
        let pool = WorkerPool::new(3);
        let mut ws = KernelWorkspace::new();
        assert!(smv(&sym, &[]).is_empty());
        assert!(lmv(&sym, &[], 4).is_empty());
        assert!(rmv(&sym, &[], 4).is_empty());
        assert!(pmv(&full, &[], 4).is_empty());
        assert!(rmv_pooled(&sym, &[], &pool).is_empty());
        assert!(pmv_pooled(&full, &[], &pool).is_empty());
        rmv_pooled_into(&sym, &[], &pool, &mut [], &mut ws);
    }

    #[test]
    fn pooled_kernels_agree_with_sequential() {
        let full = random_symmetric(300, 5, 11);
        let sym = SymCsr::from_csr(&full, 1e-12).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let x: Vec<f64> = (0..300).map(|_| rng.gen::<f64>() - 0.5).collect();
        let reference = full.spmv_alloc(&x).unwrap();
        for threads in [1, 2, 5] {
            let pool = WorkerPool::new(threads);
            assert_vec_close(&rmv_pooled(&sym, &x, &pool), &reference);
            assert_vec_close(&pmv_pooled(&full, &x, &pool), &reference);
        }
    }

    #[test]
    fn tree_reduce_sums_every_buffer_count() {
        // Exercise odd, even, power-of-two, and singleton buffer counts.
        for buffers in 1..=9usize {
            let n = 13;
            let mut flat: Vec<f64> = (0..buffers * n).map(|i| i as f64).collect();
            let expected: Vec<f64> = (0..n)
                .map(|i| (0..buffers).map(|t| (t * n + i) as f64).sum())
                .collect();
            let workers = 4;
            let mut y = vec![f64::NAN; n];
            let ptr = SendPtr(flat.as_mut_ptr());
            let y_ptr = SendPtr(y.as_mut_ptr());
            tree_reduce_into(ptr, buffers, n, workers, y_ptr, &|f| {
                std::thread::scope(|scope| {
                    for w in 0..workers {
                        scope.spawn(move || f(w));
                    }
                });
            });
            assert_eq!(&y[..], &expected[..], "buffers={buffers}");
        }
    }

    #[test]
    fn bmv_matches_sequential_block_product() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 120;
        let mut b = Bcsr3Builder::new(n);
        for i in 0..n {
            b.add_block(i, i, Mat3::identity() * (2.0 + rng.gen::<f64>()));
            for _ in 0..4 {
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
        let reference = matrix.spmv_alloc(&x).unwrap();
        for threads in [1, 3, 8] {
            let y = bmv(&matrix, &x, threads);
            for (a, b) in reference.iter().zip(&y) {
                assert!(
                    (*a - *b).norm() < 1e-12,
                    "bmv disagrees at {threads} threads"
                );
            }
        }
        for threads in [1, 3, 8] {
            let pool = WorkerPool::new(threads);
            let y = bmv_pooled(&matrix, &x, &pool);
            for (a, b) in reference.iter().zip(&y) {
                assert!(
                    (*a - *b).norm() < 1e-12,
                    "bmv_pooled disagrees at {threads} threads"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "block rows")]
    fn bmv_wrong_x_length_panics() {
        let matrix = Bcsr3Builder::new(3).build();
        let _ = bmv(&matrix, &[Vec3::ZERO], 2);
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
    fn bmv_pooled_into_is_bitwise_equal_to_spmv() {
        let (matrix, x) = random_bcsr(120, 25);
        let reference = matrix.spmv_alloc(&x).unwrap();
        for threads in [1, 3, 8] {
            let pool = WorkerPool::new(threads);
            let mut out = vec![Vec3::ZERO; 120];
            bmv_pooled_into(&matrix, &x, &pool, &mut out);
            assert_vec3_bits_eq(&reference, &out, "bmv_pooled_into");
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
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let full = random_symmetric(4, 1, 4);
        let sym = SymCsr::from_csr(&full, 1e-12).unwrap();
        let _ = rmv(&sym, &[0.0; 4], 0);
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn wrong_x_length_panics() {
        let full = random_symmetric(4, 1, 5);
        let _ = pmv(&full, &[0.0; 3], 2);
    }

    #[test]
    #[should_panic(expected = "y length")]
    fn wrong_y_length_panics() {
        let full = random_symmetric(4, 1, 6);
        let sym = SymCsr::from_csr(&full, 1e-12).unwrap();
        let mut y = vec![0.0; 3];
        smv_into(&sym, &[0.0; 4], &mut y);
    }
}

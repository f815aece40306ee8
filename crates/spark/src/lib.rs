//! Spark98-style shared-memory SMVP kernels (paper postscript).
//!
//! Rebuilds the shared-memory members of the Spark98 kernel family over
//! this reproduction's symmetric stiffness matrices: a sequential baseline
//! ([`kernels::smv`]), a lock-based parallel kernel ([`kernels::lmv`]), a
//! reduction-buffer parallel kernel ([`kernels::rmv`]), a row-parallel
//! full-storage kernel ([`kernels::pmv`]), and a block-row-parallel
//! 3×3-block kernel ([`kernels::bmv`]). The `bench_spark` target compares
//! their throughput; all produce identical results.
//!
//! For repeated products (the paper's 6000-step time loop) the
//! [`pool::WorkerPool`] keeps worker threads persistent across calls and
//! the `*_pooled` kernels run over it without per-call thread spawns.
//! The in-place `_into` variants ([`kernels::rmv_pooled_into`],
//! [`kernels::pmv_pooled_into`], [`kernels::bmv_pooled_into`], …) draw
//! their scratch space from a reusable [`workspace::KernelWorkspace`] and
//! dispatch over [`pool::WorkerPool::broadcast`], making the steady-state
//! product allocation-free; `bench_executor` tracks the pooled-vs-spawned
//! gap. [`kernels::broadcast_rows`] exposes their row split for fused
//! per-row passes such as the time step.
//!
//! The [`tile_kernels`] module layers an AVX microkernel (behind the
//! `simd` cargo feature, runtime-dispatched) over the flat
//! [`quake_sparse::tiles::Bcsr3Tiles`] layout and its half-storage
//! [`quake_sparse::tiles::SymTiles`] twin, bitwise-equal to the scalar 3×3
//! micro path.

pub mod kernels;
pub mod pool;
pub mod tile_kernels;
pub mod workspace;

pub use kernels::{
    bmv, bmv_into, bmv_pooled, bmv_pooled_into, bmv_range_into, broadcast_rows, lmv, lmv_into, pmv,
    pmv_into, pmv_pooled, pmv_pooled_into, rmv, rmv_into, rmv_pooled, rmv_pooled_into, smv,
    smv_into,
};
pub use pool::{BatchFailure, PoolStats, WorkerPool};
pub use tile_kernels::{bmv_sym_into, bmv_tiles_range_into, force_scalar, simd_active};
pub use workspace::KernelWorkspace;

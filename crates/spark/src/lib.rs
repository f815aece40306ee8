//! Shared-memory SMVP kernels for the Quake stiffness matrices.
//!
//! The program runs three kernels, all bitwise-equal on every input:
//!
//! * [`tile_kernels::bmv_tiles_range_into`] — the AVX microkernel (behind
//!   the `simd` cargo feature, runtime-dispatched) over the flat
//!   [`quake_sparse::tiles::Bcsr3Tiles`] layout, run over the strips of
//!   half storage: the overlap schedule's boundary rows and the time
//!   loop's cross strips;
//! * [`tile_kernels::bmv_sym_rows_into`] — the same microkernel over the
//!   half-storage [`quake_sparse::tiles::SymTiles`] twin, for a row range
//!   with a scatter limit. [`tile_kernels::bmv_sym_into`] runs it over
//!   every row for the executor's local product, and
//!   [`tile_kernels::SymBand`] over one worker's rows for the time loop;
//! * [`kernels::bmv_range_into`] — the scalar 3×3 kernel over
//!   [`quake_sparse::bcsr::Bcsr3`], the oracle the other two are tested
//!   against.
//!
//! For repeated products (the paper's 6000-step time loop) the
//! [`pool::WorkerPool`] keeps worker threads persistent across calls;
//! [`kernels::broadcast_rows`] splits rows over it, with one state value
//! per worker, for fused per-row passes such as the time step, and
//! [`kernels::bmv_pooled_into`] runs the scalar kernel over the same split.

pub mod kernels;
pub mod pool;
pub mod tile_kernels;

pub use kernels::{bmv_pooled_into, bmv_range_into, broadcast_rows, worker_rows};
pub use pool::{BatchFailure, PoolStats, WorkerPool};
pub use tile_kernels::{
    bmv_sym_into, bmv_sym_rows_into, bmv_tiles_range_into, force_scalar, simd_active, SymBand,
};

//! Sparse-matrix substrate for the Quake SMVP reproduction.
//!
//! This crate provides the matrix formats that dominate the running time
//! of the Quake family of unstructured finite-element applications
//! (O'Hallaron, Shewchuk & Gross, HPCA 1998). There is one format family,
//! 3×3-block compressed rows, from assembly to the kernel's stream:
//!
//! * [`bcsr::Bcsr3`] — 3×3-block CSR matching the `3n × 3n` stiffness
//!   matrix (three degrees of freedom per mesh node), built by
//!   [`bcsr::ElementAssembler`] from element connectivity or by
//!   [`bcsr::Bcsr3Builder`] for ad-hoc matrices;
//! * [`tiles`] — the SIMD-friendly flat tile stream over a [`bcsr::Bcsr3`]
//!   and [`tiles::SymTiles`], its symmetric half-storage twin, which is
//!   what the program's SMVP streams;
//! * [`pattern::Pattern`] — symbolic node-adjacency structure;
//! * [`reorder`] — reverse Cuthill–McKee bandwidth reduction;
//! * [`dense`] — `Vec3`/`Mat3` micro-kernels.
//!
//! # Examples
//!
//! Assemble a tiny symmetric block matrix, run the paper's central kernel
//! on it, and keep its upper triangle:
//!
//! ```
//! use quake_sparse::bcsr::Bcsr3Builder;
//! use quake_sparse::dense::{Mat3, Vec3};
//! use quake_sparse::tiles::SymTiles;
//! let mut b = Bcsr3Builder::new(2);
//! b.add_block(0, 0, Mat3::identity() * 4.0);
//! b.add_block(1, 1, Mat3::identity() * 4.0);
//! b.add_block(0, 1, Mat3::identity() * -1.0);
//! b.add_block(1, 0, Mat3::identity() * -1.0);
//! let k = b.build();
//! let y = k.spmv_alloc(&[Vec3::new(1.0, 1.0, 1.0), Vec3::new(1.0, 0.0, 0.0)])?;
//! assert_eq!(y, vec![Vec3::new(3.0, 4.0, 4.0), Vec3::new(3.0, -1.0, -1.0)]);
//! let half = SymTiles::from_bcsr(&k)?;
//! assert_eq!((half.block_nnz(), half.upper().block_nnz()), (4, 3));
//! assert_eq!(half.smvp_flops(), k.smvp_flops());
//! # Ok::<(), quake_sparse::error::SparseError>(())
//! ```

// Indexed loops over parallel arrays are the clearest form for the numeric
// kernels in this crate; the iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]
pub mod bcsr;
pub mod dense;
pub mod error;
pub mod pattern;
pub mod reorder;
pub mod tiles;

pub use bcsr::{Bcsr3, Bcsr3Builder, ElementAssembler};
pub use dense::{Mat3, Vec3};
pub use error::SparseError;
pub use pattern::Pattern;
pub use tiles::{Bcsr3Tiles, SymTiles};

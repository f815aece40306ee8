//! Memory-system simulator: why irregular codes sustain a fraction of peak.
//!
//! The paper's `T_f` parameter folds in "all hardware and software
//! overheads" and is *measured*, not predicted — on a Cray T3E the Quake
//! local SMVP sustains 70 MFLOPS, 12% of the 600 MFLOPS peak, "largely
//! because of irregular memory reference patterns and because the data
//! structures are too large to fit in cache." Without the hardware, we
//! rebuild the mechanism: a set-associative cache hierarchy ([`cache`],
//! [`hierarchy`]) replays the exact demand reference stream of the
//! program's own local SMVP, the half-storage sweep over a
//! [`SymTiles`](quake_sparse::tiles::SymTiles) stream ([`trace`]), to
//! produce a sustained-`T_f` estimate, and quantifies the effect of
//! bandwidth-reducing node orderings (RCM). [`predict`] replays full tile
//! streams to rank layout transforms.
//!
//! # Examples
//!
//! ```
//! use quake_memsim::hierarchy::Hierarchy;
//! use quake_memsim::trace::estimate_tf;
//! use quake_sparse::bcsr::Bcsr3Builder;
//! use quake_sparse::dense::Mat3;
//! use quake_sparse::tiles::SymTiles;
//!
//! let mut b = Bcsr3Builder::new(100);
//! for i in 0..100 {
//!     b.add_block(i, i, Mat3::identity() * 2.0);
//!     if i > 0 {
//!         b.add_block(i, i - 1, Mat3::identity() * -1.0);
//!         b.add_block(i - 1, i, Mat3::identity() * -1.0);
//!     }
//! }
//! let sym = SymTiles::from_bcsr(&b.build())?;
//! let mut h = Hierarchy::alpha_21164_like();
//! let est = estimate_tf(&sym, &mut h, 1.0 / 300e6, 1);
//! assert!(est.mflops > 0.0);
//! # Ok::<(), quake_sparse::error::SparseError>(())
//! ```

// Indexed loops over parallel arrays are the clearest form for the numeric
// kernels in this crate; the iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]
pub mod cache;
pub mod hierarchy;
pub mod predict;
pub mod stride;
pub mod trace;

pub use cache::{Access, Cache};
pub use hierarchy::{Hierarchy, HitLevel, LatencyProfile};
pub use predict::{predict_transforms, TransformPrediction};
pub use stride::{copy_bandwidth, stride_sweep, CopyBandwidth};
pub use trace::{estimate_tf, replay_smvp, TfEstimate};

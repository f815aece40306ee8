//! The Quake application family, end to end: synthetic meshes, partitioning,
//! characterization, the distributed SMVP, and report formatting.
//!
//! This crate glues the substrates together the way the original Archimedes
//! tool chain did for the paper's applications:
//!
//! * [`family`] — the synthetic sfN application family (period-driven mesh
//!   generation over the San-Fernando-like basin);
//! * [`characterize`] — partitioned-mesh analysis producing the paper's
//!   Figure 7 quantities, EXFLOW-style aggregates, and netsim workloads;
//! * [`distributed`] — the executable distributed SMVP of §2.3 (local
//!   products + exchange-and-sum), numerically identical to the sequential
//!   product;
//! * [`executor`] — the instrumented bulk-synchronous executor running
//!   those phases on a persistent worker pool while measuring per-PE
//!   flops, traffic, and phase/barrier times;
//! * [`report`] — plain-text tables for the experiment binaries.
//!
//! # Examples
//!
//! ```no_run
//! use quake_app::characterize::AnalyzedInstance;
//! use quake_app::family::{AppConfig, QuakeApp};
//! use quake_partition::geometric::RecursiveBisection;
//!
//! let app = QuakeApp::generate(AppConfig::new("sf10", 10.0, 8.0))?;
//! let analyzed = AnalyzedInstance::characterize(
//!     "sf10", &app.mesh, &RecursiveBisection::inertial(), 8).unwrap();
//! println!("{}", analyzed.instance);
//! # Ok::<(), quake_mesh::generator::GenerateError>(())
//! ```

// Indexed loops over parallel arrays are the clearest form for the numeric
// kernels in this crate; the iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]
pub mod characterize;
pub mod distributed;
pub mod executor;
pub mod family;
pub mod report;
pub mod scaling;
pub mod transport;

pub use characterize::{figure7_table, AnalyzedInstance};
pub use distributed::{DistributedSystem, LocalSubdomain};
pub use executor::{BspExecutor, ExecutionReport, PeCounters, PhaseWalls};
pub use family::{standard_family, AppConfig, QuakeApp};
pub use scaling::{scaling_study, ScalingRow, QUAKE_TIME_STEPS};

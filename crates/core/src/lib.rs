//! The paper's contribution, reimplemented as a library: workload
//! characterization types and analytic performance models for the parallel
//! sparse matrix-vector product (SMVP) at the heart of the Quake family of
//! unstructured finite-element earthquake simulations.
//!
//! From O'Hallaron, Shewchuk & Gross, *Architectural Implications of a
//! Family of Irregular Applications*, HPCA 1998:
//!
//! * [`characterize::SmvpInstance`] — one row of the paper's Figure 7: the
//!   per-PE flop count `F`, communication maxima `C_max`/`B_max`, and mean
//!   message size of a partitioned SMVP;
//! * [`model::eq1`] / [`model::eq2`] — Equations (1) and (2);
//! * [`model::beta`] — the β bound of §3.4;
//! * [`model::bisection`] — §4.2's bisection-bandwidth requirement;
//! * [`requirements`] — the sweeps behind Figures 8–11;
//! * [`machine`] — `T_f`/`T_l`/`T_w` presets including the paper's Cray
//!   T3D/T3E measurements;
//! * [`fault`] — the deterministic chaos layer: seeded per-step/per-PE
//!   fault plans (stragglers, crashes), the wire-fault sampler, and the
//!   injected/detected/recovered ledger;
//! * [`telemetry`] — the observability layer: per-phase span tracing,
//!   log2-bucketed latency/size histograms, live Eq. (2) drift detection,
//!   and Chrome-trace/Prometheus exporters;
//! * [`paperdata`] — the published Figure 2/6/7 tables, embedded so Figures
//!   8–11 can be regenerated exactly.
//!
//! # Examples
//!
//! How much sustained bandwidth does sf2/128 need at 90% efficiency on a
//! 200-MFLOP PE? (The paper's headline ≈ 300 MB/s.)
//!
//! ```
//! use quake_core::machine::Processor;
//! use quake_core::model::eq1::required_sustained_bandwidth;
//! use quake_core::paperdata::figure7_instance;
//!
//! let inst = figure7_instance("sf2", 128).expect("row exists");
//! let bw = required_sustained_bandwidth(&inst, 0.9, &Processor::hypothetical_200mflops());
//! assert!((bw / 1e6) > 250.0 && (bw / 1e6) < 320.0);
//! ```

// Indexed loops over parallel arrays are the clearest form for the numeric
// kernels in this crate; the iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod characterize;
pub mod fault;
pub mod machine;
pub mod model;
pub mod paperdata;
pub mod requirements;
pub mod telemetry;

pub use characterize::{AppCommSummary, SmvpInstance};
pub use machine::{BlockRegime, Network, Processor, WORD_BYTES};

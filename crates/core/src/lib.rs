//! Top-level experiment orchestration for the DSN 2016 reproduction.
//!
//! This crate glues the substrates together into the paper's evaluation
//! (Section V/VI):
//!
//! * [`DvfsPoint`] — the Table II operating points (voltage, frequency,
//!   per-bit failure probability);
//! * [`Scheme`] — the compared cache configurations (FFW+BBR and the
//!   baselines, including the optimistic `FBA⁺`/`IDC⁺` and the
//!   supplemented `Wilkerson⁺` exactly as the paper grants them);
//! * [`Evaluator`] — Monte-Carlo experiment runner, layered as a *plan*
//!   ([`ExperimentPlan`] enumerates cells), an *execution engine* (one
//!   shared worker pool drains every trial of every cell) and a
//!   *persistence layer* ([`ResultStore`] shares finished cells across
//!   processes): fault maps are drawn per trial, the BBR linker re-places
//!   basic blocks per map, the CPU model runs the trace, and results
//!   aggregate with 95 % confidence intervals;
//! * [`figures`] — one producer per paper table/figure, used by the
//!   `dvs-bench` binaries.
//!
//! # Example
//!
//! ```rust
//! use dvs_core::{EvalConfig, Evaluator, Scheme};
//! use dvs_sram::MilliVolts;
//! use dvs_workloads::Benchmark;
//!
//! let mut eval = Evaluator::new(EvalConfig::quick());
//! let run = eval
//!     .normalized_runtime(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(480))
//!     .expect("cell links");
//! assert!(run.mean > 0.9); // never faster than the defect-free baseline
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
mod cancel;
mod dvfs;
mod engine;
mod eval;
pub mod figures;
mod plan;
mod scheme;
mod store;
pub mod transitions;

pub use cancel::CancelToken;
pub use dvfs::DvfsPoint;
pub use engine::{EngineStats, Progress};
pub use eval::{EvalConfig, EvalError, Evaluator, SchemeRun, TrialMetrics};
pub use plan::{CellKey, ExperimentPlan};
pub use scheme::Scheme;
pub use store::{ResultStore, StoreAudit, StoreKey, StoreStats, StoredCell, STORE_ENV};

//! Static analysis for the DVS cache pipeline: CFG construction, a
//! worklist dataflow solver, a lint registry over linked BBR images, and
//! structured diagnostics.
//!
//! The Monte-Carlo engine spends its cycles *simulating* images the
//! linker claims are correct; this crate *proves* the claims before (or
//! instead of) spending those cycles. It offers three entry points:
//!
//! * the `dvs-verify` binary in `dvs-bench` — runs the standard registry
//!   over bench10 down the incremental voltage ladder and exits 1 on any
//!   deny-severity finding;
//! * [`analyze_image`] / [`analyze_placement`] — called by the engine's
//!   opt-in validation hook and by other crates' tests (`_recorded`
//!   variants time each pass through dvs-obs);
//! * focused checkers ([`check_trace_equivalence`],
//!   [`check_ffw_windows`], [`Cfg`], [`solver::solve`]) for unit-level
//!   use.
//!
//! Diagnostics themselves live in `dvs-linker` (so
//! [`dvs_linker::LinkedImage::verify`] can speak the same type without a
//! dependency cycle) and are re-exported here.
//!
//! # Example
//!
//! ```rust
//! use dvs_analysis::{analyze_image, has_deny};
//! use dvs_linker::{bbr_transform, BbrLinker};
//! use dvs_sram::{CacheGeometry, FaultMap};
//! use dvs_workloads::Benchmark;
//! use rand::SeedableRng;
//!
//! let wl = Benchmark::Crc32.build(1);
//! let transformed = bbr_transform(wl.program(), 8);
//! let geom = CacheGeometry::dsn_l1();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2);
//! let fmap = FaultMap::sample(&geom, 0.05, &mut rng);
//! let image = BbrLinker::new(geom).link(&transformed, &fmap).unwrap();
//! let diags = analyze_image(&image, &fmap, Some(wl.program()));
//! assert!(!has_deny(&diags));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The pre-verification modules predate the crate-wide
// `clippy::arithmetic_side_effects` policy; their arithmetic is bounded
// by construction (block counts, word offsets) and stays allowed. The
// solver and verify modules — which face adversarial layouts — comply.
#[allow(clippy::arithmetic_side_effects)]
pub mod cfg;
#[allow(clippy::arithmetic_side_effects)]
pub mod equiv;
#[allow(clippy::arithmetic_side_effects)]
pub mod lints;
#[allow(clippy::arithmetic_side_effects)]
pub mod report;
pub mod solver;
pub mod verify;

pub use cfg::{Cfg, Edge};
pub use equiv::{check_trace_equivalence, EquivConfig};
pub use lints::{
    analyze_image, analyze_image_recorded, analyze_placement, analyze_placement_recorded,
    check_ffw_windows, has_deny, AnalysisInput, Lint, LintRegistry,
};
pub use report::{render_json_envelope, render_text, LintMeta, Report};
pub use solver::{solve, DataflowAnalysis, Direction, Interval, JoinSemiLattice, Reach, Solution};

// The diagnostic vocabulary, defined next to `LinkedImage::verify`.
pub use dvs_linker::{lint_ids, Diagnostic, Location, Severity};

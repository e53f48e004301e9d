//! Differential and metamorphic correctness harness for the
//! deep-voltage-scaling stack.
//!
//! The paper's results hinge on the fault-tolerance schemes behaving
//! *exactly* like a conventional cache when the fault map is clean and
//! degrading predictably as voltage drops (§IV–§V). This crate
//! cross-checks the whole stack with paired runs:
//!
//! * [`oracles`] — five equivalence families: clean-map equivalence
//!   (stream level and end-to-end through the evaluator), SA/DM mode
//!   agreement, persistence/observability identity over a two-voltage
//!   sweep, Wilkerson's documented capacity halving, and packed-vs-
//!   reference agreement of the word-packed hot-path queries.
//! * [`metamorphic`] — three invariant sweeps: voltage monotonicity of
//!   word misses under nested fault maps, FFW window growth containment,
//!   and miss-stability under fault addition.
//! * [`shrink`] — ddmin-style reduction of any failing (stream, map)
//!   pair to a minimal reproducer, rendered as a ready-to-paste
//!   `#[test]`.
//! * [`bounded`] — bounded exhaustive model checking: every access
//!   sequence to a depth bound over a tiny geometry, proving the LRU
//!   stack, inclusion, clean-map-equivalence and timing-speculation
//!   invariants of the scheme state machines, plus whole-domain checks
//!   of the FFW window function and LRU reset freshness. Counterexamples shrink through
//!   the same ddmin and render as tests.
//!
//! The `dvs-diff` binary (in `dvs-bench`) sweeps all of the above over
//! bench10 and the tier-1 voltages, names [`LINTS`] in its `--json`
//! envelope and, like every sweep tool, exits 1 on any deny diagnostic
//! and 2 on a usage error.
//!
//! # Example
//!
//! ```rust
//! use dvs_diff::{first_divergence, run_stream, synthetic_stream};
//! use dvs_schemes::SchemeKind;
//! use dvs_sram::{CacheGeometry, FaultMap};
//!
//! let clean = FaultMap::fault_free(&CacheGeometry::dsn_l1());
//! let stream = synthetic_stream(42, 200);
//! let conv = run_stream(SchemeKind::Conventional, &clean, &stream);
//! let wdis = run_stream(SchemeKind::SimpleWordDisable, &clean, &stream);
//! assert_eq!(first_divergence(&conv, &wdis), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;
pub mod metamorphic;
pub mod oracles;
pub mod shrink;
pub mod stream;

use dvs_analysis::LintMeta;

pub use bounded::{bounded_suite, check_sequences, Op, Violation};
pub use shrink::{ddmin, render_fault_addition_test, render_pair_test, shrink_case, Case};
pub use stream::{
    first_behavioral_divergence, first_divergence, replays, run_stream, synthetic_stream,
    word_misses, Access, Event,
};

const fn deny(name: &'static str) -> LintMeta {
    LintMeta {
        name,
        level: "deny",
    }
}

/// Every lint the [`oracles`] and [`metamorphic`] families report, with
/// the severity they report it at, for a report envelope's lint table.
pub const LINTS: [LintMeta; 10] = [
    deny(oracles::LINT_CLEAN_MAP),
    deny(oracles::LINT_SA_DM),
    deny(oracles::LINT_HALVING),
    deny(metamorphic::LINT_FAULT_ADD),
    deny(metamorphic::LINT_VOLTAGE),
    deny(metamorphic::LINT_NESTED),
    deny(metamorphic::LINT_WINDOW),
    deny(oracles::LINT_PACKED),
    LintMeta {
        name: oracles::LINT_HYPOTHESIS,
        level: "warn",
    },
    deny(oracles::LINT_PERSISTENCE),
];

//! End-to-end oracle families that drive the real `Evaluator`: clean-map
//! equivalence at 760 mV over a real bench10 workload, and persistence
//! identity (plain vs store-backed vs store-reloaded vs recorder-on).
//!
//! These run one small benchmark each to keep tier-1 fast; the `dvs-diff`
//! CLI sweeps all ten in CI. Clean equivalence runs once per fault model:
//! at a yield-clean operating point every injection backend must sample
//! an empty map and reproduce the defect-free run.

use dvs_diff::oracles;
use dvs_sram::FaultModel;
use dvs_workloads::Benchmark;

#[test]
fn evaluator_clean_equivalence_holds_at_760mv_under_every_model() {
    for model in FaultModel::ALL {
        let diags = oracles::evaluator_clean_equivalence(&[Benchmark::Crc32], 42, model);
        // Denies mean a scheme diverged from defect-free on clean maps; a
        // warn would mean the 760 mV map sampled a defect (possible but
        // vanishingly rare — surface it rather than hiding a skipped trial).
        assert_eq!(diags, Vec::new(), "diverged under {}", model.name());
    }
}

#[test]
fn persistence_never_changes_results() {
    // A 1-byte store cap forces an eviction after every save, so the
    // capped variants run the sweep's second cell against a store that
    // just evicted its first — the worst case for eviction determinism.
    let diags = oracles::persistence_identity(Benchmark::Adpcm, 42, FaultModel::Iid, Some(1));
    assert_eq!(diags, Vec::new());
}

#[test]
fn persistence_never_changes_results_under_correlated_faults() {
    // The correlated path threads per-word multipliers through the unit's
    // incremental chain walk; it must still agree with the from-scratch path.
    let diags =
        oracles::persistence_identity(Benchmark::Adpcm, 43, FaultModel::row_column(), Some(1));
    assert_eq!(diags, Vec::new());
}

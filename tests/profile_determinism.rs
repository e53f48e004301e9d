//! Determinism regression tests for the observability layer.
//!
//! The contract (see `dvs-obs` crate docs): counters and value
//! histograms derive only from simulation state, so for a fixed seed the
//! deterministic JSON rendering is byte-identical across runs — and
//! across worker-thread counts. Attaching a recorder must also be
//! invisible to the result store: cells written by an observed evaluator
//! are reloaded bit-identically by an unobserved one and vice versa.

use std::sync::Arc;

use dvs_bench::profile::{run_profile, ProfileOptions};
use dvs_core::{EvalConfig, Evaluator, ExperimentPlan, ResultStore, Scheme};
use dvs_obs::{MetricsRegistry, MetricsSnapshot};
use dvs_sram::{FaultModel, MilliVolts};
use dvs_workloads::Benchmark;

fn opts(threads: usize) -> ProfileOptions {
    let mut opts = ProfileOptions {
        benchmarks: vec![Benchmark::Qsort],
        voltages: vec![MilliVolts::new(480)],
        ..ProfileOptions::default()
    };
    opts.cfg.maps = 2;
    opts.cfg.trace_instrs = 4000;
    opts.cfg.threads = threads;
    opts
}

#[test]
fn same_seed_runs_render_identical_counter_sections() {
    let a = run_profile(&opts(2));
    let b = run_profile(&opts(2));
    assert_eq!(a.to_json(false), b.to_json(false));
    // Per-section snapshots agree field by field, not just as rendered.
    for (sa, sb) in a.sections.iter().zip(&b.sections) {
        assert_eq!(sa.snapshot.counters, sb.snapshot.counters);
        assert_eq!(sa.snapshot.values, sb.snapshot.values);
    }
}

#[test]
fn thread_count_never_leaks_into_deterministic_sections() {
    let serial = run_profile(&opts(1));
    let parallel = run_profile(&opts(4));
    assert_eq!(serial.to_json(false), parallel.to_json(false));
}

/// Runs a multi-rung, two-scheme plan under `model` at `threads` and
/// returns what the registry recorded.
fn recorded_ladder(model: FaultModel, threads: usize) -> MetricsSnapshot {
    let plan = ExperimentPlan::for_grid(
        &[Benchmark::Crc32, Benchmark::Qsort],
        &[Scheme::FfwBbr, Scheme::FbaPlus],
        &[760, 700, 640, 560, 480, 400].map(MilliVolts::new),
    );
    let cfg = EvalConfig {
        trace_instrs: 2_000,
        maps: 4,
        threads,
        fault_model: model,
        ..EvalConfig::quick()
    };
    assert!(cfg.validate_images);
    let registry = Arc::new(MetricsRegistry::new());
    let mut eval = Evaluator::new(cfg).with_recorder(registry.clone());
    eval.run_plan(&plan);
    registry.snapshot()
}

#[test]
fn multi_rung_plan_counters_do_not_depend_on_thread_count() {
    for model in [FaultModel::Iid, FaultModel::clustered()] {
        let serial = recorded_ladder(model, 1);
        for name in [
            "engine.link_cache.hits",
            "analysis.lints.runs",
            "linker.links",
            "engine.trials.computed",
        ] {
            assert!(
                serial.counter(name) > 0,
                "{model:?}: {name} is zero, so the plan does not exercise it"
            );
        }
        let added = serial
            .values
            .get("sram.faultchain.faults_added")
            .expect("chain faults are recorded");
        assert!(added.sum > 0, "{model:?}: the ladder reaches faulty rungs");
        for threads in [2, 4] {
            let parallel = recorded_ladder(model, threads);
            assert_eq!(
                serial.counters, parallel.counters,
                "{model:?}: counters at 1 and {threads} threads"
            );
            assert_eq!(
                serial.values, parallel.values,
                "{model:?}: value histograms at 1 and {threads} threads"
            );
        }
    }
}

#[test]
fn result_store_key_ignores_observability() {
    let dir = std::env::temp_dir().join(format!("dvs-obs-storekey-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = EvalConfig::quick();

    // An observed evaluator computes and persists the cell...
    let reg = Arc::new(MetricsRegistry::new());
    let mut observed = Evaluator::new(cfg)
        .with_store(ResultStore::open(&dir).unwrap())
        .with_recorder(reg.clone());
    let written = observed
        .run(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(480))
        .unwrap();
    assert!(observed.stats().trials_computed > 0);
    assert_eq!(reg.snapshot().counter("engine.store.cell_saves"), 1);

    // ...an unobserved evaluator finds it under the same key...
    let mut plain = Evaluator::new(cfg).with_store(ResultStore::open(&dir).unwrap());
    let reloaded = plain
        .run(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(480))
        .unwrap();
    assert_eq!(plain.stats().trials_computed, 0);
    assert_eq!(plain.stats().cells_from_store, 1);
    assert_eq!(written.trials, reloaded.trials);

    // ...and a second observed evaluator resolves it as a store hit, so
    // observability is neutral in both directions.
    let reg2 = Arc::new(MetricsRegistry::new());
    let mut observed2 = Evaluator::new(cfg)
        .with_store(ResultStore::open(&dir).unwrap())
        .with_recorder(reg2.clone());
    let again = observed2
        .run(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(480))
        .unwrap();
    assert_eq!(observed2.stats().trials_computed, 0);
    assert_eq!(reg2.snapshot().counter("engine.store.cell_hits"), 1);
    assert_eq!(written.trials, again.trials);

    let _ = std::fs::remove_dir_all(&dir);
}

//! Monte-Carlo experiment runner (paper Section V methodology).
//!
//! The runner is split into three layers:
//!
//! * **plan** ([`crate::plan`]) — [`crate::ExperimentPlan`] enumerates
//!   cells up front;
//! * **execution** ([`crate::engine`]) — one shared worker pool drains
//!   every trial of every planned cell;
//! * **persistence** ([`crate::store`]) — completed cells are written to
//!   an on-disk [`crate::ResultStore`] so separate processes share work.
//!
//! [`Evaluator`] ties the layers together and owns the in-memory cell
//! cache plus the derived figure metrics.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use dvs_cpu::{CoreConfig, SimResult};
use dvs_linker::{adaptive_max_block_words, bbr_transform, Diagnostic, LinkStats};
use dvs_obs::Recorder;
use dvs_power::energy::{EnergyModel, RunCounts};
use dvs_sram::stats::Summary;
use dvs_sram::{CacheGeometry, MilliVolts};
use dvs_workloads::{Benchmark, Layout, Program, TraceTemplate};

use crate::cancel::CancelToken;
use crate::engine::{self, BenchArtifacts, CellContext, EngineStats, ProgressFn, TrialOutcome};
use crate::plan::{CellKey, ExperimentPlan};
use crate::store::{ResultStore, StoreKey, StoredCell};
use crate::{DvfsPoint, Scheme};

/// Evaluation-scale parameters.
///
/// The paper runs each benchmark to completion over up to 1000 fault maps
/// per operating point; these knobs trade that fidelity for wall-clock
/// time. [`EvalConfig::paper_scale`] approaches the paper's protocol;
/// [`EvalConfig::quick`] is for tests.
///
/// # Parallelism policy
///
/// `threads` sizes the worker pool of **one** `run_plan` drain, and so
/// bounds the trials a process runs at once as long as it runs one plan
/// at a time. Every process the workspace ships does: a figure binary
/// runs its plans in turn, a `dvs-serve` node runs one plan at a time
/// through its in-process lane, and a `--join` worker runs its leases
/// one plan after another and refuses campaigns of its own. Like every
/// parallelism knob, `threads` can never change results and is not part
/// of the result-store key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Dynamic instructions simulated per trial.
    pub trace_instrs: usize,
    /// Fault maps (Monte-Carlo trials) per operating point.
    pub maps: u64,
    /// Root seed; everything derives deterministically from it.
    pub seed: u64,
    /// Fixed maximum basic-block footprint for the BBR transform, or
    /// `None` to adapt it to each operating point's defect density
    /// ([`dvs_linker::adaptive_max_block_words`]).
    pub bbr_max_block_words: Option<u32>,
    /// Worker threads for trial-level parallelism. Never affects results
    /// (and is therefore not part of the result-store key).
    pub threads: usize,
    /// Run every successfully linked BBR image through the `dvs-analysis`
    /// lint registry before simulating it, surfacing any deny finding as
    /// [`EvalError::InvariantViolation`]. Purely a checking knob — it can
    /// never change metrics, only reject them — so, like `threads`, it is
    /// not part of the result-store key.
    pub validate_images: bool,
    /// Share work between the trials of one (benchmark, map): the
    /// engine runs them as one unit whose fault chains advance down the
    /// voltage ladder instead of resampling each rung, whose BBR trials
    /// reuse the previous rung's linked image while the instruction-side
    /// map is unchanged, and whose traces resolve from a recorded
    /// template instead of re-walking the CFG. Off, every trial samples,
    /// links and walks from scratch. Purely a performance knob — results
    /// are bit-identical either way (the determinism tests pin this) —
    /// so it is not part of the result-store key.
    pub reuse_buffers: bool,
    /// Spatial structure of the Monte-Carlo fault maps
    /// ([`dvs_sram::FaultModel`]). Changes every sampled map, so — unlike
    /// the pure performance knobs — it **is** part of the result-store
    /// key (seed schema v3): cells computed under different models can
    /// never alias one store file. Defaults to the paper's i.i.d.
    /// protocol, which remains bit-identical to the pre-model sampler.
    pub fault_model: dvs_sram::FaultModel,
    /// Size cap applied to an attached [`ResultStore`]
    /// ([`ResultStore::with_max_bytes`]), or `None` for an unbounded
    /// store. Eviction turns cells into store misses — recomputed, never
    /// altered — so like `threads` this is not part of the result-store
    /// key and capped, unbounded and store-less runs are bit-identical
    /// (the dvs-diff persistence oracle pins this).
    pub store_max_bytes: Option<u64>,
}

impl EvalConfig {
    /// The default evaluation scale used by the figure binaries.
    pub fn standard() -> Self {
        EvalConfig {
            trace_instrs: 200_000,
            maps: 24,
            seed: 42,
            bbr_max_block_words: None,
            threads: 8,
            validate_images: false,
            reuse_buffers: true,
            fault_model: dvs_sram::FaultModel::Iid,
            store_max_bytes: None,
        }
    }

    /// Closer to the paper's protocol (slow; use from release binaries).
    pub fn paper_scale() -> Self {
        EvalConfig {
            trace_instrs: 2_000_000,
            maps: 200,
            ..EvalConfig::standard()
        }
    }

    /// A tiny configuration for unit/integration tests.
    pub fn quick() -> Self {
        EvalConfig {
            trace_instrs: 25_000,
            maps: 3,
            seed: 42,
            bbr_max_block_words: None,
            threads: 4,
            validate_images: true,
            reuse_buffers: true,
            fault_model: dvs_sram::FaultModel::Iid,
            store_max_bytes: None,
        }
    }
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig::standard()
    }
}

/// Failure of one experiment cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Every Monte-Carlo trial of the cell failed its BBR link: the fault
    /// maps at this voltage left no placement for the program. The cell
    /// has no data, but other cells of the campaign are unaffected.
    AllLinksFailed {
        /// The workload.
        benchmark: Benchmark,
        /// The evaluated configuration.
        scheme: Scheme,
        /// Nominal operating voltage.
        vcc: MilliVolts,
        /// Trials attempted (all of which failed to link).
        attempts: u64,
    },
    /// A linked image failed static validation (only reachable with
    /// [`EvalConfig::validate_images`] on). Unlike a link failure this is
    /// never expected: it means the linker or transform produced an image
    /// that violates a scheme invariant, so the cell's data is discarded
    /// rather than persisted.
    InvariantViolation {
        /// The workload.
        benchmark: Benchmark,
        /// The evaluated configuration.
        scheme: Scheme,
        /// Nominal operating voltage.
        vcc: MilliVolts,
        /// Trial index whose image failed validation.
        trial: u64,
        /// The first deny finding the lint registry reported.
        diagnostic: Diagnostic,
    },
    /// The campaign's [`crate::CancelToken`] fired before every trial of
    /// this cell completed. Nothing was persisted for the cell, and the
    /// evaluator does **not** cache this failure: re-running the plan
    /// (with a fresh token) recomputes the cell from scratch.
    Cancelled {
        /// The workload.
        benchmark: Benchmark,
        /// The evaluated configuration.
        scheme: Scheme,
        /// Nominal operating voltage.
        vcc: MilliVolts,
        /// Trials that did finish before the stop (their results are
        /// discarded — partial cells are never installed).
        completed: u64,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::AllLinksFailed {
                benchmark,
                scheme,
                vcc,
                attempts,
            } => write!(
                f,
                "every trial of {benchmark}/{scheme} at {vcc} failed to link \
                 ({attempts} attempts)"
            ),
            EvalError::InvariantViolation {
                benchmark,
                scheme,
                vcc,
                trial,
                diagnostic,
            } => write!(
                f,
                "trial {trial} of {benchmark}/{scheme} at {vcc} produced an \
                 invalid image: {diagnostic}"
            ),
            EvalError::Cancelled {
                benchmark,
                scheme,
                vcc,
                completed,
            } => write!(
                f,
                "{benchmark}/{scheme} at {vcc} was cancelled after \
                 {completed} trials"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// Raw outcome of one Monte-Carlo trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialMetrics {
    /// The CPU simulation result.
    pub result: SimResult,
    /// The counts the energy model consumes.
    pub counts: RunCounts,
    /// BBR placement statistics, when the scheme links.
    pub link_stats: Option<LinkStats>,
}

/// All trials of one (benchmark, scheme, voltage) cell.
#[derive(Debug, Clone)]
pub struct SchemeRun {
    /// The evaluated configuration.
    pub scheme: Scheme,
    /// Operating point.
    pub point: DvfsPoint,
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Successful trials, in trial-index order.
    pub trials: Vec<TrialMetrics>,
    /// Trials whose BBR link found no placement (counted, not simulated).
    pub failed_links: u64,
}

impl SchemeRun {
    /// Summary of cycle counts over trials.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is empty — the evaluator never constructs such
    /// a run (it reports [`EvalError::AllLinksFailed`] instead).
    pub fn cycles(&self) -> Summary {
        Summary::of(
            &self
                .trials
                .iter()
                .map(|t| t.result.cycles as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Summary of L2 accesses per 1000 *useful* instructions over trials
    /// (BBR's inserted jumps are overhead, not work).
    ///
    /// # Panics
    ///
    /// Panics if `trials` is empty — the evaluator never constructs such
    /// a run (it reports [`EvalError::AllLinksFailed`] instead).
    pub fn l2_per_kilo_instr(&self) -> Summary {
        Summary::of(
            &self
                .trials
                .iter()
                .map(|t| t.counts.l2_accesses as f64 * 1000.0 / t.counts.instructions as f64)
                .collect::<Vec<_>>(),
        )
    }
}

/// The Monte-Carlo experiment runner.
///
/// Results are cached per [`CellKey`] in memory, and — when a
/// [`ResultStore`] is attached — persisted on disk so other processes
/// reuse them. Campaigns run fastest through [`Evaluator::run_plan`],
/// which drains all cells through one shared worker pool; the
/// single-cell [`Evaluator::run`] is a one-cell plan.
pub struct Evaluator {
    cfg: EvalConfig,
    core: CoreConfig,
    energy: EnergyModel,
    geometry: CacheGeometry,
    artifacts: HashMap<Benchmark, Arc<BenchArtifacts>>,
    /// BBR-transformed programs per (benchmark, split threshold).
    transformed: HashMap<(Benchmark, u32), Arc<Program>>,
    /// Recorded trace templates per (benchmark, split threshold); `None`
    /// in the key means the untransformed benchmark program. Templates
    /// replay the walker's op sequence with per-trial address patching —
    /// see [`dvs_workloads::TraceTemplate`].
    templates: HashMap<(Benchmark, Option<u32>), Arc<TraceTemplate>>,
    /// Hoisted transform-equivalence results per (benchmark, split
    /// threshold): the lint depends only on the original and transformed
    /// programs, not on the per-trial fault map, so it runs once here
    /// instead of once per trial.
    equiv_checked: HashMap<(Benchmark, u32), Option<Diagnostic>>,
    runs: HashMap<CellKey, Arc<SchemeRun>>,
    failures: HashMap<CellKey, EvalError>,
    store: Option<ResultStore>,
    progress: Option<Box<ProgressFn>>,
    /// Engine outcomes and timings summed over every `run_plan`.
    stats: EngineStats,
    recorder: Option<Arc<dyn Recorder>>,
    cancel: Option<CancelToken>,
}

impl Evaluator {
    /// Creates an evaluator with the paper's core configuration and no
    /// on-disk store.
    pub fn new(cfg: EvalConfig) -> Self {
        Evaluator {
            cfg,
            core: CoreConfig::dsn2016(),
            energy: EnergyModel::dsn45(),
            geometry: CacheGeometry::dsn_l1(),
            artifacts: HashMap::new(),
            transformed: HashMap::new(),
            templates: HashMap::new(),
            equiv_checked: HashMap::new(),
            runs: HashMap::new(),
            failures: HashMap::new(),
            store: None,
            progress: None,
            stats: EngineStats::default(),
            recorder: None,
            cancel: None,
        }
    }

    /// Attaches an on-disk result store: completed cells are persisted,
    /// and planned cells already present in the store are loaded instead
    /// of recomputed. When [`EvalConfig::store_max_bytes`] is set the cap
    /// is applied to the store (shared by every clone of it).
    #[must_use]
    pub fn with_store(mut self, store: ResultStore) -> Self {
        if let Some(cap) = self.cfg.store_max_bytes {
            store.set_max_bytes(Some(cap));
        }
        self.store = Some(store);
        self
    }

    /// Registers a per-cell progress observer (fired from worker threads
    /// as cells finish, and synchronously for store-resolved cells).
    pub fn set_progress(&mut self, f: impl Fn(&engine::Progress) + Send + Sync + 'static) {
        self.progress = Some(Box::new(f));
    }

    /// Attaches a cancellation token: once it fires, workers finish the
    /// trial they are executing, stop claiming new ones, and every cell
    /// left incomplete reports [`EvalError::Cancelled`] instead of data.
    /// Completed cells are installed and persisted normally.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Builder form of [`Evaluator::set_cancel_token`].
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.set_cancel_token(token);
        self
    }

    /// Attaches a recorder to this evaluation: every subsequent trial
    /// reports subsystem metrics (cache latencies, linker placement,
    /// fault-map generation, engine outcomes) through it. A recorder
    /// whose [`Recorder::enabled`] is false is dropped, keeping all hot
    /// paths instrumentation-free.
    ///
    /// Observability can never change results: the recorder is not part
    /// of [`crate::StoreKey`], and recorded runs are bit-identical to
    /// unrecorded ones.
    pub fn observe(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = if recorder.enabled() {
            Some(recorder)
        } else {
            None
        };
    }

    /// Builder form of [`Evaluator::observe`].
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.observe(recorder);
        self
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<dyn Recorder>> {
        self.recorder.as_ref()
    }

    /// The configuration in force.
    pub fn config(&self) -> &EvalConfig {
        &self.cfg
    }

    /// The attached result store, if any.
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// Snapshot of the engine instrumentation accumulated so far (trials
    /// computed vs loaded, link failures, stage timings).
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Every cell that failed so far, sorted by cell key display order.
    pub fn failures(&self) -> Vec<(CellKey, EvalError)> {
        let mut out: Vec<(CellKey, EvalError)> =
            self.failures.iter().map(|(k, e)| (*k, e.clone())).collect();
        out.sort_by_key(|(k, _)| k.to_string());
        out
    }

    fn artifacts(&mut self, benchmark: Benchmark) -> Arc<BenchArtifacts> {
        let cfg = self.cfg;
        self.artifacts
            .entry(benchmark)
            .or_insert_with(|| {
                let workload = benchmark.build(cfg.seed);
                let seq_layout = Layout::sequential(workload.program());
                Arc::new(BenchArtifacts {
                    workload,
                    seq_layout,
                })
            })
            .clone()
    }

    /// The BBR split threshold in force at `point` (the compiler splits
    /// only as much as the chunks require).
    fn max_block_words(&self, point: DvfsPoint) -> u32 {
        self.cfg
            .bbr_max_block_words
            .unwrap_or_else(|| adaptive_max_block_words(point.pfail_word()))
    }

    /// The BBR-compiled program for `benchmark` at a split threshold.
    fn transformed_for(&mut self, benchmark: Benchmark, max_words: u32) -> Arc<Program> {
        let art = self.artifacts(benchmark);
        self.transformed
            .entry((benchmark, max_words))
            .or_insert_with(|| Arc::new(bbr_transform(art.workload.program(), max_words)))
            .clone()
    }

    /// Largest per-trial trace for which templates are recorded. Above
    /// this the recording's memory cost outweighs the per-trial walker
    /// saving, and trials fall back to walking the CFG directly.
    const TEMPLATE_MAX_INSTRS: usize = 50_000;

    /// The recorded trace template for `benchmark`, over the transformed
    /// program when `max_words` is given, else over the benchmark's own
    /// program. Recorded with headroom: resolving a relaxed program skips
    /// elided jumps, so `n` resolved ops can consume more than `n`
    /// recorded steps.
    fn template(&mut self, benchmark: Benchmark, max_words: Option<u32>) -> Arc<TraceTemplate> {
        if let Some(t) = self.templates.get(&(benchmark, max_words)) {
            return t.clone();
        }
        let art = self.artifacts(benchmark);
        let budget = self.cfg.trace_instrs + self.cfg.trace_instrs / 4 + 64;
        let start = Instant::now();
        let template = match max_words {
            Some(mw) => {
                let transformed = self.transformed_for(benchmark, mw);
                let seq = Layout::sequential(&transformed);
                TraceTemplate::record(
                    &mut art.workload.trace_program(&transformed, &seq, 0),
                    budget,
                )
            }
            None => TraceTemplate::record(
                &mut art
                    .workload
                    .trace_program(art.workload.program(), &art.seq_layout, 0),
                budget,
            ),
        };
        if let Some(rec) = &self.recorder {
            rec.duration(
                "engine.trace_template.record_nanos",
                start.elapsed().as_nanos() as u64,
            );
            rec.add("engine.trace_template.recorded", 1);
        }
        let template = Arc::new(template);
        self.templates
            .insert((benchmark, max_words), template.clone());
        template
    }

    /// The hoisted transform-equivalence check for `(benchmark,
    /// max_words)`: the lint compares the original and transformed
    /// programs only (per-trial relaxation merely elides jumps that the
    /// equivalence relation already ignores), so one check covers every
    /// trial of every cell sharing the transform.
    fn transform_equivalence(
        &mut self,
        benchmark: Benchmark,
        max_words: u32,
    ) -> Option<Diagnostic> {
        if let Some(d) = self.equiv_checked.get(&(benchmark, max_words)) {
            return d.clone();
        }
        let art = self.artifacts(benchmark);
        let transformed = self.transformed_for(benchmark, max_words);
        let diag = dvs_analysis::check_trace_equivalence(
            art.workload.program(),
            &transformed,
            &dvs_analysis::EquivConfig::default(),
        )
        .err();
        self.equiv_checked
            .insert((benchmark, max_words), diag.clone());
        diag
    }

    /// Whether `key` is already resolved (in memory) as a run or failure.
    fn resolved(&self, key: &CellKey) -> bool {
        self.runs.contains_key(key) || self.failures.contains_key(key)
    }

    /// Installs a finished cell, classifying empty results as
    /// [`EvalError::AllLinksFailed`].
    fn install(&mut self, key: CellKey, trials: Vec<TrialMetrics>, failed_links: u64) {
        if trials.is_empty() {
            self.failures.insert(
                key,
                EvalError::AllLinksFailed {
                    benchmark: key.benchmark,
                    scheme: key.scheme,
                    vcc: key.vcc(),
                    attempts: failed_links,
                },
            );
        } else {
            self.runs.insert(
                key,
                Arc::new(SchemeRun {
                    scheme: key.scheme,
                    point: key.point(),
                    benchmark: key.benchmark,
                    trials,
                    failed_links,
                }),
            );
        }
    }

    fn lookup(&self, key: &CellKey) -> Result<Arc<SchemeRun>, EvalError> {
        if let Some(run) = self.runs.get(key) {
            Ok(run.clone())
        } else if let Some(err) = self.failures.get(key) {
            Err(err.clone())
        } else {
            unreachable!("cell {key} was planned but never resolved")
        }
    }

    /// Runs a whole campaign: resolves every planned cell from memory,
    /// then from the store, and simulates the rest through one shared
    /// worker pool. Returns one result per planned cell, in plan order.
    ///
    /// A cell whose every trial fails to link yields
    /// [`EvalError::AllLinksFailed`] without affecting other cells.
    pub fn run_plan(
        &mut self,
        plan: &ExperimentPlan,
    ) -> Vec<(CellKey, Result<Arc<SchemeRun>, EvalError>)> {
        let wall_start = Instant::now();
        let cells_total = plan.len();
        let mut cells_done = 0usize;
        // This plan's delta: added to `self.stats` and exported to the
        // recorder at the end, so the two can never disagree.
        let mut tally = EngineStats::default();

        // Resolution pass: memory first, then the store.
        let mut missing: Vec<CellKey> = Vec::new();
        for &key in plan.cells() {
            if self.resolved(&key) {
                if let Some(rec) = &self.recorder {
                    rec.add("engine.cells.memory_hits", 1);
                }
                cells_done += 1;
                self.fire_progress(key, 0, cells_done, cells_total);
                continue;
            }
            if let Some(stored) = self.store.as_ref().and_then(|s| {
                s.load(&StoreKey::for_cell(
                    &self.cfg,
                    &self.core,
                    &self.geometry,
                    &key,
                ))
            }) {
                tally.trials_from_store += stored.trials.len() as u64 + stored.failed_links;
                tally.cells_from_store += 1;
                self.install(key, stored.trials, stored.failed_links);
                cells_done += 1;
                self.fire_progress(key, 0, cells_done, cells_total);
                continue;
            }
            if self.store.is_some() {
                if let Some(rec) = &self.recorder {
                    rec.add("engine.store.cell_misses", 1);
                }
            }
            missing.push(key);
        }

        // Execution pass: one shared pool over every remaining trial.
        if !missing.is_empty() {
            let want_templates =
                self.cfg.reuse_buffers && self.cfg.trace_instrs <= Self::TEMPLATE_MAX_INSTRS;
            let contexts: Vec<CellContext> = missing
                .iter()
                .map(|&key| {
                    let point = key.point();
                    let (transformed, template, equiv_diag) = if key.scheme.needs_bbr_link() {
                        let max_words = self.max_block_words(point);
                        (
                            Some(self.transformed_for(key.benchmark, max_words)),
                            want_templates.then(|| self.template(key.benchmark, Some(max_words))),
                            if self.cfg.validate_images {
                                self.transform_equivalence(key.benchmark, max_words)
                            } else {
                                None
                            },
                        )
                    } else {
                        (
                            None,
                            want_templates.then(|| self.template(key.benchmark, None)),
                            None,
                        )
                    };
                    CellContext {
                        key,
                        point,
                        trials: key.trials(&self.cfg),
                        seed_base: key.seed_base(self.cfg.seed),
                        artifacts: self.artifacts(key.benchmark),
                        transformed,
                        template,
                        equiv_diag,
                    }
                })
                .collect();
            let outcomes = engine::execute_cells(
                &self.cfg,
                &self.core,
                &self.geometry,
                &contexts,
                &mut tally,
                self.recorder.as_ref(),
                engine::DrainScope {
                    callback: self.progress.as_deref(),
                    cells_done_before: cells_done,
                    cells_total,
                    cancel: self.cancel.as_ref(),
                },
            );
            for (key, cell_outcomes) in missing.iter().zip(outcomes) {
                // A cancelled drain leaves cells short of their trial
                // quota; those must neither be installed nor persisted.
                if (cell_outcomes.len() as u64) < key.trials(&self.cfg) {
                    self.failures.insert(
                        *key,
                        EvalError::Cancelled {
                            benchmark: key.benchmark,
                            scheme: key.scheme,
                            vcc: key.vcc(),
                            completed: cell_outcomes.len() as u64,
                        },
                    );
                    continue;
                }
                let mut failed_links = 0u64;
                let mut violation: Option<(u64, Diagnostic)> = None;
                let mut trials: Vec<TrialMetrics> = Vec::new();
                for (trial, outcome) in cell_outcomes {
                    match outcome {
                        TrialOutcome::Metrics(m) => trials.push(*m),
                        TrialOutcome::LinkFailed => failed_links += 1,
                        TrialOutcome::Invalid(d) => {
                            if violation.is_none() {
                                violation = Some((trial, d));
                            }
                        }
                    }
                }
                if let Some((trial, diagnostic)) = violation {
                    // An invalid image means the cell's data is suspect:
                    // fail the cell and keep it out of the result store.
                    self.failures.insert(
                        *key,
                        EvalError::InvariantViolation {
                            benchmark: key.benchmark,
                            scheme: key.scheme,
                            vcc: key.vcc(),
                            trial,
                            diagnostic,
                        },
                    );
                    continue;
                }
                if let Some(store) = &self.store {
                    let store_key = StoreKey::for_cell(&self.cfg, &self.core, &self.geometry, key);
                    let cell = StoredCell {
                        failed_links,
                        trials: trials.clone(),
                    };
                    if let Err(e) = store.save(&store_key, &cell) {
                        eprintln!("warning: result store save failed for {key}: {e}");
                    } else if let Some(rec) = &self.recorder {
                        rec.add("engine.store.cell_saves", 1);
                    }
                }
                self.install(*key, trials, failed_links);
            }
        }

        tally.wall_nanos = wall_start.elapsed().as_nanos() as u64;
        self.stats.merge(&tally);
        if let Some(rec) = &self.recorder {
            tally.export(rec.as_ref());
        }
        if let (Some(rec), Some(store)) = (&self.recorder, &self.store) {
            store.stats().export(rec.as_ref());
        }
        let results = plan.cells().iter().map(|&k| (k, self.lookup(&k))).collect();
        // Cancelled cells are reported but never cached: a later run_plan
        // (with a fresh token) must recompute them, not replay the stop.
        self.failures
            .retain(|_, e| !matches!(e, EvalError::Cancelled { .. }));
        results
    }

    fn fire_progress(&self, cell: CellKey, trials_computed: u64, done: usize, total: usize) {
        if let Some(cb) = &self.progress {
            cb(&engine::Progress {
                cell,
                trials_computed,
                cells_done: done,
                cells_total: total,
            });
        }
    }

    /// Runs (or returns the cached) Monte-Carlo cell for one
    /// (benchmark, scheme, voltage) combination.
    ///
    /// # Errors
    ///
    /// [`EvalError::AllLinksFailed`] when no trial of the cell links.
    pub fn run(
        &mut self,
        benchmark: Benchmark,
        scheme: Scheme,
        vcc: MilliVolts,
    ) -> Result<Arc<SchemeRun>, EvalError> {
        let key = CellKey::new(benchmark, scheme, vcc);
        if self.resolved(&key) {
            if let Some(rec) = &self.recorder {
                rec.add("engine.cells.memory_hits", 1);
            }
            return self.lookup(&key);
        }
        let mut plan = ExperimentPlan::new();
        plan.add_key(key);
        // Take run_plan's own result: cancelled cells are reported there
        // but deliberately absent from the failure cache.
        self.run_plan(&plan)
            .pop()
            .expect("one-cell plan yields one result")
            .1
    }

    /// Per-trial run time normalized to the defect-free cache at the same
    /// operating point (Figure 10's metric).
    ///
    /// # Errors
    ///
    /// [`EvalError::AllLinksFailed`] when no trial of the cell links.
    pub fn normalized_runtime(
        &mut self,
        benchmark: Benchmark,
        scheme: Scheme,
        vcc: MilliVolts,
    ) -> Result<Summary, EvalError> {
        let base_run = self.run(benchmark, Scheme::DefectFree, vcc)?;
        let base_trial = &base_run.trials[0];
        let base = base_trial.counts.cycles as f64 / base_trial.counts.instructions as f64;
        let run = self.run(benchmark, scheme, vcc)?;
        Ok(Summary::of(
            &run.trials
                .iter()
                .map(|t| (t.counts.cycles as f64 / t.counts.instructions as f64) / base)
                .collect::<Vec<_>>(),
        ))
    }

    /// L2 accesses per 1000 instructions (Figure 11's metric).
    ///
    /// # Errors
    ///
    /// [`EvalError::AllLinksFailed`] when no trial of the cell links.
    pub fn l2_per_kilo_instr(
        &mut self,
        benchmark: Benchmark,
        scheme: Scheme,
        vcc: MilliVolts,
    ) -> Result<Summary, EvalError> {
        Ok(self.run(benchmark, scheme, vcc)?.l2_per_kilo_instr())
    }

    /// Per-trial energy per instruction, normalized to the conventional
    /// cache at 760 mV (Figure 12's metric).
    ///
    /// # Errors
    ///
    /// [`EvalError::AllLinksFailed`] when no trial of the cell links.
    pub fn normalized_epi(
        &mut self,
        benchmark: Benchmark,
        scheme: Scheme,
        vcc: MilliVolts,
    ) -> Result<Summary, EvalError> {
        let baseline = self
            .run(benchmark, Scheme::Baseline760, MilliVolts::new(760))?
            .trials[0]
            .counts;
        let run = self.run(benchmark, scheme, vcc)?;
        let energy = self.energy;
        let factor = scheme.energy_static_factor();
        Ok(Summary::of(
            &run.trials
                .iter()
                .map(|t| {
                    energy.epi_normalized(
                        &baseline,
                        &t.counts,
                        run.point.vcc,
                        run.point.freq_mhz,
                        factor,
                    )
                })
                .collect::<Vec<_>>(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn eval() -> Evaluator {
        Evaluator::new(EvalConfig::quick())
    }

    fn temp_store(tag: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!("dvs-eval-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::open(dir).expect("temp store")
    }

    #[test]
    fn defect_free_runs_once_and_normalizes_to_one() {
        let mut e = eval();
        let s = e
            .normalized_runtime(Benchmark::Crc32, Scheme::DefectFree, MilliVolts::new(480))
            .unwrap();
        assert_eq!(s.n, 1);
        assert!((s.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn faulty_schemes_run_all_maps() {
        let mut e = eval();
        let run = e
            .run(Benchmark::Crc32, Scheme::SimpleWdis, MilliVolts::new(480))
            .unwrap();
        assert_eq!(run.trials.len() as u64 + run.failed_links, e.config().maps);
        assert_eq!(run.failed_links, 0);
    }

    #[test]
    fn results_are_cached_and_deterministic() {
        let mut e = eval();
        let a = e
            .run(Benchmark::Adpcm, Scheme::FfwBbr, MilliVolts::new(440))
            .unwrap();
        let b = e
            .run(Benchmark::Adpcm, Scheme::FfwBbr, MilliVolts::new(440))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // A fresh evaluator reproduces the same numbers.
        let mut e2 = eval();
        let c = e2
            .run(Benchmark::Adpcm, Scheme::FfwBbr, MilliVolts::new(440))
            .unwrap();
        assert_eq!(a.trials[0].result.cycles, c.trials[0].result.cycles);
        assert_eq!(a.trials.len(), c.trials.len());
        assert!(a.cycles().bitwise_eq(&c.cycles()));

        // Units (chain reuse, image reuse across rungs, trace templates)
        // are purely an accelerator: with them disabled every trial of
        // every cell reproduces bit-identically. Sweeping two voltages
        // of one benchmark under two schemes exercises the incremental
        // ladder path and the unit's image.
        let plan = ExperimentPlan::for_grid(
            &[Benchmark::Adpcm],
            &[Scheme::FfwBbr, Scheme::SimpleWdis],
            &[MilliVolts::new(480), MilliVolts::new(440)],
        );
        let mut warm = eval();
        let mut cold = Evaluator::new(EvalConfig {
            reuse_buffers: false,
            ..EvalConfig::quick()
        });
        let warm_runs = warm.run_plan(&plan);
        let cold_runs = cold.run_plan(&plan);
        assert_eq!(warm_runs.len(), cold_runs.len());
        for ((wk, wr), (ck, cr)) in warm_runs.iter().zip(&cold_runs) {
            assert_eq!(wk, ck);
            let (wr, cr) = (wr.as_ref().unwrap(), cr.as_ref().unwrap());
            assert_eq!(wr.failed_links, cr.failed_links, "{wk}");
            assert_eq!(wr.trials, cr.trials, "{wk}");
        }

        // A store-backed evaluator persists the cell, and a second
        // store-backed evaluator reloads it bit-identically without
        // simulating anything.
        let store = temp_store("determinism");
        let dir = store.dir().to_path_buf();
        let mut live = Evaluator::new(EvalConfig::quick()).with_store(store);
        let d = live
            .run(Benchmark::Adpcm, Scheme::FfwBbr, MilliVolts::new(440))
            .unwrap();
        assert_eq!(live.stats().trials_from_store, 0);
        assert!(live.stats().trials_computed > 0);

        let mut reloaded =
            Evaluator::new(EvalConfig::quick()).with_store(ResultStore::open(&dir).unwrap());
        let g = reloaded
            .run(Benchmark::Adpcm, Scheme::FfwBbr, MilliVolts::new(440))
            .unwrap();
        assert_eq!(reloaded.stats().trials_computed, 0);
        assert_eq!(reloaded.stats().cells_from_store, 1);
        assert_eq!(d.trials, g.trials);
        assert!(d.cycles().bitwise_eq(&g.cycles()));
        assert!(d.l2_per_kilo_instr().bitwise_eq(&g.l2_per_kilo_instr()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capped_store_evicts_but_never_changes_results() {
        // The harshest possible cap: 1 byte keeps at most the single cell
        // just saved (a save never evicts its own file). Every earlier
        // cell becomes a miss — and a miss is just a recompute, so the
        // sweep must stay bit-identical to a store-less run.
        let store = temp_store("capped");
        let dir = store.dir().to_path_buf();
        let plan = ExperimentPlan::for_grid(
            &[Benchmark::Crc32],
            &[Scheme::FfwBbr, Scheme::SimpleWdis],
            &[MilliVolts::new(480), MilliVolts::new(440)],
        );

        let mut plain = eval();
        let plain_runs = plain.run_plan(&plan);

        let capped_cfg = EvalConfig {
            store_max_bytes: Some(1),
            ..EvalConfig::quick()
        };
        let mut capped = Evaluator::new(capped_cfg).with_store(store.clone());
        assert_eq!(store.max_bytes(), Some(1), "with_store applies the cap");
        let capped_runs = capped.run_plan(&plan);
        for ((pk, pr), (ck, cr)) in plain_runs.iter().zip(&capped_runs) {
            assert_eq!(pk, ck);
            let (pr, cr) = (pr.as_ref().unwrap(), cr.as_ref().unwrap());
            assert_eq!(pr.trials, cr.trials, "{pk}");
            assert_eq!(pr.failed_links, cr.failed_links, "{pk}");
        }
        let stats = store.stats();
        assert!(stats.evictions >= 3, "{stats:?}");
        assert_eq!(stats.cells, 1, "{stats:?}");

        // A second capped evaluator over the same directory hits the one
        // survivor, recomputes the rest, and still agrees bit for bit.
        let mut again = Evaluator::new(capped_cfg).with_store(ResultStore::open(&dir).unwrap());
        let again_runs = again.run_plan(&plan);
        assert_eq!(again.stats().cells_from_store, 1);
        for ((pk, pr), (_, ar)) in plain_runs.iter().zip(&again_runs) {
            assert_eq!(
                pr.as_ref().unwrap().trials,
                ar.as_ref().unwrap().trials,
                "{pk}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recorder_never_changes_results_and_sees_trials() {
        use dvs_obs::{MetricsRegistry, NullRecorder};

        let mut plain = eval();
        let a = plain
            .run(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(480))
            .unwrap();

        let reg = Arc::new(MetricsRegistry::new());
        let mut observed = eval().with_recorder(reg.clone());
        assert!(observed.recorder().is_some());
        let b = observed
            .run(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(480))
            .unwrap();

        // Observability is invisible to the simulation.
        assert_eq!(a.trials, b.trials);
        assert_eq!(a.failed_links, b.failed_links);

        // ...but the recorder saw every computed trial and the cache
        // hierarchy underneath them.
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("engine.trials.computed"),
            observed.stats().trials_computed
        );
        assert!(snap.counter("cache.l1i.accesses") > 0);
        assert!(snap.counter("cpu.instructions") > 0);

        // Memory-resolved cells are counted on a re-run.
        let _ = observed
            .run(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(480))
            .unwrap();
        assert_eq!(reg.snapshot().counter("engine.cells.memory_hits"), 1);

        // A disabled recorder is dropped outright.
        let off = eval().with_recorder(Arc::new(NullRecorder));
        assert!(off.recorder().is_none());

        // The store key is independent of observability: a cell saved by
        // an observed evaluator is reloaded by an unobserved one.
        let store = temp_store("recorder-key");
        let dir = store.dir().to_path_buf();
        let reg2 = Arc::new(MetricsRegistry::new());
        let mut writer = Evaluator::new(EvalConfig::quick())
            .with_store(store)
            .with_recorder(reg2.clone());
        let _ = writer
            .run(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(480))
            .unwrap();
        assert_eq!(reg2.snapshot().counter("engine.store.cell_saves"), 1);
        assert_eq!(reg2.snapshot().counter("engine.store.cell_misses"), 1);

        let mut reader =
            Evaluator::new(EvalConfig::quick()).with_store(ResultStore::open(&dir).unwrap());
        let c = reader
            .run(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(480))
            .unwrap();
        assert_eq!(reader.stats().trials_computed, 0);
        assert_eq!(a.trials, c.trials);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `engine.trials.*` and `engine.store.{cell_hits,trials_loaded}`
    /// are exported from the tally `stats()` reports, so each `run_plan`
    /// moves them by exactly its `EngineStats` delta — at any thread
    /// count, over computed, link-failed and store-hit cells.
    #[test]
    fn recorder_outcome_counters_equal_the_engine_stats_delta() {
        use dvs_obs::MetricsRegistry;

        let stored = CellKey::new(Benchmark::Crc32, Scheme::DefectFree, MilliVolts::new(760));
        let plans = [
            ExperimentPlan::for_cells([
                stored,
                CellKey::new(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(340)),
                CellKey::new(Benchmark::Adpcm, Scheme::DefectFree, MilliVolts::new(600)),
            ]),
            // The stored cell is a memory hit now; only links fail.
            ExperimentPlan::for_cells([
                stored,
                CellKey::new(Benchmark::Adpcm, Scheme::FfwBbr, MilliVolts::new(340)),
            ]),
        ];
        for threads in [1, 2] {
            let store = temp_store(&format!("tally-{threads}"));
            let dir = store.dir().to_path_buf();
            let cfg = EvalConfig {
                maps: 3,
                trace_instrs: 2_000,
                threads,
                ..EvalConfig::quick()
            };
            Evaluator::new(cfg)
                .with_store(store.clone())
                .run_plan(&ExperimentPlan::for_cells([stored]));

            let reg = Arc::new(MetricsRegistry::new());
            let mut ev = Evaluator::new(cfg)
                .with_store(store)
                .with_recorder(reg.clone());
            for plan in &plans {
                let (before, snap_before) = (ev.stats(), reg.snapshot());
                ev.run_plan(plan);
                let (after, snap) = (ev.stats(), reg.snapshot());
                for (name, delta) in [
                    (
                        "engine.trials.computed",
                        after.trials_computed - before.trials_computed,
                    ),
                    (
                        "engine.trials.link_failed",
                        after.link_failures - before.link_failures,
                    ),
                    (
                        "engine.trials.invalid",
                        after.invariant_violations - before.invariant_violations,
                    ),
                    (
                        "engine.store.cell_hits",
                        after.cells_from_store - before.cells_from_store,
                    ),
                    (
                        "engine.store.trials_loaded",
                        after.trials_from_store - before.trials_from_store,
                    ),
                ] {
                    assert_eq!(
                        snap.counter(name) - snap_before.counter(name),
                        delta,
                        "{name} at {threads} threads"
                    );
                    // A name no event touched stays out of the snapshot.
                    assert_eq!(
                        snap.counters.contains_key(name),
                        snap.counter(name) > 0,
                        "{name}"
                    );
                }
            }
            let total = ev.stats();
            assert!(total.trials_computed > 0, "{total:?}");
            assert!(total.link_failures > 0, "{total:?}");
            // A fault-free cell is one trial.
            assert_eq!(
                (total.cells_from_store, total.trials_from_store),
                (1, 1),
                "{total:?}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn run_plan_reports_every_cell_and_fires_progress() {
        let mut e = eval();
        let events: Arc<Mutex<Vec<(String, usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = events.clone();
        e.set_progress(move |p| {
            sink.lock()
                .unwrap()
                .push((p.cell.to_string(), p.cells_done, p.cells_total));
        });
        let plan = ExperimentPlan::for_grid(
            &[Benchmark::Crc32],
            &[Scheme::DefectFree, Scheme::SimpleWdis, Scheme::FfwBbr],
            &[MilliVolts::new(480)],
        );
        let results = e.run_plan(&plan);
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|(_, r)| r.is_ok()));

        {
            let events = events.lock().unwrap();
            assert_eq!(events.len(), 3);
            let mut dones: Vec<usize> = events.iter().map(|(_, d, _)| *d).collect();
            dones.sort_unstable();
            assert_eq!(dones, vec![1, 2, 3]);
            assert!(events.iter().all(|(_, _, t)| *t == 3));
        }

        // Re-running the same plan resolves everything from memory.
        let computed_before = e.stats().trials_computed;
        let again = e.run_plan(&plan);
        assert!(again.iter().all(|(_, r)| r.is_ok()));
        assert_eq!(e.stats().trials_computed, computed_before);
    }

    #[test]
    fn bbr_links_and_records_stats() {
        let mut e = eval();
        let run = e
            .run(Benchmark::Basicmath, Scheme::FfwBbr, MilliVolts::new(400))
            .unwrap();
        assert!(!run.trials.is_empty());
        for t in &run.trials {
            let stats = t.link_stats.expect("FFW+BBR trials link");
            assert!(stats.padding_words > 0, "400 mV placement needs gaps");
        }
    }

    #[test]
    fn defective_words_slow_things_down() {
        let mut e = eval();
        let v = MilliVolts::new(400);
        let wdis = e
            .normalized_runtime(Benchmark::Dijkstra, Scheme::SimpleWdis, v)
            .unwrap();
        assert!(
            wdis.mean > 1.2,
            "simple-wdis at 400 mV should suffer badly, got {:.3}",
            wdis.mean
        );
    }

    #[test]
    fn ffw_bbr_beats_simple_wdis_at_400mv() {
        // The paper's headline ordering at the deepest voltage.
        let mut e = eval();
        let v = MilliVolts::new(400);
        let ours = e
            .normalized_runtime(Benchmark::Qsort, Scheme::FfwBbr, v)
            .unwrap();
        let wdis = e
            .normalized_runtime(Benchmark::Qsort, Scheme::SimpleWdis, v)
            .unwrap();
        assert!(
            ours.mean < wdis.mean,
            "FFW+BBR {:.3} vs Simple-wdis {:.3}",
            ours.mean,
            wdis.mean
        );
    }

    #[test]
    fn epi_baseline_is_unity_and_proposal_saves_energy() {
        let mut e = eval();
        let base = e
            .normalized_epi(Benchmark::Crc32, Scheme::Baseline760, MilliVolts::new(760))
            .unwrap();
        assert!((base.mean - 1.0).abs() < 1e-9);
        let ours = e
            .normalized_epi(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(400))
            .unwrap();
        assert!(
            ours.mean < 0.6,
            "FFW+BBR at 400 mV should cut EPI hard, got {:.3}",
            ours.mean
        );
    }

    #[test]
    fn all_links_failed_is_an_error_not_a_panic() {
        // A cell whose every trial failed its link (here persisted by a
        // previous — hypothetical — process) surfaces as a typed error,
        // not a panic, and leaves the rest of the campaign usable.
        let store = temp_store("allfail");
        let dir = store.dir().to_path_buf();
        let cfg = EvalConfig::quick();
        let key = CellKey::new(Benchmark::Qsort, Scheme::FfwBbr, MilliVolts::new(400));
        let store_key =
            StoreKey::for_cell(&cfg, &CoreConfig::dsn2016(), &CacheGeometry::dsn_l1(), &key);
        store
            .save(
                &store_key,
                &StoredCell {
                    failed_links: cfg.maps,
                    trials: Vec::new(),
                },
            )
            .unwrap();

        let mut e = Evaluator::new(cfg).with_store(store);
        let err = e
            .run(Benchmark::Qsort, Scheme::FfwBbr, MilliVolts::new(400))
            .unwrap_err();
        match err {
            EvalError::AllLinksFailed {
                benchmark,
                scheme,
                vcc,
                attempts,
            } => {
                assert_eq!(benchmark, Benchmark::Qsort);
                assert_eq!(scheme, Scheme::FfwBbr);
                assert_eq!(vcc.get(), 400);
                assert_eq!(attempts, cfg.maps);
            }
            other => panic!("expected AllLinksFailed, got {other}"),
        }
        // Other cells of the campaign still work.
        assert!(e
            .run(Benchmark::Qsort, Scheme::SimpleWdis, MilliVolts::new(400))
            .is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_images_is_on_for_quick_and_off_the_store_key() {
        assert!(EvalConfig::quick().validate_images);
        assert!(!EvalConfig::standard().validate_images);
        assert!(!EvalConfig::paper_scale().validate_images);
        // Like `threads`, the flag can never change results, so two
        // configs differing only in it must share stored cells.
        let with = EvalConfig::quick();
        let without = EvalConfig {
            validate_images: false,
            ..with
        };
        let key = CellKey::new(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(440));
        let core = CoreConfig::dsn2016();
        let geom = CacheGeometry::dsn_l1();
        assert_eq!(
            StoreKey::for_cell(&with, &core, &geom, &key),
            StoreKey::for_cell(&without, &core, &geom, &key)
        );
    }

    #[test]
    fn cancelled_campaign_reports_typed_error_and_is_not_cached() {
        use crate::CancelToken;

        let token = CancelToken::new();
        token.cancel(); // fire before anything runs: nothing may start
        let mut e = eval();
        e.set_cancel_token(token);
        let plan = ExperimentPlan::for_grid(
            &[Benchmark::Crc32],
            &[Scheme::SimpleWdis, Scheme::FfwBbr],
            &[MilliVolts::new(480)],
        );
        let results = e.run_plan(&plan);
        assert_eq!(results.len(), 2);
        for (key, r) in &results {
            match r {
                Err(EvalError::Cancelled {
                    benchmark,
                    completed,
                    ..
                }) => {
                    assert_eq!(*benchmark, key.benchmark);
                    assert_eq!(*completed, 0);
                }
                other => panic!("expected Cancelled for {key}, got {other:?}"),
            }
        }
        assert_eq!(e.stats().trials_computed, 0);

        // Cancelled cells are not cached: a fresh token lets the same
        // evaluator recompute them.
        e.set_cancel_token(CancelToken::new());
        let again = e.run_plan(&plan);
        assert!(again.iter().all(|(_, r)| r.is_ok()));
        assert!(e.stats().trials_computed > 0);
    }

    #[test]
    fn cancelled_cells_never_reach_the_store() {
        use crate::CancelToken;

        let store = temp_store("cancel");
        let dir = store.dir().to_path_buf();
        let token = CancelToken::new();
        token.cancel();
        let mut e = Evaluator::new(EvalConfig::quick())
            .with_store(store)
            .with_cancel_token(token);
        let _ = e.run(Benchmark::Crc32, Scheme::SimpleWdis, MilliVolts::new(480));
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.cell_count().unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validated_bbr_run_reports_zero_violations() {
        // quick() lints every linked image; real linker output must pass.
        let mut e = Evaluator::new(EvalConfig::quick());
        let run = e
            .run(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(440))
            .expect("crc32 FFW+BBR at 440 mV links");
        assert!(!run.trials.is_empty());
        assert_eq!(e.stats().invariant_violations, 0);
    }
}

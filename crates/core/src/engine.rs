//! Execution layer of the experiment engine: *how* cells run.
//!
//! One shared worker pool drains the trials of **all** cells in a plan,
//! grouped into *units*. A unit holds every fault-seeing trial that
//! shares one `(seed base, trial)` pair of fault chains — one
//! (benchmark, map index) of the plan — and one worker prepares it from
//! the highest rung to the lowest: it builds the two chains once,
//! advances them rung by rung, reuses the previous rung's linked image
//! while the instruction-side map stays unchanged, and drops the chains
//! when the unit's last trial is prepared. Each prepared trial (its two
//! maps and a shared handle on its image) goes to a queue that every
//! worker simulates from, lowest cell first, and a worker claims the next
//! unit only when that queue is empty. So the pool balances trial by
//! trial however few units a plan has, cells finish in plan order,
//! engine memory is bounded by the units in flight, and what a trial
//! records never depends on which worker ran what.
//!
//! The pool is deterministic by construction: every trial's fault maps
//! depend only on (root seed, benchmark, trial index) and the voltage
//! ladder down to its cell's point, and per-cell results are re-sorted
//! by trial index after the drain, so scheduling order, thread count and
//! store hits never change a result.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use dvs_cpu::{simulate, CoreConfig, MemSystem, SimResult};
use dvs_linker::{BbrLinker, Diagnostic, LinkStats, Severity};
use dvs_obs::Recorder;
use dvs_power::energy::RunCounts;
use dvs_schemes::L1Cache;
use dvs_sram::montecarlo::trial_seed;
use dvs_sram::{
    ladder_mv, CacheGeometry, FaultChain, FaultMap, FaultModel, MilliVolts, PfailModel,
    LADDER_STEP_MV, LADDER_TOP_MV,
};
use dvs_workloads::{Layout, Program, TraceOp, TraceTemplate, Workload};

use crate::cancel::CancelToken;
use crate::eval::TrialMetrics;
use crate::plan::CellKey;
use crate::{DvfsPoint, EvalConfig};

/// Per-benchmark immutable inputs, shared across cells and threads.
pub(crate) struct BenchArtifacts {
    pub(crate) workload: Workload,
    pub(crate) seq_layout: Layout,
}

/// One cell ready for execution: its identity plus the shared inputs the
/// trials borrow. Programs are shared by `Arc`, never cloned per trial.
pub(crate) struct CellContext {
    pub(crate) key: CellKey,
    pub(crate) point: DvfsPoint,
    pub(crate) trials: u64,
    pub(crate) seed_base: u64,
    pub(crate) artifacts: Arc<BenchArtifacts>,
    pub(crate) transformed: Option<Arc<Program>>,
    /// Recorded trace template for this cell's program variant, when
    /// [`crate::EvalConfig::reuse_buffers`] enables templating.
    pub(crate) template: Option<Arc<TraceTemplate>>,
    /// Hoisted transform-equivalence finding: the lint depends only on
    /// the (original, transformed) program pair, so the evaluator checks
    /// it once per transform instead of once per trial. `Some` fails
    /// every trial of the cell before any cycles are spent.
    pub(crate) equiv_diag: Option<Diagnostic>,
}

/// Worker-local scratch reused across trials
/// ([`crate::EvalConfig::reuse_buffers`]): the resolved-trace buffer.
/// What a unit's trials share (fault chains, the last linked image)
/// lives in the unit's [`UnitState`] and dies with it.
#[derive(Default)]
pub(crate) struct TrialArena {
    /// Resolved-trace scratch buffer.
    trace: Vec<TraceOp>,
}

/// One unit of work: the trials of one trial index that share a
/// fault-chain pair, prepared by one worker in order.
#[derive(Debug, PartialEq, Eq)]
struct Unit {
    trial: u64,
    /// Indices into the drain's cells, in run order: rungs high → low,
    /// plan order within a rung.
    cells: Vec<usize>,
}

/// Groups the trials of `cells` into units, in plan order.
///
/// Fault-seeing trials group by `(seed base, trial)`; cells that see no
/// faults, and every trial when `share` is off, are single-trial units.
fn plan_units(cells: &[CellContext], share: bool) -> Vec<Unit> {
    let mut units: Vec<Unit> = Vec::new();
    let mut index: HashMap<(u64, u64), usize> = HashMap::new();
    for (ci, cell) in cells.iter().enumerate() {
        for trial in 0..cell.trials {
            let mut new_unit = || {
                units.push(Unit {
                    trial,
                    cells: Vec::new(),
                });
                units.len() - 1
            };
            let unit = if share && cell.key.scheme.sees_faults() {
                *index
                    .entry((cell.seed_base, trial))
                    .or_insert_with(new_unit)
            } else {
                new_unit()
            };
            units[unit].cells.push(ci);
        }
    }
    for unit in &mut units {
        // Stable, so plan order survives within a rung.
        unit.cells
            .sort_by_key(|&ci| Reverse(cells[ci].point.vcc.get()));
    }
    units
}

/// Whether `mv` lies on the ladder of every lower operating point: a
/// grid rung at or below the top. An off-grid point (between grid rungs,
/// or above the top) ends its own ladder and lies on no other.
fn on_grid(mv: u32) -> bool {
    mv <= LADDER_TOP_MV && (LADDER_TOP_MV - mv).is_multiple_of(LADDER_STEP_MV)
}

/// One trial side's fault chain, walked down the voltage ladder once by
/// its unit.
#[derive(Clone)]
struct LadderChain {
    chain: FaultChain,
    /// Lowest rung the chain has advanced to, in millivolts; starts above
    /// the top rung.
    mv: u32,
}

impl LadderChain {
    fn new(geometry: &CacheGeometry, seed: u64, model: FaultModel) -> Self {
        LadderChain {
            chain: FaultChain::with_model(geometry, seed, model),
            mv: LADDER_TOP_MV + LADDER_STEP_MV,
        }
    }

    /// Advances through every rung of `rungs` below the chain's position,
    /// returning the faults added.
    fn advance(&mut self, rungs: &[u32]) -> u64 {
        let model = PfailModel::dsn45();
        let mut added = 0;
        for &mv in rungs {
            if mv >= self.mv {
                continue;
            }
            // The chain requires monotone probabilities; clamp against
            // any non-monotonicity in the pfail fit.
            let p = model
                .pfail_word(MilliVolts::new(mv))
                .max(self.chain.p_current());
            added += self.chain.advance_to(p).len() as u64;
            self.mv = mv;
        }
        added
    }

    /// The map at `vcc_mv` and the faults added to reach it:
    /// bit-identical to a fresh chain walked down `ladder_mv(vcc_mv)`,
    /// because the chain replays the same RNG stream rung by rung. The
    /// chain itself only stops on grid rungs; an off-grid point takes its
    /// last step on a copy, so that step counts again for every trial at
    /// that point.
    fn map_at(&mut self, vcc_mv: u32) -> (FaultMap, u64) {
        let mut ladder = ladder_mv(vcc_mv);
        if on_grid(vcc_mv) {
            let added = self.advance(&ladder);
            return (self.chain.map().clone(), added);
        }
        let last = ladder.pop().expect("a ladder ends at its point");
        let added = self.advance(&ladder);
        let mut fork = self.clone();
        let last_added = fork.advance(&[last]);
        (fork.chain.into_map(), added + last_added)
    }
}

/// What the trials of one unit share while it is prepared: built on
/// first use, dropped when the unit's last trial is prepared.
#[derive(Default)]
struct UnitState {
    /// The instruction-side and data-side fault chains.
    chains: Option<[LadderChain; 2]>,
    /// The image linked most recently, reused while the transformed
    /// program and the instruction-side map stay unchanged.
    image: Option<Arc<UnitImage>>,
}

/// A trial whose fault maps and image are ready: any worker may simulate
/// it.
struct Job {
    /// Index into the drain's cells.
    cell: usize,
    trial: u64,
    fmap_i: FaultMap,
    fmap_d: FaultMap,
    /// The linked image of a BBR trial; other trials run the benchmark's
    /// own program and sequential layout.
    image: Option<Arc<UnitImage>>,
    /// Nanoseconds spent sampling its maps and linking its image.
    prep_nanos: u64,
}

/// A linked BBR image, shared by the trials that run it and by its unit
/// until the next rung links afresh.
struct UnitImage {
    /// The transformed program it was linked from.
    transformed: Arc<Program>,
    /// Storage words of the instruction-side map it was linked against.
    map_words: Vec<u64>,
    program: Program,
    layout: Layout,
    stats: LinkStats,
}

/// The map of one trial side at `vcc_mv`, with the sampling metrics.
/// `sram.faultchain.faults_added` counts what the chain gained since it
/// last handed out a map, so a rung's later schemes add nothing.
fn sample_side(chain: &mut LadderChain, vcc_mv: u32, rec: Option<&dyn Recorder>) -> FaultMap {
    let start = Instant::now();
    let (map, added) = chain.map_at(vcc_mv);
    if let Some(r) = rec {
        let nanos = start.elapsed().as_nanos() as u64;
        let faulty = map.faulty_words() as u64;
        r.duration("sram.faultmap.sample_nanos", nanos);
        r.duration("sram.faultchain.advance_nanos", nanos);
        r.add("sram.faultmap.samples", 1);
        r.observe("sram.faultchain.faults_added", added);
        r.add("sram.faultmap.faulty_words", faulty);
        r.observe("sram.faultmap.faulty_words", faulty);
    }
    map
}

/// The engine's one tally of trial and store outcomes, plus its stage
/// timings.
///
/// Every trial lands in exactly one of `trials_computed`,
/// `link_failures` or `invariant_violations`; their sum is the number of
/// trials this process executed. Each drain worker keeps a local tally
/// and merges it once, at the end of the drain; `run_plan` adds its
/// delta to the evaluator's total and exports the outcome counts to the
/// recorder (see [`EngineStats::export`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Trials simulated to completion by this process (link failures and
    /// invariant violations are counted separately, never here).
    pub trials_computed: u64,
    /// Trials satisfied from the on-disk result store.
    pub trials_from_store: u64,
    /// Whole cells satisfied from the on-disk result store.
    pub cells_from_store: u64,
    /// Trials whose BBR link found no placement.
    pub link_failures: u64,
    /// Trials whose linked image failed static validation (only possible
    /// when [`crate::EvalConfig::validate_images`] is on).
    pub invariant_violations: u64,
    /// Wall-clock nanoseconds spent inside the BBR linker (summed over
    /// workers, so this can exceed `wall_nanos`).
    pub link_nanos: u64,
    /// Wall-clock nanoseconds spent in fault sampling + CPU simulation
    /// (summed over workers).
    pub sim_nanos: u64,
    /// Wall-clock nanoseconds spent inside `run_plan`.
    pub wall_nanos: u64,
}

impl EngineStats {
    /// Classifies one finished trial into exactly one counter:
    /// successfully simulated trials into `trials_computed`, failed links
    /// into `link_failures`, invalid images into `invariant_violations`.
    ///
    /// This is the single place outcomes are tallied — incrementing
    /// `trials_computed` unconditionally at the call site would count
    /// failed/invalid trials twice (once here, once as "computed").
    pub(crate) fn record_outcome(&mut self, outcome: &TrialOutcome) {
        match outcome {
            TrialOutcome::Metrics(_) => self.trials_computed += 1,
            TrialOutcome::LinkFailed => self.link_failures += 1,
            TrialOutcome::Invalid(_) => self.invariant_violations += 1,
        }
    }

    /// Adds another tally into this one, field by field.
    pub(crate) fn merge(&mut self, other: &EngineStats) {
        self.trials_computed += other.trials_computed;
        self.trials_from_store += other.trials_from_store;
        self.cells_from_store += other.cells_from_store;
        self.link_failures += other.link_failures;
        self.invariant_violations += other.invariant_violations;
        self.link_nanos += other.link_nanos;
        self.sim_nanos += other.sim_nanos;
        self.wall_nanos += other.wall_nanos;
    }

    /// Writes this tally's outcome counts to the recorder:
    /// `engine.trials.{computed,link_failed,invalid}` and
    /// `engine.store.{cell_hits,trials_loaded}`. The recorder therefore
    /// derives these facts from the tally and cannot drift from it. A
    /// zero count is not written, so a snapshot lists exactly the names
    /// some event touched.
    pub(crate) fn export(&self, rec: &dyn Recorder) {
        for (name, count) in [
            ("engine.trials.computed", self.trials_computed),
            ("engine.trials.link_failed", self.link_failures),
            ("engine.trials.invalid", self.invariant_violations),
            ("engine.store.cell_hits", self.cells_from_store),
            ("engine.store.trials_loaded", self.trials_from_store),
        ] {
            if count > 0 {
                rec.add(name, count);
            }
        }
    }

    /// Computed-trial throughput over the engine's wall time.
    pub fn trials_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.trials_computed as f64 * 1e9 / self.wall_nanos as f64
        }
    }
}

/// One progress event: a cell just finished (computed or loaded).
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    /// The finished cell.
    pub cell: CellKey,
    /// Trials of that cell that were simulated (0 when store-loaded).
    pub trials_computed: u64,
    /// Cells finished so far in the current plan, this one included.
    pub cells_done: usize,
    /// Cells in the current plan.
    pub cells_total: usize,
}

/// Observer invoked per finished cell; must be thread-safe, because the
/// worker that completes a cell's last trial fires it.
pub type ProgressFn = dyn Fn(&Progress) + Send + Sync;

/// What one Monte-Carlo trial produced.
#[derive(Debug, Clone)]
pub(crate) enum TrialOutcome {
    /// The trial simulated successfully.
    Metrics(Box<TrialMetrics>),
    /// The BBR linker found no placement for this fault map (expected at
    /// deep voltage; counted, not simulated).
    LinkFailed,
    /// The linked image failed static validation — a linker/transform bug
    /// caught by `dvs-analysis` before any cycles were spent on it.
    Invalid(Diagnostic),
}

/// One cell's trial outcomes, ordered by trial index.
pub(crate) type TrialOutcomes = Vec<(u64, TrialOutcome)>;

/// Per-drain context for one `execute_cells` call: the progress
/// observer, where this drain sits inside the surrounding plan (cells
/// already resolved from memory or the store count as done), and the
/// cooperative stop signal.
#[derive(Clone, Copy)]
pub(crate) struct DrainScope<'a> {
    pub(crate) callback: Option<&'a ProgressFn>,
    pub(crate) cells_done_before: usize,
    pub(crate) cells_total: usize,
    pub(crate) cancel: Option<&'a CancelToken>,
}

/// The work the drain's workers share besides the cells.
#[derive(Default)]
struct Queue {
    /// Prepared trials, lowest `(cell, trial)` first, so cells finish in
    /// plan order.
    jobs: BTreeMap<(usize, u64), Job>,
    /// The next unit to claim.
    next_unit: usize,
    /// Units being prepared right now.
    preparing: usize,
}

/// What a worker does next.
enum Task {
    /// Prepare the unit at this index.
    Prepare(usize),
    Simulate(Job),
}

/// What every worker of one drain reads and writes.
struct Drain<'a> {
    cfg: &'a EvalConfig,
    core: &'a CoreConfig,
    geometry: &'a CacheGeometry,
    cells: &'a [CellContext],
    units: Vec<Unit>,
    recorder: Option<&'a Arc<dyn Recorder>>,
    scope: DrainScope<'a>,
    queue: Mutex<Queue>,
    /// Signalled when a job is queued or a unit's preparation ends.
    ready: Condvar,
    collectors: Vec<Mutex<TrialOutcomes>>,
    outstanding: Vec<AtomicU64>,
    cells_done: AtomicUsize,
}

/// Ends one unit's preparation in the queue, also when preparing it
/// panicked, so no worker waits for its jobs forever.
struct Preparing<'d, 'a>(&'d Drain<'a>);

impl Drop for Preparing<'_, '_> {
    fn drop(&mut self) {
        let mut queue = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.preparing -= 1;
        drop(queue);
        self.0.ready.notify_all();
    }
}

impl Drain<'_> {
    fn cancelled(&self) -> bool {
        self.scope.cancel.is_some_and(CancelToken::is_cancelled)
    }

    fn rec(&self) -> Option<&dyn Recorder> {
        self.recorder.map(|r| r.as_ref() as &dyn Recorder)
    }

    /// The next task: a prepared trial when there is one, so prepared
    /// trials never pile up, else the next unit. Waits while other
    /// workers are still preparing units; `None` once no work is left
    /// or the drain was cancelled.
    fn next_task(&self) -> Option<Task> {
        let mut queue = self.queue.lock().expect("queue lock poisoned");
        loop {
            if self.cancelled() {
                return None;
            }
            if let Some((_, job)) = queue.jobs.pop_first() {
                return Some(Task::Simulate(job));
            }
            if queue.next_unit < self.units.len() {
                let u = queue.next_unit;
                queue.next_unit += 1;
                queue.preparing += 1;
                if let Some(r) = self.rec() {
                    // Units not yet claimed by any worker (volatile).
                    r.gauge("engine.queue.depth", (self.units.len() - (u + 1)) as u64);
                }
                return Some(Task::Prepare(u));
            }
            if queue.preparing == 0 {
                return None;
            }
            // The timeout re-checks cancellation, which signals nothing.
            queue = self
                .ready
                .wait_timeout(queue, Duration::from_millis(10))
                .expect("queue lock poisoned")
                .0;
        }
    }

    /// Samples and links one unit's trials in order, queueing each for
    /// simulation, then drops the unit's chains and image.
    fn prepare(&self, unit: &Unit, tally: &mut EngineStats) {
        let _preparing = Preparing(self);
        let mut state = UnitState::default();
        for &ci in &unit.cells {
            if self.cancelled() {
                return;
            }
            let cell = &self.cells[ci];
            let start = Instant::now();
            let prepared = prepare_trial(
                self.cfg,
                self.geometry,
                cell,
                ci,
                unit.trial,
                &mut state,
                tally,
                self.rec(),
            );
            let prep_nanos = start.elapsed().as_nanos() as u64;
            match prepared {
                Ok(job) => {
                    let job = Job { prep_nanos, ..job };
                    let mut queue = self.queue.lock().expect("queue lock poisoned");
                    queue.jobs.insert((ci, unit.trial), job);
                    drop(queue);
                    self.ready.notify_one();
                }
                Err(outcome) => {
                    if let Some(r) = self.rec() {
                        r.duration("engine.trial_nanos", prep_nanos);
                    }
                    self.finish(ci, unit.trial, outcome, tally);
                }
            }
        }
    }

    /// Simulates one prepared trial and records its outcome.
    fn simulate(&self, job: Job, tally: &mut EngineStats, trace_buf: Option<&mut Vec<TraceOp>>) {
        if self.cancelled() {
            return;
        }
        let (ci, trial) = (job.cell, job.trial);
        let outcome = simulate_trial(
            self.cfg,
            self.core,
            &self.cells[ci],
            job,
            tally,
            self.recorder,
            trace_buf,
        );
        self.finish(ci, trial, outcome, tally);
    }

    /// Collects a trial's outcome; the worker that lands a cell's last
    /// trial reports the cell's progress.
    fn finish(&self, ci: usize, trial: u64, outcome: TrialOutcome, tally: &mut EngineStats) {
        tally.record_outcome(&outcome);
        self.collectors[ci]
            .lock()
            .expect("collector lock poisoned")
            .push((trial, outcome));
        if self.outstanding[ci].fetch_sub(1, Ordering::AcqRel) == 1 {
            let done = self.cells_done.fetch_add(1, Ordering::AcqRel) + 1;
            if let Some(cb) = self.scope.callback {
                let cell = &self.cells[ci];
                cb(&Progress {
                    cell: cell.key,
                    trials_computed: cell.trials,
                    cells_done: done,
                    cells_total: self.scope.cells_total,
                });
            }
        }
    }
}

/// Drains every trial of `cells` through one shared worker pool (see the
/// module docs), adding the workers' tallies into `tally` once they
/// finish.
///
/// Returns the per-cell trial outcomes sorted by trial index.
pub(crate) fn execute_cells(
    cfg: &EvalConfig,
    core: &CoreConfig,
    geometry: &CacheGeometry,
    cells: &[CellContext],
    tally: &mut EngineStats,
    recorder: Option<&Arc<dyn Recorder>>,
    scope: DrainScope<'_>,
) -> Vec<TrialOutcomes> {
    let trials: u64 = cells.iter().map(|c| c.trials).sum();
    let workers = cfg.threads.max(1).min(trials.max(1) as usize);
    let drain = Drain {
        cfg,
        core,
        geometry,
        cells,
        units: plan_units(cells, cfg.reuse_buffers),
        recorder,
        scope,
        queue: Mutex::new(Queue::default()),
        ready: Condvar::new(),
        collectors: cells
            .iter()
            .map(|c| Mutex::new(Vec::with_capacity(c.trials as usize)))
            .collect(),
        outstanding: cells.iter().map(|c| AtomicU64::new(c.trials)).collect(),
        cells_done: AtomicUsize::new(scope.cells_done_before),
    };

    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(s.spawn(|| {
                let mut arena = cfg.reuse_buffers.then(TrialArena::default);
                let mut local = EngineStats::default();
                while let Some(task) = drain.next_task() {
                    match task {
                        Task::Prepare(u) => drain.prepare(&drain.units[u], &mut local),
                        Task::Simulate(job) => {
                            drain.simulate(job, &mut local, arena.as_mut().map(|a| &mut a.trace));
                        }
                    }
                }
                local
            }));
        }
        for h in handles {
            tally.merge(&h.join().expect("trial worker panicked"));
        }
    });

    drain
        .collectors
        .into_iter()
        .map(|m| {
            let mut outcomes = m.into_inner().expect("collector lock poisoned");
            outcomes.sort_unstable_by_key(|&(t, _)| t);
            outcomes
        })
        .collect()
}

/// Samples the maps of the trial of `cell` (index `ci`) that belongs to
/// a unit, and links its image when the scheme needs one (see
/// [`unit_image`]). `state` is what the unit's earlier trials left: its
/// two fault chains, built on first use, and its last linked image.
/// Returns the trial ready to simulate, or its outcome when it ends
/// here: a failed link or an invalid image.
#[allow(clippy::too_many_arguments)]
fn prepare_trial(
    cfg: &EvalConfig,
    geometry: &CacheGeometry,
    cell: &CellContext,
    ci: usize,
    trial: u64,
    state: &mut UnitState,
    tally: &mut EngineStats,
    rec: Option<&dyn Recorder>,
) -> Result<Job, TrialOutcome> {
    let scheme = cell.key.scheme;
    // Fault maps depend on (seed, benchmark, trial) and the voltage
    // ladder but NOT on the scheme, so schemes are compared on identical
    // defect patterns.
    let (fmap_i, fmap_d) = if scheme.sees_faults() {
        let [chain_i, chain_d] = state.chains.get_or_insert_with(|| {
            [0, 1].map(|side| {
                let seed = trial_seed(cell.seed_base, 2 * trial + side);
                LadderChain::new(geometry, seed, cfg.fault_model)
            })
        });
        let vcc = cell.point.vcc.get();
        (
            sample_side(chain_i, vcc, rec),
            sample_side(chain_d, vcc, rec),
        )
    } else {
        (
            FaultMap::fault_free(geometry),
            FaultMap::fault_free(geometry),
        )
    };
    let image = if scheme.needs_bbr_link() {
        Some(unit_image(cfg, geometry, cell, &fmap_i, state, tally, rec)?)
    } else {
        None
    };
    Ok(Job {
        cell: ci,
        trial,
        fmap_i,
        fmap_d,
        image,
        prep_nanos: 0,
    })
}

/// The BBR image of `cell`'s program placed around `fmap_i`. The unit's
/// last image is reused when the split threshold and the
/// instruction-side map are unchanged (the linker is deterministic, so
/// it is bit-identical to a fresh link); otherwise the program links
/// afresh and the new image replaces it in `state`. Link time goes to
/// the worker's `tally`.
fn unit_image(
    cfg: &EvalConfig,
    geometry: &CacheGeometry,
    cell: &CellContext,
    fmap_i: &FaultMap,
    state: &mut UnitState,
    tally: &mut EngineStats,
    rec: Option<&dyn Recorder>,
) -> Result<Arc<UnitImage>, TrialOutcome> {
    // The transform-equivalence lint depends only on the program pair,
    // so it was checked once per cell (see `CellContext`); a finding
    // fails every trial before any link or sim time.
    if let Some(d) = &cell.equiv_diag {
        return Err(TrialOutcome::Invalid(d.clone()));
    }
    let transformed = cell
        .transformed
        .as_ref()
        .expect("FFW+BBR provides a transformed program");
    let map_words = fmap_i.word_bits().words();
    if let Some(img) = &state.image {
        if Arc::ptr_eq(&img.transformed, transformed) && img.map_words == map_words {
            if let Some(r) = rec {
                r.add("engine.link_cache.hits", 1);
            }
            return Ok(Arc::clone(img));
        }
    }
    state.image = None;
    let link_start = Instant::now();
    let linker = BbrLinker::new(*geometry);
    let linked = match rec {
        Some(r) => linker.link_recorded(transformed, fmap_i, r),
        None => linker.link(transformed, fmap_i),
    };
    tally.link_nanos += link_start.elapsed().as_nanos() as u64;
    let Ok(linked) = linked else {
        return Err(TrialOutcome::LinkFailed);
    };
    if cfg.validate_images {
        // Full lint pass over the placed image. Trace equivalence was
        // hoisted to the per-cell check above, so the per-trial pass
        // skips it.
        let diags = match rec {
            Some(r) => dvs_analysis::analyze_image_recorded(&linked, fmap_i, None, r),
            None => dvs_analysis::analyze_image(&linked, fmap_i, None),
        };
        if let Some(d) = diags.into_iter().find(|d| d.severity == Severity::Deny) {
            return Err(TrialOutcome::Invalid(d));
        }
    } else {
        debug_assert!(linked.verify(fmap_i).is_ok());
    }
    // Only validated images are kept; LinkFailed and Invalid outcomes
    // leave nothing to reuse.
    let stats = *linked.stats();
    let (program, layout) = linked.into_parts();
    let image = Arc::new(UnitImage {
        transformed: Arc::clone(transformed),
        map_words: map_words.to_vec(),
        program,
        layout,
        stats,
    });
    state.image = Some(Arc::clone(&image));
    Ok(image)
}

/// Simulates a prepared trial of `cell`. The non-BBR path borrows the
/// benchmark's program and sequential layout straight from the shared
/// artifacts — nothing is cloned on the per-trial hot path. Simulation
/// time goes to the worker's `tally`; the caller records the outcome.
fn simulate_trial(
    cfg: &EvalConfig,
    core: &CoreConfig,
    cell: &CellContext,
    job: Job,
    tally: &mut EngineStats,
    recorder: Option<&Arc<dyn Recorder>>,
    trace_buf: Option<&mut Vec<TraceOp>>,
) -> TrialOutcome {
    let scheme = cell.key.scheme;
    let art = &*cell.artifacts;
    let rec: Option<&dyn Recorder> = recorder.map(|r| r.as_ref() as &dyn Recorder);
    let sim_start = Instant::now();
    let (program, layout) = match &job.image {
        Some(img) => (&img.program, &img.layout),
        None => (art.workload.program(), &art.seq_layout),
    };
    let mut mem = MemSystem::new(
        L1Cache::new(scheme.l1i_kind(), job.fmap_i),
        L1Cache::new(scheme.l1d_kind(), job.fmap_d),
        cell.point.freq_mhz,
    );
    if let Some(r) = recorder {
        mem = mem.with_recorder(r.clone());
    }
    // Resolve the cell's recorded trace template against this trial's
    // layout when one is available; fall back to a fresh walker when the
    // template ran out of steps (both paths replay the identical
    // instruction stream — see `TraceTemplate`).
    let mut local_buf = Vec::new();
    let resolved = cell.template.as_deref().and_then(|tpl| {
        let buf = match trace_buf {
            Some(b) => b,
            None => &mut local_buf,
        };
        tpl.resolve_into(program, layout, cfg.trace_instrs, buf)
            .then_some(&*buf)
    });
    let result = match resolved {
        Some(ops) => {
            if let Some(r) = rec {
                r.add("engine.trace_template.resolved", 1);
            }
            simulate(core, mem, ops.iter().copied())
        }
        None => {
            if cell.template.is_some() {
                if let Some(r) = rec {
                    r.add("engine.trace_template.exhausted", 1);
                }
            }
            let trace = art
                .workload
                .trace_program(program, layout, 0)
                .take(cfg.trace_instrs);
            simulate(core, mem, trace)
        }
    };
    // Sampling and linking count as the trial's, as when one call did it
    // all.
    let trial_nanos = job.prep_nanos + sim_start.elapsed().as_nanos() as u64;
    tally.sim_nanos += trial_nanos;
    if let Some(r) = rec {
        r.duration("engine.sim_nanos", trial_nanos);
        r.duration("engine.trial_nanos", trial_nanos);
    }
    TrialOutcome::Metrics(Box::new(TrialMetrics {
        result,
        counts: counts_of(&result),
        link_stats: job.image.map(|img| img.stats),
    }))
}

/// Derives the energy model's event counts from a simulation result.
fn counts_of(result: &SimResult) -> RunCounts {
    RunCounts {
        instructions: result.useful_instructions(),
        executed: result.instructions,
        cycles: result.cycles,
        l1_accesses: result.mem.l1i_accesses + result.mem.l1d_loads + result.mem.l1d_stores,
        l2_accesses: result.mem.l2_accesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;

    #[test]
    fn record_outcome_counts_each_variant_exactly_once() {
        use dvs_linker::{lint_ids, Location};

        let mut tally = EngineStats::default();
        let result = SimResult {
            instructions: 10,
            synthetic: 1,
            cycles: 20,
            mem: Default::default(),
            branches: 2,
            mispredicts: 1,
        };
        let metrics = TrialOutcome::Metrics(Box::new(TrialMetrics {
            counts: counts_of(&result),
            result,
            link_stats: None,
        }));
        let link_failed = TrialOutcome::LinkFailed;
        let invalid = TrialOutcome::Invalid(Diagnostic::deny(
            lint_ids::CHUNK_CONTAINMENT,
            Location::Block {
                id: 0,
                word: Some(1),
            },
            "test diagnostic".to_string(),
        ));

        tally.record_outcome(&metrics);
        tally.record_outcome(&link_failed);
        tally.record_outcome(&invalid);
        // Exactly one bucket per outcome: a failed or invalid trial must
        // never ALSO count as computed.
        assert_eq!(tally.trials_computed, 1);
        assert_eq!(tally.link_failures, 1);
        assert_eq!(tally.invariant_violations, 1);
        assert_eq!(
            tally.trials_computed + tally.link_failures + tally.invariant_violations,
            3,
            "three outcomes, three counts"
        );

        tally.record_outcome(&metrics);
        assert_eq!(tally.trials_computed, 2);
        assert_eq!(tally.link_failures, 1);
    }

    #[test]
    fn stats_throughput_is_sane() {
        let s = EngineStats {
            trials_computed: 100,
            wall_nanos: 2_000_000_000,
            ..EngineStats::default()
        };
        assert!((s.trials_per_sec() - 50.0).abs() < 1e-9);
        assert_eq!(EngineStats::default().trials_per_sec(), 0.0);
    }

    /// The maps a unit's chain hands out, rung after rung, are the maps a
    /// fresh chain walked down each point's own ladder gives: on grid
    /// rungs, between them and above the top.
    #[test]
    fn ladder_chain_maps_equal_fresh_walks_at_every_rung() {
        let geometry = CacheGeometry::dsn_l1();
        let rungs = [800, 780, 770, 760, 750, 740, 700, 610, 600, 590, 400, 390];
        for model in [FaultModel::Iid, FaultModel::clustered()] {
            for seed in [1u64, 42] {
                let mut unit = LadderChain::new(&geometry, seed, model);
                for &mv in &rungs {
                    let (map, _) = unit.map_at(mv);
                    let mut fresh = LadderChain::new(&geometry, seed, model);
                    fresh.advance(&ladder_mv(mv));
                    assert!(
                        map == *fresh.chain.map(),
                        "{model:?} seed {seed}: map at {mv} mV differs from a fresh walk"
                    );
                }
                assert!(
                    unit.chain.map().faulty_words() > 0,
                    "the walk reached faulty rungs"
                );
            }
        }
    }

    fn cell(artifacts: &Arc<BenchArtifacts>, key: CellKey, trials: u64) -> CellContext {
        CellContext {
            key,
            point: key.point(),
            trials,
            seed_base: key.seed_base(42),
            artifacts: Arc::clone(artifacts),
            transformed: None,
            template: None,
            equiv_diag: None,
        }
    }

    /// Units group a plan's fault-seeing trials by (benchmark, map), run
    /// rungs high → low with plan order kept within a rung, and leave
    /// fault-blind cells as single-trial units.
    #[test]
    fn units_group_by_chain_pair() {
        use dvs_workloads::Benchmark;
        let workload = Benchmark::Crc32.build(42);
        let seq_layout = Layout::sequential(workload.program());
        let artifacts = Arc::new(BenchArtifacts {
            workload,
            seq_layout,
        });
        let key = |b, s, mv| CellKey::new(b, s, MilliVolts::new(mv));
        let (crc, qsort) = (Benchmark::Crc32, Benchmark::Qsort);
        let cells = [
            cell(&artifacts, key(crc, Scheme::FfwBbr, 400), 2),
            cell(&artifacts, key(crc, Scheme::FbaPlus, 600), 2),
            cell(&artifacts, key(crc, Scheme::EightT, 600), 1),
            cell(&artifacts, key(qsort, Scheme::FfwBbr, 600), 2),
            cell(&artifacts, key(crc, Scheme::FfwBbr, 600), 2),
        ];
        let unit = |trial, cells: &[usize]| Unit {
            trial,
            cells: cells.to_vec(),
        };
        assert_eq!(
            plan_units(&cells, true),
            vec![
                unit(0, &[1, 4, 0]),
                unit(1, &[1, 4, 0]),
                unit(0, &[2]),
                unit(0, &[3]),
                unit(1, &[3]),
            ]
        );
        // Without buffer reuse every trial is its own unit, in plan order.
        let flat = plan_units(&cells, false);
        assert_eq!(flat.len(), 9);
        assert!(flat.iter().all(|u| u.cells.len() == 1));
        assert_eq!(
            flat.iter()
                .map(|u| (u.cells[0], u.trial))
                .collect::<Vec<_>>(),
            vec![
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 0),
                (3, 0),
                (3, 1),
                (4, 0),
                (4, 1)
            ]
        );
    }

    /// Units reproduce the from-scratch path bit for bit on a plan that
    /// mixes schemes, grid and off-grid rungs and a rung above the top,
    /// with fewer units than workers or more, and what the registry
    /// records does not depend on the thread count.
    #[test]
    fn units_match_the_from_scratch_path() {
        use crate::{EvalConfig, Evaluator, ExperimentPlan};
        use dvs_obs::MetricsRegistry;
        use dvs_workloads::Benchmark;

        let plan = ExperimentPlan::for_grid(
            &[Benchmark::Crc32],
            &[
                Scheme::FfwBbr,
                Scheme::SimpleWdis,
                Scheme::FbaPlus,
                Scheme::EightT,
            ],
            &[780, 750, 600, 590, 420].map(MilliVolts::new),
        );
        let base = EvalConfig {
            trace_instrs: 2_000,
            maps: 3,
            ..EvalConfig::quick()
        };
        let reference = Evaluator::new(EvalConfig {
            reuse_buffers: false,
            threads: 2,
            ..base
        })
        .run_plan(&plan);
        let mut recorded = Vec::new();
        for threads in [1, 2, 8] {
            let registry = Arc::new(MetricsRegistry::new());
            let runs = Evaluator::new(EvalConfig { threads, ..base })
                .with_recorder(registry.clone())
                .run_plan(&plan);
            for ((rk, rr), (k, r)) in reference.iter().zip(&runs) {
                assert_eq!(rk, k);
                let (rr, r) = (rr.as_ref().unwrap(), r.as_ref().unwrap());
                assert_eq!(rr.failed_links, r.failed_links, "{k} at {threads} threads");
                assert_eq!(rr.trials, r.trials, "{k} at {threads} threads");
            }
            let snapshot = registry.snapshot();
            recorded.push((threads, snapshot.counters, snapshot.values));
        }
        let (_, counters, values) = &recorded[0];
        assert!(counters["linker.links"] > 0 && values["sram.faultchain.faults_added"].sum > 0);
        for (threads, c, v) in &recorded[1..] {
            assert_eq!(c, counters, "counters at 1 and {threads} threads");
            assert_eq!(v, values, "value histograms at 1 and {threads} threads");
        }
    }
}

//! Execution layer of the experiment engine: *how* cells run.
//!
//! One shared worker pool drains the trials of **all** cells in a plan.
//! Workers pull trials individually off a single atomic cursor, so a
//! slow cell (e.g. FFW+BBR at 400 mV, which links every map) cannot
//! leave workers idle the way per-cell chunked spawning did: when one
//! worker grinds through an expensive link, the others keep consuming
//! whatever trials remain anywhere in the plan.
//!
//! The pool is deterministic by construction: every trial's RNG seed
//! depends only on (root seed, benchmark, voltage, trial index), and
//! per-cell results are re-sorted by trial index after the drain, so
//! scheduling order, thread count and store hits never change a result.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use dvs_cpu::{simulate, CoreConfig, MemSystem, SimResult};
use dvs_linker::{BbrLinker, Diagnostic, LinkStats, Severity};
use dvs_obs::{Recorder, Span};
use dvs_power::energy::RunCounts;
use dvs_schemes::L1Cache;
use dvs_sram::montecarlo::trial_seed;
use dvs_sram::{
    ladder_mv, CacheGeometry, FaultChain, FaultMap, FaultModel, MilliVolts, PfailModel,
};
use dvs_workloads::{Layout, Program, TraceOp, TraceTemplate, Workload};

use crate::cancel::CancelToken;
use crate::eval::TrialMetrics;
use crate::plan::CellKey;
use crate::{DvfsPoint, EvalConfig};

/// Process-wide gate bounding how many trials execute concurrently
/// across *every* [`crate::Evaluator`] in the process (see
/// [`EvalConfig::max_parallel_trials`]). Uncapped evaluators never touch
/// the gate, so the default configuration pays nothing for it.
struct TrialGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Debug, Clone, Copy)]
struct GateState {
    active: usize,
    high_water: usize,
}

static TRIAL_GATE: TrialGate = TrialGate {
    state: Mutex::new(GateState {
        active: 0,
        high_water: 0,
    }),
    cv: Condvar::new(),
};

impl TrialGate {
    /// Blocks until fewer than `limit` trials are active process-wide,
    /// then reserves a slot. The slot is released when the returned
    /// permit drops.
    fn acquire(&'static self, limit: usize) -> GatePermit {
        let limit = limit.max(1);
        let mut state = self.state.lock().expect("trial gate lock poisoned");
        while state.active >= limit {
            state = self.cv.wait(state).expect("trial gate lock poisoned");
        }
        state.active += 1;
        state.high_water = state.high_water.max(state.active);
        GatePermit { gate: self }
    }
}

struct GatePermit {
    gate: &'static TrialGate,
}

impl Drop for GatePermit {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock().expect("trial gate lock poisoned");
        state.active -= 1;
        drop(state);
        self.gate.cv.notify_all();
    }
}

/// Largest number of gated trials ever observed running at once in this
/// process. Test instrumentation for the `max_parallel_trials` policy —
/// only capped evaluators are counted.
#[doc(hidden)]
pub fn trial_gate_high_water() -> usize {
    TRIAL_GATE
        .state
        .lock()
        .expect("trial gate lock poisoned")
        .high_water
}

/// Resets the high-water mark (test instrumentation).
#[doc(hidden)]
pub fn reset_trial_gate_high_water() {
    TRIAL_GATE
        .state
        .lock()
        .expect("trial gate lock poisoned")
        .high_water = 0;
}

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

/// Worker-local state reused across trials
/// ([`crate::EvalConfig::reuse_buffers`]). Strictly a cache: every entry
/// is a deterministic function of seeds and cell identity, so which
/// worker runs a trial — or whether the cache was warm — can never change
/// a result.
#[derive(Default)]
pub(crate) struct TrialArena {
    /// Voltage-ladder fault chains per (seed base, trial, side). A chain
    /// advanced to some rung extends incrementally to any lower rung of
    /// the same ladder (re-sampling only the delta); a chain that cannot
    /// continue the requested ladder is rebuilt from scratch, which
    /// replays the identical RNG stream.
    chains: HashMap<(u64, u64, u8), ChainEntry>,
    /// Linked images keyed by (transformed-program identity, fault-map
    /// fingerprint). A hit requires full fault-map equality — the linker
    /// is deterministic, so an equal map implies the identical image.
    links: HashMap<(usize, u64), CachedLink>,
    /// Resolved-trace scratch buffer.
    trace: Vec<TraceOp>,
}

/// Largest number of cached linked images per worker; past this, misses
/// recompute without caching (never affects results).
const LINK_CACHE_CAP: usize = 64;

struct ChainEntry {
    chain: FaultChain,
    /// Lowest ladder rung the chain has advanced to, in millivolts;
    /// starts above the top rung.
    mv: u32,
}

impl ChainEntry {
    fn fresh(geometry: &CacheGeometry, seed: u64, model: FaultModel) -> Self {
        ChainEntry {
            chain: FaultChain::with_model(geometry, seed, model),
            mv: dvs_sram::LADDER_TOP_MV + dvs_sram::LADDER_STEP_MV,
        }
    }

    /// Whether this chain can serve `vcc_mv`'s ladder: it must sit at
    /// `vcc_mv` itself or on a grid rung above it (an off-grid final rung
    /// belongs to no other ladder, so such a chain only serves repeats of
    /// its own voltage).
    fn reusable_for(&self, vcc_mv: u32) -> bool {
        self.mv == vcc_mv || (self.mv > vcc_mv && self.mv.is_multiple_of(dvs_sram::LADDER_STEP_MV))
    }

    /// Advances down every remaining rung of `vcc_mv`'s ladder, returning
    /// the number of faults added.
    fn advance(&mut self, vcc_mv: u32) -> u64 {
        let model = PfailModel::dsn45();
        let mut added = 0u64;
        for mv in ladder_mv(vcc_mv) {
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
}

struct CachedLink {
    /// Storage words of the fault map the image was linked against; a
    /// cache hit requires full equality (the fingerprint is only an
    /// index).
    map_words: Vec<u64>,
    program: Arc<Program>,
    layout: Arc<Layout>,
    stats: LinkStats,
}

/// FNV-1a over a fault map's storage words (an index for the link cache;
/// equality is verified on hit).
fn map_fingerprint(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h ^ words.len() as u64
}

/// The v3 fault map of one trial side at `vcc_mv`: a [`FaultChain`]
/// under the configured fault model, advanced down the voltage ladder.
/// With a warm cache the chain extends incrementally; without one it
/// replays the identical ladder from scratch, so both paths produce
/// bit-identical maps. The arena's chain cache needs no model in its key:
/// one arena serves one plan drain, and the model is plan-global.
#[allow(clippy::too_many_arguments)]
fn ladder_fault_map(
    geometry: &CacheGeometry,
    seed_base: u64,
    trial: u64,
    side: u8,
    vcc_mv: u32,
    model: FaultModel,
    chains: Option<&mut HashMap<(u64, u64, u8), ChainEntry>>,
    rec: Option<&dyn Recorder>,
) -> FaultMap {
    let seed = trial_seed(seed_base, 2 * trial + u64::from(side));
    let start = Instant::now();
    let (map, added) = match chains {
        Some(chains) => {
            let entry = match chains.entry((seed_base, trial, side)) {
                Entry::Occupied(mut o) => {
                    if !o.get().reusable_for(vcc_mv) {
                        *o.get_mut() = ChainEntry::fresh(geometry, seed, model);
                    }
                    o.into_mut()
                }
                Entry::Vacant(v) => v.insert(ChainEntry::fresh(geometry, seed, model)),
            };
            let added = entry.advance(vcc_mv);
            (entry.chain.map().clone(), added)
        }
        None => {
            let mut entry = ChainEntry::fresh(geometry, seed, model);
            let added = entry.advance(vcc_mv);
            (entry.chain.into_map(), added)
        }
    };
    if let Some(r) = rec {
        let nanos = start.elapsed().as_nanos() as u64;
        r.duration("sram.faultmap.sample_nanos", nanos);
        r.duration("sram.faultchain.advance_nanos", nanos);
        r.add("sram.faultmap.samples", 1);
        r.observe("sram.faultchain.faults_added", added);
        r.add("sram.faultmap.faulty_words", map.faulty_words() as u64);
        r.observe("sram.faultmap.faulty_words", map.faulty_words() as u64);
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

/// Drains every trial of `cells` through one shared worker pool, adding
/// the workers' tallies into `tally` once they finish.
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
    // Flatten the plan into one task list so workers balance across
    // cells, not within them.
    let tasks: Vec<(usize, u64)> = cells
        .iter()
        .enumerate()
        .flat_map(|(ci, c)| (0..c.trials).map(move |t| (ci, t)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let collectors: Vec<Mutex<TrialOutcomes>> = cells
        .iter()
        .map(|c| Mutex::new(Vec::with_capacity(c.trials as usize)))
        .collect();
    let outstanding: Vec<AtomicU64> = cells.iter().map(|c| AtomicU64::new(c.trials)).collect();
    let cells_done = AtomicUsize::new(scope.cells_done_before);

    let workers = cfg
        .threads
        .max(1)
        .min(tasks.len().max(1))
        .min(cfg.max_parallel_trials.unwrap_or(usize::MAX).max(1));
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(s.spawn(|| {
                // Worker-local caches (chains, linked images, trace
                // buffer); purely an accelerator, see [`TrialArena`].
                let mut arena = cfg.reuse_buffers.then(TrialArena::default);
                let mut local = EngineStats::default();
                loop {
                    if scope.cancel.is_some_and(CancelToken::is_cancelled) {
                        break;
                    }
                    // Trials from concurrently running evaluators contend
                    // for the same process-wide gate, so N campaigns
                    // cannot oversubscribe the machine with N x `threads`
                    // workers.
                    let _permit = cfg.max_parallel_trials.map(|n| TRIAL_GATE.acquire(n));
                    if scope.cancel.is_some_and(CancelToken::is_cancelled) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&(ci, trial)) = tasks.get(i) else {
                        break;
                    };
                    if let Some(r) = recorder {
                        // Tasks not yet claimed by any worker (volatile).
                        r.gauge("engine.queue.depth", (tasks.len() - (i + 1)) as u64);
                    }
                    let cell = &cells[ci];
                    let outcome = run_trial(
                        cfg,
                        core,
                        geometry,
                        cell,
                        trial,
                        &mut local,
                        recorder,
                        arena.as_mut(),
                    );
                    local.record_outcome(&outcome);
                    collectors[ci]
                        .lock()
                        .expect("collector lock poisoned")
                        .push((trial, outcome));
                    if outstanding[ci].fetch_sub(1, Ordering::AcqRel) == 1 {
                        let done = cells_done.fetch_add(1, Ordering::AcqRel) + 1;
                        if let Some(cb) = scope.callback {
                            cb(&Progress {
                                cell: cell.key,
                                trials_computed: cell.trials,
                                cells_done: done,
                                cells_total: scope.cells_total,
                            });
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

    collectors
        .into_iter()
        .map(|m| {
            let mut outcomes = m.into_inner().expect("collector lock poisoned");
            outcomes.sort_unstable_by_key(|&(t, _)| t);
            outcomes
        })
        .collect()
}

/// The program/layout pair a trial simulates: borrowed from shared
/// artifacts (non-BBR), reused from the worker's link cache, or freshly
/// linked.
enum TrialImage<'a> {
    Borrowed(&'a Program, &'a Layout),
    Cached(Arc<Program>, Arc<Layout>),
    Owned(Program, Layout),
}

impl TrialImage<'_> {
    fn parts(&self) -> (&Program, &Layout) {
        match self {
            TrialImage::Borrowed(p, l) => (p, l),
            TrialImage::Cached(p, l) => (p, l),
            TrialImage::Owned(p, l) => (p, l),
        }
    }
}

/// Runs one Monte-Carlo trial.
///
/// The non-BBR path borrows the benchmark's program and sequential
/// layout straight from the shared artifacts — nothing is cloned on the
/// per-trial hot path. `arena` (when present) caches fault chains and
/// linked images across the worker's trials; every cached value is a
/// deterministic function of seeds and cell identity, so warm and cold
/// caches produce bit-identical outcomes. Link and simulation time go to
/// the worker's `tally`; the caller records the outcome itself.
#[allow(clippy::too_many_arguments)]
fn run_trial(
    cfg: &EvalConfig,
    core: &CoreConfig,
    geometry: &CacheGeometry,
    cell: &CellContext,
    trial: u64,
    tally: &mut EngineStats,
    recorder: Option<&Arc<dyn Recorder>>,
    arena: Option<&mut TrialArena>,
) -> TrialOutcome {
    let scheme = cell.key.scheme;
    let point = cell.point;
    let art = &*cell.artifacts;
    let rec: Option<&dyn Recorder> = recorder.map(|r| r.as_ref() as &dyn Recorder);
    let _trial_span = rec.map(|r| Span::enter(r, "engine.trial_nanos"));

    let (chains, links, trace_buf) = match arena {
        Some(a) => (Some(&mut a.chains), Some(&mut a.links), Some(&mut a.trace)),
        None => (None, None, None),
    };

    let sim_start = Instant::now();
    // Fault maps depend on (seed, benchmark, trial) and the voltage
    // ladder but NOT on the scheme, so schemes are compared on identical
    // defect patterns.
    let (fmap_i, fmap_d) = if scheme.sees_faults() {
        match chains {
            Some(chains) => (
                ladder_fault_map(
                    geometry,
                    cell.seed_base,
                    trial,
                    0,
                    point.vcc.get(),
                    cfg.fault_model,
                    Some(chains),
                    rec,
                ),
                ladder_fault_map(
                    geometry,
                    cell.seed_base,
                    trial,
                    1,
                    point.vcc.get(),
                    cfg.fault_model,
                    Some(chains),
                    rec,
                ),
            ),
            None => (
                ladder_fault_map(
                    geometry,
                    cell.seed_base,
                    trial,
                    0,
                    point.vcc.get(),
                    cfg.fault_model,
                    None,
                    rec,
                ),
                ladder_fault_map(
                    geometry,
                    cell.seed_base,
                    trial,
                    1,
                    point.vcc.get(),
                    cfg.fault_model,
                    None,
                    rec,
                ),
            ),
        }
    } else {
        (
            FaultMap::fault_free(geometry),
            FaultMap::fault_free(geometry),
        )
    };

    let mut link_stats = None;
    let image: TrialImage<'_> = if scheme.needs_bbr_link() {
        // The transform-equivalence lint depends only on the program
        // pair, so it was checked once per cell (see `CellContext`); a
        // finding fails every trial before any link or sim time.
        if let Some(d) = &cell.equiv_diag {
            return TrialOutcome::Invalid(d.clone());
        }
        let transformed = cell
            .transformed
            .as_ref()
            .expect("FFW+BBR provides a transformed program");
        let map_words = fmap_i.word_bits().words();
        let cache_key = (
            Arc::as_ptr(transformed) as usize,
            map_fingerprint(map_words),
        );
        let cached = links.as_ref().and_then(|links| {
            links
                .get(&cache_key)
                .filter(|c| c.map_words == map_words)
                .map(|c| (Arc::clone(&c.program), Arc::clone(&c.layout), c.stats))
        });
        match cached {
            Some((program, layout, stats)) => {
                // The linker is a deterministic function of (program,
                // fault map); full map equality was verified above, so
                // this image is bit-identical to a fresh link.
                if let Some(r) = rec {
                    r.add("engine.link_cache.hits", 1);
                }
                link_stats = Some(stats);
                TrialImage::Cached(program, layout)
            }
            None => {
                let link_start = Instant::now();
                let linker = BbrLinker::new(*geometry);
                let image = match rec {
                    Some(r) => linker.link_recorded(transformed, &fmap_i, r),
                    None => linker.link(transformed, &fmap_i),
                };
                tally.link_nanos += link_start.elapsed().as_nanos() as u64;
                let Ok(image) = image else {
                    return TrialOutcome::LinkFailed;
                };
                if cfg.validate_images {
                    // Full lint pass over the placed image. Trace
                    // equivalence was hoisted to the per-cell check
                    // above, so the per-trial pass skips it.
                    let diags = match rec {
                        Some(r) => dvs_analysis::analyze_image_recorded(&image, &fmap_i, None, r),
                        None => dvs_analysis::analyze_image(&image, &fmap_i, None),
                    };
                    if let Some(d) = diags.into_iter().find(|d| d.severity == Severity::Deny) {
                        return TrialOutcome::Invalid(d);
                    }
                } else {
                    debug_assert!(image.verify(&fmap_i).is_ok());
                }
                let stats = *image.stats();
                link_stats = Some(stats);
                let (program, layout) = image.into_parts();
                match links {
                    Some(links) if links.len() < LINK_CACHE_CAP => {
                        // Only validated images are cached; LinkFailed and
                        // Invalid outcomes always recompute.
                        let program = Arc::new(program);
                        let layout = Arc::new(layout);
                        links.insert(
                            cache_key,
                            CachedLink {
                                map_words: map_words.to_vec(),
                                program: Arc::clone(&program),
                                layout: Arc::clone(&layout),
                                stats,
                            },
                        );
                        TrialImage::Cached(program, layout)
                    }
                    _ => TrialImage::Owned(program, layout),
                }
            }
        }
    } else {
        TrialImage::Borrowed(art.workload.program(), &art.seq_layout)
    };
    let (program, layout) = image.parts();

    let mut mem = MemSystem::new(
        L1Cache::new(scheme.l1i_kind(), fmap_i),
        L1Cache::new(scheme.l1d_kind(), fmap_d),
        point.freq_mhz,
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
    let sim_elapsed = sim_start.elapsed().as_nanos() as u64;
    tally.sim_nanos += sim_elapsed;
    if let Some(r) = rec {
        r.duration("engine.sim_nanos", sim_elapsed);
    }
    TrialOutcome::Metrics(Box::new(TrialMetrics {
        result,
        counts: counts_of(&result),
        link_stats,
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
}

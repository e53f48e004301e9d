//! The traced run: per-layer metrics from outside the program.
//!
//! The engine's own trial loop is private, so the traced run replays
//! trials 0 and 1 of every cell single-threaded, calling each layer's
//! public functions in the order the engine's trial does (fault ladder,
//! BBR link, trace resolution or walk, L1 construction, simulation) and
//! timing each call as a span. Seeds come from `CellKey::seed_base`,
//! `dvs_sram::montecarlo::trial_seed` and `ladder_mv`, so the replayed
//! cycles must equal the engine's trial by trial.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dvs_core::{CellKey, EvalConfig, EvalError, Evaluator, ResultStore, Scheme};
use dvs_cpu::{simulate, CoreConfig, MemSystem, SimResult};
use dvs_linker::{adaptive_max_block_words, bbr_transform, BbrLinker};
use dvs_obs::MetricsRegistry;
use dvs_schemes::L1Cache;
use dvs_sram::montecarlo::trial_seed;
use dvs_sram::{ladder_mv, CacheGeometry, FaultChain, FaultMap, MilliVolts, PfailModel};
use dvs_workloads::{Benchmark, Layout, Program, TraceOp, TraceTemplate, Workload};

use crate::daemon::{self, Scratch};
use crate::report::Outcome;
use crate::service;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Campaign, Ctx, Results, Run};

/// Trials replayed per cell.
const REPLAYED_TRIALS: u64 = 2;

/// Unrecorded/recorded engine runs compared for the recorder's overhead.
const RECORDER_PAIRS: usize = 3;

/// The engine records trace templates only up to this trial length
/// (`Evaluator::TEMPLATE_MAX_INSTRS`); longer trials walk the CFG.
const TEMPLATE_MAX_INSTRS: usize = 50_000;

/// Linked images the engine keeps per worker (`LINK_CACHE_CAP`).
const LINK_CACHE_CAP: usize = 64;

/// The schemes whose simulation cost is reported one by one.
const SIM_SCHEMES: [(Scheme, &str); 7] = [
    (Scheme::FfwBbr, "ffw_bbr"),
    (Scheme::SimpleWdis, "simple_wdis"),
    (Scheme::WilkersonPlus, "wilkerson_plus"),
    (Scheme::FbaPlus, "fba_plus"),
    (Scheme::IdcPlus, "idc_plus"),
    (Scheme::EightT, "eight_t"),
    (Scheme::TsCache, "ts_cache"),
];

/// Time spent and work done, for one per-unit rate.
#[derive(Default, Clone, Copy)]
struct Rate {
    nanos: u128,
    units: u64,
}

impl Rate {
    fn add(&mut self, d: Duration, units: u64) {
        self.nanos += d.as_nanos();
        self.units += units;
    }

    fn merge(self, other: Rate) -> Rate {
        Rate {
            nanos: self.nanos + other.nanos,
            units: self.units + other.units,
        }
    }

    fn per_unit(self) -> Option<f64> {
        (self.units > 0).then(|| self.nanos as f64 / self.units as f64)
    }
}

/// What the replay measured, per layer.
#[derive(Default, Clone, Copy)]
struct Sums {
    build: Rate,
    transform: Rate,
    record: Rate,
    resolve: Rate,
    walk: Rate,
    ladder: Rate,
    link: Rate,
    l1: Rate,
    sim: Rate,
    links_ok: u64,
    links_tried: u64,
    faults_added: u64,
    /// Engine-path layer time of each simulated trial.
    trial_layers: Rate,
}

impl Sums {
    fn merge(self, o: Sums) -> Sums {
        Sums {
            build: self.build.merge(o.build),
            transform: self.transform.merge(o.transform),
            record: self.record.merge(o.record),
            resolve: self.resolve.merge(o.resolve),
            walk: self.walk.merge(o.walk),
            ladder: self.ladder.merge(o.ladder),
            link: self.link.merge(o.link),
            l1: self.l1.merge(o.l1),
            sim: self.sim.merge(o.sim),
            links_ok: self.links_ok + o.links_ok,
            links_tried: self.links_tried + o.links_tried,
            faults_added: self.faults_added + o.faults_added,
            trial_layers: self.trial_layers.merge(o.trial_layers),
        }
    }
}

/// A fault chain cached the way the engine's trial arena caches it.
struct Chain {
    chain: FaultChain,
    mv: u32,
}

/// A benchmark as the evaluator builds it: its calibration plus its
/// program in sequential layout.
struct Artifacts {
    workload: Workload,
    image: Image,
}

/// What one replayed trial produced.
enum Replayed {
    Linked(SimResult),
    LinkFailed,
}

/// A program with its layout (sequential, or placed by the BBR linker).
type Image = Arc<(Program, Layout)>;

/// One configuration's replayer: the evaluator's per-benchmark caches,
/// the trial arena's chain and link caches, and the sums.
struct Replay<'t> {
    cfg: EvalConfig,
    core: CoreConfig,
    geometry: CacheGeometry,
    tracer: &'t mut Tracer,
    artifacts: HashMap<Benchmark, Arc<Artifacts>>,
    transformed: HashMap<(Benchmark, u32), Image>,
    templates: HashMap<(Benchmark, Option<u32>), Arc<TraceTemplate>>,
    chains: HashMap<(u64, u64, u8), Chain>,
    links: HashMap<(Benchmark, u32, Vec<u64>), Image>,
    sums: Sums,
    mismatches: Vec<String>,
    /// The trial span being replayed: the parent of one-off spans (builds,
    /// transforms, recordings) that a trial triggers, so they count
    /// against its self time.
    open_trial: Option<usize>,
}

impl<'t> Replay<'t> {
    fn new(cfg: EvalConfig, tracer: &'t mut Tracer) -> Replay<'t> {
        Replay {
            cfg,
            core: CoreConfig::dsn2016(),
            geometry: CacheGeometry::dsn_l1(),
            tracer,
            artifacts: HashMap::new(),
            transformed: HashMap::new(),
            templates: HashMap::new(),
            chains: HashMap::new(),
            links: HashMap::new(),
            sums: Sums::default(),
            mismatches: Vec::new(),
            open_trial: None,
        }
    }

    fn artifacts(&mut self, b: Benchmark) -> Arc<Artifacts> {
        if let Some(a) = self.artifacts.get(&b) {
            return a.clone();
        }
        let seed = self.cfg.seed;
        let (workload, d) =
            self.tracer
                .time("workloads.build", self.open_trial, Some(b.name()), || {
                    b.build(seed)
                });
        self.sums.build.add(d, 1);
        let layout = Layout::sequential(workload.program());
        let image = Arc::new((workload.program().clone(), layout));
        let a = Arc::new(Artifacts { workload, image });
        self.artifacts.insert(b, a.clone());
        a
    }

    fn transformed(&mut self, b: Benchmark, max_words: u32) -> Image {
        if let Some(t) = self.transformed.get(&(b, max_words)) {
            return t.clone();
        }
        let art = self.artifacts(b);
        let (program, d) =
            self.tracer
                .time("linker.transform", self.open_trial, Some(b.name()), || {
                    bbr_transform(art.workload.program(), max_words)
                });
        self.sums.transform.add(d, 1);
        let layout = Layout::sequential(&program);
        let t = Arc::new((program, layout));
        self.transformed.insert((b, max_words), t.clone());
        t
    }

    /// The template over the benchmark's program, or over its transform
    /// at `max_words`, recorded with the evaluator's headroom.
    fn template(&mut self, b: Benchmark, max_words: Option<u32>) -> Arc<TraceTemplate> {
        if let Some(t) = self.templates.get(&(b, max_words)) {
            return t.clone();
        }
        let art = self.artifacts(b);
        let image = match max_words {
            Some(mw) => self.transformed(b, mw),
            None => art.image.clone(),
        };
        let n = self.cfg.trace_instrs;
        let (template, d) =
            self.tracer
                .time("workloads.record", self.open_trial, Some(b.name()), || {
                    let mut walker = art.workload.trace_program(&image.0, &image.1, 0);
                    TraceTemplate::record(&mut walker, n + n / 4 + 64)
                });
        self.sums.record.add(d, template.len() as u64);
        let t = Arc::new(template);
        self.templates.insert((b, max_words), t.clone());
        t
    }

    /// One side's fault map at `vcc_mv`, advancing a cached chain down
    /// the ladder exactly as the engine's trial arena does.
    fn fault_map(
        &mut self,
        seed_base: u64,
        trial: u64,
        side: u8,
        vcc_mv: u32,
        parent: usize,
    ) -> FaultMap {
        let seed = trial_seed(seed_base, 2 * trial + u64::from(side));
        let (geometry, model) = (self.geometry, self.cfg.fault_model);
        let fresh = || Chain {
            chain: FaultChain::with_model(&geometry, seed, model),
            mv: dvs_sram::LADDER_TOP_MV + dvs_sram::LADDER_STEP_MV,
        };
        let start = Instant::now();
        let entry = self
            .chains
            .entry((seed_base, trial, side))
            .or_insert_with(fresh);
        let reusable = entry.mv == vcc_mv
            || (entry.mv > vcc_mv && entry.mv.is_multiple_of(dvs_sram::LADDER_STEP_MV));
        if !reusable {
            *entry = fresh();
        }
        let pfail = PfailModel::dsn45();
        let mut rungs = 0u64;
        for mv in ladder_mv(vcc_mv) {
            if mv >= entry.mv {
                continue;
            }
            let p = pfail
                .pfail_word(MilliVolts::new(mv))
                .max(entry.chain.p_current());
            self.sums.faults_added += entry.chain.advance_to(p).len() as u64;
            entry.mv = mv;
            rungs += 1;
        }
        let map = entry.chain.map().clone();
        let end = Instant::now();
        self.tracer
            .record("sram.ladder", start, end, Some(parent), None);
        self.sums
            .ladder
            .add(end - start, rungs * u64::from(geometry.total_words()));
        map
    }

    /// Replays one trial along the engine's path.
    fn trial(&mut self, key: &CellKey, trial: u64) -> Replayed {
        let label = format!("{key}#{trial}");
        let span = self.tracer.open("replay.trial", None, Some(&label));
        self.open_trial = Some(span);
        let outcome = self.trial_in(key, trial, span, &label);
        self.open_trial = None;
        self.tracer.close(span);
        outcome
    }

    fn trial_in(&mut self, key: &CellKey, trial: u64, span: usize, label: &str) -> Replayed {
        let scheme = key.scheme;
        let point = key.point();
        let art = self.artifacts(key.benchmark);
        let mut layers = Duration::ZERO;

        let (fmap_i, fmap_d) = if scheme.sees_faults() {
            let t = Instant::now();
            let seed_base = key.seed_base(self.cfg.seed);
            let i = self.fault_map(seed_base, trial, 0, point.vcc.get(), span);
            let d = self.fault_map(seed_base, trial, 1, point.vcc.get(), span);
            layers += t.elapsed();
            (i, d)
        } else {
            (
                FaultMap::fault_free(&self.geometry),
                FaultMap::fault_free(&self.geometry),
            )
        };

        let (image, max_words) = if scheme.needs_bbr_link() {
            let mw = self
                .cfg
                .bbr_max_block_words
                .unwrap_or_else(|| adaptive_max_block_words(point.pfail_word()));
            let transformed = self.transformed(key.benchmark, mw);
            let cache_key = (key.benchmark, mw, fmap_i.word_bits().words().to_vec());
            let image = match self.links.get(&cache_key) {
                Some(image) => image.clone(),
                None => {
                    let geometry = self.geometry;
                    let (linked, d) = self.tracer.time("linker.link", Some(span), None, || {
                        BbrLinker::new(geometry).link(&transformed.0, &fmap_i)
                    });
                    layers += d;
                    self.sums.links_tried += 1;
                    self.sums
                        .link
                        .add(d, u64::from(transformed.0.total_footprint_words()));
                    let Ok(linked) = linked else {
                        return Replayed::LinkFailed;
                    };
                    self.sums.links_ok += 1;
                    let image = Arc::new(linked.into_parts());
                    if self.links.len() < LINK_CACHE_CAP {
                        self.links.insert(cache_key, image.clone());
                    }
                    image
                }
            };
            (image, Some(mw))
        } else {
            (art.image.clone(), None)
        };
        let (program, layout) = (&image.0, &image.1);

        // The trace along the engine's path (a resolved template when the
        // trial is short enough, the CFG walker otherwise), plus the other
        // path off the clock of the trial, so both rates exist on every
        // workload and the two are checked against each other.
        let n = self.cfg.trace_instrs;
        let walk = |tracer: &mut Tracer, parent: usize| {
            tracer.time("workloads.walk", Some(parent), None, || {
                art.workload
                    .trace_program(program, layout, 0)
                    .take(n)
                    .collect::<Vec<TraceOp>>()
            })
        };
        let resolve = |tracer: &mut Tracer, parent: usize, tpl: &TraceTemplate| {
            let mut buf = Vec::new();
            let (ok, d) = tracer.time("workloads.resolve", Some(parent), None, || {
                tpl.resolve_into(program, layout, n, &mut buf)
            });
            (ok.then_some(buf), d)
        };
        let template = self.template(key.benchmark, max_words);
        let templated = self.cfg.reuse_buffers && n <= TEMPLATE_MAX_INSTRS;
        let (resolved, d_resolve) = if templated {
            resolve(&mut *self.tracer, span, &template)
        } else {
            let probe = self.tracer.open("probe.resolve", Some(span), Some(label));
            let r = resolve(&mut *self.tracer, probe, &template);
            self.tracer.close(probe);
            r
        };
        self.sums.resolve.add(d_resolve, n as u64);
        let on_path_walk = !templated || resolved.is_none();
        let (walked, d_walk) = if on_path_walk {
            walk(&mut *self.tracer, span)
        } else {
            let probe = self.tracer.open("probe.walk", Some(span), Some(label));
            let w = walk(&mut *self.tracer, probe);
            self.tracer.close(probe);
            w
        };
        self.sums.walk.add(d_walk, walked.len() as u64);
        layers += if on_path_walk { d_walk } else { Duration::ZERO };
        layers += if templated { d_resolve } else { Duration::ZERO };
        if resolved.as_ref().is_some_and(|r| *r != walked) {
            self.mismatches.push(format!(
                "{label}: template resolution differs from the walk"
            ));
        }

        let ((l1i, l1d), d) = self.tracer.time("schemes.l1_build", Some(span), None, || {
            (
                L1Cache::new(scheme.l1i_kind(), fmap_i),
                L1Cache::new(scheme.l1d_kind(), fmap_d),
            )
        });
        layers += d;
        self.sums.l1.add(d, 2);
        let mem = MemSystem::new(l1i, l1d, point.freq_mhz);
        let core = self.core;
        let (result, d) = self.tracer.time("cpu.simulate", Some(span), None, || {
            simulate(&core, mem, walked.iter().copied())
        });
        layers += d;
        self.sums.sim.add(d, result.instructions);
        self.sums.trial_layers.add(layers, 1);
        Replayed::Linked(result)
    }

    /// Replays trials 0 and 1 of every cell and compares each simulated
    /// trial with the engine's.
    fn cells(&mut self, results: &Results) {
        for (key, engine) in results {
            let engine_trials = match engine {
                Ok(run) => run.trials.as_slice(),
                Err(EvalError::AllLinksFailed { .. }) => &[],
                Err(e) => {
                    self.mismatches.push(format!("{key}: engine failed: {e}"));
                    continue;
                }
            };
            // The engine lists simulated trials in trial order, so the
            // k-th simulated replay must match its k-th entry.
            let mut simulated = 0usize;
            for trial in 0..key.trials(&self.cfg).min(REPLAYED_TRIALS) {
                let Replayed::Linked(result) = self.trial(key, trial) else {
                    continue;
                };
                let engine = engine_trials.get(simulated).map(|m| m.result);
                if engine.map(|r| (r.cycles, r.instructions))
                    != Some((result.cycles, result.instructions))
                {
                    self.mismatches.push(format!(
                        "{key} trial {trial}: the replay ran {} cycles, the engine {:?}",
                        result.cycles,
                        engine.map(|r| r.cycles)
                    ));
                }
                simulated += 1;
            }
        }
    }
}

/// Simulation cost of each reported scheme on the workload's benchmarks
/// at the workload's lowest voltage: the first trial whose image links
/// (every trial links for schemes without BBR), replayed per scheme.
fn sim_probe(cfg: &EvalConfig, keys: &[CellKey]) -> BTreeMap<&'static str, Rate> {
    let low = keys
        .iter()
        .map(|k| k.vcc_mv)
        .min()
        .expect("campaign has cells");
    let mut benches: Vec<Benchmark> = keys.iter().map(|k| k.benchmark).collect();
    benches.sort_by_key(|b| *b as u32);
    benches.dedup();
    // Probe spans stay out of the trace file: they are not the workload.
    let mut tracer = Tracer::new("probe");
    let mut r = Replay::new(*cfg, &mut tracer);
    let mut out: BTreeMap<&'static str, Rate> = BTreeMap::new();
    for b in benches {
        for (scheme, name) in SIM_SCHEMES {
            let key = CellKey::new(b, scheme, MilliVolts::new(low));
            for t in 0..16 {
                let before = r.sums.sim;
                if let Replayed::Linked(_) = r.trial(&key, t) {
                    let e = out.entry(name).or_default();
                    e.nanos += r.sums.sim.nanos - before.nanos;
                    e.units += r.sums.sim.units - before.units;
                    break;
                }
            }
        }
    }
    out
}

/// Median save, load and open times of a store holding the campaign's
/// cells, in µs, µs and ms.
fn store_ops(
    campaign: &Campaign,
    results: &[Results],
    scratch: &Scratch,
    tracer: &mut Tracer,
) -> Result<(f64, f64, f64), String> {
    let dir = scratch.fresh("trace-store")?;
    let stored = campaign.stored(results);
    let mut saves = Vec::new();
    {
        let store = ResultStore::open(&dir).map_err(|e| format!("open store: {e}"))?;
        for (key, cell_key, cell) in &stored {
            let (r, d) = tracer.time("store.save", None, Some(&cell_key.to_string()), || {
                store.save(key, cell)
            });
            r.map_err(|e| format!("store save: {e}"))?;
            saves.push(d.as_secs_f64() * 1e6);
        }
    }
    let mut opens = Vec::new();
    let mut store = None;
    for _ in 0..5 {
        let (s, d) = tracer.time("store.open", None, None, || ResultStore::open(&dir));
        store = Some(s.map_err(|e| format!("open store: {e}"))?);
        opens.push(d.as_secs_f64() * 1e3);
    }
    let store = store.expect("opened");
    let mut loads = Vec::new();
    for _ in 0..3 {
        for (key, cell_key, cell) in &stored {
            let (got, d) = tracer.time("store.load", None, Some(&cell_key.to_string()), || {
                store.load(key)
            });
            if got.as_ref() != Some(cell) {
                return Err(format!("the store returned a different {cell_key}"));
            }
            loads.push(d.as_secs_f64() * 1e6);
        }
    }
    let med = |v: &[f64]| stats::median(v).expect("the campaign has cells");
    Ok((med(&saves), med(&loads), med(&opens)))
}

/// Runs the traced measurement of `ctx.kind`: per-layer metrics, the
/// replay-equals-engine check, and the span file.
pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let started = Instant::now();
    let scratch = Scratch::new(&ctx.out_dir)?;
    let mut tracer = Tracer::new(ctx.kind.name());
    let mut run = Run::new();
    let me = std::process::id();
    let cpu = || daemon::cpu_seconds(me).ok_or("cannot read CPU time");
    let cpu_start = cpu()?;
    let campaign = workloads::campaign(ctx, 0);

    // The engine itself, untraced inside: the reference for the replay
    // and the denominator of the engine-level ratios.
    let span = tracer.open("core.run_plan", None, None);
    let (cpu0, t) = (cpu()?, Instant::now());
    let mut evaluators: Vec<Evaluator> = campaign
        .parts
        .iter()
        .map(|(cfg, _)| Evaluator::new(*cfg))
        .collect();
    let results: Vec<Results> = evaluators
        .iter_mut()
        .zip(&campaign.parts)
        .map(|(e, (_, plan))| e.run_plan(plan))
        .collect();
    let wall = t.elapsed().as_secs_f64();
    let engine_cpu = cpu()? - cpu0;
    tracer.close(span);
    run.check_cells("engine run", &results);
    let engine: Vec<_> = evaluators.iter().map(Evaluator::stats).collect();
    let computed: u64 = engine.iter().map(|s| s.trials_computed).sum();
    let link_failures: u64 = engine.iter().map(|s| s.link_failures).sum();
    let busy_nanos: u64 = engine.iter().map(|s| s.sim_nanos).sum();
    let instructions: u64 = results
        .iter()
        .flatten()
        .filter_map(|(_, r)| r.as_ref().ok())
        .flat_map(|run| &run.trials)
        .map(|m| m.result.instructions)
        .sum();

    // The same campaign without and with a recorder attached (the daemons
    // always record), in alternating pairs so a host phase meets both.
    let registry = Arc::new(MetricsRegistry::new());
    let mut timed = |name: &'static str, recorded: bool| {
        let span = tracer.open(name, None, None);
        let t = Instant::now();
        for (cfg, plan) in &campaign.parts {
            let mut e = Evaluator::new(*cfg);
            if recorded {
                e = e.with_recorder(registry.clone());
            }
            let _ = e.run_plan(plan);
        }
        tracer.close(span);
        t.elapsed().as_secs_f64()
    };
    let (mut plain, mut recorded) = (Vec::new(), Vec::new());
    for _ in 0..RECORDER_PAIRS {
        plain.push(timed("core.run_plan", false));
        recorded.push(timed("core.run_plan_recorded", true));
    }

    // Replay passes until half the run's seconds have gone. The spans and
    // the counts of the first pass are reported; the rates average over
    // every pass.
    let mut sums = Sums::default();
    let mut first = Sums::default();
    let mut passes = 0;
    while passes == 0 || started.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
        let mut later = Tracer::new(ctx.kind.name());
        let tracer = if passes == 0 { &mut tracer } else { &mut later };
        for ((cfg, _), res) in campaign.parts.iter().zip(&results) {
            let mut r = Replay::new(*cfg, &mut *tracer);
            r.cells(res);
            if passes == 0 {
                for m in std::mem::take(&mut r.mismatches) {
                    run.fail(m);
                }
            }
            sums = sums.merge(r.sums);
        }
        if passes == 0 {
            first = sums;
        }
        passes += 1;
    }
    eprintln!("dvs-perf: {passes} replay passes");
    let keys: Vec<CellKey> = results.iter().flatten().map(|(k, _)| *k).collect();
    let sims = sim_probe(&campaign.parts[0].0, &keys);
    let (save_us, load_us, open_ms) = store_ops(&campaign, &results, &scratch, &mut tracer)?;

    let mut extras = BTreeMap::new();
    let daemon_cpu = if ctx.kind.runs_daemons() {
        service::daemon_pass(
            ctx,
            &scratch,
            &mut tracer,
            &mut extras,
            &mut run,
            &workloads::render(&results),
        )?
    } else {
        0.0
    };

    let need = |what: &str, v: Option<f64>| v.ok_or(format!("the replay measured no {what}"));
    let out = &mut run.out;
    out.put(
        "sram.ladder_ns_per_word",
        need("ladder", sums.ladder.per_unit())?,
        "ns",
    );
    out.put("sram.faults_added", first.faults_added as f64, "count");
    out.put(
        "workloads.build_ms",
        need("build", sums.build.per_unit())? / 1e6,
        "ms",
    );
    out.put(
        "workloads.walk_ns_per_op",
        need("walk", sums.walk.per_unit())?,
        "ns",
    );
    out.put(
        "workloads.record_ns_per_op",
        need("record", sums.record.per_unit())?,
        "ns",
    );
    out.put(
        "workloads.resolve_ns_per_op",
        need("resolve", sums.resolve.per_unit())?,
        "ns",
    );
    out.put(
        "linker.transform_ms",
        need("transform", sums.transform.per_unit())? / 1e6,
        "ms",
    );
    out.put(
        "linker.link_ns_per_word",
        need("link", sums.link.per_unit())?,
        "ns",
    );
    let ok_ratio = sums.links_ok as f64 / sums.links_tried.max(1) as f64;
    out.put("linker.link_ok_ratio", ok_ratio, "ratio");
    out.put(
        "schemes.l1_build_us",
        need("L1 build", sums.l1.per_unit())? / 1e3,
        "us",
    );
    for (_, name) in SIM_SCHEMES {
        let metric = format!("cpu.sim_ns_per_instr.{name}");
        let rate = need(&metric, sims.get(name).and_then(|r| r.per_unit()))?;
        out.put(&metric, rate, "ns");
    }
    out.put("cpu.instrs_simulated", first.sim.units as f64, "count");
    out.put(
        "core.sim_minstr_per_s",
        instructions as f64 / wall / 1e6,
        "Minstr/s",
    );
    let threads = campaign.parts[0].0.threads as f64;
    out.put("core.cpu_util", engine_cpu / (wall * threads), "ratio");
    let engine_per_trial = busy_nanos as f64 / computed.max(1) as f64;
    let replay_per_trial = need("trial", sums.trial_layers.per_unit())?;
    out.put(
        "core.self_share",
        1.0 - replay_per_trial / engine_per_trial,
        "ratio",
    );
    out.put("core.trials_computed", computed as f64, "count");
    out.put("core.link_failures", link_failures as f64, "count");
    out.put("store.save_us", save_us, "us");
    out.put("store.load_us", load_us, "us");
    out.put("store.open_ms", open_ms, "ms");
    out.put(
        "obs.recorder_overhead_share",
        stats::median(&recorded).expect("pairs ran") / stats::median(&plain).expect("pairs ran")
            - 1.0,
        "ratio",
    );
    out.put("proc.cpu_s", cpu()? - cpu_start + daemon_cpu, "s");

    let path = ctx.out_dir.join(format!("trace-{}.json", ctx.kind.name()));
    tracer
        .write(&path, ctx.seed, &daemon::host_facts(), &extras)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("dvs-perf: spans written to {}", path.display());
    Ok(run.finish())
}

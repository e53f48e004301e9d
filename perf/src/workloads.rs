//! The four workloads: their inputs (all derived from the seed), their
//! timed phases, and the checks that their outputs are right.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dvs_core::{
    CellKey, EvalConfig, EvalError, Evaluator, ExperimentPlan, ResultStore, Scheme, SchemeRun,
    StoreKey, StoredCell,
};
use dvs_cpu::CoreConfig;
use dvs_serve::api::{self, CampaignSpec};
use dvs_sram::{CacheGeometry, FaultModel, MilliVolts};
use dvs_workloads::Benchmark;

use crate::daemon::{self, Scratch};
use crate::report::Outcome;
use crate::service;
use crate::stats;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Figure-binary path: in-process `run_plan` at trace lengths above
    /// the engine's template cap, so the CFG walker and the simulator do
    /// nearly all the work.
    SweepFig10,
    /// Yield-campaign path: many short trials down the whole voltage
    /// ladder under two fault models, so fault sampling, linking, L1
    /// construction and template resolution dominate.
    LadderYield,
    /// One `dvs-serve` daemon answering point queries while it computes
    /// cold campaigns, then replaying them from its store.
    ServeMixed,
    /// A coordinator and two workers computing the same campaigns.
    ClusterCampaign,
}

impl Kind {
    /// Every workload, in benchmark order.
    pub const ALL: [Kind; 4] = [
        Kind::SweepFig10,
        Kind::LadderYield,
        Kind::ServeMixed,
        Kind::ClusterCampaign,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SweepFig10 => "sweep_fig10",
            Kind::LadderYield => "ladder_yield",
            Kind::ServeMixed => "serve_mixed",
            Kind::ClusterCampaign => "cluster_campaign",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the workload runs `dvs-serve` daemons.
    pub fn runs_daemons(self) -> bool {
        matches!(self, Kind::ServeMixed | Kind::ClusterCampaign)
    }
}

/// Workload sizes. `full` is what the benchmark measures; `smoke` runs
/// every code path in a few seconds for the package's own tests.
#[derive(Debug, Clone)]
pub struct Scale {
    pub(crate) benchmarks: Vec<Benchmark>,
    pub(crate) sweep_trace: usize,
    pub(crate) sweep_maps: u64,
    pub(crate) ladder_maps: u64,
    pub(crate) ladder_low_mv: u32,
    pub(crate) campaign_maps: u64,
    pub(crate) campaign_trace: usize,
    pub(crate) fixture_maps: u64,
    pub(crate) fixture_trace: usize,
}

impl Scale {
    /// The measured sizes.
    pub fn full() -> Scale {
        Scale {
            benchmarks: Benchmark::ALL.to_vec(),
            sweep_trace: 200_000,
            sweep_maps: 1,
            ladder_maps: 32,
            ladder_low_mv: 380,
            campaign_maps: 2,
            campaign_trace: 20_000,
            fixture_maps: 8,
            fixture_trace: 20_000,
        }
    }

    /// Tiny sizes for tests.
    pub fn smoke() -> Scale {
        Scale {
            benchmarks: vec![Benchmark::Crc32, Benchmark::Qsort],
            sweep_trace: 60_000,
            sweep_maps: 1,
            ladder_maps: 2,
            ladder_low_mv: 480,
            campaign_maps: 1,
            campaign_trace: 4_000,
            fixture_maps: 1,
            fixture_trace: 2_000,
        }
    }
}

/// Everything one run needs.
pub struct Ctx {
    /// The workload.
    pub kind: Kind,
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Workload sizes.
    pub scale: Scale,
    /// Whether the sizes are the measured ones (pins apply only then).
    pub full_scale: bool,
    /// Engine threads of in-process runs.
    pub threads: usize,
    /// The `dvs-serve` executable.
    pub serve_bin: PathBuf,
    /// Directory for stores and trace files.
    pub out_dir: PathBuf,
}

/// Engine threads of in-process workloads: the two cores of the reference
/// host.
pub const ENGINE_THREADS: usize = 2;

/// One workload's campaign as in-process evaluator calls: one
/// (configuration, plan) pair per fault model.
pub struct Campaign {
    /// The (configuration, plan) pairs, run in order.
    pub parts: Vec<(EvalConfig, ExperimentPlan)>,
}

/// Results of one `run_plan`, in plan order.
pub type Results = Vec<(CellKey, Result<Arc<SchemeRun>, EvalError>)>;

/// Resolved cells in the form the store keeps them, with their keys.
pub type StoredCells = Vec<(StoreKey, CellKey, StoredCell)>;

impl Campaign {
    /// Runs every part through a fresh evaluator, attached to `store`
    /// when given.
    pub fn run(&self, store: Option<&ResultStore>) -> Vec<Results> {
        self.parts
            .iter()
            .map(|(cfg, plan)| {
                let mut e = Evaluator::new(*cfg);
                if let Some(s) = store {
                    e = e.with_store(s.clone());
                }
                e.run_plan(plan)
            })
            .collect()
    }

    /// Cells over all parts.
    pub fn cells(&self) -> u64 {
        self.parts.iter().map(|(_, p)| p.len() as u64).sum()
    }

    /// The stored form of every resolved cell, keyed as the engine keys it.
    pub fn stored(&self, results: &[Results]) -> StoredCells {
        let core = CoreConfig::dsn2016();
        let geometry = CacheGeometry::dsn_l1();
        self.parts
            .iter()
            .zip(results)
            .flat_map(|((cfg, _), res)| {
                res.iter().filter_map(move |(key, r)| {
                    let cell = match r {
                        Ok(run) => StoredCell {
                            failed_links: run.failed_links,
                            trials: run.trials.clone(),
                        },
                        Err(EvalError::AllLinksFailed { attempts, .. }) => StoredCell {
                            failed_links: *attempts,
                            trials: Vec::new(),
                        },
                        Err(_) => return None,
                    };
                    Some((StoreKey::for_cell(cfg, &core, &geometry, key), *key, cell))
                })
            })
            .collect()
    }
}

/// The campaign a workload runs in process. Daemon workloads run `rep`'s
/// campaign spec.
pub fn campaign(ctx: &Ctx, rep: u64) -> Campaign {
    let s = &ctx.scale;
    let base = EvalConfig {
        seed: ctx.seed,
        threads: ctx.threads,
        ..EvalConfig::standard()
    };
    match ctx.kind {
        Kind::SweepFig10 => Campaign {
            parts: vec![(
                EvalConfig {
                    trace_instrs: s.sweep_trace,
                    maps: s.sweep_maps,
                    ..base
                },
                ExperimentPlan::for_grid(&s.benchmarks, &Scheme::COMPARED, &mv(&[560, 400])),
            )],
        },
        Kind::LadderYield => {
            let rungs: Vec<MilliVolts> = (0..)
                .map(|i| 760 - 20 * i)
                .take_while(|v| *v >= s.ladder_low_mv)
                .map(MilliVolts::new)
                .collect();
            let plan = ExperimentPlan::for_grid(&s.benchmarks, &[Scheme::FfwBbr], &rungs);
            Campaign {
                parts: [FaultModel::Iid, FaultModel::clustered()]
                    .into_iter()
                    .map(|fault_model| {
                        (
                            EvalConfig {
                                trace_instrs: 2_000,
                                maps: s.ladder_maps,
                                fault_model,
                                ..base
                            },
                            plan.clone(),
                        )
                    })
                    .collect(),
            }
        }
        Kind::ServeMixed | Kind::ClusterCampaign => {
            let spec =
                CampaignSpec::from_json(&spec_json(ctx, rep)).expect("benchmark spec parses");
            Campaign {
                parts: vec![(spec.config(&base), spec.plan())],
            }
        }
    }
}

pub(crate) fn mv(values: &[u32]) -> Vec<MilliVolts> {
    values.iter().copied().map(MilliVolts::new).collect()
}

/// Seed of a daemon workload's `rep`-th cold campaign: each repetition
/// must miss the store.
fn rep_seed(seed: u64, rep: u64) -> u64 {
    seed.wrapping_add(rep.wrapping_mul(1_000_003)) % (1 << 53)
}

/// The campaign spec both daemon workloads submit as repetition `rep`:
/// identical for serve_mixed and cluster_campaign, so their results must
/// be byte-identical.
pub fn spec_json(ctx: &Ctx, rep: u64) -> String {
    let s = &ctx.scale;
    format!(
        "{{\"benchmarks\":[{}],\"schemes\":[\"FFW+BBR\",\"Wilkerson+\",\"FBA+\",\"TS-Cache\"],\
         \"voltages_mv\":[560,480,400],\"maps\":{},\"trace_instrs\":{},\"seed\":{}}}",
        quoted_names(&s.benchmarks),
        s.campaign_maps,
        s.campaign_trace,
        rep_seed(ctx.seed, rep)
    )
}

fn quoted_names(benchmarks: &[Benchmark]) -> String {
    benchmarks
        .iter()
        .map(|b| format!("\"{}\"", b.name()))
        .collect::<Vec<_>>()
        .join(",")
}

/// The results of a campaign rendered exactly as the HTTP API renders
/// them (one JSON array per part, newline separated).
pub fn render(results: &[Results]) -> String {
    results
        .iter()
        .map(|r| api::results_json(r))
        .collect::<Vec<_>>()
        .join("\n")
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What a campaign computed, for pinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// FNV-1a of the rendered results.
    pub digest: u64,
    /// Trials planned.
    pub trials: u64,
    /// Trials whose BBR link failed.
    pub link_failures: u64,
    /// Instructions simulated.
    pub instructions: u64,
}

impl Tally {
    /// Tallies `results` of `campaign`.
    pub fn of(campaign: &Campaign, results: &[Results]) -> Tally {
        let mut t = Tally {
            digest: fnv1a(render(results).as_bytes()),
            trials: campaign
                .parts
                .iter()
                .map(|(cfg, plan)| plan.total_trials(cfg))
                .sum(),
            link_failures: 0,
            instructions: 0,
        };
        for (_, r) in results.iter().flatten() {
            match r {
                Ok(run) => {
                    t.link_failures += run.failed_links;
                    t.instructions += run
                        .trials
                        .iter()
                        .map(|m| m.result.instructions)
                        .sum::<u64>();
                }
                Err(EvalError::AllLinksFailed { attempts, .. }) => t.link_failures += attempts,
                Err(_) => {}
            }
        }
        t
    }

    fn to_json(self) -> String {
        format!(
            "{{\"digest\":\"{:016x}\",\"trials\":{},\"link_failures\":{},\"instructions\":{}}}",
            self.digest, self.trials, self.link_failures, self.instructions
        )
    }
}

/// Seed the checked-in pins were taken at.
pub const PIN_SEED: u64 = 42;

/// The pinned tally of `kind` at [`PIN_SEED`].
fn pinned(kind: Kind) -> Option<Tally> {
    let pins = dvs_obs::json::Value::parse(include_str!("../pins.json")).expect("pins.json parses");
    let p = pins.get(kind.name())?;
    let num = |k: &str| {
        p.get(k)
            .and_then(dvs_obs::json::Value::as_f64)
            .map(|v| v as u64)
    };
    Some(Tally {
        digest: u64::from_str_radix(p.get("digest")?.as_str()?, 16).ok()?,
        trials: num("trials")?,
        link_failures: num("link_failures")?,
        instructions: num("instructions")?,
    })
}

/// Accumulates operations, failures and check results over one run.
pub struct Run {
    /// The result line being built.
    pub out: Outcome,
    errors: Vec<String>,
}

impl Run {
    /// An empty run.
    pub fn new() -> Run {
        Run {
            out: Outcome::default(),
            errors: Vec::new(),
        }
    }

    /// Records a failed check.
    pub fn fail(&mut self, msg: String) {
        eprintln!("dvs-perf: check failed: {msg}");
        self.errors.push(msg);
    }

    /// Counts `n` operations, `failed` of which failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.out.attempted += n;
        self.out.failed += failed;
    }

    /// Every check passed and no operation failed.
    pub fn finish(mut self) -> Outcome {
        self.out.correct = self.errors.is_empty() && self.out.failed == 0;
        self.out
    }

    /// Checks that no cell of `results` failed other than by linking
    /// (an all-links-failed cell is a yield result, not an error).
    pub fn check_cells(&mut self, what: &str, results: &[Results]) {
        let bad: Vec<String> = results
            .iter()
            .flatten()
            .filter_map(|(key, r)| match r {
                Err(e) if !matches!(e, EvalError::AllLinksFailed { .. }) => {
                    Some(format!("{key}: {e}"))
                }
                _ => None,
            })
            .collect();
        let cells = results.iter().map(|r| r.len() as u64).sum();
        self.ops(cells, bad.len() as u64);
        if let Some(first) = bad.first() {
            self.fail(format!("{what}: {} cells failed, first {first}", bad.len()));
        }
    }

    /// Compares a seed-42 tally against the checked-in pin.
    pub(crate) fn check_pin(&mut self, ctx: &Ctx, tally: Tally) {
        eprintln!("dvs-perf: {} tally {}", ctx.kind.name(), tally.to_json());
        if ctx.seed != PIN_SEED || !ctx.full_scale {
            return;
        }
        match pinned(ctx.kind) {
            Some(pin) if pin == tally => {}
            Some(pin) => self.fail(format!(
                "{} results moved from the pin {} to {}",
                ctx.kind.name(),
                pin.to_json(),
                tally.to_json()
            )),
            None => self.fail(format!("no pin for {}", ctx.kind.name())),
        }
    }
}

pub(crate) fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub(crate) fn median_of(values: &[f64]) -> f64 {
    stats::median(values).expect("at least one repetition")
}

/// Runs one untraced measurement of `ctx.kind` and returns its result
/// line.
pub fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    let scratch = Scratch::new(&ctx.out_dir)?;
    let mut run = Run::new();
    match ctx.kind {
        Kind::SweepFig10 | Kind::LadderYield => in_process(ctx, &scratch, &mut run)?,
        Kind::ServeMixed => service::serve_mixed(ctx, &scratch, &mut run)?,
        Kind::ClusterCampaign => service::cluster_campaign(ctx, &scratch, &mut run)?,
    }
    Ok(run.finish())
}

/// Rounds an in-process run measures at the least.
const MIN_ROUNDS: usize = 3;

/// An evaluator as a figure binary builds it (`dvs_bench::evaluator`):
/// the engine, then the result store it persists to and reloads from.
fn figure_evaluator(cfg: EvalConfig, store_dir: &Path) -> Result<Evaluator, String> {
    let eval = Evaluator::new(cfg);
    let store = ResultStore::open(store_dir).map_err(|e| format!("open store: {e}"))?;
    Ok(eval.with_store(store))
}

/// The in-process workloads, as the figure binaries run them: rounds,
/// until `--seconds` have passed, of a first run and its re-run.
///
/// - The first run is a cold campaign with fresh evaluators and no store,
///   so every round pays the benchmark builds, transforms, templates and
///   trials a figure binary pays (`campaign_s`).
/// - The re-run is what the figure binaries' default store makes of a
///   second invocation (EXPERIMENTS.md, "Result store": re-running
///   recomputes nothing): evaluators built as `dvs_bench::evaluator`
///   builds them (`setup_s`) on the store the first run filled, and the
///   campaign resolved from it (`warm_campaign_s`). The progress callback
///   fires as each cell is resolved, which splits the re-run into the
///   point queries it is made of: one `ResultStore::load` per cell, the
///   operation behind every `GET /v1/results` (`query_p50_us`).
///
/// Every metric so samples the whole run, and a few seconds of
/// contention on the shared host move each of them a little instead of
/// one of them a lot. A round holds one re-run: later ones would find the
/// store's files in the CPU caches, which a second invocation of a
/// figure binary does not, and they read less steadily (see the README).
/// The first round's results fill the store, keyed as the engine keys
/// them; the re-runs' identical renderings prove the keys.
fn in_process(ctx: &Ctx, scratch: &Scratch, run: &mut Run) -> Result<(), String> {
    let c = campaign(ctx, 0);
    let dir = scratch.fresh("store")?;
    let start = Instant::now();
    let (mut cold, mut setup, mut warm, mut cell_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<String> = None;
    while cold.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < ctx.seconds {
        let t = Instant::now();
        let results = c.run(None);
        cold.push(secs(t.elapsed()));
        run.check_cells("cold campaign", &results);
        let text = render(&results);
        match &reference {
            None => {
                run.check_pin(ctx, Tally::of(&c, &results));
                let store = ResultStore::open(&dir).map_err(|e| format!("open store: {e}"))?;
                for (key, _, cell) in c.stored(&results) {
                    store
                        .save(&key, &cell)
                        .map_err(|e| format!("fill store: {e}"))?;
                }
                reference = Some(text);
            }
            Some(first) if *first != text => {
                run.fail("a repeated cold campaign rendered different results".into());
            }
            Some(_) => {}
        }

        let t = Instant::now();
        let evaluators = c
            .parts
            .iter()
            .map(|(cfg, _)| figure_evaluator(*cfg, &dir))
            .collect::<Result<Vec<_>, String>>()?;
        setup.push(secs(t.elapsed()));
        let marks = Arc::new(Mutex::new(Vec::with_capacity(c.cells() as usize)));
        let t = Instant::now();
        let mut results = Vec::new();
        let mut from_store = 0;
        for (mut e, (_, plan)) in evaluators.into_iter().zip(&c.parts) {
            let m = Arc::clone(&marks);
            e.set_progress(move |_| m.lock().expect("marks").push(Instant::now()));
            results.push(e.run_plan(plan));
            from_store += e.stats().cells_from_store;
        }
        warm.push(secs(t.elapsed()));
        let marks = marks.lock().expect("marks");
        cell_us.extend(
            std::iter::once(t)
                .chain(marks.iter().copied())
                .zip(marks.iter())
                .map(|(a, b)| secs(b.duration_since(a)) * 1e6),
        );
        run.check_cells("re-run", &results);
        if from_store != c.cells() {
            run.fail(format!(
                "a re-run took {from_store} of {} cells from the store",
                c.cells()
            ));
        }
        if reference.as_ref() != Some(&render(&results)) {
            run.fail("a re-run differs from the first run".into());
        }
    }
    run.out.put("setup_s", median_of(&setup), "s");
    run.out.put("campaign_s", median_of(&cold), "s");
    run.out.put("warm_campaign_s", median_of(&warm), "s");
    run.out.put("query_p50_us", median_of(&cell_us), "us");
    let hwm = daemon::vm_hwm_kib(std::process::id()).ok_or("cannot read VmHWM")?;
    run.out.put("peak_rss_mb", hwm as f64 / 1024.0, "MiB");
    eprintln!(
        "dvs-perf: {} {} rounds, cold {cold:.3?}, {} cells each",
        ctx.kind.name(),
        cold.len(),
        c.cells()
    );
    Ok(())
}

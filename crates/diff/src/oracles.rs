//! The four paired-run oracle families.
//!
//! Every oracle returns [`Diagnostic`]s: a deny per divergence (with the
//! shrunk minimal reproducer rendered into the message), a warn when a
//! precondition of the comparison does not hold (e.g. a nominally clean
//! map that sampled a defect), and nothing when the paired runs agree.
//!
//! * **Family A** — clean-map equivalence: with a fault-free map, every
//!   scheme's event stream matches a conventional cache over the same
//!   geometry (modulo each scheme's documented constant hit-cycle adder),
//!   both at stream level and end-to-end through the [`Evaluator`].
//! * **Family B** — SA/DM agreement: the BBR cache (direct-mapped) with
//!   an empty fault map matches a one-way set-associative conventional
//!   cache of the same capacity, and an SA→DM→SA mode round-trip leaves
//!   a [`CacheCore`] indistinguishable from a fresh one.
//! * **Family C** — persistence identity: store-backed, store-reloaded
//!   and recorder-on evaluator runs are bit-identical to a plain run.
//! * **Family D** — capacity halving: Wilkerson word-disable over a clean
//!   map matches a conventional cache of half the capacity and half the
//!   ways, at its documented +1-cycle hit latency.
//! * **Family E** — packed vs reference: the word-packed hot-path
//!   queries (popcounts, per-frame fault masks, word-chunked occupancy
//!   scans) agree with their retained per-bit reference implementations
//!   on fault maps drawn down the voltage ladder.

use std::sync::Arc;

use dvs_analysis::{Diagnostic, Location};
use dvs_cache::{Addr, CacheCore, CacheMode};
use dvs_core::{CellKey, EvalConfig, Evaluator, ExperimentPlan, ResultStore, Scheme};
use dvs_linker::{
    fault_free_chunks, fault_free_chunks_reference, first_faulty_in_run,
    first_faulty_in_run_reference,
};
use dvs_obs::MetricsRegistry;
use dvs_schemes::SchemeKind;
use dvs_sram::montecarlo::trial_seed;
use dvs_sram::{
    ladder_mv, CacheGeometry, FaultChain, FaultMap, FaultModel, MilliVolts, PfailModel,
};
use dvs_workloads::Benchmark;

use crate::shrink::{render_pair_test, shrink_case, Case};
use crate::stream::{
    first_behavioral_divergence, first_divergence, run_stream, synthetic_stream, Access,
};

/// Lint identifier for clean-map equivalence violations.
pub const LINT_CLEAN_MAP: &str = "diff/clean-map";
/// Lint identifier for SA/DM agreement violations.
pub const LINT_SA_DM: &str = "diff/sa-dm";
/// Lint identifier for persistence-identity violations.
pub const LINT_PERSISTENCE: &str = "diff/persistence";
/// Lint identifier for capacity-halving violations.
pub const LINT_HALVING: &str = "diff/capacity-halving";
/// Lint identifier for a comparison precondition that did not hold.
pub const LINT_HYPOTHESIS: &str = "diff/clean-hypothesis";
/// Lint identifier for packed-vs-reference divergences.
pub const LINT_PACKED: &str = "diff/packed-reference";

/// One side of a paired run: a scheme, its fault map, and the source
/// expressions used when rendering a reproducer test.
struct Side<'a> {
    kind: SchemeKind,
    map: &'a FaultMap,
    kind_expr: &'a str,
    geom_expr: &'a str,
}

/// Compares `candidate` against `reference` on the shared stream,
/// shrinking and rendering a reproducer on divergence. Latency is masked
/// when the candidate documents a constant extra-hit-cycle adder.
fn diff_pair(
    lint: &'static str,
    candidate: &Side<'_>,
    reference: &Side<'_>,
    accesses: &[Access],
) -> Option<Diagnostic> {
    let mask_latency = candidate.kind.extra_hit_cycles() != reference.kind.extra_hit_cycles();
    let diverges = |accesses: &[Access], faults_a: &[u32], faults_b: &[u32]| {
        let map_a =
            FaultMap::from_faulty_indices(reference.map.geometry(), faults_a.iter().copied());
        let map_b =
            FaultMap::from_faulty_indices(candidate.map.geometry(), faults_b.iter().copied());
        let a = run_stream(reference.kind, &map_a, accesses);
        let b = run_stream(candidate.kind, &map_b, accesses);
        if mask_latency {
            first_behavioral_divergence(&a, &b)
        } else {
            first_divergence(&a, &b)
        }
    };
    let faults_a: Vec<u32> = reference.map.iter_faulty_linear().collect();
    let faults_b: Vec<u32> = candidate.map.iter_faulty_linear().collect();
    let index = diverges(accesses, &faults_a, &faults_b)?;
    let case = Case {
        accesses: accesses.to_vec(),
        faults_a,
        faults_b,
    };
    let shrunk = shrink_case(&case, &|c| {
        diverges(&c.accesses, &c.faults_a, &c.faults_b).is_some()
    });
    let rendered = render_pair_test(
        "shrunk_diff_regression",
        &shrunk,
        reference.kind_expr,
        candidate.kind_expr,
        reference.geom_expr,
        candidate.geom_expr,
        &format!(
            "Shrunk by dvs-diff from a {}-access failure.",
            accesses.len()
        ),
    );
    Some(Diagnostic::deny(
        lint,
        Location::Image,
        format!(
            "{} diverges from {} at access {index} \
             (shrunk to {} accesses, {} faults); minimal reproducer:\n{rendered}",
            candidate.kind_expr,
            reference.kind_expr,
            shrunk.accesses.len(),
            shrunk.faults_b.len(),
        ),
    ))
}

/// Family A (stream level): over a fault-free map, every scheme that
/// keeps the conventional geometry must produce the conventional cache's
/// exact event stream; schemes documenting a constant extra hit cycle are
/// compared with latency masked.
pub fn clean_map_equivalence(seed: u64, stream_len: usize) -> Vec<Diagnostic> {
    let geom = CacheGeometry::dsn_l1();
    let clean = FaultMap::fault_free(&geom);
    let accesses = synthetic_stream(seed, stream_len);
    let candidates: [(SchemeKind, &str); 9] = [
        (SchemeKind::EightT, "SchemeKind::EightT"),
        (
            SchemeKind::SimpleWordDisable,
            "SchemeKind::SimpleWordDisable",
        ),
        (SchemeKind::Ffw, "SchemeKind::Ffw"),
        (SchemeKind::fba(), "SchemeKind::fba()"),
        (SchemeKind::idc(), "SchemeKind::idc()"),
        (SchemeKind::WordSubstitution, "SchemeKind::WordSubstitution"),
        (SchemeKind::LineDisable, "SchemeKind::LineDisable"),
        (SchemeKind::WayDisable, "SchemeKind::WayDisable"),
        (SchemeKind::TsCache, "SchemeKind::TsCache"),
    ];
    candidates
        .into_iter()
        .filter_map(|(kind, expr)| {
            diff_pair(
                LINT_CLEAN_MAP,
                &Side {
                    kind,
                    map: &clean,
                    kind_expr: expr,
                    geom_expr: "CacheGeometry::dsn_l1()",
                },
                &Side {
                    kind: SchemeKind::Conventional,
                    map: &clean,
                    kind_expr: "SchemeKind::Conventional",
                    geom_expr: "CacheGeometry::dsn_l1()",
                },
                &accesses,
            )
        })
        .collect()
}

/// A small evaluator configuration for the end-to-end oracles.
fn tiny_config(seed: u64, fault_model: FaultModel) -> EvalConfig {
    EvalConfig {
        trace_instrs: 3_000,
        maps: 2,
        seed,
        threads: 2,
        validate_images: false,
        fault_model,
        ..EvalConfig::quick()
    }
}

/// Recomputes the engine's two per-trial fault maps for `key`/`trial`
/// exactly as `run_trial` samples them: a [`FaultChain`] under
/// `fault_model` advanced down the 20 mV voltage ladder to the cell's
/// operating point, with the failure probability clamped monotone
/// against the pfail fit.
fn trial_maps(
    key: &CellKey,
    root_seed: u64,
    trial: u64,
    fault_model: FaultModel,
) -> (FaultMap, FaultMap) {
    let geom = CacheGeometry::dsn_l1();
    let vcc_mv = key.point().vcc.get();
    let model = PfailModel::dsn45();
    let base = key.seed_base(root_seed);
    let side = |side: u64| {
        let mut chain =
            FaultChain::with_model(&geom, trial_seed(base, 2 * trial + side), fault_model);
        for mv in ladder_mv(vcc_mv) {
            let p = model.pfail_word(MilliVolts::new(mv)).max(chain.p_current());
            chain.advance_to(p);
        }
        chain.into_map()
    };
    (side(0), side(1))
}

/// Family A (end-to-end): at 760 mV every trial whose sampled maps are
/// actually clean must reproduce the defect-free run — bit-identical
/// `SimResult` for schemes with no extra hit cycles, identical memory
/// counters for the +1-cycle schemes (the trace-driven memory side is
/// timing-independent). Trials whose maps sampled a defect (possible:
/// 760 mV is yield-clean, not P_fail = 0) get a warn, never a silent
/// skip.
///
/// `fault_model` selects the injection backend the evaluator samples
/// under — the equivalence must hold for every model, since at a clean
/// operating point correlation structure has nothing to correlate.
pub fn evaluator_clean_equivalence(
    benchmarks: &[Benchmark],
    seed: u64,
    fault_model: FaultModel,
) -> Vec<Diagnostic> {
    let vcc = MilliVolts::new(760);
    let mut diags = Vec::new();
    let mut ev = Evaluator::new(tiny_config(seed, fault_model));
    for &bench in benchmarks {
        let reference = match ev.run(bench, Scheme::DefectFree, vcc) {
            Ok(run) => run,
            Err(e) => {
                diags.push(Diagnostic::deny(
                    LINT_CLEAN_MAP,
                    Location::Image,
                    format!("defect-free reference failed on {}: {e}", bench.name()),
                ));
                continue;
            }
        };
        let ref_trial = &reference.trials[0];
        let exact = [
            Scheme::SimpleWdis,
            Scheme::LineDisable,
            Scheme::WayDisable,
            Scheme::TsCache,
        ];
        let memory_only = [Scheme::EightT, Scheme::WordSub];
        for scheme in exact.iter().chain(memory_only.iter()).copied() {
            let run = match ev.run(bench, scheme, vcc) {
                Ok(run) => run,
                Err(e) => {
                    diags.push(Diagnostic::deny(
                        LINT_CLEAN_MAP,
                        Location::Image,
                        format!("{scheme} failed on {}: {e}", bench.name()),
                    ));
                    continue;
                }
            };
            let key = CellKey::new(bench, scheme, vcc);
            for (trial, metrics) in run.trials.iter().enumerate() {
                if scheme.sees_faults() {
                    let (fmap_i, fmap_d) = trial_maps(&key, seed, trial as u64, fault_model);
                    if fmap_i.faulty_words() + fmap_d.faulty_words() > 0 {
                        diags.push(Diagnostic::warn(
                            LINT_HYPOTHESIS,
                            Location::Image,
                            format!(
                                "{scheme}/{} trial {trial}: 760 mV map sampled \
                                 {} faulty word(s); clean-equivalence not applicable",
                                bench.name(),
                                fmap_i.faulty_words() + fmap_d.faulty_words(),
                            ),
                        ));
                        continue;
                    }
                }
                let agrees = if exact.contains(&scheme) {
                    metrics.result == ref_trial.result
                } else {
                    metrics.result.mem == ref_trial.result.mem
                        && metrics.result.instructions == ref_trial.result.instructions
                };
                if !agrees {
                    diags.push(Diagnostic::deny(
                        LINT_CLEAN_MAP,
                        Location::Image,
                        format!(
                            "{scheme}/{} trial {trial} diverges from defect-free at \
                             760 mV on clean maps:\n  scheme: {:?}\n  reference: {:?}",
                            bench.name(),
                            metrics.result,
                            ref_trial.result,
                        ),
                    ));
                }
            }
        }
    }
    diags
}

/// Family B: the BBR instruction cache (direct-mapped over the full
/// geometry) with an empty fault map must match a conventional one-way
/// set-associative cache of the same capacity — the DM line index and the
/// 1-way set index select the same physical line. Also checks that a
/// `CacheCore` SA→DM→SA mode round-trip is indistinguishable from a
/// fresh core (stale LRU state after the flush breaks replay equality).
pub fn sa_dm_equivalence(seed: u64, stream_len: usize) -> Vec<Diagnostic> {
    let geom = CacheGeometry::dsn_l1();
    let one_way = CacheGeometry::new(geom.capacity_bytes(), 1, geom.block_bytes())
        .expect("one-way variant of dsn_l1");
    let accesses = synthetic_stream(seed, stream_len);
    let mut diags: Vec<Diagnostic> = diff_pair(
        LINT_SA_DM,
        &Side {
            kind: SchemeKind::Bbr,
            map: &FaultMap::fault_free(&geom),
            kind_expr: "SchemeKind::Bbr",
            geom_expr: "CacheGeometry::dsn_l1()",
        },
        &Side {
            kind: SchemeKind::Conventional,
            map: &FaultMap::fault_free(&one_way),
            kind_expr: "SchemeKind::Conventional",
            geom_expr: "CacheGeometry::new(32768, 1, 32).unwrap()",
        },
        &accesses,
    )
    .into_iter()
    .collect();

    // Mode round-trip freshness: replay the same fill stream on a
    // round-tripped core and a fresh one; every victim choice must agree.
    let small = CacheGeometry::new(1024, 4, 32).expect("small SA geometry");
    let mut tripped = CacheCore::new(small);
    for &access in accesses.iter().take(64) {
        let addr = Addr::new(access.addr());
        if !tripped.lookup(addr).is_hit() {
            tripped.fill(addr);
        }
    }
    let populated = u64::from(tripped.valid_lines());
    tripped.set_mode(CacheMode::DirectMapped);
    tripped.set_mode(CacheMode::SetAssociative);
    if tripped.invalidations() != populated {
        diags.push(Diagnostic::deny(
            LINT_SA_DM,
            Location::Image,
            format!(
                "SA→DM→SA round-trip counted {} invalidations for {populated} \
                 valid lines (each line must be counted exactly once)",
                tripped.invalidations(),
            ),
        ));
    }
    let mut fresh = CacheCore::new(small);
    for (i, &access) in accesses.iter().enumerate().take(stream_len.min(256)) {
        let addr = Addr::new(access.addr());
        if tripped.victim_frame(addr) != fresh.victim_frame(addr) {
            diags.push(Diagnostic::deny(
                LINT_SA_DM,
                Location::Image,
                format!(
                    "SA→DM→SA round-trip is not fresh: victim frame for access \
                     {i} (addr {:#x}) is {:?} on the round-tripped core but \
                     {:?} on a fresh one — stale replacement state survived \
                     the flush",
                    access.addr(),
                    tripped.victim_frame(addr),
                    fresh.victim_frame(addr),
                ),
            ));
            break;
        }
        let hit_t = tripped.lookup(addr).is_hit();
        let hit_f = fresh.lookup(addr).is_hit();
        if hit_t != hit_f {
            diags.push(Diagnostic::deny(
                LINT_SA_DM,
                Location::Image,
                format!(
                    "SA→DM→SA round-trip replay diverges at access {i}: \
                     hit={hit_t} on the round-tripped core, hit={hit_f} fresh",
                ),
            ));
            break;
        }
        if !hit_t {
            tripped.fill(addr);
            fresh.fill(addr);
        }
    }
    diags
}

/// Family C: persistence and observability must never change results.
/// Sweeps one benchmark over two voltages (so the incremental
/// voltage-ladder walk and image reuse across rungs are exercised) plain,
/// store-backed, store-reloaded, size-capped (`store_cap` bytes, twice —
/// eviction mid-sweep and a rerun over the evicted store), recorder-on
/// and with buffer reuse disabled (`reuse_buffers: false`); every trial
/// vector of every cell must be bit-identical to the plain sweep.
pub fn persistence_identity(
    benchmark: Benchmark,
    seed: u64,
    fault_model: FaultModel,
    store_cap: Option<u64>,
) -> Vec<Diagnostic> {
    let scheme = Scheme::FfwBbr;
    let plan = ExperimentPlan::for_grid(
        &[benchmark],
        &[scheme],
        &[MilliVolts::new(480), MilliVolts::new(440)],
    );
    let mut diags = Vec::new();

    type PlanRuns = Vec<(
        CellKey,
        Result<Arc<dvs_core::SchemeRun>, dvs_core::EvalError>,
    )>;
    let run_with =
        |store: Option<ResultStore>, cap: Option<u64>, recorder: bool, reuse: bool| -> PlanRuns {
            // The cap is threaded through `EvalConfig` (not applied to
            // the store directly) so the same path production uses —
            // `with_store` picking up `store_max_bytes` — is on trial.
            let mut ev = Evaluator::new(EvalConfig {
                reuse_buffers: reuse,
                store_max_bytes: cap,
                ..tiny_config(seed, fault_model)
            });
            if let Some(store) = store {
                ev = ev.with_store(store);
            }
            if recorder {
                ev = ev.with_recorder(Arc::new(MetricsRegistry::new()));
            }
            ev.run_plan(&plan)
        };

    let plain = run_with(None, None, false, true);
    if let Some((key, Err(e))) = plain.iter().find(|(_, r)| r.is_err()) {
        diags.push(Diagnostic::deny(
            LINT_PERSISTENCE,
            Location::Image,
            format!("plain sweep failed on {key}: {e}"),
        ));
        return diags;
    }

    let store_dir =
        std::env::temp_dir().join(format!("dvs-diff-store-{}-{seed}", std::process::id()));
    let capped_dir =
        std::env::temp_dir().join(format!("dvs-diff-capped-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&capped_dir);
    // (label, store directory, size cap, recorder on, buffer reuse)
    type Variant<'a> = (
        &'a str,
        Option<&'a std::path::Path>,
        Option<u64>,
        bool,
        bool,
    );
    let variants: [Variant<'_>; 6] = [
        ("store-backed", Some(store_dir.as_path()), None, false, true),
        (
            "store-reloaded",
            Some(store_dir.as_path()),
            None,
            false,
            true,
        ),
        (
            "store-capped",
            Some(capped_dir.as_path()),
            store_cap,
            false,
            true,
        ),
        (
            "store-capped-rerun",
            Some(capped_dir.as_path()),
            store_cap,
            false,
            true,
        ),
        ("recorder-on", None, None, true, true),
        ("arena-disabled", None, None, false, false),
    ];
    for (label, dir, cap, recorder, reuse) in variants {
        let store = match dir.map(ResultStore::open) {
            Some(Ok(store)) => Some(store),
            Some(Err(e)) => {
                diags.push(Diagnostic::deny(
                    LINT_PERSISTENCE,
                    Location::Image,
                    format!("{label}: store failed to open: {e}"),
                ));
                continue;
            }
            None => None,
        };
        let runs = run_with(store, cap, recorder, reuse);
        for ((pk, pr), (vk, vr)) in plain.iter().zip(&runs) {
            if pk != vk {
                diags.push(Diagnostic::deny(
                    LINT_PERSISTENCE,
                    Location::Image,
                    format!("{label}: sweep order diverged ({pk} vs {vk})"),
                ));
                break;
            }
            let plain_run = pr.as_ref().expect("plain sweep errors handled above");
            match vr {
                Ok(run) => {
                    if run.trials != plain_run.trials || run.failed_links != plain_run.failed_links
                    {
                        diags.push(Diagnostic::deny(
                            LINT_PERSISTENCE,
                            Location::Image,
                            format!(
                                "{label} run of {pk} is not bit-identical to the \
                                 plain run ({} vs {} trials)",
                                run.trials.len(),
                                plain_run.trials.len(),
                            ),
                        ));
                    }
                }
                Err(e) => diags.push(Diagnostic::deny(
                    LINT_PERSISTENCE,
                    Location::Image,
                    format!("{label} run of {pk} failed: {e}"),
                )),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&capped_dir);
    diags
}

/// Family E — packed vs reference: every word-packed hot-path query must
/// agree with its retained per-bit reference implementation on fault
/// maps drawn down the voltage ladder. Covers [`BitGrid`] popcount and
/// `iter_ones`, the per-frame fault masks the schemes consult, and the
/// linker's word-chunked occupancy scans.
///
/// [`BitGrid`]: dvs_sram::BitGrid
pub fn packed_reference_equivalence(
    seed: u64,
    voltages_mv: &[u32],
    fault_model: FaultModel,
) -> Vec<Diagnostic> {
    let geom = CacheGeometry::dsn_l1();
    let model = PfailModel::dsn45();
    let mut voltages: Vec<u32> = voltages_mv.to_vec();
    voltages.sort_unstable_by(|a, b| b.cmp(a));
    voltages.dedup();
    let mut chain = FaultChain::with_model(&geom, seed, fault_model);
    let mut diags = Vec::new();
    for mv in voltages {
        let p = model.pfail_word(MilliVolts::new(mv)).max(chain.p_current());
        chain.advance_to(p);
        let map = chain.map();
        let grid = map.word_bits();

        if grid.count_ones() != grid.count_ones_reference() {
            diags.push(Diagnostic::deny(
                LINT_PACKED,
                Location::Image,
                format!(
                    "BitGrid::count_ones diverges from the per-bit reference at \
                     {mv} mV (seed {seed}): packed {}, reference {}",
                    grid.count_ones(),
                    grid.count_ones_reference(),
                ),
            ));
        }
        let from_iter = grid.iter_ones().count();
        if from_iter != grid.count_ones() {
            diags.push(Diagnostic::deny(
                LINT_PACKED,
                Location::Image,
                format!(
                    "BitGrid::iter_ones yields {from_iter} indices but count_ones \
                     reports {} at {mv} mV (seed {seed})",
                    grid.count_ones(),
                ),
            ));
        }
        for frame in map.frames() {
            let packed = map.frame_fault_pattern(frame);
            let reference = map.frame_fault_pattern_reference(frame);
            if packed != reference {
                diags.push(Diagnostic::deny(
                    LINT_PACKED,
                    Location::Image,
                    format!(
                        "frame_fault_pattern diverges from the per-bit reference \
                         for frame {frame:?} at {mv} mV (seed {seed}): packed \
                         {packed:#034b}, reference {reference:#034b}",
                    ),
                ));
                break;
            }
        }
        if fault_free_chunks(map) != fault_free_chunks_reference(map) {
            diags.push(Diagnostic::deny(
                LINT_PACKED,
                Location::Image,
                format!(
                    "fault_free_chunks diverges from the per-word reference at \
                     {mv} mV (seed {seed})",
                ),
            ));
        }
        let total = geom.total_words();
        for k in 0..32u64 {
            let start = (seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(k.wrapping_mul(0x517c_c1b7_2722_0a95))
                % u64::from(total)) as u32;
            let len = 1 + (k as u32 * 7) % 192;
            let packed = first_faulty_in_run(map, start, len);
            let reference = first_faulty_in_run_reference(map, start, len);
            if packed != reference {
                diags.push(Diagnostic::deny(
                    LINT_PACKED,
                    Location::Image,
                    format!(
                        "first_faulty_in_run({start}, {len}) diverges from the \
                         per-word reference at {mv} mV (seed {seed}): packed \
                         {packed:?}, reference {reference:?}",
                    ),
                ));
                break;
            }
        }
    }
    diags
}

/// Family D: Wilkerson word-disable pairs up ways, so over a clean map it
/// must behave exactly like a conventional cache of half the capacity and
/// half the associativity, at its documented +1-cycle hit latency.
pub fn wilkerson_halving(seed: u64, stream_len: usize) -> Vec<Diagnostic> {
    let geom = CacheGeometry::dsn_l1();
    let halved = CacheGeometry::new(
        geom.capacity_bytes() / 2,
        geom.ways() / 2,
        geom.block_bytes(),
    )
    .expect("halved variant of dsn_l1");
    let mut diags = Vec::new();
    if SchemeKind::WilkersonPlus.extra_hit_cycles() != 1 {
        diags.push(Diagnostic::deny(
            LINT_HALVING,
            Location::Image,
            format!(
                "Wilkerson hit-latency adder changed: documented 1, now {}",
                SchemeKind::WilkersonPlus.extra_hit_cycles(),
            ),
        ));
    }
    let accesses = synthetic_stream(seed, stream_len);
    diags.extend(diff_pair(
        LINT_HALVING,
        &Side {
            kind: SchemeKind::WilkersonPlus,
            map: &FaultMap::fault_free(&geom),
            kind_expr: "SchemeKind::WilkersonPlus",
            geom_expr: "CacheGeometry::dsn_l1()",
        },
        &Side {
            kind: SchemeKind::Conventional,
            map: &FaultMap::fault_free(&halved),
            kind_expr: "SchemeKind::Conventional",
            geom_expr: "CacheGeometry::new(16384, 2, 32).unwrap()",
        },
        &accesses,
    ));
    diags
}

/// Self-test: plants one fault under the word-disable scheme and diffs
/// it against the clean conventional run — a real divergence the harness
/// must flag, shrink and render. Used by `dvs-diff --inject-divergence`
/// (and CI) to prove the deny path works end to end.
pub fn injected_divergence() -> Vec<Diagnostic> {
    let geom = CacheGeometry::dsn_l1();
    let clean = FaultMap::fault_free(&geom);
    let faulty = FaultMap::from_faulty_indices(&geom, [0]);
    // Four blocks mapping to set 0 fill ways 3,2,1,0 in order; the second
    // round re-reads word 0 of each, and the block in way 0 hits the
    // planted fault.
    let blocks = [0u64, 256, 512, 768];
    let accesses: Vec<Access> = blocks
        .iter()
        .chain(blocks.iter())
        .map(|&bn| Access::Read(bn * 32))
        .collect();
    diff_pair(
        LINT_CLEAN_MAP,
        &Side {
            kind: SchemeKind::SimpleWordDisable,
            map: &faulty,
            kind_expr: "SchemeKind::SimpleWordDisable",
            geom_expr: "CacheGeometry::dsn_l1()",
        },
        &Side {
            kind: SchemeKind::Conventional,
            map: &clean,
            kind_expr: "SchemeKind::Conventional",
            geom_expr: "CacheGeometry::dsn_l1()",
        },
        &accesses,
    )
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_map_family_is_clean() {
        assert_eq!(clean_map_equivalence(11, 1_500), Vec::new());
    }

    #[test]
    fn sa_dm_family_is_clean() {
        assert_eq!(sa_dm_equivalence(13, 1_500), Vec::new());
    }

    #[test]
    fn wilkerson_family_is_clean() {
        assert_eq!(wilkerson_halving(17, 1_500), Vec::new());
    }

    #[test]
    fn packed_reference_family_is_clean_under_every_model() {
        for model in FaultModel::ALL {
            assert_eq!(
                packed_reference_equivalence(19, &[760, 600, 480, 400], model),
                Vec::new(),
                "packed-vs-reference diverged under {}",
                model.name()
            );
        }
    }

    /// The harness must actually catch discrepancies: the injected
    /// divergence (one planted fault under word-disable) must produce a
    /// deny whose message carries the shrunk reproducer.
    #[test]
    fn planted_fault_is_flagged_and_shrunk() {
        let diags = injected_divergence();
        assert_eq!(diags.len(), 1, "{diags:?}");
        let text = format!("{:?}", diags[0]);
        assert!(text.contains("minimal reproducer"), "{text}");
        assert!(text.contains("from_faulty_indices"), "{text}");
    }
}

//! The lint registry: typed invariant checks over a linked image and its
//! fault map.
//!
//! Each [`Lint`] inspects one facet of the correctness story —
//! placements avoid defective words, the layout is sound under
//! direct-mapped indexing, the transform preserved the trace, literal
//! pools are reachable, FFW window patterns are self-consistent — and
//! reports **every** finding as a [`Diagnostic`], unlike
//! [`LinkedImage::verify`](dvs_linker::LinkedImage::verify) which stops
//! at the first. [`LintRegistry::standard`] bundles the full set;
//! [`analyze_image`] and [`analyze_placement`] are the entry points the
//! CLI, the engine's validation hook, and other crates' tests share.

use dvs_linker::{lint_ids, Diagnostic, LinkedImage, Location, Severity};
use dvs_obs::{Recorder, Span};
use dvs_sram::FaultMap;
use dvs_workloads::{Layout, Program, Terminator};

use crate::cfg::Cfg;
use crate::equiv::{check_trace_equivalence, EquivConfig};
use crate::verify::{FaultReachability, RemapLiveness, ValueRange};

/// Everything a lint may inspect: the placed program, its layout, the
/// fault map it was linked against, and (when available) the
/// pre-transform program for equivalence checking.
#[derive(Clone, Copy)]
pub struct AnalysisInput<'a> {
    /// The placed program (after linking, with elided jumps removed).
    pub program: &'a Program,
    /// Its block placement.
    pub layout: &'a Layout,
    /// The fault map the placement must avoid.
    pub fmap: &'a FaultMap,
    /// The pre-transform program, when the caller has it; enables the
    /// `transform-equivalence` lint.
    pub original: Option<&'a Program>,
}

/// A named invariant check.
pub trait Lint {
    /// Stable lint id (one of [`lint_ids`]).
    fn id(&self) -> &'static str;
    /// One-line description of the invariant.
    fn description(&self) -> &'static str;
    /// Severity of this lint's findings.
    fn severity(&self) -> Severity;
    /// dvs-obs timer name this lint's wall-clock cost records under when
    /// the registry runs with a recorder attached (see
    /// [`LintRegistry::run_recorded`]).
    fn timer(&self) -> &'static str;
    /// Runs the check, appending every finding to `out`.
    fn check(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>);
}

/// Every placed instruction and literal word must map to a fault-free
/// cache word — the linker's core guarantee (paper Algorithm 1).
struct ChunkContainment;

impl Lint for ChunkContainment {
    fn id(&self) -> &'static str {
        lint_ids::CHUNK_CONTAINMENT
    }
    fn description(&self) -> &'static str {
        "placed words stay within fault-free chunks"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn timer(&self) -> &'static str {
        "analysis.lint.chunk_containment_nanos"
    }
    fn check(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let csize = u64::from(input.fmap.geometry().total_words());
        for id in 0..input.program.num_blocks() {
            let block = input.program.block(id);
            let start = input.layout.block_start(id);
            for k in 0..block.footprint_words() {
                let cache_word = ((start / 4 + u64::from(k)) % csize) as u32;
                if input.fmap.linear_is_faulty(cache_word) {
                    out.push(Diagnostic::deny(
                        self.id(),
                        Location::Block { id, word: Some(k) },
                        format!("placed word maps to defective cache word {cache_word}"),
                    ));
                }
            }
        }
    }
}

/// The layout must be sound under direct-mapped indexing: blocks must
/// not overlap in memory, every implicit fall-through must land exactly
/// on the next block, no block may exceed the cache, and every placement
/// must lie within the image bounds.
struct LayoutSoundness;

impl Lint for LayoutSoundness {
    fn id(&self) -> &'static str {
        lint_ids::LAYOUT_SOUNDNESS
    }
    fn description(&self) -> &'static str {
        "block placements are disjoint, in-bounds and fall-through-adjacent"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn timer(&self) -> &'static str {
        "analysis.lint.layout_soundness_nanos"
    }
    fn check(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let csize = input.fmap.geometry().total_words();
        let end = input.layout.end();
        let mut extents: Vec<(u64, u64, usize)> = Vec::with_capacity(input.program.num_blocks());
        for id in 0..input.program.num_blocks() {
            let block = input.program.block(id);
            let start = input.layout.block_start(id);
            let footprint = block.footprint_words();
            let stop = start + u64::from(footprint) * 4;
            if footprint > csize {
                out.push(Diagnostic::deny(
                    self.id(),
                    Location::Block { id, word: None },
                    format!("footprint of {footprint} words exceeds the {csize}-word cache"),
                ));
            }
            if stop > end {
                out.push(Diagnostic::deny(
                    self.id(),
                    Location::Block { id, word: None },
                    format!("block extends to {stop:#x}, past the image end {end:#x}"),
                ));
            }
            // An implicit fall-through (no explicit jump) must be
            // contiguous with its successor: the linker may only elide a
            // jump when the next block follows immediately.
            let falls_through = !block.explicit_jump
                && matches!(
                    block.terminator,
                    Terminator::FallThrough
                        | Terminator::CondBranch { .. }
                        | Terminator::Call { .. }
                );
            if falls_through {
                let next = input.layout.block_start(id + 1);
                if next != stop {
                    out.push(Diagnostic::deny(
                        self.id(),
                        Location::Block {
                            id,
                            word: Some(footprint),
                        },
                        format!(
                            "fall-through block ends at {stop:#x} but block {} starts at {next:#x}",
                            id + 1
                        ),
                    ));
                }
            }
            extents.push((start, stop, id));
        }
        extents.sort_unstable();
        for pair in extents.windows(2) {
            let (_, stop_a, id_a) = pair[0];
            let (start_b, _, id_b) = pair[1];
            if start_b < stop_a {
                out.push(Diagnostic::deny(
                    self.id(),
                    Location::Block {
                        id: id_b,
                        word: None,
                    },
                    format!("block overlaps block {id_a} in memory at {start_b:#x}"),
                ));
            }
        }
    }
}

/// Blocks unreachable from the entry waste fault-free chunk capacity and
/// usually indicate a transform bug; the walker can never visit them, so
/// this is a warning rather than a hard failure.
struct CfgReachability;

impl Lint for CfgReachability {
    fn id(&self) -> &'static str {
        lint_ids::CFG_REACHABILITY
    }
    fn description(&self) -> &'static str {
        "every placed block is reachable from the entry"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn timer(&self) -> &'static str {
        "analysis.lint.cfg_reachability_nanos"
    }
    fn check(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let cfg = Cfg::build(input.program);
        let dead = cfg.unreachable_blocks();
        // The synthetic benchmarks contain genuinely dead code (functions
        // the entry never calls), so report one summary finding per
        // program rather than one per block.
        if let Some(&first) = dead.first() {
            out.push(Diagnostic::warn(
                self.id(),
                Location::Block {
                    id: first,
                    word: None,
                },
                format!(
                    "{} of {} blocks are unreachable from the entry (first: block {first})",
                    dead.len(),
                    cfg.num_blocks()
                ),
            ));
        }
    }
}

/// Every literal reference must resolve to a placed pool: after
/// `move_literal_pools`, a block that loads literals must carry its own
/// pool words (the shared function pools are gone).
struct LiteralPoolPlacement;

impl Lint for LiteralPoolPlacement {
    fn id(&self) -> &'static str {
        lint_ids::LITERAL_POOL_PLACEMENT
    }
    fn description(&self) -> &'static str {
        "literal references resolve to a placed pool"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn timer(&self) -> &'static str {
        "analysis.lint.literal_pool_placement_nanos"
    }
    fn check(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let pools_moved = input.program.pool_words().iter().all(|&w| w == 0);
        for id in 0..input.program.num_blocks() {
            let block = input.program.block(id);
            let shared = input.program.pool_words()[input.program.function_of(id)];
            if block.literal_refs > 0 && block.literal_words == 0 && (pools_moved || shared == 0) {
                out.push(Diagnostic::deny(
                    self.id(),
                    Location::Block { id, word: None },
                    format!(
                        "block references {} literal(s) but has no pool to load from",
                        block.literal_refs
                    ),
                ));
            }
            if block.literal_words > 0 && block.literal_refs == 0 {
                out.push(Diagnostic::warn(
                    self.id(),
                    Location::Block { id, word: None },
                    format!(
                        "block carries a {}-word literal pool it never references",
                        block.literal_words
                    ),
                ));
            }
        }
    }
}

/// The placed program must be observably trace-equivalent to the
/// pre-transform program (see [`crate::equiv`]). Skipped when the caller
/// did not supply the original.
struct TransformEquivalence;

impl Lint for TransformEquivalence {
    fn id(&self) -> &'static str {
        lint_ids::TRANSFORM_EQUIVALENCE
    }
    fn description(&self) -> &'static str {
        "the transformed program is trace-equivalent to the original"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn timer(&self) -> &'static str {
        "analysis.lint.transform_equivalence_nanos"
    }
    fn check(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        if let Some(original) = input.original {
            if let Err(d) =
                check_trace_equivalence(original, input.program, &EquivConfig::default())
            {
                out.push(d);
            }
        }
    }
}

/// FFW window patterns derived from the fault map must be
/// self-consistent: a frame's stored pattern holds exactly as many words
/// as the frame has fault-free entries, and the remap logic sends each
/// stored word to a distinct fault-free slot (paper Figures 4/5).
struct FfwWindowConsistency;

impl Lint for FfwWindowConsistency {
    fn id(&self) -> &'static str {
        lint_ids::FFW_WINDOW_CONSISTENCY
    }
    fn description(&self) -> &'static str {
        "FFW stored patterns and word remapping agree with the fault map"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn timer(&self) -> &'static str {
        "analysis.lint.ffw_window_consistency_nanos"
    }
    fn check(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        out.extend(check_ffw_windows(input.fmap));
    }
}

/// Checks the FFW window invariants of every frame of `fmap`; the
/// unit-level entry point `dvs-schemes` exercises from its own tests.
///
/// For each frame: the stored pattern produced by
/// [`dvs_schemes::ffw::window_pattern`] for the frame's fault-free
/// capacity must be contiguous, hold exactly that many words, and remap
/// injectively onto the frame's fault-free entries.
pub fn check_ffw_windows(fmap: &FaultMap) -> Vec<Diagnostic> {
    use dvs_schemes::ffw::{remap_word_offset, window_pattern};

    let wpb = fmap.geometry().words_per_block();
    let mut out = Vec::new();
    for frame in fmap.frames() {
        let fault_pattern = fmap.frame_fault_pattern(frame);
        let free = fmap.fault_free_words_in_frame(frame);
        let at = |msg: String| {
            Diagnostic::deny(
                lint_ids::FFW_WINDOW_CONSISTENCY,
                Location::Frame {
                    set: frame.set,
                    way: frame.way,
                },
                msg,
            )
        };
        // The widest window the frame supports, centred mid-block — the
        // pattern the FFW scheme stores for a fully resident line.
        let stored = window_pattern(free, wpb, wpb / 2);
        if stored.count_ones() != free {
            out.push(at(format!(
                "stored pattern {stored:#010b} holds {} words but the frame has {free} \
                 fault-free entries",
                stored.count_ones()
            )));
            continue;
        }
        if stored != 0 {
            let shifted = stored >> stored.trailing_zeros();
            if shifted & (shifted + 1) != 0 {
                out.push(at(format!(
                    "stored pattern {stored:#010b} is not contiguous"
                )));
                continue;
            }
        }
        let mut seen = 0u32;
        for word in 0..wpb {
            let in_window = stored & (1 << word) != 0;
            match remap_word_offset(stored, fault_pattern, word) {
                Some(slot) if in_window => {
                    if slot >= wpb || fault_pattern & (1 << slot) != 0 {
                        out.push(at(format!("word {word} remapped to defective slot {slot}")));
                    } else if seen & (1 << slot) != 0 {
                        out.push(at(format!("two words remapped to slot {slot}")));
                    }
                    seen |= 1 << slot;
                }
                None if !in_window => {}
                Some(_) => out.push(at(format!("word {word} outside the window was remapped"))),
                None => out.push(at(format!("stored word {word} missed in its own window"))),
            }
        }
    }
    out
}

/// The standard lint set, in a fixed order.
pub struct LintRegistry {
    lints: Vec<Box<dyn Lint>>,
}

impl LintRegistry {
    /// All nine standard lints: the six local placement checks plus the
    /// three dataflow verification passes (see [`crate::verify`]).
    pub fn standard() -> Self {
        LintRegistry {
            lints: vec![
                Box::new(ChunkContainment),
                Box::new(LayoutSoundness),
                Box::new(CfgReachability),
                Box::new(LiteralPoolPlacement),
                Box::new(TransformEquivalence),
                Box::new(FfwWindowConsistency),
                Box::new(FaultReachability),
                Box::new(ValueRange),
                Box::new(RemapLiveness),
            ],
        }
    }

    /// Only the three dataflow verification passes, without the local
    /// placement checks ([`LintRegistry::standard`] runs them all).
    pub fn verification() -> Self {
        LintRegistry {
            lints: vec![
                Box::new(FaultReachability),
                Box::new(ValueRange),
                Box::new(RemapLiveness),
            ],
        }
    }

    /// An empty registry to [`LintRegistry::push`] a custom set into.
    pub fn empty() -> Self {
        LintRegistry { lints: Vec::new() }
    }

    /// Adds a lint to the registry.
    pub fn push(&mut self, lint: Box<dyn Lint>) {
        self.lints.push(lint);
    }

    /// The registered lints.
    pub fn lints(&self) -> &[Box<dyn Lint>] {
        &self.lints
    }

    /// Runs every lint over `input`, collecting all findings in registry
    /// order.
    pub fn run(&self, input: &AnalysisInput<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for lint in &self.lints {
            lint.check(input, &mut out);
        }
        out
    }

    /// Like [`LintRegistry::run`], but wraps each lint in a dvs-obs
    /// [`Span`] recording its wall-clock cost under [`Lint::timer`], so
    /// `dvs-profile`'s breakdown table can attribute verification cost
    /// pass by pass. Also bumps the `analysis.lints.findings` counter by
    /// the number of findings each pass produced.
    pub fn run_recorded(
        &self,
        input: &AnalysisInput<'_>,
        recorder: &dyn Recorder,
    ) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for lint in &self.lints {
            let before = out.len();
            {
                let _span = Span::enter(recorder, lint.timer());
                lint.check(input, &mut out);
            }
            let found = out.len().saturating_sub(before);
            if found > 0 {
                recorder.add("analysis.lints.findings", found as u64);
            }
        }
        recorder.add("analysis.lints.runs", 1);
        out
    }
}

impl Default for LintRegistry {
    fn default() -> Self {
        LintRegistry::standard()
    }
}

/// Runs the standard lints over a linked image.
///
/// Pass the pre-transform program as `original` to include the
/// `transform-equivalence` lint.
pub fn analyze_image(
    image: &LinkedImage,
    fmap: &FaultMap,
    original: Option<&Program>,
) -> Vec<Diagnostic> {
    analyze_placement(image.program(), image.layout(), fmap, original)
}

/// [`analyze_image`] with a per-lint [`Span`] recorded through `recorder`
/// (see [`LintRegistry::run_recorded`]).
pub fn analyze_image_recorded(
    image: &LinkedImage,
    fmap: &FaultMap,
    original: Option<&Program>,
    recorder: &dyn Recorder,
) -> Vec<Diagnostic> {
    analyze_placement_recorded(image.program(), image.layout(), fmap, original, recorder)
}

/// Runs the standard lints over an explicit `(program, layout, fault
/// map)` triple — the seam tests use to inject corrupted placements.
pub fn analyze_placement(
    program: &Program,
    layout: &Layout,
    fmap: &FaultMap,
    original: Option<&Program>,
) -> Vec<Diagnostic> {
    LintRegistry::standard().run(&AnalysisInput {
        program,
        layout,
        fmap,
        original,
    })
}

/// [`analyze_placement`] with a per-lint [`Span`] recorded through
/// `recorder` (see [`LintRegistry::run_recorded`]).
pub fn analyze_placement_recorded(
    program: &Program,
    layout: &Layout,
    fmap: &FaultMap,
    original: Option<&Program>,
    recorder: &dyn Recorder,
) -> Vec<Diagnostic> {
    LintRegistry::standard().run_recorded(
        &AnalysisInput {
            program,
            layout,
            fmap,
            original,
        },
        recorder,
    )
}

/// Whether any finding is deny-severity (the CLI's exit-code predicate).
pub fn has_deny(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Deny)
}

#[cfg(test)]
// Tests build one-function programs, whose span list really is `vec![0..n]`.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use dvs_linker::{bbr_transform, BbrLinker};
    use dvs_sram::CacheGeometry;
    use dvs_workloads::Benchmark;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_geom() -> CacheGeometry {
        CacheGeometry::new(4096, 4, 32).unwrap() // 1024 words
    }

    fn linked(seed: u64, p_word: f64) -> (Program, LinkedImage, FaultMap) {
        let wl = Benchmark::Crc32.build(seed);
        let original = wl.program().clone();
        let t = bbr_transform(&original, 8);
        let fmap = FaultMap::sample(&small_geom(), p_word, &mut StdRng::seed_from_u64(seed));
        let image = BbrLinker::new(small_geom()).link(&t, &fmap).unwrap();
        (original, image, fmap)
    }

    #[test]
    fn clean_image_has_no_deny_findings() {
        let (original, image, fmap) = linked(7, 0.05);
        let diags = analyze_image(&image, &fmap, Some(&original));
        assert!(!has_deny(&diags), "unexpected findings: {diags:?}");
    }

    #[test]
    fn corrupted_placement_is_caught() {
        let (original, image, fmap) = linked(11, 0.05);
        let (program, layout) = image.into_parts();
        // Shift block 0 onto the first defective cache word.
        let faulty = fmap.iter_faulty_linear().next().expect("sampled faults");
        let mut starts: Vec<u64> = (0..layout.num_blocks())
            .map(|id| layout.block_start(id))
            .collect();
        starts[0] = u64::from(faulty) * 4;
        let end = layout.end().max(starts[0] + 4096);
        let bad = Layout::from_parts(starts, vec![0; program.functions().len()], end);
        let diags = analyze_placement(&program, &bad, &fmap, Some(&original));
        assert!(has_deny(&diags));
        assert!(
            diags.iter().any(|d| d.lint == lint_ids::CHUNK_CONTAINMENT),
            "chunk-containment must flag the mis-placed block: {diags:?}"
        );
    }

    #[test]
    fn ffw_windows_are_consistent_on_sampled_maps() {
        for seed in 0..4 {
            let fmap = FaultMap::sample(&small_geom(), 0.15, &mut StdRng::seed_from_u64(seed));
            let diags = check_ffw_windows(&fmap);
            assert!(diags.is_empty(), "seed {seed}: {diags:?}");
        }
    }

    #[test]
    fn registry_lists_all_standard_lints() {
        let reg = LintRegistry::standard();
        let ids: Vec<&str> = reg.lints().iter().map(|l| l.id()).collect();
        assert_eq!(
            ids,
            vec![
                lint_ids::CHUNK_CONTAINMENT,
                lint_ids::LAYOUT_SOUNDNESS,
                lint_ids::CFG_REACHABILITY,
                lint_ids::LITERAL_POOL_PLACEMENT,
                lint_ids::TRANSFORM_EQUIVALENCE,
                lint_ids::FFW_WINDOW_CONSISTENCY,
                lint_ids::VERIFY_FAULT_REACH,
                lint_ids::VERIFY_VALUE_RANGE,
                lint_ids::VERIFY_REMAP_LIVENESS,
            ]
        );
        for lint in reg.lints() {
            assert!(!lint.description().is_empty());
            assert!(!lint.timer().is_empty());
            let _ = lint.severity();
        }
    }

    #[test]
    fn verification_registry_holds_only_the_dataflow_passes() {
        let reg = LintRegistry::verification();
        let ids: Vec<&str> = reg.lints().iter().map(|l| l.id()).collect();
        assert_eq!(
            ids,
            vec![
                lint_ids::VERIFY_FAULT_REACH,
                lint_ids::VERIFY_VALUE_RANGE,
                lint_ids::VERIFY_REMAP_LIVENESS,
            ]
        );
    }

    #[test]
    fn recorded_run_matches_plain_run_and_times_every_lint() {
        use dvs_obs::MetricsRegistry;
        let (original, image, fmap) = linked(5, 0.05);
        let plain = analyze_image(&image, &fmap, Some(&original));
        let reg = MetricsRegistry::new();
        let recorded = analyze_image_recorded(&image, &fmap, Some(&original), &reg);
        assert_eq!(plain, recorded, "recorder must not change findings");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("analysis.lints.runs"), 1);
        for lint in LintRegistry::standard().lints() {
            assert_eq!(
                snap.timers.get(lint.timer()).map(|t| t.count),
                Some(1),
                "missing span for {}",
                lint.id()
            );
        }
    }
}

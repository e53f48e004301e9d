//! `dvs-verify` — lints, dataflow fault-safety proofs and bounded model
//! checking over linked images.
//!
//! For every benchmark and fault model, `dvs-verify` grows fault chains
//! down the incremental [`dvs_sram::FaultChain`] voltage ladder: one chain
//! per map seed, advanced monotonically from 760 mV to the deepest
//! requested point, re-linking each benchmark at every requested rung and
//! running the full lint registry over the image: the local placement
//! checks (chunk containment, layout soundness, transform equivalence,
//! ...) and the verification passes (`verify/fault-reach`,
//! `verify/value-range`, `verify/remap-liveness`). The fault sets nest by
//! construction, so a finding at a lower rung but not above it localises
//! the voltage where an image first becomes unsafe. Maps the linker
//! cannot place (expected at deep voltage) are reported as `link-failure`
//! warnings: the lints judge successful links only.
//!
//! With `--bounded-depth N` (default 4, `0` disables) the bounded model
//! checker additionally proves the scheme state machines' LRU-stack,
//! inclusion and clean-map-equivalence invariants over every access
//! sequence to depth `N` on a tiny geometry (`verify/bounded-model`).
//!
//! Exit codes: `0` no deny finding, `1` at least one deny finding, `2`
//! usage error.

use std::process::ExitCode;

use dvs_analysis::{AnalysisInput, LintMeta, LintRegistry, Report, Severity};
use dvs_bench::sweep::{Flag, SweepArgs, Tool};
use dvs_diff::bounded_suite;
use dvs_linker::{
    adaptive_max_block_words, bbr_transform, lint_ids, BbrLinker, Diagnostic, Location,
};
use dvs_sram::{CacheGeometry, FaultMap, FaultModel};
use dvs_workloads::Layout;

const TOOL: Tool = Tool {
    name: "dvs-verify",
    usage: "usage: dvs-verify [options]
  --voltages LIST   comma-separated mV points (default 760,600,480,400)
  --benchmarks LIST comma-separated benchmark names (default: all ten)
  --maps N          fault chains grown per benchmark and model (default 2)
  --seed N          base RNG seed for the fault chains (default 0)
  --models LIST     fault models the chains sample under: iid, rowcol,
                    clustered (default iid)
  --bounded-depth N bounded model-checking depth, 0 to skip (default 4)
  --json            emit one dvs-verify/1 JSON document instead of text
  --inject-misplacement
                    corrupt one placement per image (self-test: the
                    lints and proofs must report it and the exit code
                    must be 1)
  --help            print this help
exit: 0 no deny finding, 1 a deny finding, 2 usage error",
    flags: &[
        Flag::Benchmarks,
        Flag::Voltages,
        Flag::Models,
        Flag::Maps,
        Flag::Seed,
        Flag::Json,
    ],
};

/// Versioned schema tag of the `--json` envelope.
const VERIFY_SCHEMA: &str = "dvs-verify/1";

/// Moves block 0 onto the first defective cache word (or one word past
/// the image end on a fault-free map), so the lints and proofs have a
/// real violation to find.
fn corrupt_layout(layout: &Layout, fmap: &FaultMap, functions: usize) -> Layout {
    let mut starts: Vec<u64> = (0..layout.num_blocks())
        .map(|id| layout.block_start(id))
        .collect();
    let target = fmap
        .iter_faulty_linear()
        .next()
        .map_or(layout.end() / 4 + 1, u64::from);
    starts[0] = target * 4;
    let end = layout.end().max(starts[0] + 4);
    Layout::from_parts(starts, vec![0; functions], end)
}

fn run(args: &SweepArgs, bounded_depth: usize, inject_misplacement: bool) -> Vec<Report> {
    let geom = CacheGeometry::dsn_l1();
    let registry = LintRegistry::standard();
    let mut reports = Vec::new();
    for bench in &args.benchmarks {
        let wl = bench.build(args.seed);
        for &model in &args.models {
            // Subjects name the model only when the sweep spans several.
            let tag = if args.models.len() > 1 {
                format!("{}/", model.name())
            } else {
                String::new()
            };
            for map in 0..args.maps {
                args.walk_chain(&geom, model, map, |mv, p_word, fmap| {
                    let subject = format!("{}@{mv}mV/{tag}chain{map}", bench.name());
                    let transformed = bbr_transform(wl.program(), adaptive_max_block_words(p_word));
                    let diagnostics = match BbrLinker::new(geom).link(&transformed, fmap) {
                        Ok(image) => {
                            let (program, layout) = image.into_parts();
                            let layout = if inject_misplacement {
                                corrupt_layout(&layout, fmap, program.functions().len())
                            } else {
                                layout
                            };
                            registry.run(&AnalysisInput {
                                program: &program,
                                layout: &layout,
                                fmap,
                                original: Some(wl.program()),
                            })
                        }
                        Err(e) => vec![Diagnostic::warn(
                            lint_ids::LINK_FAILURE,
                            Location::Image,
                            format!("linker gave up at {mv} mV: {e}"),
                        )],
                    };
                    reports.push(Report::new(subject, diagnostics));
                });
            }
        }
    }
    if bounded_depth > 0 {
        reports.push(Report::new(
            format!("schemes@bounded/depth{bounded_depth}"),
            bounded_suite(bounded_depth),
        ));
    }
    reports
}

fn lint_metas(bounded_depth: usize) -> Vec<LintMeta> {
    let mut metas: Vec<LintMeta> = LintRegistry::standard()
        .lints()
        .iter()
        .map(|l| LintMeta {
            name: l.id(),
            level: l.severity().name(),
        })
        .collect();
    metas.push(LintMeta {
        name: lint_ids::LINK_FAILURE,
        level: Severity::Warn.name(),
    });
    if bounded_depth > 0 {
        metas.push(LintMeta {
            name: lint_ids::VERIFY_BOUNDED_MODEL,
            level: Severity::Deny.name(),
        });
    }
    metas
}

fn main() -> ExitCode {
    let mut bounded_depth = 4;
    let mut inject_misplacement = false;
    let defaults = SweepArgs {
        models: vec![FaultModel::Iid],
        ..SweepArgs::default()
    };
    let parsed = TOOL.parse(defaults, |flag, values| {
        match flag {
            "--bounded-depth" => bounded_depth = values.number(flag)?,
            "--inject-misplacement" => inject_misplacement = true,
            _ => return Ok(false),
        }
        Ok(true)
    });
    let args = match parsed {
        Ok(args) => args,
        Err(code) => return code,
    };
    let reports = run(&args, bounded_depth, inject_misplacement);
    args.report(VERIFY_SCHEMA, &lint_metas(bounded_depth), &reports)
}

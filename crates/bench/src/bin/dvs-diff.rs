//! `dvs-diff` — differential and metamorphic correctness sweep.
//!
//! Runs all four paired-run oracle families and all three metamorphic
//! sweeps from `dvs-diff` (the crate) over bench10 and the requested
//! voltage points:
//!
//! * clean-map equivalence, at stream level (one synthetic stream per
//!   benchmark) and end-to-end through the evaluator at 760 mV;
//! * SA/DM mode agreement (BBR vs one-way conventional, plus the
//!   `CacheCore` mode round-trip freshness check);
//! * persistence identity (a two-voltage sweep run plain vs
//!   store-backed vs store-reloaded vs size-capped — eviction mid-sweep
//!   and a rerun over the evicted store — vs recorder-on vs
//!   arena-disabled);
//! * Wilkerson capacity halving;
//! * packed-vs-reference equivalence of the word-packed hot-path queries
//!   (popcounts, per-frame fault masks, word-chunked occupancy scans);
//! * voltage monotonicity of word misses over the requested sweep,
//!   window-growth containment, and miss-stability under fault addition.
//!
//! Any divergence is shrunk to a minimal reproducer and rendered into
//! the diagnostic as a ready-to-paste `#[test]`.
//!
//! Exit codes: `0` no deny finding, `1` at least one deny-severity
//! finding, `2` usage error.

use std::process::ExitCode;

use dvs_analysis::Report;
use dvs_bench::sweep::{Flag, SweepArgs, Tool};
use dvs_diff::{metamorphic, oracles, LINTS};

const TOOL: Tool = Tool {
    name: "dvs-diff",
    usage: "usage: dvs-diff [options]
  --voltages LIST   comma-separated mV points for the monotonicity sweep
                    (default 760,600,480,400)
  --benchmarks LIST comma-separated benchmark names (default: all ten)
  --models LIST     comma-separated fault models for the model-dependent
                    families (iid, rowcol, clustered; default: all three)
  --seed N          base seed for streams and fault maps (default 0)
  --stream-len N    accesses per synthetic stream (default 2000)
  --store-max-bytes N
                    store size cap for the capped persistence variants
                    (default 1: evict after every save)
  --json            emit one dvs-diff/1 JSON document instead of text
  --inject-divergence
                    plant a fault under word-disable and diff it against
                    the clean run (self-test: the harness must flag it,
                    shrink it, and exit 1)
  --help            print this help
exit: 0 no deny finding, 1 a deny finding, 2 usage error",
    flags: &[
        Flag::Benchmarks,
        Flag::Voltages,
        Flag::Models,
        Flag::Seed,
        Flag::Json,
    ],
};

/// Versioned schema tag of the `--json` envelope.
const DIFF_SCHEMA: &str = "dvs-diff/1";

/// The tool's own flags.
struct Options {
    stream_len: usize,
    store_max_bytes: u64,
    inject_divergence: bool,
}

fn run(args: &SweepArgs, opts: &Options) -> Vec<Report> {
    let mut reports = Vec::new();

    // Stream-level families, one seed (and therefore one synthetic
    // stream) per benchmark so the sweep covers ten distinct streams.
    for (i, bench) in args.benchmarks.iter().enumerate() {
        let seed = args.seed.wrapping_add(i as u64);
        reports.push(Report::new(
            format!("{}@clean-map/seed{seed}", bench.name()),
            oracles::clean_map_equivalence(seed, opts.stream_len),
        ));
        reports.push(Report::new(
            format!("{}@sa-dm/seed{seed}", bench.name()),
            oracles::sa_dm_equivalence(seed, opts.stream_len),
        ));
        reports.push(Report::new(
            format!("{}@capacity-halving/seed{seed}", bench.name()),
            oracles::wilkerson_halving(seed, opts.stream_len),
        ));
        reports.push(Report::new(
            format!("{}@fault-addition/seed{seed}", bench.name()),
            metamorphic::fault_addition(seed, opts.stream_len),
        ));
        for &model in &args.models {
            reports.push(Report::new(
                format!(
                    "{}@voltage-monotone/{}/seed{seed}",
                    bench.name(),
                    model.name()
                ),
                metamorphic::voltage_monotonicity(seed, &args.voltages, opts.stream_len, model),
            ));
        }
    }

    // Geometry-exhaustive window containment, once.
    reports.push(Report::new(
        "ffw@window-growth".to_string(),
        metamorphic::window_growth(),
    ));

    // Packed-vs-reference: the word-packed hot-path queries against
    // their retained per-bit references, on maps drawn down the ladder
    // under each requested fault model.
    for &model in &args.models {
        reports.push(Report::new(
            format!(
                "hotpath@packed-reference/{}/seed{}",
                model.name(),
                args.seed
            ),
            oracles::packed_reference_equivalence(args.seed, &args.voltages, model),
        ));
    }

    // End-to-end families through the evaluator: clean equivalence at
    // 760 mV over the real bench10 workloads (once per fault model — a
    // yield-clean point must be clean under every injection backend),
    // and persistence identity for the first requested benchmark.
    for &model in &args.models {
        reports.push(Report::new(
            format!("evaluator@clean-760mV/{}", model.name()),
            oracles::evaluator_clean_equivalence(&args.benchmarks, args.seed, model),
        ));
    }
    reports.push(Report::new(
        format!("evaluator@persistence/{}", args.benchmarks[0].name()),
        oracles::persistence_identity(
            args.benchmarks[0],
            args.seed,
            args.models[0],
            Some(opts.store_max_bytes),
        ),
    ));

    if opts.inject_divergence {
        reports.push(Report::new(
            "self-test@injected-divergence".to_string(),
            oracles::injected_divergence(),
        ));
    }
    reports
}

fn main() -> ExitCode {
    let mut opts = Options {
        stream_len: 2_000,
        // One byte evicts after every save: maximal eviction churn for
        // the persistence-identity family.
        store_max_bytes: 1,
        inject_divergence: false,
    };
    let parsed = TOOL.parse(SweepArgs::default(), |flag, values| {
        match flag {
            "--stream-len" => opts.stream_len = values.positive(flag)?,
            "--store-max-bytes" => opts.store_max_bytes = values.number(flag)?,
            "--inject-divergence" => opts.inject_divergence = true,
            _ => return Ok(false),
        }
        Ok(true)
    });
    let args = match parsed {
        Ok(args) => args,
        Err(code) => return code,
    };
    let reports = run(&args, &opts);
    args.report(DIFF_SCHEMA, &LINTS, &reports)
}

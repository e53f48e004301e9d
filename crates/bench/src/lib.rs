//! Shared plumbing for the figure-reproduction binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! `DESIGN.md` for the index) and prints the series as aligned text. The
//! common command-line knobs:
//!
//! * `--maps N` — Monte-Carlo fault maps per operating point;
//! * `--instrs N` — dynamic instructions per trial;
//! * `--seed N` — root seed;
//! * `--paper` — use the paper-scale protocol (slow);
//! * `--store DIR` / `--no-store` — where completed Monte-Carlo cells are
//!   persisted and reloaded across runs (default
//!   `target/dvs-result-store`, overridable via `DVS_RESULT_STORE`).
//!
//! The bench10 × voltage sweep tools (`dvs-verify`, `dvs-diff`,
//! `dvs-model`, `dvs-profile`) share their flags, ladder walk, report
//! envelope and exit codes through [`sweep`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use dvs_core::{EvalConfig, Evaluator, ResultStore};

pub mod profile;
pub mod sweep;

/// Parsed command-line options for the figure binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Evaluation-scale configuration.
    pub cfg: EvalConfig,
    /// Print per-benchmark rows instead of the pooled aggregate
    /// (the paper's figures group bars per benchmark).
    pub split: bool,
    /// Persist/reload Monte-Carlo cells on disk (`--no-store` disables).
    pub store: bool,
    /// Store directory override (`--store DIR`); `None` means the
    /// default ([`ResultStore::default_dir`]).
    pub store_dir: Option<PathBuf>,
}

/// Parses the common flags from `std::env::args`.
///
/// # Panics
///
/// Panics with a usage message on unknown flags or malformed values.
pub fn parse_args() -> Options {
    let mut cfg = EvalConfig::standard();
    let mut split = false;
    let mut store = true;
    let mut store_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> u64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} expects an integer value"))
        };
        match arg.as_str() {
            "--maps" => cfg.maps = take("--maps"),
            "--instrs" => cfg.trace_instrs = take("--instrs") as usize,
            "--seed" => cfg.seed = take("--seed"),
            "--threads" => cfg.threads = take("--threads") as usize,
            "--paper" => {
                cfg = EvalConfig {
                    seed: cfg.seed,
                    ..EvalConfig::paper_scale()
                }
            }
            "--split" => split = true,
            "--no-store" => store = false,
            "--store" => {
                store_dir =
                    Some(PathBuf::from(args.next().unwrap_or_else(|| {
                        panic!("--store expects a directory path")
                    })));
            }
            "--help" | "-h" => {
                println!(
                    "options: [--maps N] [--instrs N] [--seed N] [--threads N] [--paper] \
                     [--split] [--store DIR] [--no-store]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }
    Options {
        cfg,
        split,
        store,
        store_dir,
    }
}

/// Builds the evaluator the options describe: store-backed unless
/// `--no-store` was given. A store that cannot be opened degrades to
/// recomputation with a warning, never to an abort.
pub fn evaluator(opts: &Options) -> Evaluator {
    let eval = Evaluator::new(opts.cfg);
    if !opts.store {
        return eval;
    }
    let dir = opts
        .store_dir
        .clone()
        .unwrap_or_else(ResultStore::default_dir);
    match ResultStore::open(&dir) {
        Ok(store) => eval.with_store(store),
        Err(e) => {
            eprintln!(
                "warning: result store {} unavailable ({e}); recomputing",
                dir.display()
            );
            eval
        }
    }
}

/// Renders a unit-interval histogram as a text bar chart.
pub fn render_histogram(title: &str, hist: &[f64]) -> String {
    let mut out = format!("  {title}\n");
    let bins = hist.len();
    for (i, &frac) in hist.iter().enumerate() {
        let lo = i as f64 / bins as f64;
        let hi = (i + 1) as f64 / bins as f64;
        let bar = "#".repeat((frac * 50.0).round() as usize);
        out.push_str(&format!(
            "    [{lo:.1}-{hi:.1})  {pct:5.1}% {bar}\n",
            pct = frac * 100.0
        ));
    }
    out
}

/// Formats a mean ± 95 % CI pair.
pub fn fmt_ci(s: &dvs_sram::stats::Summary) -> String {
    format!("{:7.3} ±{:.3}", s.mean, s.ci95_half)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_sram::stats::Summary;

    #[test]
    fn histogram_renders_each_bin() {
        let out = render_histogram("t", &[0.5, 0.5]);
        assert_eq!(out.lines().count(), 3);
        assert!(out.contains("50.0%"));
    }

    #[test]
    fn ci_formatting() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        let txt = fmt_ci(&s);
        assert!(txt.contains("2.000"));
        assert!(txt.contains('±'));
    }
}

//! `dvs-profile` — per-subsystem observability profile of the Monte-Carlo
//! pipeline across the DVFS sweep.
//!
//! For each operating point the tool runs the selected benchmarks under
//! one scheme with a metrics recorder attached (plus a BIST pass at that
//! point's failure rate) and prints a per-subsystem breakdown table, or
//! the full metrics as JSON with `--json`.
//!
//! Exit codes: `0` success, `1` the `--selfcheck` validation failed, `2`
//! usage error.

use std::process::ExitCode;

use dvs_bench::profile::{run_profile, ProfileOptions};
use dvs_bench::sweep::{self, Flag, SweepArgs, Tool};
use dvs_sram::MilliVolts;

const TOOL: Tool = Tool {
    name: "dvs-profile",
    usage: "usage: dvs-profile [options]
  --benchmarks LIST  comma-separated benchmark names (default: all ten)
  --voltages LIST    comma-separated operating points in mV (default: 760,560,520,480,440,400)
  --maps N           fault maps per cell (default 3)
  --trace-instrs N   dynamic instructions per trial (default 25000)
  --seed N           root seed (default 42)
  --threads N        worker threads (default 4)
  --json             emit machine-readable JSON instead of the table
  --no-timings       omit volatile wall-clock sections from the JSON
  --selfcheck        validate the JSON rendering before printing
  -h, --help         this text
exit: 0 success, 1 self-check failed, 2 usage error",
    flags: &[
        Flag::Benchmarks,
        Flag::Voltages,
        Flag::Maps,
        Flag::Seed,
        Flag::Json,
    ],
};

/// Parses `args` into the profile to run; `Ok(None)` means `--help`.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<ProfileOptions>, String> {
    let mut opts = ProfileOptions::default();
    let defaults = SweepArgs {
        benchmarks: opts.benchmarks.clone(),
        voltages: opts.voltages.iter().map(|v| v.get()).collect(),
        maps: opts.cfg.maps,
        seed: opts.cfg.seed,
        ..SweepArgs::default()
    };
    let parsed = TOOL.parse_from(args, defaults, |flag, values| {
        match flag {
            "--trace-instrs" => opts.cfg.trace_instrs = values.number(flag)?,
            "--threads" => opts.cfg.threads = values.number(flag)?,
            "--no-timings" => opts.include_timings = false,
            "--selfcheck" => opts.selfcheck = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let Some(args) = parsed else {
        return Ok(None);
    };
    opts.voltages = args.voltages.iter().copied().map(MilliVolts::new).collect();
    opts.benchmarks = args.benchmarks;
    opts.cfg.maps = args.maps;
    opts.cfg.seed = args.seed;
    opts.json = args.json;
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let opts = match TOOL.resolve(parse(std::env::args().skip(1))) {
        Ok(opts) => opts,
        Err(code) => return code,
    };

    eprintln!(
        "profiling {} benchmarks x {} voltages x {} maps ({} instrs/trial)...",
        opts.benchmarks.len(),
        opts.voltages.len(),
        opts.cfg.maps,
        opts.cfg.trace_instrs
    );
    let report = run_profile(&opts);
    if opts.selfcheck {
        if let Err(e) = report.validate() {
            eprintln!("error: self-check failed: {e}");
            return sweep::exit(true);
        }
        eprintln!("self-check passed");
    }
    if opts.json {
        println!("{}", report.to_json(opts.include_timings));
    } else {
        print!("{}", report.to_text());
    }
    sweep::exit(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_workloads::Benchmark;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn parses_full_flag_set() {
        let opts = parse(argv(
            "--benchmarks crc32,bzip2 --voltages 760,400 --maps 5 --seed 7 \
             --trace-instrs 1000 --threads 2 --json --no-timings --selfcheck",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(opts.benchmarks, vec![Benchmark::Crc32, Benchmark::Bzip2]);
        assert_eq!(
            opts.voltages,
            vec![MilliVolts::new(760), MilliVolts::new(400)]
        );
        assert_eq!(opts.cfg.maps, 5);
        assert_eq!(opts.cfg.seed, 7);
        assert_eq!(opts.cfg.trace_instrs, 1000);
        assert_eq!(opts.cfg.threads, 2);
        assert!(opts.json && !opts.include_timings && opts.selfcheck);
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse(argv("--bogus")).is_err());
        assert!(parse(argv("--benchmarks nosuch")).is_err());
        assert!(parse(argv("--voltages abc")).is_err());
        assert!(parse(argv("--maps")).is_err());
        assert!(parse(argv("--threads x")).is_err());
        assert!(parse(argv("--trace-instrs")).is_err());
        // dvs-profile sweeps one fault model and takes no --models.
        assert!(parse(argv("--models iid")).is_err());
    }

    #[test]
    fn defaults_cover_the_full_sweep() {
        let opts = parse(argv("")).unwrap().unwrap();
        let base = ProfileOptions::default();
        assert_eq!(opts.benchmarks.len(), 10);
        assert_eq!(opts.voltages.len(), 6);
        assert_eq!(opts.voltages, base.voltages);
        assert_eq!(
            (
                opts.cfg.maps,
                opts.cfg.seed,
                opts.cfg.trace_instrs,
                opts.cfg.threads
            ),
            (
                base.cfg.maps,
                base.cfg.seed,
                base.cfg.trace_instrs,
                base.cfg.threads
            )
        );
        assert!(!opts.json);
        assert!(opts.include_timings);
        assert!(!opts.selfcheck);
        assert!(parse(argv("--maps 3 --help")).unwrap().is_none());
    }
}

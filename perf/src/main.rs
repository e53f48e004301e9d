//! `dvs-perf` — the repository benchmark.
//!
//! One workload per process; every input derives from `--seed`; the last
//! stdout line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones). See `perf/README.md`.

mod compare;
mod daemon;
mod http;
mod replay;
mod report;
mod service;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::BenchmarkSpec;
use workloads::{Ctx, Kind, Scale};

/// The benchmark's declaration, built in: every result line must carry
/// exactly the metrics it declares, from whatever directory the
/// benchmark is started.
const SPEC: &str = include_str!("../../BENCHMARK.json");

const USAGE: &str = "usage:
  dvs-perf --workload W --seed N [--seconds S] [--trace 0|1] [options]
      one workload; the last stdout line is its result
  dvs-perf run --seed N [--seconds S] [--trace] [options]
      every workload, each in its own process; one JSON line per workload
  dvs-perf compare PARENT.jsonl CHANGE.jsonl [--benchmark FILE]
      judge a change against its parent from `run` output (>= 10 pairs),
      by the bounds in FILE (default: the BENCHMARK.json built in)
options:
  --serve-bin PATH   the dvs-serve executable (default: beside dvs-perf)
  --out-dir DIR      stores and trace files (default: target/perf)
  --threads N        engine threads of in-process runs (default 2)
  --smoke            tiny workload sizes, for tests
workloads: sweep_fig10, ladder_yield, serve_mixed, cluster_campaign";

/// Parsed options of a measuring invocation.
struct Options {
    workload: Option<Kind>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    serve_bin: Option<PathBuf>,
    out_dir: PathBuf,
    threads: usize,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: None,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        out_dir: PathBuf::from("target/perf"),
        threads: workloads::ENGINE_THREADS,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload = Some(Kind::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => o.seed = Some(value()?.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds expects a number in (0, 60]")?;
            }
            "--trace" => {
                // `--trace 0|1` for one workload; bare `--trace` for `run`.
                o.trace = match it.as_slice().first().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--serve-bin" => o.serve_bin = Some(PathBuf::from(value()?)),
            "--out-dir" => o.out_dir = PathBuf::from(value()?),
            "--threads" => {
                o.threads = value()?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--threads expects a positive integer")?;
            }
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

fn ctx(o: &Options, kind: Kind) -> Result<Ctx, String> {
    let serve_bin = match &o.serve_bin {
        Some(p) => p.clone(),
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate dvs-perf: {e}"))?
            .with_file_name("dvs-serve"),
    };
    Ok(Ctx {
        kind,
        seed: o.seed.ok_or("--seed is required")?,
        seconds: o.seconds,
        scale: if o.smoke {
            Scale::smoke()
        } else {
            Scale::full()
        },
        full_scale: !o.smoke,
        threads: o.threads,
        serve_bin,
        out_dir: o.out_dir.clone(),
    })
}

/// Measures one workload and prints its result line. Exit code 1 when a
/// check failed (the line is still printed, with `"correct":false`).
fn one(o: &Options) -> Result<ExitCode, String> {
    let kind = o.workload.ok_or("--workload is required")?;
    let ctx = ctx(o, kind)?;
    eprintln!(
        "dvs-perf: {} seed {} for {} s, host {}",
        kind.name(),
        ctx.seed,
        ctx.seconds,
        daemon::host_facts()
    );
    let outcome = if o.trace {
        replay::traced(&ctx)?
    } else {
        workloads::measure(&ctx)?
    };
    BenchmarkSpec::parse(SPEC)?.check(&outcome, o.trace)?;
    println!("{}", outcome.to_json());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload in its own child process (so peak RSS is per
/// workload) and prints one JSON line per workload.
fn run_all(o: &Options, args: &[String]) -> Result<ExitCode, String> {
    let seed = o.seed.ok_or("--seed is required")?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate dvs-perf: {e}"))?;
    let host = daemon::host_facts();
    let mut status = ExitCode::SUCCESS;
    for kind in Kind::ALL {
        let mut child_args: Vec<String> = args.to_vec();
        child_args.retain(|a| a != "--trace");
        child_args.extend([
            "--workload".into(),
            kind.name().into(),
            "--trace".into(),
            if o.trace { "1" } else { "0" }.into(),
        ]);
        let out = Command::new(&exe)
            .args(&child_args)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let Some(result) = stdout.lines().last().filter(|l| l.starts_with('{')) else {
            eprintln!("dvs-perf: {} printed no result", kind.name());
            status = ExitCode::FAILURE;
            continue;
        };
        if !out.status.success() {
            status = ExitCode::FAILURE;
        }
        println!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{},\"host\":{host},\"result\":{result}}}",
            kind.name(),
            o.trace
        );
        std::io::stdout().flush().ok();
    }
    Ok(status)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("run") => parse(&args[1..]).and_then(|o| run_all(&o, &args[1..])),
        _ => parse(&args).and_then(|o| one(&o)),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dvs-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut spec_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            spec_path = Some(PathBuf::from(
                it.next().ok_or("--benchmark expects a file")?,
            ));
        } else {
            files.push(PathBuf::from(a));
        }
    }
    let [parent, change] = files.as_slice() else {
        return Err(format!("compare takes two files\n{USAGE}"));
    };
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let spec = match spec_path {
        Some(p) => BenchmarkSpec::parse(&read(&p)?)?,
        None => BenchmarkSpec::parse(SPEC)?,
    };
    let report = compare::compare(&spec, &read(parent)?, &read(change)?)?;
    print!("{}", report.text);
    Ok(if report.regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

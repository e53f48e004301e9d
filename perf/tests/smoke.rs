//! Every workload at smoke sizes, untraced and traced, through the real
//! binaries: each must emit exactly the metrics `BENCHMARK.json` declares,
//! in their units, with no failed operation.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use dvs_obs::json::Value;

const WORKLOADS: [&str; 4] = [
    "sweep_fig10",
    "ladder_yield",
    "serve_mixed",
    "cluster_campaign",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
        .to_path_buf()
}

/// Builds `dvs-serve` once, into the target directory and profile this
/// test binary came from.
fn serve_bin() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let perf = PathBuf::from(env!("CARGO_BIN_EXE_dvs-perf"));
        let profile_dir = perf.parent().expect("binary directory");
        let target = profile_dir.parent().expect("target directory");
        let mut cargo = Command::new(env!("CARGO"));
        cargo
            .args([
                "build",
                "--offline",
                "--quiet",
                "-p",
                "dvs-serve",
                "--manifest-path",
            ])
            .arg(repo_root().join("Cargo.toml"))
            .arg("--target-dir")
            .arg(target);
        if profile_dir.file_name().is_some_and(|n| n == "release") {
            cargo.arg("--release");
        }
        let status = cargo.status().expect("run cargo");
        assert!(status.success(), "building dvs-serve failed");
        profile_dir.join("dvs-serve")
    })
}

fn perf(args: &[&str]) -> Output {
    let out_dir = std::env::temp_dir().join(format!("dvs-perf-smoke-{}", std::process::id()));
    Command::new(env!("CARGO_BIN_EXE_dvs-perf"))
        .current_dir(repo_root())
        .args(args)
        .args(["--smoke", "--seconds", "1"])
        .arg("--serve-bin")
        .arg(serve_bin())
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("run dvs-perf")
}

/// The declared metrics of one kind: name → unit.
fn declared(kind: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = Value::parse(&text).expect("BENCHMARK.json parses");
    spec.get(kind)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn result_line(out: &Output, what: &str) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{what} failed:\n{stderr}\n{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    Value::parse(last).unwrap_or_else(|e| panic!("{what}: last line {last:?}: {e}"))
}

#[test]
fn every_workload_emits_every_declared_metric_and_fails_nothing() {
    for (trace, kind) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(kind);
        for w in WORKLOADS {
            let what = format!("{w} --trace {trace}");
            let out = perf(&["--workload", w, "--seed", "7", "--trace", trace]);
            let line = result_line(&out, &what);
            assert!(
                matches!(line.get("correct"), Some(Value::Bool(true))),
                "{what}"
            );
            assert_eq!(
                line.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{what}"
            );
            assert!(
                line.get("attempted").and_then(Value::as_f64) >= Some(1.0),
                "{what}"
            );
            let metrics = line
                .get("metrics")
                .and_then(Value::as_obj)
                .expect("metrics");
            assert_eq!(metrics.len(), want.len(), "{what}: {:?}", metrics.keys());
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{what}: no {name}"));
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                assert!(m
                    .get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite));
            }
        }
    }
}

#[test]
fn sweep_digest_does_not_depend_on_the_thread_count() {
    let digest = |threads: &str| {
        let out = perf(&[
            "--workload",
            "sweep_fig10",
            "--seed",
            "11",
            "--threads",
            threads,
        ]);
        result_line(&out, "sweep_fig10");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        stderr
            .lines()
            .find_map(|l| l.strip_prefix("dvs-perf: sweep_fig10 tally "))
            .expect("the run reports its tally")
            .to_string()
    };
    assert_eq!(digest("1"), digest("2"));
}

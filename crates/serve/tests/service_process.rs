//! Process-level service test: the real `dvs-serve` daemon under the
//! real `dvs-loadgen` client.
//!
//! Warms a result store in-process, launches the daemon on an ephemeral
//! port against that store, hammers `GET /v1/results` with the
//! closed-loop load generator (the store answers every request; nothing
//! recomputes), and finally drains the daemon, which must exit 0.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use dvs_cluster::HttpClient;
use dvs_core::{EvalConfig, Evaluator, ExperimentPlan, ResultStore, Scheme};
use dvs_sram::MilliVolts;
use dvs_workloads::Benchmark;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvs-svc-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The daemon's base engine configuration, mirrored by CLI flags below.
fn base_cfg() -> EvalConfig {
    EvalConfig {
        trace_instrs: 2_000,
        maps: 2,
        seed: 42,
        threads: 1,
        validate_images: false,
        ..EvalConfig::quick()
    }
}

struct Daemon {
    child: Child,
    addr: String,
}

fn start_daemon(store_dir: &Path) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dvs-serve"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--store",
            store_dir.to_str().expect("UTF-8 temp path"),
            "--threads",
            "4",
            "--engine-threads",
            "1",
            "--trace-instrs",
            "2000",
            "--maps",
            "2",
            "--seed",
            "42",
            "--timeout-ms",
            "5000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dvs-serve spawns");
    // The first stdout line announces the bound address.
    let stdout = child.stdout.as_mut().expect("piped stdout");
    let mut first = String::new();
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("daemon announces its address");
    let addr = first
        .trim()
        .strip_prefix("dvs-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner {first:?}"))
        .to_string();
    Daemon { child, addr }
}

/// One request on a fresh connection through the shared client codec;
/// returns (status, body).
fn request(addr: &str, method: &str, path: &str) -> (u16, String) {
    let reply = HttpClient::new(addr, Duration::from_secs(30))
        .request(method, path, &[], b"")
        .expect("request to daemon");
    let body = reply.text().expect("UTF-8 reply").to_string();
    (reply.status, body)
}

#[test]
fn daemon_serves_warm_store_under_load_and_drains_cleanly() {
    let store_dir = temp_dir("warm");

    // Warm the store in-process with the exact configuration the daemon
    // will run (flags above mirror base_cfg).
    {
        let store = ResultStore::open(&store_dir).expect("store opens");
        let mut ev = Evaluator::new(base_cfg()).with_store(store);
        let plan = ExperimentPlan::for_grid(
            &[Benchmark::Crc32],
            &[Scheme::DefectFree],
            &[MilliVolts::new(760)],
        );
        let results = ev.run_plan(&plan);
        assert!(results[0].1.is_ok(), "warmup cell failed");
    }

    let daemon = start_daemon(&store_dir);

    // The warm cell answers straight from the store.
    let results_path = "/v1/results?benchmark=crc32&scheme=defect-free&vcc_mv=760";
    let (status, body) = request(&daemon.addr, "GET", results_path);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // Closed-loop load: every request must succeed (no transport errors,
    // no 5xx — that is also dvs-loadgen's exit-status contract).
    let requests = if cfg!(debug_assertions) {
        2_000
    } else {
        10_000
    };
    let out = Command::new(env!("CARGO_BIN_EXE_dvs-loadgen"))
        .args([
            "--addr",
            &daemon.addr,
            "--path",
            results_path,
            "--requests",
            &requests.to_string(),
            "--concurrency",
            "4",
        ])
        .output()
        .expect("dvs-loadgen runs");
    let report = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "loadgen failed:\n{report}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(report.contains("errors=0"), "{report}");
    assert!(report.contains("fivexx=0"), "{report}");
    let throughput: f64 = report
        .lines()
        .find_map(|l| l.strip_prefix("throughput="))
        .and_then(|l| l.split(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no throughput line in:\n{report}"));
    // The acceptance bar is 1k req/s on an optimized build; debug builds
    // on a throttled CI core get a sanity floor instead.
    let floor = if cfg!(debug_assertions) {
        100.0
    } else {
        1000.0
    };
    assert!(
        throughput >= floor,
        "throughput {throughput} req/s below {floor}:\n{report}"
    );

    // Metrics counted the load.
    let (status, metrics) = request(&daemon.addr, "GET", "/v1/metrics?format=json");
    assert_eq!(status, 200);
    let parsed = dvs_obs::json::Value::parse(&metrics).expect("metrics JSON parses");
    let served = parsed
        .get("counters")
        .and_then(|c| c.get("serve.responses.2xx"))
        .and_then(dvs_obs::json::Value::as_f64)
        .unwrap_or(0.0);
    assert!(served >= requests as f64, "2xx={served}\n{metrics}");

    // Graceful drain: the daemon answers, flushes, and exits 0.
    let (status, body) = request(&daemon.addr, "POST", "/v1/admin/shutdown");
    assert_eq!(status, 200, "{body}");
    let out = daemon.child.wait_with_output().expect("daemon exits");
    assert!(
        out.status.success(),
        "daemon exit {:?}:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("drained and stopped"), "{stdout}");

    let _ = std::fs::remove_dir_all(&store_dir);
}

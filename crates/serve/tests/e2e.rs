//! End-to-end tests of the campaign server over real TCP.
//!
//! Every test binds port 0, drives the JSON API through the shared
//! `dvs_cluster::http` client, and finishes with a graceful shutdown
//! whose `Server::run` must return `Ok`. A single node is a coordinator
//! whose in-process lane leases and completes every campaign, so each
//! single-node test also runs the lease path. The headline test proves
//! the wire path is lossless: a campaign fetched over HTTP renders
//! byte-identical to a direct `Evaluator::run_plan` with different
//! thread counts and a different store configuration. The refusal tests
//! pin every status the server answers a broken request with; they fall
//! back to a raw `TcpStream` only for bytes no well-formed client sends.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dvs_cluster::http::{HttpClient, MAX_HEADER_BYTES};
use dvs_cluster::{spawn_worker, ClusterConfig, Coordinator, WorkerConfig, WorkerHandle};
use dvs_core::{EvalConfig, Evaluator, ResultStore, Scheme};
use dvs_obs::json::Value;
use dvs_obs::MetricsRegistry;
use dvs_serve::api::{self, CampaignSpec};
use dvs_serve::{Role, Server, ServerConfig};
use dvs_sram::MilliVolts;
use dvs_workloads::Benchmark;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvs-serve-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_base() -> EvalConfig {
    EvalConfig {
        trace_instrs: 3_000,
        maps: 2,
        seed: 42,
        threads: 2,
        validate_images: false,
        ..EvalConfig::quick()
    }
}

struct TestServer {
    addr: SocketAddr,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    /// A node of `role` on [`tiny_base`] admitting `queue_depth` waiting
    /// campaigns.
    fn start(role: Role, queue_depth: usize, store: Option<ResultStore>) -> TestServer {
        let cfg = ServerConfig {
            http_threads: 2,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        };
        let cluster = ClusterConfig {
            queue_depth,
            ..ClusterConfig::default()
        };
        TestServer::start_with(role, cluster, tiny_base(), store, cfg)
    }

    fn start_with(
        role: Role,
        cluster: ClusterConfig,
        base: EvalConfig,
        store: Option<ResultStore>,
        cfg: ServerConfig,
    ) -> TestServer {
        let registry = Arc::new(MetricsRegistry::new());
        let coordinator = Arc::new(Coordinator::new(cluster, base, store, registry.clone()));
        let server =
            Server::bind("127.0.0.1:0", cfg, role, coordinator, registry).expect("bind port 0");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        TestServer { addr, handle }
    }

    /// Requests a graceful shutdown and asserts the server exits `Ok`.
    fn shutdown(self) {
        let (status, _, body) = request(self.addr, "POST", "/v1/admin/shutdown", None);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"draining\":true"), "{body}");
        let run_result = self.handle.join().expect("server thread");
        assert!(run_result.is_ok(), "{run_result:?}");
    }
}

/// One request through the shared client codec on a fresh connection.
/// Returns (status, headers, body).
fn request_bytes(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let reply = HttpClient::new(addr.to_string(), Duration::from_secs(30))
        .request(method, path, headers, body)
        .expect("request to test server");
    (reply.status, reply.headers, reply.body)
}

/// [`request_bytes`] with an optional text body and a text reply.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, Vec<(String, String)>, String) {
    let (status, headers, body) =
        request_bytes(addr, method, path, &[], body.unwrap_or("").as_bytes());
    (
        status,
        headers,
        String::from_utf8(body).expect("UTF-8 reply"),
    )
}

/// Writes `bytes` on a fresh connection, half-closing the write side
/// when asked, and returns the status code of the reply. Only for bytes
/// no well-formed client sends.
fn raw_status(addr: SocketAddr, bytes: &[u8], half_close: bool) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect to test server");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(bytes).expect("write raw bytes");
    if half_close {
        stream.shutdown(Shutdown::Write).expect("half-close");
    }
    // A refusal can leave request bytes unread, so the server's close
    // may reset the connection: keep whatever arrived before the reset.
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    text.split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"))
}

fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Polls one campaign until it reaches a terminal state.
fn poll_terminal(addr: SocketAddr, id: u64, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, _, body) = request(addr, "GET", &format!("/v1/campaigns/{id}"), None);
        assert_eq!(status, 200, "{body}");
        if body.contains("\"state\":\"complete\"")
            || body.contains("\"state\":\"failed\"")
            || body.contains("\"state\":\"cancelled\"")
        {
            return body;
        }
        assert!(Instant::now() < deadline, "campaign {id} stuck: {body}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn submitted_id(body: &str) -> u64 {
    let v = Value::parse(body).expect("submit response is JSON");
    v.get("id").and_then(Value::as_f64).expect("id field") as u64
}

/// The value at `path` in the server's JSON metrics snapshot (0 when
/// absent).
fn metric(addr: SocketAddr, path: &[&str]) -> f64 {
    let (status, _, metrics) = request(addr, "GET", "/v1/metrics?format=json", None);
    assert_eq!(status, 200);
    let snapshot = Value::parse(&metrics).expect("metrics JSON parses");
    path.iter()
        .try_fold(&snapshot, |v, key| v.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// A counter from the server's JSON metrics snapshot (0 when absent).
fn counter(addr: SocketAddr, name: &str) -> f64 {
    metric(addr, &["counters", name])
}

/// Trial settings under which one `scheme` cell at `vcc` takes about
/// `seconds` on this build: two trials longer than the engine's
/// 50,000-instruction template cap, so they walk the CFG as the
/// calibration run does.
fn calibrated_base(scheme: Scheme, vcc: u32, seconds: f64) -> EvalConfig {
    let probe_instrs = 60_000;
    let base = EvalConfig {
        trace_instrs: probe_instrs,
        maps: 2,
        threads: 1,
        validate_images: false,
        ..EvalConfig::quick()
    };
    let mut probe = Evaluator::new(base);
    probe
        .run(Benchmark::Crc32, scheme, MilliVolts::new(vcc))
        .expect("calibration runs");
    let ns_per_instr = probe.stats().sim_nanos / (2 * probe_instrs as u64);
    let instrs = seconds * 1e9 / 2.0 / ns_per_instr.max(1) as f64;
    EvalConfig {
        trace_instrs: (instrs as u64).clamp(60_000, 50_000_000) as usize,
        ..base
    }
}

/// Submits a one-cell crc32 campaign at `base`'s settings and returns
/// its terminal status.
fn run_cell(addr: SocketAddr, scheme: Scheme, vcc: u32, base: &EvalConfig) -> String {
    let spec = format!(
        "{{\"benchmarks\":[\"crc32\"],\"schemes\":[\"{scheme}\"],\"voltages_mv\":[{vcc}],\
         \"maps\":{},\"trace_instrs\":{},\"seed\":42}}",
        base.maps, base.trace_instrs
    );
    let (status, _, body) = request(addr, "POST", "/v1/campaigns", Some(&spec));
    assert_eq!(status, 202, "{body}");
    poll_terminal(addr, submitted_id(&body), Duration::from_secs(60))
}

#[test]
fn campaign_over_tcp_is_byte_identical_to_direct_run() {
    let store_dir = temp_dir("e2e-store");
    let store = ResultStore::open(&store_dir).expect("store opens");
    let server = TestServer::start(Role::Single, 4, Some(store));

    let spec_body = r#"{"benchmarks":["crc32","adpcm"],"schemes":["defect-free","FFW+BBR"],"voltages_mv":[760,600],"seed":11}"#;
    let (status, _, body) = request(server.addr, "POST", "/v1/campaigns", Some(spec_body));
    assert_eq!(status, 202, "{body}");
    let id = submitted_id(&body);

    let status_body = poll_terminal(server.addr, id, Duration::from_secs(300));
    assert!(
        status_body.contains("\"state\":\"complete\""),
        "{status_body}"
    );
    let results_at = status_body.find("\"results\":").expect("results present");
    let over_tcp = &status_body[results_at + "\"results\":".len()..status_body.len() - 1];

    // Reference: a direct in-process run with a DIFFERENT thread count
    // and NO store. Parallelism and persistence must never leak into
    // results, so the rendered bytes must match exactly.
    let direct_base = EvalConfig {
        threads: 1,
        ..tiny_base()
    };
    let spec = CampaignSpec::from_json(spec_body).expect("spec parses");
    let direct = api::render_direct(&spec, &direct_base, None);
    assert!(
        over_tcp == direct,
        "wire results diverge from direct run:\n wire: {over_tcp}\n direct: {direct}"
    );
    assert!(over_tcp.contains("\"status\":\"ok\""), "{over_tcp}");

    // Point queries answer from the store the campaign populated; the
    // rendered cell object is literally a member of the results array.
    let (status, _, cell) = request(
        server.addr,
        "GET",
        "/v1/results?benchmark=crc32&scheme=defect-free&vcc_mv=760&seed=11",
        None,
    );
    assert_eq!(status, 200, "{cell}");
    assert!(direct.contains(&cell), "cell not in results:\n{cell}");

    // The same point query with `Accept: application/octet-stream`
    // returns the cell's canonical binary store image, and the JSON the
    // server rendered is exactly what renders from those bytes.
    let (status, headers, raw) = request_bytes(
        server.addr,
        "GET",
        "/v1/results?benchmark=crc32&scheme=defect-free&vcc_mv=760&seed=11",
        &[("Accept", "application/octet-stream")],
        b"",
    );
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        Some("application/octet-stream")
    );
    let stored = dvs_core::StoredCell::from_bytes(&raw).expect("binary body decodes");
    assert_eq!(
        stored.to_bytes(),
        raw,
        "wire bytes are the canonical encoding"
    );
    let key = dvs_core::CellKey::new(
        dvs_workloads::Benchmark::Crc32,
        dvs_core::Scheme::DefectFree,
        dvs_sram::MilliVolts::new(760),
    );
    assert_eq!(
        api::cell_json(&key, &api::stored_cell_result(&key, stored)),
        cell,
        "binary and JSON content types must describe the same cell"
    );

    // Unknown settings miss without recomputation.
    let (status, _, miss) = request(
        server.addr,
        "GET",
        "/v1/results?benchmark=crc32&scheme=defect-free&vcc_mv=760&seed=999",
        None,
    );
    assert_eq!(status, 404, "{miss}");
    // Malformed queries are refused outright.
    let (status, _, bad) = request(server.addr, "GET", "/v1/results?benchmark=crc32", None);
    assert_eq!(status, 400, "{bad}");

    // The in-process lane leased and completed every computed cell, with
    // no lease lost along the way.
    let cells = spec.plan().len() as f64;
    assert_eq!(counter(server.addr, "cluster.units.completed"), cells);
    assert_eq!(counter(server.addr, "serve.campaigns.completed"), 1.0);
    for name in [
        "cluster.leases.expired",
        "cluster.units.requeued",
        "cluster.leases.stolen",
    ] {
        assert_eq!(counter(server.addr, name), 0.0, "{name}");
    }
    // The coordinator keeps the store's accounting: every cell missed at
    // submit and was saved at completion.
    assert_eq!(counter(server.addr, "engine.store.cell_misses"), cells);
    assert_eq!(counter(server.addr, "engine.store.cell_saves"), cells);
    assert_eq!(
        metric(server.addr, &["volatile", "gauges", "store.cells"]),
        cells
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Submits `quick` to a node whose depth-1 queue is full and checks the
/// refusal: 429, `Retry-After: 1`, a JSON error body, and
/// `serve.rejected` in the metrics.
fn assert_refused_as_full(addr: SocketAddr, quick: &str) {
    let (status, headers, body) = request(addr, "POST", "/v1/campaigns", Some(quick));
    assert_eq!(status, 429, "{body}");
    assert_eq!(header(&headers, "retry-after"), Some("1"), "{headers:?}");
    // The structured error body must parse under the hardened parser,
    // not just contain the right substring.
    let error_body = Value::parse(&body).expect("429 body is valid JSON");
    assert_eq!(
        error_body.get("error").and_then(Value::as_str),
        Some("campaign queue is full"),
        "{body}"
    );
    assert!(counter(addr, "serve.rejected") >= 1.0);
}

const QUICK: &str = r#"{"benchmarks":["crc32"],"schemes":["defect-free"],"voltages_mv":[760],"maps":1,"trace_instrs":2000}"#;

#[test]
fn queue_full_returns_429_with_retry_after_and_metrics() {
    let server = TestServer::start(Role::Single, 1, None);

    // Campaign A is sized to run for a while in the lane: 400
    // fault-seeing trials (a defect-free cell would run one trial, over
    // before the poll below can see it running).
    let slow = r#"{"benchmarks":["crc32"],"schemes":["Wilkerson+"],"voltages_mv":[760],"maps":400,"trace_instrs":20000}"#;
    let (status, _, body) = request(server.addr, "POST", "/v1/campaigns", Some(slow));
    assert_eq!(status, 202, "{body}");
    let id_a = submitted_id(&body);

    // Wait until the lane leases A, so the queue is empty again.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, _, s) = request(server.addr, "GET", &format!("/v1/campaigns/{id_a}"), None);
        if s.contains("\"state\":\"running\"") {
            break;
        }
        assert!(Instant::now() < deadline, "A never started: {s}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // B fills the depth-1 queue; C must bounce with 429 + Retry-After.
    let (status_b, _, body_b) = request(server.addr, "POST", "/v1/campaigns", Some(QUICK));
    assert_eq!(status_b, 202, "{body_b}");
    assert_refused_as_full(server.addr, QUICK);

    // The text rendering serves too.
    let (status, _, text) = request(server.addr, "GET", "/v1/metrics", None);
    assert_eq!(status, 200);
    assert!(text.contains("serve.requests"), "{text}");

    // Drain: A stops at a trial boundary, B never needs to finish, and
    // the server still exits cleanly.
    server.shutdown();
}

/// A coordinator with no workers bounds admission the same way: its
/// first campaign waits for a lease forever, so the second is refused.
#[test]
fn a_coordinator_without_workers_bounds_admission() {
    let server = TestServer::start(Role::Coordinator, 1, None);
    let (status, _, body) = request(server.addr, "POST", "/v1/campaigns", Some(QUICK));
    assert_eq!(status, 202, "{body}");
    let (_, _, health) = request(server.addr, "GET", "/v1/healthz", None);
    assert!(health.contains("\"queue_depth\":1"), "{health}");
    assert_refused_as_full(server.addr, QUICK);
    server.shutdown();
}

/// A remote worker asking for more units than the coordinator's
/// `lease_units` gets `lease_units`: the lease route clamps the request.
#[test]
fn a_lease_request_is_clamped_to_lease_units() {
    let cluster = ClusterConfig {
        lease_units: 2,
        ..ClusterConfig::default()
    };
    let server = TestServer::start_with(
        Role::Coordinator,
        cluster,
        tiny_base(),
        None,
        ServerConfig::default(),
    );
    let three = r#"{"benchmarks":["crc32"],"schemes":["defect-free"],"voltages_mv":[760,600,480]}"#;
    let (status, _, body) = request(server.addr, "POST", "/v1/campaigns", Some(three));
    assert_eq!(status, 202, "{body}");
    let (status, _, body) = request(
        server.addr,
        "POST",
        "/v1/cluster/join",
        Some(r#"{"name":"t"}"#),
    );
    assert_eq!(status, 200, "{body}");
    let worker = Value::parse(&body)
        .ok()
        .and_then(|v| v.get("worker").and_then(Value::as_f64))
        .expect("a worker id") as u64;
    let lease = format!("{{\"worker\":{worker},\"max_units\":8}}");
    let granted = || {
        let (status, _, body) = request(server.addr, "POST", "/v1/cluster/lease", Some(&lease));
        assert_eq!(status, 200, "{body}");
        let v = Value::parse(&body).expect("lease reply is JSON");
        v.get("units").and_then(Value::as_arr).expect("units").len()
    };
    assert_eq!(granted(), 2);
    assert_eq!(granted(), 1);
    server.shutdown();
}

#[test]
fn routing_rejects_what_it_should_and_shutdown_is_clean() {
    let server = TestServer::start(Role::Single, 2, None);

    // Healthz is a real document now: it must survive the hardened
    // parser and carry role/version/queue-depth fields.
    let (status, _, body) = request(server.addr, "GET", "/v1/healthz", None);
    assert_eq!(status, 200);
    let health = Value::parse(&body).expect("healthz JSON parses");
    assert_eq!(health.get("ok").and_then(Value::as_f64), None);
    assert!(
        matches!(health.get("ok"), Some(Value::Bool(true))),
        "{body}"
    );
    assert_eq!(
        health.get("role").and_then(Value::as_str),
        Some("single"),
        "{body}"
    );
    assert_eq!(
        health.get("version").and_then(Value::as_str),
        Some(env!("CARGO_PKG_VERSION")),
        "{body}"
    );
    assert_eq!(
        health.get("queue_depth").and_then(Value::as_f64),
        Some(0.0),
        "{body}"
    );
    assert!(
        health.get("uptime_ms").and_then(Value::as_f64).is_some(),
        "{body}"
    );

    let (status, _, _) = request(server.addr, "GET", "/v1/nope", None);
    assert_eq!(status, 404);
    let (status, _, _) = request(server.addr, "DELETE", "/v1/campaigns", None);
    assert_eq!(status, 405);
    let (status, _, body) = request(server.addr, "POST", "/v1/campaigns", Some("{not json"));
    assert_eq!(status, 400);
    assert!(body.contains("invalid JSON"), "{body}");
    let (status, _, body) = request(
        server.addr,
        "POST",
        "/v1/campaigns",
        Some(r#"{"benchmarks":["crc32"],"schemes":["nope"],"voltages_mv":[760]}"#),
    );
    assert_eq!(status, 400);
    assert!(body.contains("unknown scheme"), "{body}");
    let (status, _, _) = request(server.addr, "GET", "/v1/campaigns/77", None);
    assert_eq!(status, 404);
    let (status, _, body) = request(server.addr, "GET", "/v1/campaigns", None);
    assert_eq!(status, 200);
    assert_eq!(body, "[]");
    // A single node serves no worker fabric.
    let (status, _, _) = request(server.addr, "GET", "/v1/cluster/workers", None);
    assert_eq!(status, 404);

    server.shutdown();
}

/// A worker node holds no copy of what it did not compute: a point query
/// its store misses reads through to its coordinator and answers the
/// coordinator's exact bytes in either content type, a miss there is a
/// miss here, and a coordinator that cannot answer is a 502. A worker
/// refuses campaigns, and no node serves a sync log.
#[test]
fn a_worker_reads_through_to_its_coordinator_and_refuses_campaigns() {
    let dirs = [
        temp_dir("read-through-coord"),
        temp_dir("read-through-worker"),
    ];
    let coordinator_store = ResultStore::open(&dirs[0]).expect("store opens");
    Evaluator::new(tiny_base())
        .with_store(coordinator_store.clone())
        .run(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(600))
        .expect("the stored cell computes");
    let coordinator = TestServer::start(Role::Coordinator, 4, Some(coordinator_store));
    let worker_store = ResultStore::open(&dirs[1]).expect("store opens");
    let worker = TestServer::start(
        Role::Worker(coordinator.addr.to_string()),
        4,
        Some(worker_store),
    );

    // The `+` of the scheme's name stays literal on both hops.
    let stored = "/v1/results?benchmark=crc32&scheme=FFW+BBR&vcc_mv=600";
    let binary = [("Accept", "application/octet-stream")];
    for accept in [&[][..], &binary[..]] {
        let (status, _, want) = request_bytes(coordinator.addr, "GET", stored, accept, b"");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&want));
        let (status, headers, got) = request_bytes(worker.addr, "GET", stored, accept, b"");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&got));
        assert_eq!(got, want, "the worker relays the coordinator's exact bytes");
        let binary = !accept.is_empty();
        assert_eq!(
            header(&headers, "content-type"),
            Some(if binary {
                "application/octet-stream"
            } else {
                "application/json"
            })
        );
    }
    let missing = "/v1/results?benchmark=crc32&scheme=FFW+BBR&vcc_mv=480";
    for node in [coordinator.addr, worker.addr] {
        let (status, _, body) = request(node, "GET", missing, None);
        assert_eq!(status, 404, "{body}");
    }

    let (status, _, body) = request(worker.addr, "POST", "/v1/campaigns", Some(QUICK));
    assert_eq!(status, 404, "{body}");
    assert!(
        body.contains(&format!(
            "submit campaigns to its coordinator at {}",
            coordinator.addr
        )),
        "{body}"
    );
    assert_eq!(counter(worker.addr, "serve.campaigns.submitted"), 0.0);
    let (status, _, body) = request(coordinator.addr, "GET", "/v1/cluster/sync", None);
    assert_eq!(status, 404, "{body}");

    let coordinator_addr = coordinator.addr;
    coordinator.shutdown();
    let (status, _, body) = request(worker.addr, "GET", stored, None);
    assert_eq!(status, 502, "{body}");
    assert!(body.contains(&coordinator_addr.to_string()), "{body}");
    worker.shutdown();
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A coordinator host that drops connection attempts costs a relayed
/// point query the node's read timeout, not the kernel's minutes of SYN
/// retries: the worker answers 502 within about `read_timeout`. The
/// stand-in is a listener that never accepts, with its accept queue
/// full, which Linux answers by dropping each new SYN.
#[cfg(target_os = "linux")]
#[test]
fn a_relay_to_a_coordinator_that_drops_connections_fails_within_the_read_timeout() {
    let silent = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = silent.local_addr().expect("addr");
    // The first attempt that times out shows the kernel drops new ones.
    let mut queued = Vec::new();
    loop {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            Ok(stream) => queued.push(stream),
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => break,
            Err(e) => panic!("filling the accept queue: {e}"),
        }
        assert!(queued.len() <= 1024, "the accept queue never filled");
    }
    let read_timeout = Duration::from_millis(500);
    let cfg = ServerConfig {
        http_threads: 2,
        read_timeout,
        write_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let worker = TestServer::start_with(
        Role::Worker(addr.to_string()),
        ClusterConfig::default(),
        tiny_base(),
        None,
        cfg,
    );
    let started = Instant::now();
    let query = "/v1/results?benchmark=crc32&scheme=FFW+BBR&vcc_mv=600";
    let (status, _, body) = request(worker.addr, "GET", query, None);
    let took = started.elapsed();
    assert_eq!(status, 502, "{body}");
    assert!(body.contains(&addr.to_string()), "{body}");
    assert!(
        took < read_timeout + Duration::from_millis(1500),
        "the relay took {took:?}"
    );
    worker.shutdown();
    drop((queued, silent));
}

/// Sockets of this host in `TIME_WAIT` toward TCP port `port`.
#[cfg(target_os = "linux")]
fn time_wait_toward(port: u16) -> usize {
    let mut count = 0;
    for table in ["/proc/net/tcp", "/proc/net/tcp6"] {
        let Ok(table) = std::fs::read_to_string(table) else {
            continue;
        };
        for line in table.lines().skip(1) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            let remote = cols[2].rsplit(':').next().unwrap_or_default();
            if cols[3] == "06" && u16::from_str_radix(remote, 16) == Ok(port) {
                count += 1;
            }
        }
    }
    count
}

/// Each relayed point query is one connection that the coordinator
/// closes first, so the connection's `TIME_WAIT` stays on the
/// coordinator's listening port: a worker relaying many queries does not
/// use up its ephemeral ports.
#[cfg(target_os = "linux")]
#[test]
fn relayed_queries_leave_no_time_wait_on_the_worker() {
    let coordinator = TestServer::start(Role::Coordinator, 4, None);
    let worker = TestServer::start(Role::Worker(coordinator.addr.to_string()), 4, None);
    let mut client = HttpClient::new(worker.addr.to_string(), Duration::from_secs(30));
    let query = "/v1/results?benchmark=crc32&scheme=FFW+BBR&vcc_mv=600";
    let relays = 50;
    for _ in 0..relays {
        let reply = client.request("GET", query, &[], b"").expect("query");
        assert_eq!(reply.status, 404, "{:?}", reply.text());
    }
    let left = time_wait_toward(coordinator.addr.port());
    assert!(
        left < relays / 5,
        "{left} of {relays} relays left TIME_WAIT on the worker"
    );
    drop(client);
    worker.shutdown();
    coordinator.shutdown();
}

/// A server with short fuses for the refusal tests: a 300 ms read
/// timeout and a 64-byte body limit.
fn refusing_server() -> TestServer {
    let cfg = ServerConfig {
        http_threads: 2,
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_secs(5),
        max_body_bytes: 64,
        ..ServerConfig::default()
    };
    TestServer::start_with(
        Role::Single,
        ClusterConfig::default(),
        tiny_base(),
        None,
        cfg,
    )
}

#[test]
fn every_refusal_answers_with_its_status() {
    let server = refusing_server();
    let addr = server.addr;

    // 413: one byte over the body limit; at the limit it is parsed (and
    // refused as a bad spec instead).
    let (status, _, body) = request_bytes(addr, "POST", "/v1/campaigns", &[], &[b'{'; 65]);
    assert_eq!(status, 413, "{}", String::from_utf8_lossy(&body));
    let (status, _, body) = request_bytes(addr, "POST", "/v1/campaigns", &[], &[b'{'; 64]);
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));

    // 400: chunked transfer encoding.
    let (status, _, body) = request_bytes(
        addr,
        "POST",
        "/v1/campaigns",
        &[("Transfer-Encoding", "chunked")],
        b"",
    );
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("chunked"));

    // 400: a bad `%` escape in the query.
    let (status, _, body) = request(addr, "GET", "/v1/results?benchmark=%zz", None);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad percent escape in query"), "{body}");

    // 400: a head, then a body, cut short by a write-side shutdown.
    assert_eq!(
        raw_status(addr, b"GET /v1/healthz HTTP/1.1\r\nHost: t", true),
        400
    );
    let cut_body = b"POST /v1/campaigns HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"benchmarks\"";
    assert_eq!(raw_status(addr, cut_body, true), 400);

    // 408: a partial head, then a stall past the read timeout.
    let started = Instant::now();
    assert_eq!(
        raw_status(addr, b"GET /v1/healthz HTTP/1.1\r\n", false),
        408
    );
    assert!(started.elapsed() >= Duration::from_millis(300));

    server.shutdown();
}

/// A coordinator on `cfg` and `cluster` with one worker, both on `base`
/// and each with a store in a fresh temporary directory. The worker
/// heartbeats and polls every 50 ms, well inside any read timeout here:
/// only an evaluation leaves its connections idle, and it keeps its id,
/// so no re-join or duplicate dispatch can recover a lost result.
struct OneWorkerCluster {
    server: TestServer,
    worker: WorkerHandle,
    dirs: [PathBuf; 2],
}

impl OneWorkerCluster {
    fn start(tag: &str, cfg: ServerConfig, cluster: ClusterConfig, base: EvalConfig) -> Self {
        let dirs = [
            temp_dir(&format!("{tag}-coordinator")),
            temp_dir(&format!("{tag}-worker")),
        ];
        let store = |dir: &PathBuf| ResultStore::open(dir).expect("store opens");
        let server =
            TestServer::start_with(Role::Coordinator, cluster, base, Some(store(&dirs[0])), cfg);
        let addr = server.addr;
        let mut worker_cfg = WorkerConfig::new(addr.to_string(), base, store(&dirs[1]));
        worker_cfg.heartbeat = Duration::from_millis(50);
        worker_cfg.idle_poll = Duration::from_millis(50);
        let worker = spawn_worker(worker_cfg, Arc::new(MetricsRegistry::new()));
        OneWorkerCluster {
            server,
            worker,
            dirs,
        }
    }

    fn stop(self) {
        self.worker.stop();
        self.worker.join();
        self.server.shutdown();
        for dir in self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A worker whose cell outlasts the coordinator's read timeout still
/// delivers it. The coordinator closes the worker's idle keep-alive
/// connection without writing a 408 the worker would later read as the
/// answer to its result, and the worker sends the result on a fresh
/// connection.
#[test]
fn a_cell_outlasting_the_coordinators_read_timeout_completes() {
    let (scheme, vcc) = (Scheme::SimpleWdis, 560);
    // Two long trials, so the cell takes about 4 s on this build while
    // its result stays small: a large one fails its write to the closed
    // connection instead of reading the stale reply. The margin covers a
    // calibration slowed by tests running beside it.
    let base = calibrated_base(scheme, vcc, 4.0);
    let cfg = ServerConfig {
        http_threads: 4,
        read_timeout: Duration::from_millis(200),
        write_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let cluster = OneWorkerCluster::start("timeout", cfg, ClusterConfig::default(), base);
    let started = Instant::now();
    let body = run_cell(cluster.server.addr, scheme, vcc, &base);
    assert!(body.contains("\"state\":\"complete\""), "{body}");
    assert!(body.contains("\"cells_done\":1"), "{body}");
    assert!(
        started.elapsed() > Duration::from_secs(1),
        "the cell must outlast the read timeout several times over ({} instructions)",
        base.trace_instrs
    );
    cluster.stop();
}

/// A cell result several times the coordinator's request-body limit
/// fails its unit: the coordinator refuses it (a 413, or a reset while
/// the worker is still writing), the worker reports it undeliverable,
/// and the coordinator's bounded retry ends the campaign with an error
/// cell instead of the heartbeats keeping it running.
#[test]
fn a_cell_over_the_coordinators_body_limit_fails_the_campaign() {
    let base = EvalConfig {
        trace_instrs: 400,
        maps: 64,
        threads: 1,
        ..EvalConfig::quick()
    };
    let max_body_bytes = 4096;
    let cfg = ServerConfig {
        http_threads: 4,
        max_body_bytes,
        ..ServerConfig::default()
    };
    let retry = ClusterConfig {
        max_attempts: 2,
        retry_backoff: Duration::from_millis(10),
        ..ClusterConfig::default()
    };
    let cluster = OneWorkerCluster::start("body-limit", cfg, retry, base);
    let body = run_cell(cluster.server.addr, Scheme::SimpleWdis, 600, &base);
    assert!(body.contains("\"state\":\"failed\""), "{body}");
    assert!(body.contains("\"cells_failed\":1"), "{body}");
    assert!(body.contains("2 attempts exhausted"), "{body}");
    let size: usize = body
        .split("cell result of ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("the error names the result's size: {body}"));
    assert!(
        size > 4 * max_body_bytes,
        "{size} bytes against {max_body_bytes}"
    );
    cluster.stop();
}

/// The lane's heartbeat renews its registration and lease while it
/// evaluates, so a cell several times the lease TTL neither expires nor
/// requeues.
#[test]
fn the_lane_keeps_a_cell_longer_than_the_lease_ttl() {
    let (scheme, vcc) = (Scheme::SimpleWdis, 560);
    let base = calibrated_base(scheme, vcc, 1.0);
    let cluster = ClusterConfig {
        lease_ttl: Duration::from_millis(100),
        ..ClusterConfig::default()
    };
    let cfg = ServerConfig {
        http_threads: 2,
        ..ServerConfig::default()
    };
    let server = TestServer::start_with(Role::Single, cluster, base, None, cfg);
    let started = Instant::now();
    let body = run_cell(server.addr, scheme, vcc, &base);
    assert!(body.contains("\"state\":\"complete\""), "{body}");
    assert!(
        started.elapsed() >= Duration::from_millis(500),
        "the cell must outlast the lease TTL several times over ({} instructions)",
        base.trace_instrs
    );
    assert_eq!(counter(server.addr, "cluster.units.completed"), 1.0);
    assert!(counter(server.addr, "cluster.leases.renewed") >= 1.0);
    assert_eq!(counter(server.addr, "cluster.leases.expired"), 0.0);
    assert_eq!(counter(server.addr, "cluster.units.requeued"), 0.0);
    server.shutdown();
}

#[test]
fn connections_past_max_conns_get_503() {
    let cfg = ServerConfig {
        http_threads: 2,
        max_conns: 1,
        read_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let server = TestServer::start_with(
        Role::Single,
        ClusterConfig::default(),
        tiny_base(),
        None,
        cfg,
    );
    let addr = server.addr;

    // A kept-alive connection holds the only slot ...
    let mut held = HttpClient::new(addr.to_string(), Duration::from_secs(30));
    let reply = held
        .request("GET", "/v1/healthz", &[], b"")
        .expect("first connection is served");
    assert_eq!(reply.status, 200);
    // ... so the next peer is turned away at the door.
    let (status, headers, body) = request(addr, "GET", "/v1/healthz", None);
    assert_eq!(status, 503, "{body}");
    assert_eq!(header(&headers, "connection"), Some("close"));

    // Once the slot frees, the next peer is admitted. Its kept-alive
    // connection then carries the shutdown: a fresh one could race the
    // server releasing the slot of the connection before it.
    drop(held);
    let mut next = HttpClient::new(addr.to_string(), Duration::from_secs(30));
    let deadline = Instant::now() + Duration::from_secs(10);
    while next
        .request("GET", "/v1/healthz", &[], b"")
        .map(|r| r.status)
        .ok()
        != Some(200)
    {
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    }
    let reply = next
        .request("POST", "/v1/admin/shutdown", &[], b"")
        .expect("shutdown request");
    assert_eq!(reply.status, 200);
    let run_result = server.handle.join().expect("server thread");
    assert!(run_result.is_ok(), "{run_result:?}");
}

/// The head cap counts the whole head, terminator included, whether or
/// not the terminator has arrived: exactly `MAX_HEADER_BYTES` is served,
/// one byte more is refused.
#[test]
fn head_cap_is_exact_on_the_wire() {
    let server = refusing_server();
    let head = |len: usize| {
        let mut h = b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\nX-Pad: ".to_vec();
        h.resize(len - 4, b'p');
        h.extend_from_slice(b"\r\n\r\n");
        h
    };
    assert_eq!(raw_status(server.addr, &head(MAX_HEADER_BYTES), false), 200);
    assert_eq!(
        raw_status(server.addr, &head(MAX_HEADER_BYTES + 1), false),
        431
    );
    assert_eq!(raw_status(server.addr, &head(12 * 1024), false), 431);
    server.shutdown();
}

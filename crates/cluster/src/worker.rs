//! The worker: a pull–execute–push loop plus a heartbeat thread, over
//! HTTP to a remote coordinator or by direct call to the node's own.
//!
//! A worker joins a coordinator, leases cell-granular units, reassembles
//! them into partial [`ExperimentPlan`]s that [`Evaluator::run_plan`]
//! executes bit-identically to a single-node run, and pushes the
//! resulting [`StoredCell`] images back. While the (possibly long)
//! evaluation runs, a separate heartbeat thread renews the worker's
//! leases; if the process is SIGKILLed both threads die, heartbeats stop,
//! and the coordinator requeues the units — no cleanup path needs to run
//! on the dying node.
//!
//! A remote worker ([`spawn_worker`]) talks HTTP and, when idle, tails
//! the coordinator's sync log into its local [`ResultStore`], so after a
//! campaign converges *any* node can answer point queries for the whole
//! campaign from local disk. The in-process lane ([`spawn_lane`]) is the
//! same loop by direct call: it is how a node without `--cluster` runs
//! its campaigns.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dvs_core::{
    CancelToken, CellKey, EvalConfig, EvalError, Evaluator, ExperimentPlan, ResultStore, StoreKey,
    StoredCell,
};
use dvs_cpu::CoreConfig;
use dvs_obs::json::{json_escape, Value};
use dvs_obs::{MetricsRegistry, Recorder};
use dvs_sram::CacheGeometry;

use crate::coordinator::Coordinator;
use crate::http::{HttpClient, Reply, RequestError};
use crate::proto::{
    cell_from_json, cell_payload_from_hex, cell_payload_to_hex, UnitRef, WireConfig,
};

/// Configuration of one worker node.
#[derive(Debug)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub coordinator: String,
    /// Self-reported name (diagnostics only).
    pub name: String,
    /// Base evaluation config; its parallelism/checking knobs apply
    /// locally, its result-relevant fields are overridden per lease.
    pub base: EvalConfig,
    /// Local result store (also the sync-log destination).
    pub store: ResultStore,
    /// Units requested per lease call.
    pub lease_units: usize,
    /// Heartbeat period; must be well under the coordinator's lease TTL.
    pub heartbeat: Duration,
    /// Poll period while no work is available.
    pub idle_poll: Duration,
    /// Socket timeout for coordinator requests.
    pub timeout: Duration,
}

impl WorkerConfig {
    /// A worker talking to `coordinator` with defaults sized for the
    /// default [`crate::ClusterConfig`].
    pub fn new(coordinator: impl Into<String>, base: EvalConfig, store: ResultStore) -> Self {
        WorkerConfig {
            coordinator: coordinator.into(),
            name: format!("worker-{}", std::process::id()),
            base,
            store,
            lease_units: 2,
            heartbeat: Duration::from_millis(1000),
            idle_poll: Duration::from_millis(200),
            timeout: Duration::from_secs(10),
        }
    }
}

/// Handle to a running worker; dropping it does **not** stop the worker.
#[derive(Debug)]
pub struct WorkerHandle {
    stop: Arc<AtomicBool>,
    cancel: CancelToken,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerHandle {
    /// Asks the worker to stop: in-flight evaluation is cancelled at the
    /// next trial boundary and both threads wind down.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.cancel.cancel();
    }

    /// Waits for the worker's threads to finish.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Spawns the worker loop and its heartbeat thread.
pub fn spawn_worker(cfg: WorkerConfig, registry: Arc<MetricsRegistry>) -> WorkerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let cancel = CancelToken::new();
    let worker_id: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));

    let hb = {
        let stop = stop.clone();
        let worker_id = worker_id.clone();
        let mut client = HttpClient::new(cfg.coordinator.clone(), cfg.timeout);
        let period = cfg.heartbeat;
        std::thread::spawn(move || {
            heartbeat_loop(period, &stop, &worker_id, |id| {
                let body = format!("{{\"worker\":{id}}}");
                // Only a refusal means the coordinator no longer knows
                // us; a transport error is retried at the next beat.
                !matches!(call(&mut client, "POST", "/v1/cluster/heartbeat", &body),
                    Ok(reply) if !(200..300).contains(&reply.status))
            });
        })
    };
    let main = {
        let stop = stop.clone();
        let engine = Engine {
            base: cfg.base,
            store: Some(cfg.store.clone()),
            cancel: cancel.clone(),
            registry: registry.clone(),
            eval: None,
        };
        std::thread::spawn(move || {
            let mut rt = Runtime {
                client: HttpClient::new(cfg.coordinator.clone(), cfg.timeout),
                cfg,
                registry,
                stop,
                worker_id,
                engine,
                sync_seq: 0,
            };
            rt.run();
        })
    };
    WorkerHandle {
        stop,
        cancel,
        threads: vec![main, hb],
    }
}

/// Sends one request to the coordinator. Every worker request is
/// labelled JSON; a `GET` carries an empty body.
///
/// The coordinator times out idle keep-alive connections, so a request
/// sent on one may meet a closed connection or a 408 the server wrote
/// before the request arrived. Neither answers the request, and either
/// drops the connection, so the request is sent once more on a fresh
/// one.
fn call(
    client: &mut HttpClient,
    method: &str,
    path: &str,
    body: &str,
) -> Result<Reply, RequestError> {
    let json = [("Content-Type", "application/json")];
    let send = |client: &mut HttpClient| client.request(method, path, &json, body.as_bytes());
    match send(client) {
        Ok(reply) if reply.status == 408 => send(client),
        Err(RequestError::Closed | RequestError::Io(_)) => send(client),
        other => other,
    }
}

/// Sleeps `total` in short slices so a stop request is honored quickly.
fn pause(stop: &AtomicBool, total: Duration) {
    let mut left = total;
    while !stop.load(Ordering::Relaxed) && !left.is_zero() {
        let slice = left.min(Duration::from_millis(25));
        std::thread::sleep(slice);
        left = left.saturating_sub(slice);
    }
}

/// Renews the worker's registration (and with it every lease it holds)
/// every `period` until `stop`. `beat` sends one heartbeat and returns
/// false when the coordinator no longer knows the id (e.g. a long stall
/// outlived the TTL), which forces the main loop to rejoin.
fn heartbeat_loop(
    period: Duration,
    stop: &AtomicBool,
    worker_id: &Mutex<Option<u64>>,
    mut beat: impl FnMut(u64) -> bool,
) {
    while !stop.load(Ordering::Relaxed) {
        let id = *worker_id.lock().expect("worker id lock");
        if let Some(id) = id.filter(|&id| !beat(id)) {
            let mut slot = worker_id.lock().expect("worker id lock");
            if *slot == Some(id) {
                *slot = None;
            }
        }
        pause(stop, period);
    }
}

/// What a leased unit's evaluation reports to the coordinator.
enum Report {
    Complete(StoredCell),
    Fail(String),
}

/// The engine behind a worker or a lane: one evaluator per wire config.
/// Campaigns almost always share one config, so one slot of reuse is
/// enough to keep benchmark artifacts and memory-cached cells warm.
struct Engine {
    base: EvalConfig,
    store: Option<ResultStore>,
    cancel: CancelToken,
    registry: Arc<MetricsRegistry>,
    eval: Option<(WireConfig, Evaluator)>,
}

impl Engine {
    fn evaluator_for(&mut self, wire: WireConfig) -> &mut Evaluator {
        if !matches!(&self.eval, Some((w, _)) if *w == wire) {
            let mut eval = Evaluator::new(wire.apply(&self.base))
                .with_cancel_token(self.cancel.clone())
                .with_recorder(self.registry.clone() as Arc<dyn Recorder>);
            if let Some(store) = &self.store {
                eval = eval.with_store(store.clone());
            }
            self.eval = Some((wire, eval));
        }
        &mut self.eval.as_mut().expect("evaluator just ensured").1
    }

    /// Runs leased units as one plan per wire config and maps each
    /// cell's outcome. All links failing is a *result* (the store encodes
    /// it as zero surviving trials), not a retryable error; a cancelled
    /// cell reports nothing (its lease expires, or a drain has settled
    /// it); any other error fails the unit.
    fn run(&mut self, units: &[(UnitRef, CellKey, WireConfig)]) -> Vec<(UnitRef, Report)> {
        let mut wires: Vec<WireConfig> = Vec::new();
        for (_, _, wire) in units {
            if !wires.contains(wire) {
                wires.push(*wire);
            }
        }
        let mut reports = Vec::with_capacity(units.len());
        for wire in wires {
            let members: Vec<(UnitRef, CellKey)> = units
                .iter()
                .filter(|u| u.2 == wire)
                .map(|&(unit, key, _)| (unit, key))
                .collect();
            let plan = ExperimentPlan::for_cells(members.iter().map(|(_, k)| *k));
            let results = self.evaluator_for(wire).run_plan(&plan);
            for (unit, key) in members {
                let outcome = results
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, r)| r)
                    .expect("run_plan returns every planned cell");
                let report = match outcome {
                    Ok(run) => Report::Complete(StoredCell {
                        failed_links: run.failed_links,
                        trials: run.trials.clone(),
                    }),
                    Err(EvalError::AllLinksFailed { attempts, .. }) => {
                        Report::Complete(StoredCell {
                            failed_links: *attempts,
                            trials: Vec::new(),
                        })
                    }
                    Err(EvalError::Cancelled { .. }) => continue,
                    Err(e) => Report::Fail(e.to_string()),
                };
                reports.push((unit, report));
            }
        }
        reports
    }
}

/// Starts a node's in-process lane: the worker loop without HTTP. It
/// waits on the coordinator for work (never polling), leases every ready
/// unit of the oldest campaign by direct call, and runs them as one plan
/// at the node's engine threads. Its evaluator has no store: the
/// coordinator resolves store hits at submit and persists each computed
/// cell in `complete`. Its heartbeat renews its registration and leases
/// by direct call, so a cell that outlasts the lease TTL is never
/// requeued. The lane ends when the coordinator drains; the cells its
/// last plan finished are still completed, so they stay persisted.
pub fn spawn_lane(coordinator: Arc<Coordinator>, registry: Arc<MetricsRegistry>) -> WorkerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let cancel = coordinator.cancel_token();
    let worker_id = Arc::new(Mutex::new(None));
    let hb = {
        let (stop, worker_id, coordinator) = (stop.clone(), worker_id.clone(), coordinator.clone());
        let period = (coordinator.cfg().lease_ttl / 5).max(Duration::from_millis(1));
        std::thread::spawn(move || {
            heartbeat_loop(period, &stop, &worker_id, |id| {
                coordinator.heartbeat(id, Instant::now()).is_ok()
            });
        })
    };
    let main = {
        let mut engine = Engine {
            base: *coordinator.base(),
            store: None,
            cancel: cancel.clone(),
            registry,
            eval: None,
        };
        std::thread::spawn(move || loop {
            coordinator.wait_for_work();
            if coordinator.draining() {
                return;
            }
            let id = *worker_id
                .lock()
                .expect("worker id lock")
                .get_or_insert_with(|| coordinator.join("lane", Instant::now()));
            let Ok(grants) = coordinator.lease(id, usize::MAX, Instant::now()) else {
                *worker_id.lock().expect("worker id lock") = None; // expired: rejoin
                continue;
            };
            let units: Vec<_> = grants.iter().map(|g| (g.unit, g.key, g.wire)).collect();
            for (unit, report) in engine.run(&units) {
                // A unit the coordinator no longer knows cannot occur: it
                // never forgets a campaign.
                let _ = match report {
                    Report::Complete(cell) => coordinator.complete(id, unit, cell),
                    Report::Fail(error) => coordinator.fail(id, unit, &error, Instant::now()),
                };
            }
        })
    };
    WorkerHandle {
        stop,
        cancel,
        threads: vec![main, hb],
    }
}

struct Runtime {
    cfg: WorkerConfig,
    registry: Arc<MetricsRegistry>,
    client: HttpClient,
    stop: Arc<AtomicBool>,
    worker_id: Arc<Mutex<Option<u64>>>,
    engine: Engine,
    sync_seq: u64,
}

impl Runtime {
    fn run(&mut self) {
        while !self.stop.load(Ordering::Relaxed) {
            let Some(id) = self.ensure_joined() else {
                break; // stop requested while joining
            };
            match self.lease(id) {
                LeaseOutcome::Units(units) => self.execute(id, &units),
                LeaseOutcome::Idle => {
                    self.sync_pull();
                    pause(&self.stop, self.cfg.idle_poll);
                }
                LeaseOutcome::Expired => {
                    *self.worker_id.lock().expect("worker id lock") = None;
                }
                LeaseOutcome::Transport => pause(&self.stop, self.cfg.idle_poll),
            }
        }
    }

    /// Joins (or rejoins) the coordinator, retrying until stopped.
    fn ensure_joined(&mut self) -> Option<u64> {
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return None;
            }
            if let Some(id) = *self.worker_id.lock().expect("worker id lock") {
                return Some(id);
            }
            let body = format!("{{\"name\":\"{}\"}}", json_escape(&self.cfg.name));
            let joined = call(&mut self.client, "POST", "/v1/cluster/join", &body)
                .ok()
                .filter(|reply| reply.status == 200)
                .as_ref()
                .and_then(parse_reply)
                .and_then(|v| v.get("worker").and_then(Value::as_f64))
                .map(|f| f as u64);
            if let Some(id) = joined {
                *self.worker_id.lock().expect("worker id lock") = Some(id);
                self.registry.add("cluster.worker.joins", 1);
                return Some(id);
            }
            pause(&self.stop, self.cfg.idle_poll);
        }
    }

    fn lease(&mut self, id: u64) -> LeaseOutcome {
        let body = format!(
            "{{\"worker\":{id},\"max_units\":{}}}",
            self.cfg.lease_units.max(1)
        );
        let reply = match call(&mut self.client, "POST", "/v1/cluster/lease", &body) {
            Ok(r) => r,
            Err(_) => return LeaseOutcome::Transport,
        };
        if !(200..300).contains(&reply.status) {
            return LeaseOutcome::Expired;
        }
        let Some(units) = parse_reply(&reply).and_then(|v| parse_lease_units(&v)) else {
            return LeaseOutcome::Transport;
        };
        if units.is_empty() {
            LeaseOutcome::Idle
        } else {
            LeaseOutcome::Units(units)
        }
    }

    /// Executes leased units and reports each cell's outcome.
    fn execute(&mut self, id: u64, units: &[(UnitRef, CellKey, WireConfig)]) {
        let reports = self.engine.run(units);
        if self.stop.load(Ordering::Relaxed) {
            return; // cancelled mid-plan: let the leases expire
        }
        for (unit, report) in reports {
            match report {
                Report::Complete(cell) => self.push_complete(id, unit, &cell),
                Report::Fail(error) => self.push_fail(id, unit, &error),
            }
        }
    }

    fn push_complete(&mut self, id: u64, unit: UnitRef, cell: &StoredCell) {
        let body = format!(
            "{{\"worker\":{id},\"campaign\":{},\"index\":{},\"payload\":\"{}\"}}",
            unit.campaign,
            unit.index,
            cell_payload_to_hex(cell),
        );
        // Push with a few retries. A result that cannot be delivered — a
        // 413, or a connection the coordinator keeps dropping — fails its
        // unit, so the coordinator's bounded retry ends the campaign
        // instead of the heartbeats renewing the lease forever.
        let mut last = String::new();
        for _ in 0..3 {
            match call(&mut self.client, "POST", "/v1/cluster/complete", &body) {
                Ok(reply) if (200..300).contains(&reply.status) => {
                    self.registry.add("cluster.worker.units.completed", 1);
                    return;
                }
                Ok(reply) if reply.status == 413 => {
                    let error = parse_reply(&reply)
                        .and_then(|v| v.get("error").and_then(Value::as_str).map(String::from));
                    last = format!("413 {}", error.unwrap_or_default());
                    break;
                }
                Ok(_) => return, // coordinator rejected the ref: drop it
                Err(e) => {
                    last = format!("{e:?}");
                    pause(&self.stop, Duration::from_millis(50));
                }
            }
        }
        if self.stop.load(Ordering::Relaxed) {
            return; // stopping: let the lease expire
        }
        let reason = format!("cell result of {} bytes not delivered ({last})", body.len());
        self.push_fail(id, unit, &reason);
    }

    fn push_fail(&mut self, id: u64, unit: UnitRef, error: &str) {
        let body = format!(
            "{{\"worker\":{id},\"campaign\":{},\"index\":{},\"error\":\"{}\"}}",
            unit.campaign,
            unit.index,
            json_escape(error),
        );
        let _ = call(&mut self.client, "POST", "/v1/cluster/fail", &body);
        self.registry.add("cluster.worker.units.failed", 1);
    }

    /// Tails the coordinator's sync log into the local store so this
    /// node can answer point queries for cells other workers computed.
    fn sync_pull(&mut self) {
        loop {
            let path = format!("/v1/cluster/sync?after={}&limit=64", self.sync_seq);
            let Some(v) = call(&mut self.client, "GET", &path, "")
                .ok()
                .filter(|reply| reply.status == 200)
                .as_ref()
                .and_then(parse_reply)
            else {
                return;
            };
            let latest = v
                .get("latest")
                .and_then(Value::as_f64)
                .map_or(self.sync_seq, |f| f as u64);
            let Some(entries) = v.get("entries").and_then(Value::as_arr) else {
                return;
            };
            if entries.is_empty() {
                self.sync_seq = self.sync_seq.max(latest);
                return;
            }
            for entry in entries {
                let Some((seq, wire, key, cell)) = parse_sync_entry(entry) else {
                    // A malformed entry would repeat forever; skip past it.
                    self.sync_seq += 1;
                    continue;
                };
                let store_key = StoreKey::for_cell(
                    &wire.apply(&self.cfg.base),
                    &CoreConfig::dsn2016(),
                    &CacheGeometry::dsn_l1(),
                    &key,
                );
                if self.cfg.store.load(&store_key).is_none()
                    && self.cfg.store.save(&store_key, &cell).is_ok()
                {
                    self.registry.add("cluster.worker.sync_cells", 1);
                }
                self.sync_seq = self.sync_seq.max(seq);
            }
            if self.sync_seq >= latest {
                return;
            }
        }
    }
}

enum LeaseOutcome {
    Units(Vec<(UnitRef, CellKey, WireConfig)>),
    Idle,
    /// The coordinator no longer recognizes this worker id.
    Expired,
    Transport,
}

/// The reply body as a JSON document, if it is one.
fn parse_reply(reply: &Reply) -> Option<Value> {
    Value::parse(reply.text().ok()?).ok()
}

fn parse_lease_units(v: &Value) -> Option<Vec<(UnitRef, CellKey, WireConfig)>> {
    let arr = v.get("units").and_then(Value::as_arr)?;
    let mut units = Vec::with_capacity(arr.len());
    for u in arr {
        let campaign = u.get("campaign").and_then(Value::as_f64)? as u64;
        let index = u.get("index").and_then(Value::as_f64)? as usize;
        let key = cell_from_json(u.get("cell")?).ok()?;
        let wire = WireConfig::from_json(u.get("config")?).ok()?;
        units.push((UnitRef { campaign, index }, key, wire));
    }
    Some(units)
}

fn parse_sync_entry(v: &Value) -> Option<(u64, WireConfig, CellKey, StoredCell)> {
    let seq = v.get("seq").and_then(Value::as_f64)? as u64;
    let wire = WireConfig::from_json(v.get("config")?).ok()?;
    let key = cell_from_json(v.get("cell")?).ok()?;
    let cell = cell_payload_from_hex(v.get("payload").and_then(Value::as_str)?)?;
    Some((seq, wire, key, cell))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpConn, Response, DEFAULT_MAX_BODY_BYTES};
    use crate::proto::cell_to_json;
    use dvs_core::Scheme;
    use dvs_sram::MilliVolts;
    use dvs_workloads::Benchmark;
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    /// Drives the full worker loop against a scripted fake coordinator:
    /// join → lease one real (tiny) cell → expect the computed result
    /// pushed back → serve a sync entry → idle. Exercises every request
    /// the worker makes without a real server.
    #[test]
    fn worker_loop_executes_a_lease_and_tails_the_sync_log() {
        let base = EvalConfig {
            maps: 1,
            trace_instrs: 400,
            threads: 1,
            ..EvalConfig::quick()
        };
        let wire = WireConfig::of(&base);
        let leased = CellKey::new(Benchmark::Crc32, Scheme::DefectFree, MilliVolts::new(760));
        let synced = CellKey::new(Benchmark::Qsort, Scheme::DefectFree, MilliVolts::new(760));
        let synced_cell = StoredCell {
            failed_links: 4,
            trials: Vec::new(),
        };

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let lease_body = format!(
            "{{\"units\":[{{\"campaign\":1,\"index\":0,\"stolen\":false,\
             \"cell\":{},\"config\":{}}}]}}",
            cell_to_json(&leased),
            wire.to_json(),
        );
        let sync_body = format!(
            "{{\"latest\":1,\"entries\":[{{\"seq\":1,\"config\":{},\"cell\":{},\
             \"payload\":\"{}\"}}]}}",
            wire.to_json(),
            cell_to_json(&synced),
            cell_payload_to_hex(&synced_cell),
        );
        let server = std::thread::spawn(move || {
            let mut leased_out = false;
            let mut completed: Option<String> = None;
            let mut sync_served = false;
            // Serve connections (worker + heartbeat threads) until the
            // scripted interaction has fully played out.
            listener.set_nonblocking(false).expect("blocking listener");
            'outer: loop {
                let (stream, _) = listener.accept().expect("accept");
                let mut conn = HttpConn::new(stream, DEFAULT_MAX_BODY_BYTES);
                while let Ok(req) = conn.read_request() {
                    let body = String::from_utf8(req.body).expect("UTF-8 request body");
                    let reply = match (req.method.as_str(), req.path.as_str()) {
                        ("POST", "/v1/cluster/join") => {
                            assert!(body.contains("\"name\""));
                            "{\"worker\":7}".to_string()
                        }
                        ("POST", "/v1/cluster/heartbeat") => "{\"ok\":true}".to_string(),
                        ("POST", "/v1/cluster/lease") => {
                            assert!(body.contains("\"worker\":7"));
                            if leased_out {
                                "{\"units\":[]}".to_string()
                            } else {
                                leased_out = true;
                                lease_body.clone()
                            }
                        }
                        ("POST", "/v1/cluster/complete") => {
                            completed = Some(body);
                            "{\"ok\":true}".to_string()
                        }
                        ("GET", "/v1/cluster/sync") => {
                            if sync_served && completed.is_some() {
                                conn.write_response(&Response::json(
                                    200,
                                    "{\"latest\":1,\"entries\":[]}".to_string(),
                                ))
                                .expect("write response");
                                break 'outer;
                            }
                            sync_served = true;
                            sync_body.clone()
                        }
                        (method, path) => panic!("unexpected request {method} {path} ({body})"),
                    };
                    conn.write_response(&Response::json(200, reply))
                        .expect("write response");
                }
            }
            completed.expect("worker pushed a completed cell")
        });

        let dir = std::env::temp_dir().join(format!("dvs-worker-loop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).expect("store");
        let mut cfg = WorkerConfig::new(addr, base, store.clone());
        cfg.heartbeat = Duration::from_millis(50);
        cfg.idle_poll = Duration::from_millis(20);
        let registry = Arc::new(MetricsRegistry::new());
        let handle = spawn_worker(cfg, registry.clone());

        let completed = server.join().expect("fake coordinator");
        handle.stop();
        handle.join();

        // The pushed payload decodes to the locally stored result.
        let hex = completed
            .split("\"payload\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .expect("payload field");
        let pushed = cell_payload_from_hex(hex).expect("payload decodes");
        let leased_key = StoreKey::for_cell(
            &wire.apply(&base),
            &CoreConfig::dsn2016(),
            &CacheGeometry::dsn_l1(),
            &leased,
        );
        assert_eq!(store.load(&leased_key), Some(pushed));

        // The sync entry landed in the local store byte-for-byte.
        let synced_key = StoreKey::for_cell(
            &wire.apply(&base),
            &CoreConfig::dsn2016(),
            &CacheGeometry::dsn_l1(),
            &synced,
        );
        assert_eq!(store.load(&synced_key), Some(synced_cell));
        assert_eq!(registry.counter("cluster.worker.units.completed"), 1);
        assert_eq!(registry.counter("cluster.worker.sync_cells"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What a [`ScriptedCoordinator`] saw: the bodies of the worker's
    /// `complete` and `fail` requests, and the connections it accepted.
    #[derive(Default)]
    struct Seen {
        completes: Vec<String>,
        /// The connection (numbered from 0 in accept order) that carried
        /// each `complete`.
        complete_conns: Vec<usize>,
        fails: Vec<String>,
        connections: usize,
    }

    /// A fake coordinator serving each connection on its own thread, so
    /// the heartbeat connection never blocks the worker's main one. It
    /// joins worker 7, leases `cell` once, answers the n-th `complete`
    /// (from 0) with `complete(n)` and records what it saw.
    struct ScriptedCoordinator {
        addr: String,
        seen: Arc<Mutex<Seen>>,
        stop: Arc<AtomicBool>,
        accept: JoinHandle<()>,
    }

    impl ScriptedCoordinator {
        fn start(
            cell: CellKey,
            wire: WireConfig,
            complete: fn(usize) -> Response,
        ) -> ScriptedCoordinator {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr").to_string();
            listener
                .set_nonblocking(true)
                .expect("non-blocking listener");
            let seen = Arc::new(Mutex::new(Seen::default()));
            let stop = Arc::new(AtomicBool::new(false));
            let lease = format!(
                "{{\"units\":[{{\"campaign\":1,\"index\":0,\"stolen\":false,\
                 \"cell\":{},\"config\":{}}}]}}",
                cell_to_json(&cell),
                wire.to_json(),
            );
            let leased = Arc::new(AtomicBool::new(false));
            let accept = {
                let (seen, stop) = (seen.clone(), stop.clone());
                std::thread::spawn(move || {
                    let mut conns = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let Ok((stream, _)) = listener.accept() else {
                            std::thread::sleep(Duration::from_millis(5));
                            continue;
                        };
                        let number = {
                            let mut seen = seen.lock().unwrap();
                            seen.connections += 1;
                            seen.connections - 1
                        };
                        let (seen, stop, leased, lease) =
                            (seen.clone(), stop.clone(), leased.clone(), lease.clone());
                        conns.push(std::thread::spawn(move || {
                            stream.set_nonblocking(false).unwrap();
                            stream
                                .set_read_timeout(Some(Duration::from_millis(100)))
                                .unwrap();
                            let mut conn = HttpConn::new(stream, usize::MAX);
                            while !stop.load(Ordering::Relaxed) {
                                let req = match conn.read_request() {
                                    Ok(req) => req,
                                    Err(RequestError::Idle) => continue,
                                    Err(_) => return,
                                };
                                let body = String::from_utf8(req.body).unwrap();
                                let ok = |json: &str| Response::json(200, json.to_string());
                                let reply = match req.path.as_str() {
                                    "/v1/cluster/join" => ok("{\"worker\":7}"),
                                    "/v1/cluster/lease" if !leased.swap(true, Ordering::SeqCst) => {
                                        ok(&lease)
                                    }
                                    "/v1/cluster/lease" => ok("{\"units\":[]}"),
                                    "/v1/cluster/complete" => {
                                        let mut seen = seen.lock().unwrap();
                                        seen.completes.push(body);
                                        seen.complete_conns.push(number);
                                        complete(seen.completes.len() - 1)
                                    }
                                    "/v1/cluster/fail" => {
                                        seen.lock().unwrap().fails.push(body);
                                        ok("{\"ok\":true}")
                                    }
                                    "/v1/cluster/sync" => ok("{\"latest\":0,\"entries\":[]}"),
                                    _ => ok("{\"ok\":true}"),
                                };
                                if conn.write_response(&reply).is_err() || reply.close {
                                    return;
                                }
                            }
                        }));
                    }
                    for conn in conns {
                        conn.join().expect("connection thread");
                    }
                })
            };
            ScriptedCoordinator {
                addr,
                seen,
                stop,
                accept,
            }
        }

        /// Runs a worker on `store` against this coordinator until `done`
        /// holds of what it saw (or 60 s pass), then stops both.
        fn drive(self, base: EvalConfig, store: ResultStore, done: fn(&Seen) -> bool) -> Seen {
            let mut cfg = WorkerConfig::new(self.addr.clone(), base, store);
            cfg.heartbeat = Duration::from_millis(50);
            cfg.idle_poll = Duration::from_millis(20);
            let handle = spawn_worker(cfg, Arc::new(MetricsRegistry::new()));
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            while !done(&self.seen.lock().unwrap()) {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the scripted exchange never finished"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            handle.stop();
            handle.join();
            self.stop.store(true, Ordering::Relaxed);
            self.accept.join().expect("accept loop");
            std::mem::take(&mut *self.seen.lock().unwrap())
        }
    }

    /// An empty store in a fresh temporary directory.
    fn temp_store(tag: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!("dvs-worker-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::open(&dir).expect("store")
    }

    fn tiny_cell() -> (EvalConfig, CellKey) {
        let base = EvalConfig {
            maps: 1,
            trace_instrs: 400,
            threads: 1,
            ..EvalConfig::quick()
        };
        let key = CellKey::new(Benchmark::Crc32, Scheme::DefectFree, MilliVolts::new(760));
        (base, key)
    }

    /// A 408 left on the idle main connection by the coordinator's read
    /// timeout answers no request: the worker sends its result again on
    /// a fresh connection instead of dropping it.
    #[test]
    fn a_stale_408_is_retried_on_a_fresh_connection() {
        let (base, key) = tiny_cell();
        let coordinator = ScriptedCoordinator::start(key, WireConfig::of(&base), |n| {
            if n == 0 {
                Response::error(408, "request timed out").with_close()
            } else {
                Response::json(200, "{\"ok\":true}".to_string())
            }
        });
        let store = temp_store("stale-408");
        let seen = coordinator.drive(base, store.clone(), |seen| seen.completes.len() == 2);
        let _ = std::fs::remove_dir_all(store.dir());
        assert_eq!(seen.completes[0], seen.completes[1]);
        assert_ne!(seen.complete_conns[0], seen.complete_conns[1]);
        assert!(seen.fails.is_empty(), "{:?}", seen.fails);
    }

    /// A coordinator that refuses the result as too large gets a `fail`
    /// quoting the refusal, so its bounded retry can end the campaign.
    #[test]
    fn a_413_fails_the_unit_with_the_limit() {
        let (base, key) = tiny_cell();
        let coordinator = ScriptedCoordinator::start(key, WireConfig::of(&base), |_| {
            Response::error(413, "request body exceeds 64 bytes").with_close()
        });
        let store = temp_store("refused-413");
        let seen = coordinator.drive(base, store.clone(), |seen| !seen.fails.is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
        assert_eq!(seen.completes.len(), 1);
        assert!(
            seen.fails[0].contains("not delivered (413 request body exceeds 64 bytes)"),
            "{}",
            seen.fails[0]
        );
    }
}

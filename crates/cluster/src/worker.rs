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
//! A remote worker ([`spawn_worker`]) talks HTTP and keeps no copy of
//! what other workers computed: its node reads point queries it cannot
//! answer through to the coordinator. The in-process lane
//! ([`spawn_lane`]) is the same loop by direct call: it is how a node
//! without `--cluster` runs its campaigns. Idle threads of either park
//! until their next deadline, and [`WorkerHandle::stop`] wakes them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dvs_core::{
    CancelToken, CellKey, EvalConfig, EvalError, Evaluator, ExperimentPlan, ResultStore, StoredCell,
};
use dvs_obs::json::{json_escape, Value};
use dvs_obs::{MetricsRegistry, Recorder};

use crate::coordinator::Coordinator;
use crate::http::{HttpClient, Reply, RequestError};
use crate::proto::{cell_from_json, cell_payload_to_hex, UnitRef, WireConfig};

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
    /// Local result store; the worker's evaluator saves every cell it
    /// computes there.
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
    /// next trial boundary, paused threads wake, and both threads wind
    /// down.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.cancel.cancel();
        for t in &self.threads {
            t.thread().unpark();
        }
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
        spawn_named("dvs-worker-heartbeat", move || {
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
        spawn_named("dvs-worker", move || {
            let mut rt = Runtime {
                client: HttpClient::new(cfg.coordinator.clone(), cfg.timeout),
                cfg,
                registry,
                stop,
                worker_id,
                engine,
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

/// Spawns a thread under `name`, so per-thread tools can tell a node's
/// worker and lane threads apart.
fn spawn_named(name: &str, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .expect("spawn worker thread")
}

/// Parks the calling thread for `total`, or until a stop request:
/// [`WorkerHandle::stop`] unparks every thread it owns.
fn pause(stop: &AtomicBool, total: Duration) {
    let deadline = Instant::now() + total;
    while !stop.load(Ordering::Relaxed) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::park_timeout(left);
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
        spawn_named("dvs-lane-heartbeat", move || {
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
        spawn_named("dvs-lane", move || loop {
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
}

impl Runtime {
    fn run(&mut self) {
        while !self.stop.load(Ordering::Relaxed) {
            let Some(id) = self.ensure_joined() else {
                break; // stop requested while joining
            };
            match self.lease(id) {
                LeaseOutcome::Units(units) => self.execute(id, &units),
                LeaseOutcome::Idle | LeaseOutcome::Transport => {
                    pause(&self.stop, self.cfg.idle_poll);
                }
                LeaseOutcome::Expired => {
                    *self.worker_id.lock().expect("worker id lock") = None;
                }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpConn, Response};
    use crate::proto::{cell_payload_from_hex, cell_to_json};
    use crate::ClusterConfig;
    use dvs_core::{Scheme, StoreKey};
    use dvs_cpu::CoreConfig;
    use dvs_sram::{CacheGeometry, MilliVolts};
    use dvs_workloads::Benchmark;
    use std::net::TcpListener;

    /// What a [`ScriptedCoordinator`] saw: the bodies of the worker's
    /// `complete` and `fail` requests, the connections it accepted, and
    /// every request that broke the script.
    #[derive(Default)]
    struct Seen {
        completes: Vec<String>,
        /// The connection (numbered from 0 in accept order) that carried
        /// each `complete`.
        complete_conns: Vec<usize>,
        fails: Vec<String>,
        connections: usize,
        unexpected: Vec<String>,
    }

    /// A fake coordinator serving each connection on its own thread, so
    /// the heartbeat connection never blocks the worker's main one. It
    /// joins worker 7, leases `cell` once, answers the n-th `complete`
    /// (from 0) with `complete(n)` and records what it saw. A join must
    /// carry a name and every later request worker 7's id; any other
    /// request, or one without them, is recorded as unexpected and drops
    /// its connection, and [`ScriptedCoordinator::drive`] fails on it.
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
                                let reply = match (req.method.as_str(), req.path.as_str()) {
                                    ("POST", "/v1/cluster/join") if body.contains("\"name\"") => {
                                        Some(ok("{\"worker\":7}"))
                                    }
                                    ("POST", _) if !body.contains("\"worker\":7") => None,
                                    ("POST", "/v1/cluster/heartbeat") => Some(ok("{\"ok\":true}")),
                                    ("POST", "/v1/cluster/lease")
                                        if !leased.swap(true, Ordering::SeqCst) =>
                                    {
                                        Some(ok(&lease))
                                    }
                                    ("POST", "/v1/cluster/lease") => Some(ok("{\"units\":[]}")),
                                    ("POST", "/v1/cluster/complete") => {
                                        let mut seen = seen.lock().unwrap();
                                        seen.completes.push(body.clone());
                                        seen.complete_conns.push(number);
                                        Some(complete(seen.completes.len() - 1))
                                    }
                                    ("POST", "/v1/cluster/fail") => {
                                        seen.lock().unwrap().fails.push(body.clone());
                                        Some(ok("{\"ok\":true}"))
                                    }
                                    _ => None,
                                };
                                let Some(reply) = reply else {
                                    let request = format!("{} {} ({body})", req.method, req.path);
                                    seen.lock().unwrap().unexpected.push(request);
                                    return;
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

        /// Runs a worker on `store` that heartbeats every `heartbeat`
        /// against this coordinator until `done` holds of what it saw (or
        /// 60 s pass), then stops both. Returns what the coordinator saw,
        /// the worker's metrics and how long the worker took to stop.
        /// Panics as soon as the worker sends a request the script does
        /// not expect.
        fn drive(
            self,
            base: EvalConfig,
            store: ResultStore,
            heartbeat: Duration,
            done: fn(&Seen) -> bool,
        ) -> (Seen, Arc<MetricsRegistry>, Duration) {
            let mut cfg = WorkerConfig::new(self.addr.clone(), base, store);
            cfg.heartbeat = heartbeat;
            cfg.idle_poll = Duration::from_millis(20);
            let registry = Arc::new(MetricsRegistry::new());
            let handle = spawn_worker(cfg, registry.clone());
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                {
                    let seen = self.seen.lock().unwrap();
                    assert!(seen.unexpected.is_empty(), "{:?}", seen.unexpected);
                    if done(&seen) {
                        break;
                    }
                }
                assert!(
                    Instant::now() < deadline,
                    "the scripted exchange never finished"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            let stopping = Instant::now();
            handle.stop();
            handle.join();
            let stopping = stopping.elapsed();
            self.stop.store(true, Ordering::Relaxed);
            self.accept.join().expect("accept loop");
            let seen = std::mem::take(&mut *self.seen.lock().unwrap());
            assert!(seen.unexpected.is_empty(), "{:?}", seen.unexpected);
            (seen, registry, stopping)
        }
    }

    const HEARTBEAT: Duration = Duration::from_millis(50);

    fn accept_all(_: usize) -> Response {
        Response::json(200, "{\"ok\":true}".to_string())
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

    /// Drives the full worker loop against a scripted coordinator: join
    /// by name, lease one real (tiny) cell as worker 7, push the computed
    /// result back, idle without any other request (no sync log to tail).
    /// The pushed payload is the cell the worker saved in its own store.
    #[test]
    fn worker_loop_executes_a_lease_and_pushes_the_result() {
        let (base, key) = tiny_cell();
        let wire = WireConfig::of(&base);
        let coordinator = ScriptedCoordinator::start(key, wire, accept_all);
        let store = temp_store("loop");
        let (seen, registry, _) = coordinator.drive(base, store.clone(), HEARTBEAT, |seen| {
            seen.completes.len() == 1
        });
        let hex = seen.completes[0]
            .split("\"payload\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .expect("payload field");
        let pushed = cell_payload_from_hex(hex).expect("payload decodes");
        let store_key = StoreKey::for_cell(
            &wire.apply(&base),
            &CoreConfig::dsn2016(),
            &CacheGeometry::dsn_l1(),
            &key,
        );
        assert_eq!(store.load(&store_key), Some(pushed));
        assert_eq!(registry.counter("cluster.worker.units.completed"), 1);
        assert!(seen.fails.is_empty(), "{:?}", seen.fails);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// A stop wakes threads parked between heartbeats: a worker whose
    /// heartbeat period is a minute still stops within a second.
    #[test]
    fn stop_wakes_a_worker_parked_between_heartbeats() {
        let (base, key) = tiny_cell();
        let coordinator = ScriptedCoordinator::start(key, WireConfig::of(&base), accept_all);
        let store = temp_store("stop");
        let minute = Duration::from_secs(60);
        let (_, _, stopping) = coordinator.drive(base, store.clone(), minute, |seen| {
            seen.completes.len() == 1
        });
        let _ = std::fs::remove_dir_all(store.dir());
        assert!(
            stopping < Duration::from_secs(1),
            "stopping took {stopping:?}"
        );
    }

    /// The ids of this process's threads whose kernel name is `comm`.
    #[cfg(target_os = "linux")]
    fn threads_named(comm: &str) -> Vec<String> {
        let tasks = std::fs::read_dir("/proc/self/task").expect("the task list");
        tasks
            .filter_map(|task| {
                let tid = task.ok()?.file_name().into_string().ok()?;
                let name = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
                (name.trim_end() == comm).then_some(tid)
            })
            .collect()
    }

    /// How often thread `tid` of this process has blocked so far.
    #[cfg(target_os = "linux")]
    fn voluntary_switches(tid: &str) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status"))
            .expect("the thread's status");
        status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|count| count.trim().parse().ok())
            .expect("a voluntary_ctxt_switches line")
    }

    /// An idle lane's heartbeat thread parks until its next beat (every
    /// `lease_ttl / 5`, one second by default) instead of waking every
    /// few milliseconds. It is found by its name, which the kernel keeps
    /// to 15 bytes.
    #[cfg(target_os = "linux")]
    #[test]
    fn an_idle_lanes_heartbeat_thread_sleeps_between_beats() {
        let coordinator = Arc::new(Coordinator::new(
            ClusterConfig::default(),
            EvalConfig::quick(),
            None,
            Arc::new(MetricsRegistry::new()),
        ));
        let comm = &"dvs-lane-heartbeat"[..15];
        let before = threads_named(comm);
        let lane = spawn_lane(coordinator.clone(), Arc::new(MetricsRegistry::new()));
        let deadline = Instant::now() + Duration::from_secs(5);
        let tid = loop {
            if let Some(tid) = threads_named(comm)
                .into_iter()
                .find(|t| !before.contains(t))
            {
                break tid;
            }
            assert!(Instant::now() < deadline, "no thread named {comm:?}");
            std::thread::sleep(Duration::from_millis(10));
        };
        let start = voluntary_switches(&tid);
        std::thread::sleep(Duration::from_secs(1));
        let woke = voluntary_switches(&tid) - start;
        coordinator.drain();
        lane.stop();
        lane.join();
        assert!(
            woke <= 5,
            "the idle heartbeat thread blocked {woke} times in 1 s"
        );
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
        let (seen, _, _) = coordinator.drive(base, store.clone(), HEARTBEAT, |seen| {
            seen.completes.len() == 2
        });
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
        let (seen, _, _) = coordinator.drive(base, store.clone(), HEARTBEAT, |seen| {
            !seen.fails.is_empty()
        });
        let _ = std::fs::remove_dir_all(store.dir());
        assert_eq!(seen.completes.len(), 1);
        assert!(
            seen.fails[0].contains("not delivered (413 request body exceeds 64 bytes)"),
            "{}",
            seen.fails[0]
        );
    }
}

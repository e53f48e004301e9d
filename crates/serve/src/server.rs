//! Accept loop, HTTP worker pool, routing, and graceful shutdown.
//!
//! The accept thread pushes connections onto a shared queue drained by
//! `http_threads` workers; a connection cap turns excess peers away
//! with `503` before they consume a worker. Every campaign route goes to
//! the node's one [`Coordinator`]. A single node runs its campaigns
//! through its in-process lane ([`spawn_lane`]), a cluster coordinator
//! leaves them to remote workers, and a worker node refuses them: it
//! answers point queries its own store misses by reading through to its
//! coordinator, the one copy of every result. Shutdown is
//! graceful by construction: `POST /v1/admin/shutdown` answers first,
//! then stops the accept loop, lets the workers finish their current
//! requests, drains the coordinator (unfinished campaigns are cancelled;
//! the lane's in-flight trials stop at the next boundary and its
//! completed cells stay persisted), and [`Server::run`] returns `Ok`.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dvs_cluster::http::{HttpConn, Request, RequestError, Response, DEFAULT_MAX_BODY_BYTES};
use dvs_cluster::proto::{
    cell_json, cell_payload_from_hex, cell_to_json, stored_cell_result, UnitRef,
};
use dvs_cluster::{spawn_lane, Coordinator, HttpClient, SubmitError, WireConfig, WorkerHandle};
use dvs_core::{CellKey, Scheme, StoredCell};
use dvs_obs::json::Value;
use dvs_obs::{MetricsRegistry, Recorder};
use dvs_sram::MilliVolts;
use dvs_workloads::Benchmark;

use crate::api::{self, CampaignSpec};

/// How the HTTP front end is sized.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// HTTP worker threads. A worker serves one connection until the
    /// peer closes it, so this also bounds the number of keep-alive
    /// connections served concurrently.
    pub http_threads: usize,
    /// Connections admitted at once (queued + being served); excess
    /// peers get an immediate `503`.
    pub max_conns: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Request-body size limit.
    pub max_body_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            http_threads: 4,
            max_conns: 256,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
        }
    }
}

/// A node's part in a deployment; `/v1/healthz` reports its name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    /// Runs its campaigns through the in-process lane.
    Single,
    /// Serves `/v1/cluster/*` and leaves its campaigns to remote workers.
    Coordinator,
    /// Runs the worker loop against the coordinator at this address
    /// (`host:port`). It refuses campaigns, and reads a point query its
    /// own store misses through to the coordinator.
    Worker(String),
}

impl Role {
    fn name(&self) -> &'static str {
        match self {
            Role::Single => "single",
            Role::Coordinator => "coordinator",
            Role::Worker(_) => "worker",
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<TcpStream>>,
    cv: Condvar,
    coordinator: Arc<Coordinator>,
    role: Role,
    registry: Arc<MetricsRegistry>,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    /// Connections admitted and not yet finished (queued + in service).
    conns: AtomicUsize,
    /// The bound address, for the shutdown self-connect.
    local_addr: SocketAddr,
    /// Process start, for the health uptime.
    started: Instant,
    /// The in-process lane of a single node. The first accepted campaign
    /// starts it: started with the server, its threads delay a fresh
    /// daemon's first answer (serve_mixed `setup_s` read +29 % over 10
    /// alternating pairs).
    lane: Mutex<Option<WorkerHandle>>,
}

/// A bound-but-not-yet-running campaign server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port) for a node of
    /// `role` whose campaigns `coordinator` tracks.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind(
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
        role: Role,
        coordinator: Arc<Coordinator>,
        registry: Arc<MetricsRegistry>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            listener,
            local_addr,
            shared: Arc::new(Shared {
                queue: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
                coordinator,
                role,
                registry,
                cfg,
                shutdown: AtomicBool::new(false),
                conns: AtomicUsize::new(0),
                local_addr,
                started: Instant::now(),
                lane: Mutex::new(None),
            }),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves until a shutdown request arrives, then drains gracefully:
    /// workers finish their in-flight requests, the coordinator drains
    /// (the lane's running campaign stops at the next trial boundary with
    /// its completed cells persisted), and the call returns `Ok`.
    ///
    /// # Errors
    ///
    /// Returns accept-loop transport errors.
    pub fn run(self) -> std::io::Result<()> {
        let workers: Vec<_> = (0..self.shared.cfg.http_threads.max(1))
            .map(|i| {
                let shared = self.shared.clone();
                std::thread::Builder::new()
                    .name(format!("dvs-http-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn http worker")
            })
            .collect();

        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let admitted = self.shared.conns.load(Ordering::Acquire) < self.shared.cfg.max_conns;
            if !admitted {
                self.shared.registry.add("serve.conns.rejected", 1);
                // Best-effort refusal; the peer may already be gone.
                let mut s = stream;
                let _ = s.set_write_timeout(Some(self.shared.cfg.write_timeout));
                let _ = s.write_all(
                    &Response::error(503, "connection limit reached")
                        .with_close()
                        .to_wire(),
                );
                continue;
            }
            let _ = stream.set_read_timeout(Some(self.shared.cfg.read_timeout));
            let _ = stream.set_write_timeout(Some(self.shared.cfg.write_timeout));
            self.shared.registry.add("serve.conns.accepted", 1);
            self.shared.conns.fetch_add(1, Ordering::AcqRel);
            {
                let mut q = self.shared.queue.lock().unwrap();
                q.push_back(stream);
                self.shared.registry.gauge(
                    "serve.conns.active",
                    self.shared.conns.load(Ordering::Acquire) as u64,
                );
            }
            self.shared.cv.notify_one();
        }

        // Drain: wake every worker, let them finish queued connections.
        self.shared.cv.notify_all();
        for w in workers {
            let _ = w.join();
        }
        self.shared.coordinator.drain();
        // No route runs any more, so no submission can start a lane now.
        if let Some(lane) = self.shared.lane.lock().expect("lane lock").take() {
            lane.stop();
            lane.join();
        }
        Ok(())
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let stream = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(s) = q.pop_front() {
                    break s;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = shared.cv.wait(q).unwrap();
            }
        };
        serve_connection(shared, stream);
        shared.conns.fetch_sub(1, Ordering::AcqRel);
        shared.registry.gauge(
            "serve.conns.active",
            shared.conns.load(Ordering::Acquire) as u64,
        );
    }
}

fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let mut conn = HttpConn::new(stream, shared.cfg.max_body_bytes);
    loop {
        let request = match conn.read_request() {
            Ok(r) => r,
            // An idle keep-alive connection is closed without a reply: a
            // 408 would sit unread on the socket until the peer's next
            // request, which would then read it as its own answer.
            Err(RequestError::Closed | RequestError::Idle) => return,
            Err(RequestError::Timeout) => {
                let _ =
                    conn.write_response(&Response::error(408, "request timed out").with_close());
                return;
            }
            Err(RequestError::HeadersTooLarge) => {
                let _ = conn.write_response(
                    &Response::error(431, "request headers too large").with_close(),
                );
                return;
            }
            Err(RequestError::BodyTooLarge { limit }) => {
                let _ = conn.write_response(
                    &Response::error(413, &format!("request body exceeds {limit} bytes"))
                        .with_close(),
                );
                return;
            }
            Err(RequestError::Malformed(why)) => {
                let _ = conn.write_response(&Response::error(400, &why).with_close());
                return;
            }
            Err(RequestError::Io(_)) => return,
        };

        shared.registry.add("serve.requests", 1);
        shared
            .registry
            .add("serve.bytes.read", request.wire_bytes as u64);
        let started = Instant::now();
        let mut response = route(shared, &request);
        shared.registry.duration(
            "serve.request_nanos",
            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        shared.registry.add(
            match response.status / 100 {
                2 => "serve.responses.2xx",
                4 => "serve.responses.4xx",
                _ => "serve.responses.5xx",
            },
            1,
        );
        // Once a drain has begun, keep-alive peers are answered and then
        // disconnected, so captive connections cannot stall shutdown.
        if !request.keep_alive || shared.shutdown.load(Ordering::Acquire) {
            response.close = true;
        }
        let close = response.close;
        match conn.write_response(&response) {
            Ok(n) => shared.registry.add("serve.bytes.written", n as u64),
            Err(_) => return,
        }
        if close {
            return;
        }
    }
}

fn route(shared: &Arc<Shared>, req: &Request) -> Response {
    let c = &shared.coordinator;
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => healthz(shared),
        ("POST", "/v1/campaigns") => match &shared.role {
            Role::Worker(coordinator) => Response::error(
                404,
                &format!(
                    "this node is a cluster worker; submit campaigns to its coordinator at \
                     {coordinator}"
                ),
            ),
            _ => submit_campaign(shared, req),
        },
        ("GET", "/v1/campaigns") => Response::json(200, c.list_json(Instant::now())),
        ("GET", path) if path.starts_with("/v1/campaigns/") => {
            let id = &path["/v1/campaigns/".len()..];
            match id
                .parse::<u64>()
                .ok()
                .and_then(|id| c.status_json(id, Instant::now()))
            {
                Some(body) => Response::json(200, body),
                None => Response::error(404, &format!("no campaign {id:?}")),
            }
        }
        (method, path) if path.starts_with("/v1/cluster/") => match shared.role {
            Role::Coordinator => cluster_route(c, method, path, req),
            _ => Response::error(404, "this node is not a cluster coordinator"),
        },
        ("GET", "/v1/results") => store_query(shared, req),
        ("GET", "/v1/metrics") => {
            let snapshot = shared.registry.snapshot();
            if req.query_param("format") == Some("json") {
                Response::json(200, snapshot.to_json(true))
            } else {
                Response::text(200, snapshot.to_text())
            }
        }
        ("POST", "/v1/admin/shutdown") => begin_shutdown(shared),
        (
            _,
            "/v1/healthz" | "/v1/campaigns" | "/v1/results" | "/v1/metrics" | "/v1/admin/shutdown",
        ) => Response::error(405, &format!("method {} not allowed here", req.method)),
        _ => Response::error(404, &format!("no route {}", req.path)),
    }
}

fn submit_campaign(shared: &Shared, req: &Request) -> Response {
    let c = &shared.coordinator;
    let body = match std::str::from_utf8(&req.body) {
        Ok(b) => b,
        Err(_) => return Response::error(400, "request body is not UTF-8"),
    };
    let spec = match CampaignSpec::from_json(body) {
        Ok(s) => s,
        Err(e) => return Response::error(400, &e),
    };
    let wire = WireConfig::of(&spec.config(c.base()));
    match c.submit(wire, &spec.plan()) {
        Ok(id) => {
            if shared.role == Role::Single {
                let mut lane = shared.lane.lock().expect("lane lock");
                lane.get_or_insert_with(|| spawn_lane(c.clone(), shared.registry.clone()));
            }
            Response::json(
                202,
                format!("{{\"id\":{id},\"state\":\"queued\",\"poll\":\"/v1/campaigns/{id}\"}}"),
            )
        }
        Err(SubmitError::QueueFull) => Response::error(429, "campaign queue is full")
            .with_header("Retry-After", "1".to_string()),
        Err(SubmitError::Draining) => {
            Response::error(503, "server is draining and refuses new campaigns")
        }
    }
}

fn store_query(shared: &Shared, req: &Request) -> Response {
    let c = &shared.coordinator;
    let benchmark = match req.query_param("benchmark").map(Benchmark::parse) {
        Some(Some(b)) => b,
        Some(None) => return Response::error(400, "unknown benchmark"),
        None => return Response::error(400, "missing query parameter \"benchmark\""),
    };
    let scheme = match req.query_param("scheme").map(Scheme::parse) {
        Some(Some(s)) => s,
        Some(None) => return Response::error(400, "unknown scheme"),
        None => return Response::error(400, "missing query parameter \"scheme\""),
    };
    let vcc = match req.query_param("vcc_mv").map(str::parse::<u32>) {
        Some(Ok(mv)) => MilliVolts::new(mv),
        Some(Err(_)) => return Response::error(400, "\"vcc_mv\" must be an integer"),
        None => return Response::error(400, "missing query parameter \"vcc_mv\""),
    };
    let mut maps = None;
    let mut trace_instrs = None;
    let mut seed = None;
    for (param, name) in [(&mut maps, "maps"), (&mut seed, "seed")] {
        if let Some(raw) = req.query_param(name) {
            match raw.parse::<u64>() {
                Ok(v) => *param = Some(v),
                Err(_) => return Response::error(400, &format!("{name:?} must be an integer")),
            }
        }
    }
    if let Some(raw) = req.query_param("trace_instrs") {
        match raw.parse::<usize>() {
            Ok(v) => trace_instrs = Some(v),
            Err(_) => return Response::error(400, "\"trace_instrs\" must be an integer"),
        }
    }
    let base = WireConfig::of(c.base());
    let wire = WireConfig {
        maps: maps.unwrap_or(base.maps),
        trace_instrs: trace_instrs.unwrap_or(base.trace_instrs),
        seed: seed.unwrap_or(base.seed),
        ..base
    };
    let key = CellKey::new(benchmark, scheme, vcc);
    let cell = match (c.load(&wire, &key), &shared.role) {
        (None, Role::Worker(coordinator)) => {
            match read_through(coordinator, shared.cfg.read_timeout, &wire, &key) {
                Ok(cell) => cell,
                Err(bad_gateway) => return bad_gateway,
            }
        }
        (cell, _) => cell,
    };
    let Some(cell) = cell else {
        return Response::error(404, "no stored result for this cell at these settings");
    };
    // `Accept: application/octet-stream` selects the cell's canonical
    // binary store encoding; anything else gets the JSON rendering.
    let wants_binary = req
        .header("accept")
        .is_some_and(|v| v.contains("application/octet-stream"));
    if wants_binary {
        Response::binary(200, cell.to_bytes())
    } else {
        Response::json(200, cell_json(&key, &stored_cell_result(&key, cell)))
    }
}

/// Asks the coordinator at `addr` for the stored cell `key` under
/// `wire`, every setting explicit, in its binary encoding: `Ok(None)`
/// when the coordinator has none, a `502` naming it when it cannot
/// answer. The fault model and split threshold are not query parameters;
/// every node takes them from the same base config.
///
/// Each relay is one connection that the coordinator closes: the side
/// that closes first keeps the connection's `TIME_WAIT`, so it sits on
/// the coordinator's listening port instead of taking one of this node's
/// ephemeral ports per query. A kept-alive connection would instead pin
/// one coordinator HTTP thread per relaying thread between queries.
fn read_through(
    addr: &str,
    timeout: Duration,
    wire: &WireConfig,
    key: &CellKey,
) -> Result<Option<StoredCell>, Response> {
    let path = format!(
        "/v1/results?benchmark={}&scheme={}&vcc_mv={}&maps={}&trace_instrs={}&seed={}",
        key.benchmark.name(),
        key.scheme.name(),
        key.vcc_mv,
        wire.maps,
        wire.trace_instrs,
        wire.seed,
    );
    let headers = [
        ("Accept", "application/octet-stream"),
        ("Connection", "close"),
    ];
    let why = match HttpClient::new(addr, timeout).request("GET", &path, &headers, b"") {
        Ok(reply) if reply.status == 404 => return Ok(None),
        Ok(reply) if reply.status == 200 => match StoredCell::from_bytes(&reply.body) {
            Some(cell) => return Ok(Some(cell)),
            None => "answered a cell that does not decode".to_string(),
        },
        Ok(reply) => format!("answered {}", reply.status),
        Err(e) => format!("did not answer: {e:?}"),
    };
    Err(Response::error(502, &format!("coordinator {addr} {why}")))
}

fn healthz(shared: &Arc<Shared>) -> Response {
    let c = &shared.coordinator;
    let uptime_ms = u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX);
    Response::json(
        200,
        api::healthz_json(
            env!("CARGO_PKG_VERSION"),
            shared.role.name(),
            uptime_ms,
            c.queue_depth(),
            c.draining(),
        ),
    )
}

/// Extracts a non-negative integer field from a parsed JSON body.
fn body_u64(v: &Value, key: &str) -> Result<u64, Response> {
    v.get(key)
        .and_then(Value::as_f64)
        .filter(|f| f.fract() == 0.0 && *f >= 0.0)
        .map(|f| f as u64)
        .ok_or_else(|| Response::error(400, &format!("field {key:?} must be an integer")))
}

/// The worker-facing endpoints of a coordinator node. All bodies are
/// JSON; a stale worker id answers `410 Gone` so the worker rejoins.
fn cluster_route(c: &Coordinator, method: &str, path: &str, req: &Request) -> Response {
    let now = Instant::now();
    let parse_body = || -> Result<Value, Response> {
        std::str::from_utf8(&req.body)
            .map_err(|_| Response::error(400, "request body is not UTF-8"))
            .and_then(|b| {
                Value::parse(b).map_err(|e| Response::error(400, &format!("invalid JSON: {e}")))
            })
    };
    match (method, path) {
        ("POST", "/v1/cluster/join") => {
            let v = match parse_body() {
                Ok(v) => v,
                Err(r) => return r,
            };
            let name = v.get("name").and_then(Value::as_str).unwrap_or("unnamed");
            let id = c.join(name, now);
            Response::json(200, format!("{{\"worker\":{id}}}"))
        }
        ("POST", "/v1/cluster/heartbeat") => {
            let v = match parse_body() {
                Ok(v) => v,
                Err(r) => return r,
            };
            let worker = match body_u64(&v, "worker") {
                Ok(w) => w,
                Err(r) => return r,
            };
            match c.heartbeat(worker, now) {
                Ok(()) => Response::json(200, "{\"ok\":true}".into()),
                Err(e) => Response::error(410, &e),
            }
        }
        ("POST", "/v1/cluster/lease") => {
            let v = match parse_body() {
                Ok(v) => v,
                Err(r) => return r,
            };
            let worker = match body_u64(&v, "worker") {
                Ok(w) => w,
                Err(r) => return r,
            };
            let max_units = body_u64(&v, "max_units").unwrap_or(1) as usize;
            match c.lease(worker, max_units.min(c.cfg().lease_units).max(1), now) {
                Ok(grants) => {
                    let mut out = String::from("{\"units\":[");
                    for (i, g) in grants.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!(
                            "{{\"campaign\":{},\"index\":{},\"stolen\":{},\"cell\":{},\
                             \"config\":{}}}",
                            g.unit.campaign,
                            g.unit.index,
                            g.stolen,
                            cell_to_json(&g.key),
                            g.wire.to_json(),
                        ));
                    }
                    out.push_str("]}");
                    Response::json(200, out)
                }
                Err(e) => Response::error(410, &e),
            }
        }
        ("POST", "/v1/cluster/complete") => {
            let v = match parse_body() {
                Ok(v) => v,
                Err(r) => return r,
            };
            let (worker, campaign, index) = match (
                body_u64(&v, "worker"),
                body_u64(&v, "campaign"),
                body_u64(&v, "index"),
            ) {
                (Ok(w), Ok(cmp), Ok(i)) => (w, cmp, i as usize),
                (Err(r), _, _) | (_, Err(r), _) | (_, _, Err(r)) => return r,
            };
            let Some(cell) = v
                .get("payload")
                .and_then(Value::as_str)
                .and_then(cell_payload_from_hex)
            else {
                return Response::error(400, "field \"payload\" must be a valid cell image");
            };
            match c.complete(worker, UnitRef { campaign, index }, cell) {
                Ok(()) => Response::json(200, "{\"ok\":true}".into()),
                Err(e) => Response::error(404, &e),
            }
        }
        ("POST", "/v1/cluster/fail") => {
            let v = match parse_body() {
                Ok(v) => v,
                Err(r) => return r,
            };
            let (worker, campaign, index) = match (
                body_u64(&v, "worker"),
                body_u64(&v, "campaign"),
                body_u64(&v, "index"),
            ) {
                (Ok(w), Ok(cmp), Ok(i)) => (w, cmp, i as usize),
                (Err(r), _, _) | (_, Err(r), _) | (_, _, Err(r)) => return r,
            };
            let error = v.get("error").and_then(Value::as_str).unwrap_or("unknown");
            match c.fail(worker, UnitRef { campaign, index }, error, now) {
                Ok(()) => Response::json(200, "{\"ok\":true}".into()),
                Err(e) => Response::error(404, &e),
            }
        }
        ("GET", "/v1/cluster/workers") => {
            let mut out = String::from("[");
            for (i, w) in c.workers(now).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"id\":{},\"name\":\"{}\",\"alive\":{},\"units_done\":{}}}",
                    w.id,
                    dvs_obs::json::json_escape(&w.name),
                    w.alive,
                    w.units_done,
                ));
            }
            out.push(']');
            Response::json(200, out)
        }
        _ => Response::error(404, &format!("no cluster route {method} {path}")),
    }
}

fn begin_shutdown(shared: &Arc<Shared>) -> Response {
    shared.registry.add("serve.shutdowns", 1);
    shared.shutdown.store(true, Ordering::Release);
    shared.cv.notify_all();
    // The accept loop is blocked in accept(); a throwaway connection to
    // ourselves unblocks it so run() can join and drain. The worker that
    // picks the connection up sees EOF and drops it.
    let _ = TcpStream::connect_timeout(&shared.local_addr, Duration::from_secs(1));
    Response::json(200, "{\"draining\":true}".into()).with_close()
}

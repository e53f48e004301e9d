//! The two daemon workloads: `dvs-serve` alone (serve_mixed) and as a
//! coordinator with two workers (cluster_campaign), plus the traced
//! run's pass through them.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dvs_core::{CellKey, EvalConfig, ExperimentPlan, ResultStore, Scheme, StoreKey, StoredCell};
use dvs_serve::api;

use crate::daemon::{self, Daemon, Scratch};
use crate::http::{self, Conn, Sample};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{
    campaign, median_of, mv, render, secs, spec_json, Campaign, Ctx, Kind, Results, Run, Tally,
    ENGINE_THREADS,
};

/// Open-loop query rate, requests per second.
const QUERY_RATE: f64 = 2000.0;

/// Samples per latency window: ten lie beyond each window's p99.
const LATENCY_WINDOW: usize = 1000;

/// A small deterministic generator for picking query targets.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `GET /v1/results` path of `key` under `cfg`.
fn query_path(cfg: &EvalConfig, key: &CellKey) -> String {
    format!(
        "/v1/results?benchmark={}&scheme={}&vcc_mv={}&maps={}&trace_instrs={}&seed={}",
        key.benchmark.name(),
        key.scheme.name(),
        key.vcc_mv,
        cfg.maps,
        cfg.trace_instrs,
        cfg.seed
    )
}

/// A point query and the two bodies a correct server returns for it.
pub struct Query {
    path: String,
    json: Vec<u8>,
    binary: Vec<u8>,
}

impl Query {
    fn for_cells(cfg: &EvalConfig, cells: &[(StoreKey, CellKey, StoredCell)]) -> Vec<Query> {
        cells
            .iter()
            .map(|(_, key, cell)| Query {
                path: query_path(cfg, key),
                json: api::cell_json(key, &api::stored_cell_result(key, cell.clone())).into_bytes(),
                binary: cell.to_bytes(),
            })
            .collect()
    }

    /// Sends query `i` of a seeded random sequence over `conn`; one
    /// request in four asks for the binary encoding. A transport error,
    /// a non-2xx status or a wrong body is a failure.
    fn send(queries: &[Query], conn: &mut Conn, rng: &mut u64, i: u64) -> bool {
        let q = &queries[(splitmix(rng) % queries.len() as u64) as usize];
        let binary = i % 4 == 3;
        let accept = binary.then_some("application/octet-stream");
        let want = if binary { &q.binary } else { &q.json };
        matches!(conn.request("GET", &q.path, accept, b""), Ok(r) if r.ok() && r.body == *want)
    }
}

/// Status polls come every [`FINE_POLL`] for the first
/// [`FINE_POLLING`] of a campaign, so one answered from the store is seen
/// complete within a tenth of a millisecond, and every [`POLL`] after.
const FINE_POLL: Duration = Duration::from_micros(100);
const FINE_POLLING: Duration = Duration::from_millis(10);
const POLL: Duration = Duration::from_millis(2);

/// Submits `spec` and polls until the campaign completes.
pub fn submit_and_wait(conn: &mut Conn, spec: &str) -> Result<Completed, String> {
    let start = Instant::now();
    let reply = conn.post("/v1/campaigns", spec)?;
    let submitted = start.elapsed();
    let id = dvs_obs::json::Value::parse(&reply)
        .ok()
        .and_then(|v| v.get("id").and_then(dvs_obs::json::Value::as_f64))
        .ok_or_else(|| format!("submit answered {reply}"))? as u64;
    let mut first_cell = None;
    let mut polls = Vec::new();
    loop {
        let t = Instant::now();
        let status = conn.get(&format!("/v1/campaigns/{id}"))?;
        polls.push(t.elapsed());
        if first_cell.is_none() && !status.contains("\"cells_done\":0,") {
            first_cell = Some(start.elapsed());
        }
        if status.contains("\"state\":\"complete\"") {
            let results = status
                .find("\"results\":")
                .map(|i| status[i + "\"results\":".len()..status.len() - 1].to_string())
                .ok_or("complete campaign without results")?;
            return Ok(Completed {
                wall: start.elapsed(),
                submitted,
                first_cell: first_cell.unwrap_or_else(|| start.elapsed()),
                polls,
                results,
            });
        }
        if status.contains("\"state\":\"failed\"") || status.contains("\"state\":\"cancelled\"") {
            return Err(format!("campaign {id} ended as {status}"));
        }
        std::thread::sleep(if start.elapsed() < FINE_POLLING {
            FINE_POLL
        } else {
            POLL
        });
    }
}

/// One finished daemon campaign.
pub struct Completed {
    /// Submit to complete.
    pub wall: Duration,
    /// Duration of the submit request.
    pub submitted: Duration,
    /// Submit to the first status with a finished cell.
    pub first_cell: Duration,
    /// Duration of each status poll.
    pub polls: Vec<Duration>,
    /// The `"results"` array as served.
    pub results: String,
}

/// A daemon workload's first campaign computed in process: the reference
/// every daemon result must match byte for byte.
pub struct Reference {
    campaign: Campaign,
    results: Vec<Results>,
}

impl Reference {
    /// Computes the reference of `ctx`'s first campaign.
    pub fn new(ctx: &Ctx) -> Reference {
        let campaign = campaign(ctx, 0);
        let results = campaign.run(None);
        Reference { campaign, results }
    }
}

fn serve_args(ctx: &Ctx, store: &Path, engine_threads: usize) -> Vec<String> {
    let s = &ctx.scale;
    [
        "--store",
        &store.display().to_string(),
        "--engine-threads",
        &engine_threads.to_string(),
        "--maps",
        &s.campaign_maps.to_string(),
        "--trace-instrs",
        &s.campaign_trace.to_string(),
        "--seed",
        &ctx.seed.to_string(),
    ]
    .iter()
    .map(|a| a.to_string())
    .collect()
}

/// Spawns a single-node daemon on `store`, with an engine thread per core
/// of the reference host (so reads beside a campaign meet saturated
/// cores, as in production, where the default is more threads than
/// cores) and HTTP threads enough for the two connections the benchmark
/// holds at once.
pub fn spawn_serve(ctx: &Ctx, store: &Path) -> Result<Daemon, String> {
    let mut args = serve_args(ctx, store, ENGINE_THREADS);
    args.extend(["--threads".to_string(), "2".to_string()]);
    Daemon::spawn(&ctx.serve_bin, &args)
}

/// The in-process fixture a serve_mixed daemon answers queries from.
pub fn serve_fixture(ctx: &Ctx, dir: &Path) -> Result<Vec<Query>, String> {
    let s = &ctx.scale;
    let cfg = EvalConfig {
        maps: s.fixture_maps,
        trace_instrs: s.fixture_trace,
        seed: ctx.seed,
        threads: ctx.threads,
        ..EvalConfig::standard()
    };
    let fixture = Campaign {
        parts: vec![(
            cfg,
            ExperimentPlan::for_grid(
                &s.benchmarks,
                &[
                    Scheme::FfwBbr,
                    Scheme::EightT,
                    Scheme::WilkersonPlus,
                    Scheme::FbaPlus,
                ],
                &mv(&[760, 600, 480, 400]),
            ),
        )],
    };
    let store = ResultStore::open(dir).map_err(|e| format!("open store: {e}"))?;
    let results = fixture.run(Some(&store));
    Ok(Query::for_cells(&cfg, &fixture.stored(&results)))
}

/// Cold campaigns per daemon run: as many as take about two thirds of
/// `--seconds` on the reference host, but a count fixed by `--seconds`,
/// so what the daemons keep per campaign (job table, sync log), and with
/// it their peak RSS, does not depend on the host's speed.
fn cold_campaigns(ctx: &Ctx) -> usize {
    // Seconds per cold campaign on the reference host.
    let nominal = match ctx.kind {
        Kind::ClusterCampaign => 0.6,
        _ => 0.35,
    };
    ((ctx.seconds * 0.65 / nominal).round() as usize).max(3)
}

/// Upper limit of a reader that runs until told to stop.
const READER_LIMIT: Duration = Duration::from_secs(170);

/// Warm resubmits per cold campaign.
const WARM_PER_COLD: usize = 5;

/// Daemon (or cluster) start-ups timed per run; the last one is measured.
const SETUP_SPAWNS: usize = 7;

/// Records the open-loop queries: every one is an operation, and
/// `query_p50_us` is their median latency summarized over windows (see
/// [`stats::Windows`]). The windows' p99 goes to stderr only: on two
/// cores it is set by the scheduler's time slice whenever the engine
/// saturates them, and it moves from run to run by more than any bound
/// the benchmark could hold it to.
fn put_latencies(run: &mut Run, samples: &[Sample]) {
    let mut lat = stats::Windows::new(LATENCY_WINDOW);
    for s in samples {
        lat.push(secs(s.latency()) * 1e6);
    }
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    run.ops(samples.len() as u64, failed);
    match lat.p50() {
        Some(p50) => run.out.put("query_p50_us", p50, "us"),
        None => run.fail(format!(
            "{} queries filled no latency window",
            samples.len()
        )),
    }
    let late = samples
        .iter()
        .map(Sample::lateness)
        .max()
        .unwrap_or_default();
    eprintln!(
        "dvs-perf: {} open-loop queries at {QUERY_RATE}/s in {} windows: p50 {:.1?} us, \
         p99 {:.1?} us, generator at most {:.3} ms late",
        samples.len(),
        lat.windows(),
        lat.p50(),
        lat.p99(),
        secs(late) * 1e3
    );
}

/// [`campaigns`] with open-loop point queries at [`QUERY_RATE`] beside
/// them on one connection; records the queries' latency.
fn campaigns_with_reads(
    ctx: &Ctx,
    addr: &str,
    queries: &[Query],
    run: &mut Run,
    settle: impl FnMut(u64) -> Result<(), String>,
) -> Result<Campaigns, String> {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (measured, samples) = std::thread::scope(|s| {
        let reader = s.spawn(|| open_loop_queries(ctx, start, addr, queries, READER_LIMIT, &stop));
        let measured = campaigns(ctx, addr, run, settle);
        // Short campaigns (smoke sizes) still get two latency windows.
        let least = Duration::from_secs_f64(2.0 * LATENCY_WINDOW as f64 / QUERY_RATE);
        std::thread::sleep(least.saturating_sub(start.elapsed()));
        stop.store(true, Ordering::Release);
        (measured, reader.join().expect("reader thread panicked"))
    });
    put_latencies(run, &samples);
    measured
}

/// Open-loop point queries at [`QUERY_RATE`] until `length` has passed or
/// `stop` is set. Each latency window gets a fresh connection, so the
/// windowed figures average over where the scheduler places the client
/// and its server-side thread.
fn open_loop_queries(
    ctx: &Ctx,
    start: Instant,
    addr: &str,
    queries: &[Query],
    length: Duration,
    stop: &AtomicBool,
) -> Vec<Sample> {
    let mut conn = Conn::new(addr);
    let mut rng = ctx.seed;
    http::open_loop(start, QUERY_RATE, length, stop, |i| {
        if i % LATENCY_WINDOW as u64 == 0 {
            conn = Conn::new(addr);
        }
        Query::send(queries, &mut conn, &mut rng, i)
    })
}

/// Runs the cold campaigns in order over one connection, each followed,
/// once `settle` returns, by [`WARM_PER_COLD`] resubmits of its spec
/// (every cell a store hit), which must return the bytes the cold run
/// returned. Returns the cold and warm times and the cold results.
///
/// The connection is closed while `settle` runs, so that with the
/// reader's the benchmark never holds more than two connections.
fn campaigns(
    ctx: &Ctx,
    addr: &str,
    run: &mut Run,
    mut settle: impl FnMut(u64) -> Result<(), String>,
) -> Result<Campaigns, String> {
    let mut control = Conn::new(addr);
    let mut c = Campaigns::default();
    for rep in 0..cold_campaigns(ctx) as u64 {
        let spec = spec_json(ctx, rep);
        let done = submit_and_wait(&mut control, &spec)?;
        c.cold.push(secs(done.wall));
        control.close();
        settle(rep)?;
        // Reconnect before the timed resubmits.
        control.get("/v1/healthz")?;
        for _ in 0..WARM_PER_COLD {
            let again = submit_and_wait(&mut control, &spec)?;
            c.warm.push(secs(again.wall));
            if again.results != done.results {
                run.fail(format!(
                    "a resubmit of campaign {rep} differs from its cold run"
                ));
            }
        }
        c.served.push(done.results);
    }
    Ok(c)
}

/// What [`campaigns`] measured.
#[derive(Default)]
struct Campaigns {
    cold: Vec<f64>,
    warm: Vec<f64>,
    served: Vec<String>,
}

pub(crate) fn serve_mixed(ctx: &Ctx, scratch: &Scratch, run: &mut Run) -> Result<(), String> {
    let dir = scratch.fresh("store")?;
    let queries = serve_fixture(ctx, &dir)?;

    // Set-up: spawn until healthy, on the filled store; the last daemon
    // stays up.
    let mut setup = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_SPAWNS {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d)?;
        }
        let t = Instant::now();
        daemon = Some(spawn_serve(ctx, &dir)?);
        setup.push(secs(t.elapsed()));
    }
    let daemon = daemon.expect("spawned");

    // Cold and warm campaigns with reads beside them, contending with
    // the engine and the store saves for the two cores.
    let c = campaigns_with_reads(ctx, &daemon.addr, &queries, run, |_| Ok(()))?;
    let hwm = daemon::vm_hwm_kib(daemon.pid()).ok_or("cannot read the daemon's VmHWM")?;
    daemon.shutdown()?;

    finish(ctx, run, &c, &setup, hwm);
    Ok(())
}

/// Checks a daemon workload's results and records its metrics: every
/// cell accounted for, and the first campaign byte-identical to the same
/// spec run in process (and so to the other daemon workload, which
/// submits the same specs).
fn finish(ctx: &Ctx, run: &mut Run, c: &Campaigns, setup: &[f64], hwm_kib: u64) {
    for (rep, results) in c.served.iter().enumerate() {
        let cells = results.matches("\"benchmark\":").count() as u64;
        // An all-links-failed cell is a yield result, not an error.
        let errors = results.matches("\"status\":\"error\"").count()
            - results.matches("failed to link").count();
        run.ops(cells, errors as u64);
        if errors > 0 {
            run.fail(format!("campaign {rep} has {errors} failed cells"));
        }
    }
    let reference = Reference::new(ctx);
    if c.served[0] != render(&reference.results) {
        run.fail("the daemon's results differ from the in-process reference".into());
    }
    run.check_pin(ctx, Tally::of(&reference.campaign, &reference.results));
    run.out.put("setup_s", median_of(setup), "s");
    run.out.put("campaign_s", median_of(&c.cold), "s");
    run.out.put("warm_campaign_s", median_of(&c.warm), "s");
    run.out.put("peak_rss_mb", hwm_kib as f64 / 1024.0, "MiB");
    eprintln!(
        "dvs-perf: {} cold {:.3?}, warm x{}",
        ctx.kind.name(),
        c.cold,
        c.warm.len()
    );
}

/// Coordinator HTTP threads, as the repository's two-worker cluster smoke
/// test sizes them: each worker pins two keep-alive connections, the
/// benchmark holds at most two, and DESIGN.md asks for slack beyond that.
/// With no slack (six threads) a reconnecting client can queue behind the
/// pinned connections: the median read latency of five runs spanned
/// 79–177 µs, against 74–101 µs with twelve threads.
const COORDINATOR_THREADS: &str = "12";

/// A coordinator and its two workers.
pub struct Cluster {
    /// The coordinator (last to stop).
    pub coordinator: Daemon,
    /// The workers.
    pub workers: Vec<Daemon>,
    /// From the coordinator answering to both workers listed alive.
    pub joined: Duration,
}

impl Cluster {
    /// Spawns the coordinator on `store`, then two workers on fresh
    /// stores, and returns once the coordinator lists both as alive.
    pub fn spawn(ctx: &Ctx, scratch: &Scratch, store: &Path) -> Result<Cluster, String> {
        let mut args = serve_args(ctx, store, 1);
        args.extend(["--cluster", "--threads", COORDINATOR_THREADS].map(String::from));
        let coordinator = Daemon::spawn(&ctx.serve_bin, &args)?;
        let join_start = Instant::now();
        let workers = (0..2)
            .map(|w| {
                let mut args = serve_args(ctx, &scratch.fresh(&format!("worker{w}"))?, 1);
                args.extend(
                    [
                        "--join",
                        &coordinator.addr,
                        "--threads",
                        "2",
                        "--worker-name",
                        &format!("w{w}"),
                    ]
                    .map(String::from),
                );
                Daemon::spawn(&ctx.serve_bin, &args)
            })
            .collect::<Result<Vec<_>, String>>()?;
        coordinator.wait_until(|conn| {
            Ok(conn
                .get("/v1/cluster/workers")?
                .matches("\"alive\":true")
                .count()
                == 2)
        })?;
        Ok(Cluster {
            coordinator,
            workers,
            joined: join_start.elapsed(),
        })
    }

    /// Waits until every worker answers point queries for every cell of
    /// campaign `rep`, i.e. has pulled it from the coordinator's sync log.
    pub fn wait_synced(&self, ctx: &Ctx, rep: u64) -> Result<(), String> {
        let c = campaign(ctx, rep);
        let (cfg, plan) = &c.parts[0];
        let paths: Vec<String> = plan.cells().iter().map(|k| query_path(cfg, k)).collect();
        for worker in &self.workers {
            worker.wait_until(|conn| {
                Ok(paths
                    .iter()
                    .all(|p| conn.request("GET", p, None, b"").is_ok_and(|r| r.ok())))
            })?;
        }
        Ok(())
    }

    /// Sum of every node's peak resident set, in KiB.
    pub fn hwm_kib(&self) -> Option<u64> {
        self.nodes().map(|d| daemon::vm_hwm_kib(d.pid())).sum()
    }

    /// Every node, workers first.
    pub fn nodes(&self) -> impl Iterator<Item = &Daemon> {
        self.workers
            .iter()
            .chain(std::iter::once(&self.coordinator))
    }

    /// Drains the workers, then the coordinator.
    pub fn shutdown(self) -> Result<(), String> {
        for w in self.workers {
            w.shutdown()?;
        }
        self.coordinator.shutdown()
    }
}

pub(crate) fn cluster_campaign(ctx: &Ctx, scratch: &Scratch, run: &mut Run) -> Result<(), String> {
    // The coordinator's store also holds the query fixture.
    let dir = scratch.fresh("coordinator")?;
    let queries = serve_fixture(ctx, &dir)?;
    let mut setup = Vec::new();
    let mut cluster = None;
    for _ in 0..SETUP_SPAWNS {
        if let Some(c) = cluster.take() {
            Cluster::shutdown(c)?;
        }
        let t = Instant::now();
        cluster = Some(Cluster::spawn(ctx, scratch, &dir)?);
        setup.push(secs(t.elapsed()));
    }
    let cluster = cluster.expect("spawned");
    let addr = cluster.coordinator.addr.clone();

    // Reads beside the campaigns as on serve_mixed. Warm resubmits wait
    // until both workers have synced the campaign just computed, so they
    // meet a settled cluster every time.
    let c = campaigns_with_reads(ctx, &addr, &queries, run, |rep| {
        cluster.wait_synced(ctx, rep)
    })?;
    let hwm = cluster.hwm_kib().ok_or("cannot read the daemons' VmHWM")?;
    cluster.shutdown()?;
    finish(ctx, run, &c, &setup, hwm);
    Ok(())
}

/// The traced run's daemon pass: repetition 0's cold campaign through the
/// daemons (with open-loop queries beside it on serve_mixed), spans for
/// the campaign and every query, and the service layers' own counters as
/// extras. Returns the daemons' CPU seconds.
pub fn daemon_pass(
    ctx: &Ctx,
    scratch: &Scratch,
    tracer: &mut Tracer,
    extras: &mut BTreeMap<String, f64>,
    run: &mut Run,
    expected: &str,
) -> Result<f64, String> {
    let spec = spec_json(ctx, 0);
    let mut put = |k: &str, v: f64| {
        extras.insert(k.to_string(), v);
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let (done, cpu) = match ctx.kind {
        Kind::ServeMixed => {
            let dir = scratch.fresh("trace-serve")?;
            let queries = serve_fixture(ctx, &dir)?;
            let daemon = spawn_serve(ctx, &dir)?;
            let stop = AtomicBool::new(false);
            let start = Instant::now();
            let (done, samples) = std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    open_loop_queries(ctx, start, &daemon.addr, &queries, READER_LIMIT, &stop)
                });
                let done = submit_and_wait(&mut Conn::new(&daemon.addr), &spec);
                stop.store(true, Ordering::Release);
                (done, reader.join().expect("reader thread panicked"))
            });
            let done = done?;
            campaign_spans(tracer, start, &done);
            for s in &samples {
                let request =
                    tracer.record("http.request", start + s.due, start + s.done, None, None);
                tracer.record(
                    "http.exchange",
                    start + s.sent,
                    start + s.done,
                    Some(request),
                    None,
                );
            }
            let metrics = Conn::new(&daemon.addr).get("/v1/metrics?format=json")?;
            let latencies: Vec<f64> = samples
                .iter()
                .map(|s| s.latency().as_secs_f64() * 1e6)
                .collect();
            let failed = samples.iter().filter(|s| !s.ok).count() as u64;
            run.ops(samples.len() as u64, failed);
            let server_us = metric(
                &metrics,
                &["volatile", "timings", "serve.request_nanos", "p50"],
            )? / 1e3;
            put("serve.server_us", server_us);
            put(
                "serve.queue_wait_us",
                stats::median(&latencies).unwrap_or(0.0) - server_us,
            );
            put("serve.first_cell_ms", ms(done.first_cell));
            put(
                "serve.generator_late_ms",
                ms(samples
                    .iter()
                    .map(Sample::lateness)
                    .max()
                    .unwrap_or_default()),
            );
            put(
                "serve.requests",
                metric(&metrics, &["counters", "serve.requests"])?,
            );
            put("serve.requests_failed", failed as f64);
            let cpu =
                daemon::cpu_seconds(daemon.pid()).ok_or("cannot read the daemon's CPU time")?;
            daemon.shutdown()?;
            (done, cpu)
        }
        Kind::ClusterCampaign => {
            let cluster = Cluster::spawn(ctx, scratch, &scratch.fresh("trace-coordinator")?)?;
            put("cluster.join_ms", ms(cluster.joined));
            let worker_cpu = |c: &Cluster| -> Option<f64> {
                c.workers.iter().map(|w| daemon::cpu_seconds(w.pid())).sum()
            };
            let cpu0 = worker_cpu(&cluster).ok_or("cannot read the workers' CPU time")?;
            let start = Instant::now();
            let done = submit_and_wait(&mut Conn::new(&cluster.coordinator.addr), &spec)?;
            let busy = worker_cpu(&cluster).ok_or("cannot read the workers' CPU time")? - cpu0;
            campaign_spans(tracer, start, &done);
            let metrics = Conn::new(&cluster.coordinator.addr).get("/v1/metrics?format=json")?;
            let counter = |name: &str| metric(&metrics, &["counters", name]).unwrap_or(0.0);
            let leases = counter("cluster.leases.granted") + counter("cluster.leases.stolen");
            put("cluster.first_cell_ms", ms(done.first_cell));
            put(
                "cluster.useful_unit_ratio",
                counter("cluster.units.completed") / leases.max(1.0),
            );
            put(
                "cluster.worker_busy_share",
                busy / (2.0 * done.wall.as_secs_f64()),
            );
            for (name, key) in [
                ("cluster.leases_granted", "cluster.leases.granted"),
                ("cluster.leases_stolen", "cluster.leases.stolen"),
                ("cluster.leases_expired", "cluster.leases.expired"),
                ("cluster.units_requeued", "cluster.units.requeued"),
            ] {
                put(name, counter(key));
            }
            let cpu = cluster
                .nodes()
                .map(|d| daemon::cpu_seconds(d.pid()))
                .sum::<Option<f64>>()
                .ok_or("cannot read the daemons' CPU time")?;
            cluster.shutdown()?;
            (done, cpu)
        }
        Kind::SweepFig10 | Kind::LadderYield => return Ok(0.0),
    };
    let prefix = if ctx.kind == Kind::ServeMixed {
        "serve"
    } else {
        "cluster"
    };
    put(&format!("{prefix}.campaign_ms"), ms(done.wall));
    put(
        &format!("{prefix}.submit_us"),
        done.submitted.as_secs_f64() * 1e6,
    );
    let polls: Vec<f64> = done.polls.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    put(
        &format!("{prefix}.poll_us"),
        stats::median(&polls).unwrap_or(0.0),
    );
    if done.results != expected {
        run.fail(format!(
            "{} results differ from the in-process run",
            ctx.kind.name()
        ));
    }
    Ok(cpu)
}

/// Spans of one daemon campaign: submit, the wait for its first finished
/// cell, and the whole campaign around them.
fn campaign_spans(tracer: &mut Tracer, start: Instant, done: &Completed) {
    let campaign = tracer.record("campaign", start, start + done.wall, None, None);
    let submitted = start + done.submitted;
    tracer.record("campaign.submit", start, submitted, Some(campaign), None);
    let first = (start + done.first_cell).max(submitted);
    tracer.record(
        "campaign.first_cell",
        submitted,
        first,
        Some(campaign),
        None,
    );
}

/// The number at `path` inside a `/v1/metrics?format=json` body.
fn metric(body: &str, path: &[&str]) -> Result<f64, String> {
    let v = dvs_obs::json::Value::parse(body).map_err(|e| format!("metrics: {e}"))?;
    path.iter()
        .try_fold(&v, |v, k| v.get(k))
        .and_then(dvs_obs::json::Value::as_f64)
        .ok_or_else(|| format!("metrics have no {}", path.join("/")))
}

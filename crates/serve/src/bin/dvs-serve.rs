//! `dvs-serve` — the campaign server daemon.
//!
//! Binds a TCP listener (port 0 picks an ephemeral port and prints it),
//! starts the node's coordinator over a shared result store, and serves
//! the JSON API until `POST /v1/admin/shutdown` drains it. The first
//! stdout line is always `dvs-serve listening on http://ADDR`, flushed
//! before any request is served, so scripts can scrape the bound port.
//!
//! Every node tracks its campaigns in a coordinator. Without `--cluster`
//! an in-process lane runs them; `--cluster` leaves them to joined
//! workers instead (campaigns shard into leased work units); `--join
//! ADDR` makes the node a worker of the coordinator at ADDR and nothing
//! else: it refuses campaigns and reads a `/v1/results` query its own
//! store misses through to the coordinator.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use dvs_cluster::{spawn_worker, ClusterConfig, Coordinator, WorkerConfig};
use dvs_core::{EvalConfig, ResultStore};
use dvs_obs::MetricsRegistry;
use dvs_serve::{Role, Server, ServerConfig};

const USAGE: &str = "usage: dvs-serve [options]
  --listen ADDR            bind address (default 127.0.0.1:7570; port 0 = ephemeral)
  --threads N              HTTP worker threads (default 4)
  --engine-threads N       worker threads per campaign (default: EvalConfig::standard)
  --queue-depth N          campaigns that may wait for their first lease (default 8)
  --max-conns N            connections admitted at once (default 256)
  --store DIR              result-store directory (default: the store's default dir)
  --store-max-bytes N      cap the store's on-disk size; coldest cells evict first
  --no-store               run without a persistent store
  --maps N                 default fault maps per cell
  --trace-instrs N         default dynamic instructions per trial
  --seed N                 default root seed
  --timeout-ms N           per-connection read/write timeout (default 10000)
cluster mode:
  --cluster                coordinate a worker fleet (campaigns shard into cells; needs a store)
  --join ADDR              run as a worker of the coordinator at ADDR (needs a store;
                           refuses campaigns, reads point-query misses through to ADDR)
  --worker-name NAME       name this worker reports (default worker-<pid>)
  --lease-ttl-ms N         coordinator: lease/worker TTL (default 5000)
  --steal-after-ms N       coordinator: duplicate-dispatch threshold (default 3000)
  --retry-backoff-ms N     coordinator: requeue backoff step (default 500)
  --max-attempts N         coordinator: retries before a unit fails (default 5)
  --lease-units N          cells per lease (both roles, default 2)
  --heartbeat-ms N         worker: heartbeat period (default 1000)
  -h, --help               this text";

struct Options {
    listen: String,
    server: ServerConfig,
    base: EvalConfig,
    store_dir: Option<String>,
    no_store: bool,
    cluster: bool,
    join: Option<String>,
    worker_name: Option<String>,
    cluster_cfg: ClusterConfig,
    heartbeat: Duration,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            listen: "127.0.0.1:7570".to_string(),
            server: ServerConfig::default(),
            base: EvalConfig::standard(),
            store_dir: None,
            no_store: false,
            cluster: false,
            join: None,
            worker_name: None,
            cluster_cfg: ClusterConfig::default(),
            heartbeat: Duration::from_millis(1000),
        }
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<Options>, String> {
    let mut opts = Options::default();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        let int = |flag: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects an integer"))
        };
        match arg.as_str() {
            "--listen" => opts.listen = value("--listen")?,
            "--threads" => {
                opts.server.http_threads = int("--threads", value("--threads")?)? as usize;
            }
            "--engine-threads" => {
                opts.base.threads = int("--engine-threads", value("--engine-threads")?)? as usize;
            }
            "--queue-depth" => {
                opts.cluster_cfg.queue_depth =
                    int("--queue-depth", value("--queue-depth")?)? as usize;
            }
            "--max-conns" => {
                opts.server.max_conns = int("--max-conns", value("--max-conns")?)? as usize;
            }
            "--store" => opts.store_dir = Some(value("--store")?),
            "--store-max-bytes" => {
                opts.base.store_max_bytes =
                    Some(int("--store-max-bytes", value("--store-max-bytes")?)?);
            }
            "--no-store" => opts.no_store = true,
            "--maps" => opts.base.maps = int("--maps", value("--maps")?)?,
            "--trace-instrs" => {
                opts.base.trace_instrs = int("--trace-instrs", value("--trace-instrs")?)? as usize;
            }
            "--seed" => opts.base.seed = int("--seed", value("--seed")?)?,
            "--timeout-ms" => {
                let ms = int("--timeout-ms", value("--timeout-ms")?)?;
                opts.server.read_timeout = Duration::from_millis(ms);
                opts.server.write_timeout = Duration::from_millis(ms);
            }
            "--cluster" => opts.cluster = true,
            "--join" => opts.join = Some(value("--join")?),
            "--worker-name" => opts.worker_name = Some(value("--worker-name")?),
            "--lease-ttl-ms" => {
                opts.cluster_cfg.lease_ttl =
                    Duration::from_millis(int("--lease-ttl-ms", value("--lease-ttl-ms")?)?);
            }
            "--steal-after-ms" => {
                opts.cluster_cfg.steal_after =
                    Duration::from_millis(int("--steal-after-ms", value("--steal-after-ms")?)?);
            }
            "--retry-backoff-ms" => {
                opts.cluster_cfg.retry_backoff =
                    Duration::from_millis(int("--retry-backoff-ms", value("--retry-backoff-ms")?)?);
            }
            "--max-attempts" => {
                opts.cluster_cfg.max_attempts =
                    int("--max-attempts", value("--max-attempts")?)? as u32;
            }
            "--lease-units" => {
                opts.cluster_cfg.lease_units =
                    int("--lease-units", value("--lease-units")?)? as usize;
            }
            "--heartbeat-ms" => {
                opts.heartbeat =
                    Duration::from_millis(int("--heartbeat-ms", value("--heartbeat-ms")?)?);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if opts.cluster && opts.join.is_some() {
        return Err("--cluster and --join are mutually exclusive".to_string());
    }
    if opts.join.is_some() && opts.no_store {
        return Err("--join needs a result store (drop --no-store)".to_string());
    }
    if opts.cluster && opts.no_store {
        return Err("--cluster needs a result store (drop --no-store)".to_string());
    }
    Ok(Some(opts))
}

fn run(opts: Options) -> Result<(), String> {
    let store = if opts.no_store {
        None
    } else {
        let store = match &opts.store_dir {
            Some(dir) => ResultStore::open(dir),
            None => ResultStore::open_default(),
        }
        .map_err(|e| format!("cannot open result store: {e}"))?;
        // The evaluators also apply the cap via `EvalConfig`, but setting
        // it here bounds the store even before any campaign runs.
        store.set_max_bytes(opts.base.store_max_bytes);
        Some(store)
    };

    let registry = Arc::new(MetricsRegistry::new());
    let coordinator = Arc::new(Coordinator::new(
        opts.cluster_cfg,
        opts.base,
        store.clone(),
        registry.clone(),
    ));
    let role = match (opts.cluster, &opts.join) {
        (true, _) => Role::Coordinator,
        (false, Some(coordinator)) => Role::Worker(coordinator.clone()),
        (false, None) => Role::Single,
    };
    let server = Server::bind(
        opts.listen.as_str(),
        opts.server,
        role,
        coordinator,
        registry.clone(),
    )
    .map_err(|e| format!("cannot bind {}: {e}", opts.listen))?;

    let worker = match &opts.join {
        Some(coordinator) => {
            let mut cfg = WorkerConfig::new(
                coordinator.clone(),
                opts.base,
                store.clone().expect("--join requires a store"),
            );
            if let Some(name) = &opts.worker_name {
                cfg.name = name.clone();
            }
            cfg.lease_units = opts.cluster_cfg.lease_units;
            cfg.heartbeat = opts.heartbeat;
            Some(spawn_worker(cfg, registry))
        }
        None => None,
    };

    println!("dvs-serve listening on http://{}", server.local_addr());
    std::io::stdout().flush().ok();

    let served = server.run().map_err(|e| format!("server error: {e}"));
    if let Some(worker) = worker {
        worker.stop();
        worker.join();
    }
    served?;
    println!("dvs-serve drained and stopped");
    Ok(())
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(Some(opts)) => match run(opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("dvs-serve: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dvs-serve: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

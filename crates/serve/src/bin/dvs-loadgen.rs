//! `dvs-loadgen` — closed-loop load generator for `dvs-serve`.
//!
//! Each worker thread holds one keep-alive [`HttpClient`] and issues the
//! next request as soon as the previous response is fully read (closed
//! loop: offered load adapts to server latency). Latencies land in a
//! per-thread [`LogHistogram`]; the merged distribution plus error
//! counts print in a stable `key=value` format for scripts. The exit
//! code is non-zero when any transport error or 5xx occurred.
//!
//! A 429 carrying `Retry-After` is admission control, not a failure:
//! the worker sleeps the advertised delay (with multiplicative jitter
//! so a throttled fleet does not reconverge on one instant) and retries
//! the same request, counting it under `throttled` instead of `non2xx`.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dvs_cluster::http::{HttpClient, Reply};
use dvs_obs::LogHistogram;

const USAGE: &str = "usage: dvs-loadgen --addr HOST:PORT [options]
  --addr HOST:PORT   server to load (required)
  --path P           request path (default /v1/healthz)
  --requests N       total requests across all workers (default 1000)
  --concurrency N    worker threads, one connection each (default 4)
  --timeout-ms N     per-connection socket timeout (default 10000)
  -h, --help         this text";

struct Options {
    addr: String,
    path: String,
    requests: u64,
    concurrency: usize,
    timeout: Duration,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: String::new(),
            path: "/v1/healthz".to_string(),
            requests: 1000,
            concurrency: 4,
            timeout: Duration::from_secs(10),
        }
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<Options>, String> {
    let mut opts = Options::default();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        match arg.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--path" => opts.path = value("--path")?,
            "--requests" => {
                opts.requests = value("--requests")?
                    .parse()
                    .map_err(|_| "--requests expects an integer".to_string())?;
            }
            "--concurrency" => {
                opts.concurrency = value("--concurrency")?
                    .parse()
                    .map_err(|_| "--concurrency expects an integer".to_string())?;
            }
            "--timeout-ms" => {
                let ms: u64 = value("--timeout-ms")?
                    .parse()
                    .map_err(|_| "--timeout-ms expects an integer".to_string())?;
                opts.timeout = Duration::from_millis(ms);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if opts.addr.is_empty() {
        return Err("--addr is required".to_string());
    }
    Ok(Some(opts))
}

/// Outcome counters shared by all workers.
#[derive(Default)]
struct Tallies {
    /// Requests issued (claimed from the shared budget).
    issued: AtomicU64,
    /// Transport failures (connect/read/write/parse).
    errors: AtomicU64,
    /// Well-formed responses with a non-2xx status.
    non2xx: AtomicU64,
    /// Responses with a 5xx status (also counted in `non2xx`).
    fivexx: AtomicU64,
    /// 429 responses with `Retry-After` that were backed off and retried.
    throttled: AtomicU64,
}

/// Retries per claimed request before a persistent 429 falls through to
/// the `non2xx` tally, and the longest delay we honour per retry.
const THROTTLE_RETRIES: u32 = 8;
const THROTTLE_CAP: Duration = Duration::from_secs(5);

/// Multiplicative jitter in [0.5, 1.5) from a per-worker xorshift
/// stream; deterministic per worker, decorrelated across the fleet.
struct Jitter(u64);

impl Jitter {
    fn new(worker: usize) -> Self {
        Jitter((worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn scale(&mut self, base: Duration) -> Duration {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        let frac = 0.5 + (self.0 >> 11) as f64 / (1u64 << 53) as f64;
        base.mul_f64(frac)
    }
}

struct WorkerResult {
    latencies_us: LogHistogram,
}

/// The `Retry-After` delay of a reply (delta-seconds form only —
/// HTTP-date values are ignored).
fn retry_after(reply: &Reply) -> Option<Duration> {
    reply
        .header("retry-after")
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_secs)
}

fn worker(index: usize, opts: &Options, tallies: &Tallies) -> WorkerResult {
    let mut latencies = LogHistogram::new();
    let mut jitter = Jitter::new(index);
    let mut client = HttpClient::new(opts.addr.clone(), opts.timeout);
    loop {
        // Claim one request from the shared budget.
        if tallies.issued.fetch_add(1, Ordering::Relaxed) >= opts.requests {
            tallies.issued.fetch_sub(1, Ordering::Relaxed);
            break;
        }
        let mut retries = 0u32;
        loop {
            let started = Instant::now();
            match client.request("GET", &opts.path, &[], b"") {
                Ok(reply) => match retry_after(&reply) {
                    Some(delay) if reply.status == 429 && retries < THROTTLE_RETRIES => {
                        tallies.throttled.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(jitter.scale(delay.min(THROTTLE_CAP)));
                        retries += 1;
                    }
                    _ => {
                        let micros =
                            u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                        latencies.record(micros.max(1));
                        if !(200..300).contains(&reply.status) {
                            tallies.non2xx.fetch_add(1, Ordering::Relaxed);
                            if reply.status >= 500 {
                                tallies.fivexx.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        break;
                    }
                },
                Err(_) => {
                    tallies.errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
    }
    WorkerResult {
        latencies_us: latencies,
    }
}

fn run(opts: &Options) -> Result<bool, String> {
    let tallies = Arc::new(Tallies::default());
    let started = Instant::now();
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.concurrency.max(1))
            .map(|index| {
                let tallies = &tallies;
                scope.spawn(move || worker(index, opts, tallies))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen worker panicked"))
            .collect()
    });
    let elapsed = started.elapsed();

    let mut merged = LogHistogram::new();
    for r in &results {
        merged.merge(&r.latencies_us);
    }
    let issued = tallies.issued.load(Ordering::Relaxed);
    let errors = tallies.errors.load(Ordering::Relaxed);
    let non2xx = tallies.non2xx.load(Ordering::Relaxed);
    let fivexx = tallies.fivexx.load(Ordering::Relaxed);
    let throttled = tallies.throttled.load(Ordering::Relaxed);
    let secs = elapsed.as_secs_f64().max(1e-9);

    println!(
        "requests={issued} errors={errors} non2xx={non2xx} fivexx={fivexx} throttled={throttled} elapsed_ms={}",
        elapsed.as_millis()
    );
    println!("throughput={:.1} req/s", issued as f64 / secs);
    println!(
        "latency_us p50={} p95={} p99={} max={}",
        merged.p50(),
        merged.p95(),
        merged.p99(),
        merged.max()
    );
    Ok(errors == 0 && fivexx == 0)
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(Some(opts)) => match run(&opts) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("dvs-loadgen: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dvs-loadgen: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

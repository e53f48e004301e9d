//! Spawning and stopping `dvs-serve` daemons, and reading process facts
//! from `/proc`.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http::Conn;

/// How long a daemon may take to answer its first health check, or to
/// exit after a shutdown request.
const PATIENCE: Duration = Duration::from_secs(20);

/// A running `dvs-serve`. Dropping it kills the process and waits for it,
/// so no daemon outlives the benchmark.
pub struct Daemon {
    child: Child,
    // Held open until the daemon exits: its last stdout line must not
    // meet a closed pipe.
    stdout: BufReader<ChildStdout>,
    /// The bound `host:port`.
    pub addr: String,
}

impl Daemon {
    /// Starts `bin` with `args` plus an ephemeral `--listen`, and returns
    /// once `GET /v1/healthz` answers.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("dvs-serve listening on http://")
            .map(str::to_string);
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("dvs-serve did not start (first line {line:?})"));
        };
        let daemon = Daemon {
            child,
            stdout,
            addr,
        };
        daemon.wait_until(|conn| conn.get("/v1/healthz").map(|_| true))?;
        Ok(daemon)
    }

    /// Polls `ready` on a fresh connection every millisecond until it
    /// returns `Ok(true)`; the connection is closed afterwards.
    pub fn wait_until(
        &self,
        mut ready: impl FnMut(&mut Conn) -> Result<bool, String>,
    ) -> Result<(), String> {
        let start = Instant::now();
        let mut conn = Conn::new(&self.addr);
        loop {
            match ready(&mut conn) {
                Ok(true) => return Ok(()),
                Ok(false) | Err(_) if start.elapsed() < PATIENCE => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(false) => return Err(format!("{} never became ready", self.addr)),
                Err(e) => return Err(format!("{} never became ready: {e}", self.addr)),
            }
        }
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain and waits for a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::new(&self.addr);
        conn.post("/v1/admin/shutdown", "")?;
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("dvs-serve exited with {status}")),
                Ok(None) if start.elapsed() < PATIENCE => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("dvs-serve did not drain in time".to_string()),
                Err(e) => return Err(format!("waiting for dvs-serve: {e}")),
            }
        }
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// User plus system CPU seconds process `pid` has used (all threads,
/// living and exited), from `/proc/<pid>/stat` at the kernel's 100 Hz
/// clock-tick resolution.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split(' ').collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Host facts recorded beside every result.
pub fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let mem_kib: u64 = meminfo
        .lines()
        .find_map(|l| l.strip_prefix("MemTotal:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0);
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"mem_mib\":{}}}",
        dvs_obs::json::json_escape(model),
        mem_kib / 1024
    )
}

/// The temporary directory tree of one benchmark run, removed on drop.
pub struct Scratch {
    /// Root of the tree.
    pub dir: std::path::PathBuf,
}

impl Scratch {
    /// Creates `<out>/run-<pid>` afresh.
    pub fn new(out: &Path) -> Result<Scratch, String> {
        let dir = out.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    /// A fresh empty subdirectory.
    pub fn fresh(&self, name: &str) -> Result<std::path::PathBuf, String> {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_facts_are_readable() {
        let pid = std::process::id();
        assert!(vm_hwm_kib(pid).is_some_and(|k| k > 0));
        assert!(cpu_seconds(pid).is_some_and(|s| s >= 0.0));
        let facts = dvs_obs::json::Value::parse(&host_facts()).expect("host facts are JSON");
        assert!(
            facts
                .get("nproc")
                .and_then(dvs_obs::json::Value::as_f64)
                .unwrap()
                >= 1.0
        );
    }
}

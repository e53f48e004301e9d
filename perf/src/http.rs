//! The benchmark's HTTP/1.1 client and its open-loop load generator.
//!
//! `dvs_cluster::HttpClient` can neither send an `Accept` header nor
//! return a binary body, and the query mix needs both, so the benchmark
//! carries this small `Content-Length`-framed client of its own.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Largest response head accepted before the peer counts as broken.
const MAX_HEAD: usize = 64 * 1024;
/// Largest response body accepted.
const MAX_BODY: usize = 256 * 1024 * 1024;
/// Read/write timeout of every connection.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// Whether the status is 2xx.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The body as text, or an error naming the status when it is not 2xx.
    pub fn text(self) -> Result<String, String> {
        if !self.ok() {
            return Err(format!(
                "HTTP {}: {}",
                self.status,
                String::from_utf8_lossy(&self.body)
            ));
        }
        String::from_utf8(self.body).map_err(|_| "non-UTF-8 body".to_string())
    }
}

/// A lazily connected keep-alive connection to one server. A transport
/// error drops the socket; the next request reconnects.
#[derive(Debug)]
pub struct Conn {
    addr: String,
    live: Option<(TcpStream, Vec<u8>)>,
}

impl Conn {
    /// A connection to `addr` (`host:port`); nothing is opened yet.
    pub fn new(addr: &str) -> Self {
        Conn {
            addr: addr.to_string(),
            live: None,
        }
    }

    /// Sends one request and reads the whole response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        accept: Option<&str>,
        body: &[u8],
    ) -> io::Result<Reply> {
        let result = self.exchange(method, path, accept, body);
        if result.is_err() {
            self.live = None;
        }
        result
    }

    /// Closes the socket, if open; the next request reconnects.
    pub fn close(&mut self) {
        self.live = None;
    }

    /// `GET path`, requiring a 2xx UTF-8 body.
    pub fn get(&mut self, path: &str) -> Result<String, String> {
        self.request("GET", path, None, b"")
            .map_err(|e| format!("GET {path}: {e}"))?
            .text()
    }

    /// `POST path` with a JSON body, requiring a 2xx UTF-8 reply.
    pub fn post(&mut self, path: &str, body: &str) -> Result<String, String> {
        self.request("POST", path, None, body.as_bytes())
            .map_err(|e| format!("POST {path}: {e}"))?
            .text()
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        accept: Option<&str>,
        body: &[u8],
    ) -> io::Result<Reply> {
        if self.live.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            stream.set_nodelay(true)?;
            self.live = Some((stream, Vec::new()));
        }
        let (stream, buf) = self.live.as_mut().expect("connection just opened");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n",
            self.addr,
            body.len()
        );
        if let Some(accept) = accept {
            head.push_str(&format!("Accept: {accept}\r\n"));
        }
        head.push_str("\r\n");
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body);
        stream.write_all(&wire)?;

        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            if buf.len() > MAX_HEAD {
                return Err(bad("response head too large"));
            }
            fill(stream, buf)?;
        };
        let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        let mut close = false;
        for line in head.split("\r\n").skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
        if length > MAX_BODY {
            return Err(bad("response body too large"));
        }
        let start = head_end + 4;
        while buf.len() < start + length {
            fill(stream, buf)?;
        }
        let reply = Reply {
            status,
            body: buf[start..start + length].to_vec(),
        };
        buf.drain(..start + length);
        if close {
            self.live = None;
        }
        Ok(reply)
    }
}

fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 16 * 1024];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// One open-loop operation, as offsets from the loop's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the schedule said to send.
    pub due: Duration,
    /// When it was sent.
    pub sent: Duration,
    /// When its reply was complete.
    pub done: Duration,
    /// Whether the reply was correct.
    pub ok: bool,
}

impl Sample {
    /// Latency from the due time, which charges a stall to every
    /// operation queued behind it.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the operation.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Sleep-only pacing oversleeps by about the kernel's timer slack; the
/// last stretch before a due time is spun instead. Kept short: on two
/// cores every spinning microsecond is taken from the server.
const SPIN: Duration = Duration::from_micros(100);

/// Runs `op(i)` on a fixed schedule of `rate` operations per second from
/// `start`, one at a time, until `max` has elapsed or `stop` is set. An
/// operation that comes due while an earlier one is still running is
/// sent as soon as that one finishes, late, and its latency is counted
/// from its due time.
pub fn open_loop(
    start: Instant,
    rate: f64,
    max: Duration,
    stop: &AtomicBool,
    mut op: impl FnMut(u64) -> bool,
) -> Vec<Sample> {
    assert!(rate > 0.0, "rate must be positive");
    let mut samples = Vec::with_capacity((rate * max.as_secs_f64()) as usize + 1);
    for i in 0u64.. {
        let due = Duration::from_secs_f64(i as f64 / rate);
        if due >= max || stop.load(Ordering::Acquire) {
            break;
        }
        loop {
            let now = start.elapsed();
            if now >= due {
                break;
            }
            let left = due - now;
            if left > SPIN {
                std::thread::sleep(left - SPIN);
            } else {
                std::hint::spin_loop();
            }
        }
        let sent = start.elapsed();
        let ok = op(i);
        samples.push(Sample {
            due,
            sent,
            done: start.elapsed(),
            ok,
        });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn one_stalled_reply_makes_the_requests_behind_it_late() {
        let stop = AtomicBool::new(false);
        // 1000/s for 60 ms; the op at index 5 stalls for 20 ms.
        let samples = open_loop(
            Instant::now(),
            1000.0,
            Duration::from_millis(60),
            &stop,
            |i| {
                if i == 5 {
                    std::thread::sleep(Duration::from_millis(20));
                }
                true
            },
        );
        assert_eq!(samples.len(), 60);
        let stalled = samples[5];
        assert!(stalled.latency() >= Duration::from_millis(20));
        // Ops 6..=20 came due during the stall: each was sent late, and
        // its latency covers the rest of the stall from its own due time.
        for (k, s) in samples.iter().enumerate().skip(6).take(10) {
            let behind = Duration::from_millis(25 - k as u64);
            assert!(
                s.lateness() + Duration::from_micros(500) >= behind,
                "op {k}: {s:?}"
            );
            assert!(s.latency() >= s.lateness());
        }
        // Once the backlog drains the generator is on time again.
        let last = samples.last().unwrap();
        assert!(last.lateness() < Duration::from_millis(5), "{last:?}");
        // Due times follow the schedule, not the replies.
        assert_eq!(samples[30].due, Duration::from_millis(30));
    }

    #[test]
    fn stop_flag_ends_the_loop() {
        let stop = AtomicBool::new(true);
        assert!(open_loop(
            Instant::now(),
            1000.0,
            Duration::from_secs(5),
            &stop,
            |_| true
        )
        .is_empty());
    }

    #[test]
    fn server_errors_count_as_failures() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let stub = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut buf = Vec::new();
            let mut served = 0;
            while served < 5 {
                let mut chunk = [0u8; 1024];
                let n = stream.read(&mut chunk).expect("read");
                assert!(n > 0, "client hung up early");
                buf.extend_from_slice(&chunk[..n]);
                while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    buf.drain(..end + 4);
                    let body = b"{\"error\":\"boom\"}";
                    let head = format!(
                        "HTTP/1.1 500 Internal Server Error\r\nContent-Length: {}\r\n\r\n",
                        body.len()
                    );
                    stream.write_all(head.as_bytes()).expect("write");
                    stream.write_all(body).expect("write");
                    served += 1;
                }
            }
        });
        let mut conn = Conn::new(&addr);
        let stop = AtomicBool::new(false);
        let samples = open_loop(
            Instant::now(),
            1000.0,
            Duration::from_millis(5),
            &stop,
            |_| {
                conn.request("GET", "/v1/results", None, b"")
                    .is_ok_and(|r| r.ok())
            },
        );
        stub.join().expect("stub");
        assert_eq!(samples.len(), 5);
        assert!(samples.iter().all(|s| !s.ok), "a 500 is a failure");
        // The reply itself parsed: only its status made it a failure.
        let reply = Reply {
            status: 500,
            body: b"x".to_vec(),
        };
        assert!(reply.text().unwrap_err().contains("HTTP 500"));
        // With the stub gone, the connection fails at the transport level.
        assert!(conn.request("GET", "/", None, b"").is_err());
    }
}

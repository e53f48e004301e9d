//! Minimal HTTP/1.1 on `std::net`: the one codec both ends of every
//! connection use.
//!
//! The `dvs-serve` accept loop reads requests with [`HttpConn`]; the
//! cluster worker, `dvs-loadgen` and the test helpers send them with
//! [`HttpClient`]. Only what the campaign API needs, hardened for
//! untrusted peers in both directions: start line + headers +
//! `Content-Length` bodies, keep-alive, and hard limits on head and body
//! size. Chunked transfer encoding is rejected.
//!
//! Requests and replies are read by one routine, [`read_message`], so a
//! lying server meets the same limits and the same typed
//! [`RequestError`] as a lying client. It is generic over [`Read`], so
//! tests feed it byte slices. Every message is written with one
//! `write_all` of head and body together: a split write would meet
//! Nagle's algorithm and delayed ACK, about 40 ms per POST on Linux.
//!
//! The codec lives in `dvs-cluster` because that is the lowest crate
//! both the server and the cluster worker depend on.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Upper bound on a message head: the start line, every header line and
/// the blank line that ends the head, in bytes.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// Default upper bound on a request body (campaign specs are tiny).
pub const DEFAULT_MAX_BODY_BYTES: usize = 1 << 20;

/// Upper bound on a reply body [`HttpClient`] reads.
///
/// No reply a cluster worker reads comes near it. The largest is a cell
/// image a worker node relays from its coordinator (`GET /v1/results`),
/// and every cell reached the coordinator hex-encoded in a `POST
/// /v1/cluster/complete` body, which the server caps at
/// [`DEFAULT_MAX_BODY_BYTES`]. The bound's headroom is for the other
/// clients of this codec, `dvs-loadgen` and the test helpers, which read
/// whole campaigns' status documents.
pub const MAX_REPLY_BODY_BYTES: usize = 2 * 256 * DEFAULT_MAX_BODY_BYTES;

/// Bytes asked of the transport per read.
const READ_CHUNK: usize = 4096;

/// How long [`HttpClient`] waits for the server to close a connection
/// whose last reply said it would.
const SERVER_CLOSE_WAIT: Duration = Duration::from_millis(100);

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Percent-decoded path, without the query string.
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// Exact bytes this request occupied on the wire (head + body).
    pub wire_bytes: usize,
}

impl Request {
    /// First header with the (case-insensitive) `name`.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// First query parameter called `name`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why reading a message failed. On the server each maps onto a status
/// code (or a silent close) in the connection loop; [`HttpClient`]
/// returns it as the transport error.
#[derive(Debug)]
pub enum RequestError {
    /// Clean EOF before any byte of the message — the peer is done.
    Closed,
    /// The read timed out before any byte of the message arrived: an
    /// idle keep-alive connection, or a peer that never answered.
    Idle,
    /// The read timed out mid-message.
    Timeout,
    /// The head exceeded [`MAX_HEADER_BYTES`] (→ 431).
    HeadersTooLarge,
    /// Declared body exceeds the limit in force (→ 413).
    BodyTooLarge {
        /// The limit in force.
        limit: usize,
    },
    /// Anything structurally wrong with the message (→ 400).
    Malformed(String),
    /// Transport error.
    Io(io::Error),
}

/// A message as [`read_message`] frames it; the caller parses the start
/// line.
#[derive(Debug)]
struct Message {
    start_line: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    wire_bytes: usize,
}

/// Reads one message off `stream`. `buf` holds bytes already read and
/// keeps any that follow the message (pipelining), so it never holds
/// more than [`MAX_HEADER_BYTES`] plus `max_body` plus one read.
///
/// `noun` names the message in errors (`request` or `response`).
fn read_message<R: Read>(
    stream: &mut R,
    buf: &mut Vec<u8>,
    max_body: usize,
    noun: &str,
) -> Result<Message, RequestError> {
    // Scan only new bytes for the terminator, and only within the cap:
    // a head that ends past it is too large however it ends.
    let mut scanned = 0;
    let header_end = loop {
        let window = &buf[..buf.len().min(MAX_HEADER_BYTES)];
        if let Some(pos) = window[scanned..].windows(4).position(|w| w == b"\r\n\r\n") {
            break scanned + pos;
        }
        if buf.len() >= MAX_HEADER_BYTES {
            return Err(RequestError::HeadersTooLarge);
        }
        scanned = window.len().saturating_sub(3);
        match fill(stream, buf) {
            Ok(0) if buf.is_empty() => return Err(RequestError::Closed),
            Ok(0) => return Err(RequestError::Malformed(format!("truncated {noun} head"))),
            Ok(_) => {}
            Err(RequestError::Timeout) if buf.is_empty() => return Err(RequestError::Idle),
            Err(e) => return Err(e),
        }
    };

    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| RequestError::Malformed(format!("non-UTF-8 {noun} head")))?;
    let mut lines = head.split("\r\n");
    let start_line = lines.next().unwrap_or_default().to_string();
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(RequestError::Malformed(
            "chunked transfer encoding is not supported".into(),
        ));
    }
    let content_length = match find_header(&headers, "content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| RequestError::Malformed(format!("bad content-length {v:?}")))?,
        None => 0,
    };
    if content_length > max_body {
        return Err(RequestError::BodyTooLarge { limit: max_body });
    }

    let body_start = header_end + 4;
    let wire_bytes = body_start
        .checked_add(content_length)
        .ok_or(RequestError::BodyTooLarge { limit: max_body })?;
    while buf.len() < wire_bytes {
        if fill(stream, buf)? == 0 {
            return Err(RequestError::Malformed(format!("truncated {noun} body")));
        }
    }
    let body = buf[body_start..wire_bytes].to_vec();
    buf.drain(..wire_bytes);
    Ok(Message {
        start_line,
        headers,
        body,
        wire_bytes,
    })
}

/// Appends one read's worth of bytes to `buf`; returns how many (0 at EOF).
fn fill<R: Read>(stream: &mut R, buf: &mut Vec<u8>) -> Result<usize, RequestError> {
    let mut chunk = [0u8; READ_CHUNK];
    match stream.read(&mut chunk) {
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(n)
        }
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Err(RequestError::Timeout)
        }
        Err(e) => Err(RequestError::Io(e)),
    }
}

fn find_header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Parses a request line plus a framed message into a [`Request`].
fn parse_request(msg: Message) -> Result<Request, RequestError> {
    let mut parts = msg.start_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| RequestError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed(format!(
            "unsupported version {version}"
        )));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)
        .ok_or_else(|| RequestError::Malformed("bad percent escape in path".into()))?;
    let mut query = Vec::new();
    for pair in raw_query.unwrap_or_default().split('&') {
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let k = percent_decode(k)
            .ok_or_else(|| RequestError::Malformed("bad percent escape in query".into()))?;
        let v = percent_decode(v)
            .ok_or_else(|| RequestError::Malformed("bad percent escape in query".into()))?;
        query.push((k, v));
    }

    let keep_alive = match find_header(&msg.headers, "connection") {
        Some(v) => !v.eq_ignore_ascii_case("close"),
        // HTTP/1.1 defaults to keep-alive, 1.0 to close.
        None => version != "HTTP/1.0",
    };

    Ok(Request {
        method,
        path,
        query,
        headers: msg.headers,
        body: msg.body,
        keep_alive,
        wire_bytes: msg.wire_bytes,
    })
}

/// Parses a status line plus a framed message into a [`Reply`]; also
/// says whether the server keeps the connection open.
fn parse_reply(msg: Message) -> Result<(Reply, bool), RequestError> {
    let mut parts = msg.start_line.split(' ');
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code.parse::<u16>().ok(),
        _ => None,
    }
    .ok_or_else(|| RequestError::Malformed(format!("bad status line {:?}", msg.start_line)))?;
    let keep_alive =
        !find_header(&msg.headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
    Ok((
        Reply {
            status,
            headers: msg.headers,
            body: msg.body,
        },
        keep_alive,
    ))
}

/// One accepted connection plus its persistent read buffer.
#[derive(Debug)]
pub struct HttpConn {
    stream: TcpStream,
    /// Unconsumed bytes (pipelined requests stay here between reads).
    buf: Vec<u8>,
    max_body: usize,
}

impl HttpConn {
    /// Wraps an accepted stream. Read/write timeouts should already be
    /// set on it.
    pub fn new(stream: TcpStream, max_body: usize) -> Self {
        HttpConn {
            stream,
            buf: Vec::with_capacity(1024),
            max_body,
        }
    }

    /// The underlying stream (for peer-address logging).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Reads and parses one request, honouring the connection's size
    /// limits.
    ///
    /// # Errors
    ///
    /// See [`RequestError`]; `Closed` is the normal end of a keep-alive
    /// session.
    pub fn read_request(&mut self) -> Result<Request, RequestError> {
        read_message(&mut self.stream, &mut self.buf, self.max_body, "request")
            .and_then(parse_request)
    }

    /// Serializes and writes one response; returns the bytes written.
    ///
    /// # Errors
    ///
    /// Returns the underlying transport error.
    pub fn write_response(&mut self, resp: &Response) -> io::Result<usize> {
        let bytes = resp.to_wire();
        self.stream.write_all(&bytes)?;
        self.stream.flush()?;
        Ok(bytes.len())
    }
}

/// Decodes `%XX` escapes; returns `None` on malformed escapes or
/// non-UTF-8 results. `+` is left literal (scheme names contain it).
fn percent_decode(s: &str) -> Option<String> {
    if !s.contains('%') {
        return Some(s.to_string());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hi = (hex[0] as char).to_digit(16)?;
            let lo = (hex[1] as char).to_digit(16)?;
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// One HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Extra headers (e.g. `Retry-After`).
    pub extra_headers: Vec<(&'static str, String)>,
    /// Whether to close the connection after this response.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
            close: false,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            extra_headers: Vec::new(),
            close: false,
        }
    }

    /// A binary response carrying raw store-encoded bytes.
    pub fn binary(status: u16, body: Vec<u8>) -> Self {
        Response {
            status,
            content_type: "application/octet-stream",
            body,
            extra_headers: Vec::new(),
            close: false,
        }
    }

    /// A structured JSON error body: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(
            status,
            format!("{{\"error\":\"{}\"}}", dvs_obs::json::json_escape(message)),
        )
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra_headers.push((name, value));
        self
    }

    /// Marks the connection for close after this response.
    #[must_use]
    pub fn with_close(mut self) -> Self {
        self.close = true;
        self
    }

    /// The standard reason phrase for the handful of codes we emit.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes the full response (status line, headers, body).
    pub fn to_wire(&self) -> Vec<u8> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            Response::reason(self.status),
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" },
        );
        let extra = self.extra_headers.iter().map(|(n, v)| (*n, v.as_str()));
        frame(head, extra, &self.body)
    }
}

/// One message in one buffer: `head` (start line and fixed headers),
/// then `headers`, the blank line and `body`.
fn frame<'h>(
    mut head: String,
    headers: impl IntoIterator<Item = (&'h str, &'h str)>,
    body: &[u8],
) -> Vec<u8> {
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// One reply as [`HttpClient`] read it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Headers with lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The body bytes, whatever their encoding.
    pub body: Vec<u8>,
}

impl Reply {
    /// First header with the (case-insensitive) `name`.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// When the body is not UTF-8 (a binary reply).
    pub fn text(&self) -> Result<&str, std::str::Utf8Error> {
        std::str::from_utf8(&self.body)
    }
}

/// A lazily-connected, keep-alive HTTP/1.1 client bound to one server.
///
/// One client owns one connection. It reconnects lazily after any error
/// or a `Connection: close` reply, so callers retry by simply calling
/// again. Replies are read with the server's own limits.
///
/// After a `Connection: close` reply the client waits briefly for the
/// server's close before closing its end. The side that closes first
/// holds the connection's `TIME_WAIT` for a minute, and a client that
/// opens one connection per request would otherwise hold one of its
/// ephemeral ports per request.
#[derive(Debug)]
pub struct HttpClient {
    addr: String,
    timeout: Duration,
    conn: Option<(TcpStream, Vec<u8>)>,
}

impl HttpClient {
    /// Creates a client for `addr` (`host:port`). No connection is made
    /// until the first request.
    pub fn new(addr: impl Into<String>, timeout: Duration) -> Self {
        HttpClient {
            addr: addr.into(),
            timeout,
            conn: None,
        }
    }

    /// Sends one request (`Host`, `Connection: keep-alive` unless
    /// `headers` carry their own `Connection`, `headers`, then
    /// `Content-Length`) and reads the whole reply. A reply of any status
    /// is `Ok`.
    ///
    /// # Errors
    ///
    /// Connect, read and write failures, and replies that break the
    /// codec's limits or framing. The connection is dropped on error;
    /// the next call reconnects.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<Reply, RequestError> {
        let result = self.exchange(method, path, headers, body);
        if !matches!(result, Ok((_, true))) {
            let conn = self.conn.take();
            if let (Ok(_), Some((mut stream, _))) = (&result, conn) {
                // The server closes after this reply. Letting it close
                // first leaves the connection's TIME_WAIT on the server,
                // not on one of this host's ephemeral ports.
                let _ = stream.set_read_timeout(Some(SERVER_CLOSE_WAIT));
                let _ = stream.read(&mut [0]);
            }
        }
        result.map(|(reply, _)| reply)
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<(Reply, bool), RequestError> {
        if self.conn.is_none() {
            let stream = self.connect().map_err(RequestError::Io)?;
            stream
                .set_read_timeout(Some(self.timeout))
                .map_err(RequestError::Io)?;
            stream
                .set_write_timeout(Some(self.timeout))
                .map_err(RequestError::Io)?;
            self.conn = Some((stream, Vec::new()));
        }
        let (stream, buf) = self.conn.as_mut().expect("connection just ensured");
        let wire = request_wire(method, path, &self.addr, headers, body);
        stream.write_all(&wire).map_err(RequestError::Io)?;
        read_message(stream, buf, MAX_REPLY_BODY_BYTES, "response").and_then(parse_reply)
    }

    /// Connects to the first of the address's resolutions that answers
    /// within the client's timeout, so a host that drops connection
    /// attempts costs the timeout, not the kernel's SYN retries.
    fn connect(&self) -> io::Result<TcpStream> {
        let mut last = io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing");
        for addr in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, self.timeout) {
                Ok(stream) => return Ok(stream),
                Err(e) => last = e,
            }
        }
        Err(last)
    }
}

/// Serializes one request: `Host`, `Connection: keep-alive` unless
/// `headers` carry their own `Connection`, `headers`, then
/// `Content-Length`.
fn request_wire(
    method: &str,
    path: &str,
    host: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {host}\r\n");
    if !headers
        .iter()
        .any(|(name, _)| name.eq_ignore_ascii_case("connection"))
    {
        head.push_str("Connection: keep-alive\r\n");
    }
    let length = body.len().to_string();
    let all = headers
        .iter()
        .copied()
        .chain([("Content-Length", length.as_str())]);
    frame(head, all, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Reads every message in `bytes`, one after another, until the
    /// first error; returns the messages and that error.
    fn read_all(bytes: &[u8], max_body: usize) -> (Vec<Message>, RequestError) {
        let mut stream = bytes;
        let mut buf = Vec::new();
        let mut out = Vec::new();
        loop {
            match read_message(&mut stream, &mut buf, max_body, "request") {
                Ok(m) => out.push(m),
                Err(e) => return (out, e),
            }
        }
    }

    /// Accepts one connection, reads one request off it, and hands the
    /// raw stream to `reply`. Returns the address to send to and the
    /// server thread.
    fn fake_server(
        reply: impl FnOnce(&TcpStream) + Send + 'static,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut conn = HttpConn::new(stream, DEFAULT_MAX_BODY_BYTES);
            conn.read_request().expect("request");
            reply(conn.stream());
        });
        (addr, server)
    }

    #[test]
    fn percent_decoding_handles_escapes_and_rejects_junk() {
        assert_eq!(
            percent_decode("/v1/results").as_deref(),
            Some("/v1/results")
        );
        assert_eq!(percent_decode("FFW%2BBBR").as_deref(), Some("FFW+BBR"));
        assert_eq!(percent_decode("a%20b").as_deref(), Some("a b"));
        // '+' stays literal so `scheme=FFW+BBR` works unescaped.
        assert_eq!(percent_decode("FFW+BBR").as_deref(), Some("FFW+BBR"));
        assert!(percent_decode("%zz").is_none());
        assert!(percent_decode("%2").is_none());
        assert!(percent_decode("%ff").is_none()); // invalid UTF-8
    }

    #[test]
    fn response_serialization_is_well_formed() {
        let r = Response::json(429, "{\"error\":\"queue full\"}".to_string())
            .with_header("Retry-After", "1".to_string());
        let bytes = r.to_wire();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 22\r\n"));
        assert!(text.ends_with("{\"error\":\"queue full\"}"));
    }

    /// The exact response shape the submit handler returns on a full
    /// queue: `Response::error(429, …).with_header("Retry-After", …)`.
    /// The header must serialize and the structured body must survive a
    /// round-trip through the hardened JSON parser.
    #[test]
    fn queue_full_error_response_parses_under_hardened_json() {
        let r = Response::error(429, "campaign queue is full")
            .with_header("Retry-After", "1".to_string());
        let msg = read_message(&mut &r.to_wire()[..], &mut Vec::new(), 1024, "response");
        let (reply, keep_alive) = parse_reply(msg.expect("framed")).expect("status line");
        assert_eq!(reply.status, 429);
        assert!(keep_alive);
        assert_eq!(reply.header("Retry-After"), Some("1"));
        let body = reply.text().expect("UTF-8 body");
        let parsed = dvs_obs::json::Value::parse(body).expect("error body is valid JSON");
        assert_eq!(
            parsed.get("error").and_then(|v| v.as_str()),
            Some("campaign queue is full"),
            "{body}"
        );
    }

    #[test]
    fn terminator_search_finds_header_end() {
        let (msgs, end) = read_all(b"GET / HTTP/1.1\r\n\r\nrest", 0);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].start_line, "GET / HTTP/1.1");
        assert_eq!(msgs[0].wire_bytes, 18);
        assert!(matches!(end, RequestError::Malformed(m) if m == "truncated request head"));
        let (msgs, end) = read_all(b"partial\r\n", 0);
        assert!(msgs.is_empty());
        assert!(matches!(end, RequestError::Malformed(_)));
        assert!(matches!(read_all(b"", 0).1, RequestError::Closed));
    }

    /// A head of exactly [`MAX_HEADER_BYTES`] (terminator included) is
    /// read; one byte more is refused, although its terminator arrived.
    #[test]
    fn head_cap_is_exact() {
        let head = |len: usize| {
            let mut h = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
            h.resize(len - 4, b'p');
            h.extend_from_slice(b"\r\n\r\n");
            h
        };
        let (msgs, _) = read_all(&head(MAX_HEADER_BYTES), 0);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].wire_bytes, MAX_HEADER_BYTES);
        let (msgs, end) = read_all(&head(MAX_HEADER_BYTES + 1), 0);
        assert!(msgs.is_empty());
        assert!(matches!(end, RequestError::HeadersTooLarge), "{end:?}");
    }

    #[test]
    fn request_parsing_covers_target_query_and_keep_alive() {
        let wire = b"post /v1/results?benchmark=crc32&scheme=FFW%2BBBR&flag HTTP/1.0\r\n\
                     Accept: application/octet-stream\r\nContent-Length: 2\r\n\r\nhi";
        let req = parse_request(read_all(wire, 16).0.remove(0)).expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/results");
        assert_eq!(req.query_param("scheme"), Some("FFW+BBR"));
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.header("ACCEPT"), Some("application/octet-stream"));
        assert_eq!(req.body, b"hi");
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
        assert_eq!(req.wire_bytes, wire.len());
        for (bad, why) in [
            (
                &b"GET /%zz HTTP/1.1\r\n\r\n"[..],
                "bad percent escape in path",
            ),
            (b"GET / SPDY/3\r\n\r\n", "unsupported version SPDY/3"),
            (b"GET /\r\n\r\n", "missing HTTP version"),
        ] {
            let err = parse_request(read_all(bad, 0).0.remove(0)).unwrap_err();
            assert!(
                matches!(&err, RequestError::Malformed(m) if m == why),
                "{err:?}"
            );
        }
        let (_, err) = read_all(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 0);
        assert!(matches!(&err, RequestError::Malformed(m) if m.contains("chunked")));
        let (_, err) = read_all(b"POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n", 16);
        assert!(
            matches!(err, RequestError::BodyTooLarge { limit: 16 }),
            "{err:?}"
        );
    }

    /// A read that times out before any byte of a message is `Idle`
    /// (an idle keep-alive connection); once a byte has arrived it is
    /// `Timeout`, also when the bytes were pipelined after a message.
    #[test]
    fn timeout_is_idle_only_before_the_first_byte() {
        /// Yields its bytes, then times out on every read.
        struct Stall<'a>(&'a [u8]);
        impl Read for Stall<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let n = self.0.len().min(out.len());
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let read = |bytes: &[u8]| {
            let mut buf = Vec::new();
            let mut stall = Stall(bytes);
            let mut last = read_message(&mut stall, &mut buf, 64, "request");
            while last.is_ok() {
                last = read_message(&mut stall, &mut buf, 64, "request");
            }
            last.unwrap_err()
        };
        assert!(matches!(read(b""), RequestError::Idle));
        assert!(matches!(
            read(b"GET / HTTP/1.1\r\n\r\n"),
            RequestError::Idle
        ));
        assert!(matches!(read(b"G"), RequestError::Timeout));
        assert!(matches!(
            read(b"GET / HTTP/1.1\r\n\r\nGET"),
            RequestError::Timeout
        ));
        let body_cut = b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\n{}";
        assert!(matches!(read(body_cut), RequestError::Timeout));
    }

    /// A server that declares `usize::MAX` body bytes gets an error, not
    /// an overflowed slice index.
    #[test]
    fn lying_content_length_is_an_error_not_a_panic() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n{}";
        let (addr, server) = fake_server(|mut s| {
            let _ = s.write_all(wire);
        });
        let err = HttpClient::new(addr, Duration::from_secs(5))
            .request("GET", "/", &[], b"")
            .unwrap_err();
        server.join().expect("fake server");
        assert!(
            matches!(err, RequestError::BodyTooLarge { limit } if limit == MAX_REPLY_BODY_BYTES),
            "{err:?}"
        );
        // With no limit at all, the arithmetic is still checked.
        let err = read_message(&mut &wire[..], &mut Vec::new(), usize::MAX, "response");
        assert!(
            matches!(err, Err(RequestError::BodyTooLarge { .. })),
            "{err:?}"
        );
    }

    /// A server that never ends its head: the client gives up once the
    /// head passes the cap, instead of buffering (and rescanning) all of
    /// it until the peer closes.
    #[test]
    fn endless_head_errors_at_the_cap_without_buffering_the_rest() {
        let (addr, server) = fake_server(|mut s| {
            let _ = s.write_all(b"HTTP/1.1 200 OK\r\nX-Endless: ");
            let chunk = [b'x'; 64 * 1024];
            // 32 MiB, or until the client hangs up.
            for _ in 0..512 {
                if s.write_all(&chunk).is_err() {
                    break;
                }
            }
        });
        let err = HttpClient::new(addr, Duration::from_secs(30))
            .request("GET", "/", &[], b"")
            .unwrap_err();
        assert!(matches!(err, RequestError::HeadersTooLarge), "{err:?}");
        // The client hung up, so the server's writes fail and it stops.
        server.join().expect("fake server");

        // The reader itself pulls no more than the cap plus one read.
        struct Endless(usize);
        impl Read for Endless {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                out.fill(b'x');
                self.0 += out.len();
                Ok(out.len())
            }
        }
        let mut peer = Endless(0);
        let mut buf = Vec::new();
        let err = read_message(&mut peer, &mut buf, MAX_REPLY_BODY_BYTES, "response");
        assert!(matches!(err, Err(RequestError::HeadersTooLarge)), "{err:?}");
        assert!(peer.0 <= MAX_HEADER_BYTES + READ_CHUNK, "pulled {}", peer.0);
        assert!(buf.len() <= MAX_HEADER_BYTES + READ_CHUNK, "{}", buf.len());
    }

    #[test]
    fn keep_alive_requests_reuse_one_connection_and_errors_reconnect() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let mut accepted = 0usize;
            // First connection serves two requests then closes; the
            // client must transparently reconnect for the third.
            for served_per_conn in [2usize, 1] {
                let (stream, _) = listener.accept().expect("accept");
                accepted += 1;
                let mut conn = HttpConn::new(stream, DEFAULT_MAX_BODY_BYTES);
                for _ in 0..served_per_conn {
                    let req = conn.read_request().expect("request");
                    assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/x"));
                    assert_eq!(req.header("content-type"), Some("application/json"));
                    conn.write_response(&Response::json(200, "{\"ok\":true}".into()))
                        .expect("write");
                }
            }
            accepted
        });

        let mut client = HttpClient::new(addr, Duration::from_secs(5));
        let json = [("Content-Type", "application/json")];
        for _ in 0..2 {
            let reply = client.request("POST", "/x", &json, b"{}").expect("request");
            assert_eq!(reply.status, 200);
            assert_eq!(reply.text(), Ok("{\"ok\":true}"));
        }
        // The server closed the first connection; this request fails,
        // and the retry reconnects.
        let retried = client
            .request("POST", "/x", &json, b"{}")
            .or_else(|_| client.request("POST", "/x", &json, b"{}"))
            .expect("retry after reconnect");
        assert_eq!(retried.status, 200);
        assert_eq!(server.join().expect("server"), 2);
    }
}

/// Property tests of the shared reader: whatever bytes arrive, in
/// whatever pieces, it returns a message or a typed error, never panics,
/// and never buffers past the head cap plus one read plus the body limit.
#[cfg(test)]
mod props {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Feeds `data` in pieces of the given sizes (cycled), counting the
    /// bytes handed out.
    struct Trickle<'a> {
        data: &'a [u8],
        sizes: &'a [usize],
        reads: usize,
        pulled: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.reads % self.sizes.len()];
            self.reads += 1;
            let n = size.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            self.pulled += n;
            Ok(n)
        }
    }

    /// Reads messages off `data` until the first error, checking the
    /// buffer bound around every call; returns the messages read.
    fn read_checked(
        data: &[u8],
        sizes: &[usize],
        max_body: usize,
    ) -> Result<Vec<Message>, TestCaseError> {
        let mut stream = Trickle {
            data,
            sizes,
            reads: 0,
            pulled: 0,
        };
        let mut buf = Vec::new();
        let mut consumed = 0;
        let mut out = Vec::new();
        loop {
            let result = read_message(&mut stream, &mut buf, max_body, "request");
            // The buffer peaks just before the message is drained: it
            // then holds everything pulled and not yet consumed.
            let peak = stream.pulled - consumed;
            prop_assert!(
                peak <= MAX_HEADER_BYTES + READ_CHUNK + max_body,
                "buffer peaked at {peak} bytes"
            );
            match result {
                Ok(m) => {
                    consumed += m.wire_bytes;
                    prop_assert_eq!(buf.len(), stream.pulled - consumed);
                    out.push(m);
                }
                Err(_) => return Ok(out),
            }
        }
    }

    /// Letters only (header names, path segments, query keys).
    fn token(seed: &[u8]) -> String {
        seed.iter().map(|b| char::from(b'a' + b % 26)).collect()
    }

    /// Visible ASCII without spaces (header values survive trimming).
    fn visible(seed: &[u8]) -> String {
        seed.iter().map(|b| char::from(b'!' + b % 94)).collect()
    }

    /// Text with the characters a query value must escape, plus its
    /// `%XX` encoding.
    fn escaped(seed: &[u8]) -> (String, String) {
        const CHARS: &[u8] = b"ab+ &=%?/#z";
        let plain: String = seed
            .iter()
            .map(|b| char::from(CHARS[usize::from(*b) % CHARS.len()]))
            .collect();
        let encoded = plain
            .bytes()
            .map(|b| {
                if b.is_ascii_alphanumeric() || b == b'+' {
                    char::from(b).to_string()
                } else {
                    format!("%{b:02X}")
                }
            })
            .collect();
        (plain, encoded)
    }

    /// A request as [`HttpClient`] would send it, plus what reading it
    /// must give back: (method, path, query, extra headers, body).
    type Sent = (
        String,
        String,
        Vec<(String, String)>,
        Vec<(String, String)>,
        Vec<u8>,
    );

    fn client_request(
        method_ix: usize,
        path_seed: &[u8],
        query_seeds: &[Vec<u8>],
        header_seeds: &[Vec<u8>],
        body: &[u8],
    ) -> (Vec<u8>, Sent) {
        let method = ["GET", "POST", "PUT", "DELETE"][method_ix % 4].to_string();
        let path = format!("/v1/{}", token(path_seed));
        let mut target = path.clone();
        let mut query = Vec::new();
        for (i, seed) in query_seeds.iter().enumerate() {
            let key = format!("k{}", token(&seed[..seed.len().min(3)]));
            let (plain, encoded) = escaped(seed);
            target.push(if i == 0 { '?' } else { '&' });
            target.push_str(&format!("{key}={encoded}"));
            query.push((key, plain));
        }
        // Mixed-case names that collide with no framing header.
        let headers: Vec<(String, String)> = header_seeds
            .iter()
            .map(|seed| {
                let name = format!("X-{}", token(&seed[..seed.len().min(6)]).to_uppercase());
                (name, visible(seed))
            })
            .collect();
        let pairs: Vec<(&str, &str)> = headers
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let wire = request_wire(&method, &target, "node:1", &pairs, body);
        (wire, (method, path, query, headers, body.to_vec()))
    }

    fn check_request(msg: Message, sent: &Sent) -> Result<(), TestCaseError> {
        let (method, path, query, headers, body) = sent;
        let wire_bytes = msg.wire_bytes;
        let req = parse_request(msg).map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
        prop_assert_eq!(&req.method, method);
        prop_assert_eq!(&req.path, path);
        prop_assert_eq!(&req.query, query);
        prop_assert_eq!(&req.body, body);
        prop_assert!(req.keep_alive);
        prop_assert_eq!(req.wire_bytes, wire_bytes);
        prop_assert_eq!(req.header("host"), Some("node:1"));
        let length = body.len().to_string();
        prop_assert_eq!(req.header("content-length"), Some(length.as_str()));
        for (name, value) in headers {
            prop_assert!(
                req.headers
                    .iter()
                    .any(|(k, v)| *k == name.to_ascii_lowercase() && v == value),
                "header {name} lost"
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Two pipelined requests in one buffer, sent in arbitrary
        /// pieces, read back field for field; the body limit is exactly
        /// the larger body.
        fn requests_round_trip(
            method_ix in 0usize..4,
            path_seed in vec(any::<u8>(), 0..12),
            query_seeds in vec(vec(any::<u8>(), 1..10), 0..4),
            header_seeds in vec(vec(any::<u8>(), 1..40), 0..6),
            body in vec(any::<u8>(), 0..600),
            second_body in vec(any::<u8>(), 0..60),
            sizes in vec(1usize..5000, 1..6),
        ) {
            let (mut wire, first) =
                client_request(method_ix, &path_seed, &query_seeds, &header_seeds, &body);
            let (second_wire, second) =
                client_request(method_ix + 1, &body, &[], &[], &second_body);
            wire.extend_from_slice(&second_wire);
            let limit = body.len().max(second_body.len());
            let msgs = read_checked(&wire, &sizes, limit)?;
            prop_assert_eq!(msgs.len(), 2);
            let mut msgs = msgs.into_iter();
            check_request(msgs.next().expect("first"), &first)?;
            check_request(msgs.next().expect("second"), &second)?;
        }

        /// Two pipelined responses (JSON, text or binary, with extra
        /// headers) read back as the client sees them.
        fn responses_round_trip(
            status_ix in 0usize..6,
            kind in 0usize..3,
            body in vec(any::<u8>(), 0..800),
            retry_after in vec(any::<u8>(), 0..8),
            close: bool,
            sizes in vec(1usize..5000, 1..6),
        ) {
            let status = [200, 202, 400, 404, 429, 503][status_ix];
            let text = String::from_utf8_lossy(&body).into_owned();
            let mut first = match kind {
                0 => Response::json(status, text),
                1 => Response::text(status, text),
                _ => Response::binary(status, body.clone()),
            };
            if !retry_after.is_empty() {
                first = first.with_header("Retry-After", visible(&retry_after));
            }
            if close {
                first = first.with_close();
            }
            let second = Response::binary(200, body.iter().rev().copied().collect());
            let mut wire = first.to_wire();
            wire.extend_from_slice(&second.to_wire());
            let msgs = read_checked(&wire, &sizes, first.body.len().max(body.len()))?;
            prop_assert_eq!(msgs.len(), 2);
            for (msg, sent) in msgs.into_iter().zip([&first, &second]) {
                let (reply, keep_alive) =
                    parse_reply(msg).map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
                prop_assert_eq!(reply.status, sent.status);
                prop_assert_eq!(&reply.body, &sent.body);
                prop_assert_eq!(keep_alive, !sent.close);
                prop_assert_eq!(reply.header("content-type"), Some(sent.content_type));
                for (name, value) in &sent.extra_headers {
                    prop_assert_eq!(reply.header(name), Some(value.as_str()));
                }
            }
        }

        /// Arbitrary bytes, and well-formed messages truncated,
        /// bit-flipped, with a lying `Content-Length`, or spliced into
        /// one another: each read returns a message or a typed error.
        fn hostile_input_never_panics(
            noise in vec(any::<u8>(), 0..12_000),
            body in vec(any::<u8>(), 0..300),
            header_seeds in vec(vec(any::<u8>(), 1..40), 0..4),
            cut in any::<usize>(),
            flips in vec(any::<u32>(), 1..8),
            lie in any::<u64>(),
            near_lie in 0usize..8,
            splice in any::<usize>(),
            max_body in 0usize..400,
            sizes in vec(1usize..5000, 1..6),
        ) {
            let (mut valid, _) = client_request(1, &body, &[], &header_seeds, &body);
            valid.extend_from_slice(&Response::binary(200, body.clone()).to_wire());
            read_checked(&noise, &sizes, max_body)?;
            // Noise after a well-formed head, and a head that never ends.
            let mut noisy = valid.clone();
            noisy.extend_from_slice(&noise);
            read_checked(&noisy, &sizes, max_body)?;

            read_checked(&valid[..cut % (valid.len() + 1)], &sizes, max_body)?;

            let mut flipped = valid.clone();
            for f in &flips {
                let at = *f as usize % flipped.len();
                flipped[at] ^= 1 << (f >> 29);
            }
            read_checked(&flipped, &sizes, max_body)?;

            for declared in [lie.to_string(), (body.len() + near_lie).to_string(),
                             body.len().saturating_sub(near_lie).to_string()] {
                let mut lying =
                    format!("POST / HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n").into_bytes();
                lying.extend_from_slice(&body);
                lying.extend_from_slice(&valid);
                read_checked(&lying, &sizes, max_body.max(body.len()))?;
            }

            let at = splice % (valid.len() + 1);
            let mut spliced = valid[..at].to_vec();
            spliced.extend_from_slice(&noisy[(at / 2).min(noisy.len())..]);
            spliced.extend_from_slice(&valid[at..]);
            read_checked(&spliced, &sizes, max_body)?;
        }
    }
}

//! Incremental HTTP/1.1 request parsing and response serialization.
//!
//! The reader is deliberately defensive: every way a peer can misbehave —
//! garbage bytes, a truncated head, an oversized header block, a body
//! larger than advertised limits, a mid-request stall — surfaces as a typed
//! [`RecvError`] that maps to a clean 4xx response (or a silent close),
//! never a panic. The chaos suite in `tests/chaos.rs` drives this parser
//! through `dc-fault` wrappers to pin that contract.
//!
//! Parsing is incremental over any [`Read`]: bytes accumulate in a
//! per-connection buffer, so pipelined requests that arrive in one TCP
//! segment are handed out one at a time with no data loss between calls.

use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Hard limits a connection enforces while reading requests.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum bytes of request line + headers (431 beyond this).
    pub max_head_bytes: usize,
    /// Maximum declared/actual body size (413 beyond this).
    pub max_body_bytes: usize,
    /// How long a connection may sit idle between requests before the
    /// server closes it (no error response; the peer just went away).
    pub idle_timeout: Duration,
    /// How long a single request may take to arrive once its first byte
    /// has been seen (408 beyond this).
    pub read_timeout: Duration,
    /// Deadline for writing a response before the connection is dropped.
    pub write_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
            idle_timeout: Duration::from_secs(15),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// Request methods the API layer routes on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Method {
    Get,
    Post,
    Head,
    /// Anything else; routed to 405 by the API layer.
    Other(String),
}

impl Method {
    pub fn as_str(&self) -> &str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
            Method::Other(s) => s,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: Method,
    /// Path component of the request target (before any `?`).
    pub path: String,
    /// Raw query string (after `?`), if any.
    pub query: Option<String>,
    /// Header pairs in arrival order; names lower-cased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Whether the connection may serve another request afterwards.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a (lower-case) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each variant maps to a well-defined
/// close behavior via [`RecvError::response`].
#[derive(Debug)]
pub enum RecvError {
    /// Clean EOF before any byte of a request: the peer closed. Silent.
    Closed,
    /// The idle deadline passed with no request bytes. Silent close.
    IdleTimeout,
    /// The server is shutting down and no request was in flight. Silent.
    ShuttingDown,
    /// A request started arriving but stalled past the read deadline → 408.
    Timeout,
    /// Request line + headers exceeded [`Limits::max_head_bytes`] → 431.
    HeadTooLarge,
    /// Declared or delivered body exceeded [`Limits::max_body_bytes`] → 413.
    BodyTooLarge,
    /// Syntactically invalid input → 400. The string says what broke.
    Malformed(String),
    /// Syntactically valid but unimplemented (e.g. chunked bodies) → 501.
    Unsupported(String),
    /// Transport error mid-read. Connection is unusable; close silently.
    Io(std::io::Error),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Closed => write!(f, "connection closed by peer"),
            RecvError::IdleTimeout => write!(f, "idle timeout"),
            RecvError::ShuttingDown => write!(f, "server shutting down"),
            RecvError::Timeout => write!(f, "request read timed out"),
            RecvError::HeadTooLarge => write!(f, "request head too large"),
            RecvError::BodyTooLarge => write!(f, "request body too large"),
            RecvError::Malformed(m) => write!(f, "malformed request: {m}"),
            RecvError::Unsupported(m) => write!(f, "unsupported request: {m}"),
            RecvError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

impl RecvError {
    /// The error response owed to the peer, or `None` when the connection
    /// should simply be closed.
    pub fn response(&self) -> Option<Response> {
        let (status, msg) = match self {
            RecvError::Timeout => (408, "request timed out".to_string()),
            RecvError::HeadTooLarge => (431, "request header fields too large".to_string()),
            RecvError::BodyTooLarge => (413, "request body too large".to_string()),
            RecvError::Malformed(m) => (400, m.clone()),
            RecvError::Unsupported(m) => (501, m.clone()),
            _ => return None,
        };
        Some(Response::error(status, &msg))
    }
}

/// Bytes one read may add to an [`HttpReader`]'s buffer.
const READ_CHUNK: usize = 64 * 1024;

/// Reads requests incrementally from `inner`, carrying leftover bytes
/// between calls so pipelined requests are never dropped.
///
/// Each read lands straight in the reader's buffer, up to 64 KiB at a
/// time, and a consumed request only advances an offset; the buffer is
/// compacted or grown (zero-filling only the growth) when a read needs
/// room. A head is parsed once: [`request_buffered`](Self::request_buffered)
/// and [`next_request`](Self::next_request) share that parse.
///
/// For network streams, set the socket read timeout to a short slice (the
/// server uses [`HttpReader::POLL_SLICE`]); `next_request` treats
/// `WouldBlock`/`TimedOut` as "no bytes yet" and re-checks its own idle /
/// read deadlines and the shutdown flag, which keeps the blocking read
/// responsive to graceful shutdown without platform-specific polling.
pub struct HttpReader<R> {
    inner: R,
    /// Unconsumed bytes are `buf[start..end]`; the rest is read room.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The parsed head of the request at `start`, or why it failed.
    head: Option<Result<Head, RecvError>>,
    limits: Limits,
}

/// A parsed request head whose body may still be arriving.
struct Head {
    request: Request,
    /// Bytes of request line, headers and the blank line.
    len: usize,
    body_len: usize,
}

impl<R: Read> HttpReader<R> {
    /// Socket-level read timeout the server pairs with this reader, so a
    /// blocked read wakes often enough to notice deadlines and shutdown.
    pub const POLL_SLICE: Duration = Duration::from_millis(50);

    pub fn new(inner: R, limits: Limits) -> Self {
        HttpReader {
            inner,
            buf: Vec::new(),
            start: 0,
            end: 0,
            head: None,
            limits,
        }
    }

    /// Bytes buffered but not yet consumed (start of a pipelined request).
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Whether [`next_request`](Self::next_request) would return without
    /// reading: a whole request, or a head that already fails, is
    /// buffered. Never reads.
    pub fn request_buffered(&mut self) -> bool {
        self.parse_buffered_head()
            && self
                .whole_len()
                .is_none_or(|whole| self.buffered() >= whole)
    }

    /// Reads the next request. `stop`, when provided and raised, aborts
    /// cleanly *between* requests (a request whose bytes have started
    /// arriving is still read to completion so it can be answered before
    /// the connection drains).
    pub fn next_request(&mut self, stop: Option<&AtomicBool>) -> Result<Request, RecvError> {
        let started = Instant::now();
        let mut saw_bytes = self.buffered() > 0;

        // Phase 1: accumulate until the head terminator.
        while !self.parse_buffered_head() {
            if self.fill(started, saw_bytes, stop)? == 0 {
                return if saw_bytes {
                    Err(RecvError::Malformed(
                        "unexpected end of request head".into(),
                    ))
                } else {
                    Err(RecvError::Closed)
                };
            }
            saw_bytes = true;
        }
        let Some(whole) = self.whole_len() else {
            return Err(self
                .head
                .take()
                .and_then(Result::err)
                .expect("a failed head"));
        };

        // Phase 2: the body, if one was declared.
        while self.buffered() < whole {
            if self.fill(started, true, stop)? == 0 {
                return Err(RecvError::Malformed(
                    "unexpected end of request body".into(),
                ));
            }
        }
        let Some(Ok(Head {
            mut request, len, ..
        })) = self.head.take()
        else {
            unreachable!("the head parsed above");
        };
        request.body = self.buf[self.start + len..self.start + whole].to_vec();
        // Keep pipelined leftovers for the next call.
        self.start += whole;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        Ok(request)
    }

    /// Parses the buffered head once its terminator has arrived (or it
    /// outgrew [`Limits::max_head_bytes`]), keeping the result for the
    /// calls that follow. `false` while the head is still arriving.
    fn parse_buffered_head(&mut self) -> bool {
        if self.head.is_none() {
            let pending = &self.buf[self.start..self.end];
            self.head = match find_head_end(pending) {
                Some(end) if end > self.limits.max_head_bytes => Some(Err(RecvError::HeadTooLarge)),
                Some(end) => Some(parse_head(&pending[..end]).and_then(|request| {
                    let body_len = body_len(&request, &self.limits)?;
                    Ok(Head {
                        request,
                        len: end + 4,
                        body_len,
                    })
                })),
                None if pending.len() > self.limits.max_head_bytes => {
                    Some(Err(RecvError::HeadTooLarge))
                }
                None => None,
            };
        }
        self.head.is_some()
    }

    /// Head plus declared body bytes of the request at `start`, once its
    /// head has parsed.
    fn whole_len(&self) -> Option<usize> {
        match &self.head {
            Some(Ok(head)) => Some(head.len + head.body_len),
            _ => None,
        }
    }

    /// One read into the buffer. Returns bytes added; 0 means EOF.
    /// Timeout-kind errors are folded into deadline/shutdown checks.
    fn fill(
        &mut self,
        started: Instant,
        saw_bytes: bool,
        stop: Option<&AtomicBool>,
    ) -> Result<usize, RecvError> {
        if self.buf.len() - self.end < READ_CHUNK {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
            if self.buf.len() - self.end < READ_CHUNK {
                self.buf.resize(self.end + READ_CHUNK, 0);
            }
        }
        loop {
            match self
                .inner
                .read(&mut self.buf[self.end..self.end + READ_CHUNK])
            {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // No bytes this slice: consult the higher-level clocks.
                    if !saw_bytes {
                        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                            return Err(RecvError::ShuttingDown);
                        }
                        if started.elapsed() >= self.limits.idle_timeout {
                            return Err(RecvError::IdleTimeout);
                        }
                    } else if started.elapsed() >= self.limits.read_timeout {
                        return Err(RecvError::Timeout);
                    }
                    continue;
                }
                Err(e) => return Err(RecvError::Io(e)),
            }
        }
    }
}

/// The body length a request head declares, within `limits`.
fn body_len(request: &Request, limits: &Limits) -> Result<usize, RecvError> {
    match request.header("transfer-encoding") {
        Some(te) if !te.eq_ignore_ascii_case("identity") => Err(RecvError::Unsupported(format!(
            "transfer-encoding {te:?} not implemented"
        ))),
        _ => match request.header("content-length") {
            None => Ok(0),
            Some(raw) => {
                let n: u64 = raw
                    .trim()
                    .parse()
                    .map_err(|_| RecvError::Malformed(format!("invalid content-length {raw:?}")))?;
                if n > limits.max_body_bytes as u64 {
                    return Err(RecvError::BodyTooLarge);
                }
                Ok(n as usize)
            }
        },
    }
}

/// Offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parses request line + headers (everything before the blank line).
fn parse_head(head: &[u8]) -> Result<Request, RecvError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| RecvError::Malformed("request head is not valid UTF-8".into()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| RecvError::Malformed("empty request head".into()))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(RecvError::Malformed(format!(
                "bad request line {request_line:?}"
            )));
        }
    };
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        "HEAD" => Method::Head,
        other if other.chars().all(|c| c.is_ascii_uppercase()) => Method::Other(other.to_string()),
        other => return Err(RecvError::Malformed(format!("bad method {other:?}"))),
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(RecvError::Unsupported(format!(
                "http version {other:?} not implemented"
            )));
        }
    };
    if !target.starts_with('/') {
        return Err(RecvError::Malformed(format!(
            "bad request target {target:?}"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RecvError::Malformed(format!("bad header line {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(RecvError::Malformed(format!("bad header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
        keep_alive: http11,
    };
    request.keep_alive = match request.header("connection").map(str::to_ascii_lowercase) {
        Some(c) if c.contains("close") => false,
        Some(c) if c.contains("keep-alive") => true,
        _ => http11,
    };
    Ok(request)
}

/// A response under construction; serialized by [`Response::append_to`].
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    /// Extra headers beyond the auto-generated ones.
    pub headers: Vec<(String, String)>,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Predictions the body answers, for the server's predictions counter:
    /// the handler counts them where it renders them.
    pub predictions: u64,
}

impl Response {
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.into(),
            predictions: 0,
        }
    }

    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            predictions: 0,
        }
    }

    /// The uniform error payload: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        let escaped = message.replace('\\', "\\\\").replace('"', "\\\"");
        let mut r = Response::json(status, format!("{{\"error\": \"{escaped}\"}}\n"));
        if status == 503 {
            r.headers.push(("Retry-After".into(), "1".into()));
        }
        r
    }

    pub fn header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Appends the serialized status line, headers, and body to `out`,
    /// where a connection gathers what it writes. `head_only` omits the
    /// body (HEAD requests) while keeping the Content-Length honest.
    pub fn append_to(&self, out: &mut Vec<u8>, keep_alive: bool, head_only: bool) {
        use std::io::Write as _;
        // Writing into a Vec cannot fail.
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        if !head_only {
            out.extend_from_slice(&self.body);
        }
    }
}

/// Canonical reason phrases for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(bytes: &[u8]) -> HttpReader<&[u8]> {
        HttpReader::new(bytes, Limits::default())
    }

    #[test]
    fn parses_a_simple_get() {
        let mut r = reader(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        let req = r.next_request(None).unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.query, None);
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_query_string_and_connection_close() {
        let mut r = reader(b"GET /metrics?format=prometheus HTTP/1.1\r\nConnection: close\r\n\r\n");
        let req = r.next_request(None).unwrap();
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query.as_deref(), Some("format=prometheus"));
        assert!(!req.keep_alive);
    }

    #[test]
    fn parses_post_with_body_and_pipelined_followup() {
        let bytes = b"POST /v1/predict HTTP/1.1\r\ncontent-length: 17\r\n\r\n\
                      {\"row\":1,\"col\":2}GET /healthz HTTP/1.1\r\n\r\n";
        let mut r = reader(bytes);
        let first = r.next_request(None).unwrap();
        assert_eq!(first.method, Method::Post);
        assert_eq!(first.body, b"{\"row\":1,\"col\":2}");
        // The pipelined second request survives in the buffer.
        let second = r.next_request(None).unwrap();
        assert_eq!(second.path, "/healthz");
    }

    #[test]
    fn http_1_0_defaults_to_close() {
        let mut r = reader(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!r.next_request(None).unwrap().keep_alive);
        let mut r = reader(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(r.next_request(None).unwrap().keep_alive);
    }

    #[test]
    fn clean_eof_is_closed_mid_head_is_malformed() {
        assert!(matches!(
            reader(b"").next_request(None),
            Err(RecvError::Closed)
        ));
        assert!(matches!(
            reader(b"GET / HTTP/1.1\r\n").next_request(None),
            Err(RecvError::Malformed(_))
        ));
        assert!(matches!(
            reader(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc").next_request(None),
            Err(RecvError::Malformed(_))
        ));
    }

    #[test]
    fn garbage_inputs_are_malformed_not_panics() {
        for garbage in [
            &b"\x00\x01\x02\x03\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET relative HTTP/1.1\r\n\r\n",
            b"G=T / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET / HTTP/1.1\r\n: empty\r\n\r\n",
            b"POST / HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
            b"\xff\xfe / HTTP/1.1\r\n\r\n",
        ] {
            let err = reader(garbage).next_request(None).unwrap_err();
            assert!(
                matches!(err, RecvError::Malformed(_)),
                "{garbage:?} -> {err:?}"
            );
            assert_eq!(err.response().unwrap().status, 400);
        }
    }

    #[test]
    fn unsupported_version_and_chunked_are_501() {
        let err = reader(b"GET / HTTP/2.0\r\n\r\n")
            .next_request(None)
            .unwrap_err();
        assert!(matches!(err, RecvError::Unsupported(_)));
        let err = reader(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n")
            .next_request(None)
            .unwrap_err();
        assert_eq!(err.response().unwrap().status, 501);
    }

    #[test]
    fn oversized_head_and_body_are_rejected() {
        let mut huge = b"GET / HTTP/1.1\r\n".to_vec();
        huge.extend(std::iter::repeat_n(b'a', 20_000));
        let mut r = HttpReader::new(
            &huge[..],
            Limits {
                max_head_bytes: 1024,
                ..Limits::default()
            },
        );
        let err = r.next_request(None).unwrap_err();
        assert!(matches!(err, RecvError::HeadTooLarge));
        assert_eq!(err.response().unwrap().status, 431);

        let body = b"POST / HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n";
        let mut r = HttpReader::new(
            &body[..],
            Limits {
                max_body_bytes: 64,
                ..Limits::default()
            },
        );
        let err = r.next_request(None).unwrap_err();
        assert!(matches!(err, RecvError::BodyTooLarge));
        assert_eq!(err.response().unwrap().status, 413);
    }

    #[test]
    fn responses_serialize_with_auto_headers() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}")
            .header("x-test", "1")
            .append_to(&mut out, true, false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 11"), "{text}");
        assert!(text.contains("connection: keep-alive"), "{text}");
        assert!(text.contains("x-test: 1"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");

        let mut head_only = Vec::new();
        Response::json(200, "{\"ok\":true}").append_to(&mut head_only, false, true);
        let text = String::from_utf8(head_only).unwrap();
        assert!(text.contains("content-length: 11"), "{text}");
        assert!(text.contains("connection: close"), "{text}");
        assert!(text.ends_with("\r\n\r\n"), "{text}");
    }

    #[test]
    fn error_503_carries_retry_after() {
        let r = Response::error(503, "queue full");
        assert!(r
            .headers
            .iter()
            .any(|(k, v)| k == "Retry-After" && v == "1"));
        let r = Response::error(400, "quote \" and backslash \\");
        let body = String::from_utf8(r.body).unwrap();
        serde_json::parse_value(&body).expect("error body must stay valid JSON");
    }

    #[test]
    fn shutdown_flag_aborts_idle_reads() {
        // A reader that always reports WouldBlock simulates an idle socket.
        struct Idle;
        impl Read for Idle {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
            }
        }
        let stop = AtomicBool::new(true);
        let mut r = HttpReader::new(Idle, Limits::default());
        assert!(matches!(
            r.next_request(Some(&stop)),
            Err(RecvError::ShuttingDown)
        ));
    }

    #[test]
    fn idle_and_mid_request_timeouts_are_distinguished() {
        struct Idle;
        impl Read for Idle {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::TimedOut))
            }
        }
        let limits = Limits {
            idle_timeout: Duration::ZERO,
            read_timeout: Duration::ZERO,
            ..Limits::default()
        };
        // Nothing buffered: the peer is idle, close silently.
        let mut r = HttpReader::new(Idle, limits.clone());
        let err = r.next_request(None).unwrap_err();
        assert!(matches!(err, RecvError::IdleTimeout), "{err:?}");
        assert!(err.response().is_none());

        // A partial request is buffered: that's a 408.
        let mut r = HttpReader::new(Idle, limits);
        r.buf.extend_from_slice(b"GET / HT");
        r.end = r.buf.len();
        let err = r.next_request(None).unwrap_err();
        assert!(matches!(err, RecvError::Timeout), "{err:?}");
        assert_eq!(err.response().unwrap().status, 408);
    }

    /// Hands out its bytes `step` at a time; a read past them is a bug
    /// when `strict`, else EOF.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
        strict: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            assert!(
                !(self.strict && self.bytes.is_empty()),
                "read past the input"
            );
            let n = self.step.min(self.bytes.len()).min(out.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn request_buffered_sees_whole_requests_without_reading() {
        let first = b"POST /a HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc";
        let second = b"GET /b HTTP/1.1\r\n\r\n";
        let partial = b"POST /c HTTP/1.1\r\ncontent-length: 5\r\n\r\nxy";
        let bytes = [&first[..], second, partial].concat();
        let mut r = HttpReader::new(
            Trickle {
                bytes: &bytes,
                step: bytes.len(),
                strict: true,
            },
            Limits::default(),
        );
        assert!(!r.request_buffered(), "nothing read yet");
        assert_eq!(r.next_request(None).unwrap().body, b"abc");
        // The rest arrived in the same read; nothing below reads again.
        assert!(r.request_buffered());
        assert!(r.request_buffered(), "asking twice changes nothing");
        assert_eq!(r.next_request(None).unwrap().path, "/b");
        assert!(!r.request_buffered(), "the third body is short");
        assert_eq!(r.buffered(), partial.len());
    }

    #[test]
    fn a_failed_head_is_buffered_and_returned_once_parsed() {
        let bytes = b"GET /ok HTTP/1.1\r\n\r\nGET / HTTP/9\r\n\r\n";
        let mut r = HttpReader::new(
            Trickle {
                bytes,
                step: bytes.len(),
                strict: true,
            },
            Limits::default(),
        );
        assert_eq!(r.next_request(None).unwrap().path, "/ok");
        assert!(r.request_buffered(), "its error is ready without a read");
        let err = r.next_request(None).unwrap_err();
        assert!(matches!(err, RecvError::Unsupported(_)), "{err:?}");
    }

    #[test]
    fn trickled_and_large_pipelines_parse_in_order() {
        // Bodies larger than one read, and reads of a few bytes, give the
        // same requests in the same order.
        let mut bytes = Vec::new();
        let bodies: Vec<Vec<u8>> = (0..6u8)
            .map(|i| vec![b'a' + i; 10 + 40_000 * usize::from(i % 3)])
            .collect();
        for body in &bodies {
            bytes.extend_from_slice(
                format!("POST /p HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len()).as_bytes(),
            );
            bytes.extend_from_slice(body);
        }
        for step in [3, 1000, READ_CHUNK, usize::MAX] {
            let mut r = HttpReader::new(
                Trickle {
                    bytes: &bytes,
                    step,
                    strict: false,
                },
                Limits::default(),
            );
            for body in &bodies {
                assert_eq!(&r.next_request(None).unwrap().body, body, "step {step}");
            }
            assert!(matches!(r.next_request(None), Err(RecvError::Closed)));
            assert!(r.buf.len() <= 2 * READ_CHUNK + 80_100, "step {step}");
        }
    }
}

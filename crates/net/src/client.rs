//! A blocking HTTP/1.1 client over one persistent connection
//! ([`HttpClient`]): what the tests, examples and benchmark drive the
//! server with.
//!
//! Every socket carries connect/read/write deadlines, so an unresponsive
//! peer surfaces as [`ClientError::Timeout`], never a hang, and failures
//! are typed.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Deadlines every client connection applies.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect deadline per resolved address.
    pub connect_timeout: Duration,
    /// Socket read deadline; a stalled response is an error, not a hang.
    pub read_timeout: Duration,
    /// Socket write deadline.
    pub write_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// Why a client call failed. Transport problems keep their `io::Error`
/// source; protocol problems say what byte-level contract broke.
#[derive(Debug)]
pub enum ClientError {
    /// TCP connect failed or exceeded [`ClientConfig::connect_timeout`].
    Connect(io::Error),
    /// The read or write deadline passed mid-request.
    Timeout,
    /// The peer closed the connection before or during a response.
    Closed,
    /// The transport failed mid-request/response.
    Io(io::Error),
    /// The peer's bytes did not parse as an HTTP/1.1 response.
    Malformed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Timeout => write!(f, "request timed out"),
            ClientError::Closed => write!(f, "connection closed by peer"),
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Malformed(m) => write!(f, "malformed response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Connect(e) | ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ClientError> for io::Error {
    fn from(e: ClientError) -> io::Error {
        match e {
            ClientError::Connect(e) | ClientError::Io(e) => e,
            ClientError::Timeout => io::Error::new(io::ErrorKind::TimedOut, "request timed out"),
            ClientError::Closed => {
                io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed by peer")
            }
            ClientError::Malformed(m) => io::Error::new(io::ErrorKind::InvalidData, m),
        }
    }
}

/// Folds a transport error into the typed vocabulary: timeouts and EOFs
/// get their own variants so callers can distinguish "peer slow" from
/// "peer gone" from "wire garbage".
fn classify_io(e: io::Error) -> ClientError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::Timeout,
        io::ErrorKind::UnexpectedEof => ClientError::Closed,
        _ => ClientError::Io(e),
    }
}

/// One parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    pub status: u16,
    /// Header pairs in arrival order; names lower-cased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A persistent connection. Drop to close.
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    /// Bytes read past the previous response (pipelined tail).
    buf: Vec<u8>,
    host: String,
}

impl HttpClient {
    /// Connects with the default deadlines. Kept `io::Result` for the
    /// existing test/bench callers; [`HttpClient::connect_with`] is the
    /// typed entry point.
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Display) -> io::Result<HttpClient> {
        Self::connect_with(addr, &ClientConfig::default()).map_err(io::Error::from)
    }

    /// Connects with explicit deadlines. Every address the name resolves
    /// to is tried under [`ClientConfig::connect_timeout`]; the socket
    /// gets `TCP_NODELAY` plus the read/write deadlines, so no later call
    /// can block forever on an unresponsive peer.
    pub fn connect_with(
        addr: impl ToSocketAddrs + std::fmt::Display,
        config: &ClientConfig,
    ) -> Result<HttpClient, ClientError> {
        let host = addr.to_string();
        let addrs: Vec<_> = addr
            .to_socket_addrs()
            .map_err(ClientError::Connect)?
            .collect();
        let mut last = None;
        let mut stream = None;
        for a in &addrs {
            match TcpStream::connect_timeout(a, config.connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last = Some(e),
            }
        }
        let stream = stream.ok_or_else(|| {
            ClientError::Connect(last.unwrap_or_else(|| {
                io::Error::new(
                    io::ErrorKind::AddrNotAvailable,
                    format!("{host} resolves to nothing"),
                )
            }))
        })?;
        stream.set_nodelay(true).map_err(ClientError::Io)?;
        stream
            .set_read_timeout(Some(config.read_timeout))
            .map_err(ClientError::Io)?;
        stream
            .set_write_timeout(Some(config.write_timeout))
            .map_err(ClientError::Io)?;
        Ok(HttpClient {
            stream,
            buf: Vec::new(),
            host,
        })
    }

    /// Sends one request without waiting for the response — the pipelining
    /// primitive. Follow with one [`read_response`](Self::read_response)
    /// per queued request, in order.
    pub fn send(&mut self, method: &str, path: &str, body: Option<&[u8]>) -> io::Result<()> {
        self.send_typed(method, path, body).map_err(io::Error::from)
    }

    fn send_typed(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<(), ClientError> {
        let body = body.unwrap_or(&[]);
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\n\r\n",
            self.host,
            body.len()
        );
        let mut frame = head.into_bytes();
        frame.extend_from_slice(body);
        self.stream.write_all(&frame).map_err(classify_io)?;
        self.stream.flush().map_err(classify_io)
    }

    pub fn read_response(&mut self) -> io::Result<ClientResponse> {
        self.read_response_typed().map_err(io::Error::from)
    }

    fn read_response_typed(&mut self) -> Result<ClientResponse, ClientError> {
        read_response_typed_from(&mut self.stream, &mut self.buf)
    }

    /// Request + response in one call.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> io::Result<ClientResponse> {
        self.request_typed(method, path, body)
            .map_err(io::Error::from)
    }

    fn request_typed(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<ClientResponse, ClientError> {
        self.send_typed(method, path, body)?;
        self.read_response_typed()
    }

    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    pub fn post_json(&mut self, path: &str, json: &str) -> io::Result<ClientResponse> {
        self.request("POST", path, Some(json.as_bytes()))
    }

    /// Writes raw bytes straight to the socket — the chaos tests use this
    /// to deliver malformed or truncated requests.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Half-closes the write side, signalling EOF to the server while the
    /// response (if any) can still be read.
    pub fn shutdown_write(&mut self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }

    /// Hands over the raw stream (tests that want to read to EOF).
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }
}

fn malformed(msg: String) -> ClientError {
    ClientError::Malformed(msg)
}

/// Reads one response from `r`, honoring bytes left over in `buf` from a
/// previous read and stashing any pipelined tail back into it. Kept
/// `io::Result` for existing callers; errors classify through the typed
/// path internally.
pub fn read_response_from<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<ClientResponse> {
    read_response_typed_from(r, buf).map_err(io::Error::from)
}

fn read_response_typed_from<R: Read>(
    r: &mut R,
    buf: &mut Vec<u8>,
) -> Result<ClientResponse, ClientError> {
    let head_end = loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break end;
        }
        let mut chunk = [0u8; 4096];
        match r.read(&mut chunk).map_err(classify_io)? {
            0 => return Err(ClientError::Closed),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| malformed("response head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.splitn(3, ' ');
    let (proto, code) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if !proto.starts_with("HTTP/1.") {
        return Err(malformed(format!("bad status line {status_line:?}")));
    }
    let status: u16 = code
        .parse()
        .map_err(|_| malformed(format!("bad status code {code:?}")))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let body_len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);

    let body_start = head_end + 4;
    while buf.len() < body_start + body_len {
        let mut chunk = [0u8; 4096];
        match r.read(&mut chunk).map_err(classify_io)? {
            0 => return Err(malformed("connection closed mid-body".into())),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    }
    let body = buf[body_start..body_start + body_len].to_vec();
    buf.drain(..body_start + body_len);
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response_with_body() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                    content-length: 11\r\n\r\n{\"ok\":true}";
        let mut buf = Vec::new();
        let resp = read_response_from(&mut &raw[..], &mut buf).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.body_str(), "{\"ok\":true}");
        assert!(buf.is_empty());
    }

    #[test]
    fn pipelined_responses_come_out_in_order() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 1\r\n\r\nA\
                    HTTP/1.1 404 Not Found\r\ncontent-length: 1\r\n\r\nB";
        let mut cursor = &raw[..];
        let mut buf = Vec::new();
        let first = read_response_from(&mut cursor, &mut buf).unwrap();
        let second = read_response_from(&mut cursor, &mut buf).unwrap();
        assert_eq!((first.status, first.body_str().as_str()), (200, "A"));
        assert_eq!((second.status, second.body_str().as_str()), (404, "B"));
    }

    #[test]
    fn truncation_is_an_error_not_a_hang() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 50\r\n\r\nshort";
        let mut buf = Vec::new();
        let err = read_response_from(&mut &raw[..], &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn typed_errors_classify_transport_failures() {
        let raw: &[u8] = b"";
        let mut buf = Vec::new();
        let err = read_response_typed_from(&mut &raw[..], &mut buf).unwrap_err();
        assert!(matches!(err, ClientError::Closed), "{err:?}");

        struct Stalled;
        impl Read for Stalled {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::from(io::ErrorKind::TimedOut))
            }
        }
        let err = read_response_typed_from(&mut Stalled, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, ClientError::Timeout), "{err:?}");

        // The io::Error conversions keep the kinds distinguishable.
        assert_eq!(
            io::Error::from(ClientError::Timeout).kind(),
            io::ErrorKind::TimedOut
        );
        assert_eq!(
            io::Error::from(ClientError::Closed).kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn unresponsive_peer_times_out_instead_of_hanging() {
        // A listener that accepts and then stays silent: without the read
        // deadline, read_response would block forever.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_secs(2));
            drop(conn);
        });
        let config = ClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(100),
            ..ClientConfig::default()
        };
        let started = std::time::Instant::now();
        let mut client = HttpClient::connect_with(addr, &config).unwrap();
        let err = client.request_typed("GET", "/healthz", None).unwrap_err();
        assert!(matches!(err, ClientError::Timeout), "{err:?}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "read did not honor its deadline"
        );
        server.join().unwrap();
    }
}

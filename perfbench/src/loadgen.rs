//! The HTTP load generator: an open loop that sends on a fixed schedule and
//! a closed loop of pipelined keep-alive connections. One thread per
//! connection; every response is checked by the caller's `verify`.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Checks one response (`request index`, status, body) and returns the
/// predictions it carries.
pub type Verify<'a> = dyn Fn(usize, u16, &[u8]) -> Result<u64, String> + Sync + 'a;

/// How long a request may stay unanswered after its loop ends.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// What one loop saw, counted at the client.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per answered request: milliseconds from its scheduled send (open
    /// loop) or its actual send (closed loop) to its complete response.
    pub latencies_ms: Vec<f64>,
    /// Open loop only: milliseconds each send ran behind its schedule.
    pub late_ms: Vec<f64>,
    /// Requests written.
    pub sent: u64,
    /// Responses received, whatever their status or body.
    pub responses: u64,
    /// Requests answered 200 with a correct body.
    pub completed: u64,
    /// Requests that failed: wrong or non-200 answers, timeouts, resets.
    pub failed: u64,
    /// Predictions in correct answers.
    pub predictions: u64,
    /// Seconds from the first send to the last answer.
    pub elapsed_s: f64,
    /// When the loop started, and when each correct answer arrived.
    pub started: Option<Instant>,
    pub done_at: Vec<Instant>,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

impl Outcome {
    pub fn merge(&mut self, other: Outcome) {
        self.latencies_ms.extend(other.latencies_ms);
        self.late_ms.extend(other.late_ms);
        self.sent += other.sent;
        self.responses += other.responses;
        self.completed += other.completed;
        self.failed += other.failed;
        self.predictions += other.predictions;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.started = self.started.or(other.started);
        self.done_at.extend(other.done_at);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    /// Correct answers per second in each whole `window` since the start.
    /// Medians over windows shrug off a short stall on a shared host.
    pub fn window_rates(&self, window: Duration) -> Vec<f64> {
        let Some(start) = self.started else {
            return Vec::new();
        };
        let whole = (self.elapsed_s / window.as_secs_f64()).floor() as usize;
        let mut counts = vec![0u64; whole];
        for t in &self.done_at {
            let w = (t.duration_since(start).as_secs_f64() / window.as_secs_f64()) as usize;
            if let Some(c) = counts.get_mut(w) {
                *c += 1;
            }
        }
        counts
            .iter()
            .map(|&c| c as f64 / window.as_secs_f64())
            .collect()
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }
}

/// The wire bytes of `POST /v1/predict` with `body`.
pub fn predict_request(body: &str) -> Vec<u8> {
    let mut bytes = format!(
        "POST /v1/predict HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Parses one complete response at the front of `buf`: `(status, body
/// range, bytes consumed)`, or `None` until it is complete.
fn parse_response(buf: &[u8]) -> Result<Option<(u16, std::ops::Range<usize>, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let mut length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().map_err(|_| "bad content-length")?;
            }
        }
    }
    let start = head_end + 4;
    if buf.len() < start + length {
        return Ok(None);
    }
    Ok(Some((status, start..start + length, start + length)))
}

/// One connection's reading side: a buffer of received bytes.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Waits up to `wait` for bytes and returns the next complete response,
    /// if one has arrived. `Err` on a broken connection. The wait is a
    /// `ppoll`, which wakes on data or at the deadline to the microsecond;
    /// a socket read timeout would round up to a whole scheduler tick and
    /// make the open loop send late.
    fn poll(&mut self, wait: Duration) -> Result<Option<(u16, Vec<u8>)>, String> {
        if let Some(resp) = self.take()? {
            return Ok(Some(resp));
        }
        if !readable(&self.stream, wait)? {
            return Ok(None);
        }
        let mut chunk = [0u8; 1 << 16];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                self.take()
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    }

    fn take(&mut self) -> Result<Option<(u16, Vec<u8>)>, String> {
        Ok(parse_response(&self.buf)?.map(|(status, body, used)| {
            let body = self.buf[body].to_vec();
            self.buf.drain(..used);
            (status, body)
        }))
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;

/// Whether `stream` has bytes to read (or is closed) within `wait`.
fn readable(stream: &TcpStream, wait: Duration) -> Result<bool, String> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` and `timeout` are live, properly laid out `pollfd` and
    // `timespec` values for the duration of the call (x86-64 and aarch64
    // Linux: `nfds_t`, `time_t` and `long` are 64-bit); a null signal mask
    // leaves the mask unchanged.
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    if ready < 0 {
        let err = std::io::Error::last_os_error();
        return if err.kind() == ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(err.to_string())
        };
    }
    Ok(ready > 0)
}

/// Records one answer for request `index` sent (or scheduled) at `since`.
fn settle(
    out: &mut Outcome,
    verify: &Verify<'_>,
    index: usize,
    since: Instant,
    resp: (u16, Vec<u8>),
) {
    let (status, body) = resp;
    out.responses += 1;
    match verify(index, status, &body) {
        Ok(predictions) => {
            out.latencies_ms.push(since.elapsed().as_secs_f64() * 1e3);
            out.completed += 1;
            out.done_at.push(Instant::now());
            out.predictions += predictions;
        }
        Err(why) => {
            out.fail(format!("request {index}: {why}"));
        }
    }
}

/// Open loop: request `i` is due at `start + i / rate` and goes out on
/// connection `i % connections` whether or not earlier ones were answered.
/// Latency runs from the due time, so a stall shows in every request
/// scheduled behind it. `requests` are cycled.
pub fn open_loop(
    addr: &str,
    requests: &[Vec<u8>],
    verify: &Verify<'_>,
    rate: f64,
    duration: Duration,
    connections: usize,
) -> Outcome {
    let total = (rate * duration.as_secs_f64()).ceil() as usize;
    let start = Instant::now() + Duration::from_millis(5);
    let due = move |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut out = Outcome {
        started: Some(start),
        ..Outcome::default()
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..connections)
            .map(|lane| {
                s.spawn(move || {
                    let mut out = Outcome::default();
                    let mut conn = match Conn::open(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            out.failed = ((lane..total).step_by(connections)).count() as u64;
                            out.first_error = Some(e);
                            return out;
                        }
                    };
                    let mut next = lane;
                    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::new();
                    let deadline = due(total) + DRAIN_TIMEOUT;
                    loop {
                        let now = Instant::now();
                        while next < total && due(next) <= now {
                            let req = &requests[next % requests.len()];
                            if let Err(e) = conn.stream.write_all(req) {
                                out.fail(format!("send {next}: {e}"));
                                break;
                            }
                            out.late_ms
                                .push(now.saturating_duration_since(due(next)).as_secs_f64() * 1e3);
                            out.sent += 1;
                            inflight.push_back((next, due(next)));
                            next += connections;
                        }
                        if next >= total && inflight.is_empty() {
                            break;
                        }
                        if now > deadline {
                            let left = inflight.len() as u64
                                + ((next..total).step_by(connections)).count() as u64;
                            out.failed += left;
                            out.first_error.get_or_insert("requests timed out".into());
                            break;
                        }
                        let wait = if next < total {
                            due(next).saturating_duration_since(Instant::now())
                        } else {
                            Duration::from_millis(5)
                        };
                        match conn.poll(wait.min(Duration::from_millis(5))) {
                            Ok(Some(resp)) => {
                                let (index, due_at) = inflight
                                    .pop_front()
                                    .expect("a response answers a sent request");
                                settle(&mut out, verify, index, due_at, resp);
                            }
                            Ok(None) => {}
                            Err(e) => {
                                let left = inflight.len() as u64
                                    + ((next..total).step_by(connections)).count() as u64;
                                out.failed += left;
                                out.first_error.get_or_insert(e);
                                break;
                            }
                        }
                    }
                    out.elapsed_s = start.elapsed().as_secs_f64();
                    out
                })
            })
            .collect();
        for w in workers {
            out.merge(w.join().expect("load generator thread panicked"));
        }
    });
    out
}

/// Closed loop: each of `connections` keeps `depth` pipelined requests in
/// flight, sending the next as soon as one is answered, for `duration`.
pub fn closed_loop(
    addr: &str,
    requests: &[Vec<u8>],
    verify: &Verify<'_>,
    duration: Duration,
    connections: usize,
    depth: usize,
) -> Outcome {
    let start = Instant::now();
    let end = start + duration;
    let mut out = Outcome {
        started: Some(start),
        ..Outcome::default()
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..connections)
            .map(|lane| {
                s.spawn(move || {
                    let mut out = Outcome::default();
                    let mut conn = match Conn::open(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            out.fail(e);
                            return out;
                        }
                    };
                    let mut next = lane;
                    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::new();
                    let mut send =
                        |conn: &mut Conn,
                         out: &mut Outcome,
                         inflight: &mut VecDeque<(usize, Instant)>| {
                            let req = &requests[next % requests.len()];
                            match conn.stream.write_all(req) {
                                Ok(()) => {
                                    out.sent += 1;
                                    inflight.push_back((next, Instant::now()));
                                }
                                Err(e) => out.fail(format!("send {next}: {e}")),
                            }
                            next += connections;
                        };
                    for _ in 0..depth {
                        send(&mut conn, &mut out, &mut inflight);
                    }
                    while let Some(&(index, sent_at)) = inflight.front() {
                        if sent_at.elapsed() > DRAIN_TIMEOUT {
                            out.failed += inflight.len() as u64;
                            out.first_error.get_or_insert("requests timed out".into());
                            break;
                        }
                        match conn.poll(Duration::from_millis(5)) {
                            Ok(Some(resp)) => {
                                inflight.pop_front();
                                settle(&mut out, verify, index, sent_at, resp);
                                if Instant::now() < end {
                                    send(&mut conn, &mut out, &mut inflight);
                                }
                            }
                            Ok(None) => {}
                            Err(e) => {
                                out.failed += inflight.len() as u64;
                                out.first_error.get_or_insert(e);
                                break;
                            }
                        }
                    }
                    out.elapsed_s = start.elapsed().as_secs_f64();
                    out
                })
            })
            .collect();
        for w in workers {
            out.merge(w.join().expect("load generator thread panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    /// A one-connection responder that answers every request with an empty
    /// 200, holding the answer to request `stall_at` (and so every later
    /// one) for `stall`.
    fn responder(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = std::io::BufReader::new(stream);
            let mut served = 0usize;
            loop {
                let mut length = 0usize;
                let mut line = String::new();
                loop {
                    line.clear();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return;
                    }
                    if line == "\r\n" {
                        break;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        length = v.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0u8; length];
                reader.read_exact(&mut body).unwrap();
                if served == stall_at {
                    std::thread::sleep(stall);
                }
                served += 1;
                let _ = writer.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok");
            }
        });
        (addr, handle)
    }

    fn accept_ok(_: usize, status: u16, body: &[u8]) -> Result<u64, String> {
        if status == 200 && body == b"ok" {
            Ok(1)
        } else {
            Err(format!("status {status}"))
        }
    }

    #[test]
    fn open_loop_times_from_the_schedule_so_a_stall_shows() {
        // 200 requests/s for 0.5 s; the responder stalls 300 ms before its
        // 10th answer. Requests due during the stall wait for it, and that
        // wait must show in their latency even though each was sent (late
        // or not) only after its predecessor's answer could not arrive.
        let stall = Duration::from_millis(300);
        let (addr, server) = responder(10, stall);
        let requests = vec![predict_request("{}")];
        let out = open_loop(
            &addr,
            &requests,
            &accept_ok,
            200.0,
            Duration::from_millis(500),
            1,
        );
        server.join().unwrap();
        assert_eq!(out.failed, 0, "{:?}", out.first_error);
        assert_eq!(out.completed, 100);
        assert_eq!(out.latencies_ms.len(), 100);
        // Request 11 was due 5 ms after request 10, so it waited ≈ 295 ms.
        assert!(
            out.latencies_ms[11] >= 250.0,
            "stall hidden: request 11 took {} ms",
            out.latencies_ms[11]
        );
        // The stall spans 60 scheduled sends, each of which pays part of it.
        let slow = out.latencies_ms.iter().filter(|&&l| l >= 100.0).count();
        assert!(slow >= 30, "only {slow} requests show the stall");
        // Before the stall the responder keeps up.
        assert!(out.latencies_ms[..10].iter().all(|&l| l < 100.0));
    }

    #[test]
    fn closed_loop_counts_every_answer() {
        let (addr, server) = responder(usize::MAX, Duration::ZERO);
        let requests = vec![predict_request("{}")];
        let out = closed_loop(
            &addr,
            &requests,
            &accept_ok,
            Duration::from_millis(100),
            1,
            4,
        );
        drop(server);
        assert_eq!(out.failed, 0, "{:?}", out.first_error);
        assert_eq!(out.sent, out.completed);
        assert_eq!(out.predictions, out.completed);
        assert!(out.completed >= 4);
    }

    #[test]
    fn a_failing_verify_counts_as_failed() {
        let (addr, server) = responder(usize::MAX, Duration::ZERO);
        let requests = vec![predict_request("{}")];
        let reject = |_: usize, _: u16, _: &[u8]| -> Result<u64, String> { Err("mutated".into()) };
        let out = open_loop(
            &addr,
            &requests,
            &reject,
            100.0,
            Duration::from_millis(100),
            1,
        );
        drop(server);
        assert_eq!(out.completed, 0);
        assert_eq!(out.failed, out.sent);
        assert!(out.first_error.unwrap().contains("mutated"));
    }

    #[test]
    fn responses_split_across_reads_are_reassembled() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloHTTP/1.1 503 X\r\ncontent-length: 0\r\n\r\n";
        for cut in 0..43 {
            assert!(parse_response(&wire[..cut]).unwrap().is_none(), "cut {cut}");
        }
        let (status, body, used) = parse_response(wire).unwrap().unwrap();
        assert_eq!((status, &wire[body]), (200, &b"hello"[..]));
        let (status, body, _) = parse_response(&wire[used..]).unwrap().unwrap();
        assert_eq!((status, body.len()), (503, 0));
    }
}

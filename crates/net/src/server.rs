//! The TCP accept loop, connection lifecycle, and graceful shutdown.
//!
//! Data path: `TcpListener` → accept thread → [`BoundedQueue`] →
//! worker pool → [`HttpReader`] keep-alive loop → [`RequestHandler`] →
//! whatever the handler fronts (a `QueryEngine` for [`AppState`]).
//! Backpressure lives at the queue boundary: a
//! full queue answers `503 Service Unavailable` with `Retry-After: 1` at
//! accept time and closes, so memory stays bounded no matter how fast
//! clients arrive.
//!
//! Shutdown follows the repo-wide `InterruptFlag` pattern: the server
//! watches a shared `AtomicBool` (the CLI passes the SIGINT flag). Once
//! raised, the accept loop stops admitting, the queue closes, queued
//! connections with bytes already in flight are answered, idle keep-alive
//! connections close cleanly, and [`ServerHandle::shutdown`] bounds the
//! whole drain with a deadline — stragglers are detached, never leaked
//! into a hang.

use crate::api;
use crate::http::{HttpReader, Limits, Method, RecvError, Request, Response};
use crate::metrics::ServerMetrics;
use crate::pool::{BoundedQueue, PushError, WorkerPool};
use crate::state::AppState;
use dc_obs::{Field, Obs};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the serving machinery needs from an application: route a request,
/// and expose the metrics/observability sinks the connection loop reports
/// into. [`AppState`] implements this for the query API; tests substitute
/// their own handlers through [`serve_handler`], riding the same accept
/// loop, bounded queue, and drain logic.
pub trait RequestHandler: Send + Sync + 'static {
    /// Routes one request. Must not panic on hostile input. The response's
    /// [`Response::predictions`] is what the predictions counter adds.
    fn handle(&self, req: &Request) -> Response;

    /// The per-server request metrics the connection loop records into.
    fn metrics(&self) -> &ServerMetrics;

    /// The observability handle `net.request` events report through.
    fn obs(&self) -> &Obs;
}

impl RequestHandler for AppState {
    fn handle(&self, req: &Request) -> Response {
        api::handle(self, req)
    }

    fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    fn obs(&self) -> &Obs {
        &self.obs
    }
}

/// Everything tunable about one server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads handling connections.
    pub threads: usize,
    /// Accepted connections that may wait for a worker before 503s start.
    pub queue_depth: usize,
    /// Per-connection parser limits and deadlines.
    pub limits: Limits,
    /// Grace period [`ServerHandle::shutdown`] grants the drain.
    pub shutdown_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            queue_depth: 128,
            limits: Limits::default(),
            shutdown_grace: Duration::from_secs(5),
        }
    }
}

/// A running server. Dropping the handle signals shutdown but does not
/// wait; call [`shutdown`](ServerHandle::shutdown) for the bounded drain.
///
/// Generic over the handler so [`serve_handler`] can front any
/// [`RequestHandler`]; the default keeps `ServerHandle` (=
/// `ServerHandle<AppState>`) signatures short.
pub struct ServerHandle<H: RequestHandler = AppState> {
    addr: SocketAddr,
    state: Arc<H>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    pool: Option<WorkerPool>,
    queue: Arc<BoundedQueue<TcpStream>>,
    grace: Duration,
}

impl<H: RequestHandler> ServerHandle<H> {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn state(&self) -> Arc<H> {
        self.state.clone()
    }

    /// The shutdown flag; raising it from anywhere (e.g. a SIGINT handler)
    /// starts the drain.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        self.stop.clone()
    }

    /// Signals shutdown and waits for the drain: accept loop exits, queued
    /// connections are answered, workers finish. Returns `true` when the
    /// drain completed within the grace period (`false` = stragglers were
    /// detached).
    pub fn shutdown(mut self) -> bool {
        let started = Instant::now();
        self.stop.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.queue.close();
        let drained = match self.pool.take() {
            Some(pool) => pool.join_with_deadline(self.grace),
            None => true,
        };
        if self.state.obs().enabled() {
            self.state.obs().emit(
                "net.shutdown",
                &[
                    Field::new("drained", drained),
                    Field::new("elapsed_millis", started.elapsed().as_millis() as u64),
                ],
            );
        }
        drained
    }

    /// Blocks until the stop flag is raised, then drains. The `serve` CLI
    /// command parks here while workers do everything.
    pub fn wait(self) -> bool {
        while !self.stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown()
    }
}

impl<H: RequestHandler> Drop for ServerHandle<H> {
    fn drop(&mut self) {
        // Best-effort signal so threads don't accept forever; no join here
        // (shutdown() consumes self when the caller wants the drain).
        self.stop.store(true, Ordering::Release);
        self.queue.close();
    }
}

/// Binds and starts serving the single-model query API. Requests are
/// answered from `state`; shutdown triggers when `stop` (typically the
/// process SIGINT flag) goes true.
pub fn serve(
    config: ServerConfig,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
) -> io::Result<ServerHandle> {
    serve_handler(config, state, stop)
}

/// Binds and starts serving an arbitrary [`RequestHandler`] — the same
/// accept loop, bounded queue, worker pool, and graceful drain `serve`
/// gives [`AppState`].
pub fn serve_handler<H: RequestHandler>(
    config: ServerConfig,
    state: Arc<H>,
    stop: Arc<AtomicBool>,
) -> io::Result<ServerHandle<H>> {
    let listener = TcpListener::bind(&config.addr)?;
    // Nonblocking accept + short sleeps keeps the loop responsive to the
    // stop flag without platform polling APIs.
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let queue: Arc<BoundedQueue<TcpStream>> = BoundedQueue::new(config.queue_depth);
    let limits = config.limits.clone();
    let pool = {
        let state = state.clone();
        let stop = stop.clone();
        WorkerPool::spawn(
            queue.clone(),
            config.threads,
            "dc-net-worker",
            move |conn| {
                handle_connection(&*state, conn, &limits, &stop);
            },
        )
    };

    let accept = {
        let state = state.clone();
        let stop = stop.clone();
        let queue = queue.clone();
        let write_timeout = config.limits.write_timeout;
        std::thread::Builder::new()
            .name("dc-net-accept".to_string())
            .spawn(move || accept_loop(listener, queue, state, stop, write_timeout))?
    };

    if state.obs().enabled() {
        let addr_text = addr.to_string();
        state.obs().emit(
            "net.listen",
            &[
                Field::new("addr", addr_text.as_str()),
                Field::new("threads", config.threads as u64),
                Field::new("queue_depth", config.queue_depth as u64),
            ],
        );
    }

    Ok(ServerHandle {
        addr,
        state,
        stop,
        accept: Some(accept),
        pool: Some(pool),
        queue,
        grace: config.shutdown_grace,
    })
}

fn accept_loop<H: RequestHandler>(
    listener: TcpListener,
    queue: Arc<BoundedQueue<TcpStream>>,
    state: Arc<H>,
    stop: Arc<AtomicBool>,
    write_timeout: Duration,
) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((conn, _peer)) => match queue.try_push(conn) {
                Ok(()) => {}
                Err(PushError::Full(conn)) | Err(PushError::Closed(conn)) => {
                    reject(conn, &*state, write_timeout);
                }
            },
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // Transient accept errors (e.g. EMFILE); back off briefly
                // rather than spinning or dying.
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    // Listener drops here: new connections are refused at the TCP level
    // while queued ones drain.
}

/// Output bytes a connection gathers before writing them, even while
/// more whole requests are buffered.
const WRITE_CAP: usize = 64 * 1024;

/// Answers a connection the queue refused: 503 + Retry-After, then close.
fn reject<H: RequestHandler>(mut conn: TcpStream, state: &H, write_timeout: Duration) {
    state.metrics().record_rejected(state.obs());
    let _ = conn.set_write_timeout(Some(write_timeout));
    let mut out = Vec::new();
    Response::error(503, "server is at capacity, retry shortly").append_to(&mut out, false, false);
    let _ = flush(&mut conn, &mut out);
}

/// Writes what `out` gathered in one `write_all` and empties it.
fn flush(conn: &mut TcpStream, out: &mut Vec<u8>) -> io::Result<()> {
    if out.is_empty() {
        return Ok(());
    }
    let wrote = conn.write_all(out);
    out.clear();
    // A huge answer should not pin its memory for the connection's life.
    out.shrink_to(2 * WRITE_CAP);
    wrote
}

/// Serves one connection to completion: keep-alive loop, typed error
/// responses, metrics, and the `net.request` event per answered request.
fn handle_connection<H: RequestHandler>(
    state: &H,
    conn: TcpStream,
    limits: &Limits,
    stop: &AtomicBool,
) {
    state.metrics().connection_opened();
    serve_connection(state, conn, limits, stop);
    state.metrics().connection_closed();
}

/// The keep-alive loop. Responses gather in one output buffer while the
/// reader already holds the next whole request (a pipelined burst), and
/// the buffer is written once: when no whole request is buffered, when
/// keep-alive ends, with an error response last, or past [`WRITE_CAP`].
/// Every request is counted before its bytes join the buffer, so before
/// the client can see them.
fn serve_connection<H: RequestHandler>(
    state: &H,
    conn: TcpStream,
    limits: &Limits,
    stop: &AtomicBool,
) {
    // Accepted sockets must block with a short poll slice so reads notice
    // deadlines and the stop flag (see HttpReader docs). Nagle would add
    // whole milliseconds to small keep-alive responses, so it goes off.
    let _ = conn.set_nodelay(true);
    if conn.set_nonblocking(false).is_err()
        || conn
            .set_read_timeout(Some(HttpReader::<TcpStream>::POLL_SLICE))
            .is_err()
        || conn.set_write_timeout(Some(limits.write_timeout)).is_err()
    {
        return;
    }
    let mut writer = match conn.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = HttpReader::new(conn, limits.clone());
    let mut out = Vec::new();

    loop {
        match reader.next_request(Some(stop)) {
            Ok(req) => {
                let started = Instant::now();
                let resp = state.handle(&req);
                // Stop renewing keep-alive once shutdown begins, past the
                // requests already buffered, so drains terminate instead
                // of waiting out idle timeouts.
                let keep =
                    req.keep_alive && (!stop.load(Ordering::Acquire) || reader.request_buffered());
                let head_only = req.method == Method::Head;
                // Count the request before the client can see its response,
                // so a `/metrics` read issued after it always includes it.
                state.metrics().record_request(
                    state.obs(),
                    req.method.as_str(),
                    &req.path,
                    resp.status,
                    started.elapsed(),
                    resp.predictions,
                );
                resp.append_to(&mut out, keep, head_only);
                if !keep {
                    let _ = flush(&mut writer, &mut out);
                    return;
                }
                if (out.len() >= WRITE_CAP || !reader.request_buffered())
                    && flush(&mut writer, &mut out).is_err()
                {
                    return;
                }
            }
            Err(err) => {
                if let Some(resp) = err.response() {
                    state.metrics().record_request(
                        state.obs(),
                        "-",
                        "-",
                        resp.status,
                        Duration::ZERO,
                        0,
                    );
                    resp.append_to(&mut out, false, false);
                } else if matches!(err, RecvError::Io(_)) && state.obs().enabled() {
                    let text = err.to_string();
                    state
                        .obs()
                        .emit("net.conn_error", &[Field::new("error", text.as_str())]);
                }
                let _ = flush(&mut writer, &mut out);
                return;
            }
        }
    }
}

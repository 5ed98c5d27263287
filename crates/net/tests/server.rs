//! End-to-end integration tests over real loopback sockets: the JSON API,
//! keep-alive and pipelining, queue backpressure (503), graceful shutdown
//! draining in-flight work, and the no-connection-leak invariant.

use dc_net::{
    serve, serve_handler, AppState, HttpClient, Limits, Request, RequestHandler, Response,
    ServerConfig, ServerHandle, ServerMetrics,
};
use dc_obs::{MemorySink, Obs};
use dc_serve::ServeModel;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn model_8x8() -> ServeModel {
    let mut m = dc_matrix::DataMatrix::builder(8, 8).build();
    for r in 0..6 {
        for c in 0..6 {
            m.set(r, c, (3 * r + c) as f64);
        }
    }
    let cluster = dc_floc::DeltaCluster::from_indices(8, 8, 0..6, 0..6);
    ServeModel::new(m, vec![cluster], vec![0.0], 0.0).unwrap()
}

struct Fixture {
    handle: Option<ServerHandle>,
    state: Arc<AppState>,
}

impl Fixture {
    fn start(config: ServerConfig, obs: Obs) -> Fixture {
        let state = Arc::new(AppState::new(model_8x8(), Some("it.dcm"), 2, obs));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = serve(config, state.clone(), stop).expect("bind loopback");
        Fixture {
            handle: Some(handle),
            state,
        }
    }

    fn quick() -> Fixture {
        Fixture::start(
            ServerConfig {
                limits: Limits {
                    idle_timeout: Duration::from_millis(500),
                    ..Limits::default()
                },
                ..ServerConfig::default()
            },
            Obs::null(),
        )
    }

    fn addr(&self) -> std::net::SocketAddr {
        self.handle.as_ref().unwrap().addr()
    }

    /// Shuts down and asserts the leak-freedom invariant.
    fn finish(mut self) {
        let handle = self.handle.take().unwrap();
        assert!(handle.shutdown(), "drain must complete within grace");
        let snap = self.state.metrics.snapshot();
        assert_eq!(
            snap.connections_opened, snap.connections_closed,
            "connection leak: {snap:?}"
        );
        assert_eq!(snap.active_connections, 0);
    }
}

#[test]
fn end_to_end_api_surface() {
    let fx = Fixture::quick();
    let mut c = HttpClient::connect(fx.addr()).unwrap();

    let health = c.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body_str().contains("\"status\": \"ok\""));

    let ready = c.get("/readyz").unwrap();
    assert_eq!(ready.status, 200);

    let meta = c.get("/v1/model").unwrap();
    assert_eq!(meta.status, 200);
    let parsed = serde_json::parse_value(&meta.body_str()).unwrap();
    let fields = parsed.as_object().unwrap();
    assert!(fields.iter().any(|(k, _)| k == "fingerprint"));

    let hit = c
        .post_json("/v1/predict", "{\"row\": 2, \"col\": 3}")
        .unwrap();
    assert_eq!(hit.status, 200);
    assert!(hit.body_str().contains("\"outcome\": \"hit\""));

    let miss = c
        .post_json("/v1/predict", "{\"row\": 7, \"col\": 7}")
        .unwrap();
    assert!(miss.body_str().contains("\"outcome\": \"miss\""));

    let batch = c
        .post_json("/v1/predict", "{\"queries\": [[0,0],[7,7],[1,1]]}")
        .unwrap();
    assert_eq!(batch.status, 200);
    assert_eq!(batch.body_str().matches("\"outcome\"").count(), 3);

    let bad = c.post_json("/v1/predict", "this is not json").unwrap();
    assert_eq!(bad.status, 400);

    let missing = c.get("/no/such/route").unwrap();
    assert_eq!(missing.status, 404);

    // All of the above rode one keep-alive connection.
    assert_eq!(fx.state.metrics.snapshot().connections_opened, 1);

    let metrics = c.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let parsed = serde_json::parse_value(&metrics.body_str()).unwrap();
    assert!(parsed.as_object().is_some());

    let prom = c.get("/metrics?format=prometheus").unwrap();
    assert!(prom.body_str().contains("dc_net_requests_total"));

    fx.finish();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let fx = Fixture::quick();
    let mut c = HttpClient::connect(fx.addr()).unwrap();
    c.send("GET", "/healthz", None).unwrap();
    c.send("POST", "/v1/predict", Some(b"{\"row\":1,\"col\":1}"))
        .unwrap();
    c.send("GET", "/v1/model", None).unwrap();
    let first = c.read_response().unwrap();
    let second = c.read_response().unwrap();
    let third = c.read_response().unwrap();
    assert!(first.body_str().contains("uptime_secs"));
    assert!(second.body_str().contains("outcome"));
    assert!(third.body_str().contains("fingerprint"));
    fx.finish();
}

#[test]
fn head_requests_omit_the_body() {
    let fx = Fixture::quick();
    let mut c = HttpClient::connect(fx.addr()).unwrap();
    c.send_raw(b"HEAD /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    // Read to EOF: the head must arrive, the body must not.
    let mut raw = Vec::new();
    let mut stream = c.into_stream();
    std::io::Read::read_to_end(&mut stream, &mut raw).ok();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert!(text.ends_with("\r\n\r\n"), "body must be omitted: {text:?}");
    let len: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert!(len > 0, "content-length still reflects the would-be body");
    fx.finish();
}

/// One worker, queue depth 1: a busy worker plus a queued connection makes
/// the *third* connection bounce with 503 + Retry-After at accept time.
#[test]
fn queue_backpressure_answers_503() {
    let fx = Fixture::start(
        ServerConfig {
            threads: 1,
            queue_depth: 1,
            limits: Limits {
                read_timeout: Duration::from_secs(3),
                idle_timeout: Duration::from_secs(3),
                ..Limits::default()
            },
            ..ServerConfig::default()
        },
        Obs::null(),
    );
    let addr = fx.addr();

    // c1 occupies the only worker: partial request, then stall.
    let mut c1 = HttpClient::connect(addr).unwrap();
    c1.send_raw(b"POST /v1/predict HTTP/1.1\r\ncontent-length: 17\r\n\r\n{\"row\"")
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // c2 fills the one queue slot.
    let _c2 = HttpClient::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // c3 must be rejected with backpressure.
    let mut c3 = HttpClient::connect(addr).unwrap();
    let resp = c3
        .read_response()
        .expect("503 must be written before close");
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(resp.body_str().contains("capacity"));

    // Unblock c1: complete the request; it is answered normally.
    c1.send_raw(b":1,\"col\":1}").unwrap();
    let resp = c1.read_response().unwrap();
    assert_eq!(resp.status, 200);
    drop(c1); // frees the worker for c2's (empty) connection

    assert!(fx.state.metrics.snapshot().rejected >= 1);
    fx.finish();
}

/// Raising the stop flag drains in-flight requests: everything already
/// sent gets a response, idle keep-alives close, and shutdown() reports a
/// clean drain.
#[test]
fn graceful_shutdown_drains_in_flight() {
    let sink = MemorySink::new();
    let fx = Fixture::start(
        ServerConfig {
            threads: 2,
            limits: Limits {
                idle_timeout: Duration::from_secs(5),
                ..Limits::default()
            },
            ..ServerConfig::default()
        },
        Obs::new(sink.clone()),
    );
    let addr = fx.addr();

    // An idle keep-alive connection that would otherwise pin a worker for
    // the full idle timeout.
    let mut idle = HttpClient::connect(addr).unwrap();
    assert_eq!(idle.get("/healthz").unwrap().status, 200);

    // A request sent right as shutdown begins.
    let mut inflight = HttpClient::connect(addr).unwrap();
    inflight
        .send("POST", "/v1/predict", Some(b"{\"row\":1,\"col\":1}"))
        .unwrap();
    // Let the request bytes reach the worker so it is genuinely in flight
    // (a request that hasn't started arriving may be dropped by design).
    std::thread::sleep(Duration::from_millis(200));

    let handle = fx.handle.as_ref().unwrap();
    handle.stop_flag().store(true, Ordering::Release);

    // The in-flight request is still answered (connection: close).
    let resp = inflight.read_response().unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body_str().contains("outcome"));

    // The idle connection is closed without waiting out the 5s idle
    // timeout; the next read sees EOF quickly.
    let start = std::time::Instant::now();
    let err = idle.read_response().unwrap_err();
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "idle close was slow"
    );
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
        ),
        "{err:?}"
    );

    fx.finish();
    let shutdown_events = sink.named("net.shutdown");
    assert_eq!(shutdown_events.len(), 1);
    assert_eq!(
        shutdown_events[0].field("drained"),
        Some(&dc_obs::OwnedValue::Bool(true))
    );
}

/// Model hot-swap under live traffic: /readyz flips, old snapshots finish,
/// new queries see the new model.
#[test]
fn model_swap_is_visible_over_http() {
    let fx = Fixture::quick();
    let mut c = HttpClient::connect(fx.addr()).unwrap();
    let before = c.get("/v1/model").unwrap().body_str();

    fx.state.set_ready(false);
    assert_eq!(c.get("/readyz").unwrap().status, 503);
    // Predicts keep answering mid-swap (the installed snapshot is always a
    // complete model); only /readyz turns traffic away.
    let answered = c.post_json("/v1/predict", "{\"row\":0,\"col\":0}").unwrap();
    assert_eq!(answered.status, 200);
    fx.state.set_ready(true);

    fx.state.swap_model(model_8x8(), Some("swapped.dcm"));
    let after = c.get("/v1/model").unwrap().body_str();
    assert_ne!(before, after, "path should have changed");
    assert!(after.contains("swapped.dcm"));
    assert_eq!(c.get("/readyz").unwrap().status, 200);
    fx.finish();
}

/// net.request events flow for every answered request.
#[test]
fn requests_emit_structured_events() {
    let sink = MemorySink::new();
    let fx = Fixture::start(ServerConfig::default(), Obs::new(sink.clone()));
    let mut c = HttpClient::connect(fx.addr()).unwrap();
    c.get("/healthz").unwrap();
    c.post_json("/v1/predict", "{\"row\":1,\"col\":1}").unwrap();
    c.get("/nope").unwrap();
    fx.finish();

    let events = sink.named("net.request");
    assert_eq!(events.len(), 3);
    assert_eq!(events[0].str_field("path"), Some("/healthz"));
    assert_eq!(events[1].u64_field("status"), Some(200));
    assert_eq!(events[2].u64_field("status"), Some(404));
    assert!(events
        .iter()
        .all(|e| e.u64_field("latency_bucket").is_some()));
    assert_eq!(sink.named("net.listen").len(), 1);
}

/// Wraps [`AppState`] to force the interleaving the metrics-ordering test
/// checks: after a predict is handled, the server's next metrics access
/// waits until a `/metrics` read has been answered (or a short timeout
/// passes). Recording after the write lets that read in first; recording
/// before the write keeps the client waiting until the timeout.
struct GatedMetrics {
    app: AppState,
    armed: AtomicBool,
    observed: (Mutex<bool>, Condvar),
}

impl RequestHandler for GatedMetrics {
    fn handle(&self, req: &Request) -> Response {
        let resp = self.app.handle(req);
        if req.path == "/v1/predict" {
            *self.observed.0.lock().unwrap() = false;
            self.armed.store(true, Ordering::SeqCst);
        } else if req.path == "/metrics" {
            *self.observed.0.lock().unwrap() = true;
            self.observed.1.notify_all();
        }
        resp
    }

    fn metrics(&self) -> &ServerMetrics {
        if self.armed.swap(false, Ordering::SeqCst) {
            let (seen, cv) = &self.observed;
            let guard = seen.lock().unwrap();
            let _ = cv
                .wait_timeout_while(guard, Duration::from_millis(100), |seen| !*seen)
                .unwrap();
        }
        self.app.metrics()
    }

    fn obs(&self) -> &Obs {
        self.app.obs()
    }
}

/// A request is counted before its response is written: a `/metrics` read
/// sent on another connection right after a predict response arrives
/// includes that response's predictions.
#[test]
fn metrics_count_a_response_before_the_client_sees_it() {
    let state = Arc::new(GatedMetrics {
        app: AppState::new(model_8x8(), Some("it.dcm"), 2, Obs::null()),
        armed: AtomicBool::new(false),
        observed: (Mutex::new(false), Condvar::new()),
    });
    let handle = serve_handler(
        ServerConfig::default(),
        state.clone(),
        Arc::new(AtomicBool::new(false)),
    )
    .expect("bind loopback");
    let mut predict = HttpClient::connect(handle.addr()).unwrap();
    let mut observer = HttpClient::connect(handle.addr()).unwrap();
    for sent in 1..=3u64 {
        let resp = predict
            .post_json("/v1/predict", "{\"queries\": [[0,0],[7,7],[1,1]]}")
            .unwrap();
        assert_eq!(resp.status, 200);
        let metrics = observer.get("/metrics").unwrap();
        let parsed = serde_json::parse_value(&metrics.body_str()).unwrap();
        let predictions = parsed
            .as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "predictions")
            .and_then(|(_, v)| v.as_u64());
        assert_eq!(predictions, Some(3 * sent), "after {sent} responses");
    }
    assert!(handle.shutdown(), "drain must complete within grace");
}

/// A predict request whose batch depends on `i`, so answers differ and
/// order shows.
fn predict_request(i: usize, extra_header: &str) -> Vec<u8> {
    let body = format!(
        "{{\"queries\": [[{}, {}], [{}, {}], [{}, {}]]}}",
        i % 8,
        (3 * i) % 8,
        (i + 1) % 8,
        (5 * i + 2) % 8,
        (i / 8) % 8,
        i % 7
    );
    format!(
        "POST /v1/predict HTTP/1.1\r\nhost: t\r\n{extra_header}content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Length of the whole response at the front of `buf`, once it is there.
fn whole_response_len(buf: &[u8]) -> Option<usize> {
    let head = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let text = std::str::from_utf8(&buf[..head]).unwrap();
    let body: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    (buf.len() >= head + body).then_some(head + body)
}

/// Splits bytes read to EOF into whole responses, head and body each.
fn split_responses(mut raw: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    while !raw.is_empty() {
        let len = whole_response_len(raw).expect("a cut-off response");
        out.push(raw[..len].to_vec());
        raw = &raw[len..];
    }
    out
}

/// Reads one response off `stream` as raw bytes.
fn read_raw(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Vec<u8> {
    loop {
        if let Some(len) = whole_response_len(buf) {
            return buf.drain(..len).collect();
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "closed before a whole response");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Each request sent alone, its response read before the next is sent.
fn one_at_a_time(addr: std::net::SocketAddr, requests: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut buf = Vec::new();
    requests
        .iter()
        .map(|req| {
            stream.write_all(req).unwrap();
            read_raw(&mut stream, &mut buf)
        })
        .collect()
}

/// Sends `requests` in one write, half-closes, and reads to EOF.
fn burst(addr: std::net::SocketAddr, requests: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&requests.concat()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    split_responses(&raw)
}

#[test]
fn a_pipelined_burst_answers_like_requests_sent_one_at_a_time() {
    let fx = Fixture::quick();
    let requests: Vec<Vec<u8>> = (0..64).map(|i| predict_request(i, "")).collect();
    let alone = one_at_a_time(fx.addr(), &requests);
    assert_eq!(alone.len(), 64);
    assert_eq!(burst(fx.addr(), &requests), alone);
    fx.finish();
}

#[test]
fn a_malformed_request_mid_burst_is_answered_after_every_earlier_one() {
    let fx = Fixture::quick();
    let good: Vec<Vec<u8>> = (0..5).map(|i| predict_request(i, "")).collect();
    let alone = one_at_a_time(fx.addr(), &good);
    let mut requests = good.clone();
    requests.push(b"GARBAGE\r\n\r\n".to_vec());
    requests.extend((5..8).map(|i| predict_request(i, "")));
    let got = burst(fx.addr(), &requests);
    assert_eq!(got.len(), 6, "nothing after the 400");
    assert_eq!(got[..5], alone[..]);
    let last = String::from_utf8_lossy(&got[5]);
    assert!(last.starts_with("HTTP/1.1 400 "), "{last}");
    assert!(last.contains("connection: close"), "{last}");
    fx.finish();
}

#[test]
fn connection_close_mid_burst_is_the_last_answer() {
    let fx = Fixture::quick();
    let requests: Vec<Vec<u8>> = (0..6)
        .map(|i| predict_request(i, if i == 3 { "connection: close\r\n" } else { "" }))
        .collect();
    let alone = one_at_a_time(fx.addr(), &requests[..3]);
    let got = burst(fx.addr(), &requests);
    assert_eq!(got.len(), 4, "nothing after the close");
    assert_eq!(got[..3], alone[..]);
    let last = String::from_utf8_lossy(&got[3]);
    assert!(last.contains("connection: close"), "{last}");
    let kept = last.replace("connection: close", "connection: keep-alive");
    let fourth = one_at_a_time(fx.addr(), &[predict_request(3, "")]);
    assert_eq!(kept.as_bytes(), &fourth[0][..]);
    fx.finish();
}

/// [`AppState`] with a hook that runs before each request is handled.
struct Hooked {
    app: AppState,
    hook: Box<dyn Fn(&Request) + Send + Sync>,
}

impl RequestHandler for Hooked {
    fn handle(&self, req: &Request) -> Response {
        (self.hook)(req);
        self.app.handle(req)
    }

    fn metrics(&self) -> &ServerMetrics {
        self.app.metrics()
    }

    fn obs(&self) -> &Obs {
        self.app.obs()
    }
}

fn serve_hooked(
    stop: Arc<AtomicBool>,
    hook: impl Fn(&Request) + Send + Sync + 'static,
) -> ServerHandle<Hooked> {
    let state = Arc::new(Hooked {
        app: AppState::new(model_8x8(), Some("it.dcm"), 2, Obs::null()),
        hook: Box::new(hook),
    });
    serve_handler(ServerConfig::default(), state, stop).expect("bind loopback")
}

/// Responses past the 64 KiB cap leave while the rest of the burst is
/// still being answered: the burst's last request is held until the
/// client has read the first response.
#[test]
fn a_burst_past_the_write_cap_arrives_whole_and_in_order() {
    let released = Arc::new((Mutex::new(false), Condvar::new()));
    let held_too_long = Arc::new(AtomicBool::new(false));
    let handle = {
        let (released, held_too_long) = (released.clone(), held_too_long.clone());
        serve_hooked(Arc::new(AtomicBool::new(false)), move |req| {
            if req.query.as_deref() == Some("last") {
                let (done, cv) = &*released;
                let guard = done.lock().unwrap();
                let (_done, wait) = cv
                    .wait_timeout_while(guard, Duration::from_secs(2), |done| !*done)
                    .unwrap();
                held_too_long.store(wait.timed_out(), Ordering::SeqCst);
            }
        })
    };
    // About 1.3 KiB per answer: 80 of them pass the cap.
    let body: String = (0..32)
        .map(|i| format!("[{}, {}]", i % 8, (i * 5) % 8))
        .collect::<Vec<_>>()
        .join(", ");
    let body = format!("{{\"queries\": [{body}]}}");
    let request = |path: &str| {
        format!(
            "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    };
    let mut requests: Vec<Vec<u8>> = (0..79).map(|_| request("/v1/predict")).collect();
    requests.push(request("/v1/predict?last"));
    let alone = one_at_a_time(handle.addr(), &requests[..1]);

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&requests.concat()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut buf = Vec::new();
    let first = read_raw(&mut stream, &mut buf);
    *released.0.lock().unwrap() = true;
    released.1.notify_all();
    stream.read_to_end(&mut buf).unwrap();
    let mut got = vec![first];
    got.extend(split_responses(&buf));

    assert!(
        !held_too_long.load(Ordering::SeqCst),
        "nothing was written before the burst's last request"
    );
    assert!(got.iter().map(Vec::len).sum::<usize>() > 64 * 1024);
    assert_eq!(got.len(), 80);
    assert!(got.iter().all(|r| *r == alone[0]), "answers changed");
    assert!(handle.shutdown(), "drain must complete within grace");
}

#[test]
fn the_stop_flag_mid_burst_still_answers_what_is_buffered() {
    let stop = Arc::new(AtomicBool::new(false));
    let seen = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let requests: Vec<Vec<u8>> = (0..8).map(|i| predict_request(i, "")).collect();
    let expected = {
        let fx = Fixture::quick();
        let alone = one_at_a_time(fx.addr(), &requests);
        fx.finish();
        alone
    };
    let handle = {
        let (stop, seen) = (stop.clone(), seen.clone());
        serve_hooked(stop.clone(), move |_| {
            if seen.fetch_add(1, Ordering::SeqCst) == 2 {
                stop.store(true, Ordering::SeqCst);
            }
        })
    };
    let got = burst(handle.addr(), &requests);
    assert_eq!(got.len(), 8, "every buffered request is answered");
    assert_eq!(got[..7], expected[..7]);
    let last =
        String::from_utf8_lossy(&got[7]).replace("connection: close", "connection: keep-alive");
    assert_eq!(last.as_bytes(), &expected[7][..], "the last answer closes");
    assert!(handle.shutdown(), "drain must complete within grace");
}

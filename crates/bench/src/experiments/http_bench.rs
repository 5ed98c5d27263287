//! HTTP serving throughput: an in-process dc-net server on loopback under
//! a multi-connection, pipelined load generator. Writes `BENCH_http.json`
//! with predict q/s and request latency p50/p99 per worker-thread count.
//!
//! The load shape mirrors a recommender front end: each request is a
//! batched `POST /v1/predict` (`--batch` queries per body), `--connections`
//! keep-alive connections drive the server concurrently, and `--pipeline`
//! requests ride in flight per connection. The acceptance bar lives at 4
//! worker threads: ≥ 10k predict q/s on loopback.

use crate::opts::Opts;
use dc_eval::report::write_json;
use dc_eval::Table;
use dc_net::{serve, AppState, HttpClient, ServerConfig};
use dc_obs::Obs;
use dc_serve::ServeModel;
use serde::Serialize;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// One worker-thread-count measurement.
#[derive(Debug, Serialize)]
pub struct HttpRun {
    pub threads: usize,
    pub requests: u64,
    pub predictions: u64,
    pub elapsed_secs: f64,
    /// Batched predict queries answered per second — the headline number.
    pub predict_qps: f64,
    pub requests_per_sec: f64,
    /// Server-side request latency quantiles (log-linear bucket estimates, at most 6.25% high).
    pub p50_request_nanos: u64,
    pub p99_request_nanos: u64,
}

/// The `BENCH_http.json` payload.
#[derive(Debug, Serialize)]
pub struct HttpReport {
    pub rows: usize,
    pub cols: usize,
    pub clusters: usize,
    pub connections: usize,
    pub pipeline_depth: usize,
    pub batch: usize,
    pub requests_per_connection: usize,
    pub available_parallelism: usize,
    pub runs: Vec<HttpRun>,
}

/// A served model with planted clusters — no mining, so the bench starts
/// instantly and the query mix (≈hit-heavy) is deterministic.
pub(crate) fn bench_model(rows: usize, cols: usize, k: usize) -> ServeModel {
    let cfg = dc_datagen::EmbedConfig::new(rows, cols, vec![(rows / 4, cols / 4); k]).with_seed(11);
    let data = dc_datagen::embed::generate(&cfg);
    let residues = vec![0.0; data.truth.len()];
    ServeModel::new(data.matrix, data.truth, residues, 0.0).expect("planted model is valid")
}

/// The deterministic query stream, as JSON bodies of `batch` queries each.
pub(crate) fn request_bodies(
    rows: usize,
    cols: usize,
    requests: usize,
    batch: usize,
) -> Vec<String> {
    let mut bodies = Vec::with_capacity(requests);
    let mut i = 0usize;
    for _ in 0..requests {
        let mut body = String::from("{\"queries\": [");
        for q in 0..batch {
            if q > 0 {
                body.push(',');
            }
            // Coprime strides walk the whole matrix, mixing hits and misses.
            let r = i.wrapping_mul(7919) % rows.max(1);
            let c = i.wrapping_mul(104_729) % cols.max(1);
            body.push_str(&format!("[{r},{c}]"));
            i += 1;
        }
        body.push_str("]}");
        bodies.push(body);
    }
    bodies
}

/// Drives `connections` client threads against `addr`, each sending its
/// bodies with `pipeline` requests in flight. Returns total requests sent.
pub(crate) fn drive(
    addr: std::net::SocketAddr,
    bodies: &Arc<Vec<String>>,
    connections: usize,
    pipeline: usize,
) -> u64 {
    let workers: Vec<_> = (0..connections)
        .map(|_| {
            let bodies = bodies.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect load generator");
                let mut sent = 0u64;
                for window in bodies.chunks(pipeline.max(1)) {
                    for body in window {
                        client
                            .send("POST", "/v1/predict", Some(body.as_bytes()))
                            .expect("send request");
                    }
                    for _ in window {
                        let resp = client.read_response().expect("read response");
                        assert_eq!(
                            resp.status,
                            200,
                            "bench request failed: {}",
                            resp.body_str()
                        );
                        sent += 1;
                    }
                }
                sent
            })
        })
        .collect();
    workers.into_iter().map(|w| w.join().unwrap()).sum()
}

pub fn run(opts: &Opts) -> String {
    let (rows, cols, k) = if opts.full {
        (2000, 80, 8)
    } else {
        (400, 40, 4)
    };
    let connections = opts.connections.unwrap_or(4);
    let pipeline = opts.pipeline.unwrap_or(4);
    let batch = opts.batch.unwrap_or(64);
    let requests_per_connection = if opts.full { 1500 } else { 300 };
    let thread_counts: &[usize] = if opts.full { &[1, 2, 4, 8] } else { &[1, 2, 4] };

    let model = bench_model(rows, cols, k);
    let bodies = Arc::new(request_bodies(rows, cols, requests_per_connection, batch));

    let mut t = Table::new(vec![
        "server threads",
        "predict q/s",
        "req/s",
        "p50 (µs)",
        "p99 (µs)",
    ]);
    let mut runs = Vec::new();
    for &threads in thread_counts {
        // Fresh server per thread count: clean metrics, clean queues.
        let state = Arc::new(AppState::new(model.clone(), None, threads, Obs::null()));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = serve(
            ServerConfig {
                threads,
                queue_depth: (connections * 2).max(16),
                ..ServerConfig::default()
            },
            state.clone(),
            stop,
        )
        .expect("bind loopback");

        // Warm-up so connection setup and lazy allocation don't bill run 1.
        let warm = Arc::new(bodies[..bodies.len().min(20)].to_vec());
        drive(handle.addr(), &warm, connections.min(2), pipeline);
        let warm_snapshot = state.metrics.snapshot();

        let start = Instant::now();
        let requests = drive(handle.addr(), &bodies, connections, pipeline);
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);

        let snap = state.metrics.snapshot();
        let predictions = snap.predictions - warm_snapshot.predictions;
        let run = HttpRun {
            threads,
            requests,
            predictions,
            elapsed_secs: elapsed,
            predict_qps: predictions as f64 / elapsed,
            requests_per_sec: requests as f64 / elapsed,
            p50_request_nanos: snap.latency.quantile(0.5),
            p99_request_nanos: snap.latency.quantile(0.99),
        };
        t.row(vec![
            format!("{threads}"),
            format!("{:.0}", run.predict_qps),
            format!("{:.0}", run.requests_per_sec),
            format!("{:.1}", run.p50_request_nanos as f64 / 1e3),
            format!("{:.1}", run.p99_request_nanos as f64 / 1e3),
        ]);
        runs.push(run);
        assert!(handle.shutdown(), "bench server failed to drain");
    }

    let report = HttpReport {
        rows,
        cols,
        clusters: k,
        connections,
        pipeline_depth: pipeline,
        batch,
        requests_per_connection,
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        runs,
    };
    let _ = write_json(&opts.out_dir, "BENCH_http", &report);

    format!(
        "HTTP serving throughput — {connections} connection(s), pipeline {pipeline}, \
         batch {batch} ({rows}x{cols}, {k} clusters)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_are_valid_json_of_the_requested_shape() {
        let bodies = request_bodies(10, 10, 3, 5);
        assert_eq!(bodies.len(), 3);
        for body in &bodies {
            let parsed = serde_json::parse_value(body).unwrap();
            let queries = parsed.as_object().unwrap()[0].1.as_array().unwrap();
            assert_eq!(queries.len(), 5);
        }
        // The stream is deterministic.
        assert_eq!(bodies, request_bodies(10, 10, 3, 5));
    }

    #[test]
    fn bench_model_answers_from_planted_clusters() {
        let model = bench_model(40, 16, 2);
        assert_eq!(model.k(), 2);
        // At least one planted cell predicts.
        let hit = (0..40)
            .flat_map(|r| (0..16).map(move |c| (r, c)))
            .any(|(r, c)| model.predict(r, c).is_ok());
        assert!(hit);
    }

    /// A miniature end-to-end pass of the whole bench (tiny sizes) — pins
    /// that the harness itself works and produces a parseable report.
    #[test]
    fn smoke_run_writes_a_report() {
        let dir = std::env::temp_dir().join("dc-bench-http-smoke");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = Opts {
            out_dir: dir.clone(),
            connections: Some(2),
            pipeline: Some(2),
            batch: Some(8),
            ..Opts::default()
        };
        // Shrink further by driving run() directly at smoke scale.
        let out = run(&opts);
        assert!(out.contains("predict q/s"), "{out}");
        let json = std::fs::read_to_string(dir.join("BENCH_http.json")).unwrap();
        let parsed = serde_json::parse_value(&json).unwrap();
        assert!(parsed.as_object().is_some());
    }
}

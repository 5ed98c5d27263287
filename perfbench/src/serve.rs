//! The serving workload: a planted model served by `delta-clusters serve`
//! in a child process, driven over loopback by an open and a closed loop.

use crate::checks::Exchange;
use crate::loadgen::{closed_loop, open_loop, predict_request, Outcome};
use crate::proc::{peak_rss_mb, Server};
use crate::report::Run;
use crate::spec::{ServeSpec, THREADS};
use crate::stats::{median, quantile, tail_quantile};
use dc_datagen::EmbedConfig;
use dc_matrix::DataMatrix;
use dc_serve::{QueryEngine, ServeModel};
use std::path::Path;
use std::time::{Duration, Instant};

/// Fewest set-ups (model write + server start) a run times.
const MIN_SETUPS: usize = 5;
/// Warm-up before measuring: connections, allocator, caches.
const WARMUP: Duration = Duration::from_millis(300);
/// Open/closed loop pairs a run alternates through.
const SEGMENTS: usize = 3;

struct Setup {
    model: ServeModel,
    server: Server,
    datagen_s: f64,
    build_s: f64,
    model_build_s: f64,
}

/// Generates the planted model, writes it as a `.dcm` artifact and starts
/// the server on it; the clock stops when `/readyz` answers 200.
fn setup(spec: &ServeSpec, bin: &Path, work: &Path) -> Result<Setup, String> {
    let t = Instant::now();
    let mut cfg = EmbedConfig::new(spec.rows, spec.cols, vec![spec.planted; spec.clusters])
        .with_seed(spec.model_seed);
    cfg.residue = spec.residue;
    let data = dc_datagen::embed::generate(&cfg);
    let mut values = Vec::with_capacity(spec.rows * spec.cols);
    for r in 0..spec.rows {
        values.extend_from_slice(&data.matrix.row_values(r));
    }
    drop(data.matrix);
    let datagen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let matrix = DataMatrix::builder(spec.rows, spec.cols).from_rows(values);
    let build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let residues: Vec<f64> = data
        .truth
        .iter()
        .map(|c| dc_floc::cluster_residue(&matrix, c, dc_floc::ResidueMean::Arithmetic))
        .collect();
    let avg = residues.iter().sum::<f64>() / residues.len().max(1) as f64;
    let model =
        ServeModel::new(matrix, data.truth, residues, avg).map_err(|e| format!("model: {e}"))?;
    let model_build_s = t.elapsed().as_secs_f64();

    let path = work.join("model.dcm");
    dc_serve::save(&model, &path).map_err(|e| format!("save model: {e}"))?;
    let server = Server::start(bin, &path, THREADS, &work.join("server.log"))?;
    Ok(Setup {
        model,
        server,
        datagen_s,
        build_s,
        model_build_s,
    })
}

/// `spec.bodies` request exchanges of `spec.batch` cells each. Even
/// queries walk the whole matrix and odd ones the planted cells, each on
/// strides coprime to what they walk, so every batch mixes uncovered and
/// covered cells.
fn exchanges(spec: &ServeSpec, model: &ServeModel, seed: u64) -> Vec<Exchange> {
    let mut planted: Vec<(usize, usize)> = model
        .clusters()
        .iter()
        .flat_map(|c| {
            let cols: Vec<usize> = c.cols.iter().collect();
            c.rows
                .iter()
                .flat_map(move |r| cols.clone().into_iter().map(move |col| (r, col)))
        })
        .collect();
    planted.sort_unstable();
    planted.dedup();
    // The seed picks where the two walks start.
    let start = (crate::spec::sub_seed(seed, 0) % (1 << 32)) as usize;
    let (mut i, mut j) = (start, start);
    (0..spec.bodies)
        .map(|_| {
            let cells = (0..spec.batch)
                .map(|q| {
                    if q % 2 == 0 || planted.is_empty() {
                        i += 1;
                        (
                            i.wrapping_mul(7919) % spec.rows,
                            i.wrapping_mul(104_729) % spec.cols,
                        )
                    } else {
                        j += 1;
                        planted[j.wrapping_mul(7919) % planted.len()]
                    }
                })
                .collect();
            Exchange::new(model, cells)
        })
        .collect()
}

/// Reads the server's `/metrics` JSON: `(predict requests, rejected,
/// latency p50 ns, latency p99 ns)`.
fn server_metrics(addr: &str) -> Result<(u64, u64, f64, f64), String> {
    let mut client = dc_net::HttpClient::connect(addr).map_err(|e| e.to_string())?;
    let resp = client.get("/metrics").map_err(|e| e.to_string())?;
    let value = serde_json::parse_value(&resp.body_str()).map_err(|e| e.to_string())?;
    let obj = value.as_object().ok_or("metrics is not an object")?;
    let field = |fields: &[(String, serde::Value)], name: &str| {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
    };
    let predict_requests = field(obj, "by_route")
        .and_then(|r| r.as_object().and_then(|f| field(f, "POST /v1/predict")))
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    let rejected = field(obj, "rejected").and_then(|v| v.as_u64()).unwrap_or(0);
    let latency = field(obj, "latency_nanos").ok_or("no latency_nanos")?;
    let lat = latency.as_object().ok_or("bad latency_nanos")?;
    let q = |name: &str| {
        field(lat, name)
            .and_then(|v| v.as_f64())
            .unwrap_or(f64::NAN)
    };
    Ok((predict_requests, rejected, q("p50"), q("p99")))
}

pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, trace: bool, bin: &Path, work: &Path) -> Run {
    let mut out = Run {
        config: crate::spec::stamped(spec, seed),
        ..Run::default()
    };
    if let Err(why) = measure(spec, seed, seconds, trace, bin, work, &mut out) {
        out.attempted += 1;
        out.fail(why);
    }
    out
}

#[allow(clippy::too_many_lines)]
fn measure(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin: &Path,
    work: &Path,
    out: &mut Run,
) -> Result<(), String> {
    let mut setup_s = Vec::new();
    // (metric, value, samples behind it)
    let mut layers: Vec<(&'static str, f64, usize)> = Vec::new();
    let mut model_build_s = Vec::new();
    let mut last = None;
    for i in 0..MIN_SETUPS {
        let t = Instant::now();
        let s = setup(spec, bin, work)?;
        setup_s.push(t.elapsed().as_secs_f64());
        model_build_s.push(s.model_build_s);
        if i + 1 == MIN_SETUPS {
            layers.push(("datagen_s", s.datagen_s, 1));
            layers.push(("matrix.build_s", s.build_s, 1));
            last = Some(s);
        }
    }
    let Setup {
        model, mut server, ..
    } = last.expect("at least one set-up");
    let ex = exchanges(spec, &model, seed);
    let requests: Vec<Vec<u8>> = ex.iter().map(|e| predict_request(&e.body)).collect();
    let verify = |i: usize, status: u16, body: &[u8]| ex[i % ex.len()].verify(status, body);
    let addr = server.addr.clone();

    let warm = closed_loop(
        &addr,
        &requests,
        &verify,
        WARMUP,
        spec.connections,
        spec.depth,
    );
    // Open and closed loops alternate in segments on fresh connections, so
    // a drift within the run, or an unlucky thread placement on a shared
    // host, touches both and no single segment decides a median.
    let segment = Duration::from_secs_f64(seconds / 2.0 / SEGMENTS as f64);
    let (mut open, mut closed, mut windows) = (Outcome::default(), Outcome::default(), Vec::new());
    for _ in 0..SEGMENTS {
        open.merge(open_loop(
            &addr,
            &requests,
            &verify,
            spec.open_rate,
            segment,
            spec.connections,
        ));
        let c = closed_loop(
            &addr,
            &requests,
            &verify,
            segment,
            spec.connections,
            spec.depth,
        );
        windows.extend(c.window_rates(Duration::from_millis(500)));
        closed.merge(c);
    }
    let client_responses: u64 = [&warm, &open, &closed].iter().map(|o| o.responses).sum();
    let (server_predicts, rejected, net_p50, net_p99) = server_metrics(&addr)?;
    let peak = peak_rss_mb(server.pid()).unwrap_or(f64::NAN);
    server.stop(Duration::from_secs(10));

    for o in [&warm, &open, &closed] {
        out.attempted += o.sent.max(o.completed + o.failed);
        out.failed += o.failed;
        if let Some(e) = &o.first_error {
            if out.errors.len() < 8 {
                out.errors.push(e.clone());
            }
        }
        // Every answered request carried exactly one prediction per query.
        if o.predictions != o.completed * spec.batch as u64 {
            out.fail(format!(
                "{} predictions for {} answered requests of {}",
                o.predictions, o.completed, spec.batch
            ));
        }
    }

    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let open_n = open.latencies_ms.len();
    let p50 = med(&open.latencies_ms);
    let tail_q = tail_quantile(open_n, 0.99).unwrap_or(1.0);
    let tail = quantile(&open.latencies_ms, tail_q).unwrap_or(f64::NAN);
    // Median over half-second windows of the closed loop, in predictions/s.
    let qps = median(&windows).unwrap_or(f64::NAN) * spec.batch as f64;
    out.series = vec![
        (
            "closed_window_predictions_per_s".into(),
            windows.iter().map(|w| w * spec.batch as f64).collect(),
        ),
        ("setup_s".into(), setup_s.clone()),
    ];
    // Mean |value − prediction| over the covered queried cells: the served
    // clusters' residue as a client sees it.
    let (mut err_sum, mut hits, mut cells) = (0.0, 0usize, 0usize);
    for e in &ex {
        for (&(r, c), a) in e.cells.iter().zip(&e.answers) {
            cells += 1;
            if let (Ok(p), Some(v)) = (a, model.matrix().get(r, c)) {
                err_sum += (v - p).abs();
                hits += 1;
            }
        }
    }
    let prediction_error = err_sum / hits.max(1) as f64;

    out.named(
        "setup_s",
        med(&setup_s),
        "s",
        setup_s.len(),
        "median model write + server start until /readyz is 200",
    );
    out.named(
        "serve_p50_ms",
        p50,
        "ms",
        open_n,
        "open loop, from each request's scheduled send",
    );
    out.named(
        &format!("serve_p{}_ms", format_q(tail_q)),
        tail,
        "ms",
        open_n,
        "open loop tail: highest percentile (cap p99) with >= 10 samples beyond it",
    );
    out.named(
        "predict_qps",
        qps,
        "1/s",
        windows.len(),
        "closed loop, predictions counted at the client, median of 0.5 s windows",
    );
    out.named("peak_rss_mb", peak, "MB", 1, "VmHWM of the server process");
    out.named(
        "avg_residue",
        prediction_error,
        "residue",
        hits,
        "mean |value - prediction| over covered queried cells",
    );
    out.named(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.attempted as usize,
        "failed requests over sent requests",
    );

    if !trace {
        out.metric("setup_s", med(&setup_s), "s", setup_s.len());
        out.metric("latency_ms", p50, "ms", open_n);
        out.metric("throughput_per_s", qps, "1/s", windows.len());
        out.metric("peak_rss_mb", peak, "MB", 1);
        out.metric("avg_residue", prediction_error, "residue", hits);
        return Ok(());
    }

    // In-process predict on the same bodies, single-threaded as the server
    // answers a 64-query batch.
    let engine =
        QueryEngine::new(dc_serve::load(work.join("model.dcm")).map_err(|e| e.to_string())?);
    let mut batch_us = Vec::new();
    let t = Instant::now();
    while batch_us.len() < 2000 && t.elapsed() < Duration::from_secs(2) {
        let e = &ex[batch_us.len() % ex.len()];
        let t = Instant::now();
        let answers = std::hint::black_box(engine.predict_batch(std::hint::black_box(&e.cells), 1));
        batch_us.push(t.elapsed().as_secs_f64() * 1e6);
        if answers != e.answers {
            out.fail("in-process predict_batch disagrees with ServeModel::predict".into());
        }
    }
    let predict_us = med(&batch_us);
    layers.extend([
        (
            "serve.model_build_s",
            med(&model_build_s),
            model_build_s.len(),
        ),
        ("serve.predict_batch_us", predict_us, batch_us.len()),
        (
            "serve.covered_frac",
            hits as f64 / cells.max(1) as f64,
            cells,
        ),
        ("net.request_p50_us", net_p50 / 1e3, 1),
        ("net.request_p99_us", net_p99 / 1e3, 1),
        ("net.overhead_us", p50 * 1e3 - predict_us, open_n),
        ("net.rejected", rejected as f64, 1),
        (
            "net.counter_lag",
            client_responses as f64 - server_predicts as f64,
            1,
        ),
        (
            "gen.late_p99_ms",
            quantile(&open.late_ms, 0.99).unwrap_or(f64::NAN),
            open.late_ms.len(),
        ),
        ("gen.sent", open.sent as f64, 1),
        ("gen.completed", open.completed as f64, 1),
    ]);
    for (name, unit) in crate::spec::PER_LAYER {
        let (value, n) = layers
            .iter()
            .find(|(n, ..)| n == name)
            .map_or((0.0, 0), |&(_, v, n)| (v, n));
        out.metric(name, value, unit, n);
    }
    Ok(())
}

fn format_q(q: f64) -> String {
    let p = q * 100.0;
    if (p - p.round()).abs() < 1e-9 {
        format!("{}", p.round())
    } else {
        format!("{p:.1}").replace('.', "_")
    }
}

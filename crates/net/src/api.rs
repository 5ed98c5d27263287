//! The JSON API served over HTTP.
//!
//! | Route | Method | Body / behavior |
//! |---|---|---|
//! | `/v1/predict` | POST | `{"row": r, "col": c}` → one prediction; `{"queries": [[r, c], ...]}` → batch fanned through `predict_batch` |
//! | `/v1/model` | GET | artifact metadata + matrix fingerprint |
//! | `/healthz` | GET | liveness: 200 while the process runs |
//! | `/readyz` | GET | readiness: 503 during model load/swap |
//! | `/metrics` | GET | JSON by default; Prometheus text with `?format=prometheus` or `Accept: text/plain` |
//!
//! Handlers are pure `(state, request) → response` functions — no IO — so
//! the whole surface is unit-testable without a socket.
//!
//! ## The predict request path
//!
//! - **Scan.** A batch body in its canonical shape, `{"queries": [[r, c],
//!   ...]}` with JSON whitespace anywhere and plain non-negative integers
//!   (no sign, fraction, exponent or leading zero) that fit `u64`, is read
//!   by a direct byte scanner into the cell list, with no JSON tree.
//! - **Fallback.** Every other body takes the generic path, a
//!   `serde_json` value tree: other keys, escapes, other shapes, other
//!   numbers, and batches over [`MAX_BATCH`]. It keeps its statuses and
//!   error messages. The scanner takes only bodies the generic path would
//!   answer with 200 and the same cells, so both give the same bytes.
//! - **Render.** A batch or single-query answer is written into one
//!   `String`, sized up front, with `write!`: `{v}` for a finite
//!   prediction, `null` otherwise.
//! - **Count.** The response carries the number of predictions it renders
//!   ([`Response::predictions`]), which the server adds to its
//!   predictions counter; nothing re-reads the body.

use crate::http::{Method, Request, Response};
use crate::state::AppState;
use dc_serve::{PredictError, QueryEngine};
use serde::Value;
use std::fmt::Write as _;

/// Upper bound on queries per batch request; protects the worker from a
/// single request monopolizing the pool (the body size limit bounds bytes,
/// this bounds work).
pub const MAX_BATCH: usize = 100_000;

/// Routes one request. Never panics; unknown paths are 404, wrong methods
/// 405, bad bodies 400.
pub fn handle(state: &AppState, req: &Request) -> Response {
    match (&req.method, req.path.as_str()) {
        (Method::Get | Method::Head, "/healthz") => healthz(state),
        (Method::Get | Method::Head, "/readyz") => readyz(state),
        (Method::Get | Method::Head, "/v1/model") => model(state),
        (Method::Get | Method::Head, "/metrics") => metrics(state, req),
        (Method::Post, "/v1/predict") => predict(state, req),
        (_, "/healthz" | "/readyz" | "/v1/model" | "/metrics") => {
            Response::error(405, "use GET").header("Allow", "GET, HEAD")
        }
        (_, "/v1/predict") => Response::error(405, "use POST").header("Allow", "POST"),
        _ => Response::error(404, &format!("no route for {}", req.path)),
    }
}

fn healthz(state: &AppState) -> Response {
    let mut body = format!(
        "{{\"status\": \"ok\", \"uptime_secs\": {:.3}",
        state.uptime_secs()
    );
    for (key, fragment) in state.status_fragments() {
        let key = key.replace('\\', "\\\\").replace('"', "\\\"");
        body.push_str(&format!(", \"{key}\": {fragment}"));
    }
    body.push_str("}\n");
    Response::json(200, body)
}

fn readyz(state: &AppState) -> Response {
    if state.is_ready() {
        Response::json(200, "{\"ready\": true}\n")
    } else {
        let mut r = Response::json(503, "{\"ready\": false}\n");
        r.headers.push(("Retry-After".into(), "1".into()));
        r
    }
}

fn model(state: &AppState) -> Response {
    match serde_json::to_string_pretty(&state.meta()) {
        Ok(body) => {
            // Splice status fragments (e.g. the miner's state) in as extra
            // top-level keys, before the object's closing brace.
            let mut body = body;
            let fragments = state.status_fragments();
            if !fragments.is_empty() {
                if let Some(at) = body.rfind('}') {
                    let mut extra = String::new();
                    for (key, fragment) in fragments {
                        let key = key.replace('\\', "\\\\").replace('"', "\\\"");
                        extra.push_str(&format!(",\n  \"{key}\": {fragment}"));
                    }
                    extra.push('\n');
                    body.insert_str(at, &extra);
                }
            }
            Response::json(200, body + "\n")
        }
        Err(e) => Response::error(500, &format!("metadata serialization failed: {e}")),
    }
}

fn metrics(state: &AppState, req: &Request) -> Response {
    let wants_prometheus = req
        .query
        .as_deref()
        .is_some_and(|q| q.split('&').any(|kv| kv == "format=prometheus"))
        || req
            .header("accept")
            .is_some_and(|a| a.contains("text/plain"));
    let snap = state.metrics.snapshot();
    let gauges = state.gauges();
    if wants_prometheus {
        let mut text = snap.to_prometheus();
        for (name, value) in gauges {
            text.push_str(&format!("# TYPE dc_{name} gauge\ndc_{name} {value}\n"));
        }
        Response::text(200, text)
    } else {
        let mut body = snap.to_json();
        if !gauges.is_empty() {
            // Splice a "gauges" object in before the closing brace.
            if let Some(at) = body.rfind('}') {
                let entries: Vec<String> = gauges
                    .iter()
                    .map(|(k, v)| {
                        let k = k.replace('\\', "\\\\").replace('"', "\\\"");
                        format!("\"{k}\": {v}")
                    })
                    .collect();
                body.insert_str(
                    at,
                    &format!(",\n  \"gauges\": {{{}}}\n", entries.join(", ")),
                );
            }
        }
        Response::json(200, body)
    }
}

fn outcome_str(result: &Result<f64, PredictError>) -> &'static str {
    match result {
        Ok(_) => "hit",
        Err(PredictError::NotCovered) => "miss",
        Err(PredictError::DegenerateCluster) => "degenerate",
    }
}

/// Bytes one rendered result takes at most, short of a very long
/// prediction: enough that a batch's buffer is sized once.
const RESULT_BYTES: usize = 96;

/// Appends one result object to `out`: `{v}` for a finite prediction,
/// `null` for any other. The fixed text goes in with `push_str`, which
/// measured about a quarter faster than one `write!` of the whole object.
fn write_result(out: &mut String, row: usize, col: usize, result: &Result<f64, PredictError>) {
    // Writing into a `String` cannot fail.
    out.push_str("{\"row\": ");
    let _ = write!(out, "{row}");
    out.push_str(", \"col\": ");
    let _ = write!(out, "{col}");
    out.push_str(", \"outcome\": \"");
    out.push_str(outcome_str(result));
    out.push_str("\", \"prediction\": ");
    match result {
        Ok(v) if v.is_finite() => {
            let _ = write!(out, "{v}");
        }
        _ => out.push_str("null"),
    }
    out.push('}');
}

/// A 200 response whose body answers `predictions` queries.
fn answered(body: String, predictions: usize) -> Response {
    let mut resp = Response::json(200, body);
    resp.predictions = predictions as u64;
    resp
}

/// Answers a batch of validated cells.
fn answer_batch(state: &AppState, engine: &QueryEngine, cells: &[(usize, usize)]) -> Response {
    // Fan a batch out over worker threads only when it is big enough to
    // amortize the spawn cost; small batches answer serially (request-
    // level parallelism already comes from the connection worker pool).
    let fanout = (cells.len() / 256).clamp(1, state.batch_threads);
    render_batch(cells, &engine.predict_batch(cells, fanout))
}

/// `{"results": [...]}`, one result per cell in query order.
fn render_batch(cells: &[(usize, usize)], results: &[Result<f64, PredictError>]) -> Response {
    let mut body = String::with_capacity(16 + RESULT_BYTES * results.len());
    body.push_str("{\"results\": [");
    for (i, (&(row, col), result)) in cells.iter().zip(results).enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        write_result(&mut body, row, col, result);
    }
    body.push_str("]}\n");
    answered(body, results.len())
}

/// One result object on its own line: the single-query answer.
fn render_single(row: usize, col: usize, result: &Result<f64, PredictError>) -> Response {
    let mut body = String::with_capacity(RESULT_BYTES + 1);
    write_result(&mut body, row, col, result);
    body.push('\n');
    answered(body, 1)
}

/// Reads a batch body in its canonical shape, `{"queries": [[r, c], ...]}`
/// with JSON whitespace anywhere and every number a plain non-negative
/// integer (no sign, fraction, exponent or leading zero) that fits `u64`.
/// `None` for any other body, and for a batch over [`MAX_BATCH`]: those
/// take the generic path, which answers every body this accepts with 200
/// and the same cells.
fn scan_queries(body: &[u8]) -> Option<Vec<(usize, usize)>> {
    let mut scan = Scan { body, at: 0 };
    scan.expect(b"{")?;
    scan.expect(b"\"queries\"")?;
    scan.expect(b":")?;
    scan.expect(b"[")?;
    let mut cells = Vec::new();
    if !scan.accept(b']') {
        loop {
            if cells.len() == MAX_BATCH {
                return None;
            }
            scan.expect(b"[")?;
            let row = scan.integer()?;
            scan.expect(b",")?;
            let col = scan.integer()?;
            scan.expect(b"]")?;
            cells.push((row, col));
            if scan.accept(b']') {
                break;
            }
            scan.expect(b",")?;
        }
    }
    scan.expect(b"}")?;
    scan.skip_ws();
    (scan.at == body.len()).then_some(cells)
}

/// A cursor over a request body for [`scan_queries`].
struct Scan<'a> {
    body: &'a [u8],
    at: usize,
}

impl Scan<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.body.get(self.at) {
            self.at += 1;
        }
    }

    /// Skips whitespace, then consumes `token` if it comes next.
    fn expect(&mut self, token: &[u8]) -> Option<()> {
        self.skip_ws();
        let next = self.body.get(self.at..self.at + token.len())?;
        (next == token).then(|| self.at += token.len())
    }

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn accept(&mut self, byte: u8) -> bool {
        self.expect(&[byte]).is_some()
    }

    /// Skips whitespace, then reads a plain non-negative integer.
    fn integer(&mut self) -> Option<usize> {
        self.skip_ws();
        let digits = self.body[self.at..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        let text = &self.body[self.at..self.at + digits];
        if digits == 0 || (digits > 1 && text[0] == b'0') {
            return None;
        }
        let mut n: u64 = 0;
        for &d in text {
            n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
        }
        self.at += digits;
        usize::try_from(n).ok()
    }
}

/// Pulls `(row, col)` out of a JSON object with `row` and `col` fields.
fn cell_of(fields: &[(String, Value)]) -> Result<(usize, usize), String> {
    let field = |name: &str| -> Result<usize, String> {
        match fields.iter().find(|(k, _)| k == name) {
            Some((_, v)) => v
                .as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| format!("field `{name}` must be a non-negative integer")),
            None => Err(format!("missing field `{name}`")),
        }
    };
    Ok((field("row")?, field("col")?))
}

fn predict(state: &AppState, req: &Request) -> Response {
    // Deliberately NOT gated on readiness: the installed snapshot is always
    // a complete model, so queries arriving mid-swap answer from whichever
    // snapshot the lock hands them — old or new, never an error, never a
    // mix. `/readyz` stays the place where load balancers see the swap.
    let engine = state.engine();
    match scan_queries(&req.body) {
        Some(cells) => answer_batch(state, &engine, &cells),
        None => predict_parsed(state, &engine, &req.body),
    }
}

/// The generic path: any body, through a JSON value tree.
fn predict_parsed(state: &AppState, engine: &QueryEngine, body: &[u8]) -> Response {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "body is not valid UTF-8"),
    };
    let value = match serde_json::parse_value(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("invalid JSON body: {e}")),
    };
    let Some(fields) = value.as_object() else {
        return Response::error(400, "body must be a JSON object");
    };

    if let Some((_, queries)) = fields.iter().find(|(k, _)| k == "queries") {
        let Some(items) = queries.as_array() else {
            return Response::error(400, "`queries` must be an array of [row, col] pairs");
        };
        if items.len() > MAX_BATCH {
            return Response::error(
                413,
                &format!("batch of {} exceeds {MAX_BATCH}", items.len()),
            );
        }
        let mut cells = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let pair = item.as_array().and_then(|a| {
                if a.len() == 2 {
                    Some((a[0].as_u64()?, a[1].as_u64()?))
                } else {
                    None
                }
            });
            match pair {
                Some((r, c)) => cells.push((r as usize, c as usize)),
                None => {
                    return Response::error(
                        400,
                        &format!("query #{i} is not a [row, col] pair of non-negative integers"),
                    );
                }
            }
        }
        return answer_batch(state, engine, &cells);
    }

    match cell_of(fields) {
        Ok((row, col)) => render_single(row, col, &engine.predict(row, col)),
        Err(msg) => Response::error(400, &msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Limits;
    use crate::state::ModelMeta;
    use dc_floc::DeltaCluster;
    use dc_matrix::DataMatrix;
    use dc_obs::Obs;
    use dc_serve::ServeModel;

    fn model_4x4() -> ServeModel {
        let mut m = DataMatrix::builder(4, 4).build();
        for r in 0..3 {
            for c in 0..3 {
                m.set(r, c, (r + 2 * c) as f64);
            }
        }
        let cluster = DeltaCluster::from_indices(4, 4, 0..3, 0..3);
        ServeModel::new(m, vec![cluster], vec![0.0], 0.0).unwrap()
    }

    fn state() -> AppState {
        AppState::new(model_4x4(), Some("fixture.dcm"), 2, Obs::null())
    }

    fn get(path: &str) -> Request {
        request("GET", path, None)
    }

    fn request(method: &str, target: &str, body: Option<&str>) -> Request {
        let body = body.unwrap_or("");
        let raw = format!(
            "{method} {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        crate::http::HttpReader::new(raw.as_bytes(), Limits::default())
            .next_request(None)
            .unwrap()
    }

    fn body_str(r: &Response) -> String {
        String::from_utf8(r.body.clone()).unwrap()
    }

    #[test]
    fn healthz_and_readyz() {
        let s = state();
        let r = handle(&s, &get("/healthz"));
        assert_eq!(r.status, 200);
        assert!(body_str(&r).contains("\"status\": \"ok\""));

        assert_eq!(handle(&s, &get("/readyz")).status, 200);
        s.set_ready(false);
        let r = handle(&s, &get("/readyz"));
        assert_eq!(r.status, 503);
        assert!(r.headers.iter().any(|(k, _)| k == "Retry-After"));
    }

    #[test]
    fn model_metadata_round_trips() {
        let s = state();
        let r = handle(&s, &get("/v1/model"));
        assert_eq!(r.status, 200);
        let meta: ModelMeta = serde_json::from_str(body_str(&r).trim()).unwrap();
        assert_eq!((meta.rows, meta.cols, meta.clusters), (4, 4, 1));
        assert_eq!(meta.path.as_deref(), Some("fixture.dcm"));
    }

    #[test]
    fn single_predict_hit_and_miss() {
        let s = state();
        let r = handle(
            &s,
            &request("POST", "/v1/predict", Some("{\"row\":1,\"col\":1}")),
        );
        assert_eq!(r.status, 200);
        let body = body_str(&r);
        assert!(body.contains("\"outcome\": \"hit\""), "{body}");
        serde_json::parse_value(&body).unwrap();

        let r = handle(
            &s,
            &request("POST", "/v1/predict", Some("{\"row\":3,\"col\":3}")),
        );
        let body = body_str(&r);
        assert!(body.contains("\"outcome\": \"miss\""), "{body}");
        assert!(body.contains("\"prediction\": null"), "{body}");
    }

    #[test]
    fn batch_predict_preserves_order_and_counts() {
        let s = state();
        let req = request(
            "POST",
            "/v1/predict",
            Some("{\"queries\": [[0,0],[3,3],[1,2]]}"),
        );
        let r = handle(&s, &req);
        assert_eq!(r.status, 200);
        let body = body_str(&r);
        let parsed = serde_json::parse_value(&body).unwrap();
        let results = parsed.as_object().unwrap()[0].1.as_array().unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(r.predictions, 3);
        // Order preserved: second query (3,3) is the miss.
        let outcome = |i: usize| {
            results[i].as_object().unwrap()[2]
                .1
                .as_str()
                .unwrap()
                .to_string()
        };
        assert_eq!(outcome(0), "hit");
        assert_eq!(outcome(1), "miss");
        assert_eq!(outcome(2), "hit");
    }

    #[test]
    fn predict_rejects_bad_bodies_with_400() {
        let s = state();
        for bad in [
            "",
            "not json",
            "[1,2]",
            "{\"row\": 1}",
            "{\"row\": -1, \"col\": 0}",
            "{\"row\": 1.5, \"col\": 0}",
            "{\"queries\": 7}",
            "{\"queries\": [[1]]}",
            "{\"queries\": [[1, \"x\"]]}",
        ] {
            let r = handle(&s, &request("POST", "/v1/predict", Some(bad)));
            assert_eq!(r.status, 400, "{bad:?} -> {}", body_str(&r));
            serde_json::parse_value(&body_str(&r)).expect("error body is JSON");
        }
    }

    /// Mid-swap, `/readyz` turns traffic away (for load balancers) but
    /// predicts already in flight keep answering from the installed
    /// snapshot — the promotion-never-errors contract.
    #[test]
    fn predict_answers_during_swap() {
        let s = state();
        s.set_ready(false);
        assert_eq!(handle(&s, &get("/readyz")).status, 503);
        let r = handle(
            &s,
            &request("POST", "/v1/predict", Some("{\"row\":0,\"col\":0}")),
        );
        assert_eq!(r.status, 200);
        assert!(body_str(&r).contains("\"outcome\": \"hit\""));
    }

    #[test]
    fn unknown_routes_and_methods() {
        let s = state();
        assert_eq!(handle(&s, &get("/nope")).status, 404);
        let r = handle(&s, &request("POST", "/healthz", None));
        assert_eq!(r.status, 405);
        assert!(r
            .headers
            .iter()
            .any(|(k, v)| k == "Allow" && v.contains("GET")));
        assert_eq!(handle(&s, &get("/v1/predict")).status, 405);
        let delete = Request {
            method: Method::Other("DELETE".into()),
            ..get("/metrics")
        };
        assert_eq!(handle(&s, &delete).status, 405);
    }

    #[test]
    fn metrics_formats() {
        let s = state();
        s.metrics.record_request(
            &Obs::null(),
            "GET",
            "/healthz",
            200,
            std::time::Duration::from_micros(5),
            0,
        );
        let r = handle(&s, &get("/metrics"));
        assert_eq!(r.content_type, "application/json");
        serde_json::parse_value(&body_str(&r)).unwrap();

        let r = handle(&s, &get("/metrics?format=prometheus"));
        assert!(r.content_type.starts_with("text/plain"));
        assert!(body_str(&r).contains("dc_net_requests_total"));

        let mut req = get("/metrics");
        req.headers.push(("accept".into(), "text/plain".into()));
        let r = handle(&s, &req);
        assert!(body_str(&r).contains("# TYPE"));
    }

    #[test]
    fn status_fragments_surface_on_healthz_and_model() {
        let s = state();
        s.set_status_fragment("miner", "{\"state\": \"running\", \"generation\": 3}");

        let r = handle(&s, &get("/healthz"));
        assert_eq!(r.status, 200);
        let body = body_str(&r);
        assert!(
            body.contains("\"miner\": {\"state\": \"running\""),
            "{body}"
        );
        serde_json::parse_value(&body).unwrap();

        let r = handle(&s, &get("/v1/model"));
        assert_eq!(r.status, 200);
        let body = body_str(&r);
        assert!(body.contains("\"generation\": 3"), "{body}");
        assert!(body.contains("\"version\": 1"), "{body}");
        serde_json::parse_value(&body).unwrap();
    }

    #[test]
    fn gauges_render_in_both_metrics_formats() {
        let s = state();
        s.set_gauge("miner_promotions_total", 7);
        let r = handle(&s, &get("/metrics"));
        let body = body_str(&r);
        assert!(body.contains("\"miner_promotions_total\": 7"), "{body}");
        serde_json::parse_value(&body).unwrap();

        let r = handle(&s, &get("/metrics?format=prometheus"));
        let body = body_str(&r);
        assert!(
            body.contains("# TYPE dc_miner_promotions_total gauge"),
            "{body}"
        );
        assert!(body.contains("dc_miner_promotions_total 7"), "{body}");
    }

    #[test]
    fn oversized_batch_is_413() {
        let s = state();
        let queries: String = (0..MAX_BATCH + 1)
            .map(|_| "[0,0]")
            .collect::<Vec<_>>()
            .join(",");
        // Build the request directly; the HTTP-level body limit is a
        // separate guard tested in http.rs.
        let req = Request {
            method: Method::Post,
            path: "/v1/predict".into(),
            query: None,
            headers: vec![],
            body: format!("{{\"queries\": [{queries}]}}").into_bytes(),
            keep_alive: true,
        };
        assert_eq!(handle(&s, &req).status, 413);
    }

    /// The body renderer before results were written into one buffer,
    /// kept as the reference for [`render_batch`] and [`render_single`].
    fn old_result_json(row: usize, col: usize, result: &Result<f64, PredictError>) -> String {
        let prediction = match result {
            Ok(v) if v.is_finite() => format!("{v}"),
            _ => "null".to_string(),
        };
        format!(
            "{{\"row\": {row}, \"col\": {col}, \"outcome\": \"{}\", \"prediction\": {prediction}}}",
            outcome_str(result)
        )
    }

    #[test]
    fn rendering_matches_the_old_renderer_byte_for_byte() {
        let results = [
            Ok(2.5),
            Err(PredictError::NotCovered),
            Err(PredictError::DegenerateCluster),
            Ok(0.0),
            Ok(-0.0),
            Ok(1e-7),
            Ok(1e21),
            Ok(-123.456_789_012_345_67),
            Ok(f64::NAN),
            Ok(f64::INFINITY),
            Ok(f64::NEG_INFINITY),
        ];
        let cells: Vec<(usize, usize)> = (0..results.len())
            .map(|i| (i * 997, usize::MAX - i))
            .collect();
        for n in 0..=results.len() {
            let old: Vec<String> = cells[..n]
                .iter()
                .zip(&results[..n])
                .map(|(&(r, c), res)| old_result_json(r, c, res))
                .collect();
            let old = format!("{{\"results\": [{}]}}\n", old.join(", "));
            let new = render_batch(&cells[..n], &results[..n]);
            assert_eq!(body_str(&new), old);
            assert_eq!(new.predictions, n as u64);
        }
        for (&(r, c), res) in cells.iter().zip(&results) {
            let new = render_single(r, c, res);
            assert_eq!(body_str(&new), old_result_json(r, c, res) + "\n");
            assert_eq!(new.predictions, 1);
        }
    }

    /// `body` with an extra key in its first object, which sends it down
    /// the generic path. Bodies with no `{` come back unchanged.
    fn with_extra_key(body: &[u8]) -> Vec<u8> {
        let Some(at) = body.iter().position(|&b| b == b'{') else {
            return body.to_vec();
        };
        let rest = &body[at + 1..];
        let empty = rest.trim_ascii_start().starts_with(b"}");
        let key: &[u8] = if empty {
            b"\"pad\": 0"
        } else {
            b"\"pad\": 0, "
        };
        [&body[..=at], key, rest].concat()
    }

    fn post(body: &[u8]) -> Request {
        Request {
            method: Method::Post,
            path: "/v1/predict".into(),
            query: None,
            headers: vec![],
            body: body.to_vec(),
            keep_alive: true,
        }
    }

    fn differential_corpus() -> Vec<Vec<u8>> {
        let batch = |n: usize| {
            let pairs = vec!["[1,2]"; n].join(",");
            format!("{{\"queries\": [{pairs}]}}").into_bytes()
        };
        let mut corpus: Vec<Vec<u8>> = [
            // Canonical and whitespace variants.
            "{\"queries\": [[0,0],[3,3],[1,2]]}",
            "{\"queries\":[[0,0],[3,3],[1,2]]}",
            " \t\r\n{ \"queries\" :\t[ [ 0 , 0 ] ,\n[ 3 ,3 ] ] }\r\n ",
            "{\"queries\": [[2, 1],\n  [0, 3]]}\n",
            // Empty batches.
            "{\"queries\": []}",
            "{\"queries\": [ \n ]}",
            // Duplicate keys: the first `queries` wins.
            "{\"queries\": [[0,0]], \"queries\": [[1,1]]}",
            // Numbers the scanner leaves to the generic path.
            "{\"queries\": [[00,1]]}",
            "{\"queries\": [[01,2]]}",
            "{\"queries\": [[-0,1]]}",
            "{\"queries\": [[1.0,2]]}",
            "{\"queries\": [[1e2,2]]}",
            "{\"queries\": [[1E0,0]]}",
            "{\"queries\": [[-1,0]]}",
            "{\"queries\": [[18446744073709551615,0]]}",
            "{\"queries\": [[18446744073709551616,0]]}",
            "{\"queries\": [[0,99999999999999999999999]]}",
            // Strings, escapes and other shapes.
            "{\"queries\": [[\"0\",1]]}",
            "{\"queries\": \"[[0,0]]\"}",
            "{\"qu\\u0065ries\": [[0,0]]}",
            "{\"queries\": [[[0],1]]}",
            "{\"queries\": [[0,1,2]]}",
            "{\"queries\": [[0]]}",
            "{\"queries\": [0,1]}",
            "{\"queries\": 7}",
            "{\"row\": 1, \"col\": 1}",
            "{\"row\": 3, \"col\": 3}",
            "{\"row\": 1}",
            "{}",
            "[[0,0]]",
            "",
            // Trailing garbage and truncation.
            "{\"queries\": [[0,0]]} x",
            "{\"queries\": [[0,0]]}}",
            "{\"queries\": [[0,0]],}",
            "{\"queries\": [[0,0],]}",
            "{\"queries\": [[0,0]]",
            "{\"queries\": [[0,",
        ]
        .iter()
        .map(|b| b.as_bytes().to_vec())
        .collect();
        corpus.push(batch(MAX_BATCH));
        corpus.push(batch(MAX_BATCH + 1));
        // Non-UTF-8 bytes, inside and after the object.
        corpus.push(b"{\"queries\": [[0,0]]}\xff".to_vec());
        corpus.push(b"{\"queries\": [[0,0]], \"x\": \"\xc3\x28\"}".to_vec());
        corpus
    }

    /// Every body answers the same status, bytes and prediction count
    /// whether or not the scanner takes it.
    #[test]
    fn scanned_bodies_answer_like_the_generic_path() {
        let s = state();
        let engine = s.engine();
        let mut scanned = 0;
        for body in differential_corpus() {
            let shown = String::from_utf8_lossy(&body);
            let shown = &shown[..shown.len().min(80)];
            scanned += usize::from(scan_queries(&body).is_some());
            let sent = handle(&s, &post(&body));
            let generic = predict_parsed(&s, &engine, &body);
            assert_eq!(sent.status, generic.status, "{shown}");
            assert_eq!(sent.body, generic.body, "{shown}");
            assert_eq!(sent.predictions, generic.predictions, "{shown}");

            // Through `handle` with an extra key. A malformed body's parse
            // error names a byte offset, which the key moves, so only its
            // status is compared.
            let keyed = handle(&s, &post(&with_extra_key(&body)));
            assert_eq!(sent.status, keyed.status, "{shown}");
            let well_formed = std::str::from_utf8(&body)
                .is_ok_and(|t| serde_json::parse_value(t).is_ok_and(|v| v.as_object().is_some()));
            if well_formed {
                assert_eq!(sent.body, keyed.body, "{shown}");
                assert_eq!(sent.predictions, keyed.predictions, "{shown}");
            }

            // The carried count is the number of results rendered.
            let results = if sent.status == 200 {
                body_str(&sent).matches("\"outcome\"").count() as u64
            } else {
                0
            };
            assert_eq!(sent.predictions, results, "{shown}");
        }
        // The canonical and whitespace bodies, the empty ones, u64::MAX and
        // the MAX_BATCH batch take the scanner.
        assert_eq!(scanned, 8);
    }

    #[test]
    fn scanner_reads_cells_and_refuses_everything_else() {
        let cells = |b: &str| scan_queries(b.as_bytes());
        assert_eq!(
            cells("{\"queries\": [[0,0],[3,3],[1,2]]}"),
            Some(vec![(0, 0), (3, 3), (1, 2)])
        );
        assert_eq!(
            cells(" {\"queries\" : [ [ 10 ,\t7 ] ] }\n"),
            Some(vec![(10, 7)])
        );
        assert_eq!(cells("{\"queries\": []}"), Some(vec![]));
        assert_eq!(
            cells("{\"queries\": [[18446744073709551615,0]]}"),
            Some(vec![(usize::MAX, 0)])
        );
        for other in [
            "{\"queries\": [[01,0]]}",
            "{\"queries\": [[-0,0]]}",
            "{\"queries\": [[1.0,0]]}",
            "{\"queries\": [[1e2,0]]}",
            "{\"queries\": [[18446744073709551616,0]]}",
            "{\"queries\": [[0,0]], \"x\": 1}",
            "{\"x\": 1, \"queries\": [[0,0]]}",
            "{\"queries\": [[0,0]]} x",
            "{\"queries\": [[0,0],]}",
            "{\"queries\": [[0,0]]",
            "{\"row\": 1, \"col\": 1}",
            "",
        ] {
            assert_eq!(cells(other), None, "{other}");
        }
    }

    #[test]
    fn carried_count_matches_results_on_every_response() {
        let s = state();
        let single = handle(
            &s,
            &request("POST", "/v1/predict", Some("{\"row\":3,\"col\":3}")),
        );
        assert_eq!((single.status, single.predictions), (200, 1));
        let generic = handle(
            &s,
            &request(
                "POST",
                "/v1/predict",
                Some("{\"queries\": [[0,0]], \"x\": 1}"),
            ),
        );
        assert_eq!((generic.status, generic.predictions), (200, 1));
        for bad in ["{\"queries\": [[0]]}", "{\"row\": 1}", "nope"] {
            let r = handle(&s, &request("POST", "/v1/predict", Some(bad)));
            assert_eq!((r.status, r.predictions), (400, 0), "{bad}");
        }
        for path in ["/healthz", "/metrics", "/v1/model", "/nope"] {
            assert_eq!(handle(&s, &get(path)).predictions, 0, "{path}");
        }
    }
}

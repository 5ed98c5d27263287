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

use crate::http::{Method, Request, Response};
use crate::state::AppState;
use dc_serve::PredictError;
use serde::Value;

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

/// Number of predictions a response carried, for the predictions counter.
pub fn predictions_in(req: &Request, resp: &Response) -> u64 {
    if req.path == "/v1/predict" && resp.status == 200 {
        // Cheap structural count: one result object per "outcome" key.
        let body = String::from_utf8_lossy(&resp.body);
        body.matches("\"outcome\"").count() as u64
    } else {
        0
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

fn result_json(row: usize, col: usize, result: &Result<f64, PredictError>) -> String {
    let prediction = match result {
        Ok(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    };
    format!(
        "{{\"row\": {row}, \"col\": {col}, \"outcome\": \"{}\", \"prediction\": {prediction}}}",
        outcome_str(result)
    )
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
    let text = match std::str::from_utf8(&req.body) {
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
        // Fan a batch out over worker threads only when it is big enough to
        // amortize the spawn cost; small batches answer serially (request-
        // level parallelism already comes from the connection worker pool).
        let fanout = (cells.len() / 256).clamp(1, state.batch_threads);
        let results = engine.predict_batch(&cells, fanout);
        let mut body = String::from("{\"results\": [");
        for (i, ((row, col), result)) in cells.iter().zip(&results).enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            body.push_str(&result_json(*row, *col, result));
        }
        body.push_str("]}\n");
        return Response::json(200, body);
    }

    match cell_of(fields) {
        Ok((row, col)) => {
            let result = engine.predict(row, col);
            Response::json(200, result_json(row, col, &result) + "\n")
        }
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
        assert_eq!(predictions_in(&req, &r), 3);
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
}

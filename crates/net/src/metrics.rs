//! Server-side request metrics: counters and latency histograms reusing
//! the `dc-obs` primitives, rendered as JSON (`GET /metrics`) or Prometheus
//! text exposition (`GET /metrics?format=prometheus` or an
//! `Accept: text/plain` header).
//!
//! All mutation goes through one mutex taken once per request — the same
//! "aggregate under a lock touched rarely" pattern `QueryStats` uses — so
//! the serving hot path pays a short uncontended lock, not per-field
//! atomics.

use dc_obs::{bucket_of, Counter, EventKind, Field, Histogram, Obs};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

#[derive(Debug, Default)]
struct Inner {
    requests: Counter,
    /// Responses by status class index (2 → 2xx, 4 → 4xx, 5 → 5xx, ...).
    by_class: [Counter; 6],
    by_route: BTreeMap<String, u64>,
    /// Connections rejected with 503 by queue backpressure.
    rejected: Counter,
    connections_opened: Counter,
    connections_closed: Counter,
    /// Predictions answered (batch requests count every query).
    predictions: Counter,
    latency: Histogram,
}

/// Shared, thread-safe request metrics for one server.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    inner: Mutex<Inner>,
    /// Connections currently inside a worker (gauge; atomic so the accept
    /// loop can read it without the lock).
    active: AtomicU64,
}

fn relock(inner: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
    inner.lock().unwrap_or_else(|e| e.into_inner())
}

impl ServerMetrics {
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    /// Records one answered request and emits the `net.request` event:
    /// `method`, `path`, `status`, `duration_nanos`, and `latency_bucket`,
    /// the latency's [`dc_obs::bucket_of`] index in the log-linear
    /// histogram (16 buckets per power of two; see
    /// [`dc_obs::HISTOGRAM_BUCKETS`]).
    pub fn record_request(
        &self,
        obs: &Obs,
        method: &str,
        path: &str,
        status: u16,
        latency: Duration,
        predictions: u64,
    ) {
        let nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
        {
            let mut m = relock(&self.inner);
            m.requests.inc();
            m.by_class[(status as usize / 100).min(5)].inc();
            *m.by_route.entry(route_key(method, path)).or_insert(0) += 1;
            m.predictions.add(predictions);
            m.latency.record(nanos);
        }
        if obs.enabled() {
            obs.emit_full(
                EventKind::Span,
                "net.request",
                &[
                    Field::new("method", method),
                    Field::new("path", path),
                    Field::new("status", status as u64),
                    Field::new("duration_nanos", nanos),
                    Field::new("latency_bucket", bucket_of(nanos) as u64),
                ],
                None,
            );
        }
    }

    /// Records a connection rejected by backpressure (503 at accept time).
    pub fn record_rejected(&self, obs: &Obs) {
        relock(&self.inner).rejected.inc();
        if obs.enabled() {
            obs.emit("net.rejected", &[Field::new("status", 503u64)]);
        }
    }

    pub fn connection_opened(&self) {
        relock(&self.inner).connections_opened.inc();
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    pub fn connection_closed(&self) {
        relock(&self.inner).connections_closed.inc();
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter, for rendering and tests.
    pub fn snapshot(&self) -> MetricsReport {
        let m = relock(&self.inner);
        MetricsReport {
            requests: m.requests.get(),
            responses_2xx: m.by_class[2].get(),
            responses_4xx: m.by_class[4].get(),
            responses_5xx: m.by_class[5].get(),
            by_route: m.by_route.clone(),
            rejected: m.rejected.get(),
            connections_opened: m.connections_opened.get(),
            connections_closed: m.connections_closed.get(),
            active_connections: self.active_connections(),
            predictions: m.predictions.get(),
            latency: m.latency.clone(),
        }
    }
}

fn route_key(method: &str, path: &str) -> String {
    format!("{method} {path}")
}

/// Rendered view of [`ServerMetrics`].
#[derive(Debug, Clone)]
pub struct MetricsReport {
    pub requests: u64,
    pub responses_2xx: u64,
    pub responses_4xx: u64,
    pub responses_5xx: u64,
    pub by_route: BTreeMap<String, u64>,
    pub rejected: u64,
    pub connections_opened: u64,
    pub connections_closed: u64,
    pub active_connections: u64,
    pub predictions: u64,
    pub latency: Histogram,
}

impl MetricsReport {
    /// The `GET /metrics` JSON body.
    pub fn to_json(&self) -> String {
        let mut routes = String::new();
        for (i, (route, count)) in self.by_route.iter().enumerate() {
            if i > 0 {
                routes.push_str(", ");
            }
            let route = route.replace('\\', "\\\\").replace('"', "\\\"");
            routes.push_str(&format!("\"{route}\": {count}"));
        }
        format!(
            "{{\n  \"requests\": {},\n  \"responses\": {{\"2xx\": {}, \"4xx\": {}, \"5xx\": {}}},\n  \
             \"by_route\": {{{routes}}},\n  \"rejected\": {},\n  \
             \"connections\": {{\"opened\": {}, \"closed\": {}, \"active\": {}}},\n  \
             \"predictions\": {},\n  \
             \"latency_nanos\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p99\": {}}}\n}}\n",
            self.requests,
            self.responses_2xx,
            self.responses_4xx,
            self.responses_5xx,
            self.rejected,
            self.connections_opened,
            self.connections_closed,
            self.active_connections,
            self.predictions,
            self.latency.count(),
            self.latency.mean(),
            self.latency.quantile(0.5),
            self.latency.quantile(0.99),
        )
    }

    /// Prometheus text exposition format (version 0.0.4).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        counter("dc_net_requests_total", "Requests answered", self.requests);
        counter(
            "dc_net_rejected_total",
            "Connections rejected by queue backpressure",
            self.rejected,
        );
        counter(
            "dc_net_predictions_total",
            "Point predictions answered (batch requests count each query)",
            self.predictions,
        );
        counter(
            "dc_net_connections_opened_total",
            "Connections accepted into the worker pool",
            self.connections_opened,
        );
        counter(
            "dc_net_connections_closed_total",
            "Connections fully handled and closed",
            self.connections_closed,
        );
        out.push_str(
            "# HELP dc_net_responses_total Responses by status class\n\
             # TYPE dc_net_responses_total counter\n",
        );
        for (class, value) in [
            ("2xx", self.responses_2xx),
            ("4xx", self.responses_4xx),
            ("5xx", self.responses_5xx),
        ] {
            out.push_str(&format!(
                "dc_net_responses_total{{class=\"{class}\"}} {value}\n"
            ));
        }
        out.push_str(&format!(
            "# HELP dc_net_active_connections Connections currently inside a worker\n\
             # TYPE dc_net_active_connections gauge\n\
             dc_net_active_connections {}\n",
            self.active_connections
        ));
        out.push_str(&format!(
            "# HELP dc_net_request_latency_seconds Request latency (log-linear bucket estimate, at most 6.25% high)\n\
             # TYPE dc_net_request_latency_seconds summary\n\
             dc_net_request_latency_seconds{{quantile=\"0.5\"}} {}\n\
             dc_net_request_latency_seconds{{quantile=\"0.99\"}} {}\n\
             dc_net_request_latency_seconds_sum {}\n\
             dc_net_request_latency_seconds_count {}\n",
            self.latency.quantile(0.5) as f64 / 1e9,
            self.latency.quantile(0.99) as f64 / 1e9,
            self.latency.total() as f64 / 1e9,
            self.latency.count(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_obs::MemorySink;

    #[test]
    fn records_requests_and_classes() {
        let m = ServerMetrics::new();
        let obs = Obs::null();
        m.record_request(&obs, "GET", "/healthz", 200, Duration::from_micros(10), 0);
        m.record_request(
            &obs,
            "POST",
            "/v1/predict",
            200,
            Duration::from_micros(50),
            3,
        );
        m.record_request(&obs, "GET", "/nope", 404, Duration::from_micros(5), 0);
        m.record_rejected(&obs);
        let snap = m.snapshot();
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.responses_2xx, 2);
        assert_eq!(snap.responses_4xx, 1);
        assert_eq!(snap.responses_5xx, 0);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.predictions, 3);
        assert_eq!(snap.by_route.get("GET /healthz"), Some(&1));
        assert_eq!(snap.latency.count(), 3);
    }

    #[test]
    fn connection_gauge_balances() {
        let m = ServerMetrics::new();
        m.connection_opened();
        m.connection_opened();
        assert_eq!(m.active_connections(), 2);
        m.connection_closed();
        m.connection_closed();
        assert_eq!(m.active_connections(), 0);
        let snap = m.snapshot();
        assert_eq!(snap.connections_opened, 2);
        assert_eq!(snap.connections_closed, 2);
    }

    #[test]
    fn json_rendering_is_valid_json() {
        let m = ServerMetrics::new();
        m.record_request(
            &Obs::null(),
            "GET",
            "/metrics",
            200,
            Duration::from_micros(7),
            0,
        );
        let text = m.snapshot().to_json();
        serde_json::parse_value(&text).expect("metrics JSON must parse");
        assert!(text.contains("\"requests\": 1"), "{text}");
        assert!(text.contains("\"GET /metrics\": 1"), "{text}");
    }

    #[test]
    fn prometheus_rendering_has_types_and_samples() {
        let m = ServerMetrics::new();
        m.record_request(
            &Obs::null(),
            "POST",
            "/v1/predict",
            200,
            Duration::from_millis(1),
            1,
        );
        let text = m.snapshot().to_prometheus();
        assert!(
            text.contains("# TYPE dc_net_requests_total counter"),
            "{text}"
        );
        assert!(text.contains("dc_net_requests_total 1"), "{text}");
        assert!(
            text.contains("dc_net_responses_total{class=\"2xx\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("dc_net_request_latency_seconds_count 1"),
            "{text}"
        );
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad sample line: {line}");
        }
    }

    #[test]
    fn net_request_event_carries_the_envelope() {
        let sink = MemorySink::new();
        let obs = Obs::new(sink.clone());
        let m = ServerMetrics::new();
        m.record_request(&obs, "GET", "/healthz", 200, Duration::from_micros(3), 0);
        let events = sink.named("net.request");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].str_field("method"), Some("GET"));
        assert_eq!(events[0].str_field("path"), Some("/healthz"));
        assert_eq!(events[0].u64_field("status"), Some(200));
        assert!(events[0].u64_field("duration_nanos").is_some());
        assert!(events[0].u64_field("latency_bucket").is_some());
    }
}

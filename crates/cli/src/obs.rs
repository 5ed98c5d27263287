//! CLI wiring for the dc-obs observability layer.
//!
//! Three user-facing switches, shared by the observing subcommands:
//!
//! * `--log text|json` — stream every event; `text` writes human lines to
//!   stderr, `json` writes JSON-lines to stdout (the command's own summary
//!   then moves to stderr so stdout stays machine-parseable).
//! * `--progress` — terse per-iteration mining progress on stderr, usable
//!   with or without `--log`.
//! * `--metrics PATH` — aggregate every event into counts + duration
//!   histograms and write them as a JSON artifact when the command ends.
//!
//! The module also hosts [`CkptSink`], the `--checkpoint` writer: it takes
//! each snapshot from its `floc.checkpoint` event
//! ([`FlocCheckpoint::from_event`]) and persists it through
//! `dc_serve::save_checkpoint`, tracking write latency and failures
//! without ever aborting the mining run.

use crate::args::Args;
use dc_floc::FlocCheckpoint;
use dc_obs::{
    Event, FieldValue, Histogram, HistogramSummary, JsonSink, MetricsEntry, MetricsSink, Obs, Sink,
    TextSink,
};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A pending `--metrics PATH` export: keep the sink's other clone in the
/// fanout, then call [`MetricsExport::write`] once the command is done.
pub struct MetricsExport {
    sink: MetricsSink,
    path: String,
}

impl MetricsExport {
    /// Destination path, for the post-run summary line.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Renders the aggregated metrics and writes them atomically.
    ///
    /// # Errors
    /// Propagates IO failures from the atomic write.
    pub fn write(&self) -> std::io::Result<()> {
        let json = metrics_to_json(&self.sink.snapshot());
        dc_matrix::atomic::atomic_write(&self.path, json.as_bytes())
    }
}

/// Renders a [`MetricsSink`] snapshot as the documented `metrics.json`
/// shape: `{"events": [{"name", "count", "durations"?: {...}}]}`.
pub fn metrics_to_json(entries: &[MetricsEntry]) -> String {
    let mut buf = String::from("{\n  \"events\": [");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        // Event names are code-controlled identifiers; the only characters
        // needing escape in practice never occur, but escape minimally
        // anyway so the artifact can never be malformed.
        let name = e.name.replace('\\', "\\\\").replace('"', "\\\"");
        buf.push_str(&format!(
            "\n    {{\"name\": \"{name}\", \"count\": {}",
            e.count
        ));
        if let Some(d) = &e.durations {
            buf.push_str(&format!(
                ", \"durations\": {{\"count\": {}, \"total_nanos\": {}, \"mean_nanos\": {}, \
                 \"p50_nanos\": {}, \"p99_nanos\": {}}}",
                d.count, d.total, d.mean, d.p50, d.p99
            ));
        }
        buf.push('}');
    }
    buf.push_str("\n  ]\n}\n");
    buf
}

/// Composes the observability stack a command should run under, from the
/// shared `--log` / `--progress` / `--metrics` flags.
#[derive(Default)]
pub struct ObsBuilder {
    sinks: Vec<Box<dyn Sink>>,
    metrics: Option<(MetricsSink, String)>,
}

impl std::fmt::Debug for ObsBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsBuilder")
            .field("sinks", &self.sinks.len())
            .field("metrics", &self.metrics.as_ref().map(|(_, p)| p))
            .finish()
    }
}

impl ObsBuilder {
    /// Parses the shared observability flags.
    ///
    /// # Errors
    /// Returns a usage message for an unknown `--log` format.
    pub fn from_args(args: &Args) -> Result<ObsBuilder, String> {
        let mut builder = ObsBuilder::default();
        match args.get("log") {
            None => {}
            Some("json") => builder.sinks.push(Box::new(JsonSink::stdout())),
            Some("text") => builder.sinks.push(Box::new(TextSink::stderr())),
            Some(other) => return Err(format!("--log {other:?}: expected `text` or `json`")),
        }
        if args.switch("progress") {
            builder.sinks.push(Box::new(ProgressSink::stderr()));
        }
        if let Some(path) = args.get("metrics") {
            let sink = MetricsSink::new();
            builder.sinks.push(Box::new(sink.clone()));
            builder.metrics = Some((sink, path.to_string()));
        }
        Ok(builder)
    }

    /// Adds a command-specific sink (e.g. the checkpoint writer).
    pub fn push(&mut self, sink: Box<dyn Sink>) {
        self.sinks.push(sink);
    }

    /// Finishes composition: the [`Obs`] handle (null when no sink was
    /// requested) plus the pending `--metrics` export, if any.
    pub fn build(self) -> (Obs, Option<MetricsExport>) {
        let export = self
            .metrics
            .map(|(sink, path)| MetricsExport { sink, path });
        (Obs::fanout(self.sinks), export)
    }
}

/// True when `--log json` routes stdout to the event stream, so the
/// command's human-readable output must move to stderr.
pub fn json_log_active(args: &Args) -> bool {
    args.get("log") == Some("json")
}

/// Terse human mining progress on stderr: one line per FLOC iteration plus
/// restart and completion lines. Ignores every other event, so it composes
/// with `--log json` on stdout.
pub struct ProgressSink {
    out: Mutex<std::io::Stderr>,
}

impl ProgressSink {
    pub fn stderr() -> ProgressSink {
        ProgressSink {
            out: Mutex::new(std::io::stderr()),
        }
    }
}

fn u64_field(event: &Event<'_>, key: &str) -> Option<u64> {
    match event.field(key) {
        Some(FieldValue::U64(n)) => Some(n),
        _ => None,
    }
}

fn f64_field(event: &Event<'_>, key: &str) -> Option<f64> {
    match event.field(key) {
        Some(FieldValue::F64(x)) => Some(x),
        _ => None,
    }
}

fn str_field<'a>(event: &Event<'a>, key: &str) -> Option<&'a str> {
    match event.field(key) {
        Some(FieldValue::Str(s)) => Some(s),
        _ => None,
    }
}

impl Sink for ProgressSink {
    fn emit(&self, event: &Event<'_>) {
        let mut out = relock(&self.out);
        let _ = match event.name {
            "floc.iteration" => {
                let iter = u64_field(event, "iteration").unwrap_or(0);
                let residue = f64_field(event, "avg_residue").unwrap_or(f64::NAN);
                let actions = u64_field(event, "actions_performed").unwrap_or(0);
                let improved = matches!(event.field("improved"), Some(FieldValue::Bool(true)));
                writeln!(
                    out,
                    "progress: iter {iter:>4}  avg residue {residue:<12.6} actions {actions:>4}{}",
                    if improved { "  (improved)" } else { "" }
                )
            }
            "floc.restart" => {
                let seed = u64_field(event, "seed").unwrap_or(0);
                match f64_field(event, "avg_residue") {
                    Some(residue) => {
                        writeln!(
                            out,
                            "progress: restart seed {seed} -> avg residue {residue:.6}"
                        )
                    }
                    None => writeln!(out, "progress: restart seed {seed} failed"),
                }
            }
            "floc.done" => {
                let iters = u64_field(event, "iterations").unwrap_or(0);
                let residue = f64_field(event, "avg_residue").unwrap_or(f64::NAN);
                let reason = str_field(event, "stop_reason").unwrap_or("?");
                writeln!(
                    out,
                    "progress: done after {iters} iteration(s): avg residue {residue:.6} ({reason})"
                )
            }
            _ => return,
        };
    }

    fn flush(&self) {
        let _ = relock(&self.out).flush();
    }
}

/// What a [`CkptSink`] accumulated over a run.
#[derive(Debug, Clone, Default)]
pub struct CkptReport {
    /// Non-fatal checkpoint-write failures, in occurrence order.
    pub warnings: Vec<String>,
    /// The most recent snapshot seen, whether or not it was persisted.
    pub last_snapshot: Option<FlocCheckpoint>,
    /// Snapshots actually written to disk.
    pub written: u64,
    /// Latency distribution of successful checkpoint writes.
    pub write_latency: Histogram,
}

#[derive(Default)]
struct CkptState {
    warnings: Vec<String>,
    last_snapshot: Option<FlocCheckpoint>,
    written: u64,
    write_latency: Histogram,
}

/// Persists `floc.checkpoint` events: the [`FlocCheckpoint`] snapshot
/// arrives as the event's attachment and is saved through the crash-safe
/// `.dck` path every `every`-th iteration. Clones share state, so keep one
/// clone and box the other into the fanout.
///
/// `delay_ms` stretches each checkpoint boundary (a test/demo aid carried
/// over from `--iteration-delay-ms`, letting interrupts land mid-run
/// deterministically on small inputs).
#[derive(Clone)]
pub struct CkptSink {
    path: Option<Arc<str>>,
    every: usize,
    delay_ms: u64,
    state: Arc<Mutex<CkptState>>,
}

impl CkptSink {
    pub fn new(path: Option<String>, every: usize, delay_ms: u64) -> CkptSink {
        CkptSink {
            path: path.map(Arc::from),
            every: every.max(1),
            delay_ms,
            state: Arc::new(Mutex::new(CkptState::default())),
        }
    }

    /// Snapshot of the accumulated warnings, last checkpoint, and write
    /// statistics.
    pub fn report(&self) -> CkptReport {
        let st = relock(&self.state);
        CkptReport {
            warnings: st.warnings.clone(),
            last_snapshot: st.last_snapshot.clone(),
            written: st.written,
            write_latency: st.write_latency.clone(),
        }
    }

    /// Summary of successful write latencies, for the `cli.checkpoint_io`
    /// post-run event.
    pub fn latency_summary(&self) -> HistogramSummary {
        HistogramSummary::of(&relock(&self.state).write_latency)
    }
}

impl Sink for CkptSink {
    fn emit(&self, event: &Event<'_>) {
        let Some(snap) = FlocCheckpoint::from_event(event) else {
            return;
        };
        if self.delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.delay_ms));
        }
        let mut st = relock(&self.state);
        if let Some(path) = self.path.as_deref() {
            if snap.iterations.is_multiple_of(self.every) {
                let started = Instant::now();
                match dc_serve::save_checkpoint(snap, path) {
                    Ok(()) => {
                        st.written += 1;
                        st.write_latency.record_duration(started.elapsed());
                    }
                    Err(e) => st
                        .warnings
                        .push(format!("warning: checkpoint write failed: {path}: {e}")),
                }
            }
        }
        st.last_snapshot = Some(snap.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_obs::{EventKind, Field};

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn builder_parses_log_formats_and_rejects_unknown() {
        let (obs, metrics) = ObsBuilder::from_args(&args(&["mine"])).unwrap().build();
        assert!(!obs.enabled());
        assert!(metrics.is_none());

        let (obs, _) = ObsBuilder::from_args(&args(&["mine", "--log", "text"]))
            .unwrap()
            .build();
        assert!(obs.enabled());

        let err = ObsBuilder::from_args(&args(&["mine", "--log", "xml"])).unwrap_err();
        assert!(err.contains("xml"));
        // `--log` with no value parses as the boolean `"true"`.
        let err = ObsBuilder::from_args(&args(&["mine", "--log"])).unwrap_err();
        assert!(err.contains("true"));
    }

    #[test]
    fn metrics_flag_registers_an_export() {
        let dir = std::env::temp_dir().join("dc_cli_obs_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        let (obs, metrics) =
            ObsBuilder::from_args(&args(&["mine", "--metrics", path.to_str().unwrap()]))
                .unwrap()
                .build();
        assert!(obs.enabled());
        obs.emit("x", &[Field::new("duration_nanos", 500u64)]);
        obs.emit("x", &[Field::new("duration_nanos", 700u64)]);
        let export = metrics.unwrap();
        export.write().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        serde_json::parse_value(&text).expect("metrics artifact must be valid JSON");
        assert!(text.contains("\"name\": \"x\""), "{text}");
        assert!(text.contains("\"count\": 2"), "{text}");
        assert!(text.contains("\"total_nanos\": 1200"), "{text}");
    }

    #[test]
    fn ckpt_sink_ignores_foreign_events_and_tracks_snapshots() {
        let sink = CkptSink::new(None, 1, 0);
        let obs = Obs::new(sink.clone());
        obs.emit("floc.iteration", &[]);
        assert!(sink.report().last_snapshot.is_none());

        // A checkpoint event carries the snapshot as its attachment.
        let m = dc_matrix::DataMatrix::builder(2, 2).from_rows(vec![1.0, 2.0, 3.0, 4.0]);
        let config = dc_floc::FlocConfig::builder(1).build();
        let snap = FlocCheckpoint {
            config,
            matrix_rows: 2,
            matrix_cols: 2,
            matrix_specified: m.specified_count(),
            matrix_fingerprint: m.fingerprint(),
            iterations: 1,
            rng_state: vec![1, 2, 3, 4],
            clusters: vec![dc_floc::DeltaCluster::from_indices(2, 2, [0], [0])],
            residues: vec![0.0],
            avg_residue: 0.0,
            trace: vec![],
            stop: None,
        };
        obs.emit_full(EventKind::Point, "floc.checkpoint", &[], Some(&snap));
        let report = sink.report();
        assert_eq!(report.last_snapshot.as_ref().map(|s| s.iterations), Some(1));
        // No path configured: nothing written, no warnings.
        assert_eq!(report.written, 0);
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn ckpt_sink_writes_and_reports_latency() {
        let dir = std::env::temp_dir().join("dc_cli_obs_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.dck");
        let sink = CkptSink::new(Some(path.to_str().unwrap().to_string()), 2, 0);
        let obs = Obs::new(sink.clone());
        let m = dc_matrix::DataMatrix::builder(2, 2).from_rows(vec![1.0, 2.0, 3.0, 4.0]);
        let config = dc_floc::FlocConfig::builder(1).build();
        for iterations in 1..=4 {
            let snap = FlocCheckpoint {
                config: config.clone(),
                matrix_rows: 2,
                matrix_cols: 2,
                matrix_specified: m.specified_count(),
                matrix_fingerprint: m.fingerprint(),
                iterations,
                rng_state: vec![1, 2, 3, 4],
                clusters: vec![dc_floc::DeltaCluster::from_indices(2, 2, [0], [0])],
                residues: vec![0.0],
                avg_residue: 0.0,
                trace: vec![],
                stop: None,
            };
            obs.emit_full(EventKind::Point, "floc.checkpoint", &[], Some(&snap));
        }
        let report = sink.report();
        // Only iterations 2 and 4 match `--checkpoint-every 2`.
        assert_eq!(report.written, 2);
        assert_eq!(report.write_latency.count(), 2);
        assert_eq!(report.last_snapshot.unwrap().iterations, 4);
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_sink_only_reacts_to_mining_events() {
        // Smoke test: must not panic on arbitrary events or missing fields.
        let sink = ProgressSink::stderr();
        let obs = Obs::new(sink);
        obs.emit("serve.query", &[Field::new("latency_nanos", 5u64)]);
        obs.emit("floc.iteration", &[]);
        obs.emit("floc.done", &[Field::new("stop_reason", "converged")]);
    }

    #[test]
    fn metrics_json_is_valid_and_escapes_names() {
        let entries = vec![MetricsEntry {
            name: "odd\"name".into(),
            count: 1,
            durations: None,
        }];
        let text = metrics_to_json(&entries);
        serde_json::parse_value(&text).expect("escaped names must stay valid JSON");
        assert!(text.contains("odd\\\"name"));
    }
}

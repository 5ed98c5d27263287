//! Concurrent query serving over an immutable [`ServeModel`].
//!
//! The model is shared read-only behind an `Arc`, so any number of worker
//! threads can answer point queries without synchronization; the only
//! shared mutable state is the [`QueryStats`] aggregator behind a
//! `parking_lot::Mutex`, which workers touch once per batch (thread-local
//! tallies are merged, not per-query locking).
//!
//! With an [`Obs`] handle attached (see [`QueryEngine::with_obs`]) the
//! engine additionally emits a `serve.query` event per point query and a
//! `serve.batch` span per batch; the default handle is null, so the
//! unobserved engine pays one branch per query.

use crate::model::ServeModel;
use crate::stats::{QueryOutcome, QueryStats};
use dc_floc::prediction::PredictError;
use dc_obs::{EventKind, Field, Obs};
use parking_lot::Mutex;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A cheaply-cloneable handle serving predictions from a frozen model.
/// Clones share the model, the stats aggregator, and the observability
/// handle.
#[derive(Clone)]
pub struct QueryEngine {
    model: Arc<ServeModel>,
    stats: Arc<Mutex<QueryStats>>,
    obs: Obs,
}

fn outcome_of(result: &Result<f64, PredictError>) -> QueryOutcome {
    match result {
        Ok(_) => QueryOutcome::Hit,
        Err(PredictError::NotCovered) => QueryOutcome::Miss,
        Err(PredictError::DegenerateCluster) => QueryOutcome::Degenerate,
    }
}

impl QueryEngine {
    pub fn new(model: ServeModel) -> Self {
        Self::with_obs(model, Obs::null())
    }

    /// Like [`QueryEngine::new`], but every query and batch reports to
    /// `obs` (`serve.query` points, `serve.batch` spans).
    pub fn with_obs(model: ServeModel, obs: Obs) -> Self {
        QueryEngine {
            model: Arc::new(model),
            stats: Arc::new(Mutex::new(QueryStats::new())),
            obs,
        }
    }

    /// The model being served.
    pub fn model(&self) -> &ServeModel {
        &self.model
    }

    fn emit_query(
        &self,
        row: usize,
        col: usize,
        outcome: QueryOutcome,
        latency_nanos: u64,
        batched: bool,
    ) {
        self.obs.emit(
            "serve.query",
            &[
                Field::new("row", row),
                Field::new("col", col),
                Field::new("outcome", outcome.as_str()),
                Field::new("latency_nanos", latency_nanos),
                Field::new("batched", batched),
            ],
        );
    }

    /// Answers one point query, recording latency and outcome.
    pub fn predict(&self, row: usize, col: usize) -> Result<f64, PredictError> {
        let start = Instant::now();
        let result = self.model.predict(row, col);
        let latency = start.elapsed();
        let outcome = outcome_of(&result);
        self.stats.lock().record(outcome, latency);
        if self.obs.enabled() {
            let nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
            self.emit_query(row, col, outcome, nanos, false);
        }
        result
    }

    /// Top-`n` recommendations for a row (not counted in point-query stats).
    pub fn top_n(&self, row: usize, n: usize) -> Vec<(usize, f64)> {
        self.model.top_n(row, n)
    }

    /// Answers a batch of queries on `threads` scoped worker threads,
    /// returning results in query order.
    ///
    /// Each worker owns a contiguous slice of the output and a thread-local
    /// [`QueryStats`]; tallies are merged into the shared aggregator once
    /// per worker, so throughput scales with cores instead of serializing
    /// on a stats lock. Per-query `serve.query` events are emitted from
    /// inside the workers (sinks are `Send + Sync`); their relative order
    /// across workers is scheduler-dependent.
    pub fn predict_batch(
        &self,
        queries: &[(usize, usize)],
        threads: usize,
    ) -> Vec<Result<f64, PredictError>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let started = Instant::now();
        let threads = threads.clamp(1, queries.len());
        let mut results: Vec<Result<f64, PredictError>> =
            vec![Err(PredictError::NotCovered); queries.len()];
        let chunk = queries.len().div_ceil(threads);
        crossbeam::thread::scope(|scope| {
            for (qchunk, rchunk) in queries.chunks(chunk).zip(results.chunks_mut(chunk)) {
                scope.spawn(move |_| {
                    let mut local = QueryStats::new();
                    let observe = self.obs.enabled();
                    for (&(row, col), slot) in qchunk.iter().zip(rchunk.iter_mut()) {
                        let start = Instant::now();
                        let result = self.model.predict(row, col);
                        let latency = start.elapsed();
                        let outcome = outcome_of(&result);
                        local.record(outcome, latency);
                        if observe {
                            let nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
                            self.emit_query(row, col, outcome, nanos, true);
                        }
                        *slot = result;
                    }
                    self.stats.lock().merge(&local);
                });
            }
        })
        .expect("prediction worker panicked");
        if self.obs.enabled() {
            let nanos = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let qps = if nanos == 0 {
                0.0
            } else {
                queries.len() as f64 / (nanos as f64 / 1e9)
            };
            self.obs.emit_full(
                EventKind::Span,
                "serve.batch",
                &[
                    Field::new("duration_nanos", nanos),
                    Field::new("queries", queries.len()),
                    Field::new("threads", threads),
                    Field::new("qps", qps),
                ],
                None,
            );
        }
        results
    }

    /// A snapshot of the accumulated statistics.
    pub fn stats(&self) -> QueryStats {
        self.stats.lock().clone()
    }

    /// Resets the accumulated statistics (e.g. between bench phases).
    pub fn reset_stats(&self) {
        *self.stats.lock() = QueryStats::new();
    }

    /// Writes the accumulated statistics as a `metrics.json`-style artifact
    /// (the [`crate::stats::MetricsSnapshot`] shape) through the crate's
    /// crash-safe [`dc_matrix::atomic::atomic_write`] path.
    ///
    /// # Errors
    /// Propagates IO failures from the atomic write.
    pub fn export_metrics(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let snapshot = self.stats.lock().snapshot();
        let json = serde_json::to_string_pretty(&snapshot)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        dc_matrix::atomic::atomic_write(path, json.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_floc::DeltaCluster;
    use dc_matrix::DataMatrix;

    fn engine() -> QueryEngine {
        engine_with(Obs::null())
    }

    fn engine_with(obs: Obs) -> QueryEngine {
        let mut m = DataMatrix::builder(6, 6).build();
        for r in 0..4 {
            for c in 0..4 {
                m.set(r, c, (r + 2 * c) as f64);
            }
        }
        let cluster = DeltaCluster::from_indices(6, 6, 0..4, 0..4);
        QueryEngine::with_obs(
            ServeModel::new(m, vec![cluster], vec![0.0], 0.0).unwrap(),
            obs,
        )
    }

    #[test]
    fn predict_records_stats() {
        let e = engine();
        assert!(e.predict(1, 2).is_ok());
        assert!(e.predict(5, 5).is_err());
        let s = e.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        e.reset_stats();
        assert_eq!(e.stats().queries, 0);
    }

    #[test]
    fn batch_matches_sequential_and_preserves_order() {
        let e = engine();
        let queries: Vec<(usize, usize)> =
            (0..6).flat_map(|r| (0..6).map(move |c| (r, c))).collect();
        let sequential: Vec<_> = queries
            .iter()
            .map(|&(r, c)| e.model().predict(r, c))
            .collect();
        for threads in [1, 2, 4, 8] {
            let batch = e.predict_batch(&queries, threads);
            assert_eq!(batch, sequential, "threads={threads}");
        }
        // 36 queries × 4 thread-counts, all recorded.
        assert_eq!(e.stats().queries as usize, queries.len() * 4);
    }

    #[test]
    fn batch_handles_empty_and_oversized_thread_counts() {
        let e = engine();
        assert!(e.predict_batch(&[], 4).is_empty());
        let one = e.predict_batch(&[(0, 0)], 64);
        assert_eq!(one.len(), 1);
        assert!(one[0].is_ok());
    }

    #[test]
    fn clones_share_model_and_stats() {
        let e = engine();
        let f = e.clone();
        assert!(f.predict(0, 0).is_ok());
        assert_eq!(e.stats().queries, 1);
    }

    #[test]
    fn observed_engine_emits_query_and_batch_events() {
        let sink = dc_obs::MemorySink::new();
        let e = engine_with(Obs::new(sink.clone()));
        assert!(e.predict(1, 1).is_ok());
        assert!(e.predict(5, 5).is_err());
        let _ = e.predict_batch(&[(0, 0), (5, 5), (2, 3)], 2);

        let queries = sink.named("serve.query");
        assert_eq!(queries.len(), 5);
        let outcomes: Vec<&str> = queries
            .iter()
            .filter_map(|q| q.str_field("outcome"))
            .collect();
        assert_eq!(outcomes.iter().filter(|&&o| o == "hit").count(), 3);
        assert_eq!(outcomes.iter().filter(|&&o| o == "miss").count(), 2);
        assert!(queries
            .iter()
            .all(|q| q.u64_field("latency_nanos").is_some()));

        let batches = sink.named("serve.batch");
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].u64_field("queries"), Some(3));
        assert!(batches[0].u64_field("duration_nanos").is_some());
        assert!(batches[0].f64_field("qps").is_some());

        // Observed and unobserved engines answer identically.
        let plain = engine();
        assert_eq!(e.model().predict(1, 1), plain.model().predict(1, 1));
    }

    #[test]
    fn export_metrics_writes_snapshot_json() {
        let dir = std::env::temp_dir().join(format!(
            "dc-serve-metrics-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        let e = engine();
        assert!(e.predict(0, 0).is_ok());
        assert!(e.predict(5, 5).is_err());
        e.export_metrics(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let snap: crate::stats::MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(snap.queries, 2);
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.misses, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}

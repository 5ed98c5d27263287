//! Query-serving statistics: counts, hit/miss accounting, and a
//! log-linear latency histogram cheap enough to update on every query.
//!
//! The histogram (bucket layout, quantile estimation) is
//! [`dc_obs::Histogram`]; nothing persists these stats, and `metrics.json`
//! is written from their [`MetricsSnapshot`].

use dc_obs::{Histogram, HistogramSummary};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Aggregate statistics for a stream of point queries.
///
/// Latencies go into log-linear buckets, so quantile estimates are upper
/// bounds at most 6.25% above the true value. A point query is timed on
/// its own; an unobserved batch chunk (see
/// [`crate::QueryEngine::predict_batch`]) is timed once, and each of its
/// queries is recorded at the chunk's mean latency.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// Total queries answered (hits + misses + degenerate).
    pub queries: u64,
    /// Queries answered with a prediction.
    pub hits: u64,
    /// Queries no cluster covered.
    pub misses: u64,
    /// Queries covered only by degenerate (zero-volume) clusters.
    pub degenerate: u64,
    /// Per-query latency in nanoseconds, one sample per query (a batch
    /// chunk's queries each at the chunk's mean).
    latency: Histogram,
}

/// How a single query resolved, for stats accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    Hit,
    Miss,
    Degenerate,
}

impl QueryOutcome {
    /// Stable lowercase name, used in `serve.query` event fields.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryOutcome::Hit => "hit",
            QueryOutcome::Miss => "miss",
            QueryOutcome::Degenerate => "degenerate",
        }
    }
}

/// A flat, serializable rendering of [`QueryStats`] for `metrics.json`
/// artifacts: counts plus the histogram summarised to mean/p50/p99.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub queries: u64,
    pub hits: u64,
    pub misses: u64,
    pub degenerate: u64,
    pub hit_rate: f64,
    pub mean_latency_nanos: u64,
    pub p50_latency_nanos: u64,
    pub p99_latency_nanos: u64,
    pub total_latency_nanos: u64,
}

impl QueryStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one query.
    pub fn record(&mut self, outcome: QueryOutcome, latency: Duration) {
        self.queries += 1;
        match outcome {
            QueryOutcome::Hit => self.hits += 1,
            QueryOutcome::Miss => self.misses += 1,
            QueryOutcome::Degenerate => self.degenerate += 1,
        }
        self.latency.record_duration(latency);
    }

    /// Records a chunk of queries timed together: its outcome counts, and
    /// each query at the chunk's mean latency.
    pub fn record_chunk(&mut self, hits: u64, misses: u64, degenerate: u64, latency: Duration) {
        let n = hits + misses + degenerate;
        self.queries += n;
        self.hits += hits;
        self.misses += misses;
        self.degenerate += degenerate;
        let nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
        self.latency.record_mean(nanos, n);
    }

    /// Folds another stats block into this one (used by worker threads to
    /// publish thread-local tallies once per batch).
    pub fn merge(&mut self, other: &QueryStats) {
        self.queries += other.queries;
        self.hits += other.hits;
        self.misses += other.misses;
        self.degenerate += other.degenerate;
        self.latency.merge(&other.latency);
    }

    /// Fraction of queries answered with a prediction.
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.hits as f64 / self.queries as f64
        }
    }

    /// The latency distribution.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency
    }

    /// Mean latency over all recorded queries.
    pub fn mean_latency(&self) -> Duration {
        Duration::from_nanos(self.latency.mean())
    }

    /// Histogram-estimated latency quantile (`q` in `[0, 1]`): the upper
    /// bound of the bucket containing the q-th ordered query.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.latency.quantile(q))
    }

    /// Summarises counts and latency quantiles for a `metrics.json`
    /// artifact (see [`crate::QueryEngine::export_metrics`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let summary = HistogramSummary::of(&self.latency);
        MetricsSnapshot {
            queries: self.queries,
            hits: self.hits,
            misses: self.misses,
            degenerate: self.degenerate,
            hit_rate: self.hit_rate(),
            mean_latency_nanos: summary.mean,
            p50_latency_nanos: summary.p50,
            p99_latency_nanos: summary.p99,
            total_latency_nanos: self.latency.total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_quantiles() {
        let mut s = QueryStats::new();
        for _ in 0..99 {
            s.record(QueryOutcome::Hit, Duration::from_nanos(100));
        }
        s.record(QueryOutcome::Miss, Duration::from_micros(100));
        assert_eq!(s.queries, 100);
        assert_eq!(s.hits, 99);
        assert_eq!(s.misses, 1);
        assert!((s.hit_rate() - 0.99).abs() < 1e-12);
        // p50 falls in the 100 ns bucket (upper bound 128 ns); p995 must
        // land in the slow bucket.
        assert!(s.latency_quantile(0.5) <= Duration::from_nanos(128));
        assert!(s.latency_quantile(0.995) >= Duration::from_micros(100));
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = QueryStats::new();
        let mut b = QueryStats::new();
        a.record(QueryOutcome::Hit, Duration::from_nanos(10));
        b.record(QueryOutcome::Degenerate, Duration::from_nanos(20));
        b.record(QueryOutcome::Miss, Duration::from_nanos(40));
        a.merge(&b);
        assert_eq!(a.queries, 3);
        assert_eq!(a.degenerate, 1);
        assert_eq!(a.latency_histogram().total(), 70);
        assert_eq!(a.latency_histogram().count(), 3);
    }

    #[test]
    fn snapshot_of_merged_threads_matches_single_threaded_recording() {
        // The per-thread pattern: workers record into local QueryStats and
        // the engine folds them. The folded snapshot (histogram quantiles
        // included) must be indistinguishable from recording every query
        // into one stats block — merge loses nothing.
        let latencies = [0u64, 1, 90, 128, 5_000, 70_000, 2_000_000, u64::MAX];
        let mut whole = QueryStats::new();
        let mut threads = [QueryStats::new(), QueryStats::new(), QueryStats::new()];
        for (i, &nanos) in latencies.iter().enumerate() {
            let outcome = match i % 3 {
                0 => QueryOutcome::Hit,
                1 => QueryOutcome::Miss,
                _ => QueryOutcome::Degenerate,
            };
            let d = Duration::from_nanos(nanos);
            whole.record(outcome, d);
            threads[i % 3].record(outcome, d);
        }
        let mut merged = QueryStats::new();
        for t in &threads {
            merged.merge(t);
        }
        assert_eq!(merged, whole);
        assert_eq!(merged.snapshot(), whole.snapshot());
        // total saturated at u64::MAX (one sample was u64::MAX) and the
        // snapshot carried that through rather than wrapping.
        assert_eq!(merged.snapshot().total_latency_nanos, u64::MAX);
    }

    #[test]
    fn histogram_view_agrees_with_raw_fields() {
        let mut s = QueryStats::new();
        for n in [3u64, 100, 5_000, 1_000_000] {
            s.record(QueryOutcome::Hit, Duration::from_nanos(n));
        }
        let h = s.latency_histogram();
        assert_eq!(h.count(), s.queries);
        assert_eq!(h.total(), 1_005_103);
        assert_eq!(s.mean_latency(), Duration::from_nanos(h.mean()));
        assert_eq!(
            s.latency_quantile(0.5),
            Duration::from_nanos(h.quantile(0.5))
        );
    }

    #[test]
    fn snapshot_summarises_counts_and_quantiles() {
        let mut s = QueryStats::new();
        s.record(QueryOutcome::Hit, Duration::from_nanos(100));
        s.record(QueryOutcome::Miss, Duration::from_nanos(300));
        let snap = s.snapshot();
        assert_eq!(snap.queries, 2);
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.misses, 1);
        assert!((snap.hit_rate - 0.5).abs() < 1e-12);
        assert_eq!(snap.total_latency_nanos, 400);
        assert_eq!(snap.mean_latency_nanos, 200);
        assert!(snap.p50_latency_nanos >= 100 && snap.p99_latency_nanos >= 300);
        // Round-trips as JSON for the metrics artifact.
        let text = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn a_chunk_records_its_counts_at_the_mean_latency() {
        let mut chunk = QueryStats::new();
        chunk.record_chunk(2, 1, 1, Duration::from_nanos(400));
        let mut each = QueryStats::new();
        for outcome in [
            QueryOutcome::Hit,
            QueryOutcome::Miss,
            QueryOutcome::Hit,
            QueryOutcome::Degenerate,
        ] {
            each.record(outcome, Duration::from_nanos(100));
        }
        assert_eq!(chunk, each);
        chunk.record_chunk(0, 0, 0, Duration::from_nanos(5));
        assert_eq!(chunk, each, "an empty chunk records nothing");
    }

    #[test]
    fn outcome_names_are_stable() {
        assert_eq!(QueryOutcome::Hit.as_str(), "hit");
        assert_eq!(QueryOutcome::Miss.as_str(), "miss");
        assert_eq!(QueryOutcome::Degenerate.as_str(), "degenerate");
    }
}

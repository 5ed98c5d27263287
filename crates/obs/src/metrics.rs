//! Measurement primitives: counters, log₂ histograms, phase timers, and
//! the aggregating [`MetricsSink`] behind `metrics.json` artifacts.
//!
//! The histogram generalises the latency histogram that grew up inside
//! `dc-serve`: power-of-two buckets, cheap enough to update on every
//! query, with quantile estimates that are upper bounds carrying at most
//! 2× resolution error.

use crate::event::{Event, FieldValue};
use crate::sink::{relock, Sink};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Number of power-of-two histogram buckets. Bucket `i` holds values in
/// `[2^(i-1), 2^i)` (bucket 0 holds the value 0); the last bucket absorbs
/// everything ≥ 2^(BUCKETS-2) — about 34 s when the unit is nanoseconds.
pub const HISTOGRAM_BUCKETS: usize = 36;

/// Bucket index for a sample: `⌈log₂(value)⌉ + 1`, clamped to the last
/// bucket. Public so code persisting raw bucket vectors (the serve stats
/// format) can stay bit-compatible with [`Histogram`].
pub fn bucket_of(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// A monotonically increasing tally.
///
/// Deliberately plain (`&mut self`): per-thread counters that get merged,
/// not shared atomics, match how the workspace parallelises work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    pub fn new() -> Counter {
        Counter(0)
    }

    pub fn inc(&mut self) {
        self.0 += 1;
    }

    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    pub fn get(self) -> u64 {
        self.0
    }
}

/// Log₂-bucket histogram over `u64` samples (typically nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            total: 0,
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.total = self.total.saturating_add(value);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total = self.total.saturating_add(other.total);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Exact mean of recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.total.checked_div(self.count).unwrap_or(0)
    }

    /// Histogram-estimated quantile (`q` in `[0, 1]`): the upper bound of
    /// the bucket containing the q-th ordered sample. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << (HISTOGRAM_BUCKETS - 1)
    }
}

/// Compact rendering of a [`Histogram`] for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub total: u64,
    pub mean: u64,
    pub p50: u64,
    pub p99: u64,
}

impl HistogramSummary {
    pub fn of(h: &Histogram) -> HistogramSummary {
        HistogramSummary {
            count: h.count(),
            total: h.total(),
            mean: h.mean(),
            p50: h.quantile(0.5),
            p99: h.quantile(0.99),
        }
    }
}

/// A started monotonic clock paired with nothing else — the smallest
/// useful timer. `elapsed_nanos` saturates rather than wrapping.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    pub fn elapsed_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Coarse sequential phase timing for benchmark and experiment binaries:
/// `start("generate")`, `start("mine")`, … — starting a phase closes the
/// previous one. Closed phases are retained (name, seconds) for embedding
/// into `BENCH_*.json`, and each is also emitted as a `bench.phase` span
/// on the supplied [`Obs`](crate::Obs) handle.
#[derive(Debug)]
pub struct PhaseTimer {
    obs: crate::Obs,
    phases: Vec<(String, f64)>,
    current: Option<(String, Instant)>,
}

impl PhaseTimer {
    pub fn new(obs: &crate::Obs) -> PhaseTimer {
        PhaseTimer {
            obs: obs.clone(),
            phases: Vec::new(),
            current: None,
        }
    }

    /// Begins a phase, closing any phase already running.
    pub fn start(&mut self, name: &str) {
        self.finish();
        self.current = Some((name.to_string(), Instant::now()));
    }

    /// Closes the running phase, if any.
    pub fn finish(&mut self) {
        if let Some((name, started)) = self.current.take() {
            let secs = started.elapsed().as_secs_f64();
            if self.obs.enabled() {
                self.obs.emit_full(
                    crate::EventKind::Span,
                    "bench.phase",
                    &[
                        crate::Field::new("phase", name.as_str()),
                        crate::Field::new(
                            "duration_nanos",
                            started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                        ),
                        crate::Field::new("secs", secs),
                    ],
                    None,
                );
            }
            self.phases.push((name, secs));
        }
    }

    /// Completed phases in execution order: `(name, seconds)`.
    pub fn phases(&self) -> &[(String, f64)] {
        &self.phases
    }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        self.finish();
    }
}

#[derive(Debug, Default, Clone)]
struct EventMetrics {
    count: u64,
    durations: Histogram,
}

/// Aggregated view of one event name, from [`MetricsSink::snapshot`].
#[derive(Debug, Clone)]
pub struct MetricsEntry {
    pub name: String,
    /// How many events were seen under this name.
    pub count: u64,
    /// Distribution of `duration_nanos` fields, when the events carried
    /// one (spans always do).
    pub durations: Option<HistogramSummary>,
}

/// A sink that aggregates instead of streaming: per event name it keeps a
/// count and a histogram of `duration_nanos` fields. Clones share storage,
/// so keep one clone and box another into the fanout, then render
/// [`snapshot`](MetricsSink::snapshot) into a final `metrics.json`.
#[derive(Debug, Default, Clone)]
pub struct MetricsSink {
    by_name: Arc<Mutex<BTreeMap<String, EventMetrics>>>,
}

impl MetricsSink {
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }

    /// Aggregates seen so far, sorted by event name.
    pub fn snapshot(&self) -> Vec<MetricsEntry> {
        relock(&self.by_name)
            .iter()
            .map(|(name, m)| MetricsEntry {
                name: name.clone(),
                count: m.count,
                durations: (!m.durations.is_empty()).then(|| HistogramSummary::of(&m.durations)),
            })
            .collect()
    }
}

impl Sink for MetricsSink {
    fn emit(&self, event: &Event<'_>) {
        let mut map = relock(&self.by_name);
        let m = map.entry(event.name.to_string()).or_default();
        m.count += 1;
        if let Some(FieldValue::U64(nanos)) = event.field("duration_nanos") {
            m.durations.record(nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Field, Obs};

    #[test]
    fn histogram_buckets_are_log_scaled() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(100_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.total(), 99 * 100 + 100_000);
        assert!(h.quantile(0.5) <= 128);
        assert!(h.quantile(0.995) >= 100_000);
        assert_eq!(h.mean(), (99 * 100 + 100_000) / 100);
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // Bucket i (i ≥ 1) holds [2^(i-1), 2^i): each power of two starts
        // a new bucket, and the value just below it closes the previous.
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(bucket_of(lo), i, "2^{} should open bucket {i}", i - 1);
            assert_eq!(bucket_of(hi), i, "2^{i}-1 should still be in bucket {i}");
        }
        // Everything at or past 2^(BUCKETS-2) clamps into the last bucket.
        let last = HISTOGRAM_BUCKETS - 1;
        assert_eq!(bucket_of(1u64 << (HISTOGRAM_BUCKETS - 2)), last);
        assert_eq!(bucket_of(u64::MAX / 2), last);
        assert_eq!(bucket_of(u64::MAX), last);
    }

    #[test]
    fn extreme_samples_round_trip_through_the_histogram() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 1], 1);
        // total saturates instead of wrapping.
        assert_eq!(h.total(), u64::MAX);
        // The top quantile reports the last bucket's upper bound, never 0.
        assert_eq!(h.quantile(1.0), 1u64 << (HISTOGRAM_BUCKETS - 1));
        assert_eq!(h.quantile(0.0), 1); // rank clamps to the 1st sample
    }

    #[test]
    fn merge_preserves_counts_totals_and_quantiles() {
        // Build one histogram two ways: all samples into `whole`, the same
        // samples split across `a` and `b` then merged. The results must be
        // identical — this is the invariant QueryStats::snapshot() relies
        // on when folding per-thread histograms.
        let samples = [0u64, 1, 2, 3, 500, 1024, 65_536, u64::MAX];
        let mut whole = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &s) in samples.iter().enumerate() {
            whole.record(s);
            if i % 2 == 0 {
                a.record(s);
            } else {
                b.record(s);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
        // Merging an empty histogram is the identity.
        a.merge(&Histogram::new());
        assert_eq!(a, whole);
    }

    #[test]
    fn merge_saturates_total_rather_than_wrapping() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(u64::MAX);
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.total(), u64::MAX);
        assert_eq!(a.mean(), u64::MAX / 2);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new();
        c.inc();
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn phase_timer_records_ordered_phases_and_emits_spans() {
        let sink = crate::MemorySink::new();
        let obs = Obs::new(sink.clone());
        let mut t = PhaseTimer::new(&obs);
        t.start("generate");
        t.start("mine");
        t.finish();
        let names: Vec<&str> = t.phases().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["generate", "mine"]);
        assert!(t.phases().iter().all(|&(_, s)| s >= 0.0));
        let spans = sink.named("bench.phase");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].str_field("phase"), Some("generate"));
        assert!(spans[0].u64_field("duration_nanos").is_some());
    }

    #[test]
    fn metrics_sink_aggregates_counts_and_durations() {
        let metrics = MetricsSink::new();
        let obs = Obs::new(metrics.clone());
        obs.emit("a", &[Field::new("duration_nanos", 100u64)]);
        obs.emit("a", &[Field::new("duration_nanos", 200u64)]);
        obs.emit("b", &[]);
        let snap = metrics.snapshot();
        assert_eq!(snap.len(), 2);
        let a = snap.iter().find(|e| e.name == "a").unwrap();
        assert_eq!(a.count, 2);
        let d = a.durations.unwrap();
        assert_eq!(d.count, 2);
        assert_eq!(d.total, 300);
        let b = snap.iter().find(|e| e.name == "b").unwrap();
        assert_eq!(b.count, 1);
        assert!(b.durations.is_none());
    }
}

//! Measurement primitives: counters, log-linear histograms, phase
//! timers, and the aggregating [`MetricsSink`] behind `metrics.json`
//! artifacts.
//!
//! The histogram generalises the latency histogram that grew up inside
//! `dc-serve`: 16 linear sub-buckets per power of two, cheap enough to
//! update on every query, with quantile estimates that are upper bounds
//! at most 6.25% above the true value.

use crate::event::{Event, FieldValue};
use crate::sink::{relock, Sink};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per octave.
const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Number of log-linear histogram buckets, covering every `u64`. Values
/// below 32 get a bucket each; above that, each power-of-two octave
/// `[2^e, 2^(e+1))` splits into 16 equal buckets of width `2^(e-4)`, so a
/// bucket's width is at most 1/16 (6.25%) of its lowest value.
pub const HISTOGRAM_BUCKETS: usize = SUB_BUCKETS * (u64::BITS - SUB_BITS + 1) as usize;

/// Bucket index for a sample. Public so events can carry a sample's
/// bucket (`net.request`'s `latency_bucket`).
pub fn bucket_of(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let shift = u64::BITS - 1 - value.leading_zeros() - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) + (value >> shift) as usize - SUB_BUCKETS
}

/// The smallest and largest value bucket `index` holds.
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB_BUCKETS {
        return (index as u64, index as u64);
    }
    let shift = (index >> SUB_BITS) - 1;
    let low = ((SUB_BUCKETS + index % SUB_BUCKETS) as u64) << shift;
    (low, low + ((1u64 << shift) - 1))
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

/// Log-linear histogram over `u64` samples (typically nanoseconds); see
/// [`HISTOGRAM_BUCKETS`] for the layout.
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

    /// Records `n` samples summing to `total`, each at their mean: for a
    /// batch timed once rather than per sample. The total stays exact.
    pub fn record_mean(&mut self, total: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(total / n)] += n;
        self.count += n;
        self.total = self.total.saturating_add(total);
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

    /// Histogram-estimated quantile (`q` in `[0, 1]`): the largest value
    /// of the bucket containing the q-th ordered sample, so never below
    /// that sample and at most 6.25% above it. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_bounds(i).1;
            }
        }
        u64::MAX
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
        assert_eq!(bucket_of(31), 31);
        // From 32 on, each octave splits into 16 buckets.
        assert_eq!(bucket_of(32), 32);
        assert_eq!(bucket_of(33), 32);
        assert_eq!(bucket_of(34), 33);
        assert_eq!(bucket_of(63), 47);
        assert_eq!(bucket_of(64), 48);
        assert_eq!(bucket_of(1024), 112);
        assert_eq!(bucket_of(1087), 112);
        assert_eq!(bucket_of(1088), 113);
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
        assert_eq!(h.quantile(0.5), 103, "100 lies in [100, 103]");
        assert!(h.quantile(0.995) >= 100_000);
        assert_eq!(h.mean(), (99 * 100 + 100_000) / 100);
    }

    #[test]
    fn every_bucket_boundary_is_exact() {
        // The buckets tile 0..=u64::MAX in order: each one's lowest and
        // highest value map to it, the next value opens the next bucket,
        // and no bucket is wider than 1/16 of its lowest value.
        let mut next = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(
                lo,
                next,
                "bucket {i} must start where {} ended",
                i.wrapping_sub(1)
            );
            assert_eq!(bucket_of(lo), i, "{lo} should open bucket {i}");
            assert_eq!(bucket_of(hi), i, "{hi} should close bucket {i}");
            assert!(
                16 * u128::from(hi - lo) <= u128::from(lo),
                "bucket {i} is too wide"
            );
            if i + 1 < HISTOGRAM_BUCKETS {
                assert_eq!(bucket_of(hi + 1), i + 1);
                next = hi + 1;
            } else {
                assert_eq!(hi, u64::MAX);
            }
        }
    }

    /// A splitmix64 stream: samples without a dependency.
    fn samples(seed: u64, n: usize) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                // Spread over nine decades: a random bit length, then
                // random bits below it.
                let bits = (z % 31) as u32;
                (z >> 33) >> (31 - bits)
            })
            .collect()
    }

    #[test]
    fn quantiles_lie_within_a_sixteenth_of_the_exact_ones() {
        for seed in [1, 2, 3] {
            let mut xs = samples(seed, 10_000);
            let mut h = Histogram::new();
            for &x in &xs {
                h.record(x);
            }
            xs.sort_unstable();
            assert!(
                xs[xs.len() - 1] > 1_000_000_000 && xs[100] < 1_000,
                "several decades"
            );
            for q in [
                0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0,
            ] {
                let rank = ((q * xs.len() as f64).ceil() as usize).max(1);
                let exact = xs[rank - 1];
                let estimate = h.quantile(q);
                assert!(estimate >= exact, "q {q}: {estimate} < {exact}");
                assert!(
                    (estimate - exact) as f64 <= 0.0625 * exact as f64,
                    "q {q}: {estimate} vs exact {exact}"
                );
            }
        }
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
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.quantile(0.0), 0); // rank clamps to the 1st sample
    }

    #[test]
    fn record_mean_counts_every_sample_at_the_mean() {
        let mut h = Histogram::new();
        h.record_mean(6_400, 64);
        h.record_mean(123, 0);
        assert_eq!(h.count(), 64);
        assert_eq!(h.total(), 6_400);
        assert_eq!(h.buckets()[bucket_of(100)], 64);
        let mut each = Histogram::new();
        for _ in 0..64 {
            each.record(100);
        }
        assert_eq!(h, each);
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
    fn merging_random_shards_equals_recording_every_sample_once() {
        let xs = samples(7, 10_000);
        let mut whole = Histogram::new();
        let mut shards = vec![Histogram::new(); 4];
        for (i, &x) in xs.iter().enumerate() {
            whole.record(x);
            shards[i % 4].record(x);
        }
        let mut merged = Histogram::new();
        for shard in &shards {
            merged.merge(shard);
        }
        assert_eq!(merged, whole);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), whole.quantile(q));
        }
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

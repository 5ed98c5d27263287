//! # dc-obs — structured observability with zero dependencies
//!
//! Every long-running piece of this workspace (the FLOC search loop, the
//! concurrent query engine, the benchmark harness) wants the same three
//! things: *what happened*, *when*, and *how long it took* — without
//! perturbing the computation it is watching. This crate provides them as
//! a small, dependency-free event model:
//!
//! - [`Event`] — a named, timestamped record with typed key/value
//!   [`Field`]s and an optional `&dyn Any` attachment for in-process
//!   consumers (e.g. the FLOC checkpoint payload).
//! - [`Sink`] — where events go. Shipped sinks: [`TextSink`] (human
//!   lines), [`JsonSink`] (JSON-lines for `| jq`), [`MemorySink`] (tests),
//!   [`NullSink`], and [`Fanout`] for composition. [`MetricsSink`]
//!   aggregates counts and duration histograms for a final `metrics.json`.
//! - [`Obs`] — the handle instrumented code holds. It is a
//!   `Option<Arc<…>>` internally: [`Obs::null()`] costs one pointer and
//!   every emission site is guarded by [`Obs::enabled()`], so the
//!   uninstrumented path stays bit-identical and essentially free. There
//!   is deliberately no global/static registry; the handle is threaded
//!   through call sites explicitly.
//! - Measurement primitives: [`SpanTimer`] (monotonic + wall-clock spans),
//!   [`Counter`], the log-linear [`Histogram`] generalised from the
//!   serve latency histogram, and [`PhaseTimer`] for coarse benchmark
//!   phases.
//!
//! ## Determinism contract
//!
//! Instrumentation must only *read* the state it reports: no RNG draws, no
//! floating-point arithmetic that feeds back into the computation, no
//! control-flow decisions based on `enabled()` beyond skipping emission.
//! `dc-floc` property-tests this contract (an observed run is bit-identical
//! to an unobserved one, including checkpoints and resume).

mod event;
mod handle;
mod metrics;
mod sink;

pub use event::{Event, EventKind, Field, FieldValue, OwnedEvent, OwnedValue};
pub use handle::{Obs, SpanTimer};
pub use metrics::{
    bucket_of, Counter, Histogram, HistogramSummary, MetricsEntry, MetricsSink, PhaseTimer,
    Stopwatch, HISTOGRAM_BUCKETS,
};
pub use sink::{Fanout, JsonSink, MemorySink, NullSink, Sink, TextSink};

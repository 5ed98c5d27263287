//! # dc-net — zero-dependency HTTP serving for the δ-cluster query engine
//!
//! Puts `dc_serve::QueryEngine` behind a plain-`std` HTTP/1.1 server:
//! `TcpListener`, a fixed worker pool, and hand-rolled parsing — no
//! external crates, matching the workspace's vendored-shim policy.
//!
//! ```text
//!             ┌────────────┐   try_push    ┌──────────────┐
//!  TCP ──────▶│ accept loop│──────────────▶│ BoundedQueue │──▶ workers (N)
//!             └────────────┘  full → 503   └──────────────┘       │
//!                                                     HttpReader keep-alive loop
//!                                                                 │
//!                                                        api::handle(state, req)
//!                                                                 │
//!                                                      RwLock<Arc<QueryEngine>>
//! ```
//!
//! Design invariants, pinned by the chaos and integration suites:
//!
//! - **Bounded memory.** Admission stops at the queue, never in buffers:
//!   a full queue answers `503` with `Retry-After` at accept time.
//! - **No panics on hostile input.** Every malformed, truncated, or
//!   oversized request surfaces as a typed [`http::RecvError`] mapped to a
//!   clean 4xx/501 (or a silent close) — `tests/chaos.rs` drives the
//!   parser through `dc-fault` to keep this true.
//! - **Graceful shutdown.** The server watches a shared `AtomicBool` (the
//!   CLI wires the SIGINT flag): stop accepting, answer what's in flight,
//!   close idle keep-alives, all under a deadline.
//! - **Observable.** Every answered request emits a `net.request` event
//!   through `dc-obs` and lands in counters + a log₂ latency histogram
//!   served back on `GET /metrics` (JSON or Prometheus text).
//!
//! ## Quickstart
//!
//! ```no_run
//! use dc_net::{serve, AppState, ServerConfig};
//! use std::sync::Arc;
//! use std::sync::atomic::AtomicBool;
//!
//! # fn model() -> dc_serve::ServeModel { unimplemented!() }
//! let state = Arc::new(AppState::new(model(), None, 4, dc_obs::Obs::null()));
//! let stop = Arc::new(AtomicBool::new(false));
//! let handle = serve(ServerConfig::default(), state, stop).unwrap();
//! println!("listening on {}", handle.addr());
//! handle.wait(); // parks until the stop flag rises, then drains
//! ```

pub mod api;
pub mod client;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod server;
pub mod state;

pub use client::{ClientConfig, ClientError, ClientResponse, HttpClient};
pub use http::{Limits, Method, RecvError, Request, Response};
pub use metrics::{MetricsReport, ServerMetrics};
pub use pool::{BoundedQueue, PushError, WorkerPool};
pub use server::{serve, serve_handler, RequestHandler, ServerConfig, ServerHandle};
pub use state::{AppState, ModelMeta};

//! # dc-serve — model snapshots and query serving for δ-clusterings
//!
//! The mining side of this workspace (`dc-floc`) answers "what are the
//! coherent subspace clusters in this matrix?". This crate answers the
//! follow-up the paper's collaborative-filtering motivation implies: *given
//! a trained clustering, predict missing entries — quickly, concurrently,
//! and from a file you can ship around*.
//!
//! Three layers:
//!
//! * [`model::ServeModel`] — an immutable snapshot bundling the data
//!   matrix, the k δ-clusters, their residues, **precomputed per-cluster
//!   bases**, and inverted row/column → cluster indices. A point query
//!   resolves in `O(|clusters containing the cell|)` with no base
//!   recomputation, versus the `O(k·|I|·|J|)` naive scan.
//! * [`artifact`] — a versioned, CRC-32-checksummed little-endian binary
//!   file format (magic `DCM1`) with save/load, plus a JSON fallback
//!   reusing the workspace's serde derives. Corrupt files fail with a
//!   checksum error, never a panic.
//! * [`engine::QueryEngine`] — concurrent serving: the model behind an
//!   `Arc`, batch prediction fanned out over scoped threads, and a
//!   [`stats::QueryStats`] aggregator (hit/miss counts plus a log-scaled
//!   latency histogram) behind a mutex that workers touch once per batch.
//!
//! ```
//! use dc_floc::DeltaCluster;
//! use dc_matrix::DataMatrix;
//! use dc_serve::{QueryEngine, ServeModel};
//!
//! let mut m = DataMatrix::builder(3, 3).build();
//! for r in 0..3 {
//!     for c in 0..3 {
//!         if (r, c) != (2, 2) {
//!             m.set(r, c, (r + c) as f64);
//!         }
//!     }
//! }
//! let cluster = DeltaCluster::from_indices(3, 3, 0..3, 0..3);
//! let model = ServeModel::new(m, vec![cluster], vec![0.0], 0.0).unwrap();
//! let engine = QueryEngine::new(model);
//! // d_iJ + d_Ij − d_IJ = 2.5 + 2.5 − 14/8 (the missing cell shifts the
//! // bases slightly off the idealized value 4).
//! let p = engine.predict(2, 2).unwrap();
//! assert!((p - 3.25).abs() < 1e-9);
//! ```

pub mod artifact;
pub mod checkpoint;
pub mod engine;
pub mod framing;
pub mod model;
pub mod stats;

pub use artifact::{load, load_observed, save, ArtifactError};
pub use checkpoint::{
    checkpoint_from_bytes, checkpoint_to_bytes, load_checkpoint, save_checkpoint,
};
pub use engine::QueryEngine;
pub use model::{ModelError, ServeModel};
pub use stats::{MetricsSnapshot, QueryOutcome, QueryStats};

// Re-exported so downstream code can match on prediction errors without
// depending on dc-floc directly.
pub use dc_floc::prediction::PredictError;

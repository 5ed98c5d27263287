//! # dc-floc
//!
//! The δ-cluster model and the FLOC algorithm from *δ-Clusters: Capturing
//! Subspace Correlation in a Large Data Set* (Yang, Wang, Wang & Yu,
//! ICDE 2002).
//!
//! A **δ-cluster** is a submatrix — a subset of objects × a subset of
//! attributes, possibly with missing entries — whose entries are coherent up
//! to per-object and per-attribute additive *biases*. Coherence is measured
//! by the **residue**: in a perfect δ-cluster every specified entry equals
//! `row base + column base − cluster base`, and the residue averages the
//! deviations from that model. **FLOC** approximates the `k` clusters with
//! the lowest average residue by iteratively toggling row/column
//! memberships, performing for every row and column the action with the
//! highest gain.
//!
//! ## Quick example
//!
//! ```
//! use dc_floc::{floc, FlocConfig, Seeding};
//! use dc_matrix::DataMatrix;
//!
//! // Two groups of viewers with coherent (shifted) ratings on two genres.
//! let m = DataMatrix::builder(4, 6).from_rows(vec![
//!     8.0, 7.0, 9.0, 2.0, 2.0, 3.0,
//!     9.0, 8.0, 10.0, 3.0, 3.0, 4.0,
//!     2.0, 1.0, 3.0, 8.0, 8.0, 9.0,
//!     3.0, 2.0, 4.0, 9.0, 9.0, 10.0,
//! ]);
//! let config = FlocConfig::builder(2)
//!     .seeding(Seeding::TargetSize { rows: 2, cols: 3 })
//!     .seed(1)
//!     .build();
//! let result = floc(&m, &config).unwrap();
//! assert!(result.avg_residue < 1.0, "the two genre blocks cluster cleanly");
//! ```
//!
//! ## Module map
//!
//! * [`cluster`] — the δ-cluster descriptor, occupancy, volume (Defs 3.1/3.2).
//! * [`residue`] — bases and residue, from-scratch reference (Defs 3.3–3.5).
//! * [`stats`] — incrementally-maintained cluster statistics (the hot path).
//! * [`action`] — actions and gains (§4.1).
//! * [`gain_engine`] — exact vs incremental (sorted-index) gain evaluation.
//! * [`ordering`] — fixed / random / weighted-random action orders (§5.2).
//! * [`seeding`] — phase-1 seed construction (§4.1, §5.1).
//! * [`constraints`] — overlap / coverage / volume constraints (§3, §4.3).
//! * [`config`] — the [`FlocConfig`] builder.
//! * [`algorithm`] — the FLOC driver (§4.1), interruptible and resumable.
//! * [`checkpoint`] — resumable run snapshots for crash-safe mining.
//! * [`history`] — results, stop reasons, and iteration traces.
//! * [`prediction`] — missing-value prediction from discovered clusters.
//! * [`parallel`] — multi-restart search.

pub mod action;
pub mod algorithm;
pub mod amplification;
pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod constraints;
pub mod gain_engine;
pub mod history;
mod lanes;
pub mod ordering;
pub mod parallel;
pub mod prediction;
pub mod residue;
pub mod seeding;
pub mod stats;

pub use action::{Action, Target};
pub use algorithm::{floc, floc_resume_with, floc_with, FlocError};
pub use amplification::{
    amplification_residue, floc_amplification, AmplificationError, AmplificationResult,
};
pub use checkpoint::{CheckpointLog, FlocCheckpoint, ResumeError};
pub use cluster::DeltaCluster;
pub use config::{FlocConfig, FlocConfigBuilder, InterruptFlag, Parallelism};
pub use constraints::Constraint;
pub use gain_engine::{GainEngineKind, IncrementalEngine};
pub use history::{FlocResult, IterationTrace, StopReason};
pub use ordering::Ordering;
pub use parallel::floc_parallel;
#[allow(deprecated)]
pub use prediction::PredictError;
pub use residue::{cluster_residue, ResidueMean};
pub use seeding::{SeedError, Seeding};
pub use stats::{ClusterState, Scratch};

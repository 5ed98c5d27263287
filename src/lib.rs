//! # delta-clusters
//!
//! A full Rust reproduction of *δ-Clusters: Capturing Subspace Correlation
//! in a Large Data Set* (Yang, Wang, Wang & Yu, ICDE 2002) — the δ-cluster
//! model, the FLOC algorithm, the baselines the paper compares against, the
//! synthetic workloads it evaluates on, and the harness that regenerates
//! every table and figure of its evaluation section.
//!
//! This crate is an umbrella facade re-exporting the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`matrix`] | `dc-matrix` | data matrices with missing values, bitsets, IO, Pearson R |
//! | [`floc`] | `dc-floc` | the δ-cluster model, residue, and the FLOC algorithm |
//! | [`bicluster`] | `dc-bicluster` | the Cheng & Church baseline (ISMB 2000) |
//! | [`subspace`] | `dc-subspace` | CLIQUE and the §4.4 "alternative algorithm" |
//! | [`baselines`] | `dc-baselines` | PROCLUS, SUBCLU, and every baseline behind one `SubspaceAlgorithm` trait |
//! | [`datagen`] | `dc-datagen` | synthetic workloads: embedded clusters, MovieLens-like, microarray-like |
//! | [`eval`] | `dc-eval` | recall/precision, diameter, matching, reports |
//! | [`serve`] | `dc-serve` | model snapshots (binary + JSON), indexed prediction, concurrent query engine |
//!
//! ## Quickstart
//!
//! ```
//! use delta_clusters::prelude::*;
//!
//! // Figure 1 of the paper: three mutually shifted vectors form a perfect
//! // δ-cluster even though they are far apart in Euclidean space.
//! let m = DataMatrix::builder(3, 5).from_rows(vec![
//!     1.0,   5.0,   23.0,  12.0,  20.0,
//!     11.0,  15.0,  33.0,  22.0,  30.0,
//!     111.0, 115.0, 133.0, 122.0, 130.0,
//! ]);
//! let cluster = DeltaCluster::from_indices(3, 5, 0..3, 0..5);
//! assert!(cluster_residue(&m, &cluster, ResidueMean::Arithmetic) < 1e-9);
//!
//! // FLOC discovers such clusters from data.
//! let config = FlocConfig::builder(1)
//!     .seeding(Seeding::TargetSize { rows: 2, cols: 3 })
//!     .seed(42)
//!     .build();
//! let result = floc(&m, &config).unwrap();
//! assert!(result.avg_residue < 1e-6);
//! ```
//!
//! See `examples/` for runnable scenarios (collaborative filtering, gene
//! expression, constraint handling) and `crates/bench` for the experiment
//! harness.

pub use dc_baselines as baselines;
pub use dc_bicluster as bicluster;
pub use dc_cli as cli;
pub use dc_datagen as datagen;
pub use dc_eval as eval;
pub use dc_floc as floc;
pub use dc_matrix as matrix;
pub use dc_net as net;
pub use dc_obs as obs;
pub use dc_online as online;
pub use dc_serve as serve;
pub use dc_subspace as subspace;

pub mod error;

pub use error::{Error, Result};

/// The names most programs need, importable with one `use`.
pub mod prelude {
    pub use crate::error::{Error, Result};
    pub use dc_baselines::{
        FitContext, FitStop, Proclus, ProclusConfig, Subclu, SubcluConfig, SubspaceAlgorithm,
        SubspaceClustering,
    };
    pub use dc_bicluster::{cheng_church, Bicluster, ChengChurchConfig};
    pub use dc_datagen::{EmbedConfig, MicroarrayConfig, MovieLensConfig};
    pub use dc_eval::{diameter, match_clusters, quality};
    pub use dc_floc::{
        cluster_residue, floc, floc_parallel, floc_resume_with, floc_with, CheckpointLog,
        Constraint, DeltaCluster, FlocCheckpoint, FlocConfig, FlocResult, InterruptFlag, Ordering,
        Parallelism, ResidueMean, Seeding, StopReason,
    };
    pub use dc_matrix::{
        validate, BackendKind, BitSet, DataMatrix, MatrixBuilder, PagedError, PagedOptions,
        Storage, ValidationReport,
    };
    pub use dc_net::{serve as serve_http, AppState, HttpClient, ServerConfig, ServerHandle};
    pub use dc_obs::{JsonSink, MemorySink, MetricsSink, NullSink, Obs, Sink, TextSink};
    pub use dc_online::{spawn_miner, Miner, MinerConfig, OnlineError, SourceSpec};
    pub use dc_serve::{load_checkpoint, save_checkpoint, PredictError, QueryEngine, ServeModel};
    pub use dc_subspace::{alternative, clique, AlternativeConfig, CliqueConfig};
}

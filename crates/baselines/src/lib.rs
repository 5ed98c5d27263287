//! # dc-baselines
//!
//! Competitor subspace-clustering algorithms for head-to-head comparison
//! against FLOC — the experimental backbone of the δ-cluster paper's
//! comparative claims, extended beyond the paper's own two baselines:
//!
//! * [`proclus`] — PROCLUS (Aggarwal et al., SIGMOD 1999): medoid-based
//!   *projected* clustering with locality-driven per-medoid dimension
//!   selection and hill-climbing medoid replacement.
//! * [`subclu`] — SUBCLU (Kailing et al., SDM 2004): bottom-up
//!   density-based subspace clustering, DBSCAN per candidate subspace with
//!   the Apriori monotonicity prune.
//! * [`dbscan`](mod@dbscan) — the shared density engine behind SUBCLU.
//! * [`adapters`] — FLOC, Cheng–Church, and the §4.4 CLIQUE alternative
//!   retrofitted behind the same interface.
//!
//! Everything implements [`SubspaceAlgorithm`]: `fit(&DataMatrix,
//! &FitContext) → SubspaceClustering`, with δ-clusters as the common
//! output currency so `dc-eval`'s recall/precision/residue machinery and
//! the benchmark harness treat every algorithm identically.
//!
//! Determinism contract (pinned by property tests): same parameters and
//! seed ⇒ bit-identical clusters, regardless of thread count, observation,
//! or storage backend (memory ≡ paged).

pub mod adapters;
pub mod dbscan;
pub mod error;
mod par;
pub mod proclus;
pub mod subclu;
pub mod traits;

pub use adapters::{
    AlternativeConfig, ChengChurchBaseline, CliqueBaseline, CliqueConfig, FlocBaseline,
};
pub use dbscan::{dbscan, DbscanParams};
pub use dc_bicluster::ChengChurchConfig;
pub use error::BaselineError;
pub use proclus::{Proclus, ProclusConfig};
pub use subclu::{Subclu, SubcluConfig};
pub use traits::{FitContext, FitStop, SubspaceAlgorithm, SubspaceClustering};

/// Stable names of every bundled algorithm, in benchmark-report order.
pub const ALGORITHM_NAMES: [&str; 5] = ["floc", "proclus", "subclu", "cheng-church", "clique"];

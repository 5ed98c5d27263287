//! # dc-eval
//!
//! Evaluation metrics for biclusterings, matching §6 of the δ-cluster
//! paper:
//!
//! * [`entryset`] — clusters as bitsets of specified cells.
//! * [`metrics`] — entry-level recall and precision against embedded ground
//!   truth (the Table 4/5 quality numbers).
//! * [`matching`] — greedy one-to-one cluster matching for finer-grained
//!   diagnostics.
//! * [`diameter`](mod@diameter) — the bounding-box diameter statistic of Table 1.
//! * [`report`] — fixed-width text tables and JSON export used by every
//!   experiment binary.

pub mod diameter;
pub mod entryset;
pub mod matching;
pub mod metrics;
pub mod report;
pub mod residue_stats;

pub use diameter::{diameter, diameter_l1};
pub use entryset::{entry_set, entry_union};
pub use matching::{match_clusters, match_summary, recovery_rate, ClusterMatch, MatchSummary};
pub use metrics::{quality, Quality};
pub use report::Table;
pub use residue_stats::{clustering_distribution, summarize_residues, ResidueDistribution};

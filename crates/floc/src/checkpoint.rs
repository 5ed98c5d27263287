//! Checkpointable FLOC state.
//!
//! A [`FlocCheckpoint`] captures everything phase 2 needs to continue a run
//! bit-identically: the configuration, the incumbent best clustering, the
//! iteration counter, the RNG state, and the trace so far. The driver
//! publishes one after every improving iteration and at termination as the
//! attachment of a `floc.checkpoint` event on the [`crate::floc_with`]
//! stream. [`FlocCheckpoint::from_event`] is the one place that recovers it;
//! [`CheckpointLog`] is a sink that keeps them all. Persistence (the `.dck`
//! artifact) lives in dc-serve so this crate stays IO-free.
//!
//! Bit-identical resume relies on the driver keeping its in-memory cluster
//! statistics *canonical* at every safe boundary: after each improving
//! iteration the incumbent states are rebuilt from their cluster
//! descriptors exactly the way a resume rebuilds them, so the
//! floating-point accumulation order — and therefore every later decision —
//! is the same whether or not the process restarted in between.

use crate::cluster::DeltaCluster;
use crate::config::FlocConfig;
use crate::history::{IterationTrace, StopReason};
use dc_matrix::DataMatrix;
use dc_obs::{Event, Sink};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, MutexGuard};

/// Name of the event whose attachment is a [`FlocCheckpoint`].
pub(crate) const CHECKPOINT_EVENT: &str = "floc.checkpoint";

/// A complete snapshot of a FLOC run at an iteration boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlocCheckpoint {
    /// The configuration the run was started with. Runtime-only fields
    /// (interrupt wiring, time budget, the parallelism plan) are not part
    /// of the search identity and may differ on resume.
    pub config: FlocConfig,
    /// Shape of the matrix the run was mining.
    pub matrix_rows: usize,
    /// Columns of the matrix the run was mining.
    pub matrix_cols: usize,
    /// Specified-entry count of the matrix.
    pub matrix_specified: usize,
    /// Content fingerprint of the matrix ([`DataMatrix::fingerprint`]).
    pub matrix_fingerprint: u64,
    /// Completed phase-2 iterations.
    pub iterations: usize,
    /// Raw xoshiro256++ state at the next iteration boundary. Always
    /// exactly 4 words (a `Vec` because the vendored serde shim has no
    /// array deserialization).
    pub rng_state: Vec<u64>,
    /// The incumbent best clustering.
    pub clusters: Vec<DeltaCluster>,
    /// Residue of each incumbent cluster (canonical recomputation).
    pub residues: Vec<f64>,
    /// Average residue of the incumbent clustering.
    pub avg_residue: f64,
    /// Per-iteration trace up to this point.
    pub trace: Vec<IterationTrace>,
    /// `Some(reason)` when the run terminated (converged or hit the
    /// iteration cap) — resuming such a checkpoint returns immediately.
    /// `None` for resumable snapshots, including budget/interrupt stops.
    pub stop: Option<StopReason>,
}

/// Why a checkpoint cannot be resumed.
#[derive(Debug, Clone, PartialEq)]
pub enum ResumeError {
    /// The matrix handed to resume is not the one the checkpoint came from.
    MatrixMismatch {
        /// Which property differed (`"rows"`, `"cols"`, `"specified"`,
        /// `"fingerprint"`).
        what: &'static str,
        /// Value recorded in the checkpoint.
        expected: u64,
        /// Value of the matrix given to resume.
        found: u64,
    },
    /// The resume configuration changes the search itself (not just
    /// runtime plumbing like threads or budgets).
    ConfigMismatch {
        /// Name of the differing field.
        field: &'static str,
    },
    /// The stored RNG state is not a valid xoshiro256++ state.
    BadRngState,
    /// The checkpoint's own fields contradict each other.
    Inconsistent(String),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::MatrixMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "checkpoint was taken on a different matrix: {what} {found} (checkpoint has {expected})"
            ),
            ResumeError::ConfigMismatch { field } => write!(
                f,
                "resume config changes the search (field `{field}` differs from the checkpoint)"
            ),
            ResumeError::BadRngState => f.write_str("checkpoint RNG state is invalid"),
            ResumeError::Inconsistent(msg) => write!(f, "checkpoint is inconsistent: {msg}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Returns the first algorithm-relevant field on which `a` and `b` differ,
/// ignoring runtime plumbing (`parallelism`, `time_budget`, `interrupt`)
/// that may legitimately change across a resume.
pub(crate) fn search_config_mismatch(a: &FlocConfig, b: &FlocConfig) -> Option<&'static str> {
    if a.k != b.k {
        return Some("k");
    }
    if a.alpha != b.alpha {
        return Some("alpha");
    }
    if a.mean != b.mean {
        return Some("mean");
    }
    if a.ordering != b.ordering {
        return Some("ordering");
    }
    if a.seeding != b.seeding {
        return Some("seeding");
    }
    if a.constraints != b.constraints {
        return Some("constraints");
    }
    if a.max_iterations != b.max_iterations {
        return Some("max_iterations");
    }
    if a.min_improvement != b.min_improvement {
        return Some("min_improvement");
    }
    if a.min_rows != b.min_rows {
        return Some("min_rows");
    }
    if a.min_cols != b.min_cols {
        return Some("min_cols");
    }
    if a.seed != b.seed {
        return Some("seed");
    }
    if a.refresh_gains != b.refresh_gains {
        return Some("refresh_gains");
    }
    if a.gain_engine != b.gain_engine {
        return Some("gain_engine");
    }
    None
}

impl FlocCheckpoint {
    /// The snapshot a `floc.checkpoint` event carries; `None` for any other
    /// event, or one whose attachment is missing or not a checkpoint.
    pub fn from_event<'a>(event: &Event<'a>) -> Option<&'a FlocCheckpoint> {
        if event.name != CHECKPOINT_EVENT {
            return None;
        }
        event.attachment?.downcast_ref::<FlocCheckpoint>()
    }

    /// Checks that this checkpoint can continue on `matrix` under `config`.
    ///
    /// # Errors
    /// Fails when the matrix differs from the one the checkpoint was taken
    /// on, when `config` changes a search-relevant field, or when the
    /// checkpoint's own fields are contradictory (wrong cluster count,
    /// out-of-range indices, malformed RNG state).
    pub fn validate(&self, matrix: &DataMatrix, config: &FlocConfig) -> Result<(), ResumeError> {
        let checks: [(&'static str, u64, u64); 4] = [
            ("rows", self.matrix_rows as u64, matrix.rows() as u64),
            ("cols", self.matrix_cols as u64, matrix.cols() as u64),
            (
                "specified",
                self.matrix_specified as u64,
                matrix.specified_count() as u64,
            ),
            ("fingerprint", self.matrix_fingerprint, matrix.fingerprint()),
        ];
        for (what, expected, found) in checks {
            if expected != found {
                return Err(ResumeError::MatrixMismatch {
                    what,
                    expected,
                    found,
                });
            }
        }
        if let Some(field) = search_config_mismatch(&self.config, config) {
            return Err(ResumeError::ConfigMismatch { field });
        }
        if self.rng_state.len() != 4 || self.rng_state.iter().all(|&w| w == 0) {
            return Err(ResumeError::BadRngState);
        }
        if self.clusters.len() != self.config.k {
            return Err(ResumeError::Inconsistent(format!(
                "{} clusters for k = {}",
                self.clusters.len(),
                self.config.k
            )));
        }
        if self.residues.len() != self.clusters.len() {
            return Err(ResumeError::Inconsistent(format!(
                "{} residues for {} clusters",
                self.residues.len(),
                self.clusters.len()
            )));
        }
        if self.iterations > self.config.max_iterations {
            return Err(ResumeError::Inconsistent(format!(
                "{} iterations exceed max_iterations {}",
                self.iterations, self.config.max_iterations
            )));
        }
        for (i, c) in self.clusters.iter().enumerate() {
            let row_oob = c.rows.iter().any(|r| r >= self.matrix_rows);
            let col_oob = c.cols.iter().any(|j| j >= self.matrix_cols);
            if row_oob || col_oob {
                return Err(ResumeError::Inconsistent(format!(
                    "cluster {i} references indices outside the {}x{} matrix",
                    self.matrix_rows, self.matrix_cols
                )));
            }
        }
        Ok(())
    }

    /// Re-anchors this checkpoint to a *mutated* matrix of the same shape —
    /// the online miner's warm start. Stream events change cell values, so
    /// the stored matrix identity and residues no longer hold; `rebase`
    /// recomputes both canonically on `matrix`, keeps the incumbent
    /// clusters and the RNG state (the search identity carries across the
    /// data change), and resets the iteration counter, the trace, and any
    /// terminal stop so a bounded refinement round can run from here via
    /// [`crate::floc_resume_with`].
    ///
    /// Deterministic: two processes that rebase the same checkpoint on the
    /// same matrix produce identical checkpoints — the property the
    /// miner's bit-identical crash recovery rests on.
    ///
    /// # Panics
    /// Panics if `matrix` has a different shape than the checkpoint's
    /// matrix (the online universe is fixed up front).
    pub fn rebase(&self, matrix: &DataMatrix) -> FlocCheckpoint {
        assert_eq!(
            (self.matrix_rows, self.matrix_cols),
            (matrix.rows(), matrix.cols()),
            "rebase requires the same matrix universe"
        );
        let residues: Vec<f64> = self
            .clusters
            .iter()
            .map(|c| crate::residue::cluster_residue(matrix, c, self.config.mean))
            .collect();
        let avg_residue = if residues.is_empty() {
            0.0
        } else {
            residues.iter().sum::<f64>() / residues.len() as f64
        };
        FlocCheckpoint {
            config: self.config.clone(),
            matrix_rows: matrix.rows(),
            matrix_cols: matrix.cols(),
            matrix_specified: matrix.specified_count(),
            matrix_fingerprint: matrix.fingerprint(),
            iterations: 0,
            rng_state: self.rng_state.clone(),
            clusters: self.clusters.clone(),
            residues,
            avg_residue,
            trace: Vec::new(),
            stop: None,
        }
    }

    /// The stored RNG state as a fixed-size array.
    ///
    /// # Panics
    /// Panics if the checkpoint was not validated first (wrong word count).
    pub(crate) fn rng_words(&self) -> [u64; 4] {
        let mut s = [0u64; 4];
        s.copy_from_slice(&self.rng_state);
        s
    }
}

/// A [`Sink`] keeping every checkpoint a FLOC run publishes, in order.
/// Clones share one log, so hand a clone to [`dc_obs::Obs::new`] and read
/// the original after the run.
#[derive(Debug, Clone, Default)]
pub struct CheckpointLog(Arc<Mutex<Vec<FlocCheckpoint>>>);

impl CheckpointLog {
    pub fn new() -> CheckpointLog {
        CheckpointLog::default()
    }

    /// Every snapshot seen so far, oldest first.
    pub fn snapshots(&self) -> Vec<FlocCheckpoint> {
        self.lock().clone()
    }

    /// The most recent snapshot — after a run, its terminal one.
    pub fn last(&self) -> Option<FlocCheckpoint> {
        self.lock().last().cloned()
    }

    // A push cannot leave the vector half-updated, so a poisoned lock
    // still guards a valid log.
    fn lock(&self) -> MutexGuard<'_, Vec<FlocCheckpoint>> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Sink for CheckpointLog {
    fn emit(&self, event: &Event<'_>) {
        if let Some(snap) = FlocCheckpoint::from_event(event) {
            self.lock().push(snap.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::StopReason;
    use dc_obs::{EventKind, Field, Obs};

    fn sample_matrix() -> DataMatrix {
        DataMatrix::builder(3, 3).from_rows((0..9).map(|x| x as f64).collect())
    }

    fn sample_checkpoint(matrix: &DataMatrix) -> FlocCheckpoint {
        let config = FlocConfig::builder(1).build();
        FlocCheckpoint {
            config,
            matrix_rows: matrix.rows(),
            matrix_cols: matrix.cols(),
            matrix_specified: matrix.specified_count(),
            matrix_fingerprint: matrix.fingerprint(),
            iterations: 2,
            rng_state: vec![1, 2, 3, 4],
            clusters: vec![DeltaCluster::from_indices(3, 3, [0, 1], [0, 1])],
            residues: vec![0.5],
            avg_residue: 0.5,
            trace: vec![],
            stop: None,
        }
    }

    #[test]
    fn valid_checkpoint_passes() {
        let m = sample_matrix();
        let ckpt = sample_checkpoint(&m);
        ckpt.validate(&m, &ckpt.config).unwrap();
    }

    #[test]
    fn matrix_changes_are_detected() {
        let m = sample_matrix();
        let ckpt = sample_checkpoint(&m);
        let mut other = m.clone();
        other.set(0, 0, 99.0);
        let err = ckpt.validate(&other, &ckpt.config).unwrap_err();
        assert!(matches!(
            err,
            ResumeError::MatrixMismatch {
                what: "fingerprint",
                ..
            }
        ));
        let small = DataMatrix::builder(2, 3).from_rows((0..6).map(|x| x as f64).collect());
        let err = ckpt.validate(&small, &ckpt.config).unwrap_err();
        assert!(matches!(
            err,
            ResumeError::MatrixMismatch { what: "rows", .. }
        ));
    }

    #[test]
    fn search_config_changes_are_rejected_but_runtime_changes_pass() {
        let m = sample_matrix();
        let ckpt = sample_checkpoint(&m);
        let reseeded = FlocConfig::builder(1).seed(99).build();
        let err = ckpt.validate(&m, &reseeded).unwrap_err();
        assert!(matches!(err, ResumeError::ConfigMismatch { field: "seed" }));
        // parallelism / time_budget / interrupt are runtime plumbing.
        let mut runtime = ckpt.config.clone();
        runtime.parallelism = crate::config::Parallelism::new(8, 4);
        runtime.time_budget = Some(std::time::Duration::from_secs(1));
        ckpt.validate(&m, &runtime).unwrap();
    }

    #[test]
    fn malformed_internals_are_rejected() {
        let m = sample_matrix();

        let mut bad = sample_checkpoint(&m);
        bad.rng_state = vec![1, 2, 3];
        assert!(matches!(
            bad.validate(&m, &bad.config).unwrap_err(),
            ResumeError::BadRngState
        ));

        let mut bad = sample_checkpoint(&m);
        bad.rng_state = vec![0, 0, 0, 0];
        assert!(matches!(
            bad.validate(&m, &bad.config).unwrap_err(),
            ResumeError::BadRngState
        ));

        let mut bad = sample_checkpoint(&m);
        bad.residues = vec![0.5, 0.1];
        assert!(matches!(
            bad.validate(&m, &bad.config).unwrap_err(),
            ResumeError::Inconsistent(_)
        ));

        let mut bad = sample_checkpoint(&m);
        bad.clusters = vec![DeltaCluster::from_indices(5, 5, [4], [4])];
        assert!(matches!(
            bad.validate(&m, &bad.config).unwrap_err(),
            ResumeError::Inconsistent(_)
        ));
    }

    #[test]
    fn rebase_reanchors_to_a_mutated_matrix() {
        let m = sample_matrix();
        let mut ckpt = sample_checkpoint(&m);
        ckpt.stop = Some(StopReason::Converged);
        let mut mutated = m.clone();
        mutated.set(0, 0, 42.0);
        mutated.unset(2, 2);

        // Stale identity: the original no longer validates on the mutated
        // matrix; the rebased one does, resumably.
        assert!(ckpt.validate(&mutated, &ckpt.config).is_err());
        let rebased = ckpt.rebase(&mutated);
        rebased.validate(&mutated, &rebased.config).unwrap();
        assert_eq!(rebased.iterations, 0);
        assert_eq!(rebased.stop, None);
        assert!(rebased.trace.is_empty());
        assert_eq!(rebased.rng_state, ckpt.rng_state);
        assert_eq!(rebased.clusters, ckpt.clusters);
        assert_eq!(rebased.matrix_fingerprint, mutated.fingerprint());
        // Residues are recomputed canonically on the new data.
        let expected =
            crate::residue::cluster_residue(&mutated, &ckpt.clusters[0], ckpt.config.mean);
        assert_eq!(rebased.residues, vec![expected]);
        assert_eq!(rebased.avg_residue, expected);

        // Determinism: rebasing twice gives identical checkpoints.
        assert_eq!(ckpt.rebase(&mutated), rebased);
    }

    #[test]
    #[should_panic(expected = "same matrix universe")]
    fn rebase_rejects_a_different_shape() {
        let m = sample_matrix();
        let ckpt = sample_checkpoint(&m);
        let other = DataMatrix::builder(4, 3).build();
        let _ = ckpt.rebase(&other);
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let m = sample_matrix();
        let mut ckpt = sample_checkpoint(&m);
        ckpt.stop = Some(StopReason::Converged);
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: FlocCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn checkpoint_log_keeps_only_checkpoint_attachments_in_order() {
        let m = sample_matrix();
        let first = sample_checkpoint(&m);
        let mut second = sample_checkpoint(&m);
        second.iterations = 3;
        second.stop = Some(StopReason::Converged);

        let log = CheckpointLog::new();
        let obs = Obs::new(log.clone());
        let fields = [Field::new("iterations", 2u64)];
        obs.emit_full(EventKind::Point, CHECKPOINT_EVENT, &fields, Some(&first));
        // Another event name, even with a checkpoint attached.
        obs.emit_full(EventKind::Point, "floc.iteration", &fields, Some(&first));
        // A checkpoint event without an attachment.
        obs.emit_full(EventKind::Point, CHECKPOINT_EVENT, &fields, None);
        // A checkpoint event carrying something else.
        obs.emit_full(EventKind::Point, CHECKPOINT_EVENT, &fields, Some(&7u64));
        obs.emit_full(EventKind::Point, CHECKPOINT_EVENT, &fields, Some(&second));

        assert_eq!(log.snapshots(), vec![first, second.clone()]);
        assert_eq!(log.last(), Some(second));
        assert_eq!(CheckpointLog::new().last(), None);
    }
}

//! Property tests for the serving subsystem.
//!
//! * A perfect (residue-0) δ-cluster built from the paper's additive model
//!   `d_ij = base + row_effect_i + col_effect_j` must be predicted *exactly*
//!   by `d_iJ + d_Ij − d_IJ`, including at unspecified cells.
//! * Binary save → load must be a byte-identical round trip and the loaded
//!   model must answer every query identically.
//! * Flipping any byte of an artifact must surface as a checksum error,
//!   never as a panic or a silently different model.

use dc_floc::DeltaCluster;
use dc_matrix::DataMatrix;
use dc_serve::{artifact, ArtifactError, ServeModel};
use proptest::prelude::*;

/// Builds a fully specified matrix following the perfect shifting model
/// `d_ij = base + row_effect_i + col_effect_j`, covered by one δ-cluster.
fn perfect_model(base: f64, row_effects: &[f64], col_effects: &[f64]) -> ServeModel {
    let (m, n) = (row_effects.len(), col_effects.len());
    let mut matrix = DataMatrix::builder(m, n).build();
    for (r, re) in row_effects.iter().enumerate() {
        for (c, ce) in col_effects.iter().enumerate() {
            matrix.set(r, c, base + re + ce);
        }
    }
    let cluster = DeltaCluster::from_indices(m, n, 0..m, 0..n);
    ServeModel::new(matrix, vec![cluster], vec![0.0], 0.0).unwrap()
}

proptest! {
    #[test]
    /// §3.1: on a fully specified residue-0 cluster the base decomposition
    /// is exact, so `d_iJ + d_Ij − d_IJ` reproduces every entry.
    fn perfect_cluster_predictions_round_trip_exactly(
        base in -50.0f64..50.0,
        row_effects in proptest::collection::vec(-20.0f64..20.0, 2..8),
        col_effects in proptest::collection::vec(-20.0f64..20.0, 2..8),
    ) {
        let model = perfect_model(base, &row_effects, &col_effects);
        for (r, re) in row_effects.iter().enumerate() {
            for (c, ce) in col_effects.iter().enumerate() {
                let expected = base + re + ce;
                let got = model.predict(r, c).unwrap();
                prop_assert!(
                    (got - expected).abs() < 1e-9,
                    "cell ({r},{c}): predicted {got}, expected {expected}"
                );
            }
        }
    }

    #[test]
    /// Serialization is canonical: encode → decode → encode yields the same
    /// bytes, and the decoded model predicts identically everywhere.
    fn save_load_is_byte_identical_and_prediction_preserving(
        base in -50.0f64..50.0,
        row_effects in proptest::collection::vec(-20.0f64..20.0, 2..6),
        col_effects in proptest::collection::vec(-20.0f64..20.0, 2..6),
    ) {
        let model = perfect_model(base, &row_effects, &col_effects);
        let bytes = artifact::to_bytes(&model);
        let loaded = artifact::from_bytes(&bytes).unwrap();
        prop_assert!(loaded == model);
        prop_assert_eq!(&artifact::to_bytes(&loaded), &bytes);
        for r in 0..row_effects.len() {
            for c in 0..col_effects.len() {
                prop_assert_eq!(model.predict(r, c).ok(), loaded.predict(r, c).ok());
            }
        }
    }

    #[test]
    /// Corrupting any single byte is detected by the CRC before parsing.
    fn corrupted_artifacts_fail_with_checksum_error(
        base in -50.0f64..50.0,
        row_effects in proptest::collection::vec(-20.0f64..20.0, 2..5),
        col_effects in proptest::collection::vec(-20.0f64..20.0, 2..5),
        pos_seed in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let model = perfect_model(base, &row_effects, &col_effects);
        let mut bytes = artifact::to_bytes(&model);
        // Skip the 4-byte magic: corrupting it reports BadMagic instead.
        let pos = 4 + pos_seed % (bytes.len() - 4);
        bytes[pos] ^= flip;
        match artifact::from_bytes(&bytes) {
            Err(
                ArtifactError::ChecksumMismatch { .. }
                | ArtifactError::UnsupportedVersion(_)
            ) => {}
            other => prop_assert!(false, "expected checksum/version error, got {:?}", other.map(|_| "a model")),
        }
    }
}

// ---- Checkpoint (.dck) codec ----------------------------------------------

use dc_floc::{floc_with, CheckpointLog, FlocCheckpoint, FlocConfig};
use dc_obs::Obs;
use dc_serve::{checkpoint_from_bytes, checkpoint_to_bytes};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mines a small random matrix and returns every checkpoint it emitted.
fn mined_snapshots(seed: u64, rows: usize, cols: usize) -> Vec<FlocCheckpoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = DataMatrix::builder(rows, cols).build();
    for r in 0..rows {
        for c in 0..cols {
            if rng.gen_bool(0.9) {
                m.set(r, c, rng.gen_range(-25.0..25.0));
            }
        }
    }
    let config = FlocConfig::builder(2).alpha(0.5).seed(seed).build();
    let log = CheckpointLog::new();
    floc_with(&m, &config, &Obs::new(log.clone())).unwrap();
    log.snapshots()
}

proptest! {
    /// For arbitrary mined states the `.dck` codec is byte-canonical: the
    /// round trip is lossless and re-encoding reproduces identical bytes.
    #[test]
    fn dck_round_trip_is_byte_canonical_for_random_runs(
        seed in 0u64..1_000_000,
        rows in 10usize..24,
        cols in 6usize..14,
    ) {
        for ckpt in mined_snapshots(seed, rows, cols) {
            let bytes = checkpoint_to_bytes(&ckpt);
            let back = checkpoint_from_bytes(&bytes).unwrap();
            prop_assert_eq!(&back, &ckpt);
            prop_assert_eq!(checkpoint_to_bytes(&back), bytes);
        }
    }

    /// Flipping any byte of a `.dck` file is detected, never parsed.
    #[test]
    fn dck_detects_any_corrupted_byte(
        seed in 0u64..1_000_000,
        pos_seed in 0usize..100_000,
        flip in 1u8..=255,
    ) {
        let snapshots = mined_snapshots(seed, 14, 8);
        let ckpt = snapshots.last().unwrap();
        let mut bytes = checkpoint_to_bytes(ckpt);
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= flip;
        prop_assert!(checkpoint_from_bytes(&bytes).is_err());
    }
}

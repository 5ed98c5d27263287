//! The `.dck` mining checkpoint artifact: a versioned, CRC-32-checksummed
//! binary snapshot of an in-flight FLOC run ([`dc_floc::FlocCheckpoint`]).
//!
//! ## Binary layout (version 1, the shared envelope of [`crate::framing`])
//!
//! ```text
//! offset 0   magic  b"DCK1"
//!        4   u16    format version (currently 1)
//!        6   u16    reserved flags (must be 0)
//!        8   payload (below)
//!        end-4  u32 CRC-32 (IEEE) of every preceding byte
//! ```
//!
//! Payload sections, in order:
//!
//! 1. **Config** — the `FlocConfig` as a length-prefixed canonical JSON
//!    string (the workspace serializer emits fields in declaration order
//!    with sorted map keys, so re-encoding a decoded checkpoint is
//!    byte-identical).
//! 2. **Matrix identity** — `u64` rows, cols, specified count, and the
//!    content fingerprint; resume refuses a different data set.
//! 3. **Progress** — `u64` completed iterations, `4 × u64` RNG state,
//!    `u8` stop tag (0 resumable, 1 converged, 2 iteration cap, 3 budget,
//!    4 interrupted).
//! 4. **Clustering** — `u64 k`, then per cluster ascending row indices
//!    (`u64 n` + `n × u64`) and column indices likewise; `k × f64`
//!    residues; `f64` average residue.
//! 5. **Trace** — `u64` entry count, then per iteration: `u64` iteration,
//!    `f64` best-prefix average, `u64` best-prefix length, `u64` actions
//!    performed, `u8` improved flag.
//!
//! Saving goes through [`dc_matrix::atomic::atomic_write`], so an interrupted
//! save never damages the previous checkpoint — the property that makes
//! `mine --checkpoint` crash-safe at every iteration boundary.

use crate::framing::ArtifactError;
use dc_floc::checkpoint::FlocCheckpoint;
use dc_floc::history::{IterationTrace, StopReason};
use dc_floc::{DeltaCluster, FlocConfig};
use dc_matrix::atomic::atomic_write;
use dc_matrix::framing::{Reader, Writer};
use std::path::Path;

/// File magic: "delta-cluster checkpoint", format generation 1.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"DCK1";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u16 = 1;

fn stop_tag(stop: Option<StopReason>) -> u8 {
    match stop {
        None => 0,
        Some(StopReason::Converged) => 1,
        Some(StopReason::MaxIterations) => 2,
        Some(StopReason::Budget) => 3,
        Some(StopReason::Interrupted) => 4,
    }
}

fn stop_from_tag(tag: u8) -> Result<Option<StopReason>, ArtifactError> {
    Ok(match tag {
        0 => None,
        1 => Some(StopReason::Converged),
        2 => Some(StopReason::MaxIterations),
        3 => Some(StopReason::Budget),
        4 => Some(StopReason::Interrupted),
        other => {
            return Err(ArtifactError::Malformed(format!(
                "unknown stop tag {other}"
            )))
        }
    })
}

/// Serializes a checkpoint to the version-1 `.dck` bytes.
///
/// Encoding is canonical: `checkpoint_to_bytes(checkpoint_from_bytes(b)) ==
/// b` for every valid artifact `b`.
pub fn checkpoint_to_bytes(ckpt: &FlocCheckpoint) -> Vec<u8> {
    let mut w = Writer::begin(CHECKPOINT_MAGIC, CHECKPOINT_VERSION);

    // Config.
    w.str(&serde_json::to_string(&ckpt.config).expect("config serialization cannot fail"));

    // Matrix identity.
    w.u64(ckpt.matrix_rows as u64);
    w.u64(ckpt.matrix_cols as u64);
    w.u64(ckpt.matrix_specified as u64);
    w.u64(ckpt.matrix_fingerprint);

    // Progress.
    w.u64(ckpt.iterations as u64);
    for &word in &ckpt.rng_state {
        w.u64(word);
    }
    w.u8(stop_tag(ckpt.stop));

    // Clustering.
    w.u64(ckpt.clusters.len() as u64);
    for cluster in &ckpt.clusters {
        w.indices(&cluster.rows.to_vec());
        w.indices(&cluster.cols.to_vec());
    }
    for &r in &ckpt.residues {
        w.f64(r);
    }
    w.f64(ckpt.avg_residue);

    // Trace.
    w.u64(ckpt.trace.len() as u64);
    for t in &ckpt.trace {
        w.u64(t.iteration as u64);
        w.f64(t.best_prefix_avg);
        w.u64(t.best_prefix_len as u64);
        w.u64(t.actions_performed as u64);
        w.u8(t.improved as u8);
    }

    w.finish()
}

/// Deserializes a version-1 `.dck` artifact. Checks magic, version, and
/// checksum before touching the payload; every section is bounds-checked.
///
/// # Errors
/// Typed [`ArtifactError`]s for corruption, truncation, or structural
/// nonsense — never a panic.
pub fn checkpoint_from_bytes(bytes: &[u8]) -> Result<FlocCheckpoint, ArtifactError> {
    let mut r = Reader::open(bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
    let body_len = bytes.len() - 4;

    let config: FlocConfig =
        serde_json::from_str(&r.str()?).map_err(|e| ArtifactError::Json(e.to_string()))?;

    let rows = r.count("row", u32::MAX as usize)?;
    let cols = r.count("column", u32::MAX as usize)?;
    let cells = rows
        .checked_mul(cols)
        .ok_or_else(|| ArtifactError::Malformed("matrix shape overflows".into()))?;
    let specified = r.count("specified entry", cells)?;
    let fingerprint = r.u64()?;

    let iterations = r.u64()? as usize;
    let mut rng_state = Vec::with_capacity(4);
    for _ in 0..4 {
        rng_state.push(r.u64()?);
    }
    if rng_state.iter().all(|&w| w == 0) {
        return Err(ArtifactError::Malformed(
            "all-zero RNG state is invalid".into(),
        ));
    }
    let stop = stop_from_tag(r.u8()?)?;

    let k = r.count("cluster", body_len)?;
    if k != config.k {
        return Err(ArtifactError::Malformed(format!(
            "{k} clusters stored for k = {}",
            config.k
        )));
    }
    let mut clusters = Vec::with_capacity(k);
    for _ in 0..k {
        let cluster_rows = r.indices(rows, "cluster row")?;
        let cluster_cols = r.indices(cols, "cluster column")?;
        clusters.push(DeltaCluster::from_indices(
            rows,
            cols,
            cluster_rows,
            cluster_cols,
        ));
    }
    let mut residues = Vec::with_capacity(k);
    for _ in 0..k {
        residues.push(r.f64()?);
    }
    let avg_residue = r.f64()?;

    let n_trace = r.count("trace entry", body_len)?;
    let mut trace = Vec::with_capacity(n_trace);
    for _ in 0..n_trace {
        let iteration = r.u64()? as usize;
        let best_prefix_avg = r.f64()?;
        let best_prefix_len = r.u64()? as usize;
        let actions_performed = r.u64()? as usize;
        let improved = match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(ArtifactError::Malformed(format!(
                    "improved flag must be 0 or 1, got {other}"
                )))
            }
        };
        trace.push(IterationTrace {
            iteration,
            best_prefix_avg,
            best_prefix_len,
            actions_performed,
            improved,
        });
    }

    r.expect_end()?;

    Ok(FlocCheckpoint {
        config,
        matrix_rows: rows,
        matrix_cols: cols,
        matrix_specified: specified,
        matrix_fingerprint: fingerprint,
        iterations,
        rng_state,
        clusters,
        residues,
        avg_residue,
        trace,
        stop,
    })
}

/// Saves `ckpt` to `path` atomically (write-temp-fsync-rename): a crash or
/// kill mid-save leaves the previous checkpoint at `path` intact.
///
/// # Errors
/// IO errors from the staging write or rename.
pub fn save_checkpoint(ckpt: &FlocCheckpoint, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
    atomic_write(path.as_ref(), &checkpoint_to_bytes(ckpt))?;
    Ok(())
}

/// Loads a checkpoint from `path`.
///
/// # Errors
/// IO errors, or any decode error from [`checkpoint_from_bytes`].
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<FlocCheckpoint, ArtifactError> {
    checkpoint_from_bytes(&std::fs::read(path.as_ref())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_floc::{floc_resume_with, floc_with, CheckpointLog, FlocConfig};
    use dc_matrix::DataMatrix;
    use dc_obs::Obs;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mined_checkpoints(seed: u64) -> (DataMatrix, FlocConfig, Vec<FlocCheckpoint>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = DataMatrix::builder(20, 10).build();
        for r in 0..20 {
            for c in 0..10 {
                if rng.gen_bool(0.9) {
                    m.set(r, c, rng.gen_range(0.0..50.0));
                }
            }
        }
        let config = FlocConfig::builder(2).alpha(0.5).seed(seed).build();
        let log = CheckpointLog::new();
        floc_with(&m, &config, &Obs::new(log.clone())).unwrap();
        (m, config, log.snapshots())
    }

    #[test]
    fn roundtrip_is_byte_canonical() {
        let (_, _, snapshots) = mined_checkpoints(5);
        assert!(!snapshots.is_empty());
        for ckpt in &snapshots {
            let bytes = checkpoint_to_bytes(ckpt);
            let decoded = checkpoint_from_bytes(&bytes).unwrap();
            assert_eq!(&decoded, ckpt);
            assert_eq!(
                checkpoint_to_bytes(&decoded),
                bytes,
                "re-encoding must be byte-identical"
            );
        }
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let (_, _, snapshots) = mined_checkpoints(7);
        let clean = checkpoint_to_bytes(snapshots.last().unwrap());
        for i in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[i] ^= 0x20;
            assert!(
                checkpoint_from_bytes(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let (_, _, snapshots) = mined_checkpoints(9);
        let clean = checkpoint_to_bytes(snapshots.last().unwrap());
        for keep in 0..clean.len() {
            assert!(
                checkpoint_from_bytes(&clean[..keep]).is_err(),
                "truncation to {keep} bytes went undetected"
            );
        }
    }

    #[test]
    fn save_load_roundtrip_resumes() {
        let (m, config, snapshots) = mined_checkpoints(11);
        let dir = std::env::temp_dir().join("dc-serve-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.dck");

        // A resumable (non-terminal) snapshot if one exists, else the last.
        let ckpt = snapshots
            .iter()
            .find(|c| c.stop.is_none())
            .unwrap_or_else(|| snapshots.last().unwrap());
        save_checkpoint(ckpt, &path).unwrap();
        let loaded = load_checkpoint(&path).unwrap();
        assert_eq!(&loaded, ckpt);
        loaded.validate(&m, &config).unwrap();
    }

    #[test]
    fn f32_matrix_checkpoints_roundtrip_and_resume() {
        // Mine an f32-storage matrix partway, push every snapshot through
        // the .dck codec, and resume: the format needs no storage field
        // because the fingerprint is computed over widened f64 bits — an
        // f32 matrix and its widened f64 twin are interchangeable.
        let mut rng = StdRng::seed_from_u64(21);
        let mut m = DataMatrix::builder(20, 10)
            .storage(dc_matrix::ValueStorage::F32)
            .build();
        for r in 0..20 {
            for c in 0..10 {
                if rng.gen_bool(0.9) {
                    m.set(r, c, f64::from(rng.gen_range(0.0..50.0f64) as f32));
                }
            }
        }
        let config = FlocConfig::builder(2).alpha(0.5).seed(21).build();
        let log = CheckpointLog::new();
        let full = floc_with(&m, &config, &Obs::new(log.clone())).unwrap();
        let snapshots = log.snapshots();
        assert!(!snapshots.is_empty());

        let twin = m.with_storage(dc_matrix::ValueStorage::F64).unwrap();
        for ckpt in &snapshots {
            let decoded = checkpoint_from_bytes(&checkpoint_to_bytes(ckpt)).unwrap();
            assert_eq!(&decoded, ckpt);
            decoded.validate(&m, &config).unwrap();
            decoded.validate(&twin, &config).unwrap();
            let resumed = floc_resume_with(&m, &decoded, &config, &Obs::null()).unwrap();
            assert_eq!(resumed.clusters, full.clusters);
            assert_eq!(resumed.avg_residue.to_bits(), full.avg_residue.to_bits());
        }
    }

    #[test]
    fn stop_tags_cover_every_reason() {
        let (_, _, snapshots) = mined_checkpoints(13);
        let mut ckpt = snapshots.last().unwrap().clone();
        for stop in [
            None,
            Some(StopReason::Converged),
            Some(StopReason::MaxIterations),
            Some(StopReason::Budget),
            Some(StopReason::Interrupted),
        ] {
            ckpt.stop = stop;
            let decoded = checkpoint_from_bytes(&checkpoint_to_bytes(&ckpt)).unwrap();
            assert_eq!(decoded.stop, stop);
        }
    }

    #[test]
    fn model_magic_is_rejected() {
        let (_, _, snapshots) = mined_checkpoints(15);
        let mut bytes = checkpoint_to_bytes(snapshots.last().unwrap());
        bytes[..4].copy_from_slice(&crate::artifact::MAGIC);
        // Magic swap also breaks the checksum; either typed error is fine,
        // but it must not parse.
        assert!(checkpoint_from_bytes(&bytes).is_err());
    }
}

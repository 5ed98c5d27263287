//! The `DCO1` miner checkpoint: everything the online miner needs to
//! resume bit-identically after a kill at any instruction.
//!
//! ## Binary layout (version 1, the shared envelope of `dc_matrix::framing`)
//!
//! ```text
//! offset 0   magic  b"DCO1"
//!        4   u16    format version (currently 1)
//!        6   u16    reserved flags (must be 0)
//!        8   payload (below)
//!        end-4  u32 CRC-32 (IEEE) of every preceding byte
//! ```
//!
//! Payload sections, in order:
//!
//! 1. **Source** — the [`SourceSpec`] as a length-prefixed canonical JSON
//!    string; recovery refuses a checkpoint from a different stream.
//! 2. **Progress** — `u64` generation, `u64` stream cursor, `u64`
//!    promotions performed, `u8` at-promotion flag, `f64` avg residue of
//!    the last promoted model (`+inf` before the first promotion).
//! 3. **Mining state** — the embedded [`FlocCheckpoint`] as its canonical
//!    `DCK1` bytes, length-prefixed. Nesting the existing codec keeps one
//!    source of truth for the mining snapshot and inherits its
//!    byte-for-byte canonical round-trip.
//!
//! The at-promotion flag is the crash-consistency hinge: a checkpoint with
//! the flag set was staged immediately *before* the model artifact write
//! and install. Recovery that finds such a checkpoint rolls the promotion
//! forward (rewrites the model from the embedded mining state if the
//! `.dcm` is missing or torn) instead of redoing or losing it.
//!
//! Saving goes through `dc_matrix::atomic::atomic_write`, so the previous
//! generation is never damaged by a kill mid-save, and every generation
//! gets its own file — the newest valid one wins at recovery, older ones
//! are the fallback when the newest was corrupted by the environment.

use crate::source::SourceSpec;
use crate::OnlineError;
use dc_floc::FlocCheckpoint;
use dc_matrix::atomic::atomic_write;
use dc_matrix::framing::{Reader, Writer};
use dc_serve::{checkpoint_from_bytes, checkpoint_to_bytes, ArtifactError};
use std::path::{Path, PathBuf};

/// File magic: "delta-cluster online", format generation 1.
pub const MINER_CHECKPOINT_MAGIC: [u8; 4] = *b"DCO1";
/// Current miner-checkpoint format version.
pub const MINER_CHECKPOINT_VERSION: u16 = 1;

/// A complete snapshot of the online miner at a batch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct MinerCheckpoint {
    /// Monotonic write counter; the filename carries it
    /// (`miner-<gen>.dck`) and recovery picks the highest valid one.
    pub gen: u64,
    /// Events `0..cursor` of the stream have been applied to the matrix.
    pub cursor: u64,
    /// Promotions performed so far; also the current model's artifact
    /// number (`model-<promotions>.dcm`).
    pub promotions: u64,
    /// True for the checkpoint staged immediately before a promotion's
    /// model write + install; recovery rolls such a promotion forward.
    pub at_promotion: bool,
    /// Average residue of the last promoted model; `+inf` before the
    /// first promotion, so the first mined model always promotes.
    pub promoted_avg_residue: f64,
    /// The stream this run is consuming.
    pub source: SourceSpec,
    /// The resumable mining snapshot, re-anchored to the matrix at
    /// `cursor` (its fingerprint is what recovery validates against).
    pub floc: FlocCheckpoint,
}

/// Serializes a miner checkpoint to the version-1 `DCO1` bytes.
///
/// Canonical: `miner_checkpoint_to_bytes(miner_checkpoint_from_bytes(b))
/// == b` for every valid artifact `b`.
pub fn miner_checkpoint_to_bytes(ckpt: &MinerCheckpoint) -> Vec<u8> {
    let mut w = Writer::begin(MINER_CHECKPOINT_MAGIC, MINER_CHECKPOINT_VERSION);
    w.str(&serde_json::to_string(&ckpt.source).expect("source serialization cannot fail"));
    w.u64(ckpt.gen);
    w.u64(ckpt.cursor);
    w.u64(ckpt.promotions);
    w.u8(ckpt.at_promotion as u8);
    w.f64(ckpt.promoted_avg_residue);
    let floc = checkpoint_to_bytes(&ckpt.floc);
    w.u64(floc.len() as u64);
    for &b in &floc {
        w.u8(b);
    }
    w.finish()
}

/// Deserializes a version-1 `DCO1` artifact. Magic, version, and CRC are
/// checked before any parsing; the embedded mining snapshot re-runs the
/// full `DCK1` validation.
///
/// # Errors
/// Typed [`ArtifactError`]s for corruption, truncation, or structural
/// nonsense — never a panic.
pub fn miner_checkpoint_from_bytes(bytes: &[u8]) -> Result<MinerCheckpoint, ArtifactError> {
    let mut r = Reader::open(bytes, MINER_CHECKPOINT_MAGIC, MINER_CHECKPOINT_VERSION)?;
    let source: SourceSpec =
        serde_json::from_str(&r.str()?).map_err(|e| ArtifactError::Json(e.to_string()))?;
    let gen = r.u64()?;
    let cursor = r.u64()?;
    let promotions = r.u64()?;
    let at_promotion = match r.u8()? {
        0 => false,
        1 => true,
        other => {
            return Err(ArtifactError::Malformed(format!(
                "at-promotion flag must be 0 or 1, got {other}"
            )))
        }
    };
    let promoted_avg_residue = r.f64()?;
    if promoted_avg_residue.is_nan() {
        return Err(ArtifactError::Malformed("promoted residue is NaN".into()));
    }
    let len = r.count("embedded checkpoint byte", bytes.len())?;
    let floc = checkpoint_from_bytes(r.take(len)?)?;
    r.expect_end()?;
    Ok(MinerCheckpoint {
        gen,
        cursor,
        promotions,
        at_promotion,
        promoted_avg_residue,
        source,
        floc,
    })
}

/// The canonical path of generation `gen` inside `state_dir`.
pub fn generation_path(state_dir: &Path, gen: u64) -> PathBuf {
    state_dir.join(format!("miner-{gen:010}.dck"))
}

/// The canonical path of the `promotions`-th promoted model.
pub fn model_path(state_dir: &Path, promotions: u64) -> PathBuf {
    state_dir.join(format!("model-{promotions:06}.dcm"))
}

/// Saves `ckpt` to its generation-numbered path inside `state_dir`,
/// atomically (write-temp-fsync-rename), and returns the path.
///
/// # Errors
/// IO errors from the staging write or rename.
pub fn save_miner_checkpoint(
    ckpt: &MinerCheckpoint,
    state_dir: &Path,
) -> Result<PathBuf, ArtifactError> {
    let path = generation_path(state_dir, ckpt.gen);
    atomic_write(&path, &miner_checkpoint_to_bytes(ckpt))?;
    Ok(path)
}

/// Loads a miner checkpoint from `path`.
///
/// # Errors
/// IO errors, or any decode error from [`miner_checkpoint_from_bytes`].
pub fn load_miner_checkpoint(path: impl AsRef<Path>) -> Result<MinerCheckpoint, ArtifactError> {
    miner_checkpoint_from_bytes(&std::fs::read(path.as_ref())?)
}

/// Generation numbers present in `state_dir`, descending (newest first).
/// Files that merely *look* like generations but do not parse as one are
/// ignored — recovery treats them as absent.
pub fn list_generations(state_dir: &Path) -> Result<Vec<u64>, OnlineError> {
    let mut gens = Vec::new();
    let entries = match std::fs::read_dir(state_dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(gens),
        Err(e) => return Err(OnlineError::Io(e)),
    };
    for entry in entries {
        let name = entry.map_err(OnlineError::Io)?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(gen) = name
            .strip_prefix("miner-")
            .and_then(|s| s.strip_suffix(".dck"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            gens.push(gen);
        }
    }
    gens.sort_unstable_by(|a, b| b.cmp(a));
    Ok(gens)
}

/// Deletes every generation older than the newest `keep`, and every model
/// artifact older than the newest `keep` promotions. Best-effort: a file
/// that refuses to die is left behind rather than failing the miner.
pub fn collect_garbage(state_dir: &Path, keep: usize) -> Result<(), OnlineError> {
    for gen in list_generations(state_dir)?.into_iter().skip(keep) {
        let _ = std::fs::remove_file(generation_path(state_dir, gen));
    }
    let mut models = Vec::new();
    for entry in std::fs::read_dir(state_dir).map_err(OnlineError::Io)? {
        let name = entry.map_err(OnlineError::Io)?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(v) = name
            .strip_prefix("model-")
            .and_then(|s| s.strip_suffix(".dcm"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            models.push(v);
        }
    }
    models.sort_unstable_by(|a, b| b.cmp(a));
    for v in models.into_iter().skip(keep) {
        let _ = std::fs::remove_file(model_path(state_dir, v));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_datagen::stream::replay;
    use dc_datagen::StreamConfig;
    use dc_floc::{floc_with, CheckpointLog, FlocConfig};
    use dc_obs::Obs;

    fn stream() -> StreamConfig {
        StreamConfig {
            users: 30,
            movies: 20,
            events: 400,
            delete_percent: 5,
            user_groups: 3,
            genres: 4,
            noise_std: 0.2,
            seed: 21,
        }
    }

    fn sample() -> MinerCheckpoint {
        let config = stream();
        let matrix = replay(&config, 300);
        let floc_config = FlocConfig::builder(2).alpha(0.5).seed(9).build();
        let log = CheckpointLog::new();
        floc_with(&matrix, &floc_config, &Obs::new(log.clone())).unwrap();
        MinerCheckpoint {
            gen: 17,
            cursor: 300,
            promotions: 3,
            at_promotion: true,
            promoted_avg_residue: 0.625,
            source: SourceSpec::generated(config),
            floc: log.last().unwrap(),
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dc-online-ckpt").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_is_byte_canonical() {
        let ckpt = sample();
        let bytes = miner_checkpoint_to_bytes(&ckpt);
        let decoded = miner_checkpoint_from_bytes(&bytes).unwrap();
        assert_eq!(decoded, ckpt);
        assert_eq!(
            miner_checkpoint_to_bytes(&decoded),
            bytes,
            "re-encoding must be byte-identical"
        );
    }

    #[test]
    fn infinity_sentinel_survives_the_codec() {
        let mut ckpt = sample();
        ckpt.promoted_avg_residue = f64::INFINITY;
        ckpt.at_promotion = false;
        let decoded = miner_checkpoint_from_bytes(&miner_checkpoint_to_bytes(&ckpt)).unwrap();
        assert_eq!(decoded.promoted_avg_residue, f64::INFINITY);
        assert!(!decoded.at_promotion);
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let clean = miner_checkpoint_to_bytes(&sample());
        for i in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[i] ^= 0x20;
            assert!(
                miner_checkpoint_from_bytes(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let clean = miner_checkpoint_to_bytes(&sample());
        for keep in 0..clean.len() {
            assert!(
                miner_checkpoint_from_bytes(&clean[..keep]).is_err(),
                "truncation to {keep} bytes went undetected"
            );
        }
    }

    #[test]
    fn save_load_and_generation_listing() {
        let dir = scratch("gens");
        let mut ckpt = sample();
        for gen in [3u64, 1, 7] {
            ckpt.gen = gen;
            let path = save_miner_checkpoint(&ckpt, &dir).unwrap();
            assert_eq!(path, generation_path(&dir, gen));
        }
        std::fs::write(dir.join("miner-junk.dck"), b"nope").unwrap();
        std::fs::write(dir.join("unrelated.txt"), b"nope").unwrap();
        assert_eq!(list_generations(&dir).unwrap(), vec![7, 3, 1]);
        ckpt.gen = 7;
        assert_eq!(
            load_miner_checkpoint(generation_path(&dir, 7)).unwrap(),
            ckpt
        );
        // A missing directory lists as empty, not as an error.
        assert!(list_generations(&dir.join("missing")).unwrap().is_empty());
    }

    #[test]
    fn garbage_collection_keeps_the_newest() {
        let dir = scratch("gc");
        let mut ckpt = sample();
        for gen in 1..=5u64 {
            ckpt.gen = gen;
            save_miner_checkpoint(&ckpt, &dir).unwrap();
        }
        for v in 1..=4u64 {
            std::fs::write(model_path(&dir, v), b"model").unwrap();
        }
        collect_garbage(&dir, 2).unwrap();
        assert_eq!(list_generations(&dir).unwrap(), vec![5, 4]);
        assert!(!model_path(&dir, 2).exists());
        assert!(model_path(&dir, 3).exists());
        assert!(model_path(&dir, 4).exists());
    }
}

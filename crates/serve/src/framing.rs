//! The serve layer's artifact error over the shared binary framing of
//! [`dc_matrix::framing`].
//!
//! Both on-disk artifact formats — the `.dcm` model ([`crate::artifact`])
//! and the `.dck` mining checkpoint ([`crate::checkpoint`]) — use the same
//! envelope, and since the paged matrix backend stores its block files in
//! it too, the codec lives in `dc-matrix` (the bottom of the dependency
//! stack):
//!
//! ```text
//! offset 0   magic  4 bytes (format-specific)
//!        4   u16    format version
//!        6   u16    reserved flags (must be 0)
//!        8   payload (format-specific sections)
//!        end-4  u32 CRC-32 (IEEE) of every preceding byte
//! ```
//!
//! A flipped byte anywhere surfaces as a checksum mismatch before any
//! parsing happens, and every read is bounds-checked — corrupt or truncated
//! files produce typed errors, never panics.
//!
//! This module keeps [`ArtifactError`], the serve-layer error type: the
//! codec's [`FrameError`] converts into it losslessly (`?` does it
//! implicitly), and the serve layer adds the model/JSON failure modes the
//! codec knows nothing about.

use crate::model::ModelError;
use dc_matrix::framing::FrameError;

/// Everything that can go wrong encoding or decoding a framed artifact.
#[derive(Debug)]
pub enum ArtifactError {
    Io(std::io::Error),
    /// The file does not start with the expected magic.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The CRC-32 over the file body does not match the stored checksum.
    ChecksumMismatch {
        stored: u32,
        computed: u32,
    },
    /// The file ended before a section was complete.
    Truncated,
    /// A structurally invalid value (negative count, index out of range…).
    Malformed(String),
    /// The parts deserialized cleanly but do not form a coherent model.
    Model(ModelError),
    /// JSON parse error (fallback format or embedded JSON section).
    Json(String),
    /// A `.dcm` paged-matrix reference pointed at a directory that failed
    /// to open or validate.
    Paged(dc_matrix::PagedError),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "i/o error: {e}"),
            ArtifactError::BadMagic => write!(f, "not a δ-cluster artifact (bad magic)"),
            ArtifactError::UnsupportedVersion(v) => {
                write!(f, "unsupported artifact format version {v}")
            }
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact is corrupt: stored checksum {stored:#010x}, computed {computed:#010x}"
            ),
            ArtifactError::Truncated => write!(f, "artifact is truncated"),
            ArtifactError::Malformed(why) => write!(f, "malformed artifact: {why}"),
            ArtifactError::Model(e) => write!(f, "inconsistent model: {e}"),
            ArtifactError::Json(e) => write!(f, "json parse error: {e}"),
            ArtifactError::Paged(e) => write!(f, "paged matrix reference: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

impl From<ModelError> for ArtifactError {
    fn from(e: ModelError) -> Self {
        ArtifactError::Model(e)
    }
}

impl From<dc_matrix::PagedError> for ArtifactError {
    fn from(e: dc_matrix::PagedError) -> Self {
        ArtifactError::Paged(e)
    }
}

impl From<FrameError> for ArtifactError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ArtifactError::Io(e),
            FrameError::BadMagic => ArtifactError::BadMagic,
            FrameError::UnsupportedVersion(v) => ArtifactError::UnsupportedVersion(v),
            FrameError::ChecksumMismatch { stored, computed } => {
                ArtifactError::ChecksumMismatch { stored, computed }
            }
            FrameError::Truncated => ArtifactError::Truncated,
            FrameError::Malformed(why) => ArtifactError::Malformed(why),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_matrix::framing::{Reader, Writer};

    const MAGIC: [u8; 4] = *b"TST1";

    #[test]
    fn frame_errors_convert_variant_for_variant() {
        let mut w = Writer::begin(MAGIC, 9);
        w.u64(1);
        let newer = w.finish();
        let err: ArtifactError = Reader::open(&newer, MAGIC, 1).unwrap_err().into();
        assert!(matches!(err, ArtifactError::UnsupportedVersion(9)));

        let mut w = Writer::begin(MAGIC, 1);
        w.u64(1);
        let mut corrupt = w.finish();
        corrupt[9] ^= 1;
        let err: ArtifactError = Reader::open(&corrupt, MAGIC, 1).unwrap_err().into();
        assert!(matches!(err, ArtifactError::ChecksumMismatch { .. }));

        let err: ArtifactError = Reader::open(b"OTHR", MAGIC, 1).unwrap_err().into();
        assert!(matches!(err, ArtifactError::Truncated));
    }

    #[test]
    fn question_mark_converts_inside_artifact_functions() {
        fn decode(bytes: &[u8]) -> Result<u64, ArtifactError> {
            let mut r = Reader::open(bytes, MAGIC, 1)?;
            let v = r.u64()?;
            r.expect_end()?;
            Ok(v)
        }
        let mut w = Writer::begin(MAGIC, 1);
        w.u64(42);
        assert_eq!(decode(&w.finish()).unwrap(), 42);
        assert!(matches!(decode(b""), Err(ArtifactError::Truncated)));
    }
}

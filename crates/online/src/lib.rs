//! # dc-online — never stop learning
//!
//! Everything below dc-serve treats mining as a batch job: load a matrix,
//! run FLOC, ship a `.dcm`. This crate closes the loop the paper's
//! collaborative-filtering motivation implies: ratings *arrive over time*,
//! and the served clustering should keep up without ever taking the serving
//! tier down or serving a half-built model.
//!
//! The pieces, bottom-up:
//!
//! * [`source`] — where events come from: the deterministic generator of
//!   [`dc_datagen::stream`] or a `DCS1` event file on disk, read with
//!   retry + exponential backoff over transient IO faults.
//! * [`checkpoint`] — the `DCO1` miner checkpoint: stream cursor, promotion
//!   counters, and an embedded resumable [`dc_floc::FlocCheckpoint`], CRC
//!   framed like every other artifact and written atomically. A miner that
//!   is killed at *any* instruction resumes bit-identically from the last
//!   one on disk.
//! * [`miner`] — the deterministic state machine: apply a batch of events
//!   with O(1)-per-cell repair of the incumbent [`dc_floc::ClusterState`]s,
//!   rebase the FLOC checkpoint onto the mutated matrix, run a bounded phase-2
//!   refinement round, and promote the model when it improved by a margin.
//!   Promotion is generation-numbered and staged (checkpoint → model →
//!   install → checkpoint), so a crash at any point either rolls forward or
//!   loses nothing.
//! * [`runner`] — the background thread that drives the miner against a
//!   live [`dc_net::AppState`]: `catch_unwind` at the loop boundary so a
//!   miner panic can never take serving down, gauges and status fragments
//!   on `/metrics` and `/healthz`, and a typed `miner.crashed` event when
//!   the worst happens.
//!
//! Chaos coverage lives in `crates/cli/tests/online_chaos.rs`: hundreds of
//! randomized SIGKILLs (including forced aborts inside the promotion
//! window via `dc_fault::chaos` safe-points) against a serving+mining
//! process, asserting bit-identical final artifacts and that in-flight
//! queries during promotions always answer from a complete model.

pub mod checkpoint;
pub mod miner;
pub mod runner;
pub mod source;

pub use checkpoint::{
    collect_garbage, generation_path, list_generations, load_miner_checkpoint,
    miner_checkpoint_from_bytes, miner_checkpoint_to_bytes, model_path, save_miner_checkpoint,
    MinerCheckpoint, MINER_CHECKPOINT_MAGIC,
};
pub use miner::{InstallSink, Miner, MinerConfig, NullInstall, Recovery, StepOutcome};
pub use runner::{spawn_miner, MinerHandle};
pub use source::{load_events, SourceSpec};

use dc_serve::ArtifactError;

/// Everything the online tier can fail with. Stream faults, artifact
/// corruption, and mining errors all surface as typed variants — the miner
/// loop never panics on hostile input.
#[derive(Debug)]
pub enum OnlineError {
    /// A `.dck`/`.dcm` artifact failed to encode, decode, or hit IO.
    Artifact(ArtifactError),
    /// Mining (bounded refinement or the cold-start run) failed.
    Floc(dc_floc::FlocError),
    /// The serve model could not be built from the mined clustering.
    Model(dc_serve::ModelError),
    /// The event stream failed to decode after every retry.
    Stream {
        path: String,
        source: dc_datagen::stream::StreamCodecError,
    },
    /// An event addresses a cell outside the configured universe.
    EventOutOfRange {
        index: usize,
        user: u32,
        movie: u32,
        users: usize,
        movies: usize,
    },
    /// A recovered checkpoint belongs to a different stream than the one
    /// configured — resuming it would not be deterministic.
    SourceChanged,
    /// The whole stream was consumed without ever mining a model.
    NoModel,
    /// Cooperative interrupt raised before the first model existed.
    Interrupted,
    /// Plain IO outside an artifact codec (directory scans, …).
    Io(std::io::Error),
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::Artifact(e) => write!(f, "artifact error: {e}"),
            OnlineError::Floc(e) => write!(f, "mining failed: {e}"),
            OnlineError::Model(e) => write!(f, "model build failed: {e}"),
            OnlineError::Stream { path, source } => {
                write!(f, "event stream {path} unreadable after retries: {source}")
            }
            OnlineError::EventOutOfRange {
                index,
                user,
                movie,
                users,
                movies,
            } => write!(
                f,
                "event {index} targets ({user}, {movie}) outside the {users}x{movies} universe"
            ),
            OnlineError::SourceChanged => {
                f.write_str("checkpoint was taken on a different event stream")
            }
            OnlineError::NoModel => f.write_str("stream exhausted before any model could be mined"),
            OnlineError::Interrupted => f.write_str("interrupted before the first model"),
            OnlineError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for OnlineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OnlineError::Artifact(e) => Some(e),
            OnlineError::Floc(e) => Some(e),
            OnlineError::Model(e) => Some(e),
            OnlineError::Stream { source, .. } => Some(source),
            OnlineError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArtifactError> for OnlineError {
    fn from(e: ArtifactError) -> Self {
        OnlineError::Artifact(e)
    }
}

impl From<dc_floc::FlocError> for OnlineError {
    fn from(e: dc_floc::FlocError) -> Self {
        OnlineError::Floc(e)
    }
}

impl From<dc_serve::ModelError> for OnlineError {
    fn from(e: dc_serve::ModelError) -> Self {
        OnlineError::Model(e)
    }
}

impl From<std::io::Error> for OnlineError {
    fn from(e: std::io::Error) -> Self {
        OnlineError::Io(e)
    }
}

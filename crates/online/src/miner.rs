//! The online miner: a deterministic state machine over a bounded event
//! stream.
//!
//! ## One step = one batch
//!
//! 1. **Apply** the next `batch` events to the matrix. Each event touches
//!    one `(row, col)` cell; the incumbent clusters' sufficient statistics
//!    are repaired in O(1) per affected cluster
//!    ([`ClusterState::cell_changed`]). Refinement builds its own gain
//!    engine from these states, so the miner keeps no index to repair.
//! 2. **Rebase** the FLOC checkpoint onto the mutated matrix
//!    ([`FlocCheckpoint::rebase`]): residues are recomputed canonically,
//!    the RNG state carries over, so the search trajectory stays a pure
//!    function of (seed, stream).
//! 3. **Refine** — when the batch touched an incumbent cluster or broke
//!    its α-occupancy — by resuming the rebased checkpoint for a bounded
//!    round (`max_iterations` of the search config caps it; the optional
//!    wall-clock budget and the cooperative interrupt flag ride along).
//! 4. **Promote** when the refined clustering beats the last promoted
//!    model by `promote_margin`: stage a checkpoint with the at-promotion
//!    flag, write the model artifact, install it into the serving tier,
//!    commit a second checkpoint. Kills between any two of those writes
//!    are repaired by [`Miner::bootstrap`]'s roll-forward.
//!
//! Every decision above — including *whether* to refine and *whether* to
//! promote — is a deterministic function of the durable checkpoint state,
//! which is why a process killed at a random instruction and restarted
//! produces byte-identical artifacts to one that was never killed.

use crate::checkpoint::{
    collect_garbage, generation_path, list_generations, load_miner_checkpoint, model_path,
    save_miner_checkpoint, MinerCheckpoint,
};
use crate::source::{load_events, SourceSpec};
use crate::OnlineError;
use dc_datagen::stream::{RatingEvent, RatingOp};
use dc_fault::chaos::safepoint;
use dc_floc::{CheckpointLog, ClusterState, FlocCheckpoint, FlocConfig, InterruptFlag, StopReason};
use dc_matrix::DataMatrix;
use dc_obs::{Field, Obs};
use dc_serve::ServeModel;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of one online-mining run.
pub struct MinerConfig {
    /// The bounded event stream to consume.
    pub source: SourceSpec,
    /// The search configuration. `max_iterations` doubles as the bound of
    /// each per-batch refinement round; all search-identity fields must
    /// stay fixed across restarts of the same state directory.
    pub floc: FlocConfig,
    /// Where checkpoints and promoted models live.
    pub state_dir: PathBuf,
    /// Events applied per step.
    pub batch: usize,
    /// Required average-residue improvement over the last promoted model
    /// before a new one is promoted.
    pub promote_margin: f64,
    /// Optional wall-clock budget per refinement round. Budget stops are
    /// timing-dependent; leave `None` when bit-identical replays matter.
    pub refine_budget: Option<Duration>,
    /// Checkpoint generations (and model artifacts) retained on disk.
    pub keep_generations: usize,
}

/// Receives freshly promoted models — in production the serving tier's
/// `AppState`, in tests a counter or nothing.
pub trait InstallSink: Sync {
    fn install(&self, model: ServeModel, path: &Path);
}

/// Discards promotions (bootstrap runs before any server exists).
pub struct NullInstall;

impl InstallSink for NullInstall {
    fn install(&self, _model: ServeModel, _path: &Path) {}
}

/// How [`Miner::bootstrap`] came up.
#[derive(Debug, Clone, PartialEq)]
pub enum Recovery {
    /// No usable checkpoint: the stream was consumed from event zero.
    ColdStart,
    /// Resumed from generation `gen` at stream `cursor`.
    Resumed {
        gen: u64,
        cursor: u64,
        /// A crashed promotion was completed (model rewritten/committed).
        rolled_forward: bool,
        /// Newer generations that were corrupt and skipped.
        discarded: usize,
    },
}

/// What one [`Miner::step`] did.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// A batch was applied and checkpointed.
    Advanced {
        /// A bounded refinement round ran this step.
        refined: bool,
        /// `Some(promotion number)` when a new model was promoted.
        promoted: Option<u64>,
    },
    /// The cooperative interrupt flag was raised; the in-flight batch was
    /// discarded (a restart redoes it identically from the last durable
    /// checkpoint).
    Interrupted,
    /// The stream is fully consumed; nothing changed.
    Exhausted,
}

pub struct Miner {
    config: MinerConfig,
    events: Vec<RatingEvent>,
    matrix: DataMatrix,
    /// The resumable mining snapshot, always re-anchored to `matrix`.
    floc: FlocCheckpoint,
    /// Incumbent clusters' sufficient statistics, repaired per event.
    states: Vec<ClusterState>,
    cursor: usize,
    gen: u64,
    promotions: u64,
    promoted_avg_residue: f64,
    refinements: u64,
    /// Cluster-state repairs made by *this process*: one per event for
    /// each incumbent whose rows contain the event's row.
    repairs: u64,
    interrupt: Arc<AtomicBool>,
    obs: Obs,
}

impl Miner {
    /// Starts (or resumes) a run: recovers the newest valid checkpoint in
    /// the state directory — rolling a crashed promotion forward — or cold
    /// starts by mining the first batches of the stream. Returns the miner
    /// plus the model the serving tier should start with.
    ///
    /// # Errors
    /// Stream errors, artifact IO, a checkpoint from a different stream or
    /// search config, [`OnlineError::Interrupted`] if the flag was raised
    /// before a first model existed, or [`OnlineError::NoModel`] when the
    /// whole stream cannot seed a single clustering.
    pub fn bootstrap(
        config: MinerConfig,
        interrupt: Arc<AtomicBool>,
        obs: Obs,
    ) -> Result<(Miner, ServeModel, Recovery), OnlineError> {
        assert!(config.batch > 0, "batch must be positive");
        assert!(config.keep_generations >= 2, "must keep >= 2 generations");
        std::fs::create_dir_all(&config.state_dir).map_err(OnlineError::Io)?;
        let events = load_events(&config.source, &obs)?;

        let mut discarded = 0usize;
        let mut recovered: Option<MinerCheckpoint> = None;
        for gen in list_generations(&config.state_dir)? {
            match load_miner_checkpoint(generation_path(&config.state_dir, gen)) {
                Ok(ckpt) => {
                    recovered = Some(ckpt);
                    break;
                }
                Err(e) => {
                    discarded += 1;
                    let msg = e.to_string();
                    obs.emit(
                        "miner.checkpoint.rejected",
                        &[Field::new("gen", gen), Field::new("error", msg.as_str())],
                    );
                }
            }
        }

        match recovered {
            Some(ckpt) => Self::resume(config, events, ckpt, discarded, interrupt, obs),
            None => Self::cold_start(config, events, interrupt, obs),
        }
    }

    fn resume(
        config: MinerConfig,
        events: Vec<RatingEvent>,
        ckpt: MinerCheckpoint,
        discarded: usize,
        interrupt: Arc<AtomicBool>,
        obs: Obs,
    ) -> Result<(Miner, ServeModel, Recovery), OnlineError> {
        if ckpt.source != config.source {
            return Err(OnlineError::SourceChanged);
        }
        let cursor = ckpt.cursor as usize;
        if cursor > events.len() {
            return Err(OnlineError::SourceChanged);
        }
        let mut matrix = config.source.empty_matrix();
        for e in &events[..cursor] {
            e.apply(&mut matrix);
        }
        // The embedded snapshot must belong to this exact replayed matrix
        // AND to the configured search (a changed flag would silently fork
        // the trajectory — refuse instead).
        ckpt.floc
            .validate(&matrix, &config.floc)
            .map_err(dc_floc::FlocError::Resume)?;

        // Roll a crashed promotion forward: the staged checkpoint already
        // carries the post-promotion counters, so completing it is just
        // (re)writing the model artifact and the commit record. Both
        // writes are byte-identical to what the killed process would have
        // written.
        let mut rolled_forward = false;
        let model_file = model_path(&config.state_dir, ckpt.promotions);
        if ckpt.at_promotion {
            if dc_serve::load(&model_file).is_err() {
                let model = build_model(&matrix, &ckpt.floc)?;
                dc_serve::save(&model, &model_file)?;
            }
            let committed = MinerCheckpoint {
                gen: ckpt.gen + 1,
                at_promotion: false,
                ..ckpt.clone()
            };
            save_miner_checkpoint(&committed, &config.state_dir)?;
            rolled_forward = true;
        }
        let model = dc_serve::load(&model_file)?;
        let gen = ckpt.gen + rolled_forward as u64;

        let states: Vec<ClusterState> = ckpt
            .floc
            .clusters
            .iter()
            .map(|c| ClusterState::new(&matrix, c))
            .collect();

        obs.emit(
            "miner.recovered",
            &[
                Field::new("gen", gen),
                Field::new("cursor", cursor),
                Field::new("promotions", ckpt.promotions),
                Field::new("rolled_forward", rolled_forward),
                Field::new("discarded", discarded),
            ],
        );
        let recovery = Recovery::Resumed {
            gen,
            cursor: cursor as u64,
            rolled_forward,
            discarded,
        };
        let miner = Miner {
            events,
            matrix,
            floc: ckpt.floc,
            states,
            cursor,
            gen,
            promotions: ckpt.promotions,
            promoted_avg_residue: ckpt.promoted_avg_residue,
            refinements: 0,
            repairs: 0,
            interrupt,
            obs,
            config,
        };
        collect_garbage(&miner.config.state_dir, miner.config.keep_generations)?;
        Ok((miner, model, recovery))
    }

    fn cold_start(
        config: MinerConfig,
        events: Vec<RatingEvent>,
        interrupt: Arc<AtomicBool>,
        obs: Obs,
    ) -> Result<(Miner, ServeModel, Recovery), OnlineError> {
        let mut matrix = config.source.empty_matrix();
        let mut cursor = 0usize;
        let mut cfg = config.floc.clone();
        cfg.interrupt = InterruptFlag::new(interrupt.clone());
        cfg.time_budget = config.refine_budget;

        // Consume batches until phase-1 seeding has enough data to stand
        // on; a stream that never gets there is a typed error, not a hang.
        let first = loop {
            if cursor >= events.len() {
                return Err(OnlineError::NoModel);
            }
            let end = (cursor + config.batch).min(events.len());
            for e in &events[cursor..end] {
                e.apply(&mut matrix);
            }
            cursor = end;
            let log = CheckpointLog::new();
            match dc_floc::floc_with(&matrix, &cfg, &Obs::new(log.clone())) {
                Ok(result) => {
                    if result.stop_reason == StopReason::Interrupted {
                        return Err(OnlineError::Interrupted);
                    }
                    break log.last().expect("a finished run emits a final snapshot");
                }
                Err(dc_floc::FlocError::EmptyMatrix) | Err(dc_floc::FlocError::Seed(_)) => {
                    continue; // not enough data yet; ingest more
                }
                Err(e) => return Err(e.into()),
            }
        };

        obs.emit(
            "miner.bootstrap",
            &[
                Field::new("cursor", cursor),
                Field::new("avg_residue", first.avg_residue),
            ],
        );
        let states: Vec<ClusterState> = first
            .clusters
            .iter()
            .map(|c| ClusterState::new(&matrix, c))
            .collect();
        let mut miner = Miner {
            events,
            matrix,
            floc: first,
            states,
            cursor,
            gen: 0,
            promotions: 0,
            promoted_avg_residue: f64::INFINITY,
            refinements: 1,
            repairs: 0,
            interrupt,
            obs,
            config,
        };
        // The first mined model always promotes (the incumbent is +inf).
        miner.promote(&NullInstall)?;
        let model = dc_serve::load(model_path(&miner.config.state_dir, miner.promotions))?;
        Ok((miner, model, Recovery::ColdStart))
    }

    /// Applies the next batch, refines if warranted, promotes if improved,
    /// and checkpoints. See the module docs for the full contract.
    ///
    /// # Errors
    /// Artifact IO and mining errors; never panics on stream content.
    pub fn step(&mut self, install: &dyn InstallSink) -> Result<StepOutcome, OnlineError> {
        if self.interrupt.load(std::sync::atomic::Ordering::Acquire) {
            return Ok(StepOutcome::Interrupted);
        }
        if self.cursor >= self.events.len() {
            return Ok(StepOutcome::Exhausted);
        }
        // Past the interrupt check, this batch runs: a stop lands after it.
        self.obs
            .emit("miner.batch.start", &[Field::new("cursor", self.cursor)]);
        safepoint("online.miner.batch");

        let end = (self.cursor + self.config.batch).min(self.events.len());
        let mut touched = false;
        for e in &self.events[self.cursor..end] {
            let (row, col) = (e.user as usize, e.movie as usize);
            touched |= self
                .states
                .iter()
                .any(|s| s.rows.contains(row) && s.cols.contains(col));
            self.repairs += self.states.iter().filter(|s| s.rows.contains(row)).count() as u64;
            let old = self.matrix.get(row, col);
            let new = match e.op {
                RatingOp::Set(v) => {
                    self.matrix.set(row, col, v);
                    Some(v)
                }
                RatingOp::Delete => {
                    self.matrix.unset(row, col);
                    None
                }
            };
            for s in &mut self.states {
                s.cell_changed(row, col, old, new);
            }
        }
        self.cursor = end;

        // Deletes can push an incumbent below its α-occupancy without
        // touching residues much — the repaired integer counts catch that
        // and force a refinement round.
        let alpha = self.floc.config.alpha;
        let occupancy_broken = alpha > 0.0
            && self
                .states
                .iter()
                .any(|s| s.occupancy_violations(alpha) > 0);

        let rebased = self.floc.rebase(&self.matrix);
        let refined = touched || occupancy_broken;
        if refined {
            let mut cfg = rebased.config.clone();
            cfg.interrupt = InterruptFlag::new(self.interrupt.clone());
            cfg.time_budget = self.config.refine_budget;
            let log = CheckpointLog::new();
            let result =
                dc_floc::floc_resume_with(&self.matrix, &rebased, &cfg, &Obs::new(log.clone()))?;
            if result.stop_reason == StopReason::Interrupted {
                // Discard the round: nothing was persisted this step, so a
                // restart replays the batch bit-identically.
                return Ok(StepOutcome::Interrupted);
            }
            self.refinements += 1;
            self.floc = log.last().expect("a finished round emits a final snapshot");
            self.rebuild_states();
        } else {
            self.floc = rebased;
        }

        let improved =
            self.floc.avg_residue + self.config.promote_margin < self.promoted_avg_residue;
        let promoted = if improved {
            Some(self.promote(install)?)
        } else {
            self.gen += 1;
            self.write_checkpoint(false)?;
            collect_garbage(&self.config.state_dir, self.config.keep_generations)?;
            None
        };
        self.obs.emit(
            "miner.batch",
            &[
                Field::new("cursor", self.cursor),
                Field::new("gen", self.gen),
                Field::new("touched", touched),
                Field::new("refined", refined),
                Field::new("promoted", promoted.is_some()),
                Field::new("avg_residue", self.floc.avg_residue),
            ],
        );
        Ok(StepOutcome::Advanced { refined, promoted })
    }

    /// The staged two-checkpoint promotion. Counters advance *before* the
    /// staged write so recovery can roll the promotion forward from the
    /// staged record alone.
    fn promote(&mut self, install: &dyn InstallSink) -> Result<u64, OnlineError> {
        self.promotions += 1;
        self.promoted_avg_residue = self.floc.avg_residue;
        self.gen += 1;
        self.write_checkpoint(true)?;
        safepoint("online.promote.staged");

        let model = build_model(&self.matrix, &self.floc)?;
        let path = model_path(&self.config.state_dir, self.promotions);
        dc_serve::save(&model, &path)?;
        safepoint("online.promote.model");

        install.install(model, &path);

        self.gen += 1;
        self.write_checkpoint(false)?;
        safepoint("online.promote.done");
        collect_garbage(&self.config.state_dir, self.config.keep_generations)?;
        self.obs.emit(
            "miner.promoted",
            &[
                Field::new("promotions", self.promotions),
                Field::new("avg_residue", self.promoted_avg_residue),
                Field::new("cursor", self.cursor),
            ],
        );
        Ok(self.promotions)
    }

    fn write_checkpoint(&self, at_promotion: bool) -> Result<(), OnlineError> {
        save_miner_checkpoint(
            &MinerCheckpoint {
                gen: self.gen,
                cursor: self.cursor as u64,
                promotions: self.promotions,
                at_promotion,
                promoted_avg_residue: self.promoted_avg_residue,
                source: self.config.source.clone(),
                floc: self.floc.clone(),
            },
            &self.config.state_dir,
        )?;
        Ok(())
    }

    fn rebuild_states(&mut self) {
        self.states = self
            .floc
            .clusters
            .iter()
            .map(|c| ClusterState::new(&self.matrix, c))
            .collect();
    }

    /// Events applied so far.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Total events in the stream.
    pub fn stream_len(&self) -> usize {
        self.events.len()
    }

    /// Newest checkpoint generation written.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Promotions performed over the lifetime of the state directory.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Average residue of the current (not necessarily promoted) mining
    /// snapshot.
    pub fn avg_residue(&self) -> f64 {
        self.floc.avg_residue
    }

    /// Refinement rounds run by *this process* (not durable).
    pub fn refinements(&self) -> u64 {
        self.refinements
    }

    /// Cluster-state repairs over the life of this process: one per event
    /// for each incumbent cluster whose rows contain the event's row.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// Test hook: the in-memory matrix, mining snapshot, and repaired
    /// cluster statistics. Not part of the stable API.
    #[doc(hidden)]
    pub fn debug_parts_for_tests(&self) -> (&DataMatrix, &FlocCheckpoint, &[ClusterState]) {
        (&self.matrix, &self.floc, &self.states)
    }
}

/// Builds the servable model for the current mining snapshot. Pure: the
/// same matrix + snapshot always produce the same model (and therefore the
/// same artifact bytes).
fn build_model(matrix: &DataMatrix, floc: &FlocCheckpoint) -> Result<ServeModel, OnlineError> {
    Ok(ServeModel::new(
        matrix.clone(),
        floc.clusters.clone(),
        floc.residues.clone(),
        floc.avg_residue,
    )?)
}

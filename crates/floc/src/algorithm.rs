//! The FLOC driver (§4.1): phase-1 seeding plus the phase-2 iterative
//! move-based improvement loop.
//!
//! Each iteration:
//!
//! 1. For every row and column `x`, evaluate the `k` candidate actions
//!    `Action(x, c)` against the iteration's starting clustering and keep the
//!    one with the highest gain (blocked actions count as gain `−∞`).
//! 2. Order the `N + M` chosen actions with the configured §5.2 strategy.
//! 3. Perform them sequentially — including negative-gain actions, which may
//!    escape local optima — recording the average residue after every
//!    action. Actions that have become illegal mid-sequence (constraints are
//!    rechecked against the evolving clustering) are skipped. With refreshed
//!    gains on the incremental engine the loop runs on one lane per
//!    thread: each lane holds a share of every cluster's index lines,
//!    posts those lines' share of every score, and every lane replays the
//!    scores in the serial order (see `lanes.rs`).
//! 4. If the best prefix of the action sequence beats the incumbent best
//!    clustering, replay that prefix onto the iteration's starting state and
//!    continue; otherwise terminate and return the incumbent.
//!
//! With the exact gain engine the per-iteration cost is `O((N+M) · k · n·m)`
//! where `n×m` is the typical cluster footprint — the complexity §4.2
//! derives — with bases produced from cached sufficient statistics rather
//! than recomputed from scratch. The incremental engine
//! ([`crate::gain_engine`]) drops each candidate evaluation to
//! `O((n+m)·log)` by querying per-line sorted residue indexes, rebuilt from
//! the canonical states at every iteration boundary.

use crate::action::{self, Action, EvaluatedAction, Target};
use crate::checkpoint::{FlocCheckpoint, ResumeError, CHECKPOINT_EVENT};
use crate::cluster::DeltaCluster;
use crate::config::FlocConfig;
use crate::gain_engine::IncrementalEngine;
use crate::history::{FlocResult, IterationTrace, StopReason};
use crate::lanes;
use crate::ordering;
use crate::seeding::{self, SeedError};
use crate::stats::{ClusterState, Scratch};
use dc_matrix::DataMatrix;
use dc_obs::{EventKind, Field, Obs};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Minimum improvement of the average residue for an iteration to count as
/// progress. Guards against infinite loops driven by floating-point noise.
const IMPROVEMENT_EPS: f64 = 1e-9;

/// Errors a FLOC run can produce.
#[derive(Debug)]
pub enum FlocError {
    /// Phase-1 seeding failed.
    Seed(SeedError),
    /// The matrix has no specified entries to cluster.
    EmptyMatrix,
    /// A checkpoint could not be resumed (wrong matrix, changed config, or
    /// internally inconsistent state).
    Resume(ResumeError),
}

impl std::fmt::Display for FlocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlocError::Seed(e) => write!(f, "seeding failed: {e}"),
            FlocError::EmptyMatrix => write!(f, "matrix contains no specified entries"),
            FlocError::Resume(e) => write!(f, "cannot resume checkpoint: {e}"),
        }
    }
}

impl std::error::Error for FlocError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlocError::Seed(e) => Some(e),
            FlocError::EmptyMatrix => None,
            FlocError::Resume(e) => Some(e),
        }
    }
}

impl From<SeedError> for FlocError {
    fn from(e: SeedError) -> Self {
        FlocError::Seed(e)
    }
}

impl From<ResumeError> for FlocError {
    fn from(e: ResumeError) -> Self {
        FlocError::Resume(e)
    }
}

/// True if `action` must not be performed against `states`.
///
/// Three layers: (1) minimum-dimension guard against the degenerate
/// residue-0 clusters; (2) occupancy: when `alpha > 0`, an action may not
/// *increase* the number of occupancy violations (seeds may start
/// non-compliant — the non-worsening rule lets FLOC repair them while never
/// regressing a compliant cluster); (3) the user's §4.3 constraints.
pub(crate) fn blocked(
    matrix: &DataMatrix,
    states: &[ClusterState],
    action: Action,
    config: &FlocConfig,
) -> bool {
    let state = &states[action.cluster];
    match action.target {
        Target::Row(r) => {
            if state.rows.contains(r) && state.rows.len() <= config.min_rows {
                return true;
            }
        }
        Target::Col(c) => {
            if state.cols.contains(c) && state.cols.len() <= config.min_cols {
                return true;
            }
        }
    }
    if config.alpha > 0.0 {
        let before = state.occupancy_violations(config.alpha);
        let after = match action.target {
            Target::Row(r) => state.occupancy_violations_if_row_toggled(matrix, r, config.alpha),
            Target::Col(c) => state.occupancy_violations_if_col_toggled(matrix, c, config.alpha),
        };
        if after > before {
            return true;
        }
    }
    config
        .constraints
        .iter()
        .any(|c| !c.allows(matrix, states, action))
}

/// Evaluates the best action for every row and column against `states`.
///
/// Returns one [`EvaluatedAction`] per target, in row-major target order
/// (rows `0..M`, then columns `0..N`). A target whose `k` actions are all
/// blocked yields gain `−∞` and is skipped at application time.
///
/// With `engine` present, gains come from the incremental sorted-index
/// queries (the engine must have been built against `states`); otherwise
/// each candidate pays the exact rescan. Both paths share the blocking
/// logic and target order, so they choose among identical candidates.
fn evaluate_best_actions(
    matrix: &DataMatrix,
    states: &[ClusterState],
    residues: &[f64],
    config: &FlocConfig,
    engine: Option<&IncrementalEngine>,
) -> Vec<EvaluatedAction> {
    let m = matrix.rows();
    let n = matrix.cols();
    let targets: Vec<Target> = (0..m)
        .map(Target::Row)
        .chain((0..n).map(Target::Col))
        .collect();

    let eval_target = |target: Target, scratch: &mut Scratch| -> EvaluatedAction {
        let mut best = EvaluatedAction {
            action: Action { target, cluster: 0 },
            gain: f64::NEG_INFINITY,
        };
        // Read once, on the first cluster that can take the action, and
        // shared by every cluster's query.
        let mut line = None;
        for (c, state) in states.iter().enumerate() {
            let a = Action { target, cluster: c };
            if blocked(matrix, states, a, config) {
                continue;
            }
            let line = line.get_or_insert_with(|| target.line(matrix));
            let g = match engine {
                Some(eng) => residues[c] - eng.toggled_residue(c, target, line, state, scratch),
                None => action::gain(
                    matrix,
                    state,
                    residues[c],
                    target,
                    line,
                    config.mean,
                    scratch,
                ),
            };
            if g > best.gain {
                best = EvaluatedAction { action: a, gain: g };
            }
        }
        best
    };

    let threads = config.parallelism.threads;
    if threads <= 1 || targets.len() < 2 * threads {
        let mut scratch = Scratch::default();
        return targets
            .iter()
            .map(|&t| eval_target(t, &mut scratch))
            .collect();
    }

    // Parallel evaluation: targets are independent, states are read-only.
    let mut results = vec![
        EvaluatedAction {
            action: Action {
                target: Target::Row(0),
                cluster: 0
            },
            gain: f64::NEG_INFINITY
        };
        targets.len()
    ];
    // Round the chunk size up to a whole number of 64-target blocks so
    // each worker's row-targets span whole specification-mask words and
    // adjacent workers never split a cache line of the results vector.
    let chunk = targets.len().div_ceil(threads).next_multiple_of(64);
    std::thread::scope(|scope| {
        for (t_chunk, r_chunk) in targets.chunks(chunk).zip(results.chunks_mut(chunk)) {
            let eval_target = &eval_target;
            scope.spawn(move || {
                let mut scratch = Scratch::default();
                for (t, out) in t_chunk.iter().zip(r_chunk.iter_mut()) {
                    *out = eval_target(*t, &mut scratch);
                }
            });
        }
    });
    results
}

/// Runs FLOC on `matrix` with `config`, returning the best clustering found.
///
/// Deterministic for a fixed `config.seed`.
///
/// # Errors
/// Fails if seeding is infeasible or the matrix has no specified entries.
pub fn floc(matrix: &DataMatrix, config: &FlocConfig) -> Result<FlocResult, FlocError> {
    floc_with(matrix, config, &Obs::null())
}

/// Like [`floc`], streaming structured events to `obs` — the single
/// observation surface for the FLOC loop:
///
/// - `floc.seeding` (span): phase-1 duration and cluster count;
/// - `floc.iteration` (point): per completed iteration — average residue,
///   best-prefix position, actions performed/skipped, gain-engine
///   maintenance tallies, iteration latency, block-cache hits and misses;
/// - `floc.checkpoint` (point): after every improving iteration and at
///   termination, with the resumable [`FlocCheckpoint`] as the event's
///   attachment ([`FlocCheckpoint::from_event`] recovers it);
/// - `floc.done` (point): terminal summary including the stop reason.
///
/// Observation never changes the search: emission only *reads* state, so
/// any sink — including none — yields a bit-identical result and
/// checkpoint sequence for the same seed (property-tested).
///
/// # Errors
/// Fails if seeding is infeasible or the matrix has no specified entries.
pub fn floc_with(
    matrix: &DataMatrix,
    config: &FlocConfig,
    obs: &Obs,
) -> Result<FlocResult, FlocError> {
    floc_on(matrix, config, obs, available_cores())
}

/// Cores the process may run on, which caps the perform loop's lanes.
pub(crate) fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// [`floc_with`] with the lane cap `cores` given.
pub(crate) fn floc_on(
    matrix: &DataMatrix,
    config: &FlocConfig,
    obs: &Obs,
    cores: usize,
) -> Result<FlocResult, FlocError> {
    if matrix.specified_count() == 0 {
        return Err(FlocError::EmptyMatrix);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let seed_started = Instant::now();
    let seeds = seeding::seed_clusters(
        matrix.rows(),
        matrix.cols(),
        config.k,
        &config.seeding,
        config.min_rows,
        config.min_cols,
        &mut rng,
    )?;
    let best: Vec<ClusterState> = seeds.iter().map(|c| ClusterState::new(matrix, c)).collect();
    if obs.enabled() {
        obs.emit_full(
            EventKind::Span,
            "floc.seeding",
            &[
                Field::new(
                    "duration_nanos",
                    seed_started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                ),
                Field::new("k", config.k),
                Field::new("rows", matrix.rows()),
                Field::new("cols", matrix.cols()),
            ],
            None,
        );
    }
    Ok(run_loop(
        matrix,
        config,
        rng,
        best,
        0,
        Vec::new(),
        obs,
        cores,
    ))
}

/// Continues a checkpointed run on the same matrix, bit-identically: the
/// final clustering equals what the uninterrupted run would have produced.
/// Streams the same events as [`floc_with`] to `obs`, plus a `floc.resume`
/// point event recording where the run picked up.
///
/// `config` must match the checkpoint's on every search-relevant field;
/// runtime plumbing (threads, time budget, interrupt wiring) may differ —
/// that is how a resumed run gets a fresh budget and a live ctrl-c handler.
/// Resuming a terminal checkpoint (converged / iteration cap) returns its
/// result immediately without further work.
///
/// # Errors
/// Fails with [`FlocError::Resume`] when the checkpoint does not belong to
/// `matrix`/`config` or is internally inconsistent.
pub fn floc_resume_with(
    matrix: &DataMatrix,
    checkpoint: &FlocCheckpoint,
    config: &FlocConfig,
    obs: &Obs,
) -> Result<FlocResult, FlocError> {
    resume_on(matrix, checkpoint, config, obs, available_cores())
}

/// [`floc_resume_with`] with the lane cap `cores` given.
fn resume_on(
    matrix: &DataMatrix,
    checkpoint: &FlocCheckpoint,
    config: &FlocConfig,
    obs: &Obs,
    cores: usize,
) -> Result<FlocResult, FlocError> {
    checkpoint.validate(matrix, config)?;
    if obs.enabled() {
        obs.emit(
            "floc.resume",
            &[
                Field::new("iterations", checkpoint.iterations),
                Field::new("avg_residue", checkpoint.avg_residue),
                Field::new("terminal", checkpoint.stop.is_some()),
            ],
        );
    }
    if let Some(reason) = checkpoint.stop {
        return Ok(FlocResult {
            clusters: checkpoint.clusters.clone(),
            residues: checkpoint.residues.clone(),
            avg_residue: checkpoint.avg_residue,
            iterations: checkpoint.iterations,
            elapsed: std::time::Duration::ZERO,
            trace: checkpoint.trace.clone(),
            stop_reason: reason,
        });
    }
    let rng = StdRng::from_state(checkpoint.rng_words());
    // Rebuild the incumbent states from their descriptors — the exact
    // construction the driver uses at every safe boundary, so the restored
    // sums are bit-identical to the in-memory ones at checkpoint time.
    let best: Vec<ClusterState> = checkpoint
        .clusters
        .iter()
        .map(|c| ClusterState::new(matrix, c))
        .collect();
    Ok(run_loop(
        matrix,
        config,
        rng,
        best,
        checkpoint.iterations,
        checkpoint.trace.clone(),
        obs,
        cores,
    ))
}

/// Builds the snapshot published as a `floc.checkpoint` event.
#[allow(clippy::too_many_arguments)]
fn snapshot(
    matrix: &DataMatrix,
    fingerprint: &mut Option<u64>,
    config: &FlocConfig,
    iterations: usize,
    rng_state: [u64; 4],
    best: &[ClusterState],
    residues: &[f64],
    avg: f64,
    trace: &[IterationTrace],
    stop: Option<StopReason>,
) -> FlocCheckpoint {
    FlocCheckpoint {
        config: config.clone(),
        matrix_rows: matrix.rows(),
        matrix_cols: matrix.cols(),
        matrix_specified: matrix.specified_count(),
        matrix_fingerprint: *fingerprint.get_or_insert_with(|| matrix.fingerprint()),
        iterations,
        rng_state: rng_state.to_vec(),
        clusters: best.iter().map(|s| s.to_cluster()).collect(),
        residues: residues.to_vec(),
        avg_residue: avg,
        trace: trace.to_vec(),
        stop,
    }
}

/// Emits one snapshot as a `floc.checkpoint` event whose attachment
/// [`FlocCheckpoint::from_event`] recovers.
fn publish_checkpoint(obs: &Obs, snap: &FlocCheckpoint) {
    obs.emit_full(
        EventKind::Point,
        CHECKPOINT_EVENT,
        &[
            Field::new("iterations", snap.iterations),
            Field::new("avg_residue", snap.avg_residue),
            Field::new("terminal", snap.stop.is_some()),
        ],
        Some(snap),
    );
}

/// The phase-2 improvement loop, shared by fresh and resumed runs.
///
/// `best` must be *canonical*: every state freshly built via
/// [`ClusterState::new`] from its descriptor. The loop re-canonicalizes
/// after each improving iteration so that the state a checkpoint sink
/// sees — and the state a resume rebuilds — is bit-identical to the state
/// the loop itself continues from. Residues and the incumbent average are
/// recomputed from the canonical states for the same reason.
///
/// The perform loop runs on [`lanes::lane_count`] line lanes, at most
/// `cores` of them.
#[allow(clippy::too_many_arguments)]
fn run_loop(
    matrix: &DataMatrix,
    config: &FlocConfig,
    mut rng: StdRng,
    mut best: Vec<ClusterState>,
    start_iterations: usize,
    mut trace: Vec<IterationTrace>,
    obs: &Obs,
    cores: usize,
) -> FlocResult {
    let start = Instant::now();
    // Only snapshots carry the fingerprint, and it reads every cell, so an
    // unobserved run never computes it.
    let mut fingerprint = None;
    // Cumulative gain-engine maintenance tallies across the whole run
    // (each iteration rebuilds the engine, resetting its own counters).
    let mut total_stale_rebuilds = 0u64;
    let mut total_repairs = 0u64;
    let mut scratch = Scratch::default();
    let mut best_residues: Vec<f64> = best
        .iter()
        .map(|s| s.residue(matrix, config.mean, &mut scratch))
        .collect();
    let mut best_avg = best_residues.iter().sum::<f64>() / config.k as f64;

    let mut iterations = start_iterations;
    let mut stop_reason = StopReason::MaxIterations;
    let out_of_time = |now: Instant| config.time_budget.is_some_and(|b| now - start >= b);
    let use_incremental = config.gain_engine.use_incremental(matrix);
    let lane_count = lanes::lane_count(matrix, config, cores);
    let stop = || {
        if config.interrupt.is_raised() {
            Some(StopReason::Interrupted)
        } else if out_of_time(Instant::now()) {
            Some(StopReason::Budget)
        } else {
            None
        }
    };

    'outer: while iterations < config.max_iterations {
        // Safe boundary: the incumbent state is canonical and no RNG has
        // been consumed for the next iteration yet.
        if let Some(reason) = stop() {
            stop_reason = reason;
            break;
        }
        let rng_at_start = rng.state();
        let iter_started = Instant::now();
        iterations += 1;

        // Per-phase wall-clock tallies (eval / rebuild / apply), emitted on
        // the `floc.iteration` event. Gated on observation being live so
        // the unobserved hot loop never pays the clock reads.
        let timing = obs.enabled();
        // Block-cache traffic over the iteration (all zero in memory).
        let io_at_start = timing.then(|| matrix.storage_backend().io_stats());

        // Drift guard: the incremental engine is rebuilt from the canonical
        // incumbent states every iteration, so index error cannot compound
        // across iterations and resumed runs reconstruct the same indexes.
        // The build fans out across clusters under the configured thread
        // budget; per-cluster indexes are independent, so the result is
        // bit-identical to a serial build.
        let t = timing.then(Instant::now);
        let engine = use_incremental.then(|| {
            IncrementalEngine::build_with_threads(
                matrix,
                &best,
                config.mean,
                config.parallelism.threads,
            )
        });
        let build_nanos = lanes::nanos_since(t);

        // 1. Choose the best action per target against the starting state.
        let t = timing.then(Instant::now);
        let mut actions =
            evaluate_best_actions(matrix, &best, &best_residues, config, engine.as_ref());

        // 2. Order them.
        ordering::order_actions(&mut actions, config.ordering, &mut rng);
        let decide_nanos = lanes::nanos_since(t);

        // 3. Perform sequentially on a working copy, tracking the best
        //    prefix by average residue.
        let lanes::Performed {
            states,
            performed,
            skipped,
            best_prefix_avg,
            best_prefix_len,
            counters: (iter_rebuilds, iter_repairs),
            lanes: lane_stats,
        } = match lanes::perform(
            matrix,
            config,
            &actions,
            best.clone(),
            best_residues.clone(),
            engine,
            lane_count,
            timing,
            &stop,
        ) {
            Ok(run) => run,
            Err(reason) => {
                // Aborted mid-iteration: discard the partial work and roll
                // the RNG back to the iteration's start, so the emitted
                // checkpoint replays this whole iteration on resume —
                // exactly what the uninterrupted run computed.
                stop_reason = reason;
                iterations -= 1;
                rng = StdRng::from_state(rng_at_start);
                break 'outer;
            }
        };

        let improved =
            best_prefix_avg < best_avg - IMPROVEMENT_EPS - config.min_improvement * best_avg.abs();
        trace.push(IterationTrace {
            iteration: iterations,
            best_prefix_avg,
            best_prefix_len,
            actions_performed: performed.len(),
            improved,
        });
        total_stale_rebuilds += iter_rebuilds;
        total_repairs += iter_repairs;

        // 4. Settle an improving iteration: replay the winning prefix onto
        //    the iteration's starting state (cheaper than snapshotting after
        //    every action: toggles are O(|I|+|J|) and the prefix is at most
        //    N+M actions), then rebuild the incumbent states from their
        //    descriptors so the sums have the same accumulation order a
        //    resume would reconstruct. Like the drift guard, this re-derives
        //    state from canonical descriptors, so it counts as rebuild.
        let incumbent_avg = best_avg;
        let t = timing.then(Instant::now);
        if improved {
            if best_prefix_len == performed.len() {
                best = states; // the full sequence was the best prefix
            } else {
                for &a in &performed[..best_prefix_len] {
                    action::apply(&mut best, a, &a.target.line(matrix));
                }
            }
            best = best
                .iter()
                .map(|s| ClusterState::new(matrix, &s.to_cluster()))
                .collect();
            for (c, state) in best.iter().enumerate() {
                best_residues[c] = state.residue(matrix, config.mean, &mut scratch);
            }
            best_avg = best_residues.iter().sum::<f64>() / config.k as f64;
        }
        let settle_nanos = lanes::nanos_since(t);

        // Lane 0's phases tile the iteration; its wait for the other
        // lanes' partials counts as eval.
        let lane0 = lane_stats[0];
        if let Some(io_at_start) = io_at_start {
            let io = matrix.storage_backend().io_stats();
            obs.emit(
                "floc.iteration",
                &[
                    Field::new("iteration", iterations),
                    Field::new(
                        "duration_nanos",
                        iter_started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                    ),
                    Field::new("avg_residue", best_prefix_avg),
                    Field::new("incumbent_avg", incumbent_avg),
                    Field::new("best_prefix_len", best_prefix_len),
                    Field::new("actions_performed", performed.len()),
                    Field::new("actions_skipped", skipped),
                    Field::new("improved", improved),
                    Field::new(
                        "engine",
                        if use_incremental {
                            "incremental"
                        } else {
                            "exact"
                        },
                    ),
                    Field::new("stale_rebuilds", iter_rebuilds),
                    Field::new("repairs", iter_repairs),
                    Field::new(
                        "eval_nanos",
                        decide_nanos + lane0.eval_nanos + lane0.wait_nanos,
                    ),
                    Field::new(
                        "rebuild_nanos",
                        build_nanos + lane0.rebuild_nanos + settle_nanos,
                    ),
                    Field::new("apply_nanos", lane0.apply_nanos),
                    Field::new("decide_nanos", decide_nanos),
                    Field::new("wait_nanos", lane0.wait_nanos),
                    Field::new("lanes", lane_stats.len()),
                    Field::new("block_hits", io.hits - io_at_start.hits),
                    Field::new("block_misses", io.misses - io_at_start.misses),
                ],
            );
            for (lane, st) in lane_stats.iter().enumerate() {
                obs.emit(
                    "floc.lane",
                    &[
                        Field::new("iteration", iterations),
                        Field::new("lane", lane),
                        Field::new("lines", st.lines),
                        Field::new("eval_nanos", st.eval_nanos),
                        Field::new("rebuild_nanos", st.rebuild_nanos),
                        Field::new("apply_nanos", st.apply_nanos),
                        Field::new("wait_nanos", st.wait_nanos),
                        Field::new("repairs", st.repairs),
                    ],
                );
            }
        }
        if !improved {
            stop_reason = StopReason::Converged;
            break;
        }

        if obs.enabled() {
            let snap = snapshot(
                matrix,
                &mut fingerprint,
                config,
                iterations,
                rng.state(),
                &best,
                &best_residues,
                best_avg,
                &trace,
                None,
            );
            publish_checkpoint(obs, &snap);
        }
    }

    if obs.enabled() {
        // Terminal snapshot. Converged / capped runs are marked done;
        // budget and interrupt stops stay resumable.
        let stop = match stop_reason {
            StopReason::Converged | StopReason::MaxIterations => Some(stop_reason),
            StopReason::Budget | StopReason::Interrupted => None,
        };
        let snap = snapshot(
            matrix,
            &mut fingerprint,
            config,
            iterations,
            rng.state(),
            &best,
            &best_residues,
            best_avg,
            &trace,
            stop,
        );
        publish_checkpoint(obs, &snap);
    }

    if obs.enabled() {
        let stop_str = stop_reason.to_string();
        obs.emit(
            "floc.done",
            &[
                Field::new("iterations", iterations),
                Field::new("avg_residue", best_avg),
                Field::new("stop_reason", stop_str.as_str()),
                Field::new(
                    "duration_nanos",
                    start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                ),
                Field::new("stale_rebuilds", total_stale_rebuilds),
                Field::new("repairs", total_repairs),
            ],
        );
    }

    let clusters: Vec<DeltaCluster> = best.iter().map(|s| s.to_cluster()).collect();
    FlocResult {
        clusters,
        residues: best_residues,
        avg_residue: best_avg,
        iterations,
        elapsed: start.elapsed(),
        trace,
        stop_reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointLog;
    use crate::constraints::Constraint;
    use crate::ordering::Ordering;
    use crate::residue::{cluster_residue, ResidueMean};
    use crate::seeding::Seeding;
    use rand::Rng;

    /// Builds a matrix with one perfect shifted block planted in noise.
    /// Rows 0..block_rows, cols 0..block_cols hold base pattern + row bias;
    /// the rest is uniform noise in [0, 100).
    #[allow(clippy::needless_range_loop)] // index drives both the block test and the pattern lookup
    fn planted(
        rows: usize,
        cols: usize,
        block_rows: usize,
        block_cols: usize,
        seed: u64,
    ) -> DataMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = DataMatrix::builder(rows, cols).build();
        let pattern: Vec<f64> = (0..block_cols).map(|_| rng.gen_range(0.0..20.0)).collect();
        for r in 0..rows {
            let bias: f64 = rng.gen_range(0.0..30.0);
            for c in 0..cols {
                if r < block_rows && c < block_cols {
                    m.set(r, c, pattern[c] + bias);
                } else {
                    m.set(r, c, rng.gen_range(0.0..100.0));
                }
            }
        }
        m
    }

    #[test]
    fn floc_recovers_a_planted_cluster() {
        // Single-restart FLOC is a randomized local search; following §5.1
        // (seed sensitivity) we take the best of a handful of restarts.
        let m = planted(30, 15, 10, 6, 7);
        // min_dims + Cons_v keep the search off the degenerate thin-cluster
        // attractor (see DESIGN.md §8) so it must engage the planted block.
        let config = FlocConfig::builder(1)
            .seeding(Seeding::TargetSize { rows: 8, cols: 5 })
            .min_dims(3, 3)
            .constraint(crate::constraints::Constraint::MinVolume { cells: 30 })
            .seed(0)
            .threads(4)
            .restarts(16)
            .build();
        let (result, _) = crate::parallel::floc_parallel(&m, &config, &Obs::null()).unwrap();
        // The planted block is perfectly coherent (residue 0); background
        // noise clusters sit around residue 14–20. The best restart must
        // land clearly on the coherent side and be dominated by planted
        // rows/columns (exact recovery is not guaranteed for a randomized
        // local search with k = 1 — the paper's own quality experiments use
        // k = 100 and report recall 0.86, not 1.0).
        assert!(
            result.avg_residue < 8.0,
            "avg residue {} too high; summary:\n{}",
            result.avg_residue,
            result.summary(&m)
        );
        let c = &result.clusters[0];
        let planted_rows = c.rows.iter().filter(|&r| r < 10).count();
        let planted_cols = c.cols.iter().filter(|&c| c < 6).count();
        assert!(
            planted_rows * 2 >= c.row_count(),
            "fewer than half the rows are planted: {c:?}"
        );
        assert!(
            planted_cols * 2 >= c.col_count(),
            "fewer than half the cols are planted: {c:?}"
        );
    }

    #[test]
    fn floc_is_deterministic_for_a_seed() {
        let m = planted(20, 10, 6, 4, 1);
        let config = FlocConfig::builder(2).seed(5).build();
        let a = floc(&m, &config).unwrap();
        let b = floc(&m, &config).unwrap();
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.residues, b.residues);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        let m = planted(40, 20, 12, 8, 9);
        let serial = floc(&m, &FlocConfig::builder(3).seed(11).threads(1).build()).unwrap();
        let parallel = floc(&m, &FlocConfig::builder(3).seed(11).threads(4).build()).unwrap();
        assert_eq!(serial.clusters, parallel.clusters);
        assert_eq!(serial.avg_residue, parallel.avg_residue);
    }

    #[test]
    fn result_residues_match_reference() {
        let m = planted(25, 12, 8, 5, 3);
        let config = FlocConfig::builder(2).seed(17).build();
        let r = floc(&m, &config).unwrap();
        for (c, &res) in r.clusters.iter().zip(&r.residues) {
            let oracle = cluster_residue(&m, c, ResidueMean::Arithmetic);
            assert!(
                (res - oracle).abs() < 1e-9,
                "residue {res} != oracle {oracle}"
            );
        }
        let avg = r.residues.iter().sum::<f64>() / r.residues.len() as f64;
        assert!((avg - r.avg_residue).abs() < 1e-9);
    }

    #[test]
    fn residue_never_increases_across_iterations() {
        let m = planted(30, 15, 10, 6, 21);
        let r = floc(&m, &FlocConfig::builder(2).seed(2).build()).unwrap();
        let mut prev = f64::INFINITY;
        for t in &r.trace {
            if t.improved {
                assert!(
                    t.best_prefix_avg < prev + 1e-12,
                    "iteration {} went backwards: {} after {}",
                    t.iteration,
                    t.best_prefix_avg,
                    prev
                );
                prev = t.best_prefix_avg;
            }
        }
        // The last trace entry must be the non-improving terminator, unless
        // max_iterations stopped the run first.
        if r.iterations < 60 {
            assert!(!r.trace.last().unwrap().improved);
        }
    }

    #[test]
    fn min_dims_are_respected() {
        let m = planted(15, 8, 5, 3, 13);
        let r = floc(&m, &FlocConfig::builder(3).seed(1).min_dims(3, 3).build()).unwrap();
        for c in &r.clusters {
            assert!(c.row_count() >= 3, "{c:?}");
            assert!(c.col_count() >= 3, "{c:?}");
        }
    }

    #[test]
    fn occupancy_is_not_worsened() {
        // A sparse matrix (~40% missing) with alpha = 0.5: the final
        // clusters must not have more violations than their seeds had.
        let mut rng = StdRng::seed_from_u64(99);
        let mut m = DataMatrix::builder(30, 12).build();
        for r in 0..30 {
            for c in 0..12 {
                if rng.gen_bool(0.6) {
                    m.set(r, c, rng.gen_range(0.0..10.0));
                }
            }
        }
        let config = FlocConfig::builder(2).alpha(0.5).seed(4).build();
        let r = floc(&m, &config).unwrap();
        // Non-worsening from random seeds in practice repairs to zero or
        // few violations; assert the mechanism at least produced clusters.
        for c in &r.clusters {
            assert!(c.row_count() >= 2 && c.col_count() >= 2);
        }
    }

    #[test]
    fn constraints_hold_in_final_result() {
        let m = planted(20, 10, 6, 4, 31);
        let config = FlocConfig::builder(2)
            .constraint(Constraint::MinVolume { cells: 6 })
            .seeding(Seeding::TargetSize { rows: 5, cols: 4 })
            .seed(8)
            .build();
        let r = floc(&m, &config).unwrap();
        for c in &r.clusters {
            assert!(c.volume(&m) >= 6, "volume constraint violated: {c:?}");
        }
    }

    #[test]
    fn empty_matrix_is_an_error() {
        let m = DataMatrix::builder(10, 10).build();
        let err = floc(&m, &FlocConfig::builder(1).build()).unwrap_err();
        assert!(matches!(err, FlocError::EmptyMatrix));
        assert!(err.to_string().contains("no specified entries"));
    }

    #[test]
    fn seeding_failure_propagates() {
        let m = DataMatrix::builder(1, 1).from_rows(vec![1.0]);
        let err = floc(&m, &FlocConfig::builder(1).build()).unwrap_err();
        assert!(matches!(err, FlocError::Seed(_)));
    }

    #[test]
    fn max_iterations_caps_the_run() {
        let m = planted(30, 15, 10, 6, 5);
        let r = floc(
            &m,
            &FlocConfig::builder(3).max_iterations(2).seed(6).build(),
        )
        .unwrap();
        assert!(r.iterations <= 2);
    }

    #[test]
    fn stop_reason_reflects_termination() {
        let m = planted(30, 15, 10, 6, 5);
        let converged = floc(&m, &FlocConfig::builder(2).seed(3).build()).unwrap();
        assert_eq!(converged.stop_reason, crate::history::StopReason::Converged);
        let capped = floc(
            &m,
            &FlocConfig::builder(2).max_iterations(1).seed(3).build(),
        )
        .unwrap();
        assert_eq!(
            capped.stop_reason,
            crate::history::StopReason::MaxIterations
        );
    }

    #[test]
    fn zero_budget_stops_before_the_first_iteration() {
        let m = planted(20, 10, 6, 4, 11);
        let config = FlocConfig::builder(2)
            .seed(1)
            .time_budget(std::time::Duration::ZERO)
            .build();
        let r = floc(&m, &config).unwrap();
        assert_eq!(r.stop_reason, crate::history::StopReason::Budget);
        assert_eq!(r.iterations, 0, "no iteration should have run");
        // Graceful degradation: the seed clustering is still returned.
        assert_eq!(r.clusters.len(), 2);
        assert!(r.avg_residue.is_finite());
    }

    #[test]
    fn raised_interrupt_stops_before_the_first_iteration() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let m = planted(20, 10, 6, 4, 11);
        let flag = Arc::new(AtomicBool::new(true));
        let config = FlocConfig::builder(2).seed(1).interrupt(flag).build();
        let r = floc(&m, &config).unwrap();
        assert_eq!(r.stop_reason, crate::history::StopReason::Interrupted);
        assert_eq!(r.iterations, 0);
    }

    /// Runs FLOC under a [`CheckpointLog`], returning the result and every
    /// published snapshot.
    fn floc_logged(m: &DataMatrix, config: &FlocConfig) -> (FlocResult, Vec<FlocCheckpoint>) {
        let log = CheckpointLog::new();
        let result = floc_with(m, config, &Obs::new(log.clone())).unwrap();
        (result, log.snapshots())
    }

    #[test]
    fn observer_does_not_change_the_result() {
        let m = planted(25, 12, 8, 5, 23);
        let config = FlocConfig::builder(2).seed(9).build();
        let plain = floc(&m, &config).unwrap();
        let (observed, snapshots) = floc_logged(&m, &config);
        assert_eq!(plain.clusters, observed.clusters);
        assert_eq!(plain.residues, observed.residues);
        assert_eq!(plain.iterations, observed.iterations);
        // One snapshot per improving iteration plus the terminal one.
        assert!(!snapshots.is_empty());
        let last = snapshots.last().unwrap();
        assert_eq!(last.stop, Some(plain.stop_reason));
        assert_eq!(last.clusters, plain.clusters);
        assert_eq!(last.avg_residue, plain.avg_residue);
    }

    #[test]
    fn resume_from_any_iteration_matches_uninterrupted() {
        let m = planted(30, 15, 10, 6, 41);
        let config = FlocConfig::builder(2).seed(13).build();
        let (reference, snapshots) = floc_logged(&m, &config);
        assert!(
            snapshots.len() >= 2,
            "need at least one intermediate snapshot"
        );
        for ckpt in &snapshots {
            let resumed = floc_resume_with(&m, ckpt, &config, &Obs::null()).unwrap();
            assert_eq!(
                resumed.clusters, reference.clusters,
                "at iter {}",
                ckpt.iterations
            );
            assert_eq!(resumed.residues, reference.residues);
            assert_eq!(resumed.avg_residue, reference.avg_residue);
            assert_eq!(resumed.iterations, reference.iterations);
            assert_eq!(resumed.stop_reason, reference.stop_reason);
            assert_eq!(resumed.trace, reference.trace);
        }
    }

    #[test]
    fn interrupted_run_resumes_to_the_uninterrupted_result() {
        use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
        use std::sync::Arc;

        /// Raises the interrupt flag on every checkpoint event.
        struct InterruptOnCheckpoint(Arc<AtomicBool>);
        impl dc_obs::Sink for InterruptOnCheckpoint {
            fn emit(&self, event: &dc_obs::Event<'_>) {
                if FlocCheckpoint::from_event(event).is_some() {
                    self.0.store(true, AtomicOrdering::SeqCst);
                }
            }
        }

        let m = planted(30, 15, 10, 6, 41);
        let base = FlocConfig::builder(2).seed(13).build();
        let reference = floc(&m, &base).unwrap();
        assert!(reference.iterations >= 2, "need a multi-iteration run");

        // Interrupt after the first completed iteration (raised from the
        // checkpoint event — fully deterministic, unlike a timer).
        let flag = Arc::new(AtomicBool::new(false));
        let mut interruptible = base.clone();
        interruptible.interrupt = crate::config::InterruptFlag::new(Arc::clone(&flag));
        let log = CheckpointLog::new();
        let obs = Obs::fanout(vec![
            Box::new(InterruptOnCheckpoint(flag)),
            Box::new(log.clone()),
        ]);
        let partial = floc_with(&m, &interruptible, &obs).unwrap();
        assert_eq!(partial.stop_reason, crate::history::StopReason::Interrupted);
        assert!(partial.iterations < reference.iterations);

        let ckpt = log.last().unwrap();
        assert_eq!(ckpt.stop, None, "interrupt checkpoints stay resumable");
        let resumed = floc_resume_with(&m, &ckpt, &base, &Obs::null()).unwrap();
        assert_eq!(resumed.clusters, reference.clusters);
        assert_eq!(resumed.residues, reference.residues);
        assert_eq!(resumed.avg_residue, reference.avg_residue);
        assert_eq!(resumed.iterations, reference.iterations);
        assert_eq!(resumed.trace, reference.trace);
    }

    #[test]
    fn tight_budget_checkpoint_resumes_to_the_uninterrupted_result() {
        // A budget small enough to fire mid-iteration on most machines;
        // whichever boundary it hits (iteration top or mid-action), the
        // emitted checkpoint must resume to the uninterrupted result.
        let m = planted(60, 30, 20, 10, 51);
        let base = FlocConfig::builder(3).seed(29).build();
        let reference = floc(&m, &base).unwrap();

        let mut budgeted = base.clone();
        budgeted.time_budget = Some(std::time::Duration::from_micros(500));
        let (partial, snapshots) = floc_logged(&m, &budgeted);
        let ckpt = snapshots.last().unwrap();
        if partial.stop_reason == crate::history::StopReason::Budget {
            assert_eq!(ckpt.stop, None, "budget checkpoints stay resumable");
        }
        let resumed = floc_resume_with(&m, ckpt, &base, &Obs::null()).unwrap();
        assert_eq!(resumed.clusters, reference.clusters);
        assert_eq!(resumed.avg_residue, reference.avg_residue);
        assert_eq!(resumed.iterations, reference.iterations);
    }

    #[test]
    fn resuming_a_terminal_checkpoint_returns_immediately() {
        let m = planted(25, 12, 8, 5, 3);
        let config = FlocConfig::builder(2).seed(17).build();
        let (reference, snapshots) = floc_logged(&m, &config);
        let terminal = snapshots.last().unwrap();
        assert_eq!(terminal.stop, Some(reference.stop_reason));
        let resumed = floc_resume_with(&m, terminal, &config, &Obs::null()).unwrap();
        assert_eq!(resumed.clusters, reference.clusters);
        assert_eq!(resumed.iterations, reference.iterations);
        assert_eq!(resumed.stop_reason, reference.stop_reason);
    }

    #[test]
    fn resume_rejects_a_different_matrix_or_config() {
        let m = planted(25, 12, 8, 5, 3);
        let config = FlocConfig::builder(2).seed(17).build();
        let (_, snapshots) = floc_logged(&m, &config);
        let ckpt = snapshots.last().unwrap();

        let other = planted(25, 12, 8, 5, 4);
        let err = floc_resume_with(&other, ckpt, &config, &Obs::null()).unwrap_err();
        assert!(matches!(
            err,
            FlocError::Resume(ResumeError::MatrixMismatch { .. })
        ));

        let other_cfg = FlocConfig::builder(2).seed(18).build();
        let err = floc_resume_with(&m, ckpt, &other_cfg, &Obs::null()).unwrap_err();
        assert!(matches!(
            err,
            FlocError::Resume(ResumeError::ConfigMismatch { field: "seed" })
        ));
        assert!(err.to_string().contains("seed"));
    }

    /// Runs FLOC on `lanes` line lanes (`threads = lanes`), lifting the
    /// core clamp so the lanes share cores when the machine has fewer.
    fn floc_lanes(m: &DataMatrix, config: &FlocConfig, lanes: usize, obs: &Obs) -> FlocResult {
        let mut cfg = config.clone();
        cfg.parallelism = crate::config::Parallelism::new(lanes, 1);
        floc_on(m, &cfg, obs, usize::MAX).unwrap()
    }

    fn assert_bit_identical(a: &FlocResult, b: &FlocResult, what: &str) {
        let bits = |r: &FlocResult| r.residues.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.clusters, b.clusters, "{what}");
        assert_eq!(bits(a), bits(b), "{what}");
        assert_eq!(a.avg_residue.to_bits(), b.avg_residue.to_bits(), "{what}");
        assert_eq!(a.iterations, b.iterations, "{what}");
        assert_eq!(a.trace, b.trace, "{what}");
    }

    #[test]
    fn lanes_match_the_serial_loop_bit_for_bit() {
        use crate::gain_engine::GainEngineKind;
        let m = planted(60, 24, 15, 8, 61);
        for engine in [GainEngineKind::Exact, GainEngineKind::Incremental] {
            for refresh in [true, false] {
                for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
                    for k in [3, 4] {
                        let config = FlocConfig::builder(k)
                            .seed(19)
                            .gain_engine(engine)
                            .refresh_gains(refresh)
                            .mean(mean)
                            .constraint(Constraint::MinVolume { cells: 8 })
                            .build();
                        let serial = floc_lanes(&m, &config, 1, &Obs::null());
                        for lanes in [2, 4] {
                            let sink = dc_obs::MemorySink::new();
                            let r = floc_lanes(&m, &config, lanes, &Obs::new(sink.clone()));
                            let what =
                                format!("{engine:?} refresh {refresh} {mean:?} k {k} x{lanes}");
                            assert_bit_identical(&r, &serial, &what);
                            // Only refreshed incremental gains run on lanes.
                            let on_lanes = engine == GainEngineKind::Incremental && refresh;
                            for e in sink.named("floc.iteration") {
                                let expect = if on_lanes { lanes } else { 1 } as u64;
                                assert_eq!(e.u64_field("lanes"), Some(expect), "{what}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every lane holds every cluster's state, so the constraints that read
    /// other clusters run on lanes too, bit for bit as on one.
    #[test]
    fn lanes_run_under_cross_cluster_constraints() {
        let m = planted(40, 20, 12, 8, 9);
        for constraint in [
            Constraint::MaxOverlap { fraction: 0.5 },
            Constraint::RowCoverage,
            Constraint::ColCoverage,
        ] {
            let config = FlocConfig::builder(3)
                .seed(4)
                .gain_engine(crate::gain_engine::GainEngineKind::Incremental)
                .constraint(constraint.clone())
                .build();
            let serial = floc_lanes(&m, &config, 1, &Obs::null());
            for lanes in [2, 3, 4] {
                let what = format!("{constraint:?} x{lanes}");
                let sink = dc_obs::MemorySink::new();
                let r = floc_lanes(&m, &config, lanes, &Obs::new(sink.clone()));
                assert_bit_identical(&r, &serial, &what);
                let iterations = sink.named("floc.iteration");
                assert!(!iterations.is_empty());
                for e in &iterations {
                    assert_eq!(e.u64_field("lanes"), Some(lanes as u64), "{what}");
                }
                assert_eq!(sink.named("floc.lane").len(), lanes * iterations.len());
            }
        }
    }

    #[test]
    fn lanes_fall_back_to_one_on_a_paged_matrix() {
        let m = planted(40, 20, 12, 8, 13);
        let dir = std::env::temp_dir().join(format!("dc-floc-lanes-paged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let values: Vec<f64> = (0..40 * 20)
            .map(|i| m.get(i / 20, i % 20).unwrap())
            .collect();
        let paged = DataMatrix::builder(40, 20)
            .paged(&dir)
            .chunk_rows(8)
            .cache_blocks(Some(2))
            .from_rows(values)
            .unwrap();
        let config = FlocConfig::builder(3)
            .seed(5)
            .gain_engine(crate::gain_engine::GainEngineKind::Incremental)
            .build();
        let serial = floc_lanes(&m, &config, 1, &Obs::null());
        let sink = dc_obs::MemorySink::new();
        let r = floc_lanes(&paged, &config, 3, &Obs::new(sink.clone()));
        assert_bit_identical(&r, &serial, "paged");
        for e in sink.named("floc.iteration") {
            assert_eq!(e.u64_field("lanes"), Some(1));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Each lane reports its share of every iteration: the lanes' held
    /// lines and line repairs add up to one lane's, the iteration's engine
    /// counters are one lane's, and lane 0's phases tile the iteration's.
    #[test]
    fn lanes_report_their_share_of_every_iteration() {
        let m = planted(60, 24, 15, 8, 7);
        let config = FlocConfig::builder(5)
            .seed(3)
            .gain_engine(crate::gain_engine::GainEngineKind::Incremental)
            .build();
        let one = dc_obs::MemorySink::new();
        floc_lanes(&m, &config, 1, &Obs::new(one.clone()));
        let sink = dc_obs::MemorySink::new();
        let r = floc_lanes(&m, &config, 2, &Obs::new(sink.clone()));
        let iterations = sink.named("floc.iteration");
        let lanes = sink.named("floc.lane");
        assert_eq!(iterations.len(), r.trace.len());
        assert_eq!(one.named("floc.iteration").len(), iterations.len());
        assert_eq!(lanes.len(), 2 * iterations.len());
        let one_lanes = one.named("floc.lane");
        for (it, one_it) in iterations.iter().zip(one.named("floc.iteration")) {
            let n = it.u64_field("iteration");
            let mine: Vec<_> = lanes
                .iter()
                .filter(|e| e.u64_field("iteration") == n)
                .collect();
            let ids: Vec<_> = mine.iter().map(|e| e.u64_field("lane").unwrap()).collect();
            assert_eq!(ids, vec![0, 1]);
            let field = |key| mine.iter().map(|e| e.u64_field(key).unwrap()).sum::<u64>();
            let serial = one_lanes
                .iter()
                .find(|e| e.u64_field("iteration") == n)
                .unwrap();
            for key in ["lines", "repairs"] {
                assert_eq!(Some(field(key)), serial.u64_field(key), "{key}");
            }
            assert!(mine.iter().all(|e| e.u64_field("lines").unwrap() > 0));
            for key in ["stale_rebuilds", "repairs"] {
                assert_eq!(it.u64_field(key), one_it.u64_field(key), "{key}");
            }
            let lane0 = mine[0];
            assert_eq!(it.u64_field("wait_nanos"), lane0.u64_field("wait_nanos"));
            let decide = it.u64_field("decide_nanos").unwrap();
            let eval = it.u64_field("eval_nanos").unwrap();
            assert_eq!(
                eval,
                decide
                    + lane0.u64_field("eval_nanos").unwrap()
                    + lane0.u64_field("wait_nanos").unwrap()
            );
            assert_eq!(it.u64_field("apply_nanos"), lane0.u64_field("apply_nanos"));
        }
    }

    /// A time budget that runs out mid-iteration on two lanes discards the
    /// partial iteration on every lane, and the checkpoint resumes — on two
    /// lanes or one — to the uninterrupted result.
    #[test]
    fn lanes_budget_abort_mid_iteration_resumes_bit_identically() {
        let m = planted(300, 40, 60, 12, 71);
        let base = FlocConfig::builder(4).seed(23).build();
        let reference = floc_lanes(&m, &base, 1, &Obs::null());
        let mut stopped = 0;
        for micros in [100u64, 300, 1_000, 3_000, 10_000, 30_000] {
            let mut budgeted = base.clone();
            budgeted.time_budget = Some(std::time::Duration::from_micros(micros));
            let log = CheckpointLog::new();
            let partial = floc_lanes(&m, &budgeted, 2, &Obs::new(log.clone()));
            let ckpt = log.last().unwrap();
            if partial.stop_reason == crate::history::StopReason::Budget {
                stopped += 1;
                assert_eq!(ckpt.stop, None, "budget checkpoints stay resumable");
            }
            for lanes in [1, 2] {
                let mut cfg = base.clone();
                cfg.parallelism = crate::config::Parallelism::new(lanes, 1);
                let resumed = resume_on(&m, &ckpt, &cfg, &Obs::null(), usize::MAX).unwrap();
                assert_bit_identical(&resumed, &reference, &format!("{micros} µs x{lanes}"));
            }
        }
        assert!(stopped > 0, "no budget fired before convergence");
    }

    #[test]
    fn all_orderings_produce_valid_results() {
        let m = planted(25, 12, 8, 5, 19);
        for ord in [Ordering::Fixed, Ordering::Random, Ordering::Weighted] {
            let r = floc(&m, &FlocConfig::builder(2).ordering(ord).seed(77).build()).unwrap();
            assert_eq!(r.clusters.len(), 2, "{ord:?}");
            assert!(r.avg_residue.is_finite(), "{ord:?}");
        }
    }
}

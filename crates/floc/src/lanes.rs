//! The phase-2 perform loop (§4.1), split into cluster lanes.
//!
//! FLOC performs the `N + M` ordered actions one after another. With
//! refreshed gains each action first re-decides its target against every
//! cluster, and the decision is the only step that needs all of them:
//! scoring a target against a cluster reads that cluster's state and
//! indexes alone, and performing the winner changes the winner's alone. So
//! the loop splits by cluster. Lane `l` of `L` owns clusters `l, l + L,
//! l + 2L, …` for the whole loop ([`owner`]), with their [`ClusterState`]s
//! and their [`IncrementalEngine`] indexes, and runs on a thread of its
//! own. For each action every lane
//!
//! 1. reads the target's line once ([`Target::line`]), prepares its
//!    clusters' indexes and scores the target against its own clusters,
//!    keeping the first best in cluster order;
//! 2. posts that partial `(cluster, gain, toggled residue)` to the
//!    [`Mailbox`] and reads every other lane's;
//! 3. merges the partials with [`merge`] (highest gain; equal gains go to
//!    the lower cluster id), which is exactly the serial scan's first
//!    maximum, so every lane agrees on the winner;
//! 4. performs the toggle if it owns the winner, from the same line.
//!
//! Each cluster's sorted indexes stay on one core for the whole loop,
//! which is what makes the split pay: an apply's in-place repairs touch
//! memory only its owner reads.
//!
//! Lane 0 keeps the books: the performed sequence, the average residue
//! after each action and the best prefix. The winning partial carries the
//! winner's new residue, so lane 0 needs nothing more from its owner. Lane
//! 0 alone polls the interrupt flag and the time budget; its abort mark
//! stops every lane at the same action.
//!
//! One lane is the serial loop: it owns every cluster and reads only its
//! own posts. It is also the only loop for the exact engine and for
//! pre-decided actions (`refresh_gains = false`); see [`lane_count`].
//! Lanes never change the search, only where it runs; the threads ×
//! engines × resume property suites pin that.

use crate::action::{self, Action, EvaluatedAction, Target};
use crate::algorithm::blocked;
use crate::config::FlocConfig;
use crate::constraints::Constraint;
use crate::gain_engine::IncrementalEngine;
use crate::history::StopReason;
use crate::stats::{ClusterState, Scratch};
use dc_matrix::{BackendKind, DataMatrix, Line};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Spins a waiting lane makes before it starts yielding its core.
const SPINS: u32 = 1 << 12;

/// Lanes the perform loop runs on `matrix`: one per thread of the run's
/// budget, but no more than there are clusters or `cores` (the cores this
/// run may keep busy), since a spinning lane without a core of its own
/// stalls every other lane.
///
/// One lane unless the loop re-decides every action on the incremental
/// engine, the only loop a benchmark workload measures on lanes. One when
/// a constraint reads clusters besides the one an action toggles, since
/// only a lane holding every state can check it. One on a paged matrix
/// too: every read passes through its block cache's one lock, and a miss
/// loads the block under it, so lanes would only queue there.
pub(crate) fn lane_count(matrix: &DataMatrix, config: &FlocConfig, cores: usize) -> usize {
    let refreshed_incremental = config.refresh_gains && config.gain_engine.use_incremental(matrix);
    let cross_cluster = config
        .constraints
        .iter()
        .any(Constraint::reads_other_clusters);
    if !refreshed_incremental || cross_cluster || matrix.backend() == BackendKind::Paged {
        return 1;
    }
    config.parallelism.threads.min(config.k).min(cores).max(1)
}

/// The lane that owns `cluster` among `lanes`, and the cluster's index in
/// that lane's own order: lane `l` owns clusters `l, l + lanes, …`.
fn owner(cluster: usize, lanes: usize) -> (usize, usize) {
    (cluster % lanes, cluster / lanes)
}

/// Deals `items`, one per cluster in cluster order, out to `lanes` lanes
/// by [`owner`].
fn deal<T>(items: Vec<T>, lanes: usize) -> Vec<Vec<T>> {
    let mut dealt: Vec<Vec<T>> = (0..lanes).map(|_| Vec::new()).collect();
    for (c, item) in items.into_iter().enumerate() {
        dealt[owner(c, lanes).0].push(item);
    }
    dealt
}

/// Puts what [`deal`] dealt back into cluster order.
fn join<T>(dealt: Vec<Vec<T>>) -> Vec<T> {
    let lanes = dealt.len();
    let k = dealt.iter().map(Vec::len).sum();
    let mut parts: Vec<_> = dealt.into_iter().map(Vec::into_iter).collect();
    (0..k)
        .map(|c| parts[owner(c, lanes).0].next().expect("dealt by `deal`"))
        .collect()
}

/// One lane's best candidate for the current action.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Partial {
    /// Cluster id (global, not the lane's local index).
    cluster: usize,
    gain: f64,
    /// The cluster's residue after the toggle, when the gain query yields
    /// it (the incremental engine); NaN otherwise, which only happens on
    /// one lane.
    toggled: f64,
}

/// Merges the lanes' partials into the serial scan's first maximum: the
/// highest gain wins and equal gains go to the lower cluster id, whichever
/// lane scored them. A NaN gain never wins, and neither does `−∞` (the
/// serial scan starts from it and keeps only strictly greater gains).
/// `None` when every lane's candidates were blocked.
fn merge(partials: impl IntoIterator<Item = Option<Partial>>) -> Option<Partial> {
    let mut best: Option<Partial> = None;
    for p in partials.into_iter().flatten() {
        let wins = match best {
            None => p.gain > f64::NEG_INFINITY,
            Some(b) => p.gain > b.gain || (p.gain == b.gain && p.cluster < b.cluster),
        };
        if wins {
            best = Some(p);
        }
    }
    best
}

/// What a lane posts for one round.
#[derive(Debug, Clone, Copy)]
struct Post {
    partial: Option<Partial>,
    /// Lane 0 stops the loop at this round.
    abort: bool,
}

/// `Slot::cluster` for a post without a candidate, and for the abort mark.
const NO_CLUSTER: u64 = u64::MAX;
const ABORT: u64 = u64::MAX - 1;

/// One lane's post for one round, on a cache line of its own.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Slot {
    /// The round (action index + 1) whose post the other fields hold.
    /// Stored last with `Release`; a reader loads it with `Acquire` before
    /// reading the other fields, which are `Relaxed`.
    round: AtomicU64,
    cluster: AtomicU64,
    gain: AtomicU64,
    toggled: AtomicU64,
}

/// The lanes' exchange: two slots per lane, alternating by round parity.
/// A lane posts round `n + 1` only after reading every post of round `n`,
/// and every other lane posted round `n` only after reading all of round
/// `n − 1`, so no lane still reads the slot a post overwrites.
#[derive(Debug)]
struct Mailbox {
    slots: Vec<[Slot; 2]>,
    /// Raised by a lane that panics, so the others stop waiting for it.
    poisoned: AtomicBool,
}

impl Mailbox {
    fn new(lanes: usize) -> Self {
        Mailbox {
            slots: (0..lanes).map(|_| Default::default()).collect(),
            poisoned: AtomicBool::new(false),
        }
    }

    fn post(&self, lane: usize, round: u64, post: Post) {
        let slot = &self.slots[lane][(round % 2) as usize];
        let cluster = match post.partial {
            _ if post.abort => ABORT,
            Some(p) => p.cluster as u64,
            None => NO_CLUSTER,
        };
        let (gain, toggled) = post.partial.map_or((0.0, 0.0), |p| (p.gain, p.toggled));
        slot.cluster.store(cluster, Ordering::Relaxed);
        slot.gain.store(gain.to_bits(), Ordering::Relaxed);
        slot.toggled.store(toggled.to_bits(), Ordering::Relaxed);
        slot.round.store(round, Ordering::Release);
    }

    /// Waits for `lane`'s post of `round`: spins first, then yields the
    /// core, so lanes sharing one still make progress.
    fn read(&self, lane: usize, round: u64) -> Post {
        let slot = &self.slots[lane][(round % 2) as usize];
        let mut spins = 0;
        while slot.round.load(Ordering::Acquire) < round {
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                assert!(
                    !self.poisoned.load(Ordering::Relaxed),
                    "another FLOC lane panicked"
                );
                std::thread::yield_now();
            }
        }
        let cluster = slot.cluster.load(Ordering::Relaxed);
        let f = |a: &AtomicU64| f64::from_bits(a.load(Ordering::Relaxed));
        Post {
            partial: (cluster < ABORT).then(|| Partial {
                cluster: cluster as usize,
                gain: f(&slot.gain),
                toggled: f(&slot.toggled),
            }),
            abort: cluster == ABORT,
        }
    }
}

/// Raises the mailbox's poison flag if its lane unwinds.
struct PoisonOnPanic<'a>(&'a AtomicBool);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// One lane's time and work over one perform loop; `run_loop` reports it
/// on a `floc.lane` event. The four times tile the lane's loop, and are
/// zero unless observed.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneStats {
    /// Clusters the lane owns.
    pub clusters: usize,
    /// Reading each target's line and scoring it against its clusters
    /// (and, on lane 0, polling for a stop).
    pub eval_nanos: u64,
    /// Lazy index-side rebuilds ([`IncrementalEngine::prepare`]).
    pub rebuild_nanos: u64,
    /// Performing toggles and, on lane 0, keeping the books.
    pub apply_nanos: u64,
    /// Posting its partial and waiting for the other lanes' posts.
    pub wait_nanos: u64,
    /// In-place index repairs its applies made.
    pub repairs: u64,
}

/// Nanoseconds since `t`, or 0 when the loop is not timed.
pub(crate) fn nanos_since(t: Option<Instant>) -> u64 {
    t.map_or(0, |t| t.elapsed().as_nanos().min(u64::MAX as u128) as u64)
}

/// A lane's stopwatch: each lap charges the time since the previous lap to
/// one phase, so the phases tile the loop with no untimed gaps. Reads no
/// clock when the loop is not timed.
struct Clock(Option<Instant>);

impl Clock {
    fn lap(&mut self, phase: &mut u64) {
        if let Some(last) = self.0.as_mut() {
            let now = Instant::now();
            *phase += now.duration_since(*last).as_nanos().min(u64::MAX as u128) as u64;
            *last = now;
        }
    }
}

/// What every lane reads.
struct Ctx<'a> {
    matrix: &'a DataMatrix,
    config: &'a FlocConfig,
    actions: &'a [EvaluatedAction],
    lanes: usize,
    timing: bool,
}

/// Lane 0's books over the whole clustering.
struct Book {
    residues: Vec<f64>,
    performed: Vec<Action>,
    skipped: usize,
    best_prefix_avg: f64,
    best_prefix_len: usize,
}

impl Book {
    /// Records the new residue of the last performed action's cluster.
    fn fold(&mut self, cluster: usize, residue: f64) {
        self.residues[cluster] = residue;
        // Summing afresh (rather than `+= new − old`) keeps rounding error
        // from accumulating across a long action sequence.
        let avg = self.residues.iter().sum::<f64>() / self.residues.len() as f64;
        if avg < self.best_prefix_avg {
            self.best_prefix_avg = avg;
            self.best_prefix_len = self.performed.len();
        }
    }
}

/// A lane's clusters, in cluster order, and its share of the engine.
struct Lane {
    id: usize,
    /// The global ids of the lane's clusters, in the lane's order.
    clusters: Vec<usize>,
    states: Vec<ClusterState>,
    residues: Vec<f64>,
    engine: Option<IncrementalEngine>,
    scratch: Scratch,
    stats: LaneStats,
}

impl Lane {
    /// This lane's index of `cluster`, if it owns it.
    fn local(&self, ctx: &Ctx, cluster: usize) -> Option<usize> {
        let (lane, i) = owner(cluster, ctx.lanes);
        (lane == self.id).then_some(i)
    }

    /// Rebuilds the stale index sides that are due before the coming
    /// queries.
    fn prepare(&mut self, ctx: &Ctx) {
        if let Some(eng) = self.engine.as_mut() {
            eng.prepare(ctx.matrix, &self.states);
        }
    }

    /// Scores `target`, whose line is `line`, against this lane's clusters
    /// and keeps the first best, as the serial scan over every cluster
    /// would.
    fn score(&mut self, ctx: &Ctx, target: Target, line: &Line) -> Option<Partial> {
        let Lane {
            clusters,
            states,
            residues,
            engine,
            scratch,
            ..
        } = self;
        let mut best: Option<Partial> = None;
        let mut best_gain = f64::NEG_INFINITY;
        for (i, state) in states.iter().enumerate() {
            // Local indexes are safe here: the lane holds every cluster a
            // constraint may read (see `lane_count`).
            if blocked(
                ctx.matrix,
                states,
                Action { target, cluster: i },
                ctx.config,
            ) {
                continue;
            }
            let (gain, toggled) = match engine.as_ref() {
                Some(eng) => {
                    let tr = eng.toggled_residue(i, target, line, state, ctx.matrix, scratch);
                    (residues[i] - tr, tr)
                }
                None => {
                    let (m, mean) = (ctx.matrix, ctx.config.mean);
                    let g = action::gain(m, state, residues[i], target, line, mean, scratch);
                    (g, f64::NAN)
                }
            };
            if gain > best_gain {
                best_gain = gain;
                best = Some(Partial {
                    cluster: clusters[i],
                    gain,
                    toggled,
                });
            }
        }
        best
    }

    /// This lane's candidate for a pre-decided action: the action itself if
    /// the lane owns its cluster and it is still allowed.
    fn pre_decided(&self, ctx: &Ctx, ea: &EvaluatedAction) -> Option<Partial> {
        let i = self.local(ctx, ea.action.cluster)?;
        let local = Action {
            target: ea.action.target,
            cluster: i,
        };
        (ea.gain != f64::NEG_INFINITY && !blocked(ctx.matrix, &self.states, local, ctx.config))
            .then_some(Partial {
                cluster: ea.action.cluster,
                gain: ea.gain,
                toggled: f64::NAN,
            })
    }

    /// Performs the toggle `act` on its local cluster `i` and returns the
    /// cluster's new residue. `toggled` is the winner's queried residue
    /// when refreshed gains produced it; `line` is the target's line.
    fn apply(&mut self, ctx: &Ctx, i: usize, act: Action, toggled: f64, line: &Line) -> f64 {
        let local = Action {
            target: act.target,
            cluster: i,
        };
        let Lane {
            states,
            residues,
            engine,
            scratch,
            ..
        } = self;
        let new_res = match engine.as_mut() {
            Some(eng) => {
                let tr = if ctx.config.refresh_gains {
                    toggled
                } else {
                    // The pre-decided gain is stale; query the residue the
                    // toggle actually produces against the current state.
                    eng.toggled_residue(i, act.target, line, &states[i], ctx.matrix, scratch)
                };
                // Repair the indexes from the pre-toggle state, then toggle.
                eng.apply(line, &states[i], local);
                action::apply(states, local, line);
                tr
            }
            None => {
                action::apply(states, local, line);
                states[i].residue(ctx.matrix, ctx.config.mean, scratch)
            }
        };
        residues[i] = new_res;
        new_res
    }

    /// Runs the whole action sequence. Lane 0 gets the books and the stop
    /// poll, and returns the reason it stopped early, if it did.
    fn run(
        &mut self,
        ctx: &Ctx,
        mailbox: &Mailbox,
        mut book: Option<&mut Book>,
        stop: Option<&dyn Fn() -> Option<StopReason>>,
    ) -> Option<StopReason> {
        let refresh = ctx.config.refresh_gains;
        let mut clock = Clock(ctx.timing.then(Instant::now));
        for (n, ea) in ctx.actions.iter().enumerate() {
            let round = n as u64 + 1;
            if let Some(reason) = stop.and_then(|poll| poll()) {
                let abort = Post {
                    partial: None,
                    abort: true,
                };
                mailbox.post(self.id, round, abort);
                return Some(reason);
            }
            let target = ea.action.target;
            // The target's line, read once for the scoring and the apply.
            let mut line = None;
            let partial = if refresh {
                // Re-decide this target's best action against the *current*
                // clustering (§4.1: "examined sequentially … decided and
                // performed"). Negative best gains are still performed.
                let line = line.insert(target.line(ctx.matrix));
                clock.lap(&mut self.stats.eval_nanos);
                self.prepare(ctx);
                clock.lap(&mut self.stats.rebuild_nanos);
                self.score(ctx, target, line)
            } else {
                self.pre_decided(ctx, ea)
            };
            clock.lap(&mut self.stats.eval_nanos);
            let post = Post {
                partial,
                abort: false,
            };
            mailbox.post(self.id, round, post);

            let mut winner = None;
            for lane in 0..ctx.lanes {
                let post = mailbox.read(lane, round);
                if post.abort {
                    return None;
                }
                winner = merge([winner, post.partial]);
            }
            clock.lap(&mut self.stats.wait_nanos);

            if winner.is_some() && !refresh {
                // Every cluster prepares before a pre-decided action's
                // query, as the serial loop always did.
                self.prepare(ctx);
                clock.lap(&mut self.stats.rebuild_nanos);
            }
            let applied = winner.and_then(|w| {
                let i = self.local(ctx, w.cluster)?;
                let act = Action {
                    target,
                    cluster: w.cluster,
                };
                let line = line.get_or_insert_with(|| target.line(ctx.matrix));
                Some(self.apply(ctx, i, act, w.toggled, line))
            });
            if let Some(book) = book.as_deref_mut() {
                match winner {
                    None => book.skipped += 1,
                    Some(w) => {
                        book.performed.push(Action {
                            target,
                            cluster: w.cluster,
                        });
                        // Another lane's winner comes from a refreshed
                        // incremental query, which yields its new residue.
                        book.fold(w.cluster, applied.unwrap_or(w.toggled));
                    }
                }
            }
            clock.lap(&mut self.stats.apply_nanos);
        }
        None
    }
}

/// The perform loop's result, in cluster order.
pub(crate) struct Performed {
    pub states: Vec<ClusterState>,
    pub performed: Vec<Action>,
    pub skipped: usize,
    pub best_prefix_avg: f64,
    pub best_prefix_len: usize,
    /// The engine with every lane's part collected back, counters summed.
    pub engine: Option<IncrementalEngine>,
    pub lanes: Vec<LaneStats>,
}

/// Performs `actions` in order on `states` (whose residues are
/// `residues`) across `lanes` cluster lanes, tracking the best prefix by
/// average residue. `engine`, when present, must be built against
/// `states`; more than one lane needs it and refreshed gains (see
/// [`lane_count`]). Lane 0 runs on the calling thread and calls `stop`
/// before every action; `Err` carries the reason it stopped the loop,
/// whose partial work is then discarded.
#[allow(clippy::too_many_arguments)]
pub(crate) fn perform(
    matrix: &DataMatrix,
    config: &FlocConfig,
    actions: &[EvaluatedAction],
    states: Vec<ClusterState>,
    residues: Vec<f64>,
    engine: Option<IncrementalEngine>,
    lanes: usize,
    timing: bool,
    stop: &dyn Fn() -> Option<StopReason>,
) -> Result<Performed, StopReason> {
    let k = states.len();
    let lanes = lanes.clamp(1, k.max(1));
    assert!(
        lanes == 1 || (config.refresh_gains && engine.is_some()),
        "only refreshed incremental gains run on several lanes"
    );
    let (indexes, layout, counters) = match engine {
        Some(engine) => {
            let (indexes, layout, counters) = engine.into_parts();
            (deal(indexes, lanes), Some(layout), counters)
        }
        None => ((0..lanes).map(|_| Vec::new()).collect(), None, (0, 0, 0)),
    };
    let mut dealt: Vec<Lane> = deal((0..k).collect(), lanes)
        .into_iter()
        .zip(deal(states, lanes))
        .zip(deal(residues.clone(), lanes))
        .zip(indexes)
        .enumerate()
        .map(|(id, (((clusters, states), residues), indexes))| Lane {
            id,
            clusters,
            states,
            residues,
            engine: layout.map(|layout| IncrementalEngine::from_parts(indexes, layout, (0, 0, 0))),
            scratch: Scratch::default(),
            stats: LaneStats::default(),
        })
        .collect();
    let mut book = Book {
        residues,
        performed: Vec::with_capacity(actions.len()),
        skipped: 0,
        best_prefix_avg: f64::INFINITY,
        best_prefix_len: 0,
    };

    let ctx = &Ctx {
        matrix,
        config,
        actions,
        lanes,
        timing,
    };
    let mailbox = &Mailbox::new(lanes);
    let (first, rest) = dealt.split_first_mut().expect("at least one lane");
    let stopped = std::thread::scope(|scope| {
        for lane in rest {
            scope.spawn(move || {
                let _poison = PoisonOnPanic(&mailbox.poisoned);
                lane.run(ctx, mailbox, None, None)
            });
        }
        let _poison = PoisonOnPanic(&mailbox.poisoned);
        first.run(ctx, mailbox, Some(&mut book), Some(stop))
    });
    if let Some(reason) = stopped {
        return Err(reason);
    }

    let mut stats = Vec::with_capacity(lanes);
    let mut states = Vec::with_capacity(lanes);
    let mut indexes = Vec::with_capacity(lanes);
    let (mut rebuilds, mut repairs, mut scans) = counters;
    for lane in dealt {
        let mut lane_repairs = 0;
        if let Some(engine) = lane.engine {
            let (lane_indexes, _, (r, p, s)) = engine.into_parts();
            (rebuilds, repairs, scans) = (rebuilds + r, repairs + p, scans + s);
            lane_repairs = p;
            indexes.push(lane_indexes);
        }
        stats.push(LaneStats {
            clusters: lane.clusters.len(),
            repairs: lane_repairs,
            ..lane.stats
        });
        states.push(lane.states);
    }
    Ok(Performed {
        states: join(states),
        performed: book.performed,
        skipped: book.skipped,
        best_prefix_avg: book.best_prefix_avg,
        best_prefix_len: book.best_prefix_len,
        engine: layout.map(|layout| {
            IncrementalEngine::from_parts(join(indexes), layout, (rebuilds, repairs, scans))
        }),
        lanes: stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::DeltaCluster;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    /// A random 40×16 matrix, four overlapping clusters on it with their
    /// residues and engine, and one refreshed action per target.
    fn setup(mean: crate::residue::ResidueMean) -> (DataMatrix, FlocConfig, Vec<EvaluatedAction>) {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = DataMatrix::builder(40, 16).build();
        for r in 0..40 {
            for c in 0..16 {
                if rng.gen_bool(0.9) {
                    m.set(r, c, rng.gen_range(0.0..50.0));
                }
            }
        }
        let config = FlocConfig::builder(4).mean(mean).build();
        let actions = (0..40)
            .map(Target::Row)
            .chain((0..16).map(Target::Col))
            .map(|target| EvaluatedAction {
                action: Action { target, cluster: 0 },
                gain: 0.0,
            })
            .collect();
        (m, config, actions)
    }

    fn run(
        m: &DataMatrix,
        config: &FlocConfig,
        actions: &[EvaluatedAction],
        lanes: usize,
        stop: &dyn Fn() -> Option<StopReason>,
    ) -> Result<Performed, StopReason> {
        let states: Vec<ClusterState> = (0..4)
            .map(|c| {
                ClusterState::new(
                    m,
                    &DeltaCluster::from_indices(40, 16, c * 8..c * 8 + 12, c..c + 6),
                )
            })
            .collect();
        let mut scratch = Scratch::default();
        let residues = states
            .iter()
            .map(|s| s.residue(m, config.mean, &mut scratch))
            .collect();
        let engine = IncrementalEngine::build(m, &states, config.mean);
        perform(
            m,
            config,
            actions,
            states,
            residues,
            Some(engine),
            lanes,
            true,
            stop,
        )
    }

    /// Lane 0's abort mark stops every lane at the same action, wherever it
    /// falls (no lane is left waiting), and a loop that runs through agrees
    /// with one lane on everything it returns.
    #[test]
    fn lanes_stop_together_and_agree_with_one_lane() {
        for mean in [
            crate::residue::ResidueMean::Arithmetic,
            crate::residue::ResidueMean::Squared,
        ] {
            let (m, config, actions) = setup(mean);
            let serial = run(&m, &config, &actions, 1, &|| None).unwrap();
            for lanes in [1, 2, 3, 4] {
                for abort_at in [0, 1, 17, actions.len() - 1] {
                    let polls = Cell::new(0);
                    let stop = || {
                        polls.set(polls.get() + 1);
                        (polls.get() > abort_at).then_some(StopReason::Budget)
                    };
                    let stopped = run(&m, &config, &actions, lanes, &stop);
                    assert!(
                        matches!(stopped, Err(StopReason::Budget)),
                        "x{lanes} at {abort_at}"
                    );
                    assert_eq!(polls.get(), abort_at + 1, "lane 0 polls once per action");
                }
                let r = run(&m, &config, &actions, lanes, &|| None).unwrap();
                let clusters =
                    |p: &Performed| p.states.iter().map(|s| s.to_cluster()).collect::<Vec<_>>();
                assert_eq!(clusters(&r), clusters(&serial), "x{lanes}");
                assert_eq!(r.performed, serial.performed);
                assert_eq!(r.skipped, serial.skipped);
                assert_eq!(r.best_prefix_len, serial.best_prefix_len);
                assert_eq!(
                    r.best_prefix_avg.to_bits(),
                    serial.best_prefix_avg.to_bits()
                );
                let counters = |p: &Performed| p.engine.as_ref().unwrap().counters();
                assert_eq!(counters(&r), counters(&serial), "x{lanes}");
                assert_eq!(r.lanes.len(), lanes);
                assert_eq!(r.lanes.iter().map(|l| l.clusters).sum::<usize>(), 4);
            }
        }
    }

    /// Lane `l` gets clusters `l, l + L, …` in order, and `join` undoes
    /// `deal` for every lane count, including more lanes than clusters.
    #[test]
    fn lanes_deal_clusters_round_robin_and_join_them_back() {
        assert_eq!(
            deal((0..7).collect(), 3),
            vec![vec![0, 3, 6], vec![1, 4], vec![2, 5]]
        );
        for k in 0..9 {
            for lanes in 1..6 {
                let dealt = deal((0..k).collect::<Vec<usize>>(), lanes);
                for (l, part) in dealt.iter().enumerate() {
                    for (i, &c) in part.iter().enumerate() {
                        assert_eq!(owner(c, lanes), (l, i));
                    }
                }
                assert_eq!(join(dealt), (0..k).collect::<Vec<_>>());
            }
        }
    }

    fn p(cluster: usize, gain: f64) -> Option<Partial> {
        Some(Partial {
            cluster,
            gain,
            toggled: 0.0,
        })
    }

    #[test]
    fn lanes_merge_takes_the_serial_first_maximum() {
        // Equal gains go to the lower cluster id, in either lane order.
        assert_eq!(merge([p(3, 2.0), p(1, 2.0)]).unwrap().cluster, 1);
        assert_eq!(merge([p(1, 2.0), p(3, 2.0)]).unwrap().cluster, 1);
        assert_eq!(merge([p(4, 1.0), p(2, 0.5), p(7, 1.5)]).unwrap().cluster, 7);
        // Negative best gains are still performed.
        assert_eq!(merge([None, p(5, -3.0), p(6, -4.0)]).unwrap().cluster, 5);
        // An all-blocked target is skipped.
        assert_eq!(merge([None, None]), None);
        assert_eq!(merge(std::iter::empty()), None);
        // A NaN gain never wins, wherever it sits; neither does −∞.
        assert_eq!(merge([p(0, f64::NAN), p(2, -1.0)]).unwrap().cluster, 2);
        assert_eq!(merge([p(2, -1.0), p(0, f64::NAN)]).unwrap().cluster, 2);
        assert_eq!(merge([p(0, f64::NAN)]), None);
        assert_eq!(merge([p(0, f64::NEG_INFINITY)]), None);
    }
}

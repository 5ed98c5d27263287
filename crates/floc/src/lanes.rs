//! The phase-2 perform loop (§4.1), split into line lanes.
//!
//! FLOC performs the `N + M` ordered actions one after another. With
//! refreshed gains each action first re-decides its target against every
//! cluster, from the clusters' index lines ([`IncrementalEngine`]), then
//! performs the winner. So the loop splits by line, not by cluster: every
//! lane holds a replica of every [`ClusterState`], and of a *shared*
//! cluster (one with enough member lines) the lane `l` of `L` holds the
//! member lines whose rank `r` among the members has
//! [`line_owner`]`(r, L) = l` — column lines on a tall matrix, row lines
//! on a wide one. One large cluster's queries, repairs and rebuilds then
//! split evenly over every lane, however the cluster sizes fall. A small
//! cluster is held whole by lane [`cluster_owner`]. For each action every
//! lane
//!
//! 1. reads the target's line once ([`Target::line`]) and rebuilds its
//!    own lines of the stale clusters;
//! 2. for each shared cluster computes the prelude
//!    ([`IncrementalEngine::prelude`]: the target's stats, the new volume
//!    and the bases, the same on every lane) and posts the terms of its
//!    own lines, in ascending line order, to the [`Mailbox`]; for each
//!    cluster it holds whole it posts the toggled residue;
//! 3. reads every other lane's post and replays each shared cluster's
//!    terms in line order ([`IncrementalEngine::replay`]), with exactly
//!    the additions one lane holding every line makes, so every toggled
//!    residue is bit-identical to the serial one, and keeps the serial
//!    first maximum, so every lane agrees on the winner;
//! 4. performs the winner's toggle on its replica, repairing only its own
//!    lines or marking only its own part stale.
//!
//! Lane 0 keeps the books: the performed sequence, the average residue
//! after each action and the best prefix. Lane 0 alone polls the interrupt
//! flag and the time budget; its abort mark stops every lane at the same
//! action.
//!
//! One lane is the serial loop: it holds every line, reads no posts, and
//! scores with [`IncrementalEngine::toggled_residue`], which is the same
//! prelude and replay. It is also the only loop for the exact engine, for
//! pre-decided actions (`refresh_gains = false`) and on a paged matrix;
//! see [`lane_count`]. Lanes never change the search, only where it runs;
//! the threads × engines × resume property suites pin that.

use crate::action::{self, Action, EvaluatedAction, Target};
use crate::algorithm::blocked;
use crate::config::FlocConfig;
use crate::gain_engine::{cluster_owner, line_owner, IncrementalEngine, Prelude, Term};
use crate::history::StopReason;
use crate::stats::{ClusterState, Scratch};
use dc_matrix::{BackendKind, DataMatrix, Line};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Instant;

/// Spins a waiting lane makes before it starts yielding its core.
const SPINS: u32 = 1 << 12;

/// Lanes the perform loop runs on `matrix`: one per thread of the run's
/// budget, but no more than `cores` (the cores this run may keep busy),
/// since a spinning lane without a core of its own stalls every other
/// lane.
///
/// One lane unless the loop re-decides every action on the incremental
/// engine, the only loop a benchmark workload measures on lanes. One on a
/// paged matrix too: every read passes through its block cache's one
/// lock, and a miss loads the block under it, so lanes would only queue
/// there.
pub(crate) fn lane_count(matrix: &DataMatrix, config: &FlocConfig, cores: usize) -> usize {
    let refreshed_incremental = config.refresh_gains && config.gain_engine.use_incremental(matrix);
    if !refreshed_incremental || matrix.backend() == BackendKind::Paged {
        return 1;
    }
    config.parallelism.threads.min(cores).max(1)
}

/// The action a lane's scan picked: the cluster, and its residue after
/// the toggle when the gain query yields it (the incremental engine; NaN
/// otherwise).
#[derive(Debug, Clone, Copy)]
struct Winner {
    cluster: usize,
    toggled: f64,
}

/// One post of the lanes' exchange, on a cache line of its own.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Slot {
    /// The round (action index + 1) whose post the other fields hold.
    /// Stored last with `Release`; a reader loads it with `Acquire` before
    /// reading the other fields.
    round: AtomicU64,
    /// Lane 0 stops the loop at this round.
    abort: AtomicBool,
    /// The poster's line terms ([`Term::post`]), cluster by cluster.
    terms: RwLock<Vec<f64>>,
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

    fn post(&self, lane: usize, round: u64, terms: &[f64], abort: bool) {
        let slot = &self.slots[lane][(round % 2) as usize];
        let mut posted = slot.terms.write().expect("a lane panicked reading a post");
        posted.clear();
        posted.extend_from_slice(terms);
        drop(posted);
        slot.abort.store(abort, Ordering::Relaxed);
        slot.round.store(round, Ordering::Release);
    }

    /// Waits for `lane`'s post of `round` and copies its terms into
    /// `terms`; `false` if it is the abort mark. Spins first, then yields
    /// the core, so lanes sharing one still make progress.
    fn read(&self, lane: usize, round: u64, terms: &mut Vec<f64>) -> bool {
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
        if slot.abort.load(Ordering::Relaxed) {
            return false;
        }
        terms.clear();
        terms.extend_from_slice(&slot.terms.read().expect("a lane panicked posting"));
        true
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
    /// The index lines of member lines the lane holds at loop start.
    pub lines: usize,
    /// Reading each target's line, scoring it (its preludes, its own
    /// lines' terms and the replay) and, on lane 0, polling for a stop.
    pub eval_nanos: u64,
    /// Rebuilding its lines of the sides along applies invalidated
    /// ([`IncrementalEngine::prepare`]).
    pub rebuild_nanos: u64,
    /// Performing toggles and, on lane 0, keeping the books.
    pub apply_nanos: u64,
    /// Posting its terms and waiting for the other lanes' posts.
    pub wait_nanos: u64,
    /// Entries its applies inserted into or removed from its lines.
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
    /// [`line_owner`] of every member-line rank, looked up once per
    /// replayed term.
    owners: Vec<u32>,
    timing: bool,
}

/// Lane 0's books over the whole clustering.
struct Book {
    performed: Vec<Action>,
    skipped: usize,
    best_prefix_avg: f64,
    best_prefix_len: usize,
}

impl Book {
    /// Records the residues after the last performed action.
    fn fold(&mut self, residues: &[f64]) {
        // Summing afresh (rather than `+= new − old`) keeps rounding error
        // from accumulating across a long action sequence.
        let avg = residues.iter().sum::<f64>() / residues.len() as f64;
        if avg < self.best_prefix_avg {
            self.best_prefix_avg = avg;
            self.best_prefix_len = self.performed.len();
        }
    }
}

/// How a lane's scan meets one cluster for the current action.
#[derive(Debug, Clone, Copy)]
enum Candidate {
    /// The action is blocked.
    Blocked,
    /// The toggle empties the cluster: residue 0.
    Empty,
    /// Its residue is the replay of this prelude's terms.
    Query(Prelude),
    /// One lane holds the cluster whole and posts its toggled residue,
    /// NaN when the action is blocked (a NaN gain never wins, just as a
    /// blocked action is never taken).
    Whole,
}

/// A lane: a replica of every cluster and its share of the engine.
struct Lane {
    id: usize,
    states: Vec<ClusterState>,
    residues: Vec<f64>,
    engine: Option<IncrementalEngine>,
    scratch: Scratch,
    /// Every cluster's candidate for the current action.
    candidates: Vec<Candidate>,
    /// Each lane's terms for the current action: this lane's own, and
    /// copies of the others' posts.
    posts: Vec<Vec<f64>>,
    /// Read positions in `posts`, one per lane.
    cursors: Vec<usize>,
    stats: LaneStats,
}

impl Lane {
    /// Rebuilds this lane's lines of the stale index sides, so the coming
    /// queries all answer from sides in step with their clusters.
    fn prepare(&mut self, ctx: &Ctx) {
        if let Some(eng) = self.engine.as_mut() {
            eng.prepare(ctx.matrix, &self.states);
        }
    }

    /// Scores `target`, whose line is `line`, against every cluster and
    /// keeps the first best, as one lane holding every line.
    fn score(&mut self, ctx: &Ctx, target: Target, line: &Line) -> Option<Winner> {
        let Lane {
            states,
            residues,
            engine,
            scratch,
            ..
        } = self;
        let mut best = None;
        let mut best_gain = f64::NEG_INFINITY;
        for (c, state) in states.iter().enumerate() {
            if blocked(
                ctx.matrix,
                states,
                Action { target, cluster: c },
                ctx.config,
            ) {
                continue;
            }
            let (gain, toggled) = match engine.as_ref() {
                Some(eng) => {
                    let tr = eng.toggled_residue(c, target, line, state, scratch);
                    (residues[c] - tr, tr)
                }
                None => {
                    let (m, mean) = (ctx.matrix, ctx.config.mean);
                    let g = action::gain(m, state, residues[c], target, line, mean, scratch);
                    (g, f64::NAN)
                }
            };
            if gain > best_gain {
                best_gain = gain;
                best = Some(Winner {
                    cluster: c,
                    toggled,
                });
            }
        }
        best
    }

    /// Computes every cluster's candidate for `target` and writes this
    /// lane's terms for them, cluster by cluster, to its own post.
    fn post_terms(&mut self, ctx: &Ctx, target: Target, line: &Line) {
        let eng = self
            .engine
            .as_ref()
            .expect("lanes run the incremental engine");
        let out = &mut self.posts[self.id];
        out.clear();
        self.candidates.clear();
        for (c, state) in self.states.iter().enumerate() {
            let blocked = || {
                blocked(
                    ctx.matrix,
                    &self.states,
                    Action { target, cluster: c },
                    ctx.config,
                )
            };
            let candidate = if !eng.shared(state) {
                if cluster_owner(c, ctx.lanes) == self.id {
                    out.push(if blocked() {
                        f64::NAN
                    } else {
                        eng.toggled_residue(c, target, line, state, &mut self.scratch)
                    });
                }
                Candidate::Whole
            } else if blocked() {
                Candidate::Blocked
            } else {
                match eng.prelude(c, target, line, state, &mut self.scratch) {
                    None => Candidate::Empty,
                    Some(p) => {
                        eng.post_terms(c, &p, line, state, &mut self.scratch, out);
                        Candidate::Query(p)
                    }
                }
            };
            self.candidates.push(candidate);
        }
    }

    /// Posts this lane's terms for `round` and copies every other lane's;
    /// `false` if lane 0 aborted the loop.
    fn exchange(&mut self, ctx: &Ctx, mailbox: &Mailbox, round: u64) -> bool {
        mailbox.post(self.id, round, &self.posts[self.id], false);
        (0..ctx.lanes)
            .filter(|&l| l != self.id)
            .all(|l| mailbox.read(l, round, &mut self.posts[l]))
    }

    /// Replays every cluster's terms from the lanes' posts and keeps the
    /// first best, exactly as [`Lane::score`] would with every line.
    fn replay(&mut self, ctx: &Ctx) -> Option<Winner> {
        let eng = self
            .engine
            .as_ref()
            .expect("lanes run the incremental engine");
        let (posts, cursors) = (&self.posts, &mut self.cursors);
        cursors.iter_mut().for_each(|at| *at = 0);
        let mut best = None;
        let mut best_gain = f64::NEG_INFINITY;
        for (c, candidate) in self.candidates.iter().enumerate() {
            let toggled = match candidate {
                Candidate::Blocked => continue,
                Candidate::Empty => 0.0,
                Candidate::Query(p) => eng.replay(p, &self.states[c], |rank, _| {
                    let l = ctx.owners[rank] as usize;
                    let at = cursors[l];
                    cursors[l] += p.stride();
                    Term::read(p, &posts[l][at..])
                }),
                Candidate::Whole => {
                    let l = cluster_owner(c, ctx.lanes);
                    cursors[l] += 1;
                    posts[l][cursors[l] - 1]
                }
            };
            let gain = self.residues[c] - toggled;
            if gain > best_gain {
                best_gain = gain;
                best = Some(Winner {
                    cluster: c,
                    toggled,
                });
            }
        }
        best
    }

    /// This lane's pick for a pre-decided action: the action itself if it
    /// is still allowed.
    fn pre_decided(&self, ctx: &Ctx, ea: &EvaluatedAction) -> Option<Winner> {
        (ea.gain != f64::NEG_INFINITY && !blocked(ctx.matrix, &self.states, ea.action, ctx.config))
            .then_some(Winner {
                cluster: ea.action.cluster,
                toggled: f64::NAN,
            })
    }

    /// Performs the toggle `act` and records the cluster's new residue.
    /// `toggled` is the winner's queried residue when refreshed gains
    /// produced it; `line` is the target's line.
    fn apply(&mut self, ctx: &Ctx, act: Action, toggled: f64, line: &Line) {
        let Lane {
            states,
            residues,
            engine,
            scratch,
            stats,
            ..
        } = self;
        let c = act.cluster;
        residues[c] = match engine.as_mut() {
            Some(eng) => {
                let tr = if ctx.config.refresh_gains {
                    toggled
                } else {
                    // The pre-decided gain is stale; query the residue the
                    // toggle actually produces against the current state.
                    eng.toggled_residue(c, act.target, line, &states[c], scratch)
                };
                // Repair the indexes from the pre-toggle state, then toggle.
                stats.repairs += eng.apply(line, &states[c], act) as u64;
                action::apply(states, act, line);
                tr
            }
            None => {
                action::apply(states, act, line);
                states[c].residue(ctx.matrix, ctx.config.mean, scratch)
            }
        };
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
                if ctx.lanes > 1 {
                    mailbox.post(self.id, round, &[], true);
                }
                return Some(reason);
            }
            let target = ea.action.target;
            // The target's line, read once for the scoring and the apply.
            let mut line = None;
            let winner = if refresh {
                // Re-decide this target's best action against the *current*
                // clustering (§4.1: "examined sequentially … decided and
                // performed"). Negative best gains are still performed.
                let line = line.insert(target.line(ctx.matrix));
                clock.lap(&mut self.stats.eval_nanos);
                self.prepare(ctx);
                clock.lap(&mut self.stats.rebuild_nanos);
                if ctx.lanes == 1 {
                    self.score(ctx, target, line)
                } else {
                    self.post_terms(ctx, target, line);
                    clock.lap(&mut self.stats.eval_nanos);
                    if !self.exchange(ctx, mailbox, round) {
                        return None;
                    }
                    clock.lap(&mut self.stats.wait_nanos);
                    self.replay(ctx)
                }
            } else {
                self.pre_decided(ctx, ea)
            };
            clock.lap(&mut self.stats.eval_nanos);

            if winner.is_some() && !refresh {
                // Every cluster prepares before a pre-decided action's
                // query, as the serial loop always did.
                self.prepare(ctx);
                clock.lap(&mut self.stats.rebuild_nanos);
            }
            match winner {
                None => {
                    if let Some(book) = book.as_deref_mut() {
                        book.skipped += 1;
                    }
                }
                Some(w) => {
                    let act = Action {
                        target,
                        cluster: w.cluster,
                    };
                    let line = line.get_or_insert_with(|| target.line(ctx.matrix));
                    self.apply(ctx, act, w.toggled, line);
                    if let Some(book) = book.as_deref_mut() {
                        book.performed.push(act);
                        book.fold(&self.residues);
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
    /// The engine's [`IncrementalEngine::counters`] after the loop, each
    /// cluster event counted once; zero without an engine.
    pub counters: (u64, u64),
    pub lanes: Vec<LaneStats>,
}

/// Performs `actions` in order on `states` (whose residues are
/// `residues`) across `lanes` line lanes, tracking the best prefix by
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
    let lanes = lanes.max(1);
    assert!(
        lanes == 1 || (config.refresh_gains && engine.is_some()),
        "only refreshed incremental gains run on several lanes"
    );
    let lines = engine.as_ref().map_or(0, |e| e.line_count());
    let engines: Vec<Option<IncrementalEngine>> = match engine {
        Some(engine) => engine.split(&states, lanes).into_iter().map(Some).collect(),
        None => vec![None],
    };
    let k = states.len();
    let mut all: Vec<Lane> = engines
        .into_iter()
        .zip(vec![states; lanes])
        .enumerate()
        .map(|(id, (engine, states))| Lane {
            id,
            stats: LaneStats {
                lines: engine.as_ref().map_or(0, |e| e.held_lines(&states)),
                ..LaneStats::default()
            },
            states,
            residues: residues.clone(),
            engine,
            scratch: Scratch::default(),
            candidates: Vec::with_capacity(k),
            posts: vec![Vec::new(); lanes],
            cursors: vec![0; lanes],
        })
        .collect();
    let mut book = Book {
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
        owners: (0..lines).map(|j| line_owner(j, lanes) as u32).collect(),
        timing,
    };
    let mailbox = &Mailbox::new(lanes);
    let (first, rest) = all.split_first_mut().expect("at least one lane");
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

    let lanes = all.iter().map(|lane| lane.stats).collect();
    let lane0 = all.swap_remove(0);
    Ok(Performed {
        states: lane0.states,
        performed: book.performed,
        skipped: book.skipped,
        best_prefix_avg: book.best_prefix_avg,
        best_prefix_len: book.best_prefix_len,
        counters: lane0.engine.map_or((0, 0), |e| e.counters()),
        lanes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::DeltaCluster;
    use crate::residue::ResidueMean;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    /// A random `rows × cols` matrix, 90% specified, and one refreshed
    /// action per target.
    fn setup(
        rows: usize,
        cols: usize,
        mean: ResidueMean,
    ) -> (DataMatrix, FlocConfig, Vec<EvaluatedAction>) {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = DataMatrix::builder(rows, cols).build();
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(0.9) {
                    m.set(r, c, rng.gen_range(0.0..50.0));
                }
            }
        }
        let config = FlocConfig::builder(4).mean(mean).build();
        let actions = (0..rows)
            .map(Target::Row)
            .chain((0..cols).map(Target::Col))
            .map(|target| EvaluatedAction {
                action: Action { target, cluster: 0 },
                gain: 0.0,
            })
            .collect();
        (m, config, actions)
    }

    /// Four overlapping clusters on the 40×16 matrix.
    fn overlapping() -> Vec<DeltaCluster> {
        (0..4)
            .map(|c| DeltaCluster::from_indices(40, 16, c * 8..c * 8 + 12, c..c + 6))
            .collect()
    }

    fn run(
        m: &DataMatrix,
        config: &FlocConfig,
        actions: &[EvaluatedAction],
        clusters: &[DeltaCluster],
        lanes: usize,
        stop: &dyn Fn() -> Option<StopReason>,
    ) -> Result<Performed, StopReason> {
        let states: Vec<ClusterState> = clusters.iter().map(|c| ClusterState::new(m, c)).collect();
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

    /// A lane loop agrees with the one-lane loop on everything it returns,
    /// its lanes' lines and line repairs add up to the one lane's, and
    /// the engine counters count each cluster event once.
    fn assert_agree(r: &Performed, serial: &Performed, what: &str) {
        let clusters = |p: &Performed| p.states.iter().map(|s| s.to_cluster()).collect::<Vec<_>>();
        assert_eq!(clusters(r), clusters(serial), "{what}");
        assert_eq!(r.performed, serial.performed, "{what}");
        assert_eq!(r.skipped, serial.skipped, "{what}");
        assert_eq!(r.best_prefix_len, serial.best_prefix_len, "{what}");
        assert_eq!(
            r.best_prefix_avg.to_bits(),
            serial.best_prefix_avg.to_bits(),
            "{what}"
        );
        assert_eq!(r.counters, serial.counters, "{what}");
        let total = |p: &Performed, f: fn(&LaneStats) -> u64| p.lanes.iter().map(f).sum::<u64>();
        assert_eq!(
            total(r, |l| l.lines as u64),
            total(serial, |l| l.lines as u64),
            "{what}"
        );
        assert_eq!(
            total(r, |l| l.repairs),
            total(serial, |l| l.repairs),
            "{what}"
        );
    }

    /// Lane 0's abort mark stops every lane at the same action, wherever it
    /// falls (no lane is left waiting), and a loop that runs through agrees
    /// with one lane on everything it returns.
    #[test]
    fn lanes_stop_together_and_agree_with_one_lane() {
        for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
            let (m, config, actions) = setup(40, 16, mean);
            let clusters = overlapping();
            let serial = run(&m, &config, &actions, &clusters, 1, &|| None).unwrap();
            assert!(serial.counters.1 > 0, "the loop repairs");
            for lanes in [1, 2, 3, 4] {
                for abort_at in [0, 1, 17, actions.len() - 1] {
                    let polls = Cell::new(0);
                    let stop = || {
                        polls.set(polls.get() + 1);
                        (polls.get() > abort_at).then_some(StopReason::Budget)
                    };
                    let stopped = run(&m, &config, &actions, &clusters, lanes, &stop);
                    assert!(
                        matches!(stopped, Err(StopReason::Budget)),
                        "x{lanes} at {abort_at}"
                    );
                    assert_eq!(polls.get(), abort_at + 1, "lane 0 polls once per action");
                }
                let r = run(&m, &config, &actions, &clusters, lanes, &|| None).unwrap();
                assert_agree(&r, &serial, &format!("{mean:?} x{lanes}"));
                assert_eq!(r.lanes.len(), lanes);
            }
        }
    }

    /// One "sink" cluster of about ten times the others' volume, on a tall
    /// matrix (column lines) and a wide one (row lines), beside a cluster
    /// too small to share: one to four lanes split the sink's lines evenly
    /// and agree with one lane bit for bit.
    #[test]
    fn lanes_share_a_sink_cluster_and_agree_with_one_lane() {
        for (rows, cols) in [(120, 24), (24, 120)] {
            let tall = rows > cols;
            let pick = |long: std::ops::Range<usize>, short: std::ops::Range<usize>| {
                if tall {
                    DeltaCluster::from_indices(rows, cols, long, short)
                } else {
                    DeltaCluster::from_indices(rows, cols, short, long)
                }
            };
            // 80×16 against 10×12 and 40×3 (or their transposes).
            let clusters = [
                pick(0..80, 0..16),
                pick(70..80, 10..22),
                pick(80..120, 2..5),
                pick(100..110, 8..20),
            ];
            for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
                let (m, config, actions) = setup(rows, cols, mean);
                let serial = run(&m, &config, &actions, &clusters, 1, &|| None).unwrap();
                assert!(serial.counters.0 > 0 && serial.counters.1 > 0);
                for lanes in 1..=4 {
                    let r = run(&m, &config, &actions, &clusters, lanes, &|| None).unwrap();
                    let what = format!("{rows}x{cols} {mean:?} x{lanes}");
                    assert_agree(&r, &serial, &what);
                    // Each cluster's member lines split within one line.
                    let held: Vec<usize> = r.lanes.iter().map(|l| l.lines).collect();
                    let (lo, hi) = (held.iter().min().unwrap(), held.iter().max().unwrap());
                    assert!(hi - lo <= clusters.len(), "{what}: {held:?}");
                }
            }
        }
    }

    /// After a split, the member line of rank `r` of a shared cluster (one
    /// of at least 8 member lines) sits on lane `r mod L` and every line of
    /// a smaller cluster on lane `c mod L`, bit for bit as the whole engine built
    /// it, and every other lane holds it empty. After an apply along the
    /// lines, each lane's `prepare` rebuilds just its lines of the stale
    /// cluster as a whole rebuild lays them out, also when the toggle
    /// makes a small cluster shared.
    #[test]
    fn lanes_hold_every_line_on_its_owner() {
        for (rows, cols) in [(40, 16), (16, 40)] {
            let (m, config, _) = setup(rows, cols, ResidueMean::Squared);
            // 9, 12 and 7 member lines.
            let clusters: Vec<DeltaCluster> = [(0, 9), (3, 12), (8, 7)]
                .into_iter()
                .map(|(from, n)| {
                    let (r, c) = (from..from + 12, from..from + n);
                    if rows >= cols {
                        DeltaCluster::from_indices(rows, cols, r, c)
                    } else {
                        DeltaCluster::from_indices(rows, cols, c, r)
                    }
                })
                .collect();
            let states: Vec<ClusterState> =
                clusters.iter().map(|c| ClusterState::new(&m, c)).collect();
            let lines = rows.min(cols);
            // Non-member lines are empty everywhere.
            let owner = |st: &ClusterState, c: usize, j: usize, lanes: usize| {
                let members = if rows >= cols { &st.cols } else { &st.rows };
                let rank = members.iter().position(|m| m == j).unwrap_or(0);
                if members.len() >= 8 {
                    line_owner(rank, lanes)
                } else {
                    cluster_owner(c, lanes)
                }
            };
            for lanes in 1..=5 {
                let mut whole = IncrementalEngine::build(&m, &states, config.mean);
                let mut shares =
                    IncrementalEngine::build(&m, &states, config.mean).split(&states, lanes);
                assert_eq!(shares.len(), lanes);
                let check = |whole: &IncrementalEngine,
                             shares: &[IncrementalEngine],
                             states: &[ClusterState],
                             what: &str| {
                    for (c, st) in states.iter().enumerate() {
                        for j in 0..lines {
                            for (l, share) in shares.iter().enumerate() {
                                let want = if owner(st, c, j, lanes) == l {
                                    whole.line_bits(c, j)
                                } else {
                                    Vec::new()
                                };
                                let got = share.line_bits(c, j);
                                assert_eq!(got, want, "{what} x{lanes} c{c} j{j}");
                            }
                        }
                    }
                    let held: usize = shares.iter().map(|s| s.held_lines(states)).sum();
                    assert_eq!(held, whole.held_lines(states), "{what} x{lanes}");
                };
                check(&whole, &shares, &states, &format!("{rows}x{cols} split"));

                // Along toggles: one on a shared cluster, and one that
                // gives the 7-line cluster its 8th line; then prepare.
                let mut toggled = states.clone();
                for (cluster, x) in [(1, 15), (2, 15)] {
                    let target = if rows >= cols {
                        Target::Col(x)
                    } else {
                        Target::Row(x)
                    };
                    let line = target.line(&m);
                    let act = Action { target, cluster };
                    assert_eq!(
                        whole.apply(&line, &toggled[cluster], act),
                        0,
                        "marked stale"
                    );
                    for share in &mut shares {
                        assert_eq!(share.apply(&line, &toggled[cluster], act), 0);
                    }
                    crate::action::apply(&mut toggled, act, &line);
                }
                assert!(whole.shared(&toggled[2]) && !whole.shared(&states[2]));
                whole.prepare(&m, &toggled);
                for share in &mut shares {
                    share.prepare(&m, &toggled);
                    assert_eq!(share.counters(), whole.counters());
                }
                check(&whole, &shares, &toggled, &format!("{rows}x{cols} rebuilt"));
            }
        }
    }
}

//! Pluggable gain engines: exact rescans vs incremental sorted-residue
//! indexes.
//!
//! FLOC's per-iteration cost is dominated by gain evaluation: each of the
//! `(N+M)·k` candidate actions asks "what would cluster `c`'s residue be
//! with row/column `x` toggled?", and the exact answer
//! ([`ClusterState::residue_if_row_toggled`]) rescans the whole `|I|·|J|`
//! submatrix. The [`IncrementalEngine`] answers the same question in
//! `O(|J|·log|I|)` (row toggles) / `O(|I|·log|J|)` (column toggles) from
//! per-line sorted indexes, exploiting a structural fact of the residue
//! model:
//!
//! Toggling row `x` leaves `J` unchanged, so every other row's base `d_iJ`
//! is unchanged and `s_ij = d_ij − d_iJ` is *invariant*. The new residue of
//! entry `(i, j)` is
//!
//! ```text
//! d_ij − d_iJ − d_Ij′ + d_IJ′  =  s_ij − t_j,   t_j = d_Ij′ − d_IJ′
//! ```
//!
//! — a per-column constant shift. With the `s_ij` of each column kept
//! sorted alongside prefix sums (`pre`), the column's contribution to the
//! toggled residue is a closed form:
//!
//! * arithmetic mean: `Σ|s − t| = (lo·t − pre[lo]) + (pre[n] − pre[lo] −
//!   (n−lo)·t)` where `lo = #{s < t}` from one binary search;
//! * squared mean: `Σ(s − t)² = pre²[n] − 2t·pre[n] + n·t²`, no search,
//!   where `pre²` holds prefix sums of squares.
//!
//! Only the squared mean reads `pre²`, so only an engine built for it
//! keeps one. A line's prefix array holds one `f64` per position under the
//! arithmetic mean (`Σ`) and an interleaved `[Σ, Σ²]` pair under the
//! squared mean. Both chains are the same sequential sums either way, so
//! the layout changes no answer, and the arithmetic mean's in-place
//! repairs write half the bytes.
//!
//! Symmetrically, toggling column `y` leaves every column base `d_Ij`
//! (`j ≠ y`) unchanged, so per-row sorted arrays of `u_ij = d_ij − d_Ij`
//! answer column toggles.
//!
//! ## Maintenance across applies
//!
//! Applying a row toggle keeps the per-column (`s`) side repairable in
//! place — only row `x`'s entries enter or leave, every other `s` value is
//! untouched — but shifts every column base, so the whole per-row (`u`)
//! side goes *stale* (columns symmetrically). The driver re-decides and
//! performs the `N+M` actions one after another, so the two kinds of
//! toggle interleave and the opposite side is invalidated again and again.
//!
//! * **Same side:** [`IncrementalEngine::apply`] repairs it in place. Each
//!   line's insert/remove shifts the sorted arrays and overwrites the
//!   prefix sums from the changed position on, in the same summation
//!   order as a fresh build, so a repaired line is bit-identical to a
//!   rebuilt one.
//! * **Stale side:** each query goes to the exact scanner
//!   ([`ClusterState::residue_if_row_toggled`] /
//!   [`ClusterState::residue_if_col_toggled`]) until the side has answered
//!   `STALE_SCANS` queries since it last went stale; only then does
//!   [`IncrementalEngine::prepare`] rebuild it. A side that is invalidated
//!   again within that many queries is never rebuilt, and one that keeps
//!   being queried pays at most `STALE_SCANS` scans on top of the rebuild.
//!   A stale side is not repaired by applies.
//!
//! ## Reads
//!
//! A query, [`IncrementalEngine::apply`] and the matching
//! [`ClusterState`] toggle all take the target's [`dc_matrix::Line`]
//! ([`Target::line`]), so one action reads its target once, however many
//! clusters score it. Rebuilds read the cluster row by row, the per-column
//! side included (it buckets entries by column in one row-major pass), so
//! on the paged backend a rebuild reads each block once rather than once
//! per column. Each build worker and each lane's engine owns one bucket
//! buffer (`Buckets`) for every rebuild it runs.
//!
//! The driver rebuilds the whole engine from the canonical cluster states
//! at every iteration boundary — the *drift guard* that keeps long runs
//! (and checkpoint/resume) anchored to the exact statistics.

use crate::action::{Action, Target};
use crate::residue::ResidueMean;
use crate::stats::{ClusterState, Scratch};
use dc_matrix::{DataMatrix, Line};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Matrices with at least this many cells default to the incremental
/// engine under [`GainEngineKind::Auto`]. Below it the exact scanner is
/// both fast enough and free of index-maintenance overhead.
pub const AUTO_INCREMENTAL_CELLS: usize = 10_000;

/// Exact-scan answers a stale index side gives before
/// [`IncrementalEngine::prepare`] rebuilds it. One scan is one pass over
/// the cluster submatrix; a rebuild is that pass plus a sort of every line,
/// so a side invalidated again within this many queries is cheaper never
/// rebuilt, and one that is not costs at most this many scans extra.
/// Chosen from 1, 2, 3, 4, 8 and 16 on the benchmark's mine-large and
/// mine-fig8 workloads (2-vCPU x86-64 host): fig8's lazy rebuilds fall
/// from ~3,000 at 1 to ~830 at 4, while from 8 on the extra scans of
/// mine-large's big clusters add a fifth or more to its gain evaluation;
/// 2–4 measured alike end to end.
const STALE_SCANS: u32 = 4;

/// Which engine drives phase-2 gain evaluation (selected in
/// [`crate::FlocConfig`]).
///
/// The engines agree to floating-point accuracy but not bit-for-bit (they
/// sum in different orders), so the choice is part of the search identity:
/// checkpoints record it and refuse to resume under a different engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum GainEngineKind {
    /// Choose by matrix size: [`GainEngineKind::Incremental`] at or above
    /// [`AUTO_INCREMENTAL_CELLS`] cells, [`GainEngineKind::Exact`] below.
    #[default]
    Auto,
    /// The `O(|I|·|J|)`-per-candidate rescan of
    /// [`ClusterState::residue_if_row_toggled`] — the correctness oracle.
    Exact,
    /// Sorted-index evaluation in `O((|I|+|J|)·log)` per candidate.
    Incremental,
}

impl GainEngineKind {
    /// Resolves the kind against a concrete matrix. Deterministic for a
    /// given matrix shape, so fresh and resumed runs agree.
    pub fn use_incremental(self, matrix: &DataMatrix) -> bool {
        match self {
            GainEngineKind::Exact => false,
            GainEngineKind::Incremental => true,
            GainEngineKind::Auto => matrix.cells() >= AUTO_INCREMENTAL_CELLS,
        }
    }
}

impl std::fmt::Display for GainEngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GainEngineKind::Auto => "auto",
            GainEngineKind::Exact => "exact",
            GainEngineKind::Incremental => "incremental",
        })
    }
}

/// Sorted shift-invariant residues of one matrix line (a column's `s`
/// values or a row's `u` values) with prefix partial sums.
#[derive(Debug, Clone, Default)]
struct DimIndex {
    /// Invariant residues, ascending (ties broken by id).
    vals: Vec<f64>,
    /// Row id (in a per-column index) / column id (per-row), aligned with
    /// `vals`.
    ids: Vec<u32>,
    /// Prefix sums, [`prefix_width`] per position `i ∈ 0..=vals.len()`:
    /// `pre[w·i] = Σ vals[..i]` and, under the squared mean only,
    /// `pre[w·i + 1] = Σ vals[..i]²`.
    pre: Vec<f64>,
}

/// Prefix sums kept per position: `Σ` alone for the arithmetic mean,
/// `[Σ, Σ²]` for the squared mean, whose closed form reads `Σ²`.
fn prefix_width(mean: ResidueMean) -> usize {
    match mean {
        ResidueMean::Arithmetic => 1,
        ResidueMean::Squared => 2,
    }
}

impl DimIndex {
    fn clear(&mut self) {
        self.vals.clear();
        self.ids.clear();
        self.pre.clear();
    }

    #[cfg(test)]
    fn push(&mut self, val: f64, id: u32) {
        self.vals.push(val);
        self.ids.push(id);
    }

    /// Sorts by `(value, id)` and (re)builds the prefix array.
    #[cfg(test)]
    fn finish(&mut self, mean: ResidueMean) {
        let mut order: Vec<u32> = (0..self.vals.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            self.vals[a as usize]
                .total_cmp(&self.vals[b as usize])
                .then(self.ids[a as usize].cmp(&self.ids[b as usize]))
        });
        let vals: Vec<f64> = order.iter().map(|&i| self.vals[i as usize]).collect();
        let ids: Vec<u32> = order.iter().map(|&i| self.ids[i as usize]).collect();
        self.vals = vals;
        self.ids = ids;
        self.rebuild_prefixes(mean);
    }

    /// Replaces the contents from a caller-owned buffer of `(value, id)`
    /// pairs, reusing this index's allocations across rebuilds. Sorting by
    /// `(value, id)` with unique ids yields exactly the order
    /// [`Self::finish`] produces, so the two construction paths are
    /// interchangeable.
    fn assign_sorted(&mut self, buf: &mut [(f64, u32)], mean: ResidueMean) {
        buf.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        self.vals.clear();
        self.ids.clear();
        self.vals.extend(buf.iter().map(|p| p.0));
        self.ids.extend(buf.iter().map(|p| p.1));
        self.rebuild_prefixes(mean);
    }

    fn rebuild_prefixes(&mut self, mean: ResidueMean) {
        self.pre.clear();
        self.pre
            .resize((self.vals.len() + 1) * prefix_width(mean), 0.0);
        self.repair_prefixes_from(0, mean);
    }

    /// First position at or after which `(val, id)` sorts.
    fn position(&self, val: f64, id: u32) -> usize {
        let mut pos = self.vals.partition_point(|&v| v.total_cmp(&val).is_lt());
        while pos < self.vals.len() && self.vals[pos].total_cmp(&val).is_eq() && self.ids[pos] < id
        {
            pos += 1;
        }
        pos
    }

    /// Overwrites the prefix sums after position `pos` in place. Sums up
    /// to `pos` depend only on the unchanged value prefix, so resuming the
    /// running sums from position `pos` is bit-identical to a full rebuild
    /// while touching only the suffix. `pre` must already hold
    /// `vals.len() + 1` positions.
    fn repair_prefixes_from(&mut self, pos: usize, mean: ResidueMean) {
        let vals = &self.vals[pos..];
        match mean {
            ResidueMean::Arithmetic => {
                let mut s = self.pre[pos];
                for (p, &v) in self.pre[pos + 1..].iter_mut().zip(vals) {
                    s += v;
                    *p = s;
                }
            }
            ResidueMean::Squared => {
                let (mut s, mut s2) = (self.pre[2 * pos], self.pre[2 * pos + 1]);
                for (p, &v) in self.pre[2 * pos + 2..].chunks_exact_mut(2).zip(vals) {
                    s += v;
                    s2 += v * v;
                    p[0] = s;
                    p[1] = s2;
                }
            }
        }
    }

    /// Inserts one entry, keeping order, and repairs the prefix suffix.
    /// `O(n)` memmove, `O(n − pos)` arithmetic.
    fn insert(&mut self, val: f64, id: u32, mean: ResidueMean) {
        let pos = self.position(val, id);
        self.vals.insert(pos, val);
        self.ids.insert(pos, id);
        let w = prefix_width(mean);
        self.pre.resize((self.vals.len() + 1) * w, 0.0);
        self.repair_prefixes_from(pos, mean);
    }

    /// Removes the entry for `id`, located by its reproduced value (the
    /// stored value is recomputed bit-identically from the same sums, so
    /// the binary search lands on it; a linear fallback guards the
    /// invariant anyway). `O(n)` memmove, `O(n − pos)` arithmetic.
    fn remove(&mut self, val: f64, id: u32, mean: ResidueMean) {
        let pos = self.position(val, id);
        let at = if self.ids.get(pos) == Some(&id) {
            pos
        } else {
            debug_assert!(false, "index entry for id {id} not at its reproduced value");
            match self.ids.iter().position(|&i| i == id) {
                Some(p) => p,
                None => return,
            }
        };
        self.vals.remove(at);
        self.ids.remove(at);
        self.pre
            .truncate((self.vals.len() + 1) * prefix_width(mean));
        self.repair_prefixes_from(at, mean);
    }

    /// `Σ term(vals[i] − t)` over every entry, in `O(log n)` (arithmetic)
    /// or `O(1)` (squared).
    #[inline]
    fn query(&self, t: f64, mean: ResidueMean) -> f64 {
        let n = self.vals.len();
        if n == 0 {
            return 0.0;
        }
        match mean {
            ResidueMean::Arithmetic => {
                let lo = self.vals.partition_point(|&s| s < t);
                let (below, all) = (self.pre[lo], self.pre[n]);
                let left = t * lo as f64 - below;
                let right = (all - below) - t * (n - lo) as f64;
                left + right
            }
            ResidueMean::Squared => {
                let (all, all2) = (self.pre[2 * n], self.pre[2 * n + 1]);
                all2 - 2.0 * t * all + n as f64 * t * t
            }
        }
    }
}

/// Freshness of one index side of a cluster.
#[derive(Debug, Default)]
struct Side {
    /// The side matches the cluster's current state.
    ok: bool,
    /// Exact-scan answers given since the side last went stale. Bumped by
    /// `&self` queries (hence atomic), read by [`IncrementalEngine::prepare`].
    scans: AtomicU32,
}

impl Side {
    fn invalidate(&mut self) {
        self.ok = false;
        *self.scans.get_mut() = 0;
    }

    /// Stale, and has given its `STALE_SCANS` exact-scan answers.
    fn due_for_rebuild(&mut self) -> bool {
        !self.ok && *self.scans.get_mut() >= STALE_SCANS
    }
}

/// Both index sides of one cluster.
#[derive(Debug)]
pub(crate) struct ClusterIndex {
    /// `by_col[j]` holds the sorted `s_ij = d_ij − d_iJ` of column `j`
    /// over the cluster's rows — serves **row**-toggle queries. Empty for
    /// columns outside `J`.
    by_col: Vec<DimIndex>,
    /// `by_row[i]` holds the sorted `u_ij = d_ij − d_Ij` of row `i` over
    /// the cluster's columns — serves **column**-toggle queries.
    by_row: Vec<DimIndex>,
    /// Freshness of `by_col`.
    col_side: Side,
    /// Freshness of `by_row`.
    row_side: Side,
}

/// Scratch a rebuild fills, owned once per build worker or lane and
/// reused across every rebuild it runs, so steady-state rebuilds allocate
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct Buckets {
    /// `(value, id)` entries: a by-column rebuild's buckets laid end to
    /// end, or one row's entries in a by-row rebuild.
    entries: Vec<(f64, u32)>,
    /// Per-column write cursors into `entries` (by-column rebuilds).
    next: Vec<usize>,
    /// Column bases hoisted out of the entry loop, one division per member
    /// column instead of one per entry (by-row rebuilds).
    base: Vec<f64>,
}

impl ClusterIndex {
    fn new(matrix: &DataMatrix) -> Self {
        ClusterIndex {
            by_col: vec![DimIndex::default(); matrix.cols()],
            by_row: vec![DimIndex::default(); matrix.rows()],
            col_side: Side::default(),
            row_side: Side::default(),
        }
    }

    /// Rebuilds the per-column side in one row-major pass: every entry of
    /// the cluster goes to its column's bucket (a counting sort on the
    /// known column counts), then each bucket is sorted by `(value, id)`.
    /// Ids are unique within a bucket, so the order the pass fills it in
    /// never shows.
    fn rebuild_by_col(
        &mut self,
        matrix: &DataMatrix,
        st: &ClusterState,
        mean: ResidueMean,
        buf: &mut Buckets,
    ) {
        for d in &mut self.by_col {
            d.clear();
        }
        let Buckets { entries, next, .. } = buf;
        next.clear();
        next.resize(matrix.cols(), 0);
        let mut end = 0;
        for j in st.cols.iter() {
            next[j] = end;
            end += st.col_specified(j) as usize;
        }
        entries.clear();
        entries.resize(end, (0.0, 0));
        for i in st.rows.iter() {
            if st.row_specified(i) == 0 {
                continue; // no entries in J, and no base
            }
            let rb = st.row_sum(i) / st.row_specified(i) as f64;
            for (j, v) in matrix.row_specified_in(i, &st.cols) {
                entries[next[j]] = (v - rb, i as u32);
                next[j] += 1;
            }
        }
        let mut start = 0;
        for j in st.cols.iter() {
            // Each cursor has advanced to its bucket's end.
            self.by_col[j].assign_sorted(&mut entries[start..next[j]], mean);
            start = next[j];
        }
        self.col_side.ok = true;
    }

    fn rebuild_by_row(
        &mut self,
        matrix: &DataMatrix,
        st: &ClusterState,
        mean: ResidueMean,
        buf: &mut Buckets,
    ) {
        for d in &mut self.by_row {
            d.clear();
        }
        let Buckets { entries, base, .. } = buf;
        base.clear();
        base.resize(matrix.cols(), 0.0);
        for j in st.cols.iter() {
            if st.col_specified(j) > 0 {
                base[j] = st.col_sum(j) / st.col_specified(j) as f64;
            }
        }
        for i in st.rows.iter() {
            entries.clear();
            for (j, v) in matrix.row_specified_in(i, &st.cols) {
                entries.push((v - base[j], j as u32));
            }
            self.by_row[i].assign_sorted(entries, mean);
        }
        self.row_side.ok = true;
    }

    fn rebuild(
        &mut self,
        matrix: &DataMatrix,
        st: &ClusterState,
        mean: ResidueMean,
        buf: &mut Buckets,
    ) {
        self.rebuild_by_col(matrix, st, mean, buf);
        self.rebuild_by_row(matrix, st, mean, buf);
    }
}

/// Incremental gain engine: per-cluster sorted-residue indexes answering
/// virtual-toggle residues without rescanning the cluster submatrix.
///
/// Built from the canonical [`ClusterState`]s at each iteration boundary;
/// the driver calls [`Self::prepare`] before querying a side,
/// [`Self::toggled_residue`] for gains, and [`Self::apply`] (just before
/// the matching [`ClusterState`] toggle) to keep the indexes in step.
/// Queries take `&self`, so evaluation parallelizes exactly like the exact
/// scanner.
#[derive(Debug)]
pub struct IncrementalEngine {
    clusters: Vec<ClusterIndex>,
    mean: ResidueMean,
    /// Lazy index-side rebuilds performed by [`Self::prepare`].
    stale_rebuilds: u64,
    /// In-place same-side repairs performed by [`Self::apply`].
    repairs: u64,
    /// Queries answered by the exact scanner because their side was stale.
    stale_scans: AtomicU64,
    /// The rebuild scratch of whoever runs this engine's rebuilds.
    buf: Buckets,
}

impl IncrementalEngine {
    /// Builds both index sides for every cluster. `O(Σ volume · log)`.
    pub fn build(matrix: &DataMatrix, states: &[ClusterState], mean: ResidueMean) -> Self {
        IncrementalEngine::build_with_threads(matrix, states, mean, 1)
    }

    /// [`Self::build`] with the per-cluster work fanned out over up to
    /// `threads` workers. Each cluster's indexes are an independent
    /// function of `(matrix, its state)`, so the result is bit-identical
    /// to the serial build regardless of thread count.
    pub fn build_with_threads(
        matrix: &DataMatrix,
        states: &[ClusterState],
        mean: ResidueMean,
        threads: usize,
    ) -> Self {
        let mut engine = IncrementalEngine {
            clusters: states.iter().map(|_| ClusterIndex::new(matrix)).collect(),
            mean,
            stale_rebuilds: 0,
            repairs: 0,
            stale_scans: AtomicU64::new(0),
            buf: Buckets::default(),
        };
        let threads = threads.max(1).min(states.len().max(1));
        if threads <= 1 || states.len() < 2 {
            for (ci, st) in engine.clusters.iter_mut().zip(states) {
                ci.rebuild(matrix, st, mean, &mut engine.buf);
            }
            return engine;
        }
        // Pay the column-mirror transpose once up front instead of
        // serializing every worker behind its OnceLock.
        matrix.ensure_mirror();
        let chunk = states.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (ci_chunk, st_chunk) in engine.clusters.chunks_mut(chunk).zip(states.chunks(chunk))
            {
                scope.spawn(move || {
                    let mut buf = Buckets::default();
                    for (ci, st) in ci_chunk.iter_mut().zip(st_chunk) {
                        ci.rebuild(matrix, st, mean, &mut buf);
                    }
                });
            }
        });
        engine
    }

    /// Takes the engine apart into its per-cluster indexes, in cluster
    /// order, its mean and its [`Self::counters`], so the perform loop can
    /// hand each lane its own clusters' indexes.
    pub(crate) fn into_parts(self) -> (Vec<ClusterIndex>, ResidueMean, (u64, u64, u64)) {
        let counters = self.counters();
        (self.clusters, self.mean, counters)
    }

    /// An engine over `clusters` (given their states in the same order)
    /// that answers, prepares and applies for them exactly as the engine
    /// they came from did.
    pub(crate) fn from_parts(
        clusters: Vec<ClusterIndex>,
        mean: ResidueMean,
        (stale_rebuilds, repairs, stale_scans): (u64, u64, u64),
    ) -> Self {
        IncrementalEngine {
            clusters,
            mean,
            stale_rebuilds,
            repairs,
            stale_scans: AtomicU64::new(stale_scans),
            buf: Buckets::default(),
        }
    }

    /// Rebuilds every stale index side the next queries read that has
    /// already given its `STALE_SCANS` exact-scan answers: row-toggle
    /// queries (`is_row`) read the per-column side, column toggles the
    /// per-row side. Other stale sides keep answering by scan; clean sides
    /// are untouched.
    pub fn prepare(&mut self, matrix: &DataMatrix, states: &[ClusterState], is_row: bool) {
        let mean = self.mean;
        for (ci, st) in self.clusters.iter_mut().zip(states) {
            if is_row && ci.col_side.due_for_rebuild() {
                ci.rebuild_by_col(matrix, st, mean, &mut self.buf);
                self.stale_rebuilds += 1;
            }
            if !is_row && ci.row_side.due_for_rebuild() {
                ci.rebuild_by_row(matrix, st, mean, &mut self.buf);
                self.stale_rebuilds += 1;
            }
        }
    }

    /// Maintenance tallies since [`Self::build`]:
    /// `(stale_rebuilds, repairs, stale_scans)` — lazy side rebuilds in
    /// [`Self::prepare`], in-place same-side repairs in [`Self::apply`],
    /// and queries answered by the exact scanner from a stale side.
    /// Read-only diagnostics for observability; they never influence the
    /// search.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.stale_rebuilds,
            self.repairs,
            self.stale_scans.load(Ordering::Relaxed),
        )
    }

    /// The residue cluster `cluster` would have with `target` toggled —
    /// the incremental counterpart of [`ClusterState::residue_if_row_toggled`] /
    /// [`ClusterState::residue_if_col_toggled`]. `line` is the target's
    /// line ([`Target::line`]), the only read of the target's values. `st`
    /// must be the state the engine's indexes were built/repaired against.
    /// When the side the query reads is stale, the answer comes from that
    /// exact scanner (using `scratch`) and counts towards the side's
    /// rebuild in the next [`Self::prepare`].
    pub fn toggled_residue(
        &self,
        cluster: usize,
        target: Target,
        line: &Line,
        st: &ClusterState,
        matrix: &DataMatrix,
        scratch: &mut Scratch,
    ) -> f64 {
        let ci = &self.clusters[cluster];
        let side = if target.is_row() {
            &ci.col_side
        } else {
            &ci.row_side
        };
        if !side.ok {
            side.scans.fetch_add(1, Ordering::Relaxed);
            self.stale_scans.fetch_add(1, Ordering::Relaxed);
            return match target {
                Target::Row(r) => st.residue_if_row_toggled(matrix, r, line, self.mean, scratch),
                Target::Col(c) => st.residue_if_col_toggled(matrix, c, line, self.mean, scratch),
            };
        }
        match target {
            Target::Row(r) => self.residue_row_toggled(ci, r, line, st),
            Target::Col(c) => self.residue_col_toggled(ci, c, line, st),
        }
    }

    fn residue_row_toggled(
        &self,
        ci: &ClusterIndex,
        x: usize,
        line: &Line,
        st: &ClusterState,
    ) -> f64 {
        let adding = !st.rows.contains(x);
        let sign = if adding { 1.0 } else { -1.0 };

        // Word-block kernel; bit-identical to folding the line's entries.
        let (t_sum, t_cnt) = if adding {
            line.stats_in(&st.cols)
        } else {
            (st.row_sum(x), st.row_specified(x))
        };

        let new_volume = (st.volume() as i64 + sign as i64 * t_cnt as i64) as usize;
        if new_volume == 0 {
            return 0.0;
        }
        let new_total = st.total() + sign * t_sum;
        let base = new_total / new_volume as f64;

        // Row x's base before (for cancelling stored entries) and after.
        let old_rb = if st.row_specified(x) > 0 {
            st.row_sum(x) / st.row_specified(x) as f64
        } else {
            0.0 // unused: x then has no stored entries
        };
        let new_rb = if t_cnt == 0 {
            base
        } else {
            t_sum / t_cnt as f64
        };

        let xvals = line.values();
        let mut sum = 0.0;
        for j in st.cols.iter() {
            let spec = line.is_specified(j);
            let (mut cs, mut cn) = (st.col_sum(j), st.col_specified(j) as i64);
            let v = xvals.get(j);
            if spec {
                cs += sign * v;
                cn += sign as i64;
            }
            let col_base = if cn <= 0 { base } else { cs / cn as f64 };
            let t = col_base - base;
            sum += ci.by_col[j].query(t, self.mean);
            if spec {
                if adding {
                    sum += self.mean.entry_term(v - new_rb - col_base + base);
                } else {
                    // The index still contains x's entry; cancel it.
                    sum -= self.mean.entry_term((v - old_rb) - t);
                }
            }
        }
        sum / new_volume as f64
    }

    fn residue_col_toggled(
        &self,
        ci: &ClusterIndex,
        y: usize,
        line: &Line,
        st: &ClusterState,
    ) -> f64 {
        let adding = !st.cols.contains(y);
        let sign = if adding { 1.0 } else { -1.0 };

        // Word-block kernel; bit-identical to folding the line's entries.
        let (t_sum, t_cnt) = if adding {
            line.stats_in(&st.rows)
        } else {
            (st.col_sum(y), st.col_specified(y))
        };

        let new_volume = (st.volume() as i64 + sign as i64 * t_cnt as i64) as usize;
        if new_volume == 0 {
            return 0.0;
        }
        let new_total = st.total() + sign * t_sum;
        let base = new_total / new_volume as f64;

        let old_cb = if st.col_specified(y) > 0 {
            st.col_sum(y) / st.col_specified(y) as f64
        } else {
            0.0 // unused: y then has no stored entries
        };
        let new_cb = if t_cnt == 0 {
            base
        } else {
            t_sum / t_cnt as f64
        };

        let yvals = line.values();
        let mut sum = 0.0;
        for i in st.rows.iter() {
            let spec = line.is_specified(i);
            let (mut rs, mut rn) = (st.row_sum(i), st.row_specified(i) as i64);
            let v = yvals.get(i);
            if spec {
                rs += sign * v;
                rn += sign as i64;
            }
            let row_base = if rn <= 0 { base } else { rs / rn as f64 };
            let w = row_base - base;
            sum += ci.by_row[i].query(w, self.mean);
            if spec {
                if adding {
                    sum += self.mean.entry_term(v - row_base - new_cb + base);
                } else {
                    sum -= self.mean.entry_term((v - old_cb) - w);
                }
            }
        }
        sum / new_volume as f64
    }

    /// First half of a single-row **data** repair: call *before* mutating
    /// any cells of matrix row `row` (the online miner's stream events).
    ///
    /// Membership toggles move rows in and out of `I`; a data repair keeps
    /// `I`/`J` fixed but changes row `row`'s values. The per-column (`s`)
    /// side survives it surgically: `s_ij = d_ij − d_iJ` of every *other*
    /// row is independent of row `row`'s data, so only `row`'s own entries
    /// need to leave the indexes (here, while the pre-mutation sums still
    /// reproduce the stored values) and re-enter in
    /// [`Self::finish_row_update`]. The per-row (`u`) side cannot be saved
    /// — mutating `row` shifts column bases for every member row — so it
    /// is marked stale.
    ///
    /// Clusters that do not contain `row` are untouched: none of their
    /// statistics depend on a non-member row's data.
    pub fn begin_row_update(&mut self, matrix: &DataMatrix, states: &[ClusterState], row: usize) {
        let mean = self.mean;
        let line = matrix.row_of(row);
        for (ci, st) in self.clusters.iter_mut().zip(states) {
            if !st.rows.contains(row) {
                continue;
            }
            ci.row_side.invalidate();
            if !ci.col_side.ok {
                continue; // stale: answered by scan until rebuilt
            }
            self.repairs += 1;
            if st.row_specified(row) > 0 {
                let rb = st.row_sum(row) / st.row_specified(row) as f64;
                for (j, v) in line.specified_in(&st.cols) {
                    ci.by_col[j].remove(v - rb, row as u32, mean);
                }
            }
        }
    }

    /// Second half of a single-row data repair: call *after* the matrix
    /// mutation **and** after every affected [`ClusterState`] has been
    /// repaired (via [`ClusterState::cell_changed`]), so the post-mutation
    /// sums produce the new invariant residues.
    pub fn finish_row_update(&mut self, matrix: &DataMatrix, states: &[ClusterState], row: usize) {
        let mean = self.mean;
        let line = matrix.row_of(row);
        for (ci, st) in self.clusters.iter_mut().zip(states) {
            if !st.rows.contains(row) || !ci.col_side.ok {
                continue;
            }
            if st.row_specified(row) > 0 {
                let rb = st.row_sum(row) / st.row_specified(row) as f64;
                for (j, v) in line.specified_in(&st.cols) {
                    ci.by_col[j].insert(v - rb, row as u32, mean);
                }
            }
        }
    }

    /// Brings the indexes in step with `action`, which the driver is about
    /// to perform; `line` is its target's line ([`Target::line`]). Must be
    /// called with the cluster's state *before* the toggle (the pre-toggle
    /// sums reproduce the stored values to remove).
    ///
    /// Repairs the same-side index in place (`O(line · |I or J|)`) and
    /// marks the opposite side stale.
    pub fn apply(&mut self, line: &Line, st: &ClusterState, action: Action) {
        let mean = self.mean;
        let ci = &mut self.clusters[action.cluster];
        match action.target {
            Target::Row(x) => {
                ci.row_side.invalidate(); // every column base shifts
                if !ci.col_side.ok {
                    return; // stale: answered by scan until rebuilt
                }
                self.repairs += 1;
                if st.rows.contains(x) {
                    if st.row_specified(x) > 0 {
                        let rb = st.row_sum(x) / st.row_specified(x) as f64;
                        for (j, v) in line.specified_in(&st.cols) {
                            ci.by_col[j].remove(v - rb, x as u32, mean);
                        }
                    }
                } else {
                    let (t_sum, t_cnt) = line.stats_in(&st.cols);
                    if t_cnt > 0 {
                        let rb = t_sum / t_cnt as f64;
                        for (j, v) in line.specified_in(&st.cols) {
                            ci.by_col[j].insert(v - rb, x as u32, mean);
                        }
                    }
                }
            }
            Target::Col(y) => {
                ci.col_side.invalidate();
                if !ci.row_side.ok {
                    return;
                }
                self.repairs += 1;
                if st.cols.contains(y) {
                    if st.col_specified(y) > 0 {
                        let cb = st.col_sum(y) / st.col_specified(y) as f64;
                        for (i, v) in line.specified_in(&st.rows) {
                            ci.by_row[i].remove(v - cb, y as u32, mean);
                        }
                    }
                } else {
                    let (t_sum, t_cnt) = line.stats_in(&st.rows);
                    if t_cnt > 0 {
                        let cb = t_sum / t_cnt as f64;
                        for (i, v) in line.specified_in(&st.rows) {
                            ci.by_row[i].insert(v - cb, y as u32, mean);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::DeltaCluster;
    use crate::stats::Scratch;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, density: f64, seed: u64) -> DataMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = DataMatrix::builder(rows, cols).build();
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(density) {
                    m.set(r, c, rng.gen_range(-50.0..50.0));
                }
            }
        }
        m
    }

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
            "{what}: incremental {a} != exact {b}"
        );
    }

    /// Every virtual toggle from a fresh engine matches the exact scanner.
    #[test]
    fn fresh_engine_matches_exact_scanner() {
        for (seed, density) in [(1u64, 1.0), (2, 0.8), (3, 0.55)] {
            let m = random_matrix(12, 9, density, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
            for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
                let row_pick: Vec<usize> = (0..12).filter(|_| rng.gen_bool(0.5)).collect();
                let col_pick: Vec<usize> = (0..9).filter(|_| rng.gen_bool(0.6)).collect();
                let cluster = DeltaCluster::from_indices(12, 9, row_pick, col_pick);
                let st = ClusterState::new(&m, &cluster);
                let engine = IncrementalEngine::build(&m, std::slice::from_ref(&st), mean);
                let mut scratch = Scratch::default();
                for r in 0..12 {
                    let exact = st.residue_if_row_toggled(&m, r, &m.row_of(r), mean, &mut scratch);
                    let incr = engine.toggled_residue(
                        0,
                        Target::Row(r),
                        &Target::Row(r).line(&m),
                        &st,
                        &m,
                        &mut scratch,
                    );
                    assert_close(incr, exact, &format!("row {r} ({mean:?}, seed {seed})"));
                }
                for c in 0..9 {
                    let exact = st.residue_if_col_toggled(&m, c, &m.col_of(c), mean, &mut scratch);
                    let incr = engine.toggled_residue(
                        0,
                        Target::Col(c),
                        &Target::Col(c).line(&m),
                        &st,
                        &m,
                        &mut scratch,
                    );
                    assert_close(incr, exact, &format!("col {c} ({mean:?}, seed {seed})"));
                }
            }
        }
    }

    /// A random walk of applies with interleaved queries: the engine's
    /// lazy repair/rebuild must track the evolving state exactly.
    #[test]
    fn engine_tracks_a_random_apply_walk() {
        let m = random_matrix(10, 8, 0.85, 7);
        for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
            let mut st = ClusterState::new(&m, &DeltaCluster::from_indices(10, 8, 0..5, 0..4));
            let mut engine = IncrementalEngine::build(&m, std::slice::from_ref(&st), mean);
            let mut rng = StdRng::seed_from_u64(99);
            let mut scratch = Scratch::default();
            for step in 0..60 {
                let target = if rng.gen_bool(0.5) {
                    Target::Row(rng.gen_range(0..10))
                } else {
                    Target::Col(rng.gen_range(0..8))
                };
                // Query every candidate of this side first (as the driver
                // does), then apply the drawn toggle.
                engine.prepare(&m, std::slice::from_ref(&st), target.is_row());
                let exact = match target {
                    Target::Row(r) => {
                        st.residue_if_row_toggled(&m, r, &m.row_of(r), mean, &mut scratch)
                    }
                    Target::Col(c) => {
                        st.residue_if_col_toggled(&m, c, &m.col_of(c), mean, &mut scratch)
                    }
                };
                let incr =
                    engine.toggled_residue(0, target, &target.line(&m), &st, &m, &mut scratch);
                assert_close(incr, exact, &format!("step {step} {target:?} ({mean:?})"));
                // Keep the cluster non-degenerate for the next step.
                let would_empty = match target {
                    Target::Row(r) => st.rows.contains(r) && st.rows.len() <= 2,
                    Target::Col(c) => st.cols.contains(c) && st.cols.len() <= 2,
                };
                if would_empty {
                    continue;
                }
                engine.apply(&target.line(&m), &st, Action { target, cluster: 0 });
                match target {
                    Target::Row(r) => st.toggle_row(r, &m.row_of(r)),
                    Target::Col(c) => st.toggle_col(c, &m.col_of(c)),
                }
            }
        }
    }

    /// Single-row data repair (the online miner's stream path): mutate
    /// cells of one row between `begin_row_update`/`finish_row_update`,
    /// repair the states with `cell_changed`, and every toggled residue
    /// must still match the exact scanner — for member and non-member
    /// rows, updates, deletes, and appends.
    #[test]
    fn engine_survives_single_row_data_repairs() {
        for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
            let mut m = random_matrix(12, 9, 0.8, 21);
            let mut states = vec![
                ClusterState::new(&m, &DeltaCluster::from_indices(12, 9, 0..6, 0..5)),
                ClusterState::new(
                    &m,
                    &DeltaCluster::from_indices(12, 9, [2, 5, 7, 9], [1, 4, 6, 8]),
                ),
            ];
            let mut engine = IncrementalEngine::build(&m, &states, mean);
            let mut rng = StdRng::seed_from_u64(77);
            let mut scratch = Scratch::default();

            for step in 0..25 {
                let row = rng.gen_range(0..12);
                engine.begin_row_update(&m, &states, row);
                // Mutate up to three cells of the row: update / delete /
                // append, drawn at random.
                for _ in 0..rng.gen_range(1..=3) {
                    let col = rng.gen_range(0..9);
                    let new = match rng.gen_range(0..3u32) {
                        0 => None,
                        _ => Some(rng.gen_range(-50.0..50.0)),
                    };
                    let old = match new {
                        Some(v) => {
                            let old = m.get(row, col);
                            m.set(row, col, v);
                            old
                        }
                        None => m.unset(row, col),
                    };
                    for st in &mut states {
                        st.cell_changed(row, col, old, new);
                    }
                }
                engine.finish_row_update(&m, &states, row);

                // Row queries answer from the repaired per-column side.
                for (k, st) in states.iter().enumerate() {
                    for r in 0..12 {
                        let exact =
                            st.residue_if_row_toggled(&m, r, &m.row_of(r), mean, &mut scratch);
                        let incr = engine.toggled_residue(
                            k,
                            Target::Row(r),
                            &Target::Row(r).line(&m),
                            st,
                            &m,
                            &mut scratch,
                        );
                        assert_close(incr, exact, &format!("step {step} cluster {k} row {r}"));
                    }
                }
                // Column queries read the stale per-row side: exact scans
                // until prepare() rebuilds it.
                engine.prepare(&m, &states, false);
                for (k, st) in states.iter().enumerate() {
                    for c in 0..9 {
                        let exact =
                            st.residue_if_col_toggled(&m, c, &m.col_of(c), mean, &mut scratch);
                        let incr = engine.toggled_residue(
                            k,
                            Target::Col(c),
                            &Target::Col(c).line(&m),
                            st,
                            &m,
                            &mut scratch,
                        );
                        assert_close(incr, exact, &format!("step {step} cluster {k} col {c}"));
                    }
                }
                // And the repaired states must still match a rebuild.
                for st in &states {
                    let rebuilt = ClusterState::new(&m, &st.to_cluster());
                    assert_eq!(st.volume(), rebuilt.volume());
                    assert!((st.total() - rebuilt.total()).abs() < 1e-6);
                }
            }
        }
    }

    /// Queries `target` on cluster 0 and checks the answer against the
    /// exact scanner.
    fn assert_query_matches(
        engine: &IncrementalEngine,
        st: &ClusterState,
        m: &DataMatrix,
        target: Target,
        scratch: &mut Scratch,
    ) {
        let exact = match target {
            Target::Row(r) => st.residue_if_row_toggled(m, r, &m.row_of(r), engine.mean, scratch),
            Target::Col(c) => st.residue_if_col_toggled(m, c, &m.col_of(c), engine.mean, scratch),
        };
        let incr = engine.toggled_residue(0, target, &target.line(m), st, m, scratch);
        assert_close(incr, exact, &format!("{target:?}"));
    }

    #[test]
    fn maintenance_counters_track_repairs_and_rebuilds() {
        let m = random_matrix(10, 8, 0.9, 11);
        let mut st = ClusterState::new(&m, &DeltaCluster::from_indices(10, 8, 0..5, 0..4));
        let states = std::slice::from_ref;
        let mut engine = IncrementalEngine::build(&m, states(&st), ResidueMean::Arithmetic);
        let mut scratch = Scratch::default();
        assert_eq!(engine.counters(), (0, 0, 0), "fresh build starts clean");

        // A row apply repairs the per-column side in place…
        let row7 = Action {
            target: Target::Row(7),
            cluster: 0,
        };
        engine.apply(&m.row_of(7), &st, row7);
        st.toggle_row(7, &m.row_of(7));
        assert_eq!(engine.counters(), (0, 1, 0));

        // …and marks the per-row side stale: column queries read it, and
        // the first STALE_SCANS of them are answered by the exact scan.
        let scans = u64::from(STALE_SCANS);
        for n in 1..=scans {
            engine.prepare(&m, states(&st), false);
            assert_query_matches(&engine, &st, &m, Target::Col(n as usize % 8), &mut scratch);
            assert_eq!(engine.counters(), (0, 1, n), "scan {n} rebuilds nothing");
        }
        // Then prepare rebuilds the side exactly once, and later queries
        // come from the rebuilt index.
        for c in 0..8 {
            engine.prepare(&m, states(&st), false);
            assert_query_matches(&engine, &st, &m, Target::Col(c), &mut scratch);
        }
        assert_eq!(engine.counters(), (1, 1, scans));
        // Row queries read the repaired (never stale) per-column side.
        for r in 0..10 {
            engine.prepare(&m, states(&st), true);
            assert_query_matches(&engine, &st, &m, Target::Row(r), &mut scratch);
        }
        assert_eq!(engine.counters(), (1, 1, scans));

        // A side invalidated before every query is never rebuilt: each row
        // apply resets the per-row side's scan count.
        for n in 1..=3 * scans {
            engine.apply(&m.row_of(7), &st, row7);
            st.toggle_row(7, &m.row_of(7));
            engine.prepare(&m, states(&st), false);
            assert_query_matches(&engine, &st, &m, Target::Col(n as usize % 8), &mut scratch);
            assert_eq!(engine.counters(), (1, 1 + n, scans + n));
        }
        // Row queries still come from the in-place repaired per-column side.
        for r in 0..10 {
            assert_query_matches(&engine, &st, &m, Target::Row(r), &mut scratch);
        }
        assert_eq!(engine.counters(), (1, 1 + 3 * scans, 4 * scans));
    }

    #[test]
    fn kind_resolution() {
        let small = DataMatrix::builder(10, 10).build();
        let large = DataMatrix::builder(200, 50).build();
        assert!(!GainEngineKind::Auto.use_incremental(&small));
        assert!(GainEngineKind::Auto.use_incremental(&large));
        assert!(!GainEngineKind::Exact.use_incremental(&large));
        assert!(GainEngineKind::Incremental.use_incremental(&small));
        assert_eq!(GainEngineKind::default(), GainEngineKind::Auto);
        assert_eq!(GainEngineKind::Incremental.to_string(), "incremental");
    }

    #[test]
    fn dim_index_queries_match_naive() {
        for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
            let mut d = DimIndex::default();
            for (i, v) in [3.0, -1.5, 0.0, 7.25, -1.5, 2.0].iter().enumerate() {
                d.push(*v, i as u32);
            }
            d.finish(mean);
            for t in [-3.0, -1.5, 0.0, 1.9, 7.25, 10.0] {
                let naive: f64 = d.vals.iter().map(|&s| mean.entry_term(s - t)).sum();
                assert!((d.query(t, mean) - naive).abs() < 1e-12, "{mean:?} at {t}");
            }
            assert_eq!(DimIndex::default().query(1.0, mean), 0.0);
        }
    }

    /// In-place insert/remove repair is bit-identical to a fresh
    /// `assign_sorted` of the same entries under both means, over a long
    /// random walk on a line of several hundred entries with many tied
    /// values.
    #[test]
    fn dim_index_repairs_match_a_fresh_build_bit_for_bit() {
        for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
            let mut rng = StdRng::seed_from_u64(13);
            // Few distinct values (so ties are common), none exact in binary.
            let draw = |rng: &mut StdRng| rng.gen_range(-25i32..25) as f64 * 0.37 + 0.1;
            let mut live: Vec<(f64, u32)> = (0..400).map(|id| (draw(&mut rng), id)).collect();
            let mut next_id = live.len() as u32;
            let mut d = DimIndex::default();
            d.assign_sorted(&mut live.clone(), mean);
            let mut fresh = DimIndex::default();
            for step in 0..2_500 {
                let grow = live.len() < 300 || (live.len() < 500 && rng.gen_bool(0.5));
                if grow {
                    let entry = (draw(&mut rng), next_id);
                    next_id += 1;
                    live.push(entry);
                    d.insert(entry.0, entry.1, mean);
                } else {
                    let (val, id) = live.swap_remove(rng.gen_range(0..live.len()));
                    d.remove(val, id, mean);
                }
                fresh.assign_sorted(&mut live.clone(), mean);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&d.vals), bits(&fresh.vals), "vals, step {step}");
                assert_eq!(d.ids, fresh.ids, "ids, step {step}");
                assert_eq!(
                    d.pre.len(),
                    (live.len() + 1) * prefix_width(mean),
                    "{mean:?}"
                );
                assert_eq!(
                    bits(&d.pre),
                    bits(&fresh.pre),
                    "prefixes, step {step} ({mean:?})"
                );
            }
        }
    }

    #[test]
    fn dim_index_insert_remove_roundtrip() {
        let mean = ResidueMean::Arithmetic;
        let mut d = DimIndex::default();
        d.push(1.0, 4);
        d.push(-2.0, 1);
        d.push(1.0, 2);
        d.finish(mean);
        d.insert(0.5, 9, mean);
        d.insert(1.0, 3, mean); // tie on value, id orders it between 2 and 4
        assert_eq!(d.ids, vec![1, 9, 2, 3, 4]);
        d.remove(1.0, 3, mean);
        d.remove(-2.0, 1, mean);
        assert_eq!(d.ids, vec![9, 2, 4]);
        let naive: f64 = d.vals.iter().map(|&s| (s - 0.3).abs()).sum();
        assert!((d.query(0.3, mean) - naive).abs() < 1e-12);
    }

    /// The one-pass bucketed per-column rebuild lays out every column
    /// exactly as a column-major build sorting each column on its own.
    #[test]
    fn by_col_rebuild_matches_a_column_major_build() {
        let m = random_matrix(70, 9, 0.8, 21);
        let cluster =
            DeltaCluster::from_indices(70, 9, (0..70).filter(|r| r % 3 != 1), [0, 2, 3, 7]);
        let st = ClusterState::new(&m, &cluster);
        for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
            let mut ci = ClusterIndex::new(&m);
            ci.rebuild_by_col(&m, &st, mean, &mut Buckets::default());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for j in 0..9 {
                let mut want = DimIndex::default();
                if st.cols.contains(j) {
                    let mut column: Vec<(f64, u32)> = m
                        .col_specified_in(j, &st.rows)
                        .map(|(i, v)| (v - st.row_sum(i) / st.row_specified(i) as f64, i as u32))
                        .collect();
                    want.assign_sorted(&mut column, mean);
                }
                let got = &ci.by_col[j];
                assert_eq!(bits(&got.vals), bits(&want.vals), "col {j} ({mean:?})");
                assert_eq!(got.ids, want.ids, "col {j} ({mean:?})");
                assert_eq!(bits(&got.pre), bits(&want.pre), "col {j} ({mean:?})");
            }
        }
    }

    /// With the target's line read, scoring it against every cluster of a
    /// fresh engine and applying it reads no further block.
    #[test]
    fn scoring_and_applying_a_target_reuse_its_one_line() {
        let mem = random_matrix(40, 12, 0.85, 5);
        let dir = std::env::temp_dir().join(format!("dc-floc-line-reads-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cells = (0..40 * 12).map(|i| mem.get(i / 12, i % 12)).collect();
        let m = DataMatrix::builder(40, 12)
            .paged(&dir)
            .chunk_rows(4)
            .cache_blocks(Some(1))
            .from_options(cells)
            .unwrap();
        let clusters = [
            DeltaCluster::from_indices(40, 12, 0..20, 0..6),
            DeltaCluster::from_indices(40, 12, (0..40).step_by(3), [1, 4, 7, 10]),
            DeltaCluster::from_indices(40, 12, 25..40, 5..12),
        ];
        let mut scratch = Scratch::default();
        for target in [
            Target::Row(2),
            Target::Row(30),
            Target::Col(0),
            Target::Col(9),
        ] {
            for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
                let mut states: Vec<_> =
                    clusters.iter().map(|c| ClusterState::new(&m, c)).collect();
                let mut engine = IncrementalEngine::build(&m, &states, mean);
                let line = target.line(&m);
                let read = m.storage_backend().io_stats();
                for (c, st) in states.iter().enumerate() {
                    engine.toggled_residue(c, target, &line, st, &m, &mut scratch);
                }
                let action = Action { target, cluster: 1 };
                engine.apply(&line, &states[1], action);
                crate::action::apply(&mut states, action, &line);
                assert_eq!(
                    m.storage_backend().io_stats(),
                    read,
                    "{target:?} ({mean:?})"
                );
                assert_eq!(engine.counters().2, 0, "a fresh engine scans nothing");
            }
        }
        drop(m);
        let _ = std::fs::remove_dir_all(dir);
    }
}

//! Pluggable gain engines: exact rescans vs incremental sorted-residue
//! indexes.
//!
//! FLOC's per-iteration cost is dominated by gain evaluation: each of the
//! `(N+M)·k` candidate actions asks "what would cluster `c`'s residue be
//! with row/column `x` toggled?", and the exact answer
//! ([`ClusterState::residue_if_row_toggled`]) rescans the whole `|I|·|J|`
//! submatrix. The [`IncrementalEngine`] answers the same question from one
//! side of per-line sorted indexes per cluster, exploiting a structural
//! fact of the residue model:
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
//!   (n−lo)·t)` where `lo = #{s < t}` from a search that gallops from
//!   where the last one on the line landed (`t` moves little from one
//!   target to the next);
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
//! ## One side, oriented by shape
//!
//! Symmetrically, toggling column `y` leaves every column base `d_Ij`
//! unchanged, so lines along rows holding `u_ij = d_ij − d_Ij` answer
//! column toggles by the same closed form. Each cluster keeps one of the
//! two sides, chosen by the matrix shape (`Lines::for_shape`): lines
//! along columns (sorted `s`) when `rows ≥ cols`, along rows (sorted `u`)
//! otherwise. Toggles *across* the lines — rows on a tall matrix — are
//! then the more numerous kind, and answer in `O(lines · log)`.
//!
//! A toggle *along* the lines — column `y` when lines run along columns —
//! adds or removes a whole line and moves every row base from `d_iJ` to
//! `d_iJ′`. Every other entry's new residue is still a stored value plus
//! two shifts:
//!
//! ```text
//! d_ij − d_iJ′ − d_Ij + d_IJ′  =  s_ij + shift_i − t_j,
//!     shift_i = d_iJ − d_iJ′,   t_j = d_Ij − d_IJ′
//! ```
//!
//! so one pass over the side's entries, `Σ term(s + shift[id] − t_line)`,
//! answers it. `shift` comes from the cluster's sums and the target's
//! line, and the pass reads nothing else from the matrix. It sums in its
//! own order, so it agrees with the exact scanner to rounding (~1e-12)
//! rather than bit for bit; closed-form answers are unaffected.
//!
//! ## Maintenance across applies
//!
//! * **Across the lines:** [`IncrementalEngine::apply`] repairs the side
//!   in place — only the target's entries enter or leave, every other
//!   stored value is untouched. Each line's insert/remove shifts the
//!   sorted arrays and overwrites the prefix sums from the changed position
//!   on, in the same summation order as a fresh build, so a repaired line
//!   is bit-identical to a rebuilt one.
//! * **Along the lines:** every stored value shifts, so the side goes
//!   *stale*. A stale side is not repaired by applies and answers no
//!   query: the next [`IncrementalEngine::prepare`], which the driver
//!   calls before every round of queries, rebuilds it. Several along
//!   applies between two `prepare`s cost one rebuild, and
//!   [`IncrementalEngine::toggled_residue`] panics on a stale side rather
//!   than answer from it.
//!
//! ## Reads
//!
//! A query, [`IncrementalEngine::apply`] and the matching
//! [`ClusterState`] toggle all take the target's [`dc_matrix::Line`]
//! ([`Target::line`]), so one action reads its target once, however many
//! clusters score it. Rebuilds read the cluster row by row in either
//! orientation — lines along columns bucket the entries by column in one
//! row-major pass — so on the paged backend a rebuild reads each block
//! once rather than once per column. Each line is then sorted by
//! distributing its entries over equal-width value buckets, falling back
//! to a comparison sort on lines it cannot split well; the `(value, id)`
//! keys are unique, so both sorts give the same line. Each build worker
//! and each lane's engine owns one bucket buffer (`Buckets`) for every
//! rebuild it runs.
//!
//! The driver rebuilds the whole engine from the canonical cluster states
//! at every iteration boundary — the *drift guard* that keeps long runs
//! (and checkpoint/resume) anchored to the exact statistics.

use crate::action::{Action, Target};
use crate::residue::ResidueMean;
use crate::stats::{Axis, ClusterState, Scratch};
use dc_matrix::{DataMatrix, Line};
use serde::{Deserialize, Serialize};

/// Matrices with at least this many cells default to the incremental
/// engine under [`GainEngineKind::Auto`]. Below it the exact scanner is
/// both fast enough and free of index-maintenance overhead.
pub const AUTO_INCREMENTAL_CELLS: usize = 10_000;

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

/// Which way a cluster's index lines run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lines {
    /// One line per column, holding the sorted `s_ij = d_ij − d_iJ` of its
    /// rows: closed-form row toggles, streamed column toggles.
    Cols,
    /// One line per row, holding the sorted `u_ij = d_ij − d_Ij` of its
    /// columns: closed-form column toggles, streamed row toggles.
    Rows,
}

impl Lines {
    /// One line per member of the shorter axis — per column when
    /// `rows ≥ cols`, per row otherwise — so the toggles across the lines,
    /// the closed-form kind, are the more numerous.
    pub(crate) fn for_shape(rows: usize, cols: usize) -> Lines {
        if rows >= cols {
            Lines::Cols
        } else {
            Lines::Rows
        }
    }

    /// The cluster's `(line axis, entry axis)`: the axis whose members own
    /// a line, and the axis the line's entry ids come from.
    fn axes(self, st: &ClusterState) -> (Axis<'_>, Axis<'_>) {
        match self {
            Lines::Cols => (st.col_axis(), st.row_axis()),
            Lines::Rows => (st.row_axis(), st.col_axis()),
        }
    }

    /// Whether `target` toggles across the lines (an entry-axis member)
    /// rather than along them (a whole line).
    fn across(self, target: Target) -> bool {
        target.is_row() == (self == Lines::Cols)
    }
}

/// The residue term of a cell that enters the cluster with the toggled
/// target: `v − d_i − d_j + base`, with the target's own base on its axis
/// and `other` on the other, in the exact scanner's order.
#[inline]
fn entering_term(
    mean: ResidueMean,
    target: Target,
    v: f64,
    own: f64,
    other: f64,
    base: f64,
) -> f64 {
    let (row_base, col_base) = if target.is_row() {
        (own, other)
    } else {
        (other, own)
    };
    mean.entry_term(v - row_base - col_base + base)
}

/// Sorted shift-invariant residues of one matrix line (a column's `s`
/// values or a row's `u` values) with prefix partial sums.
#[derive(Debug, Clone, Default)]
struct DimIndex {
    /// Invariant residues, ascending (ties broken by id).
    vals: Vec<f64>,
    /// Entry-axis id (row id on a column line, column id on a row line),
    /// aligned with `vals`.
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

/// The `(value, id)` order of a line's entries.
fn cmp_entries(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Lines shorter than this sort by comparison: the bucket sort's passes
/// cost more than they save.
const BUCKET_SORT_MIN_LEN: usize = 64;

/// A bucket holding more entries than this sends its line back to the
/// comparison sort, since the final insertion pass is quadratic in a
/// bucket's size (many tied values land in one bucket).
const BUCKET_MAX_LEN: usize = 32;

/// Scratch of the line sort, owned with a rebuild's [`Buckets`].
#[derive(Debug, Default)]
struct LineSort {
    /// Each entry's value bucket.
    keys: Vec<u32>,
    /// Per-bucket counts, then write cursors.
    starts: Vec<u32>,
}

/// Sorts `buf` by `(value, id)` into `vals` / `ids` with `buf.len()`
/// equal-width value buckets: a counting pass, a scatter, and one
/// insertion pass that only has to order each bucket, since the bucket
/// index never decreases as the value grows. Returns `false`, having
/// written nothing, for a line it leaves to the comparison sort: a short
/// line, a non-finite value, a range too narrow to split, or a crowded
/// bucket.
fn bucket_sort(
    buf: &[(f64, u32)],
    vals: &mut Vec<f64>,
    ids: &mut Vec<u32>,
    sort: &mut LineSort,
) -> bool {
    let n = buf.len();
    if n < BUCKET_SORT_MIN_LEN {
        return false;
    }
    let (mut min, mut max, mut finite) = (buf[0].0, buf[0].0, true);
    for &(v, _) in buf {
        if v < min {
            min = v;
        }
        if v > max {
            max = v;
        }
        finite &= v.is_finite();
    }
    let scale = n as f64 / (max - min);
    if !(finite && scale.is_finite() && scale > 0.0) {
        return false; // a non-finite value, or all values (nearly) equal
    }
    // Monotone in the value: a subtraction, a positive scaling, the cap
    // and the truncation each keep order, and ±0.0 share a bucket.
    let top = (n - 1) as f64;
    let LineSort { keys, starts } = sort;
    keys.clear();
    keys.extend(
        buf.iter()
            .map(|&(v, _)| ((v - min) * scale).min(top) as u32),
    );
    starts.clear();
    starts.resize(n, 0);
    for &k in keys.iter() {
        starts[k as usize] += 1;
    }
    if starts.iter().any(|&c| c as usize > BUCKET_MAX_LEN) {
        return false;
    }
    let mut end = 0;
    for s in starts.iter_mut() {
        let count = *s;
        *s = end;
        end += count;
    }
    vals.clear();
    vals.resize(n, 0.0);
    ids.clear();
    ids.resize(n, 0);
    for (&(v, id), &k) in buf.iter().zip(keys.iter()) {
        let slot = &mut starts[k as usize];
        vals[*slot as usize] = v;
        ids[*slot as usize] = id;
        *slot += 1;
    }
    // Every entry is out of place only within its bucket.
    for i in 1..n {
        let key = (vals[i], ids[i]);
        if vals[i - 1] < key.0 {
            continue; // already in order, the common case
        }
        let mut j = i;
        while j > 0 && cmp_entries(&key, &(vals[j - 1], ids[j - 1])).is_lt() {
            vals[j] = vals[j - 1];
            ids[j] = ids[j - 1];
            j -= 1;
        }
        vals[j] = key.0;
        ids[j] = key.1;
    }
    true
}

/// `vals.partition_point(|&s| s < t)` on a line sorted by `total_cmp`,
/// found by galloping from `hint` to a bracket and binary searching
/// inside it. `s < t` is monotone along such a line (±0.0 compare equal,
/// and lines hold no NaN), so its partition point is unique and the
/// answer does not depend on where the search starts; a hint near the
/// answer only makes it cheap.
fn partition_from(vals: &[f64], t: f64, hint: usize) -> usize {
    let hint = hint.min(vals.len());
    // The answer lies in lo..=hi: vals[..lo] < t and vals[hi..] >= t.
    let (mut lo, mut hi) = (0, vals.len());
    let mut step = 1;
    if vals.get(hint).is_some_and(|&s| s < t) {
        lo = hint + 1;
        while let Some(&s) = vals.get(lo + step - 1) {
            if s < t {
                lo += step;
                step *= 2;
            } else {
                hi = lo + step - 1;
                break;
            }
        }
    } else {
        hi = hint;
        while step <= hi {
            if vals[hi - step] < t {
                lo = hi - step + 1;
                break;
            }
            hi -= step;
            step *= 2;
        }
    }
    lo + vals[lo..hi].partition_point(|&s| s < t)
}

impl DimIndex {
    fn clear(&mut self) {
        self.vals.clear();
        self.ids.clear();
        self.pre.clear();
    }

    /// Replaces the contents from a caller-owned buffer of `(value, id)`
    /// pairs, sorted by `(value, id)`, reusing this index's allocations and
    /// the caller's `sort` scratch across rebuilds. Ids are unique, so the
    /// `(value, id)` keys are, and every correct sort lays the line out the
    /// same: the bucket sort and its comparison-sort fallback agree bit for
    /// bit.
    fn assign_sorted(&mut self, buf: &mut [(f64, u32)], sort: &mut LineSort, mean: ResidueMean) {
        if !bucket_sort(buf, &mut self.vals, &mut self.ids, sort) {
            buf.sort_unstable_by(cmp_entries);
            self.vals.clear();
            self.ids.clear();
            self.vals.extend(buf.iter().map(|p| p.0));
            self.ids.extend(buf.iter().map(|p| p.1));
        }
        self.rebuild_prefixes(mean);
    }

    fn rebuild_prefixes(&mut self, mean: ResidueMean) {
        self.pre.clear();
        self.pre
            .resize((self.vals.len() + 1) * prefix_width(mean), 0.0);
        self.repair_prefixes_from(0, mean);
    }

    /// First position at or after which `(val, id)` sorts: one binary
    /// search on the `(value, id)` key, however many stored values tie
    /// with `val`.
    fn position(&self, val: f64, id: u32) -> usize {
        let (mut lo, mut hi) = (0, self.vals.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let key = (self.vals[mid], self.ids[mid]);
            if cmp_entries(&key, &(val, id)).is_lt() {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
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

    /// `Σ term(vals[i] − t)` over every entry, in `O(log d)` (arithmetic,
    /// d the distance from `hint` to the answer) or `O(1)` (squared).
    /// `hint` is where the arithmetic mean's search starts, and it is left
    /// at the search's answer for the next query on this line.
    #[inline]
    fn query(&self, t: f64, mean: ResidueMean, hint: &mut u32) -> f64 {
        let n = self.vals.len();
        if n == 0 {
            return 0.0;
        }
        match mean {
            ResidueMean::Arithmetic => {
                let lo = partition_from(&self.vals, t, *hint as usize);
                *hint = lo as u32;
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

    /// `Σ term(vals[i] + shift[ids[i]] − t)` over every entry, in `O(n)`:
    /// the line's share of an answer along the lines.
    #[inline]
    fn stream(&self, shift: &[f64], t: f64, mean: ResidueMean) -> f64 {
        let entries = self.vals.iter().zip(&self.ids);
        let shifted = entries.map(|(&s, &id)| s + shift[id as usize] - t);
        match mean {
            ResidueMean::Arithmetic => shifted.map(f64::abs).sum(),
            ResidueMean::Squared => shifted.map(|r| r * r).sum(),
        }
    }
}

/// The index side of one cluster.
#[derive(Debug)]
pub(crate) struct ClusterIndex {
    /// One sorted line per member of the line axis ([`Lines`]), over the
    /// cluster's entry-axis members. Empty for non-members.
    lines: Vec<DimIndex>,
    /// An along apply changed the cluster since `lines` were built; the
    /// next [`IncrementalEngine::prepare`] rebuilds them.
    stale: bool,
}

/// Scratch a rebuild fills, owned once per build worker or lane and
/// reused across every rebuild it runs, so steady-state rebuilds allocate
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct Buckets {
    /// `(value, id)` entries: a column-line rebuild's buckets laid end to
    /// end, or one row's entries in a row-line rebuild.
    entries: Vec<(f64, u32)>,
    /// Per-column write cursors into `entries` (column lines).
    next: Vec<usize>,
    /// Column bases hoisted out of the entry loop, one division per member
    /// column instead of one per entry (row lines).
    base: Vec<f64>,
    /// The line sort's scratch (`DimIndex::assign_sorted`).
    sort: LineSort,
}

impl ClusterIndex {
    fn new(matrix: &DataMatrix, lines: Lines) -> Self {
        let n = match lines {
            Lines::Cols => matrix.cols(),
            Lines::Rows => matrix.rows(),
        };
        ClusterIndex {
            lines: vec![DimIndex::default(); n],
            stale: true,
        }
    }

    fn rebuild(
        &mut self,
        matrix: &DataMatrix,
        st: &ClusterState,
        layout: Layout,
        buf: &mut Buckets,
    ) {
        for d in &mut self.lines {
            d.clear();
        }
        match layout.lines {
            Lines::Cols => self.rebuild_cols(matrix, st, layout.mean, buf),
            Lines::Rows => self.rebuild_rows(matrix, st, layout.mean, buf),
        }
        self.stale = false;
    }

    /// Rebuilds column lines in one row-major pass: every entry of the
    /// cluster goes to its column's bucket (a counting sort on the known
    /// column counts), then each bucket is sorted by `(value, id)`. Ids
    /// are unique within a bucket, so the order the pass fills it in never
    /// shows.
    fn rebuild_cols(
        &mut self,
        matrix: &DataMatrix,
        st: &ClusterState,
        mean: ResidueMean,
        buf: &mut Buckets,
    ) {
        let Buckets {
            entries,
            next,
            sort,
            ..
        } = buf;
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
            self.lines[j].assign_sorted(&mut entries[start..next[j]], sort, mean);
            start = next[j];
        }
    }

    /// Rebuilds row lines one row at a time.
    fn rebuild_rows(
        &mut self,
        matrix: &DataMatrix,
        st: &ClusterState,
        mean: ResidueMean,
        buf: &mut Buckets,
    ) {
        let Buckets {
            entries,
            base,
            sort,
            ..
        } = buf;
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
            self.lines[i].assign_sorted(entries, sort, mean);
        }
    }
}

/// How an engine's indexes are laid out: the mean their prefixes serve
/// and the way their lines run. Fixed when the engine is built.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    mean: ResidueMean,
    lines: Lines,
}

/// Incremental gain engine: per-cluster sorted-residue indexes answering
/// virtual-toggle residues without rescanning the cluster submatrix.
///
/// Built from the canonical [`ClusterState`]s at each iteration boundary;
/// the FLOC loop calls [`Self::prepare`] before querying,
/// [`Self::toggled_residue`] for gains, and [`Self::apply`] (just before
/// the matching [`ClusterState`] toggle) to keep the indexes in step.
/// Queries take `&self`, so evaluation parallelizes exactly like the exact
/// scanner.
#[derive(Debug)]
pub struct IncrementalEngine {
    clusters: Vec<ClusterIndex>,
    layout: Layout,
    /// Rebuilds of sides an along apply invalidated, performed by
    /// [`Self::prepare`].
    stale_rebuilds: u64,
    /// In-place repairs performed by [`Self::apply`].
    repairs: u64,
    /// The rebuild scratch of whoever runs this engine's rebuilds.
    buf: Buckets,
}

impl IncrementalEngine {
    /// Builds the index side of every cluster, its lines oriented by the
    /// matrix shape (`Lines::for_shape`). `O(Σ volume · log)`.
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
        let layout = Layout {
            mean,
            lines: Lines::for_shape(matrix.rows(), matrix.cols()),
        };
        let mut engine = IncrementalEngine {
            clusters: states
                .iter()
                .map(|_| ClusterIndex::new(matrix, layout.lines))
                .collect(),
            layout,
            stale_rebuilds: 0,
            repairs: 0,
            buf: Buckets::default(),
        };
        let threads = threads.max(1).min(states.len().max(1));
        if threads <= 1 || states.len() < 2 {
            for (ci, st) in engine.clusters.iter_mut().zip(states) {
                ci.rebuild(matrix, st, layout, &mut engine.buf);
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
                        ci.rebuild(matrix, st, layout, &mut buf);
                    }
                });
            }
        });
        engine
    }

    /// Takes the engine apart into its per-cluster indexes, in cluster
    /// order, its layout and its [`Self::counters`], so the perform loop
    /// can hand each lane its own clusters' indexes.
    pub(crate) fn into_parts(self) -> (Vec<ClusterIndex>, Layout, (u64, u64)) {
        let counters = self.counters();
        (self.clusters, self.layout, counters)
    }

    /// An engine over `clusters` (given their states in the same order)
    /// that answers, prepares and applies for them exactly as the engine
    /// they came from did.
    pub(crate) fn from_parts(
        clusters: Vec<ClusterIndex>,
        layout: Layout,
        (stale_rebuilds, repairs): (u64, u64),
    ) -> Self {
        IncrementalEngine {
            clusters,
            layout,
            stale_rebuilds,
            repairs,
            buf: Buckets::default(),
        }
    }

    /// Rebuilds every stale index side, so each query that follows
    /// answers from a side in step with its cluster; fresh sides are
    /// untouched. The only place a side is rebuilt after [`Self::build`].
    pub fn prepare(&mut self, matrix: &DataMatrix, states: &[ClusterState]) {
        for (ci, st) in self.clusters.iter_mut().zip(states) {
            if ci.stale {
                ci.rebuild(matrix, st, self.layout, &mut self.buf);
                self.stale_rebuilds += 1;
            }
        }
    }

    /// Maintenance tallies since [`Self::build`]: `(stale_rebuilds,
    /// repairs)` — rebuilds of sides an along apply invalidated, in
    /// [`Self::prepare`], and in-place repairs in [`Self::apply`].
    /// Read-only diagnostics for observability; they never influence the
    /// search.
    pub fn counters(&self) -> (u64, u64) {
        (self.stale_rebuilds, self.repairs)
    }

    /// The residue cluster `cluster` would have with `target` toggled —
    /// the incremental counterpart of [`ClusterState::residue_if_row_toggled`] /
    /// [`ClusterState::residue_if_col_toggled`]. `line` is the target's
    /// line ([`Target::line`]), the only read of the target's values. `st`
    /// must be the state the engine's indexes were built/repaired against.
    /// A toggle across the lines answers in closed form, one along them by
    /// streaming the side's entries (`scratch` holds the shifts).
    ///
    /// # Panics
    /// Panics if the cluster's side is stale: call [`Self::prepare`] after
    /// the applies and before the queries.
    pub fn toggled_residue(
        &self,
        cluster: usize,
        target: Target,
        line: &Line,
        st: &ClusterState,
        scratch: &mut Scratch,
    ) -> f64 {
        let ci = &self.clusters[cluster];
        assert!(
            !ci.stale,
            "cluster {cluster}'s index side is stale: prepare before querying"
        );
        if self.layout.lines.across(target) {
            let hints = scratch.hints(cluster, ci.lines.len());
            self.residue_across(ci, target, line, st, hints)
        } else {
            self.residue_along(ci, target, line, st, scratch)
        }
    }

    /// The closed form for `target`, a member of the entry axis toggled
    /// across the lines: each line's stored values shift by one constant.
    /// `hints` holds one search start per line (`DimIndex::query`).
    fn residue_across(
        &self,
        ci: &ClusterIndex,
        target: Target,
        line: &Line,
        st: &ClusterState,
        hints: &mut [u32],
    ) -> f64 {
        let mean = self.layout.mean;
        let (lines, entries) = self.layout.lines.axes(st);
        let x = target.index();
        let adding = !entries.members.contains(x);
        let sign = if adding { 1.0 } else { -1.0 };

        // Word-block kernel; bit-identical to folding the line's entries.
        let (t_sum, t_cnt) = if adding {
            line.stats_in(lines.members)
        } else {
            (entries.sum[x], entries.cnt[x])
        };

        let new_volume = (st.volume() as i64 + sign as i64 * t_cnt as i64) as usize;
        if new_volume == 0 {
            return 0.0;
        }
        let new_total = st.total() + sign * t_sum;
        let base = new_total / new_volume as f64;

        // The target's base before (for cancelling stored entries) and after.
        let old_tb = if entries.cnt[x] > 0 {
            entries.sum[x] / entries.cnt[x] as f64
        } else {
            0.0 // unused: x then has no stored entries
        };
        let new_tb = if t_cnt == 0 {
            base
        } else {
            t_sum / t_cnt as f64
        };

        let xvals = line.values();
        let mut sum = 0.0;
        for j in lines.members.iter() {
            let spec = line.is_specified(j);
            let (mut ls, mut ln) = (lines.sum[j], lines.cnt[j] as i64);
            let v = xvals.get(j);
            if spec {
                ls += sign * v;
                ln += sign as i64;
            }
            let line_base = if ln <= 0 { base } else { ls / ln as f64 };
            let t = line_base - base;
            sum += ci.lines[j].query(t, mean, &mut hints[j]);
            if spec {
                if adding {
                    sum += entering_term(mean, target, v, new_tb, line_base, base);
                } else {
                    // The index still contains x's entry; cancel it.
                    sum -= mean.entry_term((v - old_tb) - t);
                }
            }
        }
        sum / new_volume as f64
    }

    /// The stream for `target`, a whole line toggled along the lines: one
    /// pass over every other line's entries, each shifted by its entry's
    /// base change.
    fn residue_along(
        &self,
        ci: &ClusterIndex,
        target: Target,
        line: &Line,
        st: &ClusterState,
        scratch: &mut Scratch,
    ) -> f64 {
        let mean = self.layout.mean;
        let (lines, entries) = self.layout.lines.axes(st);
        let y = target.index();
        let adding = !lines.members.contains(y);
        let sign = if adding { 1.0 } else { -1.0 };

        let (t_sum, t_cnt) = if adding {
            line.stats_in(entries.members)
        } else {
            (lines.sum[y], lines.cnt[y])
        };

        let new_volume = (st.volume() as i64 + sign as i64 * t_cnt as i64) as usize;
        if new_volume == 0 {
            return 0.0;
        }
        let new_total = st.total() + sign * t_sum;
        let base = new_total / new_volume as f64;
        let new_tb = if t_cnt == 0 {
            base
        } else {
            t_sum / t_cnt as f64
        };

        // Each entry-axis member's base moves only if the target's line
        // holds its cell; the cell itself enters here when adding.
        let yvals = line.values();
        let shift = scratch.shift(entries.sum.len());
        let mut sum = 0.0;
        for i in entries.members.iter() {
            shift[i] = 0.0;
            if !line.is_specified(i) {
                continue;
            }
            let (es, en) = (entries.sum[i], entries.cnt[i] as i64);
            let v = yvals.get(i);
            let (ns, nn) = (es + sign * v, en + sign as i64);
            let new_eb = if nn <= 0 { base } else { ns / nn as f64 };
            if en > 0 {
                shift[i] = es / en as f64 - new_eb;
            }
            if adding {
                sum += entering_term(mean, target, v, new_tb, new_eb, base);
            }
        }
        for j in lines.members.iter() {
            if j == y || lines.cnt[j] == 0 {
                continue; // leaving, or holds no entries
            }
            let t = lines.sum[j] / lines.cnt[j] as f64 - base;
            sum += ci.lines[j].stream(shift, t, mean);
        }
        sum / new_volume as f64
    }

    /// Brings the indexes in step with `action`, which the driver is about
    /// to perform; `line` is its target's line ([`Target::line`]). Must be
    /// called with the cluster's state *before* the toggle (the pre-toggle
    /// sums reproduce the stored values to remove).
    ///
    /// A toggle across the lines repairs the side in place
    /// (`O(line · lines)`); one along them marks it stale.
    pub fn apply(&mut self, line: &Line, st: &ClusterState, action: Action) {
        let Layout { mean, lines: kind } = self.layout;
        let ci = &mut self.clusters[action.cluster];
        if !kind.across(action.target) {
            ci.stale = true; // every entry's base shifts
            return;
        }
        if ci.stale {
            return; // rebuilt whole by the next prepare
        }
        self.repairs += 1;
        let x = action.target.index();
        let (lines, entries) = kind.axes(st);
        if entries.members.contains(x) {
            if entries.cnt[x] > 0 {
                let b = entries.sum[x] / entries.cnt[x] as f64;
                for (j, v) in line.specified_in(lines.members) {
                    ci.lines[j].remove(v - b, x as u32, mean);
                }
            }
        } else {
            let (t_sum, t_cnt) = line.stats_in(lines.members);
            if t_cnt > 0 {
                let b = t_sum / t_cnt as f64;
                for (j, v) in line.specified_in(lines.members) {
                    ci.lines[j].insert(v - b, x as u32, mean);
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
                engine.prepare(&m, std::slice::from_ref(&st));
                let exact = match target {
                    Target::Row(r) => {
                        st.residue_if_row_toggled(&m, r, &m.row_of(r), mean, &mut scratch)
                    }
                    Target::Col(c) => {
                        st.residue_if_col_toggled(&m, c, &m.col_of(c), mean, &mut scratch)
                    }
                };
                let incr = engine.toggled_residue(0, target, &target.line(&m), &st, &mut scratch);
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

    /// `rows × cols` matrices, in f64 and f32 storage, with whole rows
    /// unspecified, whole columns unspecified, and a checkerboard of gaps.
    fn gapped_matrices(rows: usize, cols: usize) -> Vec<(String, DataMatrix)> {
        let dense = random_matrix(rows, cols, 1.0, 31);
        type Gap = fn(usize, usize) -> bool;
        let gaps: [(&str, Gap); 3] = [
            ("row gaps", |r, _| r % 5 == 3),
            ("col gaps", |_, c| c % 4 == 1),
            ("checkerboard", |r, c| (r + c) % 2 == 0),
        ];
        let mut out = Vec::new();
        for (name, gap) in gaps {
            let mut m = dense.clone();
            for r in 0..rows {
                for c in 0..cols {
                    if gap(r, c) {
                        m.unset(r, c);
                    }
                }
            }
            let f32 = m.with_storage(dc_matrix::ValueStorage::F32).unwrap();
            out.push((format!("{name} f64"), m));
            out.push((format!("{name} f32"), f32));
        }
        out
    }

    /// A random walk of row and column toggles on a tall and a wide
    /// matrix (so over both line orientations), checked against an
    /// independent oracle: after every apply, every row and column query
    /// agrees with `cluster_residue` recomputed naively on the toggled
    /// `DeltaCluster`, which never goes through `ClusterState`.
    #[test]
    fn both_orientations_match_a_naive_oracle_along_a_walk() {
        use crate::residue::cluster_residue;
        for (rows, cols) in [(40, 12), (12, 40)] {
            for (name, m) in gapped_matrices(rows, cols) {
                for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
                    let mut truth = DeltaCluster::from_indices(
                        rows,
                        cols,
                        (0..rows).step_by(2),
                        (0..cols).step_by(3),
                    );
                    let mut states = vec![ClusterState::new(&m, &truth)];
                    let mut engine = IncrementalEngine::build(&m, &states, mean);
                    let mut rng = StdRng::seed_from_u64(rows as u64 * 1_000 + cols as u64);
                    let mut scratch = Scratch::default();
                    for step in 0..40 {
                        let target = if rng.gen_bool(0.5) {
                            Target::Row(rng.gen_range(0..rows))
                        } else {
                            Target::Col(rng.gen_range(0..cols))
                        };
                        let members = match target {
                            Target::Row(r) => (&truth.rows, r),
                            Target::Col(c) => (&truth.cols, c),
                        };
                        if members.0.contains(members.1) && members.0.len() <= 2 {
                            continue; // keep the cluster non-degenerate
                        }
                        let line = target.line(&m);
                        let action = Action { target, cluster: 0 };
                        engine.apply(&line, &states[0], action);
                        crate::action::apply(&mut states, action, &line);
                        match target {
                            Target::Row(r) => truth.rows.toggle(r),
                            Target::Col(c) => truth.cols.toggle(c),
                        };

                        engine.prepare(&m, &states);
                        let queries = (0..rows).map(Target::Row).chain((0..cols).map(Target::Col));
                        for q in queries {
                            let mut toggled = truth.clone();
                            match q {
                                Target::Row(r) => toggled.rows.toggle(r),
                                Target::Col(c) => toggled.cols.toggle(c),
                            };
                            let want = cluster_residue(&m, &toggled, mean);
                            let got =
                                engine.toggled_residue(0, q, &q.line(&m), &states[0], &mut scratch);
                            assert!(
                                (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                                "{rows}x{cols} {name} {mean:?} step {step} {q:?}: {got} vs {want}"
                            );
                        }
                    }
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
            Target::Row(r) => {
                st.residue_if_row_toggled(m, r, &m.row_of(r), engine.layout.mean, scratch)
            }
            Target::Col(c) => {
                st.residue_if_col_toggled(m, c, &m.col_of(c), engine.layout.mean, scratch)
            }
        };
        let incr = engine.toggled_residue(0, target, &target.line(m), st, scratch);
        assert_close(incr, exact, &format!("{target:?}"));
    }

    /// Toggles `t` on cluster 0 of `engine` and `st`, index first.
    fn toggle(engine: &mut IncrementalEngine, st: &mut ClusterState, m: &DataMatrix, t: Target) {
        let line = t.line(m);
        let action = Action {
            target: t,
            cluster: 0,
        };
        engine.apply(&line, st, action);
        crate::action::apply(std::slice::from_mut(st), action, &line);
    }

    /// `prepare`s, then checks every row and column query against the
    /// exact scanner.
    fn prepare_and_check_every_query(
        engine: &mut IncrementalEngine,
        st: &ClusterState,
        m: &DataMatrix,
        scratch: &mut Scratch,
    ) {
        engine.prepare(m, std::slice::from_ref(st));
        let every = (0..m.rows())
            .map(Target::Row)
            .chain((0..m.cols()).map(Target::Col));
        for t in every {
            assert_query_matches(engine, st, m, t, scratch);
        }
    }

    /// On a tall and a wide matrix: a toggle across the lines repairs the
    /// side in place; one along them marks it stale, and the next
    /// `prepare` rebuilds it exactly once, however many along toggles came
    /// before it. Every query after a `prepare` matches the exact scanner.
    #[test]
    fn side_repairs_across_and_rebuilds_along_once() {
        for (rows, cols) in [(10, 8), (8, 10)] {
            let m = random_matrix(rows, cols, 0.9, 11);
            let mut st = ClusterState::new(&m, &DeltaCluster::from_indices(rows, cols, 0..5, 0..4));
            let mut engine =
                IncrementalEngine::build(&m, std::slice::from_ref(&st), ResidueMean::Arithmetic);
            let mut scratch = Scratch::default();
            assert_eq!(engine.counters(), (0, 0), "fresh build starts clean");
            let (across, along) = match engine.layout.lines {
                Lines::Cols => (Target::Row(7), [6, 5, 6].map(Target::Col)),
                Lines::Rows => (Target::Col(7), [6, 5, 6].map(Target::Row)),
            };
            let what = format!("{rows}x{cols}");

            // Across the lines: an in-place repair, no rebuild.
            toggle(&mut engine, &mut st, &m, across);
            assert_eq!(engine.counters(), (0, 1), "{what}");
            prepare_and_check_every_query(&mut engine, &st, &m, &mut scratch);
            assert_eq!(engine.counters(), (0, 1), "{what}: repaired, not rebuilt");

            // Along the lines: the side goes stale without a repair, and
            // the next prepare rebuilds it once, before any query.
            toggle(&mut engine, &mut st, &m, along[0]);
            assert!(engine.clusters[0].stale, "{what}");
            assert_eq!(engine.counters(), (0, 1), "{what}");
            engine.prepare(&m, std::slice::from_ref(&st));
            assert!(!engine.clusters[0].stale, "{what}");
            assert_eq!(engine.counters(), (1, 1), "{what}: one rebuild");
            prepare_and_check_every_query(&mut engine, &st, &m, &mut scratch);
            assert_eq!(engine.counters(), (1, 1), "{what}: a fresh side stays");

            // Several along toggles between two prepares, with an across
            // toggle among them that a stale side skips: one rebuild.
            toggle(&mut engine, &mut st, &m, along[1]);
            toggle(&mut engine, &mut st, &m, across);
            toggle(&mut engine, &mut st, &m, along[2]);
            assert_eq!(engine.counters(), (1, 1), "{what}");
            prepare_and_check_every_query(&mut engine, &st, &m, &mut scratch);
            assert_eq!(engine.counters(), (2, 1), "{what}: one rebuild for three");
        }
    }

    /// A stale side answers no query: querying it before `prepare` panics.
    #[test]
    #[should_panic(expected = "stale")]
    fn querying_a_stale_side_before_prepare_panics() {
        let m = random_matrix(10, 8, 0.9, 11);
        let mut st = ClusterState::new(&m, &DeltaCluster::from_indices(10, 8, 0..5, 0..4));
        let mut engine =
            IncrementalEngine::build(&m, std::slice::from_ref(&st), ResidueMean::Arithmetic);
        toggle(&mut engine, &mut st, &m, Target::Col(6));
        let q = Target::Row(7);
        engine.toggled_residue(0, q, &q.line(&m), &st, &mut Scratch::default());
    }

    /// Lines run along columns unless the matrix is wider than tall; a
    /// square matrix keeps column lines.
    #[test]
    fn lines_follow_the_matrix_shape() {
        assert_eq!(Lines::for_shape(30_000, 100), Lines::Cols);
        assert_eq!(Lines::for_shape(943, 1_682), Lines::Rows);
        assert_eq!(Lines::for_shape(12, 12), Lines::Cols);
        let square =
            IncrementalEngine::build(&random_matrix(6, 6, 1.0, 3), &[], ResidueMean::Squared);
        assert_eq!(square.layout.lines, Lines::Cols);
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

    /// A line built through `assign_sorted` from `entries`.
    fn line_of(entries: &[(f64, u32)], mean: ResidueMean) -> DimIndex {
        let mut d = DimIndex::default();
        d.assign_sorted(&mut entries.to_vec(), &mut LineSort::default(), mean);
        d
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn dim_index_queries_match_naive() {
        for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
            let values = [3.0, -1.5, 0.0, 7.25, -1.5, 2.0];
            let entries: Vec<(f64, u32)> = (0..).zip(values).map(|(i, v)| (v, i)).collect();
            let d = line_of(&entries, mean);
            let mut hint = 0;
            for t in [-3.0, -1.5, 0.0, 1.9, 7.25, 10.0] {
                let naive: f64 = d.vals.iter().map(|&s| mean.entry_term(s - t)).sum();
                let got = d.query(t, mean, &mut hint);
                assert!((got - naive).abs() < 1e-12, "{mean:?} at {t}");
            }
            assert_eq!(DimIndex::default().query(1.0, mean, &mut 0), 0.0);
        }
    }

    /// The bucket sort lays out every line bit for bit as the comparison
    /// sort on `(total_cmp, id)` does, on the inputs that stress its
    /// bucketing, and it leaves exactly the lines it should to the
    /// fallback.
    #[test]
    fn bucket_sort_matches_the_comparison_sort_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(41);
        // (name, values, whether the bucket sort takes the line)
        let mut cases: Vec<(String, Vec<f64>, bool)> = Vec::new();
        let cut = BUCKET_SORT_MIN_LEN;
        for n in [0, 1, cut - 1, cut, cut + 1, 1_000] {
            let long = n >= cut;
            let uniform = (0..n).map(|_| rng.gen_range(-30.0..30.0)).collect();
            cases.push((format!("uniform {n}"), uniform, long));
            cases.push((format!("all equal {n}"), vec![2.5; n], false));
            let zeros = (0..n).map(|i| [0.0, -0.0][i % 2]).collect();
            cases.push((format!("±0.0 {n}"), zeros, false));
            let signed = (0..n)
                .map(|i| match i % 100 {
                    0 => 0.0,
                    50 => -0.0,
                    _ => rng.gen_range(-1.0..1.0),
                })
                .collect();
            cases.push((format!("±0.0 mixed {n}"), signed, long));
            let mut outlier: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            if let Some(v) = outlier.last_mut() {
                *v = 1e300; // every other value shares bucket 0
            }
            cases.push((format!("huge outlier {n}"), outlier, false));
            // n / range overflows: too narrow to split.
            let subnormal = (0..n)
                .map(|_| f64::from_bits(rng.gen_range(1..1u64 << 20)))
                .collect();
            cases.push((format!("subnormal {n}"), subnormal, false));
            // Eight values: at most 9 entries a bucket on the short lines,
            // 125 on the longest.
            let ties = (0..n)
                .map(|_| rng.gen_range(-4i32..4) as f64 * 0.37)
                .collect();
            cases.push((format!("few distinct {n}"), ties, long && n < 100));
        }
        let mut sort = LineSort::default();
        for (name, values, bucketed) in cases {
            let mut ids: Vec<u32> = (0..values.len() as u32).map(|i| i * 7 + 3).collect();
            for _ in 0..3 {
                // Ids in any order, unique.
                for i in (1..ids.len()).rev() {
                    ids.swap(i, rng.gen_range(0..=i));
                }
                let entries: Vec<(f64, u32)> = values.iter().copied().zip(ids.clone()).collect();
                let mut want = entries.clone();
                want.sort_unstable_by(cmp_entries);
                let want_vals: Vec<f64> = want.iter().map(|e| e.0).collect();
                let want_ids: Vec<u32> = want.iter().map(|e| e.1).collect();
                let (mut vals, mut got_ids) = (Vec::new(), Vec::new());
                let took = bucket_sort(&entries, &mut vals, &mut got_ids, &mut sort);
                assert_eq!(took, bucketed, "{name}");
                if took {
                    assert_eq!(bits(&vals), bits(&want_vals), "{name}");
                    assert_eq!(got_ids, want_ids, "{name}");
                } else {
                    assert!(
                        vals.is_empty() && got_ids.is_empty(),
                        "{name}: wrote on fallback"
                    );
                }
                for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
                    let d = line_of(&entries, mean);
                    assert_eq!(bits(&d.vals), bits(&want_vals), "{name} ({mean:?})");
                    assert_eq!(d.ids, want_ids, "{name} ({mean:?})");
                }
            }
        }
    }

    /// The galloping search finds `partition_point`'s answer from every
    /// start, with `t` below, at, between and above the stored values.
    #[test]
    fn galloping_search_matches_partition_point_from_every_hint() {
        let lines: [&[f64]; 5] = [
            &[],
            &[1.0],
            &[-3.0, -1.5, -1.5, -0.0, 0.0, 0.0, 2.0, 7.25, 7.25, 7.25, 9.0],
            &[4.0; 9],
            &[
                -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0,
            ],
        ];
        for vals in lines {
            let mut ts = vec![f64::NEG_INFINITY, -1e9, 1e9, f64::INFINITY];
            for w in vals.windows(2) {
                ts.push((w[0] + w[1]) / 2.0);
            }
            ts.extend(vals.iter().flat_map(|&v| [v, v - 0.25, v + 0.25, -v]));
            for t in ts {
                let want = vals.partition_point(|&s| s < t);
                for hint in 0..=vals.len() + 1 {
                    assert_eq!(
                        partition_from(vals, t, hint),
                        want,
                        "{vals:?} t {t} hint {hint}"
                    );
                }
            }
        }
    }

    /// An insert into or a removal from a 2,000-entry line of one value
    /// lands by id, as a fresh sort of the same entries would place it.
    #[test]
    fn position_on_an_all_tied_line_orders_by_id() {
        let mean = ResidueMean::Arithmetic;
        let entries: Vec<(f64, u32)> = (0..2_000).map(|i| (0.0, 2 * i)).collect();
        let mut d = line_of(&entries, mean);
        for (id, want) in [
            (0, 0),
            (1, 1),
            (1_999, 1_000),
            (3_998, 1_999),
            (4_001, 2_000),
        ] {
            assert_eq!(d.position(0.0, id), want, "id {id}");
        }
        assert_eq!(d.position(-0.0, 5), 0, "-0.0 sorts before every 0.0");
        assert_eq!(d.position(1e-300, 0), 2_000);
        d.insert(0.0, 1_001, mean);
        d.remove(0.0, 1_000, mean);
        let mut live = entries.clone();
        live.retain(|e| e.1 != 1_000);
        live.push((0.0, 1_001));
        let fresh = line_of(&live, mean);
        assert_eq!(d.ids, fresh.ids);
        assert_eq!(bits(&d.pre), bits(&fresh.pre));
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
            let mut d = line_of(&live, mean);
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
                let fresh = line_of(&live, mean);
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
        let mut d = line_of(&[(1.0, 4), (-2.0, 1), (1.0, 2)], mean);
        d.insert(0.5, 9, mean);
        d.insert(1.0, 3, mean); // tie on value, id orders it between 2 and 4
        assert_eq!(d.ids, vec![1, 9, 2, 3, 4]);
        d.remove(1.0, 3, mean);
        d.remove(-2.0, 1, mean);
        assert_eq!(d.ids, vec![9, 2, 4]);
        let naive: f64 = d.vals.iter().map(|&s| (s - 0.3).abs()).sum();
        assert!((d.query(0.3, mean, &mut 3) - naive).abs() < 1e-12);
    }

    /// The one-pass bucketed column-line rebuild lays out every column
    /// exactly as a column-major build sorting each column on its own.
    #[test]
    fn column_lines_rebuild_matches_a_column_major_build() {
        let m = random_matrix(70, 9, 0.8, 21);
        let cluster =
            DeltaCluster::from_indices(70, 9, (0..70).filter(|r| r % 3 != 1), [0, 2, 3, 7]);
        let st = ClusterState::new(&m, &cluster);
        for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
            let layout = Layout {
                mean,
                lines: Lines::Cols,
            };
            let mut ci = ClusterIndex::new(&m, layout.lines);
            ci.rebuild(&m, &st, layout, &mut Buckets::default());
            for j in 0..9 {
                let mut want = DimIndex::default();
                if st.cols.contains(j) {
                    let column: Vec<(f64, u32)> = m
                        .col_specified_in(j, &st.rows)
                        .map(|(i, v)| (v - st.row_sum(i) / st.row_specified(i) as f64, i as u32))
                        .collect();
                    want = line_of(&column, mean);
                }
                let got = &ci.lines[j];
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
                    engine.toggled_residue(c, target, &line, st, &mut scratch);
                }
                let action = Action { target, cluster: 1 };
                engine.apply(&line, &states[1], action);
                crate::action::apply(&mut states, action, &line);
                assert_eq!(
                    m.storage_backend().io_stats(),
                    read,
                    "{target:?} ({mean:?})"
                );
                assert_eq!(engine.counters().0, 0, "a fresh engine rebuilds nothing");
            }
        }
        // A column target scored after a row apply streams the column lines
        // the apply repaired, and reads no block after its own line.
        for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
            let mut states: Vec<_> = clusters.iter().map(|c| ClusterState::new(&m, c)).collect();
            let mut engine = IncrementalEngine::build(&m, &states, mean);
            assert_eq!(engine.layout.lines, Lines::Cols);
            let row = Action {
                target: Target::Row(30),
                cluster: 2,
            };
            let row_line = row.target.line(&m);
            engine.apply(&row_line, &states[2], row);
            crate::action::apply(&mut states, row, &row_line);
            let target = Target::Col(3);
            let line = target.line(&m);
            let read = m.storage_backend().io_stats();
            for (c, st) in states.iter().enumerate() {
                engine.toggled_residue(c, target, &line, st, &mut scratch);
            }
            assert_eq!(m.storage_backend().io_stats(), read, "{mean:?}");
            assert_eq!(engine.counters(), (0, 1), "{mean:?}: streamed, not rebuilt");
        }
        drop(m);
        let _ = std::fs::remove_dir_all(dir);
    }
}

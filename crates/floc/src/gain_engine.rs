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
//!
//! ## Shares
//!
//! The perform loop's lanes each hold a share of the engine
//! (`IncrementalEngine::split`): an even part of every large cluster's
//! member lines, or the whole of a small cluster. A query then splits into
//! a *prelude* every holder computes alike (`IncrementalEngine::prelude`),
//! per-line *terms* each holder posts for its own lines
//! (`IncrementalEngine::post_terms`), and a *replay* that adds the terms
//! in line order (`IncrementalEngine::replay`) — exactly the additions
//! [`IncrementalEngine::toggled_residue`], the same prelude and replay over
//! every line, makes, so every share count answers bit for bit alike.

use crate::action::{Action, Target};
use crate::residue::ResidueMean;
use crate::stats::{Axis, ClusterState, Scratch};
use dc_matrix::{BitSet, DataMatrix, Line, ValuesSlice};
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
    /// The member columns a lane holds of a shared cluster (column lines),
    /// so the fill pass reads only those.
    held: Option<BitSet>,
    /// The line sort's scratch (`DimIndex::assign_sorted`).
    sort: LineSort,
}

impl ClusterIndex {
    fn new(lines: usize) -> Self {
        ClusterIndex {
            lines: vec![DimIndex::default(); lines],
            stale: true,
        }
    }

    /// Rebuilds the `held` lines from `st` and empties the others.
    fn rebuild(
        &mut self,
        matrix: &DataMatrix,
        st: &ClusterState,
        layout: Layout,
        held: Held,
        buf: &mut Buckets,
    ) {
        for d in &mut self.lines {
            d.clear();
        }
        if !held.is_none() {
            match layout.lines {
                Lines::Cols => self.rebuild_cols(matrix, st, layout.mean, held, buf),
                Lines::Rows => self.rebuild_rows(matrix, st, layout.mean, held, buf),
            }
        }
        // A line left empty gives its memory back: after a rebuild moves a
        // line to another lane, only the lane that holds it keeps room for
        // it.
        for d in &mut self.lines {
            if d.vals.is_empty() {
                *d = DimIndex::default();
            }
        }
        self.stale = false;
    }

    /// Rebuilds the `held` column lines in one row-major pass: every entry
    /// of the cluster in such a column goes to its column's bucket (a counting
    /// sort on the known column counts), then each bucket is sorted by
    /// `(value, id)`. Ids are unique within a bucket, so the order the
    /// pass fills it in never shows.
    fn rebuild_cols(
        &mut self,
        matrix: &DataMatrix,
        st: &ClusterState,
        mean: ResidueMean,
        held: Held,
        buf: &mut Buckets,
    ) {
        let Buckets {
            entries,
            next,
            held: cols,
            sort,
            ..
        } = buf;
        let cols = if held.is_all() {
            &st.cols
        } else {
            // An engine's buffer serves one matrix, so one size fits.
            let cols = cols.get_or_insert_with(|| BitSet::new(matrix.cols()));
            cols.clear();
            for j in held.of(&st.cols) {
                cols.insert(j);
            }
            &*cols
        };
        next.clear();
        next.resize(matrix.cols(), 0);
        let mut end = 0;
        for j in cols.iter() {
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
            for (j, v) in matrix.row_specified_in(i, cols) {
                entries[next[j]] = (v - rb, i as u32);
                next[j] += 1;
            }
        }
        let mut start = 0;
        for j in cols.iter() {
            // Each cursor has advanced to its bucket's end.
            self.lines[j].assign_sorted(&mut entries[start..next[j]], sort, mean);
            start = next[j];
        }
    }

    /// Rebuilds the `held` row lines one row at a time.
    fn rebuild_rows(
        &mut self,
        matrix: &DataMatrix,
        st: &ClusterState,
        mean: ResidueMean,
        held: Held,
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
        for i in held.of(&st.rows) {
            entries.clear();
            for (j, v) in matrix.row_specified_in(i, &st.cols) {
                entries.push((v - base[j], j as u32));
            }
            self.lines[i].assign_sorted(entries, sort, mean);
        }
    }
}

/// A cluster with at least this many member lines is shared: each lane
/// holds a share of its member lines, [`line_owner`]. A smaller one is held
/// whole by one lane, [`cluster_owner`]: its lines are too few to pay for
/// every lane computing the cluster's prelude (the cost that sets a
/// 2-column cluster's score), so sharing them would only add work.
const SHARED_MIN_LINES: usize = 8;

/// The lane among `lanes` that holds a shared cluster's member line of
/// rank `rank` (its position among the cluster's member lines, in line
/// order), so each lane holds every `lanes`-th line and the split is even
/// whichever lines the cluster has. Only an along toggle changes the
/// member lines, and it leaves the cluster stale, so ranks hold from one
/// rebuild to the next.
pub(crate) fn line_owner(rank: usize, lanes: usize) -> usize {
    rank % lanes
}

/// The lane that holds every line of cluster `cluster` among `lanes` when
/// the cluster is not shared.
pub(crate) fn cluster_owner(cluster: usize, lanes: usize) -> usize {
    cluster % lanes
}

/// The member lines of one cluster an engine holds: every `step`-th, from
/// the one of rank `first`.
#[derive(Debug, Clone, Copy)]
struct Held {
    first: usize,
    step: usize,
}

impl Held {
    /// Every line: the whole engine, or the lane that holds the cluster
    /// whole.
    const ALL: Held = Held { first: 0, step: 1 };
    /// None: another lane holds the cluster whole.
    const NONE: Held = Held {
        first: usize::MAX,
        step: 1,
    };

    fn is_all(self) -> bool {
        self.first == 0 && self.step == 1
    }

    fn is_none(self) -> bool {
        self.first == usize::MAX
    }

    /// The held lines among `members`, in line order.
    fn of(self, members: &BitSet) -> impl Iterator<Item = usize> + '_ {
        members.iter().skip(self.first).step_by(self.step)
    }
}

/// Which member lines of `cluster` (whose state is `st`) an engine holds,
/// lane `lane` of `lanes` when it is a lane's share.
fn held(share: Option<(usize, usize)>, layout: Layout, cluster: usize, st: &ClusterState) -> Held {
    match share {
        None => Held::ALL,
        Some((lane, lanes)) if layout.shared(st) => Held {
            first: lane,
            step: lanes,
        },
        Some((lane, lanes)) if cluster_owner(cluster, lanes) == lane => Held::ALL,
        Some(_) => Held::NONE,
    }
}

/// How an engine's indexes are laid out: the mean their prefixes serve
/// and the way their lines run. Fixed when the engine is built.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    mean: ResidueMean,
    lines: Lines,
}

impl Layout {
    /// Whether lanes share `st`'s cluster line by line
    /// ([`SHARED_MIN_LINES`]). Only an along toggle changes a cluster's
    /// member lines, and it leaves the cluster stale, so the answer holds
    /// from one rebuild to the next.
    fn shared(self, st: &ClusterState) -> bool {
        self.lines.axes(st).0.members.len() >= SHARED_MIN_LINES
    }
}

/// What every holder of a cluster's lines computes alike for one
/// toggled-residue query, from the cluster's sums and the target's line
/// alone: the toggled cluster's volume and bases, and the sum the lines'
/// terms are added to. Only the lines' terms read the index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Prelude {
    target: Target,
    /// The target toggles across the lines (closed form), not along them
    /// (stream).
    across: bool,
    adding: bool,
    /// The cluster base after the toggle.
    base: f64,
    /// The target's own base before the toggle (across the lines, where
    /// removing cancels its stored entries) and after it.
    old_tb: f64,
    new_tb: f64,
    /// The sum before the first line's term: 0 across the lines, the
    /// entering cells' terms along them.
    start: f64,
    /// The cluster's volume after the toggle, at least 1.
    new_volume: usize,
}

impl Prelude {
    /// Whether line `j`, a member of the line axis `lines`, adds a term:
    /// every line across the lines; along them, every line but the
    /// target's own and those that hold no entries.
    #[inline]
    fn has_term(&self, lines: Axis, j: usize) -> bool {
        self.across || (j != self.target.index() && lines.cnt[j] != 0)
    }
}

/// One line's share of a toggled residue, added in this order: the index's
/// answer for the line, then its cell term. Across the lines, where the
/// target's line holds the line's cell, that is the cell's own term (the
/// entering cell's, or the negated term of the stored entry it cancels).
/// Elsewhere it is −0.0, the identity of IEEE addition (`x + −0.0` is `x`
/// for every `x`, signed zeros included), so adding it changes no bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Term {
    line: f64,
    cell: f64,
}

/// The cell term of a line without one.
const NO_CELL: f64 = -0.0;

impl Prelude {
    /// The values [`Term::post`] writes per line for this query: the line
    /// and cell terms across the lines, the line term alone along them.
    pub(crate) fn stride(&self) -> usize {
        1 + usize::from(self.across)
    }
}

impl Term {
    /// Appends the term to a lane's post, [`Prelude::stride`] values.
    #[inline]
    fn post(self, p: &Prelude, out: &mut Vec<f64>) {
        out.push(self.line);
        if p.across {
            out.push(self.cell);
        }
    }

    /// Reads back a term [`Term::post`] wrote for query `p` at the start
    /// of `post`.
    #[inline]
    pub(crate) fn read(p: &Prelude, post: &[f64]) -> Term {
        Term {
            line: post[0],
            cell: if p.across { post[1] } else { NO_CELL },
        }
    }
}

/// What a line's term reads for one query: the cluster's lines and sums,
/// the prelude and the target's line.
struct Query<'a> {
    ci: &'a ClusterIndex,
    p: &'a Prelude,
    lines: Axis<'a>,
    line: &'a Line<'a>,
    values: ValuesSlice<'a>,
    mean: ResidueMean,
}

impl Query<'_> {
    /// Line `j`'s term across the lines: the line's closed form at its
    /// shift `t`, plus the target's cell on the line. `hints` holds the
    /// cluster's search starts, one per line (`DimIndex::query`).
    #[inline]
    fn across(&self, j: usize, hints: &mut [u32]) -> Term {
        let p = self.p;
        let spec = self.line.is_specified(j);
        let (mut ls, mut ln) = (self.lines.sum[j], self.lines.cnt[j] as i64);
        let v = self.values.get(j);
        if spec {
            let sign = if p.adding { 1.0 } else { -1.0 };
            ls += sign * v;
            ln += sign as i64;
        }
        let line_base = if ln <= 0 { p.base } else { ls / ln as f64 };
        let t = line_base - p.base;
        let cell = if !spec {
            NO_CELL
        } else if p.adding {
            entering_term(self.mean, p.target, v, p.new_tb, line_base, p.base)
        } else {
            // The index still holds the target's entry; cancel it.
            -self.mean.entry_term((v - p.old_tb) - t)
        };
        Term {
            line: self.ci.lines[j].query(t, self.mean, &mut hints[j]),
            cell,
        }
    }

    /// Line `j`'s term along the lines: its entries streamed at their
    /// shifts (`shift`, filled by the prelude) and the line's own.
    #[inline]
    fn along(&self, j: usize, shift: &[f64]) -> Term {
        let t = self.lines.sum[j] / self.lines.cnt[j] as f64 - self.p.base;
        Term {
            line: self.ci.lines[j].stream(shift, t, self.mean),
            cell: NO_CELL,
        }
    }
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
///
/// The perform loop's lanes each hold a share of it: every lane an even
/// part of each large cluster's lines, one lane the whole of each small
/// cluster.
#[derive(Debug)]
pub struct IncrementalEngine {
    clusters: Vec<ClusterIndex>,
    layout: Layout,
    /// `(lane, lanes)` when the engine is a lane's share, which holds only
    /// that lane's lines ([`Self::split`]); `None` when it holds them all.
    share: Option<(usize, usize)>,
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
        let lines = match layout.lines {
            Lines::Cols => matrix.cols(),
            Lines::Rows => matrix.rows(),
        };
        let mut engine = IncrementalEngine {
            clusters: states.iter().map(|_| ClusterIndex::new(lines)).collect(),
            layout,
            share: None,
            stale_rebuilds: 0,
            repairs: 0,
            buf: Buckets::default(),
        };
        let threads = threads.max(1).min(states.len().max(1));
        if threads <= 1 || states.len() < 2 {
            for (ci, st) in engine.clusters.iter_mut().zip(states) {
                ci.rebuild(matrix, st, layout, Held::ALL, &mut engine.buf);
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
                        ci.rebuild(matrix, st, layout, Held::ALL, &mut buf);
                    }
                });
            }
        });
        engine
    }

    /// Splits the engine over `states` (the states it was built against)
    /// into `lanes` shares. A shared cluster's member line of rank `r`
    /// moves to share [`line_owner`]`(r, lanes)`; every line of any other
    /// cluster moves to share [`cluster_owner`]. Each share keeps the stale marks and the
    /// counters, and from then on prepares, answers and applies for its
    /// own lines only; every share counts every cluster's rebuilds and
    /// repairs, so each share's counters are the whole engine's.
    pub(crate) fn split(self, states: &[ClusterState], lanes: usize) -> Vec<IncrementalEngine> {
        if lanes <= 1 {
            return vec![self];
        }
        let n = self.line_count();
        let mut shares: Vec<IncrementalEngine> = (0..lanes)
            .map(|lane| IncrementalEngine {
                clusters: Vec::with_capacity(self.clusters.len()),
                layout: self.layout,
                share: Some((lane, lanes)),
                stale_rebuilds: self.stale_rebuilds,
                repairs: self.repairs,
                buf: Buckets::default(),
            })
            .collect();
        for (c, (mut ci, st)) in self.clusters.into_iter().zip(states).enumerate() {
            let shared = self.layout.shared(st);
            let mut parts: Vec<ClusterIndex> = (0..lanes)
                .map(|_| ClusterIndex {
                    lines: vec![DimIndex::default(); n],
                    stale: ci.stale,
                })
                .collect();
            // Only member lines hold entries.
            let (members, _) = self.layout.lines.axes(st);
            for (r, j) in members.members.iter().enumerate() {
                let owner = if shared {
                    line_owner(r, lanes)
                } else {
                    cluster_owner(c, lanes)
                };
                parts[owner].lines[j] = std::mem::take(&mut ci.lines[j]);
            }
            for (share, part) in shares.iter_mut().zip(parts) {
                share.clusters.push(part);
            }
        }
        shares
    }

    /// Whether the lanes share `st`'s cluster line by line (else one lane
    /// holds it whole).
    pub(crate) fn shared(&self, st: &ClusterState) -> bool {
        self.layout.shared(st)
    }

    /// The lines of `cluster` (whose state is `st`) this engine holds.
    fn held(&self, cluster: usize, st: &ClusterState) -> Held {
        held(self.share, self.layout, cluster, st)
    }

    /// The lines of each cluster's index, members or not.
    pub(crate) fn line_count(&self) -> usize {
        self.clusters.first().map_or(0, |ci| ci.lines.len())
    }

    /// The member lines of `states`' clusters this engine holds.
    pub(crate) fn held_lines(&self, states: &[ClusterState]) -> usize {
        (states.iter().enumerate())
            .map(|(c, st)| {
                let (lines, _) = self.layout.lines.axes(st);
                self.held(c, st).of(lines.members).count()
            })
            .sum()
    }

    /// Rebuilds the held lines of every stale index side, so each query
    /// that follows answers from a side in step with its cluster; fresh
    /// sides are untouched. The only place a side is rebuilt after
    /// [`Self::build`].
    pub fn prepare(&mut self, matrix: &DataMatrix, states: &[ClusterState]) {
        for (c, st) in states.iter().enumerate() {
            if self.clusters[c].stale {
                let held = held(self.share, self.layout, c, st);
                self.clusters[c].rebuild(matrix, st, self.layout, held, &mut self.buf);
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
    /// It is the lanes' prelude and replay with one lane holding every
    /// line: a lane's share answers it only for a cluster it holds whole.
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
        assert!(
            self.held(cluster, st).is_all(),
            "cluster {cluster} is not held whole here"
        );
        let Some(p) = self.prelude(cluster, target, line, st, scratch) else {
            return 0.0;
        };
        let q = self.query(cluster, &p, line, st);
        if p.across {
            let hints = scratch.hints(cluster, q.ci.lines.len());
            self.replay(&p, st, |_, j| q.across(j, hints))
        } else {
            let shift = self.shift(st, scratch);
            self.replay(&p, st, |_, j| q.along(j, shift))
        }
    }

    /// The prelude of `cluster`'s toggled residue with `target`, whose line
    /// is `line`; along the lines it also leaves each entry-axis member's
    /// base shift in `scratch`. `None` when the toggle empties the cluster,
    /// whose residue is then 0.
    ///
    /// # Panics
    /// Panics if the cluster's side is stale.
    pub(crate) fn prelude(
        &self,
        cluster: usize,
        target: Target,
        line: &Line,
        st: &ClusterState,
        scratch: &mut Scratch,
    ) -> Option<Prelude> {
        assert!(
            !self.clusters[cluster].stale,
            "cluster {cluster}'s index side is stale: prepare before querying"
        );
        let mean = self.layout.mean;
        let (lines, entries) = self.layout.lines.axes(st);
        let across = self.layout.lines.across(target);
        // The target's own axis, and the axis its line's cells run along.
        let (own, other) = if across {
            (entries, lines)
        } else {
            (lines, entries)
        };
        let x = target.index();
        let adding = !own.members.contains(x);
        let sign = if adding { 1.0 } else { -1.0 };

        // Word-block kernel; bit-identical to folding the line's entries.
        let (t_sum, t_cnt) = if adding {
            line.stats_in(other.members)
        } else {
            (own.sum[x], own.cnt[x])
        };

        let new_volume = (st.volume() as i64 + sign as i64 * t_cnt as i64) as usize;
        if new_volume == 0 {
            return None;
        }
        let new_total = st.total() + sign * t_sum;
        let base = new_total / new_volume as f64;
        let new_tb = if t_cnt == 0 {
            base
        } else {
            t_sum / t_cnt as f64
        };
        let mut p = Prelude {
            target,
            across,
            adding,
            base,
            old_tb: 0.0,
            new_tb,
            start: 0.0,
            new_volume,
        };
        if across {
            if own.cnt[x] > 0 {
                p.old_tb = own.sum[x] / own.cnt[x] as f64;
            } // else unused: x then has no stored entries
            return Some(p);
        }

        // Each entry-axis member's base moves only if the target's line
        // holds its cell; the cell itself enters here when adding.
        let yvals = line.values();
        let shift = scratch.shift(entries.sum.len());
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
                p.start += entering_term(mean, target, v, new_tb, new_eb, base);
            }
        }
        Some(p)
    }

    /// Appends the terms of `cluster`'s lines that this engine holds, in
    /// ascending line order, for query `p` (left by [`Self::prelude`] in
    /// `scratch` too).
    pub(crate) fn post_terms(
        &self,
        cluster: usize,
        p: &Prelude,
        line: &Line,
        st: &ClusterState,
        scratch: &mut Scratch,
        out: &mut Vec<f64>,
    ) {
        let q = self.query(cluster, p, line, st);
        let mine = (self.held(cluster, st).of(q.lines.members)).filter(|&j| p.has_term(q.lines, j));
        if p.across {
            let hints = scratch.hints(cluster, q.ci.lines.len());
            for j in mine {
                q.across(j, hints).post(p, out);
            }
        } else {
            let shift = self.shift(st, scratch);
            for j in mine {
                q.along(j, shift).post(p, out);
            }
        }
    }

    /// Adds up query `p`'s line terms, `term(r, j)` for each member line
    /// `j` (of rank `r`) with one, in line order — the serial summation
    /// order however the lines are held — and divides by the toggled
    /// volume.
    pub(crate) fn replay(
        &self,
        p: &Prelude,
        st: &ClusterState,
        mut term: impl FnMut(usize, usize) -> Term,
    ) -> f64 {
        let (lines, _) = self.layout.lines.axes(st);
        let mut sum = p.start;
        for (r, j) in lines.members.iter().enumerate() {
            if !p.has_term(lines, j) {
                continue;
            }
            let t = term(r, j);
            sum += t.line;
            sum += t.cell;
        }
        sum / p.new_volume as f64
    }

    fn query<'a>(
        &'a self,
        cluster: usize,
        p: &'a Prelude,
        line: &'a Line<'a>,
        st: &'a ClusterState,
    ) -> Query<'a> {
        Query {
            ci: &self.clusters[cluster],
            p,
            lines: self.layout.lines.axes(st).0,
            line,
            values: line.values(),
            mean: self.layout.mean,
        }
    }

    /// The shifts [`Self::prelude`] left in `scratch`.
    fn shift<'s>(&self, st: &ClusterState, scratch: &'s mut Scratch) -> &'s [f64] {
        let (_, entries) = self.layout.lines.axes(st);
        scratch.shift(entries.sum.len())
    }

    /// Line `j` of `cluster` as bits: its values, ids and prefix sums.
    #[cfg(test)]
    pub(crate) fn line_bits(&self, cluster: usize, j: usize) -> Vec<u64> {
        let d = &self.clusters[cluster].lines[j];
        let bits = d.vals.iter().chain(&d.pre).map(|v| v.to_bits());
        bits.chain(d.ids.iter().map(|&id| id as u64)).collect()
    }

    /// Brings the indexes in step with `action`, which the driver is about
    /// to perform; `line` is its target's line ([`Target::line`]). Must be
    /// called with the cluster's state *before* the toggle (the pre-toggle
    /// sums reproduce the stored values to remove). Returns the held lines
    /// it repaired.
    ///
    /// A toggle across the lines repairs the side in place
    /// (`O(line · lines)`); one along them marks it stale.
    pub fn apply(&mut self, line: &Line, st: &ClusterState, action: Action) -> usize {
        let Layout { mean, lines: kind } = self.layout;
        let held = held(self.share, self.layout, action.cluster, st);
        let ci = &mut self.clusters[action.cluster];
        if !kind.across(action.target) {
            ci.stale = true; // every entry's base shifts
            return 0;
        }
        if ci.stale {
            return 0; // rebuilt whole by the next prepare
        }
        self.repairs += 1;
        let x = action.target.index();
        let (lines, entries) = kind.axes(st);
        let values = line.values();
        let mine = (held.of(lines.members))
            .filter(|&j| line.is_specified(j))
            .map(|j| (j, values.get(j)));
        let mut repaired = 0;
        if entries.members.contains(x) {
            if entries.cnt[x] > 0 {
                let b = entries.sum[x] / entries.cnt[x] as f64;
                for (j, v) in mine {
                    ci.lines[j].remove(v - b, x as u32, mean);
                    repaired += 1;
                }
            }
        } else {
            let (t_sum, t_cnt) = line.stats_in(lines.members);
            if t_cnt > 0 {
                let b = t_sum / t_cnt as f64;
                for (j, v) in mine {
                    ci.lines[j].insert(v - b, x as u32, mean);
                    repaired += 1;
                }
            }
        }
        repaired
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

    /// The lanes' prelude and replay: `L ∈ {1, 2, 3, 4}` shares of one
    /// engine each post the terms of their lines of a shared cluster, and
    /// replaying them in line order gives `toggled_residue` bit for bit,
    /// for every row and column target (across and along the lines), on a
    /// tall and a wide matrix (both line orientations), under both means,
    /// with whole-row, whole-column and checkerboard gaps. Each step then
    /// applies one toggle to every engine and prepares them, so the shares'
    /// repairs and rebuilds are checked too.
    #[test]
    fn replaying_every_lanes_terms_matches_toggled_residue_bit_for_bit() {
        for (rows, cols) in [(40, 12), (12, 40)] {
            for (name, m) in gapped_matrices(rows, cols) {
                for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
                    // Ten member lines (shared), every other entry.
                    let cluster = if rows >= cols {
                        DeltaCluster::from_indices(rows, cols, (0..rows).step_by(2), 0..10)
                    } else {
                        DeltaCluster::from_indices(rows, cols, 0..10, (0..cols).step_by(2))
                    };
                    let mut states = vec![ClusterState::new(&m, &cluster)];
                    let mut whole = IncrementalEngine::build(&m, &states, mean);
                    assert!(whole.shared(&states[0]));
                    let mut shares: Vec<Vec<IncrementalEngine>> = (1..=4)
                        .map(|lanes| {
                            IncrementalEngine::build(&m, &states, mean).split(&states, lanes)
                        })
                        .collect();
                    let mut scratch = Scratch::default();
                    let mut lane_scratch: Vec<Scratch> =
                        (0..4).map(|_| Scratch::default()).collect();
                    let mut rng = StdRng::seed_from_u64(rows as u64 * 7 + cols as u64);
                    for step in 0..8 {
                        let every = (0..rows).map(Target::Row).chain((0..cols).map(Target::Col));
                        for q in every {
                            let line = q.line(&m);
                            let st = &states[0];
                            let want = whole.toggled_residue(0, q, &line, st, &mut scratch);
                            for share in &shares {
                                let lanes = share.len();
                                let what = format!("{name} {mean:?} step {step} {q:?} x{lanes}");
                                let mut posts = vec![Vec::new(); lanes];
                                let mut preludes = Vec::new();
                                for (l, eng) in share.iter().enumerate() {
                                    let p = eng.prelude(0, q, &line, st, &mut lane_scratch[l]);
                                    if let Some(p) = &p {
                                        eng.post_terms(
                                            0,
                                            p,
                                            &line,
                                            st,
                                            &mut lane_scratch[l],
                                            &mut posts[l],
                                        );
                                    }
                                    preludes.push(p);
                                }
                                assert!(preludes.iter().all(|p| *p == preludes[0]), "{what}");
                                let mut at = vec![0; lanes];
                                let got = preludes[0].map_or(0.0, |p| {
                                    share[0].replay(&p, st, |rank, _| {
                                        let l = line_owner(rank, lanes);
                                        at[l] += p.stride();
                                        Term::read(&p, &posts[l][at[l] - p.stride()..])
                                    })
                                });
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "{what}: {got} vs {want}"
                                );
                                let lens: Vec<usize> = posts.iter().map(Vec::len).collect();
                                assert_eq!(at, lens, "{what}: every posted term replayed");
                            }
                        }

                        // One toggle, keeping at least 8 member lines.
                        let target = if rng.gen_bool(0.5) {
                            Target::Row(rng.gen_range(0..rows))
                        } else {
                            Target::Col(rng.gen_range(0..cols))
                        };
                        let (lines, entries) = whole.layout.lines.axes(&states[0]);
                        let (axis, x) = if whole.layout.lines.across(target) {
                            (entries.members, target.index())
                        } else {
                            (lines.members, target.index())
                        };
                        let floor = if whole.layout.lines.across(target) {
                            2
                        } else {
                            8
                        };
                        if axis.contains(x) && axis.len() <= floor {
                            continue;
                        }
                        let line = target.line(&m);
                        let act = Action { target, cluster: 0 };
                        whole.apply(&line, &states[0], act);
                        for eng in shares.iter_mut().flatten() {
                            eng.apply(&line, &states[0], act);
                        }
                        crate::action::apply(&mut states, act, &line);
                        whole.prepare(&m, &states);
                        for eng in shares.iter_mut().flatten() {
                            eng.prepare(&m, &states);
                            assert_eq!(eng.counters(), whole.counters());
                        }
                    }
                }
            }
        }
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
            let mut ci = ClusterIndex::new(9);
            ci.rebuild(&m, &st, layout, Held::ALL, &mut Buckets::default());
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

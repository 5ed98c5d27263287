//! Incrementally-maintained cluster statistics — FLOC's hot path.
//!
//! Evaluating the gain of `Action(x, c)` requires the residue of cluster `c`
//! with row/column `x` toggled. Recomputing bases from scratch costs
//! `O(|I|·|J|)` *before* the residue scan even starts. [`ClusterState`] keeps
//! per-row and per-column sums and specified-entry counts so that:
//!
//! * all bases are available in `O(|I| + |J|)`;
//! * a *virtual toggle* (what-if evaluation) costs one `O(|I|·|J|)` residue
//!   scan with no allocation (scratch buffers are reused);
//! * an *actual toggle* updates the sufficient statistics in
//!   `O(|I| + |J|)`.
//!
//! Correctness is pinned to the from-scratch reference in
//! [`crate::residue`] by unit and property tests.

use crate::cluster::DeltaCluster;
use crate::residue::ResidueMean;
use dc_matrix::{BitSet, DataMatrix, Line};

/// Reusable scratch buffers for virtual-toggle residue evaluation.
///
/// One instance per FLOC driver; avoids `O(|I| + |J|)` allocations on every
/// one of the `(N+M)·k` gain evaluations per iteration.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Column bases, dense-indexed by matrix column (entries outside the
    /// cluster's columns are never read).
    col_base: Vec<f64>,
    /// Reusable "cluster columns minus the toggled one" set for the
    /// col-toggle scan, so the residue kernel can run with the toggled
    /// column filtered out at word level instead of per-entry.
    cols_minus: Option<dc_matrix::BitSet>,
    /// Per-member base shifts of the incremental engine's streamed
    /// answers, dense-indexed like the axis they shift.
    shift: Vec<f64>,
    /// Where the incremental engine's closed-form search last landed on
    /// each (cluster, line), so the next search on that line starts
    /// there. Per caller, never shared: concurrent queries of one engine
    /// each keep their own.
    hints: Vec<u32>,
}

impl Scratch {
    /// Clears and zero-fills the dense column-base buffer.
    fn reset_col_base(&mut self, cols: usize) {
        self.col_base.clear();
        self.col_base.resize(cols, 0.0);
    }

    /// The shift buffer, at least `len` long. Entries hold whatever the
    /// last user left there.
    pub(crate) fn shift(&mut self, len: usize) -> &mut [f64] {
        if self.shift.len() < len {
            self.shift.resize(len, 0.0);
        }
        &mut self.shift[..len]
    }

    /// Cluster `cluster`'s search hints, one per line of its `lines`.
    /// Entries hold whatever the last search left there, 0 at first.
    pub(crate) fn hints(&mut self, cluster: usize, lines: usize) -> &mut [u32] {
        let end = (cluster + 1) * lines;
        if self.hints.len() < end {
            self.hints.resize(end, 0);
        }
        &mut self.hints[cluster * lines..end]
    }
}

/// One axis of a cluster: its members, and each member's sum and
/// specified-entry count over the other axis's members.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Axis<'a> {
    pub members: &'a BitSet,
    pub sum: &'a [f64],
    pub cnt: &'a [u32],
}

/// A cluster plus its sufficient statistics over a fixed matrix.
///
/// Invariants (checked in tests against the reference implementation):
/// * `row_sum[i]` / `row_cnt[i]` are the sum/count of specified entries of
///   row `i` over columns in `cols`, for every `i ∈ rows` (stale otherwise);
/// * `col_sum[j]` / `col_cnt[j]` likewise for `j ∈ cols`;
/// * `total` and `volume` aggregate all specified entries of the submatrix.
#[derive(Debug, Clone)]
pub struct ClusterState {
    /// Participating rows.
    pub rows: BitSet,
    /// Participating columns.
    pub cols: BitSet,
    row_sum: Vec<f64>,
    row_cnt: Vec<u32>,
    col_sum: Vec<f64>,
    col_cnt: Vec<u32>,
    total: f64,
    volume: usize,
}

impl ClusterState {
    /// Builds the state for `cluster` over `matrix`, computing all sums.
    pub fn new(matrix: &DataMatrix, cluster: &DeltaCluster) -> Self {
        let mut s = ClusterState {
            rows: BitSet::new(matrix.rows()),
            cols: cluster.cols.clone(),
            row_sum: vec![0.0; matrix.rows()],
            row_cnt: vec![0; matrix.rows()],
            col_sum: vec![0.0; matrix.cols()],
            col_cnt: vec![0; matrix.cols()],
            total: 0.0,
            volume: 0,
        };
        // Initialize column stats lazily by inserting rows one at a time.
        for r in cluster.rows.iter() {
            s.insert_row(r, &matrix.row_of(r));
        }
        s
    }

    /// An empty cluster over the matrix universe.
    pub fn empty(matrix: &DataMatrix) -> Self {
        ClusterState::new(matrix, &DeltaCluster::empty(matrix.rows(), matrix.cols()))
    }

    /// The plain descriptor for this state.
    pub fn to_cluster(&self) -> DeltaCluster {
        DeltaCluster {
            rows: self.rows.clone(),
            cols: self.cols.clone(),
        }
    }

    /// Number of specified entries in the cluster submatrix.
    #[inline]
    pub fn volume(&self) -> usize {
        self.volume
    }

    /// Specified-entry count of row `row` within the cluster's columns.
    /// Only meaningful for participating rows.
    #[inline]
    pub fn row_specified(&self, row: usize) -> u32 {
        self.row_cnt[row]
    }

    /// Specified-entry count of column `col` within the cluster's rows.
    #[inline]
    pub fn col_specified(&self, col: usize) -> u32 {
        self.col_cnt[col]
    }

    /// Sum of specified entries of row `row` within the cluster's columns.
    /// Only meaningful for participating rows.
    #[inline]
    pub fn row_sum(&self, row: usize) -> f64 {
        self.row_sum[row]
    }

    /// Sum of specified entries of column `col` within the cluster's rows.
    #[inline]
    pub fn col_sum(&self, col: usize) -> f64 {
        self.col_sum[col]
    }

    /// The row axis: rows, row sums and counts.
    pub(crate) fn row_axis(&self) -> Axis<'_> {
        Axis {
            members: &self.rows,
            sum: &self.row_sum,
            cnt: &self.row_cnt,
        }
    }

    /// The column axis: columns, column sums and counts.
    pub(crate) fn col_axis(&self) -> Axis<'_> {
        Axis {
            members: &self.cols,
            sum: &self.col_sum,
            cnt: &self.col_cnt,
        }
    }

    /// Sum of all specified entries in the cluster submatrix.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The cluster base `d_IJ` (0.0 for an empty cluster).
    #[inline]
    pub fn base(&self) -> f64 {
        if self.volume == 0 {
            0.0
        } else {
            self.total / self.volume as f64
        }
    }

    fn insert_row(&mut self, row: usize, line: &Line) {
        debug_assert!(!self.rows.contains(row));
        let mut sum = 0.0;
        let mut cnt = 0u32;
        for (c, v) in line.specified_in(&self.cols) {
            sum += v;
            cnt += 1;
            self.col_sum[c] += v;
            self.col_cnt[c] += 1;
        }
        self.row_sum[row] = sum;
        self.row_cnt[row] = cnt;
        self.total += sum;
        self.volume += cnt as usize;
        self.rows.insert(row);
    }

    fn remove_row(&mut self, row: usize, line: &Line) {
        debug_assert!(self.rows.contains(row));
        for (c, v) in line.specified_in(&self.cols) {
            self.col_sum[c] -= v;
            self.col_cnt[c] -= 1;
        }
        self.total -= self.row_sum[row];
        self.volume -= self.row_cnt[row] as usize;
        self.row_sum[row] = 0.0;
        self.row_cnt[row] = 0;
        self.rows.remove(row);
    }

    fn insert_col(&mut self, col: usize, line: &Line) {
        debug_assert!(!self.cols.contains(col));
        let mut sum = 0.0;
        let mut cnt = 0u32;
        for (r, v) in line.specified_in(&self.rows) {
            sum += v;
            cnt += 1;
            self.row_sum[r] += v;
            self.row_cnt[r] += 1;
        }
        self.col_sum[col] = sum;
        self.col_cnt[col] = cnt;
        self.total += sum;
        self.volume += cnt as usize;
        self.cols.insert(col);
    }

    fn remove_col(&mut self, col: usize, line: &Line) {
        debug_assert!(self.cols.contains(col));
        for (r, v) in line.specified_in(&self.rows) {
            self.row_sum[r] -= v;
            self.row_cnt[r] -= 1;
        }
        self.total -= self.col_sum[col];
        self.volume -= self.col_cnt[col] as usize;
        self.col_sum[col] = 0.0;
        self.col_cnt[col] = 0;
        self.cols.remove(col);
    }

    /// Repairs the sufficient statistics after one matrix cell changed from
    /// `old` to `new` (`None` = unspecified). `O(1)`; a no-op when the cell
    /// lies outside the cluster submatrix. The online miner calls this for
    /// every stream event so cluster residues stay exact on a mutating
    /// matrix without an `O(|I|·|J|)` rebuild.
    ///
    /// The caller must invoke it *after* mutating the matrix, passing the
    /// values the cell held before and after.
    pub fn cell_changed(&mut self, row: usize, col: usize, old: Option<f64>, new: Option<f64>) {
        if !self.rows.contains(row) || !self.cols.contains(col) {
            return;
        }
        if let Some(v) = old {
            self.row_sum[row] -= v;
            self.row_cnt[row] -= 1;
            self.col_sum[col] -= v;
            self.col_cnt[col] -= 1;
            self.total -= v;
            self.volume -= 1;
        }
        if let Some(v) = new {
            self.row_sum[row] += v;
            self.row_cnt[row] += 1;
            self.col_sum[col] += v;
            self.col_cnt[col] += 1;
            self.total += v;
            self.volume += 1;
        }
    }

    /// Toggles membership of `row`, whose line is `line`
    /// ([`DataMatrix::row_of`]): inserts if absent, removes if present.
    /// `O(|J|)`.
    pub fn toggle_row(&mut self, row: usize, line: &Line) {
        if self.rows.contains(row) {
            self.remove_row(row, line);
        } else {
            self.insert_row(row, line);
        }
    }

    /// Toggles membership of `col`, whose line is `line`
    /// ([`DataMatrix::col_of`]). `O(|I|)`.
    pub fn toggle_col(&mut self, col: usize, line: &Line) {
        if self.cols.contains(col) {
            self.remove_col(col, line);
        } else {
            self.insert_col(col, line);
        }
    }

    /// Current cluster residue (Definition 3.5) using the maintained sums.
    /// One `O(|I|·|J|)` scan; bases come from the cached statistics.
    pub fn residue(&self, matrix: &DataMatrix, mean: ResidueMean, scratch: &mut Scratch) -> f64 {
        if self.volume == 0 {
            return 0.0;
        }
        let base = self.base();
        scratch.reset_col_base(matrix.cols());
        for c in self.cols.iter() {
            scratch.col_base[c] = if self.col_cnt[c] == 0 {
                base
            } else {
                self.col_sum[c] / self.col_cnt[c] as f64
            };
        }

        // Word-block kernel; bit-identical to folding row_specified_in
        // (non-member lanes accumulate exactly ±0.0).
        let squared = matches!(mean, ResidueMean::Squared);
        let mut sum = 0.0;
        for r in self.rows.iter() {
            let row_base = if self.row_cnt[r] == 0 {
                base
            } else {
                self.row_sum[r] / self.row_cnt[r] as f64
            };
            sum += matrix.row_residue_in(r, &self.cols, row_base, &scratch.col_base, base, squared);
        }
        sum / self.volume as f64
    }

    /// Residue the cluster *would* have if `row`'s membership were toggled;
    /// `line` is the row's [`DataMatrix::row_of`]. Does not mutate; one
    /// `O(|I′|·|J|)` scan plus `O(|I|+|J|)` setup.
    pub fn residue_if_row_toggled(
        &self,
        matrix: &DataMatrix,
        row: usize,
        line: &Line,
        mean: ResidueMean,
        scratch: &mut Scratch,
    ) -> f64 {
        let adding = !self.rows.contains(row);
        let sign = if adding { 1.0 } else { -1.0 };
        let values = line.values();

        // Row sum/count of the toggled row over J (word-block kernel).
        let (t_sum, t_cnt) = if adding {
            line.stats_in(&self.cols)
        } else {
            (self.row_sum[row], self.row_cnt[row])
        };

        let new_volume = (self.volume as i64 + sign as i64 * t_cnt as i64) as usize;
        if new_volume == 0 {
            return 0.0;
        }
        let new_total = self.total + sign * t_sum;
        let base = new_total / new_volume as f64;

        // Column bases after the toggle.
        scratch.reset_col_base(matrix.cols());
        for c in self.cols.iter() {
            let (mut s, mut n) = (self.col_sum[c], self.col_cnt[c] as i64);
            if line.is_specified(c) {
                s += sign * values.get(c);
                n += sign as i64;
            }
            scratch.col_base[c] = if n <= 0 { base } else { s / n as f64 };
        }

        // Scan rows of the toggled cluster with the word-block residue
        // kernel. Row bases for rows other than `row` are unchanged;
        // `row`'s base comes from (t_sum, t_cnt).
        let squared = matches!(mean, ResidueMean::Squared);
        let mut sum = 0.0;
        for r in self.rows.iter() {
            if r == row {
                continue; // removed (or will be handled below when adding)
            }
            let row_base = if self.row_cnt[r] == 0 {
                base
            } else {
                self.row_sum[r] / self.row_cnt[r] as f64
            };
            sum += matrix.row_residue_in(r, &self.cols, row_base, &scratch.col_base, base, squared);
        }
        if adding {
            let row_base = if t_cnt == 0 {
                base
            } else {
                t_sum / t_cnt as f64
            };
            sum += line.residue_in(&self.cols, row_base, &scratch.col_base, base, squared);
        }
        sum / new_volume as f64
    }

    /// Residue the cluster *would* have if `col`'s membership were toggled;
    /// `line` is the column's [`DataMatrix::col_of`].
    pub fn residue_if_col_toggled(
        &self,
        matrix: &DataMatrix,
        col: usize,
        line: &Line,
        mean: ResidueMean,
        scratch: &mut Scratch,
    ) -> f64 {
        let adding = !self.cols.contains(col);
        let sign = if adding { 1.0 } else { -1.0 };
        let values = line.values();

        // Column sum/count of the toggled column over I (word-block kernel).
        let (t_sum, t_cnt) = if adding {
            line.stats_in(&self.rows)
        } else {
            (self.col_sum[col], self.col_cnt[col])
        };

        let new_volume = (self.volume as i64 + sign as i64 * t_cnt as i64) as usize;
        if new_volume == 0 {
            return 0.0;
        }
        let new_total = self.total + sign * t_sum;
        let base = new_total / new_volume as f64;

        // Bases of the untoggled columns (the toggled one, if added, is
        // handled per row below to keep the scan order stable).
        scratch.reset_col_base(matrix.cols());
        let Scratch {
            col_base,
            cols_minus,
            ..
        } = scratch;
        for c in self.cols.iter() {
            if c == col {
                continue;
            }
            col_base[c] = if self.col_cnt[c] == 0 {
                base
            } else {
                self.col_sum[c] / self.col_cnt[c] as f64
            };
        }
        let toggled_base = if t_cnt == 0 {
            base
        } else {
            t_sum / t_cnt as f64
        };

        // Column set each row's kernel scan runs over: when removing, the
        // toggled column is filtered out at word level (same lanes the old
        // per-entry `if c == col` skip selected); when adding it is not a
        // member yet and its cell is appended per row below.
        let cols_for_scan: &dc_matrix::BitSet = if adding {
            &self.cols
        } else {
            let buf = cols_minus.get_or_insert_with(|| self.cols.clone());
            buf.clone_from(&self.cols);
            buf.remove(col);
            buf
        };

        let squared = matches!(mean, ResidueMean::Squared);
        let mut sum = 0.0;
        for r in self.rows.iter() {
            // Row base after the toggle: adjust by the toggled column's cell.
            let (mut rs, mut rn) = (self.row_sum[r], self.row_cnt[r] as i64);
            let r_col_specified = line.is_specified(r);
            if r_col_specified {
                rs += sign * values.get(r);
                rn += sign as i64;
            }
            let row_base = if rn <= 0 { base } else { rs / rn as f64 };
            sum += matrix.row_residue_in(r, cols_for_scan, row_base, col_base, base, squared);
            if adding && r_col_specified {
                let res = values.get(r) - row_base - toggled_base + base;
                sum += mean.entry_term(res);
            }
        }
        sum / new_volume as f64
    }

    /// Number of occupancy violations (rows below `alpha·|J|` specified plus
    /// columns below `alpha·|I|`).
    pub fn occupancy_violations(&self, alpha: f64) -> usize {
        let nj = self.cols.len();
        let ni = self.rows.len();
        let mut v = 0;
        if nj > 0 {
            for r in self.rows.iter() {
                if (self.row_cnt[r] as f64) < alpha * nj as f64 - 1e-9 {
                    v += 1;
                }
            }
        }
        if ni > 0 {
            for c in self.cols.iter() {
                if (self.col_cnt[c] as f64) < alpha * ni as f64 - 1e-9 {
                    v += 1;
                }
            }
        }
        v
    }

    /// Occupancy violations the cluster would have after toggling `row`.
    pub fn occupancy_violations_if_row_toggled(
        &self,
        matrix: &DataMatrix,
        row: usize,
        alpha: f64,
    ) -> usize {
        let adding = !self.rows.contains(row);
        let ni = if adding {
            self.rows.len() + 1
        } else {
            self.rows.len() - 1
        };
        let nj = self.cols.len();
        let mut v = 0;
        if nj > 0 {
            // Other rows' occupancy is unchanged (same |J|, same counts).
            for r in self.rows.iter() {
                if r != row && (self.row_cnt[r] as f64) < alpha * nj as f64 - 1e-9 {
                    v += 1;
                }
            }
            if adding {
                let cnt = self
                    .cols
                    .iter()
                    .filter(|&c| matrix.is_specified(row, c))
                    .count();
                if (cnt as f64) < alpha * nj as f64 - 1e-9 {
                    v += 1;
                }
            }
        }
        if ni > 0 {
            for c in self.cols.iter() {
                let mut cnt = self.col_cnt[c] as i64;
                if matrix.is_specified(row, c) {
                    cnt += if adding { 1 } else { -1 };
                }
                if (cnt as f64) < alpha * ni as f64 - 1e-9 {
                    v += 1;
                }
            }
        }
        v
    }

    /// Occupancy violations the cluster would have after toggling `col`.
    pub fn occupancy_violations_if_col_toggled(
        &self,
        matrix: &DataMatrix,
        col: usize,
        alpha: f64,
    ) -> usize {
        let adding = !self.cols.contains(col);
        let nj = if adding {
            self.cols.len() + 1
        } else {
            self.cols.len() - 1
        };
        let ni = self.rows.len();
        let mut v = 0;
        if ni > 0 {
            for c in self.cols.iter() {
                if c != col && (self.col_cnt[c] as f64) < alpha * ni as f64 - 1e-9 {
                    v += 1;
                }
            }
            if adding {
                let cnt = self
                    .rows
                    .iter()
                    .filter(|&r| matrix.is_specified(r, col))
                    .count();
                if (cnt as f64) < alpha * ni as f64 - 1e-9 {
                    v += 1;
                }
            }
        }
        if nj > 0 {
            for r in self.rows.iter() {
                let mut cnt = self.row_cnt[r] as i64;
                if matrix.is_specified(r, col) {
                    cnt += if adding { 1 } else { -1 };
                }
                if (cnt as f64) < alpha * nj as f64 - 1e-9 {
                    v += 1;
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::residue::{cluster_residue, ResidueMean};

    fn figure4b() -> DataMatrix {
        DataMatrix::builder(3, 3).from_rows(vec![
            401.0, 120.0, 298.0, 318.0, 37.0, 215.0, 322.0, 41.0, 219.0,
        ])
    }

    /// A 4×5 matrix with some missing entries for cross-checks.
    fn mixed() -> DataMatrix {
        DataMatrix::builder(4, 5).from_options(vec![
            Some(1.0),
            Some(2.0),
            None,
            Some(4.0),
            Some(5.0),
            Some(2.0),
            None,
            Some(4.0),
            Some(5.0),
            Some(6.0),
            Some(9.0),
            Some(3.0),
            Some(7.0),
            None,
            Some(1.0),
            None,
            Some(8.0),
            Some(2.0),
            Some(6.0),
            Some(4.0),
        ])
    }

    fn assert_matches_reference(m: &DataMatrix, st: &ClusterState) {
        let c = st.to_cluster();
        let mut scratch = Scratch::default();
        for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
            let incr = st.residue(m, mean, &mut scratch);
            let refr = cluster_residue(m, &c, mean);
            assert!(
                (incr - refr).abs() < 1e-9,
                "incremental {incr} != reference {refr} ({mean:?}) for {c:?}"
            );
        }
        assert_eq!(st.volume(), c.volume(m), "volume mismatch for {c:?}");
    }

    #[test]
    fn fresh_state_matches_reference() {
        let m = mixed();
        let c = DeltaCluster::from_indices(4, 5, [0, 2, 3], [1, 2, 4]);
        let st = ClusterState::new(&m, &c);
        assert_matches_reference(&m, &st);
    }

    #[test]
    fn figure4b_state_has_zero_residue_and_paper_bases() {
        let m = figure4b();
        let st = ClusterState::new(&m, &DeltaCluster::from_indices(3, 3, 0..3, 0..3));
        assert!((st.base() - 219.0).abs() < 1e-9);
        let mut s = Scratch::default();
        assert!(st.residue(&m, ResidueMean::Arithmetic, &mut s).abs() < 1e-9);
    }

    #[test]
    fn toggles_keep_state_consistent() {
        let m = mixed();
        let mut st = ClusterState::new(&m, &DeltaCluster::from_indices(4, 5, [0, 1], [0, 1, 2]));
        // A deterministic walk of toggles, checking invariants at each step.
        let moves: Vec<(bool, usize)> = vec![
            (true, 2),  // add row 2
            (false, 3), // add col 3
            (true, 0),  // remove row 0
            (false, 1), // remove col 1
            (true, 0),  // re-add row 0
            (false, 4), // add col 4
            (true, 3),  // add row 3
            (false, 0), // remove col 0
        ];
        for (is_row, idx) in moves {
            if is_row {
                st.toggle_row(idx, &m.row_of(idx));
            } else {
                st.toggle_col(idx, &m.col_of(idx));
            }
            assert_matches_reference(&m, &st);
        }
    }

    #[test]
    fn virtual_row_toggle_matches_actual() {
        let m = mixed();
        let st = ClusterState::new(&m, &DeltaCluster::from_indices(4, 5, [0, 2], [0, 2, 4]));
        let mut scratch = Scratch::default();
        for row in 0..4 {
            for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
                let virt = st.residue_if_row_toggled(&m, row, &m.row_of(row), mean, &mut scratch);
                let mut actual = st.clone();
                actual.toggle_row(row, &m.row_of(row));
                let real = actual.residue(&m, mean, &mut scratch);
                assert!(
                    (virt - real).abs() < 1e-9,
                    "row {row} {mean:?}: virtual {virt} != actual {real}"
                );
            }
        }
    }

    #[test]
    fn virtual_col_toggle_matches_actual() {
        let m = mixed();
        let st = ClusterState::new(&m, &DeltaCluster::from_indices(4, 5, [1, 2, 3], [1, 3]));
        let mut scratch = Scratch::default();
        for col in 0..5 {
            for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
                let virt = st.residue_if_col_toggled(&m, col, &m.col_of(col), mean, &mut scratch);
                let mut actual = st.clone();
                actual.toggle_col(col, &m.col_of(col));
                let real = actual.residue(&m, mean, &mut scratch);
                assert!(
                    (virt - real).abs() < 1e-9,
                    "col {col} {mean:?}: virtual {virt} != actual {real}"
                );
            }
        }
    }

    #[test]
    fn empty_cluster_residue_is_zero() {
        let m = mixed();
        let st = ClusterState::empty(&m);
        let mut s = Scratch::default();
        assert_eq!(st.residue(&m, ResidueMean::Arithmetic, &mut s), 0.0);
        assert_eq!(st.volume(), 0);
        assert_eq!(st.base(), 0.0);
    }

    #[test]
    fn removing_last_row_yields_zero_volume() {
        let m = mixed();
        let mut st = ClusterState::new(&m, &DeltaCluster::from_indices(4, 5, [1], [0, 2]));
        let mut s = Scratch::default();
        let virt = st.residue_if_row_toggled(&m, 1, &m.row_of(1), ResidueMean::Arithmetic, &mut s);
        assert_eq!(virt, 0.0);
        st.toggle_row(1, &m.row_of(1));
        assert_eq!(st.volume(), 0);
    }

    #[test]
    fn occupancy_violation_counts() {
        // Figure 3(a): not a δ-cluster at α = 0.6.
        let m = DataMatrix::builder(3, 4).from_options(vec![
            Some(1.0),
            None,
            Some(3.0),
            None,
            None,
            Some(4.0),
            None,
            Some(5.0),
            Some(3.0),
            None,
            Some(4.0),
            None,
        ]);
        let st = ClusterState::new(&m, &DeltaCluster::from_indices(3, 4, 0..3, 0..4));
        assert!(st.occupancy_violations(0.6) > 0);
        assert_eq!(st.occupancy_violations(0.0), 0);
    }

    #[test]
    fn virtual_occupancy_matches_actual() {
        let m = mixed();
        let st = ClusterState::new(
            &m,
            &DeltaCluster::from_indices(4, 5, [0, 1, 2], [0, 1, 3, 4]),
        );
        let alpha = 0.7;
        for row in 0..4 {
            let virt = st.occupancy_violations_if_row_toggled(&m, row, alpha);
            let mut actual = st.clone();
            actual.toggle_row(row, &m.row_of(row));
            assert_eq!(virt, actual.occupancy_violations(alpha), "row {row}");
        }
        for col in 0..5 {
            let virt = st.occupancy_violations_if_col_toggled(&m, col, alpha);
            let mut actual = st.clone();
            actual.toggle_col(col, &m.col_of(col));
            assert_eq!(virt, actual.occupancy_violations(alpha), "col {col}");
        }
    }

    #[test]
    fn cell_changed_matches_a_rebuild() {
        let mut m = mixed();
        let cluster = DeltaCluster::from_indices(4, 5, [0, 2, 3], [1, 2, 4]);
        let mut st = ClusterState::new(&m, &cluster);

        // Every kind of single-cell mutation: update, delete, append —
        // inside and outside the cluster submatrix.
        let edits: Vec<(usize, usize, Option<f64>)> = vec![
            (0, 1, Some(9.5)), // update inside
            (2, 2, None),      // delete inside
            (0, 2, Some(3.0)), // append inside (was unspecified)
            (1, 1, Some(7.0)), // update outside (row 1 not in cluster)
            (2, 0, None),      // delete outside (col 0 not in cluster)
            (3, 4, Some(1.0)), // update inside
        ];
        for (r, c, new) in edits {
            let old = match new {
                Some(v) => {
                    let old = m.get(r, c);
                    m.set(r, c, v);
                    old
                }
                None => m.unset(r, c),
            };
            st.cell_changed(r, c, old, new);
            let rebuilt = ClusterState::new(&m, &st.to_cluster());
            assert_eq!(st.volume(), rebuilt.volume(), "volume after ({r},{c})");
            assert!((st.total() - rebuilt.total()).abs() < 1e-9);
            assert_matches_reference(&m, &st);
        }
    }

    #[test]
    fn per_dimension_specified_counts() {
        let m = mixed();
        let st = ClusterState::new(&m, &DeltaCluster::from_indices(4, 5, [0, 1], [1, 2]));
        // Row 0 has col1=2.0 specified, col2 missing → 1. Row 1: col1 missing, col2=4.0 → 1.
        assert_eq!(st.row_specified(0), 1);
        assert_eq!(st.row_specified(1), 1);
        assert_eq!(st.col_specified(1), 1);
        assert_eq!(st.col_specified(2), 1);
        assert_eq!(st.volume(), 2);
    }
}

//! Actions and gains (§4.1).
//!
//! An action is uniquely defined by a row-or-column `x` and a cluster `c`:
//! it toggles `x`'s membership in `c` (insert if absent, remove if present).
//! Its *gain* is the reduction of `c`'s residue the toggle would cause; a
//! positive gain improves the cluster, a negative gain degrades it — and the
//! paper still performs the best (least-bad) action for every row/column,
//! because temporary degradation can escape local optima.
//!
//! > The OCR of the paper's Figure 6 worked example is too garbled to
//! > recover its exact matrix, so the unit tests here validate the same
//! > mechanics (gain = old residue − toggled residue, negative best gains
//! > are kept) on a reconstructed example and against the from-scratch
//! > reference implementation.

use crate::residue::ResidueMean;
use crate::stats::{ClusterState, Scratch};
use dc_matrix::{DataMatrix, Line};
use serde::{Deserialize, Serialize};

/// The row or column an action toggles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Target {
    /// An object (matrix row).
    Row(usize),
    /// An attribute (matrix column).
    Col(usize),
}

impl Target {
    /// The underlying index, whichever dimension it is.
    pub fn index(self) -> usize {
        match self {
            Target::Row(i) | Target::Col(i) => i,
        }
    }

    /// True for row targets.
    pub fn is_row(self) -> bool {
        matches!(self, Target::Row(_))
    }

    /// The target's row or column of `matrix`, read once: every consumer
    /// of one action (gain queries against each cluster, the index repair,
    /// the toggle) takes this line instead of reading the matrix again.
    pub fn line(self, matrix: &DataMatrix) -> Line<'_> {
        match self {
            Target::Row(r) => matrix.row_of(r),
            Target::Col(c) => matrix.col_of(c),
        }
    }
}

/// `Action(x, c)`: toggle membership of `target` in cluster `cluster`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Action {
    /// The row or column being moved.
    pub target: Target,
    /// Index of the cluster whose membership changes.
    pub cluster: usize,
}

/// An action annotated with its gain at evaluation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvaluatedAction {
    /// The action itself.
    pub action: Action,
    /// Residue reduction of the affected cluster (positive = improvement).
    /// `f64::NEG_INFINITY` marks a blocked action.
    pub gain: f64,
}

/// Computes the gain of toggling `target` in `state`:
/// `residue(c) − residue(c with target toggled)`.
///
/// `current_residue` is the cluster's residue before the toggle (cached by
/// the driver so it is not recomputed for each of the `k` candidate
/// clusters), and `line` is the target's [`Target::line`].
pub fn gain(
    matrix: &DataMatrix,
    state: &ClusterState,
    current_residue: f64,
    target: Target,
    line: &Line,
    mean: ResidueMean,
    scratch: &mut Scratch,
) -> f64 {
    let toggled = match target {
        Target::Row(r) => state.residue_if_row_toggled(matrix, r, line, mean, scratch),
        Target::Col(c) => state.residue_if_col_toggled(matrix, c, line, mean, scratch),
    };
    current_residue - toggled
}

/// Applies `action`'s toggle to the cluster state it refers to; `line` is
/// the target's [`Target::line`].
pub fn apply(states: &mut [ClusterState], action: Action, line: &Line) {
    let state = &mut states[action.cluster];
    match action.target {
        Target::Row(r) => state.toggle_row(r, line),
        Target::Col(c) => state.toggle_col(c, line),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::DeltaCluster;
    use crate::residue::cluster_residue;

    /// A 3×4 matrix in the spirit of Figure 6, with two overlapping
    /// clusters: cluster 1 = rows {0,1} × cols {0,1}, cluster 2 =
    /// rows {1,2} × cols {0,1,2}.
    fn example() -> (DataMatrix, Vec<ClusterState>) {
        let m = DataMatrix::builder(3, 4).from_rows(vec![
            1.0, 3.0, 1.0, 2.0, //
            2.0, 5.0, 3.0, 2.0, //
            4.0, 2.0, 0.0, 4.0,
        ]);
        let c1 = ClusterState::new(&m, &DeltaCluster::from_indices(3, 4, [0, 1], [0, 1]));
        let c2 = ClusterState::new(&m, &DeltaCluster::from_indices(3, 4, [1, 2], [0, 1, 2]));
        (m, vec![c1, c2])
    }

    #[test]
    fn two_by_two_cluster_residue_closed_form() {
        // For a fully specified 2×2 cluster [[a,b],[c,d]] every entry has
        // |residue| = |a−b−c+d|/4. Cluster 1 is [[1,3],[2,5]] ⇒ 1/4.
        let (m, states) = example();
        let mut s = Scratch::default();
        let r = states[0].residue(&m, ResidueMean::Arithmetic, &mut s);
        assert!((r - 0.25).abs() < 1e-12, "cluster 1 residue {r} != 1/4");
    }

    #[test]
    fn gain_is_residue_difference() {
        let (m, states) = example();
        let mut s = Scratch::default();
        let cur = states[0].residue(&m, ResidueMean::Arithmetic, &mut s);
        let g = gain(
            &m,
            &states[0],
            cur,
            Target::Col(2),
            &Target::Col(2).line(&m),
            ResidueMean::Arithmetic,
            &mut s,
        );
        // Oracle: residue of the cluster with column 2 inserted.
        let mut grown = states[0].to_cluster();
        grown.cols.insert(2);
        let oracle = cur - cluster_residue(&m, &grown, ResidueMean::Arithmetic);
        assert!((g - oracle).abs() < 1e-12);
    }

    #[test]
    fn best_action_can_have_negative_gain() {
        // §4.1: the best action for a column may still have negative gain;
        // FLOC performs it anyway. Construct the situation: cluster 1 is a
        // perfect 2×2 cluster, so any change degrades it.
        let m = DataMatrix::builder(2, 3).from_rows(vec![1.0, 2.0, 9.0, 3.0, 4.0, 0.0]);
        let st = ClusterState::new(&m, &DeltaCluster::from_indices(2, 3, [0, 1], [0, 1]));
        let mut s = Scratch::default();
        let cur = st.residue(&m, ResidueMean::Arithmetic, &mut s);
        assert!(cur.abs() < 1e-12, "2x2 shifted cluster is perfect");
        let g = gain(
            &m,
            &st,
            cur,
            Target::Col(2),
            &Target::Col(2).line(&m),
            ResidueMean::Arithmetic,
            &mut s,
        );
        assert!(
            g < 0.0,
            "inserting the incoherent column must have negative gain, got {g}"
        );
    }

    #[test]
    fn insert_and_remove_gains_are_inverse_at_fixpoint() {
        // Toggling twice returns to the start: gain(toggle) from A→B equals
        // −gain(toggle) from B→A.
        let (m, mut states) = example();
        let mut s = Scratch::default();
        let cur = states[1].residue(&m, ResidueMean::Arithmetic, &mut s);
        let g_remove = gain(
            &m,
            &states[1],
            cur,
            Target::Row(2),
            &Target::Row(2).line(&m),
            ResidueMean::Arithmetic,
            &mut s,
        );
        apply(
            &mut states,
            Action {
                target: Target::Row(2),
                cluster: 1,
            },
            &Target::Row(2).line(&m),
        );
        let new = states[1].residue(&m, ResidueMean::Arithmetic, &mut s);
        let g_insert = gain(
            &m,
            &states[1],
            new,
            Target::Row(2),
            &Target::Row(2).line(&m),
            ResidueMean::Arithmetic,
            &mut s,
        );
        assert!((g_remove + g_insert).abs() < 1e-12);
    }

    #[test]
    fn apply_toggles_the_right_cluster() {
        let (m, mut states) = example();
        assert!(states[0].rows.contains(0));
        assert!(!states[1].rows.contains(0));
        apply(
            &mut states,
            Action {
                target: Target::Row(0),
                cluster: 1,
            },
            &Target::Row(0).line(&m),
        );
        assert!(states[1].rows.contains(0), "row 0 inserted into cluster 2");
        assert!(states[0].rows.contains(0), "cluster 1 untouched");
        apply(
            &mut states,
            Action {
                target: Target::Col(1),
                cluster: 0,
            },
            &Target::Col(1).line(&m),
        );
        assert!(!states[0].cols.contains(1), "col 1 removed from cluster 1");
    }

    #[test]
    fn target_accessors() {
        assert_eq!(Target::Row(3).index(), 3);
        assert_eq!(Target::Col(7).index(), 7);
        assert!(Target::Row(0).is_row());
        assert!(!Target::Col(0).is_row());
    }
}

//! User-specified clustering constraints (§3 `Cons_o`, `Cons_c`, `Cons_v`
//! and the §4.3 blocking mechanism).
//!
//! The paper extends the basic model with three optional constraint
//! families: a bound on the **overlap** between any pair of clusters, a
//! **coverage** requirement (every object/attribute belongs to some
//! cluster), and **volume** bounds on individual clusters. FLOC enforces
//! them by *blocking*: an action whose result would violate a constraint is
//! assigned gain `−∞` for the iteration and is never performed, so the final
//! clustering satisfies every constraint the seeds satisfied.

use crate::action::{Action, Target};
use crate::stats::ClusterState;
use dc_matrix::DataMatrix;
use serde::{Deserialize, Serialize};

/// A single constraint on the clustering. All constraints are checked
/// against the *post-action* state of the clustering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Constraint {
    /// `Cons_o`: for every pair of clusters, the shared footprint
    /// `|I₁∩I₂|·|J₁∩J₂|` may be at most `fraction` of the smaller cluster's
    /// footprint. `fraction = 0` forbids any overlap.
    MaxOverlap {
        /// Maximum allowed overlap fraction in `[0, 1]`.
        fraction: f64,
    },
    /// `Cons_c` over objects: blocks removing a row from the only cluster
    /// that still contains it.
    RowCoverage,
    /// `Cons_c` over attributes: blocks removing a column from the only
    /// cluster that still contains it.
    ColCoverage,
    /// `Cons_v` lower bound: a cluster's volume (specified entries) must not
    /// drop below `cells`.
    MinVolume {
        /// Minimum number of specified entries.
        cells: usize,
    },
    /// `Cons_v` upper bound: a cluster's volume must not exceed `cells`.
    MaxVolume {
        /// Maximum number of specified entries.
        cells: usize,
    },
}

/// Specified-entry count that `target` would contribute to (or withdraw
/// from) `state`.
fn target_specified(matrix: &DataMatrix, state: &ClusterState, target: Target) -> usize {
    let member = match target {
        Target::Row(r) => state.rows.contains(r),
        Target::Col(c) => state.cols.contains(c),
    };
    if member {
        match target {
            Target::Row(r) => state.row_specified(r) as usize,
            Target::Col(c) => state.col_specified(c) as usize,
        }
    } else {
        match target {
            Target::Row(r) => state
                .cols
                .iter()
                .filter(|&c| matrix.is_specified(r, c))
                .count(),
            Target::Col(c) => state
                .rows
                .iter()
                .filter(|&r| matrix.is_specified(r, c))
                .count(),
        }
    }
}

impl Constraint {
    /// True if checking an action against this constraint reads clusters
    /// other than the one the action toggles.
    pub(crate) fn reads_other_clusters(&self) -> bool {
        match self {
            Constraint::MaxOverlap { .. } | Constraint::RowCoverage | Constraint::ColCoverage => {
                true
            }
            Constraint::MinVolume { .. } | Constraint::MaxVolume { .. } => false,
        }
    }

    /// True if performing `action` keeps the clustering within this
    /// constraint.
    pub fn allows(&self, matrix: &DataMatrix, states: &[ClusterState], action: Action) -> bool {
        let state = &states[action.cluster];
        let adding = match action.target {
            Target::Row(r) => !state.rows.contains(r),
            Target::Col(c) => !state.cols.contains(c),
        };
        match *self {
            Constraint::MaxOverlap { fraction } => {
                // Both additions *and* removals can raise the overlap
                // fraction: an addition grows the shared cell count, while a
                // removal shrinks the acting cluster's footprint (the
                // denominator). Check the post-action state either way.
                let delta: i64 = if adding { 1 } else { -1 };
                let (mut ni, mut nj) = (state.rows.len() as i64, state.cols.len() as i64);
                match action.target {
                    Target::Row(_) => ni += delta,
                    Target::Col(_) => nj += delta,
                }
                let my_footprint = (ni * nj).max(0);
                for (idx, other) in states.iter().enumerate() {
                    if idx == action.cluster {
                        continue;
                    }
                    let mut shared_rows = state.rows.intersection_len(&other.rows) as i64;
                    let mut shared_cols = state.cols.intersection_len(&other.cols) as i64;
                    match action.target {
                        Target::Row(r) => {
                            if other.rows.contains(r) {
                                shared_rows += delta;
                            }
                        }
                        Target::Col(c) => {
                            if other.cols.contains(c) {
                                shared_cols += delta;
                            }
                        }
                    }
                    let shared = (shared_rows * shared_cols).max(0);
                    let denom = my_footprint.min((other.rows.len() * other.cols.len()) as i64);
                    if denom > 0 && shared as f64 > fraction * denom as f64 + 1e-9 {
                        return false;
                    }
                }
                true
            }
            Constraint::RowCoverage => {
                if adding {
                    return true;
                }
                match action.target {
                    Target::Row(r) => states
                        .iter()
                        .enumerate()
                        .any(|(idx, s)| idx != action.cluster && s.rows.contains(r)),
                    Target::Col(_) => true,
                }
            }
            Constraint::ColCoverage => {
                if adding {
                    return true;
                }
                match action.target {
                    Target::Col(c) => states
                        .iter()
                        .enumerate()
                        .any(|(idx, s)| idx != action.cluster && s.cols.contains(c)),
                    Target::Row(_) => true,
                }
            }
            Constraint::MinVolume { cells } => {
                if adding {
                    return true;
                }
                let delta = target_specified(matrix, state, action.target);
                state.volume().saturating_sub(delta) >= cells
            }
            Constraint::MaxVolume { cells } => {
                if !adding {
                    return true;
                }
                let delta = target_specified(matrix, state, action.target);
                state.volume() + delta <= cells
            }
        }
    }

    /// True if the clustering as a whole currently satisfies the constraint
    /// (used to validate seeds and final results).
    pub fn satisfied(&self, _matrix: &DataMatrix, states: &[ClusterState]) -> bool {
        match *self {
            Constraint::MaxOverlap { fraction } => {
                for (i, a) in states.iter().enumerate() {
                    for b in states.iter().skip(i + 1) {
                        let shared =
                            a.rows.intersection_len(&b.rows) * a.cols.intersection_len(&b.cols);
                        let denom = (a.rows.len() * a.cols.len()).min(b.rows.len() * b.cols.len());
                        if denom > 0 && shared as f64 > fraction * denom as f64 + 1e-9 {
                            return false;
                        }
                    }
                }
                true
            }
            Constraint::RowCoverage => {
                let m = states.first().map_or(0, |s| s.rows.capacity());
                (0..m).all(|r| states.iter().any(|s| s.rows.contains(r)))
            }
            Constraint::ColCoverage => {
                let n = states.first().map_or(0, |s| s.cols.capacity());
                (0..n).all(|c| states.iter().any(|s| s.cols.contains(c)))
            }
            Constraint::MinVolume { cells } => states.iter().all(|s| s.volume() >= cells),
            Constraint::MaxVolume { cells } => states.iter().all(|s| s.volume() <= cells),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::DeltaCluster;

    fn matrix() -> DataMatrix {
        DataMatrix::builder(4, 4).from_rows((0..16).map(|i| i as f64).collect())
    }

    fn states(m: &DataMatrix, specs: &[(&[usize], &[usize])]) -> Vec<ClusterState> {
        specs
            .iter()
            .map(|(r, c)| {
                ClusterState::new(
                    m,
                    &DeltaCluster::from_indices(
                        m.rows(),
                        m.cols(),
                        r.iter().copied(),
                        c.iter().copied(),
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn max_overlap_blocks_growing_into_another_cluster() {
        let m = matrix();
        // Two clusters sharing rows {1} and cols {1}: overlap 1 cell.
        let st = states(&m, &[(&[0, 1], &[0, 1]), (&[1, 2], &[1, 2])]);
        let c = Constraint::MaxOverlap { fraction: 0.25 };
        // Current overlap = 1 cell / footprint 4 = 0.25: satisfied.
        assert!(c.satisfied(&m, &st));
        // Adding row 2 to cluster 0 would make shared rows {1,2}, shared
        // cols {1} → 2 cells over min footprint 4 → 0.5 > 0.25: blocked.
        let act = Action {
            target: Target::Row(2),
            cluster: 0,
        };
        assert!(!c.allows(&m, &st, act));
        // A removal is always allowed.
        let rm = Action {
            target: Target::Row(1),
            cluster: 0,
        };
        assert!(c.allows(&m, &st, rm));
        // Adding a non-shared row is fine.
        let ok = Action {
            target: Target::Row(3),
            cluster: 0,
        };
        assert!(c.allows(&m, &st, ok));
    }

    #[test]
    fn zero_overlap_forbids_any_shared_cell() {
        let m = matrix();
        let st = states(&m, &[(&[0], &[0, 1]), (&[1], &[0, 1])]);
        let c = Constraint::MaxOverlap { fraction: 0.0 };
        assert!(c.satisfied(&m, &st), "disjoint rows → zero shared cells");
        // Adding row 1 to cluster 0 creates overlap.
        assert!(!c.allows(
            &m,
            &st,
            Action {
                target: Target::Row(1),
                cluster: 0
            }
        ));
    }

    #[test]
    fn row_coverage_blocks_orphaning_removals() {
        let m = matrix();
        let st = states(&m, &[(&[0, 1], &[0, 1]), (&[1, 2], &[2, 3])]);
        let c = Constraint::RowCoverage;
        // Row 0 is only in cluster 0: removal blocked.
        assert!(!c.allows(
            &m,
            &st,
            Action {
                target: Target::Row(0),
                cluster: 0
            }
        ));
        // Row 1 is in both: removal from either is allowed.
        assert!(c.allows(
            &m,
            &st,
            Action {
                target: Target::Row(1),
                cluster: 0
            }
        ));
        // Column actions are unconstrained by RowCoverage.
        assert!(c.allows(
            &m,
            &st,
            Action {
                target: Target::Col(0),
                cluster: 0
            }
        ));
        // Additions always allowed.
        assert!(c.allows(
            &m,
            &st,
            Action {
                target: Target::Row(3),
                cluster: 0
            }
        ));
    }

    #[test]
    fn col_coverage_mirrors_row_coverage() {
        let m = matrix();
        let st = states(&m, &[(&[0, 1], &[0, 1]), (&[1, 2], &[1, 2])]);
        let c = Constraint::ColCoverage;
        assert!(!c.allows(
            &m,
            &st,
            Action {
                target: Target::Col(0),
                cluster: 0
            }
        ));
        assert!(c.allows(
            &m,
            &st,
            Action {
                target: Target::Col(1),
                cluster: 0
            }
        ));
    }

    #[test]
    fn coverage_satisfied_checks_all_indices() {
        let m = matrix();
        let full = states(&m, &[(&[0, 1], &[0, 1, 2, 3]), (&[2, 3], &[0, 1])]);
        assert!(Constraint::RowCoverage.satisfied(&m, &full));
        assert!(Constraint::ColCoverage.satisfied(&m, &full));
        let partial = states(&m, &[(&[0, 1], &[0, 1])]);
        assert!(!Constraint::RowCoverage.satisfied(&m, &partial));
        assert!(!Constraint::ColCoverage.satisfied(&m, &partial));
    }

    #[test]
    fn min_volume_blocks_shrinking_below_floor() {
        let m = matrix();
        let st = states(&m, &[(&[0, 1], &[0, 1])]); // volume 4
        let c = Constraint::MinVolume { cells: 3 };
        // Removing a row drops volume to 2: blocked.
        assert!(!c.allows(
            &m,
            &st,
            Action {
                target: Target::Row(0),
                cluster: 0
            }
        ));
        // Additions always allowed.
        assert!(c.allows(
            &m,
            &st,
            Action {
                target: Target::Row(2),
                cluster: 0
            }
        ));
        assert!(c.satisfied(&m, &st));
        assert!(!Constraint::MinVolume { cells: 5 }.satisfied(&m, &st));
    }

    #[test]
    fn max_volume_blocks_growing_above_ceiling() {
        let m = matrix();
        let st = states(&m, &[(&[0, 1], &[0, 1])]); // volume 4
        let c = Constraint::MaxVolume { cells: 5 };
        // Adding a row adds 2 specified cells → 6 > 5: blocked.
        assert!(!c.allows(
            &m,
            &st,
            Action {
                target: Target::Row(2),
                cluster: 0
            }
        ));
        // Removal allowed.
        assert!(c.allows(
            &m,
            &st,
            Action {
                target: Target::Row(0),
                cluster: 0
            }
        ));
        assert!(c.satisfied(&m, &st));
    }

    #[test]
    fn volume_accounts_for_missing_entries() {
        let mut m = matrix();
        m.unset(2, 0);
        m.unset(2, 1);
        let st = states(&m, &[(&[0, 1], &[0, 1])]); // volume 4
                                                    // Row 2 has no specified cells in cols {0,1}: adding it changes
                                                    // volume by 0, so MaxVolume{4} still allows it.
        let c = Constraint::MaxVolume { cells: 4 };
        assert!(c.allows(
            &m,
            &st,
            Action {
                target: Target::Row(2),
                cluster: 0
            }
        ));
    }
}

//! Recall and precision of a discovered clustering against ground truth
//! (§6.2.2).

use crate::entryset::entry_union;
use dc_floc::DeltaCluster;
use dc_matrix::DataMatrix;
use serde::{Deserialize, Serialize};

/// Entry-level quality of a clustering against embedded ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quality {
    /// `|U ∩ V| / |U|` — how much of the embedded structure was found.
    pub recall: f64,
    /// `|U ∩ V| / |V|` — how much of what was found is embedded structure.
    pub precision: f64,
    /// `|U ∩ V|` in entries.
    pub intersection: usize,
    /// `|U|` — embedded entries.
    pub truth_entries: usize,
    /// `|V|` — discovered entries.
    pub found_entries: usize,
}

impl Quality {
    /// Harmonic mean of recall and precision (0 when both are 0).
    pub fn f1(&self) -> f64 {
        let denom = self.recall + self.precision;
        if denom == 0.0 {
            0.0
        } else {
            2.0 * self.recall * self.precision / denom
        }
    }
}

/// Computes entry-level recall/precision of `found` against `truth`.
///
/// An empty side scores 0.0, never NaN from a 0/0 division: with no truth
/// entries recall is 0, and with no found entries precision is 0. These
/// are the conventions of [`crate::match_summary`] at the cluster level.
pub fn quality(matrix: &DataMatrix, truth: &[DeltaCluster], found: &[DeltaCluster]) -> Quality {
    let u = entry_union(matrix, truth);
    let v = entry_union(matrix, found);
    let intersection = u.intersection_len(&v);
    Quality {
        recall: if u.is_empty() {
            0.0
        } else {
            intersection as f64 / u.len() as f64
        },
        precision: if v.is_empty() {
            0.0
        } else {
            intersection as f64 / v.len() as f64
        },
        intersection,
        truth_entries: u.len(),
        found_entries: v.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> DataMatrix {
        DataMatrix::builder(4, 4).from_rows((0..16).map(|x| x as f64).collect())
    }

    #[test]
    fn perfect_recovery() {
        let m = matrix();
        let truth = vec![DeltaCluster::from_indices(4, 4, [0, 1], [0, 1])];
        let q = quality(&m, &truth, &truth);
        assert_eq!(q.recall, 1.0);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.f1(), 1.0);
        assert_eq!(q.intersection, 4);
    }

    #[test]
    fn partial_overlap() {
        let m = matrix();
        let truth = vec![DeltaCluster::from_indices(4, 4, [0, 1], [0, 1])]; // 4 cells
        let found = vec![DeltaCluster::from_indices(4, 4, [1, 2], [0, 1])]; // 4 cells, 2 shared
        let q = quality(&m, &truth, &found);
        assert_eq!(q.recall, 0.5);
        assert_eq!(q.precision, 0.5);
        assert_eq!(q.intersection, 2);
        assert!((q.f1() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disjoint_finds_zero() {
        let m = matrix();
        let truth = vec![DeltaCluster::from_indices(4, 4, [0], [0])];
        let found = vec![DeltaCluster::from_indices(4, 4, [3], [3])];
        let q = quality(&m, &truth, &found);
        assert_eq!(q.recall, 0.0);
        assert_eq!(q.precision, 0.0);
        assert_eq!(q.f1(), 0.0);
    }

    #[test]
    fn overlapping_found_clusters_counted_once() {
        let m = matrix();
        let truth = vec![DeltaCluster::from_indices(4, 4, [0, 1], [0, 1])];
        // Two identical found clusters: union is still 4 cells.
        let found = vec![
            DeltaCluster::from_indices(4, 4, [0, 1], [0, 1]),
            DeltaCluster::from_indices(4, 4, [0, 1], [0, 1]),
        ];
        let q = quality(&m, &truth, &found);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.found_entries, 4);
    }

    #[test]
    fn empty_side_conventions() {
        let m = matrix();
        let c = vec![DeltaCluster::from_indices(4, 4, [0], [0, 1])];
        let q = quality(&m, &[], &c);
        assert_eq!(q.recall, 0.0);
        assert_eq!(q.precision, 0.0);
        let q = quality(&m, &c, &[]);
        assert_eq!(q.recall, 0.0);
        assert_eq!(q.precision, 0.0);
    }

    #[test]
    fn missing_entries_do_not_count() {
        let mut m = matrix();
        m.unset(0, 0);
        let truth = vec![DeltaCluster::from_indices(4, 4, [0], [0, 1])];
        let found = truth.clone();
        let q = quality(&m, &truth, &found);
        assert_eq!(q.truth_entries, 1, "(0,0) is missing");
        assert_eq!(q.recall, 1.0);
    }
}

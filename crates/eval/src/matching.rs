//! Per-cluster matching between a discovered clustering and ground truth.
//!
//! Aggregate recall/precision (see [`crate::metrics`]) can hide failure
//! modes — one giant discovered cluster swallowing everything scores decent
//! recall. Greedy one-to-one matching by entry overlap gives a
//! finer-grained view: which embedded cluster was found by which discovered
//! cluster, and how well.

use crate::entryset::entry_set;
use dc_floc::DeltaCluster;
use dc_matrix::DataMatrix;
use serde::{Deserialize, Serialize};

/// The match found for one ground-truth cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterMatch {
    /// Index into the ground-truth clustering.
    pub truth_index: usize,
    /// Index into the discovered clustering, if any cluster overlapped.
    pub found_index: Option<usize>,
    /// Shared entries with the matched cluster (0 if unmatched).
    pub shared_entries: usize,
    /// Jaccard similarity of the entry sets (0 if unmatched).
    pub jaccard: f64,
}

/// Greedy one-to-one matching: repeatedly pair the (truth, found) pair with
/// the largest entry overlap until no positive overlap remains. Each
/// cluster participates in at most one match.
pub fn match_clusters(
    matrix: &DataMatrix,
    truth: &[DeltaCluster],
    found: &[DeltaCluster],
) -> Vec<ClusterMatch> {
    let truth_sets: Vec<_> = truth.iter().map(|c| entry_set(matrix, c)).collect();
    let found_sets: Vec<_> = found.iter().map(|c| entry_set(matrix, c)).collect();

    // All positive-overlap pairs, best first.
    let mut pairs: Vec<(usize, usize, usize)> = Vec::new();
    for (t, ts) in truth_sets.iter().enumerate() {
        for (f, fs) in found_sets.iter().enumerate() {
            let shared = ts.intersection_len(fs);
            if shared > 0 {
                pairs.push((t, f, shared));
            }
        }
    }
    pairs.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| (a.0, a.1).cmp(&(b.0, b.1))));

    let mut truth_used = vec![false; truth.len()];
    let mut found_used = vec![false; found.len()];
    let mut matches: Vec<ClusterMatch> = truth
        .iter()
        .enumerate()
        .map(|(i, _)| ClusterMatch {
            truth_index: i,
            found_index: None,
            shared_entries: 0,
            jaccard: 0.0,
        })
        .collect();
    for (t, f, shared) in pairs {
        if truth_used[t] || found_used[f] {
            continue;
        }
        truth_used[t] = true;
        found_used[f] = true;
        let union = truth_sets[t].union_len(&found_sets[f]);
        matches[t] = ClusterMatch {
            truth_index: t,
            found_index: Some(f),
            shared_entries: shared,
            jaccard: if union == 0 {
                0.0
            } else {
                shared as f64 / union as f64
            },
        };
    }
    matches
}

/// Fraction of ground-truth clusters matched with Jaccard at least
/// `threshold`.
pub fn recovery_rate(matches: &[ClusterMatch], threshold: f64) -> f64 {
    if matches.is_empty() {
        return 1.0;
    }
    matches.iter().filter(|m| m.jaccard >= threshold).count() as f64 / matches.len() as f64
}

/// Cluster-level aggregate of a greedy matching, safe on degenerate runs.
///
/// Every ratio is a *defined* number for every input: a clustering with
/// zero found clusters (a baseline that bailed out) or zero reference
/// clusters scores 0.0, never NaN from a 0/0 division — the same
/// convention the entry-level [`crate::quality`] follows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatchSummary {
    /// Ground-truth clusters considered.
    pub truth_clusters: usize,
    /// Discovered clusters considered.
    pub found_clusters: usize,
    /// Pairs matched with Jaccard at least the requested threshold.
    pub matched: usize,
    /// `matched / truth_clusters` — 0.0 when there is no truth.
    pub cluster_recall: f64,
    /// `matched / found_clusters` — 0.0 when nothing was found.
    pub cluster_precision: f64,
    /// Mean Jaccard over all truth clusters (unmatched count as 0) —
    /// 0.0 when there is no truth.
    pub mean_jaccard: f64,
}

/// Summarizes a [`match_clusters`] result into defined, NaN-free ratios.
///
/// `found_clusters` is the size of the discovered clustering the matches
/// were computed against (it cannot be recovered from `matches`, which is
/// indexed by truth).
pub fn match_summary(
    matches: &[ClusterMatch],
    found_clusters: usize,
    threshold: f64,
) -> MatchSummary {
    let matched = matches
        .iter()
        .filter(|m| m.found_index.is_some() && m.jaccard >= threshold)
        .count();
    let ratio = |num: usize, denom: usize| {
        if denom == 0 {
            0.0
        } else {
            num as f64 / denom as f64
        }
    };
    let mean_jaccard = if matches.is_empty() {
        0.0
    } else {
        matches.iter().map(|m| m.jaccard).sum::<f64>() / matches.len() as f64
    };
    MatchSummary {
        truth_clusters: matches.len(),
        found_clusters,
        matched,
        cluster_recall: ratio(matched, matches.len()),
        cluster_precision: ratio(matched, found_clusters),
        mean_jaccard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> DataMatrix {
        DataMatrix::builder(6, 6).from_rows((0..36).map(|x| x as f64).collect())
    }

    #[test]
    fn exact_recovery_matches_everything() {
        let m = matrix();
        let truth = vec![
            DeltaCluster::from_indices(6, 6, [0, 1], [0, 1]),
            DeltaCluster::from_indices(6, 6, [3, 4], [3, 4]),
        ];
        let matches = match_clusters(&m, &truth, &truth);
        for (i, mt) in matches.iter().enumerate() {
            assert_eq!(mt.found_index, Some(i));
            assert_eq!(mt.jaccard, 1.0);
        }
        assert_eq!(recovery_rate(&matches, 0.99), 1.0);
    }

    #[test]
    fn greedy_prefers_largest_overlap() {
        let m = matrix();
        let truth = vec![DeltaCluster::from_indices(6, 6, [0, 1, 2], [0, 1, 2])]; // 9 cells
        let found = vec![
            DeltaCluster::from_indices(6, 6, [0], [0]), // 1 shared
            DeltaCluster::from_indices(6, 6, [0, 1], [0, 1, 2]), // 6 shared
        ];
        let matches = match_clusters(&m, &truth, &found);
        assert_eq!(matches[0].found_index, Some(1));
        assert_eq!(matches[0].shared_entries, 6);
        assert!((matches[0].jaccard - 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn one_found_cluster_matches_only_one_truth() {
        let m = matrix();
        let truth = vec![
            DeltaCluster::from_indices(6, 6, [0, 1], [0, 1]),
            DeltaCluster::from_indices(6, 6, [1, 2], [0, 1]),
        ];
        // A single found cluster overlapping both truths.
        let found = vec![DeltaCluster::from_indices(6, 6, [0, 1, 2], [0, 1])];
        let matches = match_clusters(&m, &truth, &found);
        let matched: Vec<_> = matches.iter().filter(|m| m.found_index.is_some()).collect();
        assert_eq!(
            matched.len(),
            1,
            "one found cluster can match only one truth"
        );
    }

    #[test]
    fn disjoint_clusters_stay_unmatched() {
        let m = matrix();
        let truth = vec![DeltaCluster::from_indices(6, 6, [0], [0])];
        let found = vec![DeltaCluster::from_indices(6, 6, [5], [5])];
        let matches = match_clusters(&m, &truth, &found);
        assert_eq!(matches[0].found_index, None);
        assert_eq!(matches[0].jaccard, 0.0);
        assert_eq!(recovery_rate(&matches, 0.1), 0.0);
    }

    #[test]
    fn recovery_rate_thresholds() {
        let matches = vec![
            ClusterMatch {
                truth_index: 0,
                found_index: Some(0),
                shared_entries: 5,
                jaccard: 0.9,
            },
            ClusterMatch {
                truth_index: 1,
                found_index: Some(1),
                shared_entries: 2,
                jaccard: 0.3,
            },
        ];
        assert_eq!(recovery_rate(&matches, 0.5), 0.5);
        assert_eq!(recovery_rate(&matches, 0.2), 1.0);
        assert_eq!(recovery_rate(&[], 0.5), 1.0);
    }

    /// Every field of a summary must be a plain finite number.
    fn assert_defined(s: &MatchSummary) {
        for (name, v) in [
            ("cluster_recall", s.cluster_recall),
            ("cluster_precision", s.cluster_precision),
            ("mean_jaccard", s.mean_jaccard),
        ] {
            assert!(v.is_finite(), "{name} must be finite, got {v}");
        }
    }

    #[test]
    fn empty_found_clustering_summarizes_to_zero_not_nan() {
        let m = matrix();
        let truth = vec![DeltaCluster::from_indices(6, 6, [0, 1], [0, 1])];
        let matches = match_clusters(&m, &truth, &[]);
        let s = match_summary(&matches, 0, 0.5);
        assert_defined(&s);
        assert_eq!(s.found_clusters, 0);
        assert_eq!(s.matched, 0);
        assert_eq!(s.cluster_recall, 0.0);
        assert_eq!(s.cluster_precision, 0.0, "0/0 must be 0.0, not NaN");
        assert_eq!(s.mean_jaccard, 0.0);
    }

    #[test]
    fn empty_truth_clustering_summarizes_to_zero_not_nan() {
        let m = matrix();
        let found = vec![DeltaCluster::from_indices(6, 6, [0, 1], [0, 1])];
        let matches = match_clusters(&m, &[], &found);
        let s = match_summary(&matches, found.len(), 0.5);
        assert_defined(&s);
        assert_eq!(s.truth_clusters, 0);
        assert_eq!(s.cluster_recall, 0.0, "0/0 must be 0.0, not NaN");
        assert_eq!(s.cluster_precision, 0.0);
        assert_eq!(s.mean_jaccard, 0.0);
    }

    #[test]
    fn both_sides_empty_summarize_to_zero_not_nan() {
        let m = matrix();
        let matches = match_clusters(&m, &[], &[]);
        let s = match_summary(&matches, 0, 0.5);
        assert_defined(&s);
        assert_eq!(
            (s.cluster_recall, s.cluster_precision, s.mean_jaccard),
            (0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn match_summary_counts_threshold_survivors() {
        let m = matrix();
        let truth = vec![
            DeltaCluster::from_indices(6, 6, [0, 1], [0, 1]),
            DeltaCluster::from_indices(6, 6, [3, 4], [3, 4]),
        ];
        let found = vec![
            DeltaCluster::from_indices(6, 6, [0, 1], [0, 1]), // jaccard 1.0
            DeltaCluster::from_indices(6, 6, [3], [3]),       // jaccard 0.25
            DeltaCluster::from_indices(6, 6, [5], [5]),       // unmatched
        ];
        let matches = match_clusters(&m, &truth, &found);
        let s = match_summary(&matches, found.len(), 0.5);
        assert_defined(&s);
        assert_eq!(s.truth_clusters, 2);
        assert_eq!(s.found_clusters, 3);
        assert_eq!(s.matched, 1);
        assert_eq!(s.cluster_recall, 0.5);
        assert!((s.cluster_precision - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_jaccard - (1.0 + 0.25) / 2.0).abs() < 1e-12);
    }
}

//! Subspace-restricted DBSCAN — the density engine shared by SUBCLU.
//!
//! Classic DBSCAN (Ester et al., KDD 1996) over the rows of a
//! [`DataMatrix`], with distances computed only along a caller-chosen set
//! of columns. SUBCLU calls this once per candidate subspace; the
//! single-dimension case seeds its bottom-up lattice walk.
//!
//! Determinism: rows are visited in ascending index order, each point's
//! ε-neighborhood is materialized up front (in ascending order), and
//! cluster expansion is a serial FIFO walk — so labels depend only on the
//! data, never on scheduling. The neighborhood precomputation is the only
//! parallel part (independent per point, reduced in index order via
//! `par::map_indexed`).

use crate::par::map_indexed;
use dc_matrix::DataMatrix;
use std::collections::VecDeque;

/// Density parameters of one DBSCAN run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanParams {
    /// Neighborhood radius (Euclidean, over the chosen dimensions).
    pub eps: f64,
    /// Minimum neighborhood size (the point itself counts) for a core
    /// point.
    pub min_pts: usize,
}

/// Runs DBSCAN over `rows` of `matrix`, measuring distance only along
/// `dims`. Rows missing a value in any of `dims` are ignored (a point must
/// exist in the subspace to participate). Returns clusters as ascending
/// row-index vectors, ordered by their smallest member; noise points are
/// simply absent.
pub fn dbscan(
    matrix: &DataMatrix,
    dims: &[usize],
    rows: &[usize],
    params: DbscanParams,
    threads: usize,
) -> Vec<Vec<usize>> {
    assert!(params.eps >= 0.0, "eps must be non-negative");
    assert!(params.min_pts >= 1, "min_pts must be at least 1");
    if dims.is_empty() || rows.is_empty() {
        return Vec::new();
    }

    // Project the participating rows into a dense `points × dims` table.
    let mut ids: Vec<usize> = Vec::with_capacity(rows.len());
    let mut coords: Vec<f64> = Vec::with_capacity(rows.len() * dims.len());
    'rows: for &r in rows {
        let mut tuple = Vec::with_capacity(dims.len());
        for &d in dims {
            match matrix.get(r, d) {
                Some(v) => tuple.push(v),
                None => continue 'rows,
            }
        }
        ids.push(r);
        coords.extend(tuple);
    }
    let n = ids.len();
    if n == 0 {
        return Vec::new();
    }

    // ε-neighborhoods, independent per point.
    let d = dims.len();
    let eps2 = params.eps * params.eps;
    let neighbors: Vec<Vec<u32>> = map_indexed(n, threads, |i| {
        let a = &coords[i * d..(i + 1) * d];
        let mut near = Vec::new();
        for j in 0..n {
            let b = &coords[j * d..(j + 1) * d];
            let mut dist2 = 0.0;
            for k in 0..d {
                let diff = a[k] - b[k];
                dist2 += diff * diff;
                if dist2 > eps2 {
                    break;
                }
            }
            if dist2 <= eps2 {
                near.push(j as u32);
            }
        }
        near
    });

    // Serial expansion: border points go to the first cluster that reaches
    // them (ascending seed order), exactly the textbook tie-break.
    const UNLABELED: u32 = u32::MAX;
    let mut label = vec![UNLABELED; n];
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for seed in 0..n {
        if label[seed] != UNLABELED || neighbors[seed].len() < params.min_pts {
            continue;
        }
        let id = clusters.len() as u32;
        let mut members: Vec<usize> = Vec::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        label[seed] = id;
        members.push(seed);
        queue.push_back(seed);
        while let Some(p) = queue.pop_front() {
            for &q in &neighbors[p] {
                let q = q as usize;
                if label[q] != UNLABELED {
                    continue;
                }
                label[q] = id;
                members.push(q);
                if neighbors[q].len() >= params.min_pts {
                    queue.push_back(q);
                }
            }
        }
        members.sort_unstable();
        clusters.push(members.into_iter().map(|i| ids[i]).collect());
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(eps: f64, min_pts: usize) -> DbscanParams {
        DbscanParams { eps, min_pts }
    }

    /// Two tight 1-d blobs far apart, plus one straggler.
    fn two_blob_matrix() -> DataMatrix {
        let values = [0.0, 0.2, 0.4, 10.0, 10.1, 10.3, 55.0];
        let mut m = DataMatrix::builder(7, 2).build();
        for (r, &v) in values.iter().enumerate() {
            m.set(r, 0, v);
            m.set(r, 1, 100.0); // constant second dim, irrelevant unless selected
        }
        m
    }

    #[test]
    fn finds_the_two_blobs_and_drops_noise() {
        let m = two_blob_matrix();
        let rows: Vec<usize> = (0..7).collect();
        let clusters = dbscan(&m, &[0], &rows, params(0.5, 2), 1);
        assert_eq!(clusters, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn distance_uses_only_the_selected_dims() {
        let m = two_blob_matrix();
        let rows: Vec<usize> = (0..7).collect();
        // Along the constant dim 1, every point is identical: one cluster.
        let clusters = dbscan(&m, &[1], &rows, params(0.5, 2), 1);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 7);
    }

    #[test]
    fn rows_missing_a_selected_dim_are_excluded() {
        let mut m = DataMatrix::builder(4, 1).build();
        m.set(0, 0, 1.0);
        m.set(1, 0, 1.1);
        m.set(2, 0, 1.2);
        // Row 3 stays missing.
        let clusters = dbscan(&m, &[0], &[0, 1, 2, 3], params(0.5, 2), 1);
        assert_eq!(clusters, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn restricting_the_candidate_rows_restricts_the_result() {
        let m = two_blob_matrix();
        let clusters = dbscan(&m, &[0], &[3, 4, 5], params(0.5, 2), 1);
        assert_eq!(clusters, vec![vec![3, 4, 5]]);
    }

    #[test]
    fn min_pts_gates_density() {
        let m = two_blob_matrix();
        let rows: Vec<usize> = (0..7).collect();
        // min_pts 4 > blob size 3: nothing is dense.
        assert!(dbscan(&m, &[0], &rows, params(0.5, 4), 1).is_empty());
    }

    #[test]
    fn thread_count_does_not_change_labels() {
        let mut m = DataMatrix::builder(60, 3).build();
        // Deterministic pseudo-random scatter with two planted blobs.
        let mut x = 12345u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as f64) / (u32::MAX as f64) * 100.0
        };
        for r in 0..60 {
            for c in 0..3 {
                let v = if r < 20 {
                    next() * 0.02 // blob near the origin
                } else if r < 40 {
                    50.0 + next() * 0.02 // blob near 50
                } else {
                    next() // scatter
                };
                m.set(r, c, v);
            }
        }
        let rows: Vec<usize> = (0..60).collect();
        let serial = dbscan(&m, &[0, 1, 2], &rows, params(2.0, 3), 1);
        for threads in [2, 4, 7] {
            assert_eq!(
                dbscan(&m, &[0, 1, 2], &rows, params(2.0, 3), threads),
                serial,
                "threads={threads}"
            );
        }
        assert!(serial.len() >= 2, "both planted blobs found: {serial:?}");
    }

    #[test]
    fn empty_inputs_yield_no_clusters() {
        let m = two_blob_matrix();
        assert!(dbscan(&m, &[], &[0, 1], params(1.0, 2), 1).is_empty());
        assert!(dbscan(&m, &[0], &[], params(1.0, 2), 1).is_empty());
    }
}

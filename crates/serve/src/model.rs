//! The in-memory serving model: data matrix, δ-clusters, precomputed
//! bases, and inverted row/column → cluster indices.
//!
//! Mining (`dc-floc`) recomputes bases from scratch wherever it needs them
//! because the clusters are still moving. At serving time the clustering is
//! frozen, so every cluster's [`Bases`] is computed once when the model is
//! built and each point query becomes two sorted-index lookups plus three
//! additions — `O(|clusters containing row ∩ col|)` instead of
//! `O(k · |I|·|J|)` for the naive scan.

use dc_floc::prediction::{predict_from_bases, try_predict, PredictError};
use dc_floc::residue::{bases, Bases};
use dc_floc::{DeltaCluster, FlocResult};
use dc_matrix::DataMatrix;

/// Why a [`ServeModel`] could not be assembled from its parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// `residues` is not index-aligned with `clusters`.
    LengthMismatch { clusters: usize, residues: usize },
    /// A cluster's row/column universe does not match the matrix shape.
    DimensionMismatch { cluster: usize },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::LengthMismatch { clusters, residues } => write!(
                f,
                "residue vector length {residues} does not match cluster count {clusters}"
            ),
            ModelError::DimensionMismatch { cluster } => write!(
                f,
                "cluster {cluster} was mined over a different matrix shape"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

/// An immutable, query-ready snapshot of a trained δ-clustering.
#[derive(Clone, PartialEq)]
pub struct ServeModel {
    matrix: DataMatrix,
    clusters: Vec<DeltaCluster>,
    residues: Vec<f64>,
    avg_residue: f64,
    /// Precomputed bases, index-aligned with `clusters`.
    bases: Vec<Bases>,
    /// `row_index[r]` = ascending ids of clusters whose row set contains `r`.
    row_index: Vec<Vec<u32>>,
    /// `col_index[c]` = ascending ids of clusters whose column set contains `c`.
    col_index: Vec<Vec<u32>>,
}

impl ServeModel {
    /// Builds a model from a matrix and a mined clustering, computing bases
    /// and inverted indices.
    pub fn new(
        matrix: DataMatrix,
        clusters: Vec<DeltaCluster>,
        residues: Vec<f64>,
        avg_residue: f64,
    ) -> Result<Self, ModelError> {
        // Check shapes before touching the data: `bases` walks the matrix
        // through the clusters' index sets and requires matching capacity.
        for (i, c) in clusters.iter().enumerate() {
            if c.rows.capacity() != matrix.rows() || c.cols.capacity() != matrix.cols() {
                return Err(ModelError::DimensionMismatch { cluster: i });
            }
        }
        let precomputed = clusters.iter().map(|c| bases(&matrix, c)).collect();
        Self::with_bases(matrix, clusters, residues, avg_residue, precomputed)
    }

    /// Builds a model from parts with already-known bases (the artifact
    /// loader path). Validates alignment but trusts the bases' numbers.
    pub fn with_bases(
        matrix: DataMatrix,
        clusters: Vec<DeltaCluster>,
        residues: Vec<f64>,
        avg_residue: f64,
        bases: Vec<Bases>,
    ) -> Result<Self, ModelError> {
        if clusters.len() != residues.len() || clusters.len() != bases.len() {
            return Err(ModelError::LengthMismatch {
                clusters: clusters.len(),
                residues: residues.len().min(bases.len()),
            });
        }
        for (i, c) in clusters.iter().enumerate() {
            if c.rows.capacity() != matrix.rows() || c.cols.capacity() != matrix.cols() {
                return Err(ModelError::DimensionMismatch { cluster: i });
            }
        }
        let mut row_index = vec![Vec::new(); matrix.rows()];
        let mut col_index = vec![Vec::new(); matrix.cols()];
        for (id, c) in clusters.iter().enumerate() {
            for r in c.rows.iter() {
                row_index[r].push(id as u32);
            }
            for col in c.cols.iter() {
                col_index[col].push(id as u32);
            }
        }
        Ok(ServeModel {
            matrix,
            clusters,
            residues,
            avg_residue,
            bases,
            row_index,
            col_index,
        })
    }

    /// Convenience constructor from a FLOC run.
    pub fn from_result(matrix: DataMatrix, result: &FlocResult) -> Result<Self, ModelError> {
        Self::new(
            matrix,
            result.clusters.clone(),
            result.residues.clone(),
            result.avg_residue,
        )
    }

    pub fn matrix(&self) -> &DataMatrix {
        &self.matrix
    }

    pub fn clusters(&self) -> &[DeltaCluster] {
        &self.clusters
    }

    pub fn residues(&self) -> &[f64] {
        &self.residues
    }

    pub fn avg_residue(&self) -> f64 {
        self.avg_residue
    }

    /// Precomputed per-cluster bases, index-aligned with [`clusters`](Self::clusters).
    pub fn bases(&self) -> &[Bases] {
        &self.bases
    }

    /// Number of clusters in the model.
    pub fn k(&self) -> usize {
        self.clusters.len()
    }

    /// Ids of clusters covering cell `(row, col)`, ascending. Out-of-range
    /// indices yield an empty iterator rather than a panic — serving code
    /// must survive arbitrary query input.
    pub fn covering(&self, row: usize, col: usize) -> impl Iterator<Item = usize> + '_ {
        let rlist: &[u32] = self.row_index.get(row).map_or(&[], |v| v.as_slice());
        let clist: &[u32] = self.col_index.get(col).map_or(&[], |v| v.as_slice());
        SortedIntersection { a: rlist, b: clist }.map(|id| id as usize)
    }

    /// Predicts cell `(row, col)` as the mean of `d_iJ + d_Ij − d_IJ` over
    /// every usable covering cluster, using only precomputed bases.
    ///
    /// Error semantics match [`dc_floc::prediction::try_predict`]:
    /// degenerate covering clusters are skipped unless they are all the
    /// coverage there is.
    pub fn predict(&self, row: usize, col: usize) -> Result<f64, PredictError> {
        let mut sum = 0.0;
        let mut n = 0usize;
        let mut saw_degenerate = false;
        for id in self.covering(row, col) {
            match predict_from_bases(&self.bases[id], row, col) {
                Ok(p) => {
                    sum += p;
                    n += 1;
                }
                Err(PredictError::DegenerateCluster) => saw_degenerate = true,
                Err(PredictError::NotCovered) => {}
            }
        }
        if n > 0 {
            Ok(sum / n as f64)
        } else if saw_degenerate {
            Err(PredictError::DegenerateCluster)
        } else {
            Err(PredictError::NotCovered)
        }
    }

    /// Reference implementation: scan all k clusters and recompute bases
    /// per query (what callers had to do before this subsystem existed).
    /// Kept as the correctness oracle for the indexed path.
    pub fn naive_predict(&self, row: usize, col: usize) -> Result<f64, PredictError> {
        if row >= self.matrix.rows() || col >= self.matrix.cols() {
            return Err(PredictError::NotCovered);
        }
        try_predict(&self.matrix, &self.clusters, row, col)
    }

    /// Top-`n` recommendations for `row`: unspecified columns covered by at
    /// least one usable cluster containing the row, ranked by predicted
    /// value (descending; ties broken by column index).
    pub fn top_n(&self, row: usize, n: usize) -> Vec<(usize, f64)> {
        if n == 0 || self.row_index.get(row).is_none() {
            return Vec::new();
        }
        let mut sums = vec![0.0f64; self.matrix.cols()];
        let mut counts = vec![0u32; self.matrix.cols()];
        for &id in &self.row_index[row] {
            let b = &self.bases[id as usize];
            if b.volume == 0 {
                continue;
            }
            let Ok(ri) = b.rows.binary_search(&row) else {
                continue;
            };
            let offset = b.row_bases[ri] - b.cluster_base;
            for (ci, &col) in b.cols.iter().enumerate() {
                if !self.matrix.is_specified(row, col) {
                    sums[col] += b.col_bases[ci] + offset;
                    counts[col] += 1;
                }
            }
        }
        let mut ranked: Vec<(usize, f64)> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &cnt)| cnt > 0)
            .map(|(col, &cnt)| (col, sums[col] / cnt as f64))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(n);
        ranked
    }

    /// Decomposes the model back into its stored parts
    /// `(matrix, clusters, residues, avg_residue, bases)`.
    pub fn into_parts(self) -> (DataMatrix, Vec<DeltaCluster>, Vec<f64>, f64, Vec<Bases>) {
        (
            self.matrix,
            self.clusters,
            self.residues,
            self.avg_residue,
            self.bases,
        )
    }
}

/// Two-pointer intersection of two ascending `u32` slices.
struct SortedIntersection<'a> {
    a: &'a [u32],
    b: &'a [u32],
}

impl Iterator for SortedIntersection<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while let (Some(&x), Some(&y)) = (self.a.first(), self.b.first()) {
            match x.cmp(&y) {
                std::cmp::Ordering::Less => self.a = &self.a[1..],
                std::cmp::Ordering::Greater => self.b = &self.b[1..],
                std::cmp::Ordering::Equal => {
                    self.a = &self.a[1..];
                    self.b = &self.b[1..];
                    return Some(x);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Perfectly coherent 3×4 viewers matrix plus noise row/col outside.
    fn model() -> ServeModel {
        let mut m = DataMatrix::builder(4, 5).build();
        for (r, base) in [1.0, 2.0, 3.0].iter().enumerate() {
            for (c, off) in [0.0, 1.0, 2.0, 4.0].iter().enumerate() {
                m.set(r, c, base + off);
            }
        }
        m.set(3, 4, 9.0);
        let a = DeltaCluster::from_indices(4, 5, 0..3, 0..4);
        let b = DeltaCluster::from_indices(4, 5, 0..2, 0..2);
        ServeModel::new(m, vec![a, b], vec![0.0, 0.0], 0.0).unwrap()
    }

    #[test]
    fn indexed_predict_matches_naive() {
        let m = model();
        for row in 0..4 {
            for col in 0..5 {
                assert_eq!(
                    m.predict(row, col),
                    m.naive_predict(row, col),
                    "({row},{col})"
                );
            }
        }
    }

    #[test]
    fn out_of_range_queries_miss_instead_of_panicking() {
        let m = model();
        assert_eq!(m.predict(99, 0), Err(PredictError::NotCovered));
        assert_eq!(m.predict(0, 99), Err(PredictError::NotCovered));
        assert_eq!(m.naive_predict(99, 99), Err(PredictError::NotCovered));
        assert!(m.top_n(99, 3).is_empty());
    }

    #[test]
    fn covering_intersects_row_and_col_lists() {
        let m = model();
        assert_eq!(m.covering(0, 0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(m.covering(2, 0).collect::<Vec<_>>(), vec![0]);
        assert_eq!(m.covering(3, 0).count(), 0);
    }

    #[test]
    fn top_n_ranks_unseen_columns() {
        let mut m = DataMatrix::builder(3, 4).build();
        // Coherent block with col effects 0,1,2; column 3 unrated by row 0.
        for r in 0..3 {
            for c in 0..3 {
                m.set(r, c, (r + c) as f64);
            }
        }
        m.set(1, 3, 11.0);
        m.set(2, 3, 12.0);
        let cluster = DeltaCluster::from_indices(3, 4, 0..3, 0..4);
        let model = ServeModel::new(m, vec![cluster], vec![0.0], 0.0).unwrap();
        let recs = model.top_n(0, 2);
        assert_eq!(recs.len(), 1, "only column 3 is unseen for row 0: {recs:?}");
        assert_eq!(recs[0].0, 3);
        // d_iJ + d_Ij − d_IJ = 1 + 11.5 − 41/11 ≈ 8.77.
        assert!(
            (recs[0].1 - (1.0 + 11.5 - 41.0 / 11.0)).abs() < 1e-9,
            "predicted {}",
            recs[0].1
        );
        assert!(model.top_n(0, 0).is_empty());
    }

    #[test]
    fn misaligned_parts_are_rejected() {
        let m = DataMatrix::builder(2, 2).build();
        let c = DeltaCluster::from_indices(2, 2, [0], [0]);
        assert!(matches!(
            ServeModel::new(m.clone(), vec![c.clone()], vec![], 0.0),
            Err(ModelError::LengthMismatch { .. })
        ));
        let wrong_shape = DeltaCluster::from_indices(3, 3, [0], [0]);
        assert!(matches!(
            ServeModel::new(m, vec![wrong_shape], vec![0.0], 0.0),
            Err(ModelError::DimensionMismatch { cluster: 0 })
        ));
    }
}

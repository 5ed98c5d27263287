//! SUBCLU — density-connected subspace clustering (Kailing, Kriegel,
//! Kröger: *Density-Connected Subspace Clustering for High-Dimensional
//! Data*, SDM 2004).
//!
//! Bottom-up lattice walk over subspaces, powered by the shared
//! [`crate::dbscan`](mod@crate::dbscan) engine:
//!
//! 1. Run DBSCAN in every 1-dimensional subspace; keep the dimensions that
//!    contain clusters.
//! 2. Level `s → s+1`: generate candidate `(s+1)`-subspaces by the
//!    Apriori join (two `s`-subspaces sharing an `(s−1)`-prefix), pruning
//!    any candidate with an `s`-subset that produced no clusters — density
//!    connectivity is anti-monotone, so no cluster can exist there.
//! 3. For each surviving candidate, rerun DBSCAN *only inside the
//!    clusters* of its cheapest `s`-subspace (fewest clustered points),
//!    which is what keeps the walk tractable.
//!
//! Every cluster found at any level is reported (optionally capped to the
//! best-by-residue `keep`); a candidate budget bounds the combinatorial
//! worst case and reports [`FitStop::Capped`] when it trips.

use crate::dbscan::{dbscan, DbscanParams};
use crate::error::BaselineError;
use crate::traits::{FitContext, FitStop, SubspaceAlgorithm, SubspaceClustering};
use dc_floc::{cluster_residue, DeltaCluster, ResidueMean};
use dc_matrix::DataMatrix;
use dc_obs::Field;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::time::Instant;

/// SUBCLU parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SubcluConfig {
    /// DBSCAN neighborhood radius, shared by every subspace.
    pub eps: f64,
    /// DBSCAN core-point threshold (the point itself counts).
    pub min_pts: usize,
    /// Maximum subspace dimensionality to explore.
    pub max_dims: usize,
    /// Budget on candidate subspaces examined at levels ≥ 2 (0 =
    /// unbounded). Exceeding it stops the walk with [`FitStop::Capped`].
    pub max_candidates: usize,
    /// Minimum rows for a cluster to be reported (0 ⇒ `min_pts`).
    pub min_rows: usize,
    /// Report only the `keep` lowest-residue clusters (0 = all).
    pub keep: usize,
}

impl Default for SubcluConfig {
    fn default() -> Self {
        SubcluConfig {
            eps: 4.0,
            min_pts: 8,
            max_dims: 3,
            max_candidates: 512,
            min_rows: 0,
            keep: 0,
        }
    }
}

/// The SUBCLU algorithm behind the [`SubspaceAlgorithm`] interface.
#[derive(Debug, Clone, Default)]
pub struct Subclu {
    /// Algorithm parameters.
    pub config: SubcluConfig,
}

impl Subclu {
    /// Convenience constructor.
    pub fn new(config: SubcluConfig) -> Self {
        Subclu { config }
    }
}

/// One subspace with its density-connected clusters.
struct Subspace {
    dims: Vec<usize>,
    clusters: Vec<Vec<usize>>,
    /// Total clustered points, the "cheapest subspace" criterion.
    weight: usize,
}

impl SubspaceAlgorithm for Subclu {
    fn name(&self) -> &'static str {
        "subclu"
    }

    fn fit(
        &self,
        matrix: &DataMatrix,
        ctx: &FitContext,
    ) -> Result<SubspaceClustering, BaselineError> {
        let cfg = &self.config;
        if matrix.rows() == 0 || matrix.cols() == 0 || matrix.specified_count() == 0 {
            return Err(BaselineError::EmptyMatrix);
        }
        if !cfg.eps.is_finite() || cfg.eps <= 0.0 {
            return Err(BaselineError::InvalidConfig("eps must be positive".into()));
        }
        if cfg.min_pts == 0 {
            return Err(BaselineError::InvalidConfig(
                "min_pts must be at least 1".into(),
            ));
        }
        if cfg.max_dims == 0 {
            return Err(BaselineError::InvalidConfig(
                "max_dims must be at least 1".into(),
            ));
        }

        let started = Instant::now();
        let deadline = ctx.deadline();
        let threads = ctx.effective_threads();
        let span = ctx.obs.span("subclu.fit");
        let params = DbscanParams {
            eps: cfg.eps,
            min_pts: cfg.min_pts,
        };
        let all_rows: Vec<usize> = (0..matrix.rows()).collect();
        let mut stop = FitStop::Converged;
        let mut found: Vec<(Vec<usize>, Vec<usize>)> = Vec::new(); // (dims, rows)

        // Level 1: every single dimension.
        let mut current: Vec<Subspace> = Vec::new();
        'level1: for d in 0..matrix.cols() {
            if let Some(s) = deadline.check() {
                stop = s;
                break 'level1;
            }
            let clusters = dbscan(matrix, &[d], &all_rows, params, threads);
            if clusters.is_empty() {
                continue;
            }
            let weight = clusters.iter().map(Vec::len).sum();
            for c in &clusters {
                found.push((vec![d], c.clone()));
            }
            current.push(Subspace {
                dims: vec![d],
                clusters,
                weight,
            });
        }
        emit_level(ctx, 1, current.len(), found.len());

        // Levels 2..=max_dims: Apriori walk.
        let mut budget = cfg.max_candidates;
        let mut level = 1usize;
        'walk: while stop == FitStop::Converged && level < cfg.max_dims && current.len() > 1 {
            level += 1;
            let alive: HashSet<&[usize]> = current.iter().map(|s| s.dims.as_slice()).collect();
            let mut next: Vec<Subspace> = Vec::new();
            let mut candidates = 0usize;
            for i in 0..current.len() {
                for j in (i + 1)..current.len() {
                    let (a, b) = (&current[i].dims, &current[j].dims);
                    // Join: equal prefix, distinct last dimension.
                    if a[..a.len() - 1] != b[..b.len() - 1] {
                        continue;
                    }
                    let mut cand = a.clone();
                    cand.push(*b.last().expect("non-empty dims"));
                    cand.sort_unstable();
                    // Monotonicity prune: every s-subset must be alive.
                    let mut sub = cand.clone();
                    let prunable = (0..cand.len()).any(|skip| {
                        sub.clear();
                        sub.extend(
                            cand.iter()
                                .enumerate()
                                .filter_map(|(idx, &d)| (idx != skip).then_some(d)),
                        );
                        !alive.contains(sub.as_slice())
                    });
                    if prunable {
                        continue;
                    }
                    if let Some(s) = deadline.check() {
                        stop = s;
                        break 'walk;
                    }
                    if cfg.max_candidates > 0 {
                        if budget == 0 {
                            stop = FitStop::Capped;
                            break 'walk;
                        }
                        budget -= 1;
                    }
                    candidates += 1;
                    // Cheapest s-subset restricts the DBSCAN input.
                    let cheapest = cheapest_subset(&cand, &current);
                    let mut clusters: Vec<Vec<usize>> = Vec::new();
                    for base in &current[cheapest].clusters {
                        clusters.extend(dbscan(matrix, &cand, base, params, threads));
                    }
                    if clusters.is_empty() {
                        continue;
                    }
                    let weight = clusters.iter().map(Vec::len).sum();
                    for c in &clusters {
                        found.push((cand.clone(), c.clone()));
                    }
                    next.push(Subspace {
                        dims: cand,
                        clusters,
                        weight,
                    });
                }
            }
            emit_level(ctx, level, candidates, found.len());
            if next.is_empty() {
                break;
            }
            current = next;
        }

        // Report: size floor, then optional best-by-residue cap.
        let min_rows = if cfg.min_rows == 0 {
            cfg.min_pts
        } else {
            cfg.min_rows
        };
        let mut clusters: Vec<DeltaCluster> = found
            .into_iter()
            .filter(|(_, rows)| rows.len() >= min_rows)
            .map(|(dims, rows)| {
                DeltaCluster::from_indices(matrix.rows(), matrix.cols(), rows, dims)
            })
            .collect();
        if cfg.keep > 0 && clusters.len() > cfg.keep {
            let mut scored: Vec<(f64, DeltaCluster)> = clusters
                .into_iter()
                .map(|c| (cluster_residue(matrix, &c, ResidueMean::Arithmetic), c))
                .collect();
            scored.sort_by(|a, b| {
                a.0.total_cmp(&b.0)
                    .then_with(|| b.1.footprint().cmp(&a.1.footprint()))
            });
            scored.truncate(cfg.keep);
            clusters = scored.into_iter().map(|(_, c)| c).collect();
        }
        span.finish(&[
            Field::new("clusters", clusters.len() as u64),
            Field::new("levels", level as u64),
        ]);
        Ok(SubspaceClustering::from_clusters(
            self.name(),
            matrix,
            clusters,
            started.elapsed(),
            stop,
        ))
    }
}

/// Index (into `current`) of the candidate's `s`-subset with the fewest
/// clustered points. Every subset is alive — the prune ran first.
fn cheapest_subset(cand: &[usize], current: &[Subspace]) -> usize {
    let mut best = usize::MAX;
    let mut best_weight = usize::MAX;
    for (idx, s) in current.iter().enumerate() {
        if s.dims.iter().all(|d| cand.contains(d)) && s.weight < best_weight {
            best = idx;
            best_weight = s.weight;
        }
    }
    debug_assert!(best != usize::MAX, "prune guarantees a live subset");
    best
}

fn emit_level(ctx: &FitContext, level: usize, subspaces: usize, clusters_so_far: usize) {
    if ctx.obs.enabled() {
        ctx.obs.emit(
            "subclu.level",
            &[
                Field::new("level", level as u64),
                Field::new("subspaces", subspaces as u64),
                Field::new("clusters_so_far", clusters_so_far as u64),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Rows 0..15 dense on dims {0,1,2}; everything else uniform noise.
    fn planted(seed: u64) -> DataMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = DataMatrix::builder(40, 6).build();
        for r in 0..40 {
            for c in 0..6 {
                let v = if r < 15 && c < 3 {
                    20.0 + rng.gen_range(-0.5..0.5)
                } else {
                    rng.gen_range(0.0..500.0)
                };
                m.set(r, c, v);
            }
        }
        m
    }

    fn config() -> SubcluConfig {
        SubcluConfig {
            eps: 2.0,
            min_pts: 5,
            max_dims: 3,
            ..SubcluConfig::default()
        }
    }

    #[test]
    fn finds_the_planted_dense_subspace() {
        let m = planted(1);
        let out = Subclu::new(config())
            .fit(&m, &FitContext::serial())
            .unwrap();
        assert!(!out.clusters.is_empty());
        // Some reported cluster must cover the planted block at ≥ 2 dims.
        let hit = out.clusters.iter().any(|c| {
            c.col_count() >= 2
                && c.cols.iter().all(|d| d < 3)
                && c.rows.iter().filter(|&r| r < 15).count() >= 10
        });
        assert!(hit, "planted subspace not recovered: {out:?}");
        assert_eq!(out.stop, FitStop::Converged);
    }

    #[test]
    fn same_input_is_bit_identical_across_runs_and_threads() {
        let m = planted(2);
        let s = Subclu::new(config());
        let a = s.fit(&m, &FitContext::serial()).unwrap();
        let b = s.fit(&m, &FitContext::serial()).unwrap();
        assert_eq!(a.clusters, b.clusters);
        for threads in [2, 4] {
            let t = s
                .fit(&m, &FitContext::serial().with_threads(threads))
                .unwrap();
            assert_eq!(a.clusters, t.clusters, "threads={threads}");
        }
    }

    #[test]
    fn candidate_budget_caps_the_walk() {
        let m = planted(3);
        let mut cfg = config();
        cfg.eps = 100.0; // everything is dense everywhere
        cfg.max_candidates = 2;
        let out = Subclu::new(cfg).fit(&m, &FitContext::serial()).unwrap();
        assert_eq!(out.stop, FitStop::Capped);
    }

    #[test]
    fn keep_caps_the_report_to_lowest_residue() {
        let m = planted(4);
        let mut cfg = config();
        cfg.keep = 2;
        let out = Subclu::new(cfg).fit(&m, &FitContext::serial()).unwrap();
        assert!(out.clusters.len() <= 2);
        for pair in out.residues.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-12, "sorted by residue: {out:?}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let m = planted(5);
        let ctx = FitContext::serial();
        for bad in [
            SubcluConfig {
                eps: 0.0,
                ..config()
            },
            SubcluConfig {
                min_pts: 0,
                ..config()
            },
            SubcluConfig {
                max_dims: 0,
                ..config()
            },
        ] {
            assert!(matches!(
                Subclu::new(bad).fit(&m, &ctx),
                Err(BaselineError::InvalidConfig(_))
            ));
        }
        let empty = DataMatrix::builder(2, 2).build();
        assert!(matches!(
            Subclu::new(config()).fit(&empty, &ctx),
            Err(BaselineError::EmptyMatrix)
        ));
    }

    #[test]
    fn raised_interrupt_reports_partial_results() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let m = planted(6);
        let flag = Arc::new(AtomicBool::new(true));
        let ctx = FitContext::serial().with_interrupt(flag);
        let out = Subclu::new(config()).fit(&m, &ctx).unwrap();
        assert_eq!(out.stop, FitStop::Interrupted);
    }
}

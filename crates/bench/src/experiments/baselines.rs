//! Head-to-head comparison of every bundled subspace-clustering algorithm.
//!
//! The paper's experimental claim is comparative — δ-clusters (FLOC)
//! against biclustering and grid-based subspace methods. This harness runs
//! all five algorithms behind [`dc_baselines::SubspaceAlgorithm`] — FLOC,
//! PROCLUS, SUBCLU, Cheng–Church, and the §4.4 CLIQUE alternative — over
//! the same embedded workloads (the fig8 uniform grid, a fig9-style
//! heterogeneous-volume case, and a paged-backend case) and reports
//! entry-level recall/precision, cluster-level matching, average residue
//! and wall clock per run.
//!
//! The scaled default is CI-sized; `--full` grows the grid toward the
//! paper's 3000×100 scale. Results land in `BENCH_baselines.json`.

use crate::opts::Opts;
use dc_baselines::{
    AlternativeConfig, ChengChurchBaseline, ChengChurchConfig, CliqueBaseline, FitContext,
    FlocBaseline, Proclus, ProclusConfig, Subclu, SubcluConfig, SubspaceAlgorithm,
};
use dc_datagen::synth::{split_volume, table5_config};
use dc_datagen::EmbedConfig;
use dc_eval::report::{fmt_f, write_json, Table};
use dc_floc::{DeltaCluster, FlocConfig, Seeding};
use dc_matrix::DataMatrix;
use serde::Serialize;

/// One algorithm × case measurement.
#[derive(Debug, Clone, Serialize)]
pub struct Record {
    /// Algorithm name (`floc`, `proclus`, …).
    pub algorithm: String,
    /// Workload case name (`fig8`, `fig9-var`, `paged`).
    pub case: String,
    /// Matrix height of the case.
    pub rows: usize,
    /// Matrix width of the case.
    pub cols: usize,
    /// Clusters the algorithm reported.
    pub clusters_found: usize,
    /// Entry-level recall against the embedded truth.
    pub recall: f64,
    /// Entry-level precision against the embedded truth.
    pub precision: f64,
    /// Harmonic mean of the two.
    pub f1: f64,
    /// Cluster-level recall from greedy matching (Jaccard ≥ 0.2).
    pub cluster_recall: f64,
    /// Mean residue over reported clusters (0 when none).
    pub avg_residue: f64,
    /// Wall-clock seconds of the fit.
    pub wall_s: f64,
    /// Why the fit stopped.
    pub stop: String,
}

/// Environment metadata stamped into the report so readers can judge what
/// the wall-clock column means.
#[derive(Debug, Clone, Serialize)]
pub struct ReportMeta {
    /// Logical cores visible to the harness when it ran.
    pub detected_cores: usize,
    /// Interpretation caveats (single-core runner, etc.).
    pub notes: Vec<String>,
}

/// Captures the current machine's metadata, including the single-core
/// caveat when the runner cannot actually run threads in parallel.
fn report_meta() -> ReportMeta {
    let detected_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut notes = Vec::new();
    if detected_cores <= 1 {
        notes.push(
            "runner reports 1 logical core: wall clocks at threads > 1 measure \
             oversubscription overhead, not parallel speedup"
                .to_string(),
        );
    }
    ReportMeta {
        detected_cores,
        notes,
    }
}

/// Everything `BENCH_baselines.json` holds.
#[derive(Debug, Serialize)]
pub struct Report {
    /// Where and how the numbers were measured.
    pub meta: ReportMeta,
    /// One record per algorithm × case, in case order.
    pub records: Vec<Record>,
}

/// One workload case: a matrix, its ground truth, and the per-case
/// algorithm parameters derived from the embedded structure.
struct Case {
    name: &'static str,
    matrix: DataMatrix,
    truth: Vec<DeltaCluster>,
    /// Embedded cluster count — the `k` handed to the k-taking algorithms.
    k: usize,
    /// Embedded cluster shape, used to size FLOC seeds.
    seed_shape: (usize, usize),
}

/// Builds the workload cases. Scaled default: CI-sized grids; `--full`
/// grows toward the paper's 3000×100 scale.
fn cases(opts: &Opts) -> Vec<Case> {
    let mut cases = Vec::new();

    // fig8-style uniform grid: k clusters of volume 100 (10×10).
    // Smoke sizes keep the CLIQUE alternative tractable: its derived
    // matrix squares the attribute count, so 20 columns (→190 derived)
    // is seconds where 30 (→435) is minutes.
    let (rows, cols, k) = if opts.full {
        (3000, 100, 30)
    } else {
        (300, 20, 4)
    };
    let size = split_volume(100, 10.0, 2, 2);
    let cfg = EmbedConfig::new(rows, cols, vec![size; k]).with_seed(11);
    let data = dc_datagen::embed::generate(&cfg);
    cases.push(Case {
        name: "fig8",
        matrix: data.matrix,
        truth: data.truth,
        k,
        seed_shape: size,
    });

    // fig9-style heterogeneous volumes: Erlang-distributed cluster sizes
    // (variance level 2) — stresses algorithms that assume uniform extent.
    let mut cfg = table5_config(2.0, 0.0, 21);
    if !opts.full {
        cfg.rows = 300;
        cfg.cols = 20;
        cfg.cluster_sizes.truncate(4);
        cfg.cluster_sizes = cfg
            .cluster_sizes
            .iter()
            .map(|&(r, c)| (r.min(40), c.min(8)))
            .collect();
    }
    let k = cfg.cluster_sizes.len();
    let shape = cfg.cluster_sizes[0];
    let data = dc_datagen::embed::generate(&cfg);
    cases.push(Case {
        name: "fig9-var",
        matrix: data.matrix,
        truth: data.truth,
        k,
        seed_shape: shape,
    });

    // Paged-backend case: the same structure streamed to disk and mined
    // through the block-cached backend — PR 9's substrate under medoid
    // sampling and DBSCAN access patterns instead of FLOC's sweeps.
    let (rows, cols, k) = if opts.full {
        (2000, 60, 8)
    } else {
        (300, 20, 3)
    };
    let cfg = EmbedConfig::new(rows, cols, vec![size; k]).with_seed(29);
    let dir = std::env::temp_dir().join(format!("dc-bench-baselines-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    match dc_datagen::embed::generate_paged(&cfg, &dir, dc_matrix::DEFAULT_CHUNK_ROWS) {
        Ok(data) => cases.push(Case {
            name: "paged",
            matrix: data.matrix,
            truth: data.truth,
            k,
            seed_shape: size,
        }),
        Err(e) => eprintln!("  baselines: skipping paged case: {e}"),
    }

    cases
}

/// The contender list for one case, parameterized by its embedded truth.
fn algorithms(case: &Case) -> Vec<Box<dyn SubspaceAlgorithm>> {
    let (seed_rows, seed_cols) = case.seed_shape;
    vec![
        Box::new(FlocBaseline::new(
            FlocConfig::builder(case.k)
                .seeding(Seeding::TargetSize {
                    rows: seed_rows,
                    cols: seed_cols,
                })
                .seed(3)
                .build(),
        )),
        Box::new(Proclus::new(ProclusConfig {
            k: case.k,
            avg_dims: seed_cols.clamp(2, case.matrix.cols()),
            seed: 3,
            ..ProclusConfig::default()
        })),
        Box::new(Subclu::new(SubcluConfig {
            eps: 6.0,
            min_pts: (seed_rows / 2).max(4),
            max_dims: 3,
            max_candidates: 256,
            keep: case.k * 4,
            ..SubcluConfig::default()
        })),
        Box::new(ChengChurchBaseline::new(ChengChurchConfig {
            seed: 3,
            ..ChengChurchConfig::new(case.k, 80.0)
        })),
        Box::new(CliqueBaseline::new(AlternativeConfig {
            k: case.k,
            // Defaults (max_level 4, clique_cap 1000) spend minutes per
            // case: the derived matrix squares the attribute count and
            // CLIQUE's cost is combinatorial in the level — the exact §4.4
            // blow-up the paper argues against. Capped to stay CI-sized;
            // the wall-clock column still shows the asymmetry.
            clique: dc_baselines::CliqueConfig {
                max_level: 3,
                ..Default::default()
            },
            clique_cap: 100,
            ..AlternativeConfig::default()
        })),
    ]
}

fn measure(case: &Case, algo: &dyn SubspaceAlgorithm, threads: usize) -> Record {
    let ctx = FitContext::serial().with_threads(threads);
    let result = algo
        .fit(&case.matrix, &ctx)
        .unwrap_or_else(|e| panic!("{} failed on {}: {e}", algo.name(), case.name));
    let q = dc_eval::quality(&case.matrix, &case.truth, &result.clusters);
    let matches = dc_eval::match_clusters(&case.matrix, &case.truth, &result.clusters);
    let ms = dc_eval::match_summary(&matches, result.clusters.len(), 0.2);
    Record {
        algorithm: result.algorithm.clone(),
        case: case.name.to_string(),
        rows: case.matrix.rows(),
        cols: case.matrix.cols(),
        clusters_found: result.clusters.len(),
        recall: q.recall,
        precision: q.precision,
        f1: q.f1(),
        cluster_recall: ms.cluster_recall,
        avg_residue: result.avg_residue(),
        wall_s: result.elapsed.as_secs_f64(),
        stop: result.stop.to_string(),
    }
}

/// Runs the head-to-head grid and writes `BENCH_baselines.json`.
pub fn run(opts: &Opts) -> String {
    let mut records = Vec::new();
    for case in &cases(opts) {
        for algo in algorithms(case) {
            let rec = measure(case, algo.as_ref(), opts.threads);
            eprintln!(
                "  baselines {} × {}: {} clusters, recall {:.3}, precision {:.3}, {:.2}s",
                rec.case, rec.algorithm, rec.clusters_found, rec.recall, rec.precision, rec.wall_s,
            );
            records.push(rec);
        }
    }

    let mut t = Table::new(vec![
        "case",
        "algorithm",
        "clusters",
        "recall",
        "precision",
        "f1",
        "avg residue",
        "time (s)",
    ]);
    for r in &records {
        t.row(vec![
            r.case.clone(),
            r.algorithm.clone(),
            r.clusters_found.to_string(),
            fmt_f(r.recall, 3),
            fmt_f(r.precision, 3),
            fmt_f(r.f1, 3),
            fmt_f(r.avg_residue, 2),
            fmt_f(r.wall_s, 2),
        ]);
    }
    let report = Report {
        meta: report_meta(),
        records,
    };
    let _ = write_json(&opts.out_dir, "BENCH_baselines", &report);
    format!(
        "Head-to-head — every algorithm over the embedded workloads\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cases_are_ci_sized() {
        let opts = Opts::default();
        let cases = cases(&opts);
        assert!(cases.len() >= 2, "fig8 and fig9-var at minimum");
        for c in &cases {
            assert!(
                c.matrix.rows() * c.matrix.cols() <= 20_000,
                "{} too large for a smoke run",
                c.name
            );
            assert!(!c.truth.is_empty());
        }
    }

    #[test]
    fn every_algorithm_is_represented_per_case() {
        let opts = Opts::default();
        let case = &cases(&opts)[0];
        let names: Vec<_> = algorithms(case).iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            dc_baselines::ALGORITHM_NAMES.to_vec(),
            "contender list must cover ALGORITHM_NAMES in report order"
        );
    }
}

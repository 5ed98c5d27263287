//! The planted truth is a fixed point of FLOC: seeded with exactly the
//! planted clusters, one resume keeps them, on the memory backend and
//! bit-identically on a paged twin whose cache holds one block.

use dc_floc::{
    cluster_residue, floc_resume_with, DeltaCluster, FlocCheckpoint, FlocConfig, FlocResult,
};
use dc_matrix::DataMatrix;
use dc_obs::Obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

const ROWS: usize = 300;
const COLS: usize = 30;
const PLANTS: usize = 4;

/// The rows and columns of plant `p`: 8 rows and 3 columns, disjoint from
/// every other plant's.
fn plant(p: usize) -> (Vec<usize>, Vec<usize>) {
    let rows = (0..8).map(|i| p * 75 + 5 + 9 * i).collect();
    let cols = (0..3).map(|j| p * 7 + 1 + 2 * j).collect();
    (rows, cols)
}

/// The planted clusters.
fn truth() -> Vec<DeltaCluster> {
    (0..PLANTS)
        .map(|p| {
            let (rows, cols) = plant(p);
            DeltaCluster::from_indices(ROWS, COLS, rows, cols)
        })
        .collect()
}

/// A `ROWS × COLS` uniform background holding the four plants, each an
/// additive row-plus-column model with uniform noise of half-width
/// `noise` (0 plants perfect δ-clusters; 13 gives a residue near 5).
fn planted_matrix(seed: u64, noise: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data: Vec<f64> = (0..ROWS * COLS)
        .map(|_| rng.gen_range(0.0..100.0))
        .collect();
    for p in 0..PLANTS {
        let (rows, cols) = plant(p);
        let row_shift: Vec<f64> = rows.iter().map(|_| rng.gen_range(-20.0..20.0)).collect();
        let col_shift: Vec<f64> = cols.iter().map(|_| rng.gen_range(-20.0..20.0)).collect();
        for (i, &r) in rows.iter().enumerate() {
            for (j, &c) in cols.iter().enumerate() {
                let e = if noise > 0.0 {
                    rng.gen_range(-noise..noise)
                } else {
                    0.0
                };
                data[r * COLS + c] = 50.0 + row_shift[i] + col_shift[j] + e;
            }
        }
    }
    data
}

/// The cells `clusters` cover.
fn cells(clusters: &[DeltaCluster]) -> HashSet<(usize, usize)> {
    let mut out = HashSet::new();
    for c in clusters {
        for r in c.rows.iter() {
            for j in c.cols.iter() {
                out.insert((r, j));
            }
        }
    }
    out
}

/// A resumable checkpoint on `matrix` whose incumbent is the truth.
fn seeded_at_truth(matrix: &DataMatrix, config: &FlocConfig) -> FlocCheckpoint {
    let clusters = truth();
    let residues: Vec<f64> = clusters
        .iter()
        .map(|c| cluster_residue(matrix, c, config.mean))
        .collect();
    FlocCheckpoint {
        config: config.clone(),
        matrix_rows: matrix.rows(),
        matrix_cols: matrix.cols(),
        matrix_specified: matrix.specified_count(),
        matrix_fingerprint: matrix.fingerprint(),
        iterations: 0,
        rng_state: vec![0x9E37_79B9_7F4A_7C15, 1, 2, 3],
        avg_residue: residues.iter().sum::<f64>() / residues.len() as f64,
        clusters,
        residues,
        trace: Vec::new(),
        stop: None,
    }
}

fn resume(matrix: &DataMatrix, config: &FlocConfig) -> FlocResult {
    let checkpoint = seeded_at_truth(matrix, config);
    floc_resume_with(matrix, &checkpoint, config, &Obs::null()).unwrap()
}

#[test]
fn the_planted_truth_survives_one_resume_on_both_backends() {
    let truth = cells(&truth());
    for (seed, noise) in [(7, 0.0), (8, 0.0), (7, 13.0), (8, 13.0)] {
        let data = planted_matrix(seed, noise);
        let memory = DataMatrix::builder(ROWS, COLS).from_rows(data.clone());
        let config = FlocConfig::builder(PLANTS)
            .seed(seed)
            .max_iterations(10)
            .build();
        let result = resume(&memory, &config);

        let found = cells(&result.clusters);
        let hit = found.intersection(&truth).count() as f64;
        let (recall, precision) = (hit / truth.len() as f64, hit / found.len() as f64);
        let what = format!(
            "seed {seed}, noise {noise}: avg residue {}",
            result.avg_residue
        );
        assert!(recall >= 0.99, "{what}: recall {recall}");
        assert!(precision >= 0.99, "{what}: precision {precision}");

        let dir = std::env::temp_dir().join(format!(
            "dc-floc-fixed-point-{}-{seed}-{noise}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let paged = DataMatrix::builder(ROWS, COLS)
            .paged(&dir)
            .chunk_rows(16)
            .cache_blocks(Some(1))
            .from_rows(data)
            .unwrap();
        let twin = resume(&paged, &config);
        assert_eq!(twin.clusters, result.clusters, "{what}");
        let bits = |r: &FlocResult| -> Vec<u64> {
            r.residues
                .iter()
                .chain([&r.avg_residue])
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&twin), bits(&result), "{what}");
        assert_eq!(twin.trace, result.trace, "{what}");
        assert_eq!(twin.iterations, result.iterations, "{what}");
        assert!(paged.storage_backend().io_stats().misses > 0);
        drop(paged);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

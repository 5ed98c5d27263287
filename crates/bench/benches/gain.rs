//! Gain evaluation: virtual toggles (no allocation, cached bases) vs the
//! naive clone-and-recompute approach the paper describes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dc_floc::{cluster_residue, ClusterState, DeltaCluster, ResidueMean, Scratch};
use dc_matrix::DataMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn setup(rows: usize, cols: usize) -> (DataMatrix, ClusterState) {
    let mut rng = StdRng::seed_from_u64(2);
    let m = DataMatrix::builder(rows, cols).from_rows(
        (0..rows * cols)
            .map(|_| rng.gen_range(0.0..100.0))
            .collect(),
    );
    let cluster = DeltaCluster::from_indices(rows, cols, 0..rows / 3, 0..cols / 2);
    let state = ClusterState::new(&m, &cluster);
    (m, state)
}

fn bench_gain(c: &mut Criterion) {
    let mut group = c.benchmark_group("gain");
    group.sample_size(20);
    for &(rows, cols) in &[(100usize, 20usize), (500, 50)] {
        let (m, state) = setup(rows, cols);
        group.bench_with_input(
            BenchmarkId::new("virtual_toggle", format!("{rows}x{cols}")),
            &(&m, &state),
            |b, (m, st)| {
                let mut scratch = Scratch::default();
                b.iter(|| {
                    st.residue_if_row_toggled(
                        m,
                        rows - 1,
                        &m.row_of(rows - 1),
                        ResidueMean::Arithmetic,
                        &mut scratch,
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naive_recompute", format!("{rows}x{cols}")),
            &(&m, &state),
            |b, (m, st)| {
                b.iter(|| {
                    // The paper's approach: rebuild the toggled cluster and
                    // recompute bases + residue from scratch.
                    let mut cluster = st.to_cluster();
                    cluster.rows.toggle(rows - 1);
                    cluster_residue(m, &cluster, ResidueMean::Arithmetic)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_gain);
criterion_main!(benches);

//! Property-based tests for the δ-cluster model and FLOC machinery.

use dc_floc::{cluster_residue, residue, ClusterState, DeltaCluster, ResidueMean, Scratch};
use dc_matrix::DataMatrix;
use proptest::prelude::*;

/// Arbitrary small matrix with optional entries.
fn arb_matrix() -> impl Strategy<Value = DataMatrix> {
    (2usize..10, 2usize..10).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            proptest::option::weighted(0.85, -100.0..100.0f64),
            rows * cols,
        )
        .prop_map(move |data| DataMatrix::builder(rows, cols).from_options(data))
    })
}

/// Arbitrary non-empty cluster over an `m × n` universe.
fn arb_cluster(m: usize, n: usize) -> impl Strategy<Value = DeltaCluster> {
    (
        proptest::collection::hash_set(0..m, 1..=m),
        proptest::collection::hash_set(0..n, 1..=n),
    )
        .prop_map(move |(rows, cols)| DeltaCluster::from_indices(m, n, rows, cols))
}

fn arb_matrix_and_cluster() -> impl Strategy<Value = (DataMatrix, DeltaCluster)> {
    arb_matrix().prop_flat_map(|m| {
        let (rows, cols) = (m.rows(), m.cols());
        arb_cluster(rows, cols).prop_map(move |c| (m.clone(), c))
    })
}

proptest! {
    // ---- Residue invariants ------------------------------------------

    #[test]
    fn residue_is_non_negative((m, c) in arb_matrix_and_cluster()) {
        for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
            let r = cluster_residue(&m, &c, mean);
            prop_assert!(r >= 0.0, "{mean:?}: {r}");
            prop_assert!(r.is_finite());
        }
    }

    #[test]
    fn residue_is_invariant_under_row_shifts(
        (m, c) in arb_matrix_and_cluster(),
        shift in -500.0..500.0f64,
        which in 0usize..10,
    ) {
        // Shifting all entries of one participating row by a constant must
        // not change the residue — the defining property of the model.
        // Exact invariance requires the cluster submatrix to be fully
        // specified: with missing entries the bases average over different
        // supports and the shift no longer cancels, so we restrict to that
        // case (the arithmetic of Definition 3.4 is only "perfect" there,
        // which is why Definition 3.1 bounds missing entries via α).
        let complete = c.rows.iter().all(|r| c.cols.iter().all(|col| m.is_specified(r, col)));
        prop_assume!(complete);
        let rows: Vec<usize> = c.rows.iter().collect();
        let row = rows[which % rows.len()];
        let mut shifted = m.clone();
        for col in 0..m.cols() {
            if let Some(v) = m.get(row, col) {
                shifted.set(row, col, v + shift);
            }
        }
        let before = cluster_residue(&m, &c, ResidueMean::Arithmetic);
        let after = cluster_residue(&shifted, &c, ResidueMean::Arithmetic);
        prop_assert!((before - after).abs() < 1e-6, "{before} vs {after}");
    }

    #[test]
    fn residue_is_invariant_under_global_shift((m, c) in arb_matrix_and_cluster(), shift in -500.0..500.0f64) {
        let mut shifted = m.clone();
        shifted.map_in_place(|v| v + shift);
        let before = cluster_residue(&m, &c, ResidueMean::Arithmetic);
        let after = cluster_residue(&shifted, &c, ResidueMean::Arithmetic);
        prop_assert!((before - after).abs() < 1e-6);
    }

    #[test]
    fn perfect_additive_cluster_has_zero_residue(
        row_biases in proptest::collection::vec(-50.0..50.0f64, 2..8),
        col_effects in proptest::collection::vec(-50.0..50.0f64, 2..8),
    ) {
        let rows = row_biases.len();
        let cols = col_effects.len();
        let mut m = DataMatrix::builder(rows, cols).build();
        for (r, rb) in row_biases.iter().enumerate() {
            for (c, ce) in col_effects.iter().enumerate() {
                m.set(r, c, rb + ce);
            }
        }
        let cluster = DeltaCluster::from_indices(rows, cols, 0..rows, 0..cols);
        prop_assert!(cluster_residue(&m, &cluster, ResidueMean::Arithmetic) < 1e-9);
    }

    // ---- Incremental state vs reference -------------------------------

    #[test]
    fn incremental_state_tracks_reference(
        (m, c) in arb_matrix_and_cluster(),
        toggles in proptest::collection::vec((proptest::bool::ANY, 0usize..10), 0..25),
    ) {
        let mut state = ClusterState::new(&m, &c);
        let mut scratch = Scratch::default();
        for (is_row, idx) in toggles {
            if is_row {
                state.toggle_row(idx % m.rows(), &m.row_of(idx % m.rows()));
            } else {
                state.toggle_col(idx % m.cols(), &m.col_of(idx % m.cols()));
            }
            let incr = state.residue(&m, ResidueMean::Arithmetic, &mut scratch);
            let oracle = cluster_residue(&m, &state.to_cluster(), ResidueMean::Arithmetic);
            prop_assert!((incr - oracle).abs() < 1e-7, "incr {incr} vs oracle {oracle}");
            prop_assert_eq!(state.volume(), state.to_cluster().volume(&m));
        }
    }

    #[test]
    fn virtual_toggles_match_actual((m, c) in arb_matrix_and_cluster(), idx in 0usize..10) {
        let state = ClusterState::new(&m, &c);
        let mut scratch = Scratch::default();
        let row = idx % m.rows();
        let col = idx % m.cols();
        for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
            let virt = state.residue_if_row_toggled(&m, row, &m.row_of(row), mean, &mut scratch);
            let mut actual = state.clone();
            actual.toggle_row(row, &m.row_of(row));
            let real = actual.residue(&m, mean, &mut scratch);
            prop_assert!((virt - real).abs() < 1e-7, "row {row} {mean:?}: {virt} vs {real}");

            let virt = state.residue_if_col_toggled(&m, col, &m.col_of(col), mean, &mut scratch);
            let mut actual = state.clone();
            actual.toggle_col(col, &m.col_of(col));
            let real = actual.residue(&m, mean, &mut scratch);
            prop_assert!((virt - real).abs() < 1e-7, "col {col} {mean:?}: {virt} vs {real}");
        }
    }

    #[test]
    fn double_toggle_is_identity((m, c) in arb_matrix_and_cluster(), idx in 0usize..10) {
        let state = ClusterState::new(&m, &c);
        let mut scratch = Scratch::default();
        let before = state.residue(&m, ResidueMean::Arithmetic, &mut scratch);
        let mut toggled = state.clone();
        let row = idx % m.rows();
        toggled.toggle_row(row, &m.row_of(row));
        toggled.toggle_row(row, &m.row_of(row));
        let after = toggled.residue(&m, ResidueMean::Arithmetic, &mut scratch);
        prop_assert!((before - after).abs() < 1e-7);
        prop_assert_eq!(toggled.volume(), state.volume());
        prop_assert_eq!(&toggled.rows, &state.rows);
    }

    // ---- Occupancy -----------------------------------------------------

    #[test]
    fn occupancy_violations_match_definition((m, c) in arb_matrix_and_cluster(), alpha in 0.0..1.0f64) {
        let state = ClusterState::new(&m, &c);
        let violations = state.occupancy_violations(alpha);
        prop_assert_eq!(violations == 0, c.satisfies_occupancy(&m, alpha));
    }

    // ---- Bases ----------------------------------------------------------

    #[test]
    fn bases_average_to_cluster_base((m, c) in arb_matrix_and_cluster()) {
        let b = residue::bases(&m, &c);
        if b.volume > 0 {
            // The volume-weighted mean of row bases equals the cluster base.
            let mut weighted = 0.0;
            let mut weight = 0.0;
            for (i, &row) in b.rows.iter().enumerate() {
                let cnt = c.cols.iter().filter(|&col| m.is_specified(row, col)).count() as f64;
                weighted += b.row_bases[i] * cnt;
                weight += cnt;
            }
            if weight > 0.0 {
                prop_assert!((weighted / weight - b.cluster_base).abs() < 1e-7);
            }
        }
    }
}

// ---- Checkpoint / resume -------------------------------------------------

use dc_floc::{
    floc_resume_with, floc_with, CheckpointLog, FlocCheckpoint, FlocConfig, FlocResult,
    GainEngineKind,
};
use dc_obs::Obs;

/// Runs FLOC under a [`CheckpointLog`], returning the result and every
/// published snapshot.
fn floc_logged(m: &DataMatrix, config: &FlocConfig) -> (FlocResult, Vec<FlocCheckpoint>) {
    let log = CheckpointLog::new();
    let result = floc_with(m, config, &Obs::new(log.clone())).unwrap();
    (result, log.snapshots())
}

/// Resumes `ckpt` without observation.
fn resume(m: &DataMatrix, ckpt: &FlocCheckpoint, config: &FlocConfig) -> FlocResult {
    floc_resume_with(m, ckpt, config, &Obs::null()).unwrap()
}

/// A denser random matrix suitable for actually running FLOC end to end
/// (the residue machinery needs enough specified cells to make progress).
fn arb_mining_matrix() -> impl Strategy<Value = DataMatrix> {
    (8usize..20, 6usize..14).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            proptest::option::weighted(0.92, -50.0..50.0f64),
            rows * cols,
        )
        .prop_map(move |data| DataMatrix::builder(rows, cols).from_options(data))
    })
}

proptest! {
    /// The tentpole robustness property: resuming from the snapshot taken
    /// after ANY iteration of ANY run reproduces the uninterrupted result
    /// bit for bit — same clusters, same residues, same trace.
    #[test]
    fn resume_from_every_checkpoint_matches_the_uninterrupted_run(
        m in arb_mining_matrix(),
        seed in 0u64..1_000_000,
        k in 2usize..4,
    ) {
        let config = FlocConfig::builder(k).alpha(0.5).seed(seed).build();
        let (full, snapshots) = floc_logged(&m, &config);
        prop_assert!(!snapshots.is_empty());

        // Every non-terminal snapshot must resume to the identical result;
        // the terminal one must short-circuit to the same answer too.
        for ckpt in &snapshots {
            let resumed = resume(&m, ckpt, &config);
            prop_assert_eq!(&resumed.clusters, &full.clusters);
            prop_assert_eq!(&resumed.residues, &full.residues);
            prop_assert_eq!(resumed.avg_residue, full.avg_residue);
            prop_assert_eq!(resumed.iterations, full.iterations);
            prop_assert_eq!(resumed.stop_reason, full.stop_reason);
            prop_assert_eq!(&resumed.trace, &full.trace);
        }
    }

    /// A checkpoint survives a JSON round trip unchanged — the in-memory
    /// state, not just the binary codec, is fully serializable.
    #[test]
    fn checkpoint_json_round_trip_is_lossless(
        m in arb_mining_matrix(),
        seed in 0u64..1_000_000,
    ) {
        let config = FlocConfig::builder(2).alpha(0.5).seed(seed).build();
        let (_, snapshots) = floc_logged(&m, &config);
        for ckpt in &snapshots {
            let json = serde_json::to_string(ckpt).unwrap();
            let back: FlocCheckpoint = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&back, ckpt);
        }
    }
}

// ---- Gain engines ---------------------------------------------------------

use dc_floc::{IncrementalEngine, Target};

proptest! {
    /// The incremental engine answers every virtual-toggle query with the
    /// same residue as the exact scanner, for both aggregation means.
    #[test]
    fn incremental_engine_matches_exact_gains(
        (m, c) in arb_matrix_and_cluster(),
    ) {
        let state = ClusterState::new(&m, &c);
        let mut scratch = Scratch::default();
        for mean in [ResidueMean::Arithmetic, ResidueMean::Squared] {
            let engine = IncrementalEngine::build(&m, std::slice::from_ref(&state), mean);
            for r in 0..m.rows() {
                let exact = state.residue_if_row_toggled(&m, r, &m.row_of(r), mean, &mut scratch);
                let incr = engine.toggled_residue(0, Target::Row(r), &Target::Row(r).line(&m), &state, &mut scratch);
                prop_assert!(
                    (incr - exact).abs() <= 1e-9 * (1.0 + exact.abs()),
                    "row {r} {mean:?}: incremental {incr} vs exact {exact}"
                );
            }
            for col in 0..m.cols() {
                let exact = state.residue_if_col_toggled(&m, col, &m.col_of(col), mean, &mut scratch);
                let incr = engine.toggled_residue(0, Target::Col(col), &Target::Col(col).line(&m), &state, &mut scratch);
                prop_assert!(
                    (incr - exact).abs() <= 1e-9 * (1.0 + exact.abs()),
                    "col {col} {mean:?}: incremental {incr} vs exact {exact}"
                );
            }
        }
    }

    /// Full runs under the two engines choose the same actions and land on
    /// the same final clustering. (The engines agree to ~1e-12 on every
    /// gain, so the argmax — and hence the whole trajectory — coincides on
    /// anything but pathological exact ties.)
    #[test]
    fn engines_produce_identical_runs(
        m in arb_mining_matrix(),
        seed in 0u64..1_000_000,
        k in 2usize..4,
    ) {
        let exact_cfg = FlocConfig::builder(k)
            .alpha(0.5)
            .seed(seed)
            .gain_engine(GainEngineKind::Exact)
            .build();
        let incr_cfg = FlocConfig::builder(k)
            .alpha(0.5)
            .seed(seed)
            .gain_engine(GainEngineKind::Incremental)
            .build();
        let exact = dc_floc::floc(&m, &exact_cfg).unwrap();
        let incr = dc_floc::floc(&m, &incr_cfg).unwrap();
        prop_assert_eq!(&incr.clusters, &exact.clusters);
        // Final residues come from the canonical exact scan in both runs,
        // so identical clusterings imply bit-identical residues.
        prop_assert_eq!(&incr.residues, &exact.residues);
        prop_assert_eq!(incr.iterations, exact.iterations);
        prop_assert_eq!(incr.stop_reason, exact.stop_reason);
    }

    /// PR 2's checkpoint/resume bit-identity holds under the incremental
    /// engine too: resuming any snapshot reproduces the uninterrupted run.
    #[test]
    fn resume_is_bit_identical_under_the_incremental_engine(
        m in arb_mining_matrix(),
        seed in 0u64..1_000_000,
    ) {
        let config = FlocConfig::builder(2)
            .alpha(0.5)
            .seed(seed)
            .gain_engine(GainEngineKind::Incremental)
            .build();
        let (full, snapshots) = floc_logged(&m, &config);
        for ckpt in &snapshots {
            let resumed = resume(&m, ckpt, &config);
            prop_assert_eq!(&resumed.clusters, &full.clusters);
            prop_assert_eq!(&resumed.residues, &full.residues);
            prop_assert_eq!(resumed.avg_residue, full.avg_residue);
            prop_assert_eq!(&resumed.trace, &full.trace);
        }
    }
}

// ---- Observability ---------------------------------------------------------

use dc_obs::{JsonSink, MemorySink, NullSink};

fn f64_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// The observability determinism contract: mining under ANY sink —
    /// no handle, a disabled handle, a swallowing sink, a JSON renderer,
    /// an in-memory recorder — returns a bit-identical [`FlocResult`].
    #[test]
    fn mining_is_bit_identical_under_any_sink(
        m in arb_mining_matrix(),
        seed in 0u64..1_000_000,
        k in 2usize..4,
    ) {
        let config = FlocConfig::builder(k).alpha(0.5).seed(seed).build();
        let plain = dc_floc::floc(&m, &config).unwrap();
        let memory = MemorySink::new();
        let observed = [
            floc_with(&m, &config, &Obs::null()).unwrap(),
            floc_with(&m, &config, &Obs::new(NullSink)).unwrap(),
            floc_with(&m, &config, &Obs::new(JsonSink::new(std::io::sink()))).unwrap(),
            floc_with(&m, &config, &Obs::new(memory.clone())).unwrap(),
        ];
        for r in &observed {
            prop_assert_eq!(&r.clusters, &plain.clusters);
            prop_assert_eq!(f64_bits(&r.residues), f64_bits(&plain.residues));
            prop_assert_eq!(r.avg_residue.to_bits(), plain.avg_residue.to_bits());
            prop_assert_eq!(r.iterations, plain.iterations);
            prop_assert_eq!(r.stop_reason, plain.stop_reason);
            prop_assert_eq!(&r.trace, &plain.trace);
        }
        // The recorder saw exactly one iteration event per phase-2
        // iteration and exactly one terminal event.
        prop_assert_eq!(memory.named("floc.iteration").len(), plain.iterations);
        prop_assert_eq!(memory.named("floc.done").len(), 1);
    }

    /// A checkpoint log sees the same snapshot sequence alone as inside a
    /// fanout with other sinks, and resuming any of those snapshots under
    /// yet another sink stays bit-identical.
    #[test]
    fn sink_checkpoints_resume_bit_identically(
        m in arb_mining_matrix(),
        seed in 0u64..1_000_000,
    ) {
        let config = FlocConfig::builder(2).alpha(0.5).seed(seed).build();
        let (full, sink_seen) = floc_logged(&m, &config);

        let fanned = CheckpointLog::new();
        let obs = Obs::fanout(vec![
            Box::new(fanned.clone()),
            Box::new(JsonSink::new(std::io::sink())),
            Box::new(MemorySink::new()),
        ]);
        let fanned_run = floc_with(&m, &config, &obs).unwrap();
        prop_assert_eq!(&fanned.snapshots(), &sink_seen);
        prop_assert_eq!(&fanned_run.clusters, &full.clusters);
        // The fingerprint is computed lazily at the first snapshot; the
        // terminal one must still carry the matrix's own.
        let terminal = sink_seen.last().expect("a terminal snapshot");
        prop_assert!(terminal.stop.is_some());
        prop_assert_eq!(terminal.matrix_fingerprint, m.fingerprint());

        for ckpt in &sink_seen {
            let resumed =
                floc_resume_with(&m, ckpt, &config, &Obs::new(MemorySink::new())).unwrap();
            prop_assert_eq!(&resumed.clusters, &full.clusters);
            prop_assert_eq!(resumed.avg_residue.to_bits(), full.avg_residue.to_bits());
            prop_assert_eq!(f64_bits(&resumed.residues), f64_bits(&full.residues));
            prop_assert_eq!(&resumed.trace, &full.trace);
        }
    }
}

// ---- Thread-count determinism ---------------------------------------------

use dc_floc::{Constraint, Parallelism};

/// The search variants the thread-count suites pin for `engine`: the
/// default, pre-decided actions (`refresh_gains(false)`), the squared mean,
/// and a `MaxOverlap` constraint, which reads every cluster and so runs on
/// one lane whatever the thread count.
fn thread_variants(k: usize, seed: u64, engine: GainEngineKind) -> Vec<FlocConfig> {
    let base = FlocConfig::builder(k)
        .alpha(0.5)
        .seed(seed)
        .gain_engine(engine)
        .threads(1);
    vec![
        base.clone().build(),
        base.clone().refresh_gains(false).build(),
        base.clone().mean(ResidueMean::Squared).build(),
        base.constraint(Constraint::MaxOverlap { fraction: 0.5 })
            .build(),
    ]
}

proptest! {
    /// Gain evaluation and engine rebuilds fan out across threads, and the
    /// perform loop splits into one line lane per thread, but the search
    /// is bit-identical for every thread count: per-target argmax scans
    /// clusters in index order on whichever worker owns the target, lanes
    /// replay every cluster's per-line terms in the serial summation order
    /// and keep the same first maximum, and each cluster's indexes are an
    /// independent build. Pin it for both engines across threads ∈
    /// {1, 2, 3, 4, 8} (3 does not divide k = 2 or 4), with refreshed and
    /// pre-decided actions, both residue means and a cross-cluster
    /// constraint.
    #[test]
    fn runs_are_bit_identical_across_thread_counts(
        m in arb_mining_matrix(),
        seed in 0u64..1_000_000,
        k in 2usize..5,
    ) {
        for engine in [GainEngineKind::Exact, GainEngineKind::Incremental] {
            for base in thread_variants(k, seed, engine) {
                let reference = dc_floc::floc(&m, &base).unwrap();
                for threads in [2usize, 3, 4, 8] {
                    let mut cfg = base.clone();
                    cfg.parallelism = Parallelism::new(threads, 1);
                    let r = dc_floc::floc(&m, &cfg).unwrap();
                    prop_assert_eq!(&r.clusters, &reference.clusters, "{:?} x{}", engine, threads);
                    prop_assert_eq!(f64_bits(&r.residues), f64_bits(&reference.residues));
                    prop_assert_eq!(r.avg_residue.to_bits(), reference.avg_residue.to_bits());
                    prop_assert_eq!(r.iterations, reference.iterations);
                    prop_assert_eq!(&r.trace, &reference.trace);
                }
            }
        }
    }

    /// Checkpoints taken mid-run under one thread count resume bit-identically
    /// under any other: parallelism is runtime plumbing, not search identity,
    /// so a 1-thread run's snapshot finishes to the same answer on 8 threads
    /// (and vice versa), for both gain engines and every variant of
    /// [`thread_variants`].
    #[test]
    fn resume_is_bit_identical_across_thread_counts(
        m in arb_mining_matrix(),
        seed in 0u64..1_000_000,
    ) {
        for engine in [GainEngineKind::Exact, GainEngineKind::Incremental] {
            for base in thread_variants(2, seed, engine) {
                let (full, snapshots) = floc_logged(&m, &base);
                for ckpt in &snapshots {
                    for threads in [2usize, 3, 4, 8] {
                        let mut cfg = base.clone();
                        cfg.parallelism = Parallelism::new(threads, 1);
                        let resumed = resume(&m, ckpt, &cfg);
                        prop_assert_eq!(&resumed.clusters, &full.clusters, "{:?} x{}", engine, threads);
                        prop_assert_eq!(f64_bits(&resumed.residues), f64_bits(&full.residues));
                        prop_assert_eq!(resumed.avg_residue.to_bits(), full.avg_residue.to_bits());
                        prop_assert_eq!(resumed.iterations, full.iterations);
                        prop_assert_eq!(&resumed.trace, &full.trace);
                    }
                }
            }
        }
    }
}

// ---- f32 storage ------------------------------------------------------------

use dc_matrix::ValueStorage;

proptest! {
    /// An f32-storage matrix drives the exact same search as the f64 matrix
    /// holding the same (narrowed) values: reads widen bit-exactly and all
    /// accumulation stays in f64, so clusters, residues, and traces are
    /// bit-identical — the contract that makes the half-width storage safe
    /// to enable at mining scale.
    #[test]
    fn f32_mining_matches_the_widened_f64_twin(
        m in arb_mining_matrix(),
        seed in 0u64..1_000_000,
        k in 2usize..4,
    ) {
        let narrow = m.with_storage(ValueStorage::F32).unwrap();
        let twin = narrow.with_storage(ValueStorage::F64).unwrap();
        prop_assert_eq!(narrow.fingerprint(), twin.fingerprint());
        for engine in [GainEngineKind::Exact, GainEngineKind::Incremental] {
            let config = FlocConfig::builder(k)
                .alpha(0.5)
                .seed(seed)
                .gain_engine(engine)
                .build();
            let a = dc_floc::floc(&narrow, &config).unwrap();
            let b = dc_floc::floc(&twin, &config).unwrap();
            prop_assert_eq!(&a.clusters, &b.clusters, "{:?}", engine);
            prop_assert_eq!(f64_bits(&a.residues), f64_bits(&b.residues));
            prop_assert_eq!(a.avg_residue.to_bits(), b.avg_residue.to_bits());
            prop_assert_eq!(a.iterations, b.iterations);
            prop_assert_eq!(&a.trace, &b.trace);
        }
    }
}

// ---- Storage backends ----------------------------------------------------
//
// The out-of-core contract: a paged matrix mines BIT-identically to its
// in-memory twin for any block geometry — every chunk size, every cache
// cap, both gain engines, one or two threads, f64 or f32 storage, and
// through checkpoint/resume. A paged row is one contiguous run inside its
// block and a paged column is gathered whole before any fold, so float
// addition order never depends on where block boundaries fall.

/// Writes `m` into a fresh paged directory with the given geometry and
/// reopens nothing — the returned matrix reads through a cache bounded at
/// `cache_blocks` resident blocks.
fn paged_twin_with(
    m: &DataMatrix,
    tag: &str,
    chunk_rows: usize,
    cache_blocks: Option<usize>,
) -> DataMatrix {
    let dir = std::env::temp_dir().join(format!(
        "dc-floc-prop-{tag}-{}-c{chunk_rows}-b{}",
        std::process::id(),
        cache_blocks.map_or(0, |c| c)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let data: Vec<Option<f64>> = (0..m.rows() * m.cols())
        .map(|cell| m.get(cell / m.cols(), cell % m.cols()))
        .collect();
    DataMatrix::builder(m.rows(), m.cols())
        .storage(m.storage())
        .paged(dir)
        .chunk_rows(chunk_rows)
        .cache_blocks(cache_blocks)
        .from_options(data)
        .unwrap()
}

proptest! {
    /// The acceptance sweep: chunk sizes {1, 7, 64} × cache caps
    /// {1, 4, unbounded} × both gain engines, on one thread, on two, and
    /// on an f32-storage twin, with a mid-run checkpoint/resume on the
    /// paged matrix thrown in.
    #[test]
    fn paged_mining_is_bit_identical_for_every_geometry(
        m in arb_mining_matrix(),
        seed in 0u64..1_000_000,
    ) {
        let variants = [(ValueStorage::F64, 1), (ValueStorage::F64, 2), (ValueStorage::F32, 1)];
        let engines = [GainEngineKind::Exact, GainEngineKind::Incremental];
        for (engine, (storage, threads)) in engines.into_iter().flat_map(|e| variants.map(|v| (e, v))) {
            let m = m.with_storage(storage).unwrap();
            let config = FlocConfig::builder(2)
                .alpha(0.5)
                .seed(seed)
                .gain_engine(engine)
                .threads(threads)
                .build();
            let (full, snapshots) = floc_logged(&m, &config);

            for chunk_rows in [1usize, 7, 64] {
                for cache_blocks in [Some(1), Some(4), None] {
                    let tag = format!("{engine:?}-{storage:?}-t{threads}");
                    let paged = paged_twin_with(&m, &tag, chunk_rows, cache_blocks);
                    prop_assert_eq!(paged.fingerprint(), m.fingerprint());

                    let run = dc_floc::floc(&paged, &config).unwrap();
                    prop_assert_eq!(
                        &run.clusters, &full.clusters,
                        "chunk={} cache={:?} engine={:?}", chunk_rows, cache_blocks, engine
                    );
                    prop_assert_eq!(f64_bits(&run.residues), f64_bits(&full.residues));
                    prop_assert_eq!(run.avg_residue.to_bits(), full.avg_residue.to_bits());
                    prop_assert_eq!(run.iterations, full.iterations);
                    prop_assert_eq!(&run.trace, &full.trace);

                    // Resume a mid-run snapshot (taken on the MEMORY run)
                    // against the PAGED matrix: the trajectory must splice
                    // seamlessly — checkpoints are backend-agnostic.
                    let ckpt = &snapshots[snapshots.len() / 2];
                    let resumed = resume(&paged, ckpt, &config);
                    prop_assert_eq!(&resumed.clusters, &full.clusters);
                    prop_assert_eq!(f64_bits(&resumed.residues), f64_bits(&full.residues));
                    prop_assert_eq!(&resumed.trace, &full.trace);

                    if let Some(dir) = paged.paged_dir() {
                        let dir = dir.to_path_buf();
                        drop(paged);
                        let _ = std::fs::remove_dir_all(dir);
                    }
                }
            }
        }
    }
}

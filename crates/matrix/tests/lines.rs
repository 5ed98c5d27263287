//! `Line` (`row_of` / `col_of`) against a naive per-cell oracle on every
//! backend, the block reads a line costs, and paged writes racing a reader
//! on a shared block cache.

use dc_matrix::{BitSet, DataMatrix, PagedOptions, ValueStorage};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dc-matrix-lines-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The cells of a `rows × cols` matrix holding `values`, with one of four
/// missing-entry layouts: scattered (`keep`), every third row missing,
/// every fourth column missing, or a checkerboard.
fn cells(rows: usize, cols: usize, layout: u8, keep: &[bool], values: &[f64]) -> Vec<Option<f64>> {
    (0..rows * cols)
        .map(|i| {
            let (r, c) = (i / cols, i % cols);
            let present = match layout {
                0 => keep[i],
                1 => r % 3 != 1,
                2 => c % 4 != 2,
                _ => (r + c) % 2 == 0,
            };
            present.then_some(values[i])
        })
        .collect()
}

/// The value a cell holds once stored at `storage`, or `None` if missing.
fn stored(cell: Option<f64>, storage: ValueStorage) -> Option<f64> {
    cell.map(|v| match storage {
        ValueStorage::F64 => v,
        ValueStorage::F32 => v as f32 as f64,
    })
}

/// Every backend, precision and block geometry holding `data`.
fn variants(rows: usize, cols: usize, data: &[Option<f64>]) -> Vec<(String, DataMatrix)> {
    let mut out = Vec::new();
    for storage in [ValueStorage::F64, ValueStorage::F32] {
        let builder = || DataMatrix::builder(rows, cols).storage(storage);
        out.push((
            format!("memory {storage:?}"),
            builder().from_options(data.to_vec()),
        ));
        for chunk_rows in [1usize, 7, 64] {
            for cache in [Some(1), Some(4), None] {
                let m = builder()
                    .paged(scratch("variant"))
                    .chunk_rows(chunk_rows)
                    .cache_blocks(cache)
                    .from_options(data.to_vec())
                    .unwrap();
                out.push((
                    format!("paged {storage:?} chunk {chunk_rows} cache {cache:?}"),
                    m,
                ));
            }
        }
    }
    out
}

/// Checks one line against the oracle cells `expect` (already at the
/// matrix's precision) and the filter `set`, bit for bit.
fn check_line(
    line: &dc_matrix::Line<'_>,
    expect: &[Option<f64>],
    set: &BitSet,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(line.len(), expect.len(), "{} length", what);
    for (i, cell) in expect.iter().enumerate() {
        prop_assert_eq!(line.is_specified(i), cell.is_some(), "{} spec {}", what, i);
        prop_assert_eq!(
            line.get(i).to_bits(),
            cell.unwrap_or(0.0).to_bits(),
            "{} value {}",
            what,
            i
        );
    }
    let naive: Vec<(usize, f64)> = expect
        .iter()
        .enumerate()
        .filter(|&(i, _)| set.contains(i))
        .filter_map(|(i, cell)| cell.map(|v| (i, v)))
        .collect();
    let got: Vec<(usize, u64)> = line
        .specified_in(set)
        .map(|(i, v)| (i, v.to_bits()))
        .collect();
    let want: Vec<(usize, u64)> = naive.iter().map(|&(i, v)| (i, v.to_bits())).collect();
    prop_assert_eq!(got, want, "{} specified_in", what);
    let (sum, count) = line.stats_in(set);
    let naive_sum = naive.iter().fold(0.0, |s, &(_, v)| s + v);
    prop_assert_eq!(sum.to_bits(), naive_sum.to_bits(), "{} sum", what);
    prop_assert_eq!(count as usize, naive.len(), "{} count", what);
    Ok(())
}

proptest! {
    /// Rows and columns read through `Line` on the memory and paged
    /// backends, in f64 and f32, under every block geometry, agree with
    /// the cells they were built from.
    #[test]
    fn lines_match_a_per_cell_oracle_on_every_backend(
        (rows, cols, keep, values) in (1usize..72, 1usize..72).prop_flat_map(|(rows, cols)| {
            (
                Just(rows),
                Just(cols),
                proptest::collection::vec(proptest::bool::ANY, rows * cols),
                proptest::collection::vec(-100.0..100.0f64, rows * cols),
            )
        }),
        layout in 0u8..4,
        pick in proptest::collection::vec(proptest::bool::ANY, 72),
    ) {
        let data = cells(rows, cols, layout, &keep, &values);
        let col_set = BitSet::from_indices(cols, (0..cols).filter(|&c| pick[c]));
        let row_set = BitSet::from_indices(rows, (0..rows).filter(|&r| pick[71 - r]));
        for (what, m) in variants(rows, cols, &data) {
            let storage = m.storage();
            for r in 0..rows {
                let expect: Vec<Option<f64>> =
                    (0..cols).map(|c| stored(data[r * cols + c], storage)).collect();
                check_line(&m.row_of(r), &expect, &col_set, &format!("{what} row {r}"))?;
            }
            for c in 0..cols {
                let expect: Vec<Option<f64>> =
                    (0..rows).map(|r| stored(data[r * cols + c], storage)).collect();
                check_line(&m.col_of(c), &expect, &row_set, &format!("{what} col {c}"))?;
            }
            if let Some(dir) = m.paged_dir().map(PathBuf::from) {
                drop(m);
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

/// From a cold one-block cache the first column costs one miss per block
/// and a row one miss. A later column reads the block the last gather left
/// resident first, so it costs one hit and one miss fewer. No gather
/// re-reads a block.
#[test]
fn col_of_reads_every_block_once_and_row_of_one_block() {
    let (rows, cols, chunk_rows) = (50, 9, 7);
    let dir = scratch("cold");
    let data: Vec<f64> = (0..rows * cols).map(|i| i as f64 * 0.5).collect();
    drop(
        DataMatrix::builder(rows, cols)
            .paged(&dir)
            .chunk_rows(chunk_rows)
            .from_rows(data)
            .unwrap(),
    );
    let opts = PagedOptions {
        cache_blocks: Some(1),
        ..PagedOptions::default()
    };
    let m = DataMatrix::open_paged_with(&dir, opts).unwrap();
    m.ensure_mirror(); // the mask index reads no block
    let n_chunks = rows.div_ceil(chunk_rows) as u64;
    let io = || m.storage_backend().io_stats();
    assert_eq!(io().misses, 0, "opening leaves the cache cold");
    for (n, c) in [0, 4, 8].into_iter().enumerate() {
        let before = io();
        let line = m.col_of(c);
        let after = io();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        let resident = u64::from(n > 0);
        assert_eq!(hits, resident, "col {c}");
        assert_eq!(misses, n_chunks - resident, "col {c}");
        assert_eq!(hits + misses, n_chunks, "col {c} re-read a block");
        for r in 0..rows {
            assert_eq!(line.get(r), (r * cols + c) as f64 * 0.5, "col {c} row {r}");
        }
    }
    let before = io();
    let line = m.row_of(3);
    assert_eq!(io().misses - before.misses + io().hits - before.hits, 1);
    assert_eq!(line.get(2), (3 * cols + 2) as f64 * 0.5);
    drop(m);
    let _ = std::fs::remove_dir_all(dir);
}

/// 16 blocks through an 8-block cache: a second full column gather starts
/// with the 8 blocks the first one left resident, so it reads 8 hits and 8
/// misses where ascending order would miss all 16, and every value still
/// lands at its own row.
#[test]
fn col_of_reads_resident_blocks_first() {
    let (rows, cols, chunk_rows) = (64, 3, 4);
    let dir = scratch("resident-first");
    let data: Vec<Option<f64>> = (0..rows * cols)
        .map(|i| (i % 5 != 2).then_some(i as f64 * 0.25 - 7.0))
        .collect();
    let m = DataMatrix::builder(rows, cols)
        .paged(&dir)
        .chunk_rows(chunk_rows)
        .cache_blocks(Some(8))
        .from_options(data.clone())
        .unwrap();
    m.ensure_mirror();
    let io = || m.storage_backend().io_stats();
    let _ = m.col_of(0);
    for c in [1, 2, 0] {
        let before = io();
        let line = m.col_of(c);
        let after = io();
        assert_eq!(after.hits - before.hits, 8, "col {c}");
        assert_eq!(after.misses - before.misses, 8, "col {c}");
        for r in 0..rows {
            let got = line.is_specified(r).then(|| line.get(r));
            assert_eq!(got, data[r * cols + c], "col {c} row {r}");
        }
    }
    drop(m);
    let _ = std::fs::remove_dir_all(dir);
}

/// A write through one handle while another handle's reads evict blocks
/// from their shared one-block cache: loading and mutating happen under
/// one lock, so the write never finds its block gone.
#[test]
fn paged_writes_survive_a_reader_evicting_their_block() {
    let (rows, cols, chunk_rows) = (64, 4, 4);
    let dir = scratch("race");
    let mut writer = DataMatrix::builder(rows, cols)
        .paged(&dir)
        .chunk_rows(chunk_rows)
        .cache_blocks(Some(1))
        .from_rows(vec![1.0; rows * cols])
        .unwrap();
    let reader = writer.clone();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reads = scope.spawn(|| {
            let mut n = 0usize;
            while !done.load(Ordering::Relaxed) {
                for r in (0..rows).step_by(chunk_rows) {
                    n += usize::from(reader.get(r, 0).is_some());
                }
            }
            n
        });
        for step in 0..4_000 {
            let r = (step * 7) % rows;
            writer.set(r, step % cols, step as f64);
            if step % 16 == 15 {
                // Written-back blocks are clean again, so evictable.
                writer.flush().unwrap();
            }
        }
        done.store(true, Ordering::Relaxed);
        assert!(reads.join().expect("reader must not panic") > 0);
    });
    let step = 3_999;
    assert_eq!(
        writer.get((step * 7) % rows, step % cols),
        Some(step as f64)
    );
    drop((writer, reader));
    let _ = std::fs::remove_dir_all(dir);
}

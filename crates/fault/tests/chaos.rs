//! Chaos tests: drive the workspace's ingestion and persistence layers
//! through fault-injecting readers/writers and assert the robustness
//! contract — every failure surfaces as a typed error, nothing panics, and
//! no previously valid artifact on disk is ever corrupted by a failed or
//! torn write.

use dc_fault::{FaultyReader, FaultyWriter};
use dc_floc::{floc_with, CheckpointLog, DeltaCluster, FlocCheckpoint, FlocConfig};
use dc_matrix::atomic::{atomic_write_with, temp_sibling};
use dc_matrix::io::{read_dense, read_triples, DenseFormat, ParseError};
use dc_matrix::DataMatrix;
use dc_serve::{artifact, checkpoint_from_bytes, checkpoint_to_bytes, ArtifactError, ServeModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::path::PathBuf;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dc-fault-chaos-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_model() -> ServeModel {
    let mut rng = StdRng::seed_from_u64(11);
    let mut m = DataMatrix::builder(8, 6).build();
    for r in 0..8 {
        for c in 0..6 {
            if rng.gen_bool(0.85) {
                m.set(r, c, rng.gen_range(-4.0..4.0));
            }
        }
    }
    let clusters = vec![
        DeltaCluster::from_indices(8, 6, 0..4, 0..3),
        DeltaCluster::from_indices(8, 6, 3..8, 2..6),
    ];
    ServeModel::new(m, clusters, vec![0.5, 0.75], 0.625).unwrap()
}

fn sample_checkpoint() -> FlocCheckpoint {
    let mut rng = StdRng::seed_from_u64(23);
    let mut m = DataMatrix::builder(15, 8).build();
    for r in 0..15 {
        for c in 0..8 {
            if rng.gen_bool(0.9) {
                m.set(r, c, rng.gen_range(0.0..20.0));
            }
        }
    }
    let config = FlocConfig::builder(2).alpha(0.5).seed(23).build();
    let log = CheckpointLog::new();
    floc_with(&m, &config, &dc_obs::Obs::new(log.clone())).unwrap();
    log.last().expect("mining emits at least one snapshot")
}

// ---------------------------------------------------------------------------
// Ingestion: corrupt text never panics, always yields Ok or a typed error.
// ---------------------------------------------------------------------------

#[test]
fn dense_ingest_survives_bit_flips_without_panicking() {
    let text = b"1.5\t2.5\tNA\n-3.0\t4.25\t5.0\n0.5\t1.0\t2.0\n";
    // Flip every bit of every byte, one at a time, through a short-read
    // wrapper: the reader must always return Ok or ParseError, never panic.
    let mut ok = 0usize;
    let mut typed_err = 0usize;
    for offset in 0..text.len() as u64 {
        for bit in 0..8u8 {
            let r = FaultyReader::new(&text[..])
                .flip_bit(offset, bit)
                .short_reads(7);
            match read_dense(r, &DenseFormat::default()) {
                Ok(_) => ok += 1,
                Err(
                    ParseError::BadNumber { .. }
                    | ParseError::RaggedRow { .. }
                    | ParseError::NonFinite { .. }
                    | ParseError::Io(_)
                    | ParseError::Empty
                    | ParseError::ShortTripleLine { .. },
                ) => typed_err += 1,
            }
        }
    }
    // Some flips still parse (digit→digit), some don't; both paths exist.
    assert!(ok > 0, "some corruptions still parse");
    assert!(typed_err > 0, "some corruptions are rejected");
}

#[test]
fn dense_ingest_reports_injected_io_errors_as_typed_errors() {
    let text = b"1\t2\n3\t4\n";
    for offset in 0..text.len() as u64 {
        let r = FaultyReader::new(&text[..]).error_at(offset);
        match read_dense(r, &DenseFormat::default()) {
            Err(ParseError::Io(e)) => {
                assert!(e.to_string().contains("injected read fault"));
            }
            // A fault at a line boundary can truncate to a valid prefix
            // (offset beyond the last flushed line never happens here
            // because error_at fires before EOF is reached).
            other => panic!("expected ParseError::Io, got {other:?}"),
        }
    }
}

#[test]
fn triples_ingest_survives_truncation_at_every_offset() {
    let text = b"196\t242\t3\t881250949\n186\t302\t3\t891717742\n22\t377\t1\t878887116\n";
    for offset in 0..=text.len() as u64 {
        let r = FaultyReader::new(&text[..]).truncate_at(offset);
        match read_triples(r) {
            Ok(t) => {
                assert!(t.matrix.rows() >= 1);
            }
            Err(
                ParseError::Empty
                | ParseError::ShortTripleLine { .. }
                | ParseError::BadNumber { .. },
            ) => {}
            Err(other) => panic!("unexpected error class: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Artifacts: every single-bit corruption and truncation is detected.
// ---------------------------------------------------------------------------

#[test]
fn model_artifact_detects_any_single_bit_flip() {
    let bytes = artifact::to_bytes(&sample_model());
    for offset in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[offset] ^= 0x10;
        match artifact::from_bytes(&bad) {
            Err(
                ArtifactError::BadMagic
                | ArtifactError::UnsupportedVersion(_)
                | ArtifactError::ChecksumMismatch { .. }
                | ArtifactError::Truncated
                | ArtifactError::Malformed(_),
            ) => {}
            Err(other) => panic!("unexpected error at offset {offset}: {other:?}"),
            Ok(_) => panic!("flip at offset {offset} went undetected"),
        }
    }
}

#[test]
fn checkpoint_artifact_detects_truncation_at_every_length() {
    let bytes = checkpoint_to_bytes(&sample_checkpoint());
    for len in 0..bytes.len() {
        assert!(
            checkpoint_from_bytes(&bytes[..len]).is_err(),
            "truncation to {len} bytes went undetected"
        );
    }
    assert!(checkpoint_from_bytes(&bytes).is_ok());
}

// ---------------------------------------------------------------------------
// Atomic write protocol: a failed or torn staging write never damages the
// artifact visible at the destination path.
// ---------------------------------------------------------------------------

#[test]
fn failed_staging_write_at_every_offset_preserves_the_old_model() {
    let dir = scratch_dir("atomic-error");
    let target = dir.join("model.dcm");
    let model = sample_model();
    artifact::save(&model, &target).unwrap();
    let baseline = std::fs::read(&target).unwrap();

    let bytes = artifact::to_bytes(&model);
    for offset in 0..=bytes.len() as u64 {
        let result = atomic_write_with(&target, |w| {
            let mut fw = FaultyWriter::new(w).error_at(offset);
            fw.write_all(&bytes)
        });
        if offset < bytes.len() as u64 {
            assert!(result.is_err(), "fault at {offset} should surface");
        } else {
            // error_at == len never fires; the write completes.
            assert!(result.is_ok());
        }
        // The visible artifact is byte-identical to the last good save and
        // still loads; no staging junk is left behind.
        assert_eq!(std::fs::read(&target).unwrap(), baseline);
        artifact::load(&target).unwrap();
        assert!(!temp_sibling(&target).exists());
    }
}

#[test]
fn torn_staging_write_is_caught_by_the_checksum_not_shipped() {
    let dir = scratch_dir("atomic-torn");
    let target = dir.join("ckpt.dck");
    let bytes = checkpoint_to_bytes(&sample_checkpoint());

    // A torn write reports success, so the rename goes through — but the
    // artifact's CRC catches the damage on load. Prove that every torn
    // length is either the full file (loads fine) or detected as corrupt.
    for offset in (0..bytes.len() as u64).step_by(7) {
        let res = atomic_write_with(&target, |w| {
            let mut fw = FaultyWriter::new(w).truncate_at(offset);
            fw.write_all(&bytes)
        });
        assert!(res.is_ok(), "torn writes are silent by construction");
        let on_disk = std::fs::read(&target).unwrap();
        assert_eq!(on_disk.len() as u64, offset);
        assert!(
            checkpoint_from_bytes(&on_disk).is_err(),
            "torn file of {offset} bytes must not parse"
        );
    }
}

#[test]
fn short_writes_through_the_atomic_path_produce_an_intact_artifact() {
    let dir = scratch_dir("atomic-short");
    let target = dir.join("model.dcm");
    let model = sample_model();
    let bytes = artifact::to_bytes(&model);
    atomic_write_with(&target, |w| {
        let mut fw = FaultyWriter::new(w).short_writes(5);
        fw.write_all(&bytes)
    })
    .unwrap();
    let loaded = artifact::load(&target).unwrap();
    assert_eq!(loaded.k(), model.k());
    assert_eq!(loaded.avg_residue(), model.avg_residue());
}

// ---- Paged matrix block files --------------------------------------------
//
// The out-of-core backend's robustness contract mirrors the artifacts':
// every way a block directory can rot on disk — flipped bits, truncated
// frames, missing or unreadable files — surfaces as a typed
// [`dc_matrix::PagedError`] at open time. Never a panic, and never a
// silently wrong value: the CRC framing means a corrupt block cannot
// decode to plausible-but-different numbers.

use dc_matrix::{DataMatrix as PagedMatrix, PagedError, PagedOptions};

/// A small paged matrix spread over several blocks, with a hole pattern.
fn sample_paged(dir: &std::path::Path) -> PagedMatrix {
    let mut rng = StdRng::seed_from_u64(47);
    let data: Vec<Option<f64>> = (0..14 * 5)
        .map(|_| rng.gen_bool(0.85).then(|| rng.gen_range(-9.0..9.0)))
        .collect();
    DataMatrix::builder(14, 5)
        .paged(dir)
        .chunk_rows(4)
        .from_options(data)
        .unwrap()
}

#[test]
fn paged_blocks_detect_any_single_bit_flip() {
    let dir = scratch_dir("paged-flip");
    let pages = dir.join("m");
    let clean_fp = sample_paged(&pages).fingerprint();

    let block = pages.join("chunk-000001.dcb");
    let clean = std::fs::read(&block).unwrap();
    for offset in 0..clean.len() {
        let mut corrupt = clean.clone();
        corrupt[offset] ^= 1 << (offset % 8);
        std::fs::write(&block, &corrupt).unwrap();
        match DataMatrix::open_paged(&pages) {
            Err(PagedError::Frame { .. } | PagedError::Corrupt { .. }) => {}
            Err(other) => panic!("flip at byte {offset}: unexpected error {other}"),
            Ok(_) => panic!("flip at byte {offset} went undetected"),
        }
    }
    // The directory itself was never harmed: restoring the block restores
    // the matrix bit for bit.
    std::fs::write(&block, &clean).unwrap();
    assert_eq!(
        DataMatrix::open_paged(&pages).unwrap().fingerprint(),
        clean_fp
    );
}

#[test]
fn paged_meta_detects_any_single_bit_flip() {
    let dir = scratch_dir("paged-meta-flip");
    let pages = dir.join("m");
    sample_paged(&pages);

    let meta = pages.join("matrix.dcpm");
    let clean = std::fs::read(&meta).unwrap();
    for offset in 0..clean.len() {
        let mut corrupt = clean.clone();
        corrupt[offset] ^= 0x10;
        std::fs::write(&meta, &corrupt).unwrap();
        match DataMatrix::open_paged(&pages) {
            Err(_) => {}
            Ok(_) => panic!("meta flip at byte {offset} went undetected"),
        }
    }
}

#[test]
fn paged_blocks_detect_truncation_at_every_frame_offset() {
    let dir = scratch_dir("paged-trunc");
    let pages = dir.join("m");
    sample_paged(&pages);

    let block = pages.join("chunk-000000.dcb");
    let clean = std::fs::read(&block).unwrap();
    for keep in 0..clean.len() {
        std::fs::write(&block, &clean[..keep]).unwrap();
        match DataMatrix::open_paged(&pages) {
            Err(PagedError::Frame { .. } | PagedError::Corrupt { .. } | PagedError::Io { .. }) => {}
            Ok(_) => panic!("truncation to {keep} bytes went undetected"),
        }
    }
    // Truncating the metadata is equally fatal, equally typed.
    std::fs::write(&block, &clean).unwrap();
    let meta = pages.join("matrix.dcpm");
    let meta_clean = std::fs::read(&meta).unwrap();
    for keep in [0, 3, 8, 17, meta_clean.len() - 5, meta_clean.len() - 1] {
        std::fs::write(&meta, &meta_clean[..keep]).unwrap();
        assert!(
            DataMatrix::open_paged(&pages).is_err(),
            "meta truncated to {keep} bytes went undetected"
        );
    }
}

#[test]
fn missing_or_unreadable_paged_files_are_typed_io_errors() {
    let dir = scratch_dir("paged-io");
    let pages = dir.join("m");
    sample_paged(&pages);

    // A deleted block: Io at open (the meta says it must exist).
    let block = pages.join("chunk-000002.dcb");
    let saved = std::fs::read(&block).unwrap();
    std::fs::remove_file(&block).unwrap();
    assert!(matches!(
        DataMatrix::open_paged(&pages),
        Err(PagedError::Io { .. })
    ));

    // A block replaced by a directory: reads fail with Io, not a panic.
    std::fs::create_dir(&block).unwrap();
    assert!(DataMatrix::open_paged(&pages).is_err());
    std::fs::remove_dir(&block).unwrap();
    std::fs::write(&block, &saved).unwrap();

    // A missing directory and a missing meta are Io too.
    assert!(matches!(
        DataMatrix::open_paged(dir.join("nonexistent")),
        Err(PagedError::Io { .. })
    ));

    // Deferred verification trades the open-time scan for lazy loading;
    // the *open* itself must still type out cleanly on a missing meta.
    let opts = PagedOptions {
        verify_on_open: false,
        ..PagedOptions::default()
    };
    assert!(PagedMatrix::open_paged_with(dir.join("nonexistent"), opts).is_err());
}

#[test]
fn extra_or_swapped_blocks_are_rejected_not_misread() {
    let dir = scratch_dir("paged-swap");
    let pages = dir.join("m");
    sample_paged(&pages);

    // Swap two block files: each frame's self-declared index disagrees
    // with its filename/offset, so the open must refuse rather than serve
    // the wrong rows.
    let a = pages.join("chunk-000000.dcb");
    let b = pages.join("chunk-000001.dcb");
    let bytes_a = std::fs::read(&a).unwrap();
    let bytes_b = std::fs::read(&b).unwrap();
    std::fs::write(&a, &bytes_b).unwrap();
    std::fs::write(&b, &bytes_a).unwrap();
    match DataMatrix::open_paged(&pages) {
        Err(PagedError::Corrupt { .. } | PagedError::Frame { .. }) => {}
        Err(other) => panic!("swapped blocks: unexpected error {other}"),
        Ok(_) => panic!("swapped blocks went undetected"),
    }
}

//! The `.dcm` model artifact: a versioned, checksummed binary snapshot of a
//! trained δ-clustering, plus a JSON fallback for interoperability.
//!
//! ## Binary layout (version 3, all integers little-endian)
//!
//! ```text
//! offset 0   magic  b"DCM1"
//!        4   u16    format version (currently 3)
//!        6   u16    reserved flags (must be 0)
//!        8   payload (below)
//!        end-4  u32 CRC-32 (IEEE) of every preceding byte
//! ```
//!
//! Payload sections, in order:
//!
//! 1. **Matrix** — `u64 rows`, `u64 cols`, *(version ≥ 3)* a `u8`
//!    representation discriminator:
//!    * `0` — **inline**: *(version ≥ 2)* a `u8` value storage tag (`0` =
//!      f64, `1` = f32), a row-major specification bitmap
//!      (`ceil(rows·cols / 8)` bytes), `u64 n_specified`, then `n_specified`
//!      values for the specified cells in row-major order — `f64` each under
//!      tag 0, `f32` each under tag 1 (half the bytes; lossless because an
//!      f32-storage matrix only ever holds f32-representable values).
//!      Version-1 files have no tag byte and always carry `f64` values; they
//!      load as f64-storage matrices, unchanged.
//!    * `1` — **paged-ref** *(version ≥ 3 only)*: a `len`-prefixed UTF-8
//!      path to a paged-matrix directory ([`dc_matrix::storage`]) plus the
//!      `u64` content fingerprint of the matrix at save time. The values
//!      stay in their block files; loading opens the directory (a relative
//!      path resolves against the artifact's own directory) and fails with
//!      a typed error if the pages are missing, corrupt, the wrong shape,
//!      or their content no longer matches the fingerprint. This keeps the
//!      artifact O(model) instead of O(data) for out-of-core matrices and
//!      lets `serve` cold-start straight from pages.
//! 2. **Labels** — `u8` flags (bit 0: row labels present, bit 1: column
//!    labels); each present label list is `len`-prefixed UTF-8 strings.
//! 3. **Clusters** — `u64 k`, then per cluster the ascending row indices
//!    (`u64 n` + `n × u64`) and column indices likewise.
//! 4. **Quality** — `k × f64` residues, `f64` average residue.
//! 5. **Bases** — per cluster: `u64 volume`, `f64` cluster base, row bases
//!    (`f64` each, aligned with the cluster's rows), column bases likewise.
//!    Stored rather than recomputed so that loading is pure deserialization
//!    and a loaded model predicts bit-identically to the saved one.
//!
//! A flipped byte anywhere surfaces as [`ArtifactError::ChecksumMismatch`]
//! before any parsing happens — corruption can not panic the loader.

use crate::model::ServeModel;
use dc_floc::residue::Bases;
use dc_floc::DeltaCluster;
use dc_matrix::framing::{Reader, Writer};
use dc_matrix::{DataMatrix, ValueStorage};
use dc_obs::{EventKind, Field, Obs};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;

pub use crate::framing::ArtifactError;

/// File magic: "delta-cluster model", format generation 1.
pub const MAGIC: [u8; 4] = *b"DCM1";
/// Current binary format version. Version 2 added the matrix value-storage
/// tag (f64 vs f32); version 3 added the matrix representation discriminator
/// (inline vs paged-ref). Version-1 and -2 files still load.
pub const VERSION: u16 = 3;

/// Matrix representation discriminator (version ≥ 3).
const REPR_INLINE: u8 = 0;
const REPR_PAGED_REF: u8 = 1;

/// Serializes a model to the current binary artifact bytes with the matrix
/// values inline, regardless of the matrix's backend. Always succeeds; a
/// paged-backed matrix is materialized into the artifact (O(data) bytes).
pub fn to_bytes(model: &ServeModel) -> Vec<u8> {
    encode(model, None)
}

/// Serializes a model whose matrix is paged-backed as a **paged-ref**
/// artifact: the `.dcm` carries the directory path and a content
/// fingerprint instead of the values, so the artifact stays O(model) and
/// the block files remain the single copy of the data.
///
/// Fails with [`ArtifactError::Malformed`] if the matrix is memory-backed —
/// use [`to_bytes`] for those.
pub fn to_bytes_paged_ref(model: &ServeModel) -> Result<Vec<u8>, ArtifactError> {
    let dir = model.matrix().paged_dir().ok_or_else(|| {
        ArtifactError::Malformed(
            "paged-ref artifacts need a paged-backed matrix; this model's matrix is in memory"
                .into(),
        )
    })?;
    let dir = dir.to_string_lossy().into_owned();
    Ok(encode(model, Some(&dir)))
}

fn encode(model: &ServeModel, paged_ref: Option<&str>) -> Vec<u8> {
    let matrix = model.matrix();
    let (rows, cols) = (matrix.rows(), matrix.cols());
    let mut w = Writer::begin(MAGIC, VERSION);

    // Matrix.
    w.u64(rows as u64);
    w.u64(cols as u64);
    if let Some(dir) = paged_ref {
        w.u8(REPR_PAGED_REF);
        w.str(dir);
        w.u64(matrix.fingerprint());
    } else {
        w.u8(REPR_INLINE);
        let storage = matrix.storage();
        w.u8(match storage {
            ValueStorage::F64 => 0,
            ValueStorage::F32 => 1,
        });
        let mut bitmap = vec![0u8; rows.saturating_mul(cols).div_ceil(8)];
        let mut values = Vec::with_capacity(matrix.specified_count());
        for r in 0..rows {
            for c in 0..cols {
                if let Some(v) = matrix.get(r, c) {
                    let cell = r * cols + c;
                    bitmap[cell / 8] |= 1 << (cell % 8);
                    values.push(v);
                }
            }
        }
        w.bytes(&bitmap);
        w.u64(values.len() as u64);
        for v in values {
            match storage {
                ValueStorage::F64 => w.f64(v),
                // Exact: an f32-storage matrix widens each value from f32,
                // so narrowing it back reproduces the stored bits.
                ValueStorage::F32 => w.f32(v as f32),
            }
        }
    }

    // Labels.
    let row_labels: Vec<&str> = (0..rows).filter_map(|r| matrix.row_label(r)).collect();
    let col_labels: Vec<&str> = (0..cols).filter_map(|c| matrix.col_label(c)).collect();
    let has_row = row_labels.len() == rows && rows > 0;
    let has_col = col_labels.len() == cols && cols > 0;
    w.u8((has_row as u8) | ((has_col as u8) << 1));
    if has_row {
        for label in row_labels {
            w.str(label);
        }
    }
    if has_col {
        for label in col_labels {
            w.str(label);
        }
    }

    // Clusters.
    w.u64(model.k() as u64);
    for cluster in model.clusters() {
        w.indices(&cluster.rows.to_vec());
        w.indices(&cluster.cols.to_vec());
    }

    // Quality.
    for &r in model.residues() {
        w.f64(r);
    }
    w.f64(model.avg_residue());

    // Bases.
    for b in model.bases() {
        w.u64(b.volume as u64);
        w.f64(b.cluster_base);
        for &v in &b.row_bases {
            w.f64(v);
        }
        for &v in &b.col_bases {
            w.f64(v);
        }
    }

    w.finish()
}

// ---- decoding ------------------------------------------------------------

/// Deserializes a binary artifact (any version up to [`VERSION`]). Checks
/// magic, version, and checksum before touching the payload.
///
/// A paged-ref artifact with a *relative* directory path resolves it
/// against the process working directory; prefer [`load`], which resolves
/// against the artifact's own directory.
pub fn from_bytes(bytes: &[u8]) -> Result<ServeModel, ArtifactError> {
    from_bytes_at(bytes, None)
}

fn from_bytes_at(bytes: &[u8], base: Option<&Path>) -> Result<ServeModel, ArtifactError> {
    let mut r = Reader::open(bytes, MAGIC, VERSION)?;
    let body_len = bytes.len() - 4;

    // Matrix. The bitmap must fit in the file, which bounds rows·cols.
    let rows = r.count("row", u32::MAX as usize)?;
    let cols = r.count("column", u32::MAX as usize)?;
    // Versions 1–2 predate the representation discriminator: always inline.
    let repr = if r.version() >= 3 {
        r.u8()?
    } else {
        REPR_INLINE
    };
    let cells = rows
        .checked_mul(cols)
        .filter(|&n| n.div_ceil(8) <= body_len || repr == REPR_PAGED_REF)
        .ok_or_else(|| ArtifactError::Malformed("matrix shape overflows the file".into()))?;
    let mut matrix = match repr {
        REPR_INLINE => {
            // Version 1 predates the storage tag: no byte, always f64.
            let storage = match if r.version() >= 2 { r.u8()? } else { 0 } {
                0 => ValueStorage::F64,
                1 => ValueStorage::F32,
                tag => {
                    return Err(ArtifactError::Malformed(format!(
                        "unknown value storage tag {tag}"
                    )))
                }
            };
            let bitmap = r.take(cells.div_ceil(8))?;
            let n_specified = r.count("specified entry", cells)?;
            let popcount: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
            if popcount != n_specified {
                return Err(ArtifactError::Malformed(format!(
                    "bitmap population {popcount} disagrees with stored count {n_specified}"
                )));
            }
            let mut data = vec![None; cells];
            for (cell, slot) in data.iter_mut().enumerate() {
                if bitmap[cell / 8] & (1 << (cell % 8)) != 0 {
                    *slot = Some(match storage {
                        ValueStorage::F64 => r.f64()?,
                        ValueStorage::F32 => f64::from(r.f32()?),
                    });
                }
            }
            let mut matrix = DataMatrix::builder(rows, cols).from_options(data);
            if storage == ValueStorage::F32 {
                // Exact: every value was just widened from an f32 on the wire.
                matrix = matrix
                    .with_storage(ValueStorage::F32)
                    .map_err(|e| ArtifactError::Malformed(e.to_string()))?;
            }
            matrix
        }
        REPR_PAGED_REF => {
            let dir_text = r.str()?;
            let fingerprint = r.u64()?;
            let dir = Path::new(&dir_text);
            let dir = match base {
                Some(base) if dir.is_relative() => base.join(dir),
                _ => dir.to_path_buf(),
            };
            let matrix = DataMatrix::open_paged(&dir)?;
            if matrix.rows() != rows || matrix.cols() != cols {
                return Err(ArtifactError::Malformed(format!(
                    "paged matrix at {} is {}×{}, artifact says {rows}×{cols}",
                    dir.display(),
                    matrix.rows(),
                    matrix.cols(),
                )));
            }
            if matrix.fingerprint() != fingerprint {
                return Err(ArtifactError::Malformed(format!(
                    "paged matrix at {} no longer matches the artifact \
                     (content fingerprint changed since save)",
                    dir.display(),
                )));
            }
            matrix
        }
        other => {
            return Err(ArtifactError::Malformed(format!(
                "unknown matrix representation {other}"
            )))
        }
    };

    // Labels.
    let flags = r.u8()?;
    if flags & !0b11 != 0 {
        return Err(ArtifactError::Malformed(format!(
            "unknown label flags {flags:#04x}"
        )));
    }
    if flags & 0b01 != 0 {
        let labels = (0..rows).map(|_| r.str()).collect::<Result<Vec<_>, _>>()?;
        matrix.set_row_labels(labels);
    }
    if flags & 0b10 != 0 {
        let labels = (0..cols).map(|_| r.str()).collect::<Result<Vec<_>, _>>()?;
        matrix.set_col_labels(labels);
    }

    // Clusters.
    let k = r.count("cluster", body_len)?;
    let mut clusters = Vec::with_capacity(k);
    for _ in 0..k {
        let cluster_rows = r.indices(rows, "cluster row")?;
        let cluster_cols = r.indices(cols, "cluster column")?;
        clusters.push(DeltaCluster::from_indices(
            rows,
            cols,
            cluster_rows,
            cluster_cols,
        ));
    }

    // Quality.
    let mut residues = Vec::with_capacity(k);
    for _ in 0..k {
        residues.push(r.f64()?);
    }
    let avg_residue = r.f64()?;

    // Bases.
    let mut all_bases = Vec::with_capacity(k);
    for cluster in &clusters {
        let volume = r.count("base volume", cells)?;
        let cluster_base = r.f64()?;
        let rows_vec = cluster.rows.to_vec();
        let cols_vec = cluster.cols.to_vec();
        let mut row_bases = Vec::with_capacity(rows_vec.len());
        for _ in 0..rows_vec.len() {
            row_bases.push(r.f64()?);
        }
        let mut col_bases = Vec::with_capacity(cols_vec.len());
        for _ in 0..cols_vec.len() {
            col_bases.push(r.f64()?);
        }
        all_bases.push(Bases {
            row_bases,
            rows: rows_vec,
            col_bases,
            cols: cols_vec,
            cluster_base,
            volume,
        });
    }

    r.expect_end()?;

    ServeModel::with_bases(matrix, clusters, residues, avg_residue, all_bases)
        .map_err(ArtifactError::from)
}

// ---- JSON fallback -------------------------------------------------------

/// JSON representation of a model snapshot, reusing the serde derives the
/// mining crates already ship. Bases are recomputed on load — the JSON form
/// trades load time for a diffable, tool-friendly artifact.
#[derive(Serialize, Deserialize)]
struct JsonModel {
    format: String,
    version: u16,
    matrix: DataMatrix,
    clusters: Vec<DeltaCluster>,
    residues: Vec<f64>,
    avg_residue: f64,
}

/// Serializes a model as pretty-printed JSON.
pub fn to_json(model: &ServeModel) -> String {
    let doc = JsonModel {
        format: "delta-clusters-model".to_string(),
        version: VERSION,
        matrix: model.matrix().clone(),
        clusters: model.clusters().to_vec(),
        residues: model.residues().to_vec(),
        avg_residue: model.avg_residue(),
    };
    serde_json::to_string_pretty(&doc).expect("model serialization cannot fail")
}

/// Deserializes a model from the JSON fallback format.
pub fn from_json(text: &str) -> Result<ServeModel, ArtifactError> {
    let doc: JsonModel =
        serde_json::from_str(text).map_err(|e| ArtifactError::Json(e.to_string()))?;
    if doc.format != "delta-clusters-model" {
        return Err(ArtifactError::Json(format!(
            "unknown format `{}`",
            doc.format
        )));
    }
    if doc.version == 0 || doc.version > VERSION {
        return Err(ArtifactError::UnsupportedVersion(doc.version));
    }
    ServeModel::new(doc.matrix, doc.clusters, doc.residues, doc.avg_residue)
        .map_err(ArtifactError::from)
}

/// Whether `path` selects the JSON fallback rather than the binary format.
fn is_json_path(path: &Path) -> bool {
    path.extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("json"))
}

/// Saves `model` to `path` — binary `.dcm` by default, JSON when the
/// extension is `.json`. Matrix values are written inline even for a
/// paged-backed matrix; use [`save_paged_ref`] to keep them in their pages.
pub fn save(model: &ServeModel, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
    let path = path.as_ref();
    // Write-temp-fsync-rename: a crash mid-save can never corrupt or
    // truncate an existing model at `path`.
    if is_json_path(path) {
        dc_matrix::atomic::atomic_write(path, to_json(model).as_bytes())?;
    } else {
        dc_matrix::atomic::atomic_write(path, &to_bytes(model))?;
    }
    Ok(())
}

/// Saves a paged-backed model as a binary paged-ref artifact: the `.dcm`
/// points at the matrix's block directory instead of inlining the values.
/// Fails if the matrix is memory-backed or the path selects JSON.
pub fn save_paged_ref(model: &ServeModel, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
    let path = path.as_ref();
    if is_json_path(path) {
        return Err(ArtifactError::Malformed(
            "paged-ref artifacts are binary-only; use a .dcm path".into(),
        ));
    }
    dc_matrix::atomic::atomic_write(path, &to_bytes_paged_ref(model)?)?;
    Ok(())
}

/// Loads a model from `path`, dispatching on the extension like [`save`].
/// A paged-ref artifact with a relative block-directory path resolves it
/// against `path`'s parent directory, so an artifact and its pages can be
/// moved together.
pub fn load(path: impl AsRef<Path>) -> Result<ServeModel, ArtifactError> {
    let path = path.as_ref();
    if is_json_path(path) {
        from_json(&std::fs::read_to_string(path)?)
    } else {
        from_bytes_at(&std::fs::read(path)?, path.parent())
    }
}

/// [`load`] that also emits a `serve.model_load` span (artifact bytes,
/// cluster count, load µs), so the CLI `serve` path's cold-start cost is
/// observable.
pub fn load_observed(path: impl AsRef<Path>, obs: &Obs) -> Result<ServeModel, ArtifactError> {
    let path = path.as_ref();
    let started = Instant::now();
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let model = load(path)?;
    if obs.enabled() {
        let micros = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let path_text = path.display().to_string();
        obs.emit_full(
            EventKind::Span,
            "serve.model_load",
            &[
                Field::new("path", path_text.as_str()),
                Field::new("bytes", bytes),
                Field::new("clusters", model.k()),
                Field::new("load_micros", micros),
            ],
            None,
        );
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_matrix::framing::crc32;

    fn sample_model(with_labels: bool) -> ServeModel {
        let mut m = DataMatrix::builder(4, 3).build();
        for r in 0..4 {
            for c in 0..3 {
                if (r + c) % 5 != 4 {
                    m.set(r, c, (r * 3 + c) as f64 * 1.5 - 2.0);
                }
            }
        }
        if with_labels {
            m.set_row_labels((0..4).map(|r| format!("row{r}")).collect());
            m.set_col_labels((0..3).map(|c| format!("col{c}")).collect());
        }
        let a = DeltaCluster::from_indices(4, 3, 0..3, 0..2);
        let b = DeltaCluster::from_indices(4, 3, [1, 3], [0, 2]);
        ServeModel::new(m, vec![a, b], vec![0.25, 0.5], 0.375).unwrap()
    }

    #[test]
    fn binary_roundtrip_preserves_model() {
        for with_labels in [false, true] {
            let model = sample_model(with_labels);
            let bytes = to_bytes(&model);
            let loaded = from_bytes(&bytes).unwrap();
            assert!(loaded == model, "with_labels={with_labels}");
            // Re-encoding the loaded model is byte-identical.
            assert_eq!(to_bytes(&loaded), bytes);
        }
    }

    fn sample_f32_model() -> ServeModel {
        let model = sample_model(true);
        // 1.5-grid values are all exactly f32-representable.
        let narrow = model
            .matrix()
            .clone()
            .with_storage(ValueStorage::F32)
            .unwrap();
        ServeModel::new(
            narrow,
            model.clusters().to_vec(),
            model.residues().to_vec(),
            model.avg_residue(),
        )
        .unwrap()
    }

    #[test]
    fn f32_storage_roundtrips_and_halves_the_value_section() {
        let narrow = sample_f32_model();
        let bytes = to_bytes(&narrow);
        let loaded = from_bytes(&bytes).unwrap();
        assert_eq!(loaded.matrix().storage(), ValueStorage::F32);
        assert!(loaded == narrow);
        assert_eq!(to_bytes(&loaded), bytes);
        // The f32 artifact is strictly smaller than its f64 twin: 4 bytes
        // saved per specified value, minus nothing (the tag byte is paid by
        // both).
        let wide = sample_model(true);
        let n = wide.matrix().specified_count();
        assert_eq!(to_bytes(&wide).len(), bytes.len() + 4 * n);
    }

    #[test]
    fn version_1_artifacts_still_load() {
        // A version-1 file: identical layout except no storage tag byte and
        // always-f64 values. Write one by hand and check the current decoder
        // accepts it and produces the same model.
        let model = sample_model(true);
        let matrix = model.matrix();
        let (rows, cols) = (matrix.rows(), matrix.cols());
        let mut w = Writer::begin(MAGIC, 1);
        w.u64(rows as u64);
        w.u64(cols as u64);
        let mut bitmap = vec![0u8; (rows * cols).div_ceil(8)];
        let mut values = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if let Some(v) = matrix.get(r, c) {
                    let cell = r * cols + c;
                    bitmap[cell / 8] |= 1 << (cell % 8);
                    values.push(v);
                }
            }
        }
        w.bytes(&bitmap);
        w.u64(values.len() as u64);
        for v in values {
            w.f64(v);
        }
        w.u8(0b11);
        for r in 0..rows {
            w.str(matrix.row_label(r).unwrap());
        }
        for c in 0..cols {
            w.str(matrix.col_label(c).unwrap());
        }
        w.u64(model.k() as u64);
        for cluster in model.clusters() {
            w.indices(&cluster.rows.to_vec());
            w.indices(&cluster.cols.to_vec());
        }
        for &res in model.residues() {
            w.f64(res);
        }
        w.f64(model.avg_residue());
        for b in model.bases() {
            w.u64(b.volume as u64);
            w.f64(b.cluster_base);
            for &v in &b.row_bases {
                w.f64(v);
            }
            for &v in &b.col_bases {
                w.f64(v);
            }
        }
        let v1_bytes = w.finish();

        let loaded = from_bytes(&v1_bytes).unwrap();
        assert_eq!(loaded.matrix().storage(), ValueStorage::F64);
        assert!(loaded == model);
        // Saving it again upgrades the envelope to the current version.
        assert_eq!(to_bytes(&loaded)[4], VERSION as u8);
    }

    /// Rewrites one payload byte and recomputes the checksum, so the
    /// decoder sees a structurally valid frame with a hostile value.
    fn poke(bytes: &mut [u8], offset: usize, value: u8) {
        bytes[offset] = value;
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
    }

    #[test]
    fn unknown_storage_tag_is_rejected() {
        let mut bytes = to_bytes(&sample_model(false));
        // rows (8) + cols (8) + repr (1) after the 8-byte envelope header.
        poke(&mut bytes, 25, 7);
        match from_bytes(&bytes) {
            Err(ArtifactError::Malformed(why)) => assert!(why.contains("storage tag 7"), "{why}"),
            Err(other) => panic!("expected Malformed, got {other}"),
            Ok(_) => panic!("expected Malformed, got a model"),
        }
    }

    #[test]
    fn unknown_matrix_representation_is_rejected() {
        let mut bytes = to_bytes(&sample_model(false));
        // The repr discriminator sits right after rows (8) + cols (8).
        poke(&mut bytes, 24, 9);
        match from_bytes(&bytes) {
            Err(ArtifactError::Malformed(why)) => {
                assert!(why.contains("representation 9"), "{why}")
            }
            Err(other) => panic!("expected Malformed, got {other}"),
            Ok(_) => panic!("expected Malformed, got a model"),
        }
    }

    #[test]
    fn version_2_artifacts_still_load() {
        // A version-2 file is the current inline layout minus the repr
        // discriminator. Splice the discriminator byte out of a v3 artifact
        // and stamp version 2 — the decoder must accept it unchanged.
        let model = sample_model(true);
        let v3 = to_bytes(&model);
        let mut v2: Vec<u8> = Vec::with_capacity(v3.len() - 1);
        v2.extend_from_slice(&v3[..24]);
        v2.extend_from_slice(&v3[25..v3.len() - 4]);
        v2[4..6].copy_from_slice(&2u16.to_le_bytes());
        let crc = crc32(&v2).to_le_bytes();
        v2.extend_from_slice(&crc);

        let loaded = from_bytes(&v2).unwrap();
        assert!(loaded == model);
        // Saving it again upgrades the envelope to the current version.
        assert_eq!(to_bytes(&loaded)[4], VERSION as u8);
    }

    #[test]
    fn paged_ref_roundtrip_keeps_values_in_pages() {
        let dir = std::env::temp_dir().join("dc-serve-artifact-paged-ref");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let pages = dir.join("matrix");

        // Rebuild the sample model on a paged twin of its matrix.
        let inline = sample_model(true);
        let data: Vec<Option<f64>> = (0..4 * 3)
            .map(|cell| inline.matrix().get(cell / 3, cell % 3))
            .collect();
        let mut paged = DataMatrix::builder(4, 3)
            .paged(&pages)
            .chunk_rows(2)
            .from_options(data)
            .unwrap();
        paged.set_row_labels((0..4).map(|r| format!("row{r}")).collect());
        paged.set_col_labels((0..3).map(|c| format!("col{c}")).collect());
        paged.flush().unwrap();
        let model = ServeModel::new(
            paged,
            inline.clusters().to_vec(),
            inline.residues().to_vec(),
            inline.avg_residue(),
        )
        .unwrap();

        let artifact = dir.join("model.dcm");
        save_paged_ref(&model, &artifact).unwrap();
        // O(model), not O(data): far smaller than the inline encoding.
        let bytes = std::fs::read(&artifact).unwrap();
        assert!(bytes.len() < to_bytes(&model).len());

        let loaded = load(&artifact).unwrap();
        assert_eq!(loaded.matrix().backend(), dc_matrix::BackendKind::Paged);
        assert!(loaded == model);
        assert!(loaded == inline, "paged-ref load equals the inline twin");

        // A model whose pages drifted since save must be refused: find the
        // stored fingerprint (right after the length-prefixed dir path),
        // flip it, and recompute the CRC.
        let mut stale = bytes.clone();
        let dir_text = pages.to_string_lossy().into_owned();
        let needle = (dir_text.len() as u64).to_le_bytes();
        let at = (0..stale.len() - needle.len())
            .find(|&i| stale[i..i + 8] == needle && stale[i + 8..].starts_with(dir_text.as_bytes()))
            .expect("paged-ref path is embedded in the artifact");
        let fp_offset = at + 8 + dir_text.len();
        stale[fp_offset] ^= 0xFF;
        let body_len = stale.len() - 4;
        let crc = crc32(&stale[..body_len]).to_le_bytes();
        stale[body_len..].copy_from_slice(&crc);
        std::fs::write(&artifact, &stale).unwrap();
        match load(&artifact) {
            Err(ArtifactError::Malformed(why)) => assert!(why.contains("fingerprint"), "{why}"),
            Err(other) => panic!("expected a fingerprint mismatch, got {other}"),
            Ok(_) => panic!("expected a fingerprint mismatch, got a model"),
        }

        // Missing pages are a typed error, not a panic.
        std::fs::write(&artifact, &bytes).unwrap();
        std::fs::remove_dir_all(&pages).unwrap();
        assert!(matches!(load(&artifact), Err(ArtifactError::Paged(_))));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paged_ref_refuses_memory_backed_models() {
        let model = sample_model(false);
        assert!(matches!(
            to_bytes_paged_ref(&model),
            Err(ArtifactError::Malformed(_))
        ));
    }

    #[test]
    fn json_roundtrip_preserves_f32_storage() {
        let narrow = sample_f32_model();
        let text = to_json(&narrow);
        let loaded = from_json(&text).unwrap();
        assert_eq!(loaded.matrix().storage(), ValueStorage::F32);
        assert!(loaded == narrow);
    }

    #[test]
    fn json_roundtrip_preserves_model() {
        let model = sample_model(true);
        let text = to_json(&model);
        let loaded = from_json(&text).unwrap();
        assert!(loaded == model);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let model = sample_model(false);
        let mut bytes = to_bytes(&model);
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(ArtifactError::BadMagic)));

        let mut bytes = to_bytes(&model);
        bytes[4] = 0xFF; // version 0x00FF = 255
                         // Version bytes are covered by the checksum too, so either error is
                         // acceptable — but with a recomputed CRC it must be the version.
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        assert!(matches!(
            from_bytes(&bytes),
            Err(ArtifactError::UnsupportedVersion(255))
        ));
    }

    #[test]
    fn every_flipped_byte_is_a_checksum_error_not_a_panic() {
        let model = sample_model(true);
        let clean = to_bytes(&model);
        // Flip one byte at a time across the whole file (step keeps the
        // test fast on big artifacts; this one is small so step=1).
        for i in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[i] ^= 0x40;
            match from_bytes(&corrupt) {
                Err(_) => {}
                Ok(_) => panic!("flip at byte {i} went undetected"),
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = to_bytes(&sample_model(false));
        for keep in [0, 3, 8, 20, bytes.len() - 5] {
            assert!(from_bytes(&bytes[..keep]).is_err(), "kept {keep} bytes");
        }
    }

    #[test]
    fn save_load_dispatches_on_extension() {
        let dir = std::env::temp_dir().join("dc-serve-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let model = sample_model(true);

        let bin = dir.join("model.dcm");
        save(&model, &bin).unwrap();
        assert_eq!(std::fs::read(&bin).unwrap()[..4], MAGIC);
        assert!(load(&bin).unwrap() == model);

        let json = dir.join("model.json");
        save(&model, &json).unwrap();
        assert!(std::fs::read_to_string(&json).unwrap().starts_with('{'));
        assert!(load(&json).unwrap() == model);
    }

    #[test]
    fn observed_loads_emit_model_load_spans() {
        let dir = std::env::temp_dir().join("dc-serve-artifact-observed");
        std::fs::create_dir_all(&dir).unwrap();
        let model = sample_model(false);
        let path = dir.join("model.dcm");
        save(&model, &path).unwrap();

        let sink = dc_obs::MemorySink::new();
        assert!(load_observed(&path, &Obs::new(sink.clone())).unwrap() == model);
        let loads = sink.named("serve.model_load");
        assert_eq!(loads.len(), 1);
        assert!(loads[0].u64_field("bytes").unwrap() > 0);
        assert_eq!(loads[0].u64_field("clusters"), Some(2));
        assert!(loads[0].u64_field("load_micros").is_some());
    }
}

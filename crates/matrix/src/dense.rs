//! The dense data matrix with optional (missing) entries.
//!
//! The δ-cluster model (Yang et al., ICDE 2002) operates on an `M × N` matrix
//! `D` of objects × attributes in which entries may be *unspecified* — e.g. a
//! viewer who never rated a movie. [`DataMatrix`] stores values row-major in a
//! flat array with a parallel specification bitmap, so sequential row scans
//! (the hot path of residue computation) touch contiguous memory. The backing
//! scalar is selectable ([`ValueStorage`]): `f64` by default, or `f32` to
//! halve memory traffic at mining scale — accumulation always happens in
//! `f64` (see the `kernels` module), so both storages drive the same search.

use crate::bitset::BitSet;
use crate::kernels;
use crate::storage::{
    extract_bit_range, BackendKind, Chunk, IoStats, PagedError, PagedOptions, PagedStore, Storage,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, OnceLock};

const WORD_BITS: usize = 64;

/// Precision of a [`DataMatrix`]'s backing value array.
///
/// `F64` is the default and what every loader produces. `F32` halves the
/// bytes the residue kernels stream per entry; values are narrowed once at
/// conversion ([`DataMatrix::with_storage`]) and widened back to `f64` on
/// every read, so all downstream arithmetic — bases, residues, gains — is
/// identical to running on the `f64` matrix holding the same (narrowed)
/// values. Storage is part of matrix identity: two matrices with different
/// storage never compare equal even when every widened value matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValueStorage {
    /// 8-byte IEEE-754 values (default).
    F64,
    /// 4-byte IEEE-754 values; reads widen to `f64`.
    F32,
}

/// The backing value array in either precision. Unset cells hold `0.0`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Values {
    F64(Vec<f64>),
    F32(Vec<f32>),
}

impl Values {
    pub(crate) fn zeroed(storage: ValueStorage, len: usize) -> Values {
        match storage {
            ValueStorage::F64 => Values::F64(vec![0.0; len]),
            ValueStorage::F32 => Values::F32(vec![0.0; len]),
        }
    }

    #[inline]
    pub(crate) fn storage(&self) -> ValueStorage {
        match self {
            Values::F64(_) => ValueStorage::F64,
            Values::F32(_) => ValueStorage::F32,
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            Values::F64(v) => v.len(),
            Values::F32(v) => v.len(),
        }
    }

    #[inline]
    pub(crate) fn get(&self, idx: usize) -> f64 {
        match self {
            Values::F64(v) => v[idx],
            Values::F32(v) => v[idx] as f64,
        }
    }

    /// Stores `value`, narrowing for `F32` storage. The caller has already
    /// validated that the narrowed value is finite.
    #[inline]
    pub(crate) fn set(&mut self, idx: usize, value: f64) {
        match self {
            Values::F64(v) => v[idx] = value,
            Values::F32(v) => v[idx] = value as f32,
        }
    }

    /// Appends one value, narrowing for `F32` storage.
    #[inline]
    pub(crate) fn push(&mut self, value: f64) {
        match self {
            Values::F64(v) => v.push(value),
            Values::F32(v) => v.push(value as f32),
        }
    }

    #[inline]
    pub(crate) fn slice(&self, start: usize, end: usize) -> ValuesSlice<'_> {
        match self {
            Values::F64(v) => ValuesSlice::F64(&v[start..end]),
            Values::F32(v) => ValuesSlice::F32(&v[start..end]),
        }
    }
}

/// The value backend of a [`DataMatrix`] — resident memory or file-backed
/// pages. See [`crate::storage`] for the backend model.
///
/// Serde note: a paged matrix *serializes by materializing* its values into
/// the in-memory encoding (and deserializes as a memory matrix) — the wire
/// format is backend-agnostic, so every pre-existing artifact shape is
/// unchanged. `.dcm` v3 artifacts avoid the materialization with an explicit
/// paged-reference section at a higher layer.
#[derive(Debug)]
pub(crate) enum Store {
    Memory(Values),
    Paged(PagedStore),
}

impl Store {
    #[inline]
    fn storage(&self) -> ValueStorage {
        match self {
            Store::Memory(v) => v.storage(),
            Store::Paged(p) => p.precision(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            Store::Memory(v) => v.len(),
            Store::Paged(p) => p.rows() * p.cols(),
        }
    }

    #[inline]
    fn get(&self, idx: usize) -> f64 {
        match self {
            Store::Memory(v) => v.get(idx),
            Store::Paged(p) => p.get(idx),
        }
    }

    #[inline]
    fn set(&mut self, idx: usize, value: f64) {
        match self {
            Store::Memory(v) => v.set(idx, value),
            Store::Paged(p) => p.set(idx, value),
        }
    }
}

// Cloning a memory store copies the values; cloning a paged store clones the
// *handle* — both clones read (and write) the same directory and share the
// same block cache. A deep paged copy would mean duplicating the on-disk
// files, which is a decision for the caller, not for `Clone`.
impl Clone for Store {
    fn clone(&self) -> Self {
        match self {
            Store::Memory(v) => Store::Memory(v.clone()),
            Store::Paged(p) => Store::Paged(p.clone()),
        }
    }
}

// Equality is value equality: precision plus the widened value at every
// cell. Backends are deliberately *not* part of identity — a paged matrix
// equals its in-memory twin, which is exactly the property the paged
// backend promises.
impl PartialEq for Store {
    fn eq(&self, other: &Self) -> bool {
        if let (Store::Memory(a), Store::Memory(b)) = (self, other) {
            return a == b;
        }
        self.storage() == other.storage()
            && self.len() == other.len()
            && (0..self.len()).all(|idx| self.get(idx) == other.get(idx))
    }
}

impl Serialize for Store {
    fn to_value(&self) -> serde::Value {
        match self {
            Store::Memory(v) => v.to_value(),
            Store::Paged(p) => p.materialize().to_value(),
        }
    }
}

impl Deserialize for Store {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Store::Memory(Values::from_value(value)?))
    }
}

impl Storage for Store {
    fn kind(&self) -> BackendKind {
        match self {
            Store::Memory(_) => BackendKind::Memory,
            Store::Paged(_) => BackendKind::Paged,
        }
    }

    fn precision(&self) -> ValueStorage {
        self.storage()
    }

    fn block_rows(&self) -> Option<usize> {
        match self {
            Store::Memory(_) => None,
            Store::Paged(p) => Some(p.chunk_rows()),
        }
    }

    fn resident_blocks(&self) -> usize {
        match self {
            Store::Memory(_) => 1,
            Store::Paged(p) => p.resident_blocks(),
        }
    }

    fn io_stats(&self) -> IoStats {
        match self {
            Store::Memory(_) => IoStats::default(),
            Store::Paged(p) => p.io_stats(),
        }
    }
}

// The serialized form is version-gated by shape: `f64` storage keeps the
// historical plain-array encoding, so artifacts written before storage
// selection existed (and by default after) are unchanged, and old readers
// keep loading default-storage matrices. `f32` storage is a tagged object.
impl Serialize for Values {
    fn to_value(&self) -> serde::Value {
        match self {
            Values::F64(v) => v.to_value(),
            Values::F32(v) => serde::Value::Object(vec![("f32".to_string(), v.to_value())]),
        }
    }
}

impl Deserialize for Values {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        if let Some(fields) = value.as_object() {
            let inner = serde::get_field(fields, "f32")?;
            return Ok(Values::F32(Vec::<f32>::from_value(inner)?));
        }
        Ok(Values::F64(Vec::<f64>::from_value(value)?))
    }
}

/// A borrowed view of one contiguous run of matrix values in whatever
/// precision the matrix stores ([`ValueStorage`]). Reads widen to `f64`.
///
/// Hot loops should hoist one `ValuesSlice` per line (row or column) via
/// [`DataMatrix::row_ref`] instead of calling
/// [`DataMatrix::value_unchecked`] per cell: the storage dispatch then
/// happens once per access on a register-resident discriminant rather than
/// re-deriving the slice each call.
#[derive(Debug, Clone, Copy)]
pub enum ValuesSlice<'a> {
    /// Borrowed `f64` values.
    F64(&'a [f64]),
    /// Borrowed `f32` values; [`ValuesSlice::get`] widens.
    F32(&'a [f32]),
}

impl ValuesSlice<'_> {
    /// Number of values in the run.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ValuesSlice::F64(v) => v.len(),
            ValuesSlice::F32(v) => v.len(),
        }
    }

    /// True when the run is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `idx`, widened to `f64`. Missing cells read `0.0`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn get(&self, idx: usize) -> f64 {
        match self {
            ValuesSlice::F64(v) => v[idx],
            ValuesSlice::F32(v) => v[idx] as f64,
        }
    }
}

impl<'a> ValuesSlice<'a> {
    /// The run converted to an owned or borrowed `f64` slice — borrowed
    /// (free) for `f64` storage, an owned widening copy for `f32`.
    pub fn to_f64(self) -> Cow<'a, [f64]> {
        match self {
            ValuesSlice::F64(v) => Cow::Borrowed(v),
            ValuesSlice::F32(v) => Cow::Owned(v.iter().map(|&x| x as f64).collect()),
        }
    }
}

/// Conversion to a narrower [`ValueStorage`] failed.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// A specified value does not fit the target storage (|v| > f32::MAX).
    NotRepresentable {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
        /// The value that overflowed the narrower storage.
        value: f64,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotRepresentable { row, col, value } => write!(
                f,
                "value {value} at ({row}, {col}) is not representable in f32 storage"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

/// Column-major mirror of a [`DataMatrix`], built lazily on first use.
///
/// Row-major storage makes row scans contiguous but turns every column scan
/// into a `cols`-strided walk — one cache line per element once the matrix
/// outgrows L2. The mirror holds the same data transposed
/// (`values[col * rows + row]`, in the matrix's own [`ValueStorage`]) plus
/// word-packed specification masks per row and per column, so column
/// iteration is as cheap as row iteration and membership filters can
/// intersect whole 64-bit words at a time.
#[derive(Debug)]
struct ColMirror {
    /// Column-major values; 0.0 at missing cells.
    values: Values,
    /// Specification mask of row `r`: bits `c` of
    /// `row_words[r * row_stride ..][..row_stride]`.
    row_words: Vec<u64>,
    row_stride: usize,
    /// Specification mask of column `c`: bits `r` of
    /// `col_words[c * col_stride ..][..col_stride]`.
    col_words: Vec<u64>,
    col_stride: usize,
}

impl ColMirror {
    fn build(rows: usize, cols: usize, values: &Values, mask: &BitSet) -> ColMirror {
        let row_stride = cols.div_ceil(WORD_BITS);
        let col_stride = rows.div_ceil(WORD_BITS);
        let mut mirror = ColMirror {
            values: Values::zeroed(values.storage(), rows * cols),
            row_words: vec![0; rows * row_stride],
            row_stride,
            col_words: vec![0; cols * col_stride],
            col_stride,
        };
        if cols == 0 {
            return mirror;
        }
        for idx in mask.iter() {
            let (r, c) = (idx / cols, idx % cols);
            // Widening then re-narrowing an f32 is exact, so the mirror
            // holds bit-identical values in either storage.
            mirror.values.set(c * rows + r, values.get(idx));
            mirror.row_words[r * row_stride + c / WORD_BITS] |= 1u64 << (c % WORD_BITS);
            mirror.col_words[c * col_stride + r / WORD_BITS] |= 1u64 << (r % WORD_BITS);
        }
        mirror
    }

    #[inline]
    fn row_mask(&self, row: usize) -> &[u64] {
        &self.row_words[row * self.row_stride..(row + 1) * self.row_stride]
    }

    #[inline]
    fn col_mask(&self, col: usize) -> &[u64] {
        &self.col_words[col * self.col_stride..(col + 1) * self.col_stride]
    }
}

/// The mask-only sibling of [`ColMirror`] used by the paged backend: the
/// same per-row and per-column word-packed specification masks, but *no*
/// transposed value array — column values live chunk-local
/// ([`crate::storage`]), so transposing them globally would defeat the
/// bounded-memory point of paging. Masks are 1 bit per cell and stay
/// resident on every backend.
#[derive(Debug)]
struct MaskIndex {
    row_words: Vec<u64>,
    row_stride: usize,
    col_words: Vec<u64>,
    col_stride: usize,
}

impl MaskIndex {
    fn build(rows: usize, cols: usize, mask: &BitSet) -> MaskIndex {
        let row_stride = cols.div_ceil(WORD_BITS);
        let col_stride = rows.div_ceil(WORD_BITS);
        let mut index = MaskIndex {
            row_words: vec![0; rows * row_stride],
            row_stride,
            col_words: vec![0; cols * col_stride],
            col_stride,
        };
        if cols == 0 {
            return index;
        }
        for idx in mask.iter() {
            let (r, c) = (idx / cols, idx % cols);
            index.row_words[r * row_stride + c / WORD_BITS] |= 1u64 << (c % WORD_BITS);
            index.col_words[c * col_stride + r / WORD_BITS] |= 1u64 << (r % WORD_BITS);
        }
        index
    }

    #[inline]
    fn row_mask(&self, row: usize) -> &[u64] {
        &self.row_words[row * self.row_stride..(row + 1) * self.row_stride]
    }

    #[inline]
    fn col_mask(&self, col: usize) -> &[u64] {
        &self.col_words[col * self.col_stride..(col + 1) * self.col_stride]
    }
}

/// The per-backend line index cached in [`MirrorCell`]: the memory backend
/// keeps the full value transpose, the paged backend only the masks.
#[derive(Debug)]
enum LineIndex {
    Full(ColMirror),
    Mask(MaskIndex),
}

impl LineIndex {
    #[inline]
    fn row_mask(&self, row: usize) -> &[u64] {
        match self {
            LineIndex::Full(m) => m.row_mask(row),
            LineIndex::Mask(m) => m.row_mask(row),
        }
    }

    #[inline]
    fn col_mask(&self, col: usize) -> &[u64] {
        match self {
            LineIndex::Full(m) => m.col_mask(col),
            LineIndex::Mask(m) => m.col_mask(col),
        }
    }
}

/// Lazily-initialized [`LineIndex`] cache.
///
/// The wrapper exists so [`DataMatrix`] can keep its `Clone`/`PartialEq`/
/// serde derives: the mirror is derived state, so it never participates in
/// equality, serializes as `null`, and a cloned or deserialized matrix
/// starts with an empty cache and rebuilds on demand.
#[derive(Default)]
struct MirrorCell(OnceLock<LineIndex>);

impl Clone for MirrorCell {
    fn clone(&self) -> Self {
        MirrorCell::default()
    }
}

impl PartialEq for MirrorCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for MirrorCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "MirrorCell(built)"
        } else {
            "MirrorCell(empty)"
        })
    }
}

impl Serialize for MirrorCell {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for MirrorCell {
    fn from_value(_: &serde::Value) -> Result<Self, serde::Error> {
        Ok(MirrorCell::default())
    }
}

/// An `rows × cols` matrix of values where individual entries may be
/// missing.
///
/// Conventions follow the paper: *objects* are rows, *attributes* are
/// columns. Missing entries are first-class: they contribute nothing to any
/// base (mean) or residue, and occupancy constraints bound how many of them a
/// δ-cluster may absorb.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct DataMatrix {
    rows: usize,
    cols: usize,
    /// Row-major values behind a pluggable backend; positions where `mask`
    /// is unset hold 0.0 and must never be read as data. The serde field
    /// name stays `values` for wire compatibility.
    values: Store,
    /// Bit `i * cols + j` set ⇔ entry `(i, j)` is specified.
    mask: BitSet,
    /// Cached count of specified entries.
    specified: usize,
    /// Optional row labels (e.g. gene names / user ids).
    row_labels: Option<Vec<String>>,
    /// Optional column labels (e.g. condition names / movie titles).
    col_labels: Option<Vec<String>>,
    /// Lazily-built column-major mirror; invalidated by every mutation.
    mirror: MirrorCell,
}

impl DataMatrix {
    /// Starts a [`crate::MatrixBuilder`] for an `rows × cols` matrix — the
    /// construction entry point. Equivalent to
    /// [`crate::MatrixBuilder::dense`].
    pub fn builder(rows: usize, cols: usize) -> crate::storage::MatrixBuilder {
        crate::storage::MatrixBuilder::dense(rows, cols)
    }

    /// Assembles a matrix from pre-validated parts — the single funnel every
    /// builder finisher and open path goes through.
    pub(crate) fn assemble(
        rows: usize,
        cols: usize,
        values: Store,
        mask: BitSet,
        specified: usize,
        row_labels: Option<Vec<String>>,
        col_labels: Option<Vec<String>>,
    ) -> Self {
        debug_assert_eq!(values.len(), rows * cols);
        debug_assert_eq!(mask.capacity(), rows * cols);
        debug_assert_eq!(mask.len(), specified);
        DataMatrix {
            rows,
            cols,
            values,
            mask,
            specified,
            row_labels,
            col_labels,
            mirror: MirrorCell::default(),
        }
    }

    pub(crate) fn memory_empty(rows: usize, cols: usize, storage: ValueStorage) -> Self {
        DataMatrix::assemble(
            rows,
            cols,
            Store::Memory(Values::zeroed(storage, rows * cols)),
            BitSet::new(rows * cols),
            0,
            None,
            None,
        )
    }

    pub(crate) fn memory_from_rows(
        rows: usize,
        cols: usize,
        data: Vec<f64>,
        storage: ValueStorage,
    ) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        let values = match storage {
            ValueStorage::F64 => Values::F64(data),
            ValueStorage::F32 => {
                let mut v = Vec::with_capacity(data.len());
                for x in data {
                    assert!(
                        !x.is_finite() || (x as f32).is_finite(),
                        "value {x} is not representable in f32 storage"
                    );
                    v.push(x as f32);
                }
                Values::F32(v)
            }
        };
        DataMatrix::assemble(
            rows,
            cols,
            Store::Memory(values),
            BitSet::full(rows * cols),
            rows * cols,
            None,
            None,
        )
    }

    pub(crate) fn memory_from_options(
        rows: usize,
        cols: usize,
        data: Vec<Option<f64>>,
        storage: ValueStorage,
    ) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        let mut m = DataMatrix::memory_empty(rows, cols, storage);
        for (idx, v) in data.into_iter().enumerate() {
            if let Some(x) = v {
                m.set(idx / cols, idx % cols, x);
            }
        }
        m
    }

    /// Opens a paged matrix directory (written by
    /// [`crate::MatrixBuilder::paged`]) with default [`PagedOptions`]:
    /// unbounded cache, every block verified up front.
    ///
    /// # Errors
    /// [`PagedError`] if the metadata or any block file is missing,
    /// unreadable, or fails validation.
    pub fn open_paged(dir: impl AsRef<Path>) -> Result<DataMatrix, PagedError> {
        DataMatrix::open_paged_with(dir, PagedOptions::default())
    }

    /// Opens a paged matrix directory with explicit [`PagedOptions`]
    /// (cache cap, chunk verification policy).
    ///
    /// # Errors
    /// [`PagedError`] on any validation or I/O failure; with
    /// `verify_on_open` disabled only the metadata is validated.
    pub fn open_paged_with(
        dir: impl AsRef<Path>,
        opts: PagedOptions,
    ) -> Result<DataMatrix, PagedError> {
        let opened = crate::storage::open_paged_dir(dir.as_ref(), &opts)?;
        Ok(DataMatrix::assemble(
            opened.store.rows(),
            opened.store.cols(),
            Store::Paged(opened.store),
            opened.mask,
            opened.specified,
            opened.row_labels,
            opened.col_labels,
        ))
    }

    /// Which backend holds the values.
    #[inline]
    pub fn backend(&self) -> BackendKind {
        self.values.kind()
    }

    /// The backend's observability surface: kind, precision, block size,
    /// residency, and cache traffic.
    pub fn storage_backend(&self) -> &dyn Storage {
        &self.values
    }

    /// The paged backend's directory, or `None` for a memory matrix.
    pub fn paged_dir(&self) -> Option<&Path> {
        match &self.values {
            Store::Memory(_) => None,
            Store::Paged(p) => Some(p.dir()),
        }
    }

    /// A fully resident copy of this matrix: reads every page of a paged
    /// matrix into a memory-backed twin (equal by `==` and by
    /// [`Self::fingerprint`]). A memory matrix just clones. Costs O(data)
    /// RAM — the reverse trade of the paged backend.
    pub fn to_memory(&self) -> DataMatrix {
        match &self.values {
            Store::Memory(_) => self.clone(),
            Store::Paged(p) => DataMatrix::assemble(
                self.rows,
                self.cols,
                Store::Memory(p.materialize()),
                self.mask.clone(),
                self.specified,
                self.row_labels.clone(),
                self.col_labels.clone(),
            ),
        }
    }

    /// Writes every dirty block and the directory metadata of a paged
    /// matrix (a no-op for memory matrices). Until `flush`, mutations and
    /// appends live only in resident blocks — pinned in the cache — and a
    /// reopen sees the previous on-disk state.
    ///
    /// # Errors
    /// [`PagedError`] if a block or the metadata fails to write; the
    /// destination files keep their previous consistent content.
    pub fn flush(&self) -> Result<(), PagedError> {
        match &self.values {
            Store::Memory(_) => Ok(()),
            Store::Paged(p) => p.flush(self),
        }
    }

    /// Appends one row (`None` = missing), growing the matrix by one. On the
    /// paged backend the row lands in the tail block (extending it in place,
    /// or starting a fresh block when full) and is durable at the next
    /// [`Self::flush`].
    ///
    /// # Errors / Panics
    /// Currently infallible (`Ok` on both backends) — the `Result` reserves
    /// the error channel for backends that write through. Panics if
    /// `row.len() != cols`, if a value is non-finite or unrepresentable in
    /// the matrix's storage, or if the matrix has row labels (appending
    /// would desynchronize them).
    pub fn append_row(&mut self, row: &[Option<f64>]) -> Result<(), PagedError> {
        assert_eq!(row.len(), self.cols, "row length does not match cols");
        assert!(
            self.row_labels.is_none(),
            "cannot append to a matrix with row labels"
        );
        for v in row.iter().flatten() {
            assert!(v.is_finite(), "matrix values must be finite, got {v}");
            if self.storage() == ValueStorage::F32 {
                assert!(
                    (*v as f32).is_finite(),
                    "value {v} is not representable in f32 storage"
                );
            }
        }
        let r = self.rows;
        self.mask.grow((r + 1) * self.cols);
        match &mut self.values {
            Store::Memory(vals) => {
                for v in row {
                    vals.push(v.unwrap_or(0.0));
                }
            }
            Store::Paged(store) => store.append_row(row),
        }
        for (c, v) in row.iter().enumerate() {
            if v.is_some() {
                self.mask.insert(r * self.cols + c);
                self.specified += 1;
            }
        }
        self.rows += 1;
        self.mirror.0.take();
        Ok(())
    }

    pub(crate) fn mask_clone(&self) -> BitSet {
        self.mask.clone()
    }

    pub(crate) fn row_labels_clone(&self) -> Option<Vec<String>> {
        self.row_labels.clone()
    }

    pub(crate) fn col_labels_clone(&self) -> Option<Vec<String>> {
        self.col_labels.clone()
    }

    /// The precision of the backing value array.
    #[inline]
    pub fn storage(&self) -> ValueStorage {
        self.values.storage()
    }

    /// A copy of this matrix in `storage` precision. Converting to `F32`
    /// narrows every specified value once (reads widen back to `f64`);
    /// converting to `F64` widens exactly. Labels ride along. The result is
    /// always memory-backed, whatever the source backend.
    ///
    /// # Errors
    /// [`StorageError::NotRepresentable`] if a specified value narrows to a
    /// non-finite `f32` (|v| > ~3.4e38). NaN can not occur — [`Self::set`]
    /// only admits finite values.
    pub fn with_storage(&self, storage: ValueStorage) -> Result<DataMatrix, StorageError> {
        let mut values = Values::zeroed(storage, self.rows * self.cols);
        for idx in self.mask.iter() {
            let v = self.values.get(idx);
            if storage == ValueStorage::F32 && !(v as f32).is_finite() {
                return Err(StorageError::NotRepresentable {
                    row: idx / self.cols.max(1),
                    col: idx % self.cols.max(1),
                    value: v,
                });
            }
            values.set(idx, v);
        }
        Ok(DataMatrix::assemble(
            self.rows,
            self.cols,
            Store::Memory(values),
            self.mask.clone(),
            self.specified,
            self.row_labels.clone(),
            self.col_labels.clone(),
        ))
    }

    /// Number of objects (rows).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of attributes (columns).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of cells, specified or not.
    #[inline]
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }

    /// Number of specified entries in the whole matrix.
    #[inline]
    pub fn specified_count(&self) -> usize {
        self.specified
    }

    /// Fraction of cells that are specified, in `[0, 1]`. Returns 1.0 for an
    /// empty matrix.
    pub fn density(&self) -> f64 {
        if self.cells() == 0 {
            1.0
        } else {
            self.specified as f64 / self.cells() as f64
        }
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// Returns the value at `(row, col)`, or `None` if missing.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        let idx = self.idx(row, col);
        if self.mask.contains(idx) {
            Some(self.values.get(idx))
        } else {
            None
        }
    }

    /// True if entry `(row, col)` is specified.
    #[inline]
    pub fn is_specified(&self, row: usize, col: usize) -> bool {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.mask.contains(self.idx(row, col))
    }

    /// Raw value without a specification check. Reads 0.0 at missing cells.
    /// Use together with [`Self::is_specified`] in hot loops that have already
    /// established specification.
    #[inline]
    pub fn value_unchecked(&self, row: usize, col: usize) -> f64 {
        self.values.get(row * self.cols + col)
    }

    /// Sets entry `(row, col)` to `value`, marking it specified.
    ///
    /// # Panics
    /// Panics if out of bounds, if `value` is not finite, or if the matrix
    /// uses `f32` storage and `value` overflows it.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        assert!(
            value.is_finite(),
            "matrix values must be finite, got {value}"
        );
        if self.storage() == ValueStorage::F32 {
            assert!(
                (value as f32).is_finite(),
                "value {value} is not representable in f32 storage"
            );
        }
        let idx = self.idx(row, col);
        if self.mask.insert(idx) {
            self.specified += 1;
        }
        self.values.set(idx, value);
        self.mirror.0.take();
    }

    /// Marks entry `(row, col)` as missing; returns the previous value.
    pub fn unset(&mut self, row: usize, col: usize) -> Option<f64> {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        let idx = self.idx(row, col);
        if self.mask.remove(idx) {
            self.specified -= 1;
            let prev = self.values.get(idx);
            self.values.set(idx, 0.0);
            self.mirror.0.take();
            Some(prev)
        } else {
            None
        }
    }

    /// Iterates the specified entries of row `row` as `(col, value)`.
    pub fn row_entries(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(row < self.rows, "row {row} out of bounds");
        (0..self.cols).filter_map(move |c| self.get(row, c).map(|v| (c, v)))
    }

    /// Iterates the specified entries of column `col` as `(row, value)`.
    pub fn col_entries(&self, col: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(col < self.cols, "col {col} out of bounds");
        (0..self.rows).filter_map(move |r| self.get(r, col).map(|v| (r, v)))
    }

    /// Iterates every specified entry as `(row, col, value)` in row-major
    /// order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| self.row_entries(r).map(move |(c, v)| (r, c, v)))
    }

    /// Number of specified entries in row `row` (word-popcount, builds the
    /// line index on first use).
    pub fn row_specified_count(&self, row: usize) -> usize {
        assert!(row < self.rows, "row {row} out of bounds");
        self.line_index()
            .row_mask(row)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Number of specified entries in column `col` (word-popcount, builds
    /// the line index on first use).
    pub fn col_specified_count(&self, col: usize) -> usize {
        assert!(col < self.cols, "col {col} out of bounds");
        self.line_index()
            .col_mask(col)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Row slice of raw values (includes zeros at missing positions), as
    /// `f64` — borrowed when the backend can lend the row (memory matrices
    /// with `f64` storage), an owned copy otherwise. A thin wrapper over
    /// [`Self::row_ref`]; hot loops should hold the [`RowRef`] itself.
    #[doc(alias = "row_slice")]
    #[inline]
    pub fn row_values(&self, row: usize) -> Cow<'_, [f64]> {
        self.row_ref(row).to_f64()
    }

    /// Backend-aware handle to row `row`'s raw values in native storage
    /// precision (zeros at missing positions). On the memory backend this
    /// borrows the row in place; on the paged backend it holds the row's
    /// resident block, keeping it alive for the handle's lifetime. The
    /// cheap, storage-agnostic accessor for hot loops.
    #[inline]
    pub fn row_ref(&self, row: usize) -> RowRef<'_> {
        assert!(row < self.rows, "row {row} out of bounds");
        match &self.values {
            Store::Memory(v) => RowRef(RowRefRepr::Slice(
                v.slice(row * self.cols, (row + 1) * self.cols),
            )),
            Store::Paged(p) => {
                let (chunk, local) = p.row_chunk(row);
                RowRef(RowRefRepr::Chunk {
                    chunk,
                    local_row: local,
                    cols: self.cols,
                    _tied: std::marker::PhantomData,
                })
            }
        }
    }

    #[inline]
    fn line_index(&self) -> &LineIndex {
        self.mirror.0.get_or_init(|| match &self.values {
            Store::Memory(v) => {
                LineIndex::Full(ColMirror::build(self.rows, self.cols, v, &self.mask))
            }
            Store::Paged(_) => LineIndex::Mask(MaskIndex::build(self.rows, self.cols, &self.mask)),
        })
    }

    /// The full column mirror — only the memory backend has one.
    #[inline]
    fn full_mirror(&self) -> Option<&ColMirror> {
        match self.line_index() {
            LineIndex::Full(m) => Some(m),
            LineIndex::Mask(_) => None,
        }
    }

    /// Forces the lazily-built line index (column-major mirror on the
    /// memory backend, mask index on the paged backend) into existence.
    ///
    /// The index is built under a `OnceLock` on first column access;
    /// callers about to fan work out across threads can pay the transpose
    /// once up front instead of serializing every worker behind the lock.
    pub fn ensure_mirror(&self) {
        let _ = self.line_index();
    }

    /// Column `col`'s raw values (includes zeros at missing positions) as
    /// `f64` — borrowed from the column-major mirror on the `f64` memory
    /// backend, an owned copy otherwise (widening for `f32`; gathered
    /// across blocks in ascending row order on the paged backend).
    ///
    /// On the memory backend the first call after construction or mutation
    /// pays an `O(rows·cols)` transpose; subsequent calls are free until
    /// the matrix changes.
    #[doc(alias = "col_slice")]
    #[inline]
    pub fn col_values(&self, col: usize) -> Cow<'_, [f64]> {
        assert!(col < self.cols, "col {col} out of bounds");
        match &self.values {
            Store::Memory(_) => {
                let mirror = self
                    .full_mirror()
                    .expect("memory backend has a full mirror");
                mirror
                    .values
                    .slice(col * self.rows, (col + 1) * self.rows)
                    .to_f64()
            }
            Store::Paged(p) => {
                let mut out = Vec::with_capacity(self.rows);
                for index in 0..p.n_chunks() {
                    let chunk = p.chunk(index);
                    for local in 0..chunk.n_rows() {
                        out.push(chunk.value(local, col));
                    }
                }
                Cow::Owned(out)
            }
        }
    }

    /// Iterates the specified entries of row `row` as `(col, value)` in
    /// ascending column order.
    ///
    /// Equivalent to [`Self::row_entries`] but driven by word-packed mask
    /// scans over contiguous value slices instead of a per-cell
    /// bounds-check + mask-branch + `Option`, which matters in the FLOC
    /// gain loops that visit every entry of a cluster per candidate action.
    pub fn row_specified(&self, row: usize) -> SpecifiedEntries<'_> {
        self.row_line(row, None)
    }

    /// Iterates the specified entries of column `col` as `(row, value)` in
    /// ascending row order.
    pub fn col_specified(&self, col: usize) -> SpecifiedEntries<'_> {
        self.col_line(col, None)
    }

    /// Like [`Self::row_specified`] but restricted to columns in `cols`,
    /// intersecting the row's specification mask with the set one 64-bit
    /// word at a time.
    ///
    /// # Panics
    /// Panics if `cols.capacity() != self.cols()`.
    pub fn row_specified_in<'a>(&'a self, row: usize, cols: &'a BitSet) -> SpecifiedEntries<'a> {
        assert_eq!(
            cols.capacity(),
            self.cols,
            "column set capacity does not match matrix width"
        );
        self.row_line(row, Some(cols.words()))
    }

    /// Like [`Self::col_specified`] but restricted to rows in `rows`.
    ///
    /// # Panics
    /// Panics if `rows.capacity() != self.rows()`.
    pub fn col_specified_in<'a>(&'a self, col: usize, rows: &'a BitSet) -> SpecifiedEntries<'a> {
        assert_eq!(
            rows.capacity(),
            self.rows,
            "row set capacity does not match matrix height"
        );
        self.col_line(col, Some(rows.words()))
    }

    fn row_line<'a>(&'a self, row: usize, filter: Option<&'a [u64]>) -> SpecifiedEntries<'a> {
        assert!(row < self.rows, "row {row} out of bounds");
        let mask = self.line_index().row_mask(row);
        match &self.values {
            Store::Memory(v) => SpecifiedEntries(SpecifiedRepr::slice(
                v.slice(row * self.cols, (row + 1) * self.cols),
                mask,
                filter,
            )),
            Store::Paged(p) => {
                let (chunk, local) = p.row_chunk(row);
                SpecifiedEntries(SpecifiedRepr::chunk_row(chunk, local, mask, filter))
            }
        }
    }

    fn col_line<'a>(&'a self, col: usize, filter: Option<&'a [u64]>) -> SpecifiedEntries<'a> {
        assert!(col < self.cols, "col {col} out of bounds");
        match &self.values {
            Store::Memory(_) => {
                let mirror = self
                    .full_mirror()
                    .expect("memory backend has a full mirror");
                SpecifiedEntries(SpecifiedRepr::slice(
                    mirror.values.slice(col * self.rows, (col + 1) * self.rows),
                    mirror.col_mask(col),
                    filter,
                ))
            }
            Store::Paged(p) => {
                // Gather eagerly, walking selected rows in ascending order;
                // consecutive rows share a block, so each block decodes at
                // most once per call even under a 1-block cache.
                let mask = self.line_index().col_mask(col);
                let mut out = Vec::new();
                let mut held: Option<(usize, Arc<Chunk>)> = None;
                for (wi, &mword) in mask.iter().enumerate() {
                    let mut w = match filter {
                        None => mword,
                        Some(f) => mword & f[wi],
                    };
                    while w != 0 {
                        let r = wi * WORD_BITS + w.trailing_zeros() as usize;
                        w &= w - 1;
                        let index = r / p.chunk_rows();
                        if held.as_ref().map(|(i, _)| *i) != Some(index) {
                            held = Some((index, p.chunk(index)));
                        }
                        let chunk = &held.as_ref().expect("just set").1;
                        out.push((r, chunk.value(r % p.chunk_rows(), col)));
                    }
                }
                SpecifiedEntries(SpecifiedRepr::Buffered(out.into_iter()))
            }
        }
    }

    /// Sum and count of the specified entries of row `row` restricted to
    /// `cols`, via the word-block kernel (no per-entry iteration). The sum
    /// is bit-identical to folding [`Self::row_specified_in`] on every
    /// backend.
    ///
    /// # Panics
    /// Panics if `cols.capacity() != self.cols()`.
    pub fn row_stats_in(&self, row: usize, cols: &BitSet) -> (f64, u32) {
        assert!(row < self.rows, "row {row} out of bounds");
        assert_eq!(
            cols.capacity(),
            self.cols,
            "column set capacity does not match matrix width"
        );
        let mask = self.line_index().row_mask(row);
        let row_ref = self.row_ref(row);
        kernels::masked_sum_count(row_ref.as_slice(), mask, Some(cols.words()))
    }

    /// Sum and count of the specified entries of column `col` restricted to
    /// `rows`, via the word-block kernel.
    ///
    /// On the memory backend this scans the column-major mirror in one
    /// pass. On the paged backend it walks the column's blocks in ascending
    /// row order, *carrying the running accumulator into each block's
    /// kernel call* — which reproduces the exact addition sequence of the
    /// single-pass fold, so the result is bit-identical to the memory
    /// backend for any chunk size and cache cap. Blocks with no selected
    /// rows are skipped without touching disk (the filter is intersected
    /// against resident mask words first).
    ///
    /// # Panics
    /// Panics if `rows.capacity() != self.rows()`.
    pub fn col_stats_in(&self, col: usize, rows: &BitSet) -> (f64, u32) {
        assert!(col < self.cols, "col {col} out of bounds");
        assert_eq!(
            rows.capacity(),
            self.rows,
            "row set capacity does not match matrix height"
        );
        match &self.values {
            Store::Memory(_) => {
                let mirror = self
                    .full_mirror()
                    .expect("memory backend has a full mirror");
                kernels::masked_sum_count(
                    mirror.values.slice(col * self.rows, (col + 1) * self.rows),
                    mirror.col_mask(col),
                    Some(rows.words()),
                )
            }
            Store::Paged(p) => {
                let mut acc = (0.0, 0u32);
                let mut local_filter = Vec::new();
                for index in 0..p.n_chunks() {
                    let (start, n) = p.chunk_span(index);
                    if !extract_bit_range(rows.words(), start, n, &mut local_filter) {
                        continue;
                    }
                    let chunk = p.chunk(index);
                    let mirror = chunk.mirror(&self.mask);
                    acc = kernels::masked_sum_count_from(
                        acc,
                        mirror.col_slice(col, n),
                        mirror.col_mask(col),
                        Some(&local_filter),
                    );
                }
                acc
            }
        }
    }

    /// Residue contribution of row `row` restricted to `cols`:
    /// `Σ term(v − row_base − col_bases[c] + base)` over the selected
    /// entries, with `term = |·|` (`squared = false`) or `(·)²`. Runs the
    /// branch-free word-block kernel; the result is bit-identical to the
    /// per-entry formulation.
    ///
    /// `col_bases` lanes outside the selection may hold anything finite.
    ///
    /// # Panics
    /// Panics if `cols.capacity() != self.cols()` or
    /// `col_bases.len() < self.cols()`.
    pub fn row_residue_in(
        &self,
        row: usize,
        cols: &BitSet,
        row_base: f64,
        col_bases: &[f64],
        base: f64,
        squared: bool,
    ) -> f64 {
        assert!(row < self.rows, "row {row} out of bounds");
        assert_eq!(
            cols.capacity(),
            self.cols,
            "column set capacity does not match matrix width"
        );
        assert!(
            col_bases.len() >= self.cols,
            "col_bases must cover every column"
        );
        let mask = self.line_index().row_mask(row);
        let row_ref = self.row_ref(row);
        kernels::masked_residue(
            row_ref.as_slice(),
            mask,
            Some(cols.words()),
            row_base,
            col_bases,
            base,
            squared,
        )
    }

    /// Attaches row labels. Length must equal `rows`.
    pub fn set_row_labels(&mut self, labels: Vec<String>) {
        assert_eq!(labels.len(), self.rows, "row label count mismatch");
        self.row_labels = Some(labels);
    }

    /// Attaches column labels. Length must equal `cols`.
    pub fn set_col_labels(&mut self, labels: Vec<String>) {
        assert_eq!(labels.len(), self.cols, "col label count mismatch");
        self.col_labels = Some(labels);
    }

    /// Row label, if labels were attached.
    pub fn row_label(&self, row: usize) -> Option<&str> {
        self.row_labels.as_ref().map(|l| l[row].as_str())
    }

    /// Column label, if labels were attached.
    pub fn col_label(&self, col: usize) -> Option<&str> {
        self.col_labels.as_ref().map(|l| l[col].as_str())
    }

    /// Extracts the submatrix over `rows × cols` index sets as a new
    /// memory-backed dense matrix (copies data; missing entries stay
    /// missing; keeps storage precision). Row and column labels, when
    /// present, are carried over for the selected indices.
    pub fn submatrix(&self, rows: &[usize], cols: &[usize]) -> DataMatrix {
        let mut out = DataMatrix::memory_empty(rows.len(), cols.len(), self.storage());
        for (ri, &r) in rows.iter().enumerate() {
            for (ci, &c) in cols.iter().enumerate() {
                if let Some(v) = self.get(r, c) {
                    out.set(ri, ci, v);
                }
            }
        }
        if let Some(labels) = &self.row_labels {
            out.set_row_labels(rows.iter().map(|&r| labels[r].clone()).collect());
        }
        if let Some(labels) = &self.col_labels {
            out.set_col_labels(cols.iter().map(|&c| labels[c].clone()).collect());
        }
        out
    }

    /// A cheap content fingerprint: FNV-1a over the shape, the
    /// specification mask, and the bit pattern of every specified value
    /// (widened to `f64`, so an `f32` matrix and the `f64` matrix holding
    /// the same narrowed values fingerprint equal — they drive identical
    /// searches).
    ///
    /// Two matrices fingerprint equal iff they have the same shape and the
    /// same specified entries with bit-identical widened values (labels are
    /// ignored — they don't affect clustering). Used to detect that a
    /// checkpoint is being resumed against a different data set; it is not
    /// a cryptographic hash.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(&(self.rows as u64).to_le_bytes());
        eat(&(self.cols as u64).to_le_bytes());
        for idx in 0..self.values.len() {
            if self.mask.contains(idx) {
                eat(&(idx as u64).to_le_bytes());
                eat(&self.values.get(idx).to_bits().to_le_bytes());
            }
        }
        h
    }

    /// Applies `f` to every specified entry in place.
    pub fn map_in_place<F: FnMut(f64) -> f64>(&mut self, mut f: F) {
        for idx in 0..self.values.len() {
            if self.mask.contains(idx) {
                let v = f(self.values.get(idx));
                assert!(v.is_finite(), "map produced non-finite value {v}");
                self.values.set(idx, v);
            }
        }
        self.mirror.0.take();
    }
}

/// Backend-aware handle to one row's raw values in native storage
/// precision, produced by [`DataMatrix::row_ref`].
///
/// On the memory backend it is a plain borrow of the row; on the paged
/// backend it holds the row's resident block (`Arc`), keeping the block
/// alive — and its values addressable — for the handle's lifetime. Either
/// way [`RowRef::get`] is a direct indexed load, so hot loops hoist one
/// `RowRef` per row instead of calling [`DataMatrix::value_unchecked`] per
/// cell.
pub struct RowRef<'a>(RowRefRepr<'a>);

enum RowRefRepr<'a> {
    Slice(ValuesSlice<'a>),
    Chunk {
        chunk: Arc<Chunk>,
        local_row: usize,
        cols: usize,
        // The handle logically borrows the matrix even though the block is
        // owned: mutation through `&mut DataMatrix` must invalidate it.
        _tied: std::marker::PhantomData<&'a ()>,
    },
}

impl<'a> RowRef<'a> {
    /// Number of values in the row (the matrix width).
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            RowRefRepr::Slice(s) => s.len(),
            RowRefRepr::Chunk { cols, .. } => *cols,
        }
    }

    /// True when the row has no columns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at column `idx`, widened to `f64`. Missing cells read
    /// `0.0`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn get(&self, idx: usize) -> f64 {
        match &self.0 {
            RowRefRepr::Slice(s) => s.get(idx),
            RowRefRepr::Chunk {
                chunk,
                local_row,
                cols,
                ..
            } => {
                assert!(idx < *cols, "column {idx} out of bounds");
                chunk.value(*local_row, idx)
            }
        }
    }

    /// The row as a contiguous [`ValuesSlice`] borrowed from this handle —
    /// what the residue kernels consume.
    #[inline]
    pub fn as_slice(&self) -> ValuesSlice<'_> {
        match &self.0 {
            RowRefRepr::Slice(s) => *s,
            RowRefRepr::Chunk {
                chunk, local_row, ..
            } => chunk.row_slice(*local_row),
        }
    }

    /// The row as `f64` — borrowed (free) when the backend lends `f64`
    /// values in place, an owned widening/gathering copy otherwise. The
    /// `Cow` carries the *matrix* lifetime, so it outlives the handle.
    pub fn to_f64(&self) -> Cow<'a, [f64]> {
        match &self.0 {
            RowRefRepr::Slice(s) => s.to_f64(),
            RowRefRepr::Chunk {
                chunk,
                local_row,
                cols,
                ..
            } => Cow::Owned((0..*cols).map(|c| chunk.value(*local_row, c)).collect()),
        }
    }
}

/// Iterator over the specified entries of one matrix line (a row or a
/// column) as `(index, value)` pairs in ascending index order.
///
/// Produced by [`DataMatrix::row_specified`] / [`DataMatrix::col_specified`]
/// and their `_in` variants. On the memory backend it walks word-packed
/// specification masks with `trailing_zeros` over a contiguous value slice,
/// so missing entries and filtered-out indices cost nothing per element; on
/// the paged backend rows walk their resident block the same way, while
/// columns gather eagerly across blocks at construction.
pub struct SpecifiedEntries<'a>(SpecifiedRepr<'a>);

enum SpecifiedRepr<'a> {
    Slice {
        values: ValuesSlice<'a>,
        mask: &'a [u64],
        filter: Option<&'a [u64]>,
        word_idx: usize,
        current: u64,
    },
    ChunkRow {
        chunk: Arc<Chunk>,
        local_row: usize,
        mask: &'a [u64],
        filter: Option<&'a [u64]>,
        word_idx: usize,
        current: u64,
    },
    Buffered(std::vec::IntoIter<(usize, f64)>),
}

impl<'a> SpecifiedRepr<'a> {
    fn first_word(mask: &[u64], filter: Option<&[u64]>) -> u64 {
        debug_assert!(filter.is_none_or(|f| f.len() == mask.len()));
        match (mask.first(), filter) {
            (Some(&m), None) => m,
            (Some(&m), Some(f)) => m & f[0],
            (None, _) => 0,
        }
    }

    fn slice(values: ValuesSlice<'a>, mask: &'a [u64], filter: Option<&'a [u64]>) -> Self {
        SpecifiedRepr::Slice {
            values,
            mask,
            filter,
            word_idx: 0,
            current: Self::first_word(mask, filter),
        }
    }

    fn chunk_row(
        chunk: Arc<Chunk>,
        local_row: usize,
        mask: &'a [u64],
        filter: Option<&'a [u64]>,
    ) -> Self {
        SpecifiedRepr::ChunkRow {
            chunk,
            local_row,
            mask,
            filter,
            word_idx: 0,
            current: Self::first_word(mask, filter),
        }
    }
}

/// Advances one word-walk step: returns the next set bit index, refilling
/// `current` from `mask & filter` word by word.
#[inline]
fn next_set_index(
    mask: &[u64],
    filter: Option<&[u64]>,
    word_idx: &mut usize,
    current: &mut u64,
) -> Option<usize> {
    loop {
        if *current != 0 {
            let bit = current.trailing_zeros() as usize;
            *current &= *current - 1; // clear lowest set bit
            return Some(*word_idx * WORD_BITS + bit);
        }
        *word_idx += 1;
        if *word_idx >= mask.len() {
            return None;
        }
        *current = match filter {
            None => mask[*word_idx],
            Some(f) => mask[*word_idx] & f[*word_idx],
        };
    }
}

impl Iterator for SpecifiedEntries<'_> {
    type Item = (usize, f64);

    #[inline]
    fn next(&mut self) -> Option<(usize, f64)> {
        match &mut self.0 {
            SpecifiedRepr::Slice {
                values,
                mask,
                filter,
                word_idx,
                current,
            } => {
                let idx = next_set_index(mask, *filter, word_idx, current)?;
                Some((idx, values.get(idx)))
            }
            SpecifiedRepr::ChunkRow {
                chunk,
                local_row,
                mask,
                filter,
                word_idx,
                current,
            } => {
                let idx = next_set_index(mask, *filter, word_idx, current)?;
                Some((idx, chunk.value(*local_row, idx)))
            }
            SpecifiedRepr::Buffered(iter) => iter.next(),
        }
    }
}

impl fmt::Debug for DataMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DataMatrix {}x{} ({} specified, density {:.3})",
            self.rows,
            self.cols,
            self.specified,
            self.density()
        )?;
        let show_rows = self.rows.min(8);
        let show_cols = self.cols.min(8);
        for r in 0..show_rows {
            write!(f, "  ")?;
            for c in 0..show_cols {
                match self.get(r, c) {
                    Some(v) => write!(f, "{v:>9.3} ")?,
                    None => write!(f, "{:>9} ", "·")?,
                }
            }
            if self.cols > show_cols {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataMatrix {
        // 1  3  ·
        // ·  4  5
        DataMatrix::builder(2, 3).from_options(vec![
            Some(1.0),
            Some(3.0),
            None,
            None,
            Some(4.0),
            Some(5.0),
        ])
    }

    #[test]
    fn new_matrix_is_all_missing() {
        let m = DataMatrix::builder(3, 4).build();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.specified_count(), 0);
        assert_eq!(m.density(), 0.0);
        assert_eq!(m.get(2, 3), None);
        assert_eq!(m.storage(), ValueStorage::F64);
    }

    #[test]
    fn from_rows_is_fully_specified() {
        let m = DataMatrix::builder(2, 2).from_rows(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.specified_count(), 4);
        assert_eq!(m.density(), 1.0);
        assert_eq!(m.get(1, 0), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_rows_length_mismatch_panics() {
        let _ = DataMatrix::builder(2, 2).from_rows(vec![1.0]);
    }

    #[test]
    fn set_get_unset_roundtrip() {
        let mut m = DataMatrix::builder(2, 2).build();
        m.set(0, 1, 7.5);
        assert_eq!(m.get(0, 1), Some(7.5));
        assert_eq!(m.specified_count(), 1);
        m.set(0, 1, 8.0); // overwrite keeps count
        assert_eq!(m.specified_count(), 1);
        assert_eq!(m.unset(0, 1), Some(8.0));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.specified_count(), 0);
        assert_eq!(m.unset(0, 1), None, "unsetting a missing entry is a no-op");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn set_nan_panics() {
        let mut m = DataMatrix::builder(1, 1).build();
        m.set(0, 0, f64::NAN);
    }

    #[test]
    fn row_and_col_entries_skip_missing() {
        let m = sample();
        assert_eq!(
            m.row_entries(0).collect::<Vec<_>>(),
            vec![(0, 1.0), (1, 3.0)]
        );
        assert_eq!(
            m.row_entries(1).collect::<Vec<_>>(),
            vec![(1, 4.0), (2, 5.0)]
        );
        assert_eq!(
            m.col_entries(1).collect::<Vec<_>>(),
            vec![(0, 3.0), (1, 4.0)]
        );
        assert_eq!(m.col_entries(2).collect::<Vec<_>>(), vec![(1, 5.0)]);
    }

    #[test]
    fn entries_iterates_in_row_major_order() {
        let m = sample();
        let all: Vec<_> = m.entries().collect();
        assert_eq!(
            all,
            vec![(0, 0, 1.0), (0, 1, 3.0), (1, 1, 4.0), (1, 2, 5.0)]
        );
    }

    #[test]
    fn specified_counts_per_dimension() {
        let m = sample();
        assert_eq!(m.row_specified_count(0), 2);
        assert_eq!(m.row_specified_count(1), 2);
        assert_eq!(m.col_specified_count(0), 1);
        assert_eq!(m.col_specified_count(1), 2);
        assert_eq!(m.col_specified_count(2), 1);
    }

    #[test]
    fn submatrix_copies_values_and_holes() {
        let m = sample();
        let s = m.submatrix(&[1, 0], &[2, 1]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 2);
        assert_eq!(s.get(0, 0), Some(5.0)); // (1,2)
        assert_eq!(s.get(0, 1), Some(4.0)); // (1,1)
        assert_eq!(s.get(1, 0), None); // (0,2)
        assert_eq!(s.get(1, 1), Some(3.0)); // (0,1)
    }

    #[test]
    fn submatrix_carries_the_selected_labels() {
        let mut m = sample();
        m.set_row_labels(vec!["r0".into(), "r1".into()]);
        m.set_col_labels(vec!["c0".into(), "c1".into(), "c2".into()]);
        let s = m.submatrix(&[1, 0], &[2, 1]);
        assert_eq!(s.row_label(0), Some("r1"));
        assert_eq!(s.row_label(1), Some("r0"));
        assert_eq!(s.col_label(0), Some("c2"));
        assert_eq!(s.col_label(1), Some("c1"));
        // Round trip: re-selecting the original order restores the labels.
        let back = s.submatrix(&[1, 0], &[1, 0]);
        assert_eq!(back.row_label(0), Some("r0"));
        assert_eq!(back.col_label(0), Some("c1"));
        assert_eq!(back.col_label(1), Some("c2"));
        // An unlabelled matrix still yields an unlabelled submatrix.
        let plain = sample().submatrix(&[0], &[0]);
        assert_eq!(plain.row_label(0), None);
        assert_eq!(plain.col_label(0), None);
    }

    #[test]
    fn map_in_place_only_touches_specified() {
        let mut m = sample();
        m.map_in_place(|v| v * 2.0);
        assert_eq!(m.get(0, 0), Some(2.0));
        assert_eq!(m.get(0, 2), None);
        assert_eq!(m.specified_count(), 4);
    }

    #[test]
    fn labels_roundtrip() {
        let mut m = DataMatrix::builder(2, 2).build();
        assert_eq!(m.row_label(0), None);
        m.set_row_labels(vec!["g1".into(), "g2".into()]);
        m.set_col_labels(vec!["c1".into(), "c2".into()]);
        assert_eq!(m.row_label(1), Some("g2"));
        assert_eq!(m.col_label(0), Some("c1"));
    }

    #[test]
    fn fingerprint_tracks_content_not_labels() {
        let a = sample();
        let mut b = sample();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.set_row_labels(vec!["x".into(), "y".into()]);
        assert_eq!(a.fingerprint(), b.fingerprint(), "labels are ignored");
        b.set(0, 0, 1.0000001);
        assert_ne!(a.fingerprint(), b.fingerprint(), "values matter");
        let mut c = sample();
        c.unset(1, 2);
        assert_ne!(a.fingerprint(), c.fingerprint(), "mask matters");
        // Shape is part of the fingerprint even with identical entry sets.
        let d = DataMatrix::builder(2, 3).build();
        let e = DataMatrix::builder(3, 2).build();
        assert_ne!(d.fingerprint(), e.fingerprint());
    }

    #[test]
    fn specified_iterators_match_entry_iterators() {
        let m = sample();
        for r in 0..m.rows() {
            assert_eq!(
                m.row_specified(r).collect::<Vec<_>>(),
                m.row_entries(r).collect::<Vec<_>>(),
                "row {r}"
            );
        }
        for c in 0..m.cols() {
            assert_eq!(
                m.col_specified(c).collect::<Vec<_>>(),
                m.col_entries(c).collect::<Vec<_>>(),
                "col {c}"
            );
        }
    }

    #[test]
    fn specified_iterators_cross_word_boundaries() {
        // 1×130 row and 130×1 column exercise multi-word masks with holes.
        let mut wide = DataMatrix::builder(1, 130).build();
        let mut tall = DataMatrix::builder(130, 1).build();
        for i in [0usize, 5, 63, 64, 65, 127, 128, 129] {
            wide.set(0, i, i as f64);
            tall.set(i, 0, i as f64);
        }
        let expect: Vec<(usize, f64)> = [0usize, 5, 63, 64, 65, 127, 128, 129]
            .iter()
            .map(|&i| (i, i as f64))
            .collect();
        assert_eq!(wide.row_specified(0).collect::<Vec<_>>(), expect);
        assert_eq!(tall.col_specified(0).collect::<Vec<_>>(), expect);
        let filter = BitSet::from_indices(130, [5, 64, 129, 1]);
        let filtered: Vec<(usize, f64)> =
            [5usize, 64, 129].iter().map(|&i| (i, i as f64)).collect();
        assert_eq!(
            wide.row_specified_in(0, &filter).collect::<Vec<_>>(),
            filtered
        );
        assert_eq!(
            tall.col_specified_in(0, &filter).collect::<Vec<_>>(),
            filtered
        );
    }

    #[test]
    fn filtered_iterators_intersect_membership() {
        let m = sample();
        let cols = BitSet::from_indices(3, [1, 2]);
        assert_eq!(
            m.row_specified_in(0, &cols).collect::<Vec<_>>(),
            vec![(1, 3.0)]
        );
        assert_eq!(
            m.row_specified_in(1, &cols).collect::<Vec<_>>(),
            vec![(1, 4.0), (2, 5.0)]
        );
        let rows = BitSet::from_indices(2, [1]);
        assert_eq!(
            m.col_specified_in(1, &rows).collect::<Vec<_>>(),
            vec![(1, 4.0)]
        );
        assert_eq!(m.col_specified_in(0, &rows).count(), 0);
    }

    #[test]
    fn kernel_stats_match_iterator_folds() {
        let mut m = DataMatrix::builder(3, 130).build();
        for r in 0..3 {
            for c in (r..130).step_by(r + 2) {
                m.set(r, c, (r * 130 + c) as f64 * 0.5 - 40.0);
            }
        }
        let cols = BitSet::from_indices(130, (0..130).filter(|c| c % 3 != 1));
        let rows = BitSet::from_indices(3, [0, 2]);
        for r in 0..3 {
            let (sum, cnt) = m.row_stats_in(r, &cols);
            let (esum, ecnt) = m
                .row_specified_in(r, &cols)
                .fold((0.0, 0u32), |(s, c), (_, v)| (s + v, c + 1));
            assert_eq!(sum.to_bits(), esum.to_bits(), "row {r} sum");
            assert_eq!(cnt, ecnt, "row {r} count");
        }
        for c in [0usize, 63, 64, 129] {
            let (sum, cnt) = m.col_stats_in(c, &rows);
            let (esum, ecnt) = m
                .col_specified_in(c, &rows)
                .fold((0.0, 0u32), |(s, c), (_, v)| (s + v, c + 1));
            assert_eq!(sum.to_bits(), esum.to_bits(), "col {c} sum");
            assert_eq!(cnt, ecnt, "col {c} count");
        }
    }

    #[test]
    fn kernel_residue_matches_per_entry_formulation() {
        let mut m = DataMatrix::builder(2, 100).build();
        for c in 0..100 {
            if c % 7 != 3 {
                m.set(0, c, (c as f64).cos() * 10.0);
            }
            m.set(1, c, c as f64 - 50.0);
        }
        let cols = BitSet::from_indices(100, (0..100).filter(|c| c % 2 == 0));
        let col_bases: Vec<f64> = (0..100).map(|c| c as f64 * 0.01).collect();
        let (row_base, base) = (1.5, -0.25);
        for squared in [false, true] {
            for r in 0..2 {
                let got = m.row_residue_in(r, &cols, row_base, &col_bases, base, squared);
                let expect: f64 = m
                    .row_specified_in(r, &cols)
                    .map(|(c, v)| {
                        let d = v - row_base - col_bases[c] + base;
                        if squared {
                            d * d
                        } else {
                            d.abs()
                        }
                    })
                    .sum();
                assert_eq!(got.to_bits(), expect.to_bits(), "row {r} squared={squared}");
            }
        }
    }

    #[test]
    fn col_values_mirror_row_values() {
        let m = sample();
        assert_eq!(&*m.col_values(1), &[3.0, 4.0][..]);
        assert_eq!(&*m.col_values(2), &[0.0, 5.0][..], "missing cells read 0.0");
    }

    #[test]
    fn mirror_invalidated_by_mutation() {
        let mut m = sample();
        assert_eq!(m.col_specified(0).collect::<Vec<_>>(), vec![(0, 1.0)]);
        m.set(1, 0, 9.0);
        assert_eq!(
            m.col_specified(0).collect::<Vec<_>>(),
            vec![(0, 1.0), (1, 9.0)]
        );
        m.unset(0, 0);
        assert_eq!(m.col_specified(0).collect::<Vec<_>>(), vec![(1, 9.0)]);
        m.map_in_place(|v| v + 1.0);
        assert_eq!(&*m.col_values(0), &[0.0, 10.0][..]);
    }

    #[test]
    fn clone_and_serde_reset_the_mirror() {
        let m = sample();
        let _ = m.col_values(0); // force the mirror
        let mut cloned = m.clone();
        assert_eq!(cloned, m);
        cloned.set(0, 2, 7.0); // clone's cache must not alias the original
        assert_eq!(&*cloned.col_values(2), &[7.0, 5.0][..]);
        assert_eq!(&*m.col_values(2), &[0.0, 5.0][..]);
        let back = DataMatrix::from_value(&m.to_value()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.col_values(1), m.col_values(1));
    }

    #[test]
    #[should_panic(expected = "capacity does not match")]
    fn filtered_iterator_capacity_mismatch_panics() {
        let m = sample();
        let wrong = BitSet::new(4);
        let _ = m.row_specified_in(0, &wrong);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = DataMatrix::builder(2, 2).build();
        let _ = m.get(2, 0);
    }

    #[test]
    fn density_of_empty_matrix_is_one() {
        let m = DataMatrix::builder(0, 0).build();
        assert_eq!(m.density(), 1.0);
    }

    #[test]
    fn debug_renders_missing_as_dot() {
        let m = sample();
        let s = format!("{m:?}");
        assert!(s.contains('·'));
        assert!(s.contains("2x3"));
    }

    // ---- f32 storage -------------------------------------------------------

    /// An f64 value that is NOT exactly representable in f32, to prove
    /// narrowing actually happens.
    const INEXACT: f64 = 0.1;

    #[test]
    fn f32_storage_narrows_once_and_widens_exactly() {
        let mut m = DataMatrix::builder(2, 2).storage(ValueStorage::F32).build();
        assert_eq!(m.storage(), ValueStorage::F32);
        m.set(0, 0, INEXACT);
        assert_eq!(m.get(0, 0), Some(INEXACT as f32 as f64));
        assert_ne!(m.get(0, 0), Some(INEXACT), "narrowing is observable");
        // Every read path agrees on the narrowed value.
        assert_eq!(m.value_unchecked(0, 0), INEXACT as f32 as f64);
        assert_eq!(m.row_ref(0).get(0), INEXACT as f32 as f64);
        assert_eq!(m.row_values(0)[0], INEXACT as f32 as f64);
        assert_eq!(
            m.row_specified(0).collect::<Vec<_>>(),
            vec![(0, INEXACT as f32 as f64)]
        );
        assert_eq!(m.col_values(0)[0], INEXACT as f32 as f64);
    }

    #[test]
    fn with_storage_roundtrips_and_preserves_identity_of_narrowed_values() {
        let mut m = sample();
        m.set(0, 0, INEXACT);
        m.set_row_labels(vec!["a".into(), "b".into()]);
        let narrow = m.with_storage(ValueStorage::F32).unwrap();
        assert_eq!(narrow.storage(), ValueStorage::F32);
        assert_eq!(narrow.specified_count(), m.specified_count());
        assert_eq!(narrow.row_label(0), Some("a"));
        assert_eq!(narrow.get(0, 0), Some(INEXACT as f32 as f64));
        assert_eq!(narrow.get(0, 1), Some(3.0), "exact values stay exact");
        // Widening back is lossless relative to the narrowed matrix.
        let wide = narrow.with_storage(ValueStorage::F64).unwrap();
        assert_eq!(wide.storage(), ValueStorage::F64);
        assert_eq!(wide.fingerprint(), narrow.fingerprint());
        // Storage is part of identity even with identical widened values.
        assert_ne!(wide, narrow);
    }

    #[test]
    fn with_storage_rejects_f32_overflow() {
        let mut m = DataMatrix::builder(2, 3).build();
        m.set(1, 2, 1e300);
        match m.with_storage(ValueStorage::F32) {
            Err(StorageError::NotRepresentable { row, col, value }) => {
                assert_eq!((row, col), (1, 2));
                assert_eq!(value, 1e300);
            }
            other => panic!("expected NotRepresentable, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not representable in f32")]
    fn set_overflowing_f32_panics() {
        let mut m = DataMatrix::builder(1, 1).storage(ValueStorage::F32).build();
        m.set(0, 0, 1e300);
    }

    #[test]
    fn f32_matrix_fingerprints_equal_its_widened_f64_twin() {
        let mut m = DataMatrix::builder(2, 2).storage(ValueStorage::F32).build();
        m.set(0, 0, INEXACT);
        m.set(1, 1, 2.5);
        let twin = m.with_storage(ValueStorage::F64).unwrap();
        assert_eq!(m.fingerprint(), twin.fingerprint());
    }

    #[test]
    fn f32_storage_survives_serde_and_f64_keeps_the_legacy_shape() {
        let mut m = DataMatrix::builder(2, 2).storage(ValueStorage::F32).build();
        m.set(0, 1, 1.5);
        let back = DataMatrix::from_value(&m.to_value()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.storage(), ValueStorage::F32);
        // f64 matrices keep the historical plain-array encoding, so
        // pre-storage artifacts deserialize unchanged.
        let legacy = sample();
        let value = legacy.to_value();
        let fields = value.as_object().expect("object");
        let values = serde::get_field(fields, "values").unwrap();
        assert!(values.as_array().is_some(), "f64 values stay a plain array");
        let back = DataMatrix::from_value(&value).unwrap();
        assert_eq!(back, legacy);
        assert_eq!(back.storage(), ValueStorage::F64);
    }

    #[test]
    fn f32_kernels_match_f32_iterators() {
        let mut m = DataMatrix::builder(2, 70)
            .storage(ValueStorage::F32)
            .build();
        for c in 0..70 {
            if c % 3 != 1 {
                m.set(0, c, (c as f64) * 0.1 - 3.0);
                m.set(1, c, (c as f64).sin());
            }
        }
        let cols = BitSet::from_indices(70, (0..70).filter(|c| c % 2 == 0));
        let (sum, cnt) = m.row_stats_in(0, &cols);
        let (esum, ecnt) = m
            .row_specified_in(0, &cols)
            .fold((0.0, 0u32), |(s, c), (_, v)| (s + v, c + 1));
        assert_eq!(sum.to_bits(), esum.to_bits());
        assert_eq!(cnt, ecnt);
    }
}

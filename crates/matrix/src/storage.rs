//! Pluggable matrix storage backends and the [`MatrixBuilder`]
//! construction API.
//!
//! A [`crate::DataMatrix`] stores its values through one of two backends:
//!
//! * **Memory** — the original flat `Vec<f64>`/`Vec<f32>`; zero-regression
//!   default, everything resident.
//! * **Paged** — values live on disk as fixed-size row-chunk block files
//!   (`chunk-NNNNNN.dcb`, one [`crate::framing`] envelope each) plus a
//!   directory metadata file (`matrix.dcpm`) holding the shape, the
//!   specification bitmap, and labels. Blocks are decoded on demand into a
//!   bounded LRU of resident chunks, so a matrix can be mined with RSS
//!   proportional to `cache_blocks × chunk_rows × cols` instead of
//!   `rows × cols`. Only values are paged: the specification mask is 1 bit
//!   per cell (64× smaller than `f64` values) and stays resident, which is
//!   what lets the word-masked kernels skip absent blocks without touching
//!   disk.
//!
//! # Lines and bit-identity
//!
//! Reads go through [`crate::Line`]s. A row line holds its resident chunk
//! (an `Arc`, so eviction cannot pull the values away) and reads one
//! contiguous row inside it. A column line is gathered over every chunk,
//! each read once (the resident chunks first, so a cache smaller than the
//! matrix keeps what the last gather left), into one owned run in the
//! matrix's precision, every value at its own row; narrowing a widened
//! `f32` back is exact. Both then run the same word-block kernels as the
//! memory backend, which fold the selected entries in ascending index
//! order, so a paged matrix computes *bit-identical* statistics to its
//! in-memory twin for any chunk size and any cache cap. Summing per-chunk
//! partials and combining them afterwards would re-associate the additions
//! and round differently — that is the one design everything here avoids.
//!
//! # Durability and error policy
//!
//! Chunk and metadata files are written with [`crate::atomic`]
//! (write-temp → fsync → rename), so a crash never corrupts a previously
//! valid file. *Opening* a paged directory fully validates the metadata and
//! (by default, [`PagedOptions::verify_on_open`]) every chunk envelope, and
//! reports problems as typed [`PagedError`]s — a flipped bit, a truncated
//! file, or an I/O failure is an `Err`, never a panic. After a successful
//! verified open, the hot accessors stay infallible: a block that fails to
//! load *later* (external corruption or device failure mid-run) panics with
//! the offending path, because the accessor API (`row_of`, `col_of`…)
//! has no error channel by design.
//!
//! Block files are read through held-open handles, at most 64 of them
//! per matrix (the least recently used is closed beyond that), so a miss
//! on a held block is one positional read into a reused buffer. The
//! verifying open reads through the same handles. Every read still checks
//! the CRC, the header against the metadata and the exact length: a file
//! truncated or extended in place is caught at its next miss.
//!
//! Mutations (`set`, appends) land in resident chunks, which are pinned in
//! the cache (never evicted) until [`crate::DataMatrix::flush`] writes them
//! back; the metadata file is rewritten on flush, so a crash between flushes
//! rolls back to the previous consistent state. A mutation loads its chunk
//! and changes it under the cache's one lock: clones of a paged matrix share
//! the cache, and another handle's miss must not evict the chunk in between.
//! A flush closes a block's handle before it replaces the file, so the
//! matrix's next miss on that block opens the new file. A block file
//! replaced behind an open matrix by another process is not seen while its
//! handle is held. Two openers of one directory were never kept consistent:
//! the second opener's resident blocks were already stale.

use crate::atomic::atomic_write;
use crate::bitset::BitSet;
use crate::dense::{DataMatrix, Store, ValueStorage, Values, ValuesSlice};
use crate::framing::{FrameError, Reader, Writer};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const META_MAGIC: [u8; 4] = *b"DCPM";
const CHUNK_MAGIC: [u8; 4] = *b"DCPB";
const META_VERSION: u16 = 1;
const CHUNK_VERSION: u16 = 1;
const WORD_BITS: usize = 64;
/// Block files one paged matrix (and its clones) keeps open at most.
const HANDLE_CAP: usize = 64;

/// Default rows per block: 4096 rows × 100 f64 columns ≈ 3.2 MB per chunk.
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

/// File name of the paged-directory metadata envelope.
pub const META_FILE: &str = "matrix.dcpm";

/// Which backend a matrix stores its values in. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Everything resident in one flat vector (the default).
    Memory,
    /// Values in on-disk row-chunk blocks behind a bounded LRU.
    Paged,
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::Memory => "memory",
            BackendKind::Paged => "paged",
        })
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "memory" => Ok(BackendKind::Memory),
            "paged" => Ok(BackendKind::Paged),
            other => Err(format!("unknown backend {other:?} (memory|paged)")),
        }
    }
}

/// Block-cache traffic counters of a backend (all zero for memory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Block requests served from the resident cache.
    pub hits: u64,
    /// Block requests that had to decode a file from disk.
    pub misses: u64,
}

/// The read-side interface every value backend exposes, behind
/// [`crate::DataMatrix::storage_backend`]. Deliberately small: the matrix
/// itself routes data access through backend-aware handles internally; this
/// trait is the *observability* surface (what backend, what precision, how
/// much resident, how much I/O).
pub trait Storage {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;
    /// Precision of the stored values.
    fn precision(&self) -> ValueStorage;
    /// Rows per block, or `None` when the backend is a single resident
    /// block (memory).
    fn block_rows(&self) -> Option<usize>;
    /// Number of blocks currently decoded and resident.
    fn resident_blocks(&self) -> usize;
    /// Cache hit/miss counters since construction.
    fn io_stats(&self) -> IoStats;
}

/// Everything that can go wrong creating or opening a paged matrix.
#[derive(Debug)]
pub enum PagedError {
    /// An I/O failure on the named file or directory.
    Io {
        /// The file or directory being read or written.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A file failed envelope validation (bad magic, checksum, truncation).
    Frame {
        /// The offending file.
        path: PathBuf,
        /// The underlying framing error.
        source: FrameError,
    },
    /// A file decoded but its content contradicts the metadata.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What was inconsistent.
        detail: String,
    },
}

impl fmt::Display for PagedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PagedError::Io { path, source } => {
                write!(f, "i/o error on {}: {source}", path.display())
            }
            PagedError::Frame { path, source } => {
                write!(f, "invalid block file {}: {source}", path.display())
            }
            PagedError::Corrupt { path, detail } => {
                write!(f, "corrupt paged matrix ({}): {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for PagedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PagedError::Io { source, .. } => Some(source),
            PagedError::Frame { source, .. } => Some(source),
            PagedError::Corrupt { .. } => None,
        }
    }
}

fn io_err(path: &Path, source: std::io::Error) -> PagedError {
    PagedError::Io {
        path: path.to_path_buf(),
        source,
    }
}

fn corrupt(path: &Path, detail: impl Into<String>) -> PagedError {
    PagedError::Corrupt {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

/// Tuning knobs for opening or creating a paged matrix.
#[derive(Debug, Clone)]
pub struct PagedOptions {
    /// Rows per block file ([`DEFAULT_CHUNK_ROWS`] by default, minimum 1).
    pub chunk_rows: usize,
    /// Resident-block cap: `None` = unbounded, `Some(0)` is treated as 1.
    pub cache_blocks: Option<usize>,
    /// Validate every chunk envelope (CRC, header consistency) at open time
    /// (default `true`). Turning this off makes opening O(metadata), a
    /// fast cold start, at the cost of surfacing block corruption as a
    /// panic on first touch instead of a typed error up front.
    pub verify_on_open: bool,
}

impl Default for PagedOptions {
    fn default() -> Self {
        PagedOptions {
            chunk_rows: DEFAULT_CHUNK_ROWS,
            cache_blocks: None,
            verify_on_open: true,
        }
    }
}

impl PagedOptions {
    fn normalized_cap(&self) -> Option<usize> {
        self.cache_blocks.map(|c| c.max(1))
    }
}

fn meta_path(dir: &Path) -> PathBuf {
    dir.join(META_FILE)
}

fn chunk_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("chunk-{index:06}.dcb"))
}

fn storage_tag(s: ValueStorage) -> u8 {
    match s {
        ValueStorage::F64 => 0,
        ValueStorage::F32 => 1,
    }
}

fn storage_from_tag(tag: u8) -> Result<ValueStorage, String> {
    match tag {
        0 => Ok(ValueStorage::F64),
        1 => Ok(ValueStorage::F32),
        other => Err(format!("unknown storage tag {other}")),
    }
}

// ---- chunks ----------------------------------------------------------------

/// One resident block: rows `[start_row, start_row + n_rows)` of the matrix,
/// row-major.
#[derive(Debug, Clone)]
pub(crate) struct Chunk {
    index: usize,
    start_row: usize,
    n_rows: usize,
    cols: usize,
    /// Row-major values, `n_rows * cols`, zeros at unspecified cells.
    values: Values,
}

impl Chunk {
    /// The row-major values of local row `local_r`.
    pub(crate) fn row_slice(&self, local_r: usize) -> ValuesSlice<'_> {
        debug_assert!(local_r < self.n_rows);
        self.values
            .slice(local_r * self.cols, (local_r + 1) * self.cols)
    }

    #[inline]
    pub(crate) fn value(&self, local_r: usize, col: usize) -> f64 {
        debug_assert!(local_r < self.n_rows && col < self.cols);
        self.values.get(local_r * self.cols + col)
    }
}

fn encode_chunk(index: usize, start_row: usize, n_rows: usize, values: &Values) -> Vec<u8> {
    let mut w = Writer::begin(CHUNK_MAGIC, CHUNK_VERSION);
    w.u64(index as u64);
    w.u64(start_row as u64);
    w.u64(n_rows as u64);
    w.u8(storage_tag(values.storage()));
    match values {
        Values::F64(v) => {
            for &x in v {
                w.f64(x);
            }
        }
        Values::F32(v) => {
            for &x in v {
                w.f32(x);
            }
        }
    }
    w.finish()
}

struct ChunkExpect {
    index: usize,
    start_row: usize,
    n_rows: usize,
    cols: usize,
    storage: ValueStorage,
}

impl ChunkExpect {
    /// Length of the valid block file: the 8-byte envelope header, the
    /// 25-byte chunk header (index, start row, rows, storage tag), the
    /// values and the 4-byte CRC trailer. Saturates on absurd shapes,
    /// which the decode then rejects.
    fn file_len(&self) -> usize {
        let width = match self.storage {
            ValueStorage::F64 => 8,
            ValueStorage::F32 => 4,
        };
        self.n_rows
            .saturating_mul(self.cols)
            .saturating_mul(width)
            .saturating_add(8 + 25 + 4)
    }
}

/// Decodes block file bytes read from `dir`, checking them against the
/// metadata. The block's path is only built to report an error.
fn decode_chunk(bytes: &[u8], dir: &Path, expect: &ChunkExpect) -> Result<Chunk, PagedError> {
    let path = || chunk_path(dir, expect.index);
    let frame = |source| PagedError::Frame {
        path: path(),
        source,
    };
    let mut r = Reader::open(bytes, CHUNK_MAGIC, CHUNK_VERSION).map_err(frame)?;
    let index = r.u64().map_err(frame)? as usize;
    let start_row = r.u64().map_err(frame)? as usize;
    let n_rows = r.u64().map_err(frame)? as usize;
    let storage = storage_from_tag(r.u8().map_err(frame)?).map_err(|d| corrupt(&path(), d))?;
    if index != expect.index || start_row != expect.start_row || n_rows != expect.n_rows {
        return Err(corrupt(
            &path(),
            format!(
                "chunk header (index {index}, rows {start_row}+{n_rows}) does not match \
                 metadata (index {}, rows {}+{})",
                expect.index, expect.start_row, expect.n_rows
            ),
        ));
    }
    if storage != expect.storage {
        return Err(corrupt(
            &path(),
            "chunk storage precision differs from metadata",
        ));
    }
    let width = match storage {
        ValueStorage::F64 => 8,
        ValueStorage::F32 => 4,
    };
    let payload_len = n_rows
        .checked_mul(expect.cols)
        .and_then(|n| n.checked_mul(width))
        .ok_or_else(|| corrupt(&path(), "chunk dimensions overflow"))?;
    let payload = r.take(payload_len).map_err(frame)?;
    let values = match storage {
        ValueStorage::F64 => Values::F64(
            payload
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("chunks_exact(8)")))
                .collect(),
        ),
        ValueStorage::F32 => Values::F32(
            payload
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().expect("chunks_exact(4)")))
                .collect(),
        ),
    };
    r.expect_end().map_err(frame)?;
    Ok(Chunk {
        index,
        start_row,
        n_rows,
        cols: expect.cols,
        values,
    })
}

// ---- metadata --------------------------------------------------------------

struct Meta {
    rows: usize,
    cols: usize,
    storage: ValueStorage,
    chunk_rows: usize,
    specified: usize,
    mask: BitSet,
    row_labels: Option<Vec<String>>,
    col_labels: Option<Vec<String>>,
}

fn encode_meta(meta: &Meta) -> Vec<u8> {
    let mut w = Writer::begin(META_MAGIC, META_VERSION);
    w.u64(meta.rows as u64);
    w.u64(meta.cols as u64);
    w.u8(storage_tag(meta.storage));
    w.u64(meta.chunk_rows as u64);
    w.u64(meta.specified as u64);
    let words = meta.mask.words();
    w.u64(words.len() as u64);
    for &word in words {
        w.u64(word);
    }
    let flags = u8::from(meta.row_labels.is_some()) | (u8::from(meta.col_labels.is_some()) << 1);
    w.u8(flags);
    if let Some(labels) = &meta.row_labels {
        for l in labels {
            w.str(l);
        }
    }
    if let Some(labels) = &meta.col_labels {
        for l in labels {
            w.str(l);
        }
    }
    w.finish()
}

fn decode_meta(bytes: &[u8], path: &Path) -> Result<Meta, PagedError> {
    let mut r =
        Reader::open(bytes, META_MAGIC, META_VERSION).map_err(|source| PagedError::Frame {
            path: path.to_path_buf(),
            source,
        })?;
    let frame = |source| PagedError::Frame {
        path: path.to_path_buf(),
        source,
    };
    let rows = r.u64().map_err(frame)? as usize;
    let cols = r.u64().map_err(frame)? as usize;
    let storage = storage_from_tag(r.u8().map_err(frame)?).map_err(|d| corrupt(path, d))?;
    let chunk_rows = r.u64().map_err(frame)? as usize;
    if chunk_rows == 0 {
        return Err(corrupt(path, "chunk_rows must be at least 1"));
    }
    let cells = rows
        .checked_mul(cols)
        .ok_or_else(|| corrupt(path, "matrix dimensions overflow"))?;
    let specified = r.u64().map_err(frame)? as usize;
    let n_words = r
        .count("mask words", cells.div_ceil(WORD_BITS))
        .map_err(frame)?;
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        words.push(r.u64().map_err(frame)?);
    }
    let mask = BitSet::from_raw_parts(cells, words).map_err(|detail| corrupt(path, detail))?;
    if mask.len() != specified {
        return Err(corrupt(
            path,
            format!(
                "mask popcount {} does not match specified count {specified}",
                mask.len()
            ),
        ));
    }
    let flags = r.u8().map_err(frame)?;
    let mut read_labels = |n: usize| -> Result<Vec<String>, PagedError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(r.str().map_err(frame)?);
        }
        Ok(out)
    };
    let row_labels = if flags & 1 != 0 {
        Some(read_labels(rows)?)
    } else {
        None
    };
    let col_labels = if flags & 2 != 0 {
        Some(read_labels(cols)?)
    } else {
        None
    };
    r.expect_end().map_err(frame)?;
    Ok(Meta {
        rows,
        cols,
        storage,
        chunk_rows,
        specified,
        mask,
        row_labels,
        col_labels,
    })
}

// ---- the paged store -------------------------------------------------------

struct Cache {
    resident: HashMap<usize, Arc<Chunk>>,
    /// LRU order, least-recently-used first.
    lru: Vec<usize>,
    /// Mutated chunks not yet written back; pinned against eviction.
    dirty: HashSet<usize>,
    cap: Option<usize>,
    hits: u64,
    misses: u64,
    /// Open block files, least-recently-used first, at most [`HANDLE_CAP`].
    files: Vec<(usize, File)>,
    /// The bytes of the last block read, reused by the next.
    buf: Vec<u8>,
}

impl Cache {
    /// Reads and validates the block `expect` describes from `dir`. A held
    /// block file costs one positional read; any other is opened and held,
    /// closing the least recently used file beyond [`HANDLE_CAP`].
    fn read_chunk(&mut self, dir: &Path, expect: &ChunkExpect) -> Result<Chunk, PagedError> {
        let index = expect.index;
        match self.files.iter().position(|&(i, _)| i == index) {
            Some(pos) => {
                let held = self.files.remove(pos);
                self.files.push(held);
            }
            None => {
                let path = chunk_path(dir, index);
                let file = File::open(&path).map_err(|e| io_err(&path, e))?;
                if self.files.len() == HANDLE_CAP {
                    self.files.remove(0);
                }
                self.files.push((index, file));
            }
        }
        let (_, file) = self.files.last().expect("the block's file was just pushed");
        read_file(file, expect.file_len(), &mut self.buf)
            .map_err(|e| io_err(&chunk_path(dir, index), e))?;
        decode_chunk(&self.buf, dir, expect)
    }

    /// Closes block `index`'s file if it is held, so the next read opens
    /// whatever file is then at its path.
    fn close_file(&mut self, index: usize) {
        self.files.retain(|&(i, _)| i != index);
    }

    fn touch(&mut self, index: usize) {
        if let Some(pos) = self.lru.iter().position(|&i| i == index) {
            self.lru.remove(pos);
        }
        self.lru.push(index);
    }

    /// Drops least-recently-used *clean* chunks until within the cap.
    /// Dirty chunks are pinned — they hold un-persisted data.
    fn enforce_cap(&mut self) {
        let Some(cap) = self.cap else { return };
        while self.resident.len() > cap {
            let Some(pos) = self.lru.iter().position(|i| !self.dirty.contains(i)) else {
                return; // everything is dirty; allow the overflow until flush
            };
            let victim = self.lru.remove(pos);
            self.resident.remove(&victim);
        }
    }
}

/// The file-backed paged value store. Cloning shares the block cache (and
/// any unflushed dirty blocks) — a clone is a second handle onto the same
/// on-disk matrix, not an independent copy.
#[derive(Clone)]
pub(crate) struct PagedStore {
    shared: Arc<Shared>,
    rows: usize,
    cols: usize,
    storage: ValueStorage,
    chunk_rows: usize,
}

struct Shared {
    dir: PathBuf,
    cache: Mutex<Cache>,
}

impl fmt::Debug for PagedStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PagedStore({}, {}x{}, chunk_rows {})",
            self.shared.dir.display(),
            self.rows,
            self.cols,
            self.chunk_rows
        )
    }
}

impl PagedStore {
    fn new(dir: PathBuf, meta: &Meta, opts: &PagedOptions) -> PagedStore {
        PagedStore {
            shared: Arc::new(Shared {
                dir,
                cache: Mutex::new(Cache {
                    resident: HashMap::new(),
                    lru: Vec::new(),
                    dirty: HashSet::new(),
                    cap: opts.normalized_cap(),
                    hits: 0,
                    misses: 0,
                    files: Vec::new(),
                    buf: Vec::new(),
                }),
            }),
            rows: meta.rows,
            cols: meta.cols,
            storage: meta.storage,
            chunk_rows: meta.chunk_rows,
        }
    }

    pub(crate) fn dir(&self) -> &Path {
        &self.shared.dir
    }

    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    pub(crate) fn precision(&self) -> ValueStorage {
        self.storage
    }

    pub(crate) fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    pub(crate) fn n_chunks(&self) -> usize {
        self.rows.div_ceil(self.chunk_rows)
    }

    /// `(start_row, n_rows)` of chunk `index`.
    pub(crate) fn chunk_span(&self, index: usize) -> (usize, usize) {
        let start = index * self.chunk_rows;
        (start, self.chunk_rows.min(self.rows - start))
    }

    fn expect_for(&self, index: usize) -> ChunkExpect {
        let (start_row, n_rows) = self.chunk_span(index);
        ChunkExpect {
            index,
            start_row,
            n_rows,
            cols: self.cols,
            storage: self.storage,
        }
    }

    /// Makes chunk `index` resident in the locked `cache`, counting the hit
    /// or miss and marking it most recently used, without enforcing the
    /// cap. Callers that mutate the chunk do so under the same lock, so no
    /// other handle's miss can evict it in between.
    ///
    /// # Panics
    /// Panics if the block file fails to read or validate — see the module
    /// docs for the post-open error policy.
    fn load<'c>(&self, cache: &'c mut Cache, index: usize) -> &'c mut Arc<Chunk> {
        debug_assert!(index < self.n_chunks());
        if cache.resident.contains_key(&index) {
            cache.hits += 1;
        } else {
            cache.misses += 1;
            let chunk = cache
                .read_chunk(&self.shared.dir, &self.expect_for(index))
                .unwrap_or_else(|e| panic!("paged matrix block became unreadable after open: {e}"));
            cache.resident.insert(index, Arc::new(chunk));
        }
        cache.touch(index);
        cache.resident.get_mut(&index).expect("chunk is resident")
    }

    /// Loads chunk `index` through the LRU cache.
    pub(crate) fn chunk(&self, index: usize) -> Arc<Chunk> {
        let mut cache = self.shared.cache.lock().expect("block cache poisoned");
        let chunk = self.load(&mut cache, index).clone();
        cache.enforce_cap();
        chunk
    }

    /// The chunk containing `row`, plus the row's chunk-local index.
    pub(crate) fn row_chunk(&self, row: usize) -> (Arc<Chunk>, usize) {
        debug_assert!(row < self.rows);
        (self.chunk(row / self.chunk_rows), row % self.chunk_rows)
    }

    /// Column `col` over every row, in native precision. Each block is read
    /// once: the blocks already resident first, then the rest in ascending
    /// order. Reading in plain ascending order through an LRU smaller than
    /// the matrix would evict every block before the next gather reached
    /// it; this way a gather starts with the blocks the previous one left.
    /// Each value lands at its own row, so the order never shows.
    pub(crate) fn gather_col(&self, col: usize) -> Values {
        let mut order: Vec<usize> = (0..self.n_chunks()).collect();
        {
            let cache = self.shared.cache.lock().expect("block cache poisoned");
            // Stable, so each group keeps ascending order.
            order.sort_by_key(|index| !cache.resident.contains_key(index));
        }
        let mut out = Values::zeroed(self.storage, self.rows);
        for index in order {
            let chunk = self.chunk(index);
            let (start, n_rows) = self.chunk_span(index);
            for local in 0..n_rows {
                // Narrowing a widened f32 back is exact.
                out.set(start + local, chunk.value(local, col));
            }
        }
        out
    }

    /// Value at flat cell index `idx` (row-major), 0.0 at unspecified cells.
    pub(crate) fn get(&self, idx: usize) -> f64 {
        let (chunk, local) = self.row_chunk(idx / self.cols);
        chunk.value(local, idx % self.cols)
    }

    /// Overwrites the value at flat index `idx` in the resident block,
    /// marking the block dirty (pinned until flush). Loading and mutating
    /// happen under one lock.
    pub(crate) fn set(&self, idx: usize, value: f64) {
        let row = idx / self.cols;
        let col = idx % self.cols;
        let index = row / self.chunk_rows;
        let local = row % self.chunk_rows;
        let mut cache = self.shared.cache.lock().expect("block cache poisoned");
        let chunk = Arc::make_mut(self.load(&mut cache, index));
        chunk.values.set(local * chunk.cols + col, value);
        cache.dirty.insert(index);
        cache.enforce_cap();
    }

    /// Appends one row of values (`row.len() == cols`, `None` = missing,
    /// already validated by the caller). The row lands in the tail block —
    /// extending it in place, or opening a fresh block when the tail is
    /// full. The new data is dirty until the next flush.
    pub(crate) fn append_row(&mut self, row: &[Option<f64>]) {
        debug_assert_eq!(row.len(), self.cols);
        let r = self.rows;
        let index = r / self.chunk_rows;
        let local = r % self.chunk_rows;
        let mut cache = self.shared.cache.lock().unwrap();
        if local == 0 {
            let mut values = Values::zeroed(self.storage, 0);
            for v in row {
                values.push(v.unwrap_or(0.0));
            }
            let chunk = Chunk {
                index,
                start_row: r,
                n_rows: 1,
                cols: self.cols,
                values,
            };
            cache.resident.insert(index, Arc::new(chunk));
            cache.touch(index);
        } else {
            let chunk = Arc::make_mut(self.load(&mut cache, index));
            debug_assert_eq!(chunk.n_rows, local);
            for v in row {
                chunk.values.push(v.unwrap_or(0.0));
            }
            chunk.n_rows += 1;
        }
        cache.dirty.insert(index);
        cache.enforce_cap();
        drop(cache);
        self.rows += 1;
    }

    /// Writes every dirty block and the metadata envelope, then re-applies
    /// the cache cap. The metadata is written last: a crash mid-flush leaves
    /// the directory describing the previous consistent matrix.
    pub(crate) fn flush(&self, meta_of: &DataMatrix) -> Result<(), PagedError> {
        let mut cache = self.shared.cache.lock().unwrap();
        let mut dirty: Vec<usize> = cache.dirty.iter().copied().collect();
        dirty.sort_unstable();
        for index in dirty {
            // A held handle would keep reading the replaced file.
            cache.close_file(index);
            let chunk = cache
                .resident
                .get(&index)
                .expect("dirty chunks are resident");
            let path = chunk_path(&self.shared.dir, index);
            let bytes = encode_chunk(chunk.index, chunk.start_row, chunk.n_rows, &chunk.values);
            atomic_write(&path, &bytes).map_err(|e| io_err(&path, e))?;
        }
        cache.dirty.clear();
        cache.enforce_cap();
        drop(cache);
        let meta = Meta {
            rows: self.rows,
            cols: self.cols,
            storage: self.storage,
            chunk_rows: self.chunk_rows,
            specified: meta_of.specified_count(),
            mask: meta_of.mask_clone(),
            row_labels: meta_of.row_labels_clone(),
            col_labels: meta_of.col_labels_clone(),
        };
        let path = meta_path(&self.shared.dir);
        atomic_write(&path, &encode_meta(&meta)).map_err(|e| io_err(&path, e))
    }

    /// Materializes every value into one resident [`Values`] vector
    /// (row-major) — the bridge to serde and storage conversion.
    pub(crate) fn materialize(&self) -> Values {
        let mut out = Values::zeroed(self.storage, 0);
        for index in 0..self.n_chunks() {
            let chunk = self.chunk(index);
            for local in 0..chunk.n_rows {
                let slice = chunk.row_slice(local);
                for c in 0..slice.len() {
                    out.push(slice.get(c));
                }
            }
        }
        out
    }

    pub(crate) fn resident_blocks(&self) -> usize {
        self.shared.cache.lock().unwrap().resident.len()
    }

    pub(crate) fn io_stats(&self) -> IoStats {
        let cache = self.shared.cache.lock().unwrap();
        IoStats {
            hits: cache.hits,
            misses: cache.misses,
        }
    }

    /// Block files currently held open.
    #[cfg(test)]
    pub(crate) fn open_files(&self) -> usize {
        self.shared.cache.lock().unwrap().files.len()
    }
}

/// Reads block file `file`, `len` bytes long when valid, into `buf`: one
/// positional read of `len + 1` bytes, which a valid file fills to exactly
/// `len`. Any other outcome (a short, grown or failed read) reads the whole
/// file instead, so the decode reports what the file holds.
fn read_file(mut file: &File, len: usize, buf: &mut Vec<u8>) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    // Only growth past the last block read is zero-filled.
    buf.resize(len.saturating_add(1), 0);
    if let Ok(n) = read_head(file, buf) {
        if n == len {
            buf.truncate(len);
            return Ok(());
        }
    }
    buf.clear();
    file.seek(SeekFrom::Start(0))?;
    file.read_to_end(buf).map(drop)
}

/// One read from the start of `file`.
#[cfg(unix)]
fn read_head(file: &File, buf: &mut [u8]) -> io::Result<usize> {
    std::os::unix::fs::FileExt::read_at(file, buf, 0)
}

#[cfg(windows)]
fn read_head(file: &File, buf: &mut [u8]) -> io::Result<usize> {
    std::os::windows::fs::FileExt::seek_read(file, buf, 0)
}

#[cfg(not(any(unix, windows)))]
fn read_head(mut file: &File, buf: &mut [u8]) -> io::Result<usize> {
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::Start(0))?;
    file.read(buf)
}

/// Parts of an opened paged directory, consumed by
/// [`crate::DataMatrix::open_paged`].
pub(crate) struct OpenedPaged {
    pub(crate) store: PagedStore,
    pub(crate) mask: BitSet,
    pub(crate) specified: usize,
    pub(crate) row_labels: Option<Vec<String>>,
    pub(crate) col_labels: Option<Vec<String>>,
}

/// Opens `dir`, validating metadata (and, per `opts.verify_on_open`, every
/// block envelope) with typed errors.
pub(crate) fn open_paged_dir(dir: &Path, opts: &PagedOptions) -> Result<OpenedPaged, PagedError> {
    let mpath = meta_path(dir);
    let bytes = std::fs::read(&mpath).map_err(|e| io_err(&mpath, e))?;
    let meta = decode_meta(&bytes, &mpath)?;
    let store = PagedStore::new(dir.to_path_buf(), &meta, opts);
    if opts.verify_on_open {
        let mut cache = store.shared.cache.lock().expect("block cache poisoned");
        for index in 0..store.n_chunks() {
            // Decode fully (CRC + header + exact payload length) and drop;
            // the cache starts cold either way, its block files open.
            cache.read_chunk(dir, &store.expect_for(index))?;
        }
    }
    Ok(OpenedPaged {
        store,
        mask: meta.mask,
        specified: meta.specified,
        row_labels: meta.row_labels,
        col_labels: meta.col_labels,
    })
}

// ---- builders --------------------------------------------------------------

/// The single entry point for constructing a [`DataMatrix`]: dimensions,
/// then precision/labels, then either an in-memory finisher (`build`,
/// `from_rows`, `from_options`) or [`MatrixBuilder::paged`] to target a
/// file-backed directory.
///
/// ```
/// use dc_matrix::{MatrixBuilder, ValueStorage};
///
/// let m = MatrixBuilder::dense(2, 3)
///     .storage(ValueStorage::F32)
///     .from_rows(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// assert_eq!(m.get(1, 2), Some(6.0));
/// ```
#[derive(Debug, Clone)]
pub struct MatrixBuilder {
    rows: usize,
    cols: usize,
    storage: ValueStorage,
    row_labels: Option<Vec<String>>,
    col_labels: Option<Vec<String>>,
}

impl MatrixBuilder {
    /// Starts a builder for an `rows × cols` matrix (default `f64` storage,
    /// memory backend).
    pub fn dense(rows: usize, cols: usize) -> MatrixBuilder {
        MatrixBuilder {
            rows,
            cols,
            storage: ValueStorage::F64,
            row_labels: None,
            col_labels: None,
        }
    }

    /// Selects the value precision ([`ValueStorage::F64`] by default).
    pub fn storage(mut self, storage: ValueStorage) -> MatrixBuilder {
        self.storage = storage;
        self
    }

    /// Attaches row labels (length must equal `rows` at finish time).
    pub fn row_labels(mut self, labels: Vec<String>) -> MatrixBuilder {
        self.row_labels = Some(labels);
        self
    }

    /// Attaches column labels (length must equal `cols` at finish time).
    pub fn col_labels(mut self, labels: Vec<String>) -> MatrixBuilder {
        self.col_labels = Some(labels);
        self
    }

    /// Switches to the file-backed paged backend rooted at `dir`.
    pub fn paged(self, dir: impl Into<PathBuf>) -> PagedMatrixBuilder {
        PagedMatrixBuilder {
            inner: self,
            dir: dir.into(),
            opts: PagedOptions::default(),
        }
    }

    fn finish_labels(self, mut m: DataMatrix) -> DataMatrix {
        if let Some(l) = self.row_labels {
            m.set_row_labels(l);
        }
        if let Some(l) = self.col_labels {
            m.set_col_labels(l);
        }
        m
    }

    /// Finishes with every entry missing.
    pub fn build(self) -> DataMatrix {
        let m = DataMatrix::memory_empty(self.rows, self.cols, self.storage);
        self.finish_labels(m)
    }

    /// Finishes fully specified from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`, or under `f32` storage if a
    /// value is not representable.
    pub fn from_rows(self, data: Vec<f64>) -> DataMatrix {
        let m = DataMatrix::memory_from_rows(self.rows, self.cols, data, self.storage);
        self.finish_labels(m)
    }

    /// Finishes from row-major optional data (`None` = missing).
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`, if a value is non-finite, or
    /// under `f32` storage if a value is not representable.
    pub fn from_options(self, data: Vec<Option<f64>>) -> DataMatrix {
        let m = DataMatrix::memory_from_options(self.rows, self.cols, data, self.storage);
        self.finish_labels(m)
    }
}

/// A [`MatrixBuilder`] targeting the paged backend. All finishers are
/// fallible — they create files under the directory.
#[derive(Debug, Clone)]
pub struct PagedMatrixBuilder {
    inner: MatrixBuilder,
    dir: PathBuf,
    opts: PagedOptions,
}

impl PagedMatrixBuilder {
    /// Rows per block file (default [`DEFAULT_CHUNK_ROWS`]; clamped ≥ 1).
    pub fn chunk_rows(mut self, chunk_rows: usize) -> PagedMatrixBuilder {
        self.opts.chunk_rows = chunk_rows.max(1);
        self
    }

    /// Caps resident blocks (`None` = unbounded).
    pub fn cache_blocks(mut self, cap: Option<usize>) -> PagedMatrixBuilder {
        self.opts.cache_blocks = cap;
        self
    }

    /// Starts a streaming appender: rows are written block by block, so
    /// building an N-row matrix needs `O(chunk_rows × cols)` memory plus the
    /// 1-bit-per-cell specification mask — never the full value array.
    ///
    /// The `rows` passed to [`MatrixBuilder::dense`] is ignored; the matrix
    /// is as tall as the number of appended rows.
    ///
    /// # Errors
    /// [`PagedError`] if the directory cannot be created.
    pub fn appender(self) -> Result<PagedAppender, PagedError> {
        std::fs::create_dir_all(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        Ok(PagedAppender {
            dir: self.dir,
            cols: self.inner.cols,
            storage: self.inner.storage,
            opts: self.opts,
            rows: 0,
            tail: Values::zeroed(self.inner.storage, 0),
            tail_rows: 0,
            mask_words: Vec::new(),
            specified: 0,
            row_labels: self.inner.row_labels,
            col_labels: self.inner.col_labels,
        })
    }

    /// Finishes with every entry missing (writes metadata only — an
    /// all-missing matrix has zero-valued blocks created lazily... no: all
    /// blocks are written explicitly so the directory is self-contained).
    ///
    /// # Errors
    /// [`PagedError`] on any file creation failure.
    pub fn create(self) -> Result<DataMatrix, PagedError> {
        let rows = self.inner.rows;
        let cols = self.inner.cols;
        let mut appender = self.appender()?;
        let blank = vec![None; cols];
        for _ in 0..rows {
            appender.append_row(&blank)?;
        }
        appender.finish()
    }

    /// Finishes fully specified from row-major data, streamed to blocks.
    ///
    /// # Errors / Panics
    /// [`PagedError`] on file failures; panics on a length mismatch, like
    /// the in-memory finisher.
    pub fn from_rows(self, data: Vec<f64>) -> Result<DataMatrix, PagedError> {
        let (rows, cols) = (self.inner.rows, self.inner.cols);
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        let mut appender = self.appender()?;
        for r in 0..rows {
            appender.append_dense_row(&data[r * cols..(r + 1) * cols])?;
        }
        appender.finish()
    }

    /// Finishes from row-major optional data, streamed to blocks.
    ///
    /// # Errors / Panics
    /// [`PagedError`] on file failures; panics on a length mismatch or
    /// non-finite value, like the in-memory finisher.
    pub fn from_options(self, data: Vec<Option<f64>>) -> Result<DataMatrix, PagedError> {
        let (rows, cols) = (self.inner.rows, self.inner.cols);
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        let mut appender = self.appender()?;
        for r in 0..rows {
            appender.append_row(&data[r * cols..(r + 1) * cols])?;
        }
        appender.finish()
    }
}

/// Streaming row-by-row writer for a paged matrix; see
/// [`PagedMatrixBuilder::appender`]. Completed blocks are written (and their
/// memory released) as soon as they fill.
pub struct PagedAppender {
    dir: PathBuf,
    cols: usize,
    storage: ValueStorage,
    opts: PagedOptions,
    rows: usize,
    tail: Values,
    tail_rows: usize,
    mask_words: Vec<u64>,
    specified: usize,
    row_labels: Option<Vec<String>>,
    col_labels: Option<Vec<String>>,
}

impl PagedAppender {
    /// Rows appended so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Appends one row (`None` = missing).
    ///
    /// # Errors / Panics
    /// [`PagedError`] if a completed block fails to write. Panics if
    /// `row.len() != cols`, if a value is non-finite, or (under `f32`
    /// storage) not representable — the same contract as
    /// [`DataMatrix::set`].
    pub fn append_row(&mut self, row: &[Option<f64>]) -> Result<(), PagedError> {
        assert_eq!(row.len(), self.cols, "row length does not match cols");
        for (c, v) in row.iter().enumerate() {
            match v {
                None => self.tail.push(0.0),
                Some(x) => {
                    assert!(x.is_finite(), "matrix values must be finite, got {x}");
                    if self.storage == ValueStorage::F32 {
                        assert!(
                            (*x as f32).is_finite(),
                            "value {x} is not representable in f32 storage"
                        );
                    }
                    self.tail.push(*x);
                    let bit = self.rows * self.cols + c;
                    let w = bit / WORD_BITS;
                    if w >= self.mask_words.len() {
                        self.mask_words.resize(w + 1, 0);
                    }
                    self.mask_words[w] |= 1u64 << (bit % WORD_BITS);
                    self.specified += 1;
                }
            }
        }
        self.rows += 1;
        self.tail_rows += 1;
        if self.tail_rows == self.opts.chunk_rows {
            self.write_tail()?;
        }
        Ok(())
    }

    /// Appends one fully specified row.
    pub fn append_dense_row(&mut self, row: &[f64]) -> Result<(), PagedError> {
        assert_eq!(row.len(), self.cols, "row length does not match cols");
        for (c, x) in row.iter().enumerate() {
            if self.storage == ValueStorage::F32 {
                assert!(
                    (*x as f32).is_finite(),
                    "value {x} is not representable in f32 storage"
                );
            }
            self.tail.push(*x);
            let bit = self.rows * self.cols + c;
            let w = bit / WORD_BITS;
            if w >= self.mask_words.len() {
                self.mask_words.resize(w + 1, 0);
            }
            self.mask_words[w] |= 1u64 << (bit % WORD_BITS);
            self.specified += 1;
        }
        self.rows += 1;
        self.tail_rows += 1;
        if self.tail_rows == self.opts.chunk_rows {
            self.write_tail()?;
        }
        Ok(())
    }

    fn write_tail(&mut self) -> Result<(), PagedError> {
        if self.tail_rows == 0 {
            return Ok(());
        }
        let index = (self.rows - self.tail_rows) / self.opts.chunk_rows;
        let start_row = index * self.opts.chunk_rows;
        let path = chunk_path(&self.dir, index);
        let bytes = encode_chunk(index, start_row, self.tail_rows, &self.tail);
        atomic_write(&path, &bytes).map_err(|e| io_err(&path, e))?;
        self.tail = Values::zeroed(self.storage, 0);
        self.tail_rows = 0;
        Ok(())
    }

    /// Writes the final partial block and the metadata envelope, and returns
    /// the opened paged matrix (cold cache, no re-verification — the bytes
    /// were just written).
    ///
    /// # Errors / Panics
    /// [`PagedError`] on write failure. Panics if labels were attached with
    /// a length that does not match the final dimensions.
    pub fn finish(mut self) -> Result<DataMatrix, PagedError> {
        self.write_tail()?;
        let cells = self.rows * self.cols;
        self.mask_words.resize(cells.div_ceil(WORD_BITS), 0);
        let mask = BitSet::from_raw_parts(cells, std::mem::take(&mut self.mask_words))
            .expect("appender maintains a consistent mask");
        if let Some(l) = &self.row_labels {
            assert_eq!(l.len(), self.rows, "row label count mismatch");
        }
        if let Some(l) = &self.col_labels {
            assert_eq!(l.len(), self.cols, "col label count mismatch");
        }
        let meta = Meta {
            rows: self.rows,
            cols: self.cols,
            storage: self.storage,
            chunk_rows: self.opts.chunk_rows,
            specified: self.specified,
            mask,
            row_labels: self.row_labels,
            col_labels: self.col_labels,
        };
        let path = meta_path(&self.dir);
        atomic_write(&path, &encode_meta(&meta)).map_err(|e| io_err(&path, e))?;
        let store = PagedStore::new(self.dir, &meta, &self.opts);
        Ok(DataMatrix::assemble(
            meta.rows,
            meta.cols,
            Store::Paged(store),
            meta.mask,
            meta.specified,
            meta.row_labels,
            meta.col_labels,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dc-matrix-storage-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn paged_roundtrip_matches_memory_twin() {
        let dir = scratch("roundtrip");
        let data: Vec<Option<f64>> = (0..200)
            .map(|i| {
                if i % 7 == 3 {
                    None
                } else {
                    Some(i as f64 * 0.25 - 10.0)
                }
            })
            .collect();
        let mem = MatrixBuilder::dense(20, 10).from_options(data.clone());
        let paged = MatrixBuilder::dense(20, 10)
            .paged(&dir)
            .chunk_rows(7)
            .from_options(data)
            .unwrap();
        assert_eq!(paged.backend(), BackendKind::Paged);
        assert_eq!(paged.fingerprint(), mem.fingerprint());
        assert_eq!(paged, mem);

        // Re-open from disk and check again, through a bounded cache.
        let opts = PagedOptions {
            cache_blocks: Some(1),
            ..PagedOptions::default()
        };
        let reopened = DataMatrix::open_paged_with(&dir, opts).unwrap();
        assert_eq!(reopened.fingerprint(), mem.fingerprint());
        for r in 0..20 {
            for c in 0..10 {
                assert_eq!(reopened.get(r, c), mem.get(r, c), "({r},{c})");
            }
        }
        assert!(reopened.storage_backend().io_stats().misses > 0);
        assert!(reopened.storage_backend().resident_blocks() <= 1);
    }

    #[test]
    fn bounded_cache_evicts_lru_and_counts_io() {
        let dir = scratch("lru");
        let paged = MatrixBuilder::dense(64, 4)
            .paged(&dir)
            .chunk_rows(8)
            .from_rows((0..256).map(|i| i as f64).collect())
            .unwrap();
        drop(paged);
        let opts = PagedOptions {
            cache_blocks: Some(2),
            ..PagedOptions::default()
        };
        let m = DataMatrix::open_paged_with(&dir, opts).unwrap();
        // Touch rows across all 8 chunks, twice.
        for _ in 0..2 {
            for r in (0..64).step_by(8) {
                assert_eq!(m.get(r, 0), Some((r * 4) as f64));
            }
        }
        let stats = m.storage_backend().io_stats();
        assert!(m.storage_backend().resident_blocks() <= 2);
        // A 2-block cache cycling through 8 chunks must miss on every pass.
        assert!(stats.misses >= 16, "misses {}", stats.misses);
    }

    #[test]
    fn open_rejects_corruption_with_typed_errors() {
        let dir = scratch("corrupt");
        let _ = MatrixBuilder::dense(10, 3)
            .paged(&dir)
            .chunk_rows(4)
            .from_rows((0..30).map(|i| i as f64).collect())
            .unwrap();

        // Flip one byte in a chunk payload: checksum mismatch at open.
        let victim = chunk_path(&dir, 1);
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
        match DataMatrix::open_paged(&dir) {
            Err(PagedError::Frame { path, source }) => {
                assert_eq!(path, victim);
                assert!(matches!(source, FrameError::ChecksumMismatch { .. }));
            }
            other => panic!("expected Frame error, got {other:?}"),
        }

        // A block from an f32 matrix of the same shape decodes there (the
        // bulk f32 path), but its precision does not match this matrix.
        let dir32 = scratch("corrupt-f32");
        let m32 = MatrixBuilder::dense(10, 3)
            .storage(ValueStorage::F32)
            .paged(&dir32)
            .chunk_rows(4)
            .from_rows((0..30).map(|i| i as f64 * 0.5).collect())
            .unwrap();
        drop(m32);
        let back32 = DataMatrix::open_paged(&dir32).unwrap();
        assert_eq!(back32.storage(), ValueStorage::F32);
        assert_eq!(back32.get(5, 2), Some(8.5));
        std::fs::copy(chunk_path(&dir32, 1), &victim).unwrap();
        match DataMatrix::open_paged(&dir) {
            Err(PagedError::Corrupt { path, detail }) => {
                assert_eq!(path, victim);
                assert!(detail.contains("precision"), "{detail}");
            }
            other => panic!("expected Corrupt error, got {other:?}"),
        }

        // Payload one value short or one value long, CRC re-sealed: the
        // bulk decode reports a typed frame error, never a panic.
        for (len, truncated) in [(11, true), (13, false)] {
            let values = Values::F64((0..len).map(|i| i as f64).collect());
            std::fs::write(&victim, encode_chunk(1, 4, 4, &values)).unwrap();
            match DataMatrix::open_paged(&dir) {
                Err(PagedError::Frame { path, source }) => {
                    assert_eq!(path, victim);
                    if truncated {
                        assert!(matches!(source, FrameError::Truncated), "{source}");
                    } else {
                        assert!(matches!(source, FrameError::Malformed(_)), "{source}");
                    }
                }
                other => panic!("expected Frame error for {len} values, got {other:?}"),
            }
        }

        // Delete the chunk entirely: typed I/O error.
        std::fs::remove_file(&victim).unwrap();
        assert!(matches!(
            DataMatrix::open_paged(&dir),
            Err(PagedError::Io { .. })
        ));

        // Unverified open defers the failure (the fast cold-start path).
        let lazy = DataMatrix::open_paged_with(
            &dir,
            PagedOptions {
                verify_on_open: false,
                ..PagedOptions::default()
            },
        )
        .unwrap();
        assert_eq!(lazy.get(0, 0), Some(0.0)); // chunk 0 is intact
    }

    #[test]
    fn appender_streams_blocks_and_matches_batch_construction() {
        let dir_a = scratch("appender-a");
        let dir_b = scratch("appender-b");
        let rows: Vec<Vec<Option<f64>>> = (0..11)
            .map(|r| {
                (0..5)
                    .map(|c| {
                        if (r + c) % 4 == 1 {
                            None
                        } else {
                            Some((r * 5 + c) as f64)
                        }
                    })
                    .collect()
            })
            .collect();
        let mut app = MatrixBuilder::dense(0, 5)
            .paged(&dir_a)
            .chunk_rows(3)
            .appender()
            .unwrap();
        for row in &rows {
            app.append_row(row).unwrap();
        }
        let streamed = app.finish().unwrap();
        let flat: Vec<Option<f64>> = rows.into_iter().flatten().collect();
        let batch = MatrixBuilder::dense(11, 5)
            .paged(&dir_b)
            .chunk_rows(3)
            .from_options(flat)
            .unwrap();
        assert_eq!(streamed.rows(), 11);
        assert_eq!(streamed.fingerprint(), batch.fingerprint());
        // Both reopen identically.
        let a = DataMatrix::open_paged(&dir_a).unwrap();
        let b = DataMatrix::open_paged(&dir_b).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
    }

    #[test]
    fn labels_survive_the_paged_roundtrip() {
        let dir = scratch("labels");
        let m = MatrixBuilder::dense(2, 3)
            .row_labels(vec!["r0".into(), "r1".into()])
            .col_labels(vec!["a".into(), "b".into(), "c".into()])
            .paged(&dir)
            .from_rows(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
            .unwrap();
        assert_eq!(m.row_label(1), Some("r1"));
        let back = DataMatrix::open_paged(&dir).unwrap();
        assert_eq!(back.row_label(0), Some("r0"));
        assert_eq!(back.col_label(2), Some("c"));
        assert_eq!(back, m);
    }

    #[test]
    fn mutation_is_pinned_until_flush_then_durable() {
        let dir = scratch("flush");
        let mut m = MatrixBuilder::dense(6, 2)
            .paged(&dir)
            .chunk_rows(2)
            .from_rows((0..12).map(|i| i as f64).collect())
            .unwrap();
        m.set(5, 1, 99.5);
        m.unset(0, 0);
        // Disk still holds the old state until flush.
        let before = DataMatrix::open_paged(&dir).unwrap();
        assert_eq!(before.get(5, 1), Some(11.0));
        assert_eq!(before.get(0, 0), Some(0.0));
        m.flush().unwrap();
        let after = DataMatrix::open_paged(&dir).unwrap();
        assert_eq!(after.get(5, 1), Some(99.5));
        assert_eq!(after.get(0, 0), None);
        assert_eq!(after.fingerprint(), m.fingerprint());
    }

    #[test]
    fn append_rows_extend_the_tail_block() {
        let dir = scratch("append");
        let mut m = MatrixBuilder::dense(0, 3)
            .paged(&dir)
            .chunk_rows(2)
            .appender()
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(m.rows(), 0);
        for r in 0..5 {
            m.append_row(&[Some(r as f64), None, Some(-(r as f64))])
                .unwrap();
        }
        assert_eq!(m.rows(), 5);
        assert_eq!(m.get(4, 0), Some(4.0));
        assert_eq!(m.get(4, 1), None);
        m.flush().unwrap();
        let back = DataMatrix::open_paged(&dir).unwrap();
        assert_eq!(back.rows(), 5);
        assert_eq!(back.fingerprint(), m.fingerprint());
        // And the memory twin built the same way agrees.
        let mut twin = MatrixBuilder::dense(0, 3).build();
        for r in 0..5 {
            twin.append_row(&[Some(r as f64), None, Some(-(r as f64))])
                .unwrap();
        }
        assert_eq!(twin.fingerprint(), m.fingerprint());
    }

    #[test]
    fn own_flush_reopens_the_replaced_block_file() {
        let dir = scratch("reopen");
        let _ = MatrixBuilder::dense(5, 2)
            .paged(&dir)
            .chunk_rows(2)
            .from_rows((0..10).map(|i| i as f64).collect())
            .unwrap();
        let opts = PagedOptions {
            cache_blocks: Some(1),
            ..PagedOptions::default()
        };
        let mut m = DataMatrix::open_paged_with(&dir, opts).unwrap();
        assert_eq!(m.get(0, 1), Some(1.0)); // block 0 resident, its file held
        assert!(m.open_block_files() > 0);
        m.set(0, 1, 42.5);
        m.flush().unwrap();
        assert_eq!(m.get(2, 0), Some(4.0)); // block 1 evicts block 0
        assert_eq!(m.get(0, 1), Some(42.5), "block 0 re-read from the new file");

        // The same for rows appended into the tail block (row 4 alone).
        assert_eq!(m.get(4, 0), Some(8.0));
        m.append_row(&[Some(-1.5), None]).unwrap();
        m.flush().unwrap();
        assert_eq!(m.get(0, 0), Some(0.0)); // block 0 evicts the tail
        assert_eq!(m.get(5, 0), Some(-1.5), "tail re-read from the new file");
        assert_eq!(m.get(5, 1), None);
        assert_eq!(
            m.fingerprint(),
            DataMatrix::open_paged(&dir).unwrap().fingerprint()
        );
    }

    #[test]
    fn open_files_stay_under_the_cap_and_lines_match_the_cells() {
        let dir = scratch("handle-cap");
        let (rows, cols) = (200, 3);
        let data: Vec<Option<f64>> = (0..rows * cols)
            .map(|i| (i % 11 != 4).then_some(i as f64 * 0.375 - 50.0))
            .collect();
        let m = MatrixBuilder::dense(rows, cols)
            .paged(&dir)
            .chunk_rows(1)
            .cache_blocks(Some(1))
            .from_options(data.clone())
            .unwrap();
        assert!(rows > HANDLE_CAP);
        let check = |line: &crate::Line<'_>, cell: &dyn Fn(usize) -> Option<f64>| {
            for i in 0..line.len() {
                assert_eq!(line.is_specified(i), cell(i).is_some());
                assert_eq!(line.get(i).to_bits(), cell(i).unwrap_or(0.0).to_bits());
            }
            assert!(m.open_block_files() <= HANDLE_CAP);
        };
        for _ in 0..2 {
            for c in 0..cols {
                check(&m.col_of(c), &|r| data[r * cols + c]);
            }
            for r in (0..rows).rev() {
                check(&m.row_of(r), &|c| data[r * cols + c]);
            }
        }
        assert_eq!(m.open_block_files(), HANDLE_CAP);
    }

    #[test]
    fn block_changed_in_place_panics_with_its_path() {
        for delta in [-1, 1] {
            assert_in_place_change_panics(delta);
        }
    }

    /// Opens a verified four-block matrix at cache 1, changes block 2's
    /// file in place by `delta` bytes, and checks that its next miss
    /// panics with the block's path.
    fn assert_in_place_change_panics(delta: i64) {
        let dir = scratch(&format!("in-place{delta}"));
        let _ = MatrixBuilder::dense(4, 2)
            .paged(&dir)
            .chunk_rows(1)
            .from_rows((0..8).map(|i| i as f64).collect())
            .unwrap();
        let opts = PagedOptions {
            cache_blocks: Some(1),
            ..PagedOptions::default()
        };
        let m = DataMatrix::open_paged_with(&dir, opts).unwrap();
        assert_eq!(
            m.open_block_files(),
            4,
            "the verifying open holds every file"
        );
        let victim = chunk_path(&dir, 2);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap();
        let len = file.metadata().unwrap().len();
        file.set_len(len.checked_add_signed(delta).unwrap())
            .unwrap();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.get(2, 0)))
            .expect_err("a block changed in place must not decode");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains(&victim.display().to_string()), "{msg}");
    }

    #[test]
    fn backend_kind_parses_and_prints() {
        assert_eq!(
            "memory".parse::<BackendKind>().unwrap(),
            BackendKind::Memory
        );
        assert_eq!("paged".parse::<BackendKind>().unwrap(), BackendKind::Paged);
        assert!("disk".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Paged.to_string(), "paged");
    }
}

//! # dc-matrix
//!
//! Data-matrix substrate for the δ-cluster / FLOC reproduction
//! (*δ-Clusters: Capturing Subspace Correlation in a Large Data Set*,
//! Yang, Wang, Wang & Yu, ICDE 2002).
//!
//! Everything downstream — the FLOC algorithm, the Cheng & Church baseline,
//! CLIQUE, the data generators — operates on [`DataMatrix`]: a dense
//! objects × attributes matrix of `f64` in which individual entries may be
//! *missing* (unspecified). Missing values are first-class citizens of the
//! δ-cluster model, so they are first-class here too: every statistic skips
//! them and every iterator exposes only specified entries.
//!
//! ## Modules
//!
//! * [`bitset`] — fixed-capacity index sets used for cluster membership.
//! * [`dense`] — the [`DataMatrix`] itself.
//! * [`stats`] — means/variances over specified entries.
//! * [`transform`] — log transform (amplification → shifting coherence),
//!   global centering, rescaling.
//! * [`pearson`] — Pearson R correlation, the measure the paper argues is
//!   insufficient for subspace coherence.
//! * [`io`] — dense delimited text and sparse triples (MovieLens `u.data`)
//!   readers/writers.
//! * [`storage`] — pluggable value backends (resident memory or file-backed
//!   pages) and the [`MatrixBuilder`] construction API.
//! * [`framing`] — the CRC-framed binary envelope shared by every on-disk
//!   artifact (paged blocks here, `.dcm`/`.dck` in `dc-serve`).
//! * [`atomic`] — crash-safe write-fsync-rename file replacement.
//!
//! ## Example
//!
//! ```
//! use dc_matrix::MatrixBuilder;
//!
//! // Figure 1 of the paper: three mutually shifted vectors.
//! let m = MatrixBuilder::dense(3, 5).from_rows(vec![
//!     1.0,   5.0,   23.0,  12.0,  20.0,
//!     11.0,  15.0,  33.0,  22.0,  30.0,
//!     111.0, 115.0, 133.0, 122.0, 130.0,
//! ]);
//! assert_eq!(m.get(1, 2), Some(33.0));
//! // Rows 0 and 1 differ by a constant shift of 10 on every attribute.
//! for c in 0..5 {
//!     assert_eq!(m.get(1, c).unwrap() - m.get(0, c).unwrap(), 10.0);
//! }
//! ```

pub mod atomic;
pub mod bitset;
pub mod categorical;
pub mod dense;
pub mod framing;
pub mod io;
mod kernels;
pub mod pearson;
pub mod stats;
pub mod storage;
pub mod transform;
pub mod view;

pub use atomic::{atomic_write, atomic_write_with, temp_sibling};
pub use bitset::BitSet;
pub use dense::{DataMatrix, Line, SpecifiedEntries, StorageError, ValueStorage, ValuesSlice};
pub use framing::FrameError;
pub use io::{IoError, NonFinitePolicy, ParseError};
pub use stats::{validate, Summary, ValidationReport};
pub use storage::{
    BackendKind, IoStats, MatrixBuilder, PagedAppender, PagedError, PagedMatrixBuilder,
    PagedOptions, Storage, DEFAULT_CHUNK_ROWS,
};

//! Shared binary artifact framing: magic + version envelope, CRC-32
//! checksum trailer, and little-endian primitive encoding.
//!
//! Every framed on-disk format in the workspace — the `.dcm` model and
//! `.dck` checkpoint in `dc-serve`, and the paged matrix block files in
//! [`crate::storage`] — uses the same envelope:
//!
//! ```text
//! offset 0   magic  4 bytes (format-specific)
//!        4   u16    format version
//!        6   u16    reserved flags (must be 0)
//!        8   payload (format-specific sections)
//!        end-4  u32 CRC-32 (IEEE) of every preceding byte
//! ```
//!
//! A flipped byte anywhere surfaces as [`FrameError::ChecksumMismatch`]
//! before any parsing happens, and every read is bounds-checked — corrupt
//! or truncated files produce typed errors, never panics.
//!
//! This module lives in `dc-matrix` (the workspace's root crate) so both
//! the storage backends here and the serving artifacts in `dc-serve` can
//! share one codec; `dc-serve` re-exports it and converts [`FrameError`]
//! into its richer `ArtifactError`.

/// Everything that can go wrong decoding a framed envelope.
#[derive(Debug)]
pub enum FrameError {
    /// An underlying I/O failure while reading or writing the file.
    Io(std::io::Error),
    /// The file does not start with the expected magic.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The CRC-32 over the file body does not match the stored checksum.
    ChecksumMismatch {
        /// The checksum stored in the trailer.
        stored: u32,
        /// The checksum computed over the body actually read.
        computed: u32,
    },
    /// The file ended before a section was complete.
    Truncated,
    /// A structurally invalid value (negative count, index out of range…).
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::BadMagic => write!(f, "not a δ-cluster artifact (bad magic)"),
            FrameError::UnsupportedVersion(v) => {
                write!(f, "unsupported artifact format version {v}")
            }
            FrameError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact is corrupt: stored checksum {stored:#010x}, computed {computed:#010x}"
            ),
            FrameError::Truncated => write!(f, "artifact is truncated"),
            FrameError::Malformed(why) => write!(f, "malformed artifact: {why}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

// ---- CRC-32 (IEEE 802.3, reflected) --------------------------------------

const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables. `CRC32_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC32_TABLES[k][b]` is the register update for byte `b` followed
/// by `k` zero bytes, so sixteen lookups fold a 16-byte block at once.
static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE) of `bytes`.
///
/// On x86-64 CPUs with `pclmulqdq` and `sse4.1`, inputs of at least
/// 64 bytes go through the carry-less-multiply kernel; everything else
/// takes the slicing-by-16 table loop. Both compute the same checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if clmul::available() {
        // SAFETY: `available` just confirmed the CPU features the kernel
        // is compiled for.
        return !unsafe { clmul::update(!0, bytes) };
    }
    !crc32_update(!0, bytes)
}

/// Advances the (pre-inverted) CRC-32 register `crc` over `bytes` with the
/// slicing-by-16 tables.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().expect("chunks_exact(16) yields 16 bytes");
        let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 by carry-less-multiply folding (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009), with
/// the bit-reflected constants of Linux's `crc32-pclmul`.
///
/// Four 128-bit lanes fold 64 bytes per step; the lanes then fold into one,
/// which takes the remaining 16-byte blocks. A 128 → 64 → 32-bit
/// reduction and a Barrett step give the register, and the table loop
/// finishes any tail under 16 bytes from it. SSE4.2's `crc32` instruction
/// is no substitute: it computes CRC-32C (Castagnoli), another polynomial.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The shortest input the kernel folds: one block per lane.
    const MIN_LEN: usize = 64;

    // Folding constants (x^n mod P(x), bit-reflected). K1/K2 carry a lane
    // 512 bits ahead, K3/K4 carry 128 bits, K5 folds 64 → 32 bits.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    // P(x) with its x^32 term, and the Barrett constant μ = ⌊x^64 / P(x)⌋.
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Whether this CPU can run [`update`].
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    fn load(block: &[u8]) -> __m128i {
        let block: &[u8; 16] = block.try_into().expect("folded blocks are 16 bytes");
        // SAFETY: `block` is 16 readable bytes, `loadu` has no alignment
        // requirement and SSE2 is part of the x86-64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Carries `acc` forward by the distance `k` encodes (low constant
    /// times the low half, high times the high half) and adds `data`.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(acc: __m128i, k: __m128i, data: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), data)
    }

    /// Advances the (pre-inverted) CRC-32 register `crc` over `bytes`.
    /// Inputs shorter than [`MIN_LEN`] go to the table loop.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse4.1` ([`available`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(crc: u32, bytes: &[u8]) -> u32 {
        if bytes.len() < MIN_LEN {
            return super::crc32_update(crc, bytes);
        }
        let (body, tail) = bytes.split_at(bytes.len() & !15);
        let (head, mut rest) = body.split_at(MIN_LEN);
        // SAFETY (for every `fold` and intrinsic below): the caller
        // guarantees `pclmulqdq` and `sse4.1`, which this function enables.
        let mut x0 = _mm_xor_si128(load(&head[..16]), _mm_cvtsi32_si128(crc as i32));
        let mut x1 = load(&head[16..32]);
        let mut x2 = load(&head[32..48]);
        let mut x3 = load(&head[48..]);

        let k1k2 = _mm_set_epi64x(K2, K1);
        while rest.len() >= MIN_LEN {
            x0 = fold(x0, k1k2, load(&rest[..16]));
            x1 = fold(x1, k1k2, load(&rest[16..32]));
            x2 = fold(x2, k1k2, load(&rest[32..48]));
            x3 = fold(x3, k1k2, load(&rest[48..64]));
            rest = &rest[MIN_LEN..];
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x0, k3k4, x1);
        x = fold(x, k3k4, x2);
        x = fold(x, k3k4, x3);
        for block in rest.chunks_exact(16) {
            x = fold(x, k3k4, load(block));
        }

        // 128 → 64 bits: K4 times the low half, added to the high half.
        x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(k3k4, x, 0x01));
        // 64 → 32 bits, leaving 32 zero bits appended to the message.
        let mask32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(
            _mm_srli_si128(x, 4),
            _mm_clmulepi64_si128(_mm_and_si128(x, mask32), _mm_set_epi64x(0, K5), 0x00),
        );
        // Barrett reduction: the register is x mod P(x), read from bits 32..64.
        let pmu = _mm_set_epi64x(MU, P);
        let q = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), pmu, 0x10);
        let qp = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), pmu, 0x00);
        let folded = _mm_extract_epi32(_mm_xor_si128(x, qp), 1) as u32;
        super::crc32_update(folded, tail)
    }
}

// ---- encoding ------------------------------------------------------------

/// Little-endian section encoder. Start with [`Writer::begin`], append
/// sections, and [`Writer::finish`] to seal the checksum trailer.
#[derive(Debug)]
pub struct Writer {
    /// The accumulated envelope bytes (header + payload so far).
    pub buf: Vec<u8>,
}

impl Writer {
    /// Opens an envelope with `magic` and `version` (reserved flags 0).
    pub fn begin(magic: [u8; 4], version: u16) -> Self {
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(&magic);
        w.u16(version);
        w.u16(0); // reserved flags
        w
    }

    /// Appends the CRC-32 trailer and returns the complete artifact bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.u32(crc);
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Raw bytes, appended verbatim (the caller owns any length prefix).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// Length-prefixed ascending index list.
    pub fn indices(&mut self, ix: &[usize]) {
        self.u64(ix.len() as u64);
        for &i in ix {
            self.u64(i as u64);
        }
    }
}

// ---- decoding ------------------------------------------------------------

/// Bounds-checked little-endian section decoder over a validated envelope
/// body (checksum trailer excluded).
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    version: u16,
}

impl<'a> Reader<'a> {
    /// Validates the envelope of `bytes` — magic, version (`1..=version`),
    /// CRC-32 trailer — and returns a reader positioned at the payload.
    ///
    /// # Errors
    /// [`FrameError::BadMagic`], [`FrameError::UnsupportedVersion`],
    /// [`FrameError::ChecksumMismatch`], or [`FrameError::Truncated`]
    /// when the file is too short to hold an envelope at all.
    pub fn open(bytes: &'a [u8], magic: [u8; 4], version: u16) -> Result<Self, FrameError> {
        if bytes.len() < magic.len() + 4 + 4 {
            return Err(FrameError::Truncated);
        }
        if bytes[..4] != magic {
            return Err(FrameError::BadMagic);
        }
        let file_version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if file_version == 0 || file_version > version {
            return Err(FrameError::UnsupportedVersion(file_version));
        }
        let body = &bytes[..bytes.len() - 4];
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        let computed = crc32(body);
        if stored != computed {
            return Err(FrameError::ChecksumMismatch { stored, computed });
        }
        Ok(Reader {
            bytes: body,
            pos: 8,
            version: file_version,
        })
    }

    /// The format version stamped in the file's envelope — at most the
    /// `version` passed to [`Reader::open`]. Decoders branch on this to
    /// skip sections that older writers did not emit.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Bytes of payload not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Fails with [`FrameError::Malformed`] unless the payload was
    /// consumed exactly.
    pub fn expect_end(&self) -> Result<(), FrameError> {
        if self.pos != self.bytes.len() {
            return Err(FrameError::Malformed(format!(
                "{} trailing bytes after payload",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        if end > self.bytes.len() {
            return Err(FrameError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub fn f32(&mut self) -> Result<f32, FrameError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// A `u64` count that must also be a sane in-memory size.
    pub fn count(&mut self, what: &str, limit: usize) -> Result<usize, FrameError> {
        let n = self.u64()?;
        if n > limit as u64 {
            return Err(FrameError::Malformed(format!(
                "{what} count {n} exceeds limit {limit}"
            )));
        }
        Ok(n as usize)
    }
    pub fn str(&mut self) -> Result<String, FrameError> {
        let len = self.count("string length", self.bytes.len())?;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| FrameError::Malformed("string is not UTF-8".into()))
    }
    /// A strictly ascending index list bounded by `bound`.
    pub fn indices(&mut self, bound: usize, what: &str) -> Result<Vec<usize>, FrameError> {
        let n = self.count(what, bound)?;
        let mut out = Vec::with_capacity(n);
        let mut prev: Option<usize> = None;
        for _ in 0..n {
            let i = self.u64()? as usize;
            if i >= bound {
                return Err(FrameError::Malformed(format!(
                    "{what} index {i} out of range 0..{bound}"
                )));
            }
            if prev.is_some_and(|p| p >= i) {
                return Err(FrameError::Malformed(format!(
                    "{what} indices not strictly ascending"
                )));
            }
            prev = Some(i);
            out.push(i);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TST1";

    #[test]
    fn crc32_matches_known_vector() {
        // The standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    /// Bit-at-a-time CRC-32 straight from the definition: the reference
    /// the table-driven `crc32` must reproduce.
    fn naive_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let lsb = crc & 1;
                crc >>= 1;
                if lsb != 0 {
                    crc ^= 0xEDB8_8320;
                }
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_bitwise_oracle_at_every_length_and_offset() {
        // xorshift64: deterministic pseudo-random bytes.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..12_837 + 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for start in 0..16 {
            for len in 0..=257 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), naive_crc32(s), "start {start} len {len}");
            }
        }
        // One buffer the size of a mine-paged block file.
        let block = &buf[3..3 + 12_837];
        assert_eq!(crc32(block), naive_crc32(block));
    }

    /// Asserts that every CRC-32 path gives the bitwise oracle's value on
    /// `s`: the dispatching `crc32`, the table loop, and the carry-less-
    /// multiply kernel called directly when this CPU can run it.
    fn assert_crc_paths_agree(s: &[u8], what: std::fmt::Arguments<'_>) {
        let want = naive_crc32(s);
        assert_eq!(crc32(s), want, "crc32, {what}");
        assert_eq!(!crc32_update(!0, s), want, "table loop, {what}");
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            // SAFETY: `available` just confirmed the kernel's CPU features.
            let kernel = !unsafe { clmul::update(!0, s) };
            assert_eq!(kernel, want, "clmul kernel, {what}");
        }
    }

    #[test]
    fn crc32_kernel_table_loop_and_bitwise_oracle_agree() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let buf: Vec<u8> = (0..(1 << 20) + 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        // Crosses the kernel's 64-byte threshold and every tail length.
        for start in 0..16 {
            for len in 0..=1024 {
                let s = &buf[start..start + len];
                assert_crc_paths_agree(s, format_args!("start {start} len {len}"));
            }
        }
        assert_crc_paths_agree(&buf[3..3 + 12_837], format_args!("12,837-byte block"));
        assert_crc_paths_agree(&buf[..1 << 20], format_args!("1 MiB"));
    }

    #[test]
    fn envelope_roundtrip() {
        let mut w = Writer::begin(MAGIC, 1);
        w.u64(7);
        w.str("hello");
        w.indices(&[1, 4, 9]);
        let bytes = w.finish();
        let mut r = Reader::open(&bytes, MAGIC, 1).unwrap();
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.indices(10, "test").unwrap(), vec![1, 4, 9]);
        r.expect_end().unwrap();
    }

    #[test]
    fn reader_reports_the_file_version_not_the_ceiling() {
        let mut w = Writer::begin(MAGIC, 1);
        w.f32(1.5);
        w.f32(f32::MIN_POSITIVE);
        let bytes = w.finish();
        // Opened with a newer ceiling, the reader still reports what the
        // file was written as — decoders gate new sections on this.
        let mut r = Reader::open(&bytes, MAGIC, 3).unwrap();
        assert_eq!(r.version(), 1);
        assert_eq!(r.f32().unwrap(), 1.5);
        assert_eq!(r.f32().unwrap().to_bits(), f32::MIN_POSITIVE.to_bits());
        r.expect_end().unwrap();
    }

    #[test]
    fn envelope_rejects_wrong_magic_version_and_corruption() {
        let mut w = Writer::begin(MAGIC, 1);
        w.u64(1);
        let bytes = w.finish();

        assert!(matches!(
            Reader::open(&bytes, *b"OTHR", 1),
            Err(FrameError::BadMagic)
        ));

        let mut newer = Writer::begin(MAGIC, 9);
        newer.u64(1);
        let newer = newer.finish();
        assert!(matches!(
            Reader::open(&newer, MAGIC, 1),
            Err(FrameError::UnsupportedVersion(9))
        ));

        let mut corrupt = bytes.clone();
        corrupt[9] ^= 1;
        assert!(matches!(
            Reader::open(&corrupt, MAGIC, 1),
            Err(FrameError::ChecksumMismatch { .. })
        ));

        assert!(matches!(
            Reader::open(&bytes[..6], MAGIC, 1),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = Writer::begin(MAGIC, 1);
        w.u64(1);
        w.u64(2);
        let bytes = w.finish();
        let mut r = Reader::open(&bytes, MAGIC, 1).unwrap();
        let _ = r.u64().unwrap();
        assert!(matches!(r.expect_end(), Err(FrameError::Malformed(_))));
    }
}

//! Cache-blocked, word-masked reduction kernels.
//!
//! The FLOC hot loops — base (mean) maintenance and residue accumulation —
//! reduce one matrix line (a row or a column) restricted to a cluster
//! membership set. The iterator path ([`crate::SpecifiedEntries`]) pays a
//! function call and an unpredictable branch per *entry*; these kernels
//! instead process one 64-entry block per mask word:
//!
//! - the selection word is `mask ∩ filter` — one `AND` selects a whole
//!   block of the line;
//! - a zero word skips 64 entries with a single predictable branch;
//! - a fully-set word reduces the block with a straight (autovectorizable)
//!   sum;
//! - a *dense* partial word uses branch-free masked accumulation: every
//!   lane `j` contributes `((word >> j) & 1) as f64 * term(j)`, so the
//!   inner loop has no data-dependent branches and vectorizes. Unselected
//!   lanes read the value slice (0.0 at missing cells) but multiply by
//!   `0.0`, which adds exactly `±0.0` and therefore leaves the accumulator
//!   bit-identical to the skip-the-entry iterator formulation;
//! - a *sparse* partial word (few selected lanes) instead walks its set
//!   bits with `trailing_zeros`, touching only the selected entries. Both
//!   partial strategies accumulate lanes in ascending order, so they are
//!   interchangeable bit for bit and the popcount dispatch is purely a
//!   speed decision — narrow clusters on wide words would otherwise pay
//!   for 64 lanes of arithmetic to use a handful.
//!
//! All kernels are generic over the backing scalar (`f64` or `f32`, see
//! [`crate::ValueStorage`]); accumulation is always in `f64`, so narrowing
//! the storage halves memory traffic without changing how sums round.

use crate::dense::ValuesSlice;

const WORD_BITS: usize = 64;

/// Partial words with at most this many selected lanes take the sparse
/// bit-iteration path; denser ones take the branch-free vectorized path.
/// Crossover: the vectorized path always costs 64 lanes of cheap SIMD
/// arithmetic, the sparse path `popcount` lanes of serial work.
const SPARSE_LANES: u32 = 16;

/// A storage scalar the kernels can widen to `f64`.
pub(crate) trait Scalar: Copy {
    fn widen(self) -> f64;
}

impl Scalar for f64 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self
    }
}

impl Scalar for f32 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self as f64
    }
}

#[inline(always)]
fn select(mask: &[u64], filter: Option<&[u64]>, w: usize) -> u64 {
    match filter {
        None => mask[w],
        Some(f) => mask[w] & f[w],
    }
}

/// Sum and count of the selected entries of one line.
///
/// `mask` is the line's specification words, `filter` an optional
/// membership set (same word layout); bits past `values.len()` must be
/// clear, which [`crate::DataMatrix`] guarantees for both.
pub(crate) fn masked_sum_count(
    values: ValuesSlice<'_>,
    mask: &[u64],
    filter: Option<&[u64]>,
) -> (f64, u32) {
    match values {
        ValuesSlice::F64(v) => sum_count(v, mask, filter),
        ValuesSlice::F32(v) => sum_count(v, mask, filter),
    }
}

fn sum_count<T: Scalar>(values: &[T], mask: &[u64], filter: Option<&[u64]>) -> (f64, u32) {
    let (mut sum, mut count) = (0.0, 0u32);
    for wi in 0..mask.len() {
        let word = select(mask, filter, wi);
        if word == 0 {
            continue;
        }
        let start = wi * WORD_BITS;
        let block = &values[start..values.len().min(start + WORD_BITS)];
        let ones = word.count_ones();
        if word == u64::MAX && block.len() == WORD_BITS {
            for &v in block {
                sum += v.widen();
            }
        } else if ones <= SPARSE_LANES {
            let mut bits = word;
            while bits != 0 {
                sum += block[bits.trailing_zeros() as usize].widen();
                bits &= bits - 1;
            }
        } else {
            for (j, &v) in block.iter().enumerate() {
                sum += ((word >> j) & 1) as f64 * v.widen();
            }
        }
        count += ones;
    }
    (sum, count)
}

/// Residue contribution of the selected entries of one line:
/// `Σ term(v − line_base − cross_bases[j] + base)` with `term = |·|`
/// (arithmetic mean) or `(·)²` (squared mean).
///
/// `cross_bases` must cover every index of the line (`len ≥ values.len()`);
/// lanes outside the selection may hold anything finite — they are
/// multiplied by zero.
pub(crate) fn masked_residue(
    values: ValuesSlice<'_>,
    mask: &[u64],
    filter: Option<&[u64]>,
    line_base: f64,
    cross_bases: &[f64],
    base: f64,
    squared: bool,
) -> f64 {
    match (values, squared) {
        (ValuesSlice::F64(v), false) => {
            residue::<f64, false>(v, mask, filter, line_base, cross_bases, base)
        }
        (ValuesSlice::F64(v), true) => {
            residue::<f64, true>(v, mask, filter, line_base, cross_bases, base)
        }
        (ValuesSlice::F32(v), false) => {
            residue::<f32, false>(v, mask, filter, line_base, cross_bases, base)
        }
        (ValuesSlice::F32(v), true) => {
            residue::<f32, true>(v, mask, filter, line_base, cross_bases, base)
        }
    }
}

fn residue<T: Scalar, const SQUARED: bool>(
    values: &[T],
    mask: &[u64],
    filter: Option<&[u64]>,
    line_base: f64,
    cross_bases: &[f64],
    base: f64,
) -> f64 {
    debug_assert!(cross_bases.len() >= values.len());
    let mut acc = 0.0;
    for wi in 0..mask.len() {
        let word = select(mask, filter, wi);
        if word == 0 {
            continue;
        }
        let start = wi * WORD_BITS;
        let end = values.len().min(start + WORD_BITS);
        let block = &values[start..end];
        let bases = &cross_bases[start..end];
        if word == u64::MAX && block.len() == WORD_BITS {
            for (&v, &cb) in block.iter().zip(bases) {
                let d = v.widen() - line_base - cb + base;
                acc += if SQUARED { d * d } else { d.abs() };
            }
        } else if word.count_ones() <= SPARSE_LANES {
            let mut bits = word;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                let d = block[j].widen() - line_base - bases[j] + base;
                acc += if SQUARED { d * d } else { d.abs() };
                bits &= bits - 1;
            }
        } else {
            for (j, (&v, &cb)) in block.iter().zip(bases).enumerate() {
                let d = v.widen() - line_base - cb + base;
                acc += ((word >> j) & 1) as f64 * if SQUARED { d * d } else { d.abs() };
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    // Naive per-bit oracles the kernels must match bit for bit.

    fn naive_sum_count(values: &[f64], mask: &[u64], filter: Option<&[u64]>) -> (f64, u32) {
        let (mut sum, mut count) = (0.0, 0);
        for (i, &v) in values.iter().enumerate() {
            let m = mask[i / 64] >> (i % 64) & 1 != 0;
            let f = filter.is_none_or(|f| f[i / 64] >> (i % 64) & 1 != 0);
            if m && f {
                sum += v;
                count += 1;
            }
        }
        (sum, count)
    }

    fn words_of(bits: &[usize], len: usize) -> Vec<u64> {
        let mut words = vec![0u64; len.div_ceil(64)];
        for &b in bits {
            words[b / 64] |= 1 << (b % 64);
        }
        words
    }

    #[test]
    fn sum_count_matches_naive_across_word_boundaries() {
        let n = 200;
        let values: Vec<f64> = (0..n).map(|i| (i as f64) * 0.75 - 31.0).collect();
        let mask_bits: Vec<usize> = (0..n).filter(|i| i % 3 != 1).collect();
        let filter_bits: Vec<usize> = (0..n).filter(|i| i % 5 != 0).collect();
        let mask = words_of(&mask_bits, n);
        let filter = words_of(&filter_bits, n);
        for f in [None, Some(filter.as_slice())] {
            let (s, c) = sum_count(&values, &mask, f);
            let (es, ec) = naive_sum_count(&values, &mask, f);
            assert_eq!(s.to_bits(), es.to_bits(), "sum must be bit-identical");
            assert_eq!(c, ec);
        }
    }

    #[test]
    fn full_words_take_the_straight_path_and_still_match() {
        let n = 192; // exactly three full words
        let values: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mask = vec![u64::MAX; 3];
        let (s, c) = sum_count(&values, &mask, None);
        let (es, ec) = naive_sum_count(&values, &mask, None);
        assert_eq!(s.to_bits(), es.to_bits());
        assert_eq!(c, ec);
        assert_eq!(c, 192);
    }

    #[test]
    fn residue_matches_naive_for_both_means() {
        let n = 130;
        let values: Vec<f64> = (0..n).map(|i| (i as f64) * 1.25 - 40.0).collect();
        let bases: Vec<f64> = (0..n).map(|i| (i as f64) * 0.1).collect();
        let mask_bits: Vec<usize> = (0..n).filter(|i| i % 4 != 2).collect();
        let mask = words_of(&mask_bits, n);
        let (line_base, base) = (3.5, -1.25);
        for squared in [false, true] {
            let got = masked_residue(
                ValuesSlice::F64(&values),
                &mask,
                None,
                line_base,
                &bases,
                base,
                squared,
            );
            let mut expect = 0.0;
            for &i in &mask_bits {
                let d = values[i] - line_base - bases[i] + base;
                expect += if squared { d * d } else { d.abs() };
            }
            assert_eq!(got.to_bits(), expect.to_bits(), "squared={squared}");
        }
    }

    #[test]
    fn sparse_and_dense_partial_words_agree_with_naive() {
        let n = 256;
        let values: Vec<f64> = (0..n).map(|i| ((i * 7) % 97) as f64 - 48.0).collect();
        let bases: Vec<f64> = (0..n).map(|i| (i as f64) * 0.05 - 3.0).collect();
        // One word well under SPARSE_LANES, one well over, one exactly at it.
        for keep in [5usize, 48, SPARSE_LANES as usize] {
            let mask_bits: Vec<usize> = (0..n).filter(|i| (i * 31) % 64 < keep).collect();
            let mask = words_of(&mask_bits, n);
            let (s, c) = sum_count(&values, &mask, None);
            let (es, ec) = naive_sum_count(&values, &mask, None);
            assert_eq!(s.to_bits(), es.to_bits(), "keep={keep}");
            assert_eq!(c, ec, "keep={keep}");
            for squared in [false, true] {
                let got = masked_residue(
                    ValuesSlice::F64(&values),
                    &mask,
                    None,
                    1.5,
                    &bases,
                    -0.75,
                    squared,
                );
                let mut expect = 0.0;
                for &i in &mask_bits {
                    let d = values[i] - 1.5 - bases[i] + -0.75;
                    expect += if squared { d * d } else { d.abs() };
                }
                assert_eq!(
                    got.to_bits(),
                    expect.to_bits(),
                    "keep={keep} squared={squared}"
                );
            }
        }
    }

    #[test]
    fn f32_storage_widens_before_accumulating() {
        let values_f32: Vec<f32> = vec![0.1, 0.2, 0.3, 0.4];
        let widened: Vec<f64> = values_f32.iter().map(|&v| v as f64).collect();
        let mask = vec![0b1111u64];
        let (s32, c32) = masked_sum_count(ValuesSlice::F32(&values_f32), &mask, None);
        let (s64, c64) = sum_count(&widened, &mask, None);
        assert_eq!(s32.to_bits(), s64.to_bits());
        assert_eq!(c32, c64);
    }
}

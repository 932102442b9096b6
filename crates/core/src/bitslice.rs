//! Bit-sliced counting of 2^d-bit report vectors — the absorb kernel
//! behind [`crate::InpRrAggregator`].
//!
//! Each InpRR report is a vector of `u64` words, one bit per cell. The
//! kernel adds a batch of them to the per-cell counts without ever
//! looking at a single bit: for each word position it keeps eight *bit
//! planes* on the stack, where plane `k` holds bit `k` of every lane's
//! running count, and adds a report word with one ripple-carry pass
//! across the planes (two bit operations per plane, all 64 lanes at
//! once). Eight planes count to 255, so the planes are flushed into
//! the `u64` cell counts after at most [`FLUSH_EVERY`] reports; the
//! flush walks only the set bits of each plane. A tile of
//! [`TILE_WORDS`] word positions is counted at a time, so the planes
//! never leave the stack whatever `d` is.
//!
//! This file is covered by the `ldp-lint` hot-path panic scan: no
//! indexing, no unwraps, no lossy counts.

/// Bit planes per word position: counts up to `2^8 − 1`.
const PLANES: usize = 8;

/// Reports absorbed between flushes of the bit planes (the largest
/// count eight planes hold).
const FLUSH_EVERY: usize = (1 << PLANES) - 1;

/// Word positions counted per pass over a chunk of reports (the stack
/// footprint is `TILE_WORDS · PLANES` words, 512 bytes).
const TILE_WORDS: usize = 8;

/// Add one 64-lane word to a lane-wise counter held as bit planes.
#[inline(always)]
fn add_word(planes: &mut [u64; PLANES], word: u64) {
    let mut carry = word;
    for plane in planes.iter_mut() {
        let next = *plane & carry;
        *plane ^= carry;
        carry = next;
    }
}

/// Add a bit-sliced counter into 64 consecutive cells. Lanes past the
/// end of `cells` (a final partial word when `2^d < 64`) are dropped.
#[inline]
fn flush(planes: &[u64; PLANES], cells: &mut [u64]) {
    for (weight, &plane) in planes.iter().enumerate() {
        let mut bits = plane;
        while bits != 0 {
            if let Some(cell) = cells.get_mut(bits.trailing_zeros() as usize) {
                *cell += 1 << weight;
            }
            bits &= bits - 1;
        }
    }
}

/// Add the set bits of every report `view` maps to `Some(words)` into
/// `ones`, where cell `c` is bit `c mod 64` of word `c / 64`. Items
/// mapped to `None` are skipped. A report with more words than `ones`
/// covers has its extra words ignored, one with fewer counts the
/// missing words as zero, and bits past `ones.len()` in the last word
/// are dropped — the kernel never panics on a malformed report (callers
/// holding untrusted reports validate them first).
///
/// The result is exactly the per-bit sum: identical to adding each
/// report's 1-positions one at a time, in any order.
pub fn count_bits<T, V>(ones: &mut [u64], reports: &[T], view: V)
where
    V: Fn(&T) -> Option<&[u64]>,
{
    for chunk in reports.chunks(FLUSH_EVERY) {
        for (tile, cells) in ones.chunks_mut(64 * TILE_WORDS).enumerate() {
            let first = tile * TILE_WORDS;
            let mut planes = [[0u64; PLANES]; TILE_WORDS];
            for report in chunk {
                let Some(words) = view(report) else {
                    continue;
                };
                let words = words.get(first..).unwrap_or_default();
                for (counter, &word) in planes.iter_mut().zip(words) {
                    add_word(counter, word);
                }
            }
            for (counter, cells) in planes.iter().zip(cells.chunks_mut(64)) {
                flush(counter, cells);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The obvious per-bit loop the kernel must match.
    fn reference(cells: usize, reports: &[Vec<u64>]) -> Vec<u64> {
        let mut ones = vec![0u64; cells];
        for report in reports {
            for (c, one) in ones.iter_mut().enumerate() {
                if report.get(c / 64).is_some_and(|w| w >> (c % 64) & 1 == 1) {
                    *one += 1;
                }
            }
        }
        ones
    }

    #[test]
    fn matches_the_per_bit_sum_across_flush_and_tile_boundaries() {
        let mut rng = StdRng::seed_from_u64(3);
        for cells in [2usize, 8, 64, 128, 1024] {
            let words = cells.div_ceil(64);
            for n in [0usize, 1, 254, 255, 256, 600] {
                let reports: Vec<Vec<u64>> = (0..n)
                    .map(|_| (0..words).map(|_| rng.gen::<u64>()).collect())
                    .collect();
                let mut ones = vec![0u64; cells];
                count_bits(&mut ones, &reports, |r| Some(r.as_slice()));
                assert_eq!(ones, reference(cells, &reports), "cells {cells} n {n}");
            }
        }
    }

    #[test]
    fn saturated_lanes_count_exactly_to_each_flush() {
        // Every bit set in every report: each lane's counter reaches
        // 255 exactly at the flush, the worst case for the planes.
        let reports = vec![vec![u64::MAX; 2]; 3 * FLUSH_EVERY + 7];
        let mut ones = vec![5u64; 128];
        count_bits(&mut ones, &reports, |r| Some(r.as_slice()));
        assert!(ones.iter().all(|&c| c == 5 + reports.len() as u64));
    }

    #[test]
    fn malformed_reports_never_panic_and_skipped_items_add_nothing() {
        let reports: Vec<Option<Vec<u64>>> = vec![
            Some(vec![]),
            Some(vec![u64::MAX; 9]),
            None,
            Some(vec![0b101]),
        ];
        let mut ones = vec![0u64; 4];
        count_bits(&mut ones, &reports, |r| r.as_deref());
        // Extra words ignored, bits past cell 3 dropped, None skipped.
        assert_eq!(ones, vec![2, 1, 2, 1]);
    }
}
